import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wcslab import geometry
from wcslab.catalog import complex_space_form, cp2_fubini_study, product_cp1
from wcslab.geometry import (
    LEVI_CIVITA,
    STANDARD_J,
    ComplexStructure,
    OrthonormalFrame,
    RiemannTensor,
    ShapeError,
    endomorphism_of_pair,
    max_abs_component,
    perm_sign,
    pontrjagin_density,
    symmetry_violation,
    validate_symmetries,
)
from wcslab.sasaki import lift_curvature
from wcslab.catalog import flat_torus
from wcslab.wcs import permutation_density_raw

from conftest import KAHLER_BASIS, random_curvature_3d, random_rotation


def endomorphism_oracle(R, X, Y):
    """Brute-force index contraction, no einsum: M[l,k] = X^i Y^j R[i,j,k,l]."""
    d = R.dim
    M = np.zeros((d, d))
    for l in range(d):
        for k in range(d):
            s = 0.0
            for i in range(d):
                for j in range(d):
                    s += X[i] * Y[j] * R.comp[i, j, k, l]
            M[l, k] = s
    return M


class TestValidateSymmetries:
    def test_zero_tensor_passes(self):
        assert validate_symmetries(RiemannTensor.zero(4))

    def test_broken_antisymmetry_fails(self):
        comp = np.zeros((4, 4, 4, 4))
        comp[1, 2, 1, 2] = 1.0  # image components left at zero
        assert not validate_symmetries(RiemannTensor(comp))

    def test_fubini_study_passes(self):
        R = complex_space_form(4.0)
        assert symmetry_violation(R) <= 1e-12

    def test_shape_rejected(self):
        with pytest.raises(ShapeError):
            RiemannTensor(np.zeros((4, 4, 4, 3)))
        with pytest.raises(ShapeError):
            RiemannTensor(np.zeros((6, 6, 6, 6)))


class TestEndomorphismOfPair:
    def test_zero_tensor(self):
        R = RiemannTensor.zero(4)
        M = endomorphism_of_pair(R, np.eye(4)[0], np.eye(4)[1])
        assert np.all(M == 0.0)

    def test_equal_arguments_vanish(self):
        R = complex_space_form(4.0)
        X = np.array([0.5, 0.5, 0.5, 0.5])
        assert np.max(np.abs(endomorphism_of_pair(R, X, X))) <= 1e-15

    def test_torus_lift_against_contraction_loop(self):
        lift = lift_curvature(flat_torus(), 1)
        R5 = lift.curvature5
        xi, e2 = np.eye(5)[0], np.eye(5)[1]
        M = endomorphism_of_pair(R5, xi, e2)
        assert np.allclose(M, endomorphism_oracle(R5, xi, e2), atol=1e-14)
        # The single forced action: R(xi, e2) maps e2 to k^2 xi and
        # xi to -k^2 e2 (third lift identity plus antisymmetry).
        assert M[0, 1] == pytest.approx(1.0)
        assert M[1, 0] == pytest.approx(-1.0)

    def test_antisymmetry_on_catalog_tensors(self, rng):
        tensors = [
            complex_space_form(4.0),
            product_cp1(2, 3).curvature,
            lift_curvature(cp2_fubini_study(), 2).curvature5,
        ]
        for R in tensors:
            for _ in range(100):
                X = rng.standard_normal(R.dim)
                Y = rng.standard_normal(R.dim)
                a = endomorphism_of_pair(R, X, Y)
                b = endomorphism_of_pair(R, Y, X)
                assert np.max(np.abs(a + b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            endomorphism_of_pair(RiemannTensor.zero(4), np.zeros(5), np.zeros(4))


class TestPontrjaginDensity:
    def test_zero(self):
        assert pontrjagin_density(RiemannTensor.zero(4)) == 0.0

    def test_cp2_signature_is_three_over_volume(self):
        S = cp2_fubini_study()
        v = pontrjagin_density(S.curvature)
        assert v * S.volume == pytest.approx(3.0, abs=1e-10)

    def test_product_integrates_to_zero(self):
        S = product_cp1(2, 5)
        assert pontrjagin_density(S.curvature) * S.volume == pytest.approx(0.0, abs=1e-10)

    def test_frame_invariance(self, rng):
        R = complex_space_form(4.0)
        ref = pontrjagin_density(R)
        for _ in range(20):
            F = OrthonormalFrame(random_rotation(rng, 4))
            assert pontrjagin_density(R, F) == pytest.approx(ref, abs=1e-10)

    def test_no_frame_is_the_standard_frame_exactly(self, rng):
        tensors = [RiemannTensor(rng.standard_normal((4,) * 4)) for _ in range(20)]
        for R in tensors + [cp2_fubini_study().curvature, product_cp1(2, 5).curvature]:
            assert pontrjagin_density(R) == pontrjagin_density(R, OrthonormalFrame.standard(4))

    def test_wrong_dimension(self):
        with pytest.raises(ShapeError):
            pontrjagin_density(RiemannTensor.zero(5))
        with pytest.raises(ShapeError):
            pontrjagin_density(cp2_fubini_study().curvature, OrthonormalFrame.standard(5))


class TestMaxAbsComponent:
    def test_zero(self):
        assert max_abs_component(RiemannTensor.zero(4)) == 0.0

    def test_constant_sectional_curvature_one(self):
        d = np.eye(4)
        comp = np.einsum("il,jk->ijkl", d, d) - np.einsum("ik,jl->ijkl", d, d)
        val = max_abs_component(RiemannTensor(comp), seed=0, samples=20)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_fubini_study_reproducible_across_seeds(self):
        R = complex_space_form(4.0)
        vals = [max_abs_component(R, seed=s, samples=40) for s in (0, 1, 2)]
        assert max(vals) - min(vals) <= 1e-3
        assert vals[0] == pytest.approx(4.0, abs=1e-6)

    def test_monotone_in_samples(self):
        R = product_cp1(2, 3).curvature
        lo = max_abs_component(R, seed=7, samples=5)
        hi = max_abs_component(R, seed=7, samples=25)
        assert lo <= hi + 1e-15

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            max_abs_component(RiemannTensor.zero(4), samples=0)

    @pytest.mark.parametrize("samples", [2.5, True, "3", None])
    def test_samples_must_be_an_int(self, samples):
        with pytest.raises(ValueError, match="samples must be an int"):
            max_abs_component(RiemannTensor.zero(4), samples=samples)

    def test_numpy_integer_samples_accepted(self):
        R = cp2_fubini_study().curvature
        assert max_abs_component(R, samples=np.int64(2)) == max_abs_component(R, samples=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_rejected(self, bad):
        comp = np.array(cp2_fubini_study().curvature.comp)
        comp[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            max_abs_component(RiemannTensor(comp), samples=3)


# Reference search, kept from before each sweep became one stacked
# contraction: the 5-operand einsum rotation of one frame, and a coordinate
# descent that rotates and tests one candidate frame at a time.


def einsum_rotation(comp, basis):
    return np.einsum("ijkl,ai,bj,ck,dl->abcd", comp, basis, basis, basis, basis)


def stacked_rotation_of_one(comp, basis):
    return geometry._rotate_tensor(comp, basis[None])[0]


def _plane_rotation(dim, i, j, angle):
    Q = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    Q[i, i] = c
    Q[j, j] = c
    Q[i, j] = -s
    Q[j, i] = s
    return Q


def reference_refine(comp, basis, rotate, steps=200):
    dim = basis.shape[0]
    best = float(np.max(np.abs(rotate(comp, basis))))
    step = 0.2
    planes = list(itertools.combinations(range(dim), 2))
    for _ in range(steps):
        improved = False
        for (i, j) in planes:
            for sgn in (1.0, -1.0):
                cand = _plane_rotation(dim, i, j, sgn * step) @ basis
                val = float(np.max(np.abs(rotate(comp, cand))))
                if val > best + 1e-15:
                    best, basis, improved = val, cand, True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best


def reference_search(R, seed, samples, rotate=einsum_rotation):
    """max_abs_component's value for every prefix 1..samples of the seeded
    frames: one search of `samples` frames answers each smaller count."""
    rng = np.random.default_rng(seed)
    best_raw, result, prefix = -np.inf, 0.0, []
    for _ in range(samples):
        Q, _r = np.linalg.qr(rng.standard_normal((R.dim, R.dim)))
        raw = float(np.max(np.abs(rotate(R.comp, Q))))
        if raw > best_raw:
            best_raw = raw
            result = max(result, reference_refine(R.comp, Q, rotate))
        prefix.append(result)
    return prefix


def search_case(seed):
    """Seed s searches t4, cp2, cp1xcp1 or a random Kahler tensor (s mod 4);
    the product's radii and the Kahler coordinates are drawn from s."""
    rng = np.random.default_rng([seed, 4])
    kind = seed % 4
    if kind == 0:
        return "t4", flat_torus().curvature
    if kind == 1:
        return "cp2", cp2_fubini_study().curvature
    if kind == 2:
        a, b = (int(x) for x in rng.integers(1, 7, size=2))
        return f"cp1xcp1 {a} {b}", product_cp1(a, b).curvature
    return "kahler", RiemannTensor(np.tensordot(rng.uniform(-2.0, 2.0, 9), KAHLER_BASIS, axes=1))


class TestStackedSearch:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_rotation_matches_einsum(self, rng, dim):
        for _ in range(10):
            comp = rng.standard_normal((dim,) * 4)
            bases = np.array([random_rotation(rng, dim) for _ in range(7)])
            stacked = geometry._rotate_tensor(comp, bases)
            assert stacked.shape == (7,) + (dim,) * 4
            for basis, got in zip(bases, stacked):
                want = einsum_rotation(comp, basis)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_einsum_reference(self, seed):
        """The einsum reference end to end, one case per surface kind: only
        the rounding of the rotation differs, so the values agree to 1e-12."""
        _, R = search_case(seed)
        want = reference_search(R, seed, 3)
        for samples in (1, 3):
            got = max_abs_component(R, seed=seed, samples=samples)
            assert abs(got - want[samples - 1]) <= 1e-12 * max(1.0, abs(want[samples - 1]))

    @pytest.mark.parametrize("seed", range(20))
    def test_sweep_matches_per_candidate_descent(self, seed):
        """With the same rotation, one contraction per sweep accepts the same
        candidates in the same order as testing them one at a time, so the
        values are equal, not just close."""
        _, R = search_case(seed)
        want = reference_search(R, seed, 3, rotate=stacked_rotation_of_one)
        assert [max_abs_component(R, seed=seed, samples=n) for n in (1, 3)] == [want[0], want[2]]

    @staticmethod
    def count_rotations(monkeypatch):
        """Patch the rotation to record the stack size of every call."""
        calls = []
        rotate = geometry._rotate_tensor

        def counting(comp, bases):
            calls.append(len(bases))
            return rotate(comp, bases)

        monkeypatch.setattr(geometry, "_rotate_tensor", counting)
        return calls

    def test_sweep_without_improvement_is_one_rotation(self, monkeypatch):
        calls = self.count_rotations(monkeypatch)
        # No frame improves on the zero tensor: every sweep stalls.
        geometry._refine_frame(np.zeros((4,) * 4), np.eye(4), steps=3)
        assert calls == [1, 12, 12, 12]  # the start frame, then one call per sweep

    def test_accepted_candidate_reevaluates_only_the_rest(self, monkeypatch):
        calls = self.count_rotations(monkeypatch)
        R = cp2_fubini_study().curvature
        Q, _r = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        geometry._refine_frame(R.comp, Q, steps=1)
        # One sweep: the full stack, then each re-evaluation is a strict
        # suffix of the one before it.
        assert calls[:2] == [1, 12]
        assert all(0 < b < a for a, b in zip(calls[1:], calls[2:]))


class TestGivensCache:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_cached_stacks_are_read_only_loop_builds(self, dim):
        step = 0.2
        for _ in range(40):
            stack = geometry._givens_stack(dim, step)
            assert not stack.flags.writeable
            assert geometry._givens_stack(dim, step) is stack
            want = [_plane_rotation(dim, i, j, sgn * step)
                    for i, j in itertools.combinations(range(dim), 2) for sgn in (1.0, -1.0)]
            assert np.array_equal(stack, np.array(want))
            step *= 0.5

    @pytest.mark.parametrize("seed", range(12))
    def test_search_equals_reference_exactly(self, seed):
        """The cached stacks change nothing: every catalog search, with the
        cache cold or warm, equals the reference descent bit for bit."""
        for R in (flat_torus().curvature, cp2_fubini_study().curvature,
                  product_cp1(2, 3).curvature):
            want = reference_search(R, seed, 1, rotate=stacked_rotation_of_one)[0]
            geometry._givens_stack.cache_clear()
            assert max_abs_component(R, seed=seed, samples=1) == want
            assert max_abs_component(R, seed=seed, samples=1) == want


class TestFramesAndStructures:
    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(ValueError):
            OrthonormalFrame(np.eye(4) * 1.001)

    def test_bad_complex_structure_rejected(self):
        with pytest.raises(ValueError):
            ComplexStructure(np.eye(4))

    def test_standard_j_squares_to_minus_identity(self):
        m = STANDARD_J.matrix
        assert np.allclose(m @ m, -np.eye(4))


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_perm_sign_matches_inversion_count(perm):
    inversions = sum(
        1 for i in range(5) for j in range(i + 1, 5) if perm[i] > perm[j]
    )
    assert perm_sign(tuple(perm)) == (-1) ** inversions


def test_levi_civita_table():
    for n, eps in LEVI_CIVITA.items():
        assert not eps.flags.writeable
        assert np.count_nonzero(eps) == len(list(itertools.permutations(range(n))))
        for perm in itertools.permutations(range(n)):
            assert eps[perm] == perm_sign(perm)


def _signed_sum(dim, term):
    """Oracle: explicit loop over permutations, kept here in place of the
    contraction.  Returns the signed sum and the sum of |terms|, the scale
    against which agreement is measured."""
    terms = [perm_sign(s) * term(s) for s in itertools.permutations(range(dim))]
    return sum(terms), sum(abs(t) for t in terms)


def _tensors(dim):
    return arrays(np.float64, (dim,) * 4, elements=st.floats(-4.0, 4.0))


@settings(max_examples=25, deadline=None)
@given(_tensors(4))
def test_pontrjagin_contraction_matches_permutation_loop(comp):
    E = np.transpose(comp, (0, 1, 3, 2))
    total, scale = _signed_sum(4, lambda s: np.trace(E[s[0], s[1]] @ E[s[2], s[3]]))
    norm = -1.0 / (4.0 * 8.0 * np.pi**2)
    assert abs(pontrjagin_density(RiemannTensor(comp)) - norm * total) <= (
        1e-12 * abs(norm) * scale
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(
    lambda d: st.tuples(_tensors(d), st.integers(0, 2**32 - 1))))
def test_permutation_contraction_matches_permutation_loop(case):
    comp, seed = case
    dim = comp.shape[0]
    rng = np.random.default_rng(seed)
    vecs = random_rotation(rng, dim)
    gdot = rng.standard_normal(dim)
    A = np.einsum("ai,m,ijml->alj", vecs, gdot, comp)
    E = np.einsum("ai,bj,ijkl->ablk", vecs, vecs, comp)

    def term(s):
        prod = A[s[0]]
        for a, b in zip(s[1::2], s[2::2]):
            prod = prod @ E[a, b]
        return np.trace(prod)

    total, scale = _signed_sum(dim, term)
    fiber_length = 2.0
    norm = 4.0 / math.factorial(dim) * fiber_length
    value = permutation_density_raw(RiemannTensor(comp), OrthonormalFrame(vecs), gdot, fiber_length)
    assert abs(value - norm * total) <= 1e-12 * norm * scale


def test_random_3d_tensors_satisfy_symmetries(rng):
    for _ in range(20):
        assert symmetry_violation(random_curvature_3d(rng)) <= 1e-12
