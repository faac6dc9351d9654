import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wcslab import geometry, psdo
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
from wcslab.sasaki import FIBER_LENGTH, lift_curvature, lift_parts
from wcslab.catalog import flat_torus
from wcslab.wcs import permutation_density_raw

from conftest import (
    KAHLER_BASIS,
    exact_r_inf,
    random_curvature_3d,
    random_curvature_4d,
    random_rotation,
)


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


def violation_reference(c):
    """The four identity maxima of one tensor, each residual formed on its
    own, as symmetry_violation once computed them."""
    anti_ij = np.max(np.abs(c + np.transpose(c, (1, 0, 2, 3))))
    anti_kl = np.max(np.abs(c + np.transpose(c, (0, 1, 3, 2))))
    pair = np.max(np.abs(c - np.transpose(c, (2, 3, 0, 1))))
    bianchi = np.max(
        np.abs(c + np.transpose(c, (1, 2, 0, 3)) + np.transpose(c, (2, 0, 1, 3)))
    )
    return max(anti_ij, anti_kl, pair, bianchi)


def lift_stack():
    """Lift tensors of catalog surfaces and of cp2 with a conjugated J, and
    their parts, (m, 5, 5, 5, 5): their violations are exact zeros on the
    catalog and rounding-level values with the conjugated J."""
    Q = random_rotation(np.random.default_rng(11), 4)
    J = ComplexStructure(Q @ STANDARD_J.matrix @ Q.T)
    turned = replace(cp2_fubini_study(), J=J, curvature=complex_space_form(4.0, J))
    out = []
    for base in (flat_torus(), cp2_fubini_study(), product_cp1(2, 3), product_cp1(1, 5), turned):
        out += [part.comp for part in lift_parts(base)]
        out += [lift_curvature(base, k).curvature5.comp for k in (1, 3, -7, 10**4)]
    return np.array(out)


class TestViolationsOnAStack:
    """geometry._violations, the one-pass form behind symmetry_violation and
    the lift checks, against each tensor checked on its own."""

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3)])
    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_random_stack_equals_each_tensor(self, rng, shape, dim):
        comps = rng.standard_normal(shape + (dim,) * 4)
        got = geometry._violations(comps)
        assert got.shape == shape
        for idx in np.ndindex(shape):
            want = violation_reference(comps[idx])
            assert got[idx] == want == symmetry_violation(RiemannTensor(comps[idx]))

    def test_lift_stack_equals_each_tensor(self):
        comps = lift_stack()
        got = geometry._violations(comps)
        assert got.shape == (len(comps),)
        assert 0.0 in got and np.any(got > 0.0)  # both exact and rounded cases
        assert got.tolist() == [violation_reference(c) for c in comps]

    def test_result_is_a_float(self):
        value = symmetry_violation(complex_space_form(4.0))
        assert isinstance(value, float) and value == violation_reference(complex_space_form(4.0).comp)

    def test_nan_marks_only_its_tensor(self):
        comps = lift_stack()[:4].copy()
        comps[2, 1, 2, 2, 1] = np.nan
        got = geometry._violations(comps)
        assert np.isnan(got[2]) and np.isnan(symmetry_violation(RiemannTensor(comps[2])))
        assert [got[i] for i in (0, 1, 3)] == [violation_reference(comps[i]) for i in (0, 1, 3)]


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

    # None would draw OS entropy and True would run as seed 1: neither is
    # the fixed seed that makes the value reproducible.
    @pytest.mark.parametrize("seed", [None, True, 1.5, "3", -1])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int >= 0"):
            max_abs_component(RiemannTensor.zero(4), seed=seed, samples=1)

    def test_numpy_integer_seed_accepted(self):
        R = cp2_fubini_study().curvature
        assert max_abs_component(R, seed=np.int64(3), samples=2) == max_abs_component(R, seed=3, samples=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_rejected(self, bad):
        comp = np.array(cp2_fubini_study().curvature.comp)
        comp[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            max_abs_component(RiemannTensor(comp), samples=3)


# Reference search, kept from before each sweep became one stacked
# contraction: the 5-operand einsum rotation of one frame, and a coordinate
# descent that rotates and tests one candidate frame at a time.


class TestExactRInf:
    """The frame search against |R|_inf in closed form (conftest.exact_r_inf):
    Thorpe's sectional extremes and the disjoint-pair bound on Lambda+ and
    Lambda-, with no frame search."""

    @pytest.mark.parametrize("surface", [flat_torus(), cp2_fubini_study(), product_cp1(1, 1),
                                         product_cp1(2, 3), product_cp1(6, 5)],
                             ids=lambda s: f"{s.name}{s.params.get('a', '')}{s.params.get('b', '')}")
    def test_catalog_r_inf(self, surface):
        assert abs(exact_r_inf(surface.curvature) - surface.r_inf) <= 1e-12

    def test_frame_independent(self):
        rng = np.random.default_rng(4)
        tensors = [cp2_fubini_study().curvature, product_cp1(2, 3).curvature,
                   RiemannTensor(KAHLER_BASIS[4])] + [random_curvature_4d(rng) for _ in range(3)]
        for R in tensors:
            want = exact_r_inf(R)
            for _ in range(3):
                Q = random_rotation(rng, 4)
                turned = RiemannTensor(np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, R.comp))
                assert abs(exact_r_inf(turned) - want) <= 1e-13 * np.abs(R.comp).max()

    def test_random_tensors_satisfy_symmetries(self):
        rng = np.random.default_rng(5)
        assert all(validate_symmetries(random_curvature_4d(rng)) for _ in range(5))

    @staticmethod
    def search_cases():
        """(seed, R): the nine KAHLER_BASIS tensors, then six random
        algebraic tensors, each searched with its index in its kind as the
        seed."""
        rng = np.random.default_rng(21)
        return (list(enumerate(RiemannTensor(b) for b in KAHLER_BASIS))
                + list(enumerate(random_curvature_4d(rng) for _ in range(6))))

    def test_search_rounds_above_by_a_few_ulps_at_most(self):
        # As its basis drifts off orthonormality the search can round above
        # the maximum (cp2 with seed 5 and one sample: 4.000000000000049).
        for seed, R in self.search_cases():
            got = max_abs_component(R, seed=seed, samples=30)
            assert got <= exact_r_inf(R) + 64 * np.finfo(float).eps * np.abs(R.comp).max(), seed

    def test_search_reaches_the_exact_value_on_the_kahler_basis(self):
        for seed, R in self.search_cases()[:9]:
            got = max_abs_component(R, seed=seed, samples=30)
            assert got >= exact_r_inf(R) - 1e-9, (seed, got)

    def test_search_can_stop_short(self):
        # The first random algebraic tensor: 30 samples from seed 0 end at a
        # local maximum 20 % below |R|_inf (2.567 for 3.222); 300 samples
        # from seed 100 reach it.  The other five reach it within 1e-9.
        cases = self.search_cases()[9:]
        (seed, R), exact = cases[0], exact_r_inf(cases[0][1])
        assert max_abs_component(R, seed=seed, samples=30) < 0.8 * exact
        assert abs(max_abs_component(R, seed=100, samples=300) - exact) <= 1e-9
        for seed, R in cases[1:]:
            assert max_abs_component(R, seed=seed, samples=30) >= exact_r_inf(R) - 1e-9, seed


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
        # Rank 4 (curvature) and rank 3 (the prop-2.2 moment).
        for rank, subscripts in ((4, "ijkl,ai,bj,ck,dl->abcd"), (3, "ijk,ai,bj,ck->abc")):
            for _ in range(10):
                comp = rng.standard_normal((dim,) * rank)
                bases = np.array([random_rotation(rng, dim) for _ in range(7)])
                stacked = geometry._rotate_tensor(comp, bases)
                assert stacked.shape == (7,) + (dim,) * rank
                for basis, got in zip(bases, stacked):
                    want = np.einsum(subscripts, comp, *[basis] * rank)
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

    @pytest.mark.parametrize("steps", [1, 200])
    def test_every_call_rotates_one_sweep_length(self, monkeypatch, steps):
        calls = self.count_rotations(monkeypatch)
        R = cp2_fubini_study().curvature
        Q, _r = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        geometry._refine_frame(R.comp, Q, steps=steps)
        # The start frame, then each call rotates 2 C(4, 2) candidates from
        # the current basis, in cyclic order after the last move, whether
        # it moves, starts the next sweep or ends a sweep without a move.
        assert calls[0] == 1 and len(calls) > 2
        assert calls[1:] == [12] * (len(calls) - 1)

    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 41, 200])
    @pytest.mark.parametrize("seed", range(8))
    def test_refine_equals_per_candidate_descent(self, seed, steps):
        """The cyclic calls and the sweep count they keep accept the same
        moves, and stop after the same sweep, as the reference descent."""
        _, R = search_case(seed)
        Q, _r = np.linalg.qr(np.random.default_rng(seed).standard_normal((R.dim, R.dim)))
        want = reference_refine(R.comp, Q, stacked_rotation_of_one, steps)
        assert geometry._refine_frame(R.comp, Q, steps) == want


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
            # Listed twice: each cyclic run of one sweep is a slice.
            assert np.array_equal(stack, np.array(want + want))
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


def _rounding_floor(dim):
    """An absolute floor for the agreement bounds: four subnormal steps
    (2^-1074) per summed term.  On subnormal input the relative bound can
    underflow to 0 while the two sums still differ by a step; on
    normal-range input the floor is too small to change the bound."""
    return 4 * math.factorial(dim) * 2.0**-1074


def _tensors(dim):
    return arrays(np.float64, (dim,) * 4, elements=st.floats(-4.0, 4.0))


def _subnormal_tensor(dim, at):
    """Every entry the smallest subnormal, 5e-324, but a 2.0 at `at`."""
    comp = np.full((dim,) * 4, 2.0**-1074)
    comp[at] = 2.0
    return comp


@settings(max_examples=25, deadline=None)
@given(_tensors(4))
@example(_subnormal_tensor(4, (0, 1, 0, 0)))
def test_pontrjagin_contraction_matches_permutation_loop(comp):
    E = np.transpose(comp, (0, 1, 3, 2))
    total, scale = _signed_sum(4, lambda s: np.trace(E[s[0], s[1]] @ E[s[2], s[3]]))
    norm = -1.0 / (4.0 * 8.0 * np.pi**2)
    assert abs(pontrjagin_density(RiemannTensor(comp)) - norm * total) <= (
        1e-12 * abs(norm) * scale + _rounding_floor(4)
    )


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 5]).flatmap(
    lambda d: st.tuples(_tensors(d), st.integers(0, 2**32 - 1))))
# The two sums differ by one subnormal step, 5e-324, where the relative
# bound alone is 0.
@example((_subnormal_tensor(3, (0, 1, 0, 0)), 0))
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
    norm = 4.0 / math.factorial(dim) * FIBER_LENGTH
    value = permutation_density_raw(RiemannTensor(comp), OrthonormalFrame(vecs), gdot)
    assert abs(value - norm * total) <= 1e-12 * norm * scale + _rounding_floor(dim)


def test_random_3d_tensors_satisfy_symmetries(rng):
    for _ in range(20):
        assert symmetry_violation(random_curvature_3d(rng)) <= 1e-12


def _array_holders():
    """One instance of each frozen dataclass that holds an ndarray."""
    surface = cp2_fubini_study()
    return {
        "RiemannTensor": surface.curvature,
        "ComplexStructure": surface.J,
        "OrthonormalFrame": OrthonormalFrame.standard(4),
        "KahlerSurface": surface,
        "SasakiLift": lift_curvature(surface, 2),
        "ClassicalSymbol": psdo.identity_symbol(2, grid=8, depth=2),
    }


@pytest.mark.parametrize("name", ["RiemannTensor", "ComplexStructure", "OrthonormalFrame",
                                  "KahlerSurface", "SasakiLift", "ClassicalSymbol"])
def test_array_holders_compare_and_hash_by_identity(name):
    # A field-wise == would compare arrays and raise, and a field-wise hash
    # cannot hash an array; these compare and hash as objects.
    a = _array_holders()[name]
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != copy.copy(a)
    assert {a} == {a} and a in {a: 1}
