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
from wcslab.catalog import complex_space_form, cp2_fubini_study, flat_torus, product_cp1
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
from wcslab.wcs import permutation_density_raw

from conftest import (
    KAHLER_BASIS,
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
    """|R|_inf in closed form: Thorpe's sectional extremes and the
    disjoint-pair bound on Lambda+ and Lambda-, with no frame search.  The
    catalog values are checked in test_catalog.py."""

    def test_lambda_bases_are_orthonormal_eigenbases_of_the_star(self):
        H, plus, minus = geometry._HODGE, geometry._LAMBDA_PLUS, geometry._LAMBDA_MINUS
        both = np.hstack([plus, minus])
        assert np.abs(both.T @ both - np.eye(6)).max() <= 4 * np.finfo(float).eps
        assert np.array_equal(H @ plus, plus) and np.array_equal(H @ minus, -minus)

    def test_zero_is_exact(self):
        assert max_abs_component(RiemannTensor.zero(4)) == 0.0
        assert max_abs_component(flat_torus().curvature) == 0.0

    @pytest.mark.parametrize("kappa", [-3.0, -1.0, 0.5, 1.0, 2.0])
    def test_constant_sectional_curvature(self, kappa):
        d = np.eye(4)
        comp = kappa * (np.einsum("il,jk->ijkl", d, d) - np.einsum("ik,jl->ijkl", d, d))
        assert abs(max_abs_component(RiemannTensor(comp)) - abs(kappa)) <= 1e-12

    @pytest.mark.parametrize("c", [-8.0, -4.0, -1.0, -0.25, 0.25, 1.0, 4.0, 8.0])
    def test_complex_space_form(self, c):
        # Holomorphic sectional curvature c: the sectional curvatures fill
        # [c/4, c] (or [c, c/4]), and no other component is larger.
        assert abs(max_abs_component(complex_space_form(c)) - abs(c)) <= 1e-12 * abs(c)

    def test_frame_independent(self):
        rng = np.random.default_rng(4)
        tensors = [cp2_fubini_study().curvature, product_cp1(2, 3).curvature,
                   RiemannTensor(KAHLER_BASIS[4])] + [random_curvature_4d(rng) for _ in range(3)]
        for R in tensors:
            want = max_abs_component(R)
            for _ in range(3):
                Q = random_rotation(rng, 4)
                turned = RiemannTensor(np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, R.comp))
                assert abs(max_abs_component(turned) - want) <= 1e-13 * np.abs(R.comp).max()

    def test_random_tensors_satisfy_symmetries(self):
        rng = np.random.default_rng(5)
        assert all(validate_symmetries(random_curvature_4d(rng)) for _ in range(5))

    @pytest.fixture(scope="class")
    def sampled_frames(self):
        """The nine KAHLER_BASIS tensors, six random algebraic ones, and
        4,000 random frames."""
        rng = np.random.default_rng(21)
        tensors = ([RiemannTensor(b) for b in KAHLER_BASIS]
                   + [random_curvature_4d(rng) for _ in range(6)])
        return tensors, np.array([random_rotation(rng, 4) for _ in range(4000)])

    @pytest.mark.parametrize("n", range(15))
    def test_bounds_and_nearly_meets_sampled_frames(self, sampled_frames, n):
        """No component in the sampled frames exceeds the closed form by more
        than rounding, and the best of them comes within 5 % of it."""
        tensors, frames = sampled_frames
        R = tensors[n]
        value = max_abs_component(R)
        sampled = np.abs(geometry._rotate_tensor(R.comp, frames)).max()
        assert sampled <= value + 64 * np.finfo(float).eps * np.abs(R.comp).max()
        assert sampled >= 0.95 * value

    @pytest.mark.parametrize("plus, minus", [([1.0, 1.0, -2.0], [2.0, -1.0, -1.0]),
                                             ([2.0, -1.0, -1.0], [1.0, 1.0, -2.0])])
    def test_disjoint_pair_can_exceed_every_sectional_curvature(self, plus, minus):
        """A Weyl tensor with blocks diag(plus) on Lambda+ and diag(minus) on
        Lambda-: the sectional curvatures fill [-1.5, 1.5], and R(e1, e2, e3,
        e4) reaches 2 = (max(plus) - min(minus), max(minus) - min(plus)) / 2
        at its larger end, which the sampled frames nearly meet."""
        wedges = np.array([np.outer(a, b) - np.outer(b, a)
                           for a, b in itertools.combinations(np.eye(4), 2)])
        P, N = geometry._LAMBDA_PLUS, geometry._LAMBDA_MINUS
        M = P @ np.diag(plus) @ P.T + N @ np.diag(minus) @ N.T
        R = RiemannTensor(np.einsum("pq,pij,qkl->ijkl", M, wedges, wedges))
        assert validate_symmetries(R)
        assert abs(max_abs_component(R) - 2.0) <= 1e-12
        rng = np.random.default_rng(3)
        frames = np.array([random_rotation(rng, 4) for _ in range(4000)])
        assert 1.95 <= np.abs(geometry._rotate_tensor(R.comp, frames)).max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("dim", [3, 5])
    def test_other_dimensions_rejected(self, dim):
        with pytest.raises(ShapeError):
            max_abs_component(RiemannTensor.zero(dim))

    def test_seed_and_samples_are_ignored(self):
        R = product_cp1(2, 3).curvature
        want = max_abs_component(R)
        for seed, samples in ((0, 1), (5, 100), (np.int64(3), np.int64(2)), (None, 0), (-1, "3")):
            assert max_abs_component(R, seed=seed, samples=samples) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_component_rejected(self, bad):
        comp = np.array(cp2_fubini_study().curvature.comp)
        comp[0, 1, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            max_abs_component(RiemannTensor(comp))


def norm_case(seed):
    """Seed s gives a random algebraic tensor (s even) or a random Kahler
    one (s odd), with a second tensor of the same kind and a frame in O(4)
    that reverses the orientation, all drawn from s."""
    rng = np.random.default_rng([seed, 4])
    if seed % 2:
        def draw():
            return RiemannTensor(np.tensordot(rng.uniform(-2.0, 2.0, 9), KAHLER_BASIS, axes=1))
    else:
        def draw():
            return random_curvature_4d(rng)
    R, S = draw(), draw()
    return R, S, random_rotation(rng, 4) @ np.diag([-1.0, 1.0, 1.0, 1.0])


class TestClosedFormIsANorm:
    """|R|_inf is the largest of the |linear functionals| R -> R(e_a, e_b,
    e_c, e_d) over orthonormal frames: a norm on curvature tensors that is
    invariant under O(4).  The closed form must behave as one."""

    @pytest.mark.parametrize("seed", range(20))
    def test_between_the_frame_max_and_the_operator_norm(self, seed):
        # The standard frame is one orthonormal frame, and each component is
        # <M w, w'> for unit 2-forms w, w'.
        R, _S, _Q = norm_case(seed)
        value = max_abs_component(R)
        assert np.abs(R.comp).max() <= value
        assert value <= np.linalg.norm(geometry._curvature_operator(R.comp), 2) * (1.0 + 1e-13)

    @pytest.mark.parametrize("seed", range(20))
    def test_invariant_under_an_orientation_reversing_frame(self, seed):
        # Reversing the orientation swaps Lambda+ and Lambda-, hence A and C.
        R, _S, Q = norm_case(seed)
        turned = RiemannTensor(np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, R.comp))
        assert abs(max_abs_component(turned) - max_abs_component(R)) <= 1e-13 * np.abs(R.comp).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_absolutely_homogeneous(self, seed):
        R, _S, _Q = norm_case(seed)
        value = max_abs_component(R)
        for scale in (-2.5, -1.0, 3.0):
            got = max_abs_component(RiemannTensor(scale * R.comp))
            assert abs(got - abs(scale) * value) <= 1e-13 * abs(scale) * np.abs(R.comp).max()

    @pytest.mark.parametrize("seed", range(20))
    def test_triangle_inequality(self, seed):
        R, S, _Q = norm_case(seed)
        total = max_abs_component(RiemannTensor(R.comp + S.comp))
        bound = max_abs_component(R) + max_abs_component(S)
        assert total <= bound + 1e-13 * (np.abs(R.comp).max() + np.abs(S.comp).max())


class TestRotateTensor:
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
