import copy
import itertools
import math
import warnings
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
    RiemannTensor,
    ShapeError,
    max_abs_component,
    perm_sign,
    pontrjagin_density,
    symmetry_violation,
)
from wcslab.sasaki import FIBER_LENGTH, lift_curvature, lift_parts
from wcslab.wcs import permutation_density_raw

from conftest import (
    KAHLER_BASIS,
    random_curvature_3d,
    random_curvature_4d,
    random_rotation,
)


def endomorphism_of_pair(R, X, Y):
    """Matrix of Z -> R(X,Y)Z in frame components: M[l,k] = X^i Y^j R[i,j,k,l]."""
    return np.einsum("i,j,ijkl->lk", X, Y, R.comp)


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


class TestSymmetryViolation:
    def test_zero_tensor_passes(self):
        assert symmetry_violation(RiemannTensor.zero(4)) == 0.0

    def test_broken_antisymmetry_fails(self):
        comp = np.zeros((4, 4, 4, 4))
        comp[1, 2, 1, 2] = 1.0  # image components left at zero
        assert symmetry_violation(RiemannTensor(comp)) > 1e-10

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
        # p1 in a rotated frame is p1 of the tensor rotated into it.
        R = complex_space_form(4.0)
        ref = pontrjagin_density(R)
        for _ in range(20):
            turned = geometry._rotate_tensor(R.comp, random_rotation(rng, 4)[None])[0]
            assert pontrjagin_density(RiemannTensor(turned)) == pytest.approx(ref, abs=1e-10)

    def test_wrong_dimension(self):
        with pytest.raises(ShapeError):
            pontrjagin_density(RiemannTensor.zero(5))


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
        assert all(symmetry_violation(random_curvature_4d(rng)) <= 1e-10 for _ in range(5))

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
        assert symmetry_violation(R) <= 1e-10
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


def unstopped_search(R: RiemannTensor) -> float:
    """|R|_inf as the closed form computed it with a fixed bracket: each
    golden-section search over t in +-(2 |M| + 1) ran until lo < a < b < hi
    failed or for 200 steps, whatever the scale of M."""
    M = geometry._curvature_operator(R.comp)
    a = np.linalg.eigvalsh(geometry._LAMBDA_PLUS.T @ M @ geometry._LAMBDA_PLUS)
    c = np.linalg.eigvalsh(geometry._LAMBDA_MINUS.T @ M @ geometry._LAMBDA_MINUS)

    def golden_min(f, lo, hi):
        ratio = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo + (1.0 - ratio) * (hi - lo), lo + ratio * (hi - lo)
        fa, fb = f(a), f(b)
        for _ in range(200):
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = lo + (1.0 - ratio) * (hi - lo)
                fa = f(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + ratio * (hi - lo)
                fb = f(b)
            if not lo < a < b < hi:
                break
        return min(fa, fb)

    span = 2.0 * np.linalg.norm(M, 2) + 1.0
    k_max = golden_min(lambda t: np.linalg.eigvalsh(M - t * geometry._HODGE)[-1], -span, span)
    k_min = -golden_min(lambda t: -np.linalg.eigvalsh(M - t * geometry._HODGE)[0], -span, span)
    return float(max(k_max, -k_min, 0.5 * max(a[-1] - c[0], c[-1] - a[0])))


#: Powers of ten round the components; powers of two scale them exactly but
#: move LAPACK's own scaling, which starts below about 1e-146.
SCALES = (1.0, 1e100, 1e-100, 2.0**900, 2.0**-900)


class TestSearchStop:
    """Each golden-section search of max_abs_component stops once its
    bracket is 4 ulps of |M|_2 wide.  That width is relative to |M|, so the
    number of eigvalsh solves and the relative accuracy are the same at
    every scale, down to 2^-900."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """A list that counts the eigvalsh calls made while the test runs."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(None)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @staticmethod
    def check_scales(R, solves):
        """156-160 solves at every scale (two for the Lambda+- blocks, the
        rest for the two searches), and the value scaled within 8 eps."""
        want = None
        for scale in SCALES:
            solves.clear()
            value = max_abs_component(RiemannTensor(scale * R.comp))
            assert 156 <= len(solves) <= 160, (scale, len(solves))
            if want is None:
                want = value
            assert abs(value - scale * want) <= 8 * np.finfo(float).eps * scale * want, scale

    def test_catalog(self, solves):
        # cp1xcp1 has its optimum at t = 0, where a stop relative to t
        # shrinks the bracket through the tiny floats near zero.
        tensors = [cp2_fubini_study().curvature] + [product_cp1(a, b).curvature
                                                    for a in range(1, 7) for b in range(1, 7)]
        for R in tensors:
            self.check_scales(R, solves)

    @pytest.mark.parametrize("scale, want", [(1e307, 4e307), (4e307, 1.6e308)])
    def test_near_the_float_range(self, solves, scale, want):
        # Unscaled, 2 |M| and the bracket width overflow here and eigvalsh
        # fails to converge; on M / 2^e no step overflows or warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = max_abs_component(RiemannTensor(scale * cp2_fubini_study().curvature.comp))
        assert value == want
        assert 156 <= len(solves) <= 160, len(solves)

    def test_past_the_float_range_is_refused(self, solves):
        # Every component is finite, but |R|_inf is about 2.4e308.
        R = random_curvature_4d(np.random.default_rng(1)).comp
        R = R * (1.7e308 / np.abs(R).max())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\|R\|_inf is past the float range$"):
                max_abs_component(RiemannTensor(R))
        assert 156 <= len(solves) <= 160, len(solves)

    def test_catalog_values(self, solves):
        # cp2's largest component is 4 in its own frame and in a rotated
        # one; cp1xcp1 (2, 3), whose optimum is t = 0, gives 1/2, and cp2
        # scaled by 1e-100 gives 4e-100.
        comp = cp2_fubini_study().curvature.comp
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        turned = np.einsum("ai,bj,ck,dl,ijkl->abcd", Q, Q, Q, Q, comp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (comp, turned):
                assert abs(max_abs_component(RiemannTensor(c)) - 4.0) <= 1e-12
            for c, want in ((product_cp1(2, 3).curvature.comp, 0.5), (1e-100 * comp, 4e-100)):
                solves.clear()
                value = max_abs_component(RiemannTensor(c))
                assert 156 <= len(solves) <= 160, len(solves)
                assert abs(value - want) <= 8 * np.finfo(float).eps * want, value

    @pytest.mark.parametrize("chunk", range(10))
    def test_random_tensors(self, solves, chunk):
        # Random algebraic tensors (even seeds) and Kahler ones (odd).
        for seed in range(20 * chunk, 20 * chunk + 20):
            R, _S, _Q = norm_case(seed)
            self.check_scales(R, solves)
            value = max_abs_component(R)
            assert abs(value - unstopped_search(R)) <= 2e-15 * value


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
    gdot = np.random.default_rng(seed).standard_normal(dim)
    A = np.einsum("m,ajml->alj", gdot, comp)
    E = np.transpose(comp, (0, 1, 3, 2))

    def term(s):
        prod = A[s[0]]
        for a, b in zip(s[1::2], s[2::2]):
            prod = prod @ E[a, b]
        return np.trace(prod)

    total, scale = _signed_sum(dim, term)
    norm = 4.0 / math.factorial(dim) * FIBER_LENGTH
    value = permutation_density_raw(RiemannTensor(comp), gdot)
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
        "KahlerSurface": surface,
        "SasakiLift": lift_curvature(surface, 2),
        "ClassicalSymbol": psdo.identity_symbol(2, grid=8, depth=2),
    }


@pytest.mark.parametrize("name", ["RiemannTensor", "ComplexStructure", "KahlerSurface",
                                  "SasakiLift", "ClassicalSymbol"])
def test_array_holders_compare_and_hash_by_identity(name):
    # A field-wise == would compare arrays and raise, and a field-wise hash
    # cannot hash an array; these compare and hash as objects.
    a = _array_holders()[name]
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != copy.copy(a)
    assert {a} == {a} and a in {a: 1}
