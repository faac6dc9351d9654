import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

from conftest import random_curvature_3d, random_rotation


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
