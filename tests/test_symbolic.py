"""Polynomial identities of the density formulas, proved with sympy for
every algebraic Kahler curvature tensor at once.

A tensor is R = sum_i a_i B_i over EXACT_KAHLER_BASIS, whose entries are
small integers, with the nine a_i as symbols; the lift is R0 + t R1 with
t = k^2 (sasaki.lift_parts).  The entries are polynomials over QQ, so every
sum and product below is exact, and an identity holds when two polynomials
are equal.
"""

import itertools

import numpy as np
from sympy import QQ, ring

from wcslab.catalog import flat_torus
from wcslab.geometry import _P1_SIGN, perm_sign
from wcslab.sasaki import lift_parts
from wcslab.wcs import CURVATURE_TERMS

from conftest import EXACT_KAHLER_BASIS

POLYS, *GENS = ring("a1:10,t", QQ)
COEFFICIENTS, T = GENS[:9], GENS[9]


def exact(values: np.ndarray) -> np.ndarray:
    """An integer-valued float array as an object array of polynomials."""
    assert np.array_equal(values, np.round(values))
    return np.vectorize(lambda x: POLYS(int(x)), otypes=[object])(values)


def times(poly, values: np.ndarray) -> np.ndarray:
    """poly times each entry (a PolyElement does not multiply an array)."""
    return np.vectorize(lambda x: poly * x, otypes=[object])(values)


def kahler_tensor() -> np.ndarray:
    """sum_i a_i B_i, (4, 4, 4, 4) polynomials."""
    return sum(times(a, b) for a, b in zip(COEFFICIENTS, exact(EXACT_KAHLER_BASIS)))


def closed_form_terms(R: np.ndarray) -> tuple:
    """(P, B, s): the Levi-Civita contraction of `pontrjagin_density`
    without its 1/(32 pi^2), the CURVATURE_TERMS sum and the scalar
    curvature s = R_ijji."""
    P = sum(perm_sign((a, b, c, d)) * R[a, b, k, l] * R[c, d, l, k]
            for a, b, c, d in itertools.permutations(range(4))
            for k in range(4) for l in range(4))
    B = sum(int(c) * R[idx] for c, idx in CURVATURE_TERMS)
    s = sum(R[i, j, j, i] for i in range(4) for j in range(4))
    return P, B, s


def raw_permutation_sum(R5: np.ndarray):
    """sum over the 120 permutations of sgn(sigma) tr[A_s1 E_s2s3 E_s4s5]
    in the identity frame along xi = e_0, with A_a[l, j] = R(e_a, e_j, xi, e_l)
    and E_bc[l, k] = R(e_b, e_c, e_k, e_l): 5 x 5 matrix products."""
    A = [R5[a, :, 0, :].T for a in range(5)]
    E = {(b, c): R5[b, c].T for b in range(5) for c in range(5)}
    return sum(perm_sign(p) * np.trace(A[p[0]] @ E[p[1], p[2]] @ E[p[3], p[4]])
               for p in itertools.permutations(range(5)))


def test_b_is_minus_half_the_scalar_curvature():
    _, B, s = closed_form_terms(kahler_tensor())
    assert 2 * B == -s and s != 0


def test_permutation_sum_is_the_closed_form():
    # The raw sum at R0 + t R1 is t (s1 P + 32 t B + 192 t^2): the closed
    # form times 30 / k^2, with (4/5!) FIBER_LENGTH / FIBER_LENGTH = 1/30.
    R = kahler_tensor()
    R5 = np.full((5, 5, 5, 5), POLYS(0), dtype=object)
    R5[1:, 1:, 1:, 1:] = R
    R5 = R5 + times(T, exact(lift_parts(flat_torus())[1].comp))
    P, B, _ = closed_form_terms(R)
    assert raw_permutation_sum(R5) == T * (int(_P1_SIGN) * P + 32 * T * B + 192 * T**2)
    assert P != 0 and B != 0
