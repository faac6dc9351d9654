"""Polynomial identities of the density formulas, proved with sympy for
every algebraic Kahler curvature tensor at once, and for every algebraic
curvature tensor on R^3; and the lift's k^2 part from an explicit metric.

A Kahler tensor is R = sum_i a_i B_i over EXACT_KAHLER_BASIS, whose entries
are small integers, with the nine a_i as symbols; the lift is R0 + t R1 with
t = k^2 (sasaki.lift_parts).  A tensor on R^3 is sum_m h_m (H_m wedge g)
over the six symmetric unit matrices H_m, with the h_m as symbols.  The
entries are polynomials over QQ, so every sum and product below is exact,
and an identity holds when two polynomials are equal.
"""

import functools
import itertools

import numpy as np
from sympy import QQ, ring

from wcslab.catalog import flat_torus
from wcslab.geometry import _P1_SIGN, RiemannTensor, perm_sign, validate_symmetries
from wcslab.sasaki import lift_parts
from wcslab.wcs import CURVATURE_TERMS

from conftest import EXACT_KAHLER_BASIS

POLYS, *GENS = ring("a1:10,t,h1:7,g1:4", QQ)
COEFFICIENTS, T = GENS[:9], GENS[9]
COEFFICIENTS_3D, GAMMA_DOT = GENS[10:16], GENS[16:19]


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


def raw_permutation_sum(R: np.ndarray, gdot):
    """sum over the permutations of range(n) of sgn(sigma)
    tr[A_s1 E_s2s3 ... E_s(n-1)sn] in the identity frame along gdot, with
    A_a[l, j] = R(e_a, e_j, gdot, e_l) and E_bc[l, k] = R(e_b, e_c, e_k, e_l):
    n x n matrix products, n = 3 or 5."""
    n = R.shape[0]
    A = [sum(times(g, R[a, :, m, :]) for m, g in enumerate(gdot) if g).T for a in range(n)]
    E = {(b, c): R[b, c].T for b in range(n) for c in range(n)}

    def term(p):
        factors = [A[p[0]]] + [E[p[i], p[i + 1]] for i in range(1, n, 2)]
        return perm_sign(p) * np.trace(functools.reduce(np.matmul, factors))

    return sum(term(p) for p in itertools.permutations(range(n)))


def symmetric_units(n: int) -> list:
    """The n (n + 1) / 2 symmetric n x n matrices with ones at (i, j) and
    (j, i), i <= j, and zeros elsewhere."""
    units = []
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h = np.zeros((n, n), dtype=int)
        h[i, j] = h[j, i] = 1
        units.append(h)
    return units


def kulkarni_nomizu_with_identity(h: np.ndarray) -> np.ndarray:
    """h wedge g for g the identity, in the sign convention in which
    constant curvature kappa is (kappa / 2) g wedge g:
    h_il g_jk + h_jk g_il - h_ik g_jl - h_jl g_ik."""
    g = np.eye(len(h), dtype=int)
    return (np.einsum("il,jk->ijkl", h, g) + np.einsum("il,jk->ijkl", g, h)
            - np.einsum("ik,jl->ijkl", h, g) - np.einsum("ik,jl->ijkl", g, h))


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
    assert raw_permutation_sum(R5, (1, 0, 0, 0, 0)) == T * (int(_P1_SIGN) * P + 32 * T * B + 192 * T**2)
    assert P != 0 and B != 0


def test_3d_permutation_sum_vanishes():
    # ACCEPT 05 at every point: the Weyl tensor vanishes on R^3, so the six
    # H_m wedge g span the 3^2 (3^2 - 1) / 12 = 6 dimensional space of
    # algebraic curvature tensors, and the sum vanishes for all of them and
    # every gdot.  Another orthonormal frame turns R and gdot into another
    # such pair, so the identity frame stands for all frames.
    basis = np.array([kulkarni_nomizu_with_identity(h) for h in symmetric_units(3)])
    assert np.linalg.matrix_rank(basis.reshape(6, -1)) == 6
    assert all(validate_symmetries(RiemannTensor(b.astype(float))) for b in basis)
    R = sum(times(h, b) for h, b in zip(COEFFICIENTS_3D, exact(basis)))
    assert raw_permutation_sum(R, GAMMA_DOT) == 0


METRIC_RING, *METRIC_GENS = ring("x1:5,k", QQ)
X, LEVEL = METRIC_GENS[:4], METRIC_GENS[4]


def at_most_linear(p):
    """The terms of p of total degree <= 1 in x1..x4: all that the
    curvature at the origin reads of a Christoffel symbol."""
    return METRIC_RING.from_dict({m: c for m, c in p.terms() if sum(m[:4]) <= 1})


def at_origin(p):
    """p at x = 0, a polynomial in k."""
    return METRIC_RING.from_dict({m: c for m, c in p.terms() if not any(m[:4])})


def test_lift_k2_part_from_an_explicit_metric():
    # R^5 with coordinates (t, x1..x4) and the orthonormal coframe (theta,
    # dx1..dx4), theta = dt + k (x1 dx2 - x2 dx1 + x3 dx4 - x4 dx3): the
    # level-k bundle over flat R^4, d theta = 2k (dx1 ^ dx2 + dx3 ^ dx4).
    # The frame dual to it is (d_t, d_i - theta_i d_t), which is the
    # coordinate frame at the origin, so the coordinate components of the
    # curvature there are the frame components, with no O'Neill formula.
    n = 5
    theta = [METRIC_RING(1), -LEVEL * X[1], LEVEL * X[0], -LEVEL * X[3], LEVEL * X[2]]
    g = [[theta[a] * theta[b] + (a == b and a > 0) for b in range(n)] for a in range(n)]
    ginv = [[(1 + sum(th**2 for th in theta[1:])) if a == b == 0 else -theta[a + b] if 0 in (a, b)
             else METRIC_RING(int(a == b)) for b in range(n)] for a in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        assert sum(g[a][m] * ginv[m][b] for m in range(n)) == int(a == b)

    def d(p, a):  # the metric does not depend on t
        return p.diff(X[a - 1]) if a else METRIC_RING(0)

    # Gamma^l_ij = (1/2) g^lm (d_i g_mj + d_j g_mi - d_m g_ij), to first order.
    gamma = [[[at_most_linear(sum(ginv[l][m] * (d(g[m][j], i) + d(g[m][i], j) - d(g[i][j], m))
                                  for m in range(n)) * QQ(1, 2))
               for j in range(n)] for i in range(n)] for l in range(n)]
    # R(d_i, d_j) d_k = R^l_kij d_l, and R[i, j, k, l] = R^l_kij at the origin, g = I.
    R = np.empty((n,) * 4, dtype=object)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        R[i, j, k, l] = at_origin(
            d(gamma[l][j][k], i) - d(gamma[l][i][k], j)
            + sum(gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k]
                  for m in range(n)))
    R1 = lift_parts(flat_torus())[1].comp
    assert np.array_equal(R1, np.round(R1))
    assert all(R[idx] == LEVEL**2 * int(R1[idx]) for idx in np.ndindex(R.shape))
    # At k = 1 and k = 2 this is R1 and 4 R1.
    for level in (1, 2):
        values = np.vectorize(lambda p: float(p(0, 0, 0, 0, level)), otypes=[float])(R)
        assert np.array_equal(values, level**2 * R1)
