"""The whole-ladder product kernel of wcslab.psdo against a copy of the
per-component kernel it replaced, compared byte for byte.

The copy below keeps a symbol as (order, components), each component the
(2, 1, d, d) row or the (2, G, d, d) array it was stored as, and rebuilds
compose, parametrix, the resolvent, the connection audit and the commutator
trace test from it exactly as they were written per component, down to the
depth + 2 components that the resolvent and the audit used to build.
"""

from fractions import Fraction
from math import factorial
from typing import NamedTuple

import numpy as np
import pytest

from wcslab import psdo
from wcslab.catalog import cp2_fubini_study, flat_torus, product_cp1
from wcslab.psdo import (
    commutator_trace_test,
    compose,
    connection_difference_symbol,
    connection_difference_terms,
    identity_symbol,
    laplacian_plus_one_symbol,
    parametrix,
    random_symbol,
    resolvent_parametrix,
)
from wcslab.sasaki import lift_curvature


class Old(NamedTuple):
    order: Fraction
    comps: list  # per component: the (2, 1, d, d) row or the (2, G, d, d) array
    grid: int


def old_from(sym) -> Old:
    return Old(sym.order, [c.stored for c in sym.components], sym.grid)


def stacked(values):
    """A component as the per-component kernel read it: None when both
    sides are exactly zero, one row when every grid row equals row 0 bit for
    bit, the values otherwise."""
    if not values.any():
        return None
    if values.shape[1] == 1:
        return values
    bits = np.ascontiguousarray(values).view(np.uint64)
    return values[:, :1] if (bits == bits[:, :1]).all() else values


def old_pad(sym: Old, depth: int) -> Old:
    if depth <= len(sym.comps):
        return sym
    zero = np.zeros((2, 1) + sym.comps[0].shape[2:], dtype=complex)
    return Old(sym.order, sym.comps + [zero] * (depth - len(sym.comps)), sym.grid)


def old_multiplication(value, grid, depth):
    arr = psdo._as_grid_matrix(value, grid, value.shape[-1])
    return old_pad(Old(Fraction(0), [np.stack((arr, arr))], grid), depth)


def old_derivative(dim, grid, gamma, depth, adjoint=False):
    eye = np.eye(dim, dtype=complex)[None]
    g = psdo._as_grid_matrix(gamma, grid, dim)
    lead = -1j if adjoint else 1j
    if adjoint:
        g = np.conjugate(np.transpose(g, (0, 2, 1)))
    return old_pad(Old(Fraction(1), [np.stack((lead * eye, -lead * eye)), np.stack((g, g))],
                       grid), depth)


def old_derivatives(comps, depth, grid):
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    table = []
    for q, c in enumerate(comps[:depth]):
        values = stacked(c)
        if values is None:
            table.append(None)
        elif values.shape[1] == 1:
            table.append([values] + [None] * (depth - q - 1))
        else:
            hat = np.fft.fft(values, axis=1) if depth - q > 1 else None
            table.append([values] + [
                np.fft.ifft(hat * ((1j * freqs) ** m)[:, None, None], axis=1)
                for m in range(1, depth - q)
            ])
    return table


def old_product_term(order, P_comps, dQ, j):
    acc = np.zeros((2, 1) + P_comps[0].shape[2:], dtype=complex)
    den = order.denominator
    for p, cp in enumerate(P_comps[: j + 1]):
        left = stacked(cp)
        if left is None:
            continue
        num = order.numerator - p * den
        fall = 1.0
        for m in range(j - p + 1):
            if m:
                fall *= (num - (m - 1) * den) / den
            if fall == 0.0:
                break
            dq = dQ[j - p - m]
            if dq is None or dq[m] is None:
                continue
            coeff = (-1j) ** m / factorial(m)
            scale = coeff * fall * np.array([1.0, (-1.0) ** m])
            term = scale[:, None, None, None] * np.matmul(left, dq[m])
            if term.shape[1] > acc.shape[1]:
                acc = acc + term
            else:
                acc += term
    return acc


def old_compose(P: Old, Q: Old, depth=None) -> Old:
    depth = min(len(P.comps), len(Q.comps)) if depth is None else depth
    dQ = old_derivatives(Q.comps, depth, Q.grid)
    return Old(P.order + Q.order, [old_product_term(P.order, P.comps, dQ, j)
                                   for j in range(depth)], P.grid)


def old_binary(P: Old, Q: Old, f) -> Old:
    order = max(P.order, Q.order)
    floor = max(P.order - len(P.comps) + 1, Q.order - len(Q.comps) + 1)
    depth = int(order - floor) + 1
    zero = np.zeros((2, 1) + P.comps[0].shape[2:], dtype=complex)

    def ladder(sym):
        return ([zero] * int(order - sym.order) + list(sym.comps))[:depth]

    return Old(order, [f(a, b) for a, b in zip(ladder(P), ladder(Q))], P.grid)


def old_add(P, Q):
    return old_binary(P, Q, lambda a, b: a + b)


def old_parametrix(A: Old, depth: int) -> Old:
    lead = stacked(A.comps[0])
    a0inv = np.stack([np.linalg.inv(values) for values in lead])
    dA = old_derivatives(A.comps, depth, A.grid)
    b = [a0inv]
    for j in range(1, depth):
        b.append(-np.matmul(old_product_term(-A.order, b, dA, j), a0inv))
    return Old(-A.order, b, A.grid)


def old_laplacian(gamma, grid, depth):
    dim = gamma.shape[-1]
    D = old_derivative(dim, grid, gamma, depth)
    Dstar = old_derivative(dim, grid, gamma, depth, adjoint=True)
    return old_add(old_compose(Dstar, D, depth), old_multiplication(np.eye(dim), grid, depth))


def old_resolvent(gamma, depth, grid):
    return old_parametrix(old_laplacian(gamma, grid, depth + 2), depth)


def old_audit_terms(lift, depth, grid):
    comp5 = lift.curvature5.comp
    gdot, X = np.eye(5)[0], np.eye(5)[1]
    Gamma = np.zeros((5, 5))
    Gamma[1:, 1:] = 0.5 * lift.k * lift.base.J.matrix
    E_Xg = np.einsum("i,m,imjl->lj", X, gdot, comp5)
    N = np.einsum("a,m,jaml->lj", gdot, X, comp5)
    Z0 = Gamma @ X
    M4 = np.einsum("a,m,jaml->lj", gdot, Z0, comp5)
    P_free = np.einsum("i,a,ijal->lj", X, gdot, comp5)
    M6 = np.einsum("i,a,ijal->lj", Z0, gdot, comp5)
    B = old_resolvent(Gamma.astype(complex), depth, grid)
    D = old_derivative(5, grid, Gamma.astype(complex), depth + 2)

    def mult(mat):
        return old_multiplication(mat.astype(complex), grid, depth + 2)

    BD = old_compose(B, D)
    terms = [
        (-0.5, old_compose(BD, mult(E_Xg))),
        (-0.5, old_compose(old_compose(B, mult(E_Xg)), D)),
        (-0.5, old_compose(BD, mult(N))),
        (-0.5, old_compose(B, mult(M4))),
        (+0.5, old_compose(old_compose(B, mult(P_free)), D)),
        (-0.5, old_compose(B, mult(M6))),
    ]
    return [Old(sym.order, [complex(c) * v for v in sym.comps], grid) for c, sym in terms]


def old_residue(values, grid):
    full = np.broadcast_to(values, (2, grid) + values.shape[2:])
    return complex(np.mean(np.trace(full, axis1=2, axis2=3).sum(axis=0)))


def old_commutator_trace_test(seed, trials, depth, grid=psdo.DEFAULT_GRID):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        op = int(rng.integers(-2, 2))
        oq = int(rng.integers(-2, 2))
        p_draws = psdo._symbol_draws(rng, depth, dim)
        q_draws = psdo._symbol_draws(rng, depth, dim)
        j = op + oq + 1
        if j >= 0:
            P = old_from(psdo._band_limited_symbol(p_draws[: 2 * (j + 1)], op, grid))
            Q = old_from(psdo._band_limited_symbol(q_draws[: 2 * (j + 1)], oq, grid))
            pq = old_product_term(P.order, P.comps, old_derivatives(Q.comps, j + 1, grid), j)
            qp = old_product_term(Q.order, Q.comps, old_derivatives(P.comps, j + 1, grid), j)
            worst = max(worst, abs(old_residue(pq - qp, grid)))
    return worst


def assert_same_bytes(new, old: Old, depth=None):
    """Equal orders, and every component equal byte for byte on the full
    grid (which also tells 0.0 from -0.0)."""
    assert new.order == old.order and new.depth == (depth or len(old.comps))
    shape = (2, new.grid) + old.comps[0].shape[2:]
    want = np.stack([np.broadcast_to(v, shape) for v in old.comps[: new.depth]])
    assert np.ascontiguousarray(new.ladder).tobytes() == want.tobytes()


SURFACES = [flat_torus(), cp2_fubini_study(), product_cp1(1, 4), product_cp1(3, 5),
            product_cp1(6, 1)]


class TestAgainstPerComponentKernel:
    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: f"{s.name}{s.params}")
    @pytest.mark.parametrize("grid, depth", [(32, 6), (64, 4), (16, 8), (32, 2)])
    def test_audit_terms_and_symbol(self, surface, grid, depth):
        for k in (1, 2, 3, 7):
            lift = lift_curvature(surface, k)
            old = old_audit_terms(lift, depth, grid)
            for (_, new), ref in zip(connection_difference_terms(lift, depth, grid), old,
                                     strict=True):
                assert_same_bytes(new, ref)
                assert new.stored.shape[2] == 1  # constant in x: one grid row
            total = old[0]
            for ref in old[1:]:
                total = old_add(total, ref)
            assert_same_bytes(connection_difference_symbol(lift, depth, grid), total)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("variable", [False, True])
    def test_resolvent_parametrix(self, dim, variable):
        rng = np.random.default_rng(dim)
        x = 2.0 * np.pi * np.arange(32) / 32
        for depth in (2, 3, 6):
            gamma = rng.standard_normal((dim, dim)) + 0j
            if variable:
                gamma = gamma + np.cos(x)[:, None, None] * rng.standard_normal((dim, dim))
            new = resolvent_parametrix(gamma, depth=depth, dim=dim, grid=32)
            assert_same_bytes(new, old_resolvent(psdo._as_grid_matrix(gamma, 32, dim), depth, 32))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_psdo_defect(self, dim):
        # The defect that `wcslab psdo` reports: compose(B, A) - 1 with
        # B = parametrix(A), A the symbol of 1 + D*D for Gamma = 0.
        for depth in (4, 6, 9):
            A = laplacian_plus_one_symbol(np.zeros((dim, dim)), depth=depth)
            defect = compose(parametrix(A, depth), A, depth) - identity_symbol(dim, depth=depth)
            old_A = old_laplacian(np.zeros((dim, dim), complex), psdo.DEFAULT_GRID, depth + 2)
            old_defect = old_binary(old_compose(old_parametrix(old_A, depth), old_A, depth),
                                    old_from(identity_symbol(dim, depth=depth)),
                                    lambda a, b: a - b)
            assert_same_bytes(defect, old_defect)

    @pytest.mark.parametrize("depth", [4, 6, 9])
    def test_commutator_trace_test(self, depth):
        for seed in range(12):
            assert commutator_trace_test(seed, 3, depth) == old_commutator_trace_test(seed, 3, depth)

    @pytest.mark.parametrize("kinds", ["cccccc", "cbcbcb", "c0b0cb", "bc0cc0", "000000"])
    def test_mixed_ladders(self, kinds):
        # Constant (c), banded (b) and zero (0) places in either factor.
        rng = np.random.default_rng(len(kinds) + kinds.count("b"))

        def draw(order):
            sym = random_symbol(rng, order, len(kinds), dim=2, grid=32)
            comps = []
            for c, kind in zip(sym.components, kinds):
                if kind == "c":
                    c = psdo.HomogeneousComponent(np.broadcast_to(c.values[:, :1], c.values.shape))
                elif kind == "0":
                    c = psdo.HomogeneousComponent(np.zeros_like(c.values))
                comps.append(c)
            return psdo.ClassicalSymbol(Fraction(order), comps)

        P, Q = draw(1), draw(-2)
        for a, b in ((P, Q), (Q, P), (P, P)):
            assert_same_bytes(compose(a, b), old_compose(old_from(a), old_from(b)))
        lead = np.stack((1j * np.eye(2), -1j * np.eye(2)))[:, None]
        A = psdo.ClassicalSymbol(P.order, (psdo.HomogeneousComponent(
            np.broadcast_to(lead, (2, 32, 2, 2))),) + P.components[1:])
        assert_same_bytes(parametrix(A, 5), old_parametrix(old_from(A), 5))
