"""compose and parametrix against the operators they describe, through the
toroidal-quantization oracle of oracle.py: a product truncated at `depth`
components must differ from the operator product by a remainder that falls
off like |n|^{order - depth} on e^{inx}, measured as a log-log slope over
n in 16..64 with 0.1 of slack."""

from fractions import Fraction

import numpy as np
import pytest

from oracle import apply_op, defect_slope
from wcslab.catalog import cp2_fubini_study
from wcslab.psdo import (
    ClassicalSymbol,
    compose,
    derivative_symbol,
    laplacian_plus_one_symbol,
    multiplication_symbol,
    parametrix,
    random_symbol,
    resolvent_parametrix,
)

GRID = 256
MODES = np.arange(16, 65)
X = 2.0 * np.pi * np.arange(GRID) / GRID


def wave(n, dim):
    """The FFT of e^{inx} times each basis vector, (G, d, d)."""
    u_hat = np.zeros((GRID, dim, dim), dtype=complex)
    u_hat[n % GRID] = GRID * np.eye(dim)
    return u_hat


def random_pair(depth, op, oq):
    """Random x-dependent symbols of orders op and oq with depth + 2 places."""
    rng = np.random.default_rng(depth)
    return tuple(ClassicalSymbol.from_ladder(Fraction(order),
                                             random_symbol(rng, 0, depth + 2, grid=GRID).ladder)
                 for order in (op, oq))


class TestOracle:
    @pytest.mark.parametrize("n", [1, -3, 40])
    def test_differential_operators_act_exactly(self, n):
        # Op(a) is multiplication by a(x) and Op(D) is d/dx + Gamma(x).
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + np.cos(X)[:, None, None] * rng.standard_normal((2, 2))
        e = np.exp(1j * n * X)[:, None, None]
        got = apply_op(multiplication_symbol(a, GRID), wave(n, 2))
        assert np.abs(got - a * e).max() <= 1e-12
        got = apply_op(derivative_symbol(2, GRID, a), wave(n, 2))
        assert np.abs(got - (1j * n * np.eye(2) + a) * e).max() <= 1e-12 * abs(n)

    @pytest.mark.parametrize("depth", [2, 4])
    def test_a_wrong_last_component_fails_the_gate(self, depth):
        # Doubling the last component costs a power of n.
        P, Q = random_pair(depth, 1, -2)
        PQ = compose(P, Q, depth)
        ladder = PQ.ladder.copy()
        ladder[-1] *= 2.0
        wrong = ClassicalSymbol.from_ladder(PQ.order, ladder)
        assert defect_slope(P, Q, wrong, MODES) > float(PQ.order) - depth + 0.5


@pytest.mark.parametrize("depth", [2, 3, 4, 6])
class TestGates:
    @pytest.mark.parametrize("op, oq", [(1, -2), ("1/2", "-1/3")])
    def test_compose(self, depth, op, oq):
        P, Q = random_pair(depth, op, oq)
        slope = defect_slope(P, Q, compose(P, Q, depth), MODES)
        assert slope <= float(P.order + Q.order) - depth + 0.1

    def test_parametrix_of_one_plus_laplacian(self, depth):
        # B = parametrix(A) for A the symbol of 1 + D*D, D = d/dx + Gamma(x):
        # Op(B) Op(A) is the identity up to |n|^-depth.
        rng = np.random.default_rng(depth)
        gamma = rng.standard_normal((2, 2)) + np.cos(X)[:, None, None] * rng.standard_normal((2, 2))
        A = laplacian_plus_one_symbol(gamma, grid=GRID, depth=depth)
        assert defect_slope(parametrix(A, depth), A, None, MODES) <= -depth + 0.1


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_audit_resolvent(depth):
    # The connection audit's resolvent, Gamma = (k/2) J on the 5x5
    # horizontal block at k = 2, on the grid 128 and over n in 8..48.  Its
    # odd degrees vanish, so depth 3 reads -4 as depth 4 does.
    gamma = np.zeros((5, 5))
    gamma[1:, 1:] = 0.5 * 2 * cp2_fubini_study().J.matrix
    A = laplacian_plus_one_symbol(gamma, grid=128, depth=depth)
    B = resolvent_parametrix(gamma, depth=depth, dim=5, grid=128)
    assert defect_slope(B, A, None, np.arange(8, 49)) <= -depth + 0.1
