import itertools
import re
from dataclasses import replace
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from commutator_reference import (
    BOUND,
    EPS,
    commutator_scale,
    commutator_trace_reference,
    commutator_trials,
    trace_check,
    trace_scale,
)
from wcslab import psdo
from wcslab.catalog import complex_space_form, cp2_fubini_study, flat_torus, product_cp1
from wcslab.geometry import STANDARD_J, ComplexStructure
from wcslab.psdo import (
    ClassicalSymbol,
    FiberMismatchError,
    InsufficientDepthError,
    MIN_TRACE_TEST_DEPTH,
    SymbolError,
    TruncationError,
    commutator_trace_test,
    compose,
    connection_difference_order_audit,
    connection_difference_symbol,
    connection_difference_terms,
    derivative_symbol,
    identity_symbol,
    laplacian_plus_one_symbol,
    multiplication_symbol,
    parametrix,
    random_symbol,
    resolvent_parametrix,
    wodzicki_residue,
)
from wcslab.sasaki import lift_curvature

GRID = 32


def constant_symbol(order, mats, grid=GRID):
    """x-independent ladder, stored as one row, from a list of (plus, minus)
    matrix pairs."""
    rows = np.asarray(mats, dtype=complex)[:, :, None]  # (depth, 2, 1, d, d)
    return ClassicalSymbol.from_ladder(
        Fraction(order), np.broadcast_to(rows, rows.shape[:2] + (grid,) + rows.shape[3:]))


def pad_zeros(sym, depth):
    """sym with exact-zero components appended up to `depth` places, stored
    as one grid row when sym is."""
    stored = sym.stored
    rows = np.concatenate((stored, np.zeros((depth - sym.depth,) + stored.shape[1:], complex)))
    return ClassicalSymbol.from_ladder(sym.order,
                                       np.broadcast_to(rows, (depth,) + sym.ladder.shape[1:]))


def compose_constant_oracle(P, Q, depth):
    """Composition of x-independent symbols: every x-derivative term drops,
    so each output degree is the plain convolution of matrix products."""
    out = np.zeros((depth,) + P.ladder.shape[1:], dtype=complex)
    for j in range(depth):
        for p in range(min(j + 1, P.depth)):
            q = j - p
            if q >= Q.depth:
                continue
            out[j, 0] += np.matmul(P.ladder[p, 0], Q.ladder[q, 0])
            out[j, 1] += np.matmul(P.ladder[p, 1], Q.ladder[q, 1])
    return ClassicalSymbol.from_ladder(P.order + Q.order, out)


def parametrix_constant_oracle(Gamma, depth):
    """Degree-by-degree recursion for constant Gamma, worked directly with
    2x2 matrix algebra at a single point (no grids, no FFT).

    Returns {degree: (plus, minus)}.
    """
    d = Gamma.shape[0]
    eye = np.eye(d, dtype=complex)
    Gh = Gamma.conj().T
    # Pointwise product symbol of 1 + D*D at xi = s, collected by degree.
    a = {}
    for s in (1.0, -1.0):
        a[(2, s)] = eye
        a[(1, s)] = 1j * s * (Gh - Gamma)
        a[(0, s)] = Gh @ Gamma + eye
    b = {(-2, 1.0): eye, (-2, -1.0): eye}
    for j in range(1, depth):
        for s in (1.0, -1.0):
            acc = np.zeros((d, d), dtype=complex)
            for p in range(j):
                q = j - p
                if (2 - q, s) in a:
                    acc += b[(-2 - p, s)] @ a[(2 - q, s)]
            b[(-2 - j, s)] = -acc
    return {(-2 - j): (b[(-2 - j, 1.0)], b[(-2 - j, -1.0)]) for j in range(depth)}


def random_symbol_reference(rng, order, depth, dim=2, grid=psdo.DEFAULT_GRID, modes=3):
    """random_symbol as it drew before the batched draw: one matrix at a time."""
    x = 2.0 * np.pi * np.arange(grid) / grid

    def random_matrix_function():
        val = np.zeros((grid, dim, dim), dtype=complex)
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        val += c
        for n in range(1, modes + 1):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            val += np.cos(n * x)[:, None, None] * a / n
            val += np.sin(n * x)[:, None, None] * b / n
        return val

    ladder = np.stack([np.stack((random_matrix_function(), random_matrix_function()))
                       for _ in range(depth)])
    return ClassicalSymbol.from_ladder(Fraction(order), ladder)


def derivatives_reference(stored, live, depth):
    """The product kernel's derivative table term by term: every place
    transformed on its own, on the grid it is stored on (grid axis -3), and
    every place live."""
    grid = stored.shape[-3]
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    table = []
    for m in range(depth):
        rows = [values if m == 0 else np.fft.ifft(
                    np.fft.fft(values, axis=-3) * ((1j * freqs) ** m)[:, None, None], axis=-3)
                for values in stored[: depth - m]]
        table.append((np.array(rows), np.arange(len(rows))))
    return table


def add_products_reference(acc, lo, order, left, first, dQ):
    """The product kernel term by term: every (p, m, q) with p + m + q in
    range is multiplied and added on its own, exactly-zero terms included,
    and each scale is made on its own from the order, a (numerator,
    denominator) pair."""

    def falling(a, m):
        out = 1.0
        for t in range(m):
            out *= float(a - t)
        return out

    for p, sigma in enumerate(left, start=first):
        for m, (dq, _) in enumerate(dQ):
            for q, dx in enumerate(dq):
                if lo <= p + m + q < lo + len(acc):
                    coeff = (-1j) ** m / factorial(m)
                    scale = coeff * falling(Fraction(*order) - p, m) * np.array([1.0, (-1.0) ** m])
                    acc[p + m + q - lo] += scale[:, None, None, None] * np.matmul(sigma, dx)


@pytest.fixture
def reference_kernel(monkeypatch):
    """Calls `build` twice, with the product kernel and with its term-by-term
    reference, and returns both results.  The reference build must call both
    reference functions, so a comparison is never between two runs of the
    same kernel.  The connection-difference memo is emptied before each
    build, so neither reads the other's terms."""
    calls = set()

    def counted(fn):
        def call(*args):
            calls.add(fn)
            return fn(*args)
        return call

    def both(build):
        psdo._terms.cache_clear()
        new = build()
        calls.clear()
        psdo._terms.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(psdo, "_derivatives", counted(derivatives_reference))
            m.setattr(psdo, "_add_products", counted(add_products_reference))
            old = build()
        assert calls == {derivatives_reference, add_products_reference}
        return new, old

    return both


def assert_same_symbol(a, b):
    assert a.order == b.order and a.depth == b.depth
    assert np.array_equal(a.ladder, b.ladder)


def mixed_ladder(sym, kinds, order=None):
    """sym with component j kept as drawn (kinds[j] == "b", banded in x),
    made constant in x by repeating its row 0 ("c"), or zeroed ("0"), and
    with the given order (sym's by default).  The result is stored as one
    grid row when no component is banded."""
    ladder = sym.ladder.copy()
    for place, kind in zip(ladder, kinds, strict=True):
        if kind == "c":
            place[...] = place[:, :1]
        elif kind == "0":
            place[...] = 0.0
    if "b" not in kinds:
        ladder = np.broadcast_to(ladder[:, :, :1], ladder.shape)
    return ClassicalSymbol.from_ladder(sym.order if order is None else order, ladder)


#: Ladders of constant (c), banded (b) and zero (0) components; the kernel
#: keeps one grid row for "c" and skips "0".
LADDERS = ["cccccc", "bbbbbb", "cbcbcb", "bcbcbc", "c0b0cb", "bc0cc0", "cbb000", "000000"]


def elliptic_order_one(rng, depth, dim, grid=GRID):
    """Seeded random order-1 symbol whose leading part is i I plus small noise."""
    A = random_symbol(rng, 1, depth, dim=dim, grid=grid)
    ladder = A.ladder.copy()
    eye = 1j * np.eye(dim)
    ladder[0] = np.stack((eye + 0.1 * ladder[0, 0], -eye + 0.1 * ladder[0, 1]))
    return ClassicalSymbol.from_ladder(A.order, ladder)


class TestCompose:
    def test_identity_is_neutral(self, rng):
        Q = random_symbol(rng, 1, 4, dim=2, grid=GRID)
        I = identity_symbol(2, GRID, depth=4)
        out = compose(I, Q, 4)
        assert np.max(np.abs(out.ladder - Q.ladder)) <= 1e-13

    def test_constant_multiplications(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 3.0]])
        out = compose(
            multiplication_symbol(a, GRID, depth=2),
            multiplication_symbol(b, GRID, depth=2),
            2,
        )
        assert np.allclose(out.ladder[0, 0, 0], a @ b)
        assert np.abs(out.ladder[1]).max() == 0.0

    def test_variable_multiplication_leading_term(self):
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        a = np.cos(x)[:, None, None] * np.eye(1)
        b = np.sin(2 * x)[:, None, None] * np.eye(1)
        out = compose(
            multiplication_symbol(a, GRID), multiplication_symbol(b, GRID), 1
        )
        assert np.allclose(out.ladder[0, 0], a * b)

    def test_orders_add(self, rng):
        for _ in range(50):
            op = int(rng.integers(-2, 3))
            oq = int(rng.integers(-2, 3))
            P = random_symbol(rng, op, 2, dim=1, grid=GRID)
            Q = random_symbol(rng, oq, 2, dim=1, grid=GRID)
            assert compose(P, Q).order == op + oq

    def test_associativity_up_to_truncation(self, rng):
        for _ in range(50):
            P = random_symbol(rng, int(rng.integers(-1, 2)), 3, dim=2, grid=GRID, modes=2)
            Q = random_symbol(rng, int(rng.integers(-1, 2)), 3, dim=2, grid=GRID, modes=2)
            R = random_symbol(rng, int(rng.integers(-1, 2)), 3, dim=2, grid=GRID, modes=2)
            left = compose(compose(P, Q, 3), R, 3)
            right = compose(P, compose(Q, R, 3), 3)
            assert np.max(np.abs(left.ladder - right.ladder)) <= 1e-9

    def test_constant_coefficients_against_convolution_oracle(self, rng):
        mats = [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))) for _ in range(3)]
        nats = [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))) for _ in range(3)]
        P = constant_symbol(1, mats)
        Q = constant_symbol(-1, nats)
        out = compose(P, Q, 3)
        ora = compose_constant_oracle(P, Q, 3)
        assert out.depth == ora.depth == 3
        assert np.max(np.abs(out.ladder - ora.ladder)) <= 1e-12

    @pytest.mark.parametrize("dim, depth", [(1, 1), (2, 4), (3, 6)])
    def test_truncated_products_match_reference_kernel(self, rng, reference_kernel, dim, depth):
        P = random_symbol(rng, 1, depth, dim=dim, grid=GRID)
        Q = random_symbol(rng, -2, depth + 1, dim=dim, grid=GRID)
        assert_same_symbol(*reference_kernel(lambda: compose(P, Q, depth)))

    @pytest.mark.parametrize("variable", [False, True])
    def test_padded_products_match_reference_kernel(self, rng, reference_kernel, variable):
        # The depth-5 ladders end in exactly-zero components; the kernel skips their terms.
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        wave = np.cos(x)[:, None, None] if variable else np.ones((GRID, 1, 1))
        gamma = wave * rng.standard_normal((2, 2))
        D = derivative_symbol(2, GRID, gamma, depth=5)
        Dstar = derivative_symbol(2, GRID, gamma, depth=5, adjoint=True)
        M = multiplication_symbol(wave * rng.standard_normal((2, 2)), GRID, depth=5)
        for P, Q in [(D, M), (M, D), (Dstar, D), (D, Dstar), (M, M)]:
            assert_same_symbol(*reference_kernel(lambda: compose(P, Q, 5)))

    @pytest.mark.parametrize("kinds_p", LADDERS)
    @pytest.mark.parametrize("kinds_q", ["cccccc", "bcbcbc", "c0b0cb"])
    @pytest.mark.parametrize("op, oq", [(1, -2), ("1/2", "-1/3"), ("5/2", -2)])
    def test_mixed_ladders_match_reference_kernel(self, rng, reference_kernel, kinds_p, kinds_q,
                                                  op, oq):
        # A rational order has no vanishing falling factorial: every m adds.
        for dim, modes in ((1, 1), (3, 2)):
            P = mixed_ladder(random_symbol(rng, 0, 6, dim=dim, grid=GRID, modes=modes), kinds_p,
                             Fraction(op))
            Q = mixed_ladder(random_symbol(rng, 0, 6, dim=dim, grid=GRID, modes=modes), kinds_q,
                             Fraction(oq))
            # Zero padding below a truncated ladder of either kind
            P4 = pad_zeros(ClassicalSymbol.from_ladder(P.order, P.ladder[:4]), 6)
            for left, right in ((P, Q), (Q, P), (P4, Q), (Q, P4), (P, P)):
                new, old = reference_kernel(lambda: compose(left, right, 6))
                assert_same_symbol(new, old)

    @pytest.mark.parametrize("row", [1, GRID // 2, GRID - 1])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_one_differing_row_keeps_the_grid(self, rng, reference_kernel, row, side):
        const = mixed_ladder(random_symbol(rng, 0, 3, dim=2, grid=GRID), "ccc")
        assert one_row_ladder(const)
        values = const.ladder.copy()
        at = 0, ("plus", "minus").index(side), row, 1, 0
        entry = values[at]  # one ulp up in one entry of one grid row
        values[at] = complex(np.nextafter(entry.real, np.inf), entry.imag)
        Q = ClassicalSymbol.from_ladder(const.order, values)
        assert not one_row_ladder(Q) and Q._live[1] == [0]
        P = random_symbol(rng, 1, 3, dim=2, grid=GRID)
        assert_same_symbol(*reference_kernel(lambda: compose(P, Q, 3)))
        assert_same_symbol(*reference_kernel(lambda: compose(Q, P, 3)))

    def test_live_flags(self):
        zero = multiplication_symbol(np.zeros((2, 2)), GRID, depth=2)
        assert zero._live == ([], [])
        one = identity_symbol(2, GRID, depth=2)
        assert one.stored.shape == (2, 2, 1, 2, 2) and not one.stored.flags.writeable
        assert one._live == ([0], [])
        assert np.array_equal(one.stored[0, 0, 0], np.eye(2))
        # Rows are compared bit for bit: a -0.0 where row 0 has 0.0 varies.
        signed = np.broadcast_to(np.eye(2, dtype=complex), (GRID, 2, 2)).copy()
        signed[3, 0, 1] = -0.0
        flat = np.broadcast_to(np.eye(2, dtype=complex), (GRID, 2, 2)).copy()
        for values, varies in ((signed, True), (flat, False)):
            sym = ClassicalSymbol.from_ladder(0, np.stack((values, values))[None])
            assert sym.stored.shape == (1, 2, GRID, 2, 2) and sym._live[1] == ([0] if varies else [])

    @pytest.mark.parametrize("depth", [1, 4, 6])
    def test_components_are_views_of_the_ladder(self, rng, depth):
        # The benchmark tracer counts len(compose(P, Q, depth).components).
        gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        banded = (random_symbol(rng, 1, 6, dim=2, grid=GRID),
                  random_symbol(rng, -1, 6, dim=2, grid=GRID))
        rows = (derivative_symbol(2, GRID, gamma, depth=6),
                multiplication_symbol(gamma, GRID, depth=6))
        for P, Q in (banded, rows):
            out = compose(P, Q, depth)
            assert one_row_ladder(out) == (P is rows[0])
            assert len(out.components) == depth
            for j, values in enumerate(out.components):
                assert type(values) is np.ndarray and values.shape == (2, GRID, 2, 2)
                assert np.array_equal(values, out.ladder[j])
                assert np.shares_memory(values, out.ladder[j])
                assert np.shares_memory(values, out.stored[j])

    @pytest.mark.parametrize("depth", [4, 6, 12])
    def test_truncation_keeps_the_rows_of_the_full_product(self, depth):
        # So a residue read from compose(P, Q, j + 1) is the one read from
        # compose(P, Q), bit for bit, as the commutator references assume.
        rng = np.random.default_rng(depth)
        for op, oq in ((-2, 1), (0, 0), (1, 1)):
            P = random_symbol(rng, op, depth, dim=2, grid=GRID)
            Q = random_symbol(rng, oq, depth, dim=2, grid=GRID)
            full = compose(P, Q)
            for rows in (1, op + oq + 2, depth // 2):
                assert compose(P, Q, rows).stored.tobytes() == full.stored[:rows].tobytes()

    def test_truncation_error_reports_deficit(self, rng):
        P = random_symbol(rng, 0, 2, dim=1, grid=GRID)
        Q = random_symbol(rng, 0, 2, dim=1, grid=GRID)
        with pytest.raises(TruncationError, match="deficit 3"):
            compose(P, Q, 5)

    def test_fiber_mismatch(self, rng):
        P = random_symbol(rng, 0, 2, dim=1, grid=GRID)
        Q = random_symbol(rng, 0, 2, dim=2, grid=GRID)
        with pytest.raises(FiberMismatchError):
            compose(P, Q)
        with pytest.raises(FiberMismatchError):
            P + Q


class TestResidue:
    def test_inverse_absolute_value(self):
        P = ClassicalSymbol.from_ladder(Fraction(-1), np.ones((1, 2, GRID, 1, 1)))
        assert wodzicki_residue(P) == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("order", [-1, 0, 1])
    def test_one_row_and_full_grid_agree(self, rng, order):
        # The residue reads the full-grid ladder, so a ladder stored as one
        # row averages the same G values as its full-grid copy.
        P = mixed_ladder(random_symbol(rng, order, 3, dim=2, grid=GRID), "ccc")
        assert one_row_ladder(P)
        res = wodzicki_residue(P)
        assert res != 0.0 and res == wodzicki_residue(full_grid_copy(P))

    def test_multiplication_operator_is_traceless(self):
        M = multiplication_symbol(np.array([[3.0, 1.0], [0.0, 2.0]]), GRID, depth=2)
        assert wodzicki_residue(M) == 0.0

    def test_linearity(self, rng):
        P = random_symbol(rng, 0, 3, dim=2, grid=GRID)
        Q = random_symbol(rng, 0, 3, dim=2, grid=GRID)
        a, b = 1.7, -0.3 + 2.1j
        lhs = wodzicki_residue(complex(a) * P + complex(b) * Q)
        rhs = a * wodzicki_residue(P) + b * wodzicki_residue(Q)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_zero_on_purely_nonnegative_degrees(self):
        D = derivative_symbol(2, GRID, depth=4)
        assert wodzicki_residue(D) == 0.0

    def test_zero_below_minus_one(self):
        B = resolvent_parametrix(None, depth=2, dim=1, grid=GRID)
        assert wodzicki_residue(B) == 0.0

    def test_insufficient_depth(self):
        M = multiplication_symbol(np.eye(2), GRID, depth=1)
        with pytest.raises(InsufficientDepthError):
            wodzicki_residue(M)


class TestParametrix:
    def test_flat_leading_component(self):
        B = resolvent_parametrix(None, depth=2, dim=1, grid=GRID)
        assert B.order == Fraction(-2)
        assert np.allclose(B.ladder[0, 0], 1.0)
        assert np.allclose(B.ladder[0, 1], 1.0)
        assert np.abs(B.ladder[1]).max() == 0.0

    @pytest.mark.parametrize(
        "gamma",
        [
            None,
            np.array([[0.0, 1.0], [-1.0, 0.0]]),
            "variable",
        ],
    )
    def test_defect_vanishes_above_floor(self, gamma):
        depth = 4
        if isinstance(gamma, str):
            x = 2.0 * np.pi * np.arange(GRID) / GRID
            gamma = np.cos(x)[:, None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])
        dim = 1 if gamma is None else 2
        B = resolvent_parametrix(gamma, depth=depth, dim=dim, grid=GRID)
        A = laplacian_plus_one_symbol(
            np.zeros((dim, dim)) if gamma is None else gamma,
            grid=GRID,
            depth=depth + 2,
        )
        defect = compose(B, A, depth) - identity_symbol(dim, GRID, depth=depth)
        assert np.abs(defect.ladder).max() <= 1e-10

    def test_constant_gamma_matches_hand_recursion(self):
        Gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        depth = 5
        B = resolvent_parametrix(Gamma, depth=depth, dim=2, grid=GRID)
        oracle = parametrix_constant_oracle(Gamma.astype(complex), depth)
        for j in range(depth):
            plus, minus = oracle[-2 - j]
            assert np.max(np.abs(B.ladder[j, 0, 0] - plus)) <= 1e-12
            assert np.max(np.abs(B.ladder[j, 1, 0] - minus)) <= 1e-12
        # nonvanishing degree -3 component, sup norm 2 for this Gamma
        assert np.abs(B.ladder[1]).max() == pytest.approx(2.0)

    def test_depth_validation(self):
        with pytest.raises(SymbolError):
            resolvent_parametrix(None, depth=1, dim=1)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("variable", [False, True])
    def test_laplacian_and_resolvent_match_reference_kernel(self, reference_kernel, dim, variable):
        # A constant Gamma takes the one-row path, a variable one the grid.
        rng = np.random.default_rng(dim)
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        gamma = rng.standard_normal((dim, dim)) + 0j
        if variable:
            gamma = gamma + np.cos(x)[:, None, None] * rng.standard_normal((dim, dim))
        assert_same_symbol(*reference_kernel(
            lambda: laplacian_plus_one_symbol(gamma, grid=GRID, depth=7)))
        for depth in (2, 3, 5, 6):
            assert_same_symbol(*reference_kernel(
                lambda: resolvent_parametrix(gamma, depth=depth, dim=dim, grid=GRID)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_psdo_defect_matches_reference_kernel(self, reference_kernel, dim):
        # The defect that `wcslab psdo` reports: compose(B, A) - 1 with
        # B = parametrix(A), A the symbol of 1 + D*D for Gamma = 0.
        def defect():
            A = laplacian_plus_one_symbol(np.zeros((dim, dim)), depth=depth)
            return compose(parametrix(A, depth), A, depth) - identity_symbol(dim, depth=depth)

        for depth in (4, 6, 9):
            assert_same_symbol(*reference_kernel(defect))

    @pytest.mark.parametrize("kinds", ["ccccc", "cbcbc", "cc0bb", "bcb0c", "b0000"])
    @pytest.mark.parametrize("order", [1, "1/2"])
    def test_mixed_ladders_match_reference_kernel(self, reference_kernel, kinds, order):
        # The leading part i I plus small noise is invertible at any order.
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3):
            A = mixed_ladder(elliptic_order_one(rng, 5, dim), kinds, Fraction(order))
            new, old = reference_kernel(lambda: parametrix(A, 5))
            assert_same_symbol(new, old)
            assert np.array_equal(new.ladder[0, 0], np.linalg.inv(A.ladder[0, 0]))
            assert np.array_equal(new.ladder[0, 1], np.linalg.inv(A.ladder[0, 1]))
            padded = pad_zeros(ClassicalSymbol.from_ladder(A.order, A.ladder[:2]), 5)
            assert_same_symbol(*reference_kernel(lambda: parametrix(padded, 5)))

    def test_zero_leading_component_is_singular(self):
        A = derivative_symbol(2, GRID, depth=3)
        rows = np.concatenate(((0.0 * A).stored[:1], A.stored[1:]))
        A = ClassicalSymbol.from_ladder(A.order, np.broadcast_to(rows, A.ladder.shape))
        with pytest.raises(SymbolError, match=re.escape("singular at xi = +1")):
            parametrix(A, 3)

    def test_random_elliptic_order_one_symbol(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3):
            for depth in (1, 3, 5):
                A = elliptic_order_one(rng, depth, dim)
                B = parametrix(A, depth)
                assert B.order == -1 and B.depth == depth
                defect = compose(B, A, depth) - identity_symbol(dim, GRID, depth=depth)
                assert np.abs(defect.ladder).max() <= 1e-10

    @pytest.mark.parametrize("side", ["+1", "-1"])
    def test_singular_leading_component_names_its_side(self, rng, side):
        A = elliptic_order_one(rng, 3, 2)
        ladder = A.ladder.copy()
        ladder[0, ("+1", "-1").index(side), 5] = [[1.0, 2.0], [2.0, 4.0]]  # one grid point suffices
        A = ClassicalSymbol.from_ladder(A.order, ladder)
        with pytest.raises(SymbolError, match=re.escape(f"singular at xi = {side}")):
            parametrix(A, 3)

    def test_depth_beyond_symbol_is_truncation_error(self, rng):
        A = elliptic_order_one(rng, 3, 2)
        with pytest.raises(TruncationError, match="deficit 2"):
            parametrix(A, 5)
        assert "parametrix" in psdo.__all__


class TestCommutatorTrace:
    def test_random_pairs_small_run(self):
        assert commutator_trace_test(seed=0, trials=5, depth=6, grid=GRID) <= 1e-8

    def test_depth_floor(self):
        # Orders in [-2, 1] put the residue of [P, Q] at component j <= 3.
        assert commutator_trace_test(seed=0, trials=2, depth=MIN_TRACE_TEST_DEPTH,
                                     grid=GRID) <= 1e-8
        with pytest.raises(ValueError, match="depth"):
            commutator_trace_test(seed=0, trials=1, depth=MIN_TRACE_TEST_DEPTH - 1, grid=GRID)

    @staticmethod
    def assert_within_bound(rows):
        """Each (check, reference, S) row agrees within BOUND * eps * S."""
        assert rows
        for got, want, scale in rows:
            assert abs(got - want) <= BOUND * EPS * scale, (got, want, scale)

    @pytest.mark.parametrize("seed, depth", [(0, 4), (1, 6), (3, 5)])
    def test_residue_only_compose_matches_full_compose(self, seed, depth):
        # Reference: the same seeded draws, composed at full depth.
        rows = [(trace_check(op, oq, p_draws, q_draws, j, GRID),
                 abs(wodzicki_residue(compose(P, Q) - compose(Q, P))),
                 commutator_scale(P, Q, j))
                for op, oq, p_draws, q_draws, j, P, Q in commutator_trials(seed, 6, depth, GRID)]
        self.assert_within_bound(rows)
        assert commutator_trace_test(seed, 6, depth, grid=GRID) == max(got for got, _, _ in rows)

    @pytest.mark.parametrize("kinds", ["cccccc", "cbcbcb", "bc0cc0"])
    def test_mixed_ladders_match_reference_kernel(self, reference_kernel, monkeypatch, kinds):
        # Every ladder, a whole symbol or a trial's stack [Q, P] of components
        # 0..j, is built here: random_symbol builds through the same function.
        build = psdo._band_limited_ladders
        built = []

        def mixed_build(draws, grid):
            values = build(draws, grid).copy()
            # a stack's draws are (places, ladders, 2, ...), a symbol's (places, 2, ...)
            built.append(("stack" if draws.ndim == 7 else "symbol",) + draws.shape[:2])
            for place, kind in zip(values, kinds):
                if kind == "c":
                    place[...] = place[..., :1, :, :]
                elif kind == "0":
                    place[...] = 0.0
            values.setflags(write=False)
            return values

        monkeypatch.setattr(psdo, "_band_limited_ladders", mixed_build)
        for seed in range(3):
            # The pairs composed with the product kernel and with its
            # term-by-term reference.
            new, old = reference_kernel(lambda: commutator_trace_reference(seed, 8, 6, grid=GRID))
            self.assert_within_bound(new)
            self.assert_within_bound(old)
            assert commutator_trace_test(seed, 8, 6, grid=GRID) == max(got for got, _, _ in new)
        stacks = [(places, ladders) for kind, places, ladders in built if kind == "stack"]
        assert stacks and max(places for places, _ in stacks) <= 4  # components 0..j
        assert all(ladders == 2 for _, ladders in stacks)  # [Q, P] of one trial
        assert ("symbol", 6, 2) in built  # the reference's whole symbols

    @pytest.mark.parametrize("depth", [4, 6, 9])
    def test_matches_reference_kernel(self, reference_kernel, depth):
        new, old = reference_kernel(lambda: [row for seed in range(12)
                                             for row in commutator_trace_reference(seed, 3, depth)])
        self.assert_within_bound(new)
        self.assert_within_bound(old)

    @pytest.mark.parametrize("depth", [4, 5, 6, 9, 32])
    def test_matches_full_build_within_rounding(self, depth):
        for seeds, counts in ((range(40), (1, 8)), (range(10), (9, 17)), (range(5), (20,))):
            for seed in seeds:
                for trials in counts:
                    rows = commutator_trace_reference(seed, trials, depth)
                    if rows:
                        self.assert_within_bound(rows)
                    assert (commutator_trace_test(seed, trials, depth)
                            == max((got for got, _, _ in rows), default=0.0))
        rows = commutator_trace_reference(0, 200, depth)  # the CLI's default trials
        self.assert_within_bound(rows)
        assert commutator_trace_test(0, 200, depth) == max(got for got, _, _ in rows)

    @pytest.mark.parametrize("grid", [16, 32, 128])
    def test_matches_full_build_within_rounding_on_each_grid(self, grid):
        for seed in range(12):
            for trials in (1, 9, 17):
                rows = commutator_trace_reference(seed, trials, 6, grid)
                if rows:
                    self.assert_within_bound(rows)
                assert (commutator_trace_test(seed, trials, 6, grid)
                        == max((got for got, _, _ in rows), default=0.0))

    @pytest.mark.parametrize("grid", [16, 32, 64, 128])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_traces_match_composed_rows_at_each_point(self, grid, dim):
        # Every pair of orders with j >= 0: the check's traces of row j of PQ
        # and of QP against the trace of each composed row, point by point.
        rng = np.random.default_rng(1000 * dim + grid)
        for op in range(-2, 2):
            for oq in range(-2, 2):
                j = op + oq + 1
                if j < 0:
                    continue
                p_draws, q_draws = (psdo._symbol_draws(rng, 4, dim) for _ in range(2))
                P = psdo._band_limited_symbol(p_draws, op, grid)
                Q = psdo._band_limited_symbol(q_draws, oq, grid)
                traces = psdo._commutator_traces(op, oq, p_draws, q_draws, j, grid)
                assert traces.shape == (2, 2, grid)
                for got, (A, B) in zip(traces, ((P, Q), (Q, P))):
                    want = np.trace(compose(A, B, j + 1).ladder[j], axis1=-2, axis2=-1)
                    assert np.all(np.abs(got - want) <= BOUND * EPS * trace_scale(A, B, j))

    @pytest.mark.parametrize("seed", [2, 3])
    @pytest.mark.parametrize("grid", [24, 8])
    def test_grid_checked_when_nothing_is_built(self, seed, grid):
        # The first trial of seeds 2 and 3 has j = -2 and -3: no symbol is built.
        assert commutator_trace_test(seed, 1, 4, grid=GRID) == 0.0
        with pytest.raises(SymbolError, match="grid size must be a power of two >= 16"):
            commutator_trace_test(seed, 1, 4, grid=grid)

    @staticmethod
    def trial_keys(seed, trials, depth):
        """(dim, j) of each trial of commutator_trace_test, in order, from the
        same draws."""
        rng = np.random.default_rng(seed)
        keys = []
        for _ in range(trials):
            dim, op, oq = (int(rng.integers(lo, hi)) for lo, hi in ((1, 3), (-2, 2), (-2, 2)))
            psdo._symbol_draws(rng, depth, dim)
            psdo._symbol_draws(rng, depth, dim)
            keys.append((dim, op + oq + 1))
        return keys

    def test_builds_only_what_the_residue_reads(self, monkeypatch):
        calls = {"build": [], "derivatives": 0, "products": 0, "compose": 0}
        build, derivatives, products = (psdo._band_limited_ladders, psdo._derivatives,
                                        psdo._add_products)

        def counted_build(draws, grid):
            calls["build"].append(draws.shape)
            return build(draws, grid)

        def counted_derivatives(*args):
            calls["derivatives"] += 1
            return derivatives(*args)

        def counted_products(*args):
            calls["products"] += 1
            return products(*args)

        def counted_compose(*args, **kw):
            calls["compose"] += 1

        monkeypatch.setattr(psdo, "_band_limited_ladders", counted_build)
        monkeypatch.setattr(psdo, "_derivatives", counted_derivatives)
        monkeypatch.setattr(psdo, "_add_products", counted_products)
        monkeypatch.setattr(psdo, "compose", counted_compose)
        seen = set()
        for seed, trials in [(seed, 1) for seed in range(40)] + [(0, 8), (1, 8), (2, 60)]:
            keys = self.trial_keys(seed, trials, 6)
            seen.update(j for _, j in keys)
            built_for = [(dim, j) for dim, j in keys if j >= 0]  # nothing is built for j < 0
            calls.update(build=[], derivatives=0)
            worst = commutator_trace_test(seed, trials, 6, grid=GRID)
            # One build and one derivative table per trial that builds:
            # components 0..j of its Q and P, from draws
            # (j + 1, [Q, P], plus/minus, terms, re/im, d, d).
            assert [(shape[-1], shape[0] - 1) for shape in calls["build"]] == built_for
            assert all(shape[1:] == (2, 2, 7, 2, shape[-1], shape[-1]) for shape in calls["build"])
            assert calls["derivatives"] == len(built_for)
            assert calls["products"] == 0  # only traces: no matrix product
            if not built_for:
                assert worst == 0.0
        assert seen == set(range(-3, 4))
        assert calls["compose"] == 0

    @pytest.mark.parametrize("name, value", [
        ("seed", None), ("seed", 1.0), ("seed", True), ("seed", "3"),
        ("trials", True), ("trials", 2.5), ("trials", None), ("trials", np.float64(3)),
        ("depth", 6.0), ("depth", False), ("depth", "6"),
    ])
    def test_arguments_must_be_ints(self, name, value):
        args = {"seed": 0, "trials": 2, "depth": 6} | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
            commutator_trace_test(**args, grid=GRID)

    def test_numpy_ints_are_ints(self):
        want = commutator_trace_test(4, 9, 5, grid=GRID)
        assert commutator_trace_test(np.int64(4), np.int32(9), np.int64(5), grid=GRID) == want

    def test_multiplications_commute_exactly(self):
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        a = multiplication_symbol(np.cos(x)[:, None, None] * np.eye(1), GRID, depth=2)
        b = multiplication_symbol(np.sin(x)[:, None, None] * np.eye(1), GRID, depth=2)
        assert wodzicki_residue(compose(a, b, 2) - compose(b, a, 2)) == 0.0

    def test_self_commutator_exact_zero(self, rng):
        P = random_symbol(rng, 1, 4, dim=2, grid=GRID)
        assert wodzicki_residue(compose(P, P, 4) - compose(P, P, 4)) == 0.0

    def test_deterministic_random_symbols(self):
        a = random_symbol(np.random.default_rng(5), 1, 3, dim=2, grid=GRID)
        b = random_symbol(np.random.default_rng(5), 1, 3, dim=2, grid=GRID)
        assert np.array_equal(a.ladder[:, 0], b.ladder[:, 0])


class TestRandomSymbol:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("modes", [0, 1, 2, 3])
    def test_batched_draw_matches_per_matrix_draws(self, dim, modes):
        for seed in range(10):
            for grid in (16, 64):
                for depth in range(1, 7):
                    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    order = seed % 4 - 2
                    got = random_symbol(rng, order, depth, dim=dim, grid=grid, modes=modes)
                    want = random_symbol_reference(ref_rng, order, depth, dim=dim, grid=grid,
                                                   modes=modes)
                    assert_same_bits(got, want)  # bytes too: the build sums re and im parts apart
                    # commutator_trace_test draws again from the same generator.
                    assert np.array_equal(rng.standard_normal(3), ref_rng.standard_normal(3))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("modes", [0, 1, 2, 3])
    def test_prefix_build_matches_random_symbol(self, dim, modes):
        for grid in (16, 64):
            for depth in range(1, 7):
                draws = psdo._symbol_draws(np.random.default_rng(depth), depth, dim, modes)
                full = random_symbol(np.random.default_rng(depth), -1, depth, dim=dim, grid=grid,
                                     modes=modes)
                for k in range(1, depth + 1):
                    part = psdo._band_limited_symbol(draws[: 2 * k], -1, grid)
                    assert part.depth == k
                    assert part.ladder.tobytes() == full.ladder[:k].tobytes()


class TestGridValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(SymbolError, match="power of two"):
            ClassicalSymbol.from_ladder(0, np.zeros((1, 2, 8, 1, 1), complex))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SymbolError, match="power of two"):
            ClassicalSymbol.from_ladder(0, np.zeros((1, 2, 24, 1, 1), complex))


class TestChecks:
    @pytest.mark.parametrize("shape", [
        (GRID, 2, 2),        # one side only
        (1, GRID, 2, 2),
        (3, GRID, 2, 2),
        (2, GRID, 2, 3),     # not square
        (2, GRID, 2),
        (2, 2, GRID, 2, 2),
    ])
    def test_values_shape(self, shape):
        # each shape as the one place of a ladder
        with pytest.raises(SymbolError, match=re.escape("shape (depth, 2, G, d, d)")):
            ClassicalSymbol.from_ladder(0, np.zeros((1,) + shape, complex))

    def test_grid_values_of_another_grid(self):
        with pytest.raises(SymbolError, match=re.escape(f"shape ({GRID},2,2)")):
            multiplication_symbol(np.zeros((16, 2, 2)), GRID)

    def test_from_ladder_is_the_one_constructor(self):
        ladder = np.zeros((1, 2, GRID, 1, 1), complex)
        with pytest.raises(TypeError):
            ClassicalSymbol(0, ladder)
        assert "HomogeneousComponent" not in psdo.__all__
        assert not hasattr(psdo, "HomogeneousComponent")
        assert not hasattr(ClassicalSymbol, "component")

    def test_empty_ladder(self):
        with pytest.raises(SymbolError, match="at least one component"):
            ClassicalSymbol.from_ladder(0, np.zeros((0, 2, GRID, 2, 2), complex))

    @pytest.mark.parametrize("shape", [(2, GRID, 2, 2), (3, 1, GRID, 2, 2), (3, 2, GRID, 2, 3)])
    def test_from_ladder_shape(self, shape):
        with pytest.raises(SymbolError, match=re.escape("shape (depth, 2, G, d, d)")):
            ClassicalSymbol.from_ladder(0, np.zeros(shape, complex))

    @pytest.mark.parametrize("grid", [8, 24])
    def test_from_ladder_grid(self, grid):
        with pytest.raises(SymbolError, match="power of two"):
            ClassicalSymbol.from_ladder(0, np.zeros((2, 2, grid, 1, 1), complex))

    def test_orders_off_by_a_non_integer(self, rng):
        P = random_symbol(rng, 0, 3, dim=2, grid=GRID)
        Q = ClassicalSymbol.from_ladder(Fraction(1, 2), random_symbol(rng, 0, 3, dim=2, grid=GRID).ladder)
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            for a, b in ((P, Q), (Q, P)):
                with pytest.raises(SymbolError, match="differ by an integer"):
                    combine(a, b)


def component(sym, degree):
    """The (2, G, d, d) component of sym of the given degree, or None when
    sym has none: degree is not order minus a place of the ladder."""
    j = sym.order - degree
    if j.denominator != 1 or j < 0 or j >= sym.depth:
        return None
    return sym.ladder[int(j)]


def binary_reference(P, Q, f):
    """P (f) Q degree by degree, each side looked up with component(degree):
    (order, [(plus, minus) per degree]) from the higher order down to the
    higher truncation floor."""
    zero = np.zeros((P.grid, P.fiber_dim, P.fiber_dim), complex)
    order, floor = max(P.order, Q.order), max(P.floor_degree, Q.floor_degree)
    out = []
    for j in range(int(order - floor) + 1):
        a, b = component(P, order - j), component(Q, order - j)
        out.append(tuple(
            f(zero if a is None else a[side], zero if b is None else b[side])
            for side in (0, 1)
        ))
    return order, out


class TestLadderArithmetic:
    """+, - and scalar * on ladders whose orders are rational and shifted,
    against binary_reference."""

    PAIRS = [("1/2", 3, "-3/2", 4), ("0", 2, "-2", 5), ("1", 5, "-1", 2),
             ("-1/3", 4, "2/3", 1), ("5/2", 1, "-1/2", 6), ("3/4", 3, "3/4", 5)]

    @staticmethod
    def draw(rng, order, depth):
        return ClassicalSymbol.from_ladder(Fraction(order), random_symbol(rng, 0, depth, grid=GRID).ladder)

    @pytest.mark.parametrize("op, f", [("+", lambda a, b: a + b), ("-", lambda a, b: a - b)])
    @pytest.mark.parametrize("oa, da, ob, db", PAIRS)
    def test_add_and_subtract(self, rng, op, f, oa, da, ob, db):
        P, Q = self.draw(rng, oa, da), self.draw(rng, ob, db)
        for a, b in ((P, Q), (Q, P)):
            got = f(a, b)
            order, want = binary_reference(a, b, f)
            assert got.order == order and got.depth == len(want)
            for (got_plus, got_minus), (plus, minus) in zip(got.ladder, want):
                assert np.array_equal(got_plus, plus) and np.array_equal(got_minus, minus)
            assert got.leading_degree() == order

    @pytest.mark.parametrize("order", ["1/2", "-3/2", "0", "-7/3"])
    def test_scalar_multiple(self, rng, order):
        P = self.draw(rng, order, 3)
        for scalar in (2.5, -1j, 0.5 - 2j):
            got = scalar * P
            assert got.order == P.order and got.depth == P.depth
            for j, (plus, minus) in enumerate(got.ladder):
                ref = component(P, P.order - j)
                assert np.array_equal(plus, complex(scalar) * ref[0])
                assert np.array_equal(minus, complex(scalar) * ref[1])

    def test_leading_degree_is_order_minus_place(self, rng):
        P = self.draw(rng, "1/2", 4)
        for place in range(4):
            ladder = P.ladder.copy()
            ladder[:place] = 0.0
            degree = ClassicalSymbol.from_ladder(P.order, ladder).leading_degree()
            assert degree == Fraction(1, 2) - place
        zero = np.broadcast_to(np.zeros((4, 2, 1, 2, 2), complex), P.ladder.shape)
        assert ClassicalSymbol.from_ladder(P.order, zero).leading_degree() is None
        assert (P - P).leading_degree() is None
        # Subtracting the top component leaves the next one leading.
        top = pad_zeros(ClassicalSymbol.from_ladder(P.order, P.ladder[:1]), 4)
        assert (P - top).leading_degree() == Fraction(-1, 2)


class TestLeadingTolerance:
    """A component counts as nonzero when its sup norm is above
    _LEADING_TOL, strictly: leading_degree and the audit read that one
    rule through psdo._leading_places."""

    BOUNDARY = [(1e-11, False), (np.nextafter(1e-11, np.inf), True)]

    def test_tolerance(self):
        assert psdo._LEADING_TOL == 1e-11

    @pytest.mark.parametrize("top, counts", BOUNDARY)
    def test_leading_degree_at_the_boundary(self, top, counts):
        ladder = np.zeros((3, 2, GRID, 2, 2), complex)
        ladder[0, 1, 5, 0, 1] = top  # the top component's largest |entry|
        ladder[0, 0, 3, 1, 1] = -0.5j * top
        ladder[1, :, :, 0, 0] = 1.0
        sym = ClassicalSymbol.from_ladder(Fraction(1, 2), ladder)
        assert sym.sup_norms()[0] == top
        assert sym.leading_degree() == (Fraction(1, 2) if counts else Fraction(-1, 2))

    @pytest.mark.parametrize("top, counts", BOUNDARY)
    def test_places_at_the_boundary(self, top, counts):
        norms = np.array([[top, 1.0, 0.0], [0.0, top, 0.0], [top, top, top]])
        want = [0, 1, 0] if counts else [1, None, None]
        assert psdo._leading_places(norms) == want

    def test_leading_degree_and_audit_share_the_rule(self, monkeypatch):
        calls = []
        places = psdo._leading_places

        def spy(norms):
            calls.append(norms.shape)
            return places(norms)

        monkeypatch.setattr(psdo, "_leading_places", spy)
        lift = lift_curvature(cp2_fubini_study(), 2)
        audit = connection_difference_order_audit(lift, depth=4, grid=GRID)
        assert calls == [(6, 4)]
        degrees = [sym.leading_degree() for _, sym in connection_difference_terms(lift, 4, GRID)]
        assert calls == [(6, 4)] + [(1, 4)] * 6
        assert [order for _, order in audit] == [int(degree) for degree in degrees]


def full_grid_copy(sym):
    """sym with its ladder stored as a full (depth, 2, G, d, d) array."""
    return ClassicalSymbol.from_ladder(sym.order, np.array(sym.ladder))


def assert_same_bits(a, b):
    """Equal orders and depths, and equal ladders, compared both as numbers
    and as C-order bytes (which also tells 0.0 from -0.0)."""
    assert a.order == b.order and a.depth == b.depth
    assert np.array_equal(a.ladder, b.ladder)
    assert a.ladder.tobytes() == b.ladder.tobytes()


def one_row_ladder(sym):
    return sym.ladder.strides[2] == 0


class TestOneRowStorage:
    """Components constant in x are stored as one row, and the operations on
    them give the values that the same operations give on full grids."""

    #: constant (c), banded (b) and zero (0) places, as in LADDERS
    ROW_LADDERS = ["cccccc", "c0c0cc", "cbcbcb", "bcc0cc"]

    @staticmethod
    def draw(rng, order, kinds, dim=2):
        return mixed_ladder(random_symbol(rng, order, len(kinds), dim=dim, grid=GRID), kinds)

    @pytest.mark.parametrize("kinds_p", ROW_LADDERS)
    @pytest.mark.parametrize("kinds_q", ROW_LADDERS)
    def test_compose(self, rng, reference_kernel, kinds_p, kinds_q):
        P, Q = self.draw(rng, 1, kinds_p), self.draw(rng, -2, kinds_q)
        assert one_row_ladder(P) == ("b" not in kinds_p)
        Pf, Qf = full_grid_copy(P), full_grid_copy(Q)
        assert not one_row_ladder(Pf) and not one_row_ladder(Qf)
        new, old = reference_kernel(lambda: (compose(P, Q), compose(Q, P)))
        _, full = reference_kernel(lambda: (compose(Pf, Qf), compose(Qf, Pf)))
        for got, ref, want in zip(new, old, full):
            assert_same_bits(got, ref)
            assert_same_bits(got, want)
        if "b" not in kinds_p + kinds_q:
            assert one_row_ladder(new[0]) and one_row_ladder(new[1])

    @pytest.mark.parametrize("kinds", ["ccccc", "cc0cc", "cbcbc", "c0bb0"])
    def test_parametrix(self, reference_kernel, kinds):
        rng = np.random.default_rng(23)
        for dim in (1, 2, 3):
            A = mixed_ladder(elliptic_order_one(rng, 5, dim), kinds)
            new, old = reference_kernel(lambda: parametrix(A, 5))
            _, full = reference_kernel(lambda: parametrix(full_grid_copy(A), 5))
            assert_same_bits(new, old)
            assert_same_bits(new, full)
            if "b" not in kinds:
                assert one_row_ladder(new)

    @pytest.mark.parametrize("kinds_p, kinds_q", [("cccc", "cc0c"), ("cbcb", "c0cc"),
                                                  ("bbbb", "cccc")])
    def test_ladder_arithmetic(self, rng, kinds_p, kinds_q):
        P, Q = self.draw(rng, 1, kinds_p), self.draw(rng, -1, kinds_q)
        Pf, Qf = full_grid_copy(P), full_grid_copy(Q)
        for a, b, af, bf in ((P, Q, Pf, Qf), (Q, P, Qf, Pf)):
            assert_same_bits(a + b, af + bf)
            assert_same_bits(a - b, af - bf)
        for scalar in (2.5, -1j, 0.5 - 2j):
            assert_same_bits(scalar * P, scalar * Pf)
        assert one_row_ladder(P + Q) == ("b" not in kinds_p + kinds_q)

    def test_constant_constructors_keep_one_row(self):
        gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for sym in (identity_symbol(2, GRID, depth=3),
                    multiplication_symbol(gamma, GRID, depth=3),
                    derivative_symbol(2, GRID, gamma, depth=3),
                    derivative_symbol(2, GRID, gamma, depth=3, adjoint=True),
                    resolvent_parametrix(gamma, depth=3, dim=2, grid=GRID),
                    resolvent_parametrix(None, depth=3, dim=2, grid=GRID)):
            assert one_row_ladder(sym) and not sym.ladder.flags.writeable
        wide = np.broadcast_to(gamma, (GRID, 2, 2))
        assert_same_bits(multiplication_symbol(gamma, GRID), multiplication_symbol(wide, GRID))
        assert_same_bits(derivative_symbol(2, GRID, gamma, depth=3),
                         derivative_symbol(2, GRID, wide, depth=3))

    @pytest.mark.parametrize("kinds", ROW_LADDERS + ["bbbb", "0000"])
    def test_sup_norms_match_components(self, rng, kinds):
        P = self.draw(rng, 1, kinds)
        for sym in (P, full_grid_copy(P)):
            norms = sym.sup_norms()
            assert norms.shape == (len(kinds),)
            assert norms.tolist() == [float(np.abs(values).max()) for values in sym.ladder]

    def test_audit_takes_the_one_row_path(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        for _, sym in connection_difference_terms(lift, depth=6, grid=GRID):
            assert sym.stored.shape == (6, 2, 1, 5, 5) and one_row_ladder(sym)

    def test_audit_symbol_does_not_depend_on_the_grid(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        coarse = connection_difference_symbol(lift, depth=6, grid=16)
        fine = connection_difference_symbol(lift, depth=6, grid=256)
        assert coarse.order == fine.order and coarse.depth == fine.depth
        assert (coarse.grid, fine.grid) == (16, 256)
        assert coarse.stored.shape == fine.stored.shape == (6, 2, 1, 5, 5)
        assert coarse.stored.tobytes() == fine.stored.tobytes()
        assert coarse.ladder[:, :, 0].tobytes() == fine.ladder[:, :, 0].tobytes()
        assert fine.ladder.shape == (6, 2, 256, 5, 5) and one_row_ladder(fine)


class TestComponentsDoNotChange:
    def test_later_write_to_the_base_does_not_reach_the_component(self):
        base = np.zeros((3, 2, 32, 1, 1), complex)
        sym = ClassicalSymbol.from_ladder(0, base[:1])
        base[0, 0, 5] = 1
        assert not sym.ladder.any() and not sym.stored.any()

    def test_caller_array_stays_writeable(self):
        arr = np.zeros((1, 2, GRID, 2, 2), complex)
        sym = ClassicalSymbol.from_ladder(0, arr)
        arr[0, 0, 3] = 1.0
        assert arr.flags.writeable and not sym.ladder.any()
        assert not sym.ladder.flags.writeable

    def test_broadcast_row_is_copied_as_one_row(self):
        row = np.zeros((1, 2, 1, 2, 2), complex)
        sym = ClassicalSymbol.from_ladder(0, np.broadcast_to(row, (1, 2, GRID, 2, 2)))
        row[0, 1, 0, 0, 1] = 1.0
        assert not sym.ladder.any()
        assert sym.ladder.shape == (1, 2, GRID, 2, 2) and sym.ladder.strides[2] == 0
        assert sym.stored.nbytes == row.nbytes

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        arr = np.zeros((1, 2, GRID, 1, 1), complex)
        view = arr[:]
        view.setflags(write=False)
        sym = ClassicalSymbol.from_ladder(0, view)
        arr[0, 0, 0] = 1.0
        assert not sym.ladder.any()

    def test_library_producers_hand_over_without_a_copy(self, rng, monkeypatch):
        build = psdo._band_limited_ladders
        built = []

        def kept_build(draws, grid):
            built.append(build(draws, grid))
            return built[-1]

        monkeypatch.setattr(psdo, "_band_limited_ladders", kept_build)
        P = random_symbol(rng, 0, 3, dim=2, grid=GRID)
        assert len(built) == 1 and P.stored is built[0] and P.ladder is P.stored
        frozen = np.zeros((1, 2, GRID, 1, 1), complex)
        frozen.setflags(write=False)
        assert ClassicalSymbol.from_ladder(0, frozen).stored is frozen

    def test_from_ladder_keeps_what_no_one_can_write(self):
        arr = np.zeros((3, 2, GRID, 2, 2), complex)
        sym = ClassicalSymbol.from_ladder(Fraction(1, 2), arr)
        arr[1, 0, 3] = 1.0  # a writeable argument is copied
        assert arr.flags.writeable and not sym.ladder.any() and not sym.stored.flags.writeable
        arr.setflags(write=False)
        assert ClassicalSymbol.from_ladder(0, arr).stored is arr
        row = np.ones((3, 2, 1, 2, 2), complex)
        sym = ClassicalSymbol.from_ladder(0, np.broadcast_to(row, (3, 2, GRID, 2, 2)))
        row[0] = 5.0
        assert sym.stored.shape == (3, 2, 1, 2, 2) and one_row_ladder(sym)
        assert (sym.ladder == 1.0).all() and sym.order == 0 and sym.grid == GRID

    def test_fraction_order_is_kept(self, rng):
        order = Fraction(1, 2)
        P = ClassicalSymbol.from_ladder(order, random_symbol(rng, 0, 2, grid=GRID).ladder)
        assert P.order is order
        one = ClassicalSymbol.from_ladder(1, P.ladder).order
        assert type(one) is Fraction and one == 1

    def test_no_wavenumbers_without_an_fft(self, monkeypatch):
        calls = []
        monkeypatch.setattr(psdo, "_wavenumbers", lambda grid: calls.append(grid))
        compose(identity_symbol(2, GRID, depth=4), derivative_symbol(2, GRID, depth=4))
        assert calls == []


# t4, cp2 and cp1xcp1 with a, b in 1..6.
CATALOG = [flat_torus(), cp2_fubini_study()] + [
    product_cp1(a, b) for a in range(1, 7) for b in range(1, 7)]


def stored_terms(terms):
    return [(name, sym.order, sym.stored.tobytes()) for name, sym in terms]


def turned_cp2(seed=5):
    """cp2 with J conjugated by a seeded rotation, Q J Q^T, and its space
    form: a J whose entries are not 0 or +-1."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
    J = ComplexStructure(Q @ STANDARD_J.matrix @ Q.T)
    return replace(cp2_fubini_study(), name="cp2-turned", J=J, curvature=complex_space_form(4.0, J))


def orbit_matrices_reference(lift, X):
    """Gamma and the five gamma_dot-slot endomorphisms of the field X, each
    as its einsum definition, in the order of psdo._orbit_matrices."""
    comp5 = lift.curvature5.comp
    gdot = np.eye(5)[0]
    Gamma = np.zeros((5, 5))
    Gamma[1:, 1:] = 0.5 * lift.k * lift.base.J.matrix
    Z0 = Gamma @ X
    return np.stack([
        Gamma,
        np.einsum("i,m,imjl->lj", X, gdot, comp5),   # E_Xg: Z -> R(X, gdot) Z
        np.einsum("a,m,jaml->lj", gdot, X, comp5),   # N: Y -> R(Y, gdot) X
        np.einsum("i,a,ijal->lj", X, gdot, comp5),   # P_free: Z -> R(X, Z) gdot
        np.einsum("a,m,jaml->lj", gdot, Z0, comp5),  # M4: Y -> R(Y, gdot) Z0
        np.einsum("i,a,ijal->lj", Z0, gdot, comp5),  # M6: Z -> R(Z0, Z) gdot
    ])


def plus_chain(syms):
    """syms[0] + syms[1] + ..., one + at a time."""
    total, *rest = syms
    for sym in rest:
        total = total + sym
    return total


AUDIT_BASES = [flat_torus(), cp2_fubini_study(), product_cp1(2, 3), turned_cp2()]


class TestAuditInOnePass:
    """The audit path in one pass per stage (the endomorphisms as slices,
    one sup-norm pass, one aligned sum) against the per-term definitions."""

    @pytest.mark.parametrize("depth, grid", [(6, 32), (4, 64)])
    @pytest.mark.parametrize("k", [1, 2, 3, -2, 5])
    @pytest.mark.parametrize("base", AUDIT_BASES, ids=lambda s: s.name)
    def test_symbol_is_the_chain_of_plus(self, base, k, depth, grid):
        lift = lift_curvature(base, k)
        total = connection_difference_symbol(lift, depth, grid)
        chain = plus_chain([sym for _, sym in connection_difference_terms(lift, depth, grid)])
        assert total.order == chain.order and total.grid == chain.grid
        assert total.stored.shape == chain.stored.shape
        assert total.stored.tobytes() == chain.stored.tobytes()

    @pytest.mark.parametrize("depth, grid", [(6, 32), (4, 64)])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, -2, 5])
    @pytest.mark.parametrize("base", AUDIT_BASES, ids=lambda s: s.name)
    def test_audit_is_each_terms_leading_degree(self, base, k, depth, grid):
        lift = lift_curvature(base, k)
        want = []
        for name, sym in connection_difference_terms(lift, depth, grid):
            degree = sym.leading_degree()
            want.append((name, None if degree is None else int(degree)))
        audit = connection_difference_order_audit(lift, depth, grid)
        assert audit == want
        assert all(order is None or type(order) is int for _, order in audit)

    @pytest.mark.parametrize("k", [0, 1, 2, -3, 7])
    @pytest.mark.parametrize("base", AUDIT_BASES, ids=lambda s: s.name)
    def test_orbit_matrices_are_the_einsum_definitions(self, base, k):
        lift = lift_curvature(base, k)
        for X in np.eye(5):  # bit for bit in each frame direction
            got = psdo._orbit_matrices(lift, X)
            assert got.tobytes() == orbit_matrices_reference(lift, X).tobytes()
        rng = np.random.default_rng(k + 10)
        tol = 4 * np.finfo(float).eps * np.abs(lift.curvature5.comp).max()
        for v in rng.standard_normal((10, 5)):  # unit fields off the frame
            X = v / np.linalg.norm(v)
            got, want = psdo._orbit_matrices(lift, X), orbit_matrices_reference(lift, X)
            assert got[0].tobytes() == want[0].tobytes()  # Gamma
            assert np.abs(got - want).max() <= tol

    def test_terms_read_the_orbit_matrices(self):
        # The memo key is the bytes of the six matrices, in that order.
        lift = lift_curvature(cp2_fubini_study(), 2)
        psdo._terms.cache_clear()
        terms = connection_difference_terms(lift, 6, GRID)
        key = orbit_matrices_reference(lift, np.eye(5)[1]).tobytes()
        assert all(a is b for (_, a), (_, b) in zip(terms, psdo._terms(key, 6, GRID), strict=True))
        assert psdo._terms.cache_info()[:2] == (1, 1)


class TestAlignedSum:
    """psdo._sum against the chain of + it replaces, bit for bit, on ladders
    full of -0.0, at shifted and rational orders, one-row and full."""

    @staticmethod
    def signed(rng, order, depth, row):
        """Random entries, a third of them -0.0 and a third +0.0."""
        shape = (depth, 2, 1 if row else GRID, 2, 2)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pick = rng.integers(0, 3, shape)
        values = np.where(pick == 0, -0.0 - 0.0j, np.where(pick == 1, 0.0j, values))
        ladder = np.broadcast_to(values, shape[:2] + (GRID,) + shape[3:])
        return ClassicalSymbol.from_ladder(Fraction(order), ladder)

    CASES = [
        [("-1", 6, 1), ("-1", 6, 1), ("-1", 6, 1), ("-2", 6, 1), ("-1", 6, 1), ("-2", 6, 1)],
        [("-2", 3, 1), ("0", 5, 1), ("-1", 4, 0), ("1", 2, 1)],
        [("1/2", 3, 0), ("-3/2", 4, 1), ("1/2", 5, 1)],
        [("0", 1, 1), ("-3", 6, 1)],
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_equals_the_chain_of_plus(self, case):
        rng = np.random.default_rng(case)
        for _ in range(5):
            syms = [self.signed(rng, order, depth, row) for order, depth, row in self.CASES[case]]
            got, want = psdo._sum(syms), plus_chain(syms)
            assert got.order == want.order and got.stored.shape == want.stored.shape
            assert got.stored.tobytes() == want.stored.tobytes()

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_plus_pads_with_plus_zero(self, case):
        # Each + against binary_reference, which pads with +0.0 on its own,
        # compared as bytes: a -0.0 pad would keep a -0.0 that 0.0 + -0.0
        # turns into +0.0.
        rng = np.random.default_rng(case + 100)
        syms = [self.signed(rng, order, depth, row) for order, depth, row in self.CASES[case]]
        for a, b in itertools.product(syms, repeat=2):
            order, want = binary_reference(a, b, lambda x, y: x + y)
            got = a + b
            assert got.order == order
            assert got.ladder.tobytes() == np.array(want).tobytes()

    def test_keeps_the_sign_of_zero(self):
        # Where every term is -0.0 the chain gives -0.0; a sum started from
        # +0.0 would give +0.0 there.
        rng = np.random.default_rng(0)
        minus = [ClassicalSymbol.from_ladder(Fraction(-1), np.full((3, 2, GRID, 2, 2), -0.0 - 0.0j))
                 for _ in range(3)]
        syms = minus + [self.signed(rng, "-1", 3, 1)]
        got = psdo._sum(syms)
        assert got.stored.tobytes() == plus_chain(syms).stored.tobytes()
        assert np.signbit(got.stored.real).any()

    def test_refuses_what_plus_refuses(self):
        rng = np.random.default_rng(1)
        a, b = self.signed(rng, "0", 3, 1), self.signed(rng, "1/2", 3, 1)
        with pytest.raises(SymbolError, match="differ by an integer"):
            psdo._sum([a, a, b])
        other = multiplication_symbol(np.eye(3), GRID, 3)
        with pytest.raises(FiberMismatchError):
            psdo._sum([a, other])


class TestConnectionDifferenceAudit:
    def test_flat_k0_all_terms_vanish(self):
        lift = lift_curvature(flat_torus(), 0)
        audit = connection_difference_order_audit(lift, depth=4, grid=GRID)
        assert [order for _, order in audit] == [None] * 6

    def test_flat_k0_terms_match_reference_kernel(self, reference_kernel):
        # Every term vanishes, so the kernel skips every product.
        lift = lift_curvature(flat_torus(), 0)
        new, old = reference_kernel(lambda: connection_difference_terms(lift, depth=4, grid=GRID))
        for (name, a), (ref_name, b) in zip(new, old, strict=True):
            assert name == ref_name and a.leading_degree() is None
            assert_same_symbol(a, b)

    @pytest.mark.parametrize("base", [flat_torus(), cp2_fubini_study(), product_cp1(1, 4),
                                      product_cp1(2, 3), product_cp1(3, 5), product_cp1(6, 1)],
                             ids=lambda s: f"{s.name}{s.params}")
    @pytest.mark.parametrize("grid, depth", [(32, 6), (64, 4), (16, 8), (32, 2)])
    def test_terms_and_symbol_match_reference_kernel(self, reference_kernel, base, grid, depth):
        for k in (1, 2, 3, 7, -3):
            lift = lift_curvature(base, k)
            new, old = reference_kernel(lambda: (connection_difference_terms(lift, depth, grid),
                                                 connection_difference_symbol(lift, depth, grid)))
            for (name, a), (ref_name, b) in zip(new[0], old[0], strict=True):
                assert name == ref_name and one_row_ladder(a)  # constant in x: one grid row
                assert_same_bits(a, b)
            assert_same_bits(new[1], old[1])

    @pytest.mark.parametrize(
        "base,k",
        [(flat_torus(), 1), (cp2_fubini_study(), 2), (product_cp1(2, 3), 1)],
    )
    def test_orders_are_minus_one_or_two(self, base, k):
        lift = lift_curvature(base, k)
        audit = connection_difference_order_audit(lift, depth=4, grid=GRID)
        orders = [order for _, order in audit]
        assert all(order in (-1, -2) for order in orders)
        # exactly the two multiplication-only terms drop to order -2
        assert orders.count(-2) == 2 and orders.count(-1) == 4

    def test_total_difference_has_negative_order(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        total = connection_difference_symbol(lift, depth=4, grid=GRID)
        assert total.leading_degree() == Fraction(-1)

    def test_cp2_audit_runs_without_fft(self, monkeypatch):
        # Gamma = (k/2) J and the curvature endomorphisms are constant in x,
        # so no component is differentiated spectrally.
        calls = []

        def counted(name):
            transform = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)
            return call

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        psdo._terms.cache_clear()  # a build, not a read of an earlier one
        lift = lift_curvature(cp2_fubini_study(), 2)
        terms = connection_difference_terms(lift, depth=6, grid=GRID)
        assert calls == []
        assert np.fft.fft(np.ones(16))[0] == 16.0 and calls == ["fft"]  # the counter counts
        assert [int(sym.leading_degree()) for _, sym in terms] == [-1, -1, -1, -2, -1, -2]

    @pytest.mark.parametrize("depth, grid", [(6, 32), (4, 64)])
    @pytest.mark.parametrize("k", [1, 2, 3, -2, 5])
    def test_terms_depend_on_the_surface_only_through_k(self, k, depth, grid):
        # The terms read only curvature with a gamma_dot slot, which on a
        # lift depends on k alone: every catalog surface gives the same bits.
        # The memo is emptied before each surface, so every surface's terms
        # are built, not read from the first surface's entry.
        def built(base):
            psdo._terms.cache_clear()
            return stored_terms(connection_difference_terms(lift_curvature(base, k),
                                                            depth, grid))

        assert len(CATALOG) == 38
        first, *rest = (built(base) for base in CATALOG)
        assert len(first) == 6
        assert all(terms == first for terms in rest)

    def test_six_named_terms(self):
        lift = lift_curvature(flat_torus(), 1)
        terms = connection_difference_terms(lift, depth=4, grid=GRID)
        assert len(terms) == 6
        assert len({name for name, _ in terms}) == 6

    @pytest.mark.parametrize("base", [flat_torus(), cp2_fubini_study(), product_cp1(2, 3)],
                             ids=["t4", "cp2", "cp1xcp1"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_degree_minus_one_is_the_curvature_formula(self, base, k):
        # sigma_{-1} of the connection difference is -+(i/2)(3 N + P_free) at
        # xi = +-1, with N: Y -> R(Y, gdot) X and P_free: Z -> R(X, Z) gdot.
        lift = lift_curvature(base, k)
        comp5 = lift.curvature5.comp
        frame = np.eye(5)
        gdot = frame[0]

        def R(a, b, c):  # R(a, b) c in the frame
            return np.einsum("i,j,k,ijkl->l", a, b, c, comp5)

        tol = 1e-14 * np.abs(comp5).max()
        for X in frame:
            first, *rest = (sym for _, sym in psdo._terms_for(lift, X, depth=4, grid=GRID))
            total = sum(rest, first)
            N = np.stack([R(e, gdot, X) for e in frame], axis=1)
            P_free = np.stack([R(X, e, gdot) for e in frame], axis=1)
            want = 0.5j * (3 * N + P_free)
            plus, minus = total.ladder[0, :, 0]
            assert total.order == -1 and np.abs(want).max() > 0
            assert np.abs(plus + want).max() <= tol and np.abs(minus - want).max() <= tol

    def test_default_field_is_e2(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        psdo._terms.cache_clear()
        default = connection_difference_terms(lift, depth=6, grid=GRID)
        explicit = psdo._terms_for(lift, np.array([0.0, 1.0, 0.0, 0.0, 0.0]), depth=6, grid=GRID)
        assert all(a is b for (_, a), (_, b) in zip(default, explicit, strict=True))

    # The terms are built once per (Gamma, curvature endomorphisms, depth,
    # grid) per process.
    @pytest.mark.parametrize("depth, grid", [(6, 32), (4, 64)])
    def test_cold_equals_warm(self, depth, grid):
        for base in CATALOG:
            for k in range(-3, 4):
                lift = lift_curvature(base, k)
                psdo._terms.cache_clear()
                cold = stored_terms(connection_difference_terms(lift, depth, grid))
                warm = stored_terms(connection_difference_terms(lift, depth, grid))
                assert psdo._terms.cache_info()[:2] == (1, 1)  # (hits, misses)
                assert warm == cold

    def test_audit_then_symbol_builds_once(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        psdo._terms.cache_clear()
        connection_difference_order_audit(lift, depth=6, grid=GRID)
        assert psdo._terms.cache_info()[:2] == (0, 1)
        warm = connection_difference_symbol(lift, depth=6, grid=GRID)
        assert psdo._terms.cache_info()[:2] == (1, 1)
        # The symbol read from the memo has the bytes of a cold build.
        psdo._terms.cache_clear()
        cold = connection_difference_symbol(lift, depth=6, grid=GRID)
        assert psdo._terms.cache_info()[:2] == (0, 1)
        assert warm.order == cold.order and warm.stored.tobytes() == cold.stored.tobytes()

    def test_returned_list_belongs_to_the_caller(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        terms = connection_difference_terms(lift, depth=6, grid=GRID)
        want = stored_terms(terms)
        terms.reverse()
        terms.pop()
        terms[0] = None
        again = connection_difference_terms(lift, depth=6, grid=GRID)
        assert stored_terms(again) == want
        assert not any(sym.stored.flags.writeable for _, sym in again)

    @pytest.mark.parametrize("depth, grid, message", [(1, GRID, "depth"), (6, 17, "grid")])
    def test_bad_depth_or_grid_raises_every_time(self, depth, grid, message):
        lift = lift_curvature(cp2_fubini_study(), 2)
        psdo._terms.cache_clear()
        for _ in range(2):
            with pytest.raises(SymbolError, match=message):
                connection_difference_terms(lift, depth, grid)
        assert psdo._terms.cache_info().currsize == 0

    def test_surfaces_with_the_same_matrices_share_an_entry(self):
        psdo._terms.cache_clear()
        torus = connection_difference_terms(lift_curvature(flat_torus(), 2), 6, GRID)
        cp2 = connection_difference_terms(lift_curvature(cp2_fubini_study(), 2), 6, GRID)
        assert psdo._terms.cache_info()[:2] == (1, 1)
        assert psdo._terms.cache_info().currsize == 1
        assert all(a is b for (_, a), (_, b) in zip(torus, cp2, strict=True))
        connection_difference_terms(lift_curvature(cp2_fubini_study(), 3), 6, GRID)
        assert psdo._terms.cache_info().currsize == 2
