import re
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from wcslab import psdo
from wcslab.catalog import cp2_fubini_study, flat_torus, product_cp1
from wcslab.psdo import (
    ClassicalSymbol,
    FiberMismatchError,
    HomogeneousComponent,
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
    """x-independent ladder from a list of (plus, minus) matrix pairs."""
    comps = []
    for p, m in mats:
        pm = np.asarray((p, m), dtype=complex)
        comps.append(HomogeneousComponent(np.broadcast_to(pm[:, None], (2, grid, *pm.shape[1:]))))
    return ClassicalSymbol(Fraction(order), tuple(comps))


def compose_constant_oracle(P, Q, depth):
    """Composition of x-independent symbols: every x-derivative term drops,
    so each output degree is the plain convolution of matrix products."""
    comps = []
    for j in range(depth):
        shape = P.components[0].plus.shape
        acc_p = np.zeros(shape, dtype=complex)
        acc_m = np.zeros(shape, dtype=complex)
        for p in range(min(j + 1, P.depth)):
            q = j - p
            if q >= Q.depth:
                continue
            acc_p += np.matmul(P.components[p].plus, Q.components[q].plus)
            acc_m += np.matmul(P.components[p].minus, Q.components[q].minus)
        comps.append(HomogeneousComponent(np.stack((acc_p, acc_m))))
    return ClassicalSymbol(P.order + Q.order, tuple(comps))


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


def compose_loop_reference(P, Q, depth):
    """The asymptotic product term by term: one spectral x-derivative per
    (p, m, q) and each cosphere point separately."""
    freqs = np.fft.fftfreq(P.grid, d=1.0 / P.grid)

    def dx(values, m):
        if m == 0:
            return values
        hat = np.fft.fft(values, axis=0)
        return np.fft.ifft(hat * ((1j * freqs) ** m)[:, None, None], axis=0)

    comps = []
    for j in range(depth):
        acc_p = np.zeros(P.components[0].plus.shape, dtype=complex)
        acc_m = np.zeros(P.components[0].plus.shape, dtype=complex)
        for p in range(j + 1):
            cp = P.components[p]
            for m in range(j - p + 1):
                cq = Q.components[j - p - m]
                fall = 1.0
                for t in range(m):
                    fall *= float(P.order - p - t)
                coeff = (-1j) ** m / factorial(m)
                acc_p += coeff * fall * np.matmul(cp.plus, dx(cq.plus, m))
                acc_m += coeff * fall * (-1.0) ** m * np.matmul(cp.minus, dx(cq.minus, m))
        comps.append((acc_p, acc_m))
    return comps


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

    comps = tuple(
        HomogeneousComponent(np.stack((random_matrix_function(), random_matrix_function())))
        for _ in range(depth)
    )
    return ClassicalSymbol(Fraction(order), comps)


def commutator_trace_reference(seed, trials, depth, grid=psdo.DEFAULT_GRID):
    """commutator_trace_test as it was before it built only what the residue
    reads: both random symbols at full depth, and components 0..j of each
    product."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        op = int(rng.integers(-2, 2))
        oq = int(rng.integers(-2, 2))
        P = random_symbol(rng, op, depth, dim=dim, grid=grid)
        Q = random_symbol(rng, oq, depth, dim=dim, grid=grid)
        j = op + oq + 1
        if j >= 0:
            pq = compose(P, Q, j + 1).components[j]
            qp = compose(Q, P, j + 1).components[j]
            diff = HomogeneousComponent(pq.values - qp.values)
            worst = max(worst, abs(wodzicki_residue(ClassicalSymbol(-1, (diff,)))))
    return worst


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
    range is multiplied and added on its own, exactly-zero terms included.
    For a stack (`order` one int per element) each element's scale is made
    on its own."""

    def falling(a, m):
        out = 1.0
        for t in range(m):
            out *= float(a - t)
        return out

    orders = [order] if isinstance(order, Fraction) else list(order)
    for p, sigma in enumerate(left, start=first):
        for m, (dq, _) in enumerate(dQ):
            for q, dx in enumerate(dq):
                if lo <= p + m + q < lo + len(acc):
                    coeff = (-1j) ** m / factorial(m)
                    scale = np.array([coeff * falling(o - p, m) * np.array([1.0, (-1.0) ** m])
                                      for o in orders])
                    scale = scale.reshape(acc.shape[1:-3] + (1, 1, 1))
                    acc[p + m + q - lo] += scale * np.matmul(sigma, dx)


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
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.plus, cb.plus) and np.array_equal(ca.minus, cb.minus)


def mixed_ladder(sym, kinds):
    """sym with component j kept as drawn (kinds[j] == "b", banded in x),
    made constant in x by repeating its row 0 ("c"), or zeroed ("0")."""
    comps = []
    for c, kind in zip(sym.components, kinds, strict=True):
        if kind == "c":
            c = HomogeneousComponent(np.broadcast_to(c.values[:, :1], c.values.shape))
        elif kind == "0":
            c = HomogeneousComponent(np.zeros_like(c.values))
        comps.append(c)
    return ClassicalSymbol(sym.order, tuple(comps))


#: Ladders of constant (c), banded (b) and zero (0) components; the kernel
#: keeps one grid row for "c" and skips "0".
LADDERS = ["cccccc", "bbbbbb", "cbcbcb", "bcbcbc", "c0b0cb", "bc0cc0", "cbb000"]


def elliptic_order_one(rng, depth, dim, grid=GRID):
    """Seeded random order-1 symbol whose leading part is i I plus small noise."""
    A = random_symbol(rng, 1, depth, dim=dim, grid=grid)
    lead = A.components[0]
    eye = 1j * np.eye(dim)
    new_lead = HomogeneousComponent(np.stack((eye + 0.1 * lead.plus, -eye + 0.1 * lead.minus)))
    return ClassicalSymbol(A.order, (new_lead,) + A.components[1:])


class TestCompose:
    def test_identity_is_neutral(self, rng):
        Q = random_symbol(rng, 1, 4, dim=2, grid=GRID)
        I = identity_symbol(2, GRID, depth=4)
        out = compose(I, Q, 4)
        for c, q in zip(out.components, Q.components):
            assert np.max(np.abs(c.plus - q.plus)) <= 1e-13
            assert np.max(np.abs(c.minus - q.minus)) <= 1e-13

    def test_constant_multiplications(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.array([[0.0, 1.0], [1.0, 3.0]])
        out = compose(
            multiplication_symbol(a, GRID, depth=2),
            multiplication_symbol(b, GRID, depth=2),
            2,
        )
        assert np.allclose(out.components[0].plus[0], a @ b)
        assert out.components[1].sup_norm() == 0.0

    def test_variable_multiplication_leading_term(self):
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        a = np.cos(x)[:, None, None] * np.eye(1)
        b = np.sin(2 * x)[:, None, None] * np.eye(1)
        out = compose(
            multiplication_symbol(a, GRID), multiplication_symbol(b, GRID), 1
        )
        assert np.allclose(out.components[0].plus, a * b)

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
            for cl, cr in zip(left.components, right.components):
                assert np.max(np.abs(cl.plus - cr.plus)) <= 1e-9
                assert np.max(np.abs(cl.minus - cr.minus)) <= 1e-9

    def test_constant_coefficients_against_convolution_oracle(self, rng):
        mats = [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))) for _ in range(3)]
        nats = [(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))) for _ in range(3)]
        P = constant_symbol(1, mats)
        Q = constant_symbol(-1, nats)
        out = compose(P, Q, 3)
        ora = compose_constant_oracle(P, Q, 3)
        for c, o in zip(out.components, ora.components):
            assert np.max(np.abs(c.plus - o.plus)) <= 1e-12
            assert np.max(np.abs(c.minus - o.minus)) <= 1e-12

    @pytest.mark.parametrize("dim, depth", [(1, 1), (2, 4), (3, 6)])
    def test_matches_term_by_term_loop_exactly(self, rng, dim, depth):
        P = random_symbol(rng, 1, depth, dim=dim, grid=GRID)
        Q = random_symbol(rng, -2, depth + 1, dim=dim, grid=GRID)
        out = compose(P, Q, depth)
        for c, (ref_p, ref_m) in zip(out.components, compose_loop_reference(P, Q, depth)):
            assert np.array_equal(c.plus, ref_p) and np.array_equal(c.minus, ref_m)

    @pytest.mark.parametrize("variable", [False, True])
    def test_padded_products_match_reference_kernel(self, rng, reference_kernel, variable):
        # pad_zeros leaves exactly-zero components; the kernel skips their terms.
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
    def test_mixed_ladders_match_reference_kernel(self, rng, reference_kernel, kinds_p, kinds_q):
        for dim, modes in ((1, 1), (3, 2)):
            P = mixed_ladder(random_symbol(rng, 1, 6, dim=dim, grid=GRID, modes=modes), kinds_p)
            Q = mixed_ladder(random_symbol(rng, -2, 6, dim=dim, grid=GRID, modes=modes), kinds_q)
            # pad_zeros padding below a truncated ladder of either kind
            P4 = ClassicalSymbol(P.order, P.components[:4]).pad_zeros(6)
            for left, right in ((P, Q), (Q, P), (P4, Q), (Q, P4), (P, P)):
                new, old = reference_kernel(lambda: compose(left, right, 6))
                assert_same_symbol(new, old)

    @pytest.mark.parametrize("row", [1, GRID // 2, GRID - 1])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_one_differing_row_keeps_the_grid(self, rng, reference_kernel, row, side):
        const = mixed_ladder(random_symbol(rng, 0, 3, dim=2, grid=GRID), "ccc")
        assert one_row_ladder(const)
        c0 = const.components[0]
        values = c0.values.copy()
        at = ("plus", "minus").index(side), row, 1, 0
        entry = values[at]  # one ulp up in one entry of one grid row
        values[at] = complex(np.nextafter(entry.real, np.inf), entry.imag)
        lead = HomogeneousComponent(values)
        Q = ClassicalSymbol(const.order, (lead,) + const.components[1:])
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
            sym = ClassicalSymbol(0, (HomogeneousComponent(np.stack((values, values))),))
            assert sym.stored.shape == (1, 2, GRID, 2, 2) and sym._live[1] == ([0] if varies else [])

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
        P = ClassicalSymbol(Fraction(-1), (HomogeneousComponent(np.ones((2, GRID, 1, 1))),))
        assert wodzicki_residue(P) == pytest.approx(2.0, abs=1e-10)

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
        assert np.allclose(B.components[0].plus, 1.0)
        assert np.allclose(B.components[0].minus, 1.0)
        assert B.components[1].sup_norm() == 0.0

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
        for c in defect.components:
            assert c.sup_norm() <= 1e-10

    def test_constant_gamma_matches_hand_recursion(self):
        Gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        depth = 5
        B = resolvent_parametrix(Gamma, depth=depth, dim=2, grid=GRID)
        oracle = parametrix_constant_oracle(Gamma.astype(complex), depth)
        for j in range(depth):
            plus, minus = oracle[-2 - j]
            c = B.components[j]
            assert np.max(np.abs(c.plus[0] - plus)) <= 1e-12
            assert np.max(np.abs(c.minus[0] - minus)) <= 1e-12
        # nonvanishing degree -3 component, sup norm 2 for this Gamma
        assert B.components[1].sup_norm() == pytest.approx(2.0)

    def test_depth_validation(self):
        with pytest.raises(SymbolError):
            resolvent_parametrix(None, depth=1, dim=1)

    def test_laplacian_and_resolvent_match_reference_kernel(self, reference_kernel):
        rng = np.random.default_rng(3)
        x = 2.0 * np.pi * np.arange(GRID) / GRID
        for dim in (1, 2, 3):
            gamma = (rng.standard_normal((dim, dim))
                     + np.cos(x)[:, None, None] * rng.standard_normal((dim, dim)))
            assert_same_symbol(*reference_kernel(
                lambda: laplacian_plus_one_symbol(gamma, grid=GRID, depth=7)))
            assert_same_symbol(*reference_kernel(
                lambda: resolvent_parametrix(gamma, depth=5, dim=dim, grid=GRID)))

    @pytest.mark.parametrize("kinds", ["ccccc", "cbcbc", "cc0bb", "bcb0c", "b0000"])
    def test_mixed_ladders_match_reference_kernel(self, reference_kernel, kinds):
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3):
            A = mixed_ladder(elliptic_order_one(rng, 5, dim), kinds)
            new, old = reference_kernel(lambda: parametrix(A, 5))
            assert_same_symbol(new, old)
            lead = A.components[0]
            assert np.array_equal(new.components[0].plus, np.linalg.inv(lead.plus))
            assert np.array_equal(new.components[0].minus, np.linalg.inv(lead.minus))
            padded = ClassicalSymbol(A.order, A.components[:2]).pad_zeros(5)
            assert_same_symbol(*reference_kernel(lambda: parametrix(padded, 5)))

    def test_zero_leading_component_is_singular(self):
        A = derivative_symbol(2, GRID, depth=3)
        A = ClassicalSymbol(A.order, (0.0 * A).components[:1] + A.components[1:])
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
                for c in defect.components:
                    assert c.sup_norm() <= 1e-10

    @pytest.mark.parametrize("side", ["+1", "-1"])
    def test_singular_leading_component_names_its_side(self, rng, side):
        A = elliptic_order_one(rng, 3, 2)
        lead = A.components[0]
        singular = lead.plus.copy() if side == "+1" else lead.minus.copy()
        singular[5] = [[1.0, 2.0], [2.0, 4.0]]  # one grid point suffices
        plus, minus = (singular, lead.minus) if side == "+1" else (lead.plus, singular)
        A = ClassicalSymbol(A.order, (HomogeneousComponent(np.stack((plus, minus))),)
                            + A.components[1:])
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

    @pytest.mark.parametrize("seed, depth", [(0, 4), (1, 6), (3, 5)])
    def test_residue_only_compose_matches_full_compose(self, seed, depth):
        # Reference: the same seeded draws, composed at full depth.
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(6):
            dim, op, oq = (int(rng.integers(lo, hi)) for lo, hi in ((1, 3), (-2, 2), (-2, 2)))
            P = random_symbol(rng, op, depth, dim=dim, grid=GRID)
            Q = random_symbol(rng, oq, depth, dim=dim, grid=GRID)
            worst = max(worst, abs(wodzicki_residue(compose(P, Q) - compose(Q, P))))
        assert commutator_trace_test(seed, 6, depth, grid=GRID) == worst

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
            new, old = reference_kernel(lambda: commutator_trace_test(seed, 8, 6, grid=GRID))
            assert new == old
            assert new == commutator_trace_reference(seed, 8, 6, grid=GRID)
        stacks = [(places, ladders) for kind, places, ladders in built if kind == "stack"]
        assert stacks and max(places for places, _ in stacks) <= 4  # components 0..j
        assert all(ladders == 2 for _, ladders in stacks)  # [Q, P] of one trial
        assert ("symbol", 6, 2) in built  # the reference's whole symbols

    @pytest.mark.parametrize("depth", [4, 5, 6, 9, 32])
    def test_matches_full_build_exactly(self, depth):
        for seeds, counts in ((range(40), (1, 8)), (range(10), (9, 17))):
            for seed in seeds:
                for trials in counts:
                    assert (commutator_trace_test(seed, trials, depth)
                            == commutator_trace_reference(seed, trials, depth))
        assert commutator_trace_test(0, 200, depth) == commutator_trace_reference(0, 200, depth)

    @pytest.mark.parametrize("grid", [16, 32, 128])
    def test_matches_full_build_exactly_on_each_grid(self, grid):
        for seed in range(12):
            for trials in (1, 9, 17):
                assert (commutator_trace_test(seed, trials, 6, grid)
                        == commutator_trace_reference(seed, trials, 6, grid))

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
            calls.update(build=[], derivatives=0, products=0)
            worst = commutator_trace_test(seed, trials, 6, grid=GRID)
            # One build, one derivative table and one kernel walk per trial
            # that builds: components 0..j of its Q and P, from draws
            # (j + 1, [Q, P], plus/minus, terms, re/im, d, d).
            assert [(shape[-1], shape[0] - 1) for shape in calls["build"]] == built_for
            assert all(shape[1:] == (2, 2, 7, 2, shape[-1], shape[-1]) for shape in calls["build"])
            assert calls["derivatives"] == calls["products"] == len(built_for)
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
        for ca, cb in zip(a.components, b.components):
            assert np.array_equal(ca.plus, cb.plus)


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
                    for a, b in zip(part.components, full.components[:k], strict=True):
                        assert a.values.tobytes() == b.values.tobytes()


class TestGridValidation:
    def test_small_grid_rejected(self):
        with pytest.raises(SymbolError, match="power of two"):
            HomogeneousComponent(np.zeros((2, 8, 1, 1), complex))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SymbolError, match="power of two"):
            HomogeneousComponent(np.zeros((2, 24, 1, 1), complex))


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
        with pytest.raises(SymbolError, match=re.escape("shape (2, G, d, d)")):
            HomogeneousComponent(np.zeros(shape, complex))

    @pytest.mark.parametrize("grid, dim", [(16, 2), (GRID, 1), (GRID, 3)])
    @pytest.mark.parametrize("place", [0, 1])
    def test_ladder_disagrees_on_grid_or_dim(self, grid, dim, place):
        comps = [HomogeneousComponent(np.zeros((2, GRID, 2, 2), complex))] * 2
        comps.insert(place + 1, HomogeneousComponent(np.zeros((2, grid, dim, dim), complex)))
        with pytest.raises(SymbolError, match="disagree on grid or fiber dimension"):
            ClassicalSymbol(0, tuple(comps))

    def test_grid_values_of_another_grid(self):
        with pytest.raises(SymbolError, match=re.escape(f"shape ({GRID},2,2)")):
            multiplication_symbol(np.zeros((16, 2, 2)), GRID)

    def test_empty_ladder(self):
        with pytest.raises(SymbolError, match="at least one component"):
            ClassicalSymbol(0, ())
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
        Q = ClassicalSymbol(Fraction(1, 2), random_symbol(rng, 0, 3, dim=2, grid=GRID).components)
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            for a, b in ((P, Q), (Q, P)):
                with pytest.raises(SymbolError, match="differ by an integer"):
                    combine(a, b)


def binary_reference(P, Q, f):
    """P (f) Q degree by degree, each side looked up with component(degree):
    (order, [(plus, minus) per degree]) from the higher order down to the
    higher truncation floor."""
    zero = np.zeros((P.grid, P.fiber_dim, P.fiber_dim), complex)
    order, floor = max(P.order, Q.order), max(P.floor_degree, Q.floor_degree)
    out = []
    for j in range(int(order - floor) + 1):
        a, b = P.component(order - j), Q.component(order - j)
        out.append(tuple(
            f(zero if a is None else getattr(a, side), zero if b is None else getattr(b, side))
            for side in ("plus", "minus")
        ))
    return order, out


class TestLadderArithmetic:
    """+, - and scalar * on ladders whose orders are rational and shifted,
    against binary_reference."""

    PAIRS = [("1/2", 3, "-3/2", 4), ("0", 2, "-2", 5), ("1", 5, "-1", 2),
             ("-1/3", 4, "2/3", 1), ("5/2", 1, "-1/2", 6), ("3/4", 3, "3/4", 5)]

    @staticmethod
    def draw(rng, order, depth):
        return ClassicalSymbol(Fraction(order), random_symbol(rng, 0, depth, grid=GRID).components)

    @pytest.mark.parametrize("op, f", [("+", lambda a, b: a + b), ("-", lambda a, b: a - b)])
    @pytest.mark.parametrize("oa, da, ob, db", PAIRS)
    def test_add_and_subtract(self, rng, op, f, oa, da, ob, db):
        P, Q = self.draw(rng, oa, da), self.draw(rng, ob, db)
        for a, b in ((P, Q), (Q, P)):
            got = f(a, b)
            order, want = binary_reference(a, b, f)
            assert got.order == order and got.depth == len(want)
            for c, (plus, minus) in zip(got.components, want):
                assert np.array_equal(c.plus, plus) and np.array_equal(c.minus, minus)
            assert got.leading_degree() == order

    @pytest.mark.parametrize("order", ["1/2", "-3/2", "0", "-7/3"])
    def test_scalar_multiple(self, rng, order):
        P = self.draw(rng, order, 3)
        for scalar in (2.5, -1j, 0.5 - 2j):
            got = scalar * P
            assert got.order == P.order and got.depth == P.depth
            for j, c in enumerate(got.components):
                ref = P.component(P.order - j)
                assert np.array_equal(c.plus, complex(scalar) * ref.plus)
                assert np.array_equal(c.minus, complex(scalar) * ref.minus)

    def test_leading_degree_is_order_minus_place(self, rng):
        P = self.draw(rng, "1/2", 4)
        zero = HomogeneousComponent(np.zeros_like(P.components[0].values))
        for place in range(4):
            comps = (zero,) * place + P.components[place:]
            assert ClassicalSymbol(P.order, comps).leading_degree() == Fraction(1, 2) - place
        assert ClassicalSymbol(P.order, (zero,) * 4).leading_degree() is None
        assert (P - P).leading_degree() is None
        # Subtracting the top component leaves the next one leading.
        top = ClassicalSymbol(P.order, P.components[:1]).pad_zeros(4)
        assert (P - top).leading_degree() == Fraction(-1, 2)


def full_grid_copy(sym):
    """sym with every component stored as a full (2, G, d, d) array."""
    return ClassicalSymbol(sym.order, tuple(
        HomogeneousComponent(np.array(c.values)) for c in sym.components))


def assert_same_bits(a, b):
    """Equal orders and depths, and equal component values, compared both
    as numbers and as C-order bytes (which also tells 0.0 from -0.0)."""
    assert a.order == b.order and a.depth == b.depth
    for ca, cb in zip(a.components, b.components):
        assert np.array_equal(ca.values, cb.values)
        assert (np.ascontiguousarray(ca.values).tobytes()
                == np.ascontiguousarray(cb.values).tobytes())


def one_row(c):
    return c.values.strides[1] == 0


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
            assert all(one_row(c) for c in new[0].components + new[1].components)

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
                assert all(one_row(c) for c in new.components)

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
        assert_same_bits(P.pad_zeros(7), Pf.pad_zeros(7))
        assert one_row_ladder(P + Q) == ("b" not in kinds_p + kinds_q)

    def test_constant_constructors_keep_one_row(self):
        gamma = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for sym in (identity_symbol(2, GRID, depth=3),
                    multiplication_symbol(gamma, GRID, depth=3),
                    derivative_symbol(2, GRID, gamma, depth=3),
                    derivative_symbol(2, GRID, gamma, depth=3, adjoint=True),
                    resolvent_parametrix(gamma, depth=3, dim=2, grid=GRID),
                    resolvent_parametrix(None, depth=3, dim=2, grid=GRID)):
            assert all(one_row(c) and not c.values.flags.writeable for c in sym.components)
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
            assert norms.tolist() == [c.sup_norm() for c in sym.components]

    def test_audit_takes_the_one_row_path(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        for _, sym in connection_difference_terms(lift, depth=6, grid=GRID):
            assert sym.stored.shape == (6, 2, 1, 5, 5) and one_row_ladder(sym)
            assert all(c.values.strides[1] == 0 for c in sym.components)

    def test_audit_symbol_does_not_depend_on_the_grid(self):
        lift = lift_curvature(cp2_fubini_study(), 2)
        coarse = connection_difference_symbol(lift, depth=6, grid=16)
        fine = connection_difference_symbol(lift, depth=6, grid=256)
        assert coarse.order == fine.order and coarse.depth == fine.depth
        for a, b in zip(coarse.components, fine.components):
            assert a.values[:, 0].tobytes() == b.values[:, 0].tobytes()


class TestComponentsDoNotChange:
    def test_later_write_to_the_base_does_not_reach_the_component(self):
        base = np.zeros((3, 2, 32, 1, 1), complex)
        c = HomogeneousComponent(base[0])
        sym = ClassicalSymbol(0, (c,))
        base[0, 0, 5] = 1
        assert not c.values.any() and not sym.ladder.any()

    def test_caller_array_stays_writeable(self):
        arr = np.zeros((2, GRID, 2, 2), complex)
        c = HomogeneousComponent(arr)
        arr[0, 3] = 1.0
        assert arr.flags.writeable and not c.values.any()
        assert not c.values.flags.writeable

    def test_broadcast_row_is_copied_as_one_row(self):
        row = np.zeros((2, 1, 2, 2), complex)
        c = HomogeneousComponent(np.broadcast_to(row, (2, GRID, 2, 2)))
        row[1, 0, 0, 1] = 1.0
        assert not c.values.any()
        assert c.values.shape == (2, GRID, 2, 2) and c.values.strides[1] == 0
        assert c.stored.nbytes == row.nbytes

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        arr = np.zeros((2, GRID, 1, 1), complex)
        view = arr[:]
        view.setflags(write=False)
        c = HomogeneousComponent(view)
        arr[0, 0] = 1.0
        assert not c.values.any()

    def test_library_producers_hand_over_without_a_copy(self, rng):
        P = random_symbol(rng, 0, 3, dim=2, grid=GRID)
        bases = {id(c.values.base) for c in P.components}
        assert len(bases) == 1 and P.components[0].values.base is not None
        frozen = np.zeros((2, GRID, 1, 1), complex)
        frozen.setflags(write=False)
        assert HomogeneousComponent(frozen).values is frozen

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
        P = ClassicalSymbol(order, random_symbol(rng, 0, 2, grid=GRID).components)
        assert P.order is order
        assert ClassicalSymbol(1, P.components).order == Fraction(1)

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

    @pytest.mark.parametrize("base", [cp2_fubini_study(), product_cp1(2, 3)], ids=["cp2", "cp1xcp1"])
    @pytest.mark.parametrize("k", [1, 2, -3])
    def test_symbol_matches_reference_kernel(self, reference_kernel, base, k):
        lift = lift_curvature(base, k)
        assert_same_symbol(*reference_kernel(
            lambda: connection_difference_symbol(lift, depth=6, grid=GRID)))

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
        assert orders.count(-2) == 2

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
        connection_difference_symbol(lift, depth=6, grid=GRID)
        assert psdo._terms.cache_info()[:2] == (1, 1)

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
