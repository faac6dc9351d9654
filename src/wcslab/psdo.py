"""Classical pseudodifferential symbol calculus on the circle.

Matrix-valued symbols are stored as truncated ladders of homogeneous
components.  On S^1 the unit cosphere fiber is two points, so each component
is fully determined by its values at xi = +1 and xi = -1 on a uniform
periodic x-grid; this storage is exact.  A component holds those values as
one read-only (2, G, d, d) array, xi = +1 first.  It does not hold its
degree: in a symbol of order r, component j has degree r - j.  A component
never changes once built: it copies an argument that could still be written.

A component constant in x is stored as its one grid row: `values` is then a
read-only view of that row with stride 0 on the grid axis, so it still has
the shape (2, G, d, d).  Multiplication symbols of a constant matrix, the
derivative symbol of a constant connection, and every sum, multiple and
product of such symbols are built on the row alone.

Composition implements the 1-d asymptotic product
    sigma_{PQ} ~ sum_m ((-i)^m / m!) d_xi^m sigma_P  d_x^m sigma_Q,
with d_x by spectral differentiation and d_xi acting degree-wise.  Inside
the product kernel a component that is constant in x (stored as one row, or
a full array whose grid rows all equal row 0 bit for bit) is carried as that
one row, which matmul broadcasts against the grid, and its x-derivatives are
exact zeros that are never formed.  A degree whose every term is one row is
summed on one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import factorial

import numpy as np

__all__ = [
    "HomogeneousComponent",
    "ClassicalSymbol",
    "SymbolError",
    "FiberMismatchError",
    "TruncationError",
    "InsufficientDepthError",
    "identity_symbol",
    "multiplication_symbol",
    "derivative_symbol",
    "compose",
    "wodzicki_residue",
    "parametrix",
    "resolvent_parametrix",
    "random_symbol",
    "commutator_trace_test",
    "connection_difference_terms",
    "connection_difference_order_audit",
    "connection_difference_symbol",
    "DEFAULT_GRID",
    "MIN_TRACE_TEST_DEPTH",
]

DEFAULT_GRID = 64

#: commutator_trace_test draws orders op, oq in [-2, 1]; the residue of
#: [P, Q] reads its component j = op + oq + 1 <= 3, so it needs depth >= 4.
MIN_TRACE_TEST_DEPTH = 4


class SymbolError(ValueError):
    pass


class FiberMismatchError(SymbolError):
    pass


class TruncationError(SymbolError):
    """Requested depth exceeds what the stored components support."""


class InsufficientDepthError(SymbolError):
    """Degree -1 lies below the truncation floor of the expansion."""


def _as_grid_matrix(value, grid: int, dim: int) -> np.ndarray:
    """A matrix function on the grid, (grid, d, d); a constant (d, d) matrix
    becomes its one row, (1, d, d), a shape that is also accepted as is."""
    arr = np.asarray(value, dtype=complex)
    if arr.shape == (dim, dim):
        arr = arr[None]
    if arr.shape not in ((1, dim, dim), (grid, dim, dim)):
        raise SymbolError(f"component values must have shape ({grid},{dim},{dim}) "
                          f"or ({dim},{dim})")
    return np.ascontiguousarray(arr)


def _check_grid(grid: int) -> None:
    if grid < 16 or (grid & (grid - 1)) != 0:
        raise SymbolError("grid size must be a power of two >= 16")


def _frozen(arr: np.ndarray) -> bool:
    """True when neither arr nor the array that owns its memory can be
    written, so no one can change it later."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _spread(row: np.ndarray, grid: int) -> np.ndarray:
    """A C-contiguous (2, 1, d, d) row as a (2, grid, d, d) view with stride 0
    on the grid axis, read-only when the row is.  (A direct ndarray over the
    row's buffer: np.broadcast_to costs several times more per call.)"""
    s0, _, s2, s3 = row.strides
    return np.ndarray((2, grid) + row.shape[2:], complex, buffer=row, strides=(s0, 0, s2, s3))


def _component(values: np.ndarray, grid: int) -> "HomogeneousComponent":
    """A component over an array this module has just made and holds no
    other reference to: frozen in place, so the constructor keeps it without
    a copy, and a (2, 1, d, d) row is spread over the grid."""
    values = np.ascontiguousarray(values)
    values.setflags(write=False)
    if values.shape[1] == 1:
        values = _spread(values, grid)
    return HomogeneousComponent(values)


@dataclass(frozen=True)
class HomogeneousComponent:
    """One homogeneous piece, stored at the two cosphere points: values[0]
    at xi = +1 and values[1] at xi = -1, each on the (G, d, d) grid.  Its
    degree is its symbol's order minus its place in the ladder.

    values is read-only and never changes.  An argument that could still be
    written (it, or the array owning its memory, is writeable) is copied, so
    the caller's array stays writeable and later writes to it do not reach
    the component.  An argument with stride 0 on the grid axis (one row seen
    G times, as np.broadcast_to makes) is kept as that one row."""

    values: np.ndarray  # (2, G, d, d) complex, read-only

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 4 or values.shape[0] != 2 or values.shape[2] != values.shape[3]:
            raise SymbolError("component values must have shape (2, G, d, d)")
        g = values.shape[1]
        _check_grid(g)
        stored = values[:, :1] if values.strides[1] == 0 else values
        if not (stored.flags.c_contiguous and _frozen(values)):
            stored = stored.copy()
            stored.setflags(write=False)
            values = _spread(stored, g) if stored.shape[1] == 1 else stored
        object.__setattr__(self, "values", values)

    @property
    def plus(self) -> np.ndarray:
        return self.values[0]

    @property
    def minus(self) -> np.ndarray:
        return self.values[1]

    @property
    def grid(self) -> int:
        return self.values.shape[1]

    @property
    def fiber_dim(self) -> int:
        return self.values.shape[2]

    @property
    def stored(self) -> np.ndarray:
        """The values held: the one row (2, 1, d, d) of a component stored as
        a row, values itself otherwise.  Broadcasts as values does."""
        values = self.values
        return values[:, :1] if values.strides[1] == 0 else values

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.stored)))

    @cached_property
    def stacked(self) -> np.ndarray | None:
        """values as the product kernel reads them: shape (2, 1, d, d) when
        the component is stored as one row or every grid row equals row 0 bit
        for bit, (2, G, d, d) otherwise, and None when both sides are exactly
        zero (the padding that pad_zeros adds), so every term it enters is
        exactly zero."""
        values = self.stored
        if not values.any():
            return None
        if values.shape[1] == 1:
            return values
        bits = values.view(np.uint64)
        return values[:, :1] if (bits == bits[:, :1]).all() else values


@dataclass(frozen=True)
class ClassicalSymbol:
    """Truncated homogeneous expansion of a matrix-valued symbol: component
    j has degree order - j."""

    order: Fraction
    components: tuple  # HomogeneousComponent, degrees order, order-1, ...

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise SymbolError("a symbol needs at least one component")
        if any(c.values.shape != comps[0].values.shape for c in comps):
            raise SymbolError("components disagree on grid or fiber dimension")
        if not isinstance(self.order, Fraction):
            object.__setattr__(self, "order", Fraction(self.order))
        object.__setattr__(self, "components", comps)

    @property
    def depth(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> int:
        return self.components[0].grid

    @property
    def fiber_dim(self) -> int:
        return self.components[0].fiber_dim

    @property
    def floor_degree(self) -> Fraction:
        return self.order - self.depth + 1

    def component(self, degree) -> HomogeneousComponent | None:
        degree = Fraction(degree)
        j = self.order - degree
        if j.denominator != 1 or j < 0 or j >= self.depth:
            return None
        return self.components[int(j)]

    def pad_zeros(self, depth: int) -> "ClassicalSymbol":
        """Extend the ladder with exact-zero components.

        Only valid for symbols whose expansion genuinely terminates
        (multiplication and differential operators).
        """
        if depth <= self.depth:
            return self
        zero = _component(np.zeros((2, 1) + (self.fiber_dim,) * 2, dtype=complex), self.grid)
        return ClassicalSymbol(self.order, self.components + (zero,) * (depth - self.depth))

    def leading_degree(self, tol: float = 1e-11):
        """Highest degree with a component above tol; None if all vanish."""
        for j, c in enumerate(self.components):
            if c.sup_norm() > tol:
                return self.order - j
        return None

    def _binary(self, other, f):
        if not isinstance(other, ClassicalSymbol):
            return NotImplemented
        if other.fiber_dim != self.fiber_dim or other.grid != self.grid:
            raise FiberMismatchError("fiber dimension or grid mismatch")
        if (self.order - other.order).denominator != 1:
            raise SymbolError("orders must differ by an integer to combine")
        order = max(self.order, other.order)
        depth = int(order - max(self.floor_degree, other.floor_degree)) + 1
        zero = np.zeros((2, 1) + (self.fiber_dim,) * 2, dtype=complex)

        def ladder(sym):  # sym's stored values at the result's places 0 .. depth - 1
            return ([zero] * int(order - sym.order) + [c.stored for c in sym.components])[:depth]

        return ClassicalSymbol(order, tuple(
            _component(f(a, b), self.grid) for a, b in zip(ladder(self), ladder(other))
        ))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rmul__(self, scalar):
        scalar = complex(scalar)
        return ClassicalSymbol(
            self.order, tuple(_component(scalar * c.stored, self.grid) for c in self.components)
        )


def identity_symbol(dim: int = 1, grid: int = DEFAULT_GRID, depth: int = 1) -> ClassicalSymbol:
    return multiplication_symbol(np.eye(dim, dtype=complex), grid, depth)


def multiplication_symbol(value, grid: int = DEFAULT_GRID, depth: int = 1) -> ClassicalSymbol:
    """Symbol of a multiplication operator: one degree-0 component."""
    value = np.asarray(value, dtype=complex)
    if value.ndim == 0:
        value = value.reshape(1, 1)
    dim = value.shape[-1]
    arr = _as_grid_matrix(value, grid, dim)
    sym = ClassicalSymbol(Fraction(0), (_component(np.stack((arr, arr)), grid),))
    return sym.pad_zeros(depth)


def derivative_symbol(
    dim: int = 1,
    grid: int = DEFAULT_GRID,
    gamma=None,
    depth: int = 2,
    adjoint: bool = False,
) -> ClassicalSymbol:
    """Symbol of D = d/dx + Gamma(x), or of its formal adjoint."""
    eye = np.eye(dim, dtype=complex)[None]
    g = (np.zeros((1, dim, dim), dtype=complex) if gamma is None
         else _as_grid_matrix(gamma, grid, dim))
    lead = -1j if adjoint else 1j
    if adjoint:
        g = np.conjugate(np.transpose(g, (0, 2, 1)))
    sym = ClassicalSymbol(
        Fraction(1),
        (
            _component(np.stack((lead * eye, -lead * eye)), grid),
            _component(np.stack((g, g)), grid),
        ),
    )
    return sym.pad_zeros(depth)


def _derivatives(components, depth: int) -> list:
    """table[q][m] = d_x^m of components[q] for q + m < depth, in the shape of
    HomogeneousComponent.stacked; table[q] is None for a component that
    vanishes.  A component constant in x keeps its one grid row, and its
    derivatives m >= 1 are None: they are exactly zero (on constant input
    pocketfft's non-zero frequency bins are exactly 0.0).  Every other
    component is differentiated spectrally on the periodic grid, with one
    forward FFT."""
    table = []
    for q, c in enumerate(components[:depth]):
        values = c.stacked
        if values is None:
            table.append(None)
        elif values.shape[1] == 1:
            table.append([values] + [None] * (depth - q - 1))
        else:
            hat = np.fft.fft(values, axis=1) if depth - q > 1 else None
            freqs = _wavenumbers(c.grid)
            table.append([values] + [
                np.fft.ifft(hat * ((1j * freqs) ** m)[:, None, None], axis=1)
                for m in range(1, depth - q)
            ])
    return table


def _product_term(order: Fraction, P_components, dQ: list, j: int) -> np.ndarray:
    """Component j of the asymptotic product: the sum over p + m + q = j of
    ((-i)^m / m!) d_xi^m sigma_p d_x^m sigma_q, p ranging over P_components, a
    ladder of order `order`.  d_xi^m carries (-1)^m at xi = -1 and the falling
    factorial of the degree order - p of sigma_p.  Terms that are exactly zero
    (a vanishing sigma_p, sigma_q or d_x^m sigma_q, or a zero falling
    factorial) are skipped; a one-row factor broadcasts over the grid.  The
    sum is one row, (2, 1, d, d), while every term is, and (2, G, d, d) from
    the first full-grid term on; every grid row gets the same additions in
    the same order as a full-grid sum."""
    acc = np.zeros((2, 1) + P_components[0].values.shape[2:], dtype=complex)
    den = order.denominator
    for p, cp in enumerate(P_components[: j + 1]):
        left = cp.stacked
        if left is None:
            continue
        # float(order - p - t) for each factor, as exact integer arithmetic
        num = order.numerator - p * den
        fall = 1.0
        for m in range(j - p + 1):
            if m:
                fall *= (num - (m - 1) * den) / den
            if fall == 0.0:
                break  # degree is an integer in [0, m): every later m vanishes too
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


@cache
def _wavenumbers(grid: int) -> np.ndarray:
    """The integer wavenumbers of a periodic grid, in FFT order (read-only)."""
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    freqs.setflags(write=False)
    return freqs


def compose(P: ClassicalSymbol, Q: ClassicalSymbol, depth: int | None = None) -> ClassicalSymbol:
    """Asymptotic product of two symbols, truncated at `depth` components.

    The result is only trustworthy down to min(P.depth, Q.depth) components;
    asking for more raises TruncationError with the deficit.
    """
    if P.fiber_dim != Q.fiber_dim or P.grid != Q.grid:
        raise FiberMismatchError("fiber dimension or grid mismatch")
    available = min(P.depth, Q.depth)
    if depth is None:
        depth = available
    if depth < 1:
        raise SymbolError("depth must be >= 1")
    if depth > available:
        raise TruncationError(
            f"requested depth {depth} exceeds available {available} "
            f"(deficit {depth - available})"
        )
    order = P.order + Q.order
    dQ = _derivatives(Q.components, depth)
    comps = tuple(
        _component(_product_term(P.order, P.components, dQ, j), P.grid) for j in range(depth)
    )
    return ClassicalSymbol(order, comps)


def wodzicki_residue(P: ClassicalSymbol) -> complex:
    """(1/2pi) * integral over S*S^1 of tr sigma_{-1}.

    The cosphere fiber contributes the two points xi = +-1; the x-integral
    is the trapezoid rule, spectrally exact on the periodic grid.
    """
    comp = P.component(Fraction(-1))
    if comp is None:
        representable = (P.order + 1).denominator == 1 and P.order >= -1
        if representable and P.floor_degree > -1:
            raise InsufficientDepthError(
                f"degree -1 lies below the truncation floor {P.floor_degree}"
            )
        return 0.0 + 0.0j
    integrand = np.trace(comp.values, axis1=2, axis2=3).sum(axis=0)  # plus + minus
    return complex(np.mean(integrand))


def parametrix(A: ClassicalSymbol, depth: int) -> ClassicalSymbol:
    """Left parametrix B of an elliptic symbol A, truncated at `depth`
    components: compose(B, A) equals the identity modulo components of
    degree <= -depth.

    b_0 = a_0^{-1}; each later b_j solves the degree -j part of the product
    for b_j a_0, so b_j = -(sum of the other terms) a_0^{-1}.  The leading
    component a_0 must be invertible at xi = +1 and xi = -1 on every grid
    point.  A leading component constant in x is inverted once per side,
    and each b_j whose terms are all constant in x is built on one row.
    """
    if depth < 1:
        raise SymbolError("depth must be >= 1")
    if depth > A.depth:
        raise TruncationError(
            f"requested depth {depth} exceeds available {A.depth} "
            f"(deficit {depth - A.depth})"
        )
    lead = A.components[0].stacked
    if lead is None:
        lead = np.zeros((2, 1, A.fiber_dim, A.fiber_dim))
    inverses = []
    for side, values in zip(("+1", "-1"), lead):
        try:
            inverses.append(np.linalg.inv(values))
        except np.linalg.LinAlgError:
            raise SymbolError(f"leading component is singular at xi = {side}") from None
    a0inv = np.stack(inverses)
    dA = _derivatives(A.components, depth)
    b = [_component(a0inv, A.grid)]
    for j in range(1, depth):
        b.append(_component(-np.matmul(_product_term(-A.order, b, dA, j), a0inv), A.grid))
    return ClassicalSymbol(-A.order, tuple(b))


def resolvent_parametrix(gamma=None, depth: int = 2, dim: int | None = None,
                         grid: int = DEFAULT_GRID) -> ClassicalSymbol:
    """Parametrix symbol B of 1 + D*D with D = d/dx + Gamma(x).

    compose(B, symbol(1 + D*D)) equals the identity modulo components of
    degree <= -depth - 2; the recursion solves degree by degree.
    """
    if depth < 2:
        raise SymbolError("depth must be >= 2")
    if gamma is None:
        gamma = np.zeros((1 if dim is None else dim,) * 2)
    elif dim is not None:
        gamma = _as_grid_matrix(gamma, grid, dim)
    return parametrix(laplacian_plus_one_symbol(gamma, grid=grid, depth=depth + 2), depth)


def laplacian_plus_one_symbol(gamma, grid: int = DEFAULT_GRID, depth: int = 4) -> ClassicalSymbol:
    """Symbol of 1 + D*D assembled by composing D* and D in the calculus."""
    gamma_arr = np.asarray(gamma, dtype=complex)
    dim = gamma_arr.shape[-1]
    gamma_arr = _as_grid_matrix(gamma_arr, grid, dim)
    D = derivative_symbol(dim, grid, gamma_arr, depth=depth)
    Dstar = derivative_symbol(dim, grid, gamma_arr, depth=depth, adjoint=True)
    A = compose(Dstar, D, depth)
    one = multiplication_symbol(np.eye(dim, dtype=complex), grid, depth=depth)
    return A + one


def _symbol_draws(rng: np.random.Generator, depth: int, dim: int, modes: int = 3) -> np.ndarray:
    """Every normal a random symbol of `depth` components reads, in one draw
    and in the order of sequential per-matrix draws: row (plus, minus per
    degree), term (constant, then a_n, b_n per mode), real before imaginary
    part."""
    return rng.standard_normal((2 * depth, 1 + 2 * modes, 2, dim, dim))


def _band_limited_symbol(draws: np.ndarray, order: int, grid: int) -> ClassicalSymbol:
    """The symbol of the given order whose components are built from the
    draw rows in pairs (plus, minus).  Each row is built on its own, so the
    first 2k rows give, bit for bit, the first k components of all of them."""
    rows, _, _, dim, _ = draws.shape
    modes = (draws.shape[1] - 1) // 2
    x = 2.0 * np.pi * np.arange(grid) / grid
    terms = draws[:, :, 0] + 1j * draws[:, :, 1]
    values = np.zeros((rows, grid, dim, dim), dtype=complex)
    values += terms[:, None, 0]
    for n in range(1, modes + 1):
        values += np.cos(n * x)[:, None, None] * terms[:, None, 2 * n - 1] / n
        values += np.sin(n * x)[:, None, None] * terms[:, None, 2 * n] / n
    values.setflags(write=False)  # so each component keeps its slice without a copy
    comps = tuple(HomogeneousComponent(v) for v in values.reshape(rows // 2, 2, grid, dim, dim))
    return ClassicalSymbol(Fraction(order), comps)


def random_symbol(rng: np.random.Generator, order: int, depth: int,
                  dim: int = 2, grid: int = DEFAULT_GRID, modes: int = 3) -> ClassicalSymbol:
    """Seeded random classical symbol with band-limited x-dependence."""
    return _band_limited_symbol(_symbol_draws(rng, depth, dim, modes), order, grid)


def commutator_trace_test(seed: int, trials: int, depth: int = 6,
                          grid: int = DEFAULT_GRID) -> float:
    """Max |res[P, Q]| over seeded random symbol pairs; the residue is a
    trace, so the exact value is 0 for every pair.

    Each trial draws every normal of two random symbols of `depth`
    components, so the generator's stream does not depend on what is read.
    The residue reads component j = op + oq + 1 (degree -1) of [P, Q] only,
    and that reads components 0..j of P and Q: only those are built, and
    only component j of PQ and of QP is formed.  Below j = 0 the residue is
    exactly 0 and nothing is built.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < MIN_TRACE_TEST_DEPTH:
        raise ValueError(f"depth must be >= {MIN_TRACE_TEST_DEPTH}")
    _check_grid(grid)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        op = int(rng.integers(-2, 2))
        oq = int(rng.integers(-2, 2))
        p_draws = _symbol_draws(rng, depth, dim)
        q_draws = _symbol_draws(rng, depth, dim)
        j = op + oq + 1
        if j >= 0:
            P = _band_limited_symbol(p_draws[: 2 * (j + 1)], op, grid)
            Q = _band_limited_symbol(q_draws[: 2 * (j + 1)], oq, grid)
            pq = _product_term(P.order, P.components, _derivatives(Q.components, j + 1), j)
            qp = _product_term(Q.order, Q.components, _derivatives(P.components, j + 1), j)
            diff = _component(pq - qp, grid)
            worst = max(worst, abs(wodzicki_residue(ClassicalSymbol(-1, (diff,)))))
    return worst


# ---------------------------------------------------------------------------
# Order audit of the s=1 / L^2 connection difference along fiber orbits
# ---------------------------------------------------------------------------


def connection_difference_terms(lift, depth: int = 6, grid: int = DEFAULT_GRID):
    """The six bracketed terms of the connection difference as symbols.

    Assembled along the fiber orbit in the adapted frame, with the variable
    field in the Y slot, X = e2 and gamma_dot = xi.  Returns a list of
    (name, ClassicalSymbol).
    """
    comp5 = lift.curvature5.comp
    k = lift.k
    gdot = np.eye(5)[0]
    X = np.eye(5)[1]
    # Orbit connection coefficient in the adapted frame: (k/2) J on the
    # horizontal block.  Only the orders of the audited terms are
    # insensitive to this convention; individual values are reported as
    # convention-dependent.
    Gamma = np.zeros((5, 5))
    Gamma[1:, 1:] = 0.5 * k * lift.base.J.matrix

    # Endomorphism of the pair (X, gdot):  Z -> R(X, gdot) Z
    E_Xg = np.einsum("i,m,imjl->lj", X, gdot, comp5)
    # Y -> R(Y, gdot) X
    N = np.einsum("a,m,jaml->lj", gdot, X, comp5)
    Z0 = Gamma @ X  # covariant derivative of X along the orbit
    # Y -> R(Y, gdot) Z0
    M4 = np.einsum("a,m,jaml->lj", gdot, Z0, comp5)
    # Z -> R(X, Z) gdot
    P_free = np.einsum("i,a,ijal->lj", X, gdot, comp5)
    # Z -> R(Z0, Z) gdot
    M6 = np.einsum("i,a,ijal->lj", Z0, gdot, comp5)

    B = resolvent_parametrix(Gamma.astype(complex), depth=depth, dim=5, grid=grid)
    D = derivative_symbol(5, grid, Gamma.astype(complex), depth=depth + 2)

    def mult(mat):
        return multiplication_symbol(mat.astype(complex), grid, depth=depth + 2)

    BD = compose(B, D)
    half = 0.5
    terms = [
        ("resolvent[covderiv(curv(X,gdot)Y)]", -half, compose(BD, mult(E_Xg))),
        ("resolvent[curv(X,gdot)covderiv(Y)]", -half, compose(compose(B, mult(E_Xg)), D)),
        ("resolvent[covderiv(curv(Y,gdot)X)]", -half, compose(BD, mult(N))),
        ("resolvent[curv(Y,gdot)covderiv(X)]", -half, compose(B, mult(M4))),
        ("resolvent[curv(X,covderiv(Y))gdot]", +half, compose(compose(B, mult(P_free)), D)),
        ("resolvent[curv(covderiv(X),Y)gdot]", -half, compose(B, mult(M6))),
    ]
    return [(name, float(c) * sym) for name, c, sym in terms]


def connection_difference_order_audit(lift, depth: int = 6, grid: int = DEFAULT_GRID):
    """Highest nonvanishing homogeneity degree of each term of the
    connection difference; None for identically zero terms."""
    out = []
    for name, sym in connection_difference_terms(lift, depth, grid):
        deg = sym.leading_degree()
        out.append((name, None if deg is None else int(deg)))
    return out


def connection_difference_symbol(lift, depth: int = 6, grid: int = DEFAULT_GRID) -> ClassicalSymbol:
    """Sum of the six terms: the full difference of the two connections."""
    (_, first), *rest = connection_difference_terms(lift, depth, grid)
    return sum((sym for _, sym in rest), first)
