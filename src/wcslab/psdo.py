"""Classical pseudodifferential symbol calculus on the circle.

Matrix-valued symbols are stored as truncated ladders of homogeneous
components.  On S^1 the unit cosphere fiber is two points, so each component
is fully determined by its values at xi = +1 and xi = -1 on a uniform
periodic x-grid; this storage is exact.  A symbol holds its whole ladder as
one read-only array, `stored`: component j (degree order - j) at place j,
xi = +1 first.  A symbol never changes once built: it copies an argument
that could still be written.

A ladder whose every component is one grid row or zero is stored as one
grid row, (depth, 2, 1, d, d); otherwise `stored` is (depth, 2, G, d, d).
`ladder` has the full shape either way (a view with stride 0 on the grid
axis for a row), and `components` gives per-component views
(HomogeneousComponent); both are built on first use.  Multiplication
symbols of a constant matrix, the derivative symbol of a constant
connection, and every sum, multiple and product of such symbols are built
on the row alone.  +, -, scalar *, pad_zeros, sup_norms, leading_degree
and the residue act on the whole array.

Composition implements the 1-d asymptotic product
    sigma_{PQ} ~ sum_m ((-i)^m / m!) d_xi^m sigma_P  d_x^m sigma_Q,
with d_x by spectral differentiation and d_xi acting degree-wise.  One
kernel serves compose, parametrix and the commutator trace test: for each
(p, m) in lexicographic order it multiplies sigma_p by d_x^m of the whole Q
ladder in one batched matmul and adds the products into output rows p + m
onward, so every output degree gets its terms in the order p, then m, from
+0.  The x-derivatives of a ladder take one forward FFT and one inverse FFT
per m.  Terms that are exactly zero are skipped: those of a vanishing
component, d_x^m (m >= 1) of a component whose grid rows are all equal bit
for bit, and those of a zero falling factorial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
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


def _spread(rows: np.ndarray, grid: int) -> np.ndarray:
    """A C-contiguous array whose grid axis (third from last) has length 1 as
    a view of `grid` rows with stride 0 on that axis, read-only when rows is.
    (A direct ndarray over the buffer: np.broadcast_to costs several times
    more per call.)"""
    strides = rows.strides[:-3] + (0,) + rows.strides[-2:]
    return np.ndarray(rows.shape[:-3] + (grid,) + rows.shape[-2:], complex,
                      buffer=rows, strides=strides)


def _held(values: np.ndarray, grid_axis: int) -> np.ndarray:
    """values, or its one row when it has stride 0 on the grid axis, as a
    C-contiguous array that no one can write: the array itself when it
    already is one, a copy otherwise."""
    stored = values[(slice(None),) * grid_axis + (slice(0, 1),)] \
        if values.strides[grid_axis] == 0 else values
    if not (stored.flags.c_contiguous and _frozen(values)):
        stored = stored.copy()
        stored.setflags(write=False)
    return stored


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
        stored = _held(values, 1)
        object.__setattr__(self, "values", _spread(stored, g) if stored.shape[1] == 1 else stored)

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


@dataclass(frozen=True, init=False)
class ClassicalSymbol:
    """Truncated homogeneous expansion of a matrix-valued symbol: ladder[j],
    shape (2, G, d, d), is the component of degree order - j.

    Built from a sequence of HomogeneousComponent, or with from_ladder from
    one (depth, 2, G, d, d) array.  `stored` holds the ladder, read-only: its
    one grid row (depth, 2, 1, d, d) when every component is stored as a row
    or is exactly zero, all of it otherwise."""

    order: Fraction
    stored: np.ndarray  # (depth, 2, 1, d, d) or (depth, 2, G, d, d) complex, read-only
    grid: int

    def __init__(self, order, components):
        comps = tuple(components)
        if not comps:
            raise SymbolError("a symbol needs at least one component")
        shape = comps[0].values.shape
        if any(c.values.shape != shape for c in comps):
            raise SymbolError("components disagree on grid or fiber dimension")
        rows = all(c.values.strides[1] == 0 or not c.stored.any() for c in comps)
        self._hold(order, np.stack([c.stored[:, :1] if rows else c.values for c in comps]),
                   shape[1])

    def _hold(self, order, stored: np.ndarray, grid: int) -> None:
        """Keep a C-contiguous ladder that no one else can write, frozen in
        place."""
        stored.setflags(write=False)
        object.__setattr__(self, "order", order if isinstance(order, Fraction) else Fraction(order))
        object.__setattr__(self, "stored", stored)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _of(cls, order, stored: np.ndarray, grid: int) -> "ClassicalSymbol":
        """A symbol over a ladder this module has just made and holds no
        other reference to: kept without a copy or a check."""
        sym = object.__new__(cls)
        sym._hold(order, stored, grid)
        return sym

    @classmethod
    def from_ladder(cls, order, ladder) -> "ClassicalSymbol":
        """The symbol whose component of degree order - j is ladder[j], a
        (depth, 2, G, d, d) array.  The array is kept as HomogeneousComponent
        keeps its values: without a copy when no one can write it, as its
        one row when it has stride 0 on the grid axis."""
        values = np.asarray(ladder, dtype=complex)
        if values.ndim != 5 or values.shape[1] != 2 or values.shape[3] != values.shape[4]:
            raise SymbolError("ladder must have shape (depth, 2, G, d, d)")
        if not values.shape[0]:
            raise SymbolError("a symbol needs at least one component")
        _check_grid(values.shape[2])
        return cls._of(order, _held(values, 2), values.shape[2])

    @cached_property
    def ladder(self) -> np.ndarray:
        """The whole ladder, (depth, 2, G, d, d), read-only: a view with
        stride 0 on the grid axis when it is stored as one row."""
        stored = self.stored
        return _spread(stored, self.grid) if stored.shape[2] == 1 else stored

    @property
    def depth(self) -> int:
        return self.stored.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.stored.shape[3]

    @property
    def floor_degree(self) -> Fraction:
        return self.order - self.depth + 1

    @cached_property
    def components(self) -> tuple:
        """HomogeneousComponent views of the ladder, degrees order, order - 1, ..."""
        return tuple(HomogeneousComponent(values) for values in self.ladder)

    @cached_property
    def _live(self) -> tuple:
        """(nonzero, varying): the places of the components with a nonzero
        value, and of those whose grid rows differ from row 0 (bit for bit,
        so a -0.0 where row 0 has 0.0 counts).  The product kernel skips every
        term of a vanishing component, and the x-derivatives, exactly zero,
        of one that does not vary."""
        stored = self.stored
        nonzero = np.flatnonzero(stored.reshape(self.depth, -1).any(axis=1)).tolist()
        if stored.shape[2] == 1:
            return nonzero, []
        bits = stored.view(np.uint64)
        return nonzero, np.flatnonzero((bits != bits[:, :, :1]).reshape(self.depth, -1)
                                       .any(axis=1)).tolist()

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
        stored = self.stored
        zeros = np.zeros((depth - self.depth,) + stored.shape[1:], dtype=complex)
        return ClassicalSymbol._of(self.order, np.concatenate((stored, zeros)), self.grid)

    def sup_norms(self) -> np.ndarray:
        """Sup norm of each component, place 0 (degree order) first."""
        return np.abs(self.stored).reshape(self.depth, -1).max(axis=1)

    def leading_degree(self, tol: float = 1e-11):
        """Highest degree with a component above tol; None if all vanish."""
        above = np.flatnonzero(self.sup_norms() > tol)
        return self.order - int(above[0]) if above.size else None

    def _binary(self, other, f):
        if not isinstance(other, ClassicalSymbol):
            return NotImplemented
        if other.fiber_dim != self.fiber_dim or other.grid != self.grid:
            raise FiberMismatchError("fiber dimension or grid mismatch")
        shift = self.order - other.order
        if shift.denominator != 1:
            raise SymbolError("orders must differ by an integer to combine")
        # The result starts at the higher order and ends at the higher floor.
        tops = (max(-int(shift), 0), max(int(shift), 0))
        depth = min(tops[0] + self.depth, tops[1] + other.depth)

        def ladder(sym, top):  # sym's stored values at the result's places 0 .. depth - 1
            stored = sym.stored[: max(depth - top, 0)]
            if top == 0 and len(stored) == depth:
                return stored
            out = np.zeros((depth,) + stored.shape[1:], dtype=complex)
            out[top: top + len(stored)] = stored
            return out

        order = self.order if shift >= 0 else other.order
        return ClassicalSymbol._of(order, f(ladder(self, tops[0]), ladder(other, tops[1])),
                                   self.grid)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rmul__(self, scalar):
        return ClassicalSymbol._of(self.order, complex(scalar) * self.stored, self.grid)


def identity_symbol(dim: int = 1, grid: int = DEFAULT_GRID, depth: int = 1) -> ClassicalSymbol:
    return multiplication_symbol(np.eye(dim, dtype=complex), grid, depth)


def multiplication_symbol(value, grid: int = DEFAULT_GRID, depth: int = 1) -> ClassicalSymbol:
    """Symbol of a multiplication operator: one degree-0 component."""
    value = np.asarray(value, dtype=complex)
    if value.ndim == 0:
        value = value.reshape(1, 1)
    arr = _as_grid_matrix(value, grid, value.shape[-1])
    ladder = np.zeros((max(depth, 1), 2) + arr.shape, dtype=complex)
    ladder[0] = arr
    return ClassicalSymbol._of(Fraction(0), ladder, grid)


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
    ladder = np.zeros((max(depth, 2), 2) + g.shape, dtype=complex)
    ladder[0] = np.stack((lead * eye, -lead * eye))
    ladder[1] = g
    return ClassicalSymbol._of(Fraction(1), ladder, grid)


@cache
def _wavenumbers(grid: int) -> np.ndarray:
    """The integer wavenumbers of a periodic grid, in FFT order (read-only)."""
    freqs = np.fft.fftfreq(grid, d=1.0 / grid)
    freqs.setflags(write=False)
    return freqs


def _derivatives(Q: ClassicalSymbol, depth: int) -> list:
    """table[m] = (d_x^m of components 0 .. depth - 1 - m of Q, live), where
    live lists the places q whose terms are not exactly zero: the nonzero
    components for m = 0, the components that vary in x for m >= 1 (on
    constant input pocketfft's non-zero frequency bins are exactly 0.0).  The
    table ends after the last m with a live place.  The varying components
    are differentiated spectrally on the periodic grid, with one forward FFT
    of the ladder down to the last of them and one inverse FFT per m."""
    stored = Q.stored[:depth]
    nonzero, varying = Q._live
    table = [(stored, [q for q in nonzero if q < depth])]
    varying = [q for q in varying if q < depth - 1]
    if varying:
        top = varying[-1] + 1
        hat = np.fft.fft(stored[:top], axis=2)
        freqs = _wavenumbers(Q.grid)
        for m in range(1, depth - varying[0]):
            rows = min(top, depth - m)
            table.append((np.fft.ifft(hat[:rows] * ((1j * freqs) ** m)[:, None, None], axis=2),
                          [q for q in varying if q < rows]))
    return table


@lru_cache(maxsize=1024)
def _scale(m: int, fall: float) -> np.ndarray:
    """((-i)^m / m!) times the falling factorial `fall` and the sign of d_xi^m
    at xi = +1 and xi = -1, shaped to broadcast over (2, G, d, d) (read-only)."""
    scale = ((-1j) ** m / factorial(m) * fall * np.array([1.0, (-1.0) ** m]))[:, None, None, None]
    scale.setflags(write=False)
    return scale


def _add_products(acc: np.ndarray, lo: int, order: Fraction, left: np.ndarray, first: int,
                  dQ: list) -> None:
    """The product kernel.  Adds to acc[j - lo], for lo <= j < lo + len(acc),
    the terms ((-i)^m / m!) d_xi^m sigma_p d_x^m sigma_q with p + m + q = j,
    for sigma_p = left[p - first], components first, first + 1, ... of a
    ladder of order `order`, and d_x^m sigma_q from the table of
    `_derivatives`.  d_xi^m carries (-1)^m at xi = -1 and the falling
    factorial of the degree order - p.  For each (p, m) in lexicographic
    order the live q of every row in range are one batched matmul.  Terms
    that are exactly zero are skipped: those of a vanishing sigma_p, of a
    place that is not live, and of a zero falling factorial."""
    den = order.denominator
    rows = len(acc)
    nonzero = left.reshape(len(left), -1).any(axis=1).tolist()
    for p, sigma in enumerate(left, start=first):
        if not nonzero[p - first]:
            continue
        # float(order - p - t) for each factor, as exact integer arithmetic
        num = order.numerator - p * den
        fall = 1.0
        for m, (dq, live) in enumerate(dQ):
            if m:
                fall *= (num - (m - 1) * den) / den
            if fall == 0.0:
                break  # degree is an integer in [0, m): every later m vanishes too
            shift = p + m - lo  # output row of q = 0
            q = [q for q in live if -shift <= q < rows - shift]
            if not q:
                continue
            if q[-1] - q[0] == len(q) - 1:
                q = slice(q[0], q[-1] + 1)
                out = slice(q.start + shift, q.stop + shift)
            else:
                out = [i + shift for i in q]
            acc[out] += _scale(m, fall) * np.matmul(sigma, dq[q])


def _product(P: ClassicalSymbol, Q: ClassicalSymbol, lo: int, hi: int) -> np.ndarray:
    """Components lo .. hi - 1 of the asymptotic product PQ, one array: one
    grid row when both ladders are, (hi - lo, 2, G, d, d) otherwise."""
    dQ = _derivatives(Q, hi)
    grid = max(P.stored.shape[2], dQ[0][0].shape[2])
    acc = np.zeros((hi - lo, 2, grid) + (P.fiber_dim,) * 2, dtype=complex)
    _add_products(acc, lo, P.order, P.stored[:hi], 0, dQ)
    return acc


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
    return ClassicalSymbol._of(P.order + Q.order, _product(P, Q, 0, depth), P.grid)


def wodzicki_residue(P: ClassicalSymbol) -> complex:
    """(1/2pi) * integral over S*S^1 of tr sigma_{-1}.

    The cosphere fiber contributes the two points xi = +-1; the x-integral
    is the trapezoid rule, spectrally exact on the periodic grid.
    """
    j = P.order + 1  # the place of degree -1
    if j.denominator != 1 or j < 0 or j >= P.depth:
        if j.denominator == 1 and j >= 0 and P.floor_degree > -1:
            raise InsufficientDepthError(
                f"degree -1 lies below the truncation floor {P.floor_degree}"
            )
        return 0.0 + 0.0j
    integrand = np.trace(P.ladder[int(j)], axis1=2, axis2=3).sum(axis=0)  # plus + minus
    return complex(np.mean(integrand))


def parametrix(A: ClassicalSymbol, depth: int) -> ClassicalSymbol:
    """Left parametrix B of an elliptic symbol A, truncated at `depth`
    components: compose(B, A) equals the identity modulo components of
    degree <= -depth.

    b_0 = a_0^{-1}; each later b_j solves the degree -j part of the product
    for b_j a_0, so b_j = -(sum of the other terms) a_0^{-1}.  The leading
    component a_0 must be invertible at xi = +1 and xi = -1 on every grid
    point.  As soon as b_j is known its terms are added to every later
    degree, so each degree gets its terms in the order of compose.  A ladder
    stored as one row is inverted and solved on that row.
    """
    if depth < 1:
        raise SymbolError("depth must be >= 1")
    if depth > A.depth:
        raise TruncationError(
            f"requested depth {depth} exceeds available {A.depth} "
            f"(deficit {depth - A.depth})"
        )
    dA = _derivatives(A, depth)
    inverses = []
    for side, values in zip(("+1", "-1"), dA[0][0][0]):  # a_0, as the kernel reads it
        try:
            inverses.append(np.linalg.inv(values))
        except np.linalg.LinAlgError:
            raise SymbolError(f"leading component is singular at xi = {side}") from None
    a0inv = np.stack(inverses)
    order = -A.order
    b = np.zeros((depth,) + a0inv.shape, dtype=complex)  # the other terms, then b_j
    b[0] = a0inv
    for j in range(1, depth):
        _add_products(b[j:], j, order, b[j - 1: j], j - 1, dA)  # the terms of b_{j-1}
        b[j] = -np.matmul(b[j], a0inv)
    return ClassicalSymbol._of(order, b, A.grid)


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
    return parametrix(laplacian_plus_one_symbol(gamma, grid=grid, depth=depth), depth)


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
    values.setflags(write=False)  # so the components view the ladder without a copy
    return ClassicalSymbol._of(Fraction(order), values.reshape(rows // 2, 2, grid, dim, dim), grid)


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
    only row j of PQ and of QP is formed.  Below j = 0 the residue is
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
            diff = _product(P, Q, j, j + 1) - _product(Q, P, j, j + 1)
            residue = wodzicki_residue(ClassicalSymbol._of(Fraction(-1), diff, grid))
            worst = max(worst, abs(residue))
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

    # Every product below is truncated at `depth`, so D and the
    # multiplications are built at that depth too.
    B = resolvent_parametrix(Gamma.astype(complex), depth=depth, dim=5, grid=grid)
    D = derivative_symbol(5, grid, Gamma.astype(complex), depth=depth)

    def mult(mat):
        return multiplication_symbol(mat.astype(complex), grid, depth=depth)

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
    connection difference; None for identically zero terms.

    The orders depend on the surface only through k: the terms read only
    curvature with a gamma_dot slot, which on a lift depends on k alone, so
    every catalog surface gives the same terms bit for bit."""
    out = []
    for name, sym in connection_difference_terms(lift, depth, grid):
        deg = sym.leading_degree()
        out.append((name, None if deg is None else int(deg)))
    return out


def connection_difference_symbol(lift, depth: int = 6, grid: int = DEFAULT_GRID) -> ClassicalSymbol:
    """Sum of the six terms: the full difference of the two connections."""
    (_, first), *rest = connection_difference_terms(lift, depth, grid)
    return sum((sym for _, sym in rest), first)
