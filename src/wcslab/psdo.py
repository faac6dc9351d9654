"""Classical pseudodifferential symbol calculus on the circle.

Matrix-valued symbols are stored as truncated ladders of homogeneous
components.  On S^1 the unit cosphere fiber is two points, so each component
is fully determined by its values at xi = +1 and xi = -1 on a uniform
periodic x-grid; this storage is exact.  A symbol holds its whole ladder as
one read-only array, `stored`: component j (degree order - j) at place j,
xi = +1 first.  A symbol never changes once built: it copies an argument
that could still be written.  ClassicalSymbol.from_ladder is the one
public constructor.

A ladder given with stride 0 on the grid axis is stored as one grid row,
(depth, 2, 1, d, d); otherwise `stored` is (depth, 2, G, d, d).  `ladder`
has the full shape either way (a view with stride 0 on the grid axis for a
row), built on first use.  Multiplication symbols of a constant matrix, the
derivative symbol of a constant connection, and every sum, multiple and
product of such symbols are built on the row alone.  +, -, scalar *,
sup_norms, leading_degree and the residue act on the whole array.

Composition implements the 1-d asymptotic product
    sigma_{PQ} ~ sum_m ((-i)^m / m!) d_xi^m sigma_P  d_x^m sigma_Q,
with d_x by spectral differentiation and d_xi acting degree-wise.  One
kernel, `_add_products`, serves compose and parametrix.  For each (p, m)
in lexicographic order it multiplies sigma_p by d_x^m of the whole
right-hand ladder in one batched matmul and adds the products into output
rows p + m onward, so every output degree gets its terms in the order p,
then m, from +0.  The x-derivatives of a ladder take one forward FFT and
one inverse FFT per m.  Terms that are exactly zero are skipped: those of a
vanishing component, d_x^m (m >= 1) of a component whose grid rows are all
equal bit for bit, and those of a zero falling factorial.

One routine, `band_limited_values`, evaluates every band-limited symbol
t_0 + sum_n (cos(n x) a_n + sin(n x) b_n) s_n: a symbol file's sides, their
terms in file order (specfiles), and the random symbols, s_n = 1 / n.

The commutator trace test reads only the trace of one row of PQ and of QP,
so it forms no matrix product: over the stack [Q, P] (one stack axis after
the place axis, one order per element) it adds, per (p, m) in the kernel's
order, the trace of each term as one einsum (`_commutator_traces`), with
the kernel's derivative table and scales, which also take stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from fractions import Fraction
from math import factorial

import numpy as np

from .geometry import _is_int

__all__ = [
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

_LEADING_TOL = 1e-11  # the sup norm above which a component counts as nonzero


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


@dataclass(frozen=True, eq=False, init=False)
class ClassicalSymbol:
    """Truncated homogeneous expansion of a matrix-valued symbol: ladder[j],
    shape (2, G, d, d), is the component of degree order - j.

    Built with from_ladder from one (depth, 2, G, d, d) array.  `stored`
    holds the ladder, read-only: its one grid row (depth, 2, 1, d, d) when
    the ladder was given or made as one row, all of it otherwise."""

    order: Fraction
    stored: np.ndarray  # (depth, 2, 1, d, d) or (depth, 2, G, d, d) complex, read-only
    grid: int

    @classmethod
    def _of(cls, order, stored: np.ndarray, grid: int) -> "ClassicalSymbol":
        """A symbol over a C-contiguous ladder that no one else can write,
        such as one this module has just made and holds no other reference
        to: frozen in place and kept without a copy or a check."""
        stored.setflags(write=False)
        sym = object.__new__(cls)
        object.__setattr__(sym, "order", order if isinstance(order, Fraction) else Fraction(order))
        object.__setattr__(sym, "stored", stored)
        object.__setattr__(sym, "grid", grid)
        return sym

    @classmethod
    def from_ladder(cls, order, ladder) -> "ClassicalSymbol":
        """The symbol whose component of degree order - j is ladder[j], a
        (depth, 2, G, d, d) array.

        An array that no one can write (neither it nor the array owning its
        memory) is kept without a copy.  One that could still be written is
        copied, so it stays writeable and later writes to it do not reach
        the symbol.  An array with stride 0 on the grid axis (one row seen G
        times, as np.broadcast_to makes) is kept as that one row."""
        values = np.asarray(ladder, dtype=complex)
        if values.ndim != 5 or values.shape[1] != 2 or values.shape[3] != values.shape[4]:
            raise SymbolError("ladder must have shape (depth, 2, G, d, d)")
        if not values.shape[0]:
            raise SymbolError("a symbol needs at least one component")
        grid = values.shape[2]
        _check_grid(grid)
        stored = values[:, :, :1] if values.strides[2] == 0 else values
        if not (stored.flags.c_contiguous and _frozen(values)):
            stored = stored.copy()
        return cls._of(order, stored, grid)

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

    @property
    def components(self) -> tuple:
        """ladder[0], ladder[1], ...: one (2, G, d, d) view per place.
        Only the benchmark tracer reads it (perfbench/spans.py,
        Tracer._after_compose, counts len(result.components)); once that
        counts result.depth, delete this."""
        return tuple(self.ladder)

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

    def sup_norms(self) -> np.ndarray:
        """Sup norm of each component, place 0 (degree order) first."""
        return np.abs(self.stored).reshape(self.depth, -1).max(axis=1)

    def leading_degree(self):
        """Highest degree with a component whose sup norm is above
        _LEADING_TOL (1e-11); None if all vanish."""
        place, = _leading_places(self.sup_norms()[None])
        return None if place is None else self.order - place

    def _binary(self, other, f):
        if not isinstance(other, ClassicalSymbol):
            return NotImplemented
        order, (a, b) = _aligned((self, other))
        return ClassicalSymbol._of(order, f(a, b), self.grid)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rmul__(self, scalar):
        return ClassicalSymbol._of(self.order, complex(scalar) * self.stored, self.grid)


def _leading_places(norms: np.ndarray) -> list:
    """Per row of (terms, depth) sup norms, the first place above _LEADING_TOL, or None."""
    above = norms > _LEADING_TOL
    return [place if row[place] else None
            for row, place in zip(above.tolist(), above.argmax(axis=1).tolist())]


def _aligned(syms) -> tuple:
    """(order, ladders): the order of syms[0] + syms[1] + ..., and each
    symbol's stored values at that sum's places.  The sum starts at the
    highest order and ends at the highest floor.  A ladder is the symbol's
    `stored` itself when it fills those places, and otherwise a fresh array
    with exact zeros (+0.0) at the places it does not reach, the zeros the
    sum adds there.

    Integer orders are shifted as ints: a Fraction operation costs about a
    microsecond, more than the sum of small ladders.
    """
    first = syms[0]
    for sym in syms[1:]:
        if sym.fiber_dim != first.fiber_dim or sym.grid != first.grid:
            raise FiberMismatchError("fiber dimension or grid mismatch")
    orders = [sym.order for sym in syms]
    if all(order.denominator == 1 for order in orders):
        orders = [order.numerator for order in orders]
    top = max(orders)
    shifts = [top - order for order in orders]
    if any(shift.denominator != 1 for shift in shifts):
        raise SymbolError("orders must differ by an integer to combine")
    shifts = [int(shift) for shift in shifts]
    depth = min(shift + sym.depth for shift, sym in zip(shifts, syms))
    ladders = []
    for shift, sym in zip(shifts, syms):
        stored = sym.stored[: max(depth - shift, 0)]
        if shift or len(stored) < depth:
            placed = np.zeros((depth,) + stored.shape[1:], dtype=complex)
            placed[shift: shift + len(stored)] = stored
            stored = placed
        ladders.append(stored)
    return syms[orders.index(top)].order, ladders


def _sum(syms) -> ClassicalSymbol:
    """syms[0] + syms[1] + ..., two or more symbols, with every bit of that
    chain of +, from one alignment: the aligned ladders are added into one
    array in term order, starting from the first ladder (a start from zeros
    would turn its -0.0 into +0.0)."""
    order, ladders = _aligned(syms)
    total = ladders[0] + ladders[1]
    for ladder in ladders[2:]:
        if ladder.shape[2] > total.shape[2]:
            total = total + ladder  # a full grid after one-row ladders
        else:
            total += ladder
    return ClassicalSymbol._of(order, total, syms[0].grid)


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


def _derivatives(stored: np.ndarray, live: tuple, depth: int) -> list:
    """table[m] = (d_x^m of places 0 .. depth - 1 - m of `stored`, live),
    for a (depth, 2, G, d, d) ladder or a (depth, S, 2, G, d, d) stack of S
    ladders: places on axis 0, grid on axis -3.  `live` is
    (nonzero, varying), the places that hold a nonzero value and those whose
    grid rows differ (ClassicalSymbol._live), and the live list of table[m]
    holds the places whose terms are not exactly zero: the nonzero ones for
    m = 0, the varying ones for m >= 1 (on constant input pocketfft's
    non-zero frequency bins are exactly 0.0).  The table ends after the last
    m with a live place.  The varying places are differentiated spectrally
    on the periodic grid, with one forward FFT of the ladder down to the
    last of them and one inverse FFT per m."""
    stored = stored[:depth]
    nonzero, varying = live
    table = [(stored, [q for q in nonzero if q < depth])]
    varying = [q for q in varying if q < depth - 1]
    if varying:
        top = varying[-1] + 1
        hat = np.fft.fft(stored[:top], axis=-3)
        freqs = _wavenumbers(stored.shape[-3])
        for m in range(1, depth - varying[0]):
            rows = min(top, depth - m)
            table.append((np.fft.ifft(hat[:rows] * ((1j * freqs) ** m)[:, None, None], axis=-3),
                          [q for q in varying if q < rows]))
    return table


@lru_cache(maxsize=1024)
def _scales(orders: tuple, p: int, count: int) -> tuple:
    """For m < count, ((-i)^m / m!) times the falling factorial of the degree
    order - p and the sign of d_xi^m at xi = +-1, one per (numerator,
    denominator) pair in `orders`: (S, 2, 1, 1, 1), read-only.  It stops at
    the first m where every falling factorial is zero (each degree is an
    integer in [0, m)): every later m vanishes too."""
    falls = [1.0] * len(orders)
    scales = []
    for m in range(count):
        if m:
            # float(order - p - (m - 1)) for each factor, as exact integer arithmetic
            falls = [f * ((num - p * den - (m - 1) * den) / den)
                     for f, (num, den) in zip(falls, orders)]
        if not any(falls):
            break
        sign = np.array([1.0, (-1.0) ** m])
        scale = np.stack([(-1j) ** m / factorial(m) * f * sign for f in falls])[:, :, None, None, None]
        scale.setflags(write=False)
        scales.append(scale)
    return tuple(scales)


def _add_products(acc: np.ndarray, lo: int, order: tuple, left: np.ndarray,
                  first: int, dQ: list) -> None:
    """The product kernel of compose and parametrix.  Adds to acc[j - lo],
    lo <= j < lo + len(acc), the terms ((-i)^m / m!) d_xi^m sigma_p d_x^m
    sigma_q with p + m + q = j, for sigma_p = left[p - first] (places first,
    first + 1, ...) of order `order`, a (numerator, denominator) pair, and
    d_x^m sigma_q from the table of `_derivatives`, with the scales of
    `_scales`.  For each (p, m) in lexicographic order the live q of every
    row in range are one batched matmul.  Exactly zero terms are skipped:
    those of a vanishing sigma_p, of a place that is not live, and of a zero
    falling factorial."""
    rows = len(acc)
    nonzero = left.any(axis=tuple(range(1, left.ndim))).tolist()
    for p, sigma in enumerate(left, start=first):
        if not nonzero[p - first]:
            continue
        for m, scale in enumerate(_scales((order,), p, len(dQ))):
            dq, live = dQ[m]
            shift = p + m - lo  # output row of q = 0
            q = [q for q in live if -shift <= q < rows - shift]
            if not q:
                continue
            if q[-1] - q[0] == len(q) - 1:
                q = slice(q[0], q[-1] + 1)
                out = slice(q.start + shift, q.stop + shift)
            else:
                out = [i + shift for i in q]
            acc[out] += scale * np.matmul(sigma, dq[q])


def _check_depth(depth: int, available: int) -> None:
    """A truncation depth is at least 1 and at most the `available` depth."""
    if depth < 1:
        raise SymbolError("depth must be >= 1")
    if depth > available:
        raise TruncationError(
            f"requested depth {depth} exceeds available {available} "
            f"(deficit {depth - available})"
        )


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
    _check_depth(depth, available)
    dQ = _derivatives(Q.stored, Q._live, depth)
    grid = max(P.stored.shape[2], dQ[0][0].shape[-3])  # one row when both ladders are
    acc = np.zeros((depth, 2, grid) + (P.fiber_dim,) * 2, dtype=complex)
    order = (P.order.numerator, P.order.denominator)
    _add_products(acc, 0, order, P.stored[:depth], 0, dQ)
    return ClassicalSymbol._of(P.order + Q.order, acc, P.grid)


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
    with np.errstate(over="ignore", invalid="ignore"):  # the caller refuses inf, nan
        return _residue(np.trace(P.ladder[int(j)], axis1=2, axis2=3))


def _residue(traces: np.ndarray) -> complex:
    """The residue from the traces of a degree -1 component, (2, G) with
    xi = +1 first: summed over xi = +-1, averaged over the grid."""
    return complex(np.mean(traces.sum(axis=0)))


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
    _check_depth(depth, A.depth)
    dA = _derivatives(A.stored, A._live, depth)
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
        # the terms of b_{j-1}
        _add_products(b[j:], j, (order.numerator, order.denominator), b[j - 1: j], j - 1, dA)
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


@lru_cache(maxsize=256)
def _wave(wave: str, n: int, grid: int) -> np.ndarray:
    """cos(n x) or sin(n x) on the grid x = 2 pi g / G, read-only; ("cos", 0)
    is a constant's row of ones, and a phase past the float range gives NaN."""
    row = (np.cos if wave == "cos" else np.sin)(n * (2.0 * np.pi * np.arange(grid) / grid))
    row.setflags(write=False)
    return row


def band_limited_values(coefficients: np.ndarray, terms, scales, grid: int) -> np.ndarray:
    """sum_t (w_t(x) C_t) s_t, read-only (..., grid, d, d), for the complex
    C_t = coefficients[..., t, :, :], the wave w_t of terms[t] = (wave, n)
    (`_wave`) and the real s_t = scales[t].  Each part (re, im) of a term is
    (w_t c) s_t, added in the order of t from +0.0, with no warning: the
    complex sum's values, but for signs of zero that the +0.0 drops."""
    coef = np.ascontiguousarray(coefficients, dtype=complex)
    lead, (count, dim) = coef.shape[:-3], coef.shape[-3:-1]
    parts = coef.view(float).reshape(-1, count, 2 * dim * dim, 1)  # (rows, term, 2 d d, 1)
    total = np.zeros((len(parts), 2 * dim * dim, grid))  # the grid last: long inner loops
    term = np.empty_like(total)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, ((wave, n), scale) in enumerate(zip(terms, scales)):
            np.multiply(_wave(wave, n, grid), parts[:, t], out=term)
            term *= scale
            total += term
    values = np.ascontiguousarray(total.transpose(0, 2, 1))
    values.setflags(write=False)  # so no one can change a symbol built on it
    return values.view(complex).reshape(lead + (grid, dim, dim))


def _band_limited_ladders(draws: np.ndarray, grid: int) -> np.ndarray:
    """t_0 + sum_n (cos(n x) a_n + sin(n x) b_n) / n, t = re + 1j im, for each
    row of `draws`, (..., 1 + 2 modes, 2, d, d) normals: (..., grid, d, d),
    read-only, by `band_limited_values`; each row on its own, bit for bit."""
    modes = range(1, (draws.shape[-4] + 1) // 2)
    terms = [("cos", 0)] + [(w, n) for n in modes for w in ("cos", "sin")]
    return band_limited_values(draws[..., 0, :, :] + 1j * draws[..., 1, :, :], terms,
                               [1.0 / max(n, 1) for _, n in terms], grid)


def _band_limited_symbol(draws: np.ndarray, order: int, grid: int) -> ClassicalSymbol:
    """The symbol of the given order whose components are built from the
    draw rows in pairs (plus, minus): the first 2k rows give, bit for bit,
    the first k components of all of them."""
    pairs = draws.reshape((len(draws) // 2, 2) + draws.shape[1:])
    return ClassicalSymbol._of(Fraction(order), _band_limited_ladders(pairs, grid), grid)


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
    and that reads components 0..j of P and Q.  Below j = 0 the residue is
    exactly 0 and nothing is built.  Otherwise P and Q are built as one
    stack [Q, P], and one derivative table and one walk over it give the
    trace of row j of PQ and of QP at each point, without forming the
    matrices (`_commutator_traces`), reduced as a residue by `_residue`.
    Each residue's absolute value is Python's abs (np.abs can miss an ulp).

    The result is the max over trials of |wodzicki_residue(compose(P, Q) -
    compose(Q, P))| up to rounding: each trial's value agrees with that one
    within 8 eps S, where S is the same trace sum taken over absolute values
    (the tests hold this bound).  The two sum the same terms in another
    order, so their bits can differ.
    """
    for name, value in (("seed", seed), ("trials", trials), ("depth", depth)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
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
            traces = _commutator_traces(op, oq, p_draws, q_draws, j, grid)
            worst = max(worst, abs(_residue(traces[0] - traces[1])))
    return worst


def _commutator_traces(op: int, oq: int, p_draws: np.ndarray, q_draws: np.ndarray,
                       j: int, grid: int) -> np.ndarray:
    """The traces of row j of PQ (element 0) and of QP (element 1) at each
    point, (2, 2, G), with xi = +1 first.

    One build makes the stack [Q, P] of their components 0..j; read
    backwards it is [P, Q].  One derivative table of the stack serves both
    products.  For each (p, m) in the product kernel's order, with
    q = j - p - m, the trace of sigma_p d_x^m sigma_q is one einsum over the
    stack, times the kernel's scale, so no matrix product is formed."""
    rows = np.stack([d[: 2 * (j + 1)].reshape(j + 1, 2, *d.shape[1:]) for d in (q_draws, p_draws)],
                    axis=1)
    ladders = _band_limited_ladders(rows, grid)  # (j + 1, 2, 2, G, d, d)
    every = list(range(j + 1))  # random and band-limited: every place is nonzero and varies
    dQ = _derivatives(ladders, (every, every), j + 1)
    left = ladders[:, ::-1]
    traces = np.zeros((2, 2, grid), dtype=complex)
    for p in range(j + 1):
        for m, scale in enumerate(_scales(((op, 1), (oq, 1)), p, j + 1 - p)):
            terms = np.einsum("esgik,esgki->esg", left[p], dQ[m][0][j - p - m])
            traces += scale[:, :, :, 0, 0] * terms
    return traces


# ---------------------------------------------------------------------------
# Order audit of the s=1 / L^2 connection difference along fiber orbits
# ---------------------------------------------------------------------------


def connection_difference_terms(lift, depth: int = 6, grid: int = DEFAULT_GRID):
    """The six bracketed terms of the connection difference as symbols.

    Assembled along the fiber orbit in the adapted frame (xi, e2, Je2, e3,
    Je3), with the variable field in the Y slot, X = e2 and gamma_dot = xi.
    Returns a fresh list of (name, ClassicalSymbol).

    The build reads the lift only through six 5x5 matrices: Gamma = (k/2) J
    and the curvature endomorphisms E_Xg, N, P_free, M4 and M6 of
    `_orbit_matrices`.  The symbols are built once per (those six matrices,
    depth, grid) per process, keyed by the matrices' bytes, and kept in a
    bounded cache (`_terms`); a repeat, such as the audit followed by the
    summed symbol, or another surface with the same matrices, shares the
    read-only symbols of the first build, bit for bit.  A build that raises
    is not kept.
    """
    return _terms_for(lift, _E2, depth, grid)


#: The field X = e2 of the adapted frame (xi, e2, Je2, e3, Je3).
_E2 = np.eye(5)[1]
_E2.setflags(write=False)


def _terms_for(lift, X: np.ndarray, depth: int, grid: int) -> list:
    """connection_difference_terms with the field X, a 5-vector in the
    adapted frame.  X enters E_Xg, N and P_free, and M4 and M6 through
    Z0 = Gamma X."""
    return list(_terms(_orbit_matrices(lift, X).tobytes(), depth, grid))


def _orbit_matrices(lift, X: np.ndarray) -> np.ndarray:
    """Gamma, E_Xg, N, P_free, M4 and M6 of the field X, (6, 5, 5): all
    that the terms read of the lift.

    gamma_dot = xi is e0, so each endomorphism reads one slice of the
    curvature, R[:, 0] (gamma_dot in the second slot) or R[:, :, 0] (in the
    third), contracted with X or with Z0 = Gamma X.  The three contractions
    in use are laid side by side in one (5, 75) array and multiplied by the
    stack (X, Z0) in one matmul.  M[l, j] is
        E_Xg    sum_i X_i R[i, 0, j, l]     Z -> R(X, gdot) Z
        N       sum_m X_m R[j, 0, m, l]     Y -> R(Y, gdot) X
        P_free  sum_i X_i R[i, j, 0, l]     Z -> R(X, Z) gdot
        M4      sum_m Z0_m R[j, 0, m, l]    Y -> R(Y, gdot) Z0
        M6      sum_i Z0_i R[i, j, 0, l]    Z -> R(Z0, Z) gdot
    On a lift each of these sums has at most one nonzero term, since a
    component with exactly one vertical slot vanishes.
    """
    comp5 = lift.curvature5.comp
    # Orbit connection coefficient in the adapted frame: (k/2) J on the
    # horizontal block.  Only the orders of the audited terms are
    # insensitive to this convention; individual values are reported as
    # convention-dependent.
    mats = np.zeros((6, 5, 5))
    mats[0, 1:, 1:] = 0.5 * lift.k * lift.base.J.matrix
    XZ = np.array((X, mats[0] @ X))  # Z0: the covariant derivative of X along the orbit
    slices = np.concatenate((comp5[:, 0].transpose(0, 2, 1),      # [i, l, j] = R[i, 0, j, l]
                             comp5[:, 0].transpose(1, 2, 0),      # [m, l, j] = R[j, 0, m, l]
                             comp5[:, :, 0].transpose(0, 2, 1)),  # [i, l, j] = R[i, j, 0, l]
                            axis=1)
    products = (XZ @ slices.reshape(5, 75)).reshape(2, 3, 5, 5)
    mats[1:4] = products[0]     # E_Xg, N, P_free
    mats[4:] = products[1, 1:]  # M4, M6
    return mats


@lru_cache(maxsize=64)
def _terms(key: bytes, depth: int, grid: int) -> tuple:
    """The six (name, symbol) pairs of connection_difference_terms, built
    from the float64 5x5 matrices Gamma, E_Xg, N, P_free, M4 and M6 whose
    bytes, in that order, are `key`: everything the build reads, so equal
    keys give the same symbols bit for bit.  An entry holds six one-row
    ladders, about 30 KB at depth 6."""
    _check_grid(grid)
    Gamma, E_Xg, N, P_free, M4, M6 = np.frombuffer(key).reshape(6, 5, 5)
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
    return tuple((name, float(c) * sym) for name, c, sym in terms)


def connection_difference_order_audit(lift, depth: int = 6, grid: int = DEFAULT_GRID):
    """Highest nonvanishing homogeneity degree of each term of the
    connection difference, as `leading_degree` finds it (an int here);
    None for identically zero terms.  The six ladders, all built at
    `depth` as one grid row, are stacked and read in one sup-norm pass.

    The orders depend on the surface only through k: the terms read only
    curvature with a gamma_dot slot, which on a lift depends on k alone, so
    every catalog surface gives the same terms bit for bit."""
    terms = connection_difference_terms(lift, depth, grid)
    values = np.abs(np.stack([sym.stored for _, sym in terms])).reshape(len(terms), depth, -1)
    return [(name, None if place is None else int(sym.order) - place)
            for (name, sym), place in zip(terms, _leading_places(values.max(axis=2)))]


def connection_difference_symbol(lift, depth: int = 6, grid: int = DEFAULT_GRID) -> ClassicalSymbol:
    """Sum of the six terms: the full difference of the two connections.

    The six ladders are aligned once and added into one array in term
    order, with every bit of the chain of + over the terms."""
    return _sum([sym for _, sym in connection_difference_terms(lift, depth, grid)])
