"""Wodzicki-Chern-Simons densities, integrals and pi_1(Diff) verdicts.

Two independent routes compute the density of the 5-form pulled back to the
bundle total space: a closed form in the base curvature, and a signed
permutation sum over curvature endomorphisms.  A single calibration
constant, 1 / FIBER_LENGTH (the value that makes them agree on the flat
torus), relates the two; agreement on the curved catalog surfaces is the
correctness gate for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import factorial

import numpy as np

from .catalog import KahlerSurface
from .geometry import LEVI_CIVITA, RiemannTensor, _is_int, pontrjagin_density
from .sasaki import FIBER_LENGTH, SasakiLift, _level_power, lift_parts

__all__ = [
    "Verdict",
    "WcsDensity",
    "Pi1Verdict",
    "density_closed_form",
    "density_permutation",
    "permutation_density_raw",
    "prop39_bound",
    "iterate_value",
    "decide_pi1",
    "decide_levels",
    "calibration_constant",
    "CURVATURE_TERMS",
    "VERDICT_ATOL_FACTOR",
]

#: Curvature combination in the closed-form density: coefficient and the
#: component indices in the adapted frame (e2, Je2, e3, Je3) = (0, 1, 2, 3).
CURVATURE_TERMS = (
    (3.0, (0, 1, 2, 3)),
    (-1.0, (0, 2, 0, 2)),
    (-1.0, (0, 3, 0, 3)),
    (1.0, (0, 1, 0, 1)),
    (1.0, (2, 3, 2, 3)),
)

#: The |R|_inf coefficient of the prop-3.9 bound: 32 x (sum of |coefficients|
#: of the five curvature terms) = 224, since 32 k^2 |B| <= 224 k^2 |R|_inf.
_PROP39_MIDDLE = 32.0 * sum(abs(c) for c, _ in CURVATURE_TERMS)

#: Zero threshold for verdicts: |integral| > atol_factor * total_volume.
VERDICT_ATOL_FACTOR = 1e-9


class Verdict(str, Enum):
    INFINITE_ORDER = "INFINITE_ORDER"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class WcsDensity:
    surface: str
    k: int
    value_closed: float
    value_permutation: float
    calibration_constant: float

    @property
    def route_agreement(self) -> float:
        return abs(self.value_permutation - self.value_closed) / max(
            1.0, abs(self.value_closed)
        )


@dataclass(frozen=True)
class Pi1Verdict:
    surface: str
    k: int
    integral: float | None
    prop39_lhs: float
    prop39_holds: bool
    verdict: Verdict
    rationale: str
    #: Both density routes on the lift that decided the verdict; None for a
    #: bounds-only surface.
    densities: WcsDensity | None


def _closed_form_terms(R: RiemannTensor) -> tuple[float, float]:
    """The k-independent inputs of the closed form: p1(R) and B."""
    return pontrjagin_density(R), sum(c * R.comp[idx] for c, idx in CURVATURE_TERMS)


def _closed_form(p1: float, B: float, k: int) -> float:
    k2 = _level_power(k, 2)
    return (k2 / 30.0) * (32.0 * np.pi**2 * p1 + 32.0 * k2 * B + 192.0 * _level_power(k, 4))


def density_closed_form(lift: SasakiLift) -> float:
    """Closed-form density of the pulled-back 5-form on the frame
    (xi, e2, Je2, e3, Je3):

        (k^2/30) { 32 pi^2 p1(R) + 32 k^2 B + 192 k^4 }

    with B the five-term curvature combination of CURVATURE_TERMS.
    """
    return _closed_form(*_closed_form_terms(lift.base.require_curvature()), lift.k)


#: The permutation sum as one Levi-Civita contraction over stacks of A and
#: E: out[x, y(, z)] takes A from stack entry x and the E slots from
#: entries y (and z).  The paths are the ones numpy's greedy search picks
#: for a stack of one; fixed here, no call pays for the search, and a stack
#: of two does not get the far slower path the search would pick for it.
_PERMUTATION_SUBSCRIPTS = {3: "abc,xalj,ybcjl->xy", 5: "abcde,xalj,ybcjk,zdekl->xyz"}
_PERMUTATION_PATHS = {
    3: ["einsum_path", (0, 2), (0, 1)],
    5: ["einsum_path", (0, 2), (1, 2), (0, 1)],
}


def _permutation_sums(comps: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """The permutation sums of a stack of curvature arrays comps[s] in their
    own frame along gdot: sum_sigma sgn(sigma) tr[A_s1 E_s2s3 (E_s4s5)]
    for every choice of stack entry per slot."""
    # A[s,a][l,j] = gdot^m R_s[a,j,m,l];  E[s,a,b][l,k] = R_s[a,b,k,l]
    A = np.einsum("m,sajml->salj", gdot, comps)
    E = comps.swapaxes(-1, -2)
    dim = comps.shape[-1]
    return np.einsum(_PERMUTATION_SUBSCRIPTS[dim], LEVI_CIVITA[dim], A,
                     *[E] * (dim // 2), optimize=_PERMUTATION_PATHS[dim])


def permutation_density_raw(R: RiemannTensor, loop_speed: np.ndarray) -> float:
    """Signed permutation sum over curvature endomorphisms, uncalibrated,
    in the tensor's own frame (e_1, ..., e_n) along gamma_dot = loop_speed.

    For dim(M) = 2k-1, returns

        (4/(2k-1)!) sum_sigma sgn(sigma)
            tr[ A(e_s1) B(e_s2, e_s3) ... B(e_s(2k-2), e_s(2k-1)) ]
        * FIBER_LENGTH

    where A(X): Y -> R(X,Y) gamma_dot and B(X,Y): Z -> R(X,Y)Z.  The
    integrand is frame-constant along the loop, so the circle integral is
    the pointwise value times FIBER_LENGTH.  To use another oriented
    frame, rotate R and loop_speed into it: the value is the same.
    """
    dim = R.dim
    if dim not in (3, 5):
        raise ValueError("permutation density supports dims 3 and 5 only")
    gdot = np.asarray(loop_speed, dtype=float)
    if gdot.shape != (dim,):
        raise ValueError("loop speed dimension mismatch")

    total = _permutation_sums(R.comp[None], gdot).item()
    return (4.0 / factorial(dim)) * total * FIBER_LENGTH


def calibration_constant() -> float:
    """Single constant relating the permutation and closed-form routes:
    1 / FIBER_LENGTH, the value that makes them agree on the flat torus at
    k = 1 (tests/test_wcs.py fits it there).

    Never refit per surface.  A value of 1 would indicate fully matched
    conventions; any positive value preserves vanishing and signs, hence
    all verdicts.
    """
    return 1.0 / FIBER_LENGTH


def density_permutation(lift: SasakiLift) -> float:
    """Calibrated permutation-route density on the lift, in the lift's frame
    (xi, e2, Je2, e3, Je3) along the fiber orbit: `iterate_value` at n = 1."""
    return iterate_value(lift, 1)


def prop39_bound(sigma: int, volume: float, r_inf: float, k: int) -> tuple[float, bool]:
    """Sufficient-condition left-hand side and its strict positivity:

        k^2 ( 96 pi^2 sigma - 224 k^2 |R|_inf vol + 192 k^4 vol )

    with 224 = `_PROP39_MIDDLE`, 32 x (sum of |coefficients| of
    CURVATURE_TERMS).  A k that is not an int or a numpy integer, or is a
    bool, raises ValueError.
    """
    if not _is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    if volume <= 0:
        raise ValueError("volume must be positive")
    if r_inf < 0:
        raise ValueError("r_inf must be nonnegative")
    k2 = _level_power(k, 2)
    lhs = k2 * (
        96.0 * np.pi**2 * sigma
        - _PROP39_MIDDLE * k2 * r_inf * volume
        + 192.0 * _level_power(k, 2, k2) * volume
    )
    return lhs, lhs > 0.0


def iterate_value(lift: SasakiLift, n: int) -> float:
    """Permutation route on the reparametrized orbit theta -> gamma(n theta).

    The loop speed scales by n while the parameter interval is unchanged,
    so the value is n times the n = 1 value, `density_permutation`.  n must
    be a positive int or numpy integer, not a bool.
    """
    if not _is_int(n) or n <= 0:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    raw = permutation_density_raw(lift.curvature5, float(n) * np.eye(5)[0])
    return calibration_constant() * raw


#: The slot choices of the cubic's 2 x 2 x 2 sums that take R1 in m slots,
#: one mask per power m of k^2.
_CUBIC_MASKS = tuple(np.indices((2, 2, 2)).sum(axis=0) == m for m in range(4))


def _permutation_cubic(parts: tuple[RiemannTensor, RiemannTensor]) -> list[float]:
    """Coefficients c_0 .. c_3 of the raw permutation sum along xi at the
    lift R0 + k^2 R1, a cubic in k^2.

    The sum is trilinear in the lift, so c_m sums the 2^3 slot choices
    that take R1 in m slots and R0 in the rest, from the permutation sums
    of the stack (R0, R1) in the lift's frame along xi = e_0.
    """
    sums = _permutation_sums(np.stack([part.comp for part in parts]), np.eye(5)[0])
    return [sums[mask].sum() for mask in _CUBIC_MASKS]


class _CurvatureKey:
    """A curvature surface, equal to and hashed as the bytes of its
    curvature components and its J: all that the sweep terms read of it.
    Both arrays are frozen float64, 4x4 for J and d^4 for the curvature,
    so equal bytes are equal arrays."""

    __slots__ = ("surface", "_bytes")

    def __init__(self, surface: KahlerSurface):
        self.surface = surface
        self._bytes = (surface.curvature.comp.tobytes(), surface.J.matrix.tobytes())

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __eq__(self, other) -> bool:
        return isinstance(other, _CurvatureKey) and self._bytes == other._bytes


@lru_cache(maxsize=256)
def _sweep_terms(key: _CurvatureKey) -> tuple[float, ...]:
    """(p1, B, c0, c1, c2, c3) of a curvature surface as Python floats,
    once per distinct (curvature, J) per process.  A miss builds and checks
    the lift polynomial of the surface it was called with; a failed check
    raises and is not cached."""
    cubic = _permutation_cubic(lift_parts(key.surface))
    return tuple(map(float, (*_closed_form_terms(key.surface.curvature), *cubic)))


def decide_levels(surface: KahlerSurface, ks) -> list[Pi1Verdict]:
    """Whether the fiber-rotation loop has infinite order, at each level in ks.

    The lift polynomial (R0, R1) is built and checked, p1 and B are read,
    and the permutation route's cubic in k^2 is contracted once per
    distinct (curvature, J) per process; each level then costs scalar
    arithmetic.  The first sweep of a curvature pays for these terms; a
    repeat reads them.  The name, volume, signature and r_inf are read per
    call.  The closed form is evaluated as `density_closed_form` evaluates
    it.  Each level is checked as an int by `prop39_bound`, read first.  A
    bounds-only surface is decided by the prop-3.9 condition, and its
    verdicts carry no densities.

    The level arithmetic runs on Python floats, as the terms are kept.
    numpy float64 would do the same IEEE operations on the same doubles,
    so the results are the same bits, at several times the cost of each
    operation.
    """
    if surface.curvature_known:
        p1, B, c0, c1, c2, c3 = _sweep_terms(_CurvatureKey(surface))
        calibration = calibration_constant()
        total_volume = FIBER_LENGTH * surface.volume
    verdicts = []
    # Finite inputs can still pass the float range (a density times a
    # volume); the emitter refuses the non-finite row, so numpy's warning
    # would only add lines to stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ks:
            prop_lhs, prop_holds = prop39_bound(
                surface.signature, surface.volume, surface.r_inf, k
            )
            densities = integral = None
            if surface.curvature_known:
                k2 = _level_power(k, 2)
                total = c0 + k2 * (c1 + k2 * (c2 + k2 * c3))
                densities = WcsDensity(
                    surface=surface.name,
                    k=k,
                    value_closed=_closed_form(p1, B, k),
                    value_permutation=calibration * ((4.0 / factorial(5)) * total * FIBER_LENGTH),
                    calibration_constant=calibration,
                )
                integral = densities.value_closed * total_volume if k else 0.0
            if k == 0:
                prop_holds = infinite = False
                rationale = ("k = 0: the invariant carries no information for the "
                             "trivial bundle M x S^1")
            elif densities is not None:
                atol = VERDICT_ATOL_FACTOR * total_volume
                infinite = abs(integral) > atol
                rationale = (f"exact integral {integral:.6g} is nonzero (threshold {atol:.3g})"
                             if infinite else f"exact integral vanishes within threshold {atol:.3g}")
            else:
                infinite = prop_holds
                rationale = (f"bounds mode: sufficient positivity condition "
                             f"{'holds' if prop_holds else 'fails'} (lhs = {prop_lhs:.6g})")
            verdicts.append(Pi1Verdict(
                surface=surface.name,
                k=k,
                integral=integral,
                prop39_lhs=prop_lhs,
                prop39_holds=prop_holds,
                verdict=Verdict.INFINITE_ORDER if infinite else Verdict.INCONCLUSIVE,
                rationale=rationale,
                densities=densities,
            ))
    return verdicts


def decide_pi1(surface: KahlerSurface, k: int) -> Pi1Verdict:
    """The verdict at one level: `decide_levels` on [k]."""
    return decide_levels(surface, [k])[0]
