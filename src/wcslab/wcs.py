"""Wodzicki-Chern-Simons densities, integrals and pi_1(Diff) verdicts.

Two independent routes compute the density of the 5-form pulled back to the
bundle total space: a closed form in the base curvature, and a signed
permutation sum over curvature endomorphisms.  A single calibration
constant, fixed once on the flat torus, relates the two; agreement on the
curved catalog surfaces is the correctness gate for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import factorial

import numpy as np

from .catalog import KahlerSurface, flat_torus
from .geometry import LEVI_CIVITA, OrthonormalFrame, RiemannTensor, pontrjagin_density
from .sasaki import FIBER_LENGTH, SasakiLift, lift_curvature, lift_parts

__all__ = [
    "Verdict",
    "WcsDensity",
    "Pi1Verdict",
    "density_closed_form",
    "density_permutation",
    "permutation_density_raw",
    "integral_csw5",
    "prop39_bound",
    "prop39_crossover",
    "prop39_middle_coefficient",
    "iterate_value",
    "s_scaled_density",
    "decide_pi1",
    "decide_levels",
    "calibration_constant",
    "route_comparison",
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
    k = float(k)
    return (k**2 / 30.0) * (32.0 * np.pi**2 * p1 + 32.0 * k**2 * B + 192.0 * k**4)


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


def _contract(A: np.ndarray, E: np.ndarray) -> np.ndarray:
    """sum_sigma sgn(sigma) tr[A_s1 E_s2s3 (E_s4s5)] for every choice of
    stack entry per slot, from stacks A[s, a] and E[s, a, b] of matrices."""
    dim = A.shape[-1]
    return np.einsum(_PERMUTATION_SUBSCRIPTS[dim], LEVI_CIVITA[dim], A,
                     *[E] * (dim // 2), optimize=_PERMUTATION_PATHS[dim])


def _permutation_sums(comps: np.ndarray, vecs: np.ndarray, gdot: np.ndarray) -> np.ndarray:
    """The permutation sums of a stack of curvature arrays comps[s] in the
    frame `vecs` along gdot."""
    # A[s,a][l,j] = X_a^i gdot^m R_s[i,j,m,l];  E[s,a,b][l,k] = X_a^i X_b^j R_s[i,j,k,l]
    A = np.einsum("ai,m,sijml->salj", vecs, gdot, comps)
    E = np.einsum("ai,bj,sijkl->sablk", vecs, vecs, comps)
    return _contract(A, E)


def permutation_density_raw(
    R: RiemannTensor,
    frame: OrthonormalFrame,
    loop_speed: np.ndarray,
    fiber_length: float,
) -> float:
    """Signed permutation sum over curvature endomorphisms, uncalibrated.

    For dim(M) = 2k-1, returns

        (4/(2k-1)!) sum_sigma sgn(sigma)
            tr[ A(X_s1) B(X_s2, X_s3) ... B(X_s(2k-2), X_s(2k-1)) ]
        * fiber_length

    where A(X): Y -> R(X,Y) gamma_dot and B(X,Y): Z -> R(X,Y)Z.  The
    integrand is frame-constant along the loop, so the circle integral is
    the pointwise value times fiber_length.
    """
    dim = R.dim
    if dim not in (3, 5):
        raise ValueError("permutation density supports dims 3 and 5 only")
    if frame.dim != dim:
        raise ValueError("frame dimension mismatch")
    gdot = np.asarray(loop_speed, dtype=float)
    if gdot.shape != (dim,):
        raise ValueError("loop speed dimension mismatch")

    total = _permutation_sums(R.comp[None], frame.vectors, gdot).item()
    return (4.0 / factorial(dim)) * total * fiber_length


@lru_cache(maxsize=1)
def calibration_constant() -> float:
    """Single constant relating the permutation and closed-form routes.

    Fixed once by requiring torus agreement at k = 1 and never refit per
    surface.  A value of 1 would indicate fully matched conventions; any
    positive value preserves vanishing and signs, hence all verdicts.
    """
    lift = lift_curvature(flat_torus(), 1)
    raw = permutation_density_raw(
        lift.curvature5,
        OrthonormalFrame.standard(5),
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        lift.fiber_length,
    )
    return density_closed_form(lift) / raw


def density_permutation(
    lift: SasakiLift,
    frame: OrthonormalFrame | None = None,
    loop_speed: np.ndarray | None = None,
) -> float:
    """Calibrated permutation-route density on the lift.

    loop_speed must be a unit vector (the vertical frame vector for fiber
    orbits); the default is xi.
    """
    if frame is None:
        frame = OrthonormalFrame.standard(5)
    gdot = np.eye(5)[0] if loop_speed is None else np.asarray(loop_speed, dtype=float)
    if abs(np.linalg.norm(gdot) - 1.0) > 1e-12:
        raise ValueError("loop_speed must be a unit vector")
    raw = permutation_density_raw(lift.curvature5, frame, gdot, lift.fiber_length)
    return calibration_constant() * raw


def integral_csw5(lift: SasakiLift) -> float:
    """Exact integral over the total space: density x total volume."""
    return density_closed_form(lift) * lift.total_volume


def prop39_bound(sigma: int, volume: float, r_inf: float, k: int) -> tuple[float, bool]:
    """Sufficient-condition left-hand side and its strict positivity:

        k^2 ( 96 pi^2 sigma - 224 k^2 |R|_inf vol + 192 k^4 vol )
    """
    if volume <= 0:
        raise ValueError("volume must be positive")
    if r_inf < 0:
        raise ValueError("r_inf must be nonnegative")
    k2 = float(k) ** 2
    lhs = k2 * (
        96.0 * np.pi**2 * sigma
        - 224.0 * k2 * r_inf * volume
        + 192.0 * k2**2 * volume
    )
    return lhs, lhs > 0.0


def prop39_middle_coefficient() -> float:
    """32 x (sum of |coefficients| of the five curvature terms) = 224."""
    return 32.0 * sum(abs(c) for c, _ in CURVATURE_TERMS)


def prop39_crossover(sigma: int, volume: float, r_inf: float, kmax: int = 50) -> int | None:
    """Smallest k >= 1 from which the bound holds for every k' in [k, kmax]."""
    fails = [k for k in range(1, kmax + 1) if not prop39_bound(sigma, volume, r_inf, k)[1]]
    start = fails[-1] + 1 if fails else 1
    return start if start <= kmax else None


def iterate_value(lift: SasakiLift, n: int) -> float:
    """Permutation route on the reparametrized orbit theta -> gamma(n theta).

    The loop speed scales by n while the parameter interval is unchanged,
    so the value is exactly n times the n = 1 value.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    frame = OrthonormalFrame.standard(5)
    gdot = float(n) * np.eye(5)[0]
    raw = permutation_density_raw(lift.curvature5, frame, gdot, lift.fiber_length)
    return calibration_constant() * raw


def s_scaled_density(lift: SasakiLift, s: float) -> float:
    """Density under the s-parametrized connection family: s times s = 1."""
    return s * density_closed_form(lift)


#: The slot choices of the cubic's 2 x 2 x 2 sums that take R1 in m slots,
#: one mask per power m of k^2.
_CUBIC_MASKS = tuple(np.indices((2, 2, 2)).sum(axis=0) == m for m in range(4))


def _permutation_cubic(parts: tuple[RiemannTensor, RiemannTensor]) -> list[float]:
    """Coefficients c_0 .. c_3 of the raw permutation sum along xi at the
    lift R0 + k^2 R1, a cubic in k^2.

    The sum is trilinear in the lift, so c_m sums the 2^3 slot choices
    that take R1 in m slots and R0 in the rest.  In the identity frame
    along xi = e_0, A and E are views of the stack (R0, R1).
    """
    comps = np.stack([part.comp for part in parts])
    # A[s,a][l,j] = R_s[a,j,0,l];  E[s,a,b][l,k] = R_s[a,b,k,l]
    sums = _contract(comps[:, :, :, 0, :].transpose(0, 1, 3, 2), comps.transpose(0, 1, 2, 4, 3))
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
    """(p1, B, c0, c1, c2, c3) of a curvature surface, once per distinct
    (curvature, J) per process.  A miss builds and checks the lift
    polynomial of the surface it was called with; a failed check raises
    and is not cached."""
    cubic = _permutation_cubic(lift_parts(key.surface))
    return (*_closed_form_terms(key.surface.curvature), *cubic)


def decide_levels(surface: KahlerSurface, ks) -> list[Pi1Verdict]:
    """Whether the fiber-rotation loop has infinite order, at each level in ks.

    The lift polynomial (R0, R1) is built and checked, p1 and B are read,
    and the permutation route's cubic in k^2 is contracted once per
    distinct (curvature, J) per process; each level then costs scalar
    arithmetic.  The first sweep of a curvature pays for these terms; a
    repeat reads them.  The name, volume, signature and r_inf are read per
    call.  The closed form is evaluated
    as `density_closed_form` evaluates it.  A bounds-only surface is
    decided by the prop-3.9 condition, and its verdicts carry no
    densities.
    """
    if surface.curvature_known:
        p1, B, c0, c1, c2, c3 = _sweep_terms(_CurvatureKey(surface))
        calibration = calibration_constant()
        total_volume = FIBER_LENGTH * surface.volume
    verdicts = []
    for k in ks:
        prop_lhs, prop_holds = prop39_bound(
            surface.signature, surface.volume, surface.r_inf, k
        )
        densities = integral = None
        if surface.curvature_known:
            k2 = float(k) ** 2
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


def route_comparison(surface: KahlerSurface, k: int) -> WcsDensity:
    """Both density routes at level k on a curvature surface."""
    surface.require_curvature()
    return decide_pi1(surface, k).densities
