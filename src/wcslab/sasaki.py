"""Curvature of the circle-bundle total space over a Kahler surface.

The 5-dimensional tensor lives in the frame (xi, e2, Je2, e3, Je3), index 0
being the unit vertical vector.  All components are reconstructed from the
three lift identities plus the curvature symmetries; the symmetries are
asserted afterwards, never forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import _SPHERE_5, KahlerSurface, complex_space_form
from .geometry import RiemannTensor, _is_int, _violations

__all__ = ["SasakiLift", "LiftConsistencyError", "lift_parts", "lift_curvature", "FIBER_LENGTH"]

#: Orbit loops are parametrized by theta in [0, 2pi] at unit speed.
FIBER_LENGTH = 2.0 * np.pi


class LiftConsistencyError(RuntimeError):
    """The reconstructed 5d tensor failed a curvature identity."""


@dataclass(frozen=True, eq=False)
class SasakiLift:
    base: KahlerSurface
    k: int
    curvature5: RiemannTensor

    @property
    def total_volume(self) -> float:
        """FIBER_LENGTH x base volume (product metric on the homogeneous catalog)."""
        return FIBER_LENGTH * self.base.volume


def _check_identities(stack: np.ndarray, whats: tuple, tols: tuple) -> None:
    """Check a stack (n, 5, 5, 5, 5) in one pass: tensor i, named whats[i],
    fails unless its symmetry violation is <= tols[i], so NaN fails, and
    the first failing tensor raises.  An inf - inf residual is NaN, so it
    fails too, and numpy's warning of it is silenced."""
    with np.errstate(invalid="ignore"):
        viols = _violations(stack)
    for what, viol, tol in zip(whats, viols, tols):
        if not viol <= tol:
            raise LiftConsistencyError(
                f"{what} violates curvature identities (max violation {viol:.3e})"
            )


def _parts(base: KahlerSurface) -> np.ndarray:
    """The stack [R0, R1] of `lift_parts`, (2, 5, 5, 5, 5), unchecked."""
    parts = np.zeros((2, 5, 5, 5, 5))
    parts[0, 1:, 1:, 1:, 1:] = base.require_curvature().comp
    parts[1] = _SPHERE_5
    parts[1, 1:, 1:, 1:, 1:] -= complex_space_form(4.0, base.J).comp
    return parts


def _part_names(base: KahlerSurface) -> tuple:
    return tuple(f"lift part {name} of {base.name!r}" for name in ("R0", "R1"))


def lift_parts(base: KahlerSurface) -> tuple[RiemannTensor, RiemannTensor]:
    """The lift polynomial (R0, R1): the level-k tensor is R0 + k^2 R1.

    R0 is the base tensor on the horizontal block.  R1 is the k^2 part, the
    unit S^5 tensor minus the c = 4 complex space form of the base J on the
    horizontal block: the Hopf fibration S^5 -> CP^2 (O'Neill 1966), so
    cp2's lift at k = +-1 is the round S^5.  On the horizontal block
        R1(X,Y,Z,W) = -<JY,Z><JX,W> + <JX,Z><JY,W> + 2<JX,Y><JZ,W>,
    R1(xi,X,Y,xi) = <X,Y>, and mixed components with a single vertical
    slot vanish.  The curvature identities are linear, so when both parts
    satisfy them the lift does at every k, up to the rounding of the sum.

    Both parts are checked in one identity pass over the stack [R0, R1],
    each against an absolute 1e-12: a NaN or inf component fails, and R0
    is reported first.
    """
    parts = _parts(base)
    _check_identities(parts, _part_names(base), (1e-12, 1e-12))
    return RiemannTensor(parts[0]), RiemannTensor(parts[1])


def _level_power(k, p: int, base: float | None = None) -> float:
    """base ** p, base = float(k) unless given: a power of the level k as a
    formula reads it.  Where Python's float arithmetic would raise
    OverflowError, this raises ValueError naming the level."""
    try:
        return (float(k) if base is None else base) ** p
    except OverflowError:
        raise ValueError(f"level k={k} is too large for the float range") from None


def lift_curvature(base: KahlerSurface, k: int) -> SasakiLift:
    """The full 5d curvature tensor R0 + k^2 R1 of the level-k circle
    bundle, with R0 and R1 as in `lift_parts`.

    R0, R1 and the sum are checked in one identity pass over the stack of
    the three; the first that fails raises, and a NaN or inf component
    fails.  Each part is held to an absolute 1e-12.  The sum rounds at the
    scale of its largest component (about k^2), so its check is relative
    to that: 1e-12 * max(1, max |component|).

    k must be an int or a numpy integer, not a bool: the level is stored
    with the tensor, and density_closed_form reads it, so any other k
    raises ValueError rather than being stored as a level it is not.  So
    does a level too large for k**2 to be a float (`_level_power`).
    """
    if not _is_int(k):
        raise ValueError(f"k must be an int, got {k!r}")
    stack = np.empty((3, 5, 5, 5, 5))
    stack[:2] = _parts(base)
    np.multiply(_level_power(k, 2), stack[1], out=stack[2])
    stack[2] += stack[0]
    top = float(np.max(np.abs(stack[2])))
    _check_identities(stack, _part_names(base) + (f"lift of {base.name!r} at k={k}",),
                      (1e-12, 1e-12, 1e-12 * max(1.0, top)))
    return SasakiLift(base=base, k=int(k), curvature5=RiemannTensor(stack[2]))
