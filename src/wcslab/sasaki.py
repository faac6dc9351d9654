"""Curvature of the circle-bundle total space over a Kahler surface.

The 5-dimensional tensor lives in the frame (xi, e2, Je2, e3, Je3), index 0
being the unit vertical vector.  All components are reconstructed from the
three lift identities plus the curvature symmetries; the symmetries are
asserted afterwards, never forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import KahlerSurface
from .geometry import RiemannTensor, symmetry_violation

__all__ = ["SasakiLift", "LiftConsistencyError", "lift_parts", "lift_curvature",
           "total_volume", "FIBER_LENGTH"]

#: Orbit loops are parametrized by theta in [0, 2pi] at unit speed.
FIBER_LENGTH = 2.0 * np.pi


class LiftConsistencyError(RuntimeError):
    """The reconstructed 5d tensor failed a curvature identity."""


@dataclass(frozen=True)
class SasakiLift:
    base: KahlerSurface
    k: int
    curvature5: RiemannTensor
    fiber_length: float = FIBER_LENGTH

    @property
    def total_volume(self) -> float:
        return self.fiber_length * self.base.volume


def _check_identities(R: RiemannTensor, what: str, tol: float = 1e-12) -> None:
    viol = symmetry_violation(R)
    if viol > tol:
        raise LiftConsistencyError(
            f"{what} violates curvature identities (max violation {viol:.3e})"
        )


def lift_parts(base: KahlerSurface) -> tuple[RiemannTensor, RiemannTensor]:
    """The lift polynomial (R0, R1): the level-k tensor is R0 + k^2 R1.

    R0 is the base tensor on the horizontal block.  R1 is the k^2 part:
        R1(X,Y,Z,W) = -<JY,Z><JX,W> + <JX,Z><JY,W> + 2<JX,Y><JZ,W>
    on the horizontal block and the two-vertical pattern
    R1(xi,X,Y,xi) = <X,Y>; mixed components with a single vertical slot
    vanish.  The curvature identities are linear, so when both parts
    satisfy them the lift does at every k, up to the rounding of the sum.
    """
    R = base.require_curvature()
    Jm = base.J.matrix

    r0 = np.zeros((5, 5, 5, 5))
    r0[1:, 1:, 1:, 1:] = R.comp
    r1 = np.zeros((5, 5, 5, 5))
    r1[1:, 1:, 1:, 1:] = (
        -np.einsum("li,kj->ijkl", Jm, Jm)
        + np.einsum("ki,lj->ijkl", Jm, Jm)
        + 2.0 * np.einsum("ji,lk->ijkl", Jm, Jm)
    )
    # Third identity R1(xi, X, Y, xi) = <X,Y> and its symmetry images.
    for i in range(1, 5):
        r1[0, i, i, 0] = 1.0
        r1[i, 0, i, 0] = -1.0
        r1[0, i, 0, i] = -1.0
        r1[i, 0, 0, i] = 1.0
    parts = RiemannTensor(r0), RiemannTensor(r1)
    for name, part in zip(("R0", "R1"), parts):
        _check_identities(part, f"lift part {name} of {base.name!r}")
    return parts


def lift_curvature(base: KahlerSurface, k: int) -> SasakiLift:
    """The full 5d curvature tensor R0 + k^2 R1 of the level-k circle
    bundle, from `lift_parts`.

    The sum rounds at the scale of its largest component (about k^2), so
    its check is relative to that: 1e-12 * max(1, max |component|).  Each
    part was already checked against an absolute 1e-12.
    """
    r0, r1 = lift_parts(base)
    comp = r0.comp + float(k) ** 2 * r1.comp
    lift = SasakiLift(base=base, k=int(k), curvature5=RiemannTensor(comp))
    _check_identities(lift.curvature5, f"lift of {base.name!r} at k={k}",
                      tol=1e-12 * max(1.0, float(np.max(np.abs(comp)))))
    return lift


def total_volume(lift: SasakiLift) -> float:
    """fiber_length x base volume (product metric on the homogeneous catalog)."""
    return lift.total_volume
