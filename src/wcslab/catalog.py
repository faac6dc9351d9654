"""Catalog of Kahler surfaces with frame-constant curvature.

Entries carry the curvature tensor in the adapted frame (e2, Je2, e3, Je3),
the complex structure, metric volume, signature and |R|_inf.  A bounds-only
entry carries just the three scalars consumed by the positivity bound.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .geometry import STANDARD_J, ComplexStructure, RiemannTensor, _is_int, pontrjagin_density

__all__ = [
    "KahlerSurface",
    "UnsupportedSurfaceError",
    "SurfaceSpecError",
    "SURFACE_TYPES",
    "build_surface",
    "flat_torus",
    "cp2_fubini_study",
    "product_cp1",
    "generic_bounds",
    "signature_from_curvature",
    "complex_space_form",
    "CP2_HOL_SECTIONAL",
    "CP2_VOLUME",
    "CP2_LINE_PERIOD",
]

#: Holomorphic sectional curvature of the catalog Fubini-Study metric.
#: Pinned by requiring the closed-form density over CP^2 to vanish at
#: k = +-1 together with vol = 8 pi^2 / c^2; the unique root is c = 4.
CP2_HOL_SECTIONAL = 4.0

#: Metric volume of CP^2 at that normalization.
CP2_VOLUME = np.pi**2 / 2.0

#: Period of the Kahler form over a projective line at c = 4.  A unit
#: period would need c = 4 pi, which contradicts the k = +-1 vanishing;
#: the discrepancy is reported here rather than absorbed.
CP2_LINE_PERIOD = np.pi


class UnsupportedSurfaceError(RuntimeError):
    """Curvature-level operation requested on a bounds-only surface."""


@dataclass(frozen=True, eq=False)
class KahlerSurface:
    name: str
    volume: float
    signature: int
    r_inf: float
    curvature: RiemannTensor | None = None
    J: ComplexStructure | None = None
    params: dict = field(default_factory=dict)

    @property
    def curvature_known(self) -> bool:
        return self.curvature is not None

    def require_curvature(self) -> RiemannTensor:
        if self.curvature is None:
            raise UnsupportedSurfaceError(
                f"surface {self.name!r} is bounds-only; no curvature tensor"
            )
        return self.curvature


def _unit_sphere(n: int) -> np.ndarray:
    """d_il d_jk - d_ik d_jl with d the n x n identity: the curvature of
    constant sectional curvature 1 in an orthonormal frame."""
    dd = np.multiply.outer(np.eye(n), np.eye(n))  # dd[a,b,c,e] = d_ab d_ce
    out = dd.transpose(0, 2, 3, 1) - dd.transpose(0, 2, 1, 3)
    out.setflags(write=False)
    return out


_SPHERE_2 = _unit_sphere(2)
_SPHERE_4 = _unit_sphere(4)
_SPHERE_5 = _unit_sphere(5)


def complex_space_form(c: float, J: ComplexStructure = STANDARD_J) -> RiemannTensor:
    """Curvature tensor of constant holomorphic sectional curvature c.

    R(X,Y,Z,W) = (c/4)[<X,W><Y,Z> - <X,Z><Y,W> + <JX,W><JY,Z>
                       - <JX,Z><JY,W> + 2<JX,Y><JW,Z>]
    """
    # JJ[a,b,c,e] = J_ab J_ce, and each J term is a transposed view of it.
    # The products and the order of the sums are those of the einsum form
    # in the tests, so the array is the same bit for bit.
    JJ = np.multiply.outer(J.matrix, J.matrix)
    comp = (c / 4.0) * (
        _SPHERE_4                          # d_il d_jk - d_ik d_jl
        + JJ.transpose(1, 3, 2, 0)         # J_li J_kj
        - JJ.transpose(1, 3, 0, 2)         # J_ki J_lj
        + 2.0 * JJ.transpose(1, 0, 2, 3)   # J_ji J_kl
    )
    return RiemannTensor(comp)


def flat_torus() -> KahlerSurface:
    """Unit-period flat torus: zero curvature, volume 1, signature 0."""
    return KahlerSurface(
        name="t4",
        volume=1.0,
        signature=0,
        r_inf=0.0,
        curvature=RiemannTensor.zero(4),
        J=STANDARD_J,
    )


def cp2_fubini_study() -> KahlerSurface:
    """CP^2 with the calibrated Fubini-Study metric (c = 4)."""
    c = CP2_HOL_SECTIONAL
    return KahlerSurface(
        name="cp2",
        volume=CP2_VOLUME,
        signature=1,
        r_inf=c,
        curvature=complex_space_form(c),
        J=STANDARD_J,
        params={"hol_sectional": c, "line_period": CP2_LINE_PERIOD},
    )


def product_cp1(a: int, b: int) -> KahlerSurface:
    """CP^1 x CP^1 with Kahler class a*w1 + b*w2.

    Realized by the metric a*g1 + b*g2 on the product of unit round
    spheres, so the factor sectional curvatures are 1/a and 1/b.  a and b
    are ints or numpy integers (stored as int), not bools.
    """
    if not (_is_int(a) and _is_int(b)) or a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    a, b = int(a), int(b)
    volume = (4.0 * np.pi * a) * (4.0 * np.pi * b)
    if not volume < np.inf:
        raise ValueError("volume (4 pi a)(4 pi b) must be finite")
    k1, k2 = 1.0 / a, 1.0 / b
    comp = np.zeros((4, 4, 4, 4))
    comp[:2, :2, :2, :2] = k1 * _SPHERE_2
    comp[2:, 2:, 2:, 2:] = k2 * _SPHERE_2
    return KahlerSurface(
        name="cp1xcp1",
        volume=volume,
        signature=0,
        r_inf=max(k1, k2),
        curvature=RiemannTensor(comp),
        J=STANDARD_J,
        params={"a": a, "b": b},
    )


def generic_bounds(sigma: int, volume: float, r_inf: float,
                   name: str = "generic") -> KahlerSurface:
    """Bounds-only entry: only the positivity-bound decision is available."""
    if not abs(sigma) <= sys.float_info.max:  # exact for ints
        raise ValueError("sigma must convert to a finite float")
    if not 0 < volume < np.inf:
        raise ValueError("volume must be positive and finite")
    if not 0 <= r_inf < np.inf:
        raise ValueError("r_inf must be nonnegative and finite")
    return KahlerSurface(
        name=name,
        volume=float(volume),
        signature=int(sigma),
        r_inf=float(r_inf),
        params={"sigma": int(sigma), "vol": float(volume), "r_inf": float(r_inf)},
    )


def signature_from_curvature(S: KahlerSurface) -> float:
    """(1/3) * p1 density * volume; exact for frame-constant curvature."""
    R = S.require_curvature()
    return pontrjagin_density(R) * S.volume / 3.0


class SurfaceSpecError(ValueError):
    """Unknown surface type, or a missing or bad parameter of a known one."""

    def __init__(self, message: str, missing: bool = False):
        super().__init__(message)
        self.missing = missing


@dataclass(frozen=True)
class SurfaceType:
    """Constructor of one surface type and its typed required parameters.
    Only bounds-only types take the name of a config-file entry."""

    build: Callable[..., KahlerSurface]
    params: tuple[tuple[str, Callable], ...] = ()
    curvature_known: bool = True


SURFACE_TYPES = {
    "t4": SurfaceType(flat_torus),
    "cp2": SurfaceType(cp2_fubini_study),
    "cp1xcp1": SurfaceType(product_cp1, (("a", int), ("b", int))),
    "generic": SurfaceType(
        generic_bounds,
        (("sigma", int), ("vol", float), ("r_inf", float)),
        curvature_known=False,
    ),
}


def build_surface(stype: str | None, raw: dict, name: str | None = None) -> KahlerSurface:
    """Surface of type `stype` from raw (string) parameter values; unused
    keys are ignored and None counts as missing."""
    spec = SURFACE_TYPES.get(stype)
    if spec is None:
        raise SurfaceSpecError(f"unknown surface type {stype!r}")
    values = []
    for key, convert in spec.params:
        text = raw.get(key)
        if text is None:
            raise SurfaceSpecError(f"surface type {stype!r} needs key {key!r}", missing=True)
        try:
            values.append(convert(text))
        except ValueError:
            raise SurfaceSpecError(f"surface type {stype!r}: bad value {text!r} "
                                   f"for key {key!r} (expected {convert.__name__})") from None
    named = {} if spec.curvature_known or name is None else {"name": name}
    try:
        return spec.build(*values, **named)
    except (ValueError, OverflowError) as exc:
        raise SurfaceSpecError(f"surface type {stype!r}: {exc}") from None
