"""Numerical check of the leading-order Chern identity on a rotation family.

The family is the map S^2 -> L S^2 sending x to the loop theta -> R_theta x
(rotation about the z-axis), paired against a degree-q line bundle on the
target sphere.  Both sides of the identity reduce to vol(S^1) * q, but the
left side is computed by honest pullback quadrature over the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MappedFamily",
    "LineBundleCurvature",
    "c_lo_pairing",
    "rhs_prop22",
    "verify_prop22",
]


def _sphere_quadrature(n_colat: int, n_long: int):
    """Product rule on S^2: Gauss-Legendre in cos(colatitude) x uniform in
    longitude.  Weights sum to 4 pi exactly."""
    u, wu = np.polynomial.legendre.leggauss(n_colat)
    lam = 2.0 * np.pi * np.arange(n_long) / n_long
    wl = np.full(n_long, 2.0 * np.pi / n_long)
    U, L = np.meshgrid(u, lam, indexing="ij")
    W = np.outer(wu, wl)
    sin_phi = np.sqrt(1.0 - U**2)
    points = np.stack(
        [sin_phi * np.cos(L), sin_phi * np.sin(L), U], axis=-1
    )  # (n_colat, n_long, 3)
    # Oriented orthonormal tangent basis (t_phi, t_lambda) at each point.
    t_phi = np.stack(
        [U * np.cos(L), U * np.sin(L), -sin_phi], axis=-1
    )
    t_lam = np.stack([-np.sin(L), np.cos(L), np.zeros_like(L)], axis=-1)
    return points, t_phi, t_lam, W


@dataclass(frozen=True)
class MappedFamily:
    """Rotation family over the parameter sphere, with quadrature grids."""

    n_colat: int = 32
    n_long: int = 64
    n_loop: int = 32

    def __post_init__(self):
        if min(self.n_colat, self.n_long, self.n_loop) < 4:
            raise ValueError("grids too small")

    @property
    def loop_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_loop) / self.n_loop

    @property
    def loop_weights(self) -> np.ndarray:
        return np.full(self.n_loop, 2.0 * np.pi / self.n_loop)

    def parameter_grid(self):
        return _sphere_quadrature(self.n_colat, self.n_long)

    @staticmethod
    def rotation(theta: float) -> np.ndarray:
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class LineBundleCurvature:
    """Curvature of the degree-q bundle: Omega = kappa * (round area form)
    with (i/2pi) * integral = q, so kappa = -i q / 2."""

    charge: int

    @property
    def coefficient(self) -> complex:
        return -0.5j * self.charge


def _pullback_integral(fam: MappedFamily, L: LineBundleCurvature, theta: float) -> float:
    """integral over the parameter sphere of (u_theta)^* (i/2pi) tr(Omega)."""
    points, t_phi, t_lam, W = fam.parameter_grid()
    Rm = fam.rotation(theta)
    # Push the tangent basis forward and evaluate the area form there:
    # dA(v, w) = <v x w, n> at the image point.
    v = t_phi @ Rm.T
    w = t_lam @ Rm.T
    n = points @ Rm.T
    dA = np.einsum("ijk,ijk->ij", np.cross(v, w), n)
    integrand = (1j / (2.0 * np.pi)) * L.coefficient * dA
    return float(np.real(np.sum(integrand * W)))


def c_lo_pairing(fam: MappedFamily, L: LineBundleCurvature) -> float:
    """Fiber-integrated pairing: loop integral of the per-angle pullback
    integrals over the parameter sphere."""
    inner = np.array([_pullback_integral(fam, L, th) for th in fam.loop_angles])
    return float(np.sum(inner * fam.loop_weights))


def rhs_prop22(fam: MappedFamily, L: LineBundleCurvature, n0: float = 0.0) -> float:
    """vol(S^1) times the single-evaluation pullback at basepoint angle n0."""
    return 2.0 * np.pi * _pullback_integral(fam, L, n0)


def verify_prop22(fam: MappedFamily, L: LineBundleCurvature, n0: float = 0.0) -> float:
    """Relative difference of the two sides; passes at <= 1e-6."""
    lhs = c_lo_pairing(fam, L)
    rhs = rhs_prop22(fam, L, n0)
    return abs(lhs - rhs) / max(1.0, abs(rhs))
