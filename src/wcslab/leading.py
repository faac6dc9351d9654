"""Numerical check of the leading-order Chern identity on a rotation family.

The family is the map S^2 -> L S^2 sending x to the loop theta -> R_theta x
(rotation about the z-axis), paired against a degree-q line bundle on the
target sphere.  Both sides of the identity reduce to vol(S^1) * q, but the
left side is computed by honest pullback quadrature over the family.

The quadrature over the parameter sphere reduces to one moment tensor,
which both sides read (`MappedFamily.moment`), rotated to every loop angle
and contracted with the Levi-Civita symbol.  A process builds the moment
once per (n_colat, n_long), so a repeated check at the same grid skips the
Gauss-Legendre rule; a cold call costs what it did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import LEVI_CIVITA, _is_int, _rotate_tensor

__all__ = ["MappedFamily", "LineBundleCurvature", "PASS_TOL", "c_lo_pairing",
           "rhs_prop22", "relative_error", "verify_prop22"]

#: The identity holds when the relative error of the two sides is at most this.
PASS_TOL = 1e-6


def _sphere_quadrature(n_colat: int, n_long: int):
    """Product rule on S^2: Gauss-Legendre in cos(colatitude) x uniform in
    longitude, vectors stacked as (3, n_colat, n_long).  Weights sum to 4 pi."""
    u, wu = np.polynomial.legendre.leggauss(n_colat)
    lam = 2.0 * np.pi * np.arange(n_long) / n_long
    U, L = np.meshgrid(u, lam, indexing="ij")
    W = np.outer(wu, np.full(n_long, 2.0 * np.pi / n_long))
    sin_phi = np.sqrt(1.0 - U**2)
    points = np.stack([sin_phi * np.cos(L), sin_phi * np.sin(L), U])
    # Oriented orthonormal tangent basis (t_phi, t_lambda) at each point.
    t_phi = np.stack([U * np.cos(L), U * np.sin(L), -sin_phi])
    t_lam = np.stack([-np.sin(L), np.cos(L), np.zeros_like(L)])
    return points, t_phi, t_lam, W


@cache
def _moment(n_colat: int, n_long: int) -> np.ndarray:
    """M_ijk = sum over the parameter grid of W t_phi_i t_lambda_j x_k
    (a pairwise sum on the grid axis), read-only.  Each (i, j) forms and
    sums one (3, N) product rather than all 27 rows at once: the rows and
    their sums are the same, and the product takes a ninth of the memory.
    The rule itself is not kept: a grid's cache entry is these 27 floats."""
    points, t_phi, t_lam, W = _sphere_quadrature(n_colat, n_long)
    weighted = (W * points).reshape(3, -1)
    t_phi, t_lam = t_phi.reshape(3, -1), t_lam.reshape(3, -1)
    M = np.empty((3, 3, 3))
    for i, j in np.ndindex(3, 3):
        M[i, j] = (t_phi[i] * t_lam[j] * weighted).sum(axis=-1)
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class MappedFamily:
    """Rotation family over the parameter sphere, with quadrature grids.
    Each size is an int >= 4 (a numpy int is stored as int; a bool is not
    a size)."""

    n_colat: int = 32
    n_long: int = 64
    n_loop: int = 32

    def __post_init__(self):
        for name in ("n_colat", "n_long", "n_loop"):
            size = getattr(self, name)
            if not _is_int(size) or size < 4:
                raise ValueError(f"{name} must be an int >= 4, got {size!r}")
            object.__setattr__(self, name, int(size))

    @property
    def loop_angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_loop) / self.n_loop

    @property
    def loop_weights(self) -> np.ndarray:
        return np.full(self.n_loop, 2.0 * np.pi / self.n_loop)

    def parameter_grid(self):
        return _sphere_quadrature(self.n_colat, self.n_long)

    @property
    def moment(self) -> np.ndarray:
        """The read-only moment of the parameter grid, shared by every family
        with the same (n_colat, n_long).

        The area form dA(Rv, Rw, Rn) = eps_abc (Rv)_a (Rw)_b (Rn)_c is
        trilinear in (v, w, n), so the grid reduces once, for every angle
        and every charge, to this (3, 3, 3) tensor."""
        return _moment(self.n_colat, self.n_long)

    @staticmethod
    def rotation(theta) -> np.ndarray:
        """Rotation about the z-axis by each angle: shape theta.shape + (3, 3)."""
        c, s = np.cos(theta), np.sin(theta)
        z, o = np.zeros_like(c), np.ones_like(c)
        return np.stack([c, -s, z, s, c, z, z, z, o], axis=-1).reshape(np.shape(c) + (3, 3))


@dataclass(frozen=True)
class LineBundleCurvature:
    """Curvature of the degree-q bundle: Omega = kappa * (round area form)
    with (i/2pi) * integral = q, so kappa = -i q / 2."""

    charge: int

    @property
    def coefficient(self) -> complex:
        return -0.5j * self.charge


def _pullback_integrals(fam: MappedFamily, L: LineBundleCurvature, thetas) -> np.ndarray:
    """Per-angle integral over the parameter sphere of (u_theta)^* (i/2pi) tr(Omega)."""
    # dA at every angle t: eps_abc R_tai R_tbj R_tck M_ijk, the full
    # quadrature (it does not use det R = 1).
    rotated = _rotate_tensor(fam.moment, fam.rotation(thetas))
    dA = rotated.reshape(len(rotated), 27) @ LEVI_CIVITA[3].reshape(27)
    return np.real((1j / (2.0 * np.pi)) * L.coefficient * dA)


def c_lo_pairing(fam: MappedFamily, L: LineBundleCurvature) -> float:
    """Fiber-integrated pairing: loop integral of the per-angle pullback
    integrals over the parameter sphere."""
    return float(np.sum(_pullback_integrals(fam, L, fam.loop_angles) * fam.loop_weights))


def rhs_prop22(fam: MappedFamily, L: LineBundleCurvature, n0: float = 0.0) -> float:
    """vol(S^1) times the single-evaluation pullback at basepoint angle n0."""
    return 2.0 * np.pi * float(_pullback_integrals(fam, L, [n0])[0])


def relative_error(lhs: float, rhs: float) -> float:
    """Relative difference of the two sides of the identity."""
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def verify_prop22(fam: MappedFamily, L: LineBundleCurvature, n0: float = 0.0) -> float:
    """Relative difference of the two sides; passes at <= PASS_TOL."""
    return relative_error(c_lo_pairing(fam, L), rhs_prop22(fam, L, n0))
