"""Curvature tensors in orthonormal frames: symmetry checks, Pontrjagin
density, and |R|_inf, the largest curvature component over all orthonormal
frames, in closed form from the curvature operator on Lambda^2 (no frame
search).

All tensors use the index convention R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>,
with sectional curvature K(X,Y) = R(X,Y,Y,X).  Densities are evaluated in
the tensor's own frame: rotate the tensor to change frames.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RiemannTensor",
    "ComplexStructure",
    "ShapeError",
    "symmetry_violation",
    "pontrjagin_density",
    "max_abs_component",
    "perm_sign",
    "LEVI_CIVITA",
]

_VALID_DIMS = (3, 4, 5)


class ShapeError(ValueError):
    """Tensor or vector data with the wrong shape or dimension."""


def _frozen_array(a, shape=None) -> np.ndarray:
    out = np.array(a, dtype=float)
    if shape is not None and out.shape != shape:
        raise ShapeError(f"expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class RiemannTensor:
    """Curvature components R[i,j,k,l] in a fixed orthonormal frame."""

    comp: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.comp, dtype=float)
        if comp.ndim != 4 or len(set(comp.shape)) != 1:
            raise ShapeError(f"curvature array must be d^4, got {comp.shape}")
        if comp.shape[0] not in _VALID_DIMS:
            raise ShapeError(f"dimension must be one of {_VALID_DIMS}")
        comp = comp.copy()
        comp.setflags(write=False)
        object.__setattr__(self, "comp", comp)

    @property
    def dim(self) -> int:
        return self.comp.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "RiemannTensor":
        return cls(np.zeros((dim,) * 4))


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A 4x4 matrix J with J^2 = -Id acting on frame components."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_array(self.matrix, (4, 4))
        if not np.allclose(m @ m, -np.eye(4), atol=1e-12):
            raise ValueError("J^2 != -Id")
        if not np.allclose(m.T @ m, np.eye(4), atol=1e-12):
            raise ValueError("J is not orthogonal")
        object.__setattr__(self, "matrix", m)


#: Standard J in the adapted frame (e2, Je2, e3, Je3).
STANDARD_J = ComplexStructure(
    np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
)


def _is_int(value) -> bool:
    """An int or a numpy integer, not a bool: a level, count or class number."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def symmetry_violation(R: RiemannTensor) -> float:
    """Max violation over the three classical curvature identities: the
    largest |residual| of antisymmetry in each index pair, pair symmetry
    and the first Bianchi identity (`_violations` of the one tensor).
    NaN when a component is NaN."""
    return _violations(R.comp)[()]


def _violations(comps: np.ndarray) -> np.ndarray:
    """symmetry_violation of each tensor of a stack (..., d, d, d, d), shape
    (...): the four identity residuals of the whole stack go into one
    buffer, read by one abs and one max per tensor.  Each residual adds its
    terms in the order of the one-tensor formula, so every value is the one
    of its tensor checked alone.  An inf component can make an inf - inf
    residual, which numpy warns of, and a NaN one gives a NaN value."""
    c = comps.reshape((-1,) + comps.shape[-4:])
    res = np.empty((4,) + c.shape)
    np.add(c, c.transpose(0, 2, 1, 3, 4), out=res[0])        # antisymmetry in (i, j)
    np.add(c, c.transpose(0, 1, 2, 4, 3), out=res[1])        # antisymmetry in (k, l)
    np.subtract(c, c.transpose(0, 3, 4, 1, 2), out=res[2])   # pair symmetry
    np.add(c, c.transpose(0, 2, 3, 1, 4), out=res[3])        # first Bianchi
    np.add(res[3], c.transpose(0, 3, 1, 2, 4), out=res[3])
    np.abs(res, out=res)
    return res.reshape(4, len(c), -1).max(axis=(0, 2)).reshape(comps.shape[:-4])


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of indices."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def _levi_civita(n: int) -> np.ndarray:
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = perm_sign(perm)
    eps.setflags(write=False)
    return eps


#: Read-only Levi-Civita symbols: LEVI_CIVITA[n][i_1, ..., i_n] is the sign
#: of the permutation (i_1, ..., i_n), and 0 on repeated indices.
LEVI_CIVITA = {n: _levi_civita(n) for n in _VALID_DIMS}


def _rotate_tensor(comp: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Components in each of a stack of frames: out[n] is `comp`, a tensor of
    rank r >= 2 on R^d, in the frame whose vectors are the rows of bases[n],
    shape (n, d, d) -> (n,) + (d,) * r.

    One batched matmul per tensor axis.
    """
    n, d, r = bases.shape[0], comp.shape[0], comp.ndim
    B = bases[:, None]   # (n, 1, d, d): broadcast over the leading axes
    out = bases @ comp.reshape(d, d ** (r - 1))                        # axis 0
    for axis in range(1, r - 1):
        out = B @ out.reshape(n, d**axis, d, d ** (r - 1 - axis))
    out = out.reshape(n, d ** (r - 1), d) @ bases.transpose(0, 2, 1)   # last axis
    return out.reshape((n,) + (d,) * r)


# Sign fixed so that (1/3) * integral of p1 over CP^2 gives signature +1
# with the complex orientation (e2, Je2, e3, Je3).
_P1_SIGN = -1.0


def pontrjagin_density(R: RiemannTensor) -> float:
    """First Pontrjagin density p1(R)(e1,e2,e3,e4) in the tensor's own frame.

    Normalized so that (1/3) * p1 * vol(M) equals the signature on the
    frame-homogeneous catalog surfaces.  p1 is invariant under oriented
    frame changes; an orientation-reversing one changes its sign.
    """
    if R.dim != 4:
        raise ShapeError("Pontrjagin density requires dim 4")
    # sum_sigma sgn(sigma) tr(E_ab E_cd) over the curvature endomorphisms
    # E_ab[l,k] = R[a,b,k,l]
    total = np.einsum("abcd,abkl,cdlk->", LEVI_CIVITA[4], R.comp, R.comp)
    # 1/(2! 2!) antisymmetrization factor for the wedge of two 2-forms
    return _P1_SIGN * total / (4.0 * 8.0 * np.pi**2)


# The orthonormal basis e_i ^ e_j (i < j) of Lambda^2 R^4, as index arrays.
_PAIR_I, _PAIR_J = np.array(list(itertools.combinations(range(4), 2))).T


def _curvature_operator(comp: np.ndarray) -> np.ndarray:
    """The 6 x 6 matrix of a 4-tensor on Lambda^2 R^4 in the basis e_i ^ e_j
    (i < j): M[(i, j), (k, l)] = comp[i, j, k, l]."""
    return comp[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J]


#: The Hodge star H on Lambda^2 R^4, and orthonormal bases (columns) of its
#: eigenspaces Lambda+ (eigenvalue +1) and Lambda- (-1): the first three
#: columns of the projections (I +- H)/2, times sqrt 2.  Built without
#: LAPACK, so that importing the module starts no solver.
_HODGE = _frozen_array(_curvature_operator(LEVI_CIVITA[4]))
_LAMBDA_PLUS, _LAMBDA_MINUS = (_frozen_array((np.eye(6) + sign * _HODGE)[:, :3] / np.sqrt(2.0))
                               for sign in (1.0, -1.0))


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    """The minimum of a convex f on [lo, hi] by golden-section search,
    stopped once the bracket is at most `tol` wide (or can shrink no more
    in floating point).  The bracket always holds a minimizer, so for an f
    with slopes in [-1, 1] the value returned is within `tol` of the
    minimum, apart from the rounding in f itself."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > tol:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = lo + (1.0 - ratio) * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = f(b)
        if not lo < a < b < hi:
            break
    return min(fa, fb)


def max_abs_component(R: RiemannTensor, seed: int = 0, samples: int = 100) -> float:
    """|R|_inf, the largest |R(e_a, e_b, e_c, e_d)| over orthonormal frames,
    of a 4-dimensional curvature tensor, in closed form from its curvature
    operator M on Lambda^2 and the Hodge star H, with no frame search.

    Every component is, up to sign, one of three kinds:
    - a sectional curvature K(a, b) = <M w, w>, w = e_a ^ e_b.  A unit
      2-form w is decomposable iff <H w, w> = 0 (Thorpe 1971), and the
      joint range of (M, H) is convex in dimension 6, so (Finsler's lemma)
      K_max = min_t lambda_max(M - t H) and K_min = max_t lambda_min(M - t H),
      each a one-variable convex search;
    - R(a, b, a, c) = (K(a, b') - K(a, c')) / 2 with b', c' = (b +- c)/sqrt 2,
      never above the larger of K_max and -K_min;
    - the disjoint pair R(e1, e2, e3, e4) = (<A u, u> - <C v, v>) / 2 for
      e1 ^ e2 = (u + v)/sqrt 2 with u, v unit in Lambda+ and Lambda-, which
      take any pair of values as the frame turns (Singer-Thorpe 1969): A and
      C are the blocks of M on Lambda+ and Lambda-, and the max is
      max(lambda_max A - lambda_min C, lambda_max C - lambda_min A) / 2.

    The search runs on M / 2^e, max |M| < 2^e, and scales its value back:
    both exact, so no solve overflows and cp2 x 1e307 gives 4e307.  Each
    search stops once its bracket of t is 4 ulps of |M|_2 wide, after about
    78 eigvalsh solves at any scale of R.  Every eigenvalue of M - t H has
    slope in [-1, 1], so the value is then within a few ulps of |M|_2 of
    |R|_inf: the catalog's r_inf within 3.3e-16, and R scaled by 1e+-100
    or 2^+-900 gives the value scaled within 8 eps relative.  It is a
    rounded value, not a certified upper bound: cp2 in a rotated frame can
    give 3.999999999999999 for the exact 4.

    The zero tensor gives 0.0 exactly.  `seed` and `samples` are ignored:
    they are the arguments of the frame search this replaced, kept so that
    callers that pass them, the perfbench orbit_checks job among them,
    still run.  Raises ShapeError unless R has dimension 4, and ValueError
    on a non-finite component or a value past the float range.
    """
    if R.dim != 4:
        raise ShapeError("|R|_inf in closed form requires dim 4")
    if not np.all(np.isfinite(R.comp)):
        raise ValueError("curvature components must be finite")
    if not R.comp.any():
        return 0.0
    M = _curvature_operator(R.comp)
    exponent = np.frexp(np.abs(M).max())[1]
    M = np.ldexp(M, -exponent)
    a = np.linalg.eigvalsh(_LAMBDA_PLUS.T @ M @ _LAMBDA_PLUS)
    c = np.linalg.eigvalsh(_LAMBDA_MINUS.T @ M @ _LAMBDA_MINUS)
    disjoint = 0.5 * max(a[-1] - c[0], c[-1] - a[0])
    # |t| <= 2 |M| at the optimum, since lambda_max(M - t H) >= |t| - |M|.
    norm = np.linalg.norm(M, 2)
    tol = 4.0 * np.spacing(norm)
    span = 2.0 * norm + tol
    k_max = _golden_min(lambda t: np.linalg.eigvalsh(M - t * _HODGE)[-1], -span, span, tol)
    k_min = -_golden_min(lambda t: -np.linalg.eigvalsh(M - t * _HODGE)[0], -span, span, tol)
    value = max(k_max, -k_min, disjoint)
    if np.frexp(value)[1] + exponent > 1024:  # 2^1024 and above overflow
        raise ValueError("|R|_inf is past the float range")
    return float(np.ldexp(value, exponent))
