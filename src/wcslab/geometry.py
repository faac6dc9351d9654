"""Curvature tensors in orthonormal frames: symmetry checks, Pontrjagin
density and frame maximization of curvature components.

All tensors use the index convention R[i,j,k,l] = <R(e_i,e_j)e_k, e_l>,
with sectional curvature K(X,Y) = R(X,Y,Y,X).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "RiemannTensor",
    "ComplexStructure",
    "OrthonormalFrame",
    "ShapeError",
    "validate_symmetries",
    "symmetry_violation",
    "endomorphism_of_pair",
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    @property
    def dim(self) -> int:
        return 4

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)


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


@dataclass(frozen=True)
class OrthonormalFrame:
    """A list of dim coordinate vectors, orthonormal to 1e-12."""

    vectors: np.ndarray  # shape (dim, dim), rows are frame vectors

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"frame must be square, got {v.shape}")
        gram = v @ v.T
        if np.max(np.abs(gram - np.eye(v.shape[0]))) > 1e-12:
            raise ValueError("frame is not orthonormal to 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def standard(cls, dim: int) -> "OrthonormalFrame":
        return cls(np.eye(dim))


def symmetry_violation(R: RiemannTensor) -> float:
    """Max violation over the three classical curvature identities."""
    c = R.comp
    anti_ij = np.max(np.abs(c + np.transpose(c, (1, 0, 2, 3))))
    anti_kl = np.max(np.abs(c + np.transpose(c, (0, 1, 3, 2))))
    pair = np.max(np.abs(c - np.transpose(c, (2, 3, 0, 1))))
    bianchi = np.max(
        np.abs(c + np.transpose(c, (1, 2, 0, 3)) + np.transpose(c, (2, 0, 1, 3)))
    )
    return max(anti_ij, anti_kl, pair, bianchi)


def validate_symmetries(R: RiemannTensor, tol: float = 1e-10) -> bool:
    """True iff antisymmetry, pair symmetry and first Bianchi hold to tol."""
    return symmetry_violation(R) <= tol


def endomorphism_of_pair(R: RiemannTensor, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix of Z -> R(X,Y)Z in frame components: M[l,k] = X^i Y^j R[i,j,k,l]."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (R.dim,) or Y.shape != (R.dim,):
        raise ShapeError("vector dimension does not match the tensor")
    return np.einsum("i,j,ijkl->lk", X, Y, R.comp)


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
    """Components in each of a stack of frames: out[n] is `comp` in the frame
    whose vectors are the rows of bases[n], shape (n, d, d) -> (n, d, d, d, d).

    One batched matmul per tensor axis.
    """
    n, d = bases.shape[0], comp.shape[0]
    B = bases[:, None]   # (n, 1, d, d): broadcast over the leading axes
    out = bases @ comp.reshape(d, d**3)                        # a <- i
    out = B @ out.reshape(n, d, d, d * d)                      # b <- j
    out = B @ out.reshape(n, d * d, d, d)                      # c <- k
    out = out.reshape(n, d**3, d) @ bases.transpose(0, 2, 1)   # e <- l
    return out.reshape(n, d, d, d, d)


# Sign fixed so that (1/3) * integral of p1 over CP^2 gives signature +1
# with the complex orientation (e2, Je2, e3, Je3).
_P1_SIGN = -1.0


def pontrjagin_density(R: RiemannTensor, frame: OrthonormalFrame | None = None) -> float:
    """First Pontrjagin density p1(R)(f1,f2,f3,f4) in the given frame.

    Normalized so that (1/3) * p1 * vol(M) equals the signature on the
    frame-homogeneous catalog surfaces.
    """
    if R.dim != 4:
        raise ShapeError("Pontrjagin density requires dim 4")
    if frame is None:
        comp = R.comp  # the tensor's own frame: no rotation
    elif frame.dim != 4:
        raise ShapeError("frame dimension must be 4")
    else:
        comp = _rotate_tensor(R.comp, frame.vectors[None])[0]
    # sum_sigma sgn(sigma) tr(E_ab E_cd) over the curvature endomorphisms
    # E_ab[l,k] = R[a,b,k,l]
    total = np.einsum("abcd,abkl,cdlk->", LEVI_CIVITA[4], comp, comp)
    # 1/(2! 2!) antisymmetrization factor for the wedge of two 2-forms
    return _P1_SIGN * total / (4.0 * 8.0 * np.pi**2)


def _max_abs_per_frame(rotated: np.ndarray) -> np.ndarray:
    return np.max(np.abs(rotated), axis=(1, 2, 3, 4))


@cache
def _givens_stack(dim: int, step: float) -> np.ndarray:
    """The rotations by +step and -step in every coordinate plane (i, j),
    planes in lexicographic order, +step first: shape (2 C(dim, 2), dim, dim).

    Read-only and built once per (dim, step): every search halves its step
    through the same floats 0.2 * 2**-n, at most 38 of them."""
    planes = list(itertools.combinations(range(dim), 2))
    stack = np.tile(np.eye(dim), (2 * len(planes), 1, 1))
    for m, ((i, j), angle) in enumerate(itertools.product(planes, (step, -step))):
        c, s = np.cos(angle), np.sin(angle)
        stack[m, i, i] = c
        stack[m, j, j] = c
        stack[m, i, j] = -s
        stack[m, j, i] = s
    stack.setflags(write=False)
    return stack


def _refine_frame(comp: np.ndarray, basis: np.ndarray, steps: int = 200) -> float:
    """Coordinate descent over plane rotations, step halving on stall.

    A sweep tries every rotation of the Givens stack in turn and moves to the
    first candidate that improves on the best value.  All candidates of a
    sweep are rotated in one call; after a move, only the candidates after
    the accepted one are re-evaluated, from the new basis.
    """
    dim = basis.shape[0]
    best = float(_max_abs_per_frame(_rotate_tensor(comp, basis[None]))[0])
    step = 0.2
    givens = _givens_stack(dim, step)
    for _ in range(steps):
        pending = givens
        improved = False
        while len(pending):
            cands = pending @ basis
            vals = _max_abs_per_frame(_rotate_tensor(comp, cands))
            hits = np.flatnonzero(vals > best + 1e-15)
            if not hits.size:
                break
            m = hits[0]
            best, basis, improved = float(vals[m]), cands[m], True
            pending = pending[m + 1:]
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
            givens = _givens_stack(dim, step)
    return best


def max_abs_component(R: RiemannTensor, seed: int = 0, samples: int = 100) -> float:
    """Estimate of |R|_inf by seeded frame sampling plus refinement.

    Neither a lower nor an upper bound.  A search may stop below the true
    maximum, and its basis, a running product of rotations, drifts off
    orthonormality, so at the maximum it can round above: on cp2
    (|R|_inf = 4), seed 5 with samples=1 returns 4.000000000000049.

    Deterministic for a fixed seed and monotone nondecreasing in `samples`:
    local refinement is rerun from every prefix-improving sample.  Raises
    ValueError on a non-finite component, which no frame search can bound.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
    comp = R.comp
    if not np.all(np.isfinite(comp)):
        raise ValueError("curvature components must be finite")
    rng = np.random.default_rng(seed)
    best_raw = -np.inf
    result = 0.0
    for _ in range(samples):
        A = rng.standard_normal((R.dim, R.dim))
        Q, _r = np.linalg.qr(A)
        raw = float(_max_abs_per_frame(_rotate_tensor(comp, Q[None]))[0])
        if raw > best_raw:
            best_raw = raw
            result = max(result, _refine_frame(comp, Q))
    return result
