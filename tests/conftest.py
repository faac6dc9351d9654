from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from wcslab import geometry
from wcslab.geometry import STANDARD_J, RiemannTensor


def random_curvature_3d(rng: np.random.Generator) -> RiemannTensor:
    """Random algebraic curvature tensor in dim 3.

    Built from a symmetric bilinear form on Lambda^2 R^3; in dimension 3
    the first Bianchi identity is automatic.  Normalized to unit sup norm.
    """
    basis = []
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j], m[j, i] = 1.0, -1.0
            basis.append(m)
    S = rng.standard_normal((3, 3))
    S = 0.5 * (S + S.T)
    comp = np.einsum("ab,aij,bkl->ijkl", S, np.array(basis), np.array(basis))
    comp /= max(1.0, np.max(np.abs(comp)))
    return RiemannTensor(comp)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random special orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def random_j_adapted_frame(rng: np.random.Generator) -> np.ndarray:
    """Positively oriented orthonormal 4-frame commuting with the standard
    J, its vectors as rows: realification of a special unitary 2x2 matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    q /= np.linalg.det(q) ** 0.5  # special unitary
    real = np.zeros((4, 4))
    # complex coordinate pairs (0,1) and (2,3); J = multiplication by i
    for a in range(2):
        for b in range(2):
            real[2 * a, 2 * b] = q[a, b].real
            real[2 * a, 2 * b + 1] = -q[a, b].imag
            real[2 * a + 1, 2 * b] = q[a, b].imag
            real[2 * a + 1, 2 * b + 1] = q[a, b].real
    return real


def kahler_constraints(T: np.ndarray) -> np.ndarray:
    """Matrix whose column n is the image of the tensor T[n] under the
    constraint maps of an algebraic Kahler curvature tensor for STANDARD_J:
    antisymmetry in each index pair, pair symmetry, the first Bianchi
    identity and invariance R(J., J., ., .) = R."""
    J = STANDARD_J.matrix
    images = [
        T + T.transpose(0, 2, 1, 3, 4),
        T + T.transpose(0, 1, 2, 4, 3),
        T - T.transpose(0, 3, 4, 1, 2),
        T + T.transpose(0, 2, 3, 1, 4) + T.transpose(0, 3, 1, 2, 4),
        np.einsum("ai,bj,nabkl->nijkl", J, J, T) - T,
    ]
    return np.concatenate([im.reshape(len(T), -1) for im in images], axis=1).T


def kahler_curvature_basis() -> np.ndarray:
    """Orthonormal basis, shape (dim, 4, 4, 4, 4), of the algebraic Kahler
    curvature tensors: the null space of kahler_constraints over the unit
    tensors.  Besse, Einstein Manifolds, ch. 2: dim = 9."""
    E = np.eye(256).reshape(256, 4, 4, 4, 4)  # E[n] is the n-th unit tensor
    _, s, vt = np.linalg.svd(kahler_constraints(E))
    return vt[np.sum(s > 1e-10):].reshape(-1, 4, 4, 4, 4)


KAHLER_BASIS = kahler_curvature_basis()


def exact_kahler_basis() -> np.ndarray:
    """A basis of the same space in exact arithmetic, shape (9, 4, 4, 4, 4).

    The candidates are the 21 symmetric products of the 2-forms e_i ^ e_j,
    which are antisymmetric and pair symmetric; the null space of
    kahler_constraints over them comes from row reduction in Fractions.
    Its entries are small integers, so they are exact as floats, where the
    SVD basis above meets the constraints only to about 1e-15.
    """
    wedges = [np.outer(a, b) - np.outer(b, a) for a, b in combinations(np.eye(4), 2)]
    T = np.array([np.multiply.outer(a, b) + np.multiply.outer(b, a)
                  for a, b in combinations_with_replacement(wedges, 2)])
    rows = [[Fraction(int(x)) for x in row] for row in kahler_constraints(T) if row.any()]
    pivots = []
    for col in range(len(T)):  # reduced row echelon form
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(len(T))) - set(pivots)):
        v = np.zeros(len(T), dtype=object)
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        basis.append(np.tensordot(v, T.astype(object), axes=1))
    return np.array(basis, dtype=float)


EXACT_KAHLER_BASIS = exact_kahler_basis()


def random_curvature_4d(rng: np.random.Generator) -> RiemannTensor:
    """Random algebraic curvature tensor in dim 4: a symmetric bilinear form
    M on Lambda^2 R^4 with its Hodge-star part removed, which in dimension
    4 is the first Bianchi identity (tr(M *) = 0)."""
    wedges = np.array([np.outer(a, b) - np.outer(b, a) for a, b in combinations(np.eye(4), 2)])
    star = geometry._HODGE
    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    M -= np.trace(M @ star) / 6.0 * star
    return RiemannTensor(np.einsum("pq,pij,qkl->ijkl", M, wedges, wedges))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
