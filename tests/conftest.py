import numpy as np
import pytest

from wcslab.geometry import STANDARD_J, OrthonormalFrame, RiemannTensor


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


def random_j_adapted_frame(rng: np.random.Generator) -> OrthonormalFrame:
    """Positively oriented orthonormal 4-frame commuting with the standard
    J: realification of a special unitary 2x2 matrix."""
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
    return OrthonormalFrame(real)


def kahler_curvature_basis() -> np.ndarray:
    """Orthonormal basis, shape (dim, 4, 4, 4, 4), of the algebraic Kahler
    curvature tensors for STANDARD_J: the null space of antisymmetry in each
    index pair, pair symmetry, the first Bianchi identity and invariance
    R(J., J., ., .) = R.  Besse, Einstein Manifolds, ch. 2: dim = 9."""
    J = STANDARD_J.matrix
    E = np.eye(256).reshape(256, 4, 4, 4, 4)  # E[n] is the n-th unit tensor
    images = [  # image of each unit tensor under each constraint map
        E + E.transpose(0, 2, 1, 3, 4),
        E + E.transpose(0, 1, 2, 4, 3),
        E - E.transpose(0, 3, 4, 1, 2),
        E + E.transpose(0, 2, 3, 1, 4) + E.transpose(0, 3, 1, 2, 4),
        np.einsum("ai,bj,nabkl->nijkl", J, J, E) - E,
    ]
    constraints = np.concatenate([im.reshape(256, 256) for im in images], axis=1).T
    _, s, vt = np.linalg.svd(constraints)
    return vt[np.sum(s > 1e-10):].reshape(-1, 4, 4, 4, 4)


KAHLER_BASIS = kahler_curvature_basis()


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
