from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from wcslab.geometry import LEVI_CIVITA, STANDARD_J, OrthonormalFrame, RiemannTensor


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
    star = _curvature_operator(LEVI_CIVITA[4])
    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    M -= np.trace(M @ star) / 6.0 * star
    return RiemannTensor(np.einsum("pq,pij,qkl->ijkl", M, wedges, wedges))


def _curvature_operator(comp: np.ndarray) -> np.ndarray:
    """The 6 x 6 matrix of a 4-tensor on Lambda^2 R^4, in the orthonormal
    basis e_i ^ e_j (i < j): M[(i,j), (k,l)] = comp[i, j, k, l]."""
    pairs = list(combinations(range(4), 2))
    return np.array([[comp[i, j, k, l] for k, l in pairs] for i, j in pairs])


def _golden_min(f, lo: float, hi: float) -> float:
    """The minimum of a convex f on [lo, hi] by golden-section search, to
    the last bits of the interval."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo + (1.0 - ratio) * (hi - lo), lo + ratio * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(200):
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


def exact_r_inf(R: RiemannTensor) -> float:
    """|R|_inf, the max of |R(e_a, e_b, e_c, e_d)| over orthonormal frames,
    of a 4-dimensional algebraic curvature tensor, from its curvature
    operator M on Lambda^2 and the Hodge star H, with no frame search.

    Every component is, up to sign, one of three kinds:
    - a sectional curvature K(a, b) = <M w, w>, w = e_a ^ e_b.  A unit
      2-form w is decomposable iff <H w, w> = 0 (Thorpe 1971), and the
      joint range of (M, H) is convex in dimension 6, so (Finsler's lemma)
      K_max = min_t lambda_max(M - t H) and K_min = max_t lambda_min(M - t H);
    - R(a, b, a, c) = (K(a, b') - K(a, c')) / 2 with b', c' = (b +- c)/sqrt 2,
      never above the larger of |K_max| and |K_min|;
    - the disjoint-pair R(e1, e2, e3, e4) = (<A u, u> - <C v, v>) / 2 for
      e1 ^ e2 = (u + v)/sqrt 2 with u, v unit in Lambda+ and Lambda-, which
      take any pair of values as the frame turns: A and C are the blocks of
      M on Lambda+ and Lambda-, and the max is
      max(lambda_max A - lambda_min C, lambda_max C - lambda_min A) / 2.
    """
    M = _curvature_operator(R.comp)
    H = _curvature_operator(LEVI_CIVITA[4])
    _, basis = np.linalg.eigh(H)  # Lambda- (eigenvalue -1), then Lambda+
    minus, plus = basis[:, :3], basis[:, 3:]
    a = np.linalg.eigvalsh(plus.T @ M @ plus)
    c = np.linalg.eigvalsh(minus.T @ M @ minus)
    disjoint = 0.5 * max(a[-1] - c[0], c[-1] - a[0])
    # |t| <= 2 |M| at the optimum, since lambda_max(M - t H) >= |t| - |M|.
    span = 2.0 * np.linalg.norm(M, 2) + 1.0
    k_max = _golden_min(lambda t: np.linalg.eigvalsh(M - t * H)[-1], -span, span)
    k_min = -_golden_min(lambda t: -np.linalg.eigvalsh(M - t * H)[0], -span, span)
    return float(max(k_max, -k_min, disjoint))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
