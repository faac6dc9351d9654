"""An operator-level oracle for the symbol calculus of wcslab.psdo.

On S^1 a classical symbol acts on Fourier modes by toroidal quantization,
Op(sigma) e^{inx} = sigma(x, n) e^{inx}, with
sigma(x, n) = sum_j |n|^{order - j} sigma_j(x, sign n) for n != 0 (McLean,
Math. Nachr. 150, 1991; Ruzhansky-Turunen, Pseudo-Differential Operators
and Symmetries, 2010, ch. 4); mode 0 is sent to 0, a smoothing change.  For
band-limited symbols and inputs the sums are finite and exact on the grid,
so the operators owe nothing to the asymptotic product: if PQ is the
product truncated at `depth` components, Op(P) Op(Q) - Op(PQ) on e^{inx}
falls off like |n|^{order(P) + order(Q) - depth}.
"""

import numpy as np


def apply_op(sym, u_hat):
    """Op(sym) u on the grid, (G, d, c), for c columns of d-vectors u given
    by their FFT along the grid, u_hat (G, d, c)."""
    grid = sym.grid
    n = np.fft.fftfreq(grid, d=1.0 / grid)
    x = 2.0 * np.pi * np.arange(grid) / grid
    size = np.where(n == 0, 1.0, np.abs(n))  # mode 0 is zeroed below
    powers = size[:, None] ** (float(sym.order) - np.arange(sym.depth))  # (mode, place)
    # sigma(x, n) e^{inx} / G for every mode n, (mode, G, d, d); xi = sign n
    sigma = np.einsum("kj,jkxab->kxab", powers, sym.ladder[:, (n < 0).astype(int)])
    sigma *= np.exp(1j * np.outer(n, x))[:, :, None, None] / grid
    sigma[n == 0] = 0.0
    return np.einsum("kxab,kbc->xac", sigma, u_hat, optimize=True)


def defect_slope(left, right, product, modes):
    """The least-squares slope, against log n, of the log of
    max |Op(left) Op(right) e^{+-inx} - Op(product) e^{+-inx}| over n in
    `modes`: the max over x, both signs and the basis vectors.  A product
    of None stands for the identity."""
    grid, dim = left.grid, left.fiber_dim
    waves = [sign * n for n in modes for sign in (1, -1)]
    u_hat = np.zeros((grid, dim, len(waves), dim), dtype=complex)
    for i, n in enumerate(waves):
        u_hat[n % grid, :, i] = grid * np.eye(dim)
    u_hat = u_hat.reshape(grid, dim, -1)
    lhs = apply_op(left, np.fft.fft(apply_op(right, u_hat), axis=0))
    rhs = np.fft.ifft(u_hat, axis=0) if product is None else apply_op(product, u_hat)
    errors = np.abs(lhs - rhs).reshape(grid, dim, len(modes), 2, dim).max(axis=(0, 1, 3, 4))
    return float(np.polyfit(np.log(modes), np.log(errors), 1)[0])
