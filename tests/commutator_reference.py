"""References for wcslab.psdo.commutator_trace_test.

The check sums the traces of row j of PQ and of QP term by term and never
forms the matrices, so it rounds in another order than compose followed by
wodzicki_residue.  The references here compose each pair and state how far
the two may differ: BOUND * eps * S, where S is the same trace sum taken
over absolute values (`trace_scale`).
"""

from math import factorial

import numpy as np

from wcslab import psdo
from wcslab.psdo import ClassicalSymbol, compose, wodzicki_residue

#: Rounding allowance, in units of eps * S, between the check's traces and
#: those of the composed rows.
BOUND = 8.0
EPS = np.finfo(float).eps


def trace_scale(P, Q, j):
    """The trace of row j of PQ at each point, (2, G), xi = +1 first, with
    every term and every product of entries at its absolute value: the sum
    over p + m + q = j of |((-i)^m / m!) d_xi^m| |sigma_p|_ik |d_x^m tau_q|_ki."""
    freqs = np.fft.fftfreq(P.grid, d=1.0 / P.grid)
    out = np.zeros((2, P.grid))
    for p in range(j + 1):
        for m in range(j - p + 1):
            tau = Q.ladder[j - p - m]
            if m:
                tau = np.fft.ifft(np.fft.fft(tau, axis=-3) * ((1j * freqs) ** m)[:, None, None],
                                  axis=-3)
            falling = abs(np.prod([float(P.order - p - t) for t in range(m)])) / factorial(m)
            out += falling * np.einsum("sgik,sgki->sg", np.abs(P.ladder[p]), np.abs(tau))
    return out


def commutator_scale(P, Q, j):
    """S of one trial: trace_scale of PQ and of QP, summed over both sides
    and averaged over the grid, as the residue is."""
    return float(np.mean((trace_scale(P, Q, j) + trace_scale(Q, P, j)).sum(axis=0)))


def commutator_trials(seed, trials, depth, grid=psdo.DEFAULT_GRID):
    """The trials of commutator_trace_test that build (j >= 0), from the
    same seeded draws: (op, oq, p_draws, q_draws, j, P, Q), with P and Q the
    whole random symbols of those draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        op = int(rng.integers(-2, 2))
        oq = int(rng.integers(-2, 2))
        p_draws = psdo._symbol_draws(rng, depth, dim)
        q_draws = psdo._symbol_draws(rng, depth, dim)
        j = op + oq + 1
        if j >= 0:
            P = psdo._band_limited_symbol(p_draws, op, grid)
            Q = psdo._band_limited_symbol(q_draws, oq, grid)
            out.append((op, oq, p_draws, q_draws, j, P, Q))
    return out


def trace_check(op, oq, p_draws, q_draws, j, grid):
    """The check's |res[P, Q]| of one trial, as commutator_trace_test takes
    it: the traces of row j of PQ and of QP, subtracted point by point and
    reduced by the residue's one reduction."""
    traces = psdo._commutator_traces(op, oq, p_draws, q_draws, j, grid)
    return abs(psdo._residue(traces[0] - traces[1]))


def commutator_trace_reference(seed, trials, depth, grid=psdo.DEFAULT_GRID):
    """One (check, reference, S) per trial of commutator_trace_test that
    builds: the check's |res[P, Q]|, the same residue with components 0..j
    of PQ and of QP each composed on its own, and the trial's S."""
    rows = []
    for op, oq, p_draws, q_draws, j, P, Q in commutator_trials(seed, trials, depth, grid):
        pq = compose(P, Q, j + 1).ladder[j]
        qp = compose(Q, P, j + 1).ladder[j]
        reference = abs(wodzicki_residue(ClassicalSymbol.from_ladder(-1, (pq - qp)[None])))
        rows.append((trace_check(op, oq, p_draws, q_draws, j, grid), reference,
                     commutator_scale(P, Q, j)))
    return rows
