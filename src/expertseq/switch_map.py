"""MAP expert-sequence estimation for the switch model.

The switch model is ambiguous (many state paths produce one expert
sequence), so plain Viterbi over states does not decode expert sequences.
The decomposition used here splits every candidate sequence at the last
re-draw point into an unstable-band left part and a constant right part,
and optimizes the two sides with a forward and a backward sweep. State
paths producing the same expert sequence are aggregated by summation
inside both sweeps; only choices between expert sequences are maximized.

Runs in O(n k) time. A constant right part's likelihood factors out of
its prior, and the prior depends on an expert only through its weight, so
the backward sweep is one log-sum per step and distinct weight of pi_k.
Everything that does not depend on the forward sweep is one numpy array
over the n x k cells (step, expert), computed once; the forward sweep does
no log-sum, only three additions and one comparison per cell, and keeps
its current row and one re-draw bit per cell. The arrays held are O(n k)
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experts import ForecastingSystem, _realized_matrix
from .forward import ZeroMarginalError
from .logprob import NEG_INF, LogMass, log_sum
from .models import SwitchConfig


@dataclass
class SwitchMapResult:
    log_probability: LogMass
    sequence: list[int]
    ops: int


def switch_map(
    cfg: SwitchConfig,
    experts: Sequence[ForecastingSystem] | None,
    data: Sequence[int],
    *,
    logpred_matrix: np.ndarray | None = None,
) -> SwitchMapResult:
    """Jointly most probable expert sequence under the switch prior.

    Offline by nature: the right parts need the likelihood of the whole
    remaining sequence. Ties are broken toward the lexicographically
    smallest (split index, expert) pair, with continuation preferred inside
    the forward recursion. Data no expert sequence gives mass raises
    ZeroMarginalError at the first step where none has any, as
    ``posterior_experts(switch(cfg, k), ...)`` does. ``ops`` counts the
    cells the sweeps and the final choice visit, k (3n - 1) plus k for
    every split whose left part has mass.
    """
    k = cfg.num_experts
    lp_arr = _realized_matrix(experts, data, logpred_matrix, k)
    n = len(data)
    if n == 0:
        return SwitchMapResult(0.0, [], 0)

    law = cfg.pi_t
    haz = np.array([law.hazard(i) for i in range(1, n + 1)], dtype=float)
    with np.errstate(divide="ignore"):
        log_haz, log_stay = np.log(haz), np.log1p(-haz)
        logw = np.log(cfg.pi_k)
        log_theta, log_stab = float(np.log(cfg.theta)), float(np.log1p(-cfg.theta))
    # The prior terms are (n, u) arrays over the u distinct weights ws;
    # column of[x] is expert x's. Row i - 1 of cont is the mass of carrying
    # on in the unstable band past step i: stay, or escape and be drawn again.
    ws, of = np.unique(logw, return_inverse=True)
    cont = np.logaddexp(log_stay[:, None], log_haz[:, None] + (log_theta + ws))

    # Backward: the constant tail of expert x from inside the unstable band
    # at step i has the mass tail[i - 1][x] + q[i - 1][of[x]], its
    # likelihood and its prior: the band carries on, or escapes and
    # stabilises. At step n the band ends, as staying and escaping both
    # close the sequence.
    end = log_sum(float(log_haz[-1]), float(log_stay[-1]))
    cols = []
    for cj, sj in zip(cont[-2::-1].T.tolist(),
                      (log_haz[-2::-1, None] + (log_stab + ws)).T.tolist()):
        v, col = end, [end]
        for c, h in zip(cj, sj):
            v = log_sum(c + v, h)
            col.append(v)
        cols.append(col)
    # r[i - 1][x]: the best right part from the silent hub at split i, which
    # re-enters the band or stabilises.
    q = np.array(cols).T[::-1]
    tail = np.cumsum(lp_arr[::-1], axis=0)[::-1]
    r = tail + np.logaddexp((log_theta + ws) + q, log_stab + ws)[:, of]
    del cols, q, tail       # not held beside the forward sweep's lists

    # Forward: row[x] is the best mass of a length-i prefix still in the
    # unstable band with expert x, tops[i] its maximum and arg_l[i] the
    # first expert reaching it; big_l[i] = tops[i] + log_haz[i - 1] is the
    # best mass of a length-i prefix that has just re-entered the silent
    # hub, and big_l[0] = 0 that of the empty prefix. Bit (i - 2) * k + x
    # of redrew is set where row i of x is reached by a re-draw from the hub.
    lp = lp_arr.tolist()
    lw, rd, lh = logw.tolist(), (log_theta + logw).tolist(), log_haz.tolist()
    tops, arg_l = [0.0] * (n + 1), [0] * n
    row = [v + log_theta + w for v, w in zip(lp[0], lw)]
    redrew = bytearray()
    bit = redrew.append
    for i, (lpi, ci) in enumerate(zip(lp[1:], cont[:, of].tolist()), start=1):
        top = max(row)
        tops[i], arg_l[i] = top, row.index(top)
        big = top + lh[i - 1]
        new = []
        put = new.append
        for v, c, w, l in zip(row, ci, rd, lpi):
            c += v
            w += big
            if w > c:
                put(l + w)
                bit(1)
            else:
                put(l + c)
                bit(0)
        row = new
    tops[n] = max(row)
    big_l = np.array(tops[:n])
    big_l[1:] += log_haz[:-1]

    # The best split: the first maximum in row-major order is the smallest
    # (split, expert) pair; a split after a dead prefix is -inf.
    joint = big_l[:, None] + r
    at = int(joint.argmax())
    best = float(joint.flat[at])
    bi, bx = divmod(at, k)
    bi += 1
    ops = k * (3 * n - 1 + int(np.count_nonzero(big_l > NEG_INF)))
    if best == NEG_INF:     # name the first step at which no sequence has mass
        kept = [NEG_INF] * k      # the best constant stable tail of each expert
        for i, left in enumerate(big_l.tolist(), start=1):
            kept = [v + max(s, left + log_stab + w) for v, s, w in zip(lp[i - 1], kept, lw)]
            if max(kept) == NEG_INF and tops[i] == NEG_INF:
                raise ZeroMarginalError(i)

    seq = [bx] * n
    cur = arg_l[bi - 1]
    for pos in range(bi - 1, 0, -1):
        seq[pos - 1] = cur
        if pos > 1 and redrew[(pos - 2) * k + cur]:
            cur = arg_l[pos - 1]
    return SwitchMapResult(best, seq, ops)


def map_probability(cfg, experts, data, **kw) -> LogMass:
    """max over expert sequences of the joint log mass P(x^n, xi^n)."""
    return switch_map(cfg, experts, data, **kw).log_probability


def map_sequence(cfg, experts, data, **kw) -> list[int]:
    """An expert sequence achieving map_probability."""
    return switch_map(cfg, experts, data, **kw).sequence
