"""MAP expert-sequence estimation for the switch model.

The switch model is ambiguous (many state paths produce one expert
sequence), so plain Viterbi over states does not decode expert sequences.
The decomposition used here splits every candidate sequence at the last
re-draw point into an unstable-band left part and a constant right part,
and optimizes the two sides with a forward and a backward sweep. State
paths producing the same expert sequence are aggregated by summation
inside both sweeps; only choices between expert sequences are maximized.
Runs in O(n k) time and space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .experts import ForecastingSystem, _realized_matrix
from .forward import ZeroMarginalError
from .logprob import NEG_INF, LogMass, log_sum
from .models import SwitchConfig

_CONT, _SWITCH = 0, 1


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

    Offline by nature: the backward tables need the full sequence. Ties are
    broken toward the lexicographically smallest (split index, expert)
    pair, with continuation preferred inside the forward recursion. Data no
    expert sequence gives mass raises ZeroMarginalError at the first step
    where none has any, as ``posterior_experts(switch(cfg, k), ...)`` does.
    """
    k = cfg.num_experts
    lp_arr = _realized_matrix(experts, data, logpred_matrix, k)
    n = len(data)
    if n == 0:
        return SwitchMapResult(0.0, [], 0)
    # The sweeps below run on Python floats; numpy scalars would cost more.
    lp = lp_arr.tolist()

    law = cfg.pi_t
    haz = np.array([law.hazard(i) for i in range(1, n + 1)], dtype=float)
    with np.errstate(divide="ignore"):
        log_haz = np.log(haz).tolist()
        log_stay = np.log1p(-haz).tolist()
        logw = np.log(cfg.pi_k).tolist()
        log_theta, log_stab = float(np.log(cfg.theta)), float(np.log1p(-cfg.theta))

    ops = 0

    # Forward: best unstable-band prefixes.
    # big_l[i] = best mass of a length-i prefix that has just re-entered the
    # silent hub; lp_tab[i][x] = best mass of a length-i prefix still sitting
    # in the unstable band with expert x.
    big_l = [NEG_INF] * n          # index i = 0..n-1
    arg_l = [0] * n
    big_l[0] = 0.0
    lp_tab = [[NEG_INF] * k for _ in range(n + 1)]
    choice = [[_CONT] * k for _ in range(n + 1)]
    for x in range(k):
        lp_tab[1][x] = lp[0][x] + log_theta + logw[x]
        choice[1][x] = _SWITCH
        ops += 1
    for i in range(1, n):
        best, barg = NEG_INF, 0
        row = lp_tab[i]
        for x in range(k):
            v = row[x] + log_haz[i - 1]
            if v > best:
                best, barg = v, x
            ops += 1
        big_l[i], arg_l[i] = best, barg
        for x in range(k):
            redraw = log_theta + logw[x]
            cont = row[x] + log_sum(log_stay[i - 1], log_haz[i - 1] + redraw)
            sw = big_l[i] + redraw
            if sw > cont:
                lp_tab[i + 1][x] = lp[i][x] + sw
                choice[i + 1][x] = _SWITCH
            else:
                lp_tab[i + 1][x] = lp[i][x] + cont
                choice[i + 1][x] = _CONT
            ops += 1

    # Backward: constant-expert tails from the silent hub (r_tab) and from
    # inside the unstable band (rp_tab); tail[i][x] is the pure chain-rule
    # mass of expert x on the remaining outcomes.
    tail = np.cumsum(lp_arr[::-1], axis=0)[::-1].tolist()
    r_tab = [[NEG_INF] * k for _ in range(n + 2)]
    rp_tab = [[NEG_INF] * k for _ in range(n + 2)]
    r_tab[n + 1] = [0.0] * k
    rp_tab[n + 1] = [0.0] * k
    for i in range(n, 0, -1):
        for x in range(k):
            rp = lp[i - 1][x] + log_sum(log_haz[i - 1] + r_tab[i + 1][x],
                                        log_stay[i - 1] + rp_tab[i + 1][x])
            rp_tab[i][x] = rp
            r_tab[i][x] = log_sum(log_theta + logw[x] + rp,
                                  log_stab + logw[x] + tail[i - 1][x])
            ops += 1

    best, bi, bx = NEG_INF, 1, 0
    for i in range(1, n + 1):
        left = big_l[i - 1]
        if left == NEG_INF:
            continue
        for x in range(k):
            v = left + r_tab[i][x]
            if v > best:
                best, bi, bx = v, i, x
            ops += 1
    if best == NEG_INF:     # name the first step at which no sequence has mass
        stable = [NEG_INF] * k      # the best constant stable tail of each expert
        for i in range(1, n + 1):
            stable = [v + max(s, big_l[i - 1] + log_stab + w)
                      for v, s, w in zip(lp[i - 1], stable, logw)]
            if max(stable + lp_tab[i]) == NEG_INF:
                raise ZeroMarginalError(i)

    seq = [0] * n
    for j in range(bi - 1, n):
        seq[j] = bx
    pos = bi - 1
    if pos >= 1:
        cur = arg_l[pos]
        while True:
            seq[pos - 1] = cur
            if pos == 1:
                break
            if choice[pos][cur] == _SWITCH:
                cur = arg_l[pos - 1]
            pos -= 1
    return SwitchMapResult(best, seq, ops)


def map_probability(cfg, experts, data, **kw) -> LogMass:
    """max over expert sequences of the joint log mass P(x^n, xi^n)."""
    return switch_map(cfg, experts, data, **kw).log_probability


def map_sequence(cfg, experts, data, **kw) -> list[int]:
    """An expert sequence achieving map_probability."""
    return switch_map(cfg, experts, data, **kw).sequence
