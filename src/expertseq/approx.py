"""Fast approximations: frontier trimming and the ML conditioning trick.

Trimming keeps the forward pass exact in shape but drops low-mass states;
the ML conditioning trick replaces the posterior on experts by a prior
conditional evaluated at the running maximum-likelihood expert sequence,
which costs O(n k) regardless of the prior's state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .experts import ForecastingSystem, _RunningCounts, prediction_matrix
from .forward import WeightMap, ZeroMarginalError
from .logprob import NEG_INF, LogMass, from_linear, logsumexp


def trim_frontier(weights: WeightMap, p: float) -> WeightMap:
    """Retain the smallest set of states reaching a fraction p of the
    frontier mass; rescale the survivors back to the original total.

    States are taken in order of descending mass, ties broken by state id,
    so the result is deterministic. p = 1 keeps everything.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    entries = weights.entries
    if not entries:
        raise ValueError("cannot trim an empty frontier")
    # np.logaddexp folds left to right, so total is the sum in dict order
    # and acc[j] the mass of the top j + 1 states, non-decreasing in j.
    total = float(np.logaddexp.reduce(np.fromiter(entries.values(), float, len(entries))))
    if total == NEG_INF:
        raise ValueError("cannot trim a frontier of zero mass")
    if p == 1.0:
        return WeightMap(dict(entries), weights.level)
    threshold = total + from_linear(p)
    states = sorted(entries)
    masses = np.array([entries[q] for q in states])
    ranked = np.argsort(-masses, kind="stable")   # descending mass, then state id
    acc = np.logaddexp.accumulate(masses[ranked])
    cut = int(np.searchsorted(acc, threshold - 1e-12))
    kept = ranked[: cut + 1]
    scaled = masses[kept] + (total - acc[cut])
    return WeightMap(dict(zip([states[j] for j in kept.tolist()], scaled.tolist())),
                     weights.level)


def trimming_hook(p: float) -> Callable[[WeightMap], WeightMap]:
    """Frontier hook for ForwardPass: trim after every loss update."""
    return lambda wm: trim_frontier(wm, p)


def ml_estimate(experts: Sequence[ForecastingSystem], data: Sequence[int]) -> list[int]:
    """Per-step maximum-likelihood expert: argmax of the probability each
    expert assigned to the realized outcome, ties to the lowest index."""
    return np.argmax(prediction_matrix(experts, data), axis=1).tolist()


def laplace_expert_conditional(k: int) -> Callable[[Sequence[int]], np.ndarray]:
    """Prior conditional of the universal elementwise mixture under a
    uniform weight density: (count + 1) / (n + k), the rule of succession
    generalized to k experts. Counts are kept running and memoised by
    prefix, so the growing prefix of ``ml_conditioned_marginal`` costs
    O(k) per step. A prefix label outside 0..k-1 raises ValueError naming
    its position."""
    counts = _RunningCounts(k, noun="expert label")

    def conditional(prefix: Sequence[int]) -> np.ndarray:
        return np.log((counts(prefix) + 1.0) / (len(prefix) + k))
    return conditional


@dataclass
class MlConditionedResult:
    log_marginal: LogMass
    step_log_conds: list[LogMass]
    ml_sequence: list[int]


def ml_conditioned_marginal(
    prior_conditional: Callable[[Sequence[int]], np.ndarray],
    experts: Sequence[ForecastingSystem],
    data: Sequence[int],
) -> MlConditionedResult:
    """Approximate marginal that mixes the experts at each step with the
    prior conditional on the running ML expert prefix instead of the
    posterior; O(n k) for count-based conditionals.

    Aborts with the step index if every expert gets zero mass at a step.
    """
    ml_prefix: list[int] = []
    conds: list[LogMass] = []
    total = 0.0
    for i, preds in enumerate(prediction_matrix(experts, data)):
        prior = np.asarray(prior_conditional(ml_prefix), dtype=float)
        step = logsumexp(prior + preds)
        if step == NEG_INF:
            raise ZeroMarginalError(i + 1)
        conds.append(step)
        total += step
        ml_prefix.append(int(np.argmax(preds)))
    return MlConditionedResult(total, conds, ml_prefix)


def kl_divergence(p, q, base: float = 2.0) -> float:
    """sum_i p_i log(p_i / q_i) for linear probability vectors; +inf where
    q vanishes on the support of p. Base 2 by default."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("supports must align")
    total = 0.0
    for pi, qi in zip(p.ravel(), q.ravel()):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return np.inf
        total += pi * (np.log(pi) - np.log(qi))
    return total / np.log(base)
