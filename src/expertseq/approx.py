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

from .experts import ForecastingSystem, LaplaceEstimator, prediction_matrix
from .forward import WeightMap, ZeroMarginalError
from .logprob import NEG_INF, LogMass, from_linear, logsumexp


def trim_frontier(weights: WeightMap, p: float) -> WeightMap:
    """Retain the smallest set of states reaching a fraction p of the
    frontier mass; rescale the survivors back to the original total.

    States are taken in order of descending mass, ties broken by state id,
    so the result is deterministic. p = 1 keeps everything.
    """
    _check_fraction(p)
    entries = weights.entries
    if not entries:
        raise ValueError("cannot trim an empty frontier")
    total = _total(np.fromiter(entries.values(), float, len(entries)))
    if p == 1.0:
        return WeightMap(dict(entries), weights.level)
    states = sorted(entries)
    masses = np.array([entries[q] for q in states])
    ranked, keep, shift = _ranked_cut(masses, total, p)
    kept = ranked[:keep]
    return WeightMap(dict(zip([states[j] for j in kept.tolist()], (masses[kept] + shift).tolist())),
                     weights.level)


def _check_fraction(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")


def _total(masses: np.ndarray) -> float:
    """Log-sum of a frontier's masses, folded left to right in the order
    given (the frontier's own order)."""
    total = float(np.logaddexp.reduce(masses))
    if total == NEG_INF:
        raise ValueError("cannot trim a frontier of zero mass")
    return total


def _ranked_cut(masses: np.ndarray, total: float, p: float) -> tuple[np.ndarray, int, float]:
    """The ranking core of trimming: positions of ``masses`` by descending
    mass, equal masses in the order given; the number of leading positions
    whose mass first reaches a fraction p of ``total``; and the log factor
    that rescales them back to ``total``.

    ``total`` is :func:`_total` of the same masses, folded in the
    frontier's own order; both callers fold it in the log domain, so the
    rescaled masses are the sequential definition's to the last bit.
    np.logaddexp folds left to right, so acc[j] is the mass of the top
    j + 1, non-decreasing in j. Equal masses feed it the same values in
    any order, so the cut and the factor do not depend on how ties are
    ordered; only which of the tied positions are kept does.
    """
    ranked = np.argsort(-masses, kind="stable")
    acc = np.logaddexp.accumulate(masses[ranked])
    cut = int(np.searchsorted(acc, total + from_linear(p) - 1e-12))
    return ranked, cut + 1, total - acc[cut]


class FrontierTrim:
    """Frontier hook for ForwardPass that trims to a fraction p of the mass
    after every loss update (see :func:`trim_frontier`).

    Called on a weight map it is :func:`trim_frontier`. It also trims a
    log-weight vector over a level's numbering (:meth:`trim_vector`),
    which a forward pass on level arcs uses instead of a weight map; both
    keep the same states with the same masses.
    """

    def __init__(self, p: float):
        _check_fraction(p)
        self.p = p

    def __call__(self, weights: WeightMap) -> WeightMap:
        return trim_frontier(weights, self.p)

    def trim_vector(self, vec: np.ndarray, states: Callable[[np.ndarray], list]) -> np.ndarray:
        """Trim a log-weight vector; -inf entries are not states. ``states``
        maps node indices to their tuple states, which rank equal masses
        that straddle the cut as :func:`trim_frontier` does."""
        live = np.flatnonzero(vec > NEG_INF)
        masses = vec[live]
        total = _total(masses)
        if self.p == 1.0:
            return vec
        ranked, keep, shift = _ranked_cut(masses, total, self.p)
        kept = ranked[:keep]
        if keep < len(ranked) and masses[ranked[keep]] == masses[ranked[keep - 1]]:
            # Equal masses straddle the cut: keep the tied nodes whose
            # states come first.
            tie = masses[ranked[keep - 1]]
            above = np.flatnonzero(masses > tie)
            tied = np.flatnonzero(masses == tie)
            ids = states(live[tied])
            first = sorted(range(len(tied)), key=ids.__getitem__)[:keep - len(above)]
            kept = np.concatenate([above, tied[first]])
        out = np.full(len(vec), NEG_INF)
        out[live[kept]] = masses[kept] + shift
        return out


def trimming_hook(p: float) -> FrontierTrim:
    """Frontier hook for ForwardPass: trim after every loss update."""
    return FrontierTrim(p)


def ml_estimate(experts: Sequence[ForecastingSystem], data: Sequence[int]) -> list[int]:
    """Per-step maximum-likelihood expert: argmax of the probability each
    expert assigned to the realized outcome, ties to the lowest index."""
    return np.argmax(prediction_matrix(experts, data), axis=1).tolist()


def laplace_expert_conditional(k: int) -> LaplaceEstimator:
    """Prior conditional of the universal elementwise mixture under a
    uniform weight density: (count + 1) / (n + k), which is Laplace's rule
    of succession over the k expert labels."""
    return LaplaceEstimator(k)


@dataclass
class MlConditionedResult:
    log_marginal: LogMass
    step_log_conds: list[LogMass]
    ml_sequence: list[int]


def ml_conditioned_marginal(
    prior_conditional: ForecastingSystem,
    experts: Sequence[ForecastingSystem],
    data: Sequence[int],
) -> MlConditionedResult:
    """Approximate marginal that mixes the experts at each step with the
    prior conditional on the running ML expert prefix instead of the
    posterior. The prior forecasts over expert labels; its stream is sent
    each ML label, so a run is O(n k) for Laplace's rule.

    Aborts with the step index if every expert gets zero mass at a step.
    """
    prior = prior_conditional.forecasts()
    ml_prefix: list[int] = []
    conds: list[LogMass] = []
    total = 0.0
    for i, preds in enumerate(prediction_matrix(experts, data)):
        weights = np.asarray(prior.send(ml_prefix[-1] if ml_prefix else None), dtype=float)
        step = logsumexp(weights + preds)
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
