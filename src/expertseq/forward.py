"""The generalized forward algorithm, backward posteriors and Viterbi.

The forward pass is strictly online: each outcome is consumed once, the
retained state is one weight map over a single level interval, and the
marginal so far is available after every step. Work and space counters
are exposed so the complexity contracts of the models can be checked.

A model that provides level arcs runs as a log-weight vector plus a label
array (:func:`~expertseq.hmm.propagate_arcs`), and its smoothed posterior
pulls the backward vector through the same arcs
(:func:`~expertseq.hmm.pull_arcs`); every other run keeps a weight map of
tuple states and :func:`~expertseq.hmm.propagate_frontier`, and its
posterior replays the recorded silent regions in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .experts import ForecastingSystem, _check_logpreds, _realized_matrix
from .hmm import HmmModel, LevelArcs, StateId, propagate_arcs, propagate_frontier, pull_arcs
from .logprob import (NEG_INF, LogMass, log_sum, log_sum_iter, logsumexp, logsumexp_by,
                      logsumexp_columns)


@dataclass
class WeightMap:
    """The forward frontier: a partial map from states to log mass."""

    entries: dict[StateId, LogMass]
    level: int

    def total(self) -> LogMass:
        return log_sum_iter(self.entries.values())


class ZeroMarginalError(RuntimeError):
    """The running marginal hit probability zero; carries the 1-based step."""

    def __init__(self, step: int):
        super().__init__(f"marginal is zero at step {step}")
        self.step = step


class AmbiguousModelError(ValueError):
    """Viterbi over expert sequences is only sound for unambiguous models."""


@dataclass
class StepRecord:
    log_cond: LogMass                 # log P(x_i | x^{i-1})
    pre_update_total: LogMass         # frontier log-sum before the loss update
    expert_dist: np.ndarray           # log P(xi_i = . | x^{i-1})
    outcome_dist: np.ndarray | None   # log P(x_i = . | x^{i-1}), experts mode only


class ForwardPass:
    """Incremental forward evaluation of one (model, experts, data) triple.

    Expert predictions come either from a list of forecasting systems,
    each asked once per step, or, for evaluation-only runs, from a
    precomputed (n, k) matrix of log probabilities assigned to the realized
    outcomes; the matrix is validated once, here. In experts mode the k
    forecasts of a step form one (k, alphabet) array, which gives both the
    realized likelihoods and, with ``want_outcome_dists``, the
    next-outcome distribution in one column-wise log-sum-exp. Each step
    builds one ``StepRecord``: ``last_step``, also appended to ``steps``
    unless ``keep_steps`` is false.

    When the model provides level arcs, the frontier is a log-weight
    vector over the level's numbering; a ``WeightMap`` is built only for
    ``frontier_hook`` and ``weight_map``, and the hook's result is written
    back into the vector. With ``record_regions``, each level appends to
    ``regions`` and ``stratum_weights``: on that array path the level's
    ``LevelArcs`` and its post-update log-weight vector, otherwise the
    live ``(state, successors)`` pairs in topological order and a copy of
    the post-update weight map.
    """

    def __init__(
        self,
        model: HmmModel,
        experts: Sequence[ForecastingSystem] | None = None,
        *,
        logpred_matrix: np.ndarray | None = None,
        frontier_hook: Callable[[WeightMap], WeightMap] | None = None,
        record_regions: bool = False,
        want_outcome_dists: bool = False,
        keep_steps: bool = True,
    ):
        if (experts is None) == (logpred_matrix is None):
            raise ValueError("provide either experts or a logpred matrix")
        if experts is not None and len(experts) != model.num_experts:
            raise ValueError(
                f"model labels {model.num_experts} experts, got {len(experts)}")
        self.model = model
        self.experts = list(experts) if experts is not None else None
        self._matrix = (None if logpred_matrix is None
                        else _check_logpreds(np.asarray(logpred_matrix, dtype=float)))
        self._hook = frontier_hook
        self._record_regions = record_regions
        self._want_outcome = want_outcome_dists and experts is not None
        # keep_steps=False keeps memory bounded by the frontier on long
        # streams; per-step records are then discarded after advance().
        self._keep_steps = keep_steps

        self.history: list[int] = []
        self.steps: list[StepRecord] = []
        self.last_step: StepRecord | None = None
        self.transitions_per_level: list[int] = []
        self.peak_weights = 0
        self.log_marginal: LogMass = 0.0
        self.regions: list[list | LevelArcs] = []
        self.stratum_weights: list[dict | np.ndarray] = []

        # Array frontiers are numbered by the level that produced them
        # (None: initial() order).
        self._levels = model.level_arcs()
        initial = model.initial()
        self._frontier: dict[StateId, LogMass] | np.ndarray = (
            dict(initial) if self._levels is None
            else np.array([v for _, v in initial], dtype=float))
        self._level: LevelArcs | None = None
        self._pre_level: LevelArcs | None = None
        self._t = 0
        self._pre: dict[StateId, LogMass] | np.ndarray | None = None
        self._pre_total: LogMass = NEG_INF
        self._pre_by_label: np.ndarray | None = None   # array frontiers only
        self._preds: np.ndarray | None = None     # (k, alphabet), experts mode

    # -- propagation and per-step predictions -----------------------------

    def _ensure_propagated(self) -> None:
        if self._pre is not None:
            return
        if self._levels is not None:
            self._pre_level = next(self._levels)
            pre, transitions, peak = propagate_arcs(self._frontier, self._pre_level.layers)
            self._pre_by_label = logsumexp_by(
                pre, self._pre_level.labels, self.model.num_experts)
            self._pre_total = logsumexp(self._pre_by_label)
            record = self._pre_level
        else:
            record = [] if self._record_regions else None
            pre, transitions, peak = propagate_frontier(
                self.model, self._frontier, self._t + 1, record=record)
            self._pre_total = log_sum_iter(pre.values())
        if self._record_regions:
            self.regions.append(record)
        self._pre = pre
        self.transitions_per_level.append(transitions)
        if peak > self.peak_weights:
            self.peak_weights = peak

    def _expert_preds(self) -> np.ndarray:
        if self._preds is None:
            hist = self.history
            self._preds = np.array([e.predict(hist) for e in self.experts])
        return self._preds

    def predict_expert(self) -> np.ndarray:
        """log P(xi_{t+1} = . | x^t) from the propagated frontier."""
        self._ensure_propagated()
        k = self.model.num_experts
        if self._levels is not None:
            by_label = self._pre_by_label
        else:
            by_label = np.full(k, NEG_INF)
            label = self.model.label
            acc: dict[int, list[float]] = {}
            for q, v in self._pre.items():
                acc.setdefault(label(q), []).append(v)
            for lab, vals in acc.items():
                by_label[lab] = log_sum_iter(vals)
        if self._pre_total == NEG_INF:
            raise ZeroMarginalError(self._t + 1)
        return by_label - self._pre_total

    def predict_outcome(self) -> np.ndarray:
        """log P(x_{t+1} = . | x^t), averaging expert forecasts by weight."""
        if self.experts is None:
            raise ValueError("outcome prediction requires full expert forecasts")
        return self._mix_outcome(self.predict_expert())

    def _mix_outcome(self, expert_dist: np.ndarray) -> np.ndarray:
        return logsumexp_columns(self._expert_preds() + expert_dist[:, None])

    # -- consuming data ----------------------------------------------------

    def advance(self, symbol: int) -> LogMass:
        """Consume one outcome; returns log P(x_{t+1} | x^t)."""
        self._ensure_propagated()
        pre, pre_total = self._pre, self._pre_total
        step = self._t + 1

        expert_dist = self.predict_expert()
        outcome_dist = self._mix_outcome(expert_dist) if self._want_outcome else None

        if self.experts is not None:
            symbol = int(symbol)
            if not 0 <= symbol < self.experts[0].size:
                raise ValueError(f"symbol {symbol!r} at step {step} is outside the alphabet")
            lp = self._expert_preds()[:, symbol]
        else:
            if self._t >= len(self._matrix):
                raise ValueError(f"logpred matrix exhausted at step {step}")
            lp = self._matrix[self._t]

        level = self._pre_level
        if level is not None:
            post = pre + lp[level.labels]
            live = int(np.count_nonzero(post > NEG_INF))
            if not live:
                raise ZeroMarginalError(step)
            # The post-update mass of each label is its pre-update mass
            # times that expert's likelihood.
            new_marginal = logsumexp(self._pre_by_label + lp)
        else:
            label = self.model.label
            post = {}
            for q, v in pre.items():
                m = v + lp[label(q)]
                if m != NEG_INF:
                    post[q] = m
            if not post:
                raise ZeroMarginalError(step)
            new_marginal = log_sum_iter(post.values())
        log_cond = new_marginal - self.log_marginal

        if self._hook is not None:
            if level is not None:
                wm = self._hook(_vector_weight_map(post, level, step))
                post = _weight_map_vector(wm, level, len(post))
                live = len(wm.entries)
            else:
                wm = self._hook(WeightMap(post, step))
                post = wm.entries
        if self._record_regions:
            self.stratum_weights.append(post if level is not None else dict(post))
        size = live if level is not None else len(post)
        if size > self.peak_weights:
            self.peak_weights = size

        self.last_step = StepRecord(log_cond, pre_total, expert_dist, outcome_dist)
        if self._keep_steps:
            self.steps.append(self.last_step)
        self.log_marginal = new_marginal
        self._frontier = post
        self._level = level
        self.history.append(symbol if self.experts is not None else int(symbol))
        self._t += 1
        self._pre = None
        self._preds = None
        return log_cond

    @property
    def weight_map(self) -> WeightMap:
        if self._levels is None:
            return WeightMap(dict(self._frontier), self._t)
        if self._level is None:
            return WeightMap(dict(self.model.initial()), 0)
        return _vector_weight_map(self._frontier, self._level, self._t)


def _vector_weight_map(vec: np.ndarray, level: LevelArcs, t: int) -> WeightMap:
    live = np.flatnonzero(vec > NEG_INF)
    return WeightMap(dict(zip(level.states(live), vec[live].tolist())), t)


def _weight_map_vector(wm: WeightMap, level: LevelArcs, size: int) -> np.ndarray:
    vec = np.full(size, NEG_INF)
    if wm.entries:
        vec[level.indices(list(wm.entries))] = list(wm.entries.values())
    return vec


@dataclass
class ForwardResult:
    log_marginal: LogMass
    steps: list[StepRecord]
    transitions_per_level: list[int]
    peak_weights: int
    n: int

    @property
    def step_log_conds(self) -> list[LogMass]:
        return [s.log_cond for s in self.steps]

    @property
    def expert_dists(self) -> list[np.ndarray]:
        return [s.expert_dist for s in self.steps]

    @property
    def outcome_dists(self) -> list[np.ndarray | None]:
        return [s.outcome_dist for s in self.steps]


def forward_marginal(
    model: HmmModel,
    experts: Sequence[ForecastingSystem] | None,
    data: Sequence[int],
    *,
    logpred_matrix: np.ndarray | None = None,
    frontier_hook: Callable[[WeightMap], WeightMap] | None = None,
    want_outcome_dists: bool | None = None,
) -> ForwardResult:
    """Run the forward algorithm over a whole sequence.

    Returns the marginal log mass of the data plus the per-step next-expert
    and (in experts mode) next-outcome predictive distributions. Aborts
    with ZeroMarginalError if the marginal hits zero mid-stream.
    """
    if want_outcome_dists is None:
        want_outcome_dists = experts is not None
    fp = ForwardPass(
        model, experts, logpred_matrix=logpred_matrix,
        frontier_hook=frontier_hook, want_outcome_dists=want_outcome_dists)
    for x in data:
        fp.advance(x)
    return ForwardResult(
        fp.log_marginal, fp.steps, fp.transitions_per_level, fp.peak_weights, len(fp.history))


def posterior_experts(
    model: HmmModel,
    experts: Sequence[ForecastingSystem] | None,
    data: Sequence[int],
    *,
    logpred_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Smoothed per-step expert posterior P(xi_i = . | x^n) as an (n, k)
    grid of log masses, each row log-summing to 0.

    Computed as forward times backward over productive states, projected
    down to expert labels. A recording forward pass keeps each level; the
    backward sweep then pulls beta back one stratum per level, through the
    level's arcs with :func:`~expertseq.hmm.pull_arcs` when the model
    provides level arcs, otherwise by replaying the recorded silent region
    in reverse topological order. Raises ZeroMarginalError with the first
    step at which the marginal vanishes.
    """
    n = len(data)
    lp_all = _realized_matrix(experts, data, logpred_matrix, model.num_experts)
    fp = ForwardPass(model, logpred_matrix=lp_all, record_regions=True)
    for x in data:
        fp.advance(x)

    grid = np.full((n, model.num_experts), NEG_INF)
    rows = _array_rows if fp._levels is not None else _tuple_rows
    for i, row in zip(range(n, 0, -1), rows(fp, lp_all)):
        total = logsumexp(row)
        if total == NEG_INF:
            raise ZeroMarginalError(i)
        grid[i - 1] = row - total
    return grid


def _array_rows(fp: ForwardPass, lp_all: np.ndarray):
    """Unnormalised posterior rows of strata n, n - 1, ..., 1 of a run
    recorded on the array path."""
    k = fp.model.num_experts
    post = fp.stratum_weights
    # beta = log P(x_{i+1..n} | node, x^i) over the nodes of stratum i.
    beta = np.zeros(len(post[-1]))
    for i in range(len(post), 0, -1):
        level = fp.regions[i - 1]
        yield logsumexp_by(post[i - 1] + beta, level.labels, k)
        if i > 1:
            beta = pull_arcs(beta + lp_all[i - 1][level.labels], level.layers, len(post[i - 2]))


def _tuple_rows(fp: ForwardPass, lp_all: np.ndarray):
    """Unnormalised posterior rows of strata n, n - 1, ..., 1 of a run
    recorded on the tuple path."""
    model = fp.model
    k = model.num_experts
    label, is_prod, level = model.label, model.is_productive, model.level
    n = len(fp.stratum_weights)
    # beta[q] = log P(x_{i+1..n} | q, x^i) for q in stratum i.
    beta: dict[StateId, LogMass] = {q: 0.0 for q in fp.stratum_weights[n - 1]}
    for i in range(n, 0, -1):
        fwd = fp.stratum_weights[i - 1]
        row = np.full(k, NEG_INF)
        acc: dict[int, LogMass] = {}
        for q, f in fwd.items():
            b = beta.get(q, NEG_INF)
            if b == NEG_INF:
                continue
            lab = label(q)
            m = f + b
            acc[lab] = log_sum(acc[lab], m) if lab in acc else m
        for lab, v in acc.items():
            row[lab] = v
        yield row

        if i == 1:
            break
        # Replay the silent region between strata i-1 and i in reverse
        # topological order to pull beta back one stratum.
        lp = lp_all[i - 1]
        node_beta: dict[StateId, LogMass] = {}
        for q, b in beta.items():
            node_beta[q] = b + lp[label(q)]
        prev_beta: dict[StateId, LogMass] = {}
        for u, succ in reversed(fp.regions[i - 1]):
            vals = []
            for v, w in succ:
                bv = node_beta.get(v, NEG_INF)
                if bv != NEG_INF:
                    vals.append(w + bv)
            b = log_sum_iter(vals)
            node_beta[u] = b
            if is_prod(u) and level(u) == i - 1:
                prev_beta[u] = b
        beta = prev_beta


def viterbi_unambiguous(
    model: HmmModel,
    experts: Sequence[ForecastingSystem] | None,
    data: Sequence[int],
    *,
    logpred_matrix: np.ndarray | None = None,
) -> tuple[list[int], LogMass]:
    """Most probable expert sequence and its joint log mass.

    Sound only for models declaring themselves unambiguous: one expert
    sequence corresponds to one productive-state path, so silent detours
    between consecutive productive states are aggregated by summation and
    the maximization runs over productive choices. Ties go to the lowest
    expert index at each maximization.
    """
    if not model.unambiguous:
        raise AmbiguousModelError(
            "model is declared ambiguous; use the switch MAP decoder or brute force")
    lp_all = _realized_matrix(experts, data, logpred_matrix, model.num_experts)
    n = len(data)
    if n == 0:
        return [], 0.0

    label = model.label

    # values[q] = best joint log mass over expert prefixes reaching q;
    # parents[i][q] = predecessor productive state on that best path.
    sinks, _, _ = propagate_frontier(model, dict(model.initial()), 1)
    lp = lp_all[0]
    values: dict[StateId, LogMass] = {}
    parents: list[dict[StateId, StateId | None]] = [{}]
    for q, v in sinks.items():
        m = v + lp[label(q)]
        if m != NEG_INF:
            values[q] = m
            parents[0][q] = None
    if not values:
        raise ZeroMarginalError(1)

    for i in range(1, n):
        lp = lp_all[i]
        best: dict[StateId, tuple[LogMass, StateId]] = {}
        for q in sorted(values, key=lambda s: (label(s), s)):
            arrivals, _, _ = propagate_frontier(model, {q: values[q]}, i + 1)
            for v, m in arrivals.items():
                if v not in best or m > best[v][0]:
                    best[v] = (m, q)
        values = {}
        parent_row: dict[StateId, StateId | None] = {}
        for v, (m, q) in best.items():
            m2 = m + lp[label(v)]
            if m2 != NEG_INF:
                values[v] = m2
                parent_row[v] = q
        if not values:
            raise ZeroMarginalError(i + 1)
        parents.append(parent_row)

    final = None
    for q in sorted(values, key=lambda s: (label(s), s)):
        if final is None or values[q] > values[final]:
            final = q
    seq_states = [final]
    for i in range(n - 1, 0, -1):
        seq_states.append(parents[i][seq_states[-1]])
    seq_states.reverse()
    return [label(q) for q in seq_states], values[final]
