"""The generalized forward algorithm, backward posteriors and Viterbi.

The forward pass is strictly online: each outcome is consumed once, the
retained state is one frontier over a single level interval, and the
marginal so far is available after every step. Work and space counters
are exposed so the complexity contracts of the models can be checked.

:class:`ForwardPass` is one loop over one of two frontier cores, chosen
once from ``model.level_arcs()``: ``_ArcCore`` steps a log-weight vector
with :func:`~expertseq.hmm.propagate_arcs`, ``_TupleCore`` a weight map
of tuple states with :func:`~expertseq.hmm.propagate_frontier`. Each
owns its frontier and records, and offers ``propagate`` (the next
stratum's per-label masses, their total, the transitions, the weights
the level held),
``update`` (by the realized log-likelihoods and the hook; the new
marginal), ``weight_map``, and ``backward_rows``, the smoothed
posterior's backward sweep: :func:`~expertseq.hmm.pull_arcs` through the
recorded arcs, or the recorded silent regions in reverse.

For a model that declares itself ``stationary``, the tuple core of a
pass that records nothing compiles the level of a frontier shape that
comes back within a few levels and replays it by index after that, bit
for bit (:class:`~expertseq.hmm.LevelPlan`). It calls
:func:`~expertseq.hmm.propagate_frontier` at level 1, for a shape without
a plan, where a plan meets a dead node, and for the rest of a pass once
a frontier hook leaves other than all the propagated states in their
order, as when it trims or reorders or the update drops a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import is_
from typing import Callable, Sequence

import numpy as np

from .experts import (ForecastingSystem, _alphabet_size, _check_logpreds, _forecast_rows,
                      _logpred_matrix, _realized_matrix)
from .hmm import (HmmModel, LevelArcs, LevelPlan, StateId, compile_level, propagate_arcs,
                  propagate_frontier, pull_arcs, shape_of)
from .logprob import NEG_INF, LogMass, log_sum, log_sum_iter, logsumexp, logsumexp_by


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


def _off_stratum(q: StateId, step: int) -> ValueError:
    return ValueError(f"frontier hook returned {q!r} at step {step}, "
                      f"which is not a state of stratum {step}")


class _TupleCore:
    """The frontier as a weight map of tuple states holding Python floats.

    ``plans`` maps a frontier shape (:func:`~expertseq.hmm.shape_of`) to
    its compiled level. A shape is compiled when it comes back within
    ``PLANS`` levels of its last sighting, so ``PLANS`` plans, the oldest
    dropped first, hold any cycle of shapes that short (Kahn's order can
    reverse a frontier each level). After ``PLANS`` new shapes in a row,
    shapes no plan named are computed only at levels that are powers of
    two, so shapes that do not repeat cost little."""

    PLANS = 8

    def __init__(self, model: HmmModel, record: bool):
        self.model, self.record = model, record
        self.regions, self.stratum_weights = [], []
        self.frontier: dict[StateId, LogMass] = dict(model.initial())
        self.pre: dict[StateId, LogMass] | None = None
        self.plan_levels = model.stationary and not record
        self.plans: dict[tuple, LevelPlan] = {}
        self.seen: dict[tuple, int] = {}    # shape -> the last level it was seen at
        self.misses = 0                     # new shapes since the last replay
        # The frontier's shape and that of pre, where a plan named them.
        self.shape: tuple | None = None
        self.pre_shape: tuple | None = None

    def propagate(self, target: int, count_transitions: bool):
        step = self._planned(target) if self.plan_levels else None
        if step is None:
            record = [] if self.record else None
            self.pre, transitions, held = propagate_frontier(
                self.model, self.frontier, target, record=record)
            if self.record:
                self.regions.append(record)
        else:
            self.pre, transitions, held = step
        by_label = [NEG_INF] * self.model.num_experts
        label = self.model.label
        for q, v in self.pre.items():
            lab = label(q)
            by_label[lab] = log_sum(by_label[lab], v)
        return np.array(by_label), log_sum_iter(self.pre.values()), transitions, held

    def _planned(self, target: int):
        """The level to ``target`` from the frontier shape's plan, as
        propagate_frontier returns it, or None. Past level 1 the frontier
        lies on stratum ``target - 1`` (update checks a hook's states), so
        no state of it is on the target stratum; the initial frontier
        may hold such states, but level 1 never has a plan, since a shape
        is compiled only where it was seen before."""
        shape, frontier = self.shape, self.frontier
        if shape is None:
            if self.misses >= self.PLANS:       # look again at levels 2^j only
                if target & (target - 1):
                    return None
                self.misses = 0
            shape = shape_of(frontier)
        plan = self.plans.get(shape)
        if plan is None:
            if target - self.seen.get(shape, -self.PLANS) > self.PLANS:
                self._keep(self.seen, shape, target)
                self.misses += 1
                return None
            record = []
            sinks = propagate_frontier(self.model, frontier, target, record)[0]
            plan = compile_level(frontier, record, sinks)
            if plan is None:
                return None
            self._keep(self.plans, shape, plan)
        pre = plan.replay(list(frontier.values()), target)
        if pre is None:
            return None
        self.misses = 0
        self.pre_shape = plan.sinks
        return pre, plan.transitions, plan.held

    def _keep(self, cache: dict, key: tuple, value) -> None:
        if len(cache) == self.PLANS:
            del cache[next(iter(cache))]
        cache[key] = value

    def update(self, lp: np.ndarray, step: int, hook) -> LogMass:
        # Python floats keep the dict loop and propagate_frontier off numpy scalars.
        lp = lp.tolist()
        label = self.model.label
        pre, post = self.pre, {}
        for q, v in pre.items():
            m = v + lp[label(q)]
            if m != NEG_INF:
                post[q] = m
        if not post:
            raise ZeroMarginalError(step)
        new_marginal = log_sum_iter(post.values())
        if hook is not None:
            post = hook(WeightMap(post, step)).entries
            tags = self.model.productive_tags
            for q in post:
                if not (q[0] in tags and q[1] == step):
                    raise _off_stratum(q, step)
        if self.plan_levels:
            same = len(post) == len(pre)
            if hook is not None and not (same and all(map(is_, post, pre))):
                self.plan_levels = False    # a hook's frontiers need not repeat
            shape = self.pre_shape
            if not same and shape is not None:      # the update dropped states
                shape = tuple(compress(shape, map(post.__contains__, pre)))
            self.shape, self.pre_shape = shape, None
        if self.record:
            self.stratum_weights.append(dict(post))
        self.frontier, self.pre = post, None
        return new_marginal

    def weight_map(self, t: int) -> WeightMap:
        return WeightMap(dict(self.frontier), t)

    def backward_rows(self, lp_all: np.ndarray):
        """Unnormalised posterior rows of strata n, n - 1, ..., 1."""
        model, post = self.model, self.stratum_weights
        label, is_prod, level = model.label, model.is_productive, model.level
        # beta[q] = log P(x_{i+1..n} | q, x^i) for q in stratum i.
        beta: dict[StateId, LogMass] = {q: 0.0 for q in post[-1]}
        for i in range(len(post), 0, -1):
            row = np.full(model.num_experts, NEG_INF)
            acc: dict[int, LogMass] = {}
            for q, f in post[i - 1].items():
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
            lp = lp_all[i - 1].tolist()
            node_beta = {q: b + lp[label(q)] for q, b in beta.items()}
            prev_beta: dict[StateId, LogMass] = {}
            for u, succ in reversed(self.regions[i - 1]):
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


class _ArcCore:
    """The frontier as a log-weight vector over the numbering of the level
    that produced it (``initial()`` order before the first). Node j carries
    expert j % k, read off ``grid``, which ``labels_of`` grows by doubling."""

    def __init__(self, model: HmmModel, record: bool, levels):
        self.model, self.record = model, record
        self.regions, self.stratum_weights = [], []
        self.levels = levels
        self.grid = np.arange(0)
        self.frontier = np.array([v for _, v in model.initial()], dtype=float)
        self.level: LevelArcs | None = None      # the level that numbered the frontier
        self.pending: LevelArcs | None = None    # the level being stepped

    def propagate(self, target: int, count_transitions: bool):
        level = self.pending = next(self.levels)
        self.pre, transitions, held = propagate_arcs(
            self.frontier, level.layers, count_transitions=count_transitions)
        if self.record:
            self.regions.append(level)
        self.labels = self.labels_of(len(self.pre))
        self.by_label = logsumexp_by(self.pre, self.labels, self.model.num_experts)
        return self.by_label, logsumexp(self.by_label), transitions, held

    def labels_of(self, size: int) -> np.ndarray:
        if len(self.grid) < size:
            self.grid = np.arange(2 * size) % self.model.num_experts
        return self.grid[:size]

    def update(self, lp: np.ndarray, step: int, hook) -> LogMass:
        level = self.pending
        post = self.pre + lp[self.labels]
        # A label's post-update mass is its pre-update mass times its
        # expert's likelihood, zero exactly when every node of the label is.
        new_marginal = logsumexp(self.by_label + lp)
        if new_marginal == NEG_INF:
            raise ZeroMarginalError(step)
        self.frontier, self.level, self.pre = post, level, None
        trim_vector = getattr(hook, "trim_vector", None)
        if trim_vector is not None:
            self.frontier = trim_vector(post, level.states)
        elif hook is not None:
            # Any other hook gets a WeightMap of the live states and may
            # return any states of the stratum, written back by node. Only
            # a state it was not shown costs the inverse of the whole stratum.
            live = np.flatnonzero(post > NEG_INF)
            states = level.states(live)
            node = dict(zip(states, live.tolist()))
            entries = hook(WeightMap(dict(zip(states, post[live].tolist())), step)).entries
            if not entries.keys() <= node.keys():
                states = level.states(np.arange(len(post)))
                node = dict(zip(states, range(len(states))))
                for q in entries:
                    if q not in node:
                        raise _off_stratum(q, step)
            self.frontier = np.full(len(post), NEG_INF)
            self.frontier[[node[q] for q in entries]] = list(entries.values())
        if self.record:
            self.stratum_weights.append(self.frontier)
        return new_marginal

    def weight_map(self, t: int) -> WeightMap:
        if self.level is None:
            return WeightMap(dict(self.model.initial()), 0)
        live = np.flatnonzero(self.frontier > NEG_INF)
        return WeightMap(dict(zip(self.level.states(live), self.frontier[live].tolist())), t)

    def backward_rows(self, lp_all: np.ndarray):
        """Unnormalised posterior rows of strata n, n - 1, ..., 1."""
        k = self.model.num_experts
        post = self.stratum_weights
        # beta = log P(x_{i+1..n} | node, x^i) over the nodes of stratum i.
        beta = np.zeros(len(post[-1]))
        for i in range(len(post), 0, -1):
            labels = self.labels_of(len(beta))
            yield logsumexp_by(post[i - 1] + beta, labels, k)
            if i > 1:
                layers = self.regions[i - 1].layers
                beta = pull_arcs(beta + lp_all[i - 1][labels], layers, len(post[i - 2]))


class ForwardPass:
    """Incremental forward evaluation of one (model, experts, data) triple.

    Expert predictions come either from forecasting systems over one
    alphabet or, for evaluation-only runs, from a precomputed (n, k) matrix
    of log probabilities assigned to the realized outcomes; the experts'
    sizes and the matrix's shape and values are checked once, here. In
    experts mode a step reads one (k, alphabet) row from the experts'
    streams when it first needs it, sending them the previous outcome only
    then. The row gives the realized likelihoods and, with
    ``want_outcome_dists``, the next-outcome distribution in one
    ``np.logaddexp.reduce`` down the columns (-inf for an outcome no
    weighted expert allows). Each step builds one ``StepRecord``,
    ``last_step``, kept in ``steps`` with its transition count in
    ``transitions_per_level`` unless ``keep_steps`` is false; then memory
    stays bounded by the frontier, and the array core counts no transitions.

    The frontier lives in one of two cores, chosen here once (see the
    module docstring). The frontier hook sees a ``WeightMap`` after each
    update; a hook with a ``trim_vector`` method, such as
    :func:`~expertseq.approx.trimming_hook`'s, trims the array core's
    vector directly. Any other hook may return states of the stratum it
    was shown, live or not, which the array core writes back to their
    nodes; on either core a state outside that stratum raises
    ``ValueError`` naming the step and the state. With
    ``record_regions``, each level appends to ``regions`` and
    ``stratum_weights`` what :func:`posterior_experts` sweeps back: the
    level's ``LevelArcs`` and post-update vector, or the live
    ``(state, successors)`` pairs in topological order and a copy of the
    post-update map.

    The tuple core replays a stationary model's levels from compiled
    plans where it can, to the last bit of what
    :func:`~expertseq.hmm.propagate_frontier` gives (see the module
    docstring for when it falls back).

    ``peak_weights`` is the most weights one level has held so far: its
    live sources, its live silent nodes and the live states it puts on the
    next stratum, as both cores count them.
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
        self._size = None if experts is None else _alphabet_size(self.experts)
        self._matrix = (None if logpred_matrix is None else
                        _check_logpreds(_logpred_matrix(logpred_matrix, model.num_experts)))
        self._hook = frontier_hook
        self._want_outcome = want_outcome_dists and experts is not None
        self._keep_steps = keep_steps

        self.steps: list[StepRecord] = []
        self.last_step: StepRecord | None = None
        self.transitions_per_level: list[int] = []
        self.log_marginal: LogMass = 0.0
        self.peak_weights = 0
        levels = model.level_arcs()
        self._core = (_TupleCore(model, record_regions) if levels is None
                      else _ArcCore(model, record_regions, levels))
        self.regions, self.stratum_weights = self._core.regions, self._core.stratum_weights
        self._t = 0
        # The next stratum's per-label masses and their total, once propagated.
        self._pre_by_label: np.ndarray | None = None
        self._pre_total: LogMass = NEG_INF
        # Experts mode: the row source, this step's row once read, and the
        # outcome to send for the next one.
        self._rows = None if experts is None else _forecast_rows(self.experts)
        self._preds: np.ndarray | None = None
        self._last: int | None = None

    # -- propagation and per-step predictions -----------------------------

    def _expert_preds(self) -> np.ndarray:
        if self._preds is None:
            self._preds = self._rows.send(self._last)
        return self._preds

    def predict_expert(self) -> np.ndarray:
        """log P(xi_{t+1} = . | x^t) from the propagated frontier."""
        if self._pre_by_label is None:
            self._pre_by_label, self._pre_total, transitions, held = self._core.propagate(
                self._t + 1, self._keep_steps)
            self.peak_weights = max(self.peak_weights, held)
            if self._keep_steps:
                self.transitions_per_level.append(transitions)
        if self._pre_total == NEG_INF:
            raise ZeroMarginalError(self._t + 1)
        return self._pre_by_label - self._pre_total

    def predict_outcome(self) -> np.ndarray:
        """log P(x_{t+1} = . | x^t), averaging expert forecasts by weight."""
        if self.experts is None:
            raise ValueError("outcome prediction requires full expert forecasts")
        return self._mix_outcome(self.predict_expert())

    def _mix_outcome(self, expert_dist: np.ndarray) -> np.ndarray:
        return np.logaddexp.reduce(self._expert_preds() + expert_dist[:, None], axis=0)

    # -- consuming data ----------------------------------------------------

    def advance(self, symbol: int) -> LogMass:
        """Consume one outcome; returns log P(x_{t+1} | x^t). In matrix
        mode the symbol is not read."""
        expert_dist = self.predict_expert()
        pre_total = self._pre_total
        step = self._t + 1
        outcome_dist = self._mix_outcome(expert_dist) if self._want_outcome else None

        if self.experts is not None:
            symbol = int(symbol)
            if not 0 <= symbol < self._size:
                raise ValueError(f"symbol {symbol!r} at step {step} is outside the alphabet")
            lp = self._expert_preds()[:, symbol]
            self._last = symbol
        else:
            if self._t >= len(self._matrix):
                raise ValueError(f"logpred matrix exhausted at step {step}")
            lp = self._matrix[self._t]

        new_marginal = self._core.update(lp, step, self._hook)
        log_cond = new_marginal - self.log_marginal
        self.last_step = StepRecord(log_cond, pre_total, expert_dist, outcome_dist)
        if self._keep_steps:
            self.steps.append(self.last_step)
        self.log_marginal = new_marginal
        self._t += 1
        self._pre_by_label = None
        self._preds = None
        return log_cond

    @property
    def weight_map(self) -> WeightMap:
        return self._core.weight_map(self._t)


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
        fp.log_marginal, fp.steps, fp.transitions_per_level, fp.peak_weights, len(data))


def expert_sequence_prior(model: HmmModel, labels: Sequence[int]) -> LogMass:
    """Prior mass of the event that the first n produced experts are ``labels``:
    a forward pass over the one-hot matrix that keeps, at each stratum,
    only the states carrying the required label."""
    k = model.num_experts
    labels = np.asarray(labels, dtype=np.intp)
    if np.any((labels < 0) | (labels >= k)):
        return NEG_INF
    onehot = np.full((len(labels), k), NEG_INF)
    onehot[np.arange(len(labels)), labels] = 0.0
    fp = ForwardPass(model, logpred_matrix=onehot, keep_steps=False)
    try:
        for _ in labels:
            fp.advance(None)
    except ZeroMarginalError:
        return NEG_INF
    return fp.log_marginal


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
    down to expert labels. A recording forward pass keeps each level and
    no steps (``keep_steps=False``: no ``StepRecord`` list, no transition
    count); the backward sweep then pulls beta back one stratum per level,
    through the level's arcs with :func:`~expertseq.hmm.pull_arcs` when
    the model provides level arcs, otherwise by replaying the recorded
    silent region in reverse topological order. Raises ZeroMarginalError
    with the first step at which the marginal vanishes.
    """
    n = len(data)
    lp_all = _realized_matrix(experts, data, logpred_matrix, model.num_experts)
    fp = ForwardPass(model, logpred_matrix=lp_all, record_regions=True, keep_steps=False)
    for x in data:
        fp.advance(x)

    grid = np.full((n, model.num_experts), NEG_INF)
    for i, row in zip(range(n, 0, -1), fp._core.backward_rows(lp_all)):
        total = logsumexp(row)
        if total == NEG_INF:
            raise ZeroMarginalError(i)
        grid[i - 1] = row - total
    return grid


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
    lp = lp_all[0].tolist()
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
        lp = lp_all[i].tolist()
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
