"""The generalized forward algorithm, backward posteriors and Viterbi.

The forward pass is strictly online: each outcome is consumed once, the
retained state is one frontier over a single level interval, and the
marginal so far is available after every step. Work and space counters
are exposed so the complexity contracts of the models can be checked.

:class:`ForwardPass` is the online loop over one of two frontier cores,
chosen once (``_new_core``): ``_VectorCore`` steps a log-weight vector
through the per-level tables of a model that ``_scan_start`` admits
without being stationary (the switch model up to k = 8), else through
level arcs with :func:`~expertseq.hmm.propagate_arcs`; ``_TupleCore``, for
the rest, stationary models among them, a weight map of tuple states with
:func:`~expertseq.hmm.propagate_frontier`. Each owns its frontier and
offers ``propagate``, which is ``step`` (the level alone, and its
transitions and held weights where asked for) then ``fold`` (the next
stratum's per-label masses and their total); ``update`` (by the realized
log-likelihoods and the hook; the new marginal) and ``settle`` (the same
with no hook and no marginal); ``weight_map``; and ``backward_rows``, the
smoothed posterior's backward sweep: :func:`~expertseq.hmm.pull_arcs`
through the recorded arcs, or each level's recorded plan
(:class:`~expertseq.hmm.LevelPlan`) in reverse, slot by slot.

Offline passes over a realized matrix known up front run
``_offline_forward``. It steps the same core in the same order as
:meth:`ForwardPass.advance`, but a level before the last computes only
what the pass reads: ``step`` with no counts, then ``settle``, which
finds a zero marginal where the updated vector is -inf throughout or the
updated map is empty, at the step ``advance`` names. No level but the
last is folded by label or totalled. The last is propagated and updated
as ``advance`` does it, so the marginal, log-summed from that level's
per-label masses on the vector core and from its map on the tuple core,
has ``advance``'s bits. A recording core keeps each level for the
backward sweep: the vector core its ``LevelArcs`` and post-update vector,
the tuple core its ``LevelPlan`` (a replayed level's, or one compiled
from what propagate_frontier recorded where the level fell back) and
post-update masses by sink, -inf where the update dropped a state. A
recording core takes no hook.

For a model that declares itself ``stationary``, the tuple core compiles
the level of a frontier shape that comes back within a few levels and
replays it by index after that, bit for bit. The core calls
:func:`~expertseq.hmm.propagate_frontier` at level 1, for a shape without
a plan, where a plan meets a dead node, and for the rest of a pass once
a frontier hook leaves other than all the propagated states in their
order, as when it trims or reorders or the update drops a state.

One rule, ``_scan_start``, decides for every offline pass whether it
scans. A stationary model whose route table from stratum 1 to stratum 2
is closed (its sinks are its sources) and has at most ``SCAN_STATES``
states runs as a blocked log-semiring scan over that table (``_Blocks``:
about sqrt(m) vectorised passes and sqrt(m) small products over m rows),
exact in its -inf entries and within rounding of the loop elsewhere. So
does a model whose levels differ over one fixed stratum, the switch
model, through its ``_level_tables`` hook (see
:class:`~expertseq.hmm.HmmModel`), up to ``SCAN_LEVEL_STATES`` states.
Every scan reads its tables through one protocol, a function from levels
to a function from row indices to those rows' ``_exps``, transposed for
``back``: a stationary model gives its one table for every row, the
switch model each row its own level's, built for one position of every
block at a time, never for a window. :func:`posterior_experts` scans all
n rows at once and records no levels. ``_scan_forward`` scans
``SCAN_ROWS`` rows a window and holds one window, its forecasts
included, never n rows, read one window an expert through
``experts._read_window``, as ``prediction_matrix`` reads its columns;
each window starts from the vector carried out of the one before,
shifted to a maximum of 0. It runs the passes of CLI
``evaluate`` (``_step_rows``) unless a frontier hook is given, as
``--trim`` gives one, and every offline marginal (``_offline_marginal``:
CLI ``bounds`` and :func:`expert_sequence_prior`). Otherwise they loop:
``evaluate`` on a :class:`ForwardPass` with the hook, its rows converted
one step at a time, a marginal on ``_offline_forward``. Any other model,
a wider or open table, :func:`forward_marginal`, Viterbi and every online
:class:`ForwardPass` keep the loop.

:func:`viterbi_unambiguous` is one loop over the strata for every
unambiguous model, with one start, final choice and backtrack; only a
level's maximisation differs. A stationary model reads one table of
silent routes per frontier shape, any other propagates each live source
alone, and both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import index, is_
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .experts import (ForecastingSystem, _alphabet_size, _check_logpreds, _check_source,
                      _index, _logpred_matrix, _read_window, _realized_matrix, _symbol_array)
from .hmm import (HmmModel, LevelArcs, LevelPlan, StateId, compile_level, propagate_arcs,
                  propagate_frontier, pull_arcs, shape_of)
from .logprob import (_EMPTY_SHIFT, NEG_INF, LogMass, log_sum, log_sum_iter, logsumexp,
                      logsumexp_by)


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


class _Core:
    """A frontier core's ``propagate``: the level step, then the per-label
    fold and total that a forward pass reports each step."""

    def propagate(self, target: int, count_transitions: bool):
        transitions, held = self.step(target, count_transitions, True)
        by_label, total = self.fold()
        return by_label, total, transitions, held


class _TupleCore(_Core):
    """The frontier as a weight map of tuple states holding Python floats.

    ``plans`` maps a frontier shape (:func:`~expertseq.hmm.shape_of`) to
    its compiled level. A shape is compiled when it comes back within
    ``PLANS`` levels of its last sighting, so ``PLANS`` plans, the oldest
    dropped first, hold any cycle of shapes that short (Kahn's order can
    reverse a frontier each level). After ``PLANS`` new shapes in a row,
    shapes no plan named are computed only at levels that are powers of
    two, so shapes that do not repeat cost little. Plans serve a
    stationary model's levels; a plan compiled for a record never enters
    ``plans``."""

    PLANS = 8

    def __init__(self, model: HmmModel, record: bool):
        self.model, self.record = model, record
        self.regions, self.stratum_weights = [], []
        self.frontier: dict[StateId, LogMass] = dict(model.initial())
        self.pre: dict[StateId, LogMass] | None = None
        self.plan_levels = model.stationary
        self.plans: dict[tuple, LevelPlan] = {}
        self.seen: dict[tuple, int] = {}    # shape -> the last level it was seen at
        self.misses = 0                     # new shapes since the last replay
        self.shape: tuple | None = None     # the frontier's shape, where a plan named it
        self.plan: LevelPlan | None = None  # the plan that gave pre, if one did

    def step(self, target: int, count_transitions: bool = False, count_held: bool = False):
        """The level alone: ``pre``, the next stratum's masses, and the
        level's transitions and held weights, which cost nothing more here."""
        plan = self._planned(target) if self.plan_levels else None
        if plan is None:
            record = [] if self.record else None
            propagated = propagate_frontier(self.model, self.frontier, target, record=record)
            self.pre, transitions, held = propagated
            if self.record:
                plan = compile_level(self.frontier, record, propagated, self.model.label)
        else:
            transitions, held = plan.transitions, plan.held
        if self.record:
            self.regions.append(plan)
        self.labels = None if plan is None else plan.labels
        return transitions, held

    def fold(self) -> tuple[np.ndarray, LogMass]:
        """``pre``'s per-label masses and its total."""
        by_label = [NEG_INF] * self.model.num_experts
        labels = map(self.model.label, self.pre) if self.labels is None else self.labels
        for lab, v in zip(labels, self.pre.values()):
            by_label[lab] = log_sum(by_label[lab], v)
        return np.array(by_label), log_sum_iter(self.pre.values())

    def _planned(self, target: int) -> LevelPlan | None:
        """The frontier shape's plan, having replayed it to ``target`` into
        ``pre`` as propagate_frontier would, or None. A plan with a dead
        node is not kept: at a later level that node may be live."""
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
            plan = compile_level(frontier, record,
                                 propagate_frontier(self.model, frontier, target, record),
                                 self.model.label)
            if len(plan.order) < plan.nodes:
                return None
            self._keep(self.plans, shape, plan)
        pre = plan.replay(list(frontier.values()), target)
        if pre is None:
            return None
        self.misses = 0
        self.pre, self.plan = pre, plan
        return plan

    @classmethod
    def _keep(cls, cache: dict, key: tuple, value) -> None:
        if len(cache) == cls.PLANS:
            del cache[next(iter(cache))]
        cache[key] = value

    def update(self, lp: np.ndarray, step: int, hook) -> LogMass:
        pre, post = self.pre, self._post(lp, step)
        new_marginal = log_sum_iter(post.values())
        if hook is not None:
            post = hook(WeightMap(post, step)).entries
            tags = self.model.productive_tags
            for q in post:
                if not (q[0] in tags and q[1] == step):
                    raise _off_stratum(q, step)
        self._move(pre, post, hook)
        return new_marginal

    def settle(self, lp: np.ndarray, step: int) -> None:
        """``update`` with no hook and no marginal."""
        self._move(self.pre, self._post(lp, step), None)

    def _post(self, lp: np.ndarray, step: int) -> dict[StateId, LogMass]:
        """``pre`` times the realized likelihoods, less the states of mass 0."""
        # Python floats keep the dict loop and propagate_frontier off numpy scalars.
        lp = lp.tolist()
        label = self.model.label
        post = {}
        for q, v in self.pre.items():
            m = v + lp[label(q)]
            if m != NEG_INF:
                post[q] = m
        if not post:
            raise ZeroMarginalError(step)
        return post

    def _move(self, pre: dict, post: dict, hook) -> None:
        """Make ``post`` the frontier, keeping the next level's plan lookup
        and the record."""
        plan, self.plan = self.plan, None
        same = len(post) == len(pre)
        if self.plan_levels:
            if hook is not None and not (same and all(map(is_, post, pre))):
                self.plan_levels = False    # a hook's frontiers need not repeat
            shape = None if plan is None else plan.sinks
            if not same and shape is not None:      # the update dropped states
                shape = tuple(compress(shape, map(post.__contains__, pre)))
            self.shape = shape
        if self.record:     # no hook: post is pre less the states the update dropped
            self.stratum_weights.append(list(post.values()) if same else
                                        [post.get(q, NEG_INF) for q in pre])
        self.frontier, self.pre = post, None

    def weight_map(self, t: int) -> WeightMap:
        return WeightMap(dict(self.frontier), t)

    def backward_rows(self, lp_all: np.ndarray):
        """Unnormalised posterior rows of strata n, n - 1, ..., 1, as lists.

        beta[q] = log P(x_{i+1..n} | q, x^i) for q in stratum i, held as
        the level's record holds its masses: by sink, -inf where the update
        dropped the state. The sweep pulls beta back one stratum through
        the level's plan: its arcs in reverse order, slot by slot, each
        node's live arcs log-summed from -inf in the forward's arc order,
        as log_sum_iter folds them. A dead node's beta stays -inf."""
        plans, post = self.regions, self.stratum_weights
        k = self.model.num_experts
        beta = [NEG_INF if m == NEG_INF else 0.0 for m in post[-1]]
        for i in range(len(post), 0, -1):
            plan, weights = plans[i - 1], post[i - 1]
            labels = plan.labels
            row = [NEG_INF] * k
            for f, b, lab in zip(weights, beta, labels):
                if b != NEG_INF:
                    row[lab] = log_sum(row[lab], f + b)
            yield row

            if i == 1:
                break
            lp = lp_all[i - 1].tolist()
            # Slots: the frontier (the live states of stratum i - 1, in
            # order), the other nodes, then the sinks.
            node_beta = [NEG_INF] * plan.nodes
            node_beta += [b + lp[lab] for b, lab in zip(beta, labels)]
            for u, arcs in reversed(plan.order):
                total = NEG_INF
                for d, w in arcs:
                    b = node_beta[d]
                    if b != NEG_INF:
                        total = log_sum(total, w + b)
                node_beta[u] = total
            prev = post[i - 2]
            if NEG_INF in prev:
                live = iter(node_beta)
                beta = [NEG_INF if m == NEG_INF else next(live) for m in prev]
            else:
                beta = node_beta[:len(prev)]


class _VectorCore(_Core):
    """The frontier as a log-weight vector over its stratum's numbering
    (``initial()`` order before the first level), stepped by a
    ``_TableSteps`` or through level arcs, whose node j carries expert
    j % k, read off ``grid``, which ``labels_of`` grows by doubling.
    Either gives the next stratum's vector, labels, tuple states (a
    function of nodes) and the level's counts; ``fold`` gives the
    per-label masses, by the table steps' ``reduceat`` or by
    ``logsumexp_by``."""

    def __init__(self, model: HmmModel, record: bool, levels, tables=None):
        self.model, self.record = model, record
        self.regions, self.stratum_weights = [], []
        self.levels, self.tables = levels, tables
        self.grid = np.arange(0)
        self.frontier = np.array([v for _, v in model.initial()], dtype=float)
        self.states = None      # the frontier's tuple states, after the first level
        self.pending = None     # the next stratum's

    def step(self, target: int, count_transitions: bool = False, count_held: bool = False):
        """The level alone: ``pre``, the next stratum's vector, its labels and
        its states, and the level's transitions and held weights; a count
        not asked for may read 0."""
        if self.tables is not None:
            self.pre, self.labels, self.pending, transitions, held = self.tables(
                self.frontier, target, count_transitions or count_held)
            return transitions, held
        level = next(self.levels)
        self.pre, transitions, held = propagate_arcs(
            self.frontier, level.layers, count_transitions=count_transitions,
            count_held=count_held)
        if self.record:
            self.regions.append(level)
        self.labels, self.pending = self.labels_of(len(self.pre)), level.states
        return transitions, held

    def fold(self) -> tuple[np.ndarray, LogMass]:
        """``pre``'s per-label masses, kept for ``update``, and their total."""
        self.by_label = (logsumexp_by(self.pre, self.labels, self.model.num_experts)
                         if self.tables is None else
                         np.logaddexp.reduceat(self.pre, self.tables.starts))
        return self.by_label, logsumexp(self.by_label)

    def labels_of(self, size: int) -> np.ndarray:
        if len(self.grid) < size:
            self.grid = np.arange(2 * size) % self.model.num_experts
        return self.grid[:size]

    def update(self, lp: np.ndarray, step: int, hook) -> LogMass:
        # A label's post-update mass is its pre-update mass times its
        # expert's likelihood, zero exactly when every node of the label is.
        new_marginal = logsumexp(self.by_label + lp)
        if new_marginal == NEG_INF:
            raise ZeroMarginalError(step)
        post, states = self._move(lp), self.states
        if hook is None:
            return new_marginal
        trim_vector = getattr(hook, "trim_vector", None)
        if trim_vector is not None:
            self.frontier = trim_vector(post, states)
        else:
            # Any other hook gets a WeightMap of the live states and may
            # return any states of the stratum, written back by node. Only
            # a state it was not shown costs the inverse of the whole stratum.
            live = np.flatnonzero(post > NEG_INF)
            shown = states(live)
            node = dict(zip(shown, live.tolist()))
            entries = hook(WeightMap(dict(zip(shown, post[live].tolist())), step)).entries
            if not entries.keys() <= node.keys():
                every = states(np.arange(len(post)))
                node = dict(zip(every, range(len(every))))
                for q in entries:
                    if q not in node:
                        raise _off_stratum(q, step)
            self.frontier = np.full(len(post), NEG_INF)
            self.frontier[[node[q] for q in entries]] = list(entries.values())
        return new_marginal

    def settle(self, lp: np.ndarray, step: int) -> None:
        """``update`` with no hook and no marginal: the updated vector is
        zero where every entry is -inf, as the marginal is."""
        if self._move(lp).max(initial=NEG_INF) == NEG_INF:
            raise ZeroMarginalError(step)

    def _move(self, lp: np.ndarray) -> np.ndarray:
        """Make ``pre`` times the realized likelihoods the frontier, and
        record it: a recording core takes no hook."""
        post = self.pre + lp[self.labels]
        self.frontier, self.states, self.pre = post, self.pending, None
        if self.record:
            self.stratum_weights.append(post)
        return post

    def weight_map(self, t: int) -> WeightMap:
        if self.states is None:
            return WeightMap(dict(self.model.initial()), 0)
        live = np.flatnonzero(self.frontier > NEG_INF)
        return WeightMap(dict(zip(self.states(live), self.frontier[live].tolist())), t)

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


# The most floats of per-level tables a table step holds, 64 KB: 128
# levels at k = 4 (S = 8), so that a 500-step loop reads four windows.
_TABLE_FLOATS = 8192


class _TableSteps:
    """The level step over ``_level_tables`` (see ``HmmModel``), on stratum
    1's states lifted to each level. Level 0 gives stratum 1's masses,
    level t logsum_s frontier[s] + T_t[s, :], exact in its -inf entries,
    from raw tables read a window at a time; one ``reduceat`` folds the
    sorted labels. propagate_frontier counts each (live sources, class)
    once, and level 0's count comes with stratum 1. Nothing is recorded:
    these models' posteriors scan."""

    def __init__(self, model: HmmModel, one: _StratumOne):
        self.model = model
        self.stratum, self.first, self.labels, self.counts_at_0 = one
        self.starts = np.searchsorted(self.labels, np.arange(model.num_experts))
        self.width = max(1, _TABLE_FLOATS // len(self.first) ** 2)
        self.t0, self.tables, self.classes = 1, (), ()
        self.counts: dict[tuple, tuple[int, int]] = {}

    def __call__(self, frontier: np.ndarray, target: int, count: bool):
        t = target - 1
        if t == 0:
            return self.first, self.labels, self.lift(target), *self.counts_at_0
        if not 0 <= t - self.t0 < len(self.tables):
            self.tables = ()    # never two windows at once
            read = self.model._level_tables(range(t, t + self.width))
            self.t0, self.tables = t, read(np.arange(self.width))
            self.classes = read.classes.tolist()
        pre = np.logaddexp.reduce(frontier[:, None] + self.tables[t - self.t0], axis=0)
        counts = (0, 0)
        if count:
            live = frontier > NEG_INF
            key = (live.tobytes(), self.classes[t - self.t0])
            counts = self.counts.get(key)
            if counts is None:
                sources = dict.fromkeys(self.lift(t)(np.flatnonzero(live)), 0.0)
                counts = self.counts[key] = propagate_frontier(self.model, sources, target)[1:]
        return pre, self.labels, self.lift(target), *counts

    def lift(self, t: int) -> Callable[[np.ndarray], list[StateId]]:    # nodes -> states
        return lambda idx: [(q[0], t) + q[2:] for q in map(self.stratum.__getitem__, idx.tolist())]


def _new_core(model: HmmModel, record: bool):
    scan = None if model.stationary else _scan_start(model)
    if scan is not None:
        return _VectorCore(model, record, None, _TableSteps(model, scan[0]))
    levels = model.level_arcs()
    return _TupleCore(model, record) if levels is None else _VectorCore(model, record, levels)


def _offline_forward(model: HmmModel, lp_all: np.ndarray, record: bool):
    """The core after a forward pass over the realized (n, k) matrix
    ``lp_all``, and the log marginal; ZeroMarginalError names its step.
    Each level but the last is stepped and settled alone: no per-label
    fold, no totals, no counts. The last is propagated and updated as
    :meth:`ForwardPass.advance` does it, so the marginal has its bits."""
    core, n = _new_core(model, record), len(lp_all)
    for t in range(1, n):
        core.step(t)
        core.settle(lp_all[t - 1], t)
    if not n:
        return core, 0.0
    core.propagate(n, False)
    return core, core.update(lp_all[n - 1], n, None)


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
    stays bounded by the frontier, and the arc step counts no transitions.

    The frontier lives in one of two cores, chosen here once (see the
    module docstring). The frontier hook sees a ``WeightMap`` after each
    update; a hook with a ``trim_vector`` method, such as
    :func:`~expertseq.approx.trimming_hook`'s, trims the vector core's
    vector directly. Any other hook may return states of the stratum it
    was shown, live or not, which the vector core writes back to their
    nodes; on either core a state outside that stratum raises
    ``ValueError`` naming the step and the state.

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
        want_outcome_dists: bool = False,
        keep_steps: bool = True,
    ):
        _check_source(experts, logpred_matrix, model.num_experts)
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
        self._core = _new_core(model, False)
        self._t = 0
        # The next stratum's per-label masses and their total, once propagated.
        self._pre_by_label: np.ndarray | None = None
        self._pre_total: LogMass = NEG_INF
        # Experts mode: the streams, this step's row once read, and the
        # outcome to send for the next one (at first None, which a fresh
        # generator takes as ``next``).
        self._streams = None if experts is None else [e.forecasts() for e in self.experts]
        self._preds: np.ndarray | None = None
        self._last: int | None = None

    # -- propagation and per-step predictions -----------------------------

    def _expert_preds(self) -> np.ndarray:
        if self._preds is None:
            self._preds = np.array([s.send(self._last) for s in self._streams])
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
        """Consume one outcome; returns log P(x_{t+1} | x^t). In experts
        mode a symbol that is not an integer in the alphabet raises
        ValueError naming its position t; in matrix mode it is not read."""
        expert_dist = self.predict_expert()
        pre_total = self._pre_total
        step = self._t + 1
        outcome_dist = self._mix_outcome(expert_dist) if self._want_outcome else None

        if self.experts is not None:
            symbol = _index(symbol, self._t, self._size)
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
    ``_offline_marginal`` of the one-hot matrix that keeps, at each stratum,
    only the states carrying the required label. An integer label outside
    0..k-1 has no mass; a label that is not an integer (1.5, the float
    1.0, "1") raises ValueError naming its position."""
    k = model.num_experts
    onehot = np.full((len(labels), k), NEG_INF)
    for i, x in enumerate(labels):
        try:
            x = index(x)
        except TypeError:
            raise ValueError(f"label {x!r} at position {i} is not an integer") from None
        if 0 <= x < k:      # else the row stays -inf: no mass
            onehot[i, x] = 0.0
    try:
        return _offline_marginal(model, onehot)
    except ZeroMarginalError:
        return NEG_INF


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
    down to expert labels. A stationary model whose route table from
    stratum 1 to stratum 2 is closed and has at most ``SCAN_STATES``
    states runs as a blocked scan over that table (see
    ``_scan_posterior``), and so does a model with per-level tables of at
    most ``SCAN_LEVEL_STATES`` states (the switch model): its grid has the
    loop's -inf entries and its finite ones within rounding of the loop's,
    summed in another order.
    Otherwise a recording ``_offline_forward`` keeps each level (its record
    is in the module docstring), folding by label only at the last one,
    and the backward sweep, one fold a level, pulls beta back one
    stratum per level: through the level's arcs with
    :func:`~expertseq.hmm.pull_arcs` when the model provides level arcs,
    otherwise through the level's recorded plan, its silent region by slot
    in reverse topological order. The rows are normalised together at the
    end. Raises ZeroMarginalError with the step at which the forward
    marginal vanishes or, should a row have no mass, the last such step,
    the first one the sweep meets.
    """
    n = len(data)
    lp_all = _realized_matrix(experts, data, logpred_matrix, model.num_experts)
    grid = _scan_posterior(model, lp_all) if n else None
    if grid is None:
        core = _offline_forward(model, lp_all, True)[0]
        grid = np.full((n, model.num_experts), NEG_INF)
        for i, row in zip(range(n, 0, -1), core.backward_rows(lp_all)):
            grid[i - 1] = row
    totals = np.logaddexp.reduce(grid, axis=1)
    zero = np.flatnonzero(totals == NEG_INF)
    if len(zero):
        raise ZeroMarginalError(int(zero[-1]) + 1)
    grid -= totals[:, None]
    return grid


# The most stratum states for which a stationary model runs as a blocked
# scan: its products cost O(S^3) a step where the loop costs
# O(transitions), and up to 32 states it is the faster on each of the
# four builtin stationary models, posterior and forward alike (forward,
# n = 1,000, matrix mode, S = 32: 14-31 us a step against the loop's 31-41).
# With per-level tables each position also builds its tables and their
# exps, and the switch model's loop is cheaper, so the scan wins to fewer
# states (forward, n = 2,000, matrix mode, us a step against the loop's:
# S = 4: 3.1 against 15.9, S = 8: 4.8 against 16.6, S = 16: 9.4 against
# 17.2, S = 20: 16.1 against 18.4, S = 24: 23.1 against 18.0).
SCAN_STATES = 32
SCAN_LEVEL_STATES = 16

# The most rows the forward scan holds at once, its forecasts included: a
# window's arrays hold about rows * (k * alphabet + 6 S) floats, and its
# fixed cost, about 3 sqrt(rows) small vectorised passes, falls as it
# grows (fixed share, k = 2, 2,000 rows: 1.1 us a row at 1,024 rows
# against 1.9 at 256). ``experts.prediction_matrix`` reads each expert's
# window reader in windows of the same size.
SCAN_ROWS = 1024


class _StratumOne(NamedTuple):
    """Stratum 1 listed by (label, state), as ``SwitchHmm._level_tables``
    lists it: its states, their log masses and their labels, and level
    0's transitions and held weights, all from one propagate_frontier."""

    states: list[StateId]
    masses: np.ndarray
    labels: np.ndarray
    counts: tuple[int, int]


def _stratum_one(model: HmmModel) -> _StratumOne:
    first, *counts = propagate_frontier(model, dict(model.initial()), 1)
    label = model.label
    states = sorted(first, key=lambda q: (label(q), q))
    return _StratumOne(states, np.array([first[q] for q in states]),
                       np.array([label(q) for q in states], dtype=np.intp), tuple(counts))


def _scan_start(model: HmmModel) -> tuple[_StratumOne, Callable] | None:
    """The one rule for every offline pass: None where the model loops,
    else what its scan reads. That is stratum 1 (``_stratum_one``) and its
    tables: a function from levels to a function from row indices into
    them to those rows' ``_exps``, transposed for ``back``. A stationary
    model gives its one route table from stratum 1 to 2 for every row, the
    switch model its ``_level_tables``. A model loops where it is neither
    stationary nor has that hook, where a stationary model's table is not
    closed (its sinks are not its sources), or where S is past SCAN_STATES
    (SCAN_LEVEL_STATES for per-level tables, whose ``_level_states`` is
    read before stratum 1 is listed)."""
    level_tables = None if model.stationary else model._level_tables
    if not (model.stationary or level_tables):
        return None
    if level_tables is not None:
        if model._level_states > SCAN_LEVEL_STATES:
            return None

        def tables(levels):
            read = level_tables(levels)
            return lambda idx, back=False: _exps(read(idx).swapaxes(1, 2) if back else read(idx))
        return _stratum_one(model), tables
    one = _stratum_one(model)
    if not 0 < len(one.states) <= SCAN_STATES:
        return None
    routes = _Routes.build(model, one.states, 2)
    if routes.sinks != shape_of(one.states):
        return None
    fwd, bwd = _exps(routes.table), _exps(routes.table.T)
    return one, lambda levels: lambda idx, back=False: bwd if back else fwd


def _scan_posterior(model: HmmModel, lp: np.ndarray) -> np.ndarray | None:
    """The unnormalised posterior grid of a model that ``_scan_start``
    admits as a blocked scan over all n rows, or None where it gives none.
    It holds the (n, S) alpha grid and the blocks' products, no per-level
    record; ``_scan_forward`` reads the same ``_Blocks`` one window at a
    time.

    With T_t the table from stratum t to t + 1 (its states listed by
    (label, state); a stationary model's one table), alpha_t = (alpha_{t-1}
    (x) T_{t-1}) + lp[t, labels] and beta_{t-1} = T_{t-1} (x) (beta_t +
    lp[t, labels]) in the log semiring. Rows
    1..n-1 are ``_Blocks``: one pass over the positions builds every
    block's product, vectorised across the blocks; a loop over the blocks
    carries alpha forward and beta back across their boundaries, each
    carried vector shifted to a maximum of 0; two more passes fill alpha
    and add beta inside the blocks. A row's scale cancels when the grid is
    normalised, so none is kept."""
    scan = _scan_start(model)
    if scan is None:
        return None
    one, tables = scan
    first, labels = one.masses, one.labels
    size = len(first)
    blocks = _Blocks(tables(range(1, len(lp))), lp[1:], labels)
    steps, nb, width = len(lp) - 1, blocks.nb, blocks.width
    # Row 0, then rows 1..n-1 as nb blocks of width rows; padding is never read.
    alpha = np.zeros((1 + nb * width, size))
    alpha[0] = first
    alpha[0] += lp[0, labels]
    rows = alpha[1:].reshape(nb, width, size)
    blocks.fill(blocks.starts(alpha[0]), rows)
    dead = ~(alpha[:steps + 1] > NEG_INF).any(axis=1)
    if dead.any():
        raise ZeroMarginalError(int(dead.argmax()) + 1)
    emit, prods, active = blocks.emit, blocks.prods, blocks.active
    beta = np.zeros((nb, size))     # the vector leaving each block
    for b in range(nb - 1, 0, -1):
        beta[b - 1] = _scaled(np.logaddexp.reduce(prods[b] + beta[b], axis=1))
    for j in range(width - 1, -1, -1):
        m = active[j]
        rows[:m, j] += beta[:m]
        beta[:m] = _log_dot(beta[:m] + emit[:m, j], blocks.exps(j, m, back=True))
    if nb:
        alpha[0] += beta[0]
    return _by_label(alpha[:steps + 1], labels, model.num_experts)


def _scan_forward(model: HmmModel, experts: Sequence[ForecastingSystem] | None,
                  data: Sequence[int], logpred_matrix: np.ndarray | None = None):
    """The forward pass over ``data`` of a model that ``_scan_start``
    admits, as a generator of windows, or None for any other model.

    Each window is SCAN_ROWS steps or what is left, as arrays of one row
    a step: the steps' log conditionals log P(x_t | x^{t-1}), their
    next-expert distributions (rows, k) and, in experts mode, their
    next-outcome distributions (rows, alphabet), else None; only the
    carried vector outlives a window. The window's symbols are checked
    (``experts._symbol_array``), each expert's ``window_forecasts`` is
    sent them and its reply's shape checked (``experts._read_window``),
    and the forecasts are mixed in one ``np.logaddexp.reduce``.
    The steps are one run of ``_Blocks`` over the window's rows, from the
    vector carried out of the window before, shifted to a maximum of 0,
    and with per-level tables over the window's own levels, which the
    model's ``_level_tables`` reads once a window; a step's conditional is
    its alpha's log-sum less its predecessor's, both on their block's
    scale. On a zero marginal the window's rows before the
    dead step are yielded, then ZeroMarginalError names it. The source is
    checked here, as ForwardPass checks it."""
    scan = _scan_start(model)
    if scan is None:
        return None
    k = model.num_experts
    _check_source(experts, logpred_matrix, k)
    lp_all, size = None, None
    if experts is None:
        lp_all = _check_logpreds(_logpred_matrix(logpred_matrix, k))
        if len(lp_all) < len(data):
            raise ValueError(f"logpred matrix exhausted at step {len(lp_all) + 1}")
    else:
        size = _alphabet_size(experts)
    one, tables = scan
    return _forward_windows(one.masses, one.labels, tables, k, experts, size, data, lp_all)


def _step_rows(model: HmmModel, experts: Sequence[ForecastingSystem] | None,
               data: Sequence[int], logpred_matrix: np.ndarray | None = None,
               frontier_hook: Callable[[WeightMap], WeightMap] | None = None):
    """Each step's log conditional, next-expert probabilities and, in
    experts mode, next-outcome probabilities, else [], the probabilities
    as lists. Without a hook, a model that ``_scan_start`` admits runs
    ``_scan_forward``, its windows converted ``_LIST_ROWS`` rows at a
    time; any other steps a ForwardPass with the hook, one outcome and
    one conversion at a time. The source is checked here, before any step
    is asked for."""
    full = experts is not None
    windows = (None if frontier_hook is not None else
               _scan_forward(model, experts, data, logpred_matrix))
    if windows is not None:
        return chain.from_iterable(_list_rows(windows, full))
    return _loop_rows(ForwardPass(model, experts, logpred_matrix=logpred_matrix,
                                  frontier_hook=frontier_hook, want_outcome_dists=full,
                                  keep_steps=False), data, full)


def _loop_rows(fp: ForwardPass, data: Sequence[int], full: bool):
    for x in data:
        fp.advance(x)
        step = fp.last_step
        yield (step.log_cond, np.exp(step.expert_dist).tolist(),
               np.exp(step.outcome_dist).tolist() if full else [])


# A scanned window's rows become Python lists this many at a time.
_LIST_ROWS = 32


def _list_rows(windows, full: bool):
    """Each scanned window's rows, _LIST_ROWS at a time."""
    for cond, expert, outcome in windows:
        expert = np.exp(expert)
        outcome = np.exp(outcome) if full else None
        for i in range(0, len(cond), _LIST_ROWS):
            rows = slice(i, i + _LIST_ROWS)
            yield zip(cond[rows].tolist(), expert[rows].tolist(),
                      outcome[rows].tolist() if full else repeat([]))


def _offline_marginal(model: HmmModel, lp: np.ndarray) -> LogMass:
    """The log marginal of the realized (n, k) matrix ``lp``: the
    ``math.fsum`` of ``_scan_forward``'s log conditionals where
    ``_scan_start`` admits the model, else ``_offline_forward``'s."""
    windows = _scan_forward(model, None, range(len(lp)), lp)
    if windows is None:
        return _offline_forward(model, lp, False)[1]
    return math.fsum(chain.from_iterable(cond.tolist() for cond, _, _ in windows))


def _forward_windows(first, labels, tables, k, experts, size, data, lp_all):
    """``_scan_forward``'s windows. A window's symbols are checked before
    any expert reads them, then ``_read_window`` reads each expert's."""
    readers = [] if experts is None else [e.window_forecasts() for e in experts]
    for reader in readers:
        next(reader)
    carry = None
    for t0 in range(0, len(data), SCAN_ROWS):
        window = data[t0:t0 + SCAN_ROWS]
        r = len(window)
        if experts is None:
            lp, preds = lp_all[t0:t0 + r], None
        else:
            xs = _symbol_array(window, size, t0)
            preds = np.empty((r, k, size))
            for j, reader in enumerate(readers):
                preds[:, j] = _read_window(reader, xs, j, size)
            lp = preds[np.arange(r), :, xs]
        # The window's rows after its head read levels t0 or 1 on.
        cond, pre, carry = _scan_window(tables(range(t0 or 1, t0 + r)), labels, lp,
                                        first if carry is None else carry, carry is None)
        live = len(cond)
        expert = _by_label(pre, labels, k)
        expert -= np.logaddexp.reduce(expert, axis=1)[:, None]
        yield (cond, expert, None if preds is None else
               np.logaddexp.reduce(preds[:live] + expert[:, :, None], axis=1))
        if live < r:
            raise ZeroMarginalError(t0 + live + 1)


def _scan_window(fwd: Callable, labels: np.ndarray, lp: np.ndarray, a: np.ndarray,
                 head: bool):
    """One window of the forward scan: each row's log conditional and
    pre-update vector alpha_{t-1} (x) T up to the first dead row, and the
    last row's alpha shifted to a maximum of 0. ``a`` is the vector carried
    in or, where the window starts at step 1 (``head``), stratum 1's
    masses, which are that step's pre-update vector."""
    r, size = len(lp), len(labels)
    if head:
        first, a = a, a + lp[0, labels]
    blocks = _Blocks(fwd, lp[head:], labels)
    nb, width = blocks.nb, blocks.width
    alpha, pre = np.zeros((2, head + nb * width, size))
    if head:
        alpha[0], pre[0] = a, first
    starts = blocks.starts(a)
    blocks.fill(starts, alpha[head:].reshape(nb, width, size),
                pre[head:].reshape(nb, width, size))
    totals = np.logaddexp.reduce(alpha[:r], axis=1)
    before = np.empty(r)        # the log-sum of alpha_{t-1} on alpha_t's scale
    before[1:] = totals[:-1]
    before[head::width] = np.logaddexp.reduce(starts, axis=1)
    before[:head] = 0.0
    dead = np.flatnonzero(totals == NEG_INF)
    live = dead[0] if len(dead) else r
    return totals[:live] - before[:live], pre[:live], _scaled(alpha[r - 1])


def _by_label(rows: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Each row's log masses summed by label into k columns, -inf where a
    label has no state."""
    if np.array_equal(labels, np.arange(k)):
        return rows
    return np.stack([np.logaddexp.reduce(rows[:, labels == g], axis=1) for g in range(k)],
                    axis=1)


class _Blocks:
    """Rows 1..steps of the log-semiring recursion
    alpha_i = (alpha_{i-1} (x) T_i) + e_i, cut into nb blocks of width
    rows, width about sqrt(steps); position j is filled in the first
    ``active[j]`` blocks. ``fwd`` is ``_scan_start``'s table protocol
    over the levels of rows 1..steps: a function from row indices i - 1
    of ``lp`` to their tables' ``_exps``, which each pass calls for one
    position of every block (see ``exps``), never for every row. The
    emissions e_i = lp[i, labels] are held padded to nb * width rows,
    which no pass reads past steps. One pass over the positions builds
    every block's product T_1 e_1 T_2 e_2 ... T_width e_width,
    vectorised across the blocks. A product of per-level tables
    associates as one of a single table does, so the carries and fills
    are the same for both."""

    def __init__(self, fwd: Callable, lp: np.ndarray, labels: np.ndarray):
        steps, size = len(lp), len(labels)
        self.fwd = fwd
        self.width = width = int(steps ** 0.5) + 1
        self.nb = nb = -(-steps // width)
        self.active = active = [nb] * (steps - (nb - 1) * width) + [nb - 1] * width
        emit = np.zeros((nb * width, size))
        np.take(lp, labels, axis=1, out=emit[:steps], mode="clip")     # unbuffered
        self.emit = emit = emit.reshape(nb, width, size)
        prods = self.exps(0, nb)[3] + emit[:, 0, None, :]
        for j in range(1, width):
            m = active[j]
            prods[:m] = _log_dot(prods[:m], self.exps(j, m)) + emit[:m, j, None, :]
        self.prods = prods

    def exps(self, j: int, m: int, back: bool = False) -> tuple:
        """Position j's tables in the first m blocks as ``_log_dot`` takes
        them, transposed for ``back``."""
        return self.fwd(range(j, j + self.width * m, self.width), back)

    def starts(self, a: np.ndarray) -> np.ndarray:
        """The vector entering each block: ``a`` the first, each later one
        carried across the block before it and shifted to a maximum of 0.
        A carry is one vector, so it sums exactly in logs."""
        starts = a[None].repeat(self.nb, axis=0)
        for b in range(1, self.nb):
            starts[b] = _scaled(np.logaddexp.reduce(starts[b - 1, :, None] + self.prods[b - 1],
                                                    axis=0))
        return starts

    def fill(self, starts: np.ndarray, alpha: np.ndarray, pre: np.ndarray | None = None):
        """Fill the (nb, width, S) ``alpha`` from ``starts``, each block on
        its start's scale; ``pre`` gets each row's alpha_{i-1} (x) T."""
        a = starts
        for j in range(self.width):
            m = self.active[j]
            p = _log_dot(a[:m], self.exps(j, m))
            if pre is not None:
                pre[:m, j] = p
            a = alpha[:m, j] = p + self.emit[:m, j]


# The least sum of scaled exps that underflow cannot have cost a digit:
# S terms lost below 2^-1074 move it by under S * 2^-114, far below eps.
_FLOOR = 2.0 ** -960


def _exps(b: np.ndarray) -> tuple:
    """A log-mass matrix, or a stack of them, as ``_log_dot`` takes it: its
    exps scaled by its column maxima, those maxima, and which entries are
    finite, as 0 or 1."""
    top = np.maximum(b.max(axis=-2, keepdims=True), _EMPTY_SHIFT)
    return np.exp(b - top), top, (b > NEG_INF).astype(float), b


def _log_dot(a: np.ndarray, exps: tuple) -> np.ndarray:
    """The log-semiring product of a stack of matrices (or of row vectors)
    and one matrix b, out[..., i, j] = logsum_s a[..., i, s] + b[s, j], or
    a stack of as many matrices, each a's own. It is a product of exps,
    each row of a scaled by its maximum; an entry too small for that to
    keep its digits is summed again in logs from its own b's entries, so
    -inf where that b's finite pattern gives no route."""
    lin_b, top_b, live_b, b = exps
    if b.ndim > a.ndim:     # row vectors, each with its own matrix
        return _log_dot(a[:, None], exps)[:, 0]
    top_a = np.maximum(a.max(axis=-1, keepdims=True), _EMPTY_SHIFT)
    lin = np.exp(a - top_a) @ lin_b
    if lin.min(initial=1.0) >= _FLOOR:
        return np.log(lin) + top_a + top_b
    with np.errstate(divide="ignore"):
        out = np.log(lin) + top_a + top_b
    lost = (lin < _FLOOR) & ((a > NEG_INF) @ live_b > 0)
    if lost.any():
        lost = np.nonzero(lost)
        col = b[:, lost[-1]].T if b.ndim == 2 else b[lost[0], :, lost[-1]]
        out[lost] = np.logaddexp.reduce(a[lost[:-1]] + col, axis=1)
    return out


def _scaled(v: np.ndarray) -> np.ndarray:
    """A log-mass vector shifted so that its maximum is 0, clamped as
    ``logsumexp_by`` clamps an empty group."""
    return v - max(v.max(), _EMPTY_SHIFT)


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
    the maximization runs over productive choices.

    One loop runs over the strata, each listed by (label, state). A
    state's value is the greatest, over its sources, of the source's value
    added to the log-summed silent routes between them, plus the state's
    realized log-likelihood. Each state keeps the first maximum over its
    sources and the final choice the first over the last stratum, so ties
    go to the lowest (label, state). A stationary model reads the routes
    from one table per frontier shape, built once, whose dead states stay
    sources so that one table serves every later level; any other model
    propagates each live source alone with
    :func:`~expertseq.hmm.propagate_frontier`, and a state that only dead
    sources reach drops out. Both add a source's value after its routes
    are summed, so a model gives the same bits with its ``stationary``
    declaration as without it.
    """
    if not model.unambiguous:
        raise AmbiguousModelError(
            "model is declared ambiguous; use the switch MAP decoder or brute force")
    lp_all = _realized_matrix(experts, data, logpred_matrix, model.num_experts)
    if len(data) == 0:
        return [], 0.0

    label = model.label
    states, vals, labs, _ = _stratum_one(model)
    # labels[i][j]: the label of state j of stratum i + 1; parents[i - 1][j]:
    # the index of its best source in stratum i; vals: the last stratum's values.
    labels, parents = [], []
    shape, key, tables = shape_of(states), None, {}
    for i, lp in enumerate(lp_all):
        if i and model.stationary:      # stratum 1 is the start above
            if shape is not key:
                key, routes = shape, tables.get(shape)
                if routes is None:
                    routes = _Routes.build(model, [(tag, i) + rest for tag, rest in shape], i + 1)
                    _TupleCore._keep(tables, shape, routes)
            cand = routes.table + vals[:, None]
            parents.append(cand.argmax(axis=0))
            vals, labs, shape = cand.max(axis=0), routes.labels, routes.sinks
        elif i:
            best: dict[StateId, tuple[LogMass, int]] = {}
            for s, (q, v) in enumerate(zip(states, vals.tolist())):
                if v != NEG_INF:
                    for u, w in propagate_frontier(model, {q: 0.0}, i + 1)[0].items():
                        m = w + v
                        old = best.get(u)
                        if old is None or m > old[0]:
                            best[u] = (m, s)
            states = sorted(best, key=lambda u: (label(u), u))
            parents.append([best[u][1] for u in states])
            vals = np.array([best[u][0] for u in states])
            labs = np.array([label(u) for u in states], dtype=np.intp)
        vals = vals + lp[labs]
        if max(vals.tolist() or [NEG_INF]) == NEG_INF:    # an empty stratum too
            raise ZeroMarginalError(i + 1)
        labels.append(labs)

    j = int(vals.argmax())
    seq = [int(labels[-1][j])]
    for lab, parent in zip(reversed(labels[:-1]), reversed(parents)):
        j = parent[j]
        seq.append(int(lab[j]))
    seq.reverse()
    return seq, float(vals.max())


class _Routes(NamedTuple):
    """One level of a stationary model from sources of one shape, as Viterbi
    and the posterior's scan read it, listed by (label, state):
    ``table[s, j]`` log-sums the silent routes
    from source s to sink j, -inf where there is none. The sinks, of shape
    ``sinks`` and labels ``labels``, are listed by (label, state) too, so
    they are the next level's sources in order."""

    table: np.ndarray
    sinks: tuple
    labels: np.ndarray

    @classmethod
    def build(cls, model: HmmModel, sources: list[StateId], target: int) -> _Routes:
        rows = [propagate_frontier(model, {q: 0.0}, target)[0] for q in sources]
        label = model.label
        sinks = sorted({v for row in rows for v in row}, key=lambda v: (label(v), v))
        at = {v: j for j, v in enumerate(sinks)}
        table = np.full((len(sources), len(sinks)), NEG_INF)
        for s, row in enumerate(rows):
            table[s, [at[v] for v in row]] = list(row.values())
        return cls(table, shape_of(sinks), np.array([label(v) for v in sinks], dtype=np.intp))
