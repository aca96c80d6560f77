"""Lazy leveled HMMs with silent states.

A model is exposed as a successor-enumeration interface, never as an
explicit graph: state sets are countably infinite because every state
carries the index of the outcome stratum it belongs to. States are tuples
``(tag, level, *rest)`` where ``tag`` is a short string and ``level`` is
the number of outcomes produced on any run reaching the state (silent
states carry the level of the preceding productive stratum). Successors
never decrease the level; productive successors increase it by exactly 1.

The one graph primitive everything else is built on is
:func:`propagate_frontier`, which pushes a weight map across the silent
region between two strata in a deterministic topological (Kahn) order.
It is the definition of a level step and the oracle for the array step.

A model whose strata are grids of k columns, for k experts, may also
describe each level as layers of arcs over a numbering local to that
level (:class:`LevelArcs`): the level's sources (the initial support, in
``initial()`` order, for level 0, otherwise stratum t) are nodes 0..S-1,
and each layer's destinations are numbered after every node before them.
A layer lists, per destination, its incoming arcs as source indices and
log masses. Every destination has at least one arc, which may have zero
mass (log mass -inf): a zero-mass arc adds nothing and is never counted,
and lets a model keep one arc template across levels where a hazard is 0
or 1 or a weight vanishes. The last layer's destinations are stratum
t + 1, numbered as the sources of the next level: a stratum has a
multiple of k nodes, and node j carries expert j % k. :func:`propagate_arcs`
pushes a log-weight vector through those layers, a copy for a layer with
one arc per destination and one ``reduceat`` for any other; it touches
the same arcs of positive mass as :func:`propagate_frontier` and reports
the same count of held weights and the same transition count, or skips
the latter (``count_transitions=False``). Its backward counterpart,
:func:`pull_arcs`, walks the same layers in reverse and pulls a vector
over the next stratum back to the level's sources, one scatter a layer;
it is the smoothed posterior's backward sweep. :func:`propagate_frontier`
and the reverse replay of its recorded regions stay the definition both
array steps are tested against.

The array description is meant to be cheap per level: a model keeps
its arc templates (index ranges, repeated weights) in the iterator,
grown by doubling, so that a level's layers are mostly slices of arrays
an earlier level already built.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .logprob import NEG_INF, LogMass, log_sum, log_sum_iter

StateId = tuple

NORMALIZATION_TOL = 1e-9


class HmmModel(ABC):
    """Prior on expert sequences, given by initial states and lazy successors.

    Implementations must be immutable after construction; successor
    enumeration must be reentrant. Arcs of probability zero are omitted.
    The state layout ``(tag, level, *rest)`` is load-bearing: a state is
    productive iff its tag is in ``productive_tags`` and its level is its
    second element. The propagation core indexes tuples directly, so
    ``is_productive`` and ``level`` must not be overridden with different
    semantics.

    ``level_arcs`` optionally describes the same levels as arrays: per
    level, layers of arcs over a level-local numbering (the level's sources
    first, then each layer's destinations in turn) and the tuple state of
    each node j of the next stratum, whose ``label`` must be j % k for
    k = ``num_experts``; see :class:`LevelArcs`. The tuple interface stays
    the definition and :func:`propagate_frontier` the oracle: the arrays
    must carry exactly the arcs of positive mass and the masses that
    ``successors`` enumerate. They may also carry arcs of zero mass, which
    add nothing and are never counted as transitions.
    Per-run caches, such as arc templates shared by the levels of one
    run, live in the iterator ``level_arcs`` returns, never on the model.

    ``stationary`` declares that every level from level 1 on is the one
    before it moved up by one: raising a state's level by one raises the
    level of each of its successors by one, in the same order and with
    the same masses. The order is part of the contract, because the Kahn
    order and the fold order come from it. :func:`validate` checks the
    declaration; a forward pass replays such levels by index
    (:class:`LevelPlan`).
    """

    num_experts: int
    silent_depth_bound: int
    unambiguous: bool = False
    stationary: bool = False
    productive_tags: frozenset[str] = frozenset()

    @abstractmethod
    def initial(self) -> list[tuple[StateId, LogMass]]:
        """Support of the initial distribution with log masses."""

    @abstractmethod
    def successors(self, state: StateId) -> list[tuple[StateId, LogMass]]:
        """Direct successors of a state with log transition masses."""

    @abstractmethod
    def label(self, state: StateId) -> int:
        """Expert index produced by a productive state."""

    def is_productive(self, state: StateId) -> bool:
        return state[0] in self.productive_tags

    def level(self, state: StateId) -> int:
        return state[1]

    def level_arcs(self) -> Iterator[LevelArcs] | None:
        """A fresh iterator over the array description of levels 0, 1, ...,
        or None when the model only offers the tuple interface."""
        return None


class StateBudgetExceeded(RuntimeError):
    """A level of a model with a configurable state budget needs more states
    than the budget allows."""


class ArcLayer(NamedTuple):
    """Arcs into one block of destinations, sorted by destination: the arcs
    of destination d are ``src[indptr[d]:indptr[d + 1]]`` with log masses
    ``logw[...]``; ``src`` indexes the level's numbering so far. Arcs of
    log mass -inf are allowed and carry nothing.

    Every destination must have at least one arc; a zero-mass arc will do.
    This is a fact about the arrays, not about the masses. It is not
    checked, and a layer that breaks it gives wrong weights.
    """

    src: np.ndarray
    logw: np.ndarray
    indptr: np.ndarray


class LevelArcs(NamedTuple):
    """One level: its array layers, and ``states``, which maps an array
    of nodes of the next stratum to their tuple states. Of k experts,
    node j carries expert j % k, so no labels are listed. A forward pass
    inverts ``states`` itself where needed, so a model writes no map back.

    The arrays may be views of templates that other levels of the same
    run share, so they must never be written to.
    """

    layers: tuple[ArcLayer, ...]
    states: Callable[[np.ndarray], list[StateId]]


def propagate_frontier(
    model: HmmModel,
    frontier: dict[StateId, LogMass],
    target_level: int,
    record: list | None = None,
) -> tuple[dict[StateId, LogMass], int, int]:
    """Push a weight map forward until it sits on the productive stratum
    ``target_level``.

    The frontier may contain silent states of level ``target_level - 1``
    and productive states of levels ``target_level - 1`` (post loss
    update) or ``target_level`` (initial mass injected directly at the
    stratum). Silent states are processed in a topological order of the
    silent DAG discovered by Kahn-style readiness; states whose mass is
    zero are dropped eagerly and their outgoing arcs are not touched.

    If ``record`` is a list, each processed live node is appended as
    ``(state, successor_list)`` in processing order; a backward sweep can
    replay the region in reverse.

    Returns ``(new_frontier, transitions_touched, held)``; ``held`` counts
    the level's live sources, live silent nodes and new stratum states.
    """
    successors = model.successors
    prod_tags = model.productive_tags
    log1p, exp = math.log1p, math.exp

    sinks: dict[StateId, LogMass] = {}
    acc: dict[StateId, LogMass] = {}
    for q, v in frontier.items():
        tgt = sinks if (q[0] in prod_tags and q[1] == target_level) else acc
        tgt[q] = log_sum(tgt[q], v) if q in tgt else v

    # Discover the silent region reachable from the live sources and count
    # in-edges so each node is processed only once all its feeders are done.
    adj: dict[StateId, list[tuple[StateId, LogMass]]] = {}
    indeg: dict[StateId, int] = {}
    stack = list(acc.keys())
    while stack:
        u = stack.pop()
        if u in adj:
            continue
        succ = successors(u)
        adj[u] = succ
        for v, _ in succ:
            if v[0] in prod_tags and v[1] == target_level:
                continue
            indeg[v] = indeg.get(v, 0) + 1
            if v not in adj:
                stack.append(v)

    ready = [u for u in acc if indeg.get(u, 0) == 0]
    transitions = 0
    held = 0
    done = 0
    while ready:
        u = ready.pop()
        mass = acc.pop(u, NEG_INF)
        live = mass != NEG_INF
        if live:
            held += 1
            transitions += len(adj[u])
            if record is not None:
                record.append((u, adj[u]))
        for v, w in adj[u]:
            if v[0] in prod_tags and v[1] == target_level:
                if live:
                    m = mass + w
                    old = sinks.get(v)
                    if old is None:
                        sinks[v] = m
                    elif old <= m:
                        sinks[v] = m + log1p(exp(old - m)) if old != NEG_INF else m
                    else:
                        sinks[v] = old + log1p(exp(m - old))
            else:
                if live:
                    m = mass + w
                    old = acc.get(v)
                    if old is None:
                        acc[v] = m
                    elif old <= m:
                        acc[v] = m + log1p(exp(old - m)) if old != NEG_INF else m
                    else:
                        acc[v] = old + log1p(exp(m - old))
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        done += 1
    if done != len(adj):
        leftover = [u for u in adj if indeg.get(u, 0) > 0][:3]
        raise ValueError(f"silent region is not a DAG near states {leftover}")
    return sinks, transitions, held + len(sinks)


def shape_of(states) -> tuple:
    """A frontier's shape: its states without their level, in order."""
    return tuple([(q[0], q[2:]) for q in states])


class LevelPlan(NamedTuple):
    """One level of a stationary model by index (see :func:`compile_level`).
    ``order`` lists, in Kahn order, each processed node's slot and its arcs
    as (slot, log mass) pairs. Slots number the frontier in its order, then
    the other processed nodes (``nodes`` in all), then the sinks of shape
    ``sinks`` in the order they were reached; ``pad`` is a None per slot
    after the frontier."""

    order: tuple
    pad: list
    nodes: int
    sinks: tuple
    transitions: int
    held: int

    def replay(self, masses: list[LogMass], target_level: int) -> dict[StateId, LogMass] | None:
        """What :func:`propagate_frontier` returns as the new frontier, bit
        for bit and in order, for a frontier of the compiled shape on the
        stratum below ``target_level`` with these masses in frontier order;
        None at a dead node (mass -inf), which the plan does not cover."""
        log1p, exp = math.log1p, math.exp
        vals = masses + self.pad
        for u, arcs in self.order:
            mass = vals[u]
            if mass == NEG_INF:
                return None
            for d, w in arcs:       # propagate_frontier's log-sum, in its order
                m = mass + w
                old = vals[d]
                if old is None:
                    vals[d] = m
                elif old <= m:
                    vals[d] = m + log1p(exp(old - m)) if old != NEG_INF else m
                else:
                    vals[d] = old + log1p(exp(m - old))
        return dict(zip([(tag, target_level) + rest for tag, rest in self.sinks],
                        vals[self.nodes:]))


def compile_level(frontier: dict[StateId, LogMass], record: list,
                  sinks: dict[StateId, LogMass]) -> LevelPlan | None:
    """The :class:`LevelPlan` of a :func:`propagate_frontier` call from
    ``frontier`` that recorded ``record`` and returned ``sinks``, or None
    where a node was dead, so the record misses it."""
    slot = dict.fromkeys(frontier)
    slot.update((u, None) for u, _ in record)
    if len(slot) != len(record):
        return None
    slot = {q: i for i, q in enumerate([*slot, *sinks])}
    if any(v not in slot for _, succ in record for v, _ in succ):
        return None
    order = tuple((slot[u], tuple((slot[v], w) for v, w in succ)) for u, succ in record)
    return LevelPlan(order, [None] * (len(slot) - len(frontier)), len(record), shape_of(sinks),
                     sum(len(succ) for _, succ in record), len(record) + len(sinks))


def propagate_arcs(
    source: np.ndarray, layers: Sequence[ArcLayer], *, count_transitions: bool = True,
) -> tuple[np.ndarray, int, int]:
    """Push a log-weight vector over a level's sources through its layers.

    Returns ``(next_stratum, transitions, held)``: the last layer's
    log-weight vector, the number of arcs of positive mass leaving live
    (finite) nodes, and the number of live weights held over the level.
    With ``count_transitions`` false the arcs are not counted and
    ``transitions`` is 0; the weights and ``held`` are the same.
    """
    sizes = [len(layer.indptr) - 1 for layer in layers]
    held = np.empty(len(source) + sum(sizes))
    at = len(source)
    held[:at] = source
    block = held[:at]
    transitions = 0
    for layer, size in zip(layers, sizes):
        block = held[at:at + size]
        at += size
        if len(layer.src) == size:
            vals = np.add(held[layer.src], layer.logw, out=block)
        else:
            vals = held[layer.src] + layer.logw
            np.logaddexp.reduceat(vals, layer.indptr[:-1], out=block)
        if count_transitions:
            transitions += int(np.count_nonzero(vals > NEG_INF))
    return block, transitions, int(np.count_nonzero(held > NEG_INF))


def pull_arcs(
    target: np.ndarray, layers: Sequence[ArcLayer], num_sources: int,
) -> np.ndarray:
    """Backward counterpart of :func:`propagate_arcs`: pull a log-weight
    vector over the last layer's destinations back to the level's
    ``num_sources`` sources.

    Entry u of the result is the log-sum, over every path from source u to
    a destination v, of the path's log mass plus ``target[v]``. Layers are
    walked in reverse; each adds its arcs' log masses to their
    destinations' values and scatters them into their sources with one
    ``np.logaddexp.at``, completing a node once every later layer is done.
    """
    starts = list(accumulate((len(layer.indptr) - 1 for layer in layers), initial=num_sources))
    held = np.full(starts[-1], NEG_INF)
    held[starts[-2]:] = target
    for layer, at, end in zip(reversed(layers), reversed(starts[:-1]), reversed(starts[1:])):
        vals = held[at:end]
        if len(layer.src) != end - at:
            vals = vals.repeat(layer.indptr[1:] - layer.indptr[:-1])
        np.logaddexp.at(held, layer.src, vals + layer.logw)
    return held[:num_sources]


class ValidationIssue(NamedTuple):
    kind: str
    state: StateId | None
    detail: str


def validate(model: HmmModel, levels: int) -> list[ValidationIssue]:
    """Exhaustively explore the model up to the given stratum and report
    normalization, silent-depth and level-monotonicity violations, and,
    for a model declared ``stationary``, each state of a level from 1 on
    whose successors one level up are not its own raised by one level.

    An empty report means the explored portion is a well-formed continuous
    leveled HMM.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    issues: list[ValidationIssue] = []
    initial = model.initial()
    total = log_sum_iter(w for _, w in initial)
    if abs(total) > NORMALIZATION_TOL:
        issues.append(ValidationIssue("initial-normalization", None,
                                      f"initial masses log-sum to {total:.3e}"))
    bound = model.silent_depth_bound
    # Nodes are (state, consecutive silent run ending at it); runs are capped
    # at bound+1 so validation terminates even on silent cycles.
    seen: set[tuple[StateId, int]] = set()
    flagged_depth: set[StateId] = set()
    stack: list[tuple[StateId, int]] = []
    for q, _ in initial:
        run = 0 if model.is_productive(q) else 1
        if run > bound and q not in flagged_depth:
            flagged_depth.add(q)
            issues.append(ValidationIssue("silent-depth", q, "initial silent run exceeds bound"))
        stack.append((q, min(run, bound + 1)))
    checked_norm: set[StateId] = set()
    while stack:
        q, run = stack.pop()
        if (q, run) in seen:
            continue
        seen.add((q, run))
        lvl = model.level(q)
        if lvl >= levels:
            continue
        succ = model.successors(q)
        if q not in checked_norm:
            checked_norm.add(q)
            s = log_sum_iter(w for _, w in succ)
            if abs(s) > NORMALIZATION_TOL:
                issues.append(ValidationIssue("successor-normalization", q,
                                              f"successor masses log-sum to {s:.3e}"))
            if model.stationary and 1 <= lvl < levels - 1:
                up = [((v[0], v[1] + 1, *v[2:]), w) for v, w in succ]
                if model.successors((q[0], lvl + 1, *q[2:])) != up:
                    issues.append(ValidationIssue("stationary", q,
                                                  "successors one level up are not these "
                                                  "raised by one level"))
        for v, _ in succ:
            vlvl = model.level(v)
            if model.is_productive(v):
                if vlvl != lvl + 1:
                    issues.append(ValidationIssue("level-step", v,
                                                  f"productive successor of level-{lvl} state has level {vlvl}"))
                stack.append((v, 0))
            else:
                if vlvl != lvl:
                    issues.append(ValidationIssue("level-step", v,
                                                  f"silent successor of level-{lvl} state has level {vlvl}"))
                nrun = run + 1
                if nrun > bound:
                    if v not in flagged_depth:
                        flagged_depth.add(v)
                        issues.append(ValidationIssue("silent-depth", v,
                                                      f"silent run longer than declared bound {bound}"))
                    continue
                stack.append((v, nrun))
    return issues
