"""The array level steps against the generic tuple core.

Every model that provides level arcs runs twice on the same inputs: as
itself, so ForwardPass keeps a log-weight vector and calls
propagate_arcs, and wrapped in ``oracles.TupleOnly``, so ForwardPass keeps
a weight map and calls propagate_frontier. The switch model up to k = 8
steps the same vector through its per-level tables instead, and the
switch model at k = 9 keeps its arcs. The two runs must agree step by
step. The smoothed posterior, whose backward sweep is pull_arcs, must
agree with ``oracles.region_posterior``, the reverse replay of the silent
regions propagate_frontier records.
"""

import itertools
import math

import numpy as np
import pytest

import expertseq as es
from expertseq.hmm import propagate_frontier
from oracles import TupleOnly, random_constant_experts, region_posterior

TOL = 1e-11
N = 40
ALPHABET = 3

ARRAY_MODELS = {
    "run_length_inv_poly": (2, lambda w: es.run_length(es.inv_poly(), w)),
    "run_length_elias": (2, lambda w: es.run_length(es.elias_delta(), w)),
    "run_length_geometric": (3, lambda w: es.run_length(es.geometric(0.3), w)),
    "run_length_uniform_1_3": (2, lambda w: es.run_length(es.uniform_span(1, 3), w)),
    "run_length_truncated": (2, lambda w: es.run_length(es.truncate(es.elias_delta(), 6), w)),
    "universal_share": (2, lambda w: es.universal_share(w)),
    "universal_elementwise_2": (2, lambda w: es.universal_elementwise(2)),
    "universal_elementwise_3": (3, lambda w: es.universal_elementwise(3)),
}
LATER_MODELS = {
    # hazard(1) = 0: every level carries zero-mass arcs
    "run_length_uniform_2_4": (2, lambda w: es.run_length(es.uniform_span(2, 4), w)),
    "run_length_inv_poly_k1": (1, lambda w: es.run_length(es.inv_poly(), w)),
    "universal_share_k1": (1, lambda w: es.universal_share(w)),
    # one count state per level: the tail c[1:] has no parts
    "universal_elementwise_1": (1, lambda w: es.universal_elementwise(1)),
    "switch_inv_poly": (3, lambda w: es.switch(es.SwitchConfig(0.5, es.inv_poly(), tuple(w)), 3)),
    # theta = 1: the stable band gets zero-mass arcs only
    "switch_theta_1_elias": (
        2, lambda w: es.switch(es.SwitchConfig(1.0, es.elias_delta(), tuple(w)), 2)),
    # hazard 0 at level 1, then 1 from level 4 on
    "switch_uniform_2_4": (
        2, lambda w: es.switch(es.SwitchConfig(0.5, es.uniform_span(2, 4), tuple(w)), 2)),
    "switch_geometric_1": (
        2, lambda w: es.switch(es.SwitchConfig(0.5, es.geometric(1.0), tuple(w)), 2)),
    "switch_k1": (1, lambda w: es.switch(es.SwitchConfig(0.5, es.inv_poly(), tuple(w)), 1)),
    # a zero weight: expert 0 is never drawn
    "switch_zero_weight": (3, lambda w: es.switch(
        es.SwitchConfig(0.5, es.inv_poly(), (0.0, *(np.asarray(w[1:]) / np.sum(w[1:])))), 3)),
    # S = 18 is past SCAN_LEVEL_STATES: ForwardPass keeps the arc step
    "switch_k9": (9, lambda w: es.switch(es.SwitchConfig(0.5, es.inv_poly(), tuple(w)), 9)),
}
# A model's seed is its position here: later models come after the sorted
# first ones, so every earlier model keeps its inputs.
SEEDS = sorted(ARRAY_MODELS) + list(LATER_MODELS)
ARRAY_MODELS |= LATER_MODELS
# The posterior test rules out one expert's symbol, which leaves a single
# expert nothing to explain it with.
SEVERAL_EXPERTS = [name for name, (k, _) in ARRAY_MODELS.items() if k > 1]
# Trimming at 0.99 need not shrink a frontier whose masses are the prior's
# (one expert), one a finite-span law keeps at span * k weights, nor a
# switch frontier, which never holds more than 2k states.
GROWING = [name for name in SEVERAL_EXPERTS
           if "uniform" not in name and not name.startswith("switch")]


def plain_trim(wm):
    """A plain function has no ``trim_vector``: the array core hands it a
    WeightMap and writes the states it keeps back into the vector."""
    return es.trim_frontier(wm, 0.9)


HOOKS = {"exact": None, "trim_1": es.trimming_hook(1.0), "trim_0.99": es.trimming_hook(0.99),
         "plain_trim_0.9": plain_trim}
MODES = ("experts", "matrix")


def instance(name, seed):
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(seed)
    experts = random_constant_experts(rng, k, ALPHABET)
    data = [int(x) for x in rng.integers(0, ALPHABET, N)]
    w = rng.dirichlet(np.ones(k) * 5.0)
    return make, w, experts, data


def stratum(level):
    """The nodes of the stratum the level steps to."""
    return np.arange(len(level.layers[-1].indptr) - 1)


def run(model, experts, data, mode, hook=None, keep_steps=True):
    if mode == "experts":
        fp = es.ForwardPass(model, experts, frontier_hook=hook, keep_steps=keep_steps)
    else:
        fp = es.ForwardPass(model, logpred_matrix=es.prediction_matrix(experts, data),
                            frontier_hook=hook, keep_steps=keep_steps)
    for x in data:
        fp.advance(x)
    return fp


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_array_step_matches_tuple_core(name, mode, hook):
    make, w, experts, data = instance(name, SEEDS.index(name))
    model = make(w)
    assert model.level_arcs() is not None and TupleOnly(model).level_arcs() is None
    fast = run(model, experts, data, mode, HOOKS[hook])
    ref = run(TupleOnly(make(w)), experts, data, mode, HOOKS[hook])
    assert fast.transitions_per_level == ref.transitions_per_level
    for a, b in zip(fast.steps, ref.steps, strict=True):
        assert abs(a.log_cond - b.log_cond) <= TOL
        assert abs(a.pre_update_total - b.pre_update_total) <= TOL
        # A hook may trim every state of a label: both cores then give
        # -inf there, in the same places.
        ruled_out = a.expert_dist == -np.inf
        assert np.array_equal(ruled_out, b.expert_dist == -np.inf)
        assert np.all(np.abs(a.expert_dist[~ruled_out] - b.expert_dist[~ruled_out]) <= TOL)
    assert fast.log_marginal == pytest.approx(ref.log_marginal, abs=TOL * N)
    fast_w, ref_w = fast.weight_map.entries, ref.weight_map.entries
    assert fast_w.keys() == ref_w.keys()
    assert all(abs(fast_w[q] - v) <= TOL * N for q, v in ref_w.items())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", GROWING)
def test_trimming_shrinks_array_frontier(name, mode):
    make, w, experts, data = instance(name, 7)
    exact = run(make(w), experts, data, mode)
    trimmed = run(make(w), experts, data, mode, es.trimming_hook(0.99))
    assert trimmed.peak_weights < exact.peak_weights


def posterior(model, experts, data, mode):
    if mode == "experts":
        return es.posterior_experts(model, experts, data)
    return es.posterior_experts(model, None, data,
                                logpred_matrix=es.prediction_matrix(experts, data))


@pytest.mark.parametrize("n", [0, 1, N])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SEVERAL_EXPERTS)
def test_posterior_matches_tuple_core(name, mode, n):
    make, w, experts, data = instance(name, SEEDS.index(name))
    # Expert 0 rules out the last symbol, so wherever that symbol arrives
    # its posterior is zero.
    experts[0] = es.ConstantExpert(np.append(np.random.default_rng(n).dirichlet(np.ones(2)), 0.0))
    data = data[:n]
    fast = posterior(make(w), experts, data, mode)
    ref = region_posterior(make(w), es.prediction_matrix(experts, data))
    assert fast.shape == ref.shape == (n, len(experts))
    assert np.array_equal(fast == -np.inf, ref == -np.inf)
    assert (n < N) or (fast == -np.inf).any()
    assert np.all(np.abs(np.exp(fast) - np.exp(ref)) <= 1e-12)
    # The tuple core sweeps a plan compiled at every level, to the same bits.
    assert posterior(TupleOnly(make(w)), experts, data, mode).tobytes() == ref.tobytes()


def ruled_out_at_step_7(name):
    """Every expert rules out the last symbol, which arrives at step 7."""
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(11)
    experts = [es.ConstantExpert(np.append(rng.dirichlet(np.ones(2)), 0.0)) for _ in range(k)]
    data = [int(x) for x in rng.integers(0, 2, 10)]
    data[6] = 2
    w = [1.0 / k] * k
    return make(w), experts, data


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_zero_marginal_at_same_step(name, mode, hook):
    model, experts, data = ruled_out_at_step_7(name)
    for m in (model, TupleOnly(model)):
        for keep_steps in (True, False):
            with pytest.raises(es.ZeroMarginalError) as exc:
                run(m, experts, data, mode, HOOKS[hook], keep_steps)
            assert exc.value.step == 7


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_posterior_zero_marginal_at_same_step(name, mode):
    model, experts, data = ruled_out_at_step_7(name)
    for m in (model, TupleOnly(model)):
        with pytest.raises(es.ZeroMarginalError) as exc:
            posterior(m, experts, data, mode)
        assert exc.value.step == 7
    with pytest.raises(es.ZeroMarginalError) as exc:
        region_posterior(model, es.prediction_matrix(experts, data))
    assert exc.value.step == 7


@pytest.mark.parametrize("mode", MODES)
def test_no_switch_before_span_start_at_same_step(mode):
    # Runs last 2 or 3 steps, so the change of expert at step 2 is impossible.
    experts = [es.ConstantExpert([1.0, 0.0]), es.ConstantExpert([0.0, 1.0])]
    model = es.run_length(es.uniform_span(2, 3), [0.5, 0.5])
    for m in (model, TupleOnly(model)):
        for call in (run, posterior):
            with pytest.raises(es.ZeroMarginalError) as exc:
                call(m, experts, [0, 1, 1], mode)
            assert exc.value.step == 2


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_weight_map_round_trip_keeps_vector(name, mode):
    # A hook that returns its input unchanged leaves the run as it was, bit
    # for bit: the array core's inverse of ``states`` puts every state back
    # on its own node, on every model's numbering.
    make, w, experts, data = instance(name, SEEDS.index(name))
    plain = run(make(w), experts, data, mode)
    hooked = run(make(w), experts, data, mode, lambda wm: wm)
    assert [s.log_cond for s in hooked.steps] == [s.log_cond for s in plain.steps]
    assert hooked.weight_map.entries == plain.weight_map.entries


# Two more models for the hook checks: fixed share, which only offers the
# tuple interface, and the default switch model, as the CLI builds it.
OTHER_MODELS = {
    "fixed_share": lambda w: es.fixed_share(w, 0.2),
    "switch": lambda w: es.switch(es.default_switch_config(2), 2),
}


def off_stratum_cases():
    for name in ARRAY_MODELS:
        yield pytest.param(name, False, id=name)
        yield pytest.param(name, True, id=f"{name}-tuple")
    for name in OTHER_MODELS:
        yield pytest.param(name, True, id=name)


@pytest.mark.parametrize("name, tuple_core", off_stratum_cases())
def test_hook_state_off_the_stratum_raises_with_step(name, tuple_core):
    # A hook moves one state up one level. That state is not a node of the
    # stratum, even where its numbering would fit one, and the tuple core
    # would take it for a state already on the next stratum, so either
    # core refuses it and names the step and the state.
    if name in OTHER_MODELS:
        rng = np.random.default_rng(len(SEEDS) + list(OTHER_MODELS).index(name))
        experts = random_constant_experts(rng, 2, ALPHABET)
        data = [int(x) for x in rng.integers(0, ALPHABET, N)]
        model = OTHER_MODELS[name](rng.dirichlet(np.ones(2) * 5.0))
    else:
        make, w, experts, data = instance(name, SEEDS.index(name))
        model = TupleOnly(make(w)) if tuple_core else make(w)
    lifted = []

    def lift(wm):
        entries = dict(wm.entries)
        q, v = entries.popitem()
        lifted.append((q[0], q[1] + 1, *q[2:]))
        entries[lifted[-1]] = v
        return es.WeightMap(entries, wm.level)

    with pytest.raises(ValueError, match="at step 1,") as exc:
        run(model, experts, data, "matrix", lift)
    assert repr(lifted[-1]) in str(exc.value)


def captured(model, experts, data, mode, hook):
    """A run and the frontier of each level: the initial one, then each
    one the hook returned (the update's own where there is no hook)."""
    frontiers = [dict(model.initial())]

    def capture(wm):
        wm = wm if hook is None else hook(wm)
        frontiers.append(dict(wm.entries))
        return wm
    return run(model, experts, data, mode, capture), frontiers


def held_per_level(model, frontiers):
    """What the array step holds at each level, counted on the tuple
    interface: the live nodes of the silent region that propagate_frontier
    records from the level's frontier, sources included, plus the states
    of the next stratum they reach."""
    for t, frontier in enumerate(frontiers[:-1]):
        region = []
        propagate_frontier(model, frontier, t + 1, record=region)
        reached = {v for _, succ in region for v, _ in succ
                   if model.is_productive(v) and model.level(v) == t + 1}
        yield len(region) + len(reached)


@pytest.mark.parametrize("p", [None, 1.0, 0.9])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_array_counts_are_exact(name, mode, p):
    # Counts and kept states must be equal, not close. Both cores count a
    # level's live weights for peak_weights; the count is also checked
    # against held_per_level, recounted from the tuple core's frontiers.
    make, w, experts, data = instance(name, SEEDS.index(name))
    hook = None if p is None else es.trimming_hook(p)
    fast = run(make(w), experts, data, mode, hook)
    ref, frontiers = captured(TupleOnly(make(w)), experts, data, mode, hook)
    assert len(frontiers) == N + 1
    assert fast.transitions_per_level == ref.transitions_per_level
    assert fast.weight_map.entries.keys() == ref.weight_map.entries.keys()
    assert fast.peak_weights == ref.peak_weights == max(held_per_level(make(w), frontiers))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["run_length_inv_poly", "universal_share"])
def test_trim_tie_across_the_cut_keeps_trim_frontier_states(name, mode):
    # Identical experts under uniform weights give every state a twin of
    # equal mass, so an odd cut splits a tie; the lower state id is kept.
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(5)
    experts = [es.ConstantExpert([0.7, 0.3])] * k
    data = [int(x) for x in rng.integers(0, 2, 25)]
    hook = es.trimming_hook(0.9)
    split = []
    trim_vector = hook.trim_vector
    hook.trim_vector = lambda vec, states: trim_vector(
        vec, lambda idx: split.append(len(idx)) or states(idx))
    kwargs = ({} if mode == "experts"
              else {"logpred_matrix": es.prediction_matrix(experts, data)})
    fast = es.ForwardPass(make([1 / k] * k), None if kwargs else experts,
                          frontier_hook=hook, **kwargs)
    ref = es.ForwardPass(TupleOnly(make([1 / k] * k)), None if kwargs else experts,
                         frontier_hook=es.trimming_hook(0.9), **kwargs)
    for x in data:
        fast.advance(x)
        ref.advance(x)
        assert fast.weight_map.entries.keys() == ref.weight_map.entries.keys()
    assert split


@pytest.mark.parametrize("law", [es.uniform_span(1, 3), es.truncate(es.elias_delta(), 6)],
                         ids=["uniform_1_3", "truncated_6"])
def test_finite_span_levels_share_their_arrays(law):
    levels = es.run_length(law, [0.4, 0.6]).level_arcs()
    arcs = [next(levels) for _ in range(law.span + 4)]
    for before, after in zip(arcs[law.span:], arcs[law.span + 1:]):
        for a, b in zip(before.layers, after.layers, strict=True):
            assert np.shares_memory(a.src, b.src) and np.shares_memory(a.logw, b.logw)


@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_shape_facts_hold_and_only_skip_work(name):
    # Every destination of every layer has an arc, every arc names a node
    # numbered before the layer, and stepping without counting transitions
    # gives the same bits.
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(3)
    levels = make(rng.dirichlet(np.ones(k))).level_arcs()
    vec = np.zeros(1)
    for _ in range(12):
        level = next(levels)
        size = len(vec)
        for layer in level.layers:
            counts = np.diff(layer.indptr)
            assert layer.indptr[0] == 0 and layer.indptr[-1] == len(layer.src) == len(layer.logw)
            assert counts.min(initial=1) >= 1
            assert layer.src.min(initial=0) >= 0 and layer.src.max(initial=0) < size
            size += len(counts)
        out, transitions, peak = es.hmm.propagate_arcs(vec, level.layers)
        bare = es.hmm.propagate_arcs(vec, level.layers, count_transitions=False)
        assert bare[0].tobytes() == out.tobytes() and bare[1:] == (0, peak)
        vec = out + rng.normal(size=len(out))


@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_strata_are_k_column_grids(name):
    # The array core lists no labels: node j of every stratum carries
    # expert j % k, so a stratum has a multiple of k nodes.
    k, make = ARRAY_MODELS[name]
    model = make(np.random.default_rng(SEEDS.index(name)).dirichlet(np.ones(k)))
    for level in itertools.islice(model.level_arcs(), 40):
        nodes = stratum(level)
        assert len(nodes) % k == 0
        assert [model.label(q) for q in level.states(nodes)] == (nodes % k).tolist()


@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_pull_is_the_adjoint_of_propagate(name):
    # With A the level's arc masses, sum_v (A s)_v b_v = sum_u s_u (A^T b)_u:
    # the mass s sends into b is the mass b pulls back onto s. In log space
    # this checks each step against the other, not against itself.
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(SEEDS.index(name))
    model = make(rng.dirichlet(np.ones(k)))
    levels = model.level_arcs()
    size = len(model.initial())
    for _ in range(15):
        level = next(levels)
        s = np.where(rng.random(size) < 0.2, -np.inf, rng.normal(size=size))
        out = es.hmm.propagate_arcs(s, level.layers)[0]
        b = np.where(rng.random(len(out)) < 0.25, -np.inf, rng.normal(size=len(out)))
        pushed = es.logprob.logsumexp(out + b)
        pulled = es.logprob.logsumexp(s + es.hmm.pull_arcs(b, level.layers, size))
        assert pulled == pytest.approx(pushed, rel=1e-12)
        size = len(out)


@pytest.mark.parametrize("p", [None, 0.99])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_streaming_pass_is_the_same(name, mode, p):
    # keep_steps=False skips the transition count and the step list, and
    # nothing else: every step, the marginal and the peak are bit for bit.
    make, w, experts, data = instance(name, SEEDS.index(name))
    hook = None if p is None else es.trimming_hook(p)
    kwargs = ({"logpred_matrix": es.prediction_matrix(experts, data)}
              if mode == "matrix" else {})
    kept, streamed = (
        es.ForwardPass(make(w), None if kwargs else experts, frontier_hook=hook,
                       keep_steps=keep, **kwargs)
        for keep in (True, False))
    for x in data:
        assert kept.advance(x) == streamed.advance(x)
        a, b = kept.last_step, streamed.last_step
        assert a.log_cond == b.log_cond and a.pre_update_total == b.pre_update_total
        assert a.expert_dist.tobytes() == b.expert_dist.tobytes()
        assert kept.log_marginal == streamed.log_marginal
        assert kept.peak_weights == streamed.peak_weights
    assert len(kept.transitions_per_level) == N and streamed.transitions_per_level == []
    assert streamed.steps == []


def test_universal_share_weights_from_the_template():
    # Both weight vectors are slices of one m + 0.5 template grown by
    # doubling, and the draw and stay arcs are slices of index templates;
    # they equal per-level expressions, byte for byte, across several
    # regrowths.
    k = 3
    levels = es.universal_share([0.2, 0.3, 0.5]).level_arcs()
    next(levels)
    for t in range(1, 71):
        bump, draw, stay = next(levels).layers
        m = np.arange(t)
        assert bump.logw.tobytes() == np.repeat(np.log((m + 0.5) / t), k).tobytes()
        kept = stay.logw.reshape(-1, 2)[:t * k, 0]
        assert kept.tobytes() == np.repeat(np.log((t - m - 0.5) / t), k).tobytes()
        # draw(t, m + 1), node t * k + t + m, follows bump(t, m), node t * k + m.
        assert draw.src.tobytes() == np.arange(t * k, t * k + t).tobytes()
        assert draw.logw.tobytes() == np.zeros(t).tobytes()
        assert draw.indptr.tobytes() == np.arange(t + 1).tobytes()
        # e(t + 1, x, m) stays from node m * k + x (node 0 at m = t, with
        # zero mass) and draws from draw(t, m), node t * k + t + m - 1.
        row = np.arange(t + 1).repeat(k)
        node = np.arange((t + 1) * k)
        pairs = np.stack([np.where(row < t, node, 0), t * k + t - 1 + row], axis=1)
        assert stay.src.tobytes() == pairs.tobytes()


def test_universal_elementwise_levels_from_the_template(monkeypatch):
    # The templates are grown about twofold; templates built fresh at each
    # level's own size give the same levels, byte for byte, across several
    # regrowths, and the same tuple states. Built at the tail sum of the
    # level itself, a template is too small for the next level, so call t
    # builds level t's.
    k, levels = 3, 71
    model = es.universal_elementwise(k)
    grown = list(itertools.islice(model.level_arcs(), levels))
    templates = es.models._tail_templates
    sizes = []

    def exact(k, top):
        built = templates(k, len(sizes))
        sizes.append(len(built[0]))
        return built
    monkeypatch.setattr(es.models, "_tail_templates", exact)
    fresh = model.level_arcs()
    for t, (a, b) in enumerate(zip(grown, fresh)):
        assert sizes[-1] == math.comb(t + k - 1, k - 1)
        for x, y in zip(a.layers, b.layers, strict=True):
            for field in ("src", "logw", "indptr"):
                assert getattr(x, field).tobytes() == getattr(y, field).tobytes()
        if t % 10 == 0:
            nodes = stratum(a)
            assert a.states(nodes) == b.states(nodes)
    assert len(sizes) == levels


@pytest.mark.parametrize("k", [2, 3, 4])
def test_universal_elementwise_graded_numbering(k):
    # Node i * k + x of every level is numbered by the graded rank of its
    # count vector's tail: states names each node once, and the count
    # vectors of level t come first, in the same order, at level t + 1.
    levels = es.universal_elementwise(k).level_arcs()
    before = []
    for t in range(41):
        level = next(levels)
        nodes = stratum(level)
        states = level.states(nodes)
        assert all(q[1] == t + 1 and sum(q[2]) == t and q[3] == i % k
                   for i, q in enumerate(states))
        tails = [q[2][1:] for q in states[::k]]
        assert len(tails) == math.comb(t + k - 1, k - 1) == len(set(tails))
        assert tails[:len(before)] == before
        assert tails == sorted(tails, key=lambda c: (sum(c), c))
        before = tails
