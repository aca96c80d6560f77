"""Stationary models: the declaration, levels replayed by index, and the
posterior's blocked scan.

A model that declares ``stationary`` repeats its levels, so the tuple core
of a forward pass compiles a level once and replays it at later levels
whose frontier has the same shape, and Viterbi reuses one level's routes.
``oracles.TupleOnly`` does not copy the declaration, so the same model
wrapped in it runs propagate_frontier at every level; the forward pass
must agree with it to the last bit, and so must Viterbi.

The posterior of a stationary model with at most ``SCAN_STATES`` stratum
states and a closed route table is a blocked scan, which sums in another
order: it must have the -inf entries of ``oracles.region_posterior``, the
reverse replay of the silent regions propagate_frontier records, raise at
its step, and agree with its finite entries within
``oracles.assert_posterior_close``'s tolerance. Every other posterior,
``TupleOnly``'s and that of a stationary model past the crossover
included, replays recorded levels and agrees with it to the last bit.

The switch model is not stationary, but its ``_level_tables`` give each
level's table over stratum 1's states, held to ``_Routes.build`` level by
level; its scans must agree with the loop as a stationary model's do.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import expertseq as es
import expertseq.forward as forward_mod
from expertseq.experts import ModelExpert
from expertseq.forward import SCAN_STATES, _offline_forward, _Routes, _TupleCore
from expertseq.hmm import LevelPlan, shape_of
from expertseq.models import FixedShare
from oracles import (Counting, LateShare, TupleOnly, assert_posterior_close, brute_map,
                     brute_posterior, iter_sequence_priors, posterior_or_step,
                     record_stream, region_posterior)

N = 40
ALPHABET = 3

STATIONARY = {
    "bayes": lambda w: es.bayes(w),
    "fixed_elementwise": lambda w: es.fixed_elementwise(w),
    "fixed_share": lambda w: es.fixed_share(w, 0.3),
    "overconfident": lambda w: es.overconfident(w, 0.2),
}
UNAMBIGUOUS = [name for name in STATIONARY if STATIONARY[name]([0.5, 0.5]).unambiguous]
NOT_STATIONARY = {
    "switch": lambda w: es.switch(es.SwitchConfig(0.5, es.inv_poly(), tuple(w)), len(w)),
    "run_length": lambda w: es.run_length(es.inv_poly(), w),
    "universal_share": lambda w: es.universal_share(w),
    "universal_elementwise": lambda w: es.universal_elementwise(len(w)),
}


def reverse_at_eight(wm):
    """A new map, reversed at level 8 and in the same order elsewhere."""
    items = list(wm.entries.items())
    if wm.level == 8:
        items.reverse()
    return es.WeightMap(dict(items), wm.level)


def rotate_in_place(wm):
    """Moves the first state to the end of the map it was given."""
    entries = wm.entries
    q = next(iter(entries))
    entries[q] = entries.pop(q)
    return wm


def zero_first_every_third(wm):
    """Keeps every state, in order, but gives the first zero mass at
    every third level: a dead node that a replay must not cover."""
    if wm.level % 3 == 0:
        wm.entries[next(iter(wm.entries))] = -math.inf
    return wm


HOOKS = {"none": None, "trim_0.9": es.trimming_hook(0.9), "identity": lambda wm: wm,
         "reverse_at_eight": reverse_at_eight, "rotate_in_place": rotate_in_place,
         "zero_first_every_third": zero_first_every_third}
MODES = ("experts", "matrix")


def instance(name, k=3, seed=0):
    """A model, its experts and data. Expert 0 rules out symbol 0, so its
    states die at each 0 and the frontier's shape changes; the first 0
    comes at step 12, after levels have been compiled and replayed."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(k) * 5.0)
    experts = [es.ConstantExpert([0.0, 0.6, 0.4])]
    experts += [es.ConstantExpert(rng.dirichlet(np.ones(ALPHABET))) for _ in range(k - 1)]
    if name == "overconfident":
        experts = es.with_safe_expert(experts, ALPHABET)
    data = [1, 2] * 5 + [1, 0] + [int(x) for x in rng.integers(0, ALPHABET, N - 12)]
    return {**STATIONARY, **NOT_STATIONARY}[name](w), experts, data


def open_pass(model, experts, data, mode, hook=None):
    if mode == "experts":
        return es.ForwardPass(model, experts, frontier_hook=hook, want_outcome_dists=True)
    return es.ForwardPass(model, logpred_matrix=es.prediction_matrix(experts, data),
                          frontier_hook=hook)


def forward(model, experts, data, mode, hook=None):
    """A pass with its weight map after every step, and the step of the
    ZeroMarginalError that stopped it, if one did."""
    fp = open_pass(model, experts, data, mode, hook)
    maps, error = [], None
    try:
        for x in data:
            fp.advance(x)
            maps.append(list(fp.weight_map.entries.items()))
    except es.ZeroMarginalError as e:
        error = e.step
    return fp, maps, error


def offline(fn, model, experts, data, mode):
    """An offline entry point's result in experts or matrix mode."""
    if mode == "experts":
        return fn(model, experts, data)
    return fn(model, None, data, logpred_matrix=es.prediction_matrix(experts, data))


def rotating_matrix(k):
    """Rules out expert i % k at step i, so each frontier lacks a different
    expert; a shape comes back after k levels."""
    lp = np.log(np.random.default_rng(2).uniform(0.1, 1.0, (5 * k, k)))
    lp[np.arange(5 * k), np.arange(5 * k) % k] = -np.inf
    return lp


def assert_viterbi_close(fast, ref):
    assert fast[0] == ref[0]
    assert fast[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)


def assert_viterbi_identical(fast, ref):
    assert (fast[0], fast[1].hex()) == (ref[0], ref[1].hex())


def dist_bytes(d):
    return None if d is None else d.tobytes()


def assert_identical(fast, ref):
    (a, a_maps, a_err), (b, b_maps, b_err) = fast, ref
    assert a_err == b_err
    assert a_maps == b_maps          # states, their order and their masses
    assert len(a.steps) == len(b.steps)
    for s, t in zip(a.steps, b.steps):
        assert s.log_cond == t.log_cond
        assert s.pre_update_total == t.pre_update_total
        assert dist_bytes(s.expert_dist) == dist_bytes(t.expert_dist)
        assert dist_bytes(s.outcome_dist) == dist_bytes(t.outcome_dist)
    assert a.log_marginal == b.log_marginal
    assert a.transitions_per_level == b.transitions_per_level
    assert a.peak_weights == b.peak_weights


class TestDeclaration:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", STATIONARY)
    def test_stationary_models_validate_clean(self, name, k):
        model = STATIONARY[name]([1.0 / k] * k)
        assert model.stationary
        assert es.validate(model, 40) == []

    @pytest.mark.parametrize("name", NOT_STATIONARY)
    def test_level_dependent_models_do_not_declare(self, name):
        assert not NOT_STATIONARY[name]([0.5, 0.5]).stationary

    def test_lying_model_is_reported(self):
        class LevelShare(FixedShare):
            """Switches with mass 1 / (n + 2) at level n, yet declares
            itself stationary."""

            stationary = True

            def successors(self, q):
                if q[0] == "draw":
                    return super().successors(q)
                n = q[1]
                a = 1.0 / (n + 2)
                return [(("e", n + 1, q[2]), math.log1p(-a)), (("draw", n), math.log(a))]

        issues = es.validate(LevelShare([0.5, 0.5], 0.1), 5)
        bad = [i for i in issues if i.kind == "stationary"]
        assert bad and {i.state for i in bad} == {("e", n, x) for n in (1, 2, 3) for x in (0, 1)}
        assert all(i.kind == "stationary" for i in issues)

    def test_level_dependent_label_is_reported(self):
        class Relabel(FixedShare):
            """Swaps its two experts' labels at odd levels, yet declares
            itself stationary."""

            stationary = True

            def label(self, q):
                return (q[2] + q[1]) % 2

        issues = es.validate(Relabel([0.5, 0.5], 0.1), 5)
        assert issues and all(i.kind == "stationary" for i in issues)
        assert {i.state for i in issues} == {("e", n, x) for n in (1, 2, 3) for x in (0, 1)}

    def test_tuple_only_hides_the_declaration(self, monkeypatch):
        model, experts, data = instance("fixed_share")
        assert model.stationary and not TupleOnly(model).stationary
        calls = []
        real = forward_mod.propagate_frontier

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(forward_mod, "propagate_frontier", counted)
        forward(TupleOnly(model), experts, data, "experts")
        assert calls == list(range(1, N + 1))
        calls.clear()
        forward(model, experts, data, "experts")
        assert len(calls) < N // 2


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STATIONARY)
def test_replayed_levels_match_tuple_only(name, mode, hook):
    model, experts, data = instance(name)
    assert 0 in data
    fast = forward(model, experts, data, mode, HOOKS[hook])
    assert_identical(fast, forward(TupleOnly(model), experts, data, mode, HOOKS[hook]))
    if hook in ("none", "identity", "reverse_at_eight", "zero_first_every_third"):
        assert fast[0]._core.plans


class NoShare(FixedShare):
    """Fixed share at alpha 0 that lists its arc of zero mass to the draw
    node, against the interface's contract; that node is dead."""

    def successors(self, q):
        if q[0] == "draw":
            return super().successors(q)
        return [(("e", q[1] + 1, q[2]), 0.0), (("draw", q[1]), -math.inf)]


def test_zero_mass_arc_is_not_compiled():
    # The silent node the zero-mass arc alone feeds is dead, so no plan
    # covers its level and the pass runs propagate_frontier instead.
    model = NoShare([0.5, 0.5], 0.0)
    lp = np.log(np.random.default_rng(3).uniform(0.1, 1.0, (N, 2)))
    fast = es.ForwardPass(model, logpred_matrix=lp)
    ref = es.ForwardPass(TupleOnly(model), logpred_matrix=lp)
    for _ in range(N):
        fast.advance(None)
        ref.advance(None)
    assert [s.log_cond for s in fast.steps] == [s.log_cond for s in ref.steps]
    assert fast.transitions_per_level == ref.transitions_per_level
    assert not fast._core.plans


def test_zero_mass_arc_is_reported_and_swept():
    # validate names each state that lists an arc of zero mass, and the
    # posterior's sweep keeps the dead node it feeds at -inf.
    model = NoShare([0.5, 0.5], 0.0)
    issues = es.validate(model, 4)
    assert {i.kind for i in issues} == {"zero-arc"}
    assert {i.state for i in issues} == {("e", n, x) for n in (1, 2, 3) for x in (0, 1)}
    lp = np.log(np.random.default_rng(3).uniform(0.1, 1.0, (N, 2)))
    lp[5:, 0] = -np.inf
    ref = region_posterior(model, lp)
    scan = es.posterior_experts(model, None, [None] * N, logpred_matrix=lp)
    assert_posterior_close(scan, ref)
    loop = es.posterior_experts(TupleOnly(model), None, [None] * N, logpred_matrix=lp)
    assert loop.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", STATIONARY)
def test_zero_marginal_at_the_same_step(name):
    model, _, _ = instance(name)
    lp = np.log(np.random.default_rng(1).uniform(0.1, 1.0, (N, model.num_experts)))
    lp[17] = -np.inf
    runs = []
    for m in (model, TupleOnly(model)):
        fp = es.ForwardPass(m, logpred_matrix=lp)
        with pytest.raises(es.ZeroMarginalError) as e:
            for _ in range(N):
                fp.advance(None)
        runs.append(([s.log_cond for s in fp.steps], e.value.step))
    assert runs[0] == runs[1] and runs[0][1] == 18


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STATIONARY)
def test_alternating_passes_match_sequential_ones(name, mode):
    model, experts, data = instance(name)
    streams = (data, data[::-1])
    alone = [forward(model, experts, d, mode) for d in streams]
    passes = [open_pass(model, experts, d, mode) for d in streams]
    maps = [[], []]
    for symbols in zip(*streams):
        for fp, m, x in zip(passes, maps, symbols):
            fp.advance(x)
            m.append(list(fp.weight_map.entries.items()))
    for fp, m, ref in zip(passes, maps, alone):
        assert_identical((fp, m, None), ref)


@pytest.mark.parametrize("k", [3, 12])
def test_rotating_ruled_out_expert(k):
    # Fixed share rules out expert i % k at step i and the hub revives
    # it, so each frontier lacks a different expert. At k = 3 the shapes
    # come back within a few levels and are replayed; at k = 12 a shape
    # comes back only after more levels than the core looks back, and
    # nothing it holds may grow past the cap.
    model = es.fixed_share([1.0 / k] * k, 0.3)
    lp = rotating_matrix(k)
    fast = es.ForwardPass(model, logpred_matrix=lp)
    ref = es.ForwardPass(TupleOnly(model), logpred_matrix=lp)
    for _ in range(5 * k):
        fast.advance(None)
        ref.advance(None)
        assert len(fast._core.plans) <= _TupleCore.PLANS
        assert len(fast._core.seen) <= _TupleCore.PLANS
        assert list(fast.weight_map.entries.items()) == list(ref.weight_map.entries.items())
    assert [s.log_cond for s in fast.steps] == [s.log_cond for s in ref.steps]
    assert fast.transitions_per_level == ref.transitions_per_level
    assert bool(fast._core.plans) == (k == 3)


def test_recording_pass_replays_plans():
    # Every level records a plan and its post-update masses by sink, -inf
    # where the update dropped a state. Replayed levels share their plan;
    # a level that fell back, such as level 1, records a plan of its own
    # that the replay cache never holds.
    model, experts, data = instance("fixed_share")
    lp = es.prediction_matrix(experts, data)
    core = _offline_forward(model, lp, True)[0]
    assert len(core.regions) == len(core.stratum_weights) == N
    for plan, weights in zip(core.regions, core.stratum_weights):
        assert type(plan) is LevelPlan and type(weights) is list
        assert len(weights) == len(plan.sinks) == len(plan.labels)
    uses = Counter(map(id, core.regions))
    assert sum(uses[id(plan)] > 1 for plan in core.regions) > N // 2
    assert uses[id(core.regions[0])] == 1
    assert all(plan is not core.regions[0] for plan in core.plans.values())
    assert any(-math.inf in w for w in core.stratum_weights)


def test_initial_mass_on_stratum_1_is_an_arc_of_mass_0():
    # Bayes puts its initial mass on stratum 1, so level 1 processes no
    # node: each state keeps its frontier slot and reaches its own sink by
    # one arc of log mass 0.
    k = 3
    model = es.bayes([0.2, 0.3, 0.5])
    fp = es.ForwardPass(model, logpred_matrix=np.zeros((2, k)))
    fp.advance(None)
    plan = _offline_forward(model, np.zeros((1, k)), True)[0].regions[0]
    assert plan.order == tuple((j, ((j - k, 0.0),)) for j in range(k))
    assert plan.nodes == k and plan.labels == tuple(range(k))
    assert (plan.transitions, plan.held) == (0, k) == (fp.transitions_per_level[0], fp.peak_weights)
    assert plan.replay([v for _, v in model.initial()], 1) == dict(model.initial())


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STATIONARY)
def test_posterior_matches_tuple_only(name, mode, k):
    # Expert 0 rules out symbol 0, so replayed levels from step 12 on drop
    # its states, and TupleOnly's sweep crosses between replayed levels and
    # levels compiled where they fell back; the model itself is scanned.
    model, experts, data = instance(name, k)
    ref = region_posterior(model, es.prediction_matrix(experts, data))
    assert_posterior_close(offline(es.posterior_experts, model, experts, data, mode), ref)
    loop = offline(es.posterior_experts, TupleOnly(model), experts, data, mode)
    assert loop.tobytes() == ref.tobytes()


# Universal elementwise is not stationary either way, and its states of
# expert 0 die from step 12 on, so the loop skips dead sources.
VITERBI_CASES = [(name, mode, k) for name in UNAMBIGUOUS + ["universal_elementwise"]
                 for mode in MODES for k in (2, 3, 4) if name in STATIONARY or k < 4]


@pytest.mark.parametrize("name, mode, k", VITERBI_CASES,
                         ids=["-".join(map(str, case)) for case in VITERBI_CASES])
def test_viterbi_matches_tuple_only(name, mode, k):
    model, experts, data = instance(name, k)
    assert_viterbi_identical(offline(es.viterbi_unambiguous, model, experts, data, mode),
                             offline(es.viterbi_unambiguous, TupleOnly(model), experts, data, mode))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", UNAMBIGUOUS)
def test_viterbi_matches_brute_force(name, k):
    model, experts, _ = instance(name, k)
    data = [1, 2, 1, 0, 2, 1, 0]        # expert 0's states die at steps 4 and 7
    assert_viterbi_close(es.viterbi_unambiguous(model, experts, data),
                         brute_map(model, experts, data))


@pytest.mark.parametrize("k", [3, 12])
def test_offline_passes_with_rotating_ruled_out_expert(k):
    # At k = 3 the recording pass replays plans; at k = 12 it compiles none.
    model = es.fixed_share([1.0 / k] * k, 0.3)
    lp = rotating_matrix(k)
    assert bool(_offline_forward(model, lp, True)[0].plans) == (k == 3)
    data = [None] * len(lp)
    assert_posterior_close(es.posterior_experts(model, None, data, logpred_matrix=lp),
                           region_posterior(model, lp))
    assert_viterbi_identical(es.viterbi_unambiguous(model, None, data, logpred_matrix=lp),
                             es.viterbi_unambiguous(TupleOnly(model), None, data, logpred_matrix=lp))
    if k == 3:      # brute force over the first 7 steps, on the matrix
        short = lp[:7]
        table = {seq: prior + short[np.arange(7), list(seq)].sum()
                 for seq, prior in iter_sequence_priors(model, 7)}
        best = max(sorted(table), key=table.get)
        assert_viterbi_close(es.viterbi_unambiguous(model, None, data[:7], logpred_matrix=short),
                             (list(best), table[best]))


@pytest.mark.parametrize("name", STATIONARY)
def test_offline_zero_marginal_at_the_same_step(name):
    model, _, _ = instance(name)
    lp = np.log(np.random.default_rng(1).uniform(0.1, 1.0, (N, model.num_experts)))
    lp[17] = -np.inf
    fns = [es.posterior_experts] + [es.viterbi_unambiguous] * model.unambiguous
    for fn in fns:
        for m in (model, TupleOnly(model)):
            with pytest.raises(es.ZeroMarginalError) as e:
                fn(m, None, [None] * N, logpred_matrix=lp)
            assert e.value.step == 18
    with pytest.raises(es.ZeroMarginalError) as e:
        region_posterior(model, lp)
    assert e.value.step == 18


@pytest.mark.parametrize("k, per_step", [(2, 400), (8, 800)])
def test_posterior_memory_per_step(k, per_step):
    # A replayed level holds its plan and a list of masses; a region and a
    # dict copy per level took about 1,500 B a step at k = 2.
    n = 2000
    lp = np.log(np.random.default_rng(k).uniform(0.05, 0.95, (n, k)))
    model = es.fixed_share([1.0 / k] * k, 0.05)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        es.posterior_experts(model, None, [None] * n, logpred_matrix=lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= per_step * n


# -- the posterior's blocked scan ---------------------------------------------


def posterior(model, lp):
    return posterior_or_step(es.posterior_experts, model, None, [None] * len(lp),
                             logpred_matrix=lp)


def random_lp(model, n, seed=0):
    return np.log(np.random.default_rng(seed).uniform(0.1, 1.0, (n, model.num_experts)))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", STATIONARY)
def test_scan_matches_brute_force(name, k):
    model, experts, _ = instance(name, k)
    data = [1, 2, 1, 0, 2, 1, 0][:7 if k < 4 else 5]   # expert 0's states die at each 0
    lp = es.prediction_matrix(experts, data)
    assert forward_mod._scan_posterior(model, lp) is not None
    assert_posterior_close(es.posterior_experts(model, experts, data),
                           brute_posterior(model, experts, data), rel=1e-9)


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name", STATIONARY)
def test_scan_of_short_runs(name, n):
    model = STATIONARY[name]([0.2, 0.3, 0.5])
    lp = random_lp(model, n)
    fast = posterior(model, lp)
    assert fast.shape == (n, model.num_experts)
    assert_posterior_close(fast, region_posterior(model, lp))
    if n:       # a last row of zeros stops both at step n
        lp[-1] = -np.inf
        assert posterior(model, lp) == n == posterior_or_step(region_posterior, model, lp)


@pytest.mark.parametrize("name", STATIONARY)
def test_scan_zero_prior_weight_is_a_minus_inf_column(name):
    model = STATIONARY[name]([0.0, 0.4, 0.6])
    lp = random_lp(model, N)
    assert forward_mod._scan_posterior(model, lp) is not None
    fast = posterior(model, lp)
    assert np.all(fast[:, 0] == -np.inf) and np.all(np.isfinite(fast[:, 1:]))
    assert_posterior_close(fast, region_posterior(model, lp))


@pytest.mark.parametrize("make", [lambda w: es.fixed_share(w, 0.0),
                                  lambda w: es.fixed_share(w, 1.0),
                                  lambda w: NoShare(w, 0.0)],
                         ids=["alpha_0", "alpha_1", "zero_arc"])
def test_scan_of_degenerate_tables(make):
    # Alpha 0 and the zero-mass arc leave the table diagonal, alpha 1 makes
    # every row the same; expert 0 is ruled out from step 6 on.
    model = make([0.2, 0.3, 0.5])
    lp = random_lp(model, N)
    lp[5:, 0] = -np.inf
    assert forward_mod._scan_posterior(model, lp) is not None
    assert_posterior_close(posterior(model, lp), region_posterior(model, lp))


@pytest.mark.parametrize("name", STATIONARY)
def test_scan_keeps_masses_far_below_the_top(name):
    # Expert 1 is e^-800 times as likely as expert 0 at every step, beyond
    # what a scaled exp holds, so where nothing else reaches its states (as
    # in bayes) the scan must sum those entries again in logs.
    model = STATIONARY[name]([0.2, 0.3, 0.5])
    lp = random_lp(model, N)
    lp[:, 1] -= 800.0
    fast = posterior(model, lp)
    assert np.all(np.isfinite(fast[:, 1]))
    assert_posterior_close(fast, region_posterior(model, lp))


def test_scan_falls_back_where_the_table_is_not_closed():
    model = LateShare([0.2, 0.3, 0.5], 0.3)
    assert model.stationary and es.validate(model, 6) == []
    lp = random_lp(model, N)
    assert forward_mod._scan_posterior(model, lp) is None
    assert posterior(model, lp).tobytes() == region_posterior(model, lp).tobytes()


def test_posterior_past_the_crossover_replays_plans():
    # Past SCAN_STATES the recorded loop runs: expert 0 is ruled out from
    # step 7 on, so replayed levels drop its state, to the last bit.
    k = SCAN_STATES + 1
    model = es.fixed_share([1.0 / k] * k, 0.3)
    lp = random_lp(model, 20)
    lp[6:, 0] = -np.inf
    assert forward_mod._scan_posterior(model, lp) is None
    assert forward_mod._scan_posterior(es.fixed_share([1.0 / (k - 1)] * (k - 1), 0.3),
                                       lp[:, 1:]) is not None
    assert _offline_forward(model, lp, True)[0].plans
    assert posterior(model, lp).tobytes() == region_posterior(model, lp).tobytes()


def renormalised_fixed_share_posterior(lp, w, alpha):
    """Fixed share's posterior by forward-backward in probabilities, each
    forward and backward vector renormalised at every step."""
    n, k = lp.shape
    trans = (1.0 - alpha) * np.eye(k) + alpha * np.asarray(w)[None, :]
    like = np.exp(lp)
    fwd = np.empty((n, k))
    f = np.asarray(w) * like[0]
    fwd[0] = f / f.sum()
    for t in range(1, n):
        f = (fwd[t - 1] @ trans) * like[t]
        fwd[t] = f / f.sum()
    post, b = np.empty((n, k)), np.ones(k)
    post[-1] = fwd[-1]
    for t in range(n - 1, 0, -1):
        b = trans @ (like[t] * b)
        b /= b.sum()
        p = fwd[t - 1] * b
        post[t - 1] = p / p.sum()
    return post


def test_scan_precision_on_a_long_run():
    # Each carried vector is rescaled, so no row's digits go to a log mass
    # that grows with n: the recorded loop's probabilities are off by
    # 2.5e-12 here, the scan's by 3.6e-14.
    n, w, alpha = 20_000, [0.5, 0.5], 0.05
    lp = np.log(np.random.default_rng(7).uniform(0.05, 0.95, (n, 2)))
    got = es.posterior_experts(es.fixed_share(w, alpha), None, [None] * n, logpred_matrix=lp)
    ref = renormalised_fixed_share_posterior(lp, w, alpha)
    assert np.abs(np.exp(got) - ref).max() <= 1e-12


def test_scan_memory():
    # The grid and the forward values are (n, k) and (n, S) arrays, 1.6 MB
    # each here; no (n, S, S) array and no per-level record is held.
    n = 100_000
    lp = np.log(np.random.default_rng(2).uniform(0.05, 0.95, (n, 2)))
    data = [None] * n
    model = es.fixed_share([0.5, 0.5], 0.05)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        es.posterior_experts(model, None, data, logpred_matrix=lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16e6


# -- the forward scan ----------------------------------------------------------


def scan_run(model, experts, data, lp=None):
    """The forward scan's windows joined: conditionals, next-expert and
    next-outcome distributions, and the step of the ZeroMarginalError that
    stopped it, if one did."""
    windows = forward_mod._scan_forward(model, experts, data, lp)
    assert windows is not None
    parts, error = [], None
    try:
        parts.extend(windows)
    except es.ZeroMarginalError as e:
        error = e.step
    k = model.num_experts
    cond = np.concatenate([[]] + [p[0] for p in parts])
    expert = np.concatenate([np.empty((0, k))] + [p[1] for p in parts])
    outcome = None if experts is None else np.concatenate(
        [np.empty((0, experts[0].size))] + [p[2] for p in parts])
    return cond, expert, outcome, error


def loop_run(model, experts, data, lp=None):
    """The same from a ForwardPass."""
    fp = es.ForwardPass(model, experts, logpred_matrix=lp, want_outcome_dists=experts is not None)
    error = None
    try:
        for x in data:
            fp.advance(x)
    except es.ZeroMarginalError as e:
        error = e.step
    k = model.num_experts
    cond = np.array([s.log_cond for s in fp.steps])
    expert = np.array([s.expert_dist for s in fp.steps]).reshape(-1, k)
    outcome = None if experts is None else np.array(
        [s.outcome_dist for s in fp.steps]).reshape(-1, experts[0].size)
    return cond, expert, outcome, error


def assert_scan_close(fast, ref):
    """The same steps and error; every conditional within 1e-11 relative
    and every probability within 1e-11, with the same -inf entries."""
    assert fast[3] == ref[3]
    assert np.allclose(fast[0], ref[0], rtol=1e-11, atol=0.0)
    for a, b in zip(fast[1:3], ref[1:3]):
        if b is None:
            assert a is None
            continue
        assert a.shape == b.shape
        assert np.array_equal(a == -np.inf, b == -np.inf)
        assert np.abs(np.exp(a) - np.exp(b)).max(initial=0.0) <= 1e-11


@pytest.mark.parametrize("rows", [3, 1024])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STATIONARY)
def test_forward_scan_matches_loop(name, mode, rows, monkeypatch):
    # Expert 0 rules out symbol 0, so its states die at step 12 and later.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", rows)
    model, experts, data = instance(name)
    if mode == "experts":
        assert_scan_close(scan_run(model, experts, data), loop_run(model, experts, data))
    else:
        lp = es.prediction_matrix(experts, data)
        assert_scan_close(scan_run(model, None, data, lp), loop_run(model, None, data, lp))


@pytest.mark.parametrize("n", [7, 8, 9, 17])
@pytest.mark.parametrize("name", STATIONARY)
def test_forward_scan_window_edges(name, n, monkeypatch):
    # Windows of 8 rows: n = W - 1, W, W + 1 and 2W + 1. Each expert's
    # stream gives n forecasts and is sent the n - 1 outcomes before the last.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 8)
    model, experts, data = instance(name, seed=n)
    data = data[:n]
    counted = [Counting(e) for e in experts]
    fast = scan_run(model, counted, data)
    assert all(e.rows == n and e.sent == data[:-1] for e in counted)
    assert_scan_close(fast, loop_run(model, experts, data))


def test_forward_scan_never_sends_a_model_expert_the_last_outcome(monkeypatch):
    # A ModelExpert takes the default window reader: n forecasts over three
    # windows, and the n - 1 outcomes before the last sent to its stream.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 8)
    forecasts, sent = record_stream(monkeypatch, ModelExpert)
    model, experts, data = instance("fixed_share", seed=4)
    data = data[:20]
    inner = es.model_as_expert(es.bayes([0.5, 0.5]), experts[1:])
    fast = scan_run(model, [*experts[:2], inner], data)
    assert forecasts == [len(data)] and sent == data[:-1]
    assert fast[3] is None and len(fast[0]) == len(data)


def test_forward_scan_rejects_a_symbol_before_any_expert_reads_it(monkeypatch):
    # The bad symbol at position 10 lies in the second window of 8 rows:
    # the first window is yielded, and no expert is sent the second.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 8)
    model, experts, data = instance("fixed_share", seed=5)
    data = data[:16]
    data[10] = ALPHABET
    counted = [Counting(e) for e in experts]
    windows = forward_mod._scan_forward(model, counted, data)
    assert len(next(windows)[0]) == 8
    with pytest.raises(ValueError, match=rf"symbol {ALPHABET} at position 10 is outside"):
        next(windows)
    assert all(e.rows == 8 and e.sent == data[:7] for e in counted)


@pytest.mark.parametrize("step", [1, 4, 5, 6, 9])
@pytest.mark.parametrize("name", STATIONARY)
def test_forward_scan_zero_marginal(name, step, monkeypatch):
    # Windows of 4 rows; a dead step at a window's first, last or middle
    # row ends the rows there, and the error names it.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 4)
    model = STATIONARY[name]([0.2, 0.3, 0.5])
    lp = random_lp(model, 12, seed=step)
    lp[step - 1] = -np.inf
    data = [None] * 12
    fast = scan_run(model, None, data, lp)
    assert fast[3] == step and len(fast[0]) == step - 1
    assert_scan_close(fast, loop_run(model, None, data, lp))


@pytest.mark.parametrize("make", [lambda w: es.fixed_share(w, 0.0),
                                  lambda w: es.fixed_share(w, 1.0),
                                  lambda w: NoShare(w, 0.0),
                                  lambda w: es.bayes([0.0, 0.4, 0.6]),
                                  lambda w: es.overconfident([0.0, 0.4, 0.6], 0.2)],
                         ids=["alpha_0", "alpha_1", "zero_arc", "bayes_zero_weight",
                              "overconfident_zero_weight"])
def test_forward_scan_of_degenerate_tables(make, monkeypatch):
    # Expert 0 is ruled out from step 6 on, and expert 1 is e^-800 times
    # as likely as expert 2, beyond what a scaled exp holds.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 16)
    model = make([0.2, 0.3, 0.5])
    lp = random_lp(model, N)
    lp[5:, 0] = -np.inf
    lp[:, 1] -= 800.0
    data = [None] * N
    fast = scan_run(model, None, data, lp)
    assert np.isfinite(fast[1][:, 1]).all()
    assert_scan_close(fast, loop_run(model, None, data, lp))


def test_forward_scan_declines_other_models():
    k = SCAN_STATES + 1
    lp = np.zeros((4, 3))
    assert forward_mod._scan_forward(NOT_STATIONARY["run_length"]([0.2, 0.3, 0.5]), None,
                                     [None] * 4, lp) is None
    assert forward_mod._scan_forward(LateShare([0.2, 0.3, 0.5], 0.3), None, [None] * 4, lp) is None
    assert forward_mod._scan_forward(es.fixed_share([1.0 / k] * k, 0.3), None, [None] * 4,
                                     np.zeros((4, k))) is None
    assert forward_mod._scan_forward(es.fixed_share([1.0 / (k - 1)] * (k - 1), 0.3), None,
                                     [None] * 4, np.zeros((4, k - 1))) is not None


def renormalised_fixed_share_conditionals(lp, w, alpha):
    """Fixed share's log P(x_t | x^{t-1}) from a forward pass in
    probabilities, its vector renormalised at every step."""
    k = lp.shape[1]
    trans = (1.0 - alpha) * np.eye(k) + alpha * np.asarray(w)[None, :]
    like = np.exp(lp)
    out, f = np.empty(len(lp)), np.asarray(w, dtype=float)
    for t in range(len(lp)):
        f = (f if t == 0 else f @ trans) * like[t]
        out[t] = math.log(f.sum())
        f /= f.sum()
    return out


def test_forward_scan_precision_on_a_long_run():
    # Each window starts from a carry shifted to a maximum of 0 and each
    # conditional is a difference on its block's scale; the loop's is a
    # difference of running totals that grow with n.
    n, w, alpha = 20_000, [0.5, 0.5], 0.05
    lp = np.log(np.random.default_rng(7).uniform(0.05, 0.95, (n, 2)))
    model, data = es.fixed_share(w, alpha), [None] * n
    ref = renormalised_fixed_share_conditionals(lp, w, alpha)
    scan = np.abs(scan_run(model, None, data, lp)[0] / ref - 1).max()
    loop = np.abs(loop_run(model, None, data, lp)[0] / ref - 1).max()
    assert scan <= 1e-12 and scan <= loop


# -- the switch model's per-level tables ----------------------------------------


def switch_case(case, k):
    """A switch model over k experts: the default law and theta, a hazard
    of 1 at every level or from a span on, a hazard of 0 from level 2 to 31
    (so the tables' finite pattern changes along a window), theta = 1, or
    a zero weight."""
    w = np.random.default_rng(k).dirichlet(np.ones(k) * 3.0)
    law, theta = {"geometric_1": es.geometric(1.0), "uniform_span": es.uniform_span(2, 5),
                  "truncate": es.truncate(es.inv_poly(), 4),
                  "gaps": es.models.FinitePmfLaw([0.3] + [0.0] * 30 + [0.7])
                  }.get(case, es.inv_poly()), 0.5
    if case == "theta_1":
        theta = 1.0
    if case == "zero_weight":
        w[0], w[1:] = 0.0, w[1:] / w[1:].sum()
    return es.switch(es.SwitchConfig(theta, law, tuple(w)), k)


SWITCH_CASES = ["inv_poly", "geometric_1", "uniform_span", "truncate", "gaps", "theta_1",
                "zero_weight"]
SWITCH_KS = [(case, k) for case in SWITCH_CASES for k in (1, 2, 3, 4)
             if not (case == "zero_weight" and k == 1)]


@pytest.mark.parametrize("case, k", SWITCH_KS, ids=[f"{c}-{k}" for c, k in SWITCH_KS])
def test_switch_level_tables_match_routes(case, k):
    # Each level's table is _Routes.build's over stratum t's states, listed
    # as stratum 1 lists them (theta = 1 leaves out the s row). The scans
    # read those tables through _scan_start, transposed for back.
    model = switch_case(case, k)
    first, labels, hook = forward_mod._scan_start(model)
    assert len(first) == k * (1 if case == "theta_1" else 2)
    states = sorted(es.propagate_frontier(model, dict(model.initial()), 1)[0],
                    key=lambda q: (model.label(q), q))
    tables = model._level_tables(range(1, 51))(np.arange(50))
    read = hook(range(1, 51))
    assert np.array_equal(read(range(50))[3], tables)
    assert np.array_equal(read(range(50), True)[3], tables.swapaxes(1, 2))
    for t, table in enumerate(tables, 1):
        routes = _Routes.build(model, [(q[0], t) + q[2:] for q in states], t + 1)
        assert routes.sinks == shape_of(states) and routes.labels.tolist() == labels.tolist()
        ref = routes.table
        assert np.array_equal(table == -np.inf, ref == -np.inf)
        live = ref > -np.inf
        assert np.all(np.abs(table[live] - ref[live]) <= 1e-15 * np.maximum(1.0, np.abs(ref[live])))


def assert_switch_close(fast, ref):
    """scan_run against loop_run: the same steps and error, and every log
    value within 1e-12 * max(1, |v|), with the same -inf entries."""
    assert fast[3] == ref[3]
    for a, b in zip(fast[:3], ref[:3]):
        if b is None:
            assert a is None
            continue
        assert a.shape == b.shape and np.array_equal(a == -np.inf, b == -np.inf)
        live = b > -np.inf
        assert np.all(np.abs(a[live] - b[live]) <= 1e-12 * np.maximum(1.0, np.abs(b[live])))


def switch_lp(model, n, kind, seed=0):
    """A realized matrix: random, with expert 0 ruled out from step 6 on,
    with every expert ruled out at step 10, or with expert 1 e^-800 times
    as likely as the others, beyond what a scaled exp holds."""
    lp = random_lp(model, n, seed)
    if kind == "ruled_out":
        lp[5:, 0] = -np.inf
    if kind == "zero_at_10":
        lp[9] = -np.inf
    if kind == "far_below":
        lp[:, 1 % model.num_experts] -= 800.0
    return lp


@pytest.mark.parametrize("kind", ["random", "ruled_out", "zero_at_10", "far_below"])
@pytest.mark.parametrize("case, k", SWITCH_KS, ids=[f"{c}-{k}" for c, k in SWITCH_KS])
def test_switch_scan_matches_loop(case, k, kind, monkeypatch):
    # Windows of 16 rows; the loop is the same model through TupleOnly.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 16)
    model = switch_case(case, k)
    lp = switch_lp(model, N, kind)
    data = [None] * N
    fast = scan_run(model, None, data, lp)
    assert_switch_close(fast, loop_run(TupleOnly(model), None, data, lp))
    assert (fast[3] == 10) == (kind == "zero_at_10")
    assert_posterior_close(posterior(model, lp), posterior(TupleOnly(model), lp))


@pytest.mark.parametrize("n", [7, 8, 9, 17])
@pytest.mark.parametrize("k", [2, 3])
def test_switch_scan_window_edges(k, n, monkeypatch):
    # Windows of 8 rows: n = W - 1, W, W + 1 and 2W + 1; each window's
    # levels continue where the window before stopped.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 8)
    _, experts, data = instance("switch", k, seed=n)
    model, data = switch_case("inv_poly", k), data[:n]
    counted = [Counting(e) for e in experts]
    fast = scan_run(model, counted, data)
    assert all(e.rows == n and e.sent == data[:-1] for e in counted)
    assert_switch_close(fast, loop_run(model, experts, data))


@pytest.mark.parametrize("step", [1, 4, 5, 6, 9])
def test_switch_scan_zero_marginal(step, monkeypatch):
    # Windows of 4 rows; a dead step at a window's first, middle or last row.
    monkeypatch.setattr(forward_mod, "SCAN_ROWS", 4)
    model = switch_case("inv_poly", 3)
    lp = random_lp(model, 12, seed=step)
    lp[step - 1] = -np.inf
    fast = scan_run(model, None, [None] * 12, lp)
    assert fast[3] == step and len(fast[0]) == step - 1
    assert_switch_close(fast, loop_run(model, None, [None] * 12, lp))
    assert posterior(model, lp) == step


def test_switch_scan_declines_past_level_states():
    k = forward_mod.SCAN_LEVEL_STATES // 2
    lp = np.zeros((4, k + 1))
    assert forward_mod._scan_forward(switch_case("inv_poly", k + 1), None, [None] * 4, lp) is None
    assert forward_mod._scan_posterior(switch_case("inv_poly", k + 1), lp) is None
    assert forward_mod._scan_forward(switch_case("inv_poly", k), None, [None] * 4,
                                     lp[:, :k]) is not None


def renormalised_switch_posterior(lp, cfg):
    """The switch posterior by forward-backward in probabilities over the
    grid [u row, s row], each vector renormalised at every step."""
    n, k = lp.shape
    w, theta, like = np.asarray(cfg.pi_k), cfg.theta, np.exp(np.tile(lp, 2))
    eye = np.eye(k)

    def trans(t):
        h = cfg.pi_t.hazard(t)
        return np.block([[(1 - h) * eye + h * theta * w, np.tile(h * (1 - theta) * w, (k, 1))],
                         [np.zeros((k, k)), eye]])
    fwd = np.empty((n, 2 * k))
    f = np.concatenate([theta * w, (1 - theta) * w]) * like[0]
    fwd[0] = f / f.sum()
    for t in range(1, n):
        f = (fwd[t - 1] @ trans(t)) * like[t]
        fwd[t] = f / f.sum()
    post, b = np.empty((n, 2 * k)), np.ones(2 * k)
    post[-1] = fwd[-1]
    for t in range(n - 1, 0, -1):
        b = trans(t) @ (like[t] * b)
        b /= b.sum()
        p = fwd[t - 1] * b
        post[t - 1] = p / p.sum()
    return post[:, :k] + post[:, k:]


def test_switch_scan_precision_on_a_long_run():
    # The recorded loop's log masses grow with n and lose digits; each
    # carried vector of the scan is rescaled.
    n, cfg = 20_000, es.default_switch_config(2)
    lp = np.log(np.random.default_rng(7).uniform(0.05, 0.95, (n, 2)))
    got = es.posterior_experts(es.switch(cfg, 2), None, [None] * n, logpred_matrix=lp)
    assert np.abs(np.exp(got) - renormalised_switch_posterior(lp, cfg)).max() <= 1e-12


def test_switch_scan_memory():
    # Tables are built one position at a time: no (n, S, S) array is held,
    # which would be 12.8 MB here on top of the (n, S) alpha grid.
    n = 100_000
    lp = np.log(np.random.default_rng(2).uniform(0.05, 0.95, (n, 2)))
    model = es.switch(es.default_switch_config(2), 2)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        es.posterior_experts(model, None, [None] * n, logpred_matrix=lp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 16e6
