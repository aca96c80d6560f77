"""Stationary models: the declaration, and levels replayed by index.

A model that declares ``stationary`` repeats its levels, so the tuple core
of a forward pass compiles a level once and replays it at later levels
whose frontier has the same shape. ``oracles.TupleOnly`` does not copy
the declaration, so the same model wrapped in it runs propagate_frontier
at every level; the two passes must agree to the last bit.
"""

import math

import numpy as np
import pytest

import expertseq as es
import expertseq.forward as forward_mod
from expertseq.forward import _TupleCore
from expertseq.models import FixedShare
from oracles import TupleOnly

N = 40
ALPHABET = 3

STATIONARY = {
    "bayes": lambda w: es.bayes(w),
    "fixed_elementwise": lambda w: es.fixed_elementwise(w),
    "fixed_share": lambda w: es.fixed_share(w, 0.3),
    "overconfident": lambda w: es.overconfident(w, 0.2),
}
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
    return STATIONARY[name](w), experts, data


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


def test_zero_mass_arc_is_not_compiled():
    # Listing an arc of zero mass breaks the interface's contract, but the
    # silent node it alone feeds is dead, so its level cannot be compiled
    # and the pass runs propagate_frontier instead.
    class NoShare(FixedShare):
        def successors(self, q):
            if q[0] == "draw":
                return super().successors(q)
            return [(("e", q[1] + 1, q[2]), 0.0), (("draw", q[1]), -math.inf)]

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
    lp = np.log(np.random.default_rng(2).uniform(0.1, 1.0, (5 * k, k)))
    lp[np.arange(5 * k), np.arange(5 * k) % k] = -np.inf
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


def test_recording_pass_makes_no_plans():
    model, experts, data = instance("fixed_share")
    fp = es.ForwardPass(model, logpred_matrix=es.prediction_matrix(experts, data),
                        record_regions=True, keep_steps=False)
    for x in data:
        fp.advance(x)
    assert fp._core.plans == {} and len(fp.regions) == N
