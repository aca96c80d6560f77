"""The array level step against the generic tuple core.

Every model that provides level arcs runs twice on the same inputs: as
itself, so ForwardPass keeps a log-weight vector and calls
propagate_arcs, and wrapped in ``oracles.TupleOnly``, so ForwardPass keeps
a weight map and calls propagate_frontier. The two runs must agree step by
step, and so must the smoothed posteriors, whose backward sweeps are
pull_arcs and the reverse replay of recorded regions.
"""

import numpy as np
import pytest

import expertseq as es
from oracles import TupleOnly, random_constant_experts

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
# A span-3 law keeps at most 3k weights per stratum, which trimming at
# 0.99 need not shrink.
GROWING = [name for name in ARRAY_MODELS if name != "run_length_uniform_1_3"]
HOOKS = {"exact": None, "trim_1": 1.0, "trim_0.99": 0.99}
MODES = ("experts", "matrix")


def instance(name, seed):
    k, make = ARRAY_MODELS[name]
    rng = np.random.default_rng(seed)
    experts = random_constant_experts(rng, k, ALPHABET)
    data = [int(x) for x in rng.integers(0, ALPHABET, N)]
    w = rng.dirichlet(np.ones(k) * 5.0)
    return make, w, experts, data


def run(model, experts, data, mode, p=None):
    hook = None if p is None else es.trimming_hook(p)
    if mode == "experts":
        fp = es.ForwardPass(model, experts, frontier_hook=hook)
    else:
        fp = es.ForwardPass(model, logpred_matrix=es.prediction_matrix(experts, data),
                            frontier_hook=hook)
    for x in data:
        fp.advance(x)
    return fp


@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_array_step_matches_tuple_core(name, mode, hook):
    make, w, experts, data = instance(name, sorted(ARRAY_MODELS).index(name))
    model = make(w)
    assert model.level_arcs() is not None and TupleOnly(model).level_arcs() is None
    fast = run(model, experts, data, mode, HOOKS[hook])
    ref = run(TupleOnly(make(w)), experts, data, mode, HOOKS[hook])
    assert fast.transitions_per_level == ref.transitions_per_level
    for a, b in zip(fast.steps, ref.steps, strict=True):
        assert abs(a.log_cond - b.log_cond) <= TOL
        assert abs(a.pre_update_total - b.pre_update_total) <= TOL
        assert np.all(np.abs(a.expert_dist - b.expert_dist) <= TOL)
    assert fast.log_marginal == pytest.approx(ref.log_marginal, abs=TOL * N)
    fast_w, ref_w = fast.weight_map.entries, ref.weight_map.entries
    assert fast_w.keys() == ref_w.keys()
    assert all(abs(fast_w[q] - v) <= TOL * N for q, v in ref_w.items())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", GROWING)
def test_trimming_shrinks_array_frontier(name, mode):
    make, w, experts, data = instance(name, 7)
    exact = run(make(w), experts, data, mode)
    trimmed = run(make(w), experts, data, mode, 0.99)
    assert trimmed.peak_weights < exact.peak_weights


def posterior(model, experts, data, mode):
    if mode == "experts":
        return es.posterior_experts(model, experts, data)
    return es.posterior_experts(model, None, data,
                                logpred_matrix=es.prediction_matrix(experts, data))


@pytest.mark.parametrize("n", [0, 1, N])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_posterior_matches_tuple_core(name, mode, n):
    make, w, experts, data = instance(name, sorted(ARRAY_MODELS).index(name))
    # Expert 0 rules out the last symbol, so wherever that symbol arrives
    # its posterior is zero.
    experts[0] = es.ConstantExpert(np.append(np.random.default_rng(n).dirichlet(np.ones(2)), 0.0))
    data = data[:n]
    fast = posterior(make(w), experts, data, mode)
    ref = posterior(TupleOnly(make(w)), experts, data, mode)
    assert fast.shape == ref.shape == (n, len(experts))
    assert np.array_equal(fast == -np.inf, ref == -np.inf)
    assert (n < N) or (fast == -np.inf).any()
    assert np.all(np.abs(np.exp(fast) - np.exp(ref)) <= 1e-12)


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
        with pytest.raises(es.ZeroMarginalError) as exc:
            run(m, experts, data, mode, HOOKS[hook])
        assert exc.value.step == 7


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ARRAY_MODELS)
def test_posterior_zero_marginal_at_same_step(name, mode):
    model, experts, data = ruled_out_at_step_7(name)
    for m in (model, TupleOnly(model)):
        with pytest.raises(es.ZeroMarginalError) as exc:
            posterior(m, experts, data, mode)
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


def test_weight_map_round_trip_keeps_vector():
    # A hook that returns its input unchanged leaves the run as it was.
    make, w, experts, data = instance("universal_elementwise_3", 3)
    plain = run(make(w), experts, data, "experts")
    fp = es.ForwardPass(make(w), experts, frontier_hook=lambda wm: wm)
    for x in data:
        fp.advance(x)
    assert [s.log_cond for s in fp.steps] == [s.log_cond for s in plain.steps]
    assert fp.weight_map.entries == plain.weight_map.entries
