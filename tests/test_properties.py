"""Property tests: the reduction identities, trimming at p = 1, the
tuple core's posterior sweep, the offline forward pass, the blocked scan
of stationary models and Viterbi hold on every instance hypothesis draws,
not only on the seeded ones of the acceptance suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expertseq as es
from expertseq.approx import trim_frontier, trimming_hook
from expertseq.forward import _offline_forward
from oracles import (TupleOnly, assert_posterior_close, brute_map, joint_table,
                     posterior_or_step, region_posterior)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def distributions(size):
    return st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size).map(
        lambda v: np.asarray(v) / sum(v))


@st.composite
def instances(draw):
    """(weights, experts, data, alpha): constant experts over a small
    alphabet, positive prior weights and a switching rate in (0, 1)."""
    k = draw(st.integers(2, 3))
    size = draw(st.integers(2, 3))
    experts = [es.ConstantExpert(draw(distributions(size))) for _ in range(k)]
    data = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    w = draw(distributions(k)).tolist()
    alpha = draw(st.floats(0.05, 0.95))
    return w, experts, data, alpha


def marginal(model, experts, data):
    return es.forward_marginal(model, experts, data).log_marginal


@PROPERTY
@given(instances())
def test_fixed_share_without_switching_is_bayes(inst):
    w, experts, data, _ = inst
    assert abs(marginal(es.fixed_share(w, 0.0), experts, data)
               - marginal(es.bayes(w), experts, data)) <= 1e-12


@PROPERTY
@given(instances())
def test_fixed_share_always_switching_is_fixed_elementwise(inst):
    w, experts, data, _ = inst
    assert abs(marginal(es.fixed_share(w, 1.0), experts, data)
               - marginal(es.fixed_elementwise(w), experts, data)) <= 1e-12


@PROPERTY
@given(instances())
def test_geometric_run_length_is_fixed_share(inst):
    w, experts, data, alpha = inst
    assert abs(marginal(es.run_length(es.geometric(alpha), w), experts, data)
               - marginal(es.fixed_share(w, alpha), experts, data)) <= 1e-12


@PROPERTY
@given(instances())
def test_switch_at_theta_one_is_fixed_share(inst):
    w, experts, data, alpha = inst
    cfg = es.SwitchConfig(1.0, es.geometric(alpha), tuple(w))
    assert abs(marginal(es.switch(cfg, len(w)), experts, data)
               - marginal(es.fixed_share(w, alpha), experts, data)) <= 1e-12


@PROPERTY
@given(st.dictionaries(st.tuples(st.sampled_from("abc"), st.integers(0, 9)),
                       st.floats(-50.0, 0.0), min_size=1))
def test_trimming_everything_kept_is_identity(entries):
    assert trim_frontier(es.WeightMap(entries, 1), 1.0).entries == entries


@PROPERTY
@given(instances())
def test_forward_trimmed_at_one_is_exact(inst):
    w, experts, data, alpha = inst
    model = es.fixed_share(w, alpha)
    trimmed = es.forward_marginal(model, experts, data, frontier_hook=trimming_hook(1.0))
    assert trimmed.log_marginal == marginal(model, experts, data)


# Models on the tuple core: stationary ones, whose posterior is a blocked
# scan and whose TupleOnly's recording pass replays plans; bayes, whose
# initial mass is on stratum 1; and array models that TupleOnly keeps on
# the tuple core, every level compiled where it fell back.
TUPLE_CORE = {
    "bayes": lambda w, alpha: es.bayes(w),
    "fixed_share": lambda w, alpha: es.fixed_share(w, alpha),
    "overconfident": lambda w, alpha: es.overconfident(w, alpha),
    "switch": lambda w, alpha: TupleOnly(
        es.switch(es.SwitchConfig(0.5, es.geometric(alpha), tuple(w)), len(w))),
    "run_length": lambda w, alpha: TupleOnly(es.run_length(es.inv_poly(), w)),
}


@st.composite
def tuple_core_runs(draw, make, max_n=12):
    """(model, lp): the model on k = 2 or 3 experts and an (n, width)
    log-prediction matrix, n <= max_n, with cells drawn -inf at random."""
    k = draw(st.integers(2, 3))
    model = make(draw(distributions(k)).tolist(), draw(st.floats(0.05, 0.95)))
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.tuples(st.integers(0, 9), st.floats(-5.0, 0.0)),
                          min_size=n * model.num_experts, max_size=n * model.num_experts))
    lp = np.array([v if live else -np.inf for live, v in cells])
    return model, lp.reshape(n, model.num_experts)


def grid_or_step(fn, *args, **kwargs):
    """A posterior grid's bytes, or the step of its ZeroMarginalError."""
    got = posterior_or_step(fn, *args, **kwargs)
    return got if isinstance(got, int) else got.tobytes()


@pytest.mark.parametrize("name", TUPLE_CORE)
@PROPERTY
@given(data=st.data())
def test_tuple_core_posterior_is_region_replay(name, data):
    # A stationary model's own posterior is scanned; TupleOnly's is the loop.
    model, lp = data.draw(tuple_core_runs(TUPLE_CORE[name]))
    symbols = [None] * len(lp)
    ref = posterior_or_step(region_posterior, model, lp)
    if model.stationary:
        assert_posterior_close(posterior_or_step(es.posterior_experts, model, None, symbols,
                                                 logpred_matrix=lp), ref)
        model = TupleOnly(model)
    fast = grid_or_step(es.posterior_experts, model, None, symbols, logpred_matrix=lp)
    assert fast == (ref if isinstance(ref, int) else ref.tobytes())


# Every zoo model, which runs on the array core where it has level arcs.
ZOO = {
    "bayes": lambda w, alpha: es.bayes(w),
    "fixed_elementwise": lambda w, alpha: es.fixed_elementwise(w),
    "universal_elementwise": lambda w, alpha: es.universal_elementwise(len(w)),
    "fixed_share": lambda w, alpha: es.fixed_share(w, alpha),
    "universal_share": lambda w, alpha: es.universal_share(w),
    "overconfident": lambda w, alpha: es.overconfident(w, alpha),
    "switch": lambda w, alpha: es.switch(
        es.SwitchConfig(0.5, es.geometric(alpha), tuple(w)), len(w)),
    "run_length": lambda w, alpha: es.run_length(es.inv_poly(), w),
}


def marginal_or_step(run):
    """The bits of a marginal, or the step of its ZeroMarginalError."""
    try:
        return run().hex()
    except es.ZeroMarginalError as e:
        return e.step


def online_marginal(model, lp):
    fp = es.ForwardPass(model, logpred_matrix=lp, keep_steps=False)
    for _ in lp:
        fp.advance(None)
    return fp.log_marginal


@pytest.mark.parametrize("name", ZOO)
@PROPERTY
@given(data=st.data())
def test_offline_forward_is_the_online_marginal(name, data):
    model, lp = data.draw(tuple_core_runs(ZOO[name]))
    for m in (model, TupleOnly(model)):
        want = marginal_or_step(lambda: online_marginal(m, lp))
        for record in (False, True):
            assert marginal_or_step(lambda: _offline_forward(m, lp, record)[1]) == want


# The four stationary models, whose own posterior is scanned.
SCANNED = {name: TUPLE_CORE[name] for name in ("bayes", "fixed_share", "overconfident")}
SCANNED["fixed_elementwise"] = lambda w, alpha: es.fixed_elementwise(w)


@pytest.mark.parametrize("name", SCANNED)
@PROPERTY
@given(data=st.data())
def test_scan_posterior_matches_tuple_only(name, data):
    # Up to 40 steps: up to six blocks of up to seven rows, the last one short.
    model, lp = data.draw(tuple_core_runs(SCANNED[name], max_n=40))
    runs = [posterior_or_step(es.posterior_experts, m, None, [None] * len(lp), logpred_matrix=lp)
            for m in (model, TupleOnly(model))]
    assert_posterior_close(*runs)


# Unambiguous models: the stationary ones, whose Viterbi reads route tables,
# and universal elementwise, whose Viterbi propagates each live source.
UNAMBIGUOUS = {
    "bayes": lambda w, alpha: es.bayes(w),
    "fixed_elementwise": lambda w, alpha: es.fixed_elementwise(w),
    "fixed_share": lambda w, alpha: es.fixed_share(w, alpha),
    "universal_elementwise": lambda w, alpha: es.universal_elementwise(len(w)),
}


def advice(lp):
    """Experts over outcomes {0, 1} that give outcome 0 at step i
    probability exp(lp[i, j]), so the realized matrix of [0] * n is lp."""
    return [es.AdviceExpert(np.stack([p, 1.0 - p], axis=1)) for p in np.exp(lp).T]


def viterbi_or_step(model, experts, data):
    """The best sequence and its value's bits, or the step of the ZeroMarginalError."""
    try:
        seq, value = es.viterbi_unambiguous(model, experts, data)
    except es.ZeroMarginalError as e:
        return e.step
    return seq, value.hex()


@pytest.mark.parametrize("name", UNAMBIGUOUS)
@PROPERTY
@given(data=st.data())
def test_viterbi_is_exact_and_a_maximiser(name, data):
    model, lp = data.draw(tuple_core_runs(UNAMBIGUOUS[name], max_n=6))
    experts, symbols = advice(lp), [0] * len(lp)
    got = viterbi_or_step(model, experts, symbols)
    assert got == viterbi_or_step(TupleOnly(model), experts, symbols)
    best = brute_map(model, experts, symbols)[1]
    if isinstance(got, int):
        assert best == -np.inf
        return
    # Exact ties may let brute force pick another maximiser: compare masses.
    seq, value = got[0], float.fromhex(got[1])
    assert abs(value - best) <= 1e-9
    assert abs(joint_table(model, experts, symbols)[tuple(seq)] - value) <= 1e-9
