import itertools
import math

import numpy as np
import pytest

import expertseq as es
from expertseq.hmm import HmmModel, compile_level, propagate_frontier
from expertseq.logprob import NEG_INF
from oracles import (
    ZOO_NAMES,
    TupleOnly,
    eliminate_silent,
    iter_sequence_priors,
    random_constant_experts,
    random_zoo_instance,
)


class _Denormalized(HmmModel):
    """Planted defect: successor masses of the productive state sum to 0.9."""

    productive_tags = frozenset({"e"})
    silent_depth_bound = 0
    num_experts = 1

    def initial(self):
        return [(("e", 1, 0), 0.0)]

    def successors(self, q):
        return [(("e", q[1] + 1, 0), math.log(0.9))]

    def label(self, q):
        return q[2]


class _SilentLoop(HmmModel):
    """Planted defect: a silent state with a self-loop, violating continuity."""

    productive_tags = frozenset({"e"})
    silent_depth_bound = 1
    num_experts = 1

    def initial(self):
        return [(("s", 0), 0.0)]

    def successors(self, q):
        if q[0] == "s":
            return [(("s", q[1]), math.log(0.5)), (("e", q[1] + 1, 0), math.log(0.5))]
        return [(("s", q[1]), 0.0)]

    def label(self, q):
        return q[2]


class _MixedFrontier(HmmModel):
    """Initial mass on two silent states and on one state of stratum 1:
    silent a also reaches silent b, and b reaches that stratum-1 state."""

    productive_tags = frozenset({"e"})
    silent_depth_bound = 2
    num_experts = 3

    def initial(self):
        return [(("b", 0), math.log(0.5)), (("e", 1, 0), math.log(0.2)),
                (("a", 0), math.log(0.3))]

    def successors(self, q):
        t = q[1]
        if q[0] == "a":
            return [(("e", t + 1, 2), math.log(0.5)), (("b", t), math.log(0.5))]
        if q[0] == "b":
            return [(("e", t + 1, 0), math.log(0.4)), (("e", t + 1, 1), math.log(0.6))]
        return [(("a", t), 0.0)]

    def label(self, q):
        return q[2]


class TestValidate:
    def test_zoo_models_are_valid(self):
        rng = np.random.default_rng(10)
        for name in ZOO_NAMES:
            model, _, _ = random_zoo_instance(name, rng, n=1)
            assert es.validate(model, 5) == [], name

    def test_denormalized_successors_named(self):
        issues = es.validate(_Denormalized(), 3)
        kinds = {i.kind for i in issues}
        assert "successor-normalization" in kinds
        bad = [i for i in issues if i.kind == "successor-normalization"]
        assert bad[0].state is not None

    def test_silent_self_loop_flagged(self):
        issues = es.validate(_SilentLoop(), 3)
        assert any(i.kind == "silent-depth" for i in issues)

    def test_levels_precondition(self):
        with pytest.raises(ValueError):
            es.validate(_Denormalized(), 0)

    def test_propagation_rejects_silent_cycles(self):
        with pytest.raises(ValueError):
            propagate_frontier(_SilentLoop(), {("s", 0): 0.0}, 1)

    def test_propagation_counts_held_weights(self):
        # A fixed-share level holds its live sources, the hub and the k
        # states it puts on the next stratum; a source of zero mass is not held.
        k = 3
        model = es.fixed_share([1 / k] * k, 0.4)
        frontier = {("e", 1, x): -math.log(k) for x in range(k)}
        sinks, transitions, held = propagate_frontier(model, frontier, 2)
        assert len(sinks) == k and transitions == 3 * k
        assert held == k + 1 + k
        frontier[("e", 1, 0)] = NEG_INF
        assert propagate_frontier(model, frontier, 2)[2] == (k - 1) + 1 + k

    def test_frontier_mixing_silent_and_target_states(self):
        # b comes first in the frontier but waits for a; the stratum-1 state
        # leads the new frontier, then the sinks in the order first reached,
        # which is not their sorted order.
        model = _MixedFrontier()
        assert es.validate(model, 3) == []
        frontier = dict(model.initial())
        record = []
        propagated = propagate_frontier(model, frontier, 1, record)
        sinks, transitions, held = propagated
        assert list(sinks) == [("e", 1, 0), ("e", 1, 2), ("e", 1, 1)]
        masses = [0.2 + 0.65 * 0.4, 0.3 * 0.5, 0.65 * 0.6]
        assert list(sinks.values()) == pytest.approx(np.log(masses), abs=1e-15)
        assert [u for u, _ in record] == [("a", 0), ("b", 0)]
        assert (transitions, held) == (4, 2 + 3)
        assert frontier == dict(model.initial())
        plan = compile_level(frontier, record, propagated, model.label)
        replayed = plan.replay(list(frontier.values()), 1)
        assert list(replayed.items()) == list(sinks.items())
        assert (plan.transitions, plan.held, plan.labels) == (4, 5, (0, 2, 1))


class TestExpertSequencePrior:
    def test_bayes_constant_sequence(self):
        m = es.bayes([0.25] * 4)
        assert es.expert_sequence_prior(m, [2, 2]) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_bayes_forbids_switching(self):
        m = es.bayes([0.25] * 4)
        assert es.expert_sequence_prior(m, [2, 3]) == NEG_INF

    def test_fixed_share_switch_arc(self):
        m = es.fixed_share([0.5, 0.5], 0.5)
        got = es.expert_sequence_prior(m, [0, 1])
        assert got == pytest.approx(math.log(0.5 * 0.25), abs=1e-12)

    def test_zoo_priors_normalize(self):
        rng = np.random.default_rng(11)
        for name in ZOO_NAMES:
            for k, n in ((2, 6), (3, 4)):
                if name == "universal_elementwise" and k != 2:
                    continue
                model, _, _ = random_zoo_instance(name, rng, n=1, k=k)
                total = es.log_sum_iter(p for _, p in iter_sequence_priors(model, n))
                assert total == pytest.approx(0.0, abs=1e-9), (name, k, n)

    def test_empty_sequence_has_unit_mass(self):
        m = es.bayes([1.0])
        assert es.expert_sequence_prior(m, []) == 0.0

    @pytest.mark.parametrize("name", ZOO_NAMES)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_label_outside_experts_has_no_mass(self, name, side):
        # -1 must not wrap round to the last expert.
        model, _, _ = random_zoo_instance(name, np.random.default_rng(12), n=1, k=2)
        label = -1 if side == "below" else model.num_experts
        assert es.expert_sequence_prior(model, [0, label]) == NEG_INF
        assert es.expert_sequence_prior(model, [label]) == NEG_INF

    @pytest.mark.parametrize("label", [1.5, 1.0, "1"], ids=["1.5", "float-1", "str-1"])
    def test_label_not_an_integer_raises_with_position(self, label):
        # Not read as expert 1: 1.5 would truncate to it.
        with pytest.raises(ValueError, match="position 1"):
            es.expert_sequence_prior(es.fixed_share([0.5, 0.5], 0.1), [0, label])

    def test_matches_the_enumeration_oracle(self):
        rng = np.random.default_rng(13)
        for name in ZOO_NAMES:
            model, _, _ = random_zoo_instance(name, rng, n=1, k=2)
            for seq, want in iter_sequence_priors(model, 4):
                assert es.expert_sequence_prior(model, seq) == pytest.approx(
                    want, rel=1e-12, abs=1e-15), (name, seq)


class TestEliminateSilent:
    def test_single_pred_single_succ(self):
        # Chain a -> hub -> a: removing the hub drops one state, keeps priors.
        m = es.fixed_elementwise([1.0])
        m2 = eliminate_silent(m, ("draw", 1))
        for n in range(1, 5):
            seq = [0] * n
            assert es.expert_sequence_prior(m2, seq) == pytest.approx(
                es.expert_sequence_prior(m, seq), abs=1e-12)
        reachable = {v for v, _ in m2.successors(("e", 1, 0))}
        assert ("draw", 1) not in reachable

    def test_fixed_share_hub_becomes_quadratic(self):
        k = 4
        m = es.fixed_share([1.0 / k] * k, 0.3)
        hub = ("draw", 2)
        arcs_through_hub = sum(1 for x in range(k) if hub in
                               {v for v, _ in m.successors(("e", 2, x))})
        arcs_through_hub += len(m.successors(hub))
        assert arcs_through_hub == 2 * k
        m2 = eliminate_silent(m, hub)
        direct = sum(len(m2.successors(("e", 2, x))) for x in range(k))
        assert direct == k * k

    def test_prior_preserved_on_all_sequences(self):
        m = es.fixed_share([0.3, 0.7], 0.4)
        m2 = eliminate_silent(m, ("draw", 1))
        for n in range(1, 5):
            for seq in itertools.product(range(2), repeat=n):
                assert es.expert_sequence_prior(m2, seq) == pytest.approx(
                    es.expert_sequence_prior(m, seq), abs=1e-9)

    def test_forward_marginal_preserved(self):
        rng = np.random.default_rng(12)
        experts = random_constant_experts(rng, 2, 2)
        m = es.fixed_share([0.5, 0.5], 0.25)
        m2 = eliminate_silent(m, ("draw", 2))
        for _ in range(5):
            data = list(rng.integers(0, 2, 4))
            a = es.forward_marginal(m, experts, data).log_marginal
            b = es.forward_marginal(m2, experts, data).log_marginal
            assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_productive_and_initial_states(self):
        m = es.fixed_share([0.5, 0.5], 0.25)
        with pytest.raises(ValueError):
            eliminate_silent(m, ("e", 1, 0))
        with pytest.raises(ValueError):
            eliminate_silent(m, ("draw", 0))


class TestStateProtocol:
    def test_levels_and_productive_flags(self):
        m = es.fixed_share([0.5, 0.5], 0.5)
        assert m.level(("draw", 3)) == 3
        assert m.level(("e", 4, 1)) == 4
        assert not m.is_productive(("draw", 3))
        assert m.is_productive(("e", 4, 1))
        assert m.label(("e", 4, 1)) == 1

    def test_budget_guard(self):
        m = es.universal_elementwise(3, state_budget=10)
        experts = [es.uniform_expert(2)] * 3
        with pytest.raises(es.StateBudgetExceeded):
            es.forward_marginal(m, experts, [0] * 12)

    @pytest.mark.parametrize("tuples", [False, True])
    def test_budget_counts_states_of_one_level(self, tuples):
        # C(n + 2, 2) count states at level n: 10 at level 3, 15 at level 4,
        # which the propagation to stratum 5 enumerates.
        experts = [es.uniform_expert(2)] * 3
        m = es.universal_elementwise(3, state_budget=10)
        m = TupleOnly(m) if tuples else m
        assert es.forward_marginal(m, experts, [0] * 4).n == 4
        fp = es.ForwardPass(m, experts)
        for x in [0] * 4:
            fp.advance(x)
        with pytest.raises(es.StateBudgetExceeded):
            fp.advance(0)

    @pytest.mark.parametrize("tuples", [False, True])
    def test_budget_is_not_spent_across_levels_or_runs(self, tuples):
        # 51 count states at level 50 fit a budget of 60, although the
        # levels up to 50 hold 1326 count states between them.
        rng = np.random.default_rng(5)
        experts = random_constant_experts(rng, 2, 2)
        data = list(rng.integers(0, 2, 50))
        m = es.universal_elementwise(2, state_budget=60)
        m = TupleOnly(m) if tuples else m
        first = es.forward_marginal(m, experts, data)
        second = es.forward_marginal(m, experts, data)
        assert first.log_marginal == second.log_marginal
        assert first.step_log_conds == second.step_log_conds

    def test_long_two_expert_elementwise_stream(self):
        rng = np.random.default_rng(6)
        experts = random_constant_experts(rng, 2, 2)
        data = list(rng.integers(0, 2, 700))
        model = es.universal_elementwise(2)
        res = es.forward_marginal(model, experts, data)
        assert res.n == 700 and math.isfinite(res.log_marginal)
        assert es.forward_marginal(model, experts, data).log_marginal == res.log_marginal
