import math

import numpy as np
import pytest

import expertseq as es
from expertseq.approx import (kl_divergence, laplace_expert_conditional,
                              ml_conditioned_marginal, ml_estimate,
                              trim_frontier, trimming_hook)
from expertseq.forward import WeightMap
from expertseq.logprob import logsumexp
from oracles import random_constant_experts


def wm(masses: dict) -> WeightMap:
    return WeightMap({k: math.log(v) for k, v in masses.items()}, 1)


class TestTrimFrontier:
    def test_full_retention_is_identity(self):
        m = wm({("e", 1, 0): 0.5, ("e", 1, 1): 0.5})
        out = trim_frontier(m, 1.0)
        assert out.entries == m.entries

    def test_top_mass_rescaled_to_original_total(self):
        m = wm({("a", 1): 0.5, ("b", 1): 0.3, ("c", 1): 0.2})
        out = trim_frontier(m, 0.7)
        got = {k: math.exp(v) for k, v in out.entries.items()}
        assert set(got) == {("a", 1), ("b", 1)}
        assert got[("a", 1)] == pytest.approx(0.625, rel=1e-12)
        assert got[("b", 1)] == pytest.approx(0.375, rel=1e-12)
        assert out.total() == pytest.approx(m.total(), abs=1e-12)

    def test_equal_masses_tie_breaks_on_state_id(self):
        m = wm({("e", 1, j): 0.25 for j in range(4)})
        out = trim_frontier(m, 0.5)
        assert set(out.entries) == {("e", 1, 0), ("e", 1, 1)}

    def test_tiny_p_keeps_top_state(self):
        m = wm({("a", 1): 0.9, ("b", 1): 0.1})
        out = trim_frontier(m, 1e-9)
        assert set(out.entries) == {("a", 1)}

    def test_parameter_validation(self):
        m = wm({("a", 1): 1.0})
        with pytest.raises(ValueError):
            trim_frontier(m, 0.0)
        with pytest.raises(ValueError):
            trim_frontier(m, 1.1)
        with pytest.raises(ValueError):
            trim_frontier(WeightMap({}, 0), 0.5)

    def test_forward_with_full_trim_is_exact(self):
        rng = np.random.default_rng(80)
        experts = random_constant_experts(rng, 3, 2)
        data = list(rng.integers(0, 2, 40))
        model = es.fixed_share([1 / 3] * 3, 0.3)
        exact = es.forward_marginal(model, experts, data).log_marginal
        trimmed = es.forward_marginal(model, experts, data,
                                      frontier_hook=trimming_hook(1.0)).log_marginal
        assert trimmed == exact

    def test_regression_guard_fixed_share(self):
        rng = np.random.default_rng(81)
        for k in (2, 4):
            experts = random_constant_experts(rng, k, 3)
            data = list(rng.integers(0, 3, 200))
            model = es.fixed_share([1.0 / k] * k, 0.2)
            exact = es.forward_marginal(model, experts, data).log_marginal
            approx = es.forward_marginal(model, experts, data,
                                         frontier_hook=trimming_hook(0.999)).log_marginal
            assert abs(exact - approx) <= 0.05

    def test_trimming_shrinks_runlength_frontier(self):
        rng = np.random.default_rng(82)
        experts = random_constant_experts(rng, 2, 2)
        data = list(rng.integers(0, 2, 120))
        model = es.run_length(es.inv_poly(), [0.5, 0.5])
        full = es.forward_marginal(model, experts, data)
        trimmed = es.forward_marginal(model, experts, data,
                                      frontier_hook=trimming_hook(0.99))
        assert trimmed.peak_weights < full.peak_weights
        assert abs(trimmed.log_marginal - full.log_marginal) < 0.5


    def test_matches_sequential_definition(self):
        # The definition folded one state at a time: total in dict order,
        # then the ranked states until the cut. Ties are frequent here.
        def reference(entries, p):
            total = es.log_sum_iter(entries.values())
            ranked = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
            kept, acc = {}, es.NEG_INF
            for q, v in ranked:
                kept[q] = v
                acc = es.log_sum(acc, v)
                if acc >= total + math.log(p) - 1e-12:
                    break
            return [(q, v + (total - acc)) for q, v in kept.items()]

        rng = np.random.default_rng(86)
        for _ in range(200):
            s = int(rng.integers(1, 40))
            vals = np.log(rng.dirichlet(np.ones(s)))
            vals[rng.integers(0, s, s // 2)] = vals[0]
            entries = {("e", int(i), int(j)): float(v)
                       for i, j, v in zip(rng.permutation(s), rng.integers(0, 3, s), vals)}
            for p in (1e-9, 0.25, 0.5, 0.9, 0.999):
                got = trim_frontier(WeightMap(entries, 4), p)
                assert list(got.entries.items()) == reference(entries, p)

class TestMlEstimate:
    def test_single_expert_constant(self):
        e = es.uniform_expert(2)
        assert ml_estimate([e], [0, 1, 0]) == [0, 0, 0]

    def test_per_step_argmax(self):
        experts = [es.ConstantExpert([0.8, 0.2]), es.ConstantExpert([0.5, 0.5])]
        assert ml_estimate(experts, [0, 1]) == [0, 1]

    def test_identical_experts_tie_to_lowest(self):
        experts = [es.uniform_expert(2), es.uniform_expert(2)]
        assert ml_estimate(experts, [1, 0, 1]) == [0, 0, 0]


class TestMlConditionedMarginal:
    def test_laplace_rule_counts(self):
        cond = laplace_expert_conditional(2)
        np.testing.assert_allclose(np.exp(cond([0, 0, 1])), [3 / 5, 2 / 5], rtol=1e-12)
        np.testing.assert_allclose(np.exp(cond([])), [0.5, 0.5], rtol=1e-12)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_experts_rejected_with_position(self, label):
        cond = laplace_expert_conditional(2)
        with pytest.raises(ValueError, match="position 1"):
            cond([0, label, 1])

    def test_single_expert_is_exact(self):
        rng = np.random.default_rng(83)
        e = es.ConstantExpert(rng.dirichlet(np.ones(2)))
        data = list(rng.integers(0, 2, 10))
        res = ml_conditioned_marginal(laplace_expert_conditional(1), [e], data)
        assert res.log_marginal == pytest.approx(es.sequential_log_loss(e, data), abs=1e-12)

    def test_lower_bound_holds(self):
        rng = np.random.default_rng(84)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            experts = random_constant_experts(rng, k, 2)
            data = list(rng.integers(0, 2, int(rng.integers(1, 11))))
            cond = laplace_expert_conditional(k)
            res = ml_conditioned_marginal(cond, experts, data)
            ml_seq = ml_estimate(experts, data)
            assert res.ml_sequence == ml_seq
            lower = 0.0
            for i, s in enumerate(ml_seq):
                lower += float(cond(ml_seq[:i])[s])
                lower += float(experts[s].predict(data[:i])[data[i]])
            assert res.log_marginal >= lower - 1e-12

    def test_long_run_counts_each_label_once(self, monkeypatch):
        # Work, not wall clock: the conditional sees the ML prefix grow by one
        # label per step and never recounts it, so counting is O(1) per step.
        from expertseq.experts import _RunningCounts
        lengths, recounts = [], []
        call, recount = _RunningCounts.__call__, _RunningCounts._recount
        monkeypatch.setattr(_RunningCounts, "__call__",
                            lambda self, seq: lengths.append(len(seq)) or call(self, seq))
        monkeypatch.setattr(_RunningCounts, "_recount",
                            lambda self, seq: recounts.append(len(seq)) or recount(self, seq))
        n = 20_000
        experts = [es.ConstantExpert([0.8, 0.2]), es.ConstantExpert([0.3, 0.7])]
        data = list(np.random.default_rng(85).integers(0, 2, n))
        res = ml_conditioned_marginal(laplace_expert_conditional(2), experts, data)
        assert lengths == list(range(n))
        assert recounts == []
        counts = np.bincount(res.ml_sequence[:-1], minlength=2)
        prior = np.log((counts + 1.0) / (n - 1 + 2))
        preds = [e.predict([])[data[-1]] for e in experts]
        assert res.step_log_conds[-1] == logsumexp(prior + preds)

    def test_zero_mass_aborts_with_step(self):
        experts = [es.ConstantExpert([1.0, 0.0])]
        with pytest.raises(es.ZeroMarginalError) as exc:
            ml_conditioned_marginal(laplace_expert_conditional(1), experts, [0, 1])
        assert exc.value.step == 2


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_against_fair_coin(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0)

    def test_chosen_base(self):
        want_nats = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75], base=math.e) == pytest.approx(want_nats)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(want_nats / math.log(2))

    def test_unsupported_q_is_infinite(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestInformationLemmas:
    """Both inequalities for pairs of joints sharing the outcome
    conditionals: the data-processing form for divergences and the
    pointwise transfer form for log-ratios."""

    def _random_joint_pair(self, rng, k=4, a=3):
        p_x = rng.dirichlet(np.ones(k) * 0.7)
        q_x = rng.dirichlet(np.ones(k) * 0.7)
        cond = np.stack([rng.dirichlet(np.ones(a) * 0.7) for _ in range(k)])
        return p_x, q_x, cond

    def test_divergence_contraction(self):
        rng = np.random.default_rng(85)
        for _ in range(50):
            p, q, cond = self._random_joint_pair(rng)
            px = p @ cond
            qx = q @ cond
            assert kl_divergence(px, qx) <= kl_divergence(p, q) + 1e-12

    def test_pointwise_transfer(self):
        rng = np.random.default_rng(86)
        for _ in range(50):
            p, q, cond = self._random_joint_pair(rng)
            ratios = -np.log(q / p)
            for x in range(cond.shape[1]):
                px = float(p @ cond[:, x])
                qx = float(q @ cond[:, x])
                post = p * cond[:, x] / px
                mid = float(post @ ratios)
                assert -math.log(qx / px) <= mid + 1e-12
                assert mid <= float(np.max(ratios)) + 1e-12
