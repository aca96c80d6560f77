import math
import warnings

import numpy as np
import pytest

import expertseq as es
from oracles import (ZOO_NAMES, brute_map, brute_marginal, brute_posterior,
                     random_constant_experts, random_zoo_instance)


def two_constant_experts():
    return [es.ConstantExpert([0.8, 0.2]), es.ConstantExpert([0.5, 0.5])]


class TestForwardMarginal:
    def test_bayes_two_zeros(self):
        res = es.forward_marginal(es.bayes([0.5, 0.5]), two_constant_experts(), [0, 0])
        assert math.exp(res.log_marginal) == pytest.approx(0.445, rel=1e-12)

    def test_empty_data(self):
        fp = es.ForwardPass(es.bayes([0.3, 0.7]), two_constant_experts())
        assert fp.log_marginal == 0.0
        np.testing.assert_allclose(np.exp(fp.predict_expert()), [0.3, 0.7], rtol=1e-12)

    def test_first_outcome_prediction_mixes_experts(self):
        fp = es.ForwardPass(es.bayes([0.5, 0.5]), two_constant_experts())
        np.testing.assert_allclose(np.exp(fp.predict_outcome()), [0.65, 0.35], rtol=1e-12)

    def test_matches_brute_force_spot(self):
        rng = np.random.default_rng(20)
        for name in ("fixed_share", "switch", "universal_share"):
            model, experts, data = random_zoo_instance(name, rng, n=5)
            res = es.forward_marginal(model, experts, data)
            assert res.log_marginal == pytest.approx(
                brute_marginal(model, experts, data), rel=1e-9, abs=1e-12)

    def test_online_consistency(self):
        rng = np.random.default_rng(21)
        model, experts, data = random_zoo_instance("run_length", rng, n=12)
        full = es.forward_marginal(model, experts, data).log_marginal
        fp = es.ForwardPass(model, experts)
        for x in data[:7]:
            fp.advance(x)
        prefix_ref = es.forward_marginal(model, experts, data[:7]).log_marginal
        assert fp.log_marginal == pytest.approx(prefix_ref, rel=1e-12, abs=1e-15)
        for x in data[7:]:
            fp.advance(x)
        assert fp.log_marginal == pytest.approx(full, rel=1e-12, abs=1e-15)

    def test_weight_conservation(self):
        rng = np.random.default_rng(22)
        model, experts, data = random_zoo_instance("switch", rng, n=10)
        fp = es.ForwardPass(model, experts)
        prev = 0.0
        for x in data:
            fp.advance(x)
            assert fp.steps[-1].pre_update_total == pytest.approx(prev, abs=1e-9)
            prev = fp.log_marginal

    def test_space_contract_constant_for_fixed_share(self):
        rng = np.random.default_rng(23)
        k = 3
        experts = random_constant_experts(rng, k, 2)
        model = es.fixed_share([1 / k] * k, 0.4)
        data = list(rng.integers(0, 2, 300))
        res = es.forward_marginal(model, experts, data)
        # One level interval holds at most both strata plus the hub.
        assert res.peak_weights <= 2 * k + 1
        res_short = es.forward_marginal(model, experts, data[:30])
        assert res.peak_weights == res_short.peak_weights

    def test_zero_marginal_aborts_with_step(self):
        experts = [es.ConstantExpert([1.0, 0.0])]
        with pytest.raises(es.ZeroMarginalError) as exc:
            es.forward_marginal(es.bayes([1.0]), experts, [0, 0, 1])
        assert exc.value.step == 3

    def test_expert_count_checked(self):
        with pytest.raises(ValueError):
            es.ForwardPass(es.bayes([0.5, 0.5]), [es.uniform_expert(2)])

    def test_transitions_counter_constant_per_level(self):
        rng = np.random.default_rng(24)
        experts = random_constant_experts(rng, 2, 2)
        model = es.fixed_share([0.5, 0.5], 0.5)
        res = es.forward_marginal(model, experts, list(rng.integers(0, 2, 50)))
        assert len(set(res.transitions_per_level[1:])) == 1

    def test_logpred_matrix_mode(self):
        # Experts mode reads the same realized matrix, so both modes agree
        # exactly on every offline entry point.
        rng = np.random.default_rng(25)
        for name in ZOO_NAMES:
            model, experts, data = random_zoo_instance(name, rng, n=6)
            lp = es.prediction_matrix(experts, data)
            a = es.forward_marginal(model, experts, data).log_marginal
            b = es.forward_marginal(model, None, data, logpred_matrix=lp).log_marginal
            assert a == b, name
            assert np.array_equal(es.posterior_experts(model, experts, data),
                                  es.posterior_experts(model, None, data, logpred_matrix=lp)), name
            if model.unambiguous:
                assert (es.viterbi_unambiguous(model, experts, data)
                        == es.viterbi_unambiguous(model, None, data, logpred_matrix=lp)), name
            cfg = es.default_switch_config(len(experts))
            assert (es.switch_map(cfg, experts, data)
                    == es.switch_map(cfg, None, data, logpred_matrix=lp)), name

    @pytest.mark.parametrize("bad", [np.nan, 5.0])
    def test_matrix_mode_rejects_nan_and_positive_with_step(self, bad):
        lp = np.log([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        lp[1, 0] = bad
        model = es.bayes([0.5, 0.5])
        with pytest.raises(ValueError, match="step 2"):
            es.ForwardPass(model, logpred_matrix=lp)
        with pytest.raises(ValueError, match="step 2"):
            es.posterior_experts(model, None, [0, 1, 0], logpred_matrix=lp)
        with pytest.raises(ValueError, match="step 2"):
            es.viterbi_unambiguous(model, None, [0, 1, 0], logpred_matrix=lp)
        with pytest.raises(ValueError, match="step 2"):
            es.switch_map(es.default_switch_config(2), None, [0, 1, 0], logpred_matrix=lp)


class TestOutcomeMixing:
    # Symbol 4 is ruled out by every expert and symbol 3 is allowed by the
    # last one only; once a 3 is seen, Bayes gives the others zero weight.
    EXPERTS = ([0.5, 0.5, 0.0, 0.0, 0.0], [0.6, 0.0, 0.4, 0.0, 0.0],
               [0.1, 0.2, 0.3, 0.4, 0.0])

    @staticmethod
    def reference(expert_dist, preds):
        """log sum_i P(xi = i) P_i(x = j), folded in plain Python."""
        out = []
        for j in range(len(preds[0])):
            total = sum(math.exp(w) * math.exp(p[j]) for w, p in zip(expert_dist, preds))
            out.append(math.log(total) if total > 0.0 else -math.inf)
        return out

    @pytest.mark.parametrize("name", ["bayes", "fixed_share"])
    def test_matches_plain_python(self, name):
        w = [0.2, 0.3, 0.5]
        model = es.bayes(w) if name == "bayes" else es.fixed_share(w, 0.1)
        experts = [es.ConstantExpert(p) for p in self.EXPERTS]
        data = [0, 3, 1, 2, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fp = es.ForwardPass(model, experts, want_outcome_dists=True)
            for t, x in enumerate(data):
                fp.advance(x)
                step = fp.last_step
                assert step is fp.steps[-1]
                preds = [e.predict(data[:t]).tolist() for e in experts]
                ref = self.reference(step.expert_dist.tolist(), preds)
                got = step.outcome_dist.tolist()
                assert got[4] == -math.inf
                assert got[:4] == pytest.approx(ref[:4], rel=1e-12, abs=0)
                np.testing.assert_allclose(np.exp(got).sum(), 1.0, rtol=1e-12)
        if name == "bayes":
            # After the 3, experts 0 and 1 carry zero weight, so only the
            # last expert's forecast is left.
            assert fp.steps[2].expert_dist[:2].tolist() == [-math.inf, -math.inf]
            assert fp.steps[2].outcome_dist[3] == pytest.approx(math.log(0.4), rel=1e-12)

    def test_steps_not_kept(self):
        fp = es.ForwardPass(es.bayes([0.5, 0.5]), two_constant_experts(), keep_steps=False)
        fp.advance(0)
        assert fp.steps == [] and fp.last_step.outcome_dist is None


class TestPosterior:
    def test_single_step_bayes(self):
        grid = es.posterior_experts(es.bayes([0.5, 0.5]), two_constant_experts(), [0])
        np.testing.assert_allclose(np.exp(grid[0]), [0.8 / 1.3, 0.5 / 1.3], rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(26)
        model, experts, data = random_zoo_instance("switch", rng, n=8)
        grid = es.posterior_experts(model, experts, data)
        np.testing.assert_allclose(np.exp(grid).sum(axis=1), 1.0, atol=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(27)
        for name in ZOO_NAMES:
            model, experts, data = random_zoo_instance(name, rng, n=5)
            grid = es.posterior_experts(model, experts, data)
            ref = brute_posterior(model, experts, data)
            np.testing.assert_allclose(np.exp(grid), np.exp(ref), atol=1e-9,
                                       err_msg=name)

    def test_zero_marginal_rejected(self):
        experts = [es.ConstantExpert([1.0, 0.0])]
        with pytest.raises(es.ZeroMarginalError):
            es.posterior_experts(es.bayes([1.0]), experts, [1])


class TestViterbi:
    def test_bayes_picks_dominant_expert(self):
        seq, val = es.viterbi_unambiguous(es.bayes([0.5, 0.5]), two_constant_experts(),
                                          [0, 0, 0])
        assert seq == [0, 0, 0]
        assert val == pytest.approx(math.log(0.5 * 0.8 ** 3), rel=1e-12)

    def test_fixed_share_matches_brute_force(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            experts = random_constant_experts(rng, 2, 2)
            data = list(rng.integers(0, 2, n))
            model = es.fixed_share([0.5, 0.5], float(rng.uniform(0.1, 0.9)))
            seq, val = es.viterbi_unambiguous(model, experts, data)
            ref_seq, ref_val = brute_map(model, experts, data)
            assert seq == ref_seq
            assert val == pytest.approx(ref_val, rel=1e-9, abs=1e-12)

    def test_ties_break_to_lowest_expert(self):
        experts = [es.ConstantExpert([0.5, 0.5]), es.ConstantExpert([0.5, 0.5])]
        model = es.fixed_share([0.5, 0.5], 0.5)
        seq, _ = es.viterbi_unambiguous(model, experts, [0, 1, 0])
        assert seq == [0, 0, 0]

    def test_ambiguous_model_rejected(self):
        model = es.switch(es.default_switch_config(2), 2)
        with pytest.raises(es.AmbiguousModelError):
            es.viterbi_unambiguous(model, two_constant_experts(), [0])

    def test_unambiguous_universal_elementwise(self):
        rng = np.random.default_rng(29)
        experts = random_constant_experts(rng, 2, 2)
        data = list(rng.integers(0, 2, 5))
        model = es.universal_elementwise(2)
        seq, val = es.viterbi_unambiguous(model, experts, data)
        ref_seq, ref_val = brute_map(model, experts, data)
        assert seq == ref_seq and val == pytest.approx(ref_val, rel=1e-9)

    def test_empty_data(self):
        assert es.viterbi_unambiguous(es.bayes([1.0]), [es.uniform_expert(2)], []) == ([], 0.0)
