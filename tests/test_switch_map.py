import itertools
import math

import numpy as np
import pytest

import expertseq as es
from oracles import brute_map, random_constant_experts, switch_prior_prefix


def _cfg(k=2, theta=0.5):
    return es.default_switch_config(k, theta=theta)


class TestSingleStep:
    def test_maximizes_over_first_expert(self):
        cfg = es.SwitchConfig(0.5, es.inv_poly(), (0.3, 0.7))
        experts = [es.ConstantExpert([0.9, 0.1]), es.ConstantExpert([0.5, 0.5])]
        res = es.switch_map(cfg, experts, [0])
        # joint masses: 0.3 * 0.9 vs 0.7 * 0.5
        assert res.sequence == [1]
        assert res.log_probability == pytest.approx(math.log(0.35), rel=1e-12)

    def test_empty_data(self):
        res = es.switch_map(_cfg(), [es.uniform_expert(2)] * 2, [])
        assert res.sequence == [] and res.log_probability == 0.0


def enumerated_map(cfg, lp):
    """By enumeration over the parametric prior: the best joint log mass
    and the lexicographically smallest expert sequence within rounding of
    it."""
    n, k = lp.shape
    table = {seq: switch_prior_prefix(cfg, seq) + lp[np.arange(n), list(seq)].sum()
             for seq in itertools.product(range(k), repeat=n)}
    best = max(table.values())
    return min(s for s, v in table.items() if v >= best - 1e-12 * abs(best)), best


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            n = int(rng.integers(1, 9))
            A = int(rng.integers(2, 4))
            experts = random_constant_experts(rng, 2, A)
            data = list(rng.integers(0, A, n))
            cfg = _cfg(theta=float(rng.uniform(0.2, 0.9)))
            res = es.switch_map(cfg, experts, data)
            ref_seq, ref_val = brute_map(es.switch(cfg, 2), experts, data)
            assert res.sequence == ref_seq
            assert res.log_probability == pytest.approx(ref_val, rel=1e-9, abs=1e-12)
        # Edge cases, one kind per trial: cells at -inf, a duplicated expert
        # column and weight (exact ties, broken toward the smallest
        # sequence) ahead of a regime of expert 2, theta = 1 and a zero in
        # pi_k, under four laws.
        laws = [es.inv_poly(), es.truncate(es.inv_poly(), 2), es.uniform_span(2, 3),
                es.geometric(0.4)]
        dead = 0
        for trial in range(120):
            kind = trial % 4
            k, n = 3 if kind == 1 else int(rng.integers(2, 4)), int(rng.integers(1, 7))
            w = rng.dirichlet(np.ones(k) * 5)
            lp = np.log(rng.uniform(0.1, 1, (n, k)))
            if kind == 0:
                lp[rng.random((n, k)) < 0.35] = -np.inf
            elif kind == 1:
                lp[:, 1], w[1] = lp[:, 0], w[0]
                lp[:n // 2, 2] -= 3.0
                lp[n // 2:, :2] -= 3.0
            elif kind == 3:
                w[rng.integers(k)] = 0.0
            cfg = es.SwitchConfig(1.0 if kind == 2 else float(rng.uniform(0.2, 0.9)),
                                  laws[trial // 4 % 4], tuple(w / w.sum()))
            ref_seq, ref_val = enumerated_map(cfg, lp)
            if ref_val == -np.inf:
                with pytest.raises(es.ZeroMarginalError) as got:
                    es.switch_map(cfg, None, [0] * n, logpred_matrix=lp)
                assert got.value.step == first_dead_step(cfg, lp)
                dead += 1
                continue
            res = es.switch_map(cfg, None, [0] * n, logpred_matrix=lp)
            assert res.sequence == list(ref_seq)
            assert res.log_probability == pytest.approx(ref_val, rel=1e-9, abs=1e-12)
        assert dead > 3

    def test_three_experts_and_truncated_laws(self):
        # exercises the hazard-zero and hazard-one branches of the recurrences
        rng = np.random.default_rng(54)
        for law in (es.truncate(es.inv_poly(), 2), es.uniform_span(2, 3)):
            for _ in range(5):
                k = 3
                n = int(rng.integers(1, 7))
                cfg = es.SwitchConfig(float(rng.uniform(0.3, 1.0)), law,
                                      tuple(rng.dirichlet(np.ones(k) * 5)))
                experts = random_constant_experts(rng, k, 2)
                data = list(rng.integers(0, 2, n))
                res = es.switch_map(cfg, experts, data)
                ref_seq, ref_val = brute_map(es.switch(cfg, k), experts, data)
                assert res.sequence == ref_seq
                assert res.log_probability == pytest.approx(ref_val, rel=1e-9, abs=1e-12)

    def test_perfect_expert_stays_constant(self):
        experts = [es.ConstantExpert([1.0, 0.0]), es.ConstantExpert([0.5, 0.5])]
        for n in (1, 3, 6):
            res = es.switch_map(_cfg(), experts, [0] * n)
            assert res.sequence == [0] * n
            # agrees with prefix-prior times likelihood for the constant sequence
            joint = switch_prior_prefix(_cfg(), [0] * n)  # likelihood factor is 1
            assert res.log_probability == pytest.approx(joint, rel=1e-9)

    def test_two_regimes_single_switch(self):
        experts = [es.ConstantExpert([0.99, 0.01]), es.ConstantExpert([0.01, 0.99])]
        data = [0] * 4 + [1] * 4
        res = es.switch_map(_cfg(), experts, data)
        assert res.sequence == [0] * 4 + [1] * 4

    def test_ties_lexicographic(self):
        experts = [es.ConstantExpert([0.5, 0.5]), es.ConstantExpert([0.5, 0.5])]
        res = es.switch_map(_cfg(), experts, [0, 1, 0])
        assert res.sequence == [0, 0, 0]


class TestInvariants:
    def test_map_never_exceeds_marginal(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            experts = random_constant_experts(rng, 2, 2)
            data = list(rng.integers(0, 2, n))
            cfg = _cfg()
            marg = es.forward_marginal(es.switch(cfg, 2), experts, data).log_marginal
            assert es.map_probability(cfg, experts, data) <= marg + 1e-12

    def test_sequence_rescored_independently(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            experts = random_constant_experts(rng, 2, 2)
            data = list(rng.integers(0, 2, n))
            cfg = _cfg()
            res = es.switch_map(cfg, experts, data)
            prior = es.expert_sequence_prior(es.switch(cfg, 2), res.sequence)
            like = sum(es.prediction_matrix(experts, data)[i, s]
                       for i, s in enumerate(res.sequence))
            assert res.log_probability == pytest.approx(prior + like, rel=1e-9, abs=1e-12)

    def test_work_scales_linearly(self):
        rng = np.random.default_rng(53)
        k = 2
        lp = np.log(rng.uniform(0.1, 1.0, size=(2000, k)))
        cfg = _cfg()
        ops1 = es.switch_map(cfg, None, list(range(1000)), logpred_matrix=lp[:1000]).ops
        ops2 = es.switch_map(cfg, None, list(range(2000)), logpred_matrix=lp).ops
        assert ops2 <= 2.2 * ops1

    def test_ops_pinned(self):
        # Three fixed inputs with cells at -inf, one of them under a law
        # whose hazard is 0 at steps 1 and 2, so splits 2 and 3 have no
        # left part: ops is k (3n - 1) plus k for every split with one.
        lp = np.log(np.linspace(0.1, 0.9, 30).reshape(10, 3))
        lp[[2, 5, 7], [0, 2, 1]] = -np.inf
        cases = [(_cfg(), lp[:7, :2], 54),
                 (es.SwitchConfig(0.5, es.uniform_span(3, 4), (0.5, 0.5)), lp[:7, 1:], 50),
                 (es.SwitchConfig(0.3, es.inv_poly(), (0.2, 0.3, 0.5)), lp, 117)]
        for cfg, m, ops in cases:
            assert es.switch_map(cfg, None, [0] * len(m), logpred_matrix=m).ops == ops

    def test_expert_count_checked(self):
        with pytest.raises(ValueError):
            es.switch_map(_cfg(), [es.uniform_expert(2)], [0])



def first_dead_step(cfg, lp):
    """By enumeration: the first step i at which every expert sequence of
    length i has zero joint mass under ``cfg``, or None."""
    k = cfg.num_experts
    for i in range(1, len(lp) + 1):
        if all(switch_prior_prefix(cfg, seq) + lp[np.arange(i), list(seq)].sum() == -np.inf
               for seq in itertools.product(range(k), repeat=i)):
            return i
    return None


class TestZeroMass:
    # A row where every expert gives the outcome probability 0, and a
    # choice law that never picks expert 1 with a row that rules out
    # expert 0: no expert sequence has mass from that step on, and the
    # posterior of switch(cfg, 2) names the same step.
    CASES = [(es.default_switch_config(2), [[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]], 2),
             (es.SwitchConfig(0.5, es.inv_poly(), (1.0, 0.0)),
              [[0.5, 0.5], [0.9, 0.1], [0.0, 0.7], [0.5, 0.5]], 3)]

    @pytest.mark.parametrize("cfg, probs, step", CASES)
    def test_raises_at_the_first_dead_step(self, cfg, probs, step):
        with np.errstate(divide="ignore"):
            lp = np.log(probs)
        assert first_dead_step(cfg, lp) == step
        with pytest.raises(es.ZeroMarginalError) as got:
            es.switch_map(cfg, None, [0] * len(lp), logpred_matrix=lp)
        assert got.value.step == step
        with pytest.raises(es.ZeroMarginalError) as got:
            es.posterior_experts(es.switch(cfg, 2), None, [0] * len(lp), logpred_matrix=lp)
        assert got.value.step == step

    def test_step_is_the_posteriors(self):
        # Random zero cells: where no sequence has mass, switch_map names
        # the step posterior_experts of the switch model names, which
        # enumeration confirms; elsewhere it decodes.
        rng = np.random.default_rng(54)
        laws = [es.inv_poly(), es.geometric(0.3), es.geometric(1.0)]
        raised = 0
        for trial in range(60):
            k, n = int(rng.integers(2, 4)), int(rng.integers(1, 6))
            cfg = es.SwitchConfig(float(rng.choice([0.3, 1.0])), laws[trial % 3],
                                  tuple(rng.dirichlet(np.ones(k))))
            lp = np.where(rng.random((n, k)) < 0.45, -np.inf, np.log(rng.uniform(0.1, 1, (n, k))))
            want = first_dead_step(cfg, lp)
            try:
                es.posterior_experts(es.switch(cfg, k), None, [0] * n, logpred_matrix=lp)
            except es.ZeroMarginalError as e:
                assert e.step == want
            else:
                assert want is None
            try:
                es.switch_map(cfg, None, [0] * n, logpred_matrix=lp)
            except es.ZeroMarginalError as e:
                assert e.step == want
                raised += 1
            else:
                assert want is None
        assert raised > 10
