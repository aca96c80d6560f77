import itertools
import math

import numpy as np
import pytest

import expertseq as es
from expertseq.logprob import NEG_INF
from oracles import (SwitchParams, TupleOnly, random_constant_experts,
                     run_length_prior_oracle, switch_param_mass, switch_prior_prefix)

RNG_SEED = 40


def _experts(rng, k=2, A=2):
    return random_constant_experts(rng, k, A)


def _marginal(model, experts, data):
    return es.forward_marginal(model, experts, data).log_marginal


class TestLaws:
    def test_inv_poly_closed_forms(self):
        law = es.inv_poly()
        assert law.pmf(3) == pytest.approx(1 / 12)
        assert law.tail(4) == pytest.approx(1 / 4)
        assert law.hazard(1) == pytest.approx(0.5)
        assert law.hazard(9) == pytest.approx(0.1)

    def test_geometric_exact_hazard(self):
        law = es.geometric(0.3)
        assert law.hazard(1) == 0.3 and law.hazard(17) == 0.3
        assert law.tail(3) == pytest.approx(0.49)

    def test_uniform_span_hazards(self):
        law = es.uniform_span(1, 2)
        assert law.hazard(1) == pytest.approx(0.5)
        assert law.hazard(2) == pytest.approx(1.0)
        assert law.hazard(5) == 1.0  # past the span the hazard is 1

    def test_elias_is_a_complete_code(self):
        law = es.elias_delta()
        # Grouping by bit length b, each group carries 2^(-1-2*floor(log2 b)),
        # so the head below 2^16 sums to exactly (1 - 2^-4) + 2^-9.
        head = sum(law.pmf(d) for d in range(1, 1 << 16))
        assert head == pytest.approx(1.0 - 2.0 ** -4 + 2.0 ** -9, abs=1e-12)
        assert law.tail(1) == 1.0
        # code lengths stay within the stated envelope
        for d in list(range(1, 3000)) + [1 << j for j in range(12, 24)]:
            assert law.code_length(d) <= math.log2(d) + 2 * math.log2(math.log2(d + 1)) + 3

    def test_truncate_renormalizes(self):
        law = es.truncate(es.inv_poly(), 4)
        assert sum(law.pmf(d) for d in range(1, 5)) == pytest.approx(1.0, abs=1e-12)
        assert law.hazard(4) == 1.0

    def test_finite_law_normalization_guard(self):
        with pytest.raises(ValueError):
            es.models.FinitePmfLaw([0.2, 0.2])


class TestBayesModel:
    def test_prior_examples(self):
        m = es.bayes([0.25] * 4)
        assert es.expert_sequence_prior(m, [2, 2]) == pytest.approx(math.log(0.25))
        assert es.expert_sequence_prior(m, [2, 3]) == NEG_INF

    def test_overhead_within_log_k(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            experts = _experts(rng, 4, 2)
            data = list(rng.integers(0, 2, 10))
            marg = _marginal(es.bayes([0.25] * 4), experts, data)
            best = max(es.sequential_log_loss(e, data) for e in experts)
            assert es.to_bits(marg) - es.to_bits(best) <= 2.0 + 1e-9


class TestFixedElementwise:
    def test_prior_is_product(self):
        alpha = [0.3, 0.7]
        m = es.fixed_elementwise(alpha)
        for n in range(1, 6):
            for seq in itertools.product(range(2), repeat=n):
                want = sum(math.log(alpha[s]) for s in seq)
                assert es.expert_sequence_prior(m, seq) == pytest.approx(want, abs=1e-12)

    def test_uniform_cube(self):
        m = es.fixed_elementwise([0.5, 0.5])
        for seq in itertools.product(range(2), repeat=3):
            assert math.exp(es.expert_sequence_prior(m, seq)) == pytest.approx(1 / 8)

    def test_marginal_is_per_step_mixture(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        alpha = rng.dirichlet(np.ones(3))
        experts = _experts(rng, 3, 2)
        data = list(rng.integers(0, 2, 7))
        got = _marginal(es.fixed_elementwise(alpha), experts, data)
        want = 0.0
        for i, x in enumerate(data):
            step = sum(alpha[j] * math.exp(experts[j].predict(data[:i])[x]) for j in range(3))
            want += math.log(step)
        assert got == pytest.approx(want, abs=1e-9)


class TestUniversalElementwise:
    def test_successor_masses_from_counts(self):
        m = es.universal_elementwise(2)
        succ = dict(m.successors(("cnt", 1, (1, 0))))
        assert math.exp(succ[("e", 2, (1, 0), 0)]) == pytest.approx(0.75)
        assert math.exp(succ[("e", 2, (1, 0), 1)]) == pytest.approx(0.25)

    def test_zero_counts_are_uniform(self):
        for k in (1, 2, 3, 5):
            m = es.universal_elementwise(k)
            succ = m.successors(("cnt", 0, (0,) * k))
            for _, lw in succ:
                assert math.exp(lw) == pytest.approx(1.0 / k)

    def test_two_step_priors(self):
        m = es.universal_elementwise(2)
        assert math.exp(es.expert_sequence_prior(m, [0, 1])) == pytest.approx(1 / 8)
        assert math.exp(es.expert_sequence_prior(m, [0, 0])) == pytest.approx(3 / 8)

    def test_dirichlet_multinomial_closed_form(self):
        k = 2
        m = es.universal_elementwise(k)
        for seq in itertools.product(range(k), repeat=5):
            counts = [seq.count(j) for j in range(k)]
            want = (sum(math.lgamma(c + 0.5) - math.lgamma(0.5) for c in counts)
                    + math.lgamma(k / 2) - math.lgamma(len(seq) + k / 2))
            assert es.expert_sequence_prior(m, seq) == pytest.approx(want, abs=1e-9)


class TestFixedShare:
    def test_stay_and_switch_masses(self):
        m = es.fixed_share([0.5, 0.5], 0.5)
        p_stay = es.expert_sequence_prior(m, [0, 0]) - es.expert_sequence_prior(m, [0])
        p_move = es.expert_sequence_prior(m, [0, 1]) - es.expert_sequence_prior(m, [0])
        assert math.exp(p_stay) == pytest.approx(0.75)
        assert math.exp(p_move) == pytest.approx(0.25)

    def test_alpha_zero_is_bayes(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 8))
        a = _marginal(es.fixed_share([0.4, 0.6], 0.0), experts, data)
        b = _marginal(es.bayes([0.4, 0.6]), experts, data)
        assert abs(a - b) <= 1e-12

    def test_alpha_one_is_elementwise(self):
        rng = np.random.default_rng(RNG_SEED + 3)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 8))
        a = _marginal(es.fixed_share([0.4, 0.6], 1.0), experts, data)
        b = _marginal(es.fixed_elementwise([0.4, 0.6]), experts, data)
        assert abs(a - b) <= 1e-12


class TestUniversalShare:
    def test_first_decision_masses(self):
        m = es.universal_share([0.5, 0.5])
        succ = dict(m.successors(("e", 1, 0, 0)))
        assert math.exp(succ[("bump", 1, 0)]) == pytest.approx(0.5)
        assert math.exp(succ[("e", 2, 0, 0)]) == pytest.approx(0.5)

    def test_later_decision_masses(self):
        m = es.universal_share([0.5, 0.5])
        succ = dict(m.successors(("e", 4, 0, 1)))
        assert math.exp(succ[("bump", 4, 1)]) == pytest.approx(1.5 / 4)
        assert math.exp(succ[("e", 5, 0, 1)]) == pytest.approx(2.5 / 4)

    def test_matches_jeffreys_quadrature(self):
        rng = np.random.default_rng(RNG_SEED + 4)
        w = np.array([0.5, 0.5])
        for n in (3, 6):
            experts = _experts(rng)
            data = list(rng.integers(0, 2, n))
            lp = es.prediction_matrix(experts, data)
            got = _marginal(es.universal_share(w), experts, data)
            # (-1/2,-1/2) Gauss-Jacobi rule: Chebyshev nodes, equal weights.
            N = 2000
            nodes = 0.5 * (1.0 + np.cos((2 * np.arange(1, N + 1) - 1) * np.pi / (2 * N)))
            from expertseq.bounds import fixed_share_grid_marginals
            vals = fixed_share_grid_marginals(lp, w, nodes)
            want = es.logsumexp(vals - math.log(N))
            assert got == pytest.approx(want, abs=1e-6)


class TestOverconfident:
    def test_alpha_zero_is_bayes_on_original_experts(self):
        rng = np.random.default_rng(RNG_SEED + 5)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 6))
        a = _marginal(es.overconfident([0.4, 0.6], 0.0),
                      es.with_safe_expert(experts, 2), data)
        b = _marginal(es.bayes([0.4, 0.6]), experts, data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_alpha_one_is_uniform_chain(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 6))
        a = _marginal(es.overconfident([0.4, 0.6], 1.0),
                      es.with_safe_expert(experts, 2), data)
        assert a == pytest.approx(len(data) * math.log(0.5), abs=1e-12)

    def test_equals_recursive_combination(self):
        rng = np.random.default_rng(RNG_SEED + 7)
        alpha, w, A = 0.3, [0.25, 0.75], 2
        experts = _experts(rng, 2, A)
        data = list(rng.integers(0, A, 6))
        direct = _marginal(es.overconfident(w, alpha), es.with_safe_expert(experts, A), data)
        metas = [es.model_as_expert(es.fixed_elementwise([1 - alpha, alpha]),
                                    [e, es.uniform_expert(A)]) for e in experts]
        nested = _marginal(es.bayes(w), metas, data)
        assert direct == pytest.approx(nested, abs=1e-9)


class TestSwitchModel:
    def test_inv_poly_block_conditional(self):
        # next-switch-time law given the previous switch: (t'+1)/(t(t+1))
        law = es.inv_poly()
        cond = law.pmf(1) / law.tail(0 + 1)
        assert cond == pytest.approx(0.5)
        cond = law.pmf(5) / law.tail(2 + 1)
        assert cond == pytest.approx(3 / 30)

    def test_degenerate_switch_is_fixed_share(self):
        rng = np.random.default_rng(RNG_SEED + 8)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 8))
        theta = 0.35
        cfg = es.SwitchConfig(1.0, es.geometric(theta), (0.5, 0.5))
        a = _marginal(es.switch(cfg, 2), experts, data)
        b = _marginal(es.fixed_share([0.5, 0.5], theta), experts, data)
        assert abs(a - b) <= 1e-12

    def test_prefix_prior_equals_parametric_oracle(self):
        cfg = es.default_switch_config(2)
        m = es.switch(cfg, 2)
        for n in range(1, 6):
            for seq in itertools.product(range(2), repeat=n):
                a = es.expert_sequence_prior(m, seq)
                b = switch_prior_prefix(cfg, seq)
                assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("pi_k", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.0, 0.5)])
    def test_pi_k_with_a_zero_weight(self, pi_k, theta):
        # An expert of weight zero is drawn by zero-mass arcs: the prefix
        # prior is still the parametric one, and the array step agrees with
        # the tuple core.
        cfg = es.SwitchConfig(theta, es.inv_poly(), pi_k)
        k = len(pi_k)
        m = es.switch(cfg, k)
        for n in range(1, 6):
            for seq in itertools.product(range(k), repeat=n):
                a = es.expert_sequence_prior(m, seq)
                b = switch_prior_prefix(cfg, seq)
                assert (a == b == NEG_INF) or a == pytest.approx(b, abs=1e-9)
        rng = np.random.default_rng(RNG_SEED + 9)
        experts = _experts(rng, k)
        data = list(rng.integers(0, 2, 12))
        fast = es.forward_marginal(m, experts, data)
        ref = es.forward_marginal(TupleOnly(m), experts, data)
        assert fast.log_marginal == pytest.approx(ref.log_marginal, abs=1e-11)
        for a, b in zip(fast.steps, ref.steps, strict=True):
            assert np.array_equal(a.expert_dist == NEG_INF, b.expert_dist == NEG_INF)
        post = np.exp(es.posterior_experts(m, experts, data))
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)
        ref_post = np.exp(es.posterior_experts(TupleOnly(m), experts, data))
        assert np.all(np.abs(post - ref_post) <= 1e-12)

    def test_truncated_law_prefix_prior_still_matches(self):
        # beyond the span the declared continuation forces a switch per step
        cfg = es.SwitchConfig(0.6, es.truncate(es.inv_poly(), 3), (0.5, 0.5))
        m = es.switch(cfg, 2)
        for n in range(1, 7):
            for seq in itertools.product(range(2), repeat=n):
                a = es.expert_sequence_prior(m, seq)
                b = switch_prior_prefix(cfg, seq)
                assert a == pytest.approx(b, abs=1e-9)


class TestSwitchPriorPrefix:
    def test_first_symbol_is_pi_k(self):
        cfg = es.SwitchConfig(0.5, es.inv_poly(), (0.2, 0.8))
        assert math.exp(switch_prior_prefix(cfg, [0])) == pytest.approx(0.2)
        assert math.exp(switch_prior_prefix(cfg, [1])) == pytest.approx(0.8)

    def test_constant_sequence_exceeds_single_block_mass(self):
        cfg = es.default_switch_config(2)
        n = 4
        single = 0.5 * 0.5  # pi_m(1) * pi_k
        got = math.exp(switch_prior_prefix(cfg, [0] * n))
        assert got > single

    def test_param_mass_consistency(self):
        cfg = es.default_switch_config(2, theta=0.5)
        p = SwitchParams((0,), (1,))
        assert switch_param_mass(cfg, p) == pytest.approx(math.log(0.5 * 0.5))
        p2 = SwitchParams((0, 2), (1, 0))
        want = math.log(0.25 * 0.5 * (1 / 6 / (1 / 1)) * 0.5)
        assert switch_param_mass(cfg, p2) == pytest.approx(want)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SwitchParams((1,), (0,))
        with pytest.raises(ValueError):
            SwitchParams((0, 0), (0, 1))
        with pytest.raises(ValueError):
            es.SwitchConfig(0.0, es.inv_poly(), (1.0,))


class TestRunLength:
    def test_geometric_reduces_to_fixed_share(self):
        rng = np.random.default_rng(RNG_SEED + 9)
        experts = _experts(rng)
        data = list(rng.integers(0, 2, 8))
        alpha = 0.45
        a = _marginal(es.run_length(es.geometric(alpha), [0.5, 0.5]), experts, data)
        b = _marginal(es.fixed_share([0.5, 0.5], alpha), experts, data)
        assert abs(a - b) <= 1e-12

    def test_uniform_two_hazards(self):
        law = es.uniform_span(1, 2)
        assert law.hazard(1) == pytest.approx(0.5)
        assert law.hazard(2) == pytest.approx(1.0)

    def test_prior_matches_block_decomposition_oracle(self):
        w = [0.4, 0.6]
        for law in (es.inv_poly(), es.geometric(0.3), es.uniform_span(1, 2)):
            m = es.run_length(law, w)
            for n in range(1, 6):
                for seq in itertools.product(range(2), repeat=n):
                    a = es.expert_sequence_prior(m, seq)
                    b = run_length_prior_oracle(law, w, seq)
                    assert a == pytest.approx(b, abs=1e-9), (law.name, seq)


class TestConstructorValidation:
    def test_all_constructors_validate_clean(self):
        models = [es.bayes([0.5, 0.5]),
                  es.fixed_elementwise([0.3, 0.7]),
                  es.universal_elementwise(2),
                  es.fixed_share([0.5, 0.5], 0.2),
                  es.universal_share([0.5, 0.5]),
                  es.overconfident([0.5, 0.5], 0.2),
                  es.switch(es.default_switch_config(2), 2),
                  es.run_length(es.inv_poly(), [0.5, 0.5])]
        for m in models:
            assert es.validate(m, 6) == []

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            es.bayes([0.5, 0.4])
        with pytest.raises(ValueError):
            es.fixed_share([0.5, 0.5], 1.5)
        with pytest.raises(ValueError):
            es.universal_elementwise(0)
        with pytest.raises(ValueError):
            es.geometric(0.0)
        with pytest.raises(ValueError):
            es.uniform_span(3, 2)

    @pytest.mark.parametrize("make", [
        es.bayes, es.fixed_elementwise, es.universal_share,
        lambda w: es.fixed_share(w, 0.2), lambda w: es.overconfident(w, 0.2),
        lambda w: es.run_length(es.inv_poly(), w),
        lambda w: es.SwitchConfig(0.5, es.inv_poly(), tuple(w)),
        es.models.FinitePmfLaw,
    ], ids=["bayes", "fixed_elementwise", "universal_share", "fixed_share", "overconfident",
            "run_length", "switch_config", "finite_law"])
    @pytest.mark.parametrize("w", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan]])
    def test_nan_weights_rejected_naming_them(self, make, w):
        # NaN fails no comparison, so a sum or sign test alone lets it through.
        with pytest.raises(ValueError, match=r"finite, got \[.*nan"):
            make(w)
