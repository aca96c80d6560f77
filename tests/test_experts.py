import math

import numpy as np
import pytest

import expertseq as es
from expertseq.logprob import NEG_INF, logsumexp


class TestBuiltins:
    def test_constant_ignores_history(self):
        e = es.ConstantExpert([0.8, 0.2])
        np.testing.assert_allclose(np.exp(e.predict([])), [0.8, 0.2])
        np.testing.assert_allclose(np.exp(e.predict([1, 0, 1])), [0.8, 0.2])

    def test_laplace_symmetric_start(self):
        e = es.LaplaceEstimator(2)
        np.testing.assert_allclose(np.exp(e.predict([])), [0.5, 0.5])

    def test_kt_counts(self):
        e = es.KTEstimator(2)
        hist = [0, 0, 0, 1]  # counts (3, 1)
        np.testing.assert_allclose(np.exp(e.predict(hist)), [3.5 / 5, 1.5 / 5], rtol=1e-12)
        with pytest.raises(ValueError):
            e.predict([0, 2])

    def test_markov_rows(self):
        e = es.MarkovExpert([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(np.exp(e.predict([])), [0.5, 0.5])
        np.testing.assert_allclose(np.exp(e.predict([0])), [0.9, 0.1])
        np.testing.assert_allclose(np.exp(e.predict([0, 1])), [0.2, 0.8])

    def test_make_builtin_dispatch(self):
        assert isinstance(es.make_builtin_expert("kt", size=3), es.KTEstimator)
        assert isinstance(es.make_builtin_expert("laplace", size=2), es.LaplaceEstimator)
        assert isinstance(es.make_builtin_expert("constant", probs=[1.0]), es.ConstantExpert)
        with pytest.raises(ValueError):
            es.make_builtin_expert("nope")
        with pytest.raises(ValueError):
            es.make_builtin_expert("constant", probs=[0.5, 0.4])

    def test_nan_distributions_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            es.ConstantExpert([nan, 1.0])
        with pytest.raises(ValueError):
            es.MarkovExpert([nan, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            es.MarkovExpert([0.5, 0.5], [[nan, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            es.AdviceExpert([[0.5, 0.5], [nan, 1.0]])

    def test_predictions_normalized_on_random_histories(self):
        rng = np.random.default_rng(3)
        experts = [es.KTEstimator(3), es.LaplaceEstimator(3),
                   es.ConstantExpert(rng.dirichlet(np.ones(3))),
                   es.MarkovExpert(rng.dirichlet(np.ones(3)),
                                   [rng.dirichlet(np.ones(3)) for _ in range(3)])]
        for _ in range(30):
            hist = list(rng.integers(0, 3, rng.integers(0, 51)))
            for e in experts:
                assert logsumexp(e.predict(hist)) == pytest.approx(0.0, abs=1e-9)


def fresh_counts_predict(cls, size, history):
    """What KT or Laplace predicts when the history is counted from scratch."""
    counts = np.bincount(np.asarray(history, dtype=np.intp), minlength=size)
    a = cls.smoothing
    return np.log((counts + a) / (len(history) + a * size))


@pytest.mark.parametrize("cls", [es.KTEstimator, es.LaplaceEstimator])
class TestRunningCounts:
    def assert_fresh(self, e, history):
        np.testing.assert_array_equal(e.predict(history),
                                      fresh_counts_predict(type(e), e.size, history))

    def test_growing_list(self, cls):
        e, hist = cls(3), []
        for x in np.random.default_rng(8).integers(0, 3, 60):
            self.assert_fresh(e, hist)
            hist.append(int(x))
        self.assert_fresh(e, hist)

    def test_extension_by_many_symbols(self, cls):
        e = cls(3)
        self.assert_fresh(e, [0, 1])
        self.assert_fresh(e, [0, 1, 2, 2, 0, 2])

    def test_shorter_and_diverging(self, cls):
        e = cls(3)
        for hist in ([0, 1, 2, 2, 1], [0, 1, 2], [0, 1, 2, 2, 1, 1], [0, 2, 2, 2, 1, 1, 0],
                     [], [1], [0, 2, 2, 2, 1, 1, 0, 0]):
            self.assert_fresh(e, hist)

    def test_list_edited_in_place(self, cls):
        e = cls(3)
        hist = [0, 0, 1, 2]
        self.assert_fresh(e, hist)
        hist[1] = 2
        self.assert_fresh(e, hist)
        hist[1] = 0
        hist.append(1)
        self.assert_fresh(e, hist)
        hist.pop(0)
        self.assert_fresh(e, hist)

    def test_tuple_and_array_histories(self, cls):
        e = cls(3)
        data = [2, 0, 1, 1, 2, 0, 0]
        for i in range(len(data) + 1):
            self.assert_fresh(e, tuple(data[:i]))
            self.assert_fresh(e, np.array(data[:i]))
            self.assert_fresh(e, list(data[:i]))
        self.assert_fresh(e, np.array([2, 0, 2], dtype=np.int8))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_alphabet_symbol_in_extension_raises(self, cls, bad):
        e = cls(3)
        hist = [0, 1, 2]
        self.assert_fresh(e, hist)
        with pytest.raises(ValueError, match="position 4"):
            e.predict(hist + [1, bad, 0])
        with pytest.raises(ValueError, match="position 0"):
            e.predict([bad])
        self.assert_fresh(e, hist + [1])
        self.assert_fresh(e, hist + [1, 0])

    def test_stream_is_counted_once(self, cls, monkeypatch):
        from expertseq.experts import _RunningCounts
        recounts = []
        real = _RunningCounts._recount
        monkeypatch.setattr(_RunningCounts, "_recount",
                            lambda self, seq: recounts.append(len(seq)) or real(self, seq))
        data = list(np.random.default_rng(9).integers(0, 2, 300))
        es.forward_marginal(es.fixed_share([0.5, 0.5], 0.1), [cls(2), es.uniform_expert(2)], data)
        assert recounts == []
        cls(2).predict([0, 1])
        assert recounts == []
        e = cls(2)
        e.predict([0, 1, 1])
        e.predict([0, 0])
        assert recounts == [2]


class TestSequentialLogLoss:
    def test_fair_coin_four_bits(self):
        e = es.uniform_expert(2)
        got = es.sequential_log_loss(e, [0, 1, 1, 0])
        assert es.to_bits(got) == pytest.approx(4.0, rel=1e-12)

    def test_kt_two_ones(self):
        e = es.KTEstimator(2)
        got = es.sequential_log_loss(e, [1, 1])
        assert got == pytest.approx(math.log(0.5 * 0.75), rel=1e-12)

    def test_zero_factor_annihilates(self):
        e = es.ConstantExpert([1.0, 0.0])
        assert es.sequential_log_loss(e, [0, 1, 0]) == NEG_INF

    def test_unknown_symbol(self):
        e = es.uniform_expert(2)
        with pytest.raises(ValueError):
            es.sequential_log_loss(e, [0, 2])


class TestAdviceExpert:
    def test_steps_indexed_by_history_length(self):
        e = es.AdviceExpert([[0.9, 0.1], [0.3, 0.7]])
        np.testing.assert_allclose(np.exp(e.predict([])), [0.9, 0.1])
        np.testing.assert_allclose(np.exp(e.predict([1])), [0.3, 0.7])
        with pytest.raises(ValueError):
            e.predict([0, 0])

    def test_rows_must_be_normalized(self):
        with pytest.raises(ValueError):
            es.AdviceExpert([[0.9, 0.3]])


class TestModelAsExpert:
    def test_singleton_mixture_is_identity(self):
        rng = np.random.default_rng(4)
        base = es.ConstantExpert(rng.dirichlet(np.ones(2)))
        wrapped = es.model_as_expert(es.bayes([1.0]), [base])
        for hist in ([], [0], [1, 0, 1]):
            np.testing.assert_allclose(wrapped.predict(hist), base.predict(hist), rtol=1e-12)

    def test_chain_rule_matches_marginal(self):
        rng = np.random.default_rng(5)
        experts = [es.ConstantExpert(rng.dirichlet(np.ones(2))) for _ in range(3)]
        model = es.fixed_share([1 / 3] * 3, 0.3)
        wrapped = es.model_as_expert(model, experts)
        for _ in range(5):
            data = list(rng.integers(0, 2, rng.integers(1, 21)))
            ref = es.forward_marginal(model, experts, data).log_marginal
            assert es.sequential_log_loss(wrapped, data) == pytest.approx(ref, abs=1e-9)

    def test_nested_bayes_flattens(self):
        rng = np.random.default_rng(6)
        a, b, c = (es.ConstantExpert(rng.dirichlet(np.ones(2))) for _ in range(3))
        inner = es.model_as_expert(es.bayes([0.5, 0.5]), [a, b])
        for data in ([0], [0, 1], [1, 1, 0], [0, 1, 1, 0]):
            nested = es.forward_marginal(es.bayes([0.5, 0.5]), [inner, c], data).log_marginal
            flat = es.forward_marginal(es.bayes([0.25, 0.25, 0.5]), [a, b, c], data).log_marginal
            assert nested == pytest.approx(flat, abs=1e-12)

    def test_out_of_order_histories_replay(self):
        rng = np.random.default_rng(7)
        experts = [es.ConstantExpert(rng.dirichlet(np.ones(2))) for _ in range(2)]
        wrapped = es.model_as_expert(es.fixed_share([0.5, 0.5], 0.2), experts)
        p_long = wrapped.predict([0, 1, 1])
        p_short = wrapped.predict([1])
        p_long_again = wrapped.predict([0, 1, 1])
        np.testing.assert_allclose(p_long, p_long_again, rtol=0, atol=0)
        assert p_short.shape == (2,)


class TestAlphabet:
    def test_roundtrip(self):
        ab = es.Alphabet.of(["0", "1", "x"])
        assert len(ab) == 3
        assert ab.index("x") == 2
        with pytest.raises(ValueError):
            ab.index("y")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            es.Alphabet.of(["a", "a"])

    def test_safe_expert_appended(self):
        experts = es.with_safe_expert([es.uniform_expert(3)], 3)
        assert len(experts) == 2
        np.testing.assert_allclose(np.exp(experts[-1].predict([])), [1 / 3] * 3)


class CountingExpert(es.ForecastingSystem):
    """Delegating expert that counts its predict calls."""

    def __init__(self, inner):
        self.inner, self.size, self.calls = inner, inner.size, 0

    def predict(self, history):
        self.calls += 1
        return self.inner.predict(history)


OFFLINE_ENTRY_POINTS = {
    "prediction_matrix": es.prediction_matrix,
    "posterior_experts": lambda ex, d: es.posterior_experts(es.fixed_share([0.5, 0.5], 0.2), ex, d),
    "viterbi_unambiguous": lambda ex, d: es.viterbi_unambiguous(es.fixed_share([0.5, 0.5], 0.2), ex, d),
    "switch_map": lambda ex, d: es.switch_map(es.default_switch_config(2), ex, d),
    "ml_estimate": es.ml_estimate,
    "ml_conditioned_marginal": lambda ex, d: es.ml_conditioned_marginal(
        es.laplace_expert_conditional(2), ex, d),
}


class TestRealizedPredictions:
    @pytest.mark.parametrize("entry", sorted(OFFLINE_ENTRY_POINTS))
    def test_each_expert_asked_once_per_step(self, entry):
        experts = [CountingExpert(es.KTEstimator(2)), CountingExpert(es.ConstantExpert([0.7, 0.3]))]
        data = [0, 1, 1, 0, 0, 0, 1, 0, 1]
        OFFLINE_ENTRY_POINTS[entry](experts, data)
        assert [e.calls for e in experts] == [len(data)] * 2

    def test_sequential_log_loss_stops_at_zero_factor(self):
        e = CountingExpert(es.ConstantExpert([1.0, 0.0]))
        assert es.sequential_log_loss(e, [0, 1, 0, 0]) == NEG_INF
        assert e.calls == 2

    @pytest.mark.parametrize("entry", ["prediction_matrix", "ml_estimate", "switch_map"])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_out_of_alphabet_symbol_rejected_with_position(self, entry, bad):
        experts = [CountingExpert(es.KTEstimator(2)), CountingExpert(es.uniform_expert(2))]
        with pytest.raises(ValueError, match="position 1"):
            OFFLINE_ENTRY_POINTS[entry](experts, [0, bad, 1])
        assert [e.calls for e in experts] == [0, 0]
