import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest

import expertseq as es
from expertseq.experts import ModelExpert
from expertseq.forward import _step_rows
from expertseq.logprob import NEG_INF, logsumexp
from oracles import Counting, record_stream


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
        # A forward pass reads one stream per expert: one forecast per step,
        # each symbol sent once, and no history ever recounted by predict.
        forecasts, sent = record_stream(monkeypatch, cls)
        data = [int(x) for x in np.random.default_rng(9).integers(0, 2, 300)]
        es.forward_marginal(es.fixed_share([0.5, 0.5], 0.1), [cls(2), es.uniform_expert(2)], data)
        assert forecasts == [len(data)]
        assert sent == data[:-1]


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

ONLINE_ENTRY_POINTS = {
    "ForwardPass": lambda ex, d: es.ForwardPass(es.fixed_share([0.5, 0.5], 0.2), ex),
    "model_as_expert": lambda ex, d: es.model_as_expert(es.fixed_share([0.5, 0.5], 0.2), ex),
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

    @pytest.mark.parametrize("entry", sorted(OFFLINE_ENTRY_POINTS) + sorted(ONLINE_ENTRY_POINTS))
    def test_mixed_alphabet_sizes_rejected_where_experts_enter(self, entry):
        experts = [CountingExpert(es.KTEstimator(2)), CountingExpert(es.KTEstimator(3))]
        call = OFFLINE_ENTRY_POINTS.get(entry) or ONLINE_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match="expert 1 forecasts 3 outcomes, expert 0 forecasts 2"):
            call(experts, [0, 1, 1])
        assert [e.calls for e in experts] == [0, 0]


def builtin_experts(rng, size=3, steps=40):
    """One of every built-in expert over ``size`` outcomes, by name."""
    def markov():
        return es.MarkovExpert(rng.dirichlet(np.ones(size)),
                               [rng.dirichlet(np.ones(size)) for _ in range(size)])
    return {
        "kt": es.KTEstimator(size),
        "laplace": es.LaplaceEstimator(size),
        "constant": es.ConstantExpert(rng.dirichlet(np.ones(size))),
        "markov": markov(),
        "advice": es.AdviceExpert(rng.dirichlet(np.ones(size), size=steps)),
        "model": es.model_as_expert(es.fixed_share([0.5, 0.5], 0.2),
                                    [es.KTEstimator(size), markov()]),
        "laplace_expert_conditional": es.laplace_expert_conditional(size),
    }


BUILTINS = sorted(builtin_experts(np.random.default_rng(0)))


class TestForecastStreams:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_stream_is_predict_on_each_prefix(self, name):
        rng = np.random.default_rng(31)
        steps = 40
        e = builtin_experts(rng, steps=steps)[name]
        data = [int(x) for x in rng.integers(0, 3, steps - 1)]
        stream = e.forecasts()
        streamed = [next(stream)] + [stream.send(x) for x in data]
        for i, forecast in enumerate(streamed):
            assert forecast.tobytes() == e.predict(data[:i]).tobytes(), (name, i)
        # Out of order, with repeats, after the stream: still exact.
        for i in rng.permutation(np.repeat(np.arange(steps), 2)).tolist():
            assert e.predict(data[:i]).tobytes() == streamed[i].tobytes(), (name, i)

    def test_advice_stream_exhausts_like_predict(self):
        e = es.AdviceExpert([[0.9, 0.1], [0.3, 0.7]])
        stream = e.forecasts()
        next(stream)
        stream.send(0)
        with pytest.raises(ValueError, match="advice exhausted: step 2 beyond 2 rows"):
            stream.send(1)
        with pytest.raises(ValueError, match="advice exhausted: step 2 beyond 2 rows"):
            e.predict([0, 1])

    @pytest.mark.parametrize("cls", [es.KTEstimator, es.LaplaceEstimator])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_counting_stream_rejects_symbol_with_position(self, cls, bad):
        stream = cls(3).forecasts()
        next(stream)
        stream.send(2)
        with pytest.raises(ValueError, match="position 1"):
            stream.send(bad)

    @pytest.mark.parametrize("make", [
        lambda: es.KTEstimator(3),
        lambda: es.LaplaceEstimator(3),
        lambda: es.MarkovExpert([0.2, 0.3, 0.5], [[0.1, 0.6, 0.3]] * 3),
    ], ids=["kt", "laplace", "markov"])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_predict_and_stream_reject_symbol_with_position(self, make, bad):
        e = make()
        for history in ([bad], [0, 2, bad]):
            at = len(history) - 1
            with pytest.raises(ValueError, match=rf"symbol {bad} at position {at} is outside 0\.\.2"):
                e.predict(history)
        stream = e.forecasts()
        next(stream)
        stream.send(0)
        stream.send(2)
        with pytest.raises(ValueError, match=rf"symbol {bad} at position 2 is outside 0\.\.2"):
            stream.send(bad)

    # A symbol that is not an integer, even a whole float, is neither
    # truncated nor used as a numpy index.
    NOT_INTEGERS = [1.5, 1.0]

    @pytest.mark.parametrize("make", [
        lambda: es.KTEstimator(3),
        lambda: es.LaplaceEstimator(3),
        lambda: es.MarkovExpert([0.2, 0.3, 0.5], [[0.1, 0.6, 0.3]] * 3),
    ], ids=["kt", "laplace", "markov"])
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_predict_rejects_non_integer_symbol_with_position(self, make, bad):
        e = make()
        for history in ([bad], [0, 2, bad]):
            at = len(history) - 1
            with pytest.raises(ValueError, match=rf"symbol {bad} at position {at} is outside 0\.\.2"):
                e.predict(history)

    @pytest.mark.parametrize("make", [
        lambda: es.KTEstimator(3),
        lambda: es.LaplaceEstimator(3),
        lambda: es.MarkovExpert([0.2, 0.3, 0.5], [[0.1, 0.6, 0.3]] * 3),
    ], ids=["kt", "laplace", "markov"])
    @pytest.mark.parametrize("bad", NOT_INTEGERS)
    def test_stream_rejects_non_integer_symbol_with_position(self, make, bad):
        stream = make().forecasts()
        next(stream)
        stream.send(0)
        stream.send(2)
        with pytest.raises(ValueError, match=rf"symbol {bad} at position 2 is outside 0\.\.2"):
            stream.send(bad)

    # The entry points read each symbol once, through the check the experts
    # use, so none of them passes a truncated symbol on.
    def test_forward_pass_rejects_non_integer_symbol_with_position(self):
        fp = es.ForwardPass(es.bayes([0.5, 0.5]), [es.KTEstimator(2), es.ConstantExpert([0.8, 0.2])])
        fp.advance(1)
        with pytest.raises(ValueError, match=r"symbol 1\.5 at position 1 is outside 0\.\.1"):
            fp.advance(1.5)

    def test_prediction_matrix_rejects_non_integer_symbol_with_position(self):
        experts = [es.KTEstimator(2), es.ConstantExpert([0.8, 0.2])]
        with pytest.raises(ValueError, match=r"symbol 1\.5 at position 1 is outside 0\.\.1"):
            es.prediction_matrix(experts, [0, 1.5])
        with pytest.raises(ValueError, match=r"symbol 1\.5 at position 1 is outside 0\.\.1"):
            es.posterior_experts(es.fixed_share([0.5, 0.5], 0.1), experts, [0, 1.5])

    def test_sequential_log_loss_rejects_non_integer_symbol_with_position(self):
        with pytest.raises(ValueError, match=r"symbol 1\.7 at position 0 is outside 0\.\.1"):
            es.sequential_log_loss(es.KTEstimator(2), [1.7])

    def test_integer_likes_are_symbols(self):
        # numpy integers and arrays of any integer dtype read as before.
        for e in (es.KTEstimator(3), es.MarkovExpert([0.2, 0.3, 0.5], [[0.1, 0.6, 0.3]] * 3)):
            want = e.predict([0, 2, 1]).tobytes()
            assert e.predict([np.int64(0), np.int32(2), np.uint8(1)]).tobytes() == want
            assert e.predict(np.array([0, 2, 1], dtype=np.uint8)).tobytes() == want
            stream = e.forecasts()
            next(stream)
            stream.send(np.int64(0))
            stream.send(np.uint8(2))
            assert stream.send(np.int32(1)).tobytes() == want

    def test_default_stream_replays_predict_on_one_growing_list(self):
        e = CountingExpert(es.KTEstimator(2))
        stream = e.forecasts()
        got = [next(stream)] + [stream.send(x) for x in (1, 0, 1)]
        assert e.calls == 4
        for i, forecast in enumerate(got):
            assert forecast.tobytes() == es.KTEstimator(2).predict([1, 0, 1][:i]).tobytes()

    def test_builtins_never_replay_predict(self, monkeypatch):
        rng = np.random.default_rng(32)
        n = 30
        experts = [e for name, e in builtin_experts(rng, size=2, steps=n).items()
                   if name != "laplace_expert_conditional"]
        data = [int(x) for x in rng.integers(0, 2, n)]
        for cls in (es.KTEstimator, es.LaplaceEstimator, es.ConstantExpert, es.MarkovExpert,
                    es.AdviceExpert, ModelExpert):
            record_stream(monkeypatch, cls)
        k = len(experts)
        model = es.fixed_share([1 / k] * k, 0.1)
        fp = es.ForwardPass(model, experts, want_outcome_dists=True)
        for x in data:
            fp.advance(x)
        lp = es.prediction_matrix(experts, data)
        assert lp.shape == (n, k)
        assert es.forward_marginal(model, experts, data).log_marginal == fp.log_marginal
        es.posterior_experts(model, experts, data)
        es.switch_map(es.default_switch_config(k), experts, data)
        res = es.ml_conditioned_marginal(es.laplace_expert_conditional(k), experts, data)
        assert res.ml_sequence == np.argmax(lp, axis=1).tolist()


def streamed_column(e, data):
    """log P(x_i | x^{i-1}) read off the expert's stream, one step at a time."""
    stream, out = e.forecasts(), []
    for i, x in enumerate(data):
        out.append(next(stream)[x] if i == 0 else stream.send(data[i - 1])[x])
    return np.array(out, dtype=float)


# Window replies of the wrong shape, from a fair binary expert's log
# forecasts and the window's rows, with the shape a 3-row window gets.
WRONG_REPLIES = {
    "one_row": (lambda logp, r: logp, r"\(2,\)"),
    "short": (lambda logp, r: np.broadcast_to(logp, (r - 1, len(logp))), r"\(2, 2\)"),
}


def wrong_window(reply):
    """A fair binary expert whose reader replies ``WRONG_REPLIES[reply]``."""
    make = WRONG_REPLIES[reply][0]

    class Wrong(es.ConstantExpert):
        def window_forecasts(self):
            xs = yield
            while True:
                xs = yield make(self._logp, len(xs))
    return Wrong([0.5, 0.5])


class TestRealizedColumns:
    # n = 23 is read in windows of 7 rows: three full ones and a short one.
    @pytest.mark.parametrize("n", [0, 1, 40, 23])
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("name", BUILTINS)
    def test_column_is_the_stream_bit_for_bit(self, name, size, n, monkeypatch):
        if n == 23:
            monkeypatch.setattr(es.forward, "SCAN_ROWS", 7)
        rng = np.random.default_rng(34 + 10 * size + n)
        e = builtin_experts(rng, size=size)[name]
        data = rng.integers(0, size, n).astype(np.intp)
        got = es.prediction_matrix([e], data)[:, 0]
        assert got.dtype == np.float64
        assert got.tobytes() == streamed_column(e, data.tolist()).tobytes()

    def test_default_column_makes_n_forecasts_and_n_minus_1_sends(self, monkeypatch):
        monkeypatch.setattr(es.forward, "SCAN_ROWS", 7)
        e = Counting(es.KTEstimator(2))
        data = np.random.default_rng(38).integers(0, 2, 23).tolist()
        es.prediction_matrix([e], data)
        assert (e.rows, e.sent) == (23, data[:-1])

    def test_advice_exhausts_like_the_stream(self):
        e = es.AdviceExpert([[0.9, 0.1], [0.3, 0.7]])
        with pytest.raises(ValueError) as streamed:
            streamed_column(e, [0, 1, 1])
        with pytest.raises(ValueError) as offline:
            es.prediction_matrix([e], [0, 1, 1])
        assert str(offline.value) == str(streamed.value) == "advice exhausted: step 2 beyond 2 rows"

    def test_builtin_columns_open_no_stream(self, monkeypatch):
        rng = np.random.default_rng(35)
        n = 30
        experts = [e for name, e in builtin_experts(rng, size=2, steps=n).items() if name != "model"]
        counts = [record_stream(monkeypatch, cls)[0] for cls in
                  (es.KTEstimator, es.LaplaceEstimator, es.ConstantExpert, es.MarkovExpert,
                   es.AdviceExpert)]
        lp = es.prediction_matrix(experts, rng.integers(0, 2, n).tolist())
        assert lp.shape == (n, len(experts))
        assert counts == [[0]] * len(counts)

    def test_column_of_the_wrong_shape_names_the_expert(self):
        for reply, (_, shape) in WRONG_REPLIES.items():
            experts = [es.uniform_expert(2), wrong_window(reply)]
            with pytest.raises(ValueError, match=rf"expert 1 window shape {shape} for 3 symbols"):
                es.prediction_matrix(experts, [0, 1, 1])

    def test_counting_column_memory_is_linear_in_n(self):
        # A one-hot running count would take n * size * 8 bytes, 205 MB here.
        data = np.random.default_rng(36).integers(0, 256, 100_000).astype(np.intp)
        tracemalloc.start()
        try:
            col = es.prediction_matrix([es.KTEstimator(256)], data)[:, 0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert col.shape == (100_000,)
        assert peak < 16e6, peak


def windowed(e, data, cuts):
    """The expert's forecasts for ``data`` read through its window reader,
    the windows cut before each position in ``cuts``."""
    reader = e.window_forecasts()
    next(reader)
    edges = [0, *cuts, len(data)]
    windows = [reader.send(data[a:b]) for a, b in zip(edges, edges[1:])]
    assert all(w.shape == (b - a, e.size) for w, a, b in zip(windows, edges, edges[1:]))
    return np.concatenate(windows)


def streamed_rows(e, data):
    """The forecasts for ``data`` read off the expert's stream, each outcome
    sent only when the forecast after it is wanted."""
    stream = e.forecasts()
    return np.array([next(stream)] + [stream.send(x) for x in data[:-1]], dtype=float)


class TestWindowForecasts:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("name", [*BUILTINS, "predict_only"])
    def test_windows_are_the_stream_bit_for_bit(self, name, size, seed):
        # n is the advice table's length, so the last window ends at its
        # last row; the first two windows hold one row each, and every cut
        # of a Markov expert crosses a transition.
        rng = np.random.default_rng(37 + 10 * size + seed)
        n = 40
        experts = builtin_experts(rng, size=size, steps=n)
        e = CountingExpert(experts["markov"]) if name == "predict_only" else experts[name]
        data = rng.integers(0, size, n).astype(np.intp)
        cuts = sorted({1, 2, *(np.flatnonzero(rng.uniform(size=n - 1) < 0.3) + 1).tolist()})
        got = windowed(e, data, cuts)
        assert got.dtype == np.float64
        assert got.tobytes() == streamed_rows(e, data.tolist()).tobytes()

    def test_default_reader_sends_each_outcome_when_its_successor_is_wanted(self):
        e = Counting(es.KTEstimator(2))
        data = np.array([1, 0, 1, 1, 0], dtype=np.intp)
        reader = e.window_forecasts()
        next(reader)
        reader.send(data[:3])
        assert (e.rows, e.sent) == (3, [1, 0])
        reader.send(data[3:])
        assert (e.rows, e.sent) == (5, [1, 0, 1, 1])

    @pytest.mark.parametrize("cuts", [[3], [2, 5]])
    def test_exhausted_advice_raises_the_streams_message(self, cuts):
        e = es.AdviceExpert(np.full((5, 2), 0.5))
        data = np.zeros(6, dtype=np.intp)
        with pytest.raises(ValueError) as streamed:
            streamed_rows(e, data.tolist())
        with pytest.raises(ValueError) as read:
            windowed(e, data, cuts)
        assert str(read.value) == str(streamed.value) == "advice exhausted: step 5 beyond 5 rows"
        assert windowed(e, data[:5], cuts[:1]).shape == (5, 2)

    @pytest.mark.parametrize("reply", sorted(WRONG_REPLIES))
    def test_scan_rejects_a_window_of_the_wrong_shape(self, reply):
        experts = [es.uniform_expert(2), wrong_window(reply)]
        shape = WRONG_REPLIES[reply][1]
        with pytest.raises(ValueError, match=rf"expert 1 window shape {shape} for 3 symbols"):
            list(_step_rows(es.bayes([0.5, 0.5]), experts, [0, 1, 1]))


class CountingSequence(Sequence):
    """A read-only sequence that counts the elements read from it."""

    def __init__(self, items):
        self._items, self.reads = list(items), 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        got = self._items[i]
        self.reads += len(got) if isinstance(i, slice) else 1
        return got


class TestConstantWorkPerStep:
    @pytest.mark.parametrize("n", [500, 5000])
    def test_prediction_matrix_reads_each_symbol_a_fixed_number_of_times(self, n):
        rng = np.random.default_rng(33)
        experts = [e for name, e in builtin_experts(rng, size=2, steps=n).items()
                   if name != "laplace_expert_conditional"]
        data = CountingSequence(int(x) for x in rng.integers(0, 2, n))
        es.prediction_matrix(experts, data)
        # Once, checked and kept as the symbol array every column reads.
        assert data.reads == n
