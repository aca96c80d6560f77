"""Forecasting systems: the expert abstraction and built-in reference experts.

An expert is a sequential forecaster P(x_{t+1} | x^t) over outcome
indices, read three ways. ``predict(history)`` defines it for any
history, in any order; ``forecasts()`` streams it, each outcome sent
once; ``window_forecasts()`` streams it one window of outcomes at a
time. ``realized(data)`` gives the whole column of log P(x_i | x^{i-1})
for a known sequence. Every built-in expert streams at constant cost per
step and reads a window or its column in a few numpy calls; the base
class replays ``predict`` to stream and reads its stream for the rest.

``_forecast_rows`` merges k streams into one (k, alphabet) array per step
for ``ForwardPass``, which reads it as it advances. The forward scan of
CLI ``evaluate`` reads one window an expert. Every other offline entry
point (posterior, Viterbi, switch MAP, ML estimates, bounds) reads
``prediction_matrix``, one ``realized`` column per expert. Experts of
different alphabet sizes are rejected where they enter, and symbols are
checked against the alphabet before any expert sees them. A matrix that
is not (n, k), or a realized log-probability that is NaN or positive
(named with its step), is rejected where the matrix enters a
computation: at ``ForwardPass`` construction in matrix mode and in the
shared offline check.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count
from typing import Generator, Iterator, Sequence

import numpy as np

from .logprob import NEG_INF, LogMass


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered outcome space with unique labels."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be unique")

    @classmethod
    def of(cls, labels) -> "Alphabet":
        return cls(tuple(str(s) for s in labels))

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None


class ForecastingSystem(ABC):
    """Sequential predictor over a fixed finite outcome space.

    ``size`` is the number of outcomes; ``predict`` returns a vector of
    ``size`` natural-log probabilities summing to one (in linear scale).
    Subclasses define ``predict`` and may override ``forecasts`` to stream
    it, ``window_forecasts`` to read it a window at a time and ``realized``
    to compute a known sequence's column in one pass; each override must
    give the bits ``predict`` gives.
    """

    size: int

    @abstractmethod
    def predict(self, history: Sequence[int]) -> np.ndarray:
        """Log-probability vector for the next outcome given the history."""

    def forecasts(self) -> Iterator[np.ndarray]:
        """Generator of forecasts equal to ``predict`` on the outcomes sent
        so far: ``next`` gives the forecast for x_1, and sending x_t, done
        only when the next forecast is wanted, gives that for x_{t+1}.
        This default replays ``predict`` over one growing list."""
        history: list[int] = []
        while True:
            x = yield self.predict(history)
            history.append(x)

    def window_forecasts(self) -> Generator[np.ndarray | None, np.ndarray, None]:
        """Generator of forecasts a window at a time: after a first
        ``next``, sending the checked ``np.intp`` symbols x_t0..x_t0+r-1 of
        the next non-empty window gives the (r, size) forecasts for those
        positions, row i equal to ``predict`` of the outcomes before
        x_t0+i. This default reads ``forecasts()`` a row at a time, sending
        each outcome only when the forecast after it is wanted, so a
        window's last symbol waits for the next window."""
        stream, last, rows = self.forecasts(), None, None
        while True:
            xs = (yield rows).tolist()
            rows = np.empty((len(xs), self.size))
            for i, x in enumerate([last, *xs[:-1]]):
                rows[i] = stream.send(x)
            last = xs[-1]

    def realized(self, data: np.ndarray) -> np.ndarray:
        """The (n,) log P(x_i | x^{i-1}) of a checked ``np.intp`` symbol
        array. This default reads ``forecasts()`` once: n forecasts and
        n - 1 sends."""
        out = np.empty(len(data))
        if len(data):
            stream = self.forecasts()
            out[0] = next(stream)[data[0]]
            for i, (sent, x) in enumerate(zip(data[:-1].tolist(), data[1:].tolist()), 1):
                out[i] = stream.send(sent)[x]
        return out


def _forecast_rows(experts: Sequence[ForecastingSystem]) -> Iterator[np.ndarray]:
    """The (k, alphabet) forecasts of k experts per step, read like one
    expert's ``forecasts``."""
    streams = [e.forecasts() for e in experts]
    row = np.array([next(s) for s in streams])
    while True:
        x = yield row
        row = np.array([s.send(x) for s in streams])


def _alphabet_size(experts: Sequence[ForecastingSystem]) -> int:
    """The outcome count the experts share; a ValueError names the first
    expert whose ``size`` differs from expert 0's."""
    size = experts[0].size
    for j, e in enumerate(experts):
        if e.size != size:
            raise ValueError(f"expert {j} forecasts {e.size} outcomes, expert 0 forecasts {size}")
    return size


def _symbols(data: Sequence[int], size: int) -> list[int]:
    """The symbols as ints, each read once by ``_index``, which names the
    first that is not an integer in 0..size-1 with its position."""
    return [_index(x, i, size) for i, x in enumerate(data)]


def _outside(x, i: int, size: int) -> ValueError:
    return ValueError(f"symbol {x!r} at position {i} is outside 0..{size - 1}")


def _index(x, i: int, size: int) -> int:
    """The symbol x at position i as an int; an x that is not an integer
    (1.5, or the float 1.0) or lies outside 0..size-1 raises ``_outside``."""
    try:
        v = operator.index(x)
    except TypeError:
        raise _outside(x, i, size) from None
    if not 0 <= v < size:
        raise _outside(x, i, size)
    return v


def sequential_log_loss(pfs: ForecastingSystem, data: Sequence[int]) -> LogMass:
    """Chain-rule log mass the expert assigns to the whole sequence.

    Returns sum_i log P(x_i | x^{i-1}); -inf as soon as any factor is zero,
    without asking the expert about any later history.
    """
    stream, sent, total = pfs.forecasts(), None, 0.0
    for x in _symbols(data, pfs.size):
        total += float(stream.send(sent)[x])
        if total == NEG_INF:
            return NEG_INF
        sent = x
    return total


def prediction_matrix(experts: Sequence[ForecastingSystem], data: Sequence[int]) -> np.ndarray:
    """(n, k) matrix of log P_xi(x_i | x^{i-1}) for the realized outcomes,
    column j from ``experts[j].realized``. The experts' alphabet sizes and
    the symbols are checked before any expert is asked."""
    x = np.array(_symbols(data, _alphabet_size(experts)), dtype=np.intp)
    lp = np.empty((len(x), len(experts)))
    for j, e in enumerate(experts):
        col = e.realized(x)
        if np.shape(col) != (len(x),):
            raise ValueError(f"expert {j} realized shape {np.shape(col)} "
                             f"for {len(x)} symbols")
        lp[:, j] = col
    return lp


def _check_logpreds(lp: np.ndarray) -> np.ndarray:
    """Rejects a realized log-probability that is NaN or positive beyond
    1e-9, naming its 1-based step; returns ``lp`` unchanged."""
    bad = np.argwhere(~(lp <= 1e-9))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"realized log-probability {float(lp[i, j])} of expert {j} "
                         f"at step {i + 1} is NaN or positive")
    return lp


def _logpred_matrix(logpred_matrix, k: int) -> np.ndarray:
    """A given logpred matrix as a float array; it must be 2-D with k columns."""
    lp = np.asarray(logpred_matrix, dtype=float)
    if lp.ndim != 2 or lp.shape[1] != k:
        raise ValueError(f"logpred matrix must be (n, {k}), got shape {lp.shape}")
    return lp


def _check_source(experts, logpred_matrix, k: int) -> None:
    """Rejects a run given both or neither of ``experts`` and a logpred
    matrix, or other than k experts."""
    if (experts is None) == (logpred_matrix is None):
        raise ValueError("provide either experts or a logpred matrix")
    if experts is not None and len(experts) != k:
        raise ValueError(f"model labels {k} experts, got {len(experts)}")


def _realized_matrix(experts, data: Sequence[int], logpred_matrix, k: int) -> np.ndarray:
    """The validated (n, k) realized log-predictions of an offline run,
    from exactly one of ``experts`` (asked once per step) or a given matrix
    with k columns and at least n rows."""
    _check_source(experts, logpred_matrix, k)
    if experts is not None:
        return _check_logpreds(prediction_matrix(experts, data))
    lp = _logpred_matrix(logpred_matrix, k)
    if lp.shape[0] < len(data):
        raise ValueError("logpred matrix shorter than the data")
    return _check_logpreds(lp[: len(data)])


class ConstantExpert(ForecastingSystem):
    """History-independent expert with a fixed distribution."""

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or len(p) < 1:
            raise ValueError("constant expert needs a flat probability vector")
        if not np.all(p >= 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("constant expert distribution must be normalized")
        self.size = len(p)
        with np.errstate(divide="ignore"):
            self._logp = np.log(p)

    def predict(self, history: Sequence[int]) -> np.ndarray:
        return self._logp

    def forecasts(self) -> Iterator[np.ndarray]:
        while True:
            yield self._logp

    def window_forecasts(self) -> Generator[np.ndarray | None, np.ndarray, None]:
        xs = yield
        while True:
            xs = yield np.broadcast_to(self._logp, (len(xs), self.size))

    def realized(self, data: np.ndarray) -> np.ndarray:
        return self._logp[data]


def uniform_expert(size: int) -> ConstantExpert:
    return ConstantExpert(np.full(size, 1.0 / size))


class _AddSmoothedCounts(ForecastingSystem):
    """Dirichlet-smoothed relative frequencies: (count + a) / (n + a * size).

    The stream keeps running counts. A symbol that is not an integer in
    0..size-1 raises ValueError naming its position.
    """

    smoothing: float

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("alphabet size must be >= 1")
        self.size = size

    def predict(self, history: Sequence[int]) -> np.ndarray:
        values = np.asarray(history)
        if values.dtype.kind in "iu":
            values = values.astype(np.intp, copy=False)
            bad = np.flatnonzero((values < 0) | (values >= self.size))
            if len(bad):
                i = int(bad[0])
                raise _outside(history[i], i, self.size)
        else:  # floats, bools or Python objects: checked one at a time
            values = np.array([_index(x, i, self.size) for i, x in enumerate(history)],
                              dtype=np.intp)
        counts = np.bincount(values, minlength=self.size)
        a = self.smoothing
        return np.log((counts + a) / (len(history) + a * self.size))

    def forecasts(self) -> Iterator[np.ndarray]:
        counts = np.zeros(self.size, dtype=np.intp)
        a, n = self.smoothing, 0
        while True:
            x = yield np.log((counts + a) / (n + a * self.size))
            counts[_index(x, n, self.size)] += 1
            n += 1

    def window_forecasts(self) -> Generator[np.ndarray | None, np.ndarray, None]:
        # c[i] counts the symbols before position n + i: the counts carried
        # in, then one one-hot row a symbol, summed down the window.
        counts, a, n = np.zeros(self.size, dtype=np.intp), self.smoothing, 0
        xs = yield
        while True:
            r = len(xs)
            c = np.zeros((r + 1, self.size), dtype=np.intp)
            c[0] = counts
            c[np.arange(1, r + 1), xs] = 1
            np.cumsum(c, axis=0, out=c)
            counts = c[r]
            rows = np.log((c[:r] + a) / ((n + np.arange(r))[:, None] + a * self.size))
            n += r
            xs = yield rows

    def realized(self, data: np.ndarray) -> np.ndarray:
        # counts[i] is how often data[i] occurs in data[:i]: its rank among
        # the equal symbols after a stable sort, in O(n + size) memory.
        order = np.argsort(data, kind="stable")
        ranked = data[order]
        totals = np.bincount(data, minlength=self.size)
        starts = np.cumsum(totals) - totals
        counts = np.empty(len(data), dtype=np.intp)
        counts[order] = np.arange(len(data)) - starts[ranked]
        a = self.smoothing
        return np.log((counts + a) / (np.arange(len(data)) + a * self.size))


class KTEstimator(_AddSmoothedCounts):
    """Krichevsky-Trofimov estimator: add-1/2 smoothing."""

    smoothing = 0.5


class LaplaceEstimator(_AddSmoothedCounts):
    """Laplace's rule of succession: add-1 smoothing."""

    smoothing = 1.0


class MarkovExpert(ForecastingSystem):
    """Fixed first-order Markov source: initial distribution plus a
    row-stochastic transition matrix indexed by the last symbol. A last
    symbol that is not an integer in 0..size-1 raises ValueError naming
    its position."""

    def __init__(self, initial, transition):
        init = np.asarray(initial, dtype=float)
        trans = np.asarray(transition, dtype=float)
        m = len(init)
        if trans.shape != (m, m):
            raise ValueError(f"transition matrix must be {m}x{m}, got {trans.shape}")
        if abs(init.sum() - 1.0) > 1e-9 or not np.all(init >= 0):
            raise ValueError("initial distribution must be normalized")
        if not np.all(trans >= 0) or np.any(np.abs(trans.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("transition rows must be normalized")
        self.size = m
        with np.errstate(divide="ignore"):
            self._log_init = np.log(init)
            self._log_trans = np.log(trans)

    def predict(self, history: Sequence[int]) -> np.ndarray:
        if len(history) == 0:
            return self._log_init
        return self._log_trans[_index(history[-1], len(history) - 1, self.size)]

    def forecasts(self) -> Iterator[np.ndarray]:
        x = yield self._log_init
        for i in count():
            x = yield self._log_trans[_index(x, i, self.size)]

    def window_forecasts(self) -> Generator[np.ndarray | None, np.ndarray, None]:
        head, xs = self._log_init, (yield)
        while True:
            rows = np.concatenate((head[None], self._log_trans[xs[:-1]]))
            head = self._log_trans[xs[-1]]
            xs = yield rows

    def realized(self, data: np.ndarray) -> np.ndarray:
        out = np.empty(len(data))
        out[:1] = self._log_init[data[:1]]
        out[1:] = self._log_trans[data[:-1], data[1:]]
        return out


class AdviceExpert(ForecastingSystem):
    """Expert backed by a precomputed per-step table of distributions.

    Row i is used to predict the outcome at position i regardless of the
    actual history; this is how external advice files are replayed.
    """

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 2:
            raise ValueError("advice table must be (steps, outcomes)")
        if not np.all(t >= 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-6):
            raise ValueError("advice rows must be normalized")
        self.size = t.shape[1]
        self._steps = t.shape[0]
        with np.errstate(divide="ignore"):
            self._logp = np.log(t)

    def _exhausted(self, i: int) -> ValueError:
        return ValueError(f"advice exhausted: step {i} beyond {self._steps} rows")

    def predict(self, history: Sequence[int]) -> np.ndarray:
        i = len(history)
        if i >= self._steps:
            raise self._exhausted(i)
        return self._logp[i]

    def forecasts(self) -> Iterator[np.ndarray]:
        # A for loop, not ``yield from``: an ndarray iterator has no send.
        for row in self._logp:
            yield row
        raise self._exhausted(self._steps)

    def window_forecasts(self) -> Generator[np.ndarray | None, np.ndarray, None]:
        t, xs = 0, (yield)
        while True:
            if t + len(xs) > self._steps:
                raise self._exhausted(self._steps)
            t += len(xs)
            xs = yield self._logp[t - len(xs):t]

    def realized(self, data: np.ndarray) -> np.ndarray:
        if len(data) > self._steps:
            raise self._exhausted(self._steps)
        return self._logp[np.arange(len(data)), data]


def make_builtin_expert(kind: str, **params) -> ForecastingSystem:
    """Construct a reference expert.

    kind: 'constant' (probs), 'kt' (size), 'laplace' (size),
    'markov' (initial, transition).
    """
    if kind == "constant":
        return ConstantExpert(params["probs"])
    if kind == "kt":
        return KTEstimator(int(params["size"]))
    if kind == "laplace":
        return LaplaceEstimator(int(params["size"]))
    if kind == "markov":
        return MarkovExpert(params["initial"], params["transition"])
    raise ValueError(f"unknown builtin expert kind {kind!r}")


def with_safe_expert(experts: Sequence[ForecastingSystem], alphabet_size: int) -> list[ForecastingSystem]:
    """Append the uniform safe expert used by the overconfident-experts model."""
    return list(experts) + [uniform_expert(alphabet_size)]


class ModelExpert(ForecastingSystem):
    """A fully configured prediction model wrapped as a single expert.

    The wrapper's prediction for any history equals the model's predictive
    distribution given that history. A stream advances one forward pass;
    ``predict`` replays the history through a fresh stream.
    """

    def __init__(self, model, experts: Sequence[ForecastingSystem]):
        from .forward import ForwardPass  # runtime import to avoid a cycle

        self._make_pass = lambda: ForwardPass(model, experts, keep_steps=False)
        self.size = _alphabet_size(experts)

    def predict(self, history: Sequence[int]) -> np.ndarray:
        stream = self.forecasts()
        forecast = next(stream)
        for x in history:
            forecast = stream.send(x)
        return forecast

    def forecasts(self) -> Iterator[np.ndarray]:
        fp = self._make_pass()
        while True:
            x = yield fp.predict_outcome()
            fp.advance(x)


def model_as_expert(model, experts: Sequence[ForecastingSystem]) -> ModelExpert:
    """Wrap a (model, experts) pair as a ForecastingSystem for recursive combination."""
    return ModelExpert(model, experts)
