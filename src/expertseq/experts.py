"""Forecasting systems: the expert abstraction and built-in reference experts.

An expert maps an observation history (a sequence of outcome indices) to a
log-probability vector over the next outcome. Experts must be replayable
from scratch for any history, including histories they previously assigned
probability zero to; they may memoize internally but may be evaluated out
of order.

Every offline entry point (posterior, Viterbi, switch MAP, ML estimates,
bounds) reads the realized log-predictions from ``prediction_matrix``, so
each expert is asked exactly once per step, in order; the online
``ForwardPass`` asks each expert once per step as it advances. Symbols are
checked against the alphabet before any expert is asked, and a realized
log-probability that is NaN or positive is rejected with its step where a
matrix enters a computation: at ``ForwardPass`` construction in matrix mode
and in the shared offline check.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

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
    """

    size: int

    @abstractmethod
    def predict(self, history: Sequence[int]) -> np.ndarray:
        """Log-probability vector for the next outcome given the history."""


def _check_symbols(data: Sequence[int], size: int) -> None:
    for i, x in enumerate(data):
        if not 0 <= int(x) < size:
            raise ValueError(f"symbol {x!r} at position {i} is outside the alphabet")


def _realized_rows(experts: Sequence[ForecastingSystem], data: Sequence[int]):
    """Per step i, the list of log P_xi(x_i | x^{i-1}) over the experts.

    The only loop that replays ``predict(data[:i])``. Symbols are checked
    against the alphabet once, up front, before any expert is asked.
    """
    if experts:
        _check_symbols(data, experts[0].size)
    for i, x in enumerate(data):
        hist = data[:i]
        yield [e.predict(hist)[int(x)] for e in experts]


def sequential_log_loss(pfs: ForecastingSystem, data: Sequence[int]) -> LogMass:
    """Chain-rule log mass the expert assigns to the whole sequence.

    Returns sum_i log P(x_i | x^{i-1}); -inf as soon as any factor is zero,
    without asking the expert about any later history.
    """
    total = 0.0
    for (v,) in _realized_rows([pfs], data):
        total += float(v)
        if total == NEG_INF:
            return NEG_INF
    return total


def prediction_matrix(experts: Sequence[ForecastingSystem], data: Sequence[int]) -> np.ndarray:
    """(n, k) matrix of log P_xi(x_i | x^{i-1}) for the realized outcomes."""
    rows = list(_realized_rows(experts, data))
    return np.array(rows, dtype=float).reshape(len(data), len(experts))


def _check_logpreds(lp: np.ndarray) -> np.ndarray:
    """Rejects a realized log-probability that is NaN or positive beyond
    1e-9, naming its 1-based step; returns ``lp`` unchanged."""
    bad = np.argwhere(~(lp <= 1e-9))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"realized log-probability {float(lp[i, j])} of expert {j} "
                         f"at step {i + 1} is NaN or positive")
    return lp


def _realized_matrix(experts, data: Sequence[int], logpred_matrix, k: int) -> np.ndarray:
    """The validated (n, k) realized log-predictions of an offline run,
    from exactly one of ``experts`` (asked once per step) or a given matrix
    with k columns and at least n rows."""
    if (experts is None) == (logpred_matrix is None):
        raise ValueError("provide either experts or a logpred matrix")
    if experts is not None:
        if len(experts) != k:
            raise ValueError(f"model labels {k} experts, got {len(experts)}")
        return _check_logpreds(prediction_matrix(experts, data))
    lp = np.asarray(logpred_matrix, dtype=float)
    if lp.ndim != 2 or lp.shape[1] != k:
        raise ValueError(f"logpred matrix must be (n, {k}), got shape {lp.shape}")
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


def uniform_expert(size: int) -> ConstantExpert:
    return ConstantExpert(np.full(size, 1.0 / size))


class _AddSmoothedCounts(ForecastingSystem):
    """Dirichlet-smoothed relative frequencies: (count + a) / (n + a * size)."""

    smoothing: float

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("alphabet size must be >= 1")
        self.size = size

    def predict(self, history: Sequence[int]) -> np.ndarray:
        counts = np.bincount(np.asarray(history, dtype=np.intp), minlength=self.size)
        if len(counts) > self.size:
            raise ValueError(f"history holds a symbol outside the alphabet of size {self.size}")
        a = self.smoothing
        return np.log((counts + a) / (len(history) + a * self.size))


class KTEstimator(_AddSmoothedCounts):
    """Krichevsky-Trofimov estimator: add-1/2 smoothing."""

    smoothing = 0.5


class LaplaceEstimator(_AddSmoothedCounts):
    """Laplace's rule of succession: add-1 smoothing."""

    smoothing = 1.0


class MarkovExpert(ForecastingSystem):
    """Fixed first-order Markov source: initial distribution plus a
    row-stochastic transition matrix indexed by the last symbol."""

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
        return self._log_trans[history[-1]]


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

    def predict(self, history: Sequence[int]) -> np.ndarray:
        i = len(history)
        if i >= self._steps:
            raise ValueError(f"advice exhausted: step {i} beyond {self._steps} rows")
        return self._logp[i]


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
    distribution given that history. Consecutive calls on growing histories
    reuse the forward state; any other history is replayed from scratch.
    """

    def __init__(self, model, experts: Sequence[ForecastingSystem]):
        from .forward import ForwardPass  # runtime import to avoid a cycle

        self._make_pass = lambda: ForwardPass(model, experts)
        self.size = experts[0].size
        self._pass = self._make_pass()

    def predict(self, history: Sequence[int]) -> np.ndarray:
        hist = list(history)
        consumed = self._pass.history
        if not (len(consumed) <= len(hist) and hist[: len(consumed)] == consumed):
            self._pass = self._make_pass()
            consumed = []
        for x in hist[len(consumed):]:
            self._pass.advance(x)
        return self._pass.predict_outcome()


def model_as_expert(model, experts: Sequence[ForecastingSystem]) -> ModelExpert:
    """Wrap a (model, experts) pair as a ForecastingSystem for recursive combination."""
    return ModelExpert(model, experts)
