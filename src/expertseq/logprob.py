"""Log-domain probability arithmetic.

Every probability in this library is carried as a natural-log mass: a
``float`` that is at most 0, with ``-inf`` standing for probability zero.
Zero is a legal value everywhere (experts are allowed to assign it), never
an error. Conversion to bits happens only at reporting boundaries.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

# Type alias, purely documentary: a natural-log probability mass <= 0.
LogMass = float

NEG_INF = float("-inf")
LN2 = math.log(2.0)


def log_sum(a: LogMass, b: LogMass) -> LogMass:
    """log(exp(a) + exp(b)) via the max-plus-log1p trick; commutative.

    -inf is the additive identity, so log_sum(-inf, -inf) == -inf.
    """
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_sum_iter(values: Iterable[LogMass]) -> LogMass:
    """Fold log_sum over an iterable; the empty sum is probability zero."""
    total = NEG_INF
    for v in values:
        total = log_sum(total, v)
    return total


def logsumexp(arr) -> float:
    """log-sum-exp of a flat array: one ``np.logaddexp.reduce``, a left to
    right fold; -inf for an empty array or one of only -inf entries."""
    return float(np.logaddexp.reduce(np.asarray(arr, dtype=float)))


# The shift of an empty group: finite, so that -inf minus it stays -inf
# where -inf minus -inf would be nan.
_EMPTY_SHIFT = -np.finfo(float).max
_TINY = np.finfo(float).tiny


def logsumexp_by(values: np.ndarray, groups: np.ndarray, size: int) -> np.ndarray:
    """Per-group log-sum-exp of a log-mass vector: entry g folds the values
    whose group is g, -inf for groups 0..size-1 with no finite value.

    Every group is shifted by the global maximum and summed in one
    ``np.bincount``. A group whose sum is then zero or below the normal
    range (empty, all -inf, or far below the top) would lose its digits,
    so the call falls back to shifting each group by its own maximum.
    """
    top = values.max(initial=NEG_INF)
    if top > NEG_INF:
        sums = np.bincount(groups, weights=np.exp(values - top), minlength=size)
        if sums.min() >= _TINY:
            return top + np.log(sums)
    top = np.full(size, _EMPTY_SHIFT)
    np.maximum.at(top, groups, values)
    sums = np.bincount(groups, weights=np.exp(values - top[groups]), minlength=size)
    with np.errstate(divide="ignore"):
        return top + np.log(sums)


def to_bits(a: LogMass) -> float:
    """Code length in bits of a log mass; +inf for probability zero."""
    if a == 0.0:
        return 0.0
    return -a / LN2


def from_linear(p: float) -> LogMass:
    """Natural log of a linear probability; 0 maps to -inf."""
    if p < 0.0:
        raise ValueError(f"negative probability {p!r}")
    return math.log(p) if p > 0.0 else NEG_INF
