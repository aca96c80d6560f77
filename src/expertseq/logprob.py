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
    """log-sum-exp of a flat array, safe for all entries being -inf."""
    a = np.asarray(arr, dtype=float)
    if a.size == 0:
        return NEG_INF
    m = float(a.max())
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.exp(a - m).sum()))


# The shift of an empty group: finite, so that -inf minus it stays -inf
# where -inf minus -inf would be nan.
_EMPTY_SHIFT = -np.finfo(float).max


def logsumexp_by(values: np.ndarray, groups: np.ndarray, size: int) -> np.ndarray:
    """Per-group log-sum-exp of a log-mass vector: entry g folds the values
    whose group is g, -inf for groups 0..size-1 with no finite value."""
    top = np.full(size, _EMPTY_SHIFT)
    np.maximum.at(top, groups, values)
    sums = np.bincount(groups, weights=np.exp(values - top[groups]), minlength=size)
    with np.errstate(divide="ignore"):
        return top + np.log(sums)


def logsumexp_columns(values: np.ndarray) -> np.ndarray:
    """Column-wise log-sum-exp of a 2-D log-mass array: entry j folds
    column j, -inf for a column with no finite value."""
    top = values.max(axis=0)
    np.maximum(top, _EMPTY_SHIFT, out=top)
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(values - top).sum(axis=0))


def log_normalize(arr) -> np.ndarray:
    """Shift a log-mass vector so it log-sums to 0 (a proper distribution)."""
    a = np.asarray(arr, dtype=float)
    total = logsumexp(a)
    if total == NEG_INF:
        raise ValueError("cannot normalize a vector of zero total mass")
    return a - total


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
