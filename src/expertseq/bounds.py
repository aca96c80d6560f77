"""Worst-case loss-overhead formulas and the harness that checks them.

All bounds are reported in bits. The measurement side pairs a model's
forward marginal with an independent comparator: the best single expert,
the best segmentation of the data into expert blocks (found by exact
dynamic programming over block structures), or the best parameter on a
grid. Measured overhead never exceeds the bound for the formulas the
theory pins down exactly; the universal-mixture constant is reported, not
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .logprob import LN2, NEG_INF, LogMass, to_bits

LOG2_PI = math.log2(math.pi)


# ---------------------------------------------------------------------------
# Entropies and combinatorial helpers
# ---------------------------------------------------------------------------

def cross_entropy_bits(a_star: float, a: float) -> float:
    """H(a*, a) = -a* log2 a - (1-a*) log2(1-a); +inf when undefined."""
    if not 0.0 <= a_star <= 1.0:
        raise ValueError("a_star must be a probability")
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must be a probability")
    total = 0.0
    if a_star > 0.0:
        if a == 0.0:
            return math.inf
        total -= a_star * math.log2(a)
    if a_star < 1.0:
        if a == 1.0:
            return math.inf
        total -= (1.0 - a_star) * math.log2(1.0 - a)
    return total


def log2_factorial(m: int) -> float:
    return math.lgamma(m + 1) / LN2


def log2_binomial(n: int, m: int) -> float:
    if not 0 <= m <= n:
        raise ValueError(f"binomial out of range: ({n}, {m})")
    return (math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)) / LN2


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def bayes_bound(w, xi: int) -> float:
    """Overhead of the Bayes mixture against expert xi: -log2 w(xi)."""
    p = float(np.asarray(w, dtype=float)[xi])
    return math.inf if p == 0.0 else -math.log2(p)


def fixed_share_bound(n: int, m: int, k: int, alpha: float, alpha_star: float) -> float:
    """n H(alpha*, alpha) + m log2 k against the best m-block segmentation."""
    return n * cross_entropy_bits(alpha_star, alpha) + m * math.log2(k)


def universal_share_bound(n: int) -> float:
    """Cost of learning the switching rate: 1 + (1/2) log2 n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 + 0.5 * math.log2(n)


def unimix_bound(k: int, n: int, c: float) -> float:
    """((k-1)/2) log2(n / pi) + c against the best fixed mixture weights.

    The additive constant is not pinned by the theory; callers supply it
    and reports flag it as fitted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.5 * (k - 1) * (math.log2(n) - LOG2_PI) + c


def switch_bound(m: int, t_m: int, k: int) -> float:
    """m + m log2 k + log2 C(t_m + 1, m) + log2 m! for the switch model
    against the best m-block switch parameter with last switch at t_m."""
    if m < 1 or t_m < m - 1:
        raise ValueError("need m >= 1 and t_m >= m - 1")
    return m + m * math.log2(k) + log2_binomial(t_m + 1, m) + log2_factorial(m)


def run_length_bound(n: int, m: int, k: int) -> float:
    """m (log2 k + log2(n/m) + 2 log2 log2(n/m + 1) + 3) for the run-length
    model with a law whose code lengths are within the stated envelope."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    ratio = n / m
    return m * (math.log2(k) + math.log2(ratio) + 2.0 * math.log2(math.log2(ratio + 1.0)) + 3.0)


def overconfident_bound(w_best: float, n: int, alpha: float, alpha_star: float) -> float:
    """-log2 w(best expert) + n H(alpha*, alpha) against the best
    single-expert-plus-safe-expert sequence with wild frequency alpha*."""
    if w_best <= 0.0:
        return math.inf
    return -math.log2(w_best) + n * cross_entropy_bits(alpha_star, alpha)


@dataclass
class BoundComparison:
    switch_bits: float
    run_length_bits: float

    @property
    def lower(self) -> str:
        return "switch" if self.switch_bits <= self.run_length_bits else "run-length"


def compare_switch_vs_runlength(n: int, m: int, k: int = 2) -> BoundComparison:
    """Evaluate both switching bounds with the last switch pushed to the
    horizon (t_m + 1 = n) and report which is lower."""
    return BoundComparison(switch_bound(m, n - 1, k), run_length_bound(n, m, k))


def switch_runlength_crossover(n: int, k: int = 2) -> int | None:
    """Smallest m at which the run-length bound drops below the switch
    bound, located by bisection; None if no crossover in [1, n]."""
    def switch_is_lower(m: int) -> bool:
        return compare_switch_vs_runlength(n, m, k).lower == "switch"

    lo, hi = 1, n
    if not switch_is_lower(lo):
        return lo
    if switch_is_lower(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if switch_is_lower(mid):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# Comparators: exact segmentation optima by dynamic programming
# ---------------------------------------------------------------------------

@dataclass
class Segmentation:
    """Best expert sequence with a constrained number of maximal blocks;
    ``last_change``, recorded with it, is the last change point or 0."""

    log_likelihood: LogMass
    sequence: list[int]
    last_change: int = field(compare=False)

    @property
    def blocks(self) -> int:
        if not self.sequence:
            return 0
        return 1 + sum(1 for a, b in zip(self.sequence, self.sequence[1:]) if a != b)

    @property
    def change_points(self) -> list[int]:
        """1-based times t at which a new block starts at position t + 1."""
        return [i for i in range(1, len(self.sequence))
                if self.sequence[i] != self.sequence[i - 1]]


def best_segmentations(lp: np.ndarray, max_blocks: int) -> list[Segmentation | None]:
    """For each m = 1..max_blocks the highest-likelihood expert sequence
    with exactly m maximal blocks (adjacent blocks differ); None where no
    such sequence exists. lp is the (n, k) realized log-prediction matrix.

    Independent of any HMM: one segmentation table swept once over the
    positions, each step vectorised over the block count and the expert.
    A cell adds the position's log-prediction to the better of continuing
    its block and switching from another expert one block count lower.
    Ties are broken the same way everywhere: continuing wins a tie, a
    switch must be strictly better, and the lowest expert index wins among
    equal switches and in the final choice of the last expert. The
    backtrack meets each sequence's last change point first.
    """
    n, k = lp.shape
    if n < 1:
        raise ValueError("need data")
    rows = np.arange(min(max_blocks, n))
    other = ~np.eye(k, dtype=bool)
    # val[j, x]: best loglik so far with j+1 blocks, the last one using x.
    # par[i, j, x]: the expert switched from when a block starts at i, else -1.
    val = np.full((len(rows), k), NEG_INF)
    val[:1] = lp[0]
    par = np.full((n, len(rows), k), -1, dtype=np.min_scalar_type(-k))
    for i in range(1, n):
        # cand[j, x, y]: switching into x from y, one block fewer than row j + 1;
        # argmax takes the lowest y among equal switches.
        cand = np.where(other, val[:-1, None, :], NEG_INF)
        sw = cand.max(axis=2)
        switch = sw > val[1:]
        val[1:] = np.where(switch, sw, val[1:])
        par[i, 1:] = np.where(switch, cand.argmax(axis=2), -1)
        val += lp[i]
    x = val.argmax(axis=1)
    best = val[rows, x]
    seqs = np.empty((len(rows), n), dtype=par.dtype)
    last = np.zeros(len(rows), dtype=int)
    j = rows
    for i in range(n - 1, -1, -1):
        seqs[:, i] = x
        a = par[i, j, x]
        last[(a >= 0) & (last == 0)] = i
        x, j = np.where(a >= 0, a, x), j - (a >= 0)
    return [None if best[m] == NEG_INF else Segmentation(best[m], seqs[m].tolist(), int(last[m]))
            for m in rows]


# ---------------------------------------------------------------------------
# Grid oracles, independent of the HMM machinery
# ---------------------------------------------------------------------------

def fixed_share_grid_marginals(lp: np.ndarray, w, alphas) -> np.ndarray:
    """log marginal of the fixed-share predictor for every switching rate
    in ``alphas``, by the classic normalized weight recursion."""
    lp = np.asarray(lp, dtype=float)
    n, k = lp.shape
    w = np.asarray(w, dtype=float)
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 1)
    u = np.tile(w, (len(alphas), 1))
    total = np.zeros(len(alphas))
    for i in range(n):
        mx = np.max(lp[i])
        if mx == NEG_INF:
            return np.full(len(alphas), NEG_INF)
        probs = np.exp(lp[i] - mx)
        s = u @ probs
        with np.errstate(divide="ignore"):
            total += mx + np.log(s)
        post = u * probs[None, :]
        norm = post.sum(axis=1, keepdims=True)
        np.divide(post, norm, out=post, where=norm > 0)
        u = (1.0 - alphas) * post + alphas * w[None, :]
    return total


def elementwise_mixture_grid_marginals(lp: np.ndarray, weight_rows: np.ndarray) -> np.ndarray:
    """log marginal of the fixed elementwise mixture for every weight
    vector in ``weight_rows`` (G, k)."""
    lp = np.asarray(lp, dtype=float)
    rows = np.asarray(weight_rows, dtype=float)
    total = np.zeros(len(rows))
    for i in range(len(lp)):
        mx = np.max(lp[i])
        if mx == NEG_INF:
            return np.full(len(rows), NEG_INF)
        with np.errstate(divide="ignore"):
            total += mx + np.log(rows @ np.exp(lp[i] - mx))
    return total


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    model: str
    comparator: str
    measured_bits: float
    bound_bits: float
    inputs: dict = field(default_factory=dict)
    note: str = ""

    @property
    def satisfied(self) -> bool:
        return bool(self.measured_bits <= self.bound_bits + 1e-6)


def measure_bayes(log_marginal: LogMass, lp: np.ndarray, w) -> BoundReport:
    """Overhead of the Bayes marginal against the best single expert."""
    likes = np.asarray(lp, dtype=float).sum(axis=0)
    best = int(np.argmax(likes))
    measured = to_bits(log_marginal) - to_bits(float(likes[best]))
    return BoundReport("bayes", "best single expert", measured,
                       bayes_bound(w, best), {"expert": best, "n": lp.shape[0]})


def measure_fixed_share(fs_log_marginal_at, lp: np.ndarray, k: int,
                        max_blocks: int | None = None) -> Iterator[BoundReport]:
    """Per block count m: run fixed share at the empirical rate
    alpha* = (m-1)/(n-1) and compare with the best m-block segmentation.

    ``fs_log_marginal_at`` maps a switching rate to the model's log
    marginal on the same data. Reports are yielded in order of m, and each
    marginal is computed only when its report is asked for, so a caller
    that stops after a few block counts runs no further passes. With
    ``max_blocks`` only block counts m <= max_blocks are reported, from a
    segmentation table of that many rows.
    """
    n = lp.shape[0]
    segs = best_segmentations(lp, n if max_blocks is None else max_blocks)
    for m, seg in enumerate(segs, start=1):
        if seg is None:
            continue
        alpha_star = 0.0 if n == 1 else (m - 1) / (n - 1)
        measured = to_bits(fs_log_marginal_at(alpha_star)) - to_bits(seg.log_likelihood)
        bound = fixed_share_bound(n, m, k, alpha_star, alpha_star)
        yield BoundReport(
            "fixed-share", f"best {m}-block segmentation", measured, bound,
            {"n": n, "m": m, "k": k, "alpha": alpha_star, "alpha_star": alpha_star})


def measure_universal_share(us_log_marginal: LogMass, lp: np.ndarray, w,
                            grid: int = 1024) -> BoundReport:
    """Overhead against the best fixed switching rate on a uniform grid."""
    n = lp.shape[0]
    alphas = np.linspace(0.0, 1.0, grid)
    best = float(np.max(fixed_share_grid_marginals(lp, w, alphas)))
    measured = to_bits(us_log_marginal) - to_bits(best)
    return BoundReport("universal-share", f"best fixed share on {grid}-point grid",
                       measured, universal_share_bound(n), {"n": n, "grid": grid})


def measure_switch(sw_log_marginal: LogMass, lp: np.ndarray, k: int,
                   max_blocks: int | None = None) -> Iterator[BoundReport]:
    """Per parameter length m: compare against the best switch parameter of
    that length (equivalently, the best sequence with at most m maximal
    blocks, padded with reflexive switches).

    One segmentation table, built when the first report is asked for,
    serves every m. The running best over block counts replaces its
    sequence only on a strictly higher likelihood, so ties keep fewer
    blocks. Row m has exactly m blocks and records its last change point,
    so no sequence is scanned. Within one block count the table's tie
    rules apply (continuing a block beats an equal switch, the lowest
    expert index wins among equals). Reports are yielded in order of m,
    skipping each m for which every sequence of at most m blocks has zero
    likelihood; with ``max_blocks`` only m <= max_blocks are reported.

    Raises ValueError, naming the step, when every segmentation has zero
    likelihood because every expert gives the outcome probability zero.
    """
    n = lp.shape[0]
    dead = np.flatnonzero((lp == NEG_INF).all(axis=1))
    if len(dead):
        raise ValueError(f"every segmentation has zero likelihood: every expert gives "
                         f"the outcome at step {dead[0] + 1} probability zero")
    seg = None
    segs = best_segmentations(lp, n if max_blocks is None else max_blocks)
    for m, s in enumerate(segs, start=1):
        if s is not None and (seg is None or s.log_likelihood > seg.log_likelihood):
            seg, blocks = s, m
        if seg is None:
            continue
        measured = to_bits(sw_log_marginal) - to_bits(seg.log_likelihood)
        t_m = seg.last_change + (m - blocks)  # pad unused switches reflexively
        bound = switch_bound(m, t_m, k)
        yield BoundReport(
            "switch", f"best length-{m} switch parameter", measured, bound,
            {"n": n, "m": m, "t_m": t_m, "k": k})


def measure_run_length(rl_log_marginal: LogMass, lp: np.ndarray, k: int,
                       max_blocks: int | None = None) -> Iterator[BoundReport]:
    """Per block count m: compare against the best sequence with exactly m
    maximal blocks. Reports are yielded in order of m, from one
    segmentation table built when the first report is asked for; with
    ``max_blocks`` only m <= max_blocks are reported."""
    n = lp.shape[0]
    segs = best_segmentations(lp, n if max_blocks is None else max_blocks)
    for m, seg in enumerate(segs, start=1):
        if seg is None:
            continue
        measured = to_bits(rl_log_marginal) - to_bits(seg.log_likelihood)
        yield BoundReport(
            "run-length", f"best {m}-block segmentation", measured,
            run_length_bound(n, m, k), {"n": n, "m": m, "k": k})


def measure_unimix(um_log_marginal: LogMass, lp: np.ndarray, c: float = 1.1,
                   grid: int = 4096) -> BoundReport:
    """Overhead against the best fixed two-expert mixture weight on a grid.

    The additive constant defaults to an empirically fitted 1.1 and the
    report says so; it is never asserted.
    """
    n, k = lp.shape
    if k != 2:
        raise ValueError("the mixture-weight grid oracle is limited to two experts")
    a = np.linspace(0.0, 1.0, grid)
    rows = np.stack([a, 1.0 - a], axis=1)
    best = float(np.max(elementwise_mixture_grid_marginals(lp, rows)))
    measured = to_bits(um_log_marginal) - to_bits(best)
    return BoundReport("universal-elementwise", f"best fixed mixture on {grid}-point grid",
                       measured, unimix_bound(k, n, c), {"n": n, "k": k, "c": c},
                       note="additive constant c fitted empirically, not asserted")
