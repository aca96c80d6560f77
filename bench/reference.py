"""Reference computations for the benchmark's output checks.

Every function here is written from the model definitions (the state
diagrams in ``expertseq.models``) as a recursion over small dense arrays,
in linear scale with one normalisation per step. None of them calls
``expertseq.hmm``, ``expertseq.forward`` or ``expertseq.switch_map``, so
an agreement between the program and these functions is evidence that
both are right.

Inputs are realized log-prediction matrices ``lp`` of shape (n, k) with
``lp[i, j] = log P_j(x_i | x^{i-1})``. The marginal functions return the
per-step log conditionals ``log P(x_i | x^{i-1})`` as an array of length
n; their sum is the log marginal of the data. Posterior functions return
the (n, k) grid of linear expert probabilities ``P(xi_i = j | x^n)``.
"""

from __future__ import annotations

import numpy as np


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def _likelihood(row: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(row - max) and the max, so products never underflow."""
    mx = float(np.max(row))
    return np.exp(row - mx), mx


# ---------------------------------------------------------------------------
# Expert prediction rows, (n, |alphabet|) log probabilities per expert
# ---------------------------------------------------------------------------

def smoothed_rows(data, size: int, a: float) -> np.ndarray:
    """(count + a) / (i + a * size) from running counts; a = 1/2 is KT and
    a = 1 is Laplace."""
    data = np.asarray(data, dtype=int)
    n = len(data)
    onehot = np.zeros((n, size))
    onehot[np.arange(n), data] = 1.0
    counts = np.vstack([np.zeros((1, size)), np.cumsum(onehot, axis=0)[:-1]])
    return np.log((counts + a) / (np.arange(n)[:, None] + a * size))


def markov_rows(data, initial, transition) -> np.ndarray:
    data = np.asarray(data, dtype=int)
    rows = np.empty((len(data), len(initial)))
    rows[0] = np.log(initial)
    rows[1:] = np.log(np.asarray(transition, dtype=float))[data[:-1]]
    return rows


def expert_rows(spec: tuple, data, size: int) -> np.ndarray:
    """Prediction rows of one expert described as ``("const", probs)``,
    ``("kt",)``, ``("laplace",)`` or ``("markov", initial, transition)``."""
    kind = spec[0]
    if kind == "const":
        return np.tile(np.log(np.asarray(spec[1], dtype=float)), (len(data), 1))
    if kind == "kt":
        return smoothed_rows(data, size, 0.5)
    if kind == "laplace":
        return smoothed_rows(data, size, 1.0)
    if kind == "markov":
        return markov_rows(data, spec[1], spec[2])
    raise ValueError(f"unknown expert spec {spec!r}")


def realized(specs, data, size: int) -> np.ndarray:
    """(n, k) matrix of the log probability each expert gave the outcome."""
    idx = np.arange(len(data))
    data = np.asarray(data, dtype=int)
    return np.stack([expert_rows(s, data, size)[idx, data] for s in specs], axis=1)


# ---------------------------------------------------------------------------
# Switch-time laws, as hazards P(Z = d | Z >= d) for d = 1, 2, ...
# ---------------------------------------------------------------------------

def inv_poly_hazard(d: np.ndarray) -> np.ndarray:
    """pi(d) = 1/(d(d+1)) has tail 1/d, so the hazard is 1/(d+1)."""
    return 1.0 / (np.asarray(d, dtype=float) + 1.0)


def elias_delta_hazard(max_d: int):
    """Hazard of pi(d) = 2^-len(d), len the Elias delta code length. The
    masses are dyadic, so the tail sums below are exact in doubles."""
    d = np.arange(1, max_d + 1)
    low = np.array([int(x).bit_length() - 1 for x in d])
    length = low + 2 * np.array([int(x + 1).bit_length() - 1 for x in low]) + 1
    pmf = 2.0 ** (-length.astype(float))
    tail = 1.0 - np.concatenate([[0.0], np.cumsum(pmf)[:-1]])
    table = pmf / tail

    def hazard(dd):
        return table[np.asarray(dd, dtype=int) - 1]
    return hazard


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

def bayes(lp: np.ndarray, w) -> np.ndarray:
    """log sum_j w_j prod_{t<=i} P_j(x_t), differenced over prefixes."""
    prefix = _lse(np.log(np.asarray(w, dtype=float))[None, :] + np.cumsum(lp, axis=0), axis=1)
    return np.diff(np.concatenate([[0.0], prefix]))


def fixed_elementwise(lp: np.ndarray, alpha) -> np.ndarray:
    """The expert is redrawn i.i.d. from alpha at every step."""
    return _lse(np.log(np.asarray(alpha, dtype=float))[None, :] + lp, axis=1)


def overconfident(lp: np.ndarray, w, alpha: float, size: int) -> np.ndarray:
    """Bayes over experts whose every step is, with probability alpha,
    replaced by the uniform forecast. ``lp`` excludes the safe expert."""
    wild = np.logaddexp(np.log1p(-alpha) + lp, np.log(alpha / size))
    return bayes(wild, w)


def fixed_share(lp: np.ndarray, w, alpha: float, keep: bool = False):
    """Normalised weight recursion: u <- (1 - alpha) posterior + alpha w.
    With ``keep`` also returns the filtered weights after each step."""
    w = np.asarray(w, dtype=float)
    u = w.copy()
    conds = np.empty(len(lp))
    filtered = []
    for i, row in enumerate(lp):
        lik, mx = _likelihood(row)
        post = u * lik
        s = post.sum()
        conds[i] = mx + np.log(s)
        post /= s
        if keep:
            filtered.append(post)
        u = (1.0 - alpha) * post + alpha * w
    return (conds, filtered) if keep else conds


def fixed_share_posterior(lp: np.ndarray, w, alpha: float) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    _, filtered = fixed_share(lp, w, alpha, keep=True)
    n = len(lp)
    grid = np.empty((n, len(w)))
    beta = np.ones(len(w))
    grid[n - 1] = filtered[n - 1]
    for t in range(n - 2, -1, -1):
        lik, _ = _likelihood(lp[t + 1])
        v = lik * beta
        beta = (1.0 - alpha) * v + alpha * float(w @ v)
        beta /= beta.max()
        g = filtered[t] * beta
        grid[t] = g / g.sum()
    return grid


def switch(lp: np.ndarray, w, theta: float, hazard) -> np.ndarray:
    """Arrays over (expert, band). The unstable band U leaves through the
    hub with hazard h(t) at sample size t; the hub re-enters U with theta
    or the stable band S with 1 - theta, drawing the expert from w."""
    w = np.asarray(w, dtype=float)
    u = theta * w
    s_band = (1.0 - theta) * w
    conds = np.empty(len(lp))
    for i, row in enumerate(lp):
        lik, mx = _likelihood(row)
        u = u * lik
        s_band = s_band * lik
        total = u.sum() + s_band.sum()
        conds[i] = mx + np.log(total)
        u /= total
        s_band /= total
        h = float(hazard(i + 1))
        hub = h * u.sum()
        u = (1.0 - h) * u + hub * theta * w
        s_band = s_band + hub * (1.0 - theta) * w
    return conds


def run_length(lp: np.ndarray, w, hazard, keep: bool = False):
    """Arrays over (expert, run start m). At level t a block started at m
    ends with hazard h(t - m) and the hub starts a new block at t."""
    w = np.asarray(w, dtype=float)
    n, k = lp.shape
    e = np.zeros((k, n + 1))
    e[:, 0] = w
    conds = np.empty(n)
    filtered = []
    for i, row in enumerate(lp):
        t = i + 1
        lik, mx = _likelihood(row)
        live = e[:, :t] * lik[:, None]
        total = live.sum()
        conds[i] = mx + np.log(total)
        live /= total
        if keep:
            filtered.append(live.copy())
        h = hazard(t - np.arange(t))
        e[:, :t] = live * (1.0 - h)
        e[:, t] = float((live * h).sum()) * w
    return (conds, filtered) if keep else conds


def run_length_posterior(lp: np.ndarray, w, hazard) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    _, filtered = run_length(lp, w, hazard, keep=True)
    n, k = lp.shape
    grid = np.empty((n, k))
    beta = np.ones((k, n))
    g = filtered[n - 1].sum(axis=1)
    grid[n - 1] = g / g.sum()
    for t in range(n - 1, 0, -1):
        # beta over the productive states of level t, run starts m < t.
        lik, _ = _likelihood(lp[t])
        h = hazard(t - np.arange(t))
        restart = float(w @ (lik * beta[:, t]))
        beta = (1.0 - h)[None, :] * lik[:, None] * beta[:, :t] + h[None, :] * restart
        beta /= beta.max()
        g = (filtered[t - 1] * beta).sum(axis=1)
        grid[t - 1] = g / g.sum()
    return grid


def universal_share(lp: np.ndarray, w) -> np.ndarray:
    """Arrays over (expert, switch count m). At level t the run switches
    with (m + 1/2) / t, which moves its mass to count m + 1 and redraws
    the expert from w; it stays with (t - m - 1/2) / t."""
    w = np.asarray(w, dtype=float)
    n, k = lp.shape
    e = np.zeros((k, n + 1))
    e[:, 0] = w
    conds = np.empty(n)
    for i, row in enumerate(lp):
        t = i + 1
        lik, mx = _likelihood(row)
        live = e[:, :t] * lik[:, None]
        total = live.sum()
        conds[i] = mx + np.log(total)
        live /= total
        m = np.arange(t)
        moved = (live * ((m + 0.5) / t)).sum(axis=0)
        e[:, :t] = live * ((t - m - 0.5) / t)
        e[:, 1:t + 1] += w[:, None] * moved[None, :]
    return conds


def universal_elementwise2(lp: np.ndarray) -> np.ndarray:
    """Two experts whose mixture weight is learned under a Jeffreys prior:
    the state is the count c of past draws of expert 0, and expert j is
    drawn next with (1/2 + c_j) / (1 + t)."""
    n = len(lp)
    counts = np.zeros(n + 1)
    counts[0] = 1.0
    conds = np.empty(n)
    for t, row in enumerate(lp):
        lik, mx = _likelihood(row)
        c = np.arange(t + 1)
        draw0 = counts[:t + 1] * ((0.5 + c) / (1.0 + t)) * lik[0]
        draw1 = counts[:t + 1] * ((0.5 + t - c) / (1.0 + t)) * lik[1]
        total = draw0.sum() + draw1.sum()
        conds[t] = mx + np.log(total)
        counts = np.zeros(n + 1)
        counts[1:t + 2] += draw0 / total
        counts[:t + 1] += draw1 / total
    return conds


def masked(lp: np.ndarray, labels) -> np.ndarray:
    """Keep only expert ``labels[i]`` at step i, so a marginal over the
    masked matrix is the joint P(x^n, xi^n = labels)."""
    out = np.full_like(lp, -np.inf)
    idx = np.arange(len(lp))
    labels = np.asarray(labels, dtype=int)
    out[idx, labels] = lp[idx, labels]
    return out
