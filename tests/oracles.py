"""Independent oracles and random instance generators shared by the tests.

Everything here deliberately avoids the forward-pass code path it is used
to check: joint tables are built from the prior enumerator plus chain-rule
likelihood products, and the run-length and switch prior oracles enumerate
switch subsets directly. Silent-state elimination rewrites a model into an
equivalent one with fewer silent states, a check on the reduction
identities. ``region_posterior`` is the smoothed posterior's definition on
the tuple interface: the reverse replay of the silent regions that
propagate_frontier records, against which both backward sweeps of the
package, by slot through compiled plans and ``pull_arcs`` through level
arcs, are tested, and the blocked scan of stationary models within
``assert_posterior_close``'s tolerance.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

import expertseq as es
from expertseq.bounds import Segmentation
from expertseq.hmm import propagate_frontier
from expertseq.models import FixedShare
from expertseq.logprob import NEG_INF, from_linear

ZOO_NAMES = (
    "bayes",
    "fixed_elementwise",
    "universal_elementwise",
    "fixed_share",
    "universal_share",
    "overconfident",
    "switch",
    "run_length",
)


class TupleOnly(es.HmmModel):
    """Delegates a model's tuple interface and hides its level arcs, so a
    ForwardPass runs the same model through propagate_frontier."""

    def __init__(self, inner):
        self.inner = inner
        self.num_experts = inner.num_experts
        self.silent_depth_bound = inner.silent_depth_bound
        self.unambiguous = inner.unambiguous
        self.productive_tags = inner.productive_tags

    def initial(self):
        return self.inner.initial()

    def successors(self, state):
        return self.inner.successors(state)

    def label(self, state):
        return self.inner.label(state)


class LateShare(FixedShare):
    """Fixed share whose initial mass sits on expert 0 of stratum 1, so
    the routes from stratum 1's one state reach every expert: its table
    is not closed, and no scan takes it."""

    def initial(self):
        return [(("e", 1, 0), 0.0)]


class Counting(es.ForecastingSystem):
    """An expert whose stream counts the forecasts it gives and keeps the
    outcomes it is sent."""

    def __init__(self, inner):
        self.inner, self.size = inner, inner.size
        self.rows, self.sent = 0, []

    def predict(self, history):
        return self.inner.predict(history)

    def forecasts(self):
        stream = self.inner.forecasts()
        row = next(stream)
        while True:
            self.rows += 1
            x = yield row
            self.sent.append(x)
            row = stream.send(x)


def region_posterior(model, lp):
    """``posterior_experts`` on the tuple interface alone, from the (n, k)
    realized log-predictions ``lp``: a forward pass records each level's
    silent region as propagate_frontier processes it and a copy of the
    post-update map, and the backward sweep replays the regions in reverse
    topological order, beta held by state. Folds in the same order as the
    package, so the grid agrees to the last bit; raises ZeroMarginalError
    where posterior_experts does."""
    n, k = len(lp), model.num_experts
    label = model.label
    frontier = dict(model.initial())
    regions, posts = [], []
    for i in range(n):
        region, lp_row = [], lp[i].tolist()
        pre = propagate_frontier(model, frontier, i + 1, record=region)[0]
        frontier = {}
        for q, v in pre.items():
            m = v + lp_row[label(q)]
            if m != NEG_INF:
                frontier[q] = m
        if not frontier:
            raise es.ZeroMarginalError(i + 1)
        regions.append(region)
        posts.append(frontier)

    grid = np.full((n, k), NEG_INF)
    beta = dict.fromkeys(frontier, 0.0)
    for i in range(n, 0, -1):
        row = [NEG_INF] * k
        for q, f in posts[i - 1].items():
            b = beta.get(q, NEG_INF)
            if b != NEG_INF:
                row[label(q)] = es.log_sum(row[label(q)], f + b)
        grid[i - 1] = row
        if i == 1:
            break
        lp_row = lp[i - 1].tolist()
        node_beta = {q: b + lp_row[label(q)] for q, b in beta.items()}
        beta = {}
        for u, succ in reversed(regions[i - 1]):
            b = es.log_sum_iter([w + node_beta[v] for v, w in succ
                                 if node_beta.get(v, NEG_INF) != NEG_INF])
            node_beta[u] = b
            if model.is_productive(u) and model.level(u) == i - 1:
                beta[u] = b
    totals = np.logaddexp.reduce(grid, axis=1)
    zero = np.flatnonzero(totals == NEG_INF)
    if len(zero):
        raise es.ZeroMarginalError(int(zero[-1]) + 1)
    return grid - totals[:, None]


def posterior_or_step(fn, *args, **kwargs):
    """A posterior grid, or the step of the ZeroMarginalError that stopped it."""
    try:
        return fn(*args, **kwargs)
    except es.ZeroMarginalError as e:
        return e.step


def assert_posterior_close(fast, ref, rel=1e-12):
    """Two results of ``posterior_or_step``: the same step, or grids with
    the same -inf entries whose finite entries agree within
    ``rel * max(1, |v|)`` of the reference's v."""
    if isinstance(fast, int) or isinstance(ref, int):
        assert fast == ref
        return
    assert fast.shape == ref.shape
    assert np.array_equal(fast == NEG_INF, ref == NEG_INF)
    live = ref > NEG_INF
    assert np.all(np.abs(fast[live] - ref[live]) <= rel * np.maximum(1.0, np.abs(ref[live])))


def iter_sequence_priors(model, n):
    """Yield (label sequence, log prior) for every length-n sequence of
    positive prior mass, sharing prefix work across the k^n sequences."""

    def rec(frontier, depth, prefix):
        stratum, _, _ = propagate_frontier(model, frontier, depth + 1)
        by_label = {}
        for q, v in stratum.items():
            by_label.setdefault(model.label(q), {})[q] = v
        for lab in sorted(by_label):
            sub = by_label[lab]
            if depth + 1 == n:
                yield prefix + (lab,), es.log_sum_iter(sub.values())
            else:
                yield from rec(sub, depth + 1, prefix + (lab,))

    if n == 0:
        yield (), 0.0
        return
    yield from rec(dict(model.initial()), 0, ())


class _SilentElimination(es.HmmModel):
    """View of a model with one silent state spliced out.

    Every predecessor arc into the removed state is replaced by composed
    arcs to the removed state's successors; parallel arcs are merged. The
    induced distribution on expert sequences is unchanged.
    """

    def __init__(self, base, state):
        self._base = base
        self._gone = state
        self._bridge = base.successors(state)
        self.num_experts = base.num_experts
        self.silent_depth_bound = base.silent_depth_bound
        self.unambiguous = base.unambiguous
        self.productive_tags = base.productive_tags

    def initial(self):
        return self._base.initial()

    def successors(self, state):
        succ = self._base.successors(state)
        if all(v != self._gone for v, _ in succ):
            return succ
        merged = {}
        for v, w in succ:
            if v == self._gone:
                for v2, w2 in self._bridge:
                    m = w + w2
                    merged[v2] = es.log_sum(merged[v2], m) if v2 in merged else m
            else:
                merged[v] = es.log_sum(merged[v], w) if v in merged else w
        return list(merged.items())

    def label(self, state):
        return self._base.label(state)

    def is_productive(self, state):
        return self._base.is_productive(state)

    def level(self, state):
        return self._base.level(state)


def eliminate_silent(model, state):
    """Remove a non-initial silent state, rewiring predecessors to its
    successors with composed masses."""
    if model.is_productive(state):
        raise ValueError(f"state {state!r} is productive and cannot be eliminated")
    if any(q == state for q, _ in model.initial()):
        raise ValueError(f"state {state!r} is initial and cannot be eliminated")
    return _SilentElimination(model, state)


def random_constant_experts(rng, k, alphabet_size):
    return [es.ConstantExpert(rng.dirichlet(np.ones(alphabet_size))) for _ in range(k)]


def random_zoo_instance(name, rng, n, k=None, alphabet_size=None):
    """Returns (model, experts, data) with the experts list already matching
    the model's label space (safe expert appended where needed)."""
    if k is None:
        k = 2 if name == "universal_elementwise" else int(rng.integers(2, 4))
    if alphabet_size is None:
        alphabet_size = int(rng.integers(2, 4))
    experts = random_constant_experts(rng, k, alphabet_size)
    data = list(rng.integers(0, alphabet_size, n))
    w = rng.dirichlet(np.ones(k) * 5.0)  # keeps weights comfortably positive
    alpha = float(rng.uniform(0.05, 0.95))
    if name == "bayes":
        model = es.bayes(w)
    elif name == "fixed_elementwise":
        model = es.fixed_elementwise(w)
    elif name == "universal_elementwise":
        model = es.universal_elementwise(k)
    elif name == "fixed_share":
        model = es.fixed_share(w, alpha)
    elif name == "universal_share":
        model = es.universal_share(w)
    elif name == "overconfident":
        model = es.overconfident(w, alpha)
        experts = es.with_safe_expert(experts, alphabet_size)
    elif name == "switch":
        law = [es.inv_poly(), es.geometric(float(rng.uniform(0.1, 0.9)))][int(rng.integers(0, 2))]
        cfg = es.SwitchConfig(float(rng.uniform(0.2, 0.9)), law, tuple(w))
        model = es.switch(cfg, k)
    elif name == "run_length":
        law = [es.inv_poly(), es.geometric(float(rng.uniform(0.1, 0.9))),
               es.uniform_span(1, 3)][int(rng.integers(0, 3))]
        model = es.run_length(law, w)
    else:
        raise ValueError(name)
    return model, experts, data


def joint_table(model, experts_all, data):
    """Exhaustive map from expert sequences to joint log mass, via the prior
    enumerator plus chain-rule likelihoods."""
    lp = es.prediction_matrix(experts_all, data)
    table = {}
    for seq, prior in iter_sequence_priors(model, len(data)):
        table[seq] = prior + sum(lp[i, s] for i, s in enumerate(seq))
    return table


def brute_marginal(model, experts_all, data):
    return es.log_sum_iter(joint_table(model, experts_all, data).values())


def brute_posterior(model, experts_all, data):
    """(n, k) smoothed expert posterior by full enumeration, log domain."""
    n, k = len(data), model.num_experts
    table = joint_table(model, experts_all, data)
    total = es.log_sum_iter(table.values())
    grid = np.full((n, k), -np.inf)
    for seq, v in table.items():
        for i, s in enumerate(seq):
            grid[i, s] = es.log_sum(grid[i, s], v)
    return grid - total


def brute_map(model, experts_all, data):
    """Exhaustive MAP expert sequence; ties to the lexicographically
    smallest sequence."""
    table = joint_table(model, experts_all, data)
    best = max(sorted(table), key=lambda s: table[s])
    return list(best), table[best]


def run_length_prior_oracle(law, w, seq):
    """Run-length prior of an expert-sequence prefix by direct enumeration
    over switch-time subsets (reflexive switches included)."""
    n = len(seq)
    forced = [t for t in range(1, n) if seq[t] != seq[t - 1]]
    optional = [t for t in range(1, n) if seq[t] == seq[t - 1]]
    total = 0.0
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            times = sorted(list(forced) + list(extra))
            mass = w[seq[0]]
            prev = 0
            for t in times:
                mass *= law.pmf(t - prev) * w[seq[t]]
                prev = t
            mass *= law.tail(n - prev)
            total += mass
    return math.log(total) if total > 0.0 else -math.inf


@dataclass(frozen=True)
class SwitchParams:
    """One switch parameter: strictly increasing switch times starting at 0
    and the expert chosen in each block."""

    times: tuple[int, ...]
    experts: tuple[int, ...]

    def __post_init__(self):
        m = len(self.times)
        if m < 1 or len(self.experts) != m:
            raise ValueError("times and experts must be equally long and nonempty")
        if self.times[0] != 0 or any(a >= b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("switch times must satisfy 0 = t1 < t2 < ...")

    @property
    def m(self):
        return len(self.times)


def _next_switch_conditional(law, t, t_prev):
    """P(Z = t | Z > t_prev): survive the hazards strictly between, then
    switch at t. Telescopes to pmf(t)/tail(t_prev+1) for infinite-support
    laws and honors the declared continuation of truncated ones."""
    mass = 1.0
    for j in range(t_prev + 1, t):
        mass *= 1.0 - law.hazard(j)
        if mass == 0.0:
            return 0.0
    return mass * law.hazard(t)


def _no_switch_before(law, n, t_prev):
    """P(Z >= n | Z > t_prev): survive every hazard strictly before n."""
    mass = 1.0
    for j in range(t_prev + 1, n):
        mass *= 1.0 - law.hazard(j)
    return mass


def switch_param_mass(cfg, params):
    """Log mass of one switch parameter under the switch prior."""
    m = params.m
    pi_m = (cfg.theta ** (m - 1)) * (1.0 - cfg.theta)
    total = from_linear(pi_m) + from_linear(cfg.pi_k[params.experts[0]])
    for i in range(1, m):
        cond = _next_switch_conditional(cfg.pi_t, params.times[i], params.times[i - 1])
        total += from_linear(cond) + from_linear(cfg.pi_k[params.experts[i]])
    return total


def switch_prior_prefix(cfg, labels):
    """Prefix mass of an expert sequence under the parametric switch prior.

    Exact enumeration over the visible block structures: every switch-time
    set containing the forced change points contributes its parameter mass,
    closed over the invisible future (parameters whose next switch falls at
    or beyond the horizon aggregate into a geometric tail times the
    switch-time tail).
    """
    n = len(labels)
    if n < 1:
        raise ValueError("need a nonempty prefix")
    k = cfg.num_experts
    labels = [int(x) for x in labels]
    if any(not 0 <= x < k for x in labels):
        raise ValueError("expert index outside pi_k support")
    pk = np.asarray(cfg.pi_k, dtype=float)
    law, theta = cfg.pi_t, cfg.theta

    forced = [t for t in range(1, n) if labels[t] != labels[t - 1]]
    optional = [t for t in range(1, n) if labels[t] == labels[t - 1]]

    total = 0.0
    for r in range(len(optional) + 1):
        for extra in itertools.combinations(optional, r):
            ts = sorted([0, *forced, *extra])
            mass = pk[labels[0]]
            for prev, t in zip(ts, ts[1:]):
                mass *= _next_switch_conditional(law, t, prev) * pk[labels[t]]
            j = len(ts)
            stop = theta ** (j - 1) * (1.0 - theta)
            go_on = (theta ** j) * _no_switch_before(law, n, ts[-1])
            total += mass * (stop + go_on)
    return from_linear(total)


def exact_block_sequences(n, k, m):
    """All expert sequences of length n with exactly m maximal blocks."""
    out = []
    for seq in itertools.product(range(k), repeat=n):
        blocks = 1 + sum(1 for a, b in zip(seq, seq[1:]) if a != b)
        if blocks == m:
            out.append(seq)
    return out


def best_segmentations_oracle(lp, max_blocks):
    """For each m = 1..max_blocks the highest-likelihood expert sequence
    with exactly m maximal blocks (adjacent blocks differ); None where no
    such sequence exists. lp is the (n, k) realized log-prediction matrix.

    The reference for ``expertseq.bounds.best_segmentations``: the same
    recursion and tie rules, cell by cell over nested lists.
    """
    n, k = lp.shape
    if n < 1:
        raise ValueError("need data")
    max_blocks = min(max_blocks, n)
    NEG = -math.inf
    # val[j][i][x]: best loglik of positions 0..i with j+1 maximal blocks,
    # last block using expert x. parent[j][i][x]: expert of the previous
    # block start when a block boundary sits at i, else -1 for a continuation.
    val = [[[NEG] * k for _ in range(n)] for _ in range(max_blocks)]
    par = [[[-2] * k for _ in range(n)] for _ in range(max_blocks)]
    for x in range(k):
        val[0][0][x] = lp[0][x]
        par[0][0][x] = -1
    for i in range(1, n):
        for j in range(max_blocks):
            for x in range(k):
                best, arg = NEG, -2
                cont = val[j][i - 1][x]
                if cont != NEG:
                    best, arg = cont, -1
                if j > 0:
                    for x2 in range(k):
                        if x2 == x:
                            continue
                        v = val[j - 1][i - 1][x2]
                        if v > best:
                            best, arg = v, x2
                if best != NEG:
                    val[j][i][x] = best + lp[i][x]
                    par[j][i][x] = arg
    out = []
    for j in range(max_blocks):
        row = val[j][n - 1]
        bx = max(range(k), key=lambda x: (row[x], -x))
        if row[bx] == NEG:
            out.append(None)
            continue
        seq = [0] * n
        x, jj = bx, j
        for i in range(n - 1, -1, -1):
            seq[i] = x
            a = par[jj][i][x]
            if a >= 0:
                x, jj = a, jj - 1
        last = max((i for i in range(1, n) if seq[i] != seq[i - 1]), default=0)
        out.append(Segmentation(row[bx], seq, last))
    return out


def best_segmentation_at_most(lp, m):
    """Best expert sequence with at most m maximal blocks, from a fresh
    reference table of m rows; ties prefer fewer blocks."""
    best = None
    for s in best_segmentations_oracle(lp, m):
        if s is not None and (best is None or s.log_likelihood > best.log_likelihood):
            best = s
    assert best is not None
    return best


def record_stream(monkeypatch, cls):
    """Patch ``cls`` so that every stream records its work and ``predict``
    raises: returns ``(forecasts, sent)``, the number of forecasts yielded
    (a one-element list) and the outcomes sent, in order."""
    forecasts, sent = [0], []
    stream = cls.forecasts

    def recording(self):
        gen = stream(self)
        forecast = next(gen)
        while True:
            forecasts[0] += 1
            x = yield forecast
            sent.append(x)
            forecast = gen.send(x)

    def replay(self, history):
        raise AssertionError(f"{cls.__name__}.predict replayed a history")

    monkeypatch.setattr(cls, "forecasts", recording)
    monkeypatch.setattr(cls, "predict", replay)
    return forecasts, sent
