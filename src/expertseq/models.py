"""The expert-combination model zoo.

Every constructor returns a lazy leveled HMM over expert labels. A model
does not hold the experts themselves; the forward pass pairs labels with a
list of forecasting systems. Masses are precomputed in log scale where
fixed and derived lazily where they depend on the level; arcs of
probability zero are omitted so frontiers stay tight.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .hmm import ArcLayer, HmmModel, LevelArcs, StateBudgetExceeded
from .logprob import NEG_INF, from_linear


# ---------------------------------------------------------------------------
# Switch-time / run-length laws
# ---------------------------------------------------------------------------

class SwitchTimeLaw(ABC):
    """Distribution on the positive integers, accessed through pmf, tail
    P(Z >= d) and hazard P(Z = d | Z >= d).

    ``span`` is the last support point for finite-support laws (None means
    infinite support). Past a finite support the hazard is defined as 1
    from the span onward, which forces a switch and keeps frontiers finite.
    """

    name: str = "law"
    span: int | None = None

    @abstractmethod
    def pmf(self, d: int) -> float: ...

    @abstractmethod
    def tail(self, d: int) -> float: ...

    def hazard(self, d: int) -> float:
        if d < 1:
            raise ValueError("run lengths start at 1")
        if self.span is not None and d >= self.span:
            return 1.0
        t = self.tail(d)
        if t <= 0.0:
            raise ValueError(f"{self.name}: conditioning on zero tail at {d}")
        return min(self.pmf(d) / t, 1.0)


class InversePolyLaw(SwitchTimeLaw):
    """pi(d) = 1 / (d (d+1)); tail 1/d, hazard 1/(d+1)."""

    name = "inv-poly"

    def pmf(self, d: int) -> float:
        return 1.0 / (d * (d + 1.0))

    def tail(self, d: int) -> float:
        return 1.0 / d

    def hazard(self, d: int) -> float:
        return 1.0 / (d + 1.0)


class GeometricLaw(SwitchTimeLaw):
    """pi(d) = (1-r)^(d-1) r; constant hazard r."""

    def __init__(self, rate: float):
        if not 0.0 < rate <= 1.0:
            raise ValueError("geometric rate must be in (0, 1]")
        self.rate = float(rate)
        self.name = f"geometric({rate})"

    def pmf(self, d: int) -> float:
        return (1.0 - self.rate) ** (d - 1) * self.rate

    def tail(self, d: int) -> float:
        return (1.0 - self.rate) ** (d - 1)

    def hazard(self, d: int) -> float:
        return self.rate


class EliasDeltaLaw(SwitchTimeLaw):
    """Complete prefix-code lengths of the Elias delta code as a distribution:
    pi(d) = 2^-len(d) with len(d) = floor(log2 d) + 2 floor(log2(floor(log2 d)+1)) + 1.

    Satisfies -log2 pi(d) <= log2 d + 2 log2 log2 (d+1) + 3 for every d >= 1.
    """

    name = "elias"

    def __init__(self):
        self._pmf: list[float] = [1.0 / 2.0]   # d = 1
        self._tail: list[float] = [1.0]        # tail(1) = 1

    @staticmethod
    def code_length(d: int) -> int:
        if d < 1:
            raise ValueError("support starts at 1")
        low = d.bit_length() - 1
        return low + 2 * ((low + 1).bit_length() - 1) + 1

    def _extend(self, d: int) -> None:
        while len(self._pmf) < d:
            j = len(self._pmf)  # current max supported d
            self._tail.append(self._tail[j - 1] - self._pmf[j - 1])
            self._pmf.append(2.0 ** (-self.code_length(j + 1)))

    def pmf(self, d: int) -> float:
        return 2.0 ** (-self.code_length(d))

    def tail(self, d: int) -> float:
        self._extend(d)
        return self._tail[d - 1]


class FinitePmfLaw(SwitchTimeLaw):
    """Explicit finite-support law with masses for d = 1..span."""

    def __init__(self, probs: Sequence[float], *, renormalize: bool = False,
                 name: str = "finite"):
        p = np.asarray(probs, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError(f"finite law masses must be finite, got {p.tolist()}")
        if p.ndim != 1 or len(p) < 1 or np.any(p < 0) or p[-1] == 0.0:
            raise ValueError("finite law needs masses for d = 1..span with mass at the span")
        s = p.sum()
        if abs(s - 1.0) > 1e-9:
            if not renormalize:
                raise ValueError(f"finite law masses sum to {s}, not 1 (pass renormalize=True)")
            p = p / s
        self._pmf = p
        self._tail = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])
        self.span = len(p)
        self.name = name

    def pmf(self, d: int) -> float:
        return float(self._pmf[d - 1]) if 1 <= d <= self.span else 0.0

    def tail(self, d: int) -> float:
        if d < 1:
            raise ValueError("run lengths start at 1")
        return float(self._tail[min(d, self.span + 1) - 1])


def inv_poly() -> InversePolyLaw:
    return InversePolyLaw()


def geometric(rate: float) -> GeometricLaw:
    return GeometricLaw(rate)


def elias_delta() -> EliasDeltaLaw:
    return EliasDeltaLaw()


def uniform_span(a: int, b: int) -> FinitePmfLaw:
    """Uniform law on run lengths {a, ..., b}."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    probs = [0.0] * (a - 1) + [1.0 / (b - a + 1)] * (b - a + 1)
    return FinitePmfLaw(probs, name=f"uniform({a},{b})")


def truncate(law: SwitchTimeLaw, span: int) -> FinitePmfLaw:
    """Declared finite-support truncation of a law, renormalized."""
    return FinitePmfLaw([law.pmf(d) for d in range(1, span + 1)],
                        renormalize=True, name=f"{law.name}|{span}")


# ---------------------------------------------------------------------------
# Parameter records
# ---------------------------------------------------------------------------

def _log_dist(w, k: int | None = None, what: str = "weights") -> list[float]:
    p = np.asarray(w, dtype=float)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError(f"{what} must be a flat vector")
    if k is not None and len(p) != k:
        raise ValueError(f"{what} must have length {k}")
    if not np.isfinite(p).all():
        raise ValueError(f"{what} must be finite, got {p.tolist()}")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} must be a normalized distribution")
    return [from_linear(float(x)) for x in p]


@dataclass(frozen=True)
class SwitchConfig:
    """Parameters of the switch prior: geometric rate of the block-count law,
    the switch-time law, and the expert-choice distribution.

    theta = 1 removes the stable band entirely (the block count never
    stops growing); it falls outside the prior interpretation but realizes
    the reduction to a fixed switching rate.
    """

    theta: float
    pi_t: SwitchTimeLaw
    pi_k: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        _log_dist(self.pi_k, what="pi_k")

    @property
    def num_experts(self) -> int:
        return len(self.pi_k)


# ---------------------------------------------------------------------------
# Model classes
# ---------------------------------------------------------------------------

class BayesMixture(HmmModel):
    """One self-chain per expert; no switching arcs."""

    productive_tags = frozenset({"e"})
    unambiguous = True
    stationary = True
    silent_depth_bound = 0

    def __init__(self, w):
        self._log_w = _log_dist(w)
        self.num_experts = len(self._log_w)

    def initial(self):
        return [(("e", 1, x), lw) for x, lw in enumerate(self._log_w) if lw != NEG_INF]

    def successors(self, q):
        _, n, x = q
        return [(("e", n + 1, x), 0.0)]

    def label(self, q):
        return q[2]


class FixedElementwiseMixture(HmmModel):
    """Per-level silent hub redrawing the expert i.i.d. from fixed weights."""

    productive_tags = frozenset({"e"})
    unambiguous = True
    stationary = True
    silent_depth_bound = 1

    def __init__(self, alpha):
        self._log_a = _log_dist(alpha, what="mixture weights")
        self.num_experts = len(self._log_a)

    def initial(self):
        return [(("draw", 0), 0.0)]

    def successors(self, q):
        if q[0] == "draw":
            n = q[1]
            return [(("e", n + 1, x), la) for x, la in enumerate(self._log_a) if la != NEG_INF]
        _, n, x = q
        return [(("draw", n), 0.0)]

    def label(self, q):
        return q[2]


class FixedShare(HmmModel):
    """Stay with the current expert with mass 1 - alpha, otherwise forget
    everything and redraw from w through the per-level hub."""

    productive_tags = frozenset({"e"})
    unambiguous = True
    stationary = True
    silent_depth_bound = 1

    def __init__(self, w, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self._log_w = _log_dist(w)
        self._log_stay = math.log1p(-alpha) if alpha < 1.0 else NEG_INF
        self._log_switch = from_linear(alpha)
        self.num_experts = len(self._log_w)

    def initial(self):
        return [(("draw", 0), 0.0)]

    def successors(self, q):
        if q[0] == "draw":
            n = q[1]
            return [(("e", n + 1, x), lw) for x, lw in enumerate(self._log_w) if lw != NEG_INF]
        _, n, x = q
        out = []
        if self._log_stay != NEG_INF:
            out.append((("e", n + 1, x), self._log_stay))
        if self._log_switch != NEG_INF:
            out.append((("draw", n), self._log_switch))
        return out

    def label(self, q):
        return q[2]


class UniversalElementwiseMixture(HmmModel):
    """Elementwise mixture with the mixture weights learned online under a
    Jeffreys prior; silent states are count vectors, so the frontier at
    sample size n has C(n+k-1, k-1) states. A state budget guards the
    blowup for k >= 3: a level whose count-state number exceeds it raises
    StateBudgetExceeded.

    Its level arcs number a count vector c of level t by its tail c[1:] in
    graded order: by the tail's sum, then lexicographically, with
    c[0] = t - sum(c[1:]). The count vectors of level t are then the first
    C(t+k-1, k-1) of level t + 1, so every level is a slice of one set of
    per-run templates.
    """

    productive_tags = frozenset({"e"})
    unambiguous = True
    silent_depth_bound = 1

    def __init__(self, k: int, state_budget: int = 200_000):
        if k < 1:
            raise ValueError("need at least one expert")
        self.num_experts = k
        self._budget = state_budget

    def _check_budget(self, n: int) -> None:
        k = self.num_experts
        if math.comb(n + k - 1, k - 1) > self._budget:
            raise StateBudgetExceeded(
                f"universal elementwise mixture needs {math.comb(n + k - 1, k - 1)} count "
                f"states at level {n}, over the budget of {self._budget}")

    def initial(self):
        self._check_budget(0)
        return [(("cnt", 0, (0,) * self.num_experts), 0.0)]

    def successors(self, q):
        if q[0] == "cnt":
            _, n, counts = q
            denom = 0.5 * self.num_experts + n
            return [(("e", n + 1, counts, x), math.log((0.5 + counts[x]) / denom))
                    for x in range(self.num_experts)]
        _, n, counts, x = q
        self._check_budget(n)
        bumped = counts[:x] + (counts[x] + 1,) + counts[x + 1:]
        return [(("cnt", n, bumped), 0.0)]

    def label(self, q):
        return q[3]

    def level_arcs(self):
        # Stratum t + 1 holds e(t + 1, c, x) for the count vectors c of
        # level t, numbered i * k + x where i numbers c's tail (see
        # _tail_templates). The count layer gives each count state k arcs,
        # one a slot, and the draw layer gives each expert state one, so
        # every destination has an arc; both are slices of templates grown
        # about twofold. cnt(t, c) collects e(t, c - e_x, x) in slot x, and
        # a slot with no such state holds a zero-mass arc from node 0; the
        # one per-level patch is slot 0 of the newest tails (sum t, so
        # c[0] = 0). The draw weights are log((c + 0.5) / (k / 2 + t)), and
        # counts holds c with c[0] offset by -t.
        k = self.num_experts
        counts = np.empty((0, k), dtype=np.intp)
        lead = np.full(k, 0.5)
        n_src = 0
        for t in count():
            self._check_budget(t)
            size = math.comb(t + k - 1, k - 1)
            if len(counts) < size:
                # C(s + k - 1, k - 1) tails have a sum of at most s, about s ** (k - 1) /
                # (k - 1)!, so this top sum about doubles the rows; a build costs about
                # the same up to 64 ** (1 / (k - 1)) (130 tails at k = 2), so none is less.
                top = int(max(t, 64 ** (1 / max(k - 1, 1))) * 2 ** (1 / max(k - 1, 1))) + 1
                counts, cnt_src, cnt_w, ar, rows = _tail_templates(k, top)
            nodes = size * k
            layers = []
            if t:
                src, logw = cnt_src[:nodes].copy(), cnt_w[:nodes].copy()
                src[n_src::k] = 0
                logw[n_src::k] = NEG_INF
                layers.append(ArcLayer(src, logw, ar[:nodes + 1:k]))
            lead[0] = t + 0.5
            draw = counts[:size] + lead
            draw /= 0.5 * k + t
            layers.append(ArcLayer(n_src + rows[:nodes], np.log(draw, out=draw).ravel(),
                                   ar[:nodes + 1]))
            yield LevelArcs(tuple(layers), _tail_states(counts, t))
            n_src = nodes


def _tail_templates(k: int, top: int):
    """Templates of UniversalElementwiseMixture.level_arcs over the tails of
    k - 1 parts with sum at most ``top``, in graded order: by sum, then
    lexicographically.

    Returns the count vectors, row i holding (-s, tail i) for the tail's
    sum s, so that adding t to its first part gives the count vector of
    level t; the sources and log masses of the count layer, with k slots
    per tail; and the index templates ar and rows (ar // k).
    Slot 0 of tail i takes from node i * k of the previous stratum, which
    holds the same tail while its sum is below the level; a level patches
    the rest. Slot x >= 1 takes from the tail with one less in part x:
    taking one from part x keeps the graded order, and every tail of sum
    below ``top`` is reached once, so that tail is numbered by how many
    earlier tails have a positive part x.
    """
    # Split each sum s, in increasing order, into ascending leading parts
    # and what is left; with k = 1 the one tail is empty.
    s = np.arange(top + 1 if k > 1 else 1)
    cols, rest = [-s], s
    for _ in range(k - 2):
        room = rest + 1
        ends = room.cumsum()
        part = np.arange(ends[-1]) - (ends - room).repeat(room)
        cols = [c.repeat(room) for c in cols] + [part]
        rest = rest.repeat(room) - part
    counts = np.empty((len(rest), k), dtype=np.intp)
    for x, col in enumerate(cols + [rest][:k - 1]):
        counts[:, x] = col
    ar = np.arange(len(counts) * k + 1)
    # Slot x of tail i has an arc where part x is positive, and slot 0
    # always; the arcs of a slot so far number its source's tail.
    has = counts > 0
    has[:, 0] = True
    src = ((has.cumsum(axis=0) - 1) * k + ar[:k]) * has
    logw = np.where(has, 0.0, NEG_INF)
    return counts, src.ravel(), logw.ravel(), ar, ar // k


def _tail_states(counts, t):
    """Node i * k + x of stratum t + 1 as its tuple state ("e", t + 1, c, x)."""
    k = counts.shape[1]

    def states(idx):
        rows = counts[idx // k]
        rows[:, 0] += t
        return [("e", t + 1, tuple(row), x) for row, x in zip(rows.tolist(), (idx % k).tolist())]
    return states


class UniversalShare(HmmModel):
    """Fixed share with the switching rate integrated out under a Jeffreys
    prior; the switch count rides in the state, so levels grow linearly."""

    productive_tags = frozenset({"e"})
    unambiguous = False
    silent_depth_bound = 2

    def __init__(self, w):
        self._log_w = _log_dist(w)
        self.num_experts = len(self._log_w)

    def initial(self):
        return [(("draw", 0, 0), 0.0)]

    def successors(self, q):
        tag = q[0]
        if tag == "draw":
            _, n, m = q
            return [(("e", n + 1, x, m), lw) for x, lw in enumerate(self._log_w) if lw != NEG_INF]
        if tag == "bump":
            _, n, m = q
            return [(("draw", n, m + 1), 0.0)]
        _, n, x, m = q
        return [(("bump", n, m), math.log((m + 0.5) / n)),
                (("e", n + 1, x, m), math.log((n - m - 0.5) / n))]

    def label(self, q):
        return q[2]

    def level_arcs(self):
        # Stratum t holds e(t, x, m) for switch counts m < t, numbered m * k + x.
        # Every index range and the m + 0.5 weights are slices of templates
        # grown by doubling; a level computes its two weight vectors and
        # writes its stay layer afresh. e(t + 1, x, m) has two arcs, a stay
        # from e(t, x, m) and a draw from draw(t, m), node n_src + t + m - 1;
        # the stay of m = t and the draw of m = 0 are zero-mass arcs from
        # node 0 and from the last bump node, so every destination has an
        # arc: bump(t, m) has k, draw(t, m) one and e(t + 1, x, m) two. half
        # holds m + 0.5 at [m * k, (m + 1) * k), so both weight vectors are
        # slices of it: the bump of e(t, x, m) has mass (m + 0.5) / t and its
        # stay (t - m - 0.5) / t, which is half read backwards from n_src.
        k = self.num_experts
        lw = np.array(self._log_w)
        ar = zero = half = np.arange(0)
        yield _first_level(lw, _grid_states(1, k, False))
        for t in count(1):
            n_src = t * k
            if len(zero) <= t:
                rows = 2 * (t + 1)
                ar = np.arange(2 * rows * (k + 1))
                zero = np.zeros(rows)
                half = ar[:rows * k] // k + 0.5
            bump = ArcLayer(ar[:n_src], np.log(half[:n_src] / t), ar[:n_src + 1:k])
            draw = ArcLayer(ar[n_src:n_src + t], zero[:t], ar[:t + 1])
            # Arcs [stay, draw] of each destination, by (m, x).
            src = np.zeros((t + 1, k, 2), dtype=np.intp)
            src[:t, :, 0] = ar[:n_src].reshape(t, k)
            src[:, :, 1] = ar[n_src + t - 1:n_src + 2 * t, None]
            logw = np.full((t + 1, k, 2), NEG_INF)
            logw[:t, :, 0] = np.log(half[n_src - 1::-1] / t).reshape(t, k)
            logw[1:, :, 1] = lw
            stay = ArcLayer(src.ravel(), logw.ravel(), ar[:2 * (n_src + k) + 1:2])
            yield LevelArcs((bump, draw, stay), _grid_states(t + 1, k, False))


class OverconfidentExperts(HmmModel):
    """Per-expert two-lane gadget: the normal lane emits the expert itself,
    the wild lane emits the uniform safe expert, whose label is the extra
    index ``k``. The expert list must carry the safe expert appended."""

    productive_tags = frozenset({"e"})
    unambiguous = False
    stationary = True
    silent_depth_bound = 1

    def __init__(self, w, alpha: float):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self._log_w = _log_dist(w)
        self._k = len(self._log_w)
        self._log_normal = math.log1p(-alpha) if alpha < 1.0 else NEG_INF
        self._log_wild = from_linear(alpha)
        self.num_experts = self._k + 1

    def initial(self):
        return [(("g", 0, x), lw) for x, lw in enumerate(self._log_w) if lw != NEG_INF]

    def successors(self, q):
        if q[0] == "g":
            _, n, x = q
            out = []
            if self._log_normal != NEG_INF:
                out.append((("e", n + 1, x, 0), self._log_normal))
            if self._log_wild != NEG_INF:
                out.append((("e", n + 1, x, 1), self._log_wild))
            return out
        _, n, x, _lane = q
        return [(("g", n, x), 0.0)]

    def label(self, q):
        return q[2] if q[3] == 0 else self._k


class SwitchHmm(HmmModel):
    """Two expert bands. The unstable band escapes with the hazard of the
    switch-time law at the current sample size; an escape re-enters the
    unstable band with mass theta or stabilizes forever with 1 - theta.
    ``cfg`` is the SwitchConfig the model was built from. An expert whose
    pi_k weight is zero is never drawn: its draw arcs have zero mass.

    On level arcs stratum t is a grid of two rows: node x is u(t, x) and
    node k + x is s(t, x). After the sources, level t >= 1 numbers p(t)
    as node 2k and pu(t), ps(t) as nodes 2k + 1 and 2k + 2; level 0
    numbers p(0) as node 0 and pu(0), ps(0) as nodes 1 and 2.

    ``_level_tables`` lists a stratum by (label, state), s(t, x) before
    u(t, x) (S = 2k), or the u row alone (S = k) where theta = 1 leaves
    the s row empty. In the linear domain, with h the level's hazard and
    w = pi_k, u -> u is (1 - h) I + h theta w, u -> s is h (1 - theta) w
    and s -> s is I. A level's class is whether h is 0, 1 or in between.
    Up to k = 8 ``ForwardPass`` steps these tables, past that the arcs."""

    productive_tags = frozenset({"u", "s"})
    unambiguous = False
    silent_depth_bound = 2

    def __init__(self, cfg: SwitchConfig, k: int):
        if cfg.num_experts != k:
            raise ValueError(f"pi_k has {cfg.num_experts} entries, expected {k}")
        self._log_w = _log_dist(cfg.pi_k, k, what="pi_k")
        self.cfg = cfg
        self._law = cfg.pi_t
        self._log_theta = from_linear(cfg.theta)
        self._log_stab = from_linear(1.0 - cfg.theta)
        self.num_experts = k

    def initial(self):
        return [(("p", 0), 0.0)]

    def successors(self, q):
        tag = q[0]
        if tag == "u":
            _, n, x = q
            h = self._law.hazard(n)
            out = []
            if h < 1.0:
                out.append((("u", n + 1, x), math.log1p(-h)))
            if h > 0.0:
                out.append((("p", n), math.log(h)))
            return out
        if tag == "s":
            _, n, x = q
            return [(("s", n + 1, x), 0.0)]
        n = q[1]
        if tag == "p":
            out = [(("pu", n), self._log_theta)]
            if self._log_stab != NEG_INF:
                out.append((("ps", n), self._log_stab))
            return out
        band = "u" if tag == "pu" else "s"
        return [((band, n + 1, x), lw) for x, lw in enumerate(self._log_w)]

    def label(self, q):
        return q[2]

    def _level_tables(self, levels):
        # Each entry sums its route's masses in the order propagate_frontier
        # does: log h + log theta (or log(1 - theta)), then + log w_y; a
        # diagonal u entry adds its stay, log(1 - h), last.
        h = np.array([self._law.hazard(t) for t in levels])
        with np.errstate(divide="ignore"):
            stay, leave = np.log1p(-h), np.log(h)
        k, rows = self.num_experts, slice(int(self._log_stab == NEG_INF), 2)
        bands = np.array([self._log_stab, self._log_theta])     # into the s row, the u row
        lw, x = np.array(self._log_w)[:, None], np.arange(k)

        def tables(idx):
            # [source x, row, sink y, row], row 0 the s row and 1 the u row.
            out = np.full((len(idx), k, 2, k, 2), NEG_INF)
            out[:, :, 1] = ((leave[idx, None, None] + bands) + lw)[:, None]
            out[:, x, 0, x, 0] = 0.0
            out[:, x, 1, x, 1] = np.logaddexp(out[:, x, 1, x, 1], stay[idx, None])
            size = k * (2 - rows.start)
            return out[:, :, rows, :, rows].reshape(len(idx), size, size)
        tables.classes = (h > 0.0).astype(np.intp) + (h >= 1.0)
        return tables

    def level_arcs(self):
        # Level t >= 1: p(t) collects the u row with mass hazard(t); pu(t)
        # and ps(t) take theta and 1 - theta from p(t); node r * k + x of
        # stratum t + 1 has two arcs, its stay from node r * k + x (mass
        # 1 - hazard(t) on the u row, 1 on the s row) and its draw from
        # node 2k + 1 + r (mass w_x). Level 0 splits p(0) the same way and
        # draws stratum 1. Theta = 1 and a hazard of 0 or 1 leave zero-mass
        # arcs. The index arrays and the split layer are built once per
        # run; a level writes only its two hazard weight vectors afresh,
        # into one array: the collect weights at [0, k), then the step
        # weights, [stay, draw] per destination by (row, x).
        k, law = self.num_experts, self._law
        lw = np.array(self._log_w)
        ar = np.arange(4 * k + 1)
        thetas = np.array([self._log_theta, self._log_stab])

        def states(n):
            # Node r * k + x of stratum n as its tuple state.
            return lambda idx: [(("u", "s")[r], n, x)
                                for r, x in zip((idx // k).tolist(), (idx % k).tolist())]
        draws = ArcLayer(ar[1:3].repeat(k), np.tile(lw, 2), ar[:2 * k + 1])
        yield LevelArcs((ArcLayer(np.zeros(2, dtype=np.intp), thetas, ar[:3]), draws), states(1))
        u_row, collect_at, step_at = ar[:k], ar[:k + 1:k], ar[:4 * k + 1:2]
        split = ArcLayer(np.full(2, 2 * k), thetas, ar[:3])
        src = np.stack([ar[:2 * k], (2 * k + 1 + ar[:2]).repeat(k)], axis=1).ravel()
        step_w = np.stack([np.zeros(2 * k), np.tile(lw, 2)], axis=1).ravel()
        blank = np.concatenate([np.zeros(k), step_w])
        for t in count(1):
            h = law.hazard(t)
            w = blank.copy()
            w[:k] = math.log(h) if h > 0.0 else NEG_INF
            w[k:3 * k:2] = math.log1p(-h) if h < 1.0 else NEG_INF
            yield LevelArcs((ArcLayer(u_row, w[:k], collect_at), split,
                             ArcLayer(src, w[k:], step_at)), states(t + 1))


class RunLengthHmm(HmmModel):
    """Switching model with arbitrary inter-switch distances: each expert
    block carries the time of its last switch, and the continue/stop masses
    are the law's hazard at the current run length."""

    productive_tags = frozenset({"e"})
    unambiguous = False
    silent_depth_bound = 2

    def __init__(self, pi_t: SwitchTimeLaw, w):
        self._law = pi_t
        self._log_w = _log_dist(w)
        self.num_experts = len(self._log_w)

    def initial(self):
        return [(("p", 0), 0.0)]

    def successors(self, q):
        tag = q[0]
        if tag == "p":
            t = q[1]
            return [(("e", t + 1, x, t), lw) for x, lw in enumerate(self._log_w) if lw != NEG_INF]
        if tag == "q":
            _, n, m = q
            return [(("p", n), 0.0)]
        _, n, x, m = q
        h = self._law.hazard(n - m)
        out = []
        if h < 1.0:
            out.append((("e", n + 1, x, m), math.log1p(-h)))
        if h > 0.0:
            out.append((("q", n, m), math.log(h)))
        return out

    def label(self, q):
        return q[2]

    def level_arcs(self):
        # Stratum t holds e(t, x, t - d) for run lengths d = 1..D_t, numbered
        # (d - 1) * k + x; D_t = t stops at a finite law's span, after which
        # every level has the same layers. Index ranges and weights are
        # slices of templates grown by doubling: leave_w holds log hazard(d)
        # at [(d - 1) * k, d * k), step_w the draw weights at [0, k) and
        # log(1 - hazard(d)) at [d * k, (d + 1) * k). A hazard of 0 or 1
        # leaves zero-mass arcs in them, so every destination keeps its arcs:
        # q(t, t - d) has k, the hub t and each node of stratum t + 1 one.
        k, law, span = self.num_experts, self._law, self._law.span
        lw = np.array(self._log_w)
        ar = zero = leave_w = np.arange(0)
        step_w = lw
        yield _first_level(lw, _grid_states(1, k, True))
        for t in count(1):
            if span is None or t <= span:
                d_next = t + 1 if span is None or t < span else t
                n_src = t * k
                hub = n_src + t
                if len(ar) <= hub + k:
                    size = 2 * (hub + k)
                    ar = np.arange(size)
                    zero = np.zeros(size)
                    leave_w = _regrown(leave_w, size)
                    step_w = _regrown(step_w, size)
                h = law.hazard(t)
                leave_w[n_src - k:n_src] = math.log(h) if h > 0.0 else NEG_INF
                step_w[n_src:n_src + k] = math.log1p(-h) if h < 1.0 else NEG_INF
                # q(t, t - d) per run length d, then the hub p(t), node n_src + t;
                # stratum t + 1 node j >= k continues from node j - k.
                src = ar[:d_next * k] - k
                src[:k] = hub
                layers = (ArcLayer(ar[:n_src], leave_w[:n_src], ar[:n_src + 1:k]),
                          ArcLayer(ar[n_src:hub], zero[:t], ar[:t + 1:t]),
                          ArcLayer(src, step_w[:d_next * k], ar[:d_next * k + 1]))
            yield LevelArcs(layers, _grid_states(t + 1, k, True))


def _regrown(buf: np.ndarray, size: int) -> np.ndarray:
    """A float buffer of the given size that starts with the entries of buf."""
    out = np.empty(size)
    out[:len(buf)] = buf
    return out


def _first_level(logw: np.ndarray, states) -> LevelArcs:
    """Level 0 of a model whose one initial state draws expert x with
    log mass logw[x]."""
    k = len(logw)
    layer = ArcLayer(np.zeros(k, dtype=np.intp), logw, np.arange(k + 1))
    return LevelArcs((layer,), states)


def _grid_states(n, k, by_run_length):
    """Node row * k + x of stratum n as its tuple state ("e", n, x, m):
    the row is m itself or, by run length, n - m - 1."""
    def states(idx):
        return [("e", n, x, n - 1 - r if by_run_length else r)
                for r, x in zip((idx // k).tolist(), (idx % k).tolist())]
    return states


# ---------------------------------------------------------------------------
# Constructors (the public zoo surface)
# ---------------------------------------------------------------------------

def bayes(w) -> BayesMixture:
    return BayesMixture(w)


def fixed_elementwise(alpha) -> FixedElementwiseMixture:
    return FixedElementwiseMixture(alpha)


def universal_elementwise(k: int, state_budget: int = 200_000) -> UniversalElementwiseMixture:
    return UniversalElementwiseMixture(k, state_budget)


def fixed_share(w, alpha: float) -> FixedShare:
    return FixedShare(w, alpha)


def universal_share(w) -> UniversalShare:
    return UniversalShare(w)


def overconfident(w, alpha: float) -> OverconfidentExperts:
    return OverconfidentExperts(w, alpha)


def switch(cfg: SwitchConfig, k: int) -> SwitchHmm:
    return SwitchHmm(cfg, k)


def run_length(pi_t: SwitchTimeLaw, w) -> RunLengthHmm:
    return RunLengthHmm(pi_t, w)


def default_switch_config(k: int, theta: float = 0.5,
                          pi_t: SwitchTimeLaw | None = None) -> SwitchConfig:
    """Uniform expert-choice law, theta = 1/2, pi_t(d) = 1/(d(d+1))."""
    return SwitchConfig(theta, pi_t or inv_poly(), tuple([1.0 / k] * k))
