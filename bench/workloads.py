"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is built once per run from its seed: it draws the data, writes
the CLI's input files and computes every reference result. ``build()``
then makes one round of operations with fresh experts and models, which
``run.py`` executes and checks as many times as the run length allows.
Every round runs the same operations on the same inputs.

Each operation drives the program through a public entry point only:
``ForwardPass``, ``posterior_experts``, ``switch_map`` or
``expertseq.cli.main``. Its ``check`` returns a list of problems; an empty
list means the outputs agree with the references.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import expertseq as es
import expertseq.cli as cli_mod
import reference
from tracing import ExpertProxy, ModelProxy, Tracer

LN2 = math.log(2.0)
TOL = 1e-9         # log-domain agreement and row sums
PRINTED = 1e-11    # relative agreement of a 12-significant-digit CLI number


def _close(a, b, rel: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float                  # wall time of the program call(s)
    value: object                   # what the checks read
    step_ns: np.ndarray | None = None


@dataclass
class LoopValue:
    cond: np.ndarray      # log P(x_i | x^{i-1}) per step
    pre: np.ndarray       # pre_update_total per step
    marg: np.ndarray      # log marginal after each step
    expert_sum: np.ndarray
    outcome_sum: np.ndarray | None
    peak_weights: int


class LoopOp:
    """A ``ForwardPass`` loop that times every ``advance``."""

    kind = "loop"

    def __init__(self, name, model, data, *, experts=None, matrix=None, hook=None,
                 expected=None, below_peak_of=None):
        self.name, self.model, self.data = name, model, data
        self.experts, self.matrix, self.hook = experts, matrix, hook
        self.expected = expected            # reference log conditionals
        self.below_peak_of = below_peak_of  # exact run whose frontier must be larger
        self.n = len(data)
        self.expert_calls = None if experts is None else self.n * len(experts)

    def run(self, tracer: Tracer | None) -> Outcome:
        fp = es.ForwardPass(self.model, self.experts, logpred_matrix=self.matrix,
                            frontier_hook=self.hook, want_outcome_dists=True,
                            keep_steps=False)
        advance = fp.advance if tracer is None else tracer.wrap("forward.advance", fp.advance)
        n = self.n
        ns = np.empty(n, dtype=np.int64)
        cond, pre, marg, esum = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        osum = np.empty(n) if self.experts is not None else None
        clock = perf_counter_ns
        for i, x in enumerate(self.data):
            t0 = clock()
            advance(x)
            ns[i] = clock() - t0
            step = fp.last_step
            cond[i], pre[i], marg[i] = step.log_cond, step.pre_update_total, fp.log_marginal
            esum[i] = np.exp(step.expert_dist).sum()
            if osum is not None:
                osum[i] = np.exp(step.outcome_dist).sum()
        value = LoopValue(cond, pre, marg, esum, osum, fp.peak_weights)
        return Outcome(ns.sum() / 1e9, value, ns)

    def check(self, v: LoopValue, done: dict) -> list[str]:
        errs = []
        if self.expected is not None:
            if not _close(v.cond, self.expected, TOL):
                errs.append("step conditionals differ from the reference")
            if not _close(v.marg[-1], self.expected.sum(), 1e-10):
                errs.append(f"marginal {v.marg[-1]!r} != reference {self.expected.sum()!r}")
        before = np.concatenate([[0.0], v.marg[:-1]])
        if not _close(v.pre, before, TOL):
            errs.append("pre_update_total differs from the previous marginal")
        if not _close(v.expert_sum, 1.0, TOL):
            errs.append("a next-expert row does not sum to 1")
        if v.outcome_sum is not None and not _close(v.outcome_sum, 1.0, TOL):
            errs.append("a next-outcome row does not sum to 1")
        if self.below_peak_of is not None:
            if not math.isfinite(v.marg[-1]):
                errs.append("trimmed marginal is not finite")
            exact = done.get(self.below_peak_of)
            if exact is None or not v.peak_weights < exact.peak_weights:
                errs.append("trimmed frontier is not smaller than the exact one")
        return errs


class CliOp:
    """``expertseq evaluate`` on the workload's files, writing to a file."""

    kind = "cli"

    def __init__(self, name, argv, out: Path, n: int, expected):
        self.name, self.argv, self.out, self.n = name, argv, out, n
        self.expected = expected   # reference log conditionals
        self.expert_calls = None

    def run(self, tracer: Tracer | None) -> Outcome:
        main = cli_mod.main
        if tracer is None:
            t0 = perf_counter_ns()
            rc = main(self.argv)
            dt = perf_counter_ns() - t0
        else:
            tracer.active = False
            try:
                t0 = perf_counter_ns()
                rc = tracer.call("cli.main", main, self.argv)
                dt = perf_counter_ns() - t0
            finally:
                tracer.active = True
            tracer.add("cli.bytes_out", self.out.stat().st_size)
        if rc != 0:
            raise RuntimeError(f"expertseq {self.argv[0]} exited with {rc}")
        return Outcome(dt / 1e9, None)

    def _read(self):
        """(cum_bits, total_bits or None, [row sums]) from the output file."""
        text = self.out.read_text(encoding="utf-8")
        if self.out.suffix == ".json":
            doc = json.loads(text)
            steps = doc["steps"]
            cum = [s["cum_bits"] for s in steps]
            sums = [sum(s["next_expert"].values()) for s in steps]
            sums += [sum(s["next_outcome"].values()) for s in steps if "next_outcome" in s]
            return np.array(cum), doc["total_bits"], np.array(sums)
        lines = text.splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(c) for c in ln.split(",")[2:]] for ln in lines[1:]])
        cols = header[2:]
        groups = [[j for j, c in enumerate(cols) if c.startswith(p)] for p in ("p_out:", "p_exp:")]
        sums = np.concatenate([rows[:, g].sum(axis=1) for g in groups if g])
        return rows[:, cols.index("cum_bits")], None, sums

    def check(self, _, done: dict) -> list[str]:
        cum, total, sums = self._read()
        ref_cum = np.cumsum(-self.expected) / LN2
        errs = []
        if len(cum) != self.n:
            return [f"{len(cum)} output rows for {self.n} steps"]
        if not np.all(np.abs(cum - ref_cum) <= PRINTED * np.abs(ref_cum) + 1e-12):
            errs.append("cum_bits differ from the reference")
        if total is not None and not abs(total - ref_cum[-1]) <= PRINTED * abs(ref_cum[-1]):
            errs.append(f"total_bits {total!r} != reference {ref_cum[-1]!r}")
        if not _close(sums, 1.0, TOL):
            errs.append("a printed distribution does not sum to 1")
        return errs


class PosteriorOp:
    kind = "posterior"

    def __init__(self, name, model, data, expected, *, experts=None, matrix=None):
        self.name, self.model, self.data, self.expected = name, model, data, expected
        self.experts, self.matrix = experts, matrix
        self.n = len(data)
        self.expert_calls = None if experts is None else self.n * len(experts)

    def run(self, tracer: Tracer | None) -> Outcome:
        fn = es.posterior_experts if tracer is None else tracer.wrap("forward.posterior", es.posterior_experts)
        t0 = perf_counter_ns()
        grid = fn(self.model, self.experts, self.data, logpred_matrix=self.matrix)
        return Outcome((perf_counter_ns() - t0) / 1e9, grid)

    def check(self, grid, done: dict) -> list[str]:
        probs = np.exp(grid)
        errs = []
        if not _close(probs.sum(axis=1), 1.0, TOL):
            errs.append("a posterior row does not sum to 1")
        if not np.all(np.abs(probs - self.expected) <= TOL):
            errs.append("posterior differs from the reference")
        return errs


class MapReference:
    """Switch-recursion values that bracket the MAP: the marginal and the
    joint of the best constant expert sequence. They depend only on the
    inputs, so a run computes them once and every round shares them."""

    def __init__(self, lp: np.ndarray, cfg, hazard):
        self.lp = lp
        self._joint = lambda m: reference.switch(m, cfg.pi_k, cfg.theta, hazard).sum()
        self.marginal = self._joint(lp)
        self.best_single = max(self.joint([j] * len(lp)) for j in range(lp.shape[1]))

    def joint(self, labels) -> float:
        """log P(x^n, xi^n = labels) under the switch prior."""
        return self._joint(reference.masked(self.lp, labels))


class MapOp:
    """``switch_map``, checked against the switch recursion: at most the
    marginal, at least the best constant expert sequence, and equal to the
    joint of the sequence it returns."""

    kind = "map"

    def __init__(self, name, cfg, data, ref: MapReference, *, experts=None, matrix=None):
        self.name, self.cfg, self.data, self.ref = name, cfg, data, ref
        self.experts, self.matrix = experts, matrix
        self.n = len(data)
        self.expert_calls = None if experts is None else self.n * len(experts)

    def run(self, tracer: Tracer | None) -> Outcome:
        fn = es.switch_map if tracer is None else tracer.wrap("switch_map", es.switch_map)
        t0 = perf_counter_ns()
        res = fn(self.cfg, self.experts, self.data, logpred_matrix=self.matrix)
        dt = perf_counter_ns() - t0
        if tracer is not None:
            tracer.add("switch_map.ops", res.ops)
        return Outcome(dt / 1e9, res)

    def check(self, res, done: dict) -> list[str]:
        lp, ref = res.log_probability, self.ref
        slack = 1e-10 * abs(ref.marginal)
        errs = []
        if not lp <= ref.marginal + slack:
            errs.append(f"MAP {lp!r} exceeds the marginal {ref.marginal!r}")
        if not lp >= ref.best_single - slack:
            errs.append(f"MAP {lp!r} is below the best constant sequence {ref.best_single!r}")
        joint = ref.joint(res.sequence)
        if not _close(lp, joint, 1e-10):
            errs.append(f"MAP {lp!r} != joint of its sequence {joint!r}")
        return errs


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _segments(rng, n: int, mean_len: float):
    """Yield (start, end) of blocks with geometric lengths covering 0..n."""
    start = 0
    while start < n:
        end = min(n, start + int(rng.geometric(1.0 / mean_len)))
        yield start, end
        start = end


def _sample_from_experts(rng, n, specs, mean_len) -> list[int]:
    """Binary data where each block is drawn from one expert's forecasts."""
    data: list[int] = []
    for start, end in _segments(rng, n, mean_len):
        spec = specs[int(rng.integers(len(specs)))]
        for _ in range(start, end):
            if spec[0] == "const":
                p1 = spec[1][1]
            else:
                p1 = (spec[1] if not data else spec[2][data[-1]])[1]
            data.append(int(rng.random() < p1))
    return data


def _piecewise_bernoulli(rng, n, mean_len, rates) -> list[int]:
    data: list[int] = []
    for start, end in _segments(rng, n, mean_len):
        p1 = rates(rng)
        data.extend(int(u < p1) for u in rng.random(end - start))
    return data


def _builtin(spec: tuple) -> str:
    """CLI builtin spec of one expert."""
    if spec[0] == "const":
        return "const:" + ",".join(map(repr, spec[1]))
    if spec[0] == "markov":
        return "markov:" + "|".join(",".join(map(repr, r)) for r in (spec[1], *spec[2]))
    return spec[0]


def _expert(spec: tuple) -> es.ForecastingSystem:
    if spec[0] == "const":
        return es.ConstantExpert(spec[1])
    if spec[0] == "markov":
        return es.MarkovExpert(spec[1], spec[2])
    return es.make_builtin_expert(spec[0], size=2)


class Workload:
    """Shared input plumbing: the data file, the realized advice file and
    the wrapping of experts and models for the traced run."""

    name: str
    specs: tuple

    def __init__(self, seed: int, workdir: Path, n: int):
        self.workdir, self.n = workdir, n
        self.rng = np.random.default_rng(seed)

    def _write_data(self, data) -> Path:
        path = self.workdir / f"{self.name}.data"
        path.write_text("".join(f"{x}\n" for x in data), encoding="utf-8")
        return path

    def _write_advice(self, lp, names) -> Path:
        """Realized-mode advice: each expert's probability of the outcome."""
        path = self.workdir / f"{self.name}.advice.csv"
        rows = [",".join(names)] + [",".join(repr(float(p)) for p in row) for row in np.exp(lp)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def _cli(self, tag: str, model: str, extra: list[str], fmt: str) -> tuple[list[str], Path]:
        out = self.workdir / f"{self.name}.{tag}.{fmt}"
        argv = ["evaluate", str(self.data_path), "--model", model, "--alphabet", "0,1",
                *extra, "--format", fmt, "--out", str(out)]
        return argv, out

    def build(self, tracer: Tracer | None = None) -> list:
        """One round of operations with fresh experts and models."""
        if tracer is None:
            return self._ops(lambda e: e, lambda m: m)
        return self._ops(lambda e: [ExpertProxy(x, tracer) for x in e],
                         lambda m: ModelProxy(m, tracer))

    def _ops(self, experts, model) -> list:
        raise NotImplementedError


class OnlineStream(Workload):
    """Five O(k) models on a binary stream with constant and Markov experts."""

    name = "online-stream"
    specs = (("const", (0.8, 0.2)), ("const", (0.3, 0.7)),
             ("markov", (0.5, 0.5), ((0.9, 0.1), (0.2, 0.8))))
    W = (1 / 3, 1 / 3, 1 / 3)
    ALPHA_FE = (0.5, 0.3, 0.2)
    ALPHA_FS = 0.02
    ALPHA_OC = 0.1
    N = 500

    def __init__(self, seed: int, workdir: Path, n: int = N):
        super().__init__(seed, workdir, n)
        self.data = _sample_from_experts(self.rng, n, self.specs, 200.0)
        lp = reference.realized(self.specs, self.data, 2)
        names = [f"{s[0]}{j}" for j, s in enumerate(self.specs)]
        self.data_path = self._write_data(self.data)
        advice = self._write_advice(lp, names)
        self.ref = {
            "bayes": reference.bayes(lp, self.W),
            "fixed_elementwise": reference.fixed_elementwise(lp, self.ALPHA_FE),
            "fixed_share": reference.fixed_share(lp, self.W, self.ALPHA_FS),
            "overconfident": reference.overconfident(lp, self.W, self.ALPHA_OC, 2),
            "switch": reference.switch(lp, self.W, 0.5, reference.inv_poly_hazard),
        }
        self.ref_posterior = reference.fixed_share_posterior(lp, self.W, self.ALPHA_FS)
        builtin = ["--experts", "builtin:" + ";".join(_builtin(s) for s in self.specs)]
        realized = ["--experts", f"file:{advice}", "--advice-mode", "realized"]
        self.cli = {
            "bayes": self._cli("bayes", "bayes", builtin, "csv"),
            "switch": self._cli("switch", "switch", builtin, "csv"),
            "overconfident": self._cli("overconfident", "overconfident",
                                       builtin + ["--alpha", repr(self.ALPHA_OC)], "csv"),
            "fixed_share": self._cli("fixed_share", "fixed-share",
                                     realized + ["--alpha", repr(self.ALPHA_FS)], "json"),
            "fixed_elementwise": self._cli(
                "fixed_elementwise", "fixed-elementwise",
                realized + ["--weights", ",".join(map(repr, self.ALPHA_FE))], "json"),
        }
        self.map_ref = MapReference(lp, es.default_switch_config(len(self.specs)),
                                    reference.inv_poly_hazard)

    def _ops(self, experts, model) -> list:
        k = len(self.specs)
        ex = experts([_expert(s) for s in self.specs])
        safe = experts(es.with_safe_expert([_expert(s) for s in self.specs], 2))
        models = {
            "bayes": (model(es.bayes(self.W)), ex),
            "fixed_elementwise": (model(es.fixed_elementwise(self.ALPHA_FE)), ex),
            "fixed_share": (model(es.fixed_share(self.W, self.ALPHA_FS)), ex),
            "overconfident": (model(es.overconfident(self.W, self.ALPHA_OC)), safe),
            "switch": (model(es.switch(es.default_switch_config(k), k)), ex),
        }
        ops: list = [LoopOp(nm, m, self.data, experts=e, expected=self.ref[nm])
                     for nm, (m, e) in models.items()]
        ops += [CliOp("cli_" + nm, argv, out, self.n, self.ref[nm])
                for nm, (argv, out) in self.cli.items()]
        ops.append(PosteriorOp("posterior_fixed_share",
                               model(es.fixed_share(self.W, self.ALPHA_FS)),
                               self.data, self.ref_posterior, experts=ex))
        ops.append(MapOp("switch_map", es.default_switch_config(k), self.data,
                         self.map_ref, experts=ex))
        return ops


class AdaptiveExperts(Workload):
    """KT, Laplace, Markov and constant experts on piecewise-Bernoulli data.

    The CLI, the posterior and the MAP decoder read the first N_OFFLINE
    steps, which keeps each of those calls short (see README.md)."""

    name = "adaptive-experts"
    specs = (("kt",), ("laplace",), ("markov", (0.5, 0.5), ((0.85, 0.15), (0.15, 0.85))),
             ("const", (0.7, 0.3)))
    W = (0.25, 0.25, 0.25, 0.25)
    ALPHA_FS = 0.01
    N = 500
    N_OFFLINE = 200

    def __init__(self, seed: int, workdir: Path, n: int = N):
        super().__init__(seed, workdir, n)
        self.data = _piecewise_bernoulli(self.rng, n, 150.0, lambda r: r.uniform(0.05, 0.95))
        lp = reference.realized(self.specs, self.data, 2)
        self.ref = {
            "fixed_share": reference.fixed_share(lp, self.W, self.ALPHA_FS),
            "switch": reference.switch(lp, self.W, 0.5, reference.inv_poly_hazard),
        }
        m = min(self.N_OFFLINE, n)
        self.prefix, lp = self.data[:m], lp[:m]
        self.data_path = self._write_data(self.prefix)
        self.ref_prefix = reference.fixed_share(lp, self.W, self.ALPHA_FS)
        self.ref_posterior = reference.fixed_share_posterior(lp, self.W, self.ALPHA_FS)
        builtin = ["--experts", "builtin:" + ";".join(_builtin(s) for s in self.specs)]
        self.cli = self._cli("fixed_share", "fixed-share",
                             builtin + ["--alpha", repr(self.ALPHA_FS)], "csv")
        self.map_ref = MapReference(lp, es.default_switch_config(len(self.specs)),
                                    reference.inv_poly_hazard)

    def _ops(self, experts, model) -> list:
        k = len(self.specs)
        ex = experts([_expert(s) for s in self.specs])
        ops: list = [
            LoopOp("fixed_share", model(es.fixed_share(self.W, self.ALPHA_FS)), self.data,
                   experts=ex, expected=self.ref["fixed_share"]),
            LoopOp("switch", model(es.switch(es.default_switch_config(k), k)), self.data,
                   experts=ex, expected=self.ref["switch"]),
        ]
        argv, out = self.cli
        ops.append(CliOp("cli_fixed_share", argv, out, len(self.prefix), self.ref_prefix))
        ops.append(PosteriorOp("posterior_fixed_share",
                               model(es.fixed_share(self.W, self.ALPHA_FS)),
                               self.prefix, self.ref_posterior, experts=ex))
        ops.append(MapOp("switch_map", es.default_switch_config(k), self.prefix,
                         self.map_ref, experts=ex))
        return ops


class GrowingFrontier(Workload):
    """Models whose frontier grows with n, fed logpred matrices (k = 2).

    Every model runs on STREAMS independent data streams, so a round has
    enough steps for a 99th percentile while each step stays short."""

    name = "growing-frontier"
    specs = (("const", (0.75, 0.25)), ("const", (0.25, 0.75)))
    W = (0.5, 0.5)
    TRIM = 0.9999
    N = 100
    STREAMS = 2
    N_POSTERIOR = 60

    def __init__(self, seed: int, workdir: Path, n: int = N, n_posterior: int = N_POSTERIOR):
        super().__init__(seed, workdir, n)
        elias = reference.elias_delta_hazard(n + 1)
        self.streams = []
        for _ in range(self.STREAMS):
            data = _piecewise_bernoulli(self.rng, n, 40.0, lambda r: r.choice([0.15, 0.85]))
            lp = reference.realized(self.specs, data, 2)
            ref = {
                "run_length_inv_poly": reference.run_length(lp, self.W, reference.inv_poly_hazard),
                "run_length_elias": reference.run_length(lp, self.W, elias),
                "universal_share": reference.universal_share(lp, self.W),
                "universal_elementwise": reference.universal_elementwise2(lp),
            }
            self.streams.append((data, lp, ref))
        # The CLI, the posterior and the MAP decoder read the first stream.
        self.data, self.lp, _ = self.streams[0]
        self.data_path = self._write_data(self.data)
        advice = self._write_advice(self.lp, ["low", "high"])
        self.n_post = min(n_posterior, n)
        self.ref_posterior = reference.run_length_posterior(
            self.lp[:self.n_post], self.W, reference.inv_poly_hazard)
        self.cli = self._cli("run_length", "run-length",
                             ["--experts", f"file:{advice}", "--advice-mode", "realized",
                              "--pi-t", "inv-poly"], "json")
        self.map_ref = MapReference(self.lp, es.default_switch_config(2),
                                    reference.inv_poly_hazard)

    def _ops(self, experts, model) -> list:
        ops: list = []
        for j, (data, lp, ref) in enumerate(self.streams):
            loops = {
                "run_length_inv_poly": (model(es.run_length(es.inv_poly(), self.W)), None),
                "run_length_elias": (model(es.run_length(es.elias_delta(), self.W)), None),
                "universal_share": (model(es.universal_share(self.W)), None),
                # The visited-state budget lives on the model, so every
                # round needs a fresh one.
                "universal_elementwise": (model(es.universal_elementwise(2)), None),
                "run_length_inv_poly_trim": (model(es.run_length(es.inv_poly(), self.W)),
                                             es.trimming_hook(self.TRIM)),
            }
            ops += [LoopOp(f"{nm}/{j}", m, data, matrix=lp, hook=hook, expected=ref.get(nm),
                           below_peak_of=f"run_length_inv_poly/{j}" if hook else None)
                    for nm, (m, hook) in loops.items()]
        argv, out = self.cli
        ops.append(CliOp("cli_run_length", argv, out, self.n,
                         self.streams[0][2]["run_length_inv_poly"]))
        ops.append(PosteriorOp("posterior_run_length",
                               model(es.run_length(es.inv_poly(), self.W)),
                               self.data[:self.n_post], self.ref_posterior,
                               matrix=self.lp[:self.n_post]))
        ops.append(MapOp("switch_map", es.default_switch_config(2), self.data, self.map_ref,
                         matrix=self.lp))
        return ops


WORKLOADS = {w.name: w for w in (OnlineStream, AdaptiveExperts, GrowingFrontier)}

# Which loop each CLI operation repeats, for cli.overhead_s.
CLI_PAIRS = {
    "cli_bayes": "bayes", "cli_switch": "switch", "cli_overconfident": "overconfident",
    "cli_fixed_share": "fixed_share", "cli_fixed_elementwise": "fixed_elementwise",
    "cli_run_length": "run_length_inv_poly/0",
}
