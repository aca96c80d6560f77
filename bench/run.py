"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload online-stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the run reports the end-to-end metrics, and with
``--trace 1`` the per-layer metrics of the traced run. ``--workload all``
runs every workload in turn and prints one line for each. The last line
of standard output is the result; progress and per-operation failures go
to standard error. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9

# Pinned before numpy is first imported, here and in the set-up children.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "steps_per_s": "steps/s", "step_p50_us": "us", "step_p99_us": "us",
    "cli_steps_per_s": "steps/s", "posterior_steps_per_s": "steps/s",
    "map_steps_per_s": "steps/s", "peak_mem_mb": "MB",
}

PER_LAYER_UNITS = {
    "experts.predict_calls": "count", "experts.predict_s": "s",
    "experts.history_len_sum": "count", "experts.redundant_calls": "count",
    "models.successors_calls": "count", "models.successors_s": "s", "models.arcs": "count",
    "hmm.propagate_calls": "count", "hmm.propagate_self_s": "s",
    "hmm.transitions": "count", "hmm.peak_weights": "count",
    "forward.advance_self_s": "s", "forward.backward_s": "s",
    "switch_map.self_s": "s", "switch_map.ops": "count",
    "approx.trim_calls": "count", "approx.trim_s": "s",
    "cli.overhead_s": "s", "cli.bytes_out": "count",
    "trace.overhead_s": "s",
}

# Each set-up child imports the package from the given source directory
# and reports how long the import took.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import expertseq
dt = time.perf_counter() - t0
print(dt, expertseq.__file__)
"""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_seconds() -> float:
    """Time of ``import expertseq`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    dt, where = proc.stdout.split()
    if Path(where).resolve().parent != SRC / "expertseq":
        raise RuntimeError(f"set-up child imported expertseq from {where}")
    return float(dt)


def measure_setup(wl) -> float:
    """Median over SETUP_REPS of importing the package in a fresh
    interpreter plus building one round's experts and models."""
    import_seconds()   # writes the bytecode cache, so later imports are alike
    reps = []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        t0 = time.perf_counter()
        wl.build()
        reps.append(imp + time.perf_counter() - t0)
    return statistics.median(reps)


class Round:
    """Runs one round of operations and checks every output."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.outcomes = {}
        self.raised = []   # (operation, error) for calls that raised
        self.wrong = []    # (operation, problems) for outputs that failed a check
        self.redundant = 0

    def run(self) -> float:
        t0 = time.perf_counter()
        for op in self.ops:
            before = self.tracer.calls("experts.predict") if self.tracer else 0
            try:
                self.outcomes[op.name] = op.run(self.tracer)
            except Exception as e:  # one failed operation; the round goes on
                self.raised.append((op.name, f"{type(e).__name__}: {e}"))
                continue
            if self.tracer is not None and op.expert_calls is not None:
                calls = self.tracer.calls("experts.predict") - before
                self.redundant += max(0, calls - op.expert_calls)
        return time.perf_counter() - t0

    def check(self) -> None:
        done = {name: out.value for name, out in self.outcomes.items()}
        for op in self.ops:
            if op.name not in self.outcomes:
                continue
            try:
                errs = op.check(self.outcomes[op.name].value, done)
            except Exception as e:
                self.raised.append((op.name, f"check raised {type(e).__name__}: {e}"))
                continue
            if errs:
                self.wrong.append((op.name, "; ".join(errs)))



def best_of(rounds: list[Round]) -> dict:
    """Per operation, the fastest call time over the rounds; for a loop,
    every step's fastest latency and their sum. Every round repeats the
    same work, so the fastest sample of each piece is the one least
    disturbed by whatever else runs on the machine."""
    import numpy as np
    best = {}
    for op in rounds[0].ops:
        outs = [r.outcomes[op.name] for r in rounds if op.name in r.outcomes]
        if not outs:
            continue
        if op.kind == "loop":
            steps = np.min(np.stack([o.step_ns for o in outs]), axis=0)
            best[op.name] = (op, steps.sum() / 1e9, steps)
        else:
            best[op.name] = (op, min(o.seconds for o in outs), None)
    return best


def rate(best: dict, kind: str) -> float:
    """Steps per second over the operations of one kind."""
    done = [(op, sec) for op, sec, _ in best.values() if op.kind == kind]
    seconds = sum(sec for _, sec in done)
    return sum(op.n for op, _ in done) / seconds if done else 0.0


def cli_overhead(best: dict) -> float:
    """CLI time minus the library loop's time over the same model and the
    same steps (a CLI call may read a prefix of the loop's data)."""
    from workloads import CLI_PAIRS
    return sum(sec - best[CLI_PAIRS[op.name]][2][:op.n].sum() / 1e9
               for op, sec, _ in best.values()
               if op.kind == "cli" and CLI_PAIRS[op.name] in best)


class Tally:
    """Operations attempted and failed over a run; ``wrong`` counts those
    whose output failed a check, which makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def add(self, rnd: Round) -> None:
        rnd.check()
        self.attempted += len(rnd.ops)
        self.failed += len(rnd.raised) + len(rnd.wrong)
        self.wrong += len(rnd.wrong)
        for name, why in rnd.raised + rnd.wrong:
            log(f"  FAILED {name}: {why}")


def timed_rounds(wl, seconds: float, tally: Tally) -> list[Round]:
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round(wl.build())
        gc.collect()
        rnd.run()
        tally.add(rnd)
        rounds.append(rnd)
        if time.perf_counter() >= deadline:
            return rounds


def memory_pass(wl, tally: Tally) -> float:
    """tracemalloc peak, in MB, of one round run apart from the timed ones."""
    rnd = Round(wl.build())
    gc.collect()
    tracemalloc.start()
    try:
        rnd.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.add(rnd)
    return peak / 1e6


def end_to_end(wl, seconds: float, tally: Tally) -> dict:
    import numpy as np
    t0 = time.perf_counter()
    setup = measure_setup(wl)
    t1 = time.perf_counter()
    rounds = timed_rounds(wl, seconds, tally)
    t2 = time.perf_counter()
    best = best_of(rounds)
    steps = np.concatenate([st for op, _, st in best.values() if op.kind == "loop"] or [[0]])
    values = {
        "setup_s": setup,
        "steps_per_s": rate(best, "loop"),
        "step_p50_us": np.percentile(steps, 50) / 1e3,
        "step_p99_us": np.percentile(steps, 99) / 1e3,
        "cli_steps_per_s": rate(best, "cli"),
        "posterior_steps_per_s": rate(best, "posterior"),
        "map_steps_per_s": rate(best, "map"),
    }
    values["peak_mem_mb"] = memory_pass(wl, tally)
    log(f"  set-up {t1 - t0:.1f} s, {len(rounds)} timed rounds in {t2 - t1:.1f} s "
        f"with {len(steps)} advance samples each, "
        f"memory pass {time.perf_counter() - t2:.1f} s")
    return values


def per_layer(wl, seconds: float, tally: Tally) -> dict:
    """Alternates untraced and traced rounds. Layer times are the fastest
    of the traced rounds and counts are those of one round (every round
    repeats them); the CLI and tracing overheads come from comparing with
    the fastest untraced round."""
    from tracing import Tracer, patched
    samples: dict[str, list[float]] = {}
    plain, plain_wall, traced_wall = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        rnd = Round(wl.build())
        gc.collect()
        plain_wall.append(rnd.run())
        tally.add(rnd)
        plain.append(rnd)

        tracer = Tracer()
        rnd = Round(wl.build(tracer), tracer)
        gc.collect()
        with patched(tracer):
            traced_wall.append(rnd.run())
        tally.add(rnd)
        t = tracer
        layer = {
            "experts.predict_calls": t.calls("experts.predict"),
            "experts.predict_s": t.total_s("experts.predict"),
            "experts.history_len_sum": t.counts.get("experts.history_len_sum", 0),
            "experts.redundant_calls": rnd.redundant,
            "models.successors_calls": t.calls("models.successors"),
            "models.successors_s": t.total_s("models.successors"),
            "models.arcs": t.counts.get("models.arcs", 0),
            "hmm.propagate_calls": t.calls("hmm.propagate"),
            "hmm.propagate_self_s": t.self_s("hmm.propagate"),
            "hmm.transitions": t.counts.get("hmm.transitions", 0),
            "hmm.peak_weights": t.counts.get("hmm.peak_weights", 0),
            "forward.advance_self_s": t.self_s("forward.advance"),
            "forward.backward_s": t.self_s("forward.posterior"),
            "switch_map.self_s": t.self_s("switch_map"),
            "switch_map.ops": t.counts.get("switch_map.ops", 0),
            "approx.trim_calls": t.calls("approx.trim"),
            "approx.trim_s": t.total_s("approx.trim"),
            "cli.bytes_out": t.counts.get("cli.bytes_out", 0),
        }
        for k, v in layer.items():
            samples.setdefault(k, []).append(v)
        if time.perf_counter() >= deadline:
            break
    values = {k: min(v) for k, v in samples.items()}
    values["cli.overhead_s"] = cli_overhead(best_of(plain))
    values["trace.overhead_s"] = min(traced_wall) - min(plain_wall)
    log(f"  {len(traced_wall)} traced and {len(plain_wall)} untraced rounds")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        log(f"{name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
        wl = WORKLOADS[name](seed, workdir)
        tally = Tally()
        if trace:
            values, units = per_layer(wl, seconds, tally), PER_LAYER_UNITS
        else:
            values, units = end_to_end(wl, seconds, tally), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"  {tally.attempted} operations attempted, {tally.failed} failed")
    return {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["online-stream", "adaptive-experts", "growing-frontier", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "expertseq" / "__init__.py").is_file():
        log(f"error: no expertseq package under {SRC}; run from a source checkout")
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import expertseq
    if Path(expertseq.__file__).resolve().parent != SRC / "expertseq":
        log(f"error: imported expertseq from {expertseq.__file__}, not {SRC}")
        return 2

    names = (["online-stream", "adaptive-experts", "growing-frontier"]
             if args.workload == "all" else [args.workload])
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
