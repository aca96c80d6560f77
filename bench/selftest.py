"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a tiny size through the same code paths as a
measured run (set-up, timed round, memory pass and traced round) and
requires that no operation fails. It then shows that the checks are not
vacuous: each case feeds one reference a deliberately wrong input, or
gives the program a frontier hook that breaks an invariant, and requires
that the affected operations are reported as failed. Exits 0 when every
case behaves as required.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import run

os.environ.update(run.THREAD_PINS)
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import expertseq as es  # noqa: E402
import reference  # noqa: E402
from workloads import AdaptiveExperts, GrowingFrontier, LoopOp, OnlineStream  # noqa: E402

TINY = {
    "online-stream": lambda d: OnlineStream(7, d, n=60),
    "adaptive-experts": lambda d: AdaptiveExperts(7, d, n=60),
    "growing-frontier": lambda d: GrowingFrontier(7, d, n=40, n_posterior=25),
}


@contextmanager
def replaced(attr: str, make):
    """Swap ``reference.<attr>`` for ``make(original)`` while the block runs."""
    orig = getattr(reference, attr)
    setattr(reference, attr, make(orig))
    try:
        yield
    finally:
        setattr(reference, attr, orig)


def _shifted_kt(f):
    # One phantom observation of symbol 0 before the data, KT only.
    return lambda data, size, a: f([0, *data], size, a)[1:] if a == 0.5 else f(data, size, a)


def _bumped_column(f):
    def wrong(lp):
        lp = lp.copy()
        lp[:, 0] += 0.01
        return f(lp)
    return wrong


# (what is wrong, workload, reference attribute, replacement, operations that must fail)
PERTURBED = [
    ("fixed-share alpha x1.5", "online-stream", "fixed_share",
     lambda f: lambda lp, w, alpha, keep=False: f(lp, w, alpha * 1.5, keep),
     {"fixed_share", "cli_fixed_share", "posterior_fixed_share"}),
    ("bayes weights not uniform", "online-stream", "bayes",
     lambda f: lambda lp, w: f(lp, [0.5, 0.25, 0.25]),
     {"bayes", "cli_bayes", "overconfident", "cli_overconfident"}),
    ("fixed-elementwise weights reversed", "online-stream", "fixed_elementwise",
     lambda f: lambda lp, alpha: f(lp, alpha[::-1]),
     {"fixed_elementwise", "cli_fixed_elementwise"}),
    ("switch theta x0.9", "online-stream", "switch",
     lambda f: lambda lp, w, theta, hazard: f(lp, w, theta * 0.9, hazard),
     {"switch", "cli_switch", "switch_map"}),
    ("KT count shifted by one", "adaptive-experts", "smoothed_rows", _shifted_kt,
     {"fixed_share", "switch", "cli_fixed_share", "posterior_fixed_share"}),
    ("inv-poly hazard 1/(d+2)", "growing-frontier", "inv_poly_hazard",
     lambda f: lambda d: f(np.asarray(d) + 1),
     {"run_length_inv_poly/0", "run_length_inv_poly/1", "posterior_run_length", "switch_map"}),
    ("Elias hazard x0.9", "growing-frontier", "elias_delta_hazard",
     lambda f: lambda m: (lambda h: lambda d: 0.9 * h(d))(f(m)),
     {"run_length_elias/0", "run_length_elias/1"}),
    ("universal-share weights 0.6/0.4", "growing-frontier", "universal_share",
     lambda f: lambda lp, w: f(lp, [0.6, 0.4]),
     {"universal_share/0", "universal_share/1"}),
    ("universal-elementwise likelihood bumped", "growing-frontier", "universal_elementwise2",
     _bumped_column, {"universal_elementwise/0", "universal_elementwise/1"}),
]


def failed_ops(wl) -> set[str]:
    rnd = run.Round(wl.build())
    rnd.run()
    rnd.check()
    return {name for name, _ in rnd.raised + rnd.wrong}


def check_clean(name: str, workdir: Path) -> list[str]:
    """A measured run and a traced run at tiny size, with no failures."""
    wl = TINY[name](workdir)
    tally = run.Tally()
    e2e = run.end_to_end(wl, 0.0, tally)
    layer = run.per_layer(wl, 0.0, tally)
    problems = [f"{tally.failed} of {tally.attempted} operations failed"] if tally.failed else []
    problems += [f"{k} = {v}" for k, v in e2e.items() if not (math.isfinite(v) and v > 0)]
    problems += [f"{k} missing" for k in run.PER_LAYER_UNITS if k not in layer]
    if (layer["experts.predict_calls"] > 0) == (name == "growing-frontier"):
        problems.append(f"experts.predict_calls = {layer['experts.predict_calls']}")
    if layer["hmm.transitions"] <= 0 or layer["models.arcs"] != layer["hmm.transitions"]:
        problems.append("models.arcs does not match hmm.transitions")
    if (layer["approx.trim_calls"] > 0) != (name == "growing-frontier"):
        problems.append(f"approx.trim_calls = {layer['approx.trim_calls']}")
    return problems


def check_program_invariants(workdir: Path) -> list[str]:
    """The mass and trimming checks catch a hook that breaks them."""
    wl = TINY["growing-frontier"](workdir)
    w = wl.W

    def leak(wm):
        return es.WeightMap({q: v - math.log(2.0) for q, v in wm.entries.items()}, wm.level)

    exact = LoopOp("exact", es.run_length(es.inv_poly(), w), wl.data, matrix=wl.lp)
    leaky = LoopOp("leaky", es.run_length(es.inv_poly(), w), wl.data, matrix=wl.lp, hook=leak)
    untrimmed = LoopOp("untrimmed", es.run_length(es.inv_poly(), w), wl.data, matrix=wl.lp,
                       hook=es.trimming_hook(1.0), below_peak_of="exact")
    rnd = run.Round([exact, leaky, untrimmed])
    rnd.run()
    rnd.check()
    wrong = dict(rnd.wrong)
    problems = []
    if "pre_update_total" not in wrong.get("leaky", ""):
        problems.append("a hook that halves the frontier mass passed the conservation check")
    if "not smaller" not in wrong.get("untrimmed", ""):
        problems.append("trimming at p = 1 passed the smaller-frontier check")
    if "exact" in wrong or rnd.raised:
        problems.append(f"unexpected failures: {rnd.wrong + rnd.raised}")
    return problems


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    bad = 0

    def report(what: str, problems: list[str]) -> None:
        nonlocal bad
        bad += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {what}" + "".join(f"\n       {p}" for p in problems))

    try:
        for name in TINY:
            report(f"{name}: clean run and traced run", check_clean(name, workdir))
        for what, name, attr, make, must_fail in PERTURBED:
            with replaced(attr, make):
                got = failed_ops(TINY[name](workdir))
            missing = sorted(must_fail - got)
            report(f"{name}: {what} is caught",
                   [f"not reported as failed: {', '.join(missing)}"] if missing else [])
        report("growing-frontier: broken mass and trimming are caught",
               check_program_invariants(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test " + ("passed" if not bad else f"FAILED in {bad} case(s)"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
