import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expertseq as es
import expertseq.cli as cli_mod
from expertseq.cli import main
from oracles import Counting, LateShare, record_stream


def write(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "data.txt"
    write(p, "0\n0\n1\n0\n")
    return p


BASE = ["--alphabet", "0,1", "--experts", "builtin:const:0.8,0.2;const:0.5,0.5"]


class TestEvaluate:
    def test_bayes_total_matches_hand_mixture(self, tmp_path, data_file):
        out = tmp_path / "out.csv"
        rc = main(["evaluate", str(data_file), "--model", "bayes", *BASE, "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "step"
        total = float(rows[-1].split(",")[-1])
        # hand computation: 1/2 * (0.8*0.8*0.2*0.8) + 1/2 * 0.5^4
        want = -math.log2(0.5 * (0.8 * 0.8 * 0.2 * 0.8) + 0.5 * 0.5 ** 4)
        assert total == pytest.approx(want, rel=1e-10)
        assert len(rows) == 5  # header + 4 steps

    def test_fixed_share_zero_equals_bayes_byte_identical(self, tmp_path, data_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["evaluate", str(data_file), "--model", "bayes", *BASE,
                     "--out", str(out1)]) == 0
        assert main(["evaluate", str(data_file), "--model", "fixed-share", "--alpha", "0",
                     *BASE, "--out", str(out2)]) == 0
        body1 = out1.read_text().splitlines()[1:]
        body2 = out2.read_text().splitlines()[1:]
        assert body1 == body2

    def test_deterministic_output(self, tmp_path, data_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["evaluate", str(data_file), "--model", "switch", *BASE]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_carries_totals(self, tmp_path, data_file):
        out = tmp_path / "out.json"
        assert main(["evaluate", str(data_file), "--model", "bayes", *BASE,
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 4
        assert doc["steps"][0]["next_outcome"]["0"] == pytest.approx(0.65, abs=1e-9)

    def test_advice_file_full_mode(self, tmp_path, data_file):
        advice = tmp_path / "advice.csv"
        write(advice, "a,b\n" + "0.8,0.2,0.5,0.5\n" * 4)
        out = tmp_path / "out.csv"
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", f"file:{advice}", "--out", str(out)])
        assert rc == 0
        want = -math.log2(0.5 * (0.8 * 0.8 * 0.2 * 0.8) + 0.5 * 0.5 ** 4)
        total = float(out.read_text().strip().splitlines()[-1].split(",")[-1])
        assert total == pytest.approx(want, rel=1e-10)

    def test_advice_row_count_mismatch_names_row(self, tmp_path, data_file, capsys):
        advice = tmp_path / "advice.csv"
        write(advice, "a,b\n" + "0.8,0.2,0.5,0.5\n" * 3)
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", f"file:{advice}"])
        assert rc == 2
        assert "3" in capsys.readouterr().err

    def test_realized_mode_drops_outcome_columns(self, tmp_path, data_file):
        advice = tmp_path / "advice.csv"
        write(advice, "a,b\n" + "0.8,0.5\n0.8,0.5\n0.2,0.5\n0.8,0.5\n")
        out = tmp_path / "out.csv"
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", f"file:{advice}", "--advice-mode", "realized",
                   "--out", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert "p_out:" not in header and "p_exp:a" in header
        want = -math.log2(0.5 * (0.8 * 0.8 * 0.2 * 0.8) + 0.5 * 0.5 ** 4)
        total = float(out.read_text().strip().splitlines()[-1].split(",")[-1])
        assert total == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mode,row", [("realized", "nan,0.5"), ("full", "nan,0.2,0.5,0.5")])
    def test_nan_advice_exit_code(self, tmp_path, data_file, mode, row):
        advice = tmp_path / "advice.csv"
        good = "0.8,0.5" if mode == "realized" else "0.8,0.2,0.5,0.5"
        write(advice, f"a,b\n{good}\n{row}\n{good}\n{good}\n")
        out = tmp_path / "out.json"
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", f"file:{advice}", "--advice-mode", mode,
                   "--format", "json", "--out", str(out)])
        assert rc == 2

    def test_zero_marginal_exit_code(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "1\n")
        rc = main(["evaluate", str(data), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", "builtin:const:1,0"])
        assert rc == 3

    def test_bad_symbol_exit_code(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        write(data, "0\n2\n")
        rc = main(["evaluate", str(data), "--model", "bayes", *BASE])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_trim_runs(self, tmp_path, data_file):
        out = tmp_path / "out.csv"
        rc = main(["evaluate", str(data_file), "--model", "run-length", *BASE,
                   "--trim", "0.999", "--out", str(out)])
        assert rc == 0

    def test_long_universal_elementwise_stream(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0\n1\n0\n" * 240)
        out = tmp_path / "out.json"
        rc = main(["evaluate", str(data), "--model", "universal-elementwise", *BASE,
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 720 and math.isfinite(doc["total_bits"])

    def test_state_budget_exit_code(self, tmp_path, data_file, monkeypatch, capsys):
        # Two experts and a budget of 3 count states: level 3 needs 4.
        real = es.models.universal_elementwise
        monkeypatch.setattr(es.models, "universal_elementwise",
                            lambda k: real(k, state_budget=3))
        rc = main(["evaluate", str(data_file), "--model", "universal-elementwise", *BASE])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: universal elementwise")


def evaluate_numbers(args, model, experts, matrix, data, loop: bool):
    """Each step's log conditional and next-expert and next-outcome log
    distributions, one step at a time: from the forward scan where
    evaluate takes it and ``loop`` is false, else from a ForwardPass."""
    windows = None
    if not loop and args.trim is None:
        windows = es.forward._scan_forward(model, experts, data, matrix)
    if windows is not None:
        for cond, expert, outcome in windows:
            for i in range(len(cond)):
                yield float(cond[i]), expert[i], None if outcome is None else outcome[i]
        return
    hook = es.trimming_hook(args.trim) if args.trim is not None else None
    fp = es.ForwardPass(model, experts, logpred_matrix=matrix, frontier_hook=hook,
                        want_outcome_dists=experts is not None, keep_steps=False)
    for x in data:
        fp.advance(x)
        yield fp.last_step.log_cond, fp.last_step.expert_dist, fp.last_step.outcome_dist


def reference_evaluate(argv: list[str], loop: bool = False, numbers=None) -> bytes:
    """What evaluate writes for argv, each row built from scratch from its
    step's numbers (see evaluate_numbers, or ``numbers`` where given): a
    dict of float(_fmt(v)) values through json.dumps(..., sort_keys=True),
    or a join of one _fmt cell per value."""
    args = cli_mod._build_parser().parse_args(argv)
    alphabet, data, names, experts, matrix, model, _ = cli_mod._load_inputs(args)
    fmt, symbols, full = cli_mod._fmt, alphabet.symbols, experts is not None
    cum, rows = 0.0, []
    if numbers is None:
        numbers = evaluate_numbers(args, model, experts, matrix, data, loop)
    for i, (x, (log_cond, expert_dist, outcome_dist)) in enumerate(zip(data, numbers)):
        bits = es.to_bits(log_cond)
        cum += bits
        expert_dist = np.exp(expert_dist)
        outcome_dist = np.exp(outcome_dist) if full else []
        if args.format == "json":
            entry = {"step": i + 1, "symbol": symbols[x],
                     "bits": float(fmt(bits)), "cum_bits": float(fmt(cum)),
                     "next_expert": {nm: float(fmt(v)) for nm, v in zip(names, expert_dist)}}
            if full:
                entry["next_outcome"] = {s: float(fmt(v)) for s, v in zip(symbols, outcome_dist)}
            rows.append(("," if i else "") + "\n" + json.dumps(entry, sort_keys=True))
        else:
            cells = [str(i + 1), symbols[x], *map(fmt, outcome_dist), *map(fmt, expert_dist),
                     fmt(bits), fmt(cum)]
            rows.append(",".join(cells) + "\n")
    if args.format == "json":
        text = '{\n"steps": [' + "".join(rows) + (
            f'\n],\n"n": {len(data)},\n"total_bits": {fmt(cum)}\n}}\n')
    else:
        cols = ["step", "symbol", *(f"p_out:{s}" for s in symbols if full),
                *(f"p_exp:{nm}" for nm in names), "bits", "cum_bits"]
        text = ",".join(cols) + "\n" + "".join(rows)
    return text.encode("utf-8")


class TestRowBytes:
    """evaluate's rows, laid out once per run, are the bytes of rows built
    one at a time from the same numbers: names that JSON escapes or that
    hold a '%', an alphabet listed out of sorted order, and probabilities
    exactly 0 and 1. Bayes and fixed share are scanned, so their numbers
    come from the forward scan; switch with --trim from a ForwardPass."""

    # Alphabet c,a,b: symbol 1 is "a", symbol 2 is "b".
    DATA = "a\na\nc\nb\na\nc\na\nb\n"
    NAMES = ['q"uote', "back\\slash", "été", "50%"]

    @pytest.fixture
    def inputs(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, self.DATA)
        symbols = self.DATA.split()
        # Step 1 puts every expert's mass on "a", the outcome that comes;
        # then q"uote keeps it there and 50% moves it to "b", so each dies
        # at the first step its symbol misses. In realized mode été dies at
        # the first "b" too, which leaves back\slash all the weight.
        full = [",".join(["0,1,0"] * 4)]
        full += ["0,1,0,0.25,0.5,0.25,0.5,0.25,0.25,0,0,1"] * (len(symbols) - 1)
        realized = [f"{int(s == 'a')},0.25,{0 if s == 'b' else 0.5},{int(s == 'b')}"
                    for s in symbols]
        header = ",".join(self.NAMES) + "\n"
        write(tmp_path / "full.csv", header + "\n".join(full) + "\n")
        write(tmp_path / "realized.csv", header + "\n".join(realized) + "\n")
        return {"builtin": [str(data), "--experts",
                            "builtin:const:0,1,0;kt;markov:0.2,0.3,0.5|1,0,0|0,1,0|0,0,1"],
                "full": [str(data), "--experts", f"file:{tmp_path / 'full.csv'}"],
                "realized": [str(data), "--experts", f"file:{tmp_path / 'realized.csv'}",
                             "--advice-mode", "realized"]}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["builtin", "full", "realized"])
    @pytest.mark.parametrize("model", [["bayes"], ["fixed-share", "--alpha", "0.1"],
                                       ["switch", "--trim", "0.9"]],
                             ids=["bayes", "fixed-share", "switch-trim"])
    def test_rows_match_rows_built_one_at_a_time(self, tmp_path, inputs, fmt, source, model):
        out = tmp_path / f"out.{fmt}"
        argv = ["evaluate", *inputs[source], "--alphabet", "c,a,b", "--model", *model,
                "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        got = out.read_bytes()
        assert got == reference_evaluate(argv)
        if source != "builtin" and model == ["bayes"]:
            # The cases where %.12g and JSON write a number differently.
            text = got.decode("utf-8")
            assert (": 0.0" in text and ": 1.0" in text) if fmt == "json" else (
                ",0," in text and ",1," in text)

    # JSON cells whose "%.12g" text is an integer or has an exponent of 12 to
    # 15, where repr writes another text, and cells where the two agree.
    CELLS = [0.0, 1.0, 100.0, 1e-5, 1e11, 1e12, 1e15, 1e16, 0.123456789012, 1.5e12, 2.5e-7,
             123456789012.5]

    @pytest.mark.parametrize("source", ["builtin", "realized"])
    def test_json_cells_are_the_json_dumps_text(self, tmp_path, monkeypatch, inputs, source):
        # Each value comes as bits, as -bits and in each expert's and each
        # outcome's column, alone in its row or with others of its kind.
        n, cells = 2 * len(self.CELLS), np.array(self.CELLS)
        data = tmp_path / "cells.txt"
        write(data, "a\nb\nc\n" * (n // 3) + "a\n" * (n % 3))
        if source == "realized":
            write(tmp_path / "cells.csv", ",".join(self.NAMES) + "\n" + "0.5,0.5,0.5,0.5\n" * n)
            experts = ["--experts", f"file:{tmp_path / 'cells.csv'}", "--advice-mode", "realized"]
        else:
            experts = inputs["builtin"][1:]
        with np.errstate(divide="ignore"):
            logs = np.log(cells)
        numbers = [(math.log(2) * cells[i % len(cells)] * (-1) ** (i // len(cells) + 1),
                    np.roll(logs, -i)[:len(self.NAMES) - (source == "builtin")],
                    np.roll(logs, -3 * i)[:3]) for i in range(n)]
        numbers[-1] = (numbers[-1][0], np.log(np.full(4 - (source == "builtin"), 0.25)),
                       np.log([0.5, 0.25, 0.25]))
        full = source == "builtin"
        steps = [(c, np.exp(e).tolist(), np.exp(o).tolist() if full else [])
                 for c, e, o in numbers]
        monkeypatch.setattr(cli_mod, "_step_rows", lambda *args: iter(steps))
        argv = ["evaluate", str(data), *experts, "--alphabet", "c,a,b", "--model", "bayes",
                "--format", "json"]
        out = tmp_path / "cells.json"
        assert main(argv + ["--out", str(out)]) == 0
        got = out.read_bytes()
        assert got == reference_evaluate(argv, numbers=numbers)
        for text in (": 0.0,", ": 100.0", ": 1e-05", ": 100000000000.0", ": 1000000000000.0",
                     ": 1000000000000000.0", ": 1e+16", ": 1500000000000.0", ": -1.0,"):
            assert text.encode() in got
        assert json.loads(got)["n"] == n

    def test_cached_parser_keeps_nothing_between_calls(self, tmp_path, data_file):
        assert cli_mod._build_parser() is cli_mod._build_parser()
        argv = ["evaluate", str(data_file), "--model", "switch", *BASE]
        first, second, fresh = (tmp_path / f"{nm}.csv" for nm in ("first", "second", "fresh"))
        assert main(argv + ["--theta", "0.2", "--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        cli_mod._build_parser.cache_clear()
        assert main(argv + ["--out", str(fresh)]) == 0
        assert second.read_bytes() == fresh.read_bytes() != first.read_bytes()


NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def assert_same_numbers(got: str, ref: str) -> None:
    """The same text between numbers, and every number within 1e-11
    relative; a zero, and an inf or nan (not read as a number), must be
    the same text."""
    assert NUMBER.split(got) == NUMBER.split(ref)
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(ref)):
        if float(a) == 0.0 or float(b) == 0.0:
            assert a == b
        else:
            assert abs(float(a) - float(b)) <= 1e-11 * abs(float(b)), (a, b)


class TestScannedEvaluate:
    """evaluate without --trim runs a scan-eligible model as a forward
    scan; --trim 1 keeps every state, so it runs the loop on the same
    numbers."""

    SCANNED = {"bayes": ["bayes"], "fixed-share": ["fixed-share", "--alpha", "0.1"],
               "fixed-elementwise": ["fixed-elementwise"],
               "overconfident": ["overconfident", "--alpha", "0.2"], "switch": ["switch"]}
    N = 40

    @pytest.fixture
    def inputs(self, tmp_path):
        # Expert 0 rules out symbol 2, so its weight goes to 0 where a 2
        # comes; the realized advice has zeros of its own.
        rng = np.random.default_rng(11)
        data = tmp_path / "d.txt"
        symbols = [int(x) for x in rng.integers(0, 3, self.N)]
        write(data, "".join(f"{x}\n" for x in symbols))
        full = np.concatenate([np.tile([0.6, 0.4, 0.0], (self.N, 1)),
                               rng.dirichlet(np.ones(3), (self.N, 2)).reshape(self.N, 6)], axis=1)
        realized = rng.uniform(0.1, 1.0, (self.N, 3))
        realized[rng.uniform(size=(self.N, 3)) < 0.1] = 0.0
        realized[:, 2] = np.maximum(realized[:, 2], 0.05)
        for name, table in (("full", full), ("realized", realized)):
            write(tmp_path / f"{name}.csv", "a,b,c\n" + "".join(
                ",".join(map(repr, row)) + "\n" for row in table.tolist()))
        return {"builtin": [str(data), "--experts",
                            "builtin:const:0.6,0.4,0;kt;markov:0.2,0.3,0.5|0.8,0.1,0.1|"
                            "0.1,0.8,0.1|0.1,0.1,0.8"],
                "full": [str(data), "--experts", f"file:{tmp_path / 'full.csv'}"],
                "realized": [str(data), "--experts", f"file:{tmp_path / 'realized.csv'}",
                             "--advice-mode", "realized"]}

    def run(self, tmp_path, monkeypatch, argv, scanned: bool):
        """(exit code, output text, stderr) of one run: without --trim and
        with ForwardPass refused, or with --trim 1."""
        out = tmp_path / "out.txt"
        with monkeypatch.context() as m:
            if scanned:
                m.setattr(es.forward, "ForwardPass", None)
            rc = main(argv + ["--out", str(out)] + ([] if scanned else ["--trim", "1"]))
        return rc, out.read_text(encoding="utf-8"), self.capsys.readouterr().err

    @pytest.fixture(autouse=True)
    def _capsys(self, capsys):
        self.capsys = capsys

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["builtin", "full", "realized"])
    @pytest.mark.parametrize("model", SCANNED)
    def test_scan_matches_loop(self, tmp_path, monkeypatch, inputs, fmt, source, model):
        argv = ["evaluate", *inputs[source], "--alphabet", "0,1,2", "--model",
                *self.SCANNED[model], "--format", fmt]
        fast = self.run(tmp_path, monkeypatch, argv, True)
        ref = self.run(tmp_path, monkeypatch, argv, False)
        assert fast[0] == ref[0] == 0
        assert_same_numbers(fast[1], ref[1])
        if fmt == "csv":
            assert len(fast[1].splitlines()) == self.N + 1
            assert ",0," in fast[1]

    @pytest.mark.parametrize("step", [1, 4, 5, 7])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["builtin", "realized"])
    @pytest.mark.parametrize("model", ["bayes", "fixed-share", "fixed-elementwise", "switch"])
    def test_zero_mass_leaves_the_same_rows(self, tmp_path, monkeypatch, model, source, fmt,
                                            step):
        # Windows of 4 rows; every expert gives the outcome at ``step``
        # probability 0.
        monkeypatch.setattr(es.forward, "SCAN_ROWS", 4)
        data = tmp_path / "d.txt"
        symbols = ["1"] * 9
        symbols[step - 1] = "2"
        write(data, "\n".join(symbols) + "\n")
        if source == "builtin":
            experts = ["--experts", "builtin:const:0.3,0.7,0;const:0.6,0.4,0"]
        else:
            advice = tmp_path / "advice.csv"
            write(advice, "a,b\n" + "".join("0,0\n" if s == "2" else "0.7,0.4\n"
                                            for s in symbols))
            experts = ["--experts", f"file:{advice}", "--advice-mode", "realized"]
        argv = ["evaluate", str(data), "--alphabet", "0,1,2", *experts,
                "--model", *self.SCANNED[model], "--format", fmt]
        fast = self.run(tmp_path, monkeypatch, argv, True)
        ref = self.run(tmp_path, monkeypatch, argv, False)
        assert fast[0] == ref[0] == 3
        assert fast[2] == ref[2] == f"error: marginal is zero at step {step}\n"
        assert_same_numbers(fast[1], ref[1])
        if fmt == "csv":
            assert len(fast[1].splitlines()) == step

    @pytest.mark.parametrize("n", [7, 8, 9, 17])
    @pytest.mark.parametrize("model", SCANNED)
    def test_window_edges(self, tmp_path, monkeypatch, inputs, model, n):
        # Windows of 8 rows: n = W - 1, W, W + 1 and 2W + 1. Each builtin
        # expert's stream gives n forecasts and is sent n - 1 outcomes.
        monkeypatch.setattr(es.forward, "SCAN_ROWS", 8)
        data = tmp_path / "short.txt"
        symbols = (Path(inputs["builtin"][0]).read_text().split())[:n]
        write(data, "\n".join(symbols) + "\n")
        argv = ["evaluate", str(data), *inputs["builtin"][1:], "--alphabet", "0,1,2",
                "--model", *self.SCANNED[model]]
        counted = []
        real = cli_mod._parse_builtin

        def parse(spec, size):
            experts, names = real(spec, size)
            counted[:] = [Counting(e) for e in experts]
            return counted, names

        monkeypatch.setattr(cli_mod, "_parse_builtin", parse)
        fast = self.run(tmp_path, monkeypatch, argv, True)
        assert [(e.rows, e.sent) for e in counted] == [(n, [int(x) for x in symbols[:-1]])] * 3
        ref = self.run(tmp_path, monkeypatch, argv, False)
        assert fast[0] == ref[0] == 0
        assert_same_numbers(fast[1], ref[1])
        assert len(fast[1].splitlines()) == n + 1

    @pytest.mark.parametrize("source", ["builtin", "full"])
    @pytest.mark.parametrize("model", SCANNED)
    def test_experts_are_read_a_window_at_a_time(self, tmp_path, monkeypatch, inputs, model,
                                                 source):
        # Windows of 8 rows: the scan reads every builtin and advice expert
        # through its window reader and opens none of their per-step streams.
        monkeypatch.setattr(es.forward, "SCAN_ROWS", 8)
        counts = [record_stream(monkeypatch, cls)[0] for cls in
                  (es.KTEstimator, es.LaplaceEstimator, es.ConstantExpert, es.MarkovExpert,
                   es.AdviceExpert)]
        argv = ["evaluate", *inputs[source], "--alphabet", "0,1,2", "--model",
                *self.SCANNED[model]]
        if source == "builtin":
            argv[3] += ";laplace"
        rc, text, _ = self.run(tmp_path, monkeypatch, argv, True)
        assert rc == 0 and len(text.splitlines()) == self.N + 1
        assert counts == [[0]] * len(counts)

    @pytest.mark.parametrize("case", ["run-length", "open-table", "past-scan-states"])
    def test_other_models_keep_the_loop(self, tmp_path, monkeypatch, inputs, case):
        # A model that is neither stationary nor has per-level tables, one
        # whose table is not closed, and fixed share over SCAN_STATES + 1 experts.
        argv = ["evaluate", *inputs["builtin"], "--alphabet", "0,1,2",
                "--model", "run-length" if case == "run-length" else "fixed-share"]
        if case != "run-length":
            argv += ["--alpha", "0.1"]
        if case == "open-table":
            monkeypatch.setattr(cli_mod.models, "fixed_share", LateShare)
        if case == "past-scan-states":
            k = es.forward.SCAN_STATES + 1
            argv[argv.index("--experts") + 1] = "builtin:" + ";".join(["const:0.6,0.3,0.1"] * k)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == reference_evaluate(argv, loop=True)


# Which engine each pass takes, S for the scan and L for the loop: the
# posterior, evaluate, evaluate with --trim, bounds ("-" where bounds
# defines no report), and expert_sequence_prior of the posterior's model.
# The case is the model and its k experts. Late share is fixed share with
# an open table, except at rate 0, where its one state routes only to
# itself: its bounds scan rate 0 and loop rate 1/(n - 1) (M).
ENGINES = [
    ("bayes", 2, "SSLSS"), ("fixed-elementwise", 2, "SSL-S"),
    ("universal-elementwise", 2, "LLLLL"), ("fixed-share", 2, "SSLSS"),
    ("universal-share", 2, "LLLLL"), ("overconfident", 2, "SSL-S"), ("switch", 2, "SSLSS"),
    ("run-length", 2, "LLLLL"), ("fixed-share", es.forward.SCAN_STATES + 1, "LLLLL"),
    ("switch", es.forward.SCAN_LEVEL_STATES // 2 + 1, "LLLLL"), ("late-share", 2, "LLLML"),
]


@pytest.mark.parametrize("model, k, engines", ENGINES, ids=[f"{m}-{k}" for m, k, _ in ENGINES])
@pytest.mark.parametrize("forced", [False, True], ids=["chosen", "loop-forced"])
def test_engine_per_pass(tmp_path, monkeypatch, model, k, engines, forced):
    # A pass scans when it builds a _Blocks and loops when it makes a
    # frontier core, never both; with _scan_start refusing every model,
    # each pass loops.
    data = tmp_path / "d.txt"
    write(data, "".join(f"{x}\n" for x in np.random.default_rng(k).integers(0, 2, 12)))
    argv = [str(data), "--alphabet", "0,1", "--experts",
            "builtin:" + ";".join(f"const:{0.1 + 0.8 * j / k:.3f},{0.9 - 0.8 * j / k:.3f}"
                                  for j in range(k)),
            "--model", "fixed-share" if model == "late-share" else model]
    if model == "late-share":
        monkeypatch.setattr(cli_mod.models, "fixed_share", LateShare)
    alpha = ["--alpha", "0.1"] if argv[-1] in ("fixed-share", "overconfident") else []
    runs = {"scans": 0, "cores": 0}
    real_blocks, real_core = es.forward._Blocks, es.forward._new_core

    class Blocks(real_blocks):
        def __init__(self, *args):
            runs["scans"] += 1
            super().__init__(*args)

    def new_core(*args):
        runs["cores"] += 1
        return real_core(*args)

    monkeypatch.setattr(es.forward, "_Blocks", Blocks)
    monkeypatch.setattr(es.forward, "_new_core", new_core)
    built, posterior = [], cli_mod.posterior_experts
    monkeypatch.setattr(cli_mod, "posterior_experts",
                        lambda model, *a, **kw: built.append(model) or posterior(model, *a, **kw))
    if forced:
        monkeypatch.setattr(es.forward, "_scan_start", lambda m: None)
    passes = [["posterior", *argv, *alpha], ["evaluate", *argv, *alpha],
              ["evaluate", *argv, *alpha, "--trim", "0.9"],
              ["bounds", *argv, "--max-blocks", "2"], "prior"]
    for want, cmd in zip(engines, passes):
        runs.update(scans=0, cores=0)
        if cmd == "prior":
            labels = np.random.default_rng(k).integers(0, k, 12).tolist()
            assert es.expert_sequence_prior(built[0], labels) <= 0.0
        else:
            assert main(cmd + ["--out", str(tmp_path / "out")]) == (4 if want == "-" else 0), cmd
        if want != "-":
            want = "L" if forced else want
            assert (runs["scans"] > 0, runs["cores"] > 0) == (want in "SM", want in "LM"), cmd


class TestPosterior:
    def test_single_step_bayes_row(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0\n")
        out = tmp_path / "p.csv"
        assert main(["posterior", str(data), "--model", "bayes", *BASE,
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        vals = [float(v) for v in rows[1].split(",")]
        assert vals[0] == pytest.approx(0.8 / 1.3, rel=1e-9)
        assert vals[1] == pytest.approx(0.5 / 1.3, rel=1e-9)

    def test_rows_sum_to_one(self, tmp_path, data_file):
        out = tmp_path / "p.csv"
        assert main(["posterior", str(data_file), "--model", "switch", *BASE,
                     "--out", str(out)]) == 0
        for row in out.read_text().strip().splitlines()[1:]:
            assert sum(float(v) for v in row.split(",")) == pytest.approx(1.0, abs=1e-6)

    def test_two_regime_concentration(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0\n" * 8 + "1\n" * 8)
        out = tmp_path / "p.csv"
        assert main(["posterior", str(data), "--model", "switch", "--alphabet", "0,1",
                     "--experts", "builtin:const:0.8,0.2;const:0.2,0.8",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows[-6:]:
            assert float(row.split(",")[1]) > 0.9

    def test_trim_unsupported(self, tmp_path, data_file):
        rc = main(["posterior", str(data_file), "--model", "bayes", *BASE, "--trim", "0.9"])
        assert rc == 4


class TestMap:
    def test_switch_sequence_file(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "0\n" * 4 + "1\n" * 4)
        out = tmp_path / "m.txt"
        assert main(["map", str(data), "--model", "switch", "--alphabet", "0,1",
                     "--experts", "builtin:const:0.99,0.01;const:0.01,0.99",
                     "--out", str(out)]) == 0
        names = out.read_text().split()
        assert names == ["const0"] * 4 + ["const1"] * 4

    def test_empty_data_empty_output(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "")
        out = tmp_path / "m.txt"
        assert main(["map", str(data), "--model", "switch", *BASE, "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_non_switch_model_unsupported(self, tmp_path, data_file):
        rc = main(["map", str(data_file), "--model", "fixed-share", "--alpha", "0.1", *BASE])
        assert rc == 4

    def test_switch_with_a_zero_weight(self, tmp_path, data_file):
        # pi_k = (1, 0) never draws expert 1: the marginal is expert 0's
        # likelihood and the MAP names expert 0 throughout.
        args = ["--model", "switch", "--weights", "1,0", *BASE]
        ev, out = tmp_path / "e.csv", tmp_path / "m.txt"
        assert main(["evaluate", str(data_file), *args, "--out", str(ev)]) == 0
        total = float(ev.read_text().strip().splitlines()[-1].split(",")[-1])
        assert total == pytest.approx(-math.log2(0.8 * 0.8 * 0.2 * 0.8), rel=1e-10)
        assert main(["map", str(data_file), *args, "--out", str(out)]) == 0
        assert out.read_text().split() == ["const0"] * 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_zero_mass_exits_3_naming_the_step(self, tmp_path, data_file, capsys, fmt):
        # Step 1's realized advice gives every expert probability 0.
        advice = tmp_path / "advice.csv"
        write(advice, "a,b\n0,0\n0.8,0.5\n0.2,0.5\n0.8,0.5\n")
        out = tmp_path / f"m.{fmt}"
        rc = main(["map", str(data_file), "--model", "switch", "--alphabet", "0,1",
                   "--experts", f"file:{advice}", "--advice-mode", "realized",
                   "--format", fmt, "--out", str(out)])
        assert rc == 3
        assert "step 1" in capsys.readouterr().err
        assert not out.exists()


class TestBounds:
    def test_bayes_bound_row_satisfied(self, tmp_path, data_file):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(data_file), "--model", "bayes", *BASE,
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("model,comparator")
        cells = rows[1].split(",")
        assert cells[0] == "bayes"
        assert "yes" in cells

    def test_switch_rows_json(self, tmp_path, data_file):
        out = tmp_path / "b.json"
        assert main(["bounds", str(data_file), "--model", "switch", *BASE,
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 4
        assert all(r["satisfied"] for r in doc)

    def test_unimix_row_notes_fitted_constant(self, tmp_path, data_file):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(data_file), "--model", "universal-elementwise", *BASE,
                     "--out", str(out)]) == 0
        assert "fitted" in out.read_text()

    def test_fixed_share_runs_without_alpha(self, tmp_path, data_file):
        out = tmp_path / "b.json"
        assert main(["bounds", str(data_file), "--model", "fixed-share", *BASE,
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert [r["model"] for r in doc] == ["fixed-share"] * len(doc) and doc
        assert all(r["satisfied"] for r in doc)

    def test_unsupported_model(self, tmp_path, data_file):
        rc = main(["bounds", str(data_file), "--model", "overconfident", "--alpha", "0.2", *BASE])
        assert rc == 4

    # The refusals below come before any file is read: the data file here
    # does not exist.
    @pytest.mark.parametrize("model", ["fixed-elementwise", "overconfident"])
    def test_model_without_report_rejected_up_front(self, tmp_path, capsys, model):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(tmp_path / "missing.txt"), "--model", model,
                     "--alpha", "0.2", *BASE, "--out", str(out)]) == 4
        assert f"no bound report is defined for model {model!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_share_alpha_rejected_up_front(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(tmp_path / "missing.txt"), "--model", "fixed-share",
                     "--alpha", "0.7", *BASE, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "--alpha" in err and "alpha* = (m - 1)/(n - 1)" in err
        assert not out.exists()

    def test_unimix_beyond_two_experts_rejected_before_the_pass(self, tmp_path, data_file,
                                                                capsys, monkeypatch):
        # Any forward pass would now fail: the refusal must come first.
        monkeypatch.setattr(cli_mod, "_offline_marginal", None)
        out = tmp_path / "b.csv"
        assert main(["bounds", str(data_file), "--model", "universal-elementwise",
                     "--alphabet", "0,1", "--experts", "builtin:kt;laplace;kt",
                     "--out", str(out)]) == 4
        assert "limited to two experts" in capsys.readouterr().err
        assert not out.exists()

    def test_fixed_share_max_blocks_runs_one_pass(self, tmp_path, data_file, monkeypatch):
        # Fixed share is scanned, so its one marginal is one forward scan.
        scans, loops = [], []
        real_scan, real_forward = es.forward._scan_forward, es.forward._offline_forward

        def counting_scan(*args):
            scans.append(1)
            return real_scan(*args)

        def counting_forward(*args):
            loops.append(1)
            return real_forward(*args)

        monkeypatch.setattr(es.forward, "_scan_forward", counting_scan)
        monkeypatch.setattr(es.forward, "_offline_forward", counting_forward)
        out = tmp_path / "b.json"
        assert main(["bounds", str(data_file), "--model", "fixed-share", *BASE,
                     "--max-blocks", "1", "--format", "json", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 1
        assert (len(scans), len(loops)) == (1, 0)

    def test_switch_reports_match_the_loop(self, tmp_path, monkeypatch):
        # The switch marginal comes from the forward scan; with the scan
        # refused it comes from the loop, and every report agrees within
        # 1e-12 relative.
        data = tmp_path / "d.txt"
        write(data, "".join(f"{x}\n" for x in np.random.default_rng(3).integers(0, 2, 300)))
        argv = ["bounds", str(data), "--model", "switch", "--alphabet", "0,1", "--experts",
                "builtin:kt;laplace;const:0.7,0.3", "--max-blocks", "5"]
        real, runs = cli_mod.bnd.measure_switch, []

        def recorded(*args):
            runs.append(list(real(*args)))
            return runs[-1]

        scans, real_scan = [], es.forward._scan_forward

        def counted_scan(*args):
            scans.append(real_scan(*args))
            return scans[-1]

        monkeypatch.setattr(cli_mod.bnd, "measure_switch", recorded)
        monkeypatch.setattr(es.forward, "_scan_forward", counted_scan)
        assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 0
        assert len(scans) == 1 and scans[0] is not None
        monkeypatch.setattr(es.forward, "_scan_start", lambda model: None)
        assert main(argv + ["--out", str(tmp_path / "loop.csv")]) == 0
        (scan, loop) = runs
        assert len(scan) == len(loop) == 5
        for a, b in zip(scan, loop):
            assert (a.comparator, a.inputs.keys()) == (b.comparator, b.inputs.keys())
            assert a.measured_bits == pytest.approx(b.measured_bits, rel=1e-12, abs=0.0)
            assert a.bound_bits == pytest.approx(b.bound_bits, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("model", ["fixed-share", "switch", "run-length"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_blocks_below_one_rejected(self, tmp_path, data_file, capsys, model, value):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(data_file), "--model", model, *BASE,
                     "--max-blocks", value, "--out", str(out)]) == 2
        assert "--max-blocks" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["universal-share", "universal-elementwise"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_grid_below_one_rejected(self, tmp_path, data_file, capsys, model, value):
        out = tmp_path / "b.csv"
        assert main(["bounds", str(data_file), "--model", model, *BASE,
                     "--grid", value, "--out", str(out)]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["fixed-share", "switch", "run-length"])
    def test_max_blocks_limits_every_block_count_report(self, tmp_path, data_file, model,
                                                        monkeypatch):
        # The segmentation table has one row per block count reported.
        real = es.bounds.best_segmentations
        rows = []
        monkeypatch.setattr(es.bounds, "best_segmentations",
                            lambda lp, m: rows.append(m) or real(lp, m))
        out = tmp_path / "b.json"
        assert main(["bounds", str(data_file), "--model", model, *BASE,
                     "--max-blocks", "2", "--format", "json", "--out", str(out)]) == 0
        assert [r["inputs"]["m"] for r in json.loads(out.read_text())] == [1, 2]
        assert rows == [2]


    @pytest.mark.parametrize("value", ["0", "1.5", "-1", "nan"])
    def test_trim_outside_unit_interval_rejected(self, tmp_path, capsys, value):
        # The flag is checked before the data file is read or the output
        # opened: the data file here does not exist.
        out = tmp_path / "e.csv"
        assert main(["evaluate", str(tmp_path / "missing.txt"), "--model", "run-length",
                     *BASE, "--trim", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--trim" in err and "(0, 1]" in err
        assert not out.exists()

    def test_switch_bounds_without_single_block_explanation(self, tmp_path):
        data, advice, out = tmp_path / "d.txt", tmp_path / "a.csv", tmp_path / "b.json"
        write(data, "0\n1\n")
        write(advice, "low,high\n1,0\n0,1\n")
        assert main(["bounds", str(data), "--model", "switch", "--alphabet", "0,1",
                     "--experts", f"file:{advice}", "--advice-mode", "realized",
                     "--format", "json", "--out", str(out)]) == 0
        assert [r["inputs"]["m"] for r in json.loads(out.read_text())] == [2]


class TestParsing:
    def test_unknown_model_rejected(self, data_file):
        rc = main(["evaluate", str(data_file), "--model", "nope", *BASE])
        assert rc == 2

    def test_kt_and_laplace_builtins(self, tmp_path, data_file):
        out = tmp_path / "o.csv"
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", "builtin:kt;laplace", "--out", str(out)])
        assert rc == 0

    def test_markov_builtin(self, tmp_path, data_file):
        out = tmp_path / "o.csv"
        rc = main(["evaluate", str(data_file), "--model", "bayes", "--alphabet", "0,1",
                   "--experts", "builtin:markov:0.5,0.5|0.9,0.1|0.2,0.8;kt",
                   "--out", str(out)])
        assert rc == 0

    def test_pi_t_flag_variants(self, tmp_path, data_file):
        for spec in ("inv-poly", "geometric:0.3", "uniform:1,3", "elias"):
            rc = main(["evaluate", str(data_file), "--model", "run-length",
                       "--pi-t", spec, *BASE, "--out", str(tmp_path / "o.csv")])
            assert rc == 0, spec

    @pytest.mark.parametrize("model", ["bayes", "fixed-share", "run-length"])
    def test_nan_weights_rejected(self, tmp_path, data_file, capsys, model):
        out = tmp_path / "o.csv"
        alpha = ["--alpha", "0.1"] if model == "fixed-share" else []
        assert main(["evaluate", str(data_file), "--model", model, *alpha, *BASE,
                     "--weights", "nan,1", "--out", str(out)]) == 2
        assert "nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["uniform:1.5,2", "uniform:inf,2", "uniform:1,1e400",
                                      "uniform:1,2,3", "uniform:2"])
    def test_pi_t_uniform_bounds_must_be_integers(self, tmp_path, data_file, capsys, spec):
        out = tmp_path / "o.csv"
        assert main(["evaluate", str(data_file), "--model", "run-length", "--pi-t", spec,
                     *BASE, "--out", str(out)]) == 2
        assert "integer bounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.5", "7"])
    @pytest.mark.parametrize("cmd,model", [("posterior", "bayes"), ("map", "switch"),
                                           ("bounds", "run-length")])
    def test_trim_only_on_evaluate(self, tmp_path, data_file, capsys, cmd, model, value):
        # --trim thins the forward frontier; every other output is exact,
        # so it refuses the flag, in range or not, before writing anything.
        out = tmp_path / "o.txt"
        assert main([cmd, str(data_file), "--model", model, *BASE,
                     "--trim", value, "--out", str(out)]) == 4
        assert "--trim" in capsys.readouterr().err
        assert not out.exists()

    def test_overconfident_appends_safe_expert(self, tmp_path, data_file):
        out = tmp_path / "o.csv"
        rc = main(["evaluate", str(data_file), "--model", "overconfident",
                   "--alpha", "0.2", *BASE, "--out", str(out)])
        assert rc == 0
        assert "p_exp:safe-uniform" in out.read_text().splitlines()[0]

    @pytest.mark.parametrize("cmd,model", [
        ("evaluate", "bayes"), ("posterior", "bayes"), ("map", "switch"),
        ("evaluate", "overconfident"), ("posterior", "overconfident"),
    ])
    @pytest.mark.parametrize("header", ["a,a", "x,safe-uniform"])
    def test_duplicate_expert_names_rejected(self, tmp_path, data_file, capsys,
                                             cmd, model, header):
        # Every output keys experts by name, so a repeated one would drop
        # an expert; overconfident appends its own "safe-uniform".
        advice = tmp_path / "advice.csv"
        write(advice, header + "\n" + "0.5,0.5\n" * 4)
        out = tmp_path / "o.txt"
        alpha = ["--alpha", "0.1"] if model == "overconfident" else []
        rc = main([cmd, str(data_file), "--model", model, *alpha, "--alphabet", "0,1",
                   "--experts", f"file:{advice}", "--advice-mode", "realized",
                   "--out", str(out)])
        dup = header.split(",")[1]
        if dup == "safe-uniform" and model != "overconfident":
            assert rc == 0      # the name is free unless the model adds it
            return
        assert rc == 2
        assert f"duplicate expert name {dup!r}" in capsys.readouterr().err
        assert not out.exists()


class TestModelParameters:
    """A model parameter the chosen model does not read is refused (exit 4)
    in every subcommand that takes the model, naming the flag and the
    model, before any file is read: the data file here does not exist."""

    def assert_refused(self, tmp_path, capsys, model, flag, value):
        cmds = ["evaluate", "posterior"] + (["map"] if model == "switch" else [])
        cmds += ["bounds"] if cli_mod._MODELS[model][2] is not None else []
        for cmd in cmds:
            out = tmp_path / "o.txt"
            assert main([cmd, str(tmp_path / "missing.txt"), "--model", model, flag, value,
                         *BASE, "--out", str(out)]) == 4, cmd
            assert f"{flag} does not apply to --model {model}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("model", ["bayes", "fixed-elementwise", "universal-elementwise",
                                       "universal-share", "switch", "run-length"])
    def test_alpha_only_for_fixed_share_and_overconfident(self, tmp_path, capsys, model):
        self.assert_refused(tmp_path, capsys, model, "--alpha", "0.1")

    @pytest.mark.parametrize("model", ["bayes", "fixed-share", "universal-share", "run-length"])
    def test_theta_only_for_switch(self, tmp_path, capsys, model):
        self.assert_refused(tmp_path, capsys, model, "--theta", "0.5")

    @pytest.mark.parametrize("model", ["bayes", "fixed-elementwise", "universal-share",
                                       "overconfident"])
    def test_pi_t_only_for_switch_and_run_length(self, tmp_path, capsys, model):
        self.assert_refused(tmp_path, capsys, model, "--pi-t", "inv-poly")

    def test_weights_not_for_universal_elementwise(self, tmp_path, capsys):
        self.assert_refused(tmp_path, capsys, "universal-elementwise", "--weights", "0.5,0.5")

    @pytest.mark.parametrize("cmd", ["evaluate", "posterior", "map", "bounds"])
    def test_defaults_are_the_same_bytes(self, tmp_path, data_file, cmd):
        # --theta and --pi-t default to 0.5 and inv-poly when left out.
        outs = tmp_path / "a.txt", tmp_path / "b.txt"
        for out, flags in zip(outs, ([], ["--theta", "0.5", "--pi-t", "inv-poly"])):
            assert main([cmd, str(data_file), "--model", "switch", *flags, *BASE,
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestClosedStdout:
    def test_reader_closing_early_exits_quietly(self, tmp_path):
        data = tmp_path / "d.txt"
        write(data, "".join(f"{i % 3}\n" for i in range(5000)))
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "expertseq", "evaluate", str(data), "--model", "bayes",
             "--alphabet", "0,1,2", "--experts", "builtin:kt;laplace"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert lines[1].startswith(b"1,0,")
        assert "Traceback" not in err and "Exception ignored" not in err, err
