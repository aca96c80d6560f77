"""Command-line surface: evaluate, posterior, map and bounds subcommands.

File formats (UTF-8, newline-delimited):
  data file    one outcome symbol per line, symbols drawn from --alphabet
  advice file  header row of expert names, then one row per step;
               in full mode each row holds k * |alphabet| probabilities
               (expert-major, alphabet order), in realized mode k
               probabilities assigned to the realized outcome

Exit codes: 0 success, 1 standard output closed by its reader, 2 input
error (including a repeated expert name), 3 zero-marginal abort,
4 unsupported combination (including a model over its state budget). Output floats carry 12 significant digits so
identical inputs produce byte-identical outputs: a CSV cell is the "%.12g"
text, and a JSON number is the shortest float repr of that 12-digit value,
as json.dumps writes it (1 in CSV is 1.0 in JSON). evaluate fixes each
format's row layout once per run and fills it per step; rows are written
as they are produced.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from . import models
from .experts import (Alphabet, AdviceExpert, ForecastingSystem, _realized_matrix,
                      make_builtin_expert, uniform_expert)
from .forward import ZeroMarginalError, _offline_marginal, _step_rows, posterior_experts
from .hmm import StateBudgetExceeded
from .logprob import to_bits
from .approx import trimming_hook
from .switch_map import switch_map
from . import bounds as bnd


class InputError(Exception):
    pass


class UnsupportedError(Exception):
    pass


def _fmt(x: float) -> str:
    return "%.12g" % x


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as e:
        raise InputError(f"bad {what}: {e}") from None


def _parse_pi_t(spec: str | None) -> models.SwitchTimeLaw:
    if spec in (None, "inv-poly"):
        return models.inv_poly()
    if spec == "elias":
        return models.elias_delta()
    if spec.startswith("geometric:"):
        return models.geometric(float(spec.split(":", 1)[1]))
    if spec.startswith("uniform:"):
        try:
            a, b = (int(tok) for tok in spec.split(":", 1)[1].split(","))
        except ValueError:
            raise InputError(f"--pi-t uniform needs two integer bounds a,b, got {spec!r}") from None
        return models.uniform_span(a, b)
    raise InputError(f"unknown --pi-t spec {spec!r}")


def _parse_builtin(spec: str, alphabet_size: int) -> tuple[list[ForecastingSystem], list[str]]:
    experts: list[ForecastingSystem] = []
    names: list[str] = []
    for i, part in enumerate(spec.split(";")):
        part = part.strip()
        kind, colon, params = part.partition(":")
        if part in ("kt", "laplace"):
            expert = make_builtin_expert(part, size=alphabet_size)
        elif colon and kind == "const":
            probs = _parse_floats(params, "constant expert")
            if len(probs) != alphabet_size:
                raise InputError(f"constant expert {i} needs {alphabet_size} probabilities")
            expert = make_builtin_expert("constant", probs=probs)
        elif colon and kind == "markov":
            groups = params.split("|")
            if len(groups) != alphabet_size + 1:
                raise InputError(f"markov expert {i} needs an initial row plus {alphabet_size} transition rows")
            rows = [_parse_floats(g, "markov expert") for g in groups]
            expert = make_builtin_expert("markov", initial=rows[0], transition=rows[1:])
        else:
            raise InputError(f"unknown builtin expert {part!r}")
        experts.append(expert)
        names.append(f"{kind}{i}")
    return experts, names


def _read_data(path: str, alphabet: Alphabet) -> np.ndarray:
    data, index = [], {s: i for i, s in enumerate(alphabet.symbols)}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tok = line.strip()
                if not tok:
                    continue
                try:
                    data.append(index[tok])
                except KeyError:
                    raise InputError(f"{path}:{lineno}: symbol {tok!r} not in alphabet")
    except OSError as e:
        raise InputError(f"cannot read data file: {e}") from None
    return np.array(data, dtype=np.intp)


def _read_advice(path: str, alphabet_size: int, mode: str, n_steps: int):
    """Returns (names, experts or None, logpred matrix or None)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as e:
        raise InputError(f"cannot read advice file: {e}") from None
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise InputError(f"{path}: empty advice file")
    names = [tok.strip() for tok in rows[0][1].split(",")]
    k = len(names)
    body = rows[1:]
    if len(body) != n_steps:
        raise InputError(
            f"{path}: advice has {len(body)} data rows but the data file has {n_steps} symbols "
            f"(first mismatching row {body[n_steps][0] if len(body) > n_steps else 'missing'})")
    want = k * alphabet_size if mode == "full" else k
    table = np.empty((len(body), want))
    for r, (lineno, ln) in enumerate(body):
        vals = _parse_floats(ln, f"advice row {lineno}")
        if len(vals) != want:
            raise InputError(f"{path}:{lineno}: expected {want} values, got {len(vals)}")
        table[r] = vals
    if mode == "full":
        experts = []
        for j in range(k):
            block = table[:, j * alphabet_size:(j + 1) * alphabet_size]
            try:
                experts.append(AdviceExpert(block))
            except ValueError as e:
                raise InputError(f"{path}: expert {names[j]!r}: {e}") from None
        return names, experts, None
    if not np.all((table >= 0) & (table <= 1)):
        raise InputError(f"{path}: realized probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return names, None, np.log(table)


def _weights(arg: str | None, k: int) -> list[float]:
    if arg is None:
        return [1.0 / k] * k
    w = _parse_floats(arg, "--weights")
    if len(w) != k:
        raise InputError(f"--weights needs {k} entries")
    return w


def _alpha(args) -> float:
    if args.alpha is None:
        raise InputError(f"--model {args.model} requires --alpha")
    return args.alpha


def _unimix_bound(model, lp, w, args):
    if len(w) != 2:
        # Refused before the forward pass, which holds O(n^(k-1)) states.
        raise UnsupportedError("the mixture-weight grid oracle is limited to two experts")
    return [bnd.measure_unimix(_offline_marginal(model, lp), lp, c=args.unimix_c, grid=args.grid)]


# Each model, in the order --model lists them: its constructor from the
# parsed arguments and the weights w of the supplied experts, the model
# parameters it reads, and its bound reports from (model, lp, w, args),
# None where bounds defines none.
_MODELS = {
    "bayes": (lambda a, w: models.bayes(w), ("--weights",),
              lambda m, lp, w, a: [bnd.measure_bayes(_offline_marginal(m, lp), lp, w)]),
    "fixed-elementwise": (lambda a, w: models.fixed_elementwise(w), ("--weights",), None),
    "universal-elementwise": (lambda a, w: models.universal_elementwise(len(w)), (),
                              _unimix_bound),
    "fixed-share": (lambda a, w: models.fixed_share(w, _alpha(a)), ("--alpha", "--weights"),
                    lambda m, lp, w, a: bnd.measure_fixed_share(
                        lambda alpha: _offline_marginal(models.fixed_share(w, alpha), lp), lp,
                        len(w), a.max_blocks)),
    "universal-share": (lambda a, w: models.universal_share(w), ("--weights",),
                        lambda m, lp, w, a: [bnd.measure_universal_share(
                            _offline_marginal(m, lp), lp, w, grid=a.grid)]),
    "overconfident": (lambda a, w: models.overconfident(w, _alpha(a)), ("--alpha", "--weights"),
                      None),
    "switch": (lambda a, w: models.switch(models.SwitchConfig(
                   0.5 if a.theta is None else a.theta, _parse_pi_t(a.pi_t), tuple(w)), len(w)),
               ("--theta", "--pi-t", "--weights"),
               lambda m, lp, w, a: bnd.measure_switch(_offline_marginal(m, lp), lp, len(w),
                                                      a.max_blocks)),
    "run-length": (lambda a, w: models.run_length(_parse_pi_t(a.pi_t), w), ("--pi-t", "--weights"),
                   lambda m, lp, w, a: bnd.measure_run_length(_offline_marginal(m, lp), lp,
                                                              len(w), a.max_blocks)),
}


def _check_model_parameters(args) -> None:
    """Refuse a model parameter the chosen model would silently ignore."""
    given = {"--alpha": args.alpha, "--theta": args.theta, "--pi-t": args.pi_t,
             "--weights": args.weights}
    for flag, value in given.items():
        if value is not None and flag not in _MODELS[args.model][1]:
            readers = [name for name, (_, reads, _) in _MODELS.items() if flag in reads]
            raise UnsupportedError(f"{flag} does not apply to --model {args.model} "
                                   f"(read by {', '.join(readers)})")


def _load_inputs(args):
    _check_model_parameters(args)
    alphabet = Alphabet.of(tok.strip() for tok in args.alphabet.split(","))
    data = _read_data(args.data, alphabet)
    spec = args.experts
    if spec.startswith("builtin:"):
        experts, names = _parse_builtin(spec.split(":", 1)[1], len(alphabet))
        matrix = None
    elif spec.startswith("file:"):
        names, experts, matrix = _read_advice(spec.split(":", 1)[1], len(alphabet),
                                              args.advice_mode, len(data))
    else:
        raise InputError("--experts must be builtin:<spec> or file:<path>")
    w = _weights(args.weights, len(names))
    model = _MODELS[args.model][0](args, w)
    # A model with more experts than weights adds the safe expert.
    add_safe = model.num_experts > len(w)
    if add_safe:
        names = names + ["safe-uniform"]
        if experts is not None:
            experts = experts + [uniform_expert(len(alphabet))]
        else:
            # The safe expert is uniform, so its realized probability is known.
            safe = np.full((matrix.shape[0], 1), -math.log(len(alphabet)))
            matrix = np.concatenate([matrix, safe], axis=1)
    # Outputs key experts by name, so a repeated name would drop one.
    dup = next((nm for i, nm in enumerate(names) if nm in names[:i]), None)
    if dup is not None:
        hint = " (--model overconfident adds it)" if add_safe and dup == names[-1] else ""
        raise InputError(f"duplicate expert name {dup!r}{hint}")
    return alphabet, data, names, experts, matrix, model, w


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing and closed on exit, or stdout,
    which is left open."""
    if not args.out:
        yield sys.stdout
        return
    with open(args.out, "w", encoding="utf-8", newline="\n") as out:
        yield out


# --trim thins the forward frontier, so only evaluate takes it.
_NO_TRIM = {"posterior": "--trim is not supported with posterior (the backward pass is exact)",
            "map": "--trim does not apply to MAP decoding",
            "bounds": "--trim does not apply to bounds (every report is exact)"}


def _check_trim(args) -> None:
    if args.trim is None:
        return
    if args.command in _NO_TRIM:
        raise UnsupportedError(_NO_TRIM[args.command])
    if not 0.0 < args.trim <= 1.0:
        raise InputError(f"--trim must be in (0, 1], got {args.trim}")


def _json_keys(labels: Sequence[str]) -> tuple[list[int] | None, str]:
    """The label positions in sorted order, None where the labels are in
    that order, and the '"label": \\0%.12g' pairs in that order as a
    '%'-format: the keys ``json.dumps(..., sort_keys=True)`` writes for a
    dict keyed by the labels, each value marked as _NUMBER reads it."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    keys = ", ".join(json.dumps(labels[j]).replace("%", "%%") + ": \0%.12g" for j in order)
    return None if order == sorted(order) else order, keys


# A JSON number's text is the repr of the float its "%.12g" text reads as.
# The two differ only where the "%.12g" text is an integer ("1", which repr
# writes "1.0") or has an exponent of 12 to 15 (repr writes none below
# 1e16). So evaluate writes a JSON row's numbers with "%.12g", each marked
# by a \0, which json.dumps never leaves in a key, and ends at the "," or
# "}" after it. An integer text gets ".0", and a row with an "e+1"
# exponent (12 to 15, and some where the texts agree) each number's repr.
_NUMBER = re.compile("\0([^,}]*)")
_INTEGRAL = re.compile("\0(-?[0-9]+)(?=[,}])")
# The integer texts a probability has, 0 and 1, as str.replace pairs.
_ZERO_ONE = [("\0" + d + end, d + ".0" + end) for d in "01" for end in ",}"]


def _repr_number(match: re.Match) -> str:
    return repr(float(match[1]))


def _cmd_evaluate(args) -> int:
    alphabet, data, names, experts, matrix, model, _ = _load_inputs(args)
    full = experts is not None
    steps = _step_rows(model, experts, data, matrix,
                       trimming_hook(args.trim) if args.trim is not None else None)
    json_mode = args.format == "json"
    symbols = alphabet.symbols
    # Each row's layout is fixed here, once per run. A JSON row is the text
    # json.dumps(row, sort_keys=True) gives for the row's dict of
    # float(_fmt(v)) values: its keys come sorted, and a finite float's
    # text there is its repr (see _INTEGRAL).
    if json_mode:
        by_name, expert_keys = _json_keys(names)
        by_symbol, outcome_keys = _json_keys(symbols) if full else (None, "")
        row = ('{"bits": \0%.12g, "cum_bits": \0%.12g, "next_expert": {' + expert_keys + "}"
               + (', "next_outcome": {' + outcome_keys + "}" if full else "")
               + ', "step": %d, "symbol": %s}')
        symbol_text = [json.dumps(s) for s in symbols]
        lead = "\n"
    else:
        cells = (len(symbols) if full else 0) + len(names) + 2
        row = "%d,%s," + ",".join(["%.12g"] * cells) + "\n"
    cum = 0.0
    # Rows are written as they are produced, a scanned window's as soon as
    # it is done; memory stays bounded by the frontier or one window
    # regardless of the stream length.
    with _output(args) as out:
        if json_mode:
            out.write('{\n"steps": [')
        else:
            cols = ["step", "symbol"]
            if full:
                cols += [f"p_out:{s}" for s in symbols]
            cols += [f"p_exp:{nm}" for nm in names] + ["bits", "cum_bits"]
            out.write(",".join(cols) + "\n")
        for i, (x, (log_cond, expert, outcome)) in enumerate(zip(data.tolist(), steps), 1):
            bits = to_bits(log_cond)
            cum += bits
            if json_mode:
                text = row % (bits, cum, *(expert if by_name is None else
                                           [expert[j] for j in by_name]),
                              *(outcome if by_symbol is None else
                                [outcome[j] for j in by_symbol]), i, symbol_text[x])
                if "e+1" in text:
                    text = _NUMBER.sub(_repr_number, text)
                elif _INTEGRAL.search(text):
                    for cell, number in _ZERO_ONE:
                        text = text.replace(cell, number)
                    if _INTEGRAL.search(text):      # another integer, as bits may be
                        text = _INTEGRAL.sub(r"\1.0", text)
                out.write(lead + text.replace("\0", ""))
                lead = ",\n"
            else:
                out.write(row % (i, symbols[x], *outcome, *expert, bits, cum))
        if json_mode:
            out.write(f'\n],\n"n": {len(data)},\n"total_bits": {_fmt(cum)}\n}}\n')
    return 0


def _cmd_posterior(args) -> int:
    alphabet, data, names, experts, matrix, model, _ = _load_inputs(args)
    grid = posterior_experts(model, experts, data, logpred_matrix=matrix)
    probs = np.exp(grid)
    with _output(args) as out:
        if args.format == "json":
            payload = [{nm: float(_fmt(v)) for nm, v in zip(names, row)} for row in probs]
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(",".join(names) + "\n")
            row = ",".join(["%.12g"] * len(names)) + "\n"
            for values in probs.tolist():
                out.write(row % tuple(values))
    return 0


def _cmd_map(args) -> int:
    if args.model != "switch":
        raise UnsupportedError(
            f"MAP decoding is implemented for the switch model only, not {args.model!r}")
    alphabet, data, names, experts, matrix, model, _ = _load_inputs(args)
    res = switch_map(model.cfg, experts, data, logpred_matrix=matrix)
    with _output(args) as out:
        if args.format == "json":
            bits = float(_fmt(to_bits(res.log_probability))) if len(data) else 0.0
            json.dump({"sequence": [names[x] for x in res.sequence], "map_bits": bits},
                      out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            for x in res.sequence:
                out.write(names[x] + "\n")
    return 0


def _cmd_bounds(args) -> int:
    bound = _MODELS[args.model][2]
    if bound is None:
        raise UnsupportedError(f"no bound report is defined for model {args.model!r}")
    if "--alpha" in _MODELS[args.model][1]:
        if args.alpha is not None:
            raise UnsupportedError(f"--alpha does not apply to {args.model} bounds "
                                   "(each report runs at alpha* = (m - 1)/(n - 1))")
        args.alpha = 0.0  # unused: the report sweeps alpha itself
    for flag, value in (("--max-blocks", args.max_blocks), ("--grid", args.grid)):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")
    alphabet, data, names, experts, matrix, model, w = _load_inputs(args)
    if not len(data):
        raise InputError("bounds need a nonempty data file")
    # Every report is computed before the output opens, so one that fails
    # leaves no partial file.
    reports = list(bound(model, _realized_matrix(experts, data, matrix, len(names)), w, args))

    with _output(args) as out:
        if args.format == "json":
            payload = [{"model": r.model, "comparator": r.comparator,
                        "measured_bits": float(_fmt(r.measured_bits)),
                        "bound_bits": float(_fmt(r.bound_bits)),
                        "satisfied": bool(r.satisfied), "note": r.note,
                        "inputs": {kk: (float(_fmt(v)) if isinstance(v, float) else v)
                                   for kk, v in r.inputs.items()}}
                       for r in reports]
            json.dump(payload, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write("model,comparator,measured_bits,bound_bits,satisfied,note\n")
            for r in reports:
                out.write(",".join([r.model, '"' + r.comparator + '"',
                                    _fmt(r.measured_bits), _fmt(r.bound_bits),
                                    "yes" if r.satisfied else "no", r.note]) + "\n")
    return 0


# parse_args leaves the parser as it was and returns a new Namespace, so
# one parser serves every main call of a process.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertseq",
        description="Online evaluation of expert-combination models over expert-sequence priors.")
    # The options every subcommand shares, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("data", help="data file, one symbol per line")
    common.add_argument("--model", required=True, choices=list(_MODELS))
    common.add_argument("--alphabet", required=True, help="comma-separated outcome symbols")
    common.add_argument("--experts", required=True,
                        help="builtin:<spec>(;<spec>...) or file:<path>")
    common.add_argument("--advice-mode", choices=["full", "realized"], default="full")
    common.add_argument("--weights", default=None,
                        help="comma-separated expert weights (default uniform); "
                             "every model but universal-elementwise")
    common.add_argument("--alpha", type=float, default=None,
                        help="switching rate; fixed-share and overconfident only")
    common.add_argument("--theta", type=float, default=None,
                        help="switch only (default 0.5)")
    common.add_argument("--pi-t", dest="pi_t", default=None,
                        help="inv-poly | geometric:<r> | uniform:<a>,<b> | elias; "
                             "switch and run-length only (default inv-poly)")
    common.add_argument("--trim", type=float, default=None,
                        help="retained frontier mass fraction in (0, 1]; evaluate only")
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, fn in [("evaluate", _cmd_evaluate), ("posterior", _cmd_posterior),
                    ("map", _cmd_map), ("bounds", _cmd_bounds)]:
        p = sub.add_parser(cmd, parents=[common])
        p.set_defaults(func=fn)
        if cmd == "bounds":
            p.add_argument("--grid", type=int, default=1024)
            p.add_argument("--unimix-c", dest="unimix_c", type=float, default=1.1)
            p.add_argument("--max-blocks", dest="max_blocks", type=int, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else int(e.code or 0)
    try:
        _check_trim(args)
        status = args.func(args)
        # A reader that has gone away is met here, not in the
        # interpreter's final flush.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so that final flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ZeroMarginalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (UnsupportedError, StateBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
