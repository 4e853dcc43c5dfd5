"""Command-line front end: one-shot tests, the multi-split procedure,
simulation sweeps, and regime diagnostics.

Subcommands: test, multisplit, simulate, power, boundary. Every option can
also be supplied through a flat key=value --config file; a file value is
parsed exactly like its flag, so a bad one names the option. Explicit flags
win over file values, file values win over defaults. Each run echoes its
fully resolved configuration to stderr so any output is reproducible from
the log alone.

The library returns results as data and this module alone formats them
(key=value lines by _print_pairs, JSON, the audit CSV): a string as it is,
any other value by repr, so a float reads back to the same bits.

Exit status: 0 on success, 2 when a statistic is undefined in the requested
dimension regime, 1 for malformed input, bad configuration, or IO failure.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields

import numpy as np

from ._blas import single_thread_blas
from .dataio import load_matrix, write_rows
from .errors import DataFormatError, DomainError, RegimeError, check_integer, check_level
from .experiments import ExperimentSpec, power_sweep, typeI_sweep
from .lrt import TESTS, boundary_check
from .model import DataSet, Dims, HypothesisMatrix, hypothesis_ss
from .multisplit import MultiSplitConfig, multisplit_test, no_split_pvalue

log = logging.getLogger("mvlrt.cli")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1, not 2.

    Code 2 is reserved for regime errors, and the contract is that regime
    misuse is the only non-IO failure mapped there.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text):
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def _strs(text):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


def _bool(text):
    tok = str(text).strip().lower()
    if tok in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        return tok in ("1", "true", "yes", "on")
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _pca_policy(text):
    tok = str(text).strip()
    if tok in ("none", ""):
        return None
    if tok == "parallel_analysis":
        return "parallel_analysis"
    try:
        return int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"pca_policy must be none, parallel_analysis, or an integer, got {text!r}"
        ) from None


# The one option table: dest -> (type, default, help) per subcommand.
# argparse applies the type to a flag's text and to a --config file's text alike.
_DATA = {
    "x": (str, None, "predictor matrix CSV, n rows by p columns"),
    "y": (str, None, "response matrix CSV, n rows by m columns"),
    "c": (str, None, "hypothesis matrix CSV, r rows by p columns (default: identity)"),
}
_OUT = (str, None, "write results CSV here instead of stdout")
_SWEEP = {
    "generator": (str, "canonical", None), "noise": (str, "gaussian", None),
    "n": (int, 100, None), "p": (int, 50, None), "m": (int, 20, None), "r": (int, 30, None),
    "rho_x": (float, 0.0, None), "rho_e": (float, 0.0, None), "seed": (int, 0, None),
    "methods": (_strs, ("t1",), "comma list of test statistics to tabulate"),
    "reps": (int, 10_000, None), "alpha": (float, 0.05, None), "out": _OUT,
    "gnuplot": (_bool, False, "also write a plotting script next to the CSV"),
}
_SCHEMA = {
    "test": dict(
        _DATA, method=(str, "t3", f"one of {' | '.join(TESTS)}; t3 refers to the normal law, "
                "and while F_n = 2 (n < 1618) its p-values below about 0.01 are too small"),
        alpha=(float, 0.05, None), format=(str, "text", "output format: text | json")),
    "multisplit": dict(
        _DATA, j_splits=(int, 200, "number of random splits J (0 needs --unsafe-no-split)"),
        gamma_min=(float, None, "lower end of the aggregation quantile range"),
        delta=(float, 0.2, "screened fraction of predictors per split"),
        split_ratio=(float, 0.3, "screening fraction of the sample"), seed=(int, 0, None),
        pca_policy=(_pca_policy, None, "response reduction: none | parallel_analysis | fixed m0"),
        alpha=(float, 0.05, None), out=_OUT,
        unsafe_no_split=(_bool, False, "allow J=0: screen and test on the same data")),
    "simulate": dict(
        _SWEEP, eta_grid=(_floats, (), "comma list of growth exponents, dims become floor(n^eta)"),
        grow=(str, "pmr", "subset of 'pmr' naming which dims follow eta")),
    "power": dict(
        _SWEEP, signal_kind=(str, None, "spikes | diagonal | dense (default: spikes for "
                     "the canonical generator, diagonal for the linear one)"),
        spike_ratios=(_floats, (1.0,), "relative spike sizes for canonical power cells"),
        signal_rank=(int, 1, "nonzero diagonal entries for the diagonal signal"),
        signal_grid=(_floats, (), "comma list of signal strengths (trace ratios for spikes)")),
    "boundary": {dest: (int, None, None) for dest in "npmr"},
}


def _build_parser():
    """The top-level parser and its subparsers, keyed by command."""
    top = _Parser(prog="mvlrt", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    for command, schema in _SCHEMA.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="flat key=value file; flags override its values")
        for dest, (conv, default, text) in schema.items():
            # a bare boolean flag means true
            bare = {"nargs": "?", "const": True, "metavar": "BOOL"} if conv is _bool else {}
            p.add_argument("--" + dest.replace("_", "-"), type=conv, default=default,
                           help=text, **bare)
    return top, sub.choices


def _read_config(path) -> dict:
    pairs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _resolve(argv):
    """(command, settings): flag > config file > default, echoed to stderr.

    A --config file's values become the command's string defaults and argv is
    parsed again, so argparse converts them exactly as it converts flags."""
    top, commands = _build_parser()
    args = top.parse_args(argv)
    schema = _SCHEMA[args.command]
    if args.config:
        pairs = _read_config(args.config)
        for key in pairs:
            if key not in schema:
                raise DataFormatError(f"unknown config key {key!r} for {args.command}")
        commands[args.command].set_defaults(**pairs)
        args = top.parse_args(argv)
    resolved = {dest: getattr(args, dest) for dest in schema}
    if args.command == "power" and resolved["signal_kind"] is None:
        # the default signal is one the generator defines
        resolved["signal_kind"] = "spikes" if resolved["generator"] == "canonical" else "diagonal"
    for dest, value in sorted(resolved.items()):
        text = ",".join(str(v) for v in value) if isinstance(value, tuple) else value
        print(f"# config {args.command}.{dest}={text}", file=sys.stderr)
    return args.command, resolved


def _print_pairs(pairs) -> None:
    """One key=value line per pair: a string as it is, anything else by repr."""
    for key, value in pairs:
        print(f"{key}={value if isinstance(value, str) else repr(value)}")


def _load_data(v):
    for key in ("x", "y"):
        if v[key] is None:
            raise DomainError(f"--{key} is required (flag or config file)")
    data = DataSet(load_matrix(v["x"]), load_matrix(v["y"]))
    c = load_matrix(v["c"]) if v["c"] else np.eye(data.p)
    return data, HypothesisMatrix(c)


def _cmd_test(v) -> int:
    if v["method"] not in TESTS:
        raise DomainError(f"unknown method {v['method']!r}")
    if v["format"] not in ("text", "json"):
        raise DomainError(f"unknown format {v['format']!r}")
    check_level("alpha", v["alpha"])
    data, hyp = _load_data(v)
    ss = hypothesis_ss(data, hyp)
    report = TESTS[v["method"]](ss)
    head = [("method", report.method), ("statistic", report.statistic),
            ("p_value", report.p_value)]
    diagnostics = sorted(report.diagnostics.items())
    tail = [("alpha", v["alpha"]), ("reject", int(report.p_value <= v["alpha"]))]
    if v["format"] == "json":
        print(json.dumps(dict(head + [("diagnostics", dict(diagnostics))] + tail)))
    else:
        _print_pairs(head + diagnostics + tail)
    return 0


def _cmd_multisplit(v) -> int:
    data, hyp = _load_data(v)
    check_integer("j_splits", v["j_splits"], low=0)
    cfg = MultiSplitConfig(
        j_splits=max(v["j_splits"], 1), gamma_min=v["gamma_min"],
        delta=v["delta"], split_ratio=v["split_ratio"], seed=v["seed"],
        pca_policy=v["pca_policy"])
    # the J = 0 control skips multisplit_test, so both paths are checked here
    check_level("alpha", v["alpha"])
    if v["j_splits"] == 0:
        if not v["unsafe_no_split"]:
            raise DomainError(
                "J=0 screens and tests on the same data and does not control "
                "the type-I error; pass --unsafe-no-split to run it anyway")
        outcomes = (no_split_pvalue(data, hyp, cfg),)
        p_t = outcomes[0].p_value
        # the control is seeded by derive_seed(seed, -1), not as split 0
        labels, extra = ["unsplit"], [("j_splits", 0), ("mode", "unsafe_no_split")]
    else:
        result = multisplit_test(data, hyp, cfg, alpha=v["alpha"])
        outcomes, p_t = result.outcomes, result.p_t
        labels = range(len(outcomes))
        extra = [("gamma_min", result.gamma_min), ("j_splits", len(outcomes))]
    reject = int(p_t <= v["alpha"])
    _print_pairs([("p_t", p_t), ("alpha", v["alpha"]), ("reject", reject), *extra])
    if v["out"]:
        rows = [[j, o.split_seed, repr(o.p_value), o.m0, len(o.selected)]
                for j, o in zip(labels, outcomes)]
        summary = ["summary", "", repr(p_t), repr(v["alpha"]), reject]
        write_rows(v["out"], ["j", "split_seed", "p_value", "m0", "n_selected"], rows + [summary])
    return 0


def _emit_table(table, v) -> None:
    if v["out"]:
        table.write(v["out"])
        if v["gnuplot"]:
            with open(v["out"] + ".gp", "w") as fh:
                fh.write(table.gnuplot_script(v["out"]))
            log.info("wrote %s", v["out"] + ".gp")
    else:
        if v["gnuplot"]:
            raise DomainError("--gnuplot needs --out to know the CSV path")
        sys.stdout.write(table.csv_text())


def _sweep_spec(v, **extra) -> ExperimentSpec:
    """The ExperimentSpec of the resolved settings that name its fields, plus ``extra``."""
    return ExperimentSpec(**{f.name: v[f.name] for f in fields(ExperimentSpec) if f.name in v},
                          **extra)


def _cmd_simulate(v) -> int:
    _emit_table(typeI_sweep(_sweep_spec(v)), v)
    return 0


# signal kind -> the options that complete its tagged tuple
_SIGNAL_ARGS = {"spikes": ("spike_ratios",), "diagonal": ("signal_rank",), "dense": ()}


def _cmd_power(v) -> int:
    kind = v["signal_kind"]
    if kind not in _SIGNAL_ARGS:
        raise DomainError(f"unknown signal kind {kind!r}")
    signal = (kind, *(v[dest] for dest in _SIGNAL_ARGS[kind]))
    _emit_table(power_sweep(_sweep_spec(v, signal=signal)), v)
    return 0


def _cmd_boundary(v) -> int:
    for key in ("n", "p", "m", "r"):
        if v[key] is None:
            raise DomainError(f"--{key} is required")
    diag = boundary_check(Dims(v["n"], v["p"], v["m"], v["r"]))
    _print_pairs([("chi2_metric", diag.chi2_metric),
                  ("chi2_verdict", diag.verdict(diag.chi2_metric)),
                  ("bartlett_metric", diag.bartlett_metric),
                  ("bartlett_verdict", diag.verdict(diag.bartlett_metric)),
                  ("lrt_defined", int(diag.lrt_defined))])
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "multisplit": _cmd_multisplit,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "boundary": _cmd_boundary,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s: %(message)s")
    try:
        command, resolved = _resolve(argv)
        with single_thread_blas():
            return _COMMANDS[command](resolved)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
