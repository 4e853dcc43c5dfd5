"""Command-line front end: one-shot tests, the multi-split procedure,
simulation sweeps, and regime diagnostics.

Subcommands: test, multisplit, simulate, power, boundary. Every option can
also be supplied through a flat key=value --config file; explicit flags win
over file values, file values win over defaults. Each run echoes its fully
resolved configuration to stderr so any output is reproducible from the log
alone.

Exit status: 0 on success, 2 when a statistic is undefined in the requested
dimension regime, 1 for malformed input, bad configuration, or IO failure.
"""

import argparse
import json
import logging
import sys

import numpy as np

from ._blas import single_thread_blas
from .dataio import load_matrix, write_rows
from .errors import DataFormatError, DomainError, RegimeError
from .experiments import ExperimentSpec, power_sweep, typeI_sweep
from .lrt import TESTS, boundary_check
from .model import CONVENTIONS, DataSet, Dims, HypothesisMatrix, hypothesis_ss
from .multisplit import MultiSplitConfig, MultiSplitResult, multisplit_test, no_split_pvalue

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
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _strs(text):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


def _bool(text):
    tok = str(text).strip().lower()
    if tok in ("1", "true", "yes", "on"):
        return True
    if tok in ("0", "false", "no", "off"):
        return False
    raise DataFormatError(f"expected a boolean, got {text!r}")


def _pca_policy(text):
    tok = str(text).strip()
    if tok in ("none", ""):
        return None
    if tok == "parallel_analysis":
        return "parallel_analysis"
    try:
        return int(tok)
    except ValueError:
        raise DataFormatError(
            f"pca_policy must be none, parallel_analysis, or an integer, got {text!r}"
        ) from None


# dest -> (converter for config-file strings, default) per subcommand.
_DATA = {"x": (str, None), "y": (str, None), "c": (str, None)}
_SWEEP = {
    "generator": (str, "canonical"),
    "n": (int, 100), "p": (int, 50), "m": (int, 20), "r": (int, 30),
    "noise": (str, "gaussian"),
    "rho_x": (float, 0.0), "rho_e": (float, 0.0),
    "methods": (_strs, ("t1",)),
    "reps": (int, 10_000), "alpha": (float, 0.05),
    "seed": (int, 0), "threads": (int, 1),
    "out": (str, None), "gnuplot": (_bool, False),
}
_SCHEMA = {
    "test": dict(_DATA, method=(str, "t3"), convention=(str, "johnstone"),
                 alpha=(float, 0.05), format=(str, "text")),
    "multisplit": dict(
        _DATA,
        j_splits=(int, 200), gamma_min=(float, None), delta=(float, 0.2),
        split_ratio=(float, 0.3), seed=(int, 0),
        pca_policy=(_pca_policy, None),
        alpha=(float, 0.05), threads=(int, 1), out=(str, None),
        unsafe_no_split=(_bool, False)),
    "simulate": dict(_SWEEP, eta_grid=(_floats, ()), grow=(str, "pmr")),
    "power": dict(_SWEEP, signal_kind=(str, "spikes"),
                  spike_ratios=(_floats, (1.0,)), signal_rank=(int, 1),
                  signal_grid=(_floats, ())),
    "boundary": {"n": (int, None), "p": (int, None), "m": (int, None),
                 "r": (int, None)},
}

_HELP = {
    "x": "predictor matrix CSV, n rows by p columns",
    "y": "response matrix CSV, n rows by m columns",
    "c": "hypothesis matrix CSV, r rows by p columns (default: identity)",
    "method": "one of chi2 | bartlett | t1 | t2 | t3; t3 refers to the normal "
              "law, and while F_n = 2 (n < 1618) its p-values below about 0.01 "
              "are too small",
    "convention": "largest-root scaling for t2 and t3: johnstone | error",
    "format": "output format: text | json",
    "j_splits": "number of random splits J (0 needs --unsafe-no-split)",
    "gamma_min": "lower end of the aggregation quantile range",
    "delta": "screened fraction of predictors per split",
    "split_ratio": "screening fraction of the sample",
    "pca_policy": "response reduction: none | parallel_analysis | fixed m0",
    "unsafe_no_split": "allow J=0: screen and test on the same data",
    "eta_grid": "comma list of growth exponents, dims become floor(n^eta)",
    "grow": "subset of 'pmr' naming which dims follow eta",
    "methods": "comma list of test statistics to tabulate",
    "signal_kind": "spikes | diagonal | single | dense",
    "spike_ratios": "relative spike sizes for canonical power cells",
    "signal_rank": "nonzero diagonal entries for the diagonal signal",
    "signal_grid": "comma list of signal strengths (trace ratios for spikes)",
    "threads": "must be >= 1; the work runs in the calling thread and "
               "results do not depend on this value",
    "out": "write results CSV here instead of stdout",
    "gnuplot": "also write a plotting script next to the CSV",
}


def _build_parser() -> _Parser:
    top = _Parser(prog="mvlrt", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    for command, schema in _SCHEMA.items():
        p = sub.add_parser(command, parents=(), add_help=True)
        p.add_argument("--config", default=None,
                       help="flat key=value file; flags override its values")
        for dest, (conv, _default) in schema.items():
            flag = "--" + dest.replace("_", "-")
            if conv is _bool:
                p.add_argument(flag, action="store_true", default=None,
                               help=_HELP.get(dest))
            else:
                p.add_argument(flag, default=None, help=_HELP.get(dest),
                               type=str if conv in (_floats, _strs, _pca_policy) else conv)
    return top


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


def _resolve(args) -> dict:
    """Merge flag > config file > default, then echo the result to stderr."""
    schema = _SCHEMA[args.command]
    file_pairs = _read_config(args.config) if args.config else {}
    for key in file_pairs:
        if key not in schema:
            raise DataFormatError(f"unknown config key {key!r} for {args.command}")
    resolved = {}
    for dest, (conv, default) in schema.items():
        flag_value = getattr(args, dest)
        if flag_value is not None:
            resolved[dest] = conv(flag_value) if conv in (_floats, _strs, _pca_policy) else flag_value
        elif dest in file_pairs:
            resolved[dest] = conv(file_pairs[dest])
        else:
            resolved[dest] = default
    for dest in sorted(resolved):
        value = resolved[dest]
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        print(f"# config {args.command}.{dest}={value}", file=sys.stderr)
    return resolved


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
    if v["convention"] not in CONVENTIONS:
        raise DomainError(f"unknown largest-root convention {v['convention']!r}")
    if v["format"] not in ("text", "json"):
        raise DomainError(f"unknown format {v['format']!r}")
    if not 0.0 < v["alpha"] < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {v['alpha']!r}")
    data, hyp = _load_data(v)
    ss = hypothesis_ss(data, hyp)
    # only the largest-root tests read the convention
    kwargs = {"convention": v["convention"]} if v["method"] in ("t2", "t3") else {}
    report = TESTS[v["method"]](ss, **kwargs)
    reject = int(report.p_value <= v["alpha"])
    if v["format"] == "json":
        print(json.dumps({
            "method": report.method,
            "statistic": report.statistic,
            "p_value": report.p_value,
            "diagnostics": dict(sorted(report.diagnostics.items())),
            "alpha": v["alpha"],
            "reject": reject,
        }, sort_keys=False))
    else:
        print(report.key_value_text())
        print(f"alpha={v['alpha']!r}")
        print(f"reject={reject}")
    return 0


def _cmd_multisplit(v) -> int:
    data, hyp = _load_data(v)
    if v["j_splits"] < 0:
        raise DomainError(f"j_splits must be >= 0, got {v['j_splits']}")
    cfg = MultiSplitConfig(
        j_splits=max(v["j_splits"], 1), gamma_min=v["gamma_min"],
        delta=v["delta"], split_ratio=v["split_ratio"], seed=v["seed"],
        pca_policy=v["pca_policy"])
    # the J = 0 control skips multisplit_test, so both paths are checked here
    if not 0.0 < v["alpha"] < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {v['alpha']!r}")
    if v["threads"] < 1:
        raise DomainError(f"threads must be >= 1, got {v['threads']}")
    if v["j_splits"] == 0:
        if not v["unsafe_no_split"]:
            raise DomainError(
                "J=0 screens and tests on the same data and does not control "
                "the type-I error; pass --unsafe-no-split to run it anyway")
        outcome = no_split_pvalue(data, hyp, cfg)
        result = MultiSplitResult(outcome.p_value, v["alpha"],
                                  outcome.p_value <= v["alpha"],
                                  cfg.resolved_gamma_min, (outcome,))
        print(f"p_t={result.p_t!r}")
        print(f"alpha={result.alpha!r}")
        print(f"reject={int(result.reject)}")
        print("j_splits=0")
        print("mode=unsafe_no_split")
    else:
        result = multisplit_test(data, hyp, cfg, alpha=v["alpha"],
                                 threads=v["threads"])
        print(result.summary_text())
    if v["out"]:
        rows = result.csv_rows()
        if v["j_splits"] == 0:
            # the control is seeded by derive_seed(seed, -1), not as split 0
            rows[0][0] = "unsplit"
        summary = ["summary", "", repr(result.p_t), repr(result.alpha),
                   int(result.reject)]
        write_rows(v["out"], result.csv_header(), rows + [summary])
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
    return ExperimentSpec(
        generator=v["generator"], n=v["n"], p=v["p"], m=v["m"], r=v["r"],
        rho_x=v["rho_x"], rho_e=v["rho_e"], noise=v["noise"],
        methods=tuple(v["methods"]), reps=v["reps"], alpha=v["alpha"],
        seed=v["seed"], threads=v["threads"], **extra)


def _cmd_simulate(v) -> int:
    spec = _sweep_spec(v, eta_grid=v["eta_grid"], grow=v["grow"])
    _emit_table(typeI_sweep(spec), v)
    return 0


def _cmd_power(v) -> int:
    kind = v["signal_kind"]
    if kind == "spikes":
        signal = ("spikes", v["spike_ratios"])
    elif kind == "diagonal":
        signal = ("diagonal", v["signal_rank"])
    elif kind in ("single", "dense"):
        signal = (kind,)
    else:
        raise DomainError(f"unknown signal kind {kind!r}")
    spec = _sweep_spec(v, signal=signal, signal_grid=v["signal_grid"])
    _emit_table(power_sweep(spec), v)
    return 0


def _cmd_boundary(v) -> int:
    for key in ("n", "p", "m", "r"):
        if v[key] is None:
            raise DomainError(f"--{key} is required")
    diag = boundary_check(Dims(v["n"], v["p"], v["m"], v["r"]))
    print(f"chi2_metric={diag.chi2_metric!r}")
    print(f"chi2_verdict={diag.verdict(diag.chi2_metric)}")
    print(f"bartlett_metric={diag.bartlett_metric!r}")
    print(f"bartlett_verdict={diag.verdict(diag.bartlett_metric)}")
    print(f"lrt_defined={int(diag.lrt_defined)}")
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
    args = _build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        with single_thread_blas():
            return _COMMANDS[args.command](resolved)
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
