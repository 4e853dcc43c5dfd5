"""mvlrt benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json with no wrappers installed; ``--trace 1`` runs a fixed amount
of work untraced and then traced, and reports the per-layer metrics. Both
check the program's outputs, count failures in ``attempted``/``failed``, and
exit 1 when any check fails. Scratch files go to ``.bench_build/perfbench``.

The BLAS and OpenMP thread variables are cleared before numpy loads, so the
program runs with its own defaults whatever the caller's shell sets.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if any(v in os.environ for v in _THREAD_VARS):
    _env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    _argv = [sys.executable, os.path.abspath(__file__), *sys.argv[1:]]
    os.execve(sys.executable, _argv, _env)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: fresh interpreters timed per run for setup_s
SETUP_RUNS = 3
SETUP_CODE = "import mvlrt; mvlrt.tw1_cdf(0.0)"

#: traced-mode op counts per second of --seconds (each pass runs this many ops)
TRACED_OPS_PER_S = {"mc_sweep": 1 / 10, "multisplit_hd": 1 / 15, "tall_fit": 1 / 3}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "mvlrt", "__init__.py")):
        sys.exit(f"error: no package at {os.path.join(SRC, 'mvlrt')}; "
                 "run from the root of an mvlrt checkout")
    sys.path.insert(0, SRC)
    import mvlrt

    for mod in ("rng", "model", "lrt", "distributions", "screening",
                "multisplit", "experiments", "dataio", "cli"):
        importlib.import_module(f"mvlrt.{mod}")
    return mvlrt


def setup_seconds():
    """Median wall time of fresh interpreters importing mvlrt and calling tw1_cdf."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    """Executes ops of one workload and keeps the tally of attempts and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def one(self, i, serial=False):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            units, result, parts = self.wl.op(i, serial)
        except Exception:
            self.failed += 1
            self.failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - t0
        bad = self.wl.check(i, result)
        if bad:
            self.failed += 1
            self.failures.extend(bad)
            return None
        return elapsed, units, result, parts

    def timed(self, seconds):
        """Closed loop from op 0 for ``seconds`` of wall time, at least one op."""
        done = []
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            rec = self.one(i)
            if rec is not None:
                done.append(rec)
            i += 1
        return done

    def checks(self, reference, done):
        """Repeat check on op 0 plus the workload's own checks; each counts as one attempt."""
        checks = []
        if reference is not None and done:
            checks.append(("op 0 repeats exactly", self.wl.same(reference[2], done[0][2]), ""))
        checks.extend(self.wl.run_checks([d[2] for d in done]))
        for label, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"check failed: {label}: {detail}")
        return checks


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def end_to_end(run, reference, seconds):
    wl = run.wl
    before = cpu_jiffies()
    done = run.timed(seconds)
    after = cpu_jiffies()
    checks = run.checks(reference, done)
    durations = [d[0] for d in done] or [float("nan")]
    units = sum(d[1] for d in done)
    metrics = {
        "ops_per_s": units / sum(durations),
        "op_p50_s": statistics.median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_seconds(),
    }
    if wl.name == "tall_fit":
        fit = [d[3]["fit"] for d in done]
        named = {"fit_call_p50_s": (statistics.median(fit), "s"),
                 "fit_call_p90_s": (percentile(fit, 0.9), "s"),
                 "cli_test_p50_s": (statistics.median(d[3]["cli"] for d in done), "s")}
    elif wl.name == "mc_sweep":
        named = {"mc_reps_per_s": (metrics["ops_per_s"], "1/s")}
    else:
        named = {"ms_splits_per_s": (metrics["ops_per_s"], "1/s"),
                 "ms_call_p50_s": (metrics["op_p50_s"], "s")}
    named["error_frac"] = (run.failed / max(run.attempted, 1), "ratio")
    # share of CPU time the hypervisor gave to other guests during the timed loop
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    info = {"ops": len(done), "units": units, "unit": wl.unit, "durations": durations,
            "cpu_steal_frac": steal,
            "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    return metrics, checks, info


def per_layer(run, reference, seconds, tag):
    """A fixed number of ops, each run untraced, serially (mc_sweep only) and traced.

    The passes alternate per op, the traced one first on odd ops, so machine
    drift and first-touch costs stay out of the overhead and speedup ratios.
    """
    from spans import TARGETS, Tracer

    wl = run.wl
    count = max(1, round(seconds * TRACED_OPS_PER_S[wl.name]))
    tracer = Tracer("mvlrt")
    passes = ["untraced", "serial", "traced"] if wl.name == "mc_sweep" else ["untraced", "traced"]
    wall = dict.fromkeys(passes, 0.0)
    done = []
    for i in range(count):
        tracer.op = i
        for kind in passes if i % 2 == 0 else passes[::-1]:
            with tracer if kind == "traced" else contextlib.nullcontext():
                t0 = time.perf_counter()
                rec = run.one(i, serial=kind == "serial")
                wall[kind] += time.perf_counter() - t0
            if kind == "untraced" and rec is not None:
                done.append(rec)
    untraced_s, traced_s, serial_s = wall["untraced"], wall["traced"], wall.get("serial")
    checks = run.checks(reference, done)
    spans_path = os.path.join(WORK, f"spans-{tag}.csv")
    tracer.write(spans_path)

    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(s.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    samples = calls("model.canonical_form_sample") + calls("model.hypothesis_ss")
    sweeps = ("experiments.typeI_sweep", "experiments.power_sweep")
    sweep_wall = sum(s.get(n, {}).get("total_s", 0.0) for n in sweeps)
    sweep_busy = sum(s.get(n, {}).get("child_busy_s", 0.0) for n in sweeps)
    m = {
        "model.decomps_per_rep": ratio(calls("model.neg2_log_lrt")
                                       + calls("model.rel_eigenvalues"), samples),
        "model.hypothesis_ss.gflops_computed": ratio(
            c["model.hypothesis_ss.qr_flops"] / 1e9, self_s("model.hypothesis_ss")),
        "lrt.t3_test.t2_fire_frac": ratio(c["lrt.t3_test.t2_fired"], calls("lrt.t3_test")),
        "screening.conditional_transform.calls_per_call": ratio(
            calls("screening.conditional_transform"), calls("multisplit.multisplit_test")),
        "multisplit.split_p1_frac": ratio(c["multisplit.split_p1"],
                                          calls("multisplit.per_split_pvalue")),
        "experiments.self_s": self_s(*sweeps),
        "experiments.concurrency": ratio(sweep_busy, sweep_wall),
        "experiments.pool_speedup": ratio(serial_s, untraced_s) if serial_s else 0.0,
        "dataio.load_matrix.mb_per_s": ratio(c["dataio.load_matrix.bytes"] / 1e6,
                                             s.get("dataio.load_matrix", {}).get("total_s", 0.0)),
        "trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    for mod, fns in TARGETS.items():
        for name in (f"{mod}.{fn}" for fn in fns):
            m.setdefault(f"{name}.calls", calls(name))
            m.setdefault(f"{name}.self_s", self_s(name))
    info = {"ops": count, "untraced_s": untraced_s, "traced_s": traced_s,
            "serial_s": serial_s, "spans": len(tracer.spans), "spans_file": spans_path,
            "layers": s}
    return m, checks, info


def environment(mv, threads):
    """Versions, core count and the live OpenBLAS thread count (read via ctypes)."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    blas_threads = None
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get.argtypes = []
        get.restype = ctypes.c_int
        blas_threads = get()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mvlrt": mv.__version__,
        "openblas": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "pool_threads": threads,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    mv = import_program()
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        wl = WORKLOADS[args.workload](mv, args.seed, nproc, tmp)
        run = Run(wl)
        try:
            # warm-up, untimed: fills lazy caches and is the reference for the repeat check
            reference = run.one(0, serial=True)
            if args.trace:
                values, checks, info = per_layer(run, reference, args.seconds, tag)
                listed = spec["per_layer"]
            else:
                values, checks, info = end_to_end(run, reference, args.seconds)
                listed = spec["end_to_end"]
        finally:
            wl.close()
    env = environment(mv, nproc if args.workload == "mc_sweep" else 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"# environment {json.dumps(env)}")
    print(f"# {tag}: attempted={run.attempted} failed={run.failed}")
    for label, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {label} {detail}")
    for failure in run.failures:
        print(f"# FAILURE {failure}", file=sys.stderr)
    for name, rec in list(metrics.items()) + list(info.get("named", {}).items()):
        print(f"{name} = {rec['value']:.6g} {rec['unit']}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "metrics": metrics,
              "checks": checks, "failures": run.failures, "info": info}
    with open(os.path.join(WORK, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
