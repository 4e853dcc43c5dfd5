"""Alternating parent/change runs of the benchmark, summarized as a BENCH_*.json.

Runs ``perfbench/run.py --trace 0`` on the working tree ("change") and on a
parent revision ("parent") in alternating pairs. The parent is unpacked with
``git archive <rev> src perfbench BENCHMARK.json`` into a temporary
directory, so each side runs its own ``src/``, ``perfbench/`` and
``BENCHMARK.json``. Pair k uses seed 1 + k, and the parent runs first on
even pairs. All pairs of one workload run before the next workload starts.

The summary gives, for each workload, the attempted and failed operations
and, for each end-to-end metric of BENCHMARK.json, the medians, numpy's
linear 25th/75th percentiles, the parent's IQR, the pairs the change wins
and every run, in the layout of the committed BENCH_*.json files.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --rev HEAD --pairs 10 --out BENCH_new.json

Each run lasts the ``run_seconds`` that BENCHMARK.json sets.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unpack(rev: str, dest: str) -> None:
    """The parent's src/, perfbench/ and BENCHMARK.json under dest."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src", "perfbench",
                              "BENCHMARK.json"], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run from ``root``: its final JSON line plus the environment line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} in {root} gave no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = [line[len("# environment "):] for line in lines if line.startswith("# environment ")]
    result["environment"] = json.loads(env[0]) if env else None
    return result


def summarize(spec: dict, runs: dict) -> dict:
    """Per-metric medians, quartiles, IQR, change wins and runs for one workload."""
    out = {"pairs": len(runs["parent"]),
           "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
           "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
           "all_correct": {side: all(r["correct"] for r in runs[side]) for side in runs}}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        med = {side: float(np.median(v)) for side, v in vals.items()}
        quart = {side: [float(q) for q in np.percentile(v, [25, 75])] for side, v in vals.items()}
        ratio = med["change"] / med["parent"]
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {
            "better": better,
            "bound": metric["bound"],
            "parent_median": med["parent"],
            "change_median": med["change"],
            "change_over_parent": ratio,
            "worse_by_frac": 1.0 - ratio if better == "higher" else ratio - 1.0,
            "parent_quartiles": quart["parent"],
            "change_quartiles": quart["change"],
            "parent_iqr": quart["parent"][1] - quart["parent"][0],
            "change_wins": int(wins),
            "parent_runs": vals["parent"],
            "change_runs": vals["change"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", args.rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    report = {
        "what": (f"Parent ({sha}) against the working tree: {args.pairs} alternating pairs per "
                 f"workload, parent first on even pairs, pair k uses seed 1+k, "
                 f"{seconds:g} s per run, untraced; all pairs of a workload ran before the "
                 "next one. The parent ran from `git archive` of its src/, perfbench/ and "
                 "BENCHMARK.json. Quartiles are numpy's linear 25th and 75th percentiles."),
        "command": (f"python3 perfbench/run.py --workload <w> --seed <1+k> "
                    f"--seconds {seconds:g} --trace 0"),
        "environment": None,
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        unpack(args.rev, parent)
        roots = {"parent": parent, "change": ROOT}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for k in range(args.pairs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    result = run_once(roots[side], workload, 1 + k, seconds)
                    runs[side].append(result)
                    if side == "change" and report["environment"] is None:
                        report["environment"] = result["environment"]
                    print(f"{workload} pair {k} {side}: "
                          + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                          file=sys.stderr, flush=True)
            report["summary"][workload] = summarize(spec, runs)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
