"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

Runs one benchmark process at a time from the checkout root, with the
``run_seconds`` of BENCHMARK.json. Spread is the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) over the median;
an end-to-end metric is steady when its spread is below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    summary = {}
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                sys.exit(f"{wl} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
            print(f"{wl} seed={seed} wall={time.perf_counter() - started:.1f}s " + " ".join(
                f"{n}={last['metrics'][n]['value']:.5g}" for n in bounds), flush=True)
        summary[wl] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "values": vals}
            flag = "" if bound is None else (" ok" if spread < bound / 3 else " WIDE")
            print(f"  {wl} {name}: median={med:.5g} spread={spread:.4f}"
                  + ("" if bound is None else f" bound/3={bound / 3:.4f}{flag}"), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
