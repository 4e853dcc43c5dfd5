"""In-memory span tracing installed around mvlrt's public functions.

Tracing works from outside the package: each traced function is replaced,
wherever a caller looks it up (module attributes and dispatch dicts such as
``experiments._TESTS``), by a wrapper that records a span. Nothing under
``src/`` knows about it, and an untraced run installs no wrappers at all.

A span is ``(id, parent, op, name, start, end)``. ``parent`` is the span open
in the same thread when it started; a span that starts in a pool thread with
nothing open attaches to the innermost "ambient" span (a sweep running in
the main thread), so pool work is charged to the sweep that scheduled it.
``op`` is the benchmark operation the span belongs to.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

#: traced public functions, by module
TARGETS = {
    "rng": ("stream",),
    "model": ("canonical_form_sample", "hypothesis_ss", "neg2_log_lrt", "rel_eigenvalues"),
    "lrt": ("chi2_test", "bartlett_test", "t1_test", "t2_test", "t3_test"),
    "distributions": ("tw1_cdf", "chi_sq_tail", "std_normal_tail"),
    "screening": ("screen", "parallel_analysis", "pca_reduce", "conditional_transform"),
    "multisplit": ("multisplit_test", "per_split_pvalue", "split_indices", "adaptive_pt"),
    "experiments": ("typeI_sweep", "power_sweep"),
    "dataio": ("load_matrix",),
    "cli": ("main",),
}

#: modules whose spans adopt pool-thread spans that start with nothing open
AMBIENT = ("experiments",)


def qr_flops(n: int, p: int) -> float:
    """Householder QR of an n x p matrix plus forming the reduced Q."""
    return 2.0 * (2.0 * n * p * p - 2.0 * p ** 3 / 3.0)


class Tracer:
    """Collects spans and counts while installed; restores everything on uninstall."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient = [0]
        self._lock = threading.Lock()
        self._patched = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def _hook_hypothesis_ss(self, args, result):
        n, p = args[0].X.shape
        self.count("model.hypothesis_ss.qr_flops", qr_flops(n, p))

    def _hook_t3_test(self, args, result):
        if result.diagnostics["t2"] >= result.diagnostics["f_n"]:
            self.count("lrt.t3_test.t2_fired")

    def _hook_per_split_pvalue(self, args, result):
        if result.p_value == 1.0:
            self.count("multisplit.split_p1")

    def _hook_load_matrix(self, args, result):
        self.count("dataio.load_matrix.bytes", os.path.getsize(args[0]))

    def _wrap(self, name, fn, hook, ambient):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._ambient[-1]
            sid = next(self._ids)
            stack.append(sid)
            if ambient:
                self._ambient.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if ambient:
                    self._ambient.pop()
                stack.pop()
                self.spans.append((sid, parent, self.op, name, start, end))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{self.package}.{m}") for m in TARGETS}
        owners = []
        for mod in [importlib.import_module(self.package), *mods.values()]:
            owners.append(vars(mod))
            owners.extend(v for v in vars(mod).values() if isinstance(v, dict))
        for mod_name, fn_names in TARGETS.items():
            for fn_name in fn_names:
                self._patch(owners, mod_name, fn_name, getattr(mods[mod_name], fn_name))

    def _patch(self, owners, mod_name, fn_name, orig) -> None:
        """Replace ``orig`` by its wrapper in every namespace or dict that holds it."""
        hook = getattr(self, f"_hook_{fn_name}", None)
        wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, hook, mod_name in AMBIENT)
        for owner in owners:
            for key, value in list(owner.items()):
                if value is orig:
                    owner[key] = wrapper
                    self._patched.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            owner[key] = orig
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, op, name, start_s, end_s."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s"])
            out.writerows(self.spans)

    def summary(self) -> dict:
        """Per-name call counts, total and self time, and child busy time.

        Self time is a span's duration minus the union of its children's
        intervals; children may run concurrently in pool threads, so the
        union, not the sum, is what the parent did not spend itself.
        """
        children = defaultdict(list)
        for sid, parent, _op, _name, start, end in self.spans:
            children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "child_busy_s": 0.0})
        for sid, _parent, _op, name, start, end in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            kids = children.get(sid, ())
            covered = 0.0
            busy = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(kids):
                busy += hi - lo
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            rec["self_s"] += (end - start) - covered
            rec["child_busy_s"] += busy
        return dict(out)
