"""One-thread BLAS scope: pins inside, restores on every kind of exit."""

import json
import subprocess
import sys
import threading

import numpy as np
import pytest

import mvlrt.experiments
import mvlrt.multisplit
from mvlrt import _blas
from mvlrt._blas import single_thread_blas, thread_counts
from mvlrt.experiments import ExperimentSpec, typeI_sweep
from mvlrt.model import DataSet
from mvlrt.multisplit import MultiSplitConfig, multisplit_test
from mvlrt.rng import stream


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at two threads, so that a restore is visible."""
    libs = _blas._libs()
    if not libs:
        pytest.skip("no bundled OpenBLAS with a known thread setter")
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(2)
    yield (2,) * len(libs)
    for (_, put), count in zip(libs, before):
        put(count)


def test_scope_pins_and_restores(two_threads):
    with single_thread_blas():
        assert thread_counts() == (1,) * len(two_threads)
    assert thread_counts() == two_threads


def test_scope_restores_after_exception(two_threads):
    with pytest.raises(RuntimeError):
        with single_thread_blas():
            raise RuntimeError("boom")
    assert thread_counts() == two_threads
    assert _blas._depth == 0


def test_nested_scopes_restore_on_outermost_exit(two_threads):
    ones = (1,) * len(two_threads)
    with single_thread_blas():
        with single_thread_blas():
            assert thread_counts() == ones
        assert thread_counts() == ones
    assert thread_counts() == two_threads


def test_scope_is_a_noop_without_libraries(two_threads, monkeypatch):
    real = _blas._libs()
    monkeypatch.setattr(_blas, "_libraries", [])
    with single_thread_blas():
        assert thread_counts() == ()
        assert tuple(get() for get, _ in real) == two_threads
    assert tuple(get() for get, _ in real) == two_threads


def test_concurrent_scopes_restore_once(two_threads):
    ones = (1,) * len(two_threads)
    seen = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(200):
                with single_thread_blas():
                    seen.append(thread_counts() == ones)

        workers = [threading.Thread(target=work) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old_interval)
    assert len(seen) == 6 * 200 and all(seen)
    assert thread_counts() == two_threads
    assert _blas._depth == 0


def test_multisplit_test_pins_then_restores(two_threads, monkeypatch):
    inside = []
    orig = mvlrt.multisplit.adaptive_pt

    def spy(*args):
        inside.append(thread_counts())
        return orig(*args)

    monkeypatch.setattr(mvlrt.multisplit, "adaptive_pt", spy)
    rng = stream(801)
    data = DataSet(rng.standard_normal((60, 40)), rng.standard_normal((60, 5)))
    multisplit_test(data, np.eye(40), MultiSplitConfig(j_splits=3, seed=1))
    assert inside == [(1,) * len(two_threads)]
    assert thread_counts() == two_threads


def test_typeI_sweep_pins_then_restores(two_threads, monkeypatch):
    inside = set()
    orig = mvlrt.experiments.canonical_form_sample

    def spy(*args, **kwargs):
        inside.add(thread_counts())
        return orig(*args, **kwargs)

    monkeypatch.setattr(mvlrt.experiments, "canonical_form_sample", spy)
    typeI_sweep(ExperimentSpec(n=40, p=5, m=3, r=2, reps=20, seed=3, threads=2))
    assert inside == {(1,) * len(two_threads)}
    assert thread_counts() == two_threads


def test_scipy_copy_loaded_inside_a_scope_is_pinned_then_restored():
    """The first scope opens before scipy.linalg is imported; the copy that the
    import then uses is the one the scope pinned, and its count is restored."""
    code = """if True:
        import ctypes, glob, importlib.util, json, os, sys
        import mvlrt
        from mvlrt import _blas

        early = [m for m in ("scipy.special", "scipy.linalg") if m in sys.modules]
        bundled = []
        for name in ("numpy", "scipy"):
            root = os.path.dirname(importlib.util.find_spec(name).origin)
            bundled += glob.glob(root + ".libs/*openblas*") + glob.glob(root + "/.dylibs/*openblas*")
        for _, put in _blas._libs():
            put(2)
        before = _blas.thread_counts()
        with _blas.single_thread_blas():
            import scipy.linalg

            inside = _blas.thread_counts()
            scipy_side = []
            for path in glob.glob(os.path.dirname(scipy.__file__) + ".libs/*openblas*"):
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
                get = next(getattr(lib, g) for g, _ in _blas._SYMBOLS if hasattr(lib, g))
                scipy_side.append(get())
        print(json.dumps(dict(early=early, bundled=len(bundled), before=before,
                              inside=inside, scipy_side=scipy_side,
                              after=_blas.thread_counts())))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    seen = json.loads(proc.stdout)
    if not seen["before"]:
        pytest.skip("no bundled OpenBLAS with a known thread setter")
    assert seen["early"] == []
    assert len(seen["before"]) == seen["bundled"]
    assert seen["inside"] == [1] * seen["bundled"]
    assert seen["scipy_side"] == [1] * len(seen["scipy_side"])
    assert seen["after"] == seen["before"] == [2] * seen["bundled"]
