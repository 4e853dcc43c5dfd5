"""Fixed-seed outputs stay byte-identical to the committed goldens.

``scripts/make_goldens.py`` makes the outputs (CLI text, JSON and CSV, typed
error texts, multi-split outcomes and sweep tables) and ``tests/golden/``
holds their SHA-256 manifest plus the short ones as text. A change that
alters an output on purpose regenerates the goldens with that script and
says why.
"""

import difflib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("make_goldens", ROOT / "scripts" / "make_goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)


def test_outputs_match_goldens(tmp_path):
    got = goldens.outputs(tmp_path)
    bad = goldens.mismatches(got)
    diffs = []
    for name in bad:
        kept = goldens.GOLDEN / name
        if name in got and kept.exists():
            diffs.extend(difflib.unified_diff(
                kept.read_text().splitlines(), got[name].decode().splitlines(),
                f"golden/{name}", f"now/{name}", lineterm="", n=1))
    platform = goldens.PLATFORM.read_text()
    assert not bad, (f"outputs differ from the goldens: {bad}\n" + "\n".join(diffs[:60])
                     + f"\ngoldens made on:\n{platform}")
