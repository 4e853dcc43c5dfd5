"""CSV ingestion and emission for matrices, reports, and sweep tables.

The interchange format is deliberately dumb. ``load_matrix`` accepts one
grammar:

- UTF-8 text, one record per line (LF, CRLF or CR line endings);
- one header line, whose comma-separated cells are counted and discarded;
- body lines of exactly that many comma-separated cells;
- a cell may be wrapped in double quotes (``"1.5"``), and a quoted cell
  does not span lines;
- empty lines are skipped; there are no comments, so a line starting with
  ``#`` is read as data and fails;
- every body cell is a finite decimal float, optionally signed and with
  surrounding whitespace (``1``, ``-2.5``, ``.5``, ``1e-3``); ``nan``,
  ``inf`` and anything that overflows to infinity, such as ``1e400``, are
  non-finite; ``_`` digit separators and hex are non-numeric.

Floats are written with 17 significant digits so a save/load round trip is
bit-exact.
"""

import csv
import io
import logging
import os
import warnings

import numpy as np

from .errors import DataFormatError

log = logging.getLogger("mvlrt.dataio")

FLOAT_FMT = "%.17g"


def _parse(body, dtype=float):
    """Parse lines (an open text file or a list of str) with numpy's C reader."""
    return np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                      quotechar='"', ndmin=2)


def _width(line):
    """Count the cells of one line as ``_parse`` splits them; 0 if it is empty."""
    line = line.rstrip("\n")
    return _parse([line], dtype=object).shape[1] if line else 0


def load_matrix(path):
    """Read a dense numeric matrix from a headered CSV file.

    The grammar is in the module docstring. The body is parsed in one call
    to numpy's C reader; a file it rejects, or whose width differs from the
    header's, or that holds a non-finite value, raises DataFormatError naming
    the 1-based line at fault (see ``_fault``).
    """
    if not os.path.exists(path):
        raise DataFormatError(f"{path}: no such file")
    try:
        with open(path, encoding="utf-8") as fh:
            width = _width(fh.readline())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                a = _parse(fh)
    except ValueError:  # numpy's parse errors, and UnicodeDecodeError
        a = None
    if a is None or not a.shape[0] or a.shape[1] != width or not np.isfinite(a).all():
        raise DataFormatError(_fault(path))
    log.info("loaded %s: %d x %d", path, a.shape[0], a.shape[1])
    return a


def _fault(path):
    """Name the first line of a file that ``load_matrix`` rejected.

    Runs only after the fast parse failed. Each line is checked on its own
    for width, numbers and finiteness, in that order, and is split and parsed
    by the same numpy reader as the fast path, so the two accept the same
    cells (``float()`` would also accept ``1_000``). A line with an odd
    number of quotes opens a quoted cell that spans lines, which is not a
    number. So a file whose every line passes parses as a whole, and a file
    with no bad line has an empty body.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).read()
        lineno = before.count("\n") + 1
        return f"{path}:{lineno}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
    lines = io.StringIO(text, newline=None)
    width = _width(next(lines, ""))
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        cells = _width(line)
        if cells != width:
            return f"{path}:{lineno}: expected {width} cells, got {cells}"
        try:
            row = _parse([line])
        except ValueError:
            row = None
        if row is None or line.count('"') % 2:
            return f"{path}:{lineno}: non-numeric cell"
        if not np.isfinite(row).all():
            return f"{path}:{lineno}: non-finite value"
    return f"{path}: empty body"


def save_matrix(path, a) -> None:
    """Write a matrix as headered CSV, floats at 17 significant digits."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"c{j}" for j in range(a.shape[1])) + "\n")
        for row in a:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")
    log.info("wrote %s: %d x %d", path, a.shape[0], a.shape[1])


def write_rows(path, header, rows) -> None:
    """Write one header plus pre-formatted rows via the csv module."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s: %d rows", path, len(rows))
