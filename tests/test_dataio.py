"""CSV ingestion and emission."""

import numpy as np
import pytest

from mvlrt.dataio import load_matrix, save_matrix, write_rows
from mvlrt.errors import DataFormatError
from mvlrt.rng import stream


def test_load_basic(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_load_errors_carry_line_numbers(tmp_path):
    cases = [
        ("a,b\n1,2\n3\n", "3"),            # ragged
        ("a,b\n1,2\nx,4\n", "3"),          # non-numeric
        ("a,b\n1,2\nnan,4\n", "3"),        # non-finite
        ("a,b\n1,inf\n", "2"),
    ]
    # each bad third line is named, whichever part of the reader refuses it
    cases += [(f"a,b\n1,2\n{bad}\n5,6\n", "3") for bad in [
        "3,4,5", ",", "3,", "1 2,3", "0x10,1", "-infinity,1", "\u0661,2",
        '"3"x,4', '3,""', "   ", "3;4", "3,4 5"]]
    for body, lineno in cases:
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"bad.csv:{lineno}"):
            load_matrix(path)


def _load_text(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return load_matrix(path)


def _error(tmp_path, text):
    with pytest.raises(DataFormatError) as exc:
        _load_text(tmp_path, text)
    return str(exc.value).replace(str(tmp_path / "in.csv"), "in.csv")


def test_load_crlf_line_endings(tmp_path):
    a = _load_text(tmp_path, "a,b\r\n1,2\r\n3,4\r\n")
    assert np.array_equal(a, [[1.0, 2.0], [3.0, 4.0]])
    assert _error(tmp_path, "a,b\r\n1,2\r\n3,x\r\n") == "in.csv:3: non-numeric cell"


def test_load_quoted_numeric_cells(tmp_path):
    a = _load_text(tmp_path, 'a,b\n"1","2"\n3," -4.5 "\n')
    assert np.array_equal(a, [[1.0, 2.0], [3.0, -4.5]])


def test_load_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    a = _load_text(tmp_path, "a,b\n\n1,2\n\n\n3,4\n\n")
    assert np.array_equal(a, [[1.0, 2.0], [3.0, 4.0]])
    assert _error(tmp_path, "a,b\n\n1,2\n\n3,x\n") == "in.csv:5: non-numeric cell"


def test_load_header_wider_than_every_row_names_line_2(tmp_path):
    assert (_error(tmp_path, "a,b,c\n1,2\n3,4\n")
            == "in.csv:2: expected 3 cells, got 2")


def test_load_hash_line_is_not_a_comment(tmp_path):
    assert _error(tmp_path, "a,b\n1,2\n# note\n3,4\n") == "in.csv:3: expected 2 cells, got 1"
    assert _error(tmp_path, "a,b\n1,2\n#3,4\n") == "in.csv:3: non-numeric cell"


def test_load_one_column(tmp_path):
    a = _load_text(tmp_path, "a\n1\n2\n3\n")
    assert a.shape == (3, 1)
    assert np.array_equal(a[:, 0], [1.0, 2.0, 3.0])


def test_load_rejects_digit_separators(tmp_path):
    assert float("1_000") == 1000.0  # what the grammar refuses
    assert _error(tmp_path, "a,b\n1,2\n1_000,4\n") == "in.csv:3: non-numeric cell"


def test_load_overflow_is_non_finite(tmp_path):
    assert _error(tmp_path, "a,b\n1,2\n3,1e400\n") == "in.csv:3: non-finite value"


def test_load_quoted_cell_spanning_lines_is_non_numeric(tmp_path):
    # each line of it parses alone, so the locator must name the line that opens it
    assert _error(tmp_path, 'a,b\n1,"2\n3,4\n') == "in.csv:2: non-numeric cell"
    assert _error(tmp_path, 'a,b\n1,2\n3,4"\n') == "in.csv:3: non-numeric cell"


def test_load_undecodable_bytes_name_the_line(tmp_path):
    assert (_error(tmp_path, b"a,b\n1,2\n3,\xff4\n")
            == "in.csv:3: not UTF-8 text (byte 0xff)")
    assert _error(tmp_path, b"a,\xffb\n1,2\n") == "in.csv:1: not UTF-8 text (byte 0xff)"
    assert _error(tmp_path, b"a,b\r\n1,2\r\n\xff") == "in.csv:3: not UTF-8 text (byte 0xff)"


def test_load_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    with pytest.raises(DataFormatError):
        load_matrix(path)
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_matrix(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="no such file"):
        load_matrix(tmp_path / "nope.csv")


def test_round_trip_is_bit_identical(tmp_path):
    """A large random matrix survives save -> load -> save unchanged."""
    a = stream(900).standard_normal((1000, 100)) * 10.0 ** stream(901).integers(
        -12, 12, size=(1000, 100))
    first = tmp_path / "first.csv"
    save_matrix(first, a)
    b = load_matrix(first)
    assert np.array_equal(a, b)  # 17 significant digits reproduce doubles exactly
    second = tmp_path / "second.csv"
    save_matrix(second, b)
    assert first.read_bytes() == second.read_bytes()


def test_load_is_bit_exact_at_the_extremes(tmp_path):
    """Subnormals, the normal and finite limits, signed zero and shortest
    repr strings load as the same doubles that ``float()`` gives."""
    bits = stream(902).integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
    values = [*bits[np.isfinite(bits)], 5e-324, 4.9406564584124654e-324, 1e-310,
              2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0]
    strings = [repr(float(v)) for v in values] + ["%.17g" % v for v in values]
    path = tmp_path / "bits.csv"
    path.write_text("c0\n" + "\n".join(strings) + "\n")
    expected = np.array([float(s) for s in strings])
    loaded = load_matrix(path)[:, 0]
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))
    assert np.signbit(loaded[len(values) - 2])  # -0.0 keeps its sign


def test_save_header_shape(tmp_path):
    path = tmp_path / "small.csv"
    save_matrix(path, np.array([[1.5, -2.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "c0,c1"
    assert lines[1] == "1.5,-2"
    assert len(lines) == 2


def test_write_rows(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ["j", "p"], [[0, 0.5], [1, "x,y"]])
    text = path.read_text()
    assert text.splitlines()[0] == "j,p"
    assert '"x,y"' in text  # embedded commas stay quoted
    assert len(text.splitlines()) == 3
