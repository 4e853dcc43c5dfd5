"""Command-line front end: exit codes, output formats, config merging."""

import csv
import inspect
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import mvlrt.experiments
from mvlrt.cli import _SCHEMA, main
from mvlrt.dataio import save_matrix
from mvlrt.experiments import ExperimentSpec
from mvlrt.lrt import TESTS
from mvlrt.multisplit import MultiSplitConfig, multisplit_test
from mvlrt.rng import stream


@pytest.fixture
def data_files(tmp_path):
    rng = stream(1000)
    paths = {
        "x": tmp_path / "X.csv",
        "y": tmp_path / "Y.csv",
        "c": tmp_path / "C.csv",
    }
    save_matrix(paths["x"], rng.standard_normal((40, 5)))
    save_matrix(paths["y"], rng.standard_normal((40, 3)))
    save_matrix(paths["c"], np.eye(5)[:3])
    return {k: str(v) for k, v in paths.items()}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# === test command ===


def test_test_command_text(capsys, data_files):
    argv = ["test", "--x", data_files["x"], "--y", data_files["y"]]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert "method=t3" in out
    assert "p_value=" in out and "alpha=0.05" in out
    assert "reject=" in out
    assert "# config test.method=t3" in err  # resolved defaults are logged
    code2, out2, _ = _run(capsys, argv)
    assert code2 == 0 and out2 == out  # same inputs, same report


def test_test_command_json(capsys, data_files):
    code, out, _ = _run(capsys, ["test", "--x", data_files["x"], "--y",
                                 data_files["y"], "--method", "t1",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"method", "statistic", "p_value", "diagnostics",
                        "alpha", "reject"}
    assert doc["method"] == "t1"
    assert "mu_n" in doc["diagnostics"]
    assert doc["reject"] in (0, 1)


def test_test_command_hypothesis_file_and_conventions(capsys, tmp_path, data_files):
    """t2 reads one largest root: the retired --convention option fails as a
    flag and as a config key."""
    base = ["test", "--x", data_files["x"], "--y", data_files["y"],
            "--c", data_files["c"], "--method", "t2"]
    code, out, _ = _run(capsys, base)
    assert code == 0 and "method=t2" in out
    with pytest.raises(SystemExit) as exc:
        main(base + ["--convention", "error"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --convention error" in capsys.readouterr().err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("convention = johnstone\n")
    code, out, err = _run(capsys, base + ["--config", str(cfg)])
    assert code == 1 and out == ""
    assert "unknown config key 'convention' for test" in err


@pytest.mark.parametrize("method", list(TESTS))
def test_test_command_runs_every_method_in_the_table(capsys, data_files, method):
    code, out, _ = _run(capsys, ["test", "--x", data_files["x"], "--y", data_files["y"],
                                 "--c", data_files["c"], "--method", method,
                                 "--format", "json"])
    assert code == 0 and json.loads(out)["method"] == method


@pytest.mark.parametrize("method", list(TESTS))
def test_test_command_checks_convention_for_every_method(capsys, tmp_path, data_files,
                                                         method):
    """No method takes a largest-root convention, as a flag or as a config key."""
    base = ["test", "--x", data_files["x"], "--y", data_files["y"],
            "--c", data_files["c"], "--method", method]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--convention", "sideways"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --convention sideways" in err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("convention = johnstone\n")
    code, out, err = _run(capsys, base + ["--config", str(cfg)])
    assert code == 1 and out == ""
    assert "unknown config key 'convention' for test" in err


@pytest.mark.parametrize("method", list(TESTS))
def test_test_command_text_and_json_carry_the_same_pairs(capsys, data_files, method):
    argv = ["test", "--x", data_files["x"], "--y", data_files["y"], "--c", data_files["c"],
            "--method", method]
    code, text, _ = _run(capsys, argv)
    assert code == 0
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    flat = []
    for key, value in json.loads(out).items():
        flat += value.items() if key == "diagnostics" else [(key, value)]
    pairs = [line.split("=", 1) for line in text.splitlines()]
    assert [key for key, _ in pairs] == [key for key, _ in flat]
    for (_, shown), (_, value) in zip(pairs, flat):
        assert shown == value if isinstance(value, str) else float(shown) == value


def test_test_command_validation_failures(capsys, data_files):
    code, _, err = _run(capsys, ["test", "--y", data_files["y"]])
    assert code == 1 and "--x is required" in err
    code, _, err = _run(capsys, ["test", "--x", data_files["x"], "--y",
                                 data_files["y"], "--method", "wilks"])
    assert code == 1
    code, _, err = _run(capsys, ["test", "--x", data_files["x"], "--y",
                                 data_files["y"], "--alpha", "2.0"])
    assert code == 1


def test_regime_misuse_exits_two(capsys, tmp_path):
    rng = stream(1001)
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    save_matrix(x, rng.standard_normal((8, 5)))
    save_matrix(y, rng.standard_normal((8, 4)))  # n <= p + m: no LRT
    code, _, err = _run(capsys, ["test", "--x", str(x), "--y", str(y),
                                 "--method", "t1"])
    assert code == 2
    assert "error:" in err


def test_parse_error_exits_one(capsys, tmp_path, data_files):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    code, _, err = _run(capsys, ["test", "--x", str(bad), "--y",
                                 data_files["y"]])
    assert code == 1
    assert "bad.csv:3" in err


def test_undecodable_file_exits_one_naming_it(capsys, tmp_path, data_files):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b\n1,2\n3,\xff\n")
    code, _, err = _run(capsys, ["test", "--x", str(bad), "--y",
                                 data_files["y"]])
    assert code == 1
    assert f"error: {bad}:3: not UTF-8 text (byte 0xff)" in err


def test_usage_errors_exit_one(data_files):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--x", data_files["x"], "--no-such-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# === config files ===


def test_config_file_merge_and_precedence(capsys, tmp_path, data_files):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# stored run settings\n"
        f"x = {data_files['x']}\n"
        f"y = {data_files['y']}\n"
        "method = t1\n"
        "alpha = 0.10\n"
    )
    code, out, err = _run(capsys, ["test", "--config", str(cfg)])
    assert code == 0
    assert "method=t1" in out and "alpha=0.1" in out
    # explicit flag beats the file value
    code, out, err = _run(capsys, ["test", "--config", str(cfg),
                                   "--alpha", "0.2"])
    assert code == 0
    assert "alpha=0.2" in out
    assert "# config test.alpha=0.2" in err


def test_config_file_unknown_key(capsys, tmp_path, data_files):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicator = 9\n")
    code, _, err = _run(capsys, ["test", "--config", str(cfg),
                                 "--x", data_files["x"], "--y", data_files["y"]])
    assert code == 1
    assert "frobnicator" in err


def _config_lines(err):
    return [line for line in err.splitlines() if line.startswith("# config ")]


# each command with every option set as text: ints, floats, comma lists,
# pca_policy and booleans, parsed the same way from a flag and from a file
_EVERY_OPTION = {
    "test": dict(method="t1", alpha="0.1", format="json"),
    "multisplit": dict(j_splits="3", gamma_min="0.2", delta="0.3", split_ratio="0.4",
                       seed="5", pca_policy="2", alpha="0.1", unsafe_no_split="no"),
    "simulate": dict(generator="linear", noise="gaussian", n="50", p="6", m="4", r="3",
                     rho_x="0.3", rho_e="0.2", seed="4", methods="t1,t3", reps="40",
                     alpha="0.1", gnuplot="no", eta_grid="0.3,0.4",
                     grow="pm"),
    "power": dict(generator="canonical", noise="gaussian", n="60", p="8", m="4", r="4",
                  rho_x="0", rho_e="0", seed="5", methods="t1,t2", reps="40",
                  alpha="0.1", gnuplot="off", signal_kind="spikes",
                  spike_ratios="1,0.5", signal_rank="2", signal_grid="1,2"),
    "boundary": dict(n="100", p="10", m="2", r="2"),
}


@pytest.mark.parametrize("command", list(_EVERY_OPTION))
def test_config_file_values_parse_like_flags(capsys, tmp_path, data_files, wide_files,
                                             command):
    options = dict(_EVERY_OPTION[command])
    if command == "test":
        options.update(x=data_files["x"], y=data_files["y"], c=data_files["c"])
    if command == "multisplit":
        options.update(x=wide_files[0], y=wide_files[1])
    flags = [tok for key, value in options.items()
             for tok in ("--" + key.replace("_", "-"), value)]
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    code, out, err = _run(capsys, [command, *flags])
    code_file, out_file, err_file = _run(capsys, [command, "--config", str(cfg)])
    assert code == code_file == 0
    assert out_file == out and out
    assert _config_lines(err_file) == _config_lines(err) and _config_lines(err)


@pytest.mark.parametrize("command, line, flag", [
    ("simulate", "n = abc", "--n"),
    ("power", "gnuplot = maybe", "--gnuplot"),
    ("simulate", "eta_grid = 0.5,x", "--eta-grid"),
    ("multisplit", "pca_policy = 1.5", "--pca-policy"),
    ("multisplit", "unsafe_no_split = perhaps", "--unsafe-no-split"),
])
def test_config_file_bad_value_names_the_option(capsys, tmp_path, command, line, flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 1
    assert f"error: argument {flag}:" in capsys.readouterr().err


# === multisplit command ===


@pytest.fixture
def wide_files(tmp_path):
    rng = stream(1002)
    x = tmp_path / "wx.csv"
    y = tmp_path / "wy.csv"
    save_matrix(x, rng.standard_normal((30, 40)))
    save_matrix(y, rng.standard_normal((30, 3)))
    return str(x), str(y)


def test_multisplit_refuses_j_zero_by_default(capsys, wide_files):
    x, y = wide_files
    code, _, err = _run(capsys, ["multisplit", "--x", x, "--y", y,
                                 "--j-splits", "0"])
    assert code == 1
    assert "unsafe-no-split" in err


def test_multisplit_j_zero_override(capsys, wide_files):
    x, y = wide_files
    code, out, _ = _run(capsys, ["multisplit", "--x", x, "--y", y,
                                 "--j-splits", "0", "--unsafe-no-split"])
    assert code == 0
    assert "mode=unsafe_no_split" in out and "j_splits=0" in out


@pytest.mark.parametrize("extra, word", [
    (["--j-splits", "-5"], "j_splits"),
    (["--j-splits", "0", "--unsafe-no-split", "--alpha", "7"], "alpha"),
])
def test_multisplit_checks_options_before_choosing_the_path(capsys, wide_files, extra, word):
    x, y = wide_files
    code, out, err = _run(capsys, ["multisplit", "--x", x, "--y", y, *extra])
    assert code == 1
    assert out == ""
    assert f"error: {word} must" in err


def test_multisplit_j_zero_audit_row_is_labelled_unsplit(capsys, tmp_path, wide_files):
    x, y = wide_files
    out_csv = tmp_path / "control.csv"
    code, _, _ = _run(capsys, ["multisplit", "--x", x, "--y", y, "--j-splits", "0",
                               "--unsafe-no-split", "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    # its seed is derive_seed(seed, -1), so it must not read as split 0
    assert [row[0] for row in rows[1:]] == ["unsplit", "summary"]


def test_multisplit_writes_audit_csv(capsys, tmp_path, wide_files):
    x, y = wide_files
    out_csv = tmp_path / "splits.csv"
    code, out, _ = _run(capsys, ["multisplit", "--x", x, "--y", y,
                                 "--j-splits", "3", "--seed", "5",
                                 "--out", str(out_csv)])
    assert code == 0
    assert "p_t=" in out and "j_splits=3" in out
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "split_seed", "p_value", "m0", "n_selected"]
    assert [row[0] for row in rows[1:4]] == ["0", "1", "2"]
    assert rows[4][0] == "summary"
    assert rows[4][3] == "0.05"  # alpha recorded alongside the decision
    # the printed p_t matches the summary row
    assert f"p_t={rows[4][2]}" in out


def test_multisplit_deterministic_across_runs(capsys, wide_files):
    x, y = wide_files
    argv = ["multisplit", "--x", x, "--y", y, "--j-splits", "4", "--seed", "9"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


# === sweep commands ===


def test_simulate_stdout_csv(capsys, data_files):
    code, out, _ = _run(capsys, ["simulate", "--n", "60", "--p", "8", "--m",
                                 "4", "--r", "4", "--reps", "50",
                                 "--methods", "t1,chi2"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["cell", "method", "rate", "mc_std_error", "reps", "status"]
    assert [row[1] for row in rows[1:]] == ["t1", "chi2"]
    assert all(row[4] == "50" for row in rows[1:])


def test_simulate_out_file_and_gnuplot(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = _run(capsys, ["simulate", "--n", "60", "--p", "8", "--m",
                                 "4", "--r", "4", "--reps", "20",
                                 "--out", str(out_csv), "--gnuplot"])
    assert code == 0
    assert out == ""  # table went to the file
    assert out_csv.exists()
    script = (tmp_path / "sweep.csv.gp").read_text()
    assert "plot" in script
    code, _, err = _run(capsys, ["simulate", "--reps", "5", "--gnuplot"])
    assert code == 1 and "--out" in err


def test_power_command(capsys):
    code, out, _ = _run(capsys, ["power", "--n", "60", "--p", "8", "--m", "4",
                                 "--r", "4", "--reps", "40",
                                 "--signal-grid", "0,2", "--methods", "t1"])
    assert code == 0
    assert "t1_theory" in out
    assert "trace_ratio=0" in out and "trace_ratio=2" in out


@pytest.mark.parametrize("generator, kind", [("canonical", "spikes"), ("linear", "diagonal")])
def test_power_signal_kind_follows_the_generator(capsys, generator, kind):
    code, out, err = _run(capsys, ["power", "--generator", generator, "--signal-grid", "0,1",
                                   "--n", "60", "--p", "8", "--m", "4", "--r", "4",
                                   "--reps", "40"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) >= 2 and all(row[5] == "ok" for row in rows)
    assert f"# config power.signal_kind={kind}" in err


@pytest.mark.parametrize("command", ["multisplit", "simulate", "power"])
def test_commands_refuse_the_retired_threads_option(capsys, tmp_path, command):
    """The work runs in the calling thread, so no command offers --threads,
    as a flag or as a config key."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --threads 2" in err
    cfg = tmp_path / "old.cfg"
    cfg.write_text("threads = 2\n")
    code, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert code == 1 and out == ""
    assert f"unknown config key 'threads' for {command}" in err


def test_cli_defaults_match_the_library():
    """An option that is also a library setting keeps the library's default."""
    spec = {f.name: f.default for f in fields(ExperimentSpec)}
    split = {f.name: f.default for f in fields(MultiSplitConfig)}
    split.update((name, par.default) for name, par in
                 inspect.signature(multisplit_test).parameters.items()
                 if par.default is not par.empty)
    library = {"simulate": spec, "power": spec, "multisplit": split}
    checked = set()
    for command, defaults in library.items():
        for dest in _SCHEMA[command].keys() & defaults.keys():
            assert _SCHEMA[command][dest][1] == defaults[dest], f"{command}.{dest}"
            checked.add(dest)
    assert {"reps", "signal_grid", "eta_grid", "j_splits", "pca_policy"} <= checked


@pytest.mark.parametrize("flag", ["--eta-grid", "--spike-ratios", "--signal-grid"])
def test_bad_number_list_names_the_expected_form(capsys, flag):
    command = "simulate" if flag == "--eta-grid" else "power"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "0.5,x"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert f"error: argument {flag}: expected a comma list of numbers, got '0.5,x'" in err
    assert "_floats" not in err


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_empty_method_list_exits_one(capsys, monkeypatch, command):
    calls = []
    orig = mvlrt.experiments.stream
    monkeypatch.setattr(mvlrt.experiments, "stream",
                        lambda *path: calls.append(path) or orig(*path))
    grid = ["--signal-grid", "0,1"] if command == "power" else []
    code, _, err = _run(capsys, [command, "--methods", "", "--reps", "5", *grid])
    assert code == 1
    assert "methods must name at least one test" in err
    assert calls == []


def test_sweep_bad_values_exit_one(capsys):
    code, _, _ = _run(capsys, ["simulate", "--reps", "-3"])
    assert code == 1
    code, _, _ = _run(capsys, ["power", "--signal-grid", "", "--reps", "5"])
    assert code == 1
    code, _, err = _run(capsys, ["simulate", "--generator", "magic"])
    assert code == 1 and "unknown generator 'magic'" in err
    code, _, err = _run(capsys, ["simulate", "--noise", "cauchy"])
    assert code == 1 and "unknown noise kind 'cauchy'" in err
    # ("diagonal", 1) is the lone (1,1) coefficient; "single" is no second name for it
    code, out, err = _run(capsys, ["power", "--signal-kind", "single", "--signal-grid", "1"])
    assert code == 1 and out == "" and "unknown signal kind 'single'" in err


# === boundary command ===


def test_boundary_output(capsys):
    code, out, _ = _run(capsys, ["boundary", "--n", "100", "--p", "10",
                                 "--m", "2", "--r", "2"])
    assert code == 0
    assert "chi2_metric=0.2" in out
    assert "chi2_verdict=marginal" in out
    assert "bartlett_metric=0.0016" in out
    assert "bartlett_verdict=safe" in out
    assert "lrt_defined=1" in out
    code, _, _ = _run(capsys, ["boundary", "--n", "100"])
    assert code == 1  # p, m, r missing


def test_entry_point_in_subprocess(tmp_path):
    """The module runs as a real process with the documented exit codes."""
    proc = subprocess.run(
        [sys.executable, "-m", "mvlrt.cli", "boundary", "--n", "100",
         "--p", "10", "--m", "2", "--r", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "chi2_metric=0.2" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "mvlrt.cli", "boundary", "--n", "100",
         "--p", "2", "--m", "2", "--r", "5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1  # r > p is not a hypothesis
