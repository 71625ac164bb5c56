"""Command-line interface: formats, precedence, determinism, exit codes."""

import csv
import difflib
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cli_invocations import GOLDEN, invocations, run_all, split_blocks, transcript
from oracles import polylog_moments
import xfermi
from xfermi import astro, degenerate, eos
from xfermi.cli import _HANDLERS, main
from xfermi.ensemble import (
    LevelSystem,
    grand_partition_enumerate,
    grand_partition_product,
    mean_occupancies_enumerate,
)
from xfermi.occupancy import MODELS, occupation

# the CLI prints 10 significant digits
CLI_REL = 1e-9


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    header, *data = rows
    return meta, header, data


def long_rows(text):
    """csv rows keyed on (coord, quantity) -> (value, provenance, statistics)."""
    _, header, data = parse_csv(text)
    assert header == ["coord", "quantity", "value", "provenance", "statistics"]
    return {(row[0], row[1]): tuple(row[2:]) for row in data}


def _table_cell(value):
    """A csv, json or table cell as the table prints it (6 significant digits)."""
    if value in ("", None):
        return ""
    try:
        return "%.6g" % float(value)
    except ValueError:
        return value


# the subcommands whose --model takes only the blocking laws
_BLOCKING_ONLY = ("fermi", "sommerfeld", "mu-of-t", "heat-capacity", "oracle")

# every subcommand under each model it accepts; oracle with fewer samples
_MODEL_RUNS = [
    (command, model)
    for command in sorted(_HANDLERS)
    for model in ((None,) if command in ("star", "compare") else sorted(MODELS))
    if not (model == "boltzmann" and command in _BLOCKING_ONLY)
]
_FAST_ARGS = {"oracle": ("--samples", "2000")}


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("XFERMI_SEED", raising=False)


@pytest.fixture
def no_grid(monkeypatch):
    """A --sweep grid built during the test fails it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(np, "geomspace", refuse)


class TestBasics:
    def test_occupation_value(self, capsys):
        code, out, _ = run_cli(capsys, "occupation", "--x", "0")
        assert code == 0
        rows = long_rows(out)
        assert rows[("0", "occupation")][0] == "0.6666666667"

    def test_meta_lines_record_the_run(self, capsys):
        _, out, _ = run_cli(capsys, "occupation", "--x", "1", "--model", "fd")
        meta, _, _ = parse_csv(out)
        assert meta["command"] == "occupation"
        assert meta["model"] == "fd"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "xfermi" in capsys.readouterr().out

    def test_module_entry_point(self):
        completed = subprocess.run(
            [sys.executable, "-m", "xfermi", "occupation", "--x", "0"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "0.6666666667" in completed.stdout

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert run_cli(capsys, "occupation", "--x", "0")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_entry_writes_all_of_a_large_output_before_the_hard_exit(self, capsys):
        # 2.3 MB, some 35 times what the pipe holds: os._exit must come after the last byte
        argv = ["eos", "--sweep", "eta", "-5", "5", "2000", "--format", "json"]
        completed = subprocess.run([sys.executable, "-m", "xfermi", *argv],
                                   stdout=subprocess.PIPE, timeout=60)
        assert completed.returncode == 0
        assert completed.stdout.decode() == run_cli(capsys, *argv)[1]

    def test_an_exception_from_main_leaves_with_its_traceback(self):
        script = (
            "import atexit, xfermi.cli\n"
            "atexit.register(print, 'teardown ran')\n"
            "def main():\n"
            "    raise RuntimeError('escaped main')\n"
            "xfermi.cli.main = main\n"
            "xfermi.cli.entry()\n"
        )
        completed = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                   text=True, timeout=60)
        assert completed.returncode == 1
        assert completed.stderr.startswith("Traceback")
        assert "RuntimeError: escaped main" in completed.stderr
        assert completed.stdout == "teardown ran\n"

    def test_script_target_is_the_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, _, name = tomllib.loads(text)["project"]["scripts"]["xfermi"].partition(":")
        assert (module, name) == ("xfermi.cli", "entry")

    def test_scipy_is_a_test_dependency_only(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = tomllib.loads(text)["project"]
        name = re.compile(r"[A-Za-z0-9_.-]+")
        runtime = {name.match(d).group() for d in project["dependencies"]}
        test = {name.match(d).group() for d in project["optional-dependencies"]["test"]}
        assert "scipy" not in runtime and "scipy" in test

    def test_subcommands_leave_scipy_unloaded(self):
        # the scipy-backed routes in xfermi.numerics are for the tests only
        script = (
            "import contextlib, importlib, io, sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
            "import xfermi\n"
            "from xfermi.cli import _HANDLERS, main\n"
            "for command in sorted(_HANDLERS):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([command]) == 0, command\n"
            "    assert 'scipy' not in sys.modules, command\n"
            "try:\n"
            "    importlib.import_module('scipy.integrate')\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('scipy was not refused')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (completed.returncode, completed.stderr) == (0, "")

    @pytest.mark.parametrize("argv, code", [
        (["star"], 0),
        (["fermi", "--density", "2"], 0),
        (["fermi", "--si", "--density", "1e28"], 0),
        (["--version"], 0),
        (["occupation"], 0),
        (["occupation", "--x", "-inf", "--model", "boltzmann"], 0),
        (["occupation", "--format", "json"], 0),
        (["occupation", "--x", "-710", "--model", "boltzmann"], 2),
        (["occupation", "--x", "nan"], 1),
    ])
    def test_scalar_subcommands_start_without_numpy(self, argv, code):
        # entry's os._exit becomes a SystemExit, so that the check after the run
        # is reached on every way out, argparse's SystemExit after --version too
        refused = (
            "import os, runpy, sys\n"
            "class RefuseNumpy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'numpy':\n"
            "            raise ImportError(f'{name} refused')\n"
            "sys.meta_path.insert(0, RefuseNumpy())\n"
            "def leave_normally(code):\n"
            "    raise SystemExit(code)\n"
            "os._exit = leave_normally\n"
            "try:\n"
            "    runpy.run_module('xfermi', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    assert 'numpy' not in sys.modules\n"
        )
        plain = subprocess.run([sys.executable, "-m", "xfermi", *argv],
                               capture_output=True, timeout=60)
        without = subprocess.run([sys.executable, "-c", refused, *argv],
                                 capture_output=True, timeout=60)
        assert (without.returncode, without.stderr) == (code, plain.stderr)
        assert plain.returncode == code
        assert code or plain.stderr == b""
        assert without.stdout == plain.stdout

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_each_subcommand_runs_in_a_fresh_process(self, capsys, command):
        # in one process an earlier subcommand's imports would hide a missing one
        completed = subprocess.run([sys.executable, "-m", "xfermi", command],
                                   capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == run_cli(capsys, command)[1]

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the kernel's Gauss-Legendre nodes and the inverse tables are literals
        script = (
            "import sys\n"
            "import xfermi.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']]\n"
            "assert not loaded, loaded\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (completed.returncode, completed.stderr) == (0, "")

    def test_import_loads_neither_resources_nor_json(self):
        # the SI constants are a literal, and json is imported for --format json only
        script = (
            "import sys\n"
            "import xfermi.cli\n"
            "loaded = [m for m in ('importlib.resources', 'json') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        completed = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (completed.returncode, completed.stderr) == (0, "")


class TestFormats:
    def test_csv_and_json_agree(self, capsys):
        _, csv_out, _ = run_cli(capsys, "eos", "--eta", "0")
        _, json_out, _ = run_cli(capsys, "eos", "--eta", "0", "--format", "json")
        csv_rows = long_rows(csv_out)
        payload = json.loads(json_out)
        assert len(payload["rows"]) == len(csv_rows)
        for row in payload["rows"]:
            coord = "" if row["coord"] is None else f"{row['coord']:.10g}"
            value, _, _ = csv_rows[(coord, row["quantity"])]
            assert float(value) == row["value"]

    @pytest.mark.parametrize("command, model", _MODEL_RUNS)
    def test_formats_print_the_same_rows(self, capsys, command, model):
        argv = [command, *_FAST_ARGS.get(command, ())] + (["--model", model] if model else [])
        _, csv_out, _ = run_cli(capsys, *argv)
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        _, table_out, _ = run_cli(capsys, *argv, "--format", "table")
        _, header, data = parse_csv(csv_out)
        payload = json.loads(json_out)
        assert data and all(list(row) == header for row in payload["rows"])
        lines = table_out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.split()[:2] == header[:2])
        widths = [len(dashes) for dashes in lines[start + 1].split("  ")]
        edges = np.cumsum([0] + [w + 2 for w in widths])
        table = [[line[a:b].strip() for a, b in zip(edges, edges[1:])]
                 for line in lines[start + 2:]]
        keys = [i for i, name in enumerate(header) if name in ("coord", "quantity", "provenance")]

        def key(row):
            return tuple(_table_cell(row[i]) for i in keys)

        expected = [key(row) for row in data]
        assert [key([row[name] for name in header]) for row in payload["rows"]] == expected
        assert [key(row) for row in table] == expected

    def test_json_is_written_in_batches(self, monkeypatch):
        # a write per encoder chunk made a 20000-point sweep take seconds
        writes = []

        class Stdout(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["eos", "--sweep", "eta", "-5", "5", "2000", "--format", "json"]) == 0
        text = "".join(writes)
        assert len(writes) < 100
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_table_format(self, capsys):
        _, out, _ = run_cli(capsys, "eos", "--eta", "0", "--format", "table")
        lines = out.splitlines()
        assert lines[0] == "command = eos"
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("coord"))
        assert "quantity" in lines[header_idx]
        assert set(lines[header_idx + 1]) <= {"-", " "}

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "eos", "--eta", "0.5", "--format", "json")
        _, second, _ = run_cli(capsys, "eos", "--eta", "0.5", "--format", "json")
        assert first == second
        _, mc_first, _ = run_cli(capsys, "oracle", "--samples", "5000")
        _, mc_second, _ = run_cli(capsys, "oracle", "--samples", "5000")
        assert mc_first == mc_second


class TestConfigAndSeed:
    def test_config_file_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=fd\nformat=json\n")
        code, out, _ = run_cli(capsys, "occupation", "--x", "0", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["model"] == "fd"

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=fd\n")
        _, out, _ = run_cli(
            capsys, "occupation", "--x", "0", "--config", str(cfg), "--model", "exclusive"
        )
        meta, _, _ = parse_csv(out)
        assert meta["model"] == "exclusive"

    def test_unknown_config_key_fails(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shade=blue\n")
        code, _, err = run_cli(capsys, "occupation", "--x", "0", "--config", str(cfg))
        assert code == 1
        assert "shade" in err

    def test_config_syntax_error_names_the_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nmodel fd\n")
        code, _, err = run_cli(capsys, "occupation", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}:3: expected key=value" in err

    def test_config_keeps_negative_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = -1.5\n")
        code, out, _ = run_cli(capsys, "eos", "--config", str(cfg))
        assert code == 0
        assert ("-1.5", "eta") in long_rows(out)

    # a config key is the flag of the same name, so a subcommand without
    # that flag rejects it, as it would the flag itself
    @pytest.mark.parametrize("command, line", [
        ("occupation", "seed=5"),
        ("eos", "seed=5"),
        ("virial", "field=1"),
        ("fermi", "t=0.1"),
        ("sommerfeld", "sweep-scale=log"),
        ("mu-of-t", "eta=1"),
        ("heat-capacity", "samples=10"),
        ("pauli", "n-lambda3=1"),
        ("landau", "eta=1"),
        ("star", "model=fd"),
        ("star", "seed=5"),
        ("star", "sweep-scale=log"),
        ("oracle", "sweep-scale=log"),
        ("compare", "model=fd"),
    ])
    def test_config_key_without_a_flag_fails(self, capsys, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: unrecognized arguments: --" + line)

    @pytest.mark.parametrize("command, line, message", [
        ("eos", "format=xml", "argument --format: invalid choice: 'xml'"),
        ("eos", "sweep-scale=cubic", "argument --sweep-scale: invalid choice: 'cubic'"),
        ("oracle", "seed=abc", "argument --seed: invalid int value: 'abc'"),
    ])
    def test_bad_config_value_fails(self, capsys, tmp_path, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert message in err

    def test_config_seed_beats_environment(self, capsys, tmp_path, monkeypatch):
        _, baseline, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "7")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        monkeypatch.setenv("XFERMI_SEED", "99")
        _, via_config, _ = run_cli(capsys, "oracle", "--samples", "2000", "--config", str(cfg))
        assert via_config == baseline

    def test_only_oracle_reads_the_seed_environment_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("XFERMI_SEED", "abc")
        code, _, err = run_cli(capsys, "oracle", "--samples", "2000")
        assert code == 1
        assert "invalid int value: 'abc'" in err
        code, _, err = run_cli(capsys, "eos", "--eta", "0")
        assert (code, err) == (0, "")

    def test_seed_environment_variable(self, capsys, monkeypatch):
        _, baseline, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "7")
        monkeypatch.setenv("XFERMI_SEED", "7")
        _, via_env, _ = run_cli(capsys, "oracle", "--samples", "2000")
        assert via_env == baseline

    def test_seed_flag_beats_environment(self, capsys, monkeypatch):
        _, baseline, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "0")
        monkeypatch.setenv("XFERMI_SEED", "99")
        _, flagged, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "0")
        assert flagged == baseline

    def test_negative_seed_environment_variable_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("XFERMI_SEED", "-1")
        code, out, err = run_cli(capsys, "oracle")
        assert (code, out) == (1, "")
        assert err == "xfermi: usage error: --seed must be non-negative, not -1\n"

    def test_seed_changes_the_draws(self, capsys):
        _, a, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "0")
        _, b, _ = run_cli(capsys, "oracle", "--samples", "2000", "--seed", "1")
        assert a != b


class TestSweeps:
    def test_linear_sweep_coordinates(self, capsys):
        _, out, _ = run_cli(capsys, "occupation", "--sweep", "x", "0", "2", "5")
        rows = long_rows(out)
        coords = sorted(float(coord) for coord, _ in rows)
        assert np.allclose(coords, np.linspace(0.0, 2.0, 5))

    def test_log_sweep_coordinates(self, capsys):
        _, out, _ = run_cli(
            capsys, "occupation", "--sweep", "x", "1", "100", "3", "--sweep-scale", "log"
        )
        rows = long_rows(out)
        coords = sorted(float(coord) for coord, _ in rows)
        assert np.allclose(coords, [1.0, 10.0, 100.0])

    def test_sweep_conflicts_with_scalar(self, capsys):
        code, _, err = run_cli(
            capsys, "occupation", "--x", "1", "--sweep", "x", "0", "2", "5"
        )
        assert code == 1
        assert err

    def test_log_sweep_needs_positive_endpoints(self, capsys):
        code, _, _ = run_cli(
            capsys, "occupation", "--sweep", "x", "-1", "1", "3", "--sweep-scale", "log"
        )
        assert code == 1

    @pytest.mark.parametrize("points", ["1000001", "1000000000"])
    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_point_count_is_bounded_before_the_grid(self, capsys, no_grid, points, scale):
        code, out, err = run_cli(
            capsys, "occupation", "--sweep", "x", "1", "2", points, "--sweep-scale", scale
        )
        assert (code, out) == (1, "")
        assert "--sweep" in err and points in err


class TestExitCodes:
    def test_closed_pipe_exits_quietly(self):
        # about 136 kB of rows, more than the pipe holds, so a write meets the closed end
        argv = [sys.executable, "-m", "xfermi", "eos", "--sweep", "eta", "-1", "1", "400"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            assert child.stdout.readline() == b"# command=eos\n"
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (141, b"")

    @pytest.mark.parametrize("argv, flag", [
        (["eos", "--density", "1e25"], "--density"),
        (["eos", "--eta", "1", "--sweep", "n-lambda3", "0.1", "1", "3"], "--eta"),
        (["eos", "--si", "--eta", "1", "--density", "1e25", "--temperature", "300"], "--eta"),
        (["eos", "--si", "--n-lambda3", "1", "--density", "1e25", "--temperature", "300"],
         "--n-lambda3"),
        (["eos", "--eta", "1", "--temperature", "300", "--mass", "1"], "--temperature"),
        (["eos", "--mass", "1"], "--mass"),
        (["fermi", "--density", "2", "--mass", "1"], "--mass"),
        (["fermi", "--si", "--density", "1e28", "--mass", "-1"], "--mass"),
        (["fermi", "--si", "--density", "1e28", "--mass", "0"], "--mass"),
        (["occupation", "--x", "1", "--sweep-scale", "log"], "--sweep-scale"),
        (["eos", "--eta", "1", "--sweep-scale", "linear"], "--sweep-scale"),
    ])
    def test_ignored_flag_is_refused(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: ")
        assert flag in err

    @pytest.mark.parametrize("argv", [
        "occupation --sweep x -inf 1 3",
        "occupation --sweep x 0 nan 3",
        "occupation --sweep x 1 inf 3 --sweep-scale log",
        "eos --sweep eta 0 inf 3",
        # finite endpoints whose span overflows a double
        "occupation --sweep x -1e308 1e308 3",
        "eos --sweep eta 1.7e308 -1.7e308 3",
    ])
    def test_sweep_past_the_double_range_is_refused_before_the_grid(self, capsys, no_grid,
                                                                    argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: --sweep ")
        assert err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "occupation", "--frequency", "3")
        assert code == 1
        assert err

    @pytest.mark.parametrize("argv", [
        ["fermi", "--density", "1"], ["sommerfeld"], ["mu-of-t", "--t", "0.05"],
        ["heat-capacity", "--t", "0.02"], ["oracle", "--samples", "1000"],
    ], ids=lambda argv: argv[0])
    def test_degenerate_commands_reject_classical_model(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--model", "boltzmann")
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: ")
        assert "--model" in err
        # the parser refuses it, so the help lists only the blocking laws
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], "--help"])
        assert excinfo.value.code == 0
        assert "--model {exclusive,fd}" in capsys.readouterr().out

    def test_unattainable_tolerance_reports_numerics_failure(self, capsys, monkeypatch):
        # edge weights 1e-9 heavier, beyond the 1e-12 agreement check
        monkeypatch.setattr(degenerate, "_EDGE_W", degenerate._EDGE_W * (1.0 + 1e-9))
        code, out, err = run_cli(capsys, "sommerfeld")
        assert (code, out) == (2, "")
        assert err.startswith("xfermi: numerical failure: ")
        assert "disagree" in err

    @pytest.mark.parametrize("argv", [
        ["fermi", "--density", "nan"],
        ["fermi", "--density", "inf"],
        ["fermi", "--si", "--density", "nan"],
        ["compare", "--density", "nan"],
    ])
    def test_non_finite_density_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: ")
        assert "positive and finite" in err

    @pytest.mark.parametrize("argv, message", [
        ("eos --config /nonexistent/xfermi.cfg", "cannot read config file: "),
        ("eos --si --temperature 300", "--density is required"),
        ("eos --si --density 1e25", "--si needs --temperature (kelvin)"),
        ("eos --sweep eta 0 x 3", "bad --sweep argument: "),
        ("eos --sweep eta 0 1 1", "--sweep needs at least 2 points"),
        ("occupation --sweep t 0 1 3", "this command sweeps over 'x', not 't'"),
        ("landau --n-lambda3 0", "--n-lambda3 must be positive and finite"),
        ("landau --field 0", "--field must be positive and finite"),
        ("compare --density 0", "--density must be positive and finite"),
        # refused before the classical occupation at -710 overflows (exit 2)
        ("compare --at -710 --density nan", "--density must be positive and finite"),
        ("compare --at -710 --density inf", "--density must be positive and finite"),
        ("eos --si --density nan --temperature 300", "--density must be positive and finite"),
        ("oracle --seed -1", "--seed must be non-negative, not -1"),
    ])
    def test_usage_error_before_any_row(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: " + message)

    @pytest.mark.parametrize("argv", [
        ["fermi", "--density", "1e308"],
        ["fermi", "--si", "--density", "1e300"],
        ["compare", "--density", "1e308"],
        ["mu-of-t", "--t", "1e-250"],
        ["heat-capacity", "--t", "1e-250"],
        ["landau", "--field", "1e-310"],
        ["occupation", "--x", "-710", "--model", "boltzmann"],
        ["occupation", "--sweep", "x", "-720", "-700", "3", "--model", "boltzmann"],
        ["compare", "--at", "-710"],
        # the classical occupation row comes before the underflowing moments
        ["compare", "--at", "-800"],
    ])
    def test_overflow_reports_numerics_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("xfermi: numerical failure: ")
        assert "overflows a double" in err

    @pytest.mark.parametrize("argv, message", [
        (["eos", "--eta", "-800"], "a moment at eta = -800 underflows a double"),
        (["mu-of-t", "--t", "1e300"],
         "n lambda^3 at fixed density at t = 1e+300 underflows a double"),
        (["heat-capacity", "--t", "1e300"],
         "n lambda^3 at fixed density at t = 1e+300 underflows a double"),
        (["eos", "--n-lambda3", "5e-324"], "the density at eta = -745.633 underflows a double"),
        (["eos", "--n-lambda3", "5e-324", "--model", "fd"],
         "the density at eta = -745.633 underflows a double"),
        (["eos", "--n-lambda3", "5e-324", "--model", "boltzmann"],
         "the density at eta = -745.633 underflows a double"),
        (["pauli", "--eta", "-800"], "the smaller spin population underflows a double at "
         "eta = -800.0, b = 0.5: up 0.0, down 0.0"),
        (["pauli", "--eta", "-750", "--field", "2"], "the smaller spin population underflows "
         "a double at eta = -750.0, b = 2.0: up 0.0, down 0.0"),
        (["pauli", "--eta", "-744", "--field", "1"], "the smaller spin population underflows "
         "a double at eta = -744.0, b = 1.0: up 5e-324, down 2e-323"),
        (["landau", "--field", "800"],
         "the Landau partition ratio 0.0 underflows a double at s = 800.0"),
        (["fermi", "--density", "1e-300"], "the degeneracy pressure underflows a double"),
        # a valid density whose n lambda^3 (lambda^3 ~ 8e-26 m^3) is below the range
        (["eos", "--si", "--density", "1e-300", "--temperature", "300"],
         "n lambda^3 at --density 1e-300 underflows a double"),
        # z = n lambda^3 / g rounds to 0
        (["landau", "--n-lambda3", "5e-324"],
         "the fugacity at --n-lambda3 5e-324 underflows a double"),
        (["landau", "--n-lambda3", "5e-324", "--model", "fd"],
         "the fugacity at --n-lambda3 5e-324 underflows a double"),
    ])
    def test_underflow_reports_numerics_failure(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"xfermi: numerical failure: {message}\n")

    @pytest.mark.parametrize("model", ["exclusive", "fd"])
    def test_series_past_the_double_range_reports_numerics_failure(self, capsys, model):
        # stderr opens with the series' ValidityWarning
        code, out, err = run_cli(capsys, "mu-of-t", "--t", "1e200", "--model", model)
        assert (code, out) == (2, "")
        assert ("xfermi: numerical failure: the mu/E_F series leaves the double range "
                "at t = 1e+200") in err

    @pytest.mark.parametrize("argv, message", [
        (["--temperature", "1e-300"],
         "the thermal wavelength at mass 9.1093837015e-31 and temperature 1e-300"),
        (["--temperature", "1e300"], "k_B T / lambda^3 at lambda = 7.453838105602142e-158"),
        (["--density", "1e-300", "--temperature", "1e300"],
         "k_B T / lambda^3 at lambda = 7.453838105602142e-158"),
        (["--temperature", "300", "--mass", "1e-300"],
         "k_B T / lambda^3 at lambda = 3.9641722022742556e+126"),
    ])
    def test_si_scale_past_the_double_range_reports_numerics_failure(self, capsys, argv,
                                                                     message):
        code, out, err = run_cli(capsys, "eos", "--si", "--density", "1e25", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("xfermi: numerical failure: ")
        assert err.endswith(("underflows" if "--mass" in argv else "overflows") + " a double\n")
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        ("eos --si --density 1e250 --temperature 1e60",
         "the pressure at --density 1e+250 and --temperature 1e+60 overflows a double"),
        ("fermi --si --density 1e300 --mass 1e-300",
         "the Fermi energy at --density 1e+300 and --mass 1e-300 overflows a double"),
        ("fermi --si --density 1e-200 --mass 1e200",
         "the Fermi energy at --density 1e-200 and --mass 1e+200 underflows a double"),
    ])
    def test_si_row_past_the_double_range_reports_numerics_failure(self, capsys, argv,
                                                                   message):
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"xfermi: numerical failure: {message}\n"

    @pytest.mark.parametrize("temperature", ["inf", "nan"])
    def test_si_non_finite_temperature_is_a_usage_error(self, capsys, temperature):
        code, out, err = run_cli(capsys, "eos", "--si", "--density", "1e25",
                                 "--temperature", temperature)
        assert (code, out) == (1, "")
        assert err == "xfermi: usage error: mass and temperature must be positive and finite\n"

    @pytest.mark.parametrize("argv, name", [
        (["occupation", "--x", "nan"], "x must not be nan"),
        (["pauli", "--field", "nan"], "field must be finite"),
    ])
    def test_nan_coordinate_is_a_usage_error(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: ")
        assert name in err

    # a value token that parses as a float is read as a value in any
    # spelling, the same as the form argparse always took
    @pytest.mark.parametrize("argv, same_as, exit_code", [
        (["eos", "--eta", "-1e3"], ["eos", "--eta=-1e3"], 2),  # n underflows
        (["occupation", "--x", "-inf"], ["occupation", "--x=-inf"], 0),
        (["pauli", "--field", "-1e-3"], ["pauli", "--field", "-0.001"], 0),
        (["eos", "--sweep", "eta", "-1e1", "-5e0", "3"],
         ["eos", "--sweep", "eta", "-10", "-5", "3"], 0),
    ])
    def test_negative_values_in_exponent_and_inf_spelling(self, capsys, argv, same_as,
                                                          exit_code):
        result = run_cli(capsys, *argv)
        assert result[0] == exit_code
        assert result == run_cli(capsys, *same_as)

    def test_largest_classical_point(self, capsys):
        # n and u fit a double at eta = 708 although 2 u does not
        code, out, _ = run_cli(capsys, "eos", "--eta", "708", "--model", "boltzmann")
        assert code == 0
        rows = long_rows(out)
        assert float(rows[("708", "n_lambda3")][0]) == pytest.approx(6.0468e307, rel=1e-4)
        assert float(rows[("708", "energy_density")][0]) == pytest.approx(9.0701e307, rel=1e-4)

    @pytest.mark.parametrize("model", ["exclusive", "boltzmann"])
    def test_fugacity_overflow_reports_numerics_failure(self, capsys, model):
        code, out, err = run_cli(capsys, "eos", "--eta", "800", "--model", model)
        assert code == 2
        assert out == ""
        assert err.startswith("xfermi: numerical failure: ")
        assert "overflows" in err

    def test_failed_invariant_reports_numerics_failure(self, capsys, monkeypatch):
        kernel = eos._moments

        def corrupt_pressure(eta, model, rows=(0, 1, 2, 3)):
            out = kernel(eta, model)
            out[2] = 1.0
            return out[list(rows)]

        monkeypatch.setattr(eos, "_moments", corrupt_pressure)
        code, _, err = run_cli(capsys, "eos", "--eta", "0")
        assert code == 2
        assert err.startswith("xfermi: numerical failure: ")
        assert "p = (2/3) u" in err

    def test_lane_emden_step_cap_reports_numerics_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(astro, "_MAX_STEPS", 2)
        code, out, err = run_cli(capsys, "star")
        assert (code, out) == (2, "")
        assert err.startswith("xfermi: numerical failure: Lane-Emden n = 1.5: surface not")

    def test_level_budget_reports_numerics_failure(self, capsys):
        # about 1.5e9 degenerate Landau levels at z = 5
        code, out, err = run_cli(capsys, "landau", "--n-lambda3", "10", "--field", "1e-9")
        assert code == 2
        assert out == ""
        assert err.startswith("xfermi: numerical failure: ")
        assert "Landau levels" in err

    @pytest.mark.parametrize(
        "command",
        ["eos", "virial", "mu-of-t", "heat-capacity", "pauli", "landau", "compare",
         "sommerfeld"],
    )
    def test_rel_tol_flag_is_a_usage_error(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--rel-tol", "1e-8")
        assert code == 1
        assert "--rel-tol" in err


class TestPhysicsOutput:
    def test_compare_table(self, capsys):
        _, out, _ = run_cli(capsys, "compare")
        _, header, data = parse_csv(out)
        assert header == ["quantity", "exclusive", "fd", "boltzmann", "provenance"]
        by_quantity = {row[0]: row[1:] for row in data}
        heat = by_quantity["heat_coefficient"]
        assert heat[0] == heat[1]
        assert math.isclose(float(heat[0]), math.pi**2 / 2.0, rel_tol=1e-9)
        assert heat[2] == ""  # no degenerate limit for the classical gas
        virial = by_quantity["virial_coefficient"]
        assert math.isclose(float(virial[1]), 2.0**-3.5, rel_tol=1e-9)
        assert math.isclose(float(virial[0]), 2.0 * float(virial[1]), rel_tol=1e-9)

    def test_star_report_carries_reference_ratio(self, capsys):
        _, out, _ = run_cli(capsys, "star")
        rows = long_rows(out)
        assert rows[("", "limiting_mass_ratio_reference")] == ("1.6", "reference", "")
        closed = rows[("", "limiting_mass_ratio_closed_form")]
        assert closed[0] == "1.414213562"
        # K^{3/2} of the K ratios, not a quotient of two Lane-Emden masses
        assert rows[("", "nr_mass_ratio")] == ("2", "closed-form", "")
        assert rows[("", "limiting_mass_ratio")] == ("1.414213562", "closed-form", "")

    def test_landau_leading_order(self, capsys):
        _, out, _ = run_cli(capsys, "landau")
        rows = long_rows(out)
        assert rows[("", "chi_leading_order")][0] == "-0.3333333333"
        chi = float(rows[("", "chi_reduced")][0])
        assert -0.34 < chi < -0.30
        assert rows[("", "chi_reduced")][1] == "quadrature"
        assert rows[("0.5", "partition_ratio")][1] == "series"
        assert {q for _, q in rows} == {
            "partition_ratio", "geometric_factor", "small_field_factor",
            "chi_reduced", "chi_leading_order",
        }

    @pytest.mark.parametrize("model", ["exclusive", "fd", "boltzmann"])
    def test_deep_dilute_eos_matches_polylog(self, capsys, model):
        # moments near 1e-13: the adaptive route once failed p = (2/3) u here
        code, out, _ = run_cli(capsys, "eos", "--eta", "-30", "--model", model)
        assert code == 0
        rows = long_rows(out)
        exact = polylog_moments(-30.0, MODELS[model])
        for quantity, expected in zip(("n_lambda3", "energy_density", "pressure"), exact):
            value, provenance, _ = rows[("-30", quantity)]
            assert provenance == ("closed-form" if model == "boltzmann" else "quadrature")
            assert math.isclose(float(value), expected, rel_tol=CLI_REL)

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_config_tolerance_keys_are_a_usage_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("rel-tol=1e-30\nabs-tol=1e-300\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: ")
        assert "--rel-tol" in err

    @pytest.mark.filterwarnings("error")  # a warning would otherwise reach stderr
    @pytest.mark.parametrize("argv, spread", [
        # at z = 1e-9 every draw is empty, so the standard error is 0
        (("--fugacity", "1e-9", "--samples", "1000"), "0"),
        # one draw has an infinite standard error (null in JSON)
        (("--samples", "1"), "inf"),
    ], ids=["zero", "infinite"])
    def test_oracle_without_spread_has_no_z_score(self, capsys, argv, spread):
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert code == 0
        assert err == ""
        rows = long_rows(out)
        z_scores = [v for (_, q), v in rows.items() if q == "mc_z_score"]
        assert z_scores and all(v == ("", "monte-carlo", "") for v in z_scores)
        assert {v[2] for (_, q), v in rows.items() if q == "mc_occupancy"} == {spread}

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("argv, quantities", [
        (("eos", "--eta", "-5"),
         ("n_lambda3", "energy_density", "pressure", "pv_over_nkt", "u_per_particle")),
        (("eos", "--n-lambda3", "0.3"),
         ("eta", "fugacity", "n_lambda3", "energy_density", "pressure", "pv_over_nkt",
          "u_per_particle")),
        (("eos", "--si", "--density", "1e25", "--temperature", "300"),
         ("eta", "n_lambda3", "chemical_potential_joule", "pressure_pascal",
          "energy_density_joule_m3")),
        (("virial",), ("pv_over_nkt", "fugacity")),
        (("pauli",), ("n_up", "n_down", "magnetization", "m_per_particle")),
        (("landau",), ("chi_reduced",)),
    ], ids=["eos-eta", "eos-n-lambda3", "eos-si", "virial", "pauli", "landau"])
    def test_moment_rows_name_their_route(self, capsys, model, argv, quantities):
        # the classical moments are the closed form g e^eta, the others Gauss-Legendre sums
        code, out, _ = run_cli(capsys, *argv, "--model", model)
        assert code == 0
        route = "closed-form" if model == "boltzmann" else "quadrature"
        got = {q: v[1] for (_, q), v in long_rows(out).items() if q in quantities}
        assert got == dict.fromkeys(quantities, route)

    def test_oracle_refuses_samples_beyond_int64(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--samples", str(2**63))
        assert (code, out) == (1, "")
        assert err.startswith("xfermi: usage error: samples must be a positive integer")

    @pytest.mark.parametrize("levels", [
        ("-1",), ("0",), ("13", "--model", "fd"), ("16",), ("1000000000",)])
    def test_oracle_checks_levels_before_the_draw(self, capsys, monkeypatch, levels):
        def no_draw(*args, **kwargs):
            raise AssertionError("energies drawn before --levels was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        code, out, err = run_cli(capsys, "oracle", "--levels", *levels)
        assert (code, out) == (1, "")
        assert err.startswith(f"xfermi: usage error: --levels {levels[0]}: ")

    def test_oracle_at_a_trillion_samples(self, capsys):
        # one multinomial draw per level: the cost does not grow with --samples
        code, out, _ = run_cli(capsys, "oracle", "--samples", "1000000000000")
        assert code == 0
        rows = long_rows(out)
        z_scores = [float(v[0]) for (_, q), v in rows.items() if q == "mc_z_score"]
        assert len(z_scores) == 3 and all(abs(z) <= 5.0 for z in z_scores)

    def test_oracle_log_partition_gap_at_huge_fugacity(self, capsys):
        # Z itself overflows at z = 1e200; ln Z does not
        code, out, _ = run_cli(capsys, "oracle", "--fugacity", "1e200", "--samples", "1000")
        assert code == 0
        rows = long_rows(out)
        gap = float(rows[("", "log_partition_gap")][0])
        ln_z = 6.0 * math.log(1e200)  # 6 exclusive levels, each about ln z
        assert math.isfinite(gap) and gap <= 1e-15 * ln_z

    @pytest.mark.parametrize("model, levels, seed, fugacity", [
        ("exclusive", 6, 0, 0.5), ("exclusive", 15, 3, 2.0), ("fd", 12, 7, 0.1)])
    def test_oracle_gaps_match_the_library_routes(self, capsys, model, levels, seed,
                                                  fugacity):
        code, out, _ = run_cli(capsys, "oracle", "--model", model, "--levels", str(levels),
                               "--seed", str(seed), "--fugacity", str(fugacity),
                               "--samples", "1000")
        assert code == 0
        rows = long_rows(out)
        # the same draw as the CLI: stream 0 of the seed
        energies = np.random.default_rng([seed, 0]).uniform(0.0, 5.0, levels)
        system = LevelSystem(tuple(energies), MODELS[model])
        log_gap = abs(grand_partition_product(system, fugacity)
                      - grand_partition_enumerate(system, fugacity))
        law = occupation(energies - math.log(fugacity), MODELS[model])
        occ_gap = float(np.max(np.abs(mean_occupancies_enumerate(system, fugacity) - law)))
        assert rows[("", "log_partition_gap")][0] == "%.10g" % log_gap
        assert rows[("", "occupancy_gap")][0] == "%.10g" % occ_gap

    def test_sommerfeld_reports_both_routes(self, capsys):
        _, out, _ = run_cli(capsys, "sommerfeld")
        rows = long_rows(out)  # coord column carries the blocking parameter
        assert rows[("2", "a1")][0] == rows[("2", "a1_closed_form")][0]
        assert math.isclose(float(rows[("2", "a1")][0]), math.log(2.0) / 2.0, rel_tol=1e-9)
        assert rows[("2", "a1_reference")] == ("0.34657", "reference", "")

    def test_mu_of_t_reference_curvature(self, capsys):
        _, out, _ = run_cli(capsys, "mu-of-t")
        rows = long_rows(out)
        assert rows[("", "curvature_reference")][0] == "0.1384168841"
        assert math.isclose(
            float(rows[("", "curvature_coefficient")][0]),
            -math.pi**2 / 12.0,
            rel_tol=1e-9,
        )


def _readme_examples():
    """The ``xfermi ...`` lines of the README's "Examples:" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("xfermi ")]


def test_readme_has_examples():  # an empty parametrization would pass silently
    assert len(_readme_examples()) >= 8


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_example_runs(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line)[1:])
    assert (code, err) == (0, "")
    assert out


def test_readme_quick_tour_runs_and_names_the_namespace():
    """The README's "Library quick tour" block runs as written, and the
    package namespace is exactly its ``xf.NAME``s plus the model table's
    and the exit codes' names."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    toured = set(re.findall(r"\bxf\.(\w+)", block))
    assert set(xfermi.__all__) == toured | {"BOLTZMANN", "MODELS", "OccupancyModel", "NumericsError"}
    for name in xfermi.__all__:
        getattr(xfermi, name)


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.fixture(scope="module")
def ran():
    """The invocations of ``cli_invocations``, and each one's exit code and
    stdout, run once in this interpreter."""
    runs = invocations()
    return runs, run_all(runs)


class TestTranscript:
    """The CLI's stdout and exit codes against the committed transcript; after an
    intended change, ``PYTHONPATH=src python3 tests/cli_invocations.py >
    tests/golden/cli.txt`` rewrites it."""

    def test_output_matches_the_golden_transcript(self, ran):
        first, expected = split_blocks(GOLDEN.read_text())
        now, got = split_blocks(transcript(*ran))
        if first != now:  # argparse formats help texts its own way in each Python
            expected, got = ({name: part for name, part in blocks.items()
                              if "--help" not in name.split()} for blocks in (expected, got))
        if list(got.items()) == list(expected.items()):
            return
        differ = [name for name in {**expected, **got}
                  if expected.get(name) != got.get(name)]
        report = [f"{len(differ)} invocations differ from {GOLDEN}; the first three:"]
        for name in differ[:3]:
            report.append(name)
            report += difflib.unified_diff(expected.get(name, "").splitlines(),
                                           got.get(name, "").splitlines(),
                                           "golden", "now", lineterm="", n=1)
        report.append("if intended, rewrite it with "
                      "PYTHONPATH=src python3 tests/cli_invocations.py > tests/golden/cli.txt")
        pytest.fail("\n".join(report), pytrace=False)

    def test_json_output_is_strict(self, ran):
        parsed = 0
        for argv, (code, out) in zip(*ran):
            if "json" in argv and out:
                assert code == 0, argv
                json.loads(out, parse_constant=_refuse_constant)
                parsed += 1
        assert parsed >= 38
