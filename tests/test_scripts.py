"""The scripts that record benchmarks and check outputs, run on stand-in
results or small inputs."""

import importlib.util
import json
import sys
import warnings
from pathlib import Path

import cli_invocations
import xfermi

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_keeps_every_set_of_one_workload(tmp_path, monkeypatch):
    bench_pairs = load("bench_pairs")
    declared = {"end_to_end": [{"name": "ops_per_s", "better": "higher"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    values = iter(range(1, 100))

    def run(checkout, workload, seed, trace):  # a perfbench run, without running it
        metrics = {"ops_per_s": {"value": float(next(values))}}
        return {"seed": seed, "result": {"metrics": metrics}, "environment": {}}

    monkeypatch.setattr(bench_pairs, "run", run)
    out = tmp_path / "BENCH.json"
    for first_seed in (2, 5, 8):
        monkeypatch.setattr(sys, "argv", [
            "bench_pairs.py", "--parent", str(tmp_path), "--change", str(tmp_path),
            "--workload", "eos-inverse", "--pairs", "1", "--first-seed", str(first_seed),
            "--out", str(out)])
        assert bench_pairs.main() == 0
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == ["eos-inverse", "eos-inverse (2)", "eos-inverse (3)"]
    assert [entry["pairs"][0]["parent"]["seed"] for entry in workloads.values()] == [2, 5, 8]


def test_cli_invocations_prints_the_transcript_of_its_list(monkeypatch, capsys):
    runs = [["--version"], ["occupation", "--x", "-800"], ["eos", "--density", "1e25"]]
    monkeypatch.setattr(cli_invocations, "invocations", lambda: runs)
    cli_invocations.main()
    blocks = cli_invocations.split_blocks(cli_invocations.GOLDEN.read_text())[1]
    expected = [blocks[cli_invocations.header(argv)] for argv in runs]
    assert capsys.readouterr().out == cli_invocations.preamble() + "".join(expected)


def test_kernel_digest_hashes_the_xfermi_on_the_import_path(monkeypatch, capsys):
    kernel_digest = load("kernel_digest")
    monkeypatch.setattr(kernel_digest, "digest", lambda: ("total", {"eos.density": "part"}))
    path = list(sys.path)
    with warnings.catch_warnings():
        assert kernel_digest.main() == 0
    out, err = capsys.readouterr()
    assert out == "total\n"
    assert f"hashing {Path(xfermi.__file__).parent}\n" in err
    assert sys.path == path
