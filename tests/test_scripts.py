"""The scripts that record benchmarks, run on stand-in results."""

import importlib.util
import json
import sys
from pathlib import Path

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
