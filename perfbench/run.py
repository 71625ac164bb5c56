"""xfermi benchmark: four closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload eos-forward --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; xfermi is loaded from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object; a human-readable summary goes to stderr, and a result file with
the environment record to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process and every child, so the load
# stays within the machine's cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# the metrics of the result line, each with a bound in BENCHMARK.json.
# failed_frac is 0 wherever the timed loop runs clean, so it cannot carry
# a relative bound; it is printed and recorded, and its per-layer twin is
# check.failed_frac
BOUNDED_END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ processes


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc``; return (exit code, its peak RSS in MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _worker(job: dict, tag: str, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its output)."""
    OUT.mkdir(exist_ok=True)
    job_path, out_path = OUT / f"job-{tag}.json", OUT / f"out-{tag}.json"
    job_path.write_text(json.dumps(job))
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code, _ = _wait(proc, timeout)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker {tag} failed (exit {code})")
    if job["mode"] == "setup":
        return ready, None
    return ready, json.loads(out_path.read_text())


def _cli_child(argv: list, tag: str) -> tuple[float, int, float, str]:
    """One ``python -m xfermi`` process: (wall s, exit code, peak RSS MB, stdout)."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"cli-{tag}.out", OUT / f"cli-{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "xfermi", *argv],
                              env=_env(), stdout=out, stderr=err) as proc:
            code, rss = _wait(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
    return wall, code, rss, out_path.read_text()


# ------------------------------------------------------------ measurements


def _tail(latencies: list) -> tuple[float, float]:
    """The latency with exactly TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * k / max(1, n - 1)


def _setup_samples(name: str, job: dict, count: int) -> list[float]:
    return [_worker(dict(job, mode="setup"), f"{name}-setup{i}", CHILD_TIMEOUT_S)[0]
            for i in range(count)]


def _cli_loop(job: dict, seconds: float) -> dict:
    """The cli-mix closed loop: one child process at a time."""
    rss = []

    def run_one(op: dict, expected: dict) -> tuple[float, float, str | None]:
        wall, code, peak, text = _cli_child(op["args"]["argv"], "loop")
        rss.append(peak)
        if code != 0:
            return wall, math.inf, f"exit {code}"
        return wall, checks.compare_cli(text, expected), None

    loop = worker.closed_loop(worker.flatten(job), seconds, run_one)
    loop.update(peak_rss_mb=max(rss), edge=[])
    return loop


def _import_profile() -> dict:
    """Bare interpreter start, and import xfermi / scipy from -X importtime."""
    interp, xf, sp = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=_env(), check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import xfermi"],
                              env=_env(), check=True, capture_output=True, text=True)
        totals = _importtime_totals(done.stderr)
        xf.append(totals["xfermi"])
        sp.append(totals["scipy"])
    return {"import.interpreter_ms": statistics.median(interp),
            "import.xfermi_ms": statistics.median(xf),
            "import.scipy_ms": statistics.median(sp)}


def _importtime_totals(text: str) -> dict:
    """Cumulative ms of the top-level ``xfermi`` import and of every scipy
    module whose importer is not itself a scipy module."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    totals = {"xfermi": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []  # ancestors, walking the pre-order
    for depth, name, ms in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "xfermi":
            totals["xfermi"] = ms
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            totals["scipy"] += ms
        stack.append((depth, name))
    return totals


def _environment(seed: int, load_start: tuple) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a checkout exported without .git has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "xfermi").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
    }


# ------------------------------------------------------------ one workload


def _job(name: str, seed: int, seconds: float) -> tuple[dict, float]:
    rounds, edge = workloads.build(name, seed)
    t0 = time.perf_counter()
    expected = [[reference.expect_op(op) for op in ops] for ops in rounds]
    expected_edge = [reference.expect_op(op) for op in edge]
    ref_s = time.perf_counter() - t0
    job = {"workload": name, "rounds": rounds, "expected": expected, "edge": edge,
           "expected_edge": expected_edge, "seconds": seconds,
           "passes": workloads.trace_passes(name),
           "spans": str(OUT / f"spans-{name}-{seed}.json")}
    return job, ref_s


def _failed_frac(loop: dict, job: dict) -> tuple[float, int, int]:
    """Failures over one pass of every round plus the edge operations."""
    edge_failed = sum(not e["err_over_tol"] <= 1.0 for e in loop["edge"])
    pool = sum(len(ops) for ops in job["rounds"])
    frac = (loop["first_pass_failed"] + edge_failed) / (pool + len(job["edge"]))
    return frac, edge_failed, len(job["edge"])


def measure(name: str, seed: int, seconds: float) -> dict:
    job, ref_s = _job(name, seed, seconds)
    timeout = seconds + 150.0
    if name == "cli-mix":
        setups = _setup_samples(name, job, SETUP_SAMPLES)
        loop = _cli_loop(job, seconds)
    else:
        setups = _setup_samples(name, job, SETUP_SAMPLES - 1)
        ready, loop = _worker(dict(job, mode="run"), f"{name}-run", timeout)
        setups.append(ready)
    passes = loop["latencies_s"]
    # an operation's latency is the median of its repeats, one per pass.  The
    # CPU speed of a shared host drifts over seconds; medians over repeats
    # keep the prevailing speed, where means and single passes follow the drift
    per_op = [statistics.median(reps) for reps in zip(*passes)]
    tail, tail_pct = _tail(per_op)
    frac, edge_failed, edge_n = _failed_frac(loop, job)
    n_ops = len(per_op)
    ops = [op for op, _ in worker.flatten(job)]
    slowest = sorted(zip(per_op, ops), key=lambda pair: -pair[0])[:TAIL_BEYOND + 5]
    metrics = {
        # a pass in which every operation takes its median time
        "ops_per_s": n_ops / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "failed_frac": frac,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    detail = {
        "attempted": n_ops * len(passes), "failed": loop["failed"],
        "failures": loop["failures"], "passes": len(passes), "operations": n_ops,
        "latency_tail_percentile": tail_pct,
        "slowest_ms": [(lat * 1e3, op["kind"], op["args"].get("argv", op["args"]))
                       for lat, op in slowest],
        "tail_operations_beyond": min(TAIL_BEYOND, max(0, n_ops - 1)),
        "setup_samples_s": setups, "reference_s": ref_s, "elapsed_s": loop["elapsed_s"],
        "edge_attempted": edge_n, "edge_failed": edge_failed, "edge": loop["edge"],
        "pass_s": loop["pass_s"],
    }
    return {"metrics": metrics, "detail": detail}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    job, ref_s = _job(name, seed, seconds)
    layers = dict.fromkeys(tracing.PER_LAYER, 0.0)
    layers.update(_import_profile())
    nonzero = 0
    if name == "cli-mix":
        for op in job["rounds"][0]:  # one child per subcommand
            wall, code, _, _ = _cli_child(op["args"]["argv"], "trace")
            layers[f"cli.{op['args']['argv'][0]}.wall_ms"] = wall * 1e3
            nonzero += code != 0
    _, out = _worker(dict(job, mode="trace"), f"{name}-trace", seconds + 170.0)
    layers.update(out["layers"])
    for sub, ms in out["main_ms"].items():
        layers[f"cli.{sub}.main_ms"] = ms
    layers["cli.nonzero_exits"] = nonzero
    layers["trace.overhead_frac"] = out["traced_s"] / out["untraced_s"] - 1.0
    worst = out["worst"]
    for e in out["edge"]:
        if e["error"] is None:
            worst[e["kind"]] = max(worst.get(e["kind"], 0.0), e["err_over_tol"])
    eos_kinds = ("density", "energy_density", "pressure", "solve_point_eta",
                 "solve_point_n", "pauli")
    layers["eos.worst_err_over_tol"] = max([worst.get(k, 0.0) for k in eos_kinds])
    layers["degenerate.worst_err_over_tol"] = max(worst.get("mu_exact", 0.0),
                                                  worst.get("heat_exact", 0.0))
    edge_failed = sum(not e["err_over_tol"] <= 1.0 for e in out["edge"])
    layers["check.edge_failed"] = edge_failed
    layers["check.failed_frac"] = ((out["failed"] + edge_failed)
                                   / (out["attempted"] + len(job["edge"])))
    detail = {"attempted": out["attempted"], "failed": out["failed"], "reference_s": ref_s,
              "untraced_s": out["untraced_s"], "traced_s": out["traced_s"],
              "worst_err_over_tol": worst, "edge": out["edge"], "spans": job["spans"]}
    return {"metrics": layers, "detail": detail}


# ------------------------------------------------------------ entry


def _source_present() -> bool:
    return (SRC / "xfermi" / "__init__.py").is_file() and (SRC / "xfermi" / "cli.py").is_file()


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 1e308


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    result = (measure_traced if trace else measure)(name, seed, seconds)
    result["workload"] = name
    result["trace"] = int(trace)
    result["environment"] = _environment(seed, load_start)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    return result


def _summary(name: str, result: dict, trace: bool) -> None:
    units = END_TO_END if not trace else None
    _log(f"== {name} ({'traced' if trace else 'end to end'})")
    for key, value in result["metrics"].items():
        unit = units[key] if units else tracing.unit_of(key)
        _log(f"  {key:48s} {value:14.6g} {unit}")
    d = result["detail"]
    if not trace:
        _log(f"  {d['operations']} operations x {d['passes']} passes; tail = the operation "
             f"with {d['tail_operations_beyond']} slower ones (p{d['latency_tail_percentile']:.1f}); "
             f"edge operations failed: {d['edge_failed']} of {d['edge_attempted']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _source_present():
        _log(f"perfbench: no xfermi source under {SRC}; run from a source checkout")
        return 2
    compileall.compile_dir(str(SRC / "xfermi"), quiet=1)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
        _summary(name, result, bool(args.trace))
        results[name] = result

    if args.workload == "all":
        line = {name: {k: {"value": v, "unit": (tracing.unit_of(k) if args.trace
                                                else END_TO_END[k])}
                       for k, v in r["metrics"].items()} for name, r in results.items()}
        print(json.dumps(line))
        return 0
    result = results[args.workload]
    d = result["detail"]
    if args.trace:
        metrics = {k: {"value": _finite(result["metrics"][k]), "unit": tracing.unit_of(k)}
                   for k in tracing.PER_LAYER}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": END_TO_END[k]}
                   for k in BOUNDED_END_TO_END}
    print(json.dumps({"correct": d["failed"] == 0, "attempted": d["attempted"],
                      "failed": d["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
