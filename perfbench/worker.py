"""Run one workload's operations in a fresh interpreter.

    python worker.py JOB.json OUT.json

The job names a mode:

- ``setup``: import xfermi, run one operation of each kind, print
  ``ready`` and exit.  The parent times this from process start.
- ``run``: as ``setup``, then the closed loop: replay every round, one
  operation at a time, in whole passes until ``seconds`` have passed.
  Then check the edge operations once.
- ``trace``: as ``setup``, then ``passes`` pairs of passes over the
  rounds, one plain and one with spans recorded, and the edge
  operations.  Spans are written to the job's ``spans`` path at exit.

Each result is checked against the reference the job carries; an
exception or an error ratio above 1 counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

_perf = time.perf_counter


def _load_xfermi():
    import xfermi.astro
    import xfermi.cli
    import xfermi.degenerate
    import xfermi.ensemble
    import xfermi.eos
    import xfermi.magnetism
    import xfermi.occupancy

    return xfermi


def execute(xf, op: dict):
    """Run one operation through xfermi's public API; return its result.

    Functions are looked up at call time, so that installed spans apply.
    """
    kind, a = op["kind"], op["args"]
    model = xf.occupancy.MODELS[a["model"]] if "model" in a else None
    if kind in ("density", "energy_density", "pressure"):
        return {"value": getattr(xf.eos, kind)(a["eta"], model)}
    if kind in ("solve_point_eta", "solve_point_n"):
        point = (xf.eos.solve_point(model, eta=a["eta"]) if kind == "solve_point_eta"
                 else xf.eos.solve_point(model, n_lambda3=a["n"]))
        return {"eta": point.eta, "n_lambda3": point.n_lambda3,
                "energy_density": point.energy_density, "pressure": point.pressure}
    if kind == "pauli":
        r = xf.magnetism.pauli_magnetization(a["eta"], a["b"], model)
        return {"n_up": r.n_up, "n_down": r.n_down}
    if kind == "mu_exact":
        return {"value": xf.degenerate.chemical_potential_exact(a["t"], model)}
    if kind == "heat_exact":
        return {"value": xf.degenerate.specific_heat_exact(a["t"], model)}
    if kind == "landau_ratio":
        return {"value": xf.magnetism.landau_partition_ratio(a["z"], a["s"], model)}
    if kind == "landau_chi":
        return {"value": xf.magnetism.landau_susceptibility(a["n"], model)}
    if kind == "lane_emden":
        sol = xf.astro.lane_emden(a["index"])
        return {"xi1": sol.xi1, "mass_integral": sol.mass_integral}
    if kind == "enumerate":
        system = xf.ensemble.LevelSystem(tuple(a["energies"]), model)
        occ = xf.ensemble.mean_occupancies_enumerate(system, a["z"])
        return {f"level{i}": float(v) for i, v in enumerate(occ)}
    if kind == "mc":
        mean, se = xf.ensemble.mc_occupancy(a["energy"], a["z"], a["samples"], a["seed"], model)
        return {"mean": mean, "se": se}
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = xf.cli.main(list(a["argv"]))
        return {"exit": code, "stdout": out.getvalue()}
    raise KeyError(kind)


def run_checked(xf, op: dict, expected: dict) -> tuple[float, float, str | None]:
    """(latency s, error ratio, exception name) of one operation."""
    t0 = _perf()
    try:
        result = execute(xf, op)
    except Exception as exc:  # a failed operation, recorded and counted
        return _perf() - t0, math.inf, type(exc).__name__
    latency = _perf() - t0
    if op["kind"] == "cli":
        if result["exit"] != 0:
            return latency, math.inf, f"exit {result['exit']}"
        return latency, checks.compare_cli(result["stdout"], expected), None
    return latency, checks.compare(result, expected), None


def _kinds_once(rounds: list, expected: list):
    seen = set()
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            if op["kind"] not in seen:
                seen.add(op["kind"])
                yield op, expected[r][i]


def _edge(xf, job: dict) -> list[dict]:
    out = []
    for op, exp in zip(job["edge"], job["expected_edge"]):
        latency, ratio, error = run_checked(xf, op, exp)
        out.append({"kind": op["kind"], "args": op["args"], "latency_s": latency,
                    "err_over_tol": ratio, "error": error})
    return out


def flatten(job: dict) -> list[tuple[dict, dict]]:
    """(operation, reference) pairs of every round, in order."""
    return [(op, exp) for ops, exps in zip(job["rounds"], job["expected"])
            for op, exp in zip(ops, exps)]


def closed_loop(ops: list, seconds: float, run_one) -> dict:
    """Whole passes over ``ops``, one at a time, until ``seconds`` have passed.

    ``run_one(op, expected)`` returns (latency s, error ratio, error name).
    """
    passes, pass_s, failures = [], [], []
    first_pass_failed = 0
    start = _perf()
    while not passes or _perf() - start < seconds:
        latencies = []
        t0 = _perf()
        for op, exp in ops:
            latency, ratio, error = run_one(op, exp)
            latencies.append(latency)
            if not ratio <= 1.0:
                failures.append({"kind": op["kind"], "args": op["args"],
                                 "err_over_tol": ratio, "error": error})
                first_pass_failed += not passes
        pass_s.append(_perf() - t0)
        passes.append(latencies)
    return {
        "elapsed_s": _perf() - start,
        "latencies_s": passes,
        "pass_s": pass_s,
        "failed": len(failures),
        "failures": failures[:20],
        "first_pass_failed": first_pass_failed,
    }


def traced(xf, job: dict) -> dict:
    import tracing

    ops = flatten(job)

    # untraced and traced passes alternate, so that neither side always
    # runs first; the traced passes repeat exactly, so their counts do too
    tracer = tracing.Tracer()
    main_ms: dict = {}
    worst: dict = {}
    failed = 0
    untraced_s = traced_s = 0.0
    for p in range(job["passes"]):
        t0 = _perf()
        for op, exp in ops:
            latency, _, _ = run_checked(xf, op, exp)
            if op["kind"] == "cli":
                main_ms.setdefault(op["args"]["argv"][0], []).append(latency * 1e3)
        untraced_s += _perf() - t0
        tracer.install()
        try:
            t0 = _perf()
            for n, (op, exp) in enumerate(ops):
                tracer.op = p * len(ops) + n
                _, ratio, error = run_checked(xf, op, exp)
                if error is None:  # exceptions count as failures, not as error sizes
                    worst[op["kind"]] = max(worst.get(op["kind"], 0.0), ratio)
                failed += not ratio <= 1.0
            traced_s += _perf() - t0
        finally:
            tracer.uninstall()
    tracer.write(job["spans"])
    return {
        "layers": tracer.layer_metrics(),
        "main_ms": {k: sorted(v)[len(v) // 2] for k, v in main_ms.items()},
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "worst": worst,
        "failed": failed,
        "attempted": len(ops) * job["passes"],
    }


def main(job_path: str, out_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    xf = _load_xfermi()
    for op, exp in _kinds_once(job["rounds"], job["expected"]):
        run_checked(xf, op, exp)
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    if job["mode"] == "run":
        result = closed_loop(flatten(job), job["seconds"],
                             lambda op, exp: run_checked(xf, op, exp))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result = traced(xf, job)
    result["edge"] = _edge(xf, job)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
