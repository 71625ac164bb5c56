"""Spans around the calls into each xfermi layer, and the per-layer metrics
derived from them.

``Tracer.install`` replaces each public function of interest in every
loaded ``xfermi`` module namespace that holds it, plus scipy's ``quad``
and ``brentq`` as ``numerics`` calls them, with a wrapper that records
a span: name, start, end, parent span and operation id.  Spans stay in
memory until ``write``.  The occupation law runs once per integrand
point, so it is counted, not spanned.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

from workloads import CLI_SUBCOMMANDS

_perf = time.perf_counter

# (module, function, span name)
SPANNED = (
    ("numerics", "integrate_semi_infinite", "numerics.integrate_semi_infinite"),
    ("numerics", "find_root", "numerics.find_root"),
    ("numerics", "integrate_ode", "numerics.integrate_ode"),
    ("eos", "density", "eos.density"),
    ("eos", "energy_density", "eos.energy_density"),
    ("eos", "pressure", "eos.pressure"),
    ("eos", "solve_fugacity", "eos.solve_fugacity"),
    ("eos", "solve_point", "eos.solve_point"),
    ("degenerate", "chemical_potential_exact", "degenerate.chemical_potential_exact"),
    ("degenerate", "specific_heat_exact", "degenerate.specific_heat_exact"),
    ("magnetism", "landau_partition_ratio", "magnetism.landau_partition_ratio"),
    ("magnetism", "landau_susceptibility", "magnetism.landau_susceptibility"),
    ("magnetism", "pauli_magnetization", "magnetism.pauli_magnetization"),
    ("astro", "lane_emden", "astro.lane_emden"),
    ("ensemble", "mean_occupancies_enumerate", "ensemble.enumerate"),
    ("ensemble", "grand_partition_enumerate", "ensemble.enumerate"),
    ("ensemble", "mc_occupancy", "ensemble.mc_occupancy"),
    ("cli", "main", "cli.main"),
)

# every per-layer metric, in the order BENCHMARK.json lists them
PER_LAYER = (
    ["import.interpreter_ms", "import.xfermi_ms", "import.scipy_ms",
     "occupancy.occupation.calls",
     "numerics.quad.calls", "numerics.quad.neval", "numerics.quad.self_s",
     "numerics.integrate_semi_infinite.calls", "numerics.integrate_semi_infinite.self_s",
     "numerics.find_root.calls", "numerics.find_root.iterations", "numerics.find_root.self_s",
     "numerics.integrate_ode.steps", "numerics.integrate_ode.rhs_evals",
     "numerics.integrate_ode.self_s"]
    + [f"eos.{f}.{q}" for f in ("density", "energy_density", "pressure")
       for q in ("calls", "self_s")]
    + ["eos.solve_fugacity.calls", "eos.solve_fugacity.self_s",
       "eos.solve_fugacity.density_evals_per_call", "eos.solve_fugacity.bracket_share",
       "eos.solve_point.self_s", "eos.worst_err_over_tol",
       "degenerate.chemical_potential_exact.self_s", "degenerate.specific_heat_exact.self_s",
       "degenerate.inversions_per_op", "degenerate.worst_err_over_tol",
       "magnetism.landau_partition_ratio.self_s", "magnetism.levels_summed",
       "magnetism.levels_per_call", "magnetism.landau_susceptibility.self_s",
       "magnetism.pauli_magnetization.self_s",
       "astro.lane_emden.self_s", "astro.lane_emden.steps",
       "ensemble.enumerate.configs", "ensemble.enumerate.self_s",
       "ensemble.enumerate.configs_per_s", "ensemble.mc_occupancy.samples_per_s"]
    + [f"cli.{c}.wall_ms" for c in CLI_SUBCOMMANDS]
    + [f"cli.{c}.main_ms" for c in CLI_SUBCOMMANDS]
    + ["cli.nonzero_exits", "check.failed_frac", "check.edge_failed", "trace.overhead_frac"]
)

UNITS = {"calls": "count", "neval": "count", "iterations": "count", "steps": "count",
         "rhs_evals": "count", "configs": "count", "levels_summed": "count",
         "nonzero_exits": "count", "edge_failed": "count", "self_s": "s", "wall_ms": "ms",
         "main_ms": "ms", "configs_per_s": "1/s", "samples_per_s": "1/s"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("import."):
        return "ms"
    return UNITS.get(last, "ratio")


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name: str, fn, after=None, wrap_args=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        """Wrap the functions in every xfermi namespace that imported them."""
        import xfermi.numerics as numerics
        import xfermi.occupancy as occupancy

        counts = self.counts
        modules = [m for n, m in sys.modules.items()
                   if (n == "xfermi" or n.startswith("xfermi.")) and m is not None]
        replacements = {id(occupancy.occupation):
                        self._counted("occupancy.occupation", occupancy.occupation)}
        for mod_name, fn_name, span_name in SPANNED:
            fn = getattr(sys.modules[f"xfermi.{mod_name}"], fn_name)
            after = wrap_args = None
            if span_name == "numerics.integrate_ode":
                def wrap_args(args):
                    rhs = args[0]

                    def counted_rhs(t, y):
                        counts["numerics.integrate_ode.rhs_evals"] += 1
                        return rhs(t, y)

                    return (counted_rhs,) + tuple(args[1:])

                def after(args, kwargs, result):
                    counts["numerics.integrate_ode.steps"] += result.steps
            elif span_name == "ensemble.enumerate":
                def after(args, kwargs, result):
                    system = args[0]
                    counts["ensemble.enumerate.configs"] += system.radix ** len(system.energies)
            elif span_name == "ensemble.mc_occupancy":
                def after(args, kwargs, result):
                    counts["ensemble.mc_occupancy.samples"] += int(args[2])
            replacements[id(fn)] = self._spanned(span_name, fn, after, wrap_args)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and callable(value):
                    self._patch(module, attr, replacements[id(value)])

        # scipy's quad and brentq, as numerics calls them
        sp_int, sp_opt = numerics._sp_integrate, numerics._sp_optimize

        def after_quad(args, kwargs, out):
            if len(out) > 2 and isinstance(out[2], dict):
                counts["numerics.quad.neval"] += out[2].get("neval", 0)

        def brentq(*args, **kwargs):
            root, result = sp_opt.brentq(*args, **kwargs)
            counts["numerics.find_root.iterations"] += result.iterations
            return root, result

        self._patch(numerics, "_sp_integrate", types.SimpleNamespace(
            quad=self._spanned("numerics.quad", sp_int.quad, after_quad)))
        self._patch(numerics, "_sp_optimize", types.SimpleNamespace(brentq=brentq))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, handle)

    # ------------------------------------------------------------ metrics

    def layer_metrics(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]

        def has_ancestor(i: int, names: tuple) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        inversion_density = bracket_density = levels = 0
        degenerate_ops = ("degenerate.chemical_potential_exact",
                          "degenerate.specific_heat_exact")
        degenerate_inversions = 0
        for i, (name, _, _, parent, _) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "eos.density" and has_ancestor(i, ("eos.solve_fugacity",)):
                inversion_density += 1
                bracket_density += parent_name == "eos.solve_fugacity"
            elif (name == "numerics.integrate_semi_infinite"
                  and parent_name == "magnetism.landau_partition_ratio"):
                levels += 1
            elif name == "eos.solve_fugacity" and has_ancestor(i, degenerate_ops):
                degenerate_inversions += 1

        c = self.counts
        enum_self = self_s["ensemble.enumerate"]
        mc_self = self_s["ensemble.mc_occupancy"]
        n_fug = calls["eos.solve_fugacity"]
        n_deg = sum(calls[n] for n in degenerate_ops)
        m = {
            "occupancy.occupation.calls": c["occupancy.occupation"],
            "numerics.quad.calls": calls["numerics.quad"],
            "numerics.quad.neval": c["numerics.quad.neval"],
            "numerics.find_root.iterations": c["numerics.find_root.iterations"],
            "numerics.integrate_ode.steps": c["numerics.integrate_ode.steps"],
            "numerics.integrate_ode.rhs_evals": c["numerics.integrate_ode.rhs_evals"],
            "eos.solve_fugacity.density_evals_per_call":
                inversion_density / n_fug if n_fug else 0.0,
            "eos.solve_fugacity.bracket_share":
                bracket_density / inversion_density if inversion_density else 0.0,
            "degenerate.inversions_per_op": degenerate_inversions / n_deg if n_deg else 0.0,
            "magnetism.levels_summed": levels,
            "magnetism.levels_per_call":
                levels / calls["magnetism.landau_partition_ratio"]
                if calls["magnetism.landau_partition_ratio"] else 0.0,
            # lane_emden is the only caller of integrate_ode
            "astro.lane_emden.steps": c["numerics.integrate_ode.steps"],
            "ensemble.enumerate.configs": c["ensemble.enumerate.configs"],
            "ensemble.enumerate.configs_per_s":
                c["ensemble.enumerate.configs"] / enum_self if enum_self else 0.0,
            "ensemble.mc_occupancy.samples_per_s":
                c["ensemble.mc_occupancy.samples"] / mc_self if mc_self else 0.0,
        }
        for name in ("numerics.quad", "numerics.integrate_semi_infinite", "numerics.find_root",
                     "eos.density", "eos.energy_density", "eos.pressure", "eos.solve_fugacity"):
            m[f"{name}.calls"] = calls[name]
        for name in ("numerics.quad", "numerics.integrate_semi_infinite", "numerics.find_root",
                     "numerics.integrate_ode", "eos.density", "eos.energy_density",
                     "eos.pressure", "eos.solve_fugacity", "eos.solve_point",
                     "degenerate.chemical_potential_exact", "degenerate.specific_heat_exact",
                     "magnetism.landau_partition_ratio", "magnetism.landau_susceptibility",
                     "magnetism.pauli_magnetization", "astro.lane_emden", "ensemble.enumerate"):
            m[f"{name}.self_s"] = self_s[name]
        return m
