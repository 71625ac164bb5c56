"""Compare an operation's result with its reference (see reference.py).

Kept free of third-party imports: the worker process loads it next to
xfermi, and the reference routes stay in the parent process.
"""

from __future__ import annotations

import csv
import io
import math


MODELS = {"exclusive": (2.0, 2.0), "fd": (2.0, 1.0), "boltzmann": (2.0, 0.0)}


def occupation_law(x: float, model: str) -> float:
    """weight / (e^x + blocking), written without overflow for x > 0."""
    g, a = MODELS[model]
    if x >= 0.0:
        w = math.exp(-x)
        return g * w / (1.0 + a * w)
    return g / (math.exp(x) + a)


def ratio(got: float, spec: list, se: float | None = None) -> float:
    """|error| over the allowed error; above 1 is a failure, inf if unusable."""
    expected, rel, abs_tol = spec[0], spec[1], spec[2]
    if got is None or not math.isfinite(got):
        return math.inf
    if abs_tol == "zscore":
        if not se or not math.isfinite(se):
            return math.inf
        return abs(got - expected) / (rel * se)
    allowed = rel * abs(expected) + abs_tol
    err = abs(got - expected)
    if allowed == 0.0:
        return 0.0 if err == 0.0 else math.inf
    return err / allowed


def compare(result: dict, expected: dict) -> float:
    """Worst error ratio over the quantities of one result."""
    worst = 0.0
    for name, spec in expected.items():
        worst = max(worst, ratio(result.get(name), spec, result.get("se")))
    return worst


def parse_cli(text: str) -> dict:
    """Rows of the CLI's csv output, keyed ``quantity`` and ``quantity@coord``.

    ``compare`` prints one column per model; its cells are keyed
    ``quantity@model``.  Oracle Monte Carlo rows are kept as a list.
    """
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    out: dict = {"mc_occupancy": []}
    if header[0] == "quantity":  # compare: quantity, exclusive, fd, boltzmann, provenance
        for row in body:
            for model, cell in zip(header[1:-1], row[1:-1]):
                if cell:
                    out[f"{row[0]}@{model}"] = float(cell)
        return out
    for coord, quantity, value, _provenance, stats in body:
        if quantity == "mc_occupancy":
            out["mc_occupancy"].append((float(coord), float(value), float(stats)))
            continue
        out.setdefault(quantity, float(value))
        if coord:
            out[f"{quantity}@{float(coord):g}"] = float(value)
    return out


def compare_cli(text: str, expected: dict) -> float:
    rows = parse_cli(text)
    worst = 0.0
    for name, spec in expected.items():
        if len(spec) == 4 and spec[2] == "law":  # oracle Monte Carlo rows
            z, limit, _, model = spec
            draws = rows.get("mc_occupancy", [])
            if not draws:
                return math.inf
            for energy, mean, se in draws:
                law = occupation_law(energy - math.log(z), model)
                worst = max(worst, ratio(mean, [law, limit, "zscore"], se))
            continue
        worst = max(worst, ratio(rows.get(name), spec))
    return worst
