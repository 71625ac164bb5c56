import os
import sys
from pathlib import Path

import numpy as np
import pytest

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

# `python -m xfermi` children import the package from this source tree too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    """Deterministic generator for property-style sweeps."""
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            label = nodeid.split("::")[-1]
            if outcome == "passed":
                results.setdefault(label, "PASS")
            else:
                results[label] = "FAIL"
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for label in sorted(results):
            terminalreporter.write_line(f"{label}: {results[label]}")
