"""Run a fixed list of ``python -m xfermi`` invocations in two checkouts and
report each one whose stdout or exit code differs, or rewrite the committed
transcript of this checkout's output.

    python3 scripts/cli_diff.py --parent ../parent --change .
    python3 scripts/cli_diff.py --write

``--parent`` and ``--change`` are source checkouts, each with its own
``src/``.  Every invocation runs in the checkout's directory with
``PYTHONPATH=<checkout>/src``, ``XFERMI_SEED`` unset and ``COLUMNS=80``.
The invocations are those of ``tests/cli_invocations.py``: the help texts,
every subcommand under each model it accepts in each format, and its case
lists.  An invocation still running after 600 s is stopped and reported as
exit ``timeout``.  Stderr is not compared: it carries warnings with source
line numbers.  Exits 1 if any invocation differs, else 0.

``--write`` runs the same invocations in one interpreter on this checkout's
``src/`` and rewrites ``tests/golden/cli.txt``, which the test suite
compares with the output of the code under test.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

from cli_invocations import (GOLDEN, block, header, invocations,  # noqa: E402
                             preamble, run_all)


def run(checkout: Path, argv: list[str]) -> tuple[int | str, str]:
    env = {k: v for k, v in os.environ.items() if k != "XFERMI_SEED"}
    env.update(PYTHONPATH=str(checkout / "src"), COLUMNS="80")
    try:
        done = subprocess.run([sys.executable, "-m", "xfermi", *argv], cwd=checkout,
                              env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    return done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(_ROOT)} from this checkout")
    args = parser.parse_args()
    runs = invocations()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        blocks = [block(argv, code, out) for argv, (code, out) in zip(runs, run_all(runs))]
        GOLDEN.write_text(preamble() + "".join(blocks))
        print(f"cli_diff: wrote {len(runs)} invocations to {GOLDEN}", file=sys.stderr)
        return 0
    if args.parent is None or args.change is None:
        parser.error("give --parent and --change, or --write")
    parent, change = args.parent.resolve(), args.change.resolve()

    def both(argv):
        return run(parent, argv), run(change, argv)

    differ = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for argv, ((code_p, out_p), (code_c, out_c)) in zip(runs, pool.map(both, runs)):
            if (code_p, out_p) == (code_c, out_c):
                continue
            differ += 1
            print(f"{header(argv)}: exit {code_p} -> {code_c}")
            diff = difflib.unified_diff(out_p.splitlines(), out_c.splitlines(),
                                        "parent", "change", lineterm="", n=0)
            for line in list(diff)[:12]:
                print(f"    {line}")
    print(f"cli_diff: {differ} of {len(runs)} invocations differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
