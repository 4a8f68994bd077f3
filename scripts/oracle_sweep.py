"""The theorem oracle on true expansions of the appendix scale.

Usage (from the repository root):

    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --targets "x + log(x) + x^-2"

Each target (a few members of exp(x) >> x >> log(x) >> 1 plus a decaying
remainder, so its expansion is true) runs through ``chebscale verify
--json`` in process, once on the default schedule and once on the paper
schedule (``--ratio 1.22 --probes 10``).  Per run it prints the theorems
whose report reads ``consistent: false``, "ok" when there are none, or
"refused" with the error when the command exits 2.  The theory allows no
inconsistent theorem on a true expansion, so every run should read ok; the
last line counts the runs that do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chebscale import cli  # noqa: E402

SCALE = ROOT / "tests" / "data" / "appendix.scale"
TARGETS = [
    "exp(-x) + x",
    "exp(-x) + log(x)",
    "exp(-x) + 1",
    "exp(-x) + exp(x)",
    "x^-3 + x",
    "x^-3 + log(x)",
    "x^-3 + 1",
    "x + log(x) + x^-2",
    "exp(-x)*cos(x) + x",
    "2*exp(x) - x + 3*log(x) + exp(-x)",
]
SCHEDULES = {"default": [], "paper": ["--ratio", "1.22", "--probes", "10"]}


def verify(target, extra):
    """The run's cell: the inconsistent theorems, "ok" or "refused: ..."."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--scale", str(SCALE), "--f", target, "--json", *extra]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == 2:
        return f"refused: {err.getvalue().strip()}"
    results = json.loads(out.getvalue())["results"]
    bad = [th for th, rep in results.items() if not rep["consistent"]]
    return ", ".join(bad) if bad else "ok"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--targets", nargs="+", default=TARGETS)
    args = p.parse_args(argv)
    rows = [["target", *SCHEDULES]]
    rows += [[target, *(verify(target, extra) for extra in SCHEDULES.values())]
             for target in args.targets]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    cells = [cell for row in rows[1:] for cell in row[1:]]
    print(f"runs not ok: {sum(c != 'ok' for c in cells)} of {len(cells)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
