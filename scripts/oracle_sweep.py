"""The theorem oracle on true expansions, one target table per scale.

Usage (from the repository root):

    python3 scripts/oracle_sweep.py
    python3 scripts/oracle_sweep.py --scale poly
    python3 scripts/oracle_sweep.py --targets "x + log(x) + x^-2"

Each target of a scale's table (a few of its members plus a remainder the
scale's last member dominates, so its expansion is true) runs through
``chebscale verify --json`` in process: on the default schedule, and toward
an infinite x0 also on the paper schedule (``--ratio 1.22 --probes 10``),
which applies only there.  The scales are the appendix scale
exp(x) >> x >> log(x) >> 1, and the tier-1 fixtures taylor (1 >> 1-x >>
(1-x)^2 >> (1-x)^3 toward 1), poly (x^3 >> x^2 >> x >> 1 toward +inf) and
cubic (1 >> x >> x^2 >> x^3 toward 0 from below).  Per run it prints the
theorems whose report reads ``consistent: false``, "ok" when there are
none, or "refused" with the error when the command exits 2.  The theory
allows no inconsistent theorem on a true expansion, so every run should
read ok; the last line counts the runs that do not.  ``--targets``
replaces the table of the one scale ``--scale`` names (default appendix).
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

from chebscale import cli, load_scale_file  # noqa: E402

FIXTURES = ROOT / "perfbench" / "scales"
SCALES = {
    "appendix": (ROOT / "tests" / "data" / "appendix.scale", [
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
    ]),
    "taylor": (FIXTURES / "taylor.scale", ["x^3 + x^5", "1 + x^4", "2*x^3 - x^7"]),
    "poly": (FIXTURES / "poly.scale", [
        "2*x^2 - 1 + exp(-x)", "x^3 + 1/x", "x + x^-2", "x^3 + x^(-1/2)",
    ]),
    "cubic": (FIXTURES / "cubic.scale", [
        "1 + x^4", "x - x^5", "x^2 + x^4*exp(x)", "3 + x^3 + x^4",
    ]),
}
SCHEDULES = {"default": [], "paper": ["--ratio", "1.22", "--probes", "10"]}


def schedules(path):
    """The schedules a scale runs on: both toward an infinite x0, else the
    default one."""
    return list(SCHEDULES) if load_scale_file(str(path)).infinite else ["default"]


def verify(path, target, extra):
    """The run's cell: the inconsistent theorems, "ok" or "refused: ..."."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--scale", str(path), "--f", target, "--json", *extra]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code == 2:
        return f"refused: {err.getvalue().strip()}"
    results = json.loads(out.getvalue())["results"]
    bad = [th for th, rep in results.items() if not rep["consistent"]]
    return ", ".join(bad) if bad else "ok"


def sweep(name, targets=None):
    """The rows of one scale's table: the header (the scale's name, then its
    schedules), then per target its name and one cell per schedule."""
    path, table = SCALES[name]
    names = schedules(path)
    rows = [[name, *names]]
    rows += [[target, *(verify(path, target, SCHEDULES[s]) for s in names)]
             for target in targets or table]
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", choices=list(SCALES),
                   help="the one scale to sweep (default: all, or appendix with --targets)")
    p.add_argument("--targets", nargs="+", help="the targets, in place of the scale's table")
    args = p.parse_args(argv)
    names = [args.scale] if args.scale else (["appendix"] if args.targets else list(SCALES))
    counts = []
    for name in names:
        rows = sweep(name, args.targets)
        widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        cells = [cell for row in rows[1:] for cell in row[1:]]
        counts.append((name, sum(c != "ok" for c in cells), len(cells)))
        if len(names) > 1:
            print(f"{name}: {counts[-1][1]} of {counts[-1][2]} runs not ok\n")
    print(f"runs not ok: {sum(c[1] for c in counts)} of {sum(c[2] for c in counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
