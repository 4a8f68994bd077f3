"""The cost of a cold bundle build, phase by phase.

Usage (from the repository root):

    python3 scripts/bundle_cost.py
    python3 scripts/bundle_cost.py --repeats 50 --scales appendix

For each benchmark scale file (``tests/data/appendix.scale`` on the paper
schedule ``--ratio 1.22 --probes 10``, and ``perfbench/scales/{cubic,poly,
taylor}.scale`` on the default schedule, as the ``cli`` workload runs them)
it builds ``--repeats`` cold ``ScaleArtifacts`` bundles, each on a freshly
loaded scale, and prints the best time of each phase in milliseconds:

    verify     the hierarchy check of the fresh scale
    scan       the table of the leading and reversed prefix Wronskians at
               the schedule points (wronskian_table), which the chains'
               probe scans and prefix checks, the bundle's probes and the
               positivity test read
    type_II    the type-II (Polya) chain
    type_I     the type-I (Polya) chain
    probes     the bundle's well-conditioned probes
    grid       the tail reach and the work grid
    constants  the structural constants: the schedule's node-array chain
               passes (schedule_images, which the bundle runs before its
               probe cut, as the cut reads the weight values they leave)
               and operator_constants
    rest       the classification points
    total      the whole build

A build's time line is cut where each of the calls in ``CALLS`` returns in
``ScaleArtifacts.__init__``, and each stretch is charged to the phase of
the call that ends it, so the phases add up to the build.  Each column is
its own best over the repeats, so the phases need not add up to the best
total.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chebscale import expansion, load_scale_file, scale_schedule  # noqa: E402

SCALES = {
    "appendix": (ROOT / "tests" / "data" / "appendix.scale", (10, 1.22)),
    "cubic": (ROOT / "perfbench" / "scales" / "cubic.scale", ()),
    "poly": (ROOT / "perfbench" / "scales" / "poly.scale", ()),
    "taylor": (ROOT / "perfbench" / "scales" / "taylor.scale", ()),
}
# a name ScaleArtifacts.__init__ calls -> the phase of the stretch it ends
CALLS = {
    "require_verified": "verify",
    "wronskian_table": "scan",
    "build_type2_chain": "type_II",
    "build_type1_chain": "type_I",
    "schedule_images": "constants",
    "well_conditioned_probes": "probes",
    "WorkGrid": "grid",
    "operator_constants": "constants",
}
PHASES = ["verify", "scan", "type_II", "type_I", "probes", "grid", "constants"]
COLUMNS = [*PHASES, "rest", "total"]


def timed_build(scale, schedule):
    """One build's phase times in seconds, read off the returns of the
    calls in ``CALLS`` (wrapped for this build only)."""
    ends = {}
    real = {name: getattr(expansion, name) for name in CALLS}

    def closing(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.setdefault(name, time.perf_counter())
            return out
        return call

    for name, fn in real.items():
        setattr(expansion, name, closing(name, fn))
    try:
        start = time.perf_counter()
        expansion.ScaleArtifacts(scale, schedule)
        end = time.perf_counter()
    finally:
        for name, fn in real.items():
            setattr(expansion, name, fn)
    times, last = dict.fromkeys(PHASES, 0.0), start
    for name, t in sorted(ends.items(), key=lambda item: item[1]):
        times[CALLS[name]] += t - last
        last = t
    times["rest"] = end - last
    times["total"] = end - start
    return times


def best_times(path, schedule_args, repeats):
    best = dict.fromkeys(COLUMNS, float("inf"))
    for _ in range(repeats):
        scale = load_scale_file(str(path))
        schedule = scale_schedule(scale, *schedule_args)
        for column, t in timed_build(scale, schedule).items():
            best[column] = min(best[column], t)
    return best


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=20, help="builds per scale (best of N)")
    p.add_argument("--scales", nargs="+", choices=list(SCALES), default=list(SCALES))
    args = p.parse_args(argv)
    print(f"best of {args.repeats} cold builds, ms")
    print(f"{'scale':<10}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name in args.scales:
        best = best_times(*SCALES[name], args.repeats)
        print(f"{name:<10}" + "".join(f"{1e3 * best[c]:>10.3f}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
