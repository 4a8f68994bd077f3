"""chebscale benchmark: ``cli``, ``theorems`` and ``churn`` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one pass
untraced and the same pass traced, checks that both give the same outcomes
and reports the per-layer metrics.  The last line of standard output is one
JSON object; the lines before it print every metric by name and unit.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# end-to-end metric units; the generic op names are cli_s/check_s/query_s
# in the per-workload text (see README.md)
E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
OP_NAMES = {"cli": "cli", "theorems": "check", "churn": "query"}
RATE_NAMES = {"cli": "clis_per_s", "theorems": "checks_per_s", "churn": "queries_per_s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("cli", "theorems", "churn"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # ops per pass; the self-check uses small passes
    p.add_argument("--pass-size", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def pass_p90(per_pass):
    """Median over passes of each pass's p90: every pass has the same mix of
    ops, so this p90 always falls on the same ops, whatever the pass count."""
    return statistics.median(p90(times) for times in per_pass)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tally(ops):
    return Counter(op.cls for op in ops)


def print_metric(name, value, unit, note=""):
    shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else value)
    print(f"  {name:<40} {shown!s:>14} {unit:<6} {note}".rstrip())


def print_ops(title, ops):
    print(title)
    for op in ops:
        t = "" if op.seconds is None else f"{op.seconds:8.3f}s "
        detail = f"  [{op.detail[:110]}]" if op.cls != "ok" and op.detail else ""
        print(f"  {op.cls:<12} {t}{op.label[:90]}{detail}")


def print_failures(ops):
    """Non-ok ops grouped by class and target kind, with one example each."""
    groups = {}
    for op in ops:
        if op.cls != "ok":
            groups.setdefault((op.cls, op.label.split(" ")[0]), []).append(op)
    print("non-ok ops by class and target kind:")
    for (cls, kind), group in sorted(groups.items()):
        print(f"  {cls:<12} {kind:<20} {len(group):>4}  e.g. {group[0].detail[:160]}")


def timed_run(workload, args):
    from clock import perf
    from workloads import max_finite, untimed_ops

    clock = workload.clock
    t0 = perf()
    untimed = workload.sweep() if hasattr(workload, "sweep") else []
    # whole passes only, so every pass has the same mix of ops; a pass starts
    # only if it is expected to end within the run
    passes = []
    while True:
        t1 = perf()
        p = workload.run_pass(args.pass_size)
        if passes:
            p.after = None  # the untimed phase runs after the first pass only
        else:
            untimed += untimed_ops(p)
        passes.append(p)
        if 2 * perf() - t1 - t0 > args.seconds:
            break
    wall = perf() - t0
    ops = [op for p in passes for op in p.ops]

    # every pass repeats the run's inputs and must agree with the first
    # exactly, so the first pass stands for all of them in attempted/failed,
    # which then depend on the seed only, not on how many passes fit the run
    first = [op.signature for op in passes[0].ops]
    repeats_agree = all([op.signature for op in p.ops] == first for p in passes[1:])
    completed = all(op.cls not in ("crash", "refused") for op in ops)

    setups = [clock.scaled(*setup) for p in passes for setup in p.setups]
    per_pass = [[clock.scaled(*op.span) for op in p.ops] for p in passes]
    times = [t for pt in per_pass for t in pt]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(times),
        "op_p90_s": pass_p90(per_pass),
        "ops_per_s": len(ops) / (sum(times) + sum(clock.scaled(*e) for p in passes
                                                  for e in p.extra)),
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_times = [op.seconds for op in ops]
    raw = {
        "setup_s": statistics.median([setup[2] for p in passes for setup in p.setups]),
        "op_s": statistics.median(raw_times),
        "op_p90_s": pass_p90([[op.seconds for op in p.ops] for p in passes]),
        "ops_per_s": len(ops) / (sum(raw_times) + sum(e[1] - e[0] for p in passes
                                                      for e in p.extra)),
    }
    everything = passes[0].ops + untimed
    failed = sum(op.cls != "ok" for op in everything)
    probes = [op for op in untimed if op.label.startswith("probe")]
    stale = sum(op.cls == "stale" for op in probes)

    name = workload.name
    opn = OP_NAMES[name]
    print(f"workload {name}  seed {args.seed}  passes {len(passes)}  "
          f"timed ops {len(ops)}  untimed ops {len(untimed)}  wall {wall:.2f}s")
    if workload.name == "churn":
        print_failures(everything)
    else:
        print_ops("timed ops of the first pass:", passes[0].ops)
    if workload.name == "cli":
        print_ops("default-schedule sweep (untimed):", untimed)
    print("end-to-end metrics (times in reference seconds, raw wall seconds in brackets;"
          " see clock.py):")
    print_metric("setup_s", metrics["setup_s"], "s",
                 f"median of {len(setups)} set-ups [{raw['setup_s']:.6g}]")
    print_metric(f"{opn}_s", metrics["op_s"], "s",
                 f"median of {len(ops)} ops [{raw['op_s']:.6g}]")
    print_metric(f"{opn}_p90_s", metrics["op_p90_s"], "s",
                 f"median over passes of the p90 of {len(passes[0].ops)} ops"
                 f" [{raw['op_p90_s']:.6g}]")
    print_metric(f"{opn}_p90_s of all ops", p90(times), "s",
                 f"{len(ops) - int(0.9 * len(ops))} of {len(ops)} ops beyond it")
    print_metric(RATE_NAMES[name], metrics["ops_per_s"], "1/s",
                 f"ops over their summed time [{raw['ops_per_s']:.6g}]")
    kernel = sorted(clock.kernel_s)
    print_metric("calibration kernel", kernel[len(kernel) // 2], "s",
                 f"median of {len(kernel)}, range {kernel[0]:.4g}-{kernel[-1]:.4g}")
    print_metric("fail_frac", failed / len(everything), "ratio",
                 f"{failed} of {len(everything)} ops: the first pass and the untimed ones")
    if probes:
        print_metric("stale_frac", stale / len(probes), "ratio",
                     f"{stale} of {len(probes)} id-reuse probes")
    print_metric("coef_err_max", max_finite(op.coef_err for op in ops), "abs",
                 "max |extracted - true| coefficient")
    if name != "theorems":
        print_metric("route_gap_max", max_finite(op.route_gap for op in ops), "abs",
                     "max |recursive - operator| where both finite")
    print_metric("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(tally(everything).items())))
    print(f"checks: timed ops completed {completed}, repeated passes agree {repeats_agree}")
    return {
        "correct": completed and repeats_agree,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def traced_run(workload, args):
    from clock import perf
    from tracing import Tracer, per_layer_units
    from workloads import untimed_ops

    t0 = perf()
    plain = workload.run_pass(args.pass_size)
    plain_s = perf() - t0
    untimed_ops(plain)  # keep the heap as in a timed run
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf()
        traced = workload.run_pass(args.pass_size)
        traced_s = perf() - t0
    finally:
        tracer.uninstall()
    mismatches = [
        (a.label, a.cls, b.cls) for a, b in zip(plain.ops, traced.ops)
        if (a.cls, a.signature) != (b.cls, b.signature)
    ]
    same = len(plain.ops) == len(traced.ops) and not mismatches
    metrics = tracer.metrics(traced_s - plain_s)
    units = per_layer_units()
    span_file = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.tsv"
    tracer.write_spans(span_file)

    ops = traced.ops + untimed_ops(traced)
    failed = sum(op.cls != "ok" for op in ops)
    print(f"workload {workload.name}  seed {args.seed}  traced pass: {len(traced.ops)} ops")
    print(f"untraced pass {plain_s:.3f}s, traced pass {traced_s:.3f}s, "
          f"spans written to {span_file.relative_to(ROOT)}")
    print(f"checks: traced outcomes equal untraced {same}"
          + (f" (mismatches {mismatches[:5]})" if mismatches else ""))
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(tally(ops).items())))
    bases = tracer.bases()
    print("per-layer metrics:")
    for name, value in metrics.items():
        note = f"base {bases[name]}" if name in bases else ""
        print_metric(name, value, units[name], note)
    return {
        "correct": same,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chebscale" / "__init__.py").is_file():
        print(f"error: no chebscale sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from clock import Clock
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Clock())
    result = traced_run(workload, args) if args.trace else timed_run(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
