"""Every output of the benchmark's workloads and of the CLI, one line each.

Usage (from the repository root):

    python3 scripts/outputs.py --seeds 21 22 > outputs.txt

Per seed it runs one pass of each ``perfbench`` workload (``cli``,
``theorems``, ``churn``) and its untimed phase (the ``cli``
default-schedule sweep, the ``churn`` id-reuse probes), and prints every
op's label, outcome class and signature: what repeated passes of the
benchmark must reproduce.  Which cycles of the id-reuse phase reuse an id
depends on the allocator, so its ops are printed by class only.  Then it
prints the ``--json`` report, without ``timings``, of ``analyze``,
``factorize``, ``expand`` and ``verify`` on ``tests/data/appendix.scale``
and ``perfbench/scales/*.scale``, on the default and the paper schedule
(``--ratio 1.22 --probes 10``), with the seed's ``cli`` kernel target of
each scale.  Nothing is timed, so two commits give the same outputs
exactly when one ``diff`` of their two printouts is empty.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from clock import perf  # noqa: E402
from workloads import CLI_COMMANDS, PAPER, WORKLOADS, run_cli, untimed_ops  # noqa: E402


class UncalibratedClock:
    """The workloads' clock without its calibration kernel: nothing here
    reads a time."""

    def tick(self, force=False):
        return perf()


def op_lines(seed):
    clock = UncalibratedClock()
    for name, workload in WORKLOADS.items():
        w = workload(seed, clock)
        ops = w.sweep() if hasattr(w, "sweep") else []
        p = w.run_pass()
        for op in ops + p.ops:
            yield f"{seed} {name} {op.label} | {op.cls} | {op.signature}"
        for op in untimed_ops(p):  # labels and order vary with the allocator
            yield f"{seed} {name} untimed | {op.cls} | {op.signature}"


def report_lines(seed):
    cli = WORKLOADS["cli"](seed, UncalibratedClock())
    fixtures = sorted((ROOT / "perfbench" / "scales").glob("*.scale"))
    paths = [ROOT / "tests" / "data" / "appendix.scale", *fixtures]
    for path in paths:
        target, _ = cli.targets[path.stem]
        for schedule, extra in (("default", []), ("paper", PAPER)):
            for command in CLI_COMMANDS:
                argv = [command, "--scale", str(path), "--json"]
                if command in ("expand", "verify"):
                    argv += ["--f", target]
                op = run_cli(argv + extra)
                yield f"{seed} report {schedule} {op.label} | {op.cls} | {op.signature}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[21])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for line in op_lines(seed):
            print(line)
        for line in report_lines(seed):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
