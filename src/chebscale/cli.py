"""Command-line frontend.

Commands: ``analyze`` (hierarchy / Wronskian / Levin verification),
``factorize`` (both chains, canonicity, structural constants, algorithm
cross-check), ``expand`` (both coefficient-extraction routes) and ``verify``
(theorem report suites; each checker runs once, and the theorems it decides
share its report).  No command, check or bundle builds the principal
system; ``factorize`` reports the ``b`` of the structural constants, read
off a constancy test.  Exit codes: 0 all consistent, 1 a decisive
inconsistency or failed verdict, 2 input error or a computation that left
double range (an ``error:`` line on stderr).

Schedules (``--probes``, ``--ratio``) are capped at the scale's finite reach.
``analyze`` decides the hierarchy and Levin verdicts on the package's
verification schedule, which the report names, and checks the Wronskians
(TAS) pointwise on the command's schedule.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .errors import ChebscaleError
from .expansion import (
    artifacts_for,
    check_absolute,
    check_complete,
    check_incomplete,
    check_O,
    extract_operator,
    extract_recursive,
)
from .expr import ExpressionFunction
from .factorization import divide_and_differentiate, fit_ratio_constant
from .scale import (
    default_verification_schedule,
    load_scale_file,
    scale_schedule,
    verify_hierarchy,
    verify_tas,
)
from .wronskian import check_levin_hierarchy

THEOREMS = ("4.4", "4.5", "5.1", "5.2", "5.3", "6.1", "6.2", "6.3")


def _fmt(value):
    """Canonical number rendering: decimal strings, 17 significant digits."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    return value


def _jsonable(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)


def render_json(report):
    """Deterministic rendering: sorted keys, fixed separators, numbers as
    decimal strings, so re-rendering a loaded report is byte-identical."""
    return json.dumps(_jsonable(report), sort_keys=True, separators=(",", ":"))


def _emit(report, as_json):
    if as_json:
        print(render_json(report))
        return
    print(f"command: {report['command']}")
    for key, val in report.items():
        if key in ("command", "timings"):
            continue
        print(f"-- {key}")
        print(json.dumps(_jsonable(val), sort_keys=True, indent=2))


def _schedule_summary(schedule):
    return {"kind": schedule.kind, "points": [_fmt(p) for p in schedule.points]}


def _scale_summary(scale, schedule):
    return {
        "functions": [f.name for f in scale.functions],
        "T": _fmt(scale.T),
        "x0": "inf" if scale.infinite else _fmt(scale.x0),
        "n": scale.n,
        "schedule": _schedule_summary(schedule),
    }


def cmd_analyze(scale, args):
    schedule = scale_schedule(scale, args.probes, args.ratio)
    wide = default_verification_schedule(scale)
    hierarchy = verify_hierarchy(scale, wide, tol=args.tol)
    tas = verify_tas(scale, list(schedule.points))
    # W(1..k) >> W(1..k-1, j) for j > k: Levin's index conditions hold by construction
    pairs = [(tuple(range(1, k + 1)), (*range(1, k), j))
             for k in range(1, min(scale.n, 3)) for j in range(k + 1, scale.n + 1)]
    levin = check_levin_hierarchy(scale, pairs, wide)
    passed = hierarchy.passed and tas.passed and all(p["passed"] for p in levin)
    report = {
        "command": "analyze",
        "scale": _scale_summary(scale, schedule),
        "results": {
            "verification_schedule": _schedule_summary(wide),
            "hierarchy": {"passed": hierarchy.passed, **hierarchy.details},
            "tas": {"passed": tas.passed, **tas.details},
            "levin": levin,
        },
        "verdicts": {"passed": passed},
    }
    return report, 0 if passed else 1


def cmd_factorize(scale, args):
    schedule = scale_schedule(scale, args.probes, args.ratio)
    art = artifacts_for(scale, schedule)
    probes = art.probes
    # on the probes the bundle's chains chose: no Wronskian evaluated again
    dd_p = divide_and_differentiate(scale, "last", art.chain_p.probes)
    ratio_checks = {}
    for i in range(scale.n + 1):
        c, dev = fit_ratio_constant(art.chain_p.weights[i], dd_p.weights[i], probes)
        ratio_checks[f"p{i}"] = {"constant": _fmt(c), "max_rel_dev": _fmt(dev)}
    report = {
        "command": "factorize",
        "scale": _scale_summary(scale, schedule),
        "results": {
            "type_II_chain": art.chain_q.report(schedule),
            "type_I_chain": art.chain_p.report(schedule),
            "algorithm_vs_polya": ratio_checks,
            "epsilon": art.constants.epsilon,
            "epsilon_hk": {f"{h},{k}": v for (h, k), v in art.constants.epsilon_hk.items()},
            "b": [_fmt(b) for b in art.constants.b],
            "positivity_case": art.constants.positivity_case,
        },
        "verdicts": {
            "canonicity_type_II": art.chain_q.canonicity,
            "canonicity_type_I": art.chain_p.canonicity,
        },
    }
    return report, 0


def cmd_expand(scale, args):
    if not args.f:
        raise ChebscaleError("expand needs --f <expression>")
    schedule = scale_schedule(scale, args.probes, args.ratio)
    f = ExpressionFunction(args.f)
    rec = extract_recursive(f, scale, schedule)
    art = artifacts_for(scale, schedule)
    op = extract_operator(f, scale, art.chain_q, art.constants, schedule)
    m = min(len(rec.coefficients), len(op.coefficients))
    disagreement = None
    if m and all(math.isfinite(c) for c in rec.coefficients[:m]) and all(
        math.isfinite(c) for c in op.coefficients[:m]
    ):
        disagreement = max(
            abs(a - b) for a, b in zip(rec.coefficients[:m], op.coefficients[:m])
        )
    report = {
        "command": "expand",
        "scale": _scale_summary(scale, schedule),
        "function": args.f,
        "results": {
            "recursive": {
                "coefficients": [_fmt(c) for c in rec.coefficients],
                "confidence": [_fmt(c) for c in rec.confidences],
                "partial": rec.partial,
            },
            "operator": {
                "coefficients": [_fmt(c) for c in op.coefficients],
                "confidence": [_fmt(c) for c in op.confidences],
                "partial": op.partial,
            },
            "route_disagreement": _fmt(disagreement) if disagreement is not None else None,
        },
        "verdicts": {"agree": disagreement is not None and disagreement < 1e-4},
    }
    return report, 0


def cmd_verify(scale, args):
    if not args.f:
        raise ChebscaleError("verify needs --f <expression>")
    schedule = scale_schedule(scale, args.probes, args.ratio)
    f = ExpressionFunction(args.f)
    art = artifacts_for(scale, schedule)
    wanted = THEOREMS if args.theorem == "all" else (args.theorem,)
    # each checker runs once; the theorems it decides share its report
    checkers = {
        ("4.4", "5.2", "6.3"): lambda: check_incomplete(f, max(1, scale.n - 1), art),
        ("4.5", "5.1", "6.1"): lambda: check_complete(f, art),
        ("5.3",): lambda: check_O(f, scale.n, art),
        ("6.2",): lambda: check_absolute(f, art),
    }
    reports = {}
    for theorems, check in checkers.items():
        decided = [th for th in theorems if th in wanted]
        if decided:
            rep = check()
            entry = {
                "theorem": rep.theorem,
                "consistent": rep.consistent,
                "verdicts": rep.verdicts,
                "notes": rep.notes,
            }
            reports.update((th, entry) for th in decided)
    consistent = all(r["consistent"] for r in reports.values())
    any_fail = any(
        v["status"] == "fails"
        for r in reports.values()
        for v in r["verdicts"].values()
    )
    report = {
        "command": "verify",
        "scale": _scale_summary(scale, schedule),
        "function": args.f,
        "results": reports,
        "verdicts": {"consistent": consistent, "any_failed": any_fail},
    }
    return report, 0 if consistent and not any_fail else 1


@functools.cache
def build_parser():
    """The command-line parser, built once per process: ``parse_args``
    returns a new namespace per call and keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="chebscale",
        description="Canonical factorizations and asymptotic expansions over "
        "Chebyshev asymptotic scales.",
    )
    parser.add_argument("command", choices=("analyze", "factorize", "expand", "verify"))
    parser.add_argument("--scale", required=True, help="scale-definition file")
    parser.add_argument("--f", help="target function expression")
    parser.add_argument("--x0", help="override the limit point")
    parser.add_argument("--T", type=float, help="override the left endpoint")
    parser.add_argument("--probes", type=int, default=12,
                        help="schedule length, capped at the scale's finite reach")
    parser.add_argument("--ratio", type=float,
                        help="schedule ratio; the schedule is capped at the scale's finite reach")
    parser.add_argument("--tol", type=float, default=1e-4, help="verification tolerance")
    parser.add_argument("--theorem", default="all", choices=THEOREMS + ("all",))
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        scale = load_scale_file(args.scale)
        if args.x0 is not None or args.T is not None:
            x0 = scale.x0
            if args.x0 is not None:
                x0 = math.inf if args.x0.lower() in ("inf", "+inf") else float(args.x0)
            T = scale.T if args.T is None else args.T
            scale = type(scale)(scale.functions, T, x0, name=scale.name)
        handler = {
            "analyze": cmd_analyze,
            "factorize": cmd_factorize,
            "expand": cmd_expand,
            "verify": cmd_verify,
        }[args.command]
        report, code = handler(scale, args)
    except (ChebscaleError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["timings"] = {"seconds": _fmt(time.time() - t0)}
    _emit(report, args.json)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
