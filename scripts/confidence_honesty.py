"""Confidence honesty of the two extraction routes on the ``churn`` targets.

Usage (from the repository root):

    python3 scripts/confidence_honesty.py --seeds 21 22 23

For each seed it draws the targets of one ``churn`` pass (the same draw as
``perfbench/workloads.py``), keeps those with a known truth (kernel sums and
``tail`` constructions) and runs ``extract_operator`` and
``extract_recursive`` on the pass's appendix bundle.  Per route it prints
how many coefficients are decisive (status ``stable`` or ``loose``, finite
value), how many of those miss the truth by more than their confidence and
by more than ten times it, and the worst ratio of miss to confidence.  An
honest confidence bounds the miss, so the last three read 0, 0 and <= 1.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import chebscale as cs  # noqa: E402
from corpus import APPENDIX, CONSTRUCTED, build_bundle, draw_coefficients  # noqa: E402
from workloads import CHURN_TARGETS, _kernel_target  # noqa: E402

DECISIVE = ("stable", "loose")


def churn_targets(seed, art):
    """(target, truth) of one churn pass, truth None where unknown."""
    rng = random.Random(f"{seed}:churn")
    for j in range(CHURN_TARGETS):
        coeffs = draw_coefficients(rng, [1.0] * art.n)
        if j % 2 == 0:
            yield _kernel_target(APPENDIX[0], coeffs), coeffs
            continue
        _, text, mode, _ = CONSTRUCTED[(j // 2) % len(CONSTRUCTED)]
        psi = cs.ExpressionFunction(text)
        f = cs.construct_from_source(art, coeffs, psi, mode=mode)
        yield f, coeffs if mode == "tail" else None


def route_records(seed):
    art = build_bundle(APPENDIX)
    routes = {
        "operator": lambda f: cs.extract_operator(f, art.scale, art.chain_q, art.constants,
                                                  art.schedule),
        "recursive": lambda f: cs.extract_recursive(f, art.scale, art.schedule),
    }
    for f, truth in churn_targets(seed, art):
        if truth is None:
            continue
        for route, extract in routes.items():
            try:
                res = extract(f)
            except cs.ChebscaleError:
                continue
            for i, (value, conf) in enumerate(zip(res.coefficients, res.confidences)):
                yield {"route": route, "status": res.statuses[i], "value": value,
                       "confidence": conf, "truth": truth[i]}


def miss_ratio(rec):
    err, conf = abs(rec["value"] - rec["truth"]), rec["confidence"]
    if conf > 0:
        return err / conf
    return math.inf if err > 0 else 0.0


def summary(records):
    decisive = [r for r in records
                if r["status"] in DECISIVE and math.isfinite(r["value"])]
    ratios = [miss_ratio(r) for r in decisive]
    return (len(decisive), sum(q > 1.0 for q in ratios), sum(q > 10.0 for q in ratios),
            max(ratios, default=0.0))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[21, 22, 23])
    args = p.parse_args(argv)
    print(f"{'seed':>4}  {'route':<9}  {'decisive':>8}  {'err>conf':>8}  "
          f"{'err>10conf':>10}  {'worst err/conf':>14}")
    for seed in args.seeds:
        records = list(route_records(seed))
        for route in ("operator", "recursive"):
            n, over, over10, worst = summary([r for r in records if r["route"] == route])
            print(f"{seed:>4}  {route:<9}  {n:>8}  {over:>8}  {over10:>10}  {worst:>14.4g}")


if __name__ == "__main__":
    main()
