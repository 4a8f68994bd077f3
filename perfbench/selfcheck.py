"""The benchmark's own tests; run from the repository root:

    python3 perfbench/selfcheck.py

1. Traced call counts, attempted and failed ops repeat exactly for a fixed
   seed (two fresh processes, small passes of every workload), and each
   traced pass reproduces the untraced pass's verdicts, coefficients and
   outcome classes.
2. The output checks classify synthetic CLI outcomes as documented.
3. The tracer rebinds every namespace that binds a traced name and restores
   them all.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES = []


def check(cond, message):
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        FAILURES.append(message)


def traced(workload, size, seed=5):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--pass-size", str(size)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" or k.endswith("_frac") or k.endswith("_ratio")}


def test_counts_repeat():
    for workload, size in (("churn", 6), ("theorems", 6), ("cli", 3)):
        a, b = traced(workload, size), traced(workload, size)
        check(a["correct"] and b["correct"],
              f"{workload}: traced pass reproduces the untraced pass")
        diff = {k: (v, counts(b)[k]) for k, v in counts(a).items() if counts(b)[k] != v}
        check(not diff, f"{workload}: call counts repeat exactly {diff or ''}")
        check((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
              f"{workload}: attempted and failed repeat exactly")
        check(counts(a)["jet.mul.calls"] > 0, f"{workload}: jet arithmetic is counted")


def test_output_checks():
    import workloads as w

    check(not w._verdicts_well_formed({"agree": "np.True_"}), "np.True_ verdict is malformed")
    check(w._verdicts_well_formed({"passed": True}), "boolean verdict is well formed")
    check(w._verdicts_well_formed({"canonicity_type_I": {"x0": "type_I", "T": "unknown"}}),
          "per-endpoint canonicity verdict is well formed")

    op = w.run_cli(["analyze", "--scale", str(HERE / "no-such.scale"), "--json"])
    check(op.cls == "refused", f"missing scale file is refused ({op.cls})")

    real = w.cs_cli.run
    try:
        def raises(argv):
            raise OverflowError("math range error")

        w.cs_cli.run = raises
        check(w.run_cli(["analyze"]).cls == "crash", "escaped exception is a crash")

        def loose_json(argv):
            print(json.dumps({"command": "analyze", "verdicts": {"passed": True}}))
            return 0

        w.cs_cli.run = loose_json
        check(w.run_cli(["analyze"]).cls == "malformed",
              "report that does not re-render to the same bytes is malformed")

        def verdict_exit(argv):
            print(w.cs_cli.render_json({"command": "verify", "verdicts": {"consistent": False}}))
            return 1

        w.cs_cli.run = verdict_exit
        check(w.run_cli(["verify"]).cls == "ok", "exit 1 with a well-formed report is ok")
    finally:
        w.cs_cli.run = real


def test_rebinding():
    import chebscale.cli
    import chebscale.expansion
    import chebscale.factorization
    import chebscale.jet
    from tracing import Tracer

    originals = (chebscale.expansion.apply_chain, chebscale.cli.artifacts_for,
                 chebscale.jet._UNARY["exp"], chebscale.jet.Jet.__rmul__)
    t = Tracer()
    t.install()
    try:
        patched = (chebscale.expansion.apply_chain, chebscale.cli.artifacts_for,
                   chebscale.jet._UNARY["exp"], chebscale.jet.Jet.__rmul__)
        check(all(a is not b for a, b in zip(originals, patched)),
              "imported names, dispatch tables and operator aliases are traced")
        check(chebscale.expansion.apply_chain is chebscale.factorization.apply_chain,
              "every namespace gets the same wrapper")
    finally:
        t.uninstall()
    restored = (chebscale.expansion.apply_chain, chebscale.cli.artifacts_for,
                chebscale.jet._UNARY["exp"], chebscale.jet.Jet.__rmul__)
    check(all(a is b for a, b in zip(originals, restored)), "uninstall restores every binding")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    sys.stdout = io.TextIOWrapper(sys.stdout.buffer, line_buffering=True)
    test_output_checks()
    test_rebinding()
    test_counts_repeat()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
