"""The three workloads: ``cli``, ``theorems`` and ``churn``.

Each workload is run as a sequence of passes.  A pass builds every object
it queries from scratch, so each op starts cold for the caches that hang off
scale, target and bundle objects; reusing objects across passes would time
cache hits.  Load is one client in a closed loop: each op starts after the
previous one returns.

Every op ends in one outcome class:

``ok``            output passed every check
``inconsistent``  ``TheoremReport.consistent`` is False
``inaccurate``    an extracted coefficient misses the known truth by more
                  than ``ACCURACY_TOL * max(1, |truth|)``
``refused``       the library raised a ``ChebscaleError`` (CLI: exit 2 with
                  an ``error:`` message)
``malformed``     a CLI report that does not re-render to the same bytes,
                  or whose ``verdicts`` are not JSON booleans
``crash``         any other exception escaped the library
``stale``         an id-reuse probe's limit is not its target's own c1
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import chebscale as cs
from chebscale import cli as cs_cli

from clock import perf
from corpus import (
    APPENDIX,
    CONSTRUCTED,
    SCALES,
    build_bundle,
    corpus,
    draw_coefficients,
    source_value,
)

ACCURACY_TOL = 1e-2
CHURN_TARGETS = 100  # distinct targets per churn pass, all alive until it ends
CHURN_PROBES = 40  # id-reuse probes after the first churn pass
CHURN_CYCLES = 400  # most drop-and-recreate cycles spent finding them
SETUP_REPEATS = 100  # scale-file loads per cli setup sample

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Op:
    label: str
    cls: str
    span: tuple | None = None  # raw (start, end) clock readings; None: untimed
    signature: str = ""  # what the traced run and repeated passes must reproduce
    coef_err: float | None = None
    route_gap: float | None = None
    detail: str = ""

    @property
    def seconds(self):
        return None if self.span is None else self.span[1] - self.span[0]


@dataclass
class Pass:
    setups: list  # (start, end, raw seconds) of each set-up
    extra: list = field(default_factory=list)  # query-phase work outside ops
    ops: list = field(default_factory=list)
    after: object = None  # untimed follow-up phase, run outside the trace


def untimed_ops(p):
    """Run the pass's untimed phase once, then release what it holds."""
    after, p.after = p.after, None
    return after() if after else []


def failure(label, exc):
    """The op whose library call raised ``exc``."""
    cls = "refused" if isinstance(exc, cs.ChebscaleError) else "crash"
    return Op(label, cls, detail=f"{type(exc).__name__}: {exc}",
              signature=f"{cls} {type(exc).__name__}")


def max_finite(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return max(values) if values else None


def coef_error(coefficients, truth):
    """Max |extracted - true| over finite extracted coefficients, and whether
    any of them misses the accuracy tolerance."""
    errs = [
        abs(c - t) for c, t in zip(coefficients, truth) if math.isfinite(c)
    ]
    bad = any(
        math.isfinite(c) and abs(c - t) > ACCURACY_TOL * max(1.0, abs(t))
        for c, t in zip(coefficients, truth)
    )
    return (max(errs) if errs else None), bad


def route_gap(a, b):
    gaps = [abs(x - y) for x, y in zip(a, b) if math.isfinite(x) and math.isfinite(y)]
    return max(gaps) if gaps else None


def _fmt_list(values):
    return [repr(float(v)) for v in values]


# -- cli ------------------------------------------------------------------------------

PAPER = ["--ratio", "1.22", "--probes", "10"]
# (scale, command, paper schedule?): the invocations that completed when this
# benchmark was written; the list is fixed so later commits time the same work.
CLI_TIMED = (
    ("appendix", "analyze", True),
    ("appendix", "factorize", True),
    ("appendix", "expand", True),
    ("appendix", "verify", True),
    ("cubic", "analyze", False),
    ("cubic", "expand", False),
    ("cubic", "verify", False),
    ("poly", "analyze", False),
    ("poly", "factorize", False),
    ("poly", "expand", False),
    ("poly", "verify", False),
    ("taylor", "analyze", False),
    ("taylor", "expand", False),
    ("taylor", "verify", False),
)
CLI_COMMANDS = ("analyze", "factorize", "expand", "verify")
SWEEP_TARGET = "exp(x)"  # the corpus's non-kernel target on cubic and taylor


def scale_files():
    return {
        "appendix": ROOT / "tests" / "data" / "appendix.scale",
        "cubic": HERE / "scales" / "cubic.scale",
        "poly": HERE / "scales" / "poly.scale",
        "taylor": HERE / "scales" / "taylor.scale",
    }


def kernel_text(names, coefficients):
    """``c1*(phi1) + c2*(phi2) + ...`` with explicit signs."""
    out = ""
    for c, name in zip(coefficients, names):
        term = f"{abs(c)!r}*({name})"
        if not out:
            out = term if c >= 0 else f"-{term}"
        else:
            out += f" + {term}" if c >= 0 else f" - {term}"
    return out


def _verdicts_well_formed(verdicts):
    """Each verdict is a JSON boolean, or a per-endpoint map of strings (the
    canonicity verdicts of ``factorize``)."""
    if not isinstance(verdicts, dict):
        return False
    for value in verdicts.values():
        if isinstance(value, bool):
            continue
        if isinstance(value, dict) and all(isinstance(v, str) for v in value.values()):
            continue
        return False
    return True


def run_cli(argv, truth=None, clock=None):
    """One in-process CLI invocation, classified; timed when given a clock."""
    label = " ".join(argv).replace(f"{ROOT}/", "")
    out, err = io.StringIO(), io.StringIO()
    t0 = clock.tick() if clock else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cs_cli.run(argv)
    except Exception as exc:  # any exception escaping cli.run is a crash
        return Op(label, "crash", (t0, clock.tick()) if clock else None,
                  detail=f"{type(exc).__name__}: {exc}", signature=f"crash {type(exc).__name__}")
    span = (t0, clock.tick()) if clock else None
    text = out.getvalue().strip()
    message = err.getvalue().strip()
    if code == 2:
        cls = "refused" if message.startswith("error:") and not text else "malformed"
        return Op(label, cls, span, detail=message, signature=f"{cls} {message}")
    try:
        report = json.loads(text)
        rerendered = cs_cli.render_json(report)
    except ValueError as exc:
        return Op(label, "malformed", span, detail=f"not JSON: {exc}", signature="malformed")
    body = cs_cli.render_json({k: v for k, v in report.items() if k != "timings"})
    signature = f"{code} {body}"
    if code not in (0, 1) or rerendered != text:
        return Op(label, "malformed", span, signature=signature,
                  detail="report does not re-render to the same bytes")
    op = Op(label, "ok", span, signature=signature, detail=f"exit {code}")
    if report.get("command") == "expand" and truth is not None:
        res = report["results"]
        rec = [float(c) for c in res["recursive"]["coefficients"]]
        opr = [float(c) for c in res["operator"]["coefficients"]]
        e1, bad1 = coef_error(rec, truth)
        e2, bad2 = coef_error(opr, truth)
        op.coef_err = max_finite([e1, e2])
        op.route_gap = route_gap(rec, opr)
        if bad1 or bad2:
            op.cls, op.detail = "inaccurate", "coefficient off the kernel truth"
    if not _verdicts_well_formed(report.get("verdicts")):
        op.cls = "malformed"
        op.detail = f"verdicts are not JSON booleans: {json.dumps(report.get('verdicts'))}"
    return op


class CliWorkload:
    """In-process ``chebscale.cli.run`` for the four commands on four scales."""

    name = "cli"

    def __init__(self, seed, clock):
        self.clock = clock
        self.files = scale_files()
        rng = random.Random(f"{seed}:cli")
        self.order = list(CLI_TIMED)
        rng.shuffle(self.order)
        self.targets = {}
        for scale, path in self.files.items():
            names = [f.name for f in cs.load_scale_file(str(path)).functions]
            coeffs = draw_coefficients(rng, [1.0] * len(names))
            self.targets[scale] = (kernel_text(names, coeffs), coeffs)

    def argv(self, scale, command, paper, target):
        argv = [command, "--scale", str(self.files[scale]), "--json"]
        if command in ("expand", "verify"):
            argv += ["--f", target]
        return argv + (PAPER if paper else [])

    def setup(self):
        """Median time to load the four scale files."""
        samples = []
        start = self.clock.tick(force=True)
        for _ in range(SETUP_REPEATS):
            t0 = perf()
            for path in self.files.values():
                cs.load_scale_file(str(path))
            samples.append(perf() - t0)
        return start, self.clock.tick(force=True), median(samples)

    def run_pass(self, size=None):
        p = Pass(setups=[])
        for scale, command, paper in self.order[:size]:
            # a set-up sample before every invocation spreads the samples of
            # this sub-millisecond set-up over the whole run
            p.setups.append(self.setup())
            text, truth = self.targets[scale]
            p.ops.append(run_cli(self.argv(scale, command, paper, text), truth, self.clock))
        self.clock.tick()
        return p

    def sweep(self):
        """Untimed: the four commands on every scale with the default schedule."""
        ops = []
        for scale in self.files:
            for command in CLI_COMMANDS:
                ops.append(run_cli(self.argv(scale, command, False, SWEEP_TARGET)))
        return ops


# -- theorems ---------------------------------------------------------------------------


def classify_report(call, truth=None, eps=None):
    """Run one checker call and classify its TheoremReport."""
    try:
        rep = call()
    except Exception as exc:  # an escaped exception is the outcome being measured
        return failure("", exc)
    statuses = rep.statuses()
    values = {
        k: repr(float(v["value"])) for k, v in rep.verdicts.items()
        if "value" in v and isinstance(v["value"], (int, float))
    }
    op = Op("", "ok" if rep.consistent else "inconsistent",
            signature=json.dumps([rep.consistent, statuses, values], sort_keys=True))
    if not rep.consistent:
        fails = [k for k, v in statuses.items() if v == "fails"]
        holds = [k for k, v in statuses.items() if v == "holds"]
        op.detail = f"fails: {', '.join(fails)}; holds: {', '.join(holds)}"
    if truth is not None:
        # the type-II operator limits give a_{k+1} = lim M_k[f] / epsilon_k
        got = []
        for k in range(len(truth)):
            v = rep.verdicts.get(f"(5.7) limit k={k}", {})
            got.append(float(v["value"]) / eps[k] if v.get("status") == "holds"
                       else math.nan)
        op.coef_err, bad = coef_error(got, truth)
        if bad and op.cls == "ok":
            op.cls, op.detail = "inaccurate", f"limits {got} vs truth {truth}"
    return op


class TheoremsWorkload:
    """The 23-case theorem corpus on three fresh bundles per pass."""

    name = "theorems"

    def __init__(self, seed, clock):
        self.seed = seed
        self.clock = clock

    def run_pass(self, size=None):
        t0 = self.clock.tick(force=True)
        bundles = {name: build_bundle(spec) for name, spec in SCALES}
        t1 = perf()
        p = Pass(setups=[(t0, t1, t1 - t0)])
        # every pass repeats the run's draw, so passes must agree exactly
        rng = random.Random(f"{self.seed}:theorems")
        t0 = self.clock.tick(force=True)
        cases = corpus(bundles, rng)
        p.extra.append((t0, perf()))
        for case in cases[:size]:
            t1 = self.clock.tick()
            op = classify_report(case.call, case.truth, case.art.constants.epsilon)
            op.span = (t1, perf())
            op.label = case.label
            p.ops.append(op)
        self.clock.tick()
        return p


# -- churn ---------------------------------------------------------------------------------


def _kernel_target(names, coefficients):
    return cs.ExpressionFunction(kernel_text(names, coefficients))


class ChurnWorkload:
    """One warm appendix bundle per pass, then a stream of distinct targets."""

    name = "churn"

    def __init__(self, seed, clock):
        self.seed = seed
        self.clock = clock
        self.names = APPENDIX[0]

    def _query(self, art, rng, j):
        """Build target j, then check_complete and both extraction routes."""
        coeffs = draw_coefficients(rng, [1.0] * art.n)
        if j % 2 == 0:
            label = "kernel"
            f = _kernel_target(self.names, coeffs)
            kw, truth = {}, coeffs
        else:
            _, text, mode, _ = CONSTRUCTED[(j // 2) % len(CONSTRUCTED)]
            label = f"{text}/{mode}"
            psi = cs.ExpressionFunction(text)
            f = cs.construct_from_source(art, coeffs, psi, mode=mode)
            src = source_value(psi)
            if mode == "tail":
                kw = dict(source=src, remainder=f.remainder, coefficients=f.coefficients)
                truth = coeffs
            else:
                # a from_T target has no expansion: its coefficients are not a truth
                kw, truth = dict(source=src), None
        op = classify_report(lambda: cs.check_complete(f, art, **kw))
        op.label = f"{label} {coeffs}"
        try:
            opr = cs.extract_operator(f, art.scale, art.chain_q, art.constants,
                                      art.schedule).coefficients
            rec = cs.extract_recursive(f, art.scale, art.schedule).coefficients
        except Exception as exc:  # an escaped exception is the outcome being measured
            failed = failure(op.label, exc)
            failed.signature = op.signature + failed.signature
            return f, failed
        op.signature += json.dumps([_fmt_list(opr), _fmt_list(rec)])
        op.route_gap = route_gap(opr, rec)
        if truth is not None:
            e1, bad1 = coef_error(opr, truth)
            e2, bad2 = coef_error(rec, truth)
            op.coef_err = max_finite([e1, e2])
            if (bad1 or bad2) and op.cls == "ok":
                op.cls = "inaccurate"
                op.detail = f"routes {_fmt_list(opr)} / {_fmt_list(rec)} vs truth {truth}"
        return f, op

    def probes(self, art, rng, keep=()):
        """Untimed: kernel targets one at a time on the pass's bundle, each
        queried with ``limit(f, 0)``, dropped and collected, until
        ``CHURN_PROBES`` of them got the ``id()`` of an earlier, dropped one.

        Those targets are the probes; a probe is stale when the limit is not
        its own c1.  ``keep`` holds the pass's timed targets alive until the
        probes end, so only the ids of earlier cycles can come back, and each
        of those was queried with ``limit(f, 0)``: whether a probe is stale
        depends on the cache, not on which id the allocator hands out.  A
        cycle with a fresh id counts as an op only if its limit misses c1
        (``inaccurate``)."""
        ops = []
        eps0 = art.constants.epsilon[0]
        seen = set()
        found = 0
        for j in range(CHURN_CYCLES):
            coeffs = draw_coefficients(rng, [1.0] * art.n)
            coeffs[0] = round(1.0 + 0.25 * j + 0.2 * rng.random(), 6)  # distinct c1
            f = _kernel_target(self.names, coeffs)
            reused = id(f) in seen
            seen.add(id(f))
            _, value, _ = art.limit(f, 0)
            got = float(value) / eps0
            wrong = not abs(got - coeffs[0]) <= ACCURACY_TOL * coeffs[0]  # NaN too
            detail = f"limit gave c1={got!r}"
            if reused:
                found += 1
                ops.append(Op(f"probe c1={coeffs[0]}", "stale" if wrong else "ok",
                              detail=detail))
            elif wrong:
                ops.append(Op(f"fresh c1={coeffs[0]}", "inaccurate", detail=detail))
            del f
            gc.collect()
            if found == CHURN_PROBES:
                break
        return ops

    def run_pass(self, size=None):
        t0 = self.clock.tick(force=True)
        art = build_bundle(APPENDIX)
        t1 = perf()
        p = Pass(setups=[(t0, t1, t1 - t0)])
        # every pass repeats the run's draw, so passes must agree exactly
        rng = random.Random(f"{self.seed}:churn")
        alive = []  # every target stays referenced, so no id() is reused
        self.clock.tick(force=True)
        for j in range(CHURN_TARGETS if size is None else size):
            t1 = self.clock.tick()
            try:
                f, op = self._query(art, rng, j)
            except Exception as exc:  # building the target failed
                f, op = None, failure(f"target {j}", exc)
            op.span = (t1, perf())
            alive.append(f)
            p.ops.append(op)
        self.clock.tick()
        p.after = lambda: self.probes(art, rng, keep=alive)
        return p


WORKLOADS = {w.name: w for w in (CliWorkload, TheoremsWorkload, ChurnWorkload)}

