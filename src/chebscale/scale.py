"""Chebyshev asymptotic scales, probe schedules and their verification.

A scale is an ordered tuple of comparison functions on a one-sided
neighborhood of a limit point ``x0`` (finite or +inf).  The standard
orientation has ``T < x0``; the mirrored orientation ``T > x0`` (finite)
covers limits approached from the right, with all asymptotic machinery
reading "toward x0" uniformly.

Reach rule: every schedule the package reads values on is cut by
:func:`finite_prefix`, before the first point where a callable it reads
(scale members, chain weights) raises or is not finite.  Hierarchy policy:
the verdict phi_1 >> ... >> phi_n is decided once per scale, by
:func:`require_verified` on :func:`default_verification_schedule`, and
memoized in ``scale.verified``, which nothing else writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadScheduleParams, EvaluationError, NotAsymptoticScale
from .expr import ExpressionFunction
from .extrapolate import extrapolate_limit
from .jet import JetMemo, jet_derivative
from .quadrature import array_form


@dataclass
class VerificationRecord:
    kind: str
    passed: bool
    details: dict = field(default_factory=dict)


class ChebyshevScale:
    """Ordered scale functions with interval of validity.

    Every member is a :class:`JetMemo` with a ``name``, a memoized jet
    evaluator ``(x, order) -> Jet``: text becomes an :class:`ExpressionFunction`,
    and any other callable that is not a JetMemo is wrapped once in one.
    Members hash by identity, so they can key the per-target caches of an
    artifacts bundle.
    """

    def __init__(self, functions, T, x0, name=""):
        funcs = []
        for i, f in enumerate(functions):
            if isinstance(f, str):
                f = ExpressionFunction(f)
            elif not isinstance(f, JetMemo):
                f = JetMemo(f, getattr(f, "name", f"phi_{i + 1}"))
            funcs.append(f)
        self.functions = funcs
        self.n = len(funcs)
        self.T = float(T)
        self.x0 = float(x0)
        self.name = name
        if self.n < 2:
            raise NotAsymptoticScale("a scale needs at least two functions")
        if math.isinf(self.x0) and self.x0 < 0:
            raise NotAsymptoticScale("the limit point may be finite or +inf")
        if self.T == self.x0:
            raise NotAsymptoticScale("T must differ from x0")
        # +1: x -> x0 from the left (standard); -1: from the right (mirrored).
        self.direction = 1 if self.x0 > self.T else -1
        self.infinite = math.isinf(self.x0)
        self.verified = None  # the hierarchy record of require_verified

    @classmethod
    def from_exprs(cls, texts, T, x0, name=""):
        return cls([ExpressionFunction(t) for t in texts], T, x0, name=name)

    def phi_jet(self, i, x, order):
        """Jet of the i-th scale function (1-based index)."""
        return self.functions[i - 1](x, order)

    def phi_value(self, i, x):
        return self.phi_jet(i, x, 0).value

    def phi_derivatives(self, i, x, order):
        """[f(x), f'(x), ..., f^(order)(x)] for the i-th function."""
        j = self.phi_jet(i, x, order)
        return [jet_derivative(j, k) for k in range(order + 1)]

    def toward_x0(self, points):
        """Sort probe points in order of approach to x0."""
        return sorted(points, key=lambda x: self.direction * x)

    def __repr__(self):
        names = ", ".join(f.name for f in self.functions)
        return f"ChebyshevScale([{names}], T={self.T}, x0={self.x0})"


@dataclass(frozen=True)
class ProbeSchedule:
    """Strictly monotone points inside the interval approaching x0."""

    points: tuple
    kind: str  # "geometric-approach" (finite x0) or "geometric-growth" (+inf)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def make_schedule(T, x0, count, ratio):
    """Geometric probe schedule approaching ``x0``.

    Finite x0: ``x_j = x0 - (x0 - s) * ratio**j`` with s the midpoint of
    [T, x0); requires 0 < ratio < 1.  Infinite x0: ``x_j = s * ratio**j``
    with ``s = max(T, 1) + 1``; requires ratio > 1.  The schedule is the
    longest prefix that moves strictly toward x0, finite and distinct from
    it, and needs 6 points.
    """
    if count < 6:
        raise BadScheduleParams("a schedule needs at least 6 points")
    T = float(T)
    x0 = float(x0)
    if math.isinf(x0):
        if x0 < 0:
            raise BadScheduleParams("limit point must be finite or +inf")
        if ratio <= 1.0:
            raise BadScheduleParams("ratio must exceed 1 for an infinite limit")
        s, kind = max(T, 1.0) + 1.0, "geometric-growth"
    elif T == x0:
        raise BadScheduleParams("T must differ from x0")
    elif not 0.0 < ratio < 1.0:
        raise BadScheduleParams("ratio must lie in (0, 1) for a finite limit")
    else:
        s, kind = 0.5 * (T + x0), "geometric-approach"
    toward = 1.0 if x0 > s else -1.0
    pts = []
    for j in range(count):
        try:
            x = s * ratio**j if math.isinf(x0) else x0 - (x0 - s) * ratio**j
        except OverflowError:
            break
        if not math.isfinite(x) or x == x0 or pts and toward * (x - pts[-1]) <= 0.0:
            break
        pts.append(x)
    if len(pts) < 6:
        raise BadScheduleParams(f"only {len(pts)} schedule points move toward x0")
    return ProbeSchedule(tuple(pts), kind)


def finite_prefix(points, fns):
    """Longest prefix of ``points`` at which every callable evaluates finite:
    a point where some ``fn(x)`` raises ``ArithmeticError`` or
    ``EvaluationError``, or returns inf or nan, ends it.

    When every callable has an array form
    (:func:`~chebscale.quadrature.array_form`), all points are read at once
    and only the points some array form flags are checked callable by
    callable: an array form's finite values are the callable's own.
    """
    points = list(points)
    xs = np.array(points, dtype=float)
    flagged = np.zeros(len(points), dtype=bool)
    for fn in fns:
        vals = array_form(fn, xs)
        if vals is None:
            flagged[:] = True
            break
        flagged |= ~np.isfinite(vals)
    good = []
    for x, check in zip(points, flagged):
        if check:
            try:
                if not all(math.isfinite(fn(x)) for fn in fns):
                    break
            except (ArithmeticError, EvaluationError):
                break
        good.append(x)
    return good


def finite_schedule(scale, schedule):
    """``schedule`` cut at the scale's finite reach (the :func:`finite_prefix`
    of its points over the members); under 6 points left raise BadScheduleParams."""
    members = [lambda x, i=i: scale.phi_value(i, x) for i in range(1, scale.n + 1)]
    pts = finite_prefix(schedule.points, members)
    if len(pts) < 6:
        raise BadScheduleParams(f"only {len(pts)} schedule points keep the scale finite")
    return ProbeSchedule(tuple(pts), schedule.kind)


def scale_schedule(scale, count=12, ratio=None):
    """:func:`make_schedule` toward the scale's x0 (ratio 1.6 toward +inf,
    0.5 toward a finite x0 by default), cut at the scale's finite reach
    (:func:`finite_schedule`)."""
    if ratio is None:
        ratio = 1.6 if scale.infinite else 0.5
    return finite_schedule(scale, make_schedule(scale.T, scale.x0, count, ratio))


# -- hierarchy rule -----------------------------------------------------------


def ratio_decreases_to_zero(ratios, tol=1e-4):
    """Finite-sample surrogate for ``ratio -> 0`` along the schedule.

    Pass rule: the last five ratios decrease monotonically, and either the
    final ratio is below 1e-2 or the extrapolated limit (the Aitken and
    Richardson consensus of ``extrapolate_limit``) is within
    max(tol, 5% of the final ratio) of zero.  The extrapolation escape is
    needed for logarithmic hierarchies, which no finite schedule can push
    under an absolute threshold.
    """
    vals = [abs(r) for r in ratios if math.isfinite(r)]
    diag = {"ratios_used": len(vals)}
    # an exactly-zero tail means the ratio underflowed: it clearly decayed
    while len(vals) > 1 and vals[-1] == 0.0:
        vals.pop()
        diag["underflowed_tail"] = True
    if diag.get("underflowed_tail") and (len(vals) < 5 or vals[-1] < 1e-2):
        diag["final"] = 0.0
        return True, diag
    if len(vals) < 5:
        diag["reason"] = "too few finite ratios"
        return False, diag
    tail = vals[-5:]
    monotone = all(a > b for a, b in zip(tail, tail[1:]))
    final = tail[-1]
    limit, conf = extrapolate_limit(vals)
    diag.update(final=final, monotone=monotone, limit=limit, confidence=conf)
    if not monotone:
        return False, diag
    if final < 1e-2:
        return True, diag
    if final < 0.5 and abs(limit) < max(tol, 0.05 * final):
        return True, diag
    return False, diag


def dominance(values, pair, tol=1e-4):
    """The one dominance verdict: along the ``(upper, lower)`` value pairs
    of ``values``, |lower/upper| (inf where upper is 0) must pass
    :func:`ratio_decreases_to_zero`.  Returns its diagnostics stamped with
    ``pair`` and ``passed``."""
    ratios = [abs(v / u) if u != 0 else math.inf for u, v in values]
    ok, diag = ratio_decreases_to_zero(ratios, tol)
    diag.update(pair=pair, passed=ok)
    return diag


def hierarchy_from_values(values_per_function, tol=1e-4):
    """Pairwise hierarchy check on sampled values, first function largest."""
    pairs = [
        dominance(zip(upper, lower), (i + 1, i + 2), tol)
        for i, (upper, lower) in enumerate(zip(values_per_function, values_per_function[1:]))
    ]
    return all(d["passed"] for d in pairs), pairs


def verify_hierarchy(scale, schedule, tol=1e-4):
    """Check the pairwise ordering of the scale along the schedule.

    Each adjacent ratio must pass :func:`ratio_decreases_to_zero`, and no
    scale function may vanish at a probe.
    """
    pts = scale.toward_x0(schedule.points)
    values = []
    nonvanishing = True
    vanish_detail = []
    for i in range(1, scale.n + 1):
        vi = [scale.phi_value(i, x) for x in pts]
        if not all(math.isfinite(v) for v in vi):
            raise EvaluationError(f"scale function {i} not finite on the schedule")
        for x, v in zip(pts, vi):
            # local magnitude scale from the first-order jet at the probe
            j = scale.phi_jet(i, x, 1)
            local = max(abs(c) for c in j.coeffs)
            if abs(v) <= 1e-13 * local:
                nonvanishing = False
                vanish_detail.append({"function": i, "x": x, "value": v})
        values.append(vi)
    passed, pairs = hierarchy_from_values(values, tol)
    return VerificationRecord(
        kind="hierarchy",
        passed=passed and nonvanishing,
        details={
            "pairs": pairs,
            "nonvanishing": nonvanishing,
            "vanishing_points": vanish_detail,
        },
    )


def verify_tas(scale, grid):
    """Nonvanishing of leading and reversed Wronskians on a grid.

    A violation is any determinant that vanishes to double precision
    (:attr:`~chebscale.wronskian.WronskianEvaluation.vanishes`) or changes
    sign between grid points.  The grid is cut before the first point where
    one of these Wronskians leaves double range.  When all scale functions
    are positive near x0 the observed signs of the leading Wronskians are
    compared against the alternating pattern ``(-1)^(i(i-1)/2)`` and
    reported (not enforced).

    The 2n Wronskians are read from one ``wronskian.wronskian_table`` built
    on the grid's node array; only the nodes it leaves out are evaluated
    point by point, so the cut and its errors are those of a point-by-point
    loop.
    """
    from .wronskian import prefix_sets, wronskian, wronskian_table  # avoids a module cycle

    n = scale.n
    sets = prefix_sets(n)
    points = scale.toward_x0(grid)
    table = wronskian_table(scale, sets, points)
    rows = []  # the Wronskians of ``sets`` at each point of the reach
    for x in points:
        try:
            rows.append([wronskian(scale, indices, x, table) for indices in sets])
        except (ArithmeticError, EvaluationError):
            break
    if not rows:
        raise EvaluationError("no grid point keeps the Wronskians finite")
    violations = []
    signs_near_x0 = {}
    for col, indices in enumerate(sets):
        prev_sign = 0
        for ev in (row[col] for row in rows):
            if ev.vanishes:
                violations.append({"indices": indices, "x": ev.point, "value": ev.value})
                continue
            sgn = 1 if ev.value > 0 else -1
            if prev_sign and sgn != prev_sign:
                # a sign change between grid points implies a zero inside
                violations.append(
                    {"indices": indices, "x": ev.point, "value": ev.value, "kind": "sign change"}
                )
            prev_sign = sgn
        if indices[0] == 1:  # a leading Wronskian (reversed ones start at n)
            signs_near_x0[len(indices)] = 1 if rows[-1][col].value > 0 else -1
    all_positive = all(scale.phi_value(i, rows[-1][0].point) > 0 for i in range(1, n + 1))
    sign_report = None
    if all_positive:
        sign_report = {
            i: {
                "observed": signs_near_x0[i],
                "expected": (-1) ** (i * (i - 1) // 2),
                "matches": signs_near_x0[i] == (-1) ** (i * (i - 1) // 2),
            }
            for i in signs_near_x0
        }
    return VerificationRecord(
        kind="tas",
        passed=not violations,
        details={
            "violations": violations,
            "sign_pattern": sign_report,
            "grid_points": len(rows),
        },
    )


def default_verification_schedule(scale):
    """A wide 14-point schedule for hierarchy checks, capped at the scale's
    finite reach.

    Hierarchy ratios converge slowly (logarithmic pairs especially), so the
    verification schedule reaches as deep as double precision allows rather
    than tracking whatever narrow window a caller probes on.  A scale that
    keeps fewer than 8 points gets a slower 8-point schedule instead.
    """
    try:
        sched = scale_schedule(scale, 14, 2.0 if scale.infinite else 0.5)
    except BadScheduleParams:
        sched = ()
    if len(sched) < 8:
        return make_schedule(scale.T, scale.x0, 8, 1.4 if scale.infinite else 0.65)
    return sched


def require_verified(scale):
    """Decide the hierarchy once per scale on
    :func:`default_verification_schedule`, memoized in ``scale.verified``,
    and raise if it fails."""
    if scale.verified is None:
        scale.verified = verify_hierarchy(scale, default_verification_schedule(scale))
    rec = scale.verified
    if not rec.passed:
        raise NotAsymptoticScale(
            f"hierarchy verification failed: {rec.details['pairs']}"
        )
    return rec


# -- scale-definition files ------------------------------------------------------


def load_scale_file(path):
    """Line-oriented format: ``x0 = <number|inf>``, ``T = <number>``, then one
    expression per line, largest first.  Blank lines and ``#`` comments skipped."""
    x0 = None
    T = None
    exprs = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            lowered = line.replace(" ", "").lower()
            if lowered.startswith("x0="):
                text = lowered[3:]
                x0 = math.inf if text in ("inf", "+inf", "infinity") else float(text)
            elif lowered.startswith("t="):
                T = float(lowered[2:])
            else:
                exprs.append(line)
    if x0 is None or T is None or len(exprs) < 2:
        raise NotAsymptoticScale(
            f"scale file {path!r} must set x0, T and at least two expressions"
        )
    return ChebyshevScale.from_exprs(exprs, T, x0, name=str(path))
