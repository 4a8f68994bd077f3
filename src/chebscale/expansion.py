"""Coefficient extraction, theorem verification and remainder bounds.

Two extraction routes: the recursive peeling definition of the coefficients,
and the independent operator-limit route through the type-II weighted
derivatives.  The theorem checkers evaluate each side of the equivalences
(limits, iterated integrals, expansion sets, remainder identities and
bounds) and report ``consistent=False`` only when two decisive verdicts
contradict a claimed equivalence: that is the artifact's primary
bug-detector, since the theory guarantees it cannot happen for correct code
on valid inputs.  Marginal numerical evidence yields "inconclusive", never a
forced verdict.  Each checker runs on one ``_Check``, which owns the target
under check (f, L[f] and whether it vanishes, the coefficients and their
confidences, the verdicts and notes) and holds, once, the rules the four
checkers share.

Cache policy: these memos are all that is kept, each by one owner.

- Jets: each evaluator (scale members, expression and constructed
  targets, prefix Wronskians, chain weights, nest evaluators) is a
  :class:`~chebscale.jet.JetMemo`, which keeps one jet per point, at the
  highest order asked there, and the jets of the last
  ``jet.KEPT_ARRAYS`` (4) node arrays, by identity: the grid's node table
  and the node arrays of the bundle's point sets.
- Grid tables: the shared :class:`~chebscale.quadrature.WorkGrid` keeps
  each live evaluator's values on its nodes.
- Scale values: a bundle tabulates the P-weight of (6.12) on its grid
  nodes (``p_weight_nodes``) once; each chain classifies its canonicity
  per endpoint on first read
  (:meth:`~chebscale.factorization.WeightChain.canonicity_at`).
- Images: each chain keeps, per live target and point, the values and
  noises of every level of one chain pass run there to level n - 1
  (:meth:`~chebscale.factorization.WeightChain.image`).  A bundle fills the
  members' images at the schedule points with one node-array pass per
  (chain, member) (:func:`~chebscale.operators.schedule_images`), and a
  target's are filled before its first scalar read at a point set (the
  classification points or the schedule: :func:`_kept_cut`; the probes:
  ``_Check.residuals``) with one pass per (chain, target, point set)
  (:meth:`~chebscale.factorization.WeightChain.images_on`).  The bundle's
  two chains share one node array per point set
  (``WeightChain.nodes``), built on its first read, so each weight and
  each target is evaluated once on it.
- Operator limits: the type-II chain keeps each live target's limits, and
  its cut of the points, under what they were computed of
  (:func:`_operator_limit`), for :meth:`ScaleArtifacts.limit` and
  :func:`extract_operator` alike.
- Target values: the bundle's record of a live target keeps L[f] on the
  grid nodes and whether L[f] vanishes along the probes.  Records, images
  and limits go with the target and hold no closure over it.  A check
  given a source reads L[f] = q_n * source instead, and keeps the source
  on the grid nodes for its lifetime.
- Nests: a bundle keeps the last ``_NEST_MEMO_SIZE`` nests built on its
  grid (:meth:`ScaleArtifacts.nest`), each under every input a build reads
  (weights, orientations, density table); no entry can serve a stale nest
  or holds a target.

Grid tables go through array forms, which keep no point in any jet memo.
Outside these layers, ``scale.verified`` keeps the hierarchy verdict,
``extrapolate`` a Neville table per sequence length and ``quadrature`` its
rule tables.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergentTail, EvaluationError, LimitDiverged
from .extrapolate import _median, classify_sequence, extrapolate_limit, is_bounded_tail
from .factorization import (
    _nest_jetfn,
    # not called here: the benchmark's self-check (perfbench/selfcheck.py)
    # reads chebscale.expansion.apply_chain
    apply_chain,
    apply_full_operator,
    build_type1_chain,
    build_type2_chain,
    well_conditioned_probes,
)
from .jet import JetMemo
from .operators import operator_constants, schedule_images
from .quadrature import UNIT, NestedIntegral, NodeFn, WorkGrid, node_values, tabulate
from .scale import (finite_prefix, finite_schedule, ratio_decreases_to_zero, require_verified,
                    scale_schedule)
from .wronskian import bordered_wronskian, prefix_sets, wronskian_table

_LIMIT_TOL = 1e-6  # "a limit exists" when confidence < tol * (1 + |value|)
_NEST_MEMO_SIZE = 64  # nests a bundle keeps; every benchmark workload needs at most 35


def _guarded_ratio(num_fn, den_fn):
    """x -> num(x)/den(x) with a short-circuit: an underflowed numerator is
    zero without evaluating the (possibly overflowing) denominator."""

    def fn(x):
        v = num_fn(x)
        if v == 0.0:
            return 0.0
        return v / den_fn(x)

    def on_nodes(xs):
        v = node_values(num_fn, xs)
        return np.where(v == 0.0, 0.0, v / node_values(den_fn, xs))

    return NodeFn(fn, on_nodes)


def _abs(fn):
    """x -> |fn(x)|."""
    return NodeFn(lambda x: abs(fn(x)), lambda xs: np.abs(node_values(fn, xs)))


# -- artifacts bundle ------------------------------------------------------------


class _TargetRecord:
    """What a bundle computed from one target besides its chain images and
    operator limits, which the chains keep."""

    __slots__ = ("lf_nodes", "lf_zero")

    def __init__(self):
        self.lf_nodes = None  # L[f] on the grid nodes (NaN: flagged)
        self.lf_zero = None  # L[f] vanishes along the probes


class ScaleArtifacts:
    """Chains, constants and shared grid for one scale.

    The bundle owns the chains, constants and grid (whose value cache keeps
    the weight tabulations, since the bundle holds the weights).
    ``_targets`` maps each target, by weak reference, to a record of its
    L[f] grid table and its L[f] = 0 test; the chains keep its M/L images,
    and the type-II chain its operator limits.  All go when the target
    goes, so a new target at a dead one's address inherits none of its
    results.  ``_nests`` keeps the nests :meth:`nest` built (the P-weight
    nest of ``p_weight_nodes`` among them); they hold no target.  The two
    chains share one table of node arrays (``chain_q.nodes``), one per
    point set read, for the bundle's lifetime.  The schedule is cut at the
    members' finite reach (:func:`~chebscale.scale.finite_schedule`).

    The build's Wronskian scan is one
    :func:`~chebscale.wronskian.wronskian_table` of the 2n leading and
    reversed prefixes on the schedule's node array, which the chains' probe
    scans and prefix checks, the probe cut and the positivity test of
    ``operator_constants`` read; only the nodes it flags are evaluated
    point by point.  That node array is the chains' schedule array too.
    """

    def __init__(self, scale, schedule):
        require_verified(scale)
        self.scale = scale
        self.schedule = schedule = finite_schedule(scale, schedule)
        # the build's Wronskian evaluations: one table of the leading and
        # reversed prefixes at the schedule points, shared and then dropped.
        # Its node array is the chains' for the schedule, so the members'
        # jets it reads serve the chain passes below.
        points = tuple(map(float, scale.toward_x0(schedule.points)))
        nodes = np.array(points)
        scan = wronskian_table(scale, prefix_sets(scale.n), nodes)
        self.chain_q = build_type2_chain(scale, schedule, scan)
        self.chain_p = build_type1_chain(scale, schedule, scan)
        self.chain_q.nodes[points] = nodes
        self.chain_p.nodes = self.chain_q.nodes  # one node array per point set
        # the constants' chain passes, run first: they evaluate every weight
        # once on the schedule's node array, and the probe cut reads the
        # values they leave in the weights' memos (nothing here raises)
        schedule_images(scale, self.chain_q, self.chain_p, schedule)
        cut = [w.value for w in self.chain_q.weights + self.chain_p.weights]
        self.probes = well_conditioned_probes(
            scale, finite_prefix(scale.toward_x0(schedule.points), cut), minimum=6, scan=scan,
        )
        self.q_vals = [NodeFn.of(w) for w in self.chain_q.weights]
        self.p_vals = [NodeFn.of(w) for w in self.chain_p.weights]
        weights = self.q_vals + self.p_vals
        if scale.infinite:
            # cap the tail reach where the chain evaluations overflow, probing
            # by doublings up to 3e5
            far = [max(self.probes)]
            while far[-1] < 3e5:
                far.append(2.0 * far[-1])
            self.grid = WorkGrid(scale.T, scale.x0, include=self.probes,
                                 hard_cap=finite_prefix(far, weights)[-1])
        else:
            self.grid = WorkGrid(scale.T, scale.x0, include=self.probes)
        self.constants = operator_constants(scale, self.chain_q, self.chain_p, schedule, scan)
        self._targets = weakref.WeakKeyDictionary()
        self._nests = OrderedDict()
        # classification points: the probe schedule extended geometrically to
        # the grid's reach (table lookups there are free, and integrals need
        # the extra range to classify decisively)
        pts = list(self.probes)
        if len(pts) >= 2:
            ratio = abs(
                (self.grid.x0 - pts[-1]) / (self.grid.x0 - pts[-2])
            ) if not scale.infinite else pts[-1] / pts[-2]
            edge = self.grid.sigma * self.grid.nodes[-1]
            nxt = pts[-1]
            for _ in range(24):
                nxt = (
                    nxt * ratio if scale.infinite
                    else self.grid.x0 - (self.grid.x0 - nxt) * ratio
                )
                if scale.infinite and nxt > 0.95 * edge:
                    break
                if not scale.infinite and abs(self.grid.x0 - nxt) < 1.05 * abs(
                    self.grid.x0 - edge
                ):
                    break
                pts.append(nxt)
        self.class_points = pts

    @property
    def n(self):
        return self.scale.n

    def _record(self, f):
        rec = self._targets.get(f)
        if rec is None:
            rec = self._targets[f] = _TargetRecord()
        return rec

    def M(self, k, f, x):
        return self.chain_q.image(f, k, x)[0]

    def L(self, k, f, x):
        return self.chain_p.image(f, k, x)[0]

    def M_phi(self, k, i, x):
        return self.M(k, self.scale.functions[i - 1], x)

    def L_phi(self, k, i, x):
        return self.L(k, self.scale.functions[i - 1], x)

    def limit(self, f, k):
        """The operator limit of M_k[f] (:func:`_operator_limit`) along the
        classification points, kept by the type-II chain."""
        return _operator_limit(self.chain_q, self.scale, f, k, self.class_points)

    def lf_evaluator(self, f, source=None):
        """``x -> L[f](x)`` with its array form (a :class:`NodeFn`); a known
        source density (a promise that L[f] = q_n * source) short-circuits
        the Wronskian quotient.  The quotient over the grid nodes is kept in
        f's record, so every nest and every later check of f tabulates each
        node once; at any other point it is computed at each call.  The
        source's values on the grid nodes are kept by the evaluator
        returned, so the check that holds it tabulates the source once."""
        if source is not None:
            qn = self.q_vals[self.n]
            grid_source = None  # the source on the grid nodes, once tabulated

            def lf(x):
                v = source(x)
                if v == 0.0:
                    return 0.0
                return qn(x) * v

            def lf_nodes(xs):
                nonlocal grid_source
                if xs is not self.grid.xnodes:
                    v = node_values(source, xs)
                else:
                    if grid_source is None:
                        grid_source = node_values(source, xs)
                    v = grid_source
                return np.where(v == 0.0, 0.0, node_values(qn, xs) * v)

            return NodeFn(lf, lf_nodes)
        scale = self.scale
        rec = self._record(f)  # values only: no closure over f

        def lf_nodes(xs):
            if xs is not self.grid.xnodes:
                return apply_full_operator(scale, f, xs)
            if rec.lf_nodes is None:
                rec.lf_nodes = apply_full_operator(scale, f, xs)
            return rec.lf_nodes

        return NodeFn(lambda x: apply_full_operator(scale, f, x), lf_nodes)

    def lf_is_zero(self, f):
        """Constant-zero detection for L[f] along the schedule."""
        rec = self._record(f)
        if rec.lf_zero is None:
            idx = tuple(range(1, self.n + 1))
            zero = True
            for x in self.probes:
                try:
                    num, _, det_scale = bordered_wronskian(self.scale, idx, f, x)
                except ArithmeticError as exc:
                    raise EvaluationError(f"W(phi_1..phi_n, f) fails at x={x}: {exc}") from exc
                if abs(num) > 1e-8 * det_scale:
                    zero = False
                    break
            rec.lf_zero = zero
        return rec.lf_zero

    @cached_property
    def p_weight_nodes(self):
        """P(t) on the grid nodes (NaN where the nest raises), tabulated
        once per bundle, through the nest's array form, for every target's
        (6.12) density."""
        pnest = self.nest(*_p_levels(self), UNIT)
        return node_values(NodeFn(lambda t: pnest.value(t, 0), pnest.values), self.grid.xnodes)

    def nest(self, weights, orientations, density):
        """The NestedIntegral of ``weights`` (the bundle's own, or None),
        ``orientations`` and ``density`` on the shared grid, built once per
        weights, orientations and density table.  A build reads nothing
        else, so a repeat returns the kept nest, or raises a new
        DivergentTail with the first build's message and ``decisive``."""
        key = (tuple(weights), tuple(orientations), self.grid.values(density).tobytes())
        kept = self._nests.get(key)
        if kept is None:
            try:
                kept = NestedIntegral(self.grid, weights, orientations, density)
            except DivergentTail as exc:
                kept = (str(exc), exc.decisive)  # not exc: its traceback holds the density
            self._nests[key] = kept
            if len(self._nests) > _NEST_MEMO_SIZE:
                self._nests.popitem(last=False)
        else:
            self._nests.move_to_end(key)
        if isinstance(kept, tuple):
            raise DivergentTail(*kept)
        return kept


def _target_cut(f, scale, points, members):
    """The one cut of a target's probes, for both extraction routes: the
    kept points, f's values at them and, per index i of ``members`` (the
    last must be n), phi_i's values at them.

    Points go at the first where f is not finite, by the rule of
    :func:`~chebscale.scale.finite_prefix`; a schedule needs 6 points
    (:func:`~chebscale.scale.make_schedule`), and so does a limit: with
    fewer it raises EvaluationError.  Then the points go where f's double
    value no longer resolves phi_n: beyond the point where ulp(|f|) exceeds
    1e-4 * |phi_n| no method can recover the deeper coefficients from f's
    double values, and such probes only inject rounding junk.  When fewer
    than 6 are left, the first 6 stay.  Each value is read once per point.

    The reads have no array form: ``finite_prefix`` reads the points in
    order up to the first where f is not finite.  A reader that ran f's
    chain pass on the points first (:func:`_kept_cut`) finds each value in
    f's jet memo, where that pass left it.
    """
    values = {}

    def value(x):
        values[x] = out = f(x, 0).value
        return out

    pts = finite_prefix(points, [value])
    if len(pts) < 6:
        raise EvaluationError(f"the target is finite at only {len(pts)} points (need 6)")
    phis = [[scale.phi_value(i, x) for x in pts] for i in members]
    keep = [j for j, x in enumerate(pts) if 1e-16 * abs(values[x]) <= 1e-4 * abs(phis[-1][j])]
    if len(keep) < 6:
        keep = range(6)
    pts = [pts[j] for j in keep]
    return pts, [values[x] for x in pts], [[p[j] for j in keep] for p in phis]


def _level_sequence(chain, f, k, pts):
    """The one cut of an M_k[f] sequence along ``pts``, the target's cut
    (:func:`_target_cut`) of points ordered toward x0: the kept points,
    M_k[f] at them through ``chain`` and the rounding-noise estimate of
    each kept value (``chain.image``).

    From the seventh point on, the sequence ends at the first value its
    noise rivals; and it ends at a collapse or explosion
    (``_sane_prefix``)."""
    pairs = [chain.image(f, k, x) for x in pts]
    vals = [v for v, _ in pairs]
    typical = _median([abs(v) for v in vals[: max(4, len(vals) // 2)]])
    usable = len(vals)
    for j, (v, nz) in enumerate(pairs):
        if j >= 6 and nz > 1e-3 * max(abs(v), typical, 1e-300):
            usable = j
            break
    cut = min(usable, _sane_prefix(vals))
    return pts[:cut], vals[:cut], [nz for _, nz in pairs[:cut]]


def _kept_cut(chain, scale, f, points):
    """The target's cut of ``points`` (:func:`_target_cut`), kept in f's
    entry of ``chain.limits`` under the scale and ``points``: a later call
    on the same points, at any level and from any reader, cuts nothing.
    Before the first cut, f's images at ``points`` are read in one
    node-array pass (:meth:`~chebscale.factorization.WeightChain.images_on`),
    which leaves f's jets at the points in its memo for the cut's reads."""
    points = tuple(points)
    memo = chain.limits.setdefault(f, {})
    cut = memo.get((scale, points))
    if cut is None:
        chain.images_on([f], points)  # f's levels, and its order-0 reads below
        cut = memo[scale, points] = tuple(_target_cut(f, scale, points, (scale.n,))[0])
    return cut


def _operator_limit(chain, scale, f, k, points):
    """The limit of M_k[f] toward x0 as ``(status, value, confidence)``: the
    sequence :func:`_level_sequence` keeps along ``points``, deflated by the
    chain's images M_k[phi_i](x) of the members i >= k+2.  A sequence not
    given a limit whose last 3 values lie within their noise
    (:func:`_quiet_tail`) tends to 0, with the largest of those noises as
    the confidence; one called divergent that spans no more than its
    largest noise estimate is flat: its median is the value and that noise
    the confidence.  A decisive claim stands as it is.

    The chain keeps the result in f's entry of ``chain.limits``, under the
    scale, the level and the target's cut of ``points`` (:func:`_kept_cut`):
    a call with the same three reads it, whichever reader made it.  A call
    that raises keeps no limit."""
    cut = _kept_cut(chain, scale, f, points)
    memo = chain.limits[f]
    out = memo.get((scale, k, cut))
    if out is not None:
        return out
    pts, vals, noise = _level_sequence(chain, f, k, cut)
    basis = [[chain.image(scale.functions[i - 1], k, x)[0] for x in pts]
             for i in range(k + 2, scale.n + 1)]
    out = _deflated_limit_status(vals, basis)
    if out[0] in ("diverged", "unstable") and _quiet_tail(vals, noise):
        conf = max(noise[-3:])
        out = _status_from_conf(0.0, conf), 0.0, conf
    elif out[0] == "diverged" and vals and max(vals) - min(vals) <= max(noise):
        value, conf = _median(vals), max(noise)
        out = _status_from_conf(value, conf), value, conf
    memo[scale, k, cut] = out
    return out


def artifacts_for(scale, schedule=None):
    """The bundle of ``scale`` on ``schedule`` (default :func:`scale_schedule`):
    chains, constants and grid; the chains' canonicity waits for its first
    read."""
    if schedule is None:
        schedule = scale_schedule(scale)
    return ScaleArtifacts(scale, schedule)


# -- extraction -------------------------------------------------------------------


@dataclass
class ExpansionResult:
    coefficients: list
    confidences: list
    partial: bool = False
    statuses: list = field(default_factory=list)


def _sane_prefix(values):
    """Length of the usable prefix before numerical death of a sequence.

    Weighted derivatives of functions with a dominant huge term die at large
    probes: the informative digits fall below the ulp of the leading term and
    values collapse to exact zeros or explode off-trend.  Detect the first
    collapse/explosion after the first 6 values and cut there.
    """
    n = len(values)
    mags = [abs(v) for v in values if v != 0.0 and math.isfinite(v)]
    if not mags:
        return n
    ref = _median(mags[: max(3, len(mags) // 2)])
    for j in range(6, n):
        v = values[j]
        dead = v == 0.0 and values[j - 1] != 0.0
        wild = math.isfinite(v) and ref > 0 and abs(v) > 1e4 * max(ref, abs(values[j - 1]))
        if dead or wild or not math.isfinite(v):
            return j
    return n


def _status_from_conf(value, conf):
    scale0 = 1.0 + abs(value)
    if not math.isfinite(value) or not math.isfinite(conf) or conf > 1e-2 * scale0:
        return "unstable"
    return "stable" if conf <= _LIMIT_TOL * scale0 else "loose"


def _limit_status(values):
    """Limit detection on one sequence: the kind ``classify_sequence`` gives
    it, and the extrapolated value with its confidence."""
    res = classify_sequence(values, _LIMIT_TOL)
    kind = res["kind"]
    if kind in ("diverged_plus", "diverged_minus", "oscillatory"):
        return "diverged", math.nan, math.inf
    if res["n_used"] >= 4:  # classify_sequence extrapolated the finite values
        value, conf = res["value"], res["confidence"]
    else:
        value, conf = extrapolate_limit(values)
    return _status_from_conf(value, conf), value, conf


def _deflated_limit_status(values, basis_rows):
    """Limit detection after removing exactly-computable correction terms,
    with leave-one-out validation of the confidence.

    ``basis_rows`` hold sampled functions that tend to zero toward x0 (the
    operator images of the deeper scale members, or their ratios).  A least
    squares fit of the sequence against [1, basis...] identifies their
    contribution; the deflated sequence has the same limit but a far smaller
    transient, which the standard detector then resolves.  Divergent
    sequences stay divergent under deflation by decaying terms.  The raw
    sequence (the pipeline with no basis rows) wins when its claim is
    tighter.  The extrapolators can land on accidental deep-tableau
    coincidences; the shift of the estimate when the last probe is withheld
    (refit included) is a stability measure an accidental claim cannot fake.

    The deflated pipeline runs first and in full.  The raw pipeline runs
    only where it can win: not at all when the deflated claim is decisive
    with confidence zero, which no confidence is below; and its
    leave-one-out refit only when the raw claim is ``stable``/``loose``
    with a confidence below the deflated one.  The refit only widens a
    confidence, so otherwise the raw claim loses whatever it gives.  With
    no clean basis row, or a deflated fit that raises ``LinAlgError``, the
    raw pipeline runs in full.
    """

    def deflate(vals, rows):
        if not rows:
            return list(vals)
        # fit on the late probes only: whatever the basis cannot represent
        # (the true remainder) is smallest there and cannot smear the fit
        m = len(vals)
        start = max(m - max(len(rows) + 4, (2 * m) // 3), 0)
        a = np.ones((m - start, len(rows) + 1))
        for c, row in enumerate(rows, start=1):
            a[:, c] = row[start:]
        scalecols = np.maximum(np.abs(a).max(axis=0), 1e-300)
        sol, *_ = np.linalg.lstsq(a / scalecols, np.array(vals[start:]), rcond=None)
        betas = (sol / scalecols).tolist()
        out = list(vals)
        for c, row in enumerate(rows, start=1):
            out = [d - betas[c] * v for d, v in zip(out, row)]
        return out

    def left_out(rows, primary):
        # leave-one-out: an absorbed genuine transient or a tableau fluke
        # shifts under point removal
        status, value, conf = primary
        if len(values) >= 7 and math.isfinite(value):
            try:
                defl2 = deflate(values[:-1], [r[:-1] for r in rows])
                _, v2, _ = _limit_status(defl2)
                if math.isfinite(v2):
                    conf = max(conf, abs(value - v2))
            except np.linalg.LinAlgError:
                pass
            status = _status_from_conf(value, conf) if status != "diverged" else status
        return status, value, conf

    def pipeline(rows):
        return left_out(rows, _limit_status(deflate(values, rows)))

    clean = [b for b in basis_rows if all(math.isfinite(v) for v in b)]
    if not clean or not all(math.isfinite(v) for v in values):
        return pipeline([])
    try:
        out = pipeline(clean)
    except np.linalg.LinAlgError:
        return pipeline([])
    if out[0] != "unstable" and not out[2] > 0:
        return out  # no raw claim is tighter than an exact one
    raw = _limit_status(values)
    if raw[0] == "diverged":
        return raw if out[0] == "unstable" else out
    if raw[0] in ("stable", "loose") and raw[2] < out[2]:
        raw = left_out([], raw)
        if raw[0] in ("stable", "loose") and raw[2] < out[2]:
            return raw
    return out


def extract_recursive(f, scale, schedule):
    """Coefficients by peeling: a_i from the residual-over-phi_i limits.

    After the defining recursive pass, one Gauss-Seidel sweep re-extracts
    each coefficient from the residual with *all* other extracted terms
    removed, and a verification pass reads the final values and
    confidences the same way.  The limits are mathematically identical;
    the sweep damps the pollution a small error in an early coefficient
    injects into later ratios through the scale's dynamic range.  The
    probes are the target's cut (:func:`_target_cut`), as on the operator
    route.
    """
    require_verified(scale)
    n = scale.n
    pts, fvals, phis = _target_cut(f, scale, scale.toward_x0(schedule.points), range(1, n + 1))

    def peeled(skip=None):
        res = list(fvals)
        for j in range(len(coeffs)):
            if j != skip:
                res = [r - coeffs[j] * p for r, p in zip(res, phis[j])]
        return res

    floors = [
        1e-14 * max(abs(fvals[j]), max(abs(p[j]) for p in phis))
        for j in range(len(pts))
    ]
    conf_by_coeff = {}

    def ratio_limit(res, i, rem_row=None):
        # drop probes where the peeled residual sits below the cancellation
        # floor of the subtraction: their ratios are pure rounding noise
        keep = [j for j in range(len(pts)) if abs(res[j]) > 30.0 * floors[j]]
        if len(keep) < 7:
            keep = list(range(len(pts)))[: max(7, len(pts) - 2)]
        # pollution truncation: the uncertainty of every *other* extracted
        # coefficient leaks into this ratio scaled by phi_l/phi_i, which can
        # grow toward x0; drop probes where that leak rivals the signal
        kept = []
        for j in keep:
            ratio_j = res[j] / phis[i][j]
            leak = sum(
                conf_by_coeff.get(l, 0.0) * abs(phis[l][j] / phis[i][j])
                for l in range(n) if l != i
            )
            if 20.0 * leak <= 0.05 * abs(ratio_j) + 1e-300 or len(kept) < 7:
                kept.append(j)
        keep = kept
        ratios = [res[j] / phis[i][j] for j in keep]
        # deflation basis: only the deeper (decaying) expansion-term shapes;
        # growing pollution is handled by the truncation above, since a fit
        # against growing shapes can absorb the genuine limit approach
        basis = [
            [phis[l][j] / phis[i][j] for j in keep] for l in range(i + 1, n)
        ]
        if rem_row is not None:
            mag = max(abs(rem_row[j]) for j in keep)
            if mag > 0 and all(abs(rem_row[j]) > 3.0 * floors[j] for j in keep[-3:]):
                basis.append([rem_row[j] / phis[i][j] for j in keep])
        status, value, conf = _deflated_limit_status(ratios, basis)
        # the kept probes still carry rounding noise; fold the worst of the
        # last few into the confidence so it cannot be understated
        noise = max(floors[j] / abs(phis[i][j]) for j in keep[-3:])
        if noise > conf and status in ("stable", "loose"):
            conf = noise
            status = _status_from_conf(value, conf)
        return status, value, conf

    coeffs = []
    stopped = None
    for attempt in range(4):
        # (re-)extend the defining peel with the current estimates removed
        extended = False
        residual = peeled()
        for i in range(len(coeffs), n):
            status, value, conf = ratio_limit(residual, i)
            if status == "diverged":
                if i == 0:
                    raise LimitDiverged("f/phi_1 has no finite limit")
                stopped = status
                break
            if status == "unstable" or not math.isfinite(value):
                stopped = "unstable"
                break
            stopped = None
            coeffs.append(value)
            conf_by_coeff[i] = conf
            extended = True
            residual = [r - value * p for r, p in zip(residual, phis[i])]
        # one Gauss-Seidel sweep: each coefficient re-extracted with all
        # other terms removed (same limit, far less pollution), the full
        # residual riding along as an empirical remainder shape; a move
        # widens the coefficient's confidence to a tenth of its size
        rem_row = peeled()
        for i in range(len(coeffs)):
            status, value, conf = ratio_limit(peeled(skip=i), i, rem_row)
            if status in ("stable", "loose") and math.isfinite(value):
                delta = abs(value - coeffs[i])
                coeffs[i] = value
                conf_by_coeff[i] = max(conf, 0.1 * delta)
        if len(coeffs) == n or (attempt and not extended):
            break

    # verification pass: final values, confidences, statuses; the residual
    # row is a luxury here, so fall back to the plain basis if it misleads
    confs, statuses = [], []
    partial = stopped is not None or len(coeffs) < n
    for i in range(len(coeffs)):
        status, value, conf = ratio_limit(peeled(skip=i), i, peeled())
        if status not in ("stable", "loose"):
            status, value, conf = ratio_limit(peeled(skip=i), i, None)
        conf = max(conf, conf_by_coeff.get(i, 0.0))
        decisive = status in ("stable", "loose") and math.isfinite(value)
        if decisive:
            coeffs[i] = value
            status = _status_from_conf(value, conf)  # of the confidence reported
        partial = partial or not decisive or status == "unstable"
        statuses.append(status)
        confs.append(conf)
    if stopped is not None:
        statuses.append(stopped)
    return ExpansionResult(
        coefficients=coeffs,
        confidences=confs,
        partial=partial,
        statuses=statuses,
    )


def extract_operator(f, scale, chain, constants, schedule):
    """Coefficients from the independent operator limits, no peeling.

    ``chain`` must be the type-II chain (canonical at x0) and ``constants``
    its detected structural constants; ``a_{k+1}`` is the limit of the
    level-k weighted derivative divided by the unit constant.  Each limit
    is the bundle's rule (:func:`_operator_limit`, the one cut and limit of
    :meth:`ScaleArtifacts.limit`) run on the schedule's points; a limit the
    chain already keeps for the same cut is read, not redone.
    """
    if chain.canonicity_at("x0") not in ("type_II", "unknown"):
        raise EvaluationError("extract_operator needs a chain of type II at x0")
    eps = constants.epsilon
    pts = scale.toward_x0(schedule.points)
    coeffs, confs, statuses = [], [], []
    partial = False
    for k in range(scale.n):
        status, value, conf = _operator_limit(chain, scale, f, k, pts)
        if status == "diverged" and k == 0:
            raise LimitDiverged("M_0[f] has no finite limit")
        statuses.append(status)
        if status in ("diverged", "unstable"):
            partial = True
            coeffs.append(math.nan)
            confs.append(math.inf)
        else:
            coeffs.append(value / eps[k])
            # the division rounds: no confidence is below a few ulps
            confs.append(max(conf / abs(eps[k]), 4 * math.ulp(coeffs[-1])))
    return ExpansionResult(
        coefficients=coeffs,
        confidences=confs,
        partial=partial,
        statuses=statuses,
    )


# -- constructed test functions -----------------------------------------------------


class ConstructedFunction(JetMemo):
    """f = sum c_i phi_i + nested integral of a prescribed source density.

    ``mode="tail"`` uses the representation by iterated tails (requires a
    convergent source; the c_i are then the true expansion coefficients);
    ``mode="from_T"`` anchors every level at T and works for any locally
    integrable source.  L[f] equals q_n * source exactly in both modes, and
    jets unwind algebraically through the nest, so evaluations carry no
    cancellation beyond the tabulated level values.  The nest comes from
    the bundle's memo (:meth:`ScaleArtifacts.nest`), so constructions from
    one source share it whatever their coefficients.

    Like an :class:`~chebscale.expr.ExpressionFunction`, f is a
    :class:`~chebscale.jet.JetMemo` with an array form, and so is its
    ``remainder`` (:func:`~chebscale.factorization._nest_jetfn`), so a chain
    reads f at a point set in one node-array pass
    (:meth:`~chebscale.factorization.WeightChain.images_on`).  The source
    needs an array form too, or every node goes to the scalar pass.
    """

    __slots__ = ("coefficients", "remainder", "_nest")

    def __init__(self, artifacts, coefficients, source_jetfn, mode="tail"):
        art = artifacts
        n = art.n
        if len(coefficients) != n:
            raise EvaluationError("need one coefficient per scale function")
        if mode not in ("tail", "from_T"):
            raise EvaluationError("mode must be 'tail' or 'from_T'")
        self.coefficients = list(coefficients)
        orientation = "to_x0" if mode == "tail" else "from_T"
        weights = [art.q_vals[i] for i in range(1, n)] + [None]
        self._nest = art.nest(weights, [orientation] * n, NodeFn.of(source_jetfn))
        sign = (-1) ** n if mode == "tail" else 1.0

        def prefactor(x, order):
            return sign / art.chain_q.weights[0](x, order)

        weight_jets = [art.chain_q.weights[i] for i in range(1, n)] + [None]
        self.remainder = remainder = _nest_jetfn(
            self._nest,
            weight_jets,
            source_jetfn,
            prefactor_jet=prefactor,
            name="constructed-remainder",
        )
        terms = [(i, c) for i, c in enumerate(self.coefficients, start=1) if c != 0.0]
        scale = art.scale

        def jet(x, order):
            out = remainder(x, order)
            for i, c in terms:
                out = out + c * scale.phi_jet(i, x, order)
            return out

        super().__init__(jet, "constructed", arrays=True)


def construct_from_source(artifacts, coefficients, source_jetfn, mode="tail"):
    return ConstructedFunction(artifacts, coefficients, source_jetfn, mode)


# -- theorem reports ------------------------------------------------------------------


@dataclass
class TheoremReport:
    theorem: str
    verdicts: dict
    consistent: bool
    notes: list = field(default_factory=list)

    def statuses(self):
        return {k: v["status"] for k, v in self.verdicts.items()}


def _v(status, **evidence):
    d = {"status": status}
    d.update(evidence)
    return d


# verdict status of a sequence kind (classify_sequence) or of a limit status
# (_limit_status); every other kind ("inconclusive", "unstable") decides nothing
_STATUS = {
    "converged": "holds", "stable": "holds", "loose": "holds",
    "diverged": "fails", "diverged_plus": "fails", "diverged_minus": "fails",
    "oscillatory": "fails",
}


def _status(kind):
    return _STATUS.get(kind, "inconclusive")


def _weakest(statuses):
    """A conjunction of verdicts: fails if one fails, holds if all hold."""
    statuses = list(statuses)
    if "fails" in statuses:
        return "fails"
    return "holds" if all(s == "holds" for s in statuses) else "inconclusive"


def _without_coefficients(limits):
    """An expansion set whose coefficients do not exist: it fails exactly
    when one of the defining limits diverges."""
    if limits["status"] == "fails":
        return _v("fails", reason="a defining limit diverges")
    return _v("inconclusive")


def _quiet_tail(values, floors):
    """The last 3 values (of at least 3) lie within their floors."""
    return len(values) >= 3 and all(abs(v) <= fl for v, fl in zip(values[-3:], floors[-3:]))


def _zero_limit_status(residuals, comparisons, floors):
    """Is residual = o(comparison)?  Ratio rule with an absolute noise floor."""
    if _quiet_tail(residuals, floors):
        return "holds", {"floor": True}
    ratios = [abs(r / c) for r, c in zip(residuals, comparisons) if c != 0.0]
    ok, diag = ratio_decreases_to_zero(ratios)
    if ok:
        return "holds", diag
    res = classify_sequence(ratios, tol=1e-4)
    if res["kind"].startswith("diverged"):
        return "fails", diag
    if res["kind"] == "converged" and abs(res["value"]) > 1e-2:
        return "fails", diag
    return "inconclusive", diag


def _outer_partials(art, nest):
    """Outer-level values on the classification points, cropped to the
    nest's reliable range (cells whose embedded quadrature error rivals
    their value, e.g. oscillatory integrands on wide far cells, are
    excluded), read through the nest's array form."""
    sigma = art.grid.sigma
    pts = [x for x in art.class_points if sigma * x <= sigma * nest.reliable_x]
    if len(pts) < 6:
        pts = art.class_points[:6]
    return tabulate(NodeFn(lambda x: nest.value(x, 0), nest.values), np.array(pts)).tolist()


def _partial_levels(art, i):
    """Weights and orientations of the order-i partial iterated integral of
    (5.24), (5.33) and (6.18): from T over q_i..q_n."""
    n = art.n
    return [art.q_vals[j] for j in range(i, n + 1)], ["from_T"] * (n - i + 1)


def _p_levels(art):
    """Weights and orientations of the P-weight nest of (6.12), whose
    density is 1: from T over the type-I chain."""
    n = art.n
    return [art.p_vals[j] for j in range(n - 1, 0, -1)], ["from_T"] * (n - 1)


def _type1_levels(art, i):
    """Weights and orientations of the order-i type-I nest of (4.24), and at
    i = n of (4.32) and (6.11): from T outermost, toward x0 within."""
    n = art.n
    weights = [art.p_vals[j] for j in range(n - i + 1, n)] + [None]
    return weights, ["from_T"] + ["to_x0"] * (i - 1)


def _bounded_verdict(seq):
    """(5.32), (5.33) and (5.36): does the sequence stay O(1) toward x0?"""
    kind = classify_sequence(seq, tol=_LIMIT_TOL)["kind"]
    bounded, diag = is_bounded_tail(seq)
    if kind.startswith("diverged") or bounded is False:
        status = "fails"
    elif bounded or kind in ("converged", "oscillatory"):
        status = "holds"
    else:
        status = "inconclusive"
    return _v(status, kind=kind, **diag)


def _o_form_verdict(rows):
    """(6.2): is the remainder over the comparison function O(1)?"""
    bounded, diag = is_bounded_tail(rows)
    return _v(
        "holds" if bounded else ("inconclusive" if bounded is None else "fails"),
        **diag,
    )


class _Check:
    """One check of one target: the bundle ``art``; the target ``f`` with
    its exact ``remainder`` evaluator when one is supplied; its operator
    image ``lf`` and whether that vanishes identically (``lf_zero``); the
    coefficients ``coeffs`` and their confidences ``confs`` once
    :meth:`ladder` has read them; and the ``verdicts`` and ``notes`` of the
    report being built.  Every ``check_*`` runs on one, and the rules they
    share are its methods."""

    def __init__(self, art, f, source=None, remainder=None):
        self.art = art
        self.f = f
        self.remainder = remainder
        self.verdicts = {}
        self.notes = []
        self.coeffs = self.confs = None
        # a source is a promise about L[f], so only an unknown image is tested
        self.lf_zero = source is None and art.lf_is_zero(f)
        if self.lf_zero:
            self.notes.append("L[f] below detection threshold: treated as identically zero")
            self.lf = None  # read by no rule: each decides L[f] = 0 first
        else:
            self.lf = art.lf_evaluator(f, source)

    def ladder(self, eq, count, coefficients, last=None):
        """The operator limits of M_k[f], k < count, as "<eq> limit k="
        verdicts, plus "<eq> limits" and a copy of the last one as
        "<last> last limit" when ``last`` is given.

        Sets the coefficients with their confidences: the supplied ones
        (exact), else a_{k+1} = lim M_k[f] / eps_k once every limit exists,
        else None."""
        verdicts = self.verdicts
        limits = [self.art.limit(self.f, k) for k in range(count)]
        for k, (status, value, conf) in enumerate(limits):
            verdicts[f"{eq} limit k={k}"] = _v(_status(status), value=value, confidence=conf)
        if last is not None:
            verdicts[f"{eq} limits"] = _v(_weakest(_status(s) for s, _, _ in limits))
            verdicts[f"{last} last limit"] = verdicts[f"{eq} limit k={count - 1}"].copy()
        if coefficients is not None:
            self.coeffs, self.confs = list(coefficients), [0.0] * len(coefficients)
        elif all(_status(s) == "holds" for s, _, _ in limits):
            eps = self.art.constants.epsilon
            self.coeffs = [v / eps[k] for k, (_, v, _) in enumerate(limits)]
            self.confs = [c / abs(eps[k]) for k, (_, _, c) in enumerate(limits)]

    def integral(self, label, weights, orientations, density):
        """The verdict ``label``: does the outer integral of the nest of
        ``density`` converge toward x0?  Every density is built from L[f], so
        it holds when L[f] vanishes identically.  A DivergentTail fails the
        verdict when it is decisive and leaves it inconclusive otherwise;
        else the partials decide.  Returns the integral (nan unless it
        converged)."""
        if self.lf_zero:
            self.verdicts[label] = _v("holds", zero=True)
            return 0.0
        try:
            nest = self.art.nest(weights, orientations, density)
        except DivergentTail as exc:
            self.verdicts[label] = _v("fails" if exc.decisive else "inconclusive", reason=str(exc))
            return math.nan
        res = classify_sequence(_outer_partials(self.art, nest), tol=1e-6)
        self.verdicts[label] = _v(_status(res["kind"]), kind=res["kind"])
        return res["value"] if res["kind"] == "converged" else math.nan

    def residuals(self, k, chain="M", upto=None):
        """R_k(x) over the probes, from the exact remainder evaluator when
        one is supplied, and the floor below which each counts as
        numerically zero: the rounding floor plus the uncertainty each
        coefficient carries into the subtraction and, without a remainder,
        the chain's noise estimate of the level-k image of f."""
        art = self.art
        upto = art.n if upto is None else upto
        phi_k = art.M_phi if chain == "M" else art.L_phi
        levels = art.chain_q if chain == "M" else art.chain_p
        image = levels.image
        # M_k kills the first k scale members, L_k the last k: the expansion of
        # the level-k image starts at i = k+1 on the type-II side but at i = 1
        # on the type-I side
        start = k + 1 if chain == "M" else 1
        # one node-array pass per target, before any read at a probe
        levels.images_on([self.f] if self.remainder is None else [self.f, self.remainder],
                         art.probes)
        rows, floors = [], []
        for x in art.probes:
            terms = []
            uncertainty = 0.0
            for i in range(start, upto + 1):
                img = phi_k(k, i, x)
                terms.append(self.coeffs[i - 1] * img)
                c = self.confs[i - 1]
                if math.isfinite(c):
                    uncertainty += c * abs(img)
            fk, noise = image(self.f, k, x)
            if self.remainder is not None:
                val, noise = image(self.remainder, k, x)[0], 0.0
            else:
                val = fk
                for t in terms:
                    val -= t
            scale_mag = abs(fk) + sum(abs(t) for t in terms)
            rows.append(val)
            floors.append(1e-11 * (scale_mag + 1e-300) + 3.0 * uncertainty + noise)
        return rows, floors

    def residual_set(self, chain, levels):
        """The expansion-set rule of (4.22), (4.23), (4.31), (5.5)-(5.6) and
        (5.20)-(5.21): for each ``(k, upto, i)`` of ``levels`` the level-k
        residual of the expansion up to phi_upto is o(image of phi_i), or
        o(1) when i is None.  Returns the weakest status and the status per
        entry."""
        art = self.art
        image = art.M_phi if chain == "M" else art.L_phi
        per = {}
        for j, (k, upto, i) in enumerate(levels):
            rows, floors = self.residuals(k, chain, upto)
            cmps = [1.0] * len(rows) if i is None else [image(k, i, x) for x in art.probes]
            per[j] = _zero_limit_status(rows, cmps, floors)[0]
        return _weakest(per.values()), per

    def r0(self):
        """R_0 at the probes with the level-0 weight undone (M_0 = q_0 f),
        and the slack 10 * floor / q_0 of each value."""
        rows, floors = self.residuals(0)
        q0 = self.art.q_vals[0]
        probes = self.art.probes
        return ([r / q0(x) for r, x in zip(rows, probes)],
                [10 * fl / q0(x) for fl, x in zip(floors, probes)])

    def nonneg(self):
        """L[f] >= 0 along the probes (an identically zero image is)."""
        if self.lf_zero:
            return True
        try:
            vals = [self.lf(x) for x in self.art.probes]
        except ArithmeticError as exc:
            raise EvaluationError(f"L[f] fails along the probes: {exc}") from exc
        mag = max(abs(v) for v in vals) + 1e-300
        return all(v >= -1e-9 * mag for v in vals)

    def report(self, theorem, groups, must_not_fail=()):
        """Consistent unless two decisive verdicts of one equivalence group
        disagree or a label of ``must_not_fail`` fails."""
        status = {label: v["status"] for label, v in self.verdicts.items()}
        consistent = all(
            len({status.get(label) for label in group} & {"holds", "fails"}) <= 1
            for group in groups
        ) and all(status.get(label) != "fails" for label in must_not_fail)
        return TheoremReport(theorem, self.verdicts, consistent, self.notes)


# -- check_complete -------------------------------------------------------------------


def check_complete(f, artifacts, source=None, remainder=None, coefficients=None):
    """Cross-check the complete-expansion equivalences plus remainder facts.

    ``source`` (the density L[f]/q_n), ``remainder`` (a jet-evaluator of the
    remainder) and ``coefficients`` may be supplied for constructed inputs;
    everything is recomputed from f alone otherwise.
    """
    art = artifacts
    n = art.n
    ck = _Check(art, f, source, remainder)
    verdicts = ck.verdicts

    # (5.7)/(5.8): operator limits, and the coefficients (supplied ones first)
    ck.ladder("(5.7)", n, coefficients, last="(5.8)")

    # (5.9): convergence of the source integral
    value = ck.integral("(5.9) integral", [None], ["from_T"],
                        _guarded_ratio(ck.lf, art.q_vals[n]))
    verdicts["(5.9) integral"]["value"] = value

    # (5.5)-(5.6): the expansion set
    if ck.lf_zero and ck.coeffs is not None:
        # identically-zero operator image: f lies in the kernel span, the
        # expansion is exact and every formally differentiated set is too
        verdicts["(5.5)-(5.6) set"] = _v("holds", zero=True)
    elif ck.coeffs is not None:
        status, per = ck.residual_set("M", [(k, n, n) for k in range(n)])
        verdicts["(5.5)-(5.6) set"] = _v(status, per_k=per)
    else:
        verdicts["(5.5)-(5.6) set"] = _without_coefficients(verdicts["(5.7) limits"])

    # remainder identity (5.14)-(5.15) and bounds, only in the convergent case
    if ck.lf_zero and ck.coeffs is not None:
        rows, floors = ck.residuals(0)
        ok = all(abs(r) <= fl * 100 for r, fl in zip(rows, floors))
        verdicts["(5.14)-(5.15) identity"] = _v("holds" if ok else "fails", zero=True)
    elif ck.coeffs is not None and verdicts["(5.9) integral"]["status"] == "holds":
        try:
            nest = art.nest([art.q_vals[i] for i in range(1, n + 1)], ["to_x0"] * n, ck.lf)
        except DivergentTail:
            verdicts["(5.14)-(5.15) identity"] = _v(
                "inconclusive", reason="tail tables did not stabilize"
            )
        else:
            _remainder_identity(ck, nest)
            _remainder_bounds(ck, nest)

    # type-I side: (4.31) ladder and (4.32)
    if ck.lf_zero and ck.coeffs is not None:
        verdicts["(4.31) set"] = _v("holds" if _term_loss(art, n) else "fails", zero=True)
    elif ck.coeffs is not None:
        status, per = ck.residual_set("L", [(k, n - k, None) for k in range(n)])
        # term-loss rule: the lost term is annihilated identically
        loss_ok = _term_loss(art, n)
        if not loss_ok and status == "holds":
            status = "fails"
        verdicts["(4.31) set"] = _v(status, per_k=per, term_loss=loss_ok)
    elif verdicts["(5.7) limits"]["status"] == "fails":
        verdicts["(4.31) set"] = _v("inconclusive", reason="no coefficients")
    else:
        verdicts["(4.31) set"] = _v("inconclusive")
    ck.integral("(4.32) integral", *_type1_levels(art, n),
                _guarded_ratio(ck.lf, art.p_vals[n]))

    # generalized convexity branch (needs the all-positive Wronskian case)
    convex = _convexity(ck)

    groups = [
        ["(5.5)-(5.6) set", "(5.7) limits", "(5.8) last limit", "(5.9) integral"],
        ["(4.31) set", "(4.32) integral"],
    ]
    if convex:
        groups = [groups[0] + groups[1] + ["(6.2) O-form"]]
    return ck.report(
        "complete (type-I and type-II formal differentiation)", groups,
        ("(5.14)-(5.15) identity", "(5.16) bound", "(5.17) bound", "(6.9) sign",
         "(6.10) monotonicity"),
    )


def _remainder_identity(ck, nest):
    art = ck.art
    n = art.n
    ok_probes = 0
    bad = 0
    details = []
    for k in range(n):
        rows, floors = ck.residuals(k)
        for x, direct, fl in zip(art.probes, rows, floors):
            rep = (-1) ** (n + k) * nest.value(x, k)
            scale_mag = abs(direct) + abs(rep)
            if scale_mag < max(10 * fl, 1e-12):
                continue  # below numerical resolution at this probe
            rel = abs(direct - rep) / scale_mag
            details.append((k, x, rel))
            if abs(direct - rep) <= 1e-5 * scale_mag + fl:
                ok_probes += 1
            else:
                bad += 1
    if ok_probes + bad < 3:
        ck.verdicts["(5.14)-(5.15) identity"] = _v("inconclusive", checked=ok_probes + bad)
    else:
        ck.verdicts["(5.14)-(5.15) identity"] = _v(
            "holds" if bad == 0 else "fails",
            checked=ok_probes + bad,
            failures=bad,
            worst=max((r for _, _, r in details), default=0.0),
        )


def _remainder_bounds(ck, nest):
    art = ck.art
    n = art.n
    # (5.16): |R_0| <= |phi_n| * sup over later probes of |innermost tail|
    tails = [nest.value(x, n - 1) for x in art.probes]
    r0, slack = ck.r0()
    ok16 = True
    for j, x in enumerate(art.probes):
        sup_tail = max(abs(t) for t in tails[j:])
        bound = abs(art.scale.phi_value(n, x)) * sup_tail + slack[j]
        if abs(r0[j]) > bound * (1 + 1e-9) + 1e-300:
            ok16 = False
    ck.verdicts["(5.16) bound"] = _v("holds" if ok16 else "fails")
    # (5.17): absolute-convergence bound with the quadrature error folded in
    try:
        abs_nest = art.nest([art.q_vals[n]], ["to_x0"], _abs(ck.lf))
    except DivergentTail:
        ck.verdicts["(5.17) bound"] = _v("inconclusive", reason="not absolutely convergent")
        return
    ok17 = True
    for j, x in enumerate(art.probes):
        bound = (
            abs(art.scale.phi_value(n, x)) * (abs(abs_nest.value(x)) + abs_nest.value_error)
            + slack[j]
        )
        if abs(r0[j]) > bound + 1e-300:
            ok17 = False
    ck.verdicts["(5.17) bound"] = _v("holds" if ok17 else "fails")


def _term_loss(art, i):
    """(4.29)-style annihilation: L_{n-i+h}[phi_{i-h+1}] == 0 identically."""
    n = art.n
    for h in range(i):
        k = n - i + h
        target = i - h + 1
        if not 1 <= target <= n or k < 1:
            continue
        for x in art.probes[:: max(1, len(art.probes) // 4)]:
            img = abs(art.L_phi(k, target, x))
            biggest = max(abs(art.L_phi(k, j, x)) for j in range(1, n - k + 1))
            if img > 1e-7 * (biggest + 1e-300):
                return False
    return True


def _convexity(ck):
    """Generalized-convexity branch: needs L[f] >= 0 along the schedule and
    the all-positive leading-Wronskian case, which fixes the sign pattern."""
    art = ck.art
    n = art.n
    if not art.constants.positivity_case or not ck.nonneg():
        return False
    ck.notes.append("L[f] >= 0 on the schedule: generalized-convexity checks apply")
    if ck.coeffs is None:
        return True
    # (6.2): O-form with n-1 terms
    rows = []
    for x in art.probes:
        acc = ck.f(x, 0).value
        for i in range(1, n):
            acc -= ck.coeffs[i - 1] * art.scale.phi_value(i, x)
        rows.append(acc / art.scale.phi_value(n, x))
    ck.verdicts["(6.2) O-form"] = _o_form_verdict(rows)
    # (6.9)/(6.10): remainder sign and monotone products; the products are
    # taken with the positive chain weights ((-1)^n R_0 p_0 and
    # (-1)^n R_0 q_0), which is the sign-convention-free form
    r0, slack = ck.r0()
    sign_ok = all((-1) ** n * r >= -s for r, s in zip(r0, slack))
    ck.verdicts["(6.9) sign"] = _v("holds" if sign_ok else "fails")
    mono_ok = True
    for weight in (art.p_vals[0], art.q_vals[0]):
        prods, slacks = [], []
        for r, s, x in zip(r0, slack, art.probes):
            wv = weight(x)
            prods.append((-1) ** n * r * wv)
            slacks.append(abs(s * wv) + 1e-300)
        for j in range(len(prods) - 1):
            if prods[j + 1] > prods[j] + slacks[j] + slacks[j + 1]:
                mono_ok = False
    ck.verdicts["(6.10) monotonicity"] = _v("holds" if mono_ok else "fails")
    return True


# -- check_incomplete ------------------------------------------------------------------


def check_incomplete(f, i, artifacts, source=None, remainder=None, coefficients=None):
    """Cross-check the order-i incomplete-expansion equivalences (1 <= i <= n-1)."""
    art = artifacts
    n = art.n
    if not 1 <= i <= n - 1:
        raise EvaluationError(f"i must lie in [1, {n - 1}]")
    ck = _Check(art, f, source, remainder)
    verdicts = ck.verdicts

    # (5.22)/(5.23) limits up to order i-1
    ck.ladder("(5.22)", i, coefficients, last="(5.23)")
    if ck.coeffs is not None:
        pad = [0.0] * (n - len(ck.coeffs))
        ck.coeffs, ck.confs = ck.coeffs + pad, ck.confs + pad

    # (5.20)-(5.21) expansion set up to phi_i
    if ck.coeffs is not None:
        status, per = ck.residual_set("M", [(k, i, i) for k in range(i)])
        verdicts["(5.20)-(5.21) set"] = _v(status, per_k=per)
    else:
        verdicts["(5.20)-(5.21) set"] = _without_coefficients(verdicts["(5.22) limits"])

    # (5.24): outer improper integral of the mixed from-T nest
    ck.integral("(5.24) integral", *_partial_levels(art, i), ck.lf)

    # type-I side: (4.23) set, (4.22) first group, (4.24) integral
    if ck.coeffs is not None:
        st23, per_h = ck.residual_set("L", [(n - i + h, i - h, None) for h in range(i)])
        verdicts["(4.23) set"] = _v(st23, per_h=per_h)
        st22, per_k = ck.residual_set("L", [(k, i, i) for k in range(n - i + 1)])
        if st22 == "holds" and st23 != "holds":
            st22 = st23
        verdicts["(4.22) set"] = _v(st22, per_k=per_k, term_loss=_term_loss(art, i))
    else:
        verdicts["(4.23) set"] = _v("inconclusive")
        verdicts["(4.22) set"] = _v("inconclusive")
    ck.integral("(4.24) integral", *_type1_levels(art, i),
                _guarded_ratio(ck.lf, art.p_vals[n]))

    # (6.18) O-estimates in the convex case
    convex = ck.nonneg()
    if convex and not ck.lf_zero:
        ck.notes.append("L[f] >= 0 on the schedule: (6.18) O-estimates checked")

        def bounded(k):
            nest = art.nest(*_partial_levels(art, k + 1), ck.lf)
            ratios = []
            for x in art.probes:
                ref = max(1.0, abs(nest.value(x, 0)))
                value, noise = art.chain_q.image(f, k, x)
                # a value within its noise reads as 0
                ratios.append((value if abs(value) > noise else 0.0) / ref)
            return is_bounded_tail(ratios)[0] is not False

        # a list, not a generator: every level runs, so its error surfaces
        ok18 = all([bounded(k) for k in range(i, n)])
        verdicts["(6.18) O-estimates"] = _v("holds" if ok18 else "fails")

    groups = [
        ["(5.20)-(5.21) set", "(5.22) limits", "(5.23) last limit", "(5.24) integral"],
        ["(4.22) set", "(4.23) set", "(4.24) integral"],
    ]
    if convex:
        groups = [groups[0] + groups[1]]
    return ck.report(f"incomplete expansion, i={i}", groups, ("(6.18) O-estimates",))


# -- check_O ---------------------------------------------------------------------------


def check_O(f, i, artifacts, source=None, coefficients=None):
    """Boundedness equivalences: M_{i-1}[f] = O(1) iff the order-i partial
    iterated integral stays bounded (2 <= i <= n; i = 1 compares f to phi_1)."""
    art = artifacts
    n = art.n
    if not 1 <= i <= n:
        raise EvaluationError(f"i must lie in [1, {n}]")
    ck = _Check(art, f, source)
    verdicts = ck.verdicts

    if i == 1:
        rows = [f(x, 0).value / art.scale.phi_value(1, x) for x in art.probes]
        verdicts["(5.36) O-form"] = _bounded_verdict(rows)
    else:
        # (5.31): limits below the boundary order, then boundedness at i-1
        ck.ladder("(5.31)", i - 1, coefficients)
    # M_{i-1}[f] along the classification points, on the cut the limits keep
    cut = _kept_cut(art.chain_q, art.scale, f, art.class_points)
    _, seq, noise = _level_sequence(art.chain_q, f, i - 1, cut)
    if i > 1:
        verdicts["(5.29) coefficients"] = _v(
            "holds" if ck.coeffs is not None else "inconclusive", values=ck.coeffs
        )
    noisy = [j for j, (v, nz) in enumerate(zip(seq, noise)) if nz > 1e-3 * abs(v)]
    if noisy:
        # a kept value inside its own rounding noise decides nothing
        verdicts["(5.32) bounded"] = _v("inconclusive", within_noise=noisy)
    else:
        verdicts["(5.32) bounded"] = _bounded_verdict(seq)

    if ck.lf_zero:
        verdicts["(5.33) partial bounded"] = _v("holds", zero=True)
    else:
        nest = art.nest(*_partial_levels(art, i), ck.lf)
        verdicts["(5.33) partial bounded"] = _bounded_verdict(_outer_partials(art, nest))

    label32 = "(5.36) O-form" if i == 1 else "(5.32) bounded"
    return ck.report(f"O-estimates, i={i}", [[label32, "(5.33) partial bounded"]])


# -- check_absolute ---------------------------------------------------------------------


def check_absolute(f, artifacts, source=None):
    """Equivalence of the three absolute-convergence integral conditions."""
    art = artifacts
    n = art.n
    ck = _Check(art, f, source)
    abs_lf = _abs(ck.lf)
    pn = art.p_vals[n]

    ck.integral("(6.11) type-I nest", *_type1_levels(art, n),
                _guarded_ratio(abs_lf, pn))

    # (6.12): P(t) built by nested from-T integration of the type-I chain; no
    # density reads it when L[f] vanishes
    pnest = None if ck.lf_zero else art.nest(*_p_levels(art), UNIT)

    def p_weighted_density(t):
        v = abs_lf(t)
        if v == 0.0:
            return 0.0
        return pnest.value(t, 0) / pn(t) * v

    def p_weighted_nodes(ts):
        # the nest tabulates its density on the bundle's grid nodes only
        assert len(ts) == len(art.grid.xnodes)
        v = node_values(abs_lf, ts)
        live = v != 0.0
        out = np.zeros(len(ts))
        out[live] = art.p_weight_nodes[live] / node_values(pn, ts)[live] * v[live]
        return out

    ck.integral("(6.12) P-weighted", [None], ["from_T"],
                NodeFn(p_weighted_density, p_weighted_nodes))
    ck.integral("(6.13) direct", [None], ["from_T"],
                _guarded_ratio(abs_lf, art.q_vals[n]))
    return ck.report("absolute convergence",
                     [["(6.11) type-I nest", "(6.12) P-weighted", "(6.13) direct"]])
