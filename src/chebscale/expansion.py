"""Coefficient extraction, theorem verification and remainder bounds.

Two extraction routes: the recursive peeling definition of the coefficients,
and the independent operator-limit route through the type-II weighted
derivatives.  The theorem checkers evaluate each side of the equivalences
(limits, iterated integrals, expansion sets, remainder identities and
bounds) and report ``consistent=False`` only when two decisive verdicts
contradict a claimed equivalence: that is the artifact's primary
bug-detector, since the theory guarantees it cannot happen for correct code
on valid inputs.  Marginal numerical evidence yields "inconclusive", never a
forced verdict.

Cache policy: jets are cached in one place only, the
:class:`~chebscale.jet.JetMemo` of the evaluator that produces them (scale
members, expression targets, prefix Wronskians, chain weights, nest
evaluators, constructed functions), one jet per point at the highest order
asked for there.  Above the jets, a :class:`ScaleArtifacts` bundle owns what
depends on the scale alone (chains, constants, grid, weight tabulations and
the target-independent P-weight nest with its values on the grid nodes).
It builds only what is read: the principal system of Lemma 4.1 on its first
read (no checker and no extraction route reads it), and the constants'
``b`` comes from the L_k[phi_{n-k}] constancy test, not from that system.
Everything computed from a target belongs to that target's record, which
the bundle holds only as long as the target lives, so a later target can
never be served an earlier one's results.  The record keeps
L[f] = W(phi_1..phi_n, f)/W(phi_1..phi_n) as plain values: one array over
the grid nodes, eliminated as one stack of bordered determinants, and one
value per other point it was asked at (probes, and grid nodes flagged in
the array).  Every nest of every check of f reads them, and the record
holds no closure over f, which would keep f alive.  The denominator W(phi_1..phi_n) on the grid nodes depends on the
scale alone: the bundle tabulates it, with the nodes where it vanishes,
once, and every target's L[f] array divides by it.  Grid tables of the
weights and of L[f] go through array forms, which keep no point in any jet
memo.  A ``source`` passed to a checker is a promise
that L[f] = q_n * source: a target's nests are keyed by label only, and
whichever call builds one first fixes it for every later call.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergentTail, EvaluationError, LimitDiverged
from .extrapolate import _median, classify_sequence, extrapolate_limit, is_bounded_tail
from .factorization import (
    _nest_jetfn,
    apply_chain,
    apply_full_operator,
    build_principal_system,
    build_type1_chain,
    build_type2_chain,
    well_conditioned_probes,
)
from .jet import JetMemo
from .operators import operator_constants
from .quadrature import NestedIntegral, NodeFn, WorkGrid, node_values
from .scale import finite_prefix, ratio_decreases_to_zero, require_verified, scale_schedule
from .wronskian import bordered_wronskian, wronskian_flags

_LIMIT_TOL = 1e-6  # "a limit exists" when confidence < tol * (1 + |value|)


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
    """Everything a bundle computed from one target."""

    __slots__ = ("images", "limits", "lf", "lf_nodes", "lf_zero", "nests")

    def __init__(self):
        self.images = {}  # ("M" | "L", k, x) -> weighted derivative
        self.limits = {}  # k -> (status, value, confidence) of M_k[f]
        self.lf = {}  # x -> L[f](x), the Wronskian quotient
        self.lf_nodes = None  # L[f] on the grid nodes (NaN: flagged)
        self.lf_zero = None  # L[f] vanishes along the probes
        self.nests = {}  # label -> NestedIntegral


class ScaleArtifacts:
    """Chains, constants, principal system and shared grid for one scale.

    The bundle owns the chains, constants and grid (whose value cache keeps
    the weight tabulations, since the bundle holds the weights) and the
    target-independent ``("P-weight",)`` nest, tabulated once on the grid
    nodes.  The principal system (``system``) is built on its first read
    and kept; the constants' ``b`` does not need it (see
    :func:`~chebscale.operators.operator_constants`).  A target owns
    everything computed from it: ``_targets`` maps it, by weak reference, to
    a record of its M/L values, its limits, its L[f] values and L[f] = 0
    test and its nests, keyed by label only.  The record goes when the
    target goes, so a new target at a dead one's address inherits none of
    its results.  A ``source`` passed to a checker is a promise that
    L[f] = q_n * source: a target's nests are built from whichever L[f]
    evaluator reaches them first.
    """

    def __init__(self, scale, schedule):
        require_verified(scale)
        self.scale = scale
        self.schedule = schedule
        self.chain_q = build_type2_chain(scale, schedule)
        self.chain_p = build_type1_chain(scale, schedule)
        self.q_vals = [NodeFn.of(w) for w in self.chain_q.weights]
        self.p_vals = [NodeFn.of(w) for w in self.chain_p.weights]
        weights = self.q_vals + self.p_vals
        self.probes = well_conditioned_probes(
            scale, finite_prefix(scale.toward_x0(schedule.points), weights), minimum=6
        )
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
        self.constants = operator_constants(scale, self.chain_q, self.chain_p, schedule)
        self._targets = weakref.WeakKeyDictionary()
        self._nests = {}
        self._den = None  # wronskian_flags of W(phi_1..phi_n) on the grid nodes
        self._p_nodes = None  # the P-weight nest on the grid nodes
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

    @cached_property
    def system(self):
        """The principal system of Lemma 4.1, built on first read: no
        checker and no extraction route reads it."""
        return build_principal_system(self.scale, self.chain_p, self.schedule)

    def _record(self, f):
        rec = self._targets.get(f)
        if rec is None:
            rec = self._targets[f] = _TargetRecord()
        return rec

    def _image(self, tag, chain, k, f, x):
        images = self._record(f).images
        key = (tag, k, x)
        out = images.get(key)
        if out is None:
            out = images[key] = apply_chain(chain, f, x, level=k)
        return out

    def M(self, k, f, x):
        return self._image("M", self.chain_q, k, f, x)

    def L(self, k, f, x):
        return self._image("L", self.chain_p, k, f, x)

    def M_phi(self, k, i, x):
        return self.M(k, self.scale.functions[i - 1], x)

    def L_phi(self, k, i, x):
        return self.L(k, self.scale.functions[i - 1], x)

    def limit(self, f, k):
        """Deflated operator-limit status of M_k[f] along the
        classification points that ``_level_sequence`` keeps."""
        limits = self._record(f).limits
        out = limits.get(k)
        if out is None:
            vals, _ = _level_sequence(self, f, k)
            pts = self.class_points[: len(vals)]
            basis = [
                [self.M_phi(k, i, x) for x in pts]
                for i in range(k + 2, self.n + 1)
            ]
            out = limits[k] = _deflated_limit_status(vals, basis)
        return out

    def lf_evaluator(self, f, source=None):
        """``x -> L[f](x)`` with its array form (a :class:`NodeFn`); a known
        source density short-circuits the Wronskian quotient.  Quotient
        values are kept in f's record, per point and as one array over the
        grid nodes, so every nest and every later check of f tabulates each
        node once."""
        if source is not None:
            qn = self.q_vals[self.n]

            def lf(x):
                v = source(x)
                if v == 0.0:
                    return 0.0
                return qn(x) * v

            def lf_nodes(xs):
                v = node_values(source, xs)
                return np.where(v == 0.0, 0.0, node_values(qn, xs) * v)

            return NodeFn(lf, lf_nodes)
        scale = self.scale
        rec = self._record(f)  # values only: no closure over f
        values = rec.lf

        def lf(x):
            v = values.get(x)
            if v is None:
                v = values[x] = apply_full_operator(scale, f, x)
            return v

        def lf_nodes(xs):
            if xs is not self.grid.xnodes:
                return apply_full_operator(scale, f, xs)
            if rec.lf_nodes is None:
                rec.lf_nodes = apply_full_operator(scale, f, xs, den=self._denominator())
            return rec.lf_nodes

        return NodeFn(lf, lf_nodes)

    def _denominator(self):
        """W(phi_1..phi_n) on the grid nodes and the nodes where it vanishes
        or overflows: every target's L[f] table divides by this one."""
        if self._den is None:
            self._den = wronskian_flags(self.scale, range(1, self.n + 1), self.grid.xnodes)
        return self._den

    def lf_is_zero(self, f):
        """Constant-zero detection for L[f] along the schedule."""
        rec = self._record(f)
        if rec.lf_zero is None:
            idx = tuple(range(1, self.n + 1))
            zero = True
            for x in self.probes:
                num, _, det_scale = bordered_wronskian(self.scale, idx, f, x)
                if abs(num) > 1e-8 * det_scale:
                    zero = False
                    break
            rec.lf_zero = zero
        return rec.lf_zero

    def p_weight(self):
        """The target-independent P-weight nest: P(t) by nested from-T
        integration of the type-I chain."""
        n = self.n
        return self.nest(
            [self.p_vals[j] for j in range(n - 1, 0, -1)],
            ["from_T"] * (n - 1),
            lambda x: 1.0,
            key=("P-weight",),
        )

    def p_weight_nodes(self):
        """P(t) on the grid nodes (NaN where the nest raises), tabulated
        once per bundle for every target's (6.12) density."""
        if self._p_nodes is None:
            pnest = self.p_weight()
            self._p_nodes = node_values(lambda t: pnest.value(t, 0), self.grid.xnodes)
        return self._p_nodes

    def nest(self, weights, orientations, density, key=None, target=None):
        """NestedIntegral on the shared grid, memoized under ``key`` in
        ``target``'s record, or in the bundle's own table when the nest
        depends on no target."""
        if key is None:
            return NestedIntegral(self.grid, weights, orientations, density)
        nests = self._nests if target is None else self._record(target).nests
        out = nests.get(key)
        if out is None:
            out = nests[key] = NestedIntegral(self.grid, weights, orientations, density)
        return out


def _level_sequence(art, f, k):
    """M_k[f] along the classification points, cut where it dies numerically,
    and the rounding-noise estimate of each kept value.

    Probes where the noise rivals the values themselves are masked from the
    seventh point on; beyond that point, or past a collapse or explosion
    (``_sane_prefix``), the sequence is dead.  Points past the target's own
    finite reach are cut first."""
    pts = finite_prefix(art.class_points, [lambda x: f(x, 0).value])
    pairs = [apply_chain(art.chain_q, f, x, level=k, with_noise=True) for x in pts]
    vals = [v for v, _ in pairs]
    typical = _median([abs(v) for v in vals[: max(4, len(vals) // 2)]])
    usable = len(vals)
    for j, (v, nz) in enumerate(pairs):
        if j >= 6 and nz > 1e-3 * max(abs(v), typical, 1e-300):
            usable = j
            break
    cut = min(usable, _sane_prefix(vals))
    return vals[:cut], [nz for _, nz in pairs[:cut]]


def artifacts_for(scale, schedule=None):
    """The bundle of ``scale`` on ``schedule`` (default :func:`scale_schedule`):
    chains, constants and grid; the principal system waits for its first read."""
    if schedule is None:
        schedule = scale_schedule(scale)
    return ScaleArtifacts(scale, schedule)


# -- extraction -------------------------------------------------------------------


@dataclass
class ExpansionResult:
    coefficients: list
    confidences: list
    method: str
    partial: bool = False
    statuses: list = field(default_factory=list)


def _sane_prefix(values, minimum=6):
    """Length of the usable prefix before numerical death of a sequence.

    Weighted derivatives of functions with a dominant huge term die at large
    probes: the informative digits fall below the ulp of the leading term and
    values collapse to exact zeros or explode off-trend.  Detect the first
    collapse/explosion after a sane start and cut there.
    """
    n = len(values)
    mags = [abs(v) for v in values if v != 0.0 and math.isfinite(v)]
    if not mags:
        return n
    ref = _median(mags[: max(3, len(mags) // 2)])
    for j in range(minimum, n):
        v = values[j]
        dead = v == 0.0 and values[j - 1] != 0.0
        wild = math.isfinite(v) and ref > 0 and abs(v) > 1e4 * max(ref, abs(values[j - 1]))
        if dead or wild or not math.isfinite(v):
            return j
    return n


def _informative_points(pts, f_vals, phi_n_vals, eta=1e-4, minimum=6):
    """Probes whose float value of f still resolves the smallest scale term.

    Beyond the point where ulp(|f|) exceeds eta * |phi_n| no method can
    recover the deeper coefficients from f's double values; such probes only
    inject rounding junk."""
    keep = [
        j for j in range(len(pts))
        if 1e-16 * abs(f_vals[j]) <= eta * abs(phi_n_vals[j])
    ]
    if len(keep) >= minimum:
        return keep
    return list(range(min(len(pts), max(minimum, len(keep)))))


def _status_from_conf(value, conf, tol=_LIMIT_TOL):
    scale0 = 1.0 + abs(value)
    if not math.isfinite(value) or not math.isfinite(conf) or conf > 1e-2 * scale0:
        return "unstable"
    return "stable" if conf <= tol * scale0 else "loose"


def _limit_status(values, tol=_LIMIT_TOL, loo=True):
    """Limit detection with leave-one-out validation of the confidence.

    The extrapolators can land on accidental deep-tableau coincidences; the
    shift of the estimate when the last probe is withheld is a real
    stability measure that an accidental claim cannot fake.
    """
    res = classify_sequence(values, tol)
    kind = res["kind"]
    if kind in ("diverged_plus", "diverged_minus", "oscillatory"):
        return "diverged", math.nan, math.inf
    if res["n_used"] >= 4:  # classify_sequence extrapolated the finite values
        value, conf = res["value"], res["confidence"]
    else:
        value, conf = extrapolate_limit(values)
    if loo and len(values) >= 7 and math.isfinite(value):
        _, v2, _ = _limit_status(values[:-1], tol, loo=False)
        if math.isfinite(v2):
            conf = max(conf, abs(value - v2))
    return _status_from_conf(value, conf, tol), value, conf


def _deflated_limit_status(values, basis_rows, tol=_LIMIT_TOL):
    """Limit detection after removing exactly-computable correction terms.

    ``basis_rows`` hold sampled functions that tend to zero toward x0 (the
    operator images of the deeper scale members, or their ratios).  A least
    squares fit of the sequence against [1, basis...] identifies their
    contribution; the deflated sequence has the same limit but a far smaller
    transient, which the standard detector then resolves.  Divergent
    sequences stay divergent under deflation by decaying terms.
    """
    clean = [b for b in basis_rows if all(math.isfinite(v) for v in b)]
    if not clean or not all(math.isfinite(v) for v in values):
        return _limit_status(values, tol)

    def deflate(vals, rows):
        # fit on the late probes only: whatever the basis cannot represent
        # (the true remainder) is smallest there and cannot smear the fit
        m = len(vals)
        start = max(m - max(len(rows) + 4, (2 * m) // 3), 0)
        a = np.ones((m - start, len(rows) + 1))
        for c, row in enumerate(rows, start=1):
            a[:, c] = row[start:]
        scalecols = np.maximum(np.abs(a).max(axis=0), 1e-300)
        sol, *_ = np.linalg.lstsq(a / scalecols, np.array(vals[start:]), rcond=None)
        betas = sol / scalecols
        out = list(vals)
        for c, row in enumerate(rows, start=1):
            out = [d - betas[c] * v for d, v in zip(out, row)]
        return out

    try:
        deflated = deflate(values, clean)
    except np.linalg.LinAlgError:
        return _limit_status(values, tol)
    status, value, conf = _limit_status(deflated, tol, loo=False)
    # leave-one-out over the whole pipeline (refit included): an absorbed
    # genuine transient or a tableau fluke shifts under point removal
    if len(values) >= 7 and math.isfinite(value):
        try:
            defl2 = deflate(values[:-1], [r[:-1] for r in clean])
            _, v2, _ = _limit_status(defl2, tol, loo=False)
            if math.isfinite(v2):
                conf = max(conf, abs(value - v2))
        except np.linalg.LinAlgError:
            pass
        status = _status_from_conf(value, conf, tol) if status != "diverged" else status
    raw_status, raw_value, raw_conf = _limit_status(values, tol)
    if raw_status == "diverged" and status == "unstable":
        return raw_status, raw_value, raw_conf
    if raw_status in ("stable", "loose") and raw_conf < conf:
        return raw_status, raw_value, raw_conf
    return status, value, conf


def extract_recursive(f, scale, schedule, refine_sweeps=5):
    """Coefficients by peeling: a_i from the residual-over-phi_i limits.

    After the defining recursive pass, a few Gauss-Seidel sweeps re-extract
    each coefficient from the residual with *all* other extracted terms
    removed.  The limits are mathematically identical; the sweeps damp the
    pollution a small error in an early coefficient injects into later
    ratios through the scale's dynamic range.
    """
    require_verified(scale)
    pts = scale.toward_x0(schedule.points)
    n = scale.n
    fvals = [f(x, 0).value for x in pts]
    phis = [[scale.phi_value(i, x) for x in pts] for i in range(1, n + 1)]
    info = _informative_points(pts, fvals, phis[n - 1])
    pts = [pts[j] for j in info]
    fvals = [fvals[j] for j in info]
    phis = [[p[j] for j in info] for p in phis]

    def peeled(skip=None, upto=None):
        res = list(fvals)
        for j in range(len(coeffs) if upto is None else upto):
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
        # Gauss-Seidel sweeps: each coefficient re-extracted with all other
        # terms removed (same limits, far less pollution); the full residual
        # rides along as an empirical remainder shape
        for _ in range(refine_sweeps if coeffs else 0):
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
        statuses.append(status)
        confs.append(max(conf, conf_by_coeff.get(i, 0.0)))
        if status in ("stable", "loose") and math.isfinite(value):
            coeffs[i] = value
        else:
            partial = True
    if stopped is not None:
        statuses.append(stopped)
    return ExpansionResult(
        coefficients=coeffs,
        confidences=confs,
        method="recursive_1_3",
        partial=partial,
        statuses=statuses,
    )


def extract_operator(f, scale, chain, constants, schedule):
    """Coefficients from the independent operator limits, no peeling.

    ``chain`` must be the type-II chain (canonical at x0) and ``constants``
    its detected structural constants; ``a_{k+1}`` is the extrapolated limit
    of the level-k weighted derivative divided by the unit constant.
    """
    if chain.canonicity.get("x0") not in ("type_II", "unknown"):
        raise EvaluationError("extract_operator needs a chain of type II at x0")
    eps = constants.epsilon
    n = scale.n
    coeffs, confs, statuses = [], [], []
    partial = False
    for k in range(n):
        # level k touches prefix Wronskians up to order k+2; deeper probes
        # stay usable for the shallow levels
        pts = scale.toward_x0(
            well_conditioned_probes(
                scale, schedule.points, minimum=6, depth=min(k + 2, n)
            )
        )
        fv = [f(x, 0).value for x in pts]
        pn = [scale.phi_value(n, x) for x in pts]
        info = _informative_points(pts, fv, pn)
        pts = [pts[j] for j in info]
        vals = [apply_chain(chain, f, x, level=k) for x in pts]
        sane = _sane_prefix(vals)
        pts_k = pts[:sane]
        vals = vals[:sane]
        basis = [
            [apply_chain(chain, scale.functions[i - 1], x, level=k) for x in pts_k]
            for i in range(k + 2, n + 1)
        ]
        status, value, conf = _deflated_limit_status(vals, basis)
        statuses.append(status)
        if status == "diverged":
            if k == 0:
                raise LimitDiverged("M_0[f] has no finite limit")
            partial = True
            coeffs.append(math.nan)
            confs.append(math.inf)
            continue
        if status == "unstable":
            partial = True
            coeffs.append(math.nan)
            confs.append(math.inf)
            continue
        coeffs.append(value / eps[k])
        confs.append(conf / abs(eps[k]))
    return ExpansionResult(
        coefficients=coeffs,
        confidences=confs,
        method="operator_limits",
        partial=partial,
        statuses=statuses,
    )


# -- constructed test functions -----------------------------------------------------


class ConstructedFunction:
    """f = sum c_i phi_i + nested integral of a prescribed source density.

    ``mode="tail"`` uses the representation by iterated tails (requires a
    convergent source; the c_i are then the true expansion coefficients);
    ``mode="from_T"`` anchors every level at T and works for any locally
    integrable source.  L[f] equals q_n * source exactly in both modes, and
    jets unwind algebraically through the nest, so evaluations carry no
    cancellation beyond the tabulated level values.
    """

    def __init__(self, artifacts, coefficients, source_jetfn, mode="tail"):
        art = artifacts
        n = art.n
        if len(coefficients) != n:
            raise EvaluationError("need one coefficient per scale function")
        if mode not in ("tail", "from_T"):
            raise EvaluationError("mode must be 'tail' or 'from_T'")
        self.artifacts = art
        self.coefficients = list(coefficients)
        self.source = source_jetfn
        self.mode = mode
        orientation = "to_x0" if mode == "tail" else "from_T"
        weights = [art.q_vals[i] for i in range(1, n)] + [None]
        self._nest = NestedIntegral(
            art.grid, weights, [orientation] * n, NodeFn.of(source_jetfn)
        )
        sign = (-1) ** n if mode == "tail" else 1.0

        def prefactor(x, order):
            return sign / art.chain_q.weight_jet(0, x, order)

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

        self._memo = JetMemo(jet, "constructed")

    def __call__(self, x, order):
        return self._memo(x, order)


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


def _group_consistent(verdicts, labels):
    decisive = {
        verdicts[l]["status"] for l in labels if l in verdicts
        and verdicts[l]["status"] in ("holds", "fails")
    }
    return len(decisive) <= 1


def _report(theorem, verdicts, notes, groups, must_not_fail=()):
    """Consistent unless two decisive verdicts of one equivalence group
    disagree or a label of ``must_not_fail`` fails."""
    consistent = all(_group_consistent(verdicts, g) for g in groups) and all(
        verdicts.get(label, {}).get("status") != "fails" for label in must_not_fail
    )
    return TheoremReport(theorem, verdicts, consistent, notes)


def _operator_image(art, f, source, notes):
    """(x -> L[f](x), whether L[f] vanishes identically)."""
    if source is None and art.lf_is_zero(f):
        notes.append("L[f] below detection threshold: treated as identically zero")
        return (lambda x: 0.0), True
    return art.lf_evaluator(f, source), False


def _limit_ladder(art, f, eq, count, coefficients, verdicts, last=None):
    """The operator limits of M_k[f], k < count, as "<eq> limit k=" verdicts,
    plus "<eq> limits" and a copy of the deepest one as "<last> last limit"
    when ``last`` is given.

    Returns the coefficients with their confidences: the supplied ones
    (exact), else a_{k+1} = lim M_k[f] / eps_k once every limit exists, else
    (None, None)."""
    limits = [art.limit(f, k) for k in range(count)]
    for k, (status, value, conf) in enumerate(limits):
        verdicts[f"{eq} limit k={k}"] = _v(_status(status), value=value, confidence=conf)
    if last is not None:
        verdicts[f"{eq} limits"] = _v(_weakest(_status(s) for s, _, _ in limits))
        verdicts[f"{last} last limit"] = verdicts[f"{eq} limit k={count - 1}"].copy()
    if coefficients is not None:
        return list(coefficients), [0.0] * len(coefficients)
    if all(_status(s) == "holds" for s, _, _ in limits):
        eps = art.constants.epsilon
        return (
            [v / eps[k] for k, (_, v, _) in enumerate(limits)],
            [c / abs(eps[k]) for k, (_, _, c) in enumerate(limits)],
        )
    return None, None


def _without_coefficients(limits):
    """An expansion set whose coefficients do not exist: it fails exactly
    when one of the defining limits diverges."""
    if limits["status"] == "fails":
        return _v("fails", reason="a defining limit diverges")
    return _v("inconclusive")


def _zero_limit_status(residuals, comparisons, floors):
    """Is residual = o(comparison)?  Ratio rule with an absolute noise floor."""
    ratios, below = [], []
    for r, c, fl in zip(residuals, comparisons, floors):
        below.append(abs(r) <= fl)
        if c != 0.0:
            ratios.append(abs(r / c))
    if len(below) >= 3 and all(below[-3:]):
        return "holds", {"floor": True}
    ok, diag = ratio_decreases_to_zero(ratios)
    if ok:
        return "holds", diag
    res = classify_sequence(ratios, tol=1e-4)
    if res["kind"].startswith("diverged"):
        return "fails", diag
    if res["kind"] == "converged" and abs(res["value"]) > 1e-2:
        return "fails", diag
    return "inconclusive", diag


def _residual_values(f, coeffs, art, k, chain="M", upto=None, remainder=None,
                     coeff_confs=None):
    """R_k(x) over the probes; uses the exact remainder evaluator if given.

    The floor below which a residual counts as numerically zero combines the
    rounding floor with the uncertainty each coefficient carries into the
    subtraction."""
    n = art.n
    upto = n if upto is None else upto
    apply_k = art.M if chain == "M" else art.L
    phi_k = art.M_phi if chain == "M" else art.L_phi
    # M_k kills the first k scale members, L_k the last k: the expansion of
    # the level-k image starts at i = k+1 on the type-II side but at i = 1
    # on the type-I side
    start = k + 1 if chain == "M" else 1
    rows, floors = [], []
    for x in art.probes:
        terms = []
        uncertainty = 0.0
        for i in range(start, upto + 1):
            img = phi_k(k, i, x)
            terms.append(coeffs[i - 1] * img)
            if coeff_confs is not None and i - 1 < len(coeff_confs):
                c = coeff_confs[i - 1]
                if math.isfinite(c):
                    uncertainty += c * abs(img)
        if remainder is not None:
            val = apply_k(k, remainder, x)
        else:
            val = apply_k(k, f, x)
            for t in terms:
                val -= t
        scale_mag = abs(apply_k(k, f, x)) + sum(abs(t) for t in terms)
        rows.append(val)
        floors.append(1e-11 * (scale_mag + 1e-300) + 3.0 * uncertainty)
    return rows, floors


def _residual_set(f, coeffs, confs, art, remainder, chain, levels):
    """The expansion-set rule of (4.22), (4.23), (4.31), (5.5)-(5.6) and
    (5.20)-(5.21): for each ``(k, upto, i)`` of ``levels`` the level-k
    residual of the expansion up to phi_upto is o(image of phi_i), or o(1)
    when i is None.  Returns the weakest status and the status per entry."""
    image = art.M_phi if chain == "M" else art.L_phi
    per = {}
    for j, (k, upto, i) in enumerate(levels):
        rows, floors = _residual_values(f, coeffs, art, k, chain, upto=upto,
                                        remainder=remainder, coeff_confs=confs)
        cmps = [1.0] * len(rows) if i is None else [image(k, i, x) for x in art.probes]
        per[j], _ = _zero_limit_status(rows, cmps, floors)
    return _weakest(per.values()), per


def _outer_partials(art, nest):
    """Outer-level values on the classification points, cropped to the
    nest's reliable range (cells whose embedded quadrature error rivals
    their value, e.g. oscillatory integrands on wide far cells, are
    excluded)."""
    sigma = art.grid.sigma
    pts = [x for x in art.class_points if sigma * x <= sigma * nest.reliable_x]
    if len(pts) < 6:
        pts = art.class_points[:6]
    return [nest.value(x, 0) for x in pts]


def _integral_verdict(art, f, key, weights, orientations, density):
    """Does the outer integral of f's nest ``key`` converge toward x0?

    A DivergentTail fails the verdict when it is decisive and leaves it
    inconclusive otherwise; else the partials decide.  Returns the verdict
    and the integral (nan unless it converged)."""
    try:
        nest = art.nest(weights, orientations, density, key=key, target=f)
    except DivergentTail as exc:
        decisive = getattr(exc, "decisive", True)
        return _v("fails" if decisive else "inconclusive", reason=str(exc)), math.nan
    res = classify_sequence(_outer_partials(art, nest), tol=1e-6)
    value = res["value"] if res["kind"] == "converged" else math.nan
    return _v(_status(res["kind"]), kind=res["kind"]), value


def _partial_levels(art, i):
    """Weights and orientations of the order-i partial iterated integral of
    (5.24), (5.33) and (6.18): from T over q_i..q_n."""
    n = art.n
    return [art.q_vals[j] for j in range(i, n + 1)], ["from_T"] * (n - i + 1)


def _type1_levels(art, i):
    """Weights and orientations of the order-i type-I nest of (4.24), and at
    i = n of (4.32) and (6.11): from T outermost, toward x0 within."""
    n = art.n
    weights = [art.p_vals[j] for j in range(n - i + 1, n)] + [None]
    return weights, ["from_T"] + ["to_x0"] * (i - 1)


def _bounded_verdict(seq):
    """(5.32)/(5.33): does the sequence stay O(1) toward x0?"""
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
    """(5.36)/(6.2): is the remainder over the comparison function O(1)?"""
    bounded, diag = is_bounded_tail(rows)
    return _v(
        "holds" if bounded else ("inconclusive" if bounded is None else "fails"),
        **diag,
    )


def _nonneg(lf, art):
    vals = [lf(x) for x in art.probes]
    mag = max(abs(v) for v in vals) + 1e-300
    return all(v >= -1e-9 * mag for v in vals)


# -- check_complete -------------------------------------------------------------------


def check_complete(f, artifacts, source=None, remainder=None, coefficients=None):
    """Cross-check the complete-expansion equivalences plus remainder facts.

    ``source`` (the density L[f]/q_n), ``remainder`` (a jet-evaluator of the
    remainder) and ``coefficients`` may be supplied for constructed inputs;
    everything is recomputed from f alone otherwise.
    """
    art = artifacts
    n = art.n
    verdicts = {}
    notes = []
    lf, lf_zero = _operator_image(art, f, source, notes)

    # (5.7)/(5.8): operator limits, and the coefficients (supplied ones first)
    coeffs, confs = _limit_ladder(art, f, "(5.7)", n, coefficients, verdicts, last="(5.8)")

    # (5.9): convergence of the source integral
    if lf_zero:
        verdicts["(5.9) integral"] = _v("holds", value=0.0, zero=True)
    else:
        verdict, value = _integral_verdict(art, f, "(5.9)", [None], ["from_T"],
                                           _guarded_ratio(lf, art.q_vals[n]))
        verdicts["(5.9) integral"] = dict(verdict, value=value)

    # (5.5)-(5.6): the expansion set
    if lf_zero and coeffs is not None:
        # identically-zero operator image: f lies in the kernel span, the
        # expansion is exact and every formally differentiated set is too
        verdicts["(5.5)-(5.6) set"] = _v("holds", zero=True)
    elif coeffs is not None:
        status, per = _residual_set(f, coeffs, confs, art, remainder, "M",
                                    [(k, n, n) for k in range(n)])
        verdicts["(5.5)-(5.6) set"] = _v(status, per_k=per)
    else:
        verdicts["(5.5)-(5.6) set"] = _without_coefficients(verdicts["(5.7) limits"])

    # remainder identity (5.14)-(5.15) and bounds, only in the convergent case
    int_converges = verdicts["(5.9) integral"]["status"] == "holds"
    if int_converges and coeffs is not None and not lf_zero:
        try:
            nest = art.nest([art.q_vals[i] for i in range(1, n + 1)], ["to_x0"] * n, lf,
                            key="(5.14)", target=f)
        except DivergentTail:
            verdicts["(5.14)-(5.15) identity"] = _v(
                "inconclusive", reason="tail tables did not stabilize"
            )
        else:
            _remainder_identity(f, coeffs, art, nest, remainder, verdicts, confs)
            _remainder_bounds(f, coeffs, art, nest, lf, remainder, verdicts, confs)
    elif lf_zero and coeffs is not None:
        rows, floors = _residual_values(f, coeffs, art, 0, "M", remainder=remainder,
                                        coeff_confs=confs)
        ok = all(abs(r) <= fl * 100 for r, fl in zip(rows, floors))
        verdicts["(5.14)-(5.15) identity"] = _v("holds" if ok else "fails", zero=True)

    # type-I side: (4.31) ladder and (4.32)
    if lf_zero and coeffs is not None:
        verdicts["(4.31) set"] = _v("holds" if _term_loss(art, n) else "fails", zero=True)
    elif coeffs is not None:
        status, per = _residual_set(f, coeffs, confs, art, remainder, "L",
                                    [(k, n - k, None) for k in range(n)])
        # term-loss rule: the lost term is annihilated identically
        loss_ok = _term_loss(art, n)
        if not loss_ok and status == "holds":
            status = "fails"
        verdicts["(4.31) set"] = _v(status, per_k=per, term_loss=loss_ok)
    elif verdicts["(5.7) limits"]["status"] == "fails":
        verdicts["(4.31) set"] = _v("inconclusive", reason="no coefficients")
    else:
        verdicts["(4.31) set"] = _v("inconclusive")
    if lf_zero:
        verdicts["(4.32) integral"] = _v("holds", zero=True)
    else:
        verdicts["(4.32) integral"], _ = _integral_verdict(
            art, f, ("type-I", n), *_type1_levels(art, n), _guarded_ratio(lf, art.p_vals[n])
        )

    # generalized convexity branch (needs the all-positive Wronskian case)
    convex = _convexity(f, coeffs, art, lf, lf_zero, remainder, verdicts, notes, confs)

    groups = [
        ["(5.5)-(5.6) set", "(5.7) limits", "(5.8) last limit", "(5.9) integral"],
        ["(4.31) set", "(4.32) integral"],
    ]
    if convex:
        groups = [groups[0] + groups[1] + ["(6.2) O-form"]]
    return _report(
        "complete (type-I and type-II formal differentiation)", verdicts, notes, groups,
        ("(5.14)-(5.15) identity", "(5.16) bound", "(5.17) bound", "(6.9) sign",
         "(6.10) monotonicity"),
    )


def _remainder_identity(f, coeffs, art, nest, remainder, verdicts, coeff_confs=None):
    n = art.n
    ok_probes = 0
    bad = 0
    details = []
    for k in range(n):
        rows, floors = _residual_values(f, coeffs, art, k, "M", remainder=remainder,
                                        coeff_confs=coeff_confs)
        for x, direct, fl in zip(art.probes, rows, floors):
            rep = (-1) ** (n + k) * nest.value(x, k)
            scale_mag = abs(direct) + abs(rep)
            if scale_mag < max(10 * fl, 1e-12):
                continue  # below numerical resolution at this probe
            rel = abs(direct - rep) / scale_mag
            details.append((k, x, rel))
            if rel < 1e-5:
                ok_probes += 1
            else:
                bad += 1
    if ok_probes + bad < 3:
        verdicts["(5.14)-(5.15) identity"] = _v("inconclusive", checked=ok_probes + bad)
    else:
        verdicts["(5.14)-(5.15) identity"] = _v(
            "holds" if bad == 0 else "fails",
            checked=ok_probes + bad,
            failures=bad,
            worst=max((r for _, _, r in details), default=0.0),
        )


def _remainder_bounds(f, coeffs, art, nest, lf, remainder, verdicts, coeff_confs=None):
    n = art.n
    # (5.16): |R_0| <= |phi_n| * sup over later probes of |innermost tail|
    tails = [nest.value(x, n - 1) for x in art.probes]
    rows, floors = _residual_values(f, coeffs, art, 0, "M", remainder=remainder,
                                    coeff_confs=coeff_confs)
    q0 = art.q_vals[0]
    ok16 = True
    for j, x in enumerate(art.probes):
        r0 = rows[j] / q0(x)  # undo the level-0 weight: M_0 = q_0 f
        sup_tail = max(abs(t) for t in tails[j:])
        bound = abs(art.scale.phi_value(n, x)) * sup_tail + 10 * floors[j] / q0(x)
        if abs(r0) > bound * (1 + 1e-9) + 1e-300:
            ok16 = False
    verdicts["(5.16) bound"] = _v("holds" if ok16 else "fails")
    # (5.17): absolute-convergence bound with the quadrature error folded in
    try:
        abs_nest = art.nest(
            [art.q_vals[n]], ["to_x0"], _abs(lf), key="(5.17)", target=f
        )
    except DivergentTail:
        verdicts["(5.17) bound"] = _v("inconclusive", reason="not absolutely convergent")
        return
    ok17 = True
    for j, x in enumerate(art.probes):
        r0 = rows[j] / q0(x)
        bound = (
            abs(art.scale.phi_value(n, x)) * (abs(abs_nest.value(x)) + abs_nest.value_error)
            + 10 * floors[j] / q0(x)
        )
        if abs(r0) > bound + 1e-300:
            ok17 = False
    verdicts["(5.17) bound"] = _v("holds" if ok17 else "fails")


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


def _convexity(f, coeffs, art, lf, lf_zero, remainder, verdicts, notes,
               coeff_confs=None):
    """Generalized-convexity branch: needs L[f] >= 0 along the schedule and
    the all-positive leading-Wronskian case, which fixes the sign pattern."""
    n = art.n
    if not art.constants.positivity_case:
        return False
    if not (lf_zero or _nonneg(lf, art)):
        return False
    notes.append("L[f] >= 0 on the schedule: generalized-convexity checks apply")
    if coeffs is None:
        return True
    # (6.2): O-form with n-1 terms
    rows = []
    for x in art.probes:
        acc = f(x, 0).value
        for i in range(1, n):
            acc -= coeffs[i - 1] * art.scale.phi_value(i, x)
        rows.append(acc / art.scale.phi_value(n, x))
    verdicts["(6.2) O-form"] = _o_form_verdict(rows)
    # (6.9)/(6.10): remainder sign and monotone products; the products are
    # taken with the positive chain weights ((-1)^n R_0 p_0 and
    # (-1)^n R_0 q_0), which is the sign-convention-free form
    rows0, floors0 = _residual_values(f, coeffs, art, 0, "M", remainder=remainder,
                                      coeff_confs=coeff_confs)
    q0 = art.q_vals[0]
    r0 = [r / q0(x) for r, x in zip(rows0, art.probes)]
    slack = [10 * fl / q0(x) for fl, x in zip(floors0, art.probes)]
    sign_ok = all((-1) ** n * r >= -s for r, s in zip(r0, slack))
    verdicts["(6.9) sign"] = _v("holds" if sign_ok else "fails")
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
    verdicts["(6.10) monotonicity"] = _v("holds" if mono_ok else "fails")
    return True


# -- check_incomplete ------------------------------------------------------------------


def check_incomplete(f, i, artifacts, source=None, remainder=None, coefficients=None):
    """Cross-check the order-i incomplete-expansion equivalences (1 <= i <= n-1)."""
    art = artifacts
    n = art.n
    if not 1 <= i <= n - 1:
        raise EvaluationError(f"i must lie in [1, {n - 1}]")
    verdicts = {}
    notes = []
    lf, lf_zero = _operator_image(art, f, source, notes)

    # (5.22)/(5.23) limits up to order i-1
    coeffs, confs = _limit_ladder(art, f, "(5.22)", i, coefficients, verdicts, last="(5.23)")
    if coeffs is not None and len(coeffs) < n:
        coeffs = coeffs + [0.0] * (n - len(coeffs))
        confs = confs + [0.0] * (n - len(confs))

    # (5.20)-(5.21) expansion set up to phi_i
    if coeffs is not None:
        status, per = _residual_set(f, coeffs, confs, art, remainder, "M",
                                    [(k, i, i) for k in range(i)])
        verdicts["(5.20)-(5.21) set"] = _v(status, per_k=per)
    else:
        verdicts["(5.20)-(5.21) set"] = _without_coefficients(verdicts["(5.22) limits"])

    # (5.24): outer improper integral of the mixed from-T nest
    if lf_zero:
        verdicts["(5.24) integral"] = _v("holds", zero=True)
    else:
        verdicts["(5.24) integral"], _ = _integral_verdict(
            art, f, ("partial", i), *_partial_levels(art, i), lf
        )

    # type-I side: (4.23) set, (4.22) first group, (4.24) integral
    if coeffs is not None:
        st23, per_h = _residual_set(f, coeffs, confs, art, remainder, "L",
                                    [(n - i + h, i - h, None) for h in range(i)])
        verdicts["(4.23) set"] = _v(st23, per_h=per_h)
        st22, per_k = _residual_set(f, coeffs, confs, art, remainder, "L",
                                    [(k, i, i) for k in range(n - i + 1)])
        if st22 == "holds" and st23 != "holds":
            st22 = st23
        verdicts["(4.22) set"] = _v(st22, per_k=per_k, term_loss=_term_loss(art, i))
    else:
        verdicts["(4.23) set"] = _v("inconclusive")
        verdicts["(4.22) set"] = _v("inconclusive")
    if lf_zero:
        verdicts["(4.24) integral"] = _v("holds", zero=True)
    else:
        verdicts["(4.24) integral"], _ = _integral_verdict(
            art, f, ("type-I", i), *_type1_levels(art, i), _guarded_ratio(lf, art.p_vals[n])
        )

    # (6.18) O-estimates in the convex case
    convex = lf_zero or _nonneg(lf, art)
    if convex and not lf_zero:
        notes.append("L[f] >= 0 on the schedule: (6.18) O-estimates checked")
        ok18 = True
        for k in range(i, n):
            nest = art.nest(*_partial_levels(art, k + 1), lf, key=("partial", k + 1),
                            target=f)
            ratios = []
            for x in art.probes:
                ref = max(1.0, abs(nest.value(x, 0)))
                ratios.append(art.M(k, f, x) / ref)
            bounded, _ = is_bounded_tail(ratios)
            if bounded is False:
                ok18 = False
        verdicts["(6.18) O-estimates"] = _v("holds" if ok18 else "fails")

    groups = [
        ["(5.20)-(5.21) set", "(5.22) limits", "(5.23) last limit", "(5.24) integral"],
        ["(4.22) set", "(4.23) set", "(4.24) integral"],
    ]
    if convex:
        groups = [groups[0] + groups[1]]
    return _report(f"incomplete expansion, i={i}", verdicts, notes, groups,
                   ("(6.18) O-estimates",))


# -- check_O ---------------------------------------------------------------------------


def check_O(f, i, artifacts, source=None, coefficients=None):
    """Boundedness equivalences: M_{i-1}[f] = O(1) iff the order-i partial
    iterated integral stays bounded (2 <= i <= n; i = 1 compares f to phi_1)."""
    art = artifacts
    n = art.n
    if not 1 <= i <= n:
        raise EvaluationError(f"i must lie in [1, {n}]")
    verdicts = {}
    notes = []
    lf, lf_zero = _operator_image(art, f, source, notes)

    if i == 1:
        rows = [f(x, 0).value / art.scale.phi_value(1, x) for x in art.probes]
        verdicts["(5.36) O-form"] = _o_form_verdict(rows)
    else:
        # (5.31): limits below the boundary order, then boundedness at i-1
        coeffs, _ = _limit_ladder(art, f, "(5.31)", i - 1, coefficients, verdicts)
        verdicts["(5.29) coefficients"] = _v(
            "holds" if coeffs is not None else "inconclusive", values=coeffs
        )
    seq, noise = _level_sequence(art, f, i - 1)
    noisy = [j for j, (v, nz) in enumerate(zip(seq, noise)) if nz > 1e-3 * abs(v)]
    if noisy:
        # a kept value inside its own rounding noise decides nothing
        verdicts["(5.32) bounded"] = _v("inconclusive", within_noise=noisy)
    else:
        verdicts["(5.32) bounded"] = _bounded_verdict(seq)

    if lf_zero:
        verdicts["(5.33) partial bounded"] = _v("holds", zero=True)
    else:
        nest = art.nest(*_partial_levels(art, i), lf, key=("partial", i), target=f)
        verdicts["(5.33) partial bounded"] = _bounded_verdict(_outer_partials(art, nest))

    label32 = "(5.36) O-form" if i == 1 else "(5.32) bounded"
    return _report(f"O-estimates, i={i}", verdicts, notes,
                   [[label32, "(5.33) partial bounded"]])


# -- check_absolute ---------------------------------------------------------------------


def check_absolute(f, artifacts, source=None):
    """Equivalence of the three absolute-convergence integral conditions."""
    art = artifacts
    n = art.n
    labels = ["(6.11) type-I nest", "(6.12) P-weighted", "(6.13) direct"]
    verdicts = {}
    notes = []
    lf, lf_zero = _operator_image(art, f, source, notes)
    if lf_zero:
        for label in labels:
            verdicts[label] = _v("holds", zero=True)
        return _report("absolute convergence", verdicts, notes, [labels])
    abs_lf = _abs(lf)
    pn = art.p_vals[n]

    verdicts["(6.11) type-I nest"], _ = _integral_verdict(
        art, f, "(6.11)", *_type1_levels(art, n), _guarded_ratio(abs_lf, pn)
    )

    # (6.12): P(t) built by nested from-T integration of the type-I chain
    pnest = art.p_weight()

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
        out[live] = art.p_weight_nodes()[live] / node_values(pn, ts)[live] * v[live]
        return out

    verdicts["(6.12) P-weighted"], _ = _integral_verdict(
        art, f, "(6.12)", [None], ["from_T"], NodeFn(p_weighted_density, p_weighted_nodes)
    )
    verdicts["(6.13) direct"], _ = _integral_verdict(
        art, f, "(6.13)", [None], ["from_T"], _guarded_ratio(abs_lf, art.q_vals[n])
    )
    return _report("absolute convergence", verdicts, notes, [labels])
