"""Canonical factorization chains of the operator attached to a scale.

Given a verified scale, this module builds

* the type-II weight chain (forward prefix Wronskian ratios),
* the type-I weight chain (reversed prefix Wronskian ratios),
* the principal fundamental system by nested integration of the type-I
  chain,

runs the divide-and-differentiate construction and applies the full
operator as a Wronskian quotient.  A chain's canonicity is classified per
endpoint, each on its first read, not when the chain is built.

A chain pass (:func:`chain_levels`) runs at a point or, in its array form,
on a node array: the same jet recurrences on array coefficients, each
node's levels and noises the scalar pass's bit for bit, or flagged (NaN)
where the scalar pass raises.  :meth:`WeightChain.images_on` runs one such
pass per target over a point set and keeps each node's levels as the
per-point images; flagged nodes are left to the scalar pass.

Weights are stored unsigned (positive) together with a sign word, read off
the signed weights' values at the probes (:func:`_chain_from_signed`: one
node array per Polya weight, through ``quadrature.tabulate``); the sign
pattern has product +1, so composing the unsigned chain to full depth
reproduces the operator exactly.  Chains are unique only up to per-weight
constants with product 1, hence all comparisons are ratio-constancy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from weakref import WeakKeyDictionary

import numpy as np

from .errors import EvaluationError, PivotVanishes, ToleranceNotMet, WronskianDegenerate
from .jet import JetMemo, antiderivative, derivative, jet_constant, truncate
from .quadrature import (_SCALAR_ERRORS, UNIT, NestedIntegral, NodeFn, WorkGrid,
                         classify_toward, node_values, tabulate)
from .scale import finite_prefix, make_schedule, require_verified
from .wronskian import (_bordered_matrix, det_pivoted, wronskian, wronskian_flags, wronskian_jet,
                        wronskian_table)


# -- jet-evaluator helpers --------------------------------------------------------


class _PrefixWronskians:
    """Prefix Wronskian jets W(phi_1..phi_i) (or reversed prefixes), one
    memo per prefix; a node array gets the values of the order-0 minor
    expansion at every node."""

    def __init__(self, scale, reverse=False):
        self.scale = scale
        self.reverse = reverse
        self._memos = [
            JetMemo(lambda x, order, ix=ix: wronskian_jet(scale, ix, x, order), f"W{ix}",
                    arrays=True)
            for ix in map(self.indices, range(1, scale.n + 1))
        ]

    def indices(self, i):
        n = self.scale.n
        if self.reverse:
            return tuple(range(n, n - i, -1))
        return tuple(range(1, i + 1))

    def jet(self, i, x, order):
        if i == 0:
            return jet_constant(1.0, x, order)
        return self._memos[i - 1](x, order)

    def check(self, i, x, scan):
        """Raise WronskianDegenerate when the prefix Wronskian vanishes at x
        (``scan``: the build's shared evaluations, see ``wronskian``)."""
        ev = wronskian(self.scale, self.indices(i), x, scan)
        if ev.vanishes:
            raise WronskianDegenerate(f"W{self.indices(i)} ~ 0 at x={x} (value {ev.value})")


@dataclass
class WeightChain:
    """Factorization weights r_0..r_n, unsigned, with a separate sign word.

    The verdict at each endpoint is classified on its first read
    (:meth:`canonicity_at`), so an error raised while classifying surfaces
    at that read, not where the chain is built, and an endpoint that
    nothing reads is never classified.  ``canonicity`` holds both
    endpoints' verdicts (:func:`classify_canonicity`).  :meth:`image`
    reads and keeps the chain's images, M_k[f] (type II) or L_k[f] (type I),
    and :meth:`images_on` fills them over a point set's node array in one
    pass per target; ``limits`` keeps the
    operator limits of the type-II chain's images and the target's cuts
    they are read on (``expansion._operator_limit``).  Both memos hold
    floats only, one entry per live target, gone with the target.
    """

    weights: list  # jet-evaluators for |r_i|
    signs: list  # sign(r_i), read off near x0
    interval: tuple
    n: int
    provenance: str
    probes: tuple = ()  # the well-conditioned probes the signs were read at
    # target -> {x: (values, noises) of levels 0..k, or None where the
    # array pass of images_on flagged x}
    _images: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, repr=False)
    # target -> {(scale, k, cut points): (status, value, confidence),
    #            (scale, points): the target's cut of the points}
    limits: WeakKeyDictionary = field(default_factory=WeakKeyDictionary, init=False, repr=False)
    # endpoint -> its canonicity verdict
    _verdicts: dict = field(default_factory=dict, init=False, repr=False)
    # points (a tuple) -> their float64 node array; a bundle's two chains
    # share one table, so each target is evaluated once per point set
    nodes: dict = field(default_factory=dict, init=False, repr=False)
    # the point sets whose nodes this chain's weight memos were seeded at
    _seeded: set = field(default_factory=set, init=False, repr=False)

    @cached_property
    def canonicity(self):
        return classify_canonicity(self)

    def canonicity_at(self, endpoint):
        """The canonicity verdict at ``endpoint`` ("x0" or "T"), classified
        on its first read (see :func:`classify_canonicity`)."""
        verdict = self._verdicts.get(endpoint)
        if verdict is None:
            verdict = self._verdicts[endpoint] = _classify_endpoint(self, endpoint)
        return verdict

    def image(self, f, k, x):
        """``(value, noise)`` of :func:`apply_chain` at level k and point x.

        f's entry keeps, per point, every level of one pass
        (:func:`chain_levels`) run to level n - 1 (the last weighted
        derivative), or to k if that is deeper, so every later read of a
        level up to n - 1 is served from it, in any order.  A pass to n - 1
        that raises is retried at level k, so a target whose higher-order
        jets raise gets level k's own value or error.  A call that raises
        keeps nothing.  The levels :meth:`images_on` kept are these, bit for
        bit, and a point it flagged is read as one never read."""
        memo = self._images.get(f)
        levels = None if memo is None else memo.get(x)
        if levels is None or len(levels[0]) <= k:
            depth = max(k, self.n - 1)
            try:
                levels = chain_levels(self, f, x, depth)
            except _SCALAR_ERRORS:  # a deeper order raised: run level k alone
                if depth == k:
                    raise
                levels = chain_levels(self, f, x, k)
            if memo is None:
                self._images[f] = {x: levels}
            else:
                memo[x] = levels
        return levels[0][k], levels[1][k]

    def images_on(self, fs, points):
        """Keep, at every one of ``points``, the levels that :meth:`image`'s
        pass to level n - 1 gives for each target of ``fs`` with an array
        form (a ``keep_nodes`` method: a :class:`~chebscale.jet.JetMemo`,
        as expressions and constructed functions are), run as one pass per
        target (:func:`chain_levels`)
        on the point set's node array.  That array is built on the first
        call for the points and kept in ``nodes``, so the jet memos, which
        keep node arrays by identity, evaluate each weight and each target
        once on it.

        The weights are read on that array at the order the pass reads them
        (r_n, which it does not read, at order 0): their memos keep those
        jets (:class:`~chebscale.jet.JetMemo`), so they are evaluated once
        per point set, and on the chain's first pass there their per-point
        memos are seeded from them
        (:meth:`~chebscale.jet.JetMemo.keep_nodes`).  Each target is
        evaluated once at order n - 1 and seeded likewise, so a later
        scalar read at a node finds what a pass point by point leaves.  A
        node where a target's pass is flagged is recorded without levels:
        its first :meth:`image` read runs the scalar pass there, in the
        order the reads come, so values and errors are those of a
        point-by-point loop.  A target whose every point is recorded
        already is skipped, and nothing raises here: a target without an
        array form, or whose pass on the array raises anything (a part
        that takes floats only raises TypeError there), is left to the
        scalar pass, which raises what a point-by-point loop raises."""
        points = tuple(map(float, points))
        todo = []
        for f in fs:
            keep = getattr(f, "keep_nodes", None)
            if keep is None:
                continue
            memo = self._images.get(f)
            if memo is None:
                memo = self._images[f] = {}
            if any(x not in memo for x in points):
                todo.append((f, keep, memo))
        if not todo:
            return
        xs = self.nodes.get(points)
        if xs is None:
            xs = self.nodes[points] = np.array(points, dtype=float)
        depth = self.n - 1
        with np.errstate(all="ignore"):
            try:
                jets = [w(xs, max(depth - i, 0)) for i, w in enumerate(self.weights)]
            except _SCALAR_ERRORS:
                return
            if points not in self._seeded:
                self._seeded.add(points)
                for w, j in zip(self.weights, jets):
                    w.keep_nodes(points, j)
            for f, keep, memo in todo:
                try:
                    values, noises = chain_levels(self, f, xs, depth)
                except Exception:  # e.g. TypeError from a part that takes floats only
                    continue
                keep(points, f(xs, depth))
                values, noises = np.array(values), np.array(noises)
                flagged = (np.isnan(values).any(axis=0) | np.isnan(noises).any(axis=0)).tolist()
                rows = zip(points, flagged, values.T.tolist(), noises.T.tolist())
                for x, bad, vals, noise in rows:
                    if x not in memo:
                        memo[x] = None if bad else (tuple(vals), tuple(noise))

    def report(self, schedule):
        """Weights sampled on the schedule's finite prefix plus canonicity,
        JSON-friendly."""
        pts = finite_prefix(schedule.points, [w.value for w in self.weights])
        samples = {f"r{i}": [(x, w.value(x)) for x in pts] for i, w in enumerate(self.weights)}
        return {
            "provenance": self.provenance,
            "n": self.n,
            "interval": list(self.interval),
            "signs": list(self.signs),
            "canonicity": dict(self.canonicity),
            "samples": samples,
        }


def _signed_sign(value, where):
    if not math.isfinite(value) or value == 0.0:
        raise WronskianDegenerate(f"cannot orient weight at x={where}: value {value}")
    return 1 if value > 0 else -1


def _chain_from_signed(signed_fns, scale, provenance, probes, arrays=False):
    """Detect signs at the latest finite probe and memoize unsigned evaluators.

    Each signed weight's order-0 values at the probes ordered toward x0 are
    read through ``quadrature.tabulate`` (on their node array when
    ``arrays``), up to the first probe where an earlier weight is not
    finite: the probes end where ``finite_prefix`` ends them, and an error
    it does not catch, raised there, propagates.  Signs are read near x0
    (they are constant wherever the defining Wronskians keep their sign),
    at the last probe where every weight is finite.  A weight whose sign
    differs at an earlier probe marks a Wronskian zero inside the interval,
    where the chain is no factorization: the first such flip raises
    WronskianDegenerate, naming the weight and both points.  The unsigned
    memos start empty.
    """
    xs = np.array(scale.toward_x0(probes), dtype=float)
    rows, stop = [], None  # stop: an error finite_prefix lets through, where the probes end
    for fn in signed_fns:
        raised = {}
        on_nodes = (lambda nodes, fn=fn: fn(nodes, 0).value) if arrays else None
        vals = tabulate(NodeFn(lambda x, fn=fn: fn(x, 0).value, on_nodes), xs,
                        raised=raised)
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            exc = raised.get(int(bad[0]))
            stop = None if isinstance(exc, (ArithmeticError, EvaluationError)) else exc
            xs = xs[:bad[0]]
        rows.append(vals)
    if stop is not None:
        raise stop
    ordered = xs.tolist()
    if not ordered:
        raise WronskianDegenerate(f"no probe keeps the {provenance} weights finite")
    rows = [row[:len(ordered)].tolist() for row in rows]
    x_ref = ordered[-1]
    signs = [_signed_sign(row[-1], x_ref) for row in rows]
    for j, x in enumerate(ordered):
        for k, (row, s) in enumerate(zip(rows, signs)):
            if _signed_sign(row[j], x) != s:
                raise WronskianDegenerate(f"{provenance} weight r{k} changes sign "
                                          f"between x={x} and x={x_ref}")
    unsigned = [JetMemo(fn if s > 0 else lambda x, m, f=fn: -f(x, m), f"{provenance}:r{k}", arrays)
                for k, (fn, s) in enumerate(zip(signed_fns, signs))]
    return WeightChain(weights=unsigned, signs=signs, interval=(scale.T, scale.x0),
                       n=scale.n, provenance=provenance, probes=tuple(probes))


def well_conditioned_probes(scale, points, minimum=4, scan=None):
    """Probes where the full Wronskian W(phi_1..phi_n) is numerically
    trustworthy: the bundle's probes and the factorization probes.

    The conditioning diagnostic (largest over smallest row scale) bounds the
    relative noise of the determinant; beyond 1e12 the value is unusable and
    the probe is skipped.  Operator-limit sequences are not cut
    here: they have their own cut (``expansion._level_sequence``).

    The scan is shared within a build: a bundle passes its ``scan``, one
    :func:`~chebscale.wronskian.wronskian_table` of the prefix Wronskians
    built on the schedule's node array, here, to both chain builds and to
    ``operator_constants``, so the chains' prefix checks and the positivity
    test read the same evaluations, and only the nodes the table flagged
    are evaluated point by point, each once in the build.  Without a scan
    every point is evaluated alone.  Nothing is kept after the build.
    """
    idx = tuple(range(1, scale.n + 1))
    kept = []
    for x in points:
        try:
            ev = wronskian(scale, idx, x, scan)
        except (ArithmeticError, EvaluationError):
            continue
        if math.isfinite(ev.conditioning) and ev.conditioning < 1e12:
            kept.append(x)
    if len(kept) < minimum:
        raise WronskianDegenerate(f"only {len(kept)} probes are well conditioned (need {minimum})")
    return kept


def _polya_chain(scale, prefixes, provenance, schedule, scan):
    """Shared Polya construction over a prefix-Wronskian family.

    Signed weights: r_0 = 1/W_1, r_i = W_i^2/(W_{i-1} W_{i+1}) for
    1 <= i <= n-1, r_n = W_n/W_{n-1}; the product telescopes to 1.

    The probe scan and the prefix checks read ``scan``; without one the
    chain builds its own :func:`~chebscale.wronskian.wronskian_table` of
    the family's prefixes and W(phi_1..phi_n) on the schedule's node
    array, and only the nodes it flags are evaluated point by point.
    """
    n = scale.n
    if scan is None:
        full = tuple(range(1, n + 1))
        scan = wronskian_table(scale, [full, *map(prefixes.indices, range(1, n + 1))],
                               schedule.points)
    probes = well_conditioned_probes(scale, schedule.points, scan=scan)
    for x in probes:
        for i in range(1, n + 1):
            prefixes.check(i, x, scan)

    def r0(x, order):
        return 1.0 / prefixes.jet(1, x, order)

    def mid(i):
        def fn(x, order):
            wi = prefixes.jet(i, x, order)
            return wi * wi / (prefixes.jet(i - 1, x, order) * prefixes.jet(i + 1, x, order))
        return fn

    def rn(x, order):
        return prefixes.jet(n, x, order) / prefixes.jet(n - 1, x, order)

    fns = [r0] + [mid(i) for i in range(1, n)] + [rn]
    return _chain_from_signed(fns, scale, provenance, probes, arrays=True)


def build_type2_chain(scale, schedule, scan=None):
    """Polya chain from forward prefixes; canonical of type II at x0 (its
    ``canonicity`` is classified on first read).  ``scan``: the build's
    shared Wronskian evaluations (:func:`well_conditioned_probes`)."""
    require_verified(scale)
    return _polya_chain(scale, _PrefixWronskians(scale), "polya_q", schedule, scan)


def build_type1_chain(scale, schedule, scan=None):
    """Polya chain from reversed prefixes; "the" type-I chain at x0 (its
    ``canonicity`` is classified on first read).  ``scan`` as for
    :func:`build_type2_chain`."""
    require_verified(scale)
    return _polya_chain(scale, _PrefixWronskians(scale, reverse=True), "polya_p", schedule,
                        scan)


# -- canonicity classification ---------------------------------------------------


def _endpoint_schedule(interval, endpoint):
    T, x0 = interval
    if endpoint == "x0":
        return make_schedule(T, x0, 16, 1.7 if math.isinf(x0) else 0.5)
    # toward T: anchor strictly inside, probes approach T geometrically
    anchor = T + 0.5 * (x0 - T) if math.isfinite(x0) else T + 1.0
    return make_schedule(anchor, T, 16, 0.5)


def _endpoint_kinds(integrands, pts):
    """Kinds of the integrals of ``integrands`` from ``pts[0]`` along the
    other points.  Under 7 points, and where the quadrature runs out of
    budget, an integral is undecided: "inconclusive"."""
    if len(pts) < 7:
        return ["inconclusive"] * len(integrands)
    kinds = []
    for g in integrands:
        try:
            kinds.append(classify_toward(g, pts[0], pts[1:], tol=1e-3).kind)
        except ToleranceNotMet:
            kinds.append("inconclusive")
    return kinds


def classify_canonicity(chain):
    """Endpoint classification ``{"x0": ..., "T": ...}`` from the
    reciprocal-weight integrals; :attr:`WeightChain.canonicity` calls it on
    its first read, so an error raised here surfaces at that read.  Each
    endpoint's verdict is the chain's own (:meth:`WeightChain.canonicity_at`):
    an endpoint classified before, as x0 by ``extract_operator``, is read,
    not classified again.

    type_I: every reciprocal middle weight has a divergent integral toward
    the endpoint (kind ``diverged_*`` of
    :func:`~chebscale.quadrature.classify_toward`); type_II: every one is
    ``converged``; mixed decisive verdicts give "neither", anything else
    "unknown".  The probes are cut where a reciprocal weight stops being
    finite, read off its array form, and each reciprocal weight's integrals
    between the probes are refined together: one node array of GK15 cells
    per refinement round
    (:func:`~chebscale.quadrature.integrate_all`).
    """
    return {endpoint: chain.canonicity_at(endpoint) for endpoint in ("x0", "T")}


def _classify_endpoint(chain, endpoint):
    """The verdict of :func:`classify_canonicity` at one endpoint."""
    recips = [
        NodeFn(lambda x, w=w: 1.0 / w.value(x), lambda xs, w=w: 1.0 / w.values(xs))
        for w in chain.weights[1:chain.n]
    ]
    pts = finite_prefix(_endpoint_schedule(chain.interval, endpoint).points, recips)
    kinds = _endpoint_kinds(recips, pts)
    if all(k.startswith("diverged") for k in kinds):
        return "type_I"
    if all(k == "converged" for k in kinds):
        return "type_II"
    if any(k.startswith("diverged") for k in kinds) and "converged" in kinds:
        return "neither"
    return "unknown"


# -- the full operator -------------------------------------------------------------


def apply_full_operator(scale, f, x):
    """W(phi_1..phi_n, u) / W(phi_1..phi_n) at x.

    ``x`` may be a node array (the array form): the bordered determinants
    are eliminated as one stack, and a node where the scalar call raises is
    NaN.
    """
    from .wronskian import bordered_wronskian

    idx = tuple(range(1, scale.n + 1))
    if isinstance(x, np.ndarray):
        value, flagged = wronskian_flags(scale, idx, x)
        num = det_pivoted(_bordered_matrix(scale, idx, f, x))[0]
        with np.errstate(all="ignore"):
            return np.where(flagged, np.nan, num / value)
    num, _, _ = bordered_wronskian(scale, idx, f, x)
    den = wronskian(scale, idx, x)
    if den.vanishes:
        raise WronskianDegenerate(f"denominator Wronskian ~ 0 at x={x}")
    return num / den.value


# -- divide and differentiate -------------------------------------------------------


def _nonvanishing(p, x):
    """``p``, a pivot image's jet at x, unless its value is ~0 against its coefficients."""
    if abs(p.value) <= 1e-13 * max(abs(c) for c in p.coeffs):
        raise PivotVanishes(f"pivot image ~ 0 at x={x}")
    return p


class _DDImage:
    """One divide-and-differentiate step applied to a tracked term (always
    called through the JetMemo that wraps it)."""

    __slots__ = ("member", "pivot")

    def __init__(self, member, pivot):
        self.member = member
        self.pivot = pivot

    def __call__(self, x, order):
        m = self.member(x, order + 1)
        return derivative(m / _nonvanishing(self.pivot(x, order + 1), x))


class _Reciprocal:
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x, order):
        return 1.0 / _nonvanishing(self.fn(x, order), x)


class _Product:
    __slots__ = ("fns",)

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, x, order):
        out = jet_constant(1.0, x, order)
        for fn in self.fns:
            out = out * fn(x, order)
        return out


def divide_and_differentiate(scale, pivot, probes):
    """The two-step "divide by the pivot term, then differentiate" algorithm.

    ``pivot="first"`` factors out the currently-largest term and yields a
    type-II chain; ``pivot="last"`` factors out the smallest and yields the
    type-I chain.  Terms are never re-expanded: every image stays one opaque
    jet-evaluator, so compound terms remain grouped exactly.  The chain's
    ``canonicity`` is classified on first read.  ``probes``: well-conditioned
    probes (:func:`well_conditioned_probes`), such as the ``probes`` of a
    Polya chain, which then need no Wronskian evaluated again.
    """
    if pivot not in ("first", "last"):
        raise EvaluationError("pivot must be 'first' or 'last'")
    require_verified(scale)
    images = list(scale.functions)
    pivots = []
    for _ in range(scale.n):
        g = images[0] if pivot == "first" else images[-1]
        for x in probes:
            if abs(g(x, 0).value) <= 1e-300:
                raise PivotVanishes(f"pivot image zero at probe x={x}")
        pivots.append(g)
        rest = images[1:] if pivot == "first" else images[:-1]
        images = [JetMemo(_DDImage(m, g), "dd") for m in rest]
    signed = [_Reciprocal(g) for g in pivots] + [_Product(pivots)]
    return _chain_from_signed(signed, scale, "divide_and_differentiate", probes)


# -- chain application (shared with the operators module) ---------------------------


def chain_levels(chain, f, x, k):
    """Levels 0..k of the chain at ``x`` in one pass: the tuples of their
    values and of their noises (see :func:`apply_chain`).

    The pass runs at order k, so the intermediate after weight i has order
    k - i.  Level j's own pass would compute the first j - i + 1
    coefficients of that intermediate, and no more: coefficient m of every
    jet operation reads only coefficients 0..m (the jet module's truncation
    rule).  So level j's value is coefficient 0 of the intermediate after
    weight j, and its noise is the running estimate read off those
    prefixes, each bit for bit what a pass at order j gives.  The largest
    magnitude of each prefix is the running maximum of its jet's
    coefficients, which picks the element ``max`` over the prefix picks.

    ``x`` may be a node array (the array form): the jets have array
    coefficients and the maxima are elementwise, so each node's values and
    noises are the scalar pass's bit for bit, except where the scalar pass
    raises: those nodes are NaN.
    """
    if not 0 <= k <= chain.n:
        raise EvaluationError(f"level {k} outside [0, {chain.n}]")
    if isinstance(x, np.ndarray):
        def prefix_max(coeffs):  # a NaN, where flagged, reaches the maxima
            return np.maximum.accumulate(np.abs(coeffs), axis=0)
    else:
        def prefix_max(coeffs):
            return list(accumulate(map(abs, coeffs), max))
    w = chain.weights
    cur = w[0](x, k) * truncate(f(x, k), k)
    steps = [cur.coeffs]  # coefficients of each intermediate
    weights = [None]  # coefficients of each weight past r_0
    for i in range(1, k + 1):
        wj = w[i](x, k - i)
        cur = wj * derivative(cur)
        steps.append(cur.coeffs)
        weights.append(wj.coeffs)
    # [i][m - 1]: the largest magnitude of the first m coefficients
    step_max = [prefix_max(c) for c in steps]
    weight_max = [None] + [prefix_max(c) for c in weights[1:]]
    eps = 2.2e-16
    noises = []
    for j in range(k + 1):
        noise = eps * step_max[0][j]
        for i in range(1, j + 1):
            m = j - i + 1  # coefficients of level j's intermediate i
            noise *= max(1.0, float(m))
            noise = noise * weight_max[i][m - 1] + eps * step_max[i][m - 1]
        noises.append(noise)
    return tuple(c[0] for c in steps), tuple(noises)


def apply_chain(chain, f, x, level=None, with_noise=False):
    """Weighted derivative of ``f`` at ``x`` through the chain up to ``level``.

    Level k evaluates r_k (r_{k-1} ( ... (r_0 f)' ... )')' in jet arithmetic,
    each weight expanded only to the residual order it still needs: the
    last level of a :func:`chain_levels` pass to k.

    With ``with_noise`` the return is ``(value, noise)`` where noise is a
    running estimate of the rounding floor: derivatives of functions with a
    dominant huge component carry an absolute error around eps times the
    largest intermediate coefficient, amplified by every later weight.
    """
    k = chain.n if level is None else level
    values, noises = chain_levels(chain, f, x, k)
    if with_noise:
        return values[k], noises[k]
    return values[k]


# -- principal system ----------------------------------------------------------------


def _nest_jetfn(nest, weight_jets, density_jet, prefactor_jet, name):
    """Memoized jet-evaluator view of a nested-integral level stack.

    Jets follow the calculus of the tables: a from_T level differentiates to
    +(1/w)*inner, a to_x0 level to -(1/w)*inner, with the innermost density
    supplied as a jet-evaluator.  The level values at x are read from the
    nest once per evaluation; the memo keeps one jet per point, at the
    highest order asked there.

    ``x`` may be a node array (the array form): each level's values are
    read through :func:`~chebscale.quadrature.node_values` of the nest's
    :meth:`~chebscale.quadrature.NestedIntegral.values`, so nodes on log
    cells are read point by point, and the density and weights through
    their own array forms.  Each node's jet is the scalar evaluation's bit
    for bit, or flagged (NaN) where that raises.
    """
    weight_jets = list(weight_jets)
    levels = [NodeFn(partial(nest.value, level=l), partial(nest.values, level=l))
              for l in range(nest.depth)]

    def fn(x, order):
        depth = nest.depth
        cur = density_jet(x, max(order - depth, 0))
        if isinstance(x, np.ndarray):
            level_values = [node_values(level, x) for level in levels]
        else:
            level_values = [level(x) for level in levels]
        for l in range(depth - 1, -1, -1):
            o = max(order - l - 1, 0)
            wj = weight_jets[l]
            g = truncate(cur, o)
            if wj is not None:
                g = g / truncate(wj(x, o), o)
            if nest.orientations[l] == "to_x0":
                g = -g
            cur = antiderivative(g, value=level_values[l])
        cur = truncate(cur, order)
        return prefactor_jet(x, order) * cur

    return JetMemo(fn, name, arrays=True)


@dataclass
class PrincipalSystem:
    P: list  # jet-evaluators P_0..P_{n-1}
    b: list  # asymptotic proportionality constants, b[i] for phi_{i+1}
    beta: object  # upper-triangular basis-change coefficients (numpy array)


def build_principal_system(scale, chain_p):
    """Nested from_T integrals of the type-I chain, plus the change of basis,
    on the probes the chain's signs were read at."""
    probes = chain_p.probes
    # from_T nests never look past the probes; a short reach keeps
    # exponentially growing type-I weights inside double range
    grid = WorkGrid(scale.T, scale.x0, include=probes, hard_cap=1.05 * max(probes))
    n = scale.n

    def inv_p0(x, order):
        return 1.0 / chain_p.weights[0](x, order)

    P = [JetMemo(inv_p0, "P0")]
    for i in range(1, n):
        weights = [NodeFn.of(chain_p.weights[l]) for l in range(1, i + 1)]
        nest = NestedIntegral(grid, weights, ["from_T"] * i, UNIT)
        wjets = [chain_p.weights[l] for l in range(1, i + 1)]
        P.append(
            _nest_jetfn(
                nest,
                wjets,
                lambda x, m: jet_constant(1.0, x, m),
                prefactor_jet=P[0],
                name=f"P{i}",
            )
        )

    # b_i from the constancy of the level-k weighted derivative of phi_{n-k}
    b = [0.0] * n
    for k in range(n):
        vals = [chain_p.image(scale.functions[n - k - 1], k, x)[0] for x in probes]
        b[n - k - 1] = float(np.median(vals))

    # beta_{i,j} of the triangular change of basis, solved by least squares
    beta = np.zeros((n, n))
    for i in range(1, n):
        rows = []
        rhs = []
        for x in probes:
            rows.append([P[n - j].value(x) for j in range(i + 1, n + 1)])
            rhs.append(scale.phi_value(i, x) - b[i - 1] * P[n - i].value(x))
        sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        beta[i - 1, i:] = sol
    return PrincipalSystem(P=P, b=b, beta=beta)


# -- ratio constancy ------------------------------------------------------------------


def fit_ratio_constant(fn_a, fn_b, points):
    """Fit a(x) ~ c * b(x) over the points; return (c, max relative deviation).

    ``fn_a``/``fn_b`` may be jet-evaluators or plain callables.
    """

    def val(fn, x):
        try:
            return fn(x, 0).value
        except TypeError:
            return float(fn(x))

    ratios = []
    for x in points:
        bv = val(fn_b, x)
        if bv == 0:
            raise EvaluationError(f"reference function vanishes at x={x}")
        ratios.append(val(fn_a, x) / bv)
    c = float(np.median(ratios))
    if c == 0.0:
        return 0.0, max(abs(r) for r in ratios)
    dev = max(abs(r - c) for r in ratios) / abs(c)
    return c, dev
