"""Canonical factorization chains of the operator attached to a scale.

Given a verified scale, this module builds

* the type-II weight chain (forward prefix Wronskian ratios),
* the type-I weight chain (reversed prefix Wronskian ratios),
* the integral-representation weights,
* the principal fundamental system by nested integration of the type-I
  chain,

classifies chain canonicity at both endpoints, runs the divide-and-
differentiate construction and applies the full operator as a Wronskian
quotient.

Weights are stored unsigned (positive) together with a sign word; the sign
pattern has product +1, so composing the unsigned chain to full depth
reproduces the operator exactly.  Chains are unique only up to per-weight
constants with product 1, hence all comparisons are ratio-constancy checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, PivotVanishes, WronskianDegenerate
from .jet import JetMemo, antiderivative, derivative, jet_constant, jet_derivative, truncate
from .quadrature import NestedIntegral, NodeFn, WorkGrid, classify_toward
from .scale import finite_prefix, make_schedule, require_verified, scale_schedule
from .wronskian import det_pivoted, wronskian, wronskian_flags, wronskian_jet


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

    def check(self, i, x):
        """Raise WronskianDegenerate when the prefix Wronskian vanishes at x."""
        ev = wronskian(self.scale, self.indices(i), x)
        if ev.vanishes:
            raise WronskianDegenerate(
                f"W{self.indices(i)} ~ 0 at x={x} (value {ev.value})"
            )
        return ev


@dataclass
class WeightChain:
    """Factorization weights r_0..r_n, unsigned, with a separate sign word."""

    weights: list  # jet-evaluators for |r_i|
    signs: list  # sign(r_i), read off near x0
    interval: tuple
    n: int
    provenance: str
    canonicity: dict = field(default_factory=lambda: {"x0": "unknown", "T": "unknown"})
    sign_flips: list = field(default_factory=list)  # Wronskian zeros inside

    def weight_jet(self, i, x, order):
        return self.weights[i](x, order)

    def weight_value(self, i, x):
        return self.weights[i](x, 0).value

    def signed_weight_jet(self, i, x, order):
        j = self.weights[i](x, order)
        return j if self.signs[i] > 0 else -j

    def report(self, schedule):
        """Weights sampled on the schedule's finite prefix plus canonicity,
        JSON-friendly."""
        pts = finite_prefix(schedule.points, [w.value for w in self.weights])
        samples = {}
        for i in range(self.n + 1):
            samples[f"r{i}"] = [(x, self.weight_value(i, x)) for x in pts]
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

    Signs are read near x0 (they are constant wherever the defining
    Wronskians keep their sign), at the last probe where every weight is
    finite.  A sign flip across earlier probes marks a Wronskian zero inside
    the interval; it is recorded, since the chain is a valid factorization
    only to the right of the last flip.  ``arrays``: the signed evaluators
    take node arrays.
    """
    values = [lambda x, fn=fn: fn(x, 0).value for fn in signed_fns]
    ordered = finite_prefix(scale.toward_x0(probes), values)
    if not ordered:
        raise WronskianDegenerate(f"no probe keeps the {provenance} weights finite")
    x_ref = ordered[-1]
    signs = []
    for fn in signed_fns:
        signs.append(_signed_sign(fn(x_ref, 0).value, x_ref))
    flips = []
    for x in ordered:
        for k, (fn, s) in enumerate(zip(signed_fns, signs)):
            v = fn(x, 0).value
            if _signed_sign(v, x) != s:
                flips.append({"weight": k, "x": x})
    unsigned = [
        JetMemo(fn if s > 0 else lambda x, m, f=fn: -f(x, m), f"{provenance}:r{k}", arrays)
        for k, (fn, s) in enumerate(zip(signed_fns, signs))
    ]
    chain = WeightChain(
        weights=unsigned,
        signs=signs,
        interval=(scale.T, scale.x0),
        n=scale.n,
        provenance=provenance,
    )
    chain.sign_flips = flips
    return chain


def well_conditioned_probes(scale, points, threshold=1e12, minimum=4, depth=None):
    """Probes where the prefix Wronskians are numerically trustworthy.

    The conditioning diagnostic (largest over smallest row scale) bounds the
    relative noise of the determinant; beyond the threshold the value is
    unusable and the probe is skipped.  ``depth`` restricts the check to the
    prefix W(phi_1..phi_depth) (weighted derivatives of level k only touch
    prefixes up to k+1, so shallow levels may keep deeper probes).
    """
    depth = scale.n if depth is None else depth
    idx = tuple(range(1, depth + 1))
    kept = []
    for x in points:
        if len(idx) < 2:
            kept.append(x)
            continue
        try:
            ev = wronskian(scale, idx, x)
        except (ArithmeticError, EvaluationError):
            continue
        if math.isfinite(ev.conditioning) and ev.conditioning < threshold:
            kept.append(x)
    if len(kept) < minimum:
        raise WronskianDegenerate(
            f"only {len(kept)} probes are well conditioned (need {minimum})"
        )
    return kept


def _default_probes(scale, schedule):
    if schedule is None:
        schedule = scale_schedule(scale, 8, 2.0 if scale.infinite else 0.5)
    return well_conditioned_probes(scale, list(schedule.points))


def _polya_chain(scale, prefixes, provenance, schedule):
    """Shared Polya construction over a prefix-Wronskian family.

    Signed weights: r_0 = 1/W_1, r_i = W_i^2/(W_{i-1} W_{i+1}) for
    1 <= i <= n-1, r_n = W_n/W_{n-1}; the product telescopes to 1.
    """
    n = scale.n
    probes = _default_probes(scale, schedule)
    for x in probes:
        for i in range(1, n + 1):
            prefixes.check(i, x)

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


def build_type2_chain(scale, schedule=None):
    """Polya chain from forward prefixes; canonical of type II at x0."""
    require_verified(scale)
    chain = _polya_chain(scale, _PrefixWronskians(scale), "polya_q", schedule)
    classify_canonicity(chain)
    return chain


def build_type1_chain(scale, schedule=None):
    """Polya chain from reversed prefixes; "the" type-I chain at x0."""
    require_verified(scale)
    chain = _polya_chain(
        scale, _PrefixWronskians(scale, reverse=True), "polya_p", schedule
    )
    classify_canonicity(chain)
    return chain


# -- canonicity classification ---------------------------------------------------


def _endpoint_schedule(interval, endpoint, count=16):
    T, x0 = interval
    if endpoint == "x0":
        if math.isinf(x0):
            return make_schedule(T, x0, count, 1.7)
        return make_schedule(T, x0, count, 0.5)
    # toward T: anchor strictly inside, probes approach T geometrically
    anchor = T + 0.5 * (x0 - T) if math.isfinite(x0) else T + 1.0
    return make_schedule(anchor, T, count, 0.5)


def classify_canonicity(chain, schedule=None, endpoints=("x0", "T"), tol=1e-3):
    """Endpoint classification from the reciprocal-weight integrals.

    type_I: every reciprocal middle weight has a divergent integral toward
    the endpoint; type_II: every one converges; mixed decisive verdicts give
    "neither", anything else "unknown".  The probes are cut where a
    reciprocal weight stops being finite, read off its array form, and each
    reciprocal weight's integrals between the probes are refined together:
    one node array of GK15 cells per refinement round
    (:func:`~chebscale.quadrature.integrate_all`).
    """
    out = {}
    recips = [
        NodeFn(lambda x, w=w: 1.0 / w.value(x), lambda xs, w=w: 1.0 / w.values(xs))
        for w in chain.weights[1:chain.n]
    ]
    # A sign flip marks a Wronskian zero: reciprocal weights have poles
    # there, so classification toward x0 must anchor past the last flip.
    flip_edge = None
    if chain.sign_flips:
        sigma = 1.0 if chain.interval[1] > chain.interval[0] else -1.0
        flip_edge = max(sigma * f["x"] for f in chain.sign_flips)
    for endpoint in endpoints:
        if endpoint == "T" and flip_edge is not None:
            # the chain is only a factorization past the last interior zero,
            # so the T side has no meaningful classification
            out[endpoint] = "unknown"
            chain.canonicity[endpoint] = "unknown"
            continue
        sched = schedule if (schedule is not None and endpoint == "x0") else None
        if sched is None:
            sched = _endpoint_schedule(chain.interval, endpoint)
        pts = finite_prefix(sched.points, recips)
        if endpoint == "x0" and flip_edge is not None:
            sigma = 1.0 if chain.interval[1] > chain.interval[0] else -1.0
            kept = [x for x in pts if sigma * x > flip_edge]
            pts = kept[1:]  # one-probe safety margin past the last flip
        if len(pts) < 7:
            out[endpoint] = "unknown"
            chain.canonicity[endpoint] = "unknown"
            continue
        anchor = pts[0]
        pts = pts[1:]
        kinds = [classify_toward(g, anchor, pts, tol=tol).kind for g in recips]
        if all(k.startswith("diverges") for k in kinds):
            out[endpoint] = "type_I"
        elif all(k == "converges" for k in kinds):
            out[endpoint] = "type_II"
        elif any(k.startswith("diverges") for k in kinds) and any(
            k == "converges" for k in kinds
        ):
            out[endpoint] = "neither"
        else:
            out[endpoint] = "unknown"
        chain.canonicity[endpoint] = out[endpoint]
    return out


# -- representation weights -------------------------------------------------------


@dataclass
class RepresentationWeights:
    w: list  # signed jet-evaluators w_0..w_{n-1}
    integrability: list = field(default_factory=list)


def build_representation_weights(scale, schedule=None, classify=True):
    """Weights of the nested tail representation of the scale.

    w_0 = phi_1, w_1 = -(phi_2/phi_1)', and for 2 <= i <= n-1
    w_i = -[W(phi_1..phi_{i-1}, phi_{i+1}) / W(phi_1..phi_{i-1}, phi_i)]'.
    """
    require_verified(scale)
    n = scale.n
    probes = _default_probes(scale, schedule)
    prefixes = _PrefixWronskians(scale)
    for x in probes:
        for i in range(1, n):
            prefixes.check(i, x)

    def w1(x, order):
        a = scale.phi_jet(2, x, order + 1)
        b = scale.phi_jet(1, x, order + 1)
        return -derivative(a / b)

    fns = [scale.functions[0], JetMemo(w1, "w1")]

    def wi(i):
        def fn(x, order):
            base = list(range(1, i))
            num = wronskian_jet(scale, base + [i + 1], x, order + 1)
            den = wronskian_jet(scale, base + [i], x, order + 1)
            return -derivative(num / den)
        return fn

    for i in range(2, n):
        fns.append(JetMemo(wi(i), f"w{i}"))

    integrability = []
    if classify:
        sched = _endpoint_schedule((scale.T, scale.x0), "x0")
        pts = finite_prefix(sched.points, [fn.value for fn in fns])
        for i in range(1, n):
            fn = fns[i]
            if len(pts) < 7:
                integrability.append("inconclusive")
                continue
            verdict = classify_toward(
                lambda x, f=fn: abs(f(x, 0).value), pts[0], pts[1:], tol=1e-3
            )
            integrability.append(verdict.kind)
    return RepresentationWeights(w=fns, integrability=integrability)


# -- the full operator -------------------------------------------------------------


def apply_full_operator(scale, f, x, den=None):
    """W(phi_1..phi_n, u) / W(phi_1..phi_n) at x.

    ``x`` may be a node array (the array form): the bordered determinants
    are eliminated as one stack, and ``den`` may supply the denominator's
    :func:`~chebscale.wronskian.wronskian_flags` on those nodes (they depend
    on the scale alone).  A node where the scalar call raises is NaN.
    """
    from .wronskian import bordered_wronskian

    idx = tuple(range(1, scale.n + 1))
    if isinstance(x, np.ndarray):
        n = scale.n
        value, flagged = wronskian_flags(scale, idx, x) if den is None else den
        cols = [scale.phi_derivatives(i, x, n) for i in idx]
        fj = f(x, n)
        cols.append([jet_derivative(fj, r) for r in range(n + 1)])
        num = det_pivoted([[cols[c][r] for c in range(n + 1)] for r in range(n + 1)])[0]
        with np.errstate(all="ignore"):
            return np.where(flagged, np.nan, num / value)
    num, _, _ = bordered_wronskian(scale, idx, f, x)
    den = wronskian(scale, idx, x)
    if den.vanishes:
        raise WronskianDegenerate(f"denominator Wronskian ~ 0 at x={x}")
    return num / den.value


# -- divide and differentiate -------------------------------------------------------


class _DDImage:
    """One divide-and-differentiate step applied to a tracked term (always
    called through the JetMemo that wraps it)."""

    __slots__ = ("member", "pivot")

    def __init__(self, member, pivot):
        self.member = member
        self.pivot = pivot

    def __call__(self, x, order):
        m = self.member(x, order + 1)
        p = self.pivot(x, order + 1)
        if abs(p.value) <= 1e-13 * max(abs(c) for c in p.coeffs):
            raise PivotVanishes(f"pivot image ~ 0 at x={x}")
        return derivative(m / p)


class _Reciprocal:
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x, order):
        p = self.fn(x, order)
        if abs(p.value) <= 1e-13 * max(abs(c) for c in p.coeffs):
            raise PivotVanishes(f"pivot image ~ 0 at x={x}")
        return 1.0 / p


class _Product:
    __slots__ = ("fns",)

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, x, order):
        out = jet_constant(1.0, x, order)
        for fn in self.fns:
            out = out * fn(x, order)
        return out


def divide_and_differentiate(scale, pivot, schedule=None):
    """The two-step "divide by the pivot term, then differentiate" algorithm.

    ``pivot="first"`` factors out the currently-largest term and yields a
    type-II chain; ``pivot="last"`` factors out the smallest and yields the
    type-I chain.  Terms are never re-expanded: every image stays one opaque
    jet-evaluator, so compound terms remain grouped exactly.
    """
    if pivot not in ("first", "last"):
        raise EvaluationError("pivot must be 'first' or 'last'")
    require_verified(scale)
    probes = _default_probes(scale, schedule)
    images = list(scale.functions)
    pivots = []
    for _ in range(scale.n):
        g = images[0] if pivot == "first" else images[-1]
        for x in probes:
            j = g(x, 0)
            if abs(j.value) <= 1e-300:
                raise PivotVanishes(f"pivot image zero at probe x={x}")
        pivots.append(g)
        rest = images[1:] if pivot == "first" else images[:-1]
        images = [JetMemo(_DDImage(m, g), "dd") for m in rest]
    signed = [_Reciprocal(g) for g in pivots] + [_Product(pivots)]
    chain = _chain_from_signed(signed, scale, "divide_and_differentiate", probes)
    classify_canonicity(chain)
    return chain


# -- chain application (shared with the operators module) ---------------------------


def apply_chain(chain, f, x, level=None, signed=False, with_noise=False):
    """Weighted derivative of ``f`` at ``x`` through the chain up to ``level``.

    Level k evaluates r_k (r_{k-1} ( ... (r_0 f)' ... )')' in jet arithmetic,
    each weight expanded only to the residual order it still needs.

    With ``with_noise`` the return is ``(value, noise)`` where noise is a
    running estimate of the rounding floor: derivatives of functions with a
    dominant huge component carry an absolute error around eps times the
    largest intermediate coefficient, amplified by every later weight.
    """
    k = chain.n if level is None else level
    if not 0 <= k <= chain.n:
        raise EvaluationError(f"level {k} outside [0, {chain.n}]")
    w = chain.signed_weight_jet if signed else chain.weight_jet
    fj = truncate(f(x, k), k)
    cur = w(0, x, k) * fj
    eps = 2.2e-16
    noise = eps * max(abs(c) for c in cur.coeffs)
    for i in range(1, k + 1):
        noise *= max(1.0, float(cur.order))
        cur = derivative(cur)
        wj = w(i, x, k - i)
        cur = wj * cur
        wmax = max(abs(c) for c in wj.coeffs)
        cmax = max(abs(c) for c in cur.coeffs)
        noise = noise * wmax + eps * cmax
    if with_noise:
        return cur.value, noise
    return cur.value


# -- principal system ----------------------------------------------------------------


def _nest_jetfn(nest, weight_jets, density_jet, prefactor_jet=None, name=""):
    """Memoized jet-evaluator view of a nested-integral level stack.

    Jets follow the calculus of the tables: a from_T level differentiates to
    +(1/w)*inner, a to_x0 level to -(1/w)*inner, with the innermost density
    supplied as a jet-evaluator.  The level values at x are read from the
    nest once, beside the memo's jets, and serve every order asked there.
    """
    weight_jets = list(weight_jets)
    levels = {}  # x -> nest.level_values(x)

    def level_values(x):
        values = levels.get(x)
        if values is None:
            values = levels[x] = nest.level_values(x)
        return values

    def fn(x, order):
        depth = nest.depth
        cur = density_jet(x, max(order - depth, 0))
        for l in range(depth - 1, -1, -1):
            o = max(order - l - 1, 0)
            wj = weight_jets[l]
            g = truncate(cur, o)
            if wj is not None:
                g = g / truncate(wj(x, o), o)
            if nest.orientations[l] == "to_x0":
                g = -g
            cur = antiderivative(g, value=level_values(x)[l])
        cur = truncate(cur, order)
        return cur if prefactor_jet is None else prefactor_jet(x, order) * cur

    return JetMemo(fn, name)


@dataclass
class PrincipalSystem:
    P: list  # jet-evaluators P_0..P_{n-1}
    b: list  # asymptotic proportionality constants, b[i] for phi_{i+1}
    beta: object  # upper-triangular basis-change coefficients (numpy array)


def build_principal_system(scale, chain_p, schedule=None, grid=None):
    """Nested from_T integrals of the type-I chain, plus the change of basis."""
    probes = _default_probes(scale, schedule)
    if grid is None:
        # from_T nests never look past the probes; a short reach keeps
        # exponentially growing type-I weights inside double range
        grid = WorkGrid(scale.T, scale.x0, include=probes, hard_cap=1.05 * max(probes))
    n = scale.n

    def inv_p0(x, order):
        return 1.0 / chain_p.weight_jet(0, x, order)

    P = [JetMemo(inv_p0, "P0")]
    unit = lambda x: 1.0
    for i in range(1, n):
        weights = [NodeFn.of(chain_p.weights[l]) for l in range(1, i + 1)]
        nest = NestedIntegral(grid, weights, ["from_T"] * i, unit)
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
        vals = [apply_chain(chain_p, scale.functions[n - k - 1], x, level=k) for x in probes]
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
        for off, j in enumerate(range(i + 1, n + 1)):
            beta[i - 1, j - 1] = sol[off]
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
