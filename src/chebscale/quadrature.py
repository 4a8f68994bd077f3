"""Adaptive quadrature, improper-integral classification, nested integrals.

The basic kernel is a Gauss(7)/Kronrod(15) embedded pair driving adaptive
bisection.  Improper integrals toward the limit point are classified from
partial integrals along a probe schedule (shared extrapolation rules).

Iterated integrals share one master grid (a :class:`WorkGrid`, one per
artifacts bundle), which no nest ever changes: each level's cumulative is
tabulated over the grid cells, with a per-cell interpolating polynomial
built on the Kronrod nodes so inner levels can be sampled at the outer
level's nodes without recursive quadrature.  Depth-n nests therefore cost
O(cells * 15) per level instead of exploding exponentially.

Toward x0 a level's far cells can be exponentially steep: the tail of an
e^-x density falls by e^-75 across a 75-wide cell, and the next level out
multiplies it back by e^x.  Such cells (one sign, |g| varying by more than
e^2) are integrated in log form wherever that form's embedded error beats
the Gauss-Kronrod one: log|g| is interpolated on the cell's own 15 nodes
and exponentiated on Kronrod sub-pieces, as many as its slope needs, so the
tails at the nodes keep their relative accuracy.  No cell gets new nodes,
and from_T levels are left as tabulated.

Tabulation: GK15 cells and a grid's node table evaluate their function
through :func:`tabulate`, once per node array when the function has an
array form (a :class:`NodeFn`).  An array form returns, at each node, the
scalar function's value bit for bit or a non-finite value (flagged, where
the scalar function might raise or does not stay finite); flagged nodes are
evaluated again, in node order, by the scalar function, so values,
+inf entries and raised exceptions are those of a node-by-node loop.
Adaptive quadrature batches its cells per refinement round:
:func:`integrate_all` runs one adaptive loop per interval, and each round
tabulates the cells that every unfinished interval splits next as one node
array.  Each cell is still summed on its own, and each interval keeps its
own heap, totals and budget, so values and exceptions are those of
integrating the intervals one after another.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ChebscaleError, DivergentTail, EvaluationError, ToleranceNotMet
from .extrapolate import classify_sequence

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (standard double-precision values, ascending order).
_XGK_HALF = [
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
]
_WGK_HALF = [
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
]
_WG_HALF = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
]

XGK = np.array([-x for x in _XGK_HALF[:-1]] + list(reversed(_XGK_HALF)))
WGK = np.array(_WGK_HALF[:-1] + list(reversed(_WGK_HALF)))
WG15 = np.zeros(15)
for _i in range(3):
    WG15[2 * _i + 1] = _WG_HALF[_i]
    WG15[13 - 2 * _i] = _WG_HALF[_i]
WG15[7] = _WG_HALF[3]

# Antiderivatives of the Lagrange cardinal polynomials on the Kronrod nodes:
# PART[i, j] = integral of l_i over [-1, XGK[j]], and the coefficient matrix
# CARD_COEF[i] holds the antiderivative polynomial for arbitrary points.


def _cardinal_antiderivatives():
    coef = []
    part = np.zeros((15, 15))
    for i in range(15):
        roots = np.delete(XGK, i)
        num = P.polyfromroots(roots)
        den = np.prod(XGK[i] - roots)
        li = num / den
        anti = P.polyint(li)
        anti[0] -= P.polyval(-1.0, anti)
        coef.append(anti)
        part[i, :] = P.polyval(XGK, anti)
    return np.array(coef), part


CARD_COEF, PART = _cardinal_antiderivatives()
# complement: integral of each cardinal from the node to the right edge
PARTC = WGK[:, None] - PART


# Steep single-signed cells of a to_x0 level are integrated in log form: the
# interpolant of log|g| on the Kronrod nodes (or on the embedded Gauss nodes,
# for the error estimate) is exponentiated on Kronrod sub-pieces of the gaps
# between consecutive nodes, so tails at the nodes are suffix sums of pieces.
_G7 = XGK[1::2]
_GAPS = np.concatenate(([-1.0], XGK, [1.0]))
_GAP_EDGES = [float(e) for e in _GAPS]
_MAX_GAP = float(np.max(np.diff(_GAPS)))
_MAX_PIECES = 16


def _bary_weights(nodes):
    return np.array([1.0 / np.prod(x - np.delete(nodes, i)) for i, x in enumerate(nodes)])


_BW15 = _bary_weights(XGK)
_BW7 = _bary_weights(_G7)
# value and slope at the right cell edge of the Kronrod-node interpolant
_EDGE_VALUE = np.array([P.polyval(1.0, P.polyder(c)) for c in CARD_COEF])
_EDGE_SLOPE = np.array([P.polyval(1.0, P.polyder(c, 2)) for c in CARD_COEF])


def _interpolation(pts, nodes, bw):
    """Matrix taking values at ``nodes`` to their interpolant at ``pts``
    (barycentric form, which stays accurate to rounding at degree 14).
    Samples lie strictly inside the gaps between nodes, never on one."""
    card = bw / (pts[:, None] - nodes)
    return card / card.sum(axis=1, keepdims=True)


@functools.lru_cache(maxsize=_MAX_PIECES)
def _piece_offsets(pieces):
    """Kronrod samples and weights of [0, 2 * pieces] cut into unit halves."""
    offsets = ((2.0 * np.arange(pieces) + 1.0)[:, None] + XGK).ravel()
    return offsets, np.tile(WGK, pieces)


def _kronrod_pieces(a, b, pieces):
    """Kronrod samples and weights of [a, b] (cell units) cut into
    ``pieces`` equal parts."""
    hw = 0.5 * (b - a) / pieces
    offsets, weights = _piece_offsets(pieces)
    return a + hw * offsets, hw * weights


@functools.lru_cache(maxsize=2 * _MAX_PIECES)
def _gap_rule(pieces, coarse):
    """Interpolation matrix from the Kronrod (or, if ``coarse``, the Gauss)
    nodes to the samples of every gap cut into ``pieces``, and the
    (gaps, samples per gap) weights."""
    nodes, bw = (_G7, _BW7) if coarse else (XGK, _BW15)
    samples = [_kronrod_pieces(a, b, pieces) for a, b in zip(_GAPS[:-1], _GAPS[1:])]
    pts = np.concatenate([p for p, _ in samples])
    return _interpolation(pts, nodes, bw).T, np.array([w for _, w in samples])


def _exp_integrals(rows, rule):
    """(cells, intervals) integrals of exp(P), P interpolating each row."""
    card, weights = rule
    with np.errstate(over="ignore"):
        vals = np.exp(rows @ card)
    return (vals.reshape(len(rows), *weights.shape) * weights).sum(axis=-1)


# What a scalar evaluation may raise: a node where it does is flagged by the
# array forms below and left to the scalar function itself.
_SCALAR_ERRORS = (ArithmeticError, ValueError, ChebscaleError)


class NodeFn:
    """A value function ``x -> float`` with an array form ``on_nodes(xs)``.

    ``on_nodes`` maps a float64 node array to the values at its nodes, each
    bit for bit the scalar value or non-finite (flagged); see the module
    docstring.  Compose array forms from :func:`node_values` of the parts.
    """

    __slots__ = ("scalar", "on_nodes", "__weakref__")

    def __init__(self, scalar, on_nodes):
        self.scalar = scalar
        self.on_nodes = on_nodes

    @classmethod
    def of(cls, jetfn):
        """The values of a jet evaluator; the array form is its ``values``
        (a :class:`~chebscale.jet.JetMemo`, as expressions and constructed
        functions are), and there is none for other evaluators."""
        values = getattr(jetfn, "values", None)
        return cls(lambda x: jetfn(x, 0).value, values)

    def __call__(self, x):
        return self.scalar(x)


UNIT = NodeFn(lambda x: 1.0, lambda xs: np.ones(np.shape(xs)))  # the unit density


def array_form(fn, xs):
    """The array form of ``fn`` on the float64 array ``xs`` (non-finite at
    the nodes it flags), or None when ``fn`` has none or it fails."""
    on_nodes = getattr(fn, "on_nodes", None)
    if on_nodes is None:
        return None
    try:
        with np.errstate(all="ignore"):
            return np.array(on_nodes(xs), dtype=float)
    except _SCALAR_ERRORS:  # e.g. NoArrayForm: a part evaluates point by point
        return None


def tabulate(fn, xs, catch=(), fill=math.inf, raised=None):
    """``fn`` at every node of the float64 array ``xs``, as a new array.

    The array form of a :class:`NodeFn` runs first, on the whole array; the
    nodes it flags, or every node when it fails or ``fn`` has none, go
    through the scalar ``fn`` in node order, each as a Python float.  A node where that raises one
    of ``catch`` reads ``fill``; anything else propagates, unless
    ``raised`` is a dict: then the node reads NaN and ``raised`` maps its
    index to the exception.
    """
    vals = array_form(fn, xs)
    if vals is None:
        vals = np.empty(len(xs))
        redo = range(len(xs))
    else:
        redo = np.flatnonzero(~np.isfinite(vals))
    for i in redo:
        try:
            vals[i] = fn(float(xs[i]))
        except catch:
            vals[i] = fill
        except Exception as exc:
            if raised is None:
                raise
            raised[int(i)] = exc
            vals[i] = math.nan
    return vals


def node_values(fn, xs):
    """A part of an array form: ``fn`` at every node, bit for bit or NaN
    where the scalar ``fn`` raises (the composite is then flagged there)."""
    return tabulate(fn, xs, catch=_SCALAR_ERRORS, fill=math.nan)


def _gk15(f, cells):
    """Kronrod value and error estimate of f on each cell ``(a, b)``, all
    cells tabulated as one node array; a cell where the scalar f raises
    gets, in place of its pair, the exception of its first such node."""
    mid = np.array([0.5 * (a + b) for a, b in cells])
    half = np.array([0.5 * (b - a) for a, b in cells])
    raised = {}
    vals = tabulate(f, (mid[:, None] + half[:, None] * XGK).ravel(), raised=raised)
    out = []
    for h, row in zip(half.tolist(), vals.reshape(len(cells), 15)):
        k = h * float(WGK @ row)
        g = h * float(WG15 @ row)
        out.append((k, abs(k - g)))
    for i in sorted(raised, reverse=True):  # the first node of a cell wins
        out[i // 15] = raised[i]
    return out


@dataclass
class ConvergenceVerdict:
    kind: str  # a kind of classify_sequence: converged, diverged_plus, ...
    value: float
    error_estimate: float
    partial_values: list = field(default_factory=list)


def integrate(f, lower, upper, tol=1e-10, max_intervals=4096):
    """Adaptive integration of ``f`` over a proper ``(lower, upper)``.

    Subdivision continues until the summed error estimate drops below
    ``tol * (1 + |value|)``.  Returns ``(value, error_estimate)``; this is
    the one-interval case of :func:`integrate_all`.
    """
    return integrate_all(f, [(lower, upper)], tol, max_intervals)[0]


def _adaptive(a, b, tol, max_intervals):
    """One interval's adaptive loop in :func:`integrate_all`: it yields the
    cells it evaluates next, is sent their ``(value, error)`` pairs (or
    thrown a cell's exception), and returns ``(value, error_estimate)``."""
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    if math.isinf(a) or math.isinf(b):
        raise EvaluationError("infinite endpoints go through classify_toward")
    ((val, err),) = yield [(a, b)]
    heap = [(-err, a, b, val)]
    total_val, total_err = val, err
    splits = 0
    while total_err > tol * (1.0 + abs(total_val)) and heap:
        if splits >= max_intervals:
            raise ToleranceNotMet(
                f"budget of {max_intervals} subdivisions exhausted",
                value=sign * total_val,
                error=total_err,
            )
        neg_err, a0, b0, v0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        if mid <= a0 or mid >= b0:
            # interval at floating-point resolution; accept its estimate
            total_err += neg_err  # remove this error from the pool
            continue
        (v1, e1), (v2, e2) = yield [(a0, mid), (mid, b0)]
        total_val += v1 + v2 - v0
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, a0, mid, v1))
        heapq.heappush(heap, (-e2, mid, b0, v2))
        splits += 1
    return sign * total_val, max(total_err, 0.0)


def integrate_all(f, intervals, tol=1e-10, max_intervals=4096):
    """:func:`integrate` of ``f`` over every ``(lower, upper)`` of
    ``intervals``, as a list of ``(value, error_estimate)``.

    Every interval runs the adaptive loop on its own; a refinement round
    tabulates the cells that every unfinished interval evaluates next as
    one node array (see the module docstring).  An exception is that of the
    first interval, in order, that raises, as in a loop over the intervals:
    the intervals after it stop at the round where it raised.
    """
    runs = [_adaptive(a, b, tol, max_intervals) for a, b in intervals]
    outcome = [None] * len(runs)  # (value, error_estimate) or the exception
    cells = [None] * len(runs)  # the cells each unfinished run evaluates next

    def resume(i, step, arg):
        try:
            cells[i] = step(arg)
        except StopIteration as done:
            cells[i], outcome[i] = None, done.value
        except Exception as exc:
            cells[i], outcome[i] = None, exc

    for i, run in enumerate(runs):
        resume(i, run.send, None)
    while True:
        first = next((i for i, o in enumerate(outcome) if isinstance(o, Exception)), len(runs))
        todo = [i for i in range(first) if cells[i]]
        if not todo:
            break
        got = iter(_gk15(f, [c for i in todo for c in cells[i]]))
        for i in todo:
            pairs = [next(got) for _ in cells[i]]
            bad = next((p for p in pairs if isinstance(p, Exception)), None)
            if bad is None:
                resume(i, runs[i].send, pairs)
            else:
                resume(i, runs[i].throw, bad)
    if first < len(runs):
        raise outcome[first]
    return outcome


def classify_toward(integrand, anchor, points, tol=1e-8):
    """Classify ``lim integral(anchor -> x_j)`` as x_j runs through ``points``.

    Signed partial integrals, so the same routine serves limits approached
    from either side; the steps between consecutive points are integrated
    together by :func:`integrate_all`, at min(1e-11, tol * 1e-3).  Returns a
    :class:`ConvergenceVerdict` whose kind is the one
    :func:`~chebscale.extrapolate.classify_sequence` gives the partials.
    """
    quad_tol = min(1e-11, tol * 1e-3)
    points = list(points)
    partials = []
    errs = 0.0
    acc = 0.0
    steps = integrate_all(integrand, list(zip([anchor] + points[:-1], points)), quad_tol)
    for x, (inc, err) in zip(points, steps):
        acc += inc
        errs += err
        partials.append((x, acc))
    seq = [v for _, v in partials]
    res = classify_sequence(seq, tol)
    kind = res["kind"]
    value = res["value"] if kind == "converged" else math.nan
    err_est = res["confidence"] + errs if kind == "converged" else math.inf
    return ConvergenceVerdict(kind, value, err_est, partials)


# -- master grids and nested integrals -----------------------------------------

_GROWTH = 1.35  # cell-width ratio of the grid toward +inf
_FINITE_GRADE = 1e-12  # closest approach to a finite x0, as a fraction of the span
_NEST_TOL = 1e-9  # convergence tolerance of a to_x0 level's total (NestedIntegral)


class WorkGrid:
    """Shared cell decomposition of [T, x0) with cached node evaluations.

    Work coordinates are oriented so that x0 lies to the right; the mirrored
    orientation (x0 < T) is folded in by ``sigma = -1``.  All schedule probes
    passed via ``include`` land exactly on cell boundaries, so cumulative
    values at probes need no interpolation.  ``backbone`` indexes the nodes
    of the geometric construction without those inserts: tails toward x0 are
    extrapolated along them.  Toward +inf the cells reach max(50 * last
    include, 1e4), or only ``hard_cap`` (never short of the last include)
    where the integrands leave double range earlier.  The grid is fixed once
    built; nests only add entries to the ``values`` cache, which holds each
    function weakly: a tabulation lasts as long as its function (the
    bundle's weights), and a density closure does not keep its target alive.
    """

    def __init__(self, T, x0, include=(), hard_cap=None):
        self.T = float(T)
        self.x0 = float(x0)
        self.sigma = 1.0 if self.x0 > self.T else -1.0
        if self.sigma < 0 and math.isinf(self.x0):
            raise EvaluationError("mirrored orientation needs a finite x0")
        wT = self.sigma * self.T
        include_w = sorted({self.sigma * float(x) for x in include})
        if include_w and include_w[0] < wT:
            raise EvaluationError("grid points must lie on the x0 side of T")
        nodes = {wT}
        if math.isinf(self.x0):
            last = include_w[-1] if include_w else wT + 1.0
            far = max(50.0 * last, 1e4)
            if hard_cap is not None:
                far = min(far, max(hard_cap, last))
            h = max((include_w[0] - wT) / 4.0 if include_w else 0.25, 1e-3)
            w = wT
            while w < far:
                w = w + h
                nodes.add(w)
                h *= _GROWTH
        else:
            wx0 = self.sigma * self.x0
            span = wx0 - wT
            # uniform backbone so no cell spans a large fraction of the interval
            for k in range(1, 8):
                nodes.add(wT + span * k / 8.0)
            # geometric grading toward the limit point
            d = 0.5 * span
            while d > _FINITE_GRADE * span:
                nodes.add(wx0 - d)
                d *= 0.55
        backbone = np.array(sorted(nodes))
        nodes.update(include_w)
        arr = np.array(sorted(nodes))
        keep = np.concatenate(([True], np.diff(arr) > 1e-14 * np.maximum(1.0, np.abs(arr[1:]))))
        self.nodes = arr[keep]
        # indices of the geometric backbone nodes, i.e. all but the inserts
        self.backbone = np.nonzero(np.isin(self.nodes, backbone))[0]
        self.cells = len(self.nodes) - 1
        if self.cells < 4:
            raise EvaluationError("degenerate grid")
        lo = self.nodes[:-1][:, None]
        hi = self.nodes[1:][:, None]
        self.half = 0.5 * (hi - lo)
        self.mid = 0.5 * (hi + lo)
        self.cellnodes = self.mid + self.half * XGK[None, :]
        # the cell nodes in x, flat: the one node array every table is on
        self.xnodes = (self.sigma * self.cellnodes).ravel()
        self._value_cache = weakref.WeakKeyDictionary()

    def values(self, fn):
        """(cells, 15) array of fn evaluated at the cell nodes (x coords),
        through :func:`tabulate` on ``xnodes``.

        Nodes where the evaluation overflows come back as +inf; downstream
        reciprocal/product rules treat an overflowed weight as 1/w = 0.
        """
        got = self._value_cache.get(fn)
        if got is None:
            flat = tabulate(fn, self.xnodes, catch=(ArithmeticError, EvaluationError))
            got = np.nan_to_num(
                flat.reshape(self.cellnodes.shape),
                nan=0.0, posinf=math.inf, neginf=-math.inf,
            )
            self._value_cache[fn] = got
        return got

    def locate(self, w):
        i = int(np.searchsorted(self.nodes, w, side="right")) - 1
        slack = 1e-12 * max(1.0, abs(self.nodes[-1]))
        if i < 0 or w > self.nodes[-1] + slack:
            raise EvaluationError(f"point {self.sigma * w} outside the grid")
        return min(i, self.cells - 1)


def _median_abs(arr):
    finite = np.abs(arr[np.isfinite(arr)])
    return float(np.median(finite)) if finite.size else 0.0


def _combine(inv_w, nxt):
    """Elementwise (1/w) * next-level with underflow-aware zero handling."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = inv_w * nxt
    # 0 * inf from underflowed tails is a true zero, not a NaN
    mask = (nxt == 0.0) | (inv_w == 0.0)
    out[mask] = 0.0
    return out


class _Level:
    __slots__ = (
        "orientation", "gvals", "cell_ints", "cum", "suffix", "total",
        "rem_err", "quad_err", "cell_errs", "reliable_cells",
        "log_cells", "log_pieces", "log_rows", "log_scale", "log_after",
    )


class NestedIntegral:
    """Iterated integral with per-level cumulative tables on a WorkGrid.

    ``weights`` is the ordered list of level weights (the integrand of level
    l is ``(1/weights[l]) * I_{l+1}``, the innermost integrand being
    ``(1/weights[-1]) * density``); an entry of ``None`` means a unit weight.
    ``orientations[l]`` is "from_T" or "to_x0".  :meth:`value` reads either
    orientation, signed: a from_T level returns ``integral_T^x``, a to_x0
    level ``lim_{y->x0} integral_x^y``, negative increments included in the
    mirrored orientation.

    A to_x0 level, and only such a level, integrates its steep single-signed
    cells in log form (see the module docstring) and takes its total from
    the cumulative values at the last 12 backbone nodes.  That total must
    converge at ``_NEST_TOL`` (1e-9), the quadrature tolerance, not at the
    looser tolerance of the verdict the nest feeds: an error d in an inner
    tail reaches the next level out as d/w, and where 1/w is not integrable
    toward x0 (a unit weight, say) that level integrates it into a drift
    which reads as divergence.
    A divergent or oscillatory total raises a DivergentTail that is
    ``decisive`` only when it already shows on the level's resolved cells;
    a to_x0 level with a non-finite cell (weights that overflow on a grid
    built without ``hard_cap``) raises a non-decisive one.
    ``value_error`` sums the cells' embedded errors and, per to_x0 level,
    the uncertainty of the remainder beyond the grid.  On an outer from_T
    level of a deeper nest it is not a bound: the inner levels' errors and
    the rounding of the cumulative sums are not carried outward.  Its one
    reader, the (5.17) bound, reads a one-level to_x0 nest.
    """

    def __init__(self, grid, weights, orientations, density):
        if len(weights) != len(orientations) or not weights:
            raise EvaluationError("need one orientation per weight")
        self.grid = grid
        self.orientations = list(orientations)
        self.depth = len(weights)
        sigma = grid.sigma

        dens = grid.values(density)
        nxt = dens
        self.levels = []
        reliable = grid.cells
        for l in range(self.depth - 1, -1, -1):
            w = weights[l]
            if w is None:
                inv = np.ones_like(nxt)
            else:
                inv = grid.values(w)
                with np.errstate(divide="ignore", over="ignore"):
                    inv = 1.0 / inv
            g = _combine(inv, nxt)
            lev = _Level()
            lev.orientation = orientations[l]
            lev.gvals = g
            # d(work) = sigma * dx, so cell integrals in x pick up sigma;
            # overflowed far cells stay inf/nan and only matter for tails
            with np.errstate(invalid="ignore", over="ignore"):
                lev.cell_ints = sigma * (grid.half[:, 0] * (g @ WGK))
                gauss = sigma * (grid.half[:, 0] * (g @ WG15))
                lev.cell_errs = np.abs(lev.cell_ints - gauss)
            lev.log_cells = []
            if lev.orientation == "to_x0":
                self._resolve_steep_cells(lev)
            with np.errstate(invalid="ignore", over="ignore"):
                finite = lev.cell_errs[np.isfinite(lev.cell_errs)]
                lev.quad_err = float(np.sum(finite))
                lev.cum = np.concatenate(([0.0], np.cumsum(lev.cell_ints)))
            # reliability: the first cell whose embedded error rivals its
            # value marks the onset of unresolved (e.g. oscillatory) cells
            scale_c = _median_abs(lev.cell_ints) + 1e-300
            lev.reliable_cells = grid.cells
            for m in range(grid.cells):
                e = lev.cell_errs[m]
                v = abs(lev.cell_ints[m])
                if not math.isfinite(e) or e > 0.05 * max(v, 1e-6 * scale_c):
                    lev.reliable_cells = m
                    break
            reliable = min(reliable, lev.reliable_cells)
            if lev.orientation == "to_x0":
                lev.total, lev.rem_err = self._tail_total(lev, l)
                self._require_finite(lev, l)
                # backward accumulation keeps exponentially small tails exact
                suffix = np.empty(grid.cells + 1)
                suffix[-1], lev.rem_err = self._beyond_grid(lev)
                for m in range(grid.cells - 1, -1, -1):
                    suffix[m] = suffix[m + 1] + lev.cell_ints[m]
                lev.suffix = suffix
            else:
                lev.total, lev.rem_err = None, 0.0
                lev.suffix = None
            self.levels.insert(0, lev)
            if l:  # the outermost level's node values feed no level
                nxt = self._node_values(lev)
        self.value_error = sum(l.quad_err + l.rem_err for l in self.levels)
        self.reliable_cells = reliable
        edge = grid.nodes[min(reliable, grid.cells)]
        self.reliable_x = grid.sigma * edge

    # -- internals -------------------------------------------------------

    def _tail_total(self, lev, level):
        """Full integral to x0 at this level: grid sum plus extrapolated tail.

        A divergent or oscillatory verdict is decisive only when it already
        shows on the level's resolved cells (``reliable_cells``); one that
        needs the unresolved far cells raises a non-decisive DivergentTail.
        """
        cells = lev.cell_ints
        cum = lev.cum
        backbone = self.grid.backbone
        res = classify_sequence(cum[backbone][-12:].tolist(), tol=_NEST_TOL)
        if res["kind"].startswith("diverged") or res["kind"] == "oscillatory":
            m = lev.reliable_cells
            shown = res["kind"]
            if m < self.grid.cells:
                resolved = cum[backbone[backbone <= m]]
                shown = classify_sequence(resolved[-12:].tolist(), tol=_NEST_TOL)["kind"]
            if shown.startswith("diverged") or shown == "oscillatory":
                raise DivergentTail(
                    f"to_x0 level {level} fails convergence ({shown})", decisive=True
                )
            x = self.grid.sigma * self.grid.nodes[m]
            raise DivergentTail(
                f"to_x0 level {level} is {res['kind']} only on unresolved cells "
                f"from x={x:.6g}"
            )
        if res["kind"] == "converged":
            return float(res["value"]), float(res["confidence"])
        # inconclusive: accept the grid sum if the leftover is clearly tiny
        if abs(cells[-1]) <= 1e-12 * (1.0 + abs(cum[-1])):
            return float(cum[-1]), abs(cells[-1])
        raise DivergentTail(
            f"to_x0 level {level} did not stabilize on the grid (tail confidence "
            f"{res['confidence']:.2g} at tol {_NEST_TOL:g})"
        )

    def _require_finite(self, lev, level):
        """A to_x0 level with a non-finite cell has no tail anywhere before
        it (every suffix sum passes through that cell): raise a non-decisive
        DivergentTail naming where the cells stop being finite."""
        bad = ~np.isfinite(lev.cell_ints)
        if bad.any():
            x = self.grid.sigma * self.grid.nodes[int(np.argmax(bad))]
            raise DivergentTail(f"to_x0 level {level} has non-finite cells from x={x:.6g}")

    def _beyond_grid(self, lev):
        """The level's integral from the last node to x0, and its error.

        The geometric continuation of the last two cells is a rival estimate
        of that remainder: as for an unseconded claim in extrapolate_limit,
        the error is at least the gap between the two.
        """
        c1, c2 = lev.cell_ints[-1], lev.cell_ints[-2]
        rem = lev.total - lev.cum[-1]
        last_steep = lev.log_cells and lev.log_cells[-1] == self.grid.cells - 1
        slope = float(lev.log_rows[-1] @ _EDGE_SLOPE) if last_steep else 0.0
        if (slope < 0.0 and math.isinf(self.grid.x0)
                and abs(rem) <= lev.rem_err + 4e-16 * abs(lev.total)):
            # the total cannot see a tail below its own noise; an
            # exponentially decaying last cell continues as such
            edge = math.exp(float(lev.log_rows[-1] @ _EDGE_VALUE))
            rem = lev.log_scale[-1] * edge / -slope
        elif abs(rem) > 3.0 * (abs(c1) + abs(c2)):
            # that subtraction carries the extrapolation noise of the total;
            # when the last cells are far smaller, the noise would swamp the
            # true beyond-grid tail, so clamp to the cell scale
            sign = 1.0 if c1 >= 0 else -1.0
            rem = sign * 3.0 * (abs(c1) + abs(c2))
        err = lev.rem_err
        ratio = c1 / c2 if c2 != 0.0 else math.nan
        if 0.0 < ratio < 1.0:
            err = max(err, abs(rem - c1 * ratio / (1.0 - ratio)))
        return rem, err

    def _resolve_steep_cells(self, lev):
        """Integrate steep single-signed cells in log form where that form's
        embedded error beats the linear Gauss-Kronrod one.

        No new nodes: the 15 values already on the cell are enough, since
        log|g| of an exponentially steep cell is nearly polynomial.  A cell
        whose |g| varies by less than e^2 is left alone: there g itself is
        interpolated to rounding accuracy.  Per log cell (``log_cells``, in
        order) it keeps log|g| less its maximum (``log_rows``), the factor
        that maximum, the sign and the half-width bring (``log_scale``),
        and the integrals from each of the 17 gap edges to the cell's right
        edge (``log_after``); ``log_pieces`` is the sub-pieces per gap.
        """
        g = lev.gvals
        lev.log_cells, lev.log_pieces = [], 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logs = np.log(np.abs(g))
            top = logs.max(axis=1)
            rows = logs - top[:, None]
            steep = np.isfinite(rows).all(axis=1) & (rows.min(axis=1) < -2.0)
            steep &= (g.min(axis=1) > 0.0) | (g.max(axis=1) < 0.0)
        cells = np.nonzero(steep)[0]
        # every Kronrod sub-piece spans at most about four e-folds; a cell
        # that would need more than _MAX_PIECES is not smooth in log form
        slope = np.max(np.abs(np.diff(rows[cells], axis=1)) / np.diff(XGK), axis=1)
        need = slope * _MAX_GAP / 4.0
        cells = cells[need <= _MAX_PIECES]
        if not len(cells):
            return
        count = max(1, math.ceil(need[need <= _MAX_PIECES].max()))
        rows = rows[cells]
        with np.errstate(over="ignore", invalid="ignore"):
            scale = self.grid.sigma * np.sign(g[cells, 0]) * np.exp(top[cells])
            scale *= self.grid.half[cells, 0]
            parts = scale[:, None] * _exp_integrals(rows, _gap_rule(count, False))
            # embedded estimate, as Gauss within Kronrod: the same integral
            # of the interpolant on the 7 Gauss nodes only
            coarse = scale * _exp_integrals(rows[:, 1::2], _gap_rule(count, True)).sum(axis=1)
            totals = parts.sum(axis=1)
            errs = np.abs(totals - coarse)
            better = errs < lev.cell_errs[cells]
        cells = cells[better]
        lev.cell_ints[cells] = totals[better]
        lev.cell_errs[cells] = errs[better]
        lev.log_cells, lev.log_pieces = cells.tolist(), count
        lev.log_rows, lev.log_scale = rows[better], scale[better]
        lev.log_after = np.zeros((len(cells), len(_GAPS)))
        lev.log_after[:, :-1] = np.cumsum(parts[better, ::-1], axis=1)[:, ::-1]

    def _log_index(self, lev, i):
        """Position of cell i among the level's log cells, or -1."""
        k = bisect.bisect_left(lev.log_cells, i)
        return k if k < len(lev.log_cells) and lev.log_cells[k] == i else -1

    def _log_rest(self, lev, k, xi):
        """Integral from cell position xi to the right edge of the level's
        k-th log cell."""
        j = bisect.bisect_right(_GAP_EDGES, xi)
        if j == len(_GAP_EDGES):
            return 0.0
        edge = _GAP_EDGES[j]
        pieces = max(1, math.ceil(lev.log_pieces * (edge - xi) / _MAX_GAP))
        pts, weights = _kronrod_pieces(xi, edge, pieces)
        if pts[-1] >= edge and j <= len(XGK):
            # xi is within rounding of the Kronrod node at ``edge``, so the
            # samples round onto it: the sliver is its width times the
            # integrand at that node
            piece = (edge - xi) * math.exp(lev.log_rows[k][j - 1])
            return float(lev.log_after[k, j] + lev.log_scale[k] * piece)
        vals = np.exp(_interpolation(pts, XGK, _BW15) @ lev.log_rows[k])
        return float(lev.log_after[k, j] + lev.log_scale[k] * float(vals @ weights))

    def _node_values(self, lev):
        """This level's value at every cell node (used by the next level out).

        Partial-cell integrals are clamped by the cell's L1 quadrature: when
        an integrand collapses many orders of magnitude across one far cell,
        the interpolant's wiggle would otherwise dwarf the true tail.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            bound = self.grid.half * (np.abs(lev.gvals) @ WGK)[:, None]
            if lev.orientation == "from_T":
                # gvals (M,15) dot PART(15,15) -> integral over [cell lo, node]
                partial = self.grid.sigma * (self.grid.half * lev.gvals.dot(PART))
                partial = np.clip(partial, -bound, bound)
                return lev.cum[:-1][:, None] + partial
            # tail: integral over [node, cell hi] plus the suffix beyond;
            # built from small pieces so tiny far tails survive in doubles
            rest = self.grid.sigma * (self.grid.half * lev.gvals.dot(PARTC))
            rest = np.clip(rest, -bound, bound)
            out = lev.suffix[1:][:, None] + rest
            # single-signed cells admit a monotone envelope: the true tail
            # at an interior node lies between the suffix endpoints, which
            # contains interpolation wiggle on boundary-layer cells
            single = (lev.gvals.min(axis=1) >= 0.0) | (lev.gvals.max(axis=1) <= 0.0)
            lo = np.minimum(lev.suffix[:-1], lev.suffix[1:])[:, None]
            hi = np.maximum(lev.suffix[:-1], lev.suffix[1:])[:, None]
            clipped = np.clip(out, lo, hi)
            out = np.where(single[:, None], clipped, out)
            if lev.log_cells:
                steep = lev.log_cells
                out[steep] = lev.suffix[1:][steep, None] + lev.log_after[:, 1:-1]
            return out

    # -- queries -----------------------------------------------------------

    def value(self, x, level=0):
        """The level's signed integral at x per its orientation: from T to x
        (from_T) or from x to x0 (to_x0).  Only to_x0 levels have log cells."""
        lev = self.levels[level]
        to_x0 = lev.orientation == "to_x0"
        w = self.grid.sigma * x
        i = self.grid.locate(w)
        if w == self.grid.nodes[i]:
            return float(lev.suffix[i] if to_x0 else lev.cum[i])
        xi = (w - self.grid.mid[i, 0]) / self.grid.half[i, 0]
        xi = min(max(xi, -1.0), 1.0)
        k = self._log_index(lev, i)
        if k >= 0:
            return float(lev.suffix[i + 1] + self._log_rest(lev, k, xi))
        g = lev.gvals[i]
        powers = np.power(xi, np.arange(CARD_COEF.shape[1]))
        anti = float(g @ (CARD_COEF @ powers))
        if not to_x0:
            return float(lev.cum[i] + self.grid.sigma * self.grid.half[i, 0] * anti)
        full = float(g @ WGK)
        rest = self.grid.sigma * self.grid.half[i, 0] * (full - anti)
        bound = self.grid.half[i, 0] * float(np.abs(g) @ WGK)
        rest = min(max(rest, -bound), bound)
        out = float(lev.suffix[i + 1] + rest)
        if g.min() >= 0.0 or g.max() <= 0.0:
            lo = min(lev.suffix[i], lev.suffix[i + 1])
            hi = max(lev.suffix[i], lev.suffix[i + 1])
            out = min(max(out, lo), hi)
        return out

    def values(self, xs, level=0):
        """The array form of :meth:`value` (see :class:`NodeFn`): each entry
        is ``value(x, level)`` bit for bit, or NaN where ``x`` lies outside
        the grid or on a log cell, which :func:`tabulate` evaluates again.

        Each point keeps the scalar path's shapes: its powers go through
        one (15, 16) @ (16,) product and its cell through (15,) . (15,)
        dots, stacked; a single (N, 15) @ (15,) product may round
        differently."""
        lev = self.levels[level]
        grid = self.grid
        w = grid.sigma * np.asarray(xs, dtype=float)
        i = np.searchsorted(grid.nodes, w, side="right") - 1
        slack = 1e-12 * max(1.0, abs(grid.nodes[-1]))
        flagged = (i < 0) | (w > grid.nodes[-1] + slack)
        i = np.clip(i, 0, grid.cells - 1)
        if lev.log_cells:
            flagged |= np.isin(i, lev.log_cells)
        half = grid.half[i, 0]
        xi = np.clip((w - grid.mid[i, 0]) / half, -1.0, 1.0)
        g = lev.gvals[i]
        powers = np.power(xi[:, None], np.arange(CARD_COEF.shape[1]))
        card = np.matmul(CARD_COEF, powers[:, :, None])
        anti = np.matmul(g[:, None, :], card)[:, 0, 0]
        with np.errstate(all="ignore"):
            if lev.orientation == "from_T":
                out = lev.cum[i] + grid.sigma * half * anti
                at_node = lev.cum[i]
            else:
                full = np.matmul(g[:, None, :], WGK[:, None])[:, 0, 0]
                rest = grid.sigma * half * (full - anti)
                bound = half * np.matmul(np.abs(g)[:, None, :], WGK[:, None])[:, 0, 0]
                rest = np.minimum(np.maximum(rest, -bound), bound)
                out = lev.suffix[i + 1] + rest
                single = (g.min(axis=1) >= 0.0) | (g.max(axis=1) <= 0.0)
                lo = np.minimum(lev.suffix[i], lev.suffix[i + 1])
                hi = np.maximum(lev.suffix[i], lev.suffix[i + 1])
                out = np.where(single, np.minimum(np.maximum(out, lo), hi), out)
                at_node = lev.suffix[i]
        out = np.where(w == grid.nodes[i], at_node, out)
        return np.where(flagged, np.nan, out)
