"""Batched adaptive quadrature equals integrating one interval at a time.

``quadrature.integrate_all`` tabulates, per refinement round, the GK15 cells
of every unfinished interval as one node array.  Its values, error
estimates and exceptions must be exactly those of the adaptive loop run
interval after interval, which is kept here as the reference.
"""

import heapq
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebscale import build_type2_chain, classify_canonicity
from chebscale import quadrature
from chebscale.errors import EvaluationError, ToleranceNotMet
from chebscale.quadrature import WG15, WGK, XGK, NodeFn, classify_toward, integrate_all, tabulate


def gk15(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = tabulate(f, mid + half * XGK)
    k = half * float(WGK @ vals)
    g = half * float(WG15 @ vals)
    return k, abs(k - g)


def integrate_one(f, a, b, tol=1e-10, max_intervals=4096):
    """The adaptive loop on one interval, one cell per ``tabulate`` call."""
    if a == b:
        return 0.0, 0.0, 0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    if math.isinf(a) or math.isinf(b):
        raise EvaluationError("infinite endpoints go through classify_toward")
    val, err = gk15(f, a, b)
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
            total_err += neg_err
            continue
        v1, e1 = gk15(f, a0, mid)
        v2, e2 = gk15(f, mid, b0)
        total_val += v1 + v2 - v0
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, a0, mid, v1))
        heapq.heappush(heap, (-e2, mid, b0, v2))
        splits += 1
    return sign * total_val, max(total_err, 0.0), splits


def integrate_each(f, intervals, tol=1e-10, max_intervals=4096):
    """The reference for ``integrate_all``: one interval after another."""
    return [integrate_one(f, a, b, tol, max_intervals)[:2] for a, b in intervals]


def bits(v):
    """Bits of a float, any NaN read as the one NaN."""
    return struct.pack("d", math.nan if math.isnan(v) else v)


def rows(results):
    return [tuple(map(bits, r)) for r in results]


def outcome(call):
    """What ``call`` returns, or the type, message and payload bits of what
    it raises."""
    try:
        return call()
    except Exception as exc:
        payload = [getattr(exc, k, None) for k in ("value", "error")]
        return type(exc), str(exc), [None if v is None else bits(v) for v in payload]


class Integrand:
    """c * x^p * exp(-d x) + e * sin(w x), raising on a window of x; its
    array form flags that window and every node whose digits hit ``every``."""

    def __init__(self, c, p, d, e, w, window, every, array):
        self.c, self.p, self.d, self.e, self.w = c, p, d, e, w
        self.window, self.every = window, every
        self.node_fn = NodeFn(self, self.on_nodes) if array else self

    def __call__(self, x):
        lo, hi = self.window
        if lo <= x <= hi:
            raise ValueError(f"no value at x={float(x)!r}")
        return self.c * x**self.p * math.exp(-self.d * x) + self.e * math.sin(self.w * x)

    def on_nodes(self, xs):
        out = []
        for x in xs:
            flagged = self.every and int(abs(x) * 1e6) % self.every == 0
            try:
                out.append(math.nan if flagged else self(x))
            except ValueError:
                out.append(math.nan)
        return out


INTEGRANDS = st.builds(
    Integrand,
    c=st.floats(-3.0, 3.0),
    p=st.floats(-2.0, 2.0),
    d=st.floats(0.0, 1.0),
    e=st.floats(-1.0, 1.0),
    w=st.floats(0.0, 5.0),
    window=st.one_of(st.just((math.inf, math.inf)),
                     st.floats(0.1, 20.0).map(lambda lo: (lo, lo + 0.05))),
    every=st.sampled_from([0, 2, 3, 7]),
    array=st.booleans(),
)
POINTS = st.lists(st.floats(0.1, 20.0), min_size=1, max_size=8)


@settings(max_examples=150, deadline=None)
@given(INTEGRANDS, POINTS, st.floats(1e-14, 1e-6), st.integers(0, 6) | st.just(4096))
@example(  # the first interval runs out of budget after two rounds; the second
    # raises in the first round
    Integrand(1.0, 0.5, 0.0, 1.0, 5.0, (6.0, 6.05), 0, True), [0.1, 5.0, 7.0], 1e-13, 2,
)
def test_integrate_all_is_the_interval_by_interval_loop(f, points, tol, max_intervals):
    intervals = list(zip(points, points[1:] + points[:1]))
    want = outcome(lambda: rows(integrate_each(f.node_fn, intervals, tol, max_intervals)))
    got = outcome(lambda: rows(integrate_all(f.node_fn, intervals, tol, max_intervals)))
    assert got == want


def test_the_first_interval_in_order_raises():
    f = Integrand(1.0, 0.5, 0.0, 1.0, 5.0, (6.0, 6.05), 0, True)
    # the second interval raises in the first round (its midpoint is 6.0),
    # the first one later, when its budget runs out
    with pytest.raises(ToleranceNotMet) as info:
        integrate_all(f.node_fn, [(0.1, 5.0), (5.0, 7.0)], 1e-13, 2)
    with pytest.raises(ToleranceNotMet) as alone:
        integrate_one(f.node_fn, 0.1, 5.0, 1e-13, 2)
    assert (str(info.value), info.value.value) == (str(alone.value), alone.value.value)
    with pytest.raises(ValueError, match=r"x=6\.0'?$"):
        integrate_all(f.node_fn, [(0.1, 1.0), (5.0, 7.0)], 1e-13)
    # the first interval meets its window only on a refined cell
    f = Integrand(1.0, 0.5, 0.0, 1.0, 5.0, (0.61, 0.63), 0, True)
    with pytest.raises(ValueError, match="x=0.6292344072003028"):
        integrate_all(f.node_fn, [(0.5, 4.5), (0.6, 0.64)], 1e-13)
    with pytest.raises(EvaluationError, match="infinite endpoints"):
        integrate_all(f.node_fn, [(1.0, 2.0), (2.0, math.inf), (0.6, 0.64)])


def test_the_left_cell_of_a_split_raises_first():
    def f(x):  # no value at the centres of both halves of [0, 1]
        if abs(x - 0.25) < 1e-3 or abs(x - 0.75) < 1e-3:
            raise ValueError(f"no value at x={float(x)!r}")
        return math.sin(5.0 * x)

    want = outcome(lambda: integrate_each(f, [(0.0, 1.0)], 1e-13))
    assert want[:2] == (ValueError, "no value at x=0.25")
    assert outcome(lambda: integrate_all(f, [(0.0, 1.0)], 1e-13)) == want


def verdict_bits(v):
    """A ConvergenceVerdict as kind and bits."""
    return (v.kind, bits(v.value), bits(v.error_estimate),
            *[bits(p) for xs in v.partial_values for p in xs])


@settings(max_examples=60, deadline=None)
@given(INTEGRANDS, st.floats(0.1, 2.0), st.floats(1.2, 2.0), st.integers(6, 12))
def test_classify_toward_is_the_interval_by_interval_loop(f, anchor, ratio, count):
    pts = [anchor * ratio**j for j in range(1, count + 1)]
    got = outcome(lambda: verdict_bits(classify_toward(f.node_fn, anchor, pts, tol=1e-3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "integrate_all", integrate_each)
        want = outcome(lambda: verdict_bits(classify_toward(f.node_fn, anchor, pts, tol=1e-3)))
    assert got == want


def test_canonicity_tabulates_once_per_round(appendix_scale, appendix_schedule, monkeypatch):
    """At most one ``tabulate`` call per refinement round per reciprocal
    weight and endpoint: a round is one split of every unfinished interval."""
    chain = build_type2_chain(appendix_scale, appendix_schedule)
    calls, steps = [], []
    counting = lambda *args, **kw: calls.append(len(args[1])) or tabulate(*args, **kw)

    def recording(g, anchor, pts, **kw):
        steps.append((g, list(zip([anchor] + pts[:-1], pts)), kw))
        return classify_toward(g, anchor, pts, **kw)

    monkeypatch.setattr(quadrature, "tabulate", counting)
    monkeypatch.setattr("chebscale.factorization.classify_toward", recording)
    out = classify_canonicity(chain)
    monkeypatch.undo()
    assert out["x0"] == "type_II"
    assert len(steps) == 2 * (chain.n - 1)  # both endpoints
    rounds = 0
    for g, intervals, kw in steps:
        tol = min(1e-11, kw["tol"] * 1e-3)
        rounds += 1 + max(integrate_one(g, a, b, tol)[2] for a, b in intervals)
    assert len(calls) <= rounds
    assert sum(calls) % 15 == 0
