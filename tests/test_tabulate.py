"""Node-array tables equal the node-by-node loop they replace.

``quadrature.tabulate`` calls an evaluator's array form once per node array
and sends every node it flags back through the scalar evaluator, in node
order.  So a table, its +inf entries and a raised exception must be exactly
those of a loop over the nodes, for every evaluator with an array form:
scale members, prefix Wronskians, chain weights, L[f] and the densities
built from it.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebscale import ChebyshevScale, construct_from_source
from chebscale.errors import EvaluationError, WronskianDegenerate
from chebscale.expansion import _abs, _guarded_ratio
from chebscale.expr import ExpressionFunction
from chebscale.factorization import _PrefixWronskians, apply_full_operator
from chebscale.quadrature import NodeFn, tabulate

from test_memo import EXPRS

CATCH = (ArithmeticError, EvaluationError)  # what a grid table reads as +inf


def loop(fn, xs):
    """The reference: one scalar call per node, as grid tables were built."""
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        try:
            out[i] = fn(x)
        except CATCH:
            out[i] = math.inf
    return out


def grid_loop(fn, grid):
    """The loop as a grid table, where NaN reads 0 (``WorkGrid.values``)."""
    out = loop(fn, grid.xnodes)
    return np.nan_to_num(out, nan=0.0, posinf=math.inf, neginf=-math.inf)


def assert_same_table(fn, xs):
    got = tabulate(fn, xs, catch=CATCH)
    assert np.array_equal(got, loop(fn, xs), equal_nan=True)


@pytest.fixture(scope="module")
def bundles(appendix_artifacts, cubic_artifacts, taylor_artifacts):
    return {"appendix": appendix_artifacts, "cubic": cubic_artifacts,
            "taylor": taylor_artifacts}


def draw_nodes(data, art):
    """A window of the grid's nodes plus points drawn inside the interval."""
    grid = art.grid.xnodes
    start = data.draw(st.integers(0, len(grid) - 1))
    stop = min(len(grid), start + data.draw(st.integers(1, 60)))
    lo, hi = sorted((art.scale.T, art.probes[-1]))
    extra = data.draw(st.lists(st.floats(lo, hi), max_size=8))
    return np.concatenate([grid[start:stop], extra])


COEFFS = st.lists(st.floats(0.5, 3.0) | st.floats(-3.0, -0.5), min_size=4, max_size=4)
SOURCES = st.sampled_from(["exp(-x)", "x^-3", "exp(-x)*cos(x)", "sin(x)", "0*x"])


def kernel(art, coeffs):
    names = [m.name for m in art.scale.functions]
    return ExpressionFunction(" + ".join(f"{c!r}*({t})" for c, t in zip(coeffs, names)))


@settings(max_examples=150, deadline=None)
@given(EXPRS, st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12))
def test_expression_tables_are_the_loop(ast, xs):
    assert_same_table(NodeFn.of(ExpressionFunction(ast)), np.array(xs))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["appendix", "cubic", "taylor"]), COEFFS, SOURCES, st.data())
def test_bundle_tables_are_the_loop(bundles, name, coeffs, source, data):
    art = bundles[name]
    xs = draw_nodes(data, art)
    scale = art.scale
    fns = [NodeFn.of(m) for m in scale.functions]
    for reverse in (False, True):
        prefixes = _PrefixWronskians(scale, reverse)
        fns += [
            NodeFn(lambda x, i=i, p=prefixes: p.jet(i, x, 0).value,
                   lambda xs, i=i, p=prefixes: p.jet(i, xs, 0).value)
            for i in range(1, scale.n + 1)
        ]
    fns += [NodeFn.of(w) for w in art.chain_q.weights + art.chain_p.weights]
    lf = art.lf_evaluator(kernel(art, coeffs))
    psi = ExpressionFunction(source)
    g = construct_from_source(art, coeffs, psi, mode="from_T")
    densities = [art.lf_evaluator(g, source=psi.value), art.lf_evaluator(g)]
    for d in [lf] + densities:
        fns += [d, _abs(d), _guarded_ratio(d, art.q_vals[art.n]),
                _guarded_ratio(_abs(d), art.p_vals[art.n])]
    for fn in fns:
        assert_same_table(fn, xs)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(["appendix", "cubic", "taylor"]), COEFFS)
def test_grid_lf_tables_are_the_loop(bundles, name, coeffs):
    # the grid's own nodes: L[f] from the target's record over the bundle's
    # one denominator table
    art = bundles[name]
    f = kernel(art, coeffs)
    got = art.grid.values(art.lf_evaluator(f)).ravel()
    assert np.array_equal(got, grid_loop(lambda x: apply_full_operator(art.scale, f, x),
                                         art.grid))


def test_overflow_mid_grid_gives_the_loops_inf_nodes(appendix_artifacts):
    art = appendix_artifacts
    f = ExpressionFunction("exp(x*x)")  # overflows from x ~ 26.6 on
    got = art.grid.values(art.lf_evaluator(f)).ravel()
    assert np.array_equal(got, grid_loop(lambda x: apply_full_operator(art.scale, f, x),
                                         art.grid))
    assert np.isinf(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("members,xs", [
    # W(x, (x-1)^3) = (x-1)^2 (2x+1) is exactly 0 at x = 1, a node
    (["x", "(x-1)^3"], np.linspace(0.5, 1.5, 101)),
    # a repeated member: W is rounding noise at every node, not 0 at the first
    (["sin(x)", "x", "sin(x)"], np.linspace(1.0, 2.0, 41)[4:]),
])
def test_degenerate_denominator_raises_as_the_loop(members, xs, monkeypatch):
    sc = ChebyshevScale.from_exprs(members, T=0.0, x0=math.inf)
    f = ExpressionFunction("exp(x)")
    lf = NodeFn(lambda x: apply_full_operator(sc, f, x),
                lambda xs: apply_full_operator(sc, f, xs))
    with pytest.raises(WronskianDegenerate) as looped:
        loop(lf, xs)
    wronskian = importlib.import_module("chebscale.wronskian")
    real = wronskian.bordered_wronskian
    calls = []
    monkeypatch.setattr(wronskian, "bordered_wronskian",
                        lambda *a: calls.append(a[-1]) or real(*a))
    with pytest.raises(WronskianDegenerate) as tabulated:
        tabulate(lf, xs, catch=CATCH)
    assert str(tabulated.value) == str(looped.value)
    # only the first flagged node went through the scalar path
    assert len(calls) == 1 and f"x={calls[0]}" in str(looped.value)


def test_chain_weight_table_makes_no_scalar_wronskian_call(appendix_artifacts, monkeypatch):
    factorization = importlib.import_module("chebscale.factorization")
    real = factorization.wronskian_jet
    points = []

    def counted(scale, indices, x, order):
        points.append(x)
        return real(scale, indices, x, order)

    monkeypatch.setattr(factorization, "wronskian_jet", counted)
    art = appendix_artifacts
    for w in art.chain_q.weights[1:] + art.chain_p.weights[1:]:
        art.grid.values(NodeFn.of(w))  # a new function: a new table
    assert points and all(isinstance(x, np.ndarray) for x in points)


def test_the_scalar_path_reads_python_floats():
    # a flagged node is evaluated as a Python float, as in a point-by-point
    # loop: 1/(x - 2) raises at x = 2 rather than reading inf
    raised = {}
    got = tabulate(NodeFn(lambda x: 1.0 / (x - 2.0), None), np.array([1.0, 2.0]), raised=raised)
    assert got[0] == -1.0 and math.isnan(got[1])
    assert list(raised) == [1] and isinstance(raised[1], ZeroDivisionError)
