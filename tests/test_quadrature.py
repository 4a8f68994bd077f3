import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as scipy_integrate

from chebscale import integrate, make_schedule
from chebscale.errors import DivergentTail, EvaluationError
from chebscale.quadrature import NestedIntegral, NodeFn, WorkGrid, classify_toward, tabulate


def test_integrate_examples():
    v, e = integrate(lambda t: t * t, 0.0, 1.0, tol=1e-12)
    assert abs(v - 1 / 3) < 1e-12
    v, e = integrate(math.log, 0.0, 1.0, tol=1e-11)
    assert abs(v + 1.0) < 1e-9
    v, e = integrate(math.sin, 0.0, math.pi, tol=1e-12)
    assert abs(v - 2.0) < 1e-11


def test_integrate_matches_scipy_on_random_polynomials():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(5)]
        f = lambda t, c=coeffs: sum(ci * t**i for i, ci in enumerate(c))
        a, b = sorted((rng.uniform(-3, 3), rng.uniform(-3, 3)))
        if b - a < 0.1:
            continue
        mine, _ = integrate(f, a, b, tol=1e-12)
        ref, _ = scipy_integrate.quad(f, a, b)
        assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))


def test_integrate_signed_orientation():
    v, _ = integrate(lambda t: 1.0, 2.0, 1.0)
    assert abs(v + 1.0) < 1e-14


def test_integrate_rejects_improper():
    with pytest.raises(EvaluationError):
        integrate(lambda t: 1.0, 0.0, math.inf)


def test_classify_improper_examples():
    sched = make_schedule(1.0, math.inf, 12, 2.0)
    v = classify_toward(lambda t: t**-2, 1.0, sched.points)
    assert v.kind == "converged" and abs(v.value - 1.0) < 1e-9
    v = classify_toward(lambda t: 1.0 / t, 1.0, sched.points)
    assert v.kind == "diverged_plus"
    v = classify_toward(lambda t: t**-0.5, 1.0, sched.points)
    assert v.kind == "diverged_plus"


def test_classify_type1_condition_on_appendix_weight():
    # the reciprocal of a linear type-I weight diverges toward +inf
    sched = make_schedule(2.0, math.inf, 12, 2.0)
    v = classify_toward(lambda t: 1.0 / t, 2.0, sched.points)
    assert v.kind == "diverged_plus"


def test_classify_oscillatory():
    sched = make_schedule(1.0, math.inf, 12, 1.5)
    v = classify_toward(math.sin, 1.0, sched.points)
    assert v.kind in ("oscillatory", "inconclusive")


def test_classify_cauchy_property():
    sched = make_schedule(1.0, math.inf, 12, 2.0)
    v = classify_toward(lambda t: t**-2, 1.0, sched.points)
    deltas = [abs(b[1] - a[1]) for a, b in zip(v.partial_values, v.partial_values[1:])]
    assert deltas[-1] < deltas[0] * 1e-3


def test_classify_linearity():
    sched = make_schedule(1.0, math.inf, 14, 2.0)
    f = lambda t: t**-2
    g = lambda t: t**-1.5
    a, b = 2.0, 0.5
    vf = classify_toward(f, 1.0, sched.points)
    vg = classify_toward(g, 1.0, sched.points)
    combo = classify_toward(lambda t: a * f(t) + b * g(t), 1.0, sched.points, tol=1e-5)
    assert combo.kind == "converged"
    # single-mode tails extrapolate to machine accuracy; the two-mode mix is
    # honest about its extrapolation floor
    assert abs(combo.value - (a * vf.value + b * vg.value)) < 1e-5 * abs(combo.value)
    assert abs(combo.value - (a * vf.value + b * vg.value)) < 10 * combo.error_estimate


def test_iterated_from_T_triangle():
    nest = NestedIntegral(WorkGrid(0.0, 4.0, include=[2.0]), [None, None],
                          ["from_T", "from_T"], lambda t: 1.0)
    v = nest.value(2.0)
    assert abs(v - 2.0) < 1e-9


def test_iterated_single_tail():
    nest = NestedIntegral(WorkGrid(1.0, math.inf, include=[1.0]), [None], ["to_x0"],
                          lambda t: t**-2)
    v = nest.value(1.0)
    assert abs(v - 1.0) < 1e-9


def test_iterated_double_tail_closed_form():
    # double tail of e^-t from 1: inner tail is e^-t, outer integral e^-1
    nest = NestedIntegral(WorkGrid(1.0, math.inf, include=[1.0]), [None, None],
                          ["to_x0", "to_x0"], lambda t: math.exp(-t))
    v = nest.value(1.0)
    assert abs(v - math.exp(-1)) < 1e-8


def test_iterated_divergent_tail_raises():
    with pytest.raises(DivergentTail) as info:
        NestedIntegral(WorkGrid(1.0, math.inf, include=[2.0]), [None], ["to_x0"],
                       lambda t: 1.0 / t)
    # the divergence shows on resolved cells
    assert info.value.decisive is True


def test_fubini_on_separable_density():
    # swapping the two from_T levels of a separable nonnegative density
    # with swapped weights reproduces the value
    w1 = lambda t: 1.0 + t
    w2 = lambda t: 2.0 + t * t
    dens = lambda t: math.exp(-t)
    grid = WorkGrid(0.5, 8.0, include=[3.0])
    a = NestedIntegral(grid, [w1, w2], ["from_T", "from_T"], dens).value(3.0)

    # oracle via scipy double quadrature of the same iterated integral
    inner = lambda t: scipy_integrate.quad(
        lambda s: dens(s) / w2(s), 0.5, t
    )[0]
    ref, _ = scipy_integrate.quad(lambda t: inner(t) / w1(t), 0.5, 3.0)
    assert abs(a - ref) < 1e-8 * max(1.0, abs(ref))

    swapped = NestedIntegral(grid, [w2, w1], ["from_T", "from_T"], dens).value(3.0)
    inner2 = lambda t: scipy_integrate.quad(lambda s: dens(s) / w1(s), 0.5, t)[0]
    ref2, _ = scipy_integrate.quad(lambda t: inner2(t) / w2(t), 0.5, 3.0)
    assert abs(swapped - ref2) < 1e-8 * max(1.0, abs(ref2))


def test_mirrored_signed_tail():
    nest = NestedIntegral(WorkGrid(0.4, 0.0, include=[0.2]), [None], ["to_x0"],
                          lambda t: 1.0)
    v = nest.value(0.2)
    assert abs(v + 0.2) < 1e-10


def test_nested_level_values_match_direct_quadrature():
    grid = WorkGrid(1.0, math.inf, include=[2.0, 4.0, 8.0, 16.0])
    nest = NestedIntegral(grid, [lambda t: t, None], ["to_x0", "to_x0"],
                          lambda t: math.exp(-t))
    # level 1 at x: tail of e^-t = e^-x
    for x in (2.0, 4.0, 8.0):
        assert abs(nest.value(x, 1) - math.exp(-x)) < 1e-9
        ref, _ = scipy_integrate.quad(lambda t: math.exp(-t) / t, x, 60.0)
        assert abs(nest.value(x, 0) - ref) < 1e-8 * max(ref, 1e-12)


def test_steep_inner_tail_matches_mpmath():
    # The inner tail of e^-t t^-5 falls by up to e^-75 across a far cell of
    # the appendix grid, and the outer weight e^-t multiplies it back by e^t,
    # so the inner level must keep its relative accuracy at every node.
    mpmath = pytest.importorskip("mpmath")
    probes = make_schedule(4.0, math.inf, 10, 1.22).points
    grid = WorkGrid(4.0, math.inf, include=probes, hard_cap=292.0)
    nest = NestedIntegral(grid, [lambda t: math.exp(-t), None], ["to_x0", "to_x0"],
                          lambda t: math.exp(-t) * t**-5)
    for x in (5.0, 9.079, 29.94):
        # inner: integral_x^inf e^-s s^-5 ds = x^-4 E_5(x); by Fubini the
        # outer integral is x^-4 (1/4 - e^x E_5(x))
        mx = mpmath.mpf(x)
        inner = float(mx**-4 * mpmath.expint(5, mx))
        ref = float(mx**-4 * (mpmath.mpf(1) / 4 - mpmath.exp(mx) * mpmath.expint(5, mx)))
        assert abs(nest.value(x, 1) - inner) < 1e-12 * inner
        assert abs(nest.value(x) - ref) <= nest.value_error
    assert nest.value_error < 1e-8 * nest.value(5.0)


def test_from_T_levels_keep_no_log_cells():
    # NestedIntegral.value reads log cells on to_x0 levels only, which holds
    # because a from_T level is left as tabulated even where its integrand is
    # steep and single-signed, as e^-x is on the far cells of this grid
    probes = make_schedule(4.0, math.inf, 10, 1.22).points
    grid = WorkGrid(4.0, math.inf, include=probes, hard_cap=292.0)
    nest = NestedIntegral(grid, [None, None], ["from_T", "from_T"], lambda t: math.exp(-t))
    assert [lev.log_cells for lev in nest.levels] == [[], []]
    inner = lambda t: integrate(lambda s: math.exp(-s), 4.0, t, tol=1e-13)[0]
    for x in (4.5, 7.3, 20.1, 150.7):
        # value_error sums the cells' embedded errors only; the rounding of
        # the cumulative sums and the interpolation at x come on top
        ref = inner(x)
        assert abs(nest.value(x, 1) - ref) <= nest.value_error + 1e-12 * ref
        ref, _ = integrate(inner, 4.0, x, tol=1e-13)
        assert abs(nest.value(x) - ref) <= nest.value_error + 1e-12 * ref


def test_divergence_only_on_unresolved_cells_is_not_decisive():
    # t^-2 up to x=30, then an oscillation no far cell can resolve: the
    # growth past x=30 does not make the level decisively divergent
    grid = WorkGrid(1.0, math.inf, include=[2.0, 4.0, 8.0, 16.0])
    dens = lambda t: t**-2 if t < 30.0 else t * (2.0 + math.sin(t * t))
    with pytest.raises(DivergentTail) as info:
        NestedIntegral(grid, [None], ["to_x0"], dens)
    assert info.value.decisive is False
    assert "level 0" in str(info.value) and "unresolved cells from x=" in str(info.value)


def test_non_finite_tail_cells_raise():
    # without hard_cap the appendix grid reaches x ~ 1e4, where the outer
    # weight e^-t underflows and its reciprocal overflows: the outer tail
    # has no finite value at any probe, so the nest refuses, non-decisively
    probes = make_schedule(4.0, math.inf, 10, 1.22).points
    grid = WorkGrid(4.0, math.inf, include=probes)
    with pytest.raises(DivergentTail) as info:
        NestedIntegral(grid, [lambda t: math.exp(-t), None], ["to_x0", "to_x0"],
                       lambda t: math.exp(-t) * t**-5)
    assert info.value.decisive is False
    assert "level 0 has non-finite cells from x=529.563" in str(info.value)


def _steep_nest():
    # to_x0 over to_x0: the inner tail of e^-t t^-5 is steep on the far
    # cells, so the inner level integrates them in log form
    probes = make_schedule(4.0, math.inf, 10, 1.22).points
    grid = WorkGrid(4.0, math.inf, include=probes, hard_cap=292.0)
    return NestedIntegral(grid, [lambda t: math.exp(-t), None], ["to_x0", "to_x0"],
                          lambda t: math.exp(-t) * t**-5)


ARRAY_FORM_NESTS = {
    "from_T": lambda: NestedIntegral(
        WorkGrid(1.0, math.inf, include=[2.0, 4.0, 8.0, 16.0]),
        [lambda t: t, lambda t: t * t], ["from_T", "from_T"], lambda t: math.exp(-t)),
    "to_x0 log cells": _steep_nest,
    "mirrored": lambda: NestedIntegral(
        WorkGrid(0.4, 0.0, include=[0.3, 0.2, 0.1]),
        [lambda t: 1.0 + t, None], ["from_T", "to_x0"], lambda t: math.cos(t) - 0.5),
    "mixed toward 0": lambda: NestedIntegral(
        WorkGrid(-1.0, 0.0, include=[-0.5, -0.25, -0.125]),
        [None, lambda t: 2.0 - t], ["to_x0", "from_T"], lambda t: t * t - 0.1),
}


@pytest.fixture(scope="module")
def array_form_nests():
    return {name: build() for name, build in ARRAY_FORM_NESTS.items()}


def _scalar_or_error(nest, x, level):
    try:
        return nest.value(x, level)
    except EvaluationError as exc:
        return exc


def _assert_array_form(nest, xs, level):
    """Every finite entry is the scalar value bit for bit; a flagged one is a
    point outside the grid or on a log cell; tabulate is the scalar loop."""
    lev = nest.levels[level]
    got = nest.values(xs, level)
    for x, v in zip(xs.tolist(), got.tolist()):
        ref = _scalar_or_error(nest, x, level)
        if math.isfinite(v):
            assert struct.pack("d", v) == struct.pack("d", ref), (x, v, ref)
        else:
            w = nest.grid.sigma * x
            i = min(max(int(np.searchsorted(nest.grid.nodes, w, side="right")) - 1, 0),
                    nest.grid.cells - 1)
            assert isinstance(ref, EvaluationError) or i in lev.log_cells, (x, ref)
    fn = NodeFn(lambda x: nest.value(x, level), lambda xs: nest.values(xs, level))
    refs = [_scalar_or_error(nest, x, level) for x in xs.tolist()]
    first_error = next((r for r in refs if isinstance(r, EvaluationError)), None)
    if first_error is None:
        table = tabulate(fn, xs)
        assert [struct.pack("d", v) for v in table.tolist()] == [struct.pack("d", r) for r in refs]
    else:
        with pytest.raises(EvaluationError, match=str(first_error)):
            tabulate(fn, xs)


@pytest.mark.parametrize("name", sorted(ARRAY_FORM_NESTS))
def test_nest_array_form_is_the_value_at_every_grid_node(array_form_nests, name):
    nest = array_form_nests[name]
    grid = nest.grid
    for level in range(nest.depth):
        _assert_array_form(nest, grid.xnodes, level)  # the Kronrod nodes
        _assert_array_form(nest, grid.sigma * grid.nodes, level)  # the cell edges


def test_the_steep_nest_has_log_cells(array_form_nests):
    nest = array_form_nests["to_x0 log cells"]
    assert nest.levels[1].log_cells
    flagged = ~np.isfinite(nest.values(nest.grid.xnodes, 1))
    assert flagged.sum() == 15 * len(nest.levels[1].log_cells)


def test_the_steep_nest_is_finite_at_its_log_cell_nodes(array_form_nests):
    # a Kronrod node of a log cell, approached from within rounding, leaves
    # a sub-interval whose samples round onto the node
    nest = array_form_nests["to_x0 log cells"]
    lev = nest.levels[1]
    xs = (nest.grid.sigma * nest.grid.cellnodes[lev.log_cells]).ravel()
    assert len(xs) == 240
    assert all(math.isfinite(nest.value(x, 1)) for x in xs.tolist())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ARRAY_FORM_NESTS)), st.data())
def test_nest_array_form_is_the_value_at_drawn_points(array_form_nests, name, data):
    nest = array_form_nests[name]
    lo, hi = sorted((nest.grid.T, nest.grid.sigma * nest.grid.nodes[-1]))
    span = hi - lo
    inside = st.floats(lo, hi)
    outside = st.floats(lo - span, lo, exclude_max=True) | st.floats(hi + 1e-6 * span, hi + span)
    xs = data.draw(st.lists(inside | outside if data.draw(st.booleans()) else inside,
                            min_size=1, max_size=40))
    level = data.draw(st.integers(0, nest.depth - 1))
    _assert_array_form(nest, np.array(xs), level)
