import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebscale import (
    ChebyshevScale,
    check_levin_hierarchy,
    make_schedule,
    wronskian,
    wronskian_jet,
)
from chebscale.errors import EvaluationError, IndexConditionViolated, WronskianDegenerate
from chebscale.factorization import _polya_chain, _PrefixWronskians
from chebscale.wronskian import (_NODE_BLOCK, _derivative_matrix, det_pivoted, prefix_sets,
                                 wronskian_table)
from chebscale.jet import derivative, jet_derivative
from chebscale.expr import ExpressionFunction


def _oracle_det(columns):
    """Independent oracle: closed-form derivative columns + numpy det."""
    return float(np.linalg.det(np.array(columns).T))


def _exp_col(x, k):
    return [math.exp(x)] * k


def _pow_col(x, k, p):
    out = []
    c = 1.0
    for r in range(k):
        out.append(c * x ** (p - r) if p - r >= 0 or x != 0 else 0.0)
        c *= p - r
    return out


def _log_col(x, k):
    return [math.log(x)] + [
        ((-1) ** (r - 1)) * math.factorial(r - 1) / x**r for r in range(1, k)
    ]


def _const_col(x, k):
    return [1.0] + [0.0] * (k - 1)


@pytest.mark.parametrize("order, x", [(0, 7.0), (2, 7.0), (0, np.linspace(6.0, 9.0, 16))],
                         ids=["order 0", "order 2", "node array"])
def test_wronskian_jet_leaves_nothing_for_the_collector(order, x):
    # the minor expansion's memo must be freed by reference counting alone:
    # a reference cycle would keep its jets or node arrays until gc runs
    sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
    wronskian_jet(sc, (1, 2, 3, 4), 5.0, order)  # builds the lazy state once
    gc.collect()
    gc.disable()
    try:
        w = wronskian_jet(sc, (1, 2, 3, 4), x, order)
        assert np.all(np.isfinite(w.value))
        del w
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_monomial_wronskian_constant(poly_scale):
    sc = ChebyshevScale.from_exprs(["1", "x", "x^2"], T=-2.0, x0=0.0)
    for x in (-1.5, -0.7, -0.2):
        assert abs(wronskian(sc, (1, 2, 3), x).value - 2.0) < 1e-12


def test_linear_combo_wronskian_value():
    sc = ChebyshevScale.from_exprs(["1", "x + x^2", "x^2"], T=-2.0, x0=0.0)
    for x in (-1.5, -0.7, -0.2):
        assert abs(wronskian(sc, (1, 2), x).value - (1 + 2 * x)) < 1e-12


def test_appendix_wronskian_matches_oracle(appendix_scale):
    got = wronskian(appendix_scale, (1, 2, 3, 4), 2.0)
    oracle = _oracle_det(
        [_exp_col(2.0, 4), _pow_col(2.0, 4, 1), _log_col(2.0, 4), _const_col(2.0, 4)]
    )
    assert abs(got.value - oracle) < 1e-12 * abs(oracle)
    # frozen value computed from the oracle ahead of the build
    assert abs(got.value - 3.6945280494653248) < 1e-12


def test_levin_hierarchy_examples(appendix_scale):
    # slow log-over-power ratios need a wide schedule (still inside the
    # range where exp(x) stays finite)
    sched = make_schedule(4.0, math.inf, 8, 2.0)
    pairs = [((1, 2), (1, 3)), ((1, 3), (1, 4)), ((1, 2, 3), (1, 2, 4))]
    out = check_levin_hierarchy(appendix_scale, pairs, sched)
    assert all(p["passed"] for p in out)


def test_levin_index_condition_gate(appendix_scale, appendix_schedule):
    with pytest.raises(IndexConditionViolated):
        check_levin_hierarchy(appendix_scale, [((2, 3), (1, 4))], appendix_schedule)
    with pytest.raises(IndexConditionViolated):
        check_levin_hierarchy(appendix_scale, [((1, 2), (1, 2))], appendix_schedule)


def test_scaling_identity_randomized(appendix_scale):
    # W(psi*phi_i1, ..., psi*phi_ik) = psi^k W(phi_i1, ..., phi_ik)
    rng = random.Random(42)
    base = ["exp(x)", "x", "log(x)", "1"]
    trials = 0
    for _ in range(100):
        k = rng.randint(2, 4)
        subset = sorted(rng.sample(range(4), k))
        c = rng.uniform(0.2, 2.0)
        psi_text = f"({c}*x + 1)"
        scaled = ChebyshevScale.from_exprs(
            [f"{psi_text}*({t})" for t in base], T=4.0, x0=math.inf
        )
        x = rng.uniform(4.5, 40.0)
        lhs = wronskian(scaled, tuple(i + 1 for i in subset), x)
        if lhs.conditioning > 1e12:
            continue
        rhs = wronskian(appendix_scale, tuple(i + 1 for i in subset), x)
        psi = c * x + 1
        expect = psi**k * rhs.value
        assert abs(lhs.value - expect) < 1e-9 * max(abs(expect), 1e-300)
        trials += 1
    assert trials >= 80


def test_column_swap_negates(appendix_scale):
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(2, 4)
        subset = rng.sample(range(1, 5), k)
        x = rng.uniform(4.5, 30.0)
        w = wronskian(appendix_scale, tuple(subset), x)
        if w.conditioning > 1e12:
            continue
        swapped = list(subset)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        ws = wronskian(appendix_scale, tuple(swapped), x)
        assert abs(w.value + ws.value) < 1e-12 * max(abs(w.value), 1e-300)


def test_karlin_identity_randomized():
    # W(g.., f1, f2) * W(g..) == W(W(g.., f1), W(g.., f2)), the outer
    # Wronskian computed by differentiating inner Wronskian jets
    pool = ["exp(x)", "exp(-x)", "x^2", "x", "log(x)", "sin(x)", "sqrt(x)"]
    rng = random.Random(11)
    done = 0
    attempts = 0
    while done < 100 and attempts < 400:
        attempts += 1
        m = rng.randint(1, 2)
        names = rng.sample(pool, m + 2)
        sc = ChebyshevScale.from_exprs(names, T=1.2, x0=math.inf)
        x = rng.uniform(1.5, 4.0)
        g_ix = tuple(range(1, m + 1))
        inner1 = wronskian_jet(sc, g_ix + (m + 1,), x, 1)
        inner2 = wronskian_jet(sc, g_ix + (m + 2,), x, 1)
        lhs_a = wronskian(sc, g_ix + (m + 1, m + 2), x)
        lhs_b = wronskian(sc, g_ix, x)
        if lhs_a.conditioning > 1e12 or lhs_b.conditioning > 1e12:
            continue
        lhs = lhs_a.value * lhs_b.value
        rhs = (
            inner1.value * jet_derivative(inner2, 1)
            - inner2.value * jet_derivative(inner1, 1)
        )
        scale_ref = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) < 1e-8 * scale_ref
        done += 1
    assert done >= 100


def test_wronskian_jet_consistent_with_derivative():
    # d/dx of the Wronskian jet matches finite differences of values
    sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)"], T=1.0, x0=math.inf)
    x, h = 3.0, 1e-5
    wj = wronskian_jet(sc, (1, 2, 3), x, 1)
    f0 = wronskian(sc, (1, 2, 3), x - h).value
    f1 = wronskian(sc, (1, 2, 3), x + h).value
    fd = (f1 - f0) / (2 * h)
    assert abs(jet_derivative(wj, 1) - fd) < 1e-4 * max(abs(fd), 1.0)


def test_zero_rule_reads_the_elimination_noise():
    # W(x^3, x^2, x, 1) = -12 exactly; its column-norm product is about x^6,
    # so a floor proportional to it called the value zero from x ~ 479 on
    poly = ChebyshevScale.from_exprs(["x^3", "x^2", "x", "1"], T=1.0, x0=math.inf)
    for x in (10.0, 486.0293591548983, 5000.0, 1e5):
        ev = wronskian(poly, (1, 2, 3, 4), x)
        assert abs(abs(ev.value) - 12.0) < 1e-9 and not ev.vanishes
    # exactly singular matrices leave a pivot of pure rounding noise
    for exprs in (["exp(x)", "exp(x)"], ["exp(x)", "2*exp(x)"],
                  ["x^3", "x", "2*x^3"], ["sin(x)", "x", "sin(x)"],
                  ["log(x)", "x^2", "x", "3*x^2"]):
        sc = ChebyshevScale.from_exprs(exprs, T=1.0, x0=math.inf)
        for x in (1.5, 7.3, 30.1, 86.03):
            assert wronskian(sc, tuple(range(1, len(exprs) + 1)), x).vanishes


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_stacked_elimination_is_the_scalar_one(k):
    # each matrix of a stack: value, conditioning, column-norm product and
    # floor of the scalar elimination bit for bit, NaN at a non-finite entry
    rng = np.random.default_rng(k)
    a = rng.normal(size=(400, k, k)) * 10.0 ** rng.integers(-6, 6, size=(400, 1, k))
    a[::7, :, k - 1] = a[::7, :, 0]  # exactly singular
    a[1::11, 0, :] = 0.0  # a zero row
    a[2::13, k - 1, 0] = np.inf
    # small integers: exact pivot ties in every column (the first largest
    # wins) and multipliers that are exactly 0
    a[3::5] = rng.integers(-2, 3, size=a[3::5].shape)
    a[4::19, 1:, 0] = 0.0  # every multiplier of the first column is 0
    if k > 1:
        # column 1 a copy of column 0 in exact arithmetic: the pivot of
        # column 1 is 0 after the first elimination step
        a[6::23] = rng.integers(-2, 3, size=a[6::23].shape)
        a[6::23, :, 1] = a[6::23, :, 0]
    rows = [[a[:, r, c] for c in range(k)] for r in range(k)]
    stacked = det_pivoted(rows)
    late_zero_pivots = ties = 0
    for i in range(len(a)):
        scalar = det_pivoted(a[i].tolist())
        if np.isfinite(a[i]).all():
            assert [float(s[i]).hex() for s in stacked] == [v.hex() for v in map(float, scalar)]
            col0 = np.abs(a[i, :, 0])
            ties += col0.max() > 0 and (col0 == col0.max()).sum() > 1
            late_zero_pivots += scalar[0] == 0.0 and col0.max() > 0
        else:
            assert math.isnan(stacked[0][i])
    if k > 1:
        assert ties and late_zero_pivots
    # a stack longer than one block of nodes: each node's results as alone
    tiled = det_pivoted([[np.tile(a[:, r, c], 3) for c in range(k)] for r in range(k)])
    assert len(tiled[0]) > _NODE_BLOCK
    assert all(np.array_equal(np.tile(s, 3), t, equal_nan=True) for s, t in zip(stacked, tiled))


# the four benchmark scales, the appendix from T = 2 (W(phi_1, phi_2,
# phi_3) vanishes near x = 3.351) and two exactly singular scales, each
# with points that sit on its edges: exp(x) overflows past x = 709.78
_EXP_EDGE = [709.0, 709.78, 709.79, 710.0, 750.0]
_TABLE_SCALES = [
    (["exp(x)", "x", "log(x)", "1"], 4.0, math.inf, _EXP_EDGE),
    (["exp(x)", "x", "log(x)", "1"], 2.0, math.inf, [3.35, 3.351, 3.3512, 703.6874417766404]),
    (["1", "x", "x^2", "x^3"], -1.0, 0.0, [-1e-300, -1e-160]),
    (["x^3", "x^2", "x", "1"], 1.0, math.inf, [1e100, 1e103]),
    (["1", "1-x", "(1-x)^2", "(1-x)^3"], 0.0, 1.0, [1.0 - 1e-16]),
    (["exp(x)", "2*exp(x)"], 1.0, math.inf, _EXP_EDGE),
    (["x^3", "x", "2*x^3"], 1.0, math.inf, [1e100]),
]


def _bits(ev):
    return ev.point, ev.value.hex(), ev.conditioning.hex(), ev.floor.hex()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wronskian_table_is_the_scalar_wronskian(data):
    # each entry the scalar evaluation bit for bit; left out exactly where
    # the scalar evaluation raises or a derivative entry overflows (x^3 at
    # 1e103: the scalar elimination then returns a value of no meaning,
    # which the caller's scalar evaluation still gives)
    exprs, T, x0, edges = data.draw(st.sampled_from(_TABLE_SCALES))
    n = len(exprs)
    lo, hi = (T, 800.0) if math.isinf(x0) else sorted((T, x0))
    inside = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    points = data.draw(st.lists(st.one_of(inside, st.sampled_from(edges)), min_size=1,
                                max_size=12))
    drawn = st.permutations(range(1, n + 1)).flatmap(
        lambda p: st.integers(1, n).map(lambda k: tuple(p[:k])))
    sets = prefix_sets(n) + data.draw(st.lists(drawn, max_size=6))
    table = wronskian_table(ChebyshevScale.from_exprs(exprs, T, x0), sets, points)
    scale = ChebyshevScale.from_exprs(exprs, T, x0)  # fresh: no memo shared
    for indices in sets:
        for x in points:
            try:
                ev = wronskian(scale, indices, x)
            except (ArithmeticError, EvaluationError):
                assert (indices, x) not in table
            else:
                matrix = _derivative_matrix(scale, indices, x, len(indices))
                overflows = not np.isfinite(matrix).all()
                assert ((indices, x) in table) != overflows
                if not overflows:
                    assert _bits(table[indices, x]) == _bits(ev)


@pytest.mark.parametrize("exprs", [["exp(x)", "2*exp(x)"], ["x^3", "x", "2*x^3"]])
@pytest.mark.parametrize("reverse", [False, True], ids=["leading", "reversed"])
def test_a_vanishing_table_entry_raises_the_scalar_message(exprs, reverse):
    schedule = make_schedule(1.0, math.inf, 8, 2.0)
    full = tuple(range(1, len(exprs) + 1))
    scale = ChebyshevScale.from_exprs(exprs, 1.0, math.inf)
    table = wronskian_table(scale, [full, full[::-1]], schedule.points)
    assert all(table[s, x].vanishes for s in (full, full[::-1]) for x in schedule.points)

    def message(scan):
        scale = ChebyshevScale.from_exprs(exprs, 1.0, math.inf)
        with pytest.raises(WronskianDegenerate) as err:
            _polya_chain(scale, _PrefixWronskians(scale, reverse), "polya", schedule, scan)
        return str(err.value)

    # the chain's own table, and the scalar evaluations an empty scan leaves
    assert message(None) == message({})
    assert "~ 0 at x=" in message(None)
