"""The jet memo: one jet per point, lower orders served by truncation.

Truncation is exact because coefficient k of every jet operation depends
only on coefficients 0..k of its operands, so the memo's answer must equal
the direct evaluation bit for bit.
"""

import gc
import math
import struct
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chebscale import (ChebyshevScale, artifacts_for, check_complete, construct_from_source, expr,
                       make_schedule)
from chebscale.errors import EvaluationError
from chebscale.expr import FUNCTIONS, BinOp, Call, Const, ExpressionFunction, Neg, Var, eval_jet
from chebscale.factorization import _PrefixWronskians, _endpoint_schedule
from chebscale.jet import Jet, JetMemo, jet_variable, truncate
from chebscale.wronskian import wronskian_jet

# invalid draws: log/sqrt of negatives, overflow, and constant subtrees such
# as (-2)^0.5 that Python evaluates to a complex number
INVALID = (ArithmeticError, ValueError, TypeError, EvaluationError)

EXPONENTS = st.one_of(st.integers(-3, 4).map(float), st.floats(-2.5, 2.5)).map(Const)
LEAVES = st.one_of(st.just(Var()), st.floats(-3.0, 3.0).map(Const))


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(BinOp, st.just("^"), children, EXPONENTS),
        st.builds(BinOp, st.just("^"), children, children),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=8)
POINTS = st.floats(0.1, 5.0)


def bits(j):
    """The jet's anchor and coefficient bits, with every NaN read as the one
    NaN: a NaN's sign bit means nothing, while -0.0 and 0.0 stay apart."""
    coeffs = [math.nan if math.isnan(c) else c for c in j.coeffs]
    return j.anchor, struct.pack(f"{len(coeffs)}d", *coeffs)


def test_bits_equate_nans_but_not_signed_zeros():
    neg_nan = struct.unpack("d", struct.pack("Q", 0xFFF8000000000000))[0]
    assert math.copysign(1.0, neg_nan) < 0.0
    assert bits(Jet(1.0, [0.0, math.nan])) == bits(Jet(1.0, [0.0, neg_nan]))
    assert bits(Jet(1.0, [0.0, math.nan])) != bits(Jet(1.0, [-0.0, math.nan]))


@settings(max_examples=200, deadline=None)
@given(EXPRS, POINTS, st.integers(0, 8), st.data())
def test_memo_truncation_is_the_direct_jet(ast, x, top, data):
    order = data.draw(st.integers(0, top))
    f = ExpressionFunction(ast)
    try:
        f(x, top)
    except INVALID:
        assume(False)
    assert bits(f(x, order)) == bits(eval_jet(ast, x, order))


@settings(max_examples=80, deadline=None)
@given(st.lists(EXPRS, min_size=2, max_size=3), POINTS, st.integers(0, 5), st.data())
def test_prefix_wronskian_truncation_is_exact(asts, x, top, data):
    order = data.draw(st.integers(0, top))
    i = data.draw(st.integers(1, len(asts)))

    def fresh():
        return ChebyshevScale([ExpressionFunction(a) for a in asts], T=0.05, x0=math.inf)

    prefixes = _PrefixWronskians(fresh())
    try:
        high = prefixes.jet(i, x, top)
    except INVALID:
        assume(False)
    direct = wronskian_jet(fresh(), prefixes.indices(i), x, order)
    assert bits(truncate(high, order)) == bits(direct)
    assert bits(prefixes.jet(i, x, order)) == bits(direct)


# (members, T, x0, range of drawn points) of the appendix, cubic and taylor scales
SCALES = (
    (["exp(x)", "x", "log(x)", "1"], 4.0, math.inf, (4.0, 300.0)),
    (["1", "x", "x^2", "x^3"], -1.0, 0.0, (-0.999, -1e-6)),
    (["1", "1-x", "(1-x)^2", "(1-x)^3"], 0.0, 1.0, (1e-6, 0.999)),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCALES), st.booleans(), st.integers(1, 4), st.data())
def test_order0_wronskian_is_coefficient_0_of_the_jet(spec, reverse, i, data):
    # order 0 runs the minor expansion on floats; every higher order runs it
    # on jets, whose coefficient 0 is the same float arithmetic
    exprs, T, x0, (lo, hi) = spec
    x = data.draw(st.floats(lo, hi))

    def fresh():
        return ChebyshevScale.from_exprs(exprs, T=T, x0=x0)

    indices = _PrefixWronskians(fresh(), reverse=reverse).indices(i)
    value = wronskian_jet(fresh(), indices, x, 0).value
    scale = fresh()
    for m in (1, 2, 3):
        assert wronskian_jet(scale, indices, x, m).coeffs[0] == value


def test_raw_member_is_evaluated_once_per_point():
    calls = []

    def square(x, order):
        calls.append((x, order))
        v = jet_variable(x, order)
        return v * v

    sc = ChebyshevScale([square, "1"], T=1.0, x0=math.inf)
    assert isinstance(sc.functions[0], JetMemo) and sc.functions[0].name == "phi_1"
    top = sc.phi_jet(1, 2.0, 3)
    assert [sc.phi_jet(1, 2.0, m).coeffs for m in (0, 2)] == [(4.0,), (4.0, 4.0, 1.0)]
    for _ in range(5):
        assert sc.phi_jet(1, 2.0, 3) is top
        assert sc.phi_value(1, 2.0) == 4.0
    assert calls == [(2.0, 3)]
    # a higher order recomputes once and replaces the stored jet
    assert sc.phi_jet(1, 2.0, 5).coeffs == (4.0, 4.0, 1.0, 0.0, 0.0, 0.0)
    assert sc.phi_jet(1, 2.0, 4).coeffs == (4.0, 4.0, 1.0, 0.0, 0.0)
    assert calls == [(2.0, 3), (2.0, 5)]
    assert len(sc.functions[0]._jets) == 1


def test_a_failed_evaluation_stores_nothing():
    memo = JetMemo(lambda x, order: 1.0 / (jet_variable(x, order) - 2.0))
    with pytest.raises(EvaluationError):
        memo(2.0, 1)
    assert memo._jets == {}
    assert memo(3.0, 1).coeffs == (1.0, -1.0)


def test_bundle_memos_hold_no_grid_node(monkeypatch):
    # grid tables go through array forms, which keep no point; the memos of
    # the members, prefix Wronskians and chain weights hold only points
    # asked for one at a time (probes and schedules)
    memos = []
    init = JetMemo.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        memos.append(self)

    monkeypatch.setattr(JetMemo, "__init__", recorded)
    scale = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
    art = artifacts_for(scale, make_schedule(4.0, math.inf, 10, 1.22))
    f = ExpressionFunction("2*exp(x) - x + 3*log(x) + 5")
    check_complete(f, art)
    asked = set(art.probes) | set(art.class_points) | set(art.schedule.points)
    for endpoint in ("x0", "T"):
        asked |= set(_endpoint_schedule((scale.T, scale.x0), endpoint).points)
    nodes = set((art.grid.sigma * art.grid.cellnodes).ravel().tolist()) - asked
    names = {m.name for m in memos}
    assert {"W(1, 2, 3, 4)", "polya_q:r2", "exp(x)"} <= names
    for memo in memos + [f]:
        assert not nodes & set(memo._jets), memo.name


# order-0 reads at both signed zeros, negatives and magnitudes past exp's
# range, so the division guard, the domain errors and overflow are reached
WIDE_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-800.0, 800.0))


def outcome(read):
    """The bits of the jet ``read`` returns, or the type and message of what
    it raises."""
    try:
        return bits(read())
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(EXPRS, WIDE_POINTS)
def test_order0_read_is_the_jet_bit_for_bit(ast, x):
    f = ExpressionFunction(ast)  # never raises, whatever its exponents
    assert outcome(lambda: f(x, 0)) == outcome(lambda: eval_jet(ast, x, 0))


@pytest.mark.parametrize(
    "text",
    # constant exponents without a value: complex, overflow, 0 to a negative
    # power, and inf and nan exponents, which jpow cannot round
    ["x+(0-2)^0.5", "x^10^400", "x^0^(0-1)", "log(x)^(1e308*10)", "x^(0*(1e308*10))"],
)
def test_an_exponent_without_a_value_raises_when_read(text):
    f = ExpressionFunction(text)
    for x in (2.0, 0.0, -0.0, -3.0):
        raised = outcome(lambda: f(x, 0))
        assert raised == outcome(lambda: eval_jet(f.ast, x, 0))
        assert isinstance(raised[0], type) and issubclass(raised[0], Exception)


def test_a_read_target_is_freed_without_the_collector():
    gc.disable()
    try:
        f = ExpressionFunction("exp(-x)*x^2 + 1/x")
        f(2.5, 0)
        freed = weakref.ref(f)
        del f
        assert freed() is None
    finally:
        gc.enable()


def test_targets_are_jet_memos_without_an_instance_dict(appendix_artifacts):
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(appendix_artifacts, [1.0, 0.0, 2.0, 1.0], psi)
    for target in (psi, g, g.remainder):
        assert isinstance(target, JetMemo)
        assert not hasattr(target, "__dict__")


def test_order0_compiles_once_at_the_first_scalar_read(monkeypatch):
    compiled = []
    order0 = expr.order0

    def counted(node):
        compiled.append(node)
        return order0(node)

    monkeypatch.setattr(expr, "order0", counted)
    f = ExpressionFunction("exp(-x)*x^2 + 1/x")
    f(2.5, 3)  # higher orders read the jet
    assert compiled == []
    for i in range(50):
        f(1.0 + i / 7.0, 0)
    assert [node for node in compiled if node is f.ast] == [f.ast]
