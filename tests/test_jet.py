import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chebscale.errors import DivisionByZeroJet, DomainErrorJet, OrderExceeded
from chebscale.jet import (
    Jet,
    antiderivative,
    derivative,
    jet_constant,
    jet_derivative,
    jet_variable,
    jexp,
    jlog,
    jpow,
    jsin,
    jsqrt,
)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_variable_examples():
    assert jet_variable(2.0, 3).coeffs == (2.0, 1.0, 0.0, 0.0)
    assert jet_variable(0.0, 0).coeffs == (0.0,)
    assert jet_variable(-5.0, 2).coeffs == (-5.0, 1.0, 0.0)


def test_apply_examples():
    x0 = jet_variable(0.0, 3)
    e = jexp(x0)
    assert all(close(a, b) for a, b in zip(e.coeffs, (1, 1, 0.5, 1 / 6)))
    t = jet_variable(2.0, 2)
    sq = t * t
    assert sq.coeffs == (4.0, 4.0, 1.0)
    one = jet_variable(1.0, 3)
    lg = jlog(one)
    assert all(close(a, b) for a, b in zip(lg.coeffs, (0, 1, -0.5, 1 / 3)))


def test_derivative_extraction_examples():
    assert close(jet_derivative(Jet(0.0, (1, 1, 0.5, 1 / 6)), 2), 1.0)
    assert close(jet_derivative(Jet(2.0, (4, 4, 1)), 0), 4.0)
    assert close(jet_derivative(Jet(1.0, (0, 1, -0.5, 1 / 3)), 3), 2.0)
    with pytest.raises(OrderExceeded):
        jet_derivative(Jet(0.0, (1.0, 2.0)), 2)


def test_division_by_zero_and_domain_errors():
    x = jet_variable(0.0, 2)
    with pytest.raises(DivisionByZeroJet):
        jet_constant(1.0, 0.0, 2) / x
    with pytest.raises(DomainErrorJet):
        jlog(x)
    with pytest.raises(DomainErrorJet):
        jsqrt(jet_constant(-1.0, 0.0, 2))


def _random_jet(rng, anchor, order):
    return Jet(anchor, [rng.uniform(-2, 2) for _ in range(order + 1)])


def test_leibniz_rule_on_random_jets():
    rng = random.Random(12345)
    for _ in range(50):
        order = rng.randint(2, 8)
        a = _random_jet(rng, 1.5, order)
        b = _random_jet(rng, 1.5, order)
        prod = a * b
        for k in range(order + 1):
            direct = jet_derivative(prod, k)
            leib = sum(
                math.comb(k, j) * jet_derivative(a, j) * jet_derivative(b, k - j)
                for j in range(k + 1)
            )
            assert close(direct, leib, 1e-12)


def test_exp_log_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        order = rng.randint(1, 8)
        coeffs = [rng.uniform(0.5, 3.0)] + [rng.uniform(-1, 1) for _ in range(order)]
        a = Jet(2.0, coeffs)
        back = jexp(jlog(a))
        for x, y in zip(a.coeffs, back.coeffs):
            assert close(x, y, 1e-12)


def test_polynomial_exactness_by_convolution():
    # multiplying polynomial jets must match direct coefficient convolution
    rng = random.Random(99)
    for _ in range(30):
        deg = rng.randint(1, 4)
        p = [rng.uniform(-1, 1) for _ in range(deg + 1)]
        q = [rng.uniform(-1, 1) for _ in range(deg + 1)]
        conv = [0.0] * (2 * deg + 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                conv[i + j] += pi * qj
        a = Jet(0.0, p + [0.0] * deg)
        b = Jet(0.0, q + [0.0] * deg)
        got = (a * b).coeffs
        assert all(close(x, y, 1e-14) for x, y in zip(got, conv))


def test_pow_const_integer_and_real():
    x = jet_variable(3.0, 2)
    assert jpow(x, 2).coeffs == (9.0, 6.0, 1.0)
    inv = jpow(x, -1)
    assert close(inv.value, 1 / 3)
    half = jpow(jet_variable(4.0, 2), 0.5)
    assert close(half.coeffs[0], 2.0) and close(half.coeffs[1], 0.25)
    with pytest.raises(DomainErrorJet):
        jpow(jet_constant(-2.0, 0.0, 2), 0.5)


def test_sin_cos_derivative_chain():
    x = jet_variable(0.7, 6)
    s = jsin(x)
    for k in range(6):
        expect = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)][
            k % 4
        ](0.7)
        assert close(jet_derivative(s, k), expect, 1e-12)


def test_derivative_antiderivative_inverse():
    rng = random.Random(4)
    a = _random_jet(rng, 1.0, 6)
    d = derivative(a, 2)
    assert d.order == 4
    back = antiderivative(antiderivative(d, jet_derivative(a, 1)), a.value)
    for x, y in zip(a.coeffs, back.coeffs):
        assert close(x, y, 1e-13)


def _loop_product(a, b):
    """The product's coefficients by the plain convolution loop: the
    reference the jet product must match bit for bit."""
    m = min(len(a), len(b))
    out = []
    for k in range(m):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
        out.append(s)
    return out


def _same(got, want):
    """Equal values with equal signs (so -0.0 is not 0.0); any NaN matches
    any NaN, since the interpreter's own float paths may set a NaN's sign
    bit either way."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return bool(np.array_equal(np.isnan(got), nan)
                and np.array_equal(got[~nan], want[~nan])
                and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


_COEFF = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
)


@given(st.data())
def test_jet_product_is_the_loop_bit_for_bit(data):
    nodes = data.draw(st.sampled_from([None, 1, 3]), label="nodes")
    orders = data.draw(st.tuples(st.integers(0, 6), st.integers(0, 6)), label="orders")
    if data.draw(st.booleans(), label="equal orders"):
        orders = (orders[0], orders[0])
    anchor = 2.0 if nodes is None else np.linspace(1.0, 2.0, nodes)
    jets = []
    for order in orders:
        if nodes is None:
            coeffs = [data.draw(_COEFF) for _ in range(order + 1)]
        else:
            coeffs = [np.array([data.draw(_COEFF) for _ in range(nodes)])
                      for _ in range(order + 1)]
        jets.append(Jet(anchor, coeffs))
    a, b = jets
    with np.errstate(all="ignore"):
        got = (a * b).coeffs
        want = _loop_product(a.coeffs, b.coeffs)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert _same(g, w)
