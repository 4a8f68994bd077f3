import math
import random

import pytest

from chebscale import (
    apply_chain,
    build_principal_system,
    operator_constants,
    verify_hierarchy,
    wronskian,
)
from chebscale.errors import NotConstant
from chebscale.expr import ExpressionFunction
from chebscale.operators import detect_constant
from chebscale.scale import hierarchy_from_values
from chebscale.wronskian import bordered_wronskian


def test_unit_constants_on_appendix(appendix_artifacts):
    art = appendix_artifacts
    for k in range(art.n):
        rec = art.constants.constancy[f"M_{k}[phi_{k + 1}]"]
        assert rec["spread"] < 1e-8 * (1.0 + abs(rec["value"]))
        assert abs(abs(rec["value"]) - 1.0) < 1e-8


def test_b_constants_on_appendix(appendix_artifacts):
    art = appendix_artifacts
    for k in range(art.n):
        rec = art.constants.constancy[f"L_{k}[phi_{4 - k}]"]
        assert rec["spread"] < 1e-8 * (1.0 + abs(rec["value"]))
    assert abs(art.constants.b[3] - 1.0) < 1e-9  # phi_4 = 1 = P_0 here


def test_order_zero_operator(appendix_artifacts):
    art = appendix_artifacts
    f = ExpressionFunction("x^2")
    for x in (5.0, 9.0):
        expect = x * x * art.chain_q.weights[0].value(x)
        assert abs(apply_chain(art.chain_q, f, x, level=0) - expect) < 1e-12 * abs(expect)


def test_kernel_properties(appendix_artifacts):
    art = appendix_artifacts
    rng = random.Random(31)
    head = ["exp(x)", "x", "log(x)"]
    tail = ["1", "log(x)", "x"]
    for k in range(1, art.n):
        # M_k annihilates span(phi_1..phi_k); the yardstick is the input
        # magnitude at the probe (huge leading terms carry huge rounding)
        coeffs = [rng.uniform(-2, 2) for _ in range(k)]
        f = ExpressionFunction(
            "+".join(f"({c})*({t})" for c, t in zip(coeffs, head))
        )
        for x in (5.0, 11.1, 24.5):
            img = art.M(k, f, x)
            input_mag = abs(f(x, 0).value) + 1.0
            assert abs(img) < 1e-7 * input_mag
        # L_k annihilates span(phi_n..phi_{n-k+1})
        coeffs = [rng.uniform(-2, 2) for _ in range(k)]
        g = ExpressionFunction(
            "+".join(f"({c})*({t})" for c, t in zip(coeffs, tail[:k]))
        )
        for x in (5.0, 11.1, 24.5):
            img = art.L(k, g, x)
            input_mag = abs(g(x, 0).value) + 1.0
            assert abs(img) < 1e-7 * input_mag


def test_identity_3_38(appendix_artifacts):
    # M_k[u] = eps_k W(phi_1..phi_k, u) / W(phi_1..phi_k, phi_{k+1})
    art = appendix_artifacts
    rng = random.Random(5)
    u = ExpressionFunction("sin(x) + x^2*exp(-x) + sqrt(x)")
    for k in range(1, art.n):
        eps = art.constants.epsilon[k]
        for _ in range(4):
            x = rng.uniform(4.5, 20.0)
            lhs = art.M(k, u, x)
            num = bordered_wronskian(art.scale, tuple(range(1, k + 1)), u, x)[0]
            den = bordered_wronskian(
                art.scale, tuple(range(1, k + 1)), art.scale.functions[k], x
            )[0]
            rhs = eps * num / den
            assert abs(lhs - rhs) < 1e-7 * max(abs(lhs), 1e-9)


def test_identity_4_14(appendix_artifacts):
    # L_k[u] = b_{n-k} W(phi_n..phi_{n-k+1}, u) / W(phi_n..phi_{n-k})
    art = appendix_artifacts
    n = art.n
    rng = random.Random(6)
    u = ExpressionFunction("sin(x) + x^2*exp(-x) + sqrt(x)")
    for k in range(1, n):
        b = art.constants.b[n - k - 1]
        for _ in range(4):
            x = rng.uniform(4.5, 20.0)
            lhs = art.L(k, u, x)
            rev = tuple(range(n, n - k, -1))
            num = bordered_wronskian(art.scale, rev, u, x)[0]
            den = wronskian(art.scale, tuple(range(n, n - k - 1, -1)), x).value
            rhs = b * num / den
            assert abs(lhs - rhs) < 1e-7 * max(abs(lhs), 1e-9)


def test_bordered_wronskian_examples(appendix_artifacts):
    art = appendix_artifacts
    # repeated column vanishes
    got = bordered_wronskian(art.scale, (1, 2), art.scale.functions[0], 6.0)[0]
    ref = abs(wronskian(art.scale, (1, 2), 6.0).value)
    assert abs(got) < 1e-10 * (1.0 + ref)
    # proportionality: M_k[f]/W(phi_1..phi_k, f) is independent of f
    f1 = ExpressionFunction("sin(x) + x^3")
    f2 = ExpressionFunction("exp(-x) + log(x)*x")
    for k in (1, 2, 3):
        x = 7.4
        r1 = art.M(k, f1, x) / bordered_wronskian(art.scale, tuple(range(1, k + 1)), f1, x)[0]
        r2 = art.M(k, f2, x) / bordered_wronskian(art.scale, tuple(range(1, k + 1)), f2, x)[0]
        assert abs(r1 - r2) < 1e-7 * max(abs(r1), 1e-12)


def test_zero_remainder_expansion_images(appendix_artifacts):
    # a pure kernel combination maps to an exact expansion in the bordered
    # Wronskian scale
    art = appendix_artifacts
    f = ExpressionFunction("exp(x) + x + log(x) + 1")
    for k in (1, 2):
        for x in (5.0, 9.1):
            lhs = bordered_wronskian(art.scale, (k,), f, x)[0]
            rhs = sum(
                bordered_wronskian(art.scale, (k,), art.scale.functions[i], x)[0]
                for i in range(art.n) if i != k - 1
            )
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_hierarchy_preservation(appendix_artifacts):
    # image hierarchies carry log-over-power ratios: verify on a wide
    # schedule (within double range), not the narrow checker window
    from chebscale import make_schedule

    art = appendix_artifacts
    pts = list(make_schedule(4.0, math.inf, 8, 2.0).points)
    for k in range(art.n - 1):
        m_images = [
            [apply_chain(art.chain_q, art.scale.functions[i - 1], x, level=k) for x in pts]
            for i in range(k + 1, art.n + 1)
        ]
        ok, diag = hierarchy_from_values(m_images)
        assert ok, f"M_{k} images break the hierarchy: {diag}"
        l_images = [
            [apply_chain(art.chain_p, art.scale.functions[i - 1], x, level=k) for x in pts]
            for i in range(1, art.n - k + 1)
        ]
        ok, diag = hierarchy_from_values(l_images)
        assert ok, f"L_{k} images break the hierarchy: {diag}"


def test_lemma_41_ladder(appendix_artifacts):
    art = appendix_artifacts
    ps = build_principal_system(art.scale, art.chain_p)
    # L_k[P_k] == 1 and L_k[P_i] << L_k[P_{i+1}] toward x0
    for k in range(art.n - 1):
        for x in (5.0, 12.0):
            assert abs(apply_chain(art.chain_p, ps.P[k], x, level=k) - 1.0) < 1e-9
        for i in range(k, art.n - 2):
            lo = [apply_chain(art.chain_p, ps.P[i], x, level=k) for x in (6.1, 24.5)]
            hi = [apply_chain(art.chain_p, ps.P[i + 1], x, level=k) for x in (6.1, 24.5)]
            assert abs(lo[1] / hi[1]) < abs(lo[0] / hi[0])


def test_composition_consistency(appendix_artifacts):
    # one differentiation-plus-multiplication step applied to level k-1
    # samples reproduces level k (finite differences)
    art = appendix_artifacts
    f = ExpressionFunction("sqrt(x) + exp(-x)*x^3")
    x, h = 9.0, 1e-6
    for k in (1, 2, 3):
        lo = art.M(k - 1, f, x - h)
        hi = art.M(k - 1, f, x + h)
        fd = (hi - lo) / (2 * h)
        expect = art.chain_q.weights[k].value(x) * fd
        got = art.M(k, f, x)
        assert abs(got - expect) < 1e-5 * max(abs(got), 1.0)


def test_positivity_case_cubic(cubic_artifacts):
    # all leading Wronskians positive: eps_k = 1, eps_hk = (-1)^(h+k+1)
    art = cubic_artifacts
    assert art.constants.positivity_case
    assert art.constants.matches_alternating_pattern
    assert all(e == 1 for e in art.constants.epsilon[1:])


def test_detect_constant_rejects_drift():
    with pytest.raises(NotConstant):
        detect_constant([1.0, 1.0, 1.1, 1.0])
    mean, spread = detect_constant([2.0, 2.0, 2.0])
    assert mean == 2.0 and spread == 0.0
