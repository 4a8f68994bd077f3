import dataclasses
import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebscale import (
    ChebyshevScale,
    WeightChain,
    apply_chain,
    apply_full_operator,
    artifacts_for,
    build_principal_system,
    build_type1_chain,
    build_type2_chain,
    classify_canonicity,
    divide_and_differentiate,
    fit_ratio_constant,
    make_schedule,
    operator_constants,
    scale_schedule,
)
from chebscale import cli, factorization
from chebscale.errors import (
    EvaluationError,
    NotAsymptoticScale,
    PivotVanishes,
    ToleranceNotMet,
    WronskianDegenerate,
)
from chebscale.expr import ExpressionFunction
from chebscale.factorization import well_conditioned_probes
from chebscale.jet import Jet, JetMemo
from chebscale.jet import derivative, jet_constant, jpow, jet_variable, truncate
from chebscale.scale import finite_prefix

PROBES = [4.5, 5.5, 7.0, 9.0, 12.0, 16.0, 22.0, 30.0]

P_CLOSED = {
    1: lambda x: x,
    2: lambda x: 1.0,
    3: lambda x: math.exp(-x) / (x + 2.0),
}

# the (1 - x^2) factor printed in the paper's display disagrees with its own
# derivation, which gives (1 - x)^2; the derived form is asserted here
QBAR_CLOSED = {
    0: lambda x: math.exp(-x),
    1: lambda x: math.exp(x) / abs(1.0 - x),
    2: lambda x: (1.0 - x) ** 2 / abs(-math.log(x) + 1.0 + 1.0 / x - 1.0 / x**2),
    3: lambda x: x**3
    / abs(-x * x - x + 2.0)
    * (-math.log(x) + 1.0 + 1.0 / x - 1.0 / x**2) ** 2,
}


def test_type1_chain_matches_closed_forms(appendix_scale, appendix_schedule):
    chain = build_type1_chain(appendix_scale, appendix_schedule)
    for i, ref in P_CLOSED.items():
        c, dev = fit_ratio_constant(chain.weights[i], ref, PROBES)
        assert dev < 1e-9, (i, c, dev)
    assert chain.canonicity["x0"] == "type_I"
    assert chain.canonicity["T"] == "type_II"


def test_type2_chain_matches_closed_forms(appendix_scale, appendix_schedule):
    chain = build_type2_chain(appendix_scale, appendix_schedule)
    for i, ref in QBAR_CLOSED.items():
        c, dev = fit_ratio_constant(chain.weights[i], ref, PROBES)
        assert dev < 1e-9, (i, c, dev)
    assert chain.canonicity["x0"] == "type_II"


def test_unit_chain_for_pair_scale():
    sc = ChebyshevScale.from_exprs(["x", "1"], T=1.0, x0=math.inf)
    chain = build_type2_chain(sc, make_schedule(1.0, math.inf, 8, 2.0))
    for i in range(3):
        vals = [chain.weights[i].value(x) for x in (2.0, 5.0, 9.0)]
        ref = [1 / x for x in (2.0, 5.0, 9.0)] if i in (0, 2) else [x * x for x in (2.0, 5.0, 9.0)]
        for v, r in zip(vals, ref):
            assert abs(v - r) < 1e-12 * r


def test_quadratic_scale_chain_matches_hand_determinants():
    # scale (x^2, x, 1): q_0 = 1/x^2, q_1 = x^2, q_2 = x^2/2, q_3 = 2/x^2
    sc = ChebyshevScale.from_exprs(["x^2", "x", "1"], T=1.0, x0=math.inf)
    chain = build_type2_chain(sc, make_schedule(1.0, math.inf, 8, 2.0))
    closed = [lambda x: 1 / x**2, lambda x: x**2, lambda x: x**2 / 2, lambda x: 2 / x**2]
    for x in (2.0, 5.0, 10.0):
        for i, ref in enumerate(closed):
            assert abs(chain.weights[i].value(x) - ref(x)) < 1e-11 * ref(x)


def test_misordered_scale_rejected():
    sc = ChebyshevScale.from_exprs(["x", "x^2"], T=1.0, x0=math.inf)
    with pytest.raises(NotAsymptoticScale):
        build_type1_chain(sc, make_schedule(1.0, math.inf, 8, 2.0))


def test_divide_and_differentiate_reproduces_both_chains(
    appendix_scale, appendix_schedule
):
    probes = well_conditioned_probes(appendix_scale, appendix_schedule.points)
    dd_p = divide_and_differentiate(appendix_scale, "last", probes)
    for i, ref in P_CLOSED.items():
        c, dev = fit_ratio_constant(dd_p.weights[i], ref, PROBES)
        assert dev < 1e-8, (i, c, dev)
    assert dd_p.canonicity["x0"] == "type_I"
    dd_q = divide_and_differentiate(appendix_scale, "first", probes)
    for i, ref in QBAR_CLOSED.items():
        c, dev = fit_ratio_constant(dd_q.weights[i], ref, PROBES)
        assert dev < 1e-8, (i, c, dev)
    assert dd_q.canonicity["x0"] == "type_II"


def test_trench_uniqueness_up_to_constants(appendix_scale, appendix_schedule):
    # type-I chains from the two constructions have constant ratios whose
    # product is one
    polya = build_type1_chain(appendix_scale, appendix_schedule)
    probes = well_conditioned_probes(appendix_scale, appendix_schedule.points)
    dd = divide_and_differentiate(appendix_scale, "last", probes)
    consts = []
    for i in range(appendix_scale.n + 1):
        c, dev = fit_ratio_constant(polya.weights[i], dd.weights[i], PROBES)
        assert dev < 1e-6
        consts.append(c * polya.signs[i] * dd.signs[i])
    prod = 1.0
    for c in consts:
        prod *= c
    assert abs(abs(prod) - 1.0) < 1e-6


def test_apply_full_operator_standard_form(appendix_scale):
    # closed-form fourth-order operator: u'''' + c3 u''' + c2 u''
    c3 = lambda x: (6 - x * x) / (x * (x + 2))
    c2 = lambda x: -2 * (x + 3) / (x * (x + 2))
    f = ExpressionFunction("x^5")
    for x in (2.0, 3.0, 5.0):
        got = apply_full_operator(appendix_scale, f, x)
        ref = 120 * x + c3(x) * 60 * x * x + c2(x) * 20 * x**3
        assert abs(got - ref) < 1e-8 * abs(ref)
    g = ExpressionFunction("sin(x)")
    for x in (2.0, 3.0, 5.0):
        got = apply_full_operator(appendix_scale, g, x)
        s, c = math.sin(x), math.cos(x)
        ref = s - c3(x) * c + c2(x) * (-s)
        assert abs(got - ref) < 1e-8 * max(abs(ref), 1e-6)


def test_kernel_members_annihilated(appendix_scale):
    f = ExpressionFunction("2*exp(x) - 3*x + log(x) + 7")
    for x in (4.5, 7.0, 12.0):
        got = apply_full_operator(appendix_scale, f, x)
        assert abs(got) < 1e-7


def test_cubic_kernel_operator_is_third_derivative():
    sc = ChebyshevScale.from_exprs(["x^2", "x", "1"], T=1.0, x0=math.inf)
    f = ExpressionFunction("exp(-x) + x^5")
    for x in (2.0, 3.0, 6.0):
        got = apply_full_operator(sc, f, x)
        ref = -math.exp(-x) + 60 * x * x
        assert abs(got - ref) < 1e-9 * abs(ref)


def test_factorized_vs_direct_agreement(appendix_scale, appendix_schedule):
    chain_q = build_type2_chain(appendix_scale, appendix_schedule)
    chain_p = build_type1_chain(appendix_scale, appendix_schedule)
    rng = random.Random(17)
    fns = [
        ExpressionFunction("exp(-x)*x^2 + log(x)*x"),
        ExpressionFunction("sin(x)/x + x^2"),
        ExpressionFunction("sqrt(x)*log(x)"),
    ]
    for f in fns:
        for _ in range(4):
            x = rng.uniform(4.5, 25.0)
            direct = apply_full_operator(appendix_scale, f, x)
            via_q = apply_chain(chain_q, f, x)
            via_p = apply_chain(chain_p, f, x)
            ref = max(abs(direct), 1e-12)
            assert abs(via_q - direct) < 1e-7 * ref
            assert abs(via_p - direct) < 1e-7 * ref


def test_canonicity_is_classified_on_first_read(appendix_scale, appendix_schedule,
                                                monkeypatch, capsys):
    classified = []
    real = factorization.classify_canonicity
    monkeypatch.setattr(factorization, "classify_canonicity",
                        lambda chain: classified.append(chain.provenance) or real(chain))
    art = artifacts_for(appendix_scale, appendix_schedule)
    assert classified == []
    assert art.chain_q.canonicity == {"x0": "type_II", "T": "type_II"}
    assert classified == ["polya_q"]
    assert art.chain_q.canonicity == {"x0": "type_II", "T": "type_II"}
    assert classified == ["polya_q"]
    assert art.chain_p.canonicity == {"x0": "type_I", "T": "type_II"}
    # factorize reads both Polya chains and never the divide-and-differentiate one
    classified.clear()
    appendix = str(Path(__file__).parent / "data" / "appendix.scale")
    assert cli.run(["factorize", "--scale", appendix, "--json"]) == 0
    assert sorted(classified) == ["polya_p", "polya_q"]
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts == {"canonicity_type_II": {"x0": "type_II", "T": "type_II"},
                        "canonicity_type_I": {"x0": "type_I", "T": "type_II"}}


def test_exhausted_quadrature_leaves_the_endpoint_undecided(appendix_scale, appendix_schedule,
                                                           monkeypatch):
    def exhausted(*args, **kw):
        raise ToleranceNotMet("budget of 4096 subdivisions exhausted")

    chain = build_type2_chain(appendix_scale, appendix_schedule)
    monkeypatch.setattr(factorization, "classify_toward", exhausted)
    assert chain.canonicity == {"x0": "unknown", "T": "unknown"}


def test_polya_family_chain_is_nth_derivative():
    # explicit chains r_0 = (x-c)^{1-n}, middle (x-c)^2, r_n = (x-c)^{1-n}
    rng = random.Random(23)
    for n in (2, 3):
        for c in (-1.0, -2.0):
            def weight(expo):
                def fn(x, order, e=expo):
                    return jpow(jet_variable(x, order) - c, e)
                return JetMemo(fn, name=f"(x-{c})^{expo}")

            weights = [weight(-(n - 1))] + [weight(2)] * (n - 1) + [weight(-(n - 1))]
            chain = WeightChain(
                weights=weights, signs=[1] * (n + 1), interval=(0.0, math.inf),
                n=n, provenance="polya_family",
            )
            for _ in range(5):
                coeffs = [rng.uniform(-2, 2) for _ in range(n + 2)]
                f = JetMemo(
                    lambda x, order, cs=coeffs: sum(
                        ci * jpow(jet_variable(x, order), i)
                        for i, ci in enumerate(cs)
                    ),
                    name="poly",
                )
                x = rng.uniform(0.5, 6.0)
                got = apply_chain(chain, f, x)
                # closed-form n-th derivative of the polynomial
                ref = 0.0
                for i, ci in enumerate(coeffs):
                    if i >= n:
                        ref += ci * math.factorial(i) / math.factorial(i - n) * x ** (i - n)
                assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))
            out = classify_canonicity(chain)
            assert out["x0"] == "type_II"
            assert out["T"] == "type_II"


def test_noncanonical_factorizations_of_u3():
    # two factorizations of the third derivative that are canonical at
    # neither endpoint of (0, inf)
    def pw(expo):
        def fn(x, order, e=expo):
            return jpow(jet_variable(x, order), e)
        return JetMemo(fn, name=f"x^{expo}")

    def unit():
        return JetMemo(lambda x, order: jet_constant(1.0, x, order), name="1")

    left = WeightChain(
        weights=[pw(-1), unit(), pw(3), pw(-2)], signs=[1, 1, 1, 1],
        interval=(0.0, math.inf), n=3, provenance="explicit",
    )
    right = WeightChain(
        weights=[pw(-1), pw(2), pw(-1), unit()], signs=[1, 1, 1, 1],
        interval=(0.0, math.inf), n=3, provenance="explicit",
    )
    rng = random.Random(9)
    for chain in (left, right):
        for _ in range(6):
            coeffs = [rng.uniform(-2, 2) for _ in range(6)]
            f = JetMemo(
                lambda x, order, cs=coeffs: sum(
                    ci * jpow(jet_variable(x, order), i) for i, ci in enumerate(cs)
                ),
                name="poly",
            )
            x = rng.uniform(0.5, 5.0)
            got = apply_chain(chain, f, x)
            ref = sum(
                ci * math.factorial(i) / math.factorial(i - 3) * x ** (i - 3)
                for i, ci in enumerate(coeffs) if i >= 3
            )
            assert abs(got - ref) < 1e-8 * max(1.0, abs(ref))
        out = classify_canonicity(chain)
        assert out["x0"] == "neither"
        assert out["T"] == "neither"


def test_principal_system_identities(appendix_scale, appendix_schedule):
    chain_p = build_type1_chain(appendix_scale, appendix_schedule)
    ps = build_principal_system(appendix_scale, chain_p)
    assert all(abs(b) > 0 for b in ps.b)
    # L_k[P_k] == 1 exactly through the table algebra
    for k in range(4):
        for x in (5.0, 9.0, 16.0):
            assert abs(apply_chain(chain_p, ps.P[k], x, level=k) - 1.0) < 1e-9
    # hierarchy toward x0: P_3 >> P_2 >> P_1 >> P_0
    vals = [[ps.P[i].value(x) for x in (5.0, 12.0, 29.0)] for i in range(4)]
    for i in range(3):
        r0 = vals[i][0] / vals[i + 1][0]
        r2 = vals[i][2] / vals[i + 1][2]
        assert abs(r2) < abs(r0)
    # b_4 = lim phi_4 / P_0 = 1 for this scale (phi_4 = 1 and p_0 = 1)
    assert abs(ps.b[3] - 1.0) < 1e-9


def test_principal_system_hierarchy_at_T(appendix_scale, appendix_schedule):
    chain_p = build_type1_chain(appendix_scale, appendix_schedule)
    ps = build_principal_system(appendix_scale, chain_p)
    # toward T the order reverses: P_0 >> P_1 >> ... (ratios shrink)
    xs = [4.5, 4.1, 4.02]
    for i in range(3):
        r = [abs(ps.P[i + 1].value(x) / ps.P[i].value(x)) for x in xs]
        assert r[2] < r[0]


def test_nested_quotient_identity_8_14(appendix_scale):
    # the ratio of bordered Wronskians equals the quotient of derivatives of
    # the one-level-shallower ratios, outer derivatives suppressed
    from chebscale import wronskian_jet
    from chebscale.jet import derivative

    sc = appendix_scale
    for x in (4.5, 6.0, 9.0):
        num = wronskian_jet(sc, (1, 2, 4), x, 0)
        den = wronskian_jet(sc, (1, 2, 3), x, 0)
        lhs = (num / den).value
        r42 = wronskian_jet(sc, (1, 4), x, 1) / wronskian_jet(sc, (1, 2), x, 1)
        r32 = wronskian_jet(sc, (1, 3), x, 1) / wronskian_jet(sc, (1, 2), x, 1)
        rhs = (derivative(r42) / derivative(r32)).value
        assert abs(lhs - rhs) < 1e-7 * max(abs(lhs), 1e-12)


def test_a_chain_whose_weights_change_sign_is_refused(capsys):
    # with T = 2 the schedule starts at x = 3, left of the zero of
    # W(phi_1, phi_2, phi_3) near 3.35: r2 and r4 of the type-II chain are
    # negative there, so no chain is a factorization on the probes
    sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=2.0, x0=math.inf)
    with pytest.raises(WronskianDegenerate, match=r"polya_q weight r2 changes sign between x=3"):
        build_type2_chain(sc, scale_schedule(sc))
    appendix = str(Path(__file__).parent / "data" / "appendix.scale")
    argv = ["verify", "--scale", appendix, "--T", "2", "--f", "exp(x)+x+log(x)+1", "--json"]
    assert cli.run(argv) == 2
    assert "changes sign" in capsys.readouterr().err


def _level_pass(chain, f, x, k):
    """The reference: one chain pass per level, as ``apply_chain`` ran before
    a pass served every shallower level."""
    w = chain.weights
    fj = truncate(f(x, k), k)
    cur = w[0](x, k) * fj
    eps = 2.2e-16
    noise = eps * max(abs(c) for c in cur.coeffs)
    for i in range(1, k + 1):
        noise *= max(1.0, float(cur.order))
        cur = derivative(cur)
        wj = w[i](x, k - i)
        cur = wj * cur
        wmax = max(abs(c) for c in wj.coeffs)
        cmax = max(abs(c) for c in cur.coeffs)
        noise = noise * wmax + eps * cmax
    return cur.value, noise


def _bits(v):
    return struct.pack("d", math.nan if math.isnan(v) else v)


@pytest.fixture(scope="module")
def bench_bundles(appendix_artifacts, cubic_artifacts, poly_artifacts, taylor_artifacts):
    """The bundles of the four benchmark scales."""
    return {"appendix": appendix_artifacts, "cubic": cubic_artifacts,
            "poly": poly_artifacts, "taylor": taylor_artifacts}


# remainders of each scale toward its x0, and terms that raise at some points
REMAINDERS = {
    "appendix": ["exp(-x)", "x^-3", "exp(-x)*cos(x)", "log(x)^2", "sqrt(x)"],
    "poly": ["x^-1", "x^-2.5", "exp(-x)", "log(x)", "sin(x)"],
    "cubic": ["x^4", "exp(x)", "sin(x)^5", "(-x)^3.5", "x^5*cos(x)"],
    "taylor": ["(1-x)^4", "(1-x)^3.5", "exp(-1/(1-x))", "log(1-x)*(1-x)^3", "x^7"],
}
RAISING = ["log({} - x)", "log(x - {})", "sqrt({} - x)", "(x - {})^0.5"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(REMAINDERS)), st.data())
def test_chain_levels_are_the_per_level_chain_bit_for_bit(bench_bundles, name, data):
    art = bench_bundles[name]
    scale = art.scale
    coeffs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=scale.n, max_size=scale.n))
    terms = [f"{c!r}*({m.name})" for c, m in zip(coeffs, scale.functions)]
    rest = data.draw(st.sampled_from(REMAINDERS[name]))
    terms.append(f"{data.draw(st.floats(-2.0, 2.0))!r}*({rest})")
    pts = art.class_points
    j = data.draw(st.integers(0, len(pts) - 2))
    x = pts[j] + data.draw(st.sampled_from([0.0, 0.5, 0.999])) * (pts[j + 1] - pts[j])
    if data.draw(st.booleans()):  # a target that raises on one side of c
        c = data.draw(st.floats(min(pts[0], pts[-1]), max(pts[0], pts[-1])))
        terms.append(data.draw(st.sampled_from(RAISING)).format(repr(c)))
    text = " + ".join(terms)
    k = data.draw(st.integers(0, scale.n))
    for chain in (art.chain_q, art.chain_p):
        try:
            values, noises = factorization.chain_levels(chain, ExpressionFunction(text), x, k)
        except Exception as exc:
            # the pass raises what the level-k pass raises
            with pytest.raises(type(exc)) as ref:
                _level_pass(chain, ExpressionFunction(text), x, k)
            assert str(ref.value) == str(exc)
            continue
        assert len(values) == len(noises) == k + 1
        for level in range(k + 1):
            value, noise = _level_pass(chain, ExpressionFunction(text), x, level)
            assert _bits(values[level]) == _bits(value)
            assert _bits(noises[level]) == _bits(noise)
            # apply_chain at that level is the pass of that level
            assert _bits(apply_chain(chain, ExpressionFunction(text), x, level)) == _bits(value)


# points past the edge of double range for the chain weights: the type-II
# weights of the appendix overflow from x ~ 355 on (550 is the last point
# of its default schedule), the type-I weights of cubic underflow to a
# division by ~0 and those of poly overflow; taylor's weights stay finite
# up to the last double below 1
EDGE = {
    "appendix": [360.0, 549.7558138880003],
    "cubic": [-1e-80],
    "poly": [1e80],
    "taylor": [1.0 - 2.0**-53],
}


@pytest.fixture(scope="module")
def twin_bundles(bench_bundles):
    """A second bundle of each benchmark scale, on fresh members: no memo
    is shared with the first."""
    twins = {}
    for name, art in bench_bundles.items():
        scale = ChebyshevScale.from_exprs([m.name for m in art.scale.functions],
                                          T=art.scale.T, x0=art.scale.x0)
        twins[name] = artifacts_for(scale, art.schedule)
    return twins


def _outcome(read, *args):
    """``read(*args)`` as the bits of its floats, or the type and text of
    what it raised."""
    try:
        return tuple(map(_bits, read(*args)))
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(REMAINDERS)), st.data())
def test_the_array_pass_is_the_scalar_pass_bit_for_bit(bench_bundles, twin_bundles, name,
                                                        data):
    art = bench_bundles[name]
    scale = art.scale
    n = scale.n
    coeffs = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    terms = [f"{c!r}*({m.name})" for c, m in zip(coeffs, scale.functions)]
    rest = data.draw(st.sampled_from(REMAINDERS[name]))
    terms.append(f"{data.draw(st.floats(-2.0, 2.0))!r}*({rest})")
    pts = art.class_points
    drawn = set()
    for _ in range(data.draw(st.integers(1, 5))):
        j = data.draw(st.integers(0, len(pts) - 2))
        drawn.add(pts[j] + data.draw(st.sampled_from([0.0, 0.5, 0.999])) * (pts[j + 1] - pts[j]))
    if data.draw(st.booleans()):
        drawn.update(EDGE[name])
    if data.draw(st.booleans()):  # a target that raises on one side of c
        c = data.draw(st.floats(min(pts[0], pts[-1]), max(pts[0], pts[-1])))
        terms.append(data.draw(st.sampled_from(RAISING)).format(repr(c)))
    text = " + ".join(terms)
    if data.draw(st.integers(0, 9)) == 0:  # f = +-0: levels of either sign
        text = f"{data.draw(st.sampled_from([0.0, -0.0]))!r}*({scale.functions[0].name})"
    nodes = scale.toward_x0(drawn)
    xs = np.array(nodes)
    k = data.draw(st.integers(0, n))
    for chain, twin in ((art.chain_q, twin_bundles[name].chain_q),
                        (art.chain_p, twin_bundles[name].chain_p)):
        with np.errstate(all="ignore"):
            values, noises = factorization.chain_levels(chain, ExpressionFunction(text), xs, k)
        for p, x in enumerate(nodes):
            got = [v[p] for v in values] + [nz[p] for nz in noises]
            try:
                ref = factorization.chain_levels(chain, ExpressionFunction(text), x, k)
            except Exception:
                # where the scalar pass raises, the node is flagged
                assert any(math.isnan(v) for v in got)
                continue
            # every other element is the scalar pass's, -0.0 included
            assert all(math.isnan(v) or _bits(v) == _bits(r)
                       for v, r in zip(got, ref[0] + ref[1]))
        # the images a node-array pass keeps, and the scalar pass that a
        # flagged node falls back to, are what reads point by point give,
        # value or error
        g, h = ExpressionFunction(text), ExpressionFunction(text)
        twin.images_on([g], xs)
        for x in nodes:
            for level in range(n):
                assert _outcome(twin.image, g, level, x) == _outcome(chain.image, h, level, x)


@pytest.mark.parametrize("name", ["appendix paper", "appendix default", "cubic", "poly",
                                  "taylor"])
def test_operator_constants_are_the_point_by_point_loops(bench_bundles, name, monkeypatch):
    # the appendix's default schedule ends at x = 550, where the array pass
    # flags every member: its constants there come from the scalar fallback
    art = bench_bundles[name.split()[0]]
    members = [m.name for m in art.scale.functions]

    def constants():
        scale = ChebyshevScale.from_exprs(members, T=art.scale.T, x0=art.scale.x0)
        schedule = scale_schedule(scale) if name == "appendix default" else art.schedule
        chains = build_type2_chain(scale, schedule), build_type1_chain(scale, schedule)
        xs = np.array(scale.toward_x0(schedule.points))
        chains[0].images_on(scale.functions, xs)
        flagged = {x for f in scale.functions
                   for x, v in chains[0]._images.get(f, {}).items() if v is None}
        return repr(dataclasses.asdict(operator_constants(scale, *chains, schedule))), flagged

    got, flagged = constants()
    assert bool(flagged) == (name == "appendix default")
    monkeypatch.setattr(WeightChain, "images_on", lambda chain, fs, xs: None)
    assert constants() == (got, set())


def test_one_chain_pass_serves_every_shallower_level(appendix_artifacts, monkeypatch):
    chain = appendix_artifacts.chain_q
    n = chain.n
    real = factorization.chain_levels
    passes = []

    def counted(chain, f, x, k):
        passes.append((x, k))
        return real(chain, f, x, k)

    monkeypatch.setattr(factorization, "chain_levels", counted)
    text = "2*exp(x) - x + exp(-x)"
    f = ExpressionFunction(text)
    # a first read at any level up to n - 1 runs one pass to n - 1; later
    # reads up to n - 1, in any order, run none
    reads = {9.0 + first: [first, *reversed(range(n)), *range(n)] for first in range(n)}
    got = [(x, ks, [chain.image(f, k, x) for k in ks]) for x, ks in reads.items()]
    assert passes == [(x, n - 1) for x in reads]
    # a level-n read deepens the record once, and it serves every level
    ks = (n, 0, n, n - 1)
    got.append((9.0, ks, [chain.image(f, k, 9.0) for k in ks]))
    assert passes[n:] == [(9.0, n)]
    monkeypatch.undo()  # the references run passes of their own
    g = ExpressionFunction(text)
    for x, ks, images in got:
        assert images == [apply_chain(chain, g, x, k, with_noise=True) for k in ks]


def test_a_target_raising_at_a_deep_order_keeps_its_shallow_images(appendix_artifacts):
    # the pass to level n - 1 asks f at order n - 1 and raises; the retry at
    # the level asked gives that level's own pass, bit for bit
    chain = appendix_artifacts.chain_q

    class RaisingAtThree:
        def __init__(self):
            self.f = ExpressionFunction("exp(-x) + x")

        def __call__(self, x, order):
            if order >= 3:
                raise EvaluationError(f"order {order}")
            return self.f(x, order)

    f, g = RaisingAtThree(), ExpressionFunction("exp(-x) + x")
    for x in (9.0, 12.0):
        value, noise = chain.image(f, 0, x)
        ref = apply_chain(chain, g, x, 0, with_noise=True)
        assert (_bits(value), _bits(noise)) == tuple(map(_bits, ref))
        assert chain.image(f, 2, x) == apply_chain(chain, g, x, 2, with_noise=True)
        with pytest.raises(EvaluationError, match="order 3"):
            chain.image(f, 3, x)


def _point_by_point_chain_from_signed(signed_fns, scale, provenance, probes, arrays=False):
    """The reference sign reader: every signed weight read alone at every
    probe, in order toward x0, through ``finite_prefix``; then the signs at
    the last kept probe and the first flip.  Its memos start empty too."""
    read = [{} for _ in signed_fns]  # per weight: probe -> its order-0 value

    def reader(fn, values):
        def value(x):
            values[x] = v = fn(x, 0).value
            return v
        return value

    ordered = finite_prefix(scale.toward_x0(probes), list(map(reader, signed_fns, read)))
    if not ordered:
        raise WronskianDegenerate(f"no probe keeps the {provenance} weights finite")
    x_ref = ordered[-1]
    signs = [factorization._signed_sign(values[x_ref], x_ref) for values in read]
    for x in ordered:
        for k, (values, s) in enumerate(zip(read, signs)):
            if factorization._signed_sign(values[x], x) != s:
                raise WronskianDegenerate(
                    f"{provenance} weight r{k} changes sign between x={x} and x={x_ref}"
                )
    unsigned = [
        JetMemo(fn if s > 0 else lambda x, m, f=fn: -f(x, m), f"{provenance}:r{k}", arrays)
        for k, (fn, s) in enumerate(zip(signed_fns, signs))
    ]
    return WeightChain(weights=unsigned, signs=signs, interval=(scale.T, scale.x0),
                       n=scale.n, provenance=provenance, probes=tuple(probes))


SPOIL_ERRORS = {"arith": ZeroDivisionError, "eval": EvaluationError, "value": ValueError}
SPOIL_VALUES = {"inf": lambda v: math.inf, "nan": lambda v: math.nan, "zero": lambda v: 0.0,
                "flip": lambda v: -v}


class _Spoiled:
    """A signed weight that, at the probes of ``bad`` (x -> kind), is not
    finite, 0 or of the other sign, or raises; its node array flags them."""

    def __init__(self, fn, bad):
        self.fn, self.bad = fn, bad

    def __call__(self, x, order):
        j = self.fn(x, order)
        if isinstance(x, np.ndarray):
            hit = np.isin(x, list(self.bad))
            return Jet(x, [np.where(hit, np.nan, j.coeffs[0]), *j.coeffs[1:]])
        kind = self.bad.get(x)
        if kind is None:
            return j
        if kind in SPOIL_ERRORS:
            raise SPOIL_ERRORS[kind](f"spoiled at x={x}")
        return jet_constant(SPOIL_VALUES[kind](j.value), x, order)


SIGN_SCALES = {
    "appendix": (["exp(x)", "x", "log(x)", "1"], math.inf),
    "cubic": (["1", "x", "x^2", "x^3"], 0.0),
    "poly": (["x^3", "x^2", "x", "1"], math.inf),
    "taylor": (["1", "1-x", "(1-x)^2", "(1-x)^3"], 1.0),
}
SIGN_T = {"appendix": [4.0, 2.0], "cubic": [-1.0], "poly": [1.0], "taylor": [0.0]}
BUILDS = {
    "polya_q": lambda scale, schedule: build_type2_chain(scale, schedule),
    "polya_p": lambda scale, schedule: build_type1_chain(scale, schedule),
    "dd_first": lambda scale, schedule: divide_and_differentiate(
        scale, "first", well_conditioned_probes(scale, schedule.points)),
    "dd_last": lambda scale, schedule: divide_and_differentiate(
        scale, "last", well_conditioned_probes(scale, schedule.points)),
}


def _sign_outcomes(reader, name, T, count, paper, spoils):
    """Per build of ``BUILDS``, on a fresh scale read by ``reader``: the
    chain's signs, probes and order-0 weight bits at its probes, or the type
    and text of what the build raised.  ``spoils``: (weight, probe index,
    kind) of :class:`_Spoiled`."""
    members, x0 = SIGN_SCALES[name]
    scale = ChebyshevScale.from_exprs(members, T=T, x0=x0)
    ratio = (1.22 if math.isinf(x0) else 0.6) if paper else None
    schedule = scale_schedule(scale, count, ratio)

    def chain_from_signed(signed_fns, scale, provenance, probes, arrays=False):
        nodes = scale.toward_x0(probes)
        fns = [_Spoiled(fn, {nodes[i % len(nodes)]: kind for w, i, kind in spoils if w == k})
               for k, fn in enumerate(signed_fns)]
        return reader(fns, scale, provenance, probes, arrays)

    real = factorization._chain_from_signed
    factorization._chain_from_signed = chain_from_signed
    out = {}
    try:
        for build, make in BUILDS.items():
            try:
                chain = make(scale, schedule)
            except Exception as exc:
                out[build] = type(exc), str(exc)
                continue
            weights = [_outcome(lambda w, x: (w(x, 0).value,), w, x)
                       for x in chain.probes for w in chain.weights]
            out[build] = chain.signs, chain.probes, weights
    finally:
        factorization._chain_from_signed = real
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SIGN_SCALES)), st.integers(0, 1), st.integers(8, 13), st.booleans(),
       st.lists(st.tuples(st.integers(0, 4), st.integers(0, 15),
                          st.sampled_from(sorted(SPOIL_ERRORS) + sorted(SPOIL_VALUES))),
                max_size=3))
@example("appendix", 1, 12, False, [])  # --T 2: the type-II weight r2 flips
@example("appendix", 0, 10, True, [(0, 0, "inf")])  # no probe is kept
@example("appendix", 0, 10, True, [(1, 5, "value"), (3, 2, "inf")])  # cut before the raise
@example("poly", 0, 12, False, [(2, 4, "value")])  # the raise ends the probes
def test_the_node_array_sign_reader_is_the_point_by_point_one(name, t, count, paper, spoils):
    T = SIGN_T[name][t % len(SIGN_T[name])]
    got = _sign_outcomes(factorization._chain_from_signed, name, T, count, paper, spoils)
    ref = _sign_outcomes(_point_by_point_chain_from_signed, name, T, count, paper, spoils)
    assert got == ref
    if (name, t, count, paper, spoils) == ("appendix", 1, 12, False, []):
        assert got["polya_q"] == (WronskianDegenerate, "polya_q weight r2 changes sign "
                                  "between x=3.0 and x=329.85348833280017")
    if spoils == [(0, 0, "inf")]:
        assert all(out[1].startswith("no probe keeps the") for out in got.values())
