import gc
import importlib
import json
import math
import struct
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebscale import (
    ChebyshevScale,
    artifacts_for,
    check_absolute,
    check_complete,
    check_incomplete,
    check_O,
    construct_from_source,
    extract_operator,
    extract_recursive,
    make_schedule,
    scale_schedule,
    verify_hierarchy,
)
from chebscale import expansion
from chebscale.errors import (BadScheduleParams, ChebscaleError, DivergentTail, EvaluationError,
                              LimitDiverged)
from chebscale.expansion import _abs, _guarded_ratio, _operator_limit, _p_levels, _type1_levels
from chebscale.expr import ExpressionFunction
from chebscale.factorization import apply_full_operator
from chebscale.quadrature import UNIT, NestedIntegral, NodeFn, tabulate


def test_extract_recursive_f1_example():
    sc = ChebyshevScale.from_exprs(["x^2", "log(x)", "1", "x^-1"], T=1.0, x0=math.inf)
    sched = make_schedule(1.0, math.inf, 16, 1.45)
    f = ExpressionFunction("x^2 + log(x) + 1 + x^-1 + exp(-x)")
    res = extract_recursive(f, sc, sched)
    assert len(res.coefficients) == 4
    assert all(abs(c - 1.0) < 1e-3 for c in res.coefficients)  # NaN too
    assert all(c < 1e-3 for c in res.confidences)


def test_extract_recursive_f2_example():
    sc = ChebyshevScale.from_exprs(["log(x)", "1", "sqrt(x)", "x"], T=0.4, x0=0.0)
    sched = make_schedule(0.4, 0.0, 16, 0.3)
    f = ExpressionFunction("log(x) + 1 + sqrt(x) + x^2")
    res = extract_recursive(f, sc, sched)
    truth = [1.0, 1.0, 1.0, 0.0]
    assert all(abs(c - t) < 1e-3 for c, t in zip(res.coefficients, truth))  # NaN too


def test_extract_recursive_basis_element(appendix_scale):
    sched = make_schedule(4.0, math.inf, 12, 1.3)
    res = extract_recursive(appendix_scale.functions[1], appendix_scale, sched)
    truth = [0.0, 1.0, 0.0, 0.0]
    assert all(abs(c - t) < 1e-8 for c, t in zip(res.coefficients, truth))  # NaN too


def test_extract_operator_exact_kernel(appendix_artifacts):
    art = appendix_artifacts
    f = ExpressionFunction("2*exp(x) - 1*x + 3*log(x) + 5")
    res = extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
    truth = [2.0, -1.0, 3.0, 5.0]
    # the huge leading term sets an information floor of about 1e-5 here
    assert all(abs(c - t) < 1e-4 for c, t in zip(res.coefficients, truth))  # NaN too


def test_a_stable_recursive_coefficient_carries_a_stable_confidence(appendix_artifacts):
    # the sweep widens a confidence to a tenth of its move; the status
    # reported is the one of the confidence reported
    art = appendix_artifacts
    g = construct_from_source(art, [-1.429226, -2.23613, 2.957124, 1.818327],
                              ExpressionFunction("sin(x)"), mode="from_T")
    res = extract_recursive(g, art.scale, art.schedule)
    stable = [(a, c) for a, c, s in zip(res.coefficients, res.confidences, res.statuses)
              if s == "stable"]
    assert stable and all(c <= 1e-6 * (1.0 + abs(a)) for a, c in stable), res


def test_an_exact_operator_coefficient_is_within_its_confidence(appendix_artifacts):
    # a_1 = lim M_0[f] / eps_0 rounds one ulp off the truth, so a
    # confidence of 0 would claim too much
    art = appendix_artifacts
    truth = [-2.553967, 2.581976, 1.995092, 1.581524]
    f = ExpressionFunction(" + ".join(
        f"{c!r}*({m.name})" for c, m in zip(truth, art.scale.functions)))
    res = extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
    assert all(abs(a - t) <= c for a, t, c in zip(res.coefficients, truth, res.confidences))


def test_extract_operator_taylor_case():
    sc = ChebyshevScale.from_exprs(["1", "1-x", "(1-x)^2", "(1-x)^3"], T=0.0, x0=1.0)
    sched = make_schedule(0.0, 1.0, 12, 0.5)
    art = artifacts_for(sc, sched)
    f = ExpressionFunction("exp(x)")
    res = extract_operator(f, sc, art.chain_q, art.constants, sched)
    e = math.e
    truth = [e, -e, e / 2, -e / 6]
    assert all(abs(c - t) < 1e-9 for c, t in zip(res.coefficients, truth))  # NaN too


def test_extract_diverging_first_limit(appendix_scale):
    sc = ChebyshevScale.from_exprs(["1", "x^-1"], T=1.0, x0=math.inf)
    sched = make_schedule(1.0, math.inf, 10, 2.0)
    f = ExpressionFunction("x")
    with pytest.raises(LimitDiverged):
        extract_recursive(f, sc, sched)


def test_route_agreement_invariant():
    # both routes agree to max(1e-6, 10x confidence) wherever both succeed
    cases = [
        (["x^2", "log(x)", "1", "x^-1"], 1.0, math.inf, 16, 1.45,
         "x^2 + log(x) + 1 + x^-1 + exp(-x)"),
        (["log(x)", "1", "sqrt(x)", "x"], 0.4, 0.0, 16, 0.3,
         "log(x) + 1 + sqrt(x) + x^2"),
        (["1", "1-x", "(1-x)^2", "(1-x)^3"], 0.0, 1.0, 12, 0.5, "exp(x)"),
    ]
    for exprs, T, x0, cnt, ratio, text in cases:
        sc = ChebyshevScale.from_exprs(exprs, T=T, x0=x0)
        sched = make_schedule(T, x0, cnt, ratio)
        f = ExpressionFunction(text)
        rec = extract_recursive(f, sc, sched)
        art = artifacts_for(sc, sched)
        op = extract_operator(f, sc, art.chain_q, art.constants, sched)
        for a, b, ca, cb in zip(
            rec.coefficients, op.coefficients, rec.confidences, op.confidences
        ):
            if math.isfinite(a) and math.isfinite(b):
                tol = max(1e-6, 10 * max(ca, cb))
                assert abs(a - b) <= tol


def test_last_limit_sufficiency(appendix_artifacts):
    # whenever M_{n-1}[f] stabilizes, every lower level stabilizes too
    art = appendix_artifacts
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [1.0, -2.0, 0.5, 3.0], psi, mode="tail")
    statuses = [art.limit(g, k)[0] for k in range(art.n)]
    assert statuses[art.n - 1] in ("stable", "loose")
    assert all(s in ("stable", "loose") for s in statuses)


def test_constructed_function_recovers_coefficients(appendix_artifacts):
    art = appendix_artifacts
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [2.0, -1.0, 3.0, 5.0], psi, mode="tail")
    res = extract_operator(g, art.scale, art.chain_q, art.constants, art.schedule)
    truth = [2.0, -1.0, 3.0, 5.0]
    assert all(abs(c - t) < 2e-4 for c, t in zip(res.coefficients, truth))  # NaN too


@pytest.mark.parametrize("text, coefficients", [
    ("exp(-x)", [-2.730258, -1.21719, 0.89816, -1.66871]),
    ("x^-3", [-1.510562, 1.17712, 1.460924, -2.377872]),
])
def test_tail_limit_k1_returns_a2(appendix_artifacts, text, coefficients):
    # the bundle's M_1[g] sequence drops the probes where g's double value no
    # longer resolves phi_4, so its limit is a_2 within its confidence
    art = appendix_artifacts
    psi = ExpressionFunction(text)
    g = construct_from_source(art, coefficients, psi, mode="tail")
    rep = check_complete(
        g, art, source=lambda x: psi(x, 0).value,
        remainder=g.remainder, coefficients=g.coefficients,
    )
    v = rep.verdicts["(5.7) limit k=1"]
    eps1 = art.constants.epsilon[1]
    assert v["status"] == "holds"
    tol = max(10 * v["confidence"] / abs(eps1), 1e-4)
    assert abs(v["value"] / eps1 - coefficients[1]) <= tol


def test_kernel_targets_consistent_and_recovered(appendix_artifacts):
    # M_3[f] = c4*eps_3 is constant: a sequence flat within its noise is a
    # limit, not a divergence, and both routes cut it alike
    art = appendix_artifacts
    for c1, c2, c3, c4 in [
        [-0.706214, 2.893744, 2.224616, 1.904134],
        [-2.398362, 0.514664, 1.407756, 2.9944],
        [0.571094, -0.593879, 1.200544, 2.812888],
        [1.319894, 2.697645, 0.626728, -2.88149],
        [-2.638166, -0.743341, -1.410254, -1.715419],
        [1.989289, -2.240435, 1.828185, 2.206605],
    ]:
        f = ExpressionFunction(f"{c1}*(exp(x)) + {c2}*(x) + {c3}*(log(x)) + {c4}*(1)")
        assert check_complete(f, art).consistent
        res = extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
        truth = [c1, c2, c3, c4]
        assert all(abs(c - t) < 1e-4 for c, t in zip(res.coefficients, truth))  # NaN too


def test_remainder_identity_and_bound(appendix_artifacts):
    art = appendix_artifacts
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi, mode="tail")
    rep = check_complete(
        g, art, source=lambda x: psi(x, 0).value,
        remainder=g.remainder, coefficients=g.coefficients,
    )
    assert rep.verdicts["(5.14)-(5.15) identity"]["status"] == "holds"
    assert rep.verdicts["(5.16) bound"]["status"] == "holds"
    assert rep.verdicts["(5.17) bound"]["status"] == "holds"


@pytest.mark.parametrize("coefficients", [[1, 1, 1, 1], [1, -2, 0.5, 1], [2, 1, 1, 1]])
def test_remainder_identity_holds_without_the_exact_remainder(appendix_artifacts,
                                                              coefficients):
    # the direct side M_k[f] - sum c_i M_k[phi_i] is as noisy as M_k[f]:
    # e.g. it read 2.1 at k = 3, x = 29.9, where the truth is -1e-13
    art = appendix_artifacts
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, coefficients, psi, mode="tail")
    src = lambda x: psi(x, 0).value
    for kw in ({}, {"coefficients": coefficients}):
        rep = check_complete(g, art, source=src, **kw)
        assert rep.verdicts["(5.14)-(5.15) identity"]["status"] == "holds", kw
        assert rep.consistent, kw


@pytest.mark.parametrize("index, shift", [(3, 1e-6), (1, 1e-3)])
def test_remainder_identity_fails_on_a_wrong_coefficient(appendix_artifacts, index, shift):
    # the noise floors take the identity's rounding junk, not a real error
    art = appendix_artifacts
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi, mode="tail")
    wrong = list(g.coefficients)
    wrong[index] += shift
    rep = check_complete(g, art, source=lambda x: psi(x, 0).value, coefficients=wrong)
    assert rep.verdicts["(5.14)-(5.15) identity"]["status"] == "fails"
    assert not rep.consistent


def test_a_limit_lost_in_noise_reads_zero(appendix_artifacts):
    # from x ~ 30 on, M_3[exp(-x) + x] lies within the chain's noise estimate
    status, value, conf = appendix_artifacts.limit(ExpressionFunction("exp(-x) + x"), 3)
    assert status == "stable" and value == 0.0
    assert 0.0 < conf < 1e-6


def test_a_bundle_cuts_its_schedule_at_the_members_reach(appendix_scale):
    # the last of these 12 points, 879.6, overflows exp(x): the bundle keeps
    # the 11 points before it, where scale_schedule cuts
    art = artifacts_for(appendix_scale, make_schedule(4.0, math.inf, 12, 1.6))
    assert art.schedule.points == scale_schedule(appendix_scale).points
    assert len(art.schedule.points) == 11
    # only 5.0 and 100.0 of these keep exp(x) finite
    with pytest.raises(BadScheduleParams):
        artifacts_for(appendix_scale, make_schedule(4.0, math.inf, 8, 20.0))


def test_a_decisive_limit_is_not_read_as_noise(appendix_scale):
    # on the default schedule M_3[exp(x)] ends in rounding noise, but its
    # limit is decisive (loose) and stands: no noise verdict replaces it
    art = artifacts_for(appendix_scale)
    res = extract_operator(ExpressionFunction("exp(x)"), art.scale, art.chain_q,
                           art.constants, art.schedule)
    assert all(s in ("stable", "loose") for s in res.statuses)
    assert res.coefficients[0] == 1.0
    assert all(abs(c) < 1e-15 for c in res.coefficients[1:])


def test_incomplete_O_estimate_reads_noise_as_zero(appendix_scale):
    # on the default schedule M_3[exp(-x) + x] ends in noise whose spread
    # once read as an unbounded (6.18) ratio
    art = artifacts_for(appendix_scale)
    rep = check_incomplete(ExpressionFunction("exp(-x) + x"), 3, art)
    assert rep.verdicts["(6.18) O-estimates"]["status"] == "holds"


def test_term_loss_rule(appendix_artifacts):
    # L_{n-i+h}[phi_{i-h+1}] vanishes identically (checked inside the
    # type-I ladder helper)
    from chebscale.expansion import _term_loss

    assert _term_loss(appendix_artifacts, appendix_artifacts.n)
    assert _term_loss(appendix_artifacts, 2)


# outside the span of the appendix scale, though |W(phi_1..phi_4, f)| lies
# below 1e-8 times the product of its matrix's column norms at every probe
_NEAR_KERNEL = ["x + 1e-3*x^(-3)", "x + 1e-6*sqrt(x)", "exp(x) + 1e-6*x^2"]


def test_a_target_near_the_span_is_not_in_it(appendix_artifacts):
    for text in _NEAR_KERNEL:
        assert not appendix_artifacts.lf_is_zero(ExpressionFunction(text)), text
    rep = check_complete(ExpressionFunction("exp(x) + 1e-6*x^2"), appendix_artifacts)
    assert not any(v.get("zero") for v in rep.verdicts.values())


def test_a_near_kernel_target_has_no_complete_expansion(appendix_scale):
    # sqrt(x) >> log(x) and x^2 >> x: no expansion in the scale is complete
    art = artifacts_for(appendix_scale)
    for text in _NEAR_KERNEL[1:]:
        rep = check_complete(ExpressionFunction(text), art)
        assert rep.verdicts["(5.9) integral"]["status"] == "fails", text


@pytest.fixture(scope="module")
def four_bundles(appendix_artifacts, cubic_artifacts, poly_artifacts, taylor_artifacts):
    return [appendix_artifacts, cubic_artifacts, poly_artifacts, taylor_artifacts]


_COEFFICIENT = st.one_of(
    st.just(0.0),
    st.integers(-3, 3).map(float),
    *(st.floats(-b, b, allow_subnormal=False) for b in (5.0, 1e3, 1e-3)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.lists(_COEFFICIENT, min_size=4, max_size=4))
def test_a_kernel_combination_reads_zero(four_bundles, which, coefficients):
    art = four_bundles[which]
    text = " + ".join(f"({c!r})*({phi.name})"
                      for c, phi in zip(coefficients, art.scale.functions))
    assert art.lf_is_zero(ExpressionFunction(text))


def test_lf_is_zero_stops_at_the_first_nonzero_probe(appendix_artifacts):
    # exp(x^2) overflows from the probe x ~ 29.9 on, after a non-zero probe
    assert not appendix_artifacts.lf_is_zero(ExpressionFunction("exp(x^2)"))
    # a zero probe reads on, to the one that overflows
    with pytest.raises(EvaluationError, match=r"W\(phi_1\.\.phi_n, f\) fails at x="):
        appendix_artifacts.lf_is_zero(ExpressionFunction("x + 0*exp(x^2)"))


def _corpus(art, cubic_art, taylor_art):
    """Constructed corpus: kernel members, integrable sources, divergent
    sources, on three scales. Entries: (label, checker calls)."""
    out = []

    def complete(f, a, **kw):
        return lambda: check_complete(f, a, **kw)

    def incomplete(f, i, a, **kw):
        return lambda: check_incomplete(f, i, a, **kw)

    def bounded(f, i, a, **kw):
        return lambda: check_O(f, i, a, **kw)

    def absolute(f, a, **kw):
        return lambda: check_absolute(f, a, **kw)

    # appendix scale
    kern = ExpressionFunction("exp(x) + x + log(x) + 1")
    out.append(("appendix kernel complete", complete(kern, art)))
    out.append(("appendix kernel absolute", absolute(kern, art)))
    kern2 = ExpressionFunction("2*exp(x) - x + 3*log(x) + 5")
    out.append(("appendix kernel2 complete", complete(kern2, art)))
    out.append(("appendix basis phi2 complete", complete(art.scale.functions[1], art)))

    psi_exp = ExpressionFunction("exp(-x)")
    g1 = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi_exp, mode="tail")
    src1 = lambda x: psi_exp(x, 0).value
    out.append(("appendix tail exp complete",
                complete(g1, art, source=src1, remainder=g1.remainder,
                         coefficients=g1.coefficients)))
    out.append(("appendix tail exp absolute", absolute(g1, art, source=src1)))
    out.append(("appendix tail exp O i=4", bounded(g1, 4, art, source=src1)))

    psi_pow = ExpressionFunction("x^-3")
    g2 = construct_from_source(art, [2.0, -1.0, 0.5, 1.5], psi_pow, mode="tail")
    src2 = lambda x: psi_pow(x, 0).value
    out.append(("appendix tail pow complete",
                complete(g2, art, source=src2, remainder=g2.remainder,
                         coefficients=g2.coefficients)))
    out.append(("appendix tail pow absolute", absolute(g2, art, source=src2)))

    psi_osc = ExpressionFunction("exp(-x)*cos(x)")
    g3 = construct_from_source(art, [1.0, 0.0, 1.0, 0.0], psi_osc, mode="tail")
    src3 = lambda x: psi_osc(x, 0).value
    out.append(("appendix oscillating-source complete",
                complete(g3, art, source=src3, remainder=g3.remainder,
                         coefficients=g3.coefficients)))
    out.append(("appendix oscillating-source absolute", absolute(g3, art, source=src3)))

    psi_div = ExpressionFunction("1/x")
    g4 = construct_from_source(art, [1.0, 1.0, 0.0, 0.0], psi_div, mode="from_T")
    src4 = lambda x: psi_div(x, 0).value
    out.append(("appendix divergent complete", complete(g4, art, source=src4)))
    out.append(("appendix divergent absolute", absolute(g4, art, source=src4)))
    out.append(("appendix divergent O i=4", bounded(g4, 4, art, source=src4)))

    psi_mix = ExpressionFunction("log(x)/x")
    g5 = construct_from_source(art, [1.0, 1.0, 0.0, 0.0], psi_mix, mode="from_T")
    src5 = lambda x: psi_mix(x, 0).value
    out.append(("appendix mixed incomplete i=2", incomplete(g5, 2, art, source=src5)))
    out.append(("appendix mixed incomplete i=3", incomplete(g5, 3, art, source=src5)))

    psi_sin = ExpressionFunction("sin(x)")
    g6 = construct_from_source(art, [1.0, 1.0, 1.0, 0.0], psi_sin, mode="from_T")
    src6 = lambda x: psi_sin(x, 0).value
    out.append(("appendix bounded-oscillation O i=4", bounded(g6, 4, art, source=src6)))

    # cubic scale toward 0^- (all-positive Wronskians: convexity branch)
    fe = ExpressionFunction("exp(x)")
    out.append(("cubic convex exp complete", complete(fe, cubic_art)))
    out.append(("cubic convex exp absolute", absolute(fe, cubic_art)))
    kernc = ExpressionFunction("1 + 2*x - x^2 + 0.5*x^3")
    out.append(("cubic kernel complete", complete(kernc, cubic_art)))

    # taylor scale at a finite limit point
    out.append(("taylor exp complete", complete(fe, taylor_art)))
    out.append(("taylor exp absolute", absolute(fe, taylor_art)))
    out.append(("taylor exp O i=4", bounded(fe, 4, taylor_art)))
    return out


CORPUS_STATUSES = Path(__file__).parent / "data" / "corpus_statuses.json"


def test_theorem_suite_consistency(appendix_artifacts, cubic_artifacts, taylor_artifacts):
    # every case is consistent and gives the pinned status for every label
    pinned = json.loads(CORPUS_STATUSES.read_text())
    corpus = _corpus(appendix_artifacts, cubic_artifacts, taylor_artifacts)
    assert [label for label, _ in corpus] == list(pinned)
    failures, moved = [], []
    for label, run in corpus:
        rep = run()
        if not rep.consistent:
            failures.append((label, rep.statuses()))
        got, want = rep.statuses(), pinned[label]
        moved += [(label, key, want.get(key), got.get(key))
                  for key in sorted(set(got) | set(want)) if got.get(key) != want.get(key)]
    assert not failures, failures
    assert not moved, moved


def test_divergent_source_fails_together(appendix_artifacts):
    art = appendix_artifacts
    psi = ExpressionFunction("1/x")
    g = construct_from_source(art, [1.0, 1.0, 0.0, 0.0], psi, mode="from_T")
    rep = check_complete(g, art, source=lambda x: psi(x, 0).value)
    assert rep.consistent
    assert rep.verdicts["(5.9) integral"]["status"] == "fails"
    assert rep.verdicts["(5.8) last limit"]["status"] == "fails"


def test_convexity_verdicts_on_cubic(cubic_artifacts):
    art = cubic_artifacts
    fe = ExpressionFunction("exp(x)")
    rep = check_complete(fe, art)
    assert rep.consistent
    assert rep.verdicts["(6.9) sign"]["status"] == "holds"
    assert rep.verdicts["(6.10) monotonicity"]["status"] == "holds"
    assert rep.verdicts["(6.2) O-form"]["status"] == "holds"


def test_convexity_off_without_nonnegative_image(cubic_artifacts):
    # L[-exp(x)] < 0 on the schedule: the all-positive cubic scale checks no
    # generalized-convexity fact
    rep = check_complete(ExpressionFunction("-exp(x)"), cubic_artifacts)
    assert rep.consistent
    assert not {"(6.2) O-form", "(6.9) sign", "(6.10) monotonicity"} & set(rep.verdicts)
    assert not any("convexity" in note for note in rep.notes)


def test_check_O_boundary_cases(appendix_artifacts):
    art = appendix_artifacts
    # f = a1 phi1 + a2 phi2 + c phi3: M_2[f] tends to eps_2 * c (bounded)
    f = ExpressionFunction("exp(x) + x + 7*log(x)")
    rep = check_O(f, 3, art)
    assert rep.consistent
    assert rep.verdicts["(5.32) bounded"]["status"] == "holds"


def test_check_O_reads_no_verdict_from_noise():
    # M_3[exp(x)] vanishes: on the default schedule its computed values sit
    # inside their own rounding noise, so (5.32) must not fail against the
    # (5.33) that holds
    sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
    rep = check_O(ExpressionFunction("exp(x)"), 4, artifacts_for(sc))
    assert rep.verdicts["(5.33) partial bounded"]["status"] == "holds"
    assert rep.verdicts["(5.32) bounded"]["status"] != "fails"
    assert rep.consistent


@pytest.mark.parametrize("scale, text, status", [
    ("appendix", "x^2", "holds"),
    ("appendix", "exp(x)*x", "fails"),
    ("appendix", "x*log(x)", "holds"),
    ("appendix", "exp(x)*sin(x)", "holds"),
    ("taylor", "log(1-x)", "fails"),
    ("taylor", "exp(x)", "holds"),
    ("taylor", "1/(1-x)", "fails"),
    ("cubic", "exp(x)", "holds"),
    ("cubic", "1/x", "fails"),
    ("poly", "x^4", "fails"),
    ("poly", "x^2*log(x)", "holds"),
    ("poly", "x^3*sin(x)", "holds"),
    ("poly", "x^2", "holds"),
])
def test_check_O_first_order(request, scale, text, status):
    # f/phi_1 = O(1) iff M_0[f] = O(1) iff the order-1 partial integral stays
    # bounded: slow growth (x, 1/(1-x)) fails and fast decay (x^2 e^-x) holds
    rep = check_O(ExpressionFunction(text), 1, request.getfixturevalue(f"{scale}_artifacts"))
    assert rep.verdicts["(5.36) O-form"]["status"] == status
    assert rep.consistent


def test_hierarchy_verdict_ignores_earlier_checks():
    # the narrow paper schedule does not show log(x)/x -> 0; checking it
    # there first must not decide the scale's verdict for the bundle
    sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
    sched = make_schedule(4.0, math.inf, 10, 1.22)
    assert not verify_hierarchy(sc, sched).passed
    art = artifacts_for(sc, sched)
    assert art.scale.verified.passed


def test_type1_nests_leave_shared_grid_alone(appendix_artifacts):
    # the tail-pow type-I nests resolve their steep far cells without
    # touching the bundle's grid, its value cache or any earlier nest; the
    # (6.12) density reads the P-weight nest at the grid's own nodes
    art = appendix_artifacts
    n = art.n
    psi_exp = ExpressionFunction("exp(-x)")
    g1 = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi_exp, mode="tail")
    src1 = lambda x: psi_exp(x, 0).value
    check_absolute(g1, art, source=src1)
    # earlier nests: the bundle's P-weight nest and g1's (6.11) and (4.32) nests
    lf1, pn = art.lf_evaluator(g1, src1), art.p_vals[n]
    earlier = [art.nest(*_p_levels(art), UNIT),
               art.nest(*_type1_levels(art, n), _guarded_ratio(_abs(lf1), pn)),
               art.nest(*_type1_levels(art, n), _guarded_ratio(lf1, pn))]
    nodes = art.grid.nodes.copy()
    cached = {fn: vals.copy() for fn, vals in art.grid._value_cache.items()}
    before = [[nest.value(x, 0) for x in art.class_points] for nest in earlier]

    psi = ExpressionFunction("x^-3")
    g2 = construct_from_source(art, [2.0, -1.0, 0.5, 1.5], psi, mode="tail")
    src = lambda x: psi(x, 0).value
    comp = check_complete(g2, art, source=src, remainder=g2.remainder,
                          coefficients=g2.coefficients)
    absolute = check_absolute(g2, art, source=src)
    assert comp.verdicts["(4.32) integral"]["status"] == "holds"
    assert absolute.verdicts["(6.11) type-I nest"]["status"] == "holds"
    assert absolute.verdicts["(6.12) P-weighted"]["status"] == "holds"

    assert np.array_equal(art.grid.nodes, nodes)
    for fn, vals in cached.items():
        assert np.array_equal(art.grid._value_cache[fn], vals, equal_nan=True)
    for nest, vals in zip(earlier, before):
        after = [nest.value(x, 0) for x in art.class_points]
        assert np.array_equal(after, vals, equal_nan=True)


def test_a_check_reads_no_nest_built_for_an_earlier_source():
    # a nest built from one check's source must not serve a later check of
    # the same target that computes L[f] itself
    sched = make_schedule(4.0, math.inf, 10, 1.22)
    psi = ExpressionFunction("exp(-x)")
    verdicts = []
    for earlier in (False, True):
        sc = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
        art = artifacts_for(sc, sched)
        g = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi, mode="tail")
        if earlier:
            check_complete(g, art, source=lambda x: 0.0)
        verdicts.append(check_complete(g, art).verdicts)
    fresh, after = verdicts
    assert {k: v["status"] for k, v in after.items()} == {
        k: v["status"] for k, v in fresh.items()}
    for label, v in fresh.items():
        if "value" in v:
            assert np.array_equal(after[label]["value"], v["value"], equal_nan=True), label


def test_reused_id_gets_its_own_limit(appendix_artifacts):
    # a target that inherits the id() of a dropped one must not be served
    # the dropped target's cached limit, nor its images kept by the chain
    art = appendix_artifacts
    eps0 = art.constants.epsilon[0]
    seen = set()
    for j in range(200):
        c1 = 1.0 + 0.25 * j
        f = ExpressionFunction(f"{c1}*exp(x) + x + log(x) + 1")
        reused = id(f) in seen
        seen.add(id(f))
        _, value, _ = art.limit(f, 0)
        assert abs(value / eps0 - c1) <= 1e-6 * c1
        res = extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
        assert abs(res.coefficients[0] - c1) <= 1e-6 * c1
        del f, res
        gc.collect()
        if reused:
            break
    assert reused, "no id() came back in 200 targets"


def test_a_dropped_target_leaves_no_image_in_the_chain(appendix_artifacts):
    # the chain keeps a target's images under a weak key, and they hold no
    # reference back to it: the entry goes with the target, no collector run
    images = appendix_artifacts.chain_q._images
    before = len(images)
    gc.disable()
    try:
        f = ExpressionFunction("3*exp(x) + x - log(x)")
        appendix_artifacts.limit(f, 1)
        assert f in images and len(images) == before + 1
        del f
        assert len(images) == before
    finally:
        gc.enable()


def test_extract_operator_on_a_bundle_computes_no_member_image(appendix_artifacts,
                                                                monkeypatch):
    # the bundle's constants read M_k[phi_h] for h >= k + 2 at every schedule
    # point, which is the deflation basis of every operator limit there;
    # every module that binds chain_levels (the one chain pass) is patched
    art = appendix_artifacts
    real = importlib.import_module("chebscale.factorization").chain_levels
    seen = []

    def counted(chain, f, *args, **kw):
        seen.append(f)
        return real(chain, f, *args, **kw)

    for name, mod in list(sys.modules.items()):
        if name.startswith("chebscale.") and getattr(mod, "chain_levels", None) is real:
            monkeypatch.setattr(mod, "chain_levels", counted)
    f = ExpressionFunction("2*exp(x) - x + 3*log(x) + 5")
    extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
    assert seen and all(g is f for g in seen)


def _limit_runs(monkeypatch):
    """The levels whose limit pipeline runs from now on (each run reads a
    level sequence first)."""
    real = expansion._level_sequence
    runs = []

    def counted(chain, f, k, pts):
        runs.append(k)
        return real(chain, f, k, pts)

    monkeypatch.setattr(expansion, "_level_sequence", counted)
    return runs


def _same_result(a, b):
    return (a.statuses, a.partial) == (b.statuses, b.partial) and all(
        str(x) == str(y) for x, y in zip(a.coefficients + a.confidences,
                                         b.coefficients + b.confidences))


def test_extract_operator_reads_the_limits_check_complete_kept(appendix_artifacts, monkeypatch):
    art = appendix_artifacts
    text = "2*exp(x) - x + 3*log(x) + 5 + exp(-x)"
    args = art.scale, art.chain_q, art.constants, art.schedule
    ref = extract_operator(ExpressionFunction(text), *args)  # a fresh target: no memo
    f = ExpressionFunction(text)
    check_complete(f, art)
    runs = _limit_runs(monkeypatch)
    got = extract_operator(f, *args)
    assert runs == []  # the schedule's cut is the classification points' cut here
    assert _same_result(got, ref)
    # another cut of the same target computes its own limits
    other = make_schedule(4.0, math.inf, 9, 1.3)
    ref = extract_operator(ExpressionFunction(text), art.scale, art.chain_q, art.constants, other)
    del runs[:]
    assert _same_result(extract_operator(f, art.scale, art.chain_q, art.constants, other), ref)
    assert sorted(runs) == [0, 1, 2, 3]
    # and so does another scale on the same chain, whatever its members' values
    twin = ChebyshevScale.from_exprs([m.name for m in art.scale.functions], T=4.0, x0=math.inf)
    del runs[:]
    _operator_limit(art.chain_q, twin, f, 1, art.class_points)
    assert runs == [1]


def test_a_dropped_target_leaves_no_limit_in_the_chain(appendix_artifacts):
    limits = appendix_artifacts.chain_q.limits
    before = len(limits)
    gc.disable()
    try:
        f = ExpressionFunction("3*exp(x) + x - log(x) + 2")
        appendix_artifacts.limit(f, 2)
        assert f in limits and len(limits) == before + 1
        del f
        assert len(limits) == before
    finally:
        gc.enable()


def test_checks_release_their_target(cubic_artifacts):
    # nothing the bundle keeps (records, nests, grid tabulations) holds a
    # checked target alive once the caller drops it
    f = ExpressionFunction("exp(x)")
    reports = [check_complete(f, cubic_artifacts), check_absolute(f, cubic_artifacts),
               check_incomplete(f, 2, cubic_artifacts), check_O(f, 3, cubic_artifacts)]
    assert all(rep.consistent for rep in reports)
    ref = weakref.ref(f)
    del f, reports
    gc.collect()
    assert ref() is None


def _counted_builds(monkeypatch):
    """The argument tuples of every NestedIntegral the bundles build."""
    builds = []

    class Counted(NestedIntegral):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(expansion, "NestedIntegral", Counted)
    return builds


def _levels(nest):
    """Every table a nest's queries read, as bytes."""
    return [(lev.cum.tobytes(), lev.cell_ints.tobytes(),
             None if lev.suffix is None else lev.suffix.tobytes()) for lev in nest.levels]


@pytest.mark.parametrize("stack", ["to_x0", "divergent"])
def test_a_nest_reads_nothing_of_its_density_but_the_grid_table(appendix_scale,
                                                                appendix_schedule, stack):
    # the nest memo's key holds the density's grid table, not the density:
    # two densities with one table build bitwise the same nest, or raise the
    # same DivergentTail, and the bundle builds it once
    art = artifacts_for(appendix_scale, appendix_schedule)
    n = art.n
    if stack == "to_x0":
        weights, orientations = [art.q_vals[i] for i in range(1, n + 1)], ["to_x0"] * n
        first = lambda t: math.exp(-t) * t**-2
    else:
        weights, orientations = [None], ["to_x0"]
        first = lambda t: 1.0 / t
    # the same table on the grid nodes, another function everywhere else
    second = NodeFn(lambda t: 0.0, lambda xs: tabulate(first, xs))
    assert art.grid.values(first).tobytes() == art.grid.values(second).tobytes()

    def build(make, density):
        try:
            return make(weights, orientations, density)
        except DivergentTail as exc:
            return exc

    direct = [build(lambda *a: NestedIntegral(art.grid, *a), d) for d in (first, second)]
    kept = [build(art.nest, d) for d in (first, second)]
    if stack == "to_x0":
        a, b = direct
        assert _levels(a) == _levels(b)
        for level in range(n):
            assert ([a.value(x, level) for x in art.probes]
                    == [b.value(x, level) for x in art.probes])
        assert kept[0] is kept[1]
        assert _levels(kept[0]) == _levels(a)
    else:
        assert all(isinstance(exc, DivergentTail) for exc in direct + kept)
        assert len({(str(exc), exc.decisive) for exc in direct + kept}) == 1
        assert direct[0].decisive
        assert kept[0] is not kept[1]  # a repeat raises a new exception
    assert len(art._nests) == 1


def test_targets_with_one_source_share_their_nests(appendix_scale, appendix_schedule,
                                                   monkeypatch):
    # L kills the scale, so two constructions from one source differ in no
    # nest a check of them reads: the second construction and its check
    # build none, and each report is that of a bundle that saw only it
    psi = ExpressionFunction("exp(-x)")
    src = lambda x: psi(x, 0).value
    targets = ([1.0, 1.0, 1.0, 1.0], [2.0, -1.0, 0.5, 3.0])

    def report(art, coefficients):
        g = construct_from_source(art, coefficients, psi, mode="tail")
        rep = check_complete(g, art, source=src)
        return repr((rep.verdicts, rep.consistent, rep.notes))

    fresh = [report(artifacts_for(appendix_scale, appendix_schedule), c) for c in targets]
    builds = _counted_builds(monkeypatch)
    art = artifacts_for(appendix_scale, appendix_schedule)
    shared, counts = [], []
    for c in targets:
        before = len(builds)
        shared.append(report(art, c))
        counts.append(len(builds) - before)
    assert counts[0] > 0 and counts[1] == 0
    assert len(art._nests) == counts[0]  # no nest was built twice
    assert shared == fresh


def test_the_nest_memo_keeps_the_most_recently_used(appendix_scale, appendix_schedule,
                                                    monkeypatch):
    size = expansion._NEST_MEMO_SIZE
    art = artifacts_for(appendix_scale, appendix_schedule)
    densities = [lambda t, c=c: c for c in range(1, size + 6)]
    builds = _counted_builds(monkeypatch)

    def nest(density):
        return art.nest([art.q_vals[1]], ["from_T"], density)

    kept = [nest(d) for d in densities[:size]]
    assert nest(densities[0]) is kept[0]  # a read moves the entry to the back
    for d in densities[size:]:
        nest(d)
    assert len(builds) == size + 5
    assert len(art._nests) == size
    assert nest(densities[0]) is kept[0]
    assert len(builds) == size + 5
    assert nest(densities[1]) is not kept[1]  # the least recently used went first
    assert len(builds) == size + 6


def test_a_dropped_constructed_target_is_collected(appendix_scale, appendix_schedule):
    # the nests the bundle keeps for a constructed target, and for its
    # checks, hold neither the target nor its source
    art = artifacts_for(appendix_scale, appendix_schedule)
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [1.0, -2.0, 0.5, 1.0], psi, mode="tail")
    assert check_complete(g, art, source=lambda x: psi(x, 0).value, remainder=g.remainder,
                          coefficients=g.coefficients).consistent
    assert check_complete(g, art).consistent
    assert art._nests
    refs = [weakref.ref(g), weakref.ref(psi)]
    del g, psi
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_bundle_lf_is_the_wronskian_quotient_at_every_node(cubic_artifacts):
    # the L[f] values a bundle keeps for a target are apply_full_operator's
    art = cubic_artifacts
    f = ExpressionFunction("exp(x)*cos(x)")
    tabulated = art.grid.values(art.lf_evaluator(f)).ravel()
    nodes = art.grid.sigma * art.grid.cellnodes.ravel()
    direct = [apply_full_operator(art.scale, f, x) for x in nodes]
    assert tabulated.tolist() == direct


def test_lf_tabulation_makes_no_bordered_wronskian_call(cubic_artifacts, monkeypatch):
    # the module: ``chebscale.wronskian`` names the function of that name
    wronskian = importlib.import_module("chebscale.wronskian")
    real = wronskian.bordered_wronskian
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wronskian, "bordered_wronskian", counted)
    art = cubic_artifacts
    f = ExpressionFunction("exp(x)")
    # the bordered determinants of all nodes are eliminated as one stack
    first = art.grid.values(art.lf_evaluator(f))
    assert calls == []
    # a new evaluator misses the grid's cache but reads f's record
    assert art.lf_evaluator(f).on_nodes(art.grid.xnodes) is art._record(f).lf_nodes
    assert np.array_equal(art.grid.values(art.lf_evaluator(f)), first)
    assert calls == []


def test_limits_stop_at_the_target_reach(poly_artifacts):
    # the poly bundle's classification points reach x ~ 1e4, far past where
    # exp(x) overflows: the limits are read on the points where it is
    # finite, and the check answers or refuses, never overflows
    f = ExpressionFunction("exp(x)")
    assert [poly_artifacts.limit(f, k)[0] for k in range(4)] == ["diverged"] * 4
    try:
        check_complete(f, poly_artifacts)
    except ChebscaleError:
        pass


PUBLIC_CALLS = {
    "limit": lambda f, art: art.limit(f, 0),
    "extract_operator": lambda f, art: extract_operator(
        f, art.scale, art.chain_q, art.constants, art.schedule),
    "extract_recursive": lambda f, art: extract_recursive(f, art.scale, art.schedule),
    "check_complete": lambda f, art: check_complete(f, art),
    "check_incomplete": lambda f, art: check_incomplete(f, 2, art),
    "check_O": lambda f, art: check_O(f, 2, art),
    "check_absolute": lambda f, art: check_absolute(f, art),
}


@pytest.mark.parametrize("call,target",
                         [(name, "exp(x^5)") for name in PUBLIC_CALLS]
                         + [("extract_recursive", "exp(x^2)"), ("check_incomplete", "exp(x^2)")])
def test_a_target_past_double_range_raises_a_library_error(appendix_artifacts, call, target):
    # exp(x^5) overflows at the first probe, exp(x^2) part way along it
    with pytest.raises(ChebscaleError):
        PUBLIC_CALLS[call](ExpressionFunction(target), appendix_artifacts)


def test_no_check_builds_the_principal_system(appendix_scale, appendix_schedule, monkeypatch):
    # factorization is the one module that binds build_principal_system, so
    # patching it there sees every call
    factorization = importlib.import_module("chebscale.factorization")
    bound = [name for name, mod in sys.modules.items() if name.startswith("chebscale.")
             and hasattr(mod, "build_principal_system")]
    assert bound == ["chebscale.factorization"]
    calls = []
    monkeypatch.setattr(factorization, "build_principal_system",
                        lambda *args, **kw: calls.append(args))
    art = artifacts_for(appendix_scale, appendix_schedule)
    f = ExpressionFunction("2*exp(x) - x + 3*log(x) + 5")
    check_complete(f, art)
    check_incomplete(f, 2, art)
    check_O(f, 2, art)
    check_absolute(f, art)
    assert calls == []


def _bits_or_nan(values):
    return [None if math.isnan(v) else struct.pack("d", v) for v in values]


@pytest.mark.parametrize("text,mode", [("exp(-x)", "tail"), ("x^-3", "tail"),
                                       ("exp(-x)", "from_T"), ("x^-3", "from_T"),
                                       ("1/x", "from_T")])
def test_constructed_array_jets_are_the_scalar_jets(appendix_artifacts, text, mode):
    # at the class points (the probes first), at every Kronrod node of the
    # nest's log cells (read point by point inside the array form) and past
    # the grid (flagged: the scalar evaluation raises there), f's and its
    # remainder's array jets to order n - 1 are the scalar jets bit for bit
    art = appendix_artifacts
    n = art.n
    coefficients = [1.0, -2.0, 0.5, 3.0]
    g = construct_from_source(art, coefficients, ExpressionFunction(text), mode=mode)
    h = construct_from_source(art, coefficients, ExpressionFunction(text), mode=mode)
    assert art.probes == art.class_points[:len(art.probes)]
    log_cells = [lev.log_cells for lev in g._nest.levels if lev.log_cells]
    assert bool(log_cells) == (mode == "tail")
    log_nodes = [x for cells in log_cells
                 for x in (art.grid.sigma * art.grid.cellnodes[cells]).ravel().tolist()]
    past = 2.0 * art.grid.sigma * art.grid.nodes[-1]
    points = list(art.class_points) + log_nodes + [past]
    xs = np.array(points)
    for got, ref in ((g, h), (g.remainder, h.remainder)):
        with np.errstate(all="ignore"):
            jet = got(xs, n - 1)
        for p, x in enumerate(points):
            values = [c[p] for c in jet.coeffs]
            try:
                expected = ref(x, n - 1).coeffs
            except ChebscaleError:
                assert x == past and all(math.isnan(v) for v in values)
                continue
            assert _bits_or_nan(values) == _bits_or_nan(expected), (x, values, expected)
