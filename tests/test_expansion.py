import gc
import importlib
import math
import weakref

import numpy as np
import pytest

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
    verify_hierarchy,
)
from chebscale.errors import ChebscaleError, LimitDiverged
from chebscale.expr import ExpressionFunction
from chebscale.factorization import apply_full_operator, build_type1_chain


def test_extract_recursive_f1_example():
    sc = ChebyshevScale.from_exprs(["x^2", "log(x)", "1", "x^-1"], T=1.0, x0=math.inf)
    sched = make_schedule(1.0, math.inf, 16, 1.45)
    f = ExpressionFunction("x^2 + log(x) + 1 + x^-1 + exp(-x)")
    res = extract_recursive(f, sc, sched)
    assert len(res.coefficients) == 4
    assert max(abs(c - 1.0) for c in res.coefficients) < 1e-3
    assert all(c < 1e-3 for c in res.confidences)


def test_extract_recursive_f2_example():
    sc = ChebyshevScale.from_exprs(["log(x)", "1", "sqrt(x)", "x"], T=0.4, x0=0.0)
    sched = make_schedule(0.4, 0.0, 16, 0.3)
    f = ExpressionFunction("log(x) + 1 + sqrt(x) + x^2")
    res = extract_recursive(f, sc, sched)
    truth = [1.0, 1.0, 1.0, 0.0]
    assert max(abs(c - t) for c, t in zip(res.coefficients, truth)) < 1e-3


def test_extract_recursive_basis_element(appendix_scale):
    sched = make_schedule(4.0, math.inf, 12, 1.3)
    res = extract_recursive(appendix_scale.functions[1], appendix_scale, sched)
    truth = [0.0, 1.0, 0.0, 0.0]
    assert max(abs(c - t) for c, t in zip(res.coefficients, truth)) < 1e-8


def test_extract_operator_exact_kernel(appendix_artifacts):
    art = appendix_artifacts
    f = ExpressionFunction("2*exp(x) - 1*x + 3*log(x) + 5")
    res = extract_operator(f, art.scale, art.chain_q, art.constants, art.schedule)
    truth = [2.0, -1.0, 3.0, 5.0]
    # the huge leading term sets an information floor of about 1e-5 here
    assert max(abs(c - t) for c, t in zip(res.coefficients, truth)) < 1e-4


def test_extract_operator_taylor_case():
    sc = ChebyshevScale.from_exprs(["1", "1-x", "(1-x)^2", "(1-x)^3"], T=0.0, x0=1.0)
    sched = make_schedule(0.0, 1.0, 12, 0.5)
    art = artifacts_for(sc, sched)
    f = ExpressionFunction("exp(x)")
    res = extract_operator(f, sc, art.chain_q, art.constants, sched)
    e = math.e
    truth = [e, -e, e / 2, -e / 6]
    assert max(abs(c - t) for c, t in zip(res.coefficients, truth)) < 1e-9


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
    assert max(abs(c - t) for c, t in zip(res.coefficients, truth)) < 2e-4


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


def test_term_loss_rule(appendix_artifacts):
    # L_{n-i+h}[phi_{i-h+1}] vanishes identically (checked inside the
    # type-I ladder helper)
    from chebscale.expansion import _term_loss

    assert _term_loss(appendix_artifacts, appendix_artifacts.n)
    assert _term_loss(appendix_artifacts, 2)


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


@pytest.fixture(scope="module")
def taylor_artifacts():
    sc = ChebyshevScale.from_exprs(["1", "1-x", "(1-x)^2", "(1-x)^3"], T=0.0, x0=1.0)
    return artifacts_for(sc, make_schedule(0.0, 1.0, 12, 0.5))


def test_theorem_suite_consistency(appendix_artifacts, cubic_artifacts, taylor_artifacts):
    corpus = _corpus(appendix_artifacts, cubic_artifacts, taylor_artifacts)
    assert len(corpus) >= 12
    failures = []
    for label, run in corpus:
        rep = run()
        if not rep.consistent:
            failures.append((label, rep.statuses()))
    assert not failures, failures


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
    psi_exp = ExpressionFunction("exp(-x)")
    g1 = construct_from_source(art, [1.0, 1.0, 1.0, 1.0], psi_exp, mode="tail")
    check_absolute(g1, art, source=lambda x: psi_exp(x, 0).value)
    nodes = art.grid.nodes.copy()
    cached = {fn: vals.copy() for fn, vals in art.grid._value_cache.items()}
    # every nest of every live target (g1's among them) and the bundle's own
    owners = [(None, art._nests)] + [(t, rec.nests) for t, rec in art._targets.items()]
    nests = {(t, key): [nest.value(x, 0) for x in art.class_points]
             for t, table in owners for key, nest in table.items()}
    assert (None, ("P-weight",)) in nests
    assert any(t is g1 for t, _ in nests)

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
    for (t, key), before in nests.items():
        table = art._nests if t is None else art._targets[t].nests
        after = [table[key].value(x, 0) for x in art.class_points]
        assert np.array_equal(after, before, equal_nan=True)


def test_reused_id_gets_its_own_limit(appendix_artifacts):
    # a target that inherits the id() of a dropped one must not be served
    # the dropped target's cached limit
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
        del f
        gc.collect()
        if reused:
            break
    assert reused, "no id() came back in 200 targets"


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


def test_principal_system_is_built_on_first_read(appendix_scale, appendix_schedule,
                                                  monkeypatch):
    expansion = importlib.import_module("chebscale.expansion")
    real = expansion.build_principal_system
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expansion, "build_principal_system", counted)
    art = artifacts_for(appendix_scale, appendix_schedule)
    check_complete(ExpressionFunction("2*exp(x) - x + 3*log(x) + 5"), art)
    assert calls == []
    system = art.system
    assert art.system is system
    assert len(calls) == 1
    # the lazy system is the one a standalone build gives, bit for bit
    chain_p = build_type1_chain(appendix_scale, appendix_schedule)
    alone = real(appendix_scale, chain_p, appendix_schedule)
    assert system.b == alone.b
    assert np.array_equal(system.beta, alone.beta)
    for P, P_alone in zip(system.P, alone.P):
        assert [P.value(x) for x in art.probes] == [P_alone.value(x) for x in art.probes]
