import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebscale import (
    ChebyshevScale,
    DerivativeOperator,
    WeightedOperator,
    check_admissibility,
    default_verification_schedule,
    finite_prefix,
    load_scale_file,
    make_schedule,
    scale_schedule,
    verify_hierarchy,
    verify_tas,
)
from chebscale.errors import AllImagesVanish, BadScheduleParams, EvaluationError
from chebscale.quadrature import NodeFn


def test_make_schedule_finite_halving():
    s = make_schedule(0.0, 1.0, 6, 0.5)
    assert s.kind == "geometric-approach"
    assert s.points == (0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375)


def test_make_schedule_growth():
    s = make_schedule(1.0, math.inf, 6, 2.0)
    assert s.kind == "geometric-growth"
    assert s.points == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def test_make_schedule_rejects_bad_params():
    with pytest.raises(BadScheduleParams):
        make_schedule(0.0, 1.0, 3, 0.5)
    with pytest.raises(BadScheduleParams):
        make_schedule(0.0, 1.0, 8, 1.5)
    with pytest.raises(BadScheduleParams):
        make_schedule(1.0, math.inf, 8, 0.5)


def test_make_schedule_mirrored_orientation():
    s = make_schedule(0.4, 0.0, 6, 0.5)
    assert s.points[0] == 0.2 and s.points[-1] < s.points[0]
    assert all(p > 0 for p in s.points)


def test_hierarchy_passes_on_log_scale():
    sc = ChebyshevScale.from_exprs(["x^2", "log(x)", "1", "x^-1"], T=1.0, x0=math.inf)
    rec = verify_hierarchy(sc, make_schedule(1.0, math.inf, 12, 2.0))
    assert rec.passed


def test_hierarchy_passes_at_zero_from_left():
    sc = ChebyshevScale.from_exprs(["1", "x + x^2", "x^2"], T=-0.4, x0=0.0)
    rec = verify_hierarchy(sc, make_schedule(-0.4, 0.0, 10, 0.5))
    assert rec.passed


def test_hierarchy_fails_when_reversed():
    sc = ChebyshevScale.from_exprs(["x", "x^2"], T=1.0, x0=math.inf)
    rec = verify_hierarchy(sc, make_schedule(1.0, math.inf, 10, 2.0))
    assert not rec.passed


def test_hierarchy_exactly_one_of_scale_and_reversal(poly_scale):
    sched = make_schedule(1.0, math.inf, 10, 2.0)
    ok_forward = verify_hierarchy(poly_scale, sched).passed
    rev = ChebyshevScale.from_exprs(["1", "x", "x^2", "x^3"], T=1.0, x0=math.inf)
    ok_rev = verify_hierarchy(rev, sched).passed
    assert ok_forward != ok_rev


def test_tas_nonvanishing_on_appendix(appendix_scale):
    grid = [5.0, 8.0, 13.0, 21.0, 34.0, 50.0]
    rec = verify_tas(appendix_scale, grid)
    assert rec.passed
    # all functions positive near x0: the sign pattern report must match
    pattern = rec.details["sign_pattern"]
    assert pattern is not None
    assert all(entry["matches"] for entry in pattern.values())


def test_tas_detects_interior_zero():
    sc = ChebyshevScale.from_exprs(["1", "x + x^2", "x^2"], T=-0.9, x0=0.0)
    grid = [-0.8, -0.6, -0.5, -0.4, -0.2, -0.1]
    rec = verify_tas(sc, grid)
    # W(1, x+x^2) = 1+2x vanishes at -1/2: flagged either at the grid point
    # or as a sign change across it
    assert not rec.passed


def test_tas_constant_wronskian_passes():
    sc = ChebyshevScale.from_exprs(["1", "x"], T=-2.0, x0=0.0)
    rec = verify_tas(sc, [-1.5, -1.0, -0.5, -0.25, -0.1])
    assert rec.passed


def test_tas_keeps_a_small_exact_wronskian(appendix_scale):
    # W(1, log x, x) = 1/x^2 = 3.3e-6 at the last probe of the default
    # schedule: tiny against its column norms, but well above their floor
    rec = verify_tas(appendix_scale, [549.7558])
    assert rec.passed, rec.details["violations"]


def test_admissibility_derivative_with_zero_image():
    sc = ChebyshevScale.from_exprs(
        ["x^2", "log(x)", "1", "x^-1", "exp(-x)"], T=1.0, x0=math.inf
    )
    sched = make_schedule(1.0, math.inf, 12, 2.0)
    out = check_admissibility(sc, DerivativeOperator(1), sched)
    assert out["m"] == 5
    assert out["verdict"] == "pass"
    assert out["suppressed"] == [3]


def test_admissibility_at_zero_from_right():
    sc = ChebyshevScale.from_exprs(["log(x)", "1", "sqrt(x)", "x^2"], T=0.4, x0=0.0)
    sched = make_schedule(0.4, 0.0, 12, 0.5)
    out = check_admissibility(sc, DerivativeOperator(1), sched)
    assert out["m"] == 4
    assert out["verdict"] == "pass"


def test_admissibility_kernel_operator_constant_image(cubic_artifacts):
    sc = ChebyshevScale.from_exprs(["1", "x"], T=-1.0, x0=0.0)
    sched = make_schedule(-1.0, 0.0, 10, 0.5)
    from chebscale import artifacts_for

    art = artifacts_for(sc, sched)
    op = WeightedOperator(art.chain_q, 1, "M")
    out = check_admissibility(sc, op, sched)
    assert out["m"] == 2


def test_admissibility_all_zero_raises():
    sc = ChebyshevScale.from_exprs(["1", "x"], T=-1.0, x0=0.0)
    sched = make_schedule(-1.0, 0.0, 10, 0.5)
    with pytest.raises(AllImagesVanish):
        check_admissibility(sc, DerivativeOperator(2), sched)


def test_load_scale_file(tmp_path):
    path = tmp_path / "demo.scale"
    path.write_text("# demo\nx0 = inf\nT = 1\nx^2\nx\n1\n")
    sc = load_scale_file(path)
    assert sc.n == 3 and sc.infinite and sc.T == 1.0
    assert [f.name for f in sc.functions] == ["x^2", "x", "1"]


# -- the reach rule ------------------------------------------------------------------

def _no_value():
    raise EvaluationError("no value")


# what a callable does at a failing point
_OUTCOMES = {
    "inf": lambda: math.inf,
    "-inf": lambda: -math.inf,
    "nan": lambda: math.nan,
    "overflow": lambda: math.exp(1e3),
    "zero-division": lambda: 1.0 / 0.0,
    "evaluation": _no_value,
}


@given(
    st.integers(0, 12),
    st.lists(
        st.dictionaries(st.integers(0, 11), st.sampled_from(sorted(_OUTCOMES))),
        min_size=1, max_size=3,
    ),
)
def test_finite_prefix_stops_before_the_first_failing_point(count, failures):
    points = [1.5**j for j in range(count)]

    def behaving(fails):
        def fn(x):
            j = points.index(x)
            return _OUTCOMES[fails[j]]() if j in fails else -x
        return fn

    bad = [j for j in range(count) if any(j in fails for fails in failures)]
    expected = points[: bad[0]] if bad else points
    assert finite_prefix(points, [behaving(fails) for fails in failures]) == expected


@given(
    st.integers(0, 12),
    st.lists(
        st.tuples(
            st.dictionaries(st.integers(0, 11), st.sampled_from(sorted(_OUTCOMES))),
            st.sets(st.integers(0, 11)),
        ),
        min_size=1, max_size=3,
    ),
)
def test_finite_prefix_reads_array_forms(count, failures):
    """Callables with array forms give the prefix of the point-by-point walk;
    only points an array form flags (its failures and ``flagged``, where the
    scalar is finite) are evaluated point by point."""
    points = [1.5**j for j in range(count)]
    scalar_at = []

    def behaving(fails, flagged):
        def fn(x):
            j = points.index(x)
            scalar_at.append(j)
            return _OUTCOMES[fails[j]]() if j in fails else -x

        def value(j, x):
            try:
                return _OUTCOMES[fails[j]]() if j in fails else -x
            except (ArithmeticError, EvaluationError):
                return math.nan

        def on_nodes(xs):
            return [math.nan if j in flagged else value(j, x) for j, x in enumerate(xs)]
        return NodeFn(fn, on_nodes)

    bad = [j for j in range(count) if any(j in fails for fails, _ in failures)]
    expected = points[: bad[0]] if bad else points
    assert finite_prefix(points, [behaving(*f) for f in failures]) == expected
    checked = {j for fails, flagged in failures for j in set(fails) | flagged}
    assert set(scalar_at) <= checked


_REACHING = [
    ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf),
    ChebyshevScale.from_exprs(["exp(x^2)", "x"], T=1.0, x0=math.inf),
    ChebyshevScale.from_exprs(["x^3", "x^2", "x", "1"], T=1.0, x0=math.inf),
    ChebyshevScale.from_exprs(["exp(1/(1-x))", "1"], T=0.0, x0=1.0),
    ChebyshevScale.from_exprs(["1", "x", "x^2", "x^3"], T=-1.0, x0=0.0),
]


def _finite_at(sc, x):
    try:
        return all(math.isfinite(sc.phi_value(i, x)) for i in range(1, sc.n + 1))
    except (ArithmeticError, EvaluationError):
        return False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_REACHING) - 1), st.integers(6, 40), st.floats(0.0, 1.0))
def test_capped_schedules_are_prefixes_of_make_schedule(which, count, u):
    sc = _REACHING[which]
    ratio = 1.05 + 2.0 * u if sc.infinite else 0.05 + 0.9 * u
    full = make_schedule(sc.T, sc.x0, count, ratio).points
    reach = next((j for j, x in enumerate(full) if not _finite_at(sc, x)), count)
    if reach < 6:
        with pytest.raises(BadScheduleParams):
            scale_schedule(sc, count, ratio)
    else:
        assert scale_schedule(sc, count, ratio).points == full[:reach]


@pytest.mark.parametrize("sc", _REACHING, ids=["appendix", "exp-square", "poly", "exp-pole", "cubic"])
def test_verification_schedule_is_capped_or_falls_back(sc):
    full = make_schedule(sc.T, sc.x0, 14, 2.0 if sc.infinite else 0.5).points
    reach = next((j for j, x in enumerate(full) if not _finite_at(sc, x)), 14)
    if reach >= 8:
        expected = full[:reach]
    else:
        expected = make_schedule(sc.T, sc.x0, 8, 1.4 if sc.infinite else 0.65).points
    assert default_verification_schedule(sc).points == expected
