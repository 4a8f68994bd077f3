"""Work done once per target: the limit decision's lazy leave-one-out, the
readers of several operator levels (one chain pass per point), a
constructed target's images read in one node-array pass per point set, the
cut of the target's probes and the source tabulated once per check; and work done
once per bundle build: each Wronskian of the probe scan, each signed weight
on the probes' node array (alone only where that array flags a node), and
only the canonicity verdicts that are read.

Each test fails if the repeated work comes back or if an output moves:
``_deflated_limit_status`` is compared bit for bit with the eager rule it
replaced (kept below), and the counting tests wrap ``JetMemo.fn`` of the
evaluators they watch."""

import importlib
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chebscale import (
    ChebyshevScale,
    artifacts_for,
    cli,
    construct_from_source,
    expansion,
    extract_operator,
    extract_recursive,
    factorization,
    make_schedule,
)
from chebscale.errors import EvaluationError, LimitDiverged
from chebscale.expansion import (
    _Check,
    _deflated_limit_status,
    _limit_status,
    _status_from_conf,
    check_complete,
    check_incomplete,
    check_O,
)
from chebscale.expr import ExpressionFunction
from chebscale.factorization import build_type1_chain, build_type2_chain
from chebscale.operators import operator_constants
from chebscale.scale import require_verified, scale_schedule
from chebscale.wronskian import prefix_sets

GOLDEN = Path(__file__).parent / "data" / "extrapolate_golden.json"


def _eager_deflated_limit_status(values, basis_rows):
    """The rule as it was before the lazy refit: both pipelines in full,
    each with its leave-one-out refit."""

    def deflate(vals, rows):
        if not rows:
            return list(vals)
        m = len(vals)
        start = max(m - max(len(rows) + 4, (2 * m) // 3), 0)
        a = np.ones((m - start, len(rows) + 1))
        for c, row in enumerate(rows, start=1):
            a[:, c] = row[start:]
        scalecols = np.maximum(np.abs(a).max(axis=0), 1e-300)
        sol, *_ = np.linalg.lstsq(a / scalecols, np.array(vals[start:]), rcond=None)
        betas = (sol / scalecols).tolist()
        out = list(vals)
        for c, row in enumerate(rows, start=1):
            out = [d - betas[c] * v for d, v in zip(out, row)]
        return out

    def pipeline(rows):
        status, value, conf = _limit_status(deflate(values, rows))
        if len(values) >= 7 and math.isfinite(value):
            try:
                defl2 = deflate(values[:-1], [r[:-1] for r in rows])
                _, v2, _ = _limit_status(defl2)
                if math.isfinite(v2):
                    conf = max(conf, abs(value - v2))
            except np.linalg.LinAlgError:
                pass
            status = _status_from_conf(value, conf) if status != "diverged" else status
        return status, value, conf

    raw = pipeline([])
    clean = [b for b in basis_rows if all(math.isfinite(v) for v in b)]
    if not clean or not all(math.isfinite(v) for v in values):
        return raw
    try:
        out = pipeline(clean)
    except np.linalg.LinAlgError:
        return raw
    if (raw[0] == "diverged" and out[0] == "unstable"
            or raw[0] in ("stable", "loose") and raw[2] < out[2]):
        return raw
    return out


def _outcome(rule, values, rows):
    """The rule's result, bit for bit, or the type of what it raised."""
    try:
        status, value, conf = rule(values, rows)
    except Exception as exc:  # an empty fit raises in both rules
        return type(exc)
    return status, float(value).hex(), float(conf).hex()


def _assert_same(values, rows):
    assert _outcome(_deflated_limit_status, values, rows) == _outcome(
        _eager_deflated_limit_status, values, rows)


@st.composite
def _decisions(draw):
    """A limit sequence with decaying transients and noise, and basis rows:
    the true transient shapes, unrelated or repeated shapes (a singular
    fit), constant-zero rows and rows with NaN or inf entries."""
    m = draw(st.integers(0, 18))
    limit = draw(st.floats(-1e3, 1e3))
    rates = draw(st.lists(st.floats(0.05, 0.95), min_size=0, max_size=3))
    amps = draw(st.lists(st.floats(-1e2, 1e2), min_size=len(rates), max_size=len(rates)))
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    shapes = [[r ** j for j in range(m)] for r in rates]
    values = [limit + sum(a * s[j] for a, s in zip(amps, shapes)) + noise * rng.gauss(0, 1)
              for j in range(m)]
    if m and draw(st.booleans()):
        values[draw(st.integers(0, m - 1))] = draw(st.sampled_from([math.nan, math.inf]))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["shape", "other", "repeat", "zero", "bad"]),
                              max_size=3)):
        if kind == "shape" and shapes:
            rows.append(list(shapes[rng.randrange(len(shapes))]))
        elif kind == "other":
            r = rng.uniform(0.1, 0.9)
            rows.append([r ** j for j in range(m)])
        elif kind == "repeat" and rows:
            rows.append(list(rows[-1]))
        elif kind == "zero":
            rows.append([0.0] * m)
        elif kind == "bad" and m:
            row = [1.0 / (j + 2) for j in range(m)]
            row[rng.randrange(m)] = rng.choice([math.nan, math.inf])
            rows.append(row)
    return values, rows


@given(_decisions())
def test_lazy_refit_matches_the_eager_rule(decision):
    _assert_same(*decision)


def test_lazy_refit_matches_the_eager_rule_on_the_golden_sequences():
    rng = random.Random(7)
    for case in json.loads(GOLDEN.read_text()):
        seq = [float.fromhex(e.removeprefix("np:")) for e in case["seq"]]
        m = len(seq)
        rows = [[rng.uniform(0.2, 0.9) ** j for j in range(m)] for _ in range(rng.randrange(3))]
        _assert_same(seq, [])
        _assert_same(seq, rows)


def test_an_exact_deflated_claim_runs_no_raw_pipeline(monkeypatch):
    # the deflated fit removes the transient exactly: its claim has
    # confidence zero, so only its classification and refit run
    seq = [3.0 + 0.5 ** j for j in range(9)]
    rows = [[0.5 ** j for j in range(9)]]
    calls = []
    classify = expansion.classify_sequence

    def counted(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    monkeypatch.setattr(expansion, "classify_sequence", counted)
    result = _deflated_limit_status(seq, rows)
    assert result[0] == "stable" and result[2] == 0.0
    assert len(calls) == 2
    monkeypatch.undo()
    _assert_same(seq, rows)


@pytest.mark.parametrize("failing_call", [1, 2])
def test_lazy_refit_matches_the_eager_rule_when_a_fit_raises(monkeypatch, failing_call):
    # a LinAlgError from the deflated fit (call 1) returns the raw pipeline
    # in full; one from its leave-one-out refit (call 2) keeps the primary
    lstsq = np.linalg.lstsq
    seq = [2.0 + 0.5 ** j + 1e-3 / (j + 1) for j in range(12)]
    rows = [[0.5 ** j for j in range(12)]]

    def run(rule):
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing_call:
                raise np.linalg.LinAlgError("SVD did not converge")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", flaky)
        try:
            return _outcome(rule, seq, rows)
        finally:
            monkeypatch.setattr(np.linalg, "lstsq", lstsq)

    assert run(_deflated_limit_status) == run(_eager_deflated_limit_status)


def _weight_evaluations(scale, schedule, monkeypatch):
    """The evaluations of every chain weight that ``operator_constants``
    makes on fresh chains: per (chain, weight), the node arrays with their
    orders and the count at each point; and the nodes its array pass flags."""
    chains = [build_type2_chain(scale, schedule), build_type1_chain(scale, schedule)]
    scalar, arrays = {}, {}
    for c, chain in enumerate(chains):
        for i, weight in enumerate(chain.weights):
            scalar[c, i], arrays[c, i] = Counter(), []
            fn = weight.fn

            def counted(x, order, fn=fn, key=(c, i)):
                if isinstance(x, np.ndarray):
                    arrays[key].append((x.tolist(), order))
                else:
                    scalar[key][x] += 1
                return fn(x, order)

            monkeypatch.setattr(weight, "fn", counted)
    images_on = factorization.WeightChain.images_on
    flagged = set()

    def recorded(chain, fs, xs):
        images_on(chain, fs, xs)
        flagged.update(x for f in fs for x, levels in chain._images[f].items() if levels is None)

    monkeypatch.setattr(factorization.WeightChain, "images_on", recorded)
    operator_constants(scale, *chains, schedule)
    monkeypatch.undo()
    return scalar, arrays, flagged


def test_operator_constants_evaluate_each_chain_weight_once_per_point(monkeypatch):
    # the paper schedule keeps every weight finite; the default one reaches
    # x = 550, where the type-II weights overflow
    scale, paper = _cold_appendix()
    n = scale.n
    for schedule in (paper, scale_schedule(scale)):
        nodes = scale.toward_x0(schedule.points)
        scalar, arrays, flagged = _weight_evaluations(scale, schedule, monkeypatch)
        # one evaluation on the schedule's node array, at the order the pass
        # to level n - 1 reads the weight (r_n, not read there, at order 0)
        assert arrays == {(c, i): [(nodes, max(n - 1 - i, 0))]
                          for c in range(2) for i in range(n + 1)}
        # none alone at a node where that array pass is finite; the flagged
        # node is read point by point
        assert sorted(flagged) == ([] if schedule is paper else nodes[-1:])
        assert not any(cnt[x] for cnt in scalar.values() for x in nodes if x not in flagged)
        assert all(any(cnt[x] for cnt in scalar.values()) for x in flagged)


def _count_calls(monkeypatch, memo, scalar, arrays):
    """Count ``memo.fn``'s evaluations: per point, and per node array with
    its order."""
    fn = memo.fn

    def counted(x, order):
        if isinstance(x, np.ndarray):
            arrays.append((x.tolist(), order))
        else:
            scalar[x] += 1
        return fn(x, order)

    monkeypatch.setattr(memo, "fn", counted)


def _kept_points(chain, f):
    """The points where the chain keeps f's levels from a node-array pass."""
    return {x for x, levels in chain._images.get(f, {}).items() if levels is not None}


def test_ladder_reads_a_constructed_target_in_one_array_pass(appendix_artifacts, monkeypatch):
    art = appendix_artifacts
    n = art.n
    psi = ExpressionFunction("exp(-x)")
    g = construct_from_source(art, [2.0, -1.0, 3.0, 5.0], psi, mode="tail")
    scalar, arrays = Counter(), []
    _count_calls(monkeypatch, g, scalar, arrays)

    def source(x):
        return psi(x, 0).value

    ck = _Check(art, g, source=source)
    ck.ladder("(5.7)", art.n, None, last="(5.8)")
    # one pass on the classification points' node array, to level n - 1;
    # the cut's order-0 reads and every level read there find its jets
    class_points = list(art.class_points)
    assert arrays == [(class_points, n - 1)]
    kept = _kept_points(art.chain_q, g)
    assert kept and not any(scalar[x] for x in kept), scalar
    assert set(scalar) <= set(class_points) - kept
    # the rest of the check reads the probes: one more array pass, which
    # both chains share
    check_complete(g, art, source=source, remainder=g.remainder, coefficients=g.coefficients)
    assert arrays == [(class_points, n - 1), (list(art.probes), n - 1)]
    kept |= _kept_points(art.chain_p, g)
    assert not any(scalar[x] for x in kept), scalar


def test_a_second_constructed_target_on_a_warm_bundle_runs_no_scalar_pass(appendix_scale,
                                                                            appendix_schedule,
                                                                            monkeypatch):
    # the first target leaves the weights' jets on every point set's node
    # array: the second evaluates no weight on a node array, and every
    # level and value it reads comes from its own array passes
    art = artifacts_for(appendix_scale, appendix_schedule)

    def run(g, psi):
        check_complete(g, art, source=lambda x: psi(x, 0).value, remainder=g.remainder,
                       coefficients=g.coefficients)
        extract_operator(g, art.scale, art.chain_q, art.constants, art.schedule)
        extract_recursive(g, art.scale, art.schedule)

    # canonicity is read first: its quadrature's node arrays are not the
    # bundle's point sets
    art.chain_q.canonicity_at("x0")
    first = ExpressionFunction("exp(-x)")
    run(construct_from_source(art, [1.0, 1.0, 1.0, 1.0], first, mode="tail"), first)
    weight_arrays, ignored = [], Counter()
    for chain in (art.chain_q, art.chain_p):
        for weight in chain.weights:
            _count_calls(monkeypatch, weight, ignored, weight_arrays)
    real = factorization.chain_levels
    passes = []
    psi = ExpressionFunction("x^-3")
    g = construct_from_source(art, [2.0, -1.0, 0.5, 3.0], psi, mode="tail")

    def counted(chain, f, x, k):
        if f is g or f is g.remainder:
            assert isinstance(x, np.ndarray), (x, k)  # no scalar pass
            passes.append((chain.provenance, "f" if f is g else "remainder", x.tolist(), k))
        return real(chain, f, x, k)

    monkeypatch.setattr(factorization, "chain_levels", counted)
    run(g, psi)
    assert weight_arrays == []
    # one array pass per (chain, target, point set) to level n - 1: the
    # classification points start with the probes, which here are the
    # schedule's points, so f's pass there serves the type-II reads of all
    n = art.n
    class_points, probes = list(art.class_points), list(art.probes)
    assert probes == art.scale.toward_x0(art.schedule.points) == class_points[:len(probes)]
    assert passes == [("polya_q", "f", class_points, n - 1),
                      ("polya_q", "remainder", probes, n - 1),
                      ("polya_p", "f", probes, n - 1),
                      ("polya_p", "remainder", probes, n - 1)]


def test_a_check_sequence_runs_one_chain_pass_per_point(appendix_artifacts, monkeypatch):
    # the (5.22), (4.22) and (6.18) levels of check_incomplete and the
    # (5.31) ladder and sequence of check_O read M_k[f] and L_k[f] at
    # several levels in turn: each chain's first pass at a point serves all
    art = appendix_artifacts
    f = ExpressionFunction("2*exp(x) - x + 3*log(x) + 5 + exp(-x)")
    real = factorization.chain_levels
    passes = Counter()

    def counted(chain, g, x, k):
        if g is f:
            passes[id(chain), x] += 1
        return real(chain, g, x, k)

    monkeypatch.setattr(factorization, "chain_levels", counted)
    for i in (1, 2, 3):
        check_incomplete(f, i, art)
    for i in (1, 2, 3, 4):
        check_O(f, i, art)
    assert passes and max(passes.values()) == 1, passes


class _RaisingTarget:
    """An expression whose jets of the given orders raise, naming the order."""

    def __init__(self, text, orders):
        self.f = ExpressionFunction(text)
        self.orders = orders

    def __call__(self, x, order):
        if order in self.orders:
            raise EvaluationError(f"order {order}")
        return self.f(x, order)


def test_ladder_raises_the_shallowest_levels_error(appendix_artifacts):
    # level k asks the target at order k: levels 2 and 3 raise, and the
    # ascending order meets level 2 first
    art = appendix_artifacts
    ck = _Check(art, _RaisingTarget("exp(-x) + x", {2, 3}), source=lambda x: 0.0)
    with pytest.raises(EvaluationError, match="order 2"):
        ck.ladder("(5.7)", art.n, None, last="(5.8)")


def test_extract_operator_raises_the_shallowest_levels_error(appendix_artifacts):
    art = appendix_artifacts
    args = art.scale, art.chain_q, art.constants, art.schedule
    with pytest.raises(EvaluationError, match="order 2"):
        extract_operator(_RaisingTarget("exp(-x) + x", {2, 3}), *args)
    # a first limit that diverges decides before a deeper level's error
    with pytest.raises(LimitDiverged):
        extract_operator(_RaisingTarget("exp(2*x)", {3}), *args)


def test_a_plain_source_is_tabulated_once_per_check(appendix_artifacts):
    art = appendix_artifacts
    psi = ExpressionFunction("x^-3")
    g = construct_from_source(art, [1.0, -2.0, 0.5, 3.0], psi, mode="tail")
    calls = Counter()

    def source(x):
        calls[x] += 1
        return psi(x, 0).value

    check_complete(g, art, source=source, remainder=g.remainder, coefficients=g.coefficients)
    nodes = set(art.grid.xnodes.tolist())
    probes = set(art.probes)
    # one tabulation, plus the scalar L[f] reads at the probes
    assert max(n for x, n in calls.items() if x not in probes) == 1
    assert set(calls) <= nodes | probes


def test_the_recursive_route_makes_one_sweep(taylor_scale, monkeypatch):
    # one limit decision per coefficient in each of the defining pass, the
    # one Gauss-Seidel sweep and the verification pass: 4 + 4 + 4
    calls = []
    deflated = expansion._deflated_limit_status

    def counted(*args, **kwargs):
        calls.append(1)
        return deflated(*args, **kwargs)

    monkeypatch.setattr(expansion, "_deflated_limit_status", counted)
    f = ExpressionFunction("1 + 2*(1-x)^3")
    res = extract_recursive(f, taylor_scale, make_schedule(0.0, 1.0, 12, 0.5))
    assert len(calls) == 12
    assert res.statuses == ["stable", "stable", "stable", "loose"]
    assert all(abs(c - t) < 1e-9 for c, t in zip(res.coefficients, [1.0, 0.0, 0.0, 2.0]))


def _cold_appendix():
    """A fresh appendix scale, verified, and its paper schedule."""
    scale = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=4.0, x0=math.inf)
    require_verified(scale)
    return scale, make_schedule(4.0, math.inf, 10, 1.22)


def _scan_work(monkeypatch):
    """Watch a build's Wronskian scan: each ``wronskian_table`` call (its
    sets, points, table and the shapes of the stacks it eliminated) and the
    scalar ``_derivative_matrix`` calls per (indices, point)."""
    module = importlib.import_module("chebscale.wronskian")
    real_table, real_stack = module.wronskian_table, module._det_pivoted_nodes
    real_matrix = module._derivative_matrix
    tables, stacks, scalar = [], [], Counter()

    def table(scale, sets, points):
        start = len(stacks)
        out = real_table(scale, sets, points)
        # a copy: the build's readers add their own evaluations to the scan
        tables.append((sorted(map(tuple, sets)), list(points), dict(out), stacks[start:]))
        return out

    def stack(a):
        stacks.append(a.shape)
        return real_stack(a)

    def matrix(scale, indices, x, rows):
        if not isinstance(x, np.ndarray):
            scalar[tuple(indices), x] += 1
        return real_matrix(scale, indices, x, rows)

    for mod in (module, expansion, factorization):
        monkeypatch.setattr(mod, "wronskian_table", table)
    monkeypatch.setattr(module, "_det_pivoted_nodes", stack)
    monkeypatch.setattr(module, "_derivative_matrix", matrix)
    return tables, scalar


def _assert_one_prefix_table(scale, points, tables, scalar, flagged):
    """One table of the 2n prefix sets at ``points``, one stacked
    elimination per set size; no scalar evaluation at a node the table
    kept, and each flagged node (left out of the table) that the build
    reads evaluated alone, once: ``flagged`` maps each flagged node to
    whether it is read."""
    n = scale.n
    assert len(tables) == 1
    sets, pts, table, stacks = tables[0]
    assert sets == sorted(prefix_sets(n)) and len(sets) == 2 * n
    assert pts == scale.toward_x0(points)
    assert stacks == [(2 * len(pts), k, k) for k in range(1, n + 1)]
    assert sorted(key for key in ((s, x) for s in sets for x in pts) if key not in table) \
        == sorted(flagged)
    assert not any(key in table for key in scalar)
    assert scalar == Counter(key for key, read in flagged.items() if read), scalar


# the nodes the table leaves out toward T = 3: x = 703.69 keeps exp(x)
# finite, but the elimination overflows there from W(exp(x), x) on.  The
# chains' probe scans read W(1..4) there, and the positivity test stops
# at W(1, 2), which raises
_T3_EDGE = 703.6874417766404
_T3_FLAGGED = {((1, 2), _T3_EDGE): True, ((1, 2, 3), _T3_EDGE): False,
               ((1, 2, 3, 4), _T3_EDGE): True}


def test_a_cold_bundle_evaluates_each_wronskian_once(monkeypatch):
    # the probe scan, both chains' prefix checks and the positivity test
    # read one table of the prefix Wronskians at the schedule points
    scale, schedule = _cold_appendix()
    tables, scalar = _scan_work(monkeypatch)
    artifacts_for(scale, schedule)
    _assert_one_prefix_table(scale, schedule.points, tables, scalar, {})
    # on the default schedule toward T = 3 the last node is flagged
    scale = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=3.0, x0=math.inf)
    require_verified(scale)
    schedule = scale_schedule(scale)
    assert schedule.points[-1] == _T3_EDGE
    tables.clear()
    scalar.clear()
    artifacts_for(scale, schedule)
    _assert_one_prefix_table(scale, schedule.points, tables, scalar, _T3_FLAGGED)


def test_factorize_evaluates_each_wronskian_once(monkeypatch, capsys):
    # the bundle's table, then divide-and-differentiate on the probes the
    # bundle's chains chose
    appendix = str(Path(__file__).parent / "data" / "appendix.scale")
    for T, probes, flagged in ((4.0, ["--ratio", "1.22", "--probes", "10"], {}),
                               (3.0, [], _T3_FLAGGED)):
        scale = ChebyshevScale.from_exprs(["exp(x)", "x", "log(x)", "1"], T=T, x0=math.inf)
        schedule = scale_schedule(scale, *([10, 1.22] if probes else []))
        tables, scalar = _scan_work(monkeypatch)
        assert cli.run(["factorize", "--scale", appendix, "--T", str(T), *probes, "--json"]) == 0
        capsys.readouterr()
        _assert_one_prefix_table(scale, schedule.points, tables, scalar, flagged)
        monkeypatch.undo()


def test_a_repeat_limit_cuts_the_target_once(appendix_artifacts, monkeypatch):
    art = appendix_artifacts
    real = expansion._target_cut
    cuts = []

    def counted(f, scale, points, members):
        cuts.append(tuple(points))
        return real(f, scale, points, members)

    monkeypatch.setattr(expansion, "_target_cut", counted)
    text = "2*exp(x) - x + 3*log(x) + 5 + exp(-x)"
    f = ExpressionFunction(text)
    got = [art.limit(f, k) for k in (0, 1, 0, 3, 2)]
    assert cuts == [tuple(art.class_points)]
    # another set of points is cut on its own
    expansion._operator_limit(art.chain_q, art.scale, f, 0, art.class_points[:-1])
    assert len(cuts) == 2
    monkeypatch.undo()
    g = ExpressionFunction(text)
    assert got == [art.limit(g, k) for k in (0, 1, 0, 3, 2)]


def test_check_O_cuts_the_target_once(appendix_artifacts, monkeypatch):
    # the (5.31) ladder's limits and the (5.32) sequence read one cut of f
    art = appendix_artifacts
    real = expansion._target_cut
    cuts = []

    def counted(f, scale, points, members):
        cuts.append(tuple(points))
        return real(f, scale, points, members)

    monkeypatch.setattr(expansion, "_target_cut", counted)
    for i in range(2, art.n + 1):
        cuts.clear()
        check_O(ExpressionFunction("2*exp(x) - x + 3*log(x) + 5 + exp(-x)"), i, art)
        assert cuts == [tuple(art.class_points)], (i, len(cuts))


def _signed_weight_reads(scale, schedule, monkeypatch):
    """The reads of every signed weight while fresh Polya chains are built
    on ``schedule``: per (chain, weight), the node arrays it is read on,
    each with the nodes it flags there, and the points it is read at alone;
    all at order 0."""
    real = factorization._chain_from_signed
    arrays, alone = {}, {}

    def counted(key, fn):
        arrays[key], alone[key] = [], []

        def call(x, order):
            assert order == 0
            if not isinstance(x, np.ndarray):
                alone[key].append(x)
                return fn(x, order)
            j = fn(x, order)
            flagged = [v for v, ok in zip(x.tolist(), np.isfinite(j.value).tolist()) if not ok]
            arrays[key].append((x.tolist(), flagged))
            return j
        return call

    def chain_from_signed(signed_fns, scale, provenance, *args, **kwargs):
        fns = [counted((provenance, k), fn) for k, fn in enumerate(signed_fns)]
        return real(fns, scale, provenance, *args, **kwargs)

    monkeypatch.setattr(factorization, "_chain_from_signed", chain_from_signed)
    chains = build_type2_chain(scale, schedule), build_type1_chain(scale, schedule)
    monkeypatch.undo()
    return chains, arrays, alone


def test_a_cold_bundle_reads_each_signed_weight_once_per_probe(monkeypatch):
    # the paper schedule keeps every weight finite; on the default one the
    # type-II weight r1 overflows at the last probe (x = 550), which its
    # array flags and its scalar read confirms, so the probes end there
    scale, paper = _cold_appendix()
    for schedule in (paper, scale_schedule(scale)):
        chains, arrays, alone = _signed_weight_reads(scale, schedule, monkeypatch)
        default = schedule is not paper
        for chain in chains:
            nodes = scale.toward_x0(chain.probes)
            for k in range(scale.n + 1):
                key = chain.provenance, k
                cut = default and key[0] == "polya_q" and k >= 2
                # one read on the probes' node array, up to the first probe
                # where an earlier weight is not finite
                [(xs, flagged)] = arrays[key]
                assert xs == (nodes[:-1] if cut else nodes), key
                # alone only at the nodes that array flags, once each
                assert flagged == (nodes[-1:] if default and key == ("polya_q", 1) else [])
                assert alone[key] == flagged, key


def test_expand_classifies_x0_only_and_factorize_both_endpoints(monkeypatch, capsys):
    real = factorization._endpoint_schedule
    endpoints = []

    def recorded(interval, endpoint):
        endpoints.append(endpoint)
        return real(interval, endpoint)

    monkeypatch.setattr(factorization, "_endpoint_schedule", recorded)
    appendix = str(Path(__file__).parent / "data" / "appendix.scale")
    assert cli.run(["expand", "--scale", appendix, "--f", "2*exp(x) - x + 3*log(x) + 5",
                    "--ratio", "1.22", "--probes", "10", "--json"]) == 0
    assert endpoints == ["x0"]
    endpoints.clear()
    assert cli.run(["factorize", "--scale", appendix, "--json"]) == 0
    assert sorted(endpoints) == ["T", "T", "x0", "x0"]
    capsys.readouterr()
