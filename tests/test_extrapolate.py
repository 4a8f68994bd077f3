"""Extrapolation: pinned results on seeded sequences and the window identities
the shared tableaux rest on.

``tests/data/extrapolate_golden.json`` holds about 300 seeded sequences and
the ``float.hex`` of what ``extrapolate_limit`` and ``classify_sequence``
returned for them before the Aitken diagonal was shared between windows.
Every result must stay the same bit for bit.  To regenerate the file after a
deliberate change of results, run ``python tests/test_extrapolate.py`` with
``src`` on ``PYTHONPATH``.
"""

import json
import math
import random
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chebscale.extrapolate import (
    _scan_diagonal,
    aitken_diagonal,
    classify_sequence,
    extrapolate_limit,
    richardson_diagonal,
)

GOLDEN = Path(__file__).parent / "data" / "extrapolate_golden.json"


def _decode(entry):
    # "np:" marks an np.float64 entry; float.fromhex reads "nan" and "inf"
    if entry.startswith("np:"):
        return np.float64(float.fromhex(entry[3:]))
    return float.fromhex(entry)


def _encode(v):
    return ("np:" if isinstance(v, np.float64) else "") + float.hex(float(v))


def _results(seq):
    value, conf = extrapolate_limit(seq)
    res = classify_sequence(seq)
    return {
        "limit": [float.hex(float(value)), float.hex(float(conf))],
        "classify": [res["kind"], float.hex(float(res["value"])),
                     float.hex(float(res["confidence"]))],
    }


def test_results_match_the_golden_file():
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) >= 300
    moved = [
        j for j, case in enumerate(cases)
        if _results([_decode(e) for e in case["seq"]]) != case["expected"]
    ]
    assert not moved, f"{len(moved)} sequences changed, first {moved[:10]}"


def test_golden_file_covers_every_branch():
    cases = json.loads(GOLDEN.read_text())
    seqs = [case["seq"] for case in cases]
    lengths = {len(s) for s in seqs}
    assert lengths >= set(range(2, 23))
    assert any(e.startswith("np:") for s in seqs for e in s)
    assert any("nan" in e for s in seqs for e in s)
    assert any("inf" in e for s in seqs for e in s)
    kinds = {case["expected"]["classify"][0] for case in cases}
    assert kinds == {"converged", "diverged_plus", "diverged_minus", "oscillatory",
                     "inconclusive"}


def _direct_richardson_diagonal(seq):
    m = len(seq)
    t = [1.0 / (j + 1.0) for j in range(m)]
    tab = list(seq)
    diagonal = [seq[-2], seq[-1]]
    for k in range(1, m):
        tab = [(t[j] * tab[j + 1] - t[j + k] * tab[j]) / (t[j] - t[j + k])
               for j in range(m - k)]
        diagonal.append(tab[-1])
    return diagonal


def _bits(xs):
    return [float.hex(float(x)) for x in xs]


def _reference_limit(seq):
    """extrapolate_limit with every window building its own tableaux, as
    before the windows shared one Aitken diagonal (finite input)."""
    windows = [seq]
    if len(seq) >= 8:
        windows.append(seq[2:])
    if len(seq) >= 11:
        windows.append(seq[-8:])
    cands = [
        vc for w in windows
        for vc in (_scan_diagonal(aitken_diagonal(w)),
                   _scan_diagonal(_direct_richardson_diagonal(w)))
        if math.isfinite(vc[0])
    ]
    if len(cands) <= 1:
        return cands[0] if cands else (seq[-1], math.inf)
    v0, c0 = min(cands, key=lambda vc: vc[1])  # the first of equal confidences
    others = list(cands)
    others.remove((v0, c0))
    if any(abs(v0 - v) <= 10.0 * max(c0, c, 1e-16 * (1.0 + abs(v0))) for v, c in others):
        return v0, c0
    return v0, max(c0, min(abs(v0 - v) for v, _ in others))


def test_shared_diagonal_matches_per_window_tableaux():
    """Far more sequences than the golden file, against the per-window
    reference: giving every window the whole shared diagonal moves about
    one result in 200 of these, too few for the golden file to see."""
    rng = random.Random(2014)
    for j in range(3000):
        seq = [v for v in _golden_sequence(rng, j) if math.isfinite(v)]
        if len(seq) >= 2:
            assert _bits(extrapolate_limit(seq)) == _bits(_reference_limit(seq)), seq


finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
sequences = st.one_of(
    st.lists(finite_floats, min_size=2, max_size=22),
    # a smooth transient plus a small perturbation, where the guards rarely trip
    st.builds(
        lambda c, a, r, eps, n: [c + a * r ** j + e for j, e in enumerate(eps[:n])],
        finite_floats.filter(lambda x: abs(x) < 1e6),
        st.floats(-10, 10), st.floats(-0.99, 0.99),
        st.lists(st.floats(-1e-9, 1e-9), min_size=22, max_size=22),
        st.integers(2, 22),
    ),
)


@given(sequences)
def test_window_diagonals_are_prefixes_of_the_full_one(seq):
    full = _bits(aitken_diagonal(seq))
    for length in range(2, len(seq) + 1):
        window = _bits(aitken_diagonal(seq[-length:]))
        assert window == full[: 2 + (length - 1) // 2]


@given(sequences)
def test_neville_tables_give_the_direct_recurrence(seq):
    for length in range(2, len(seq) + 1):
        window = seq[-length:]
        assert _bits(richardson_diagonal(window)) == _bits(_direct_richardson_diagonal(window))


def _golden_sequence(rng, j):
    n = 2 + j % 21
    shape = j % 6
    c = rng.uniform(-5, 5)
    a = rng.uniform(-3, 3)
    if shape == 0:  # geometric transient
        r = rng.choice((-1, 1)) * rng.uniform(0.1, 0.95)
        seq = [c + a * r ** k for k in range(n)]
    elif shape == 1:  # 1/j transient
        b = rng.uniform(0.5, 3)
        seq = [c + a / (k + b) + rng.uniform(-1, 1) / (k + b) ** 2 for k in range(n)]
    elif shape == 2:  # alternating, decaying or not
        r = rng.choice((0.5, 0.9, 1.0, 1.05))
        seq = [c + a * (-r) ** k for k in range(n)]
    elif shape == 3:  # noisy geometric
        eps = 10.0 ** rng.uniform(-14, -4)
        seq = [c + a * 0.7 ** k + eps * rng.gauss(0, 1) for k in range(n)]
    elif shape == 4:  # near-constant: exact, or a few ulps of jitter
        seq = [c * (1 + rng.randint(-2, 2) * 2.0 ** -52 * (j % 2)) for _ in range(n)]
    else:  # divergent: linear, logarithmic or geometric growth
        g = rng.choice((1.0, 1.5))
        seq = [a * (k + 1) if g == 1.0 else a * g ** k for k in range(n)]
        if j % 4 == 1:
            seq = [a * math.log(k + 2) for k in range(n)]
    if j % 7 == 3:
        seq[rng.randrange(n)] = rng.choice((math.nan, math.inf, -math.inf))
    if j % 5 == 2:
        seq = [np.float64(v) for v in seq]
    elif j % 5 == 4:
        seq = [np.float64(v) if k % 2 else v for k, v in enumerate(seq)]
    return seq


if __name__ == "__main__":
    rng = random.Random(1406)
    cases = []
    for j in range(300):
        seq = _golden_sequence(rng, j)
        cases.append({"seq": [_encode(v) for v in seq], "expected": _results(seq)})
    GOLDEN.write_text(json.dumps(cases, indent=0) + "\n")
