"""Limit extrapolation and finite-sample classification of sequences.

All asymptotic statements in the library (limits toward the scale's limit
point, convergence of improper integrals, hierarchy checks) are reduced to
finite probe sequences.  This module holds the shared decision rules:

* a consensus extrapolated limit: Aitken delta-squared and Richardson
  (Neville in 1/j) on up to three tail windows, sharing one Aitken
  diagonal per sequence and one Neville table per sequence length,
* a sequence classifier (converged / diverged / oscillatory / inconclusive),
* the bounded-tail ("O(1)") detector.

The rules are deliberately conservative: a marginal sequence is reported as
inconclusive rather than forced into a verdict.
"""

from __future__ import annotations

import functools
import math


def aitken_step(seq):
    """One Aitken delta-squared pass; length shrinks by two."""
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        d1 = b - a
        d2 = c - b
        den = d2 - d1
        if not math.isfinite(den) or abs(den) <= 1e-305 + 1e-16 * (abs(c) + abs(d1) + abs(d2)):
            out.append(c)
            continue
        acc = c - d2 * d2 / den
        out.append(acc if math.isfinite(acc) else c)
    return out


def _scan_diagonal(estimates):
    """Pick the most self-consistent estimate from a refinement diagonal.

    Walks the successive estimates, tracking the gap between neighbors, and
    stops once the gaps start blowing up (the noise floor of the tableau);
    this prevents trusting accidental coincidences deep in the table.
    Returns ``(value, confidence)``.
    """
    finite = [e for e in estimates if math.isfinite(e)]
    if not finite:
        return math.nan, math.inf
    if len(finite) == 1:
        return finite[0], math.inf
    best_v = finite[1]
    best_g = abs(finite[1] - finite[0])
    for k in range(2, len(finite)):
        g = abs(finite[k] - finite[k - 1])
        if g <= best_g:
            best_g = g
            best_v = finite[k]
        elif best_g > 0 and g > 64.0 * best_g:
            break  # tableau noise has taken over
    return best_v, best_g


def aitken_diagonal(seq):
    """The last two entries of ``seq``, then the last entry of each Aitken
    pass.  A pass entry reads three neighbours only, so the diagonal of the
    tail ``seq[-L:]`` is the first ``2 + (L - 1) // 2`` entries of this one."""
    diagonal = [seq[-2], seq[-1]]
    cur = seq
    while len(cur) >= 3:
        cur = aitken_step(cur)
        diagonal.append(cur[-1])
    return diagonal


@functools.lru_cache(maxsize=64)
def _neville_table(m):
    """Per Neville level k, the (t_j, t_{j+k}, t_j - t_{j+k}) for t_j = 1/(j+1)."""
    t = [1.0 / (j + 1.0) for j in range(m)]
    return tuple(tuple((a, b, a - b) for a, b in zip(t, t[k:])) for k in range(1, m))


def richardson_diagonal(seq):
    """Neville extrapolation in t_j = 1/(j+1) to t = 0: the last two entries
    of ``seq``, then the last entry of each tableau level.  Exact (up to
    truncation) for sequences analytic in 1/j, such as partial integrals
    like C - 1/(a + b*j), which defeat Aitken's geometric model."""
    tab = seq
    diagonal = [seq[-2], seq[-1]]
    for level in _neville_table(len(seq)):
        a = tab[0]
        nxt = []
        for (tj, tk, den), b in zip(level, tab[1:]):
            nxt.append((tj * b - tk * a) / den)
            a = b
        tab = nxt
        diagonal.append(tab[-1])
    return diagonal


def _finite(values):
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def extrapolate_limit(values):
    """Consensus extrapolated limit over methods and tail windows.

    Runs Aitken (geometric transients) and Richardson (1/j transients) on
    up to three windows: all finite entries, all but the first two (from 8
    entries on) and the last 8 (from 11 on).  The best-confidence candidate
    must be seconded by another candidate within the pair's confidences;
    an unseconded claim has its confidence inflated to its distance from
    the nearest rival.  This guards against accidental deep-tableau
    coincidences masquerading as convergence.
    """
    return _extrapolate(_finite(values))


def _extrapolate(seq):
    """:func:`extrapolate_limit` of a list that is finite already."""
    if len(seq) < 2:
        return (seq[-1] if seq else math.nan, math.inf)
    aitken = aitken_diagonal(seq)
    windows = [seq]
    if len(seq) >= 8:
        windows.append(seq[2:])
    if len(seq) >= 11:
        windows.append(seq[-8:])
    cands = []
    for w in windows:
        for diagonal in (aitken[: 2 + (len(w) - 1) // 2], richardson_diagonal(w)):
            v, c = _scan_diagonal(diagonal)
            if math.isfinite(v):
                cands.append((v, c))
    if not cands:
        return (seq[-1], math.inf)
    if len(cands) == 1:
        return cands[0]
    cands.sort(key=lambda vc: vc[1])
    v0, c0 = cands[0]
    scale = 1.0 + abs(v0)
    others = cands[1:]
    seconded = any(
        abs(v0 - v) <= 10.0 * max(c0, c, 1e-16 * scale) for v, c in others
    )
    if seconded:
        return (v0, c0)
    nearest = min(abs(v0 - v) for v, _ in others)
    return (v0, max(c0, nearest))


def _tail(seq, k):
    return seq[-k:] if len(seq) >= k else seq


def classify_sequence(values, tol=1e-8):
    """Classify the limiting behavior of a probe sequence.

    Returns a dict with ``kind`` in {"converged", "diverged_plus",
    "diverged_minus", "oscillatory", "inconclusive"} plus ``value`` and
    ``confidence`` from extrapolation and increment diagnostics.

    Divergence is decided either by the magnitude threshold or by same-sign
    increments that do not shrink (ratio >= 0.98 across the last probes);
    finite schedules cannot reach any fixed magnitude threshold for slowly
    divergent integrals, so the increment test is load-bearing.
    """
    seq = _finite(values)
    res = {
        "kind": "inconclusive",
        "value": math.nan,
        "confidence": math.inf,
        "n_used": len(seq),
    }
    if len(seq) < 4:
        return res
    scale0 = 1.0 + abs(seq[0])
    deltas = []
    dsigns = []  # per-increment sign with a local noise floor
    for a, b in zip(seq, seq[1:]):
        d = b - a
        tiny = 1e-14 * (abs(a) + abs(b))
        deltas.append(d)
        dsigns.append(0 if abs(d) <= tiny else (1 if d > 0 else -1))
    last_d = _tail(deltas, 5)
    last_s = _tail(dsigns, 5)
    res["last_increment"] = last_d[-1]

    # Oscillatory: alternating increments whose amplitude is not shrinking.
    alternations = sum(1 for a, b in zip(last_s, last_s[1:]) if a * b < 0)
    amp_late = _median([abs(d) for d in last_d])
    amp_early = _median([abs(d) for d in _tail(deltas[: -len(last_d)] or deltas, 5)])
    if (
        alternations >= len(last_s) - 2
        and amp_late > 1e-12 * scale0
        and amp_late >= 0.5 * amp_early
    ):
        res["kind"] = "oscillatory"
        return res

    value, conf = _extrapolate(seq)
    res["value"], res["confidence"] = value, conf

    ratios = []
    for (a, b), sa in zip(zip(last_d, last_d[1:]), last_s):
        if sa != 0:
            ratios.append(b / a)
    shrinking = bool(ratios) and _median([abs(r) for r in ratios]) <= 0.999
    negligible = last_s[-1] == 0 or abs(last_d[-1]) <= tol * (1.0 + abs(value))

    if conf <= tol * (1.0 + abs(value)) and (shrinking or negligible):
        res["kind"] = "converged"
        return res

    same_sign = all(s == 1 for s in last_s[-4:]) or all(s == -1 for s in last_s[-4:])
    if same_sign:
        big = abs(seq[-1]) > 1e6 * scale0
        steady = ratios and min(ratios) >= 0.98
        if big or steady:
            res["kind"] = "diverged_plus" if last_d[-1] > 0 else "diverged_minus"
            return res
    return res


def is_bounded_tail(values):
    """O(1) detector: the last 5 magnitudes stay within 10 times the larger
    of their median and the first of them, so a tail that decays fast is
    bounded.  Returns (verdict bool or None, diagnostics)."""
    seq = [abs(v) for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
    if len(seq) < 5:
        return None, {}
    tail = seq[-5:]
    med = _median(tail)
    bound = 10.0 * (max(med, tail[0]) + 1e-300)
    ok = max(tail) <= bound
    return ok, {"median": med, "max": max(tail), "bound": bound}


def _median(xs):
    if not xs:
        return 0.0
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])
