"""Wronskian determinants from jets, float- and jet-valued.

Float determinants use partial-pivoted elimination and carry a conditioning
diagnostic (ratio of largest to smallest row scale).  Jet-valued determinants
(needed wherever a Wronskian must itself be differentiated) are computed by
division-free minor expansion with memoization over column subsets.

An order-0 :func:`wronskian_jet` runs that same minor expansion on the float
matrix ``coeffs[r] * r!`` of the member jets.  Coefficient 0 of every jet
product, sum and difference is the same float operation on the operands'
coefficients 0, so the value equals coefficient 0 of any higher-order
Wronskian jet bit for bit, the sign of an exact zero included, at the cost
of floats instead of ``Jet`` objects.

Array protocol: given a node array for ``x``, an order-0 ``wronskian_jet``
evaluates the members once on the whole array (their jets have array
coefficients) and runs the minor expansion element by element;
:func:`det_pivoted` eliminates a stack of matrices at once, and
:func:`wronskian_flags` is the array form of :func:`wronskian`.  Each node's
value is the scalar one bit for bit, or flagged (NaN, or marked by
``wronskian_flags``) where the scalar call would raise or the value
vanishes.  Callers evaluate flagged nodes again with the scalar functions,
in node order (``quadrature.tabulate``), so values and exceptions are those
of a node-by-node loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, IndexConditionViolated
from .jet import Jet, derivative, jet_derivative
from .scale import ratio_decreases_to_zero


# Unit roundoff of a double, and the margin over a determinant's rounding
# noise within which it is zero: the package's one "is this Wronskian
# zero?" rule.
_ROUNDOFF = 2.0**-53
ZERO_MARGIN = 16.0


@dataclass(frozen=True)
class WronskianEvaluation:
    index_set: tuple
    point: float
    value: float
    conditioning: float
    det_scale: float = 1.0  # column-norm product, magnitude scale of the matrix
    floor: float = 0.0  # rounding floor of the value (see det_pivoted)

    @property
    def vanishes(self):
        """The value lies within the elimination's rounding floor.  Tiny but
        trustworthy Wronskians (slowly varying or strongly graded scales,
        whose columns differ by orders of magnitude) do not vanish."""
        return abs(self.value) <= self.floor


def det_pivoted(matrix):
    """Determinant by Gaussian elimination with partial pivoting.

    Returns ``(value, conditioning, det_scale, floor)``.  ``conditioning`` is
    the ratio of largest to smallest row scale (diagnostic); ``det_scale`` is
    the product of column infinity-norms.  ``floor`` is ``ZERO_MARGIN`` times
    the value's rounding noise: each entry carries a noise bound, one
    roundoff of its magnitude to start with, to which every elimination
    update adds the noise it carries over and one roundoff of the
    magnitudes it combines; the value's relative noise is the sum of the
    pivots' relative noises.  A pivot left by cancellation (the rest of an
    exactly singular matrix) is all noise, so the value falls within its
    floor; a matrix whose columns merely differ in scale does not.

    ``matrix`` is a list of rows of floats, or of equal-length float64
    arrays: a stack of matrices, one per node, eliminated at once with the
    pivot of each chosen by the scalar rule (the first largest magnitude).
    Each node's results are the scalar ones bit for bit, except at a node
    with a non-finite entry, whose value is NaN.
    """
    if isinstance(matrix[0][0], np.ndarray):
        return _det_pivoted_nodes(np.stack([np.stack(row, axis=-1) for row in matrix], axis=1))
    k = len(matrix)
    a = [list(row) for row in matrix]
    noise = [[_ROUNDOFF * abs(v) for v in row] for row in a]
    norms = [max(abs(v) for v in row) for row in a]
    finite = [s for s in norms if s > 0.0]
    conditioning = math.inf if len(finite) < k else max(finite) / min(finite)
    det_scale = 1.0
    for c in range(k):
        s = max(abs(a[r][c]) for r in range(k))
        det_scale *= s if s > 0.0 else 1.0
    det = 1.0
    rel = 0.0
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0.0:
            return 0.0, conditioning, det_scale, 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            noise[col], noise[piv] = noise[piv], noise[col]
            det = -det
        det *= a[col][col]
        rel += noise[col][col] / abs(a[col][col])
        inv = 1.0 / a[col][col]
        for r in range(col + 1, k):
            f = a[r][col] * inv
            if f != 0.0:
                for c in range(col, k):
                    step = f * a[col][c]
                    noise[r][c] += abs(f) * noise[col][c] + _ROUNDOFF * (abs(a[r][c]) + abs(step))
                    a[r][c] = a[r][c] - step
    return det, conditioning, det_scale, ZERO_MARGIN * abs(det) * rel


def _det_pivoted_nodes(a):
    """:func:`det_pivoted` of a stack ``a`` of shape (nodes, k, k)."""
    m, k, _ = a.shape
    a = a.copy()
    at = np.arange(m)
    mag = np.abs(a)
    bad = ~np.isfinite(a).all(axis=(1, 2))
    noise = _ROUNDOFF * mag
    norms = mag.max(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditioning = np.where(
            (norms > 0.0).all(axis=1), norms.max(axis=1) / norms.min(axis=1), math.inf
        )
    colmax = mag.max(axis=1)
    det_scale = np.ones(m)
    for c in range(k):
        s = colmax[:, c]
        det_scale = det_scale * np.where(s > 0.0, s, 1.0)
    det = np.ones(m)
    rel = np.zeros(m)
    zero = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for col in range(k):
            piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
            zero |= a[at, piv, col] == 0.0
            for arr in (a, noise):
                top = arr[at, col].copy()
                arr[:, col] = arr[at, piv]
                arr[at, piv] = top
            det = np.where(piv != col, -det, det)
            p = a[:, col, col]
            det = det * p
            rel = rel + noise[:, col, col] / np.abs(p)
            inv = 1.0 / p
            for r in range(col + 1, k):
                f = a[:, r, col] * inv
                live = (f != 0.0)[:, None]
                fc = f[:, None]
                step = fc * a[:, col, col:]
                grown = noise[:, r, col:] + (
                    np.abs(fc) * noise[:, col, col:]
                    + _ROUNDOFF * (np.abs(a[:, r, col:]) + np.abs(step))
                )
                noise[:, r, col:] = np.where(live, grown, noise[:, r, col:])
                a[:, r, col:] = np.where(live, a[:, r, col:] - step, a[:, r, col:])
        floor = ZERO_MARGIN * np.abs(det) * rel
    det = np.where(bad, np.nan, np.where(zero, 0.0, det))
    return det, conditioning, det_scale, np.where(zero, 0.0, floor)


def det_jet(matrix):
    """Determinant of a square matrix of jets (or floats), by memoized minor
    expansion."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    memo = {}

    def minor(cols, row):
        if len(cols) == 1:
            return matrix[row][cols[0]]
        key = cols
        got = memo.get(key)
        if got is not None:
            return got
        acc = None
        sign = 1.0
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            term = matrix[row][c] * minor(rest, row + 1)
            if sign < 0:
                term = -term
            acc = term if acc is None else acc + term
            sign = -sign
        memo[key] = acc
        return acc

    return minor(tuple(range(k)), 0)


def _derivative_matrix(scale, indices, x, rows):
    """Float matrix whose (r, c) entry is the r-th derivative of phi_indices[c]."""
    cols = []
    for i in indices:
        cols.append(scale.phi_derivatives(i, x, rows - 1))
    return [[cols[c][r] for c in range(len(indices))] for r in range(rows)]


def wronskian(scale, indices, x):
    """W(phi_{i1}, ..., phi_{ik}) at x as a :class:`WronskianEvaluation`."""
    indices = tuple(indices)
    if not indices:
        raise EvaluationError("empty index set")
    k = len(indices)
    matrix = _derivative_matrix(scale, indices, x, k)
    value, conditioning, det_scale, floor = det_pivoted(matrix)
    if not math.isfinite(value):
        raise EvaluationError(f"Wronskian overflow at x={x} for {indices}")
    return WronskianEvaluation(indices, x, value, conditioning, det_scale, floor)


def wronskian_flags(scale, indices, xs):
    """Array form of :func:`wronskian` over the node array ``xs``: the
    values, and the nodes where ``wronskian`` raises or its value vanishes
    (flagged)."""
    indices = tuple(indices)
    value, _, _, floor = det_pivoted(_derivative_matrix(scale, indices, xs, len(indices)))
    return value, ~np.isfinite(value) | (np.abs(value) <= floor)


def wronskian_suppressed(scale, indices, suppress, x):
    """Determinant with derivative rows 0..k-2 and the ``suppress`` column removed."""
    indices = tuple(indices)
    if suppress not in indices:
        raise EvaluationError(f"{suppress} is not part of {indices}")
    if len(indices) < 2:
        raise EvaluationError("need at least two indices to suppress one")
    kept = tuple(i for i in indices if i != suppress)
    matrix = _derivative_matrix(scale, kept, x, len(kept))
    return det_pivoted(matrix)[0]


def wronskian_jet(scale, indices, x, order):
    """W(phi_{i1}, ..., phi_{ik}) at x as a jet of the requested order.

    The determinant is computed in jet arithmetic end to end, so derivatives
    of the Wronskian are exact to the truncation order.  At order 0 the same
    minor expansion runs on the float matrix of derivative values; see the
    module docstring.
    """
    indices = tuple(indices)
    k = len(indices)
    if order == 0:
        # every member at the order the longest prefix needs, so the
        # shorter prefixes at x are truncations of the members' memos
        jets = [scale.phi_jet(i, x, max(k, scale.n) - 1) for i in indices]
        matrix = [[j.coeffs[r] * math.factorial(r) for j in jets] for r in range(k)]
        return Jet(x, (det_jet(matrix),))
    jets = [scale.phi_jet(i, x, order + k - 1) for i in indices]
    matrix = [[derivative(jets[c], r) for c in range(k)] for r in range(k)]
    # rows now have order (order + k - 1 - r); multiplication truncates to
    # the shortest operand, which is exactly ``order``.
    return det_jet(matrix)


def bordered_wronskian(scale, indices, f, x):
    """Float value of W(phi_{i1}, ..., phi_{ik}, f) at x."""
    indices = tuple(indices)
    k = len(indices) + 1
    matrix_cols = [scale.phi_derivatives(i, x, k - 1) for i in indices]
    fj = f(x, k - 1)
    matrix_cols.append([jet_derivative(fj, r) for r in range(k)])
    matrix = [[matrix_cols[c][r] for c in range(k)] for r in range(k)]
    value, conditioning, det_scale, _ = det_pivoted(matrix)
    return value, conditioning, det_scale


def check_levin_hierarchy(scale, pairs, schedule, tol=1e-4):
    """Verify W(i-set) >> W(j-set) along the schedule for each pair.

    Preconditions per pair: equal cardinality, strictly increasing index
    sets, distinct, and ``i_h <= j_h`` componentwise.
    """
    results = []
    pts = scale.toward_x0(schedule.points)
    for iset, jset in pairs:
        iset, jset = tuple(iset), tuple(jset)
        if len(iset) != len(jset):
            raise IndexConditionViolated("index sets must have equal cardinality")
        for s in (iset, jset):
            if list(s) != sorted(set(s)):
                raise IndexConditionViolated(f"{s} is not strictly increasing")
            if not all(1 <= i <= scale.n for i in s):
                raise IndexConditionViolated(f"{s} has out-of-range indices")
        if iset == jset:
            raise IndexConditionViolated("index sets must be distinct")
        if not all(a <= b for a, b in zip(iset, jset)):
            raise IndexConditionViolated(f"need i_h <= j_h, got {iset} vs {jset}")
        ratios = []
        for x in pts:
            wi = wronskian(scale, iset, x)
            wj = wronskian(scale, jset, x)
            ratios.append(abs(wj.value / wi.value) if wi.value != 0 else math.inf)
        ok, diag = ratio_decreases_to_zero(ratios, tol)
        diag.update(pair=(iset, jset), passed=ok)
        results.append(diag)
    return results
