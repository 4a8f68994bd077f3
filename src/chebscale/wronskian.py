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
of a node-by-node loop.  Every Wronskian scan (a bundle build's, and those
of ``scale.verify_tas`` and :func:`check_levin_hierarchy`) reads one
:func:`wronskian_table`: the members evaluated once on the points' node
array, one stacked elimination per index-set size, and the scalar
:func:`wronskian` only at the nodes the table leaves out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import EvaluationError, IndexConditionViolated
from .jet import Jet, derivative, jet_derivative
from .scale import dominance


# Unit roundoff of a double, and the margin over a determinant's rounding
# noise within which it is zero: the package's one "is this Wronskian
# zero?" rule.
_ROUNDOFF = 2.0**-53
ZERO_MARGIN = 16.0
# nodes per block of a stacked elimination: on 6,750-node stacks of 4 x 4
# and 5 x 5 matrices (a bundle's grid), blocks of 1,024 nodes ran 8-16%
# faster than one block on a 2-core Xeon host
_NODE_BLOCK = 1024


@dataclass(frozen=True)
class WronskianEvaluation:
    point: float
    value: float
    conditioning: float
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
    """:func:`det_pivoted` of a stack ``a`` of shape (nodes, k, k), run on
    blocks of at most ``_NODE_BLOCK`` nodes (nodes are independent, and a
    block's temporaries stay in cache)."""
    if len(a) > _NODE_BLOCK:
        parts = [_det_pivoted_nodes(a[i:i + _NODE_BLOCK]) for i in range(0, len(a), _NODE_BLOCK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
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
    for s in np.where(colmax > 0.0, colmax, 1.0).T:  # column by column, as the scalar loop
        det_scale = det_scale * s
    det = np.ones(m)
    rel = np.zeros(m)
    zero = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for col in range(k):
            piv = col + np.argmax(np.abs(a[:, col:, col]), axis=1)
            moved = piv != col
            if moved.any():
                for arr in (a, noise):
                    top = arr[at, col].copy()
                    arr[:, col] = arr[at, piv]
                    arr[at, piv] = top
                det = np.where(moved, -det, det)
            p = a[:, col, col]
            zero |= p == 0.0
            det = det * p
            rel = rel + noise[:, col, col] / np.abs(p)
            if col + 1 == k:
                break
            # every row below the pivot in one step: a row's update reads
            # only itself and the pivot row, so this is the scalar row loop
            f = a[:, col + 1 :, col, None] * (1.0 / p)[:, None, None]
            live = f != 0.0
            below, below_noise = a[:, col + 1 :, col:], noise[:, col + 1 :, col:]
            step = f * a[:, None, col, col:]
            grown = below_noise + (np.abs(f) * noise[:, None, col, col:]
                                   + _ROUNDOFF * (np.abs(below) + np.abs(step)))
            np.copyto(below_noise, grown, where=live)
            np.copyto(below, below - step, where=live)
        floor = ZERO_MARGIN * np.abs(det) * rel
    det = np.where(bad, np.nan, np.where(zero, 0.0, det))
    return det, conditioning, det_scale, np.where(zero, 0.0, floor)


def _minor(matrix, memo, cols, row):
    """Determinant of the rows ``row..`` and columns ``cols`` of ``matrix``
    by expansion along its first row; ``memo`` keeps it per column set.  A
    module-level function, so the recursion forms no reference cycle."""
    if len(cols) == 1:
        return matrix[row][cols[0]]
    got = memo.get(cols)
    if got is not None:
        return got
    acc = None
    sign = 1.0
    for pos, c in enumerate(cols):
        rest = cols[:pos] + cols[pos + 1 :]
        term = matrix[row][c] * _minor(matrix, memo, rest, row + 1)
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
        sign = -sign
    memo[cols] = acc
    return acc


def det_jet(matrix):
    """Determinant of a square matrix of jets (or floats), by memoized minor
    expansion."""
    k = len(matrix)
    if k == 1:
        return matrix[0][0]
    return _minor(matrix, {}, tuple(range(k)), 0)


def _derivative_matrix(scale, indices, x, rows):
    """Float matrix whose (r, c) entry is the r-th derivative of phi_indices[c]."""
    cols = []
    for i in indices:
        cols.append(scale.phi_derivatives(i, x, rows - 1))
    return [[cols[c][r] for c in range(len(indices))] for r in range(rows)]


def wronskian(scale, indices, x, scan=None):
    """W(phi_{i1}, ..., phi_{ik}) at x as a :class:`WronskianEvaluation`.

    ``scan`` is a dict that one bundle build shares between its readers
    (the probe scan, the prefix checks of both chains and the positivity
    test of ``operator_constants``), built on node arrays as one
    :func:`wronskian_table`.  It keeps each evaluation under
    ``(indices, x)``; a node the table left out (flagged) is evaluated
    here, alone, and kept too, so each is computed once in the build.  A
    call that raises keeps its error, which a later read raises again."""
    indices = tuple(indices)
    if scan is None:
        return _wronskian(scale, indices, x)
    ev = scan.get((indices, x))
    if ev is None:
        try:
            ev = _wronskian(scale, indices, x)
        except Exception as e:
            ev = e
        scan[indices, x] = ev
    if isinstance(ev, Exception):
        raise ev
    return ev


def _wronskian(scale, indices, x):
    if not indices:
        raise EvaluationError("empty index set")
    value, conditioning, _, floor = det_pivoted(_derivative_matrix(scale, indices, x, len(indices)))
    if not math.isfinite(value):
        raise EvaluationError(f"Wronskian overflow at x={x} for {indices}")
    return WronskianEvaluation(x, value, conditioning, floor)


def prefix_sets(n):
    """The leading index sets (1..i) and the reversed ones (n..i), i = 1..n,
    in that order: the 2n Wronskians the theory needs nonvanishing."""
    return [ix for i in range(1, n + 1)
            for ix in (tuple(range(1, i + 1)), tuple(range(n, i - 1, -1)))]


def wronskian_table(scale, sets, points):
    """The :func:`wronskian` evaluations of every index set of ``sets`` at
    every one of ``points``, as ``scan`` entries ``{(indices, x): ...}``.

    Each member the sets read is evaluated once on the points' node array
    (``points`` itself when it is a float64 array, so jet memos that keep
    node arrays by identity share it), at the order the largest set needs,
    into one stack of derivative matrices; the k-by-k blocks of all sets of
    size k at all points are then eliminated as one stack.  Each entry is
    the scalar evaluation bit for bit.  A node whose value is not finite
    (where ``wronskian`` raises, or an entry is not finite) is left out, and
    so is everything when a member's array form raises: ``wronskian`` then
    computes it in the caller's order, so values and errors stay those of a
    point-by-point loop.  Nothing raises here."""
    sets = [s for s in dict.fromkeys(map(tuple, sets)) if s]
    xs = np.asarray(points, dtype=float)
    if not sets or not xs.size:
        return {}
    members = sorted({i for s in sets for i in s})
    col = {i: c for c, i in enumerate(members)}
    with np.errstate(all="ignore"):
        try:
            rows = _derivative_matrix(scale, members, xs, max(map(len, sets)))
            # (point, derivative order, member)
            stack = np.stack([np.stack(row, axis=-1) for row in rows], axis=1)
        except Exception:  # e.g. a member without an array form
            return {}
        xs = xs.tolist()
        table = {}
        for k in sorted(set(map(len, sets))):
            group = [s for s in sets if len(s) == k]
            # (set, point, row, column): one k-by-k matrix per (set, point)
            blocks = stack[:, :k, [[col[i] for i in s] for s in group]].transpose(2, 0, 1, 3)
            out = _det_pivoted_nodes(blocks.reshape(-1, k, k))
            value, conditioning, _, floor = (v.reshape(len(group), -1).tolist() for v in out)
            for s, vs, cs, fs in zip(group, value, conditioning, floor):
                for x, v, c, f in zip(xs, vs, cs, fs):
                    if math.isfinite(v):
                        table[s, x] = WronskianEvaluation(x, v, c, f)
    return table


def wronskian_flags(scale, indices, xs):
    """Array form of :func:`wronskian` over the node array ``xs``: the
    values, and the nodes where ``wronskian`` raises or its value vanishes
    (flagged)."""
    indices = tuple(indices)
    value, _, _, floor = det_pivoted(_derivative_matrix(scale, indices, xs, len(indices)))
    return value, ~np.isfinite(value) | (np.abs(value) <= floor)


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


def _bordered_matrix(scale, indices, f, x):
    """The rows of W(phi_{i1}, ..., phi_{ik}, f) at x: floats, or node
    arrays when ``x`` is one."""
    k = len(indices) + 1
    cols = [scale.phi_derivatives(i, x, k - 1) for i in indices]
    fj = f(x, k - 1)
    cols.append([jet_derivative(fj, r) for r in range(k)])
    return [[cols[c][r] for c in range(k)] for r in range(k)]


def bordered_wronskian(scale, indices, f, x):
    """Float value of W(phi_{i1}, ..., phi_{ik}, f) at x."""
    value, conditioning, det_scale, _ = det_pivoted(_bordered_matrix(scale, tuple(indices), f, x))
    return value, conditioning, det_scale


def _levin_violation(scale, iset, jset):
    """The precondition of :func:`check_levin_hierarchy` the pair violates,
    or None."""
    if len(iset) != len(jset):
        return "index sets must have equal cardinality"
    for s in (iset, jset):
        if list(s) != sorted(set(s)):
            return f"{s} is not strictly increasing"
        if not all(1 <= i <= scale.n for i in s):
            return f"{s} has out-of-range indices"
    if iset == jset:
        return "index sets must be distinct"
    if not all(a <= b for a, b in zip(iset, jset)):
        return f"need i_h <= j_h, got {iset} vs {jset}"
    return None


def check_levin_hierarchy(scale, pairs, schedule, tol=1e-4):
    """Verify W(i-set) >> W(j-set) along the schedule for each pair.

    Preconditions per pair: equal cardinality, strictly increasing index
    sets, distinct, and ``i_h <= j_h`` componentwise.  The pairs before the
    first that violates one are checked, reading one
    :func:`wronskian_table` of their sets, and then that pair raises
    :class:`IndexConditionViolated`.
    """
    pairs = [(tuple(iset), tuple(jset)) for iset, jset in pairs]
    valid = list(takewhile(lambda pair: _levin_violation(scale, *pair) is None, pairs))
    pts = scale.toward_x0(schedule.points)
    table = wronskian_table(scale, [s for pair in valid for s in pair], pts)
    results = []
    for iset, jset in valid:
        # W_i, then W_j, at each x: the first error raised is that of this order
        values = [(wronskian(scale, iset, x, table).value, wronskian(scale, jset, x, table).value)
                  for x in pts]
        results.append(dominance(values, (iset, jset), tol))
    if len(valid) < len(pairs):
        raise IndexConditionViolated(_levin_violation(scale, *pairs[len(valid)]))
    return results
