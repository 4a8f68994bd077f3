"""Univariate truncated Taylor-series (jet) arithmetic.

A jet stores the scaled derivatives ``coeffs[k] = f^(k)(anchor)/k!`` of a
function at a fixed anchor point.  Every elementary operation propagates the
coefficients exactly to the truncation order; this is the mechanism the rest
of the library uses to obtain high-order derivatives of scale functions,
Wronskians and weighted-derivative chains without symbolic differentiation.

Coefficients are floats, or equal-length float64 arrays for a jet at every
node of a node array (its anchor), under one set of recurrences: an array
coefficient goes through exactly the float operations of the scalar path,
element by element, so each element is bit for bit the scalar jet's.  Two
places differ by design.  Coefficient 0 of exp/log/sqrt/sin/cos goes through
``math`` one element at a time (numpy's functions round differently), and
where the scalar path raises (overflow, a domain error, division by a value
~ 0) an array jet flags the element as NaN instead, which reaches every
coefficient computed from it; callers evaluate flagged nodes again with
scalar jets (see ``quadrature.tabulate``).

The product is the hot operation.  Two jets of one order multiply without
coercion or truncation, and orders up to 3 (every benchmark scale has
n - 1 = 3) are unrolled; every coefficient still adds its terms in the
convolution loop's order, so a product is the loop's bit for bit, the sign
of a -0.0 included, for float and array coefficients alike.

Operations are pure and reentrant, and coefficient k of every result depends
only on coefficients 0..k of the operands, so a jet truncated to order m is
bit for bit the jet computed at order m.  :class:`JetMemo` rests on this: it
is the package's one jet cache, keeping a single jet per point, the highest
order computed there, and serving lower orders as its truncations.  An
expression's scalar read at order 0 builds no jet per AST node: it evaluates
coefficient 0 in floats, bit for bit (see ``expr.order0``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DivisionByZeroJet,
    DomainErrorJet,
    EvaluationError,
    NoArrayForm,
    OrderExceeded,
)

# Node arrays whose jets a JetMemo keeps: a bundle's grid node table and
# its three point sets (see JetMemo).
KEPT_ARRAYS = 4

# Below this magnitude a value coefficient counts as zero for division.  The
# jet layer stays policy-free: near-zero values propagate and callers apply
# their own degeneracy tolerances.
DIV_EPS = 1e-300


class Jet:
    """Truncated Taylor expansion at ``anchor`` with ``order+1`` coefficients."""

    __slots__ = ("anchor", "coeffs")

    def __init__(self, anchor, coeffs):
        if isinstance(anchor, np.ndarray):
            # a jet at every node of the array: one coefficient array each
            self.anchor = anchor
            self.coeffs = tuple(
                c if isinstance(c, np.ndarray) else np.full(anchor.shape, float(c))
                for c in coeffs
            )
        else:
            self.anchor = float(anchor)
            self.coeffs = tuple(float(c) for c in coeffs)
        if not self.coeffs:
            raise EvaluationError("a jet needs at least the value coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def __repr__(self):
        return f"Jet(anchor={self.anchor!r}, coeffs={list(self.coeffs)!r})"

    # -- coercion helpers ---------------------------------------------------

    def _like(self, coeffs):
        # results of jet operations are floats or arrays already
        out = Jet.__new__(Jet)
        out.anchor = self.anchor
        out.coeffs = tuple(coeffs)
        return out

    def _check_anchor(self, other):
        if other.anchor is not self.anchor and other.anchor != self.anchor:
            raise EvaluationError(f"jet anchors differ: {self.anchor} vs {other.anchor}")

    def _coerce(self, other):
        """Promote a scalar to a constant jet; truncate both to a common order."""
        if isinstance(other, Jet):
            self._check_anchor(other)
            m = min(len(self.coeffs), len(other.coeffs))
            return self.coeffs[:m], other.coeffs[:m]
        if isinstance(other, (int, float)):
            c = [0.0] * len(self.coeffs)
            c[0] = float(other)
            return self.coeffs, tuple(c)
        return NotImplemented

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._like([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._like([x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._like([y - x for x, y in zip(a, b)])

    def __neg__(self):
        return self._like([-x for x in self.coeffs])

    def __mul__(self, other):
        if type(other) is Jet and len(other.coeffs) == len(self.coeffs):
            # operands of one order: nothing to promote or truncate
            self._check_anchor(other)
            return self._like(_mul_coeffs(self.coeffs, other.coeffs))
        if isinstance(other, (int, float)):
            f = float(other)
            return self._like([f * x for x in self.coeffs])
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        return self._like(_mul_coeffs(*pair))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if abs(other) < DIV_EPS:
                raise DivisionByZeroJet("division by (near-)zero scalar")
            inv = 1.0 / float(other)
            return self._like([inv * x for x in self.coeffs])
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return self._like(_div_coeffs(a, b))

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            c = [0.0] * (self.order + 1)
            c[0] = float(other)
            return self._like(_div_coeffs(tuple(c), self.coeffs))
        return NotImplemented


def _admit(u0, bad, error, message):
    """The value coefficient ``u0`` where an operation admits it.  A float
    raises ``error`` when ``bad``; an array flags its bad elements as NaN."""
    if isinstance(u0, np.ndarray):
        return np.where(bad, np.nan, u0)
    if bad:
        raise error(message.format(u0))
    return u0


def _math(fn, u0):
    """``fn`` (a ``math`` function) of a value coefficient.  An array goes
    one element at a time, and an element where ``fn`` raises is NaN."""
    if not isinstance(u0, np.ndarray):
        return fn(u0)
    out = []
    for v in u0.tolist():
        try:
            out.append(fn(v))
        except (OverflowError, ValueError):
            out.append(math.nan)
    return np.array(out)


def _mul_coeffs(a, b):
    """Coefficients of the product of two equal-length coefficient tuples.

    Coefficient k adds a[j] * b[k - j] for j = 0, 1, ..., k in that order,
    starting from the first term (no 0.0 to start from, so a product's -0.0
    stays -0.0, as in floats).  Orders up to 3 are unrolled, each sum in
    that same order."""
    m = len(a)
    if m == 1:
        return (a[0] * b[0],)
    if m == 2:
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0, a0 * b1 + a1 * b0)
    if m == 3:
        a0, a1, a2 = a
        b0, b1, b2 = b
        return (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)
    if m == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
                a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)
    out = []
    for k in range(m):
        s = a[0] * b[k]
        for j in range(1, k + 1):
            s = s + a[j] * b[k - j]
        out.append(s)
    return tuple(out)


def _div_coeffs(a, b):
    b0 = _admit(b[0], abs(b[0]) < DIV_EPS, DivisionByZeroJet, "jet division by value ~ 0")
    m = len(a)
    out = [0.0] * m
    inv = 1.0 / b0
    for k in range(m):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out[k] = s * inv
    return out


# -- constructors ------------------------------------------------------------


def jet_variable(anchor, order):
    """Jet of the identity function x -> x at ``anchor`` (a float or a node
    array)."""
    if order < 0:
        raise EvaluationError("order must be nonnegative")
    coeffs = [0.0] * (order + 1)
    coeffs[0] = anchor
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(anchor, coeffs)


def jet_constant(value, anchor, order):
    coeffs = [0.0] * (order + 1)
    coeffs[0] = value
    return Jet(anchor, coeffs)


# -- analytic functions ------------------------------------------------------


def jexp(j):
    u = j.coeffs
    m = len(u)
    v = [0.0] * m
    v[0] = _math(math.exp, u[0])
    for k in range(1, m):
        s = 0.0
        for i in range(1, k + 1):
            s = s + i * u[i] * v[k - i]
        v[k] = s / k
    return j._like(v)


def jlog(j):
    u = j.coeffs
    u0 = _admit(u[0], u[0] <= 0.0, DomainErrorJet, "log of nonpositive value {}")
    m = len(u)
    v = [0.0] * m
    v[0] = _math(math.log, u0)
    for k in range(1, m):
        s = k * u[k]
        for i in range(1, k):
            s = s - (k - i) * u[i] * v[k - i]
        v[k] = s / (k * u0)
    return j._like(v)


def jsqrt(j):
    u = j.coeffs
    u0 = _admit(u[0], u[0] <= 0.0, DomainErrorJet, "sqrt of nonpositive value {}")
    m = len(u)
    v = [0.0] * m
    v[0] = _math(math.sqrt, u0)
    inv = 0.5 / v[0]
    for k in range(1, m):
        s = u[k]
        for i in range(1, k):
            s = s - v[i] * v[k - i]
        v[k] = s * inv
    return j._like(v)


def jsin(j):
    return _sincos(j)[0]


def jcos(j):
    return _sincos(j)[1]


def _sincos(j):
    u = j.coeffs
    m = len(u)
    s = [0.0] * m
    c = [0.0] * m
    s[0] = _math(math.sin, u[0])
    c[0] = _math(math.cos, u[0])
    for k in range(1, m):
        as_ = 0.0
        ac = 0.0
        for i in range(1, k + 1):
            as_ = as_ + i * u[i] * c[k - i]
            ac = ac + i * u[i] * s[k - i]
        s[k] = as_ / k
        c[k] = -ac / k
    return j._like(s), j._like(c)


def integral_exponent(c):
    """``c`` as the integer exponent of :func:`jpow` and ``expr.order0``, or None."""
    return round(c) if abs(c - round(c)) < 1e-12 and abs(c) <= 1024 else None


def jpow(j, exponent):
    """j**exponent for a constant real exponent.

    Integer exponents use the direct multiplication recurrence (any base);
    real exponents go through exp(c*log(.)) and need a positive value.
    """
    c = float(exponent)
    n = integral_exponent(c)
    if n is not None:
        if n == 0:
            one = jet_constant(1.0, j.anchor, j.order)
            # the base is not read, but its flagged elements stay flagged
            return one + 0.0 * j if isinstance(j.value, np.ndarray) else one
        base = j if n > 0 else 1.0 / j
        n = abs(n)
        out = None
        acc = base
        while n:
            if n & 1:
                out = acc if out is None else out * acc
            n >>= 1
            if n:
                acc = acc * acc
        return out
    if not isinstance(j.value, np.ndarray) and j.value <= 0.0:
        raise DomainErrorJet(f"real power of nonpositive value {j.value}")
    return jexp(jlog(j) * c)  # jlog flags the nonpositive elements of an array


# -- calculus ----------------------------------------------------------------


def derivative(j, times=1):
    """The ``times``-th derivative of a jet, as a jet of lower order."""
    if times < 0:
        raise EvaluationError("derivative count must be nonnegative")
    if times > j.order:
        raise OrderExceeded(f"derivative {times} exceeds jet order {j.order}")
    if times == 0:
        return j
    m = j.order - times
    coeffs = [0.0] * (m + 1)
    for k in range(m + 1):
        coeffs[k] = j.coeffs[k + times] * (math.factorial(k + times) / math.factorial(k))
    return j._like(coeffs)


def antiderivative(j, value=0.0):
    """The antiderivative of a jet with prescribed value at the anchor."""
    coeffs = [0.0] * (j.order + 2)
    # a node array's jet takes one value per node
    coeffs[0] = value if isinstance(value, np.ndarray) else float(value)
    for k in range(j.order + 1):
        coeffs[k + 1] = j.coeffs[k] / (k + 1)
    return Jet(j.anchor, coeffs)


def jet_derivative(j, k):
    """The plain k-th derivative value ``k! * coeffs[k]``."""
    if k < 0 or k > j.order:
        raise OrderExceeded(f"derivative {k} exceeds jet order {j.order}")
    return math.factorial(k) * j.coeffs[k]


def truncate(j, order):
    """Drop coefficients beyond ``order`` (no-op if already short enough)."""
    if len(j.coeffs) <= order + 1:
        return j
    out = Jet.__new__(Jet)  # the coefficients are floats or arrays already
    out.anchor = j.anchor
    out.coeffs = j.coeffs[: order + 1]
    return out


class JetMemo:
    """A memoized jet evaluator ``(x, order) -> Jet``.

    One jet per point: the highest order computed there so far.  A request
    at a lower order is served as its truncation, which is exact (see the
    module docstring); a higher order recomputes and replaces it.  A request
    that raises stores nothing.  A scalar read at order 0 pays for order 0
    only, and an expression's (``expr.ExpressionFunction``) builds no jet
    per AST node, only the one jet it stores.

    With ``arrays`` the evaluator ``fn`` also takes a node array for ``x``
    (its array form) and returns a jet with array coefficients.  The jets of
    the last ``KEPT_ARRAYS`` node arrays asked for are kept, by identity and
    at the highest order asked on each, the most recently read first: a
    bundle's grid node table and the node arrays of its three point sets
    (schedule, probes, classification points) then stay, so a chain weight
    is evaluated once per bundle on each, and the evaluators of one
    tabulation share their parts' jets on it.  The node arrays of other
    reads (a quadrature's refinement rounds) push them out; each is then
    evaluated once more at its next read.  Without ``arrays`` a node array
    raises :class:`~chebscale.errors.NoArrayForm`.

    :meth:`keep_nodes` seeds per-point jets from a jet of the array form:
    a node's coefficients of an array jet are its scalar jet's bit for bit
    (see the module docstring), so a memo seeded from one array pass holds
    what a pass point by point would have left in it.
    """

    __slots__ = ("fn", "name", "arrays", "_jets", "_nodes", "__weakref__")

    def __init__(self, fn, name="", arrays=False):
        self.fn = fn
        self.name = name
        self.arrays = arrays
        self._jets = {}
        self._nodes = []  # (node array, jet) of the kept arrays, latest read first

    def __call__(self, x, order):
        try:
            j = self._jets.get(x)
        except TypeError:  # a node array is unhashable
            return self._on_nodes(x, order)
        if j is None or len(j.coeffs) <= order:
            j = self._jets[x] = self.fn(x, order)
        return j if len(j.coeffs) == order + 1 else truncate(j, order)

    def _on_nodes(self, xs, order):
        if not self.arrays:
            raise NoArrayForm(f"{self.name or self.fn!r} has no array form")
        kept = self._nodes
        stale = None  # the index of a jet of xs too short for this order
        for i, pair in enumerate(kept):
            if pair[0] is xs:
                if len(pair[1].coeffs) <= order:
                    stale = i
                    break
                if i:
                    del kept[i]
                    kept.insert(0, pair)
                return truncate(pair[1], order)
        j = self.fn(xs, order)  # which reads other memos, never this one
        if stale is not None:
            del kept[stale]
        kept.insert(0, (xs, j))
        del kept[KEPT_ARRAYS:]
        return j

    def keep_nodes(self, points, j):
        """Keep ``j``, this evaluator's jet on the node array of ``points``
        (floats, in node order), as per-point jets: each node where no
        coefficient is NaN (flagged) gets its jet, unless the memo holds
        one as long there already.  Flagged nodes keep nothing, so their
        first read runs ``fn`` there."""
        coeffs = np.array(j.coeffs)
        flagged = np.isnan(coeffs).any(axis=0).tolist()
        jets = self._jets
        m = len(coeffs)
        for x, bad, row in zip(points, flagged, coeffs.T.tolist()):
            if not bad:
                old = jets.get(x)
                if old is None or len(old.coeffs) < m:
                    jets[x] = kept = Jet.__new__(Jet)  # floats already
                    kept.anchor, kept.coeffs = x, tuple(row)

    def value(self, x):
        return self(x, 0).value

    def values(self, xs):
        """The values at every node of the array ``xs`` (array form)."""
        return self(xs, 0).value

    def __repr__(self):
        return f"<jetfn {self.name}>"


# -- elementary functions by name (the calls of an expression) ---------------

_UNARY = {
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
    "sin": jsin,
    "cos": jcos,
}
