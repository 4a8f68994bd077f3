"""Expression language for scale functions and targets.

Grammar (one free variable ``x``)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | IDENT "(" expr ")" | "(" expr ")"

Identifiers: exp, log, sqrt, sin, cos.  ``^`` is right-associative and binds
tighter than unary minus, so ``-x^2`` means ``-(x^2)`` and ``x^-1`` parses.
Numbers are decimal literals with an optional exponent; there is no implicit
multiplication.

Evaluation: :func:`eval_jet` evaluates an AST as a jet to any order, on a
float or a node array.  A scalar read at order 0 is most reads, and
:class:`ExpressionFunction` answers it with :func:`order0`, the AST compiled
(at its first such read) into float closures that do exactly the float
operations of coefficient 0 of the jet, so value and errors are bit for bit
the jet's.  The closures mirror the jet rules: ``+ - *`` and negation are
float operations; ``a / b`` is ``a * (1.0 / b)`` behind the ``DIV_EPS``
guard of jet division; exp/sin/cos call ``math``, and log/sqrt raise the
jet's ``DomainErrorJet`` on a nonpositive value first; a constant exponent
follows ``jpow`` (square-and-multiply for an integer, ``1.0 / b`` first if
it is negative, ``exp(c * log(b))`` otherwise) and any other exponent is
``exp(e * log(b))``.  Where the constant exponent itself has no value
(``(0-2)^0.5``, ``10^400``), that node reads the jet when it is evaluated,
so an error surfaces where and in the order the jet raises it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jet as jetmod
from .errors import DivisionByZeroJet, DomainErrorJet, EvaluationError, ExprSyntaxError

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


# -- tokenizer ------------------------------------------------------------------

_NUMBER = re.compile(r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            m = _NUMBER.match(text, i)
            if m:
                self.tokens.append(("number", m.group(0), i))
                i = m.end()
                continue
            m = _IDENT.match(text, i)
            if m:
                self.tokens.append(("ident", m.group(0), i))
                i = m.end()
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i, {"token"})
        self.tokens.append(("eof", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text):
        self.toks = _Tokenizer(text)

    def parse(self):
        node = self._expr()
        kind, _, off = self.toks.peek()
        if kind != "eof":
            raise ExprSyntaxError(
                "trailing input", off, {"+", "-", "*", "/", "^", "end of input"}
            )
        return node

    def _expr(self):
        node = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.advance()[0]
            node = BinOp(op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.advance()[0]
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self):
        if self.toks.peek()[0] == "-":
            self.toks.advance()
            return Neg(self._factor())
        return self._power()

    def _power(self):
        node = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.advance()
            node = BinOp("^", node, self._factor())
        return node

    def _atom(self):
        kind, text, off = self.toks.peek()
        if kind == "number":
            self.toks.advance()
            return Const(float(text))
        if kind == "ident":
            self.toks.advance()
            if text == "x":
                return Var()
            if text in FUNCTIONS:
                self._expect("(")
                inner = self._expr()
                self._expect(")")
                return Call(text, inner)
            raise ExprSyntaxError(
                f"unknown identifier {text!r}", off, set(FUNCTIONS) | {"x"}
            )
        if kind == "(":
            self.toks.advance()
            inner = self._expr()
            self._expect(")")
            return inner
        raise ExprSyntaxError(
            "expected an operand", off, {"number", "x", "identifier", "(", "-"}
        )

    def _expect(self, symbol):
        kind, _, off = self.toks.peek()
        if kind != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", off, {symbol})
        self.toks.advance()


def parse(text):
    """Parse ``text`` into an AST.  Raises :class:`ExprSyntaxError` on failure."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0, {"expression"})
    return _Parser(text).parse()


# -- rendering ------------------------------------------------------------------

# Precedence levels used for minimal parenthesisation.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def render(node):
    """Canonical text form; ``parse(render(ast))`` is structurally ``ast``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Call):
        return f"{node.name}({render(node.arg)})"
    if isinstance(node, Neg):
        inner = render(node.child)
        if _prec(node.child) < _PREC_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lp, rp = _prec(node.left), _prec(node.right)
        left, right = render(node.left), render(node.right)
        if node.op in "+-":
            if lp < _PREC_ADD:
                left = f"({left})"
            if rp <= _PREC_ADD:
                right = f"({right})"
        elif node.op in "*/":
            if lp < _PREC_MUL:
                left = f"({left})"
            if rp <= _PREC_MUL:
                right = f"({right})"
        else:  # ^ binds tightest, right-associative
            if lp < _PREC_ATOM:
                left = f"({left})"
            if rp < _PREC_NEG:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation -----------------------------------------------------------------


# the four arithmetic operators, on floats and on jets alike ("^" is separate)
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def constant_value(node):
    """Value of a variable-free subtree, or None if it involves ``x``.

    A subtree with no real value (``log(0-1)``, ``(0-2)^0.5``) raises
    :class:`EvaluationError`."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return None
    if isinstance(node, Neg):
        v = constant_value(node.child)
        return None if v is None else -v
    if isinstance(node, Call):
        v = constant_value(node.arg)
        if v is None:
            return None
        try:
            return getattr(math, node.name)(v)
        except ValueError:
            raise EvaluationError(f"{render(node)} has no real value") from None
    if isinstance(node, BinOp):
        a = constant_value(node.left)
        b = constant_value(node.right)
        if a is None or b is None:
            return None
        if node.op != "^":
            return _ARITH[node.op](a, b)
        v = a**b
        if isinstance(v, complex):  # a negative base to a fractional power
            raise EvaluationError(f"{render(node)} has no real value")
        return v
    raise TypeError(f"not an AST node: {node!r}")


def eval_jet(node, anchor, order):
    """Jet of the expression at ``anchor`` to the given truncation order."""
    if isinstance(node, Const):
        return jetmod.jet_constant(node.value, anchor, order)
    if isinstance(node, Var):
        return jetmod.jet_variable(anchor, order)
    if isinstance(node, Neg):
        return -eval_jet(node.child, anchor, order)
    if isinstance(node, Call):
        inner = eval_jet(node.arg, anchor, order)
        return jetmod._UNARY[node.name](inner)
    if isinstance(node, BinOp):
        if node.op == "^":
            c = constant_value(node.right)
            base = eval_jet(node.left, anchor, order)
            if c is not None:
                return jetmod.jpow(base, c)
            expo = eval_jet(node.right, anchor, order)
            return jetmod.jexp(expo * jetmod.jlog(base))
        a = eval_jet(node.left, anchor, order)
        b = eval_jet(node.right, anchor, order)
        return _ARITH[node.op](a, b)
    raise TypeError(f"not an AST node: {node!r}")


def _positive(u, what):
    """``u``, where log, sqrt and real powers admit it (see ``jet._admit``)."""
    if u <= 0.0:
        raise DomainErrorJet(f"{what} of nonpositive value {u}")
    return u


def _inverse(b):
    """``1.0 / b`` behind the near-zero guard of jet division."""
    if abs(b) < jetmod.DIV_EPS:
        raise DivisionByZeroJet("jet division by value ~ 0")
    return 1.0 / b


def order0(node):
    """The expression as ``x -> float``: coefficient 0 of
    ``eval_jet(node, x, 0)``, bit for bit and with the same errors, without a
    jet per node.  Building it evaluates nothing."""
    if isinstance(node, Const):
        v = float(node.value)
        return lambda x: v
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        child = order0(node.child)
        return lambda x: -child(x)
    if isinstance(node, Call):
        arg, fn = order0(node.arg), getattr(math, node.name)
        if node.name in ("log", "sqrt"):
            name = node.name
            return lambda x: fn(_positive(arg(x), name))
        return lambda x: fn(arg(x))
    if not isinstance(node, BinOp):
        raise TypeError(f"not an AST node: {node!r}")
    if node.op == "^":
        return _power0(node)
    left, right = order0(node.left), order0(node.right)
    if node.op == "+":
        return lambda x: left(x) + right(x)
    if node.op == "-":
        return lambda x: left(x) - right(x)
    if node.op == "*":
        return lambda x: left(x) * right(x)
    return lambda x: left(x) * _inverse(right(x))


def _power0(node):
    """:func:`order0` of a ``^`` node, as ``eval_jet`` and ``jpow`` compute
    coefficient 0."""
    try:
        c = constant_value(node.right)
        if c is not None:
            c = float(c)
            integral = abs(c - round(c)) < 1e-12 and abs(c) <= 1024
    except (ArithmeticError, ValueError, EvaluationError):
        # no constant exponent to compile: the jet raises where it is read
        return lambda x: eval_jet(node, x, 0).coeffs[0]
    base = order0(node.left)
    if c is None:
        expo = order0(node.right)

        def power(x):
            b = base(x)
            e = expo(x)
            return math.exp(e * math.log(_positive(b, "log")))

        return power
    if not integral:
        return lambda x: math.exp(c * math.log(_positive(base(x), "real power")))
    n = int(round(c))
    if n == 0:

        def one(x):
            base(x)  # evaluated for its errors, as eval_jet does
            return 1.0

        return one
    steps = abs(n)

    def power(x):
        # jpow's square-and-multiply, in the same order
        acc = base(x)
        if n < 0:
            acc = _inverse(acc)
        k, out = steps, None
        while k:
            if k & 1:
                out = acc if out is None else out * acc
            k >>= 1
            if k:
                acc = acc * acc
        return out

    return power


class _Evaluator:
    """The memo's evaluator of one AST.  A scalar read at order 0 runs the
    :func:`order0` closure, compiled at the first such read; every other read
    is :func:`eval_jet`.  It holds the AST, never the ExpressionFunction, so
    dropping a target frees it without waiting for the garbage collector."""

    __slots__ = ("ast", "compiled")

    def __init__(self, ast):
        self.ast = ast
        self.compiled = None

    def __call__(self, x, order):
        if order or isinstance(x, np.ndarray):
            return eval_jet(self.ast, x, order)
        if self.compiled is None:
            self.compiled = order0(self.ast)
        x = float(x)
        return jetmod.Jet(x, (self.compiled(x),))


class ExpressionFunction(jetmod.JetMemo):
    """A parsed expression as a memoized jet-evaluator ``(x, order) -> Jet``
    with an array form: a :class:`~chebscale.jet.JetMemo` of its AST."""

    __slots__ = ("ast",)

    # an entry of this class's own, which a tracer rebinds for expressions only
    __call__ = jetmod.JetMemo.__call__

    def __init__(self, text_or_ast):
        text = isinstance(text_or_ast, str)
        self.ast = parse(text_or_ast) if text else text_or_ast
        name = text_or_ast.strip() if text else render(self.ast)
        super().__init__(_Evaluator(self.ast), name, arrays=True)

    def __repr__(self):
        return f"ExpressionFunction({self.name!r})"
