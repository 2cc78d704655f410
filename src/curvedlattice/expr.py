"""Scalar expression DSL for metric functions of ``(x, t)`` and named parameters.

Expressions are parsed once into an immutable AST and evaluated many times
(once per lattice site per time slice), so the AST is a plain tree of
immutable slotted nodes, each equal only to a node of its own type and
fields (``Var("x") != Param("x")``), and evaluation is a recursive walk.
The grammar is ordinary infix notation::

    expr   := ('-' expr | atom) (op expr)*   # precedence climbing over _PREC
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Binding tightens from ``+ -`` through ``* /`` and unary ``-`` to ``^``;
``+ - * /`` are left-associative, ``^`` is right-associative and its
exponent may carry a unary minus (``2^-3``).

``x`` and ``t`` are the only variables; every other bare name is a parameter
that must be bound at evaluation time.  Evaluation either returns a finite
float or raises: there is no silent NaN/inf propagation.
"""

from __future__ import annotations

import math
import re

from .errors import CurvedLatticeError

# name -> (value, d/du as a tree builder of the argument u); abs has no
# derivative.  The builders use the folding constructors defined below.
_FUNCTIONS = {
    "exp": (math.exp, lambda u: Call("exp", u)),
    "log": (math.log, lambda u: _div(_ONE, u)),
    "sqrt": (math.sqrt, lambda u: _div(_ONE, _mul(Num(2.0), Call("sqrt", u)))),
    "sin": (math.sin, lambda u: Call("cos", u)),
    "cos": (math.cos, lambda u: _neg(Call("sin", u))),
    "cosh": (math.cosh, lambda u: Call("sinh", u)),
    "sinh": (math.sinh, lambda u: Call("cosh", u)),
    "tanh": (math.tanh, lambda u: _sub(_ONE, _mul(Call("tanh", u), Call("tanh", u)))),
    "abs": (abs, None),
}
FUNCTIONS = tuple(_FUNCTIONS)
VARIABLES = ("x", "t")

# Binding strength of each operator; atoms bind tightest.  The parser climbs
# this table and the printer parenthesizes by it.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 9


class ExpressionError(CurvedLatticeError):
    """Base class for all expression DSL failures."""


class ParseError(ExpressionError):
    """Malformed source text; carries the offset of the failure in characters."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExpressionError):
    """Unbound parameter or numeric domain violation during evaluation."""


class DerivativeError(ExpressionError):
    """Requested derivative of a non-differentiable node (abs)."""


# ---------------------------------------------------------------------------
# AST


class _Node:
    """A tree node with the fields named by ``__slots__``: immutable, and
    equal to, and hashed like, only a node of its own type and fields."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return type(self) is type(other) and self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __reduce__(self):  # copy and pickle rebuild a node through its constructor
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = ("value",)


class Var(_Node):
    __slots__ = ("name",)  # "x" or "t"


class Param(_Node):
    __slots__ = ("name",)


class Neg(_Node):
    __slots__ = ("arg",)


class BinOp(_Node):
    __slots__ = ("op", "lhs", "rhs")  # op is one of + - * / ^


class Call(_Node):
    __slots__ = ("fn", "arg")


Expr = Num | Var | Param | Neg | BinOp | Call

_ZERO = Num(0.0)
_ONE = Num(1.0)


# ---------------------------------------------------------------------------
# Parser

# One token after optional whitespace: a run of digits and dots with an
# optional exponent (a number if float() takes it), a run of word characters
# (a name if it starts with a letter or '_'), an operator or parenthesis, or
# any other character, which is an error.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<name>\w+)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)

# The most nodes on a path from a parsed tree's root to a leaf.  A derivative
# can be four times as deep (a chain of powers) and printing it takes two
# frames a level: about 510 of the default recursion limit of 1000.  Text may
# nest twice as deep, as each edge of a printed tree may open an operand and a group.
_MAX_DEPTH = 64


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression AST.

    Raises ParseError (with its offset) on malformed input, on a tree more
    than ``_MAX_DEPTH`` nodes deep or on text nested twice as deep.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    # str.isdigit takes digits that \d does not, such as '²': the pattern reads
    # them as '0', and float() rejects the number's own text
    scan = source.translate({ord(c): "0" for c in source if c.isdigit() and not c.isdecimal()})
    tokens = []  # (kind, text, offset); the whole source, so a lexical error comes first
    for match in _TOKEN.finditer(scan):
        kind, offset = match.lastgroup, match.start(match.lastgroup)
        text = source[offset:match.end()]
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", offset) from None
        elif kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", offset)
        tokens.append((kind, text, offset))
    tokens.append(("end", "", len(source)))
    pos = 0

    def expect(text: str, what: str) -> None:
        nonlocal pos
        if tokens[pos][1] != text:
            raise ParseError(f"expected {what}", tokens[pos][2])
        pos += 1

    def climb(min_prec: int, level: int) -> tuple[Expr, int]:
        """The operand at ``pos`` and the operators binding at least
        ``min_prec`` after it, with the height of their tree."""
        nonlocal pos
        kind, text, offset = tokens[pos]
        if level > 2 * _MAX_DEPTH:
            raise ParseError(f"expression text nested deeper than {2 * _MAX_DEPTH} levels", offset)
        pos += 1
        if text == "-":
            arg, height = climb(_NEG_PREC, level + 1)
            node, height = Neg(arg), height + 1
        elif kind == "num":
            node, height = Num(float(text)), 1
        elif kind == "name" and tokens[pos][1] == "(":
            if text not in _FUNCTIONS:
                known = ", ".join(FUNCTIONS)
                raise ParseError(f"unknown function {text!r}; expected one of {known}", offset)
            pos += 1
            arg, height = climb(0, level + 1)
            expect(")", "')' closing function call")
            node, height = Call(text, arg), height + 1
        elif kind == "name":
            node, height = (Var(text) if text in VARIABLES else Param(text)), 1
        elif text == "(":
            node, height = climb(0, level + 1)
            expect(")", "')' closing group")
        else:
            raise ParseError("expected a number, name, '(' or unary '-'", offset)
        while True:
            if height > _MAX_DEPTH:
                raise ParseError(f"expression tree deeper than {_MAX_DEPTH} levels", offset)
            _, op, offset = tokens[pos]
            if op not in _PREC or _PREC[op] < min_prec:
                return node, height
            pos += 1
            # a power's exponent is a unary operand, so ^ nests to the right
            rhs, rhs_height = climb(_NEG_PREC if op == "^" else _PREC[op] + 1, level + 1)
            node, height = BinOp(op, node, rhs), max(height, rhs_height) + 1

    node = climb(0, 1)[0]
    kind, text, offset = tokens[pos]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", offset)
    return node


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(node: Expr, x: float, t: float, params: dict[str, float] | None = None) -> float:
    """Evaluate the AST at (x, t) with the given parameter bindings.

    Pure and reentrant: safe to call concurrently on a shared AST.  Returns a
    finite float or raises EvalError (unbound parameter, sqrt/log of a
    negative number, division by zero, non-integer power of a negative base,
    overflow, sin/cos of an infinite value).
    """
    params = params or {}
    result = _eval(node, x, t, params)
    if not math.isfinite(result):
        raise EvalError(f"non-finite result {result!r} from {to_source(node)!r}")
    return result


def _eval(node: Expr, x: float, t: float, params: dict[str, float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else t
    if isinstance(node, Param):
        try:
            return float(params[node.name])
        except KeyError:
            raise EvalError(f"unbound parameter {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, x, t, params)
    if isinstance(node, BinOp):
        lhs = _eval(node.lhs, x, t, params)
        rhs = _eval(node.rhs, x, t, params)
        op = node.op
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0.0:
                raise EvalError("division by zero")
            return lhs / rhs
        # power
        if lhs < 0.0 and rhs != math.floor(rhs):
            raise EvalError(f"non-integer power {rhs} of negative base {lhs}")
        if lhs == 0.0 and rhs < 0.0:
            raise EvalError("zero raised to a negative power")
        try:
            return math.pow(lhs, rhs)
        except OverflowError:
            raise EvalError("overflow in power") from None
    if isinstance(node, Call):
        arg = _eval(node.arg, x, t, params)
        if node.fn == "sqrt" and arg < 0.0:
            raise EvalError(f"sqrt of negative value {arg}")
        if node.fn == "log" and arg <= 0.0:
            raise EvalError(f"log of non-positive value {arg}")
        try:
            return _FUNCTIONS[node.fn][0](arg)
        except OverflowError:
            raise EvalError(f"overflow in {node.fn}") from None
        except ValueError:  # sin and cos of ±inf
            raise EvalError(f"{node.fn} of infinite value {arg}") from None
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Symbolic time derivative

# Folding constructors: keep derivative trees readable (0- and 1-elimination
# only; this is constant folding, not CAS simplification).


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Num) and node.value == 0.0


def _is_one(node: Expr) -> bool:
    return isinstance(node, Num) and node.value == 1.0


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_zero(b):
        return a
    if _is_zero(a):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return _ZERO
    if _is_one(b):
        return a
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_one(b):
        return a
    return BinOp("^", a, b)


def diff_t(node: Expr) -> Expr:
    """Symbolic derivative with respect to ``t``.

    Standard rules with zero/one folding.  ``abs`` of a t-independent
    argument has derivative 0; any other ``abs`` is rejected because the
    lattice onsite term needs a derivative valid on the whole sampled domain.
    """
    if isinstance(node, (Num, Param)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == "t" else _ZERO
    if isinstance(node, Neg):
        return _neg(diff_t(node.arg))
    if isinstance(node, BinOp):
        u, v = node.lhs, node.rhs
        du, dv = diff_t(u), diff_t(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            return _div(_sub(_mul(du, v), _mul(u, dv)), _mul(v, v))
        # u^v
        if _is_zero(dv):
            return _mul(_mul(v, _pow(u, _sub(v, _ONE))), du)
        if _is_zero(du):
            return _mul(_mul(_pow(u, v), Call("log", u)), dv)
        return _mul(
            _pow(u, v),
            _add(_mul(dv, Call("log", u)), _div(_mul(v, du), u)),
        )
    if isinstance(node, Call):
        du = diff_t(node.arg)
        if _is_zero(du):
            return _ZERO
        outer = _FUNCTIONS[node.fn][1]
        if outer is None:
            raise DerivativeError(f"{node.fn} is not differentiable")
        return _mul(du, outer(node.arg))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Pretty printer and tree queries


def _node_prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    return _ATOM_PREC


def _wrap(node: Expr, min_prec: int) -> str:
    text = to_source(node)
    if _node_prec(node) < min_prec:
        return f"({text})"
    return text


def to_source(node: Expr) -> str:
    """Render the AST back to parseable text with minimal parentheses.

    ``parse(to_source(ast))`` is structurally identical to ``ast``.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _NEG_PREC)
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, BinOp):
        if node.op == "^":
            # lhs must be atomic; rhs parses at the unary level
            return _wrap(node.lhs, _PREC["^"] + 1) + "^" + _wrap(node.rhs, _NEG_PREC)
        prec = _PREC[node.op]
        return _wrap(node.lhs, prec) + node.op + _wrap(node.rhs, prec + 1)
    raise TypeError(f"not an expression node: {node!r}")


def _leaves(node: Expr) -> tuple[Var | Param, ...]:
    """The Var and Param leaves of the tree, left to right."""
    if isinstance(node, (Neg, Call)):
        return _leaves(node.arg)
    if isinstance(node, BinOp):
        return _leaves(node.lhs) + _leaves(node.rhs)
    return (node,) if isinstance(node, (Var, Param)) else ()


def param_names(node: Expr) -> frozenset[str]:
    """All parameter names appearing in the tree."""
    return frozenset(leaf.name for leaf in _leaves(node) if isinstance(leaf, Param))


def uses_variable(node: Expr, name: str) -> bool:
    """True if variable ``name`` ('x' or 't') appears in the tree."""
    return Var(name) in _leaves(node)


# ---------------------------------------------------------------------------
# Custom metrics


class CustomProfiles:
    """A custom metric: α(x, t), β(x, t), the ∂₀β derived from β (so it cannot
    disagree with β; building raises DerivativeError where β has none) and
    the parameters they are sampled with."""

    def __init__(self, alpha: Expr, beta: Expr, params):
        self.alpha, self.beta, self.dbeta, self.params = alpha, beta, diff_t(beta), dict(params)
        self.param_names = param_names(alpha) | param_names(beta)
        self.time_dependent = uses_variable(alpha, "t") or uses_variable(beta, "t")
        self.conformally_flat = alpha == beta
        self.source = f"custom(alpha={to_source(alpha)!r}, beta={to_source(beta)!r})"

    def sample(self, xs, t: float) -> tuple[list[float], list[float], list[float]]:
        """α, β and ∂₀β/β (0 where β = 0 = ∂₀β) at each site coordinate of
        ``xs`` at time t.  An EvalError names the first site that fails."""
        alpha, beta, dlog = [], [], []
        for n, x in enumerate(xs):
            try:
                a = evaluate(self.alpha, x, t, self.params)
                b = evaluate(self.beta, x, t, self.params)
                db = evaluate(self.dbeta, x, t, self.params)
            except EvalError as err:
                raise EvalError(f"custom metric at site {n}, t={t:g}: {err}") from err
            if b == 0.0 and db != 0.0:
                raise EvalError(f"divergent ∂₀β/β: β = 0 with ∂₀β = {db:g} at site {n}, t={t:g}")
            alpha.append(a)
            beta.append(b)
            dlog.append(db / b if b != 0.0 else 0.0)
        return alpha, beta, dlog
