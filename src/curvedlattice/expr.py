"""Scalar expression DSL for metric functions of ``(x, t)`` and named parameters.

Expressions are parsed once into an immutable AST and evaluated many times
(once per lattice site per time slice), so the AST is a plain tree of frozen
dataclasses and evaluation is a recursive walk.  The grammar is ordinary
infix notation::

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
from dataclasses import dataclass

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
    """Malformed source text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExpressionError):
    """Unbound parameter or numeric domain violation during evaluation."""


class DerivativeError(ExpressionError):
    """Requested derivative of a non-differentiable node (abs)."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "t"


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Param | Neg | BinOp | Call

_ZERO = Num(0.0)
_ONE = Num(1.0)


# ---------------------------------------------------------------------------
# Tokenizer / parser


class _Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        self.kind = kind  # "num" | "name" | "op" | "(" | ")" | "end"
        self.text = text
        self.offset = offset


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c in "()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def binary(self, min_prec: int) -> Expr:
        """Parse an operand followed by operators binding at least ``min_prec``."""
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node = Neg(self.binary(_NEG_PREC))
        else:
            node = self.atom()
        while (tok := self.peek()).kind == "op" and _PREC[tok.text] >= min_prec:
            self.advance()
            # a power's exponent is a unary operand, so ^ nests to the right
            prec = _NEG_PREC if tok.text == "^" else _PREC[tok.text] + 1
            node = BinOp(tok.text, node, self.binary(prec))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(
                        f"unknown function {tok.text!r}; expected one of {', '.join(FUNCTIONS)}",
                        tok.offset,
                    )
                self.advance()
                arg = self.binary(0)
                self.expect(")", "')' closing function call")
                return Call(tok.text, arg)
            if tok.text in VARIABLES:
                return Var(tok.text)
            return Param(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.binary(0)
            self.expect(")", "')' closing group")
            return node
        raise ParseError("expected a number, name, '(' or unary '-'", tok.offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression AST.

    Raises ParseError (with byte offset) on malformed input.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.binary(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
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


def to_source(node: Expr) -> str:
    """Render the AST back to parseable text with minimal parentheses.

    ``parse(to_source(ast))`` is structurally identical to ``ast``.
    """
    return _print(node)


def _wrap(node: Expr, min_prec: int) -> str:
    text = _print(node)
    if _node_prec(node) < min_prec:
        return f"({text})"
    return text


def _print(node: Expr) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, _NEG_PREC)
    if isinstance(node, Call):
        return f"{node.fn}({_print(node.arg)})"
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
