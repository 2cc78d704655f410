"""Scalar expression DSL for metric functions of ``(x, t)`` and named parameters.

Expressions are parsed once into an immutable AST and evaluated many times
(once per lattice site per time slice), so the AST is a plain tree of frozen
dataclasses and evaluation is a recursive walk.  The grammar is ordinary
infix notation::

    expr   := additive
    add    := mul (('+' | '-') mul)*
    mul    := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | name | name '(' expr ')' | '(' expr ')'

``x`` and ``t`` are the only variables; every other bare name is a parameter
that must be bound at evaluation time.  Evaluation either returns a finite
float or raises: there is no silent NaN/inf propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CurvedLatticeError

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "cosh", "sinh", "tanh", "abs")
VARIABLES = ("x", "t")

_FUNC_IMPL = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "tanh": math.tanh,
    "abs": abs,
}


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

    def additive(self) -> Expr:
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset)
                self.advance()
                arg = self.additive()
                self.expect(")", "')' closing function call")
                return Call(tok.text, arg)
            if tok.text in VARIABLES:
                return Var(tok.text)
            return Param(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.additive()
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
    node = parser.additive()
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
    overflow).
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
            return _FUNC_IMPL[node.fn](arg)
        except OverflowError:
            raise EvalError(f"overflow in {node.fn}") from None
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
        if node.fn == "abs":
            raise DerivativeError("abs is not differentiable")
        u = node.arg
        outer: Expr
        if node.fn == "exp":
            outer = Call("exp", u)
        elif node.fn == "log":
            outer = _div(_ONE, u)
        elif node.fn == "sqrt":
            outer = _div(_ONE, _mul(Num(2.0), Call("sqrt", u)))
        elif node.fn == "sin":
            outer = Call("cos", u)
        elif node.fn == "cos":
            outer = _neg(Call("sin", u))
        elif node.fn == "cosh":
            outer = Call("sinh", u)
        elif node.fn == "sinh":
            outer = Call("cosh", u)
        else:  # tanh
            outer = _sub(_ONE, _mul(Call("tanh", u), Call("tanh", u)))
        return _mul(du, outer)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Pretty printer and tree queries

# Precedence levels used by the printer; atoms bind tightest.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3
_ATOM_PREC = 9


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


def param_names(node: Expr) -> frozenset[str]:
    """All parameter names appearing in the tree."""
    if isinstance(node, Param):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return param_names(node.arg)
    if isinstance(node, Call):
        return param_names(node.arg)
    if isinstance(node, BinOp):
        return param_names(node.lhs) | param_names(node.rhs)
    return frozenset()


def uses_variable(node: Expr, name: str) -> bool:
    """True if variable ``name`` ('x' or 't') appears in the tree."""
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Neg):
        return uses_variable(node.arg, name)
    if isinstance(node, Call):
        return uses_variable(node.arg, name)
    if isinstance(node, BinOp):
        return uses_variable(node.lhs, name) or uses_variable(node.rhs, name)
    return False
