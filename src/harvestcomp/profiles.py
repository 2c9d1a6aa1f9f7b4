"""Closed-form spatial profiles: parse, evaluate, sample, validate.

Expression grammar (whitespace insensitive):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" factor)?
    atom   := number | "x" | "pi" | func "(" expr ")" | "(" expr ")"

with func in {cos, sin, exp, abs}, "^" right-associative and binding
tighter than unary minus ("-x^2" is -(x^2)), and numbers decimal with an
optional exponent. "x" is the only variable, "pi" a reserved constant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ConfigurationError, ExpressionError
from .grid import Field, SpatialGrid

FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    """Named atom: the variable 'x' or the constant 'pi'."""

    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


Expression = Union[Num, Sym, Neg, BinOp, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            # skip over trailing whitespace before declaring an error
            rest = src[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExpressionError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r}, found {text!r}", pos)
        self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expression:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "x":
                return Sym("x")
            if text == "pi":
                return Sym("pi")
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ExpressionError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(src: str) -> Expression:
    """Parse an expression string into an AST."""
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    return _Parser(src).parse()


def evaluate(e: Expression, x):
    """Evaluate at x (scalar or array). Non-finite results are the caller's
    concern; sample() turns them into errors."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Sym):
        return math.pi if e.name == "pi" else x
    if isinstance(e, Neg):
        return -evaluate(e.operand, x)
    if isinstance(e, Call):
        return FUNCTIONS[e.func](evaluate(e.arg, x))
    assert isinstance(e, BinOp)
    left = evaluate(e.left, x)
    right = evaluate(e.right, x)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        return np.divide(left, right)
    return np.power(left, right)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e: Expression) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_string(e: Expression) -> str:
    """Canonical printer; parse(to_string(e)) reproduces e."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    assert isinstance(e, BinOp)
    lp, rp = _prec(e.left), _prec(e.right)
    mine = _PREC[e.op]
    left = to_string(e.left)
    right = to_string(e.right)
    if e.op == "^":
        # right-associative; a Neg base must keep its parentheses
        if lp <= mine:
            left = f"({left})"
        if rp < _PREC["neg"]:
            right = f"({right})"
    else:
        if lp < mine:
            left = f"({left})"
        # left-associative: a right child of equal precedence needs parens
        # to reproduce the same tree on reparse
        if rp <= mine:
            right = f"({right})"
    return f"{left}{e.op}{right}"


def sample(e: Expression, grid: SpatialGrid) -> Field:
    """Evaluate pointwise at the cell centers.

    Division by zero, overflow, and 0^negative surface as errors naming the
    first offending x rather than propagating silently as inf/nan.
    """
    with np.errstate(all="ignore"):
        values = evaluate(e, grid.centers)
    values = np.broadcast_to(np.asarray(values, dtype=float), (grid.n_cells,)).copy()
    bad = ~np.isfinite(values)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ExpressionError(
            f"expression evaluates to a non-finite value at x = {grid.centers[i]}"
        )
    return values


@dataclass(frozen=True)
class EnvironmentProfile:
    """Sampled environment: carrying capacity K, growth rate r, dispersal
    targets P and Q, and diffusivities a and b, all on one grid."""

    grid: SpatialGrid
    K: Field
    r: Field
    P: Field
    Q: Field
    a: Field
    b: Field

    def __post_init__(self):
        for name in ("K", "r", "P", "Q", "a", "b"):
            f = np.ascontiguousarray(getattr(self, name), dtype=float)
            if f.shape != (self.grid.n_cells,):
                raise ConfigurationError(f"profile {name} does not match the grid")
            f.setflags(write=False)
            object.__setattr__(self, name, f)

    def swapped(self) -> "EnvironmentProfile":
        """The environment with the two species exchanged: (a, P) and
        (b, Q) trade places; K, r and the grid are shared, not copied.
        Whatever the u species does in the result, the v species does here."""
        return replace(self, P=self.Q, Q=self.P, a=self.b, b=self.a)


def environment_from_expressions(grid: SpatialGrid, **sources: str) -> EnvironmentProfile:
    """Parse and sample K, r, P, Q, a, b expression strings onto the grid."""
    fields = {}
    for name in ("K", "r", "P", "Q", "a", "b"):
        try:
            src = sources.pop(name)
        except KeyError:
            raise ConfigurationError(f"missing profile expression for {name!r}") from None
        try:
            fields[name] = sample(parse(src), grid)
        except ExpressionError as exc:
            raise ExpressionError(f"profile {name} = {src!r}: {exc}") from exc
    if sources:
        raise ConfigurationError(f"unknown profile names: {sorted(sources)}")
    return EnvironmentProfile(grid=grid, **fields)


def validate_environment(p: EnvironmentProfile) -> EnvironmentProfile:
    """Check the positivity assumptions; returns the profile unchanged.

    K, P, Q, a, b must be positive at every cell; r must be nonnegative
    everywhere and positive somewhere.
    """
    for name in ("K", "P", "Q", "a", "b"):
        f = getattr(p, name)
        if np.any(f <= 0):
            i = int(np.argmax(f <= 0))
            raise ConfigurationError(
                f"profile {name} must be positive everywhere; "
                f"{name}[{i}] = {f[i]} at x = {p.grid.centers[i]}"
            )
    if np.any(p.r < 0):
        i = int(np.argmax(p.r < 0))
        raise ConfigurationError(
            f"growth rate r must be nonnegative; r[{i}] = {p.r[i]} at x = {p.grid.centers[i]}"
        )
    if not np.any(p.r > 0):
        raise ConfigurationError("growth rate r must be positive on at least one cell")
    return p
