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

import ast
import math
import operator
import re
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ExpressionError
from .grid import Field, SpatialGrid
from .operators import ROUNDING_FLOOR, DiffusionOperator, amax, build_operator

FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: np.divide, ast.Pow: np.power}
_NUMBER = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# a character outside the grammar, or a "**" the user wrote ("^" is ours)
_FOREIGN = re.compile(r"[^A-Za-z0-9_\s.+\-*/^()]|\*\*")
# zeros leading an integer part, which Python rejects in "01" but the
# grammar allows; blanked in place, so offsets keep
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")


def _offset(src: str, t: int) -> int:
    """Offset in src of offset t in its rewrite, where each "^" is "**"."""
    pos = 0
    for c in src:
        t -= 2 if c == "^" else 1
        if t < 0:
            break
        pos += 1
    return pos


@lru_cache
def parse(src: str) -> ast.expr:
    """Parse an expression string into a syntax tree of the grammar above,
    held as Python ast nodes; a constant's value is float(its source).

    The trees of recent sources are kept (a config's expressions are parsed
    when it is read and again when they are sampled), so a call may return
    the tree an earlier call did: the tree must not be changed."""
    if not src or not src.strip():
        raise ExpressionError("empty expression")
    foreign = _FOREIGN.search(src)
    if foreign:
        pos = foreign.end() - 1
        raise ExpressionError(f"unexpected character {src[pos]!r}", pos)
    # Python's "**" is the grammar's "^": right-associative and binding
    # tighter than unary minus. Python would see an indent in leading
    # blanks and a line break in "\n", which the grammar ignores.
    text = re.sub(r"\s", " ", src).replace("^", "**")
    text = _LEADING_ZEROS.sub(lambda m: " " * len(m[0]), text)
    lead = len(text) - len(text.lstrip())
    text = text[lead:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1if x" warns, then fails below
            tree = ast.parse(text, mode="eval").body
    except SyntaxError as exc:  # offset 0: the end of the input
        t = exc.offset - 1 if exc.offset else len(text)
        message = re.split(r"[.:;] ", exc.msg)[0]  # without Python's hints
        if t >= len(text) and message == "invalid syntax":
            message = "unexpected end of input"
        raise ExpressionError(message, _offset(src, lead + t)) from None

    def check(node):
        kind = type(node)
        if kind is ast.Constant:
            digits = text[node.col_offset : node.end_col_offset]
            if _NUMBER.fullmatch(digits):
                node.value = float(digits)
                return
        elif kind is ast.Name and node.id in ("x", "pi"):
            return
        elif kind is ast.UnaryOp and type(node.op) is ast.USub:
            return check(node.operand)
        elif kind is ast.BinOp and type(node.op) in _BINARY:
            check(node.left)
            return check(node.right)
        elif (
            kind is ast.Call
            and type(node.func) is ast.Name
            and node.func.id in FUNCTIONS
            and node.func.col_offset == node.col_offset  # not "(cos)(x)"
            and len(node.args) == 1  # no "," or "=" gets here: no keywords
        ):
            return check(node.args[0])
        what, name = "unexpected", getattr(node, "func", node)
        if type(name) is ast.Name and name.id not in ("x", "pi", *FUNCTIONS):
            what, node = "unknown identifier", name
        start = _offset(src, lead + node.col_offset)
        end = _offset(src, lead + node.end_col_offset)
        raise ExpressionError(f"{what} {src[start:end]!r}", start)

    check(tree)
    return tree


def evaluate(e: ast.expr, x):
    """Evaluate at x (scalar or array). Non-finite results are the caller's
    concern; sample() turns them into errors."""
    kind = type(e)
    if kind is ast.Constant:
        return e.value
    if kind is ast.Name:
        return x if e.id == "x" else math.pi
    if kind is ast.UnaryOp:
        return -evaluate(e.operand, x)
    if kind is ast.Call:
        return FUNCTIONS[e.func.id](evaluate(e.args[0], x))
    return _BINARY[type(e.op)](evaluate(e.left, x), evaluate(e.right, x))


def sample(e: ast.expr, grid: SpatialGrid) -> Field:
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


@dataclass(frozen=True, eq=False)
class EnvironmentProfile:
    """Sampled environment: carrying capacity K, growth rate r, dispersal
    targets P and Q, and diffusivities a and b, all on one grid.

    The profile is immutable, so what is derived from it alone is made on
    first use and kept: u's dispersal operator (dispersal), u's rounding
    level (neutral_level) and the swapped environment, whose dispersal and
    neutral_level are v's. A profile is identified by its arrays, so it
    compares and hashes by identity."""

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

    @cached_property
    def dispersal(self) -> DiffusionOperator:
        """u's dispersal operator div[a grad(u/P)]; v's is
        self.swapped().dispersal. Built on first use and kept."""
        return build_operator(self.a, self.P, self.grid)

    @cached_property
    def neutral_level(self) -> float:
        """ROUNDING_FLOOR * eps * (D.gershgorin + max r), D = self.dispersal:
        the rounding level of u's stationary problem per unit of state (v's
        is self.swapped().neutral_level). A sigma within it of 0 is neutral;
        the stationary solves stop at it times max|w| (dynamics). On the
        bundled configs at n = 200, 240 and 800 and rates in [0, 0.95], zero
        sigmas sit within 0.011 times eps * (D.gershgorin + max r) and every
        other |sigma| beyond 1.75e6 times it. spectral.principal_eigen's
        bracket stop, eps * gershgorin(H), is about a quarter of the level.
        Computed on first use and kept."""
        return ROUNDING_FLOOR * sys.float_info.epsilon * (self.dispersal.gershgorin + amax(self.r))

    def swapped(self) -> "EnvironmentProfile":
        """The environment with the two species exchanged: (a, P) and
        (b, Q) trade places; K, r and the grid are shared, not copied.
        Whatever the u species does in the result, the v species does here.
        Made on the first call and kept: every call returns the same
        instance, and env.swapped().swapped() is env."""
        if "_swapped" not in self.__dict__:
            other = replace(self, P=self.Q, Q=self.P, a=self.b, b=self.a)
            self.__dict__["_swapped"], other.__dict__["_swapped"] = other, self
        return self.__dict__["_swapped"]


def sample_source(name: str, src: str, grid: SpatialGrid) -> Field:
    """sample(parse(src), grid); an ExpressionError names what src is:
    "{name} = {src!r}: {the error}"."""
    try:
        return sample(parse(src), grid)
    except ExpressionError as exc:
        raise ExpressionError(f"{name} = {src!r}: {exc}") from exc


def environment_from_expressions(grid: SpatialGrid, **sources: str) -> EnvironmentProfile:
    """Parse and sample K, r, P, Q, a, b expression strings onto the grid."""
    fields = {}
    for name in ("K", "r", "P", "Q", "a", "b"):
        try:
            src = sources.pop(name)
        except KeyError:
            raise ConfigurationError(f"missing profile expression for {name!r}") from None
        fields[name] = sample_source(f"profile {name}", src, grid)
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
