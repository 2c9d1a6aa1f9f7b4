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
import operator
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ExpressionError
from .grid import Field, SpatialGrid
from .operators import ROUNDING_FLOOR, DiffusionOperator, amax, build_operator

FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": np.divide}
_CONSTANTS = {"x": "x", "pi": math.pi}  # the variable stays a name, pi folds
# after blanks, a number, a name or one other character; ASCII digits only
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<other>\S))")


@lru_cache
def parse(src: str) -> float | str | tuple:
    """Parse an expression string into a tree of the grammar above: a float
    (a number, or pi as math.pi), "x", or a tuple (function, operand, ...)
    of operator.neg, np.power, a function of _BINARY or of FUNCTIONS and
    the trees it applies to. A malformed src raises an ExpressionError
    naming the first token the grammar cannot take, at its offset in src.

    The trees of recent sources are kept: a config's expressions are parsed
    when it is read and again when they are sampled."""
    tokens = [(m[m.lastgroup], m.start(m.lastgroup), m.lastgroup) for m in _TOKEN.finditer(src)]
    if not tokens:
        raise ExpressionError("empty expression")
    tokens.append(("", len(src), "end"))
    at = 0

    def fail(message=None):
        text, position, kind = tokens[at]
        if message is None and text:
            known = text in _CONSTANTS or text in FUNCTIONS
            what = ("unknown identifier" if kind == "name" and not known
                    else "unexpected character" if kind == "other" and text not in "+-*/^()"
                    else "unexpected token")
            message = f"{what} {_quoted(text)}"
        raise ExpressionError(message or "unexpected end of input", position) from None

    def take(*symbols):
        """The next token's text, consumed, if it is one of symbols."""
        nonlocal at
        if tokens[at][0] in symbols:
            at += 1
            return tokens[at - 1][0]

    def expr():
        e = term()
        while op := take("+", "-"):
            e = (_BINARY[op], e, term())
        return e

    def term():
        e = factor()
        while op := take("*", "/"):
            e = (_BINARY[op], e, factor())
        return e

    def factor():
        if take("-"):
            return (operator.neg, factor())
        e = atom()
        return (np.power, e, factor()) if take("^") else e

    def atom():
        nonlocal at
        text, _, kind = tokens[at]
        if kind == "number":
            if not math.isfinite(float(text)):
                fail(f"non-finite number {_quoted(text)}")
            at += 1
            return float(text)
        if name := take(*_CONSTANTS):
            return _CONSTANTS[name]
        function = take(*FUNCTIONS)  # None before a bare "("
        if not take("("):
            fail()
        e = expr()
        if not take(")"):
            fail("unclosed parenthesis" if tokens[at][2] == "end" else None)
        return (FUNCTIONS[function], e) if function else e

    try:
        tree = expr()
    except RecursionError:
        fail("nested too deeply")
    if tokens[at][2] != "end":
        fail()
    return tree


def _quoted(text: str) -> str:
    """repr(text), cut to its first 60 characters and "..." when longer."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}..."


def evaluate(e: float | str | tuple, x):
    """Evaluate a tree of parse() at x (scalar or array): a tuple applies
    its function to its operands' values. Non-finite results are the
    caller's concern; sample() turns them into errors."""
    if type(e) is not tuple:
        return x if e == "x" else e
    if len(e) == 2:
        return e[0](evaluate(e[1], x))
    return e[0](evaluate(e[1], x), evaluate(e[2], x))


def sample(e: float | str | tuple, grid: SpatialGrid) -> Field:
    """Evaluate pointwise at the cell centers.

    Division by zero, overflow, and 0^negative surface as errors naming the
    first offending x rather than propagating silently as inf/nan; a tree
    too deep to evaluate within the recursion limit, as "nested too deeply".
    """
    with np.errstate(all="ignore"):
        try:
            values = evaluate(e, grid.centers)
        except RecursionError:
            raise ExpressionError("nested too deeply") from None
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
        the stationary solves stop at max(steady_tol, it) times max|w|
        (dynamics.SimulationConfig). On the bundled configs at n = 200, 240
        and 800 and rates in [0, 0.95], zero sigmas sit within 0.011 times
        eps * (D.gershgorin + max r) and every other |sigma| beyond 1.75e6
        times it. spectral.principal_eigen's bracket stop,
        eps * gershgorin(H), is about a quarter of the level. Computed on
        first use and kept."""
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
    "{name} = {src!r}: {the error}", src cut as _quoted cuts it."""
    try:
        return sample(parse(src), grid)
    except ExpressionError as exc:
        raise ExpressionError(f"{name} = {_quoted(src)}: {exc}") from exc


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
