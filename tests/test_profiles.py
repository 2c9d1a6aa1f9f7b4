import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from harvestcomp import (
    ConfigurationError,
    ExpressionError,
    PopulationState,
    SpatialGrid,
    alpha_star,
    sweep_grid,
)
from harvestcomp.profiles import (
    EnvironmentProfile,
    environment_from_expressions,
    evaluate,
    parse,
    sample,
    validate_environment,
)

from conftest import load_example


@pytest.mark.parametrize(
    "src,x,expected",
    [
        ("2+cos(pi*x)", 0.0, 3.0),
        ("2+3*4", 0.0, 14.0),
        ("10*exp(-12.5*pi^2*(x-2)^2) - exp(-50*pi^2*(x-2)^2) + 1", 2.0, 10.0),
        ("2+3*4^2", 0.0, 50.0),
        ("2^3^2", 0.0, 512.0),  # right-associative
        ("-2^2", 0.0, -4.0),  # exponent binds tighter than unary minus
        ("2^-1", 0.0, 0.5),
        ("6-2-1", 0.0, 3.0),
        ("8/4/2", 0.0, 1.0),
        ("abs(-3)+sin(0)", 0.0, 3.0),
        ("1.5e2/3", 0.0, 50.0),
        (".5*x", 3.0, 1.5),
        ("--x", 2.5, 2.5),
        (" x ", 1.5, 1.5),  # leading and trailing blanks
        ("(\nx)", 1.5, 1.5),  # a line break inside parentheses
        ("x\n+1", 1.5, 2.5),  # and outside them
        ("01+x", 0.5, 1.5),  # a leading zero
        ("1.5e+01-01", 0.0, 14.0),  # one in an exponent, one after it
        ("2+cos(pi*x)", 1.0, 1.0),
        # 10 exp(-pi^2/8) - exp(-pi^2/2) + 1; a short id keeps it apart from the x=2 case
        pytest.param(
            "10*exp(-12.5*pi^2*(x-2)^2) - exp(-50*pi^2*(x-2)^2) + 1", 2.1, 3.9049374487843824,
            id="example2_K-2.1-3.9049374487843824",
        ),
        ("-x^2", 1.5, -2.25),
        ("(-x)^2", 1.5, 2.25),
        ("x^-2", 2.0, 0.25),
        ("1-(2-3)", 0.0, 2.0),
        ("8/(4/2)", 0.0, 4.0),
        ("2^(3^2)", 0.0, 512.0),
        ("(2^3)^2", 0.0, 64.0),
        ("-(x+1)", 1.5, -2.5),
        ("abs(x)*sin(x)/(1+x)", -0.5, -0.479425538604203),  # sin(-0.5)
    ],
)
def test_parse_and_evaluate(src, x, expected):
    assert evaluate(parse(src), x) == pytest.approx(expected, abs=1e-12)


_XS = np.linspace(-2.0, 2.0, 9)  # holds 0, so "/" and "^" meet inf and nan
_NUMPY_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_NUMPY_CALLS = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}


def _quietly(f, *args):
    with np.errstate(all="ignore"):
        return f(*args)


def _trees():
    """Expression trees as (fully parenthesized source, value at _XS), the
    value computed by direct numpy operations."""
    leaves = strategies.one_of(
        strategies.floats(0.0, 10.0).map(lambda v: (repr(v), v)),
        strategies.just(("x", _XS)),
        strategies.just(("pi", math.pi)),
    )

    def extend(children):
        return strategies.one_of(
            children.map(lambda c: (f"(-{c[0]})", _quietly(np.negative, c[1]))),
            strategies.tuples(strategies.sampled_from(sorted(_NUMPY_CALLS)), children).map(
                lambda t: (f"{t[0]}({t[1][0]})", _quietly(_NUMPY_CALLS[t[0]], t[1][1]))
            ),
            strategies.tuples(strategies.sampled_from("+-*/^"), children, children).map(
                lambda t: (
                    f"({t[1][0]}{t[0]}{t[2][0]})",
                    _quietly(_NUMPY_BINARY[t[0]], t[1][1], t[2][1]),
                )
            ),
        )

    return strategies.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=_trees())
def test_random_trees_evaluate_as_numpy(tree):
    src, value = tree
    with np.errstate(all="ignore"):
        got = evaluate(parse(src), _XS)
    expected = np.broadcast_to(value, _XS.shape)
    assert np.array_equal(np.broadcast_to(got, _XS.shape), expected, equal_nan=True), src


@pytest.mark.parametrize(
    "src",
    [
        "", "   ", "2+*3", "2+", "cos(", "cos 2", "tan(x)", "y+1", "1..2", "(1+2", "2 3",
        # what Python's own grammar accepts and this one does not
        "1_000", "0x10", "0b1", "1j", "True", "x**2", "+x", "x #c", "x\\\n+1", "(cos)(x)",
        "cos(x,1)", "cos(x=1)", "x(2)", "x<1", "x if x else 1", "[x]", "x.real",
    ],
)
def test_parse_errors(src):
    with pytest.raises(ExpressionError):
        parse(src)


def test_parse_error_carries_position():
    # offsets into the string as written, though Python reads "^" as "**"
    for src, position in [("1+&2", 2), ("x^2+&", 4), ("x^2^2 y", 6)]:
        with pytest.raises(ExpressionError) as err:
            parse(src)
        assert err.value.position == position, src


def test_rejection_leaks_no_python_warning(recwarn):
    # Python's own parser warns of "1if"; the grammar names the token
    with pytest.raises(ExpressionError, match="unknown identifier 'if'"):
        parse("1if x else 2")
    assert not recwarn.list


def test_unknown_identifier_names_it():
    with pytest.raises(ExpressionError, match="unknown identifier 'y'"):
        parse("2*y")


def test_sample_constant_and_identity():
    g = SpatialGrid(length=4.0, n_cells=4)
    assert np.array_equal(sample(parse("1"), g), np.ones(4))
    assert np.allclose(sample(parse("x"), g), [0.5, 1.5, 2.5, 3.5])


def test_sample_gaussian_peak_on_centered_cell():
    # n odd puts a cell center exactly at x = 2
    g = SpatialGrid(length=4.0, n_cells=5)
    values = sample(parse("10*exp(-12.5*pi^2*(x-2)^2) - exp(-50*pi^2*(x-2)^2) + 1"), g)
    assert values[2] == pytest.approx(10.0, abs=1e-12)


def test_sample_division_by_zero_names_x():
    g = SpatialGrid(length=4.0, n_cells=5)  # center at exactly 2.0
    with pytest.raises(ExpressionError, match="x = 2.0"):
        sample(parse("1/(x-2)"), g)


def test_sample_overflow_is_an_error():
    g = SpatialGrid(length=4.0, n_cells=8)
    with pytest.raises(ExpressionError):
        sample(parse("exp(1000*x)"), g)


def test_huge_literals_are_expression_errors():
    g = SpatialGrid(length=4.0, n_cells=5)
    with pytest.raises(ExpressionError, match="non-finite"):
        sample(parse("9" * 400), g)  # float() of its digits is inf
    with pytest.raises(ExpressionError):
        parse("9" * 5000)  # past the digit limit of Python's integer literals


def _left_sum(x, n):
    total = x
    for _ in range(n - 1):
        total = total + x
    return total


# kind: (source of depth n, its value at x by numpy); n is even
_DEEP = {
    "sum": (lambda n: "+".join(["x"] * n), _left_sum),
    "minus": (lambda n: "-" * n + "x", lambda x, n: x),
    "tower": (lambda n: "x" + "^1" * (n - 1), lambda x, n: x),
    "parens": (lambda n: "(" * n + "x" + ")" * n, lambda x, n: x),
}


@pytest.mark.parametrize(
    "kind,n",
    [(kind, n) for kind in ("sum", "minus", "tower") for n in (300, 1000, 3000)]
    + [("parens", 60), ("parens", 300)],
)
def test_deep_expressions_sample_or_raise_expression_errors(kind, n):
    # past the recursion limit, in the parse or in the evaluation, an
    # expression is nested too deeply, not a RecursionError
    source, value = _DEEP[kind]
    g = SpatialGrid(length=4.0, n_cells=5)
    try:
        got = sample(parse(source(n)), g)
    except ExpressionError as exc:
        assert "nested too deeply" in str(exc)
    else:
        assert np.array_equal(got, value(g.centers, n))


@pytest.mark.parametrize("src", ["1/0", "0^-1", "(-8)^(1/3)"])
def test_constant_singularities_are_sampled_as_errors(src):
    # numpy's inf and nan, not Python's ZeroDivisionError or complex power
    g = SpatialGrid(length=4.0, n_cells=5)
    with pytest.raises(ExpressionError, match="non-finite"):
        sample(parse(src), g)


def test_sample_zero_to_negative_power_is_an_error():
    g = SpatialGrid(length=4.0, n_cells=5)
    with pytest.raises(ExpressionError):
        sample(parse("(x-2)^(-1)"), g)


def _constant_env(grid, **kw):
    n = grid.n_cells
    fields = dict(
        K=np.ones(n), r=np.full(n, 1.1), P=np.ones(n), Q=np.ones(n), a=np.ones(n), b=np.ones(n)
    )
    fields.update(kw)
    return EnvironmentProfile(grid=grid, **fields)


def test_a_profile_off_the_grid_is_named():
    g = SpatialGrid(length=4.0, n_cells=10)
    with pytest.raises(ConfigurationError, match="^profile Q does not match the grid$"):
        _constant_env(g, Q=np.ones(9))


SOURCES = dict(K="2", r="1", P="1", Q="1", a="1", b="1")


def test_a_missing_profile_expression_is_named():
    sources = {k: v for k, v in SOURCES.items() if k != "P"}
    with pytest.raises(ConfigurationError, match="^missing profile expression for 'P'$"):
        environment_from_expressions(SpatialGrid(length=4.0, n_cells=10), **sources)


def test_unknown_profile_names_are_named():
    with pytest.raises(ConfigurationError, match=r"^unknown profile names: \['c', 'd'\]$"):
        environment_from_expressions(SpatialGrid(length=4.0, n_cells=10), **SOURCES,
                                     d="1", c="1")


def test_validate_accepts_positive_environment():
    g = SpatialGrid(length=4.0, n_cells=10)
    env = _constant_env(g)
    assert validate_environment(env) is env


def test_validate_rejects_zero_capacity_with_index():
    g = SpatialGrid(length=4.0, n_cells=10)
    K = np.ones(10)
    K[3] = 0.0
    with pytest.raises(ConfigurationError, match=r"K\[3\]"):
        validate_environment(_constant_env(g, K=K))


def test_validate_rejects_zero_growth_rate():
    g = SpatialGrid(length=4.0, n_cells=10)
    with pytest.raises(ConfigurationError, match="at least one cell"):
        validate_environment(_constant_env(g, r=np.zeros(10)))


def test_validate_rejects_negative_growth_rate():
    g = SpatialGrid(length=4.0, n_cells=10)
    r = np.full(10, 1.1)
    r[0] = -0.1
    with pytest.raises(ConfigurationError, match="nonnegative"):
        validate_environment(_constant_env(g, r=r))


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example4b"])
def test_bundled_profiles_parse_and_validate(name):
    _, grid, env, _ = load_example(name, n_cells=64)
    assert validate_environment(env) is env
    assert grid.length == 4.0


def test_habitats_compare_by_identity_and_records_by_value():
    # an environment, its operators, a state and a sweep are identified by
    # their arrays, so they compare and hash as objects; a grid and a bounds
    # report compare by their scalars and ignore the arrays derived from them
    _, grid1, env1, sim = load_example("example1", n_cells=20)
    _, grid2, env2, _ = load_example("example1", n_cells=20)
    assert env1 != env2 and env1 == env1
    assert {env1: 1}[env1] == 1 and env2 not in {env1: 1}
    assert env1.swapped().swapped() is env1 and env1.swapped() != env1
    assert env1.dispersal != env2.dispersal and {env1.dispersal: 1}[env1.dispersal] == 1
    state = PopulationState(u=env1.K, v=env1.K, t=0.0)
    assert {state: 1}[state] == 1 and state != PopulationState(u=env1.K, v=env1.K, t=0.0)

    assert grid1 is not grid2 and grid1 == grid2 and hash(grid1) == hash(grid2)
    assert grid1 != SpatialGrid(length=grid1.length, n_cells=21)
    report1, report2 = alpha_star(0.4, env1, sim), alpha_star(0.4, env2, sim)
    assert report1.v_beta_star is not report2.v_beta_star
    assert report1 == report2 and hash(report1) == hash(report2)

    rates = np.linspace(0.0, 1.0, 3)
    sweep1, sweep2 = sweep_grid(rates, rates, env1, sim), sweep_grid(rates, rates, env2, sim)
    assert sweep1 != sweep2 and {sweep1: 1}[sweep1] == 1
    assert sweep1.records == sweep2.records
