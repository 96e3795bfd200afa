"""Contract fuzz of the CLI, in process through ``laytrop.cli.run``.

For any arguments, every subcommand exits 0, 2, 3 or 4, raises nothing
but argparse's own exit, prints nothing on stdout when it refuses, and
ends within a time budget.  The arguments are either shaped by the
grammar (scalars, layers, polynomials, regions and sorts, some of them
malformed) or arbitrary strings.  Exponents stay at most 6 and
``conjecture-search`` stays far inside its bounds, so that every
accepted call is small; inputs that are large on purpose are pinned in
``tests/test_cli.py``.
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from laytrop import cli

COMMANDS = [name for name, *_ in cli.COMMANDS]

# seconds per call; accepted calls take milliseconds
BUDGET_S = 5.0

ints = st.integers(-20, 20).map(str)
values = st.one_of(ints, st.builds("{}/{}".format, ints, st.sampled_from(["1", "2", "3", "7"])))
layers = st.one_of(st.sampled_from(["0", "1", "2", "3", "1/2", "-1", "inf", "5/3"]), values)
scalars = st.builds("{}:{}".format, values, layers)
sorts = st.sampled_from(["nat", "posq", "posq", "q", "unit", "super", "trunc:1", "trunc:3"])
exps = st.integers(0, 6).map(str)
# pieces that break the grammar or a precondition
malformed = st.sampled_from(
    ["", "0", "1/0:1", "x + ", "x^-1", "x1 + x", "x^1/2", ":", "trunc:", "real", "1e3"]
)


def _term(variable):
    power = st.one_of(st.just(variable), st.builds(f"{variable}^{{}}".format, exps))
    return st.one_of(scalars, power, st.builds("{}*{}".format, scalars, power))


def _sum(terms):
    return st.lists(terms, min_size=1, max_size=4).map(" + ".join)


univariate = _sum(_term("x"))
multi_vars = st.sampled_from(["x1", "x2", "x1^1/2", "x2^-1", "x1^2*x2", "x1*x2^3"])
multivariate = _sum(st.one_of(scalars, multi_vars, st.builds("{}*{}".format, scalars, multi_vars)))
polys = st.one_of(univariate, univariate, univariate, multivariate, malformed)
steps = st.sampled_from(["1", "1/2", "1/3", "2", "0", "-1"])
axes = st.builds("{}:{}:{}".format, st.integers(-3, 3), st.integers(-3, 3), steps)
small = st.integers(-1, 3).map(str)
# arbitrary strings, half of them over the grammar's own characters
texts = st.one_of(st.text(max_size=12), st.text("0123456789x:/^*+-, inf", max_size=12))


def _shaped(name):
    """The arguments of one subcommand, shaped by its grammar."""
    if name == "eval":
        points = st.lists(scalars, min_size=1, max_size=3).map(",".join)
        return st.builds(lambda f, at: [f, "--at", at], polys, points)
    if name == "resultant":
        return st.builds(lambda f, g, e: [f, g] + e, polys, polys, st.sampled_from([[], ["--explain"]]))
    if name == "layermap":
        return st.builds(
            lambda f, region, ls: [f, "--region=" + ",".join(region), "--layers", ",".join(ls)],
            polys,
            st.lists(axes, min_size=1, max_size=2),
            st.lists(layers, min_size=1, max_size=2),
        )
    if name == "truncate":
        return st.builds(
            lambda l, q: [l, "--q", q], st.one_of(layers, malformed), st.one_of(small, malformed)
        )
    if name == "conjecture-search":
        return st.builds(
            lambda d, l, n: ["--max-degree", d, "--max-layer", l, "--limit", n],
            st.integers(-1, 2).map(str),
            small,
            st.integers(-1, 30).map(str),
        )
    if name == "separable":  # needs a monic polynomial of degree at least 2 under posq
        return st.builds(lambda d, f: [f"x^{d} + {f}", "--sort", "posq"], st.integers(2, 6), polys)
    return polys.map(lambda f: [f])


@st.composite
def _argv(draw, shaped):
    name = draw(st.sampled_from(COMMANDS))
    if shaped:
        args = draw(_shaped(name))
    else:
        args = draw(st.lists(texts, max_size=4))
    if draw(st.booleans()):
        args += ["--sort", draw(st.one_of(sorts, sorts, malformed) if shaped else texts)]
    if draw(st.booleans()):
        args.append("--json")
    return [name, *args]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exit_:  # argparse refuses the arguments, or prints --help
            code = exit_.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _check_contract(argv):
    code, out, err, seconds = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback (most recent call last)" not in out + err, argv  # longer than any argument
    assert code == 0 or out == "", (argv, out)
    assert seconds < BUDGET_S, (argv, seconds)


@settings(max_examples=400, deadline=None)
@given(_argv(shaped=True))
def test_grammar_shaped_arguments_keep_the_contract(argv):
    _check_contract(argv)


@settings(max_examples=300, deadline=None)
@given(_argv(shaped=False))
def test_arbitrary_arguments_keep_the_contract(argv):
    _check_contract(argv)
