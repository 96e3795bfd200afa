import json
import os
import shlex
import subprocess
import sys
from itertools import product

import pytest

import laytrop as lt
from laytrop import cli, resultants
from laytrop.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resultant_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "resultant", "x^2+5:1*x+7:1", "x^2+4:1*x+6:1", "--sort", "nat"
    )
    assert code == 0
    assert out == "16:2\n"


def test_resultant_explain(capsys):
    code, out, _ = run_cli(
        capsys,
        "resultant",
        "x^2+1:1*x+2:1",
        "x+1:1",
        "--explain",
        "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["scalar"] == "2:3"
    assert record["sylvester"] == [
        ["2:1", "1:1", "0:1"],
        ["1:1", "0:1", None],
        [None, "1:1", "0:1"],
    ]
    assert record["layer_sylvester"] == [["1", "1", "1"], ["1", "1", "0"], ["0", "1", "1"]]
    assert record["layer_permanent"] == "3"


def test_resultant_explain_text(capsys):
    code, out, _ = run_cli(capsys, "resultant", "x^2+1:1*x+2:1", "x+1:2", "--explain")
    assert code == 0
    assert out == (
        "sylvester:\n"
        "  2:1 1:1 0:1\n"
        "  1:2 0:1 _\n"
        "  _ 1:2 0:1\n"
        "layer sylvester:\n"
        "  1 1 1\n"
        "  2 1 0\n"
        "  0 2 1\n"
        "layer permanent: 7\n"
        "2:7\n"
    )
    # roots 1 and 3 differ, so there is no layer Sylvester matrix
    code, out, _ = run_cli(capsys, "resultant", "x^2+1:1*x+2:1", "x+3:1", "--explain")
    assert (code, out) == (0, "sylvester:\n  2:1 1:1 0:1\n  3:1 0:1 _\n  _ 3:1 0:1\n6:1\n")
    # a constant input has no Sylvester matrix at all
    code, out, _ = run_cli(capsys, "resultant", "3:2", "x+1:1", "--explain")
    assert (code, out) == (0, "3:2\n")
    code, out, _ = run_cli(capsys, "resultant", "3:2", "x+1:1", "--explain", "--json")
    assert json.loads(out) == {
        "layer": "2", "layer_permanent": None, "layer_sylvester": None, "scalar": "3:2",
        "sort": "nat", "sylvester": None, "value": "3",
    }


def test_resultant_explain_builds_each_matrix_once(capsys, monkeypatch):
    """One full form per input and one staircase serve the resultant, the
    printed Sylvester matrix and the layer Sylvester matrix."""
    built = []
    for name in ("full_form", "_staircase"):
        fn = getattr(resultants, name)
        monkeypatch.setattr(resultants, name, lambda *a, fn=fn, name=name: built.append(name) or fn(*a))
    code, out, _ = run_cli(capsys, "resultant", "x^2+1:1*x+2:1", "x+1:1", "--explain")
    assert code == 0 and out.endswith("layer permanent: 3\n2:3\n")
    assert sorted(built) == ["_staircase", "full_form", "full_form"]


def test_factor_text_variable_power_and_promotion(capsys):
    code, out, _ = run_cli(capsys, "factor", "2:2*x^2 + 3:1*x")
    assert code == 0
    assert out == (
        "unit 2:2\n"
        "variable power 1\n"
        "factor root=1 degree=1 poly=x + 1:1/2\n"
        "promoted to posq layers\n"
    )
    code, out, _ = run_cli(capsys, "factor", "2:2*x^2 + 3:1*x", "--json")
    assert out == (
        '{"factors": [{"degree": 1, "poly": [[0, "1", "1/2"], [1, "0", "1"]], "root": "1"}], '
        '"lambda_power": 1, "promoted_sort": true, "sort": "nat", "unit": "2:2"}\n'
    )


def test_roots_none(capsys):
    assert run_cli(capsys, "roots", "x^2")[:2] == (0, "no corner roots\n")
    assert run_cli(capsys, "roots", "3:1", "--json")[:2] == (0, '{"roots": [], "sort": "nat"}\n')


@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["eval", "x^2+2:1*x+4:1", "--at", "2:1"],
            '{"layer": "3", "scalar": "4:3", "sort": "nat", "value": "4"}',
        ),
        (["truncate", "5", "--q", "2"], '{"layer": "2", "sort": "nat"}'),
        (
            ["derivative", "x^2+3:1*x+5:1"],
            '{"coeffs": [[0, "3", "1"], [1, "0", "2"]], "poly": "0:2*x + 3:1", "sort": "nat"}',
        ),
        (
            ["integrate", "3:2*x", "--sort", "posq"],
            '{"coeffs": [[2, "3", "1"]], "poly": "3:1*x^2", "sort": "posq"}',
        ),
        (
            ["discriminant", "x^2+2:1*x+3:1", "--sort", "posq"],
            '{"layer": "3", "scalar": "4:3", "sort": "posq", "value": "4"}',
        ),
        (
            ["layermap", "x1 + x2 + 0:1", "--region=0:1:1,0:1:1", "--layers", "1,1"],
            '{"csv": ["x1,x2,value,layer,csupp,component", "0,0,0,3,3,", "0,1,1,1,1,0;1", '
            '"1,0,1,1,1,1;0", "1,1,1,2,2,"], "sort": "nat"}',
        ),
    ],
    ids=["eval", "truncate", "derivative", "integrate", "discriminant", "layermap"],
)
def test_json_records(capsys, argv, out):
    assert run_cli(capsys, *argv, "--json")[:2] == (0, out + "\n")


def test_factor_json(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "x^2+2:1*x+3:1", "--sort", "posq", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["unit"] == "0:1"
    assert record["promoted_sort"] is False
    assert [f["root"] for f in record["factors"]] == ["2", "1"]
    assert [f["degree"] for f in record["factors"]] == [1, 1]
    assert record["factors"][0]["poly"] == [[0, "2", "1"], [1, "0", "1"]]


def test_truncate(capsys):
    code, out, _ = run_cli(capsys, "truncate", "5", "--q", "2")
    assert code == 0
    assert out == "2\n"
    assert run_cli(capsys, "truncate", "inf", "--q", "3")[:2] == (0, "3\n")


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "x^2+2:1*x+4:1", "--at", "2:1")
    assert code == 0
    assert out == "4:3\n"
    code, out, _ = run_cli(capsys, "eval", "x1 + x2 + 0:1", "--at", "0:1,0:1")
    assert out == "0:3\n"


def test_roots(capsys):
    code, out, _ = run_cli(capsys, "roots", "x^3 + 6:1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "roots": [{"root": "2", "multiplicity": 3}],
        "sort": "nat",
    }


def test_derivative_and_integrate(capsys):
    code, out, _ = run_cli(capsys, "derivative", "x^2+3:1*x+5:1")
    assert code == 0
    assert out == "0:2*x + 3:1\n"
    code, out, _ = run_cli(capsys, "integrate", "3:2*x", "--sort", "posq")
    assert code == 0
    assert out == "3:1*x^2\n"


def test_derivative_and_integrate_round_trip_under_trunc(capsys):
    # 3 * 4 collapses to 4 under trunc:4, so layer 4 has a 3-fold quotient
    code, out, _ = run_cli(capsys, "derivative", "0:4*x^3", "--sort", "trunc:4")
    assert (code, out) == (0, "0:4*x^2\n")
    code, out, _ = run_cli(capsys, "integrate", "0:4*x^2", "--sort", "trunc:4")
    assert (code, out) == (0, "0:4*x^3\n")


def test_discriminant_and_separable(capsys):
    code, out, _ = run_cli(capsys, "discriminant", "x^2+2:1*x+3:1", "--sort", "posq")
    assert code == 0
    assert out == "4:3\n"
    code, out, _ = run_cli(capsys, "separable", "x^2+2:1*x+3:1", "--sort", "posq", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "separable": True,
        "discriminant_layer": "3",
        "expected_layer": "3",
        "sort": "posq",
    }


def test_layermap_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "layermap",
        "x1 + x2 + 0:1",
        "--region=0:1:1,0:1:1",
        "--layers",
        "1,1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,x2,value,layer,csupp,component"
    assert lines[1] == "0,0,0,3,3,"
    assert lines[4] == "1,1,1,2,2,"


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "resultant", "x^2 ++ 3", "x")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "integrate", "3:1*x^2", "--sort", "nat")
    assert code == 3 and "posq" in err
    code, _, err = run_cli(capsys, "separable", "x^2+2:1*x+3:1", "--sort", "nat")
    assert code == 4 and "precondition" in err
    # run adds the posq hint to a layer that does not divide, and to no other domain error
    code, out, err = run_cli(capsys, "factor", "x + 1:1", "--sort", "trunc:3")
    assert (code, out) == (3, "") and err.endswith("; try --sort posq\n")
    code, out, err = run_cli(capsys, "eval", "x", "--at", "0:1/2", "--sort", "nat")
    assert (code, out, err) == (3, "", "domain error: layer 1/2 is not valid under sort nat\n")
    # refusals of the parser, of --region, of a conjecture-search bound and of a
    # precondition, in this process
    for argv, expected_code, message in [
        (["eval", "1/:1", "--at", "0:1"], 2, "parse error: expected a denominator (at position 2)"),
        (["eval", "x0", "--at", "0:1"], 2, "parse error: variable indices start at 1 (at position 2)"),
        (["eval", "x x", "--at", "0:1"], 2, "parse error: expected '+' between terms (at position 2)"),
        (["layermap", "x1", "--region=0:1", "--layers", "1"], 2, "parse error: region axis '0:1' is not lo:hi:step"),
        (
            ["layermap", "x1", "--region=0:a:1", "--layers", "1"], 2,
            "parse error: region axis '0:a:1' is not lo:hi:step: expected a rational number (at position 0)",
        ),
        (
            ["conjecture-search", "--max-degree", "5", "--limit", "1"], 3,
            "domain error: conjecture-search --max-degree 5 exceeds the limit of 4",
        ),
        (
            ["layermap", "x1", "--region=0:1:0", "--layers", "1"], 4,
            "precondition violated: grid steps must be positive",
        ),
        (
            ["eval", "x^2 + 1:1", "--at", "1:1,2:1"], 4,
            "precondition violated: univariate evaluation takes one coordinate",
        ),
        (
            ["separable", "2:1*x^2 + 1:1*x + 0:1", "--sort", "posq"], 4,
            "precondition violated: separability test needs a monic polynomial",
        ),
    ]:
        assert run_cli(capsys, *argv) == (expected_code, "", message + "\n")


def test_determinism(capsys):
    first = run_cli(capsys, "factor", "x^3+1:2*x^2+4:1", "--sort", "posq", "--json")
    second = run_cli(capsys, "factor", "x^3+1:2*x^2+4:1", "--sort", "posq", "--json")
    assert first == second


def test_conjecture_search(capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture-search",
        "--max-degree",
        "2",
        "--max-layer",
        "2",
        "--limit",
        "80",
        "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["checked"] == 80
    assert record["violations"] == []


def test_conjecture_search_computes_each_resultant_once(capsys, monkeypatch):
    """Every triple compares res(f, g*h) with res(f, g)*res(f, h); the memo
    computes each res(f, p) once per f.  40 triples cross from the first
    f to the second (6 primaries of degree <= 2 with layers 1..2)."""
    sort = lt.NAT
    compared = []
    surpasses = cli.surpasses_L
    monkeypatch.setattr(cli, "surpasses_L", lambda a, b, s: compared.append((a, b)) or surpasses(a, b, s))
    calls = []
    resultant = resultants.resultant
    monkeypatch.setattr(resultants, "resultant", lambda f, g, s: calls.append((f, g)) or resultant(f, g, s))
    code, out, _ = run_cli(
        capsys, "conjecture-search", "--max-degree", "2", "--max-layer", "2", "--limit", "40"
    )
    assert code == 0 and out == "no violations in 40 primary triples\n"
    prims = [cli._primary_from_layers(1, ls) for d in (1, 2) for ls in product((1, 2), repeat=d)]
    triples = list(product(prims, repeat=3))[:40]
    assert compared == [
        (resultant(f, lt.p_mul(g, h, sort), sort), lt.ls_mul(resultant(f, g, sort), resultant(f, h, sort), sort))
        for f, g, h in triples
    ]
    assert len(calls) == 40 + len({(f, p) for f, g, h in triples for p in (g, h)})


def test_conjecture_search_accepts_its_bounds(capsys):
    """Each bound is accepted (the README example and the benchmark's
    calls lie inside them); one past it is refused before any triple is
    built (see test_refused_at_once_without_traceback)."""
    for argv, checked in [
        (["--max-degree", str(cli.MAX_SEARCH_DEGREE), "--max-layer", "1", "--limit", "5"], 5),
        (["--max-degree", "1", "--max-layer", str(cli.MAX_SEARCH_LAYER), "--limit", "5"], 5),
        (["--max-degree", "1", "--max-layer", "1", "--limit", str(cli.MAX_SEARCH_LIMIT)], 1),
        (["--max-degree", "2", "--max-layer", "3", "--limit", "500"], 500),
    ]:
        code, out, _ = run_cli(capsys, "conjecture-search", *argv, "--json")
        assert code == 0 and json.loads(out)["checked"] == checked


def test_permanent_state_bound_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(resultants, "MAX_PERMANENT_STATES", 5)
    code, out, err = run_cli(capsys, "resultant", "x^2+1:1*x+2:1", "x^2+1:2*x+2:3")
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "states" in err


def test_conjecture_search_reports_and_reproduces_violations(capsys, monkeypatch):
    """With surpassing forced to fail every triple is a violation; each
    printed reproduce command prints the recorded lhs."""
    monkeypatch.setattr(cli, "surpasses_L", lambda a, b, s: False)
    argv = ["conjecture-search", "--limit", "3", "--sort", "posq"]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["checked"] == 3 and record["sort"] == "posq"
    violations = record["violations"]
    assert len(violations) == 3
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines() == [
        line
        for v in violations
        for line in (
            f"violation: f={v['f']} g={v['g']} h={v['h']} lhs={v['lhs']} rhs={v['rhs']}",
            f"  reproduce: {v['reproduce']}",
        )
    ]
    for v in violations:
        assert set(v) == {"f", "g", "h", "lhs", "rhs", "reproduce"}
        command = shlex.split(v["reproduce"])
        assert command[:2] == ["laytrop", "resultant"] and command[-2:] == ["--sort", "posq"]
        assert command[2] == v["f"]
        assert run_cli(capsys, *command[1:]) == (0, v["lhs"] + "\n", "")


def test_resultant_without_transversal_is_bottom(capsys):
    assert run_cli(capsys, "resultant", "x^2", "x^3") == (0, "bottom\n", "")
    code, out, _ = run_cli(capsys, "resultant", "x^2", "x^3", "--json")
    assert code == 0 and json.loads(out) == {"scalar": None, "sort": "nat"}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# what every CLI process loads of the package: the front end, parsing and univariate arithmetic
CLI_BASE = ["cli", "errors", "parsing", "polys", "scalars", "sorts"]


def _loaded_after(code):
    """The laytrop submodules, and which of json, dataclasses and inspect,
    that a fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport sys\nprint(' '.join(sorted(m.removeprefix('laytrop.') for m in sys.modules"
        " if m.startswith('laytrop.') or m in ('json', 'dataclasses', 'inspect'))))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Records are NamedTuples, so starting the CLI does not pay for dataclasses;
    nor does it import a kernel that only some subcommands call."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys, laytrop.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    assert _loaded_after("import laytrop.cli") == CLI_BASE


_CALCULUS = ["calculus", "resultants"]


@pytest.mark.parametrize(
    "argv, kernels",
    [
        (["truncate", "5", "--q", "2"], []),
        (["eval", "x + 1:1", "--at", "2:1"], []),
        (["eval", "x + 1:1", "--at", "2:1", "--json"], ["json"]),
        (["eval", "x1 + x2", "--at", "1:1,2:1"], ["multivar"]),
        (["layermap", "x1 + x2", "--region=0:1:1,0:1:1", "--layers", "1,1"], ["multivar"]),
        (["roots", "x^2 + 1:1*x"], []),
        (["factor", "x^2 + 1:1*x + 2:1", "--sort", "posq"], ["factor"]),
        (["resultant", "x + 1:1", "x + 2:1", "--explain"], ["resultants"]),
        (["conjecture-search", "--limit", "3"], ["resultants"]),
        (["derivative", "x^2 + 1:1"], _CALCULUS),
        (["integrate", "x + 1:1", "--sort", "posq"], _CALCULUS),
        (["discriminant", "x^2 + 3:1*x + 2:1", "--sort", "posq"], _CALCULUS),
        (["separable", "x^2 + 3:1*x + 2:1", "--sort", "posq"], _CALCULUS),
    ],
)
def test_each_subcommand_loads_only_its_kernels(argv, kernels):
    """A subcommand imports the kernels it calls and no other, and only --json loads json."""
    loaded = _loaded_after(f"from laytrop import cli\nassert cli.run({argv!r}) == 0")
    assert loaded == sorted(CLI_BASE + kernels)


@pytest.mark.parametrize(
    "poly, expected",
    [("x^2", "false"), ("x^3", "false"), ("x^3+0:1*x^2", "false"), ("x^2+0:1*x", "true")],
)
def test_separable_of_a_power_of_the_variable(poly, expected):
    """x^2 dividing f makes the discriminant BOTTOM: a repeated root at -inf."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "laytrop.cli", "separable", poly, "--sort", "posq"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")
    proc = subprocess.run([*argv, "--json"], env=env, capture_output=True, text=True, timeout=60)
    record = json.loads(proc.stdout)
    assert record["separable"] is (expected == "true")
    assert (record["discriminant_layer"] is None) is (expected == "false")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1/0:1", "--at", "1:1"],
        ["layermap", "x1 + x2", "--region=0:1/0:1,0:1:1", "--layers", "1,1"],
        ["layermap", "x1 + x2", "--region=a:b:c,0:1:1", "--layers", "1,1"],
        ["layermap", "x1", "--region=0:1.5:0.5", "--layers", "1"],
        ["layermap", "x1", "--region=0:1_0:1", "--layers", "1"],
        ["layermap", "x1", "--region=0:1e999999:1", "--layers", "1"],
        ["layermap", "x1", "--region=0:1e99999999:1", "--layers", "1"],
    ],
    ids=[
        "zero-denominator",
        "region-zero-denominator",
        "region-not-numeric",
        "region-decimal",
        "region-underscore",
        "region-exponent",
        "region-huge-exponent",
    ],
)
def test_malformed_numbers_are_parse_errors(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert "parse error" in proc.stderr and "Traceback" not in proc.stderr


def test_layermap_refuses_huge_grid(capsys):
    code, out, err = run_cli(
        capsys, "layermap", "x1 + x2 + 0:1", "--region=0:999999:1,0:999999:1", "--layers", "1,1"
    )
    assert code == 3 and out == ""
    assert "exceeds the limit" in err


def test_factor_with_layer_zero_coefficient_under_unit():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", "factor", "-3/2:1*x + 0:0", "--sort", "unit"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout == "unit -3/2:1\nfactor root=3/2 degree=1 poly=x + 3/2:0\n"


SEVENS = "7" * 3000
NINES = "9" * 4000  # the longest literal; the grid size then has 8000 digits


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "x^99999999999", "--at", "1:2"], None),
        (["eval", "x^99999999999", "--at", "1:1", "--sort", "unit"], None),
        (["eval", "x^20000", "--at", "0:2"], None),
        (["eval", "x", "--at", "0:" + "1" * 5000], None),
        (["eval", f"0:{SEVENS}*x", "--at", f"0:{SEVENS}"], None),
        (["eval", "x1^1/2", "--at", "0:" + "4" * 400, "--sort", "posq"], None),
        (["eval", "x^20000", "--at", "0:" + "9" * 3999, "--sort", "trunc:" + NINES], (0, f"0:{NINES}\n")),
    ],
    ids=[
        "huge-power",
        "huge-power-unit",
        "long-power",
        "long-literal",
        "long-product",
        "root-of-long-layer",
        "long-power-long-trunc",
    ],
)
def test_big_numbers_end_in_bounded_time_without_traceback(argv, expected):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr
    if expected is not None:
        assert (proc.returncode, proc.stdout) == expected


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "x1 + 0:5", "--at=-1:1", "--sort", "unit"], 3),
        (["layermap", "x1 + 0:5", "--region=-2:-1:1", "--layers", "1", "--sort", "unit"], 3),
        (["roots", "x^99999999+1:1"], 3),
        (["eval", "x3000000", "--at", "1:1"], 2),
        (["eval", "x1^-1", "--at", "0:1/2", "--sort", "nat"], 3),
        (["eval", "x1^1/2", "--at", "0:9", "--sort", "trunc:4"], 3),
        (["layermap", "x1", f"--region=0:{NINES}:1/{NINES}", "--layers", "1"], 3),
        (["discriminant", "x^20000"], 3),
        (["resultant", "x^20000", "x^2+1:1"], 3),
        (["eval", "x^2", "--at", "0:3", "--sort", "trunc:1_0"], 3),
        (["eval", "x^2", "--at", "0:3", "--sort", "trunc: 4"], 3),
        (["eval", "x^2", "--at", "0:3", "--sort", "trunc:+4"], 3),
        (["eval", "x^2", "--at", "0:3", "--sort", "trunc:\u0664"], 3),
        (["truncate", "5", "--q", "0"], 3),
        (["truncate", "5", "--q", "-1"], 3),
        (["conjecture-search", "--max-degree", "6", "--max-layer", "4", "--limit", "100000000"], 3),
        (["conjecture-search", "--max-degree", str(cli.MAX_SEARCH_DEGREE + 1), "--limit", "1"], 3),
        (["conjecture-search", "--max-layer", str(cli.MAX_SEARCH_LAYER + 1), "--limit", "1"], 3),
        (["conjecture-search", "--limit", str(cli.MAX_SEARCH_LIMIT + 1)], 3),
        (["factor", "\u00b9"], 2),
        (["eval", "x\u00b9", "--at", "0:1"], 2),
        (["eval", "\u0664:1", "--at", "0:1"], 2),
        (["eval", "x", "--at", "0:\u0663"], 2),
    ],
    ids=[
        "constant-eval",
        "constant-layermap",
        "huge-degree-full-form",
        "huge-variable-index",
        "inverse-of-invalid-layer",
        "root-of-invalid-layer",
        "grid-size-too-long-to-print",
        "sylvester-too-large-discriminant",
        "sylvester-too-large-resultant",
        "sort-digit-separator",
        "sort-space",
        "sort-sign",
        "sort-non-ascii-digit",
        "truncate-zero-bound",
        "truncate-negative-bound",
        "conjecture-search-days-of-work",
        "conjecture-search-degree",
        "conjecture-search-layer",
        "conjecture-search-limit",
        "superscript-digit-value",
        "superscript-digit-variable-index",
        "non-ascii-digit-value",
        "non-ascii-digit-layer",
    ],
)
def test_refused_at_once_without_traceback(argv, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
