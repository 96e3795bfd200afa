import json
import os
import subprocess
import sys

import pytest

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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "1/0:1", "--at", "1:1"],
        ["layermap", "x1 + x2", "--region=0:1/0:1,0:1:1", "--layers", "1,1"],
        ["layermap", "x1 + x2", "--region=a:b:c,0:1:1", "--layers", "1,1"],
    ],
    ids=["zero-denominator", "region-zero-denominator", "region-not-numeric"],
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


SEVENS = "7" * 3000


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "x^99999999999", "--at", "1:2"],
        ["eval", "x^99999999999", "--at", "1:1", "--sort", "unit"],
        ["eval", "x^20000", "--at", "0:2"],
        ["eval", "x", "--at", "0:" + "1" * 5000],
        ["eval", f"0:{SEVENS}*x", "--at", f"0:{SEVENS}"],
        ["eval", "x1^1/2", "--at", "0:" + "4" * 400, "--sort", "posq"],
    ],
    ids=["huge-power", "huge-power-unit", "long-power", "long-literal", "long-product", "root-of-long-layer"],
)
def test_big_numbers_end_in_bounded_time_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        (["eval", "x1 + 0:5", "--at=-1:1", "--sort", "unit"], 3),
        (["layermap", "x1 + 0:5", "--region=-2:-1:1", "--layers", "1", "--sort", "unit"], 3),
        (["roots", "x^99999999+1:1"], 3),
        (["eval", "x3000000", "--at", "1:1"], 2),
    ],
    ids=["constant-eval", "constant-layermap", "huge-degree-full-form", "huge-variable-index"],
)
def test_refused_at_once_without_traceback(argv, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "laytrop.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == code
    assert proc.stdout == "" and "Traceback" not in proc.stderr
