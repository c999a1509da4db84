"""End-to-end command-line behavior and exit codes."""

import json
import subprocess
import sys

import pytest

from overdet import formats
from overdet.cli import main
from overdet.jets import prolong
from overdet.reduction import solve_overdetermined

THREE_CURVES = """\
vars x y
eq x^2 + y^2 - 5
eq x*y - 2
eq x + y - 3
"""

QUADRATIC_PAIR = """\
vars x
eq x^2 - 3*x + 2
eq x^2 - 4*x + 3
"""

CONTRADICTION = """\
vars x
eq x - 1
eq x - 2
"""

RICCATI_PAIR = """\
unknowns 1
surplus 1
vars x
eq S1[1] - S1^2
eq S1[1] - S1
"""

GROWTH_PAIR = """\
unknowns 1
surplus 1
vars x
eq S1[1] - S1
eq S1*S1[1] - S1^2
"""

PLANE_TRIPLE = """\
unknowns 1
surplus 2
vars y x
eq S1[1,0] - S1*x
eq S1[0,1] - S1*y
eq S1*(x - 1)
"""


@pytest.fixture
def curves(tmp_path):
    path = tmp_path / "curves.poly"
    path.write_text(THREE_CURVES)
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_counts_golden(capsys):
    code = main(["--format", "json", "counts", "--p", "1", "--n", "1", "--m", "1", "--orders", "3"])
    assert code == 0
    data = _json_out(capsys)
    assert (data["N_H"], data["N_S"], data["N_H_w"], data["N_S_w"]) == (6, 4, 8, 5)


def test_counts_minimize(capsys):
    code = main(["--format", "json", "counts", "--p", "2", "--n", "1", "--m", "1", "--minimize"])
    assert code == 0
    data = _json_out(capsys)
    assert data["minimize"]["orders"] == [2]
    assert data["minimize"]["N_H"] == 6


def test_counts_warns_when_underdetermined(capsys):
    code = main(["counts", "--p", "1", "--n", "1", "--m", "2", "--orders", "1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "N_H = 2" in out and "N_S = 4" in out
    assert "warning: N_H < N_S" in out


def test_prolong_text_and_parse_error(tmp_path, capsys):
    pde = tmp_path / "sys.pde"
    pde.write_text(RICCATI_PAIR)
    code = main(["prolong", str(pde), "--orders", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "-2*S1[0]*S1[1] + S1[2]" in out

    bad = tmp_path / "bad.pde"
    bad.write_text("unknowns 1\nsurplus 1\nvars x\neq S1[1] -\neq S1\n")
    code = main(["prolong", str(bad), "--orders", "1"])
    assert code == 1
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, options", [
    ("zero.poly", "vars x\neq 3/0*x + 1\neq x - 1\n", []),
    ("zero.pde", "unknowns 1\nsurplus 1\nvars x\neq S1[1] - 1/0*S1\neq S1[1] - S1\n",
     ["--orders", "1"]),
])
def test_solve_reports_a_zero_denominator_without_a_traceback(tmp_path, name, text, options):
    path = tmp_path / name
    path.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "overdet.cli", "--format", "json", "solve", str(path), *options],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and "zero denominator" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name, text, options, message", [
    ("bad.poly", "vars x\neq x + * 2\neq x - 1\n", [],
     "unexpected token '*' (line 2, column 8)"),
    ("bad.pde", "unknowns 1\nsurplus 1\nvars x\neq S1[1] + * S1\neq S1[1] - S1\n",
     ["--orders", "1"], "unexpected token '*' (line 4, column 12)"),
    ("paren.poly", "vars x\neq (x + 1 2\neq x - 1\n", [],
     "expected ')', found '2' (line 2, column 11)"),
    ("sum.poly", "vars x\neq x +\neq x - 1\n", [], "unexpected end of input (line 2, column 7)"),
    ("power.poly", "vars x\neq x^\neq x - 1\n", [], "unexpected end of input (line 2, column 6)"),
    ("stray.poly", "vars x\neq x)\neq x - 1\n", [],
     "unexpected ')' with no matching '(' (line 2, column 5)"),
    ("empty.poly", "vars x\neq\neq x - 1\n", [], "empty polynomial expression (line 2, column 3)"),
], ids=["poly", "pde", "paren", "sum", "power", "stray-paren", "empty"])
def test_parse_errors_show_line_and_column(tmp_path, capsys, name, text, options, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["solve", str(path), *options]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_three_curves_exit_zero(curves, capsys):
    code = main(["--format", "json", "solve", curves])
    assert code == 0
    data = _json_out(capsys)
    assert data["status"] == "solved"
    assert data["solutions"] == [{"x": 1, "y": 2}, {"x": 2, "y": 1}]


def test_solve_inconsistent_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.poly"
    path.write_text(CONTRADICTION)
    assert main(["solve", str(path)]) == 2


@pytest.mark.parametrize("orders", [2, 3, 4])
def test_solve_pde_pipeline(tmp_path, capsys, orders):
    # above order 2 the prolonged system has more than m+1 equations
    pde = tmp_path / "riccati.pde"
    pde.write_text(RICCATI_PAIR)
    code = main(["--format", "json", "solve", str(pde), "--orders", str(orders)])
    assert code == 0
    data = _json_out(capsys)
    assert data["status"] == "solved"
    assert data["solutions"] == [{f"S1[{j}]": 0 for j in range(orders + 1)}]
    report = data["certification"][0]
    assert report["certified"]
    assert report["rank"] == report["n_s_real"] == orders + 1


def test_solve_pde_keeps_the_declared_base_variable_order(tmp_path, capsys):
    # the base variables are unknowns after the jets, in the order of the vars line
    pde = tmp_path / "plane.pde"
    pde.write_text(PLANE_TRIPLE)
    assert main(["--format", "json", "solve", str(pde), "--orders", "2,2"]) == 3
    data = _json_out(capsys)
    prolonged = prolong(formats.parse_pde_file(PLANE_TRIPLE), (2, 2))
    variables = [jet.name for _, jet in sorted(prolonged.unknowns().items())] + ["y", "x"]
    outcome = solve_overdetermined([eq for _, eq in prolonged.equation_items()], variables)
    assert data == {**formats.outcome_to_dict(outcome, variables), "certification": []}


def test_reduce_quadratic_pair(tmp_path, capsys):
    path = tmp_path / "pair.poly"
    path.write_text(QUADRATIC_PAIR)
    code = main(["--format", "json", "reduce", str(path)])
    assert code == 0
    data = _json_out(capsys)
    assert data["solutions"] == [{"x": 1}]


def test_eliminate_reports_reduced_system(curves, capsys):
    code = main(["--format", "json", "eliminate", curves, "--var", "y"])
    assert code == 0
    data = _json_out(capsys)
    assert len(data["reduced"]) == 2
    assert any(c["polynomial"] == "x" for c in data["conditions"])


def test_rank_exit_codes(tmp_path, capsys):
    pde = tmp_path / "growth.pde"
    pde.write_text(GROWTH_PAIR)
    good = tmp_path / "good.json"
    good.write_text('{"S1[0]": 1, "S1[1]": 1}')
    code = main(["--format", "json", "rank", str(pde), "--orders", "1", "--point", str(good)])
    assert code == 4  # solution family is not isolated: rank 1 < 2
    data = _json_out(capsys)
    assert data == {
        "rank": 1,
        "n_s_real": 2,
        "n_h": 2,
        "n_s": 2,
        "certified": False,
        "bound_11_holds": True,
    }

    bad = tmp_path / "bad.json"
    bad.write_text('{"S1[0]": 1, "S1[1]": 2}')
    assert main(["rank", str(pde), "--orders", "1", "--point", str(bad)]) == 5


def test_oracle_commands(curves, tmp_path, capsys):
    pair = tmp_path / "pair.poly"
    pair.write_text(QUADRATIC_PAIR)
    assert main(["--format", "json", "oracle", "gcd", str(pair)]) == 0
    assert _json_out(capsys)["gcd"] == "x - 1"

    line_circle = tmp_path / "two.poly"
    line_circle.write_text("vars x y\neq x^2 + y^2 - 5\neq x + y - 3\n")
    assert main(["--format", "json", "oracle", "resultant", str(line_circle), "--var", "y"]) == 0
    assert _json_out(capsys)["resultant"] == "2*x^2 - 6*x + 4"

    assert main(["--format", "json", "oracle", "roots", curves, "--bound", "5"]) == 0
    assert _json_out(capsys)["roots"] == [{"x": 1, "y": 2}, {"x": 2, "y": 1}]


def test_output_file_and_json_determinism(curves, tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["--format", "json", "--output", str(first), "solve", curves]) == 0
    assert main(["--format", "json", "--output", str(second), "solve", curves]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "overdet.cli", "counts", "--p", "1", "--n", "1", "--m", "1", "--orders", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "N_H = 2" in result.stdout
