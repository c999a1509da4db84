"""File parsing and JSON serialization round-trips."""

from fractions import Fraction

import pytest

from overdet.errors import PolynomialParseError
from overdet.formats import (
    counts_to_dict,
    outcome_to_dict,
    parse_pde_file,
    parse_point_json,
    parse_poly_file,
    prolonged_to_dict,
    rank_report_to_dict,
    scalar_from_json,
    scalar_to_json,
    to_json,
)
from overdet.jets import prolong
from overdet.poly import parse_polynomial
from overdet.rank import certify
from overdet.reduction import solve_overdetermined

from helpers import prolonged_from_dict

P = parse_polynomial

THREE_CURVES = """\
# intersection of a circle, a hyperbola and a line
vars x y
eq x^2 + y^2 - 5
eq x*y - 2
eq x + y - 3
"""

RICCATI_PAIR = """\
unknowns 1
surplus 1
vars x
eq S1[1] - S1^2
eq S1[1] - S1
"""


def test_scalar_json_roundtrip():
    assert scalar_to_json(Fraction(3)) == 3
    assert scalar_to_json(Fraction(-3, 4)) == "-3/4"
    assert scalar_from_json(3) == Fraction(3)
    assert scalar_from_json("-3/4") == Fraction(-3, 4)
    with pytest.raises(PolynomialParseError):
        scalar_from_json("3.5x")
    with pytest.raises(PolynomialParseError):
        scalar_from_json(1.5)


def test_parse_poly_file():
    variables, equations = parse_poly_file(THREE_CURVES)
    assert variables == ("x", "y")
    assert equations == [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]


def test_parse_poly_file_errors_carry_line_numbers():
    with pytest.raises(PolynomialParseError) as err:
        parse_poly_file("vars x\neq 2x\n")
    assert err.value.line == 2
    with pytest.raises(PolynomialParseError):
        parse_poly_file("eq x\n")
    with pytest.raises(PolynomialParseError):
        parse_poly_file("vars x\neq y\n")


def test_parse_poly_file_rejects_a_repeated_variable():
    with pytest.raises(PolynomialParseError, match="repeats") as err:
        parse_poly_file("vars x x\neq x - 1\neq x^2 - 1\neq x^3 - 1\n")
    assert err.value.line == 1


def test_parse_errors_in_equations_carry_the_column_in_the_raw_line():
    with pytest.raises(PolynomialParseError) as err:
        parse_poly_file("vars x\neq x + * 2\n")
    assert (err.value.line, err.value.column) == (2, 8)
    # leading blanks and the blanks after eq count too
    with pytest.raises(PolynomialParseError) as err:
        parse_poly_file("  vars x\n\t eq   x + * 2  # note\n")
    assert (err.value.line, err.value.column) == (2, 12)
    with pytest.raises(PolynomialParseError) as err:
        parse_pde_file("unknowns 1\nsurplus 1\nvars x\neq S1[1] + * S1\neq S1\n")
    assert (err.value.line, err.value.column) == (4, 12)
    # a missing ')' points at the token found, the end of input one past the text
    for equation, column in (("(x + 1 2", 11), ("x +", 7), ("x^", 6)):
        with pytest.raises(PolynomialParseError) as err:
            parse_poly_file(f"vars x\neq {equation}\n")
        assert (err.value.line, err.value.column) == (2, column)
    with pytest.raises(PolynomialParseError, match="expected '\\)'") as err:
        parse_polynomial("(x")
    assert err.value.column == 3
    # an empty equation points one past its eq, whatever blanks or comment follow
    for line, column in (("eq", 3), ("eq   ", 3), ("  eq  # none", 5)):
        with pytest.raises(PolynomialParseError, match="empty polynomial expression") as err:
            parse_poly_file(f"vars x\n{line}\n")
        assert (err.value.line, err.value.column) == (2, column)
    with pytest.raises(PolynomialParseError) as err:
        parse_pde_file("unknowns 1\nsurplus 1\nvars x\neq S1[1] - S1\neq\n")
    assert (err.value.line, err.value.column) == (5, 3)


def test_parse_pde_file_normalizes_jets():
    system = parse_pde_file(RICCATI_PAIR)
    assert system.p == 1 and system.n == 1 and system.base_vars == ("x",)
    assert system.equations[0] == P("S1[1] - S1[0]^2")
    assert system.equations[1] == P("S1[1] - S1[0]")


def test_parse_pde_file_rejects_malformed():
    with pytest.raises(PolynomialParseError) as err:
        parse_pde_file("unknowns 1\nsurplus 1\nvars x\neq S1[1] -\neq S1\n")
    assert err.value.line == 4
    with pytest.raises(PolynomialParseError):
        parse_pde_file("unknowns 1\nvars x\neq S1[1]\neq S1\n")


def test_parse_pde_file_rejects_a_repeated_variable():
    # it used to fail later with a misleading multi-index length error
    with pytest.raises(PolynomialParseError, match="repeats") as err:
        parse_pde_file("unknowns 1\nsurplus 1\nvars x x\neq S1[1,0] - S1\neq S1[0,1] - S1\n")
    assert err.value.line == 3


def test_parse_point_json():
    point = parse_point_json('{"S1[0]": "1/2", "x": 3}')
    assert point == {"S1[0]": Fraction(1, 2), "x": Fraction(3)}


def test_counts_dict():
    assert counts_to_dict(1, 1, (3,)) == {"N_H": 6, "N_S": 4, "N_H_w": 8, "N_S_w": 5}


def test_outcome_dict_shape():
    variables, equations = parse_poly_file(THREE_CURVES)
    outcome = solve_overdetermined(equations, variables)
    data = outcome_to_dict(outcome, variables)
    assert data["status"] == "solved"
    assert data["solutions"] == [{"x": 1, "y": 2}, {"x": 2, "y": 1}]
    assert isinstance(data["steps"], list) and data["steps"]
    assert all(set(step) == {"kind", "inputs", "outputs", "conditions"} for step in data["steps"])


def test_prolonged_dump_roundtrip_is_byte_identical():
    system = parse_pde_file(RICCATI_PAIR)
    prolonged = prolong(system, (2,))
    dumped = to_json(prolonged_to_dict(prolonged))
    reloaded = prolonged_from_dict(prolonged_to_dict(prolonged))
    redumped = to_json(prolonged_to_dict(reloaded))
    assert dumped == redumped


def test_rank_report_dict_fields():
    system = parse_pde_file(RICCATI_PAIR)
    prolonged = prolong(system, (1,))
    report = certify(prolonged, {"S1[0]": Fraction(0), "S1[1]": Fraction(0)})
    data = rank_report_to_dict(report)
    assert set(data) == {"rank", "n_s_real", "n_h", "n_s", "certified", "bound_11_holds"}
