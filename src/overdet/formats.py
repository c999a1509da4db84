"""File formats and JSON serialization.

Polynomial-system file (``.poly``)::

    vars x y
    eq x^2 + y^2 - 5
    eq x*y - 2
    eq x + y - 3

PDE file (``.pde``)::

    unknowns 1
    surplus 1
    vars x
    eq S1[1] - S1^2
    eq S1[1] - S1

Jet tokens are ``S<v>[j1,...,jm]``; a bare ``S<v>`` abbreviates the zero
multi-index, and ``PdeSystem`` renames it to the full name.  Blank lines and
``#`` comments are ignored.  Every number in files and JSON is an exact
rational: an integer, or a string ``"p/q"``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import PolynomialParseError
from .jets import IndexCodec, PdeSystem, ProlongedSystem
from .poly import Polynomial, parse_polynomial
from .rank import RankReport
from .reduction import ReductionOutcome, ReductionStep, SideCondition


def scalar_to_json(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def scalar_from_json(value: int | str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise PolynomialParseError(f"numbers must be integers or 'p/q' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialParseError(f"bad rational literal {value!r}: {exc}") from exc


def _content_lines(text: str) -> list[tuple[int, str, int]]:
    """``(number, stripped text, offset of that text in the raw line)``."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        stripped = code.strip()
        if stripped:
            lines.append((number, stripped, len(code) - len(code.lstrip())))
    return lines


def _parse_vars(rest: str, line: int) -> tuple[str, ...]:
    names = tuple(rest.split())
    if not names:
        raise PolynomialParseError("vars line declares no variables", line=line)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise PolynomialParseError(f"vars line repeats {repeated}", line=line)
    return names


def _parse_equation(rest: str, line: int, offset: int) -> Polynomial:
    """Parse the text after ``eq``; a parse error gets the line and the
    column in the raw line, ``offset`` being where ``rest`` starts in it."""
    try:
        return parse_polynomial(rest)
    except PolynomialParseError as exc:
        column = None if exc.column is None else exc.column + offset
        raise PolynomialParseError(str(exc), line=line, column=column) from exc


def parse_poly_file(text: str) -> tuple[tuple[str, ...], list[Polynomial]]:
    """Parse a ``.poly`` system: declared variable order plus equations."""
    variables: tuple[str, ...] | None = None
    equations: list[Polynomial] = []
    for number, line, offset in _content_lines(text):
        keyword, _, rest = line.partition(" ")
        if keyword == "vars":
            if variables is not None:
                raise PolynomialParseError("duplicate vars line", line=number)
            variables = _parse_vars(rest, number)
        elif keyword == "eq":
            if variables is None:
                raise PolynomialParseError("eq before vars line", line=number)
            equations.append(_parse_equation(rest, number, offset + len(line) - len(rest)))
        else:
            raise PolynomialParseError(f"unknown directive {keyword!r}", line=number)
    if variables is None:
        raise PolynomialParseError("missing vars line")
    if not equations:
        raise PolynomialParseError("no equations")
    unknown = {
        var
        for poly in equations
        for var in poly.variables()
        if var not in variables
    }
    if unknown:
        raise PolynomialParseError(f"equations use undeclared variables {sorted(unknown)}")
    return variables, equations


def parse_pde_file(text: str) -> PdeSystem:
    """Parse a ``.pde`` system; ``PdeSystem`` validates the equations and
    renames abbreviated jet tokens."""
    p = n = None
    base_vars: tuple[str, ...] | None = None
    equations: list[Polynomial] = []
    for number, line, offset in _content_lines(text):
        keyword, _, rest = line.partition(" ")
        if keyword == "unknowns":
            p = _parse_positive(rest, "unknowns", number)
        elif keyword == "surplus":
            n = _parse_positive(rest, "surplus", number)
        elif keyword == "vars":
            base_vars = _parse_vars(rest, number)
        elif keyword == "eq":
            if base_vars is None:
                raise PolynomialParseError("eq before vars line", line=number)
            equations.append(_parse_equation(rest, number, offset + len(line) - len(rest)))
        else:
            raise PolynomialParseError(f"unknown directive {keyword!r}", line=number)
    if p is None or n is None or base_vars is None:
        raise PolynomialParseError("pde file needs unknowns, surplus and vars lines")
    return PdeSystem(p=p, n=n, base_vars=base_vars, equations=tuple(equations))


def _parse_positive(text: str, what: str, line: int) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise PolynomialParseError(f"{what} needs an integer, got {text!r}", line=line)
    if value < 0:
        raise PolynomialParseError(f"{what} must be nonnegative", line=line)
    return value


def parse_point_json(text: str) -> dict[str, Fraction]:
    """Parse a point file: JSON object of variable name -> rational."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise PolynomialParseError("point file must be a JSON object")
    return {name: scalar_from_json(value) for name, value in data.items()}


# -- JSON emission -------------------------------------------------------------


def point_to_dict(point: Mapping[str, Fraction], order: Sequence[str] | None = None) -> dict:
    names = list(order) if order is not None else sorted(point)
    return {name: scalar_to_json(point[name]) for name in names if name in point}


def condition_to_dict(condition: SideCondition) -> dict:
    return {"polynomial": str(condition.polynomial)}


def step_to_dict(step: ReductionStep) -> dict:
    return {
        "kind": step.kind,
        "inputs": [str(poly) for poly in step.inputs],
        "outputs": [str(poly) for poly in step.outputs],
        "conditions": [condition_to_dict(c) for c in step.conditions],
    }


def outcome_to_dict(
    outcome: ReductionOutcome, variable_order: Sequence[str] | None = None
) -> dict:
    return {
        "status": outcome.status,
        "solutions": [
            point_to_dict(point, variable_order) for point in outcome.solutions
        ],
        "residual": [str(poly) for poly in outcome.residual_system],
        "conditions": [condition_to_dict(c) for c in outcome.conditions],
        "steps": [step_to_dict(s) for s in outcome.trace],
    }


def counts_to_dict(p: int, n: int, orders: Sequence[int]) -> dict:
    plain = IndexCodec(p, n, tuple(orders))
    wide = IndexCodec(p, n, tuple(orders), extended=True)
    return {
        "N_H": plain.equation_count,
        "N_S": plain.unknown_count,
        "N_H_w": wide.equation_count,
        "N_S_w": wide.unknown_count,
    }


def prolonged_to_dict(prolonged: ProlongedSystem) -> dict:
    codec = prolonged.codec
    return {
        "codec": {
            "p": codec.p,
            "n": codec.n,
            "orders": list(codec.orders),
            "extended": codec.extended,
            "base_vars": list(prolonged.base_vars),
        },
        "counts": counts_to_dict(codec.p, codec.n, codec.orders),
        "equations": [
            {
                "alpha": index,
                "k": codec.decode_equation(index)[0],
                "i": list(codec.decode_equation(index)[1]),
                "polynomial": str(poly),
            }
            for index, poly in prolonged.equation_items()
        ],
    }


def rank_report_to_dict(report: RankReport) -> dict:
    return {
        "rank": report.rank,
        "n_s_real": report.n_s_real,
        "n_h": report.n_h,
        "n_s": report.n_s,
        "certified": report.certified,
        "bound_11_holds": report.bound_11_holds,
    }


def to_json(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"
