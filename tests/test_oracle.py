"""Oracle algorithms: Euclidean GCD, Sylvester resultants, root search."""

import random
from fractions import Fraction

import pytest

from overdet.errors import UndefinedResultantError
from overdet.oracle import (
    determinant,
    gcd_univariate,
    rational_root_search,
    sylvester_resultant,
)
from overdet.poly import Polynomial, parse_polynomial

P = parse_polynomial


def test_gcd_shared_linear_factor():
    assert gcd_univariate(P("x^2 - 3*x + 2"), P("x^2 - 4*x + 3"), "x") == P("x - 1")


def test_gcd_with_zero_is_monic_input():
    assert gcd_univariate(P("3*x^2 - 3"), Polynomial.zero(), "x") == P("x^2 - 1")


def test_gcd_coprime_is_one():
    assert gcd_univariate(P("x^2 - 1"), P("x^2 - 4"), "x") == Polynomial.constant(1)


def test_gcd_divides_both_inputs():
    rng = random.Random(7)
    for _ in range(50):
        shared = P("x - 2") if rng.random() < 0.5 else Polynomial.constant(1)
        f = shared * _random_poly(rng)
        g = shared * _random_poly(rng)
        if f.is_zero() and g.is_zero():
            continue
        d = gcd_univariate(f, g, "x")
        for h in (f, g):
            # exact division: remainder of h by d must vanish
            rem = h
            while not rem.is_zero() and rem.degree_in("x") >= d.degree_in("x"):
                shift = int(rem.degree_in("x")) - int(d.degree_in("x"))
                lead = rem.leading_coefficient_in("x").constant_value()
                dlead = d.leading_coefficient_in("x").constant_value()
                rem = rem - d * Polynomial.variable("x") ** shift * (lead / dlead)
            assert rem.is_zero()


def _random_poly(rng: random.Random) -> Polynomial:
    degree = rng.randint(1, 3)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(degree)] + [
        Fraction(rng.randint(1, 4))
    ]
    x = Polynomial.variable("x")
    total = Polynomial.zero(("x",))
    for power, c in enumerate(coeffs):
        total = total + x ** power * c
    return total


def test_resultant_circle_line():
    res = sylvester_resultant(P("x^2 + y^2 - 5"), P("x + y - 3"), "y")
    assert res == P("2*x^2 - 6*x + 4")


def test_resultant_hyperbola_line():
    res = sylvester_resultant(P("x*y - 2"), P("x + y - 3"), "y")
    # vanishes exactly at the projections x = 1 and x = 2 of the common points
    assert res == P("x^2 - 3*x + 2") or res == P("-x^2 + 3*x - 2")
    assert res.evaluate({"x": 1}) == 0
    assert res.evaluate({"x": 2}) == 0
    assert res.evaluate({"x": 5}) != 0


def test_resultant_distinct_constant_shifts_is_nonzero_constant():
    res = sylvester_resultant(P("y - 1"), P("y - 2"), "y")
    assert res.is_constant()
    assert res.constant_value() != 0
    assert abs(res.constant_value()) == 1


def test_resultant_of_two_constants_undefined():
    with pytest.raises(UndefinedResultantError):
        sylvester_resultant(P("3"), P("5"), "y")
    with pytest.raises(UndefinedResultantError):
        sylvester_resultant(Polynomial.zero(), P("y - 1"), "y")


def test_determinant_golden():
    one = Polynomial.constant(1)
    two = Polynomial.constant(2)
    x = Polynomial.variable("x")
    assert determinant([[one, two], [two, one]]) == Polynomial.constant(-3)
    assert determinant([[x, one], [one, x]]) == P("x^2 - 1")
    # singular matrix
    assert determinant([[one, one], [one, one]]) == Polynomial.zero()
    assert determinant([]) == Polynomial.constant(1)
    zero = Polynomial.zero()
    assert determinant([[x, one, two], [zero, zero, zero], [one, x, one]]).is_zero()
    with pytest.raises(ValueError):
        determinant([[one, two], [two]])
    with pytest.raises(ValueError):
        determinant([[one, two, x], [two, one, x]])


def test_determinant_matches_cofactor_on_random_matrices():
    rng = random.Random(11)

    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = Polynomial.zero()
        for col in range(len(m)):
            minor = [row[:col] + row[col + 1 :] for row in m[1:]]
            term = m[0][col] * cofactor(minor)
            total = total + term * (-1 if col % 2 else 1)
        return total

    for _ in range(20):
        size = rng.randint(1, 4)
        matrix = [
            [Polynomial.constant(rng.randint(-3, 3)) for _ in range(size)]
            for _ in range(size)
        ]
        assert determinant(matrix) == cofactor(matrix)


def test_rational_root_search_three_curves():
    system = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
    roots = rational_root_search(system, 5)
    assert roots == [
        {"x": Fraction(1), "y": Fraction(2)},
        {"x": Fraction(2), "y": Fraction(1)},
    ]


def test_rational_root_search_no_roots():
    assert rational_root_search([P("x^2 + 1")], 10) == []


def test_rational_root_search_single_root():
    assert rational_root_search([P("x")], 3) == [{"x": Fraction(0)}]
