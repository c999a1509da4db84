"""Core polynomial arithmetic: canonical form, calculus, parsing."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from overdet.errors import MissingAssignmentError, PolynomialParseError
from overdet.poly import Polynomial, parse_polynomial

P = parse_polynomial


def test_add_inverse_gives_zero():
    assert P("x + 1") + P("-x - 1") == Polynomial.zero()


def test_add_coefficientwise():
    assert P("x^2 - 3*x + 2") + P("x^2 - 4*x + 3") == P("2*x^2 - 7*x + 5")


def test_add_identity():
    f = P("3*x*y - 1/2")
    assert f + Polynomial.zero() == f
    assert f + 0 == f


def test_mul_expansion():
    assert P("x - 1") * P("x - 2") == P("x^2 - 3*x + 2")


def test_mul_identity_and_annihilator():
    f = P("x^2*y - 7*z")
    assert f * 1 == f
    assert f * 0 == Polynomial.zero()


def test_evaluate_roots_and_constants():
    f = P("x^2 - 3*x + 2")
    assert f.evaluate({"x": 1}) == 0
    assert f.evaluate({"x": 0}) == 2
    assert Polynomial.zero().evaluate({}) == 0


def test_evaluate_rational_point():
    f = P("4*x^2 - 1")
    assert f.evaluate({"x": Fraction(1, 2)}) == 0


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignmentError) as err:
        P("x*y").evaluate({"x": 1})
    assert err.value.variable == "y"


def test_partial_derivative():
    assert P("x^2*y").partial_derivative("x") == P("2*x*y")
    assert P("x^2*y").partial_derivative("z") == Polynomial.zero()
    assert P("q1*q2 - q1^2").partial_derivative("q1") == P("q2 - 2*q1")


def test_degree_in():
    assert P("x^2*y + y^3").degree_in("x") == 2
    assert P("y^3").degree_in("x") == 0
    zero = Polynomial.zero()
    assert zero.degree_in("x") == -1
    assert zero.coefficients_in("x") == []
    assert zero.leading_coefficient_in("x") == Polynomial.zero()


def test_coefficients_in():
    coeffs = P("x^2 + y^2 - 5").coefficients_in("y")
    assert coeffs == [P("x^2 - 5"), Polynomial.zero(), Polynomial.constant(1)]
    assert P("x*y - 2").coefficients_in("y") == [Polynomial.constant(-2), P("x")]
    assert P("7").coefficients_in("y") == [Polynomial.constant(7)]
    assert Polynomial.zero().coefficients_in("y") == []


def test_substitute_polynomials():
    f = P("x^2 + y")
    g = f.substitute({"x": P("t + 1"), "y": 3})
    assert g == P("t^2 + 2*t + 4")


def test_rename_variables():
    assert P("x*y + x").rename_variables({"x": "u"}) == P("u*y + u")


def test_equality_ignores_table_order():
    f = Polynomial.from_terms({(("x", 1),): 1}, variables=("x", "y"))
    g = Polynomial.from_terms({(("x", 1),): 1}, variables=("x",))
    assert f == g and hash(f) == hash(g)


def test_constructor_canonicalises_terms():
    # unsorted pairs and a {var: exp} mapping give the same key
    assert Polynomial({(("y", 1), ("x", 1)): 1}) == P("x*y")
    assert Polynomial([({"y": 1, "x": 1}, 1)]) == P("x*y")
    # zero exponents drop
    assert Polynomial({(("x", 0), ("y", 2)): 3}) == P("3*y^2")
    assert Polynomial({(("x", 0),): 5}).is_constant()
    # duplicate monomials are summed, and vanish when they cancel
    f = Polynomial([((("x", 1), ("y", 2)), 2), ({"y": 2, "x": 1}, 3), ({"x": 1}, 1)])
    assert f == P("5*x*y^2 + x")
    g = Polynomial([((("x", 1), ("y", 2)), 2), ({"y": 2, "x": 1}, -2)], ("x", "y"))
    assert g.is_zero() and g.variable_table == ("x", "y")
    assert Polynomial([({"z": 1}, 1), ({"z": 1}, -1)]).variable_table == ()
    with pytest.raises(ValueError):
        Polynomial({(("x", -1),): 1})
    with pytest.raises(ValueError):
        Polynomial.from_terms([({"x": 2, "y": -1}, 1)])


# -- text syntax -------------------------------------------------------------


def test_parse_rational_literal_and_whitespace():
    assert P(" -3/4 * x ^ 2+ 1 ") == Polynomial.from_terms(
        [({"x": 2}, Fraction(-3, 4)), ({}, 1)]
    )


def test_parse_jet_style_names():
    f = P("S1[2,0] - 2*S1[0,0]*S1[1,0]")
    assert set(f.variables()) == {"S1[2,0]", "S1[0,0]", "S1[1,0]"}


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolynomialParseError):
        P("2x")


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialParseError):
        P("x +")
    with pytest.raises(PolynomialParseError):
        P("x $ y")
    with pytest.raises(PolynomialParseError):
        P("")
    with pytest.raises(PolynomialParseError):
        P("x^(1/2)")


def test_str_roundtrip_golden():
    f = P("2*x^2 - 7*x + 5")
    assert str(f) == "2*x^2 - 7*x + 5"
    assert P(str(f)) == f
    assert str(Polynomial.zero()) == "0"
    assert str(P("-x + 1")) == "-x + 1"


# -- property suites ---------------------------------------------------------

_small_rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)

_variables = ("x", "y", "z")


@st.composite
def polynomials(draw, max_terms=6, max_exp=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n_terms):
        exps = {
            v: draw(st.integers(0, max_exp))
            for v in draw(st.sets(st.sampled_from(_variables), max_size=3))
        }
        terms.append((exps, draw(_small_rationals)))
    return Polynomial.from_terms(terms, variables=_variables)


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=80, deadline=None)
@given(polynomials(), st.sampled_from(_variables))
def test_coefficients_reconstruct(f, v):
    var = Polynomial.variable(v)
    total = Polynomial.zero()
    for power, coeff in enumerate(f.coefficients_in(v)):
        total = total + coeff * var ** power
    assert total == f


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials(), st.sampled_from(_variables))
def test_derivative_linearity_and_product_rule(f, g, v):
    assert (f + g).partial_derivative(v) == f.partial_derivative(v) + g.partial_derivative(v)
    assert (f * g).partial_derivative(v) == (
        f.partial_derivative(v) * g + f * g.partial_derivative(v)
    )


@settings(max_examples=60, deadline=None)
@given(
    polynomials(),
    polynomials(),
    st.tuples(_small_rationals, _small_rationals, _small_rationals),
)
def test_evaluate_is_ring_homomorphism(f, g, values):
    point = dict(zip(_variables, values))
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_str_parse_roundtrip(f):
    assert parse_polynomial(str(f)) == f


def test_rename_variables_merges_collisions():
    f = P("a*b + a")
    assert f.rename_variables({"a": "b"}) == P("b^2 + b")


# -- one-walk gradient and derivation ------------------------------------------


def _random_poly(rng, names, terms=6, max_exp=3):
    return Polynomial.from_terms(
        [
            (
                {v: rng.randint(0, max_exp) for v in rng.sample(names, rng.randint(0, len(names)))},
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
            )
            for _ in range(terms)
        ]
    )


def _slow_gradient(f, point):
    """Reference: one partial per variable, each evaluated at the point."""
    values = {v: f.partial_derivative(v).evaluate(point) for v in f.variables()}
    return {v: value for v, value in values.items() if value != 0}


def test_gradient_at_matches_partials_on_random_polynomials():
    rng = random.Random(53)
    names = ["x", "y", "z", "w"]
    # zero-heavy points exercise the one- and two-zero-factor shortcuts,
    # including x^2 at x = 0, next to rational and negative values
    values = [Fraction(0)] * 4 + [Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-7, 2)]
    for _ in range(300):
        f = _random_poly(rng, names)
        point = {v: rng.choice(values) for v in names}
        assert f.gradient_at(point) == _slow_gradient(f, point)


def test_gradient_at_goldens():
    f = P("x^2*y + 3*x*z - y^3 + 5")
    # y = 0: only terms with at most one zero factor contribute
    assert f.gradient_at({"x": 2, "y": 0, "z": Fraction(1, 3)}) == {
        "x": Fraction(1), "y": Fraction(4), "z": Fraction(6),
    }
    # x^2 at x = 0 counts as two zero factors; z*x keeps its x partial
    assert f.gradient_at({"x": 0, "y": 1, "z": 2}) == {"x": Fraction(6), "y": Fraction(-3)}
    assert Polynomial.zero().gradient_at({}) == {}
    assert P("x - x").gradient_at({"x": 1}) == {}
    assert P("x*y - x*y^2").gradient_at({"x": 1, "y": 1}) == {"y": Fraction(-1)}


def test_gradient_at_missing_assignment():
    # the unassigned variable sits in a term that vanishes at the point
    with pytest.raises(MissingAssignmentError):
        P("x^2*y + x").gradient_at({"x": 0})


def test_derivation_is_sum_of_partials_times_images():
    rng = random.Random(59)
    names = ["a", "b", "c", "t"]
    for _ in range(200):
        f = _random_poly(rng, names)
        images = {"a": "b", "b": "c", "t": 1}
        expected = (
            f.partial_derivative("a") * P("b")
            + f.partial_derivative("b") * P("c")
            + f.partial_derivative("t")
        )
        assert f.derivation(images) == expected
    assert P("a^2").derivation({"a": "a"}) == P("2*a^2")
    assert P("c").derivation({"a": "b"}) == Polynomial.zero()


# -- zero-skipping evaluation and the private canonical constructor -------------


def _per_factor_evaluate(f, point):
    """Reference: every factor converted and raised, term by term."""
    total = Fraction(0)
    for mono, coeff in f.ordered_terms():
        value = coeff
        for var, exp in mono:
            if var not in point:
                raise MissingAssignmentError(var)
            value *= Fraction(point[var]) ** exp
        total += value
    return total


def test_evaluate_matches_per_factor_reference():
    rng = random.Random(83)
    names = ["a", "b", "c", "d", "e"]
    zero_heavy = [Fraction(0)] * 8 + [Fraction(1), Fraction(-3, 2)]
    rational = [Fraction(0), 1, -2, Fraction(5, 3), Fraction(-7, 4), Fraction(11, 9)]
    for index in range(400):
        f = _random_poly(rng, names, terms=rng.randint(0, 8))
        values = zero_heavy if index % 2 else rational
        point = {v: rng.choice(values) for v in names}
        value = f.evaluate(point)
        assert value == _per_factor_evaluate(f, point)
        assert type(value) is Fraction


def test_evaluate_missing_assignment_in_vanishing_term():
    # x = 0 zeroes the term, yet y must still be assigned
    with pytest.raises(MissingAssignmentError):
        P("x*y").evaluate({"x": 0})
    with pytest.raises(MissingAssignmentError):
        P("y^2*x + 1").evaluate({"x": Fraction(0)})
    assert P("x*y + 2").evaluate({"x": 0, "y": Fraction(1, 3)}) == 2


def _assert_canonical(result):
    terms = dict(result.ordered_terms())
    assert all(type(coeff) is Fraction and coeff != 0 for coeff in terms.values())
    assert all(v in result.variable_table for mono in terms for v, _ in mono)
    # the invariant of a term key: name-sorted pairs with positive exponents
    assert all(list(mono) == sorted(mono) and all(type(e) is int and e > 0 for _, e in mono)
               and len({v for v, _ in mono}) == len(mono) for mono in terms)
    rebuilt = Polynomial(terms, result.variable_table)
    assert rebuilt == result
    assert rebuilt.variable_table == result.variable_table
    assert str(rebuilt) == str(result)


def test_arithmetic_results_are_canonical():
    rng = random.Random(89)
    names = ["u", "v", "w", "t"]
    for _ in range(300):
        f = _random_poly(rng, names, terms=rng.randint(0, 6))
        g = _random_poly(rng, names, terms=rng.randint(0, 6))
        var = rng.choice(names)
        images = {v: rng.choice(names + [1]) for v in rng.sample(names, 2)}
        images["s"] = "u"  # a name f never holds maps to nothing
        for result in (f + g, f - g, -f, f * g, f + (-f), f * 0, 2 * f - f - f,
                       f.partial_derivative(var), f.derivation(images),
                       f.derivation({"u": "new"}), (f * g - f).derivation(images)):
            _assert_canonical(result)


# -- exact division and primitive part -----------------------------------------


def test_exact_quotient_recovers_the_cofactor():
    rng = random.Random(97)
    names = ["u", "v", "w"]
    divided = 0
    for _ in range(300):
        a = _random_poly(rng, names, terms=rng.randint(0, 6))
        b = _random_poly(rng, names, terms=rng.randint(1, 5))
        if b.is_zero():
            continue
        quotient = (a * b).exact_quotient(b)
        assert quotient == a
        _assert_canonical(quotient)
        divided += 1
    assert divided > 250


def test_exact_quotient_rejects_non_multiples():
    rng = random.Random(101)
    names = ["u", "v", "w"]
    rejected = 0
    for _ in range(200):
        a = _random_poly(rng, names, terms=rng.randint(1, 5))
        b = _random_poly(rng, names, terms=rng.randint(2, 4))
        if len(b.ordered_terms()) < 2:
            continue
        # a nonzero constant is a remainder no multiple of b leaves
        with pytest.raises(ValueError):
            (a * b + 1).exact_quotient(b)
        rejected += 1
    assert rejected > 150
    with pytest.raises(ValueError):
        P("x^2 + 1").exact_quotient(P("x + 1"))
    with pytest.raises(ValueError):
        P("x*y").exact_quotient(P("z"))
    with pytest.raises(ValueError):
        P("x").exact_quotient(P("x^2"))


def test_exact_quotient_zero_and_constants():
    assert Polynomial.zero().exact_quotient(P("x + y")) == Polynomial.zero()
    assert P("2*x + 4*y").exact_quotient(Polynomial.constant(2)) == P("x + 2*y")
    assert P("x^2 - y^2").exact_quotient(P("x - y")) == P("x + y")
    assert P("6").exact_quotient(P("4")) == Polynomial.constant(Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        P("x + 1").exact_quotient(Polynomial.zero())
    with pytest.raises(ZeroDivisionError):
        Polynomial.zero().exact_quotient(Polynomial.zero())


def test_primitive_part_divides_by_positive_content():
    assert P("6*x^2 - 4*y + 2").primitive_part() == P("3*x^2 - 2*y + 1")
    assert P("-1/2*x + 3/4").primitive_part() == P("-2*x + 3")
    assert P("x + 1").primitive_part() == P("x + 1")
    assert Polynomial.zero().primitive_part().is_zero()
    rng = random.Random(103)
    for _ in range(100):
        f = _random_poly(rng, ["u", "v"], terms=rng.randint(1, 5))
        part = f.primitive_part()
        _assert_canonical(part)
        if f.is_zero():
            continue
        coeffs = [c for _, c in part.ordered_terms()]
        assert all(c.denominator == 1 for c in coeffs)
        assert gcd(*(c.numerator for c in coeffs)) == 1
        # a positive rational multiple of f
        ratio = coeffs[0] / f.ordered_terms()[0][1]
        assert ratio > 0 and part == f * ratio
