"""Core polynomial arithmetic: canonical form, calculus, parsing."""

import heapq
import random
import types
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from overdet.errors import MissingAssignmentError, PolynomialParseError
from overdet import poly
from overdet.poly import Polynomial, parse_polynomial

from helpers import _reference_exact_quotient, gradient_at, leading_coefficient_in

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
    assert leading_coefficient_in(zero, "x") == Polynomial.zero()


def test_coefficients_in():
    coeffs = P("x^2 + y^2 - 5").coefficients_in("y")
    assert coeffs == [P("x^2 - 5"), Polynomial.zero(), Polynomial.constant(1)]
    assert P("x*y - 2").coefficients_in("y") == [Polynomial.constant(-2), P("x")]
    assert P("7").coefficients_in("y") == [Polynomial.constant(7)]
    assert Polynomial.zero().coefficients_in("y") == []
    # a polynomial in one variable as integer numerators over its denominator
    assert P("1/2*x^3 - 1/3*x").numerators_in("x") == [0, -2, 0, 3]
    assert P("7").numerators_in("x") == [7] and Polynomial.zero().numerators_in("x") == []
    for other in ("x*y", "y + 1"):
        with pytest.raises(ValueError):
            P(other).numerators_in("x")


def test_coefficient_splits_agree_with_the_reference():
    """degree_in, coefficient_in and coefficients_in on keys without the
    variable, constant terms, the zero polynomial and non-1 denominators."""
    cases = [
        P("x^2*y + 3*y - 5"),
        P("y*z^2 - z"),
        P("7"),
        P("-2/3"),
        Polynomial.zero(),
        P("1/2*x^3*z - 2/3*x + 5/6*y^2*z + 1/4"),
        P("x*y*z + x^2*z^3 - 3/7*y^4"),
    ]
    rng = random.Random(173)
    cases += [_mixed_poly(rng, ["x", "y", "z"], rng.randint(0, 6)) for _ in range(60)]
    for f in cases:
        for var in ("x", "y", "z", "w"):
            expected = _ref_coefficients(_ref(f), var)
            parts = f.coefficients_in(var)
            assert [_ref(c) for c in parts] == expected
            assert f.degree_in(var) == len(expected) - 1
            for power in range(len(expected) + 2):
                single = f.coefficient_in(var, power)
                assert _ref(single) == (expected[power] if power < len(expected) else {})
                if power < len(parts):
                    assert list(single._terms) == list(parts[power]._terms)
                    assert single._den == parts[power]._den
                _assert_canonical(single)
            if parts:
                assert Polynomial.from_coefficients(parts, var) == f


def test_substitute_polynomials():
    f = P("x^2 + y")
    g = f.substitute({"x": P("t + 1"), "y": 3})
    assert g == P("t^2 + 2*t + 4")


def test_rename_variables():
    assert P("x*y + x").rename_variables({"x": "u"}) == P("u*y + u")


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
    g = Polynomial([((("x", 1), ("y", 2)), 2), ({"y": 2, "x": 1}, -2)])
    assert g.is_zero()
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


@pytest.mark.parametrize("text, message, column", [
    ("x y", "unexpected trailing input 'y' (implicit multiplication is not allowed)", 3),
    ("x 2", "unexpected trailing input '2' (implicit multiplication is not allowed)", 3),
    ("x (y)", "unexpected trailing input '(' (implicit multiplication is not allowed)", 3),
    ("x)", "unexpected ')' with no matching '('", 2),
    ("(x + 1))", "unexpected ')' with no matching '('", 8),
    ("x^2^3", "unexpected trailing input '^'", 4),
], ids=["name", "number", "paren", "stray-paren", "extra-paren", "power"])
def test_trailing_input_hints_only_where_they_fit(text, message, column):
    with pytest.raises(PolynomialParseError) as err:
        P(text)
    assert (str(err.value), err.value.column) == (message, column)


def test_empty_input_points_one_past_the_text():
    for text, column in (("", 1), ("   ", 4)):
        with pytest.raises(PolynomialParseError, match="empty polynomial expression") as err:
            P(text)
        assert err.value.column == column


def test_parse_rejects_garbage():
    with pytest.raises(PolynomialParseError):
        P("x +")
    with pytest.raises(PolynomialParseError):
        P("x $ y")
    with pytest.raises(PolynomialParseError):
        P("")
    with pytest.raises(PolynomialParseError):
        P("x^(1/2)")


def test_parse_rejects_a_zero_denominator():
    with pytest.raises(PolynomialParseError) as err:
        P("2*x + 3/0")
    assert "'3/0'" in str(err.value) and err.value.column == 7
    with pytest.raises(PolynomialParseError):
        P("x^2 - 0/0*y")


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
    return Polynomial.from_terms(terms)


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
    assert Polynomial.from_coefficients(f.coefficients_in(v), v) == f


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
        assert gradient_at(f, point) == _slow_gradient(f, point)


def test_gradient_at_goldens():
    f = P("x^2*y + 3*x*z - y^3 + 5")
    # y = 0: only terms with at most one zero factor contribute
    assert gradient_at(f, {"x": 2, "y": 0, "z": Fraction(1, 3)}) == {
        "x": Fraction(1), "y": Fraction(4), "z": Fraction(6),
    }
    # x^2 at x = 0 counts as two zero factors; z*x keeps its x partial
    assert gradient_at(f, {"x": 0, "y": 1, "z": 2}) == {"x": Fraction(6), "y": Fraction(-3)}
    assert gradient_at(Polynomial.zero(), {}) == {}
    assert gradient_at(P("x - x"), {"x": 1}) == {}
    assert gradient_at(P("x*y - x*y^2"), {"x": 1, "y": 1}) == {"y": Fraction(-1)}


def test_gradient_at_missing_assignment():
    # the unassigned variable sits in a term that vanishes at the point
    with pytest.raises(MissingAssignmentError):
        gradient_at(P("x^2*y + x"), {"x": 0})


def test_value_and_partials_in_one_walk_match_separate_walks():
    """The fused walk gives evaluate's value, gradient_at's nonzero partials
    and an entry for every occurring variable, as ints where integral."""
    rng = random.Random(241)
    names = ["x", "y", "z", "w"]
    values = [0, 0, 0, 1, -2, 3, Fraction(3, 5), Fraction(-7, 2), Fraction(4)]
    for _ in range(300):
        f = _random_poly(rng, names)
        point = {v: rng.choice(values) for v in names}
        value, partials = f._value_and_partials(point)
        assert value == f.evaluate(point)
        assert set(partials) == set(f.variables())
        assert {v: d for v, d in partials.items() if d} == gradient_at(f, point)
        if all(Fraction(x).denominator == 1 for x in point.values()):
            for number in (value, *partials.values()):
                assert type(number) is int or number.denominator != 1
    value, partials = P("3*x^2*y - 2*y + 5").primitive_part()._value_and_partials({"x": 2, "y": 0})
    assert (value, partials) == (5, {"x": 0, "y": 10})
    assert all(type(number) is int for number in (value, *partials.values()))
    assert P("1/2*x^2 + 2/3*y")._value_and_partials({"x": 3, "y": Fraction(3)}) == (
        Fraction(13, 2), {"x": 3, "y": Fraction(2, 3)}
    )
    with pytest.raises(MissingAssignmentError):
        P("x^2*y + x")._value_and_partials({"x": 0})


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
    # the invariant of a term key: name-sorted pairs with positive exponents
    assert all(list(mono) == sorted(mono) and all(type(e) is int and e > 0 for _, e in mono)
               and len({v for v, _ in mono}) == len(mono) for mono in terms)
    rebuilt = Polynomial(terms)
    assert rebuilt == result
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


def _quotient_or_error(dividend, divisor, divide):
    """``divide(dividend, divisor)`` as its terms in storage order and its
    denominator, or the type of the error it raised."""
    try:
        quotient = divide(dividend, divisor)
    except (ValueError, ZeroDivisionError) as error:
        return type(error)
    return list(quotient._terms.items()), quotient._den


def test_packed_division_matches_the_tuple_reference():
    """Packed division gives the terms of the tuple-heap reference in the
    same order over the same denominator, and raises where it raises, on
    random exact and inexact divisions in 1-4 variables with ``Fraction``
    coefficients."""
    rng = random.Random(167)
    names = ["a", "b", "c", "d"]
    outcomes = {"quotient": 0, "inexact": 0}
    for index in range(300):
        used = names[:index % 4 + 1]
        f = _mixed_poly(rng, used, rng.randint(0, 6))
        g = _mixed_poly(rng, used, rng.randint(1, 4))
        if g.is_zero():
            continue
        cases = [(f * g, g), (f * g + _mixed_poly(rng, used, 1), g), (f, g)]
        for dividend, divisor in cases:
            packed = _quotient_or_error(dividend, divisor, Polynomial.exact_quotient)
            assert packed == _quotient_or_error(dividend, divisor, _reference_exact_quotient)
            outcomes["inexact" if packed is ValueError else "quotient"] += 1
            if packed is not ValueError:
                _assert_canonical(dividend.exact_quotient(divisor))
    assert min(outcomes.values()) > 250, outcomes


@pytest.mark.parametrize("dividend, divisor", [
    # a new remainder key overflows a field: y^10 in the y field of width 3
    ("x^2", "x - y^5"),
    # z^4 overflows the z field of width 2
    ("x^3*y", "x - y^3*z^2"),
    ("1/2*x^4 - 3*y^2", "2/3*x^2 - z^3*y"),
    # a variable only the divisor holds
    ("x^2 + x", "x + y"),
    ("x*y", "z"),
    ("x", "x^2"),
    ("x^2 + 1", "x + 1"),
    # exact divisions, with constants and rational coefficients
    ("x^2 - y^2", "x - y"),
    ("x^4 - y^4*z^8", "x - y*z^2"),
    ("1/2*x^2*y - 1/3*y^3", "3*x^2 - 2*y^2"),
    ("2*x + 4*y", "2"),
    ("6", "4"),
    ("3/5", "x + 1"),
    ("0", "x + y"),
    ("0", "5"),
])
def test_packed_division_edge_cases_match_the_reference(dividend, divisor):
    f, g = P(dividend), P(divisor)
    packed = _quotient_or_error(f, g, Polynomial.exact_quotient)
    assert packed == _quotient_or_error(f, g, _reference_exact_quotient)
    if packed is not ValueError:
        assert f.exact_quotient(g) * g == f


@pytest.mark.parametrize("dividend, divisor", [("x^2", "x - y^5"), ("x^3*y", "x - y^3*z^2")])
def test_a_field_overflow_ends_the_division_at_once(monkeypatch, dividend, divisor):
    """The second step's new remainder key overflows a field (y^10 where the
    y field holds up to 0 + 5 in 3 bits; z^4 where z holds 0 + 2 in 2 bits),
    which proves the division inexact before that key is popped."""
    pops = []

    def heappop(heap):
        pops.append(heap[0])
        return heapq.heappop(heap)

    counting = types.SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=heappop
    )
    monkeypatch.setattr(poly, "heapq", counting)
    with pytest.raises(ValueError):
        P(dividend).exact_quotient(P(divisor))
    assert len(pops) == 2


def test_division_by_zero_raises_in_both():
    for dividend in (P("x + 1"), Polynomial.zero(), P("3")):
        with pytest.raises(ZeroDivisionError):
            dividend.exact_quotient(Polynomial.zero())
        with pytest.raises(ZeroDivisionError):
            _reference_exact_quotient(dividend, Polynomial.zero())


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


# -- integer numerators over one denominator, against a Fraction reference ------


def _ref(f):
    """f as a plain ``{term: Fraction}`` map, read through the public API."""
    return dict(f.ordered_terms())


def _ref_key(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _ref_nonzero(terms):
    return {key: coeff for key, coeff in terms.items() if coeff}


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + sign * coeff
    return _ref_nonzero(out)


def _ref_product(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            exps = dict(k1)
            for v, e in k2:
                exps[v] = exps.get(v, 0) + e
            key = _ref_key(exps)
            out[key] = out.get(key, 0) + c1 * c2
    return _ref_nonzero(out)


def _ref_power(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_product(out, a)
    return out


def _ref_derivation(a, images):
    out = {}
    for key, coeff in a.items():
        for var, exp in key:
            image = images.get(var)
            if image is None:
                continue
            exps = dict(key)
            exps[var] -= 1
            if image != 1:
                exps[image] = exps.get(image, 0) + 1
            lowered = _ref_key(exps)
            out[lowered] = out.get(lowered, 0) + coeff * exp
    return _ref_nonzero(out)


def _ref_evaluate(a, point):
    total = Fraction(0)
    for key, coeff in a.items():
        for var, exp in key:
            coeff *= Fraction(point[var]) ** exp
        total += coeff
    return total


def _ref_gradient(a, point):
    names = {v for key in a for v, _ in key}
    values = {v: _ref_evaluate(_ref_derivation(a, {v: 1}), point) for v in names}
    return {v: value for v, value in values.items() if value}


def _ref_coefficients(a, var):
    parts = [{} for _ in range(max((dict(key).get(var, 0) for key in a), default=-1) + 1)]
    for key, coeff in a.items():
        parts[dict(key).get(var, 0)][tuple(pair for pair in key if pair[0] != var)] = coeff
    return parts


def _ref_primitive(a):
    if not a:
        return {}
    content = Fraction(
        gcd(*(c.numerator for c in a.values())), lcm(*(c.denominator for c in a.values()))
    )
    return {key: coeff / content for key, coeff in a.items()}


def _ref_substitute(a, subs):
    out = {}
    for key, coeff in a.items():
        term = {(): coeff}
        for var, exp in key:
            factor = subs[var] if var in subs else {((var, 1),): Fraction(1)}
            term = _ref_product(term, _ref_power(factor, exp))
        out = _ref_sum(out, term)
    return out


def _mixed_poly(rng, names, terms):
    """Integer coefficients half of the time, rational ones otherwise."""
    integer = rng.random() < 0.5
    return Polynomial.from_terms(
        [
            (
                {v: rng.randint(0, 3) for v in rng.sample(names, rng.randint(0, len(names)))},
                rng.randint(-9, 9) if integer else Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            )
            for _ in range(terms)
        ]
    )


def test_operations_agree_with_a_fraction_reference():
    rng = random.Random(107)
    names = ["u", "v", "w"]
    points = [Fraction(0), 1, -2, 3, Fraction(2, 3), Fraction(-5, 4)]
    for _ in range(200):
        f = _mixed_poly(rng, names, rng.randint(0, 5))
        g = _mixed_poly(rng, names, rng.randint(0, 4))
        a, b = _ref(f), _ref(g)
        var = rng.choice(names)
        images = {v: rng.choice(names + [1]) for v in rng.sample(names, 2)}
        point = {v: rng.choice(points) for v in names}
        assert _ref(f + g) == _ref_sum(a, b)
        assert _ref(f - g) == _ref_sum(a, b, -1)
        assert _ref(-f) == _ref_sum({}, a, -1)
        assert _ref(f * g) == _ref_product(a, b)
        assert _ref(f ** 2) == _ref_power(a, 2)
        assert _ref(g ** 3) == _ref_power(b, 3)
        assert _ref(f.derivation(images)) == _ref_derivation(a, images)
        assert _ref(f.primitive_part()) == _ref_primitive(a)
        assert [_ref(c) for c in f.coefficients_in(var)] == _ref_coefficients(a, var)
        assert _ref(f.substitute({var: g})) == _ref_substitute(a, {var: b})
        assert f.evaluate(point) == _ref_evaluate(a, point)
        assert gradient_at(f, point) == _ref_gradient(a, point)
        if not g.is_zero():
            assert _ref((f * g).exact_quotient(g)) == a
        scale = rng.choice([3, Fraction(-2, 5), Fraction(7)])
        assert _ref((f * scale).exact_quotient(Polynomial.constant(scale))) == a
        for result in (f + g, f * g, f.primitive_part(), f.derivation(images)):
            _assert_canonical(result)


def test_derivation_with_a_memo_gives_the_same_terms_in_the_same_order():
    rng = random.Random(113)
    names = ["u", "v", "w"]
    images = {"u": "v", "v": 1, "w": "u"}
    memo = {}
    for _ in range(100):
        f = _mixed_poly(rng, names, rng.randint(0, 6))
        expected = f.derivation(images)
        for _ in range(2):  # the second derivation finds every key in the memo
            q = f.derivation(images, memo)
            assert list(q._terms.items()) == list(expected._terms.items())
            assert q._den == expected._den
        assert set(f._terms) <= set(memo)


def test_evaluate_at_non_integral_and_mixed_points_agrees_with_the_reference():
    """Points whose values are all non-integral, mixed with ints, integral
    ``Fraction``s and zeros, against the plain ``Fraction`` reference."""
    rng = random.Random(149)
    names = ["u", "v", "w"]
    fractions = [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5), Fraction(-11, 12),
                 Fraction(3, 10 ** 12 + 39)]
    others = [0, Fraction(0), 2, -3, Fraction(4), Fraction(-1)]
    for index in range(300):
        f = _mixed_poly(rng, names, rng.randint(0, 6))
        if index % 2:
            point = {v: rng.choice(fractions) for v in names}
        else:
            point = {v: rng.choice(fractions + others) for v in names}
        value = f.evaluate(point)
        assert value == _ref_evaluate(_ref(f), point)
        assert type(value) is Fraction
    with pytest.raises(MissingAssignmentError):
        P("x + y^2").evaluate({"x": Fraction(1, 2)})
    with pytest.raises(MissingAssignmentError):
        P("x + x*y").evaluate({"x": Fraction(1, 2), "z": 0})


def test_equal_values_built_by_different_routes_compare_and_hash_equal():
    pairs = [
        (P("1/2*x") * 2, P("x")),
        (P("2/4*x"), P("1/2*x")),
        (P("1/2*x") + P("1/2*x"), P("x")),
        (P("1/3*x + 1/6") * 6, P("2*x + 1")),
        (P("1/6*x^2").partial_derivative("x"), P("1/3*x")),
        (P("3/4*x*y + 3/4*y").coefficient_in("x", 0), P("3/4*y")),
        (P("2*x^2 - 2").exact_quotient(P("4*x + 4")), P("1/2*x - 1/2")),
        (P("1/2*x - 1/2*x"), Polynomial.zero()),
        (Polynomial({(("x", 1),): Fraction(3, 3), (): Fraction(-4, 6)}), P("x - 2/3")),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
        assert str(left) == str(right)
    assert P("4/2") == 2 and P("1/2") * 2 == 1
    # a shared denominator is part of the value
    assert P("1/2*x") != P("x") and P("1/3*x + 1/3") != P("x + 1")
    assert P("1/2") != 1


def test_public_accessors_return_fractions():
    integer = P("3*x^2*y - 2*y + 5")
    rational = P("1/2*x^2 + 2/3*y")
    for f in (integer, rational):
        assert all(type(coeff) is Fraction for _, coeff in f.ordered_terms())
        assert type(f.evaluate({"x": 2, "y": -1})) is Fraction
        assert all(type(value) is Fraction for value in gradient_at(f, {"x": 2, "y": 3}).values())
    assert gradient_at(integer, {"x": 2, "y": 3}) == {"x": Fraction(36), "y": Fraction(10)}
    assert gradient_at(rational, {"x": 3, "y": 1}) == {"x": Fraction(3), "y": Fraction(2, 3)}
    assert type(P("7").constant_value()) is Fraction
    assert type(Polynomial.zero().constant_value()) is Fraction
    assert P("3/6").constant_value() == Fraction(1, 2)


def test_integer_arithmetic_builds_no_fraction(monkeypatch):
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    f, g = P("3*x^2*y - 2*y + 5"), P("x*y - 7")
    monkeypatch.setattr(poly, "Fraction", Counting)
    h = (f + g) * g - f ** 2 + 4
    h.derivation({"x": "y", "y": 1})
    h.coefficients_in("x")
    assert (h * g).exact_quotient(g) == h
    assert (6 * h).primitive_part() == h.primitive_part()
    assert built == []


def test_constants_hash_as_their_scalar_value():
    for value in (0, 3, Fraction(-1, 2)):
        constant = Polynomial.constant(value)
        assert constant == value and hash(constant) == hash(value)
        assert constant == Fraction(value) and hash(constant) == hash(Fraction(value))
        assert len({constant, value, Fraction(value)}) == 1
    assert len({P("6/2"), 3, P("x") - P("x") + 3}) == 1


# -- products on packed exponent vectors ---------------------------------------


def _term_data(rng, names, count, tops, integer):
    """Up to ``count`` distinct random terms over ``names`` whose exponent of
    each variable v stays within ``tops[v]`` and reaches it in some term."""
    terms = {tuple((v, top) for v, top in tops.items() if top): 1}
    for _ in range(4 * count):
        if len(terms) == count:
            break
        used = rng.sample(names, rng.randint(0, len(names)))
        terms[tuple((v, rng.randint(1, tops[v])) for v in sorted(used) if tops[v])] = 1
    return {
        key: (rng.choice([-1, 1]) * rng.randint(1, 9) if integer
              else Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)))
        for key in terms
    }


def test_packed_products_agree_with_the_reference():
    """Products of at least ``_PACKED_MIN_PAIRS`` term pairs against the
    pair-by-pair ``Fraction`` reference, in 1-6 variables, with exponent sums
    that fill a bit field exactly or need one more bit, and variables in one
    operand only."""
    rng = random.Random(151)
    names = ["a", "b", "c", "d", "e", "f"]
    # (largest exponent of the first variable in the left operand, in the
    # right): the sums 7, 8 and 15 fill 3, 4 and 4 bits
    boundaries = [(3, 4), (4, 4), (7, 8), (1, 1), (8, 7), (5, 0)]
    packed = 0
    for index in range(150):
        used = names[:index % 6 + 1]
        left_tops = {v: rng.randint(2, 5) for v in used}
        right_tops = {v: rng.randint(2, 5) for v in used}
        left_tops[used[0]], right_tops[used[0]] = boundaries[index // 6 % len(boundaries)]
        if len(used) > 2:  # the second in the left operand only, the third in the right
            right_tops[used[1]] = left_tops[used[2]] = 0
        integer = index % 2 == 0
        f = Polynomial(_term_data(rng, used, rng.randint(8, 14), left_tops, integer))
        g = Polynomial(_term_data(rng, used, rng.randint(8, 14), right_tops, not integer))
        a, b = _ref(f), _ref(g)
        packed += len(a) * len(b) >= poly._PACKED_MIN_PAIRS
        for result, expected in ((f * g, _ref_product(a, b)), (g * f, _ref_product(b, a))):
            assert _ref(result) == expected
            _assert_canonical(result)
        if index % 10 == 0:
            for power in (2, 3, 4):
                assert _ref(f ** power) == _ref_power(a, power)
    assert packed > 120
    # all but the two outer terms cancel: x^32 - y^32
    x, y = P("x"), P("y")
    geometric = sum((x ** i * y ** (31 - i) for i in range(32)), Polynomial.zero())
    assert geometric * (x - y) == P("x^32 - y^32")
    assert (geometric * (x - y)).ordered_terms() == P("x^32 - y^32").ordered_terms()
    halves = P("1/2*x - 1/3*y") * 6
    assert geometric * halves - halves * geometric == Polynomial.zero()


def test_packed_and_pair_products_agree_in_value_and_term_order(monkeypatch):
    rng = random.Random(163)
    names = ["u", "v", "w", "t"]
    cases = [
        (_mixed_poly(rng, names, rng.randint(0, 12)), _mixed_poly(rng, names, rng.randint(0, 12)))
        for _ in range(80)
    ] + [(P("x^7*y + 3*x^3 - y^2"), P("x^8 - 2/3*x^4*y^5 + 1")), (P("5"), P("x + y"))]

    def products():
        return [result for f, g in cases for result in (f * g, g * f, f * 3, f ** 3)]

    monkeypatch.setattr(poly, "_PACKED_MIN_PAIRS", 0)
    packed = products()
    monkeypatch.setattr(poly, "_PACKED_MIN_PAIRS", 10 ** 9)
    paired = products()
    for p, q in zip(packed, paired, strict=True):
        assert p == q and p._den == q._den
        assert list(p._terms) == list(q._terms)
