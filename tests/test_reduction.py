"""Degree-lowering reduction: pair step, chain, elimination, full solve."""

import itertools
import random
from fractions import Fraction

import pytest

from overdet.errors import (
    AllDegreeZeroError,
    DegreeMismatchError,
    NotUnivariateError,
    SystemShapeError,
)
from overdet import reduction
from overdet.formats import outcome_to_dict, to_json
from overdet.oracle import gcd_univariate, rational_root_search
from overdet.poly import Polynomial, parse_polynomial
from overdet.reduction import (
    SideCondition,
    _eliminate,
    eliminate_variable,
    reduce_chain,
    reduce_pair,
    solve_overdetermined,
)
from helpers import (
    _reference_exact_quotient,
    common_rational_roots,
    is_identically_violated,
    random_univariate,
    rational_roots_of,
)

P = parse_polynomial


# -- reduce_pair ---------------------------------------------------------------


def test_pair_quadratic_golden():
    c, d, conditions = reduce_pair(P("x^2 - 3*x + 2"), P("x^2 - 4*x + 3"), "x")
    assert c == P("-x + 1")
    assert d == P("-2*x + 2")
    assert [cond.polynomial for cond in conditions] == [Polynomial.constant(-1)]
    # both lowered equations keep the shared root
    assert gcd_univariate(c, d, "x") == P("x - 1")


def test_pair_identical_inputs_violates_condition():
    f = P("x^2 - 3*x + 2")
    c, d, conditions = reduce_pair(f, f, "x")
    assert c.is_zero() and d.is_zero()
    assert is_identically_violated(conditions[-1])


def test_pair_disjoint_quadratics_leave_constant():
    c, _, _ = reduce_pair(P("x^2 - 1"), P("x^2 - 4"), "x")
    assert c == Polynomial.constant(-3)


def test_pair_degree_mismatch_rejected():
    with pytest.raises(DegreeMismatchError):
        reduce_pair(P("x^2 - 1"), P("x - 1"), "x")
    with pytest.raises(DegreeMismatchError):
        reduce_pair(P("3"), P("5"), "x")
    with pytest.raises(DegreeMismatchError):
        reduce_pair(Polynomial.zero(), Polynomial.zero(), "x")


def test_pair_combination_identities():
    """c and d are exact combinations of the inputs (cross-multiplied form)."""
    rng = random.Random(3)
    x = Polynomial.variable("x")
    for _ in range(100):
        n = rng.randint(1, 6)
        f = random_univariate(rng, n)
        g = random_univariate(rng, n)
        c, d, _ = reduce_pair(f, g, "x")
        a_n = f.coefficient_in("x", n)
        b_n = g.coefficient_in("x", n)
        c_top = c.coefficient_in("x", n - 1)
        assert c * a_n == g * a_n - f * b_n
        assert d * a_n == c * x * a_n - f * c_top


def test_pair_pseudo_form_records_lead_condition():
    # polynomial leading coefficient: cross-multiplied combinations are used
    f = P("y*x^2 + x")
    g = P("x^2 + y")
    c, d, conditions = reduce_pair(f, g, "x")
    lead = P("y")
    assert conditions[0].polynomial == lead
    assert c == g * lead - f  # lead(g) in x is 1
    c_top = c.coefficient_in("x", 1)
    assert d == c * Polynomial.variable("x") * lead - f * c_top


def test_pair_equivalence_against_gcd_oracle():
    """Common rational roots are preserved whenever the top condition holds."""
    rng = random.Random(5)
    kept = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        f = random_univariate(rng, n)
        g = random_univariate(rng, n)
        c, d, conditions = reduce_pair(f, g, "x")
        if is_identically_violated(conditions[-1]):
            continue
        kept += 1
        assert common_rational_roots(f, g) == common_rational_roots(c, d)
    assert kept > 200


# -- reduce_chain --------------------------------------------------------------


def test_chain_quadratic_golden():
    outcome = reduce_chain(P("x^2 - 3*x + 2"), P("x^2 - 4*x + 3"), "x")
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(1)}]
    # terminal consistency determinant is exactly zero
    terminal = [s for s in outcome.trace if s.kind == "linear-solve"][-1]
    assert terminal.outputs[0] == Polynomial.zero()
    # the top-coefficient condition held with value -1: recorded in the
    # step, left out of the outcome as a nonzero constant
    reduce_step = [s for s in outcome.trace if s.kind == "pair-reduce"][0]
    assert Polynomial.constant(-1) in [c.polynomial for c in reduce_step.conditions]
    assert outcome.conditions == []


def test_chain_disjoint_quadratics_inconsistent():
    for f, g in ((P("x^2 - 1"), P("x^2 - 4")), (P("x^2 + 1"), P("x^2 + 2"))):
        outcome = reduce_chain(f, g, "x")
        assert outcome.status == "inconsistent"
        assert gcd_univariate(f, g, "x").is_constant()
        # c dropped to a constant, so its vanishing top coefficient is not
        # a condition the outcome rests on
        assert outcome.conditions == []


def test_chain_duplicate_equation_residual():
    f = P("x^2 - 3*x + 2")
    outcome = reduce_chain(f, f, "x")
    assert outcome.status == "residual"
    assert outcome.residual_system == [f]


def test_chain_duplicate_linear_solves():
    outcome = reduce_chain(P("x - 5"), P("x - 5"), "x")
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(5)}]


def test_chain_unequal_degrees():
    # exact common root x = 2 with mismatched degrees
    outcome = reduce_chain(P("x^3 - 8"), P("x - 2"), "x")
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(2)}]


def test_chain_linear_pair_determinant_nonzero():
    outcome = reduce_chain(P("x - 1"), P("x - 2"), "x")
    assert outcome.status == "inconsistent"
    terminal = outcome.trace[-1]
    assert terminal.kind == "linear-solve"
    assert not terminal.outputs[0].is_zero()


def test_chain_rejects_zero_or_multivariate_input():
    with pytest.raises(NotUnivariateError):
        reduce_chain(Polynomial.zero(), P("x - 1"), "x")
    with pytest.raises(NotUnivariateError):
        reduce_chain(P("x*y - 1"), P("x - 1"), "x")


def test_chain_solved_iff_determinant_vanishes():
    """When the chain reaches a linear pair, solved <=> zero determinant."""
    rng = random.Random(9)
    seen_solved = seen_inconsistent = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        if rng.random() < 0.5:
            shared = P("x") - Polynomial.constant(Fraction(rng.randint(-3, 3)))
            f = shared * random_univariate(rng, n - 1)
            g = shared * random_univariate(rng, n - 1)
        else:
            f = random_univariate(rng, n)
            g = random_univariate(rng, n)
        outcome = reduce_chain(f, g, "x")
        terminals = [s for s in outcome.trace if s.kind == "linear-solve" and len(s.inputs) == 2]
        if not terminals:
            continue
        det = terminals[-1].outputs[0]
        if outcome.status == "solved":
            seen_solved += 1
            assert det.is_zero()
        elif outcome.status == "inconsistent" and outcome.trace[-1] is terminals[-1]:
            seen_inconsistent += 1
            assert not det.is_zero()
    assert seen_solved > 10 and seen_inconsistent > 10


def test_chain_trace_is_deterministic():
    f, g = P("x^3 - 2*x + 1"), P("x^3 - x^2 - 1")
    first = reduce_chain(f, g, "x")
    second = reduce_chain(f, g, "x")
    assert first.trace == second.trace
    assert first.status == second.status


# -- eliminate_variable ---------------------------------------------------------


def test_eliminate_three_curves():
    system = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
    reduced, conditions, steps = eliminate_variable(system, "y")
    assert len(reduced) == 2
    roots = set()
    for poly in reduced:
        roots |= {r for r in (rational_roots_of(poly)) if all(
            q.evaluate({"x": r}) == 0 for q in reduced
        )}
    assert roots == {Fraction(1), Fraction(2)}
    # the hyperbola pivot clears through x, which is recorded
    assert P("x") in [c.polynomial for c in conditions]
    assert steps


def test_eliminate_identical_equations_gives_zero_system():
    reduced, conditions, _ = eliminate_variable([P("y - x"), P("y - x"), P("y - x")], "y")
    assert reduced == [Polynomial.zero(), Polynomial.zero()]


def test_eliminate_requires_the_variable():
    with pytest.raises(AllDegreeZeroError):
        eliminate_variable([P("x - 1"), P("x - 2"), P("x - 3")], "y")


# -- solve_overdetermined --------------------------------------------------------


def test_solve_three_curves_golden():
    system = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
    outcome = solve_overdetermined(system, ("x", "y"))
    assert outcome.status == "solved"
    assert outcome.solutions == [
        {"x": Fraction(1), "y": Fraction(2)},
        {"x": Fraction(2), "y": Fraction(1)},
    ]
    for point in outcome.solutions:
        for poly in system:
            assert poly.evaluate(point) == 0


def test_default_variable_order_is_name_order():
    # the variables first appear as (y, x); the default order is (x, y)
    system = [P("y + x - 1"), P("x^2 - x"), P("y^2 - y")]
    assert solve_overdetermined(system) == solve_overdetermined(system, ("x", "y"))
    assert rational_root_search(system, 2) == rational_root_search(system, 2, ("x", "y"))
    # the other order lists the same solutions the other way round
    assert solve_overdetermined(system, ("y", "x")).solutions == [
        {"x": 1, "y": 0},
        {"x": 0, "y": 1},
    ]
    assert solve_overdetermined(system).solutions == [{"x": 0, "y": 1}, {"x": 1, "y": 0}]


def test_solve_contradictory_linear_pair():
    outcome = solve_overdetermined([P("x - 1"), P("x - 2")])
    assert outcome.status == "inconsistent"


def test_solve_quadratic_pair_golden():
    outcome = solve_overdetermined([P("x^2 - 3*x + 2"), P("x^2 - 4*x + 3")])
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(1)}]


def test_solve_duplicate_family_is_degenerate():
    outcome = solve_overdetermined([P("y - x"), P("y - x"), P("y - x")], ("x", "y"))
    assert outcome.status == "degenerate"
    assert P("y - x") in outcome.residual_system


def test_solve_duplicates_of_higher_degree_are_degenerate():
    # y^2 - 1 is (y + 1)*(y - 1), a multiple of the pivot: x stays free
    outcome = solve_overdetermined([P("y - 1"), P("y - 1"), P("y^2 - 1")], ("x", "y"))
    assert outcome.status == "degenerate"
    assert outcome.residual_system == [P("y - 1")]


def test_solve_underdetermined_family_is_residual():
    outcome = solve_overdetermined([P("y - 1"), P("y - 1"), P("x*y - x")], ("x", "y"))
    assert outcome.status == "residual"
    assert P("y - 1") in outcome.residual_system
    # the pivot y - 1 clears through its constant lead 1: nothing to record
    assert outcome.conditions == []


def test_solve_shape_errors():
    with pytest.raises(SystemShapeError):
        solve_overdetermined([P("x*y - 1"), P("x + y")], ("x", "y"))
    with pytest.raises(SystemShapeError):
        solve_overdetermined([P("x*y - 1"), P("x - 1"), P("y - 1")], ("x",))
    # more than m+1 equations are accepted
    outcome = solve_overdetermined([P("x - 1"), P("x - 1"), P("x - 1")], ("x",))
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(1)}]


def test_solve_rejects_a_repeated_variable_name():
    # x - 1, x^2 - 1, x^3 - 1 solved "in (x, x)" read as degenerate before
    system = [P("x - 1"), P("x^2 - 1"), P("x^3 - 1")]
    with pytest.raises(SystemShapeError, match="repeat"):
        solve_overdetermined(system, ("x", "x"))


def test_solve_reduces_every_univariate_equation():
    # the first two equations share x^2 - 2; only the third rules it out
    f = P("x^2 - 2")
    outcome = solve_overdetermined([f * P("x - 1"), f * P("x^2 - 1"), P("x - 1")], ("x",))
    assert outcome.status == "solved"
    assert outcome.solutions == [{"x": Fraction(1)}]


def test_solve_reports_a_variable_no_equation_involves():
    # once z is eliminated no equation involves y: the solve stops there
    system = [P("z - x"), P("z - 1"), P("z - x"), P("z + x - 2")]
    outcome = solve_overdetermined(system, ("x", "y", "z"))
    assert outcome.status == "residual"
    assert outcome.residual_system == [P("x - 1"), P("x - 1"), P("z - x")]


def test_residual_keeps_back_substituted_partial_solutions():
    """x = 1 verifies while the factor x^2 - 2 stays residual; y is
    back-substituted at x = 1, and (1, 2) is returned beside the residual."""
    system = [
        P("y - 2*x"),
        P("(x - 1)*(x^2 - 2) + y - 2*x"),
        P("x*(x - 1)*(x^2 - 2) + 3*(y - 2*x)"),
    ]
    outcome = solve_overdetermined(system, ("x", "y"))
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(1), "y": Fraction(2)}]
    assert outcome.residual_system == [P("(x - 1)*(x^2 - 2)"), P("y - 2*x")]


def test_solve_residual_with_irrational_part():
    # common factor x^2 - 2 has no rational roots: reported, not invented
    f = P("x^2 - 2")
    outcome = solve_overdetermined([f * P("x - 1"), f * P("x + 3")], ("x",))
    assert outcome.status == "residual"
    assert outcome.solutions == []
    assert outcome.residual_system and not outcome.residual_system[0].is_constant()


def test_solve_verifies_candidates_against_original_system():
    rng = random.Random(21)
    for _ in range(50):
        r = Fraction(rng.randint(-3, 3))
        shared = P("x") - Polynomial.constant(r)
        f = shared * random_univariate(rng, rng.randint(1, 2))
        g = shared * random_univariate(rng, rng.randint(1, 2))
        outcome = solve_overdetermined([f, g], ("x",))
        for point in outcome.solutions:
            assert f.evaluate(point) == 0 and g.evaluate(point) == 0
        assert {"x": r} in outcome.solutions or outcome.status != "solved" or (
            # other shared roots may exist; r must be among them when solved
            any(point["x"] == r for point in outcome.solutions)
        )


def _reference_prem(f, g, var):
    """Pseudo-remainder one leading term at a time, multiplying by lc(g)
    once per power of ``var`` cleared."""
    x = Polynomial.variable(var)
    n = g.degree_in(var)
    lead = g.coefficient_in(var, n)
    remainder = f
    for k in range(f.degree_in(var) - n, -1, -1):
        top = remainder.coefficient_in(var, n + k)
        remainder = remainder * lead - g * top * x ** k
    return remainder


def test_trace_steps_are_exact_combinations():
    """Each elimination pair-reduce step records (dividend, pivot) or
    (dividend, pivot, divisor); its output times the divisor is a rational
    multiple of the pseudo-remainder of dividend by pivot."""
    three_curves = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
    chained = [P("x*y^3 + 2*y - x^2"), P("y^2*x + y + 3*x"), P("2*y^3 - x*y + 1")]
    divided = 0
    for system in (three_curves, chained):
        _, _, steps = eliminate_variable(system, "y")
        for step in steps:
            if step.kind != "pair-reduce":
                continue
            expected = _reference_prem(step.inputs[0], step.inputs[1], "y")
            recorded = step.outputs[0]
            if len(step.inputs) == 3:
                divided += 1
                recorded = recorded * step.inputs[2]
            # outputs are stored in primitive form: equal up to a rational scale
            if expected.is_zero():
                assert recorded.is_zero()
            else:
                ratio = recorded.ordered_terms()[0][1] / expected.ordered_terms()[0][1]
                assert ratio != 0
                assert recorded == expected * ratio
    assert divided > 0


def _random_coefficient(rng, others):
    """A polynomial in ``others`` with up to three terms of small rational
    coefficients; zero now and then."""
    return Polynomial([
        ({v: rng.randint(0, 2) for v in others}, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3))
    ])


def test_pseudo_remainder_matches_the_product_form():
    """The coefficient-list pseudo-remainder equals the product form
    (``_reference_prem``, which multiplies the divisor by ``top * x**k``) on
    seeded pairs in x over one to three other variables, named before and
    after x, with rational coefficients, zero coefficients inside the degree
    gap and divisors of degree 1."""
    rng = random.Random(151)
    x = Polynomial.variable("x")
    zero_tops = linear = 0
    for index in range(150):
        others = ("a", "y", "z")[: 1 + index % 3]
        degree = rng.randint(1, 3)
        gap = rng.randint(0, 4)
        divisor_coefficients = [_random_coefficient(rng, others) for _ in range(degree + 1)]
        dividend_coefficients = [_random_coefficient(rng, others) for _ in range(degree + gap + 1)]
        for coefficients in (divisor_coefficients, dividend_coefficients):
            while coefficients[-1].is_zero():
                coefficients[-1] = _random_coefficient(rng, others)
        divisor = sum(c * x ** k for k, c in enumerate(divisor_coefficients))
        dividend = sum(c * x ** k for k, c in enumerate(dividend_coefficients))
        zero_tops += any(c.is_zero() for c in dividend_coefficients[degree:-1])
        linear += degree == 1
        expected = _reference_prem(dividend, divisor, "x")
        assert reduction._pseudo_remainder(dividend, divisor, "x") == expected
    assert zero_tops >= 20 and linear >= 20


def test_lone_pivot_of_degree_two_back_substitutes_its_roots():
    """When only the pivot carries y, the y-free equations are the reduced
    system and y comes from the rational roots of the substituted pivot."""
    first = [P("y^2 + y - 6"), P("x - 1"), P("x^2 - 1")]
    outcome = solve_overdetermined(first, ("x", "y"))
    assert outcome.status == "solved"
    assert outcome.solutions == [
        {"x": Fraction(1), "y": Fraction(-3)},
        {"x": Fraction(1), "y": Fraction(2)},
    ]
    assert outcome.conditions == []
    second = [P("y^2 - 4"), P("x - 1"), P("x^2 - 1")]
    outcome = solve_overdetermined(second, ("x", "y"))
    assert outcome.status == "solved"
    assert outcome.solutions == [
        {"x": Fraction(1), "y": Fraction(-2)},
        {"x": Fraction(1), "y": Fraction(2)},
    ]
    reduced, conditions, _ = eliminate_variable(second, "y")
    assert reduced == [P("x - 1"), P("x^2 - 1")] and conditions == []


def test_lone_pivot_with_irrational_roots_stays_residual():
    """Rational roots of the substituted pivot are returned; when a factor
    without rational roots is left, the pivot stays as a residual."""
    outcome = solve_overdetermined([P("y^2 - 2"), P("x - 1"), P("x^2 - 1")], ("x", "y"))
    assert outcome.status == "residual"
    assert outcome.solutions == [] and outcome.residual_system == [P("y^2 - 2")]
    pivot = P("(y - 1)*(y^2 - 2)")
    outcome = solve_overdetermined([pivot, P("x - 1"), P("x^2 - 1")], ("x", "y"))
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(1), "y": Fraction(1)}]
    assert outcome.residual_system == [pivot]


def test_lone_pivot_skips_points_where_it_is_free_of_the_variable():
    # at x = 0 the pivot x*y^2 - x vanishes for every y: the branch is
    # skipped, and the outcome is complete only where its lead x is nonzero
    system = [P("x*y^2 - x"), P("x"), P("x^2 + x")]
    outcome = solve_overdetermined(system, ("x", "y"))
    assert outcome.status == "inconsistent"
    assert [s.kind for s in outcome.trace][-1] == "branch-skipped"
    assert outcome.conditions == [SideCondition(P("x"))]


def test_lone_pivot_too_large_to_enumerate_stays_residual():
    pivot = P("10000000000000*y^2 - 1")
    outcome = solve_overdetermined([pivot, P("x - 1"), P("x^2 - 1")], ("x", "y"))
    assert outcome.status == "residual"
    assert outcome.solutions == [] and outcome.residual_system == [pivot]


def test_small_rational_roots_beside_coefficients_too_large_to_enumerate():
    """Beyond the enumeration limit small numerators and denominators are
    still tried: the verified root is returned, and the factor without
    rational roots keeps the outcome residual."""
    factor = P("x^2 + 10000000000007")
    outcome = solve_overdetermined(
        [P("x + 3") * factor, P("x + 3") * factor * P("x - 5")], ("x",)
    )
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(-3)}]
    assert outcome.residual_system == [P("x + 3") * factor]
    outcome = solve_overdetermined(
        [P("2*x + 3") * factor, P("2*x + 3") * factor * P("x - 5")], ("x",)
    )
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(-3, 2)}]


def _reference_rational_roots(poly):
    """Every divisor pair of the lowest and the leading coefficient, each
    candidate evaluated as a ``Fraction``."""
    ints = [int(c.constant_value()) for c in poly.primitive_part().coefficients_in("x")]
    low = next(k for k, c in enumerate(ints) if c)
    roots = {Fraction(0)} if low else set()
    constant, lead = ints[low], ints[-1]
    for p in range(1, abs(constant) + 1):
        if constant % p == 0:
            for q in range(1, abs(lead) + 1):
                if lead % q == 0:
                    roots |= {r for r in (Fraction(p, q), Fraction(-p, q))
                              if poly.evaluate({"x": r}) == 0}
    return sorted(roots)


def _reference_split_off(poly, roots):
    """Divide out x - r for each root as often as it divides exactly."""
    for root in roots:
        while poly.evaluate({"x": root}) == 0:
            poly = poly.exact_quotient(Polynomial({(("x", 1),): 1, (): -root}))
    return poly


def test_integer_root_search_matches_divisor_enumeration_and_the_oracle():
    """On seeded integer polynomials with planted roots 0, 1, -1 (where
    q - p or q + p is 0) and p/q with q dividing the lead, some repeated,
    times a random cofactor: the roots equal those of a Fraction
    enumeration of every divisor pair and, within |p|, q <= 6, those of the
    oracle's exhaustive search, and what is left after the split-off is the
    exact_quotient loop's remainder up to a rational scale."""
    rng = random.Random(157)
    planted = {Fraction(1): 0, Fraction(-1): 0, Fraction(0): 0, "repeated": 0}
    for _ in range(120):
        poly = Polynomial.constant(rng.choice([-3, -2, -1, 1, 2, 6]))
        for _ in range(rng.randint(1, 4)):
            p, q = rng.choice([(0, 1), (1, 1), (-1, 1), (rng.randint(-6, 6), rng.randint(1, 6))])
            multiplicity = rng.choice([1, 1, 2, 3])
            poly = poly * Polynomial({(("x", 1),): q, (): -p}) ** multiplicity
            if Fraction(p, q) in planted:
                planted[Fraction(p, q)] += 1
            planted["repeated"] += multiplicity > 1
        poly = poly * _integer_univariate(rng, rng.randint(0, 3), 3)
        if poly.degree_in("x") < 1:
            continue
        ints = [int(c.constant_value()) for c in poly.primitive_part().coefficients_in("x")]
        roots, left = reduction._rational_roots(ints)
        assert roots == _reference_rational_roots(poly)
        boxed = {point["x"] for point in rational_root_search([poly], 6, ("x",))}
        assert boxed == {r for r in roots if abs(r.numerator) <= 6 and r.denominator <= 6}
        remaining = Polynomial({(("x", k),): c for k, c in enumerate(left)})
        assert _scale_of(remaining, _reference_split_off(poly, roots)) is not None
    assert min(planted.values()) >= 10, planted


def test_integer_root_search_at_plus_and_minus_one():
    # q - p = 0 at x = 1 and q + p = 0 at x = -1: that test is skipped, the division decides
    assert reduction._rational_roots([-1, 0, 1]) == ([Fraction(-1), Fraction(1)], [1])
    assert reduction._rational_roots([1, -2, 1]) == ([Fraction(1)], [1])
    assert reduction._rational_roots([0, 0, 1, 2, 1]) == ([Fraction(-1), Fraction(0)], [1])
    assert reduction._rational_roots([2, 0, 1]) == ([], [2, 0, 1])


def test_free_variable_over_inconsistent_equations_is_inconsistent():
    # y occurs nowhere; no x satisfies the rest, so no point does
    outcome = solve_overdetermined([P("x - 1"), P("x - 2"), P("x - 3")], ("x", "y"))
    assert outcome.status == "inconsistent"
    assert outcome.solutions == [] and outcome.conditions == []
    # with consistent equations left, the free variable stays degenerate
    outcome = solve_overdetermined([P("x - 1"), P("x - 1"), P("2*x - 2")], ("x", "y"))
    assert outcome.status == "degenerate"
    assert outcome.residual_system == [P("x - 1"), P("x - 1"), P("2*x - 2")]


# The planted-solve benchmark's labelled 3-variable degree-3 case, whose
# root is (-3, -3, 1).
RUNAWAY_3VAR = [
    "-x^3 + 3*x^2*y - 5*y*z^2 + 39",
    "-2*y^3 + y^2*z - 4*x*z - 75",
    "y^3 - 2*y^2*z + 3*z^3 + 42",
    "-8*x*z^2 + 2*z - 26",
]


def test_eliminating_two_variables_keeps_degrees_near_the_sylvester_bound():
    """Dividing out known factors keeps the x-degree after eliminating z
    and y within twice the Sylvester bound of the y-step (5*9 + 3*7 = 66);
    cross-multiplying alone reached 387."""
    system = [P(text) for text in RUNAWAY_3VAR]
    after_z, _, _ = eliminate_variable(system, "z")
    assert [p.degree_in("x") for p in after_z] == [5, 3, 2]
    after_y, _, _ = eliminate_variable(after_z, "y")
    assert max(p.degree_in("x") for p in after_y) <= 132
    root = {"x": Fraction(-3), "y": Fraction(-3), "z": Fraction(1)}
    assert all(p.evaluate(root) == 0 for p in after_z + after_y)


def _planted_system(rng, names, degree):
    """len(names)+1 equations sum c*(m - m(root)) over random monomials of
    total degree <= degree, one of exactly that degree."""
    root = {v: Fraction(rng.randint(-3, 3)) for v in names}
    exponents = [
        e for e in itertools.product(range(degree + 1), repeat=len(names))
        if 0 < sum(e) <= degree
    ]
    top = [e for e in exponents if sum(e) == degree]
    system = []
    for _ in range(len(names) + 1):
        poly = Polynomial.zero()
        for exps in [rng.choice(top)] + rng.sample(exponents, 2):
            term = Polynomial([(zip(names, exps), 1)])
            poly = poly + (term - term.evaluate(root)) * rng.choice([-5, -3, -1, 1, 2, 4])
        system.append(poly)
    return system


def _to_sympy(poly, sympy):
    return sympy.sympify(str(poly).replace("^", "**"))


def test_eliminated_polynomials_lie_in_the_input_ideal():
    """Every polynomial _eliminate returns, divided ones included, reduces
    to 0 modulo a Groebner basis of its input."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(107)
    cases = [(("x", "y"), d) for d in (2, 3, 3, 4)] * 4 + [(("x", "y", "z"), 2)] * 6
    divided = 0
    for names, degree in cases:
        system = _planted_system(rng, names, degree)
        var = names[-1]
        if all(p.degree_in(var) < 1 for p in system):
            continue
        result = _eliminate(system, var)
        divided += sum(len(step.inputs) == 3 for step in result.steps)
        symbols = sympy.symbols(names)
        basis = sympy.groebner([_to_sympy(p, sympy) for p in system], *symbols, order="grevlex")
        for poly in result.reduced + [result.pivot]:
            assert basis.reduce(_to_sympy(poly, sympy))[1] == 0, (system, poly)
    assert divided > 5


def test_pair_elimination_ends_at_the_resultant():
    """For two equations the pivots form a reduced remainder sequence,
    which ends at the Sylvester resultant up to a rational factor when
    every degree gap after the first is 1."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(109)
    x, y = sympy.symbols("x y")
    compared = 0
    for _ in range(12):
        degrees = sorted((rng.randint(1, 4), rng.randint(1, 4)), reverse=True)
        pair = []
        for degree in degrees:
            poly = Polynomial.zero()
            for k in range(degree + 1):
                coeff = Polynomial.constant(rng.randint(-3, 3)) + P("x") * rng.randint(-2, 2)
                if k == degree and coeff.is_zero():
                    coeff = P("x + 1")
                poly = poly + coeff * P("y") ** k
            pair.append(poly)
        result = _eliminate(pair, "y")
        gaps = [step.inputs[0].degree_in("y") - step.inputs[1].degree_in("y")
                for step in result.steps]
        if any(gap != 1 for gap in gaps[1:]) or result.reduced[0].is_zero():
            continue
        resultant = sympy.Poly(sympy.resultant(*(_to_sympy(p, sympy) for p in pair), y), x)
        ours = sympy.Poly(_to_sympy(result.reduced[0], sympy), x)
        assert ours.degree() == resultant.degree()
        assert sympy.simplify(ours.as_expr() / resultant.as_expr()).is_Rational
        compared += 1
    assert compared >= 6


def _random_combination(rng, variables, generators, parts=1):
    poly = Polynomial.zero()
    for gen in generators:
        factor = Polynomial.zero()
        for _ in range(rng.randint(1, 2)):
            term = Polynomial.constant(Fraction(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, parts)):
                term = term * Polynomial.variable(rng.choice(variables))
            factor = factor + term
        poly = poly + factor * gen
    return poly


def test_solve_fuzz_bivariate_planted_root():
    """Random systems vanishing at a planted point: every claimed solution
    verifies, and the planted point is recovered on most draws."""
    rng = random.Random(77)
    found = total = 0
    for _ in range(60):
        planted = {"x": Fraction(rng.randint(-2, 2)), "y": Fraction(rng.randint(-2, 2))}
        generators = [
            Polynomial.variable(v) - Polynomial.constant(c) for v, c in planted.items()
        ]
        system = [
            _random_combination(rng, ("x", "y"), generators) for _ in range(3)
        ]
        outcome = solve_overdetermined(system, ("x", "y"))
        total += 1
        for point in outcome.solutions:
            assert all(p.evaluate(point) == 0 for p in system)
        if planted in outcome.solutions:
            found += 1
    assert found >= total // 2


def test_solve_fuzz_trivariate_two_levels():
    """Two elimination levels end to end: no crashes, exact verification."""
    rng = random.Random(99)
    found = total = 0
    for _ in range(40):
        planted = {v: Fraction(rng.randint(-2, 2)) for v in ("x", "y", "z")}
        generators = [
            Polynomial.variable(v) - Polynomial.constant(c) for v, c in planted.items()
        ]
        system = [
            _random_combination(rng, ("x", "y", "z"), generators) for _ in range(4)
        ]
        outcome = solve_overdetermined(system, ("x", "y", "z"))
        total += 1
        for point in outcome.solutions:
            assert all(p.evaluate(point) == 0 for p in system)
        if planted in outcome.solutions:
            found += 1
    assert found >= total // 3


def test_packed_division_leaves_every_solve_unchanged(monkeypatch):
    """Seeded planted 2- and 3-variable systems, and the runaway case, solve
    to the same JSON, with the same term order in every residual and
    condition, whether the reduced-PRS divisions run packed or on the
    tuple-heap reference."""
    rng = random.Random(1033)
    cases = [(("x", "y"), d) for d in (2, 3, 4)] * 8 + [(("x", "y", "z"), d) for d in (2, 3)] * 5
    systems = [(names, _planted_system(rng, names, d)) for names, d in cases]
    systems.append((("x", "y", "z"), [P(text) for text in RUNAWAY_3VAR]))

    def solve_all():
        results = []
        for names, system in systems:
            outcome = solve_overdetermined(system, names)
            stored = [(list(p._terms.items()), p._den) for p in outcome.residual_system]
            stored += [(list(c.polynomial._terms.items()), c.polynomial._den)
                       for c in outcome.conditions]
            results.append((to_json(outcome_to_dict(outcome, names)), stored))
        return results

    packed = solve_all()
    divisors = []

    def reference(dividend, divisor):
        divisors.append(divisor)
        return _reference_exact_quotient(dividend, divisor)

    monkeypatch.setattr(Polynomial, "exact_quotient", reference)
    assert solve_all() == packed
    assert sum(not divisor.is_constant() for divisor in divisors) >= 20


def test_solve_accounts_for_every_small_rational_root():
    """Differential check against the oracle's exhaustive search: each root
    it finds is returned, lies on the residual, or lies on a nonconstant
    recorded condition that vanishes there."""
    rng = random.Random(113)
    roots_seen = 0
    cases = [(("x",), d) for d in range(2, 9)] * 6 + [(("x", "y"), d) for d in (2, 3, 4)] * 10
    for names, degree in cases:
        system = _planted_system(rng, names, degree)
        if rng.random() < 0.3:
            # one more equation through the same root: more than m+1
            system.append(system[0] * Polynomial.variable(names[0]) - system[-1] * 2)
        outcome = solve_overdetermined(system, names)
        conditions = [c.polynomial for c in outcome.conditions if not c.polynomial.is_constant()]
        for root in rational_root_search(system, 3, names):
            roots_seen += 1
            assert (
                root in outcome.solutions
                or (outcome.residual_system
                    and all(q.evaluate(root) == 0 for q in outcome.residual_system))
                or any(c.evaluate(root) == 0 for c in conditions)
            ), (system, root, outcome.status)
    assert roots_seen >= len(cases)


# -- a univariate level as a gcd -------------------------------------------------


def _integer_univariate(rng, degree, bits):
    """A random integer polynomial in x of exactly ``degree``, coefficients
    of up to ``bits`` bits."""
    coeffs = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 2 ** bits))
    return Polynomial({(("x", k),): c for k, c in enumerate(coeffs)})


def _gcd_cases(seed):
    """Pairs with a planted common factor, coprime pairs and pairs where one
    divides the other, at 4-, 20- and 80-bit coefficients; each inside a
    list that sometimes also holds a zero and a constant equation."""
    rng = random.Random(seed)
    for index, kind in enumerate(["planted", "coprime", "divides"] * 12):
        bits = (4, 20, 80)[index % 3]
        common = _integer_univariate(rng, rng.randint(1, 4), bits)
        if kind == "coprime":
            common = Polynomial.constant(1)
        f = common * _integer_univariate(rng, rng.randint(1, 5), bits)
        cofactor = _integer_univariate(rng, rng.randint(1, 5), bits)
        g = f * cofactor if kind == "divides" else common * cofactor
        equations = [f, g]
        if index % 2:
            equations.insert(rng.randint(0, 2), Polynomial.zero())
            equations.insert(rng.randint(0, 3), Polynomial.constant(rng.randint(1, 9)))
        yield f, g, equations


def _scale_of(f, g):
    """The rational r with f == r * g, or None."""
    ratio = f.ordered_terms()[0][1] / g.ordered_terms()[0][1]
    return ratio if f == g * ratio else None


def test_univariate_level_is_the_gcd_of_its_equations():
    """Differential check of the gcd kernel against the oracle's Euclidean
    gcd: the level records one gcd step and no condition, its output is the
    gcd up to a rational scale (primitive, positive lead), equations free of
    x pass unchanged, and the others reduce to 0 or, for a gcd of 1, leave
    one nonzero constant."""
    for f, g, equations in _gcd_cases(131):
        result = _eliminate(equations, "x")
        expected = gcd_univariate(f, g, "x")
        assert [step.kind for step in result.steps] == ["gcd"]
        assert result.steps[0].inputs == (f, g)
        found = result.steps[0].outputs[0]
        assert _scale_of(found, expected) is not None
        assert found == found.primitive_part() and found.ordered_terms()[0][1] > 0
        assert result.conditions == []
        degree = expected.degree_in("x")
        first, second = sorted((f, g), key=lambda p: p.degree_in("x"))
        duplicates = degree == first.degree_in("x")
        assert result.duplicates_only == duplicates
        assert result.pivot is (first if duplicates or degree == 0 else found)
        rest = Polynomial.constant(1) if degree == 0 else Polynomial.zero()
        assert result.reduced == [rest if p is second else p for p in equations if p is not first]


def test_univariate_gcd_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for f, g, equations in _gcd_cases(137):
        found = _eliminate(equations, "x").steps[0].outputs[0]
        reference = sympy.gcd(_to_sympy(f, sympy), _to_sympy(g, sympy))
        ours = sympy.Poly(_to_sympy(found, sympy), x)
        assert ours.degree() == sympy.Poly(reference, x).degree()
        assert sympy.simplify(ours.as_expr() / reference).is_Rational


def test_heuristic_gcd_grows_its_evaluation_point(monkeypatch):
    # -(x+2)*(4*x+1) and -(x+2)*(x+3): at xi = 41 the integer gcd
    # 473 = 11*43 reads back as 12*x - 19, which divides neither
    f, g = [-2, -9, -4], [-6, -5, -1]
    assert reduction._heuristic_gcd(f, g) == [2, 1]
    monkeypatch.setattr(reduction, "_HEURISTIC_GCD_TRIES", 1)
    assert reduction._heuristic_gcd(f, g) is None


def test_pseudo_remainders_take_over_when_the_heuristic_gives_up(monkeypatch):
    """With the heuristic gcd made to fail, the same solves run through the
    pseudo-remainder loop and reach the same statuses and solutions, with
    residual pivots equal up to a rational scale."""
    rng = random.Random(139)
    cases = [(("x",), [P("(x-2)*(x^2+3)*(x+1)"), P("(x-2)*(x^2+3)*(x-4)")]),
             (("x",), [P("x^2 - 1"), P("x^2 - 4")]),
             (("x", "y"), [P("y - 1"), P("y - 1"), P("y^2 - 1")])]
    cases += [(("x",), _planted_system(rng, ("x",), d)) for d in range(2, 9)] * 2
    cases += [(("x", "y"), _planted_system(rng, ("x", "y"), d)) for d in (2, 3)] * 4
    expected = [solve_overdetermined(system, names) for names, system in cases]
    assert any(step.kind == "gcd" for outcome in expected for step in outcome.trace)
    monkeypatch.setattr(reduction, "_heuristic_gcd", lambda f, g: None)
    for (names, system), before in zip(cases, expected):
        after = solve_overdetermined(system, names)
        assert all(step.kind != "gcd" for step in after.trace)
        assert (after.status, after.solutions) == (before.status, before.solutions)
        assert len(after.residual_system) == len(before.residual_system)
        for old, new in zip(before.residual_system, after.residual_system):
            assert _scale_of(new, old) is not None


def test_univariate_pivot_is_the_gcd_with_a_positive_lead():
    outcome = solve_overdetermined(
        [P("(x-2)*(x^2+3)*(x+1)"), P("(x-2)*(x^2+3)*(x-4)")], ("x",)
    )
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(2)}]
    assert [str(p) for p in outcome.residual_system] == ["x^3 - 2*x^2 + 3*x - 6"]
    assert outcome.trace[0].kind == "gcd" and outcome.conditions == []
    # coprime equations leave a nonzero constant: no x satisfies both
    outcome = solve_overdetermined([P("x^2 - 1"), P("x^2 - 4"), P("x^3 - 8")], ("x",))
    assert outcome.status == "inconsistent"


def test_runaway_solve_keeps_its_coefficients_small():
    """The labelled 3-variable degree-3 system: its last level is a gcd, so
    no trace polynomial grows past a few hundred bits (a pseudo-remainder
    sequence there reached 29,466)."""
    outcome = solve_overdetermined([P(text) for text in RUNAWAY_3VAR], ("x", "y", "z"))
    assert outcome.status == "residual"
    assert outcome.solutions == [{"x": Fraction(-3), "y": Fraction(-3), "z": Fraction(1)}]
    bits = max(
        max(abs(coeff.numerator).bit_length(), coeff.denominator.bit_length())
        for step in outcome.trace
        for poly in step.inputs + step.outputs
        for _, coeff in poly.ordered_terms()
    )
    assert bits < 1000
