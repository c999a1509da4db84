"""Degree-lowering reduction: pair step, chain, elimination, full solve."""

import random
from fractions import Fraction

import pytest

from overdet.errors import (
    AllDegreeZeroError,
    DegreeMismatchError,
    NotUnivariateError,
    SystemShapeError,
)
from overdet.oracle import gcd_univariate
from overdet.poly import Polynomial, parse_polynomial
from overdet.reduction import (
    eliminate_variable,
    reduce_chain,
    reduce_pair,
    solve_overdetermined,
)
from helpers import common_rational_roots, random_univariate, rational_roots_of

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
    assert conditions[-1].is_identically_violated()


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
        if conditions[-1].is_identically_violated():
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
    # the recorded top-coefficient condition held with value -1
    assert Polynomial.constant(-1) in [c.polynomial for c in outcome.conditions]


def test_chain_disjoint_quadratics_inconsistent():
    outcome = reduce_chain(P("x^2 - 1"), P("x^2 - 4"), "x")
    assert outcome.status == "inconsistent"
    assert gcd_univariate(P("x^2 - 1"), P("x^2 - 4"), "x").is_constant()


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


def test_solve_underdetermined_family_is_residual():
    outcome = solve_overdetermined([P("y - 1"), P("y - 1"), P("x*y - x")], ("x", "y"))
    assert outcome.status == "residual"
    assert P("y - 1") in outcome.residual_system
    assert outcome.conditions  # a clearing condition was recorded


def test_solve_shape_errors():
    with pytest.raises(SystemShapeError):
        solve_overdetermined([P("x*y - 1"), P("x + y")], ("x", "y"))
    with pytest.raises(SystemShapeError):
        solve_overdetermined([P("x - 1"), P("x - 1"), P("x - 1")], ("x",))


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


def test_trace_steps_are_exact_combinations():
    """Elimination pair-reduce steps reproduce from inputs and recorded leads."""
    system = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
    _, _, steps = eliminate_variable(system, "y")
    y = Polynomial.variable("y")
    for step in steps:
        if step.kind != "pair-reduce":
            continue
        reduced, pivot = step.inputs
        degree = int(reduced.degree_in("y"))
        pivot_degree = int(pivot.degree_in("y"))
        lead = reduced.coefficient_in("y", degree)
        pivot_lead = pivot.coefficient_in("y", pivot_degree)
        expected = reduced * pivot_lead - pivot * lead * y ** (degree - pivot_degree)
        # outputs are stored in primitive form: equal up to a rational scale
        recorded = step.outputs[0]
        if expected.is_zero():
            assert recorded.is_zero()
        else:
            ratio = recorded.ordered_terms()[0][1] / expected.ordered_terms()[0][1]
            assert ratio != 0
            assert recorded == expected * ratio


def _random_combination(rng, variables, generators, parts=1):
    poly = Polynomial.zero(variables)
    for gen in generators:
        factor = Polynomial.zero(variables)
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
