"""Acceptance suite: one test per criterion, exact checks, stated time budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from overdet.jets import (
    JetVar,
    PdeSystem,
    jet_name,
    minimal_orders,
    parse_jet_name,
    prolong,
    top_order_extraction,
    total_derivative,
)
from overdet.oracle import gcd_univariate, rational_root_search, sylvester_resultant
from overdet.poly import Polynomial, parse_polynomial
from overdet.rank import active_unknown_bound, certify, exact_rank
from overdet.reduction import (
    eliminate_variable,
    reduce_chain,
    reduce_pair,
    solve_overdetermined,
)

from helpers import (
    common_rational_roots,
    count_active_unknowns,
    is_identically_violated,
    random_univariate,
    rational_roots_of,
)

P = parse_polynomial


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_quadratic_golden_case():
    with criterion(1, "quadratic golden case", budget=1.0):
        f, g = P("x^2 - 3*x + 2"), P("x^2 - 4*x + 3")
        outcome = solve_overdetermined([f, g], ("x",))
        assert outcome.status == "solved"
        assert outcome.solutions == [{"x": Fraction(1)}]
        assert outcome.conditions == []
        # the paper's pair chain reaches the same root
        chain = reduce_chain(f, g, "x")
        assert chain.solutions == [{"x": Fraction(1)}]
        # the linear terminal's consistency determinant is exactly zero
        terminal = [s for s in chain.trace if s.kind == "linear-solve"][-1]
        assert terminal.outputs[0] == Polynomial.zero()
        # the pair step records its top-coefficient condition, -1; a nonzero
        # constant says nothing, so the outcome leaves it out
        reduce_step = [s for s in chain.trace if s.kind == "pair-reduce"][0]
        assert Polynomial.constant(-1) in [c.polynomial for c in reduce_step.conditions]
        assert chain.conditions == []


def test_criterion_02_equivalence_theorem_property():
    with criterion(2, "equivalence of lowered pairs (1000 cases)", budget=30.0):
        rng = random.Random(1002)
        checked = 0
        trials = 0
        while checked < 1000:
            trials += 1
            assert trials < 5000
            degree = rng.randint(1, 6)
            f = random_univariate(rng, degree)
            g = random_univariate(rng, degree)
            c, d, conditions = reduce_pair(f, g, "x")
            if is_identically_violated(conditions[-1]):
                continue  # the top-coefficient condition fails identically
            checked += 1
            assert common_rational_roots(f, g) == common_rational_roots(c, d)


def test_criterion_03_inconsistency_detection():
    with criterion(3, "inconsistency detection (200 cases)", budget=10.0):
        rng = random.Random(1003)
        coprime_seen = shared_seen = 0
        while coprime_seen < 100 or shared_seen < 100:
            if rng.random() < 0.5 and coprime_seen < 100:
                f = random_univariate(rng, rng.randint(1, 3))
                g = random_univariate(rng, rng.randint(1, 3))
                gcd = gcd_univariate(f, g, "x")
                if not gcd.is_constant():
                    continue
                coprime_seen += 1
                outcome = solve_overdetermined([f, g], ("x",))
                assert outcome.status == "inconsistent"
            elif shared_seen < 100:
                root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                shared = P("x") - Polynomial.constant(root)
                f = shared * random_univariate(rng, rng.randint(1, 3))
                g = shared * random_univariate(rng, rng.randint(1, 3))
                gcd = gcd_univariate(f, g, "x")
                if gcd.degree_in("x") != 1:
                    continue  # cofactors happened to share structure
                shared_seen += 1
                outcome = solve_overdetermined([f, g], ("x",))
                assert outcome.status == "solved"
                gcd_root = -gcd.coefficient_in("x", 0).constant_value()
                assert outcome.solutions == [{"x": gcd_root}]
                assert gcd_root == root


def _count_test_system(p: int, n: int, m: int) -> PdeSystem:
    base = tuple("xyz"[:m])
    equations = []
    for k in range(1, p + n + 1):
        v = (k - 1) % p + 1
        first = [0] * m
        first[(k - 1) % m] = 1
        poly = (
            Polynomial.variable(jet_name(v, tuple(first)))
            - Polynomial.variable(jet_name(v, (0,) * m)) * k
        )
        equations.append(poly)
    return PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))


def test_criterion_04_count_formulas_and_bijections():
    with criterion(4, "count formulas and encoder bijections"):
        for p, n, m in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
            system = _count_test_system(p, n, m)
            for orders in itertools.product((1, 2, 3), repeat=m):
                plain = prolong(system, orders)
                extended = prolong(system, orders, extended=True)
                product = 1
                for order in orders:
                    product *= order
                plus_one = 1
                for order in orders:
                    plus_one *= order + 1
                plus_two = 1
                for order in orders:
                    plus_two *= order + 2
                assert len(plain.equations) == (p + n) * product == plain.n_h
                assert len(plain.unknowns()) == p * plus_one == plain.n_s
                assert len(extended.equations) == (p + n) * plus_one == extended.n_h
                assert len(extended.unknowns()) == p * plus_two == extended.n_s
                for codec in (plain.codec, extended.codec):
                    images = set()
                    for index, k, i in codec.iter_equations():
                        assert codec.encode_equation(k, i) == index
                        images.add(index)
                    assert images == set(range(1, codec.equation_count + 1))
                    images = set()
                    for index, v, j in codec.iter_unknowns():
                        assert codec.encode_unknown(v, j) == index
                        images.add(index)
                    assert images == set(range(1, codec.unknown_count + 1))


def _random_jet_system(rng: random.Random) -> PdeSystem:
    p = rng.randint(1, 2)
    m = rng.randint(1, 2)
    n = rng.randint(1, 2)
    base = tuple("xyz"[:m])
    names = list(base)
    for v in range(1, p + 1):
        names.append(jet_name(v, (0,) * m))
        for s in range(m):
            j = [0] * m
            j[s] = 1
            names.append(jet_name(v, tuple(j)))
    equations = []
    for _ in range(p + n):
        poly = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * Polynomial.variable(rng.choice(names))
            poly = poly + term
        if poly.is_zero():
            poly = Polynomial.variable(names[-1])
        equations.append(poly)
    return PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))


def test_criterion_05_recurrence_commutation_and_boundary():
    with criterion(5, "derivative recurrence commutes (100 systems)"):
        rng = random.Random(1005)
        for _ in range(100):
            system = _random_jet_system(rng)
            orders = tuple(rng.randint(1, 2) for _ in range(system.m))
            extended = prolong(system, orders, extended=True)
            codec = extended.codec
            for index, k, i in codec.iter_equations():
                equation = extended.equations[index]
                for s in range(1, system.m + 1):
                    shifted = list(i)
                    shifted[s - 1] += 1
                    if shifted[s - 1] > codec.orders[s - 1]:
                        continue
                    direct = extended.equations[codec.encode_equation(k, tuple(shifted))]
                    assert total_derivative(equation, s, codec, system.base_vars) == direct
                # no equation may touch unknowns beyond one step past its index
                for var in equation.variables():
                    jet = parse_jet_name(var, system.m)
                    if jet is None:
                        continue
                    assert all(jc <= ic + 1 for jc, ic in zip(jet.j, i))
                    assert sum(jet.j) <= sum(i) + 1
                    # partials by out-of-range unknowns vanish identically
                    for s in range(1, system.m + 1):
                        beyond = list(jet.j)
                        beyond[s - 1] = i[s - 1] + 2
                        out_of_range = jet_name(jet.v, tuple(beyond))
                        assert equation.partial_derivative(out_of_range).is_zero()


def test_criterion_06_active_unknown_bound():
    with criterion(6, "active unknown count respects the shape bound"):
        rng = random.Random(1006)
        for _ in range(60):
            system = _random_jet_system(rng)
            orders = tuple(rng.randint(1, 3) for _ in range(system.m))
            for extended in (False, True):
                prolonged = prolong(system, orders, extended=extended)
                count = count_active_unknowns(prolonged)
                assert Fraction(count) <= active_unknown_bound(prolonged.codec)


def test_criterion_07_order_minimization_estimate():
    with criterion(7, "order minimization against the closed-form estimate"):
        discrepancies = []
        for p, n, m in itertools.product((1, 2, 3), repeat=3):
            result = minimal_orders(p, n, m, cap=20)
            expected_holds = Fraction(result.n_h) >= result.estimate
            assert result.estimate_holds == expected_holds
            assert result.n_h >= result.n_s
            if not result.estimate_holds:
                discrepancies.append((p, n, m, result.orders, result.n_h, result.estimate))
        if discrepancies:
            print("estimate discrepancies (flagged, not hidden):")
            for entry in discrepancies:
                print("  p=%s n=%s m=%s orders=%s N_H=%s estimate=%s" % entry)


def test_criterion_08_bivariate_elimination():
    with criterion(8, "bivariate elimination and full solve", budget=5.0):
        circle, hyperbola, line = P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")
        system = [circle, hyperbola, line]
        reduced, conditions, _ = eliminate_variable(system, "y")
        assert len(reduced) == 2
        common = set.intersection(*(rational_roots_of(poly) for poly in reduced))
        assert common == {Fraction(1), Fraction(2)}
        res_circle_line = sylvester_resultant(circle, line, "y")
        assert res_circle_line == P("2*x^2 - 6*x + 4")
        assert rational_roots_of(res_circle_line) == {Fraction(1), Fraction(2)}
        res_hyperbola_line = sylvester_resultant(hyperbola, line, "y")
        assert rational_roots_of(res_hyperbola_line) == {Fraction(1), Fraction(2)}
        assert P("x") in [c.polynomial for c in conditions]
        outcome = solve_overdetermined(system, ("x", "y"))
        assert outcome.status == "solved"
        expected = [
            {"x": Fraction(1), "y": Fraction(2)},
            {"x": Fraction(2), "y": Fraction(1)},
        ]
        assert outcome.solutions == expected
        assert rational_root_search(system, 5, ("x", "y")) == expected


def test_criterion_09_ode_pipeline():
    with criterion(9, "ODE pipeline with certification", budget=5.0):
        system = PdeSystem(
            p=1, n=1, base_vars=("x",),
            equations=(P("S1[1] - S1[0]^2"), P("S1[1] - S1[0]")),
        )
        level_zero = prolong(system, (1,))
        extraction = top_order_extraction(system, level_zero, (0,))
        assert extraction.ok
        assert extraction.solved[JetVar(1, (1,))][0] == P("S1[0]^2")
        assert extraction.residuals == [P("S1[0]^2 - S1[0]")]

        prolonged = prolong(system, (2,))
        equations = [poly for _, poly in prolonged.equation_items()]
        # eliminating the top jet leaves the lowered constraint (2*S - 1)*S'
        reduced, _, _ = eliminate_variable(equations, "S1[2]")
        assert P("2*S1[0]*S1[1] - S1[1]") in reduced
        variables = [jet.name for _, jet in sorted(prolonged.unknowns().items())]
        outcome = solve_overdetermined(equations, variables)
        assert outcome.status == "solved"
        zero = Fraction(0)
        assert outcome.solutions == [{"S1[0]": zero, "S1[1]": zero, "S1[2]": zero}]
        report = certify(prolonged, outcome.solutions[0])
        assert report.certified
        assert report.rank == report.n_s_real == 3


def test_criterion_10_negative_certification():
    with criterion(10, "rank test refuses a non-isolated family", budget=1.0):
        system = PdeSystem(
            p=1, n=1, base_vars=("x",),
            equations=(P("S1[1] - S1[0]"), P("S1[0]*S1[1] - S1[0]^2")),
        )
        prolonged = prolong(system, (1,))
        point = {"S1[0]": Fraction(1), "S1[1]": Fraction(1)}
        report = certify(prolonged, point)
        assert report.rank == 1
        assert report.n_s_real == 2
        assert not report.certified


def test_criterion_11_oracle_independence():
    with criterion(11, "rank oracle equivalence and solver cross-checks"):
        rng = random.Random(1011)

        def naive_rank(rows):
            work = [list(row) for row in rows]
            rank = 0
            cols = len(work[0]) if work else 0
            for col in range(cols):
                pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
                if pivot is None:
                    continue
                work[rank], work[pivot] = work[pivot], work[rank]
                inv = Fraction(1) / work[rank][col]
                work[rank] = [value * inv for value in work[rank]]
                for r in range(len(work)):
                    if r != rank and work[r][col] != 0:
                        factor = work[r][col]
                        work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
                rank += 1
            return rank

        for _ in range(500):
            n_rows = rng.randint(1, 8)
            n_cols = rng.randint(1, 8)
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            if rng.random() < 0.3 and n_rows >= 2:
                rows[-1] = [value * 3 for value in rows[0]]
            assert exact_rank(rows) == naive_rank(rows)

        # solver agreement with the gcd oracle on freshly drawn solvable pairs
        solved_cases = 0
        while solved_cases < 100:
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            shared = P("x") - Polynomial.constant(root)
            f = shared * random_univariate(rng, rng.randint(1, 2))
            g = shared * random_univariate(rng, rng.randint(1, 2))
            gcd = gcd_univariate(f, g, "x")
            if gcd.degree_in("x") != 1:
                continue
            solved_cases += 1
            outcome = solve_overdetermined([f, g], ("x",))
            assert outcome.status == "solved"
            assert outcome.solutions[0]["x"] == -gcd.coefficient_in("x", 0).constant_value()

        # solver agreement with the resultant oracle on the bivariate system
        system = [P("x^2 + y^2 - 5"), P("x*y - 2"), P("x + y - 3")]
        outcome = solve_overdetermined(system, ("x", "y"))
        projections = {point["x"] for point in outcome.solutions}
        res = sylvester_resultant(system[0], system[2], "y")
        assert projections == rational_roots_of(res)
