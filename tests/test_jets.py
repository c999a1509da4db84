"""Jet codecs, total derivatives, prolongation, extraction, order search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from overdet.errors import IndexRangeError, SystemShapeError
from overdet.jets import (
    IndexCodec,
    JetVar,
    PdeSystem,
    TopOrderResult,
    jet_name,
    minimal_orders,
    parse_jet_name,
    prolong,
    top_order_extraction,
    total_derivative,
)
from overdet.poly import Polynomial, determinant, parse_polynomial
from overdet.reduction import SideCondition

P = parse_polynomial


# -- jet names -------------------------------------------------------------


def test_jet_name_roundtrip():
    jet = JetVar(2, (1, 0, 3))
    assert jet.name == "S2[1,0,3]"
    assert parse_jet_name(jet.name) == jet
    assert parse_jet_name("S1", 2) == JetVar(1, (0, 0))
    assert parse_jet_name("x") is None


# -- index codecs ------------------------------------------------------------


def test_encode_equation_plain_golden():
    codec = IndexCodec(p=1, n=1, orders=(3,))
    assert codec.encode_equation(2, (1,)) == 4
    assert codec.encode_equation(1, (0,)) == 1


def test_encode_equation_extended_golden():
    codec = IndexCodec(p=1, n=1, orders=(1, 1), extended=True)
    assert codec.encode_equation(1, (1, 1)) == 7


def test_encode_unknown_plain_golden():
    codec = IndexCodec(p=1, n=1, orders=(3,))
    assert codec.encode_unknown(1, (2,)) == 3
    assert codec.encode_unknown(1, (0,)) == 1


def test_encode_unknown_extended_golden():
    codec = IndexCodec(p=2, n=1, orders=(1, 1), extended=True)
    assert codec.encode_unknown(2, (2, 1)) == 12


def test_codec_range_errors():
    codec = IndexCodec(p=1, n=1, orders=(2,))
    with pytest.raises(IndexRangeError):
        codec.encode_equation(3, (0,))
    with pytest.raises(IndexRangeError):
        codec.encode_equation(1, (2,))  # plain range stops at N1 - 1
    with pytest.raises(IndexRangeError):
        codec.encode_unknown(1, (3,))
    with pytest.raises(IndexRangeError):
        codec.decode_equation(0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.booleans(),
)
def test_codec_bijectivity(p, n, orders, extended):
    codec = IndexCodec(p=p, n=n, orders=tuple(orders), extended=extended)
    seen = set()
    for index, k, i in codec.iter_equations():
        assert codec.encode_equation(k, i) == index
        seen.add(index)
    assert seen == set(range(1, codec.equation_count + 1))
    seen = set()
    for index, v, j in codec.iter_unknowns():
        assert codec.encode_unknown(v, j) == index
        seen.add(index)
    assert seen == set(range(1, codec.unknown_count + 1))


# -- total derivative ----------------------------------------------------------


def test_total_derivative_riccati_style():
    codec = IndexCodec(p=1, n=1, orders=(2,))
    result = total_derivative(P("S1[1] - S1[0]^2"), 1, codec, ("x",))
    assert result == P("S1[2] - 2*S1[0]*S1[1]")


def test_total_derivative_of_base_variable():
    codec = IndexCodec(p=1, n=1, orders=(2,))
    assert total_derivative(P("x"), 1, codec, ("x",)) == Polynomial.constant(1)


def test_total_derivative_product_rule_on_jets():
    codec = IndexCodec(p=1, n=1, orders=(1, 1))
    result = total_derivative(P("S1[1,0]*S1[0,1]"), 1, codec, ("x", "y"))
    assert result == P("S1[2,0]*S1[0,1] + S1[1,0]*S1[1,1]")


def test_total_derivative_range_guard():
    codec = IndexCodec(p=1, n=1, orders=(1,))
    # one derivative past the extended bound is rejected
    with pytest.raises(IndexRangeError):
        total_derivative(P("S1[2]"), 1, codec, ("x",))



def _leibniz_total_derivative(poly, s, codec, base_vars):
    """Reference: one partial per occurring jet, times its shift along s,
    plus the partial by the s-th base variable."""
    result = Polynomial.zero(poly.variable_table)
    if len(base_vars) > s - 1:
        result = result + poly.partial_derivative(base_vars[s - 1])
    for var in poly.variables():
        jet = parse_jet_name(var, codec.m)
        if jet is not None:
            shifted = Polynomial.variable(jet.shifted(s).name)
            result = result + poly.partial_derivative(var) * shifted
    return result


def test_total_derivative_matches_leibniz_formula():
    rng = random.Random(61)
    codec = IndexCodec(p=2, n=1, orders=(2, 2))
    base = ("x", "y")
    # S1[1,0] and S1[0,0] together: deriving S1[0,0] along x yields a jet
    # already present in the monomial
    names = list(base) + [jet_name(v, j) for v in (1, 2) for j in ((0, 0), (1, 0), (0, 1), (1, 1))]
    for _ in range(200):
        poly = Polynomial.from_terms(
            [
                (
                    {v: rng.randint(1, 3) for v in rng.sample(names, rng.randint(0, 3))},
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                )
                for _ in range(rng.randint(1, 5))
            ],
            names[::-1],
        )
        for s in (1, 2):
            fast = total_derivative(poly, s, codec, base)
            reference = _leibniz_total_derivative(poly, s, codec, base)
            assert fast == reference
            assert fast.variable_table == reference.variable_table
    assert total_derivative(P("S1[0,0]^2*S1[1,0]*x^3"), 1, codec, base) == P(
        "2*S1[0,0]*S1[1,0]^2*x^3 + S1[0,0]^2*S1[2,0]*x^3 + 3*S1[0,0]^2*S1[1,0]*x^2"
    )

# -- prolongation -----------------------------------------------------------


def _ode_system(expr1: str, expr2: str) -> PdeSystem:
    return PdeSystem(
        p=1, n=1, base_vars=("x",), equations=(P(expr1), P(expr2))
    )


def test_prolong_counts_golden():
    system = _ode_system("S1[1] - S1[0]", "S1[1] - S1[0]^2")
    plain = prolong(system, (3,))
    extended = prolong(system, (3,), extended=True)
    assert (plain.n_h, plain.n_s) == (6, 4)
    assert (extended.n_h, extended.n_s) == (8, 5)
    codec = IndexCodec(1, 1, (3,))
    assert (codec.equation_count, codec.unknown_count) == (6, 4)
    codec = IndexCodec(1, 1, (3,), extended=True)
    assert (codec.equation_count, codec.unknown_count) == (8, 5)


def test_prolong_first_derivative_entry():
    system = _ode_system("S1[1] - S1[0]", "S1[1] - S1[0]^2")
    prolonged = prolong(system, (2,))
    index = prolonged.codec.encode_equation(1, (1,))
    assert prolonged.equations[index] == P("S1[2] - S1[1]")
    index2 = prolonged.codec.encode_equation(2, (1,))
    assert prolonged.equations[index2] == P("S1[2] - 2*S1[0]*S1[1]")


def test_prolong_restricts_extended():
    system = _ode_system("S1[1] - S1[0]", "S1[1] - S1[0]^2")
    plain = prolong(system, (2,))
    extended = prolong(system, (2,), extended=True)
    for index, k, i in plain.codec.iter_equations():
        ext_index = extended.codec.encode_equation(k, i)
        assert plain.equations[index] == extended.equations[ext_index]


def test_prolong_normalizes_short_jet_tokens():
    system = PdeSystem(p=1, n=1, base_vars=("x",), equations=(P("S1[1] - S1"), P("S1[1] - 2*S1")))
    prolonged = prolong(system, (1,))
    first = prolonged.equations[1]
    assert "S1[0]" in first.variables()


def test_support_and_boundary_rules():
    """Every prolonged equation only contains jets within one order of its index."""
    rng = random.Random(13)
    for _ in range(20):
        system = _random_pde(rng, p=rng.randint(1, 2), m=rng.randint(1, 2))
        orders = tuple(rng.randint(1, 2) for _ in range(system.m))
        prolonged = prolong(system, orders, extended=True)
        for index, k, i in prolonged.codec.iter_equations():
            for var in prolonged.equations[index].variables():
                jet = parse_jet_name(var, system.m)
                if jet is None:
                    continue
                assert all(jc <= ic + 1 for jc, ic in zip(jet.j, i))
                assert sum(jet.j) <= sum(i) + 1


def test_recurrence_commutation():
    """Deriving a prolonged equation equals the directly generated shift."""
    rng = random.Random(17)
    for _ in range(30):
        system = _random_pde(rng, p=rng.randint(1, 2), m=rng.randint(1, 2))
        orders = tuple(rng.randint(1, 2) for _ in range(system.m))
        prolonged = prolong(system, orders, extended=True)
        codec = prolonged.codec
        for index, k, i in codec.iter_equations():
            for s in range(1, system.m + 1):
                shifted = list(i)
                shifted[s - 1] += 1
                if shifted[s - 1] > codec.orders[s - 1]:
                    continue
                direct = prolonged.equations[codec.encode_equation(k, tuple(shifted))]
                derived = total_derivative(
                    prolonged.equations[index], s, codec, system.base_vars
                )
                assert derived == direct


def _random_pde(rng: random.Random, p: int, m: int) -> PdeSystem:
    base = tuple("xyz"[:m])
    n = rng.randint(1, 2)
    jets = [jet_name(v, (0,) * m) for v in range(1, p + 1)]
    for v in range(1, p + 1):
        for s in range(m):
            j = [0] * m
            j[s] = 1
            jets.append(jet_name(v, tuple(j)))
    names = list(base) + jets
    equations = []
    for _ in range(p + n):
        poly = Polynomial.zero(names)
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * Polynomial.variable(rng.choice(names))
            poly = poly + term
        if poly.is_zero():
            poly = Polynomial.variable(jets[0])
        equations.append(poly)
    return PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))


def test_chain_rule_soundness():
    """Total derivative agrees with the ordinary derivative along a solution jet."""
    rng = random.Random(23)
    codec = IndexCodec(p=1, n=1, orders=(3,))
    x = Polynomial.variable("x")
    for _ in range(20):
        # random polynomial S(x) of degree <= 4 and its derivative jets
        s_poly = Polynomial.zero(("x",))
        for power in range(rng.randint(1, 5)):
            s_poly = s_poly + x ** power * Fraction(rng.randint(-3, 3))
        jets = {jet_name(1, (0,)): s_poly}
        current = s_poly
        for order in range(1, 5):
            current = current.partial_derivative("x")
            jets[jet_name(1, (order,))] = current
        # random polynomial in the low-order jets
        poly = Polynomial.zero(tuple(jets))
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(Fraction(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 2)):
                term = term * Polynomial.variable(jet_name(1, (rng.randint(0, 2),)))
            poly = poly + term
        on_jet = poly.substitute(jets)
        lhs = on_jet.partial_derivative("x")
        rhs = total_derivative(poly, 1, codec, ("x",)).substitute(jets)
        assert lhs == rhs


# -- top-order extraction -----------------------------------------------------


def test_top_order_extraction_riccati_pair():
    system = _ode_system("S1[1] - S1[0]^2", "S1[1] - S1[0]")
    prolonged = prolong(system, (1,))
    result = top_order_extraction(system, prolonged, (0,))
    assert result.ok
    jet = JetVar(1, (1,))
    numerator, denominator = result.solved[jet]
    assert numerator == P("S1[0]^2")
    assert denominator == Polynomial.constant(1)
    assert result.residuals == [P("S1[0]^2 - S1[0]")]


def test_top_order_extraction_duplicate_equations():
    system = _ode_system("S1[1] - S1[0]", "S1[1] - S1[0]")
    prolonged = prolong(system, (1,))
    result = top_order_extraction(system, prolonged, (0,))
    assert result.ok
    numerator, denominator = result.solved[JetVar(1, (1,))]
    assert numerator == P("S1[0]")
    assert result.residuals == [Polynomial.zero()]


def test_top_order_extraction_two_directions():
    system = PdeSystem(
        p=1,
        n=1,
        base_vars=("x", "y"),
        equations=(P("S1[1,0] - S1[0,0]"), P("S1[0,1] - S1[0,0]^2")),
    )
    prolonged = prolong(system, (1, 1))
    result = top_order_extraction(system, prolonged, (0, 0))
    assert result.ok
    assert result.solved[JetVar(1, (1, 0))][0] == P("S1[0,0]")
    assert result.solved[JetVar(1, (0, 1))][0] == P("S1[0,0]^2")
    assert result.conditions[0].polynomial == Polynomial.constant(1)
    assert result.residuals == []


def test_top_order_extraction_shape_guard():
    system = PdeSystem(
        p=2,
        n=0,
        base_vars=("x", "y"),
        equations=(P("S1[1,0] - S2[0,0]"), P("S2[0,1] - S1[0,0]")),
    )
    prolonged = prolong(system, (1, 1))
    with pytest.raises(SystemShapeError):
        top_order_extraction(system, prolonged, (0, 0))


def test_top_order_extraction_rank_deficiency():
    # both equations constrain the same direction: the other column is zero
    system = PdeSystem(
        p=1,
        n=1,
        base_vars=("x", "y"),
        equations=(P("S1[1,0] - S1[0,0]"), P("S1[1,0] - 2*S1[0,0]")),
    )
    prolonged = prolong(system, (1, 1))
    result = top_order_extraction(system, prolonged, (0, 0))
    assert not result.ok


def _greedy_cramer_extraction(system, prolonged, i):
    """Reference solve: greedy fraction-free pivoting, one determinant per
    Cramer column, residuals cross-multiplied from the numerators."""
    codec = prolonged.codec
    equations = [
        prolonged.equations[codec.encode_equation(k, i)]
        for k in range(1, system.p + system.n + 1)
    ]
    tops = sorted(
        (
            JetVar(v, tuple(c + (pos == s) for pos, c in enumerate(i)))
            for v in range(1, system.p + 1)
            for s in range(system.m)
        ),
        key=lambda jet: codec.encode_unknown(jet.v, jet.j),
    )
    matrix = [[eq.partial_derivative(jet.name) for jet in tops] for eq in equations]
    rests = [
        eq - sum((entry * Polynomial.variable(jet.name) for entry, jet in zip(row, tops)),
                 Polynomial.zero())
        for eq, row in zip(equations, matrix)
    ]
    work = [list(row) for row in matrix]
    remaining = list(range(len(work)))
    selected = []
    for col in range(len(tops)):
        pivot = next((r for r in remaining if not work[r][col].is_zero()), None)
        if pivot is None:
            return TopOrderResult(False, {}, [], []), selected
        selected.append(pivot)
        remaining.remove(pivot)
        for r in remaining:
            if work[r][col].is_zero():
                continue
            factor_p, factor_r = work[pivot][col], work[r][col]
            work[r] = [a * factor_p - b * factor_r for a, b in zip(work[r], work[pivot])]
    square = [matrix[r] for r in selected]
    denominator = determinant(square)
    numerators = [
        determinant([row[:col] + [-rests[r]] + row[col + 1:] for r, row in zip(selected, square)])
        for col in range(len(tops))
    ]
    residuals = [
        rests[r] * denominator
        + sum((a * b for a, b in zip(matrix[r], numerators)), Polynomial.zero())
        for r in remaining
    ]
    solved = {jet: (num, denominator) for jet, num in zip(tops, numerators)}
    return TopOrderResult(True, solved, [SideCondition(denominator)], residuals), selected


def _random_pde_system(rng):
    """Sparse first-order system in a shuffled row order; most systems give
    every top column an owner row, the rest and the repeated rows are often
    rank-deficient."""
    p, m = rng.randint(1, 3), rng.randint(1, 3)
    n = (m - 1) * p + rng.randint(0, 1)
    base = ("x", "y", "z")[:m]
    first = [jet_name(v, tuple(int(pos == s) for pos in range(m)))
             for v in range(1, p + 1) for s in range(m)]
    lower = [jet_name(v, (0,) * m) for v in range(1, p + 1)] + list(base)
    owners = rng.sample(range(p + n), len(first)) if rng.random() < 0.7 else []
    equations = []
    for k in range(p + n):
        if equations and rng.random() < 0.1:
            equations.append(equations[rng.randrange(len(equations))] * rng.choice((-2, 1, 3)))
            continue
        names = {name for name, owner in zip(first, owners) if owner == k}
        names.update(rng.sample(first, rng.randint(0, 1)))
        eq = Polynomial.constant(rng.randint(-2, 2))
        for name in sorted(names):
            term = Polynomial.variable(name) * rng.choice((-2, -1, 1, 3))
            if rng.random() < 0.3:
                term = term * Polynomial.variable(rng.choice(lower + first))
            eq = eq + term
        eq = eq + Polynomial.variable(rng.choice(lower)) ** rng.randint(1, 2)
        equations.append(eq)
    i = (0,) * m
    while not any(i):
        i = tuple(rng.randint(0, 1) for _ in range(m))
    system = PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))
    return system, prolong(system, tuple(c + 1 for c in i)), i


def test_top_order_extraction_matches_greedy_cramer():
    rng = random.Random(20240)
    deficient = out_of_order = 0
    for _ in range(80):
        system, prolonged, i = _random_pde_system(rng)
        expected, selected = _greedy_cramer_extraction(system, prolonged, i)
        result = top_order_extraction(system, prolonged, i)
        assert result.ok == expected.ok
        assert result.solved == expected.solved
        assert [c.polynomial for c in result.conditions] == [
            c.polynomial for c in expected.conditions
        ]
        assert result.residuals == expected.residuals
        deficient += not expected.ok
        out_of_order += selected != sorted(selected) or selected[:1] not in ([], [0])
    assert deficient >= 5 and out_of_order >= 5


# -- order minimization ---------------------------------------------------------


def test_minimal_orders_balanced_case():
    result = minimal_orders(1, 1, 1, cap=20)
    assert result.orders == (1,)
    assert result.n_h == 2
    assert result.estimate == 2
    assert result.estimate_holds


def test_minimal_orders_needs_two():
    result = minimal_orders(2, 1, 1, cap=20)
    assert result.orders == (2,)
    assert result.n_h == 6
    assert result.estimate == 6
    assert result.estimate_holds


def test_minimal_orders_surplus_two():
    result = minimal_orders(1, 2, 1, cap=20)
    assert result.orders == (1,)
    assert result.n_h == 3
    assert result.estimate == Fraction(3, 2)
    assert result.estimate_holds


def test_pde_system_renames_bare_jet_tokens():
    system = PdeSystem(
        p=1, n=1, base_vars=("x",), equations=(P("S1[1] - S1^2"), P("S1*S1[0]"))
    )
    assert system.equations == (P("S1[1] - S1[0]^2"), P("S1[0]^2"))
    assert [eq.variables() for eq in system.equations] == [("S1[1]", "S1[0]"), ("S1[0]",)]
    # leading zeros name the same jet as the canonical token
    system = PdeSystem(
        p=1, n=1, base_vars=("x",), equations=(P("S01[1] - S1[0]"), P("S1[1] - S1[0]^2"))
    )
    assert system.equations[0].variables() == ("S1[1]", "S1[0]")
    prolonged = prolong(system, (2,))
    assert [str(eq) for _, eq in prolonged.equation_items()] == [
        "-S1[0] + S1[1]", "-S1[0]^2 + S1[1]", "-S1[1] + S1[2]", "-2*S1[0]*S1[1] + S1[2]"
    ]


def test_pde_system_validation():
    with pytest.raises(SystemShapeError):
        PdeSystem(p=1, n=1, base_vars=("x",), equations=(P("S1[1]"),))
    with pytest.raises(SystemShapeError):
        PdeSystem(p=1, n=1, base_vars=("x",), equations=(P("S1[2]"), P("S1[0]")))
    with pytest.raises(SystemShapeError):
        PdeSystem(p=1, n=1, base_vars=("x",), equations=(P("S2[1]"), P("S1[0]")))
    with pytest.raises(SystemShapeError):
        PdeSystem(p=1, n=1, base_vars=("x",), equations=(P("S1[1] - t"), P("S1[0]")))
