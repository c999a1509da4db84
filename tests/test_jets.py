"""Jet codecs, total derivatives, prolongation, extraction, order search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from overdet import jets
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

from helpers import decode_unknown

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
    with pytest.raises(IndexRangeError):
        codec.encode_unknown(0, (0,))


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
        assert codec.decode_equation(index) == (k, i)
        seen.add(index)
    assert seen == set(range(1, codec.equation_count + 1))
    seen = set()
    for index, v, j in codec.iter_unknowns():
        assert codec.encode_unknown(v, j) == index
        assert decode_unknown(codec, index) == (v, j)
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
    result = Polynomial.zero()
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
            ]
        )
        for s in (1, 2):
            fast = total_derivative(poly, s, codec, base)
            reference = _leibniz_total_derivative(poly, s, codec, base)
            assert fast == reference
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
        poly = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(0, 3)):
                term = term * Polynomial.variable(rng.choice(names))
            poly = poly + term
        if poly.is_zero():
            poly = Polynomial.variable(jets[0])
        equations.append(poly)
    return PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_prolong_derives_each_equation_once(monkeypatch, extended):
    calls = []
    original = jets.total_derivative

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(jets, "total_derivative", counting)
    rng = random.Random(31)
    for p, m, orders in ((1, 1, (4,)), (2, 2, (2, 3)), (1, 3, (2, 1, 2))):
        system = _random_pde(rng, p, m)
        calls.clear()
        prolonged = prolong(system, orders, extended=extended)
        assert len(calls) == prolonged.n_h - (system.p + system.n)


def test_chain_rule_soundness():
    """Total derivative agrees with the ordinary derivative along a solution jet."""
    rng = random.Random(23)
    codec = IndexCodec(p=1, n=1, orders=(3,))
    x = Polynomial.variable("x")
    for _ in range(20):
        # random polynomial S(x) of degree <= 4 and its derivative jets
        s_poly = Polynomial.zero()
        for power in range(rng.randint(1, 5)):
            s_poly = s_poly + x ** power * Fraction(rng.randint(-3, 3))
        jets = {jet_name(1, (0,)): s_poly}
        current = s_poly
        for order in range(1, 5):
            current = current.partial_derivative("x")
            jets[jet_name(1, (order,))] = current
        # random polynomial in the low-order jets
        poly = Polynomial.zero()
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


@pytest.mark.parametrize("base_vars, equations", [
    (("x",), ("S1[1]^2 - S1", "S1[1] - S1")),
    (("x", "y"), ("S1[1,0] - S1", "S1[1,0]*S1[0,1] - S1")),
    (("x", "y"), ("S1[1,0] + S1[0,1]^2", "S1[0,1] - S1")),
], ids=["square", "product", "square-in-a-later-column"])
def test_top_order_extraction_rejects_equations_not_linear_in_the_top_jets(base_vars, equations):
    system = PdeSystem(p=1, n=1, base_vars=base_vars, equations=tuple(map(P, equations)))
    prolonged = prolong(system, (1,) * len(base_vars))
    with pytest.raises(SystemShapeError, match="not linear in the top-order jets"):
        top_order_extraction(system, prolonged, (0,) * len(base_vars))


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
    assert [eq.variables() for eq in system.equations] == [("S1[0]", "S1[1]"), ("S1[0]",)]
    # leading zeros name the same jet as the canonical token
    system = PdeSystem(
        p=1, n=1, base_vars=("x",), equations=(P("S01[1] - S1[0]"), P("S1[1] - S1[0]^2"))
    )
    assert system.equations[0].variables() == ("S1[0]", "S1[1]")
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


# -- memoized jet images against a separate validation pass --------------------


def _walk_derivation(poly, images):
    """The derivation term by term and, within a term, variable by variable
    in key order, each contribution added under its key as it is met: the
    values and the term order a derivation gives, with no parts memo."""
    acc = {}
    for key, coeff in poly._terms.items():
        for var, exp in key:
            image = images.get(var)
            if image is None:
                continue
            exps = dict(key)
            exps[var] -= 1
            if image != 1:
                exps[image] = exps.get(image, 0) + 1
            lowered = tuple(sorted((v, e) for v, e in exps.items() if e))
            acc[lowered] = acc.get(lowered, 0) + coeff * exp
    return Polynomial._canonical(acc, poly._den)


def _reference_total_derivative(poly, s, codec, base_vars=()):
    """The total derivative with every occurring name parsed and checked in a
    pass of its own, in name order, before one walk over the terms with a
    plain image dict."""
    if not 1 <= s <= codec.m:
        raise IndexRangeError(f"direction {s} outside 1..{codec.m}")
    limits = tuple(order + 1 for order in codec.orders)
    images = {}
    if len(base_vars) > s - 1:
        images[base_vars[s - 1]] = 1
    for var in poly.variables():
        jet = parse_jet_name(var, codec.m)
        if jet is None:
            if var not in base_vars:
                raise IndexRangeError(
                    f"variable {var!r} is neither a jet token nor a declared base variable"
                )
            continue
        if len(jet.j) != codec.m:
            raise IndexRangeError(
                f"jet {var} multi-index {jet.j} has length {len(jet.j)}, expected {codec.m}"
            )
        shifted = jet.shifted(s).name
        for position, (component, limit) in enumerate(zip(jet.j, limits), start=1):
            if component > limit:
                raise IndexRangeError(
                    f"jet {var} component {position} is {component}, allowed 0..{limit}"
                )
        if jet.j[s - 1] + 1 > limits[s - 1]:
            raise IndexRangeError(
                f"derivative of jet {var} along direction {s} leaves the extended range"
            )
        images[var] = shifted
    return _walk_derivation(poly, images)


def _reference_prolong(system, orders, extended=False):
    """Every equation index derived along the canonical path with the
    reference total derivative."""
    codec = IndexCodec(system.p, system.n, tuple(orders), extended=extended)
    cache = {}

    def generate(k, i):
        if (k, i) not in cache:
            if not any(i):
                cache[k, i] = system.equations[k - 1]
            else:
                last = max(pos for pos, c in enumerate(i) if c)
                lower = tuple(c - (pos == last) for pos, c in enumerate(i))
                cache[k, i] = _reference_total_derivative(
                    generate(k, lower), last + 1, codec, system.base_vars
                )
        return cache[k, i]

    return {index: generate(k, i) for index, k, i in codec.iter_equations()}


def _printed(equations):
    return {index: str(q) for index, q in equations.items()}


def test_prolong_with_the_memo_matches_the_reference_on_seeded_systems():
    rng = random.Random(211)
    for m in (1, 2, 3):
        for _ in range(8):
            system = _random_pde(rng, p=rng.randint(1, 2), m=m)
            orders = tuple(rng.randint(1, 3 if m < 3 else 2) for _ in range(m))
            extended = rng.random() < 0.5
            prolonged = prolong(system, orders, extended=extended)
            expected = _reference_prolong(system, orders, extended)
            assert _printed(prolonged.equations) == _printed(expected)


def test_codecs_with_different_orders_keep_separate_memos():
    """S1[2] shifts to S1[3] under orders (3,) and leaves the range of
    orders (1,); a memo shared between the two codecs would get one wrong."""
    wide, narrow = IndexCodec(1, 1, (3,)), IndexCodec(1, 1, (1,))
    poly = P("S1[2]*S1[0] - x*S1[1]")
    for first, second in ((wide, narrow), (narrow, wide)):
        jets._jet_images.cache_clear()
        for codec in (first, second, first):
            try:
                expected = _reference_total_derivative(poly, 1, codec, ("x",))
            except IndexRangeError as error:
                with pytest.raises(IndexRangeError) as raised:
                    total_derivative(poly, 1, codec, ("x",))
                assert str(raised.value) == str(error)
            else:
                assert total_derivative(poly, 1, codec, ("x",)) == expected
    # a key whose image raises leaves nothing in the memo, while the key
    # derived before it stays; under the wide codec the same key derives
    jets._jet_images.cache_clear()
    walked = P("x*S1[1] + S1[2]*S1[0]")
    good, failing = list(walked._terms)
    with pytest.raises(IndexRangeError, match="leaves the extended range"):
        total_derivative(walked, 1, narrow, ("x",))
    assert list(jets._jet_images(narrow, 1, ("x",)).terms) == [good]
    q = total_derivative(walked, 1, wide, ("x",))
    expected = _reference_total_derivative(walked, 1, wide, ("x",))
    assert list(q._terms.items()) == list(expected._terms.items())
    assert failing in jets._jet_images(wide, 1, ("x",)).terms
    # the same codec under another base-variable tuple: x is then undeclared
    jets._jet_images.cache_clear()
    assert total_derivative(poly, 1, wide, ("x",)) == P("S1[3]*S1[0] + S1[2]*S1[1] - S1[1] - x*S1[2]")
    with pytest.raises(IndexRangeError, match="'x' is neither"):
        total_derivative(poly, 1, wide, ("t",))
    # two base variables, seeded: each direction of one codec has its memo
    rng = random.Random(223)
    codec_a, codec_b = IndexCodec(1, 2, (2, 3)), IndexCodec(1, 2, (3, 2))
    for _ in range(20):
        system = _random_pde(rng, p=1, m=2)
        for codec in (codec_a, codec_b):
            for s in (1, 2):
                for equation in system.equations:
                    assert total_derivative(equation, s, codec, system.base_vars) == (
                        _reference_total_derivative(equation, s, codec, system.base_vars)
                    )


def test_a_memo_hit_gives_the_same_terms_in_the_same_order():
    rng = random.Random(227)
    codec = IndexCodec(2, 2, (3, 3), extended=True)
    for _ in range(10):
        system = _random_pde(rng, p=2, m=2)
        for s in (1, 2):
            for equation in system.equations:
                jets._jet_images.cache_clear()
                expected = _reference_total_derivative(equation, s, codec, system.base_vars)
                for _ in range(2):  # the second call finds every key in the memo
                    q = total_derivative(equation, s, codec, system.base_vars)
                    assert list(q._terms.items()) == list(expected._terms.items())
                    assert q == expected
                memo = jets._jet_images(codec, s, system.base_vars).terms
                assert set(memo) == set(equation._terms)


def test_prolong_is_unchanged_when_the_memo_keeps_nothing(monkeypatch):
    rng = random.Random(229)
    systems = [
        (_random_pde(rng, p=rng.randint(1, 2), m=m), m) for m in (1, 2, 3) for _ in range(3)
    ]

    def printed_prolongs():
        jets._jet_images.cache_clear()
        return [
            [(index, list(q._terms.items()), q._den, str(q))
             for index, q in prolong(system, (2,) * m, extended=True).equations.items()]
            for system, m in systems
        ]

    def memo_sizes():
        sizes = []
        for system, m in systems:
            codec = IndexCodec(system.p, system.n, (2,) * m, extended=True)
            for s in range(1, m + 1):
                sizes.append(len(jets._jet_images(codec, s, system.base_vars).terms))
        return sizes

    expected = printed_prolongs()
    assert all(memo_sizes())
    monkeypatch.setattr(jets, "_MEMO_TERMS", 0)
    assert printed_prolongs() == expected
    assert not any(memo_sizes())
    jets._jet_images.cache_clear()


@pytest.mark.parametrize("warm", [False, True])
def test_index_range_errors_keep_their_messages(warm):
    line, plane = IndexCodec(1, 1, (1,)), IndexCodec(1, 1, (2, 2))
    cases = [
        (P("q + S1[0]"), line, 1,
         "variable 'q' is neither a jet token nor a declared base variable"),
        (P("S1[3]*x"), line, 1, "jet S1[3] component 1 is 3, allowed 0..2"),
        (P("S1[2] - S1[0]"), line, 1,
         "derivative of jet S1[2] along direction 1 leaves the extended range"),
        # two bad names: the first in name order is reported, not the first
        # met in the walk over the terms
        (Polynomial.from_terms([({"q": 1}, 2), ({"S1[3]": 1}, 1)]), line, 1,
         "jet S1[3] component 1 is 3, allowed 0..2"),
        # a one-component jet under a two-variable codec, along either direction
        (P("S1[0]*x"), plane, 1, "jet S1[0] multi-index (0,) has length 1, expected 2"),
        (P("S1[0]*x"), plane, 2, "jet S1[0] multi-index (0,) has length 1, expected 2"),
    ]
    jets._jet_images.cache_clear()
    if warm:
        total_derivative(P("S1[0]*S1[1] + x"), 1, line, ("x",))
        total_derivative(P("S1[0,0]*S1[1,0] + x"), 2, plane, ("x", "y"))
    for poly, codec, s, message in cases:
        base = ("x", "y")[: codec.m]
        for _ in range(2):  # a failed name is not remembered as valid
            with pytest.raises(IndexRangeError) as raised:
                total_derivative(poly, s, codec, base)
            assert str(raised.value) == message
            with pytest.raises(IndexRangeError) as reference:
                _reference_total_derivative(poly, s, codec, base)
            assert str(reference.value) == message
