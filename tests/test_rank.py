"""Jacobian assembly, exact rank, and solution certification."""

import random
from fractions import Fraction

import pytest

from overdet.errors import MissingAssignmentError, NotASolutionError
from overdet.jets import PdeSystem, prolong
from overdet.poly import Polynomial, parse_polynomial
from overdet.rank import (
    RankReport,
    active_unknown_bound,
    certify,
    exact_rank,
    jacobian,
)

from helpers import count_active_unknowns, gradient_at

P = parse_polynomial


def _pair(expr1: str, expr2: str) -> PdeSystem:
    return PdeSystem(p=1, n=1, base_vars=("x",), equations=(P(expr1), P(expr2)))


def _f(values):
    return [[Fraction(v) for v in row] for row in values]


def test_jacobian_matches_hand_computation():
    system = _pair("S1[1] - S1[0]", "S1[0]*S1[1] - S1[0]^2")
    prolonged = prolong(system, (1,))
    point = {"S1[0]": Fraction(1), "S1[1]": Fraction(1)}
    matrix = jacobian(prolonged, point)
    assert matrix.entries == _f([[-1, 1], [-1, 1]])


def test_jacobian_single_equation_row():
    system = PdeSystem(p=1, n=0, base_vars=("x",), equations=(P("S1[1] - S1[0]"),))
    prolonged = prolong(system, (1,))
    matrix = jacobian(prolonged, {"S1[0]": Fraction(2), "S1[1]": Fraction(2)})
    assert matrix.entries == _f([[-1, 1]])


def test_jacobian_absent_unknown_gives_zero_column():
    system = _pair("S1[0] - x", "S1[0] - x")
    prolonged = prolong(system, (1,))
    matrix = jacobian(prolonged, {"S1[0]": Fraction(1), "x": Fraction(1)})
    # column of S1[1] (never occurs) is identically zero
    col = matrix.unknown_indices.index(prolonged.codec.encode_unknown(1, (1,)))
    assert all(row[col] == 0 for row in matrix.entries)


def test_jacobian_missing_assignment():
    system = _pair("S1[1] - S1[0]", "S1[1] - 2*S1[0]")
    prolonged = prolong(system, (1,))
    with pytest.raises(MissingAssignmentError):
        jacobian(prolonged, {"S1[0]": Fraction(0)})


def test_exact_rank_goldens():
    assert exact_rank(_f([[-1, 1], [-1, 1]])) == 1
    assert exact_rank(_f([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert exact_rank(_f([[1, 2], [2, 4], [3, 6]])) == 1
    assert exact_rank(_f([[0, 0], [0, 0]])) == 0
    assert exact_rank([]) == 0


def _naive_rank(rows):
    """Independent oracle: plain Gaussian elimination on Fractions."""
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


def test_exact_rank_agrees_with_naive_oracle():
    rng = random.Random(31)
    for _ in range(200):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        if rng.random() < 0.4 and n_rows > 1:
            # force a dependent row to exercise the deficient case
            rows[-1] = [2 * value for value in rows[0]]
        assert exact_rank(rows) == _naive_rank(rows)



def _sparse_matrix(rng, n_rows, n_cols, density):
    return [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < density else Fraction(0)
            for _ in range(n_cols)
        ]
        for _ in range(n_rows)
    ]


def test_sparse_exact_rank_agrees_with_naive_oracle_on_shapes():
    rng = random.Random(67)
    for _ in range(300):
        n_rows, n_cols = rng.choice(
            [(rng.randint(1, 12), rng.randint(1, 12)),  # random
             (rng.randint(10, 30), rng.randint(1, 6)),  # tall
             (rng.randint(1, 6), rng.randint(10, 30))]  # wide
        )
        rows = _sparse_matrix(rng, n_rows, n_cols, rng.choice([0.05, 0.2, 0.5, 1.0]))
        if n_rows > 2 and rng.random() < 0.5:
            # duplicate a row and add a combination of two others
            rows[-1] = list(rows[0])
            scale = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            rows[-2] = [a + scale * b for a, b in zip(rows[0], rows[1])]
        assert exact_rank(rows) == _naive_rank(rows)


def test_sparse_exact_rank_edge_shapes():
    assert exact_rank([[Fraction(0)] * 5 for _ in range(4)]) == 0
    assert exact_rank([[], []]) == 0
    assert exact_rank([[Fraction(1, 3)]]) == 1
    # rational entries whose integer scalings coincide
    assert exact_rank(_f([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1
    # a low-rank product with large entries
    rng = random.Random(71)
    left = [[Fraction(rng.randint(-10**6, 10**6)) for _ in range(3)] for _ in range(20)]
    right = [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(15)]
             for _ in range(3)]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    assert exact_rank(product) == _naive_rank(product) == 3


def _euler_system() -> PdeSystem:
    """Three base variables; S = x + y + z solves all three equations."""
    return PdeSystem(
        p=1,
        n=2,
        base_vars=("x", "y", "z"),
        equations=(
            P("S1[1,0,0]^2 - S1[0,1,0]"),
            P("S1[0,1,0]*S1[0,0,1] - S1[1,0,0]"),
            P("S1[0,0,0] - x*S1[1,0,0] - y*S1[0,1,0] - z*S1[0,0,1]"),
        ),
    )


def test_jacobian_and_rank_of_prolonged_3d_system():
    prolonged = prolong(_euler_system(), (3, 3, 3))
    base = {"x": Fraction(1, 2), "y": Fraction(2), "z": Fraction(-1)}
    point = {jet.name: Fraction(0) for jet in prolonged.unknowns().values()} | base
    point["S1[0,0,0]"] = sum(base.values())
    for name in ("S1[1,0,0]", "S1[0,1,0]", "S1[0,0,1]"):
        point[name] = Fraction(1)
    matrix = jacobian(prolonged, point)
    unknowns = prolonged.unknowns()
    expected = [
        [
            prolonged.equations[row].partial_derivative(unknowns[col].name).evaluate(point)
            for col in matrix.unknown_indices
        ]
        for row in matrix.equation_indices
    ]
    assert matrix.entries == expected
    rank = exact_rank(matrix)
    assert rank == _naive_rank(matrix.entries)
    assert certify(prolonged, point) == RankReport(
        rank=rank, n_s_real=54, n_h=81, n_s=64, certified=False, bound_11_holds=True
    )
    assert rank == 53


def test_count_active_unknowns_and_bound():
    system = _pair("S1[1] - S1[0]", "S1[0]*S1[1] - S1[0]^2")
    prolonged = prolong(system, (1,))
    assert count_active_unknowns(prolonged) == 2
    assert active_unknown_bound(prolonged.codec) == 2  # 2 * (1/2) * (1 + 1/1)


def test_count_active_unknowns_without_jets():
    system = PdeSystem(p=1, n=0, base_vars=("x",), equations=(P("x"),))
    prolonged = prolong(system, (1,))
    assert count_active_unknowns(prolonged) == 0


def test_certify_rejects_one_parameter_family():
    system = _pair("S1[1] - S1[0]", "S1[0]*S1[1] - S1[0]^2")
    prolonged = prolong(system, (1,))
    report = certify(prolonged, {"S1[0]": Fraction(1), "S1[1]": Fraction(1)})
    assert report.rank == 1
    assert report.n_s_real == 2
    assert not report.certified
    assert report.bound_11_holds
    assert (report.n_h, report.n_s) == (2, 2)


def test_certify_zero_jet_solution():
    system = _pair("S1[1] - S1[0]^2", "S1[1] - S1[0]")
    prolonged = prolong(system, (1,))
    report = certify(prolonged, {"S1[0]": Fraction(0), "S1[1]": Fraction(0)})
    # rows at the origin are (0, 1) and (-1, 1): full column rank
    assert report.rank == 2
    assert report.n_s_real == 2
    assert report.certified


def test_certify_rejects_non_solution():
    system = _pair("S1[1] - S1[0]", "S1[0]*S1[1] - S1[0]^2")
    prolonged = prolong(system, (1,))
    with pytest.raises(NotASolutionError) as err:
        certify(prolonged, {"S1[0]": Fraction(1), "S1[1]": Fraction(2)})
    assert err.value.equation_index == 1


def test_certify_invariant_under_row_scaling():
    rng = random.Random(37)
    base = _pair("S1[1] - S1[0]^2", "S1[1] - S1[0]")
    point = {"S1[0]": Fraction(0), "S1[1]": Fraction(0)}
    reference = certify(prolong(base, (2,)), point | {"S1[2]": Fraction(0)})
    for _ in range(10):
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2)]
        scaled = PdeSystem(
            p=1,
            n=1,
            base_vars=("x",),
            equations=tuple(
                eq * scale for eq, scale in zip(base.equations, scales)
            ),
        )
        report = certify(prolong(scaled, (2,)), point | {"S1[2]": Fraction(0)})
        assert report == reference


def test_rank_bounded_by_dimensions():
    rng = random.Random(41)
    for _ in range(20):
        system = _pair("S1[1] - S1[0]", "S1[1] - S1[0]^3")
        orders = (rng.randint(1, 3),)
        prolonged = prolong(system, orders)
        point = {"S1[0]": Fraction(0)}
        for order in range(1, orders[0] + 1):
            point[f"S1[{order}]"] = Fraction(0)
        matrix = jacobian(prolonged, point)
        rank = exact_rank(matrix)
        assert rank <= min(prolonged.n_h, prolonged.n_s)
        assert count_active_unknowns(prolonged) <= active_unknown_bound(prolonged.codec)


# -- sparse Jacobian rows --------------------------------------------------------


def _seeded_prolonged(rng):
    """A random first-order system prolonged to small random orders, with a
    zero-heavy point assigning every jet unknown and base variable."""
    p, m = rng.randint(1, 2), rng.randint(1, 3)
    n = (m - 1) * p + rng.randint(0, 1)
    base = ("x", "y", "z")[:m]
    jets = [f"S{v}[{','.join(str(int(pos == s)) for pos in range(m))}]"
            for v in range(1, p + 1) for s in range(-1, m)]
    equations = []
    for _ in range(p + n):
        eq = Polynomial.constant(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 4)):
            term = Polynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for name in rng.sample(jets + list(base), rng.randint(1, 2)):
                term = term * Polynomial.variable(name) ** rng.randint(1, 2)
            eq = eq + term
        equations.append(eq)
    system = PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))
    prolonged = prolong(system, tuple(rng.randint(1, 3 if m < 3 else 2) for _ in range(m)))
    values = [Fraction(0)] * 6 + [Fraction(1), Fraction(-2), Fraction(3, 4)]
    point = {jet.name: rng.choice(values) for jet in prolonged.unknowns().values()}
    point.update({name: rng.choice(values) for name in base})
    return prolonged, point


def _dense_jacobian(prolonged, point):
    """The dense layout: one zero-filled row per equation, filled from gradient_at."""
    unknowns = prolonged.unknowns()
    columns = sorted(unknowns)
    position = {unknowns[col].name: place for place, col in enumerate(columns)}
    rows = []
    for index in sorted(prolonged.equations):
        line = [Fraction(0)] * len(columns)
        for var, value in gradient_at(prolonged.equations[index], point).items():
            if var in position:
                line[position[var]] = value
        rows.append(line)
    return rows


def test_sparse_jacobian_matches_dense_layout_and_rank():
    rng = random.Random(97)
    for _ in range(40):
        prolonged, point = _seeded_prolonged(rng)
        matrix = jacobian(prolonged, point)
        dense = matrix.entries
        assert dense == _dense_jacobian(prolonged, point)
        assert all(value for row in matrix.rows for value in row.values())
        assert exact_rank(matrix) == exact_rank(dense) == _naive_rank(dense)



# -- fused certify walk and the rank's early exit ------------------------------


def _anchored_system(rng, p, n, m):
    """p+n first-order equations in which every term has a factor that
    vanishes at a known jet point: an order-one jet, or ``S_v[0..0] - a_v``.
    Total derivatives keep such a factor in every term, so the point (the
    anchors a_v, every higher jet 0, base variables anywhere) solves every
    prolonged equation."""
    base = ("x", "y", "z")[:m]
    zeroth = [f"S{v}[{','.join('0' * m)}]" for v in range(1, p + 1)]
    firsts = [f"S{v}[{','.join(str(int(pos == s)) for pos in range(m))}]"
              for v in range(1, p + 1) for s in range(m)]
    anchor = {name: rng.choice((-2, -1, 1, 2)) for name in zeroth}
    var = Polynomial.variable

    def vanishing():
        name = rng.choice(zeroth)
        return var(name) - anchor[name]

    equations = []
    for k in range(p + n):
        parts = [var(firsts[k % len(firsts)]) * var(rng.choice(zeroth)),
                 var(rng.choice(firsts)) * var(rng.choice(base)),
                 vanishing() * var(rng.choice(base)),
                 vanishing()]
        equation = Polynomial.zero()
        for part in parts:
            equation = equation + part * rng.choice([c for c in range(-4, 5) if c])
        equations.append(equation)
    system = PdeSystem(p=p, n=n, base_vars=base, equations=tuple(equations))
    return system, anchor


def _anchored_point(prolonged, anchor, rng):
    point = {jet.name: Fraction(0) for jet in prolonged.unknowns().values()}
    point.update({name: Fraction(value) for name, value in anchor.items()})
    point.update({name: Fraction(rng.randint(1, 3)) for name in prolonged.base_vars})
    return point


@pytest.mark.parametrize("orders", [(3, 3, 3), (5, 5, 5)])
def test_certify_agrees_with_its_separate_parts(orders):
    rng = random.Random(sum(orders))
    for _ in range(2):
        system, anchor = _anchored_system(rng, p=1, n=2, m=3)
        prolonged = prolong(system, orders)
        point = _anchored_point(prolonged, anchor, rng)
        report = certify(prolonged, point)
        matrix = jacobian(prolonged, point)
        assert report.rank == exact_rank(matrix)
        assert report.n_s_real == count_active_unknowns(prolonged)
        # the same rank from the transpose, which stops at another bound
        columns = [list(col) for col in zip(*matrix.entries)]
        assert report.rank == exact_rank(columns)
        if orders == (3, 3, 3):
            assert report.rank == _naive_rank(matrix.entries)
        assert report.certified == (report.rank == report.n_s_real)


def test_certify_reports_the_lowest_failing_equation_and_its_value():
    rng = random.Random(229)
    system, anchor = _anchored_system(rng, p=1, n=1, m=1)
    prolonged = prolong(system, (3,))
    point = _anchored_point(prolonged, anchor, rng)
    for name in ("S1[2]", "S1[3]", "S1[1]"):
        point[name] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        values = [(index, equation.evaluate(point)) for index, equation in prolonged.equation_items()]
        failing = [(index, value) for index, value in values if value]
        assert failing
        with pytest.raises(NotASolutionError) as raised:
            certify(prolonged, point)
        assert (raised.value.equation_index, raised.value.value) == failing[0]
        assert type(raised.value.value) is Fraction


def test_certify_missing_value_after_a_failing_equation_reports_the_failure():
    system = _pair("S1[1] - S1[0]", "S1[1] - S1[0]*x")
    prolonged = prolong(system, (1,))
    # equation 1 is 1 != 0 at the point, equation 2 needs x
    with pytest.raises(NotASolutionError) as raised:
        certify(prolonged, {"S1[0]": Fraction(1), "S1[1]": Fraction(2)})
    assert (raised.value.equation_index, raised.value.value) == (1, 1)
    with pytest.raises(MissingAssignmentError) as missing:
        certify(prolonged, {"S1[0]": Fraction(1), "S1[1]": Fraction(1)})
    assert missing.value.variable == "x"


def test_exact_rank_with_early_exit_matches_naive_rank():
    rng = random.Random(233)
    for _ in range(150):
        n_cols = rng.randint(1, 7)
        # tall: many surplus rows past full column rank
        tall = _sparse_matrix(rng, rng.randint(n_cols + 5, 4 * n_cols + 10), n_cols,
                              rng.choice([0.3, 0.6, 1.0]))
        assert exact_rank(tall) == _naive_rank(tall)
        # rank-deficient: rows from a product of thin factors, some columns empty
        inner = rng.randint(1, max(1, n_cols - 1))
        left = _sparse_matrix(rng, rng.randint(n_cols, 3 * n_cols + 3), inner, 0.7)
        right = _sparse_matrix(rng, inner, n_cols, 0.7)
        deficient = [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
                     for row in left]
        for row in deficient:
            row.append(Fraction(0))
        assert exact_rank(deficient) == _naive_rank(deficient)
