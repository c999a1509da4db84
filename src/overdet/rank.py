"""Jacobian construction and exact rank certification of candidate solutions.

A candidate jet point solves the prolonged system when it zeroes every
equation; it is certified isolated (with respect to the occurring unknowns)
when the Jacobian of the system at the point has rank equal to the number of
jet unknowns that actually occur.  The Jacobian is read off one walk over
each equation's terms into sparse rows, and its rank comes from a sparse
fraction-free elimination over Python integers on those rows, so all linear
algebra is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import NotASolutionError
from .jets import IndexCodec, ProlongedSystem

ScalarPoint = Mapping[str, Fraction]

_ZERO = Fraction(0)


@dataclass
class JacobianMatrix:
    """Partial derivatives of every equation by every jet unknown, at a point."""

    rows: list[dict[int, Fraction]]  # per equation index: {column: nonzero partial}
    equation_indices: tuple[int, ...]
    unknown_indices: tuple[int, ...]  # column -> unknown index

    @property
    def entries(self) -> list[list[Fraction]]:
        """The dense matrix, row per equation index, column per unknown index."""
        width = len(self.unknown_indices)
        dense = []
        for row in self.rows:
            line = [_ZERO] * width
            for col, value in row.items():
                line[col] = value
            dense.append(line)
        return dense


@dataclass(frozen=True)
class RankReport:
    rank: int
    n_s_real: int
    n_h: int
    n_s: int
    certified: bool
    bound_11_holds: bool


def jacobian(prolonged: ProlongedSystem, point: ScalarPoint) -> JacobianMatrix:
    """Evaluate every first partial with respect to the jet unknowns exactly."""
    unknowns = prolonged.unknowns()
    columns = sorted(unknowns)
    position = {unknowns[col].name: place for place, col in enumerate(columns)}
    indices = sorted(prolonged.equations)
    rows = []
    for index in indices:
        gradient = prolonged.equations[index].gradient_at(point)
        rows.append({position[var]: value for var, value in gradient.items() if var in position})
    return JacobianMatrix(
        rows=rows, equation_indices=tuple(indices), unknown_indices=tuple(columns)
    )


def exact_rank(matrix: JacobianMatrix | list[list[Fraction]]) -> int:
    """Rank over the rationals by sparse fraction-free elimination.

    Rows become primitive integer vectors stored as ``{column: value}``,
    read straight from a ``JacobianMatrix``'s sparse rows or from the
    nonzero entries of dense rational rows.
    Each step takes the shortest remaining row and its entry of smallest
    magnitude as pivot, clears that column from the other rows by integer
    cross-multiplication, and divides every updated row by the gcd of its
    entries; only Python ints are involved and zeros are never stored.
    """
    if isinstance(matrix, JacobianMatrix):
        rows = matrix.rows
    else:
        rows = ({col: value for col, value in enumerate(row) if value} for row in matrix)
    work = [_primitive_row(row) for row in rows if row]
    rank = 0
    while work:
        shortest = min(range(len(work)), key=lambda index: len(work[index]))
        pivot_row = work[shortest]
        work[shortest] = work[-1]
        work.pop()
        pivot_col, pivot = min(pivot_row.items(), key=lambda item: abs(item[1]))
        rank += 1
        remaining = []
        for row in work:
            factor = row.get(pivot_col)
            if factor is None:
                remaining.append(row)
                continue
            shared = gcd(pivot, factor)
            keep, take = pivot // shared, factor // shared
            updated = {col: keep * value for col, value in row.items() if col != pivot_col}
            for col, value in pivot_row.items():
                if col == pivot_col:
                    continue
                combined = updated.get(col, 0) - take * value
                if combined:
                    updated[col] = combined
                else:
                    updated.pop(col, None)
            if updated:
                remaining.append(_divide_content(updated))
        work = remaining
    return rank


def _primitive_row(row: dict[int, Fraction]) -> dict[int, int]:
    """A sparse rational row without zeros, scaled to coprime integers."""
    scale = lcm(*(value.denominator for value in row.values()))
    return _divide_content(
        {col: value.numerator * (scale // value.denominator) for col, value in row.items()}
    )


def _divide_content(row: dict[int, int]) -> dict[int, int]:
    content = gcd(*row.values())
    if content == 1:
        return row
    return {col: value // content for col, value in row.items()}


def count_active_unknowns(prolonged: ProlongedSystem) -> int:
    """Number of jet unknowns with a not-identically-zero partial somewhere.

    Over the rationals a variable occurs in a polynomial exactly when some
    partial with respect to it is nonzero, so an occurrence scan suffices.
    """
    names = {jet.name for jet in prolonged.unknowns().values()}
    occurring = set()
    for equation in prolonged.equations.values():
        occurring.update(equation.variables())
    return len(names & occurring)


def active_unknown_bound(codec: IndexCodec) -> Fraction:
    """Upper estimate for the active-unknown count from the system shape:
    equations * p/(p+n) * (1 + sum of reciprocal orders)."""
    reciprocal_sum = sum((Fraction(1, order) for order in codec.orders), Fraction(0))
    return (
        Fraction(codec.equation_count)
        * Fraction(codec.p, codec.p + codec.n)
        * (1 + reciprocal_sum)
    )


def certify(prolonged: ProlongedSystem, point: ScalarPoint) -> RankReport:
    """Check the point solves every equation, then compare Jacobian rank with
    the number of actually occurring unknowns."""
    for index, equation in prolonged.equation_items():
        value = equation.evaluate(point)
        if value != 0:
            raise NotASolutionError(index, value)
    rank = exact_rank(jacobian(prolonged, point))
    n_s_real = count_active_unknowns(prolonged)
    return RankReport(
        rank=rank,
        n_s_real=n_s_real,
        n_h=prolonged.n_h,
        n_s=prolonged.n_s,
        certified=rank == n_s_real,
        bound_11_holds=Fraction(n_s_real) <= active_unknown_bound(prolonged.codec),
    )
