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

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import MissingAssignmentError, NotASolutionError
from .jets import IndexCodec, ProlongedSystem, jet_name

ScalarPoint = Mapping[str, Fraction]

_ZERO = Fraction(0)


@dataclass
class JacobianMatrix:
    """Partial derivatives of every equation by every jet unknown, at a point,
    with what the same walk over the terms finds on the way: each equation's
    value there and the number of unknowns that occur at all."""

    rows: list[dict[int, int | Fraction]]  # per equation index: {column: nonzero partial}
    equation_indices: tuple[int, ...]
    unknown_indices: tuple[int, ...]  # column -> unknown index
    # per equation index: its value at the point
    values: tuple[int | Fraction, ...] = field(default=(), repr=False, compare=False)
    # unknowns that occur in some equation, whatever their partials there
    active_unknowns: int = field(default=0, repr=False, compare=False)

    @property
    def entries(self) -> list[list[int | Fraction]]:
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
    """Evaluate every first partial with respect to the jet unknowns exactly.

    Partials are ints where integral.  One walk over each equation's terms
    also gives its value and the variables it holds."""
    position = _unknown_columns(prolonged.codec)
    # integral values as ints, so that integer equations stay in int arithmetic
    point = {
        var: x.numerator if type(x) is Fraction and x.denominator == 1 else x
        for var, x in point.items()
    }
    indices = sorted(prolonged.equations)
    rows = []
    values = []
    occurring: set[str] = set()
    for index in indices:
        value, partials = prolonged.equations[index]._value_and_partials(point)
        values.append(value)
        occurring.update(partials)
        rows.append({
            position[var]: partial
            for var, partial in partials.items()
            if partial and var in position
        })
    return JacobianMatrix(
        rows=rows,
        equation_indices=tuple(indices),
        unknown_indices=tuple(range(1, len(position) + 1)),
        values=tuple(values),
        active_unknowns=len(occurring.intersection(position)),
    )


def _unknown_columns(codec: IndexCodec) -> dict[str, int]:
    """Column of each unknown's name: unknown index minus one."""
    return {jet_name(v, j): index - 1 for index, v, j in codec.iter_unknowns()}


def exact_rank(matrix: JacobianMatrix | list[list[Fraction]]) -> int:
    """Rank over the rationals by sparse fraction-free elimination.

    Rows become primitive integer vectors stored as ``{column: value}``,
    read straight from a ``JacobianMatrix``'s sparse rows or from the
    nonzero entries of dense rational rows.  An index lists the rows that
    hold each column, and a heap orders the rows by length.  Each step
    takes the shortest remaining row and, as pivot, its entry in the column
    the fewest rows hold (the least fill-in), the smallest in magnitude
    among those; it clears that column from the rows the index lists by
    integer cross-multiplication, and divides every updated row by the gcd
    of its entries; only Python ints are involved and zeros are never stored.
    The rank cannot exceed the number of columns that occur, so elimination
    stops as soon as it reaches that number.
    """
    if isinstance(matrix, JacobianMatrix):
        rows = matrix.rows
    else:
        rows = ({col: value for col, value in enumerate(row) if value} for row in matrix)
    work: list[dict[int, int] | None] = [_primitive_row(row) for row in rows if row]
    holding: dict[int, set[int]] = {}
    for place, row in enumerate(work):
        for col in row:
            holding.setdefault(col, set()).add(place)
    columns = len(holding)
    queue = [(len(row), place) for place, row in enumerate(work)]
    heapq.heapify(queue)
    rank = 0
    while queue and rank < columns:
        length, place = heapq.heappop(queue)
        pivot_row = work[place]
        if pivot_row is None or len(pivot_row) != length:
            continue  # eliminated, or queued again with its new length
        work[place] = None
        pivot_col = min(pivot_row, key=lambda col: (len(holding[col]), abs(pivot_row[col])))
        pivot = pivot_row[pivot_col]
        rank += 1
        for col in pivot_row:
            holding[col].discard(place)
        for other in holding.pop(pivot_col):
            row = work[other]
            factor = row.pop(pivot_col)
            shared = gcd(pivot, factor)
            keep, take = pivot // shared, factor // shared
            if keep != 1:
                row = {col: keep * value for col, value in row.items()}
            for col, value in pivot_row.items():
                if col == pivot_col:
                    continue
                if col in row:
                    combined = row[col] - take * value
                    if combined:
                        row[col] = combined
                    else:
                        del row[col]
                        holding[col].discard(other)
                else:
                    row[col] = -take * value
                    holding[col].add(other)
            if row:
                work[other] = _divide_content(row)
                heapq.heappush(queue, (len(row), other))
            else:
                work[other] = None
    return rank


def _primitive_row(row: dict[int, int | Fraction]) -> dict[int, int]:
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
    the number of actually occurring unknowns.  ``jacobian`` walks each
    equation once for all three; the lowest equation the point fails is
    reported, whether it is nonzero there or lacks a value."""
    try:
        matrix = jacobian(prolonged, point)
    except MissingAssignmentError:
        for index, equation in prolonged.equation_items():
            value = equation.evaluate(point)
            if value != 0:
                raise NotASolutionError(index, value) from None
        raise
    for index, value in zip(matrix.equation_indices, matrix.values):
        if value:
            raise NotASolutionError(index, Fraction(value))
    rank = exact_rank(matrix)
    n_s_real = matrix.active_unknowns
    return RankReport(
        rank=rank,
        n_s_real=n_s_real,
        n_h=prolonged.n_h,
        n_s=prolonged.n_s,
        certified=rank == n_s_real,
        bound_11_holds=Fraction(n_s_real) <= active_unknown_bound(prolonged.codec),
    )
