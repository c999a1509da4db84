"""Jet-variable representation and prolongation of first-order PDE systems.

A jet variable stands for one partial derivative of an unknown function and
is treated as an independent algebraic unknown.  Its canonical polynomial
name is ``S<v>[j1,...,jm]`` (``S2[1,0]`` is the x1-derivative of the second
unknown in two base variables).  Prolonging a system differentiates every
equation up to prescribed per-variable orders, producing an algebraic system
whose equation and unknown counts follow closed-form product formulas.

Two index ranges are supported per order vector (N1..Nm): the plain range
differentiates each equation i_l = 0..N_l-1 times, and the extended range one
step further (i_l = 0..N_l).  Encoded equation/unknown indices are mixed-radix
values that enumerate exactly 1..count for the respective range.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import IndexRangeError, InfeasibleOrdersError, SystemShapeError
# determinant stays importable here: the benchmark traces jets.determinant
from .poly import Polynomial, determinant, extend_minors
from .reduction import SideCondition

MultiIndex = tuple[int, ...]

_JET_NAME_RE = re.compile(r"^S(\d+)(?:\[(\d+(?:,\d+)*)\])?$")


def jet_name(v: int, j: MultiIndex) -> str:
    return f"S{v}[{','.join(str(c) for c in j)}]"


def parse_jet_name(name: str, m: int | None = None) -> "JetVar | None":
    """Decode a jet token; ``S<v>`` alone means the zero multi-index (needs m)."""
    match = _JET_NAME_RE.match(name)
    if match is None:
        return None
    v = int(match.group(1))
    if match.group(2) is None:
        if m is None:
            return None
        return JetVar(v, (0,) * m)
    return JetVar(v, tuple(int(c) for c in match.group(2).split(",")))


@dataclass(frozen=True)
class JetVar:
    """One unknown-function derivative: function index v >= 1, multi-index j."""

    v: int
    j: MultiIndex

    @property
    def order(self) -> int:
        return sum(self.j)

    @property
    def name(self) -> str:
        return jet_name(self.v, self.j)

    def shifted(self, s: int) -> "JetVar":
        """The jet one differentiation step further along base variable s (1-based)."""
        lifted = list(self.j)
        lifted[s - 1] += 1
        return JetVar(self.v, tuple(lifted))


@dataclass(frozen=True)
class PdeSystem:
    """First-order system of p+n equations for p unknown functions of m variables.

    Equations are polynomials in canonical jet names of order <= 1 and the
    declared base variable names.  Other spellings of a jet token (a bare
    ``S<v>``, leading zeros as in ``S01[1]``) are renamed on construction,
    so ``equations`` only ever holds canonical names.
    """

    p: int
    n: int
    base_vars: tuple[str, ...]
    equations: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.p < 1 or self.n < 0 or not self.base_vars:
            raise SystemShapeError("need p >= 1, n >= 0 and at least one base variable")
        if len(self.equations) != self.p + self.n:
            raise SystemShapeError(
                f"expected {self.p + self.n} equations, got {len(self.equations)}"
            )
        for name in self.base_vars:
            if _JET_NAME_RE.match(name):
                raise SystemShapeError(f"base variable name {name!r} collides with jet tokens")
        canonical = []
        for index, equation in enumerate(self.equations, start=1):
            renames = {}
            for var in equation.variables():
                jet = parse_jet_name(var, len(self.base_vars))
                if jet is None:
                    if var not in self.base_vars:
                        raise SystemShapeError(
                            f"equation {index} uses undeclared variable {var!r}"
                        )
                    continue
                if not 1 <= jet.v <= self.p:
                    raise SystemShapeError(
                        f"equation {index} uses unknown index {jet.v} outside 1..{self.p}"
                    )
                if len(jet.j) != len(self.base_vars):
                    raise SystemShapeError(
                        f"equation {index}: jet {var} has wrong multi-index length"
                    )
                if jet.order > 1:
                    raise SystemShapeError(
                        f"equation {index}: jet {var} has order {jet.order} > 1"
                    )
                if var != jet.name:
                    renames[var] = jet.name
            canonical.append(equation.rename_variables(renames) if renames else equation)
        object.__setattr__(self, "equations", tuple(canonical))

    @property
    def m(self) -> int:
        return len(self.base_vars)


@dataclass(frozen=True)
class IndexCodec:
    """Mixed-radix bijections between (k, i)/(v, j) tuples and 1-based indices.

    Plain flavor: i_l = 0..N_l-1 and j_l = 0..N_l.  Extended flavor widens
    both by one step: i_l = 0..N_l and j_l = 0..N_l+1.
    """

    p: int
    n: int
    orders: tuple[int, ...]
    extended: bool = False

    def __post_init__(self):
        if self.p < 1 or self.n < 0:
            raise SystemShapeError("codec needs p >= 1 and n >= 0")
        if not self.orders or any(order < 1 for order in self.orders):
            raise SystemShapeError("every prolongation order must be >= 1")

    @property
    def m(self) -> int:
        return len(self.orders)

    @property
    def flavor(self) -> str:
        return "extended" if self.extended else "plain"

    def _i_sizes(self) -> tuple[int, ...]:
        bump = 1 if self.extended else 0
        return tuple(order + bump for order in self.orders)

    def _j_sizes(self) -> tuple[int, ...]:
        bump = 2 if self.extended else 1
        return tuple(order + bump for order in self.orders)

    @property
    def equation_count(self) -> int:
        total = self.p + self.n
        for size in self._i_sizes():
            total *= size
        return total

    @property
    def unknown_count(self) -> int:
        total = self.p
        for size in self._j_sizes():
            total *= size
        return total

    def max_i(self) -> tuple[int, ...]:
        return tuple(size - 1 for size in self._i_sizes())

    def max_j(self) -> tuple[int, ...]:
        return tuple(size - 1 for size in self._j_sizes())

    @staticmethod
    def _encode(offset: int, width: int, parts: MultiIndex, sizes: tuple[int, ...]) -> int:
        value = offset
        radix = width
        for part, size in zip(parts, sizes):
            value += part * radix
            radix *= size
        return value

    def encode_equation(self, k: int, i: MultiIndex) -> int:
        """Index of the k-th equation differentiated i times per variable."""
        self._check(k, i, 1, self.p + self.n, self.max_i(), "equation")
        return self._encode(k, self.p + self.n, i, self._i_sizes())

    def decode_equation(self, index: int) -> tuple[int, MultiIndex]:
        if not 1 <= index <= self.equation_count:
            raise IndexRangeError(f"equation index {index} outside 1..{self.equation_count}")
        rest, k = divmod(index - 1, self.p + self.n)
        parts = []
        for size in self._i_sizes():
            rest, part = divmod(rest, size)
            parts.append(part)
        return k + 1, tuple(parts)

    def encode_unknown(self, v: int, j: MultiIndex) -> int:
        """Index of jet variable (v, j) within this codec's unknown range."""
        self._check(v, j, 1, self.p, self.max_j(), "unknown")
        return self._encode(v, self.p, j, self._j_sizes())

    def decode_unknown(self, index: int) -> tuple[int, MultiIndex]:
        if not 1 <= index <= self.unknown_count:
            raise IndexRangeError(f"unknown index {index} outside 1..{self.unknown_count}")
        rest, v = divmod(index - 1, self.p)
        parts = []
        for size in self._j_sizes():
            rest, part = divmod(rest, size)
            parts.append(part)
        return v + 1, tuple(parts)

    def _check(self, head: int, parts: MultiIndex, lo: int, hi: int, maxima, what: str) -> None:
        if not lo <= head <= hi:
            raise IndexRangeError(f"{what} head index {head} outside {lo}..{hi}")
        if len(parts) != self.m:
            raise IndexRangeError(
                f"{what} multi-index {parts} has length {len(parts)}, expected {self.m}"
            )
        for position, (part, maximum) in enumerate(zip(parts, maxima), start=1):
            if not 0 <= part <= maximum:
                raise IndexRangeError(
                    f"{what} multi-index component {position} is {part}, allowed 0..{maximum}"
                )

    def iter_equations(self) -> Iterator[tuple[int, int, MultiIndex]]:
        for index in range(1, self.equation_count + 1):
            k, i = self.decode_equation(index)
            yield index, k, i

    def iter_unknowns(self) -> Iterator[tuple[int, int, MultiIndex]]:
        for index in range(1, self.unknown_count + 1):
            v, j = self.decode_unknown(index)
            yield index, v, j


# -- total derivative ----------------------------------------------------------


def total_derivative(
    poly: Polynomial,
    s: int,
    codec: IndexCodec,
    base_vars: Sequence[str] = (),
) -> Polynomial:
    """Formal derivative along base variable s (1-based): each jet contributes
    its partial times the index-shifted jet, plus the explicit base-variable
    partial.  Shifted indices must stay within the codec's extended range."""
    if not 1 <= s <= codec.m:
        raise IndexRangeError(f"direction {s} outside 1..{codec.m}")
    limits = tuple(order + 1 for order in codec.orders)  # extended j bound
    images: dict[str, str | int] = {}
    if len(base_vars) > s - 1:
        images[base_vars[s - 1]] = 1
    for var in poly.variables():
        parsed = _parse_and_shift(var, codec.m, s)
        if parsed is None:
            if var not in base_vars:
                raise IndexRangeError(
                    f"variable {var!r} is neither a jet token nor a declared base variable"
                )
            continue
        jet, shifted = parsed
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
    return poly.derivation(images)


@functools.lru_cache(maxsize=4096)
def _parse_and_shift(name: str, m: int, s: int) -> tuple[JetVar, str] | None:
    """The jet a variable name denotes and the name of its shift along s;
    prolongation meets the same few names in every equation it derives."""
    jet = parse_jet_name(name, m)
    return None if jet is None else (jet, jet.shifted(s).name)


# -- prolongation --------------------------------------------------------------


@dataclass(frozen=True)
class ProlongedSystem:
    """All prolonged equations of one flavor, indexed by the codec.

    Immutable once built; equation index -> polynomial over canonical jet
    names and base variables.
    """

    codec: IndexCodec
    equations: dict[int, Polynomial]
    base_vars: tuple[str, ...]

    def __post_init__(self):
        expected = set(range(1, self.codec.equation_count + 1))
        if set(self.equations) != expected:
            raise SystemShapeError(
                f"prolonged system must contain exactly indices 1..{self.codec.equation_count}"
            )

    @property
    def n_h(self) -> int:
        return self.codec.equation_count

    @property
    def n_s(self) -> int:
        return self.codec.unknown_count

    def unknowns(self) -> dict[int, JetVar]:
        return {index: JetVar(v, j) for index, v, j in self.codec.iter_unknowns()}

    def equation_items(self) -> list[tuple[int, Polynomial]]:
        return sorted(self.equations.items())


def prolong(system: PdeSystem, orders: Sequence[int], extended: bool = False) -> ProlongedSystem:
    """Differentiate every equation over the codec's index range.

    Each multi-index is reached along the canonical path (all derivatives in
    the first base variable, then the second, and so on); mixed partials of
    polynomials commute, so the path only fixes the generation order.
    Already-generated entries are cached and reused.
    """
    codec = IndexCodec(system.p, system.n, tuple(orders), extended=extended)
    cache: dict[tuple[int, MultiIndex], Polynomial] = {}

    def generate(k: int, i: MultiIndex) -> Polynomial:
        key = (k, i)
        if key in cache:
            return cache[key]
        if all(component == 0 for component in i):
            value = system.equations[k - 1]
        else:
            last = max(position for position, component in enumerate(i) if component > 0)
            lower = list(i)
            lower[last] -= 1
            value = total_derivative(
                generate(k, tuple(lower)), last + 1, codec, system.base_vars
            )
        cache[key] = value
        return value

    equations = {
        index: generate(k, i) for index, k, i in codec.iter_equations()
    }
    return ProlongedSystem(codec=codec, equations=equations, base_vars=system.base_vars)


# -- linear extraction of top-order jets ----------------------------------------


@dataclass
class TopOrderResult:
    """Outcome of solving for the highest-order jets of one prolongation level."""

    ok: bool
    solved: dict[JetVar, tuple[Polynomial, Polynomial]]  # jet -> (numerator, denominator)
    conditions: list[SideCondition]
    residuals: list[Polynomial]


def top_order_extraction(
    system: PdeSystem, prolonged: ProlongedSystem, i: MultiIndex
) -> TopOrderResult:
    """Solve the p+n equations at multi-index i for the mp jets one order up.

    Those jets enter the equations linearly.  One table of minors of the
    augmented rows ``[d eq/d top_1, ..., d eq/d top_mp, -rest]``, grown a
    selected row at a time, gives the pivot rows, the denominator (a side
    condition), the Cramer numerators, and the leftover equations with the
    solved jets substituted, cross-multiplied by the denominator, as
    consistency residuals.
    """
    p, n, m = system.p, system.n, system.m
    if n < (m - 1) * p:
        raise SystemShapeError(
            f"linear extraction needs n >= (m-1)p, got n={n}, p={p}, m={m}"
        )
    codec = prolonged.codec
    equations = [
        prolonged.equations[codec.encode_equation(k, i)] for k in range(1, p + n + 1)
    ]
    tops = [
        JetVar(v, tuple(c + (1 if pos == s else 0) for pos, c in enumerate(i)))
        for v in range(1, p + 1)
        for s in range(m)
    ]
    tops.sort(key=lambda jet: codec.encode_unknown(jet.v, jet.j))
    top_names = [jet.name for jet in tops]
    rows: list[list[Polynomial]] = []
    for equation in equations:
        row = [equation.partial_derivative(name) for name in top_names]
        rest = equation
        for name, entry in zip(top_names, row):
            for used in entry.variables():
                if used in top_names:
                    raise SystemShapeError(
                        "equations are not linear in the top-order jets"
                    )
            rest = rest - entry * Polynomial.variable(name)
        for used in rest.variables():
            if used in top_names:
                raise SystemShapeError("equations are not linear in the top-order jets")
        rows.append(row + [-rest])

    # pivot for column k: the first remaining row that keeps the minor on
    # columns 0..k nonzero, as column-by-column elimination would choose
    size = len(tops)
    zero = Polynomial.zero()
    minors = {frozenset(): Polynomial.constant(1)}
    remaining = list(range(len(rows)))
    for col in range(size):
        leading = frozenset(range(col + 1))
        for r in remaining:
            extended = extend_minors(minors, rows[r])
            if not extended.get(leading, zero).is_zero():
                break
        else:
            return TopOrderResult(ok=False, solved={}, conditions=[], residuals=[])
        minors = extended
        remaining.remove(r)

    # numerator c: the minor without column c, right-hand side moved to c
    every = frozenset(range(size + 1))
    denominator = minors[frozenset(range(size))]
    solved: dict[JetVar, tuple[Polynomial, Polynomial]] = {}
    for col, jet in enumerate(tops):
        numerator = minors.get(every - {col}, zero)
        solved[jet] = (-numerator if (size - 1 - col) % 2 else numerator, denominator)
    # rest * denominator + row . numerators = -(full minor with that row)
    residuals = [-extend_minors(minors, rows[r]).get(every, zero) for r in remaining]
    return TopOrderResult(
        ok=True,
        solved=solved,
        conditions=[SideCondition(denominator)],
        residuals=residuals,
    )


# -- order-vector minimization ---------------------------------------------------


@dataclass(frozen=True)
class OrderSearchResult:
    """Smallest equation count over the order grid, with the estimate check."""

    orders: tuple[int, ...]
    n_h: int
    n_s: int
    estimate: Fraction  # (p+n) * (m*p/n)^m
    estimate_holds: bool  # n_h >= estimate
    offsets: tuple[Fraction, ...]  # distance of each order from m*p/n


def minimal_orders(p: int, n: int, m: int, cap: int = 20) -> OrderSearchResult:
    """Exhaustively minimize the prolonged equation count subject to having at
    least as many equations as unknowns, over order vectors up to ``cap``."""
    if p < 1 or n < 1 or m < 1 or cap < 1:
        raise SystemShapeError("minimal_orders needs p, n, m, cap >= 1")
    best: tuple[int, tuple[int, ...]] | None = None
    for orders in itertools.product(range(1, cap + 1), repeat=m):
        codec = IndexCodec(p, n, orders)
        n_h, n_s = codec.equation_count, codec.unknown_count
        if n_h < n_s:
            continue
        candidate = (n_h, orders)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise InfeasibleOrdersError(
            f"no order vector up to {cap} gives at least as many equations as unknowns"
        )
    n_h, orders = best
    n_s = IndexCodec(p, n, orders).unknown_count
    target = Fraction(m * p, n)
    estimate = (p + n) * target ** m
    return OrderSearchResult(
        orders=orders,
        n_h=n_h,
        n_s=n_s,
        estimate=estimate,
        estimate_holds=Fraction(n_h) >= estimate,
        offsets=tuple(Fraction(order) - target for order in orders),
    )
