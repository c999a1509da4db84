"""Degree-lowering reduction and elimination for overdetermined systems.

The paper's two-polynomial step replaces a pair {f, g} of equal degree n in
one variable by an equivalent pair {c, d} of degree at most n-1: c cancels
the leading terms of f and g, and d is c multiplied by the variable with the
top power absorbed back through f.  Chaining the step reaches a linear pair,
which is solved directly and checked with a 2x2 consistency determinant.
The chain is kept as the reference method; the solver does not use it.

A system of at least m+1 equations in m variables is solved one variable at
a time, the last variable included: every equation is viewed through its
list of coefficients in the chosen variable (polynomials in the remaining
ones) and reduced against a pivot by pseudo-remainders computed on those
lists, so that all arithmetic stays in the polynomial ring.  Factors known
to divide are divided out exactly, as in Collins' (1967) reduced remainder
sequence.  A level whose equations involve no other variable runs on one
primitive int list per equation and is their gcd, found through integer
gcds of their values (GCDHEU, Char, Geddes and Gonnet 1989) without the
coefficient growth of a remainder sequence, which stays as its fallback.
With no variable left, a nonzero constant means the system is
inconsistent.  Each level's pivot then gives its variable at each solution
of the rest: directly when it is linear, otherwise by the rational roots
of the substituted pivot, cleared to a primitive int list and searched in
ints.
Every pivot leading coefficient is asserted nonzero and recorded as a side
condition; results are complete only on the locus where all recorded
conditions hold.  Nonzero constant conditions hold everywhere and are left
out of outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import (
    AllDegreeZeroError,
    DegreeMismatchError,
    NotUnivariateError,
    SystemShapeError,
    ZeroLeadingCoefficientError,
)
from .poly import Polynomial

SOLVED = "solved"
INCONSISTENT = "inconsistent"
RESIDUAL = "residual"
DEGENERATE = "degenerate"

PAIR_REDUCE = "pair-reduce"
ABSORB_MULTIPLY = "absorb-multiply"
LINEAR_SOLVE = "linear-solve"
INCONSISTENCY = "inconsistency"
RESIDUAL_STEP = "residual"
BRANCH_SKIPPED = "branch-skipped"
GCD = "gcd"


@dataclass(frozen=True)
class SideCondition:
    """A polynomial asserted nonzero; downstream results are conditional on it."""

    polynomial: Polynomial


@dataclass(frozen=True)
class ReductionStep:
    """One recorded transformation; outputs are exact combinations of inputs."""

    kind: str
    inputs: tuple[Polynomial, ...]
    outputs: tuple[Polynomial, ...]
    conditions: tuple[SideCondition, ...] = ()


@dataclass
class ReductionOutcome:
    """Result of a reduction run: status, verified solutions, residue, trace."""

    status: str
    solutions: list[dict[str, Fraction]] = field(default_factory=list)
    residual_system: list[Polynomial] = field(default_factory=list)
    trace: list[ReductionStep] = field(default_factory=list)
    conditions: list[SideCondition] = field(default_factory=list)


def _merge_condition(conditions: list[SideCondition], new: SideCondition) -> None:
    """Record a condition once; a nonzero constant holds everywhere and says
    nothing, so it is left out (an identically zero one is kept)."""
    poly = new.polynomial
    if poly.is_constant() and not poly.is_zero():
        return
    if all(existing.polynomial != poly for existing in conditions):
        conditions.append(new)


# -- two-polynomial step -----------------------------------------------------


def reduce_pair(
    f: Polynomial, g: Polynomial, var: str
) -> tuple[Polynomial, Polynomial, list[SideCondition]]:
    """Lower a pair of equal degree n in ``var`` to a pair of degree <= n-1.

    With a constant leading coefficient a of f, returns
    ``c = g - (lead(g)/a) * f`` and ``d = var*c - (c_top/a) * f`` where c_top
    is the coefficient of ``var**(n-1)`` in c.  With a polynomial leading
    coefficient the same combinations are formed cross-multiplied by a, and
    ``a != 0`` is recorded as an extra side condition.  The returned
    conditions always include ``c_top != 0``; when c_top is identically zero
    the condition is violated and the caller must fall back to {f, c}.
    """
    n = f.degree_in(var)
    deg_g = g.degree_in(var)
    if n != deg_g:
        raise DegreeMismatchError(
            f"degrees in {var} differ: {n} vs {deg_g} (pad or pre-absorb first)"
        )
    if n < 1:
        raise DegreeMismatchError(f"pair degree in {var} must be at least 1, got {n}")
    lead_f = f.coefficient_in(var, n)
    lead_g = g.coefficient_in(var, n)
    if lead_f.is_zero():
        raise ZeroLeadingCoefficientError(f"leading coefficient of {f} in {var} is zero")
    x = Polynomial.variable(var)
    conditions: list[SideCondition] = []
    if lead_f.is_constant():
        inv = Fraction(1) / lead_f.constant_value()
        c = g - f * lead_g * inv
        c_top = c.coefficient_in(var, n - 1)
        d = c * x - f * c_top * inv
    else:
        conditions.append(SideCondition(lead_f))
        c = g * lead_f - f * lead_g
        c_top = c.coefficient_in(var, n - 1)
        d = c * x * lead_f - f * c_top
    conditions.append(SideCondition(c_top))
    return c, d, conditions


# -- univariate chain --------------------------------------------------------


def _verified(polys: Sequence[Polynomial], point: Mapping[str, Fraction]) -> bool:
    return all(p.evaluate(point) == 0 for p in polys)


def _finish_survivor(
    survivor: Polynomial,
    var: str,
    originals: Sequence[Polynomial],
    trace: list[ReductionStep],
) -> ReductionOutcome:
    """Terminal handling once the pair has collapsed to a single constraint."""
    degree = survivor.degree_in(var)
    if degree < 0:
        trace.append(ReductionStep(RESIDUAL_STEP, (survivor,), ()))
        return ReductionOutcome(DEGENERATE, trace=trace)
    if degree == 0:
        trace.append(ReductionStep(INCONSISTENCY, (survivor,), (survivor,)))
        return ReductionOutcome(INCONSISTENT, trace=trace)
    if degree == 1:
        a1 = survivor.coefficient_in(var, 1).constant_value()
        a0 = survivor.coefficient_in(var, 0).constant_value()
        root = -a0 / a1
        trace.append(ReductionStep(LINEAR_SOLVE, (survivor,), (Polynomial.zero(),)))
        point = {var: root}
        if not _verified(originals, point):
            trace.append(ReductionStep(BRANCH_SKIPPED, (survivor,), ()))
            return ReductionOutcome(INCONSISTENT, trace=trace)
        return ReductionOutcome(SOLVED, [point], trace=trace)
    trace.append(ReductionStep(RESIDUAL_STEP, (survivor,), (survivor,)))
    return ReductionOutcome(RESIDUAL, residual_system=[survivor], trace=trace)


def _linear_terminal(
    first: Polynomial,
    second: Polynomial,
    var: str,
    originals: Sequence[Polynomial],
    trace: list[ReductionStep],
) -> ReductionOutcome:
    """Solve a pair of linear equations and check the consistency determinant."""
    a1 = first.coefficient_in(var, 1)
    a0 = first.coefficient_in(var, 0)
    b1 = second.coefficient_in(var, 1)
    b0 = second.coefficient_in(var, 0)
    det = a1 * b0 - b1 * a0
    trace.append(ReductionStep(LINEAR_SOLVE, (first, second), (det,), (SideCondition(a1),)))
    if not det.is_zero():
        return ReductionOutcome(INCONSISTENT, trace=trace)
    root = -a0.constant_value() / a1.constant_value()
    point = {var: root}
    if not _verified(originals, point):
        trace.append(ReductionStep(BRANCH_SKIPPED, (first, second), ()))
        return ReductionOutcome(INCONSISTENT, trace=trace)
    return ReductionOutcome(SOLVED, [point], trace=trace)


def reduce_chain(f: Polynomial, g: Polynomial, var: str) -> ReductionOutcome:
    """Iterate the pair reduction on univariate constant-coefficient input
    until a linear pair (solved via the consistency determinant), a nonzero
    constant (inconsistent), or a surviving factor of degree >= 2 (residual).
    The conditions each step records stay in the trace; the outcome has
    none, since a step that continues the chain only asserts nonzero
    constants.
    """
    for poly in (f, g):
        if poly.is_zero():
            raise NotUnivariateError("reduce_chain requires nonzero polynomials")
        extra = [v for v in poly.variables() if v != var]
        if extra:
            raise NotUnivariateError(
                f"reduce_chain requires univariate input; {poly} also involves {extra}"
            )
    trace: list[ReductionStep] = []
    current_f, current_g = f, g
    while True:
        deg_f = current_f.degree_in(var)
        deg_g = current_g.degree_in(var)
        if deg_f < deg_g:
            current_f, current_g = current_g, current_f
            deg_f, deg_g = deg_g, deg_f
        if deg_g < 0:
            return _finish_survivor(current_f, var, (f, g), trace)
        if deg_g == 0:
            # a nonzero constant combination rules out every root
            trace.append(ReductionStep(INCONSISTENCY, (current_g,), (current_g,)))
            return ReductionOutcome(INCONSISTENT, trace=trace)
        if deg_f == 1 and deg_g == 1:
            return _linear_terminal(current_f, current_g, var, (f, g), trace)
        if deg_f == deg_g:
            c, d, pair_conditions = reduce_pair(current_f, current_g, var)
            trace.append(
                ReductionStep(PAIR_REDUCE, (current_f, current_g), (c, d), tuple(pair_conditions))
            )
            if c.is_zero():
                # proportional pair: only one independent constraint survives
                return _finish_survivor(current_f, var, (f, g), trace)
            c_degree = c.degree_in(var)
            if c_degree == deg_f - 1:
                # working pair continues scaled to primitive form (same roots)
                current_f, current_g = c.primitive_part(), d.primitive_part()
                continue
            if c_degree == 0:
                trace.append(ReductionStep(INCONSISTENCY, (c,), (c,)))
                return ReductionOutcome(INCONSISTENT, trace=trace)
            # c lost more than one degree: keep f and continue with {f, c}
            current_g = c.primitive_part()
            continue
        # unequal degrees: raise g to degree n-1 by multiplication, then
        # absorb one more multiplication through f
        x = Polynomial.variable(var)
        c = current_g
        for _ in range(deg_f - 1 - deg_g):
            c = c * x
        lead_f = current_f.coefficient_in(var, deg_f).constant_value()
        c_top = c.coefficient_in(var, deg_f - 1)
        d = c * x - current_f * c_top * (Fraction(1) / lead_f)
        trace.append(ReductionStep(ABSORB_MULTIPLY, (current_f, current_g), (c, d)))
        current_f, current_g = c, d.primitive_part()


# -- rational roots of a univariate survivor ---------------------------------


# divisor scans beyond this take too long; only small divisors are tried then
_ENUMERATION_LIMIT = 10 ** 12
# the largest divisor tried when a coefficient is beyond _ENUMERATION_LIMIT
_SMALL_DIVISOR_BOUND = 1000


def _divisors(n: int, bound: int | None = None) -> list[int]:
    """The positive divisors of n, or only those up to ``bound``."""
    n = abs(n)
    if bound is not None:
        return [k for k in range(1, bound + 1) if n % k == 0]
    found = set()
    k = 1
    while k * k <= n:
        if n % k == 0:
            found.add(k)
            found.add(n // k)
        k += 1
    return sorted(found)


def _primitive_ints(values: Sequence[int | Fraction]) -> list[int]:
    """Rational values scaled to coprime integers, the sign kept."""
    den = lcm(*(value.denominator for value in values))
    ints = [value.numerator * (den // value.denominator) for value in values]
    content = gcd(*ints)
    return [value // content for value in ints]


def _rational_roots(coefficients: list[int]) -> tuple[list[Fraction], list[int]]:
    """The rational roots of a nonzero integer polynomial (ascending
    coefficients), and what is left of it once each is divided out as often
    as it divides.  A root ``p/q`` in lowest terms has p dividing the lowest
    and q the leading nonzero coefficient, and ``f = (q*x - p)*g`` with g
    integral (Gauss's lemma), so a nonzero ``q - p`` divides ``f(1)`` and a
    nonzero ``q + p`` divides ``f(-1)``; each coprime pair that passes is
    tried by dividing by ``q*x - p``.  Beyond ``_ENUMERATION_LIMIT`` only
    divisors up to ``_SMALL_DIVISOR_BOUND`` are tried and roots can be
    missed; callers decide completeness by what is left."""
    low = 0
    while coefficients[low] == 0:
        low += 1
    roots = [Fraction(0)] if low else []
    left = coefficients[low:]
    constant, lead = left[0], left[-1]
    large = abs(constant) > _ENUMERATION_LIMIT or abs(lead) > _ENUMERATION_LIMIT
    bound = _SMALL_DIVISOR_BOUND if large else None
    numerators = _divisors(constant, bound)
    at_one, at_minus_one = sum(left), _value_at(left, -1)
    for q in _divisors(lead, bound):
        for numerator in numerators:
            if gcd(numerator, q) > 1:
                continue
            for p in (numerator, -numerator):
                if len(left) == 1:
                    return sorted(roots), left
                if (q - p and at_one % (q - p)) or (q + p and at_minus_one % (q + p)):
                    continue
                quotient = _exact_quotient(left, (-p, q))
                if quotient is None:
                    continue
                roots.append(Fraction(p, q))
                while quotient is not None:
                    left = quotient
                    quotient = _exact_quotient(left, (-p, q))
                at_one, at_minus_one = sum(left), _value_at(left, -1)
    return sorted(roots), left


# -- elimination of one variable ---------------------------------------------


def _pseudo_remainder(dividend: Polynomial, divisor: Polynomial, var: str) -> Polynomial:
    """``prem(dividend, divisor)`` in ``var``: the remainder of
    ``lc(divisor)**(gap + 1) * dividend`` modulo ``divisor``, where gap is the
    degree gap.  Each power of ``var`` cleared from the top multiplies by the
    leading coefficient once, whether or not its coefficient was zero.  The
    steps run on the coefficient lists in ``var``: clearing the top
    coefficient T of the remainder R is ``R_i = lead*R_i - T*B_(i-shift)``."""
    remainder = dividend.coefficients_in(var)
    *rest, lead = divisor.coefficients_in(var)
    for shift in range(len(remainder) - 1 - len(rest), -1, -1):
        top = remainder.pop()
        remainder = [coeff * lead for coeff in remainder]
        if not top.is_zero():
            for k, coeff in enumerate(rest):
                remainder[shift + k] -= coeff * top
    return Polynomial.from_coefficients(remainder, var)


@dataclass(frozen=True)
class _Remainder:
    """How an equation was last made: as ``prem(dividend, pivot)`` with the
    dividend ``gap`` degrees above the pivot."""

    pivot: Polynomial
    gap: int


@dataclass
class _EliminationResult:
    reduced: list[Polynomial]
    conditions: list[SideCondition]
    steps: list[ReductionStep]
    pivot: Polynomial  # the one equation left carrying the variable
    duplicates_only: bool  # every reduced equation was a constant multiple of its pivot


# -- a univariate level as a gcd ----------------------------------------------


# evaluation points tried before the pseudo-remainder loop takes over
_HEURISTIC_GCD_TRIES = 6


def _value_at(coeffs: Sequence[int], point: int) -> int:
    value = 0
    for coeff in reversed(coeffs):
        value = value * point + coeff
    return value


def _exact_quotient(dividend: Sequence[int], divisor: Sequence[int]) -> list[int] | None:
    """The quotient of two integer polynomials (ascending coefficients), or
    None when ``divisor`` does not divide ``dividend`` over Z; by Gauss's
    lemma a primitive divisor that divides over Q divides over Z."""
    remainder = list(dividend)
    degree = len(divisor) - 1
    quotient = []
    for top in range(len(remainder) - 1, degree - 1, -1):
        factor, rest = divmod(remainder[top], divisor[-1])
        if rest:
            return None
        quotient.append(factor)
        if factor:
            for k, coeff in enumerate(divisor):
                remainder[top - degree + k] -= factor * coeff
    return None if any(remainder[:degree]) else quotient[::-1]


def _heuristic_gcd(f: Sequence[int], g: Sequence[int]) -> list[int] | None:
    """The gcd of two primitive integer polynomials (ascending coefficient
    lists), primitive with a positive lead, by GCDHEU (Char, Geddes and
    Gonnet 1989): the integer gcd of their values at xi, read back as
    symmetric xi-adic digits.  With xi >= 2*min(|f|, |g|) + 2, |f| the
    largest coefficient of f in absolute value, the primitive part of that
    reading is their gcd when it divides both.  The first xi is
    2*min(|f|, |g|) + 29, as in sympy: at the least admissible point small
    inputs often share an integer factor by chance.  Otherwise xi grows by
    the paper's factor 73794/27011; None when no xi tried gives the gcd."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEURISTIC_GCD_TRIES):
        # xi is beyond every integer root of the input of least norm, so
        # h > 0, and the top digit of a positive h is positive
        h = gcd(_value_at(f, xi), _value_at(g, xi))
        digits = []
        while h:
            digit = h % xi
            if 2 * digit > xi:
                digit -= xi
            digits.append(digit)
            h = (h - digit) // xi
        content = gcd(*digits)
        candidate = [digit // content for digit in digits]
        if all(_exact_quotient(h, candidate) is not None for h in (f, g)):
            return candidate
        xi = xi * 73794 // 27011
    return None


def _eliminate_by_gcd(
    equations: list[Polynomial], positive: list[int], var: str
) -> _EliminationResult | None:
    """Eliminate ``var`` from equations in ``var`` alone: the equations of
    positive degree (indices ``positive``) share exactly the roots of their
    gcd.  The pivot is that gcd, or the equation of least degree when it
    divides every other (then only duplicates were reduced); the others
    become 0, or one nonzero constant when the gcd is 1.  Equations free of
    ``var`` pass unchanged.  None when the heuristic gcd gives up."""
    pivot_index = min(positive, key=lambda i: (equations[i].degree_in(var), i))
    pivot_coefficients = _primitive_ints(equations[pivot_index].numerators_in(var))
    common = pivot_coefficients
    for index in positive:
        if index == pivot_index:
            continue
        found = _heuristic_gcd(common, _primitive_ints(equations[index].numerators_in(var)))
        if found is None:
            return None
        common = found
        if len(common) == 1:
            break
    divisor = Polynomial({((var, k),): coeff for k, coeff in enumerate(common)})
    duplicates_only = len(common) == len(pivot_coefficients)
    pivot = equations[pivot_index]
    left = {index: Polynomial.zero() for index in positive if index != pivot_index}
    if len(common) == 1:
        # no common root: the level below sees a nonzero constant
        left[next(iter(left))] = divisor
    elif not duplicates_only:
        pivot = divisor
    step = ReductionStep(GCD, tuple(equations[i] for i in positive), (divisor,))
    return _EliminationResult(
        reduced=[left.get(i, e) for i, e in enumerate(equations) if i != pivot_index],
        conditions=[],
        steps=[step],
        pivot=pivot,
        duplicates_only=duplicates_only,
    )


def _eliminate(system: Sequence[Polynomial], var: str) -> _EliminationResult:
    """Reduce every equation but one to be free of ``var``.

    When every equation involves ``var`` alone, the level is their gcd
    (``_eliminate_by_gcd``), with the loop below as its fallback.  There
    the pivot is the equation of least positive degree; every other
    equation of at least its degree is replaced by its pseudo-remainder.
    When the pivot is itself ``prem(E, P)`` and ``P`` is reduced against it,
    the step continues a reduced remainder sequence, and the known factor,
    a power of ``lc(P)``, is divided out exactly.
    Each pivot's leading coefficient is recorded as a side condition, and
    the divided remainders stay in the ideal of the input, so solutions
    stay complete where the recorded conditions hold.
    """
    equations = list(system)
    positive = [i for i, e in enumerate(equations) if e.degree_in(var) >= 1]
    if not positive:
        raise AllDegreeZeroError(f"no equation involves {var}")
    if len(positive) > 1 and all(e.variables() in ((), (var,)) for e in equations):
        result = _eliminate_by_gcd(equations, positive, var)
        if result is not None:
            return result
    made: list[_Remainder | None] = [None] * len(equations)
    conditions: list[SideCondition] = []
    steps: list[ReductionStep] = []
    duplicates_only = True
    while True:
        degrees = [e.degree_in(var) for e in equations]
        positive = [i for i, d in enumerate(degrees) if d >= 1]
        pivot_index = min(positive, key=lambda i: (degrees[i], i))
        pivot = equations[pivot_index]
        pivot_degree = degrees[pivot_index]
        higher = [i for i in positive if i != pivot_index and degrees[i] >= pivot_degree]
        if not higher:
            break
        pivot_lead = pivot.coefficient_in(var, pivot_degree)
        cond = SideCondition(pivot_lead)
        _merge_condition(conditions, cond)
        history = made[pivot_index]
        for index in higher:
            dividend = equations[index]
            gap = degrees[index] - pivot_degree
            lead = dividend.coefficient_in(var, degrees[index])
            remainder = _pseudo_remainder(dividend, pivot, var)
            if history is not None and dividend is history.pivot:
                # reduced PRS: prem(P, prem(E, P)) is divisible by
                # lc(P)**(d + 1), d the degree gap of E over P (Collins 1967)
                divisor = lead ** (history.gap + 1)
                remainder = remainder.exact_quotient(divisor)
                inputs = (dividend, pivot, divisor)
            else:
                inputs = (dividend, pivot)
            remainder = remainder.primitive_part()
            steps.append(ReductionStep(PAIR_REDUCE, inputs, (remainder,), (cond,)))
            equations[index] = remainder
            made[index] = _Remainder(pivot, gap)
            if not (
                remainder.is_zero() and lead.is_constant() and pivot_lead.is_constant()
            ):
                duplicates_only = False
    return _EliminationResult(
        reduced=[e for i, e in enumerate(equations) if i != pivot_index],
        conditions=conditions,
        steps=steps,
        pivot=pivot,
        duplicates_only=duplicates_only,
    )


def eliminate_variable(
    system: Sequence[Polynomial], var: str
) -> tuple[list[Polynomial], list[SideCondition], list[ReductionStep]]:
    """Eliminate ``var`` from a system of k equations, returning the k-1
    cross-consistency equations free of ``var`` plus the recorded side
    conditions and the step-by-step trace."""
    result = _eliminate(system, var)
    return result.reduced, result.conditions, result.steps


# -- full solve ---------------------------------------------------------------


def _occurring_variables(system: Sequence[Polynomial]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*(poly.variables() for poly in system))))


def _solve_recursive(
    system: Sequence[Polynomial], variables: Sequence[str]
) -> ReductionOutcome:
    if not variables:
        nonzero = [p for p in system if not p.is_zero()]
        if nonzero:
            step = ReductionStep(INCONSISTENCY, (nonzero[0],), (nonzero[0],))
            return ReductionOutcome(INCONSISTENT, trace=[step])
        return ReductionOutcome(SOLVED, [{}])

    var = variables[-1]
    try:
        elimination = _eliminate(system, var)
    except AllDegreeZeroError:
        # var is free: inconsistent if the remaining equations are, and
        # otherwise they are what stopped the solve
        inner = _solve_recursive(system, variables[:-1])
        if inner.status == INCONSISTENT:
            return inner
        remaining = tuple(p for p in system if not p.is_zero())
        step = ReductionStep(RESIDUAL_STEP, remaining, remaining)
        return ReductionOutcome(DEGENERATE, residual_system=list(remaining), trace=[step])
    inner = _solve_recursive(elimination.reduced, variables[:-1])
    trace = elimination.steps + inner.trace
    conditions = list(elimination.conditions)
    for cond in inner.conditions:
        _merge_condition(conditions, cond)

    if inner.status == INCONSISTENT:
        return ReductionOutcome(INCONSISTENT, trace=trace, conditions=conditions)

    pivot = elimination.pivot
    coefficients = pivot.coefficients_in(var)
    solutions: list[dict[str, Fraction]] = []
    unresolved = False
    for point in inner.solutions:
        values = [coeff.evaluate(point) for coeff in coefficients]
        while values and values[-1] == 0:
            values.pop()
        if len(values) < 2:
            # the pivot is free of the variable at this point, which lies
            # where its leading coefficient vanishes
            lead = coefficients[-1]
            cond = SideCondition(lead)
            trace.append(ReductionStep(BRANCH_SKIPPED, (lead,), (), (cond,)))
            _merge_condition(conditions, cond)
            continue
        if len(values) == 2:
            roots = [-values[0] / values[1]]
            complete = True
        else:
            roots, left = _rational_roots(_primitive_ints(values))
            complete = len(left) == 1
        if not complete:
            # irrational roots, or rational ones beyond the divisors tried:
            # the pivot stays as a residual beside the verified roots
            trace.append(ReductionStep(RESIDUAL_STEP, (pivot,), (pivot,)))
            unresolved = True
        for root in roots:
            candidate = dict(point)
            candidate[var] = root
            if not _verified(system, candidate):
                trace.append(ReductionStep(BRANCH_SKIPPED, tuple(system), ()))
                continue
            solutions.append(candidate)

    if inner.status in (RESIDUAL, DEGENERATE):
        status = DEGENERATE if inner.status == DEGENERATE and elimination.duplicates_only else RESIDUAL
        trace.append(ReductionStep(RESIDUAL_STEP, (pivot,), (pivot,)))
        return ReductionOutcome(
            status,
            solutions,
            residual_system=list(inner.residual_system) + [pivot],
            trace=trace,
            conditions=conditions,
        )
    if unresolved:
        return ReductionOutcome(
            RESIDUAL, solutions, residual_system=[pivot], trace=trace, conditions=conditions
        )
    if not solutions:
        return ReductionOutcome(INCONSISTENT, trace=trace, conditions=conditions)
    return ReductionOutcome(SOLVED, solutions, trace=trace, conditions=conditions)


def solve_overdetermined(
    system: Sequence[Polynomial], variables: Sequence[str] | None = None
) -> ReductionOutcome:
    """Solve a system of at least m+1 polynomial equations in m variables.

    Variables are eliminated from the last one down, each by the same
    pseudo-remainder kernel or, once the equations involve that variable
    alone, by their gcd, until no variable is left: a nonzero constant
    there means inconsistent.  Solved values are back-substituted in reverse
    order through each level's pivot (its rational roots) and every returned
    point is re-verified by exact evaluation against the input system.
    Points on loci where a recorded side condition vanishes are not
    enumerated (the corresponding branches are skipped, not explored).  A
    variable that no remaining equation involves stops the solve there as
    ``degenerate``, or as ``inconsistent`` when the remaining equations have
    no solution over the variables left.  ``variables`` defaults to the
    occurring names in name order.
    """
    polys = list(system)
    if variables is None:
        variables = _occurring_variables(polys)
    variables = tuple(variables)
    if len(polys) < len(variables) + 1:
        raise SystemShapeError(
            f"need {len(variables) + 1} equations for {len(variables)} variables, "
            f"got {len(polys)} (system is not overdetermined enough)"
        )
    if not variables:
        raise SystemShapeError("system involves no variables")
    if len(set(variables)) < len(variables):
        raise SystemShapeError(f"variables repeat a name: {list(variables)}")
    unlisted = [v for v in _occurring_variables(polys) if v not in variables]
    if unlisted:
        raise SystemShapeError(f"equations involve variables not solved for: {unlisted}")
    outcome = _solve_recursive(polys, variables)
    outcome.solutions.sort(key=lambda pt: tuple(pt[v] for v in variables if v in pt))
    return outcome
