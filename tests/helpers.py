"""Shared generators, independent root helpers and test-local references
for the test suite."""

import heapq
import random
from fractions import Fraction
from typing import Any, Mapping

from overdet.jets import IndexCodec, ProlongedSystem
from overdet.oracle import gcd_univariate
from overdet.poly import Polynomial, Term, _over_common_denominator, parse_polynomial
from overdet.reduction import SideCondition


def random_univariate(rng: random.Random, degree: int, var: str = "x") -> Polynomial:
    """Random polynomial of exactly the given degree with small rational coefficients."""
    x = Polynomial.variable(var)
    total = Polynomial.zero()
    for power in range(degree):
        total = total + x ** power * Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    lead = Fraction(0)
    while lead == 0:
        lead = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return total + x ** degree * lead


def rational_roots_of(poly: Polynomial, var: str = "x") -> set[Fraction]:
    """Rational roots by divisor enumeration; independent of the solver path."""
    coeffs = [c.constant_value() for c in poly.coefficients_in(var)]
    if not coeffs:
        return set()
    scale = 1
    for c in coeffs:
        scale *= c.denominator
    ints = [int(c * scale) for c in coeffs]
    roots: set[Fraction] = set()
    shift = 0
    while shift < len(ints) and ints[shift] == 0:
        shift += 1
    if shift:
        roots.add(Fraction(0))
        ints = ints[shift:]
    if len(ints) <= 1:
        return roots
    for p in range(1, abs(ints[0]) + 1):
        if ints[0] % p:
            continue
        for q in range(1, abs(ints[-1]) + 1):
            if ints[-1] % q:
                continue
            for sign in (1, -1):
                candidate = Fraction(sign * p, q)
                if poly.evaluate({var: candidate}) == 0:
                    roots.add(candidate)
    return roots


def common_rational_roots(f: Polynomial, g: Polynomial, var: str = "x") -> set[Fraction]:
    if f.is_zero():
        return rational_roots_of(g, var)
    if g.is_zero():
        return rational_roots_of(f, var)
    return rational_roots_of(gcd_univariate(f, g, var), var)


def decode_unknown(codec: IndexCodec, index: int) -> tuple[int, tuple[int, ...]]:
    """``(v, j)`` of a 1-based unknown index, the inverse of
    ``codec.encode_unknown``: v varies fastest, then j_1, and j_m slowest."""
    assert 1 <= index <= codec.unknown_count
    rest, v = divmod(index - 1, codec.p)
    parts = []
    for top in codec.max_j():
        rest, part = divmod(rest, top + 1)
        parts.append(part)
    return v + 1, tuple(parts)


def count_active_unknowns(prolonged: ProlongedSystem) -> int:
    """Number of jet unknowns that occur in some prolonged equation; over
    the rationals these are exactly the ones with a partial that is not
    identically zero."""
    names = {jet.name for jet in prolonged.unknowns().values()}
    occurring = set()
    for equation in prolonged.equations.values():
        occurring.update(equation.variables())
    return len(occurring & names)


def leading_coefficient_in(poly: Polynomial, var: str) -> Polynomial:
    """The coefficient of the highest power of ``var``; zero for the zero
    polynomial."""
    return poly.coefficient_in(var, poly.degree_in(var))


def gradient_at(poly: Polynomial, point: Mapping[str, Any]) -> dict[str, Fraction]:
    """The nonzero first partials at a point, ``{variable: Fraction}``, read
    from the one walk that certify uses; every occurring variable must be
    assigned."""
    _, partials = poly._value_and_partials(point)
    return {var: Fraction(value) for var, value in partials.items() if value}


def is_identically_violated(condition: SideCondition) -> bool:
    return condition.polynomial.is_zero()


def prolonged_from_dict(data: Mapping[str, Any]) -> ProlongedSystem:
    """The inverse of ``formats.prolonged_to_dict``."""
    codec_data = data["codec"]
    codec = IndexCodec(
        p=codec_data["p"],
        n=codec_data["n"],
        orders=tuple(codec_data["orders"]),
        extended=codec_data["extended"],
    )
    equations = {
        entry["alpha"]: parse_polynomial(entry["polynomial"]) for entry in data["equations"]
    }
    return ProlongedSystem(
        codec=codec, equations=equations, base_vars=tuple(codec_data["base_vars"])
    )


def _reference_exact_quotient(dividend: Polynomial, divisor: Polynomial) -> Polynomial:
    """``Polynomial.exact_quotient`` on exponent-vector tuples: leading terms
    in lexicographic order over the name-sorted variables, popped from a
    heap of negated tuples, numerators divided with ``//`` where the leading
    numerator divides.  The packed division must give the same terms in the
    same order over the same denominator."""
    if not divisor._terms:
        raise ZeroDivisionError("polynomial division by zero")
    names = sorted({v for key in (*dividend._terms, *divisor._terms) for v, _ in key})

    def vector(key: Term) -> tuple[int, ...]:
        exps = dict(key)
        return tuple(exps.get(v, 0) for v in names)

    divisor_terms = sorted(
        ((vector(key), coeff) for key, coeff in divisor._terms.items()), reverse=True
    )
    (lead, lead_coeff), rest = divisor_terms[0], divisor_terms[1:]
    remainder = {vector(key): coeff for key, coeff in dividend._terms.items()}
    heap = [tuple(-e for e in exps) for exps in remainder]
    heapq.heapify(heap)
    quotient: dict[Term, int | Fraction] = {}
    while heap:
        top = tuple(-e for e in heapq.heappop(heap))
        coeff = remainder.pop(top, None)
        if coeff is None:
            continue
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift, default=0) < 0:
            raise ValueError("the divisor does not divide exactly")
        if type(coeff) is int and coeff % lead_coeff == 0:
            factor = coeff // lead_coeff
        else:
            factor = Fraction(coeff, lead_coeff)
        quotient[tuple((v, e) for v, e in zip(names, shift) if e)] = factor
        for exps, value in rest:
            target = tuple(a + b for a, b in zip(shift, exps))
            if target in remainder:
                updated = remainder[target] - factor * value
                if updated:
                    remainder[target] = updated
                else:
                    del remainder[target]
            else:
                remainder[target] = -factor * value
                heapq.heappush(heap, tuple(-e for e in target))
    numerators, den = _over_common_denominator(quotient)
    if divisor._den != 1:
        numerators = {key: coeff * divisor._den for key, coeff in numerators.items()}
    return Polynomial._canonical(numerators, den * dividend._den)
