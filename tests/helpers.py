"""Shared generators and independent root helpers for the test suite."""

import random
from fractions import Fraction

from overdet.jets import IndexCodec, ProlongedSystem
from overdet.oracle import gcd_univariate
from overdet.poly import Polynomial


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
