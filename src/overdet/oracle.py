"""Independent cross-check algorithms: GCD, resultants, brute-force roots.

These deliberately use classical machinery (Euclidean division, Sylvester
determinants, exhaustive search) that shares nothing with the reduction
pipeline, so agreement between the two is evidence rather than tautology.
None of it is performance-tuned; verification workloads are small.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotUnivariateError, UndefinedResultantError
from .poly import Polynomial, determinant

__all__ = [
    "gcd_univariate",
    "sylvester_resultant",
    "rational_root_search",
]


def _univariate_coeffs(f: Polynomial, var: str) -> list[Fraction]:
    """Ascending coefficient list of a univariate polynomial; [] for zero."""
    extra = [v for v in f.variables() if v != var]
    if extra:
        raise NotUnivariateError(f"polynomial {f} is not univariate in {var}")
    return [c.constant_value() for c in f.coefficients_in(var)]


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _remainder(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    rem = list(num)
    lead = den[-1]
    while len(rem) >= len(den) and rem:
        factor = rem[-1] / lead
        shift = len(rem) - len(den)
        for k, coeff in enumerate(den):
            rem[shift + k] -= factor * coeff
        rem = _trim(rem)
    return rem


def _from_coeffs(coeffs: Sequence[Fraction], var: str) -> Polynomial:
    x = Polynomial.variable(var)
    total = Polynomial.zero()
    for power, coeff in enumerate(coeffs):
        total = total + x ** power * coeff
    return total


def gcd_univariate(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    a = _trim(_univariate_coeffs(f, var))
    b = _trim(_univariate_coeffs(g, var))
    if not a and not b:
        raise NotUnivariateError("gcd of two zero polynomials is undefined")
    while b:
        a, b = b, _remainder(a, b)
    monic = [c / a[-1] for c in a]
    return _from_coeffs(monic, var)


def sylvester_resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Determinant of the Sylvester matrix of f and g in ``var``.

    Rows hold the coefficients of f (descending powers, one row per shift)
    followed by those of g.  The result is a polynomial in the remaining
    variables that vanishes wherever f and g share a root in ``var``.
    """
    deg_f = f.degree_in(var)
    deg_g = g.degree_in(var)
    if deg_f < 0 or deg_g < 0:
        raise UndefinedResultantError("resultant with the zero polynomial")
    if deg_f == 0 and deg_g == 0:
        raise UndefinedResultantError("both polynomials are constant in " + var)
    size = deg_f + deg_g
    f_desc = list(reversed(f.coefficients_in(var)))
    g_desc = list(reversed(g.coefficients_in(var)))
    rows: list[list[Polynomial]] = []
    for shift in range(deg_g):
        row = [Polynomial.zero()] * size
        for k, coeff in enumerate(f_desc):
            row[shift + k] = coeff
        rows.append(row)
    for shift in range(deg_f):
        row = [Polynomial.zero()] * size
        for k, coeff in enumerate(g_desc):
            row[shift + k] = coeff
        rows.append(row)
    return determinant(rows)


def rational_root_search(
    system: Iterable[Polynomial], bound: int, variables: Sequence[str] | None = None
) -> list[dict[str, Fraction]]:
    """All rational points p/q with |p| <= bound, 1 <= q <= bound that zero
    every polynomial of the system.  Exhaustive over the candidate grid.
    ``variables`` defaults to the occurring names in name order."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    polys = list(system)
    if variables is None:
        variables = tuple(sorted(set().union(*(poly.variables() for poly in polys))))
    candidates = sorted(
        {
            Fraction(numerator, denominator)
            for numerator in range(-bound, bound + 1)
            for denominator in range(1, bound + 1)
        }
    )
    roots = []
    for values in itertools.product(candidates, repeat=len(variables)):
        point = dict(zip(variables, values))
        if all(poly.evaluate(point) == 0 for poly in polys):
            roots.append(point)
    return roots
