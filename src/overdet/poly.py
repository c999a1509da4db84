"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is stored as integer numerators over one shared positive
denominator: ``sum(n_t * t) / den``.  Arithmetic is exact and equality of
canonical forms is decidable.  Polynomials are immutable; every operation
returns a fresh value in canonical form (no zero numerators, no zero
exponents, ``gcd(den, *numerators) == 1``, and ``den == 1`` for the zero
polynomial).  Integer polynomials keep ``den == 1``, so their arithmetic
runs on plain ints; the gcd normalisation only runs when ``den != 1``.
Coefficients are read back as ``fractions.Fraction`` values.  Two
polynomials are equal exactly when their values are, and a constant
polynomial hashes as its value.  Term keys, printing and
:meth:`Polynomial.variables` all order variables by name.

Products and exact quotients are where elimination spends its time.  A
product of at least ``_PACKED_MIN_PAIRS`` term pairs packs each term key of
both operands into one int, a bit field per variable wide enough that no
field of a product overflows, so that multiplying two keys is one int
addition; each result key is unpacked once.  Smaller products multiply the
key tuples pair by pair, which is cheaper when packing cannot pay for
itself.  Exact division always runs on packed keys, with a guard bit above
each field that shows a failed divisibility test or an overflow.

Text syntax accepted by :func:`parse_polynomial`: named variables combined
with ``+ - * ^``, integer or rational literals such as ``-3/4``, parentheses
for grouping.  Multiplication is always explicit (``2*x``, never ``2x``).

Degrees are plain integers: the zero polynomial has degree -1 in every
variable, so a degree below 0 means "zero polynomial" and below 1 means
"free of the variable".
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left
from functools import reduce
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, MutableMapping, Sequence, Union

from .errors import MissingAssignmentError, PolynomialParseError

#: Exact rational scalar type used for every coefficient and evaluation result.
Scalar = Fraction

ScalarLike = Union[Fraction, int]


#: A term key: the name-sorted tuple of ``(variable, exponent)`` pairs with
#: positive exponents; ``()`` is the constant monomial 1.
Term = tuple[tuple[str, int], ...]

#: Term data the public constructor accepts: pairs in any order, or a mapping.
TermLike = Union[Iterable[tuple[str, int]], Mapping[str, int]]


def _key_product(left: Term, right: Term) -> Term:
    if not left or not right:
        return left or right
    merged = dict(left)
    for v, e in right:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


#: The fewest term pairs (``len(left) * len(right)``) a product runs on
#: packed exponent vectors.  Packing costs a pass over both operands and one
#: unpack per result term, which pays only when term pairs are many.  Timed
#: on the 3,152 products of one planted-solve round (perfbench seed 11,
#: min of 5 repeats, CPython 3.11), the packed path was 1.3x slower at 6-11
#: pairs, even at 14-16, 1.1-1.3x faster at 18-24 and 1.5-2x at 32-48.
_PACKED_MIN_PAIRS = 16


def _top_exponents(terms: Iterable[Term]) -> dict[str, int]:
    """Each variable's largest exponent in ``terms``, in order of first
    occurrence."""
    tops: dict[str, int] = {}
    for key in terms:
        for var, exp in key:
            if exp > tops.get(var, 0):
                tops[var] = exp
    return tops


def _packing(
    top_left: Mapping[str, int], top_right: Mapping[str, int], guard: bool = False
) -> tuple[list[tuple[str, int, int]], dict[str, int], int]:
    """The layout of packed exponent vectors for terms whose exponents
    reach at most the sums of ``top_left`` and ``top_right``:
    ``(fields, offsets, guards)``.

    Each variable gets one bit field, as wide as the bit length of its two
    largest exponents summed, with one guard bit above it when ``guard`` is
    set.  The first variable in name order takes the highest field, so
    comparing packed ints compares term keys lexicographically over the
    name-sorted variables.  ``fields`` lists ``(variable, offset, mask)`` in
    name order, ``offsets`` maps each variable to its offset, and ``guards``
    is the mask of the guard bits.
    """
    fields: list[tuple[str, int, int]] = []
    offsets: dict[str, int] = {}
    guards = offset = 0
    for var in sorted(top_left.keys() | top_right.keys(), reverse=True):
        width = (top_left.get(var, 0) + top_right.get(var, 0)).bit_length()
        fields.append((var, offset, (1 << width) - 1))
        offsets[var] = offset
        offset += width
        if guard:
            guards |= 1 << offset
            offset += 1
    fields.reverse()
    return fields, offsets, guards


def _pack(key: Term, offsets: Mapping[str, int]) -> int:
    packed = 0
    for var, exp in key:
        packed += exp << offsets[var]
    return packed


def _packed_product(left: Mapping[Term, int], right: Mapping[Term, int]) -> dict[Term, int]:
    """The numerators of the product of two term maps, computed on packed
    exponent vectors (Monagan and Pearce, CASC 2007).

    Each term key is packed once (:func:`_packing`, no guard bits), so no
    field of a product overflows into the next and multiplying two term
    keys is one int addition.  The products of the numerators accumulate
    under packed keys, and each nonzero sum is unpacked once, in order of
    first insertion: the terms and their order are those the pair loop over
    term keys gives.
    """
    fields, offsets, _ = _packing(_top_exponents(left), _top_exponents(right))
    packed_right = [(_pack(key, offsets), coeff) for key, coeff in right.items()]
    acc: dict[int, int] = {}
    for key, c1 in left.items():
        p1 = _pack(key, offsets)
        for p2, c2 in packed_right:
            packed = p1 + p2
            if packed in acc:
                acc[packed] += c1 * c2
            else:
                acc[packed] = c1 * c2
    terms: dict[Term, int] = {}
    for packed, coeff in acc.items():
        if coeff:
            key = [(var, exp) for var, offset, mask in fields if (exp := packed >> offset & mask)]
            terms[tuple(key)] = coeff
    return terms


def _times_variable(key: Term, var: str, exp: int = 1) -> Term:
    """``key`` times ``var ** exp``: a single pair inserted at its place in
    the name order, or one exponent raised."""
    index = bisect_left(key, (var,))  # (var,) sorts just before (var, e)
    if index < len(key) and key[index][0] == var:
        return key[:index] + ((var, key[index][1] + exp),) + key[index + 1:]
    return key[:index] + ((var, exp),) + key[index:]


def _key_derivation(
    key: Term, get: Callable[[str], str | int | None]
) -> tuple[tuple[Term, int], ...]:
    """The parts of ``key`` under a derivation whose images ``get``
    returns: ``((key/x)*image(x), e)`` for each variable x of exponent e
    with an image, in key order."""
    parts = []
    for index, (var, exp) in enumerate(key):
        image = get(var)
        if image is None:
            continue
        if exp > 1:
            lowered = key[:index] + ((var, exp - 1),) + key[index + 1:]
        else:
            lowered = key[:index] + key[index + 1:]
        if image != 1:
            lowered = _times_variable(lowered, image)
        parts.append((lowered, exp))
    return tuple(parts)


def _integral(value: ScalarLike) -> ScalarLike:
    """An integral ``Fraction`` as its int numerator, so that products with
    it stay in int arithmetic; any other value unchanged."""
    return value.numerator if type(value) is Fraction and value.denominator == 1 else value


def _over_common_denominator(
    values: Mapping[Term, int | Fraction],
) -> tuple[dict[Term, int], int]:
    """Integer numerators over the lcm of the denominators of ``values``.
    They need no gcd normalisation: the full power of each prime in the lcm
    comes from one value's denominator, and that value's numerator is prime
    to it."""
    den = lcm(*(c.denominator for c in values.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in values.items()}, den


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    A polynomial holds its terms and their shared denominator, nothing else:
    :meth:`variables` lists the occurring names in name order.
    """

    __slots__ = ("_terms", "_den")

    def __init__(
        self,
        terms: Mapping[TermLike, ScalarLike] | Iterable[tuple[TermLike, ScalarLike]] = (),
    ):
        """Build a polynomial from ``{term: coefficient}`` data, or from an
        iterable of such items, where a term is ``(variable, exponent)``
        pairs in any order or a ``{variable: exponent}`` mapping.  Zero
        exponents drop, duplicate terms are summed and zero coefficients
        drop; a negative exponent raises ``ValueError``."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Term, int | Fraction] = {}
        for exps, coeff in items:
            pairs = dict(exps)
            for var, exp in pairs.items():
                if exp < 0:
                    raise ValueError(f"negative exponent for {var}")
            key = tuple(sorted((v, e) for v, e in pairs.items() if e))
            value = coeff if type(coeff) is int else Fraction(coeff)
            acc[key] = acc[key] + value if key in acc else value
        numerators, self._den = _over_common_denominator(acc)
        self._terms = {key: coeff for key, coeff in numerators.items() if coeff}

    @classmethod
    def _canonical(cls, terms: dict[Term, int], den: int = 1) -> "Polynomial":
        """Wrap integer numerators ``terms`` with canonical keys over the
        positive ``den``; zeros are dropped and, when ``den != 1``, the gcd
        shared by ``den`` and every numerator is divided out.  Arithmetic on
        existing polynomials keeps these conditions, so it skips the
        validation of the public constructor.  ``terms`` must be a dict the
        caller no longer changes: without zeros and a shared factor it
        becomes the polynomial's own, uncopied, so its keys are not hashed
        again."""
        poly = object.__new__(cls)
        if 0 in terms.values():
            terms = {key: coeff for key, coeff in terms.items() if coeff}
        if den != 1:
            shared = gcd(den, *terms.values())
            if shared != 1:
                terms = {key: coeff // shared for key, coeff in terms.items()}
                den //= shared
        poly._terms = terms
        poly._den = den
        return poly

    def _scalar(self, numerator: int | Fraction) -> Fraction:
        """``numerator / den`` as a ``Fraction``."""
        return Fraction(numerator) if self._den == 1 else Fraction(numerator, self._den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial({})

    @staticmethod
    def constant(value: ScalarLike) -> "Polynomial":
        return Polynomial({(): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return Polynomial({((name, 1),): 1})

    @staticmethod
    def from_terms(
        terms: Mapping[TermLike, ScalarLike] | Iterable[tuple[TermLike, ScalarLike]],
        variables: Iterable[str] = (),
    ) -> "Polynomial":
        """The public constructor under its older name; ``variables`` is
        ignored."""
        return Polynomial(terms)

    # -- basic queries -----------------------------------------------------

    def variables(self) -> tuple[str, ...]:
        """Variables that actually occur, in name order."""
        return tuple(sorted({v for key in self._terms for v, _ in key}))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not key for key in self._terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._scalar(self._terms.get((), 0))

    def ordered_terms(self) -> list[tuple[Term, Fraction]]:
        """Terms with their ``Fraction`` coefficients in canonical order:
        graded lexicographic over name-sorted variables, so the ordering
        survives printing and reparsing."""
        order = self.variables()

        def grlex(key: Term):
            exps = dict(key)
            return (-sum(exps.values()), tuple(-exps.get(v, 0) for v in order))

        return [(key, self._scalar(self._terms[key])) for key in sorted(self._terms, key=grlex)]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def _sum(self, rhs: "Polynomial", sign: int) -> "Polynomial":
        """``self + sign * rhs`` over the lcm of the two denominators."""
        den = self._den if self._den == rhs._den else lcm(self._den, rhs._den)
        scale = den // self._den
        acc = dict(self._terms) if scale == 1 else {
            key: coeff * scale for key, coeff in self._terms.items()
        }
        rhs_scale = sign * (den // rhs._den)
        for key, coeff in rhs._terms.items():
            if rhs_scale != 1:
                coeff *= rhs_scale
            acc[key] = acc[key] + coeff if key in acc else coeff
        return Polynomial._canonical(acc, den)

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._sum(rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._canonical(
            {key: -coeff for key, coeff in self._terms.items()}, self._den
        )

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._sum(rhs, -1)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._sum(self, -1)

    def __mul__(self, other) -> "Polynomial":
        """The product, over the product of the denominators.

        A product of at least ``_PACKED_MIN_PAIRS`` term pairs runs on
        packed exponent vectors (:func:`_packed_product`), where a key
        product is one int addition instead of a dict merge and a sort; a
        smaller one multiplies term keys pair by pair.  Both give the same
        terms in the same order.
        """
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        left, right = self._terms, rhs._terms
        if len(left) * len(right) >= _PACKED_MIN_PAIRS:
            acc = _packed_product(left, right)
        else:
            acc = {}
            for k1, c1 in left.items():
                for k2, c2 in right.items():
                    key = _key_product(k1, k2)
                    acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
        return Polynomial._canonical(acc, self._den * rhs._den)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1)
        base = self
        remaining = power
        while remaining:
            if remaining & 1:
                result = result * base
            remaining >>= 1
            if remaining:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._den == rhs._den and self._terms == rhs._terms

    def __hash__(self) -> int:
        # a constant equals its scalar value, so it hashes as that value
        if self.is_constant():
            return hash(self._scalar(self._terms.get((), 0)))
        return hash((self._den, frozenset(self._terms.items())))

    def exact_quotient(self, divisor: "Polynomial") -> "Polynomial":
        """The polynomial q with ``q * divisor == self``.

        Division walks leading terms in lexicographic order over the
        name-sorted variables, dividing the numerators; the denominators
        only scale the result.  Each step divides with ``//`` when the
        divisor's leading numerator divides exactly, which it always does
        when q has integer numerators, and is exact over the rationals
        otherwise.

        Term keys are packed once (:func:`_packing`), with fields wide
        enough for the sum of the two operands' largest exponents and a
        guard bit above each, so int order is the term order.  The
        remainder maps packed keys to numerators, with a heap of its negated
        keys, so each step pops its leading term instead of rescanning.  A
        leading term is divisible when subtracting the divisor's leading key
        clears no guard bit.  A new remainder key that sets a guard bit
        proves the division inexact, since in an exact division no
        intermediate exponent exceeds the dividend's.  The quotient is
        unpacked once.  Raises ``ValueError`` when ``divisor`` does not
        divide exactly and ``ZeroDivisionError`` when it is zero.
        """
        if not divisor._terms:
            raise ZeroDivisionError("polynomial division by zero")
        fields, offsets, guards = _packing(
            _top_exponents(self._terms), _top_exponents(divisor._terms), guard=True
        )
        divisor_terms = sorted(
            ((_pack(key, offsets), coeff) for key, coeff in divisor._terms.items()), reverse=True
        )
        (lead, lead_coeff), rest = divisor_terms[0], divisor_terms[1:]
        remainder = {_pack(key, offsets): coeff for key, coeff in self._terms.items()}
        # a max-heap of the remainder's packed keys; entries of terms that
        # cancelled stay behind and are skipped when popped
        heap = [-packed for packed in remainder]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        quotient: dict[int, int | Fraction] = {}
        while heap:
            top = -heappop(heap)
            coeff = remainder.pop(top, None)
            if coeff is None:
                continue
            if ((top | guards) - lead) & guards != guards:
                raise ValueError("the divisor does not divide exactly")
            shift = top - lead
            if type(coeff) is int and coeff % lead_coeff == 0:
                factor = coeff // lead_coeff
            else:
                factor = Fraction(coeff, lead_coeff)
            quotient[shift] = factor
            for packed, value in rest:
                target = shift + packed
                if target in remainder:
                    updated = remainder[target] - factor * value
                    if updated:
                        remainder[target] = updated
                    else:
                        del remainder[target]
                elif target & guards:
                    raise ValueError("the divisor does not divide exactly")
                else:
                    remainder[target] = -factor * value
                    heappush(heap, -target)
        # (N / a) / (M / b) = (N / M) * b / a
        numerators, den = _over_common_denominator(quotient)
        terms: dict[Term, int] = {}
        for shift, coeff in numerators.items():
            key = [(var, exp) for var, offset, mask in fields if (exp := shift >> offset & mask)]
            terms[tuple(key)] = coeff * divisor._den
        return Polynomial._canonical(terms, den * self._den)

    def primitive_part(self) -> "Polynomial":
        """Each coefficient divided by the positive rational content, the
        gcd g of the numerators over the shared denominator: the numerators
        divided by g, over 1.  The zero set is unchanged."""
        if not self._terms:
            return self
        shared = gcd(*self._terms.values())
        if shared == 1 and self._den == 1:
            return self
        return Polynomial._canonical({key: coeff // shared for key, coeff in self._terms.items()})

    # -- calculus and structure --------------------------------------------

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Fraction:
        """Exact value at a point assigning a rational to every occurring variable.

        Every variable of a term must be assigned, even when another factor
        is zero.  A term stops at its first zero factor and adds nothing;
        otherwise its numerator multiplies the product of the point values
        once (an integral ``Fraction`` taken as its int numerator), and the
        sum is divided by the denominator at the end.  At the first
        non-integral value the whole sum is taken over a common denominator
        instead, so that it stays in ints too.
        """
        total = 0
        for key, coeff in self._terms.items():
            for var, _ in key:
                if var not in point:
                    raise MissingAssignmentError(var)
            product = 1
            for var, exp in key:
                value = point[var]
                if not value:
                    break
                if type(value) is Fraction:
                    if value.denominator != 1:
                        return self._evaluate_over_denominators(point)
                    value = value.numerator
                product *= value if exp == 1 else value ** exp
            else:
                total += coeff * product
        return self._scalar(total)

    def _evaluate_over_denominators(self, point: Mapping[str, ScalarLike]) -> Fraction:
        """``evaluate`` at a point with non-integral values, with each value
        taken as ``n/d``: over ``D``, the product of ``d**top`` where top is
        the variable's largest exponent, a term is its numerator times the
        ``n**e`` of its factors times ``D`` over their ``d**e``."""
        tops = _top_exponents(self._terms)
        for var in tops:
            if var not in point:
                raise MissingAssignmentError(var)
        values = {var: Fraction(point[var]) for var in tops}
        common = 1
        for var, top in tops.items():
            common *= values[var].denominator ** top
        total = 0
        for key, coeff in self._terms.items():
            numerator, denominator = coeff, 1
            for var, exp in key:
                value = values[var]
                if not value:
                    break
                numerator *= value.numerator ** exp
                denominator *= value.denominator ** exp
            else:
                total += numerator * (common // denominator)
        return Fraction(total, common * self._den)

    def substitute(self, replacements: Mapping[str, "Polynomial | ScalarLike"]) -> "Polynomial":
        """Replace variables by polynomials (or scalars); others stay symbolic."""
        subs = {
            var: rep if isinstance(rep, Polynomial) else Polynomial.constant(rep)
            for var, rep in replacements.items()
        }
        result = Polynomial.zero()
        for key, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in key:
                factor = subs.get(var, Polynomial.variable(var)) ** exp
                term = term * factor
            result = result + term
        return Polynomial._canonical(result._terms, result._den * self._den)

    def partial_derivative(self, var: str) -> "Polynomial":
        return self.derivation({var: 1})

    def derivation(
        self,
        images: Mapping[str, str | int],
        memo: MutableMapping[Term, tuple[tuple[Term, int], ...]] | None = None,
    ) -> "Polynomial":
        """Sum of ``dP/dx * image(x)`` over the variables x in ``images``.

        An image is a variable name, or 1 for the plain partial.  Each term
        ``c*m`` contributes ``c*e*(m/x)*image`` for each mapped variable x of
        exponent e, in the order of x in the key.  A key is resolved to its
        parts, the ``((m/x)*image, e)`` pairs, once: ``memo`` holds the
        parts of keys met before under the same ``images``, and gains those
        of each new key once all its images have resolved, so a key whose
        image raises leaves nothing behind.  Without a memo the parts live
        for one call.  Images are read with ``images.get``, once per
        occurrence in a new key, so a mapping that resolves names on demand
        sees only the variables that occur.
        """
        get = images.get
        parts_of = {} if memo is None else memo
        acc: dict[Term, int] = {}
        acc_get = acc.get
        for key, coeff in self._terms.items():
            parts = parts_of.get(key)
            if parts is None:
                parts = parts_of[key] = _key_derivation(key, get)
            for lowered, exp in parts:
                acc[lowered] = acc_get(lowered, 0) + (coeff * exp if exp > 1 else coeff)
        return Polynomial._canonical(acc, self._den)

    def _value_and_partials(
        self, point: Mapping[str, ScalarLike]
    ) -> tuple[ScalarLike, dict[str, ScalarLike]]:
        """The value at a point and every first partial there, in one walk
        over the terms: ``(value, partials)``, where ``partials`` holds every
        occurring variable, with 0 where its partial vanishes.  The value
        and the partials are ints where integral, ``Fraction`` otherwise.

        Every occurring variable must be assigned.  A term with two or more
        zero factors (``x^2`` at ``x = 0`` counts twice) has every first
        partial zero there.  Sums run over the numerators and are divided by
        the denominator at the end; integral ``Fraction`` values are taken
        as ints, and an int product is divided by a factor it contains with
        ``//``.
        """
        value = 0
        partials: dict[str, int | Fraction] = {}
        for key, coeff in self._terms.items():
            product = coeff
            zeros = 0
            zero_var = ""
            for var, exp in key:
                try:
                    x = point[var]
                except KeyError:
                    raise MissingAssignmentError(var) from None
                if x:
                    if type(x) is Fraction and x.denominator == 1:
                        x = x.numerator
                    product *= x if exp == 1 else x ** exp
                else:
                    zeros += exp
                    zero_var = var
            if zeros == 0:
                value += product
                exact = type(product) is int
                for var, exp in key:
                    x = point[var]
                    if type(x) is Fraction and x.denominator == 1:
                        x = x.numerator
                    term = product * exp // x if exact else product * exp / x
                    partials[var] = partials[var] + term if var in partials else term
                continue
            for var, _ in key:
                if var not in partials:
                    partials[var] = 0
            if zeros == 1:
                partials[zero_var] += product
        if self._den != 1:
            value = _integral(Fraction(value, self._den))
            partials = {var: _integral(Fraction(v, self._den)) for var, v in partials.items()}
        return value, partials

    def degree_in(self, var: str) -> int:
        """Max exponent of ``var``; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        degree = 0
        for key in self._terms:
            for v, exp in key:
                if v == var:
                    if exp > degree:
                        degree = exp
                    break
        return degree

    def coefficient_in(self, var: str, power: int) -> "Polynomial":
        """The coefficient of ``var ** power``, free of ``var``."""
        acc: dict[Term, int] = {}
        for key, coeff in self._terms.items():
            index = 0
            for v, exp in key:
                if v == var:
                    if exp == power:
                        acc[key[:index] + key[index + 1:]] = coeff
                    break
                index += 1
            else:
                if not power:
                    acc[key] = coeff
        return Polynomial._canonical(acc, self._den)

    def coefficients_in(self, var: str) -> list["Polynomial"]:
        """All coefficients ``[A_0, ..., A_d]`` with ``self == sum A_i * var**i``,
        in one walk over the terms that finds the pair of ``var`` in each key
        once and slices it out.

        Returns an empty list for the zero polynomial.
        """
        parts: list[dict[Term, int]] = []
        for key, coeff in self._terms.items():
            power = index = 0
            for v, exp in key:
                if v == var:
                    power = exp
                    key = key[:index] + key[index + 1:]
                    break
                index += 1
            while len(parts) <= power:
                parts.append({})
            parts[power][key] = coeff
        return [Polynomial._canonical(part, self._den) for part in parts]

    @staticmethod
    def from_coefficients(coefficients: Sequence["Polynomial"], var: str) -> "Polynomial":
        """``sum A_i * var**i`` for ``[A_0, ..., A_d]`` free of ``var``, the
        inverse of :meth:`coefficients_in`, in one walk over their terms."""
        den = lcm(*(coeff._den for coeff in coefficients))
        terms: dict[Term, int] = {}
        for power, coeff in enumerate(coefficients):
            scale = den // coeff._den
            for key, numerator in coeff._terms.items():
                terms[_times_variable(key, var, power) if power else key] = numerator * scale
        return Polynomial._canonical(terms, den)

    def numerators_in(self, var: str) -> list[int]:
        """The integer numerators ``[n_0, ..., n_d]`` of a polynomial in
        ``var`` alone, ``self == sum n_i * var**i / den``, in one walk over
        the terms; an empty list for the zero polynomial.  A term in another
        variable raises ``ValueError``."""
        by_power: dict[int, int] = {}
        for key, coeff in self._terms.items():
            if len(key) > 1 or key and key[0][0] != var:
                raise ValueError(f"{self} involves variables other than {var}")
            by_power[key[0][1] if key else 0] = coeff
        return [by_power.get(k, 0) for k in range(max(by_power, default=-1) + 1)]

    def rename_variables(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables; exponents merge when two names collide."""
        acc: dict[Term, int] = {}
        for key, coeff in self._terms.items():
            exps: dict[str, int] = {}
            for var, exp in key:
                name = mapping.get(var, var)
                exps[name] = exps.get(name, 0) + exp
            renamed = tuple(sorted(exps.items()))
            acc[renamed] = acc[renamed] + coeff if renamed in acc else coeff
        return Polynomial._canonical(acc, self._den)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for index, (key, coeff) in enumerate(self.ordered_terms()):
            body = self._term_body(key, abs(coeff))
            if index == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def _term_body(self, key: Term, coeff: Fraction) -> str:
        factors = [var if exp == 1 else f"{var}^{exp}" for var, exp in key]
        if not factors:
            return str(coeff)
        if coeff != 1:
            factors.insert(0, str(coeff))
        return "*".join(factors)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


Minors = dict[frozenset[int], Polynomial]


def extend_minors(minors: Minors, row: Sequence[Polynomial]) -> Minors:
    """Append ``row`` to a table mapping column sets to the minors of the rows
    so far on those columns, by Laplace expansion along the new last row;
    sets whose minors are structurally zero are absent."""
    updated: Minors = {}
    for used, value in minors.items():
        used_below = 0
        for col, entry in enumerate(row):
            if col in used:
                used_below += 1
                continue
            if entry.is_zero():
                continue
            term = value * entry
            # sign flips once per used column above col (inversion count)
            if (len(used) - used_below) % 2:
                term = -term
            key = used | {col}
            if key in updated:
                updated[key] = updated[key] + term
            else:
                updated[key] = term
    return updated


def determinant(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    Division-free expansion over column subsets; fine for the small matrices
    that elimination and resultant checks produce.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("determinant requires a square matrix")
    minors = reduce(extend_minors, matrix, {frozenset(): Polynomial.constant(1)})
    return minors.get(frozenset(range(size)), Polynomial.zero())


# -- text parsing ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\[\d+(?:,\d+)*\])?)"
    r"|(?P<op>[-+*^()])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PolynomialParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        kind = match.lastgroup or "op"
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], end: int):
        self.tokens = tokens
        self.pos = 0
        self.end = end  # column of an error at the end of input, one past the text

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise PolynomialParseError("unexpected end of input", column=self.end)
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token is None or token[0] != "op" or token[1] != op:
            found, column = (token[1], token[2] + 1) if token else ("end of input", self.end)
            raise PolynomialParseError(f"expected {op!r}, found {found!r}", column=column)
        self.pos += 1

    def parse(self) -> Polynomial:
        result = self.expression()
        token = self.peek()
        if token is None:
            return result
        kind, text, pos = token
        if text == ")":
            message = "unexpected ')' with no matching '('"
        elif kind != "op" or text == "(":
            message = f"unexpected trailing input {text!r} (implicit multiplication is not allowed)"
        else:
            message = f"unexpected trailing input {text!r}"
        raise PolynomialParseError(message, column=pos + 1)

    def expression(self) -> Polynomial:
        value = self.term()
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] not in "+-":
                return value
            self.take()
            rhs = self.term()
            value = value + rhs if token[1] == "+" else value - rhs

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            token = self.peek()
            if token is None or token[0] != "op" or token[1] != "*":
                return value
            self.take()
            value = value * self.factor()

    def factor(self) -> Polynomial:
        sign = 1
        while True:
            token = self.peek()
            if token is not None and token[0] == "op" and token[1] in "+-":
                if token[1] == "-":
                    sign = -sign
                self.take()
            else:
                break
        value = self.primary()
        token = self.peek()
        if token is not None and token[0] == "op" and token[1] == "^":
            self.take()
            exp_token = self.take()
            if exp_token[0] != "number" or "/" in exp_token[1]:
                raise PolynomialParseError(
                    f"exponent must be a nonnegative integer, found {exp_token[1]!r}",
                    column=exp_token[2] + 1,
                )
            value = value ** int(exp_token[1])
        return value if sign > 0 else -value

    def primary(self) -> Polynomial:
        token = self.take()
        kind, text, pos = token
        if kind == "number":
            if "/" in text:
                numerator, denominator = map(int, text.split("/"))
                if denominator == 0:
                    raise PolynomialParseError(
                        f"zero denominator in rational literal {text!r}", column=pos + 1
                    )
                return Polynomial.constant(Fraction(numerator, denominator))
            return Polynomial.constant(int(text))
        if kind == "name":
            return Polynomial.variable(text)
        if kind == "op" and text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise PolynomialParseError(f"unexpected token {text!r}", column=pos + 1)


def parse_polynomial(text: str) -> Polynomial:
    """Parse polynomial text."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial expression", column=len(text) + 1)
    return _Parser(tokens, len(text) + 1).parse()

