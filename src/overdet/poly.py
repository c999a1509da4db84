"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are ``fractions.Fraction`` values, so arithmetic is exact and
equality of canonical forms is decidable.  Polynomials are immutable; every
operation returns a fresh value in canonical form (no zero coefficients, no
zero exponents).  Two polynomials are equal exactly when their term maps are
equal, regardless of how their variable tables are ordered.

Text syntax accepted by :func:`parse_polynomial`: named variables combined
with ``+ - * ^``, integer or rational literals such as ``-3/4``, parentheses
for grouping.  Multiplication is always explicit (``2*x``, never ``2x``).

Degrees are plain integers: the zero polynomial has degree -1 in every
variable, so a degree below 0 means "zero polynomial" and below 1 means
"free of the variable".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import MissingAssignmentError, PolynomialParseError

#: Exact rational scalar type used for every coefficient and evaluation result.
Scalar = Fraction

ScalarLike = Union[Fraction, int]


@dataclass(frozen=True)
class Monomial:
    """A product of named variables raised to positive integer exponents.

    Stored as a name-sorted tuple of ``(variable, exponent)`` pairs with zero
    exponents dropped, so equal monomials always hash and compare equal.
    ``Monomial(())`` is the constant monomial 1.
    """

    exps: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def of(assignments: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Monomial":
        pairs = dict(assignments)
        for var, exp in pairs.items():
            if exp < 0:
                raise ValueError(f"negative exponent for {var}")
        return Monomial(tuple(sorted((v, e) for v, e in pairs.items() if e > 0)))

    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def exponent(self, var: str) -> int:
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for v, e in other.exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(tuple(sorted(merged.items())))

    def without(self, var: str) -> "Monomial":
        return Monomial(tuple((v, e) for v, e in self.exps if v != var))


def _merge_tables(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    if left == right:
        return left
    seen = set(left)
    return left + tuple(v for v in right if v not in seen)


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    The variable table is an ordered tuple of names used for canonical term
    ordering (graded lexicographic) and printing; it does not affect equality.
    Tables are merged by name when two polynomials are combined.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, terms: Mapping[Monomial, ScalarLike] = (), variables: Iterable[str] = ()):
        table = tuple(variables)
        cleaned: dict[Monomial, Fraction] = {}
        for mono, coeff in dict(terms).items():
            value = Fraction(coeff)
            if value == 0:
                continue
            cleaned[mono] = value
            for v in mono.variables():
                if v not in table:
                    table = table + (v,)
        self._vars = table
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial({}, variables)

    @staticmethod
    def constant(value: ScalarLike, variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial({Monomial(): Fraction(value)}, variables)

    @staticmethod
    def variable(name: str, variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial({Monomial.of({name: 1}): Fraction(1)}, variables)

    @staticmethod
    def from_terms(
        terms: Mapping[Mapping[str, int], ScalarLike] | Iterable[tuple[Mapping[str, int], ScalarLike]],
        variables: Iterable[str] = (),
    ) -> "Polynomial":
        """Build a polynomial from ``{ {var: exp, ...}: coefficient }`` data."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in items:
            mono = Monomial.of(exps)
            acc[mono] = acc.get(mono, Fraction(0)) + Fraction(coeff)
        return Polynomial(acc, variables)

    # -- basic queries -----------------------------------------------------

    @property
    def variable_table(self) -> tuple[str, ...]:
        return self._vars

    def variables(self) -> tuple[str, ...]:
        """Variables that actually occur, in table order."""
        occurring = {v for mono in self._terms for v in mono.variables()}
        return tuple(v for v in self._vars if v in occurring)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(mono.degree() == 0 for mono in self._terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (the zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get(Monomial(), Fraction(0))

    def ordered_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: graded lexicographic over name-sorted
        variables, so the ordering survives printing and reparsing."""
        order = sorted({v for mono in self._terms for v in mono.variables()})

        def key(item: tuple[Monomial, Fraction]):
            mono = item[0]
            return (-mono.degree(), tuple(-mono.exponent(v) for v in order))

        return sorted(self._terms.items(), key=key)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self._vars)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        return Polynomial(acc, _merge_tables(self._vars, rhs._vars))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()}, self._vars)

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                mono = m1 * m2
                acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
        return Polynomial(acc, _merge_tables(self._vars, rhs._vars))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(1, self._vars)
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
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- calculus and structure --------------------------------------------

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Fraction:
        """Exact value at a point assigning a rational to every occurring variable."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for var, exp in mono.exps:
                if var not in point:
                    raise MissingAssignmentError(var)
                value *= Fraction(point[var]) ** exp
            total += value
        return total

    def substitute(self, replacements: Mapping[str, "Polynomial | ScalarLike"]) -> "Polynomial":
        """Replace variables by polynomials (or scalars); others stay symbolic."""
        subs = {
            var: rep if isinstance(rep, Polynomial) else Polynomial.constant(rep)
            for var, rep in replacements.items()
        }
        result = Polynomial.zero(self._vars)
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff)
            for var, exp in mono.exps:
                factor = subs.get(var, Polynomial.variable(var)) ** exp
                term = term * factor
            result = result + term
        return result

    def partial_derivative(self, var: str) -> "Polynomial":
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            exp = mono.exponent(var)
            if exp == 0:
                continue
            lowered = dict(mono.exps)
            lowered[var] = exp - 1
            new_mono = Monomial.of(lowered)
            acc[new_mono] = acc.get(new_mono, Fraction(0)) + coeff * exp
        return Polynomial(acc, self._vars)

    def derivation(self, images: Mapping[str, str | int]) -> "Polynomial":
        """Sum of ``dP/dx * image(x)`` over the variables x in ``images``.

        An image is a variable name, or 1 for the plain partial.  Each term
        ``c*m`` contributes ``c*e*(m/x)*image`` for each mapped variable x of
        exponent e, all in one walk over the terms.
        """
        acc: dict[Monomial, Fraction] = {}
        mapped: set[str] = set()
        for mono, coeff in self._terms.items():
            for var, exp in mono.exps:
                image = images.get(var)
                if image is None:
                    continue
                mapped.add(var)
                lowered = dict(mono.exps)
                if exp == 1:
                    del lowered[var]
                else:
                    lowered[var] = exp - 1
                if image != 1:
                    lowered[image] = lowered.get(image, 0) + 1
                new_mono = Monomial(tuple(sorted(lowered.items())))
                term = coeff * exp if exp > 1 else coeff
                acc[new_mono] = acc[new_mono] + term if new_mono in acc else term
        # new image names join the table in the order of their sources
        added = tuple(
            dict.fromkeys(
                images[v] for v in self._vars
                if v in mapped and images[v] != 1 and images[v] not in self._vars
            )
        )
        return Polynomial(acc, self._vars + added)

    def gradient_at(self, point: Mapping[str, ScalarLike]) -> dict[str, Fraction]:
        """The nonzero first partials at a point, ``{variable: value}``.

        One walk over the terms; every occurring variable must be assigned.
        A term with two or more zero factors (``x^2`` at ``x = 0`` counts
        twice) has every first partial zero there and adds nothing.
        """
        grad: dict[str, Fraction] = {}
        for mono, coeff in self._terms.items():
            value = coeff
            zeros = 0
            zero_var = ""
            for var, exp in mono.exps:
                if var not in point:
                    raise MissingAssignmentError(var)
                x = point[var]
                if x:
                    value *= Fraction(x) ** exp
                else:
                    zeros += exp
                    zero_var = var
            if zeros == 0:
                for var, exp in mono.exps:
                    grad[var] = grad.get(var, 0) + value * exp / Fraction(point[var])
            elif zeros == 1:
                grad[zero_var] = grad.get(zero_var, 0) + value
        return {var: value for var, value in grad.items() if value}

    def degree_in(self, var: str) -> int:
        """Max exponent of ``var``; the zero polynomial reports -1."""
        return max((mono.exponent(var) for mono in self._terms), default=-1)

    def coefficient_in(self, var: str, power: int) -> "Polynomial":
        """The coefficient of ``var ** power``, free of ``var``."""
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            if mono.exponent(var) == power:
                acc[mono.without(var)] = coeff
        return Polynomial(acc, tuple(v for v in self._vars if v != var))

    def coefficients_in(self, var: str) -> list["Polynomial"]:
        """All coefficients ``[A_0, ..., A_d]`` with ``self == sum A_i * var**i``.

        Returns an empty list for the zero polynomial.
        """
        return [self.coefficient_in(var, k) for k in range(self.degree_in(var) + 1)]

    def leading_coefficient_in(self, var: str) -> "Polynomial":
        return self.coefficient_in(var, self.degree_in(var))

    def rename_variables(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables; exponents merge when two names collide."""
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            exps: dict[str, int] = {}
            for var, exp in mono.exps:
                name = mapping.get(var, var)
                exps[name] = exps.get(name, 0) + exp
            renamed = Monomial.of(exps)
            acc[renamed] = acc.get(renamed, Fraction(0)) + coeff
        table = tuple(dict.fromkeys(mapping.get(v, v) for v in self._vars))
        return Polynomial(acc, table)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for index, (mono, coeff) in enumerate(self.ordered_terms()):
            body = self._term_body(mono, abs(coeff))
            if index == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def _term_body(self, mono: Monomial, coeff: Fraction) -> str:
        factors = []
        for var in sorted(mono.variables()):
            exp = mono.exponent(var)
            if exp == 1:
                factors.append(var)
            elif exp > 1:
                factors.append(f"{var}^{exp}")
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
    def __init__(self, tokens: list[tuple[str, str, int]], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise PolynomialParseError("unexpected end of input")
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.peek()
        if token is None or token[0] != "op" or token[1] != op:
            found = token[1] if token else "end of input"
            raise PolynomialParseError(f"expected {op!r}, found {found!r}")
        self.pos += 1

    def parse(self) -> Polynomial:
        result = self.expression()
        token = self.peek()
        if token is not None:
            raise PolynomialParseError(
                f"unexpected trailing input {token[1]!r} "
                "(implicit multiplication is not allowed)",
                column=token[2] + 1,
            )
        return result

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
                numerator, denominator = text.split("/")
                return Polynomial.constant(Fraction(int(numerator), int(denominator)), self.variables)
            return Polynomial.constant(int(text), self.variables)
        if kind == "name":
            return Polynomial.variable(text, self.variables)
        if kind == "op" and text == "(":
            value = self.expression()
            self.expect_op(")")
            return value
        raise PolynomialParseError(f"unexpected token {text!r}", column=pos + 1)


def parse_polynomial(text: str, variables: Iterable[str] = ()) -> Polynomial:
    """Parse polynomial text; ``variables`` seeds the table order if given."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial expression")
    return _Parser(tokens, tuple(variables)).parse()

