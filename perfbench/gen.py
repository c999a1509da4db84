"""Seeded input generators and the benchmark's own polynomial helpers.

Polynomials here are plain term dicts, ``{monomial: int}``, where a monomial
is a name-sorted tuple of ``(variable, exponent)`` pairs.  Nothing in this
module imports overdet: the generators and the evaluator are the reference
the benchmark checks the program against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

Terms = dict  # monomial -> int coefficient


def rng_for(*parts) -> random.Random:
    """A generator seeded by its parts; string seeds are hashed the same way
    in every process, so inputs are a pure function of the workload seed."""
    return random.Random(":".join(str(part) for part in parts))


# -- term-dict arithmetic -----------------------------------------------------


def monomial(exps: dict) -> tuple:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def add_term(terms: Terms, key: tuple, coeff: int) -> None:
    value = terms.get(key, 0) + coeff
    if value:
        terms[key] = value
    else:
        terms.pop(key, None)


def mul(left: Terms, right: Terms) -> Terms:
    out: Terms = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            merged = dict(m1)
            for v, e in m2:
                merged[v] = merged.get(v, 0) + e
            add_term(out, monomial(merged), c1 * c2)
    return out


def variable(name: str) -> Terms:
    return {((name, 1),): 1}


def add(*parts: Terms, scale: int = 1) -> Terms:
    """The sum of the parts, times ``scale``."""
    out: Terms = {}
    for part in parts:
        for key, coeff in part.items():
            add_term(out, key, coeff * scale)
    return out


def evaluate(terms: Terms, point) -> Fraction:
    total = Fraction(0)
    for key, coeff in terms.items():
        value = Fraction(coeff)
        for v, e in key:
            value *= Fraction(point[v]) ** e
        total += value
    return total


def variables_of(terms: Terms) -> set:
    return {v for key in terms for v, _ in key}


def to_text(terms: Terms) -> str:
    """Render in the ``.poly``/``.pde`` syntax (explicit ``*``, ``^``)."""
    if not terms:
        return "0"
    pieces = []
    for key, coeff in sorted(terms.items(), key=lambda item: (-sum(e for _, e in item[0]), item[0])):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in key]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


# -- planted-root polynomial systems -------------------------------------------

VARIABLE_NAMES = ("x", "y", "z", "w")


def planted_system(rng: random.Random, nvars: int, degree: int, nterms: int = 3):
    """m+1 equations sum c*(m(x) - m(r)) over random monomials of total degree
    <= ``degree`` (one of exactly that degree), c in -5..5 and an integer root r."""
    names = VARIABLE_NAMES[:nvars]
    root = {name: rng.randint(-3, 3) for name in names}
    exponents = [
        e for e in itertools.product(range(degree + 1), repeat=nvars) if 0 < sum(e) <= degree
    ]
    top = [e for e in exponents if sum(e) == degree]
    equations = []
    for _ in range(nvars + 1):
        chosen = [rng.choice(top)] + rng.sample(exponents, min(nterms - 1, len(exponents)))
        eq: Terms = {}
        for exps in chosen:
            coeff = rng.choice([c for c in range(-5, 6) if c])
            value = 1
            for name, e in zip(names, exps):
                value *= root[name] ** e
            add_term(eq, monomial(dict(zip(names, exps))), coeff)
            add_term(eq, (), -coeff * value)
        equations.append(eq)
    return names, root, equations


# -- first-order PDE systems with a known jet point ---------------------------


def jet_name(v: int, j: tuple) -> str:
    return f"S{v}[{','.join(str(c) for c in j)}]"


def closed_form_counts(p: int, n: int, orders) -> tuple[int, int]:
    """N_H = (p+n) prod N_s and N_S = p prod (N_s + 1) for the plain range."""
    n_h, n_s = p + n, p
    for order in orders:
        n_h *= order
        n_s *= order + 1
    return n_h, n_s


def pde_system(rng: random.Random, p: int, n: int, orders: tuple):
    """p+n first-order equations, linear in the order-one jets, with a known
    solution jet point.

    Every term carries a factor that vanishes at the point: an order-one jet,
    or ``S_v - a_v`` for a zero-order jet.  A total derivative keeps such a
    factor in every term, so the point zeroes every prolonged equation: the
    zero-order jets take the anchors a_v and every higher jet is 0.
    """
    m = len(orders)
    base = VARIABLE_NAMES[:m]
    zeroth = [jet_name(v, (0,) * m) for v in range(1, p + 1)]
    firsts = [
        jet_name(v, tuple(1 if pos == s else 0 for pos in range(m)))
        for v in range(1, p + 1)
        for s in range(m)
    ]
    anchor = {name: rng.choice((-2, -1, 1, 2)) for name in zeroth}

    def coeff() -> int:
        return rng.choice([c for c in range(-4, 5) if c])

    def vanishing(name: str) -> Terms:
        return {((name, 1),): 1, (): -anchor[name]}

    equations = []
    for k in range(p + n):
        # The same term shapes in every equation keep the cost of one size
        # steady; the first term's jet cycles through the order-one jets, so
        # the top-order coefficient matrix has an entry in every column.
        parts = [
            mul(variable(firsts[k % len(firsts)]), variable(rng.choice(zeroth))),
            mul(variable(rng.choice(firsts)), variable(rng.choice(base))),
            mul(vanishing(rng.choice(zeroth)), variable(rng.choice(base))),
            vanishing(rng.choice(zeroth)),
        ]
        equations.append(add(*[add(part, scale=coeff()) for part in parts]))
    point = {name: Fraction(0) for name in plain_unknowns(p, orders)}
    point.update({name: Fraction(value) for name, value in anchor.items()})
    point.update({name: Fraction(rng.randint(1, 3)) for name in base})
    return {"p": p, "n": n, "orders": tuple(orders), "base": base,
            "equations": equations, "point": point}


def plain_unknowns(p: int, orders) -> list[str]:
    return [
        jet_name(v, j)
        for v in range(1, p + 1)
        for j in itertools.product(*(range(order + 1) for order in orders))
    ]


def pde_text(system) -> str:
    lines = [f"unknowns {system['p']}", f"surplus {system['n']}", "vars " + " ".join(system["base"])]
    lines += ["eq " + to_text(eq) for eq in system["equations"]]
    return "\n".join(lines) + "\n"


def poly_text(names, equations) -> str:
    return "\n".join(["vars " + " ".join(names)] + ["eq " + to_text(eq) for eq in equations]) + "\n"
