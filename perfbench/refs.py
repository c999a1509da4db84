"""References the benchmark checks results against.

None of these call into the layer whose output they check: ranks come from
a Fraction Gauss-Jordan elimination written here, Jacobians are
differentiated term by term here, and printed polynomials are read back by
a parser written here.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import gen


def jacobian_rows(equations, unknowns, point) -> list[dict]:
    """Sparse Jacobian at ``point``: one {column: value} row per equation,
    each equation a term dict."""
    column = {name: index for index, name in enumerate(unknowns)}
    rows = []
    for terms in equations:
        row: dict[int, Fraction] = {}
        for exps, coeff in terms.items():
            for position, (var, exp) in enumerate(exps):
                if var not in column:
                    continue
                value = Fraction(coeff) * exp * Fraction(point[var]) ** (exp - 1)
                for other, (v, e) in enumerate(exps):
                    if other != position:
                        value *= Fraction(point[v]) ** e
                col = column[var]
                row[col] = row.get(col, 0) + value
        rows.append({c: v for c, v in row.items() if v})
    return rows


def gauss_jordan_rank(rows: list[dict]) -> int:
    """Rank over the rationals, keeping the pivot rows fully reduced."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for col in [c for c in row if c in pivots]:
            factor = row[col]
            for c, v in pivots[col].items():
                row[c] = row.get(c, 0) - factor * v
        row = {c: v for c, v in row.items() if v}
        if not row:
            continue
        lead = min(row)
        scale = Fraction(row[lead])
        row = {c: v / scale for c, v in row.items()}
        for other in pivots.values():
            factor = other.get(lead)
            if factor:
                for c, v in row.items():
                    other[c] = other.get(c, 0) - factor * v
                for c in [c for c, v in other.items() if not v]:
                    del other[c]
        pivots[lead] = row
    return len(pivots)


def minimal_orders(p: int, n: int, m: int, cap: int = 20) -> tuple[tuple[int, ...], int, int]:
    """Order vector with the fewest equations among those with N_H >= N_S."""
    best = None
    for orders in itertools.product(range(1, cap + 1), repeat=m):
        n_h, n_s = gen.closed_form_counts(p, n, orders)
        if n_h >= n_s and (best is None or (n_h, orders) < best[:2]):
            best = (n_h, orders, n_s)
    n_h, orders, n_s = best
    return orders, n_h, n_s


def prolong(spec) -> list[dict]:
    """The benchmark's own prolongation of a generated system (``gen.pde_system``)
    over the plain range: every equation differentiated i_s = 0..N_s-1 times
    along each base variable.  The total derivative along x_s sends each jet
    to its shifted jet and adds the explicit partial in x_s."""
    base = spec["base"]

    def derive(terms, s):
        out: dict = {}
        for key, coeff in terms.items():
            for var, exp in key:
                lowered = dict(key)
                lowered[var] = exp - 1
                if var in base:
                    if var != base[s]:
                        continue
                else:
                    head, _, rest = var.partition("[")
                    j = [int(c) for c in rest.rstrip("]").split(",")]
                    j[s] += 1
                    shifted = gen.jet_name(int(head[1:]), tuple(j))
                    lowered[shifted] = lowered.get(shifted, 0) + 1
                gen.add_term(out, gen.monomial(lowered), coeff * exp)
        return out

    cache: dict = {}

    def level(k, i):
        if (k, i) not in cache:
            if not any(i):
                cache[k, i] = spec["equations"][k]
            else:
                s = max(pos for pos, c in enumerate(i) if c)
                lower = i[:s] + (i[s] - 1,) + i[s + 1:]
                cache[k, i] = derive(level(k, lower), s)
        return cache[k, i]

    return [
        level(k, i)
        for i in itertools.product(*(range(order) for order in spec["orders"]))
        for k in range(len(spec["equations"]))
    ]


def certify(spec, equations) -> tuple[int, int]:
    """(rank at the known point of the Jacobian of the prolonged ``equations``,
    number of unknowns that occur in them)."""
    unknowns = gen.plain_unknowns(spec["p"], spec["orders"])
    occurring = set().union(*(gen.variables_of(eq) for eq in equations)) & set(unknowns)
    rank = gauss_jordan_rank(jacobian_rows(equations, unknowns, spec["point"]))
    return rank, len(occurring)


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_printed(text: str) -> dict:
    """Read back a polynomial printed as ``3*x^2*y - 1/2*S1[0,1] + 4``."""
    terms: dict = {}
    if text.strip() == "0":
        return terms
    for sign, body in _TERM_RE.findall(text):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps: dict[str, int] = {}
        for factor in body.strip().split("*"):
            name, _, power = factor.partition("^")
            if name[0].isdigit():
                coeff *= Fraction(name)
            else:
                exps[name] = exps.get(name, 0) + int(power or 1)
        key = gen.monomial(exps)
        terms[key] = terms.get(key, 0) + coeff
    return {k: v for k, v in terms.items() if v}
