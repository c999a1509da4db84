"""Command-line front end.

Commands: ``counts``, ``prolong``, ``reduce``, ``eliminate``, ``solve``,
``rank``, ``oracle``.  Global flags ``--format text|json``, ``--trace`` and
``--output PATH``.  Exit codes: 0 success/solved/certified, 1 usage or parse
errors, 2 inconsistent, 3 residual or degenerate, 4 not certified, 5 point is
not a solution.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .errors import NotASolutionError, OverdetError
from .jets import IndexCodec, minimal_orders, prolong
from .oracle import gcd_univariate, rational_root_search, sylvester_resultant
from .rank import active_unknown_bound, certify
from .reduction import eliminate_variable, reduce_chain, solve_overdetermined

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_RESIDUAL = 3
EXIT_NOT_CERTIFIED = 4
EXIT_NOT_A_SOLUTION = 5

_STATUS_EXIT = {
    "solved": EXIT_OK,
    "inconsistent": EXIT_INCONSISTENT,
    "residual": EXIT_RESIDUAL,
    "degenerate": EXIT_RESIDUAL,
}


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise OverdetError(f"bad orders {text!r}; expected comma-separated integers")
    if not orders or any(order < 1 for order in orders):
        raise OverdetError("every order must be a positive integer")
    return orders


class _Output:
    def __init__(self, args):
        self.fmt = args.format
        self.trace = args.trace
        self.path = args.output

    def emit(self, data: dict, text_lines: list[str]) -> None:
        if self.fmt == "json":
            rendered = formats.to_json(data)
        else:
            rendered = "\n".join(text_lines) + "\n"
        if self.path:
            Path(self.path).write_text(rendered)
        else:
            sys.stdout.write(rendered)


def _outcome_lines(outcome, variables, trace: bool) -> list[str]:
    lines = [f"status: {outcome.status}"]
    for point in outcome.solutions:
        assignment = ", ".join(
            f"{var} = {point[var]}" for var in variables if var in point
        )
        lines.append(f"solution: {assignment}")
    for poly in outcome.residual_system:
        lines.append(f"residual: {poly}")
    return lines + _conditions_and_steps(outcome.conditions, outcome.trace, trace)


def _conditions_and_steps(conditions, steps, trace: bool) -> list[str]:
    """Text lines of side conditions, then of steps when tracing."""
    lines = [f"condition: {condition.polynomial} != 0" for condition in conditions]
    if trace:
        for step in steps:
            inputs = "; ".join(str(p) for p in step.inputs)
            outputs = "; ".join(str(p) for p in step.outputs)
            lines.append(f"step[{step.kind}]: {inputs} -> {outputs}")
    return lines


def _load_poly(path: str):
    return formats.parse_poly_file(Path(path).read_text())


def _load_pde(path: str):
    return formats.parse_pde_file(Path(path).read_text())


def _is_pde_input(path: str) -> bool:
    if path.endswith(".pde"):
        return True
    if path.endswith(".poly"):
        return False
    for line in Path(path).read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            return stripped.startswith("unknowns")
    return False


def cmd_counts(args, out: _Output) -> int:
    data: dict = {}
    lines: list[str] = []
    if args.orders:
        orders = _parse_orders(args.orders)
        if len(orders) != args.m:
            raise OverdetError(f"expected {args.m} orders, got {len(orders)}")
        data = formats.counts_to_dict(args.p, args.n, orders)
        bound = active_unknown_bound(IndexCodec(args.p, args.n, orders))
        data["active_unknown_bound"] = formats.scalar_to_json(bound)
        data["n_h_ge_n_s"] = data["N_H"] >= data["N_S"]
        lines = [
            f"N_H = {data['N_H']}",
            f"N_S = {data['N_S']}",
            f"N_H_w = {data['N_H_w']}",
            f"N_S_w = {data['N_S_w']}",
            f"active unknown bound = {bound}",
        ]
        if not data["n_h_ge_n_s"]:
            lines.append("warning: N_H < N_S (fewer equations than unknowns)")
    if args.minimize:
        result = minimal_orders(args.p, args.n, args.m, cap=args.cap)
        data["minimize"] = {
            "orders": list(result.orders),
            "N_H": result.n_h,
            "N_S": result.n_s,
            "estimate": formats.scalar_to_json(result.estimate),
            "estimate_holds": result.estimate_holds,
            "offsets": [formats.scalar_to_json(o) for o in result.offsets],
        }
        lines.append(
            f"minimal orders = {','.join(str(o) for o in result.orders)} "
            f"with N_H = {result.n_h} (estimate {result.estimate}, "
            f"holds: {result.estimate_holds})"
        )
    if not data:
        raise OverdetError("counts needs --orders and/or --minimize")
    out.emit(data, lines)
    return EXIT_OK


def cmd_prolong(args, out: _Output) -> int:
    system = _load_pde(args.input)
    orders = _parse_orders(args.orders)
    prolonged = prolong(system, orders, extended=args.extended)
    data = formats.prolonged_to_dict(prolonged)
    lines = [
        f"flavor: {prolonged.codec.flavor}",
        f"equations: {prolonged.n_h}, unknowns: {prolonged.n_s}",
    ]
    for entry in data["equations"]:
        lines.append(
            f"P[{entry['alpha']}] (k={entry['k']}, i={entry['i']}): {entry['polynomial']}"
        )
    out.emit(data, lines)
    return EXIT_OK


def cmd_reduce(args, out: _Output) -> int:
    variables, equations = _load_poly(args.input)
    if len(equations) != 2:
        raise OverdetError("reduce expects exactly two equations")
    var = args.var or variables[-1]
    outcome = reduce_chain(equations[0], equations[1], var)
    out.emit(
        formats.outcome_to_dict(outcome, variables),
        _outcome_lines(outcome, variables, out.trace),
    )
    return _STATUS_EXIT[outcome.status]


def cmd_eliminate(args, out: _Output) -> int:
    variables, equations = _load_poly(args.input)
    var = args.var or variables[-1]
    reduced, conditions, steps = eliminate_variable(equations, var)
    data = {
        "eliminated": var,
        "reduced": [str(poly) for poly in reduced],
        "conditions": [formats.condition_to_dict(c) for c in conditions],
        "steps": [formats.step_to_dict(s) for s in steps],
    }
    lines = [f"eliminated: {var}"]
    lines += [f"reduced: {poly}" for poly in reduced]
    lines += _conditions_and_steps(conditions, steps, out.trace)
    out.emit(data, lines)
    return EXIT_OK


def cmd_solve(args, out: _Output) -> int:
    if _is_pde_input(args.input):
        if not args.orders:
            raise OverdetError("solving a .pde input requires --orders")
        system = _load_pde(args.input)
        orders = _parse_orders(args.orders)
        prolonged = prolong(system, orders)
        equations = [poly for _, poly in prolonged.equation_items()]
        occurring = set().union(*(poly.variables() for poly in equations))
        # base variables become unknowns too, in their declared order
        variables = [jet.name for _, jet in sorted(prolonged.unknowns().items())]
        variables += [var for var in system.base_vars if var in occurring]
        outcome = solve_overdetermined(equations, variables)
        data = formats.outcome_to_dict(outcome, variables)
        lines = _outcome_lines(outcome, variables, out.trace)
        data["certification"] = []
        for point in outcome.solutions:
            report = certify(prolonged, point)
            data["certification"].append(formats.rank_report_to_dict(report))
            lines.append(
                f"certification: rank={report.rank}, n_s_real={report.n_s_real}, "
                f"certified={report.certified}"
            )
        out.emit(data, lines)
        return _STATUS_EXIT[outcome.status]
    variables, equations = _load_poly(args.input)
    outcome = solve_overdetermined(equations, variables)
    out.emit(
        formats.outcome_to_dict(outcome, variables),
        _outcome_lines(outcome, variables, out.trace),
    )
    return _STATUS_EXIT[outcome.status]


def cmd_rank(args, out: _Output) -> int:
    system = _load_pde(args.input)
    orders = _parse_orders(args.orders)
    prolonged = prolong(system, orders, extended=args.extended)
    point = formats.parse_point_json(Path(args.point).read_text())
    report = certify(prolonged, point)
    data = formats.rank_report_to_dict(report)
    lines = [
        f"rank = {report.rank}",
        f"n_s_real = {report.n_s_real}",
        f"n_h = {report.n_h}, n_s = {report.n_s}",
        f"bound holds: {report.bound_11_holds} "
        f"(active unknown bound = {active_unknown_bound(prolonged.codec)})",
        f"certified: {report.certified}",
    ]
    if report.n_h < report.n_s:
        lines.append("warning: N_H < N_S (fewer equations than unknowns)")
    out.emit(data, lines)
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def cmd_oracle(args, out: _Output) -> int:
    variables, equations = _load_poly(args.input)
    if args.oracle_command == "gcd":
        if len(equations) != 2:
            raise OverdetError("oracle gcd expects exactly two equations")
        var = args.var or variables[-1]
        result = gcd_univariate(equations[0], equations[1], var)
        out.emit({"gcd": str(result)}, [f"gcd: {result}"])
        return EXIT_OK
    if args.oracle_command == "resultant":
        if len(equations) != 2:
            raise OverdetError("oracle resultant expects exactly two equations")
        var = args.var or variables[-1]
        result = sylvester_resultant(equations[0], equations[1], var)
        out.emit({"resultant": str(result)}, [f"resultant: {result}"])
        return EXIT_OK
    roots = rational_root_search(equations, args.bound, variables)
    data = {"roots": [formats.point_to_dict(point, variables) for point in roots]}
    lines = [
        "root: " + ", ".join(f"{v} = {point[v]}" for v in variables if v in point)
        for point in roots
    ] or ["no roots within bound"]
    out.emit(data, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overdet",
        description="Prolong, reduce and certify overdetermined polynomial systems.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--trace", action="store_true", help="include steps in text output")
    parser.add_argument("--output", help="write the result to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    counts = sub.add_parser("counts", help="equation/unknown count formulas")
    counts.add_argument("--p", type=int, required=True)
    counts.add_argument("--n", type=int, required=True)
    counts.add_argument("--m", type=int, required=True)
    counts.add_argument("--orders")
    counts.add_argument("--minimize", action="store_true")
    counts.add_argument("--cap", type=int, default=20)

    prolong_cmd = sub.add_parser("prolong", help="differentiate a PDE system")
    prolong_cmd.add_argument("input")
    prolong_cmd.add_argument("--orders", required=True)
    prolong_cmd.add_argument("--extended", action="store_true")

    reduce_cmd = sub.add_parser("reduce", help="reduce a univariate pair")
    reduce_cmd.add_argument("input")
    reduce_cmd.add_argument("--var")

    eliminate_cmd = sub.add_parser("eliminate", help="eliminate one variable")
    eliminate_cmd.add_argument("input")
    eliminate_cmd.add_argument("--var")

    solve_cmd = sub.add_parser("solve", help="solve an overdetermined system")
    solve_cmd.add_argument("input")
    solve_cmd.add_argument("--orders")

    rank_cmd = sub.add_parser("rank", help="certify a candidate jet point")
    rank_cmd.add_argument("input")
    rank_cmd.add_argument("--orders", required=True)
    rank_cmd.add_argument("--point", required=True)
    rank_cmd.add_argument("--extended", action="store_true")

    oracle_cmd = sub.add_parser("oracle", help="independent cross-checks")
    oracle_sub = oracle_cmd.add_subparsers(dest="oracle_command", required=True)
    for name in ("gcd", "resultant"):
        entry = oracle_sub.add_parser(name)
        entry.add_argument("input")
        entry.add_argument("--var")
    roots = oracle_sub.add_parser("roots")
    roots.add_argument("input")
    roots.add_argument("--bound", type=int, default=10)
    return parser


_HANDLERS = {
    "counts": cmd_counts,
    "prolong": cmd_prolong,
    "reduce": cmd_reduce,
    "eliminate": cmd_eliminate,
    "solve": cmd_solve,
    "rank": cmd_rank,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(args)
    try:
        return _HANDLERS[args.command](args, out)
    except NotASolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_SOLUTION
    except (OverdetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
