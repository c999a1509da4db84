"""The three workloads: jet-certify, planted-solve and cli-roundtrip.

Each workload builds its rounds from the seed (``make_round``), runs one
operation through overdet's public functions (``run``), and checks the
result against the benchmark's own references (``check``, outside the
timed region).  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from overdet import cli, formats, jets, oracle, rank, reduction
from overdet.errors import OverdetError
from overdet.poly import Polynomial

from . import gen, refs
from .harness import Case, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# exit codes the README documents for each solver status
STATUS_EXIT = {"solved": 0, "inconsistent": 2, "residual": 3, "degenerate": 3}
# every exit code the CLI documents; 1 is an error it reports on stderr
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}

# (owner, attribute, span name, keep the return value for counters)
SPANS = [
    (jets, "prolong", "jets.prolong", True),
    (cli, "prolong", "jets.prolong", True),
    (jets, "top_order_extraction", "jets.top_order", True),
    (jets, "determinant", "poly.determinant", False),
    (oracle, "determinant", "poly.determinant", False),
    (rank, "certify", "rank.certify", False),
    (cli, "certify", "rank.certify", False),
    (rank, "jacobian", "rank.jacobian", False),
    (rank, "exact_rank", "rank.exact_rank", False),
    (reduction, "solve_overdetermined", "reduction.solve", True),
    (cli, "solve_overdetermined", "reduction.solve", True),
    (reduction, "reduce_chain", "reduction.reduce_chain", False),
    (cli, "reduce_chain", "reduction.reduce_chain", False),
    (formats, "parse_poly_file", "formats.parse", False),
    (formats, "parse_pde_file", "formats.parse", False),
    (formats, "parse_point_json", "formats.parse", False),
    (formats, "to_json", "formats.emit", True),
    (formats, "outcome_to_dict", "formats.emit", False),
    (formats, "prolonged_to_dict", "formats.emit", False),
    (formats, "rank_report_to_dict", "formats.emit", False),
    (formats, "counts_to_dict", "formats.emit", False),
    (cli, "rational_root_search", "oracle.roots", False),
    (cli, "sylvester_resultant", "oracle.resultant", False),
]

CLI_KINDS = ("counts", "prolong", "solve", "rank", "oracle")

# per-layer time metric -> span name whose self time it reports
SELF_TIME_METRICS = {
    "jets.prolong_s": "jets.prolong",
    "jets.top_order_s": "jets.top_order",
    "poly.determinant_s": "poly.determinant",
    "rank.certify_s": "rank.certify",
    "rank.jacobian_s": "rank.jacobian",
    "rank.exact_rank_s": "rank.exact_rank",
    "reduction.solve_s": "reduction.solve",
    "reduction.reduce_chain_s": "reduction.reduce_chain",
    "formats.parse_s": "formats.parse",
    "formats.emit_s": "formats.emit",
    **{f"cli.{kind}_s": f"cli.{kind}" for kind in CLI_KINDS},
    "oracle.roots_s": "oracle.roots",
    "oracle.resultant_s": "oracle.resultant",
}

COUNT_METRICS = (
    "jets.total_derivative_calls",
    "jets.prolonged_terms",
    "poly.determinant_calls",
    "jets.top_order_denominator_terms",
    "rank.jacobian_partials",
    "reduction.reduce_chain_calls",
    "reduction.trace_steps",
    "reduction.side_conditions",
    "reduction.constant_conditions",
    "reduction.condition_terms_max",
    "reduction.condition_bits_max",
    "poly.max_coeff_bits",
    "reduction.branch_skipped",
    "reduction.status.solved",
    "reduction.status.inconsistent",
    "reduction.status.residual",
    "reduction.status.degenerate",
    "formats.emit_bytes",
    "cli.exit_mismatch",
)


def to_poly(terms: dict, names=()) -> Polynomial:
    return Polynomial.from_terms([(dict(key), coeff) for key, coeff in terms.items()], names)


def value_at(polynomial, point) -> Fraction:
    """Evaluate an overdet polynomial with the benchmark's own evaluator."""
    return gen.evaluate(refs.parse_printed(str(polynomial)), point)


def coeff_bits(polynomial) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for _, c in polynomial.ordered_terms()),
        default=0,
    )


def root_accounted(conditions, residual, root) -> bool:
    """The solver's contract for a root it did not return: it lies on a
    recorded side condition that vanishes there, or on the residual system.
    Conditions and residual are term dicts."""
    if any(gen.evaluate(c, root) == 0 for c in conditions):
        return True
    return bool(residual) and all(gen.evaluate(q, root) == 0 for q in residual)


def _exact(point) -> dict:
    return {name: Fraction(value) for name, value in point.items()}


class Workload:
    """Seeded rounds of operations, their checks and their traced counters."""

    name = ""
    deadline = 1.0
    alarm = True  # in-process operation: the deadline is a SIGALRM
    expected_errors = (OverdetError,)  # raised on purpose: unsuccessful, not a crash

    def __init__(self, slots=None):
        self.slots = list(slots) if slots is not None else list(self.SLOTS)
        self.tracer = None

    # -- inputs ---------------------------------------------------------------

    def make_round(self, seed: int, round_index: int) -> list[Case]:
        return [
            self.make_case(gen.rng_for(self.name, seed, round_index, index), slot, round_index)
            for index, slot in enumerate(self.slots)
        ]

    def planted(self, case: Case) -> int:
        return case.data.get("planted", 0)

    @staticmethod
    def import_seconds() -> float:
        """Import time of overdet (every module the CLI loads) in a fresh interpreter."""
        code = (
            "import time; t = time.perf_counter(); import overdet, overdet.cli; "
            "print(time.perf_counter() - t)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=ENV, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    # -- traced run -------------------------------------------------------------

    def run_inprocess(self, case):
        return self.run(case)

    def run_traced(self, case):
        return self.run(case)

    def install(self, tracer) -> None:
        self.tracer = tracer
        for owner, attr, name, keep in SPANS:
            tracer.span(owner, attr, name, keep)
        tracer.count(jets, "total_derivative", "jets.total_derivative_calls")
        tracer.count(Polynomial, "partial_derivative", "rank.jacobian_partials",
                     inside="rank.jacobian", nonzero=True)

    def counters(self, tracer, case, record) -> dict:
        counts = Counter({name: 0 for name in COUNT_METRICS})
        counts["rank.jacobian_partials.nonzero"] = 0
        counts.update(tracer.counts)
        for span in tracer.spans[tracer.op_start:]:
            if span[0] == "poly.determinant":
                counts["poly.determinant_calls"] += 1
            elif span[0] == "reduction.reduce_chain":
                counts["reduction.reduce_chain_calls"] += 1
        for name, result in tracer.kept:
            if name == "jets.prolong":
                counts["jets.prolonged_terms"] += sum(
                    len(p.ordered_terms()) for p in result.equations.values()
                )
            elif name == "jets.top_order" and result.ok and result.conditions:
                counts["jets.top_order_denominator_terms"] += len(
                    result.conditions[0].polynomial.ordered_terms()
                )
            elif name == "reduction.solve":
                _outcome_counts(result, counts)
            elif name == "formats.emit" and isinstance(result, str):
                counts["formats.emit_bytes"] += len(result.encode())
        return dict(counts)

    def layer_metrics(self, totals, selfs, traced_ops, untraced, baseline) -> dict:
        metrics = {}
        for metric, span in SELF_TIME_METRICS.items():
            metrics[metric] = (selfs.get(span, 0.0) / traced_ops, "s")
        metrics["cli.startup_s"] = (self.startup_seconds(untraced, baseline), "s")
        for name in COUNT_METRICS:
            metrics[name] = (totals.get(name, 0), "count")
        partials = totals.get("rank.jacobian_partials", 0)
        nonzero = totals.get("rank.jacobian_partials.nonzero", 0)
        metrics["rank.jacobian_nonzero_ratio"] = (nonzero / partials if partials else 0.0, "ratio")
        return metrics

    def startup_seconds(self, untraced, baseline) -> float:
        return 0.0

    def write_spans(self, tracer, seed: int) -> None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{self.name}-seed{seed}.jsonl")

    def close(self) -> None:
        pass


def _outcome_counts(outcome, counts) -> None:
    counts["reduction.trace_steps"] += len(outcome.trace)
    counts["reduction.side_conditions"] += len(outcome.conditions)
    counts["reduction.branch_skipped"] += sum(1 for s in outcome.trace if s.kind == "branch-skipped")
    counts[f"reduction.status.{outcome.status}"] += 1
    bits = 0
    for condition in outcome.conditions:
        poly = condition.polynomial
        counts["reduction.constant_conditions"] += poly.is_constant()
        counts["reduction.condition_terms_max"] = max(
            counts["reduction.condition_terms_max"], len(poly.ordered_terms())
        )
        counts["reduction.condition_bits_max"] = max(
            counts["reduction.condition_bits_max"], coeff_bits(poly)
        )
        bits = max(bits, coeff_bits(poly))
    for step in outcome.trace:
        for poly in step.inputs + step.outputs:
            bits = max(bits, coeff_bits(poly))
    for poly in outcome.residual_system:
        bits = max(bits, coeff_bits(poly))
    counts["poly.max_coeff_bits"] = max(counts["poly.max_coeff_bits"], bits)


# -- jet-certify ------------------------------------------------------------------


class JetCertify(Workload):
    """Prolong a first-order PDE system, solve its top-order jets at the zero
    multi-index, and certify a known solution jet point."""

    name = "jet-certify"
    deadline = 30.0
    # (p, n, orders); every vector has N_H >= N_S and n >= (m-1)p.  Sizes come
    # in groups of similar cost, so that the median lands inside the middle
    # group and the p90 inside the second largest, not on a step between groups.
    SLOTS = (
        [(1, 1, (2,)), (1, 1, (4,)), (2, 1, (3,)), (1, 1, (6,)), (1, 1, (2, 3)), (2, 2, (4,)),
         (1, 1, (8,)), (2, 1, (6,)), (1, 1, (3, 3)), (1, 1, (10,)), (2, 2, (2, 3)), (1, 1, (3, 4))]
        + [(1, 1, (4, 4)), (2, 2, (3, 3)), (1, 2, (2, 2, 3)), (2, 2, (2, 4))] * 4
        + [(2, 2, (3, 4)), (1, 2, (2, 3, 3)), (1, 1, (5, 5)), (2, 4, (2, 2, 3))]
        + [(1, 1, (6, 6))] * 3 + [(1, 2, (3, 3, 3))] * 4
        + [(1, 2, (5, 5, 5))]
    )

    def make_case(self, rng, slot, round_index) -> Case:
        p, n, orders = slot
        spec = gen.pde_system(rng, p, n, orders)
        system = jets.PdeSystem(
            p=p, n=n, base_vars=spec["base"],
            equations=tuple(to_poly(eq) for eq in spec["equations"]),
        )
        # round 0 is the fixed sample whose Jacobian rank is recomputed
        return Case(f"p{p}n{n}o{'x'.join(map(str, orders))}",
                    {"spec": spec, "system": system, "planted": 1, "sample": round_index == 0})

    def run(self, case):
        spec, system = case.data["spec"], case.data["system"]
        prolonged = jets.prolong(system, spec["orders"])
        top = jets.top_order_extraction(system, prolonged, (0,) * len(spec["orders"]))
        report = rank.certify(prolonged, spec["point"])
        return prolonged, top, report

    def check(self, case, result) -> Verdict:
        spec = case.data["spec"]
        prolonged, top, report = result
        point = spec["point"]
        n_h, n_s = gen.closed_form_counts(spec["p"], spec["n"], spec["orders"])
        notes = []
        if (report.n_h, report.n_s, len(prolonged.equations)) != (n_h, n_s, n_h):
            notes.append("counts differ from the closed form")
        # Cramer numerators have a column that vanishes at the point, and so
        # do the consistency residuals; see gen.pde_system
        solved = [num for num, _ in top.solved.values()] if top.ok else []
        if any(value_at(q, point) != 0 for q in solved + list(top.residuals)):
            notes.append("top-order solution does not vanish at the known point")
        if report.certified != (report.rank == report.n_s_real):
            notes.append("certified flag disagrees with rank and n_s_real")
        if case.data["sample"]:
            if "reference" not in case.data:
                equations = refs.prolong(spec)
                case.data["reference"] = (refs.certify(spec, equations), _canonical(equations))
            (reference_rank, n_real), expected = case.data["reference"]
            printed = [refs.parse_printed(str(q)) for q in prolonged.equations.values()]
            if _canonical(printed) != expected:
                notes.append("prolonged equations differ from the reference prolongation")
            if (report.rank, report.n_s_real) != (reference_rank, n_real):
                notes.append(f"rank {report.rank}/{report.n_s_real} vs reference "
                             f"{reference_rank}/{n_real}")
        chars = sum(len(str(q)) for q in solved + list(top.residuals))
        chars += sum(len(str(c.polynomial)) for c in top.conditions) + len(str(report))
        ok = not notes
        return Verdict(ok=ok, sound=ok, found=1, chars=chars, note="; ".join(notes))


def _canonical(equations) -> list:
    return sorted(tuple(sorted(eq.items())) for eq in equations)


# -- planted-solve ------------------------------------------------------------------


def _dropped_root_system():
    """y-2x, (x-1)(x^2-2)+y-2x, x(x-1)(x^2-2)+3(y-2x): x=1 verifies at the
    univariate level, yet (1, 2) is not returned."""
    x, y, one = gen.variable("x"), gen.variable("y"), {(): 1}
    line = gen.add(y, gen.add(x, scale=-2))
    cubic = gen.mul(gen.add(x, gen.add(one, scale=-1)), gen.add(gen.mul(x, x), gen.add(one, scale=-2)))
    return ("x", "y"), {"x": 1, "y": 2}, [
        line, gen.add(cubic, line), gen.add(gen.mul(x, cubic), gen.add(line, scale=3)),
    ]


def _labelled_cases() -> list[Case]:
    """Fixed systems that show the solver's known defects.  Their outcomes at
    commit 5dcc5e9 are recorded in perfbench/design.json."""
    cases = []
    names, root, eqs = _dropped_root_system()
    cases.append(("dropped-root", "dropped-root", names, root, eqs))
    # a fixed 4-variable degree-2 stream; k=1 is left out because it takes
    # about 0.4 s, so it would pass or miss the 0.5 s deadline by chance
    for k in (0, 2, 3, 4):
        names, root, eqs = gen.planted_system(gen.rng_for("planted-defect", "4var", k), 4, 2)
        cases.append((f"4var-deg2-{k}", "4var-slice", names, root, eqs))
    names, root, eqs = gen.planted_system(gen.rng_for("planted-defect", "3var", RUNAWAY_3VAR), 3, 3)
    cases.append(("3var-deg3-runaway", "3var-deg3-runaway", names, root, eqs))
    return [
        Case(slot, {"names": names, "root": root, "equations": eqs,
                    "polys": [to_poly(eq, names) for eq in eqs], "planted": 1}, defect)
        for slot, defect, names, root, eqs in cases
    ]


RUNAWAY_3VAR = 15  # index in the fixed 3-variable degree-3 stream


class PlantedSolve(Workload):
    """One solve_overdetermined per planted-root system."""

    name = "planted-solve"
    deadline = 0.5
    # (variables, degree).  One-variable systems, whose times hardly vary
    # within a degree, make up half the block, so the median is steady.
    BLOCK = (
        [(1, d) for d in range(2, 11)] * 2
        + [(2, 2)] * 3 + [(2, 3)] * 4 + [(2, 4)] * 4 + [(2, 5)] * 2 + [(3, 2)] * 4
    )
    SLOTS = BLOCK * 9 + ["labelled"]

    def make_round(self, seed, round_index):
        cases = []
        for index, slot in enumerate(self.slots):
            if slot == "labelled":
                cases.extend(_labelled_cases())
                continue
            nvars, degree = slot
            rng = gen.rng_for(self.name, seed, round_index, index)
            names, root, eqs = gen.planted_system(rng, nvars, degree)
            cases.append(Case(f"v{nvars}d{degree}", {
                "names": names, "root": root, "equations": eqs,
                "polys": [to_poly(eq, names) for eq in eqs], "planted": 1,
            }))
        return cases

    def run(self, case):
        return reduction.solve_overdetermined(case.data["polys"], case.data["names"])

    def check(self, case, outcome) -> Verdict:
        names, root, eqs = case.data["names"], case.data["root"], case.data["equations"]
        sound = all(gen.evaluate(eq, sol) == 0 for sol in outcome.solutions for eq in eqs)
        found = any(all(sol.get(v) == root[v] for v in names) for sol in outcome.solutions)
        conditions = [refs.parse_printed(str(c.polynomial)) for c in outcome.conditions]
        residual = [refs.parse_printed(str(q)) for q in outcome.residual_system]
        ok = sound and (found or root_accounted(conditions, residual, root))
        chars = sum(len(", ".join(f"{v} = {sol[v]}" for v in names if v in sol))
                    for sol in outcome.solutions)
        chars += sum(len(str(q)) for q in outcome.residual_system)
        chars += sum(len(str(c.polynomial)) + 5 for c in outcome.conditions)
        note = "" if ok else ("returned a non-solution" if not sound else "root lost")
        return Verdict(ok=ok, sound=sound, found=int(found), chars=chars, note=note)


# -- cli-roundtrip ------------------------------------------------------------------

RICCATI = "unknowns 1\nsurplus 1\nvars x\neq S1[1] - S1^2\neq S1[1] - S1\n"


class CliRoundtrip(Workload):
    """One ``overdet --format json ...`` process per operation, on files
    generated into a scratch directory of the checkout."""

    name = "cli-roundtrip"
    deadline = 10.0
    alarm = False  # subprocess timeout
    # prolong (the largest outputs and the slowest commands) is 4 of 22, so
    # the p90 lands inside that group
    SLOTS = (
        ["counts-minimize"] * 2 + ["prolong"] * 4
        + ["solve-poly-1var"] * 3 + ["solve-poly-2var"] * 3
        + ["solve-pde-o2"] * 2 + ["solve-pde-o3-riccati"]
        + ["rank-point"] * 2 + ["oracle-roots"] * 2 + ["oracle-resultant"] * 3
    )

    def __init__(self, slots=None):
        super().__init__(slots)
        self.scratch = OUT / f"tmp-{os.getpid()}"

    def make_round(self, seed, round_index):
        folder = self.scratch / f"r{round_index}"
        folder.mkdir(parents=True, exist_ok=True)
        cases = []
        for index, slot in enumerate(self.slots):
            rng = gen.rng_for(self.name, seed, round_index, index)
            case = self.make_case(rng, slot, folder / f"{index}-{slot}")
            case.defect = "riccati-orders-3" if slot == "solve-pde-o3-riccati" else None
            cases.append(case)
        return cases

    def make_case(self, rng, slot, stem: Path) -> Case:
        data: dict = {"kind": slot.split("-")[0], "expect_exit": 0}
        if slot == "counts-minimize":
            p, n, m = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
            data.update(p=p, n=n, m=m)
            argv = ["counts", "--p", str(p), "--n", str(n), "--m", str(m), "--minimize"]
        elif slot == "prolong":
            spec = gen.pde_system(rng, 1, 2, (3, 3, 3))
            data.update(spec=spec)
            argv = ["prolong", self._write(stem, ".pde", gen.pde_text(spec)), "--orders", "3,3,3"]
        elif slot.startswith("solve-poly"):
            nvars, degree = (1, 6) if slot.endswith("1var") else (2, 2)
            names, root, eqs = gen.planted_system(rng, nvars, degree)
            data.update(target=_exact(root), equations=eqs, planted=1, expect_exit=None)
            argv = ["solve", self._write(stem, ".poly", gen.poly_text(names, eqs))]
        elif slot.startswith("solve-pde"):
            if slot == "solve-pde-o2":
                c1, c2 = rng.choice([-3, -1, 1, 2, 3, 4]), rng.choice([-2, 1, 3])
                text = (f"unknowns 1\nsurplus 1\nvars x\neq S1[1] + {-c1}*S1^2\n"
                        f"eq S1[1] + {-c2}*S1\n")
                orders = 2
            else:
                c1 = c2 = 1
                text, orders = RICCATI, 3
            equations = [
                {(("S1[1]", 1),): 1, (("S1[0]", 2),): -c1},
                {(("S1[1]", 1),): 1, (("S1[0]", 1),): -c2},
            ]
            zero = {f"S1[{j}]": Fraction(0) for j in range(orders + 1)}
            data.update(equations=equations, target=zero, planted=1)
            argv = ["solve", self._write(stem, ".pde", text), "--orders", str(orders)]
        elif slot == "rank-point":
            spec = gen.pde_system(rng, 1, 1, (3, 3))
            point_path = self._write(stem, ".json", json.dumps({k: int(v) for k, v in spec["point"].items()}))
            data.update(spec=spec, planted=1, expect_exit=None)
            argv = ["rank", self._write(stem, ".pde", gen.pde_text(spec)), "--orders", "3,3",
                    "--point", point_path]
        elif slot == "oracle-roots":
            names, root, eqs = gen.planted_system(rng, 2, 2)
            data.update(target=_exact(root), equations=eqs, planted=1)
            argv = ["oracle", "roots", self._write(stem, ".poly", gen.poly_text(names, eqs)),
                    "--bound", "3"]
        elif slot == "oracle-resultant":
            names, root, eqs = gen.planted_system(rng, 2, 3)
            data.update(target=_exact(root))
            argv = ["oracle", "resultant",
                    self._write(stem, ".poly", gen.poly_text(names, eqs[:2])), "--var", "y"]
        else:
            raise ValueError(f"unknown cli slot {slot}")
        data["argv"] = ["--format", "json", *argv]
        return Case(slot, data)

    @staticmethod
    def _write(stem: Path, suffix: str, text: str) -> str:
        path = stem.with_suffix(suffix)
        path.write_text(text)
        return str(path)

    def run(self, case):
        done = subprocess.run(
            [sys.executable, "-m", "overdet.cli", *case.data["argv"]],
            env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=self.deadline,
        )
        return done.returncode, done.stdout, done.stderr

    def run_inprocess(self, case):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(case.data["argv"]))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def run_traced(self, case):
        index = self.tracer.open(f"cli.{case.data['kind']}")
        try:
            return self.run_inprocess(case)
        finally:
            self.tracer.close_span(index)

    def counters(self, tracer, case, record) -> dict:
        counts = super().counters(tracer, case, record)
        code, stdout, _ = record.result
        counts["cli.exit_mismatch"] = int(code != self.expected_exit(case, stdout))
        return counts

    def startup_seconds(self, untraced, baseline) -> float:
        return (sum(r.elapsed for r in untraced) - sum(r.elapsed for r in baseline)) / len(untraced)

    def expected_exit(self, case, stdout) -> int:
        if case.data["kind"] == "solve" and case.data["expect_exit"] is None:
            try:
                return STATUS_EXIT.get(json.loads(stdout).get("status"), 0)
            except ValueError:
                return 0
        if case.data["kind"] == "rank":
            rank_value, n_real = self._reference_rank(case.data)
            return 0 if rank_value == n_real else 4
        return case.data["expect_exit"]

    @staticmethod
    def _reference_rank(data):
        if "reference" not in data:
            data["reference"] = refs.certify(data["spec"], refs.prolong(data["spec"]))
        return data["reference"]

    def check(self, case, result) -> Verdict:
        code, stdout, stderr = result
        data = case.data
        expected = self.expected_exit(case, stdout)
        if code not in DOCUMENTED_EXITS or "Traceback" in stderr:
            return Verdict(ok=False, crashed=True, note=f"crashed with exit {code}")
        if not stdout:
            return Verdict(ok=False, note=f"exit {code} with no output: {stderr.strip()}")
        wrong, missing, found = getattr(self, "_check_" + data["kind"])(data, code, json.loads(stdout))
        if code != expected:
            missing.append(f"exit {code}, expected {expected}")
        notes = wrong + missing
        return Verdict(ok=not notes, sound=not wrong, found=found, chars=len(stdout),
                       note="; ".join(notes))

    # each returns (wrong answers, missing answers, known solutions found)

    @staticmethod
    def _check_counts(data, code, out):
        got = out["minimize"]
        reference = refs.minimal_orders(data["p"], data["n"], data["m"])
        same = (tuple(got["orders"]), got["N_H"], got["N_S"]) == reference
        return ([] if same else ["minimal orders differ from the reference"]), [], 0

    @staticmethod
    def _check_prolong(data, code, out):
        spec, wrong = data["spec"], []
        n_h, _ = gen.closed_form_counts(spec["p"], spec["n"], spec["orders"])
        if len(out["equations"]) != n_h or out["counts"]["N_H"] != n_h:
            wrong.append("equation count differs from the closed form")
        if any(gen.evaluate(refs.parse_printed(e["polynomial"]), spec["point"]) != 0
               for e in out["equations"]):
            wrong.append("a prolonged equation does not vanish at the known point")
        return wrong, [], 0

    @staticmethod
    def _check_solve(data, code, out):
        wrong, missing = [], []
        if code != STATUS_EXIT.get(out["status"]):
            wrong.append(f"exit {code} for status {out['status']}")
        solutions = [{k: Fraction(v) for k, v in s.items()} for s in out["solutions"]]
        if any(gen.evaluate(eq, s) != 0 for s in solutions for eq in data["equations"]):
            wrong.append("returned a non-solution")
        target = data["target"]
        found = any(all(s.get(k) == v for k, v in target.items()) for s in solutions)
        conditions = [refs.parse_printed(c["polynomial"]) for c in out["conditions"]]
        residual = [refs.parse_printed(q) for q in out["residual"]]
        if not found and not root_accounted(conditions, residual, target):
            missing.append("known solution lost")
        return wrong, missing, int(found)

    def _check_rank(self, data, code, out):
        same = (out["rank"], out["n_s_real"]) == self._reference_rank(data)
        return ([] if same else ["rank differs from the reference"]), [], 1

    @staticmethod
    def _check_oracle(data, code, out):
        target = data["target"]
        if "resultant" in out:
            vanishes = gen.evaluate(refs.parse_printed(out["resultant"]), {"x": target["x"]}) == 0
            return ([] if vanishes else ["resultant does not vanish at the common root"]), [], 0
        roots = [{k: Fraction(v) for k, v in r.items()} for r in out["roots"]]
        wrong = ["a returned root is not a root"] if any(
            gen.evaluate(eq, r) != 0 for r in roots for eq in data["equations"]) else []
        found = target in roots
        return wrong, ([] if found else ["planted root missing"]), int(found)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (JetCertify, PlantedSolve, CliRoundtrip)}
