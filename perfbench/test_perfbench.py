"""Tests of the benchmark's own machinery: span self-time accounting, the
percentile rule, deadlines counting against success and crashes as failures,
seeded inputs and the repeatability of the count metrics."""

import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gen, harness, refs  # noqa: E402
from perfbench.harness import Case, Runner, Verdict, call_with_deadline  # noqa: E402
from perfbench.tracer import Tracer, self_times  # noqa: E402


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    ns = 10**9
    spans = [
        ["op", 0, 100 * ns, -1, 0],
        ["a", 10 * ns, 40 * ns, 0, 0],
        ["b", 30 * ns, 60 * ns, 0, 0],  # overlaps a: 10..60 covered once
        ["c", 15 * ns, 20 * ns, 1, 0],
        ["a", 70 * ns, 80 * ns, 0, 0],
    ]
    times = self_times(spans)
    assert times["op"] == pytest.approx(100 - 50 - 10)
    assert times["a"] == pytest.approx(30 - 5 + 10)
    assert times["b"] == pytest.approx(30)
    assert times["c"] == pytest.approx(5)
    assert sum(times.values()) == pytest.approx(100 + 30 - 20)  # overlap counted in both a and b


def test_tracer_wraps_at_the_lookup_site_and_restores():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.span(module, "outer", "layer.outer", keep=True)
    tracer.span(module, "inner", "layer.inner")
    tracer.begin_op("op-1")
    assert module.outer(3) == 8
    tracer.close()
    assert module.inner is inner and module.outer is outer
    (outer_span, inner_span) = tracer.spans
    assert outer_span[0] == "layer.outer" and outer_span[3] == -1
    assert inner_span[0] == "layer.inner" and inner_span[3] == 0
    assert {span[4] for span in tracer.spans} == {"op-1"}
    assert tracer.kept == [("layer.outer", 8)]
    times = self_times(tracer.spans)
    inner_s = (inner_span[2] - inner_span[1]) / 1e9
    assert times["layer.outer"] == pytest.approx((outer_span[2] - outer_span[1]) / 1e9 - inner_s)


# -- percentiles ---------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.9) == 90
    assert harness.percentile([3.0], 0.9) == 3.0
    assert harness.percentile([5, 1, 4, 2, 3], 0.5) == 3
    assert harness.beyond(100, 0.9) == 10
    assert harness.beyond(99, 0.9) == 9


class _Instant:
    """A workload whose operations return at once, or sleep past the deadline."""

    name = "fake"
    deadline = 0.05
    alarm = True

    def __init__(self, slow=()):
        self.slow = set(slow)

    def make_round(self, seed, round_index):
        return [Case(f"s{i}", {"slow": i in self.slow, "planted": 1}) for i in range(7)]

    def run(self, case):
        if case.data["slow"]:
            end = time.perf_counter() + 5
            while time.perf_counter() < end:  # busy in Python, like a runaway solve
                pass
        return case.slot

    def check(self, case, result):
        return Verdict(ok=True, found=1, chars=len(result))

    def planted(self, case):
        return 1


def test_a_run_keeps_ten_samples_beyond_p90():
    records = Runner(_Instant(), seed=1, seconds=0.0).timed()
    assert len(records) >= harness.MIN_OPS
    assert harness.beyond(len(records), 0.9) >= 10
    assert len(records) % 7 == 0  # whole rounds only


# -- deadlines ------------------------------------------------------------------------


def test_deadline_counts_as_failure():
    workload = _Instant(slow={3})
    records = Runner(workload, seed=1, seconds=0.0).timed()
    slow = [r for r in records if r.slot == "s3"]
    assert slow and all(r.error == "deadline" and not r.verdict.ok for r in slow)
    # unsuccessful, but neither a wrong answer nor a crash
    assert not any(r.verdict.failed for r in records)
    assert all(r.elapsed < 1.0 for r in slow)  # stopped at the deadline, not run out
    metrics = harness.end_to_end(records, workload.deadline, setup_s=0.1)
    assert metrics["success_ratio"][0] == pytest.approx(6 / 7)
    assert metrics["root_recall"][0] == pytest.approx(6 / 7)
    # one failure in seven is more than a tenth, so the p90 is a failed operation
    assert metrics["op_p90_s"][0] >= workload.deadline
    assert metrics["op_p50_s"][0] < workload.deadline


def test_subprocess_deadline_counts_as_failure():
    code = "import time; time.sleep(30)"
    elapsed, result, error = call_with_deadline(
        lambda: subprocess.run([sys.executable, "-c", code], timeout=0.2), 0.2, alarm=False
    )
    assert error == "deadline" and result is None and elapsed < 10


def test_raise_counts_as_failure_and_late_finish_too():
    def boom():
        raise ValueError("no")

    assert call_with_deadline(boom, 1.0)[2] == "raised ValueError"
    assert call_with_deadline(lambda: time.sleep(0.05), 0.01, alarm=False)[2] == "deadline"


def test_undocumented_exception_is_a_crash_and_fails():
    from overdet.errors import OverdetError, PivotDegenerateError
    from perfbench.workloads import PlantedSolve

    def refuse():
        raise PivotDegenerateError("no pivot")

    def boom():
        raise TypeError("bug")

    assert call_with_deadline(refuse, 1.0, expected=(OverdetError,))[2] == "raised PivotDegenerateError"
    assert call_with_deadline(boom, 1.0, expected=(OverdetError,))[2] == "crashed TypeError"

    workload = PlantedSolve([(1, 2)])
    runner = Runner(workload, seed=1, seconds=0.0)
    (case,) = workload.make_round(1, 0)
    for fn, failed in ((refuse, False), (boom, True)):
        record = runner.op(case, run=lambda _case, fn=fn: fn())
        assert not record.verdict.ok and record.verdict.failed is failed
    assert runner.op(case).verdict.ok


# -- inputs and references ----------------------------------------------------------------


def _jet_slots():
    return [(1, 1, (3,)), (1, 1, (2, 3)), (1, 2, (2, 2, 3))]


def test_inputs_are_a_pure_function_of_the_seed():
    from perfbench.workloads import JetCertify, PlantedSolve

    for workload in (JetCertify(_jet_slots()), PlantedSolve([(1, 4), (2, 3), (3, 2)])):
        first = [c.data.get("spec") or c.data["equations"] for c in workload.make_round(7, 2)]
        again = [c.data.get("spec") or c.data["equations"] for c in workload.make_round(7, 2)]
        other = [c.data.get("spec") or c.data["equations"] for c in workload.make_round(8, 2)]
        assert first == again
        assert first != other


def test_known_point_solves_the_reference_prolongation():
    for p, n, orders in _jet_slots() + [(2, 4, (2, 2, 3))]:
        spec = gen.pde_system(gen.rng_for("test", p, n, orders), p, n, orders)
        equations = refs.prolong(spec)
        assert len(equations) == gen.closed_form_counts(p, n, orders)[0]
        assert all(gen.evaluate(eq, spec["point"]) == 0 for eq in equations)


def test_gauss_jordan_rank():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}, {2: Fraction(1, 3)}]
    assert refs.gauss_jordan_rank(rows) == 2
    assert refs.gauss_jordan_rank([{}, {}]) == 0
    assert refs.gauss_jordan_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]) == 2


def test_printed_polynomials_read_back():
    text = "3*x^2*y - 1/2*S1[0,1] + 4"
    assert refs.parse_printed(text) == {
        (("x", 2), ("y", 1)): 3, (("S1[0,1]", 1),): Fraction(-1, 2), (): 4,
    }
    terms = {(("x", 1),): -1, (("y", 3),): 2, (): -7}
    assert refs.parse_printed(gen.to_text(terms)) == terms


# -- count metrics repeat -----------------------------------------------------------------

_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import harness, workloads
wl = workloads.{cls}({slots!r})
metrics, records, repeatable = harness.Runner(wl, seed=5, seconds=0).traced()
print(json.dumps({{"repeatable": repeatable,
                  "counts": {{k: v for k, (v, unit) in metrics.items() if unit == "count"}}}}))
"""


@pytest.mark.parametrize(
    "cls, slots",
    [("JetCertify", _jet_slots()), ("PlantedSolve", [(1, 5), (2, 3), (3, 2)])],
)
def test_count_metrics_repeat_across_processes(cls, slots):
    script = _COUNTS_SCRIPT.format(src=str(ROOT / "src"), root=str(ROOT), cls=cls, slots=slots)
    results = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert all(r["repeatable"] for r in results)
    assert results[0]["counts"] == results[1]["counts"]
    assert any(results[0]["counts"].values())
