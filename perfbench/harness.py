"""Closed-loop runner: one client, each operation starts when the previous
one has finished, every operation under a deadline.

A run repeats whole rounds of a workload (a fixed list of slots, each slot a
seeded instance) until the operations have been busy for ``--seconds`` and
at least ``MIN_OPS`` have been attempted, so the p90 always has at least ten
samples beyond it.  Checks against the references run between operations,
outside the timed region.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass

from .tracer import Tracer, self_times

MIN_OPS = 100  # p90 of 100 samples leaves 10 beyond it
HARD_STOP_S = 110.0  # no new round starts after this much wall time
SETUP_REPS = 9
# The warm-up operation of set-up is the first slot of this seed and round,
# the same for every run, so that set-up time does not depend on --seed
# through the size of one operation.
WARMUP_SEED, WARMUP_ROUND = 0, -1


class DeadlineExceeded(Exception):
    """Raised by the alarm when an in-process operation passes its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Case:
    """One operation's input.  ``defect`` names a known defect it exhibits."""

    slot: str
    data: dict
    defect: str | None = None


@dataclass
class Verdict:
    ok: bool  # finished in time and the answer checks out
    sound: bool = True  # nothing the program returned is wrong
    crashed: bool = False  # raised or exited in a way overdet does not document
    planted: int = 0  # known solutions the operation should return (set by the runner)
    found: int = 0  # ... of which it returned (or confirmed)
    chars: int | None = None  # printed result size; None when nothing printed
    note: str = ""

    @property
    def failed(self) -> bool:
        """A failed operation in the sense of the result line: a wrong answer
        or a crash.  A deadline miss, one of overdet's own errors or a lost
        root is an unsuccessful operation (``ok`` false) that still counts
        against success_ratio and root_recall, but is not a failure: those
        are the solver's known defects, measured rather than hidden."""
        return self.crashed or not self.sound


@dataclass
class OpRecord:
    slot: str
    defect: str | None  # the inputs are not kept, so a run's memory stays flat
    elapsed: float
    error: str | None
    verdict: Verdict
    result: object = None  # kept only in the traced run
    counts: dict | None = None


def call_with_deadline(fn, deadline: float, alarm: bool = True, expected=(Exception,)):
    """Run ``fn()``; returns (elapsed_s, result, error).  ``error`` is None,
    ``"deadline"``, ``"raised <Type>"`` for an exception of an ``expected``
    type, or ``"crashed <Type>"`` for any other.  With ``alarm`` the deadline
    is enforced by SIGALRM; otherwise ``fn`` enforces it (subprocess timeout)."""
    result = error = None
    start = time.perf_counter()
    try:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            result = fn()
        finally:
            if alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except (DeadlineExceeded, subprocess.TimeoutExpired):
        error = "deadline"
    except expected as exc:
        error = f"raised {type(exc).__name__}"
    except Exception as exc:  # an exception the program does not document
        error = f"crashed {type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if error is None and elapsed > deadline:
        error = "deadline"
    return elapsed, result, error


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of ``count``."""
    return count - max(1, math.ceil(q * count))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, case: Case, run=None, alarm=None, keep=False) -> OpRecord:
        wl = self.workload
        run = run or wl.run
        elapsed, result, error = call_with_deadline(
            lambda: run(case), wl.deadline, wl.alarm if alarm is None else alarm,
            getattr(wl, "expected_errors", (Exception,)),
        )
        if error is None:
            try:
                verdict = wl.check(case, result)
            except Exception as exc:  # output the checks cannot read counts as wrong
                verdict = Verdict(ok=False, sound=False, note=f"check failed: {type(exc).__name__}: {exc}")
        else:
            verdict = Verdict(ok=False, crashed=error.startswith("crashed"), note=error)
        verdict.planted = wl.planted(case)
        return OpRecord(case.slot, case.defect, elapsed, error, verdict, result if keep else None)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Median over SETUP_REPS of: import overdet in a fresh interpreter,
        generate round 0's inputs, run the fixed warm-up operation once."""
        warmup = self.workload.make_round(WARMUP_SEED, WARMUP_ROUND)[0]
        times = []
        for _ in range(SETUP_REPS):
            import_s = self.workload.import_seconds()
            start = time.perf_counter()
            self.workload.make_round(self.seed, 0)
            generate_s = time.perf_counter() - start
            times.append(import_s + generate_s + self.op(warmup).elapsed)
        return statistics.median(times)

    # -- timed run --------------------------------------------------------------

    def timed(self) -> list[OpRecord]:
        records: list[OpRecord] = []
        busy = 0.0
        round_index = 0
        while busy < self.seconds or len(records) < MIN_OPS:
            if round_index and time.perf_counter() - self.started > HARD_STOP_S:
                break
            for case in self.workload.make_round(self.seed, round_index):
                record = self.op(case)
                busy += record.elapsed
                records.append(record)
            round_index += 1
        return records

    # -- traced run ---------------------------------------------------------------

    def traced(self) -> tuple[dict, list[OpRecord], bool]:
        """Round 0 untraced, then traced in-process: twice, and again while
        the operations, untraced and traced, have been busy for less than
        ``seconds``.
        Counts come from the operations that completed in the first two
        traced passes, and must agree between them.  Tracing overhead is the
        traced mean operation time minus the untraced in-process one."""
        wl = self.workload
        cases = wl.make_round(self.seed, 0)
        untraced = [self.op(case) for case in cases]
        baseline = (
            untraced if wl.alarm
            else [self.op(case, run=wl.run_inprocess, alarm=True) for case in cases]
        )
        tracer = Tracer()
        wl.install(tracer)
        passes: list[list[OpRecord]] = []
        busy = sum(r.elapsed for r in untraced)
        try:
            while len(passes) < 2 or (
                busy < self.seconds and time.perf_counter() - self.started < HARD_STOP_S
            ):
                records = []
                for slot, case in enumerate(cases):
                    tracer.begin_op((len(passes), slot))
                    root = tracer.open("op")
                    try:
                        record = self.op(case, run=wl.run_traced, alarm=True, keep=True)
                    finally:
                        tracer.close_span(root)
                    if record.error is None:
                        record.counts = wl.counters(tracer, case, record)
                    record.result = None
                    busy += record.elapsed
                    records.append(record)
                passes.append(records)
        finally:
            tracer.close()
        first, second = passes[0], passes[1]
        both = [s for s in range(len(cases)) if first[s].counts is not None and second[s].counts is not None]
        totals = [_sum_counts(p[s].counts for s in both) for p in (first, second)]
        traced_ops = [r for p in passes for r in p]
        metrics = wl.layer_metrics(
            totals[0], self_times(tracer.spans), len(traced_ops), untraced, baseline
        )
        overhead = statistics.fmean(r.elapsed for r in traced_ops) - statistics.fmean(
            r.elapsed for r in baseline
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.spans"] = (
            sum(1 for span in tracer.spans if span[4][0] == 0 and span[4][1] in both), "count"
        )
        wl.write_spans(tracer, self.seed)
        return metrics, first, totals[0] == totals[1]


def _sum_counts(per_op) -> dict:
    """Sum counters over operations; names ending in ``_max`` take the max."""
    total: dict = {}
    for counts in per_op:
        for name, value in counts.items():
            if name.endswith("_max"):
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def end_to_end(records: list[OpRecord], deadline: float, setup_s: float) -> dict:
    """The end-to-end metrics of a timed run.  An unsuccessful operation counts as
    missing any latency limit: its latency is taken as at least the deadline."""
    latencies = [r.elapsed if r.verdict.ok else max(r.elapsed, deadline) for r in records]
    busy = sum(r.elapsed for r in records)
    done = sum(1 for r in records if r.verdict.ok)
    planted = sum(r.verdict.planted for r in records)
    found = sum(r.verdict.found for r in records)
    chars = [r.verdict.chars for r in records if r.verdict.chars is not None]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (percentile(latencies, 0.5), "s"),
        "op_p90_s": (percentile(latencies, 0.9), "s"),
        "ops_per_s": (done / busy, "1/s"),
        "success_ratio": (done / len(records), "ratio"),
        "root_recall": (found / planted if planted else 0.0, "ratio"),
        "result_chars_p90": (percentile(chars, 0.9) if chars else 0, "chars"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
