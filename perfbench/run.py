"""Benchmark for overdet: one workload per run.

    python3 perfbench/run.py --workload jet-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs one workload in this process, closed loop, on inputs generated from
the seed, checks every output against the benchmark's own references, and
prints a table followed by one JSON line: with ``--trace 0`` the end-to-end
metrics of a timed run, with ``--trace 1`` the per-layer metrics of a
separate traced run.  The metric names and units are those declared in
BENCHMARK.json.  Run from the root of a checkout; overdet is imported from
its ``src`` directory.  ``--workload all`` runs every workload, timed and
traced, each in a fresh process, and prints all of their metrics.

``failed`` in the result line counts operations that returned a wrong answer
or crashed (an exception or exit code overdet does not document).  Deadline
misses, overdet's own errors and lost roots make an operation unsuccessful:
they lower success_ratio and root_recall, and are listed with their labels.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "overdet" / "__init__.py").is_file():
        print(f"error: no overdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all([w["name"] for w in declared["workloads"]], args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    runner = harness.Runner(workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, records, repeatable = runner.traced()
            expected = declared["per_layer"]
        else:
            setup_s = runner.setup()
            records = runner.timed()
            metrics = harness.end_to_end(records, workload.deadline, setup_s)
            expected = declared["end_to_end"]
            repeatable = True
    finally:
        workload.close()

    wanted = {m["name"]: m["unit"] for m in expected}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != wanted:
        print(f"error: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(wanted.items())}",
              file=sys.stderr)
        return 3
    unsuccessful = [r for r in records if not r.verdict.ok]
    failed = [r for r in records if r.verdict.failed]
    correct = repeatable and all(r.verdict.sound for r in records)
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'timed'} run: "
          f"{len(records)} operations, {len(unsuccessful)} unsuccessful, {len(failed)} failed")
    if not args.trace:
        print(f"  op_p90_s has {harness.beyond(len(records), 0.9)} samples beyond it")
    grouped = Counter((r.slot, r.verdict.note, r.defect, r.verdict.failed, r.verdict.sound)
                      for r in unsuccessful)
    for (slot, note, defect, fail, sound), count in sorted(grouped.items(), key=str):
        label = f" [known defect: {defect}]" if defect else ""
        kind = "WRONG" if not sound else "CRASHED" if fail else "unsuccessful"
        print(f"  {kind} {count}x {slot}: {note}{label}")
    if not repeatable:
        print("  WRONG: count metrics differ between the two traced passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(names, args) -> int:
    """Each workload, timed then traced, in its own process; one JSON line."""
    results, status = {}, 0
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode or not lines:
                print(done.stderr, file=sys.stderr)
                status = status or done.returncode or 1
                continue
            results.setdefault(name, {})["per_layer" if trace else "end_to_end"] = json.loads(lines[-1])
    correct = status == 0 and all(r["correct"] for w in results.values() for r in w.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
