"""The benchmark's tracer wraps overdet functions by name and skips a name
that does not resolve, so a removed or renamed function would make its
per-layer metric read 0 without an error.  These tests make that an error."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from overdet import jets  # noqa: E402
from overdet.poly import Polynomial  # noqa: E402
from perfbench.workloads import SPANS  # noqa: E402


def test_every_traced_span_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in SPANS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_counted_calls_resolve():
    assert callable(getattr(jets, "total_derivative", None))
    assert callable(getattr(Polynomial, "partial_derivative", None))
