"""Spans and counters recorded around calls into overdet, from outside it.

The tracer replaces a function at the module attribute where its caller
looks it up (``overdet.rank.jacobian``, ``overdet.cli.prolong``...) with a
wrapper that records a span, and puts the original back on ``close``.  The
source is never touched.  Spans live in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent_index, op_id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.op_start = 0  # index of the current operation's first span
        self.counts: Counter = Counter()
        self.kept: list[tuple[str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), None, parent, self.op_id])
        self.stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        if self.stack and self.stack[-1] == index:
            self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.op_start = len(self.spans)
        self.stack.clear()
        self.kept.clear()
        self.counts.clear()

    # -- installing wrappers ------------------------------------------------

    def span(self, owner, attr: str, name: str, keep: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        with ``keep`` the return value is kept for counters taken later."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close_span(index)
            if keep:
                tracer.kept.append((name, result))
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str, inside: str | None = None, nonzero: bool = False) -> None:
        """Count calls of ``owner.attr`` (only those made directly inside a
        span named ``inside``, when given); with ``nonzero`` also count the
        calls whose result is not identically zero."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if inside is None or tracer.innermost() == inside:
                tracer.counts[name] += 1
                if nonzero and not result.is_zero():
                    tracer.counts[name + ".nonzero"] += 1
            return result

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def close(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op_id,
                }) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds per span name of each span's duration minus the part of it
    that its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        if end is None:
            continue
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        totals[name] += (end - start - covered) / 1e9
    return dict(totals)
