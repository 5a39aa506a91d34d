"""In-memory spans and counters for the benchmark's traced run.

Spans nest through a stack, so a span's children never overlap and a span's
self time is its duration minus the summed durations of its direct children.
Book-keeping that the program itself does not do (counting route
combinations, sizing an LP) runs inside ``untimed()``: it is recorded as a
child span named ``untimed`` so that it is excluded from every parent's self
time and from the traced total.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import defaultdict

UNTIMED = "untimed"


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.round = 0
        self.spans: list[dict] = []
        self.counters: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "run": self.run_id,
                    "round": self.round,
                }
            )

    def untimed(self):
        return self.span(UNTIMED)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name][self.round] += value

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        child_s: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child_s[s["id"]] for s in self.spans}

    def round_sums(self, rnd: int) -> tuple[dict[str, float], dict[str, float]]:
        """(total duration, total self time) per span name within one round."""
        selfs = self.self_times()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["round"] == rnd:
                total[s["name"]] += s["end"] - s["start"]
                own[s["name"]] += selfs[s["id"]]
        return total, own

    def round_total(self, rnd: int) -> float:
        """Wall time of the round's root spans, less the untimed book-keeping."""
        roots = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["round"] == rnd and s["parent"] is None and s["name"] != UNTIMED
        )
        untimed = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["round"] == rnd and s["name"] == UNTIMED
        )
        return roots - untimed

    def dump(self) -> dict:
        selfs = self.self_times()
        t0 = min((s["start"] for s in self.spans), default=0.0)
        spans = [
            dict(s, start=s["start"] - t0, end=s["end"] - t0, self_s=selfs[s["id"]])
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        counters = {k: dict(v) for k, v in self.counters.items()}
        return {"run": self.run_id, "spans": spans, "counters": counters}


class NullTracer:
    """Stands in for a Tracer when nothing is recorded."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def untimed(self):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1.0) -> None:
        pass
