"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, run id). The layer of a span is the
part of its name before the first dot, so ``greedy.greedy_bil`` belongs to
the ``greedy`` layer. Spans stay in memory while the benchmark runs and are
written out once at the end. Durations are read from each span's
``seconds``, its time on the fast host (see ``hostclock``), which
``Tracer.close`` sets once the run is over.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def close(self, clock) -> None:
        """Set every span's ``seconds`` from its wall-clock window."""
        for rec in self.spans:
            rec["seconds"] = clock.seconds(rec["start"], rec["end"])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def subtree(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span below it."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i]["parent"] in inside:
            inside.add(i)
    return sorted(inside)


def self_times(spans, indices) -> dict[str, float]:
    """Per-layer self time over the given spans.

    A span's self time is its duration minus the durations of its direct
    children. The benchmark is single-threaded, so children never overlap
    and their durations sum to the part of the parent they cover.
    """
    child_time = [0.0] * len(spans)
    for i in indices:
        p = spans[i]["parent"]
        if p is not None:
            child_time[p] += spans[i]["seconds"]
    out: dict[str, float] = {}
    for i in indices:
        s = spans[i]
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + s["seconds"] - child_time[i]
    return out


def total_time(spans, indices, names) -> tuple[float, int]:
    """Summed duration and count of the spans with one of ``names``."""
    total, count = 0.0, 0
    for i in indices:
        s = spans[i]
        if s["name"] in names:
            total += s["seconds"]
            count += 1
    return total, count


def durations_ms(spans, indices, name) -> list[float]:
    return [spans[i]["seconds"] * 1000.0 for i in indices if spans[i]["name"] == name]
