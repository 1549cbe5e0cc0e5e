"""In-memory spans recorded around the benchmark's calls into each layer.

A span holds its name, start and end (``time.perf_counter`` seconds), the
id of the span that caused it and the run id shared by every span of one
traced run.  ``group`` says which repetition the span belongs to (a pass
number, or a probe repetition), so a metric is the median over groups of
the summed span time within each group.  Spans stay in memory until
``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, group: int = 0, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "group": group,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def metric(self, name: str) -> float | None:
        """Median over groups of the total time of the spans called ``name``."""
        per_group: dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and s["end"] is not None:
                per_group[s["group"]] = per_group.get(s["group"], 0.0) + s["end"] - s["start"]
        return statistics.median(per_group.values()) if per_group else None

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span_cost_us(samples: int = 20000) -> float:
    """Measured cost of opening and closing one span, in microseconds."""
    tr = Tracer("cost")
    t0 = time.perf_counter()
    for _ in range(samples):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / samples * 1e6
