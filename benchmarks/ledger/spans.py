"""In-memory spans recorded by the benchmark around its calls into a layer.

A span is ``{name, start, end, parent, trace}``: one trace id per op, the
parent is the enclosing span's index.  Spans stay in memory and are
written out once, when the run ends.  A disabled tracer records nothing,
so the untraced run that produces the end-to-end numbers pays one
attribute test per span site.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

__all__ = ["Tracer"]


class Tracer:
    """Collects spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        #: seconds spent in this class's own bookkeeping (the cost of looking).
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: Any = None) -> Iterator[None]:
        """Time the enclosed block as a child of the currently open span."""
        if not self.enabled:
            yield
            return
        entered = time.perf_counter()
        parent: Optional[int] = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "trace": trace}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.overhead_s += record["start"] - entered + time.perf_counter() - record["end"]

    def self_times(self) -> dict[str, float]:
        """Per span name, total self time: duration minus the children's."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans, "self_time_s": self.self_times()}))
