"""In-memory spans around the benchmark's calls into each layer.

A span records its name (the layer), start, end, the span that caused
it and the query it belongs to. Spans stay in memory while the run
measures and are written out as JSON lines when it ends. A layer's self
time is its spans' duration minus the part covered by their child spans.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["Tracer"]


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self) -> None:
        # [name, start, end, parent span index or -1, query id]
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, query: int = -1) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        if query < 0 and parent >= 0:
            query = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, query])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - covered[i]
        return dict(out)

    def self_shares(self, layers: list[str], root: str) -> dict[str, float]:
        """Each layer's self time as a share of the ``root`` spans' time."""
        self_s = self.self_seconds()
        total = sum(self.durations(root))
        return {f"self_share.{layer}": self_s[layer] / total
                for layer in layers + [root] if layer in self_s}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (name, t0, t1, parent, query) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "query": query}) + "\n")
