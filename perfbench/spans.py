"""In-memory span recorder for the traced run.

A span is a named interval on the perf_counter clock with the id of the
span that encloses it. Spans stay in memory while the run works and are
written out as JSON lines at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []
        self._origin = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; attrs are stored with it."""
        record = {"id": len(self.records), "parent": self._open[-1] if self._open else None,
                  "name": name, "start": perf_counter() - self._origin, "end": None}
        record.update(attrs)
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self._origin
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
