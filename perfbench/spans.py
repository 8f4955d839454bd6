"""Span tracing from outside the program: wrap public functions, record spans.

A `Tracer` replaces chosen module functions and class methods with wrappers
that record one span per call (name, start, end, parent span).  The spans of
one pipeline item are kept in flat arrays and reduced to per-name call counts,
total time and self time (duration minus the time covered by child spans)
once the item ends.  `installed()` puts the wrappers in place only for the
block it guards and always restores the original attributes.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self, targets):
        """`targets`: (owner, attribute, span name, result hook or None) tuples.

        The owner is a module or a class; the wrapper is installed on the owner
        named here, which must be where callers look the name up.
        """
        self.targets = list(targets)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, original, name_id: int, on_result):
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block, then restore."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, span_name, on_result in self.targets:
                original = vars(owner)[attr]
                wrapper = self._wrap(original, self._name_id(span_name), on_result)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()
            self._stack.clear()

    def take(self) -> list[tuple[int, int, str, float, float, float]]:
        """Return and forget the recorded spans.

        Each span is (id, parent id or -1, name, start, end, self seconds).
        """
        if self._stack:
            raise RuntimeError("spans still open")
        count = len(self.start)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        spans = [
            (
                sid,
                self.parent[sid],
                self.names[self.name[sid]],
                self.start[sid],
                self.end[sid],
                self.end[sid] - self.start[sid] - child[sid],
            )
            for sid in range(count)
        ]
        # the wrappers hold these arrays, so they are emptied in place
        for buf in (self.parent, self.name, self.start, self.end):
            del buf[:]
        return spans


def nearest(spans, sid: int, names) -> str | None:
    """Name of the closest strict ancestor of span `sid` that is in `names`."""
    p = spans[sid][1]
    while p >= 0:
        if spans[p][2] in names:
            return spans[p][2]
        p = spans[p][1]
    return None


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, self_s in spans:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "self_s": self_s}
                )
                + "\n"
            )
