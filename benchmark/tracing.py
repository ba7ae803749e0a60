"""Spans recorded around the benchmark's calls into the library.

A span is (name, start, end, parent span index, operation id); spans live
in memory and are written out when the run ends.  Operation spans are
named ``op`` and have the library call as their child; set-up calls hang
under a ``setup`` span and carry no operation id.  A span's self time is
its duration minus the time its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []

    def begin(self, name: str, parent: int | None = None, op_id: int | None = None) -> int:
        self.spans.append([name, clock(), None, parent, op_id])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()

    def call(self, name: str, fn, *args, parent: int | None = None):
        index = self.begin(name, parent)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def layer_times(self) -> dict:
        """name -> [calls, busy seconds, self seconds], split by whether
        the span belongs to set-up (no operation id) or to the timed phase."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {"setup": defaultdict(lambda: [0, 0.0, 0.0]),
               "timed": defaultdict(lambda: [0, 0.0, 0.0])}
        for i, (name, start, end, parent, op_id) in enumerate(self.spans):
            root = i if parent is None else parent
            phase = "setup" if self.spans[root][4] is None else "timed"
            row = out[phase][name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top_id\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op_id}\n")
