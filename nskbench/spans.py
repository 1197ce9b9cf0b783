"""Spans and latency probes recorded from outside the nskrt package.

Nothing under ``src/`` is edited: a probe or span replaces a public function
or method with a wrapper that reads the clock around the original call, and
the original is put back when the ``with`` block ends.  A module that
imported the function by name holds its own binding, so every binding of the
function inside the package is replaced, not only the defining one.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _bindings(fn):
    """(owner, attribute) pairs in the nskrt package that hold ``fn``."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nskrt" or name.startswith("nskrt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


@contextlib.contextmanager
def patched(replacements):
    """Install ``(owner, attribute, wrapper)`` replacements for one block.

    ``owner`` is a module whose every package binding of the attribute's
    function is replaced, or a class whose method is replaced.
    """
    undo = []
    try:
        for owner, attr, wrapper in replacements:
            original = getattr(owner, attr)
            targets = [(owner, attr)] if isinstance(owner, type) else _bindings(original)
            if not isinstance(owner, type) and (owner, attr) not in targets:
                targets.append((owner, attr))
            for obj, name in targets:
                undo.append((obj, name, getattr(obj, name)))
                setattr(obj, name, wrapper)
        yield
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)


def latency_probe(fn, starts: list, durations: list):
    """Wrapper that records the start and the wall time of every call of ``fn``."""
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(perf_counter() - t0)
            starts.append(t0)
    return timed


class Tracer:
    """In-memory span log: name, start, end and the enclosing span.

    Spans are appended to flat typed arrays rather than a list of tuples:
    a traced pass can record hundreds of thousands of spans, and tuples
    would be garbage-collector work that the untraced run does not do.
    """

    def __init__(self):
        self.names: list[str] = []       # span name by code
        self._code: dict[str, int] = {}
        self.ids = array("q")            # spans in the order they ended
        self.kinds = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._count = 0

    def wrap(self, name: str, fn):
        code = self._code.setdefault(name, len(self._code))
        if code == len(self.names):
            self.names.append(name)
        stack = self._stack
        ids, kinds, parents = self.ids.append, self.kinds.append, self.parents.append
        starts, ends = self.starts.append, self.ends.append

        def traced(*args, **kwargs):
            idx = self._count
            self._count = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ids(idx)
                kinds(code)
                parents(parent)
                starts(t0)
                ends(t1)
        return traced

    def _ordered(self):
        """(kind, parent, start, end) arrays indexed by span id."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        return (np.frombuffer(self.kinds, dtype=np.int32)[order],
                np.frombuffer(self.parents, dtype=np.int64)[order],
                np.frombuffer(self.starts)[order], np.frombuffer(self.ends)[order])

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, plus nested counts.

        Self time is a span's duration minus the durations of its direct
        child spans.  ``<name>@<ancestor>`` entries count the spans of one
        name that ran inside a span of another (for example FFTs inside a
        time step), which is how per-step and per-record ratios are formed.
        """
        kind, parent, start, end = self._ordered()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        # enclosing span names of each span as a bit set over name codes; a
        # parent has a smaller id than its children, so it is filled first
        above = np.zeros(dur.size, dtype=np.int64)
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            above[i] = above[p] | (1 << int(kind[p]))
        stats: dict[str, dict] = {}

        def add(key, sel):
            if np.any(sel):
                stats[key] = {"calls": int(np.count_nonzero(sel)),
                              "total_s": float(dur[sel].sum()),
                              "self_s": float(own[sel].sum())}

        for code, name in enumerate(self.names):
            mine = kind == code
            add(name, mine)
            for anc_code, anc in enumerate(self.names):
                add(f"{name}@{anc}", mine & ((above >> anc_code) & 1).astype(bool))
        return stats

    def write_csv(self, path) -> None:
        kind, parent, start, end = self._ordered()
        t0 = start[0] if start.size else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i in range(kind.size):
                fh.write(f"{i},{self.names[kind[i]]},{parent[i]},"
                         f"{start[i] - t0:.9f},{end[i] - t0:.9f}\n")
