"""Span tracing of weakdev's layers, installed from outside the package.

A Tracer rebinds public names in the modules that call them (for example
``weakdev.harness.per_rep_sums``) to wrappers that record one span per call:
(id, name, layer, start, end, parent id, thread id).  The current span is a
context variable, and the estimation module's thread pool is rebound to one
that runs each task in the submitting thread's context, so spans opened on
pool threads get the span that fanned them out as parent.  Spans stay in
memory until the run ends.

Self time is wall-clock attribution: every instant of a root span is shared
equally among the spans open at that instant that have no open child, on any
thread.  The self times of all spans therefore add up to the root spans'
total duration, also when two pool threads run children side by side.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks inherit the submitter's current span."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, name, layer, t0, t1, parent, threading.get_ident()))

    def wrap(self, fn, name: str, layer: str, label=None):
        """fn recording one span per call; label(*args) suffixes the name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args)}"
            return self.span(span_name, layer, fn, *args, **kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, targets, pools=()) -> None:
        """targets: (owner, attr, span name, layer[, label]) tuples."""
        for owner, attr, name, layer, *label in targets:
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name, layer, *label))
        for owner in pools:
            self.patch(owner, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip CSV: id,name,layer,start_s,end_s,parent,thread."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,layer,start_s,end_s,parent,thread\n")
            for sid, name, layer, t0, t1, parent, tid in sorted(self.spans):
                fh.write(f"{sid},{name},{layer},{t0!r},{t1!r},{parent or ''},{tid}\n")


def self_times(spans) -> dict[int, float]:
    """Wall-clock self time per span id (see the module docstring)."""
    parent_of = {s[0]: s[5] for s in spans}
    events = []
    for sid, _name, _layer, t0, t1, _parent, _tid in spans:
        events.append((t0, 1, sid))
        events.append((t1, 0, sid))  # ends sort before starts at equal times
    events.sort()
    active: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    leaves: set[int] = set()
    out: dict[int, float] = defaultdict(float)
    prev = None
    for t, is_start, sid in events:
        if prev is not None and leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = t
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for t0, t1 in sorted(intervals):
        if reach is None or t0 > reach:
            total += t1 - t0
            reach = t1
        elif t1 > reach:
            total += t1 - reach
            reach = t1
    return total
