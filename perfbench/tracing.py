"""Spans around the layer functions that mine() calls.

The program has no spans of its own yet, so the tracer wraps, from the
outside, the public functions each layer exposes, exactly where the miner
looks them up:

    _kernels.count_supports, _kernels.pack_rows     kernels
    miner.evaluate                                  feasibility
    miner.reduce_database, miner.lift_results       reductions
    miner.mine_max_ffis                             miner
    io.parse_database                               io

The split of the miner's own time into candidate generation and the
maximality filter needs spans inside the program and is not measured here.
Spans stay in memory and are written out once, when the run ends.
"""

import gzip
import json
import time
from contextlib import contextmanager
from typing import NamedTuple

from maxpat import _kernels, io, miner


class Span(NamedTuple):
    op: int  # operation id: one mine() call, or one parse at set-up
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    note: dict | None  # counts taken at the boundary

    @property
    def seconds(self):
        return self.end - self.start


def _size(t):
    # a graph's size is its vertices plus its edges, anything else its length
    return len(t.vertices) + len(t.edges) if hasattr(t, "edges") else len(t)


def _count_note(args, out):
    txn, cand = args[0], args[1]
    rows = int(cand.shape[0]) * int(txn.shape[0])
    # each candidate row is ANDed word by word against every transaction row
    return {"rows": rows, "bytes": rows * int(txn.shape[1]) * txn.itemsize}


def _evaluate_note(args, out):
    return {"accepted": bool(out)}


def _reduce_note(args, out):
    return {"source_size": sum(_size(t) for t in args[1].transactions),
            "encoded_size": sum(len(t) for t in out.transactions)}


_TARGETS = (
    (_kernels, "count_supports", "kernels.count", _count_note),
    (_kernels, "pack_rows", "kernels.pack", None),
    (miner, "evaluate", "feasibility.evaluate", _evaluate_note),
    (miner, "reduce_database", "reductions.reduce", _reduce_note),
    (miner, "lift_results", "reductions.lift", None),
    (miner, "mine_max_ffis", "miner.mine_max_ffis", None),
    (io, "parse_database", "io.parse", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; children take later ones
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, note):
        self._stack.pop()
        self.spans[sid] = Span(self._op, sid, parent, name, start, end, note)

    def _wrap(self, name, fn, note):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            out, done = None, False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = time.perf_counter()
                # counts are taken after the clock stops
                info = note(args, out) if done and note is not None else None
                self._close(sid, parent, name, start, end, info)
        return traced

    @contextmanager
    def operation(self, op, name):
        """Trace one operation: install the wrappers, record the root span
        ``name`` around the body, and take the wrappers out again."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _TARGETS]
        for (mod, attr, span, note), (_, _, fn) in zip(_TARGETS, saved):
            setattr(mod, attr, self._wrap(span, fn, note))
        self._op = op
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter(), None)
            self._op = None
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.op, s.id, s.parent, s.name, s.start,
                                     s.end, s.note]) + "\n")


def self_seconds(spans):
    """Each span's duration minus the time its child spans cover."""
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - covered.get(s.id, 0.0) for s in spans}
