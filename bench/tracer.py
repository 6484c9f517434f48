"""Outside-in span tracer.

Wraps functions and methods from outside the program: each call records a
span (name, start, end, parent) in flat in-memory arrays, written out once
when the run ends.  Self time is computed afterwards from the spans: a span's
duration minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        i = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args)`` runs
        outside the span once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(result, args)
            return result

        return traced

    def replace(self, owner, attribute, value) -> None:
        """Set ``owner.attribute`` (a module global or class attribute) until
        :meth:`unpatch`."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch(self, owner, attribute, name, after=None) -> None:
        """Replace ``owner.attribute`` by its traced version."""
        self.replace(owner, attribute, self.wrap(name, owner.__dict__[attribute], after))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def spans(self):
        return Spans(self.names, self.name_of, self.parent, self.start, self.end)

    def dump(self, path, meta) -> None:
        """Write ``meta`` and every span to ``path``: one JSON line, then the
        four span arrays as raw bytes."""
        head = dict(meta, names=self.names, count=len(self.start))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode("utf-8") + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


class Spans:
    def __init__(self, names, name_of, parent, start, end):
        self.names = names
        self.name_of = name_of
        self.parent = parent
        self.start = start
        self.end = end

    @classmethod
    def load(cls, path):
        """``(meta, spans)`` as written by :meth:`Tracer.dump`."""
        with open(path, "rb") as fh:
            meta = json.loads(fh.readline())
            n = meta.pop("count")
            arrays = []
            for code in ("H", "i", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        return meta, cls(meta.pop("names"), *arrays)

    def self_times(self) -> dict:
        """``{name: (calls, self seconds)}``: each span's duration minus the
        union of its children's intervals clipped to it."""
        children = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = {}
        for i, nid in enumerate(self.name_of):
            s, e = self.start[i], self.end[i]
            covered = 0.0
            reach = s
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                cs, ce = max(self.start[c], reach), min(self.end[c], e)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            calls, total = out.get(self.names[nid], (0, 0.0))
            out[self.names[nid]] = (calls + 1, total + (e - s) - covered)
        return out
