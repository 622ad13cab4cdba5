"""In-memory span recorder and the wrappers that feed it.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start and end (``perf_counter_ns``), the span that was open on the
same thread when it started (its parent), and a request id inherited from
the parent unless the wrapper supplies one.  Spans live in flat
``array`` columns (40 bytes per span) and are written out only when the
run ends.

The benchmark never edits the program: :meth:`Tracer.wrap_method` and
:meth:`Tracer.wrap_function` replace a class attribute or a module-level
function from outside, and :meth:`Tracer.uninstall` puts every original
back.  A function is rebound in every loaded ``repro`` module that
imported it by name, so ``from x import f`` call sites are traced too.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Request id of a span that belongs to no request.
NO_ID = -1


class Tracer:
    """Spans in memory, self time on demand."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid = array("q")
        #: Free-form counters wrappers add to (plan outcomes, frames).
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def name_index(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, rid: Optional[int] = None) -> int:
        """Start a span on this thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else NO_ID
        with self._lock:
            index = len(self.start)
            if rid is None:
                rid = self.rid[parent] if parent != NO_ID else NO_ID
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.rid.append(rid)
            self.end.append(0)
            self.start.append(self.clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack().pop()

    def add(self, counter: str, value: float = 1) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + value

    def record(self, name: str, start: int, end: int, parent: int = NO_ID,
               rid: int = NO_ID) -> int:
        """Append a finished span directly (tests build span trees so)."""
        with self._lock:
            index = len(self.start)
            self.name_id.append(self.name_index(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent)
            self.rid.append(rid)
        return index

    def __len__(self) -> int:
        return len(self.start)

    # -- wrapping ------------------------------------------------------------

    def traced(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[Callable[..., Optional[int]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span named ``name``.

        ``rid_of(*args, **kwargs)`` supplies the span's request id;
        ``after(result, *args, **kwargs)`` runs once the call returned
        and the span closed, so its cost lands in the parent's self time.
        """
        name_id = self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            index = tracer.open(name_id, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Trace ``cls.attr`` for every instance, existing or future."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.traced(original, name, **options))

    def wrap_function(self, module: Any, attr: str, name: str,
                      **options) -> None:
        """Trace ``module.attr`` and every ``repro`` alias of it."""
        original = getattr(module, attr)
        wrapped = self.traced(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self) -> List[int]:
        """Each span's duration minus the time its child spans cover."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for index, parent in enumerate(self.parent):
            if parent != NO_ID:
                own[parent] -= duration[index]
        return own

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``self_ns`` and ``total_ns``."""
        own = self.self_times_ns()
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_ns": 0, "total_ns": 0}
            for name in self.names
        }
        names = self.names
        for index, name_id in enumerate(self.name_id):
            row = out[names[name_id]]
            row["calls"] += 1
            row["self_ns"] += own[index]
            row["total_ns"] += self.end[index] - self.start[index]
        return out

    def spans_named(self, name: str) -> List[int]:
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [i for i, n in enumerate(self.name_id) if n == name_id]

    # -- persistence ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw columns."""
        header = {"names": self.names, "spans": len(self),
                  "counts": self.counts}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_id, self.start, self.end, self.parent,
                           self.rid):
                column.tofile(out)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as src:
            header = json.loads(src.readline())
            n = header["spans"]
            for name in header["names"]:
                tracer.name_index(name)
            for column in (tracer.name_id, tracer.start, tracer.end,
                           tracer.parent, tracer.rid):
                column.fromfile(src, n)
        tracer.counts = dict(header["counts"])
        return tracer


def merge_summaries(
    summaries: Sequence[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Add per-name rows across processes (client + daemon)."""
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            into = merged.setdefault(
                name, {"calls": 0, "self_ns": 0, "total_ns": 0}
            )
            for key in into:
                into[key] += row[key]
    return merged
