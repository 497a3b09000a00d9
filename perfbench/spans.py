"""Outside-in span tracer: wraps public methods of live objects at run time.

The program under test is never edited.  :class:`Tracer` replaces a
method on one live object (an instance attribute shadows the class
method) or a function on one module with a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory in flat
integer arrays until the run ends; :meth:`Tracer.write` then saves them
and :meth:`Tracer.layer_times` turns them into per-layer self times (a span's duration minus the part of it
its child spans cover).  One thread issues every call, so spans nest
strictly and a plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

NO_PARENT = -1


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("q")
        self.span_items = array("q")  # rows/keys/records a call handled
        self.op_id = -1  # the runner sets it before each operation
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        items: Optional[Callable] = None,
    ) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``items(args, result)`` optionally returns how many rows, keys or
        records the call handled, so per-item costs can be derived.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(clock())
            self.span_end.append(0)
            self.span_parent.append(stack[-1] if stack else NO_PARENT)
            self.span_op.append(self.op_id)
            self.span_items.append(0)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                self.span_end[index] = clock()
            if items is not None:
                self.span_items[index] = items(args, result)
            return result

        shadowed = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, original, shadowed))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._undo:
            owner, attr, original, shadowed = self._undo.pop()
            if shadowed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one gzipped CSV row, in start order."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,op,name,start_ns,end_ns,items\n")
            for index in range(len(self.span_name)):
                out.write(
                    f"{index},{self.span_parent[index]},{self.span_op[index]},"
                    f"{self.names[self.span_name[index]]},"
                    f"{self.span_start[index]},{self.span_end[index]},"
                    f"{self.span_items[index]}\n"
                )

    def layer_times(
        self, first_op: int, end_op: int
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self ns, items handled.

        Only spans whose op id lies in ``[first_op, end_op)`` count, so
        the set-up phase (op id -1) and the timed phase (op ids from 0)
        can be read apart.  Self time is computed from the stored spans:
        every span's duration is charged to its parent's child time.
        """
        count = len(self.span_name)
        child_ns = [0] * count
        for index in range(count):
            parent = self.span_parent[index]
            if parent != NO_PARENT:
                child_ns[parent] += self.span_end[index] - self.span_start[index]
        out: Dict[str, Dict[str, float]] = {}
        for index in range(count):
            if not first_op <= self.span_op[index] < end_op:
                continue
            name = self.names[self.span_name[index]]
            duration = self.span_end[index] - self.span_start[index]
            row = out.setdefault(
                name, {"calls": 0, "total_ns": 0, "self_ns": 0, "items": 0}
            )
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child_ns[index]
            row["items"] += self.span_items[index]
        return out


__all__ = ["Tracer"]
