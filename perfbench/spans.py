"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` patches a function under the name its callers look it
up by (a class attribute, or a module global the caller imported) with a
wrapper that records one span: ``(span id, parent span id, op id, name,
start ns, end ns)``.  Spans stay in memory while the run lasts and are
written out when it ends.  A function that no longer exists under the
patched name is reported as unmeasured instead of failing the run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Spans recorded in another process (the
shard server) are joined to the client round trip whose interval holds
them; with one client in a closed loop there is exactly one.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from common import now_ns

Span = Tuple[int, Optional[int], int, str, int, int]  # id, parent, op, name, start, end

SPAN_CAP = 2_000_000  # spans kept in memory; a longer trace is marked truncated


class Tracer:
    """In-memory span recorder for one process (not thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ops: Dict[int, str] = {}
        self.counters: Dict[Tuple[str, str], float] = {}
        self.unmeasured: Dict[str, str] = {}
        self.truncated = False
        self.active = False
        self._stack: List[int] = []
        self._op = 0  # the op running now; 0 between ops
        self._ops_started = 0
        self._next = 0
        self._restore: List[Callable[[], None]] = []

    # -------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name, measure: Optional[Callable] = None,
              label: Optional[str] = None) -> bool:
        """Wrap ``owner.attr`` in a span named ``name`` (``"layer:function"``).

        ``name`` may also be a function of ``(args, result)`` returning the
        span name; ``label`` then names the patch in counters and in the
        unmeasured list.  ``measure(args, result)`` may return a number to
        add to the current op's counter of that label (frame sizes, for
        example).
        """
        label = label or (name if isinstance(name, str) else f"{getattr(owner, '__name__', owner)}.{attr}")
        original = getattr(owner, attr, None)
        if not callable(original):
            self.unmeasured[label] = f"{getattr(owner, '__name__', owner)}.{attr} no longer exists"
            return False
        had_own = isinstance(owner, type) and attr in owner.__dict__
        raw = owner.__dict__[attr] if had_own else original
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_id = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = now_ns()
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                end = now_ns()
                tracer._stack.pop()
                span_name = name if isinstance(name, str) else name(args, result)
                tracer._record((span_id, parent, tracer._op, span_name, start, end))
            if measure is not None:
                tracer.count(label, measure(args, result))
            return result

        setattr(owner, attr, wrapper)

        def restore() -> None:
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, raw)

        self._restore.append(restore)
        return True

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------- recording

    def _record(self, span: Span) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append(span)
        else:
            self.truncated = True

    def count(self, name: str, value: float = 1) -> None:
        if self.active and value is not None:
            key = (self.ops.get(self._op, "none"), name)
            self.counters[key] = self.counters.get(key, 0) + value

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def op(self, name: str):
        """Context manager: one top-level operation (the root span)."""
        return _Op(self, name)

    # --------------------------------------------------------------- output

    def write(self, path: str, extra: Iterable[Span] = ()) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for label, reason in self.unmeasured.items():
                handle.write(json.dumps({"unmeasured": label, "reason": reason}) + "\n")
            for span in list(self.spans) + list(extra):
                span_id, parent, op, name, start, end = span
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "op_name": self.ops.get(op),
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


class _Op:
    __slots__ = ("tracer", "name", "span_id", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        if not tracer.active:
            return None
        tracer._ops_started += 1
        tracer._op = tracer._ops_started
        tracer.ops[tracer._op] = self.name
        self.span_id = tracer._next
        tracer._next += 1
        tracer._stack.append(self.span_id)
        self.start = now_ns()
        return None

    def __exit__(self, *exc):
        tracer = self.tracer
        if not tracer.active:
            return False
        end = now_ns()
        tracer._stack.pop()
        tracer._record((self.span_id, None, tracer._op, f"op:{self.name}", self.start, end))
        tracer._op = 0  # spans between ops belong to no op
        return False


# ---------------------------------------------------------------- analysis


def read_spans(path: str, first_id: int) -> Tuple[List[Span], Dict[str, str]]:
    """Spans written by another process, re-numbered from ``first_id``.

    Also returns that process's unmeasured spans, label to reason.
    """
    spans: List[Span] = []
    unmeasured: Dict[str, str] = {}
    if not os.path.exists(path):
        return spans, unmeasured
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if "unmeasured" in record:
                unmeasured[record["unmeasured"]] = record["reason"]
                continue
            spans.append((first_id + len(spans), None, 0, record["name"], record["start_ns"], record["end_ns"]))
    return spans, unmeasured


def join_remote(spans: List[Span], remote: Sequence[Span], carrier: str,
                one_way: Sequence[str] = ()) -> Tuple[List[Span], int]:
    """Attach each remote span to the local ``carrier`` span that holds it.

    Only remote spans recorded while a traced op ran are considered.  Returns
    those spans with parent and op filled in, and the number of them that no
    carrier span holds (misaligned clocks, or a second client).  ``one_way``
    names spans of requests that get no reply; they run outside any round
    trip and are left out.
    """

    def intervals(name_test):
        chosen = sorted((s for s in spans if name_test(s[3])), key=lambda s: s[4])
        return chosen, [s[4] for s in chosen]

    def holder(chosen, starts, start, end):
        index = bisect.bisect_right(starts, start) - 1
        if index >= 0 and chosen[index][5] >= end:
            return chosen[index]
        return None

    carriers, carrier_starts = intervals(lambda name: name == carrier)
    roots, root_starts = intervals(lambda name: name.startswith("op:"))
    joined: List[Span] = []
    orphans = 0
    for span_id, _, _, name, start, end in remote:
        if name in one_way or holder(roots, root_starts, start, start) is None:
            continue
        found = holder(carriers, carrier_starts, start, end)
        if found is None:
            orphans += 1
        else:
            joined.append((span_id, found[0], found[2], name, start, end))
    return joined, orphans


def self_times(spans: Sequence[Span]) -> Dict[int, Tuple[int, int]]:
    """Self time of every span, two ways.

    The first is the duration minus the union of the child intervals
    clipped to the span, which a layer reports.  The second is the duration
    minus the plain sum of child durations: it turns negative when children
    overlap or stick out of their parent, as misaligned clocks make them.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span_id, parent, _, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, Tuple[int, int]] = {}
    for span_id, _, _, _, start, end in spans:
        covered = 0
        summed = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            summed += child_end - child_start
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = ((end - start) - covered, (end - start) - summed)
    return result


def summarize(spans: Sequence[Span], ops: Dict[int, str]):
    """Per op name: count, and per span name: calls, total self ns, total ns.

    Also returns, per op, the sum of every span's self time in its tree
    divided by the op's own duration (1.0 when children nest cleanly, more
    when they overlap), and the smallest raw self time of any span.
    """
    selfs = self_times(spans)
    op_count: Dict[str, int] = {}
    per_name: Dict[Tuple[str, str], List[int]] = {}
    tree_self: Dict[int, int] = {}
    root_duration: Dict[int, int] = {}
    for span_id, parent, op, name, start, end in spans:
        op_name = ops.get(op, "none")
        value = selfs[span_id][0]
        tree_self[op] = tree_self.get(op, 0) + value
        if parent is None and name.startswith("op:"):
            op_count[op_name] = op_count.get(op_name, 0) + 1
            root_duration[op] = end - start
        slot = per_name.setdefault((op_name, name), [0, 0, 0])
        slot[0] += 1
        slot[1] += value
        slot[2] += end - start
    ratios: Dict[str, List[float]] = {}
    for op, duration in root_duration.items():
        if duration > 0:
            ratios.setdefault(ops.get(op, "none"), []).append(tree_self[op] / duration)
    minimum = min((raw for _, raw in selfs.values()), default=None)
    return op_count, per_name, ratios, minimum
