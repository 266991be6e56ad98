"""In-memory span recording for the traced run.

The bench wraps public methods of the library's classes (see
``layers.PATCHES``) while a traced trial runs; nothing inside the
library changes.  Each call through a wrapper becomes one span:
``(id, parent, name, start, end, request, thread, pid)``.  Spans stay in
memory and are written out when the run ends.

Parenting:

* the caller's current span lives in a :class:`contextvars.ContextVar`,
  so interleaved asyncio tasks on one thread each see their own parent;
* threads with no current span (the shard seal pool, the gateway's seal
  executor) fall back to the *ambient* span, which the sealing-round
  wrapper publishes while it runs — so a shard's ``append_blocks`` on a
  pool thread is a child of the round that submitted it;
* spans from another process (the gateway server child) are adopted
  after the run by :func:`adopt_orphans`.

A span's self time is its duration minus the part of its interval that
its children cover; children may overlap each other (the seal pool), so
the covered part is the union of their intervals
(:func:`exposed_intervals` keeps what is left).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    request: str | None
    thread: int
    pid: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


HookT = Callable[["SpanRecorder", tuple, Any], None]


class SpanRecorder:
    """Thread-safe span sink plus the counters wrapper hooks feed."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.request: str | None = None
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._ambient: int | None = None
        self._lock = threading.Lock()
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}

    # -- counters fed by hooks and by the workloads -----------------------
    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def note_max(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(key, float("-inf")):
                self.maxima[key] = value

    # -- span plumbing ------------------------------------------------------
    def _new_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def _parent(self, use_ambient: bool) -> int | None:
        parent = self._current.get()
        if parent is None and use_ambient:
            parent = self._ambient
        return parent

    def _emit(self, sid: int, parent: int | None, name: str,
              t0: float, t1: float, request: str | None) -> Span:
        span = Span(sid, parent, name, t0, t1, request,
                    threading.get_ident(), self.pid)
        self.spans.append(span)
        return span

    def span(self, name: str, request: str | None = None):
        """Context manager for a span opened by the bench itself."""
        return _BenchSpan(self, name, request)

    def wrap(self, fn: Callable, name: str, hook: HookT | None = None,
             publishes_ambient: bool = False,
             request_of: Callable[[tuple], str] | None = None) -> Callable:
        """Wrap ``fn`` (plain, coroutine or generator function)."""
        rec = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                # An async handler starts its own request: never adopt
                # whatever the sealing thread is publishing.
                parent = rec._current.get()
                sid = rec._new_id()
                request = request_of(args) if request_of else rec.request
                token = rec._current.set(sid)
                t0 = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    rec._current.reset(token)
                    rec._emit(sid, parent, name, t0, t1, request)
                if hook is not None:
                    hook(rec, args, result)
                return result
            return async_wrapper

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                parent = rec._parent(True)
                sid = rec._new_id()
                request = rec.request
                t0 = time.perf_counter()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    rec._emit(sid, parent, name, t0, time.perf_counter(),
                              request)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._parent(True)
            sid = rec._new_id()
            request = rec.request
            token = rec._current.set(sid)
            if publishes_ambient:
                previous, rec._ambient = rec._ambient, sid
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if publishes_ambient:
                    rec._ambient = previous
                rec._current.reset(token)
                rec._emit(sid, parent, name, t0, t1, request)
            if hook is not None:
                hook(rec, args, result)
            return result
        return wrapper


class _BenchSpan:
    __slots__ = ("rec", "name", "request", "sid", "parent", "token", "t0",
                 "span")

    def __init__(self, rec: SpanRecorder, name: str,
                 request: str | None) -> None:
        self.rec = rec
        self.name = name
        self.request = request

    def __enter__(self) -> "_BenchSpan":
        rec = self.rec
        self.parent = rec._current.get()
        self.sid = rec._new_id()
        self.token = rec._current.set(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.rec._current.reset(self.token)
        self.span = self.rec._emit(
            self.sid, self.parent, self.name, self.t0, t1,
            self.request if self.request is not None else self.rec.request)


class Patcher:
    """Context manager: wrappers on the library's classes while it is
    entered, the originals restored when it exits.  ``patches`` holds
    ``(class, method, span name[, wrapper options])`` entries."""

    def __init__(self, rec: SpanRecorder, patches: Iterable[tuple]) -> None:
        self.rec = rec
        self.patches = list(patches)
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "Patcher":
        for cls, attr, name, *extra in self.patches:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.rec.wrap(original, name,
                                             **(extra[0] if extra else {})))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)


def dump_spans(spans: Iterable[Span], path: str) -> None:
    """Write spans as one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def adopt_orphans(spans: list[Span], root: Span) -> list[Span]:
    """Give parentless spans a parent: the shortest span of another
    process with the same request id that contains them, else ``root``
    when it contains them.  Spans outside the root stay orphans."""
    # Indexed by request, then pid, so that the orphans of a
    # single-process run scan no spans at all.
    by_request: dict[str, dict[int, list[Span]]] = defaultdict(
        lambda: defaultdict(list))
    for s in spans:
        if s.request is not None:
            by_request[s.request][s.pid].append(s)
    out = []
    for s in spans:
        if s.parent is None and s.sid != root.sid:
            pids = by_request.get(s.request, {})
            holders = [h for pid, hs in pids.items() if pid != s.pid
                       for h in hs
                       if h.start <= s.start and s.end <= h.end]
            if holders:
                s = s._replace(parent=min(holders,
                                          key=lambda h: h.duration).sid)
            elif root.start <= s.start and s.end <= root.end:
                s = s._replace(parent=root.sid)
        out.append(s)
    return out


def descendants(spans: list[Span], root_sid: int) -> list[Span]:
    """``root_sid``'s span and everything under it."""
    kids: dict[int, list[Span]] = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s.sid] = s
        if s.parent is not None:
            kids[s.parent].append(s)
    out, stack = [], [root_sid]
    while stack:
        sid = stack.pop()
        if sid in by_id:
            out.append(by_id[sid])
        stack.extend(k.sid for k in kids.get(sid, ()))
    return out


def exposed_intervals(spans: list[Span]) -> dict[int, list[tuple]]:
    """Span id -> the parts of its interval no child covers (their total
    length is the span's self time)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        gaps, cursor = [], s.start
        for a, b in sorted(children.get(s.sid, ())):
            if a > cursor:
                gaps.append((cursor, min(a, s.end)))
            cursor = max(cursor, b)
            if cursor >= s.end:
                break
        if cursor < s.end:
            gaps.append((cursor, s.end))
        out[s.sid] = [(a, b) for a, b in gaps if b > a]
    return out


def account(spans: list[Span], root: Span) -> dict:
    """Split ``root``'s wall time across layers.

    At each instant the spans exposed then (active, with no active
    child) share that instant equally — so work running in parallel on
    the seal pool, or in the server process, splits the wall it shared.
    The root's exposed time is the part of the measured region no layer
    span covers: the bench loop plus library calls the bench does not
    wrap, the *unattributed* share.  Identity: the layer shares plus
    the unattributed share sum to 1.  ``parallelism`` is the summed
    self time over the wall: how many spans were busy on average.
    """
    tree = descendants(spans, root.sid)
    exposed = exposed_intervals(tree)
    layer_of = {s.sid: s.layer for s in tree}
    events = sorted((t, kind, sid) for sid, gaps in exposed.items()
                    for a, b in gaps for t, kind in ((a, 1), (b, 0)))
    attributed: dict[int, float] = defaultdict(float)
    active: set[int] = set()
    last = root.start
    for t, kind, sid in events:
        if active and t > last:
            share = (t - last) / len(active)
            for a in active:
                attributed[a] += share
        last = t
        if kind:
            active.add(sid)
        else:
            active.discard(sid)
    by_layer: dict[str, float] = defaultdict(float)
    for sid, value in attributed.items():
        if sid != root.sid:
            by_layer[layer_of[sid]] += value
    self_total = sum(b - a for gaps in exposed.values() for a, b in gaps)
    return {
        "wall_s": root.duration,
        "layer_s": dict(by_layer),
        "unattributed_s": attributed.get(root.sid, 0.0),
        "self_total_s": self_total,
    }
