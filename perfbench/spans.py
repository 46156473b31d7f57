"""In-memory spans around public calls, and the self-time arithmetic.

The benchmark observes the program from outside: :func:`wrap` replaces a
public function or method with one that records a span around each call.
Spans stay in memory (one list per process) and are written out once, at
the end.  A span's parent is the span open in the same thread or asyncio
task when it started; work handed to another thread carries its parent
on an argument object (see ``carrier`` in :func:`wrap`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=0)
_ids = itertools.count(1)
_lock = threading.Lock()
#: Completed spans: (id, parent, name, start_s, end_s, attrs).
SPANS: list = []
#: id(object) -> (object, span id) for work that crosses a thread hop.
_links: dict = {}


def _link(obj, span_id: int) -> None:
    with _lock:
        _links[id(obj)] = (obj, span_id)


def _linked_parent(obj) -> int:
    with _lock:
        entry = _links.pop(id(obj), None)
    return entry[1] if entry is not None and entry[0] is obj else 0


def wrap(owner, attr: str, name: str, *, attrs_of=None, carrier=None) -> None:
    """Replace ``owner.attr`` with a version that records span *name*.

    ``attrs_of(args, kwargs)`` adds attributes.  ``carrier(args)`` names the
    argument that carries a parent span across a thread hop (``None`` for
    none): the span's parent is the span that argument was linked to, else
    the span open here; the return value is then linked to that same
    parent, so the work it goes on to feed keeps it.  Coroutine functions
    are wrapped as coroutine functions.
    """
    import inspect

    fn = getattr(owner, attr)

    def _enter(args, kwargs):
        parent = 0
        if carrier is not None:
            obj = carrier(args)
            parent = _linked_parent(obj) if obj is not None else 0
        parent = parent or _current.get()
        attrs = attrs_of(args, kwargs) if attrs_of is not None else {}
        sid = next(_ids)
        return sid, parent, attrs, _current.set(sid)

    def _exit(sid, parent, attrs, token, start, out):
        end = time.perf_counter()
        _current.reset(token)
        with _lock:
            SPANS.append((sid, parent, name, start, end, attrs))
        if carrier is not None and parent and out is not None:
            _link(out, parent)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid, parent, attrs, token = _enter(args, kwargs)
            start = time.perf_counter()
            out = None
            try:
                out = await fn(*args, **kwargs)
                return out
            finally:
                _exit(sid, parent, attrs, token, start, out)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, attrs, token = _enter(args, kwargs)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                _exit(sid, parent, attrs, token, start, out)

    setattr(owner, attr, wrapper)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may overlap each other (concurrent tasks under one parent);
    the covered part is the union of their intervals clipped to the
    parent, so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _attrs in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _attrs in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sid] = (end - start) - covered
    return out


def dump(path) -> None:
    """Write every recorded span to *path* as JSON lines."""
    with _lock:
        rows = list(SPANS)
    with open(path, "w") as fh:
        for sid, parent, name, start, end, attrs in rows:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "attrs": attrs}
                )
                + "\n"
            )


def load(path) -> list:
    """Inverse of :func:`dump`."""
    out = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            out.append((d["id"], d["parent"], d["name"], d["start"], d["end"], d["attrs"]))
    return out
