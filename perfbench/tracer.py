"""In-memory spans and counters recorded around calls into the library.

The tracer wraps public functions from outside the program: `patch` replaces
a function in every loaded ``synthface`` module that holds it (a function
imported with ``from .render import rasterize`` lives on in ``datagen`` too),
and `unpatch` puts every original back.

A span is (id, parent, name, start, end, run, op, pid): `run` names the
benchmark run and `op` the operation in it that the span served.
Timestamps come from ``time.perf_counter``, the system-wide monotonic clock
on Linux, so spans from forked worker processes line up with the parent's.  A forked worker
inherits the tracer: its first record drops the inherited ones, and each
time one of its outermost spans closes it appends its records to a spool
file, which the parent merges with `collect`.

The tracer's own time (naming a span, counting after the call, spooling)
lies outside the span it serves but inside the enclosing one.  Each span
records it as `tail_s`, so that `self_times` and `net_durations` can leave
it out of the enclosing span and `overhead_s` adds it up.  A spool's time
goes into the `tail_s` of the worker's next outermost span; the last spool
of each worker process is not measured.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, run_id: str, spool_dir: str | None = None):
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.overhead_s = 0.0     # wrapper bookkeeping outside the wrapped calls
        self.op = None
        self._stack: list[tuple[str, str]] = []    # open (id, name)
        self._next = 0
        self._pid = os.getpid()
        self._base_depth = 0      # stack depth inherited from the parent process
        self._spool_s = 0.0       # the last spool, not yet charged to a span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _local(self) -> None:
        """Start afresh in a forked child: the inherited records are the parent's."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans, self.counters, self.overhead_s = [], Counter(), 0.0
            self._base_depth = len(self._stack)
            self._spool_s = 0.0

    def _open(self, name: str) -> str:
        self._local()
        self._next += 1
        sid = f"{self._pid}.{self._next}"
        self._stack.append((sid, name))
        return sid

    def _close(self, sid: str, name: str, entered: float, start: float,
               end: float) -> None:
        self._stack.pop()
        outermost = bool(self._base_depth) and len(self._stack) == self._base_depth
        tail = (start - entered) + (time.perf_counter() - end)
        if outermost:
            tail, self._spool_s = tail + self._spool_s, 0.0
        self.overhead_s += tail
        self.spans.append({"id": sid,
                           "parent": self._stack[-1][0] if self._stack else None,
                           "name": name, "start": start, "end": end, "tail_s": tail,
                           "run": self.run_id, "op": self.op, "pid": self._pid})
        if outermost:
            spooled = time.perf_counter()
            self._spool()
            self._spool_s = time.perf_counter() - spooled

    def _records(self) -> dict:
        return {"run": self.run_id, "spans": self.spans,
                "counters": dict(self.counters), "overhead_s": self.overhead_s}

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(self._records()) + "\n")
        self.spans, self.counters, self.overhead_s = [], Counter(), 0.0

    def collect(self) -> None:
        """Merge and delete the spool files written by forked workers."""
        if not self.spool_dir:
            return
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path) as f:
                for line in f:
                    rec = json.loads(line)
                    self.spans.extend(rec["spans"])
                    self.counters.update(rec["counters"])
                    self.overhead_s += rec["overhead_s"]
            os.remove(path)

    def write(self, path: str) -> None:
        """Write every span and counter out, once the run has ended."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self._records(), f)

    def count(self, name: str, n=1) -> None:
        self._local()
        self.counters[name] += n

    def inside(self, name: str) -> bool:
        """Whether a span called `name` is open in this process."""
        return any(open_name == name for _, open_name in self._stack)

    # -- wrapping and patching ----------------------------------------------

    def wrap(self, fn, name, after=None):
        """Return a traced stand-in for `fn`.

        `name` is a string, or a function of (args, kwargs) giving one.
        `after(args, kwargs, result)` runs outside the timed span, for
        counters, and its time goes into the span's `tail_s`; it must not
        call traced functions.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            label = name(args, kwargs) if callable(name) else name
            sid = self._open(label)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, label, entered, start, time.perf_counter())
                raise
            end = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            self._close(sid, label, entered, start, end)
            return result
        return traced

    def patch(self, fn, stand_in) -> int:
        """Replace `fn` by `stand_in` in every loaded synthface module."""
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "synthface"
                                   or mod_name.startswith("synthface.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, stand_in)
                    hits += 1
        if not hits:
            raise LookupError(f"no synthface module holds {fn.__qualname__}")
        return hits

    def patch_attr(self, owner, attr: str, stand_in) -> None:
        """Replace one attribute, such as a method on a class."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, stand_in)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic

def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _children(spans) -> dict:
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return children


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover and
    minus the tracer's own time around the children of its process."""
    children = _children(spans)
    out = {}
    for s in spans:
        kids = children.get(s["id"], ())
        covered = covered_length(
            (a, b) for a, b in ((max(c["start"], s["start"]), min(c["end"], s["end"]))
                                for c in kids) if b > a)
        tails = sum(c.get("tail_s", 0.0) for c in kids if c["pid"] == s["pid"])
        out[s["id"]] = max(0.0, (s["end"] - s["start"]) - covered - tails)
    return out


def net_durations(spans) -> dict:
    """Span id -> duration minus the tracer's own time inside it: the
    `tail_s` of every descendant in the same process."""
    children = _children(spans)
    hidden: dict = {}

    def inside(s) -> float:
        if s["id"] not in hidden:
            hidden[s["id"]] = sum(c.get("tail_s", 0.0) + inside(c)
                                  for c in children.get(s["id"], ())
                                  if c["pid"] == s["pid"])
        return hidden[s["id"]]

    return {s["id"]: (s["end"] - s["start"]) - inside(s) for s in spans}


def tail_rank(n: int, beyond: int = 10):
    """Highest percentile of n samples with at least `beyond` samples above it.

    Returns (0-based index into the sorted samples, percentile), or None
    when n is too small to leave `beyond` samples above any of them.
    """
    if n <= beyond:
        return None
    return n - beyond - 1, 100.0 * (n - beyond) / n
