"""Span recording from outside the program.

The traced run replaces chosen module attributes — the names the
program's own callers resolve at call time — with thin wrappers that
record one span per call: ``(id, name, start, end, parent, request id,
work)``.  Spans stay in memory and are written out when the run ends.
Nothing inside ``src/`` is edited; :meth:`Tracer.restore` puts every
original attribute back.

A layer's self time is its spans' duration minus the part covered by
child spans on the same thread.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def root_start(self) -> float | None:
        """Start time of the outermost open span on this thread."""
        stack = self._stack()
        return stack[0][1] if stack else None

    def _open(self) -> tuple[int, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        t0 = time.perf_counter()
        stack.append((sid, t0))
        return sid, parent, t0

    def _close(self, opened, name: str, rid=None, work: float = 0.0) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        sid, parent, t0 = opened
        self.spans.append((sid, name, t0, t1, parent, rid, work))

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span (the benchmark's roots)."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    def _wrapper(self, fn, name: str, work, rid):
        tracer = self

        def traced(*args, **kwargs):
            opened = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(
                    opened, name,
                    rid(args, kwargs) if rid is not None else None,
                    work(args, kwargs) if work is not None else 0.0)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, specs) -> None:
        """Wrap every ``(target, name, work, rid)`` spec.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``;
        ``work(args, kwargs)`` returns the units of work one call does
        (nonzeros, bytes, ...) and ``rid(args, kwargs)`` a request id.
        """
        for target, name, work, rid in specs:
            mod_name, attr_path = target.split(":")
            owner = importlib.import_module(mod_name)
            *parents, attr = attr_path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            if isinstance(owner, type):
                had = attr in vars(owner)
                raw = vars(owner)[attr] if had else getattr(owner, attr)
            else:
                had, raw = True, getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name, work, rid))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(raw.__func__, name, work, rid))
            else:
                new = self._wrapper(raw, name, work, rid)
            setattr(owner, attr, new)
            self._patches.append((owner, attr, raw, had))

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        for owner, attr, raw, had in reversed(self._patches):
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def under_roots(self, roots) -> list[tuple]:
        """Spans that are, or descend from, a span named in *roots*."""
        by_id = {s[0]: s for s in self.spans}
        memo: dict[int, bool] = {}

        def inside(sid: int) -> bool:
            chain = []
            ok = False
            while sid:
                if sid in memo:
                    ok = memo[sid]
                    break
                chain.append(sid)
                s = by_id.get(sid)
                if s is None:  # parent still open: not a completed root
                    break
                if s[1] in roots:
                    ok = True
                    break
                sid = s[4]
            for c in chain:
                memo[c] = ok
            return ok

        return [s for s in self.spans if inside(s[0])]

    def layer_table(self, spans) -> dict[str, dict]:
        """name -> calls, total seconds, self seconds, summed work."""
        child = defaultdict(float)
        for s in spans:
            if s[4]:
                child[s[4]] += s[3] - s[2]
        out: dict[str, dict] = {}
        for sid, name, t0, t1, _parent, _rid, work in spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "work": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[sid]
            row["work"] += work
        return out

    def coverage(self, spans, roots, exclude=()) -> tuple[float, float]:
        """(root wall seconds, share of it inside named child layers).

        Spans named in *exclude* (the benchmark's own work inside a root)
        count neither as wall nor as named layers."""
        table = self.layer_table(spans)
        wall = sum(table[r]["total_s"] for r in roots if r in table)
        wall -= sum(table[e]["total_s"] for e in exclude if e in table)
        unnamed = sum(table[r]["self_s"] for r in roots if r in table)
        return wall, (1.0 - unnamed / wall) if wall > 0 else 0.0

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\twork\n")
            for s in self.spans:
                fh.write("\t".join(str(v) for v in s) + "\n")


def self_time_report(table: dict, wall: float) -> list[str]:
    """Per-layer rows sorted by self time, as share of the timed wall."""
    lines = [f"{'layer':40s} {'calls':>8s} {'total ms':>11s} "
             f"{'self ms':>11s} {'self %':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(f"{name:40s} {row['calls']:8d} "
                     f"{row['total_s'] * 1e3:11.1f} "
                     f"{row['self_s'] * 1e3:11.1f} {share:7.2f}")
    return lines
