"""In-memory span recorder and the patching that feeds it, from outside the package.

A span is ``(name, start, end, parent, extra)``.  Spans stay in memory while
the run goes on and are written out once, when it ends.  A span's self time
is its duration minus the part of its interval that its children cover.

The package imports with ``from .x import y``, so a function lives under
several names: ``spikesam.optim.backward`` and ``spikesam.gradients.backward``
are the same object.  :class:`Tracer` therefore patches every binding of a
traced function in every loaded ``spikesam`` module, and puts each name back
when it exits.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

NAME, START, END, PARENT, EXTRA = range(5)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval."""
    return (end - start) - covered(start, end, children)


class SpanRecorder:
    """Spans of one run, with the parent of each taken from the open-span stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, extra: Any = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")
        self._stack.pop()
        self.spans[idx][END] = self.clock()
        if extra is not None:
            self.spans[idx][EXTRA] = extra

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.spans]
        for idx, sp in enumerate(self.spans):
            if sp[PARENT] >= 0:
                out[sp[PARENT]].append(idx)
        return out

    def roots(self) -> list[int]:
        """Index of each span's top-level ancestor."""
        out: list[int] = []
        for idx, sp in enumerate(self.spans):
            out.append(idx if sp[PARENT] < 0 else out[sp[PARENT]])
        return out

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"], "spans": self.spans}, fh)


class _Span:
    def __init__(self, rec: SpanRecorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self) -> int:
        self.idx = self.rec.open(self.name)
        return self.idx

    def __exit__(self, *exc: object) -> None:
        self.rec.close(self.idx)


@dataclass(frozen=True)
class Target:
    """One traced callable: where it is defined and how to label its span.

    ``label`` is a span name, or a function of the call's ``(args, kwargs)``
    that returns one.  ``annotate`` maps ``(args, kwargs, result)`` to the
    value stored in the span's ``extra`` field.
    """

    owner: Any  # a module or a class
    attr: str
    label: str | Callable[[tuple, dict], str]
    annotate: Callable[[tuple, dict, Any], Any] | None = None


def _wrap(fn: Callable, target: Target, rec: SpanRecorder) -> Callable:
    label, annotate = target.label, target.annotate

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(label if isinstance(label, str) else label(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            raise
        rec.close(idx, annotate(args, kwargs, result) if annotate else None)
        return result

    return traced


class Tracer:
    """Patch every binding of the targets in the ``spikesam`` modules; restore on exit."""

    def __init__(self, rec: SpanRecorder, targets: Sequence[Target]):
        self.rec = rec
        self.targets = targets
        self._saved: list[tuple[Any, str, Any]] = []

    @staticmethod
    def _modules() -> list[Any]:
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "spikesam" or name.startswith("spikesam."))
        ]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        try:
            for target in self.targets:
                original = target.owner.__dict__[target.attr]
                wrapped = _wrap(original, target, self.rec)
                owners = [target.owner] if isinstance(target.owner, type) else modules
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._saved.append((owner, attr, value))
                            setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc: object) -> None:
        self.restore()
