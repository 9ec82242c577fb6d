"""Outside-in span tracer for the exchtensor benchmark.

The tracer wraps public functions of the exchtensor modules for the
duration of a traced run.  Modules import each other's functions by
name (``from .autodiff import forward``), so wrapping only the defining
module would miss most calls; ``install`` therefore replaces every
reference to a target function object in every loaded ``exchtensor``
module and restores the originals on exit.  Spans (name, start, end,
parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    children_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Records nested spans; callers open spans with ``span`` or by
    calling functions that ``install`` wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += rec.duration

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(span, args, kwargs, result)``
        attaches counts to the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                note(rec, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self, targets, callers=("workloads",)):
        """Wrap each ``(module, attribute, span name, note)`` target in
        every exchtensor module, and in each module named in ``callers``,
        that holds a reference to it."""
        originals = {}
        for module_name, attr, name, note in targets:
            fn = getattr(sys.modules[module_name], attr)
            originals[id(fn)] = (fn, self.wrap(fn, name, note))
        patched = []
        for module_name, module in list(sys.modules.items()):
            if not (module_name in callers or module_name == "exchtensor"
                    or module_name.startswith("exchtensor.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name and s.parent is None]

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans below ``root`` (spans are stored in start
        order, so a subtree is a contiguous run after its root)."""
        out = []
        end = self.spans[root].end
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].start > end:
                break
            out.append(i)
        return out

    def parent_name(self, idx: int) -> str | None:
        p = self.spans[idx].parent
        return None if p is None else self.spans[p].name

    def table(self, indices) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in indices:
            s = self.spans[i]
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.self_s
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": s.self_s, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
