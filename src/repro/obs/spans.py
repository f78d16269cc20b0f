"""Nested span tracing on the virtual clock.

A span is a named interval of virtual time with attributes and
children; the tree of spans is the *phase breakdown* the paper's
Figs. 16-18 are made of (quiesce / copy / drain / recopy / ...).

Nesting is tracked **per simulation process**: the engine exposes the
process currently stepping (``engine._active_process``), and each
process gets its own span stack.  A span opened by the checkpoint
orchestrator therefore never accidentally becomes the parent of a span
opened by a concurrently-running application stream — the classic
failure mode of a single global stack under a discrete-event scheduler.
Spans opened outside any process (engine callbacks, test code) share
one anonymous stack.

Spans work as context managers and stay valid across ``yield``::

    with obs.span("checkpoint/cow", image=image.name):
        with obs.span("quiesce"):
            yield from quiesce(...)

For stalls whose extent is only known after the fact, ``record()``
creates an already-closed span retroactively.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import SimulationError


class SpanNode:
    """One labelled interval in the phase tree."""

    __slots__ = ("name", "start", "end", "attrs", "children", "_path")

    def __init__(self, name: str, start: float,
                 parent: Optional["SpanNode"] = None,
                 attrs: Optional[dict] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[SpanNode] = []
        # A parent owns its children; a child keeps only the path it
        # was opened under, so a tree is freed without the collector.
        self._path = name if parent is None else f"{parent._path}/{name}"

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise SimulationError(f"span {self.name!r} is still open")
        return self.end - self.start

    def path(self) -> str:
        """Slash-joined names from the root down to this span."""
        return self._path

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": (None if self.end is None else self.duration),
            "attrs": self.attrs,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6g}s"
        return f"SpanNode({self.path()!r}, {state})"


class _SpanContext:
    """Context-manager handle for one span (usable across yields)."""

    __slots__ = ("_spans", "_name", "_attrs", "_parent", "node")

    def __init__(self, spans: "SpanTracer", name: str,
                 parent: Optional[SpanNode], attrs: dict) -> None:
        self._spans = spans
        self._name = name
        self._attrs = attrs
        self._parent = parent
        self.node: Optional[SpanNode] = None

    def __enter__(self) -> SpanNode:
        self.node = self._spans.begin(self._name, parent=self._parent,
                                      **self._attrs)
        return self.node

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._spans.end(self.node)
        return False


class NullSpanContext:
    """Reusable no-op stand-in when observability is disabled."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        #: Shared sink dict so ``span(...).attrs["k"] = v`` stays legal.
        self.attrs = {}

    def __enter__(self) -> "NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.attrs.clear()
        return False


NULL_SPAN = NullSpanContext()


class SpanTracer:
    """Collects the span forest of one simulation run."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.roots: list[SpanNode] = []
        #: Open-span stack per simulation process (id -> stack).
        self._stacks: dict[int, list[SpanNode]] = {}

    def _stack(self) -> list[SpanNode]:
        # ``_active_process`` is part of the engine's dispatch contract:
        # Process._step sets it for the duration of every generator
        # step, so spans opened in one process nest only under that
        # process's own open spans.
        key = id(self.engine._active_process)
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    # -- explicit begin/end ------------------------------------------------------
    def begin(self, name: str, parent: Optional[SpanNode] = None,
              **attrs) -> SpanNode:
        """Open a span now, nested under the calling process's current
        span (or under ``parent`` when given explicitly)."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        node = SpanNode(name, self.engine.now, parent=parent, attrs=attrs)
        if parent is None:
            self.roots.append(node)
        else:
            parent.children.append(node)
        stack.append(node)
        return node

    def end(self, node: SpanNode) -> SpanNode:
        """Close a span now."""
        if node.end is not None:
            raise SimulationError(f"span {node.name!r} already closed")
        node.end = self.engine.now
        # The node usually tops its process's stack, but interleaved
        # processes may close out of order: remove wherever it is.
        for key, stack in list(self._stacks.items()):
            if node in stack:
                stack.remove(node)
                if not stack:
                    del self._stacks[key]
                break
        return node

    def span(self, name: str, parent: Optional[SpanNode] = None,
             **attrs) -> _SpanContext:
        """A ``with``-able handle opening the span on entry."""
        return _SpanContext(self, name, parent, attrs)

    def record(self, name: str, start: float, end: Optional[float] = None,
               parent: Optional[SpanNode] = None, **attrs) -> SpanNode:
        """Add an already-finished span retroactively (e.g. a stall
        whose extent is only known once it is over)."""
        end = self.engine.now if end is None else end
        if end < start:
            raise SimulationError(f"span {name!r} ends before it starts")
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        node = SpanNode(name, start, parent=parent, attrs=attrs)
        node.end = end
        if parent is None:
            self.roots.append(node)
        else:
            parent.children.append(node)
        return node

    # -- aggregation -------------------------------------------------------------
    def iter_nodes(self) -> Iterator[SpanNode]:
        """Every span, depth-first."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find(self, name: str) -> list[SpanNode]:
        """All spans whose name or full path equals ``name``."""
        return [n for n in self.iter_nodes()
                if n.name == name or n.path() == name]

    def total(self, name: str) -> float:
        """Summed duration of all closed spans matching ``name``."""
        return sum(n.duration for n in self.find(name) if n.end is not None)

    def phase_totals(self) -> dict[str, tuple[int, float]]:
        """``{path: (count, total duration)}`` over all closed spans."""
        out: dict[str, tuple[int, float]] = {}
        for node in self.iter_nodes():
            if node.end is None:
                continue
            path = node.path()
            count, total = out.get(path, (0, 0.0))
            out[path] = (count + 1, total + node.duration)
        return out

    def to_dicts(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]


def union_duration(nodes: Iterable[SpanNode]) -> float:
    """Total wall-clock covered by the union of the spans' intervals.

    Overlapping spans (e.g. the same stall recorded once per GPU) are
    counted once, so the result is the *app-visible* time — summing
    durations would double-count concurrency.
    """
    intervals = sorted((n.start, n.end) for n in nodes if n.end is not None)
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in intervals:
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        total += cur_end - cur_start
    return total
