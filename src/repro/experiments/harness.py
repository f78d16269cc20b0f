"""Common experiment plumbing: results, formatting, and run helpers."""

from __future__ import annotations

import cProfile
import io
import pstats
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro import parallel
from repro.core.protocols import ProtocolConfig
from repro.core.engine import EXPERIMENT_CHUNK
from repro.tasks import worker
from repro.tasks.worker import Worker, new_world


def run_cells(runner, cells, jobs=None, label: str = "") -> list:
    """Fan experiment cells out over the process pool; merge in order.

    Thin wrapper over :func:`repro.parallel.run_cells` that pins the
    execution serial while ``--obs`` is active: observers live
    in-process (:func:`~repro.tasks.worker.new_world` installs them into
    :data:`~repro.tasks.worker.collected_observers`), so observed runs
    must not cross a process boundary.  Results keep the declared cell
    order either way — output is bit-identical at any job count.
    """
    return parallel.run_cells(runner, cells, jobs=jobs, label=label,
                              serial_only=worker.OBSERVE)


def experiment_config(**tunables) -> ProtocolConfig:
    """A :class:`ProtocolConfig` tuned for full-scale experiment runs.

    Defaults ``chunk_bytes`` to :data:`~repro.core.engine
    .EXPERIMENT_CHUNK` (coarser DMA chunks, 8x fewer sim events);
    any explicit tunable overrides it.
    """
    tunables.setdefault("chunk_bytes", EXPERIMENT_CHUNK)
    return ProtocolConfig(**tunables)


@contextmanager
def maybe_profile(path: Optional[str], top: int = 50):
    """Profile the enclosed block with :mod:`cProfile` when ``path`` is set.

    On exit the profile's stats, sorted by cumulative time, are written
    as text to ``path`` (conventionally next to the ``--obs-json``
    output, so a run's wall-clock breakdown sits beside its virtual-time
    snapshot).  With ``path`` falsy the block runs unprofiled — callers
    can wrap unconditionally.
    """
    if not path:
        yield None
        return
    prof = cProfile.Profile()
    prof.enable()
    try:
        yield prof
    finally:
        prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(top)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())


@dataclass
class ExperimentResult:
    """Rows regenerating one paper table or figure."""

    exp_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add(self, **row) -> None:
        self.rows.append(row)

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def format(self) -> str:
        return format_table(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


def format_table(result: ExperimentResult) -> str:
    """Render an experiment as an aligned text table."""
    cols = result.columns
    header = [c for c in cols]
    body = []
    for row in result.rows:
        body.append([_fmt(row.get(c)) for c in cols])
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(header)]
    lines = [f"== {result.exp_id}: {result.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if result.notes:
        lines.append(f"-- {result.notes}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


#: The former world builder's name, kept only for ``bench/workloads.py``;
#: every other caller calls :func:`~repro.tasks.worker.new_world`.
build_world = new_world


def run_steps(world: Worker, n: int, start: Optional[int] = None) -> float:
    """Run n workload steps inline; returns elapsed virtual time."""
    eng = world.engine

    def driver(eng):
        t0 = eng.now
        yield from world.workload.run(n, start=start)
        return eng.now - t0

    return eng.run_process(driver(eng))


def setup_app(world: Worker, warm: int = 1) -> None:
    """Allocate buffers and warm the app (JIT/module loads)."""
    eng = world.engine

    def driver(eng):
        yield from world.workload.setup()
        yield from world.workload.run(warm)

    eng.run_process(driver(eng))
