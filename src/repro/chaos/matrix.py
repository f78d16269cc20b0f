"""The crash-consistency matrix: kill-at-every-phase × every protocol.

The hard claim this harness checks is the one CRIUgpu/CRAC state as the
core C/R correctness contract and PAPER.md §7 inherits: *whatever
fails, whenever it fails*, the system ends in one of exactly two
states —

1. **committed** — the image is visible in the medium's catalog,
   finalized, and restores bit-identically; or
2. **cleanly aborted** — the staged image is discarded (never
   restorable), every DMA engine slot and priority-resource request is
   released, CoW shadows and half-restored allocations are freed, the
   frontend is back in pass-through mode, and (unless the fault *was*
   the process dying) the application keeps running.

Every cell runs through one driver (:func:`_run_cell`): build a fresh
world (engine, machine, daemon, deterministic mini-app), arm one
:class:`~repro.chaos.FaultPlan`, run one operation (a checkpoint, a
streaming checkpoint, or a restore of a clean CoW image), disarm, check
that a process the fault did not kill still runs, and restore whatever
the run left restorable.  Every cell is then judged by one invariant
list (:func:`_verdict`).  The sweep covers:

* ``kill-process`` and ``crash-checkpointer`` at **every** phase of
  every registered checkpoint protocol and restore protocol;
* a crash at every write-behind hop of a streaming protocol, whose
  contract is prefix-atomic: the committed rounds stay restorable;
* seed-sampled retryable ``dma-error`` / ``context-error`` faults
  (these must be absorbed by the retry policy: the run still commits).

Everything is virtual-clock deterministic: the same ``seed`` yields the
same fault addresses, the same app state, and the same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import chaos, obs
from repro.api.runtime import GpuProcess
from repro.chaos import FaultPlan, FaultSpec
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig, registry
from repro.core.protocols.base import CHECKPOINT_PHASES, RESTORE_PHASES
from repro.errors import ReproError
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_inplace_add, build_scale
from repro.sim.engine import Engine
from repro.storage.media import tier_stack
from repro.storage.writebehind import DRAIN_PROTOCOL

#: Phases a fault can address, per protocol kind ("commit/abort" is the
#: display name of two hooks; the injector sees "commit").
CHECKPOINT_FAULT_PHASES = tuple(
    p for p in CHECKPOINT_PHASES if p != "commit/abort"
) + ("commit",)
RESTORE_FAULT_PHASES = RESTORE_PHASES

#: Write-behind drainer hops a fault can address (tier 1 = SSD, tier 2
#: = remote DRAM in the default stack): crash before the hop's bytes
#: move, and crash after the move but before the replica commits.
DRAIN_FAULT_PHASES = ("drain:t1", "publish:t1", "drain:t2", "publish:t2")

#: The stream-level phases a streaming checkpoint actually enters
#: (there is no ``plan`` at stream scope — each round's inner protocol
#: plans under its own name — and ``commit`` runs once per round, so a
#: fault there exercises the prefix-atomic contract).
STREAM_FAULT_PHASES = ("admit", "quiesce", "transfer", "validate", "commit")

#: The highest occurrence a seed-sampled fault may draw, per site kind:
#: one every cell reaches (a one-GPU restore creates its context once).
SITE_VISITS = {"dma-error": 4, "context-error": 1}


@dataclass
class CellResult:
    """Verdict for one (protocol, fault) cell of the matrix."""

    kind: str               # "checkpoint" | "restore"
    protocol: str           # registry name
    fault: str              # e.g. "kill-process@transfer", "dma-error~seed"
    outcome: str = ""       # committed | aborted | prefix | no-trip | error
    injected: int = 0       # faults actually fired in this cell
    ok: bool = False
    detail: str = ""        # failure explanation when not ok

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.protocol} × {self.fault}"


@dataclass
class SweepResult:
    """All cells of one sweep, plus the seed that produced them."""

    seed: int
    cells: list[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def render(self) -> str:
        """A fixed-width report table (used by ``phos chaos``)."""
        lines = [
            f"crash-consistency matrix  (seed={self.seed}, "
            f"{len(self.cells)} cells)",
            f"{'cell':<52} {'outcome':<10} {'inj':>3}  verdict",
            "-" * 78,
        ]
        for cell in self.cells:
            verdict = "ok" if cell.ok else f"FAIL: {cell.detail}"
            lines.append(
                f"{cell.label:<52} {cell.outcome:<10} "
                f"{cell.injected:>3}  {verdict}"
            )
        n_bad = len(self.failures)
        lines.append("-" * 78)
        lines.append(
            f"{len(self.cells) - n_bad}/{len(self.cells)} cells ok"
            + (f", {n_bad} FAILED" if n_bad else "")
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The per-cell world: a deterministic two-buffer-pipeline mini-app.
# Mirrors the test suite's toy app, trimmed to what the matrix needs —
# enough buffers for per-buffer DMA occurrences to vary, kernels so the
# speculation frontend has real work to validate.
# ---------------------------------------------------------------------------

_APP_BUFS = ("input", "act", "weight", "out")
_N_WORDS = 16


class _MiniApp:
    """Deterministic iteration loop over one GPU."""

    def __init__(self, process, gpu_index: int = 0,
                 buf_size: int = 4096) -> None:
        self.process = process
        self.rt = process.runtime
        self.gpu_index = gpu_index
        self.buf_size = buf_size
        self.cost = KernelCost(flops=5e9, bytes_moved=buf_size,
                               memory_intensity=0.8)
        self.scale = build_scale(factor=3)
        self.inplace = build_inplace_add()
        self.bufs: dict[str, object] = {}

    def setup(self):
        for i, tag in enumerate(_APP_BUFS):
            buf = yield from self.rt.malloc(
                self.gpu_index, self.buf_size, tag=tag
            )
            self.bufs[tag] = buf
            yield from self.rt.memcpy_h2d(
                self.gpu_index, buf, payload=i + 1, sync=True
            )

    def run(self, n_iters: int, start: int = 0):
        b = self.bufs
        for i in range(start, start + n_iters):
            yield from self.rt.cpu_work(
                2e-4,
                write_pages=[i % self.process.host.memory.n_pages],
                value=i + 1,
            )
            yield from self.rt.memcpy_h2d(
                self.gpu_index, b["input"], payload=1000 + i
            )
            yield from self.rt.launch_kernel(
                self.gpu_index, self.scale,
                [b["input"].addr, b["act"].addr, _N_WORDS],
                _N_WORDS, cost=self.cost,
            )
            yield from self.rt.launch_kernel(
                self.gpu_index, self.inplace,
                [b["weight"].addr, _N_WORDS], _N_WORDS, cost=self.cost,
            )
            yield from self.rt.device_synchronize(self.gpu_index)


def _gpu_snapshot(process) -> dict:
    """Functional GPU state: ``{(gpu, addr): bytes}``."""
    state = {}
    for gpu_index, bufs in process.runtime.allocations.items():
        for buf in bufs:
            state[(gpu_index, buf.addr)] = buf.snapshot()
    return state


def _image_state(image) -> dict:
    """``{(gpu, addr): bytes}`` recorded in a checkpoint image."""
    from repro.storage.delta import materialize

    image = materialize(image)
    state = {}
    for gpu_index, records in image.gpu_buffers.items():
        for record in records.values():
            state[(gpu_index, record.addr)] = record.data
    return state


class _Cell:
    """One fresh simulated machine + daemon + warmed-up app."""

    def __init__(self) -> None:
        self.engine = Engine()
        self.machine = Machine(self.engine, n_gpus=1)
        self.phos = Phos(self.engine, self.machine, use_context_pool=False)
        self.process = GpuProcess(
            self.engine, self.machine, name="cell-app",
            gpu_indices=[0], cpu_pages=8,
        )
        self.process.runtime.adopt_context(0, GpuContext(gpu_index=0))
        self.phos.attach(self.process)
        self.app = _MiniApp(self.process)

    def warmup(self):
        yield from self.app.setup()
        yield from self.app.run(2)


# ---------------------------------------------------------------------------
# One cell: build, arm, run one operation, restore what it left, judge.
# ---------------------------------------------------------------------------

def _leak_errors(world: _Cell, observer) -> list[str]:
    """Post-run invariants that must hold in *both* outcomes."""
    errors = []
    for gpu in world.machine.gpus:
        users = len(list(gpu.dma.iter_users()))
        waiting = len(list(gpu.dma.iter_waiting()))
        if users:
            errors.append(f"gpu{gpu.index} DMA pool leaked {users} user(s)")
        if waiting:
            errors.append(f"gpu{gpu.index} DMA pool stranded "
                          f"{waiting} waiter(s)")
    open_spans = [n.name for n in observer.spans.iter_nodes() if n.open]
    if open_spans:
        errors.append(f"open obs spans: {sorted(set(open_spans))}")
    return errors


@dataclass
class _Run:
    """What one cell's operation left behind, for the verdict."""

    armed: set                  # committed image ids when the fault was armed
    outcome: str = ""
    injected: int = 0
    error: Optional[BaseException] = None
    produced: list = field(default_factory=list)  # images the run committed
    identical: bool = True      # the restored state equals the image


def _chain_order(images) -> list:
    """Committed images in delta-chain order (root first).

    Returns the longest root-anchored chain; a committed set that is
    not a single chain shows up as a length mismatch at the call site.
    """
    by_parent = {getattr(im, "parent_id", None): im for im in images}
    chain = []
    cur = by_parent.get(None)
    while cur is not None and len(chain) < len(images):
        chain.append(cur)
        cur = by_parent.get(cur.id)
    return chain


def _restore(world: _Cell, image, mode: str = "concurrent"):
    """Restore ``image`` until it is fully loaded; returns the process."""
    process, _frontend, session = yield from world.phos.restore(
        image, gpu_indices=[0], mode=mode,
    )
    if session is not None and not session.done.triggered:
        yield session.done
    return process


def _run_cell(protocol: str, plan: FaultPlan, cell: CellResult,
              expect_commit: bool, streaming: bool) -> None:
    """Run one cell of the matrix; fills in ``cell`` in place.

    The operation under fault is a checkpoint, a streaming checkpoint
    over the cell's own tier stack, or (after a clean CoW checkpoint
    and a kill) a restore.  What it left restorable is restored and
    compared with its image; :func:`_verdict` judges the result.
    """
    world = _Cell()
    eng = world.engine
    catalog = world.phos.medium.images
    # A streaming cell owns its tier stack so the verdict can audit the
    # lower-tier catalogs after the run.
    tiers = tier_stack(eng, world.phos.medium) if streaming else []
    with obs.observed(eng) as observer:
        def driver():
            yield from world.warmup()
            source = image = restored = stream = None
            if cell.kind == "restore":
                source, _session = yield world.phos.checkpoint(
                    world.process, mode="cow", name="cell",
                )
                world.phos.kill(world.process)
            run = _Run(armed={im.id for im in catalog.committed_images()})
            injector = chaos.install(plan, killer=world.phos.kill)
            try:
                if source is not None:
                    restored = yield from _restore(world, source, protocol)
                elif streaming:
                    image, stream = yield world.phos.checkpoint(
                        world.process, mode=protocol, name="cell",
                        config=ProtocolConfig(rounds=3, interval=1e-3,
                                              drain_tiers=tiers))
                    run.produced = stream.images
                else:
                    image, _session = yield world.phos.checkpoint(
                        world.process, mode=protocol, name="cell",
                    )
                    run.produced = [image]
            except ReproError as err:
                run.error = err
                if streaming:
                    # A kill-process fault tears the stream's handle
                    # down, so its committed prefix is in the catalog.
                    chain = _chain_order(catalog.committed_images())
                    image = chain[-1] if chain else None
            finally:
                chaos.uninstall()
            run.injected = len(injector.injected)
            if stream is not None and not stream.complete:
                run.error = stream.error or stream.drain_error
            if run.error is None:
                run.outcome = "committed" if run.injected else "no-trip"
            else:
                run.outcome = "aborted" if image is None else "prefix"

            if world.process.id in world.phos.frontends:
                # Unless the fault killed it, the application keeps
                # running: one more iteration gets through its API gate.
                yield from world.app.run(1, start=2)
            if source is not None and restored is None:
                # The image survives a failed restore: a second,
                # fault-free attempt with the same protocol restores it.
                restored = yield from _restore(world, source, protocol)
            elif image is not None:
                # What the run committed restores through ``concurrent``
                # (kill is idempotent after a kill-process fault).
                world.phos.kill(world.process)
                restored = yield from _restore(world, image)
            if restored is not None:
                target = source if source is not None else image
                run.identical = _image_state(target) == _gpu_snapshot(restored)
            return run

        run = eng.run_process(driver())
        eng.run()

        cell.outcome, cell.injected = run.outcome, run.injected
        errors = _verdict(world, observer, tiers, run, expect_commit)
        cell.ok = not errors
        cell.detail = "; ".join(errors)


def _verdict(world: _Cell, observer, tiers, run: _Run,
             expect_commit: bool) -> list[str]:
    """The two-outcome contract: every cell is checked against all of it."""
    errors = _leak_errors(world, observer)
    catalog = world.phos.medium.images
    if catalog.staged_images():
        errors.append("catalog left staged image(s)")
    for frontend in world.phos.frontends.values():
        if frontend.ckpt_session is not None:
            errors.append("frontend still holds a checkpoint session")
        if frontend.restore_session is not None:
            errors.append("frontend still holds a restore session")
    committed = catalog.committed_images()
    chain = _chain_order(committed)
    if len(chain) != len(committed):
        errors.append("committed images do not form a single parent chain")
    errors += [f"committed image {im.name!r} is not finalized"
               for im in chain if not im.finalized]
    if run.outcome == "aborted":
        if {im.id for im in committed} != run.armed:
            errors.append("aborted run changed the committed image set")
        if not run.injected:
            errors.append(f"run aborted with no injected fault: {run.error}")
    missing = [im.name for im in run.produced if not catalog.is_committed(im)]
    if missing:
        errors.append(f"image(s) missing from the commit catalog: {missing}")
    if expect_commit and run.error is not None:
        errors.append(f"retryable fault ended the run {run.outcome}: "
                      f"{run.error}")
    if not expect_commit and run.outcome == "committed":
        errors.append("fault injected but the run still committed")
    if not run.identical:
        errors.append("restored state differs from the image")
    # Write-behind: no lower tier keeps a staged (partial) replica, and
    # each tier's committed replicas are a prefix of the chain.
    chain_ids = [im.id for im in chain]
    for tier in tiers[1:]:
        if tier.images.staged_images():
            errors.append(f"tier {tier.name!r} left staged replica(s)")
        got_ids = {im.id for im in tier.images.committed_images()}
        if got_ids != set(chain_ids[:len(got_ids)]):
            errors.append(f"tier {tier.name!r} committed a non-prefix "
                          "replica set")
    return errors


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

def _at(kind: str, protocol: str, phase: str, seed: int) -> FaultPlan:
    """A plan with one fault at entry to ``protocol``'s ``phase``."""
    return FaultPlan(faults=(FaultSpec(kind=kind, protocol=protocol,
                                       phase=phase),), seed=seed)


def sweep(seed: int = 1, protocols=None,
          restore_protocols=None) -> SweepResult:
    """Run the full matrix; deterministic in ``seed``.

    ``protocols`` / ``restore_protocols`` restrict the checkpoint /
    restore protocol axes (default: everything registered).
    """
    result = SweepResult(seed=seed)
    axes = [("checkpoint", name)
            for name in protocols or registry.names("checkpoint")]
    axes += [("restore", name)
             for name in restore_protocols or registry.names("restore")]
    for kind, name in axes:
        streaming = registry.get(name, kind).streaming
        if kind == "restore":
            phases, site_kinds = RESTORE_FAULT_PHASES, chaos.SITE_KINDS
        else:
            phases = (STREAM_FAULT_PHASES if streaming
                      else CHECKPOINT_FAULT_PHASES)
            site_kinds = ("dma-error",)
        # (fault label, plan, expect_commit): a fault at every phase,
        # a crash at every write-behind hop of a stream, then the
        # seed-sampled retryable faults the run must absorb.
        cells = [(f"{fault}@{phase}", _at(fault, name, phase, seed), False)
                 for phase in phases for fault in chaos.PHASE_KINDS]
        if streaming:
            cells += [(f"crash-checkpointer@{phase}",
                       _at("crash-checkpointer", DRAIN_PROTOCOL, phase,
                           seed), False)
                      for phase in DRAIN_FAULT_PHASES]
        cells += [(f"{fault}~s{seed}",
                   FaultPlan.sample(seed, kinds=(fault,),
                                    max_occurrence=SITE_VISITS[fault]), True)
                  for fault in site_kinds]
        for fault, plan, expect_commit in cells:
            cell = CellResult(kind=kind, protocol=name, fault=fault)
            try:
                _run_cell(name, plan, cell, expect_commit, streaming)
            except Exception as err:  # noqa: BLE001 - verdict, not control flow
                cell.ok = False
                cell.outcome = cell.outcome or "error"
                cell.detail = f"{type(err).__name__}: {err}"
            finally:
                chaos.uninstall()
            result.cells.append(cell)
    return result
