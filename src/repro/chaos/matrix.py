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

Each matrix cell builds a fresh world (engine, machine, daemon,
deterministic mini-app), arms one :class:`~repro.chaos.FaultSpec`, runs
the protocol, and asserts one of the two outcomes.  The sweep covers:

* ``kill-process`` and ``crash-checkpointer`` at **every** phase of
  every registered checkpoint protocol and restore protocol;
* seed-sampled retryable ``dma-error`` / ``context-error`` faults
  (these must be absorbed by the retry policy: the run still commits).

Everything is virtual-clock deterministic: the same ``seed`` yields the
same fault addresses, the same app state, and the same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class CellResult:
    """Verdict for one (protocol, fault) cell of the matrix."""

    kind: str               # "checkpoint" | "restore"
    protocol: str           # registry name
    fault: str              # e.g. "kill-process@transfer", "dma-error~seed"
    outcome: str = ""       # "committed" | "aborted" | "no-trip"
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
# Invariant checks shared by every cell.
# ---------------------------------------------------------------------------

def _leak_errors(world: _Cell, observer) -> list[str]:
    """Post-run invariants that must hold in *both* outcomes."""
    errors = []
    for gpu in world.machine.gpus:
        users = list(gpu.dma.iter_users())
        waiting = list(gpu.dma.iter_waiting())
        if users:
            errors.append(f"gpu{gpu.index} DMA pool leaked "
                          f"{len(users)} user(s)")
        if waiting:
            errors.append(f"gpu{gpu.index} DMA pool stranded "
                          f"{len(waiting)} waiter(s)")
    open_spans = [n.name for n in observer.spans.iter_nodes() if n.open]
    if open_spans:
        errors.append(f"open obs spans: {sorted(set(open_spans))}")
    return errors


def _abort_errors(world: _Cell, image) -> list[str]:
    """Invariants specific to the clean-abort outcome."""
    errors = []
    catalog = world.phos.medium.images
    if catalog.committed_images():
        errors.append("aborted run left a committed image in the catalog")
    if image is not None:
        if catalog.is_committed(image):
            errors.append("aborted run left a committed image")
        if catalog.is_staged(image):
            errors.append("aborted run left its image staged")
    for frontend in world.phos.frontends.values():
        if frontend.ckpt_session is not None:
            errors.append("frontend still holds a checkpoint session")
        if frontend.restore_session is not None:
            errors.append("frontend still holds a restore session")
    return errors


# ---------------------------------------------------------------------------
# Cell drivers.
# ---------------------------------------------------------------------------

def _run_checkpoint_cell(protocol: str, plan: FaultPlan,
                         cell: CellResult,
                         expect_commit: bool) -> None:
    """One checkpoint cell; fills in ``cell`` in place."""
    world = _Cell()
    eng = world.engine
    with obs.observed(eng) as observer:
        def driver():
            yield from world.warmup()
            injector = chaos.install(plan, engine=eng,
                                     killer=world.phos.kill)
            outcome = None
            try:
                handle = world.phos.checkpoint(
                    world.process, mode=protocol, name="cell",
                )
                try:
                    image, session = yield handle
                except ReproError as err:
                    outcome = ("aborted", err, None)
                else:
                    done = getattr(session, "done", None)
                    if done is not None and not done.triggered:
                        yield done
                    outcome = ("committed", None, image)
            finally:
                chaos.uninstall()
            kind, err, image = outcome
            if kind == "committed":
                # Prove the committed image restores bit-identically.
                expected = _image_state(image)
                world.phos.kill(world.process)
                restored = yield from world.phos.restore(
                    image, gpu_indices=[0],
                )
                new_process, _frontend, rsession = restored
                if rsession is not None:
                    yield rsession.done
                got = _gpu_snapshot(new_process)
                return kind, err, image, injector, expected == got
            return kind, err, image, injector, True

        kind, err, image, injector, identical = eng.run_process(driver())
        eng.run()

        cell.outcome = kind
        cell.injected = len(injector.injected)
        errors = _leak_errors(world, observer)
        if kind == "aborted":
            last = _last_protocol_image(world, protocol)
            errors += _abort_errors(world, last)
            if not injector.injected:
                errors.append(f"run aborted with no injected fault: {err}")
        else:
            if expect_commit is False and injector.injected:
                errors.append("fault injected but run still committed")
            if injector.injected:
                cell.outcome = "committed"
            else:
                cell.outcome = "no-trip"
            if image is not None and not image.finalized:
                errors.append("committed image is not finalized")
            if image is not None and not world.phos.medium.images.is_committed(
                image
            ):
                errors.append("image missing from the commit catalog")
            if not identical:
                errors.append("restored state differs from the image")
        if expect_commit and kind == "aborted":
            errors.append(f"retryable fault aborted the run: {err}")
        cell.ok = not errors
        cell.detail = "; ".join(errors)


def _last_protocol_image(world: _Cell, protocol: str):
    """The image a failed run staged, recovered via the catalog."""
    catalog = world.phos.medium.images
    staged = catalog.staged_images()
    if staged:
        return staged[-1]
    # Discarded images are no longer staged; any revoked image the cell
    # produced is equally a valid "not restorable" witness.
    return None


def _run_restore_cell(protocol: str, plan: FaultPlan,
                      cell: CellResult,
                      expect_commit: bool) -> None:
    """One restore cell: checkpoint cleanly, then restore under fault."""
    world = _Cell()
    eng = world.engine
    with obs.observed(eng) as observer:
        def driver():
            yield from world.warmup()
            image, session = yield world.phos.checkpoint(
                world.process, mode="cow", name="cell",
            )
            expected = _image_state(image)
            world.phos.kill(world.process)
            injector = chaos.install(plan, engine=eng,
                                     killer=world.phos.kill)
            outcome = None
            try:
                try:
                    restored = yield from world.phos.restore(
                        image, gpu_indices=[0], mode=protocol,
                    )
                except ReproError as err:
                    outcome = ("aborted", err, None)
                else:
                    new_process, _frontend, rsession = restored
                    if rsession is not None and not rsession.done.triggered:
                        yield rsession.done
                    outcome = ("committed", None, new_process)
            finally:
                chaos.uninstall()
            kind, err, new_process = outcome
            if kind == "aborted":
                # The image must survive a failed restore: a second,
                # fault-free attempt restores bit-identically.
                restored = yield from world.phos.restore(
                    image, gpu_indices=[0], mode=protocol,
                )
                new_process, _frontend, rsession = restored
                if rsession is not None and not rsession.done.triggered:
                    yield rsession.done
            got = _gpu_snapshot(new_process)
            return kind, err, injector, expected == got

        kind, err, injector, identical = eng.run_process(driver())
        eng.run()

        cell.outcome = kind
        cell.injected = len(injector.injected)
        errors = _leak_errors(world, observer)
        if kind == "aborted" and not injector.injected:
            errors.append(f"restore aborted with no injected fault: {err}")
        if kind == "committed" and not injector.injected:
            cell.outcome = "no-trip"
        if expect_commit and kind == "aborted":
            errors.append(f"retryable fault aborted the restore: {err}")
        if not identical:
            errors.append("restored state differs from the image")
        cell.ok = not errors
        cell.detail = "; ".join(errors)


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


def _run_continuous_cell(protocol: str, plan: FaultPlan,
                         cell: CellResult,
                         expect_commit: bool) -> None:
    """One streaming-checkpoint cell (prefix-atomic contract).

    A streaming protocol is not abort-atomic: a fault after round ``r``
    committed must leave rounds ``0..r`` restorable on the DRAM tier
    (the run *returns* the committed prefix instead of raising), and a
    fault inside the write-behind drainer must revoke the partial
    lower-tier replica while every fully-drained tier keeps a strict
    prefix of the chain.  Only a fault before the first commit may
    abort the run outright.
    """
    world = _Cell()
    eng = world.engine
    with obs.observed(eng) as observer:
        # The cell owns the tier stack so it can audit the lower-tier
        # catalogs after the run.
        tiers = tier_stack(eng, world.phos.medium)

        def driver():
            yield from world.warmup()
            injector = chaos.install(plan, engine=eng,
                                     killer=world.phos.kill)
            catalog = world.phos.medium.images
            outcome = None
            try:
                handle = world.phos.checkpoint(
                    world.process, mode=protocol, name="cell",
                    config=ProtocolConfig(rounds=3,
                                          interval=1e-3,
                                          drain_tiers=tiers))
                try:
                    last, stream = yield handle
                except ReproError as err:
                    # A kill-process fault tears the outer handle down
                    # (the daemon cancels in-flight runs of a dying
                    # process), so the committed prefix must be
                    # recovered from the catalog, not the return value.
                    chain = _chain_order(catalog.committed_images())
                    if chain:
                        outcome = ("prefix-dead", err, chain[-1], None)
                    else:
                        outcome = ("aborted", err, None, None)
                else:
                    outcome = ("stream", None, last, stream)
            finally:
                chaos.uninstall()
            kind, err, last, stream = outcome
            if last is not None:
                # Prove the last committed round restores bit-identically
                # (kill is idempotent if a kill-process fault already ran).
                expected = _image_state(last)
                world.phos.kill(world.process)
                restored = yield from world.phos.restore(
                    last, gpu_indices=[0],
                )
                new_process, _frontend, rsession = restored
                if rsession is not None:
                    yield rsession.done
                got = _gpu_snapshot(new_process)
                return kind, err, stream, injector, expected == got
            return kind, err, stream, injector, True

        kind, err, stream, injector, identical = eng.run_process(driver())
        eng.run()

        cell.injected = len(injector.injected)
        errors = _leak_errors(world, observer)
        catalog = world.phos.medium.images
        committed = catalog.committed_images()
        chain = _chain_order(committed)
        chain_ids = [img.id for img in chain]
        if kind == "aborted":
            cell.outcome = "aborted"
            errors += _abort_errors(world, _last_protocol_image(world,
                                                               protocol))
            if not injector.injected:
                errors.append(f"run aborted with no injected fault: {err}")
        else:
            truncated = (kind == "prefix-dead"
                         or stream.error is not None
                         or stream.drain_error is not None)
            if truncated:
                cell.outcome = "prefix"
            elif injector.injected:
                cell.outcome = "committed"
            else:
                cell.outcome = "no-trip"
            if expect_commit and truncated:
                errors.append("retryable fault truncated the stream: "
                              f"{err or stream.error or stream.drain_error}")
            if (not expect_commit and injector.injected and not truncated
                    and stream.rounds_committed >= 3):
                errors.append("fault injected but the stream completed "
                              "untruncated")
            if len(chain) != len(committed):
                errors.append("committed images do not form a single "
                              "parent chain")
            for img in chain:
                if not img.finalized:
                    errors.append(f"round image {img.name!r} not finalized")
            if stream is not None:
                missing = [img.name for img in stream.images
                           if not catalog.is_committed(img)]
                if missing:
                    errors.append("stream round(s) missing from the DRAM "
                                  f"catalog: {missing}")
            if catalog.staged_images():
                errors.append("DRAM catalog left staged image(s)")
            if not identical:
                errors.append("restored state differs from the last "
                              "committed round")
            for frontend in world.phos.frontends.values():
                if frontend.ckpt_session is not None:
                    errors.append("frontend still holds a checkpoint session")
        # Write-behind audit (both outcomes): no tier may keep a staged
        # (partial) replica, and each tier's committed replicas must be
        # a strict prefix of the stream's chain.
        for tier in tiers[1:]:
            staged = tier.images.staged_images()
            if staged:
                errors.append(f"tier {tier.name!r} left {len(staged)} "
                              "staged replica(s)")
            got_ids = {im.id for im in tier.images.committed_images()}
            if got_ids != set(chain_ids[:len(got_ids)]):
                errors.append(f"tier {tier.name!r} committed a non-prefix "
                              "replica set")
        cell.ok = not errors
        cell.detail = "; ".join(errors)


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

def sweep(seed: int = 1, protocols=None,
          restore_protocols=None) -> SweepResult:
    """Run the full matrix; deterministic in ``seed``.

    ``protocols`` / ``restore_protocols`` restrict the checkpoint /
    restore protocol axes (default: everything registered).
    """
    result = SweepResult(seed=seed)
    ckpt_names = list(protocols or registry.names("checkpoint"))
    rest_names = list(restore_protocols or registry.names("restore"))

    for name in ckpt_names:
        # Streaming protocols have a prefix-atomic failure contract —
        # route them to the dedicated cell driver.
        streaming = getattr(registry.get(name, "checkpoint"),
                            "streaming", False)
        runner = _run_continuous_cell if streaming else _run_checkpoint_cell
        phases = STREAM_FAULT_PHASES if streaming else CHECKPOINT_FAULT_PHASES
        for phase in phases:
            for fault_kind in chaos.PHASE_KINDS:
                cell = CellResult(
                    kind="checkpoint", protocol=name,
                    fault=f"{fault_kind}@{phase}",
                )
                plan = FaultPlan(faults=(FaultSpec(
                    kind=fault_kind, protocol=name, phase=phase,
                ),), seed=seed)
                _run_cell_guarded(
                    runner, name, plan, cell,
                    expect_commit=False,
                )
                result.cells.append(cell)
        if streaming:
            # Crash-mid-drain: kill the write-behind drainer between
            # tiers; the DRAM prefix must survive and the partially
            # drained tier's replica must be revoked.
            for phase in DRAIN_FAULT_PHASES:
                cell = CellResult(
                    kind="checkpoint", protocol=name,
                    fault=f"crash-checkpointer@{phase}",
                )
                plan = FaultPlan(faults=(FaultSpec(
                    kind="crash-checkpointer", protocol=DRAIN_PROTOCOL,
                    phase=phase,
                ),), seed=seed)
                _run_cell_guarded(
                    _run_continuous_cell, name, plan, cell,
                    expect_commit=False,
                )
                result.cells.append(cell)
        # Seed-sampled retryable DMA faults: the run must still commit.
        cell = CellResult(kind="checkpoint", protocol=name,
                          fault=f"dma-error~s{seed}")
        plan = FaultPlan.sample(seed, kinds=("dma-error",))
        _run_cell_guarded(runner, name, plan, cell,
                          expect_commit=True)
        result.cells.append(cell)

    for name in rest_names:
        for phase in RESTORE_FAULT_PHASES:
            for fault_kind in chaos.PHASE_KINDS:
                cell = CellResult(
                    kind="restore", protocol=name,
                    fault=f"{fault_kind}@{phase}",
                )
                plan = FaultPlan(faults=(FaultSpec(
                    kind=fault_kind, protocol=name, phase=phase,
                ),), seed=seed)
                _run_cell_guarded(
                    _run_restore_cell, name, plan, cell,
                    expect_commit=False,
                )
                result.cells.append(cell)
        for fault_kind in chaos.SITE_KINDS:
            cell = CellResult(kind="restore", protocol=name,
                              fault=f"{fault_kind}~s{seed}")
            plan = FaultPlan.sample(seed, kinds=(fault_kind,))
            _run_cell_guarded(_run_restore_cell, name, plan, cell,
                              expect_commit=True)
            result.cells.append(cell)

    return result


def _run_cell_guarded(runner, protocol, plan, cell, expect_commit) -> None:
    """Run one cell; an escaped exception is a FAIL, never a crash."""
    try:
        runner(protocol, plan, cell, expect_commit)
    except Exception as err:  # noqa: BLE001 - verdict, not control flow
        cell.ok = False
        cell.outcome = cell.outcome or "error"
        cell.detail = f"{type(err).__name__}: {err}"
    finally:
        chaos.uninstall()
