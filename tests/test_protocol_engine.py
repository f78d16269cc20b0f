"""The ProtocolEngine: registry, typed config, and phase conformance.

Every checkpoint/restore protocol is addressable by name through
:mod:`repro.core.protocols.registry`; tunables travel as a validated
:class:`~repro.core.protocols.base.ProtocolConfig`.  These tests pin
the engine's contract — names, aliases, rejection messages, the phase
vocabulary — and run a conformance matrix over every registered
checkpoint protocol through the daemon, the SDK, and the CLI.

The figure-regression tests at the bottom assert that the refactor is
behaviour-preserving: fig11 (reduced), fig16, fig17 and fig18 must be
bit-identical to the goldens captured from the pre-refactor tree.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import obs
from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.cli import build_parser, main as cli_main
from repro.core.daemon import Phos
from repro.core.protocols import (
    CHECKPOINT_PHASES,
    RESTORE_PHASES,
    ProtocolConfig,
    registry,
)
from repro.core.quiesce import quiesce
from repro.core.sdk import PhosSdk
from repro.errors import CheckpointError
from repro.gpu.context import GpuContext
from repro.gpu.cost_model import KernelCost
from repro.gpu.program import build_global_writer
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process

GOLDENS = Path(__file__).parent / "goldens"

CHECKPOINT_NAMES = ["continuous", "cow", "hw-dirty", "incremental",
                    "recopy", "stop-world"]
RESTORE_NAMES = ["concurrent", "stop-world"]


def make_world(n_gpus=1):
    eng = Engine()
    machine = Machine(eng, n_gpus=n_gpus)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process)
    return eng, machine, phos, process, app


# -- registry surface --------------------------------------------------------------

def test_registry_lists_every_protocol():
    assert registry.names("checkpoint") == CHECKPOINT_NAMES
    assert registry.names("restore") == RESTORE_NAMES


@pytest.mark.parametrize("alias,canonical", [
    ("soft-cow", "cow"),
    ("copy-on-write", "cow"),
    ("soft-recopy", "recopy"),
    ("stop_world", "stop-world"),
    ("stop-the-world", "stop-world"),
    ("hw_dirty", "hw-dirty"),
    ("hw-recopy", "hw-dirty"),
])
def test_checkpoint_aliases_resolve(alias, canonical):
    assert registry.canonical_name(alias, "checkpoint") == canonical
    assert registry.get(alias, "checkpoint") is registry.get(canonical,
                                                            "checkpoint")


@pytest.mark.parametrize("alias,canonical", [
    ("on-demand", "concurrent"),
    ("concurrent-restore", "concurrent"),
])
def test_restore_aliases_resolve(alias, canonical):
    assert registry.canonical_name(alias, "restore") == canonical


def test_unknown_mode_error_lists_registered_names():
    with pytest.raises(CheckpointError) as exc:
        registry.create("quantum")
    message = str(exc.value)
    assert "unknown checkpoint mode 'quantum'" in message
    for name in CHECKPOINT_NAMES:
        assert name in message


def test_unknown_restore_mode_rejected():
    with pytest.raises(CheckpointError, match="unknown restore mode"):
        registry.create("quantum", kind="restore")


def test_create_rejects_config_plus_tunables():
    """One call style: tunables travel in ``config=`` only — the loose
    keyword path is gone from every entry point, not merely deprecated."""
    with pytest.raises(TypeError, match="chunk_bytes"):
        registry.create("cow", config=ProtocolConfig(), chunk_bytes=MIB)
    eng, machine, phos, process, app = make_world()
    with pytest.raises(TypeError, match="chunk_bytes"):
        phos.checkpoint(process, mode="cow", chunk_bytes=MIB)
    with pytest.raises(TypeError, match="chunk_bytes"):
        PhosSdk(phos, process).checkpoint(chunk_bytes=MIB)


def test_every_protocol_declares_known_phases():
    for kind, order in (("checkpoint", CHECKPOINT_PHASES),
                        ("restore", RESTORE_PHASES)):
        for name in registry.names(kind):
            cls = registry.get(name, kind)
            assert cls.phases() == order
            assert cls.kind == kind
            assert cls.name == name


# -- config validation -------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"precopy_rounds": -1},
    {"chunk_bytes": 0},
    {"chunk_bytes": -4096},
    {"cow_pool_bytes": 0},
    {"bandwidth_scale": 0.0},
    {"bandwidth_scale": -1.0},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(CheckpointError):
        ProtocolConfig(**bad)


def test_config_rejects_unknown_tunables():
    with pytest.raises(TypeError, match="compression"):
        ProtocolConfig(compression="zstd")


@pytest.mark.parametrize("mode,bad", [
    # Only CoW keeps shadows; a recopy run has no pool to size.
    ("recopy", {"cow_pool_bytes": 4 * MIB}),
    # CoW resumes the app by design; keep_stopped contradicts it.
    ("cow", {"keep_stopped": True}),
    # Pre-copy rounds only exist in the recopy protocol.
    ("stop-world", {"precopy_rounds": 2}),
    ("hw-dirty", {"cow_pool_bytes": 4 * MIB}),
    # incremental is recopy with one bit set: it takes recopy's
    # tunables (parent and pre-copy rounds too), not the stream's.
    ("incremental", {"rounds": 3}),
    # hw-dirty is the recopy skeleton with its own, narrower set.
    ("hw-dirty", {"precopy_rounds": 1}),
])
def test_unsupported_combination_rejected_at_construction(mode, bad):
    with pytest.raises(CheckpointError, match="does not support"):
        registry.create(mode, config=ProtocolConfig(**bad))


def test_supported_combinations_accepted():
    registry.create(
        "cow",
        config=ProtocolConfig(parent=None,
                              chunk_bytes=MIB,
                              cow_pool_bytes=MIB))
    registry.create(
        "recopy",
        config=ProtocolConfig(keep_stopped=True,
                              precopy_rounds=3,
                              bandwidth_scale=0.5))
    # The parent path is the same for every cut.
    for mode in ("cow", "recopy", "incremental"):
        registry.create(mode, config=ProtocolConfig(
            parent=object(), content_chunk_bytes=4096))
    registry.create("incremental", config=ProtocolConfig(precopy_rounds=1))
    registry.create("stop-world", config=ProtocolConfig(keep_stopped=True))
    registry.create(
        "hw-dirty",
        config=ProtocolConfig(keep_stopped=True, chunk_bytes=MIB))


# -- conformance matrix: every protocol through the daemon -------------------------

@pytest.mark.parametrize("mode", CHECKPOINT_NAMES)
def test_clean_checkpoint_captures_quiesced_state(mode):
    """Matrix row 1: a clean run with no concurrent writers.  The image
    must equal the process state at the request (t1 == t2 here)."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        image, session = yield phos.checkpoint(process, mode=mode)
        return expected, image, session

    expected, image, session = eng.run_process(driver(eng))
    eng.run()
    assert image.finalized
    assert image_gpu_state(image) == expected
    if mode == "continuous":
        assert session.complete  # StreamSummary, not a CheckpointSession
    elif session is not None:
        assert not session.aborted


@pytest.mark.parametrize("mode", ["recopy", "stop-world", "hw-dirty"])
def test_keep_stopped_leaves_process_quiesced(mode):
    """Matrix row 2: keep_stopped (migration handoff) for the protocols
    that support it."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        image, _ = yield phos.checkpoint(
            process, mode=mode, config=ProtocolConfig(keep_stopped=True))
        return image

    image = eng.run_process(driver(eng))
    eng.run()
    assert image.finalized
    assert process.runtime.cpu_stopped


def test_cow_abort_falls_back_to_stop_world():
    """Matrix row 3: mis-speculation aborts CoW; the phase driver's
    commit/abort phase produces a consistent stop-the-world retry."""
    eng, machine, phos, process, _ = make_world()
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        hidden = app.bufs["out"]
        sneaky = build_global_writer("sneaky", "hidden_out", hidden.addr)
        yield from quiesce(eng, [process])
        # Exercise alias dispatch on the abort path too.
        handle = phos.checkpoint(process, mode="soft-cow")
        yield from process.runtime.launch_kernel(
            0, sneaky, [app.bufs["input"].addr, 8], 8,
            cost=KernelCost(flops=1e9), sync=True,
        )
        image, session = yield handle
        return image, session

    image, session = eng.run_process(driver(eng))
    eng.run()
    assert session.aborted
    assert image.finalized
    assert image.name.endswith("-retry")
    got = image_gpu_state(image)
    live, _ = snapshot_process(process)
    for key in got:
        assert got[key] == live[key]


def test_cow_incremental_parent_through_registry():
    """Matrix row 4: parent= (incremental CoW) skips unwritten buffers
    and still captures the exact t1 state."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        parent, _ = yield phos.checkpoint(process, mode="cow", name="base")
        yield from app.run(2, start=2)
        yield from quiesce(eng, [process])
        expected, _ = snapshot_process(process)
        child, session = yield phos.checkpoint(
            process, mode="cow", config=ProtocolConfig(parent=parent))
        return expected, child, session

    expected, child, session = eng.run_process(driver(eng))
    eng.run()
    assert not session.aborted
    assert image_gpu_state(child) == expected
    assert session.stats.bytes_skipped_incremental > 0


@pytest.mark.parametrize("mode", RESTORE_NAMES)
def test_restore_protocols_roundtrip(mode):
    """Both restore protocols bring back the exact checkpointed bytes."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, _ = yield phos.checkpoint(process, mode="cow")
        expected = image_gpu_state(image)
        machine2 = Machine(eng, name="m2", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)
        new_process, _frontend, session = yield from phos2.restore(
            image, gpu_indices=[0], machine=machine2, mode=mode)
        if session is not None:
            yield session.done
        got, _ = snapshot_process(new_process)
        return expected, got

    expected, got = eng.run_process(driver(eng))
    eng.run()
    assert expected == got


# -- composition: incremental is recopy + a delta seal ------------------------------

def _t2_checkpoint(mode):
    """One t2-cut checkpoint of the toy app while it keeps iterating."""
    eng, machine, phos, process, _ = make_world()
    app = ToyApp(process, buf_size=64 * MIB, kernel_flops=1e9)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        handle = phos.checkpoint(process, mode=mode)
        runner = eng.spawn(app.run(6, start=2))
        image, session = yield handle
        yield runner
        return image, session

    with obs.timeline(eng) as spans:
        image, session = eng.run_process(driver(eng))
        eng.run()
    return spans, image, session


def test_incremental_without_parent_is_recopy_plus_seal():
    """A chain-root ``incremental`` run is the recopy skeleton with a
    delta seal at commit: same final quiesce, same cut time, same bytes,
    and the same ``recopy`` phase row in the report."""
    from repro.core.report import checkpoint_report
    from repro.storage.delta import materialize

    r_spans, r_image, r_session = _t2_checkpoint("recopy")
    d_spans, d_image, d_session = _t2_checkpoint("incremental")
    assert r_session.stats.bytes_recopied > 0  # the recopy pass did work
    assert d_session.final_quiesce_start == r_session.final_quiesce_start
    assert d_image.checkpoint_time == r_image.checkpoint_time
    full = materialize(d_image)
    assert image_gpu_state(full) == image_gpu_state(r_image)
    assert full.cpu_pages == r_image.cpu_pages

    def recopy_rows(spans, image, session):
        report = checkpoint_report(image, session, spans)
        return [line for line in report.splitlines()
                if line.split()[:1] == ["recopy"]]

    rows = recopy_rows(r_spans, r_image, r_session)
    assert len(rows) == 1
    assert recopy_rows(d_spans, d_image, d_session) == rows


# -- hw-dirty reachability (daemon, SDK, CLI) --------------------------------------

def test_hw_dirty_restorable_through_daemon():
    """The once-orphaned hw-dirty protocol is a first-class citizen:
    its image carries module/context metadata and restores cleanly."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        image, session = yield phos.checkpoint(process, mode="hw-dirty")
        assert not session.aborted
        expected = image_gpu_state(image)
        machine2 = Machine(eng, name="m2", n_gpus=1)
        phos2 = Phos(eng, machine2, use_context_pool=False)
        new_process, _f, rsession = yield from phos2.restore(
            image, machine=machine2)
        yield rsession.done
        got, _ = snapshot_process(new_process)
        return expected, got

    expected, got = eng.run_process(driver(eng))
    eng.run()
    assert expected == got


def test_hw_dirty_through_sdk():
    eng, machine, phos, process, app = make_world()
    sdk = PhosSdk(phos, process)
    assert "hw-dirty" in sdk.protocols()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        assert sdk.checkpoint(name="hw", mode="hw-dirty")
        yield from sdk.wait_inflight()

    eng.run_process(driver(eng))
    eng.run()
    assert sdk.last_image is not None
    assert sdk.last_image.name == "hw"


def test_cli_accepts_every_registered_mode():
    parser = build_parser()
    for mode in CHECKPOINT_NAMES:
        args = parser.parse_args(["checkpoint", "--mode", mode])
        assert args.mode == mode
    with pytest.raises(SystemExit):
        parser.parse_args(["checkpoint", "--mode", "quantum"])


#: ``phos protocols``: (kind, name) -> (aliases, supported config
#: fields).  ``parent`` (with its ``content_chunk_bytes``) is a field of
#: ``cow`` and of the recopy rows alike; ``incremental`` has recopy's set.
PROTOCOL_TABLE = {
    ("checkpoint", "continuous"): (
        "-", "bandwidth_scale, chunk_bytes, content_chunk_bytes, "
        "coordinated, drain_tiers, interval, max_retries, "
        "parent, prioritized, rounds"),
    ("checkpoint", "cow"): (
        "copy-on-write, soft-cow",
        "chunk_bytes, content_chunk_bytes, coordinated, cow_pool_bytes, "
        "max_retries, parent, prioritized"),
    ("checkpoint", "hw-dirty"): (
        "hw-recopy, hw_dirty",
        "chunk_bytes, keep_stopped, max_retries"),
    ("checkpoint", "incremental"): (
        "delta", "bandwidth_scale, chunk_bytes, content_chunk_bytes, "
        "coordinated, keep_stopped, max_retries, parent, precopy_rounds, "
        "prioritized"),
    ("checkpoint", "recopy"): (
        "soft-recopy", "bandwidth_scale, chunk_bytes, content_chunk_bytes, "
        "coordinated, keep_stopped, max_retries, parent, precopy_rounds, "
        "prioritized"),
    ("checkpoint", "stop-world"): (
        "stop-the-world, stop_world",
        "baseline, keep_stopped, max_retries"),
    ("restore", "concurrent"): (
        "concurrent-restore, on-demand", "bandwidth_scale, chunk_bytes, "
        "max_retries, prioritized, skip_data_copy"),
    ("restore", "stop-world"): (
        "stop-the-world, stop_world",
        "baseline, max_retries"),
}


def test_cli_protocols_subcommand_lists_table():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["protocols"])
    assert rc == 0
    out = buf.getvalue()
    for name in CHECKPOINT_NAMES:
        assert name in out
    assert " -> ".join(CHECKPOINT_PHASES) in out
    assert " -> ".join(RESTORE_PHASES) in out
    rows = [line for line in out.splitlines()[1:] if not line.startswith(" ")]
    assert rows == [
        f"{kind:11s} {name:11s} {aliases:28s} {fields}"
        for (kind, name), (aliases, fields) in PROTOCOL_TABLE.items()
    ]


# -- abort-path resource accounting ------------------------------------------------

def _assert_engine_resources_quiet(machine, observer):
    """After any abort, no resource user/waiter and no open span remains."""
    for gpu in machine.gpus:
        assert list(gpu.dma.iter_users()) == []
        assert list(gpu.dma.iter_waiting()) == []
    open_spans = [n.name for n in observer.spans.iter_nodes() if n.open]
    assert open_spans == []


def test_mis_speculation_abort_releases_every_resource():
    """phase_abort (validator hit) leaves no DMA request or open span."""
    from repro import obs

    eng, machine, phos, process, _ = make_world()
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)
    observer = obs.install(eng)
    try:
        def driver(eng):
            yield from app.setup()
            yield from app.run(1)
            hidden = app.bufs["out"]
            sneaky = build_global_writer("sneaky", "hidden_out", hidden.addr)
            yield from quiesce(eng, [process])
            handle = phos.checkpoint(process, mode="cow")
            yield from process.runtime.launch_kernel(
                0, sneaky, [app.bufs["input"].addr, 8], 8,
                cost=KernelCost(flops=1e9), sync=True,
            )
            image, session = yield handle
            return image, session

        image, session = eng.run_process(driver(eng))
        eng.run()
        assert session.aborted
        assert image.finalized  # the stop-the-world retry committed
        _assert_engine_resources_quiet(machine, observer)
        aborts = sum(c.value for c in observer.metrics.find(
            "protocol/aborts"))
        assert aborts >= 1
    finally:
        obs.uninstall()


def test_crash_abort_releases_every_resource():
    """A mid-transfer crash (chaos) leaves the engine just as quiet."""
    from repro import chaos, obs
    from repro.chaos import FaultPlan, FaultSpec

    eng, machine, phos, process, app = make_world()
    observer = obs.install(eng)
    try:
        chaos.install(FaultPlan(faults=(
            FaultSpec(kind="crash-checkpointer", protocol="cow",
                      phase="transfer"),
        )), killer=phos.kill)

        def driver(eng):
            yield from app.setup()
            yield from app.run(2)
            try:
                yield phos.checkpoint(process, mode="cow")
            except CheckpointError as err:
                return err
            return None

        err = eng.run_process(driver(eng))
        eng.run()
        chaos.uninstall()
        assert err is not None
        _assert_engine_resources_quiet(machine, observer)
        # The frontend is back in pass-through mode.
        assert phos.frontend_of(process).ckpt_session is None
        assert phos.frontend_of(process).restore_session is None
    finally:
        chaos.uninstall()
        obs.uninstall()


# -- figure bit-identity regression ------------------------------------------------

def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.txt").read_text().rstrip("\n")


BREAKDOWNS = {
    "fig16": "repro.experiments.fig16_cow_breakdown",
    "fig17": "repro.experiments.fig17_recopy_breakdown",
    "fig18": "repro.experiments.fig18_restore_breakdown",
}


#: The task-driven figures at one app per direction.
REDUCED = {
    "fig11_reduced": ("repro.experiments.fig11_stall",
                      dict(checkpoint_apps=("resnet152-train",),
                           restore_apps=("resnet152-infer",))),
    "fig14_reduced": ("repro.experiments.fig14_serverless",
                      dict(apps=("resnet152-infer",))),
}


def _figure(fig: str) -> str:
    import importlib

    if fig in REDUCED:
        module, kwargs = REDUCED[fig]
        result = importlib.import_module(module).run(**kwargs)
    else:
        result = importlib.import_module(BREAKDOWNS[fig]).run()
    return result.format().rstrip("\n")


def test_fig11_reduced_matches_golden():
    assert _figure("fig11_reduced") == _golden("fig11_reduced")


def test_fig14_reduced_matches_golden():
    assert _figure("fig14_reduced") == _golden("fig14_reduced")


def _one_home():
    from repro.sim.domains import Home

    return Home(Engine(), "node0")


@pytest.mark.parametrize("new_engine", [Engine, _one_home],
                         ids=["engine", "domain"])
@pytest.mark.parametrize("fig,module", list(BREAKDOWNS.items()))
def test_breakdown_figures_match_golden(fig, module, new_engine, monkeypatch):
    """Same bytes on a plain engine and with every ``new_world`` engine
    a single home, the affinity rule armed."""
    from repro.tasks import worker

    monkeypatch.setattr(worker, "Engine", new_engine)
    assert _figure(fig) == _golden(fig)


@pytest.mark.parametrize("fig", list(REDUCED))
def test_task_figures_match_golden_on_one_home(fig, monkeypatch):
    """The probes' worlds come from ``new_world`` too, so the task
    figures take the single-home case as well."""
    from repro.tasks import worker

    monkeypatch.setattr(worker, "Engine", _one_home)
    assert _figure(fig) == _golden(fig)


@pytest.mark.parametrize("fig", [*REDUCED, *BREAKDOWNS])
def test_figures_match_golden_interpreted(fig, monkeypatch):
    """Same bytes with every kernel launch interpreted: the plan tier
    declines each one, on a plain engine."""
    from repro.perf import plans

    monkeypatch.setattr(plans, "try_fast_run", lambda *args: None)
    assert _figure(fig) == _golden(fig)
