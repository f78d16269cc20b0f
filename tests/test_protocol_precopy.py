"""Integration tests: the iterative pre-copy extension of soft recopy."""

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import ProtocolConfig
from repro.core.quiesce import resume
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.units import MIB

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world():
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0], cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=256 * MIB, kernel_flops=1e9)
    return eng, machine, phos, process, app


def run_recopy(precopy_rounds, post_iters=12):
    eng, machine, phos, process, app = make_world()
    state = {}

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        handle = phos.checkpoint(
            process, mode="recopy",
            config=ProtocolConfig(keep_stopped=True,
                                  precopy_rounds=precopy_rounds))
        runner = eng.spawn(app.run(post_iters, start=2))
        image, session = yield handle
        # t2: quiesced — capture the reference state.
        state["gpu"], _ = snapshot_process(process)
        stall = eng.now - session.final_quiesce_start
        resume([process])
        yield runner
        return image, session, stall

    image, session, stall = eng.run_process(driver(eng))
    eng.run()
    return state["gpu"], image, session, stall


def test_precopy_image_still_equals_t2_state():
    """Correctness is invariant under pre-copy rounds."""
    t2_gpu, image, session, _ = run_recopy(precopy_rounds=3)
    got = image_gpu_state(image)
    assert set(got) == set(t2_gpu)
    for key in t2_gpu:
        assert got[key] == t2_gpu[key]


def test_precopy_moves_more_bytes_total():
    """Pre-copy rounds trade extra background copying ..."""
    _, _, plain, _ = run_recopy(precopy_rounds=0)
    _, _, iterative, _ = run_recopy(precopy_rounds=3)
    assert iterative.stats.bytes_recopied >= plain.stats.bytes_recopied


def test_precopy_converges_and_stops():
    """The round loop breaks once the delta stops shrinking; a huge
    round budget must not loop forever or change correctness."""
    t2_gpu, image, session, _ = run_recopy(precopy_rounds=50)
    got = image_gpu_state(image)
    for key in t2_gpu:
        assert got[key] == t2_gpu[key]


def test_precopy_zero_rounds_matches_base_protocol():
    t2_gpu, image, session, _ = run_recopy(precopy_rounds=0)
    got = image_gpu_state(image)
    for key in t2_gpu:
        assert got[key] == t2_gpu[key]
