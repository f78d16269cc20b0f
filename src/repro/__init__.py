"""PhoenixOS (PHOS) reproduction: concurrent OS-level GPU checkpoint
and restore with validated speculation, on a simulated GPU substrate.

Public entry points::

    from repro import Engine, Machine, Worker, get_spec

    engine = Engine()
    worker = Worker(engine, Machine(engine, n_gpus=8), system="phos")
    worker.launch(get_spec("llama2-13b-train"))
    handle = worker.checkpoint("cow")      # awaitable (image, session)

See README.md for the full tour, DESIGN.md for the architecture, and
EXPERIMENTS.md for the paper-vs-measured results.
"""

from repro.sim import Engine

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "Machine",
    "Phos",
    "PhosSdk",
    "Worker",
    "get_spec",
    "provision",
    "__version__",
]


def __getattr__(name):
    # Lazy imports keep `import repro` light and avoid import cycles.
    if name == "Machine":
        from repro.cluster import Machine

        return Machine
    if name == "Phos":
        from repro.core.daemon import Phos

        return Phos
    if name == "PhosSdk":
        from repro.core.sdk import PhosSdk

        return PhosSdk
    if name == "Worker":
        from repro.tasks.worker import Worker

        return Worker
    if name == "provision":
        from repro.apps.base import provision

        return provision
    if name == "get_spec":
        from repro.apps.specs import get_spec

        return get_spec
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
