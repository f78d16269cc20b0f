"""Layer bucketing: which layer of the stack a second of host time belongs to.

The bench measures layers from outside: a traced pass runs the workload
under stdlib ``cProfile`` and this module folds the profile into one
``self_s`` / ``calls`` pair per layer.  A layer is a set of files under
``src/repro/``; :data:`RULES` assigns every file to exactly one layer
(``test_bench.py`` fails when a new module matches no rule, so nothing
can fall into ``other`` silently).  Time spent in code outside
``src/repro/`` — C builtins, numpy, hashlib, the stdlib — is charged to
the layer that called it, through the profile's caller edges.
"""

from __future__ import annotations

from pathlib import Path

#: Layer names, in report order (ISSUE 11).  ``tasks`` also holds
#: ``baselines`` and ``experiments``; ``other`` holds the explicitly
#: listed glue modules plus everything outside ``src/repro/`` that no
#: repro frame called (the bench's own driver code).
LAYERS = (
    "gpu.interpreter", "gpu.memory", "gpu.dma", "perf.plans",
    "sim.engine", "sim.events", "sim.resources", "sim.fluid", "sim.domains",
    "api.runtime", "cpu.criu",
    "core.frontend", "core.speculation", "core.engine", "core.protocols",
    "core.retry", "core.context_pool",
    "storage.delta", "storage.hashcache", "storage.serial",
    "storage.writebehind",
    "fleet.scheduler", "fleet.snapshots",
    "apps", "tasks", "obs", "chaos", "other",
)

#: ``(path under src/repro/, layer)``.  A path ending in ``/`` covers a
#: whole package; exact files are listed for packages that span several
#: layers, so a new file there must be assigned by hand.
RULES = (
    # gpu: ISA, programs and their interpreter / memory / copy engines
    ("gpu/interpreter.py", "gpu.interpreter"),
    ("gpu/isa.py", "gpu.interpreter"),
    ("gpu/program.py", "gpu.interpreter"),
    ("gpu/assembler.py", "gpu.interpreter"),
    ("gpu/disasm.py", "gpu.interpreter"),
    ("gpu/instrument.py", "gpu.interpreter"),
    ("gpu/cost_model.py", "gpu.interpreter"),
    ("gpu/memory.py", "gpu.memory"),
    ("gpu/ranges.py", "gpu.memory"),
    ("gpu/dma.py", "gpu.dma"),
    ("gpu/stream.py", "gpu.dma"),
    ("gpu/device.py", "gpu.dma"),
    ("gpu/context.py", "gpu.dma"),
    ("gpu/__init__.py", "gpu.interpreter"),
    ("perf/", "perf.plans"),
    # sim: the discrete-event core
    ("sim/engine.py", "sim.engine"),
    ("sim/trace.py", "sim.engine"),
    ("sim/__init__.py", "sim.engine"),
    ("sim/events.py", "sim.events"),
    ("sim/resources.py", "sim.resources"),
    ("sim/fluid.py", "sim.fluid"),
    ("sim/domains.py", "sim.domains"),
    ("api/", "api.runtime"),
    ("cpu/", "cpu.criu"),
    # core: the PHOS daemon, its frontend, and the protocol driver
    ("core/frontend.py", "core.frontend"),
    ("core/speculation.py", "core.speculation"),
    ("core/signatures.py", "core.speculation"),
    ("core/validation.py", "core.speculation"),
    ("core/tracker.py", "core.speculation"),
    ("core/engine.py", "core.engine"),
    ("core/transfer.py", "core.engine"),
    ("core/protocols/", "core.protocols"),
    ("core/session.py", "core.protocols"),
    ("core/quiesce.py", "core.protocols"),
    ("core/daemon.py", "core.protocols"),
    ("core/sdk.py", "core.protocols"),
    ("core/retry.py", "core.retry"),
    ("core/context_pool.py", "core.context_pool"),
    ("core/cli.py", "other"),
    ("core/report.py", "other"),
    ("core/frequency.py", "other"),
    ("core/__init__.py", "other"),
    # storage
    ("storage/delta.py", "storage.delta"),
    ("storage/hashcache.py", "storage.hashcache"),
    ("storage/serial.py", "storage.serial"),
    ("storage/image.py", "storage.serial"),
    ("storage/writebehind.py", "storage.writebehind"),
    ("storage/media.py", "storage.writebehind"),
    ("storage/__init__.py", "storage.serial"),
    # fleet
    ("fleet/scheduler.py", "fleet.scheduler"),
    ("fleet/calibrate.py", "fleet.scheduler"),
    ("fleet/traces.py", "fleet.scheduler"),
    ("fleet/__init__.py", "fleet.scheduler"),
    ("fleet/snapshots.py", "fleet.snapshots"),
    ("apps/", "apps"),
    ("tasks/", "tasks"),
    ("baselines/", "tasks"),
    ("experiments/", "tasks"),
    ("obs/", "obs"),
    ("chaos/", "chaos"),
    # glue that belongs to no measured layer
    ("parallel/", "other"),
    ("cluster.py", "other"),
    ("units.py", "other"),
    ("errors.py", "other"),
    ("stats.py", "other"),
    ("__init__.py", "other"),
)

_MARKER = "/src/repro/"


def layer_of_relpath(rel: str) -> list[str]:
    """Every layer whose rule matches ``rel`` (a path under ``src/repro/``).

    Exactly one for a tree the rules cover; the bench's test asserts it.
    """
    return [layer for prefix, layer in RULES
            if rel == prefix or (prefix.endswith("/") and rel.startswith(prefix))]


def layer_of(filename: str) -> str | None:
    """The layer of a profiled frame's file, or None outside ``src/repro/``."""
    pos = filename.replace("\\", "/").rfind(_MARKER)
    if pos < 0:
        return None
    matches = layer_of_relpath(filename[pos + len(_MARKER):])
    return matches[0] if matches else "other"


def repro_files(src_root: Path) -> list[str]:
    """Relative paths of every module under ``src_root/repro``."""
    pkg = src_root / "repro"
    return sorted(str(p.relative_to(pkg)) for p in pkg.rglob("*.py"))


def attribute(stats: dict) -> dict[str, dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    ``self_s`` of a layer is the self time of its own functions plus the
    self time of every foreign function (C builtin, numpy, stdlib …)
    reached from it: a foreign function's time is split over its callers
    by the per-edge self time cProfile records, and a foreign caller
    passes its share on to *its* callers in proportion to the cumulative
    time of each edge.  ``calls`` counts calls to the layer's own
    functions only (primitive + recursive), which repeats exactly from
    run to run.
    """
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    own = {func: layer_of(func[0]) for func in stats}
    shares_memo: dict[tuple, dict[str, float]] = {}
    visiting: set[tuple] = set()

    def shares(func: tuple) -> dict[str, float]:
        """How a foreign ``func`` is reached: layer -> fraction (sums to 1)."""
        memo = shares_memo.get(func)
        if memo is not None:
            return memo
        if func in visiting:
            return {}  # a cycle of foreign frames adds no new caller
        visiting.add(func)
        weights: dict[str, float] = {}
        for caller, (_nc, _cc, _tt, ct) in stats[func][4].items():
            if caller not in stats:
                continue
            layer = own[caller]
            part = {layer: 1.0} if layer is not None else shares(caller)
            for name, frac in part.items():
                weights[name] = weights.get(name, 0.0) + frac * ct
        visiting.discard(func)
        total = sum(weights.values())
        result = ({name: w / total for name, w in weights.items()}
                  if total > 0.0 else {"other": 1.0})
        shares_memo[func] = result
        return result

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        if not callers:
            out["other"]["self_s"] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, (_enc, _ecc, ett, _ect) in callers.items():
            # Edge self times can under-count tt for recursive frames;
            # scale so the function's full self time is handed out.
            part_s = tt * ett / edge_total if edge_total > 0 else tt / len(callers)
            caller_layer = own.get(caller)
            if caller_layer is not None:
                out[caller_layer]["self_s"] += part_s
            elif caller in stats:
                for name, frac in shares(caller).items():
                    out[name]["self_s"] += part_s * frac
            else:
                out["other"]["self_s"] += part_s
    return out


def calls_of(stats: dict, relpath: str, funcname: str) -> int:
    """Total calls cProfile saw to ``funcname`` defined in ``src/repro/<relpath>``.

    For a generator function this counts every resumption, which is what
    the interpreter pays for.
    """
    suffix = _MARKER + relpath
    return sum(entry[1] for (filename, _line, name), entry in stats.items()
               if name == funcname and filename.replace("\\", "/").endswith(suffix))
