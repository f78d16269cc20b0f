"""Twin-kernel management: the runtime half of validated speculation.

Implements the Fig. 6 workflow: the first time an opaque kernel is seen
(including JIT-compiled ones), PHOS generates its instrumented *twin*
and caches it in the program's ``twins`` field — instrumentation
happens once per binary, however many processes launch it.  During an
active checkpoint or restore, launches of opaque kernels are redirected
to the twin with a :class:`~repro.gpu.interpreter.ValidationState`
carrying the speculated ranges; outside those windows the original
binary runs and no overhead is paid (§4.1: "they are not invoked
without checkpoint").

Fast-path interaction (``repro.perf``): twin launches are eligible for
compiled execution plans like any other launch, but a plan only serves
an instrumented twin after proving — via
:meth:`~repro.gpu.interpreter.ValidationState.covers` — that every CHK
group's address hull falls inside the speculated ranges, i.e. that the
per-access checks would have produced zero violations.  Any launch that
*would* record a violation therefore always runs in the interpreter, so
the ``Violation`` lists collected here are identical with the fast path
on or off (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.api.calls import ApiCall
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import Violation
from repro.gpu.isa import Program


@dataclass
class ValidationStats:
    """Counters behind Fig. 15(c): how much instrumentation happened."""

    kernels_seen: set[str] = field(default_factory=set)
    kernels_instrumented: set[str] = field(default_factory=set)
    launches_total: int = 0
    launches_instrumented: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def instrumented_kernel_ratio(self) -> float:
        if not self.kernels_seen:
            return 0.0
        return len(self.kernels_instrumented) / len(self.kernels_seen)

    @property
    def instrumented_launch_ratio(self) -> float:
        if self.launches_total == 0:
            return 0.0
        return self.launches_instrumented / self.launches_total


class TwinCache:
    """Per-process cache of instrumented twin kernels."""

    def __init__(self) -> None:
        #: ``(kernel name, check_reads)`` pairs already counted.
        self._counted: set[tuple[str, bool]] = set()
        self.stats = ValidationStats()

    def twin_for(self, program: Program, check_reads: bool = False) -> Program:
        """The instrumented twin of ``program``.

        The twin lives in the program's ``twins`` field, so it is built
        (by ``instrument_program``) once per binary and twin kind, and
        two kernels that share a name never share a twin.
        Instrumentation is counted once per kernel name and twin kind.
        """
        twin = program.twins.get(check_reads)
        if twin is None:
            twin = instrument_program(program, check_reads=check_reads)
        key = (program.name, check_reads)
        if key not in self._counted:
            self._counted.add(key)
            self.stats.kernels_instrumented.add(program.name)
            obs.counter("validator/kernels-instrumented").inc()
        return twin

    def observe_launch(self, call: ApiCall, instrumented: bool) -> None:
        """Count one kernel launch; only opaque ones reach the validator."""
        self.stats.launches_total += 1
        if not call.is_opaque:
            self.stats.kernels_seen.add(call.name)
            return
        self.stats.kernels_seen.add(call.program.name)
        obs.counter("validator/launches",
                    instrumented=instrumented).inc()
        if instrumented:
            self.stats.launches_instrumented += 1

    def record_violations(self, violations: list[Violation]) -> None:
        self.stats.violations.extend(violations)
        if violations:
            obs.counter("validator/violations").inc(len(violations))
