"""One compile per kernel body: programs with one content share a ``Body``.

A body is interned by its decoded table plus ``globals_`` in a
weak-valued table (``repro.gpu.isa``).  Programs that share one compile
its plans and instrument its twin once, while every launch, twin and
violation still names its own kernel.  Mutants this file catches:

* a body key without ``globals_`` (``test_content_differences_do_not_share``);
* one twin ``Program`` shared across names (``test_shared_body_traces_once_and_names_each_kernel``);
* a strong intern table (``test_dropped_programs_free_their_body``).
"""

import gc
import pickle
import weakref

from repro.gpu import instrument as instrument_mod
from repro.gpu import isa
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.isa import Instr, Op, Program
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import build_copy, build_global_reader, build_scale
from repro.gpu.ranges import RangeSet
from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats
from repro.units import MIB

N = 8
#: An immediate no other test uses, so the bodies here start unshared.
FACTOR = 7919


def _memory():
    mem = DeviceMemory(capacity=4 * MIB, default_data_size=8 * N)
    x, y = mem.alloc(8 * N, tag="x"), mem.alloc(8 * N, tag="y")
    for i in range(N):
        x.store_word(x.addr + 8 * i, i + 1)
    return mem, x, y


def test_shared_body_traces_once_and_names_each_kernel(monkeypatch):
    ka = build_scale(name="ka", factor=FACTOR)
    kb = build_scale(name="kb", factor=FACTOR)
    assert ka.body is kb.body and ka != kb

    rewrites = []
    rewrite = instrument_mod._rewrite
    monkeypatch.setattr(instrument_mod, "_rewrite",
                        lambda *a: rewrites.append(a) or rewrite(*a))
    ta = instrument_program(ka, check_reads=True)
    tb = instrument_program(kb, check_reads=True)
    assert len(rewrites) == 1                      # kb wraps ka's rewrite
    assert ta.body is tb.body and ta is not tb
    assert (ta.name, tb.name) == ("ka", "kb")
    assert (ta.decl, tb.decl) == (ka.decl, kb.decl)
    assert (ta.instrs, ta.labels) == (tb.instrs, tb.labels)
    assert ka.twins == {True: ta} and kb.twins == {True: tb}

    mem, x, y = _memory()
    args = [x.addr, y.addr, N]
    reset_plan_cache_stats()
    runs = [run_kernel(p, args, N, mem) for p in (ka, kb, ka, kb)]
    covered = ValidationState(read_ranges=RangeSet([(x.addr, x.end)]),
                              write_ranges=RangeSet([(y.addr, y.end)]))
    runs += [run_kernel(t, args, N, mem, validation=covered)
             for t in (ta, tb, ta, tb)]
    assert plan_cache_stats() == {"hit": 8, "miss": 2, "fallback": 0}
    assert [r.program for r in runs] == [ka, kb, ka, kb, ta, tb, ta, tb]
    assert [r.program.name for r in runs] == ["ka", "kb"] * 4
    assert [y.load_word(y.addr + 8 * i) for i in range(N)] == \
        [(i + 1) * FACTOR for i in range(N)]

    for twin in (ta, tb):
        empty = ValidationState(read_ranges=RangeSet(), write_ranges=RangeSet())
        run_kernel(twin, args, N, mem, validation=empty)
        assert len(empty.violations) == 2 * N
        assert {v.kernel for v in empty.violations} == {twin.name}


def test_same_instructions_under_other_label_names_get_their_own_twin():
    """Label names are not part of a body, so the shared rewrite is only
    reused for equal instructions; the twin is still the program's own."""
    def build(label):
        instrs = [Instr(Op.TID, rd=0), Instr(Op.SETI, rd=1, imm=N),
                  Instr(Op.BGE, ra=0, rb=1, label=label),
                  Instr(Op.MULI, rd=2, ra=0, imm=8),
                  Instr(Op.STG, ra=2, rb=0), Instr(Op.EXIT)]
        return Program(name="k", decl="void k()", instrs=instrs,
                       labels={label: 5})

    a, b = build("end"), build("done")
    assert a.body is b.body
    ta, tb = instrument_program(a), instrument_program(b)
    assert ta.body is tb.body
    assert tb.labels == {"done": 6}
    assert [i.label for i in tb.instrs if i.op is Op.BGE] == ["done"]


def _variants():
    """A base program, then one that differs in one detail each."""
    def copy_with_end(end):
        prog = build_copy(name="k")
        return Program(name="k", decl=prog.decl, instrs=prog.instrs,
                       labels={"end": end})
    base = copy_with_end(len(build_copy().instrs) - 1)
    return base, {
        "branch target": copy_with_end(len(build_copy().instrs) - 2),
        "immediate": build_scale(name="k", factor=FACTOR + 1),
        "global address": build_global_reader("k", "g", 0x1000),
    }


def test_content_differences_do_not_share():
    base, variants = _variants()
    assert build_scale(name="k", factor=FACTOR + 1).body is \
        variants["immediate"].body
    assert build_scale(name="k", factor=FACTOR + 2).body is not \
        variants["immediate"].body
    assert base.body is not variants["branch target"].body
    reader = variants["global address"]
    elsewhere = build_global_reader("k", "g", 0x2000)
    assert reader.decoded == elsewhere.decoded
    assert reader.body is not elsewhere.body
    assert build_global_reader("other", "g", 0x1000).body is reader.body


def test_dropped_programs_free_their_body():
    """Reference counting alone frees a body once no program (and no body
    it is the twin of) holds it: the intern table keeps none alive."""
    gc.disable()
    try:
        progs = [build_scale(name=f"k{i}", factor=FACTOR + 3) for i in range(3)]
        twins = [instrument_program(p, check_reads=True) for p in progs]
        mem, x, y = _memory()
        covered = ValidationState(read_ranges=RangeSet([(x.addr, x.end)]),
                                  write_ranges=RangeSet([(y.addr, y.end)]))
        for prog, twin in zip(progs, twins):
            run_kernel(prog, [x.addr, y.addr, N], N, mem)
            run_kernel(twin, [x.addr, y.addr, N], N, mem, validation=covered)
        del prog, twin
        body, twin_body = weakref.ref(progs[0].body), weakref.ref(twins[0].body)
        assert body().plans and twin_body().plans
        size = len(isa._bodies)
        del progs[1:], twins
        assert body() is not None and twin_body() is not None
        del progs
        assert body() is None and twin_body() is None
        assert len(isa._bodies) == size - 2
    finally:
        gc.enable()


def test_pickled_program_runs_identically():
    prog = build_scale(name="pickled", factor=FACTOR + 4)
    clone = pickle.loads(pickle.dumps(prog))
    assert clone == prog and clone is not prog and clone.body is prog.body
    outcomes = []
    for program in (prog, clone):
        mem, x, y = _memory()
        twin = instrument_program(program, check_reads=True)
        validation = ValidationState(read_ranges=RangeSet(),
                                     write_ranges=RangeSet([(y.addr, y.end)]))
        plain = run_kernel(program, [x.addr, y.addr, N], N, mem)
        checked = run_kernel(twin, [x.addr, y.addr, N], N, mem,
                             validation=validation)
        outcomes.append((y.snapshot(), y.hw_dirty, plain.steps, checked.steps,
                         validation.violations))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][4]) == N                # the unspeculated reads of x

    # A clone loaded where the original is gone re-walks its own body.
    data = pickle.dumps(build_scale(name="alone", factor=FACTOR + 5))
    alone = pickle.loads(data)
    mem, x, y = _memory()
    run_kernel(alone, [x.addr, y.addr, N], N, mem)
    assert y.load_word(y.addr + 8) == 2 * (FACTOR + 5)


def test_replace_re_derives_the_body():
    """``dataclasses.replace`` builds a new program from its fields and
    never carries the old body over."""
    from repro.gpu.isa import replace

    prog = build_scale(name="r", factor=FACTOR + 7)
    renamed = replace(prog, name="r2")
    assert renamed.body is prog.body
    other = replace(prog, instrs=build_scale(factor=FACTOR + 8).instrs)
    assert other.body is not prog.body
    assert other.decoded == build_scale(factor=FACTOR + 8).decoded
