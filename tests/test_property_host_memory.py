"""Differential property tests: array host memory vs. the page-object oracle.

``repro.cpu.memory.HostMemory`` is a struct of five arrays with batch
operations on the checkpointer's copy path; it claims the behaviour of
the object-per-page memory it replaced (kept, with the per-page CRIU
loops that ran on it, in ``tests/reference_host_memory.py``).  Two
layers are compared:

* a hypothesis state machine drives the same random operation sequence
  — ``read``/``write``/``write_word``/``read_word`` in and out of range
  and with wrong-length payloads, every bit operation, the batch
  operations, under fault handlers that resolve, refuse or raise — into
  both memories and compares return values, exception types *and
  messages*, and after every step the bits, versions, ``dirty_pages()``
  and ``snapshot_all()``.  A batch operation's specification is the
  loop it replaced with its validation hoisted in front: check every
  index (and every payload length), then do the per-page work;
* seeded CRIU scenarios — ``dump_cow`` with concurrent faulting
  writers, ``dump_tracked`` + ``recopy_dirty``, ``dump_tracked`` against
  a parent's pages (the reference's ``dump_delta``) with and without the
  soft-dirty epoch fast path, eager ``restore`` and lazy
  ``restore`` with faults racing the background loader — run once on
  ``CriuEngine`` over arrays and once on the reference engine over
  pages: image bytes, ``CpuDumpResult``, fault counts, every
  ``stall_charge``, every virtual timestamp and the scheduler's record
  counts must be equal.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cpu.criu import CriuEngine
from repro.cpu.memory import (
    FAULT_NOT_PRESENT,
    FAULT_WRITE_PROTECTED,
    PAGE_DATA_SIZE,
    HostMemory,
)
from repro.cpu.process import HostProcess
from repro.errors import InvalidValueError
from repro.sim import Engine
from repro.storage.image import CheckpointImage
from repro.storage.media import DramMedia
from tests import reference_host_memory as reference

N_PAGES = 6


def page_bytes(fill: int) -> bytes:
    return bytes([fill % 256] * PAGE_DATA_SIZE)


# --------------------------------------------------------------------------
# the page-object side of each batch operation: the loop it replaced
# --------------------------------------------------------------------------

def ref_snapshot_pages(ref, indices):
    for index in indices:
        ref._check(index)
    return [ref.pages[index].snapshot() for index in indices]


def ref_load_pages(ref, indices, datas):
    for index in indices:
        ref._check(index)
    if len(datas) != len(indices):
        raise InvalidValueError(
            f"{len(indices)} page indices but {len(datas)} page snapshots")
    for raw in datas:
        if len(raw) != PAGE_DATA_SIZE:
            raise InvalidValueError(
                f"page snapshot must be {PAGE_DATA_SIZE} bytes, got {len(raw)}")
    for index, raw in zip(indices, datas):
        ref.pages[index].load(raw)
        ref.mark_present(index)


def ref_unprotect_pages(ref, indices):
    for index in indices:
        ref._check(index)
    for index in indices:
        ref.unprotect(index)


def ref_absent_pages(ref, indices):
    for index in indices:
        ref._check(index)
    return [index for index in indices if not ref.pages[index].present]


# --------------------------------------------------------------------------
# layer 1: the state machine
# --------------------------------------------------------------------------

any_index = st.integers(-2, N_PAGES + 1)  # a third of them out of range
payload = st.one_of(
    st.integers(0, 255).map(page_bytes),
    st.binary(min_size=PAGE_DATA_SIZE, max_size=PAGE_DATA_SIZE),
    st.binary(max_size=PAGE_DATA_SIZE + 2),  # mostly the wrong length
)
index_batch = st.one_of(
    st.lists(st.integers(0, N_PAGES - 1), unique=True, max_size=N_PAGES),
    st.lists(any_index, unique=True, max_size=4),
)


class HostMemoryMachine(RuleBasedStateMachine):
    """The same operation lands on both memories; everything observable
    about the two must stay equal."""

    def __init__(self):
        super().__init__()
        self.mem = HostMemory(N_PAGES)
        self.ref = reference.HostMemory(N_PAGES)
        self.faults = {"mem": [], "ref": []}

    # -- running one operation on both sides ------------------------------------
    def both(self, on_mem, on_ref):
        outcomes = []
        for call in (on_mem, on_ref):
            try:
                outcomes.append(("ok", call()))
            except (InvalidValueError, RuntimeError) as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1]
        assert self.faults["mem"] == self.faults["ref"]

    def same(self, name, *args):
        self.both(lambda: getattr(self.mem, name)(*args),
                  lambda: getattr(self.ref, name)(*args))

    # -- fault handlers ---------------------------------------------------------
    @rule(mode=st.sampled_from(["resolve", "load", "refuse", "raise", None]))
    def install_handler(self, mode):
        def make(side, memory, load):
            def handler(index, kind):
                self.faults[side].append((index, kind))
                if mode == "raise":
                    raise RuntimeError(f"handler gave up on page {index}")
                if mode == "refuse":
                    return
                if kind == FAULT_WRITE_PROTECTED:
                    memory.unprotect(index)
                elif mode == "load":
                    load(memory, [index], [page_bytes(0xE0 + index)])
                else:
                    assert kind == FAULT_NOT_PRESENT
                    memory.mark_present(index)
            return handler

        if mode is None:
            self.mem.fault_handler = self.ref.fault_handler = None
        else:
            self.mem.fault_handler = make("mem", self.mem,
                                          HostMemory.load_pages)
            self.ref.fault_handler = make("ref", self.ref, ref_load_pages)

    # -- the process's scalar accesses ------------------------------------------
    @rule(index=any_index)
    def read(self, index):
        self.same("read", index)

    @rule(index=any_index)
    def read_word(self, index):
        self.same("read_word", index)

    @rule(index=any_index, raw=payload)
    def write(self, index, raw):
        self.same("write", index, raw)

    @rule(index=any_index, value=st.integers(-3, 2 ** 64 + 3))
    def write_word(self, index, value):
        self.same("write_word", index, value)

    # -- the checkpointer's bit operations ----------------------------------------
    @rule(name=st.sampled_from(["clear_soft_dirty", "protect_all",
                                "unprotect_all", "mark_all_not_present"]))
    def whole_space(self, name):
        self.same(name)

    @rule(name=st.sampled_from(["unprotect", "mark_present"]), index=any_index)
    def one_bit(self, name, index):
        self.same(name, index)

    # -- the checkpointer's batch operations ----------------------------------------
    @rule(indices=index_batch)
    def snapshot_pages(self, indices):
        self.both(lambda: self.mem.snapshot_pages(indices),
                  lambda: ref_snapshot_pages(self.ref, indices))

    @rule(indices=index_batch, data=st.data())
    def load_pages(self, indices, data):
        n = data.draw(st.sampled_from([len(indices)] * 4 + [len(indices) + 1]))
        datas = data.draw(st.lists(payload, min_size=n, max_size=n))
        self.both(lambda: self.mem.load_pages(indices, datas),
                  lambda: ref_load_pages(self.ref, indices, datas))

    @rule(indices=index_batch)
    def unprotect_pages(self, indices):
        self.both(lambda: self.mem.unprotect_pages(indices),
                  lambda: ref_unprotect_pages(self.ref, indices))

    @rule(indices=index_batch)
    def absent_pages(self, indices):
        self.both(lambda: self.mem.absent_pages(indices),
                  lambda: ref_absent_pages(self.ref, indices))

    # -- everything observable, after every step ------------------------------------
    @invariant()
    def same_state(self):
        pages = self.ref.pages
        assert self.mem.present.tolist() == [p.present for p in pages]
        assert self.mem.write_protected.tolist() == [p.write_protected
                                                     for p in pages]
        assert self.mem.soft_dirty.tolist() == [p.soft_dirty for p in pages]
        assert self.mem.version.tolist() == [p.version for p in pages]
        assert self.mem.dirty_pages() == self.ref.dirty_pages()
        assert all(type(i) is int for i in self.mem.dirty_pages())
        assert self.mem.snapshot_all() == self.ref.snapshot_all()
        assert all(type(raw) is bytes for raw in self.mem.snapshot_all())


TestHostMemoryMachine = HostMemoryMachine.TestCase
TestHostMemoryMachine.settings = settings(
    max_examples=250, stateful_step_count=40, deadline=None, derandomize=True)


# --------------------------------------------------------------------------
# layer 2: CRIU scenarios, batch path vs per-page loops
# --------------------------------------------------------------------------

class _Side:
    """One implementation under test: a CRIU engine class and the memory
    class its processes get, and the name of its dump against a
    parent's pages (``CriuEngine.dump_tracked`` given ``parent_pages``;
    the reference keeps its separate ``dump_delta``)."""

    def __init__(self, criu_cls, memory_cls, delta_dump):
        self.criu_cls = criu_cls
        self.memory_cls = memory_cls
        self.delta_dump = delta_dump

    def process(self, n_pages, page_size):
        proc = HostProcess(n_pages, name="app", page_size=page_size)
        proc.memory = self.memory_cls(n_pages, page_size=page_size)
        return proc


ARRAYS = _Side(CriuEngine, HostMemory, "dump_tracked")
PAGES = _Side(reference.CriuEngine, reference.HostMemory, "dump_delta")


def run_scenario(seed: int, side: _Side) -> list:
    """One seeded checkpoint/restore story; returns everything observable."""
    rng = random.Random(seed)
    n_pages = rng.choice([3, 64, 700, 4100, 9000])
    page_size = rng.choice([4096, 4096, 2 << 20])
    threads = rng.choice([1, 2, 8])
    eng = Engine()
    medium = DramMedia(eng)
    criu = side.criu_cls(eng, dump_threads=threads)
    proc = side.process(n_pages, page_size)
    for index in rng.sample(range(n_pages), min(n_pages, 200)):
        proc.memory.write(index, page_bytes(index + 1))
    proc.registers["pc"] = seed
    log = []

    # How long one pass over the address space takes, to aim the racers.
    span = n_pages * page_size / 20e9

    def writer(memory, count, tag):
        """Writes racing whatever else runs; faults are taken inline."""
        for k in range(count):
            yield eng.timeout(rng.uniform(0, 3 * span / count))
            index = rng.randrange(n_pages)
            try:
                if rng.random() < 0.3:
                    got = memory.read(index)
                else:
                    got = memory.write_word(index, 1000 * seed + k)
            except InvalidValueError as err:
                # A page the image never held stays non-present once
                # the lazy session has uninstalled its handler.
                got = str(err)
            log.append((tag, eng.now, index, got))

    def image_state(image):
        return (dict(image.cpu_pages), image.cpu_control, image.cpu_page_size,
                getattr(image, "stored_page_bytes", None))

    def story():
        mode = rng.choice(["cow", "tracked", "delta", "delta"])
        image = CheckpointImage(name=f"img{seed}")
        racer = eng.spawn(writer(proc.memory, rng.randrange(0, 60), "w-dump"))
        if mode == "cow":
            result = yield from criu.dump_cow(proc, image, medium)
        else:
            result = yield from criu.dump_tracked(proc, image, medium)
        log.append(("dumped", mode, eng.now, result, image_state(image)))
        yield racer
        if mode != "cow":
            dirty = result.dirty_after_copy
            if rng.random() < 0.5:
                dirty = proc.memory.dirty_pages()
            n = yield from criu.recopy_dirty(proc, image, medium, dirty)
            log.append(("recopied", eng.now, n, image_state(image)))
        image.finalize(eng.now)
        if mode == "delta":
            # A second, incremental dump against the first image: with
            # its id (the soft-dirty epoch fast path) or without (scan).
            racer = eng.spawn(writer(proc.memory, rng.randrange(0, 60), "w-gap"))
            yield racer
            delta = CheckpointImage(name=f"delta{seed}")
            racer = eng.spawn(writer(proc.memory, rng.randrange(0, 30),
                                     "w-delta"))
            named = rng.choice([image.id, None, "someone-else"])
            result = yield from getattr(criu, side.delta_dump)(
                proc, delta, medium, dict(image.cpu_pages), parent_id=named)
            log.append(("delta", eng.now, result, image_state(delta),
                        "epoch" if named == image.id else "scan"))
            yield racer
            n = yield from criu.recopy_dirty(proc, delta, medium,
                                             proc.memory.dirty_pages())
            log.append(("delta-recopied", eng.now, n, image_state(delta)))
            image.cpu_pages.update(delta.cpu_pages)  # what restores below
        # Restore into a fresh process: eager, or lazy with a toucher
        # racing the background loader.
        fresh = side.process(n_pages, page_size)
        if rng.random() < 0.2:  # a sparse image: some pages never captured
            for index in rng.sample(sorted(image.cpu_pages),
                                    len(image.cpu_pages) // 3):
                del image.cpu_pages[index]
        on_demand = rng.random() < 0.6
        session = yield from criu.restore(image, fresh, medium,
                                          on_demand=on_demand)
        log.append(("restore-started", eng.now, on_demand))
        if session is not None:
            toucher = eng.spawn(writer(fresh.memory, rng.randrange(0, 40),
                                       "w-lazy"))
            for _ in range(rng.randrange(0, 4)):
                yield eng.timeout(rng.uniform(0, span))
                log.append(("charge", eng.now, session.faults,
                            session.take_stall_charge()))
            yield session.done
            log.append(("lazy-done", eng.now, session.faults,
                        session.take_stall_charge()))
            yield toucher
        log.append(("restored", eng.now, fresh.memory.snapshot_all(),
                    fresh.memory.dirty_pages(), fresh.registers,
                    proc.memory.snapshot_all(), proc.memory.dirty_pages()))

    eng.run_process(story())
    eng.run()
    log.append(("end", eng.now, eng.events_scheduled, eng.events_executed))
    return log


@pytest.mark.parametrize("chunk", range(6))
def test_criu_scenarios_match_the_per_page_loops(chunk):
    for seed in range(chunk * 25, (chunk + 1) * 25):
        got = run_scenario(seed, ARRAYS)
        want = run_scenario(seed, PAGES)
        assert len(got) == len(want), f"scenario seed {seed}"
        for mine, theirs in zip(got, want):
            assert mine == theirs, f"scenario seed {seed}: {mine[0]}"


def test_scenarios_reach_every_path():
    """The seeds above cover each dump mode, both restore modes, CoW and
    lazy faults, the epoch fast path and the full scan."""
    seen = set()
    for seed in range(150):
        for entry in run_scenario(seed, ARRAYS):
            if entry[0] == "dumped":
                seen.add(entry[1])
                if entry[3].cow_faults:
                    seen.add("cow-fault")
                if entry[3].dirty_after_copy:
                    seen.add("dirty-after-copy")
            elif entry[0] == "restore-started":
                seen.add("lazy" if entry[2] else "eager")
            elif entry[0] == "lazy-done" and entry[2]:
                seen.add("lazy-fault")
            elif entry[0] == "delta" and entry[2].pages_copied:
                seen.add(entry[4])
    assert seen == {"cow", "tracked", "delta", "cow-fault",
                    "dirty-after-copy", "eager", "lazy", "lazy-fault",
                    "epoch", "scan"}
