"""Differential property tests: packed delta records vs. the per-chunk oracle.

``repro.storage.delta`` keeps a buffer's delta as three packed values
(``table`` / ``index`` / ``payload``), does its extent→chunk math in
plain integers and reads and writes format v2 a record at a time; it
claims the behaviour of the list-and-dict records, the numpy interval
pipeline and the chunk-at-a-time container it replaced (kept verbatim
in ``tests/reference_delta.py``).  Three layers are compared:

* **chunk math** — hypothesis-drawn and seeded extents (sorted and
  disjoint, unsorted, overlapping, touching, negative, past the end,
  empty) over awkward payload lengths: ``dirty_chunk_intervals`` must
  expand to the reference's ``dirty_chunk_indices`` and
  ``dirty_chunk_span_bytes`` must be equal;
* **chains** — one concrete script (chunk size, GPUs, buffers, tracked
  and silent writes, frees, reallocs at the same address, resizes,
  over-captures, stale epochs, CPU pages kept and dropped, explicit
  ids) is sealed round by round through both planes, with a live hash
  cache, an always-missing one, or none: the saved files must be equal
  **byte for byte**, and so must the aggregates, the six ``storage/*``
  counters, the cache entries, the materialized bytes at every depth,
  and what each plane loads from the *other's* file;
* **corruption** — a flipped stored byte, a truncated payload, swapped
  digests, a wrong, missing, revoked or cyclic parent, hand-built
  containers whose chunk references are out of order, scattered or
  out of range: same exception type and same message from both.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ReproError, TornImageError
from repro.sim import Engine
from repro.storage import delta, hashcache, serial
from repro.storage.delta import DIGEST_SIZE
from repro.storage.image import CheckpointImage, GpuBufferRecord
from tests import reference_delta as reference
from tests.test_storage_serial import rewrite_container


def _new_capture(*, name, id, parent_ref=None,
                 chunk_bytes=delta.CHUNK_BYTES, **_derived):
    """The new plane's stand-in for the reference's unsealed
    ``DeltaImage``: a plain capture remembering the parent and chunk
    size its seal takes (``parent_id``/``parent_name`` come from the
    parent)."""
    capture = CheckpointImage(name=name, id=id)
    capture.seal_args = (parent_ref, chunk_bytes)
    return capture


def _new_seal(capture, parent_full, **kwargs):
    """``seal_delta`` called as the reference's: returns the delta the
    new plane builds (the reference seals in place and returns None)."""
    parent, chunk_bytes = capture.seal_args
    return delta.seal_delta(capture, parent, parent_full,
                            chunk_bytes=chunk_bytes, **kwargs)


NEW = SimpleNamespace(
    DeltaImage=_new_capture, seal_delta=_new_seal,
    materialize=delta.materialize, save_image=serial.save_image,
    load_image=serial.load_image, BufferHashCache=hashcache.BufferHashCache,
    cached_table=lambda entry: entry.table)
REF = SimpleNamespace(
    DeltaImage=reference.DeltaImage, seal_delta=reference.seal_delta,
    materialize=reference.materialize, save_image=reference.save_image,
    load_image=reference.load_image,
    BufferHashCache=reference.BufferHashCache,
    cached_table=lambda entry: b"".join(entry.hashes))

#: The counters both planes feed at every seal.
COUNTERS = ("storage/chunks-written", "storage/chunks-reused",
            "storage/delta-bytes", "storage/hash-hit", "storage/hash-miss",
            "storage/hash-rehash-bytes")


# --------------------------------------------------------------------------
# (a) chunk math
# --------------------------------------------------------------------------

def assert_chunk_math_equal(ranges, data_len, cb):
    want = reference.dirty_chunk_indices(ranges, data_len, cb)
    assert (delta.dirty_chunk_span_bytes(ranges, data_len, cb)
            == reference.dirty_chunk_span_bytes(ranges, data_len, cb)), (
        ranges, data_len, cb)
    # The intervals: ascending, merged (a gap of at least one clean chunk
    # between neighbours), and exactly the reference's indices.
    spans = delta.dirty_chunk_intervals(ranges, data_len, cb)
    assert all(lo <= hi for lo, hi in spans)
    assert all(b_lo > a_hi + 1 for (_, a_hi), (b_lo, _) in zip(spans, spans[1:]))
    assert [i for lo, hi in spans for i in range(lo, hi + 1)] == want.tolist()


def _data_lens(cb):
    return st.one_of(
        st.sampled_from([0, 1, cb - 1, cb, cb + 1, 3 * cb, 8 * cb]),
        st.builds(lambda k, r: k * cb + r,
                  st.integers(0, 9), st.integers(0, cb - 1)))


@st.composite
def chunk_math_cases(draw):
    cb = draw(st.sampled_from([1, 2, 7, 64, 256, 1024]))
    data_len = draw(_data_lens(cb))
    reach = max(data_len, cb) + 3 * cb
    edge = st.integers(-2 * cb, reach)
    ranges = draw(st.lists(st.tuples(edge, edge), max_size=8))
    shape = draw(st.sampled_from(["raw", "sorted-disjoint", "touching"]))
    if shape == "sorted-disjoint":     # what a RangeSet iterates
        cuts = sorted({e for pair in ranges for e in pair})
        ranges = list(zip(cuts[::2], cuts[1::2]))
    elif shape == "touching":          # back to back, in and out of order
        cuts = sorted({e for pair in ranges for e in pair})
        ranges = list(zip(cuts, cuts[1:]))
        if draw(st.booleans()):
            ranges.reverse()
    return ranges, data_len, cb


@given(chunk_math_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_chunk_math_matches_the_numpy_pipeline(case):
    assert_chunk_math_equal(*case)


def test_chunk_math_seeded_and_pinned_cases():
    for ranges, data_len, cb in [
        ([], 1024, 256), ([(0, 10)], 0, 256), ([(5, 5), (9, 3)], 1024, 256),
        ([(-50, 10), (10, 20), (1000, 4000)], 1024, 256),
        ([(2000, 3000)], 1024, 256), ([(-9, -1)], 1024, 256),
        ([(0, 256), (256, 512)], 1000, 256),        # touching chunks merge
        ([(700, 701), (0, 1)], 1000, 256),          # unsorted
        ([(0, 1000), (10, 20)], 1000, 256),         # nested
        ([(999, 1000)], 1000, 256), ([(0, 1)], 1, 256), ([(0, 255)], 255, 256),
    ]:
        assert_chunk_math_equal(ranges, data_len, cb)
    rng = random.Random(21)
    for _ in range(600):
        cb = rng.choice([1, 3, 64, 256])
        data_len = rng.choice([0, 1, cb - 1, cb, rng.randrange(0, 12 * cb)])
        ranges = [(rng.randrange(-cb, data_len + 2 * cb),
                   rng.randrange(-cb, data_len + 2 * cb))
                  for _ in range(rng.randrange(0, 6))]
        assert_chunk_math_equal(ranges, data_len, cb)


def test_chunk_math_accepts_a_rangeset_and_a_generator():
    from repro.gpu.ranges import RangeSet

    pending = RangeSet([(700, 900), (0, 10), (10, 300)])
    assert_chunk_math_equal(pending, 1000, 256)
    assert delta.dirty_chunk_span_bytes(iter([(0, 1), (999, 1000)]),
                                        1000, 256) == 256 + 232


# --------------------------------------------------------------------------
# (b) chains: one script, two planes
# --------------------------------------------------------------------------

def _payload(rng, n: int) -> bytes:
    """Bytes that repeat often enough for equal chunks to occur."""
    if rng.random() < 0.3:
        return bytes([rng.randrange(4)]) * n
    return rng.randbytes(n)


def make_script(rng, max_rounds: int = 4) -> dict:
    """A concrete chain story: every byte and every choice is fixed here,
    so replaying it through either plane is the same experiment."""
    cb = rng.choice([64, 256, 1024])
    lens = [0, 1, cb - 1, cb, cb + 1, 2 * cb, 3 * cb + cb // 2, 5 * cb, 8 * cb]
    ids = iter(range(1, 10_000))
    live: dict[int, dict] = {}
    script = {"cb": cb, "cache": rng.choice(["live", "live", "miss", "none"]),
              "root": [], "rounds": []}

    def alloc(gpu, addr=None):
        bid = next(ids)
        data = _payload(rng, rng.choice(lens))
        buf = {"gpu": gpu, "addr": addr if addr is not None else 0x1000 * bid,
               "size": len(data) + rng.choice([0, 0, cb, 4096]),
               "data": bytearray(data), "tag": rng.choice(["", "w", f"b{bid}"])}
        live[bid] = buf
        return ("alloc", bid, gpu, buf["addr"], buf["size"], bytes(data),
                buf["tag"])

    n_gpus = rng.randint(1, 3)
    for gpu in range(n_gpus):
        for _ in range(rng.randint(1, 12) if gpu == 0 else rng.randint(0, 6)):
            script["root"].append(alloc(gpu))
    n_pages = rng.randint(0, 4)
    script["pages"] = {i: _payload(rng, 16) for i in range(n_pages)}

    for _ in range(rng.randint(0, max_rounds)):
        ops, captured, freed = [], set(), set()
        for bid in list(live):
            buf, roll = live[bid], rng.random()
            n = len(buf["data"])
            if roll < 0.22 and n:           # tracked write, maybe unaligned
                start = rng.randrange(n)
                piece = _payload(rng, min(n - start,
                                          rng.randint(1, max(1, 2 * cb))))
                buf["data"][start : start + len(piece)] = piece
                ops.append(("write", bid, start, piece))
                captured.add(bid)
            elif roll < 0.30 and n:         # two extents, second one first
                a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
                for start in (b, a):
                    piece = _payload(rng, min(n - start, rng.randint(1, cb)))
                    buf["data"][start : start + len(piece)] = piece
                    ops.append(("write", bid, start, piece))
                captured.add(bid)
            elif roll < 0.38 and n:         # silent: dirty, bytes unchanged
                start = rng.randrange(n)
                ops.append(("silent", bid, start,
                            min(n, start + rng.randint(1, 3 * cb))))
                captured.add(bid)
            elif roll < 0.45:               # captured although never written
                captured.add(bid)
            elif roll < 0.53:               # free (maybe captured first)
                if rng.random() < 0.3:
                    captured.add(bid)
                freed.add(bid)
                ops.append(("free", bid))
                del live[bid]
                if rng.random() < 0.6:      # realloc at the same address
                    op = alloc(buf["gpu"], addr=buf["addr"])
                    ops.append(op)
                    captured.add(op[1])
            elif roll < 0.60:               # resize in place: layout change
                data = _payload(rng, rng.choice(lens))
                buf["data"] = bytearray(data)
                buf["size"] = max(buf["size"], len(data))
                ops.append(("resize", bid, bytes(data), buf["size"]))
                captured.add(bid)
            # else untouched: a pure-reuse record
        if rng.random() < 0.3:
            op = alloc(rng.randrange(n_gpus))
            ops.append(op)
            captured.add(op[1])
        pages = {i: (page if rng.random() < 0.5 else _payload(rng, 16))
                 for i, page in script["pages"].items()}
        script["rounds"].append({
            "ops": ops, "captured": sorted(captured), "freed": sorted(freed),
            "pages": pages,
            # A stale epoch: seal against an older image than the one the
            # cache entries name — every lookup misses on its own.
            "stale": rng.random() < 0.15,
            # Also name a captured buffer as reused (written mid-window).
            "reuse_captured": rng.random() < 0.2,
        })
    return script


def full_state(full) -> dict:
    """Everything a materialized image says about its GPU buffers."""
    return {(gpu, bid): (rec.addr, rec.size, rec.tag, rec.data)
            for gpu, recs in full.gpu_buffers.items()
            for bid, rec in recs.items()}


def play(script: dict, plane, tmp_path, tag: str) -> list[dict]:
    """Seal the script's chain through one plane; one result per image."""
    cb = script["cb"]
    cache = {"live": plane.BufferHashCache, "none": lambda: None,
             "miss": type("Miss", (plane.BufferHashCache,),
                          {"valid_entry": lambda self, bid, **layout: None}),
             }[script["cache"]]()
    live: dict[int, dict] = {}
    images, results = [], []

    def apply(op):
        kind, bid = op[0], op[1]
        if kind == "alloc":
            _, _, gpu, addr, size, data, tag_ = op
            live[bid] = {"gpu": gpu, "addr": addr, "size": size,
                         "data": bytearray(data), "tag": tag_}
        elif kind == "write":
            _, _, start, piece = op
            live[bid]["data"][start : start + len(piece)] = piece
            if cache is not None:
                cache.note_write(bid, start, start + len(piece))
        elif kind == "silent":
            if cache is not None:
                cache.note_write(bid, op[2], op[3])
        elif kind == "free":    # seal_delta forgets its cache entry
            gone[bid] = live.pop(bid)
        elif kind == "resize":  # same length now and then: a tracked rewrite
            live[bid]["data"] = bytearray(op[2])
            live[bid]["size"] = op[3]
            if cache is not None:
                cache.note_write(bid, 0, max(1, len(op[2])))

    def capture(image, bid):
        buf = live.get(bid) or gone[bid]
        image.add_gpu_buffer(buf["gpu"], GpuBufferRecord(
            buffer_id=bid, addr=buf["addr"], size=buf["size"],
            data=bytes(buf["data"]), tag=buf["tag"]))

    def seal(image, parent, captured, reused, freed, pages):
        for bid in captured:
            capture(image, bid)
        for index, page in pages.items():
            image.add_cpu_page(index, page)
        image.context_meta = {"cpu_pages": len(script["pages"])}
        with obs.observed(Engine()) as observer:
            sealed = plane.seal_delta(
                image, None if parent is None else plane.materialize(parent),
                reused=reused, freed=freed, cache=cache)
        image = sealed or image     # the reference seals in place
        image.finalize(float(len(images)))
        images.append(image)
        path = tmp_path / f"{tag}-{len(images)}.phos"
        plane.save_image(image, path)
        metrics = {(inst.name, inst.labels.get("reason")): inst.value
                   for inst in observer.metrics}
        full = plane.materialize(image)
        results.append({
            "image": image, "path": path, "file": path.read_bytes(),
            "counters": {name: value for (name, _), value in metrics.items()
                         if name in COUNTERS},
            "stored": {reason: value for (name, reason), value
                       in metrics.items() if name == "storage/chunks-stored"},
            "false_dirty": metrics[("storage/chunks-false-dirty", None)]
            if plane is NEW else None,
            "aggregates": (
                image.chunks_written, image.chunks_reused,
                image.stored_chunk_bytes, image.stored_page_bytes,
                image.reused_buffers, dict(image.gpu_logical),
                image.cpu_logical_pages, image.stored_bytes(),
                image.gpu_bytes(), image.cpu_bytes(),
                image.total_buffer_count()),
            "bytes": full_state(full),
            "pages": dict(full.cpu_pages),
            "live": {(buf["gpu"], bid): (buf["addr"], buf["size"], buf["tag"],
                                         bytes(buf["data"]))
                     for bid, buf in live.items()},
            "cache": None if cache is None else {
                bid: (e.image_id, e.addr, e.size, e.data_len, e.chunk_bytes,
                      plane.cached_table(e), list(e.pending))
                for bid, e in cache.entries.items()},
        })

    gone: dict[int, dict] = {}
    for op in script["root"]:
        apply(op)
    root = plane.DeltaImage(name="root", id="chain.0", chunk_bytes=cb)
    seal(root, None, sorted(live), None, None, script["pages"])

    for k, rnd in enumerate(script["rounds"], start=1):
        gone.clear()
        for op in rnd["ops"]:
            apply(op)
        stale = rnd["stale"] and len(images) > 1
        parent = images[-2] if stale else images[-1]
        # Against an older image the cache proves nothing: capture all.
        captured = (sorted(set(live) | set(rnd["captured"])) if stale
                    else rnd["captured"])
        in_parent = {bid for recs in parent.delta_gpu.values() for bid in recs}
        reused: dict[int, set] = {}
        for bid, buf in live.items():
            if bid in in_parent and (bid not in captured
                                     or rnd["reuse_captured"]):
                reused.setdefault(buf["gpu"], set()).add(bid)
        freed: dict[int, set] = {}
        for bid in rnd["freed"]:
            freed.setdefault(gone[bid]["gpu"], set()).add(bid)
        child = plane.DeltaImage(
            name=f"round-{k}", id=f"chain.{k}", parent_id=parent.id,
            parent_name=parent.name, parent_ref=parent, chunk_bytes=cb)
        seal(child, parent, captured, reused, freed, rnd["pages"])
    return results


def assert_same_story(script, tmp_path):
    new = play(script, NEW, tmp_path, "new")
    ref = play(script, REF, tmp_path, "ref")
    assert len(new) == len(ref) == 1 + len(script["rounds"])
    for depth, (got, want) in enumerate(zip(new, ref)):
        where = f"depth {depth} of {script}"
        assert got["file"] == want["file"], where
        assert got["aggregates"] == want["aggregates"], where
        assert got["counters"] == want["counters"], where
        assert set(got["counters"]) == set(COUNTERS)
        assert got["cache"] == want["cache"], where
        assert got["bytes"] == want["bytes"] == got["live"], where
        assert got["pages"] == want["pages"], where
        # The record, field by field (a clearer failure than the file's).
        for gpu, recs in got["image"].delta_gpu.items():
            for bid, rec in recs.items():
                old = want["image"].delta_gpu[gpu][bid]
                assert rec.table == b"".join(old.hashes), where
                assert rec.index == tuple(sorted(old.chunks)), where
                assert rec.payload == b"".join(
                    old.chunks[i] for i in sorted(old.chunks)), where
    # A file written by either plane loads in the other, materializes
    # through a chain loaded the same way and re-saves identically.
    for writer, reader in ((new, REF), (ref, NEW)):
        loaded = [reader.load_image(r["path"]) for r in writer]
        by_id = {r["image"].id: back for r, back in zip(writer, loaded)}
        for r, back in zip(writer, loaded):
            full = reader.materialize(back, resolve=by_id.get)
            assert full_state(full) == r["bytes"]
            assert full.cpu_pages == r["pages"]
            again = tmp_path / "again.phos"
            reader.save_image(back, again)
            assert again.read_bytes() == r["file"]


@pytest.mark.parametrize("batch", range(10))
def test_seeded_chains_seal_save_and_materialize_identically(batch, tmp_path):
    for seed in range(batch * 52, (batch + 1) * 52):     # 520 stories
        assert_same_story(make_script(random.Random(seed)), tmp_path)


@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drawn_chains_seal_save_and_materialize_identically(
        tmp_path_factory, rng):
    assert_same_story(make_script(rng), tmp_path_factory.mktemp("drawn"))


def test_the_stories_reach_every_record_shape_and_cache_path(tmp_path):
    """The generator is only an oracle if it visits the branches: every
    record shape, a tail chunk, an empty payload, hits, misses, frees,
    reallocs, resizes, stale epochs and dropped pages all occur."""
    seen = set()
    for seed in range(120):
        script = make_script(random.Random(seed))
        results = play(script, NEW, tmp_path, "cover")
        seen.add("cache-" + script["cache"])
        for rnd in script["rounds"]:
            seen.update(op[0] for op in rnd["ops"])
            if rnd["stale"]:
                seen.add("stale")
        for result in results:
            image = result["image"]
            # Why a chunk was stored: the reasons account for every one.
            assert set(result["stored"]) == {
                "new-buffer", "dirty-changed", "rehash-changed"}
            assert sum(result["stored"].values()) == image.chunks_written == (
                result["counters"]["storage/chunks-written"])
            seen.update(reason for reason, n in result["stored"].items() if n)
            if result["false_dirty"]:
                seen.add("false-dirty")
            if result["counters"]["storage/hash-hit"]:
                seen.add("hit")
            if len(image.cpu_pages) < len(result["pages"]):
                seen.add("page-dropped")
            for recs in image.delta_gpu.values():
                for rec in recs.values():
                    n_chunks = len(rec.table) // DIGEST_SIZE
                    seen.add("empty" if not n_chunks else
                             "reuse" if not rec.index else
                             "local" if len(rec.index) == n_chunks else "mixed")
                    if rec.data_len % script["cb"]:
                        seen.add("tail")
    assert seen >= {
        "empty", "reuse", "local", "mixed", "tail", "hit", "page-dropped",
        "cache-live", "cache-miss", "cache-none", "stale", "write", "silent",
        "free", "alloc", "resize", "new-buffer", "dirty-changed",
        "rehash-changed", "false-dirty"}


# --------------------------------------------------------------------------
# (c) corruption: same exception, same message
# --------------------------------------------------------------------------

def outcome(fn):
    """``("ok", value)`` or the exception's type name and message."""
    try:
        return "ok", fn()
    except ReproError as err:
        return type(err).__name__, str(err)


def state(full):
    return {(gpu, bid): rec.data for gpu, recs in full.gpu_buffers.items()
            for bid, rec in recs.items()}


def two_level_chains(tmp_path, seed=5):
    """The same (root, child) chain in both planes, the child holding a
    mixed record (2), an all-local one (1), a pure reuse (3)."""
    rng = random.Random(seed)
    cb = 64
    base = {1: rng.randbytes(200), 2: rng.randbytes(256), 3: rng.randbytes(70)}
    script = {
        "cb": cb, "cache": "live", "pages": {0: b"p" * 16},
        "root": [("alloc", bid, 0, 0x1000 * bid, 4096, data, f"b{bid}")
                 for bid, data in base.items()],
        "rounds": [{
            "ops": [("write", 1, 0, rng.randbytes(200)),
                    ("write", 2, 70, b"\xff" * 5),
                    ("write", 2, 200, b"\xfe" * 9)],
            "captured": [1, 2], "freed": [], "pages": {0: b"q" * 16},
            "stale": False, "reuse_captured": False}],
    }
    new = play(script, NEW, tmp_path, "new")
    ref = play(script, REF, tmp_path, "ref")
    assert new[1]["image"].delta_gpu[0][2].index == (1, 3)
    return new, ref


def _repack(rec, chunks: dict):
    """Write a per-chunk view of a packed record's payload back."""
    rec.index = tuple(sorted(chunks))
    rec.payload = b"".join(chunks[i] for i in rec.index)


def _unpack(rec, cb) -> dict:
    out, at = {}, 0
    for i in rec.index:
        n = min(cb, rec.data_len - i * cb)
        out[i] = rec.payload[at : at + n]
        at += n
    return out


@pytest.mark.parametrize("buf_id", [1, 2])
@pytest.mark.parametrize("damage", [
    "flip-first", "flip-last", "truncate-1", "truncate-chunk",
    "swap-digests", "zero-digest"])
def test_in_memory_corruption_raises_the_same_error(tmp_path, buf_id, damage):
    new, ref = two_level_chains(tmp_path)
    got_rec = new[1]["image"].delta_gpu[0][buf_id]
    want_rec = ref[1]["image"].delta_gpu[0][buf_id]
    chunks = _unpack(got_rec, 64)
    assert chunks == want_rec.chunks
    first, last = min(chunks), max(chunks)
    if damage.startswith("flip"):
        i = first if damage == "flip-first" else last
        chunks[i] = bytes([chunks[i][0] ^ 1]) + chunks[i][1:]
    elif damage == "truncate-1":
        chunks[last] = chunks[last][:-1]
    elif damage == "truncate-chunk":
        chunks[last] = b""
    if damage.startswith(("flip", "truncate")):
        _repack(got_rec, chunks)
        want_rec.chunks.update(chunks)
    else:
        ds = DIGEST_SIZE
        digests = list(want_rec.hashes)
        if damage == "swap-digests":
            digests[0], digests[-1] = digests[-1], digests[0]
        else:
            digests[1] = bytes(ds)
        want_rec.hashes[:] = digests
        got_rec.table = b"".join(digests)
    got = outcome(lambda: state(NEW.materialize(new[1]["image"])))
    want = outcome(lambda: state(REF.materialize(ref[1]["image"])))
    assert got == want
    assert got[0] == "TornImageError" and "content-address" in got[1]


def test_parent_damage_raises_the_same_error(tmp_path):
    def both(mutate):
        new, ref = two_level_chains(tmp_path)
        outcomes = []
        for plane, chain in ((NEW, new), (REF, ref)):
            root, child = chain[0]["image"], chain[1]["image"]
            resolve = mutate(plane, root, child)
            outcomes.append(outcome(
                lambda: state(plane.materialize(child, resolve=resolve))))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def missing(plane, root, child):
        child.parent_ref = None
        return {}.get

    def revoked(plane, root, child):
        root.revoke("test: torn")

    def cycle(plane, root, child):
        root.parent_id, root.parent_ref = child.id, child

    def wrong_parent(plane, root, child):
        # Another root under the same id: the reused buffer's bytes differ.
        other = plane.DeltaImage(name="impostor", id=root.id, chunk_bytes=64)
        for bid, n in ((1, 200), (2, 256), (3, 70)):
            other.add_gpu_buffer(0, GpuBufferRecord(
                bid, 0x1000 * bid, 4096, bytes([bid]) * n, f"b{bid}"))
        other = plane.seal_delta(other, None) or other
        other.finalize(0.0)
        child.parent_ref = None
        return {root.id: other}.get

    def shorter_parent(plane, root, child):
        other = plane.DeltaImage(name="impostor", id=root.id, chunk_bytes=64)
        other.add_gpu_buffer(0, GpuBufferRecord(2, 0x2000, 4096, b"x" * 10))
        other = plane.seal_delta(other, None) or other
        other.finalize(0.0)
        child.parent_ref = None
        return {root.id: other}.get

    def reused_buffer_resized(plane, root, child):
        # The right bytes everywhere, but the pure-reuse buffer grew.
        full = plane.materialize(root)
        other = plane.DeltaImage(name="impostor", id=root.id, chunk_bytes=64)
        for bid, rec in full.gpu_buffers[0].items():
            other.add_gpu_buffer(0, GpuBufferRecord(
                bid, rec.addr, rec.size,
                rec.data + (b"\x00" * 58 if bid == 3 else b""), rec.tag))
        other = plane.seal_delta(other, None) or other
        other.finalize(0.0)
        child.parent_ref = None
        return {root.id: other}.get

    assert "chunk 0 is inherited but" in both(reused_buffer_resized)[1]
    assert "cannot be resolved" in both(missing)[1]
    assert "revoked" in both(revoked)[1]
    assert "cycle" in both(cycle)[1]
    assert "content-address" in both(wrong_parent)[1]
    assert "is inherited but the parent does not hold" in both(shorter_parent)[1]


def _chunks_of(meta, buf_id="2"):
    return meta["delta"]["gpu"]["0"][buf_id]["chunks"]


def reorder(meta, blobs):
    """Same references, listed last chunk first."""
    rec = meta["delta"]["gpu"]["0"]["2"]
    rec["chunks"] = dict(reversed(list(rec["chunks"].items())))


def scatter(meta, blobs):
    """Move buffer 2's first stored chunk to the end of the blob section:
    its references stay valid but are no longer back to back."""
    refs = _chunks_of(meta)
    key = min(refs, key=int)
    offset, length = refs[key]
    refs[key] = [len(blobs), length]
    return blobs + blobs[offset : offset + length]


def swapped(meta, blobs):
    """Buffer 2's two stored chunks change places on disk and in the
    listing: back to back, but the higher chunk first."""
    refs = _chunks_of(meta)
    (low, (at, n)), (high, (at2, n2)) = sorted(refs.items(),
                                               key=lambda kv: int(kv[0]))
    assert n == n2 and at2 == at + n
    blobs[at : at + n], blobs[at2 : at2 + n] = (blobs[at2 : at2 + n],
                                                blobs[at : at + n])
    meta["delta"]["gpu"]["0"]["2"]["chunks"] = {high: [at, n], low: [at2, n]}
    return blobs


def overlap(meta, blobs):
    """Two chunks served by the same bytes: valid references, wrong data."""
    refs = _chunks_of(meta)
    first, second = sorted(refs, key=int)[:2]
    refs[second] = [refs[first][0], refs[second][1]]


def past_end(meta, blobs):
    _chunks_of(meta)["1"][0] = len(blobs)


def negative(meta, blobs):
    _chunks_of(meta)["1"][0] = -1


def wrong_length(meta, blobs):
    _chunks_of(meta)["1"][1] += 1


def outside_table(meta, blobs):
    refs = _chunks_of(meta)
    refs["9"] = refs.pop("3")


def lying_header(meta, blobs):
    meta["delta"]["chunks_written"] += 1


def short_table(meta, blobs):
    meta["delta"]["gpu"]["0"]["2"]["hashes"].pop()


@pytest.mark.parametrize("mutate, message", [
    (reorder, None), (scatter, None), (swapped, None),
    (overlap, "content-address"),
    (past_end, "out of range"), (negative, "negative blob reference"),
    (wrong_length, "bytes, expected"), (outside_table, "outside its chunk"),
    (lying_header, "chunk counts in the container header"),
    (short_table, "chunk table has"),
], ids=lambda value: getattr(value, "__name__", None))
def test_hand_built_containers_load_or_fail_identically(tmp_path, mutate,
                                                        message):
    new, ref = two_level_chains(tmp_path)
    assert new[1]["file"] == ref[1]["file"]
    path = new[1]["path"]
    rewrite_container(path, mutate)
    outcomes = []
    for plane, chain in ((NEW, new), (REF, ref)):
        def load_and_materialize():
            child = plane.load_image(path)
            return state(plane.materialize(
                child, resolve={child.parent_id: chain[0]["image"]}.get))
        outcomes.append(outcome(load_and_materialize))
    assert outcomes[0] == outcomes[1]
    if message is None:     # any order, any placement: still the same bytes
        assert outcomes[0] == ("ok", {key: value[3] for key, value
                                      in new[1]["bytes"].items()})
    else:
        assert outcomes[0][0] == "TornImageError" and message in outcomes[0][1]


def test_a_record_is_checked_where_it_enters_an_image():
    """New with the packed fields: the payload must be exactly the bytes
    of the chunks ``index`` names, ``index`` ascending inside the
    payload — at insertion, before any aggregate moves."""
    def rec(**fields):
        table = b"".join(delta.hash_chunk(bytes([i]) * 64) for i in range(3))
        return delta.DeltaBufferRecord(
            buffer_id=1, addr=0x1000, size=4096, data_len=150, table=table,
            **fields)

    image = delta.DeltaImage(name="x", chunk_bytes=64)
    for bad, message in [
        (rec(index=(0,), payload=b"a" * 63), "63 payload bytes for 1 chunks"),
        (rec(index=(2,), payload=b"a" * 64), "64 payload bytes for 1 chunks"),
        (rec(payload=b"a"), "1 payload bytes for 0 chunks"),
        (rec(index=(1, 0), payload=b"a" * 128), "not an ascending run"),
        (rec(index=(1, 1), payload=b"a" * 128), "not an ascending run"),
        (rec(index=(3,), payload=b"a" * 64), "not an ascending run"),
        (rec(index=(-1,), payload=b"a" * 64), "not an ascending run"),
    ]:
        with pytest.raises(TornImageError, match=message):
            image.add_delta_record(0, bad)
    assert image.delta_gpu[0] == {} and image.chunks_written == 0
    image.add_delta_record(0, rec(index=(0, 2), payload=b"a" * 64 + b"c" * 22))
    assert (image.chunks_written, image.chunks_reused) == (2, 1)
    assert image.stored_chunk_bytes == 86

    # A payload swapped in after insertion is caught by both readers.
    image.delta_gpu[0][1].payload += b"!"
    with pytest.raises(TornImageError, match="87 payload bytes for 2 chunks"):
        serial._layout_v2(image)
    data = b"\x00" * 64 + b"\x01" * 64
    image = delta.DeltaImage(name="y", chunk_bytes=64)
    image.add_delta_record(0, delta.DeltaBufferRecord(
        buffer_id=1, addr=0x1000, size=4096, data_len=128,
        table=delta.chunk_table(data, 64), index=(0, 1), payload=data))
    image.finalize(0.0)
    assert delta.materialize(image).gpu_buffers[0][1].data == data
    image.delta_gpu[0][1].payload = data + b"extra"
    with pytest.raises(TornImageError, match="133 payload bytes for 2 chunks"):
        delta.materialize(image)
