"""Compiled kernel execution plans: trace, specialize, vectorize.

The scalar interpreter (:mod:`repro.gpu.interpreter`) runs threads
sequentially, one instruction at a time, and pays Python-level dispatch
for every LDG/STG.  Most kernel traffic in this repository (the opaque
workload suite: copy/scale/fill/axpy and friends) is *affine*: control
flow is uniform across threads, and every memory address is an affine
function of the kernel arguments, the thread id, and the loop iteration.
Such launches can be executed as a handful of numpy gathers/computes/
scatters over the :class:`~repro.gpu.memory.Buffer` word views — after
proving the result is identical to sequential interpretation.

How a plan is built
-------------------

``try_fast_run`` keys the cache a program's shared
:class:`~repro.gpu.isa.Body` declares for it (its ``plans`` field,
which only this module fills — so every program with one body compiles
once) by ``(n_threads, len(args))`` plus a *specialization signature*:
the values of the arguments that feed branch conditions or MOD divisors
(discovered during tracing).  On a miss, the launch is traced
symbolically over :attr:`Program.decoded` — the same pre-decoded table
the interpreter runs, so there is one decode and the two tiers cannot
disagree about an operand — vectorized over threads:

* every register holds a concrete value (int, or a uint64 vector over
  tids), an affine form ``c0 + Σ ci·arg_i + ct·tid`` when one exists,
  and a taint flag — values derived from LDG are *tainted* and carry an
  expression DAG instead of a concrete value;
* branches must be untainted and **uniform** across threads (their arg
  dependencies go into the signature, so replays with equal signature
  values provably follow the traced path);
* LDG/STG/CHK addresses must be untainted and affine;
* anything else — GLOB, tainted/divergent branches, tainted addresses
  or divisors, out-of-range arguments, step-budget overruns — aborts
  the trace and the launch falls back to the interpreter, counted in
  ``perf/plan_cache/fallback`` under the labels of docs/performance.md's
  "Fallback taxonomy".  An abort on an argument *value* (out of range,
  a zero divisor, the step budget, a divergent branch whose condition
  reads an argument) is remembered for that argument tuple only; any
  other abort for the whole key (or, once a plan exists, for its
  signature values).

The traced access sites are then grouped by pc.  A pc that executed
``k`` times (an affine loop) must show a constant per-iteration address
delta, giving the site group the closed form ``addr(j, tid) = base +
dj·j + ct·tid`` — exactly a coalesced strided range.  Store values are
merged across iterations by shape-matching their expression DAGs.

``_bind`` evaluates the affine forms against the actual arguments and
proves, before touching any byte:

* every access lands word-aligned inside a single buffer's materialized
  prefix (otherwise the interpreter's fault semantics must apply — fall
  back);
* all store addresses are pairwise distinct and no load overlaps a
  store except *lane-identically before it* (the in-place
  read-modify-write pattern) — this makes vectorized all-loads-then-
  all-stores equal to sequential per-thread execution;
* for instrumented twins: each CHK group's address hull is contained in
  the speculated range set (:meth:`ValidationState.covers`), which
  proves the per-access checks would produce **zero** violations.  A
  launch that would produce violations is never served by a plan — it
  falls back, and the interpreter reports the identical violation list.

The proof is a pure function of the plan, the argument tuple and the
buffer layout, so its record (each group's buffer and word indices,
the conflict verdicts, the CHK hulls) — or its failure — is kept in one
slot per plan on the :class:`~repro.gpu.memory.DeviceMemory`, keyed by
the argument tuple; ``alloc``, ``alloc_at`` and ``free`` flush it.  A
plan itself never references a buffer.  What depends on the launch is
redone every time: the step budget and used-argument range checks, the
CHK hulls against *that launch's* ``ValidationState.covers``, value
evaluation (gathering load groups at most once), scatter, and dirty
bits.  Like the interpreter, a plan records no per-access log.

Equivalence guarantees (enforced, not assumed):

* bytes and dirty bits: store sets are conflict-free, so lockstep
  equals sequential;
* steps: every thread runs the traced path, so a launch counts
  ``steps_per_thread * n_threads``;
* violations: plans only run when provably violation-free;
* faults: plans mutate nothing until every precondition is proven, so a
  fallback launch replays the interpreter's exact fault behaviour.

``run_kernel(force_interpret=True)`` bypasses everything here.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpu.isa import (
    NUM_REGS, OP_ADD, OP_ADDI, OP_ARG, OP_BEQ, OP_BGE, OP_BLT, OP_BNE, OP_CHK,
    OP_EXIT, OP_GLOB, OP_JMP, OP_LDG, OP_MOD, OP_MOV, OP_MUL, OP_MULI, OP_NTID,
    OP_SETI, OP_STG, OP_SUB, OP_TID, AccessKind, Program,
)
from repro.gpu.memory import WORD, DeviceMemory

_MASK64 = (1 << 64) - 1

#: Hard cap on traced instructions per thread: beyond this a kernel is
#: not "a few affine loops" and tracing costs more than it saves.
_TRACE_STEP_CAP = 4096

_U3 = np.uint64(3)


class _Abort(Exception):
    """Raised during trace/compile when equivalence cannot be proven.

    ``by_value`` marks an abort caused by an argument's value rather than
    by the body: another argument tuple may trace fine.
    """

    def __init__(self, reason: str, by_value: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.by_value = by_value


# --------------------------------------------------------------------------
# affine forms: c0 + sum(ci * arg_i) + ct * tid
# --------------------------------------------------------------------------

class _Aff:
    __slots__ = ("c0", "coeffs", "ct")

    def __init__(self, c0: int = 0, coeffs: tuple = (), ct: int = 0) -> None:
        self.c0 = c0
        self.coeffs = coeffs  # sorted tuple of (arg_index, coeff), coeff != 0
        self.ct = ct

    def shape_key(self) -> tuple:
        return (self.coeffs, self.ct)


def _merge_coeffs(ca: tuple, cb: tuple, sb: int = 1) -> tuple:
    out: dict[int, int] = {}
    for i, c in ca:
        out[i] = out.get(i, 0) + c
    for i, c in cb:
        out[i] = out.get(i, 0) + sb * c
    return tuple(sorted((i, c) for i, c in out.items() if c))


def _aff_add(a: _Aff, b: _Aff) -> _Aff:
    return _Aff(a.c0 + b.c0, _merge_coeffs(a.coeffs, b.coeffs), a.ct + b.ct)


def _aff_sub(a: _Aff, b: _Aff) -> _Aff:
    return _Aff(a.c0 - b.c0, _merge_coeffs(a.coeffs, b.coeffs, -1), a.ct - b.ct)


def _aff_scale(a: _Aff, k: int) -> _Aff:
    if k == 0:
        return _Aff(0)
    return _Aff(a.c0 * k,
                tuple((i, c * k) for i, c in a.coeffs),
                a.ct * k)


def _aff_is_const(a: _Aff) -> bool:
    return not a.coeffs and a.ct == 0


# --------------------------------------------------------------------------
# tainted expression DAG (leaves: _Load sites, _Aff forms, _CVec vectors)
# --------------------------------------------------------------------------

class _Load:
    __slots__ = ("site",)

    def __init__(self, site: "_Site") -> None:
        self.site = site


class _Bin:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a, b) -> None:
        self.op = op
        self.a = a
        self.b = b


class _CVec:
    """An untainted per-tid vector that is replay-constant given the sig."""

    __slots__ = ("value",)

    def __init__(self, value: np.ndarray) -> None:
        self.value = value


class _Site:
    __slots__ = ("pos", "pc", "kind", "aff", "value", "group", "j")

    def __init__(self, pos: int, pc: int, kind: str, aff: _Aff,
                 value=None) -> None:
        self.pos = pos
        self.pc = pc
        self.kind = kind  # "r" | "w" | "cr" | "cw"
        self.aff = aff
        self.value = value  # store sites: _Aff | _CVec | expr node
        self.group = None
        self.j = 0


class _V:
    """Trace-time register value."""

    __slots__ = ("conc", "aff", "expr", "deps")

    def __init__(self, conc=None, aff=None, expr=None, deps=frozenset()):
        self.conc = conc  # int | np.ndarray | None (None iff tainted)
        self.aff = aff
        self.expr = expr
        self.deps = deps


_NO_DEPS: frozenset = frozenset()
_ZERO = _V(conc=0, aff=_Aff(0), deps=_NO_DEPS)


class _Trace:
    __slots__ = ("sites", "steps_per_thread", "sig", "used_args")

    def __init__(self, sites, steps_per_thread, sig, used_args):
        self.sites = sites
        self.steps_per_thread = steps_per_thread
        self.sig = sig
        self.used_args = used_args


def _leaf(v: _V, sig: set):
    """An expression leaf for ``v`` (promoting its deps into the sig)."""
    if v.expr is not None:
        return v.expr
    if v.aff is not None:
        return v.aff
    # Untainted but non-affine: the concrete value is replay-constant
    # once its arg dependencies join the specialization signature.
    sig.update(v.deps)
    if type(v.conc) is int:
        return _Aff(v.conc)
    return _CVec(v.conc)


_BIN_NAME = {OP_ADD: "add", OP_SUB: "sub", OP_MUL: "mul"}


def _trace(program: Program, args, n_threads: int, max_steps: int) -> _Trace:
    """Symbolically execute ``program`` lockstep over all threads."""
    table = program.decoded
    nargs = len(args)
    tidv = np.arange(n_threads, dtype=np.uint64)
    sig: set[int] = set()
    used_args: set[int] = set()
    sites: list[_Site] = []
    regs: list[_V] = [_ZERO] * NUM_REGS
    cap = min(max_steps, _TRACE_STEP_CAP)

    pc = 0
    steps = 0
    while True:
        if steps >= cap:
            raise _Abort("step-budget", by_value=True)
        code, rd, ra, rb, x = table[pc]
        steps += 1
        if code == OP_ARG:
            if not 0 <= x < nargs:
                raise _Abort("arg-index")
            val = int(args[x])
            if val < 0 or val > _MASK64:
                raise _Abort("arg-out-of-range", by_value=True)
            used_args.add(x)
            regs[rd] = _V(conc=val, aff=_Aff(0, ((x, 1),)),
                          deps=frozenset((x,)))
        elif OP_ADD <= code <= OP_MUL:
            a, b = regs[ra], regs[rb]
            if a.expr is not None or b.expr is not None:
                regs[rd] = _V(expr=_Bin(_BIN_NAME[code], _leaf(a, sig),
                                        _leaf(b, sig)))
            else:
                ca, cb = a.conc, b.conc
                both_int = type(ca) is int and type(cb) is int
                if code == OP_ADD:
                    conc = (ca + cb) & _MASK64 if both_int else ca + cb
                    aff = _aff_add(a.aff, b.aff) \
                        if a.aff is not None and b.aff is not None else None
                elif code == OP_SUB:
                    conc = (ca - cb) & _MASK64 if both_int else ca - cb
                    aff = _aff_sub(a.aff, b.aff) \
                        if a.aff is not None and b.aff is not None else None
                else:
                    conc = (ca * cb) & _MASK64 if both_int else ca * cb
                    aff = None
                    if a.aff is not None and b.aff is not None:
                        if _aff_is_const(a.aff):
                            aff = _aff_scale(b.aff, a.aff.c0)
                        elif _aff_is_const(b.aff):
                            aff = _aff_scale(a.aff, b.aff.c0)
                regs[rd] = _V(conc=conc, aff=aff, deps=a.deps | b.deps)
        elif code == OP_CHK:
            a = regs[ra]
            if a.aff is None:
                raise _Abort("addr-not-affine")
            kind = "cw" if x is AccessKind.WRITE else "cr"
            sites.append(_Site(len(sites), pc, kind, a.aff))
        elif code == OP_MULI:
            a = regs[ra]
            if a.expr is not None:
                regs[rd] = _V(expr=_Bin("mul", a.expr, _Aff(x & _MASK64)))
            else:
                ca = a.conc
                conc = (ca * x) & _MASK64 if type(ca) is int \
                    else ca * np.uint64(x & _MASK64)
                aff = _aff_scale(a.aff, x) if a.aff is not None else None
                regs[rd] = _V(conc=conc, aff=aff, deps=a.deps)
        elif code == OP_LDG:
            a = regs[ra]
            if a.aff is None:
                raise _Abort("addr-not-affine")
            site = _Site(len(sites), pc, "r", a.aff)
            sites.append(site)
            regs[rd] = _V(expr=_Load(site))
        elif OP_BLT <= code <= OP_BNE:
            a, b = regs[ra], regs[rb]
            if a.expr is not None or b.expr is not None:
                raise _Abort("tainted-branch")
            sig.update(a.deps)
            sig.update(b.deps)
            ca, cb = a.conc, b.conc
            if code == OP_BLT:
                taken = ca < cb
            elif code == OP_BGE:
                taken = ca >= cb
            elif code == OP_BEQ:
                taken = ca == cb
            else:
                taken = ca != cb
            if type(ca) is not int or type(cb) is not int:
                # A per-tid vector: the branch must go one way for all.
                if taken.all():
                    taken = True
                elif taken.any():
                    raise _Abort("divergent-branch",
                                 by_value=bool(a.deps or b.deps))
                else:
                    taken = False
            if taken:
                pc = x
                continue
        elif code == OP_TID:
            regs[rd] = _V(conc=tidv, aff=_Aff(ct=1), deps=_NO_DEPS)
        elif code == OP_EXIT:
            break
        elif code == OP_STG:
            a, b = regs[ra], regs[rb]
            if a.aff is None:
                raise _Abort("addr-not-affine")
            sites.append(_Site(len(sites), pc, "w", a.aff, _leaf(b, sig)))
        elif code == OP_SETI:
            regs[rd] = _V(conc=x, aff=_Aff(x), deps=_NO_DEPS)
        elif code == OP_ADDI:
            a = regs[ra]
            if a.expr is not None:
                regs[rd] = _V(expr=_Bin("add", a.expr, _Aff(x & _MASK64)))
            else:
                ca = a.conc
                conc = (ca + x) & _MASK64 if type(ca) is int \
                    else ca + np.uint64(x & _MASK64)
                aff = _Aff(a.aff.c0 + x, a.aff.coeffs, a.aff.ct) \
                    if a.aff is not None else None
                regs[rd] = _V(conc=conc, aff=aff, deps=a.deps)
        elif code == OP_JMP:
            pc = x
            continue
        elif code == OP_MOV:
            regs[rd] = regs[ra]
        elif code == OP_MOD:
            a, b = regs[ra], regs[rb]
            if b.expr is not None:
                raise _Abort("tainted-divisor")
            sig.update(b.deps)
            cb = b.conc
            if (cb == 0) if type(cb) is int else bool((cb == 0).any()):
                raise _Abort("zero-divisor", by_value=True)
            if a.expr is not None:
                regs[rd] = _V(expr=_Bin("mod", a.expr, _leaf(b, sig)))
            else:
                regs[rd] = _V(conc=a.conc % cb, aff=None,
                              deps=a.deps | b.deps)
        elif code == OP_NTID:
            regs[rd] = _V(conc=n_threads, aff=_Aff(n_threads),
                          deps=_NO_DEPS)
        elif code == OP_GLOB:
            raise _Abort("glob")
        else:
            raise _Abort(f"op-{code}")
        pc += 1
    if steps > max_steps:
        raise _Abort("step-budget", by_value=True)
    return _Trace(sites, steps, frozenset(sig), frozenset(used_args))


# --------------------------------------------------------------------------
# compile: group sites by pc into strided closed forms, merge store values
# --------------------------------------------------------------------------

class _Group:
    __slots__ = ("kind", "c0", "coeffs", "ct", "dj", "k", "first_pos",
                 "value", "jcol", "trow", "i")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.value = None
        #: Position among the plan's load groups (value nodes name it).
        self.i = -1


class _Plan:
    __slots__ = ("name", "n_threads", "steps_per_thread", "used_args",
                 "load_groups", "store_groups", "chk_groups", "tidv")


def _merge_exprs(nodes: list, k: int):
    """Merge the k per-iteration value exprs of a store group."""
    t0 = type(nodes[0])
    if any(type(x) is not t0 for x in nodes[1:]):
        raise _Abort("value-shape")
    if t0 is _Load:
        grp = nodes[0].site.group
        for j, x in enumerate(nodes):
            if x.site.group is not grp or x.site.j != j:
                raise _Abort("load-iteration-skew")
        if grp.k != k:
            raise _Abort("load-group-size")
        return ("grp", grp.i)
    if t0 is _Aff:
        shape = nodes[0].shape_key()
        if any(x.shape_key() != shape for x in nodes[1:]):
            raise _Abort("value-shape")
        c0s = [x.c0 for x in nodes]
        cj = c0s[1] - c0s[0] if k > 1 else 0
        if any(c0s[j + 1] - c0s[j] != cj for j in range(k - 1)):
            raise _Abort("value-not-affine-in-j")
        return ("aff", c0s[0], nodes[0].coeffs, nodes[0].ct, cj)
    if t0 is _CVec:
        first = nodes[0].value
        if any(not np.array_equal(x.value, first) for x in nodes[1:]):
            raise _Abort("value-shape")
        return ("cvec", first)
    if t0 is _Bin:
        opn = nodes[0].op
        if any(x.op != opn for x in nodes[1:]):
            raise _Abort("value-shape")
        return ("bin", opn,
                _merge_exprs([x.a for x in nodes], k),
                _merge_exprs([x.b for x in nodes], k))
    raise _Abort("value-shape")


def _single_expr(node):
    """Lower a single (k == 1) value expr to runtime form."""
    t = type(node)
    if t is _Load:
        return ("row", node.site.group.i, node.site.j)
    if t is _Aff:
        return ("aff", node.c0, node.coeffs, node.ct, 0)
    if t is _CVec:
        return ("cvec", node.value)
    if t is _Bin:
        return ("bin", node.op, _single_expr(node.a), _single_expr(node.b))
    raise _Abort("value-shape")


def _compile(trace: _Trace, n_threads: int) -> _Plan:
    groups: list[_Group] = []
    group_sites: list[list[_Site]] = []
    by_key: dict[tuple, int] = {}
    for s in trace.sites:
        key = (s.pc, s.kind)
        gi = by_key.get(key)
        if gi is None:
            gi = by_key[key] = len(groups)
            g = _Group(s.kind)
            g.first_pos = s.pos
            groups.append(g)
            group_sites.append([])
        s.group = groups[gi]
        s.j = len(group_sites[gi])
        group_sites[gi].append(s)
    load_groups = [g for g in groups if g.kind == "r"]
    for i, g in enumerate(load_groups):
        g.i = i

    tidv = np.arange(n_threads, dtype=np.uint64)
    for g, sites in zip(groups, group_sites):
        k = len(sites)
        base = sites[0].aff
        shape = base.shape_key()
        for s in sites[1:]:
            if s.aff.shape_key() != shape:
                raise _Abort("addr-shape")
        c0s = [s.aff.c0 for s in sites]
        dj = c0s[1] - c0s[0] if k > 1 else 0
        if any(c0s[j + 1] - c0s[j] != dj for j in range(k - 1)):
            raise _Abort("addr-not-affine-in-j")
        g.c0 = base.c0
        g.coeffs = base.coeffs
        g.ct = base.ct
        g.dj = dj
        g.k = k
        g.jcol = (np.arange(k, dtype=np.uint64)
                  * np.uint64(dj & _MASK64)).reshape(-1, 1)
        g.trow = np.uint64(base.ct & _MASK64) * tidv
        if g.kind == "w":
            if k == 1:
                g.value = _single_expr(sites[0].value)
            else:
                g.value = _merge_exprs([s.value for s in sites], k)

    plan = _Plan()
    plan.n_threads = n_threads
    plan.steps_per_thread = trace.steps_per_thread
    plan.used_args = trace.used_args
    plan.tidv = tidv
    plan.load_groups = load_groups
    plan.store_groups = [g for g in groups if g.kind == "w"]
    plan.chk_groups = [g for g in groups if g.kind in ("cr", "cw")]
    return plan


# --------------------------------------------------------------------------
# bind + execute
# --------------------------------------------------------------------------

def _group_mat(g: _Group, args) -> np.ndarray:
    base = g.c0
    for i, c in g.coeffs:
        base += c * int(args[i])
    return np.uint64(base & _MASK64) + g.jcol + g.trow  # (k, n_threads)


def _bind_group(g: _Group, args, memory: DeviceMemory):
    """A memory group's ``(buf, mat, idx, lo, hi)``; None → fall back."""
    mat = _group_mat(g, args)
    lo = int(mat.min())
    hi = int(mat.max())
    buf = memory.resolve(lo)
    if buf is None or buf.words is None:
        return None
    if hi + WORD > buf.addr + len(buf.data):
        return None
    # Word alignment of every lane, checked on the closed form (8 divides
    # 2**64, so the masked form preserves residues).  A misaligned access
    # is legal in the interpreter — it just can't use the word view.
    if (lo - buf.addr) % WORD or (g.k > 1 and g.dj % WORD) \
            or (len(g.trow) > 1 and g.ct % WORD):
        return None
    return buf, mat, (mat - np.uint64(buf.addr)) >> _U3, lo, hi


def _bind(plan: _Plan, args, memory: DeviceMemory):
    """Prove a launch's memory preconditions; the record or None.

    A pure function of ``(plan, args, memory's buffer layout)``: the
    record is ``(loads, stores, chks)`` — a ``(buf, idx)`` pair per load
    and store group, and a ``(kind, lo, hi)`` hull per CHK group — and
    exists only when every access is in-bounds and word-aligned and
    lockstep execution provably equals sequential execution.
    """
    loads, load_rec = [], []
    for g in plan.load_groups:
        bound = _bind_group(g, args, memory)
        if bound is None:
            return None
        loads.append(bound)
        load_rec.append((bound[0], bound[2]))
    stores, store_rec = [], []
    for g in plan.store_groups:
        bound = _bind_group(g, args, memory)
        if bound is None:
            return None
        stores.append(bound)
        store_rec.append((bound[0], bound[2]))

    # -- conflict analysis: lockstep must equal sequential execution -------
    n = plan.n_threads
    for i, (sg, (buf, mat, _, lo, hi)) in enumerate(
            zip(plan.store_groups, stores)):
        # Duplicate store addresses (any two lanes writing the same word)
        # make the final byte state order-dependent: fall back.
        if (sg.k > 1 and sg.dj == 0) or (n > 1 and sg.ct == 0):
            return None
        if sg.k > 1 and n > 1:
            flat = mat.ravel()
            if np.unique(flat).size != flat.size:
                return None
        for obuf, _, _, olo, ohi in stores[i + 1:]:
            if obuf is buf and olo <= hi and lo <= ohi:
                return None
    for lg, (lbuf, lmat, _, llo, lhi) in zip(plan.load_groups, loads):
        for sg, (sbuf, smat, _, slo, shi) in zip(plan.store_groups, stores):
            if sbuf is not lbuf or shi < llo or lhi < slo:
                continue
            # Overlapping hulls are only safe for the lane-identical
            # read-then-write (in-place) pattern.
            if not (lg.first_pos < sg.first_pos
                    and lmat.shape == smat.shape
                    and np.array_equal(lmat, smat)):
                return None

    chks = []
    for cg in plan.chk_groups:
        mat = _group_mat(cg, args)
        kind = AccessKind.WRITE if cg.kind == "cw" else AccessKind.READ
        chks.append((kind, int(mat.min()), int(mat.max())))
    return load_rec, store_rec, chks


def _eval(node, loads, vals):
    tag = node[0]
    if tag == "grp" or tag == "row":
        i = node[1]
        v = vals[i]
        if v is None:
            buf, idx = loads[i]
            v = vals[i] = buf.words[idx]
        return v if tag == "grp" else v[node[2]]
    if tag == "cvec":
        return node[1]
    if tag == "bin":
        a = _eval(node[2], loads, vals)
        b = _eval(node[3], loads, vals)
        op = node[1]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a % b
    raise AssertionError(f"unknown value node {tag}")


def _eval_aff(node, args, plan: _Plan, k: int):
    _, c0, coeffs, ct, cj = node
    base = c0
    for i, c in coeffs:
        base += c * int(args[i])
    base = np.uint64(base & _MASK64)
    if ct == 0 and cj == 0:
        return base
    out = base
    if cj != 0:
        out = out + (np.arange(k, dtype=np.uint64)
                     * np.uint64(cj & _MASK64)).reshape(-1, 1)
    if ct != 0:
        out = out + np.uint64(ct & _MASK64) * plan.tidv
    return out


def _eval_value(node, args, plan: _Plan, k: int, loads, vals):
    if node[0] == "aff":
        return _eval_aff(node, args, plan, k)
    if node[0] == "bin":
        a = _eval_value(node[2], args, plan, k, loads, vals)
        b = _eval_value(node[3], args, plan, k, loads, vals)
        op = node[1]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a % b
    return _eval(node, loads, vals)


def _run_plan(plan: _Plan, program: Program, args, n_threads: int,
              memory: DeviceMemory, validation, max_steps: int):
    """Bind the plan to a launch; returns a KernelRun or None (fall back)."""
    if plan.steps_per_thread > max_steps:
        return None
    for i in plan.used_args:
        v = int(args[i])
        if v < 0 or v > _MASK64:
            return None

    # A repeated launch reuses its plan's last proof on this memory.
    key = tuple(args)
    slot = memory.bind_memo.get(plan)
    if slot is not None and slot[0] == key:
        record = slot[1]
    else:
        record = _bind(plan, args, memory)
        memory.bind_memo[plan] = (key, record)
    if record is None:
        return None
    return _execute(plan, program, args, n_threads, record, validation)


def _execute(plan: _Plan, program: Program, args, n_threads: int, record,
             validation):
    """Run a launch whose bind proof holds; None if the CHKs may fire."""
    from repro.gpu import interpreter as interp

    loads, stores, chks = record
    # -- validation: prove the CHK stream produces zero violations ---------
    if validation is not None:
        for kind, lo, hi in chks:
            if not validation.covers(kind, lo, hi):
                return None

    # -- execute: evaluate all store values, then scatter ------------------
    vals = [None] * len(loads)
    out = [_eval_value(g.value, args, plan, g.k, loads, vals)
           for g in plan.store_groups]
    for (buf, idx), v in zip(stores, out):
        buf.words[idx] = v
        buf.hw_dirty = True

    return interp.KernelRun(program=program, n_threads=n_threads,
                            steps=plan.steps_per_thread * n_threads)


# --------------------------------------------------------------------------
# the cache + entry point
# --------------------------------------------------------------------------

_stats = {"hit": 0, "miss": 0, "fallback": 0}


def plan_cache_stats() -> dict[str, int]:
    """Process-wide plan-cache counters (hits / compiles / fallbacks)."""
    return dict(_stats)


def reset_plan_cache_stats() -> None:
    for key in _stats:
        _stats[key] = 0


def try_fast_run(program: Program, args, n_threads: int, memory,
                 validation, max_steps: int):
    """Serve a launch from the plan cache; None → caller interprets."""
    if not isinstance(memory, DeviceMemory):
        return None
    body = program.body
    cache = body.plans
    key = (n_threads, len(args))
    entry = cache.get(key)
    if entry is None:
        # "dead", the values of "plans" and of "bad" (by max_steps and
        # argument tuple) remember *why* no plan exists, as the (reason,
        # abort) labels every later launch is counted under.
        entry = {"dead": ("static", "glob") if body.uses_globals else None,
                 "sig": None, "plans": {}, "bad": {}}
        cache[key] = entry
    if entry["dead"]:
        _note_fallback(*entry["dead"])
        return None
    if entry["bad"]:
        why = entry["bad"].get((max_steps, *args))
        if why is not None:
            _note_fallback(*why)
            return None

    sig = entry["sig"]
    plan = None
    sig_key = None
    if sig is not None:
        try:
            sig_key = tuple(int(args[i]) for i in sig)
        except (IndexError, TypeError, ValueError):
            _note_fallback("sig-args")
            return None
        plan = entry["plans"].get(sig_key)
        if type(plan) is tuple:
            _note_fallback(*plan)
            return None

    if plan is None:
        _stats["miss"] += 1
        obs.counter("perf/plan_cache/miss").inc()
        why = None
        by_value = False
        try:
            trace = _trace(program, args, n_threads, max_steps)
            plan = _compile(trace, n_threads)
        except _Abort as exc:
            why = ("trace-abort", exc.reason)
            by_value = exc.by_value
        except Exception as exc:
            why = ("trace-error", type(exc).__name__)
        if why is not None:
            if by_value:
                entry["bad"][(max_steps, *args)] = why
            elif sig is None:
                entry["dead"] = why
            else:
                entry["plans"][sig_key] = why
            _note_fallback(*why)
            return None
        new_sig = tuple(sorted(trace.sig))
        if sig is None:
            entry["sig"] = new_sig
        elif tuple(sig) != new_sig:
            merged = tuple(sorted(set(sig) | set(new_sig)))
            entry["sig"] = merged
            entry["plans"] = {}
        entry["plans"][tuple(int(args[i]) for i in entry["sig"])] = plan

    run = _run_plan(plan, program, args, n_threads, memory, validation,
                    max_steps)
    if run is None:
        _note_fallback("bind")
        return None
    _stats["hit"] += 1
    obs.counter("perf/plan_cache/hit").inc()
    return run


def _note_fallback(reason: str, abort: str = "") -> None:
    """Count one launch handed back; labels per docs/performance.md."""
    _stats["fallback"] += 1
    obs.counter("perf/plan_cache/fallback", reason=reason, abort=abort).inc()
