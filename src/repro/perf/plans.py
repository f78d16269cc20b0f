"""Compiled kernel execution plans: trace, specialize, vectorize.

The scalar interpreter (:mod:`repro.gpu.interpreter`) runs threads
sequentially, one instruction at a time, and pays Python-level dispatch
for every LDG/STG.  Most kernel traffic in this repository (the opaque
workload suite: copy/scale/fill/axpy and friends, the Table 3 study's
gathers, scatters, reductions and partial writes) follows a few paths
per launch, and every memory address is either an affine function of
the kernel arguments, the thread id and the loop iteration, or one
computed from words the kernel loaded (a gather or scatter).  Such
launches can be executed as a handful of numpy gathers/computes/scatters
over the :class:`~repro.gpu.memory.Buffer` word views — after proving
the result is identical to sequential interpretation.

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
disagree about an operand — vectorized over the threads of a *lane
class*:

* every register holds a concrete value (int, or a uint64 vector over
  the class's tids), an affine form ``c0 + Σ ci·arg_i + ct·tid`` when
  one exists, and a taint flag — values derived from LDG are *tainted*
  and carry an expression DAG instead of a concrete value;
* branches must be untainted; their arg dependencies go into the
  signature, so replays with equal signature values provably follow
  the traced paths.  A branch that goes different ways for the lanes of
  a class splits it in two, and each part is traced again from the
  entry: every class is one path to ``EXIT``, every thread is in one
  class, and there are at most ``n_threads`` of them.
  ``_TRACE_STEP_CAP`` bounds the steps traced over all classes;
* an LDG/STG/CHK address must be affine or tainted (a *gather* — a
  scatter for a store — whose addresses are evaluated at launch);
* anything else — GLOB, tainted branches or divisors, untainted
  non-affine addresses, out-of-range arguments, step-budget overruns —
  aborts the trace and the launch falls back to the interpreter,
  counted in ``perf/plan_cache/fallback`` under the labels of
  docs/performance.md's "Fallback taxonomy".  An abort on an argument
  *value* (out of range, a zero divisor, the step budget) is remembered
  for that argument tuple only; any other abort for the whole key (or,
  once a plan exists, for its signature values).

The traced access sites are then grouped by ``(class, pc, kind)``.  An
affine pc that executed ``k`` times (an affine loop) must show a
constant per-iteration address delta, giving the site group the closed
form ``addr(j, tid) = base + dj·j + ct·tid`` over the class's tids —
exactly a strided range.  A group whose offsets span 2**62 or more
(``_WIDE``) aborts the compile (``addr-wide``): no buffer holds its
hull.  A gather group keeps its address expression, merged across
iterations like a value.  Store values are merged across iterations by
shape-matching their expression DAGs.

``_bind`` evaluates the affine forms against the actual arguments in
closed form — Python integers over the offsets ``_close_affine``
settled at compile time, no address matrix (``_hull``); a range that
straddles a multiple of 2**64, CHK groups included, falls back — and,
with ``_bind_gathers`` for the gather groups on each launch's concrete
addresses (in trace order, so an index is read before the address it
feeds), proves before touching any byte:

* every access lands word-aligned inside a single buffer's materialized
  prefix (one bounds check, ``_resolve``, for affine and gathered
  groups alike; otherwise the interpreter's fault semantics must apply
  — fall back);
* all store addresses are pairwise distinct and no load overlaps a
  store except *lane-identically before it* (the in-place
  read-modify-write pattern, within one class) — this makes vectorized
  all-loads-then-all-stores equal to sequential per-thread execution;
* for instrumented twins: each CHK group's address hull is contained in
  the speculated range set (:meth:`ValidationState.covers`, asked once
  for the merged hull of the affine CHK groups off one pointer), which
  proves the per-access checks would produce **zero** violations.  A
  launch that would produce violations is never served by a plan — it
  falls back, and the interpreter reports the identical violation list.

The affine proof is a pure function of the plan, the argument tuple and
the buffer layout, so its record (each affine group's buffer and word
indices, the conflict verdicts between affine groups, the CHK hulls,
the argument-only terms of each gather's address) — or its failure —
is kept in one slot per plan on the
:class:`~repro.gpu.memory.DeviceMemory`, keyed by the argument tuple;
``alloc``, ``alloc_at`` and ``free`` flush it.  A plan itself never
references a buffer.  A gather's proof depends on loaded words, which
any launch may rewrite, so it is redone on every launch and never
memoised; a plan without gathers does no gather work.  What else
depends on the launch is redone every time too: the step budget, the
CHK hulls against *that launch's* ``ValidationState.covers``, value
evaluation (gathering load groups at most once), scatter, and dirty
bits.  Like the interpreter, a plan records no per-access log.

Equivalence guarantees (enforced, not assumed):

* bytes and dirty bits: store sets are conflict-free, so lockstep
  equals sequential;
* steps: every thread runs its class's traced path, so a launch counts
  ``Σ class steps × lanes in the class``, and a class longer than
  ``max_steps`` falls back (the interpreter faults on it);
* violations: plans only run when provably violation-free;
* faults: plans mutate nothing until every precondition is proven, so a
  fallback launch replays the interpreter's exact fault behaviour.

``run_kernel(force_interpret=True)`` bypasses everything here.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np

from repro import obs
from repro.gpu.isa import (
    NUM_REGS, OP_ADD, OP_ADDI, OP_ARG, OP_BEQ, OP_BGE, OP_BLT, OP_BNE, OP_CHK,
    OP_EXIT, OP_GLOB, OP_JMP, OP_LDG, OP_MOD, OP_MOV, OP_MUL, OP_MULI, OP_NTID,
    OP_SETI, OP_STG, OP_SUB, OP_TID, AccessKind, Program,
)
from repro.gpu.interpreter import KernelRun
from repro.gpu.memory import WORD, DeviceMemory

_MASK64 = (1 << 64) - 1

#: Hard cap on traced instructions, over every lane class of a trace:
#: beyond this a kernel is not "a few affine loops" and tracing costs
#: more than it saves.
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
    __slots__ = ("pos", "pc", "kind", "aff", "addr", "value", "group", "j")

    def __init__(self, pos: int, pc: int, kind: str, aff, addr,
                 value=None) -> None:
        self.pos = pos
        self.pc = pc
        self.kind = kind  # "r" | "w" | "cr" | "cw"
        self.aff = aff  # _Aff, or None for a gather/scatter site
        self.addr = addr  # the tainted address expr when aff is None
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
    """A traced launch: ``classes`` holds one ``(tids, sites, steps)`` per
    lane class, every thread in exactly one of them."""

    __slots__ = ("classes", "sig", "used_args")

    def __init__(self, classes, sig, used_args):
        self.classes = classes
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


def _access(sites: list, pc: int, kind: str, a: _V, value=None) -> _Site:
    """Record an access at address ``a``: affine, or a gather/scatter."""
    if a.aff is None and a.expr is None:
        raise _Abort("addr-not-affine")
    site = _Site(len(sites), pc, kind, a.aff, a.expr, value)
    sites.append(site)
    return site


_BIN_NAME = {OP_ADD: "add", OP_SUB: "sub", OP_MUL: "mul"}


def _trace(program: Program, args, n_threads: int, max_steps: int) -> _Trace:
    """Symbolically execute ``program`` lockstep, one lane class at a time.

    All threads start in one class.  A branch that goes different ways
    for the lanes of a class splits it into the lanes that take it and
    the lanes that do not, and each part is traced again from the entry,
    so every class is one path from entry to ``EXIT`` followed by all
    its lanes.  A split never leaves a class empty, so there are at
    most ``n_threads`` classes.  ``_TRACE_STEP_CAP`` bounds the steps
    traced over all attempts together; each path must fit ``max_steps``.
    """
    sig: set[int] = set()
    used_args: set[int] = set()
    budget = _TRACE_STEP_CAP
    classes = []
    todo = [np.arange(n_threads, dtype=np.uint64)]
    while todo:
        tids = todo.pop()
        sites, steps, split = _trace_class(
            program, args, tids, n_threads, min(max_steps, budget), sig,
            used_args)
        budget -= steps
        if split is None:
            classes.append((tids, sites, steps))
        else:
            todo += split
    return _Trace(classes, frozenset(sig), frozenset(used_args))


def _trace_class(program: Program, args, tidv: np.ndarray, n_threads: int,
                 cap: int, sig: set, used_args: set):
    """Trace the lanes ``tidv`` from the entry: ``(sites, steps, split)``,
    where ``split`` is None at ``EXIT`` or the two lane subsets of the
    first branch that diverges among them."""
    table = program.decoded
    nargs = len(args)
    sites: list[_Site] = []
    regs: list[_V] = [_ZERO] * NUM_REGS

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
            _access(sites, pc, "cw" if x is AccessKind.WRITE else "cr",
                    regs[ra])
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
            regs[rd] = _V(expr=_Load(_access(sites, pc, "r", regs[ra])))
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
                # A per-tid vector: one way for all lanes, or a split.
                if taken.all():
                    taken = True
                elif taken.any():
                    return sites, steps, (tidv[taken], tidv[~taken])
                else:
                    taken = False
            if taken:
                pc = x
                continue
        elif code == OP_TID:
            regs[rd] = _V(conc=tidv, aff=_Aff(ct=1), deps=_NO_DEPS)
        elif code == OP_EXIT:
            return sites, steps, None
        elif code == OP_STG:
            _access(sites, pc, "w", regs[ra], _leaf(regs[rb], sig))
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


# --------------------------------------------------------------------------
# compile: group sites by (class, pc, kind) into strided closed forms or
# gathers, merge store values
# --------------------------------------------------------------------------

class _Group:
    __slots__ = ("kind", "cls", "tids", "pos", "k", "addr", "access", "c0",
                 "coeffs", "ct", "dj", "sct", "sdj", "omin", "omax",
                 "aligned", "distinct", "first", "woff", "value", "i")

    def __init__(self, kind: str, cls: int, tids: np.ndarray) -> None:
        self.kind = kind
        #: The lane class and its thread ids (the group's columns).
        self.cls = cls
        self.tids = tids
        #: The runtime address node of a gather/scatter group, else None.
        self.addr = None
        #: What a CHK group checks; None for loads and stores.
        self.access = AccessKind.WRITE if kind == "cw" \
            else AccessKind.READ if kind == "cr" else None
        self.value = None
        #: Position in the plan's list of groups of this kind (value and
        #: address nodes name load groups by it).
        self.i = -1


class _Plan:
    __slots__ = ("steps", "longest", "used_args", "load_groups",
                 "store_groups", "chk_groups", "chk_sets", "gathers", "pairs")


def _aff_node(c0: int, coeffs: tuple, ct: int, cj: int):
    """The runtime node of ``c0 + Σ ci·arg_i + ct·tid + cj·j``; a
    constant is folded to its value."""
    if not coeffs and ct == 0 and cj == 0:
        return ("cvec", np.uint64(c0 & _MASK64))
    return ("aff", c0, coeffs, ct, cj)


def _merge_exprs(nodes: list, k: int):
    """Merge the k per-iteration exprs of a group (values or addresses)."""
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
        return _aff_node(c0s[0], nodes[0].coeffs, nodes[0].ct, cj)
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
    """Lower a single (k == 1) expr to runtime form."""
    t = type(node)
    if t is _Load:
        return ("row", node.site.group.i, node.site.j)
    if t is _Aff:
        return _aff_node(node.c0, node.coeffs, node.ct, 0)
    if t is _CVec:
        return ("cvec", node.value)
    if t is _Bin:
        folded = _row_sum(node)
        if folded is not None:
            return folded
        return ("bin", node.op, _single_expr(node.a), _single_expr(node.b))
    raise _Abort("value-shape")


def _row_sum(node: _Bin):
    """``((e + L_0) + L_1) + ... + L_{k-1}`` over every iteration of one
    load group, the shape of an unrolled accumulation loop, as
    ``e + sum(group)``: one reduction instead of k adds (exact, since
    addition modulo 2**64 is associative)."""
    sites = []
    while type(node) is _Bin and node.op == "add" \
            and type(node.b) is _Load:
        sites.append(node.b.site)
        node = node.a
    sites.reverse()
    if len(sites) < 2:
        return None
    grp = sites[0].group
    if grp.k != len(sites) or any(
            s.group is not grp or s.j != j for j, s in enumerate(sites)):
        return None
    return ("bin", "add", _single_expr(node), ("sum", grp.i))


def _lower(exprs: list, lowered: dict):
    """The runtime node of a group's k per-iteration exprs.

    Groups whose traced exprs are the same objects (a twin's ``CHK`` and
    the access it guards read one register) get one node, so a launch
    evaluates a gather's addresses once for both.
    """
    key = tuple(map(id, exprs))
    node = lowered.get(key)
    if node is None:
        node = lowered[key] = _single_expr(exprs[0]) if len(exprs) == 1 \
            else _merge_exprs(exprs, len(exprs))
    return node


def _signed(v: int) -> int:
    """``v`` as the signed 64-bit value it is modulo 2**64."""
    return ((v + (1 << 63)) & _MASK64) - (1 << 63)


#: An affine group whose offsets span this much or more aborts the
#: compile: its hull spans 2**62 bytes or wraps, which no buffer's
#: prefix holds, and its word offsets would overflow ``intp``.  A
#: narrower one whose range straddles a multiple of 2**64 wraps to a
#: hull at least 2**63 wide, so it falls back at bind (``_hull``).
_WIDE = 1 << 62


def _close_affine(g: _Group, sites: list) -> None:
    """Give an affine group its closed form ``base + dj·j + ct·tid``.

    The base ``c0 + Σ ci·arg_i`` is all a launch supplies, so what the
    strides decide is settled here: the extreme offsets ``omin``/``omax``
    over the ``(j, tid)`` grid (the form is linear, so they sit at its
    corners), the word alignment of the strides, whether two accesses
    share an address, and each access's word offset above the lowest.
    A group whose offsets span ``_WIDE`` or more aborts (``addr-wide``).
    """
    k = g.k
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
    lanes = len(g.tids)
    # Signed strides: the same residues modulo 2**64, and the offsets of
    # a stride that wraps (a negative one) stay small.
    g.sdj = sdj = _signed(dj)
    g.sct = sct = _signed(base.ct)
    tids = g.tids.tolist()
    g.omin = min(0, sdj * (k - 1)) + min(sct * tids[0], sct * tids[-1])
    g.omax = max(0, sdj * (k - 1)) + max(sct * tids[0], sct * tids[-1])
    if g.omax - g.omin >= _WIDE:
        raise _Abort("addr-wide")
    # Word alignment of every lane once the lowest address is aligned
    # (8 divides 2**64, so any stride representative has its residue).
    g.aligned = not (k > 1 and dj % WORD or lanes > 1 and base.ct % WORD)
    offs = [[sdj * j + sct * t - g.omin for t in tids] for j in range(k)]
    # A range that does not straddle a multiple of 2**64 is unwrapped,
    # so two accesses share a word exactly when they share an offset.
    g.distinct = len({o for row in offs for o in row}) == k * lanes
    # The first access's (j = 0, lowest tid) offset above the hull's lo.
    g.first = sct * tids[0] - g.omin
    g.woff = np.array(offs, dtype=np.intp) >> 3 if g.aligned else None


def _compile(trace: _Trace) -> _Plan:
    by_kind: dict[str, list] = {"r": [], "w": [], "cr": [], "cw": []}
    lowered: dict = {}
    steps = longest = 0
    for cls, (tids, sites, path) in enumerate(trace.classes):
        steps += path * len(tids)
        longest = max(longest, path)
        groups: list[_Group] = []
        members: list[list[_Site]] = []
        by_key: dict[tuple, int] = {}
        for s in sites:
            key = (s.pc, s.kind)
            gi = by_key.get(key)
            if gi is None:
                gi = by_key[key] = len(groups)
                groups.append(_Group(s.kind, cls, tids))
                members.append([])
            s.group = groups[gi]
            s.j = len(members[gi])
            members[gi].append(s)
        # Load indices first: address and value nodes name them.
        for g in groups:
            same = by_kind[g.kind]
            g.i = len(same)
            same.append(g)
        for g, group_sites in zip(groups, members):
            g.k = len(group_sites)
            g.pos = tuple(s.pos for s in group_sites)
        for g, group_sites in zip(groups, members):
            gather = [s.aff is None for s in group_sites]
            if all(gather):
                g.addr = _lower([s.addr for s in group_sites], lowered)
            elif any(gather):
                raise _Abort("addr-shape")
            else:
                _close_affine(g, group_sites)
            if g.kind == "w":
                g.value = _lower([s.value for s in group_sites], lowered)

    plan = _Plan()
    plan.steps = steps
    plan.longest = longest
    plan.used_args = trace.used_args
    plan.load_groups = by_kind["r"]
    plan.store_groups = by_kind["w"]
    plan.chk_groups = by_kind["cr"] + by_kind["cw"]
    for i, g in enumerate(plan.chk_groups):
        g.i = i
    plan.chk_sets = _chk_sets(plan.chk_groups)
    # A gather's address reads only loads that precede it in its class.
    plan.gathers = sorted(
        (g for g in plan.load_groups + plan.store_groups + plan.chk_groups
         if g.addr is not None),
        key=lambda g: (g.cls, g.pos[0]))
    plan.pairs = _pairs(plan, False), _pairs(plan, True)
    return plan


def _chk_sets(chk_groups: list) -> tuple:
    """The affine CHK groups by the arguments they are addressed off.

    One set is one pointer, so one buffer: a twin's read and write of
    it, or a loop's and another class's pass over it.  A launch proves
    each set covered with one check (``_merge_hulls``).
    """
    sets: dict[tuple, list] = {}
    for g in chk_groups:
        if g.addr is None:
            sets.setdefault(g.coeffs, []).append(g)
    return tuple(sets.values())


def _pairs(plan: _Plan, gathered: bool) -> tuple:
    """What a conflict proof checks, by group index: the stores whose
    words must be distinct, the store/store pairs whose hulls must not
    overlap, and the load/store pairs that may overlap only in place.
    With ``gathered`` false, between affine groups (proven once per
    argument tuple); with it true, those involving a gather or scatter
    (proven on each launch, whose gather already proved a scatter's
    words distinct)."""
    def picked(*groups):
        return any(g.addr is not None for g in groups) == gathered

    stores, loads = plan.store_groups, plan.load_groups
    distinct = [i for i, g in enumerate(stores) if g.addr is None] \
        if not gathered else []
    store_pairs = [(i, j) for i in range(len(stores))
                   for j in range(i + 1, len(stores))
                   if picked(stores[i], stores[j])]
    load_pairs = [(i, j) for i in range(len(loads))
                  for j in range(len(stores)) if picked(loads[i], stores[j])]
    return distinct, store_pairs, load_pairs


# --------------------------------------------------------------------------
# bind + execute
# --------------------------------------------------------------------------

def _base(g: _Group, args) -> int:
    """The group's ``c0 + Σ ci·arg_i`` for ``args``, unmasked."""
    base = g.c0
    for i, c in g.coeffs:
        base += c * int(args[i])
    return base


def _hull(g: _Group, args):
    """An affine group's address hull ``(lo, hi)`` on this launch, in
    closed form; None when the range straddles a multiple of 2**64.

    Every address is ``base + o`` modulo 2**64 for an offset ``o`` in
    ``[omin, omax]``; when ``base + omin`` and ``base + omax`` fall in
    one multiple of 2**64, subtracting it gives every address exactly.
    """
    lo = (_base(g, args) & _MASK64) + g.omin
    hi = lo - g.omin + g.omax
    wrap = lo >> 64
    if hi >> 64 != wrap:
        return None
    wrap <<= 64
    return lo - wrap, hi - wrap


def _resolve(memory: DeviceMemory, lo: int, hi: int):
    """The buffer whose materialized prefix and logical size hold every
    word from ``lo`` to ``hi``, or None: the one bounds check of a bind,
    affine or gathered.  Alignment is the caller's."""
    buf = memory.resolve(lo)
    if buf is None or hi + WORD > buf.addr + min(buf.size, len(buf.data)):
        return None
    return buf


def _bind_group(g: _Group, args, memory: DeviceMemory):
    """An affine group's ``(buf, idx, lo, hi)``; None → fall back.

    Word aligned: the lowest address and the strides.  A misaligned
    access is legal in the interpreter — it just can't use the word view.
    """
    hull = _hull(g, args)  # None: a straddle, wider than any buffer
    if hull is None or not g.aligned:
        return None
    lo, hi = hull
    buf = _resolve(memory, lo, hi)
    if buf is None or (lo - buf.addr) % WORD:
        return None
    # Word indices as intp: numpy indexes with that dtype without a
    # cast, several times faster than with uint64 at a few lanes.
    return buf, g.woff + ((lo - buf.addr) >> 3), lo, hi


def _chk_hull(g: _Group, args):
    """An affine CHK group's ``(kind, lo, hi)``; None when it straddles."""
    hull = _hull(g, args)
    return None if hull is None else (g.access, *hull)


def _merge_hulls(hulls: list) -> tuple:
    """One ``(kind, lo, hi, parts)`` check for the CHK hulls of a set of
    ``_chk_sets``: the hull of their hulls, as a ``WRITE`` if any of them
    is one, and the hulls themselves in ``parts`` (empty for a lone hull).

    A covered merged hull covers each part (a read passes where writes
    are speculated, see ``ValidationState.check``); an uncovered one
    says nothing, so ``_covered`` then asks each part.
    """
    if len(hulls) == 1:
        return (*hulls[0], ())
    kind = AccessKind.WRITE if any(h[0] is AccessKind.WRITE for h in hulls) \
        else AccessKind.READ
    return (kind, min(h[1] for h in hulls), max(h[2] for h in hulls),
            tuple(hulls))


def _covered(validation, checks) -> bool:
    """True when every hull of ``_merge_hulls`` is inside the speculated
    ranges, so the per-access CHKs would report zero violations."""
    covers = validation.covers
    for kind, lo, hi, parts in checks:
        if not covers(kind, lo, hi) and not (
                parts and all(covers(*p) for p in parts)):
            return False
    return True


def _in_place(lg: _Group, load, sg: _Group, store) -> bool:
    """True when a load group and a store group of one class, with ``k``
    iterations each and entries in one buffer, access equal addresses
    lane by lane and iteration by iteration."""
    if lg.addr is None and sg.addr is None:
        # Two unwrapped closed forms: equal strides where they vary and
        # an equal first address.
        return (lg.k == 1 or lg.sdj == sg.sdj) \
            and (len(lg.tids) == 1 or lg.sct == sg.sct) \
            and load[2] + lg.first == store[2] + sg.first
    # A gather or scatter: in one buffer, equal words are equal addresses.
    return np.array_equal(load[1], store[1])


def _conflict_free(plan: _Plan, loads, stores, pairs) -> bool:
    """True when all-loads-then-all-stores provably equals sequential
    per-thread execution over ``pairs`` (see ``_pairs``): store addresses
    are pairwise distinct, and a load overlaps a store only
    lane-identically and before it."""
    distinct, store_pairs, load_pairs = pairs
    for i in distinct:
        # Duplicate store addresses (any two lanes writing the same word)
        # make the final byte state order-dependent.
        if not plan.store_groups[i].distinct:
            return False
    for i, j in store_pairs:
        a, b = stores[i], stores[j]
        if a[0] is b[0] and b[2] <= a[3] and a[2] <= b[3]:
            return False
    for i, j in load_pairs:
        load, store = loads[i], stores[j]
        if store[0] is not load[0] or store[3] < load[2] \
                or load[3] < store[2]:
            continue
        # Overlapping hulls are only safe for the read-then-write (in
        # place) pattern: the same lanes, each iteration's load ahead of
        # its store, at equal addresses.
        lg, sg = plan.load_groups[i], plan.store_groups[j]
        if not (lg.cls == sg.cls and lg.k == sg.k
                and all(map(int.__lt__, lg.pos, sg.pos))
                and _in_place(lg, load, sg, store)):
            return False
    return True


def _bind(plan: _Plan, args, memory: DeviceMemory):
    """Prove a launch's affine memory preconditions; the record or None.

    A pure function of ``(plan, args, memory's buffer layout)``: the
    record is ``(loads, stores, chks, addrs)`` — a ``(buf, idx)`` entry
    per load and store group, one ``_merge_hulls`` check per set of
    affine CHK groups, and each gather's address node with its
    argument-only terms evaluated — and exists only when every affine
    access is in-bounds and word-aligned and lockstep execution provably
    equals sequential execution as far as the affine groups go, and no
    affine CHK hull straddles a multiple of 2**64.  A plan with gathers
    keeps ``(buf, idx, lo, hi)`` entries, for its launches' conflict
    proofs, and None for each gather or scatter, which every launch
    binds itself.
    """
    loads, stores = [], []
    for groups, out in ((plan.load_groups, loads),
                        (plan.store_groups, stores)):
        for g in groups:
            bound = None
            if g.addr is None:
                bound = _bind_group(g, args, memory)
                if bound is None:
                    return None
            out.append(bound)
    if not _conflict_free(plan, loads, stores, plan.pairs[0]):
        return None
    chks = []
    for groups in plan.chk_sets:
        hulls = [_chk_hull(cg, args) for cg in groups]
        if None in hulls:
            return None  # a straddle, as for a load or a store
        chks.append(_merge_hulls(hulls))
    if not plan.gathers:
        # What the launch reads back: each group's buffer and word indices.
        return ([bound[:2] for bound in loads],
                [bound[:2] for bound in stores], chks, ())
    folded: dict[int, tuple] = {}
    addrs = []
    for g in plan.gathers:
        node = folded.get(id(g.addr))
        if node is None:
            node = folded[id(g.addr)] = _fold(g.addr, args)
        addrs.append(node)
    return loads, stores, chks, addrs


def _fold(node, args):
    """``node`` with its argument-only affine terms evaluated for ``args``."""
    tag = node[0]
    if tag == "bin":
        return ("bin", node[1], _fold(node[2], args), _fold(node[3], args))
    if tag == "aff" and node[3] == 0 and node[4] == 0:
        return ("cvec", _eval(node, args, None, 1, None, None))
    return node


def _bind_gathers(plan: _Plan, args, memory: DeviceMemory, record, vals,
                  validation):
    """Bind the gather and scatter groups on this launch's index bytes.

    Never memoised: the addresses depend on loaded words, which a launch
    in between may have rewritten.  Groups go in trace order, so every
    load an address reads is bound (and read) before it; the reads all
    precede every store, as they do in the executed plan.  Returns the
    completed ``(loads, stores)`` or None (fall back).
    """
    loads, stores, _, addrs = record
    loads, stores = list(loads), list(stores)
    node = None
    for g, addr in zip(plan.gathers, addrs):
        if g.access is not None and validation is None:
            continue
        if addr is not node:  # a twin's CHK shares its access's node
            node = addr
            # Few lanes: Python's min/max over the ints beat numpy's
            # reductions, and the interpreter pays per lane anyway.
            raw = _eval(node, args, g.tids, g.k, loads, vals)
            flat = raw.ravel().tolist()
            lo = min(flat)
            hi = max(flat)
        if g.access is not None:
            if not validation.covers(g.access, lo, hi):
                return None
        elif g.kind == "w" and len(set(flat)) != len(flat):
            return None  # two lanes scatter to one word
        else:
            buf = _resolve(memory, lo, hi)
            if buf is None or (reduce(or_, flat) | buf.addr) & 7:
                return None  # out of bounds, or not word-aligned
            idx = ((raw.reshape(g.k, -1) - np.uint64(buf.addr))
                   >> _U3).astype(np.intp)
            (loads if g.kind == "r" else stores)[g.i] = buf, idx, lo, hi
    if not _conflict_free(plan, loads, stores, plan.pairs[1]):
        return None
    return loads, stores


def _eval(node, args, tids: np.ndarray, k: int, loads, vals):
    """A runtime node's value on this launch: a uint64 scalar, a row over
    the group's lanes, or a ``(k, lanes)`` matrix.  A load group's words
    are gathered on first use, into ``vals``."""
    tag = node[0]
    if tag == "bin":
        a = _eval(node[2], args, tids, k, loads, vals)
        b = _eval(node[3], args, tids, k, loads, vals)
        op = node[1]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a % b
    if tag == "cvec":
        return node[1]
    if tag == "aff":
        _, c0, coeffs, ct, cj = node
        base = c0
        for i, c in coeffs:
            base += c * int(args[i])
        out = np.uint64(base & _MASK64)
        if cj != 0:
            out = out + (np.arange(k, dtype=np.uint64)
                         * np.uint64(cj & _MASK64)).reshape(-1, 1)
        if ct != 0:
            out = out + np.uint64(ct & _MASK64) * tids
        return out
    # "grp", "row" or "sum": the words of load group i
    i = node[1]
    v = vals[i]
    if v is None:
        entry = loads[i]
        v = vals[i] = entry[0].words[entry[1]]
    if tag == "grp":
        return v
    return v[node[2]] if tag == "row" else v.sum(axis=0)


def _run_plan(plan: _Plan, program: Program, args, n_threads: int,
              memory: DeviceMemory, validation, max_steps: int):
    """Bind the plan to a launch; returns a KernelRun or None (fall back)."""
    if plan.longest > max_steps:
        return None
    # A repeated launch reuses its plan's last proof on this memory (its
    # arguments passed the range check when the proof was made).
    key = tuple(args)
    slot = memory.bind_memo.get(plan)
    if slot is not None and slot[0] == key:
        record = slot[1]
    else:
        for i in plan.used_args:
            v = int(args[i])
            if v < 0 or v > _MASK64:
                return None
        record = _bind(plan, args, memory)
        memory.bind_memo[plan] = (key, record)
    if record is None:
        return None
    return _execute(plan, program, args, n_threads, record, memory,
                    validation)


def _execute(plan: _Plan, program: Program, args, n_threads: int, record,
             memory: DeviceMemory, validation):
    """Run a launch whose affine proof holds; None if a gather's proof
    fails or the CHKs may fire."""
    loads, stores, chks, _ = record
    # -- validation: prove the CHK stream produces zero violations ---------
    if validation is not None and not _covered(validation, chks):
        return None
    vals = [None] * len(loads)
    if plan.gathers:
        bound = _bind_gathers(plan, args, memory, record, vals, validation)
        if bound is None:
            return None
        loads, stores = bound

    # -- execute: evaluate all store values, then scatter ------------------
    out = [_eval(g.value, args, g.tids, g.k, loads, vals)
           for g in plan.store_groups]
    for entry, v in zip(stores, out):
        buf = entry[0]
        buf.words[entry[1]] = v
        buf.hw_dirty = True

    return KernelRun(program=program, n_threads=n_threads, steps=plan.steps)


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
            sig_key = tuple([int(args[i]) for i in sig])
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
            plan = _compile(trace)
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
