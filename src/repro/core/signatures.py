"""Kernel signature extraction — the paper's clang step (§4.1).

PHOS "uses clang to extract the kernel's argument types, focusing
solely on mutable pointer arguments".  We parse the kernel's C
declaration string into a list of :class:`ParamInfo`, classifying each
parameter:

* ``MUT_PTR`` — a non-const pointer: a tentative *write* target;
* ``CONST_PTR`` — a const pointer: a tentative *read* source (used by
  the restore-side extension of §6);
* ``SCALAR`` — filtered out (reduces speculation false positives);
* ``STRUCT`` — an opaque by-value struct: PHOS cannot see its fields,
  so it "conservatively treats all 8-byte chunks in the struct as
  potential written GPU buffers".

The parser handles the declaration shapes that occur in CUDA kernel
prototypes (qualifiers, pointer-to-const vs const-pointer, unnamed
parameters, ``struct`` tags, template-free C types).
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SignatureError


class ParamKind(enum.Enum):
    """Classification of one kernel parameter."""

    MUT_PTR = "mutable-pointer"
    CONST_PTR = "const-pointer"
    SCALAR = "scalar"
    STRUCT = "opaque-struct"


@dataclass(frozen=True)
class ParamInfo:
    """One parsed parameter."""

    kind: ParamKind
    type_str: str
    name: str = ""


@dataclass(frozen=True)
class Signature:
    """A parsed kernel declaration."""

    kernel_name: str
    params: tuple[ParamInfo, ...]
    #: What argument speculation reads: ``(index, mutable)`` for each
    #: pointer parameter, in declaration order, or None when an opaque
    #: struct makes speculation conservative.  Derived from ``params``.
    pointers: Optional[tuple[tuple[int, bool], ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kinds = [p.kind for p in self.params]
        pointers = None if ParamKind.STRUCT in kinds else tuple(
            (i, kind is ParamKind.MUT_PTR) for i, kind in enumerate(kinds)
            if kind is not ParamKind.SCALAR)
        object.__setattr__(self, "pointers", pointers)

    @property
    def has_struct(self) -> bool:
        """True when any parameter is an opaque struct (conservative mode)."""
        return self.pointers is None

    def __len__(self) -> int:
        return len(self.params)


_DECL_RE = re.compile(
    r"^\s*(?:__global__\s+)?(?:void\s+)?(?P<name>[A-Za-z_]\w*)\s*"
    r"\((?P<params>.*)\)\s*;?\s*$",
    re.DOTALL,
)


def parse_signature(decl: str) -> Signature:
    """Parse a kernel C declaration into a :class:`Signature`.

    Raises :class:`~repro.errors.SignatureError` for declarations that
    do not look like a kernel prototype.
    """
    match = _DECL_RE.match(decl)
    if match is None:
        raise SignatureError(f"cannot parse kernel declaration: {decl!r}")
    return Signature(kernel_name=match.group("name"),
                     params=_parse_params(match.group("params").strip()))


@functools.lru_cache(maxsize=1024)
def _parse_params(raw_params: str) -> tuple[ParamInfo, ...]:
    """The parameter list, parsed once per distinct text: kernels that
    differ only in their name share it."""
    if raw_params in ("", "void"):
        return ()
    return tuple(_classify(p.strip()) for p in _split_params(raw_params))


def _split_params(raw: str) -> list[str]:
    """Split on commas not nested in parentheses or angle brackets."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in raw:
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (s.strip() for s in parts) if p]


def _classify(param: str) -> ParamInfo:
    if not param:
        raise SignatureError("empty parameter")
    # Separate a trailing identifier (the parameter name) when present.
    tokens = param.replace("*", " * ").split()
    name = ""
    if (
        len(tokens) >= 2
        and re.fullmatch(r"[A-Za-z_]\w*", tokens[-1])
        and tokens[-1] not in _TYPE_WORDS
        and tokens[-2] != "struct"
    ):
        name = tokens[-1]
        tokens = tokens[:-1]
    type_str = " ".join(tokens)
    if "*" in tokens:
        # const anywhere before the last '*' makes the pointee const:
        # `const float*` and `float const*` are read-only views, while
        # `float* const` is still a mutable pointee.
        last_star = len(tokens) - 1 - tokens[::-1].index("*")
        is_const = "const" in tokens[:last_star]
        kind = ParamKind.CONST_PTR if is_const else ParamKind.MUT_PTR
        return ParamInfo(kind=kind, type_str=type_str, name=name)
    if "struct" in tokens:
        return ParamInfo(kind=ParamKind.STRUCT, type_str=type_str, name=name)
    return ParamInfo(kind=ParamKind.SCALAR, type_str=type_str, name=name)


_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "float", "double", "unsigned",
    "signed", "const", "volatile", "struct", "size_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "half", "bool",
}


def program_signature(program) -> Optional[Signature]:
    """The parsed declaration of a kernel ``Program`` (None when it does
    not parse), kept in the program's ``signature`` field.

    Parsing is a pure function of ``program.decl``; keeping it on the
    program rather than keying it by kernel name keeps two programs that
    share a name from sharing one signature.
    """
    try:
        return program.signature
    except AttributeError:
        pass
    try:
        sig = parse_signature(program.decl)
    except SignatureError:
        sig = None
    program.signature = sig
    return sig
