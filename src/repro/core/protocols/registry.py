"""The protocol registry: every C/R protocol, addressable by name.

The daemon, SDK, CLI, tasks and experiment harness all dispatch
protocols through this registry instead of hard-coded
``if/elif`` mode strings, so adding a protocol is: subclass
:class:`~repro.core.protocols.base.Protocol`, decorate with
:func:`register`, import the module from the package ``__init__``.

Names are namespaced by protocol kind ("checkpoint" / "restore"); the
legacy mode strings ("cow", "recopy", "stop-world") are the canonical
names of their protocols, so obs counter labels and log lines are
unchanged.  Unknown names raise :class:`~repro.errors.CheckpointError`
listing what *is* registered.
"""

from __future__ import annotations

from typing import Optional

from repro.core.protocols.base import Protocol, ProtocolConfig
from repro.errors import CheckpointError

#: ``{(kind, canonical_name): protocol_class}``
_PROTOCOLS: dict[tuple[str, str], type] = {}
#: ``{(kind, alias): canonical_name}``
_ALIASES: dict[tuple[str, str], str] = {}


def register(cls: type) -> type:
    """Class decorator: add a Protocol subclass to the registry."""
    if not issubclass(cls, Protocol) or not cls.name:
        raise CheckpointError(
            f"{cls!r} is not a named Protocol subclass"
        )
    key = (cls.kind, cls.name)
    existing = _PROTOCOLS.get(key)
    if existing is not None and existing is not cls:
        raise CheckpointError(
            f"{cls.kind} protocol name {cls.name!r} is already registered "
            f"by {existing.__name__}"
        )
    _PROTOCOLS[key] = cls
    for alias in cls.aliases:
        _ALIASES[(cls.kind, alias)] = cls.name
    return cls


def names(kind: str = "checkpoint") -> list[str]:
    """The registered canonical protocol names for one kind, sorted."""
    return sorted(name for k, name in _PROTOCOLS if k == kind)


def aliases(kind: str = "checkpoint") -> dict[str, str]:
    """``{alias: canonical_name}`` for one kind."""
    return {a: n for (k, a), n in _ALIASES.items() if k == kind}


def canonical_name(name: str, kind: str = "checkpoint") -> str:
    """Resolve a name or alias to the canonical registry name."""
    if (kind, name) in _PROTOCOLS:
        return name
    resolved = _ALIASES.get((kind, name))
    if resolved is not None:
        return resolved
    known = ", ".join(names(kind)) or "(none)"
    raise CheckpointError(
        f"unknown {kind} mode {name!r}: registered protocols are {known}"
    )


def get(name: str, kind: str = "checkpoint") -> type:
    """The protocol class registered under a name (or alias)."""
    return _PROTOCOLS[(kind, canonical_name(name, kind))]


def create(name: str, config: Optional[ProtocolConfig] = None,
           kind: str = "checkpoint") -> Protocol:
    """Instantiate a protocol by name.

    Config validation — universal value constraints and the protocol's
    supported-field check — happens here, eagerly.
    """
    return get(name, kind)(config)
