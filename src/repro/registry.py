"""The name -> entry registry behind every pluggable stage."""

from __future__ import annotations

from typing import Dict, List, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")


class Registry(Dict[str, T]):
    """A process-wide map from name to one ``kind`` of pluggable entry.

    Backends, designs, surrogates and optimisers each keep one, and so
    do the named scenario, family, study and metric libraries; their
    public ``register_*``, ``get_*``, ``named_*`` and ``*_names``
    functions delegate here, so every lookup raises the same
    :class:`~repro.errors.ConfigError` messages.
    """

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def register(self, name: str, entry: T, overwrite: bool = False) -> None:
        """Store ``entry``; replacing a name needs ``overwrite=True``."""
        if not name:
            raise ConfigError(f"{self.kind} name must be non-empty")
        if name in self and not overwrite:
            raise ConfigError(
                f"{self.kind} {name!r} is already registered (pass overwrite=True)"
            )
        self[name] = entry

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self)

    def lookup(self, name: str) -> T:
        """The entry under ``name``; an unknown name lists the known ones."""
        try:
            return self[name]
        except KeyError:
            known = ", ".join(self.names())
            raise ConfigError(
                f"unknown {self.kind} {name!r} (known: {known})"
            ) from None
