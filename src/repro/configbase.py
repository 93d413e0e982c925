"""The one dict round-trip every config dataclass inherits.

``as_dict`` is :func:`dataclasses.asdict`, which cannot drop a field;
``from_dict`` is ``cls(**payload)`` behind an unknown-key guard, so every
key is restored or refused.  Nested configs come back because each
owner's ``__post_init__`` coerces the dict spelling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, TypeVar

from repro.exceptions import ConfigurationError

_C = TypeVar("_C", bound="ConfigBase")


@dataclass(frozen=True, slots=True)
class ConfigBase:
    #: Keys earlier versions persisted: dropped on load, never written.
    retired_keys: ClassVar[tuple[str, ...]] = ()

    def as_dict(self) -> dict[str, Any]:
        """JSON-plain dict of every field (what snapshots persist)."""
        return asdict(self)

    @classmethod
    def from_dict(cls: type[_C], payload: dict[str, Any]) -> _C:
        """Rebuild (and re-validate) a config from :meth:`as_dict` output."""
        retired = cls.retired_keys
        payload = {k: v for k, v in payload.items() if k not in retired}
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}"
            )
        return cls(**payload)
