"""The JSON document contract: one module decides it.

Scenarios, results, manifests, study specs and exploration outcomes
persist as schema-stamped JSON documents in files, store rows and job
payloads.  What a valid document is, which schema versions are
readable, what an option value may be, and how document text and files
are read and written are decided here; the classes that own each layout
call these helpers.  Every refusal is a library error (``DesignError``
or ``ConfigError``), so the CLI prints ``error: ...`` and the service
answers 400.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.errors import ConfigError, DesignError

#: Option values that survive a JSON round-trip unchanged.
_JSON_SCALARS = (bool, int, float, str, type(None))


def check_document(
    payload: object, what: str, schema: int, oldest: Optional[int] = None
) -> int:
    """Refuse ``payload`` unless it is a JSON object of a readable schema.

    Versions ``oldest`` (default ``schema``) through ``schema`` are
    readable, and an unversioned object counts as ``oldest``; another
    version or a non-object raises ``DesignError`` naming ``what``.
    Returns the payload's version.
    """
    if not isinstance(payload, Mapping):
        raise DesignError(
            f"{what} payload must be a JSON object, got {type(payload).__name__}"
        )
    oldest = schema if oldest is None else oldest
    found = payload.get("schema", oldest)
    if found not in range(oldest, schema + 1):
        readable = schema if oldest == schema else f"{oldest} to {schema}"
        raise DesignError(
            f"unsupported {what} schema {found!r} "
            f"(this library reads schema {readable})"
        )
    return found


def check_options(label: str, options: Optional[Mapping]) -> Dict[str, object]:
    """Copy ``options``, rejecting anything that cannot live in JSON.

    ``None`` (a JSON ``null``) means no options; a non-object, a
    non-string name or a non-scalar value is a ``ConfigError``.
    """
    if options is None:
        return {}
    if not isinstance(options, Mapping):
        raise ConfigError(
            f"{label} options must be a JSON object, "
            f"got {type(options).__name__}"
        )
    out = dict(options)
    for key, value in out.items():
        if not isinstance(key, str):
            raise ConfigError(f"{label} option names must be strings")
        if not isinstance(value, _JSON_SCALARS):
            raise ConfigError(
                f"{label} option {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}"
            )
    return out


def canonical_json(payload: object) -> str:
    """Canonical text (sorted keys, no whitespace): keys hash it, rows hold it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def format_json(payload: object, indent: Optional[int] = 2) -> str:
    """Readable text of a document: sorted keys, ``indent`` spaces."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def parse_json(text: str, what: str) -> object:
    """Parse document text; invalid JSON is a ``DesignError`` naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DesignError(f"{what} is not valid JSON: {exc}") from exc


def read_json(path: Union[str, Path], what: str) -> object:
    """Read and parse a document file; an unreadable one is a ``DesignError``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DesignError(f"cannot read {what}: {exc}") from exc
    return parse_json(text, what)


def write_json(path: Union[str, Path], payload: object) -> None:
    """Write a document file: its :func:`format_json` text and a newline."""
    Path(path).write_text(format_json(payload) + "\n")
