"""Versioning for machine-readable artifact documents.

``sweep.json`` (:mod:`repro.eval.sweep`) carries an explicit
``schema_version`` field. Writers stamp it; every reader calls
:func:`check_schema_version` before touching any other key, so an
artifact recorded under an older layout fails with a clear
:class:`repro.errors.SchemaVersionError` (CLI exit 2) instead of a
KeyError from the middle of a merge.

Documents written before the field existed carried the same number under
``schema``; the check accepts that spelling as a fallback so the error
message can say *which* version the old artifact has.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import SchemaVersionError


def schema_version_of(document: Mapping[str, Any]) -> object:
    """The version a document declares (``schema_version``, legacy
    ``schema``, or None when it declares nothing)."""
    if "schema_version" in document:
        return document["schema_version"]
    return document.get("schema")


def check_schema_version(
    document: Mapping[str, Any], expected: int, what: str, refresh_hint: str = ""
) -> None:
    """Refuse ``document`` unless it declares schema version ``expected``.

    ``what`` names the artifact in the error ("shard sweep document
    ..."); ``refresh_hint`` tells the operator how to re-record it.
    """
    found = schema_version_of(document)
    if found == expected:
        return
    hint = f" {refresh_hint}" if refresh_hint else ""
    raise SchemaVersionError(
        f"{what} has schema version {found!r}, this reader expects {expected}.{hint}",
        expected=expected,
        found=found,
    )
