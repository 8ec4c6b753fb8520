"""Content-hash result cache for experiment runs.

A cache entry is keyed on ``(experiment name, normalized params, seed,
source digest)`` where the source digest covers every ``.py`` file in the
``repro`` package — any change to the models invalidates every entry, a
param change invalidates exactly the experiments it reaches, and re-running
an unchanged experiment is a metadata read instead of a multi-second
simulation. Entries live under ``<results>/.cache/`` as one JSON file each
so they survive across processes and are trivially inspectable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.eval.tables import results_dir

#: Bump when the cache entry layout changes; old entries then miss cleanly.
CACHE_SCHEMA = 1


def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Deterministic: files are walked in sorted relative-path order and the
    path itself is folded into the hash, so renames invalidate too.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def cache_key(name: str, params: Dict[str, Any], seed: int, digest: str) -> str:
    """Stable hex key for one (experiment, params, seed, source) tuple."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA, "name": name, "params": params,
         "seed": seed, "source": digest},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class CacheEntry:
    """A previously executed experiment, ready to replay."""

    name: str
    key: str
    text: str
    elapsed_s: float
    seed: int
    params: Dict[str, Any]
    summary: Optional[dict] = None


class ResultCache:
    """Filesystem-backed cache of rendered experiment outputs."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else os.path.join(results_dir(), ".cache")

    def _path(self, name: str, key: str) -> str:
        return os.path.join(self.root, f"{name}-{key}.json")

    def load(self, name: str, key: str) -> Optional[CacheEntry]:
        """Return the entry for ``key``, or None on miss/corruption."""
        path = self._path(name, key)
        try:
            with open(path, "r", encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):
            return None
        if record.get("schema") != CACHE_SCHEMA or record.get("key") != key:
            return None
        return CacheEntry(
            name=record["name"],
            key=record["key"],
            text=record["text"],
            elapsed_s=record["elapsed_s"],
            seed=record["seed"],
            params=record["params"],
            summary=record.get("summary"),
        )

    def store(self, entry: CacheEntry) -> str:
        """Persist ``entry``; returns the file path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(entry.name, entry.key)
        record = {
            "schema": CACHE_SCHEMA,
            "name": entry.name,
            "key": entry.key,
            "text": entry.text,
            "elapsed_s": entry.elapsed_s,
            "seed": entry.seed,
            "params": entry.params,
            "summary": entry.summary,
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
            # fsync before the atomic rename: a crashed run is finished by
            # running it again, and every entry stored here must replay.
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        return path

    def clear(self) -> int:
        """Delete all cache entries; returns how many were removed."""
        if not os.path.isdir(self.root):
            return 0
        removed = 0
        for filename in os.listdir(self.root):
            if filename.endswith(".json") or filename.endswith(".tmp"):
                os.unlink(os.path.join(self.root, filename))
                removed += 1
        return removed
