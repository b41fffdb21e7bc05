"""Source fingerprints: cache keys that change whenever the code does."""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=None)
def source_fingerprint(subpackages: tuple[str, ...]) -> str:
    """Digest of the named subpackages' sources (sizes + mtimes), computed
    once per process.

    A cache keyed on this digest can only ever miss after an edit to
    those sources — never serve an artifact built by outdated code.
    """
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for subpackage in subpackages:
        try:
            entries = sorted((package_root / subpackage).glob("*.py"))
        except OSError:  # pragma: no cover - unreadable install
            continue
        for entry in entries:
            try:
                stat = entry.stat()
            except OSError:  # pragma: no cover
                continue
            digest.update(f"{entry.name}:{stat.st_size}:"
                          f"{stat.st_mtime_ns};".encode())
    return digest.hexdigest()[:16]
