"""The one key rule of the artifact store: keys change whenever code does."""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """Digest of every ``*.py`` in the ``repro`` package (relative paths,
    sizes and mtimes), computed once per process.

    A store keyed on this digest can only ever miss after an edit to the
    package, never serve an artifact built by outdated code.
    """
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for entry in sorted(package_root.rglob("*.py")):
        try:
            stat = entry.stat()
        except OSError:  # pragma: no cover
            continue
        name = entry.relative_to(package_root).as_posix()
        digest.update(f"{name}:{stat.st_size}:{stat.st_mtime_ns};".encode())
    return digest.hexdigest()[:16]


def artifact_key(kind: str, *parts: object) -> str:
    """``<kind>-<digest>``: the store key of one artifact.

    The digest covers the package version, :func:`source_fingerprint`,
    ``kind`` and the ``str`` of every part, so programs, schedules and
    verdicts share one invalidation rule.  The ``kind`` prefix lets a
    caller drop one kind with :meth:`~repro.harness.engine.CompileCache.
    discard`.
    """
    from . import __version__

    text = "|".join((__version__, source_fingerprint(), kind,
                     *(str(part) for part in parts)))
    return f"{kind}-{hashlib.sha256(text.encode()).hexdigest()[:32]}"
