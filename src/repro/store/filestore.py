"""Content-addressed on-disk artifact store with atomic writes.

Layout::

    <root>/
      store.json                  # format marker, written once
      harden/3f/3f2a…c4           # <stage>/<key[:2]>/<key>, one envelope per file
      campaign/…
      report/…

Each file is a complete :mod:`repro.store.base` envelope (header line +
payload).  Writes go through a temporary file in the same directory followed
by :func:`os.replace`, so a crashed or interrupted run can never leave a
half-written artifact under its final name -- at worst it leaves a ``*.tmp``
file that :meth:`FileStore.gc` sweeps.  Reads re-verify the payload hash; a
corrupted or truncated file is unlinked and reported as a miss, so the cache
degrades to recomputation, never to a wrong result.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.store.base import (
    STORE_FORMAT,
    Artifact,
    ArtifactIntegrityError,
    decode_artifact,
    decode_header,
    encode_artifact,
    expiry_cutoff,
    validate_address,
)

_MARKER_NAME = "store.json"
_TMP_SUFFIX = ".tmp"


class FileStore:
    """Persistent :class:`~repro.store.base.ArtifactStore` backend."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.integrity_failures = 0
        self.hits = 0
        self.misses = 0
        marker = self.root / _MARKER_NAME
        if not marker.exists():
            self._atomic_write(
                marker,
                json.dumps({"format": STORE_FORMAT, "kind": "scfi-artifact-store"},
                           sort_keys=True).encode("utf-8") + b"\n",
            )

    # -- path layout ------------------------------------------------------

    def _path(self, stage: str, key: str) -> Path:
        validate_address(stage, key)
        return self.root / stage / key[:2] / key

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        # The temp name carries the writer's pid on top of mkstemp's random
        # suffix: concurrent processes saving the same key can never collide
        # on a temp file, and each one's os.replace lands a complete envelope
        # -- last writer wins, readers see one version or the other, never a
        # torn mix (pinned by tests/test_store.py's multi-writer stress).
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent),
            prefix=f"{path.name}.{os.getpid()}.",
            suffix=_TMP_SUFFIX,
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- ArtifactStore protocol -------------------------------------------

    def load(self, stage: str, key: str) -> Optional[Artifact]:
        path = self._path(stage, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        try:
            artifact = decode_artifact(blob, expect_stage=stage, expect_key=key)
        except ArtifactIntegrityError:
            # Evict the bad entry so the subsequent save rewrites it cleanly.
            self.integrity_failures += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return artifact

    def save(self, stage: str, key: str, payload: bytes, codec: str) -> Artifact:
        blob = encode_artifact(stage, key, payload, codec)
        self._atomic_write(self._path(stage, key), blob)
        return decode_artifact(blob).without_payload()

    def delete(self, stage: str, key: str) -> bool:
        path = self._path(stage, key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def _entry_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for stage_dir in sorted(self.root.iterdir()):
            if not stage_dir.is_dir():
                continue
            for shard in sorted(stage_dir.iterdir()):
                if not shard.is_dir():
                    continue
                for path in sorted(shard.iterdir()):
                    if path.is_file():
                        yield path

    def entries(self) -> Iterator[Artifact]:
        """Header-only listing (payloads are not read into memory)."""
        for path in self._entry_paths():
            if path.name.endswith(_TMP_SUFFIX):
                continue
            try:
                with path.open("rb") as handle:
                    first = handle.readline()
                header, _ = decode_header(first + b"\n" if not first.endswith(b"\n") else first)
            except (OSError, ArtifactIntegrityError):
                continue
            yield Artifact(
                stage=header["stage"],
                key=header["key"],
                codec=header["codec"],
                sha256=header["sha256"],
                size=header["size"],
                created=float(header["created"]),
            )

    def clear(self) -> int:
        """Remove every artifact (targeted unlinks; never an rmtree of root)."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._prune_empty_dirs()
        return removed

    def gc(self, max_age_days: Optional[float] = None) -> Dict[str, int]:
        """Sweep corrupt entries, expired entries and leftover temp files."""
        cutoff = expiry_cutoff(max_age_days)
        stats = {
            "scanned": 0,
            "kept": 0,
            "removed_corrupt": 0,
            "removed_expired": 0,
            "removed_tmp": 0,
        }
        for path in list(self._entry_paths()):
            if path.name.endswith(_TMP_SUFFIX):
                try:
                    path.unlink()
                    stats["removed_tmp"] += 1
                except OSError:
                    pass
                continue
            stats["scanned"] += 1
            stage = path.parent.parent.name
            key = path.name
            try:
                blob = path.read_bytes()
                artifact = decode_artifact(blob, expect_stage=stage, expect_key=key)
            except (OSError, ValueError):
                try:
                    path.unlink()
                    stats["removed_corrupt"] += 1
                except OSError:
                    pass
                continue
            if cutoff is not None and artifact.created < cutoff:
                try:
                    path.unlink()
                    stats["removed_expired"] += 1
                except OSError:
                    pass
                continue
            stats["kept"] += 1
        self._prune_empty_dirs()
        return stats

    def _prune_empty_dirs(self) -> None:
        for stage_dir in list(self.root.iterdir()):
            if not stage_dir.is_dir():
                continue
            for shard in list(stage_dir.iterdir()):
                if shard.is_dir():
                    try:
                        shard.rmdir()
                    except OSError:
                        pass
            try:
                stage_dir.rmdir()
            except OSError:
                pass
