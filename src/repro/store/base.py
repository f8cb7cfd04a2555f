"""Artifact envelope and the in-memory artifact store.

Every artifact the pipeline persists -- a pickled hardened netlist, JSON
campaign counters, a result document -- travels inside one *envelope*: a single
canonical-JSON header line (stage, key, codec, payload size, payload SHA-256,
creation time) followed by the raw payload bytes.  The header makes every
entry self-describing for ``scfi cache ls`` and, crucially, self-verifying:
:func:`decode_artifact` recomputes the payload hash on every read, so a
truncated or bit-flipped entry is reported as :class:`ArtifactIntegrityError`
and treated as a cache miss by the stores, never returned as a result.

Stores address artifacts by ``(stage, key)`` where ``key`` is the SHA-256
*input* hash of the pipeline stage that produced the artifact (see
:meth:`repro.api.spec.ExperimentSpec.stage_hashes`); the payload hash in the
header protects the *output*.  :class:`MemoryStore` keeps the encoded
envelopes in a dict -- the backend unit tests and hermetic sessions use it --
while :class:`repro.store.filestore.FileStore` is the persistent on-disk
twin with the same observable behaviour.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from typing import Dict, Iterator, NamedTuple, Optional, Protocol, Tuple, runtime_checkable

#: Bumped whenever the envelope layout changes incompatibly; readers reject
#: other formats (treated as corruption, i.e. a miss plus a rewrite).
STORE_FORMAT = 1

#: Payload codecs the pipeline uses.  The store itself treats payloads as
#: opaque bytes; the codec is recorded so ``scfi cache ls`` and debuggers
#: know how to interpret an entry.
CODEC_JSON = "json"
CODEC_PICKLE = "pickle"

#: Stage names are path components on disk, so they are restricted to a safe
#: alphabet; keys must be hex digests (every stage key is a SHA-256).
_STAGE_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")


class ArtifactIntegrityError(ValueError):
    """An envelope failed verification (bad header, hash mismatch, truncation)."""


def payload_sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def validate_address(stage: str, key: str) -> None:
    """Reject addresses that are not safe path components / hex digests."""
    if not _STAGE_RE.match(stage or ""):
        raise ValueError(f"invalid artifact stage {stage!r}")
    if not _KEY_RE.match(key or ""):
        raise ValueError(f"invalid artifact key {key!r} (expected a hex digest)")


def expiry_cutoff(max_age_days: Optional[float]) -> Optional[float]:
    """The creation time before which ``gc`` expires an artifact, or ``None``
    for no expiry.  A negative or non-finite age raises :class:`ValueError`:
    a negative one would expire every artifact, and NaN none."""
    if max_age_days is None:
        return None
    if not math.isfinite(max_age_days) or max_age_days < 0:
        raise ValueError(f"max_age_days must be a finite number >= 0, got {max_age_days!r}")
    return time.time() - max_age_days * 86400.0


class Artifact(NamedTuple):
    """One stored artifact: its address, header metadata and (optionally) payload.

    ``payload`` is ``None`` for listing-only views (``scfi cache ls`` reads
    headers without pulling gigabytes of pickled netlists into memory).
    """

    stage: str
    key: str
    codec: str
    sha256: str
    size: int
    created: float
    payload: Optional[bytes] = None

    def without_payload(self) -> "Artifact":
        return self._replace(payload=None)


def encode_artifact(
    stage: str,
    key: str,
    payload: bytes,
    codec: str,
    created: Optional[float] = None,
) -> bytes:
    """Wrap ``payload`` in the self-verifying envelope."""
    validate_address(stage, key)
    if not isinstance(payload, bytes):
        raise TypeError(f"artifact payload must be bytes, got {type(payload).__name__}")
    header = {
        "format": STORE_FORMAT,
        "stage": stage,
        "key": key,
        "codec": codec,
        "size": len(payload),
        "sha256": payload_sha256(payload),
        "created": created if created is not None else time.time(),
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return line + b"\n" + payload


def decode_header(blob: bytes) -> Tuple[Dict, int]:
    """Parse the envelope header; returns (header dict, payload offset)."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise ArtifactIntegrityError("artifact has no header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ArtifactIntegrityError(f"unreadable artifact header: {error}") from None
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        raise ArtifactIntegrityError(
            f"unsupported artifact format {header.get('format') if isinstance(header, dict) else header!r}"
        )
    for field_name in ("stage", "key", "codec", "size", "sha256", "created"):
        if field_name not in header:
            raise ArtifactIntegrityError(f"artifact header misses {field_name!r}")
    return header, newline + 1


def decode_artifact(
    blob: bytes,
    expect_stage: Optional[str] = None,
    expect_key: Optional[str] = None,
) -> Artifact:
    """Verify and unwrap one envelope.

    The payload hash is *always* recomputed -- a stored artifact is never
    trusted on size alone -- and the address in the header must match the
    address the caller looked up, so a mis-filed entry cannot masquerade as
    another stage's output.
    """
    header, offset = decode_header(blob)
    payload = blob[offset:]
    if expect_stage is not None and header["stage"] != expect_stage:
        raise ArtifactIntegrityError(
            f"artifact stage mismatch: stored {header['stage']!r}, expected {expect_stage!r}"
        )
    if expect_key is not None and header["key"] != expect_key:
        raise ArtifactIntegrityError(
            f"artifact key mismatch: stored {header['key']!r}, expected {expect_key!r}"
        )
    if len(payload) != header["size"]:
        raise ArtifactIntegrityError(
            f"artifact truncated: header says {header['size']} payload bytes, found {len(payload)}"
        )
    digest = payload_sha256(payload)
    if digest != header["sha256"]:
        raise ArtifactIntegrityError(
            f"artifact payload hash mismatch: stored {header['sha256'][:12]}…, "
            f"recomputed {digest[:12]}…"
        )
    return Artifact(
        stage=header["stage"],
        key=header["key"],
        codec=header["codec"],
        sha256=header["sha256"],
        size=header["size"],
        created=float(header["created"]),
        payload=payload,
    )


@runtime_checkable
class ArtifactStore(Protocol):
    """The store interface the pipeline memoisation speaks.

    ``load`` returns ``None`` both for absent entries and for entries that
    fail integrity verification (which are evicted as a side effect), so a
    corrupt cache can only ever cost a recompute, never a wrong result.
    """

    def load(self, stage: str, key: str) -> Optional[Artifact]: ...

    def save(self, stage: str, key: str, payload: bytes, codec: str) -> Artifact: ...

    def delete(self, stage: str, key: str) -> bool: ...

    def entries(self) -> Iterator[Artifact]: ...

    def clear(self) -> int: ...

    def gc(self, max_age_days: Optional[float] = None) -> Dict[str, int]: ...


class MemoryStore:
    """In-memory artifact store (per-process; the test/hermetic backend).

    Envelopes are stored encoded, so the verification path -- and therefore
    every corruption test -- is byte-for-byte the same as the on-disk store's.
    """

    def __init__(self) -> None:
        self.blobs: Dict[Tuple[str, str], bytes] = {}
        self.integrity_failures = 0
        self.hits = 0
        self.misses = 0

    def load(self, stage: str, key: str) -> Optional[Artifact]:
        validate_address(stage, key)
        blob = self.blobs.get((stage, key))
        if blob is None:
            self.misses += 1
            return None
        try:
            artifact = decode_artifact(blob, expect_stage=stage, expect_key=key)
        except ArtifactIntegrityError:
            self.integrity_failures += 1
            self.misses += 1
            del self.blobs[(stage, key)]
            return None
        self.hits += 1
        return artifact

    def save(self, stage: str, key: str, payload: bytes, codec: str) -> Artifact:
        blob = encode_artifact(stage, key, payload, codec)
        self.blobs[(stage, key)] = blob
        return decode_artifact(blob).without_payload()

    def delete(self, stage: str, key: str) -> bool:
        return self.blobs.pop((stage, key), None) is not None

    def entries(self) -> Iterator[Artifact]:
        for (stage, key), blob in sorted(self.blobs.items()):
            try:
                header, _ = decode_header(blob)
            except ArtifactIntegrityError:
                continue
            yield Artifact(
                stage=stage,
                key=key,
                codec=header["codec"],
                sha256=header["sha256"],
                size=header["size"],
                created=float(header["created"]),
            )

    def clear(self) -> int:
        removed = len(self.blobs)
        self.blobs.clear()
        return removed

    def gc(self, max_age_days: Optional[float] = None) -> Dict[str, int]:
        cutoff = expiry_cutoff(max_age_days)
        stats = {"scanned": 0, "kept": 0, "removed_corrupt": 0, "removed_expired": 0}
        for address in list(self.blobs):
            stats["scanned"] += 1
            try:
                artifact = decode_artifact(
                    self.blobs[address], expect_stage=address[0], expect_key=address[1]
                )
            except ArtifactIntegrityError:
                del self.blobs[address]
                stats["removed_corrupt"] += 1
                continue
            if cutoff is not None and artifact.created < cutoff:
                del self.blobs[address]
                stats["removed_expired"] += 1
                continue
            stats["kept"] += 1
        return stats
