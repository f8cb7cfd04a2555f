"""Content-addressed artifact store backing the incremental pipeline.

The staged experiment pipeline (:class:`repro.api.session.Session`) memoises
harden / campaign / report outputs here, keyed by the per-stage input
hashes of :meth:`repro.api.spec.ExperimentSpec.stage_hashes`.  See
:mod:`repro.store.base` for the self-verifying envelope format and
:mod:`repro.store.filestore` for the on-disk layout.  Tarball export/import
lives in :mod:`repro.store.transfer`, which callers import directly so that
``tarfile`` stays off the import path of a plain run.
"""

from repro.store.base import (
    CODEC_JSON,
    CODEC_PICKLE,
    STORE_FORMAT,
    Artifact,
    ArtifactIntegrityError,
    ArtifactStore,
    MemoryStore,
    decode_artifact,
    decode_header,
    encode_artifact,
    payload_sha256,
    validate_address,
)
from repro.store.filestore import FileStore


def open_store(cache_dir) -> ArtifactStore:
    """Open (creating if needed) the persistent store rooted at ``cache_dir``."""
    return FileStore(cache_dir)


__all__ = [
    "Artifact",
    "ArtifactIntegrityError",
    "ArtifactStore",
    "CODEC_JSON",
    "CODEC_PICKLE",
    "FileStore",
    "MemoryStore",
    "STORE_FORMAT",
    "decode_artifact",
    "decode_header",
    "encode_artifact",
    "open_store",
    "payload_sha256",
    "validate_address",
]
