"""Hardening-artifact serialization for the content-addressed pipeline.

A harden-stage artifact is the complete :class:`~repro.core.scfi.ScfiResult`
-- hardened behavioural model, SCFI netlist, optional Verilog -- pickled with
a small version tag.  Pickle is the right codec here: the object graph is
dataclasses, named tuples and plain classes, all defined at module level and
already shipped across process boundaries to the campaign worker pool, and
the artifact store addresses entries by the stage's *input*
hash while guarding the stored bytes with their own SHA-256, so pickle's
byte-level nondeterminism across interpreter versions is irrelevant to cache
identity.  The version tag is the compatibility gate: bump
:data:`SCFI_CODEC_VERSION` whenever the pickled object graph changes shape,
and stale cached artifacts are simply treated as misses and rewritten.
"""

from __future__ import annotations

import pickle

from repro.core.scfi import ScfiResult

#: Bump when the pickled ScfiResult graph changes incompatibly (2: the FSM
#: edges, encodings and layout records became named tuples and plain classes).
SCFI_CODEC_VERSION = 2


class ScfiCodecError(ValueError):
    """A harden artifact could not be decoded by this build."""


def serialize_scfi_result(result: ScfiResult) -> bytes:
    """Lower a hardening result to the versioned harden-artifact payload."""
    return pickle.dumps((SCFI_CODEC_VERSION, result), protocol=pickle.HIGHEST_PROTOCOL)


def deserialize_scfi_result(payload: bytes) -> ScfiResult:
    """Restore a hardening result; raises :class:`ScfiCodecError` on any
    version or shape mismatch (callers treat that as a cache miss)."""
    try:
        decoded = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - any unpickle failure is a miss
        raise ScfiCodecError(f"undecodable harden artifact: {error}") from None
    if (
        not isinstance(decoded, tuple)
        or len(decoded) != 2
        or decoded[0] != SCFI_CODEC_VERSION
        or not isinstance(decoded[1], ScfiResult)
    ):
        raise ScfiCodecError(
            f"harden artifact has unsupported codec version/shape "
            f"(expected ({SCFI_CODEC_VERSION}, ScfiResult))"
        )
    return decoded[1]
