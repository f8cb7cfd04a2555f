"""Shared-memory transport for process-sharded campaign batches.

The sharded executor of :mod:`repro.fi.executor` ships planned batches
(:class:`~repro.fi.planner.PlannedBatch`) to its worker fleet
(:mod:`repro.fi.fleet`).  Their payload is
dominated by the pre-assembled per-net input/register lane words -- for wide
campaigns thousands of lanes per net -- and, for ``keep_outcomes`` runs, by
the per-job observed state codes coming back.  This module moves both through
one ``multiprocessing.shared_memory`` segment per plan execution instead of
pickling big Python ints over the worker queues:

* the **parent** packs every batch's input/register lane words into one
  segment as little-endian uint64 rows (:meth:`PlanSegment.pack`) plus one
  uint64 code slot per job, and hands workers a tiny picklable
  :class:`ShmBatchRef` naming the segment and the offsets;
* **workers** attach the segment once per name (cached;
  :func:`attach_segment`), read the lane words in place -- the numpy engine
  consumes the rows zero-copy, the bignum engine rebuilds its ints -- and
  write per-job observed codes back into the batch's code slots;
* the parent reads each batch's codes as its worker reply arrives, and
  **unlinks the segment deterministically** in a ``finally`` block, so
  neither a worker exception nor a parent-side error leaks ``/dev/shm``
  entries (``tests/test_shm_transport.py`` kills an attached process mid-use
  and asserts the segment is gone).

Availability is probed at import time; callers fall back to the pickled wire
format when the platform lacks ``shared_memory`` (:func:`available`) or when
segment creation fails (:meth:`PlanSegment.pack` returns ``None``).  Worker
attachment uses ``track=False`` where supported and otherwise suppresses the
attach-side ``resource_tracker`` registration (tracked attachments would try
to unlink the parent's segment again at worker exit -- the well-known
bpo-38119 double-tracking problem).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - import probe
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    _shared_memory = None

from repro.netlist.parallel_np import WORD_DTYPE, int_to_words, words_to_int


def available() -> bool:
    """True when ``multiprocessing.shared_memory`` is importable."""
    return _shared_memory is not None


@dataclass(frozen=True)
class ShmBatchRef:
    """Picklable handle to one planned batch inside a shared segment.

    ``input_nets``/``register_nets`` are ``None`` for broadcast batches
    (``pack_contexts=False``), whose context vectors never left the worker's
    own campaign state.  Offsets count uint64 words from the segment start;
    ``codes_offset`` is ``None`` when the parent does not need the per-job
    observed codes back (counters-only campaigns).
    """

    segment: str
    start: int
    stop: int
    golden_contexts: Tuple[int, ...]
    input_nets: Optional[Tuple[str, ...]]
    register_nets: Optional[Tuple[str, ...]]
    words_offset: int
    num_words: int
    codes_offset: Optional[int]

    @property
    def num_jobs(self) -> int:
        return self.stop - self.start


class PlanSegment:
    """Parent-side owner of one plan execution's shared segment."""

    def __init__(self, shm, refs: List[ShmBatchRef]):
        self._shm = shm
        self.refs = refs
        self.name = shm.name

    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls,
        batches: Sequence[object],
        num_goldens: Sequence[int],
        want_codes: bool,
    ) -> Optional["PlanSegment"]:
        """Pack every batch's lane words (and code slots) into one segment.

        ``batches`` are :class:`~repro.fi.planner.PlannedBatch` objects;
        ``num_goldens[i]`` is the golden-lane count of batch ``i`` (the lane
        count of the pass is goldens + jobs).  Returns ``None`` when shared
        memory is unavailable, there is nothing to share, or segment creation
        fails -- the caller falls back to the pickled wire format.
        """
        if _shared_memory is None:
            return None
        layout: List[Tuple[int, int, int]] = []  # (words_offset, num_words, codes_offset)
        cursor = 0
        for batch, num_golden in zip(batches, num_goldens):
            num_lanes = num_golden + (batch.stop - batch.start)
            num_words = -(-num_lanes // 64)
            words_offset = cursor
            if batch.input_words is not None:
                cursor += (len(batch.input_words) + len(batch.register_words)) * num_words
            codes_offset = None
            if want_codes:
                codes_offset = cursor
                cursor += batch.stop - batch.start
            layout.append((words_offset, num_words, codes_offset))
        if cursor == 0:
            return None  # nothing to share (broadcast batches, counters only)
        try:
            shm = _shared_memory.SharedMemory(create=True, size=cursor * 8)
        except OSError:
            return None
        words = np.frombuffer(shm.buf, dtype=WORD_DTYPE)
        refs: List[ShmBatchRef] = []
        for batch, (words_offset, num_words, codes_offset) in zip(batches, layout):
            input_nets = register_nets = None
            if batch.input_words is not None:
                input_nets = tuple(batch.input_words)
                register_nets = tuple(batch.register_words)
                offset = words_offset
                for word in batch.input_words.values():
                    words[offset : offset + num_words] = int_to_words(word, num_words)
                    offset += num_words
                for word in batch.register_words.values():
                    words[offset : offset + num_words] = int_to_words(word, num_words)
                    offset += num_words
            refs.append(
                ShmBatchRef(
                    segment=shm.name,
                    start=batch.start,
                    stop=batch.stop,
                    golden_contexts=batch.golden_contexts,
                    input_nets=input_nets,
                    register_nets=register_nets,
                    words_offset=words_offset,
                    num_words=num_words,
                    codes_offset=codes_offset,
                )
            )
        return cls(shm, refs)

    # ------------------------------------------------------------------
    def codes_for(self, ref: ShmBatchRef) -> np.ndarray:
        """Copy one batch's observed-code slots out of the segment.

        Only valid after the batch's worker reply arrived (the worker has
        finished writing its slots by then); the copy keeps the row alive
        past :meth:`close`.
        """
        if ref.codes_offset is None:
            raise ValueError("batch was packed without code slots")
        words = np.frombuffer(self._shm.buf, dtype=WORD_DTYPE)
        return words[ref.codes_offset : ref.codes_offset + ref.num_jobs].copy()

    def close(self) -> None:
        """Release and unlink the segment (idempotent, crash-safe).

        Workers that still hold a mapping keep reading their copy -- POSIX
        keeps the memory alive until the last mapping closes -- but the name
        disappears from ``/dev/shm`` immediately, so no segment outlives its
        plan execution.
        """
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        try:
            shm.close()
        except Exception:  # pragma: no cover - best-effort release
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Attached segments by name (one live entry in practice: a new plan's
#: segment evicts the previous one).
_ATTACHED: Dict[str, object] = {}


def attach_segment(name: str):
    """Attach (and cache) one shared segment in a worker process.

    Older attachments are closed first -- the parent unlinks a segment as
    soon as its plan execution finishes, so at most one name is ever live.
    Attach-side ``resource_tracker`` registration is suppressed (or undone):
    the parent owns the unlink.
    """
    segment = _ATTACHED.get(name)
    if segment is not None:
        return segment
    for old in _ATTACHED.values():
        try:
            old.close()
        except Exception:  # pragma: no cover - best-effort eviction
            pass
    _ATTACHED.clear()
    try:
        segment = _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13 has no track flag and registers attachments with the
        # resource tracker (bpo-38119); with the fork start method workers
        # share the parent's tracker, so an attach-side unregister would strip
        # the parent's own registration.  Suppress registration instead.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    _ATTACHED[name] = segment
    return segment


def batch_words(ref: ShmBatchRef) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """One batch's (input rows, register rows) as 2D uint64 views.

    Returns ``(None, None)`` for broadcast batches.  Rows alias the shared
    segment -- zero-copy for the numpy engine; the bignum engine converts via
    :func:`rows_to_ints`.
    """
    if ref.input_nets is None:
        return None, None
    segment = attach_segment(ref.segment)
    words = np.frombuffer(segment.buf, dtype=WORD_DTYPE)
    count = (len(ref.input_nets) + len(ref.register_nets)) * ref.num_words
    rows = words[ref.words_offset : ref.words_offset + count].reshape(-1, ref.num_words)
    return rows[: len(ref.input_nets)], rows[len(ref.input_nets) :]


def rows_to_ints(nets: Sequence[str], rows: np.ndarray) -> Dict[str, int]:
    """Rebuild a ``{net: bignum lane word}`` mapping from shared rows."""
    return {net: words_to_int(rows[i]) for i, net in enumerate(nets)}


def write_codes(ref: ShmBatchRef, codes: Sequence[int]) -> None:
    """Store one batch's per-job observed codes into its segment slots."""
    if ref.codes_offset is None:
        return
    segment = attach_segment(ref.segment)
    words = np.frombuffer(segment.buf, dtype=WORD_DTYPE)
    words[ref.codes_offset : ref.codes_offset + ref.num_jobs] = np.asarray(
        codes, dtype=WORD_DTYPE
    )
