"""Shared-memory batch transport: wire-format equivalence, fallback paths and
crash-safe cleanup (ISSUE 6 satellite).

The transport must be invisible in the results -- ``use_shared_memory=False``
and a missing ``shared_memory`` module both fall back to the pickled format
with bit-identical counters -- and must never leak ``/dev/shm`` segments,
even when a worker process dies mid-use (the parent owns the unlink and
performs it in a ``finally`` block).
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi import shm_transport
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.planner import PlannedBatch
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fi.shm_transport import PlanSegment
from repro.fsm.random_fsm import random_fsm

ALL_EFFECTS = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)


def _protect(fsm):
    return protect_fsm(fsm, ScfiOptions(protection_level=2, generate_verilog=False)).structure


def _batches():
    # Lane words stay within each batch's lane count (goldens + jobs), as
    # the planner guarantees: batch 0 has 5 lanes, batch 1 has 3.
    return [
        PlannedBatch(
            start=0,
            stop=3,
            golden_contexts=(0, 1),
            input_words={"a": 21, "b": 0},
            register_words={"q0": 31},
        ),
        PlannedBatch(
            start=3,
            stop=5,
            golden_contexts=(2,),
            input_words={"a": 2, "b": 1},
            register_words={"q0": 0},
        ),
    ]


def _wide_batch():
    """One batch spanning more than 64 lanes, so rows need two words."""
    return PlannedBatch(
        start=0,
        stop=70,
        golden_contexts=(0, 1),
        input_words={"a": (1 << 70) | 5, "b": (1 << 72) - 1},
        register_words={"q0": 1 << 64},
    )


def _shm_names():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestPlanSegment:
    def test_words_roundtrip(self):
        segment = PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=False)
        assert segment is not None
        try:
            for batch, ref in zip(_batches(), segment.refs):
                input_rows, register_rows = shm_transport.batch_words(ref)
                assert shm_transport.rows_to_ints(ref.input_nets, input_rows) == batch.input_words
                assert (
                    shm_transport.rows_to_ints(ref.register_nets, register_rows)
                    == batch.register_words
                )
                assert ref.codes_offset is None
        finally:
            segment.close()

    def test_codes_roundtrip(self):
        segment = PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=True)
        assert segment is not None
        try:
            ref = segment.refs[0]
            shm_transport.write_codes(ref, [7, 1, 4])
            assert segment.codes_for(ref).tolist() == [7, 1, 4]
        finally:
            segment.close()

    def test_multi_word_rows_roundtrip(self):
        batch = _wide_batch()
        segment = PlanSegment.pack([batch], num_goldens=[2], want_codes=False)
        assert segment is not None
        try:
            ref = segment.refs[0]
            assert ref.num_words == 2
            input_rows, register_rows = shm_transport.batch_words(ref)
            assert shm_transport.rows_to_ints(ref.input_nets, input_rows) == batch.input_words
            assert (
                shm_transport.rows_to_ints(ref.register_nets, register_rows)
                == batch.register_words
            )
        finally:
            segment.close()

    def test_broadcast_batches_have_nothing_to_share(self):
        broadcast = [PlannedBatch(start=0, stop=4, golden_contexts=(0,))]
        assert PlanSegment.pack(broadcast, num_goldens=[1], want_codes=False) is None

    def test_close_is_idempotent_and_unlinks(self):
        segment = PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=False)
        name = segment.name
        assert name.lstrip("/") in _shm_names()
        segment.close()
        assert name.lstrip("/") not in _shm_names()
        segment.close()  # second close is a no-op

    def test_zero_copy_rows_for_numpy_engine(self):
        segment = PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=False)
        try:
            input_rows, _ = shm_transport.batch_words(segment.refs[0])
            assert input_rows.dtype == np.dtype("<u8")
            assert input_rows.shape == (2, segment.refs[0].num_words)
        finally:
            segment.close()


def _attach_and_die(ref, ready):
    """Child: attach the segment, write a code, then die without cleanup."""
    shm_transport.write_codes(ref, list(range(ref.num_jobs)))
    ready.set()
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashCleanup:
    def test_killed_attacher_leaks_no_segment(self):
        """A SIGKILLed worker holding an attachment must not leave a
        ``/dev/shm`` entry behind once the parent closes the segment."""
        before = _shm_names()
        segment = PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=True)
        assert segment is not None
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        child = context.Process(target=_attach_and_die, args=(segment.refs[0], ready))
        child.start()
        assert ready.wait(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL
        # The child died mid-use; its codes are still readable by the parent.
        assert segment.codes_for(segment.refs[0]).tolist() == [0, 1, 2]
        segment.close()
        assert _shm_names() <= before

    def test_campaign_cleans_up_when_worker_raises(self):
        """Worker exceptions propagate, and the finally-block unlink still
        runs: no segment outlives the failed plan execution."""
        before = _shm_names()
        structure = _protect(random_fsm(3, num_states=4))
        scenario = ExhaustiveSingleFault(
            target_nets=["no_such_net"], effects=(FaultEffect.TRANSIENT_FLIP,)
        )
        with FaultCampaign(structure, workers=2) as campaign:
            with pytest.raises(ValueError, match="no_such_net"):
                campaign.run(scenario)
        assert _shm_names() <= before


class TestTransportFallback:
    def test_use_shared_memory_false_is_bit_identical(self):
        structure = _protect(random_fsm(19, num_states=4))
        scenario = ExhaustiveSingleFault(target_nets="comb", effects=ALL_EFFECTS)
        single = FaultCampaign(structure).run(scenario)
        with FaultCampaign(structure, workers=3) as campaign:
            shm = campaign.run(scenario)
            assert campaign.last_transport == "shm"
        with FaultCampaign(structure, workers=3, use_shared_memory=False) as campaign:
            pickled = campaign.run(scenario)
            assert campaign.last_transport == "pickle"
        assert shm.counters() == single.counters()
        assert pickled.counters() == single.counters()

    def test_unavailable_module_falls_back(self, monkeypatch):
        monkeypatch.setattr(shm_transport, "_shared_memory", None)
        assert not shm_transport.available()
        assert PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=False) is None
        structure = _protect(random_fsm(23, num_states=4))
        scenario = ExhaustiveSingleFault(target_nets="diffusion")
        single = FaultCampaign(structure).run(scenario)
        with FaultCampaign(structure, workers=2) as campaign:
            sharded = campaign.run(scenario)
            assert campaign.last_transport == "pickle"
        assert sharded.counters() == single.counters()

    def test_segment_creation_failure_falls_back(self, monkeypatch):
        class _Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no space")

        monkeypatch.setattr(shm_transport._shared_memory, "SharedMemory", _Boom)
        assert PlanSegment.pack(_batches(), num_goldens=[2, 1], want_codes=False) is None
