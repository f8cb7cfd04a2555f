"""The lane planner and the lane words the engines build from it.

A plan is nothing but cut points: :func:`~repro.fi.planner.plan_batches`
walks runs of equal context.  These tests keep the job-by-job planning loops
and the bignum lane-word assembly the executor used to run as reference
implementations, and pin the run-based planner to the same cut points and
the executor's packed per-context lane words to the same bits, on both
compiled engines, over random context sequences and edge-case lane widths.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import FaultCampaign
from repro.fi.planner import PlannedBatch, plan_batches
from repro.fi.scenarios import ExhaustiveSingleFault, RandomMultiFault
from repro.fsm.random_fsm import random_fsm

LANE_WIDTHS = (1, 2, 63, 64, 65, 4096)

#: Contexts of the test structure (``random_fsm(3, num_states=8)`` has 20).
NUM_CONTEXTS = 20

#: A job stream as runs of ``(context, length)``: long runs, alternating
#: contexts (runs of one) and contexts that recur after other runs.
RUNS = st.lists(
    st.tuples(st.integers(0, NUM_CONTEXTS - 1), st.integers(1, 150)), min_size=1, max_size=8
)


def _contexts(runs: Sequence[Tuple[int, int]]) -> np.ndarray:
    return np.repeat(
        np.array([c for c, _ in runs], dtype=np.intp), [n for _, n in runs]
    )


# ----------------------------------------------------------------------
# Reference implementations: the job-by-job planner and bignum lane words
# ----------------------------------------------------------------------
def reference_plan(
    job_contexts: Sequence[int], lane_width: int, pack_contexts: bool
) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """``(start, stop, golden_contexts)`` per batch, admitting job by job."""
    batches = []
    start = 0
    if not pack_contexts:
        for position, index in enumerate(job_contexts):
            if position > start and (
                index != job_contexts[start] or position - start >= lane_width
            ):
                batches.append((start, position, (job_contexts[start],)))
                start = position
        if start < len(job_contexts):
            batches.append((start, len(job_contexts), (job_contexts[start],)))
        return batches
    budget = lane_width + 1
    seen: Dict[int, None] = {}
    for position, index in enumerate(job_contexts):
        cost = 1 if index in seen else 2
        if position > start and (position - start) + len(seen) + cost > budget:
            batches.append((start, position, tuple(seen)))
            start = position
            seen = {}
        seen[index] = None
    if start < len(job_contexts):
        batches.append((start, len(job_contexts), tuple(seen)))
    return batches


def reference_lane_words(
    campaign: FaultCampaign, golden_contexts: Sequence[int], job_contexts: Sequence[int]
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Bignum lane words: OR each context's lane mask into the nets it sets."""
    masks: Dict[int, int] = {index: 1 << lane for lane, index in enumerate(golden_contexts)}
    for lane, index in enumerate(job_contexts, start=len(golden_contexts)):
        masks[index] |= 1 << lane
    input_words: Dict[str, int] = {}
    register_words: Dict[str, int] = {}
    for index, mask in masks.items():
        encoded, registers = campaign._context_vectors(index)
        for net, value in encoded.items():
            if value:
                input_words[net] = input_words.get(net, 0) | mask
        for net, value in registers.items():
            if value:
                register_words[net] = register_words.get(net, 0) | mask
    return input_words, register_words


@pytest.fixture(scope="module")
def structure():
    return protect_fsm(
        random_fsm(3, num_states=8), ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure


@pytest.fixture(scope="module")
def campaigns(structure):
    built = {
        engine: FaultCampaign(structure, engine=engine)
        for engine in ("parallel", "parallel-numpy")
    }
    assert all(len(c.contexts) == NUM_CONTEXTS for c in built.values())
    return built


def _as_ints(words: Dict[str, object]) -> Dict[str, int]:
    return {
        net: int.from_bytes(word.tobytes(), "little") if isinstance(word, np.ndarray) else word
        for net, word in words.items()
    }


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pack_contexts", [True, False])
@pytest.mark.parametrize("lane_width", LANE_WIDTHS)
@settings(max_examples=25, deadline=None)
@given(runs=RUNS)
@example(runs=[(4, 1)])  # a single job
@example(runs=[(i % 2, 1) for i in range(200)])  # alternating contexts
@example(runs=[(0, 150), (1, 150), (0, 150)])  # long runs, a recurring context
def test_cut_points_match_the_job_by_job_planner(runs, lane_width, pack_contexts):
    contexts = _contexts(runs)
    plan = plan_batches(contexts, lane_width, pack_contexts)
    got = [(b.start, b.stop, b.golden_contexts) for b in plan.batches]
    assert got == reference_plan(contexts.tolist(), lane_width, pack_contexts)


@pytest.mark.parametrize("pack_contexts", [True, False])
@pytest.mark.parametrize("lane_width", LANE_WIDTHS)
@settings(max_examples=10, deadline=None)
@given(runs=RUNS)
@example(runs=[(4, 1)])
@example(runs=[(0, 1), (1, 1), (0, 1), (1, 1), (2, 1)])
def test_lane_words_match_the_bignum_reference(campaigns, runs, lane_width, pack_contexts):
    contexts = _contexts(runs)
    for batch in plan_batches(contexts, lane_width, pack_contexts).batches:
        job_contexts = contexts[batch.start : batch.stop]
        ref_inputs, ref_registers = reference_lane_words(
            campaigns["parallel"], batch.golden_contexts, job_contexts.tolist()
        )
        for campaign in campaigns.values():
            inputs, registers = campaign._lane_words(batch.golden_contexts, job_contexts)
            inputs, registers = _as_ints(inputs), _as_ints(registers)
            assert set(ref_inputs) <= set(inputs) and set(ref_registers) <= set(registers)
            assert inputs == {net: ref_inputs.get(net, 0) for net in inputs}
            assert registers == {net: ref_registers.get(net, 0) for net in registers}


# ----------------------------------------------------------------------
# The executor's planning entry point
# ----------------------------------------------------------------------
class TestPlanJobs:
    def test_plan_jobs_applies_the_campaign_budget(self, structure):
        contexts = _contexts([(0, 70), (3, 5), (0, 2), (7, 90)])
        for lane_width in (8, 64):
            for pack_contexts in (True, False):
                campaign = FaultCampaign(
                    structure, lane_width=lane_width, pack_contexts=pack_contexts
                )
                plan = campaign.plan_jobs(contexts)
                assert plan.batches == campaign.plan_jobs(contexts.tolist()).batches
                assert [(b.start, b.stop, b.golden_contexts) for b in plan.batches] == (
                    reference_plan(contexts.tolist(), lane_width, pack_contexts)
                )

    @pytest.mark.parametrize("engine", ["parallel", "parallel-numpy"])
    def test_lowered_campaign_shapes_plan_like_the_reference(self, structure, engine):
        campaign = FaultCampaign(structure, engine=engine)
        for scenario in (
            ExhaustiveSingleFault(target_nets="comb"),
            RandomMultiFault(num_faults=3, trials=500, seed=1),
        ):
            contexts = campaign.lower_scenario(scenario).contexts
            plan = campaign.plan_jobs(contexts)
            assert [(b.start, b.stop, b.golden_contexts) for b in plan.batches] == (
                reference_plan(contexts.tolist(), campaign.lane_width, True)
            )

    def test_an_empty_stream_plans_no_batches(self):
        plan = plan_batches(np.zeros(0, dtype=np.intp), 64, True)
        assert plan.batches == ()

    def test_a_batch_is_only_cut_points(self):
        batch = PlannedBatch(3, 9, (1, 4))
        assert batch.num_jobs == 6
        assert PlannedBatch._fields == ("start", "stop", "golden_contexts")
