"""The executor's verdict tables and the kept-outcomes document they feed.

Every campaign ends in one four-way verdict on each trace's final state
code.  The executor reaches it by hashing codes onto state indices and
gathering from one ``contexts x (S+1)`` verdict table per trace length; the
tests here hold that path to :func:`~repro.fi.model.classify_observation`
on every code of every context, and pin a whole kept-outcomes document
byte for byte on every engine, so a decode bug that every engine shares
(they all merge through the same code) still shows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import _CLASSIFICATIONS, FaultCampaign, _StateLookup
from repro.fi.injector import cfg_successor_map
from repro.fi.model import FaultEffect, classify_observation
from repro.fi.scenarios import LaserSpot, RandomMultiFault
from repro.fsm.random_fsm import random_fsm
from repro.fsmlib.registry import available_fsms, get_fsm
from repro.fsmlib import traffic_light_fsm

KEPT_OUTCOMES = Path(__file__).parent / "data" / "kept_outcomes.json"


def _structure(fsm, level):
    return protect_fsm(fsm, ScfiOptions(protection_level=level, generate_verilog=False)).structure


def _reference(campaign, cycles, contexts, codes):
    """``classify_observation``'s class index of every (context, code)."""
    hardened = campaign.hardened
    successors = cfg_successor_map(hardened.fsm)
    error_states = frozenset([hardened.error_state])
    expected = []
    for index, code in zip(contexts.tolist(), codes):
        trajectory = campaign._trajectory(index, cycles)
        classification = classify_observation(
            trajectory[cycles][1],
            code,
            hardened.decode_state(code),
            error_states=error_states,
            cfg_successors=successors.get(trajectory[cycles - 1][0], frozenset()),
        )
        expected.append(_CLASSIFICATIONS.index(classification))
    return expected


def _assert_classes_match(campaign, cycles, contexts, codes):
    """``_classes`` equals the reference on uint64, int64 (the oracle's
    reply read by numpy) and object codes alike."""
    expected = np.array(_reference(campaign, cycles, contexts, codes))
    for form in (
        np.array(codes, dtype=np.uint64),
        np.array(codes, dtype=np.int64),
        np.array(codes, dtype=object),
        list(codes),
    ):
        wrong = np.flatnonzero(campaign._classes(cycles, contexts, form) != expected)
        assert not wrong.size, (type(form), cycles, [(contexts[i], codes[i]) for i in wrong[:5]])


@pytest.mark.parametrize("name", available_fsms())
def test_every_code_of_every_context_matches_classify_observation(name):
    structure = _structure(get_fsm(name), 2)
    codes_per_context = 1 << len(structure.state_d)
    with FaultCampaign(structure) as campaign:
        contexts = np.repeat(np.arange(len(campaign.contexts), dtype=np.intp), codes_per_context)
        codes = np.tile(np.arange(codes_per_context), len(campaign.contexts)).tolist()
        for cycles in (1, 4):
            _assert_classes_match(campaign, cycles, contexts, codes)


def test_sampled_codes_past_a_dense_table_match_classify_observation():
    """A 128-state FSM at N = 4: 348 contexts x 2**13 codes, 2.85M pairs,
    sampled uniformly plus every codeword of every context."""
    structure = _structure(random_fsm(6, 128), 4)
    rng = np.random.default_rng(11)
    with FaultCampaign(structure) as campaign:
        num_contexts = len(campaign.contexts)
        codewords = list(campaign.hardened.state_encoding.values())
        contexts = np.concatenate((
            np.repeat(np.arange(num_contexts, dtype=np.intp), len(codewords)),
            rng.integers(0, num_contexts, 4000).astype(np.intp),
        ))
        codes = codewords * num_contexts + rng.integers(
            0, 1 << len(structure.state_d), 4000
        ).tolist()
        for cycles in (1, 4):
            _assert_classes_match(campaign, cycles, contexts, codes)


def test_wide_codewords_hash_as_python_ints():
    """Codes of 64 bits or more travel as object arrays of ints."""
    codewords = [(1 << 70) + 3, (1 << 65) | 5, 12, (1 << 90) - 1]
    lookup = _StateLookup.of(np.array(codewords, dtype=object))
    probes = codewords + [(1 << 70) + 3 + lookup.modulus, 0, 1 << 64]
    assert lookup.index(probes).tolist() == [0, 1, 2, 3, 4, 4, 4]


def _pinned_scenarios():
    effects = tuple(FaultEffect)
    return {
        "random-2-fault": RandomMultiFault(num_faults=2, trials=200, seed=3, effects=effects),
        "laser-3-cycle": LaserSpot(
            spot_radius=1.0, spot_trials=60, seed=7, effects=effects, cycles=3,
            duration="persistent",
        ),
    }


@pytest.fixture(scope="module")
def traffic_light_n2():
    return _structure(traffic_light_fsm(), 2)


def test_pinned_document_covers_every_class_and_a_multi_cycle_trace():
    document = json.loads(KEPT_OUTCOMES.read_text())
    for campaign in document.values():
        assert all(campaign[key] for key in ("masked", "detected", "redirected", "hijacked"))
    states = {outcome["observed_state"] for outcome in document["laser-3-cycle"]["outcomes"]}
    assert None in states and len(states) > 2


@pytest.mark.parametrize(
    "engine, workers",
    [("parallel", 1), ("parallel-numpy", 1), ("scalar", 1), ("parallel-numpy", 2)],
)
def test_kept_outcomes_document_is_byte_identical(traffic_light_n2, engine, workers):
    """The document was written before the verdict tables replaced the
    memoised classifier; every engine and worker count still emits it."""
    with FaultCampaign(
        traffic_light_n2, engine=engine, workers=workers, keep_outcomes=True
    ) as campaign:
        document = {name: campaign.run(s).to_dict() for name, s in _pinned_scenarios().items()}
    text, pinned = json.dumps(document, sort_keys=True) + "\n", KEPT_OUTCOMES.read_text()
    first = next((i for i, pair in enumerate(zip(text, pinned)) if pair[0] != pair[1]), None)
    differs = text != pinned
    assert not differs, (len(text), len(pinned), first, text[first : (first or 0) + 200])
