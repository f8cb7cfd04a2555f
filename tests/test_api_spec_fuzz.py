"""Malformed spec documents fail with ``ValueError``; valid ones keep their hash.

``ExperimentSpec.from_dict`` type-checks every section and field, so any JSON
document either parses into a spec or raises :class:`ValueError` naming the
field -- never a bare ``TypeError`` from deep inside a constructor, and never
a silent acceptance of a wrong type (``"compare": "no"`` is truthy).  A
hypothesis fuzzer mixes valid and invalid field values; the content hashes
of the committed spec documents and of a few hand-written ones are pinned to
the values they had before the checks existed.  Valid sampled campaigns
(``random``, ``laser``, ``bitflip``) give the scalar oracle's counters on the
numpy engine.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.api.spec import CampaignSpec, ExperimentSpec, FsmSpec, ProtectSpec, ReportSpec
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fsm.random_fsm import random_fsm

ROOT = Path(__file__).resolve().parent.parent

#: A spec document with one field (dotted path) replaced.
BASE = {"fsm": {"name": "traffic_light"}, "campaign": {"scenario": "exhaustive"}}


def _with(path: str, value):
    document = json.loads(json.dumps(BASE))
    section, _, name = path.partition(".")
    if name:
        document.setdefault(section, {})[name] = value
    else:
        document[section] = value
    return document


@pytest.mark.parametrize(
    "path, value",
    [
        ("fsm", 3),
        ("campaign.target", 5),
        ("campaign.faults", "two"),
        ("protect.protection_level", "x"),
        ("campaign", []),
        ("campaign.seed", "a"),
        ("campaign.faults", True),
        ("report.keep_outcomes", "yes"),
        ("campaign.compare", "no"),
        ("fsm", []),
        ("report", 0),
        ("fsm.name", 7),
        ("campaign.effects", "flip"),
        ("campaign.glitch_schedule", 5),
        ("campaign.glitch_schedule", ["0-n1-flip"]),
        ("campaign.spot_radius", float("nan")),
        ("campaign.lane_width", 64.0),
        ("protect.share_xors", 1),
        ("version", True),
    ],
)
def test_malformed_field_raises_value_error(path, value):
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict(_with(path, value))


@pytest.mark.parametrize("document", [None, [], "spec", 3])
def test_non_object_document_raises_value_error(document):
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentSpec.from_dict(document)


def test_error_names_the_field():
    with pytest.raises(ValueError, match=r"CampaignSpec\.compare must be a boolean"):
        ExperimentSpec.from_dict(_with("campaign.compare", "no"))


# ----------------------------------------------------------------------
# Fuzzing
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=5000)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=5,
)

#: Plausible values per field (valid ones and near misses).
FIELD_VALUES = {
    FsmSpec: {
        "name": st.sampled_from(["traffic_light", "ibex_lsu", None]),
        "verilog": st.sampled_from([None, "module m; endmodule"]),
    },
    ProtectSpec: {
        "protection_level": st.integers(min_value=0, max_value=4),
        "error_bits": st.integers(min_value=-1, max_value=4),
        "share_xors": st.booleans(),
        "repair_diffusion": st.booleans(),
    },
    CampaignSpec: {
        "scenario": st.sampled_from(["exhaustive", "random", "effects", "glitch", "laser"]),
        "target": st.sampled_from([None, "diffusion", "comb", ["n1", "n2"], []]),
        "effects": st.sampled_from([None, ["flip"], ["stuck0", "stuck1"], [], ["melt"]]),
        "faults": st.integers(min_value=0, max_value=4),
        "trials": st.integers(min_value=-1, max_value=100),
        "seed": st.integers(min_value=0, max_value=2**40),
        "engine": st.sampled_from(["parallel", "parallel-numpy", "scalar", "quantum"]),
        "lane_width": st.sampled_from([None, 0, 1, 64, 4096]),
        "workers": st.integers(min_value=0, max_value=4),
        "pack_contexts": st.booleans(),
        "compare": st.booleans(),
        "cycles": st.integers(min_value=0, max_value=4),
        "fault_duration": st.sampled_from(["transient", "persistent", "forever"]),
        "glitch_schedule": st.sampled_from(
            [None, [[0, "n1", "flip"]], [[1, "n2", "stuck1"], [0, "n1", "stuck0"]], [[0, "n1"]]]
        ),
        "spot_radius": st.sampled_from([None, 0.5, 1.5, 2, -1.0]),
        "spot_trials": st.sampled_from([None, 0, 10, -2]),
    },
    ReportSpec: {
        name: st.booleans()
        for name in ("keep_outcomes", "include_area", "include_timing", "emit_verilog")
    },
}


@st.composite
def sections(draw, spec_cls):
    """A section object: known fields with plausible or arbitrary values,
    sometimes an unknown key."""
    values = FIELD_VALUES[spec_cls]
    names = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=len(values)))
    section = {}
    for name in names:
        arbitrary = draw(st.integers(min_value=0, max_value=9)) == 0
        section[name] = draw(JSON if arbitrary else values[name])
    if draw(st.integers(min_value=0, max_value=19)) == 0:
        section[draw(st.text(max_size=5))] = draw(JSON)
    return section


@st.composite
def documents(draw):
    document = {}
    for key, spec_cls in (
        ("fsm", FsmSpec),
        ("protect", ProtectSpec),
        ("campaign", CampaignSpec),
        ("report", ReportSpec),
    ):
        choice = draw(st.integers(min_value=0, max_value=9))
        if choice == 0:
            continue
        document[key] = draw(JSON) if choice == 1 else draw(sections(spec_cls))
    if draw(st.booleans()):
        document["version"] = draw(st.sampled_from([1, 1, 2, "1", True]))
    return document


@given(document=documents())
@settings(max_examples=400, deadline=None)
def test_from_dict_returns_a_spec_or_raises_value_error(document):
    try:
        spec = ExperimentSpec.from_dict(document)
    except ValueError:
        return
    assert isinstance(spec, ExperimentSpec)
    # A valid spec survives its JSON wire form with the same identity.
    wire = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(wire).content_hash() == spec.content_hash()


# ----------------------------------------------------------------------
# Valid sampled campaigns: the scalar oracle equals the numpy engine
# ----------------------------------------------------------------------
EFFECT_SETS = st.lists(
    st.sampled_from(["flip", "stuck0", "stuck1"]), min_size=1, max_size=3, unique=True
)
TARGETS = st.sampled_from([None, "diffusion", "comb"])


@st.composite
def sampled_campaigns(draw):
    """Valid ``random``, ``laser`` and ``bitflip`` campaign sections, small
    enough for the scalar oracle."""
    scenario = draw(st.sampled_from(["random", "laser", "bitflip"]))
    fields = {"scenario": scenario, "seed": draw(st.integers(0, 2**31 - 1))}
    if scenario == "laser":
        fields.update(
            spot_radius=draw(st.sampled_from([0.5, 1, 1.5, 2.5])),
            spot_trials=draw(st.integers(0, 6)),
            cycles=draw(st.integers(1, 3)),
            fault_duration=draw(st.sampled_from(["transient", "persistent"])),
        )
    else:
        fields.update(faults=draw(st.integers(1, 3)), trials=draw(st.integers(0, 12)))
    if scenario != "bitflip":
        fields.update(effects=draw(EFFECT_SETS), target=draw(TARGETS))
    return fields


@functools.lru_cache(maxsize=None)
def _protected_random_fsm(seed: int, num_states: int):
    return protect_fsm(
        random_fsm(seed, num_states=num_states),
        ScfiOptions(protection_level=2, generate_verilog=False),
    ).structure


@given(
    fsm_seed=st.integers(0, 20),
    num_states=st.sampled_from([4, 5]),
    fields=sampled_campaigns(),
)
@settings(max_examples=30, deadline=None)
def test_valid_sampled_campaigns_match_the_oracle(fsm_seed, num_states, fields):
    """A valid sampled spec gives equal counters on the scalar oracle and on
    the numpy engine (same draws, same groups, same classification)."""
    structure = _protected_random_fsm(fsm_seed, num_states)
    counters = {}
    for engine in ("scalar", "parallel-numpy"):
        spec = CampaignSpec.from_dict(dict(fields, engine=engine))
        results = Session().run_campaign(structure, spec)
        counters[engine] = {name: result.to_dict() for name, result in results.items()}
    assert counters["scalar"] == counters["parallel-numpy"]


# ----------------------------------------------------------------------
# Content hashes of valid specs (values from before the type checks)
# ----------------------------------------------------------------------
COMMITTED_HASHES = {
    "examples/experiment.json": "8e0e9a0a55c3b8bc15f66c466c480d5860e2a57bfff43cb5f3c7de1e572f0f5c",
    "examples/temporal_experiment.json": (
        "a0c8059b025a336fba54af45bd6a65058fd768671fe413e602c971b6a67075dc"
    ),
    "examples/laser_experiment.json": (
        "e713972038051a85b892e6f03ab89818753f1138c32714829c9cf01f434e0f37"
    ),
    "scfibench/inputs/cli_cold.json": (
        "71a0556b05318d922e4b5fcc2e2da7de7c2f71ea56cd7e4d7630be87ca038a34"
    ),
    "scfibench/inputs/service_compute.json": (
        "9af3dedf8486b0ef7c43acc004e11cdb87054eb8dcfe1bc81bcb9b686f0d20ff"
    ),
}

HAND_WRITTEN_HASHES = [
    (
        {"fsm": {"name": "traffic_light"}},
        "befbf1686acfa07b00000cd3256f8eacb07734d7538adf668fea419873c0c9cb",
    ),
    (
        {
            "fsm": {"name": "ibex_lsu"},
            "protect": {"protection_level": 3, "error_bits": 2, "share_xors": False},
            "campaign": {
                "scenario": "random",
                "faults": 3,
                "trials": 50,
                "seed": 9,
                "engine": "parallel",
                "effects": ["flip", "stuck1"],
                "target": "diffusion",
            },
            "report": {"keep_outcomes": True},
        },
        "f6fcf0fba2997b7556797a9d9c37edab44ef45f1ea81bfdccd2ad9647f50d4e7",
    ),
    (
        {
            "fsm": {"name": "traffic_light"},
            "campaign": {
                "scenario": "glitch",
                "cycles": 3,
                "glitch_schedule": [[0, "n1", "flip"], [2, "n2", "stuck0"]],
                "lane_width": 64,
                "compare": True,
            },
        },
        "bf8f550d965a34cc022239919b29c02ee0339f4c51a10db1819f8f0f45e70b0a",
    ),
    (
        {
            "fsm": {"name": "traffic_light"},
            "campaign": {
                "scenario": "laser",
                "spot_radius": 2.5,
                "spot_trials": 40,
                "target": ["a", "b"],
                "fault_duration": "persistent",
                "cycles": 2,
            },
        },
        "3c3706afe2227673f9abf3907277b429c906944f44a9a22e5b44903f65926f93",
    ),
]


@pytest.mark.parametrize("path", sorted(COMMITTED_HASHES))
def test_committed_spec_hashes_unchanged(path):
    spec = ExperimentSpec.load(ROOT / path)
    assert spec.content_hash() == COMMITTED_HASHES[path]


@pytest.mark.parametrize("index", range(len(HAND_WRITTEN_HASHES)))
def test_hand_written_spec_hashes_unchanged(index):
    document, expected = HAND_WRITTEN_HASHES[index]
    assert ExperimentSpec.from_dict(document).content_hash() == expected
