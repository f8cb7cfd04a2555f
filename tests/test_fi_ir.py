"""The grouped :class:`JobArrays` IR: lowering fidelity and dispatch provenance.

Every registered scenario must lower to exactly the IR of a short reference
lowering kept here: the object job streams the scenarios used to generate
(same ``random.Random(seed)`` draws, same order, same fault groups), pushed
through a reference object-to-IR adapter.  The dispatch tests pin which
execution path each engine takes (:attr:`FaultCampaign.last_dispatch`):
every engine runs every campaign array-native -- kept outcomes and
stuck-at-0/1 conflicts inside one group included -- and the compiled
engines' counters and outcomes equal the scalar oracle's, which walks the
same batches on the instrumented netlist.
"""

from __future__ import annotations

import random
from typing import List, Mapping, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import SCENARIO_REGISTRY, build_scenarios
from repro.api.spec import CampaignSpec
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.behavioral import BehavioralBitFlip
from repro.fi.injector import ScfiFaultInjector
from repro.fi.model import Fault, FaultEffect
from repro.fi.executor import ENGINE_INFO, FaultCampaign
from repro.fi.scenarios import (
    EVERY_CYCLE,
    ExhaustiveSingleFault,
    JobArrays,
    LaserSpot,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
    effect_sweep_scenarios,
)
from repro.fi.placement import net_placement
from repro.fsm.random_fsm import random_fsm
from repro.netlist.parallel import MODE_FLIP, MODE_STUCK0, MODE_STUCK1

SEEDS = st.integers(min_value=0, max_value=10_000)

EFFECT_MODES = {
    FaultEffect.TRANSIENT_FLIP: MODE_FLIP,
    FaultEffect.STUCK_AT_0: MODE_STUCK0,
    FaultEffect.STUCK_AT_1: MODE_STUCK1,
}


def _protect(fsm):
    return protect_fsm(
        fsm, ScfiOptions(protection_level=2, generate_verilog=False)
    ).structure


# ----------------------------------------------------------------------
# Reference lowering: object job streams + an object-to-IR adapter
# ----------------------------------------------------------------------
def reference_from_jobs(jobs, net_id: Mapping[str, int], num_cycles: int = 1) -> JobArrays:
    """Lower an object job stream to the IR (``cycles`` is ``None`` when
    every fault is persistent)."""
    offsets = np.zeros(len(jobs) + 1, dtype=np.intp)
    rows: List[int] = []
    modes: List[int] = []
    cycles: List[int] = []
    for i, (_, faults) in enumerate(jobs):
        offsets[i + 1] = offsets[i] + len(faults)
        for fault in faults:
            rows.append(net_id[fault.net])
            modes.append(EFFECT_MODES[fault.effect])
            cycles.append(-1 if fault.cycle is None else fault.cycle)
    persistent = all(fault.cycle is None for _, faults in jobs for fault in faults)
    return JobArrays(
        contexts=np.array([index for index, _ in jobs], dtype=np.intp),
        group_offsets=offsets,
        net_rows=np.array(rows, dtype=np.intp),
        modes=np.array(modes, dtype=np.uint8),
        cycles=None if persistent else np.array(cycles, dtype=np.int64),
        num_cycles=num_cycles,
    )


def _effect(rng: random.Random, effects: Sequence[FaultEffect]) -> FaultEffect:
    return effects[0] if len(effects) == 1 else effects[rng.randrange(len(effects))]


def _ref_exhaustive(scenario, campaign):
    cycle = None
    if isinstance(scenario, TemporalSingleFault) and scenario.duration != "persistent":
        cycle = scenario.inject_cycle
    return [
        (index, (Fault(net=net, effect=effect, cycle=cycle),))
        for index in range(len(campaign.contexts))
        for net in scenario.resolved_nets(campaign)
        for effect in scenario.effects
    ]


def _ref_random(scenario, campaign):
    nets = scenario.resolved_nets(campaign)
    rng = random.Random(scenario.seed)
    drawn = []
    for _ in range(scenario.trials):
        index = rng.randrange(len(campaign.contexts))
        chosen = rng.sample(nets, scenario.num_faults)
        drawn.append((index, tuple(
            Fault(net=net, effect=_effect(rng, scenario.effects)) for net in chosen
        )))
    drawn.sort(key=lambda job: job[0])
    return drawn


def _ref_bitflip(scenario, campaign):
    nets = scenario._position_nets(campaign)
    positions = list(range(len(nets)))
    rng = random.Random(scenario.seed)
    drawn = []
    for _ in range(scenario.trials):
        index = rng.randrange(len(campaign.contexts))
        chosen = rng.sample(positions, scenario.num_faults)
        drawn.append((index, tuple(Fault(net=nets[position]) for position in chosen)))
    drawn.sort(key=lambda job: job[0])
    return drawn


def _ref_glitch(scenario, campaign):
    faults = tuple(
        Fault(net=net, effect=effect, cycle=cycle) for cycle, net, effect in scenario.glitches
    )
    return [(index, faults) for index in range(len(campaign.contexts))]


def _ref_laser(scenario, campaign):
    nets = scenario.resolved_nets(campaign)
    coords = net_placement(campaign.structure)
    xs = np.array([coords[net][0] for net in nets])
    ys = np.array([coords[net][1] for net in nets])
    radius_sq = float(scenario.spot_radius) ** 2
    cycle = None if scenario.duration == "persistent" else 0
    rng = random.Random(scenario.seed)
    drawn = []
    for _ in range(scenario.spot_trials):
        index = rng.randrange(len(campaign.contexts))
        center = rng.randrange(len(nets))
        members = np.flatnonzero((xs - xs[center]) ** 2 + (ys - ys[center]) ** 2 <= radius_sq)
        drawn.append((index, tuple(
            Fault(net=nets[int(member)], effect=_effect(rng, scenario.effects), cycle=cycle)
            for member in members
        )))
    drawn.sort(key=lambda job: job[0])
    return drawn


REFERENCE_JOBS = {
    ExhaustiveSingleFault: _ref_exhaustive,
    TemporalSingleFault: _ref_exhaustive,
    RandomMultiFault: _ref_random,
    BehavioralBitFlip: _ref_bitflip,
    MultiShotGlitch: _ref_glitch,
    LaserSpot: _ref_laser,
}


def reference_lowering(scenario, campaign) -> JobArrays:
    jobs = REFERENCE_JOBS[type(scenario)](scenario, campaign)
    cycles = int(getattr(scenario, "cycles", 1) or 1)
    return reference_from_jobs(jobs, campaign.net_index, num_cycles=cycles)


def assert_same_ir(actual: JobArrays, expected: JobArrays, name: str) -> None:
    for field in ("contexts", "group_offsets", "net_rows", "modes", "cycles"):
        got, want = getattr(actual, field), getattr(expected, field)
        if want is None:
            assert got is None, (name, field)
            continue
        assert got.dtype == want.dtype, (name, field, got.dtype, want.dtype)
        assert np.array_equal(got, want), (name, field)
    assert actual.num_cycles == expected.num_cycles, name


ALL_EFFECTS = ["flip", "stuck0", "stuck1"]


class TestIrLoweringMatchesJobStream:
    """Property: lowered IR == reference lowering, for every registered scenario."""

    @given(seed=SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_registered_scenarios_lower_identically(self, seed):
        structure = _protect(random_fsm(seed, num_states=5))
        nets = ScfiFaultInjector(structure).diffusion_nets()
        specs = {
            "exhaustive": CampaignSpec(scenario="exhaustive"),
            "random": CampaignSpec(scenario="random", faults=2, trials=25, seed=seed),
            "random_effects": CampaignSpec(
                scenario="random", faults=3, trials=25, seed=seed, effects=ALL_EFFECTS
            ),
            "effects": CampaignSpec(scenario="effects"),
            "regions": CampaignSpec(scenario="regions"),
            "temporal": CampaignSpec(
                scenario="temporal", cycles=3, fault_duration="transient"
            ),
            "temporal_persistent": CampaignSpec(
                scenario="temporal", cycles=2, fault_duration="persistent"
            ),
            "glitch": CampaignSpec(
                scenario="glitch",
                cycles=2,
                glitch_schedule=((0, nets[0], "flip"), (1, nets[1], "stuck1")),
            ),
            "bitflip": CampaignSpec(scenario="bitflip", faults=2, trials=25, seed=seed),
            "laser": CampaignSpec(
                scenario="laser", spot_radius=2.0, spot_trials=25, seed=seed
            ),
            "laser_transient_effects": CampaignSpec(
                scenario="laser", spot_radius=1.5, spot_trials=25, seed=seed,
                effects=ALL_EFFECTS, cycles=3, fault_duration="transient",
            ),
        }
        # Every registered scenario is covered.
        assert {spec.scenario for spec in specs.values()} == set(SCENARIO_REGISTRY)
        with FaultCampaign(structure) as campaign:
            for name, spec in specs.items():
                for scenario in build_scenarios(spec, structure).values():
                    expected = reference_lowering(scenario, campaign)
                    arrays = campaign.lower_scenario(scenario)
                    assert_same_ir(arrays, expected, name)
                    assert arrays.to_jobs(campaign._net_names()) == REFERENCE_JOBS[
                        type(scenario)
                    ](scenario, campaign), name

    @given(seed=SEEDS)
    @settings(max_examples=5, deadline=None)
    def test_scalar_oracle_round_trips_the_ir(self, seed):
        """The scalar engine (no compiled netlist) lowers and replays too."""
        structure = _protect(random_fsm(seed, num_states=4))
        scenarios = (
            RandomMultiFault(num_faults=2, trials=20, seed=seed),
            LaserSpot(spot_radius=2.0, spot_trials=20, seed=seed),
        )
        with FaultCampaign(structure, engine="scalar") as campaign:
            for scenario in scenarios:
                arrays = campaign.lower_scenario(scenario)
                assert_same_ir(arrays, reference_lowering(scenario, campaign), "scalar")

    def test_repeated_lowering_on_one_campaign_is_stable(self, protected_traffic_light):
        """The laser member table is memoised per campaign; a second lowering
        (and one at another radius) still matches the reference."""
        structure = protected_traffic_light.structure
        with FaultCampaign(structure) as campaign:
            for radius in (2.0, 2.0, 1.0):
                scenario = LaserSpot(spot_radius=radius, spot_trials=30, seed=3)
                assert_same_ir(
                    campaign.lower_scenario(scenario),
                    reference_lowering(scenario, campaign),
                    f"laser r={radius}",
                )

    def test_slice_preserves_groups(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = RandomMultiFault(num_faults=3, trials=17, seed=5)
        with FaultCampaign(structure) as campaign:
            arrays = campaign.lower_scenario(scenario)
            names = campaign._net_names()
            jobs = arrays.to_jobs(names)
            cut = arrays.num_jobs // 2
            head = arrays.slice(0, cut)
            tail = arrays.slice(cut, arrays.num_jobs)
            assert head.to_jobs(names) == jobs[:cut]
            assert tail.to_jobs(names) == jobs[cut:]
            assert int(tail.group_offsets[0]) == 0


class _ArrayScenario:
    """A custom scenario that emits a fixed IR from ``build(campaign)``."""

    def __init__(self, name, build):
        self.name = name
        self.build = build

    def describe(self):
        return self.name

    def annotate(self, result, campaign):
        result.scenario = self.describe()

    def jobs_arrays(self, campaign):
        return self.build(campaign)


def _one_fault(row, cycle=None, num_cycles=1):
    return JobArrays.single_fault(
        contexts=np.array([0], dtype=np.intp),
        net_rows=np.array([row], dtype=np.intp),
        modes=np.array([MODE_FLIP], dtype=np.uint8),
        cycles=None if cycle is None else np.array([cycle], dtype=np.int64),
        num_cycles=num_cycles,
    )


class TestIrBoundsChecked:
    """IR rows outside the netlist raise on every engine instead of wrapping."""

    @pytest.mark.parametrize("engine", sorted(ENGINE_INFO))
    def test_negative_row_rejected(self, protected_traffic_light, engine):
        scenario = _ArrayScenario("negative row", lambda campaign: _one_fault(-1))
        with FaultCampaign(protected_traffic_light.structure, engine=engine) as campaign:
            with pytest.raises(ValueError, match="'negative row'.*outside"):
                campaign.run(scenario)

    @pytest.mark.parametrize("engine", sorted(ENGINE_INFO))
    def test_over_range_row_rejected(self, protected_traffic_light, engine):
        scenario = _ArrayScenario(
            "over-range row", lambda campaign: _one_fault(len(campaign.net_index))
        )
        with FaultCampaign(protected_traffic_light.structure, engine=engine) as campaign:
            with pytest.raises(ValueError, match="'over-range row'.*outside"):
                campaign.run(scenario)

    @pytest.mark.parametrize("engine", sorted(ENGINE_INFO))
    def test_negative_fault_cycle_in_ir_rejected(self, protected_traffic_light, engine):
        # -1 is EVERY_CYCLE; any other negative cycle is outside the trace.
        scenario = _ArrayScenario(
            "negative cycle", lambda campaign: _one_fault(0, cycle=-2, num_cycles=2)
        )
        with FaultCampaign(protected_traffic_light.structure, engine=engine) as campaign:
            with pytest.raises(ValueError, match="outside the 2-cycle trace"):
                campaign.run(scenario)


class TestEmptyEffectsRejected:
    def test_exhaustive(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            ExhaustiveSingleFault(effects=())

    def test_random_multi_fault(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            RandomMultiFault(num_faults=2, trials=5, effects=())

    def test_temporal(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            TemporalSingleFault(cycles=2, effects=())

    def test_laser(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            LaserSpot(effects=())

    def test_campaign_spec(self):
        with pytest.raises(ValueError, match="effects must be non-empty"):
            CampaignSpec(effects=())


def _conflict_groups(modes, cycles=None, num_cycles=1):
    """IR builder: one job per (context, diffusion net) whose group puts every
    mode of ``modes`` on that net, in order (``cycles`` per fault, if given)."""

    def build(campaign):
        nets = campaign.injector.diffusion_nets()
        rows = np.array([campaign.net_index[net] for net in nets], dtype=np.intp)
        num_contexts = len(campaign.contexts)
        num_jobs = num_contexts * rows.size
        return JobArrays(
            contexts=np.repeat(np.arange(num_contexts, dtype=np.intp), rows.size),
            group_offsets=np.arange(num_jobs + 1, dtype=np.intp) * len(modes),
            net_rows=np.repeat(np.tile(rows, num_contexts), len(modes)),
            modes=np.tile(np.array(modes, dtype=np.uint8), num_jobs),
            cycles=None
            if cycles is None
            else np.tile(np.array(cycles, dtype=np.int64), num_jobs),
            num_cycles=num_cycles,
        )

    return build


#: Stuck-at-0/1 conflicts on one net inside one group: (modes, cycles, trace).
STUCK_CONFLICTS = {
    "stuck0-then-stuck1": ((MODE_STUCK0, MODE_STUCK1), None, 1),
    "stuck1-then-stuck0": ((MODE_STUCK1, MODE_STUCK0), None, 1),
    "persistent0-then-cycle1-stuck1": ((MODE_STUCK0, MODE_STUCK1), (EVERY_CYCLE, 1), 3),
    "cycle1-stuck1-then-persistent0": ((MODE_STUCK1, MODE_STUCK0), (1, EVERY_CYCLE), 3),
}


def _assert_compiled_engines_match_oracle(structure, make_scenario):
    """Both compiled engines, counters-only and with kept outcomes, run
    array-native and equal the scalar oracle (array-native as well);
    returns the oracle result."""
    with FaultCampaign(structure, engine="scalar", keep_outcomes=True) as campaign:
        expected = campaign.run(make_scenario())
        assert campaign.last_dispatch == "array-native"
    for engine in ("parallel", "parallel-numpy"):
        for keep_outcomes in (False, True):
            with FaultCampaign(
                structure, engine=engine, keep_outcomes=keep_outcomes
            ) as campaign:
                result = campaign.run(make_scenario())
                assert campaign.last_dispatch == "array-native", (engine, keep_outcomes)
            assert result.counters() == expected.counters(), (engine, keep_outcomes)
            if keep_outcomes:
                assert result.outcomes == expected.outcomes, engine
    return expected


class TestStuckConflictSemantics:
    """Within one cycle the last stuck-at on a net wins (the oracle's fault
    cells), on the flat fault arrays of both compiled engines."""

    @pytest.mark.parametrize("case", sorted(STUCK_CONFLICTS))
    def test_compiled_engines_match_oracle(self, protected_traffic_light, case):
        modes, cycles, num_cycles = STUCK_CONFLICTS[case]
        _assert_compiled_engines_match_oracle(
            protected_traffic_light.structure,
            lambda: _ArrayScenario(case, _conflict_groups(modes, cycles, num_cycles)),
        )

    def test_group_order_is_observable(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        counters = {}
        for case in ("stuck0-then-stuck1", "stuck1-then-stuck0"):
            modes, cycles, num_cycles = STUCK_CONFLICTS[case]
            scenario = _ArrayScenario(case, _conflict_groups(modes, cycles, num_cycles))
            with FaultCampaign(structure, engine="parallel-numpy") as campaign:
                counters[case] = campaign.run(scenario).counters()
        assert counters == {
            "stuck0-then-stuck1": (52, 32, 0, 0),
            "stuck1-then-stuck0": (32, 52, 0, 0),
        }

    def test_multi_shot_glitch_sticks_one_net_both_ways(self, protected_traffic_light):
        """Stuck at 0 in cycle 0 and at 1 in cycle 2: never live together."""
        structure = protected_traffic_light.structure
        net = ScfiFaultInjector(structure).diffusion_nets()[0]
        _assert_compiled_engines_match_oracle(
            structure,
            lambda: MultiShotGlitch(glitches=[(0, net, "stuck0"), (2, net, "stuck1")]),
        )


class TestDispatchProvenance:
    def test_last_dispatch_starts_unset(self, protected_traffic_light):
        with FaultCampaign(protected_traffic_light.structure) as campaign:
            assert campaign.last_dispatch is None

    def test_dispatch_is_observed_not_configured(self, protected_traffic_light):
        with pytest.raises(TypeError, match="dispatch"):
            FaultCampaign(protected_traffic_light.structure, dispatch="array-native")

    def test_numpy_effect_sweep_is_array_native(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, engine="parallel-numpy") as campaign:
            for scenario in effect_sweep_scenarios().values():
                campaign.run(scenario)
                assert campaign.last_dispatch == "array-native"

    def test_random_multi_fault_is_array_native(self, protected_traffic_light):
        _assert_compiled_engines_match_oracle(
            protected_traffic_light.structure,
            lambda: RandomMultiFault(num_faults=2, trials=50, seed=1),
        )

    def test_every_engine_is_array_native(
        self, protected_traffic_light
    ):
        _assert_compiled_engines_match_oracle(
            protected_traffic_light.structure, ExhaustiveSingleFault
        )

    def test_keep_outcomes_is_array_native(self, protected_traffic_light):
        _assert_compiled_engines_match_oracle(
            protected_traffic_light.structure,
            lambda: ExhaustiveSingleFault(target_nets="comb", effects=tuple(EFFECT_MODES)),
        )
