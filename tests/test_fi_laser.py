"""The spatially-adjacent laser-spot scenario and its derived placement.

The paper's threat model is a laser/glitch attacker upsetting a
*neighbourhood* of physically adjacent nets; :class:`LaserSpot` samples spot
centers on a deterministic placement derived from the committed MDS block
assignment (x = diffusion-block column, y = combinational depth) and lowers
each spot into one multi-net fault group of the :class:`JobArrays` IR.  The
counters must stay bit-identical across every engine and any
worker count -- a multi-net group occupies exactly one fault lane everywhere.
"""

from __future__ import annotations

import pytest

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.model import FaultEffect
from repro.fi.executor import ENGINE_INFO, FaultCampaign
from repro.fi.scenarios import LaserSpot
from repro.fi.placement import net_placement
from repro.fsmlib import traffic_light_fsm

ENGINES = tuple(sorted(ENGINE_INFO))

#: The committed laser-spot golden (also replayed by CI from
#: ``examples/laser_experiment.json``): traffic_light at N=2, spot radius 2.0,
#: 200 trials, seed 0, persistent spots held over a 2-cycle trace.
GOLDEN_SCENARIO = dict(
    spot_radius=2.0, spot_trials=200, seed=0, cycles=2, duration="persistent"
)
GOLDEN_COUNTERS = (0, 195, 3, 2)


def _golden():
    return LaserSpot(**GOLDEN_SCENARIO)


def _jobs(campaign, scenario):
    """The scenario's lowered IR replayed as the object job stream."""
    return campaign.lower_scenario(scenario).to_jobs(campaign._net_names())


class TestNetPlacement:
    def test_covers_every_depth_annotated_net(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        placement = net_placement(structure)
        for net in structure.state_q:
            assert net in placement
        for net in structure.state_d:
            assert net in placement

    def test_deterministic(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        assert net_placement(structure) == net_placement(structure)

    def test_state_bits_anchor_to_their_blocks(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        layout = structure.hardened.layout
        placement = net_placement(structure)
        state_block = {}
        for block in layout.blocks:
            for bit in block.state_in_bits:
                state_block[bit] = block.index
        for bit, net in enumerate(structure.state_q):
            if bit in state_block:
                x, y = placement[net]
                assert x == float(state_block[bit])
                assert y == 0.0  # register outputs sit at depth 0

    def test_depth_is_the_y_axis(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        placement = net_placement(structure)
        netlist = structure.netlist
        for gate in netlist.combinational_gates():
            if gate.gate_type.is_constant:
                continue
            _, y = placement[gate.output]
            assert y >= 1.0  # every non-constant gate output is past depth 0


class TestLaserSpotScenario:
    def test_validation(self):
        with pytest.raises(ValueError, match="spot_radius"):
            LaserSpot(spot_radius=0)
        with pytest.raises(ValueError, match="spot_radius"):
            LaserSpot(spot_radius=True)
        with pytest.raises(ValueError, match="spot_trials"):
            LaserSpot(spot_trials=-1)
        with pytest.raises(ValueError, match="spot_trials"):
            LaserSpot(spot_trials=True)
        with pytest.raises(ValueError, match="cycles"):
            LaserSpot(cycles=0)
        with pytest.raises(ValueError, match="duration"):
            LaserSpot(duration="forever")

    def test_deterministic_draw(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure) as campaign:
            first = _jobs(campaign, LaserSpot(spot_trials=40, seed=7))
            second = _jobs(campaign, LaserSpot(spot_trials=40, seed=7))
            other = _jobs(campaign, LaserSpot(spot_trials=40, seed=8))
        assert first == second
        assert first != other

    def test_spots_are_multi_net_groups(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure) as campaign:
            arrays = campaign.lower_scenario(_golden())
        sizes = arrays.group_sizes()
        assert arrays.num_jobs == 200
        assert int(sizes.min()) >= 1
        assert int(sizes.max()) > 1  # a radius-2 spot covers adjacent nets

    def test_spot_members_lie_within_the_radius(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        placement = net_placement(structure)
        scenario = LaserSpot(spot_radius=1.5, spot_trials=30, seed=2)
        with FaultCampaign(structure) as campaign:
            jobs = _jobs(campaign, scenario)
        for _, faults in jobs:
            coords = [placement[fault.net] for fault in faults]
            # Every member is within one spot diameter of every other.
            for x0, y0 in coords:
                for x1, y1 in coords:
                    assert (x0 - x1) ** 2 + (y0 - y1) ** 2 <= (2 * 1.5) ** 2 + 1e-9

    def test_golden_counters_pinned(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, lane_width=256) as campaign:
            result = campaign.run(_golden())
        assert result.counters() == GOLDEN_COUNTERS
        assert result.transitions_evaluated == 7

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_counters_engine_and_worker_invariant(
        self, protected_traffic_light, engine, workers
    ):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, engine=engine, workers=workers) as campaign:
            result = campaign.run(_golden())
        assert result.counters() == GOLDEN_COUNTERS

    @pytest.mark.parametrize("engine", ["parallel", "parallel-numpy"])
    def test_counters_transport_invariant(self, protected_traffic_light, engine):
        """Sharded replies -- counts and kept codes -- merge to the in-process result."""
        structure = protected_traffic_light.structure
        single = FaultCampaign(structure, engine=engine, keep_outcomes=True).run(_golden())
        with FaultCampaign(
            structure, engine=engine, workers=4, keep_outcomes=True
        ) as campaign:
            sharded = campaign.run(_golden())
        assert sharded.counters() == single.counters() == GOLDEN_COUNTERS
        assert sharded.outcomes == single.outcomes

    def test_numpy_multi_cycle_spot_is_array_native(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, engine="parallel-numpy") as campaign:
            result = campaign.run(_golden())
            assert campaign.last_dispatch == "array-native"
        assert result.counters() == GOLDEN_COUNTERS

    def test_transient_spot_hits_cycle_zero_only(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        scenario = LaserSpot(
            spot_radius=1.5, spot_trials=30, seed=4, cycles=3, duration="transient"
        )
        with FaultCampaign(structure) as campaign:
            jobs = _jobs(campaign, scenario)
        assert jobs
        for _, faults in jobs:
            assert all(fault.cycle == 0 for fault in faults)

    def test_single_effect_draws_skip_the_rng(self, protected_traffic_light):
        """With one effect the per-member rng draw is skipped, so the spot
        geometry (not the effect sampling) fixes the sequence."""
        structure = protected_traffic_light.structure
        flip_only = LaserSpot(spot_trials=20, seed=9)
        with FaultCampaign(structure) as campaign:
            jobs = _jobs(campaign, flip_only)
        assert all(
            fault.effect is FaultEffect.TRANSIENT_FLIP
            for _, faults in jobs
            for fault in faults
        )
