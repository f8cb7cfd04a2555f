"""Behavioural (pre-netlist) fault campaigns on the hardened FSM model.

These campaigns flip bits of the inputs of ``phi_FH`` -- the encoded state
(FT1), the encoded control word (FT2) -- or of the diffusion-layer outputs
(a coarse FT3 model) directly on the :class:`~repro.core.hardened.HardenedFsm`.
They are orders of magnitude faster than gate-level campaigns and are used to
validate the probabilistic security argument of Section 6.3 (the success
probability of an attacker stays tiny even for multi-bit faults).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.hardened import HardenedFsm
from repro.fi.activate import activating_inputs
from repro.fi.scenarios import JobArrays, Sample, drawn_fault_groups
from repro.fsm.cfg import control_flow_edges
from repro.netlist.parallel import MODE_FLIP

#: Fault-target groups selectable in behavioural campaigns.
#:
#: * ``state``     -- FT1: bits of the encoded state register.
#: * ``control``   -- FT2: bits of the repetition-encoded control signals,
#:   applied before the input pattern matching.
#: * ``phi_input`` -- FT3 (inputs of the diffusion): bits of the selected
#:   active control word, i.e. faults behind the pattern matching.
#: * ``diffusion`` -- FT3 (outputs of the diffusion): extracted output bits of
#:   the MDS blocks.
TARGET_STATE = "state"
TARGET_CONTROL = "control"
TARGET_PHI_INPUT = "phi_input"
TARGET_DIFFUSION = "diffusion"


@dataclass
class BehavioralCampaignResult:
    """Aggregated outcome of a behavioural campaign.

    ``redirected`` counts undetected outcomes that land on a *different* CFG
    successor of the source state (e.g. a transition suppressed by a faulted
    control signal so that the stay edge fires instead).  This is the
    within-CFG redirection the paper's Section 7 explicitly lists as a
    limitation of the prototype; it is reported separately from ``hijacked``,
    which counts undetected outcomes outside the CFG successors.
    """

    name: str
    num_faults: int
    trials: int = 0
    masked: int = 0
    detected: int = 0
    redirected: int = 0
    hijacked: int = 0

    @property
    def hijack_rate(self) -> float:
        return self.hijacked / self.trials if self.trials else 0.0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 0.0

    @property
    def redirection_rate(self) -> float:
        return self.redirected / self.trials if self.trials else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (counters and rates, no enums)."""
        return {
            "name": self.name,
            "num_faults": self.num_faults,
            "trials": self.trials,
            "masked": self.masked,
            "detected": self.detected,
            "redirected": self.redirected,
            "hijacked": self.hijacked,
            "hijack_rate": self.hijack_rate,
            "detection_rate": self.detection_rate,
            "redirection_rate": self.redirection_rate,
        }

    def format(self) -> str:
        return (
            f"{self.name}: {self.trials} trials with {self.num_faults} fault(s) -> "
            f"{self.hijacked} hijacks ({100.0 * self.hijack_rate:.3f} %), "
            f"{self.redirected} in-CFG redirections, "
            f"{self.detected} detected, {self.masked} masked"
        )


def fault_positions(hardened: HardenedFsm, targets: Sequence[str]) -> List[tuple]:
    """Individually flippable bit positions of the selected target groups.

    This enumeration order is the contract shared by the behavioural sampler
    and the structural :class:`BehavioralBitFlip` re-expression: both draw
    from the same seeded stream over the same position list, which is what
    makes their counters comparable trial for trial.
    """
    unknown = set(targets) - {TARGET_STATE, TARGET_CONTROL, TARGET_PHI_INPUT, TARGET_DIFFUSION}
    if unknown:
        raise ValueError(f"unknown fault targets: {sorted(unknown)}")
    fsm = hardened.fsm
    positions: List[tuple] = []
    if TARGET_STATE in targets:
        positions.extend((TARGET_STATE, bit) for bit in range(hardened.state_width))
    if TARGET_CONTROL in targets:
        replication = hardened.protection_level
        for signal in fsm.inputs:
            for bit in range(signal.width * replication):
                positions.append((TARGET_CONTROL, (signal.name, bit)))
    if TARGET_PHI_INPUT in targets:
        positions.extend((TARGET_PHI_INPUT, bit) for bit in range(hardened.control_width))
    if TARGET_DIFFUSION in targets:
        for block in hardened.layout.blocks:
            for position in block.target_positions:
                positions.append((TARGET_DIFFUSION, (block.index, position)))
    return positions


def behavioral_fault_campaign(
    hardened: HardenedFsm,
    num_faults: int,
    trials: int,
    targets: Sequence[str] = (TARGET_STATE, TARGET_CONTROL),
    seed: int = 0,
) -> BehavioralCampaignResult:
    """Sample ``trials`` random multi-bit faults against ``phi_FH`` inputs.

    Each trial picks a random reachable transition and distributes
    ``num_faults`` bit flips over the selected target groups, then classifies
    the resulting next state.
    """
    if num_faults < 1:
        raise ValueError("num_faults must be >= 1")

    fsm = hardened.fsm
    contexts = []
    for edge in control_flow_edges(fsm):
        inputs = activating_inputs(fsm, edge)
        if inputs is not None:
            contexts.append((edge, inputs))
    if not contexts:
        raise ValueError("the FSM has no reachable transitions")

    positions = fault_positions(hardened, targets)
    if len(positions) < num_faults:
        raise ValueError("not enough fault positions for the requested fault count")

    rng = random.Random(seed)
    result = BehavioralCampaignResult(
        name=f"behavioural campaign ({fsm.name}, N={hardened.protection_level})",
        num_faults=num_faults,
    )
    successors: Dict[str, set] = {}
    for transition in hardened.transitions.values():
        successors.setdefault(transition.edge.src, set()).add(transition.next_state)
    for _ in range(trials):
        edge, inputs = contexts[rng.randrange(len(contexts))]
        chosen = rng.sample(positions, num_faults)
        state_mask = 0
        control_mask = 0
        input_flip_masks: Dict[str, int] = {}
        block_output_flips = [0] * hardened.layout.num_blocks
        for group, where in chosen:
            if group == TARGET_STATE:
                state_mask |= 1 << where
            elif group == TARGET_CONTROL:
                signal_name, bit = where
                input_flip_masks[signal_name] = input_flip_masks.get(signal_name, 0) | (1 << bit)
            elif group == TARGET_PHI_INPUT:
                control_mask |= 1 << where
            else:
                block_index, position = where
                block_output_flips[block_index] |= 1 << position

        outcome = hardened.next_state(
            edge.src,
            inputs,
            state_flip_mask=state_mask,
            input_flip_masks=input_flip_masks or None,
            control_flip_mask=control_mask,
            block_output_flips=block_output_flips,
        )
        result.trials += 1
        if outcome.error_detected:
            result.detected += 1
        elif outcome.next_state == edge.dst:
            result.masked += 1
        elif outcome.next_state in successors.get(edge.src, set()):
            result.redirected += 1
        else:
            result.hijacked += 1
    return result


def sweep_seed(seed: int, fault_count: int) -> int:
    """Decorrelated per-count campaign seed for :func:`sweep_fault_counts`.

    The historical ``seed + fault_count`` derivation made sweeps at adjacent
    base seeds reuse identical trial streams (``seed=0, n=3`` drew the same
    trials as ``seed=1, n=2``); hashing the pair keeps every (seed, count)
    stream independent while staying deterministic across processes.
    """
    digest = hashlib.sha256(f"{seed}:{fault_count}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def sweep_fault_counts(
    hardened: HardenedFsm,
    fault_counts: Sequence[int],
    trials: int,
    targets: Sequence[str] = (TARGET_STATE, TARGET_CONTROL),
    seed: int = 0,
) -> Dict[int, BehavioralCampaignResult]:
    """Run :func:`behavioral_fault_campaign` for several fault multiplicities."""
    return {
        n: behavioral_fault_campaign(
            hardened, n, trials, targets=targets, seed=sweep_seed(seed, n)
        )
        for n in fault_counts
    }


@dataclass
class BehavioralBitFlip:
    """The FT1/FT2 behavioural bit-flip campaign as a structural scenario.

    Re-expresses :func:`behavioral_fault_campaign` on the netlist-level
    campaign pipeline: the same seeded stream draws the same (transition,
    position) pairs, but every drawn bit position is lowered to its netlist
    fault target -- encoded state register outputs for ``state``, encoded
    primary-input nets for ``control``, selected control-word nets for
    ``phi_input`` -- and injected as a 1-cycle transient flip through the
    shared plan/execute engines.  ``diffusion`` positions address extracted
    MDS output bits with no single corresponding net and are rejected.

    With this scenario the behavioural and structural paths share scenarios,
    planning, sharding and reports; the behavioural sampler remains as the
    fast pre-netlist oracle its parity test checks against.
    """

    num_faults: int
    trials: int
    targets: Sequence[str] = (TARGET_STATE, TARGET_CONTROL)
    seed: int = 0
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.num_faults < 1:
            raise ValueError("num_faults must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        self.targets = tuple(self.targets)
        if TARGET_DIFFUSION in self.targets:
            raise ValueError(
                "the 'diffusion' behavioural target addresses extracted MDS "
                "output bits with no single netlist fault net; use a structural "
                "scenario with target 'diffusion' instead"
            )

    def describe(self) -> str:
        return f"behavioural bit-flip re-expression ({self.num_faults}-fault)"

    def annotate(self, result, campaign) -> None:
        result.target_nets = len(fault_positions(campaign.structure.hardened, self.targets))

    def _position_nets(self, campaign) -> List[str]:
        """The netlist fault net of every behavioural bit position, in order."""
        structure = campaign.structure
        hardened = structure.hardened
        nets: List[str] = []
        for group, where in fault_positions(hardened, self.targets):
            if group == TARGET_STATE:
                nets.append(structure.state_q[where])
            elif group == TARGET_CONTROL:
                signal_name, bit = where
                nets.append(structure.input_bits[signal_name][bit])
            else:  # TARGET_PHI_INPUT
                nets.append(structure.control_nets[where])
        return nets

    def jobs_arrays(self, campaign) -> JobArrays:
        nets = self._position_nets(campaign)
        if len(nets) < self.num_faults:
            raise ValueError("not enough fault positions for the requested fault count")
        if not campaign.contexts:
            raise ValueError("the FSM has no reachable transitions")
        # Draw for draw the behavioural protocol: transition index, then the
        # fault positions -- so the stream matches behavioral_fault_campaign
        # at equal seeds.
        return drawn_fault_groups(
            campaign, nets, self.trials, self.seed, (MODE_FLIP,),
            Sample(len(nets), self.num_faults),
            num_cycles=self.cycles,
        )
