"""Behavioural model of an SCFI-hardened finite-state machine.

The :class:`HardenedFsm` is the golden reference of the protection scheme: it
carries the distance-``N`` state and control encodings, the diffusion layout,
and the per-edge modifiers, and it can step cycle by cycle exactly like the
original FSM -- but through the hardened next-state function
``phi_FH(S_Ce, X_e, Mod)``.  In the absence of faults the control-flow matches
the unprotected FSM; under faults the function produces an invalid encoded
state and the machine falls into the terminal error state, as required by the
threat model (Section 3.2).

The structural (gate-level) realisation is derived from this object by
:mod:`repro.core.structure`; the behavioural and structural models are
cross-checked by the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.encoding import generate_distance_code
from repro.core.layout import HardenedLayout, plan_layout
from repro.core.mds import WordMatrix
from repro.core.modifier import ModifierSolver
from repro.fsm.cfg import CfgEdge, control_flow_edges
from repro.fsm.model import Fsm

EdgeKey = Tuple[str, int]


class HardenedTransition(NamedTuple):
    """One CFG edge with its encoded control word and per-block modifiers."""

    edge: CfgEdge
    control_code: int
    modifiers: Tuple[int, ...]
    next_state: str
    next_code: int

    @property
    def key(self) -> EdgeKey:
        return (self.edge.src, self.edge.index)


class HardenedStepResult:
    """Outcome of one hardened cycle."""

    def __init__(
        self,
        previous_state: str,
        next_state: str,
        next_code: int,
        error_detected: bool,
        taken_edge: Optional[CfgEdge],
    ):
        self.previous_state = previous_state
        self.next_state = next_state
        self.next_code = next_code
        self.error_detected = error_detected
        self.taken_edge = taken_edge


class HardenedFsm:
    """An FSM whose next-state function has been replaced by ``phi_FH``."""

    def __init__(
        self,
        fsm: Fsm,
        protection_level: int,
        state_encoding: Dict[str, int],
        control_encoding: Dict[EdgeKey, int],
        control_width: int,
        layout: HardenedLayout,
        solver: ModifierSolver,
        transitions: Dict[EdgeKey, HardenedTransition],
        error_state: str,
    ):
        self.fsm = fsm
        self.protection_level = protection_level
        self.state_encoding = state_encoding
        self.control_encoding = control_encoding
        self.control_width = control_width
        self.layout = layout
        self.solver = solver
        self.transitions = transitions
        self.error_state = error_state
        self.error_code = state_encoding[error_state]
        self._code_to_state = {code: name for name, code in state_encoding.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_fsm(
        cls,
        fsm: Fsm,
        protection_level: int = 2,
        error_bits: int = 3,
        matrix: Optional[WordMatrix] = None,
        error_state: Optional[str] = None,
    ) -> "HardenedFsm":
        """Harden ``fsm`` with the given protection level ``N``.

        ``error_bits`` is the per-block count of error-detection bits ``e``
        (Section 4, Unmix layer).  ``matrix`` overrides the MDS matrix.
        """
        if protection_level < 1:
            raise ValueError("protection_level must be >= 1")
        error_state = error_state or _error_state_name(fsm)

        # R2: encoded states (operational states + the terminal error state).
        state_names = list(fsm.states) + [error_state]
        state_code = generate_distance_code(len(state_names), protection_level)
        state_encoding = state_code.assign(state_names)
        state_width = state_code.width

        # R1: encoded control symbols, one per CFG edge.
        edges = control_flow_edges(fsm)
        control_code = generate_distance_code(max(1, len(edges)), protection_level)
        control_encoding: Dict[EdgeKey, int] = {
            (edge.src, edge.index): control_code.codewords[i] for i, edge in enumerate(edges)
        }
        control_width = control_code.width

        layout = plan_layout(state_width, control_width, error_bits, matrix)
        solver = ModifierSolver(layout)

        # R4: per-edge modifiers producing the collision onto the target state.
        transitions: Dict[EdgeKey, HardenedTransition] = {}
        for edge in edges:
            key = (edge.src, edge.index)
            src_code = state_encoding[edge.src]
            dst_code = state_encoding[edge.dst]
            xe = control_encoding[key]
            modifiers = tuple(solver.solve_edge(src_code, xe, dst_code))
            transitions[key] = HardenedTransition(
                edge=edge,
                control_code=xe,
                modifiers=modifiers,
                next_state=edge.dst,
                next_code=dst_code,
            )

        return cls(
            fsm=fsm,
            protection_level=protection_level,
            state_encoding=state_encoding,
            control_encoding=control_encoding,
            control_width=control_width,
            layout=layout,
            solver=solver,
            transitions=transitions,
            error_state=error_state,
        )

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    @property
    def state_width(self) -> int:
        return self.layout.state_width

    def decode_state(self, code: int) -> Optional[str]:
        """The state carrying ``code``, or ``None`` for invalid codewords."""
        return self._code_to_state.get(code)

    def is_valid_code(self, code: int) -> bool:
        return code in self._code_to_state

    def valid_codes(self) -> List[int]:
        return sorted(self._code_to_state)

    # ------------------------------------------------------------------
    # The hardened next-state function
    # ------------------------------------------------------------------
    def encode_input_value(self, signal_name: str, value: int) -> int:
        """Repetition-code encoding of one control-signal value (R1).

        Every original bit is replicated ``N`` times, so valid codewords of a
        signal are separated by a Hamming distance of at least ``N``.
        """
        signal = self.fsm.input_signal(signal_name)
        replication = self.protection_level
        encoded = 0
        for bit in range(signal.width):
            if (value >> bit) & 1:
                for replica in range(replication):
                    encoded |= 1 << (bit * replication + replica)
        return encoded

    def _encoded_guard_matches(
        self,
        guard,
        inputs: Mapping[str, int],
        input_flip_masks: Optional[Mapping[str, int]],
    ) -> bool:
        """Pattern-match a guard on the encoded (possibly faulted) control signals.

        A literal matches only when the full encoded codeword equals the
        expected one, so fewer than ``N`` bit flips on a control signal can
        never turn one valid codeword into another (they make the literal
        fail instead).
        """
        for name, value in guard.terms:
            observed = self.encode_input_value(name, int(inputs.get(name, 0)))
            if input_flip_masks and name in input_flip_masks:
                observed ^= input_flip_masks[name]
            if observed != self.encode_input_value(name, value):
                return False
        return True

    def active_edge(
        self,
        state: str,
        inputs: Mapping[str, int],
        input_flip_masks: Optional[Mapping[str, int]] = None,
    ) -> Optional[CfgEdge]:
        """The CFG edge selected by the input pattern matching (priority order).

        ``input_flip_masks`` injects FT2 faults on the encoded control signals
        (per-signal XOR masks on the repetition-encoded bits).
        """
        if state == self.error_state:
            return None
        outgoing = [t for t in self.transitions.values() if t.edge.src == state]
        outgoing.sort(key=lambda t: t.edge.index)
        stay_edge = None
        for transition in outgoing:
            if transition.edge.is_stay:
                stay_edge = transition.edge
                continue
            if self._encoded_guard_matches(transition.edge.guard, inputs, input_flip_masks):
                return transition.edge
        return stay_edge

    def compute_phi(
        self,
        state_code: int,
        control_code: int,
        modifiers: Sequence[int],
        block_input_flips: Optional[Sequence[int]] = None,
        block_output_flips: Optional[Sequence[int]] = None,
    ) -> Tuple[int, bool]:
        """Evaluate ``phi_FH`` and return ``(next_code, error_bits_ok)``.

        ``block_input_flips`` / ``block_output_flips`` are optional per-block
        XOR masks used by the behavioural fault campaigns to model faults on
        the function inputs (FT1/FT2) and inside/after the diffusion layer
        (FT3).
        """
        next_code = 0
        error_ok = True
        for block in self.layout.blocks:
            in_flip = block_input_flips[block.index] if block_input_flips else 0
            out_flip = block_output_flips[block.index] if block_output_flips else 0
            outputs = self.solver.evaluate_block(
                block,
                state_code,
                control_code,
                modifiers[block.index],
                input_fault_mask=in_flip,
                output_fault_mask=out_flip,
            )
            extracted = self.solver.extract_outputs(block, outputs)
            next_code |= extracted["state_slice"]
            error_ok = error_ok and bool(extracted["error_bits_ok"])
        return next_code, error_ok

    def next_state(
        self,
        state: str,
        inputs: Mapping[str, int],
        state_flip_mask: int = 0,
        input_flip_masks: Optional[Mapping[str, int]] = None,
        control_flip_mask: int = 0,
        block_output_flips: Optional[Sequence[int]] = None,
    ) -> HardenedStepResult:
        """One hardened cycle starting from the named state.

        The optional fault arguments model the three fault targets of the
        threat model:

        * ``state_flip_mask`` -- FT1: XOR mask on the encoded state register.
          If the faulted value is not a valid codeword (always the case for
          fewer than ``N`` flips), the unique-case default arm traps into the
          error state immediately, exactly like Figure 4.  With ``N`` or more
          flips the register may land on another valid state and execution
          continues from there (the attack the encoding is sized against).
        * ``input_flip_masks`` -- FT2: per-signal XOR masks on the
          repetition-encoded control signals, applied before the input
          pattern matching.
        * ``control_flip_mask`` / ``block_output_flips`` -- FT3: faults on the
          selected active control word respectively on the diffusion-layer
          outputs, i.e. inside the hardened next-state function.
        """
        if state == self.error_state:
            return HardenedStepResult(state, self.error_state, self.error_code, False, None)

        # FT1: the case statement pattern-matches the (possibly faulted)
        # state register before anything else.
        state_code = self.state_encoding[state] ^ state_flip_mask
        effective_state = self.decode_state(state_code)
        if effective_state is None:
            return HardenedStepResult(state, self.error_state, self.error_code, True, None)
        if effective_state == self.error_state:
            return HardenedStepResult(state, self.error_state, self.error_code, True, None)

        edge = self.active_edge(effective_state, inputs, input_flip_masks=input_flip_masks)
        if edge is None:
            # No edge fired and the state has an exhaustive guard chain: this
            # cannot happen for well-formed FSMs (a stay edge always exists).
            return HardenedStepResult(state, self.error_state, self.error_code, True, None)
        transition = self.transitions[(edge.src, edge.index)]

        control_code = transition.control_code ^ control_flip_mask
        next_code, error_ok = self.compute_phi(
            state_code,
            control_code,
            transition.modifiers,
            block_output_flips=block_output_flips,
        )

        detected = not error_ok or not self.is_valid_code(next_code)
        if detected:
            return HardenedStepResult(state, self.error_state, self.error_code, True, edge)
        return HardenedStepResult(state, self.decode_state(next_code), next_code, False, edge)

    # ------------------------------------------------------------------
    # Convenience simulation
    # ------------------------------------------------------------------
    def run(self, input_sequence: Sequence[Mapping[str, int]], initial_state: Optional[str] = None) -> List[HardenedStepResult]:
        """Run a fault-free input sequence and return every step result."""
        state = initial_state or self.fsm.reset_state
        results: List[HardenedStepResult] = []
        for inputs in input_sequence:
            result = self.next_state(state, inputs)
            results.append(result)
            state = result.next_state
        return results

    def __repr__(self) -> str:
        return (
            f"HardenedFsm({self.fsm.name!r}, N={self.protection_level}, "
            f"state_width={self.state_width}, blocks={self.layout.num_blocks})"
        )


def _error_state_name(fsm: Fsm) -> str:
    """A terminal-error state name that does not clash with existing states."""
    candidate = "ERROR"
    existing = set(fsm.states)
    while candidate in existing:
        candidate = "SCFI_" + candidate
    return candidate
