"""The finite-state machine model manipulated by the SCFI passes.

The model mirrors the 5-tuple ``{S, X, Y, phi, lambda}`` of the paper
(Section 2.2): a finite set of named states, input (control) signals ``X``,
output signals ``Y``, a next-state function expressed as prioritised guarded
transitions, and Moore outputs attached to states.  Guards are conjunctions of
equality literals over the input signals, which is exactly the shape produced
by the ``if (x0) ... else if (x1) ...`` style next-state processes the paper's
Figure 4 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Signal:
    """A named input or output signal with a bit width."""

    name: str
    width: int = 1

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"signal {self.name!r} must have width >= 1")
        if not self.name:
            raise ValueError("signal name must be non-empty")

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class Guard:
    """A conjunction of ``signal == value`` literals over the FSM inputs.

    The always-true guard (no literals) models unconditional transitions and
    the ``else`` arm of a priority chain.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[str, int]] = None):
        items = tuple(sorted((terms or {}).items()))
        for name, value in items:
            if value < 0:
                raise ValueError(f"guard literal {name}={value} must be non-negative")
        self._terms = items

    # ------------------------------------------------------------------
    @classmethod
    def true(cls) -> "Guard":
        return cls()

    @classmethod
    def of(cls, **literals: int) -> "Guard":
        """Convenience constructor: ``Guard.of(start=1, abort=0)``."""
        return cls(literals)

    # ------------------------------------------------------------------
    @property
    def terms(self) -> Tuple[Tuple[str, int], ...]:
        return self._terms

    @property
    def is_true(self) -> bool:
        return not self._terms

    def signals(self) -> List[str]:
        return [name for name, _ in self._terms]

    def evaluate(self, inputs: Mapping[str, int]) -> bool:
        """Evaluate the guard against a dict of input values (default 0)."""
        for name, value in self._terms:
            if int(inputs.get(name, 0)) != value:
                return False
        return True

    def conjoin(self, other: "Guard") -> "Guard":
        """AND of two guards; conflicting literals raise ``ValueError``."""
        merged = dict(self._terms)
        for name, value in other.terms:
            if name in merged and merged[name] != value:
                raise ValueError(f"conflicting guard literals for {name!r}")
            merged[name] = value
        return Guard(merged)

    def __and__(self, other: "Guard") -> "Guard":
        return self.conjoin(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Guard):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        if self.is_true:
            return "Guard(true)"
        body = " & ".join(f"{name}=={value}" for name, value in self._terms)
        return f"Guard({body})"


class Transition(NamedTuple):
    """A guarded transition ``src -> dst``; priority is positional."""

    src: str
    dst: str
    guard: Guard = Guard()

    def __repr__(self) -> str:
        return f"Transition({self.src} -> {self.dst}, {self.guard!r})"


class Fsm:
    """A Moore-style finite-state machine with prioritised guarded transitions."""

    def __init__(
        self,
        name: str,
        states: Sequence[str],
        reset_state: str,
        inputs: Sequence[Signal] = (),
        outputs: Sequence[Signal] = (),
        transitions: Sequence[Transition] = (),
        moore_outputs: Optional[Mapping[str, Mapping[str, int]]] = None,
    ):
        self.name = name
        self.states = list(states)
        self.reset_state = reset_state
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.transitions = list(transitions)
        self.moore_outputs: Dict[str, Dict[str, int]] = {
            state: dict(values) for state, values in (moore_outputs or {}).items()
        }
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural consistency; raises ``ValueError`` on problems."""
        if not self.states:
            raise ValueError(f"FSM {self.name!r} has no states")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"FSM {self.name!r} has duplicate states")
        if self.reset_state not in self.states:
            raise ValueError(
                f"FSM {self.name!r}: reset state {self.reset_state!r} is not a state"
            )
        state_set = set(self.states)
        input_names = {sig.name for sig in self.inputs}
        output_names = {sig.name for sig in self.outputs}
        if input_names & output_names:
            raise ValueError(f"FSM {self.name!r}: signals used as both input and output")
        for transition in self.transitions:
            if transition.src not in state_set:
                raise ValueError(f"transition source {transition.src!r} is not a state")
            if transition.dst not in state_set:
                raise ValueError(f"transition target {transition.dst!r} is not a state")
            for signal_name in transition.guard.signals():
                if signal_name not in input_names:
                    raise ValueError(
                        f"guard of {transition!r} references unknown input {signal_name!r}"
                    )
        for state, values in self.moore_outputs.items():
            if state not in state_set:
                raise ValueError(f"moore output attached to unknown state {state!r}")
            for signal_name in values:
                if signal_name not in output_names:
                    raise ValueError(
                        f"moore output {signal_name!r} of state {state!r} is not an output"
                    )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return len(self.states)

    def input_signal(self, name: str) -> Signal:
        for sig in self.inputs:
            if sig.name == name:
                return sig
        raise KeyError(f"unknown input signal {name!r}")

    def transitions_from(self, state: str) -> List[Transition]:
        """Outgoing transitions of ``state`` in priority order."""
        return [t for t in self.transitions if t.src == state]

    def next_state(self, state: str, inputs: Mapping[str, int]) -> Tuple[str, Optional[Transition]]:
        """Evaluate the next-state function for one cycle.

        Returns the next state plus the transition that fired, or ``None``
        when no guard matched (the FSM stays in its current state, which is
        the implicit default of the paper's example in Figure 4).
        """
        if state not in set(self.states):
            raise ValueError(f"{state!r} is not a state of {self.name!r}")
        for transition in self.transitions_from(state):
            if transition.guard.evaluate(inputs):
                return transition.dst, transition
        return state, None

    def moore_output(self, state: str) -> Dict[str, int]:
        """Output values for ``state`` (unspecified outputs default to zero)."""
        values = {sig.name: 0 for sig in self.outputs}
        values.update(self.moore_outputs.get(state, {}))
        return values

    def has_default_stay(self, state: str) -> bool:
        """True when some input assignment leaves the state in place.

        The implicit stay edge exists unless the outgoing guard chain is
        exhaustive.  Exhaustiveness is decided exactly by enumerating the
        assignments of the signals the guards reference (guard cones are small
        for controller FSMs); states whose guards span more than 2^12
        assignments conservatively fall back to checking for an always-true
        guard.
        """
        outgoing = self.transitions_from(state)
        if not outgoing:
            return True
        for transition in outgoing:
            if transition.guard.is_true:
                return False
        referenced = sorted({name for t in outgoing for name in t.guard.signals()})
        signals = [self.input_signal(name) for name in referenced]
        if sum(sig.width for sig in signals) > 12:
            return True
        for assignment in iter_input_assignments(signals):
            if not any(t.guard.evaluate(assignment) for t in outgoing):
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"Fsm({self.name!r}, states={len(self.states)}, "
            f"transitions={len(self.transitions)}, inputs={len(self.inputs)})"
        )


class FsmBuilder:
    """Incremental construction helper used by the benchmark FSM library."""

    def __init__(self, name: str):
        self.name = name
        self._states: List[str] = []
        self._reset_state: Optional[str] = None
        self._inputs: Dict[str, Signal] = {}
        self._outputs: Dict[str, Signal] = {}
        self._transitions: List[Transition] = []
        self._moore: Dict[str, Dict[str, int]] = {}

    def state(self, name: str, reset: bool = False, **outputs: int) -> "FsmBuilder":
        """Declare a state; ``reset=True`` marks the reset state."""
        if name not in self._states:
            self._states.append(name)
        if reset:
            self._reset_state = name
        if outputs:
            self._moore.setdefault(name, {}).update(outputs)
            for output_name in outputs:
                self._outputs.setdefault(output_name, Signal(output_name))
        return self

    def states(self, *names: str) -> "FsmBuilder":
        for name in names:
            self.state(name)
        return self

    def input(self, name: str, width: int = 1) -> "FsmBuilder":
        self._inputs[name] = Signal(name, width)
        return self

    def output(self, name: str, width: int = 1) -> "FsmBuilder":
        self._outputs[name] = Signal(name, width)
        return self

    def transition(self, src: str, dst: str, **guard_literals: int) -> "FsmBuilder":
        """Add a transition guarded by the given ``signal=value`` literals."""
        for signal_name in guard_literals:
            self._inputs.setdefault(signal_name, Signal(signal_name))
        self.state(src)
        self.state(dst)
        self._transitions.append(Transition(src, dst, Guard(guard_literals)))
        return self

    def always(self, src: str, dst: str) -> "FsmBuilder":
        """Add an unconditional transition."""
        self.state(src)
        self.state(dst)
        self._transitions.append(Transition(src, dst, Guard.true()))
        return self

    def build(self) -> Fsm:
        reset_state = self._reset_state or (self._states[0] if self._states else "")
        return Fsm(
            name=self.name,
            states=self._states,
            reset_state=reset_state,
            inputs=list(self._inputs.values()),
            outputs=list(self._outputs.values()),
            transitions=self._transitions,
            moore_outputs=self._moore,
        )


def iter_input_assignments(signals: Iterable[Signal]) -> Iterable[Dict[str, int]]:
    """Enumerate every assignment of values to the given signals.

    Only intended for small input spaces (tests and exhaustive analyses); the
    caller is responsible for keeping the width bounded.
    """
    signals = list(signals)
    total_bits = sum(sig.width for sig in signals)
    if total_bits > 20:
        raise ValueError("refusing to enumerate more than 2^20 input assignments")
    for pattern in range(1 << total_bits):
        values: Dict[str, int] = {}
        offset = 0
        for sig in signals:
            values[sig.name] = (pattern >> offset) & sig.max_value
            offset += sig.width
        yield values
