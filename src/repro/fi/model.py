"""The fault model of the paper (Section 2.1 / 3).

A fault ``f`` is described by the tuple ``{e, s, t}``: an *effect* (transient
bit flip or permanent stuck-at), a *spatial* dimension (which net -- gate
output, register output or input wire) and a *temporal* dimension (which
cycle, which for the single-cycle combinational analyses collapses to "during
the evaluated transition").  Campaign outcomes are classified from the
defender's perspective:

* ``MASKED``   -- the faulty circuit still produced the golden next state;
* ``DETECTED`` -- the fault corrupted the next state into an invalid codeword
  (or raised the error/alert signal), so the FSM traps into the error state;
* ``HIJACK``   -- the fault moved the FSM into a *different valid* state
  without detection: the attacker's goal, counted as effective in Section 6.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Tuple


class FaultEffect(Enum):
    """Effect dimension ``e`` of a fault."""

    TRANSIENT_FLIP = "flip"
    STUCK_AT_0 = "stuck0"
    STUCK_AT_1 = "stuck1"


class Classification(Enum):
    """Outcome of one injection from the defender's point of view.

    ``REDIRECTED`` marks undetected deviations that land on another valid CFG
    successor of the faulted transition's source state -- the within-CFG
    redirection the paper's Section 7 lists as a limitation of the prototype
    (1-bit selector signals in the pattern matching).  ``HIJACK`` marks
    undetected deviations onto any other state.
    """

    MASKED = "masked"
    DETECTED = "detected"
    REDIRECTED = "redirected"
    HIJACK = "hijack"


class Fault(NamedTuple):
    """One concrete fault: effect + spatial location (+ optional cycle)."""

    net: str
    effect: FaultEffect = FaultEffect.TRANSIENT_FLIP
    cycle: Optional[int] = None

    def describe(self) -> str:
        when = f"@cycle {self.cycle}" if self.cycle is not None else ""
        return f"{self.effect.value} on {self.net} {when}".strip()


@dataclass(frozen=True)
class FaultOutcome:
    """The result of injecting one fault *set* during one transition.

    ``faults`` carries every simultaneously injected fault; ``fault`` remains
    as the first of them for the single-fault call sites that dominate the
    exhaustive campaigns.  Constructing with only ``fault`` fills ``faults``
    with the one-element tuple, so multi-fault reports are never silently
    truncated to their first location.
    """

    fault: Fault
    source_state: str
    expected_state: str
    observed_code: int
    observed_state: Optional[str]
    classification: Classification
    faults: Tuple[Fault, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.faults:
            object.__setattr__(self, "faults", (self.fault,))

    @classmethod
    def of_faults(
        cls,
        faults: Tuple[Fault, ...],
        source_state: str,
        expected_state: str,
        observed_code: int,
        observed_state: Optional[str],
        classification: Classification,
    ) -> "FaultOutcome":
        if not faults:
            raise ValueError("an outcome needs at least one fault")
        return cls(
            fault=faults[0],
            source_state=source_state,
            expected_state=expected_state,
            observed_code=observed_code,
            observed_state=observed_state,
            classification=classification,
            faults=tuple(faults),
        )

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    @property
    def is_hijack(self) -> bool:
        return self.classification is Classification.HIJACK

    @property
    def is_undetected_deviation(self) -> bool:
        return self.classification in (Classification.HIJACK, Classification.REDIRECTED)


def classify_observation(
    golden_code: int,
    observed_code: int,
    observed_state: Optional[str],
    error_states: frozenset,
    cfg_successors: frozenset,
    error_raised: bool = False,
) -> Classification:
    """Shared classification rule used by every injector and campaign.

    ``error_states`` are state names that count as detection (the terminal
    error state); ``cfg_successors`` are the valid successor states of the
    faulted transition's source state.
    """
    if observed_code == golden_code and not error_raised:
        return Classification.MASKED
    if error_raised or observed_state is None or observed_state in error_states:
        return Classification.DETECTED
    if observed_state in cfg_successors:
        return Classification.REDIRECTED
    return Classification.HIJACK
