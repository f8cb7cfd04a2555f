"""Hamming-distance-N encodings for states and control signals (R1/R2).

SCFI requires every valid state codeword (R2) and every valid control-signal
codeword (R1) to be separated by a minimum Hamming distance of ``N`` so that
an attacker must flip at least ``N`` bits to move between valid codewords.
The construction used here is the classic greedy lexicode: scan the integers
in increasing order and keep every value whose distance to all kept values is
at least ``N``.  Lexicodes are linear-code-quality for the small sizes FSM
encodings need and, crucially, the construction is deterministic, so a
protected design re-synthesises identically.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.fsm.encoding import hamming_distance


class _CodeFields(NamedTuple):
    codewords: tuple
    width: int
    distance: int


class DistanceCode(_CodeFields):
    """A set of codewords with a guaranteed minimum pairwise Hamming distance.

    ``len()`` counts the codewords, not the three fields.
    """

    __slots__ = ()

    def __new__(cls, codewords: tuple, width: int, distance: int) -> "DistanceCode":
        for word in codewords:
            if word >> width:
                raise ValueError(f"codeword {word:#x} does not fit in {width} bits")
        return super().__new__(cls, codewords, width, distance)

    def __len__(self) -> int:
        return len(self.codewords)

    def verify(self) -> bool:
        """Re-check the pairwise distance property (used by tests)."""
        words = self.codewords
        for i, a in enumerate(words):
            for b in words[i + 1 :]:
                if hamming_distance(a, b) < self.distance:
                    return False
        return True

    def minimum_distance(self) -> int:
        words = self.codewords
        if len(words) < 2:
            return self.width
        return min(
            hamming_distance(a, b) for i, a in enumerate(words) for b in words[i + 1 :]
        )

    def assign(self, names: Sequence[str]) -> Dict[str, int]:
        """Map the given names onto codewords in order."""
        if len(names) > len(self.codewords):
            raise ValueError(f"code has {len(self.codewords)} words, need {len(names)}")
        return {name: self.codewords[i] for i, name in enumerate(names)}


def _greedy_lexicode(count: int, distance: int, width: int, forbid_zero: bool) -> Optional[List[int]]:
    """Greedy lexicode search in a fixed width; ``None`` when it cannot fit."""
    chosen: List[int] = []
    start = 1 if forbid_zero else 0
    for candidate in range(start, 1 << width):
        if all(hamming_distance(candidate, word) >= distance for word in chosen):
            chosen.append(candidate)
            if len(chosen) == count:
                return chosen
    return None


def minimum_width_for_code(count: int, distance: int, forbid_zero: bool = True) -> int:
    """Smallest width for which the greedy lexicode yields ``count`` words."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if distance < 1:
        raise ValueError("distance must be >= 1")
    width = max(distance, (count - 1).bit_length(), 1)
    while width <= 64:
        if _greedy_lexicode(count, distance, width, forbid_zero) is not None:
            return width
        width += 1
    raise ValueError(f"cannot construct a distance-{distance} code with {count} words")


def generate_distance_code(
    count: int,
    distance: int,
    width: Optional[int] = None,
    forbid_zero: bool = True,
) -> DistanceCode:
    """Generate ``count`` codewords at pairwise distance >= ``distance``.

    ``forbid_zero`` excludes the all-zero word, which SCFI reserves: the error
    infection (AND masking) pulls a corrupted next state towards zero, so zero
    must never be a valid operational state.
    """
    if width is None:
        width = minimum_width_for_code(count, distance, forbid_zero)
    words = _greedy_lexicode(count, distance, width, forbid_zero)
    if words is None:
        raise ValueError(
            f"cannot fit {count} codewords of distance {distance} into {width} bits"
        )
    return DistanceCode(codewords=tuple(words), width=width, distance=distance)


def encode_states(states: Sequence[str], distance: int, error_state: str = "ERROR") -> Dict[str, int]:
    """Encode FSM states plus the terminal error state with distance ``N``.

    The error state receives the last codeword; callers rely on every
    operational state being distinct from it by at least ``distance`` bits.
    """
    names = list(states) + [error_state]
    code = generate_distance_code(len(names), distance)
    return code.assign(names)


def encode_control_symbols(symbols: Sequence[str], distance: int) -> Dict[str, int]:
    """Encode the control-signal symbols (one per CFG edge) with distance ``N``."""
    if not symbols:
        return {}
    code = generate_distance_code(len(symbols), distance)
    return code.assign(list(symbols))
