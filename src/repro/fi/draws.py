"""Bit-exact block replay of the sampled campaigns' ``random.Random`` draws.

A sampled scenario draws, per trial and in this frozen order, from one
``random.Random(seed)``: a transition context (``randrange``), a fault group
(``sample`` of pool positions, or a laser centre ``randrange`` whose spot
fixes the group), then -- with several effects -- one effect ``randrange``
per fault of the group.  :func:`replay_draws` yields exactly those ints
without one Python call per draw.  It takes the Mersenne Twister's output as
one block of 32-bit words (``getrandbits(32 * m)`` is the next ``m`` words,
little-endian) and decodes it with ``random``'s own rules:

* ``_randbelow(n)`` is ``word >> (32 - n.bit_length())``, redrawn while the
  value is ``>= n`` (one word per attempt, since every bound is below
  ``2**32``);
* ``sample(range(n), k)`` swap-removes from a pool list when ``n <=
  setsize`` (21, plus ``4 ** ceil(log(3k, 4))`` for ``k > 5``), drawing
  ``_randbelow(n - i)`` at step ``i``; otherwise it draws ``_randbelow(n)``
  ``k`` times and redraws values already selected.

Decoding is jump-pointer style.  Per bound, the accepted word positions and
their running count give "the c-th accepted word at or after position p" in
one gather, so the end of one trial is computed for *every* start position
of the block at once.  Following that end-of-trial map from position 0 (by
pointer doubling, not one Python step per trial) yields the trial starts,
and every output is gathered for those starts.  The block is sized from the
bounds' acceptance rates; one that turns out short keeps its unconsumed
tail and is topped up from the same generator, which continues the stream
in step, and long campaigns decode in rounds of a few thousand words.

The picks (:class:`~repro.fi.scenarios.Sample`,
:class:`~repro.fi.scenarios.Spot`) are defined with the scenarios, so this
module loads only when a campaign samples.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.fi.scenarios import Pick, Sample, Spot

#: Words drawn per round: the expected need of the remaining trials times
#: this margin, plus a few words of slack for short campaigns.
_BLOCK_MARGIN = 1.2
_BLOCK_SLACK = 64

#: Most words one round adds to the block; longer campaigns decode over
#: several rounds.  At 8192 words every per-word array stays below glibc's
#: default 128 KiB mmap threshold, so rounds reuse heap pages: lowering a
#: 3000-trial random 3-fault campaign (~20000 words) took ~400 minor page
#: faults with the block in one round and none in rounds of 8192 words.
_MAX_BLOCK_WORDS = 1 << 13


@dataclass(frozen=True)
class Draws:
    """The decoded draws of ``trials`` trials, in draw order.

    ``sizes[t]`` faults belong to trial ``t``; ``picks`` and ``effects``
    hold them flat, trial after trial.  ``effects`` is ``None`` when a single
    effect was drawn from (no effect draws happen then).
    """

    contexts: np.ndarray
    sizes: np.ndarray
    picks: np.ndarray
    effects: Optional[np.ndarray]


def _setsize(k: int) -> int:
    """``random.sample``'s pool/set threshold, computed as it computes it."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _acceptance(bound: int) -> float:
    """Share of words ``_randbelow(bound)`` accepts."""
    return bound / (1 << bound.bit_length())


def _block(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``'s stream."""
    data = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(data, dtype="<u4").astype(np.int64)


def _ragged(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])``."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.intp) - np.repeat(starts, counts)


class _Bound:
    """Where ``_randbelow(bound)`` accepts a word of one block of ``m`` words.

    ``values[p]`` is the candidate word ``p`` yields; ``at`` holds the
    accepted positions followed by the sentinel ``m`` (the block's end),
    ``rank[p]`` the number of accepted positions before ``p`` and
    ``first[p]`` the first accepted position at or after ``p``, for ``p`` up
    to ``m + 1``.
    """

    def __init__(self, padded: np.ndarray, bound: int):
        size = padded.size - 1
        self.values = padded >> (32 - bound.bit_length())
        accepted = self.values[:size] < bound
        self.at = np.append(np.flatnonzero(accepted), size)
        self.rank = np.zeros(size + 2, dtype=np.intp)
        np.cumsum(accepted, out=self.rank[1 : size + 1])
        self.rank[size + 1] = self.rank[size]
        self.first = self.at[self.rank]

    def nth(self, pos: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The ``count + 1``-th accepted position at or after each ``pos``."""
        return self.at[np.minimum(self.rank[pos] + count, self.at.size - 1)]


class _Decoder:
    """Walks trials of one block from any vector of start positions."""

    def __init__(self, words: np.ndarray, num_contexts: int, pick: Pick, num_effects: int):
        # One pad word gives every bound a value at the sentinel position.
        self.padded = np.append(words, 0)
        self.size = words.size
        self.num_contexts = num_contexts
        self.pick = pick
        self.num_effects = num_effects
        self.pool = isinstance(pick, Sample) and pick.n <= _setsize(pick.k)
        self._bounds: Dict[int, _Bound] = {}

    def bound(self, bound: int) -> _Bound:
        table = self._bounds.get(bound)
        if table is None:
            table = self._bounds[bound] = _Bound(self.padded, bound)
        return table

    def walk(self, pos: np.ndarray, collect: bool = False):
        """End position of the trial starting at each of ``pos`` -- past the
        block's end (``> m``) when the block is too short for it -- and, with
        ``collect``, the trials' :class:`Draws`."""
        ctx = self.bound(self.num_contexts)
        p = ctx.first[pos]
        contexts = ctx.values[p] if collect else None
        pos = p + 1
        pick = self.pick
        if isinstance(pick, Spot):
            centres = self.bound(pick.centres)
            p = centres.first[pos]
            centre = centres.values[p]
            pos = p + 1
            counts = pick.sizes()[centre] if self.num_effects > 1 else None
        else:
            columns, last = self._sample(pos)
            pos = last + 1
            counts = np.full(pos.size, pick.k, dtype=np.intp)
        if collect and isinstance(pick, Spot):
            picks, counts = pick.groups(centre)
        elif collect:
            picks = np.stack(columns, axis=1) if columns else np.empty((pos.size, 0), np.intp)
            if self.pool:
                picks = _swap_remove(picks, pick.n)
            picks = picks.ravel()
        effects = None
        if self.num_effects > 1:
            table = self.bound(self.num_effects)
            if collect:
                rank = np.repeat(table.rank[pos], counts) + _ragged(counts)
                effects = table.values[table.at[rank]]
            last = table.nth(pos, np.maximum(counts - 1, 0))
            pos = np.where(counts > 0, last + 1, pos)
        if not collect:
            return pos
        return pos, Draws(contexts, counts, picks, effects)

    def _sample(self, pos: np.ndarray):
        """``sample(range(n), k)`` from each start: the value drawn at each
        step (a raw pool index on the pool branch) and the position of the
        group's last draw (``pos - 1`` for ``k = 0``)."""
        n, k = self.pick.n, self.pick.k
        columns: List[np.ndarray] = []
        last = pos - 1
        for i in range(k):
            table = self.bound(n - i if self.pool else n)
            p = table.first[last + 1]
            value = table.values[p]
            while not self.pool and columns:
                taken = np.zeros(p.size, dtype=bool)
                for column in columns:
                    taken |= value == column
                redo = np.flatnonzero(taken & (p < self.size))
                if not redo.size:
                    break
                p[redo] = table.first[p[redo] + 1]
                value[redo] = table.values[p[redo]]
            columns.append(value)
            last = p
        return columns, last


def _swap_remove(draws: np.ndarray, n: int) -> np.ndarray:
    """Replay ``sample``'s pool branch: row ``t`` of ``draws`` holds trial
    ``t``'s raw indices ``j_i < n - i``; the result holds the values they
    select from the shrinking pool list.

    The trials x n pool matrix stays small: every trial takes more than
    ``k`` words of a round, and ``n <= setsize(k)`` is at most ``21 + 12k``.
    """
    trials, k = draws.shape
    pool = np.tile(np.arange(n, dtype=draws.dtype), (trials, 1))
    lanes = np.arange(trials)
    result = np.empty_like(draws)
    for i in range(k):
        j = draws[:, i]
        result[:, i] = pool[lanes, j]
        pool[lanes, j] = pool[:, n - i - 1]
    return result


def _trial_starts(ends: np.ndarray, trials: int, size: int) -> np.ndarray:
    """Start positions of the first ``trials`` trials of a block of ``size``
    words that fit in it.

    The first trial starts at 0 and ``ends[s]`` is the end of the trial
    starting at ``s`` (past ``size`` when it does not fit).  The chain
    ``0, ends[0], ends[ends[0]], ...`` is followed by pointer doubling: round
    ``r`` extends the first ``2**r`` starts by ``2**r`` trials at once.
    """
    step = np.append(np.minimum(ends, size + 1), size + 1)  # size + 1 absorbs
    starts = np.zeros(trials, dtype=np.intp)
    filled = min(trials, 1)
    while filled < trials:
        take = min(filled, trials - filled)
        starts[filled : filled + take] = step[starts[:take]]
        filled += take
        if filled < trials:
            step = step[step]
    fits = ends[np.minimum(starts, size)] <= size
    return starts[: np.count_nonzero(fits)]


def _expected_words(num_contexts: int, pick: Pick, num_effects: int) -> float:
    """Mean words one trial consumes, from the bounds' acceptance rates."""
    words = 1 / _acceptance(num_contexts)
    if isinstance(pick, Spot):
        words += 1 / _acceptance(pick.centres)
        faults = float(pick.sizes().mean()) if num_effects > 1 else 0.0
    elif pick.n <= _setsize(pick.k):
        words += sum(1 / _acceptance(pick.n - i) for i in range(pick.k))
        faults = pick.k
    else:
        accept = _acceptance(pick.n)
        words += sum(1 / (accept * (1 - i / pick.n)) for i in range(pick.k))
        faults = pick.k
    if num_effects > 1:
        words += faults / _acceptance(num_effects)
    return words


def replay_draws(
    rng: random.Random, trials: int, num_contexts: int, pick: Pick, num_effects: int = 1
) -> Draws:
    """Replay ``trials`` trials of ``rng``'s stream, bit for bit.

    Trial by trial this is::

        context = rng.randrange(num_contexts)
        group = rng.sample(range(pick.n), pick.k)               # Sample
        group = pick.groups([rng.randrange(pick.centres)])[0]   # Spot
        if num_effects > 1:
            effects = [rng.randrange(num_effects) for _ in group]

    and ``rng`` is left somewhere past the last trial's draws.
    """
    if isinstance(pick, Sample):
        if not 0 <= pick.k <= pick.n:
            raise ValueError(f"cannot sample {pick.k} of {pick.n} positions")
        bounds = [pick.n]
    else:
        bounds = [pick.centres]
    bounds += [num_contexts, num_effects]
    if min(bounds) < 1 or max(bounds) >= 1 << 32:
        raise ValueError(f"draw bounds {bounds} outside [1, 2**32)")
    per_trial = _expected_words(num_contexts, pick, num_effects)
    parts: List[Draws] = []
    words = np.empty(0, dtype=np.int64)
    remaining = trials
    while remaining > 0:
        need = math.ceil(per_trial * remaining * _BLOCK_MARGIN) + _BLOCK_SLACK
        words = np.concatenate((words, _block(rng, min(need, _MAX_BLOCK_WORDS))))
        decoder = _Decoder(words, num_contexts, pick, num_effects)
        ends = decoder.walk(np.arange(words.size + 1))
        starts = _trial_starts(ends, min(remaining, words.size), words.size)
        if starts.size:
            end, draws = decoder.walk(starts, collect=True)
            parts.append(draws)
            remaining -= starts.size
            words = words[end[-1] :]
    if not parts:
        empty = np.empty(0, dtype=np.intp)
        return Draws(empty, empty, empty, None if num_effects == 1 else empty)
    return Draws(
        np.concatenate([part.contexts for part in parts]),
        np.concatenate([part.sizes for part in parts]),
        np.concatenate([part.picks for part in parts]),
        None if num_effects == 1 else np.concatenate([part.effects for part in parts]),
    )
