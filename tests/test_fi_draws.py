"""The block decoder replays ``random.Random``'s campaign draws bit for bit.

:func:`repro.fi.draws.replay_draws` must return exactly what the per-trial
reference loop below draws from ``random.Random(seed)``: a context
``randrange``, a ``sample`` (both of its branches) or a laser centre
``randrange`` with its spot, then one effect ``randrange`` per fault.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fi import draws
from repro.fi.draws import replay_draws
from repro.fi.scenarios import Sample, Spot

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Bounds at and around powers of two (the rejection rate jumps there).
EDGE_BOUNDS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025]
BOUNDS = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(min_value=1, max_value=3000))


def reference_draws(seed, trials, num_contexts, pick, num_effects):
    """The per-trial ``random.Random`` loop the decoder replaces."""
    rng = random.Random(seed)
    contexts, sizes, picks, effects = [], [], [], []
    for _ in range(trials):
        contexts.append(rng.randrange(num_contexts))
        if isinstance(pick, Sample):
            group = rng.sample(range(pick.n), pick.k)
        else:
            group = spot_members(pick, rng.randrange(pick.centres))
        sizes.append(len(group))
        picks.extend(group)
        if num_effects > 1:
            effects.extend(rng.randrange(num_effects) for _ in group)
    return contexts, sizes, picks, effects


def assert_replays(seed, trials, num_contexts, pick, num_effects):
    contexts, sizes, picks, effects = reference_draws(
        seed, trials, num_contexts, pick, num_effects
    )
    got = replay_draws(random.Random(seed), trials, num_contexts, pick, num_effects)
    assert got.contexts.tolist() == contexts
    assert got.sizes.tolist() == sizes
    assert got.picks.tolist() == picks
    if num_effects == 1:
        assert got.effects is None
    else:
        assert got.effects.tolist() == effects


def spot(centres, radius, seed=0):
    """A :class:`Spot` over ``centres`` random placement points, whose group
    sizes vary from centre to centre."""
    draw = np.random.default_rng(seed)
    return Spot(draw.uniform(0, 5, centres), draw.integers(0, 6, centres).astype(float), radius)


def spot_members(pick, centre):
    """The reference laser spot: every pool position within the radius."""
    inside = (pick.xs - pick.xs[centre]) ** 2 + (pick.ys - pick.ys[centre]) ** 2 <= pick.radius**2
    return np.flatnonzero(inside).tolist()


@st.composite
def samples(draw):
    n = draw(BOUNDS)
    return Sample(n, draw(st.integers(min_value=0, max_value=min(n, 40))))


@st.composite
def spots(draw):
    return spot(
        draw(st.integers(min_value=1, max_value=70)),
        draw(st.sampled_from([0.5, 1.0, 1.5, 2.5])),
        seed=draw(st.integers(min_value=0, max_value=99)),
    )


class TestDecoderMatchesRandom:
    @given(
        seed=SEEDS,
        trials=st.integers(min_value=0, max_value=80),
        num_contexts=BOUNDS,
        pick=st.one_of(samples(), spots()),
        num_effects=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_campaign_shapes(self, seed, trials, num_contexts, pick, num_effects):
        assert_replays(seed, trials, num_contexts, pick, num_effects)

    @pytest.mark.parametrize(
        "n, k",
        [
            (1, 1), (2, 2), (21, 1), (21, 5), (22, 1), (22, 5),  # setsize 21
            (6, 6), (85, 6), (86, 6), (85, 21), (86, 21),  # k > 5: setsize 85
            (277, 22), (278, 22), (300, 100),  # setsize 277, then 1045
            (761, 3), (1024, 3), (1025, 3),
        ],
    )
    @pytest.mark.parametrize("num_effects", [1, 3])
    def test_sample_branches(self, n, k, num_effects):
        """Both ``sample`` branches on either side of ``setsize``, which
        grows for ``k > 5``."""
        for seed in range(3):
            assert_replays(seed, 40, 42, Sample(n, k), num_effects)

    @pytest.mark.parametrize("num_contexts", [1, 2, 64, 65])
    def test_laser_centres_with_variable_groups(self, num_contexts):
        for radius in (0.5, 1.5, 3.0):
            pick = spot(70, radius, seed=4)
            assert len(set(pick.sizes().tolist())) > 1
            for num_effects in (1, 2, 3):
                assert_replays(11, 60, num_contexts, pick, num_effects)

    def test_laser_groups_list_each_drawn_centre(self):
        """Repeated and new centres over several calls, on one spot table."""
        pick = spot(40, 1.5, seed=2)
        for drawn in ([3, 3, 0], [39, 3, 7, 7, 1], []):
            flat, sizes = pick.groups(np.array(drawn, dtype=np.intp))
            want = [spot_members(pick, centre) for centre in drawn]
            assert sizes.tolist() == [len(group) for group in want]
            assert flat.tolist() == [position for group in want for position in group]
            assert sizes.tolist() == pick.sizes()[drawn].tolist()

    def test_zero_trials_draw_nothing(self):
        rng = random.Random(5)
        state = rng.getstate()
        got = replay_draws(rng, 0, 42, Sample(761, 3), 3)
        assert got.contexts.size == got.picks.size == got.effects.size == 0
        assert rng.getstate() == state


class TestBlocks:
    def test_block_is_the_word_stream(self):
        """``getrandbits(32 * m)`` is the next ``m`` words, and a later block
        continues the stream in step."""
        rng, words = random.Random(3), random.Random(3)
        block = np.concatenate([draws._block(rng, 7), draws._block(rng, 1), draws._block(rng, 9)])
        assert block.tolist() == [words.getrandbits(32) for _ in range(17)]
        assert rng.random() == words.random()

    @pytest.mark.parametrize("cap", [1, 3, 50])
    def test_short_blocks_are_topped_up(self, monkeypatch, cap):
        """A block sized too small keeps its unconsumed tail and tops up from
        the same generator, over as many rounds as it takes."""
        rounds = []
        block = draws._block

        def counted(rng, count):
            rounds.append(count)
            return block(rng, count)

        monkeypatch.setattr(draws, "_block", counted)
        monkeypatch.setattr(draws, "_BLOCK_MARGIN", 0.3)
        monkeypatch.setattr(draws, "_BLOCK_SLACK", 0)
        monkeypatch.setattr(draws, "_MAX_BLOCK_WORDS", cap)
        for pick in (Sample(761, 3), Sample(10, 4), spot(9, 2.0)):
            rounds.clear()
            assert_replays(9, 30, 42, pick, 3)
            assert len(rounds) > 1 and max(rounds) <= cap


class TestRejectedPicks:
    def test_sample_larger_than_pool(self):
        with pytest.raises(ValueError, match="cannot sample 4 of 3"):
            replay_draws(random.Random(0), 1, 2, Sample(3, 4))

    def test_bounds_need_one_word(self):
        with pytest.raises(ValueError, match="outside"):
            replay_draws(random.Random(0), 1, 1 << 32, Sample(3, 1))
        with pytest.raises(ValueError, match="outside"):
            replay_draws(random.Random(0), 1, 0, Sample(3, 1))
