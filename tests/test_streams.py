"""The keyed-stream replay against numpy itself, and the fallback where it cannot be exact."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed import streams, theory
from noisyfed.data import sample_batch
from noisyfed.theory import _SIGMA2_STREAM, _trial_batches

words32 = st.integers(0, 2**32 - 1)


def numpy_choices(key, sizes, b, count):
    """``count`` successive choice(m, b) per size from the key's stream, the way numpy draws."""
    rng = np.random.default_rng(list(key))
    return np.stack([rng.choice(m, b, replace=False) for m in sizes for _ in range(count)])


class TestSeeding:
    @settings(max_examples=200, deadline=None)
    @given(keys=st.integers(1, 4).flatmap(lambda L: st.lists(
        st.lists(words32, min_size=L, max_size=L), min_size=1, max_size=6)))
    def test_states_equal_numpy_seeding(self, keys):
        for key, state in zip(keys, streams.pcg64_states(keys)):
            got = np.random.default_rng(key).bit_generator.state["state"]
            assert (got["state"], got["inc"]) == state

    @settings(max_examples=50, deadline=None)
    @given(key=st.lists(words32, min_size=4, max_size=4), n=st.integers(1, 40),
           start=st.integers(0, 40), d=st.integers(1, 5))
    def test_words_and_generators_continue_numpy(self, key, n, start, d):
        raw = np.random.default_rng(key).bit_generator.random_raw(41)
        assert np.array_equal(streams.words([key], n, start)[0],
                              raw.astype("<u8").view("<u4")[start:start + n])
        assert np.array_equal(streams.generators([key, key])(1).standard_normal(d),
                              np.random.default_rng(key).standard_normal(d))

    def test_large_or_negative_words_rejected(self):
        assert not streams.replayable([(2**32, 0)])
        for keys in ([(2**32, 0)], [(-1, 0)], [(1, 2, 3, 4, 5)]):
            with pytest.raises(ValueError, match="keys"):
                streams.pcg64_states(keys)


class TestChoices:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.integers(0, 50), words32, st.integers(2**32, 2**70)),
           k=st.integers(0, 500), clients=st.lists(st.integers(0, 99), min_size=1, max_size=8),
           b=st.integers(1, 12), extra=st.lists(st.integers(0, 3), min_size=8, max_size=8),
           count=st.integers(1, 4))
    def test_equal_numpy_on_every_good_row(self, seed, k, clients, b, extra, count):
        keys = [(seed, k, i, 1) for i in clients]
        sizes = [b + extra[j] for j in range(len(keys))]  # m = b included
        got, bad = streams.choices(keys, sizes, b, count)
        assert bad.all() == (seed >= 2**32)
        for key, m, rows, flagged in zip(keys, sizes, got, bad):
            if not flagged:
                assert np.array_equal(rows, numpy_choices(key, [m], b, count))

    def test_natural_lemire_rejections_are_flagged(self):
        # near m = 3e9 about one word in three is rejected
        keys = [(7, k, 0, 4) for k in range(200)]
        got, bad = streams.choices(keys, 3_000_000_000, 3, 2)
        assert 0 < bad.sum() < len(keys)
        for key, rows in zip(np.array(keys)[~bad], got[~bad]):
            assert np.array_equal(rows, numpy_choices(key, [3_000_000_000], 3, 2))

    def test_hand_made_rejection_word_is_flagged(self):
        words = streams.words([(1, 2, 3, 4)] * 2, 9).copy()
        words[1, 4] = 0  # last Floyd draw, from [0, 9]: 0 * 10 leaves 0 < 2**32 % 10 = 6
        assert streams.choice(words, 10, 5)[1].tolist() == [False, True]

    @pytest.mark.parametrize("m, b, tail", [(10_001, 201, True), (10_001, 200, False),
                                            (10_000, 5000, False), (60_000, 1201, True)])
    def test_tail_shuffle_branch_is_flagged(self, m, b, tail):
        picks, bad = streams.choices([(3, 0, 0, 1)], m, b, 1)
        assert bad[0] == tail
        if not tail:
            assert np.array_equal(picks[0], numpy_choices((3, 0, 0, 1), [m], b, 1))


class TestTrialBatches:
    """empirical_sigma2's batches: successive sample_batch calls on one stream."""

    @staticmethod
    def sequential(sizes, count, b, seed):
        rng = np.random.default_rng([seed, _SIGMA2_STREAM])
        return np.stack([[sample_batch(np.arange(m), b, rng) for _ in range(count)]
                         for m in sizes])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           b=st.integers(1, 8), extra=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           count=st.integers(1, 5), block=st.integers(1, 9))
    def test_equal_the_sequential_loop(self, seed, b, extra, count, block):
        sizes = tuple(b + e for e in extra)  # ragged, m = b included
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(theory, "_SIGMA2_BLOCK", block)  # blocks that split shards
            got = list(_trial_batches(sizes, count, b, seed))
        assert np.array_equal(got, self.sequential(sizes, count, b, seed))

    @pytest.mark.parametrize("bad_shard", [0, 1, 2])
    def test_numpy_takes_over_from_a_rejection(self, monkeypatch, bad_shard):
        real, calls = streams.words, []

        def with_rejection(keys, n, start=0):
            words = real(keys, n, start).copy()
            if len(calls) == bad_shard:
                words[0, 0] = 0  # first Floyd draw, from [0, 8]: 0 * 9 leaves 0 < 2**32 % 9 = 4
            calls.append(start)
            return words
        monkeypatch.setattr(streams, "words", with_rejection)
        monkeypatch.setattr(theory, "_SIGMA2_BLOCK", 3)  # one shard's batches per block
        sizes = (13, 13, 13)
        got = list(_trial_batches(sizes, 3, 5, 4))
        assert len(calls) == bad_shard + 1  # no replay after the bad block
        assert np.array_equal(got, self.sequential(sizes, 3, 5, 4))

    def test_tail_shuffle_shard_redraws_everything_from_numpy(self):
        sizes = (10_001, 10_050)
        assert np.array_equal(list(_trial_batches(sizes, 2, 250, 8)),
                              self.sequential(sizes, 2, 250, 8))

    def test_batch_larger_than_a_shard_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            next(_trial_batches((5, 4), 1, 5, 0))
