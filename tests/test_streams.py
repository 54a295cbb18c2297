"""The keyed-stream draws against numpy itself, for every key: replayed where the
replay is exact and drawn from numpy inside ``streams`` where it is not."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed import streams
from noisyfed.cli import main
from noisyfed.data import SyntheticRegressionSpec, generate_regression, partition_iid
from noisyfed.fedavg import Task
from noisyfed.model import LossModel
from noisyfed.theory import _SIGMA2_STREAM, empirical_sigma2

words32 = st.integers(0, 2**32 - 1)


def numpy_choices(key, sizes, b, count):
    """``count`` successive choice(m, b) per size from the key's stream, the way numpy draws."""
    rng = np.random.default_rng(list(key))
    return np.stack([rng.choice(m, b, replace=False) for m in sizes for _ in range(count)])


def replay_flags(key, m, b, count):
    """Whether the replay itself flags one of the key's ``count`` draws of choice(m, b)."""
    per = 2 * b - 1 - (m == b)
    words = streams.words([key], count * per + 1)
    return any(streams.choice(words[:, c * per:c * per + 2 * b - 1], m, b)[1][0]
               for c in range(count))


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
        # every row is good: seeds >= 2**32 come from numpy inside streams
        keys = [(seed, k, i, 1) for i in clients]
        sizes = [b + extra[j] for j in range(len(keys))]  # m = b included
        got = streams.choices(keys, sizes, b, count)
        assert got.shape == (len(keys), count, b) and got.dtype == np.int64
        for key, m, rows in zip(keys, sizes, got):
            assert np.array_equal(rows, numpy_choices(key, [m], b, count))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(words32, st.integers(2**32, 2**70)), n_keys=st.integers(1, 7),
           count=st.integers(1, 9), b=st.integers(1, 6), block=st.integers(1, 5),
           data=st.data())
    def test_sizes_per_draw_equal_numpy(self, seed, n_keys, count, b, block, data):
        sizes = np.array(data.draw(st.lists(st.integers(b, b + 4), min_size=n_keys * count,
                                            max_size=n_keys * count))).reshape(n_keys, count)
        keys = [(seed, j) for j in range(n_keys)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "_BLOCK", block)  # blocks that split keys and their draws
            got = streams.choices(keys, sizes, b, count)
        for key, row_sizes, rows in zip(keys, sizes.tolist(), got):
            rng = np.random.default_rng(list(key))
            assert np.array_equal(rows, [rng.choice(m, b, replace=False) for m in row_sizes])

    @pytest.mark.parametrize("block, n_keys, count", [(5, 2, 7), (256, 3, 300)])
    def test_calls_that_do_not_divide_a_window_equal_numpy(self, monkeypatch, block,
                                                           n_keys, count):
        # block // n_keys draws per call leave a short last call in each words window
        monkeypatch.setattr(streams, "_BLOCK", block)
        keys = [(11, j, 0, 1) for j in range(n_keys)]
        sizes = 3 + np.arange(n_keys * count).reshape(n_keys, count) % 4
        got = streams.choices(keys, sizes, 2, count)
        for key, row_sizes, rows in zip(keys, sizes.tolist(), got):
            rng = np.random.default_rng(list(key))
            assert np.array_equal(rows, [rng.choice(m, 2, replace=False) for m in row_sizes])

    def test_natural_lemire_rejections_are_flagged(self):
        # near m = 3e9 about one word in three is rejected; those keys come from numpy
        keys = [(7, k, 0, 4) for k in range(200)]
        flagged = [replay_flags(key, 3_000_000_000, 3, 2) for key in keys]
        assert 0 < sum(flagged) < len(keys)
        got = streams.choices(keys, 3_000_000_000, 3, 2)
        for key, rows in zip(keys, got):
            assert np.array_equal(rows, numpy_choices(key, [3_000_000_000], 3, 2))

    def test_hand_made_rejection_word_is_flagged(self):
        words = streams.words([(1, 2, 3, 4)] * 2, 9).copy()
        words[1, 4] = 0  # last Floyd draw, from [0, 9]: 0 * 10 leaves 0 < 2**32 % 10 = 6
        assert streams.choice(words, 10, 5)[1].tolist() == [False, True]

    @pytest.mark.parametrize("m, b, tail", [(10_001, 201, True), (10_001, 200, False),
                                            (10_000, 5000, False), (60_000, 1201, True)])
    def test_tail_shuffle_branch_is_flagged(self, m, b, tail):
        assert replay_flags((3, 0, 0, 1), m, b, 1) == tail
        assert np.array_equal(streams.choices([(3, 0, 0, 1)], m, b, 1)[0],
                              numpy_choices((3, 0, 0, 1), [m], b, 1))


class TestTrialBatches:
    """empirical_sigma2's batches: one key's successive draws, one shard size per draw."""

    @staticmethod
    def sequential(sizes, count, b, seed):
        rng = np.random.default_rng([seed, _SIGMA2_STREAM])
        return np.stack([rng.choice(m, b, replace=False) for m in sizes for _ in range(count)])

    @staticmethod
    def replayed(sizes, count, b, seed):
        sizes = np.repeat(sizes, count)
        return streams.choices([(seed, _SIGMA2_STREAM)], sizes[None], b, len(sizes))[0]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
           b=st.integers(1, 8), extra=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           count=st.integers(1, 5), block=st.integers(1, 9))
    def test_equal_the_sequential_loop(self, seed, b, extra, count, block):
        sizes = tuple(b + e for e in extra)  # ragged, m = b included
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "_BLOCK", block)  # blocks that split shards
            got = self.replayed(sizes, count, b, seed)
        assert np.array_equal(got, self.sequential(sizes, count, b, seed))

    @pytest.mark.parametrize("bad_shard", [0, 1, 2])
    def test_numpy_takes_over_from_a_rejection(self, monkeypatch, bad_shard):
        real_words, real_rng, calls, redrawn = streams.words, np.random.default_rng, [], []

        def with_rejection(keys, n, start=0):
            words = real_words(keys, n, start).copy()
            if len(calls) == bad_shard:
                words[0, 0] = 0  # first Floyd draw, from [0, 8]: 0 * 9 leaves 0 < 2**32 % 9 = 4
            calls.append(start)
            return words

        def spy(key):
            redrawn.append(tuple(key))
            return real_rng(key)
        monkeypatch.setattr(streams, "words", with_rejection)
        monkeypatch.setattr(streams, "_BLOCK", 3)  # one shard's batches per block
        monkeypatch.setattr(np.random, "default_rng", spy)
        sizes = (13, 13, 13)
        got = self.replayed(sizes, 3, 5, 4)
        monkeypatch.undo()
        assert len(calls) == 3 and 0 == calls[0] < calls[1] < calls[2]  # a block per shard
        assert redrawn == [(4, _SIGMA2_STREAM)]  # the whole key, from its first draw
        assert np.array_equal(got, self.sequential(sizes, 3, 5, 4))

    def test_tail_shuffle_shard_redraws_everything_from_numpy(self):
        sizes = (10_001, 10_050)
        assert np.array_equal(self.replayed(sizes, 2, 250, 8), self.sequential(sizes, 2, 250, 8))

    def test_batch_larger_than_a_shard_rejected(self):
        dataset = generate_regression(SyntheticRegressionSpec(m=9, d=1), seed=0)
        task = Task(dataset, LossModel("mse_linear", dim=1), partition_iid(9, 2, seed=0))
        assert task.shard_sizes == (5, 4)
        with pytest.raises(ValueError, match="batch_size"):
            empirical_sigma2(task, [np.zeros(1)], 5, trials=1, seed=0)


def test_outputs_equal_with_every_key_drawn_by_numpy(tmp_path, monkeypatch, capsys):
    # with replayable() always False, every caller's draws take the numpy side of streams
    doc = {"task": "regression_v5a", "mode": "fedavg",
           "data": {"m": 300, "d": 4, "seed": 3, "label_noise_variance": 0.05},
           "fedavg": {"n": 6, "r": 3, "E": 2, "K": 5, "gamma": 18.0, "batch_size": 8},
           "uplink": {"kind": "constant", "base_std": 0.2},
           "downlink": {"kind": "poly_decay", "base_std": 0.2, "decay_exponent": 1.0},
           "repeat_seeds": [1, 2], "out_prefix": "out/tiny"}
    sgd = dict(doc, mode="sgd", sgd={"T": 12, "eta": 0.05, "batch_size": 8})
    for name, d in (("fedavg", doc), ("sgd", sgd)):
        (tmp_path / f"{name}.json").write_text(json.dumps(d))
    fedavg_cfg, sgd_cfg = str(tmp_path / "fedavg.json"), str(tmp_path / "sgd.json")
    commands = [["run", "--config", fedavg_cfg, "--out", str(tmp_path / "o" / "run")],
                ["run", "--config", sgd_cfg, "--out", str(tmp_path / "o" / "sgd")],
                ["sweep", "--config", fedavg_cfg, "--axis", "r", "--values", "2,3",
                 "--out", str(tmp_path / "o" / "sweep")],
                ["bounds", "--config", fedavg_cfg]]

    def outputs():
        printed = []
        for argv in commands:
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        return printed, {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}

    replayed = outputs()
    assert len(replayed[1]) == 7  # two seeds' CSVs and a summary per run, a sweep CSV
    monkeypatch.setattr(streams, "replayable", lambda keys: False)
    assert outputs() == replayed
