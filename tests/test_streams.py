"""The keyed-stream draws against numpy itself, for every key: replayed where the
replay is exact and drawn from numpy inside ``streams`` where it is not. Keys go to
``streams`` as ``key_rows``; the draws they must equal come from
``np.random.default_rng([seed, ...])`` of the same ints."""

import ctypes
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed import streams
from noisyfed.cli import main
from oracles import numpy_choices, numpy_normals

words32 = st.integers(0, 2**32 - 1)
# seeds of one word, of two, and of many, with the edges where numpy adds a word
seeds = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]), words32,
                  st.integers(0, 2**200))


def replay_flags(key, m, b, count):
    """Whether the replay itself flags one of the key's ``count`` draws of choice(m, b),
    m > b: each draw's 2b - 1 words, in turn, as one column of ``streams.choice``."""
    per = 2 * b - 1
    words = streams.words(streams.seed_keys([key]), count * per)[0]
    return any(streams.choice(words[c * per:(c + 1) * per, None], m, b)[1][0]
               for c in range(count))


class FixedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the given four uint64 seed words."""

    def __init__(self, seed_words):
        self.seed_words = np.asarray(seed_words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        return self.seed_words.copy()


def numpy_state(bit_generator):
    state = bit_generator.state["state"]
    return state["state"], state["inc"]


def limb_state(limbs):
    lo, hi, inc_lo, inc_hi = (int(x) for x in limbs)
    return hi << 64 | lo, inc_hi << 64 | inc_lo


# 64-bit seed words at the edges of every carry: zero, one, 2**63 - 1, 2**63, 2**64 - 1
words64 = st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2), st.integers(2**64 - 3, 2**64 - 1),
                    st.integers(2**63 - 2, 2**63 + 1))


class TestSeeding:
    @settings(max_examples=200, deadline=None)
    @given(keys=st.integers(1, 4).flatmap(lambda L: st.lists(
        st.lists(words32 | st.integers(2**32 - 3, 2**32 - 1), min_size=L, max_size=L),
        min_size=1, max_size=6)))
    def test_states_equal_numpy_seeding(self, keys):
        for key, limbs in zip(keys, streams._limbs(streams._seed_words(keys))):
            assert limb_state(limbs) == numpy_state(np.random.default_rng(key).bit_generator)

    @settings(max_examples=300, deadline=None)
    @given(seed_words=st.lists(st.lists(words64, min_size=4, max_size=4), min_size=1, max_size=5))
    def test_limbs_equal_numpy_seeding_at_every_carry(self, seed_words):
        limbs = streams._limbs(np.array(seed_words, dtype=np.uint64))
        for row, got in zip(seed_words, limbs):
            assert limb_state(got) == numpy_state(np.random.PCG64(FixedSeed(row)))

    @settings(max_examples=50, deadline=None)
    @given(key=st.lists(words32, min_size=4, max_size=4), n=st.integers(1, 80),
           d=st.integers(1, 5))
    def test_words_and_normals_continue_numpy(self, key, n, d):
        raw = np.random.default_rng(key).bit_generator.random_raw(40)
        assert np.array_equal(streams.words(streams.seed_keys([key]), n)[0],
                              raw.astype("<u8").view("<u4")[:n])
        assert np.array_equal(streams.normals(streams.seed_keys([key, key]), d)[1],
                              np.random.default_rng(key).standard_normal(d))

    @settings(max_examples=100, deadline=None)
    @given(seed=words32 | st.integers(2**32, 2**70),
           columns=st.lists(st.tuples(words32, words32), min_size=1, max_size=6),
           d=st.integers(1, 9))
    def test_normals_equal_numpy_for_every_key(self, seed, columns, d):
        got = streams.normals(streams.seed_keys(streams.key_rows(seed, *zip(*columns))), d)
        assert got.shape == (len(columns), d)
        for (i, j), row in zip(columns, got):
            assert np.array_equal(row, np.random.default_rng([seed, i, j]).standard_normal(d))

    def test_large_or_negative_words_rejected(self):
        # in the pool and past it
        for keys in ([(2**32, 0)], [(-1, 0)], [(1, 2, 3, 4, 2**32)], [(1, 2, 3, 4, 5, -1)]):
            with pytest.raises(ValueError, match="keys"):
                streams.seed_keys(keys)


# the words SeedSequence hashes for a list of ints (a numpy internal, so checked if present)
numpy_words = getattr(np.random.bit_generator, "_coerce_to_uint32_array", None)


class TestKeyRows:
    """key_rows of any seed and up to three columns: rows of 1 to 10 words."""

    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, n=st.integers(1, 4), data=st.data())
    def test_rows_seed_like_numpy(self, seed, n, data):
        columns = data.draw(st.lists(st.lists(words32, min_size=n, max_size=n), max_size=3))
        rows = streams.key_rows(seed, *columns)
        keys = [[seed, *key] for key in zip(*columns)] if columns else [[seed]]
        assert rows.dtype == np.int64 and len(rows) == len(keys)
        if numpy_words is not None:
            assert rows.tolist() == [numpy_words(key).tolist() for key in keys]
        for key, limbs in zip(keys, streams._limbs(streams._seed_words(rows))):
            assert limb_state(limbs) == numpy_state(np.random.default_rng(key).bit_generator)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 4), b=st.integers(1, 4), extra=st.integers(0, 3),
           count=st.integers(1, 3), d=st.integers(1, 4), data=st.data())
    def test_draws_equal_numpy(self, seed, n, b, extra, count, d, data):
        columns = data.draw(st.lists(st.lists(words32, min_size=n, max_size=n), max_size=3))
        rows = streams.key_rows(seed, *columns)
        keys = [[seed, *key] for key in zip(*columns)] if columns else [[seed]]
        seeded = streams.seed_keys(rows)
        assert np.array_equal(streams.normals(seeded, d), numpy_normals(keys, d))
        assert np.array_equal(streams.choices(seeded, b + extra, b, count),
                              numpy_choices(keys, b + extra, b, count))

    def test_columns_broadcast(self):
        rows = streams.key_rows(2**32 + 5, np.arange(3), 0, [[7], [8]])
        assert rows.tolist() == [[5, 1, k, 0, c] for c in (7, 8) for k in range(3)]
        assert streams.key_rows(9).tolist() == [[9]]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            streams.key_rows(-1, 0)


class TestStateWrite:
    keys = [(0, 0, 0, 0), (2**32 - 1,) * 4, (5, 17, 3, 2), (9, 2**32 - 2, 1, 1)]

    def test_dict_setter_path_draws_the_same(self, monkeypatch):
        keys = streams.seed_keys(self.keys)
        written = streams.words(keys, 9), streams.normals(keys, 6)
        monkeypatch.setattr(streams, "_state_seat", lambda: None)
        set_by_dict = streams.words(keys, 9), streams.normals(keys, 6)
        for a, b in zip(written, set_by_dict):
            assert np.array_equal(a, b)
        for key, row in zip(self.keys, set_by_dict[1]):
            assert np.array_equal(row, np.random.default_rng(key).standard_normal(6))

    @pytest.mark.skipif(streams._state_seat() is None,
                        reason="this numpy build's PCG64 state is set through the dict")
    def test_layout_check_refuses_swapped_halves(self, monkeypatch):
        bitgen = np.random.PCG64(1)
        address = ctypes.addressof(streams._checked_seat(bitgen).obj)
        assert id(bitgen) <= address <= id(bitgen) + type(bitgen).__basicsize__ - 32
        real = streams._limbs
        monkeypatch.setattr(streams, "_limbs", lambda seed_words: real(seed_words)[:, [1, 0, 3, 2]])
        assert streams._checked_seat(np.random.PCG64(1)) is None


class TestChoices:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.one_of(st.integers(0, 50), words32, st.integers(2**32, 2**70)),
           k=st.integers(0, 500), clients=st.lists(st.integers(0, 99), min_size=1, max_size=8),
           b=st.integers(1, 12), extra=st.lists(st.integers(0, 3), min_size=8, max_size=8),
           count=st.integers(1, 4))
    def test_equal_numpy_on_every_good_row(self, seed, k, clients, b, extra, count):
        # every row is good: a flagged row comes from numpy inside streams
        sizes = [b + extra[j] for j in range(len(clients))]  # m = b included
        got = streams.choices(streams.seed_keys(streams.key_rows(seed, k, clients, 1)), sizes, b,
                              count)
        assert got.shape == (len(clients), count, b) and got.dtype == np.int64
        assert np.array_equal(got, numpy_choices([(seed, k, i, 1) for i in clients], sizes, b,
                                                 count))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(words32, st.integers(2**32, 2**70)), n_keys=st.integers(1, 7),
           count=st.integers(1, 9), b=st.integers(1, 6), per_call=st.integers(1, 12),
           data=st.data())
    def test_sizes_per_key_equal_numpy(self, seed, n_keys, count, b, per_call, data):
        sizes = data.draw(st.lists(st.integers(b, b + 4), min_size=n_keys, max_size=n_keys))
        keys = [(seed, j) for j in range(n_keys)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(streams, "_ROWS", per_call)  # blocks of several keys, or of one key
            got = streams.choices(streams.seed_keys(streams.key_rows(seed, np.arange(n_keys))),
                                  sizes, b, count)
        for key, m, rows in zip(keys, sizes, got):
            rng = np.random.default_rng(list(key))
            want = [rng.choice(m, b, replace=False) for _ in range(count)]
            assert np.array_equal(rows, np.sort(want, axis=1))

    @pytest.mark.parametrize("per_call, n_keys, count", [(5, 2, 7), (256, 3, 300), (5, 7, 2)])
    def test_calls_that_do_not_divide_a_window_equal_numpy(self, monkeypatch, per_call,
                                                           n_keys, count):
        # per_call // count keys per block leave a short last block; a key with more than
        # per_call draws is a block of its own, replayed in one larger call
        monkeypatch.setattr(streams, "_ROWS", per_call)
        keys = [(11, j, 0, 1) for j in range(n_keys)]
        sizes = 3 + np.arange(n_keys) % 4
        got = streams.choices(streams.seed_keys(keys), sizes, 2, count)
        assert np.array_equal(got, numpy_choices(keys, sizes, 2, count))

    def test_natural_lemire_rejections_are_flagged(self):
        # near m = 3e9 about one word in three is rejected; those keys come from numpy
        keys = [(7, k, 0, 4) for k in range(200)]
        flagged = [replay_flags(key, 3_000_000_000, 3, 2) for key in keys]
        assert 0 < sum(flagged) < len(keys)
        got = streams.choices(streams.seed_keys(keys), 3_000_000_000, 3, 2)
        assert np.array_equal(got, numpy_choices(keys, 3_000_000_000, 3, 2))

    def test_hand_made_rejection_word_is_flagged(self):
        # word 4: last Floyd draw, from [0, 9]: 0 * 10 leaves 0 < 2**32 % 10 = 6; word 7:
        # the shuffle's swap from [0, 2], which the sorted replay skips but still checks
        for at in (4, 7):
            words = streams.words(streams.seed_keys([(1, 2, 3, 4)] * 2), 9).T.copy()
            words[at, 1] = 0
            assert streams.choice(words, 10, 5)[1].tolist() == [False, True]

    @settings(max_examples=120, deadline=None)
    @given(seed=st.one_of(words32, st.integers(2**32, 2**70)), n_keys=st.integers(1, 5),
           count=st.integers(1, 4), b=st.one_of(st.integers(1, 6), st.just(201)),
           data=st.data())
    def test_sorted_draws_equal_numpy(self, seed, n_keys, count, b, data):
        # b = 201 with m > 10 000 takes numpy's tail-shuffle branch
        size = st.integers(b, b + 4) | (st.integers(10_001, 10_100) if b == 201 else st.nothing())
        sizes = np.array(data.draw(st.lists(size, min_size=n_keys, max_size=n_keys)))
        keys = [(seed, j) for j in range(n_keys)]
        real = streams.words
        target = data.draw(st.integers(0, n_keys - 1))
        per = 2 * b - 1 - (sizes[target] == b)
        draw = data.draw(st.integers(0, count - 1))
        # the shuffle's swap from [0, 2] in that draw (b >= 3), where numpy rejects a 0
        at = int(draw * per + 2 * b - 3 - (sizes[target] == b))

        def with_rejection(block, n):
            # the target's stream as if numpy had drawn a rejected 0 before word ``at``
            words = real(block, n).copy()
            for row in np.flatnonzero(block.rows[:, -1] == target):
                words[row, at + 1:] = words[row, at:-1].copy()
                words[row, at] = 0
            return words
        with pytest.MonkeyPatch.context() as mp:
            if b >= 3:
                mp.setattr(streams, "words", with_rejection)
            got = streams.choices(streams.seed_keys(streams.key_rows(seed, np.arange(n_keys))),
                                  sizes, b, count)
        for key, m, rows in zip(keys, sizes.tolist(), got):
            rng = np.random.default_rng(list(key))
            want = [rng.choice(m, b, replace=False) for _ in range(count)]
            assert np.array_equal(rows, np.sort(want, axis=1))

    @pytest.mark.parametrize("m, b, tail", [(10_001, 201, True), (10_001, 200, False),
                                            (10_000, 5000, False), (60_000, 1201, True)])
    def test_tail_shuffle_branch_is_flagged(self, m, b, tail):
        assert replay_flags((3, 0, 0, 1), m, b, 1) == tail
        assert np.array_equal(streams.choices(streams.seed_keys([(3, 0, 0, 1)]), m, b, 1),
                              numpy_choices([(3, 0, 0, 1)], m, b, 1))

    @pytest.mark.parametrize("m, wide", [(2**32, False), (2**32 + 5, True), (2**40, True)])
    def test_populations_above_2_32_are_flagged(self, m, wide):
        # numpy draws from [0, j] with 64-bit words once j >= 2**32; j = 2**32 - 1 takes
        # one 32-bit word unchanged, which the replay's Lemire step reproduces
        assert replay_flags((1, 2, 3, 4), m, 3, 2) == wide
        assert np.array_equal(streams.choices(streams.seed_keys([(1, 2, 3, 4)]), m, 3, 2),
                              numpy_choices([(1, 2, 3, 4)], m, 3, 2))

    @pytest.mark.parametrize("bad_draw", [0, 4, 8])
    def test_numpy_takes_over_from_a_rejection(self, monkeypatch, bad_draw):
        # one key's 9 draws of choice(13, 5), 9 words each, read in one words call though
        # they outnumber _ROWS; a rejection in any draw redraws the whole key from numpy
        keys = [(4, 0x516)]
        real_words, real_rng, calls, redrawn = streams.words, np.random.default_rng, [], []

        def with_rejection(keys, n):
            words = real_words(keys, n).copy()
            words[0, 9 * bad_draw] = 0  # its first Floyd draw, from [0, 8]: 0 < 2**32 % 9 = 4
            calls.append(n)
            return words

        def spy(key):
            redrawn.append(tuple(key))
            return real_rng(key)
        monkeypatch.setattr(streams, "words", with_rejection)
        monkeypatch.setattr(streams, "_ROWS", 3)
        monkeypatch.setattr(np.random, "default_rng", spy)
        got = streams.choices(streams.seed_keys(keys), 13, 5, 9)
        monkeypatch.undo()
        assert calls == [82]  # 81 words, made even
        assert redrawn == keys  # the whole key, from its first draw
        assert np.array_equal(got, numpy_choices(keys, 13, 5, 9))


def word_with_low(excl: int, low: int) -> int:
    """A uint32 word whose product with ``excl`` has low word ``low`` rounded down to a
    multiple of the largest power of two dividing excl (the low words excl can reach)."""
    shift = (excl & -excl).bit_length() - 1
    mod = 2 ** (32 - shift)
    return (low >> shift) * pow(excl >> shift, -1, mod) % mod


# excl = 641 and 6 700 417 divide 2**32 + 1, so their threshold is excl - 1, its largest
excls = st.integers(1, 2**32) | st.sampled_from([1, 2, 3, 641, 6_700_417, 2**16, 2**31 - 1,
                                                 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32])


class TestLemire:
    """_lemire's rejection mask, which runs numpy's test only on low words below excl,
    and _swap_rejected's, which runs it on wrapping uint32 products, against that test
    on every word: low < (2**32 - excl) % excl."""

    @staticmethod
    def full_test(word, excl):
        prod = word.astype(np.uint64) * excl
        return prod, (prod & np.uint64(2**32 - 1)) < (np.uint64(2**32) - excl) % excl

    def assert_equals_the_full_test(self, word, excl):
        """_lemire's draws and rejections, ``excl`` of ``word``'s shape."""
        prod, full = self.full_test(word, excl)
        draws, rejected = streams._lemire(word, excl)
        assert np.array_equal(rejected, full)
        assert np.array_equal(draws, (prod >> np.uint64(32)).astype(np.int64))
        return int(full.sum())

    def assert_swap_mask_equals_the_full_test(self, word):
        """_swap_rejected's rejections of (b - 1, n) swap words, row i from [0, b - i)."""
        _, full = self.full_test(word, np.arange(len(word) + 1, 1, -1, dtype=np.uint64)[:, None])
        assert np.array_equal(streams._swap_rejected(word), full)
        return int(full.sum())

    @settings(max_examples=200, deadline=None)
    @given(b=st.integers(2, 6), n=st.integers(1, 5), picks=st.booleans(), data=st.data())
    def test_rejections_equal_the_full_test(self, b, n, picks, data):
        # the pick shape: (b, n) words, one excl each, through _lemire; the swap shape:
        # (b - 1, n) words, row i's excl b - i, through _swap_rejected. Low words at and
        # around excl - 1, excl, the threshold - 1 and the threshold, or any word
        shape = (b, n) if picks else (b - 1, n)
        if picks:
            excl = np.array(data.draw(st.lists(excls, min_size=b * n, max_size=b * n)),
                            dtype=np.uint64).reshape(shape)
        else:
            excl = np.repeat(np.arange(b, 1, -1, dtype=np.uint64)[:, None], n, axis=1)
        word = np.empty(shape, dtype=np.uint32)
        for (q, j), cell in np.ndenumerate(word):
            e = int(excl[q, j])
            target = data.draw(st.sampled_from([e - 1, e, (2**32 - e) % e - 1, (2**32 - e) % e]))
            low = min(max(target + data.draw(st.integers(-1, 1)), 0), 2**32 - 1)
            word[q, j] = data.draw(st.just(word_with_low(e, low)) | words32)
        if picks:
            self.assert_equals_the_full_test(word, excl)
        else:
            self.assert_swap_mask_equals_the_full_test(word)

    def test_every_threshold_edge_is_decided_alike(self):
        # each edge excl, as a row and as a column of picks, at each low word around its
        # two edges; then every swap excl 2..64, at its edges and on random words
        edges = [1, 2, 3, 641, 6_700_417, 2**16, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30,
                 2**32 - 1, 2**32]

        def edge_lows(e):
            t = (2**32 - e) % e
            return sorted({min(max(x, 0), 2**32 - 1)
                           for c in (e - 1, e, t - 1, t) for x in (c - 1, c, c + 1)})

        rejected = 0
        for e in edges:
            word = np.array([[word_with_low(e, low) for low in edge_lows(e)]], dtype=np.uint32)
            rejected += self.assert_equals_the_full_test(word, np.full(word.shape, e,
                                                                        dtype=np.uint64))
            rejected += self.assert_equals_the_full_test(word.T.copy(), np.full(
                word.T.shape, e, dtype=np.uint64))
        assert rejected > 0
        rng = np.random.default_rng(0)
        word = rng.integers(0, 2**32, (63, 20_000), dtype=np.uint32)  # swap rows, excl 64..2
        for i, e in enumerate(range(64, 1, -1)):
            lows = edge_lows(e)
            word[i, :len(lows)] = [word_with_low(e, low) for low in lows]
        assert self.assert_swap_mask_equals_the_full_test(word) > 0


def test_outputs_equal_with_every_key_drawn_by_numpy(tmp_path, monkeypatch, capsys):
    # with numpy's own Generators in place of streams' choices and normals, every
    # caller's draws come from numpy, one Generator per key
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
    monkeypatch.setattr(streams, "choices", numpy_choices)
    monkeypatch.setattr(streams, "normals", numpy_normals)
    assert outputs() == replayed
