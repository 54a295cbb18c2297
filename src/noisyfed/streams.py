"""numpy's keyed streams, replayed for many keys at once and bit-identical to numpy.

A stream keyed by a list of ints is ``np.random.default_rng(key)``: a PCG64
seeded through a SeedSequence. The SeedSequence hash (a pool of four uint32
words, then ``generate_state(4, uint64)``) runs for all keys together, and
``pcg64_states`` gives each key's PCG64 ``(state, inc)`` as its seeding
computes them. ``words`` gives each key's first uint32 words in the order a
Generator consumes them: the low half of each 64-bit output, then the high
half. ``choice`` replays ``Generator.choice(m, b, replace=False)`` on such
words: Floyd's algorithm with Lemire bounded integers, then the
Fisher-Yates shuffle of the b picks. It works on (b, N) columns, one
contiguous row per pick, so a larger call spreads numpy's cost per operation
over more draws, until its arrays outgrow the cache: per draw, 2 048 draws
per call (``_ROWS``) cost a third of 256 and less than 4 096. Callers that
sort the picks skip the shuffle, whose order they would discard.

``choices`` and ``generators`` are what the rest of the package calls, and
they return numpy's own draws and Generators for every key. Where the
replay cannot be exact they take them from numpy itself, so no caller ever
decides between the two: a key word of 2**32 or more (numpy hashes it as
two words), a Lemire rejection (it takes one more word than the replay
budgets; about one draw in 2**32 / m), numpy's tail-shuffle branch
(m > 10 000 and b > m // 50), and a population m > 2**32 (numpy draws its
picks from 64-bit words).
"""

from __future__ import annotations

import numpy as np

WORD_LIMIT = 1 << 32  # keys with a word at or above this are not replayed
_ROWS = 2048  # draws replayed per choice call

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array; returns it and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def replayable(keys) -> bool:
    """Whether every word of ``keys`` is below WORD_LIMIT."""
    return int(np.max(keys, initial=0)) < WORD_LIMIT


def _seed_words(keys) -> np.ndarray:
    """(N, 4) uint64: ``SeedSequence(key).generate_state(4, np.uint64)`` for each
    row of ``keys``, which is (N, L) with 1 <= L <= 4 and every word in [0, 2**32)."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2 or not 1 <= keys.shape[1] <= _POOL or keys.min(initial=0) < 0 \
            or not replayable(keys):
        raise ValueError("keys must be (N, L), 1 <= L <= 4, words in [0, 2**32)")
    const, pool = _INIT_A, []
    for i in range(_POOL):
        word = keys[:, i].astype(np.uint32) if i < keys.shape[1] \
            else np.zeros(len(keys), np.uint32)
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const, state = _INIT_B, []
    for i in range(2 * _POOL):
        word, const = _hash(pool[i % _POOL], const, _MULT_B)
        state.append(word.astype(np.uint64))
    # little-endian pairs of uint32 words make each uint64
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], 1)


def _pcg64_state(seed_words) -> tuple:
    """PCG64's (state, inc) from one key's four seed words: its seeding takes
    them as the (high, low) halves of a 128-bit state and increment."""
    s_hi, s_lo, q_hi, q_lo = seed_words
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def pcg64_states(keys) -> list:
    """(state, inc) of ``np.random.default_rng(key).bit_generator`` for each row of ``keys``."""
    return [_pcg64_state(row) for row in _seed_words(keys).tolist()]


def _state_dict(state) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state[0], "inc": state[1]},
            "has_uint32": 0, "uinteger": 0}


def generators(keys):
    """A function j -> a Generator in the state of ``np.random.default_rng(keys[j])``.

    Every call reseeds and returns the same Generator, so a draw must be
    taken before the next call. Keys with a word of 2**32 or more get
    numpy's own ``default_rng``, one per call.
    """
    replay = _replay_keys(keys)
    if replay is None:
        return lambda j: np.random.default_rng(list(keys[j]))
    seeds = _seed_words(replay)
    gen = np.random.Generator(np.random.PCG64(0))

    def seeded(j: int) -> np.random.Generator:
        gen.bit_generator.state = _state_dict(_pcg64_state(seeds[j].tolist()))
        return gen
    return seeded


def words(keys, n: int, start: int = 0) -> np.ndarray:
    """(N, n) uint32: words start .. start + n - 1 of those each key's Generator consumes."""
    states = pcg64_states(keys)
    bitgen = np.random.PCG64(0)
    lead = start % 2
    raw = np.empty((len(states), (lead + n + 1) // 2), dtype="<u8")
    for row, state in enumerate(states):
        bitgen.state = _state_dict(state)
        if start > 1:
            bitgen.advance(start // 2)
        raw[row] = bitgen.random_raw(raw.shape[1])
    return raw.view("<u4")[:, lead:lead + n]


def _lemire(word, bound):
    """Lemire's bounded draw in [0, bound] from uint32 words, and where numpy would reject."""
    excl = np.asarray(bound, dtype=np.uint64) + np.uint64(1)
    prod = word.astype(np.uint64) * excl
    rejected = (prod & np.uint64(_MASK32)) < (np.uint64(WORD_LIMIT) - excl) % excl
    return (prod >> np.uint64(32)).astype(np.int64), rejected


def choice(words, m, b: int, sort: bool = False):
    """Replay ``Generator.choice(m_i, b, replace=False)`` from each row of ``words``.

    ``words`` is (N, >= 2b - 1) uint32 starting at the row's first draw; ``m``
    is one population size or one per row, each >= b. Returns the (N, b)
    int64 picks, in increasing order with ``sort``, and an (N,) mask of rows
    the replay cannot reproduce: a Lemire rejection, numpy's tail-shuffle
    branch, or m > 2**32, where numpy draws from 64-bit words. The replay
    runs on (b, N) columns, so every step reads whole contiguous rows; the
    duplicate test costs O(b^2) per row. ``sort`` skips the Fisher-Yates
    shuffle, whose order sorting discards, but still checks its words for
    rejections: a rejected word shifts every later draw.
    """
    n = len(words)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), (n,))
    if b < 1 or (m < b).any() or words.shape[1] < 2 * b - 1:
        raise ValueError("need 1 <= b <= m and 2b - 1 words per row")
    cols = np.ascontiguousarray(words[:, :2 * b - 1].T)
    skip = m == b
    if skip.any():  # numpy draws nothing from [0, 0], so such a row's words come one later
        cols = np.where(skip, np.concatenate([cols[:1], cols[:-1]]), cols)
    # Floyd draws pick q from [0, j_q], j_q = m - b + q; then Fisher-Yates swaps
    # pick i with one from [0, i], for i = b - 1 down to 1
    j = m - b + np.arange(b)[:, None]
    picks, rejected = _lemire(cols[:b], j)
    swaps, rejected_swap = _lemire(cols[b:], np.arange(b - 1, 0, -1)[:, None])
    bad = (m > 10_000) & (b > m // 50) | (m > WORD_LIMIT) | rejected.any(axis=0) \
        | rejected_swap.any(axis=0)
    for q in range(1, b):  # a value already picked becomes j_q
        np.copyto(picks[q], j[q], where=(picks[:q] == picks[q]).any(axis=0))
    if sort:
        picks.sort(axis=0)
        return picks.T, bad
    flat, at = picks.reshape(-1), swaps * n + np.arange(n)  # flat index of each swap's pick
    for q, i in enumerate(range(b - 1, 0, -1)):
        held = flat.take(at[q])
        flat.put(at[q], picks[i])
        picks[i] = held
    return picks.T, bad


def _replay_keys(keys):
    """``keys`` as one (N, L) int64 array, or None if a word is 2**32 or more."""
    try:
        keys = np.asarray(keys, dtype=np.int64)
    except OverflowError:  # a word of 2**63 or more
        return None
    return keys if replayable(keys) else None


def choices(keys, m, b: int, count: int, sort: bool = False) -> np.ndarray:
    """``count`` successive ``choice(m, b, replace=False)`` of each key's stream.

    Returns (N, count, b) int64: ``np.random.default_rng(key)``'s own draws
    for every key, each draw's picks in increasing order with ``sort``. ``m``
    is one population size, one per key (N,) or one per draw (N, count),
    each >= b. Each ``choice`` call replays up to _ROWS draws: a block of
    _ROWS // count keys, or one key's draws _ROWS at a time, from words
    taken for just those draws. A key the replay cannot reproduce, in any of
    its draws (every later draw of a stream depends on the words the earlier
    ones took), is drawn from numpy itself, and so are all keys when one has
    a word of 2**32 or more.
    """
    n = len(keys)
    m = np.asarray(m, dtype=np.int64)
    m = np.broadcast_to(m if m.ndim == 2 else m.reshape(-1, 1), (n, count))
    out = np.zeros((n, count, b), dtype=np.int64)
    replay = _replay_keys(keys)
    bad = np.full(n, replay is None)
    if replay is not None:
        # words per draw: b for Floyd (b - 1 when m == b: numpy draws nothing
        # from [0, 0]) and b - 1 for the shuffle
        per = 2 * b - 1 - (m == b)
        starts = np.cumsum(per, axis=1) - per
        nkeys, ndraws = max(1, _ROWS // count), min(count, _ROWS)
        # a draw with m == b leaves its last word unread
        window = np.arange(2 * b - 1)[:, None, None]
        for lo in range(0, n, nkeys):
            block = slice(lo, lo + nkeys)
            keyrows = np.arange(len(replay[block]))[:, None]
            for c0 in range(0, count, ndraws):
                draws = slice(c0, c0 + ndraws)
                at = starts[block, draws]
                first = int(at[:, 0].min())
                stream = words(replay[block], int(at[:, -1].max()) + 2 * b - 1 - first, first)
                cols = stream[keyrows, at - first + window].reshape(2 * b - 1, -1)
                picks, bad_w = choice(cols.T, m[block, draws].ravel(), b, sort)
                out[block, draws] = picks.reshape(at.shape + (b,))
                bad[block] |= bad_w.reshape(at.shape).any(axis=1)
    for i in np.flatnonzero(bad):
        rng = np.random.default_rng(list(keys[i]))
        out[i] = [rng.choice(size, b, replace=False) for size in m[i].tolist()]
        if sort:
            out[i].sort(axis=1)
    return out
