"""numpy's keyed streams, replayed for many keys at once and bit-identical to numpy.

A stream keyed by a list of ints is ``np.random.default_rng(key)``: a PCG64
seeded through a SeedSequence, which hashes the ints as one row of uint32
words, each low word first. Here a key is that row (``key_rows`` builds
them), so a seed of any size replays. The SeedSequence hash runs for all
keys together, and so does PCG64's seeding, one 128-bit multiply-add per
key on uint64 limbs (``_limbs``). ``words`` and ``normals`` then put one
private PCG64 in each key's state in turn and draw from it: ``words`` gives
each key's first uint32 words in the order a Generator consumes them (the
low half of each 64-bit output, then the high half), and ``normals`` its
``standard_normal(d)``. ``choice`` replays
``Generator.choice(m, b, replace=False)`` on such words: Floyd's algorithm
with Lemire bounded integers, then the Fisher-Yates shuffle of the b picks.
It works on (b, N) columns, one contiguous row per pick, so a larger call
spreads numpy's cost per operation over more draws, until its arrays
outgrow the cache: per draw, 2 048 draws per call (``_ROWS``) cost a third
of 256 and less than 4 096. Callers that sort the picks skip the shuffle,
whose order they would discard.

Setting a key's state is one 32-byte write of its limbs (state lo, state
hi, inc lo, inc hi) into the PCG64's ``pcg64_random_t``, through a
memoryview of it; its address is the first field of the struct that
``bit_generator.ctypes.state_address`` points to. numpy documents that
``ctypes`` interface
(https://numpy.org/doc/stable/reference/random/extending.html), but not the
struct behind it: the pointer field, and 128-bit ints stored low half
first, as a little-endian build with a native 128-bit type stores them,
are numpy internals. So at first use ``_checked_seat`` sets a known state
through the dict setter and reads its 32 bytes back, then writes one key's
limbs and compares the draws with numpy's. If any check fails, the same
loop sets each key's state through the dict setter instead, at about 2 us
more per key.

``choices`` and ``normals`` are what the rest of the package calls, and
they return numpy's own draws for every key. ``normals`` always replays.
Where a ``choice`` draw cannot be replayed exactly, ``choices`` takes that
key's draws from numpy itself, so no caller ever decides between the two:
a Lemire rejection (it takes one more word than the replay budgets; about
one draw in 2**32 / m), numpy's tail-shuffle branch (m > 10 000 and
b > m // 50), and a population m > 2**32 (numpy draws its picks from 64-bit
words). ``words`` and ``normals`` share the one PCG64, so they are not safe
to call from several threads at once.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

WORD_LIMIT = 1 << 32  # every key word is below this
_ROWS = 2048  # draws replayed per choice call

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_MASK32 = (1 << 32) - 1
# PCG64's 128-bit multiplier in 64-bit limbs, and the uint64 shift and mask constants
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_1, _32, _63, _LO32 = np.uint64(1), np.uint64(32), np.uint64(63), np.uint64(_MASK32)
_CHECK_KEYS = [(2**32 - 1, 2**32 - 1, 1, 2), (7, 0, 3, 2**32 - 2)]  # the layout check's keys

# the one PCG64 that ``words`` and ``normals`` seed per key; they take only 64-bit
# outputs from it, so its buffered 32-bit half stays empty and a state write keeps it so
_BITGEN = np.random.PCG64(0)
_GEN = np.random.Generator(_BITGEN)


def _hash(value, const: int, mult: int):
    """SeedSequence's hashmix of a uint32 array; returns it and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def key_rows(seed: int, *columns) -> np.ndarray:
    """(N, L) int64 keys: ``seed``'s 32-bit words, low word first, then one word
    from each of ``columns``, broadcast against each other (N = 1 when all are
    scalars). Row j is what SeedSequence hashes for ``[seed, *(c[j] for c in
    columns)]``, so it seeds like ``np.random.default_rng`` of that list; column
    values must lie in [0, 2**32)."""
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    return np.stack([c.ravel() for c in np.broadcast_arrays(*words, *columns)], axis=1,
                    dtype=np.int64)


def _seed_words(keys) -> np.ndarray:
    """(N, 4) uint64: ``SeedSequence(key).generate_state(4, np.uint64)`` for each
    row of ``keys``, which is (N, L) with L >= 1 and every word in [0, 2**32).

    The first four words (zeros past L) fill the pool, which is mixed within
    itself; then each later word is hashed into every pool word in turn."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2 or keys.shape[1] < 1 or keys.min(initial=0) < 0 \
            or keys.max(initial=0) >= WORD_LIMIT:
        raise ValueError("keys must be (N, L), L >= 1, words in [0, 2**32)")
    cols = np.ascontiguousarray(np.pad(keys, ((0, 0), (0, max(0, _POOL - keys.shape[1])))).T,
                                dtype=np.uint32)
    const, pool = _INIT_A, []
    for word in cols[:_POOL]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    for src in range(len(cols)):  # pool words into each other, then later words into all
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src] if src < _POOL else cols[src], const, _MULT_A)
                mixed = _MIX_L * pool[dst] - _MIX_R * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const, state = _INIT_B, []
    for i in range(2 * _POOL):
        word, const = _hash(pool[i % _POOL], const, _MULT_B)
        state.append(word.astype(np.uint64))
    # little-endian pairs of uint32 words make each uint64
    return np.stack([state[2 * j] | state[2 * j + 1] << np.uint64(32) for j in range(4)], 1)


def _mul_hi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 values, from 32-bit halves."""
    a0, a1, b0, b1 = a & _LO32, a >> _32, b & _LO32, b >> _32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def _limbs(seed_words) -> np.ndarray:
    """(N, 4) uint64: (state lo, state hi, inc lo, inc hi) of each key's PCG64.

    PCG64's seeding takes a key's four seed words as the (high, low) halves
    of a 128-bit s and q and sets inc = 2q + 1 and state = (inc + s) * MULT
    + inc, mod 2**128; here on 64-bit limbs, with the carries made explicit.
    """
    s_hi, s_lo, q_hi, q_lo = seed_words.T
    inc_lo = q_lo << _1 | _1
    inc_hi = q_hi << _1 | q_lo >> _63
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    out = np.empty((len(seed_words), 4), dtype=np.uint64)
    out[:, 0] = t_lo * _PCG_MULT_LO + inc_lo
    out[:, 1] = _mul_hi(t_lo, _PCG_MULT_LO) + t_lo * _PCG_MULT_HI + t_hi * _PCG_MULT_LO \
        + inc_hi + (out[:, 0] < inc_lo)
    out[:, 2], out[:, 3] = inc_lo, inc_hi
    return out


def _state_dict(limbs) -> dict:
    lo, hi, inc_lo, inc_hi = (int(x) for x in limbs)
    return {"bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}


def _checked_seat(bitgen):
    """A writable view of the 32 bytes of ``bitgen``'s pcg64_random_t if a key's
    four limbs written there seed it like ``np.random.default_rng(key)``, else None.

    Its address is the first field of the struct ``bitgen.ctypes.state_address``
    points to. It must lie inside ``bitgen`` itself, so nothing outside the
    object is read; a state set through the dict setter must read back as its
    limbs; and a key's limbs written there must draw numpy's own words.
    """
    try:
        address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    except AttributeError:  # a numpy without the ctypes interface
        return None
    start = id(bitgen)
    if address is None or not start <= address <= start + type(bitgen).__basicsize__ - 32:
        return None
    seat = memoryview((ctypes.c_char * 32).from_address(address)).cast("B")
    known, key = _limbs(_seed_words(_CHECK_KEYS))
    bitgen.state = _state_dict(known)
    if seat.tobytes() != known.tobytes():
        return None
    seat[:] = key.tobytes()
    expected = np.random.default_rng(list(_CHECK_KEYS[1])).bit_generator.random_raw(3)
    return seat if np.array_equal(bitgen.random_raw(3), expected) else None


@functools.cache
def _state_seat():
    """_checked_seat of the one PCG64 that ``words`` and ``normals`` seed, checked once."""
    return _checked_seat(_BITGEN)


def _seeded(keys):
    """For each row of ``keys`` in turn, _BITGEN in the state of
    ``np.random.default_rng(key).bit_generator``; the next step reseeds it.

    Each state is one 32-byte write where the layout check passed, and the
    dict setter where it did not.
    """
    limbs = _limbs(_seed_words(keys))
    seat, raw = _state_seat(), limbs.tobytes()
    for j in range(len(limbs)):
        if seat is None:
            _BITGEN.state = _state_dict(limbs[j])
        else:
            seat[:] = raw[32 * j:32 * j + 32]
        yield _BITGEN


def normals(keys, d: int) -> np.ndarray:
    """(N, d) float64: ``np.random.default_rng(key).standard_normal(d)`` for each key row."""
    out = np.empty((len(keys), d))
    draw = _GEN.standard_normal
    for row, _ in zip(out, _seeded(keys)):
        draw(out=row)
    return out


def words(keys, n: int, start: int = 0) -> np.ndarray:
    """(N, n) uint32: words start .. start + n - 1 of those each key's Generator consumes."""
    lead = start % 2
    raw = np.empty((len(keys), (lead + n + 1) // 2), dtype="<u8")
    for row, bitgen in zip(raw, _seeded(keys)):
        if start > 1:
            bitgen.advance(start // 2)
        row[:] = bitgen.random_raw(len(row))
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


def choices(keys, m, b: int, count: int, sort: bool = False) -> np.ndarray:
    """``count`` successive ``choice(m, b, replace=False)`` of each key's stream.

    Returns (N, count, b) int64: ``np.random.default_rng(key)``'s own draws
    for every key row, each draw's picks in increasing order with ``sort``.
    ``m`` is one population size, one per key (N,) or one per draw
    (N, count), each >= b. Each ``choice`` call replays up to _ROWS draws: a
    block of _ROWS // count keys, or one key's draws _ROWS at a time, from
    words taken for just those draws. A key the replay cannot reproduce, in
    any of its draws (every later draw of a stream depends on the words the
    earlier ones took), is drawn from numpy itself.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    m = np.asarray(m, dtype=np.int64)
    m = np.broadcast_to(m if m.ndim == 2 else m.reshape(-1, 1), (n, count))
    out = np.zeros((n, count, b), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    # words per draw: b for Floyd (b - 1 when m == b: numpy draws nothing
    # from [0, 0]) and b - 1 for the shuffle
    per = 2 * b - 1 - (m == b)
    starts = np.cumsum(per, axis=1) - per
    nkeys, ndraws = max(1, _ROWS // count), min(count, _ROWS)
    # a draw with m == b leaves its last word unread
    window = np.arange(2 * b - 1)[:, None, None]
    for lo in range(0, n, nkeys):
        block = slice(lo, lo + nkeys)
        keyrows = np.arange(len(keys[block]))[:, None]
        for c0 in range(0, count, ndraws):
            draws = slice(c0, c0 + ndraws)
            at = starts[block, draws]
            first = int(at[:, 0].min())
            stream = words(keys[block], int(at[:, -1].max()) + 2 * b - 1 - first, first)
            cols = stream[keyrows, at - first + window].reshape(2 * b - 1, -1)
            picks, bad_w = choice(cols.T, m[block, draws].ravel(), b, sort)
            out[block, draws] = picks.reshape(at.shape + (b,))
            bad[block] |= bad_w.reshape(at.shape).any(axis=1)
    for i in np.flatnonzero(bad):
        rng = np.random.default_rng(keys[i].tolist())
        out[i] = [rng.choice(size, b, replace=False) for size in m[i].tolist()]
        if sort:
            out[i].sort(axis=1)
    return out
