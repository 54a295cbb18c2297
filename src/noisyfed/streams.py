"""numpy's keyed streams, replayed for many keys at once and bit-identical to numpy.

A stream keyed by a list of ints is ``np.random.default_rng(key)``: a PCG64
seeded through a SeedSequence, which hashes the ints as one row of uint32
words, each low word first. Here a key is that row (``key_rows`` builds
them), so a seed of any size replays.

Keys are seeded once, by the caller: ``seed_keys`` runs the SeedSequence
hash for all of a key set's rows together, and PCG64's seeding, one 128-bit
multiply-add per key on uint64 limbs (``_limbs``). That pass costs about
the same for a hundred keys as for a few thousand, so a caller seeds all
the keys it knows at once and slices the ``SeededKeys`` it gets; the
round loop's draws take two passes per seed, one for the cohorts and one
for the batch and noise keys that name the cohorts' clients. ``words``,
``normals`` and ``choices`` take ``SeededKeys``; they read the key rows
only to hand a key to numpy itself.

``words`` and ``normals`` put one private PCG64 in each key's state in turn
and draw from it: ``words`` gives each key's first uint32 words in the
order a Generator consumes them (the low half of each 64-bit output, then
the high half), and ``normals`` its ``standard_normal(d)``. ``choice``
replays ``Generator.choice(m, b, replace=False)`` on such words, sorted,
which is the one form every caller uses: Floyd's algorithm with Lemire
bounded integers, then the picks sorted. numpy ends a draw with a
Fisher-Yates shuffle of the b picks; sorting discards its order, so it is
not replayed, but its b - 1 swap words are still checked for Lemire
rejections, because a rejected word makes numpy take one more and shifts
every later draw of the stream. ``choice`` works on (2b - 1, N) columns,
one contiguous row per pick or swap, which ``choices`` gathers in one step
from one ``words`` read per block of keys; a larger call spreads numpy's
cost per operation over more draws, until its arrays outgrow the cache:
per draw, 2 048 draws per call (``_ROWS``) cost a third of 256 and less
than 4 096.

Lemire's draw from [0, excl) takes the high word of word * excl and
rejects the word when the product's low word is below
(2**32 - excl) % excl. That threshold is a remainder modulo excl, so it is
below excl, and a low word of excl or more is never rejected. ``_lemire``
therefore computes the modulo only for low words below excl, about one in
2**32 / excl, and decides every other word without it: the same decisions
as the full test. A swap word needs only the test, and ``_swap_rejected``
runs it on wrapping uint32 products, without the draw.

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
from dataclasses import dataclass

import numpy as np

WORD_LIMIT = 1 << 32  # every key word is below this
_ROWS = 2048  # draws replayed per choice call, unless one key has more

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


@dataclass(frozen=True)
class SeededKeys:
    """Key rows and the PCG64 state each one seeds: ``rows`` (N, L) int64 as
    ``key_rows`` builds them, kept for numpy's own draws where the replay
    cannot reproduce one, and ``limbs`` (N, 4) uint64 as ``_limbs`` computes
    them. Indexing takes the same rows of both."""
    rows: np.ndarray
    limbs: np.ndarray

    def __len__(self) -> int:
        return len(self.limbs)

    def __getitem__(self, index) -> SeededKeys:
        return SeededKeys(self.rows[index], self.limbs[index])


def seed_keys(keys) -> SeededKeys:
    """``keys``, (N, L) with L >= 1 and every word in [0, 2**32), with their PCG64
    states: one SeedSequence hash and one seeding pass for all N rows."""
    keys = np.asarray(keys, dtype=np.int64)
    return SeededKeys(keys, _limbs(_seed_words(keys)))


def _states(limbs):
    """For each row of ``limbs`` in turn, _BITGEN in that PCG64 state; the next
    step reseeds it.

    Each state is one 32-byte write where the layout check passed, and the
    dict setter where it did not.
    """
    seat, raw = _state_seat(), limbs.tobytes()
    for j in range(len(limbs)):
        if seat is None:
            _BITGEN.state = _state_dict(limbs[j])
        else:
            seat[:] = raw[32 * j:32 * j + 32]
        yield _BITGEN


def normals(keys: SeededKeys, d: int) -> np.ndarray:
    """(N, d) float64: ``np.random.default_rng(key).standard_normal(d)`` for each key."""
    out = np.empty((len(keys), d))
    draw = _GEN.standard_normal
    for row, _ in zip(out, _states(keys.limbs)):
        draw(out=row)
    return out


def words(keys: SeededKeys, n: int) -> np.ndarray:
    """(N, n) uint32: the first n words each key's Generator consumes."""
    raw = np.empty((len(keys), (n + 1) // 2), dtype="<u8")
    for row, bitgen in zip(raw, _states(keys.limbs)):
        row[:] = bitgen.random_raw(len(row))
    return raw.view("<u4")[:, :n]


def _lemire(word, excl):
    """Lemire's bounded draw in [0, excl) from uint32 words, and where numpy would
    reject; ``excl`` is uint64, of ``word``'s shape.

    The draw is the high word of the 64-bit product word * excl. numpy rejects
    a word whose low product word is below (2**32 - excl) % excl. That
    threshold is below excl, so only a low word below excl can be rejected,
    and the modulo runs on those candidates alone.
    """
    prod = word.astype("<u8")
    prod *= excl
    halves = prod.view("<u4")  # each product's low word, then its high word
    low = halves[..., 0::2]
    rejected = low < excl
    if rejected.any():
        at = np.nonzero(rejected)
        cand = excl[at]
        rejected[at] = low[at] < (np.uint64(WORD_LIMIT) - cand) % cand
    return halves[..., 1::2].astype(np.int64), rejected


def _swap_rejected(words):
    """numpy's Lemire rejections of the shuffle's (b - 1, N) uint32 swap ``words``, row
    i from [0, b - i), on wrapping uint32 products: no 64-bit product, no draw."""
    excl = range(len(words) + 1, 1, -1)
    thresh = np.array([(WORD_LIMIT - e) % e for e in excl], dtype=np.uint32)[:, None]
    return words * np.array(excl, dtype=np.uint32)[:, None] < thresh


def choice(cols, m, b: int):
    """Replay ``np.sort(Generator.choice(m_i, b, replace=False))`` from each column
    of ``cols``.

    ``cols`` is (2b - 1, N) uint32, one column per draw: row q < b holds the
    word of Floyd pick q and row b + i that of the shuffle's swap i. (numpy
    takes no word for pick 0 when m == b, but such a draw's sorted picks are
    arange(b) whatever its column holds.) ``m`` is one population size or one
    per column, each >= b. Returns the (N, b) int64 picks in increasing
    order, and an (N,) mask of draws the replay cannot reproduce: a Lemire
    rejection, numpy's tail-shuffle branch, or m > 2**32, where numpy draws
    from 64-bit words. Every step reads whole contiguous rows; the duplicate
    test costs O(b^2) per draw. Sorting discards the shuffle's order, so the
    shuffle is not replayed, but its words are still checked for
    rejections: a rejected swap word makes numpy take one more word, which
    shifts every later draw of the stream.
    """
    n = cols.shape[1]
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), (n,))
    if b < 1 or (m < b).any() or len(cols) != 2 * b - 1:
        raise ValueError("need 1 <= b <= m and 2b - 1 words per draw")
    # Floyd draws pick q from [0, j_q], j_q = m - b + q; the Fisher-Yates shuffle
    # then draws swap i from [0, i], for i = b - 1 down to 1
    lift = m - b
    picks, rejected = _lemire(cols[:b], lift.astype(np.uint64)
                              + np.arange(1, b + 1, dtype=np.uint64)[:, None])
    bad = (m > 10_000) & (b > m // 50) | (m > WORD_LIMIT) | rejected.any(axis=0) \
        | _swap_rejected(cols[b:]).any(axis=0)
    for q in range(1, b):  # a value already picked becomes j_q
        np.copyto(picks[q], lift + q, where=(picks[:q] == picks[q]).any(axis=0))
    picks.sort(axis=0)
    return picks.T, bad


def choices(keys: SeededKeys, m, b: int, count: int) -> np.ndarray:
    """``count`` successive ``choice(m, b, replace=False)`` of each key's stream,
    each sorted.

    Returns (N, count, b) int64: ``np.random.default_rng(key)``'s own draws
    for every key, each draw's picks in increasing order. ``m`` is one
    population size or one per key (N,), each >= b. Each ``choice`` call
    replays a block of max(1, _ROWS // count) keys, from one ``words`` read
    of all of their draws gathered in one step into ``choice``'s columns; a
    key with more than _ROWS draws is a block of its own. Every draw is read
    as 2b - 1 words. numpy takes one fewer when m == b (none for pick 0, from
    [0, 0]), but then every draw of the key is arange(b) once sorted, whatever
    words it reads. A key the replay cannot reproduce, in any of its draws
    (every later draw of a stream depends on the words the earlier ones
    took), is drawn from numpy itself.
    """
    n = len(keys)
    m = np.broadcast_to(np.asarray(m, dtype=np.int64), (n,))
    out = np.empty((n, count, b), dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    nkeys, per = max(1, _ROWS // count), 2 * b - 1
    span = count * per
    span += span % 2  # an even word count keeps each block's words one contiguous array
    # word q of a key's draw c is word c * per + q of the key's row
    window, draws = np.arange(per)[:, None], per * np.arange(count)
    for lo in range(0, n, nkeys):
        block = slice(lo, lo + nkeys)
        stream = words(keys[block], span)
        base = (draws + span * np.arange(len(stream))[:, None]).ravel()
        cols = stream.reshape(-1).take(window + base)
        picks, bad_w = choice(cols, np.repeat(m[block], count), b)
        out[block] = picks.reshape(-1, count, b)
        bad[block] = bad_w.reshape(-1, count).any(axis=1)
    for i in np.flatnonzero(bad):
        rng = np.random.default_rng(keys.rows[i].tolist())
        out[i] = [rng.choice(int(m[i]), b, replace=False) for _ in range(count)]
        out[i].sort(axis=1)
    return out
