"""NumPy's seeded random streams for a block of seeds, on core numpy.

For every seed of a block at once, `uniforms` returns the numbers that
NumPy's `default_rng(seed).random(count)` returns, and `Integers` the
numbers that `default_rng(seed).integers(0, n, count)` and the scalar
`integers(0, n)` calls after it return. `seeded` runs every seed of a
block through SeedSequence into a PCG64 state, NumPy's default bit
generator, in one array pass, and both draws read any rows of it. Output
k of a stream is a closed form in k and the stream's seeding, with jump
constants cached per k, so a draw is one (streams, k) array pass of
64-bit products; a stream read past its pass is passed again at twice
the length. NumPy's random package is never imported: it costs
milliseconds of start-up and megabytes of memory, and the tests hold it
as the oracle.
"""

from __future__ import annotations

import functools

import numpy as np

# SeedSequence hashing
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4  # pool words; a seed below 2**128 fills at most the pool

# PCG64: 128-bit LCG state, XSL-RR output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63 = (np.uint64(k) for k in (1, 11, 32, 58, 63))
_SPARE = 4  # Integers' outputs per stream beyond its first draws


def _integer(name: str, value) -> int:
    """value as an int. Raises ValueError unless it is an int or a NumPy
    integer; a bool is neither here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """value as a stream seed: an integer by the _integer rule, and not
    negative. Raises ValueError otherwise."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """Read-only init * mult**t mod 2**32 for t = 0 .. count, as a uint32
    column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values, consts):
    """SeedSequence's hashmix of `values` by consecutive hash constants:
    call t XORs in consts[t] and multiplies by consts[t + 1]."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ v >> _XSHIFT


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> _XSHIFT


def _pool(words) -> np.ndarray:
    """SeedSequence's mixed (4, B) pool from (L, B) uint32 entropy words,
    L >= 4, zero-padded per seed as SeedSequence's own loop pads them."""
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + _POOL * (len(words) - _POOL))
    pool = _hashmix(words[:_POOL], consts[:5])
    t = _POOL
    for src in range(_POOL):  # src's word stays fixed while it mixes into the rest
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[t : t + 4]))
        t += 3
    for word in words[_POOL:]:
        pool = _mix(pool, _hashmix(word, consts[t : t + 5]))
        t += _POOL
    return pool


def seeded(seeds) -> np.ndarray:
    """The PCG64 streams of a block of seeds, as a (4, B, 1) uint64 array
    of columns (init_hi, init_lo, inc_hi, inc_lo): each seed's initstate
    and odd increment initseq << 1 | 1, where SeedSequence(seed)
    .generate_state(4, uint64) is (initstate high, low, initseq high, low).
    Row b of each column is seeds[b]'s stream; uniforms and Integers draw
    from any selection of rows. Raises ValueError for a seed that is not a
    non-negative integer."""
    seeds = list(map(_seed, seeds))
    lengths = [max(_POOL, -(-s.bit_length() // 32)) for s in seeds]
    state = np.empty((8, len(seeds)), dtype=np.uint32)
    consts = _hash_consts(_INIT_B, _MULT_B, 8)
    for length in set(lengths):  # one pass per entropy length, nearly always 4
        group = [b for b, size in enumerate(lengths) if size == length]
        raw = b"".join(seeds[b].to_bytes(4 * length, "little") for b in group)
        words = np.frombuffer(raw, dtype="<u4").reshape(-1, length).T.astype(np.uint32)
        state[:, group] = _hashmix(_pool(words)[[0, 1, 2, 3, 0, 1, 2, 3]], consts)
    state = state.astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = state[::2] | state[1::2] << _U32
    inc = (seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1)
    return np.stack([init_hi, init_lo, *inc])[:, :, None]


@functools.lru_cache(maxsize=None)
def _jumps(count: int):
    """Read-only uint64 rows (a_hi, a_lo, c_hi, c_lo) over k = 1 .. count:
    output k's state is a * initstate + c * inc mod 2**128, with
    a = MULT**(k+1) and c = the sum of MULT**i over i < k + 2, so row
    k + 1 is (a * MULT, c * MULT + 1) mod 2**128."""
    a, c = _PCG_MULT**2 & _MASK128, (1 + _PCG_MULT + _PCG_MULT**2) & _MASK128
    rows = bytearray()  # a then c per k, 32 big-endian bytes
    for _ in range(count):
        rows += (a << 128 | c).to_bytes(32, "big")
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    table = np.frombuffer(rows, dtype=">u8").reshape(-1, 4).T.astype(np.uint64, order="C")
    table.flags.writeable = False
    return table


def _mul_add(a_hi, a_lo, x_hi, x_lo, hi, lo, t, u):
    """hi:lo += a * x mod 2**128 in place, for (K,) uint64 rows a and
    (B, 1) columns x; t and u are (B, K) scratch. uint64 products wrap mod
    2**64, so only the high word of a_lo * x_lo needs 32-bit halves: with
    p = a0 * x1 + (a0 * x0 >> 32) and q = a1 * x0 + (p mod 2**32), neither
    of which overflows, it is a1 * x1 + (p >> 32) + (q >> 32). q is formed
    as the wrapped a1 * x0 + p, whose high half exceeds q's by p >> 32."""
    a0, a1 = a_lo & _LOW32, a_lo >> _U32
    x0, x1 = x_lo & _LOW32, x_lo >> _U32
    np.multiply(a0, x0, out=t)
    t >>= _U32
    t += np.multiply(a0, x1, out=u)  # p
    np.multiply(a1, x0, out=u)
    u += t
    t >>= _U32
    u >>= _U32
    u -= t
    u &= _LOW32  # q >> 32
    hi += t
    hi += u
    for product in ((a1, x1), (a_hi, x_lo), (a_lo, x_hi)):
        hi += np.multiply(*product, out=u)
    lo += np.multiply(a_lo, x_lo, out=u)
    hi += lo < u


def _outputs(streams, count: int) -> np.ndarray:
    """(B, count) uint64: the first `count` next_uint64 outputs of each of
    the seeded `streams`. Output k's state is a * initstate + c * inc with
    _jumps' constants, and the output is PCG64's XSL-RR: hi ^ lo rotated
    right by hi >> 58."""
    init_hi, init_lo, inc_hi, inc_lo = streams
    a_hi, a_lo, c_hi, c_lo = _jumps(count)
    # one allocation for all four: a single block that malloc recycles,
    # where separate ones can be returned to the system and fault back in
    hi, lo, t, u = np.zeros((4, len(init_hi), count), dtype=np.uint64)
    _mul_add(a_hi, a_lo, init_hi, init_lo, hi, lo, t, u)
    _mul_add(c_hi, c_lo, inc_hi, inc_lo, hi, lo, t, u)
    lo ^= hi
    hi >>= _U58
    np.right_shift(lo, hi, out=t)
    np.negative(hi, out=hi)
    hi &= _U63
    lo <<= hi
    lo |= t
    return lo


def uniforms(streams, count: int) -> np.ndarray:
    """(B, count) float64: row b is default_rng(seeds[b]).random(count)
    for the seeds of the seeded `streams`."""
    outs = _outputs(streams, count)
    outs >>= _U11
    return outs * np.float64(2.0**-53)


class Integers:
    """default_rng(seeds[b]).integers(0, bounds[b]) draws for the seeds of
    the seeded `streams`, 2 <= bounds[b] < 2**32.

    `first` is the (B, count) int64 array of each stream's first `count`
    draws, made in one array pass; draw(b) is stream b's next draw. A
    draw reads 32-bit words, the low half of each output first, and keeps
    Lemire's product m = word * n unless m mod 2**32 < (2**32 - n) mod n,
    when it reads another word; the draw is m >> 32. A stream that rejects
    a word in the array pass is redrawn one word at a time. Each stream's
    row has _SPARE spare outputs; past them _outputs remakes it, twice as long.
    """

    def __init__(self, streams, bounds, count: int):
        self._bounds = [int(n) for n in bounds]
        if not all(2 <= n <= _MASK32 for n in self._bounds):
            raise ValueError("bounds must lie in [2, 2**32)")
        self._streams = streams
        outs = _outputs(streams, (count + 1) // 2 + _SPARE)
        words = np.stack([outs & _LOW32, outs >> _U32], axis=-1)
        n = np.array(self._bounds, dtype=np.uint64)[:, None]
        m = words.reshape(len(n), 2 * outs.shape[1])[:, :count] * n
        self.first = (m >> _U32).astype(np.int64)
        self._rows = list(outs)  # each stream's outputs computed so far
        self._used = [count] * len(self._bounds)  # words each stream has read
        rejects = ((m & _LOW32) < (np.uint64(1 << 32) - n) % n).any(axis=1)
        for b in np.flatnonzero(rejects).tolist():
            self._used[b] = 0
            self.first[b] = [self.draw(b) for _ in range(count)]

    def _word(self, b: int) -> int:
        used = self._used[b]
        self._used[b] = used + 1
        k = used >> 1  # 0-based output index
        row = self._rows[b]
        if k >= row.size:
            row = self._rows[b] = _outputs(self._streams[:, b : b + 1], 2 * k + 2)[0]
        out = int(row[k])
        return out >> 32 if used & 1 else out & _MASK32

    def draw(self, b: int) -> int:
        n = self._bounds[b]
        m = self._word(b) * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._word(b) * n
        return m >> 32
