"""Reproducible, splittable random streams.

The generator is pinned: Philox4x64-10 (numpy's ``np.random.Philox``)
keyed with the 64-bit pair ``(master_seed, stream_id)``.  Uniform integers
below a bound are produced from the raw 64-bit word stream by rejection
sampling, so identical ``(master_seed, stream_id)`` pairs reproduce
identical sequences on every host and under any parallel schedule.

Monte Carlo convention: trial ``t`` of a run with base stream ``s`` uses
stream id ``(s * 2**32 + t) mod 2**64``.

``SeededRng.trial_block`` draws many trial streams at once with a numpy
Philox4x64-10 vectorised over the stream keys; it returns the same values
as the per-trial streams, word for word.  The rounds run over a tile of
keys at a time in state arrays allocated once per call and sized to stay
in cache, so the only allocation that grows with the trials is the result.

numpy is imported inside the functions that draw, not at module import,
so importing this module (and the package, and the CLI) does not load it.
"""

from __future__ import annotations

from .jsonfields import Record

_MASK64 = (1 << 64) - 1

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

# Words of each Philox state array in a tile of keys: the eight arrays take
# 1 MiB, so the rounds' array passes run within a 2 MiB L2 cache
_TILE_WORDS = 1 << 14


def _mulhi(const, x, out, s1, s2, s3):
    """out = high 64 bits of const * x, from 32-bit partial products, computed
    in place with the scratch arrays s1, s2 and s3 (all shaped like x)."""
    import numpy as np

    mask32, shift32 = np.uint64((1 << 32) - 1), np.uint64(32)
    c_lo, c_hi = np.uint64(const & 0xFFFFFFFF), np.uint64(const >> 32)
    np.bitwise_and(x, mask32, out=s1)  # x_lo
    np.multiply(s1, c_lo, out=s2)
    s2 >>= shift32
    s1 *= c_hi
    s1 += s2  # m1 = c_hi * x_lo + (c_lo * x_lo >> 32)
    np.right_shift(x, shift32, out=out)  # x_hi
    np.multiply(out, c_lo, out=s2)
    out *= c_hi
    np.bitwise_and(s1, mask32, out=s3)
    s2 += s3  # m2 = c_lo * x_hi + (m1 & mask32)
    s1 >>= shift32
    out += s1
    s2 >>= shift32
    out += s2  # c_hi * x_hi + (m1 >> 32) + (m2 >> 32)


def _philox_tiles(key0, base, out):
    """Fill `out`, a (rows, count) uint64 array, with raw Philox words a
    tile of rows at a time, yielding each tile's rows (lo, hi) once written.

    Row i gets the first `count` words of numpy's ``Philox(key=[key0,
    key1])``, key1 = (base + i) mod 2^64; each tile's keys are made as the
    tile is drawn, and the rounds consume them.  numpy bumps the counter
    before each block, so block b is the Philox4x64-10 image of counter
    (b+1, 0, 0, 0).  Round 1 sees only that counter, shared by every key,
    and key0: it maps the counter to (key0, 0, hi(m0 (b+1)) ^ key1, lo(m0
    (b+1))), so it runs once per call in Python ints, the key entering by
    one xor.  Round 2 then has x0 = key0 everywhere, so its m0 x0 is one
    Python product and only m1 x2 is vectorised.  The other rounds run in
    place on four state arrays and four scratch arrays, allocated once per
    call and shaped (blocks, tile rows), blocks = ceil(count / 4): a tile
    holds ``_TILE_WORDS`` words of each (a single key when its blocks alone
    exceed that), so the rounds' array passes stay in cache, and the keys
    run along the contiguous axis, so a per-key xor broadcasts along it.
    The last round writes its four lanes straight into the tile's rows of
    `out`, lane j into words j, j + 4, ...
    """
    import numpy as np

    size, count = out.shape
    blocks = -(-count // 4)
    if not size or not blocks:
        return
    per_tile = min(size, max(1, _TILE_WORDS // blocks))
    state = [np.empty(blocks * per_tile, dtype=np.uint64) for _ in range(8)]
    products = [_PHILOX_M0 * (b + 1) for b in range(blocks)]
    key0_product = _PHILOX_M0 * key0
    first = np.array([[p >> 64] for p in products], dtype=np.uint64)
    shared = np.array([[(p & _MASK64) ^ (key0_product >> 64)] for p in products], dtype=np.uint64)
    # the first key word of rounds 2, 3, ..., 10
    k0s = [np.uint64((key0 + r * _PHILOX_W0) & _MASK64) for r in range(1, _PHILOX_ROUNDS)]
    m0, m1, w1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1), np.uint64(_PHILOX_W1)
    widths = [len(range(j, count, 4)) for j in range(4)]  # lane j's words in a row
    for lo in range(0, size, per_tile):
        hi = min(size, lo + per_tile)
        x0, x1, x2, x3, h, s1, s2, s3 = (
            a[: blocks * (hi - lo)].reshape(blocks, hi - lo) for a in state
        )
        k1 = np.arange(lo, hi, dtype=np.uint64)
        k1 += np.uint64(base)  # wraps mod 2^64
        np.bitwise_xor(first, k1, out=x2)
        k1 += w1
        # round 2: (hi(m1 x2) ^ k0, lo(m1 x2), hi(m0 key0) ^ x3 ^ k1, lo(m0 key0))
        _mulhi(_PHILOX_M1, x2, x0, s1, s2, s3)
        x0 ^= k0s[0]
        np.multiply(x2, m1, out=x1)
        np.bitwise_xor(shared, k1, out=x2)
        x3.fill(key0_product & _MASK64)
        for r, k0 in enumerate(k0s[1:], 3):
            k1 += w1
            last = r == _PHILOX_ROUNDS
            dest = [out[lo:hi, j::4].T for j in range(4)] if last else [h, x1, x2, x3]
            cut = widths if last else [blocks] * 4
            # (x0, x1, x2, x3) <- (hi(m1 x2) ^ x1 ^ k0, lo(m1 x2), hi(m0 x0) ^ x3 ^ k1, lo(m0 x0))
            _mulhi(_PHILOX_M1, x2, h, s1, s2, s3)
            h ^= x1
            np.bitwise_xor(h[: cut[0]], k0, out=dest[0])
            np.multiply(x2[: cut[1]], m1, out=dest[1])
            _mulhi(_PHILOX_M0, x0, x2, s1, s2, s3)
            x2 ^= x3
            np.bitwise_xor(x2[: cut[2]], k1, out=dest[2])
            np.multiply(x0[: cut[3]], m0, out=dest[3])
            x0, h = h, x0
        yield lo, hi
        del k1  # before the next tile's keys are made


class SeededRng(Record):
    """A value object naming one Philox stream; drawing is stateless."""

    master_seed: int
    stream_id: int = 0

    def _bit_generator(self):
        import numpy as np

        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Philox(key=key)

    def raw_words(self, count):
        """The first `count` raw 64-bit words of this stream."""
        return self._bit_generator().random_raw(count)

    def integers_below(self, bound, count):
        """`count` iid uniform draws from {0, ..., bound-1} (rejection sampled)."""
        _check_draw(bound, count)
        out = []
        threshold = (1 << 64) - ((1 << 64) % bound)
        bg = self._bit_generator()
        while len(out) < count:
            words = bg.random_raw(max(count - len(out), 16))
            for w in words:
                w = int(w)
                if w < threshold:
                    out.append(w % bound)
                    if len(out) == count:
                        break
        return out

    def trial_block(self, bound, start, size, count):
        """Rows t = 0..size-1 equal ``trial_stream(start + t).integers_below(bound, count)``.

        Returns a ``(size, count)`` uint64 array, drawn a tile of rows at a
        time (`_philox_tiles`): each tile's keys are made, and its words
        reduced below `bound`, as the tile is drawn.  Rows whose first
        `count` words include one rejected by the sampler (possible only
        when `bound` is not a power of two) are redrawn through the scalar
        path.
        """
        import numpy as np

        _check_draw(bound, count, size)
        base = (self.stream_id * (1 << 32) + start) & _MASK64
        words = np.empty((size, count), dtype=np.uint64)
        rejected, redraw = (1 << 64) % bound, []
        for lo, hi in _philox_tiles(self.master_seed & _MASK64, base, words):
            tile = words[lo:hi]
            if rejected:
                bad = tile >= np.uint64((1 << 64) - rejected)
                redraw.extend(lo + np.flatnonzero(bad.any(axis=1)))
                del bad  # the next tile's rounds run without it
                np.remainder(tile, np.uint64(bound), out=tile)
            elif bound < (1 << 64):
                np.bitwise_and(tile, np.uint64(bound - 1), out=tile)
        for t in redraw:
            words[t] = self.trial_stream(start + int(t)).integers_below(bound, count)
        return words

    def stream(self, stream_id):
        """The sibling stream with the same master seed."""
        return SeededRng(self.master_seed, stream_id)

    def trial_stream(self, trial):
        """The per-trial stream: (stream_id * 2^32 + trial) mod 2^64."""
        return SeededRng(self.master_seed, (self.stream_id * (1 << 32) + trial) & _MASK64)


def trial_block_bytes(count):
    """Bytes per row that ``SeededRng.trial_block(..., count)`` holds at its
    peak when its rows fit one tile: the eight (blocks, rows) uint64 Philox
    state arrays, blocks = ceil(count / 4), the row's `count` result words,
    its key and its count + 1 rejection flags.  Each row beyond a tile
    holds only its result words, so this bounds every block."""
    return 64 * -(-count // 4) + 9 * count + 9


def _check_draw(bound, count, size=0):
    # a bound above 2^64 would reject every 64-bit word; `True` and `2.0` are
    # no bound and no count
    if type(bound) is not int or not 1 <= bound <= 1 << 64:
        raise ValueError(f"bound must be an int in 1..2^64, not {bound!r}")
    if type(count) is not int or type(size) is not int or count < 0 or size < 0:
        raise ValueError(f"size and count must be non-negative ints, not {size!r} and {count!r}")
