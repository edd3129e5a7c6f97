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
as the per-trial streams, word for word.

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


def _philox_words(key0, key1, blocks):
    """Raw words of numpy's ``Philox(key=[key0, key1[i]])`` for each i.

    Row i holds the first 4 * blocks words: numpy bumps the counter before
    each block, so block b is the Philox4x64-10 image of counter (b+1, 0, 0, 0).
    Round 1 sees only that counter, shared by every key, and key0: it maps
    the counter to (key0, 0, hi(m0 (b+1)) ^ key1[i], lo(m0 (b+1))), so it
    runs once per block in Python ints, the key entering by one xor.  Round
    2 then has x0 = key0 everywhere, so its m0 x0 is one Python product and
    only m1 x2 is vectorised.  The other rounds run in place on four state
    arrays and four scratch arrays, the last writing straight into the
    (keys, blocks, 4) result.
    """
    import numpy as np

    shape = (len(key1), blocks)
    x0, x1, x2, x3, hi, s1, s2, s3 = (np.zeros(shape, dtype=np.uint64) for _ in range(8))
    words = np.empty(shape + (4,), dtype=np.uint64)
    products = [_PHILOX_M0 * (b + 1) for b in range(blocks)]
    k1 = key1[:, None].astype(np.uint64)
    np.bitwise_xor(np.array([p >> 64 for p in products], dtype=np.uint64), k1, out=x2)
    k0 = (key0 + _PHILOX_W0) & _MASK64
    k1 += np.uint64(_PHILOX_W1)
    # round 2: (hi(m1 x2) ^ k0, lo(m1 x2), hi(m0 key0) ^ x3 ^ k1, lo(m0 key0))
    m0, m1, key0_product = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1), _PHILOX_M0 * key0
    _mulhi(_PHILOX_M1, x2, x0, s1, s2, s3)
    x0 ^= np.uint64(k0)
    np.multiply(x2, m1, out=x1)
    shared = [(p & _MASK64) ^ (key0_product >> 64) for p in products]
    np.bitwise_xor(np.array(shared, dtype=np.uint64), k1, out=x2)
    x3.fill(key0_product & _MASK64)
    lanes = words.transpose(2, 0, 1)
    for r in range(_PHILOX_ROUNDS - 2):
        last = r == _PHILOX_ROUNDS - 3
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 += np.uint64(_PHILOX_W1)
        # (x0, x1, x2, x3) <- (hi(m1 x2) ^ x1 ^ k0, lo(m1 x2), hi(m0 x0) ^ x3 ^ k1, lo(m0 x0))
        _mulhi(_PHILOX_M1, x2, hi, s1, s2, s3)
        hi ^= x1
        np.bitwise_xor(hi, np.uint64(k0), out=lanes[0] if last else hi)
        np.multiply(x2, m1, out=lanes[1] if last else x1)
        _mulhi(_PHILOX_M0, x0, x2, s1, s2, s3)
        x2 ^= x3
        np.bitwise_xor(x2, k1, out=lanes[2] if last else x2)
        np.multiply(x0, m0, out=lanes[3] if last else x3)
        x0, hi = hi, x0
    return words.reshape(len(key1), 4 * blocks)


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

        Returns a ``(size, count)`` uint64 array.  Rows whose first `count`
        words include one rejected by the sampler (possible only when
        `bound` is not a power of two) are redrawn through the scalar path.
        """
        import numpy as np

        _check_draw(bound, count, size)
        base = (self.stream_id * (1 << 32) + start) & _MASK64
        keys = np.arange(size, dtype=np.uint64) + np.uint64(base)  # wraps mod 2^64
        blocks = -(-count // 4)
        words = _philox_words(self.master_seed & _MASK64, keys, blocks)[:, :count]
        rejected = (1 << 64) % bound
        if rejected:
            bad = (words >= np.uint64((1 << 64) - rejected)).any(axis=1)
            words = words % np.uint64(bound)
            for t in np.flatnonzero(bad):
                words[t] = self.trial_stream(start + int(t)).integers_below(bound, count)
        elif bound < (1 << 64):
            words = words & np.uint64(bound - 1)
        return words

    def stream(self, stream_id):
        """The sibling stream with the same master seed."""
        return SeededRng(self.master_seed, stream_id)

    def trial_stream(self, trial):
        """The per-trial stream: (stream_id * 2^32 + trial) mod 2^64."""
        return SeededRng(self.master_seed, (self.stream_id * (1 << 32) + trial) & _MASK64)


def trial_block_bytes(count):
    """Bytes per row that ``SeededRng.trial_block(..., count)`` holds at
    its peak: the eight (rows, blocks) uint64 Philox state arrays and the
    (rows, 4 * blocks) words, blocks = ceil(count / 4), plus its keys."""
    return 96 * -(-count // 4) + 24


def _check_draw(bound, count, size=0):
    # a bound above 2^64 would reject every 64-bit word; `True` and `2.0` are
    # no bound and no count
    if type(bound) is not int or not 1 <= bound <= 1 << 64:
        raise ValueError(f"bound must be an int in 1..2^64, not {bound!r}")
    if type(count) is not int or type(size) is not int or count < 0 or size < 0:
        raise ValueError(f"size and count must be non-negative ints, not {size!r} and {count!r}")
