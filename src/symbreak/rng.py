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
    The rounds run in place on four state arrays and four scratch arrays.
    """
    import numpy as np

    shape = (len(key1), blocks)
    x0, x1, x2, x3, hi, s1, s2, s3 = (np.zeros(shape, dtype=np.uint64) for _ in range(8))
    x0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    k0, k1 = key0, key1[:, None].astype(np.uint64)
    m0, m1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
    for _ in range(_PHILOX_ROUNDS):
        # (x0, x1, x2, x3) <- (hi(m1 x2) ^ x1 ^ k0, lo(m1 x2), hi(m0 x0) ^ x3 ^ k1, lo(m0 x0))
        _mulhi(_PHILOX_M1, x2, hi, s1, s2, s3)
        hi ^= x1
        hi ^= np.uint64(k0)
        np.multiply(x2, m1, out=x1)
        _mulhi(_PHILOX_M0, x0, x2, s1, s2, s3)
        x2 ^= x3
        x2 ^= k1
        np.multiply(x0, m0, out=x3)
        x0, hi = hi, x0
        k0 = (k0 + _PHILOX_W0) & _MASK64
        k1 += np.uint64(_PHILOX_W1)
    return np.stack([x0, x1, x2, x3], axis=2).reshape(len(key1), 4 * blocks)


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
        _check_bound(bound)
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

        _check_bound(bound)
        if size < 0 or count < 0:
            raise ValueError("size and count must be non-negative")
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


def _check_bound(bound):
    # a bound above 2^64 would reject every 64-bit word
    if not 1 <= bound <= 1 << 64:
        raise ValueError("bound must be in 1..2^64")
