import tracemalloc

import numpy as np
import pytest

from symbreak.rng import SeededRng, _philox_words, trial_block_bytes

SEEDS = [0, 2**64 - 1]
# stream 2^32 - 1 with trials from 2^32 - 2 on: s * 2^32 + t wraps past 2^64
STREAMS = [(5, 0), (2**32 - 1, 2**32 - 2)]
BOUNDS = [2, 3, 7, 2**63 + 1]  # 2^63 + 1 rejects about half of all words
COUNTS = [1, 3, 4, 5, 17]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream_id,start", STREAMS)
def test_philox_words_match_numpy(seed, stream_id, start):
    rng = SeededRng(seed, stream_id)
    keys = np.array(
        [rng.trial_stream(start + t).stream_id for t in range(4)], dtype=np.uint64
    )
    words = _philox_words(seed, keys, 5)
    for row, key in zip(words, keys):
        bg = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
        assert list(row) == list(bg.random_raw(20))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream_id,start", STREAMS)
@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("count", COUNTS)
def test_trial_block_matches_scalar_streams(seed, stream_id, start, bound, count):
    rng = SeededRng(seed, stream_id)
    block = rng.trial_block(bound, start, 6, count)
    assert block.shape == (6, count)
    for t in range(6):
        want = rng.trial_stream(start + t).integers_below(bound, count)
        assert [int(x) for x in block[t]] == want


def test_trial_block_fallback_is_exercised():
    # bound 2^63 + 1 accepts only words below 2^63 + 1, so most rows of 17
    # words hold a rejected word and are redrawn by the scalar path
    rng = SeededRng(3, 4)
    words = _philox_words(3, np.arange(64, dtype=np.uint64) + np.uint64(4 << 32), 5)
    assert (words[:, :17] >= np.uint64(2**63 + 1)).any(axis=1).sum() > 32
    block = rng.trial_block(2**63 + 1, 0, 64, 17)
    assert all(
        [int(x) for x in block[t]] == rng.trial_stream(t).integers_below(2**63 + 1, 17)
        for t in range(64)
    )


def test_trial_block_edge_shapes():
    rng = SeededRng(1, 2)
    assert rng.trial_block(2, 0, 0, 5).shape == (0, 5)
    assert rng.trial_block(2, 0, 3, 0).shape == (3, 0)
    assert not rng.trial_block(1, 0, 4, 9).any()
    full = rng.trial_block(2**64, 10, 2, 4)
    assert [int(x) for x in full[1]] == [int(w) for w in rng.trial_stream(11).raw_words(4)]


@pytest.mark.parametrize("bound", [0, 2**64 + 1, 2.0, True])
def test_bound_out_of_range(bound):
    # `2.0` and `True` are no bound: a float bound drew floats
    with pytest.raises(ValueError, match="bound must be an int"):
        SeededRng(0).trial_block(bound, 0, 1, 1)
    with pytest.raises(ValueError, match="bound must be an int"):
        SeededRng(0).integers_below(bound, 1)


@pytest.mark.parametrize("size, count", [(2.0, 3), (2, 3.0), (True, 3), (-1, 3), (2, -1)])
def test_size_and_count_must_be_ints(size, count):
    with pytest.raises(ValueError, match="size and count"):
        SeededRng(0).trial_block(2, 0, size, count)


@pytest.mark.parametrize("count", [3.0, True, -1])
def test_draw_count_must_be_an_int(count):
    with pytest.raises(ValueError, match="size and count"):
        SeededRng(0).integers_below(2, count)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("blocks", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("keys", [[7], [0, 1, 2**63, 2**64 - 1]], ids=["one key", "keys"])
def test_philox_words_match_numpy_per_block_count(seed, blocks, keys):
    # round 1 runs in Python ints, once per block, and round 2's m0 x0 is one
    # Python product of key0, before the vectorised rounds
    words = _philox_words(seed, np.array(keys, dtype=np.uint64), blocks)
    assert words.shape == (len(keys), 4 * blocks)
    for row, key in zip(words, keys):
        bg = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
        assert row.tolist() == bg.random_raw(4 * blocks).tolist()


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("count", [1, 5, 16, 64])
def test_trial_block_bytes_is_the_draws_peak_per_row(bound, count):
    # the Monte Carlo estimator sizes its blocks from this figure; the
    # difference of two sizes leaves out numpy's ufunc buffers, which stop
    # growing at 8192 entries
    rng = SeededRng(3, 1)
    rng.trial_block(bound, 0, 16, count)  # numpy's lazy set-up is not the draw's
    peaks = []
    for size in (4096, 8192):
        tracemalloc.start()
        try:
            rng.trial_block(bound, 0, size, count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_row = (peaks[1] - peaks[0]) / 4096
    assert 0.9 * trial_block_bytes(count) <= per_row <= trial_block_bytes(count)
