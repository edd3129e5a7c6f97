import tracemalloc

import numpy as np
import pytest

from symbreak import rng as rng_module
from symbreak.rng import SeededRng, trial_block_bytes

SEEDS = [0, 2**64 - 1]
# stream 2^32 - 1 with trials from 2^32 - 2 on: s * 2^32 + t wraps past 2^64
STREAMS = [(5, 0), (2**32 - 1, 2**32 - 2)]
BOUNDS = [2, 3, 7, 2**63 + 1]  # 2^63 + 1 rejects about half of all words
COUNTS = [1, 3, 4, 5, 17]


def philox_words(seed, key, size, blocks):
    """Row i < size holds the first 4 * blocks raw words of numpy's
    ``Philox(key=[seed, (key + i) mod 2^64])``: at bound 2^64 no word is
    rejected or reduced, so stream 0's trial rows are the raw words."""
    return SeededRng(seed, 0).trial_block(2**64, key, size, 4 * blocks)


def numpy_words(seed, key, blocks):
    return np.random.Philox(key=np.array([seed, key], dtype=np.uint64)).random_raw(4 * blocks)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream_id,start", STREAMS)
def test_philox_words_match_numpy(seed, stream_id, start):
    rng = SeededRng(seed, stream_id)
    keys = [rng.trial_stream(start + t).stream_id for t in range(4)]
    words = philox_words(seed, keys[0], 4, 5)
    for row, key in zip(words, keys):
        assert list(row) == list(numpy_words(seed, key, 5))


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
    words = philox_words(3, 4 << 32, 64, 5)
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
@pytest.mark.parametrize("key, size", [(7, 1), (2**64 - 2, 4)], ids=["one key", "keys"])
def test_philox_words_match_numpy_per_block_count(seed, blocks, key, size):
    # round 1 runs in Python ints, once per block, and round 2's m0 x0 is one
    # Python product of key0, before the vectorised rounds; the keys wrap to 0
    words = philox_words(seed, key, size, blocks)
    assert words.shape == (size, 4 * blocks)
    for i, row in enumerate(words):
        assert row.tolist() == numpy_words(seed, (key + i) % 2**64, blocks).tolist()


def draw_peaks(bound, count, sizes):
    """tracemalloc's peak of each `trial_block` draw, less its result."""
    rng = SeededRng(3, 1)
    rng.trial_block(bound, 0, 16, count)  # numpy's lazy set-up is not the draw's
    peaks = []
    for size in sizes:
        tracemalloc.start()
        try:
            words = rng.trial_block(bound, 0, size, count)
            peaks.append(tracemalloc.get_traced_memory()[1] - words.nbytes)
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("count", [1, 5, 16, 64])
def test_trial_block_bytes_is_the_draws_peak_per_row(monkeypatch, bound, count):
    # the Monte Carlo estimator sizes its blocks from this figure.  Within one
    # tile a row holds its share of the Philox state; each row beyond a tile
    # adds only its result words.  The differences of two sizes leave out
    # numpy's ufunc buffers, which stop growing at 8192 entries.
    blocks = -(-count // 4)
    per_tile = rng_module._TILE_WORDS // blocks
    beyond = draw_peaks(bound, count, (8 * per_tile, 16 * per_tile))
    per_row = 8 * count + (beyond[1] - beyond[0]) / (8 * per_tile)
    assert 0.9 * 8 * count <= per_row <= 8 * count
    monkeypatch.setattr(rng_module, "_TILE_WORDS", 16384 * blocks)
    within = draw_peaks(bound, count, (8192, 16384))
    per_row = 8 * count + (within[1] - within[0]) / 8192
    assert 0.9 * trial_block_bytes(count) <= per_row <= trial_block_bytes(count)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("count", [16, 32, 64])
def test_draw_workspace_does_not_grow_with_the_trials(bound, count):
    # 4096 trials fill at least one tile; 65536 trials hold 16 or more
    small, large = draw_peaks(bound, count, (4096, 65536))
    assert abs(large - small) <= 4096
    assert large <= 1.25 * 8 * 8 * rng_module._TILE_WORDS  # the eight state arrays of a tile


class TestTiles:
    """The tiled kernel on tiles of a few words, against ``np.random.Philox``
    word for word and `trial_stream(t).integers_below` row for row."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_TILE_WORDS", 8)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 9])
    def test_words_across_tiles_match_numpy(self, seed, blocks):
        # 8 words a tile: 8, 4, 2 or 1 keys a tile, and from 5 blocks on one
        # key a tile whose blocks exceed it; 11 keys leave the last tile
        # partial, and the sixth wraps past 2^64 to key 0
        words = philox_words(seed, 2**64 - 5, 11, blocks)
        assert words.shape == (11, 4 * blocks)
        for i, row in enumerate(words):
            assert row.tolist() == numpy_words(seed, (i - 5) % 2**64, blocks).tolist()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream_id,start", STREAMS)
    @pytest.mark.parametrize("bound", [2, 3, 7, 2**63 + 1, 2**64])
    @pytest.mark.parametrize("count", [1, 3, 6, 9, 21, 40])
    def test_trial_block_across_tiles(self, seed, stream_id, start, bound, count):
        rng = SeededRng(seed, stream_id)
        block = rng.trial_block(bound, start, 13, count)
        assert block.shape == (13, count)
        for t in range(13):
            want = rng.trial_stream(start + t).integers_below(bound, count)
            assert block[t].tolist() == want

    @pytest.mark.parametrize("bound", [2, 3, 2**63 + 1])
    def test_rejected_rows_in_later_tiles_are_redrawn(self, bound):
        # two keys a tile at 9 words: the scalar path redraws exactly the rows
        # that hold a rejected word, none for bounds 2 and 3 on these keys
        rng, size, count = SeededRng(3, 4), 40, 9
        words = philox_words(3, 4 << 32, size, 3)
        accepted = (1 << 64) - (1 << 64) % bound
        bad = (words[:, :count].astype(object) >= accepted).any(axis=1)
        if bound == 2**63 + 1:
            assert bad[2:].sum() > size // 4  # rows beyond the first tile
        calls = []
        trial_stream = SeededRng.trial_stream

        def recording(self, trial):
            calls.append(trial)
            return trial_stream(self, trial)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SeededRng, "trial_stream", recording)
            block = rng.trial_block(bound, 0, size, count)
        assert calls == np.flatnonzero(bad).tolist()
        for t in range(size):
            assert block[t].tolist() == rng.trial_stream(t).integers_below(bound, count)

    @pytest.mark.parametrize("size, count", [(0, 0), (0, 5), (3, 0), (12, 0)])
    def test_empty_draws(self, size, count):
        block = SeededRng(1, 2).trial_block(3, 0, size, count)
        assert block.shape == (size, count) and block.dtype == np.uint64
        assert philox_words(1, 0, size, 0).shape == (size, 0)
