"""Corruptions, the synthetic task, and the dataset file.

The synthesis oracle draws each sample's events and bins them in a scalar
loop; corruption edge cases (severity 0 and 1) have exact expected outputs.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesam.events import (
    BIN_DROP,
    BLOCK_STYLE,
    CORRUPTION_FAMILIES,
    EVENT_DROP,
    RATE_STYLE,
    SEVERITY_GRID,
    TIME_JITTER,
    CorruptionConfig,
    Dataset,
    SynthTaskConfig,
    corrupt,
    load_frames,
    measured_input_bound,
    save_dataset,
    synth_task,
)

# ---------------------------------------------------------------------------
# Corruptions
# ---------------------------------------------------------------------------


def _frames(seed=90):
    return (np.random.default_rng(seed).random((6, 8)) < 0.5).astype(np.float64)


def test_corruption_config_validation():
    with pytest.raises(ValueError):
        CorruptionConfig("blur", 0.1)
    with pytest.raises(ValueError):
        CorruptionConfig(EVENT_DROP, 1.5)
    assert set(CORRUPTION_FAMILIES) == {EVENT_DROP, TIME_JITTER, BIN_DROP}
    assert SEVERITY_GRID == (0.0, 0.1, 0.2, 0.3, 0.4)


@pytest.mark.parametrize("family", CORRUPTION_FAMILIES)
def test_severity_zero_is_identity(family):
    x = _frames()
    np.testing.assert_array_equal(corrupt(x, CorruptionConfig(family, 0.0, seed=3)), x)


def test_severity_one_extremes():
    x = _frames()
    assert corrupt(x, CorruptionConfig(EVENT_DROP, 1.0)).sum() == 0.0
    assert corrupt(x, CorruptionConfig(BIN_DROP, 1.0)).sum() == 0.0
    jittered = corrupt(x, CorruptionConfig(TIME_JITTER, 1.0))
    assert jittered.shape == x.shape
    assert jittered.max() <= 1.0  # accumulation is re-clipped
    # jitter moves whole bins by one step: mass can only shrink via clipping
    assert jittered.sum() <= x.sum()


def test_corrupt_is_pure_and_seeded():
    x = _frames()
    cfg = CorruptionConfig(EVENT_DROP, 0.3, seed=7)
    a = corrupt(x, cfg)
    b = corrupt(x, cfg)
    np.testing.assert_array_equal(a, b)
    c = corrupt(x, CorruptionConfig(EVENT_DROP, 0.3, seed=8))
    assert not np.array_equal(a, c)
    for shape in ((8,), (2, 3, 4, 5)):  # one sequence is 2-d, a batch 3-d
        with pytest.raises(ValueError):
            corrupt(np.zeros(shape), cfg)


@pytest.mark.parametrize("family", [EVENT_DROP, BIN_DROP])
def test_single_sequence_draw_is_one_uniform_per_cell_or_bin(family):
    x = _frames()
    shape = x.shape if family == EVENT_DROP else x.shape[:1]
    for seed in range(5):
        keep = np.random.default_rng(seed).random(shape) >= 0.3
        expected = x * (keep if family == EVENT_DROP else keep[:, None])
        assert corrupt(x, CorruptionConfig(family, 0.3, seed=seed)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", CORRUPTION_FAMILIES)
def test_batch_draw_is_prefix_stable(family):
    batch = (np.random.default_rng(91).random((12, 6, 8)) < 0.5).astype(np.float64)
    cfg = CorruptionConfig(family, 0.5, seed=21)
    full = corrupt(batch, cfg)
    for n in (1, 5, 11):
        np.testing.assert_array_equal(corrupt(batch[:n], cfg), full[:n])
    np.testing.assert_array_equal(corrupt(batch[0], cfg), full[0])


def test_event_drop_only_removes():
    x = _frames()
    dropped = corrupt(x, CorruptionConfig(EVENT_DROP, 0.4, seed=11))
    assert np.all(dropped <= x)
    assert np.all(x[dropped > 0.0] > 0.0)  # nothing appears from nowhere
    batch = np.random.default_rng(92).random((16, 6, 8)) * (np.arange(8) % 2)
    dropped = corrupt(batch, CorruptionConfig(EVENT_DROP, 0.4, seed=12))
    assert np.all((dropped == batch) | (dropped == 0.0))
    assert 0.0 < (dropped != batch).mean() < 1.0


def test_bin_drop_zeroes_whole_rows():
    x = np.ones((8, 4))
    dropped = corrupt(x, CorruptionConfig(BIN_DROP, 0.5, seed=13))
    row_sums = dropped.sum(axis=1)
    assert set(row_sums.tolist()).issubset({0.0, 4.0})
    assert 0.0 in row_sums.tolist()
    dropped = corrupt(np.ones((32, 8, 4)), CorruptionConfig(BIN_DROP, 0.5, seed=14))
    row_sums = dropped.sum(axis=2)
    assert set(row_sums.ravel().tolist()) == {0.0, 4.0}
    assert len({tuple(rows) for rows in row_sums.tolist()}) > 1  # each sample draws its own bins


def jitter_reference(frames: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    """Per-sample ``np.add.at`` of each bin into its clipped destination."""
    out = np.zeros_like(frames)
    n_bins = frames.shape[1]
    for i in range(frames.shape[0]):
        dest = np.arange(n_bins) - (u[i] < p / 2) + ((p / 2 <= u[i]) & (u[i] < p))
        np.add.at(out[i], np.clip(dest, 0, n_bins - 1), frames[i])
    return np.minimum(out, 1.0)


def test_time_jitter_equals_add_at_reference_on_the_same_draws():
    frames = np.random.default_rng(93).random((40, 7, 5)) * 0.7  # graded, so sums overlap
    for seed, p in ((0, 0.3), (1, 0.7), (2, 1.0)):
        u = np.random.default_rng(seed).random(frames.shape[:2])
        got = corrupt(frames, CorruptionConfig(TIME_JITTER, p, seed=seed))
        assert got.tobytes() == jitter_reference(frames, u, p).tobytes()


def test_time_jitter_moves_whole_bins_at_most_one_step():
    n_bins = 9
    frames = np.zeros((64, n_bins, 3))
    frames[:, 4, 1] = 1.0  # one occupied bin in the middle, one channel
    jittered = corrupt(frames, CorruptionConfig(TIME_JITTER, 0.8, seed=5))
    assert np.array_equal(jittered.sum(axis=(1, 2)), np.ones(64))
    assert jittered[:, :, [0, 2]].sum() == 0.0  # the channel never changes
    landed = jittered[:, :, 1].argmax(axis=1)
    assert set(landed.tolist()) == {3, 4, 5}


def test_time_jitter_preserves_mass_without_collisions():
    x = np.zeros((6, 3))
    x[2, 1] = 1.0  # single occupied bin: moving it cannot clip
    jittered = corrupt(x, CorruptionConfig(TIME_JITTER, 1.0, seed=17))
    assert jittered.sum() == 1.0
    assert jittered[:, 1].sum() == 1.0  # channel never changes


# ---------------------------------------------------------------------------
# Datasets and the synthetic task
# ---------------------------------------------------------------------------


def test_dataset_validation_and_subset():
    frames = np.zeros((4, 3, 5))
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = Dataset(frames, labels, n_classes=2)
    assert ds.n_samples == 4
    sub = ds.subset([2, 0])
    assert sub.n_samples == 2
    assert sub.labels.tolist() == [0, 0]
    with pytest.raises(ValueError):
        Dataset(frames, labels[:3], n_classes=2)
    with pytest.raises(ValueError):
        Dataset(frames, labels, n_classes=1)
    with pytest.raises(ValueError):
        Dataset(frames, np.array([0, 1, 2, 1]), n_classes=2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.where(np.arange(5) == 3, np.nan, frames), labels, n_classes=2)


def test_measured_input_bound():
    frames = np.zeros((2, 3, 4))
    frames[1, 2, :] = 1.0  # one step with all channels on: norm 2
    assert measured_input_bound(frames) == pytest.approx(2.0)


def test_synth_task_shapes_and_determinism():
    cfg = SynthTaskConfig(
        n_classes=3, n_steps=5, n_coords=8, n_polarities=2,
        n_train=12, n_val=6, n_test=9, seed=4,
    )
    assert cfg.frame_width == 16
    a = synth_task(cfg)
    b = synth_task(cfg)
    np.testing.assert_array_equal(a.train.frames, b.train.frames)
    np.testing.assert_array_equal(a.test.labels, b.test.labels)
    assert a.train.frames.shape == (12, 5, 16)
    assert a.val.frames.shape == (6, 5, 16)
    assert a.test.frames.shape == (9, 5, 16)
    assert set(np.unique(a.train.frames)).issubset({0.0, 1.0})
    assert a.train.n_classes == 3
    # splits are disjoint draws, not copies
    assert not np.array_equal(a.train.frames[:6], a.val.frames)
    # all classes appear in training data
    assert set(a.train.labels.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("style", [BLOCK_STYLE, RATE_STYLE])
def test_synth_task_styles_are_learnable_structures(style):
    cfg = SynthTaskConfig(
        n_classes=2, n_steps=6, n_coords=12, n_train=40, n_val=10, n_test=10,
        style=style, seed=9,
    )
    ds = synth_task(cfg)
    by_label = [ds.train.frames[ds.train.labels == c] for c in (0, 1)]
    # class-conditional mean activity patterns must actually differ
    assert np.abs(by_label[0].mean(axis=(0, 1)) - by_label[1].mean(axis=(0, 1))).max() > 0.05


def naive_synth_split(cfg: SynthTaskConfig, n: int, split_id: int) -> tuple[np.ndarray, np.ndarray]:
    """One split drawn sample by sample as timestamped events, then binned in a scalar loop."""
    rng = np.random.default_rng([cfg.seed, split_id])
    labels = rng.permutation(np.arange(n) % cfg.n_classes)
    frames = np.zeros((n, cfg.n_steps, cfg.frame_width))
    for i, label in enumerate(labels):
        if cfg.style == RATE_STYLE:
            span = cfg.rate_active - cfg.rate_background
            rate = cfg.rate_background + span * (label + 1) / cfg.n_classes
            rates = np.full((cfg.n_steps, cfg.n_polarities, cfg.n_coords), rate)
        else:
            rates = np.full((cfg.n_steps, cfg.n_polarities, cfg.n_coords), cfg.rate_background)
            coord_block = np.array_split(np.arange(cfg.n_coords), cfg.n_classes)[label]
            bin_block = np.array_split(np.arange(cfg.n_steps), cfg.n_classes)[label]
            rates[np.ix_(bin_block, np.arange(cfg.n_polarities), coord_block)] = cfg.rate_active
        counts = rng.poisson(rates)
        bin_idx, pol_idx, coord_idx = np.nonzero(counts)
        reps = counts[bin_idx, pol_idx, coord_idx]
        bins = np.repeat(bin_idx, reps)
        times = np.minimum((bins + rng.random(bins.size)) * (cfg.duration / cfg.n_steps), cfg.duration)
        for t, c, p in zip(times, np.repeat(coord_idx, reps), np.repeat(pol_idx, reps)):
            b = min(int(t / cfg.duration * cfg.n_steps), cfg.n_steps - 1)
            frames[i, b, p * cfg.n_coords + c] = 1.0  # one event saturates its cell
    return frames, labels


@pytest.mark.parametrize("style", [BLOCK_STYLE, RATE_STYLE])
@pytest.mark.parametrize("n_steps", [3, 8, 10])
@pytest.mark.parametrize("duration", [0.7, 1.0, 1.3])
def test_synth_task_matches_the_event_stream_oracle_byte_for_byte(style, n_steps, duration):
    for n_polarities in (1, 2):
        for n_classes in (2, 3):
            for seed in (0, 3, 11):
                cfg = SynthTaskConfig(
                    n_classes=n_classes, n_steps=n_steps, n_coords=7, n_polarities=n_polarities,
                    n_train=6, n_val=1, n_test=4, rate_active=2.5, rate_background=0.2,
                    duration=duration, style=style, seed=seed,
                )
                ds = synth_task(cfg)
                for split_id, split in enumerate((ds.train, ds.val, ds.test)):
                    frames, labels = naive_synth_split(cfg, split.n_samples, split_id)
                    assert split.frames.tobytes() == frames.tobytes()
                    assert split.labels.tobytes() == labels.tobytes()


class _LateJitter:
    """A generator whose uniforms are all the largest double below 1, so every
    event sits at its bin's far edge, where rounding can carry it past."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("duration", [0.7, 1.0, 1.3])
def test_synth_task_bins_events_at_the_bin_edges_as_the_oracle(monkeypatch, duration):
    monkeypatch.setattr(np.random, "default_rng", _LateJitter)
    cfg = SynthTaskConfig(n_steps=10, n_coords=5, n_train=4, n_val=1, n_test=1, duration=duration, seed=1)
    frames, labels = naive_synth_split(cfg, cfg.n_train, 0)
    assert synth_task(cfg).train.frames.tobytes() == frames.tobytes()


def test_synth_task_validation():
    with pytest.raises(ValueError):
        SynthTaskConfig(n_classes=1)
    with pytest.raises(ValueError):
        SynthTaskConfig(rate_background=-0.1, rate_active=0.5)
    with pytest.raises(ValueError):
        SynthTaskConfig(rate_active=0.05, rate_background=0.05)
    with pytest.raises(ValueError):
        SynthTaskConfig(style="stripes")


@pytest.mark.parametrize(
    "field,value",
    [
        ("duration", 0.0),
        ("duration", -1.0),
        ("duration", float("inf")),
        ("duration", float("nan")),
        ("n_polarities", 0),
        ("rate_active", float("nan")),
        ("rate_active", float("inf")),
        ("rate_background", float("nan")),
        ("n_train", 0),
        ("n_val", 0),
        ("n_test", 0),
        ("n_val", -3),
    ],
)
def test_synth_task_refuses_degenerate_fields_by_name(field, value):
    with pytest.raises(ValueError, match=field):
        SynthTaskConfig(**{field: value})


def test_dataset_file_roundtrip_bit_identical(tmp_path):
    cfg = SynthTaskConfig(n_classes=2, n_steps=4, n_coords=6, n_train=8, n_val=4, n_test=4, seed=2)
    ds = synth_task(cfg).train
    p1 = str(tmp_path / "a.bin")
    p2 = str(tmp_path / "b.bin")
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    loaded = load_frames(p1)
    np.testing.assert_array_equal(loaded.frames, ds.frames)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.n_classes == ds.n_classes


def test_load_frames_reads_the_payload_straight_into_its_arrays(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset((rng.random((1024, 8, 48)) < 0.2).astype(np.float64), rng.integers(0, 4, size=1024), 4)
    path = str(tmp_path / "split.bin")
    save_dataset(path, ds)
    tracemalloc.start()
    try:
        loaded = load_frames(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.frames, ds.frames)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    assert loaded.frames.dtype == np.float64 and loaded.labels.dtype == np.int64
    assert peak < 1.25 * (ds.frames.nbytes + ds.labels.nbytes)


def test_load_frames_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"WHAT" + bytes(32))
    with pytest.raises(ValueError):
        load_frames(str(path))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 3), n_steps=st.integers(1, 3), width=st.integers(1, 3), seed=st.integers(0, 100))
def test_property_every_proper_prefix_of_a_dataset_is_refused(tmp_path_factory, n, n_steps, width, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.random((n, n_steps, width)), rng.integers(0, 2, size=n), 2)
    path = tmp_path_factory.mktemp("prefix") / "ds.bin"
    save_dataset(str(path), ds)
    data = path.read_bytes()
    for cut in range(len(data)):  # each cut a new file: overwriting one is far slower on some file systems
        cut_path = path.with_name(f"cut{cut}.bin")
        cut_path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="magic|truncated"):
            load_frames(str(cut_path))
    long_path = path.with_name("long.bin")
    long_path.write_bytes(data + bytes(1))
    with pytest.raises(ValueError, match="trailing"):
        load_frames(str(long_path))


@pytest.mark.parametrize(
    "sizes",
    [
        (2**32 - 1, 2**32 - 1, 2**32 - 1),
        (2**32 - 1, 1, 1),
        (1, 2**32 - 1, 2**32 - 1),
        (2, 0, 3),  # no time steps: evaluation averages over an empty axis
        (2, 3, 0),
        (0, 4, 6),  # no sequences: evaluation averages over an empty split
    ],
)
def test_dataset_with_huge_declared_sizes_is_refused_before_reading(tmp_path, sizes):
    path = tmp_path / "huge.bin"
    path.write_bytes(b"SNND" + struct.pack("<IIIII", 1, *sizes, 2) + bytes(64))
    zero = [name for name, size in zip(("n", "n_steps", "width"), sizes) if size == 0]
    field = f"'{zero[0]}' must" if zero else r"truncated: n(/n_steps/width)? declares"
    with pytest.raises(ValueError, match=field):
        load_frames(str(path))
