"""Event streams, frame binning, corruption models, and synthetic tasks.

Raw data is a stream of timestamped events at spatial coordinates with a
polarity channel.  Frames are built by uniform time binning with per-voxel
count saturation, giving values in [0, 1] (binary at the default saturation
of one event).  Corruptions act on binned frames and are pure functions of
(frames, config), so a fixed seed yields the same corrupted copy for every
model evaluated under it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import _read_container, _read_declared, _read_header, _write_container

EVENT_DROP = "event_drop"
TIME_JITTER = "time_jitter"
BIN_DROP = "bin_drop"
CORRUPTION_FAMILIES = (EVENT_DROP, TIME_JITTER, BIN_DROP)

# Shared severity grid for robustness sweeps.
SEVERITY_GRID = (0.0, 0.1, 0.2, 0.3, 0.4)


@dataclass
class EventStream:
    """Timestamped events on a 1-d coordinate grid with polarity channels."""

    times: np.ndarray  # (n_events,), in [0, duration]
    coords: np.ndarray  # (n_events,), integer coordinates
    polarities: np.ndarray  # (n_events,), integer channel ids
    duration: float
    n_coords: int
    n_polarities: int = 2

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.int64)
        self.polarities = np.asarray(self.polarities, dtype=np.int64)
        n = self.times.shape[0]
        if self.coords.shape != (n,) or self.polarities.shape != (n,):
            raise ValueError("times, coords, and polarities must have equal lengths")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if n and (self.times.min() < 0.0 or self.times.max() > self.duration):
            raise ValueError("event timestamps must lie in [0, duration]")
        if n and (self.coords.min() < 0 or self.coords.max() >= self.n_coords):
            raise ValueError("event coordinates out of range")
        if n and (self.polarities.min() < 0 or self.polarities.max() >= self.n_polarities):
            raise ValueError("event polarities out of range")

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    @property
    def frame_width(self) -> int:
        """Flattened frame width: one block of coordinates per polarity."""
        return self.n_coords * self.n_polarities

    def canonical_sort(self) -> "EventStream":
        """Stable order by (time, coordinate, polarity)."""
        order = np.lexsort((self.polarities, self.coords, self.times))
        return EventStream(
            self.times[order],
            self.coords[order],
            self.polarities[order],
            self.duration,
            self.n_coords,
            self.n_polarities,
        )


def _time_bins(times: np.ndarray, duration: float, n_bins: int) -> np.ndarray:
    """Each time's index among ``n_bins`` uniform bins over [0, duration];
    an event at exactly ``t = duration`` lands in the last bin."""
    return np.minimum((times / duration * n_bins).astype(np.int64), n_bins - 1)


def bin_events(stream: EventStream, n_bins: int, saturation: int = 1) -> np.ndarray:
    """Uniform time binning into (n_bins, frame_width) frames in [0, 1].

    Per-voxel counts saturate at ``saturation`` and are divided by it, so
    the default gives binary frames.  Times are binned by :func:`_time_bins`.
    Channel layout is polarity-major: flat index
    ``polarity * n_coords + coordinate``.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if saturation < 1:
        raise ValueError("saturation must be a positive count")
    bins = _time_bins(stream.times, stream.duration, n_bins)
    flat = stream.polarities * stream.n_coords + stream.coords
    counts = np.zeros((n_bins, stream.frame_width))
    np.add.at(counts, (bins, flat), 1.0)
    return np.minimum(counts, float(saturation)) / float(saturation)


# ---------------------------------------------------------------------------
# Corruption models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionConfig:
    """One corruption: a family, a severity in [0, 1], and a seed."""

    family: str
    severity: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in CORRUPTION_FAMILIES:
            raise ValueError(f"unknown corruption family {self.family!r}")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError(f"severity must lie in [0, 1], got {self.severity}")


def corrupt(frames: np.ndarray, cfg: CorruptionConfig) -> np.ndarray:
    """Corrupted copy of one (n_bins, width) sequence or an (n, n_bins, width) batch.

    Pure in (frames, cfg): one generator seeded by ``cfg.seed`` gives sample
    ``i`` the ``i``-th block of its uniforms, shaped (n_bins, width) for
    event_drop and (n_bins,) otherwise, so a draw never depends on ``n``.
    event_drop zeroes each (bin, channel) cell and bin_drop each whole bin
    with probability p.  time_jitter moves a bin one step back if ``u < p/2``
    and forward if ``p/2 <= u < p``, staying put at the ends; content that
    meets accumulates and is re-clipped to [0, 1].
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ValueError(f"frames must be (n_bins, width) or (n, n_bins, width), got {x.shape}")
    batch = x[None] if x.ndim == 2 else x
    rng = np.random.default_rng(cfg.seed)
    p = cfg.severity
    if cfg.family == EVENT_DROP:
        out = batch * (rng.random(batch.shape) >= p)
    elif cfg.family == BIN_DROP:
        out = batch * (rng.random(batch.shape[:2]) >= p)[:, :, None]
    else:
        u = rng.random(batch.shape[:2])
        back, ahead = u < p / 2, (p / 2 <= u) & (u < p)
        back[:, 0] = ahead[:, -1] = False
        out = batch * ~(back | ahead)[:, :, None]
        out[:, 1:] += batch[:, :-1] * ahead[:, :-1, None]
        out[:, :-1] += batch[:, 1:] * back[:, 1:, None]
        np.minimum(out, 1.0, out=out)
    return out[0] if x.ndim == 2 else out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Binned frame sequences with labels; values validated to [0, 1]."""

    frames: np.ndarray  # (n, n_steps, width)
    labels: np.ndarray  # (n,)
    n_classes: int

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be (n, n_steps, width), got shape {self.frames.shape}")
        if self.labels.shape != (self.frames.shape[0],):
            raise ValueError("need one label per sequence")
        if self.frames.size and not (self.frames.min() >= 0.0 and self.frames.max() <= 1.0):  # NaN fails too
            raise ValueError("frame values must lie in [0, 1]")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels out of range")

    @property
    def n_samples(self) -> int:
        return self.frames.shape[0]

    def subset(self, idx: np.ndarray | Sequence[int]) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.frames[idx], self.labels[idx], self.n_classes)


@dataclass
class SplitDataset:
    train: Dataset
    val: Dataset
    test: Dataset


def measured_input_bound(frames: np.ndarray) -> float:
    """Largest per-step frame 2-norm over a whole array of sequences."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    return float(np.sqrt((x**2).sum(axis=2)).max())


BLOCK_STYLE = "blocks"
RATE_STYLE = "rate"


@dataclass(frozen=True)
class SynthTaskConfig:
    """Synthetic event-stream classification task.

    Two generative styles.  ``"blocks"``: class ``c`` emits a burst of
    events on its own coordinate block during its own window of time bins,
    over a low background — classes are spatially separable.  ``"rate"``:
    every class is active everywhere and classes differ only in event rate
    (linearly spaced between ``rate_background`` and ``rate_active``), so
    the only usable signal is overall activity level — the regime where
    graded sub-threshold codes solve the task but all-or-nothing spiking
    needs thresholds placed between the class operating points.

    Rates are mean event counts per (bin, coordinate, polarity) cell.
    """

    n_classes: int = 2
    n_steps: int = 10
    n_coords: int = 32
    n_polarities: int = 2
    n_train: int = 256
    n_val: int = 128
    n_test: int = 128
    rate_active: float = 3.0
    rate_background: float = 0.05
    duration: float = 1.0
    style: str = BLOCK_STYLE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.n_coords < self.n_classes or self.n_steps < self.n_classes:
            raise ValueError("need at least one coordinate and one bin per class")
        if self.style not in (BLOCK_STYLE, RATE_STYLE):
            raise ValueError(f"unknown task style {self.style!r}")
        if self.rate_background < 0.0:
            raise ValueError("rates are mean event counts and cannot be negative")
        if self.rate_active <= self.rate_background:
            raise ValueError("active rate must exceed the background rate")

    @property
    def frame_width(self) -> int:
        return self.n_coords * self.n_polarities


def _class_rates(cfg: SynthTaskConfig) -> list[np.ndarray]:
    """Each class's mean event count per (bin, polarity, coordinate) cell."""
    shape = (cfg.n_steps, cfg.n_polarities, cfg.n_coords)
    if cfg.style == RATE_STYLE:
        span = cfg.rate_active - cfg.rate_background
        return [np.full(shape, cfg.rate_background + span * (c + 1) / cfg.n_classes) for c in range(cfg.n_classes)]
    coord_blocks = np.array_split(np.arange(cfg.n_coords), cfg.n_classes)
    bin_blocks = np.array_split(np.arange(cfg.n_steps), cfg.n_classes)
    tables = []
    for bin_block, coord_block in zip(bin_blocks, coord_blocks):
        rates = np.full(shape, cfg.rate_background)
        rates[np.ix_(bin_block, np.arange(cfg.n_polarities), coord_block)] = cfg.rate_active
        tables.append(rates)
    return tables


def _synth_split(cfg: SynthTaskConfig, n: int, split_id: int) -> Dataset:
    """``n`` labeled samples from the generator seeded by ``(cfg.seed, split_id)``.

    After the label permutation each sample draws, in order, its cells'
    Poisson counts (C order over (bin, polarity, coordinate)) and one
    uniform per event, which places the event at ``(bin + u) * bin_width``.
    Its frame is those events binned as :func:`bin_events` bins them at
    saturation 1, written without building an :class:`EventStream`; a time
    that rounds past the duration lands in the last bin, as a capped one would.
    """
    rng = np.random.default_rng([cfg.seed, split_id])
    labels = rng.permutation(np.arange(n) % cfg.n_classes)
    rates = _class_rates(cfg)
    cell_ids = np.arange(rates[0].size)
    bin_width = cfg.duration / cfg.n_steps
    frames = np.zeros((n, cfg.n_steps, cfg.frame_width))
    for frame, label in zip(frames, labels):
        cells = np.repeat(cell_ids, rng.poisson(rates[label]).ravel())  # one entry per event
        bins, channels = np.divmod(cells, cfg.frame_width)  # polarity-major channels
        times = (bins + rng.random(cells.size)) * bin_width
        frame[_time_bins(times, cfg.duration, cfg.n_steps), channels] = 1.0
    return Dataset(frames, labels, cfg.n_classes)


def synth_task(cfg: SynthTaskConfig) -> SplitDataset:
    """Generate disjoint train/val/test splits (separate seeded streams)."""
    return SplitDataset(
        train=_synth_split(cfg, cfg.n_train, 0),
        val=_synth_split(cfg, cfg.n_val, 1),
        test=_synth_split(cfg, cfg.n_test, 2),
    )


# ---------------------------------------------------------------------------
# Dataset container
#
# Little-endian binary layout (deterministic, no timestamps):
#   magic     4s  b"SNND"
#   version   u32 (currently 1)
#   n         u32 number of sequences
#   n_steps   u32
#   width     u32
#   n_classes u32
#   labels    n * i64
#   frames    n * n_steps * width * f64, C order
# ---------------------------------------------------------------------------

_DATASET_MAGIC = b"SNND"
_DATASET_VERSION = 1
_DATASET_HEADER = ("<IIIII", ("version", "n", "n_steps", "width", "n_classes"))


def save_dataset(path: str, ds: Dataset) -> None:
    """Write a dataset to a deterministic binary file."""
    n, n_steps, width = ds.frames.shape
    values = (_DATASET_VERSION, n, n_steps, width, ds.n_classes)
    labels = np.ascontiguousarray(ds.labels, dtype="<i8").tobytes()
    frames = np.ascontiguousarray(ds.frames, dtype="<f8").tobytes()
    _write_container(path, _DATASET_MAGIC, _DATASET_HEADER, values, labels, frames)


def dataset_header(path: str) -> dict[str, int]:
    """A dataset file's ``n``, ``n_steps``, ``width`` and ``n_classes``, from
    its header alone: no payload byte is read."""
    with open(path, "rb") as fh:
        fields = _read_header(fh, _DATASET_MAGIC, _DATASET_HEADER, _DATASET_VERSION, "dataset")
    return dict(zip(_DATASET_HEADER[1][1:], fields))


def load_frames(path: str) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    Declared sizes are checked against the file length before any read, so
    a truncated or inconsistent file raises ``ValueError`` naming the field.
    """
    container = _read_container(path, _DATASET_MAGIC, _DATASET_HEADER, _DATASET_VERSION, "dataset")
    with container as (fh, (n, n_steps, width, n_classes)):
        for name, size in (("n", n), ("n_steps", n_steps), ("width", width)):
            if size < 1:
                raise ValueError(f"dataset field {name!r} must be at least 1")
        labels = _read_declared(fh, "<i8", n, "n", "dataset")
        frames = _read_declared(fh, "<f8", n * n_steps * width, "n/n_steps/width", "dataset")
    return Dataset(frames.reshape(n, n_steps, width), labels, n_classes)  # native dtypes, copied only if big-endian
