"""Experiment harness: configs, training runs, sweeps, and reports.

A run is fully described by a :class:`RunConfig` (JSON-serializable).  Every
random choice flows from explicit seeds, so a repeated run writes identical
metrics (wall-clock columns aside) and bit-identical checkpoints.

Evaluation discipline: hard-mode numbers come from the same checkpoints as
smooth-mode numbers, with no threshold calibration unless explicitly invoked
through :func:`calibrate_thresholds` — which counts every calibrated
evaluation in a module-level instrumentation counter so protocol purity is
checkable after the fact.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import multiprocessing
import os
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple, Sequence, TextIO, get_args, get_origin, get_type_hints

import numpy as np

from . import events
from .bounds import INIT_CAP_MARGIN, TheoryConstants, assumptions_from, compute_constants, save_constants
from .diagnostics import HARD_MODE, SURROGATE_MODE, SampleStats, accuracies, accuracy, diagnose
from .events import (
    CORRUPTION_FAMILIES,
    SEVERITY_GRID,
    CorruptionConfig,
    Dataset,
    SplitDataset,
    SynthTaskConfig,
    corrupt,
    load_frames,
    synth_task,
)
from .gradients import Batch, _check_labels, _softmax_loss, backward
from .network import (
    ARCTAN,
    FAST_SIGMOID,
    InstabilityError,
    NetworkParams,
    SurrogateSpec,
    constant_bounds_extract,
    drives_stay_serial,
    forward,
    init_network,
    layer_drive,
    lif_layer,
    mode_spec,
    readout,
    run_layers,
    save_checkpoint,
    stack,
    threshold_slices,
)
from .optim import INDEPENDENT, NON_FINITE_POINT, OptimizerConfig, SastOptimizer, epoch_chunks, next_points, step_plan

METRICS_COLUMNS = (
    "seed",
    "epoch",
    "steps",
    "passes",
    "train_loss",
    "val_acc_surrogate",
    "val_acc_hard",
    "val_transfer_gap",
    "diverged",
    "wall_clock_s",
)
# Columns legitimately allowed to differ between reruns of the same config.
NONDETERMINISTIC_COLUMNS = ("wall_clock_s",)

_CALIBRATION_OPS = 0


def calibration_ops() -> int:
    """How many calibrated threshold evaluations have happened in-process."""
    return _CALIBRATION_OPS


def reset_calibration_ops() -> None:
    global _CALIBRATION_OPS
    _CALIBRATION_OPS = 0


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    """Network architecture and initialization."""

    hidden_dims: tuple[int, ...] = (16,)
    alpha: float = 0.5
    theta_init: float = 0.5
    weight_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ValueError(f"hidden_dims must list at least one width, each at least 1, got {list(self.hidden_dims)}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.theta_init < math.inf):  # NaN fails too
            raise ValueError(f"theta_init must be positive and finite, got {self.theta_init}")
        if not math.isfinite(self.weight_scale):
            raise ValueError(f"weight_scale must be finite, got {self.weight_scale}")


@dataclass(frozen=True)
class SurrogateConfig:
    family: str = "arctan"
    slope: float = math.pi

    def __post_init__(self) -> None:
        if self.family not in (ARCTAN, FAST_SIGMOID):  # training runs the smooth forward
            raise ValueError(f"family must be {ARCTAN!r} or {FAST_SIGMOID!r}, got {self.family!r}")
        self.spec()  # refuses a slope out of range, naming it

    def spec(self) -> SurrogateSpec:
        return SurrogateSpec(self.family, self.slope)


@dataclass(frozen=True)
class DataConfig:
    """Where frames come from: the synthetic task or saved dataset files."""

    source: str = "synth"  # "synth" | "file"
    synth: SynthTaskConfig = field(default_factory=SynthTaskConfig)
    train_path: str = ""
    val_path: str = ""
    test_path: str = ""

    def __post_init__(self) -> None:
        if self.source not in ("synth", "file"):
            raise ValueError(f"unknown data source {self.source!r}")


@dataclass(frozen=True)
class TrainSettings:
    """Schedule and bookkeeping for one training run.

    ``pass_budget`` (0 = unlimited) caps the total number of forward+reverse
    passes per seed; compute-matched baselines use it to stop within one
    batch of a reference run's pass count.  Partial trailing minibatches are
    dropped so every step sees a full batch.
    """

    epochs: int = 30
    batch_size: int = 32
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    checkpoint_every: int = 0
    diagnostics_every: int = 0
    pass_budget: int = 0
    method_label: str = ""
    select: str = "best"  # which checkpoint reported metrics come from

    def __post_init__(self) -> None:
        if self.select not in ("best", "final"):
            raise ValueError(f"unknown checkpoint selection {self.select!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        for name in ("epochs", "pass_budget", "checkpoint_every", "diagnostics_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")
        if len(set(self.seeds)) < len(self.seeds):  # each seed trains into its own seed_<s>/
            raise ValueError(f"seeds must not repeat a seed, got {list(self.seeds)}")


@dataclass(frozen=True)
class RunConfig:
    out_dir: str = "runs/run"
    model: ModelConfig = field(default_factory=ModelConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainSettings = field(default_factory=TrainSettings)

    @property
    def method_label(self) -> str:
        if self.train.method_label:
            return self.train.method_label
        if self.optimizer.rho == 0.0:
            return "baseline"
        return f"sast-rho{self.optimizer.rho:g}"


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from nested plain dicts, typed by each dataclass's own fields.

    A leaf must have its field's type exactly, except that a float field
    takes an int; a ``tuple[int, ...]`` field takes a list of ints.  A
    mismatch is a ``ValueError`` naming the path.
    """

    def leaf(hint, value, path: str):
        if get_origin(hint) is tuple:
            item = get_args(hint)[0]
            if isinstance(value, (list, tuple)) and all(type(v) is item for v in value):
                return tuple(value)
            got = type(value).__name__ if not isinstance(value, (list, tuple)) else "a list of other types"
            raise ValueError(f"{path} must be a list of {item.__name__}, got {got}")
        if hint is float and type(value) is int:
            return float(value)
        if type(value) is not hint:
            raise ValueError(f"{path} must be {hint.__name__}, got {type(value).__name__}")
        return value

    def build(cls, d, path: str):
        if not isinstance(d, dict):
            raise ValueError(f"config section {path or '<top level>'!r} must be an object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        hints = get_type_hints(cls)
        kwargs = {}
        for key, value in d.items():
            sub = f"{path}.{key}" if path else key
            kwargs[key] = build(hints[key], value, sub) if is_dataclass(hints[key]) else leaf(hints[key], value, sub)
        return cls(**kwargs)

    return build(RunConfig, raw, "")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def save_config(path: str, cfg: RunConfig) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_overrides(raw: dict, assignments: Sequence[str]) -> dict:
    """Apply ``section.key=json_value`` overrides to a nested config dict.

    Paths must name existing leaves: overriding an unknown key or assigning
    a scalar over a whole section is rejected here, where the offending
    flag is still known, instead of surfacing later as a config error.
    """
    out = json.loads(json.dumps(raw))  # deep copy
    for item in assignments:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form path=value")
        path, _, value = item.partition("=")
        keys = path.strip().split(".")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        for key in keys[:-1]:
            if key not in node or not isinstance(node[key], dict):
                raise ValueError(f"override path {path!r} does not name a config section")
            node = node[key]
        leaf = keys[-1]
        if leaf not in node:
            raise ValueError(f"override path {path!r} does not name an existing entry")
        if isinstance(node[leaf], dict):
            raise ValueError(f"override path {path!r} names a section, not a value")
        node[leaf] = parsed
    return out


def load_data(cfg: DataConfig) -> SplitDataset:
    if cfg.source == "synth":
        return synth_task(cfg.synth)
    paths = {"train": cfg.train_path, "val": cfg.val_path, "test": cfg.test_path}
    for name, path in paths.items():
        if not path:
            raise ValueError(f"file data source needs a {name}_path")
    headers = {name: events.dataset_header(path) for name, path in paths.items()}
    for name in ("val", "test"):
        for key in ("n_classes", "width"):
            got, want = headers[name][key], headers["train"][key]
            if got != want:
                raise ValueError(f"{name} split has {key} {got}, but the train split has {want}")
    return SplitDataset(**{name: load_frames(path) for name, path in paths.items()})


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    seed: int
    best_epoch: int
    selected_epoch: int  # the epoch of the checkpoint the accuracies come from (see ``_Arm.selected``)
    best_params: NetworkParams
    final_params: NetworkParams
    passes: int
    steps: int
    val_acc_surrogate: float
    val_acc_hard: float
    test_acc_surrogate: float
    test_acc_hard: float
    diverged: bool
    diverged_reason: str | None  # the error message, or "non-finite loss"; None if healthy
    diverged_step: int | None  # 1-based optimizer step that diverged; None if healthy
    metrics_path: str
    checkpoint_path: str


@dataclass
class TrainResult:
    run_dir: str
    config: RunConfig
    seeds: list[SeedResult]

    def records(self) -> list[dict]:
        return [seed_record(s) for s in self.seeds]


def planned_passes(cfg: RunConfig, n_train: int) -> int:
    """Forward+reverse passes one seed will consume under the schedule."""
    per_epoch = sum(map(len, step_plan(cfg.optimizer, n_train // cfg.train.batch_size)))
    total = per_epoch * cfg.train.epochs
    if cfg.train.pass_budget:
        total = min(total, cfg.train.pass_budget)
    return total


def _initial_network(cfg: RunConfig, data: SplitDataset, seed: int) -> NetworkParams:
    """The seed's starting parameters, shared by training and overhead timing."""
    return init_network(
        (data.train.frames.shape[2], *cfg.model.hidden_dims),
        data.train.n_classes,
        alpha=cfg.model.alpha,
        theta=cfg.model.theta_init,
        weight_scale=cfg.model.weight_scale,
        seed=np.random.default_rng([seed, 101]),
    )


# The model field that sets each initial cap (see bounds.assumptions_from).
_CAP_FIELDS = (("m_a", "weight_scale"), ("m_theta", "theta_init"), ("m_out", "weight_scale"))


def _seed_start(cfg: RunConfig, data: SplitDataset, r_x: float, seed: int) -> tuple[NetworkParams, TheoryConstants]:
    """The seed's starting parameters and the constants of their caps, inflated by
    ``INIT_CAP_MARGIN``.  A weight drawn, or a cap, out of the float range is
    refused, naming the model field it comes from."""
    model = cfg.model
    try:
        with np.errstate(over="ignore"):
            params = _initial_network(cfg, data, seed)
    except ValueError as exc:  # the other model fields are checked at decode: only the draw can fail
        message = f"model.weight_scale={model.weight_scale!r} draws initial weights that overflow: {exc}"
        raise ValueError(message) from None
    caps = constant_bounds_extract(params)
    for cap, name in _CAP_FIELDS:
        if not math.isfinite(getattr(caps, cap) * INIT_CAP_MARGIN):
            raise ValueError(f"model.{name}={getattr(model, name)!r} makes the initial cap {cap} overflow")
    assume = assumptions_from(params, cfg.surrogate.spec(), r_x, data.train.frames.shape[1], margin=INIT_CAP_MARGIN)
    return params, compute_constants(assume)


def train(cfg: RunConfig, data: SplitDataset | None = None) -> TrainResult:
    """Train one configuration over its seed list.

    ``rho = 0`` trains with single-pass updates; ``rho > 0`` with two-pass
    sharpness-aware updates (second batch per the optimizer's policy).  Data
    is built once and shared across seeds, so compared methods trained with
    the same data config see identical splits.  This is the lockstep
    driver of :func:`run_transfer_study` with one run.
    """
    if data is None:
        data = load_data(cfg.data)
    return _train_lockstep([cfg], data)[0]


class _Group:
    """A seed's lockstep runs' iterates and the points their next passes
    evaluate: one (M, P) buffer each, whose row ``m`` is run ``m``'s."""

    def __init__(self, params: NetworkParams, n_rows: int):
        self.iterates = np.tile(params.buffer, (n_rows, 1))
        self.queries = self.iterates.copy()
        self.layout = (params.dims, params.n_classes, params.alpha)
        self.thresholds = threshold_slices(params)
        self._runs: dict[tuple[int, int], NetworkParams] = {}  # the networks over runs of query rows

    def net(self, buffer: np.ndarray) -> NetworkParams:
        return NetworkParams._over(buffer, *self.layout)

    def rows(self, arms: Sequence[_Arm]) -> slice | list[int]:
        """The rows of ``arms``, in group order: a slice when they are consecutive."""
        start, n = arms[0].row, len(arms)
        return slice(start, start + n) if arms[-1].row - start == n - 1 else [arm.row for arm in arms]

    def queried(self, arms: Sequence[_Arm], rows: slice | list[int]) -> NetworkParams:
        """The networks at ``arms``' query points, for one pass: a lone arm's own
        network, consecutive rows a view of the query buffer, and scattered
        rows (once an arm between them has stopped) a stacked copy."""
        if len(arms) == 1:
            return arms[0].query
        if isinstance(rows, list):
            return stack([arm.query for arm in arms])
        key = (rows.start, rows.stop)
        if key not in self._runs:
            self._runs[key] = self.net(self.queries[rows])
        return self._runs[key]


@dataclass(eq=False)
class _Arm:
    """One configuration's run of one seed: its iterate, records and open files."""

    cfg: RunConfig
    seed: int
    val: Dataset  # the diagnostics rows read its first 64 samples
    row: int  # the run's row of its group's buffers
    params: NetworkParams  # the iterate: a view of the group's iterate row
    query: NetworkParams  # the point the next pass evaluates: a view of the group's query row
    files: contextlib.ExitStack  # holds the open CSV files
    metrics: TextIO
    best: tuple[float, int, NetworkParams]  # (val surrogate acc, epoch, params)
    passes: int = 0
    steps: int = 0
    epoch: int = 0  # the last epoch recorded: the final iterate's
    diverged_reason: str | None = None  # the error message, or "non-finite loss"
    diagnostics: TextIO | None = None
    losses: list[float] = field(default_factory=list)  # this epoch's first-pass losses
    loss_first: float = math.nan  # the current step's first-pass loss

    @classmethod
    def start(
        cls,
        cfg: RunConfig,
        seed: int,
        val: Dataset,
        group: _Group,
        row: int,
        constants: TheoryConstants,
        files: contextlib.ExitStack,
    ) -> _Arm:
        seed_dir = os.path.join(cfg.out_dir, f"seed_{seed}")
        os.makedirs(os.path.join(seed_dir, "checkpoints"), exist_ok=True)
        save_constants(os.path.join(seed_dir, "constants.json"), constants)
        metrics = files.enter_context(open(os.path.join(seed_dir, "metrics.csv"), "w", newline=""))
        csv.DictWriter(metrics, fieldnames=METRICS_COLUMNS).writeheader()
        params, query = group.net(group.iterates[row]), group.net(group.queries[row])
        return cls(cfg, seed, val, row, params, query, files, metrics, best=(-1.0, 0, params.copy()))

    def path(self, *parts: str) -> str:
        return os.path.join(self.cfg.out_dir, f"seed_{self.seed}", *parts)

    @property
    def diverged(self) -> bool:
        return self.diverged_reason is not None

    @property
    def training(self) -> bool:
        """Whether the arm runs further steps: it has neither diverged nor
        spent its pass budget, which grows only when a step finishes."""
        budget = self.cfg.train.pass_budget
        return not (self.diverged or (budget and self.passes >= budget))

    def take(self, loss: float, failure: str | None, i: int, n: int) -> None:
        """Take pass ``i`` of the current step's ``n``: its loss, and why its pass
        or the point that it led to failed, if one did.  :func:`_round` has
        written that point to ``query``.  A finished step's point becomes the
        iterate once the step's first-pass loss is finite; that iterate's own
        loss and forward are not known until the next step or validation."""
        if failure is not None:
            self.diverged_reason = failure
            return
        if i == 0:
            self.loss_first = loss
        if i < n - 1:
            return
        if not np.isfinite(self.loss_first):  # the arm keeps the iterate that this step started from
            self.diverged_reason = "non-finite loss"
            return
        np.copyto(self.params.buffer, self.query.buffer)
        self.losses.append(self.loss_first)
        self.passes += n
        self.steps += 1

    def end_epoch(self, epoch: int, acc_s: float, acc_h: float, wall_s: float) -> bool:
        """Record the epoch; whether the arm trains another one."""
        train = self.cfg.train
        self.epoch = epoch
        _write_row(
            self.metrics,
            {
                "seed": self.seed,
                "epoch": epoch,
                "steps": self.steps,
                "passes": self.passes,
                "train_loss": float(np.mean(self.losses)) if self.losses else math.nan,
                "val_acc_surrogate": acc_s,
                "val_acc_hard": acc_h,
                "val_transfer_gap": acc_s - acc_h,
                "diverged": int(self.diverged),
                "wall_clock_s": wall_s,
            },
        )
        # Ties go to the most-trained checkpoint, so a plateaued run
        # reports its converged iterate rather than the first epoch
        # that happened to touch the plateau.
        if not self.diverged and acc_s >= self.best[0]:
            self.best = (acc_s, epoch, self.params.copy())
        if train.checkpoint_every and epoch % train.checkpoint_every == 0:
            save_checkpoint(self.path("checkpoints", f"epoch_{epoch:03d}.bin"), self.params, self.cfg.surrogate.spec())
        if train.diagnostics_every and not self.diverged and epoch % train.diagnostics_every == 0:
            report = diagnose(
                self.params,
                self.cfg.surrogate.spec(),
                self.val.frames[:64],
                self.val.labels[:64],
                rho=self.cfg.optimizer.rho if self.cfg.optimizer.rho > 0.0 else 0.1,
            )
            row = {"seed": self.seed, "epoch": epoch, **report.to_row()}
            if self.diagnostics is None:
                self.diagnostics = self.files.enter_context(open(self.path("diagnostics.csv"), "w", newline=""))
                csv.DictWriter(self.diagnostics, fieldnames=list(row)).writeheader()
            _write_row(self.diagnostics, row)
        return self.training and epoch < train.epochs

    def selected(self) -> NetworkParams:
        """The checkpoint reported metrics come from: the best one, or the final iterate under
        ``select="final"``.  A diverged run reports its best checkpoint.  Its final iterate is the
        one its last finite-loss step produced, whose own loss or forward may not be finite."""
        return self.params if self.cfg.train.select == "final" and not self.diverged else self.best[2]

    def finish(self, val_s: float, val_h: float, test_s: float, test_h: float) -> SeedResult:
        """Write the best and final checkpoints; the seed's result, with the selected checkpoint's accuracies."""
        spec = self.cfg.surrogate.spec()
        save_checkpoint(self.path("checkpoints", "best.bin"), self.best[2], spec)
        save_checkpoint(self.path("checkpoints", "final.bin"), self.params, spec)
        selected_final = self.selected() is self.params
        return SeedResult(
            seed=self.seed,
            best_epoch=self.best[1],
            selected_epoch=self.epoch if selected_final else self.best[1],
            best_params=self.best[2],
            final_params=self.params,
            passes=self.passes,
            steps=self.steps,
            val_acc_surrogate=val_s,
            val_acc_hard=val_h,
            test_acc_surrogate=test_s,
            test_acc_hard=test_h,
            diverged=self.diverged,
            diverged_reason=self.diverged_reason,
            diverged_step=self.steps + 1 if self.diverged else None,
            metrics_path=self.path("metrics.csv"),
            checkpoint_path=self.path("checkpoints", "final.bin" if selected_final else "best.bin"),
        )


def _write_row(fh: TextIO, row: dict) -> None:
    """Append one CSV row.  The writer lives for the row only: each keeps a
    128 KiB buffer once it has written, and a study holds a file per arm."""
    csv.DictWriter(fh, fieldnames=list(row)).writerow(row)


class _ArmSeed(NamedTuple):
    """One configuration's run of one seed: a share item of :func:`_train_lockstep`."""

    seed: int
    cfg: RunConfig

    def __str__(self) -> str:  # the run's seed directory, below the run's parent
        return f"{os.path.basename(os.path.normpath(self.cfg.out_dir))}/seed_{self.seed}"


def _train_lockstep(cfgs: Sequence[RunConfig], data: SplitDataset) -> list[TrainResult]:
    """Train every configuration seed by seed, with the seed's runs in lockstep.

    The runs of a seed start from the same network and draw the same
    permutation each epoch, so pass ``i`` of the baseline and pass ``i`` of
    every independent-batch radius read the same chunk: one stacked pass
    answers them all, and each run's slice of it is bit-identical to its
    lone pass.  The configurations must share the model, surrogate, seeds
    and batch size.

    The arm-seeds (seed-major, runs in configuration order) are split into
    shares that train on every core the process may run on (see
    :func:`_shares`).  A share trains each of its seeds' runs in lockstep,
    so a seed whose runs two shares split trains half in each; both halves
    start from the same network and draw the same permutations, so every
    result is the one a single process writes.
    """
    first = cfgs[0]
    shared = [(c.model, c.surrogate, c.train.seeds, c.train.batch_size) for c in cfgs]
    if any(key != shared[0] for key in shared):
        raise ValueError("lockstep runs must share model, surrogate, seeds and batch size")
    n_train = data.train.n_samples
    for cfg in cfgs:
        if cfg.train.epochs > 0 and planned_passes(cfg, n_train) == 0:
            raise ValueError(
                f"batch_size {cfg.train.batch_size} leaves {cfg.method_label} no training step"
                f" in the {n_train}-sample train split"
            )
    r_x = events.measured_input_bound(data.train.frames)
    for seed in first.train.seeds:  # a start out of range is refused before any file; each share builds its own
        _seed_start(first, data, r_x, seed)
    for cfg in cfgs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        save_config(os.path.join(cfg.out_dir, "config.json"), cfg)
    dims = (data.train.frames.shape[2], *first.model.hidden_dims)
    arm_seeds = [_ArmSeed(seed, cfg) for seed in first.train.seeds for cfg in cfgs]
    passes = [planned_passes(item.cfg, n_train) for item in arm_seeds]

    def train_share(share: tuple[_ArmSeed, ...]) -> list[SeedResult]:
        return [
            result
            for seed, group in itertools.groupby(share, key=lambda item: item.seed)
            for result in _train_seed([item.cfg for item in group], data, r_x, seed)
        ]

    shares = _shares(arm_seeds, passes, _FORK_MIN_PASSES, dims)
    results = _run_shares(shares, train_share, "training", "arm-seeds")
    runs = [
        TrainResult(run_dir=cfg.out_dir, config=cfg, seeds=results[k :: len(cfgs)])
        for k, cfg in enumerate(cfgs)
    ]
    for run in runs:
        _write_summary(run)
    return runs


def _train_seed(cfgs: Sequence[RunConfig], data: SplitDataset, r_x: float, seed: int) -> list[SeedResult]:
    """Train one seed's runs in lockstep and write their files; each run's result."""
    spec = cfgs[0].surrogate.spec()
    params, constants = _seed_start(cfgs[0], data, r_x, seed)
    group = _Group(params, len(cfgs))
    with contextlib.ExitStack() as files:
        arms = [_Arm.start(cfg, seed, data.val, group, m, constants, files) for m, cfg in enumerate(cfgs)]
        _run_epochs(group, arms, spec, data, np.random.default_rng([seed, 202]))
    selected = [arm.selected() for arm in arms]
    accs = [
        accuracies(selected, spec, split.frames, split.labels, mode)
        for split in (data.val, data.test)
        for mode in (SURROGATE_MODE, HARD_MODE)
    ]
    return [arm.finish(*arm_accs) for arm, arm_accs in zip(arms, zip(*accs))]


# Children are forked copies of this process: they inherit the data and the
# configurations, and only their results cross a pipe.  It is imported with
# this module: an import inside a run would count in that run's traced memory.
# Where the platform cannot fork (Windows) it is None, and all work runs in
# this process.
_FORK = multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None

# Planned passes of a training group (summed over all its arm-seeds) below
# which every arm-seed trains in this process.  The benchmark's eval study
# (one seed, the baseline and one radius: a one-run share each) was timed
# forked on two cores and in one process, alternately, in a process that had
# run the benchmark's other phases (2-vCPU Xeon).  Forked it took 0.99-1.07
# times its one-process time at 8 planned passes a share (one epoch), 0.90-0.95
# at 16 and 0.80-0.86 at 48 (medians of 21 pairs, two runs); one earlier run
# of 11 pairs, in a faster spell for the one process, still read 1.04 at 48.
# A share thus breaks even near 8 to 16 planned passes.  64, a share of 32
# on two cores, leaves a margin, forks that study (96 passes), and keeps the
# benchmark's one-epoch studies (16 and 48 passes) in this process, where
# its memory pass traces them.
_FORK_MIN_PASSES = 64

# Sequence-cells (sequences x cells) below which a robustness sweep runs
# in this process.  A cell cost 11-12 us a sequence (a corrupted copy and a
# forward in each mode, on the 48-16-16-16 net).  Forked on two cores, this
# process keeps 7 of the 13 cells of the default grid, and the fork, its
# copy-on-write faults and the collection added 8-12 ms in a 50 MB process
# that had just run the benchmark's other phases.  A sweep over 128
# sequences (1664 sequence-cells) then took 1.06 times its one-process time
# when forked, and one over 256 (3328) 0.73 times (medians of six each,
# 2-vCPU Xeon): it breaks even near 2000.  4096 leaves a margin, and keeps
# the sweeps of test-size splits in this process.
_FORK_MIN_SWEEP_CELLS = 4096

# True in a forked share's child, whose own work then runs in one process:
# the children of a child would only contend for the cores its parent's
# shares already hold.
_IN_SHARE = False


def _cores() -> int:
    """The cores this process may run on (all of the machine's where the
    platform cannot say, as on macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(items: Sequence, weights: Sequence[int], min_size: int, dims: Sequence[int]) -> list[tuple]:
    """Independent ``items`` in consecutive shares, one per core the process
    may run on and at most one per item, for :func:`_run_shares`.

    ``weights`` are the sizes of the items' work (a reused-policy run's
    arm-seed plans twice a baseline's passes).  It is a single share when
    their sum is below ``min_size``, when the platform cannot fork, when
    this process is itself a forked share, or when a network of widths
    ``dims`` has a drive too wide to keep off OpenBLAS's thread pool.  That
    pool already spreads such a drive over the cores, and a forked share
    would wake a pool of its own: a study at hidden widths of 256 took 1.5
    to 2.1 times its one-process wall time when forked (two runs each,
    2-vCPU Xeon).

    Share ``k`` of ``n`` ends at the item where the cumulative weight comes
    nearest ``k / n`` of the total, the later item on a tie, and every share
    keeps at least one item.  So two shares of equal weights split the items
    evenly, the larger share first.
    """
    cumulative = list(itertools.accumulate(weights, initial=0))
    total, ends = cumulative[-1], [0]
    forks = _FORK is not None and not _IN_SHARE and total >= min_size and drives_stay_serial(dims)
    n_shares = max(1, min(_cores(), len(items))) if forks else 1
    for k in range(1, n_shares):
        cuts = range(ends[-1] + 1, len(items) - n_shares + k + 1)
        ends.append(min(cuts, key=lambda i: (abs(cumulative[i] * n_shares - k * total), -i)))
    ends.append(len(items))
    return [tuple(items[a:b]) for a, b in zip(ends, ends[1:])]


def _run_shares(shares: list[tuple], work, verb: str, noun: str) -> list:
    """``work(share)`` for every share, concatenated in share order.

    This process runs the first share; a child forked before it starts runs
    each other one and sends back its results and its calibration-op count,
    which is added to this process's.  A child is named by ``noun`` and its
    share's items (``"seeds 1"``), and its errors by ``verb`` too.  A
    child's exception is raised here, once this process's share is done,
    with the child's traceback as its cause.  Every child has ended when
    this returns or raises: one still running when this process's share
    raises is terminated.
    """
    global _CALIBRATION_OPS
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = _FORK.Pipe(duplex=False)
            name = f"{noun} " + ", ".join(map(str, share))
            child = _FORK.Process(target=_share_child, args=(work, share, sender), name=name)
            child.start()
            sender.close()
            children.append((child, receiver))
        results = list(work(shares[0]))
        for child, receiver in children:
            try:
                outcome, payload, extra = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the child {verb} {child.name} exited with code {child.exitcode}") from None
            if outcome == "error":
                raise payload from RuntimeError(f"in the child {verb} {child.name}:\n{extra}")
            results += payload
            _CALIBRATION_OPS += extra
        return results
    except BaseException:
        for child, _ in children:
            child.terminate()  # no-op for a child that has ended
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()


def _share_child(work, share: tuple, sender) -> None:
    """A forked child's body: send ``("ok", work(share), calibration ops)``,
    or ``("error", exception, traceback text)``.  A planner called in it
    returns a single share (see :func:`_shares`)."""
    global _IN_SHARE
    _IN_SHARE = True
    ops = _CALIBRATION_OPS
    try:
        message = ("ok", work(share), _CALIBRATION_OPS - ops)
    except BaseException as exc:  # raised again in the parent
        message = ("error", exc, traceback.format_exc())
    sender.send(message)
    sender.close()


def _run_epochs(
    group: _Group, arms: list[_Arm], spec: SurrogateSpec, data: SplitDataset, rng: np.random.Generator
) -> None:
    """Train a seed's arms epoch by epoch and validate them with stacked forwards.

    ``wall_clock_s`` is the wall time of the shared epoch.
    """
    n, batch_size = data.train.n_samples, arms[0].cfg.train.batch_size
    live = [arm for arm in arms if arm.cfg.train.epochs > 0]
    epoch = 0
    while live:
        epoch += 1
        t0 = time.perf_counter()
        _run_steps(group, live, spec, data.train, epoch_chunks(n, batch_size, rng))
        acc_s, acc_h = (_validate(live, spec, data.val, mode) for mode in (SURROGATE_MODE, HARD_MODE))
        wall_s = time.perf_counter() - t0
        live = [arm for arm, s, h in zip(live, acc_s, acc_h) if arm.end_epoch(epoch, s, h, wall_s)]


def _validate(arms: list[_Arm], spec: SurrogateSpec, val: Dataset, mode: str) -> list[float]:
    """Each arm's validation accuracy in ``mode``, from stacked forwards.  A
    diverged arm whose iterate's forward raises scores NaN; a training arm's
    error is raised."""
    try:
        return accuracies([arm.params for arm in arms], spec, val.frames, val.labels, mode)
    except InstabilityError:
        if len(arms) > 1:
            return [acc for arm in arms for acc in _validate([arm], spec, val, mode)]
        if not arms[0].diverged:
            raise
        return [math.nan]


def _run_steps(
    group: _Group, arms: list[_Arm], spec: SurrogateSpec, train_set: Dataset, chunks: list[np.ndarray]
) -> None:
    """Run one epoch of every arm's steps, in rounds of one stacked pass per
    chunk read.  Round ``j`` runs pass ``j % n`` of step ``j // n`` of each
    training arm whose steps take ``n`` passes, as :func:`optim.step_plan` plans them."""
    plans = {arm: step_plan(arm.cfg.optimizer, len(chunks)) for arm in arms}
    for arm in arms:
        arm.losses = []
    for j in itertools.count():
        by_chunk: dict[int, list[tuple[_Arm, int, int]]] = {}
        for arm, plan in plans.items():
            n = len(plan[0])
            if j < n * len(plan) and arm.training:
                by_chunk.setdefault(plan[j // n][j % n], []).append((arm, j % n, n))
        if not by_chunk:
            return
        for k, items in by_chunk.items():
            _round(group, items, spec, Batch(train_set.frames[chunks[k]], train_set.labels[chunks[k]]))


def _round(group: _Group, items: list[tuple[_Arm, int, int]], spec: SurrogateSpec, batch: Batch) -> None:
    """Pass ``i`` of ``n`` of each item's arm on the batch: one ``backward`` at
    the arms' query points (see :meth:`_Group.queried`), then one row-wise
    update that writes their next query points.

    If the pass raises, each arm's round is rerun alone, so an arm gets an
    ``InstabilityError`` or ``FloatingPointError`` only when its own pass
    raises it.
    """
    arms = [arm for arm, _, _ in items]
    rows = group.rows(arms)
    try:
        bundle = backward(group.queried(arms, rows), spec, batch)
    except (InstabilityError, FloatingPointError) as exc:
        if len(arms) == 1:
            arms[0].diverged_reason = str(exc)
            return
        for item in items:
            _round(group, [item], spec, batch)
        return
    grads = bundle.grads.buffer.reshape(len(arms), -1)
    failures = _update(group, arms, rows, grads, [i == n - 1 for _, i, n in items])
    for (arm, i, n), loss, failure in zip(items, np.reshape(bundle.loss, -1).tolist(), failures):
        arm.take(loss, failure, i, n)


def _update(group: _Group, arms: list[_Arm], rows: slice | list[int], grads: np.ndarray, last: list[bool]) -> list:
    """Write the arms' next query points from their iterates and pass
    gradients (:func:`optim.next_points`); why each arm's point failed, or
    ``None``.  Consecutive rows are written in place.  A ``FloatingPointError``
    (under ``np.errstate`` set to raise) reruns each row alone, so that only
    the arms whose own rows raise it diverge."""
    w = group.iterates[rows]
    out = group.queries[rows] if isinstance(rows, slice) else np.empty_like(w)
    try:
        finite = next_points(w, grads, [arm.cfg.optimizer for arm in arms], last, group.thresholds, out)
    except FloatingPointError as exc:
        if len(arms) == 1:
            return [str(exc)]
        return [
            failure
            for m, arm in enumerate(arms)
            for failure in _update(group, [arm], slice(arm.row, arm.row + 1), grads[m : m + 1], last[m : m + 1])
        ]
    if isinstance(rows, list):
        group.queries[rows] = out
    return [None if ok else NON_FINITE_POINT for ok in finite.tolist()]


_UNRECORDED = ("best_params", "final_params", "metrics_path", "checkpoint_path")


def seed_record(s: SeedResult) -> dict:
    """One seed's results: ``summary.json``'s ``per_seed`` entry, and the row
    that ``spikesam train`` and ``spikesam study`` emit.  It is the seed's
    :class:`SeedResult` without its networks and paths, plus the two
    transfer gaps."""
    record = {f.name: getattr(s, f.name) for f in fields(s) if f.name not in _UNRECORDED}
    record["val_transfer_gap"] = s.val_acc_surrogate - s.val_acc_hard
    record["test_transfer_gap"] = s.test_acc_surrogate - s.test_acc_hard
    return record


AGGREGATE_KEYS = (
    "val_acc_surrogate",
    "val_acc_hard",
    "val_transfer_gap",
    "test_acc_surrogate",
    "test_acc_hard",
    "test_transfer_gap",
)


def aggregate(records: Sequence[dict]) -> dict[str, SampleStats]:
    """Statistics over seed records, for each of ``AGGREGATE_KEYS`` they all carry.

    Records read back from an older ``summary.json`` may lack a newer key;
    that key is left out rather than failing the rest.
    """
    return {
        key: SampleStats.from_values([r[key] for r in records])
        for key in AGGREGATE_KEYS
        if all(key in r for r in records)
    }


def _write_summary(result: TrainResult) -> None:
    per_seed = result.records()
    summary = {
        "method": result.config.method_label,
        "per_seed": per_seed,
        "aggregate": {key: asdict(stats) for key, stats in aggregate(per_seed).items()},
    }
    with open(os.path.join(result.run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Evaluation and robustness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    mode: str
    accuracy: float
    loss: float | None


def evaluate(params: NetworkParams, spec: SurrogateSpec, ds: Dataset, mode: str) -> EvalReport:
    """Accuracy (and, in smooth mode, mean loss) on a dataset, from one forward pass.

    A label the network cannot emit is refused before the forward, in either mode.
    """
    _check_labels(ds.labels, params.n_classes)
    logits = forward(params, mode_spec(spec, mode), ds.frames, keep_states=False).logits
    acc = float((logits.argmax(axis=1) == ds.labels).mean())
    loss = _softmax_loss(logits, ds.labels)[0] if mode == SURROGATE_MODE else None
    return EvalReport(mode=mode, accuracy=acc, loss=loss)


@dataclass
class RobustnessResult:
    """Accuracy curves over the shared severity grid, per family and mode."""

    severities: tuple[float, ...]
    curves: dict[str, dict[str, list[float]]]  # family -> mode -> accuracy list
    auc: dict[str, dict[str, float]]
    corruption_seed: int


def corrupted_copy(frames: np.ndarray, family: str, severity: float, base_seed: int) -> np.ndarray:
    """Corrupt every sequence in an array with one draw for the whole cell.

    The cell seeds :func:`corrupt` with the first ``uint64`` word of
    ``SeedSequence([base_seed, family index, round(1000 * severity)])``, so
    two models swept under the same settings see identical corrupted inputs,
    a sample's draw does not depend on the array length, and no two (base
    seed, family, severity) cells share a stream.
    """
    cell = [base_seed, CORRUPTION_FAMILIES.index(family), int(round(severity * 1000))]
    seed = int(np.random.SeedSequence(cell).generate_state(1, np.uint64)[0])
    return corrupt(frames, CorruptionConfig(family, severity, seed=seed))


def robustness_sweep(
    params: NetworkParams,
    spec: SurrogateSpec,
    ds: Dataset,
    families: Sequence[str] = CORRUPTION_FAMILIES,
    severities: Sequence[float] = SEVERITY_GRID,
    corruption_seed: int = 0,
) -> RobustnessResult:
    """Accuracy under each corruption family across the severity grid, in both modes.

    Severity 0 leaves frames unchanged, so every family's severity-0 point
    is the clean accuracy, evaluated once per mode.  The summary reports
    the trapezoidal area under each curve; a family list that is empty or
    repeats a family, a grid it cannot score, and a label the network
    cannot emit are refused before any forward.  The cells (the clean
    point, then each family's nonzero severities) are independent, so a
    sweep of ``_FORK_MIN_SWEEP_CELLS`` sequence-cells or more runs them in
    shares on every core (see :func:`_shares`).
    """
    if not families or len(set(families)) < len(families):
        raise ValueError(f"families must name at least one corruption family, each once, got {list(families)}")
    for family in families:
        if family not in CORRUPTION_FAMILIES:
            raise ValueError(f"unknown corruption family {family!r}; expected one of {CORRUPTION_FAMILIES}")
    sev = [float(s) for s in severities]
    if len(sev) < 2:
        raise ValueError(f"a severity grid needs at least two points to have an area, got {sev}")
    for prev, s in zip([-math.inf, *sev], sev):
        if not (prev < s and 0.0 <= s <= 1.0):
            raise ValueError(f"severity {s} breaks the grid {sev}: severities must increase strictly within [0, 1]")
    _check_labels(ds.labels, params.n_classes)
    modes = (SURROGATE_MODE, HARD_MODE)
    cells = ([None] if 0.0 in sev else []) + [(f, s) for f in families for s in sev if s != 0.0]

    def in_both_modes(cell: tuple[str, float] | None) -> dict[str, float]:
        frames = ds.frames if cell is None else corrupted_copy(ds.frames, *cell, corruption_seed)
        return {m: accuracy(params, spec, frames, ds.labels, m) for m in modes}

    shares = _shares(range(len(cells)), [ds.n_samples] * len(cells), _FORK_MIN_SWEEP_CELLS, params.dims)
    results = _run_shares(shares, lambda share: [in_both_modes(cells[i]) for i in share], "sweeping", "cells")
    points = dict(zip(cells, results))
    curves: dict[str, dict[str, list[float]]] = {}
    auc: dict[str, dict[str, float]] = {}
    for family in families:
        family_points = [points[None if s == 0.0 else (family, s)] for s in sev]
        curves[family] = {mode: [point[mode] for point in family_points] for mode in modes}
        auc[family] = {
            mode: float(np.trapezoid(np.asarray(curves[family][mode]), x=np.asarray(sev)))
            for mode in modes
        }
    return RobustnessResult(
        severities=tuple(sev), curves=curves, auc=auc, corruption_seed=corruption_seed
    )


# ---------------------------------------------------------------------------
# Threshold calibration (instrumented)
# ---------------------------------------------------------------------------

CALIBRATION_GRID = tuple(round(0.5 + 0.1 * i, 1) for i in range(11))  # 0.5 .. 1.5
GLOBAL_CALIBRATION = "global"
PER_LAYER_CALIBRATION = "per_layer"


@dataclass(frozen=True)
class CalibrationResult:
    mode: str
    lambdas: tuple[float, ...]  # one entry (global) or one per layer
    val_acc: float
    uncalibrated_val_acc: float
    n_evals: int


def _threshold_scales(lambdas: Sequence[float]) -> list[float]:
    """The scales as floats, refusing by value any that is not positive and finite."""
    scales = [float(lam) for lam in lambdas]
    for lam in scales:
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"threshold scale {lam!r} is not a positive finite number")
    return scales


def apply_threshold_scale(params: NetworkParams, lambdas: Sequence[float]) -> NetworkParams:
    """Scaled-threshold copy from one scale, or one per layer; counts once the scales are accepted."""
    global _CALIBRATION_OPS
    scales = _threshold_scales(lambdas)
    if len(scales) == 1:
        scales = scales * params.n_layers
    if len(scales) != params.n_layers:
        raise ValueError("need one scale, or one per layer")
    _CALIBRATION_OPS += 1
    out = params.copy()
    for layer, lam in zip(out.layers, scales):
        layer.threshold *= lam  # in place: the threshold is a view of out.buffer
    return out


def calibrate_thresholds(
    params: NetworkParams,
    spec: SurrogateSpec,
    ds: Dataset,
    mode: str = GLOBAL_CALIBRATION,
    grid: Sequence[float] = CALIBRATION_GRID,
) -> CalibrationResult:
    """Grid-search threshold scales for hard-mode validation accuracy.

    One pass of coordinate ascent from all-ones over stages, each scanning
    one scale for a run of layers: global mode is one stage over every layer,
    per-layer mode one stage per layer in layer order.  Ties prefer the scale
    closest to 1 (then the smaller scale), so with 1 in the grid the
    calibrated accuracy never falls below the uncalibrated one.  Every
    candidate evaluation increments the calibration instrumentation counter;
    a grid scale that is not positive and finite, or a label the network
    cannot emit, is refused before any.

    A layer's drive ``W z + b`` does not depend on the thresholds, so each
    stage computes the drive of its lowest layer once and every candidate
    runs over it: layer 1's drive also serves the uncalibrated pass, and a
    later stage computes the hard activity entering its lowest layer once,
    under the scales already chosen.  A candidate runs from that layer up on
    :func:`network.run_layers`; the accuracies, and the ``InstabilityError``
    of a candidate that blows up, are those of full forward passes.
    """
    grid = _threshold_scales(grid)
    if not grid:
        raise ValueError("calibration grid is empty")
    if mode not in (GLOBAL_CALIBRATION, PER_LAYER_CALIBRATION):
        raise ValueError(f"unknown calibration mode {mode!r}")
    _check_labels(ds.labels, params.n_classes)
    n_layers = params.n_layers
    stages = [range(n_layers)] if mode == GLOBAL_CALIBRATION else [range(idx, idx + 1) for idx in range(n_layers)]
    hard = mode_spec(spec, HARD_MODE)

    def accuracy_from(net: NetworkParams, start: int, below: np.ndarray, drive: np.ndarray) -> float:
        # ``below`` is the time-major hard activity entering layer ``start``, ``drive`` that layer's drive
        top = run_layers(net, hard, below, False, True, start, drive)[2]  # a blow-up raises, as the forward's would
        return float((readout(net, top)[1].argmax(axis=1) == ds.labels).mean())

    # One scale per stage: apply_threshold_scale spreads a lone scale over every layer.
    lambdas = [1.0] * len(stages)
    below = ds.frames.transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises in run_layers
        drive = layer_drive(params.layers[0], below)
        base_acc = accuracy_from(params, 0, below, drive)
        for k, stage in enumerate(stages):
            if stage.start:  # the stage below is layer ``stage.start - 1``: ``chosen`` ran finite over its drive
                prev = chosen.layers[stage.start - 1]
                below = lif_layer(prev, params.alpha, hard, below, keep_states=False, drive=drive)[1]
                drive = layer_drive(params.layers[stage.start], below)
            cands = []
            for lam in grid:
                scaled = apply_threshold_scale(params, lambdas[:k] + [lam] + lambdas[k + 1:])
                cands.append((lam, accuracy_from(scaled, stage.start, below, drive), scaled))
            # max accuracy; ties toward the scale nearest 1, then the smaller scale
            lambdas[k], best_acc, chosen = max(cands, key=lambda c: (c[1], -abs(c[0] - 1.0), -c[0]))
    return CalibrationResult(
        mode=mode,
        lambdas=tuple(lambdas),
        val_acc=best_acc,
        uncalibrated_val_acc=base_acc,
        n_evals=len(grid) * len(stages),
    )


# ---------------------------------------------------------------------------
# Compute matching and overhead
# ---------------------------------------------------------------------------


def match_compute(cfg: RunConfig, n_train: int) -> RunConfig:
    """Baseline variant of a two-pass config with an equal pass budget.

    The returned config trains with single-pass updates but stops once it
    has consumed the same number of forward+reverse passes the two-pass
    schedule would (exact to within one batch, since single-pass steps
    consume passes one at a time).
    """
    if cfg.optimizer.rho == 0.0:
        raise ValueError("compute matching starts from a two-pass (rho > 0) config")
    budget = planned_passes(cfg, n_train)
    per_epoch = n_train // cfg.train.batch_size
    epochs = math.ceil(budget / per_epoch) if per_epoch else cfg.train.epochs
    return replace(
        cfg,
        out_dir=cfg.out_dir.rstrip("/") + "-matched",
        optimizer=replace(cfg.optimizer, rho=0.0),
        train=replace(
            cfg.train,
            epochs=epochs,
            pass_budget=budget,
            method_label=(cfg.train.method_label or cfg.method_label) + "-matched-baseline",
        ),
    )


def estimate_step_memory(
    params: NetworkParams, batch_size: int, n_steps: int, two_pass: bool
) -> int:
    """Analytic peak bytes for one update (float64 arrays only).

    Counts parameters, gradients, the stored forward trace, and the reverse
    sweep's working set (current layer's three per-step arrays plus the
    adjacent layer's cotangents).  A two-pass update adds three extra
    parameter-sized vectors (perturbation, perturbed point, second gradient);
    the trace is rebuilt per pass, not duplicated, so the ratio to a
    single-pass step stays near one.
    """
    p_count = params.buffer.size
    dims = params.dims
    trace = batch_size * n_steps * (dims[0] + 2 * sum(dims[1:])) * 8
    d_max = max(dims[1:])
    d_pair = max(
        (dims[i] + dims[i + 1] for i in range(1, len(dims) - 1)), default=d_max
    )
    sweep = batch_size * n_steps * max(3 * d_max, 2 * d_max + d_pair) * 8
    base = 2 * p_count * 8 + trace + sweep
    if two_pass:
        base += 3 * p_count * 8
    return base


@dataclass(frozen=True)
class OverheadReport:
    """Measured cost of a two-pass step relative to a single-pass step."""

    time_factor: float
    memory_factor: float
    single_pass_step_s: float
    two_pass_step_s: float
    single_pass_bytes: int
    two_pass_bytes: int


# Steps timed by ``measure_overhead``, after its untimed warm-up steps.
OVERHEAD_STEPS = 20
OVERHEAD_WARMUP = 3


def measure_overhead(cfg: RunConfig, data: SplitDataset | None = None) -> OverheadReport:
    """Time matched single-pass and two-pass updates on identical batches.

    Both variants walk the same batch schedule from the same initial
    parameters; reported times are medians over the ``OVERHEAD_STEPS``
    timed steps, which follow ``OVERHEAD_WARMUP`` untimed ones.  The two
    variants' steps alternate, so a change in machine speed during the
    measurement moves both medians alike.  Memory is the analytic per-step
    estimate (the arrays are exact, allocator slack is not modeled).
    """
    if data is None:
        data = load_data(cfg.data)
    spec = cfg.surrogate.spec()
    params0 = _initial_network(cfg, data, cfg.train.seeds[0])
    rng = np.random.default_rng([cfg.train.seeds[0], 303])
    n = data.train.n_samples
    bs = cfg.train.batch_size
    batches = []
    for _ in range(OVERHEAD_STEPS + OVERHEAD_WARMUP):
        idx = rng.choice(n, size=min(bs, n), replace=False)
        idx2 = rng.choice(n, size=min(bs, n), replace=False)
        batches.append(
            (
                Batch(data.train.frames[idx], data.train.labels[idx]),
                Batch(data.train.frames[idx2], data.train.labels[idx2]),
            )
        )

    rho = cfg.optimizer.rho if cfg.optimizer.rho > 0.0 else 0.05

    single_opt = SastOptimizer(replace(cfg.optimizer, rho=0.0))
    double_opt = SastOptimizer(replace(cfg.optimizer, rho=rho))
    single = double = params0  # steps never write to the network they are given
    single_times, double_times = [], []
    for i, (batch, second) in enumerate(batches):
        t0 = time.perf_counter()
        single, _ = single_opt.baseline_step(single, spec, batch)
        t1 = time.perf_counter()
        double, _ = double_opt.sast_step(double, spec, batch, second)
        if i >= OVERHEAD_WARMUP:
            single_times.append(t1 - t0)
            double_times.append(time.perf_counter() - t1)
    t_single = float(np.median(single_times))
    t_double = float(np.median(double_times))
    m_single = estimate_step_memory(params0, bs, data.train.frames.shape[1], False)
    m_double = estimate_step_memory(params0, bs, data.train.frames.shape[1], True)
    return OverheadReport(
        time_factor=t_double / t_single,
        memory_factor=m_double / m_single,
        single_pass_step_s=t_single,
        two_pass_step_s=t_double,
        single_pass_bytes=m_single,
        two_pass_bytes=m_double,
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_transfer_table(by_method: dict[str, Sequence[dict]]) -> str:
    """Fixed-width text table of seed records per method: test accuracies as
    mean +/- std, the test gap as median [IQR]."""
    lines = [
        f"{'method':<24} {'n':>2}  {'smooth acc':>18}  {'hard acc':>18}  {'gap median [IQR]':>20}"
    ]
    for method, records in by_method.items():
        stats = aggregate(records)
        smooth, hard, gap = (
            stats[k] for k in ("test_acc_surrogate", "test_acc_hard", "test_transfer_gap")
        )
        lines.append(
            f"{method:<24} {len(records):>2}  "
            f"{smooth.mean:.4f} +/- {smooth.std:.4f}  "
            f"{hard.mean:.4f} +/- {hard.std:.4f}  "
            f"{gap.median:.4f} [{gap.iqr:.4f}]"
        )
    return "\n".join(lines)


def report(run_dirs: Sequence[str], out_path: str | None = None) -> str:
    """Transfer table over run directories; directories sharing a method label
    pool their seeds into one row, in first-seen order."""
    by_method: dict[str, list[dict]] = {}
    for d in run_dirs:
        with open(os.path.join(d, "summary.json")) as fh:
            summary = json.load(fh)
        by_method.setdefault(summary["method"], []).extend(summary["per_seed"])
    table = format_transfer_table(by_method)
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as fh:
            fh.write(table + "\n")
    return table


# ---------------------------------------------------------------------------
# Transfer study (baseline vs. two-pass across the radius grid)
# ---------------------------------------------------------------------------

RHO_GRID = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def default_transfer_config(out_dir: str = "runs/transfer-study") -> RunConfig:
    """The packaged hard-transfer benchmark configuration.

    Three hidden layers with a gentle surrogate slope keep every layer's
    code in the graded mid-range, so binarization error compounds with
    depth: single-pass training converges to solutions that lose about a
    tenth of their accuracy when spikes go hard, while flatter two-pass
    solutions at moderate radius keep the loss.  Thresholds stay frozen at
    init so the operating point is set by the drive the weights build up.
    """
    return RunConfig(
        out_dir=out_dir,
        model=ModelConfig(hidden_dims=(16, 16, 16), alpha=0.6, theta_init=0.5, weight_scale=1.5),
        surrogate=SurrogateConfig(family="arctan", slope=0.7),
        optimizer=OptimizerConfig(eta=0.5, rho=0.0, second_batch=INDEPENDENT, train_threshold=False),
        data=DataConfig(
            source="synth",
            synth=SynthTaskConfig(
                n_classes=2,
                n_steps=8,
                n_coords=24,
                n_polarities=2,
                n_train=256,
                n_val=128,
                n_test=256,
                rate_active=0.50,
                rate_background=0.25,
                style="blocks",
                seed=0,
            ),
        ),
        train=TrainSettings(epochs=200, batch_size=32, seeds=(0, 1, 2, 3, 4), select="final"),
    )


@dataclass
class TransferStudyResult:
    baseline: TrainResult
    by_rho: dict[float, TrainResult]
    best_rho: float
    baseline_gap_median: float
    best_gap_median: float
    baseline_surrogate_median: float
    best_surrogate_median: float
    val_scores: dict[float, tuple[float, float]]  # rho -> (median val hard acc, median val gap)

    def to_dict(self) -> dict:
        """Headline numbers, radius scores and the baseline and best-radius seed records."""
        return {
            "best_rho": self.best_rho,
            "baseline_gap_median": self.baseline_gap_median,
            "best_gap_median": self.best_gap_median,
            "baseline_surrogate_median": self.baseline_surrogate_median,
            "best_surrogate_median": self.best_surrogate_median,
            "val_scores": {f"{r:g}": list(self.val_scores[r]) for r in sorted(self.val_scores)},
            "rows": [
                {"method": run.config.method_label, **record}
                for run in (self.baseline, self.by_rho[self.best_rho])
                for record in run.records()
            ],
        }


def run_transfer_study(
    base_cfg: RunConfig, rho_grid: Sequence[float] = RHO_GRID, data: SplitDataset | None = None
) -> TransferStudyResult:
    """Train a baseline and one two-pass run per radius; pick the best radius.

    All runs share the seed list and the data splits; each seed's runs
    train in lockstep (see :func:`_train_lockstep`), with results
    bit-identical to separate :func:`train` calls.  The radius is chosen
    by median validation hard accuracy (ties: smaller validation gap, then
    smaller radius); reported numbers are test metrics at each seed's
    selected checkpoint (``TrainSettings.select``).
    """
    if data is None:
        data = load_data(base_cfg.data)
    base_dir = base_cfg.out_dir.rstrip("/")
    baseline_cfg = replace(
        base_cfg,
        out_dir=f"{base_dir}/baseline",
        optimizer=replace(base_cfg.optimizer, rho=0.0),
    )
    rhos = list(dict.fromkeys(float(rho) for rho in rho_grid))  # a repeated radius would share its files
    rho_cfgs = [
        replace(base_cfg, out_dir=f"{base_dir}/sast-rho{rho:g}", optimizer=replace(base_cfg.optimizer, rho=rho))
        for rho in rhos
    ]
    baseline, *runs = _train_lockstep([baseline_cfg, *rho_cfgs], data)
    by_rho = dict(zip(rhos, runs))
    stats = {rho: aggregate(run.records()) for rho, run in by_rho.items()}
    scores = {
        rho: (s["val_acc_hard"].median, s["val_transfer_gap"].median) for rho, s in stats.items()
    }
    best_rho = min(scores, key=lambda r: (-scores[r][0], scores[r][1], r))
    base, best = aggregate(baseline.records()), stats[best_rho]
    study = TransferStudyResult(
        baseline=baseline,
        by_rho=by_rho,
        best_rho=best_rho,
        baseline_gap_median=base["test_transfer_gap"].median,
        best_gap_median=best["test_transfer_gap"].median,
        baseline_surrogate_median=base["test_acc_surrogate"].median,
        best_surrogate_median=best["test_acc_surrogate"].median,
        val_scores=scores,
    )
    payload = study.to_dict()
    del payload["rows"]
    with open(os.path.join(base_dir, "study.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return study
