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
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import events
from .bounds import assumptions_from, compute_constants, save_constants
from .diagnostics import HARD_MODE, SURROGATE_MODE, SampleStats, accuracy, diagnose
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
from .gradients import Batch, _softmax_loss_and_grad
from .network import (
    InstabilityError,
    NetworkParams,
    SurrogateSpec,
    forward,
    init_network,
    mode_spec,
    parameter_count,
    save_checkpoint,
)
from .optim import INDEPENDENT, OptimizerConfig, SastOptimizer

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


def _count_calibration_op() -> None:
    global _CALIBRATION_OPS
    _CALIBRATION_OPS += 1


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


@dataclass(frozen=True)
class SurrogateConfig:
    family: str = "arctan"
    slope: float = math.pi

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


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    model: ModelConfig = field(default_factory=ModelConfig)
    surrogate: SurrogateConfig = field(default_factory=SurrogateConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(eta=0.5))
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
    """Build a RunConfig from nested plain dicts, rejecting unknown keys."""

    def build(cls, d: dict):
        names = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("hidden_dims", "seeds"):
            if key in kwargs and isinstance(kwargs[key], list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    raw = dict(raw)
    parts = {}
    for key, cls in (
        ("model", ModelConfig),
        ("surrogate", SurrogateConfig),
        ("optimizer", OptimizerConfig),
        ("train", TrainSettings),
    ):
        if key in raw:
            parts[key] = build(cls, raw.pop(key))
    if "data" in raw:
        d = dict(raw.pop("data"))
        if "synth" in d:
            d["synth"] = build(SynthTaskConfig, d["synth"])
        parts["data"] = build(DataConfig, d)
    unknown = set(raw) - {"out_dir"}
    if unknown:
        raise ValueError(f"unknown RunConfig keys: {sorted(unknown)}")
    return RunConfig(out_dir=raw.get("out_dir", "runs/run"), **parts)


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
    for name, path in (("train", cfg.train_path), ("val", cfg.val_path), ("test", cfg.test_path)):
        if not path:
            raise ValueError(f"file data source needs a {name}_path")
    return SplitDataset(
        train=load_frames(cfg.train_path),
        val=load_frames(cfg.val_path),
        test=load_frames(cfg.test_path),
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class SeedResult:
    seed: int
    best_epoch: int
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


def _epoch_batches(
    n: int, batch_size: int, rng: np.random.Generator, paired: bool
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Index batches for one epoch; paired mode yields disjoint (B, B') pairs."""
    order = rng.permutation(n)
    chunks = [order[i : i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]
    if not paired:
        return [(c, None) for c in chunks]
    return [(chunks[i], chunks[i + 1]) for i in range(0, len(chunks) - 1, 2)]


def planned_passes(cfg: RunConfig, n_train: int) -> int:
    """Forward+reverse passes one seed will consume under the schedule."""
    n_chunks = n_train // cfg.train.batch_size
    if cfg.optimizer.rho == 0.0:
        per_epoch = n_chunks
    elif cfg.optimizer.second_batch == INDEPENDENT:
        per_epoch = (n_chunks // 2) * 2
    else:
        per_epoch = n_chunks * 2
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


def train(cfg: RunConfig, data: SplitDataset | None = None) -> TrainResult:
    """Train one configuration over its seed list.

    ``rho = 0`` trains with single-pass updates; ``rho > 0`` with two-pass
    sharpness-aware updates (second batch per the optimizer's policy).  Data
    is built once and shared across seeds, so compared methods trained with
    the same data config see identical splits.
    """
    if data is None:
        data = load_data(cfg.data)
    spec = cfg.surrogate.spec()
    run_dir = cfg.out_dir
    os.makedirs(run_dir, exist_ok=True)
    save_config(os.path.join(run_dir, "config.json"), cfg)

    use_sast = cfg.optimizer.rho > 0.0
    paired = use_sast and cfg.optimizer.second_batch == INDEPENDENT
    budget = cfg.train.pass_budget

    results = []
    for seed in cfg.train.seeds:
        seed_dir = os.path.join(run_dir, f"seed_{seed}")
        ckpt_dir = os.path.join(seed_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)

        params = _initial_network(cfg, data, seed)
        r_x = events.measured_input_bound(data.train.frames)
        save_constants(
            os.path.join(seed_dir, "constants.json"),
            compute_constants(
                assumptions_from(params, spec, r_x, data.train.frames.shape[1], margin=2.0)
            ),
        )

        opt = SastOptimizer(cfg.optimizer)
        rng = np.random.default_rng([seed, 202])
        best = (-1.0, 0, params.copy())  # (val surrogate acc, epoch, params)
        passes = steps = 0
        diverged = False
        diverged_reason: str | None = None
        metrics_path = os.path.join(seed_dir, "metrics.csv")
        diag_path = os.path.join(seed_dir, "diagnostics.csv")
        diag_writer = None

        with contextlib.ExitStack() as files:
            fh = files.enter_context(open(metrics_path, "w", newline=""))
            writer = csv.DictWriter(fh, fieldnames=METRICS_COLUMNS)
            writer.writeheader()
            for epoch in range(1, cfg.train.epochs + 1):
                t0 = time.perf_counter()
                losses = []
                for idx, idx2 in _epoch_batches(
                    data.train.n_samples, cfg.train.batch_size, rng, paired
                ):
                    if budget and passes >= budget:
                        break
                    batch = Batch(data.train.frames[idx], data.train.labels[idx])
                    try:
                        if use_sast:
                            second = (
                                Batch(data.train.frames[idx2], data.train.labels[idx2])
                                if idx2 is not None
                                else None
                            )
                            params, rep = opt.sast_step(params, spec, batch, second)
                        else:
                            params, rep = opt.baseline_step(params, spec, batch)
                    except (InstabilityError, FloatingPointError) as exc:
                        diverged, diverged_reason = True, str(exc)
                        break
                    if not np.isfinite(rep.loss_first):
                        diverged, diverged_reason = True, "non-finite loss"
                        break
                    losses.append(rep.loss_first)
                    passes += rep.n_passes
                    steps += 1

                acc_s = accuracy(params, spec, data.val.frames, data.val.labels, SURROGATE_MODE)
                acc_h = accuracy(params, spec, data.val.frames, data.val.labels, HARD_MODE)
                writer.writerow(
                    {
                        "seed": seed,
                        "epoch": epoch,
                        "steps": steps,
                        "passes": passes,
                        "train_loss": float(np.mean(losses)) if losses else math.nan,
                        "val_acc_surrogate": acc_s,
                        "val_acc_hard": acc_h,
                        "val_transfer_gap": acc_s - acc_h,
                        "diverged": int(diverged),
                        "wall_clock_s": time.perf_counter() - t0,
                    }
                )
                # Ties go to the most-trained checkpoint, so a plateaued run
                # reports its converged iterate rather than the first epoch
                # that happened to touch the plateau.
                if not diverged and acc_s >= best[0]:
                    best = (acc_s, epoch, params.copy())
                if cfg.train.checkpoint_every and epoch % cfg.train.checkpoint_every == 0:
                    save_checkpoint(os.path.join(ckpt_dir, f"epoch_{epoch:03d}.bin"), params, spec)
                if (
                    cfg.train.diagnostics_every
                    and not diverged
                    and epoch % cfg.train.diagnostics_every == 0
                ):
                    report = diagnose(
                        params,
                        spec,
                        data.val.frames[:64],
                        data.val.labels[:64],
                        rho=cfg.optimizer.rho if cfg.optimizer.rho > 0.0 else 0.1,
                    )
                    row = {"seed": seed, "epoch": epoch, **report.to_row()}
                    if diag_writer is None:
                        diag_fh = files.enter_context(open(diag_path, "w", newline=""))
                        diag_writer = csv.DictWriter(diag_fh, fieldnames=list(row))
                        diag_writer.writeheader()
                    diag_writer.writerow(row)
                if diverged or (budget and passes >= budget):
                    break

        best_acc, best_epoch, best_params = best
        save_checkpoint(os.path.join(ckpt_dir, "best.bin"), best_params, spec)
        save_checkpoint(os.path.join(ckpt_dir, "final.bin"), params, spec)
        # A diverged run has a junk final iterate, so fall back to best.
        if cfg.train.select == "final" and not diverged:
            selected, selected_name = params, "final.bin"
        else:
            selected, selected_name = best_params, "best.bin"
        ckpt_path = os.path.join(ckpt_dir, selected_name)
        results.append(
            SeedResult(
                seed=seed,
                best_epoch=best_epoch,
                best_params=best_params,
                final_params=params,
                passes=passes,
                steps=steps,
                val_acc_surrogate=accuracy(
                    selected, spec, data.val.frames, data.val.labels, SURROGATE_MODE
                ),
                val_acc_hard=accuracy(selected, spec, data.val.frames, data.val.labels, HARD_MODE),
                test_acc_surrogate=accuracy(
                    selected, spec, data.test.frames, data.test.labels, SURROGATE_MODE
                ),
                test_acc_hard=accuracy(
                    selected, spec, data.test.frames, data.test.labels, HARD_MODE
                ),
                diverged=diverged,
                diverged_reason=diverged_reason,
                diverged_step=steps + 1 if diverged else None,
                metrics_path=metrics_path,
                checkpoint_path=ckpt_path,
            )
        )

    result = TrainResult(run_dir=run_dir, config=cfg, seeds=results)
    _write_summary(result)
    return result


def seed_record(s: SeedResult) -> dict:
    """One seed's results: ``summary.json``'s ``per_seed`` entry, and the row
    that ``spikesam train`` and ``spikesam study`` emit."""
    return {
        "seed": s.seed,
        "best_epoch": s.best_epoch,
        "passes": s.passes,
        "steps": s.steps,
        "val_acc_surrogate": s.val_acc_surrogate,
        "val_acc_hard": s.val_acc_hard,
        "val_transfer_gap": s.val_acc_surrogate - s.val_acc_hard,
        "test_acc_surrogate": s.test_acc_surrogate,
        "test_acc_hard": s.test_acc_hard,
        "test_transfer_gap": s.test_acc_surrogate - s.test_acc_hard,
        "diverged": s.diverged,
        "diverged_reason": s.diverged_reason,
        "diverged_step": s.diverged_step,
    }


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


def metrics_equal(path_a: str, path_b: str, ignore: Sequence[str] = NONDETERMINISTIC_COLUMNS) -> bool:
    """Whether two metrics tables agree outside the wall-clock columns."""

    def rows(path: str) -> list[dict]:
        with open(path, newline="") as fh:
            return [
                {k: v for k, v in row.items() if k not in ignore}
                for row in csv.DictReader(fh)
            ]

    return rows(path_a) == rows(path_b)


# ---------------------------------------------------------------------------
# Evaluation and robustness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    mode: str
    accuracy: float
    loss: float | None


def evaluate(params: NetworkParams, spec: SurrogateSpec, ds: Dataset, mode: str) -> EvalReport:
    """Accuracy (and, in smooth mode, mean loss) on a dataset, from one forward pass."""
    batch = Batch(ds.frames, ds.labels)
    logits = forward(params, mode_spec(spec, mode), batch.inputs).logits
    acc = float((logits.argmax(axis=1) == batch.labels).mean())
    loss = _softmax_loss_and_grad(logits, batch.labels)[0] if mode == SURROGATE_MODE else None
    return EvalReport(mode=mode, accuracy=acc, loss=loss)


@dataclass
class RobustnessResult:
    """Accuracy curves over the shared severity grid, per family and mode."""

    severities: tuple[float, ...]
    curves: dict[str, dict[str, list[float]]]  # family -> mode -> accuracy list
    auc: dict[str, dict[str, float]]
    corruption_seed: int

    def to_dict(self) -> dict:
        return {
            "severities": list(self.severities),
            "curves": self.curves,
            "auc": self.auc,
            "corruption_seed": self.corruption_seed,
        }


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
    modes: Sequence[str] = (SURROGATE_MODE, HARD_MODE),
    corruption_seed: int = 0,
) -> RobustnessResult:
    """Accuracy under each corruption family across the severity grid.

    Severity 0 leaves frames unchanged, so every family's severity-0 point
    is the clean accuracy, evaluated once per mode.  The summary reports
    the trapezoidal area under each accuracy-severity curve.
    """
    curves: dict[str, dict[str, list[float]]] = {}
    auc: dict[str, dict[str, float]] = {}
    sev = [float(s) for s in severities]

    def accuracies(frames: np.ndarray) -> dict[str, float]:
        return {m: accuracy(params, spec, frames, ds.labels, m) for m in modes}

    clean = accuracies(ds.frames) if 0.0 in sev else {}
    for family in families:
        points = [
            clean if s == 0.0 else accuracies(corrupted_copy(ds.frames, family, s, corruption_seed))
            for s in sev
        ]
        curves[family] = {mode: [point[mode] for point in points] for mode in modes}
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


def apply_threshold_scale(params: NetworkParams, lambdas: Sequence[float]) -> NetworkParams:
    """Scaled-threshold copy; counts as a calibration operation."""
    _count_calibration_op()
    scales = list(lambdas)
    if len(scales) == 1:
        scales = scales * params.n_layers
    if len(scales) != params.n_layers:
        raise ValueError("need one scale, or one per layer")
    out = params.copy()
    for layer, lam in zip(out.layers, scales):
        if lam <= 0.0:
            raise ValueError("threshold scales must be positive")
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

    Global mode scans one shared scale; per-layer mode runs one pass of
    coordinate ascent in layer order starting from all-ones.  Ties prefer
    the scale closest to 1 (then the smaller scale), so with 1 in the grid
    the calibrated accuracy never falls below the uncalibrated one.  Every
    candidate evaluation increments the calibration instrumentation counter.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("calibration grid is empty")
    base_acc = accuracy(params, spec, ds.frames, ds.labels, HARD_MODE)
    n_evals = 0

    def eval_scales(scales: list[float]) -> float:
        nonlocal n_evals
        scaled = apply_threshold_scale(params, scales)
        n_evals += 1
        return accuracy(scaled, spec, ds.frames, ds.labels, HARD_MODE)

    def pick(cands: list[tuple[float, float]]) -> tuple[float, float]:
        # (scale, acc): max acc, ties toward scale nearest 1 then smaller scale
        return max(cands, key=lambda sa: (sa[1], -abs(sa[0] - 1.0), -sa[0]))

    if mode == GLOBAL_CALIBRATION:
        best_lam, best_acc = pick([(lam, eval_scales([lam])) for lam in grid])
        lambdas = (best_lam,)
    elif mode == PER_LAYER_CALIBRATION:
        scales = [1.0] * params.n_layers
        for layer_idx in range(params.n_layers):
            cands = []
            for lam in grid:
                trial = list(scales)
                trial[layer_idx] = lam
                cands.append((lam, eval_scales(trial)))
            scales[layer_idx], best_acc = pick(cands)
        lambdas = tuple(scales)
    else:
        raise ValueError(f"unknown calibration mode {mode!r}")
    return CalibrationResult(
        mode=mode,
        lambdas=lambdas,
        val_acc=best_acc,
        uncalibrated_val_acc=base_acc,
        n_evals=n_evals,
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
    p_count = parameter_count(params)
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


def measure_overhead(
    cfg: RunConfig,
    data: SplitDataset | None = None,
    n_steps: int = 20,
    warmup: int = 3,
) -> OverheadReport:
    """Time matched single-pass and two-pass updates on identical batches.

    Both variants walk the same batch schedule from the same initial
    parameters; reported times are medians over the timed steps.  Memory is
    the analytic per-step estimate (the arrays are exact, allocator slack is
    not modeled).
    """
    if data is None:
        data = load_data(cfg.data)
    spec = cfg.surrogate.spec()
    params0 = _initial_network(cfg, data, cfg.train.seeds[0])
    rng = np.random.default_rng([cfg.train.seeds[0], 303])
    n = data.train.n_samples
    bs = cfg.train.batch_size
    batches = []
    for _ in range(n_steps + warmup):
        idx = rng.choice(n, size=min(bs, n), replace=False)
        idx2 = rng.choice(n, size=min(bs, n), replace=False)
        batches.append(
            (
                Batch(data.train.frames[idx], data.train.labels[idx]),
                Batch(data.train.frames[idx2], data.train.labels[idx2]),
            )
        )

    rho = cfg.optimizer.rho if cfg.optimizer.rho > 0.0 else 0.05

    def timed(two_pass: bool) -> float:
        opt_cfg = replace(cfg.optimizer, rho=rho if two_pass else 0.0)
        opt = SastOptimizer(opt_cfg)
        params = params0.copy()
        times = []
        for i, (batch, second) in enumerate(batches):
            t0 = time.perf_counter()
            if two_pass:
                params, _ = opt.sast_step(params, spec, batch, second)
            else:
                params, _ = opt.baseline_step(params, spec, batch)
            if i >= warmup:
                times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_single = timed(False)
    t_double = timed(True)
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

    All runs share the seed list and the data splits.  The radius is chosen
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
    baseline = train(baseline_cfg, data)

    by_rho: dict[float, TrainResult] = {}
    for rho in rho_grid:
        rho_cfg = replace(
            base_cfg,
            out_dir=f"{base_dir}/sast-rho{rho:g}",
            optimizer=replace(base_cfg.optimizer, rho=float(rho)),
        )
        by_rho[float(rho)] = train(rho_cfg, data)
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
