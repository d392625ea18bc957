"""Set-up and the units of work the workloads run.

Every workload runs rounds.  A round runs one unit of each phase, in the
order of ``PHASES``; each phase yields one end-to-end metric.  The contract
asks every workload for every end-to-end metric, so each round runs all six
phases, and the workload decides how much work each one gets.  A workload's
own phases get the large units, the others small ones on the same model:

- ``study``: transfer studies and timed steps (``train_samples_per_s``,
  ``sast_step_ms_*``) dominate.
- ``eval``: loading, clean evaluation, calibration and robustness sweeps on
  a 1024-sequence split dominate.

The bound battery and the mechanism checks run as small units in both.

All inputs come from the workload seed; the package only sees the generated
data.  The calls go through module attributes (``network.forward``), so the
traced run sees them.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from spikesam import bounds, diagnostics, events, gradients, harness, network, optim

import checks

PHASES = ("study", "steps", "verify", "link", "eval", "sweep")
MODES = (diagnostics.SURROGATE_MODE, diagnostics.HARD_MODE)
CALIBRATION_MODES = (harness.GLOBAL_CALIBRATION, harness.PER_LAYER_CALIBRATION)

BRIEF_EPOCHS = 30  # training of the set-up checkpoint: the task is learned by then
STEP_RHO = 0.05  # the radius measure_overhead uses when the config has none
STEP_WARMUP = 2  # steps dropped from the start of each timed sequence
STEP_STREAM = 303  # the batch pairs of the timed steps: the same in every round
VERIFY_DIMS = ((4, 3), (5, 4), (4, 4, 3), (6, 5))
ASCENT_PROBES = 64
PROBE_REPEATS = 30  # timed forwards of each one-layer slice


@dataclass(frozen=True)
class Sizes:
    """How much work one unit of each phase does."""

    study_rhos: tuple[float, ...]
    study_seeds: int
    study_epochs: int
    step_pairs: int  # 100 timed steps leave 10 beyond their p90
    verify_configs: int
    link_samples: int
    eval_sequences: int  # size of the split set-up writes for eval and sweep
    probe_batch: int  # batch of the per-layer forward probe


# A small unit still takes 0.15 s or more, so that one unit is more than timer noise.
SIZES = {
    "study": Sizes((0.1, 0.3), 2, 10, 100, 8, 128, 128, 32),
    "eval": Sizes((0.1,), 1, 6, 100, 8, 128, 1024, 1024),
}

# Call sites of the forwards the ``network.forward`` timings cover: each
# workload's own phases, all on the study net.
FORWARD_SITES = {
    "study": ("harness.run_transfer_study", "optim.sast_step", "optim.baseline_step"),
    "eval": ("harness.evaluate", "harness.calibrate_thresholds", "harness.robustness_sweep"),
}


@dataclass
class Lab:
    """What set-up leaves for the rounds: data, a trained checkpoint, files."""

    workload: str
    seed: int
    sizes: Sizes
    root: str
    cfg: harness.RunConfig
    data: events.SplitDataset
    spec: network.SurrogateSpec
    params: network.NetworkParams  # the set-up checkpoint, as trained
    init_params: network.NetworkParams  # the first study seed's initial point
    checkpoint_path: str
    eval_set: events.Dataset
    eval_path: str


@dataclass
class Outcome:
    """One unit: its end-to-end value, operations attempted, failures."""

    value: float
    ops: int
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def setup(workload: str, seed: int, root: str) -> Lab:
    """Synthesize data, train the set-up checkpoint, write checkpoint and split."""
    sizes = SIZES[workload]
    os.makedirs(root)
    base = harness.default_transfer_config(os.path.join(root, "study"))
    synth = replace(base.data.synth, seed=seed)
    cfg = replace(
        base,
        data=replace(base.data, synth=synth),
        train=replace(base.train, seeds=tuple(2 * seed + i for i in range(sizes.study_seeds))),
    )
    data = harness.load_data(cfg.data)
    brief_cfg = replace(
        cfg,
        out_dir=os.path.join(root, "brief"),
        train=replace(cfg.train, epochs=BRIEF_EPOCHS, seeds=(cfg.train.seeds[0],)),
    )
    brief = harness.train(brief_cfg, data).seeds[0]
    if sizes.eval_sequences > data.test.n_samples:
        eval_set = events.synth_task(
            replace(synth, n_train=2, n_val=2, n_test=sizes.eval_sequences)
        ).test
    else:
        eval_set = data.test.subset(np.arange(sizes.eval_sequences))
    eval_path = os.path.join(root, "eval.snnd")
    events.save_dataset(eval_path, eval_set)
    init_params = network.init_network(
        (data.train.frames.shape[2], *cfg.model.hidden_dims),
        data.train.n_classes,
        alpha=cfg.model.alpha,
        theta=cfg.model.theta_init,
        weight_scale=cfg.model.weight_scale,
        seed=np.random.default_rng([cfg.train.seeds[0], 101]),
    )
    return Lab(
        workload=workload,
        seed=seed,
        sizes=sizes,
        root=root,
        cfg=cfg,
        data=data,
        spec=cfg.surrogate.spec(),
        params=brief.final_params,
        init_params=init_params,
        checkpoint_path=brief.checkpoint_path,
        eval_set=eval_set,
        eval_path=eval_path,
    )


# ---------------------------------------------------------------------------
# study: transfer study, then timed single- and two-pass steps
# ---------------------------------------------------------------------------


def study_unit(lab: Lab, rng: np.random.Generator, tag: str, epochs: int | None = None) -> Outcome:
    """``run_transfer_study`` on the baseline and a subset of ``RHO_GRID``."""
    del rng  # every round trains the same arm-seeds, so rounds repeat identical work
    out_dir = os.path.join(lab.root, f"study-{tag}")
    cfg = replace(
        lab.cfg,
        out_dir=out_dir,
        train=replace(lab.cfg.train, epochs=epochs or lab.sizes.study_epochs),
    )
    t0 = time.perf_counter()
    study = harness.run_transfer_study(cfg, rho_grid=lab.sizes.study_rhos, data=lab.data)
    wall = time.perf_counter() - t0

    runs = [study.baseline, *study.by_rho.values()]
    failures: list[str] = []
    passes = 0
    epoch_s: list[float] = []
    for run in runs:
        for s in run.seeds:
            label = f"{run.config.method_label} seed {s.seed}"
            passes += s.passes
            if s.diverged:
                failures.append(f"{label}: diverged")
            failures += checks.finite_losses(s.metrics_path)
            loaded, _ = network.load_checkpoint(s.checkpoint_path)
            failures += checks.arrays_identical(
                f"{label} checkpoint reload", checks.params_arrays(s.final_params), checks.params_arrays(loaded)
            )
            epoch_s += _column(s.metrics_path, "wall_clock_s")
    shutil.rmtree(out_dir)
    return Outcome(
        value=passes * cfg.train.batch_size / wall,
        ops=sum(len(r.seeds) for r in runs),
        failures=failures,
        samples={"epoch_s": epoch_s},
        notes={
            "best_rho": study.best_rho,
            "baseline_gap_median": study.baseline_gap_median,
            "best_gap_median": study.best_gap_median,
            "baseline_test_acc_median": study.baseline_surrogate_median,
            "best_test_acc_median": study.best_surrogate_median,
        },
    )


def _column(path: str, name: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def step_batches(lab: Lab, rng: np.random.Generator, pairs: int) -> list[tuple[gradients.Batch, gradients.Batch]]:
    """Random batch pairs, drawn the way ``measure_overhead`` draws them."""
    train = lab.data.train
    bs = min(lab.cfg.train.batch_size, train.n_samples)
    out = []
    for _ in range(pairs):
        idx = rng.choice(train.n_samples, size=bs, replace=False)
        idx2 = rng.choice(train.n_samples, size=bs, replace=False)
        out.append(
            (
                gradients.Batch(train.frames[idx], train.labels[idx]),
                gradients.Batch(train.frames[idx2], train.labels[idx2]),
            )
        )
    return out


def steps_unit(lab: Lab, rng: np.random.Generator, tag: str, pairs: int | None = None) -> Outcome:
    """Single-pass then two-pass steps, each timed, walking the same batches.

    Every round walks the same batch pairs from the same initial point, so
    the i-th step of one round repeats the i-th step of every other.
    """
    del rng, tag
    stream = np.random.default_rng([lab.seed, STEP_STREAM])
    batches = step_batches(lab, stream, (pairs or lab.sizes.step_pairs) + STEP_WARMUP)
    times: dict[str, list[float]] = {"single": [], "two": []}
    losses: list[float] = []
    for kind in ("single", "two"):
        opt = optim.SastOptimizer(replace(lab.cfg.optimizer, rho=STEP_RHO if kind == "two" else 0.0))
        step = opt.sast_step if kind == "two" else opt.baseline_step
        params = lab.init_params
        for i, (batch, second) in enumerate(batches):
            args = (params, lab.spec, batch, second) if kind == "two" else (params, lab.spec, batch)
            t0 = time.perf_counter()
            params, rep = step(*args)
            elapsed = time.perf_counter() - t0
            if i >= STEP_WARMUP:
                times[kind].append(elapsed)
            losses.append(rep.loss_first)

    zero = replace(lab.cfg.optimizer, rho=0.0, second_batch=optim.REUSED)
    two, _ = optim.SastOptimizer(zero).sast_step(lab.init_params, lab.spec, batches[0][0])
    one, _ = optim.SastOptimizer(zero).baseline_step(lab.init_params, lab.spec, batches[0][0])
    failures = checks.finite_values("step losses", losses)
    failures += checks.arrays_identical(
        "rho=0 two-pass step vs baseline step", checks.params_arrays(one), checks.params_arrays(two)
    )
    return Outcome(
        value=float(np.median(times["two"])),
        ops=len(losses) + 1,
        failures=failures,
        samples={"step_single_s": times["single"], "step_two_s": times["two"]},
    )


# ---------------------------------------------------------------------------
# verify: the bound battery on random admissible tiny configs, and the link
# ---------------------------------------------------------------------------


def draw_config(rng: np.random.Generator, trial: int):
    """One admissible config, drawn the way acceptance criterion 02 draws them."""
    dims = VERIFY_DIMS[trial % len(VERIFY_DIMS)]
    alpha = float(rng.uniform(0.2, 0.6))
    theta = float(rng.uniform(0.1, 0.3))
    slope = float(rng.uniform(0.5, 2.0))
    params = network.init_network(
        dims,
        2,
        alpha=alpha,
        theta=theta,
        weight_scale=float(rng.uniform(0.3, 1.0)),
        seed=np.random.default_rng(int(rng.integers(2**32))),
    )
    for layer in params.layers:  # generic point: caps must not sit at zero
        layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    spec = network.SurrogateSpec("arctan", slope)
    n_steps = int(rng.integers(2, 6))
    r_x = float(rng.uniform(0.5, 1.5))
    return params, spec, n_steps, r_x


def _draw_frames(rng: np.random.Generator, n: int, n_steps: int, d0: int, r_x: float) -> np.ndarray:
    x = rng.standard_normal((n, n_steps, d0))
    norms = np.sqrt((x**2).sum(axis=2, keepdims=True))
    return x * (r_x / np.maximum(norms, 1e-12)) * rng.random((n, n_steps, 1))


def battery(params, spec, n_steps: int, r_x: float, rng: np.random.Generator) -> dict[str, int]:
    """State caps, input-Lipschitz secants, the ascent cap and loss stability."""
    violations = {"admissible": 0, "state": 0, "input_lip": 0, "sam": 0, "stability": 0}
    d0 = params.dims[0]
    assume = bounds.assumptions_from(params, spec, r_x, n_steps, margin=1.0)
    if not bounds.contraction_gamma(assume)[1]:
        violations["admissible"] += 1

    x = _draw_frames(rng, 4, n_steps, d0, r_x)
    trace = network.forward(params, spec, x)
    r_u = bounds.state_bounds(assume)
    for layer_idx, u in enumerate(trace.u):
        if float(np.sqrt((u**2).sum(axis=2)).max()) > r_u[layer_idx] * (1 + 1e-12):
            violations["state"] += 1

    l_x = bounds.input_lipschitz(assume)
    for _ in range(3):
        x1, x2 = _draw_frames(rng, 1, n_steps, d0, r_x), _draw_frames(rng, 1, n_steps, d0, r_x)
        d_logits = float(np.linalg.norm(network.forward(params, spec, x1).logits - network.forward(params, spec, x2).logits))
        if d_logits > l_x * float(np.sqrt(((x1 - x2) ** 2).sum())) * (1 + 1e-9) + 1e-12:
            violations["input_lip"] += 1

    labels = rng.integers(0, 2, size=4).astype(np.int64)
    batch = gradients.Batch(x, labels)
    rho = 0.05
    beta = bounds.compute_constants(bounds.assumptions_from(params, spec, r_x, n_steps, margin=1.5)).beta
    bundle = gradients.backward(params, spec, batch)
    w0 = network.parameter_vector(params)
    cap = bounds.sam_upper_bound(bundle.loss, float(np.linalg.norm(bundle.grads.vector())), rho, beta)
    for _ in range(ASCENT_PROBES):
        d = rng.standard_normal(w0.size)
        d *= rho / np.linalg.norm(d)
        if gradients.batch_loss(network.replace_parameters(params, w0 + d), spec, batch) > cap * (1 + 1e-12):
            violations["sam"] += 1

    x_tilde = x + 0.1 * rng.standard_normal(x.shape)
    norms = np.sqrt((x_tilde**2).sum(axis=2, keepdims=True))
    x_tilde = x_tilde * np.minimum(1.0, r_x / np.maximum(norms, 1e-12))
    gap = abs(bundle.loss - gradients.batch_loss(params, spec, gradients.Batch(x_tilde, labels)))
    worst = max(float(np.sqrt(((x[i] - x_tilde[i]) ** 2).sum())) for i in range(4))
    if gap > bounds.loss_stability_bound(l_x, worst) * (1 + 1e-9) + 1e-12:
        violations["stability"] += 1
    return violations


def verify_unit(lab: Lab, rng: np.random.Generator, tag: str, n_configs: int | None = None) -> Outcome:
    """Admissible configs fully checked per second."""
    n_configs = n_configs or lab.sizes.verify_configs
    failures: list[str] = []
    t0 = time.perf_counter()
    for trial in range(n_configs):
        params, spec, n_steps, r_x = draw_config(rng, trial)
        failures += checks.no_violations(f"{tag} config {trial}", battery(params, spec, n_steps, r_x, rng))
    wall = time.perf_counter() - t0
    return Outcome(value=n_configs / wall, ops=n_configs, failures=failures)


def link_unit(lab: Lab, rng: np.random.Generator, tag: str, n_samples: int | None = None) -> Outcome:
    """Mechanism checks per second on held-out samples of the set-up checkpoint."""
    del tag
    n = n_samples or lab.sizes.link_samples
    val = lab.data.val
    idx = rng.choice(val.n_samples, size=n, replace=n > val.n_samples)
    t0 = time.perf_counter()
    records = [
        diagnostics.mechanism_check(lab.params, lab.spec, val.frames[i], int(val.labels[i])) for i in idx
    ]
    wall = time.perf_counter() - t0
    return Outcome(value=n / wall, ops=n, failures=checks.mechanism_holds(records))


# ---------------------------------------------------------------------------
# eval: load from disk, evaluate, calibrate, sweep
# ---------------------------------------------------------------------------


def eval_unit(
    lab: Lab, rng: np.random.Generator, tag: str, grid=harness.CALIBRATION_GRID
) -> Outcome:
    """Load both files, evaluate in both modes, calibrate globally and per layer."""
    del rng, tag
    t0 = time.perf_counter()
    params, spec = network.load_checkpoint(lab.checkpoint_path)
    ds = events.load_frames(lab.eval_path)
    reports = {mode: harness.evaluate(params, spec, ds, mode) for mode in MODES}
    cals = {m: harness.calibrate_thresholds(params, spec, ds, m, grid=grid) for m in CALIBRATION_MODES}
    wall = time.perf_counter() - t0

    failures = checks.arrays_identical("checkpoint load", checks.params_arrays(lab.params), checks.params_arrays(params))
    failures += checks.arrays_identical(
        "split load", [lab.eval_set.frames, lab.eval_set.labels], [ds.frames, ds.labels]
    )
    for m, cal in cals.items():
        failures += checks.calibration_not_worse(f"{m} calibration", cal.val_acc, cal.uncalibrated_val_acc)
    # forwards: smooth evaluate runs accuracy and the loss, hard runs one; each
    # calibration runs the uncalibrated accuracy plus one per candidate
    forwards = 3 + sum(1 + cal.n_evals for cal in cals.values())
    return Outcome(
        value=ds.n_samples * forwards / wall,
        ops=2 + len(reports) + len(cals),
        failures=failures,
        notes={f"clean_acc_{m}": r.accuracy for m, r in reports.items()},
    )


def sweep_unit(
    lab: Lab,
    rng: np.random.Generator,
    tag: str,
    families=events.CORRUPTION_FAMILIES,
    severities=events.SEVERITY_GRID,
) -> Outcome:
    """One robustness sweep over families x severities x both modes."""
    del tag
    seed = int(rng.integers(2**31))
    t0 = time.perf_counter()
    result = harness.robustness_sweep(
        lab.params, lab.spec, lab.eval_set, families=families, severities=severities, corruption_seed=seed
    )
    wall = time.perf_counter() - t0
    clean = {
        mode: diagnostics.accuracy(lab.params, lab.spec, lab.eval_set.frames, lab.eval_set.labels, mode)
        for mode in MODES
    }
    return Outcome(
        value=wall,
        ops=len(families) * len(severities) * len(MODES),
        failures=checks.sweep_clean_point(result.curves, clean),
        notes={"auc": result.auc},
    )


UNITS: dict[str, Callable[..., Outcome]] = {
    "study": study_unit,
    "steps": steps_unit,
    "verify": verify_unit,
    "link": link_unit,
    "eval": eval_unit,
    "sweep": sweep_unit,
}


def once(lab: Lab) -> Outcome:
    """Checks made once per run: gradcheck on one config, diagnose on the checkpoint."""
    rng = np.random.default_rng([lab.seed, 404])
    params, spec, n_steps, r_x = draw_config(rng, 2)
    x = _draw_frames(rng, 4, n_steps, params.dims[0], r_x)
    grad = gradients.gradcheck(params, spec, gradients.Batch(x, rng.integers(0, 2, size=4)))
    val = lab.data.val
    report = diagnostics.diagnose(lab.params, lab.spec, val.frames[:64], val.labels[:64], rho=0.1)
    failures = [] if grad.passed else [f"gradcheck failed (max rel err {grad.max_rel_err:.2e})"]
    failures += checks.no_violations("diagnose", {"mechanism": report.mechanism_violations})
    failures += checks.finite_values("diagnose", [report.beta_sec, report.sam_gap])
    return Outcome(value=math.nan, ops=2, failures=failures)


# ---------------------------------------------------------------------------
# Memory pass and the per-layer forward probe
# ---------------------------------------------------------------------------


def memory_pass(lab: Lab) -> Outcome:
    """Peak traced KiB of each phase, and of one single- and one two-pass step.

    Each phase runs a short unit of the workload's sizes: fewer epochs,
    steps, configs and candidates, but the same model and arrays, which
    set the peak.  The value is the largest phase peak.
    """
    rng = np.random.default_rng([lab.seed, 505])
    short = {
        "study": lambda: study_unit(lab, rng, "memory", epochs=1),
        "steps": lambda: steps_unit(lab, rng, "memory", pairs=1),
        "verify": lambda: verify_unit(lab, rng, "memory", n_configs=len(VERIFY_DIMS)),
        "link": lambda: link_unit(lab, rng, "memory", n_samples=2),
        "eval": lambda: eval_unit(lab, rng, "memory", grid=(1.0,)),
        "sweep": lambda: sweep_unit(
            lab, rng, "memory", families=events.CORRUPTION_FAMILIES[:1], severities=(0.0, 0.2)
        ),
    }
    batch, second = step_batches(lab, rng, 1)[0]
    peaks: dict[str, float] = {}
    failures: list[str] = []
    tracemalloc.start()
    try:
        for phase, fn in short.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            failures += fn().failures
            peaks[phase] = (tracemalloc.get_traced_memory()[1] - base) / 1024
        for kind, rho in (("single", 0.0), ("two", STEP_RHO)):
            opt = optim.SastOptimizer(replace(lab.cfg.optimizer, rho=rho))
            step = opt.sast_step if rho else opt.baseline_step
            args = (lab.init_params, lab.spec, batch, second) if rho else (lab.init_params, lab.spec, batch)
            step(*args)  # warm: momentum buffers and lazily built state
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step(*args)
            peaks[f"step_{kind}"] = (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        tracemalloc.stop()
    return Outcome(value=max(peaks[p] for p in short), ops=len(short), failures=failures, notes=peaks)


def layer_probe(lab: Lab) -> list[float]:
    """Median smooth forward time of each spiking layer alone, in seconds.

    Each layer runs as a one-layer network fed with the input it received
    in a full forward pass of the workload's probe batch.
    """
    frames = (lab.eval_set if lab.sizes.probe_batch > lab.data.train.n_samples else lab.data.train).frames
    x = frames[: lab.sizes.probe_batch]
    trace = network.forward(lab.params, lab.spec, x)
    inputs = [x, *trace.z[:-1]]
    out = []
    for layer, z_in in zip(lab.params.layers, inputs):
        sub = network.NetworkParams(
            [layer], lab.params.alpha, np.zeros((lab.params.n_classes, layer.d_out)), lab.params.b_out
        )
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            network.forward(sub, lab.spec, z_in)
            times.append(time.perf_counter() - t0)
        out.append(float(np.median(times)))
    return out
