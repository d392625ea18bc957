"""Acceptance gate: the ten headline claims, one pass/fail line each.

Each test prints ``[PASS]``/``[FAIL] criterion NN: <measurements>`` and then
asserts, so the teed pytest log doubles as the acceptance report.  Sizes are
desk scale; stated time budgets are asserted where a criterion carries one.
"""

from __future__ import annotations

import glob
import math
import os
import time

import numpy as np

from conftest import tiny_net
from spikesam.bounds import (
    AssumptionSet,
    assumptions_from,
    compute_constants,
    event_drop_distance_bound,
)
from spikesam.diagnostics import (
    HARD_MODE,
    SURROGATE_MODE,
    bound_battery,
    mechanism_check,
    secant_smoothness,
)
from spikesam.events import SynthTaskConfig
from spikesam.gradients import Batch, gradcheck
from spikesam.harness import (
    CALIBRATION_GRID,
    DataConfig,
    ModelConfig,
    RunConfig,
    SurrogateConfig,
    TrainSettings,
    calibrate_thresholds,
    calibration_ops,
    default_transfer_config,
    evaluate,
    load_data,
    measure_overhead,
    metrics_equal,
    reset_calibration_ops,
    robustness_sweep,
    run_transfer_study,
    train,
)
from spikesam.network import (
    SurrogateSpec,
    constant_bounds_extract,
    init_network,
    load_checkpoint,
    parameter_count,
    parameter_vector,
)
from spikesam.optim import (
    INDEPENDENT,
    ConvergenceTask,
    OptimizerConfig,
    convergence_trial,
)


def _report(criterion: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion:02d}: {detail}")
    assert passed, f"criterion {criterion:02d}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient oracle across a design sweep
# ---------------------------------------------------------------------------


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    shapes = [(4, 3), (5, 4), (4, 4, 3), (6, 5), (3, 3, 3), (5, 3, 2), (6, 4), (4, 2)]
    families = [("arctan", math.pi), ("arctan", 0.7), ("fast_sigmoid", 2.0), ("fast_sigmoid", 0.9)]
    checked = 0
    worst = 0.0
    for i in range(20):
        dims = shapes[i % len(shapes)]
        family, slope = families[i % len(families)]
        n_classes = 2 + i % 2
        params = init_network(
            dims, n_classes,
            alpha=0.3 + 0.05 * (i % 7),
            theta=0.25 + 0.05 * (i % 5),
            weight_scale=0.5 + 0.1 * (i % 4),
            seed=np.random.default_rng(1000 + i),
        )
        n_params = parameter_count(params, include_alpha=True)
        assert n_params <= 200, n_params
        n_steps = 3 + i % 6  # up to 8
        rng = np.random.default_rng(2000 + i)
        frames = (rng.random((3, n_steps, dims[0])) < 0.5).astype(np.float64)
        labels = rng.integers(0, n_classes, size=3).astype(np.int64)
        res = gradcheck(params, SurrogateSpec(family, slope), Batch(frames, labels),
                        h=1e-6, tol=1e-5, include_alpha=True)
        worst = max(worst, res.max_rel_err)
        checked += 1
        if not res.passed:
            _report(1, False, f"net {i} ({dims}, {family}) rel err {res.max_rel_err:.2e}")
    elapsed = time.perf_counter() - t0
    _report(
        1,
        checked >= 20 and worst <= 1e-5 and elapsed < 60.0,
        f"{checked} networks, worst component rel err {worst:.2e} (cap 1e-05), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Bound battery over random admissible configurations
# ---------------------------------------------------------------------------


def test_criterion_02_bound_battery_no_violations():
    t0 = time.perf_counter()
    counts = bound_battery(100, 64, 77)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        not any(counts.values()) and elapsed < 300.0,
        f"100 admissible configs, violations {counts}, {elapsed:.1f}s (cap 300s)",
    )


# ---------------------------------------------------------------------------
# 3. Secant smoothness never exceeds the closed-form constant
# ---------------------------------------------------------------------------


def test_criterion_03_secant_below_closed_form_on_trained_checkpoints(tmp_path):
    cfg = RunConfig(
        out_dir=str(tmp_path / "aligned"),
        model=ModelConfig(hidden_dims=(8,), alpha=0.4, theta_init=0.5, weight_scale=0.8),
        surrogate=SurrogateConfig(family="arctan", slope=0.9),
        optimizer=OptimizerConfig(eta=0.5, rho=0.0, train_threshold=False),
        data=DataConfig(source="synth", synth=SynthTaskConfig(
            n_classes=2, n_steps=5, n_coords=8, n_polarities=2,
            n_train=64, n_val=32, n_test=32,
            rate_active=0.5, rate_background=0.2, style="blocks", seed=11,
        )),
        train=TrainSettings(epochs=6, batch_size=16, seeds=(0, 1, 2, 3, 4), checkpoint_every=2),
    )
    data = load_data(cfg.data)
    train(cfg, data)
    spec = cfg.surrogate.spec()
    probe_batch = Batch(data.val.frames, data.val.labels)
    r_x = float(np.sqrt((data.val.frames**2).sum(axis=2)).max())
    radii_rel = (1e-3, 1e-2, 1e-1)

    n_checkpoints = 0
    worst_ratio = 0.0
    for seed in cfg.train.seeds:
        for path in sorted(glob.glob(str(tmp_path / "aligned" / f"seed_{seed}" / "checkpoints" / "*.bin"))):
            params, _ = load_checkpoint(path)
            w0 = parameter_vector(params, False)
            r_abs = max(radii_rel) * float(np.linalg.norm(w0))
            pb = constant_bounds_extract(params)
            # additive inflation: every probe point's norms stay under these caps
            assume = AssumptionSet(
                r_x=r_x,
                m_a=pb.m_a + r_abs, m_b=pb.m_b + r_abs,
                m_theta=pb.m_theta + r_abs, m_out=pb.m_out + r_abs,
                alpha=params.alpha, b1=spec.derivative_bound, b2=spec.curvature_bound,
                n_steps=data.val.frames.shape[1], dims=params.dims,
            )
            gamma = assume.alpha + assume.m_theta * assume.b1
            assert gamma < 1.0, "checkpoint left the contractive regime"
            beta = compute_constants(assume).beta
            secant = secant_smoothness(params, spec, probe_batch, radii_rel=radii_rel, n_probes=5)
            worst_ratio = max(worst_ratio, secant.beta_sec / beta)
            n_checkpoints += 1
            if secant.beta_sec > beta:
                _report(3, False, f"{os.path.basename(path)} seed {seed}: "
                                  f"secant {secant.beta_sec:.3e} > beta {beta:.3e}")
    _report(
        3,
        n_checkpoints >= 20 and worst_ratio <= 1.0,
        f"{n_checkpoints} checkpoints x 3 radius scales x 5 seeds, "
        f"max secant/beta ratio {worst_ratio:.3e}",
    )


# ---------------------------------------------------------------------------
# 4. Convergence guarantee at an admissible step size
# ---------------------------------------------------------------------------


def test_criterion_04_convergence_inequality_full_and_minibatch():
    t0 = time.perf_counter()
    params = tiny_net(dims=(6, 5), n_classes=2, alpha=0.4, theta=0.4, weight_scale=0.5, seed=91)
    rng = np.random.default_rng(92)
    for layer in params.layers:
        layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    spec = SurrogateSpec("arctan", 1.0)
    frames = (rng.random((32, 4, 6)) < 0.5).astype(np.float64)
    labels = rng.integers(0, 2, size=32).astype(np.int64)
    data = Batch(frames, labels)

    r_x = float(np.sqrt((frames**2).sum(axis=2)).max())
    beta = compute_constants(assumptions_from(params, spec, r_x, 4, margin=2.0)).beta
    eta = 0.9 * 0.25 / beta
    cfg = OptimizerConfig(eta=eta, rho=1e-3, second_batch=INDEPENDENT)

    reports = {}
    for name, batch_size in (("full-batch", None), ("minibatch", 8)):
        task = ConvergenceTask(params0=params, spec=spec, data=data, batch_size=batch_size, margin=2.0)
        reports[name] = convergence_trial(task, cfg, n_updates=30, seeds=(0, 1, 2, 3, 4))

    elapsed = time.perf_counter() - t0
    ok = all(
        r.holds and r.eta_admissible and r.caps_held for r in reports.values()
    ) and reports["minibatch"].sigma_sq > 0.0 and reports["full-batch"].sigma_sq == 0.0
    detail = ", ".join(
        f"{name}: lhs {r.lhs:.3e} <= rhs {r.rhs:.3e} (sigma^2 {r.sigma_sq:.3e})"
        for name, r in reports.items()
    )
    _report(4, ok and elapsed < 600.0, f"eta {eta:.3e} <= 1/(4 beta), {detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Event-drop distance bound, Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_05_event_drop_monte_carlo():
    rng = np.random.default_rng(55)
    n_steps, width = 8, 16
    x = (rng.random((n_steps, width)) < 0.5).astype(np.float64)
    r_x = float(np.sqrt((x**2).sum(axis=1)).max())
    n_masks = 10_000
    margins = {}
    for p in (0.1, 0.2, 0.3, 0.4):
        keep = rng.random((n_masks, n_steps, width)) >= p
        dists = np.sqrt(((x[None] * keep - x[None]) ** 2).sum(axis=(1, 2)))
        bound = event_drop_distance_bound(p, n_steps, r_x)
        margins[p] = (float(dists.mean()), bound)
    ok = all(mean <= bound for mean, bound in margins.values())
    detail = ", ".join(f"p={p}: {m:.3f} <= {b:.3f}" for p, (m, b) in margins.items())
    _report(5, ok, f"{n_masks} masks per severity; mean distance vs cap: {detail}")


# ---------------------------------------------------------------------------
# 6. Parameter-to-input gradient link on held-out samples
# ---------------------------------------------------------------------------


def test_criterion_06_gradient_link_thousand_samples(tmp_path):
    task = SynthTaskConfig(
        n_classes=2, n_steps=5, n_coords=8, n_polarities=2,
        n_train=64, n_val=32, n_test=1000,
        rate_active=0.5, rate_background=0.2, style="blocks", seed=21,
    )
    cfg = RunConfig(
        out_dir=str(tmp_path / "link"),
        model=ModelConfig(hidden_dims=(6,), alpha=0.5, theta_init=0.5, weight_scale=1.0),
        surrogate=SurrogateConfig(family="arctan", slope=2.0),
        optimizer=OptimizerConfig(eta=0.5, rho=0.0),
        data=DataConfig(source="synth", synth=task),
        train=TrainSettings(epochs=2, batch_size=16, seeds=(0,)),
    )
    data = load_data(cfg.data)
    res = train(cfg, data)
    params, spec = load_checkpoint(res.seeds[0].checkpoint_path)

    violations = 0
    unconditioned = 0
    for i in range(data.test.n_samples):
        rec = mechanism_check(
            params, spec, data.test.frames[i], int(data.test.labels[i]),
            sigma_tol=1e-6, rel_slack=1e-9,
        )
        if not rec.conditioned:
            unconditioned += 1  # counted, never asserted
        elif not rec.holds:
            violations += 1
    _report(
        6,
        violations == 0 and data.test.n_samples >= 1000,
        f"{data.test.n_samples} held-out samples: 0 violations required, got {violations}; "
        f"{unconditioned} below the conditioning floor (counted only)",
    )


# ---------------------------------------------------------------------------
# 7. Hard-transfer benchmark: the gap halves at the chosen radius
# ---------------------------------------------------------------------------


def test_criterion_07_transfer_gap_halves(tmp_path):
    t0 = time.perf_counter()
    study = run_transfer_study(default_transfer_config(str(tmp_path / "study")))
    elapsed = time.perf_counter() - t0
    gap_ok = study.best_gap_median <= 0.5 * study.baseline_gap_median
    direction_ok = study.baseline_gap_median > 0.0
    surrogate_ok = study.best_surrogate_median >= study.baseline_surrogate_median - 0.03
    _report(
        7,
        gap_ok and direction_ok and surrogate_ok and elapsed < 1800.0,
        f"baseline gap median {study.baseline_gap_median:+.4f} -> "
        f"rho={study.best_rho:g} gap median {study.best_gap_median:+.4f} "
        f"(need <= 0.5x), smooth acc {study.baseline_surrogate_median:.4f} -> "
        f"{study.best_surrogate_median:.4f} (within 3 points), "
        f"5 paired seeds, {elapsed / 60:.1f} min (cap 30)",
    )


# ---------------------------------------------------------------------------
# 8. Two-pass overhead stays near its nominal cost
# ---------------------------------------------------------------------------


def test_criterion_08_overhead_factors(tmp_path):
    cfg = default_transfer_config(str(tmp_path / "overhead"))
    report = measure_overhead(cfg, n_steps=20, warmup=3)
    ok = 1.5 <= report.time_factor <= 2.5 and 0.9 <= report.memory_factor <= 1.2
    _report(
        8,
        ok,
        f"time factor {report.time_factor:.2f} (need 1.5-2.5), "
        f"memory factor {report.memory_factor:.3f} (need 0.9-1.2), "
        f"median step {report.single_pass_step_s * 1e3:.1f} ms -> "
        f"{report.two_pass_step_s * 1e3:.1f} ms",
    )


# ---------------------------------------------------------------------------
# 9. Calibration purity and the identity-scale guarantee
# ---------------------------------------------------------------------------


def test_criterion_09_calibration_protocol(tmp_path):
    reset_calibration_ops()
    cfg = RunConfig(
        out_dir=str(tmp_path / "purity"),
        model=ModelConfig(hidden_dims=(6,), alpha=0.5, theta_init=0.5, weight_scale=1.0),
        surrogate=SurrogateConfig(family="arctan", slope=2.0),
        optimizer=OptimizerConfig(eta=0.5, rho=0.0),
        data=DataConfig(source="synth", synth=SynthTaskConfig(
            n_classes=2, n_steps=4, n_coords=6, n_polarities=2,
            n_train=32, n_val=16, n_test=16,
            rate_active=0.6, rate_background=0.2, style="blocks", seed=31,
        )),
        train=TrainSettings(epochs=2, batch_size=8, seeds=(0,)),
    )
    data = load_data(cfg.data)
    res = train(cfg, data)
    params, spec = load_checkpoint(res.seeds[0].checkpoint_path)
    evaluate(params, spec, data.test, SURROGATE_MODE)
    evaluate(params, spec, data.test, HARD_MODE)
    robustness_sweep(params, spec, data.test)
    pure = calibration_ops()

    assert 1.0 in CALIBRATION_GRID
    cal = calibrate_thresholds(params, spec, data.val, mode="global")
    guarantee = cal.val_acc >= cal.uncalibrated_val_acc
    instrumented = calibration_ops() > 0
    _report(
        9,
        pure == 0 and guarantee and instrumented,
        f"default train/eval/robustness path: {pure} calibration ops (need 0); "
        f"identity scale in grid: calibrated {cal.val_acc:.4f} >= "
        f"uncalibrated {cal.uncalibrated_val_acc:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. Exact reproducibility of a full run
# ---------------------------------------------------------------------------


def test_criterion_10_bitwise_reproducibility(tmp_path):
    def cfg(name):
        return RunConfig(
            out_dir=str(tmp_path / name),
            model=ModelConfig(hidden_dims=(6,), alpha=0.5, theta_init=0.5, weight_scale=1.0),
            surrogate=SurrogateConfig(family="arctan", slope=2.0),
            optimizer=OptimizerConfig(eta=0.5, rho=0.1, second_batch=INDEPENDENT),
            data=DataConfig(source="synth", synth=SynthTaskConfig(
                n_classes=2, n_steps=4, n_coords=6, n_polarities=2,
                n_train=32, n_val=16, n_test=16,
                rate_active=0.6, rate_background=0.2, style="blocks", seed=41,
            )),
            train=TrainSettings(epochs=3, batch_size=8, seeds=(0, 1)),
        )

    res_a = train(cfg("rep-a"))
    res_b = train(cfg("rep-b"))
    metrics_ok = all(
        metrics_equal(sa.metrics_path, sb.metrics_path)
        for sa, sb in zip(res_a.seeds, res_b.seeds)
    )
    ckpt_ok = True
    for seed in (0, 1):
        for name in ("best.bin", "final.bin"):
            pa = tmp_path / "rep-a" / f"seed_{seed}" / "checkpoints" / name
            pb = tmp_path / "rep-b" / f"seed_{seed}" / "checkpoints" / name
            if pa.read_bytes() != pb.read_bytes():
                ckpt_ok = False
    _report(
        10,
        metrics_ok and ckpt_ok,
        "repeated run: metrics tables identical outside wall-clock columns "
        f"({metrics_ok}) and all checkpoints byte-identical ({ckpt_ok})",
    )
