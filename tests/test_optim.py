"""Update rules: the two-pass sharpness-aware step and its baseline.

The double-well section pins the qualitative promise of the two-pass rule —
it walks out of a narrow basin a plain step settles into — on a landscape
where both endpoints were verified numerically and then frozen.  With a
normalized ascent step the rule stalls partway down the wide basin's slope
(the backward perturbation keeps re-sampling the escaped well's far wall),
so the assertions are basin escape and endpoint flatness, not arrival at
the wide minimum.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARCTAN_PI, spike_batch, tiny_net
from spikesam import optim
from spikesam.gradients import backward
from spikesam.network import InstabilityError, parameter_vector, threshold_slices
from spikesam.optim import (
    INDEPENDENT,
    NON_FINITE_POINT,
    REUSED,
    THETA_FLOOR,
    ConvergenceTask,
    OptimizerConfig,
    SastOptimizer,
    convergence_trial,
    clamp_thresholds,
    epoch_chunks,
    next_points,
    sam_perturbation,
    single_pass_update,
    step_plan,
    two_pass_update,
)

# ---------------------------------------------------------------------------
# Perturbation and config validation
# ---------------------------------------------------------------------------


def test_sam_perturbation_norm_and_direction():
    g = np.array([3.0, 4.0])
    eps = sam_perturbation(g, rho=0.5)
    assert np.linalg.norm(eps) == pytest.approx(0.5, rel=1e-9)
    np.testing.assert_allclose(eps / np.linalg.norm(eps), g / 5.0, rtol=1e-12)
    assert sam_perturbation(np.zeros(3), 0.5).tolist() == [0.0, 0.0, 0.0]
    assert sam_perturbation(g, 0.0).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        sam_perturbation(g, -0.1)


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_sam_perturbation_refuses_a_radius_that_is_not_finite(rho):
    with pytest.raises(ValueError, match=f"perturbation radius must be non-negative and finite, got {rho}"):
        sam_perturbation(np.array([1.0, 0.0, 2.0]), rho)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, rho=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(eta=0.1, second_batch="same")


# ---------------------------------------------------------------------------
# Vector-level updates
# ---------------------------------------------------------------------------


def _quadratic(center: np.ndarray):
    def loss_grad(w: np.ndarray) -> tuple[float, np.ndarray]:
        d = w - center
        return 0.5 * float(d @ d), d

    return loss_grad


def test_zero_radius_two_pass_equals_single_pass():
    lg = _quadratic(np.array([1.0, -2.0, 0.5]))
    w = np.array([4.0, 4.0, 4.0])
    cfg = OptimizerConfig(eta=0.1, rho=0.0)
    w_a, rep_a = two_pass_update(w, lg, cfg)
    w_b, rep_b = single_pass_update(w, lg, cfg)
    assert w_a.tolist() == w_b.tolist()  # bit-identical
    assert rep_a.epsilon_norm == 0.0
    assert rep_a.n_passes == 2 and rep_b.n_passes == 1


def test_two_pass_uses_perturbed_gradient():
    lg = _quadratic(np.zeros(1))
    w = np.array([1.0])
    cfg = OptimizerConfig(eta=0.5, rho=0.25)
    w_new, rep = two_pass_update(w, lg, cfg)
    # ascent moves to 1.25, so the descent step uses gradient 1.25
    assert w_new[0] == pytest.approx(1.0 - 0.5 * 1.25, rel=1e-12)
    assert rep.epsilon_norm == pytest.approx(0.25, rel=1e-12)
    assert rep.grad_norm_second == pytest.approx(1.25, rel=1e-12)


# ---------------------------------------------------------------------------
# Double well: escape the narrow basin, keep the wide one
# ---------------------------------------------------------------------------

_SHARP_DEPTH, _SHARP_WIDTH = 0.05, 0.05
_FLAT_DEPTH, _FLAT_WIDTH = 1.0, 0.8


def _double_well(w: np.ndarray) -> tuple[float, np.ndarray]:
    x = w[0]
    es = np.exp(-((x + 1.0) ** 2) / (2 * _SHARP_WIDTH**2))
    ef = np.exp(-((x - 1.0) ** 2) / (2 * _FLAT_WIDTH**2))
    loss = -_SHARP_DEPTH * es - _FLAT_DEPTH * ef
    grad = (
        _SHARP_DEPTH * (x + 1.0) / _SHARP_WIDTH**2 * es
        + _FLAT_DEPTH * (x - 1.0) / _FLAT_WIDTH**2 * ef
    )
    return float(loss), np.array([grad])


def _curvature(x: float, h: float = 1e-3) -> float:
    lp, _ = _double_well(np.array([x + h]))
    l0, _ = _double_well(np.array([x]))
    lm, _ = _double_well(np.array([x - h]))
    return (lp - 2 * l0 + lm) / h**2


def test_double_well_basin_selection():
    x0 = np.array([-0.95])  # inside the narrow basin (ridge near -0.89)
    cfg_plain = OptimizerConfig(eta=0.02, rho=0.0)
    cfg_two_pass = OptimizerConfig(eta=0.02, rho=0.2)
    w_plain, w_two = x0.copy(), x0.copy()
    for _ in range(2000):
        w_plain, _ = single_pass_update(w_plain, _double_well, cfg_plain)
        w_two, _ = two_pass_update(w_two, _double_well, cfg_two_pass)
    assert abs(w_plain[0] + 1.0) < 0.02  # pinned at the narrow minimum
    assert w_two[0] > -0.85  # escaped the narrow basin entirely
    assert _curvature(w_plain[0]) > 5.0 * abs(_curvature(w_two[0]))


def test_double_well_perturbed_evaluation_sees_past_the_wall():
    # At the frozen start the local gradient points back into the narrow
    # well, but the evaluation point rho away already feels the wide basin.
    w = np.array([-0.95])
    _, g_local = _double_well(w)
    assert g_local[0] > 0.0
    eps = sam_perturbation(g_local, rho=0.2)
    _, g_probe = _double_well(w + eps)
    assert g_probe[0] < 0.0


# ---------------------------------------------------------------------------
# Network-level optimizer
# ---------------------------------------------------------------------------


def test_baseline_step_matches_manual_update():
    params = tiny_net(seed=51)
    batch = spike_batch(params, seed=52)
    cfg = OptimizerConfig(eta=0.3, rho=0.0, train_threshold=True)
    opt = SastOptimizer(cfg)
    stepped, report = opt.baseline_step(params, ARCTAN_PI, batch)
    g = backward(params, ARCTAN_PI, batch).grads.vector()
    want = parameter_vector(params) - 0.3 * g
    for sl in threshold_slices(params):
        want[sl] = np.maximum(want[sl], THETA_FLOOR)
    np.testing.assert_array_equal(parameter_vector(stepped), want)
    assert report.n_passes == 1


def test_sast_step_zero_radius_equals_baseline():
    params = tiny_net(seed=53)
    batch = spike_batch(params, seed=54)
    cfg = OptimizerConfig(eta=0.2, rho=0.0, second_batch=REUSED)
    a, _ = SastOptimizer(cfg).sast_step(params, ARCTAN_PI, batch)
    b, _ = SastOptimizer(cfg).baseline_step(params, ARCTAN_PI, batch)
    np.testing.assert_array_equal(parameter_vector(a), parameter_vector(b))


def test_sast_step_requires_second_batch_when_independent():
    params = tiny_net(seed=55)
    batch = spike_batch(params, seed=56)
    opt = SastOptimizer(OptimizerConfig(eta=0.1, rho=0.1, second_batch=INDEPENDENT))
    with pytest.raises(ValueError):
        opt.sast_step(params, ARCTAN_PI, batch)
    stepped, report = opt.sast_step(params, ARCTAN_PI, batch, spike_batch(params, seed=57))
    assert report.n_passes == 2
    assert report.epsilon_norm <= 0.1 + 1e-12


def test_sast_step_under_reused_policy_ignores_a_second_batch():
    params = tiny_net(seed=55)
    batch = spike_batch(params, seed=56)
    opt = SastOptimizer(OptimizerConfig(eta=0.1, rho=0.1, second_batch=REUSED))
    alone, rep_alone = opt.sast_step(params, ARCTAN_PI, batch)
    given, rep_given = opt.sast_step(params, ARCTAN_PI, batch, spike_batch(params, seed=57))
    np.testing.assert_array_equal(given.buffer, alone.buffer)
    assert rep_given == rep_alone


def test_step_plan_per_policy():
    assert step_plan(OptimizerConfig(rho=0.0, second_batch=INDEPENDENT), 3) == [(0,), (1,), (2,)]
    assert step_plan(OptimizerConfig(rho=0.1, second_batch=INDEPENDENT), 5) == [(0, 1), (2, 3)]
    assert step_plan(OptimizerConfig(rho=0.1, second_batch=REUSED), 2) == [(0, 0), (1, 1)]
    assert step_plan(OptimizerConfig(rho=0.1, second_batch=INDEPENDENT), 1) == []


def test_a_huge_radius_perturbs_without_overflow():
    g = np.array([3.0, 4.0])
    eps = sam_perturbation(g, 1e200)
    np.testing.assert_allclose(eps, [0.6e200, 0.8e200], rtol=1e-12)
    _, report = two_pass_update(np.zeros(2), lambda w: (0.0, g.copy()), OptimizerConfig(eta=0.1, rho=1e200))
    assert report.epsilon_norm == pytest.approx(1e200, rel=1e-12)


def test_a_radius_near_the_top_of_the_float_range_stays_inside_it():
    rho = 1e307  # rho / ||g|| overflows, so the gradient is normalized first
    eps = sam_perturbation(np.full(10, 1e-3), rho)
    assert np.all(np.isfinite(eps))
    assert rho * np.linalg.norm(eps / rho) <= rho * (1.0 + 1e-12)
    assert eps[0] > 0.0 and np.all(eps == eps[0])  # along the gradient


def test_a_radius_near_the_top_of_the_float_range_reports_its_epsilon_norm():
    # rho / ||g|| overflows here; the report normalizes first, as sam_perturbation does
    rho, g = 1e307, np.full(10, 1e-3)
    _, report = two_pass_update(np.zeros(10), lambda w: (0.0, g.copy()), OptimizerConfig(eta=0.1, rho=rho))
    # ||eps|| = rho ||g|| / (||g|| + DELTA), 3.2e-10 below rho at this small gradient
    assert report.epsilon_norm == pytest.approx(rho * np.linalg.norm(sam_perturbation(g, rho) / rho), rel=1e-12)
    assert report.epsilon_norm == pytest.approx(rho, rel=1e-9)


def test_threshold_floor_projection_after_update():
    params = tiny_net(theta=0.002, seed=58)  # thresholds barely above the floor
    batch = spike_batch(params, seed=59)
    cfg = OptimizerConfig(eta=50.0, rho=0.0, train_threshold=True)
    stepped, _ = SastOptimizer(cfg).baseline_step(params, ARCTAN_PI, batch)
    for layer in stepped.layers:
        assert np.all(layer.threshold >= THETA_FLOOR)


def test_large_radius_perturbed_point_stays_admissible():
    # Regression: the ascent offset used to push thresholds negative at the
    # second evaluation point and crash parameter reconstruction.
    params = tiny_net(theta=0.01, seed=60)
    batch = spike_batch(params, seed=61)
    cfg = OptimizerConfig(eta=0.05, rho=5.0, second_batch=REUSED, train_threshold=True)
    stepped, report = SastOptimizer(cfg).sast_step(params, ARCTAN_PI, batch)
    assert report.n_passes == 2
    for layer in stepped.layers:
        assert np.all(layer.threshold >= THETA_FLOOR)


def test_frozen_thresholds_never_move():
    params = tiny_net(seed=62)
    batch = spike_batch(params, seed=63)
    cfg = OptimizerConfig(eta=0.5, rho=0.1, second_batch=REUSED, train_threshold=False)
    opt = SastOptimizer(cfg)
    stepped = params
    for _ in range(3):
        stepped, _ = opt.sast_step(stepped, ARCTAN_PI, batch)
    for before, after in zip(params.layers, stepped.layers):
        np.testing.assert_array_equal(before.threshold, after.threshold)
        assert not np.array_equal(before.weight, after.weight)


@pytest.mark.parametrize("train_threshold", [False, True])
def test_steps_leave_the_input_network_untouched(train_threshold):
    # Benchmarks and overhead timings restart every walk from one initial
    # network, so a step must neither write into nor alias its input.
    params = tiny_net(theta=5e-4, seed=67)  # below the floor, so any clamp in place would show
    batch = spike_batch(params, seed=68)
    before = params.buffer.tobytes()
    for rho in (0.0, 5.0):
        opt = SastOptimizer(
            OptimizerConfig(eta=50.0, rho=rho, second_batch=REUSED, train_threshold=train_threshold)
        )
        for out, _ in (opt.baseline_step(params, ARCTAN_PI, batch), opt.sast_step(params, ARCTAN_PI, batch)):
            assert params.buffer.tobytes() == before
            assert not np.shares_memory(out.buffer, params.buffer)


# ---------------------------------------------------------------------------
# The row-wise update of a lockstep group
# ---------------------------------------------------------------------------

ROW_NET = tiny_net(theta=5e-4, seed=70)  # thresholds below the floor, so every clamp shows
ROW_KINDS = ("plain", "zero", "huge_rho", "non_finite")  # a row's gradient and radius


def _row(kind: str, eta: float, frozen: bool, last: bool, seed: int):
    """One row: its start, raw gradient, config and whether its pass is the step's last."""
    rng = np.random.default_rng(seed)
    size = ROW_NET.buffer.size
    w = ROW_NET.buffer + 0.1 * rng.standard_normal(size)
    g = {"zero": np.zeros(size), "huge_rho": 1e-3 * rng.standard_normal(size)}.get(kind, rng.standard_normal(size))
    if kind == "non_finite":  # an SGD step that leaves the float range in a weight, which no clamp bounds
        g[rng.integers(ROW_NET.layers[0].weight.size)] = np.inf
        last = True
    rho = {"huge_rho": 1e307, "zero": 0.1}.get(kind, float(rng.choice([0.0, 0.05, 0.3])))
    return w, g, OptimizerConfig(eta=eta, rho=rho, train_threshold=not frozen), last


def _row_rule(w: np.ndarray, g: np.ndarray, cfg: OptimizerConfig, last: bool) -> tuple[np.ndarray, np.ndarray]:
    """A lone row's point, as the per-row rule gives it, and its gradient with frozen thresholds zeroed."""
    g = g.copy()
    if not cfg.train_threshold:
        for sl in threshold_slices(ROW_NET):
            g[sl] = 0.0
    return clamp_thresholds(optim._next_point(w, g, cfg, last), ROW_NET), g


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(ROW_KINDS),
            st.sampled_from([0.05, 0.5, 2.0, 1e3]),
            st.booleans(),
            st.booleans(),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_property_each_row_of_the_update_is_its_lone_rule_bit_for_bit(rows):
    # Zero gradients (the DELTA floor), a radius whose scale overflows (the
    # normalize-first branch), frozen and trained thresholds, a step size per
    # row, and rows that leave the float range, in one group.
    drawn = [_row(*row) for row in rows]
    w = np.stack([row[0] for row in drawn])
    g = np.stack([row[1] for row in drawn])
    cfgs, last = [row[2] for row in drawn], [row[3] for row in drawn]
    want = [_row_rule(row[0], row[1], cfg, is_last) for row, cfg, is_last in zip(drawn, cfgs, last)]
    out = np.empty_like(w)
    finite = next_points(w, g, cfgs, last, threshold_slices(ROW_NET), out)
    for m, (point, grad) in enumerate(want):
        assert out[m].tobytes() == point.tobytes()
        assert g[m].tobytes() == grad.tobytes()  # frozen thresholds zeroed in place
        assert finite[m] == bool(np.all(np.isfinite(point)))
        assert finite[m] == (rows[m][0] != "non_finite")


def test_every_ascent_row_is_its_own_sam_perturbation(monkeypatch):
    # Each ascent row goes through sam_perturbation with its own gradient
    # and radius, which refuses a bad radius and checks ||eps|| <= rho.
    calls = []
    real = optim.sam_perturbation

    def spy(grad, rho):
        calls.append((grad.tobytes(), rho))
        return real(grad, rho)

    monkeypatch.setattr(optim, "sam_perturbation", spy)
    drawn = [_row("plain", 0.5, False, last, seed) for seed, last in enumerate([False, True, False])]
    w, g = np.stack([row[0] for row in drawn]), np.stack([row[1] for row in drawn])
    cfgs = [OptimizerConfig(eta=0.5, rho=rho) for rho in (0.1, 0.2, 0.3)]
    next_points(w, g, cfgs, [False, True, False], threshold_slices(ROW_NET), np.empty_like(w))
    assert calls == [(g[0].tobytes(), 0.1), (g[2].tobytes(), 0.3)]
    bad = SimpleNamespace(eta=0.5, rho=math.nan, train_threshold=True)  # past OptimizerConfig's own check
    with pytest.raises(ValueError, match="perturbation radius must be non-negative and finite, got nan"):
        next_points(w, g, [cfgs[0], cfgs[1], bad], [False, True, False], threshold_slices(ROW_NET), np.empty_like(w))


def test_a_lone_step_that_leaves_the_float_range_raises_the_rows_message():
    params = tiny_net(seed=71)
    g = np.zeros(params.buffer.size)
    g[0] = np.inf
    with pytest.raises(InstabilityError, match=f"^{NON_FINITE_POINT}$"):
        SastOptimizer(OptimizerConfig(eta=0.5))._point(params, g, last=True)


# ---------------------------------------------------------------------------
# Convergence trial plumbing
# ---------------------------------------------------------------------------


def _tiny_task(batch_size=None, n_samples=8) -> ConvergenceTask:
    params = tiny_net(dims=(4, 3), n_classes=2, theta=0.3, weight_scale=0.4, seed=64)
    # Fresh nets have exactly-zero biases; a multiplicative cap margin needs a
    # generic start point, so nudge them off the measure-zero coincidence.
    rng = np.random.default_rng(66)
    for layer in params.layers:
        layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
    data = spike_batch(params, n_samples=n_samples, n_steps=3, seed=65)
    return ConvergenceTask(params0=params, spec=ARCTAN_PI, data=data, batch_size=batch_size)


def test_convergence_trial_full_batch():
    task = _tiny_task()
    beta_hint = 1e4  # step chosen far below any plausible admissible cap
    report = convergence_trial(
        task, OptimizerConfig(eta=0.25 / beta_hint, rho=1e-3), n_updates=12, seeds=(0, 1)
    )
    assert report.sigma_sq == 0.0
    assert report.eta_admissible
    assert report.caps_held
    assert report.holds
    assert report.n_seeds == 2 and report.n_updates == 12
    assert len(report.grad_sq_traces) == 2
    assert all(len(t) == 12 for t in report.grad_sq_traces)
    # Full-batch runs have no batch randomness: seeds agree exactly.
    assert report.grad_sq_traces[0] == report.grad_sq_traces[1]
    assert report.rhs == pytest.approx(
        report.rhs_descent + report.rhs_perturb + report.rhs_noise, rel=1e-12
    )


def test_convergence_trial_minibatch_measures_noise():
    task = _tiny_task(batch_size=2)
    report = convergence_trial(
        task, OptimizerConfig(eta=1e-6, rho=1e-3), n_updates=8, seeds=(0, 1, 2)
    )
    assert report.sigma_sq > 0.0
    assert report.holds


def test_convergence_trial_computes_each_full_data_gradient_once(monkeypatch):
    # 8 updates: one full-data gradient per iterate plus the final one.  The
    # noise estimate, refreshed every data pass, reuses its iterate's gradient.
    task = _tiny_task(batch_size=2)
    calls = []

    def counted(params, spec, batch):
        calls.append(batch.n_samples)
        return backward(params, spec, batch)

    monkeypatch.setattr(optim, "backward", counted)
    convergence_trial(task, OptimizerConfig(eta=1e-6, rho=1e-3), n_updates=8, seeds=(0,))
    assert calls.count(task.data.n_samples) == 9


@pytest.mark.parametrize("rho, passes", [(1e-3, 9), (0.0, 5)])
def test_a_full_batch_update_takes_the_iterate_gradient_as_its_first_pass(monkeypatch, rho, passes):
    # 4 updates: the iterate's gradient, a second pass at the perturbed point
    # when rho > 0, and the final iterate's gradient.
    task = _tiny_task()
    calls = []

    def counted(params, spec, batch):
        calls.append(batch.n_samples)
        return backward(params, spec, batch)

    monkeypatch.setattr(optim, "backward", counted)
    convergence_trial(task, OptimizerConfig(eta=1e-3, rho=rho), n_updates=4, seeds=(0,))
    assert calls == [task.data.n_samples] * passes


def test_convergence_trial_flags_inadmissible_step():
    task = _tiny_task()
    report = convergence_trial(task, OptimizerConfig(eta=10.0, rho=0.0), n_updates=4, seeds=(0,))
    assert not report.eta_admissible


def test_epoch_chunks_follow_the_permutation_and_drop_a_partial_chunk():
    order = np.random.default_rng(5).permutation(7)
    chunks = epoch_chunks(7, 2, np.random.default_rng(5))
    assert [c.tolist() for c in chunks] == [order[0:2].tolist(), order[2:4].tolist(), order[4:6].tolist()]
    assert epoch_chunks(7, 8, np.random.default_rng(5)) == []


@pytest.mark.parametrize("rho, second_batch", [(1e-3, INDEPENDENT), (1e-3, REUSED), (0.0, INDEPENDENT)])
def test_a_minibatch_trial_reads_the_chunks_that_step_plan_plans(monkeypatch, rho, second_batch):
    # 7 samples in chunks of 2: three chunks and a dropped sample per epoch, so
    # an independent pair leaves each epoch's last chunk unread.
    task = _tiny_task(batch_size=2, n_samples=7)
    rows = {frames.tobytes(): i for i, frames in enumerate(task.data.inputs)}
    assert len(rows) == 7
    reads = []
    step = SastOptimizer._step

    def recorded(self, params, spec, batches):
        reads.append([sorted(rows[f.tobytes()] for f in batch.inputs) for batch in batches])
        return step(self, params, spec, batches)

    monkeypatch.setattr(SastOptimizer, "_step", recorded)
    cfg = OptimizerConfig(eta=1e-6, rho=rho, second_batch=second_batch)
    convergence_trial(task, cfg, n_updates=5, seeds=(3,))

    rng, planned = np.random.default_rng(3), []
    plan = step_plan(cfg, 3)
    while len(planned) < 5:
        epoch_chunks(7, 2, rng)  # the noise estimate's partition comes first
        chunks = epoch_chunks(7, 2, rng)
        planned += [[sorted(chunks[i].tolist()) for i in pair] for pair in plan]
    assert reads == planned[:5]
    if second_batch == INDEPENDENT and rho > 0.0:
        assert plan == [(0, 1)]  # one pair per epoch: its last chunk goes unread


def test_a_zero_radius_trial_is_the_same_under_either_second_batch_policy():
    task = _tiny_task(batch_size=2)
    independent, reused = (
        convergence_trial(task, OptimizerConfig(eta=1e-3, rho=0.0, second_batch=policy), n_updates=6, seeds=(0, 1))
        for policy in (INDEPENDENT, REUSED)
    )
    assert independent == reused


def test_a_batch_size_whose_epoch_plans_no_step_is_refused_before_any_pass(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("the schedule must be refused before any pass")

    monkeypatch.setattr(optim, "backward", no_pass)
    task = _tiny_task(batch_size=5)  # one chunk of the 8 samples: no independent pair
    with pytest.raises(ValueError, match="^batch_size 5 leaves no step in an epoch of the 8-sample task$"):
        convergence_trial(task, OptimizerConfig(eta=1e-6, rho=1e-3, second_batch=INDEPENDENT), n_updates=4)


@pytest.mark.parametrize("batch_size", [0, -2])
def test_a_convergence_task_refuses_a_batch_size_below_one(batch_size):
    with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
        _tiny_task(batch_size=batch_size)


@pytest.mark.parametrize(
    "n_updates, seeds, match",
    [(0, (0,), "n_updates must be at least 1, got 0"), (3, (), "seeds must name at least one seed")],
)
def test_a_convergence_trial_refuses_an_empty_run(n_updates, seeds, match):
    with pytest.raises(ValueError, match=match):
        convergence_trial(_tiny_task(), OptimizerConfig(eta=1e-6, rho=1e-3), n_updates=n_updates, seeds=seeds)
