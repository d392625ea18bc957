"""Empirical probes: secant smoothness, ascent gaps, the gradient link.

Oracles are analytic cases — quadratics with known Hessians, linear losses,
duplicated-readout networks with exactly singular logit Jacobians.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ARCTAN_PI, dense_batch, spike_batch, tiny_net
from spikesam.bounds import assumptions_from, compute_constants, sam_upper_bound
from spikesam.diagnostics import (
    HARD_MODE,
    SURROGATE_MODE,
    SampleStats,
    accuracy,
    diagnose,
    gram_min_singular,
    mechanism_check,
    observed_contraction,
    sam_gap,
    sam_gap_from_loss,
    secant_smoothness,
    secant_smoothness_from_grad,
)
from spikesam.gradients import backward
from spikesam.network import init_network

# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def test_sample_stats_frozen_pair():
    s = SampleStats.from_values([0.9, 1.0])
    assert s.mean == pytest.approx(0.95)
    assert s.std == pytest.approx(0.07071067811865475244, rel=1e-12)  # ddof = 1
    assert s.median == pytest.approx(0.95)
    assert s.iqr == pytest.approx(0.05)


def test_sample_stats_singleton_and_empty():
    s = SampleStats.from_values([2.0])
    assert s.std == 0.0 and s.mean == 2.0
    with pytest.raises(ValueError):
        SampleStats.from_values([])


# ---------------------------------------------------------------------------
# Secant smoothness
# ---------------------------------------------------------------------------


def test_secant_exact_on_isotropic_quadratic():
    lam = 3.7

    def grad_at(w):
        return lam * w

    report = secant_smoothness_from_grad(grad_at, np.zeros(6), radii=(0.1, 1.0), n_probes=4)
    assert report.beta_sec == pytest.approx(lam, rel=1e-12)
    assert report.per_radius == pytest.approx((lam, lam), rel=1e-12)
    assert report.radii == (0.1, 1.0)
    assert report.n_probes == 4


def test_secant_lower_bounds_anisotropic_hessian():
    h = np.diag([0.5, 2.0, 9.0])

    def grad_at(w):
        return h @ w

    report = secant_smoothness_from_grad(grad_at, np.zeros(3), radii=(0.5,), n_probes=50, seed=1)
    assert 0.5 <= report.beta_sec <= 9.0 + 1e-12


def test_secant_rejects_bad_radius():
    with pytest.raises(ValueError):
        secant_smoothness_from_grad(lambda w: w, np.zeros(2), radii=(0.0,))


def test_network_secant_below_closed_form_beta():
    params = tiny_net(dims=(4, 3), n_classes=2, theta=0.5, weight_scale=0.5, seed=70)
    batch = spike_batch(params, n_samples=4, n_steps=3, seed=71)
    report = secant_smoothness(params, ARCTAN_PI, batch, radii_rel=(1e-3, 1e-2), n_probes=5)
    r_x = float(np.sqrt((batch.inputs**2).sum(axis=2)).max())
    # margin covers the probe ball; the closed-form constant is then a true cap
    assume = assumptions_from(params, ARCTAN_PI, r_x, batch.inputs.shape[1], margin=1.5)
    beta = compute_constants(assume).beta
    assert report.beta_sec <= beta
    assert report.beta_sec > 0.0


# ---------------------------------------------------------------------------
# Ascent gap
# ---------------------------------------------------------------------------


def test_sam_gap_linear_loss_is_rho_times_gradient_norm():
    c = np.array([3.0, -4.0])  # norm 5

    def loss_at(w):
        return float(c @ w)

    report = sam_gap_from_loss(loss_at, grad0=c, w0=np.zeros(2), rho=0.2, n_probes=16)
    assert report.gap == pytest.approx(1.0, rel=1e-12)  # 0.2 * 5
    assert report.ascent_gap == pytest.approx(1.0, rel=1e-12)
    assert report.rho == 0.2
    assert report.n_probes == 16


def test_sam_gap_zero_radius():
    report = sam_gap_from_loss(lambda w: float(w @ w), np.zeros(2), np.zeros(2), rho=0.0)
    assert report.gap == 0.0


def test_network_sam_gap_below_closed_form_cap():
    params = tiny_net(dims=(4, 3), n_classes=2, theta=0.5, weight_scale=0.5, seed=72)
    batch = spike_batch(params, n_samples=4, n_steps=3, seed=73)
    rho = 0.05
    report = sam_gap(params, ARCTAN_PI, batch, rho, seed=5)
    r_x = float(np.sqrt((batch.inputs**2).sum(axis=2)).max())
    assume = assumptions_from(params, ARCTAN_PI, r_x, batch.inputs.shape[1], margin=2.0)
    beta = compute_constants(assume).beta
    bundle = backward(params, ARCTAN_PI, batch)
    g_norm = float(np.linalg.norm(bundle.grads.vector(False)))
    cap = sam_upper_bound(bundle.loss, g_norm, rho, beta)
    assert bundle.loss + report.gap <= cap


# ---------------------------------------------------------------------------
# Accuracy and the transfer gap
# ---------------------------------------------------------------------------


def test_accuracy_on_rigged_readout():
    params = tiny_net(dims=(4, 3), n_classes=2, seed=74)
    batch = spike_batch(params, n_samples=6, n_steps=4, seed=75)
    rigged = params.copy()
    rigged.w_out[:] = 0.0
    rigged.b_out[:] = 0.0
    rigged.b_out[1] = 5.0  # always predicts class 1
    acc = accuracy(rigged, ARCTAN_PI, batch.inputs, batch.labels, SURROGATE_MODE)
    assert acc == pytest.approx(float((batch.labels == 1).mean()))
    # Readout-only rigging makes both modes agree: the gap vanishes.
    assert accuracy(rigged, ARCTAN_PI, batch.inputs, batch.labels, HARD_MODE) == acc


@pytest.mark.parametrize("mode", [SURROGATE_MODE, HARD_MODE])
def test_accuracy_keeps_no_membrane_states(mode):
    # The packaged 48->16->16->16 net on a 1024 x 8 x 48 split: one full
    # state trace is 7.3 MiB there, the activity of two layers at a time 2 MiB.
    params = init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=3)
    rng = np.random.default_rng(4)
    frames = (rng.random((1024, 8, 48)) < 0.2).astype(np.float64)
    labels = rng.integers(0, 2, size=1024)
    tracemalloc.start()
    try:
        accuracy(params, ARCTAN_PI, frames, labels, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 1024


def test_transfer_gap_sign_convention():
    params = tiny_net(seed=76)
    batch = spike_batch(params, n_samples=8, seed=77)
    report = diagnose(params, ARCTAN_PI, batch.inputs, batch.labels, rho=0.05, max_mechanism_samples=2)
    smooth = accuracy(params, ARCTAN_PI, batch.inputs, batch.labels, SURROGATE_MODE)
    hard = accuracy(params, ARCTAN_PI, batch.inputs, batch.labels, HARD_MODE)
    assert (report.surrogate_acc, report.hard_acc) == (smooth, hard)
    assert report.transfer_gap == smooth - hard  # smooth minus hard


# ---------------------------------------------------------------------------
# Contraction from checkpoints
# ---------------------------------------------------------------------------


def test_observed_contraction_uses_worst_threshold():
    a = tiny_net(theta=0.4, seed=78)
    b = tiny_net(theta=0.4, seed=79)
    b.layers[1].threshold[2] = 0.9
    m_hat, gamma_hat = observed_contraction([a, b], ARCTAN_PI)
    assert m_hat == pytest.approx(0.9)
    assert gamma_hat == pytest.approx(a.alpha + 0.9 * ARCTAN_PI.derivative_bound)
    with pytest.raises(ValueError):
        observed_contraction([], ARCTAN_PI)
    c = tiny_net(alpha=0.3, seed=80)
    with pytest.raises(ValueError):
        observed_contraction([a, c], ARCTAN_PI)


# ---------------------------------------------------------------------------
# Gradient link
# ---------------------------------------------------------------------------


def test_gram_min_singular_matches_svd():
    rng = np.random.default_rng(81)
    for _ in range(5):
        j = rng.standard_normal((3, 40))
        want = float(np.linalg.svd(j, compute_uv=False)[-1])
        assert gram_min_singular(j) == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert gram_min_singular(np.zeros((2, 5))) == 0.0


def test_mechanism_check_holds_and_is_tight_to_its_pieces():
    params = tiny_net(dims=(5, 4), n_classes=3, seed=82)
    frames = dense_batch(params, n_samples=1, n_steps=4, seed=83).inputs[0]
    rec = mechanism_check(params, ARCTAN_PI, frames, label=1)
    assert rec.conditioned
    assert rec.holds
    assert rec.bound == pytest.approx(rec.jx_norm / rec.sigma_min * rec.param_grad_norm, rel=1e-12)
    assert rec.input_grad_norm <= rec.bound * (1 + 1e-9) + 1e-15


def test_mechanism_sigma_min_at_least_one_from_readout_bias():
    # Each logit owns a readout-bias coordinate, so the Jacobian Gram matrix
    # dominates the identity and the conditioning check passes structurally.
    params = tiny_net(dims=(5, 4), n_classes=3, seed=84)
    params.w_out[1] = params.w_out[0]
    params.b_out[1] = params.b_out[0]
    frames = dense_batch(params, n_samples=1, n_steps=4, seed=85).inputs[0]
    rec = mechanism_check(params, ARCTAN_PI, frames, label=0)
    assert rec.sigma_min >= 1.0 - 1e-9
    assert rec.conditioned and rec.holds


def test_mechanism_check_unconditioned_is_vacuous():
    params = tiny_net(dims=(5, 4), n_classes=3, seed=84)
    frames = dense_batch(params, n_samples=1, n_steps=4, seed=85).inputs[0]
    rec = mechanism_check(params, ARCTAN_PI, frames, label=0, sigma_tol=1e9)
    assert not rec.conditioned
    assert rec.holds  # counted, never asserted
    assert math.isinf(rec.bound)


def test_diagnose_smoke():
    params = tiny_net(dims=(5, 4), n_classes=2, seed=86)
    batch = spike_batch(params, n_samples=10, n_steps=4, seed=87)
    report = diagnose(params, ARCTAN_PI, batch.inputs, batch.labels, rho=0.05)
    assert report.mechanism_violations == 0
    assert 0.0 <= report.surrogate_acc <= 1.0
    assert report.transfer_gap == pytest.approx(report.surrogate_acc - report.hard_acc)
    assert report.beta_sec > 0.0
    assert report.gamma_hat == pytest.approx(
        params.alpha + report.m_theta_hat * ARCTAN_PI.derivative_bound
    )
    row = report.to_row()
    assert isinstance(row, dict) and "beta_sec" in row


def test_mode_constants():
    assert SURROGATE_MODE == "surrogate" and HARD_MODE == "hard"
