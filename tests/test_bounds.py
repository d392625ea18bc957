"""Closed-form constants against frozen independent derivations.

The scalar oracles below were computed at 30-digit precision from the
recurrences (geometric sums, the contraction factor, the per-layer state
caps, the depth-compounded gain) on a frozen assumption set, then pasted
here as decimals.  The Monte-Carlo sections try to falsify the inequalities
on concrete networks whose caps are measured, not assumed.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARCTAN_PI, tiny_net
from spikesam.bounds import (
    AssumptionSet,
    assumptions_from,
    check_caps,
    compute_constants,
    constants_to_dict,
    contraction_gamma,
    convergence_rhs,
    event_drop_distance_bound,
    event_drop_loss_bound,
    geometric_factor,
    input_lipschitz,
    loss_stability_bound,
    parameter_constants,
    sam_upper_bound,
    save_constants,
    smoothness_beta,
    state_bounds,
    temporal_gain,
)
from spikesam.gradients import Batch, backward, batch_loss
from spikesam.network import SurrogateSpec, forward, init_network, parameter_vector, replace_parameters

FROZEN = AssumptionSet(
    r_x=2.0,
    m_a=1.5,
    m_b=0.3,
    m_theta=0.8,
    m_out=1.2,
    alpha=0.5,
    b1=0.4,
    b2=0.9,
    n_steps=4,
    dims=(6, 5, 4),
)


# ---------------------------------------------------------------------------
# Frozen-value oracles
# ---------------------------------------------------------------------------


def test_geometric_factor_frozen():
    assert geometric_factor(0.5, 4) == pytest.approx(1.875, rel=1e-15)
    assert geometric_factor(0.5, 3) == pytest.approx(1.75, rel=1e-15)
    assert geometric_factor(1.0, 7) == 7.0  # removable singularity handled exactly
    assert geometric_factor(0.82, 4) == pytest.approx(3.043768, rel=1e-12)


def test_contraction_gamma_frozen():
    gamma, contractive = contraction_gamma(FROZEN)
    assert gamma == pytest.approx(0.82, rel=1e-15)
    assert contractive
    hot = AssumptionSet(**{**FROZEN.__dict__, "m_theta": 2.0})
    gamma2, contractive2 = contraction_gamma(hot)
    assert gamma2 == pytest.approx(1.3, rel=1e-15)
    assert not contractive2


def test_state_bounds_frozen():
    r_u = state_bounds(FROZEN)
    np.testing.assert_allclose(
        r_u, [9.5416019662496845446, 9.8514411867181585212], rtol=1e-13
    )


def test_temporal_gain_and_input_lipschitz_frozen():
    assert temporal_gain(FROZEN) == pytest.approx(1.8262608, rel=1e-13)
    assert input_lipschitz(FROZEN) == pytest.approx(2.001137105769984, rel=1e-13)


def test_parameter_constants_frozen():
    c_inner, c_p, l_w, h_w = parameter_constants(FROZEN)
    assert c_inner == pytest.approx(8.8760679774997896964, rel=1e-13)
    assert c_p == pytest.approx(11.876067977499789696, rel=1e-13)
    assert l_w == pytest.approx(23.765640300421516617, rel=1e-13)
    assert h_w == pytest.approx(1709.2188341529842476, rel=1e-13)


def test_smoothness_beta_frozen():
    _, _, l_w, h_w = parameter_constants(FROZEN)
    assert smoothness_beta(l_w, h_w) == pytest.approx(3700.8404977504781525, rel=1e-13)


def test_single_layer_chain_by_hand():
    # Depth one, re-derived inline with plain arithmetic.
    a = AssumptionSet(
        r_x=1.0, m_a=2.0, m_b=0.0, m_theta=0.5, m_out=1.0,
        alpha=0.5, b1=0.5, b2=1.0, n_steps=2, dims=(3, 4),
    )
    s_alpha = 1.0 + 0.5
    gamma = 0.5 + 0.5 * 0.5
    s_gamma = 1.0 + gamma
    g_t = 0.5 * 2.0 * s_gamma
    assert contraction_gamma(a)[0] == pytest.approx(gamma)
    assert temporal_gain(a) == pytest.approx(g_t)
    np.testing.assert_allclose(state_bounds(a), [s_alpha * (2.0 * 1.0 + 0.0 + 0.5 * 2.0)])
    assert input_lipschitz(a) == pytest.approx(1.0 * g_t / math.sqrt(2.0))
    c_inner = 1.0 + 2.0 + 0.5 * 0.5
    c_p = c_inner + 2.0 + 1.0
    l_w = 1.0 * g_t / math.sqrt(2.0) * c_p
    h_w = 1.0 * g_t**2 * 1.0 * c_p**2 + g_t * c_inner / math.sqrt(2.0)
    got = parameter_constants(a)
    assert got == pytest.approx((c_inner, c_p, l_w, h_w), rel=1e-14)
    assert smoothness_beta(l_w, h_w) == pytest.approx(0.5 * l_w**2 + 2.0 * h_w, rel=1e-14)


def test_scalar_bound_helpers():
    assert sam_upper_bound(1.0, 2.0, 0.1, 10.0) == pytest.approx(1.0 + 0.2 + 0.05)
    assert loss_stability_bound(3.0, 0.5) == pytest.approx(math.sqrt(2.0) * 1.5)
    assert event_drop_distance_bound(0.25, 4, 2.0) == pytest.approx(2.0)  # sqrt(.25*4)*2
    assert event_drop_loss_bound(3.0, 0.25, 4, 2.0) == pytest.approx(math.sqrt(2.0) * 6.0)


def test_convergence_rhs_decomposition():
    rhs, descent, perturb, noise = convergence_rhs(
        loss0=2.0, loss_star=0.5, beta=10.0, eta=0.01, rho=0.05, sigma_sq=0.3, n_updates=20
    )
    assert descent == pytest.approx(4.0 * 1.5 / (0.01 * 20))
    assert perturb == pytest.approx(3.0 * 100.0 * 0.0025)
    assert noise == pytest.approx(2.0 * 0.01 * 10.0 * 0.3)
    assert rhs == pytest.approx(descent + perturb + noise)


def test_compute_constants_consistent_with_pieces():
    tc = compute_constants(FROZEN)
    assert tc.gamma == contraction_gamma(FROZEN)[0]
    assert tc.l_x == input_lipschitz(FROZEN)
    assert tc.beta == smoothness_beta(tc.l_w, tc.h_w)
    assert tc.max_stable_step == pytest.approx(0.25 / tc.beta, rel=1e-15)
    np.testing.assert_allclose(tc.r_u, state_bounds(FROZEN))


def test_a_zero_network_admits_every_step_size():
    # All-zero weights make the loss smooth with beta = 0: no step is too large.
    params = init_network((4, 3), 2, weight_scale=0.0)
    tc = compute_constants(assumptions_from(params, SurrogateSpec("arctan", 1.0), 1.0, 4))
    assert tc.beta == 0.0
    assert tc.max_stable_step == math.inf
    assert constants_to_dict(tc)["max_stable_step"] == math.inf


def test_constants_serialization(tmp_path):
    tc = compute_constants(FROZEN)
    d = constants_to_dict(tc)
    path = str(tmp_path / "constants.json")
    save_constants(path, tc)
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(d))
    for key in ("gamma", "beta", "l_x", "l_w", "h_w", "r_u"):
        assert key in loaded


def test_assumption_validation():
    with pytest.raises(ValueError):
        AssumptionSet(**{**FROZEN.__dict__, "alpha": 1.0})
    with pytest.raises(ValueError):
        AssumptionSet(**{**FROZEN.__dict__, "m_a": -0.1})
    with pytest.raises(ValueError):
        AssumptionSet(**{**FROZEN.__dict__, "n_steps": 0})
    with pytest.raises(ValueError):
        AssumptionSet(**{**FROZEN.__dict__, "dims": (4,)})


def test_assumptions_from_measures_and_inflates():
    params = tiny_net(seed=40)
    a1 = assumptions_from(params, ARCTAN_PI, r_x=2.0, n_steps=5, margin=1.0)
    a2 = assumptions_from(params, ARCTAN_PI, r_x=2.0, n_steps=5, margin=2.0)
    assert a2.m_a == pytest.approx(2.0 * a1.m_a)
    assert a2.alpha == a1.alpha  # the leak is a model constant, not a cap
    assert a1.b1 == ARCTAN_PI.derivative_bound
    with pytest.raises(ValueError):
        assumptions_from(params, ARCTAN_PI, r_x=2.0, n_steps=5, margin=0.5)


def test_check_caps():
    params = tiny_net(seed=41)
    a = assumptions_from(params, ARCTAN_PI, r_x=1.0, n_steps=4, margin=1.0)
    assert check_caps(params, a)
    big = params.copy()
    big.layers[0].weight *= 3.0
    assert not check_caps(big, a)


# ---------------------------------------------------------------------------
# Monte-Carlo falsification on concrete networks (caps measured, margin 1)
# ---------------------------------------------------------------------------


def _normalized_frames(rng, n, n_steps, d0, r_x):
    x = rng.standard_normal((n, n_steps, d0))
    norms = np.sqrt((x**2).sum(axis=2, keepdims=True))
    return x * (r_x / np.maximum(norms, 1e-12)) * rng.random((n, n_steps, 1))


def test_state_bounds_hold_on_random_nets():
    rng = np.random.default_rng(42)
    for trial in range(10):
        params = tiny_net(
            dims=(5, 4, 3), n_classes=2, alpha=float(rng.uniform(0.2, 0.7)),
            theta=float(rng.uniform(0.3, 0.8)), weight_scale=float(rng.uniform(0.3, 1.2)),
            seed=100 + trial,
        )
        spec = SurrogateSpec("arctan", float(rng.uniform(0.5, 2.0)))
        r_x = float(rng.uniform(0.5, 2.0))
        a = assumptions_from(params, spec, r_x=r_x, n_steps=6, margin=1.0)
        r_u = state_bounds(a)
        x = _normalized_frames(rng, 8, 6, 5, r_x)
        trace = forward(params, spec, x)
        for layer_idx, u in enumerate(trace.u):
            seen = float(np.sqrt((u**2).sum(axis=2)).max())
            assert seen <= r_u[layer_idx] * (1 + 1e-12), (trial, layer_idx)


def test_input_lipschitz_secants_hold():
    rng = np.random.default_rng(43)
    violations = 0
    for trial in range(10):
        params = tiny_net(
            dims=(4, 4, 3), n_classes=3, alpha=0.4, theta=0.6,
            weight_scale=float(rng.uniform(0.3, 1.0)), seed=200 + trial,
        )
        spec = SurrogateSpec("arctan", 1.0)
        r_x = 1.5
        a = assumptions_from(params, spec, r_x=r_x, n_steps=5, margin=1.0)
        l_x = input_lipschitz(a)
        for _ in range(20):
            x1 = _normalized_frames(rng, 1, 5, 4, r_x)
            x2 = _normalized_frames(rng, 1, 5, 4, r_x)
            d_logits = float(
                np.linalg.norm(
                    forward(params, spec, x1).logits - forward(params, spec, x2).logits
                )
            )
            dist = float(np.sqrt(((x1 - x2) ** 2).sum()))
            if d_logits > l_x * dist * (1 + 1e-9) + 1e-12:
                violations += 1
    assert violations == 0


def test_loss_stability_bound_holds():
    rng = np.random.default_rng(44)
    params = tiny_net(dims=(4, 3), n_classes=2, alpha=0.4, theta=0.6, weight_scale=0.7, seed=300)
    spec = SurrogateSpec("arctan", 1.0)
    r_x = 1.0
    a = assumptions_from(params, spec, r_x=r_x, n_steps=4, margin=1.0)
    l_x = input_lipschitz(a)
    labels = np.array([0, 1, 0], dtype=np.int64)
    for _ in range(25):
        x = _normalized_frames(rng, 3, 4, 4, r_x)
        x_tilde = np.clip(x + 0.1 * rng.standard_normal(x.shape), -r_x, r_x)
        # keep the perturbed frames admissible too
        norms = np.sqrt((x_tilde**2).sum(axis=2, keepdims=True))
        x_tilde = x_tilde * np.minimum(1.0, r_x / np.maximum(norms, 1e-12))
        gap = abs(
            batch_loss(params, spec, Batch(x, labels))
            - batch_loss(params, spec, Batch(x_tilde, labels))
        )
        worst_dist = max(
            float(np.sqrt(((x[i] - x_tilde[i]) ** 2).sum())) for i in range(3)
        )
        assert gap <= loss_stability_bound(l_x, worst_dist) * (1 + 1e-9) + 1e-12


def test_sam_probe_bound_holds():
    rng = np.random.default_rng(45)
    params = tiny_net(dims=(4, 3), n_classes=2, alpha=0.4, theta=0.6, weight_scale=0.6, seed=400)
    spec = SurrogateSpec("arctan", 1.0)
    x = _normalized_frames(rng, 4, 4, 4, 1.0)
    batch = Batch(x, np.array([0, 1, 0, 1], dtype=np.int64))
    a = assumptions_from(params, spec, r_x=1.0, n_steps=4, margin=2.0)
    beta = compute_constants(a).beta
    bundle = backward(params, spec, batch)
    w0 = parameter_vector(params)
    g_norm = float(np.linalg.norm(bundle.grads.vector()))
    rho = 0.05
    cap = sam_upper_bound(bundle.loss, g_norm, rho, beta)
    for _ in range(64):
        d = rng.standard_normal(w0.size)
        d *= rho / np.linalg.norm(d)
        probed = batch_loss(replace_parameters(params, w0 + d), spec, batch)
        assert probed <= cap * (1 + 1e-12)


def test_event_drop_distance_monte_carlo():
    rng = np.random.default_rng(46)
    n_steps, d0 = 5, 8
    x = (rng.random((n_steps, d0)) < 0.5).astype(np.float64)
    r_x = float(np.sqrt((x**2).sum(axis=1)).max())
    for p in (0.1, 0.25, 0.4):
        keep = rng.random((2000, n_steps, d0)) >= p
        dists = np.sqrt((((x[None] * keep) - x[None]) ** 2).sum(axis=(1, 2)))
        assert dists.mean() <= event_drop_distance_bound(p, n_steps, r_x) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95),
    m_theta=st.floats(0.0, 2.0),
    b1=st.floats(0.01, 2.0),
    n_steps=st.integers(1, 12),
)
def test_property_gamma_and_gain_monotone(alpha, m_theta, b1, n_steps):
    base = AssumptionSet(
        r_x=1.0, m_a=1.0, m_b=0.1, m_theta=m_theta, m_out=1.0,
        alpha=alpha, b1=b1, b2=1.0, n_steps=n_steps, dims=(4, 3),
    )
    gamma, flag = contraction_gamma(base)
    assert gamma == pytest.approx(alpha + m_theta * b1, rel=1e-12)
    assert flag == (gamma < 1.0)
    more_steps = AssumptionSet(**{**base.__dict__, "n_steps": n_steps + 1})
    assert temporal_gain(more_steps) >= temporal_gain(base) - 1e-12
    heavier = AssumptionSet(**{**base.__dict__, "m_a": 2.0})
    assert input_lipschitz(heavier) >= input_lipschitz(base)
    assert compute_constants(heavier).beta >= compute_constants(base).beta


@settings(max_examples=60, deadline=None)
@given(
    loss0=st.floats(0.1, 10.0),
    beta=st.floats(1.0, 1e4),
    eta_frac=st.floats(0.01, 1.0),
    rho=st.floats(0.0, 0.5),
    sigma_sq=st.floats(0.0, 5.0),
    k=st.integers(1, 1000),
)
def test_property_convergence_rhs_positive_and_additive(loss0, beta, eta_frac, rho, sigma_sq, k):
    eta = eta_frac * 0.25 / beta
    rhs, descent, perturb, noise = convergence_rhs(
        loss0=loss0, loss_star=0.0, beta=beta, eta=eta, rho=rho, sigma_sq=sigma_sq, n_updates=k
    )
    assert rhs >= 0.0
    assert rhs == pytest.approx(descent + perturb + noise, rel=1e-12)
