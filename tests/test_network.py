"""Spike nonlinearities, the unrolled forward pass, and parameter plumbing.

Scalar oracles were computed with 30-digit arithmetic from the closed forms
and frozen here as decimals; the forward-pass oracle is an independent
pure-Python re-implementation of the leaky recursion.
"""

from __future__ import annotations

import math
import pickle
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARCTAN_PI, spike_batch, tiny_net
from spikesam import network
from spikesam.events import Dataset
from spikesam.harness import calibrate_thresholds
from spikesam.network import (
    ARCTAN,
    FAST_SIGMOID,
    HARD,
    HARD_MODE,
    SURROGATE_MODE,
    InstabilityError,
    LayerParams,
    NetworkParams,
    SurrogateSpec,
    forward,
    hard_step,
    init_network,
    layer_drive,
    lif_layer,
    load_checkpoint,
    mode_spec,
    parameter_vector,
    replace_parameters,
    save_checkpoint,
    stack,
    surrogate_derivative,
    surrogate_second_derivative,
    surrogate_value,
    threshold_slices,
)

# ---------------------------------------------------------------------------
# Spike functions against frozen high-precision values
# ---------------------------------------------------------------------------


def test_arctan_values_frozen():
    assert surrogate_value(ARCTAN_PI, -0.5) == pytest.approx(
        0.18045353661405418665, rel=1e-14
    )
    assert surrogate_value(ARCTAN_PI, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert surrogate_derivative(ARCTAN_PI, -0.5) == pytest.approx(
        0.28840043914200094243, rel=1e-14
    )
    assert surrogate_second_derivative(ARCTAN_PI, 0.25) == pytest.approx(
        -1.8876876738637947516, rel=1e-14
    )


def test_arctan_global_bounds_frozen():
    assert ARCTAN_PI.derivative_bound == pytest.approx(1.0, rel=1e-15)
    assert ARCTAN_PI.curvature_bound == pytest.approx(2.0405242847634950819, rel=1e-14)
    # B1 is attained at the origin; B2 at x = +/- 1/(k sqrt(3)).
    assert surrogate_derivative(ARCTAN_PI, 0.0) == pytest.approx(
        ARCTAN_PI.derivative_bound, rel=1e-15
    )
    x_star = 1.0 / (ARCTAN_PI.slope * math.sqrt(3.0))
    assert abs(surrogate_second_derivative(ARCTAN_PI, x_star)) == pytest.approx(
        ARCTAN_PI.curvature_bound, rel=1e-12
    )


def test_fast_sigmoid_values_frozen():
    spec = SurrogateSpec(FAST_SIGMOID, 2.0)
    assert surrogate_value(spec, 0.75) == pytest.approx(0.8, rel=1e-15)
    assert surrogate_derivative(spec, 0.75) == pytest.approx(0.16, rel=1e-15)
    assert surrogate_second_derivative(spec, 0.75) == pytest.approx(-0.256, rel=1e-15)
    assert surrogate_second_derivative(spec, 0.0) == 0.0  # symmetric kink convention
    assert spec.derivative_bound == pytest.approx(1.0)
    assert spec.curvature_bound == pytest.approx(4.0)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([ARCTAN, FAST_SIGMOID]),
    k=st.floats(0.1, 10.0),
    x=st.floats(-50.0, 50.0),
)
def test_surrogate_shape_properties(family, k, x):
    spec = SurrogateSpec(family, k)
    v = float(surrogate_value(spec, x))
    assert 0.0 <= v <= 1.0
    assert v + float(surrogate_value(spec, -x)) == pytest.approx(1.0, abs=1e-12)
    d = float(surrogate_derivative(spec, x))
    assert 0.0 < d <= spec.derivative_bound * (1 + 1e-12)
    assert abs(float(surrogate_second_derivative(spec, x))) <= spec.curvature_bound * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from([ARCTAN, FAST_SIGMOID]), k=st.floats(0.1, 5.0), x=st.floats(-3.0, 3.0))
def test_surrogate_derivative_matches_finite_difference(family, k, x):
    spec = SurrogateSpec(family, k)
    h = 1e-6
    fd = (float(surrogate_value(spec, x + h)) - float(surrogate_value(spec, x - h))) / (2 * h)
    assert float(surrogate_derivative(spec, x)) == pytest.approx(fd, rel=1e-4, abs=1e-7)


def _surrogate_reference(spec, x, derivative):
    """The spike functions as written with Python-float operands: the slope, pi, 0.5 and 1.0."""
    k = spec.slope
    y = np.multiply(k, x)
    if derivative:
        if spec.family == ARCTAN:
            np.square(y, out=y)
            y += 1.0
            return np.divide(k / math.pi, y, out=y)
        np.abs(y, out=y)
        y += 1.0
        np.square(y, out=y)
        return np.divide(0.5 * k, y, out=y)
    if spec.family == ARCTAN:
        np.arctan(y, out=y)
        y /= math.pi
        y += 0.5
        return y
    den = np.abs(y)
    den += 1.0
    y /= den
    y += 1.0
    y *= 0.5
    return y


@pytest.mark.parametrize("family,k", [(ARCTAN, math.pi), (ARCTAN, 0.3), (FAST_SIGMOID, 2.0), (FAST_SIGMOID, 7.5)])
@pytest.mark.parametrize("derivative", [False, True])
def test_spike_functions_keep_their_bits_on_extreme_inputs(family, k, derivative):
    spec = SurrogateSpec(family, k)
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    grid = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -2.5e-320, 1e300, -1e300, 0.7, -3.0])
    fn = surrogate_derivative if derivative else surrogate_value
    with np.errstate(over="ignore", invalid="ignore"):
        want = _surrogate_reference(spec, grid, derivative)
        got = fn(spec, grid)
        into = np.empty_like(grid)
        assert fn(spec, grid, out=into) is into
        in_place = grid.copy()
        fn(spec, in_place, out=in_place)
        scalars = [fn(spec, x) for x in grid]
    for arr in (got, into, in_place, np.array(scalars)):
        assert arr.tobytes() == want.tobytes()
    assert all(isinstance(v, np.float64) for v in scalars)


def test_hard_step_tie_rule():
    got = hard_step(np.array([-1e-300, -0.0, 0.0, 1e-300, 0.3, -0.3]))
    assert got.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]


def test_hard_spec_rejects_surrogate_queries():
    hard = SurrogateSpec(HARD, 1.0)
    for fn in (surrogate_value, surrogate_derivative, surrogate_second_derivative):
        with pytest.raises(ValueError):
            fn(hard, 0.0)
    with pytest.raises(ValueError):
        _ = hard.derivative_bound
    with pytest.raises(ValueError):
        mode_spec(hard, SURROGATE_MODE)


def test_mode_spec_roundtrip():
    spec = SurrogateSpec(ARCTAN, 2.0)
    assert mode_spec(spec, SURROGATE_MODE) == spec
    hard = mode_spec(spec, HARD_MODE)
    assert hard.family == HARD and hard.slope == 2.0
    with pytest.raises(ValueError):
        mode_spec(spec, "soft")


def test_spec_validation():
    with pytest.raises(ValueError):
        SurrogateSpec("logistic", 1.0)
    with pytest.raises(ValueError):
        SurrogateSpec(ARCTAN, 0.0)
    with pytest.raises(ValueError):
        SurrogateSpec(ARCTAN, math.inf)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
@pytest.mark.parametrize("slope", [1e308, 1.35e154])
def test_a_slope_whose_curvature_bound_overflows_is_refused(family, slope):
    with pytest.raises(ValueError, match=f"^slope must be positive and at most .*, got {re.escape(str(slope))}$"):
        SurrogateSpec(family, slope)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
def test_the_largest_admitted_slope_has_finite_bounds(family):
    spec = SurrogateSpec(family, math.sqrt(sys.float_info.max))
    assert math.isfinite(spec.derivative_bound) and math.isfinite(spec.curvature_bound)


# ---------------------------------------------------------------------------
# Forward pass against a hand-unrolled reference
# ---------------------------------------------------------------------------


def naive_forward(
    params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scalar-loop re-implementation of the leaky unroll with subtraction reset.

    Returns the logits and each layer's (n, T, d) activity.
    """
    n, n_steps, _ = frames.shape
    smooth = spec.family != HARD
    logits = np.zeros((n, params.n_classes))
    activity = [np.zeros((n, n_steps, layer.d_out)) for layer in params.layers]
    for i in range(n):
        z_prev = [frames[i, t, :] for t in range(n_steps)]
        for layer, out in zip(params.layers, activity):
            u = np.zeros(layer.d_out)
            z = np.zeros(layer.d_out)
            zs = []
            for t in range(n_steps):
                u = params.alpha * u + layer.weight @ z_prev[t] + layer.bias - layer.threshold * z
                a = u - layer.threshold
                z = surrogate_value(spec, a) if smooth else hard_step(a)
                zs.append(z)
            out[i] = zs
            z_prev = zs
        zbar = np.mean(z_prev, axis=0)
        logits[i] = params.w_out @ zbar + params.b_out
    return logits, activity


def naive_forward_logits(params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray) -> np.ndarray:
    return naive_forward(params, spec, frames)[0]


@pytest.mark.parametrize("family,k", [(ARCTAN, math.pi), (ARCTAN, 0.7), (FAST_SIGMOID, 2.0)])
def test_forward_matches_naive_unroll(family, k):
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=11)
    spec = SurrogateSpec(family, k)
    batch = spike_batch(params, n_samples=5, n_steps=6, seed=12)
    trace = forward(params, spec, batch.inputs)
    want = naive_forward_logits(params, spec, batch.inputs)
    np.testing.assert_allclose(trace.logits, want, rtol=0, atol=1e-12)


def test_forward_hard_matches_naive_unroll():
    params = tiny_net(dims=(5, 4), n_classes=2, theta=0.3, weight_scale=1.2, seed=3)
    spec = SurrogateSpec(HARD, 1.0)
    batch = spike_batch(params, n_samples=6, n_steps=5, seed=4)
    trace = forward(params, spec, batch.inputs)
    want = naive_forward_logits(params, spec, batch.inputs)
    np.testing.assert_allclose(trace.logits, want, rtol=0, atol=1e-12)
    for z in trace.z:
        assert set(np.unique(z)).issubset({0.0, 1.0})


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(HARD, math.pi)], ids=["smooth", "hard"])
def test_forward_matches_naive_unroll_at_the_study_shape(spec):
    # The packaged 48-16-16-16 net at B=32, T=8: wide enough that the
    # drive products run through BLAS kernels, not a short dot loop.
    params = init_network((48, 16, 16, 16), 10, alpha=0.5, theta=0.5, seed=np.random.default_rng(41))
    batch = spike_batch(params, n_samples=32, n_steps=8, rate=0.3, seed=42)
    trace = forward(params, spec, batch.inputs)
    want_logits, want_activity = naive_forward(params, spec, batch.inputs)
    np.testing.assert_allclose(trace.logits, want_logits, rtol=0, atol=1e-12)
    if spec.family == HARD:
        for got, want in zip(trace.z, want_activity):
            assert np.array_equal(got, want)
        assert 0.0 < float(trace.z[-1].mean()) < 1.0  # the comparison saw spikes and silences


def test_forward_single_sequence_promotion():
    params = tiny_net(seed=5)
    batch = spike_batch(params, n_samples=1, n_steps=4, seed=6)
    a = forward(params, ARCTAN_PI, batch.inputs)
    b = forward(params, ARCTAN_PI, batch.inputs[0])
    np.testing.assert_array_equal(a.logits, b.logits)


def test_forward_shape_and_width_validation():
    params = tiny_net(seed=7)
    with pytest.raises(ValueError):
        forward(params, ARCTAN_PI, np.zeros((2, 3, 4, 5)))
    with pytest.raises(ValueError):
        forward(params, ARCTAN_PI, np.zeros((2, 3, params.dims[0] + 1)))
    with pytest.raises(ValueError, match="T >= 1"):  # no time step: no state to start from
        forward(params, ARCTAN_PI, np.zeros((2, 0, params.dims[0])))


def test_forward_flags_instability():
    params = tiny_net(seed=8)
    params.layers[0].weight *= 1e200
    frames = np.full((1, 3, params.dims[0]), 1e200)
    for spec in (ARCTAN_PI, SurrogateSpec(HARD, 1.0)):
        with warnings.catch_warnings():  # the overflowing drive surfaces only as InstabilityError
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match="layer 1, step 1"):
                forward(params, spec, frames)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID, HARD])
@pytest.mark.parametrize("batched", [True, False], ids=["3d", "2d"])
def test_forward_without_states_keeps_the_logits_and_drops_the_states(family, batched):
    params = tiny_net(dims=(6, 5, 4, 3), seed=11, weight_scale=1.5)
    frames = spike_batch(params, n_samples=7, n_steps=5, seed=12).inputs
    frames = frames if batched else frames[2]
    spec = SurrogateSpec(family, 2.5)
    full = forward(params, spec, frames)
    lean = forward(params, spec, frames, keep_states=False)
    assert lean.logits.tobytes() == full.logits.tobytes()
    assert lean.zbar.tobytes() == full.zbar.tobytes()
    assert lean.u == [] and lean.z == []
    assert lean.inputs.shape == full.inputs.shape and lean.spec == spec


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(HARD, 1.0)], ids=["smooth", "hard"])
@pytest.mark.parametrize("layer, step", [(0, 0), (0, 2), (1, 1)])
def test_forward_without_states_names_the_same_layer_and_step(spec, layer, step):
    params = tiny_net(dims=(6, 5, 4), seed=8)
    params.layers[layer].weight[:] = 1e200 if layer == 0 else 1e308  # the drive overflows
    frames = np.full((3, 4, params.dims[0]), 1e-300)
    frames[1, step:] = 1e200 if layer == 0 else 1.0
    messages = []
    for keep_states in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError) as err:
                forward(params, spec, frames, keep_states=keep_states)
        messages.append(str(err.value))
    assert messages == [f"non-finite membrane state at layer {layer + 1}, step {step + 1}"] * 2


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(HARD, 1.0)], ids=["smooth", "hard"])
def test_a_lean_forward_reruns_only_the_failing_layer_to_name_the_step(spec, monkeypatch):
    # Layer 2's drive overflows from step 2; the smooth spec is unbounded, so it
    # fails in the membrane recursion that runs first.
    params = tiny_net(dims=(6, 5, 4, 3), seed=8)
    params.layers[1].weight[:] = 1e308
    frames = np.full((3, 4, params.dims[0]), 1e-300)
    frames[1, 1:] = 1.0
    calls = {"lif_layer": 0, "smooth_layer": 0}

    def counted(name):
        real = getattr(network, name)

        def kernel(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return kernel

    for name in calls:
        monkeypatch.setattr(network, name, counted(name))
    with pytest.raises(InstabilityError, match="^non-finite membrane state at layer 2, step 2$"):
        forward(params, spec, frames, keep_states=False)
    assert calls == {"lif_layer": 3, "smooth_layer": 0}


def three_study_nets() -> list[NetworkParams]:
    """Three packaged 48-16-16-16 nets with distinct weights, biases and thresholds."""
    rng = np.random.default_rng(45)
    nets = [init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=rng) for _ in range(3)]
    for net in nets:
        for layer in net.layers:
            layer.bias += 0.1 * rng.standard_normal(layer.bias.shape)
            layer.threshold *= rng.uniform(0.8, 1.2, layer.threshold.shape)
    return nets


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID, HARD])
@pytest.mark.parametrize("keep_states", [True, False], ids=["states", "lean"])
def test_stacked_forward_equals_lone_forwards_bit_for_bit(family, keep_states):
    nets = three_study_nets()
    frames = spike_batch(nets[0], n_samples=32, n_steps=8, rate=0.4, seed=46).inputs
    spec = SurrogateSpec(family, 0.7)
    stacked = forward(stack(nets), spec, frames, keep_states=keep_states)
    assert stacked.logits.shape == (3, 32, 2) and len(stacked.u) == (3 if keep_states else 0)
    for m, net in enumerate(nets):
        lone = forward(net, spec, frames, keep_states=keep_states)
        assert stacked.logits[m].tobytes() == lone.logits.tobytes()
        assert stacked.zbar[m].tobytes() == lone.zbar.tobytes()
        for got, want in zip(stacked.u + stacked.z, lone.u + lone.z):
            assert got[m].tobytes() == np.ascontiguousarray(want).tobytes()


def reference_lif_layer(layer: LayerParams, alpha: float, spec: SurrogateSpec, drive: np.ndarray):
    """The recursion as first written: ``alpha u + drive - theta z`` from zero
    blocks at every step, the first one too; returns every step's (u, z)."""
    u = z = np.zeros(drive.shape[1:])
    us, zs = [], []
    for t in range(len(drive)):
        u = alpha * u + drive[t] - layer.threshold * z
        a = u - layer.threshold
        z = (u >= layer.threshold).astype(np.float64) if spec.family == HARD else surrogate_value(spec, a)
        us.append(u)
        zs.append(z)
    return np.stack(us), np.stack(zs)


@pytest.mark.parametrize("spec", [SurrogateSpec(ARCTAN, 0.9), SurrogateSpec(HARD, 0.9)], ids=["smooth", "hard"])
@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
@pytest.mark.parametrize("n_steps", [1, 2, 8])
def test_lif_layer_equals_the_zero_state_recursion_bit_for_bit(spec, n_models, n_steps):
    rng = np.random.default_rng(60 + n_steps)
    nets = [tiny_net(dims=(5, 4), n_classes=2, theta=0.3, weight_scale=1.5, seed=61 + m) for m in range(n_models)]
    for net in nets:
        net.layers[0].bias[...] = 0.2 * rng.standard_normal(4)
        net.layers[0].weight[1], net.layers[0].bias[1] = 0.0, -0.0  # a unit whose drive is a signed zero
    layer = stack(nets).layers[0]
    x = (rng.random((n_steps, 6, 5)) < 0.5).astype(np.float64)
    own = layer_drive(layer, x)
    assert not own[..., 1].any()
    # The zero row's product is +0.0 under the BLAS kernels, so a -0.0 drive
    # is also handed in directly, where the first step must turn it into +0.0.
    signed = own.copy()
    signed[..., 1] = -0.0
    for drive, given in ((own, None), (signed, signed)):  # without a drive, the layer computes its own
        want_u, want_z = reference_lif_layer(layer, nets[0].alpha, spec, drive)
        assert not np.signbit(want_u[0][..., 1]).any()
        u, z = lif_layer(layer, nets[0].alpha, spec, x, drive=given)
        assert u.tobytes() == want_u.tobytes() and z.tobytes() == want_z.tobytes()
        last_u, lean_z = lif_layer(layer, nets[0].alpha, spec, x, keep_states=False, drive=given)
        assert last_u.tobytes() == want_u[-1].tobytes() and lean_z.tobytes() == want_z.tobytes()


@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
def test_readout_equals_the_mean_over_time_bit_for_bit(n_models):
    rng = np.random.default_rng(62)
    params = stack([tiny_net(dims=(5, 4), n_classes=3, seed=63 + m) for m in range(n_models)])
    z = rng.random((7, 6, *params.buffer.shape[:-1], 4))  # (T, n, [M,] d)
    zbar, logits = network.readout(params, z)
    want = z.mean(axis=0).swapaxes(0, -2)
    assert zbar.tobytes() == np.ascontiguousarray(want).tobytes()
    assert logits.tobytes() == (np.matmul(want, params.w_out.swapaxes(-1, -2)) + params.b_out[..., None, :]).tobytes()


def test_stacked_forward_raises_for_one_blown_up_model():
    nets = three_study_nets()
    nets[1].layers[0].weight[:] = 1e308  # the drive overflows in the middle model only
    frames = spike_batch(nets[0], n_samples=4, n_steps=3, rate=0.9, seed=47).inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="at layer 1, step 1$"):
            forward(stack(nets), ARCTAN_PI, frames, keep_states=False)
    forward(stack(nets[::2]), ARCTAN_PI, frames)  # the other two run


def test_stack_refuses_networks_of_different_shapes_or_leaks():
    nets = three_study_nets()
    with pytest.raises(ValueError, match="share"):
        stack([nets[0], tiny_net()])
    with pytest.raises(ValueError, match="share"):
        stack([nets[0], init_network((48, 16, 16, 16), 2, alpha=0.5)])
    assert stack(nets).buffer.shape == (3, nets[0].buffer.size)
    assert stack(nets[:1]) is nets[0]


def test_hard_spike_counts_track_drive_over_threshold():
    # With subtraction reset, steady drive above threshold fires every step.
    params = tiny_net(dims=(4, 3), n_classes=2, alpha=0.5, theta=0.5, seed=9)
    layer = params.layers[0]
    layer.weight[:] = 0.0
    layer.bias[:] = 1.2
    trace = forward(params, SurrogateSpec(HARD, 1.0), np.zeros((1, 8, 4)))
    assert trace.z[0].sum(axis=1).min() == 8.0


# ---------------------------------------------------------------------------
# Hard spikes by comparison, and drives shared between thresholds
# ---------------------------------------------------------------------------

HUGE = float(np.finfo(np.float64).max)
TINY = float(np.nextafter(0.0, 1.0))  # the smallest subnormal


def comparison_spikes(states: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The hard layer's first-step spikes when its drive is ``states``: the state is then the drive."""
    d = states.size
    layer = LayerParams(np.zeros((d, 1)), np.zeros(d), thresholds)
    x = np.zeros((1, 1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        _, z = lif_layer(layer, 0.5, SurrogateSpec(HARD, 1.0), x, keep_states=False, drive=states.reshape(1, 1, d))
    return z[0, 0]


def subtracted_spikes(states: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # -HUGE - HUGE overflows to -inf
        return hard_step(states - thresholds)


def adversarial_pairs() -> tuple[np.ndarray, np.ndarray]:
    """Every threshold against every state where ``u >= theta`` and ``u - theta >= 0`` could part.

    Thresholds are positive and finite, as the model admits: subnormal,
    normal and huge.  States are each threshold, its ``nextafter``
    neighbours and nearby scalings, plus +-0, +-inf, NaN and the extremes.
    """
    rng = np.random.default_rng(60)
    thetas = np.concatenate(
        [
            [TINY, 2 * TINY, 3 * TINY, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0, 1e300, HUGE],
            rng.uniform(0.01, 2.0, 40),
            np.exp(rng.uniform(-700.0, 700.0, 40)),
        ]
    )
    with np.errstate(over="ignore"):  # past HUGE lies inf, one more state to try
        near = [thetas, -thetas, 2 * thetas, thetas / 2, thetas * (1 + 1e-16), thetas * (1 - 1e-16)]
        for direction in (np.inf, -np.inf):
            step = thetas
            for _ in range(3):
                step = np.nextafter(step, direction)
                near.append(step)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, TINY, -TINY, HUGE, -HUGE]
    states = np.unique(np.concatenate([*near, specials]))  # NaN kept once
    u, theta = np.meshgrid(states, thetas)
    return u.ravel(), theta.ravel()


def test_comparison_spike_equals_hard_step_of_the_difference_on_adversarial_pairs():
    u, theta = adversarial_pairs()
    assert u.size > 80_000 and np.isnan(u).any() and np.isinf(u).any() and (u == theta).any()
    got = comparison_spikes(u, theta)
    assert got.tobytes() == subtracted_spikes(u, theta).tobytes()
    assert got.dtype == np.float64 and set(np.unique(got)) == {0.0, 1.0}


@pytest.mark.parametrize("n_samples", [32, 1024])
def test_hard_forward_equals_the_naive_unroll_bit_for_bit(n_samples):
    # The packaged 48-16-16-16 net at the study batch and at the benchmark's
    # evaluation batch.  The naive unroll's readout is one product per sample,
    # which may round differently from a batched one, so its time-averaged
    # activity goes through the batched readout.
    params = init_network((48, 16, 16, 16), 10, alpha=0.5, theta=0.5, seed=np.random.default_rng(41))
    frames = spike_batch(params, n_samples=n_samples, n_steps=8, rate=0.3, seed=42).inputs
    spec = SurrogateSpec(HARD, math.pi)
    _, want_activity = naive_forward(params, spec, frames)
    want_logits = want_activity[-1].mean(axis=1) @ params.w_out.T + params.b_out
    for keep_states in (True, False):
        trace = forward(params, spec, frames, keep_states=keep_states)
        assert trace.logits.tobytes() == want_logits.tobytes()
    assert all(np.array_equal(got, want) for got, want in zip(forward(params, spec, frames).z, want_activity))


def study_layer_inputs(layout: str) -> tuple[LayerParams, np.ndarray]:
    """A layer of the packaged net and its time-major inputs in one of the layouts forward passes."""
    nets = three_study_nets()
    frames = spike_batch(nets[0], n_samples=32, n_steps=8, rate=0.4, seed=61).inputs
    if layout == "frames":  # the time-major view of sample-major frames: a strided drive
        return nets[0].layers[0], frames.transpose(1, 0, 2)
    if layout == "time_major":  # a contiguous time-major activity: a contiguous drive
        return nets[0].layers[1], np.ascontiguousarray(frames[:, :, :16].transpose(1, 0, 2))
    return stack(nets).layers[0], frames.transpose(1, 0, 2)  # three stacked models


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID, HARD])
@pytest.mark.parametrize("keep_states", [True, False], ids=["states", "lean"])
@pytest.mark.parametrize("layout", ["frames", "time_major", "stacked"])
def test_a_shared_drive_is_read_and_left_unchanged(family, keep_states, layout):
    layer, x = study_layer_inputs(layout)
    spec = SurrogateSpec(family, 0.7)
    drive = layer_drive(layer, x)
    before = drive.copy()
    shared = [lif_layer(layer, 0.6, spec, x, keep_states=keep_states, drive=drive) for _ in range(2)]
    own = lif_layer(layer, 0.6, spec, x, keep_states=keep_states)
    assert drive.tobytes() == before.tobytes()
    for u, z in shared:
        assert u.tobytes() == own[0].tobytes() and z.tobytes() == own[1].tobytes()
        assert not np.shares_memory(z, drive)


# ---------------------------------------------------------------------------
# The spike-argument recursion of smooth forwards
# ---------------------------------------------------------------------------


def affine(spec: SurrogateSpec) -> tuple[float, float]:
    """``(A, B)`` with ``sigma(x) = A + B g(k x)``."""
    return 0.5, (1.0 / math.pi if spec.family == ARCTAN else 0.5)


def argument_g(spec: SurrogateSpec, s: np.ndarray) -> np.ndarray:
    return np.arctan(s) if spec.family == ARCTAN else s / (np.abs(s) + 1.0)


def reference_fold(layer: LayerParams, alpha: float, spec: SurrogateSpec, first: bool) -> network.Fold:
    """The folded constants written out: ``W' = k B W`` (``k W`` for the input layer),
    ``b' = k b + (A / B) W' 1 - k (1 - alpha + A) theta`` (no ``W' 1`` term for the
    input layer), ``c = k B theta`` and the first step's ``k (A - alpha) theta``."""
    k, (a, b) = spec.slope, affine(spec)
    weight = (k if first else k * b) * layer.weight
    bias = k * layer.bias if first else k * layer.bias + weight.sum(axis=-1) * (a / b)
    bias = bias - (k * (1.0 - alpha + a)) * layer.threshold
    return network.Fold(weight, bias, (k * b) * layer.threshold, (k * (a - alpha)) * layer.threshold)


def reference_smooth_layer(folded: network.Fold, alpha: float, spec: SurrogateSpec, drive: np.ndarray):
    """``s_0 = D_0 + start`` and ``s_t = (D_t - c r_{t-1}) + alpha s_{t-1}``, ``r_t = g(s_t)``,
    step by step; returns every step's (s, r)."""
    ss, rs = [], []
    for t in range(len(drive)):
        s = drive[0] + folded.start if not t else (drive[t] - folded.reset * rs[-1]) + alpha * ss[-1]
        ss.append(s)
        rs.append(argument_g(spec, s))
    return np.stack(ss), np.stack(rs)


def reference_argument_forward(params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray):
    """The smooth forward on the spike argument, layer by layer from the reference
    fold and recursion; the logits and each layer's time-major (s, r)."""
    a, b = affine(spec)
    r, states = frames.transpose(1, 0, 2), []
    for idx, layer in enumerate(params.layers):
        folded = reference_fold(layer, params.alpha, spec, idx == 0)
        s, r = reference_smooth_layer(folded, params.alpha, spec, layer_drive(folded, r))
        states.append((s, r))
    zbar = (r.sum(axis=0) * (b / len(r)) + a).swapaxes(0, -2)
    return np.matmul(zbar, params.w_out.swapaxes(-1, -2)) + params.b_out[..., None, :], states


def smooth_nets(n_models: int) -> NetworkParams:
    nets = three_study_nets()[:n_models]
    return stack(nets)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
@pytest.mark.parametrize("n_steps", [1, 2, 8])
def test_smooth_forward_equals_the_argument_recursion_bit_for_bit(family, n_models, n_steps):
    params = smooth_nets(n_models)
    frames = spike_batch(three_study_nets()[0], n_samples=32, n_steps=n_steps, rate=0.4, seed=64 + n_steps).inputs
    spec = SurrogateSpec(family, 0.7)
    want_logits, want_states = reference_argument_forward(params, spec, frames)
    trace = forward(params, spec, frames)
    assert trace.logits.tobytes() == want_logits.tobytes()
    for s, r, (want_s, want_r) in zip(trace.s, trace.r, want_states):
        assert s.swapaxes(0, -2).tobytes() == want_s.tobytes() and r.swapaxes(0, -2).tobytes() == want_r.tobytes()
    assert forward(params, spec, frames, keep_states=False).logits.tobytes() == want_logits.tobytes()


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
def test_derived_states_and_activity_match_the_membrane_recursion(family, n_models):
    # The membrane recursion as first written, layer by layer over the same drives.
    lone = three_study_nets()[0]
    params = smooth_nets(n_models)
    frames = spike_batch(lone, n_samples=32, n_steps=8, rate=0.4, seed=65).inputs
    spec = SurrogateSpec(family, 0.7)
    trace = forward(params, spec, frames)
    z = frames.transpose(1, 0, 2)
    for idx, layer in enumerate(params.layers):
        want_u, z = reference_lif_layer(layer, params.alpha, spec, layer_drive(layer, z))
        np.testing.assert_allclose(trace.u[idx], want_u.swapaxes(0, -2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.z[idx], z.swapaxes(0, -2), rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.logits.reshape(-1, 32, 2)[0], naive_forward_logits(lone, spec, frames), rtol=0, atol=1e-12)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
@pytest.mark.parametrize("n_steps", [1, 2, 8])
def test_smooth_layer_equals_the_zero_state_argument_recursion_bit_for_bit(family, n_models, n_steps):
    rng = np.random.default_rng(66 + n_steps)
    layer = smooth_nets(n_models).layers[1]
    spec = SurrogateSpec(family, 0.7)
    folded = network.fold(layer, 0.6, spec, first=False)
    x = rng.random((n_steps, 6, 16))
    want_s, want_r = reference_smooth_layer(folded, 0.6, spec, layer_drive(folded, x))
    s, r = network.smooth_layer(folded, 0.6, spec, x)
    assert s.tobytes() == want_s.tobytes() and r.tobytes() == want_r.tobytes()
    last_s, lean_r = network.smooth_layer(folded, 0.6, spec, x, keep_states=False)
    assert last_s.tobytes() == want_s[-1].tobytes() and lean_r.tobytes() == want_r.tobytes()


@pytest.mark.parametrize("keep_states", [True, False], ids=["states", "lean"])
def test_an_argument_that_overflows_before_its_membrane_state_is_named(keep_states):
    # At slope 1e154 a drive of about 1e155 is a finite membrane state, but
    # its spike argument k (u - theta) overflows.
    params = tiny_net(dims=(6, 5, 4), seed=8)
    params.layers[0].weight[:] = 1.0
    frames = np.full((3, 4, params.dims[0]), 1e-300)
    frames[1, 2:] = 1e155
    spec = SurrogateSpec(ARCTAN, 1e154)
    with np.errstate(over="ignore"):  # the membrane recursion's z = sigma(u - theta) overflows k (u - theta) inside
        assert all(np.isfinite(u).all() for u in network.run_layers(params, spec, frames.transpose(1, 0, 2), True, True)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="^non-finite spike argument at layer 1, step 3$"):
            forward(params, spec, frames, keep_states=keep_states)


@pytest.mark.parametrize("family", [ARCTAN, FAST_SIGMOID])
@pytest.mark.parametrize("keep_states", [True, False], ids=["states", "lean"])
@pytest.mark.parametrize("n_models", [1, 3], ids=["lone", "stacked"])
def test_a_membrane_state_that_overflows_before_its_argument_is_named(family, keep_states, n_models):
    # At slope 0.5 the folded weights 0.5e308 keep every spike argument finite
    # (its steady state is about 1.5e308 / 0.9), but the membrane recursion's
    # drive W x = 3e308 overflows at the first step.
    nets = [tiny_net(dims=(3, 4), alpha=0.1, seed=8 + m) for m in range(n_models)]
    nets[-1].layers[0].weight[:] = 1e308
    params = stack(nets)
    frames = np.ones((2, 4, 3))
    spec = SurrogateSpec(family, 0.5)
    folded = network.fold(nets[-1].layers[0], 0.1, spec, first=True)
    with np.errstate(over="ignore"):
        assert np.isfinite(network.smooth_layer(folded, 0.1, spec, frames.transpose(1, 0, 2))[0]).all()
    assert not network._bounded(params, spec, frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="^non-finite membrane state at layer 1, step 1$"):
            forward(params, spec, frames, keep_states=keep_states)


def test_the_bound_admits_the_packaged_study_and_refuses_non_finite_frames():
    params, frames = smooth_nets(3), spike_batch(three_study_nets()[0], n_samples=32, n_steps=8, seed=67).inputs
    assert network._bounded(params, SurrogateSpec(ARCTAN, math.pi), frames)
    for bad in (np.nan, np.inf, 1e160):
        poisoned = frames.copy()
        poisoned[3, 2, 5] = bad
        assert not network._bounded(params, SurrogateSpec(ARCTAN, math.pi), poisoned)


@pytest.mark.parametrize("size", [0, 1, 8192, 8193, 12288, 4 * 8192 + 1, 48 * 8192 + 5])
def test_squared_norms_take_dot_products_short_enough_for_one_thread(monkeypatch, size):
    # OpenBLAS threads a dot product over more than 10000 entries, and its pool
    # then busy-waits: forked training shares that bounded their frames with
    # one such product ran at a third of their speed.
    lengths = []
    real_vdot, real_matmul = np.vdot, np.matmul

    def vdot(a, b):
        lengths.append(a.size)
        return real_vdot(a, b)

    def matmul(a, b):
        lengths.append(a.shape[-1])
        return real_matmul(a, b)

    a = np.random.default_rng(size).standard_normal(size)
    monkeypatch.setattr(np, "vdot", vdot)
    monkeypatch.setattr(np, "matmul", matmul)
    got = network._squared_norm(a)
    monkeypatch.undo()
    np.testing.assert_allclose(got, a @ a, rtol=1e-13)
    assert max(lengths, default=0) <= 10000


def test_drive_products_stay_under_the_blas_threading_threshold(monkeypatch):
    # OpenBLAS threads a product once m*n*k passes 2^18; at B=1024, T=8 the
    # packaged net's layer-1 drive is 8192 x 48 x 16, twelve times that.
    sizes = []
    real = network._gemm

    def recorded(a, b, out):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return real(a, b, out=out)

    monkeypatch.setattr(network, "_gemm", recorded)
    params = init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=np.random.default_rng(71))
    batch = spike_batch(params, n_samples=1024, n_steps=8, rate=0.3, seed=72)
    for spec in (SurrogateSpec(ARCTAN, 0.7), SurrogateSpec(HARD, 0.7)):
        logits = forward(params, spec, batch.inputs, keep_states=False).logits
        np.testing.assert_allclose(logits, naive_forward_logits(params, spec, batch.inputs), rtol=0, atol=1e-12)
    calibrate_thresholds(params, SurrogateSpec(ARCTAN, 0.7), Dataset(batch.inputs, batch.labels, 2), mode="per_layer")
    other = init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=np.random.default_rng(73))
    frames = batch.inputs[:1000]  # a tail of 8000 mod 256 rows joins the last block
    stacked = forward(stack([params, other]), SurrogateSpec(ARCTAN, 0.7), frames, keep_states=False).logits
    for net, logits in zip((params, other), stacked):
        assert logits.tobytes() == forward(net, SurrogateSpec(ARCTAN, 0.7), frames, keep_states=False).logits.tobytes()
    assert len(sizes) > 3 * 2 and max(sizes) <= 2**18


def test_a_layer_too_wide_for_long_row_blocks_issues_one_product(monkeypatch):
    # At 48->256 a block under 2^18 would hold 21 rows, far below 256.
    assert network._row_blocks(8 * 1024, 48 * 256) == (8 * 1024, 0)
    assert not network.drives_stay_serial((48, 256)) and network.drives_stay_serial((48, 16, 16, 16))
    assert network._row_blocks(8 * 1024, 48 * 16) == (256, 31)  # and a last block of 256
    calls = []
    real = network._gemm
    monkeypatch.setattr(network, "_gemm", lambda a, b, out: calls.append(a.shape) or real(a, b, out=out))
    params = init_network((48, 256), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=np.random.default_rng(74))
    batch = spike_batch(params, n_samples=128, n_steps=8, rate=0.3, seed=75)
    logits = forward(params, SurrogateSpec(ARCTAN, 0.7), batch.inputs, keep_states=False).logits
    assert calls == [(8 * 128, 48)]
    np.testing.assert_allclose(logits, naive_forward_logits(params, SurrogateSpec(ARCTAN, 0.7), batch.inputs), rtol=0, atol=1e-12)


def test_pickled_params_keep_their_views_over_one_buffer():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=20)
    loaded = pickle.loads(pickle.dumps(params))
    assert loaded.buffer.tobytes() == params.buffer.tobytes() and loaded.dims == params.dims
    for view in (loaded.layers[0].weight, loaded.layers[1].threshold, loaded.w_out, loaded.b_out):
        assert np.shares_memory(view, loaded.buffer)


# ---------------------------------------------------------------------------
# Parameter containers and canonical vector
# ---------------------------------------------------------------------------


def test_validation_rules():
    params = tiny_net(seed=10)
    layer = params.layers[0]
    threshold = layer.threshold.copy()
    threshold[0] = 0.0
    with pytest.raises(ValueError):
        LayerParams(layer.weight, layer.bias, threshold)
    with pytest.raises(ValueError):
        NetworkParams(params.layers, 1.0, params.w_out, params.b_out)
    with pytest.raises(ValueError):
        NetworkParams(params.layers, 0.0, params.w_out, params.b_out)
    with pytest.raises(ValueError):
        NetworkParams(
            params.layers, params.alpha, np.zeros((params.n_classes, params.dims[-1] + 1)),
            params.b_out,
        )
    with pytest.raises(ValueError):
        LayerParams(np.zeros((3, 2)), np.zeros(2), np.full(3, 0.5))  # bias width mismatch


def test_init_network_is_seed_deterministic():
    a = tiny_net(seed=42)
    b = tiny_net(seed=42)
    assert parameter_vector(a).tolist() == parameter_vector(b).tolist() and a.alpha == b.alpha
    c = tiny_net(seed=43)
    assert not np.array_equal(parameter_vector(a), parameter_vector(c))
    assert np.all(a.b_out == 0.0)
    assert np.all(a.layers[0].threshold == 0.4)


@pytest.mark.parametrize("dims", [(4, 0), (4, 3, -3), (0, 3)])
def test_init_network_refuses_a_width_below_one_by_value(dims):
    with pytest.raises(ValueError, match=re.escape(f"widths must be at least 1, got {list(dims)}")):
        init_network(dims, 2)


def test_parameter_vector_roundtrip():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=13)
    vec = parameter_vector(params)
    assert vec.size == params.buffer.size
    rebuilt = replace_parameters(params, vec)
    np.testing.assert_array_equal(parameter_vector(rebuilt), vec)
    assert rebuilt.alpha == params.alpha
    for la, lb in zip(params.layers, rebuilt.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.threshold, lb.threshold)


def test_parameter_vector_layout():
    params = tiny_net(dims=(3, 2), n_classes=2, seed=14)
    vec = parameter_vector(params)
    l0 = params.layers[0]
    want = np.concatenate([l0.weight.ravel(), l0.bias, l0.threshold, params.w_out.ravel(), params.b_out])
    np.testing.assert_array_equal(vec, want)


def test_threshold_slices_cover_exactly_thresholds():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=15)
    vec = parameter_vector(params)
    marker = vec.copy()
    for sl in threshold_slices(params):
        marker[sl] = np.nan
    n_thresh = sum(l.threshold.size for l in params.layers)
    assert int(np.isnan(marker).sum()) == n_thresh
    rebuilt_ok = replace_parameters(params, vec)
    for layer, sl in zip(rebuilt_ok.layers, threshold_slices(params)):
        np.testing.assert_array_equal(layer.threshold, vec[sl])


def test_replace_parameters_rejects_wrong_length():
    params = tiny_net(seed=16)
    with pytest.raises(ValueError):
        replace_parameters(params, np.zeros(params.buffer.size + 1))


def test_replace_parameters_rejects_non_finite_and_non_positive_thresholds():
    params = tiny_net(seed=16)
    for bad_value in (np.nan, np.inf):
        vec = parameter_vector(params)
        vec[0] = bad_value  # an update that diverged
        with pytest.raises(InstabilityError):
            replace_parameters(params, vec)
    vec = parameter_vector(params)
    vec[threshold_slices(params)[-1].start] = 0.0
    with pytest.raises(ValueError, match="thresholds"):
        replace_parameters(params, vec)


# ---------------------------------------------------------------------------
# The canonical vector is the storage
# ---------------------------------------------------------------------------


def test_in_place_edits_of_layer_arrays_show_in_the_vector():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=18)
    params.layers[1].threshold[2] = 0.75
    params.layers[0].weight[1, 3] = -2.5
    params.b_out[...] = 0.125
    vec = parameter_vector(params)
    assert vec[threshold_slices(params)[1]][2] == 0.75
    assert vec[1 * 6 + 3] == -2.5
    np.testing.assert_array_equal(vec[-params.n_classes :], 0.125)
    vec[threshold_slices(params)[0]] = 9.0  # the returned vector is a copy
    assert np.all(params.layers[0].threshold == 0.4)


def test_copies_share_no_memory_with_their_source():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=19)
    vec = parameter_vector(params)
    for other in (params.copy(), replace_parameters(params, vec)):
        mine = [params.buffer, params.w_out, params.b_out]
        mine += [a for l in params.layers for a in (l.weight, l.bias, l.threshold)]
        theirs = [other.buffer, other.w_out, other.b_out]
        theirs += [a for l in other.layers for a in (l.weight, l.bias, l.threshold)]
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        assert not any(np.shares_memory(vec, b) for b in theirs)
        np.testing.assert_array_equal(parameter_vector(other), vec)
        assert other.alpha == params.alpha


def test_constructor_copies_and_leaves_its_inputs_alone():
    src = tiny_net(dims=(6, 5, 4), n_classes=3, seed=20)
    before, alpha = parameter_vector(src), src.alpha
    layer = src.layers[0]
    sub = NetworkParams([layer], src.alpha, np.zeros((src.n_classes, layer.d_out)), src.b_out)
    assert src.layers[0] is layer
    sub.layers[0].threshold[...] = 3.0
    sub.b_out[...] = 7.0
    np.testing.assert_array_equal(parameter_vector(src), before)
    assert src.alpha == alpha
    assert np.shares_memory(src.layers[0].threshold, src.buffer)
    assert not np.shares_memory(sub.buffer, src.buffer)


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=17)
    spec = SurrogateSpec(FAST_SIGMOID, 1.7)
    path = str(tmp_path / "net.bin")
    save_checkpoint(path, params, spec)
    loaded, loaded_spec = load_checkpoint(path)
    assert loaded_spec == spec
    assert loaded.alpha == params.alpha
    np.testing.assert_array_equal(parameter_vector(loaded), parameter_vector(params))
    # Same content twice -> byte-identical files (no timestamps in the format).
    path2 = str(tmp_path / "net2.bin")
    save_checkpoint(path2, params, spec)
    assert (tmp_path / "net.bin").read_bytes() == (tmp_path / "net2.bin").read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_payload_is_the_canonical_vector(tmp_path):
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=21)
    path = tmp_path / "net.bin"
    save_checkpoint(str(path), params, ARCTAN_PI)
    payload = path.read_bytes()[-8 * params.buffer.size :]
    assert payload == parameter_vector(params).astype("<f8").tobytes()


@settings(max_examples=10, deadline=None)
@given(dims=st.lists(st.integers(1, 4), min_size=2, max_size=4), n_classes=st.integers(2, 3))
def test_property_every_proper_prefix_of_a_checkpoint_is_refused(tmp_path_factory, dims, n_classes):
    path = tmp_path_factory.mktemp("prefix") / "net.bin"
    save_checkpoint(str(path), tiny_net(dims=tuple(dims), n_classes=n_classes), ARCTAN_PI)
    data = path.read_bytes()
    for cut in range(len(data)):  # each cut a new file: overwriting one is far slower on some file systems
        cut_path = path.with_name(f"cut{cut}.bin")
        cut_path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="magic|truncated"):
            load_checkpoint(str(cut_path))
    long_path = path.with_name("long.bin")
    long_path.write_bytes(data + bytes(1))
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(str(long_path))


def test_checkpoint_load_reads_the_payload_straight_into_the_buffer(tmp_path):
    params = tiny_net(dims=(256, 256, 256), n_classes=10, seed=22)
    path = str(tmp_path / "big.bin")
    save_checkpoint(path, params, ARCTAN_PI)
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.buffer, params.buffer)
    assert loaded.buffer.dtype == np.float64
    assert peak < 1.25 * params.buffer.nbytes


def _checkpoint_header(n_layers: int, n_classes: int, dims: tuple[int, ...]) -> bytes:
    head = b"SNNW" + struct.pack("<IIddII", 1, 1, math.pi, 0.5, n_layers, n_classes)
    return head + struct.pack(f"<{len(dims)}I", *dims)


@pytest.mark.parametrize(
    "n_layers, n_classes, dims, field",
    [
        (1, 2, (2**32 - 1, 2**32 - 1), "dims/C declares"),  # int64 overflow in a numpy product
        (2, 2**32 - 1, (2**31, 2**31, 2**31), "dims/C declares"),
        (2**32 - 1, 2, (3, 2), "L declares"),
        (0, 2, (3,), "'L' must"),
        (1, 0, (3, 2), "'C' must"),  # no classes: evaluation takes argmax of an empty row
        (1, 2, (4, 0), "'dims' must"),  # a zero-width layer: predictions from b_out alone
        (2, 2, (0, 3, 2), "'dims' must"),
    ],
)
def test_checkpoint_with_huge_declared_sizes_is_refused_before_reading(tmp_path, n_layers, n_classes, dims, field):
    path = tmp_path / "huge.bin"
    path.write_bytes(_checkpoint_header(n_layers, n_classes, dims))
    with pytest.raises(ValueError, match=field):
        load_checkpoint(str(path))


@settings(max_examples=20, deadline=None)
@given(
    d0=st.integers(1, 5),
    d1=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    seed=st.integers(0, 10_000),
)
def test_property_roundtrip_random_shapes(tmp_path_factory, d0, d1, n_classes, seed):
    params = tiny_net(dims=(d0, d1), n_classes=n_classes, seed=seed)
    vec = parameter_vector(params)
    rebuilt = replace_parameters(params, vec)
    np.testing.assert_array_equal(parameter_vector(rebuilt), vec)
    assert rebuilt.alpha == params.alpha
