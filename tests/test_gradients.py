"""Hand-written reverse-mode gradients against finite differences.

The finite-difference oracle is the ground truth here; the loss caps are
checked against the classical closed forms for softmax cross entropy.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARCTAN_PI, dense_batch, spike_batch, tiny_net
from spikesam.gradients import (
    Batch,
    _reverse_sweep,
    _softmax_loss,
    backward,
    batch_loss,
    central_difference,
    cross_entropy,
    gradcheck,
    logit_jacobians,
    per_sample_gradients,
)
from spikesam import gradients
from spikesam.network import (
    FAST_SIGMOID,
    HARD,
    InstabilityError,
    NetworkParams,
    StateTrace,
    SurrogateSpec,
    forward,
    init_network,
    parameter_vector,
    replace_parameters,
    stack,
    surrogate_derivative,
)

# ---------------------------------------------------------------------------
# Cross entropy
# ---------------------------------------------------------------------------


def test_cross_entropy_frozen_values():
    loss, grad, hess = cross_entropy(np.array([10.0, 0.0, 0.0]), 0)
    assert loss == pytest.approx(9.0795737467244446e-05, rel=1e-13)
    assert grad[0] == pytest.approx(0.99990920838434097818 - 1.0, rel=1e-12)
    loss2, grad2, _ = cross_entropy(np.array([0.0, 0.0]), 0)
    assert loss2 == pytest.approx(math.log(2.0), rel=1e-15)
    np.testing.assert_allclose(grad2, [-0.5, 0.5], atol=1e-15)
    assert 0.0 <= hess <= 0.5 + 1e-12


def test_cross_entropy_shift_invariance_and_overflow():
    o = np.array([1.0, -2.0, 0.5])
    base, g, _ = cross_entropy(o, 1)
    shifted, gs, _ = cross_entropy(o + 1000.0, 1)
    assert shifted == pytest.approx(base, rel=1e-12)
    np.testing.assert_allclose(gs, g, atol=1e-12)
    huge, _, _ = cross_entropy(np.array([1e308, 0.0]), 1)
    assert np.isfinite(huge)


def test_cross_entropy_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), 3)
    with pytest.raises(ValueError):
        cross_entropy(np.zeros(3), -1)


@settings(max_examples=80, deadline=None)
@given(
    logits=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    label_pick=st.integers(0, 5),
)
def test_cross_entropy_caps_property(logits, label_pick):
    o = np.asarray(logits)
    label = label_pick % o.size
    loss, grad, hess = cross_entropy(o, label)
    assert loss >= 0.0
    assert np.linalg.norm(grad) <= math.sqrt(2.0) + 1e-12
    assert np.abs(grad).sum() <= 2.0 + 1e-12
    assert hess <= 0.5 + 1e-12
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Reverse sweep vs. finite differences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dims,n_classes,family,k",
    [
        ((6, 5, 4), 3, "arctan", math.pi),
        ((5, 4), 2, "arctan", 0.7),
        ((4, 6, 3), 2, FAST_SIGMOID, 2.0),
    ],
)
def test_gradcheck_small_nets(dims, n_classes, family, k):
    params = tiny_net(dims=dims, n_classes=n_classes, seed=hash((dims, k)) % 2**31)
    spec = SurrogateSpec(family, k)
    batch = spike_batch(params, n_samples=3, n_steps=5, seed=21)
    res = gradcheck(params, spec, batch)
    assert res.passed, f"max rel err {res.max_rel_err:.3e}"
    assert res.n_params == params.buffer.size + 1  # the canonical vector and the leak
    assert res.max_rel_err <= 1e-5


def test_gradcheck_dense_inputs():
    params = tiny_net(dims=(5, 4), n_classes=3, alpha=0.7, theta=0.3, seed=22)
    batch = dense_batch(params, n_samples=4, n_steps=6, seed=23)
    res = gradcheck(params, ARCTAN_PI, batch)
    assert res.passed


def test_gradcheck_catches_a_leak_gradient_off_by_1e_3(monkeypatch):
    params = tiny_net(dims=(5, 4), n_classes=3, alpha=0.7, theta=0.3, seed=22)
    batch = dense_batch(params, n_samples=4, n_steps=6, seed=23)
    real = gradients.per_sample_gradients

    def leak_off(*args):
        bundle = real(*args)
        bundle.grads.alpha += 1e-3
        return bundle

    assert gradcheck(params, ARCTAN_PI, batch).passed
    monkeypatch.setattr(gradients, "per_sample_gradients", leak_off)
    res = gradcheck(params, ARCTAN_PI, batch)
    assert not res.passed and res.max_rel_err > 5e-4


def test_batch_gradient_vector_is_a_copy_without_the_leak():
    params = tiny_net(seed=24)
    bundle = backward(params, ARCTAN_PI, spike_batch(params, seed=25))
    assert bundle.grads.alpha is None and bundle.input_grads is None
    vec = bundle.grads.vector()
    assert vec.shape == params.buffer.shape
    np.testing.assert_array_equal(vec, bundle.grads.buffer)
    assert not np.shares_memory(vec, bundle.grads.buffer)


def test_backward_loss_matches_batch_loss():
    params = tiny_net(seed=24)
    batch = spike_batch(params, seed=25)
    bundle = backward(params, ARCTAN_PI, batch)
    assert bundle.loss == pytest.approx(batch_loss(params, ARCTAN_PI, batch), rel=1e-14)


def test_input_gradients_match_finite_difference():
    params = tiny_net(dims=(4, 3), n_classes=2, seed=26)
    batch = dense_batch(params, n_samples=2, n_steps=3, seed=27)
    bundle = per_sample_gradients(params, ARCTAN_PI, batch)

    def fn(flat: np.ndarray) -> float:
        return batch_loss(params, ARCTAN_PI, Batch(flat.reshape(batch.inputs.shape), batch.labels))

    want = central_difference(fn, batch.inputs.ravel()).reshape(batch.inputs.shape)
    # per-sample rows are each sample's own loss gradient; the batch loss is their mean
    np.testing.assert_allclose(bundle.input_grads / batch.n_samples, want, rtol=1e-5, atol=1e-8)


def test_per_sample_gradients_average_to_batch_gradient():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=28)
    batch = spike_batch(params, n_samples=5, n_steps=4, seed=29)
    whole = backward(params, ARCTAN_PI, batch).grads.vector()
    per = per_sample_gradients(params, ARCTAN_PI, batch)
    single_batches = [Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1]) for i in range(batch.n_samples)]
    singles = np.stack([backward(params, ARCTAN_PI, b).grads.vector() for b in single_batches])
    np.testing.assert_allclose(singles.mean(axis=0), whole, rtol=1e-12, atol=1e-14)
    single_leaks = [per_sample_gradients(params, ARCTAN_PI, b).grads.alpha for b in single_batches]
    np.testing.assert_allclose(np.mean(single_leaks), per.grads.alpha, rtol=1e-12, atol=1e-14)
    # Rows consistent with the single-sample sweeps (alpha excluded there).
    np.testing.assert_allclose(per.per_sample_grad_vectors, singles, rtol=1e-10, atol=1e-14)


def test_per_sample_mean_gradient_is_the_sum_of_the_rows_over_n():
    params = tiny_net(dims=(6, 5, 4), n_classes=3, seed=32)
    batch = dense_batch(params, n_samples=5, n_steps=4, seed=33)
    per = per_sample_gradients(params, ARCTAN_PI, batch)
    assert per.per_sample_grad_vectors.shape == (batch.n_samples, params.buffer.size)
    want = per.per_sample_grad_vectors.sum(axis=0) / batch.n_samples
    assert np.array_equal(per.grads.vector(), want)
    assert per.grads.vector().shape == params.buffer.shape and np.isfinite(per.grads.alpha)


def einsum_reverse_sweep(
    params: NetworkParams, trace: StateTrace, v: np.ndarray, per_sample: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference reverse sweep: per-step loops, zero-padded shifts and einsum products.

    Returns the parameter gradient with the leak gradient appended ((P + 1,),
    or (n, P + 1) per sample) and the input gradients.
    """
    spec = trace.spec
    n, n_steps, _ = trace.inputs.shape
    lead = "n" if per_sample else ""
    axes = 1 if per_sample else (0, 1)
    pieces = []
    gzbar = v @ params.w_out
    gu_above = None
    d_alpha = np.zeros(n if per_sample else ())
    for idx in range(params.n_layers - 1, -1, -1):
        layer = params.layers[idx]
        u, z = trace.u[idx], trace.z[idx]
        sp = surrogate_derivative(spec, u - layer.threshold)
        gu, gz = np.zeros_like(u), np.zeros_like(u)
        gu_next = np.zeros((n, layer.d_out))
        for t in range(n_steps - 1, -1, -1):
            if idx == params.n_layers - 1:
                cross = gzbar / n_steps
            else:
                cross = np.einsum("ne,ed->nd", gu_above[:, t, :], params.layers[idx + 1].weight)
            gz[:, t] = cross - layer.threshold * gu_next
            gu[:, t] = sp[:, t] * gz[:, t] + params.alpha * gu_next
            gu_next = gu[:, t]
        z_prev = trace.z[idx - 1] if idx > 0 else trace.inputs
        z_shift, u_shift = np.zeros_like(z), np.zeros_like(u)
        z_shift[:, 1:], u_shift[:, 1:] = z[:, :-1], u[:, :-1]
        weight = np.einsum(f"ntd,ntj->{lead}dj", gu, z_prev)
        threshold = -((sp * gz).sum(axis=axes) + (z_shift * gu).sum(axis=axes))
        pieces[:0] = [weight, gu.sum(axis=axes), threshold]
        d_alpha = d_alpha + (u_shift * gu).sum(axis=(1, 2) if per_sample else None)
        gu_above = gu
    input_grads = np.einsum("ntd,dj->ntj", gu_above, params.layers[0].weight)
    pieces += [np.einsum(f"nc,nd->{lead}cd", v, trace.zbar), np.einsum(f"nc->{lead}c", v), d_alpha]
    width = (n, -1) if per_sample else (-1,)
    return np.concatenate([p.reshape(width) for p in pieces], axis=-1), input_grads


def study_net_and_batch() -> tuple[NetworkParams, Batch]:
    """The packaged 48-16-16-16 net, ten classes, B=32 and T=8."""
    params = init_network((48, 16, 16, 16), 10, alpha=0.5, theta=0.5, seed=np.random.default_rng(43))
    return params, spike_batch(params, n_samples=32, n_steps=8, rate=0.3, seed=44)


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(FAST_SIGMOID, 2.0)], ids=["arctan", "fast_sigmoid"])
def test_backward_matches_einsum_reference_at_the_study_shape(spec):
    params, batch = study_net_and_batch()
    bundle = backward(params, spec, batch)
    trace = forward(params, spec, batch.inputs)
    v = _softmax_loss(trace.logits, batch.labels, grad=True)[1] / batch.n_samples
    want = einsum_reverse_sweep(params, trace, v, per_sample=False)[0]
    # atol only covers entries that cancel to ~1e-19 against O(0.1) gradients; the
    # per-sample test below pins the leak and input gradients
    np.testing.assert_allclose(bundle.grads.buffer, want[:-1], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(FAST_SIGMOID, 2.0)], ids=["arctan", "fast_sigmoid"])
def test_per_sample_gradients_match_einsum_reference_at_the_study_shape(spec):
    params, batch = study_net_and_batch()
    bundle = per_sample_gradients(params, spec, batch)
    trace = forward(params, spec, batch.inputs)
    want, want_inputs = einsum_reverse_sweep(params, trace, _softmax_loss(trace.logits, batch.labels, grad=True)[1], True)
    np.testing.assert_allclose(bundle.per_sample_grad_vectors, want[:, :-1], rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(bundle.grads.alpha, want[:, -1].sum() / batch.n_samples, rtol=1e-12)
    np.testing.assert_allclose(bundle.input_grads, want_inputs, rtol=1e-12, atol=1e-15)


def test_reverse_sweep_names_the_layer_and_step_of_a_non_finite_gradient():
    params, batch = study_net_and_batch()
    trace = forward(params, ARCTAN_PI, batch.inputs)
    trace.s[0][0, 2, 0] = np.nan  # a poisoned spike argument: steps 3, 2 and 1 of layer 1 on the way back
    v = _softmax_loss(trace.logits, batch.labels, grad=True)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstabilityError, match="at layer 1, step 3$"):
            _reverse_sweep(params, trace, v)


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(FAST_SIGMOID, 2.0)], ids=["arctan", "fast_sigmoid"])
def test_stacked_reverse_sweep_equals_lone_sweeps_bit_for_bit(spec):
    rng = np.random.default_rng(48)
    nets = [init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=rng) for _ in range(3)]
    for net in nets:
        for layer in net.layers:
            layer.bias += 0.1 * rng.standard_normal(layer.bias.shape)
            layer.threshold *= rng.uniform(0.8, 1.2, layer.threshold.shape)
    batch = spike_batch(nets[0], n_samples=32, n_steps=8, rate=0.4, seed=49)
    trace = forward(stack(nets), spec, batch.inputs)
    v = _softmax_loss(trace.logits, batch.labels, grad=True)[1]
    grads, d_alpha, input_grads = _reverse_sweep(stack(nets), trace, v)
    assert grads.shape == (3, nets[0].buffer.size) and d_alpha is None and input_grads is None
    assert trace.s == [None] * 3 and trace.r == [None] * 3  # the sweep read the trace last
    stacked = backward(stack(nets), spec, batch)
    assert stacked.loss.shape == (3,) and stacked.grads.buffer.shape == grads.shape
    for m, net in enumerate(nets):
        lone = forward(net, spec, batch.inputs)
        assert grads[m].tobytes() == _reverse_sweep(net, lone, _softmax_loss(lone.logits, batch.labels, grad=True)[1])[0].tobytes()
        bundle = backward(net, spec, batch)  # a lone network, unstacked
        assert stacked.loss[m] == bundle.loss and stacked.grads.buffer[m].tobytes() == bundle.grads.buffer.tobytes()


def reference_reverse_steps(gz, sp, theta, alpha, gu) -> None:
    """The time loop as first written: every step from ``gu = 0``, the last
    one too, with five ufuncs (``gz - theta gu``, times sigma', ``+ alpha gu``)."""
    tmp = np.empty(theta.shape)
    gu_t = np.zeros(theta.shape)
    for t in range(len(gz) - 1, -1, -1):
        gz_t = np.subtract(gz[t], np.multiply(theta, gu_t, out=tmp), out=gz[t])
        gz_t *= sp[t]
        gu_t = np.add(gz_t, np.multiply(alpha, gu_t, out=tmp), out=gu[t])


def test_reverse_steps_equal_the_zero_state_loop_on_signed_zeros():
    rng = np.random.default_rng(70)
    for n_steps in (1, 2, 5):
        gz = rng.standard_normal((n_steps, 3, 4))
        gz[-1, 0] = -0.0  # the last step must turn these into +0.0
        gz[-1, 1, :2] = 0.0
        sp, theta = rng.random(gz.shape), np.full((3, 4), 0.3)
        sp[-1, 2] = 0.0  # and a positive zero times sigma'
        got, want = np.empty_like(gz), np.empty_like(gz)
        gz_got, gz_want = gz.copy(), gz.copy()
        gradients._reverse_steps(gz_got, sp, theta, np.array(0.6), got)
        reference_reverse_steps(gz_want, sp, theta, np.array(0.6), want)
        assert got.tobytes() == want.tobytes() and gz_got.tobytes() == gz_want.tobytes()
        assert not np.signbit(got[-1, 0]).any()


@pytest.mark.parametrize("sweep", ["batch", "stacked", "per_sample"])
@pytest.mark.parametrize("n_steps", [1, 2, 8])
def test_reverse_sweep_equals_the_zero_state_sweep_bit_for_bit(monkeypatch, sweep, n_steps):
    rng = np.random.default_rng(71)
    nets = [tiny_net(dims=(6, 5, 4), n_classes=3, weight_scale=1.5, seed=72 + m) for m in range(3)]
    for net in nets:
        for layer in net.layers:
            layer.bias += 0.2 * rng.standard_normal(layer.bias.shape)
    params = stack(nets) if sweep == "stacked" else nets[0]
    batch = dense_batch(nets[0], n_samples=5, n_steps=n_steps, seed=75)

    def sweep_once():
        trace = forward(params, ARCTAN_PI, batch.inputs)
        v = _softmax_loss(trace.logits, batch.labels, grad=True)[1]
        return _reverse_sweep(params, trace, v, per_sample=sweep == "per_sample")

    got = sweep_once()
    monkeypatch.setattr(gradients, "_reverse_steps", reference_reverse_steps)
    want = sweep_once()
    for g, w in zip(got, want):
        assert (g is None and w is None) or np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("spec", [ARCTAN_PI, SurrogateSpec(FAST_SIGMOID, 2.0)], ids=["arctan", "fast_sigmoid"])
@pytest.mark.parametrize("n_steps", [1, 2, 8])
def test_sums_over_time_and_samples_keep_stacked_sweeps_equal_to_lone_ones(spec, n_steps):
    # The bias, threshold and reset sums are products with a ones vector:
    # each stacked model's is one strided matrix, as in the drive products.
    rng = np.random.default_rng(77)
    nets = [init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5, seed=rng) for _ in range(3)]
    for net in nets:
        for layer in net.layers:
            layer.bias += 0.1 * rng.standard_normal(layer.bias.shape)
            layer.threshold *= rng.uniform(0.8, 1.2, layer.threshold.shape)
    batch = spike_batch(nets[0], n_samples=32, n_steps=n_steps, rate=0.4, seed=78)
    stacked = backward(stack(nets), spec, batch)
    for m, net in enumerate(nets):
        lone = backward(net, spec, batch)
        assert stacked.loss[m] == lone.loss and stacked.grads.buffer[m].tobytes() == lone.grads.buffer.tobytes()


def reference_softmax_loss_and_grad(logits: np.ndarray, labels: np.ndarray):
    """The loss as first written, through NumPy's ``max``, ``sum`` and ``mean`` wrappers."""
    m = logits.max(axis=-1, keepdims=True)
    rows = np.arange(logits.shape[-2])
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    losses = lse[..., 0] - logits[..., rows, labels]
    v = np.exp(logits - lse)
    loss = losses.mean(axis=-1)
    v[..., rows, labels] -= 1.0
    return (float(loss) if logits.ndim == 2 else loss), v


@pytest.mark.parametrize("scale", [1.0, 1e300, -1e300])
@pytest.mark.parametrize("n_models", [0, 3], ids=["lone", "stacked"])
def test_softmax_loss_equals_the_wrapped_reductions_bit_for_bit(scale, n_models):
    rng = np.random.default_rng(76)
    logits = scale * rng.standard_normal((n_models, 6, 4) if n_models else (6, 4))
    labels = rng.integers(0, 4, size=6)
    loss, v = _softmax_loss(logits, labels, grad=True)
    want_loss, want_v = reference_softmax_loss_and_grad(logits, labels)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes() and v.tobytes() == want_v.tobytes()
    loss_only, no_grad = _softmax_loss(logits, labels)  # batch_loss's and evaluate's call
    assert np.asarray(loss_only).tobytes() == np.asarray(want_loss).tobytes() and no_grad is None


def test_stacked_reverse_sweep_gives_batch_parameter_gradients_only():
    nets = [tiny_net(seed=50), tiny_net(seed=51)]
    batch = spike_batch(nets[0], seed=52)
    trace = forward(stack(nets), ARCTAN_PI, batch.inputs)
    v = _softmax_loss(trace.logits, batch.labels, grad=True)[1]
    with pytest.raises(ValueError, match="batch parameter gradients only"):
        _reverse_sweep(stack(nets), trace, v, per_sample=True)


def test_logit_jacobians_against_finite_difference():
    params = tiny_net(dims=(4, 3), n_classes=3, seed=30)
    frames = dense_batch(params, n_samples=1, n_steps=3, seed=31).inputs[0]
    j_w, j_x, _ = logit_jacobians(params, ARCTAN_PI, frames)
    w0 = parameter_vector(params)
    assert j_w.shape == (3, w0.size)
    assert j_x.shape == (3, frames.size)

    for c in range(3):
        def logit_c_of_w(vec: np.ndarray, c=c) -> float:
            p = replace_parameters(params, vec)
            return float(forward(p, ARCTAN_PI, frames).logits[0, c])

        def logit_c_of_x(flat: np.ndarray, c=c) -> float:
            return float(forward(params, ARCTAN_PI, flat.reshape(frames.shape)).logits[0, c])

        np.testing.assert_allclose(j_w[c], central_difference(logit_c_of_w, w0), rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(
            j_x[c], central_difference(logit_c_of_x, frames.ravel()), rtol=1e-4, atol=1e-7
        )


def test_logit_jacobians_compose_to_loss_gradient():
    params = tiny_net(dims=(5, 4), n_classes=3, seed=32)
    frames = dense_batch(params, n_samples=1, n_steps=4, seed=33).inputs[0]
    label = 1
    j_w, j_x, logits = logit_jacobians(params, ARCTAN_PI, frames)
    trace = forward(params, ARCTAN_PI, frames)
    np.testing.assert_allclose(logits, trace.logits[0], rtol=1e-15, atol=1e-15)  # the tiled forward's
    _, v, _ = cross_entropy(trace.logits[0], label)
    bundle = per_sample_gradients(params, ARCTAN_PI, Batch(frames[None], np.array([label])))
    np.testing.assert_allclose(j_w.T @ v, bundle.grads.vector(), rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(j_x.T @ v, bundle.input_grads[0].ravel(), rtol=1e-11, atol=1e-13)


def test_gradient_rejects_hard_spec():
    params = tiny_net(seed=34)
    batch = spike_batch(params, seed=35)
    hard = SurrogateSpec(HARD, 1.0)
    with pytest.raises(ValueError):
        backward(params, hard, batch)
    with pytest.raises(ValueError):
        gradcheck(params, hard, batch)
    with pytest.raises(ValueError):
        logit_jacobians(params, hard, batch.inputs[0])


def test_central_difference_on_polynomial():
    got = central_difference(lambda v: float(v[0] ** 2), np.array([3.0]))
    assert got[0] == pytest.approx(6.0, rel=1e-8)


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 3, 4)), np.zeros(3, dtype=np.int64))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.floats(0.1, 0.9), theta=st.floats(0.2, 1.0))
def test_property_gradcheck_random_tiny_nets(seed, alpha, theta):
    params = tiny_net(dims=(4, 3), n_classes=2, alpha=alpha, theta=theta, seed=seed)
    batch = spike_batch(params, n_samples=2, n_steps=3, seed=seed + 1)
    assert gradcheck(params, ARCTAN_PI, batch).passed
