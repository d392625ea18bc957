"""Exact reverse-mode gradients for the unrolled spiking dynamics.

The reverse sweep mirrors the forward recursion by hand.  Writing with
``gz[l, t] = dLoss/dz[l, t]`` and ``gu[l, t] = dLoss/du[l, t]``:

    gz[l, t] = (top layer:  gzbar / T
                otherwise:  gu[l+1, t] @ W[l+1])  -  theta[l] * gu[l, t+1]
    gu[l, t] = sigma'(u[l, t] - theta[l]) * gz[l, t] + alpha * gu[l, t+1]

with ``gu[l, T+1] = 0``.  Layers are processed top-down (the cross-layer
term needs the full time course of ``gu[l+1]``), time backwards within each
layer.  Thresholds receive two contributions: through the spike argument
``u - theta`` and through the reset term ``-theta * z[l, t-1]``.

Working set beyond the forward trace and the gradient buffer ((P,), or
(n, P) per sample): three (T, n, d) arrays of the layer being swept
(``sigma'``, ``gz`` and ``gu``) plus the ``gu`` of the layer above, held
while this layer is swept; for the bottom layer also a time-major copy of
the input frames (batch) or the (n, T, d0) input gradients (per sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .network import (
    HARD,
    InstabilityError,
    NetworkParams,
    StateTrace,
    SurrogateSpec,
    _layout,
    forward,
    parameter_vector,
    replace_parameters,
    surrogate_derivative,
)

_CE_GRAD_L2_CAP = math.sqrt(2.0)
_CE_GRAD_L1_CAP = 2.0
_CE_HESS_CAP = 0.5
_BOUND_SLACK = 1e-12


@dataclass
class Batch:
    """A batch of frame sequences with integer class labels."""

    inputs: np.ndarray  # (n, T, d0)
    labels: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 3:
            raise ValueError(f"inputs must be (n, T, d0), got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels must be one integer per sequence")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs have non-finite entries")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative class indices")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ParamGrads:
    """Gradients in canonical-vector order, one float64 ``buffer`` of P entries.

    ``alpha`` is the leak gradient, which only the per-sample sweep computes
    (``None`` after a batch pass); whether it enters the canonical vector is
    the caller's choice (frozen by default, matching the direct
    parameterization of the leak).
    """

    buffer: np.ndarray  # (P,), or (M, P) for stacked networks
    alpha: float | None = None

    def vector(self, include_alpha: bool = False) -> np.ndarray:
        if include_alpha and self.alpha is None:
            raise ValueError("a batch pass gives no leak gradient; take it from per_sample_gradients")
        return np.append(self.buffer, self.alpha) if include_alpha else self.buffer.copy()


@dataclass
class GradientBundle:
    """Loss value plus every gradient a training or analysis step needs."""

    loss: float | np.ndarray  # (M,) for stacked networks
    grads: ParamGrads
    input_grads: np.ndarray | None = None  # (n, T, d0), per-sample sweeps only
    per_sample_grad_norms: np.ndarray | None = None
    per_sample_grad_vectors: np.ndarray | None = None  # (n, P), alpha excluded


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray, float]:
    """Single-sample cross entropy with max-subtracted log-sum-exp.

    Returns ``(loss, gradient, hessian_norm)`` where the gradient is
    ``softmax(logits) - onehot(label)``.  The classical caps — gradient
    2-norm below sqrt(2), 1-norm below 2, Hessian spectral norm below 1/2 —
    are asserted on every call.
    """
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim != 1:
        raise ValueError("logits must be a single class-score vector")
    if not 0 <= label < o.size:
        raise ValueError(f"label {label} out of range for {o.size} classes")
    m = float(o.max())
    lse = m + math.log(float(np.exp(o - m).sum()))
    loss = lse - float(o[label])
    p = np.exp(o - lse)
    grad = p.copy()
    grad[label] -= 1.0
    hessian = np.diag(p) - np.outer(p, p)
    hess_norm = float(np.linalg.eigvalsh(hessian)[-1])
    assert np.linalg.norm(grad) <= _CE_GRAD_L2_CAP + _BOUND_SLACK
    assert np.abs(grad).sum() <= _CE_GRAD_L1_CAP + _BOUND_SLACK
    assert hess_norm <= _CE_HESS_CAP + _BOUND_SLACK
    return loss, grad, hess_norm


def _softmax_loss_and_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross entropy over a batch and the per-sample logit gradients.

    Stacked logits (M, n, C) give one mean loss per model, an (M,) array.
    """
    if np.any(labels >= logits.shape[-1]):
        raise ValueError("label exceeds the network's class count")
    m = logits.max(axis=-1, keepdims=True)
    rows = np.arange(logits.shape[-2])
    with np.errstate(over="ignore", invalid="ignore"):  # logits near the float range's top: a non-finite loss
        lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
        losses = lse[..., 0] - logits[..., rows, labels]
        v = np.exp(logits - lse)
        loss = losses.mean(axis=-1)
    v[..., rows, labels] -= 1.0
    return (float(loss) if logits.ndim == 2 else loss), v


def _require_smooth(spec: SurrogateSpec) -> None:
    if spec.family == HARD:
        raise ValueError("gradient path needs a smooth spike family; the hard step is eval-only")


def batch_loss(params: NetworkParams, spec: SurrogateSpec, batch: Batch) -> float:
    """Mean cross entropy of the smooth forward pass on the batch."""
    _require_smooth(spec)
    logits = forward(params, spec, batch.inputs, keep_states=False).logits
    return _softmax_loss_and_grad(logits, batch.labels)[0]


def _rows(a: np.ndarray) -> np.ndarray:
    """A time-major (T, n, d) array as one (T n, d) matrix, or a stacked (T, n, M, d)
    array as M strided (T n, d) matrices; a view."""
    return a.reshape(-1, a.shape[2]) if a.ndim == 3 else a.reshape(-1, *a.shape[2:]).swapaxes(0, 1)


def _reverse_sweep(
    params: NetworkParams,
    trace: StateTrace,
    v: np.ndarray,
    per_sample: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Propagate logit cotangents ``v`` (n, C) back to parameters and inputs.

    Returns the canonical parameter gradient, the leak gradient and the
    input gradients.  The batch sweep gives the parameter gradient (P,) and
    ``None`` for the other two.  It is its trace's last reader: it writes
    over each layer's ``u`` and drops each layer's states once swept, so
    the working set shrinks as it goes.  Stacked ``params`` and trace (see
    :func:`network.stack`) take ``v`` as (M, n, C) and give each model's
    gradient as a row of an (M, P) array, bit-identical to its lone sweep.
    With ``per_sample=True`` the batch axis is never summed over: the
    parameter gradient is (n, P), the leak gradient (n,), one row each per
    sample (the exact gradient of that sample's own objective ``v_i @ o_i``),
    and the input gradients (n, T, d0).  A non-finite gradient raises.
    """
    spec = trace.spec
    if params.buffer.ndim == 2 and per_sample:
        raise ValueError("a stacked sweep gives batch parameter gradients only")
    n, n_steps, _ = trace.inputs.shape
    models = params.buffer.shape[:-1]  # () or (M,)
    alpha = np.array(params.alpha, dtype=np.float64)  # 0-d: the cheapest ufunc scalar
    n_layers = params.n_layers
    layer_slots, (w_out_slot, b_out_slot), size = _layout(params.dims, params.n_classes)
    lead = (n,) if per_sample else models
    grads = np.empty((*lead, size))

    def put(slot: tuple[slice, tuple[int, ...]], value: np.ndarray) -> None:
        grads[..., slot[0]] = value.reshape(*lead, -1)

    put(w_out_slot, v[:, :, None] * trace.zbar[:, None, :] if per_sample else np.matmul(v.swapaxes(-1, -2), trace.zbar))
    put(b_out_slot, v if per_sample else v.sum(axis=-2))

    gzbar = np.matmul(v, params.w_out)  # (n, d_L), or stacked (M, n, d_L)
    d_alpha = np.zeros(n)
    axes = 0 if per_sample else (0, 1)  # the time (and batch) axes of time-major arrays

    for idx in range(n_layers - 1, -1, -1):
        layer = params.layers[idx]
        u = trace.u[idx].swapaxes(0, -2)  # time-major (T, n, d) or (T, n, M, d) views
        z = trace.z[idx].swapaxes(0, -2)
        if not per_sample:  # the batch sweep is the trace's last reader: each layer's states go once swept
            trace.u[idx] = trace.z[idx] = None
        block = u.shape[1:]
        theta = np.empty(block)  # one contiguous block per step
        theta[...] = layer.threshold
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below, as InstabilityError
            sp = np.subtract(u, theta, out=None if per_sample else u)  # only the leak gradient reads u again
            surrogate_derivative(spec, sp, out=sp)
            # gz starts as the cross-layer term; each step subtracts the reset term
            # and then scales by sigma', which leaves the threshold's
            # spike-argument contribution sigma' * gz in place.
            if idx == n_layers - 1:
                gz = np.broadcast_to((gzbar / n_steps).swapaxes(0, -2), u.shape).copy()
            else:  # ``gu`` is still the layer above's
                gz = np.empty(u.shape)
                np.matmul(_rows(gu), params.layers[idx + 1].weight, out=_rows(gz))
            # Once spent, the layer above's cotangents give their buffer to this layer's, if it fits.
            gu = gu if idx < n_layers - 1 and gu.shape == gz.shape else np.empty_like(gz)
            tmp = np.empty(block)
            gu_t = np.zeros(block)
            for t in range(n_steps - 1, -1, -1):
                gz_t = np.subtract(gz[t], np.multiply(theta, gu_t, out=tmp), out=gz[t])
                gz_t *= sp[t]
                gu_t = np.add(gz_t, np.multiply(alpha, gu_t, out=tmp), out=gu[t])
        if not np.all(np.isfinite(gu)):
            bad_t = int(np.argwhere(~np.isfinite(gu.reshape(n_steps, -1)).all(axis=1))[-1][0])
            raise InstabilityError(
                f"non-finite gradient first appears at layer {idx + 1}, step {bad_t + 1}"
            )

        w_slot, b_slot, th_slot = layer_slots[idx]
        if per_sample:  # one (d, T) @ (T, d_in) product per sample
            put(w_slot, np.matmul(gu.transpose(1, 2, 0), trace.z[idx - 1] if idx > 0 else trace.inputs))
        else:  # one product over all (t, sample) rows per model; only the input frames are copied to time-major
            below = trace.z[idx - 1].swapaxes(0, -2) if idx > 0 else trace.inputs.transpose(1, 0, 2)
            put(w_slot, np.matmul(_rows(gu).swapaxes(-1, -2), _rows(below)))
        put(b_slot, gu.sum(axis=axes))
        reset = np.multiply(z[:-1], gu[1:], out=sp[1:]).sum(axis=axes)  # sigma' is spent
        put(th_slot, -(gz.sum(axis=axes) + reset))
        if per_sample:
            d_alpha += (u[:-1] * gu[1:]).sum(axis=(0, 2))
            if idx == 0:
                input_grads = (_rows(gu) @ layer.weight).reshape(n_steps, n, layer.d_in).transpose(1, 0, 2)

    return (grads, d_alpha, input_grads) if per_sample else (grads, None, None)


def backward(params: NetworkParams, spec: SurrogateSpec, batch: Batch) -> GradientBundle:
    """Mean cross entropy on the batch and its exact canonical parameter gradient.

    The leak and input gradients come from the per-sample sweep
    (:func:`per_sample_gradients`); here ``grads.alpha`` and ``input_grads``
    are ``None``.  For M networks stacked by :func:`network.stack` the loss
    is (M,) and the buffer (M, P), each model's bit-identical to its lone pass.
    """
    _require_smooth(spec)
    trace = forward(params, spec, batch.inputs)
    loss, v = _softmax_loss_and_grad(trace.logits, batch.labels)
    v /= batch.n_samples  # mean reduction
    return GradientBundle(loss, ParamGrads(_reverse_sweep(params, trace, v)[0]))


def per_sample_gradients(params: NetworkParams, spec: SurrogateSpec, batch: Batch) -> GradientBundle:
    """Per-sample parameter gradients (of each sample's own loss) and input gradients.

    The bundle's ``grads`` field holds the batch-mean gradient: the sum of
    the per-sample vectors over samples, divided by n.
    """
    _require_smooth(spec)
    trace = forward(params, spec, batch.inputs)
    loss, v = _softmax_loss_and_grad(trace.logits, batch.labels)
    vectors, d_alpha, input_grads = _reverse_sweep(params, trace, v, per_sample=True)
    n = batch.n_samples
    return GradientBundle(
        loss=loss,
        grads=ParamGrads(vectors.sum(axis=0) / n, float(np.sum(d_alpha)) / n),
        input_grads=input_grads,
        per_sample_grad_norms=np.linalg.norm(vectors, axis=1),
        per_sample_grad_vectors=vectors,
    )


def logit_jacobians(
    params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobians of one sample's logits w.r.t. parameters and inputs, and the logits.

    Returns ``(j_w, j_x, logits)`` with shapes (C, P), (C, T * d0) and (C,),
    alpha excluded from the parameter axis.  Implemented as one per-sample
    sweep on the sample tiled C times with identity cotangents, which yields
    one Jacobian row per copy; the logits are the first copy's.  They may
    differ from a lone forward's in the last bit, since the readout product
    then has one row instead of C.
    """
    _require_smooth(spec)
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("logit_jacobians expects a single (T, d0) sequence")
    n_classes = params.n_classes
    tiled = np.broadcast_to(x, (n_classes, *x.shape)).copy()
    trace = forward(params, spec, tiled)
    v = np.eye(n_classes)
    vectors, _, input_grads = _reverse_sweep(params, trace, v, per_sample=True)
    return vectors, input_grads.reshape(n_classes, -1), trace.logits[0]


def central_difference(fn: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Dense central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * h)
    return grad


def finite_difference_oracle(
    params: NetworkParams,
    spec: SurrogateSpec,
    batch: Batch,
    h: float = 1e-6,
    include_alpha: bool = False,
) -> np.ndarray:
    """Central-difference gradient of the batch loss over the canonical vector."""
    _require_smooth(spec)

    def fn(vec: np.ndarray) -> float:
        return batch_loss(replace_parameters(params, vec, include_alpha), spec, batch)

    return central_difference(fn, parameter_vector(params, include_alpha), h)


@dataclass(frozen=True)
class GradcheckResult:
    max_rel_err: float
    n_params: int
    passed: bool


def gradcheck(
    params: NetworkParams,
    spec: SurrogateSpec,
    batch: Batch,
    h: float = 1e-6,
    tol: float = 1e-5,
    include_alpha: bool = True,
) -> GradcheckResult:
    """Compare :func:`backward`, and the leak entry of :func:`per_sample_gradients`,
    against the finite-difference oracle.

    Per-coordinate error is ``|a - b| / max(1, |a|, |b|)`` — relative where
    the gradient is appreciable and absolute near zero, where a pure ratio
    would amplify finite-difference noise.
    """
    analytic = backward(params, spec, batch).grads.buffer
    if include_alpha:
        analytic = np.append(analytic, per_sample_gradients(params, spec, batch).grads.alpha)
    numeric = finite_difference_oracle(params, spec, batch, h=h, include_alpha=include_alpha)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = float(np.max(np.abs(analytic - numeric) / scale))
    return GradcheckResult(max_rel_err=err, n_params=analytic.size, passed=err <= tol)
