"""Unrolled leaky integrate-and-fire layers with smooth or hard spike rules.

The model is a stack of ``L`` recurrent-in-time layers followed by a linear
readout of the time-averaged top-layer activity.  With layer index ``l`` and
time step ``t`` (states at ``t = 0`` are zero):

    u[l, t] = alpha * u[l, t-1] + W[l] z[l-1, t] + b[l] - theta[l] * z[l, t-1]
    z[l, t] = sigma(u[l, t] - theta[l])        (smooth training rule)
    s[l, t] = step(u[l, t] - theta[l])         (hard deployment rule)

``z[0, t]`` is the input frame at step ``t``.  The same reset-by-subtraction
recursion is used in both modes; only the spike nonlinearity changes.  The
hard step uses the convention ``step(0) = 1`` so that a membrane potential
exactly at threshold fires.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .linalg import spectral_norm

ARCTAN = "arctan"
FAST_SIGMOID = "fast_sigmoid"
HARD = "hard"
_FAMILIES = (ARCTAN, FAST_SIGMOID, HARD)
_FAMILY_CODES = {ARCTAN: 1, FAST_SIGMOID: 2, HARD: 3}
_CODE_FAMILIES = {v: k for k, v in _FAMILY_CODES.items()}

_HALF, _ONE, _PI = np.array(0.5), np.array(1.0), np.array(math.pi)  # 0-d: the cheapest ufunc scalars

SURROGATE_MODE = "surrogate"
HARD_MODE = "hard"


class InstabilityError(RuntimeError):
    """Raised when a forward or backward pass, or an update, produces inadmissible values."""


@dataclass(frozen=True)
class SurrogateSpec:
    """Spike nonlinearity: a smooth family with slope ``k``, or the hard step.

    ``derivative_bound`` is the global bound ``B1`` on ``|sigma'|`` and
    ``curvature_bound`` the global bound ``B2`` on ``|sigma''|``.  For the
    arctan family these are ``k / pi`` and ``3 sqrt(3) k^2 / (8 pi)``.  The
    fast-sigmoid family is continuous but not twice differentiable at the
    origin; its ``B2 = k^2`` is the supremum away from zero, so smoothness
    guarantees quoted for it are practical rather than exact.
    """

    family: str = ARCTAN
    slope: float = math.pi

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.family != HARD and not (np.isfinite(self.slope) and self.slope > 0.0):
            raise ValueError(f"slope must be positive and finite, got {self.slope}")

    @property
    def is_smooth(self) -> bool:
        return self.family != HARD

    @property
    def is_twice_differentiable(self) -> bool:
        return self.family == ARCTAN

    @property
    def derivative_bound(self) -> float:
        if self.family == ARCTAN:
            return self.slope / math.pi
        if self.family == FAST_SIGMOID:
            return self.slope / 2.0
        raise ValueError("the hard step has no derivative bound")

    @functools.cached_property
    def _operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The slope and ``derivative_bound`` as 0-d arrays: the cheapest ufunc operands."""
        return np.array(self.slope, dtype=np.float64), np.array(self.derivative_bound, dtype=np.float64)

    @property
    def curvature_bound(self) -> float:
        if self.family == ARCTAN:
            return 3.0 * math.sqrt(3.0) / (8.0 * math.pi) * self.slope**2
        if self.family == FAST_SIGMOID:
            return self.slope**2
        raise ValueError("the hard step has no curvature bound")


def surrogate_value(spec: SurrogateSpec, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate the smooth spike function elementwise, into ``out`` if given (it may be ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.family == HARD:
        raise ValueError("hard step is not a surrogate; use hard_step")
    y = np.multiply(spec._operands[0], x, out=np.empty_like(x) if out is None else out)
    if spec.family == ARCTAN:  # 0.5 + arctan(k x) / pi
        np.arctan(y, out=y)
        y /= _PI
        y += _HALF
    else:  # 0.5 (1 + k x / (1 + |k x|))
        den = np.abs(y)
        den += _ONE
        y /= den
        y += _ONE
        y *= _HALF
    return y if y.ndim else y[()]


def surrogate_derivative(spec: SurrogateSpec, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative of the smooth spike function elementwise, into ``out`` if given (it may be ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.family == HARD:
        raise ValueError("hard step has no derivative; use the surrogate families")
    k, bound = spec._operands
    y = np.multiply(k, x, out=np.empty_like(x) if out is None else out)
    if spec.family == ARCTAN:  # (k / pi) / (1 + (k x)^2)
        np.square(y, out=y)
        y += _ONE
    else:  # (k / 2) / (1 + |k x|)^2
        np.abs(y, out=y)
        y += _ONE
        np.square(y, out=y)
    np.divide(bound, y, out=y)
    return y if y.ndim else y[()]


def surrogate_second_derivative(spec: SurrogateSpec, x: np.ndarray) -> np.ndarray:
    """Second derivative of the smooth spike function elementwise.

    For the fast-sigmoid family the value at the kink ``x = 0`` is reported
    as 0 (the symmetric choice); the family is not twice differentiable there.
    """
    x = np.asarray(x, dtype=np.float64)
    k = spec.slope
    if spec.family == ARCTAN:
        return -2.0 * k**3 * x / (math.pi * (1.0 + (k * x) ** 2) ** 2)
    if spec.family == FAST_SIGMOID:
        return -(k**2) * np.sign(x) / (1.0 + np.abs(k * x)) ** 3
    raise ValueError("hard step has no second derivative")


def hard_step(x: np.ndarray) -> np.ndarray:
    """Heaviside step with the tie rule step(0) = 1, as float64."""
    x = np.asarray(x, dtype=np.float64)
    y = np.greater_equal(x, 0.0, out=np.empty_like(x))
    return y if y.ndim else y[()]


def mode_spec(spec: SurrogateSpec, mode: str) -> SurrogateSpec:
    """Spec to run a forward pass in the given evaluation mode."""
    if mode == SURROGATE_MODE:
        if spec.family == HARD:
            raise ValueError("surrogate mode requires a smooth spike family")
        return spec
    if mode == HARD_MODE:
        return SurrogateSpec(HARD, spec.slope)
    raise ValueError(f"unknown mode {mode!r}; expected 'surrogate' or 'hard'")


@dataclass
class LayerParams:
    """One layer: input weights, bias, and per-unit firing threshold."""

    weight: np.ndarray  # (d_out, d_in)
    bias: np.ndarray  # (d_out,)
    threshold: np.ndarray  # (d_out,), strictly positive

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1 or self.threshold.ndim != 1:
            raise ValueError("weight must be 2-d; bias and threshold 1-d")
        d_out = self.weight.shape[0]
        if self.bias.shape != (d_out,) or self.threshold.shape != (d_out,):
            raise ValueError(
                f"bias/threshold shapes {self.bias.shape}/{self.threshold.shape} "
                f"do not match weight rows {d_out}"
            )
        for name, arr in (("weight", self.weight), ("bias", self.bias), ("threshold", self.threshold)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        if not np.all(self.threshold > 0.0):
            raise ValueError("thresholds must be strictly positive")

    @property
    def d_in(self) -> int:
        return self.weight.shape[-1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[-2]


@dataclass
class NetworkParams:
    """Full parameter set: spiking layers, shared leak, linear readout.

    The parameters live in one float64 ``buffer`` in canonical-vector order
    (see :func:`_layout`).  Every layer's ``weight``/``bias``/``threshold``
    and ``w_out``/``b_out`` are views into it, so an in-place edit of either
    shows in the other.  The constructor copies its inputs into a fresh
    buffer and leaves the given arrays and ``LayerParams`` objects alone.
    :func:`stack` builds M parameter sets over one (M, P) buffer; every
    view then has a leading model axis.
    """

    layers: list[LayerParams]
    alpha: float
    w_out: np.ndarray  # (n_classes, d_L)
    b_out: np.ndarray  # (n_classes,)
    buffer: np.ndarray = field(init=False, repr=False)  # (P,)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("need at least one spiking layer")
        self.w_out = np.asarray(self.w_out, dtype=np.float64)
        self.b_out = np.asarray(self.b_out, dtype=np.float64)
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"leak alpha must lie in (0, 1), got {self.alpha}")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.d_in != prev.d_out:
                raise ValueError(f"layer widths disagree: {prev.d_out} feeds {nxt.d_in}")
        if self.w_out.ndim != 2 or self.w_out.shape[1] != self.layers[-1].d_out:
            raise ValueError("readout weight must be (n_classes, top layer width)")
        if self.b_out.shape != (self.w_out.shape[0],):
            raise ValueError("readout bias length must equal n_classes")
        if not (np.all(np.isfinite(self.w_out)) and np.all(np.isfinite(self.b_out))):
            raise ValueError("readout has non-finite entries")
        dims, n_classes = self.dims, self.n_classes
        net = NetworkParams._over(np.empty(_layout(dims, n_classes)[2]), dims, n_classes, self.alpha)
        for dst, src in zip(net.layers, self.layers):
            dst.weight[...], dst.bias[...], dst.threshold[...] = src.weight, src.bias, src.threshold
        net.w_out[...], net.b_out[...] = self.w_out, self.b_out
        vars(self).update(vars(net))  # take the fresh buffer and its views

    @classmethod
    def _over(cls, buffer: np.ndarray, dims: tuple[int, ...], n_classes: int, alpha: float) -> NetworkParams:
        """Network stored in ``buffer`` itself, not a copy; the caller vouches for its values."""
        layer_slots, readout_slots, _ = _layout(dims, n_classes)
        out = cls.__new__(cls)
        out.buffer, out.alpha = buffer, alpha
        out.layers = [object.__new__(LayerParams) for _ in layer_slots]  # views, not re-validated
        for layer, (w, b, th) in zip(out.layers, layer_slots):
            layer.weight, layer.bias, layer.threshold = _view(buffer, w), _view(buffer, b), _view(buffer, th)
        out.w_out, out.b_out = (_view(buffer, s) for s in readout_slots)
        return out

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[-2]

    @property
    def dims(self) -> tuple[int, ...]:
        """Widths (d_0, d_1, ..., d_L) from input to top spiking layer."""
        return (self.layers[0].d_in, *(layer.d_out for layer in self.layers))

    def copy(self) -> "NetworkParams":
        return NetworkParams._over(self.buffer.copy(), self.dims, self.n_classes, self.alpha)

    def __reduce__(self):
        """Pickle the buffer alone; unpickling rebuilds the views over it."""
        return NetworkParams._over, (self.buffer, self.dims, self.n_classes, self.alpha)


def init_network(
    dims: Sequence[int],
    n_classes: int,
    alpha: float = 0.5,
    theta: float = 0.5,
    weight_scale: float = 1.0,
    seed: int | np.random.Generator = 0,
) -> NetworkParams:
    """Random network with widths ``dims = (d_0, ..., d_L)``.

    Weights are drawn N(0, (weight_scale / sqrt(d_in))^2); biases start at
    zero and thresholds at the constant ``theta``.  Deterministic given the
    seed.
    """
    if len(dims) < 2:
        raise ValueError("dims must list the input width and at least one layer width")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weight = rng.standard_normal((d_out, d_in)) * (weight_scale / math.sqrt(d_in))
        layers.append(LayerParams(weight, np.zeros(d_out), np.full(d_out, float(theta))))
    d_top = dims[-1]
    w_out = rng.standard_normal((n_classes, d_top)) * (weight_scale / math.sqrt(d_top))
    return NetworkParams(layers, alpha, w_out, np.zeros(n_classes))


@dataclass
class StateTrace:
    """Everything a forward pass produced, kept for the reverse sweep.

    ``u[l]`` and ``z[l]`` have shape (n, T, d_l) for layer ``l`` (0-based
    list index for layer ``l + 1`` of the recursion); :func:`forward` makes
    them views of time-major (T, n, d_l) buffers.  A forward run with
    ``keep_states=False`` leaves both lists empty.  ``zbar`` is the
    time-averaged top-layer activity and ``logits`` the readout output.  A
    stacked forward puts a model axis in front of ``u``, ``z``, ``zbar`` and
    ``logits``; ``inputs`` are shared.
    """

    inputs: np.ndarray  # (n, T, d_0)
    u: list[np.ndarray]
    z: list[np.ndarray]
    zbar: np.ndarray  # (n, d_L)
    logits: np.ndarray  # (n, n_classes)
    spec: SurrogateSpec


# OpenBLAS, as NumPy ships it, runs a dgemm on its thread pool once m·n·k
# passes 65536 x GEMM_MULTITHREAD_THRESHOLD (4), and the pool's threads
# busy-wait between calls.  A larger drive product is issued in row blocks
# at or under that size, so that a forward does not wake the pool, as long
# as a block keeps _MIN_BLOCK_ROWS rows; a wider layer's product stays one
# call.  On OpenBLAS 0.3.31's Haswell kernels, blocks of 256 rows or more
# gave the whole product's bits at 48->16, 16->16, 48->64 and 64->64, while
# blocks of up to 75 rows did not at 48->16; and shorter blocks would turn
# a B=1024 drive at a width of 256 into thousands of calls.
_SERIAL_GEMM_SIZE = 65536 * 4
_MIN_BLOCK_ROWS = 256


@functools.lru_cache(maxsize=64)
def _row_blocks(n_rows: int, row_size: int) -> tuple[int, int]:
    """``(size, count)``: a product over ``n_rows`` rows that each cost
    ``row_size`` (k·n) multiply-adds runs as ``count`` blocks of ``size``
    rows and one block of the rows left, each block's m·k·n at most
    ``_SERIAL_GEMM_SIZE``.  A product within it, or one whose blocks would
    hold fewer than ``_MIN_BLOCK_ROWS`` rows, is one block (``count`` 0).

    ``size`` is the largest power of two rows within the cap, and the
    rows left are at most ``size`` unless they fit with one block more.
    """
    cap = _SERIAL_GEMM_SIZE // row_size
    if n_rows <= cap or cap < _MIN_BLOCK_ROWS:
        return n_rows, 0
    size = 1 << (cap.bit_length() - 1)
    count = (n_rows - 1) // size
    if n_rows - size * (count - 1) <= cap:  # a short tail joins the last block
        count -= 1
    return size, count


def drives_stay_serial(dims: Sequence[int]) -> bool:
    """Whether a network of widths ``dims`` (input first) issues every drive
    product, over any number of rows, at or under ``_SERIAL_GEMM_SIZE``:
    whether each layer's drive can be cut into blocks (see :func:`_row_blocks`),
    so that no forward wakes OpenBLAS's thread pool."""
    return all(d_in * d * _MIN_BLOCK_ROWS <= _SERIAL_GEMM_SIZE for d_in, d in zip(dims, dims[1:]))


_gemm = np.matmul  # every drive product is issued through this name, so a test can see each one


def layer_drive(layer: LayerParams, x: np.ndarray) -> np.ndarray:
    """A layer's drive ``W z + b`` over time-major inputs ``x`` (T, n, d_in), time-major.

    One matrix product over every (t, sample) row, issued in row blocks
    small enough to run on the calling thread where the layer is narrow
    enough for them (see :func:`_row_blocks`).
    When ``x`` is the time-major view of sample-major frames the product
    runs over the frames' own rows, and the drive is a strided view.  A
    layer of M stacked models (weight (M, d_out, d_in)) takes shared inputs
    (T, n, d_in) or per-model inputs (T, n, M, d_in) and gives
    (T, n, M, d_out): one model's rows over (t, n) are then one strided
    matrix, and its drive is the same product a lone model runs.  The
    thresholds do not enter, so several threshold settings can share one
    drive.
    """
    n_steps, n = x.shape[:2]
    models, (d, d_in) = layer.weight.shape[:-2], layer.weight.shape[-2:]
    time_major = x.ndim == 4 or x.flags.c_contiguous
    if x.ndim == 4:  # per-model inputs: one strided (T n, d_in) matrix per model
        rows = x.reshape(n_steps * n, *models, d_in).swapaxes(0, 1)
    else:
        rows = x.reshape(n_steps * n, d_in) if time_major else x.transpose(1, 0, 2).reshape(n * n_steps, d_in)
    drive = np.empty((n_steps * n, *models, d))
    out, weight = drive.swapaxes(0, 1) if models else drive, layer.weight.swapaxes(-1, -2)
    size, count = _row_blocks(n_steps * n, d_in * d)
    if count:  # the blocks as one batched product, one BLAS call per block, then the rows left
        even = size * count

        def blocks(a: np.ndarray) -> np.ndarray:
            return a[..., :even, :].reshape(*a.shape[:-2], count, size, a.shape[-1])

        _gemm(blocks(rows), weight[..., None, :, :], out=blocks(out))
        rows, out = rows[..., even:, :], out[..., even:, :]
    _gemm(rows, weight, out=out)
    drive += layer.bias
    if time_major:
        return drive.reshape(n_steps, n, *models, d)
    return drive.reshape(n, n_steps, *models, d).swapaxes(0, 1)


def lif_layer(
    layer: LayerParams,
    alpha: float,
    spec: SurrogateSpec,
    x: np.ndarray,
    *,
    keep_states: bool = True,
    drive: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one spiking layer over time-major inputs ``x`` (T, n, d_in).

    Returns ``(u, z)``: the membrane states and activity, time-major
    (T, n, d_out), or (T, n, M, d_out) for M stacked models (see
    :func:`layer_drive`).  With ``keep_states=False`` only the activity is
    stored, and ``u`` is the last step's state.  Non-finite states are left
    for the caller to detect.

    ``drive`` is :func:`layer_drive` of this layer over ``x``, for a caller
    that runs several thresholds over one drive; the recursion only reads it.
    Without it the layer computes its own drive and writes the activity over
    it where it is contiguous.  Hard spikes are the comparison ``u >= theta``,
    which for finite thresholds equals ``hard_step(u - theta)`` on every
    float64 state.  Each step's ufuncs take operands of one shape, the
    thresholds as a contiguous per-step block and the leak as a 0-d array,
    since a broadcast or Python-float operand costs more per call.
    """
    own = drive is None
    if own:
        drive = layer_drive(layer, x)
    n_steps, block = drive.shape[0], drive.shape[1:]  # one step's states
    theta = np.empty(block)  # a filled buffer: cheaper to build than a copied broadcast
    theta[...] = layer.threshold
    alpha = np.array(alpha, dtype=np.float64)
    hard = spec.family == HARD
    # Without states, every step writes its membrane state over the same buffer.
    u = np.empty((n_steps, *block)) if keep_states else [np.zeros(block)] * n_steps
    z = drive if own and drive.flags.c_contiguous else np.empty((n_steps, *block))
    a = np.empty(block)
    u_t = z_t = np.zeros(block)
    for t in range(n_steps):  # drive[t] is read before z[t] is written
        u_t = np.multiply(alpha, u_t, out=u[t])
        u_t += drive[t]
        u_t -= np.multiply(theta, z_t, out=a)
        if hard:
            z_t = np.greater_equal(u_t, theta, out=z[t])
        else:
            z_t = surrogate_value(spec, np.subtract(u_t, theta, out=a), out=z[t])
    return (u if keep_states else u_t), z


def readout(params: NetworkParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged top-layer activity and logits from its time-major activity.

    ``z`` is (T, n, d_L), or (T, n, M, d_L) for stacked ``params``; returns
    ``zbar`` (n, d_L) and ``logits`` (n, n_classes), or each with a leading
    model axis.
    """
    zbar = z.mean(axis=0).swapaxes(0, -2)
    logits = np.matmul(zbar, params.w_out.swapaxes(-1, -2))
    logits += params.b_out[..., None, :]
    return zbar, logits


def forward(
    params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray, *, keep_states: bool = True
) -> StateTrace:
    """Run the unrolled dynamics on a batch of frame sequences.

    ``frames`` is (n, T, d_0) or a single (T, d_0) sequence.  Smooth specs
    produce graded activations; the hard spec produces binary spikes via the
    step rule.  Raises :class:`InstabilityError` if any membrane state goes
    non-finite.  ``keep_states=False`` keeps only the layer below's activity
    while each layer runs and returns a trace with empty ``u`` and ``z``; its
    ``zbar`` and ``logits`` are bit-identical to the full pass's.

    Stacked ``params`` (see :func:`stack`) run M models on the same frames
    in one pass; each model's slice of the trace is bit-identical to its
    lone forward, and a non-finite state in any model raises.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.ndim != 3:
        raise ValueError(f"frames must be (n, T, d0) or (T, d0), got shape {frames.shape}")
    d0 = params.layers[0].d_in
    if x.shape[2] != d0:
        raise ValueError(f"frame width {x.shape[2]} does not match input width {d0}")

    # Layer buffers are time-major, (T, n, d) or stacked (T, n, M, d), so every
    # step works on contiguous blocks; swapping axes 0 and -2 gives the
    # trace's (n, T, d) or (M, n, T, d) views.
    z = x.transpose(1, 0, 2)
    us: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below, as InstabilityError
        for idx, layer in enumerate(params.layers):
            u, z = lif_layer(layer, params.alpha, spec, z, keep_states=keep_states)
            if not np.all(np.isfinite(u)):
                if not keep_states:  # a non-finite state stays so to the last step; locate it
                    forward(params, spec, frames)
                bad = np.argwhere(~np.isfinite(np.moveaxis(u, 0, -2)))[0]  # (sample, [model,] step, unit)
                raise InstabilityError(f"non-finite membrane state at layer {idx + 1}, step {bad[-2] + 1}")
            if keep_states:
                us.append(u.swapaxes(0, -2))
                zs.append(z.swapaxes(0, -2))

    zbar, logits = readout(params, z)
    return StateTrace(inputs=x, u=us, z=zs, zbar=zbar, logits=logits, spec=spec)


# ---------------------------------------------------------------------------
# Canonical parameter vector
#
# The order is decided in one place, :func:`_layout`: per layer (weight
# row-major, bias, threshold), then readout weight row-major, readout bias,
# and finally alpha if requested.  ``NetworkParams.buffer`` and
# ``ParamGrads.buffer`` are stored in this order, and an SNNW checkpoint's
# payload is that buffer's bytes.
# ---------------------------------------------------------------------------

_Slot = tuple[slice, tuple[int, ...]]


@functools.lru_cache(maxsize=64)
def _layout(dims: tuple[int, ...], n_classes: int) -> tuple:
    """Canonical slots: per-layer (weight, bias, threshold), readout (w_out, b_out), size.

    A slot is the block's slice of the vector and its array shape.  Sizes
    are Python ints, so absurd widths read from a file cannot overflow.
    """
    pos = 0

    def slot(*shape: int) -> _Slot:
        nonlocal pos
        start, pos = pos, pos + math.prod(shape)
        return slice(start, pos), shape

    layers = tuple((slot(d_out, d_in), slot(d_out), slot(d_out)) for d_in, d_out in zip(dims, dims[1:]))
    readout = (slot(n_classes, dims[-1]), slot(n_classes))
    return layers, readout, pos


def _view(buffer: np.ndarray, s: _Slot) -> np.ndarray:
    """Block ``s`` of a canonical buffer, as a view of its shape after any leading model axis."""
    return buffer[s[0]].reshape(s[1]) if buffer.ndim == 1 else buffer[:, s[0]].reshape(len(buffer), *s[1])


def stack(nets: Sequence[NetworkParams]) -> NetworkParams:
    """The M networks' parameters in one (M, P) buffer, for a stacked :func:`forward`.

    The networks must share their widths, class count and leak.  A lone
    network is returned as it is: its passes need no model axis.
    """
    first = nets[0]
    if len(nets) == 1:
        return first
    if any((net.dims, net.n_classes, net.alpha) != (first.dims, first.n_classes, first.alpha) for net in nets):
        raise ValueError("stacked networks must share widths, class count and leak")
    return NetworkParams._over(np.stack([net.buffer for net in nets]), first.dims, first.n_classes, first.alpha)


def parameter_count(params: NetworkParams, include_alpha: bool = False) -> int:
    return params.buffer.size + int(include_alpha)


def parameter_vector(params: NetworkParams, include_alpha: bool = False) -> np.ndarray:
    return np.append(params.buffer, params.alpha) if include_alpha else params.buffer.copy()


def _admissible(params: NetworkParams) -> NetworkParams:
    """``params`` if its leak and thresholds are admissible (values already finite)."""
    if not (0.0 < params.alpha < 1.0):
        raise ValueError(f"leak alpha must lie in (0, 1), got {params.alpha}")
    if not all(np.all(layer.threshold > 0.0) for layer in params.layers):
        raise ValueError("thresholds must be strictly positive")
    return params


def replace_parameters(
    params: NetworkParams, vector: np.ndarray, include_alpha: bool = False
) -> NetworkParams:
    """New NetworkParams stored in a copy of a canonical vector.

    A wrong length, or a leak or threshold outside its range, is a
    ``ValueError``; no update trains the leak, so only a caller can move it.
    A non-finite entry raises :class:`InstabilityError`.
    """
    vector = np.asarray(vector, dtype=np.float64)
    size = params.buffer.size
    if vector.shape != (size + int(include_alpha),):
        raise ValueError(f"expected vector of length {size + int(include_alpha)}, got shape {vector.shape}")
    alpha = float(vector[size]) if include_alpha else params.alpha
    if not np.all(np.isfinite(vector)):
        raise InstabilityError("parameter vector has non-finite entries")
    return _admissible(NetworkParams._over(vector[:size].copy(), params.dims, params.n_classes, alpha))


def threshold_slices(params: NetworkParams) -> list[slice]:
    """Canonical-vector slices holding each layer's thresholds."""
    return [th[0] for _, _, th in _layout(params.dims, params.n_classes)[0]]


# ---------------------------------------------------------------------------
# Norm extraction for the closed-form constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamBounds:
    """Measured parameter norms entering the closed-form constants.

    ``m_a`` is the max layer spectral norm, ``m_b`` the max bias 2-norm,
    ``m_theta`` the max threshold entry, ``m_out`` the readout spectral
    norm.
    """

    m_a: float
    m_b: float
    m_theta: float
    m_out: float


def constant_bounds_extract(params: NetworkParams) -> ParamBounds:
    """Measure the norm caps realized by a concrete parameter set."""
    return ParamBounds(
        m_a=max(spectral_norm(l.weight).value for l in params.layers),
        m_b=max(float(np.linalg.norm(l.bias)) for l in params.layers),
        m_theta=max(float(np.max(l.threshold)) for l in params.layers),
        m_out=spectral_norm(params.w_out).value,
    )


# ---------------------------------------------------------------------------
# Checkpoint container
#
# Custom little-endian binary layout (bit-identical across runs and
# platforms, unlike zip-based containers that embed timestamps):
#
#   magic   4s   b"SNNW"
#   version u32  (currently 1)
#   family  u32  (1 arctan, 2 fast sigmoid, 3 hard)
#   slope   f64
#   alpha   f64
#   L       u32  number of spiking layers
#   C       u32  number of classes
#   dims    (L+1) * u32   widths d_0 .. d_L
#   payload P * f64   the canonical parameter vector (see :func:`_layout`),
#                     i.e. ``NetworkParams.buffer``, P fixed by dims and C
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"SNNW"
_CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = ("<IIddII", ("version", "family", "slope", "alpha", "L", "C"))


def _write_container(path: str, magic: bytes, header: tuple, values: Sequence, *payloads: bytes) -> None:
    """Write ``magic``, the ``header`` table's ``values`` (version first) and the payloads."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header[0], *values))
        fh.writelines(payloads)


@contextlib.contextmanager
def _read_container(path: str, magic: bytes, header: tuple, version: int, what: str) -> Iterator[tuple]:
    """Yield ``(fh, fields)`` for a ``what`` file: its header fields after the version,
    with ``fh`` at the payload.  The magic, a header cut short (named by field) and
    the version are refused before the body runs, and trailing bytes after it."""
    with open(path, "rb") as fh:
        yield fh, _read_header(fh, magic, header, version, what)
        if fh.read(1):
            raise ValueError(f"trailing bytes after {what} payload")


def _read_header(fh: BinaryIO, magic: bytes, header: tuple, version: int, what: str) -> list:
    """A ``what`` file's header fields after the version, with ``fh`` left at
    the payload; the magic, a header cut short and the version are refused."""
    fmt, names = header
    found = fh.read(len(magic))
    if found != magic:
        raise ValueError(f"not a {what} file (magic {found!r})")
    raw = fh.read(struct.calcsize(fmt))
    for i, name in enumerate(names):
        if struct.calcsize(fmt[: i + 2]) > len(raw):
            raise ValueError(f"{what} truncated in header field {name!r}")
    found_version, *fields = struct.unpack(fmt, raw)
    if found_version != version:
        raise ValueError(f"unsupported {what} version {found_version}")
    return fields


def _read_declared(fh: BinaryIO, dtype: str, count: int, field_name: str, what: str) -> np.ndarray:
    """Read the ``count`` items of ``dtype`` that header field ``field_name`` declares,
    straight into a new array.  The size is checked against the file length first,
    so that absurd declared sizes are never allocated."""
    n_bytes = np.dtype(dtype).itemsize * count
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n_bytes > remaining:
        raise ValueError(f"{what} truncated: {field_name} declares {n_bytes} bytes, {remaining} remain")
    out = np.empty(count, dtype=dtype)
    if fh.readinto(out) != n_bytes:
        raise ValueError(f"{what} truncated while reading {field_name}")
    return out


def save_checkpoint(path: str, params: NetworkParams, spec: SurrogateSpec) -> None:
    """Write parameters and the spike rule to a deterministic binary file."""
    family = _FAMILY_CODES[spec.family]
    values = (_CHECKPOINT_VERSION, family, spec.slope, params.alpha, params.n_layers, params.n_classes)
    dims = struct.pack(f"<{len(params.dims)}I", *params.dims)
    _write_container(path, _CHECKPOINT_MAGIC, _CHECKPOINT_HEADER, values, dims, params.buffer.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[NetworkParams, SurrogateSpec]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Declared sizes are checked against the file length before any read, so
    a truncated or inconsistent file raises ``ValueError`` naming the field.
    """
    container = _read_container(path, _CHECKPOINT_MAGIC, _CHECKPOINT_HEADER, _CHECKPOINT_VERSION, "checkpoint")
    with container as (fh, (family_code, slope, alpha, n_layers, n_classes)):
        if family_code not in _CODE_FAMILIES:
            raise ValueError(f"unknown spike family code {family_code}")
        if n_layers < 1:
            raise ValueError("checkpoint field 'L' must be at least 1")
        if n_classes < 1:
            raise ValueError("checkpoint field 'C' must be at least 1")
        dims = tuple(_read_declared(fh, "<u4", n_layers + 1, "L", "checkpoint").tolist())
        if 0 in dims:
            raise ValueError(f"checkpoint field 'dims' must be positive, got {dims}")
        size = _layout(dims, n_classes)[2]
        buffer = _read_declared(fh, "<f8", size, "dims/C", "checkpoint").astype(np.float64, copy=False)
    if not np.all(np.isfinite(buffer)):
        raise ValueError("checkpoint payload has non-finite entries")
    spec = SurrogateSpec(_CODE_FAMILIES[family_code], slope)
    return _admissible(NetworkParams._over(buffer, dims, n_classes, alpha)), spec
