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

import functools
import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .linalg import spectral_norm

ARCTAN = "arctan"
FAST_SIGMOID = "fast_sigmoid"
HARD = "hard"
_FAMILIES = (ARCTAN, FAST_SIGMOID, HARD)
_FAMILY_CODES = {ARCTAN: 1, FAST_SIGMOID: 2, HARD: 3}
_CODE_FAMILIES = {v: k for k, v in _FAMILY_CODES.items()}

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
    y = np.multiply(spec.slope, x, out=np.empty_like(x) if out is None else out)
    if spec.family == ARCTAN:  # 0.5 + arctan(k x) / pi
        np.arctan(y, out=y)
        y /= math.pi
        y += 0.5
    else:  # 0.5 (1 + k x / (1 + |k x|))
        den = np.abs(y)
        den += 1.0
        y /= den
        y += 1.0
        y *= 0.5
    return y if y.ndim else y[()]


def surrogate_derivative(spec: SurrogateSpec, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative of the smooth spike function elementwise, into ``out`` if given (it may be ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    if spec.family == HARD:
        raise ValueError("hard step has no derivative; use the surrogate families")
    k = spec.slope
    y = np.multiply(k, x, out=np.empty_like(x) if out is None else out)
    if spec.family == ARCTAN:  # (k / pi) / (1 + (k x)^2)
        np.square(y, out=y)
        y += 1.0
        np.divide(k / math.pi, y, out=y)
    else:  # (k / 2) / (1 + |k x|)^2
        np.abs(y, out=y)
        y += 1.0
        np.square(y, out=y)
        np.divide(0.5 * k, y, out=y)
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


def hard_step(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Heaviside step with the tie rule step(0) = 1, into a float64 ``out`` if given."""
    x = np.asarray(x, dtype=np.float64)
    y = np.greater_equal(x, 0.0, out=np.empty_like(x) if out is None else out)
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
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    def copy(self) -> "LayerParams":
        return LayerParams(self.weight.copy(), self.bias.copy(), self.threshold.copy())


@dataclass
class NetworkParams:
    """Full parameter set: spiking layers, shared leak, linear readout.

    The parameters live in one float64 ``buffer`` in canonical-vector order
    (see :func:`_layout`).  Every layer's ``weight``/``bias``/``threshold``
    and ``w_out``/``b_out`` are views into it, so an in-place edit of either
    shows in the other.  The constructor copies its inputs into a fresh
    buffer and leaves the given arrays and ``LayerParams`` objects alone.
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
        return self.w_out.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        """Widths (d_0, d_1, ..., d_L) from input to top spiking layer."""
        return (self.layers[0].d_in, *(layer.d_out for layer in self.layers))

    def copy(self) -> "NetworkParams":
        return NetworkParams._over(self.buffer.copy(), self.dims, self.n_classes, self.alpha)


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
    them views of time-major (T, n, d_l) buffers.  ``zbar`` is the
    time-averaged top-layer activity and ``logits`` the readout output.
    """

    inputs: np.ndarray  # (n, T, d_0)
    u: list[np.ndarray]
    z: list[np.ndarray]
    zbar: np.ndarray  # (n, d_L)
    logits: np.ndarray  # (n, n_classes)
    spec: SurrogateSpec

    @property
    def n_steps(self) -> int:
        return self.inputs.shape[1]


def forward(params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray) -> StateTrace:
    """Run the unrolled dynamics on a batch of frame sequences.

    ``frames`` is (n, T, d_0) or a single (T, d_0) sequence.  Smooth specs
    produce graded activations; the hard spec produces binary spikes via the
    step rule.  Raises :class:`InstabilityError` if any membrane state goes
    non-finite.
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim == 2:
        x = x[None, :, :]
    if x.ndim != 3:
        raise ValueError(f"frames must be (n, T, d0) or (T, d0), got shape {frames.shape}")
    d0 = params.layers[0].d_in
    if x.shape[2] != d0:
        raise ValueError(f"frame width {x.shape[2]} does not match input width {d0}")
    n, n_steps, _ = x.shape
    spike = functools.partial(surrogate_value, spec) if spec.family != HARD else hard_step
    alpha = params.alpha

    # Layer buffers are time-major (T, n, d), so every step works on
    # contiguous (n, d) blocks; the trace holds their (n, T, d) views.
    rows = x.reshape(n * n_steps, d0)  # the input frames' rows are sample-major
    us: list[np.ndarray] = []
    zs: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported below, as InstabilityError
        for idx, layer in enumerate(params.layers):
            d, theta = layer.d_out, layer.threshold
            drive = rows @ layer.weight.T
            drive += layer.bias
            drive = drive.reshape(n, n_steps, d).transpose(1, 0, 2) if idx == 0 else drive.reshape(n_steps, n, d)
            u = np.empty((n_steps, n, d))
            z = np.empty_like(u)
            a = np.empty((n, d))
            u_t = z_t = np.zeros((n, d))
            for t in range(n_steps):
                u_t = np.multiply(alpha, u_t, out=u[t])
                u_t += drive[t]
                u_t -= np.multiply(theta, z_t, out=a)
                z_t = spike(np.subtract(u_t, theta, out=a), out=z[t])
            del drive
            rows = z.reshape(n_steps * n, d)
            u, z = u.transpose(1, 0, 2), z.transpose(1, 0, 2)
            if not np.all(np.isfinite(u)):
                bad = np.argwhere(~np.isfinite(u))[0]
                raise InstabilityError(f"non-finite membrane state at layer {idx + 1}, step {bad[1] + 1}")
            us.append(u)
            zs.append(z)

    zbar = zs[-1].mean(axis=1)
    logits = zbar @ params.w_out.T + params.b_out
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
    """Block ``s`` of a 1-d canonical buffer, as a view of its shape."""
    return buffer[s[0]].reshape(s[1])


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
    m_b_out: float


def constant_bounds_extract(params: NetworkParams) -> ParamBounds:
    """Measure the norm caps realized by a concrete parameter set."""
    return ParamBounds(
        m_a=max(spectral_norm(l.weight).value for l in params.layers),
        m_b=max(float(np.linalg.norm(l.bias)) for l in params.layers),
        m_theta=max(float(np.max(l.threshold)) for l in params.layers),
        m_out=spectral_norm(params.w_out).value,
        m_b_out=float(np.linalg.norm(params.b_out)),
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


def _read_header(fh: BinaryIO, fmt: str, names: Sequence[str], what: str) -> tuple:
    """Unpack a fixed header ``fmt`` (one code per field) of a ``what`` file.

    A short file raises ``ValueError`` naming the first field it cuts off.
    """
    raw = fh.read(struct.calcsize(fmt))
    for i, name in enumerate(names):
        if struct.calcsize(fmt[: i + 2]) > len(raw):
            raise ValueError(f"{what} truncated in header field {name!r}")
    return struct.unpack(fmt, raw)


def _read_declared(fh: BinaryIO, n_bytes: int, field_name: str, what: str) -> bytes:
    """Read the ``n_bytes`` that header field ``field_name`` declares, checked against
    the file length first, so that absurd declared sizes are never allocated."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n_bytes > remaining:
        raise ValueError(f"{what} truncated: {field_name} declares {n_bytes} bytes, {remaining} remain")
    return fh.read(n_bytes)


def save_checkpoint(path: str, params: NetworkParams, spec: SurrogateSpec) -> None:
    """Write parameters and the spike rule to a deterministic binary file."""
    dims = params.dims
    header = struct.pack(
        _CHECKPOINT_HEADER[0],
        _CHECKPOINT_VERSION,
        _FAMILY_CODES[spec.family],
        spec.slope,
        params.alpha,
        params.n_layers,
        params.n_classes,
    )
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC + header + struct.pack(f"<{len(dims)}I", *dims))
        fh.write(params.buffer.astype("<f8").tobytes())


def load_checkpoint(path: str) -> tuple[NetworkParams, SurrogateSpec]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Declared sizes are checked against the file length before any read, so
    a truncated or inconsistent file raises ``ValueError`` naming the field.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        version, family_code, slope, alpha, n_layers, n_classes = _read_header(
            fh, *_CHECKPOINT_HEADER, "checkpoint"
        )
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        if family_code not in _CODE_FAMILIES:
            raise ValueError(f"unknown spike family code {family_code}")
        if n_layers < 1:
            raise ValueError("checkpoint field 'L' must be at least 1")
        if n_classes < 1:
            raise ValueError("checkpoint field 'C' must be at least 1")
        dims = struct.unpack(f"<{n_layers + 1}I", _read_declared(fh, 4 * (n_layers + 1), "L", "checkpoint"))
        if 0 in dims:
            raise ValueError(f"checkpoint field 'dims' must be positive, got {dims}")
        size = _layout(dims, n_classes)[2]
        raw = _read_declared(fh, 8 * size, "dims/C", "checkpoint")
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    buffer = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(buffer)):
        raise ValueError("checkpoint payload has non-finite entries")
    spec = SurrogateSpec(_CODE_FAMILIES[family_code], slope)
    return _admissible(NetworkParams._over(buffer, dims, n_classes, alpha)), spec
