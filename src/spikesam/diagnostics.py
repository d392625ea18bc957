"""Empirical counterparts of the closed-form quantities.

Everything here measures, on concrete checkpoints and data, what the theory
caps from above: contraction factors, local gradient-Lipschitz behavior,
worst nearby loss, smooth-to-hard transfer, and the per-sample link between
parameter-space and input-space gradients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .bounds import (
    assumptions_from,
    compute_constants,
    contraction_gamma,
    input_lipschitz,
    loss_stability_bound,
    sam_upper_bound,
    state_bounds,
)
from .gradients import (
    Batch,
    _check_labels,
    backward,
    batch_loss,
    cross_entropy,
    logit_jacobians,
)
from .network import (
    HARD_MODE,
    SURROGATE_MODE,
    InstabilityError,
    NetworkParams,
    SurrogateSpec,
    forward,
    init_network,
    mode_spec,
    parameter_vector,
    replace_parameters,
    stack,
    threshold_slices,
)
from .optim import THETA_FLOOR, clamp_thresholds


@dataclass(frozen=True)
class SampleStats:
    """Location and spread of a sample of scalars."""

    mean: float
    std: float
    median: float
    iqr: float

    @staticmethod
    def from_values(values: np.ndarray | Sequence[float]) -> "SampleStats":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("cannot summarize an empty sample")
        q25, q75 = np.percentile(v, [25.0, 75.0])
        return SampleStats(
            mean=float(v.mean()),
            std=float(v.std(ddof=1)) if v.size > 1 else 0.0,
            median=float(np.median(v)),
            iqr=float(q75 - q25),
        )


# ---------------------------------------------------------------------------
# Contraction and smoothness diagnostics
# ---------------------------------------------------------------------------


def observed_contraction(
    checkpoints: Sequence[NetworkParams], spec: SurrogateSpec
) -> tuple[float, float]:
    """Measured ``(m_theta_hat, gamma_hat)`` over a run's checkpoints.

    ``gamma_hat = alpha + m_theta_hat * b1`` uses the largest threshold seen
    anywhere in the run; below 1 means the perturbation recursion stayed
    contractive throughout.
    """
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    alphas = {p.alpha for p in checkpoints}
    if len(alphas) != 1:
        raise ValueError("checkpoints disagree on the leak; contraction factor undefined")
    m_theta_hat = max(float(np.max(l.threshold)) for p in checkpoints for l in p.layers)
    gamma_hat = checkpoints[0].alpha + m_theta_hat * spec.derivative_bound
    return m_theta_hat, gamma_hat


@dataclass(frozen=True)
class SecantReport:
    """Largest observed gradient secant slope around a point."""

    beta_sec: float
    radii: tuple[float, ...]
    per_radius: tuple[float, ...]
    n_probes: int


def secant_smoothness_from_grad(
    grad_at: Callable[[np.ndarray], np.ndarray],
    w0: np.ndarray,
    radii: Sequence[float],
    n_probes: int = 5,
    seed: int = 0,
    admit: Callable[[np.ndarray], np.ndarray] = lambda w: w,
) -> SecantReport:
    """Max of ``||g(w0 + d) - g(w0)|| / ||d||`` over random probes per radius.

    A valid lower bound on any global gradient-Lipschitz constant, so it can
    only falsify (never certify) a claimed smoothness level.  ``admit`` maps
    a probe point into the function's domain, returning it as is when it is
    already there; a moved probe's slope divides by the step it took.
    """
    rng = np.random.default_rng(seed)
    g0 = grad_at(w0)
    per_radius = []
    for r in radii:
        if r <= 0.0:
            raise ValueError("probe radii must be positive")
        worst = 0.0
        for _ in range(n_probes):
            d = rng.standard_normal(w0.size)
            d *= r / np.linalg.norm(d)
            w = w0 + d
            p = admit(w)
            step = r if p is w else float(np.linalg.norm(p - w0))
            worst = max(worst, float(np.linalg.norm(grad_at(p) - g0)) / step)
        per_radius.append(worst)
    return SecantReport(
        beta_sec=max(per_radius),
        radii=tuple(float(r) for r in radii),
        per_radius=tuple(per_radius),
        n_probes=n_probes,
    )


def secant_smoothness(
    params: NetworkParams,
    spec: SurrogateSpec,
    batch: Batch,
    radii_rel: Sequence[float] = (1e-3, 1e-2, 1e-1),
    n_probes: int = 5,
    seed: int = 0,
) -> SecantReport:
    """Secant smoothness of the batch objective around ``params``.

    Probe radii are relative to the canonical parameter-vector norm (leak
    excluded, matching the smoothness constant's parameter space).
    """
    w0 = parameter_vector(params)
    scale = float(np.linalg.norm(w0))
    if scale == 0.0:
        raise ValueError("parameter vector is zero; relative radii are undefined")

    def grad_at(w: np.ndarray) -> np.ndarray:
        return backward(replace_parameters(params, w), spec, batch).grads.vector()

    return secant_smoothness_from_grad(
        grad_at, w0, [r * scale for r in radii_rel], n_probes=n_probes, seed=seed, admit=_floored(params)
    )


def _floored(params: NetworkParams) -> Callable[[np.ndarray], np.ndarray]:
    """A probe point with its thresholds clamped at ``THETA_FLOOR``, as the
    optimizer's points are, or the point itself if none lies below.

    From a start whose thresholds are at least the floor, the clamp only
    shortens a probe's step, so the probe stays inside its ball.
    """
    slices = threshold_slices(params)

    def admit(w: np.ndarray) -> np.ndarray:
        if all(np.logical_and.reduce(w[sl] >= THETA_FLOOR, axis=None) for sl in slices):
            return w
        return clamp_thresholds(w.copy(), params)

    return admit


@dataclass(frozen=True)
class GapReport:
    """Observed worst loss increase within a perturbation ball."""

    gap: float
    rho: float
    n_probes: int
    ascent_gap: float  # increase along the normalized gradient direction


def sam_gap_from_loss(
    loss_at: Callable[[np.ndarray], float],
    grad0: np.ndarray,
    w0: np.ndarray,
    rho: float,
    n_probes: int = 64,
    seed: int = 0,
) -> GapReport:
    """Largest loss increase over radius-``rho`` probes around ``w0``.

    Probes are uniform directions on the sphere plus the normalized gradient
    direction.  This estimates the within-ball worst case from below; the
    closed-form cap must dominate it whenever the cap is valid.
    """
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    rng = np.random.default_rng(seed)
    base = loss_at(w0)
    ascent_gap = 0.0
    worst = 0.0
    g_norm = float(np.linalg.norm(grad0))
    if g_norm > 0.0 and rho > 0.0:
        ascent_gap = loss_at(w0 + grad0 * (rho / g_norm)) - base
        worst = max(worst, ascent_gap)
    for _ in range(n_probes):
        d = rng.standard_normal(w0.size)
        d *= rho / np.linalg.norm(d)
        worst = max(worst, loss_at(w0 + d) - base)
    return GapReport(gap=worst, rho=rho, n_probes=n_probes, ascent_gap=ascent_gap)


def sam_gap(
    params: NetworkParams,
    spec: SurrogateSpec,
    batch: Batch,
    rho: float,
    n_probes: int = 64,
    seed: int = 0,
) -> GapReport:
    """Observed sharpness gap of the batch objective at ``params``."""
    bundle = backward(params, spec, batch)
    admit = _floored(params)

    def loss_at(w: np.ndarray) -> float:
        return batch_loss(replace_parameters(params, admit(w)), spec, batch)

    return sam_gap_from_loss(
        loss_at, bundle.grads.vector(), parameter_vector(params), rho, n_probes=n_probes, seed=seed
    )


# ---------------------------------------------------------------------------
# Transfer and evaluation
# ---------------------------------------------------------------------------


# Samples x models in one stacked evaluation forward.  At 128 samples a smooth
# forward's time per model is flat from one model to four, while its working
# set grows with every model; 256 keeps it at a lone 256-sample forward's.
_EVAL_ROWS = 256


def accuracies(
    nets: Sequence[NetworkParams], spec: SurrogateSpec, frames: np.ndarray, labels: np.ndarray, mode: str
) -> list[float]:
    """Each network's classification accuracy under the requested spike rule,
    from stacked lean forwards over groups of at most ``_EVAL_ROWS`` samples
    x models.  If a group's forward raises, each of its networks runs alone,
    so a network raises only its own ``InstabilityError``.  A label the
    networks cannot emit, or a label count other than the sequence count,
    is refused before any forward."""
    n_seqs = len(frames) if np.ndim(frames) == 3 else 1
    if np.shape(labels) != (n_seqs,):
        raise ValueError(f"labels must be one per sequence: {n_seqs} sequences, labels of shape {np.shape(labels)}")
    _check_labels(labels, nets[0].n_classes)
    rest = (spec, frames, labels, mode)
    if len(nets) > 1 and len(nets) * len(frames) > _EVAL_ROWS:
        group = max(1, _EVAL_ROWS // len(frames))
        return [acc for i in range(0, len(nets), group) for acc in accuracies(nets[i : i + group], *rest)]
    try:
        logits = forward(stack(nets), mode_spec(spec, mode), frames, keep_states=False).logits
    except InstabilityError:
        if len(nets) == 1:
            raise
        return [acc for net in nets for acc in accuracies([net], *rest)]
    hits = (logits.argmax(axis=-1) == np.asarray(labels)).reshape(len(nets), -1)
    return (np.add.reduce(hits, axis=-1, dtype=np.float64) / hits.shape[-1]).tolist()  # the mean's sum and division


def accuracy(
    params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray, labels: np.ndarray, mode: str
) -> float:
    """Classification accuracy under the requested spike rule."""
    return accuracies([params], spec, frames, labels, mode)[0]


# ---------------------------------------------------------------------------
# Per-sample mechanism link
# ---------------------------------------------------------------------------


def gram_min_singular(j_w: np.ndarray) -> float:
    """Smallest singular value of a wide Jacobian via its small Gram matrix."""
    gram = j_w @ j_w.T
    lam_min = float(np.linalg.eigvalsh(gram)[0])
    return math.sqrt(max(lam_min, 0.0))


# A sample is conditioned when its parameter Jacobian's smallest singular
# value exceeds SIGMA_TOL; its bound then holds up to a relative REL_SLACK.
SIGMA_TOL = 1e-6
REL_SLACK = 1e-9


@dataclass(frozen=True)
class MechanismRecord:
    """One sample's parameter-to-input gradient link.

    ``conditioned`` requires the parameter Jacobian's smallest singular
    value to clear ``SIGMA_TOL``; only then is the bound
    ``||grad_x|| <= (||J_x|| / sigma_min) * ||grad_w||`` asserted.
    """

    param_grad_norm: float
    input_grad_norm: float
    sigma_min: float
    jx_norm: float
    conditioned: bool
    bound: float
    holds: bool


def mechanism_check(params: NetworkParams, spec: SurrogateSpec, frames: np.ndarray, label: int) -> MechanismRecord:
    """Check the conditioned gradient link on one sample.

    Both gradients are assembled from the same logit Jacobians used for the
    conditioning constants (``grad = J^T v`` with ``v`` the logit-space
    loss gradient), so any violation beyond the slack falsifies the
    inequality itself rather than numerical bookkeeping.
    """
    j_w, j_x, logits = logit_jacobians(params, spec, frames)
    _, v, _ = cross_entropy(logits, label)
    grad_w = j_w.T @ v
    grad_x = j_x.T @ v
    sigma_min = gram_min_singular(j_w)
    jx_norm = float(np.linalg.svd(j_x, compute_uv=False)[0]) if j_x.any() else 0.0
    param_norm = float(np.linalg.norm(grad_w))
    input_norm = float(np.linalg.norm(grad_x))
    conditioned = sigma_min > SIGMA_TOL
    bound = jx_norm / sigma_min * param_norm if conditioned else math.inf
    holds = (not conditioned) or input_norm <= bound * (1.0 + REL_SLACK) + 1e-15
    return MechanismRecord(
        param_grad_norm=param_norm,
        input_grad_norm=input_norm,
        sigma_min=sigma_min,
        jx_norm=jx_norm,
        conditioned=conditioned,
        bound=bound,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# Assembled per-checkpoint report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    """One checkpoint's empirical health snapshot."""

    m_theta_hat: float
    gamma_hat: float
    beta_sec: float
    sam_gap: float
    surrogate_acc: float
    hard_acc: float
    transfer_gap: float
    n_unconditioned: int
    mechanism_violations: int
    param_grad_norm: SampleStats
    input_grad_norm: SampleStats
    sigma_min: SampleStats

    def to_row(self) -> dict[str, float | int]:
        """Flat mapping for one CSV row: the fields in order, each statistic
        as four ``<field>_<stat>`` columns."""
        row: dict[str, float | int] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SampleStats):
                row.update({f"{f.name}_{stat}": v for stat, v in asdict(value).items()})
            else:
                row[f.name] = value
        return row


def diagnose(
    params: NetworkParams,
    spec: SurrogateSpec,
    frames: np.ndarray,
    labels: np.ndarray,
    rho: float,
) -> DiagnosticsReport:
    """Full diagnostic sweep of one checkpoint on held-out data.  Every
    sample gets one mechanism check, and the gradient-norm and conditioning
    statistics are those of its record."""
    if len(frames) == 0:
        raise ValueError("diagnose needs at least one sample")
    labels = np.asarray(labels, dtype=np.int64)
    batch = Batch(frames, labels)
    m_theta_hat, gamma_hat = observed_contraction([params], spec)
    secant = secant_smoothness(params, spec, batch)
    gap = sam_gap(params, spec, batch, rho)
    acc_s = accuracy(params, spec, frames, labels, SURROGATE_MODE)
    acc_h = accuracy(params, spec, frames, labels, HARD_MODE)
    records = [mechanism_check(params, spec, x, int(y)) for x, y in zip(batch.inputs, labels)]
    return DiagnosticsReport(
        m_theta_hat=m_theta_hat,
        gamma_hat=gamma_hat,
        beta_sec=secant.beta_sec,
        sam_gap=gap.gap,
        surrogate_acc=acc_s,
        hard_acc=acc_h,
        transfer_gap=acc_s - acc_h,
        n_unconditioned=sum(not r.conditioned for r in records),
        mechanism_violations=sum(r.conditioned and not r.holds for r in records),
        param_grad_norm=SampleStats.from_values([r.param_grad_norm for r in records]),
        input_grad_norm=SampleStats.from_values([r.input_grad_norm for r in records]),
        sigma_min=SampleStats.from_values([r.sigma_min for r in records]),
    )


# ---------------------------------------------------------------------------
# Falsification battery for the closed-form bounds
# ---------------------------------------------------------------------------


def bound_battery(n_configs: int, n_probes: int = 64, seed: int = 77) -> dict[str, int]:
    """Count closed-form bounds that random configurations break.

    Each configuration draws a leak, threshold, surrogate slope and weight
    scale, then probes (a) the membrane-state caps, (b) input-Lipschitz
    secants on the logits, (c) the first-order two-pass ascent cap at
    ``n_probes`` directions and (d) loss stability under a bounded input
    perturbation.  ``inadmissible`` counts configurations whose contraction
    factor is not below one.  All counts are zero when every bound holds;
    fewer than one configuration or probe is refused, since it would check
    nothing and still read zero.
    """
    for name, value in (("n_configs", n_configs), ("n_probes", n_probes)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = np.random.default_rng(seed)
    counts = {"inadmissible": 0, "state": 0, "input_lip": 0, "sam": 0, "stability": 0}
    for trial in range(n_configs):
        dims = [(4, 3), (5, 4), (4, 4, 3)][trial % 3]
        alpha = float(rng.uniform(0.2, 0.6))
        theta = float(rng.uniform(0.1, 0.3))
        slope = float(rng.uniform(0.5, 2.0))
        params = init_network(
            dims, 2, alpha=alpha, theta=theta,
            weight_scale=float(rng.uniform(0.3, 1.0)),
            seed=np.random.default_rng(3000 + trial),
        )
        for layer in params.layers:  # generic point: caps must not sit at zero
            layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
        spec = SurrogateSpec("arctan", slope)
        n_steps = int(rng.integers(2, 6))
        r_x = float(rng.uniform(0.5, 1.5))
        assume = assumptions_from(params, spec, r_x, n_steps, margin=1.0)
        if not contraction_gamma(assume)[1]:
            counts["inadmissible"] += 1

        def draw_frames(n):
            x = rng.standard_normal((n, n_steps, dims[0]))
            norms = np.sqrt((x**2).sum(axis=2, keepdims=True))
            return x * (r_x / np.maximum(norms, 1e-12)) * rng.random((n, n_steps, 1))

        # (a) membrane-state caps
        x = draw_frames(4)
        r_u = state_bounds(assume)
        for layer_idx, u in enumerate(forward(params, spec, x).u):
            if float(np.sqrt((u**2).sum(axis=2)).max()) > r_u[layer_idx] * (1 + 1e-12):
                counts["state"] += 1

        # (b) input-Lipschitz secants on the logits
        l_x = input_lipschitz(assume)
        for _ in range(3):
            x1, x2 = draw_frames(1), draw_frames(1)
            d_logits = float(np.linalg.norm(
                forward(params, spec, x1, keep_states=False).logits
                - forward(params, spec, x2, keep_states=False).logits))
            dist = float(np.sqrt(((x1 - x2) ** 2).sum()))
            if d_logits > l_x * dist * (1 + 1e-9) + 1e-12:
                counts["input_lip"] += 1

        # (c) two-pass ascent cap at n_probes directions
        labels = rng.integers(0, 2, size=4).astype(np.int64)
        batch = Batch(x, labels)
        rho = 0.05
        beta = compute_constants(assumptions_from(params, spec, r_x, n_steps, margin=1.5)).beta
        bundle = backward(params, spec, batch)
        w0 = parameter_vector(params)
        cap = sam_upper_bound(
            bundle.loss, float(np.linalg.norm(bundle.grads.vector())), rho, beta
        )
        for _ in range(n_probes):
            d = rng.standard_normal(w0.size)
            d *= rho / np.linalg.norm(d)
            if batch_loss(replace_parameters(params, w0 + d), spec, batch) > cap * (1 + 1e-12):
                counts["sam"] += 1

        # (d) loss stability under bounded input perturbation
        x_tilde = x + 0.1 * rng.standard_normal(x.shape)
        norms = np.sqrt((x_tilde**2).sum(axis=2, keepdims=True))
        x_tilde = x_tilde * np.minimum(1.0, r_x / np.maximum(norms, 1e-12))
        gap = abs(batch_loss(params, spec, batch) - batch_loss(params, spec, Batch(x_tilde, labels)))
        worst_dist = max(float(np.sqrt(((x[i] - x_tilde[i]) ** 2).sum())) for i in range(4))
        if gap > loss_stability_bound(l_x, worst_dist) * (1 + 1e-9) + 1e-12:
            counts["stability"] += 1
    return counts
