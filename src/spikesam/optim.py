"""Two-pass sharpness-aware updates and the convergence experiment.

One update: (1) gradient at the current point, (2) normalized ascent
perturbation of radius ``rho``, (3) gradient at the perturbed point on a
second minibatch, (4) plain SGD step with the second gradient — the update
the convergence analysis covers.  Setting ``rho = 0`` with a reused second
minibatch reproduces the plain baseline update exactly (the perturbed point
is the original point and the recomputed gradient is bit-identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bounds import INIT_CAP_MARGIN, assumptions_from, check_caps, compute_constants, convergence_rhs
from .events import measured_input_bound
from .gradients import Batch, backward
from .network import InstabilityError, NetworkParams, SurrogateSpec, threshold_slices

REUSED = "reused"
INDEPENDENT = "independent"
DELTA = 1e-12  # floor on the gradient norm in the ascent normalization
THETA_FLOOR = 1e-3  # thresholds are clamped here, so they stay strictly positive
NON_FINITE_POINT = "parameter vector has non-finite entries"  # why a run whose update leaves the float range diverges
CAP_CHECK_EVERY = 10  # convergence trials check the caps every this many updates, and at the end


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for baseline and two-pass training.

    ``eta`` is the SGD step size and ``rho`` the ascent radius.
    ``second_batch`` picks the minibatch policy for the second pass:
    ``"independent"`` (a fresh batch, matching the convergence analysis) or
    ``"reused"`` (the same batch, the common practical choice).  Thresholds
    train by default and are clamped at ``THETA_FLOOR``; the leak is never
    trained, as in the smoothness constant's parameter space.
    """

    eta: float = 0.5
    rho: float = 0.0
    second_batch: str = INDEPENDENT
    train_threshold: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < math.inf):  # NaN fails too
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (0.0 <= self.rho < math.inf):
            raise ValueError(f"rho must be non-negative and finite, got {self.rho}")
        if self.second_batch not in (REUSED, INDEPENDENT):
            raise ValueError(f"second_batch must be {INDEPENDENT!r} or {REUSED!r}, got {self.second_batch!r}")


@dataclass(frozen=True)
class StepReport:
    """What one update did: losses, gradient norms, perturbation size, passes."""

    loss_first: float
    grad_norm_first: float
    epsilon_norm: float
    loss_second: float | None
    grad_norm_second: float | None
    n_passes: int


def _ascent_scaled(x: float | np.ndarray, grad_norm: float, rho: float) -> float | np.ndarray:
    """``x * rho / (grad_norm + DELTA)``, for ``x`` the gradient or its norm.

    A ``rho`` near the float range's top overflows that scale, so ``x`` is
    then normalized before it is scaled up.
    """
    scale = rho / (grad_norm + DELTA)
    return x * scale if math.isfinite(scale) else (x / (grad_norm + DELTA)) * rho


def sam_perturbation(grad: np.ndarray, rho: float) -> np.ndarray:
    """Normalized ascent direction ``rho * g / (||g|| + DELTA)``.

    The floor ``DELTA`` makes the zero-gradient case well defined (returns
    the zero vector); the result's norm never exceeds ``rho``.
    """
    if not (0.0 <= rho < math.inf):  # NaN fails too
        raise ValueError(f"perturbation radius must be non-negative and finite, got {rho}")
    if rho == 0.0:
        return np.zeros_like(grad)
    grad_norm = float(np.linalg.norm(grad))
    assert _ascent_scaled(grad_norm, grad_norm, rho) <= rho * (1.0 + 1e-12)  # ||eps||, with no entry of eps squared
    return _ascent_scaled(grad, grad_norm, rho)


def epoch_chunks(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's minibatches over ``n`` samples: the consecutive full
    ``batch_size`` chunks of one ``rng.permutation(n)``; a partial last chunk is dropped."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]


def step_plan(cfg: OptimizerConfig, n_chunks: int) -> list[tuple[int, ...]]:
    """The chunks each step of an epoch over ``n_chunks`` chunks reads, in order.

    One chunk per step at ``rho = 0``; the pair ``(k, k + 1)`` under the
    independent second-batch policy, so an odd last chunk goes unread; and
    ``(k, k)`` under the reused policy.
    """
    if cfg.rho == 0.0:
        return [(k,) for k in range(n_chunks)]
    if cfg.second_batch == INDEPENDENT:
        return [(k, k + 1) for k in range(0, n_chunks - 1, 2)]
    return [(k, k) for k in range(n_chunks)]


LossGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _next_point(w: np.ndarray, g: np.ndarray, cfg: OptimizerConfig, last: bool) -> np.ndarray:
    """The point a pass's gradient ``g`` leads to from ``w``: the perturbed
    point ``w + eps`` of the ascent, or with ``last`` the SGD step."""
    return w - cfg.eta * g if last else w + sam_perturbation(g, cfg.rho)


def _report(
    cfg: OptimizerConfig, loss1: float, g1: np.ndarray, loss2: float | None = None, g2: np.ndarray | None = None
) -> StepReport:
    """The report of a step whose passes gave ``(loss1, g1)`` and, with two passes, ``(loss2, g2)``."""
    grad_norm = float(np.linalg.norm(g1))
    return StepReport(
        loss_first=loss1,
        grad_norm_first=grad_norm,
        epsilon_norm=0.0 if g2 is None else _ascent_scaled(grad_norm, grad_norm, cfg.rho),
        loss_second=loss2,
        grad_norm_second=None if g2 is None else float(np.linalg.norm(g2)),
        n_passes=1 if g2 is None else 2,
    )


def two_pass_update(
    w: np.ndarray,
    loss_grad: LossGrad,
    cfg: OptimizerConfig,
    loss_grad_second: LossGrad | None = None,
) -> tuple[np.ndarray, StepReport]:
    """One sharpness-aware update on a plain parameter vector.

    ``loss_grad`` evaluates the first-pass objective; ``loss_grad_second``
    (default: the same function) evaluates the second pass at the perturbed
    point.  Returns the new vector and a report.
    """
    loss1, g1 = loss_grad(w)
    loss2, g2 = (loss_grad_second or loss_grad)(_next_point(w, g1, cfg, last=False))
    return _next_point(w, g2, cfg, last=True), _report(cfg, loss1, g1, loss2, g2)


def single_pass_update(w: np.ndarray, loss_grad: LossGrad, cfg: OptimizerConfig) -> tuple[np.ndarray, StepReport]:
    """One plain baseline update on a parameter vector."""
    loss1, g1 = loss_grad(w)
    return _next_point(w, g1, cfg, last=True), _report(cfg, loss1, g1)


def _freeze_thresholds(g: np.ndarray, params: NetworkParams) -> np.ndarray:
    """``g`` with its threshold entries zeroed in place."""
    for sl in threshold_slices(params):
        g[sl] = 0.0
    return g


def _trained_gradient(
    params: NetworkParams, spec: SurrogateSpec, batch: Batch, train_threshold: bool
) -> tuple[float, np.ndarray]:
    """Loss and canonical gradient, its frozen threshold entries zeroed in place."""
    bundle = backward(params, spec, batch)
    g = bundle.grads.buffer
    return bundle.loss, g if train_threshold else _freeze_thresholds(g, params)


def clamp_thresholds(w: np.ndarray, params: NetworkParams) -> np.ndarray:
    """``w``, a vector in ``params``' layout, with its thresholds clamped at ``THETA_FLOOR`` in place."""
    for sl in threshold_slices(params):
        np.maximum(w[sl], THETA_FLOOR, out=w[sl])
    return w


def next_points(
    w: np.ndarray,
    g: np.ndarray,
    cfgs: Sequence[OptimizerConfig],
    last: Sequence[bool],
    thresholds: Sequence[slice],
    out: np.ndarray,
) -> np.ndarray:
    """Write each row's next point to ``out``; whether each row of it is finite.

    Row ``m`` of the (M, P) arrays is one run's step: ``w[m]`` its start,
    ``g[m]`` the raw gradient of a pass under ``cfgs[m]``, and ``last[m]``
    whether that pass is the step's last.  A row of frozen thresholds has
    its ``thresholds`` entries of ``g`` zeroed in place.  An ascent row gets
    the perturbed point ``w + eps`` (:func:`sam_perturbation` of its own
    row, so each norm is a lone step's 1-D one: a reduction over the row
    axis would round differently); a last-pass row gets the SGD step
    ``w - eta g``, taken as ``w + (-eta) g``, which is the same bit for bit.
    Thresholds are clamped at ``THETA_FLOOR``.  Each row is thus
    :func:`_next_point` then :func:`clamp_thresholds` of its own arguments.
    ``out`` must not overlap ``w`` or ``g``.
    """
    steps = np.zeros((len(cfgs), 1))
    eps = {}
    for m, (cfg, is_last) in enumerate(zip(cfgs, last)):
        if not cfg.train_threshold:
            for sl in thresholds:
                g[m, sl] = 0.0
        if is_last:
            steps[m] = -cfg.eta
        else:
            eps[m] = sam_perturbation(g[m], cfg.rho)
    if len(eps) < len(cfgs):
        np.multiply(g, steps, out=out)
    for m, e in eps.items():
        out[m] = e
    np.add(w, out, out=out)
    for sl in thresholds:
        theta = out[:, sl]
        np.maximum(theta, THETA_FLOOR, out=theta)
    return np.logical_and.reduce(np.isfinite(out), axis=-1)


class SastOptimizer:
    """The vector-level updates applied to networks.

    A step's first pass evaluates the network it starts from; each pass's
    gradient leads, through :func:`next_points` on one row, to the network
    the next pass evaluates or, after the step's last pass, the updated
    network.  Frozen thresholds receive no perturbation and no update.  The
    given network is never written to.
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg

    def _point(self, params: NetworkParams, g: np.ndarray, last: bool) -> NetworkParams:
        """The network a pass's raw gradient ``g`` leads to from ``params``, the
        step's start: :func:`next_points` with one row.  A non-finite entry
        raises :class:`InstabilityError`."""
        out = np.empty_like(params.buffer)
        row = np.newaxis  # the network's buffer as the one row of an M = 1 group
        if not next_points(params.buffer[row], g[row], (self.cfg,), (last,), threshold_slices(params), out[row])[0]:
            raise InstabilityError(NON_FINITE_POINT)
        return NetworkParams._over(out, params.dims, params.n_classes, params.alpha)

    def _step(
        self, params: NetworkParams, spec: SurrogateSpec, batches: tuple[Batch, ...]
    ) -> tuple[NetworkParams, StepReport]:
        """One update with a pass on each batch: ``backward``, then :meth:`_point`."""
        net, passes = params, []
        for j, batch in enumerate(batches):
            bundle = backward(net, spec, batch)
            net = self._point(params, bundle.grads.buffer, last=j == len(batches) - 1)
            passes += [bundle.loss, bundle.grads.buffer]
        return net, _report(self.cfg, *passes)

    def sast_step(
        self,
        params: NetworkParams,
        spec: SurrogateSpec,
        batch: Batch,
        second_batch: Batch | None = None,
    ) -> tuple[NetworkParams, StepReport]:
        """One two-pass update; with ``rho = 0`` prefer :meth:`baseline_step`.

        The second pass reads ``second_batch`` under the independent policy
        and ``batch`` under the reused one, which ignores ``second_batch``.
        """
        if self.cfg.second_batch == REUSED:
            second_batch = batch
        elif second_batch is None:
            raise ValueError("independent second-batch policy needs a second batch")
        return self._step(params, spec, (batch, second_batch))

    def baseline_step(
        self, params: NetworkParams, spec: SurrogateSpec, batch: Batch
    ) -> tuple[NetworkParams, StepReport]:
        """One single-pass update (ignores ``rho``)."""
        return self._step(params, spec, (batch,))


# ---------------------------------------------------------------------------
# Convergence experiment
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceTask:
    """A fixed finite-sum objective for the convergence experiment.

    ``batch_size = None``, or one that covers the data, runs full-batch
    (both passes see the whole set, so the gradient-noise level is exactly
    zero).
    """

    params0: NetworkParams
    spec: SurrogateSpec
    data: Batch
    batch_size: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Assembled two sides of the mean-squared-gradient guarantee."""

    lhs: float
    rhs: float
    rhs_descent: float
    rhs_perturb: float
    rhs_noise: float
    beta: float
    eta: float
    rho: float
    sigma_sq: float
    loss0: float
    loss_star: float
    n_updates: int
    n_seeds: int
    eta_admissible: bool
    caps_held: bool
    grad_sq_traces: tuple[tuple[float, ...], ...]
    loss_traces: tuple[tuple[float, ...], ...]

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def _gradient_noise_sq(
    params: NetworkParams, task: ConvergenceTask, full: np.ndarray, train_threshold: bool, rng: np.random.Generator
) -> float:
    """Mean squared deviation of minibatch gradients at ``params`` from ``full``, its full-data gradient.

    The minibatches are one epoch's chunks of the task's data.
    """
    data = task.data
    devs = []
    for idx in epoch_chunks(data.n_samples, task.batch_size, rng):
        _, g = _trained_gradient(params, task.spec, Batch(data.inputs[idx], data.labels[idx]), train_threshold)
        devs.append(float(np.sum((g - full) ** 2)))
    return float(np.mean(devs))


def convergence_trial(
    task: ConvergenceTask,
    cfg: OptimizerConfig,
    n_updates: int,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> ConvergenceReport:
    """Run sharpness-aware training and assemble the convergence inequality.

    The left side averages the full-objective squared gradient norm over
    iterates and seeds; the right side uses the closed-form smoothness
    constant from caps measured at the start (inflated by
    ``INIT_CAP_MARGIN``), the observed best loss as the lower-bound proxy,
    and a measured gradient-noise level (zero for full-batch runs, the
    largest partition estimate seen for minibatch runs).

    A full-batch update takes the iterate's gradient as its first pass, so
    it runs one more pass at ``rho > 0`` and none at ``rho = 0``, the
    single-pass step.  A minibatch run walks training's schedule: each
    epoch refreshes the noise estimate, draws :func:`epoch_chunks` and runs
    one step of :func:`step_plan` per update; an epoch that plans no step
    is refused.

    A step size above the admissible threshold ``1 / (4 beta)`` does not
    abort the run but is flagged, since the guarantee does not cover it.
    """
    data = task.data
    if n_updates < 1:
        raise ValueError(f"n_updates must be at least 1, got {n_updates}")
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    full_batch = task.batch_size is None or task.batch_size >= data.n_samples
    plan = None if full_batch else step_plan(cfg, data.n_samples // task.batch_size)
    if not (full_batch or plan):
        raise ValueError(f"batch_size {task.batch_size} leaves no step in an epoch of the {data.n_samples}-sample task")
    r_x = measured_input_bound(data.inputs)
    n_steps = data.inputs.shape[1]
    assume = assumptions_from(task.params0, task.spec, r_x, n_steps, margin=INIT_CAP_MARGIN)
    constants = compute_constants(assume)
    beta = constants.beta
    eta_admissible = cfg.eta <= constants.max_stable_step * (1.0 + 1e-12)

    grad_traces: list[tuple[float, ...]] = []
    loss_traces: list[tuple[float, ...]] = []
    sigma_sq = 0.0
    loss_star = math.inf
    caps_held = True

    for seed in seeds:
        rng = np.random.default_rng(seed)
        opt = SastOptimizer(cfg)
        params = task.params0
        grads_sq = []
        losses = []
        for k in range(n_updates):
            loss, g_full = _trained_gradient(params, task.spec, data, cfg.train_threshold)
            grads_sq.append(float(np.sum(g_full**2)))
            losses.append(loss)
            loss_star = min(loss_star, loss)
            if k % CAP_CHECK_EVERY == 0 and not check_caps(params, assume):
                caps_held = False
            if full_batch:  # the iterate's gradient is the step's first pass
                g = g_full
                if cfg.rho > 0.0:
                    g = backward(opt._point(params, g, last=False), task.spec, data).grads.buffer
                params = opt._point(params, g, last=True)
            else:
                if k % len(plan) == 0:
                    sigma_sq = max(sigma_sq, _gradient_noise_sq(params, task, g_full, cfg.train_threshold, rng))
                    chunks = epoch_chunks(data.n_samples, task.batch_size, rng)
                batches = tuple(Batch(data.inputs[chunks[i]], data.labels[chunks[i]]) for i in plan[k % len(plan)])
                params, _ = opt._step(params, task.spec, batches)
        final = backward(params, task.spec, data)
        loss_star = min(loss_star, final.loss)
        if not check_caps(params, assume):
            caps_held = False
        grad_traces.append(tuple(grads_sq))
        loss_traces.append(tuple(losses))

    lhs = float(np.mean([np.mean(t) for t in grad_traces]))
    loss0 = float(np.mean([t[0] for t in loss_traces]))
    rhs, descent, perturb, noise = convergence_rhs(
        loss0, loss_star, cfg.eta, n_updates, beta, cfg.rho, sigma_sq
    )
    return ConvergenceReport(
        lhs=lhs,
        rhs=rhs,
        rhs_descent=descent,
        rhs_perturb=perturb,
        rhs_noise=noise,
        beta=beta,
        eta=cfg.eta,
        rho=cfg.rho,
        sigma_sq=sigma_sq,
        loss0=loss0,
        loss_star=loss_star,
        n_updates=n_updates,
        n_seeds=len(seeds),
        eta_admissible=eta_admissible,
        caps_held=caps_held,
        grad_sq_traces=tuple(grad_traces),
        loss_traces=tuple(loss_traces),
    )
