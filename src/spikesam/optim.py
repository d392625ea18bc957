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
from typing import Callable, Iterator, Sequence

import numpy as np

from .bounds import assumptions_from, check_caps, compute_constants, convergence_rhs
from .events import measured_input_bound
from .gradients import Batch, backward
from .network import InstabilityError, NetworkParams, SurrogateSpec, threshold_slices

REUSED = "reused"
INDEPENDENT = "independent"
DELTA = 1e-12  # floor on the gradient norm in the ascent normalization
THETA_FLOOR = 1e-3  # thresholds are clamped here, so they stay strictly positive
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
        if self.eta <= 0.0:
            raise ValueError("step size must be positive")
        if self.rho < 0.0:
            raise ValueError("perturbation radius must be non-negative")
        if self.second_batch not in (REUSED, INDEPENDENT):
            raise ValueError(f"unknown second-batch policy {self.second_batch!r}")


@dataclass(frozen=True)
class StepReport:
    """What one update did: losses, gradient norms, perturbation size, passes."""

    loss_first: float
    grad_norm_first: float
    epsilon_norm: float
    loss_second: float | None
    grad_norm_second: float | None
    n_passes: int


def sam_perturbation(grad: np.ndarray, rho: float) -> np.ndarray:
    """Normalized ascent direction ``rho * g / (||g|| + DELTA)``.

    The floor ``DELTA`` makes the zero-gradient case well defined (returns
    the zero vector); the result's norm never exceeds ``rho``.
    """
    if rho < 0.0:
        raise ValueError("perturbation radius must be non-negative")
    if rho == 0.0:
        return np.zeros_like(grad)
    grad_norm = float(np.linalg.norm(grad))
    scale = rho / (grad_norm + DELTA)
    if not math.isfinite(scale):  # rho near the float range's top: normalize before scaling up
        return (grad / (grad_norm + DELTA)) * rho
    assert grad_norm * scale <= rho * (1.0 + 1e-12)  # ||eps||, with no entry of eps squared
    return grad * scale


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
    epsilon_norm = 0.0
    if g2 is not None:
        scale = cfg.rho / (grad_norm + DELTA)
        # as in sam_perturbation: a rho near the float range's top is applied after normalizing
        epsilon_norm = grad_norm * scale if math.isfinite(scale) else (grad_norm / (grad_norm + DELTA)) * cfg.rho
    return StepReport(
        loss_first=loss1,
        grad_norm_first=grad_norm,
        epsilon_norm=epsilon_norm,
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


class SastOptimizer:
    """The vector-level updates applied to networks.

    A step's first pass evaluates the network it starts from; each pass's
    gradient goes to :meth:`advance`, which gives the network the next pass
    evaluates or, after the step's last pass, the updated network.  Frozen
    thresholds receive no perturbation and no update.  The given network is
    never written to.
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg

    def advance(self, params: NetworkParams, g: np.ndarray, last: bool) -> NetworkParams:
        """The network a pass's raw gradient ``g`` leads to from ``params``, the step's start.

        Zeroes ``g``'s frozen threshold entries in place, then builds the
        perturbed point or, with ``last``, the updated one, with thresholds
        clamped at ``THETA_FLOOR``.  A non-finite entry raises
        :class:`InstabilityError`.
        """
        if not self.cfg.train_threshold:
            _freeze_thresholds(g, params)
        w = clamp_thresholds(_next_point(params.buffer, g, self.cfg, last), params)
        if not np.all(np.isfinite(w)):
            raise InstabilityError("parameter vector has non-finite entries")
        return NetworkParams._over(w, params.dims, params.n_classes, params.alpha)

    def _step(
        self, params: NetworkParams, spec: SurrogateSpec, batches: tuple[Batch, ...]
    ) -> tuple[NetworkParams, StepReport]:
        """One update with a pass on each batch: ``backward``, then :meth:`advance`."""
        net, passes = params, []
        for j, batch in enumerate(batches):
            bundle = backward(net, spec, batch)
            net = self.advance(params, bundle.grads.buffer, last=j == len(batches) - 1)
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

    ``batch_size = None`` runs full-batch (both passes see the whole set, so
    the gradient-noise level is exactly zero).  ``margin`` inflates the caps
    measured at the initial point so they can stay valid along the run; cap
    validity is re-checked on the fly and reported.
    """

    params0: NetworkParams
    spec: SurrogateSpec
    data: Batch
    batch_size: int | None = None
    margin: float = 2.0


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


def _chunk_stream(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless stream of disjoint index chunks, reshuffling each data pass."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            yield order[start : start + batch_size]


def _gradient_noise_sq(
    params: NetworkParams, task: ConvergenceTask, full: np.ndarray, train_threshold: bool, rng: np.random.Generator
) -> float:
    """Mean squared deviation of minibatch gradients at ``params`` from ``full``, its full-data gradient.

    The minibatches are one random partition of the task's data.
    """
    data, size = task.data, task.batch_size
    order = rng.permutation(data.n_samples)
    devs = []
    for start in range(0, data.n_samples - size + 1, size):
        idx = order[start : start + size]
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
    constant from caps measured at the start (inflated by ``task.margin``),
    the observed best loss as the lower-bound proxy, and a measured
    gradient-noise level (zero for full-batch runs, the largest partition
    estimate seen for minibatch runs — refreshed once per data pass).

    A step size above the admissible threshold ``1 / (4 beta)`` does not
    abort the run but is flagged, since the guarantee does not cover it.
    """
    data = task.data
    r_x = measured_input_bound(data.inputs)
    n_steps = data.inputs.shape[1]
    assume = assumptions_from(task.params0, task.spec, r_x, n_steps, margin=task.margin)
    constants = compute_constants(assume)
    beta = constants.beta
    eta_admissible = cfg.eta <= constants.max_stable_step * (1.0 + 1e-12)

    full_batch = task.batch_size is None or task.batch_size >= data.n_samples

    grad_traces: list[tuple[float, ...]] = []
    loss_traces: list[tuple[float, ...]] = []
    sigma_sq = 0.0
    loss_star = math.inf
    caps_held = True

    for seed in seeds:
        rng = np.random.default_rng(seed)
        opt = SastOptimizer(cfg)
        params = task.params0
        chunks = None
        steps_per_pass = 1
        if not full_batch:
            chunks = _chunk_stream(data.n_samples, task.batch_size, rng)
            pairs = 2 if cfg.second_batch == INDEPENDENT else 1
            steps_per_pass = max(1, data.n_samples // task.batch_size // pairs)
        grads_sq = []
        losses = []
        for k in range(n_updates):
            loss, g_full = _trained_gradient(params, task.spec, data, cfg.train_threshold)
            grads_sq.append(float(np.sum(g_full**2)))
            losses.append(loss)
            loss_star = min(loss_star, loss)
            if k % CAP_CHECK_EVERY == 0 and not check_caps(params, assume):
                caps_held = False
            if full_batch:
                batch = second = data
            else:
                if k % steps_per_pass == 0:
                    sigma_sq = max(
                        sigma_sq,
                        _gradient_noise_sq(params, task, g_full, cfg.train_threshold, rng),
                    )
                idx = next(chunks)
                batch = Batch(data.inputs[idx], data.labels[idx])
                if cfg.second_batch == INDEPENDENT:
                    idx2 = next(chunks)
                    second = Batch(data.inputs[idx2], data.labels[idx2])
                else:
                    second = batch
            params, _ = opt.sast_step(params, task.spec, batch, second)
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
