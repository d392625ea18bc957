"""Closed-form constants and bounds for the smooth unrolled dynamics.

Every quantity here is a deterministic function of a small set of caps on
the data and parameters (an :class:`AssumptionSet`).  The constants are
deliberately conservative: their role is to make depth, temporal gain, and
spike-slope dependence explicit and to give falsifiable inequalities, not to
predict observed curvature tightly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import NetworkParams, SurrogateSpec, constant_bounds_extract


@dataclass(frozen=True)
class AssumptionSet:
    """Caps under which the closed-form constants are valid.

    ``r_x`` bounds every input frame's 2-norm, ``m_a``/``m_b``/``m_theta``
    cap layer weight spectral norms, bias 2-norms, and threshold entries,
    ``m_out`` caps the readout spectral norm.  ``b1``/``b2`` are the global
    first/second derivative bounds of the spike surrogate, ``dims`` are the
    widths (d_0, ..., d_L), and ``n_steps`` is the unroll length T.
    """

    r_x: float
    m_a: float
    m_b: float
    m_theta: float
    m_out: float
    alpha: float
    b1: float
    b2: float
    n_steps: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"leak alpha must lie in (0, 1), got {self.alpha}")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")
        if len(self.dims) < 2:
            raise ValueError("dims must hold the input width and at least one layer width")
        for name in ("r_x", "m_a", "m_b", "m_theta", "m_out", "b1", "b2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1


def assumptions_from(
    params: NetworkParams, spec: SurrogateSpec, r_x: float, n_steps: int, margin: float = 1.0
) -> AssumptionSet:
    """Measure caps from a concrete network, optionally inflated by ``margin``.

    ``margin > 1`` leaves headroom so the caps stay valid while training
    moves the parameters; validity should still be re-checked post hoc.
    """
    if margin < 1.0:
        raise ValueError("margin below 1 would understate the measured norms")
    pb = constant_bounds_extract(params)
    return AssumptionSet(
        r_x=r_x,
        m_a=pb.m_a * margin,
        m_b=pb.m_b * margin,
        m_theta=pb.m_theta * margin,
        m_out=pb.m_out * margin,
        alpha=params.alpha,
        b1=spec.derivative_bound,
        b2=spec.curvature_bound,
        n_steps=n_steps,
        dims=params.dims,
    )


def geometric_factor(ratio: float, n_steps: int) -> float:
    """Partial geometric sum ``1 + r + ... + r^(T-1)``; equals T at r = 1."""
    if n_steps < 1:
        raise ValueError("need at least one time step")
    if ratio < 0.0:
        raise ValueError("ratio must be non-negative")
    if ratio == 1.0:
        return float(n_steps)
    return float((1.0 - ratio**n_steps) / (1.0 - ratio))


def contraction_gamma(assume: AssumptionSet) -> tuple[float, bool]:
    """Perturbation growth ratio ``alpha + m_theta * b1`` and whether it contracts."""
    gamma = assume.alpha + assume.m_theta * assume.b1
    return gamma, gamma < 1.0


def _r_z_prev(assume: AssumptionSet, layer: int) -> float:
    """Cap on the 2-norm of layer ``layer``'s input activity (layers are 1-based)."""
    if layer == 1:
        return assume.r_x
    return math.sqrt(assume.dims[layer - 1])


def state_bounds(assume: AssumptionSet) -> np.ndarray:
    """Membrane-state caps R_u per layer (index 0 is layer 1)."""
    s_alpha = geometric_factor(assume.alpha, assume.n_steps)
    out = np.empty(assume.n_layers)
    for layer in range(1, assume.n_layers + 1):
        d_l = assume.dims[layer]
        out[layer - 1] = s_alpha * (
            assume.m_a * _r_z_prev(assume, layer) + assume.m_b + assume.m_theta * math.sqrt(d_l)
        )
    return out


def temporal_gain(assume: AssumptionSet) -> float:
    """Per-layer sequence-to-sequence gain ``G_T = b1 * m_a * S_T(gamma)``."""
    gamma, _ = contraction_gamma(assume)
    return assume.b1 * assume.m_a * geometric_factor(gamma, assume.n_steps)


def input_lipschitz(assume: AssumptionSet) -> float:
    """Lipschitz constant of the logits in the stacked input sequence."""
    return assume.m_out * temporal_gain(assume) ** assume.n_layers / math.sqrt(assume.n_steps)


def parameter_constants(assume: AssumptionSet) -> tuple[float, float, float, float]:
    """Closed-form ``(c_inner, c_p, l_w, h_w)``.

    ``l_w`` caps the parameter-to-logit Jacobian norm, ``h_w`` the per-class
    parameter Hessian norm:

        c_inner = sum_l (R_z^(l-1) + 2 + m_theta * b1)
        c_p     = c_inner + sqrt(d_L) + 1
        l_w     = m_out * G_T^L / sqrt(T) * c_p
        h_w     = m_out * G_T^(2L) * b2 * c_p^2 + G_T^L * c_inner / sqrt(T)
    """
    gain = temporal_gain(assume)
    n_layers = assume.n_layers
    c_inner = sum(
        _r_z_prev(assume, layer) + 2.0 + assume.m_theta * assume.b1
        for layer in range(1, n_layers + 1)
    )
    c_p = c_inner + math.sqrt(assume.dims[-1]) + 1.0
    sqrt_t = math.sqrt(assume.n_steps)
    l_w = assume.m_out * gain**n_layers / sqrt_t * c_p
    h_w = assume.m_out * gain ** (2 * n_layers) * assume.b2 * c_p**2 + gain**n_layers * c_inner / sqrt_t
    return c_inner, c_p, l_w, h_w


def smoothness_beta(l_w: float, h_w: float) -> float:
    """Gradient-Lipschitz constant of the objective: ``l_w^2 / 2 + 2 h_w``."""
    return 0.5 * l_w**2 + 2.0 * h_w


def sam_upper_bound(loss: float, grad_norm: float, rho: float, beta: float) -> float:
    """Cap on the worst loss within a radius-``rho`` ball of the current point."""
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    return loss + rho * grad_norm + 0.5 * beta * rho**2


def loss_stability_bound(l_x: float, seq_dist: float) -> float:
    """Cap on the loss change under an input perturbation of (2,2)-norm ``seq_dist``."""
    return math.sqrt(2.0) * l_x * seq_dist


def event_drop_distance_bound(p: float, n_steps: int, r_x: float) -> float:
    """Cap on E||x - x~||_{2,2} under i.i.d. coordinate drops with rate ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("drop probability must lie in [0, 1]")
    return math.sqrt(p * n_steps) * r_x


def event_drop_loss_bound(l_x: float, p: float, n_steps: int, r_x: float) -> float:
    """Cap on the expected loss change under i.i.d. coordinate drops."""
    return loss_stability_bound(l_x, event_drop_distance_bound(p, n_steps, r_x))


def convergence_rhs(
    loss0: float, loss_star: float, eta: float, n_updates: int, beta: float, rho: float, sigma_sq: float
) -> tuple[float, float, float, float]:
    """Right-hand side of the mean-squared-gradient guarantee and its three terms.

    Valid when ``eta <= 1 / (4 beta)``; the caller is responsible for
    checking the step-size condition.
    """
    if n_updates < 1 or eta <= 0.0:
        raise ValueError("need a positive step size and at least one update")
    descent = 4.0 * (loss0 - loss_star) / (eta * n_updates)
    perturb = 3.0 * beta**2 * rho**2
    noise = 2.0 * eta * beta * sigma_sq
    return descent + perturb + noise, descent, perturb, noise


@dataclass(frozen=True)
class TheoryConstants:
    """Every closed-form quantity, evaluated on one assumption set."""

    assume: AssumptionSet
    s_t_alpha: float
    gamma: float
    contractive: bool
    r_u: tuple[float, ...]
    gain: float
    l_x: float
    c_inner: float
    c_p: float
    l_w: float
    h_w: float
    beta: float

    @property
    def max_stable_step(self) -> float:
        """Largest step size the convergence guarantee covers: 1 / (4 beta)."""
        return 0.25 / self.beta


def compute_constants(assume: AssumptionSet) -> TheoryConstants:
    """Evaluate the full constant chain on one assumption set."""
    gamma, contractive = contraction_gamma(assume)
    c_inner, c_p, l_w, h_w = parameter_constants(assume)
    return TheoryConstants(
        assume=assume,
        s_t_alpha=geometric_factor(assume.alpha, assume.n_steps),
        gamma=gamma,
        contractive=contractive,
        r_u=tuple(float(r) for r in state_bounds(assume)),
        gain=temporal_gain(assume),
        l_x=input_lipschitz(assume),
        c_inner=c_inner,
        c_p=c_p,
        l_w=l_w,
        h_w=h_w,
        beta=smoothness_beta(l_w, h_w),
    )


def constants_to_dict(constants: TheoryConstants) -> dict:
    """JSON-ready view of an evaluated constant chain, with its ``max_stable_step``."""
    return {**asdict(constants), "max_stable_step": constants.max_stable_step}


def save_constants(path: str, constants: TheoryConstants) -> None:
    """Write the constant chain as an indented, key-sorted JSON report."""
    with open(path, "w") as fh:
        json.dump(constants_to_dict(constants), fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_caps(params: NetworkParams, assume: AssumptionSet) -> bool:
    """Whether a concrete parameter set still satisfies the assumed caps."""
    pb = constant_bounds_extract(params)
    return (
        pb.m_a <= assume.m_a
        and pb.m_b <= assume.m_b
        and pb.m_theta <= assume.m_theta
        and pb.m_out <= assume.m_out
    )
