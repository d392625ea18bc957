"""Sharpness-aware training and bound-verification lab for spiking networks.

The package trains smooth surrogate-forward spiking networks with two-pass
sharpness-aware updates, evaluates the same checkpoints under the hard spike
rule, and checks every closed-form constant and bound it relies on against
independent numerical oracles.
"""

from .bounds import (
    AssumptionSet,
    TheoryConstants,
    assumptions_from,
    compute_constants,
    contraction_gamma,
    convergence_rhs,
    event_drop_distance_bound,
    event_drop_loss_bound,
    geometric_factor,
    input_lipschitz,
    loss_stability_bound,
    parameter_constants,
    sam_upper_bound,
    smoothness_beta,
    state_bounds,
    temporal_gain,
)
from .diagnostics import (
    DiagnosticsReport,
    MechanismRecord,
    SampleStats,
    accuracies,
    accuracy,
    bound_battery,
    diagnose,
    mechanism_check,
    observed_contraction,
    sam_gap,
    secant_smoothness,
)
from .events import (
    SEVERITY_GRID,
    CorruptionConfig,
    Dataset,
    SplitDataset,
    SynthTaskConfig,
    corrupt,
    load_frames,
    measured_input_bound,
    save_dataset,
    synth_task,
)
from .gradients import (
    Batch,
    GradientBundle,
    ParamGrads,
    backward,
    batch_loss,
    cross_entropy,
    gradcheck,
    logit_jacobians,
    per_sample_gradients,
)
from .harness import (
    OptimizerConfig,
    RunConfig,
    TrainResult,
    aggregate,
    calibrate_thresholds,
    calibration_ops,
    evaluate,
    match_compute,
    measure_overhead,
    report,
    reset_calibration_ops,
    robustness_sweep,
    run_transfer_study,
    train,
)
from .linalg import spectral_norm
from .network import (
    LayerParams,
    NetworkParams,
    StateTrace,
    SurrogateSpec,
    constant_bounds_extract,
    forward,
    hard_step,
    init_network,
    lif_layer,
    load_checkpoint,
    parameter_vector,
    replace_parameters,
    save_checkpoint,
)
from .optim import (
    ConvergenceReport,
    ConvergenceTask,
    SastOptimizer,
    StepReport,
    convergence_trial,
    sam_perturbation,
    single_pass_update,
    two_pass_update,
)

__version__ = "0.1.0"
