"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats these lists; the tests
check that the two agree.  Each per-layer entry notes the end-to-end metric
it should move, and on which workload; "both" marks the phases that every
workload runs as small units.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

WORKLOADS = {
    "study": "the paper's protocol: transfer studies of the packaged 48-16-16-16 net at B=32, T=8, plus timed single- and two-pass steps",
    "eval": "checkpoint and 1024-sequence split loaded from disk, forward-only evaluation, calibration and robustness sweeps at large batch",
}

# (name, unit, better, bound).  Times are read at the reference pace
# (pace.py); even so, on a shared 2-CPU machine ten runs of identical code
# spread by up to 9% (IQR over median), so the timed metrics take the
# largest bound allowed, three times that spread; peak memory is nearly
# deterministic.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_samples_per_s", "1/s", "higher", 0.25),
    ("sast_step_ms_p50", "ms", "lower", 0.25),
    ("sast_step_ms_p90", "ms", "lower", 0.25),
    ("verify_configs_per_s", "1/s", "higher", 0.25),
    ("link_samples_per_s", "1/s", "higher", 0.25),
    ("eval_samples_per_s", "1/s", "higher", 0.25),
    ("sweep_s", "s", "lower", 0.25),
    ("peak_kib", "KiB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    # network -> train_samples_per_s, sast_step_ms_p50 (study); eval_samples_per_s, sweep_s (eval)
    ("network.forward.smooth.ms_p50", "ms", "lower"),
    ("network.forward.hard.ms_p50", "ms", "lower"),
    ("network.forward.calls", "count", "lower"),
    ("network.forward.gflops_computed", "GFLOP/s", "higher"),
    ("network.forward.layer1.ms_p50", "ms", "lower"),
    ("network.forward.layer2.ms_p50", "ms", "lower"),
    ("network.forward.layer3.ms_p50", "ms", "lower"),
    # -> sast_step_ms_p50 (study), verify_configs_per_s (both); eval_samples_per_s not at all
    ("network.replace_parameters.us_p50", "us", "lower"),
    ("network.replace_parameters.calls_per_step", "count", "lower"),
    ("network.parameter_vector.calls_per_step", "count", "lower"),
    # -> train_samples_per_s (study), link_samples_per_s (both)
    ("gradients.backward.ms_p50", "ms", "lower"),
    ("gradients.reverse.ms_p50", "ms", "lower"),
    ("gradients.logit_jacobians.ms_p50", "ms", "lower"),
    ("gradients.per_sample_gradients.ms_p50", "ms", "lower"),
    ("gradients.cross_entropy.calls", "count", "lower"),
    # -> sast_step_ms_p50, train_samples_per_s (study)
    ("optim.sast_step.ms_p50", "ms", "lower"),
    ("optim.baseline_step.ms_p50", "ms", "lower"),
    ("optim.bookkeeping.ms", "ms", "lower"),
    ("optim.bookkeeping.share", "ratio", "lower"),
    ("optim.time_factor", "ratio", "lower"),
    # -> peak_kib (study)
    ("optim.step.single.peak_kib", "KiB", "lower"),
    ("optim.step.two.peak_kib", "KiB", "lower"),
    ("optim.memory_factor", "ratio", "lower"),
    ("harness.estimate_step_memory.single_kib", "KiB", "lower"),
    ("harness.estimate_step_memory.two_kib", "KiB", "lower"),
    # -> train_samples_per_s (study)
    ("harness.epoch.ms_p50", "ms", "lower"),
    ("harness.train.self_s", "s", "lower"),
    ("harness.val_eval_s", "s", "lower"),
    ("harness.checkpoint_s", "s", "lower"),
    # -> sweep_s, eval_samples_per_s (eval)
    ("harness.robustness_sweep_s", "s", "lower"),
    ("harness.corrupted_copy_s", "s", "lower"),
    ("harness.calibrate_s", "s", "lower"),
    ("harness.calibrate.evals", "count", "lower"),
    # -> setup_s (all); sweep_s, eval_samples_per_s (eval)
    ("events.synth_task_s", "s", "lower"),
    ("events.corrupt.us_p50", "us", "lower"),
    ("events.corrupt.calls", "count", "lower"),
    ("events.load_frames.ms", "ms", "lower"),
    ("network.load_checkpoint.ms", "ms", "lower"),
    # -> verify_configs_per_s (both); setup_s a little (study)
    ("bounds.assumptions_from.ms_p50", "ms", "lower"),
    ("bounds.compute_constants.us_p50", "us", "lower"),
    ("linalg.spectral_norm.us_p50", "us", "lower"),
    ("linalg.spectral_norm.calls", "count", "lower"),
    ("linalg.spectral_norm.iterations_mean", "count", "lower"),
    # -> link_samples_per_s (both), eval_samples_per_s (eval)
    ("diagnostics.accuracy.smooth.ms_p50", "ms", "lower"),
    ("diagnostics.accuracy.hard.ms_p50", "ms", "lower"),
    ("diagnostics.mechanism_check.ms_p50", "ms", "lower"),
    ("diagnostics.secant_smoothness_s", "s", "lower"),
    ("diagnostics.sam_gap_s", "s", "lower"),
    # traced wall time over untraced wall time of identical rounds
    ("trace.overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
