"""What the traced run wraps, and the per-module metrics derived from its spans.

Spans come in three top-level groups: ``setup`` (one traced set-up),
``round`` (traced rounds) and ``once`` (the once-per-run checks).  Counts and
summed times are per traced round; ``_p50`` times are medians over every
call outside set-up.  The forward timings and ``gflops_computed`` are the
exception: they cover only the forwards made under the workload's own call
sites (see :func:`site_forwards`).  ``harness.val_eval_s`` sums the accuracy
calls ``train`` makes: each epoch's validation plus the final selection.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Collection, Sequence

import numpy as np

from spikesam import bounds, diagnostics, events, gradients, harness, linalg, network, optim

from spans import END, EXTRA, NAME, PARENT, START, SpanRecorder, Target, self_time


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _forward_label(args: tuple, kwargs: dict) -> str:
    spec = _arg(args, kwargs, 1, "spec")
    return "network.forward." + ("hard" if spec.family == network.HARD else "smooth")


def forward_flops(params: network.NetworkParams, shape: Sequence[int]) -> float:
    """Computed operation count of one forward pass (not a hardware counter).

    Per layer: the drive ``2 n T d_in d_out``, plus ``10 n T d_out`` for the
    bias, leak, reset, threshold and spike function; then the time average
    and readout.
    """
    n, n_steps = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    dims = params.dims
    flops = sum(2 * n * n_steps * d_in * d_out + 10 * n * n_steps * d_out for d_in, d_out in zip(dims, dims[1:]))
    return float(flops + n * n_steps * dims[-1] + 2 * n * dims[-1] * params.n_classes)


def _forward_extra(args: tuple, kwargs: dict, result) -> float:
    return forward_flops(_arg(args, kwargs, 0, "params"), np.shape(_arg(args, kwargs, 2, "frames")))


def _accuracy_label(args: tuple, kwargs: dict) -> str:
    mode = _arg(args, kwargs, 4, "mode")
    return "diagnostics.accuracy." + ("hard" if mode == diagnostics.HARD_MODE else "smooth")


def targets() -> list[Target]:
    """Public functions each module calls, plus the two optimizer steps."""
    plain = {
        network: ("replace_parameters", "parameter_vector", "load_checkpoint", "save_checkpoint"),
        gradients: ("backward", "batch_loss", "logit_jacobians", "per_sample_gradients", "cross_entropy", "gradcheck"),
        harness: ("run_transfer_study", "train", "evaluate", "robustness_sweep", "corrupted_copy"),
        events: ("synth_task", "corrupt", "load_frames", "save_dataset"),
        bounds: ("assumptions_from", "compute_constants"),
        diagnostics: ("mechanism_check", "diagnose", "secant_smoothness", "sam_gap"),
    }
    out = [
        Target(mod, attr, f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}")
        for mod, attrs in plain.items()
        for attr in attrs
    ]
    out += [
        Target(network, "forward", _forward_label, _forward_extra),
        Target(diagnostics, "accuracy", _accuracy_label),
        Target(harness, "calibrate_thresholds", "harness.calibrate_thresholds", lambda a, k, r: r.n_evals),
        Target(linalg, "spectral_norm", "linalg.spectral_norm", lambda a, k, r: r.iterations),
        Target(optim.SastOptimizer, "sast_step", "optim.sast_step"),
        Target(optim.SastOptimizer, "baseline_step", "optim.baseline_step"),
    ]
    return out


def site_forwards(rec: SpanRecorder, name: str, sites: Collection[str]) -> list[int]:
    """Spans called ``name`` outside set-up with an ancestor among ``sites``.

    The same ``forward`` serves the study net at training and evaluation
    batches, the tiny configs of the bound battery and the batch-1 calls of
    the mechanism checks; the call site tells them apart.
    """
    spans = rec.spans
    roots = rec.roots()
    out = []
    for idx, sp in enumerate(spans):
        if sp[NAME] != name or spans[roots[idx]][NAME] == "setup":
            continue
        parent = sp[PARENT]
        while parent >= 0 and spans[parent][NAME] not in sites:
            parent = spans[parent][PARENT]
        if parent >= 0:
            out.append(idx)
    return out


def per_layer(
    rec: SpanRecorder,
    forward_sites: Collection[str],
    probe_s: Sequence[float],
    memory: dict[str, float],
    estimate_bytes: dict[str, int],
    step_s: dict[str, list[float]],
    epoch_s: Sequence[float],
    overhead: float,
) -> dict[str, float]:
    """Every per-layer metric of the catalogue from one traced run.

    ``forward_sites`` names the spans whose forwards the forward timings
    cover, ``probe_s`` holds the per-layer forward probe, ``memory`` the memory
    pass, ``estimate_bytes`` the analytic step estimates, ``step_s`` and
    ``epoch_s`` untraced step and epoch times, ``overhead`` the traced over
    untraced wall time of identical rounds.
    """
    spans = rec.spans
    roots = [spans[r][NAME] for r in rec.roots()]
    kids = rec.children()
    n_rounds = sum(1 for sp in spans if sp[PARENT] < 0 and sp[NAME] == "round")
    n_once = sum(1 for sp in spans if sp[PARENT] < 0 and sp[NAME] == "once")
    n_setup = sum(1 for sp in spans if sp[PARENT] < 0 and sp[NAME] == "setup")

    calls: dict[str, list[int]] = defaultdict(list)  # outside set-up
    in_round: dict[str, list[int]] = defaultdict(list)
    in_setup: dict[str, list[int]] = defaultdict(list)
    for idx, sp in enumerate(spans):
        if roots[idx] == "setup":
            in_setup[sp[NAME]].append(idx)
            continue
        calls[sp[NAME]].append(idx)
        if roots[idx] == "round":
            in_round[sp[NAME]].append(idx)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def median(idxs: list[int], scale: float) -> float:
        return float(np.median([dur(i) for i in idxs])) * scale

    def p50(name: str, scale: float) -> float:
        return median(calls[name], scale)

    def round_total(name: str) -> float:
        return sum(dur(i) for i in in_round[name]) / n_rounds

    def round_count(*names: str) -> float:
        return sum(len(in_round[n]) for n in names) / n_rounds

    def under(name: str, parent: str) -> list[int]:
        return [i for i in in_round[name] if spans[spans[i][PARENT]][NAME] == parent]

    def own_time(i: int, only: str | None = None) -> float:
        ch = [(spans[c][START], spans[c][END]) for c in kids[i] if only is None or spans[c][NAME] == only]
        return self_time(spans[i][START], spans[i][END], ch)

    smooth = site_forwards(rec, "network.forward.smooth", forward_sites)
    hard = site_forwards(rec, "network.forward.hard", forward_sites)
    forwards = smooth + hard
    two_steps = in_round["optim.sast_step"]
    bookkeeping = [own_time(i, "gradients.backward") for i in two_steps]
    m: dict[str, float] = {
        "network.forward.smooth.ms_p50": median(smooth, 1e3),
        "network.forward.hard.ms_p50": median(hard, 1e3),
        "network.forward.calls": round_count("network.forward.smooth", "network.forward.hard"),
        "network.forward.gflops_computed": sum(spans[i][EXTRA] for i in forwards)
        / sum(dur(i) for i in forwards)
        / 1e9,
    }
    for layer, t in enumerate(probe_s, start=1):
        m[f"network.forward.layer{layer}.ms_p50"] = t * 1e3
    m.update(
        {
            "network.replace_parameters.us_p50": p50("network.replace_parameters", 1e6),
            "network.replace_parameters.calls_per_step": len(under("network.replace_parameters", "optim.sast_step"))
            / len(two_steps),
            "network.parameter_vector.calls_per_step": len(under("network.parameter_vector", "optim.sast_step"))
            / len(two_steps),
            "gradients.backward.ms_p50": p50("gradients.backward", 1e3),
            "gradients.reverse.ms_p50": float(np.median([own_time(i) for i in calls["gradients.backward"]])) * 1e3,
            "gradients.logit_jacobians.ms_p50": p50("gradients.logit_jacobians", 1e3),
            "gradients.per_sample_gradients.ms_p50": p50("gradients.per_sample_gradients", 1e3),
            "gradients.cross_entropy.calls": round_count("gradients.cross_entropy"),
            "optim.sast_step.ms_p50": p50("optim.sast_step", 1e3),
            "optim.baseline_step.ms_p50": p50("optim.baseline_step", 1e3),
            "optim.bookkeeping.ms": float(np.median(bookkeeping)) * 1e3,
            "optim.bookkeeping.share": sum(bookkeeping) / sum(dur(i) for i in two_steps),
            "optim.time_factor": float(np.median(step_s["two"]) / np.median(step_s["single"])),
            "optim.step.single.peak_kib": memory["step_single"],
            "optim.step.two.peak_kib": memory["step_two"],
            "optim.memory_factor": memory["step_two"] / memory["step_single"],
            "harness.estimate_step_memory.single_kib": estimate_bytes["single"] / 1024,
            "harness.estimate_step_memory.two_kib": estimate_bytes["two"] / 1024,
            "harness.epoch.ms_p50": float(np.median(epoch_s)) * 1e3,
            "harness.train.self_s": sum(own_time(i) for i in in_round["harness.train"]) / n_rounds,
            "harness.val_eval_s": sum(
                dur(i)
                for name in ("diagnostics.accuracy.smooth", "diagnostics.accuracy.hard")
                for i in under(name, "harness.train")
            )
            / n_rounds,
            "harness.checkpoint_s": sum(dur(i) for i in under("network.save_checkpoint", "harness.train")) / n_rounds,
            "harness.robustness_sweep_s": round_total("harness.robustness_sweep"),
            "harness.corrupted_copy_s": round_total("harness.corrupted_copy"),
            "harness.calibrate_s": round_total("harness.calibrate_thresholds"),
            "harness.calibrate.evals": sum(spans[i][EXTRA] for i in in_round["harness.calibrate_thresholds"])
            / n_rounds,
            "events.synth_task_s": sum(dur(i) for i in in_setup["events.synth_task"]) / n_setup,
            "events.corrupt.us_p50": p50("events.corrupt", 1e6),
            "events.corrupt.calls": round_count("events.corrupt"),
            "events.load_frames.ms": p50("events.load_frames", 1e3),
            "network.load_checkpoint.ms": p50("network.load_checkpoint", 1e3),
            "bounds.assumptions_from.ms_p50": p50("bounds.assumptions_from", 1e3),
            "bounds.compute_constants.us_p50": p50("bounds.compute_constants", 1e6),
            "linalg.spectral_norm.us_p50": p50("linalg.spectral_norm", 1e6),
            "linalg.spectral_norm.calls": round_count("linalg.spectral_norm"),
            "linalg.spectral_norm.iterations_mean": float(
                np.mean([spans[i][EXTRA] for i in calls["linalg.spectral_norm"]])
            ),
            "diagnostics.accuracy.smooth.ms_p50": p50("diagnostics.accuracy.smooth", 1e3),
            "diagnostics.accuracy.hard.ms_p50": p50("diagnostics.accuracy.hard", 1e3),
            "diagnostics.mechanism_check.ms_p50": p50("diagnostics.mechanism_check", 1e3),
            "diagnostics.secant_smoothness_s": sum(dur(i) for i in calls["diagnostics.secant_smoothness"]) / n_once,
            "diagnostics.sam_gap_s": sum(dur(i) for i in calls["diagnostics.sam_gap"]) / n_once,
            "trace.overhead": overhead,
        }
    )
    return m
