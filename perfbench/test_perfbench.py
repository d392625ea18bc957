"""Tests of the benchmark's own code: metric names, span arithmetic, patching, checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import checks  # noqa: E402
from spans import SpanRecorder, Target, Tracer, covered, self_time  # noqa: E402


# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [row[0] for row in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(catalog.WORKLOADS):
        assert catalog.NAME_RE.fullmatch(name), name
    for unit in catalog.UNITS.values():
        assert len(unit) <= 16 and all(c.isalnum() or c in "_/%.-" for c in unit), unit
    assert catalog.NAME_RE.fullmatch("bad name!") is None


def test_benchmark_json_agrees_with_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(catalog.WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(row) for row in catalog.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(row) for row in catalog.PER_LAYER
    ]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0  # overlap counted once
    assert covered(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == 3.0  # disjoint
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == 2.0  # clipped at both ends
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 6.0  # nested inside another
    assert covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0  # outside entirely


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 8.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("outer"):  # 0 .. 10
        with rec.span("a"):  # 1 .. 5
            with rec.span("a.inner"):  # 2 .. 4
                pass
        with rec.span("b"):  # 5 .. 8
            pass
    kids = rec.children()
    spans = rec.spans
    assert [sp[3] for sp in spans] == [-1, 0, 1, 0]
    assert [spans[r][0] for r in rec.roots()] == ["outer"] * 4

    def own(i):
        return self_time(spans[i][1], spans[i][2], [(spans[c][1], spans[c][2]) for c in kids[i]])

    assert own(0) == 10.0 - 4.0 - 3.0  # grandchildren sit inside a, not subtracted twice
    assert own(1) == 4.0 - 2.0
    assert own(2) == 2.0
    assert own(3) == 3.0


def test_self_time_of_overlapping_children():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.0, 7.0)]) == 4.0
    assert self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_recorder_rejects_out_of_order_close():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_forward_timings_cover_only_the_workload_call_sites():
    import layers
    import workloads

    rec = SpanRecorder()

    def nest(*names):
        idxs = [rec.open(name) for name in names]
        for idx in reversed(idxs):
            rec.close(idx)
        return idxs[-1]

    fwd = "network.forward.smooth"
    nest("setup", "harness.train", "optim.baseline_step", "gradients.backward", fwd)
    study = nest("round", "harness.run_transfer_study", "harness.train", "optim.sast_step", "gradients.backward", fwd)
    steps = nest("round", "optim.baseline_step", "gradients.backward", fwd)
    nest("round", "diagnostics.mechanism_check", fwd)  # batch-1 link checks
    nest("round", "gradients.batch_loss", fwd)  # bound battery on a tiny config
    evaluate = nest("round", "harness.evaluate", "diagnostics.accuracy.smooth", fwd)
    sweep = nest("round", "harness.robustness_sweep", "diagnostics.accuracy.smooth", fwd)
    nest("once", "diagnostics.diagnose", fwd)
    nest("round", "harness.evaluate", "diagnostics.accuracy.hard", "network.forward.hard")

    assert layers.site_forwards(rec, fwd, workloads.FORWARD_SITES["study"]) == [study, steps]
    assert layers.site_forwards(rec, fwd, workloads.FORWARD_SITES["eval"]) == [evaluate, sweep]


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def test_tracer_patches_every_binding_and_restores_them():
    from spikesam import diagnostics, gradients, network, optim

    originals = {
        "network.forward": network.forward,
        "gradients.forward": gradients.forward,
        "diagnostics.forward": diagnostics.forward,
        "optim.backward": optim.backward,
        "sast_step": optim.SastOptimizer.__dict__["sast_step"],
    }
    rec = SpanRecorder()
    targets = [
        Target(network, "forward", "fwd"),
        Target(gradients, "backward", "bwd"),
        Target(optim.SastOptimizer, "sast_step", "step"),
    ]
    params = network.init_network((3, 4), 2, seed=0)
    spec = network.SurrogateSpec("arctan", 1.0)
    batch = gradients.Batch(np.ones((2, 3, 3)), np.array([0, 1]))
    with Tracer(rec, targets):
        assert gradients.forward is network.forward is diagnostics.forward
        assert gradients.forward is not originals["network.forward"]
        assert optim.backward is not originals["optim.backward"]
        optim.SastOptimizer(optim.OptimizerConfig(eta=0.1, rho=0.1, second_batch=optim.REUSED)).sast_step(
            params, spec, batch
        )
    names = [sp[0] for sp in rec.spans]
    assert names == ["step", "bwd", "fwd", "bwd", "fwd"]
    assert [rec.spans[i][3] for i in range(5)] == [-1, 0, 1, 0, 3]
    assert network.forward is originals["network.forward"]
    assert gradients.forward is originals["gradients.forward"]
    assert diagnostics.forward is originals["diagnostics.forward"]
    assert optim.backward is originals["optim.backward"]
    assert optim.SastOptimizer.__dict__["sast_step"] is originals["sast_step"]


def test_tracer_closes_spans_when_the_call_raises():
    from spikesam import network

    rec = SpanRecorder()
    original = network.forward
    with Tracer(rec, [Target(network, "forward", "fwd")]):
        with pytest.raises(ValueError):
            network.forward(network.init_network((3, 4), 2, seed=0), network.SurrogateSpec(), np.ones((2, 5, 7)))
    assert network.forward is original
    assert rec.spans[0][2] is not None and rec._stack == []


# ---------------------------------------------------------------------------
# Correctness checks fail on wrong outputs
# ---------------------------------------------------------------------------


def test_arrays_identical_catches_one_flipped_bit_and_shape_changes():
    a = np.linspace(0.0, 1.0, 7)
    assert checks.arrays_identical("x", [a], [a.copy()]) == []
    b = a.copy()
    b.view(np.uint64)[3] ^= 1
    assert checks.arrays_identical("x", [a], [b])
    assert checks.arrays_identical("x", [a], [a.reshape(7, 1)])
    assert checks.arrays_identical("x", [a], [a.astype(np.float32)])
    assert checks.arrays_identical("x", [a], [])


def test_params_arrays_sees_every_parameter():
    from spikesam import network

    params = network.init_network((3, 4, 2), 2, seed=1)
    other = params.copy()
    assert checks.arrays_identical("p", checks.params_arrays(params), checks.params_arrays(other)) == []
    other.layers[1].threshold[0] += 1e-12
    assert checks.arrays_identical("p", checks.params_arrays(params), checks.params_arrays(other))


def test_finite_losses_flags_nan_epochs(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("epoch,train_loss\n1,0.7\n2,0.6\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("epoch,train_loss\n1,0.7\n2,nan\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("epoch,train_loss\n")
    assert checks.finite_losses(str(good)) == []
    assert checks.finite_losses(str(bad))
    assert checks.finite_losses(str(empty))


def test_sweep_clean_point_flags_a_shifted_severity_zero():
    clean = {"surrogate": 0.75, "hard": 0.5}
    curves = {"event_drop": {"surrogate": [0.75, 0.7], "hard": [0.5, 0.4]}}
    assert checks.sweep_clean_point(curves, clean) == []
    curves["event_drop"]["hard"][0] = 0.5 + 1e-9
    assert len(checks.sweep_clean_point(curves, clean)) == 1


def test_remaining_checks_fail_on_wrong_outputs():
    assert checks.calibration_not_worse("g", 0.8, 0.8) == []
    assert checks.calibration_not_worse("g", 0.79, 0.8)
    assert checks.no_violations("c", {"state": 0, "sam": 0}) == []
    assert checks.no_violations("c", {"state": 0, "sam": 2})
    assert checks.finite_values("v", [1.0, 2.0]) == []
    assert checks.finite_values("v", [1.0, float("inf")])
    rec = SimpleNamespace
    ok = [rec(conditioned=True, holds=True), rec(conditioned=False, holds=False)]
    assert checks.mechanism_holds(ok) == []
    assert len(checks.mechanism_holds(ok + [rec(conditioned=True, holds=False)])) == 1


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------


def test_step_medians_take_each_steps_median_over_the_rounds():
    import run

    rounds = [[1.0, 2.0, 3.0], [0.9, 2.5, 3.5], [], [1.1, 1.8, 9.0], [0.5, 0.5]]
    assert run.step_medians(rounds) == [1.0, 2.0, 3.5]
    assert run.step_medians([[], []]) == run.step_medians([]) == []


def test_slow_pace_shortens_times_and_raises_rates():
    import pace
    import run

    slow = 2 * pace.REFERENCE_S  # the kernel took twice its reference time
    assert run.at_reference("sweep", 4.0, slow) == 2.0
    assert run.at_reference("steps", 4.0, slow) == 2.0
    assert run.at_reference("study", 100.0, slow) == 200.0
    assert run.at_reference("eval", 100.0, pace.REFERENCE_S) == 100.0
    assert 0 < pace.reading() < 1


def test_run_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
