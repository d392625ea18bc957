"""End-to-end harness behavior: configs, training runs, protocol purity.

Training runs here are micro-sized (tens of samples, a few epochs); the
full benchmark recipe is exercised by the acceptance suite.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import re
import shlex
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from spikesam import diagnostics, events, gradients, harness, network, optim
from spikesam.diagnostics import HARD_MODE, SURROGATE_MODE, accuracy
from spikesam.gradients import Batch, batch_loss
from spikesam.events import CORRUPTION_FAMILIES, EVENT_DROP, Dataset, SynthTaskConfig, save_dataset
from spikesam.harness import (
    AGGREGATE_KEYS,
    CALIBRATION_GRID,
    GLOBAL_CALIBRATION,
    METRICS_COLUMNS,
    PER_LAYER_CALIBRATION,
    RHO_GRID,
    DataConfig,
    ModelConfig,
    RunConfig,
    SurrogateConfig,
    TrainSettings,
    aggregate,
    apply_overrides,
    calibrate_thresholds,
    calibration_ops,
    config_from_dict,
    config_to_dict,
    corrupted_copy,
    default_transfer_config,
    estimate_step_memory,
    evaluate,
    format_transfer_table,
    load_config,
    load_data,
    match_compute,
    metrics_equal,
    planned_passes,
    report,
    reset_calibration_ops,
    robustness_sweep,
    run_transfer_study,
    save_config,
    seed_record,
    train,
)
from spikesam.network import (
    InstabilityError,
    LayerParams,
    NetworkParams,
    forward,
    init_network,
    load_checkpoint,
    mode_spec,
    parameter_vector,
    threshold_slices,
)
from spikesam.optim import INDEPENDENT, REUSED, OptimizerConfig
from spikesam import cli


def micro_config(out_dir: str, rho: float = 0.0, epochs: int = 3, seeds=(0, 1), select="best"):
    return RunConfig(
        out_dir=out_dir,
        model=ModelConfig(hidden_dims=(6,), alpha=0.5, theta_init=0.5, weight_scale=1.0),
        surrogate=SurrogateConfig(family="arctan", slope=2.0),
        optimizer=OptimizerConfig(eta=0.5, rho=rho, second_batch=INDEPENDENT),
        data=DataConfig(
            source="synth",
            synth=SynthTaskConfig(
                n_classes=2, n_steps=4, n_coords=6, n_polarities=2,
                n_train=32, n_val=16, n_test=16,
                rate_active=0.6, rate_background=0.2, style="blocks", seed=3,
            ),
        ),
        train=TrainSettings(epochs=epochs, batch_size=8, seeds=tuple(seeds), select=select),
    )


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = micro_config("runs/x", rho=0.1)
    rebuilt = config_from_dict(config_to_dict(cfg))
    assert rebuilt == cfg
    assert isinstance(rebuilt.model.hidden_dims, tuple)
    assert isinstance(rebuilt.train.seeds, tuple)


def test_config_file_roundtrip(tmp_path):
    cfg = micro_config(str(tmp_path / "run"))
    path = str(tmp_path / "config.json")
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_rejects_unknown_keys():
    raw = config_to_dict(micro_config("runs/x"))
    raw["learning_rate"] = 0.1
    with pytest.raises(ValueError):
        config_from_dict(raw)
    raw2 = config_to_dict(micro_config("runs/x"))
    raw2["optimizer"]["nesterov"] = True
    with pytest.raises(ValueError):
        config_from_dict(raw2)


def test_readme_configuration_example_is_a_valid_config():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```json\n(.*?)```", section, re.S)
    assert example, "README's Configuration section has no json example"
    cfg = config_from_dict(json.loads(example.group(1)))
    assert cfg.optimizer.rho == 0.1 and cfg.train.select == "final"


def test_config_section_given_as_a_non_object_is_refused_by_name():
    with pytest.raises(ValueError, match="'model' must be an object"):
        config_from_dict({"model": 3})
    with pytest.raises(ValueError, match="'data.synth' must be an object"):
        config_from_dict({"data": {"synth": [1, 2]}})


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"train": {"epochs": "2"}}, "train.epochs must be int, got str"),
        ({"train": {"epochs": 2.0}}, "train.epochs must be int, got float"),
        ({"train": {"epochs": True}}, "train.epochs must be int, got bool"),
        ({"data": {"synth": {"seed": "0"}}}, "data.synth.seed must be int, got str"),
        ({"model": {"hidden_dims": 4}}, "model.hidden_dims must be a list of int, got int"),
        ({"train": {"seeds": [0, 1.0]}}, "train.seeds must be a list of int, got a list of other types"),
        ({"model": {"alpha": "0.5"}}, "model.alpha must be float, got str"),
        ({"model": {"alpha": False}}, "model.alpha must be float, got bool"),
        ({"optimizer": {"train_threshold": 1}}, "optimizer.train_threshold must be bool, got int"),
        ({"surrogate": {"family": None}}, "surrogate.family must be str, got NoneType"),
        ({"out_dir": 3}, "out_dir must be str, got int"),
    ],
)
def test_config_refuses_a_mistyped_leaf_by_path(raw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config_from_dict(raw)


def test_config_float_leaf_takes_a_json_int_as_a_float():
    cfg = config_from_dict({"surrogate": {"slope": 3}, "optimizer": {"eta": 1}})
    assert type(cfg.surrogate.slope) is float and cfg.surrogate.slope == 3.0
    assert type(cfg.optimizer.eta) is float and cfg.optimizer.eta == 1.0


def test_default_config_leaves_round_trip_through_json():
    raw = json.loads(json.dumps(config_to_dict(RunConfig())))
    assert config_from_dict(raw) == RunConfig()
    assert config_to_dict(config_from_dict(raw)) == config_to_dict(RunConfig())


def test_cli_refuses_a_mistyped_leaf_by_path(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"train": {"epochs": "2"}}')
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    assert "train.epochs must be int, got str" in capsys.readouterr().err


def test_optimizer_section_without_eta_decodes_like_the_override(tmp_path):
    def load(content: str, *sets: str) -> RunConfig:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(content)
        argv = ["train", "--config", str(cfg_path), *(arg for item in sets for arg in ("--set", item))]
        return cli._load_run_config(cli.build_parser().parse_args(argv))

    from_file = load('{"optimizer": {"rho": 0.1}}')
    assert from_file == load("{}", "optimizer.rho=0.1")
    assert from_file.optimizer == OptimizerConfig(eta=0.5, rho=0.1)
    assert RunConfig().optimizer == OptimizerConfig()


def _leaves(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


@pytest.mark.parametrize("cfg", [RunConfig(out_dir="x"), micro_config("x", rho=0.1)], ids=["default", "micro"])
def test_cli_set_overrides_every_schema_leaf_on_an_empty_file(tmp_path, cfg):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text("{}")

    def load(assignments: list[str]) -> RunConfig:
        sets = [arg for item in assignments for arg in ("--set", item)]
        return cli._load_run_config(cli.build_parser().parse_args(["train", "--config", str(cfg_path), *sets]))

    leaves = dict(_leaves(config_to_dict(cfg)))
    assert len(leaves) > 30
    for path, value in leaves.items():
        decoded = dict(_leaves(config_to_dict(load([f"{path}={json.dumps(value)}"]))))
        assert decoded[path] == value, path
    assert load([f"{path}={json.dumps(value)}" for path, value in leaves.items()]) == cfg


@pytest.mark.parametrize("content", ["{}", '{"optimizer": {"eta": 0.5}}'])
def test_cli_set_overrides_a_leaf_the_file_omits(tmp_path, content):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(content)
    out_json = tmp_path / "matched.json"
    rc = cli.main(["match-compute", "--config", str(cfg_path), "--set", "optimizer.rho=0.1", "--out", str(out_json)])
    assert rc == 0
    matched = json.loads(out_json.read_text())
    assert matched["train"]["method_label"] == "sast-rho0.1-matched-baseline"


def test_cli_refuses_a_malformed_config_file_by_name(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"model": 3}')
    assert cli.main(["train", "--config", str(cfg_path), "--set", "train.epochs=1"]) == 1
    assert "'model' must be an object" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = "\n".join(re.findall(r"```sh\n(.*?)```", readme, re.S))
    lines = [line.split("#", 1)[0].strip() for line in blocks.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("spikesam ")]
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_apply_overrides_paths_and_json_values():
    raw = config_to_dict(micro_config("runs/x"))
    out = apply_overrides(
        raw, ["optimizer.eta=0.125", "train.seeds=[3, 4]", "surrogate.family=\"fast_sigmoid\""]
    )
    cfg = config_from_dict(out)
    assert cfg.optimizer.eta == 0.125
    assert cfg.train.seeds == (3, 4)
    assert cfg.surrogate.family == "fast_sigmoid"
    with pytest.raises(ValueError):
        apply_overrides(raw, ["optimizer=1"])  # not a leaf path
    with pytest.raises(ValueError):
        apply_overrides(raw, ["optimizer.warp=1"])  # unknown leaf
    with pytest.raises(ValueError):
        apply_overrides(raw, ["optimizer.eta"])  # no assignment


def test_train_settings_select_validation():
    with pytest.raises(ValueError):
        TrainSettings(select="median")
    assert TrainSettings(select="final").select == "final"


@pytest.mark.parametrize(
    "setting, message",
    [
        ("train.batch_size=0", "batch_size must be at least 1, got 0"),
        ("train.batch_size=-8", "batch_size must be at least 1, got -8"),
        ("train.epochs=-1", "epochs must be non-negative, got -1"),
        ("train.pass_budget=-5", "pass_budget must be non-negative, got -5"),
        ("train.checkpoint_every=-1", "checkpoint_every must be non-negative, got -1"),
        ("train.diagnostics_every=-2", "diagnostics_every must be non-negative, got -2"),
        ("train.seeds=[]", "seeds must name at least one seed"),
    ],
)
def test_cli_refuses_an_out_of_range_train_setting_by_name(tmp_path, capsys, setting, message):
    cfg_path = tmp_path / "config.json"
    save_config(str(cfg_path), micro_config(str(tmp_path / "run")))
    assert cli.main(["train", "--config", str(cfg_path), "--set", setting]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("rho, batch_size", [(0.0, 1000), (0.1, 20)])  # 32 samples: no chunk; one chunk, no pair
def test_a_schedule_without_a_step_is_refused_before_any_file(tmp_path, rho, batch_size):
    cfg = micro_config(str(tmp_path / "run"), rho=rho)
    with pytest.raises(ValueError, match=f"^batch_size {batch_size} .* the 32-sample train split$"):
        train(replace(cfg, train=replace(cfg.train, batch_size=batch_size)))
    assert not (tmp_path / "run").exists()


def test_method_label():
    assert micro_config("x", rho=0.0).method_label == "baseline"
    assert micro_config("x", rho=0.25).method_label == "sast-rho0.25"


def test_default_transfer_config_contract():
    cfg = default_transfer_config("runs/t")
    assert cfg.train.select == "final"
    assert not cfg.optimizer.train_threshold
    assert cfg.optimizer.rho == 0.0
    assert cfg.optimizer.second_batch == INDEPENDENT
    assert len(cfg.train.seeds) >= 5
    assert 0.0 < min(RHO_GRID) and max(RHO_GRID) <= 0.5


# ---------------------------------------------------------------------------
# Training runs: artifacts and determinism
# ---------------------------------------------------------------------------


def test_train_is_deterministic_and_writes_artifacts(tmp_path):
    cfg_a = micro_config(str(tmp_path / "a"), rho=0.05, epochs=3, seeds=(0, 1))
    cfg_b = micro_config(str(tmp_path / "b"), rho=0.05, epochs=3, seeds=(0, 1))
    res_a = train(cfg_a)
    res_b = train(cfg_b)
    for sa, sb in zip(res_a.seeds, res_b.seeds):
        assert metrics_equal(sa.metrics_path, sb.metrics_path)
        with open(sa.checkpoint_path, "rb") as fa, open(sb.checkpoint_path, "rb") as fb:
            assert fa.read() == fb.read()
        assert sa.test_acc_hard == sb.test_acc_hard
        assert sa.passes == sb.passes
    for seed in (0, 1):
        seed_dir = tmp_path / "a" / f"seed_{seed}"
        assert (seed_dir / "metrics.csv").exists()
        assert (seed_dir / "constants.json").exists()
        assert (seed_dir / "checkpoints" / "best.bin").exists()
        assert (seed_dir / "checkpoints" / "final.bin").exists()
    assert (tmp_path / "a" / "config.json").exists()
    with open(tmp_path / "a" / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["method"] == "sast-rho0.05"
    assert len(summary["per_seed"]) == 2
    assert set(summary["aggregate"]) == set(AGGREGATE_KEYS)
    for row in summary["per_seed"]:
        assert row["val_transfer_gap"] == row["val_acc_surrogate"] - row["val_acc_hard"]
        assert row["test_transfer_gap"] == row["test_acc_surrogate"] - row["test_acc_hard"]
    # metrics files carry exactly the declared schema
    with open(res_a.seeds[0].metrics_path) as fh:
        header = fh.readline().strip().split(",")
    assert tuple(header) == METRICS_COLUMNS


def test_metrics_equal_ignores_wall_clock_only(tmp_path):
    cfg = micro_config(str(tmp_path / "run"), epochs=2, seeds=(0,))
    res = train(cfg)
    src = res.seeds[0].metrics_path
    with open(src) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    wall_idx = header.index("wall_clock_s")
    loss_idx = header.index("train_loss")

    tampered_wall = tmp_path / "wall.csv"
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[wall_idx] = "999.0"
        rows.append(",".join(cells))
    tampered_wall.write_text("\n".join(rows) + "\n")
    assert metrics_equal(src, str(tampered_wall))

    tampered_loss = tmp_path / "loss.csv"
    rows = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[loss_idx] = "123.456"
        rows.append(",".join(cells))
    tampered_loss.write_text("\n".join(rows) + "\n")
    assert not metrics_equal(src, str(tampered_loss))


def test_checkpoint_selection_rule(tmp_path):
    data = load_data(micro_config("unused").data)
    final_run = train(micro_config(str(tmp_path / "f"), epochs=3, seeds=(0,), select="final"), data)
    best_run = train(micro_config(str(tmp_path / "b"), epochs=3, seeds=(0,), select="best"), data)
    assert final_run.seeds[0].checkpoint_path.endswith("final.bin")
    assert best_run.seeds[0].checkpoint_path.endswith("best.bin")
    # reported metrics come from the selected checkpoint
    for run in (final_run, best_run):
        s = run.seeds[0]
        params, spec = load_checkpoint(s.checkpoint_path)
        got = evaluate(params, spec, data.test, HARD_MODE).accuracy
        assert got == pytest.approx(s.test_acc_hard, abs=1e-12)


def evaluation_fixture():
    cfg = micro_config("unused")
    data = load_data(cfg.data)
    params = init_network((data.test.frames.shape[2], 6), data.test.n_classes, seed=np.random.default_rng(5))
    return params, cfg.surrogate.spec(), data.test


@pytest.mark.parametrize("mode", [SURROGATE_MODE, HARD_MODE])
def test_evaluate_equals_accuracy_and_batch_loss_bit_for_bit(mode):
    params, spec, ds = evaluation_fixture()
    got = evaluate(params, spec, ds, mode)
    assert got.accuracy == accuracy(params, spec, ds.frames, ds.labels, mode)
    if mode == SURROGATE_MODE:
        assert got.loss == batch_loss(params, spec, Batch(ds.frames, ds.labels))
    else:
        assert got.loss is None


@pytest.mark.parametrize("mode", [SURROGATE_MODE, HARD_MODE])
def test_evaluate_runs_one_forward_pass(mode, monkeypatch):
    params, spec, ds = evaluation_fixture()
    calls = []
    real_forward = network.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return real_forward(*args, **kwargs)

    for module in (network, gradients, diagnostics, harness):  # every binding of forward
        monkeypatch.setattr(module, "forward", counted, raising=False)
    evaluate(params, spec, ds, mode)
    assert len(calls) == 1


def test_huge_step_size_is_recorded_as_divergence(tmp_path):
    cfg = micro_config(str(tmp_path / "blowup"), epochs=2, seeds=(0,))
    cfg = replace(cfg, optimizer=replace(cfg.optimizer, eta=1e308))  # the second step's loss overflows
    res = train(cfg)
    with open(res.seeds[0].metrics_path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["diverged"] == "1"
    assert_divergence_recorded(res, "^non-finite loss$", step=2)


def assert_divergence_recorded(res, reason: str, step: int) -> None:
    """The seed's reason and step are in its result and in summary.json."""
    seed = res.seeds[0]
    assert re.search(reason, seed.diverged_reason) and seed.diverged_step == step
    with open(os.path.join(res.run_dir, "summary.json")) as fh:
        row = json.load(fh)["per_seed"][0]
    assert (row["diverged_reason"], row["diverged_step"]) == (seed.diverged_reason, step)


def test_a_huge_radius_trains_or_records_divergence(tmp_path):
    res = train(micro_config(str(tmp_path / "huge"), rho=1e200, epochs=2))
    for seed in res.seeds:  # 2 epochs of 2 two-pass steps, or a divergence that says why
        assert seed.passes == 2 * 2 * 2 or (seed.diverged and seed.diverged_reason)


def test_healthy_seeds_record_no_divergence_reason(tmp_path):
    res = train(micro_config(str(tmp_path / "ok"), epochs=1, seeds=(0,)))
    with open(os.path.join(res.run_dir, "summary.json")) as fh:
        row = json.load(fh)["per_seed"][0]
    assert row["diverged"] is False
    assert row["diverged_reason"] is None and row["diverged_step"] is None


def test_programming_errors_inside_a_step_propagate(tmp_path, monkeypatch):
    def broken_backward(*args, **kwargs):
        raise ValueError("shapes (8, 6) and (5,) not aligned")

    monkeypatch.setattr(harness, "backward", broken_backward)  # the pass every training step makes
    with pytest.raises(ValueError, match="not aligned"):
        train(micro_config(str(tmp_path / "bug"), epochs=1, seeds=(0,)))


def test_diagnostics_rows_reach_disk_when_a_step_raises(tmp_path, monkeypatch):
    cfg = micro_config(str(tmp_path / "bug"), epochs=3, seeds=(0,))
    cfg = replace(cfg, train=replace(cfg.train, diagnostics_every=1))
    steps_per_epoch = cfg.data.synth.n_train // cfg.train.batch_size
    real_backward = harness.backward
    calls = []

    def backward_failing_in_epoch_3(*args, **kwargs):
        calls.append(1)
        if len(calls) > 2 * steps_per_epoch:
            raise ValueError("shapes (8, 6) and (5,) not aligned")
        return real_backward(*args, **kwargs)

    monkeypatch.setattr(harness, "backward", backward_failing_in_epoch_3)
    with pytest.raises(ValueError, match="not aligned") as excinfo:
        train(cfg)
    # excinfo still holds train()'s frames, so a file they left open is unflushed here.
    with open(os.path.join(cfg.out_dir, "seed_0", "diagnostics.csv"), newline="") as fh:
        header = fh.readline()
        rows = list(csv.DictReader(fh, fieldnames=header.strip().split(",")))
    assert header.startswith("seed,epoch,")
    assert [r["epoch"] for r in rows] == ["1", "2"]
    assert excinfo.value is not None


def test_train_from_saved_splits_matches_synth_source(tmp_path):
    cfg = micro_config(str(tmp_path / "synth"), rho=0.05, epochs=2, seeds=(0,))
    data = load_data(cfg.data)
    paths = {}
    for name in ("train", "val", "test"):
        paths[f"{name}_path"] = str(tmp_path / f"{name}.snnd")
        save_dataset(paths[f"{name}_path"], getattr(data, name))
    file_cfg = replace(cfg, out_dir=str(tmp_path / "file"), data=DataConfig(source="file", **paths))
    for a, b in zip(train(cfg).seeds, train(file_cfg).seeds):
        assert metrics_equal(a.metrics_path, b.metrics_path)
        ckpt_dir_a, ckpt_dir_b = Path(a.checkpoint_path).parent, Path(b.checkpoint_path).parent
        for name in ("best.bin", "final.bin"):
            assert (ckpt_dir_a / name).read_bytes() == (ckpt_dir_b / name).read_bytes()
    with pytest.raises(ValueError, match="val_path"):
        train(replace(file_cfg, data=replace(file_cfg.data, val_path="")))


@pytest.mark.parametrize("field", ["n_classes", "width"])
@pytest.mark.parametrize("split", ["val", "test"])
def test_file_split_that_disagrees_with_train_is_refused(tmp_path, split, field):
    data = load_data(micro_config("unused").data)
    paths = {}
    for name in ("train", "val", "test"):
        ds = getattr(data, name)
        if name == split and field == "n_classes":  # a class the trained net could never predict
            ds = Dataset(ds.frames, ds.labels, ds.n_classes + 1)
        elif name == split:
            ds = Dataset(ds.frames[:, :, :-1], ds.labels, ds.n_classes)
        paths[f"{name}_path"] = str(tmp_path / f"{name}.snnd")
        save_dataset(paths[f"{name}_path"], ds)
    with pytest.raises(ValueError, match=f"^{split} split has {field} "):
        load_data(DataConfig(source="file", **paths))


def test_a_split_that_disagrees_with_train_is_refused_from_its_header(tmp_path):
    data = load_data(micro_config("unused").data)
    paths = {f"{name}_path": str(tmp_path / f"{name}.snnd") for name in ("train", "val", "test")}
    for name in ("train", "val", "test"):
        ds = getattr(data, name)
        if name == "val":
            ds = Dataset(ds.frames[:, :, :-1], ds.labels, ds.n_classes)
        save_dataset(paths[f"{name}_path"], ds)
    with open(paths["val_path"], "r+b") as fh:  # and a payload cut short, which reading would refuse
        fh.truncate(os.path.getsize(paths["val_path"]) - 8)
    with pytest.raises(ValueError, match="^val split has width 11, but the train split has 12$"):
        load_data(DataConfig(source="file", **paths))


def test_diagnostics_every_epoch_writes_one_row_per_epoch(tmp_path):
    cfg = micro_config(str(tmp_path / "d"), rho=0.05, epochs=3, seeds=(0,))
    res = train(replace(cfg, train=replace(cfg.train, diagnostics_every=1)))
    with open(os.path.join(res.run_dir, "seed_0", "diagnostics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["epoch"]) for r in rows] == [("0", "1"), ("0", "2"), ("0", "3")]
    for r in rows:
        assert float(r["transfer_gap"]) == float(r["surrogate_acc"]) - float(r["hard_acc"])


DIAGNOSTICS_HEADER = (
    "seed", "epoch",
    "m_theta_hat", "gamma_hat", "beta_sec", "sam_gap", "surrogate_acc", "hard_acc", "transfer_gap",
    "n_unconditioned", "mechanism_violations",
    *(f"{name}_{stat}" for name in ("param_grad_norm", "input_grad_norm", "sigma_min")
      for stat in ("mean", "std", "median", "iqr")),
)
PER_SEED_KEYS = {
    "seed", "best_epoch", "passes", "steps",
    "val_acc_surrogate", "val_acc_hard", "val_transfer_gap",
    "test_acc_surrogate", "test_acc_hard", "test_transfer_gap",
    "diverged", "diverged_reason", "diverged_step",
}


def test_run_records_keep_their_schemas(tmp_path):
    cfg = micro_config(str(tmp_path / "d"), rho=0.05, epochs=1, seeds=(0,))
    res = train(replace(cfg, train=replace(cfg.train, diagnostics_every=1)))
    with open(os.path.join(res.run_dir, "seed_0", "diagnostics.csv"), newline="") as fh:
        assert tuple(next(csv.reader(fh))) == DIAGNOSTICS_HEADER
    with open(os.path.join(res.run_dir, "summary.json")) as fh:
        assert set(json.load(fh)["per_seed"][0]) == PER_SEED_KEYS
    assert set(seed_record(res.seeds[0])) == PER_SEED_KEYS


def test_study_rows_carry_method_label(tmp_path):
    study = run_transfer_study(micro_config(str(tmp_path / "s"), epochs=2), rho_grid=(0.1, 0.2))
    best = study.by_rho[study.best_rho]
    rows = study.to_dict()["rows"]
    assert rows == [
        {"method": "baseline", **seed_record(s)} for s in study.baseline.seeds
    ] + [{"method": f"sast-rho{study.best_rho:g}", **seed_record(s)} for s in best.seeds]
    # The radius scores and headline medians are medians of the seed records.
    for rho, run in study.by_rho.items():
        records = run.records()
        assert study.val_scores[rho] == (
            float(np.median([r["val_acc_hard"] for r in records])),
            float(np.median([r["val_transfer_gap"] for r in records])),
        )
    assert study.baseline_gap_median == float(np.median([r["test_transfer_gap"] for r in rows[:2]]))
    assert study.best_surrogate_median == float(np.median([r["test_acc_surrogate"] for r in rows[2:]]))


BLOWN_UP_RHO = 0.3


def blow_up_one_radius(monkeypatch) -> None:
    """Make the ascent step of radius ``BLOWN_UP_RHO`` overflow the next forward's drive."""
    real = optim.sam_perturbation

    def perturbation(grad, rho):
        return np.sign(grad) * 1e308 if rho == BLOWN_UP_RHO else real(grad, rho)

    monkeypatch.setattr(optim, "sam_perturbation", perturbation)


def run_files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def assert_runs_match(lockstep: dict[str, Path], separate: dict[str, Path]) -> None:
    """Each separate run's files equal the lockstep run's, metrics outside the wall clock."""
    for name, path in separate.items():
        if name.endswith("metrics.csv"):
            assert metrics_equal(str(lockstep[name]), str(path)), name
        elif not name.endswith("config.json"):  # which differs by out_dir only
            assert lockstep[name].read_bytes() == path.read_bytes(), name


@pytest.mark.parametrize("policy", [INDEPENDENT, REUSED])
def test_lockstep_study_matches_separate_train_runs(tmp_path, monkeypatch, policy):
    blow_up_one_radius(monkeypatch)
    base = micro_config(str(tmp_path / "lockstep"), epochs=4, seeds=(0, 1))
    base = replace(
        base,
        optimizer=replace(base.optimizer, second_batch=policy),
        train=replace(base.train, pass_budget=10, checkpoint_every=1, diagnostics_every=2),
    )
    data = load_data(base.data)
    rho_grid = (0.05, BLOWN_UP_RHO, 0.2)
    study = run_transfer_study(base, rho_grid=rho_grid, data=data)
    for run in [study.baseline, *study.by_rho.values()]:  # each arm again, alone
        sub = os.path.relpath(run.run_dir, base.out_dir)
        train(replace(run.config, out_dir=str(tmp_path / "separate" / sub)), data)

    lockstep, separate = run_files(tmp_path / "lockstep"), run_files(tmp_path / "separate")
    assert set(separate) == set(lockstep) - {"study.json"}
    assert sum(name.endswith(".bin") for name in separate) >= 4 * 2 * 3  # per arm-seed: epoch 1, best, final
    assert_runs_match(lockstep, separate)

    blown = study.by_rho[BLOWN_UP_RHO].seeds
    assert all(s.diverged and s.diverged_step == 1 for s in blown)
    assert all(re.fullmatch(r"non-finite membrane state at layer 1, step \d+", s.diverged_reason) for s in blown)
    healthy = [s for run in (study.baseline, study.by_rho[0.05], study.by_rho[0.2]) for s in run.seeds]
    assert not any(s.diverged for s in healthy)
    # the budget stops each arm after the step that reaches it, in its own epoch
    passes = {run.config.method_label: run.seeds[0].passes for run in (study.baseline, study.by_rho[0.2])}
    assert passes == {"baseline": 10, "sast-rho0.2": 10}
    epochs = {label: len(lockstep[f"{label}/seed_0/metrics.csv"].read_text().splitlines()) - 1 for label in passes}
    assert epochs == {"baseline": 3, "sast-rho0.2": 2 if policy == REUSED else 3}


def test_a_lockstep_group_of_mixed_step_shapes_matches_separate_train_runs(tmp_path):
    # One round serves one-pass steps, paired two-pass steps and reused
    # two-pass steps together, and a budget that stops mid-epoch.
    base = micro_config(str(tmp_path / "lockstep" / "baseline"), epochs=3)
    base = replace(base, train=replace(base.train, checkpoint_every=1))
    arms = {
        "independent": {"optimizer": replace(base.optimizer, rho=0.1)},
        "reused": {"optimizer": replace(base.optimizer, rho=0.2, second_batch=REUSED)},
        "odd-budget": {"train": replace(base.train, pass_budget=7)},
    }
    cfgs = [base] + [replace(base, out_dir=str(tmp_path / "lockstep" / name), **kw) for name, kw in arms.items()]
    data = load_data(base.data)
    harness._train_lockstep(cfgs, data)
    for cfg in cfgs:
        train(replace(cfg, out_dir=str(tmp_path / "separate" / Path(cfg.out_dir).name)), data)

    lockstep, separate = run_files(tmp_path / "lockstep"), run_files(tmp_path / "separate")
    assert set(separate) == set(lockstep)
    assert sum(name.endswith(".bin") for name in separate) >= 4 * 2 * 3  # per arm-seed: epoch 1, best, final
    assert_runs_match(lockstep, separate)
    with open(tmp_path / "lockstep" / "odd-budget" / "summary.json") as fh:
        assert [row["passes"] for row in json.load(fh)["per_seed"]] == [7, 7]


def test_a_programming_error_in_one_lockstep_arm_propagates_and_closes_every_file(tmp_path, monkeypatch):
    real = optim.sam_perturbation
    calls = []

    def perturbation(grad, rho):
        calls.append(rho)
        if calls.count(0.2) > 2:  # the first step of epoch 2
            raise ValueError("shapes (8, 6) and (5,) not aligned")
        return real(grad, rho)

    monkeypatch.setattr(optim, "sam_perturbation", perturbation)
    cfg = micro_config(str(tmp_path / "bug"), epochs=3, seeds=(0,))
    with pytest.raises(ValueError, match="not aligned") as excinfo:
        run_transfer_study(cfg, rho_grid=(0.1, 0.2))
    # excinfo still holds the driver's frames, so a file they left open is unflushed here.
    for arm in ("baseline", "sast-rho0.1", "sast-rho0.2"):
        with open(tmp_path / "bug" / arm / "seed_0" / "metrics.csv", newline="") as fh:
            assert [row["epoch"] for row in csv.DictReader(fh)] == ["1"], arm
    assert excinfo.value is not None


# ---------------------------------------------------------------------------
# Seed shares trained in forked children
# ---------------------------------------------------------------------------


def fork_every_share(monkeypatch) -> list[str]:
    """Split every run's seeds over two shares and fork the second, however
    small the run; the names of the children started, as they start."""
    started = []

    class Counted(harness._FORK.Process):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(harness, "_FORK_MIN_PASSES", 0)
    monkeypatch.setattr(harness, "_cores", lambda: 2)
    monkeypatch.setattr(harness._FORK, "Process", Counted)
    return started


def test_a_platform_without_fork_or_affinity_trains_every_seed_here(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_FORK_MIN_PASSES", 0)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert harness._seed_shares((0, 1, 2), 1, (48, 16)) == [(0, 1), (2,)]
    monkeypatch.setattr(harness, "_FORK", None)  # as on Windows
    assert harness._seed_shares((0, 1, 2), 1, (48, 16)) == [(0, 1, 2)]
    pids = []
    real = harness._train_seed

    def train_seed(*args):
        pids.append(os.getpid())  # a forked child's append would not reach this list
        return real(*args)

    monkeypatch.setattr(harness, "_train_seed", train_seed)
    train(micro_config(str(tmp_path / "run"), epochs=2, seeds=(0, 1)))
    assert pids == [os.getpid()] * 2


def test_a_network_too_wide_for_serial_drives_trains_every_seed_here(monkeypatch):
    started = fork_every_share(monkeypatch)
    assert harness._seed_shares((0, 1, 2), 1, (48, 16, 16, 16)) == [(0, 1), (2,)]
    # At 48->32 a drive block under 2^18 would hold 170 rows: too short to cut.
    assert harness._seed_shares((0, 1, 2), 1, (48, 32)) == [(0, 1, 2)]
    assert harness._seed_shares((0, 1, 2), 1, (48, 16, 256)) == [(0, 1, 2)]
    assert not started


@pytest.mark.parametrize("policy", [INDEPENDENT, REUSED])
def test_a_forked_study_writes_what_an_in_process_study_writes(tmp_path, monkeypatch, policy):
    blow_up_one_radius(monkeypatch)
    base = micro_config(str(tmp_path / "in_process"), epochs=3, seeds=(0, 1))
    base = replace(
        base,
        optimizer=replace(base.optimizer, second_batch=policy),
        train=replace(base.train, checkpoint_every=1, diagnostics_every=2),
    )
    data = load_data(base.data)
    rho_grid = (0.05, BLOWN_UP_RHO)
    in_process = run_transfer_study(base, rho_grid=rho_grid, data=data)
    started = fork_every_share(monkeypatch)
    forked = run_transfer_study(replace(base, out_dir=str(tmp_path / "forked")), rho_grid=rho_grid, data=data)

    assert started == ["seeds 1"]
    files = run_files(tmp_path / "forked")
    assert set(files) == set(run_files(tmp_path / "in_process"))
    assert_runs_match(files, run_files(tmp_path / "in_process"))
    # seed 1 trained in the child, and its blown-up radius diverged there as it does here
    blown = [(s.seed, s.diverged_reason, s.diverged_step) for s in forked.by_rho[BLOWN_UP_RHO].seeds]
    assert blown == [(s.seed, s.diverged_reason, s.diverged_step) for s in in_process.by_rho[BLOWN_UP_RHO].seeds]
    assert [seed for seed, reason, step in blown if reason and step] == [0, 1]


def test_an_error_in_a_forked_share_is_raised_here_with_every_file_closed(tmp_path, monkeypatch):
    fork_every_share(monkeypatch)
    real = harness._Arm.end_epoch

    def end_epoch(arm, epoch, *args):
        if arm.seed == 1 and epoch == 2:  # in the child's share only
            raise ValueError("shapes (8, 6) and (5,) not aligned")
        return real(arm, epoch, *args)

    monkeypatch.setattr(harness._Arm, "end_epoch", end_epoch)
    with pytest.raises(ValueError, match=r"^shapes \(8, 6\) and \(5,\) not aligned$") as excinfo:
        run_transfer_study(micro_config(str(tmp_path / "bug"), epochs=3, seeds=(0, 1)), rho_grid=(0.1, 0.2))
    assert "in the child training seeds 1" in str(excinfo.value.__cause__)
    for arm in ("baseline", "sast-rho0.1", "sast-rho0.2"):
        for seed, epochs in ((0, ["1", "2", "3"]), (1, ["1"])):
            with open(tmp_path / "bug" / arm / f"seed_{seed}" / "metrics.csv", newline="") as fh:
                assert [row["epoch"] for row in csv.DictReader(fh)] == epochs, (arm, seed)


def test_an_error_in_this_process_share_ends_the_forked_shares(tmp_path, monkeypatch):
    fork_every_share(monkeypatch)
    real = harness._Arm.end_epoch

    def end_epoch(arm, epoch, *args):
        if arm.seed == 0 and epoch == 2:
            raise ValueError("shapes (8, 6) and (5,) not aligned")
        if arm.seed == 1:
            time.sleep(10.0)  # the child is still training when this process raises
        return real(arm, epoch, *args)

    monkeypatch.setattr(harness._Arm, "end_epoch", end_epoch)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="not aligned"):
        train(micro_config(str(tmp_path / "bug"), epochs=3, seeds=(0, 1)))
    assert time.perf_counter() - t0 < 5.0  # the child was terminated, not waited for
    assert not multiprocessing.active_children()


def test_calibration_ops_in_a_forked_share_count_here(tmp_path, monkeypatch):
    # Criterion 09 reads this process's counter: a child's ops must reach it.
    fork_every_share(monkeypatch)
    reset_calibration_ops()
    cfg = micro_config(str(tmp_path / "pure"), epochs=2, seeds=(0, 1))
    train(cfg)
    assert calibration_ops() == 0
    real = harness._Arm.end_epoch

    def calibrating_end_epoch(arm, *args):
        harness.apply_threshold_scale(arm.params, [1.0])
        return real(arm, *args)

    monkeypatch.setattr(harness._Arm, "end_epoch", calibrating_end_epoch)
    train(replace(cfg, out_dir=str(tmp_path / "impure")))
    assert calibration_ops() == 2 * 2  # each epoch of each seed
    reset_calibration_ops()


def test_a_radius_at_the_top_of_the_float_range_trains_or_records_divergence(tmp_path):
    # rho / ||g|| overflows here; the perturbed point's loss may too, which is not an error
    cfg = micro_config(str(tmp_path / "top"), rho=1e308, epochs=2)
    res = train(replace(cfg, optimizer=replace(cfg.optimizer, second_batch=REUSED)))
    for seed in res.seeds:  # 2 epochs of 4 reused two-pass steps, or a divergence that says why
        assert seed.passes == 2 * 4 * 2 or (seed.diverged and seed.diverged_reason)


# ---------------------------------------------------------------------------
# Pass accounting and compute matching
# ---------------------------------------------------------------------------


def test_planned_passes_formula():
    base = micro_config("x", epochs=3)  # 32 train, batch 8 -> 4 chunks
    assert planned_passes(base, 32) == 12  # single pass per step
    two_ind = micro_config("x", rho=0.1, epochs=3)
    assert planned_passes(two_ind, 32) == 12  # 2 paired steps/epoch, 2 passes each
    two_reused = RunConfig(
        out_dir="x",
        model=base.model, surrogate=base.surrogate,
        optimizer=OptimizerConfig(eta=0.5, rho=0.1, second_batch=REUSED),
        data=base.data, train=base.train,
    )
    assert planned_passes(two_reused, 32) == 24
    capped = RunConfig(
        out_dir="x", model=base.model, surrogate=base.surrogate, optimizer=base.optimizer,
        data=base.data,
        train=TrainSettings(epochs=3, batch_size=8, seeds=(0,), pass_budget=7),
    )
    assert planned_passes(capped, 32) == 7


def test_match_compute_equal_pass_budget(tmp_path):
    cfg = RunConfig(
        out_dir=str(tmp_path / "two-pass"),
        model=ModelConfig(hidden_dims=(6,)),
        surrogate=SurrogateConfig(slope=2.0),
        optimizer=OptimizerConfig(eta=0.5, rho=0.2, second_batch=REUSED),
        data=micro_config("x").data,
        train=TrainSettings(epochs=3, batch_size=8, seeds=(0,)),
    )
    matched = match_compute(cfg, 32)
    assert matched.optimizer.rho == 0.0
    assert matched.train.method_label.endswith("-matched-baseline")
    budget = planned_passes(cfg, 32)
    assert matched.train.pass_budget == budget
    assert abs(planned_passes(matched, 32) - budget) <= 1
    with pytest.raises(ValueError):
        match_compute(micro_config("x", rho=0.0), 32)


def test_matched_run_consumes_budget(tmp_path):
    cfg = micro_config(str(tmp_path / "sast"), rho=0.2, epochs=3, seeds=(0,))
    budget = planned_passes(cfg, 32)
    matched = match_compute(cfg, 32)
    matched = harness.replace(matched, out_dir=str(tmp_path / "matched"))
    res = train(matched)
    assert abs(res.seeds[0].passes - budget) <= 1


# ---------------------------------------------------------------------------
# Protocol purity: calibration is opt-in and instrumented
# ---------------------------------------------------------------------------


def test_default_paths_never_calibrate(tmp_path):
    reset_calibration_ops()
    data = load_data(micro_config("unused").data)
    res = train(micro_config(str(tmp_path / "pure"), epochs=2, seeds=(0,)), data)
    params, spec = load_checkpoint(res.seeds[0].checkpoint_path)
    evaluate(params, spec, data.test, HARD_MODE)
    evaluate(params, spec, data.test, SURROGATE_MODE)
    robustness_sweep(params, spec, data.test, severities=(0.0, 0.2))
    assert calibration_ops() == 0


def test_calibration_guarantee_and_instrumentation(tmp_path):
    reset_calibration_ops()
    data = load_data(micro_config("unused").data)
    res = train(micro_config(str(tmp_path / "cal"), epochs=2, seeds=(0,)), data)
    params, spec = load_checkpoint(res.seeds[0].checkpoint_path)
    assert 1.0 in CALIBRATION_GRID
    for mode in (GLOBAL_CALIBRATION, PER_LAYER_CALIBRATION):
        result = calibrate_thresholds(params, spec, data.val, mode=mode)
        assert result.val_acc >= result.uncalibrated_val_acc  # identity is in the grid
        assert result.n_evals > 0
    assert calibration_ops() > 0
    n_layers = params.n_layers
    global_res = calibrate_thresholds(params, spec, data.val, mode=GLOBAL_CALIBRATION)
    assert global_res.n_evals == len(CALIBRATION_GRID)
    per_layer_res = calibrate_thresholds(params, spec, data.val, mode=PER_LAYER_CALIBRATION)
    assert per_layer_res.n_evals == n_layers * len(CALIBRATION_GRID)
    assert len(per_layer_res.lambdas) == n_layers


def full_pass_reference(params, spec, ds, grid, mode):
    """Calibration scoring every candidate with a full ``accuracy`` call.

    Global mode is one stage over one scale; per-layer mode is coordinate ascent
    over one scale per layer.
    """
    scales, n_evals = [1.0] * (params.n_layers if mode == PER_LAYER_CALIBRATION else 1), 0
    for idx in range(len(scales)):
        cands = []
        for lam in grid:
            trial = list(scales)
            trial[idx] = lam
            n_evals += 1
            scaled = harness.apply_threshold_scale(params, trial)
            cands.append((lam, accuracy(scaled, spec, ds.frames, ds.labels, HARD_MODE)))
        scales[idx], best = max(cands, key=lambda sa: (sa[1], -abs(sa[0] - 1.0), -sa[0]))
    return tuple(scales), best, n_evals


def full_pass_cases(test):
    """Parametrize ``test`` over the nets, grids and seeds both calibration modes are checked on."""
    test = pytest.mark.parametrize("seed", [0, 1, 2])(test)
    test = pytest.mark.parametrize("grid", [CALIBRATION_GRID, (0.8, 1.2, 0.5, 0.8, 1.5)], ids=["default", "ties"])(test)
    return pytest.mark.parametrize("dims", [(5, 4), (5, 6, 4), (5, 6, 4, 3)])(test)


def check_full_pass_scoring(mode, dims, grid, seed):
    rng = np.random.default_rng(seed)
    params = init_network(dims, 3, alpha=0.6, theta=0.4, weight_scale=1.5, seed=rng)
    ds = events.Dataset((rng.random((40, 5, dims[0])) < 0.4).astype(np.float64), rng.integers(0, 3, size=40), 3)
    spec = SurrogateConfig(slope=2.0).spec()
    lambdas, val_acc, n_evals = full_pass_reference(params, spec, ds, grid, mode)
    before = calibration_ops()
    result = calibrate_thresholds(params, spec, ds, mode=mode, grid=grid)
    assert calibration_ops() - before == n_evals == result.n_evals
    assert (result.lambdas, result.val_acc) == (lambdas, val_acc)
    assert result.uncalibrated_val_acc == accuracy(params, spec, ds.frames, ds.labels, HARD_MODE)


@full_pass_cases
def test_per_layer_calibration_equals_full_pass_scoring(dims, grid, seed):
    check_full_pass_scoring(PER_LAYER_CALIBRATION, dims, grid, seed)


@full_pass_cases
def test_global_calibration_equals_full_pass_scoring(dims, grid, seed):
    check_full_pass_scoring(GLOBAL_CALIBRATION, dims, grid, seed)


@pytest.mark.parametrize("mode", [GLOBAL_CALIBRATION, PER_LAYER_CALIBRATION])
def test_calibration_computes_each_stage_drive_once(mode, monkeypatch):
    # Widths differ per layer, so a drive's weight shape names its layer.
    rng = np.random.default_rng(3)
    params = init_network((5, 6, 4, 3), 3, alpha=0.6, theta=0.4, weight_scale=1.5, seed=rng)
    ds = events.Dataset((rng.random((40, 5, 5)) < 0.4).astype(np.float64), rng.integers(0, 3, size=40), 3)
    calls = []
    real = network.layer_drive

    def counted(layer, x):
        calls.append(layer.weight.shape)
        return real(layer, x)

    monkeypatch.setattr(network, "layer_drive", counted)  # the drives lif_layer computes for itself
    monkeypatch.setattr(harness, "layer_drive", counted)  # the shared drives
    calibrate_thresholds(params, SurrogateConfig(slope=2.0).spec(), ds, mode=mode)
    g = len(CALIBRATION_GRID)
    # Layer 1's drive is shared by the uncalibrated pass and every candidate.  A
    # layer above runs its own drive once in the uncalibrated pass, then once per
    # candidate of each stage below it; in per-layer mode, once more for its own stage.
    if mode == GLOBAL_CALIBRATION:
        want = [1] + [1 + g] * (params.n_layers - 1)
    else:
        want = [1] + [1 + g * idx + 1 for idx in range(1, params.n_layers)]
    assert [calls.count(layer.weight.shape) for layer in params.layers] == want


def test_apply_threshold_scale_leaves_its_input_alone():
    params = init_network((4, 3, 2), 2, alpha=0.5, theta=0.5, seed=np.random.default_rng(6))
    before = parameter_vector(params, True)
    scaled = harness.apply_threshold_scale(params, [2.0, 0.5])
    np.testing.assert_array_equal(parameter_vector(params, True), before)
    vec = parameter_vector(scaled)
    for layer, sl, lam in zip(scaled.layers, threshold_slices(scaled), (2.0, 0.5)):
        np.testing.assert_array_equal(layer.threshold, vec[sl])
        np.testing.assert_array_equal(layer.threshold, before[sl] * lam)


def test_refused_threshold_scales_count_no_calibration_op():
    params = init_network((4, 3, 3, 2), 2, seed=np.random.default_rng(6))
    before = calibration_ops()
    for scales in ([0.0], [-1.0], [np.nan], [np.inf], [2.0, 0.5]):  # the last gives two scales for three layers
        with pytest.raises(ValueError):
            harness.apply_threshold_scale(params, scales)
    assert calibration_ops() == before


@pytest.mark.parametrize("mode", [GLOBAL_CALIBRATION, PER_LAYER_CALIBRATION])
@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_calibration_refuses_a_bad_grid_scale_by_value(mode, scale):
    params, spec, ds = evaluation_fixture()
    before = calibration_ops()
    with pytest.raises(ValueError, match=re.escape(f"threshold scale {scale!r} ")):
        calibrate_thresholds(params, spec, ds, mode=mode, grid=(1.0, scale))
    assert calibration_ops() == before


@pytest.mark.parametrize("mode", [GLOBAL_CALIBRATION, PER_LAYER_CALIBRATION])
def test_calibration_reports_a_candidate_blow_up_as_the_full_pass_does(mode):
    # Layer 1 gets drive 0.8 from step 2 on: silent at threshold 1 (leak 0.01), but
    # both units fire at step 2 once scaled by 0.5, the grid's first scale, and
    # layer 2's weights of 1e308 then overflow its drive.
    params = NetworkParams(
        [
            LayerParams(np.full((2, 1), 0.8), np.zeros(2), np.ones(2)),
            LayerParams(np.full((2, 2), 1e308), np.zeros(2), np.ones(2)),
            LayerParams(np.eye(2), np.zeros(2), np.ones(2)),
        ],
        0.01, np.eye(2), np.zeros(2),
    )
    frames = np.ones((4, 3, 1))
    frames[:, 0] = 0.0
    ds = events.Dataset(frames, np.array([0, 1, 0, 1]), 2)
    spec = SurrogateConfig(slope=2.0).spec()
    hard = mode_spec(spec, HARD_MODE)
    forward(params, hard, frames)  # the uncalibrated pass stays finite, or this raises
    scaled = harness.apply_threshold_scale(params, [0.5] if mode == GLOBAL_CALIBRATION else [0.5, 1.0, 1.0])
    with pytest.raises(InstabilityError) as full_pass:
        forward(scaled, hard, frames)
    assert str(full_pass.value) == "non-finite membrane state at layer 2, step 2"
    with pytest.raises(InstabilityError, match=f"^{re.escape(str(full_pass.value))}$"):
        calibrate_thresholds(params, spec, ds, mode=mode)


def test_calibration_tie_break_prefers_identity():
    params = init_network((4, 3), 2, alpha=0.5, theta=0.5, weight_scale=1.0,
                          seed=np.random.default_rng(5))
    params.w_out[:] = 0.0  # accuracy is flat in the thresholds
    params.b_out[:] = np.array([1.0, 0.0])
    spec = SurrogateConfig(slope=2.0).spec()
    ds = load_data(micro_config("unused").data).val
    ds = type(ds)(ds.frames[:, :, :4], ds.labels, 2) if ds.frames.shape[2] != 4 else ds
    result = calibrate_thresholds(params, spec, ds, mode=GLOBAL_CALIBRATION)
    assert result.lambdas == (1.0,)


# ---------------------------------------------------------------------------
# Robustness sweep
# ---------------------------------------------------------------------------


def test_corruption_seeds_do_not_replay_a_neighbouring_seed():
    ones = np.ones((64, 4, 6))
    a = corrupted_copy(ones, EVENT_DROP, 0.5, 0)
    b = corrupted_copy(ones, EVENT_DROP, 0.5, 1)
    assert not any(np.array_equal(b[i], a[i + 1]) for i in range(63))
    # A sample's draw does not depend on how many samples follow it.
    assert np.array_equal(corrupted_copy(ones[:5], EVENT_DROP, 0.5, 0), a[:5])


def test_sweep_corrupts_and_evaluates_each_noisy_cell_once(monkeypatch):
    params, spec, ds = evaluation_fixture()
    counts = {"corrupt": 0, "accuracy": 0}
    real = {"corrupt": events.corrupt, "accuracy": diagnostics.accuracy}

    def counter(name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real[name](*args, **kwargs)

        return counted

    for name, modules in (("corrupt", (events, harness)), ("accuracy", (diagnostics, harness))):
        for module in modules:  # every binding of the function
            monkeypatch.setattr(module, name, counter(name))
    severities = (0.0, 0.1, 0.3)
    n_noisy = len(CORRUPTION_FAMILIES) * (len(severities) - 1)
    robustness_sweep(params, spec, ds, severities=severities)
    assert counts == {"corrupt": n_noisy, "accuracy": 2 * (1 + n_noisy)}


@pytest.mark.parametrize(
    "families, severities, match",
    [
        (CORRUPTION_FAMILIES, (0.4, 0.0), "severity 0.0 breaks"),
        (CORRUPTION_FAMILIES, (0.0, 0.2, 0.2), "severity 0.2 breaks"),
        (CORRUPTION_FAMILIES, (0.0, 1.5), "severity 1.5 breaks"),
        (CORRUPTION_FAMILIES, (-0.1, 0.2), "severity -0.1 breaks"),
        (CORRUPTION_FAMILIES, (0.0, float("nan")), "severity nan breaks"),
        (("salt",), (0.0,), "unknown corruption family 'salt'"),
        ((EVENT_DROP, "salt"), (0.0, 0.2), "unknown corruption family 'salt'"),
    ],
    ids=["descending", "repeated", "above_one", "negative", "nan", "unknown_family_clean_grid", "unknown_family"],
)
def test_robustness_sweep_refuses_a_grid_it_cannot_score(monkeypatch, families, severities, match):
    params, spec, ds = evaluation_fixture()

    def no_forward(*args, **kwargs):
        raise AssertionError("the grid must be refused before any forward")

    monkeypatch.setattr(harness, "accuracy", no_forward)
    with pytest.raises(ValueError, match=match):
        robustness_sweep(params, spec, ds, families=families, severities=severities)


def test_robustness_severity_zero_is_clean_accuracy(tmp_path):
    data = load_data(micro_config("unused").data)
    params = init_network((data.test.frames.shape[2], 6), 2, alpha=0.5, theta=0.5,
                          weight_scale=1.0, seed=np.random.default_rng(8))
    spec = SurrogateConfig(slope=2.0).spec()
    result = robustness_sweep(params, spec, data.test, severities=(0.0, 0.3))
    from spikesam.diagnostics import accuracy

    for mode in (SURROGATE_MODE, HARD_MODE):
        clean = accuracy(params, spec, data.test.frames, data.test.labels, mode)
        for family, curves in result.curves.items():
            assert curves[mode][0] == pytest.approx(clean, abs=0.0), family
    again = robustness_sweep(params, spec, data.test, severities=(0.0, 0.3))
    assert again.curves == result.curves
    payload = json.dumps(asdict(result))
    assert "auc" in payload


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _test_record(smooth: float, hard: float) -> dict:
    return {"test_acc_surrogate": smooth, "test_acc_hard": hard, "test_transfer_gap": smooth - hard}


def test_aggregate_frozen_stats():
    baseline = [_test_record(0.9, 0.7), _test_record(1.0, 0.9)]
    stats = aggregate(baseline)
    assert set(stats) == {"test_acc_surrogate", "test_acc_hard", "test_transfer_gap"}
    assert stats["test_acc_surrogate"].mean == pytest.approx(0.95)
    assert stats["test_acc_surrogate"].std == pytest.approx(0.07071067811865475, rel=1e-12)
    assert stats["test_transfer_gap"].median == pytest.approx(0.15)
    table = format_transfer_table({"baseline": baseline, "two-pass": [_test_record(0.95, 0.94)]})
    assert table.splitlines() == [
        "method                    n          smooth acc            hard acc      gap median [IQR]",
        "baseline                  2  0.9500 +/- 0.0707  0.8000 +/- 0.1414  0.1500 [0.0500]",
        "two-pass                  1  0.9500 +/- 0.0000  0.9400 +/- 0.0000  0.0100 [0.0000]",
    ]


def test_report_over_run_dirs(tmp_path):
    data = load_data(micro_config("unused").data)
    m1, m2 = str(tmp_path / "m1"), str(tmp_path / "m2")
    train(micro_config(m1, rho=0.0, epochs=2, seeds=(0, 1)), data)
    train(micro_config(m2, rho=0.1, epochs=2, seeds=(0, 1)), data)
    out_path = str(tmp_path / "table.txt")
    table = report([m1, m2, m1], out_path=out_path)
    # Directories sharing a method label pool their seeds, in first-seen order.
    assert [line.split()[:2] for line in table.splitlines()[1:]] == [
        ["baseline", "4"],
        ["sast-rho0.1", "2"],
    ]
    assert Path(out_path).read_text() == table + "\n"


def test_report_reads_a_summary_written_before_the_val_gap(tmp_path):
    run = str(tmp_path / "run")
    train(micro_config(run, rho=0.1, epochs=2, seeds=(0, 1)))
    table = report([run])
    path = Path(run) / "summary.json"
    summary = json.loads(path.read_text())
    del summary["aggregate"]["val_transfer_gap"]
    for row in summary["per_seed"]:
        del row["val_transfer_gap"]
    path.write_text(json.dumps(summary))
    assert report([run]) == table


# ---------------------------------------------------------------------------
# Memory model
# ---------------------------------------------------------------------------


def test_estimate_step_memory_two_pass_delta():
    params = init_network((48, 16, 16, 16), 2, alpha=0.6, theta=0.5, weight_scale=1.5,
                          seed=np.random.default_rng(1))
    single = estimate_step_memory(params, batch_size=32, n_steps=8, two_pass=False)
    double = estimate_step_memory(params, batch_size=32, n_steps=8, two_pass=True)
    p_count = sum(l.weight.size + l.bias.size + l.threshold.size for l in params.layers)
    p_count += params.w_out.size + params.b_out.size
    assert double - single == 3 * p_count * 8
    assert 1.0 < double / single < 1.2


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def test_cli_end_to_end(tmp_path):
    cfg = micro_config(str(tmp_path / "run"), rho=0.1, epochs=2, seeds=(0,))
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, cfg)

    out_json = str(tmp_path / "new" / "dir" / "train.json")  # --out creates parent directories
    rc = cli.main(["train", "--config", cfg_path, "--out", out_json])
    assert rc == 0
    with open(out_json) as fh:
        train_out = json.load(fh)
    assert train_out["method"] == "sast-rho0.1"
    with open(tmp_path / "run" / "summary.json") as fh:
        assert train_out["seeds"] == json.load(fh)["per_seed"]

    ckpt = str(tmp_path / "run" / "seed_0" / "checkpoints" / "final.bin")
    data = load_data(cfg.data)
    val_path = str(tmp_path / "val.bin")
    save_dataset(val_path, data.val)

    eval_json = str(tmp_path / "eval.json")
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", val_path,
                     "--mode", "hard", "--out", eval_json]) == 0
    with open(eval_json) as fh:
        evaluated = json.load(fh)
    assert set(evaluated) == {"mode", "accuracy", "loss"}
    assert evaluated["mode"] == "hard" and evaluated["loss"] is None
    assert 0.0 <= evaluated["accuracy"] <= 1.0

    test_path = str(tmp_path / "test.bin")
    save_dataset(test_path, data.test)
    sweeps = {}
    for source in (["--data", test_path], ["--config", cfg_path]):
        sweep_json = str(tmp_path / f"sweep{source[0]}.json")
        assert cli.main(["sweep-robustness", "--checkpoint", ckpt, *source,
                         "--severities", "0.0", "0.2", "--out", sweep_json]) == 0
        with open(sweep_json) as fh:
            sweeps[source[0]] = json.load(fh)
    assert "auc" in sweeps["--data"] and sweeps["--config"] == sweeps["--data"]
    with pytest.raises(SystemExit) as both:
        cli.main(["sweep-robustness", "--checkpoint", ckpt, "--data", test_path,
                  "--config", cfg_path])
    assert both.value.code == 2

    cal_json = str(tmp_path / "cal.json")
    assert cli.main(["calibrate", "--checkpoint", ckpt, "--data", val_path,
                     "--out", cal_json]) == 0
    with open(cal_json) as fh:
        assert json.load(fh)["n_evals"] == len(CALIBRATION_GRID)

    diag_json = str(tmp_path / "diag.json")
    assert cli.main(["diagnose", "--checkpoint", ckpt, "--data", val_path,
                     "--max-samples", "4", "--out", diag_json]) == 0
    with open(diag_json) as fh:
        assert "beta_sec" in json.load(fh)

    match_json = str(tmp_path / "match.json")
    assert cli.main(["match-compute", "--config", cfg_path, "--out", match_json]) == 0
    with open(match_json) as fh:
        matched = json.load(fh)
    assert matched["optimizer"]["rho"] == 0.0

    table_path = tmp_path / "new" / "table.txt"
    assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(table_path)]) == 0
    assert table_path.read_text().startswith("method")

    study_json = str(tmp_path / "study.json")
    assert cli.main(["study", "--config", cfg_path, "--out-dir", str(tmp_path / "study"),
                     "--out", study_json]) == 0
    with open(study_json) as fh:
        study = json.load(fh)
    assert study["best_rho"] in RHO_GRID
    rows = study.pop("rows")
    assert [r["method"] for r in rows] == ["baseline", f"sast-rho{study['best_rho']:g}"]
    assert {"seed", "test_acc_surrogate", "test_acc_hard", "val_transfer_gap"} <= set(rows[0])
    with open(tmp_path / "study" / "study.json") as fh:
        assert json.load(fh) == study


def test_cli_verify_bounds(tmp_path, monkeypatch):
    out_json = str(tmp_path / "bounds.json")
    assert cli.main(["verify-bounds", "--configs", "3", "--probes", "4", "--out", out_json]) == 0
    with open(out_json) as fh:
        assert not any(json.load(fh).values())

    monkeypatch.setattr(diagnostics, "state_bounds", lambda assume: np.zeros(assume.n_layers))
    assert cli.main(["verify-bounds", "--configs", "3", "--probes", "4", "--out", out_json]) == 1
    with open(out_json) as fh:
        assert json.load(fh)["state"] > 0


def test_cli_override_flag(tmp_path):
    cfg = micro_config(str(tmp_path / "run"), epochs=5, seeds=(0, 1))
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, cfg)
    out_json = str(tmp_path / "out.json")
    rc = cli.main([
        "train", "--config", cfg_path,
        "--set", "train.epochs=1", "--set", "train.seeds=[7]",
        "--out-dir", str(tmp_path / "other"),
        "--out", out_json,
    ])
    assert rc == 0
    with open(out_json) as fh:
        out = json.load(fh)
    assert out["run_dir"] == str(tmp_path / "other")
    assert [s["seed"] for s in out["seeds"]] == [7]
