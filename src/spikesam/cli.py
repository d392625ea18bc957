"""Command-line entry points for training, evaluation, studies and reports.

Subcommands take their inputs from explicit files (JSON configs, binary
checkpoints and datasets) or, for ``study`` and ``verify-bounds``, from
packaged defaults, and write results as JSON to stdout or a requested path.
Exit code 0 means the invoked operations and their internal assertions all
passed; any error, or a bound that ``verify-bounds`` finds broken, exits 1
with a message on stderr.  Without an installed entry point, run
``python -m spikesam.cli`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .diagnostics import bound_battery, diagnose
from .events import CORRUPTION_FAMILIES, SEVERITY_GRID, load_frames
from .network import HARD_MODE, SURROGATE_MODE, load_checkpoint


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_run_config(args: argparse.Namespace) -> harness.RunConfig:
    raw = harness.config_to_dict(harness.load_config(args.config))
    raw = harness.apply_overrides(raw, args.set or [])
    if args.out_dir:
        raw["out_dir"] = args.out_dir
    return harness.config_from_dict(raw)


def _cmd_train(args: argparse.Namespace) -> None:
    cfg = _load_run_config(args)
    result = harness.train(cfg)
    _emit(
        {
            "run_dir": result.run_dir,
            "method": cfg.method_label,
            "seeds": result.records(),
        },
        args.out,
    )


def _cmd_eval(args: argparse.Namespace) -> None:
    params, spec = load_checkpoint(args.checkpoint)
    ds = load_frames(args.data)
    _emit(dataclasses.asdict(harness.evaluate(params, spec, ds, args.mode)), args.out)


def _cmd_sweep_robustness(args: argparse.Namespace) -> None:
    params, spec = load_checkpoint(args.checkpoint)
    if args.data is not None:
        ds = load_frames(args.data)
    else:
        ds = harness.load_data(harness.load_config(args.config).data).test
    result = harness.robustness_sweep(
        params,
        spec,
        ds,
        families=args.families,
        severities=args.severities,
        corruption_seed=args.seed,
    )
    _emit(dataclasses.asdict(result), args.out)


def _cmd_calibrate(args: argparse.Namespace) -> None:
    params, spec = load_checkpoint(args.checkpoint)
    ds = load_frames(args.data)
    result = harness.calibrate_thresholds(params, spec, ds, mode=args.mode)
    _emit(dataclasses.asdict(result), args.out)


def _cmd_diagnose(args: argparse.Namespace) -> None:
    params, spec = load_checkpoint(args.checkpoint)
    ds = load_frames(args.data)
    report = diagnose(
        params,
        spec,
        ds.frames[: args.max_samples],
        ds.labels[: args.max_samples],
        rho=args.rho,
        max_mechanism_samples=args.max_samples,
    )
    _emit(report.to_row(), args.out)


def _cmd_match_compute(args: argparse.Namespace) -> None:
    cfg = _load_run_config(args)
    data = harness.load_data(cfg.data)
    matched = harness.match_compute(cfg, data.train.n_samples)
    _emit(harness.config_to_dict(matched), args.out)


def _cmd_study(args: argparse.Namespace) -> None:
    if args.config is None:
        cfg = harness.default_transfer_config()
    else:
        cfg = harness.load_config(args.config)
    if args.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    _emit(harness.run_transfer_study(cfg).to_dict(), args.out)


def _cmd_verify_bounds(args: argparse.Namespace) -> None:
    counts = bound_battery(args.configs, args.probes, args.seed)
    _emit(counts, args.out)
    if any(counts.values()):
        raise RuntimeError(f"closed-form bounds violated: {counts}")


def _cmd_report(args: argparse.Namespace) -> None:
    table = harness.report(args.runs, out_path=args.out)
    sys.stdout.write(table + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesam",
        description="Sharpness-aware training and bound-verification lab for spiking networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument(
            "--set",
            action="append",
            metavar="PATH=VALUE",
            help="override a config entry, e.g. train.epochs=5",
        )
        p.add_argument("--out-dir", default="", help="override the config's out_dir")

    def add_eval_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint", required=True, help="checkpoint file (.bin)")
        p.add_argument("--data", required=True, help="dataset file (.bin)")

    p = sub.add_parser("train", help="train one configuration over its seed list")
    add_config_args(p)
    p.add_argument("--out", default=None, help="write the result JSON here instead of stdout")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    add_eval_args(p)
    p.add_argument("--mode", choices=[SURROGATE_MODE, HARD_MODE], default=HARD_MODE)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep-robustness", help="accuracy across corruption severities")
    p.add_argument("--checkpoint", required=True, help="checkpoint file (.bin)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="dataset file (.bin)")
    source.add_argument("--config", help="run config JSON whose test split to regenerate")
    p.add_argument("--families", nargs="+", default=list(CORRUPTION_FAMILIES))
    p.add_argument("--severities", nargs="+", type=float, default=list(SEVERITY_GRID))
    p.add_argument("--seed", type=int, default=0, help="corruption seed (shared across models)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep_robustness)

    p = sub.add_parser("calibrate", help="grid-search threshold scales on validation data")
    add_eval_args(p)
    p.add_argument(
        "--mode",
        choices=[harness.GLOBAL_CALIBRATION, harness.PER_LAYER_CALIBRATION],
        default=harness.GLOBAL_CALIBRATION,
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("diagnose", help="empirical health snapshot of a checkpoint")
    add_eval_args(p)
    p.add_argument("--rho", type=float, default=0.1, help="probe radius for the sharpness gap")
    p.add_argument("--max-samples", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("match-compute", help="derive an equal-pass baseline config")
    add_config_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_match_compute)

    p = sub.add_parser("study", help="baseline vs. two-pass transfer study over the radius grid")
    p.add_argument("--config", default=None, help="run config JSON; omit for the packaged study")
    p.add_argument("--out-dir", default="", help="override the config's out_dir")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser("verify-bounds", help="falsification battery for the closed-form bounds")
    p.add_argument("--configs", type=int, default=100, help="random admissible configurations")
    p.add_argument("--probes", type=int, default=64, help="ascent-cap probes per configuration")
    p.add_argument("--seed", type=int, default=77)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify_bounds)

    p = sub.add_parser("report", help="consolidated transfer table over run directories")
    p.add_argument("--runs", nargs="+", required=True, help="run directories with summary.json")
    p.add_argument("--out", default=None, help="also write the table to this path")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:  # surface a clean message, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
