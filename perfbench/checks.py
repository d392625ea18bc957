"""Correctness checks on the program's outputs.

Each check returns a list of failure messages, one per failed operation; an
empty list means the output is correct.  They take plain outputs, so the
tests can hand them deliberately wrong ones.
"""

from __future__ import annotations

import csv
import math
from typing import Mapping, Sequence

import numpy as np


def arrays_identical(label: str, saved: Sequence[np.ndarray], loaded: Sequence[np.ndarray]) -> list[str]:
    """Bit-for-bit equality of two array lists (shape, dtype and bytes)."""
    if len(saved) != len(loaded):
        return [f"{label}: {len(saved)} arrays saved, {len(loaded)} loaded"]
    for i, (a, b) in enumerate(zip(saved, loaded)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return [f"{label}: array {i} differs"]
    return []


def params_arrays(params) -> list[np.ndarray]:
    """Every array of a NetworkParams, in checkpoint order, plus the leak."""
    out: list[np.ndarray] = []
    for layer in params.layers:
        out.extend((layer.weight, layer.bias, layer.threshold))
    out.extend((params.w_out, params.b_out, np.array([params.alpha])))
    return out


def finite_losses(metrics_path: str) -> list[str]:
    """Every logged training loss in a metrics table is finite."""
    with open(metrics_path, newline="") as fh:
        losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
    if not losses:
        return [f"{metrics_path}: no epochs logged"]
    bad = sum(1 for x in losses if not math.isfinite(x))
    return [f"{metrics_path}: {bad} non-finite epoch losses"] if bad else []


def no_violations(label: str, violations: Mapping[str, int]) -> list[str]:
    """A bound-battery result with zero violations in every family."""
    bad = {k: v for k, v in violations.items() if v}
    return [f"{label}: violations {bad}"] if bad else []


def mechanism_holds(records: Sequence) -> list[str]:
    """The conditioned gradient link holds on every checked sample."""
    return [f"sample {i}: gradient link violated" for i, r in enumerate(records) if r.conditioned and not r.holds]


def calibration_not_worse(label: str, calibrated: float, uncalibrated: float) -> list[str]:
    """With 1 in the grid, calibration never lowers the hard accuracy."""
    return [f"{label}: calibrated {calibrated} < uncalibrated {uncalibrated}"] if calibrated < uncalibrated else []


def sweep_clean_point(curves: Mapping[str, Mapping[str, Sequence[float]]], clean: Mapping[str, float]) -> list[str]:
    """The severity-0 point of every curve equals the clean accuracy exactly."""
    out = []
    for family, by_mode in curves.items():
        for mode, curve in by_mode.items():
            if curve[0] != clean[mode]:
                out.append(f"{family}/{mode}: severity-0 accuracy {curve[0]} != clean {clean[mode]}")
    return out


def finite_values(label: str, values: Sequence[float]) -> list[str]:
    bad = sum(1 for x in values if not math.isfinite(x))
    return [f"{label}: {bad} non-finite values"] if bad else []
