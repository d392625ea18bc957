"""Exact spectral norm of a dense matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralNormResult:
    """Largest singular value of a matrix.

    ``iterations`` is always 0; it stays only because the tracer in
    ``perfbench/layers.py`` reads it from every traced call.
    """

    value: float
    iterations: int


def spectral_norm(matrix: np.ndarray) -> SpectralNormResult:
    """``||matrix||_2``, the largest singular value computed by LAPACK."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return SpectralNormResult(float(np.linalg.norm(a, 2)) if a.size else 0.0, 0)
