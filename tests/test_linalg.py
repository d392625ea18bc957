"""Spectral norm against dense SVD."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_net
from spikesam.linalg import spectral_norm
from spikesam.network import constant_bounds_extract


def test_matches_svd_on_random_rectangles():
    rng = np.random.default_rng(7)
    for shape in [(5, 5), (8, 3), (3, 8), (1, 6), (6, 1), (12, 12)]:
        m = rng.standard_normal(shape)
        got = spectral_norm(m)
        want = float(np.linalg.svd(m, compute_uv=False)[0])
        assert got.value == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_nearly_repeated_top_singular_value_is_exact():
    # sigma_1 and sigma_2 differ by 1e-7: an iterative estimate from below
    # stalls short of sigma_1, and a cap built from it is not a cap.
    rng = np.random.default_rng(11)
    q1, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    m = q1 @ np.diag([1.0, 1.0 - 1e-7, 0.5, 0.1]) @ q2.T
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert spectral_norm(m).value == pytest.approx(want, rel=1e-12)
    params = tiny_net(dims=(4, 6))
    params.layers[0].weight[:] = m
    assert constant_bounds_extract(params).m_a == pytest.approx(want, rel=1e-12)


def test_zero_matrix_is_zero():
    res = spectral_norm(np.zeros((4, 3)))
    assert res.value == 0.0


def test_rank_one_exact():
    u = np.array([3.0, 4.0])  # norm 5
    v = np.array([1.0, 2.0, 2.0])  # norm 3
    res = spectral_norm(np.outer(u, v))
    assert res.value == pytest.approx(15.0, rel=1e-10)


def test_diagonal_picks_largest_entry():
    res = spectral_norm(np.diag([0.5, -2.5, 1.0]))
    assert res.value == pytest.approx(2.5, rel=1e-10)


def test_deterministic_repeat():
    m = np.random.default_rng(3).standard_normal((7, 4))
    a = spectral_norm(m)
    b = spectral_norm(m)
    assert a == b


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros(3))
    with pytest.raises(ValueError):
        spectral_norm(np.array([[1.0, np.nan]]))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_property_close_to_svd_and_scales_linearly(rows, cols, seed, scale):
    m = np.random.default_rng(seed).standard_normal((rows, cols))
    base = spectral_norm(m).value
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert base == pytest.approx(want, rel=1e-8, abs=1e-10)
    assert spectral_norm(scale * m).value == pytest.approx(scale * base, rel=1e-7, abs=1e-10)
