"""The benchmark's traced view of the package still resolves.

``perfbench/layers.py`` names the package functions a ``--trace 1`` run
wraps, and reads fields of some of their results.  This test runs that
tracer, read from ``perfbench/`` as it stands, over one bound computation.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from conftest import ARCTAN_PI, tiny_net
from spikesam import bounds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_targets_resolve_and_spectral_norm_spans_carry_iterations(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    layers = importlib.import_module("layers")
    rec = spans.SpanRecorder()
    params = tiny_net(dims=(6, 5, 4))
    with spans.Tracer(rec, layers.targets()):
        bounds.assumptions_from(params, ARCTAN_PI, r_x=2.0, n_steps=4)
    norms = [sp for sp in rec.spans if sp[spans.NAME] == "linalg.spectral_norm"]
    # one per layer weight plus the readout
    assert len(norms) == params.n_layers + 1
    assert all(sp[spans.EXTRA] == 0 for sp in norms)
    assert any(sp[spans.NAME] == "bounds.assumptions_from" for sp in rec.spans)
