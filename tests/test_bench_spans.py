"""The benchmark's traced run wraps library functions by name; every name it
wraps must exist, and unwrapping must put the originals back."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

from jointsearch import supernet
from jointsearch.config import parse_config
from jointsearch.engine import search
from jointsearch.numerics import RngStream
from jointsearch.space import LayerConfig, SpaceConfig, build_space

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's namespace through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_resolve_and_unwrap(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    try:
        spans.install_layer_spans(tracer)  # a missing name raises AttributeError
        patches = list(tracer._patches)
        assert patches
        for owner, attr, _ in patches:
            assert hasattr(getattr(owner, attr), "__wrapped__")

        # forward's mode is read from its 4th positional argument.
        space = build_space(SpaceConfig(2, 2, (LayerConfig(("affine-relu:4",)),)))
        weights = supernet.init_weights(space, RngStream(0, "init"))
        supernet.forward(weights, (0,), np.zeros((3, 2)), supernet.EVAL)
        calls, _, _ = tracer.summary()
        assert calls["supernet.forward.eval"] == 1
    finally:
        tracer.unwrap_all()

    originals = {}
    for owner, attr, original in patches:
        originals.setdefault((id(owner), attr), (owner, original))
    for (_, attr), (owner, original) in originals.items():
        assert getattr(owner, attr) is original


def test_controller_sample_counted_once_per_phase(monkeypatch):
    # A controller-only search has one phase per meta-step; each phase is one
    # sample call that draws K * decisions words.
    spans = load_spans(monkeypatch)
    doc = {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity"] * 4} for _ in range(3)],
            "hyperparameters": [],
        },
        "data": {"generator": "none", "seed": 1},
        "search": {"total_meta_steps": 10, "pairs_per_step": 4},
    }
    tracer = spans.Tracer()
    try:
        spans.install_layer_spans(tracer)
        search(parse_config(doc), evaluate_override=lambda sel: (0.5, 0.0))
        calls, _, _ = tracer.summary()
    finally:
        tracer.unwrap_all()
    assert calls["controller.sample"] == 10
    assert tracer.counts["controller.sample.words"] == 120
