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
        view = supernet.sub_view(space, (0,))
        supernet.forward(weights, view, np.zeros((3, 2)), supernet.EVAL)
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
    # Every step updates; the logit step follows the warm-up, ceil(0.3 * 10) = 3.
    assert calls["controller.reinforce_update"] == 10
    assert calls["controller.optimizer_step"] == 7


def test_candidate_batches_drawn_in_one_call(monkeypatch):
    # A network search without mixup draws each scored candidate's
    # inner_steps train batches with one sample_indices call and each commit
    # batch with one more; the validation split is smaller than its batch, so
    # it is used whole. The data split adds one permutation of all n rows.
    # Scoring reads accuracy only, so eval_metrics never runs.
    steps, pairs, inner, batch, n = 3, 2, 3, 16, 120
    doc = {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity", "affine-relu:8"], "width": 8}],
            "hyperparameters": [
                {"name": "optimizer", "kind": "categorical", "basis": ["sgd", "adam"]}
            ],
        },
        "data": {"generator": "two_moons", "n": n, "seed": 2},
        "search": {
            "total_meta_steps": steps,
            "pairs_per_step": pairs,
            "inner_steps": inner,
            "train_batch_size": batch,
        },
    }
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    try:
        spans.install_layer_spans(tracer)
        search(parse_config(doc))
        calls, _, _ = tracer.summary()
    finally:
        tracer.unwrap_all()
    assert calls["engine.evaluate_candidate"] == steps * pairs
    assert calls["numerics.sample_indices"] == 2 * steps * pairs + 1
    words = tracer.counts["numerics.sample_indices.words"]
    assert words == steps * pairs * (inner + 1) * batch + n
    assert "engine.eval_metrics" not in calls
