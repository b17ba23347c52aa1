"""Super-model store, sub-model views, forward pass, and the cost model."""
from __future__ import annotations

import numpy as np
import pytest

from jointsearch.numerics import RngStream
from jointsearch.space import HyperConfig, LayerConfig, SpaceConfig, build_space
from jointsearch.supernet import (
    EVAL,
    TRAIN,
    ParamKey,
    forward,
    init_weights,
    sub_view,
)

from reference import backward_grads


def build(layers, input_dim=2, num_classes=2, hypers=()):
    return build_space(
        SpaceConfig(
            input_dim=input_dim,
            num_classes=num_classes,
            layers=tuple(layers),
            hyperparameters=tuple(hypers),
        )
    )


def two_affine_space():
    return build(
        [
            LayerConfig(candidates=("affine:8", "affine:16"), width=16),
            LayerConfig(candidates=("affine:8", "affine:16"), width=16),
        ]
    )


# ---------------------------------------------------------------------------
# init_weights
# ---------------------------------------------------------------------------


def test_init_two_layer_two_op_space_has_eight_keys():
    space = two_affine_space()
    weights = init_weights(space, RngStream(0, "init"))
    assert len(weights.store) == 8  # 2 layers x 2 ops x {weight, bias}
    for layer in (0, 1):
        for op in (0, 1):
            assert ParamKey(layer, op, "weight") in weights.store
            assert ParamKey(layer, op, "bias") in weights.store


def test_init_identity_contributes_no_keys():
    space = build([LayerConfig(candidates=("identity", "affine:2"), width=2)])
    weights = init_weights(space, RngStream(0, "init"))
    assert set(weights.store) == {ParamKey(0, 1, "weight"), ParamKey(0, 1, "bias")}


def test_init_same_seed_identical_different_seed_not():
    space = two_affine_space()
    a = init_weights(space, RngStream(5, "init"))
    b = init_weights(space, RngStream(5, "init"))
    c = init_weights(space, RngStream(6, "init"))
    for key in a.store:
        assert np.array_equal(a.store[key], b.store[key])
    assert any(not np.array_equal(a.store[k], c.store[k]) for k in a.store)
    assert np.array_equal(a.head_weight, b.head_weight)


def test_init_scales_and_bias():
    space = two_affine_space()
    weights = init_weights(space, RngStream(1, "init"))
    w = weights.store[ParamKey(0, 1, "weight")]  # affine:16 on 2-dim input
    assert w.shape == (2, 16)
    bound = 1.0 / np.sqrt(2.0)
    assert np.all(np.abs(w) <= bound)
    assert np.array_equal(weights.store[ParamKey(0, 1, "bias")], np.zeros(16))
    # fixed head: last layer width -> classes, zero bias
    assert weights.head_weight.shape == (16, 2)
    assert np.array_equal(weights.head_bias, np.zeros(2))


# ---------------------------------------------------------------------------
# sub_view
# ---------------------------------------------------------------------------


def test_sub_view_all_identity_is_empty():
    space = build(
        [
            LayerConfig(candidates=("identity", "affine:2"), width=2),
            LayerConfig(candidates=("identity", "affine:2"), width=2),
        ]
    )
    view = sub_view(space, (0, 0))
    assert view.keys == ()
    assert [keys for _, _, keys in view.layers] == [(), ()]


def test_sub_view_lists_exactly_the_selected_ops():
    space = two_affine_space()
    view = sub_view(space, [0, 1])
    assert view.selection == (0, 1)
    assert view.keys == (
        ParamKey(0, 0, "weight"),
        ParamKey(0, 0, "bias"),
        ParamKey(1, 1, "weight"),
        ParamKey(1, 1, "bias"),
    )
    layer0, layer1 = space.arch_decisions
    assert view.layers == (
        (layer0, layer0.candidates[0], view.keys[:2]),
        (layer1, layer1.candidates[1], view.keys[2:]),
    )


def test_sub_view_rejects_out_of_range_selection():
    space = two_affine_space()
    with pytest.raises(ValueError):
        sub_view(space, (0, 2))


def test_union_of_views_covers_the_store():
    space = build(
        [
            LayerConfig(candidates=("identity", "affine:4", "affine-relu:8"), width=8),
            LayerConfig(candidates=("affine:8", "affine-tanh:8")),
        ]
    )
    weights = init_weights(space, RngStream(2, "init"))
    seen = set()
    for i in range(3):
        for j in range(2):
            seen.update(sub_view(space, (i, j)).keys)
    assert seen == set(weights.store)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_identity_layer_passes_input_to_head():
    space = build([LayerConfig(candidates=("identity",))], input_dim=2)
    weights = init_weights(space, RngStream(3, "init"))
    x = RngStream(4, "x").normal((5, 2))
    logits = forward(weights, sub_view(space, (0,)), x, EVAL)
    expected = x @ weights.head_weight + weights.head_bias
    assert np.allclose(logits, expected, atol=0.0)


def test_forward_eval_is_deterministic():
    space = two_affine_space()
    weights = init_weights(space, RngStream(5, "init"))
    x = RngStream(6, "x").normal((4, 2))
    a = forward(weights, sub_view(space, (1, 0)), x, EVAL)
    b = forward(weights, sub_view(space, (1, 0)), x, EVAL)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "candidate, width",
    [
        ("identity", None),
        ("affine:8", None),
        ("affine-relu:8", None),
        ("affine-tanh:8", None),
        ("affine-relu:8", 16),  # padded
        ("affine-tanh:24", 16),  # truncated
    ],
    ids=["identity", "affine", "affine-relu", "affine-tanh", "padded", "truncated"],
)
def test_forward_train_with_keep_one_matches_eval(candidate, width):
    space = build([LayerConfig(candidates=(candidate,), width=width)] * 2)
    weights = init_weights(space, RngStream(7, "init"))
    x = RngStream(8, "x").normal((4, 2))
    logits, layers = forward(
        weights,
        sub_view(space, (0, 0)),
        x,
        TRAIN,
        dropout_keep=1.0,
        rng=RngStream(9, "mask"),
    )
    eval_logits = forward(weights, sub_view(space, (0, 0)), x, EVAL)
    assert np.array_equal(logits, eval_logits)
    assert _layer_keys(layers) == set(sub_view(space, (0, 0)).keys)


def _layer_keys(layers):
    return {key for layer in layers for key in layer.keys}


def test_forward_pads_and_truncates_to_declared_width():
    # affine:8 inside a width-16 layer gets padded; affine:24 gets truncated
    space = build(
        [LayerConfig(candidates=("affine:8", "affine:24"), width=16)], input_dim=3
    )
    weights = init_weights(space, RngStream(10, "init"))
    x = RngStream(11, "x").normal((4, 3))
    for sel in [(0,), (1,)]:
        logits = forward(weights, sub_view(space, sel), x, EVAL)
        assert logits.shape == (4, 2)
    # padded path: logits must ignore head rows beyond the op's natural width
    w = weights.store[ParamKey(0, 0, "weight")]
    b = weights.store[ParamKey(0, 0, "bias")]
    hidden = x @ w + b
    padded = np.concatenate([hidden, np.zeros((4, 8))], axis=1)
    expected = padded @ weights.head_weight + weights.head_bias
    assert np.allclose(forward(weights, sub_view(space, (0,)), x, EVAL), expected, atol=0.0)


def test_forward_rejects_wrong_input_width():
    space = two_affine_space()
    weights = init_weights(space, RngStream(12, "init"))
    x = np.zeros((4, 3))
    with pytest.raises(ValueError):
        forward(weights, sub_view(space, (0, 0)), x, EVAL)


def test_forward_depends_only_on_view_keys():
    space = two_affine_space()
    weights = init_weights(space, RngStream(13, "init"))
    x = RngStream(14, "x").normal((6, 2))
    view = sub_view(space, (0, 1))
    before = forward(weights, view, x, EVAL)
    outside = set(weights.store) - set(view.keys)
    for key in outside:
        weights.store[key] += 123.0
    after = forward(weights, view, x, EVAL)
    assert np.array_equal(before, after)


def test_forward_reads_the_view_tensors_from_params():
    space = two_affine_space()
    weights = init_weights(space, RngStream(13, "init"))
    x = RngStream(14, "x").normal((6, 2))
    view = sub_view(space, (1, 0))
    shifted = {key: weights.store[key] + 0.5 for key in view.keys}
    before = {key: value.copy() for key, value in weights.store.items()}
    from_params = forward(weights, view, x, EVAL, params=shifted)
    for key in view.keys:
        assert np.array_equal(weights.store[key], before[key])  # the store is never written
        weights.store[key] = shifted[key]
    assert np.array_equal(from_params, forward(weights, view, x, EVAL))


def test_writing_through_view_touches_only_view_keys():
    space = two_affine_space()
    weights = init_weights(space, RngStream(15, "init"))
    selection = (1, 0)
    view = sub_view(space, selection)
    snapshot = {key: value.copy() for key, value in weights.store.items()}
    for key in view.keys:
        weights.store[key] += 1.0
    for key in weights.store:
        if key in set(view.keys):
            assert not np.array_equal(weights.store[key], snapshot[key])
        else:
            assert np.array_equal(weights.store[key], snapshot[key])


def test_forward_train_gradients_flow_to_all_view_leaves():
    space = two_affine_space()
    weights = init_weights(space, RngStream(16, "init"))
    x = RngStream(17, "x").normal((4, 2))
    logits, layers = forward(
        weights, sub_view(space, (1, 1)), x, TRAIN, dropout_keep=1.0, rng=RngStream(0, "m")
    )
    # loss = sum(logits * logits), so d loss / d logits = 2 * logits
    grads = backward_grads(layers, weights.head_weight, 2.0 * logits)
    assert set(grads) == set(sub_view(space, (1, 1)).keys)
    for key, grad in grads.items():
        assert grad.shape == weights.store[key].shape
        assert np.any(grad != 0.0), f"no gradient reached {key}"


def test_forward_train_dropout_masks_and_scales():
    space = build([LayerConfig(candidates=("identity",))], input_dim=10)
    weights = init_weights(space, RngStream(18, "init"))
    x = np.ones((200, 10))
    view = sub_view(space, (0,))
    stream = RngStream(4, "mask")
    _, layers = forward(weights, view, x, TRAIN, dropout_keep=1.0, rng=stream)
    assert stream.counter == 0 and layers[0].scale is None  # keep=1 draws nothing

    keep = 0.7
    _, layers = forward(weights, view, x, TRAIN, dropout_keep=keep, rng=stream)
    scale = layers[0].scale
    assert stream.counter == x.size
    assert set(np.unique(scale)) <= {0.0, 1.0 / keep}
    survival = np.mean(scale != 0.0)
    # binomial 3-sigma bound around keep for 2000 draws
    assert abs(survival - keep) < 3 * np.sqrt(keep * (1 - keep) / x.size)
    again = forward(weights, view, x, TRAIN, dropout_keep=keep, rng=RngStream(4, "mask"))
    assert np.array_equal(again[1][0].scale, scale)  # the mask is a function of the counter
    for bad in (0.0, 1.5, (0.5, 0.5)):
        with pytest.raises(ValueError):
            forward(weights, view, x, TRAIN, dropout_keep=bad, rng=stream)
    with pytest.raises(ValueError):
        forward(weights, view, x, TRAIN, dropout_keep=0.5)  # dropout without an rng


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_cost_single_affine():
    space = build([LayerConfig(candidates=("affine:8",))], input_dim=2)
    assert sub_view(space, (0,)).cost == 16.0


def test_cost_all_identity_is_zero():
    space = build(
        [
            LayerConfig(candidates=("identity", "affine:4"), width=4),
            LayerConfig(candidates=("identity", "affine:4")),
        ]
    )
    assert sub_view(space, (0, 0)).cost == 0.0


def test_cost_three_stage_chain():
    # affine(2->8) + affine(8->16) + affine(16->2): 16 + 128 + 32 = 176
    space = build(
        [
            LayerConfig(candidates=("affine:8",)),
            LayerConfig(candidates=("affine:16",)),
            LayerConfig(candidates=("affine:2",)),
        ],
        input_dim=2,
    )
    assert sub_view(space, (0, 0, 0)).cost == 176.0


def test_cost_counts_only_selected_ops():
    space = build(
        [LayerConfig(candidates=("identity", "affine:8", "affine:16"), width=16)],
        input_dim=2,
    )
    assert sub_view(space, (0,)).cost == 0.0
    assert sub_view(space, (1,)).cost == 16.0
    assert sub_view(space, (2,)).cost == 32.0
