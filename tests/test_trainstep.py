"""Trainer materialization, optimizer rules, temporary weights, commits."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from jointsearch import numerics
from jointsearch.numerics import RngStream
from jointsearch.persist import store_digest
from jointsearch.space import (
    OPTIMIZERS,
    HyperConfig,
    LayerConfig,
    SpaceConfig,
    build_space,
    selection_to_config,
)
from jointsearch.supernet import ParamKey, SuperModelWeights, init_weights, sub_view
from jointsearch.trainstep import (
    TrainerSpec,
    apply_mixup,
    build_trainer,
    commit_step,
    make_temporary,
    optimizer_step,
    trainer_from_derived,
)

from reference import reference_beta, reference_optimizer_step, taped_train_step


def plain_affine_space():
    return build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(LayerConfig(candidates=("affine:4",)),),
            hyperparameters=(),
        )
    )


def batch_for(space, n, seed=0):
    rng = RngStream(seed, "batch")
    x = rng.normal((n, space.input_dim))
    y = np.eye(space.num_classes)[np.arange(n) % space.num_classes]
    return x, y


# ---------------------------------------------------------------------------
# TrainerSpec validation
# ---------------------------------------------------------------------------


def test_trainer_spec_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        TrainerSpec(mixup_ratio=1.5)
    with pytest.raises(ValueError):
        TrainerSpec(dropout_keep=0.0)
    with pytest.raises(ValueError):
        TrainerSpec(dropout_keep=(0.5, 1.2))
    with pytest.raises(ValueError):
        TrainerSpec(weight_decay=-0.1)
    with pytest.raises(ValueError):
        TrainerSpec(optimizer="adagrad")
    with pytest.raises(ValueError):
        TrainerSpec(learning_rate=-0.01)


# ---------------------------------------------------------------------------
# build_trainer
# ---------------------------------------------------------------------------


def test_build_trainer_basis_lookup_and_defaults():
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(LayerConfig(candidates=("affine:4",)),),
            hyperparameters=(
                HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
                HyperConfig(name="optimizer", kind="categorical", basis=("adam", "sgd", "rmsprop")),
            ),
        )
    )
    spec = build_trainer(space, (0, 1, 1), learning_rate=0.5)
    assert spec.learning_rate == 0.01  # index 1 of the lr basis
    assert spec.optimizer == "sgd"  # index 1 of the optimizer basis
    # unsearched fields fall back to defaults
    assert spec.weight_decay == 0.0
    assert spec.mixup_ratio == 0.0
    assert spec.dropout_keep == 1.0


def test_build_trainer_uses_config_default_lr_when_not_searched():
    space = plain_affine_space()
    spec = build_trainer(space, (0,), learning_rate=0.07)
    assert spec.learning_rate == 0.07
    assert spec.optimizer == "sgd"
    assert build_trainer(space, (0,)).learning_rate == 0.01


def test_trainer_from_derived_keeps_continuous_values_exact():
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(LayerConfig(candidates=("affine:4",)),),
            hyperparameters=(
                HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
            ),
        )
    )
    derived = selection_to_config(space, (0, 1))
    derived = replace(derived, hyper_values=(0.0235,))  # off-basis blend
    spec = trainer_from_derived(space, derived)
    assert spec.learning_rate == 0.0235


# ---------------------------------------------------------------------------
# apply_mixup
# ---------------------------------------------------------------------------


def test_mixup_ratio_zero_is_identity_and_draws_nothing():
    x = np.arange(12.0).reshape(4, 3)
    y = np.eye(2)[[0, 1, 0, 1]]
    stream = RngStream(1, "mix")
    before = stream.counter
    [(out_x, out_y)] = apply_mixup([(x, y)], 0.0, stream, [before])
    assert stream.counter == before
    assert np.array_equal(out_x, x)
    assert np.array_equal(out_y, y)


class _LambdaOneStub:
    """Stand-in stream whose block draw pins every Beta weight to 1."""

    def beta_permutations(self, a, starts, sizes):
        # any partner order
        return [1.0] * len(sizes), [np.arange(n)[::-1].copy() for n in sizes]


def test_mixup_lambda_one_is_identity_regardless_of_partner():
    x = np.arange(12.0).reshape(4, 3)
    y = np.eye(2)[[0, 1, 0, 1]]
    [(out_x, out_y)] = apply_mixup([(x, y)], 0.4, _LambdaOneStub(), [0])
    assert np.array_equal(out_x, x)
    assert np.array_equal(out_y, y)


def test_mixup_matches_hand_formula_and_keeps_labels_on_simplex():
    rng = RngStream(2, "mix-fuzz")
    for trial in range(25):
        n = 3 + trial % 5
        x = rng.normal((n, 4))
        y = np.eye(3)[np.arange(n) % 3]
        stream = RngStream(100 + trial, "mix")
        clone = RngStream(100 + trial, "mix")
        [(out_x, out_y)] = apply_mixup([(x, y)], 0.2, stream, [stream.counter])
        lam = reference_beta(clone, 0.2, 0.2)
        partner = clone.permutation(n)
        assert np.array_equal(out_x, lam * x + (1 - lam) * x[partner])
        assert np.array_equal(out_y, lam * y + (1 - lam) * y[partner])
        assert np.all(np.abs(out_y.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(out_y >= 0.0)


def test_mixup_rejects_out_of_range_ratio():
    x = np.zeros((2, 2))
    y = np.eye(2)
    with pytest.raises(ValueError):
        apply_mixup([(x, y)], 1.5, RngStream(0, "mix"), [0])


# ---------------------------------------------------------------------------
# optimizer_step oracles
# ---------------------------------------------------------------------------


def test_sgd_hand_step():
    params = {"w": np.array([0.0, 0.0])}
    grads = {"w": np.array([1.0, -2.0])}
    optimizer_step(params, grads, {}, TrainerSpec(optimizer="sgd", learning_rate=0.1))
    assert np.array_equal(params["w"], [-0.1, 0.2])


def test_decoupled_weight_decay_shrinks_before_update():
    # wd=0.5, lr=0.1, zero gradient: p <- p * (1 - 0.05) = 0.95
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([0.0])}
    spec = TrainerSpec(optimizer="sgd", learning_rate=0.1, weight_decay=0.5)
    optimizer_step(params, grads, {}, spec)
    assert np.array_equal(params["w"], [0.95])


def test_momentum_two_hand_steps():
    params = {"w": np.array([0.0])}
    g = np.array([1.0])
    slots = {}
    spec = TrainerSpec(optimizer="momentum", learning_rate=0.1)
    optimizer_step(params, {"w": g}, slots, spec)
    assert np.allclose(params["w"], [-0.1], atol=1e-15)  # buf = g
    optimizer_step(params, {"w": g}, slots, spec)
    # buf = 0.9 * 1 + 1 = 1.9; p = -0.1 - 0.1 * 1.9 = -0.29
    assert np.allclose(params["w"], [-0.29], atol=1e-15)


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([0.0, 0.0, 0.0])}
    grads = {"w": np.array([0.5, -3.0, 1e-3])}
    optimizer_step(
        params, grads, {}, TrainerSpec(optimizer="adam", learning_rate=0.1)
    )
    # bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
    # lr * g / (|g| + eps) = lr * sign(g) up to the tiny eps correction
    assert np.allclose(params["w"], [-0.1, 0.1, -0.1], rtol=1e-4)
    assert np.all(np.abs(params["w"]) < 0.1 + 1e-12)


def test_rmsprop_first_hand_step():
    params = {"w": np.array([0.0])}
    grads = {"w": np.array([1.0])}
    optimizer_step(
        params, grads, {}, TrainerSpec(optimizer="rmsprop", learning_rate=0.1)
    )
    # sq = 0.1 * 1; update = 0.1 / (sqrt(0.1) + 1e-8)
    expected = -0.1 / (np.sqrt(0.1) + 1e-8)
    assert np.allclose(params["w"], [expected], atol=1e-15)


def test_optimizer_step_zero_lr_is_exact_noop():
    for family in ("sgd", "momentum", "adam", "rmsprop"):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([3.0, 4.0])}
        before = params["w"].copy()
        optimizer_step(
            params, grads, {}, TrainerSpec(optimizer=family, learning_rate=0.0)
        )
        assert np.array_equal(params["w"], before), family


def test_optimizer_step_rejects_non_finite_gradient():
    params = {"w": np.array([0.0])}
    grads = {"w": np.array([np.nan])}
    with pytest.raises(ValueError):
        optimizer_step(params, grads, {}, TrainerSpec())


def _odd_gradient(shape, stream):
    """Uniform values in [-1, 1) with ``-0.0``, ``+0.0`` and subnormals mixed in."""
    g = stream.uniform(shape) * 2.0 - 1.0
    flat = g.reshape(-1)
    flat[0::7] = -0.0
    flat[1::11] = 5e-324
    flat[2::13] = -2.5e-310
    flat[3::17] = 0.0
    return g


@pytest.mark.parametrize("shape", [(3,), (2, 128), (128, 128)])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("family", OPTIMIZERS)
def test_optimizer_step_matches_reference_bit_for_bit(family, weight_decay, shape):
    # Three steps on one slot dict: the first starts from fresh slots, the
    # others from accumulated ones. Parameters and slots must agree byte for
    # byte (so -0.0 against 0.0 counts) after every step.
    stream = RngStream(5, f"opt/{family}/{shape}")
    start = stream.uniform(shape) - 0.5
    params, want_params = {"w": start.copy()}, {"w": start.copy()}
    slots, want_slots = {}, {}
    spec = TrainerSpec(optimizer=family, learning_rate=0.05, weight_decay=weight_decay)
    for _ in range(3):
        g = _odd_gradient(shape, stream)
        optimizer_step(params, {"w": g}, slots, spec)
        reference_optimizer_step(want_params, {"w": g.copy()}, want_slots, spec)
        assert params["w"].tobytes() == want_params["w"].tobytes()
        for (slot_key, slot), (_, want) in zip(slots.items(), want_slots.items()):
            for name, value in slot.items():
                if isinstance(value, int):
                    assert value == want[name]
                else:
                    assert value.tobytes() == want[name].tobytes(), (slot_key, name)


def test_slot_store_is_lazy_and_persists():
    # optimizer_step adds a stateful family's missing slot, keyed
    # (family, key), and keeps advancing it on later calls.
    slots = {}
    params = {"w": np.zeros(3)}
    momentum = TrainerSpec(optimizer="momentum", learning_rate=0.0)
    optimizer_step(params, {"w": np.ones(3)}, slots, momentum)
    assert list(slots) == [("momentum", "w")]
    assert np.array_equal(slots["momentum", "w"]["buf"], np.ones(3))
    optimizer_step(params, {"w": np.ones(3)}, slots, momentum)
    assert np.array_equal(slots["momentum", "w"]["buf"], np.full(3, 1.9))
    # adam slots carry a per-key step count
    optimizer_step(params, {"w": np.ones(3)}, slots, TrainerSpec(optimizer="adam"))
    assert slots["adam", "w"]["step"] == 1
    assert len(slots) == 2
    optimizer_step(params, {"w": np.ones(3)}, {}, TrainerSpec(optimizer="sgd"))
    assert len(slots) == 2


def test_slot_store_restore_round_trip():
    # A slot dict rebuilt from another's items, as load_checkpoint rebuilds
    # one, continues the run bit for bit.
    spec = TrainerSpec(optimizer="adam", learning_rate=0.1)
    slots, params = {}, {"w": np.zeros(2)}
    optimizer_step(params, {"w": np.array([1.0, -2.0])}, slots, spec)
    restored = {
        slot_key: {n: v if isinstance(v, int) else v.copy() for n, v in slot.items()}
        for slot_key, slot in slots.items()
    }
    copy = {"w": params["w"].copy()}
    for state, p in ((slots, params), (restored, copy)):
        optimizer_step(p, {"w": np.array([0.5, 0.25])}, state, spec)
    assert restored["adam", "w"]["step"] == slots["adam", "w"]["step"] == 2
    assert copy["w"].tobytes() == params["w"].tobytes()


# ---------------------------------------------------------------------------
# make_temporary
# ---------------------------------------------------------------------------


def test_make_temporary_zero_lr_returns_exact_copies():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(0, "init"))
    view = sub_view(space, (0,))
    spec = TrainerSpec(optimizer="sgd", learning_rate=0.0)
    temp = make_temporary(weights, view, spec, [batch_for(space, 8)], RngStream(1, "t"))
    assert set(temp) == set(view.keys)
    for key in view.keys:
        assert np.array_equal(temp[key], weights.store[key])
        assert temp[key] is not weights.store[key]


def test_make_temporary_single_sgd_step_matches_numpy_oracle():
    # independent oracle: forward and chain rule written directly in numpy
    space = plain_affine_space()
    weights = init_weights(space, RngStream(3, "init"))
    view = sub_view(space, (0,))
    x, y = batch_for(space, 8, seed=4)
    lr = 0.05
    spec = TrainerSpec(optimizer="sgd", learning_rate=lr)
    temp = make_temporary(weights, view, spec, [(x, y)], RngStream(5, "t"))

    w = weights.store[ParamKey(0, 0, "weight")]
    b = weights.store[ParamKey(0, 0, "bias")]
    hidden = x @ w + b
    logits = hidden @ weights.head_weight + weights.head_bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    dlogits = (probs - y) / x.shape[0]
    dhidden = dlogits @ weights.head_weight.T
    dw = x.T @ dhidden
    db = dhidden.sum(axis=0)

    assert np.allclose(temp[ParamKey(0, 0, "weight")], w - lr * dw, atol=1e-12)
    assert np.allclose(temp[ParamKey(0, 0, "bias")], b - lr * db, atol=1e-12)


def test_make_temporary_leaves_store_untouched():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(6, "init"))
    view = sub_view(space, (0,))
    digest = store_digest(weights.store)
    spec = TrainerSpec(optimizer="adam", learning_rate=0.1, mixup_ratio=0.2, dropout_keep=0.8)
    make_temporary(weights, view, spec, [batch_for(space, 8)], RngStream(7, "t"))
    assert store_digest(weights.store) == digest


def test_make_temporary_is_deterministic():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(8, "init"))
    view = sub_view(space, (0,))
    spec = TrainerSpec(
        optimizer="momentum", learning_rate=0.1, mixup_ratio=0.3, dropout_keep=0.7
    )
    batches = [batch_for(space, 8, seed=9)]
    a = make_temporary(weights, view, spec, batches, RngStream(10, "t"))
    b = make_temporary(weights, view, spec, batches, RngStream(10, "t"))
    for key in view.keys:
        assert np.array_equal(a[key], b[key])


def test_make_temporary_takes_one_step_per_batch(monkeypatch):
    calls = recorded_gradients(monkeypatch)
    space = plain_affine_space()
    weights = init_weights(space, RngStream(12, "init"))
    view = sub_view(space, (0,))
    batches = [batch_for(space, 16, seed=s) for s in range(3)]
    spec = TrainerSpec(learning_rate=0.1)
    one = make_temporary(weights, view, spec, batches[:1], RngStream(13, "t"))
    assert len(calls) == 1
    three = make_temporary(weights, view, spec, batches, RngStream(13, "t"))
    assert len(calls) == 4
    key = ParamKey(0, 0, "weight")
    assert not np.array_equal(one[key], three[key])


# ---------------------------------------------------------------------------
# commit_step
# ---------------------------------------------------------------------------


def test_commit_zero_lr_leaves_store_unchanged():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(14, "init"))
    view = sub_view(space, (0,))
    digest = store_digest(weights.store)
    spec = TrainerSpec(optimizer="sgd", learning_rate=0.0)
    slots = {}
    commit_step(weights, view, spec, [batch_for(space, 8)], slots, RngStream(15, "t"))
    commit_step(weights, view, spec, [batch_for(space, 8)], slots, RngStream(16, "t"))
    assert store_digest(weights.store) == digest


def test_commit_touches_only_view_keys():
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("affine:4", "affine-relu:4"), width=4),
                LayerConfig(candidates=("affine:4", "affine-tanh:4"), width=4),
            ),
            hyperparameters=(),
        )
    )
    weights = init_weights(space, RngStream(17, "init"))
    selection = (1, 0)
    view = sub_view(space, selection)
    snapshot = {key: value.copy() for key, value in weights.store.items()}
    commit_step(
        weights,
        view,
        TrainerSpec(learning_rate=0.1),
        [batch_for(space, 8)],
        {},
        RngStream(18, "t"),
    )
    inside = set(view.keys)
    for key, before in snapshot.items():
        if key in inside:
            assert not np.array_equal(weights.store[key], before)
        else:
            assert np.array_equal(weights.store[key], before)


def test_commit_matches_make_temporary_first_step():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(19, "init"))
    view = sub_view(space, (0,))
    batch = batch_for(space, 8, seed=20)
    spec = TrainerSpec(optimizer="sgd", learning_rate=0.05, mixup_ratio=0.2, dropout_keep=0.9)
    temp = make_temporary(weights, view, spec, [batch], RngStream(21, "t"))
    commit_step(weights, view, spec, [batch], {}, RngStream(21, "t"))
    for key in view.keys:
        assert np.array_equal(weights.store[key], temp[key])


def test_commit_slots_persist_across_commits():
    space = plain_affine_space()
    weights = init_weights(space, RngStream(22, "init"))
    view = sub_view(space, (0,))
    spec = TrainerSpec(optimizer="adam", learning_rate=0.01)
    slots = {}
    batch = batch_for(space, 8, seed=23)
    commit_step(weights, view, spec, [batch], slots, RngStream(24, "t"))
    key = ParamKey(0, 0, "weight")
    assert slots["adam", key]["step"] == 1
    commit_step(weights, view, spec, [batch], slots, RngStream(25, "t"))
    assert slots["adam", key]["step"] == 2


# ---------------------------------------------------------------------------
# the fused train step against the reference tape
# ---------------------------------------------------------------------------


def random_train_case(rng):
    """A random space, store, selection, trainer and batches: every op kind,
    padded and truncated layers, dropout, mixup, weight decay, any optimizer."""
    layers = []
    for _ in range(1 + rng.index(3)):
        kinds = ("identity", "affine:{}", "affine-relu:{}", "affine-tanh:{}")
        candidates = dict.fromkeys(
            kinds[rng.index(4)].format(1 + rng.index(10)) for _ in range(1 + rng.index(3))
        )
        layers.append(LayerConfig(candidates=tuple(candidates), width=2 + rng.index(6)))
    space = build_space(
        SpaceConfig(
            input_dim=2 + rng.index(3),
            num_classes=2 + rng.index(2),
            layers=tuple(layers),
            hyperparameters=(),
        )
    )
    weights = init_weights(space, RngStream(rng.index(1000), "init"))
    selection = tuple(rng.index(len(d.candidates)) for d in space.arch_decisions)
    spec = TrainerSpec(
        optimizer=OPTIMIZERS[rng.index(len(OPTIMIZERS))],
        learning_rate=0.01 + 0.2 * rng.uniform(),
        weight_decay=(0.0, 0.01)[rng.index(2)],
        mixup_ratio=(0.0, 0.4)[rng.index(2)],
        dropout_keep=(1.0, 0.5, 0.8)[rng.index(3)],
    )
    inner_steps = 1 + rng.index(3)
    n = 1 + rng.index(12)
    batches = []
    for _ in range(inner_steps):
        x = rng.normal((n, space.input_dim))
        labels = [rng.index(space.num_classes) for _ in range(n)]
        batches.append((x, np.eye(space.num_classes)[labels]))
    return weights, sub_view(space, selection), spec, batches


def recorded_gradients(monkeypatch):
    """Every gradient dict ``numerics.backward`` writes, copied: one per
    train step of either path."""
    calls = []
    original = numerics.backward

    def record(layers, head_weight, grad_logits, out):
        original(layers, head_weight, grad_logits, out)
        calls.append({key: g.copy() for key, g in out.items()})

    monkeypatch.setattr(numerics, "backward", record)
    return calls


def assert_bitwise_equal(got: dict, want: dict):
    assert set(got) == set(want)
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def test_make_temporary_gradients_equal_reference_tape(monkeypatch):
    calls = recorded_gradients(monkeypatch)
    rng = RngStream(31, "fused-temporary")
    for _ in range(60):
        weights, view, spec, batches = random_train_case(rng)
        calls.clear()
        temp = make_temporary(weights, view, spec, batches, RngStream(32, "t"))
        fused = list(calls)

        params = {key: weights.store[key].copy() for key in view.keys}
        slots, stream = {}, RngStream(32, "t")
        assert len(fused) == len(batches)
        for got, batch in zip(fused, batches):
            want = taped_train_step(weights, view, params, spec, batch, slots, stream)
            assert_bitwise_equal(got, want)
        assert_bitwise_equal(temp, params)


def assert_same_slots(got: dict, want: dict):
    # Every slot, its integer fields (Adam's step) and its arrays byte for byte.
    assert set(got) == set(want)
    for slot_key, slot in want.items():
        assert set(got[slot_key]) == set(slot)
        for name, value in slot.items():
            if isinstance(value, int):
                assert got[slot_key][name] == value, (slot_key, name)
            else:
                assert got[slot_key][name].tobytes() == value.tobytes(), (slot_key, name)


def test_commit_step_gradients_equal_reference_tape(monkeypatch):
    # Each case commits its batches one call each, and again all in one call
    # on a copy of the starting store; both must match the tape step by step.
    calls = recorded_gradients(monkeypatch)
    rng = RngStream(33, "fused-commit")
    for _ in range(60):
        weights, view, spec, batches = random_train_case(rng)
        reference_store = {key: value.copy() for key, value in weights.store.items()}
        whole = SuperModelWeights(
            weights.space,
            {key: value.copy() for key, value in weights.store.items()},
            weights.head_weight,
            weights.head_bias,
        )
        fused_slots, fused_rng = {}, RngStream(34, "c")
        reference_slots, reference_rng = {}, RngStream(34, "c")
        wants = []
        for batch in batches:
            calls.clear()
            commit_step(weights, view, spec, [batch], fused_slots, fused_rng)
            (fused,) = calls
            params = {key: reference_store[key] for key in view.keys}
            want = taped_train_step(
                weights, view, params, spec, batch, reference_slots, reference_rng
            )
            assert_bitwise_equal(fused, want)
            wants.append(want)
        assert_bitwise_equal(weights.store, reference_store)
        assert fused_rng.counter == reference_rng.counter
        assert_same_slots(fused_slots, reference_slots)

        calls.clear()
        whole_slots, whole_rng = {}, RngStream(34, "c")
        commit_step(whole, view, spec, batches, whole_slots, whole_rng)
        assert len(calls) == len(wants)
        for got, want in zip(calls, wants):
            assert_bitwise_equal(got, want)
        assert_bitwise_equal(whole.store, reference_store)
        assert whole_rng.counter == reference_rng.counter
        assert_same_slots(whole_slots, reference_slots)


@pytest.mark.parametrize("path", ["temporary", "commit"])
@pytest.mark.parametrize(
    "defect, message",
    [
        ("nan-batch", "batch has non-finite entries"),
        ("inf-batch", "batch has non-finite entries"),
        ("empty-batch", "batch is empty"),
        ("nan-label", "labels must be finite"),
        ("inf-label", "labels must be finite"),
        ("label-row-sum", "label rows must be distributions"),
        ("nan-store", "0/0/weight has non-finite entries"),
        ("inf-store-bias", "0/0/bias has non-finite entries"),
        ("nan-head-weight", "head weight has non-finite entries"),
        ("inf-head-bias", "head bias has non-finite entries"),
    ],
)
@pytest.mark.parametrize("mixup_dropout", [False, True], ids=["plain", "mixup-dropout"])
def test_train_step_rejects_bad_inputs(path, defect, message, mixup_dropout):
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(LayerConfig(candidates=("affine-relu:4", "affine:4"), width=4),),
            hyperparameters=(),
        )
    )
    weights = init_weights(space, RngStream(35, "init"))
    view = sub_view(space, (0,))
    x, y = batch_for(space, 6, seed=36)
    if defect == "empty-batch":
        x, y = x[:0], y[:0]
    elif defect == "nan-batch":
        x[2, 1] = np.nan
    elif defect == "inf-batch":
        x[0, 0] = np.inf
    elif defect == "nan-label":
        y[1, 0] = np.nan
    elif defect == "inf-label":
        y[3, 1] = -np.inf
    elif defect == "label-row-sum":
        y[4] = [0.6, 0.6]
    elif defect == "nan-store":
        weights.store[ParamKey(0, 0, "weight")][1, 2] = np.nan
    elif defect == "inf-store-bias":
        weights.store[ParamKey(0, 0, "bias")][0] = np.inf
    elif defect == "nan-head-weight":
        weights.head_weight[0, 1] = np.nan
    else:
        weights.head_bias[1] = np.inf
    spec = TrainerSpec(
        learning_rate=0.1,
        mixup_ratio=0.3 if mixup_dropout else 0.0,
        dropout_keep=0.5 if mixup_dropout else 1.0,
    )
    # Each check fires where its value enters the step, before the optimizer's
    # own non-finite-gradient check could.
    with pytest.raises(ValueError, match=message):
        if path == "temporary":
            make_temporary(weights, view, spec, [(x, y)], RngStream(37, "t"))
        else:
            commit_step(weights, view, spec, [(x, y)], {}, RngStream(37, "t"))


def test_train_step_ignores_non_finite_tensors_outside_the_selection():
    # only the tensors a step reads are checked
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(LayerConfig(candidates=("affine-relu:4", "affine:4"), width=4),),
            hyperparameters=(),
        )
    )
    weights = init_weights(space, RngStream(35, "init"))
    weights.store[ParamKey(0, 1, "weight")][0, 0] = np.nan
    view = sub_view(space, (0,))
    spec = TrainerSpec(learning_rate=0.1, mixup_ratio=0.3, dropout_keep=0.5)
    make_temporary(weights, view, spec, [batch_for(space, 6)], RngStream(37, "t"))
    commit_step(weights, view, spec, [batch_for(space, 6)], {}, RngStream(37, "t"))


# ---------------------------------------------------------------------------
# the train plan of make_temporary against the per-step reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_make_temporary_equals_per_step_reference(optimizer):
    # Every combination of weight decay, mixup and dropout, at 1 to 4 inner
    # steps, on random spaces with padded and truncated layers. The plan must
    # leave the temporaries and the stream counter bit for bit where the
    # reference tape, one step at a time, leaves them.
    rng = RngStream(41, f"plan/{optimizer}")
    resized = set()
    for case in range(32):
        weights, view, spec, _ = random_train_case(rng)
        for decision, op, _ in view.layers:
            if op.width != decision.out_width:
                resized.add("padded" if op.width < decision.out_width else "truncated")
        spec = replace(
            spec,
            optimizer=optimizer,
            weight_decay=(0.0, 0.01)[case % 2],
            mixup_ratio=(0.0, 0.4)[case // 2 % 2],
            dropout_keep=(1.0, 0.7)[case // 4 % 2],
        )
        space = weights.space
        batches = []
        for _ in range(1 + case // 8):
            n = 1 + rng.index(12)
            labels = [rng.index(space.num_classes) for _ in range(n)]
            batches.append((rng.normal((n, space.input_dim)), np.eye(space.num_classes)[labels]))
        start = rng.index(50)
        stream = RngStream(42, "t", counter=start)
        temp = make_temporary(weights, view, spec, batches, stream)

        params = {key: weights.store[key].copy() for key in view.keys}
        slots, reference_stream = {}, RngStream(42, "t", counter=start)
        for batch in batches:
            taped_train_step(weights, view, params, spec, batch, slots, reference_stream)
        assert_bitwise_equal(temp, params)
        assert stream.counter == reference_stream.counter, case
    assert resized == {"padded", "truncated"}


def _three_step_case():
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("affine-relu:6",), width=4),
                LayerConfig(candidates=("affine:3",), width=4),
            ),
            hyperparameters=(),
        )
    )
    weights = init_weights(space, RngStream(43, "init"))
    batches = [batch_for(space, 6, seed=44 + i) for i in range(3)]
    return weights, sub_view(space, (0, 0)), batches


def _per_step_error(weights, view, spec, batches, rng):
    # The error the per-step path raises: one commit per batch on a copy of
    # the store, which is the step a temporary takes, one at a time.
    store = {key: value.copy() for key, value in weights.store.items()}
    copy = SuperModelWeights(weights.space, store, weights.head_weight, weights.head_bias)
    slots = {}
    with pytest.raises(ValueError) as caught:
        for batch in batches:
            commit_step(copy, view, spec, [batch], slots, rng)
    return str(caught.value)


@pytest.mark.parametrize(
    "defect, message",
    [
        ("nan-batch", "batch has non-finite entries"),
        ("inf-batch", "batch has non-finite entries"),
        ("nan-label", "labels must be finite"),
        ("label-row-sum", "label rows must be distributions"),
        ("label-width", "logit/label shapes incompatible"),
        ("row-count", "features and labels disagree on batch size"),
        ("nan-head-weight", "head weight has non-finite entries"),
        ("inf-head-bias", "head bias has non-finite entries"),
        ("overflowing-update", "0/0/weight has non-finite entries"),
        ("overflowing-batch", "non-finite gradient for ParamKey"),
    ],
)
@pytest.mark.parametrize("mixup_dropout", [False, True], ids=["plain", "mixup-dropout"])
def test_checks_moved_into_the_plan_fire_as_the_per_step_path_does(
    defect, message, mixup_dropout
):
    # Each defect sits in step 2 of 3 (the head, which no step changes, is
    # bad from the start), and the plan raises the per-step path's message.
    weights, view, batches = _three_step_case()
    x, y = batches[1]
    lr = 0.1
    if defect == "nan-batch":
        x[2, 1] = np.nan
    elif defect == "inf-batch":
        x[0, 0] = -np.inf
    elif defect == "nan-label":
        y[1, 0] = np.nan
    elif defect == "label-row-sum":
        y[4] = [0.6, 0.6]
    elif defect == "label-width":
        batches[1] = (x, np.eye(3)[[0, 1, 2, 0, 1, 2]])
    elif defect == "row-count":
        batches[1] = (x[:5], y)
    elif defect == "nan-head-weight":
        weights.head_weight[0, 1] = np.nan
    elif defect == "inf-head-bias":
        weights.head_bias[1] = np.inf
    elif defect == "overflowing-update":
        lr = 1e308  # step 1 moves the weights past the float range
        for batch in batches:
            batch[0][...] *= 1e3
    else:
        x[...] = 1e308  # finite rows whose forward overflows
    spec = TrainerSpec(
        learning_rate=lr,
        mixup_ratio=0.3 if mixup_dropout else 0.0,
        dropout_keep=0.5 if mixup_dropout else 1.0,
    )
    with np.errstate(all="ignore"):  # the overflowing cases compute infinities
        want = _per_step_error(weights, view, spec, batches, RngStream(45, "t"))
        with pytest.raises(ValueError) as caught:
            make_temporary(weights, view, spec, batches, RngStream(45, "t"))
    assert message in want
    assert str(caught.value) == want
