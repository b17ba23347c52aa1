"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line with its measured margin; a failed
assertion leaves the criterion marked FAILED by pytest itself.
"""
from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from jointsearch import numerics, supernet, trainstep
from jointsearch.cli import main
from jointsearch.config import SearchSection, parse_config
from jointsearch.controller import (
    ControllerState,
    init_controller,
    probabilities,
    reinforce_update,
)
from jointsearch.data import split, two_moons
from jointsearch.engine import random_search_baseline, retrain, search
from jointsearch.numerics import RngStream
from jointsearch.persist import read_events, store_digest
from jointsearch.space import (
    HyperConfig,
    LayerConfig,
    SpaceConfig,
    build_space,
    derive,
    selection_to_config,
)

from reference import (
    add,
    add_bias,
    as_tensor,
    backward_grads,
    expected_reward_gradient_oracle,
    finite_difference_check,
    logit_gradient,
    matmul,
    mul,
    pad_cols,
    relu,
    softmax_cross_entropy,
    sum_all,
    take_cols,
    tanh,
    weights_digest,
)


def tabular_doc(cards, total, k, seed, reward=None, **search_over):
    doc = {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity"] * c} for c in cards],
            "hyperparameters": [],
        },
        "data": {"generator": "none", "seed": seed},
        "search": {"total_meta_steps": total, "pairs_per_step": k, **search_over},
    }
    if reward is not None:
        doc["search"]["reward"] = reward
    return doc


# ---------------------------------------------------------------------------
# A1: simplex safety under randomized controller updates
# ---------------------------------------------------------------------------


def test_a1_simplex_suite():
    cards = (4, 3, 5)
    space = build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=tuple(LayerConfig(candidates=("identity",) * c) for c in cards),
            hyperparameters=(),
        )
    )
    state = init_controller(space)
    meta = SearchSection(total_meta_steps=10**4, warmup_fraction=0.0)
    rng = RngStream(0, "a1")
    started = time.monotonic()
    for step in range(10**4):
        k = 1 + rng.index(8)
        samples = [
            (tuple(rng.index(c) for c in cards), rng.uniform()) for _ in range(k)
        ]
        reinforce_update(state, samples, meta, step)
        for probs in probabilities(state):
            assert abs(float(probs.sum()) - 1.0) <= 1e-6
            assert (probs >= 0.0).all()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"A1 simplex suite: PASS (10^4 updates, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A2: tabular bandit convergence
# ---------------------------------------------------------------------------


def test_a2_tabular_convergence():
    started = time.monotonic()
    wins = 0
    for seed in range(20):
        plant = RngStream(seed, "planted")
        planted = tuple(plant.index(4) for _ in range(3))

        def table(selection):
            hamming = sum(a != b for a, b in zip(selection, planted))
            return 1.0 - hamming / 3.0, 0.0

        config = parse_config(
            tabular_doc(
                (4, 4, 4),
                total=2000,
                k=4,
                seed=seed,
                meta_lr=0.05,
                baseline_momentum=0.95,
                warmup_fraction=0.3,
            )
        )
        result = search(config, evaluate_override=table)
        argmax = tuple(int(np.argmax(p)) for p in result.final_probabilities)
        wins += argmax == planted
    elapsed = time.monotonic() - started
    assert wins >= 18
    assert elapsed < 120.0
    print(f"A2 tabular convergence: PASS ({wins}/20 seeds, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A3: REINFORCE unbiasedness against the enumeration oracle
# ---------------------------------------------------------------------------


def enumerated_expectation(state, reward_fn, baseline):
    """Probability-weighted average of single-sample ascent gradients."""
    cards = [len(z) for z in state.logits]
    probs = probabilities(state)
    expectation = [np.zeros_like(z) for z in state.logits]
    for selection in itertools.product(*(range(c) for c in cards)):
        p_sel = 1.0
        for d, idx in enumerate(selection):
            p_sel *= float(probs[d][idx])
        grads = logit_gradient(
            state, [(selection, reward_fn(selection))], baseline
        )
        for d in range(len(cards)):
            expectation[d] -= p_sel * grads[d]
    return expectation


def test_a3_reinforce_unbiasedness():
    rng = RngStream(3, "a3")
    worst = 0.0
    for _ in range(50):
        n_decisions = 1 + rng.index(3)
        cards = [2 + rng.index(3) for _ in range(n_decisions)]
        state = ControllerState(logits=[rng.normal(c) for c in cards])
        table = {
            selection: rng.uniform()
            for selection in itertools.product(*(range(c) for c in cards))
        }
        oracle = expected_reward_gradient_oracle(state, table.__getitem__)
        constant = rng.uniform() * 2.0 - 0.5
        for baseline in (0.0, constant):
            enumerated = enumerated_expectation(state, table.__getitem__, baseline)
            for a, b in zip(enumerated, oracle):
                worst = max(worst, float(np.max(np.abs(a - b))))
                assert np.allclose(a, b, atol=1e-9, rtol=0.0)
    print(f"A3 REINFORCE unbiasedness: PASS (50 spaces, worst error {worst:.2e})")


# ---------------------------------------------------------------------------
# A4: gradient correctness by finite differences
# ---------------------------------------------------------------------------


def _off_kink(rng, shape):
    values = rng.normal(shape)
    return np.where(np.abs(values) < 0.2, values + 0.5, values)


def supernet_train_step_fd_error(eps=1e-3):
    """Max relative error of ``numerics.backward`` on a train-mode
    ``supernet.forward`` (relu, tanh and identity layers, padded and
    truncated, dropout 0.8) against central differences of the loss in every
    selected parameter. The dropout mask is redrawn from the same counter for
    every probe, so the loss is a pure function of the parameters."""
    space = build_space(
        SpaceConfig(
            input_dim=3,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("affine-relu:5", "identity"), width=7),  # padded
                LayerConfig(candidates=("affine-tanh:9",), width=6),  # truncated
                LayerConfig(candidates=("identity", "affine:4"), width=4),  # truncated
                LayerConfig(candidates=("affine:3",), width=3),
            ),
        )
    )
    weights = supernet.init_weights(space, RngStream(12, "a4-init"))
    selection = (0, 0, 0, 0)
    rng = RngStream(13, "a4-net")
    x = rng.normal((6, 3))
    y = np.eye(2)[[0, 1, 1, 0, 1, 0]]
    view = supernet.sub_view(space, selection)
    keys = view.keys
    params = {key: weights.store[key].copy() for key in keys}

    def run(tensors):
        logits, layers = supernet.forward(
            weights,
            view,
            x,
            supernet.TRAIN,
            params=tensors,
            dropout_keep=0.8,
            rng=RngStream(14, "a4-mask"),
        )
        loss = numerics.cross_entropy_loss(logits, y)  # checks the labels
        grad_logits = numerics.cross_entropy_gradient(logits, y)
        return loss, layers, grad_logits

    _, layers, grad_logits = run(params)
    assert any(layer.scale is not None and np.any(layer.scale == 0.0) for layer in layers)
    grads = backward_grads(layers, weights.head_weight, grad_logits)
    assert set(grads) == set(keys)
    worst = 0.0
    for key in keys:
        for idx in np.ndindex(params[key].shape):
            probe = {k: v.copy() for k, v in params.items()}
            probe[key][idx] += eps
            hi = run(probe)[0]
            probe[key][idx] -= 2.0 * eps
            lo = run(probe)[0]
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(grads[key][idx])
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    return worst


def test_a4_finite_difference_suite():
    started = time.monotonic()
    rng = RngStream(11, "a4")
    y = np.eye(2)[[0, 1, 1, 0]]
    cases = {
        "matmul": (
            lambda tape, leaves: sum_all(tape, matmul(tape, leaves[0], leaves[1])),
            [_off_kink(rng, (4, 3)), rng.normal((3, 5)) * 0.7],
        ),
        "add_bias": (
            lambda tape, leaves: sum_all(
                tape,
                mul(
                    tape,
                    add_bias(tape, leaves[0], leaves[1]),
                    add_bias(tape, leaves[0], leaves[1]),
                ),
            ),
            [rng.normal((4, 5)), rng.normal(5) * 0.3],
        ),
        "add": (
            lambda tape, leaves: sum_all(
                tape,
                mul(
                    tape,
                    add(tape, leaves[0], leaves[1]),
                    add(tape, leaves[0], leaves[1]),
                ),
            ),
            [rng.normal((3, 3)), rng.normal((3, 3))],
        ),
        "mul": (
            lambda tape, leaves: sum_all(tape, mul(tape, leaves[0], leaves[1])),
            [rng.normal((3, 3)), rng.normal((3, 3))],
        ),
        "relu": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, relu(tape, leaves[0]), relu(tape, leaves[0]))
            ),
            [_off_kink(rng, (4, 4))],
        ),
        "tanh": (
            lambda tape, leaves: sum_all(tape, tanh(tape, leaves[0])),
            [rng.normal((4, 4))],
        ),
        "pad_cols": (
            lambda tape, leaves: sum_all(
                tape,
                mul(
                    tape,
                    pad_cols(tape, leaves[0], 6),
                    pad_cols(tape, leaves[0], 6),
                ),
            ),
            [rng.normal((3, 4))],
        ),
        "take_cols": (
            lambda tape, leaves: sum_all(
                tape,
                mul(
                    tape,
                    take_cols(tape, leaves[0], 2),
                    take_cols(tape, leaves[0], 2),
                ),
            ),
            [rng.normal((3, 4))],
        ),
        "softmax_cross_entropy": (
            lambda tape, leaves: softmax_cross_entropy(
                tape, leaves[0], tape.constant(as_tensor(y))
            ),
            [rng.normal((4, 2))],
        ),
    }
    worst = 0.0
    for name, (fn, params) in cases.items():
        err = finite_difference_check(fn, params, eps=1e-3)
        worst = max(worst, err)
        assert err <= 1e-4, f"{name}: relative error {err}"

    def three_layer_net(tape, leaves):
        x, w1, b1, w2, b2, w3, b3 = leaves
        h1 = relu(tape, add_bias(tape, matmul(tape, x, w1), b1))
        h2 = tanh(tape, add_bias(tape, matmul(tape, h1, w2), b2))
        logits = add_bias(tape, matmul(tape, h2, w3), b3)
        return softmax_cross_entropy(
            tape, logits, tape.constant(as_tensor(np.eye(2)[[0, 1, 0, 1, 1, 0]]))
        )

    params = [
        _off_kink(rng, (6, 3)),
        rng.normal((3, 8)) * 0.6,
        rng.normal(8) * 0.2,
        rng.normal((8, 6)) * 0.6,
        rng.normal(6) * 0.2,
        rng.normal((6, 2)) * 0.6,
        rng.normal(2) * 0.2,
    ]
    err = finite_difference_check(three_layer_net, params, eps=1e-3)
    worst = max(worst, err)
    assert err <= 1e-4

    err = supernet_train_step_fd_error()
    worst = max(worst, err)
    assert err <= 1e-4, f"supernet train step: relative error {err}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"A4 finite differences: PASS (worst relative error {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A5/A6 shared fuzzing harness
# ---------------------------------------------------------------------------


def random_space(rng):
    input_dim = 2 + rng.index(3)
    num_classes = 2 + rng.index(2)
    layers = []
    for _ in range(1 + rng.index(2)):
        candidates = []
        for _ in range(2 + rng.index(2)):
            kind = rng.index(4)
            width = 2 * (1 + rng.index(4))
            candidates.append(
                ("identity", f"affine:{width}", f"affine-relu:{width}", f"affine-tanh:{width}")[kind]
            )
        layers.append(LayerConfig(candidates=tuple(candidates), width=8))
    pool = (
        HyperConfig(name="learning_rate", kind="continuous", basis=(0.005, 0.05)),
        HyperConfig(name="weight_decay", kind="continuous", basis=(0.0, 0.001)),
        HyperConfig(name="mixup_ratio", kind="continuous", basis=(0.0, 0.3)),
        HyperConfig(name="dropout_keep", kind="continuous", basis=(0.7, 1.0)),
        HyperConfig(name="optimizer", kind="categorical", basis=("sgd", "adam", "rmsprop")),
    )
    chosen = tuple(h for h in pool if rng.uniform() < 0.6)
    return build_space(
        SpaceConfig(
            input_dim=input_dim,
            num_classes=num_classes,
            layers=tuple(layers),
            hyperparameters=chosen,
        )
    )


def random_batch(rng, space, n):
    features = rng.normal((n, space.input_dim))
    labels = np.eye(space.num_classes)[
        [rng.index(space.num_classes) for _ in range(n)]
    ]
    return features, labels


def test_a5_temporary_weight_isolation():
    from jointsearch.engine import evaluate_candidate

    rng = RngStream(5, "a5")
    for trial in range(200):
        space = random_space(rng)
        weights = supernet.init_weights(space, RngStream(trial, "init"))
        selection = tuple(rng.index(c) for c in space.cardinalities())
        learning_rate = 0.005 + 0.05 * rng.uniform()
        inner_steps = 1 + rng.index(2)
        batches = [random_batch(rng, space, 4 + rng.index(12)) for _ in range(inner_steps)]
        val_batch = random_batch(rng, space, 4 + rng.index(12))
        before = store_digest(weights.store)
        evaluate_candidate(
            weights,
            selection,
            batches,
            val_batch,
            RngStream(trial, "eval"),
            learning_rate=learning_rate,
        )
        assert store_digest(weights.store) == before
    print("A5 temporary-weight isolation: PASS (200 fuzzed evaluations)")


def test_a6_weight_sharing_locality():
    rng = RngStream(6, "a6")
    for trial in range(200):
        space = random_space(rng)
        weights = supernet.init_weights(space, RngStream(trial, "init"))
        selection = tuple(rng.index(c) for c in space.cardinalities())
        learning_rate = 0.005 + 0.05 * rng.uniform()
        spec = trainstep.build_trainer(space, selection, learning_rate)
        view = supernet.sub_view(space, selection)
        outside = {
            key: value.copy()
            for key, value in weights.store.items()
            if key not in view.keys
        }
        trainstep.commit_step(
            weights,
            view,
            spec,
            [random_batch(rng, space, 4 + rng.index(12))],
            {},
            RngStream(trial, "commit"),
        )
        for key, value in outside.items():
            assert np.array_equal(weights.store[key], value)
    print("A6 weight-sharing locality: PASS (200 fuzzed commits)")


# ---------------------------------------------------------------------------
# A7: end-to-end efficacy against a random-search baseline
# ---------------------------------------------------------------------------


def a7_doc(seed):
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [
                {
                    "candidates": [
                        "identity",
                        "affine-relu:8",
                        "affine-relu:16",
                        "affine-tanh:8",
                    ],
                    "width": 16,
                }
                for _ in range(2)
            ],
            "hyperparameters": [
                {
                    "name": "learning_rate",
                    "kind": "continuous",
                    # One-decade sweep {0.0158, 0.05, 0.158}: span is the
                    # ratio between neighboring basis values, so sqrt(10)
                    # spans a factor of 10 end to end around the default.
                    "geometric": {"default": 0.05, "count": 3, "span": 3.1623},
                },
                {"name": "weight_decay", "kind": "continuous", "basis": [1e-4, 1e-3, 1e-2]},
                {"name": "mixup_ratio", "kind": "continuous", "basis": [0.0, 0.1, 0.2]},
                {"name": "optimizer", "kind": "categorical", "basis": ["sgd", "adam"]},
            ],
        },
        "data": {"generator": "two_moons", "n": 1000, "noise_sd": 0.1, "seed": seed},
        # inner_steps 16: temporary-weight evaluations must run long enough to
        # measure few-step trainability rather than single-step perturbation
        # noise, or the optimizer decision ranks inversely to retrain quality
        # at this problem scale. All other search settings are defaults.
        "search": {"total_meta_steps": 500, "pairs_per_step": 4, "inner_steps": 16},
        "retrain": {"epochs": 30},
    }


def test_a7_end_to_end_efficacy():
    started = time.monotonic()
    wins = 0
    margins = []
    for seed in range(5):
        config = parse_config(a7_doc(seed))
        result = search(config)
        space = build_space(config.space)
        splits = split(two_moons(1000, 0.1, seed), (0.5, 0.25, 0.25), seed)
        mine = retrain(space, result.derived, splits, 30, seed=seed)
        baseline = random_search_baseline(space, splits, 16, 30, seed)
        median = float(np.median([t.val_accuracy for t in baseline.trials]))
        wins += mine.val_accuracy >= median
        margins.append(mine.val_accuracy - median)
    elapsed = time.monotonic() - started
    assert wins >= 4, f"won {wins}/5 seeds, margins {margins}"
    assert elapsed < 600.0
    print(
        f"A7 end-to-end efficacy: PASS ({wins}/5 seeds, "
        f"margins {[round(m, 4) for m in margins]}, {elapsed:.0f}s)"
    )


# ---------------------------------------------------------------------------
# A8: determinism and resume
# ---------------------------------------------------------------------------


def a8_doc(tag, tmp_path, total=6):
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity", "affine-relu:8"], "width": 8}],
            "hyperparameters": [
                {
                    "name": "learning_rate",
                    "kind": "continuous",
                    "basis": [0.005, 0.01, 0.02],
                }
            ],
        },
        "data": {"generator": "two_moons", "n": 200, "seed": 3},
        "search": {"total_meta_steps": total, "pairs_per_step": 2},
        "output": {
            "result_path": str(tmp_path / f"{tag}.result.json"),
            "log_path": str(tmp_path / f"{tag}.events.jsonl"),
            "checkpoint_path": str(tmp_path / f"{tag}.ckpt"),
            "checkpoint_interval": 1,
        },
    }


def a8_events(path):
    """Header and records of an event log, every field but ``wall_ms``."""
    header, records = read_events(str(path))
    return header, [{**vars(r), "wall_ms": None} for r in records]


def test_a8_determinism_and_resume(tmp_path):
    # identical configs -> byte-identical result files
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg.json"
        cfg_path.write_text(json.dumps(a8_doc(tag, tmp_path)))
        assert main(["search", "--config", str(cfg_path)]) == 0
    uninterrupted = (tmp_path / "a.result.json").read_bytes()
    assert uninterrupted == (tmp_path / "b.result.json").read_bytes()
    uninterrupted_events = a8_events(tmp_path / "a.events.jsonl")

    # resume from an interruption at every interior meta-step
    reference = {}

    def watch(phase, step, weights):
        if phase == "commit":
            reference[step] = weights_digest(weights)

    search(parse_config(a8_doc("ref", tmp_path)), audit=watch)
    assert [r["store_digest"] for r in uninterrupted_events[1]] == [
        reference[step] for step in range(6)
    ]

    for interrupt_step in range(1, 6):
        tag = f"resume{interrupt_step}"
        cfg_path = tmp_path / f"{tag}.cfg.json"
        cfg_path.write_text(json.dumps(a8_doc(tag, tmp_path)))

        def interrupt(phase, step, weights):
            if phase == "controller" and step == interrupt_step:
                raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            search(parse_config(a8_doc(tag, tmp_path)), audit=interrupt)

        resume = ["--resume", str(tmp_path / f"{tag}.ckpt")]
        assert main(["search", "--config", str(cfg_path)] + resume) == 0
        assert (
            tmp_path / f"{tag}.result.json"
        ).read_bytes() == uninterrupted, f"resume at step {interrupt_step}: result.json differs"
        assert (
            a8_events(tmp_path / f"{tag}.events.jsonl") == uninterrupted_events
        ), f"resume at step {interrupt_step}: event log differs"
    print(
        "A8 determinism and resume: PASS (byte-identical results; 5 resume points "
        "with byte-identical result.json and equal event logs)"
    )


# ---------------------------------------------------------------------------
# A9: derivation conformance under fuzzed probabilities
# ---------------------------------------------------------------------------


def test_a9_derivation_conformance():
    space = build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("identity", "affine-relu:8", "affine-tanh:8"), width=8),
                LayerConfig(
                    candidates=("identity", "affine:4", "affine-relu:4", "affine-tanh:4"),
                    width=8,
                ),
            ),
            hyperparameters=(
                HyperConfig(
                    name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)
                ),
                HyperConfig(
                    name="optimizer", kind="categorical", basis=("sgd", "adam", "rmsprop")
                ),
            ),
        )
    )
    cards = space.cardinalities()
    basis = (0.001, 0.01, 0.1)
    rng = RngStream(9, "a9")
    violations = 0
    for trial in range(1000):
        if trial % 4 == 0:
            # exact one-hot vectors must round-trip through selection_to_config
            selection = tuple(rng.index(c) for c in cards)
            probs = []
            for c, idx in zip(cards, selection):
                vec = np.zeros(c)
                vec[idx] = 1.0
                probs.append(vec)
            if derive(space, probs) != selection_to_config(space, selection):
                violations += 1
            continue
        probs = []
        for c in cards:
            vec = rng.uniform(c) + 1e-9
            if rng.uniform() < 0.25:  # plant an exact tie for the max
                i, j = sorted(rng.sample_indices(c, 2)) if c > 1 else (0, 0)
                top = float(vec.max()) + 1.0
                vec[i] = top
                vec[j] = top
            probs.append(vec / vec.sum())
        derived = derive(space, probs)
        for d, vec in enumerate(probs[: space.n_arch]):
            expected = int(np.flatnonzero(vec == vec.max())[0])
            if derived.arch_choice[d] != expected:
                violations += 1
        lr_probs = probs[space.n_arch]
        expected_lr = float(np.dot(lr_probs, basis))
        value = derived.hyper_values[0]
        if abs(value - expected_lr) > 1e-12:
            violations += 1
        if not (min(basis) - 1e-12 <= value <= max(basis) + 1e-12):
            violations += 1
        opt_probs = probs[space.n_arch + 1]
        expected_opt = ("sgd", "adam", "rmsprop")[
            int(np.flatnonzero(opt_probs == opt_probs.max())[0])
        ]
        if derived.hyper_values[1] != expected_opt:
            violations += 1
    assert violations == 0
    print("A9 derivation conformance: PASS (1000 fuzzed vectors, 0 violations)")


# ---------------------------------------------------------------------------
# A10: cost-aware reward steers to on-target candidates
# ---------------------------------------------------------------------------


def test_a10_cost_aware_reward():
    started = time.monotonic()
    base_cost = 32.0
    wins = 0
    for seed in range(20):
        plant = RngStream(seed, "planted")
        planted = tuple(plant.index(4) for _ in range(3))
        decoy = list(planted)
        flip = plant.index(3)
        decoy[flip] = (planted[flip] + 1 + plant.index(3)) % 4
        decoy = tuple(decoy)

        def table(selection):
            if selection == planted:
                return 0.85, base_cost
            if selection == decoy:
                return 0.9, 2.0 * base_cost  # higher accuracy, double cost
            hamming = sum(a != b for a, b in zip(selection, planted))
            return 0.6 * (1.0 - hamming / 3.0), base_cost

        costs = [
            table(selection)[1]
            for selection in itertools.product(range(4), repeat=3)
        ]
        target = float(np.median(costs))
        config = parse_config(
            tabular_doc(
                (4, 4, 4),
                total=2000,
                k=4,
                seed=seed,
                reward={"mode": "cost_aware", "beta": -0.1, "target_cost": target},
            )
        )
        result = search(config, evaluate_override=table)
        argmax = tuple(int(np.argmax(p)) for p in result.final_probabilities)
        wins += argmax == planted
    elapsed = time.monotonic() - started
    assert wins >= 18
    print(f"A10 cost-aware reward: PASS ({wins}/20 seeds, {elapsed:.1f}s)")
