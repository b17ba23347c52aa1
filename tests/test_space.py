"""Search-space construction and derivation tests."""
from __future__ import annotations

import numpy as np
import pytest

from jointsearch.numerics import RngStream
from jointsearch.space import (
    DerivedConfig,
    HyperConfig,
    LayerConfig,
    SpaceConfig,
    build_space,
    derive,
    make_continuous_basis,
    selection_to_config,
    validate_selection,
)


def small_space(**overrides):
    config = SpaceConfig(
        input_dim=2,
        num_classes=2,
        layers=(
            LayerConfig(candidates=("identity", "affine-relu:8", "affine-tanh:8"), width=8),
            LayerConfig(candidates=("identity", "affine-relu:8", "affine-tanh:8"), width=8),
        ),
        hyperparameters=(
            HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
            HyperConfig(name="weight_decay", kind="continuous", basis=(1e-4, 1e-3, 1e-2)),
        ),
    )
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return build_space(config)


# ---------------------------------------------------------------------------
# make_continuous_basis
# ---------------------------------------------------------------------------


def test_basis_three_point_decade_grid():
    basis = make_continuous_basis(0.01, 3, 10.0)
    assert np.allclose(basis, (0.001, 0.01, 0.1), rtol=1e-12, atol=0.0)


def test_basis_two_point_grid():
    basis = make_continuous_basis(0.1, 2, 10.0)
    assert np.allclose(basis, (0.01, 1.0), rtol=1e-12, atol=0.0)


def test_basis_strictly_increasing_and_centered():
    basis = make_continuous_basis(0.05, 7, 4.0)
    assert len(basis) == 7
    assert all(a < b for a, b in zip(basis, basis[1:]))
    assert abs(basis[3] - 0.05) < 1e-15  # odd count keeps the default in the middle


def test_basis_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        make_continuous_basis(0.01, 1, 10.0)
    with pytest.raises(ValueError):
        make_continuous_basis(0.01, 3, 1.0)
    with pytest.raises(ValueError):
        make_continuous_basis(0.0, 3, 10.0)


# ---------------------------------------------------------------------------
# build_space
# ---------------------------------------------------------------------------


def test_build_space_decision_layout():
    space = small_space()
    # 2 arch decisions then 2 hyper decisions, in declaration order
    assert space.n_arch == 2
    assert space.n_decisions == 4
    assert space.cardinalities() == (3, 3, 3, 3)
    assert space.hyper_decisions[0].name == "learning_rate"
    assert space.hyper_decisions[1].name == "weight_decay"


def test_build_space_rejects_mixed_widths_without_adapter():
    config = SpaceConfig(
        input_dim=2,
        num_classes=2,
        layers=(LayerConfig(candidates=("affine:8", "affine:16")),),
        hyperparameters=(),
    )
    with pytest.raises(ValueError):
        build_space(config)
    # declaring the layer width resolves the mismatch via pad/truncate
    config = SpaceConfig(
        input_dim=2,
        num_classes=2,
        layers=(LayerConfig(candidates=("affine:8", "affine:16"), width=16),),
        hyperparameters=(),
    )
    space = build_space(config)
    assert space.last_width == 16


def test_build_space_rejects_decreasing_basis():
    bad = HyperConfig(name="weight_decay", kind="continuous", basis=(1e-1, 1e-2, 1e-3))
    with pytest.raises(ValueError):
        small_space(hyperparameters=(bad,))
    good = HyperConfig(name="weight_decay", kind="continuous", basis=(1e-3, 1e-2, 1e-1))
    space = small_space(hyperparameters=(good,))
    assert space.hyper_decisions[0].basis == (1e-3, 1e-2, 1e-1)


def test_build_space_rejects_empty_candidates():
    with pytest.raises(ValueError):
        small_space(layers=(LayerConfig(candidates=()),))


def test_build_space_rejects_duplicate_hyper_names():
    dup = (
        HyperConfig(name="learning_rate", kind="continuous", basis=(0.01, 0.1)),
        HyperConfig(name="learning_rate", kind="continuous", basis=(0.01, 0.1)),
    )
    with pytest.raises(ValueError):
        small_space(hyperparameters=dup)


def test_build_space_rejects_unknown_hyper_name():
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="temperature", kind="continuous", basis=(0.1, 1.0)),
            )
        )


def test_build_space_rejects_wrong_kind():
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="optimizer", kind="continuous", basis=(0.1, 1.0)),
            )
        )
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="learning_rate", kind="categorical", basis=("sgd", "adam")),
            )
        )


def test_build_space_rejects_out_of_range_basis_values():
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="mixup_ratio", kind="continuous", basis=(0.0, 1.5)),
            )
        )
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="dropout_keep", kind="continuous", basis=(0.0, 1.0)),
            )
        )
    with pytest.raises(ValueError):
        small_space(
            hyperparameters=(
                HyperConfig(name="optimizer", kind="categorical", basis=("sgd", "adagrad")),
            )
        )


def test_build_space_rejects_unknown_op_token():
    with pytest.raises(ValueError):
        small_space(layers=(LayerConfig(candidates=("conv:8",), width=8),))
    with pytest.raises(ValueError):
        small_space(layers=(LayerConfig(candidates=("affine",), width=8),))


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def test_derive_continuous_dot_product():
    space = small_space(
        hyperparameters=(
            HyperConfig(name="learning_rate", kind="continuous", basis=(1e-3, 1e-2, 1e-1)),
        )
    )
    probs = [
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.5, 0.3, 0.2]),
    ]
    derived = derive(space, probs)
    assert abs(derived.hyper_values[0] - 0.0235) < 1e-15


def test_derive_categorical_argmax():
    space = small_space(
        hyperparameters=(
            HyperConfig(name="optimizer", kind="categorical", basis=("adam", "sgd", "rmsprop")),
        )
    )
    probs = [
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.2, 0.6, 0.2]),
    ]
    assert derive(space, probs).hyper_values[0] == "sgd"


def test_derive_tie_breaks_to_lowest_index():
    config = SpaceConfig(
        input_dim=2,
        num_classes=2,
        layers=(LayerConfig(candidates=("affine:4", "affine-relu:4"), width=4),),
        hyperparameters=(),
    )
    space = build_space(config)
    derived = derive(space, [np.array([0.5, 0.5])])
    assert derived.arch_choice == (0,)


def test_derive_one_hot_round_trip():
    space = small_space(
        hyperparameters=(
            HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
            HyperConfig(name="optimizer", kind="categorical", basis=("sgd", "adam")),
        )
    )
    for selection in [(0, 2, 1, 0), (2, 0, 0, 1), (1, 1, 2, 0)]:
        probs = [
            np.eye(card)[idx]
            for idx, card in zip(selection, space.cardinalities())
        ]
        derived = derive(space, probs)
        expected = selection_to_config(space, selection)
        assert derived == expected


def test_derive_continuous_stays_within_basis_bounds():
    space = small_space()
    rng = RngStream(13, "derive-fuzz")
    for _ in range(200):
        probs = []
        for card in space.cardinalities():
            raw = rng.uniform(card) + 1e-9
            probs.append(raw / raw.sum())
        derived = derive(space, probs)
        for decision, value in zip(space.hyper_decisions, derived.hyper_values):
            assert min(decision.basis) <= value <= max(decision.basis)


def test_derive_permutation_invariance():
    # swapping two candidates and their probabilities must not change the
    # derived value (continuous) or the derived candidate identity (categorical)
    space_a = small_space(
        hyperparameters=(
            HyperConfig(name="optimizer", kind="categorical", basis=("sgd", "adam", "rmsprop")),
            HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
        )
    )
    arch_probs = [np.array([0.2, 0.5, 0.3]), np.array([0.1, 0.2, 0.7])]
    opt_probs = np.array([0.2, 0.7, 0.1])
    lr_probs = np.array([0.3, 0.4, 0.3])
    derived_a = derive(space_a, arch_probs + [opt_probs, lr_probs])

    space_b = small_space(
        hyperparameters=(
            HyperConfig(name="optimizer", kind="categorical", basis=("adam", "sgd", "rmsprop")),
            HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
        )
    )
    swapped = opt_probs[[1, 0, 2]]
    derived_b = derive(space_b, arch_probs + [swapped, lr_probs])
    assert derived_a.hyper_values[0] == derived_b.hyper_values[0]
    assert derived_a.hyper_values[1] == derived_b.hyper_values[1]


def test_derive_rejects_simplex_violations():
    space = small_space()
    good = [np.full(card, 1.0 / card) for card in space.cardinalities()]
    bad_sum = [p.copy() for p in good]
    bad_sum[0] = np.array([0.6, 0.6, 0.6])
    with pytest.raises(ValueError):
        derive(space, bad_sum)
    bad_negative = [p.copy() for p in good]
    bad_negative[1] = np.array([1.1, -0.05, -0.05])
    with pytest.raises(ValueError):
        derive(space, bad_negative)
    bad_length = [p.copy() for p in good]
    bad_length[2] = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        derive(space, bad_length)


def test_derive_accepts_rounding_level_noise():
    space = small_space()
    probs = [np.full(card, 1.0 / card) for card in space.cardinalities()]
    probs[0] = probs[0] + np.array([3e-7, -2e-7, 0.0])  # within the 1e-6 budget
    derived = derive(space, probs)
    assert isinstance(derived, DerivedConfig)


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------


def test_validate_selection_errors():
    space = small_space()
    with pytest.raises(ValueError):
        validate_selection(space, (0, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        validate_selection(space, (3, 0, 0, 0))  # out of range
    with pytest.raises(ValueError):
        validate_selection(space, (-1, 0, 0, 0))
    assert validate_selection(space, [1, 2, 0, 1]) == (1, 2, 0, 1)


def test_selection_to_config_values():
    space = small_space(
        hyperparameters=(
            HyperConfig(name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)),
            HyperConfig(name="optimizer", kind="categorical", basis=("adam", "sgd", "rmsprop")),
        )
    )
    derived = selection_to_config(space, (2, 0, 1, 1))
    assert derived.arch_choice == (2, 0)
    assert derived.hyper_values == (0.01, "sgd")
