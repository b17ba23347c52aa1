"""Config document parsing: strict validation and round-trips."""
from __future__ import annotations

import copy
import json

import pytest

from jointsearch.config import (
    ConfigError,
    DataSection,
    OutputSection,
    RetrainSection,
    RewardSection,
    SearchSection,
    config_to_dict,
    load_config,
    parse_config,
)
from jointsearch.space import make_continuous_basis


def minimal_doc():
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity", "affine-relu:8"], "width": 8}],
            "hyperparameters": [
                {"name": "learning_rate", "kind": "continuous", "basis": [0.001, 0.01, 0.1]}
            ],
        },
        "search": {"total_meta_steps": 10},
    }


def test_minimal_document_parses_with_defaults():
    config = parse_config(minimal_doc())
    assert config.search.pairs_per_step == 4
    assert config.search.warmup_fraction == 0.3
    assert config.search.meta_lr == 0.05
    assert config.search.baseline_momentum == 0.95
    assert config.search.inner_steps == 1
    assert config.search.reward.mode == "plain"
    assert config.data.generator == "two_moons"
    assert config.data.fractions == (0.5, 0.25, 0.25)
    assert config.retrain.epochs == 30
    assert config.output.checkpoint_interval == 0


def test_missing_required_sections():
    with pytest.raises(ConfigError):
        parse_config({"search": {"total_meta_steps": 1}})
    with pytest.raises(ConfigError):
        parse_config({"space": minimal_doc()["space"]})
    doc = minimal_doc()
    del doc["search"]["total_meta_steps"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_unknown_keys_are_rejected_and_named():
    for path, key in [
        (("search",), "meta_learning_rate"),
        (("data",), "noise"),
        (("retrain",), "lr"),
        (("output",), "directory"),
        (("space",), "depth"),
    ]:
        doc = minimal_doc()
        doc.setdefault(path[0], {})[key] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert key in str(err.value)


def test_root_unknown_section_rejected():
    doc = minimal_doc()
    doc["extra"] = {}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_geometric_sugar_resolves_to_basis():
    doc = minimal_doc()
    doc["space"]["hyperparameters"] = [
        {
            "name": "learning_rate",
            "kind": "continuous",
            "geometric": {"default": 0.05, "count": 3, "span": 10},
        }
    ]
    config = parse_config(doc)
    assert config.space.hyperparameters[0].basis == make_continuous_basis(0.05, 3, 10.0)


def test_basis_and_geometric_are_mutually_exclusive():
    doc = minimal_doc()
    doc["space"]["hyperparameters"] = [
        {
            "name": "learning_rate",
            "kind": "continuous",
            "basis": [0.01, 0.1],
            "geometric": {"default": 0.05, "count": 3, "span": 10},
        }
    ]
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["space"]["hyperparameters"] = [{"name": "learning_rate", "kind": "continuous"}]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_reward_section_validation():
    doc = minimal_doc()
    doc["search"]["reward"] = {"mode": "cost_aware", "beta": -0.1}
    with pytest.raises(ConfigError):  # target_cost required
        parse_config(doc)
    doc["search"]["reward"] = {"mode": "cost_aware", "beta": 0.1, "target_cost": 10.0}
    with pytest.raises(ConfigError):  # beta must be <= 0
        parse_config(doc)
    doc["search"]["reward"] = {"mode": "cost_aware", "beta": -0.1, "target_cost": 10.0}
    config = parse_config(doc)
    assert config.search.reward.target_cost == 10.0


def test_numeric_range_validation():
    cases = [
        ("search", "total_meta_steps", -1),
        ("search", "pairs_per_step", 0),
        ("search", "warmup_fraction", 1.0),
        ("search", "meta_lr", 0.0),
        ("search", "baseline_momentum", 1.0),
        ("search", "inner_steps", 0),
        ("data", "n", 1),
        ("data", "noise_sd", -0.5),
        ("retrain", "epochs", 0),
        ("output", "checkpoint_interval", -1),
    ]
    for section, key, value in cases:
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError):
            parse_config(doc)


def test_fractions_must_sum_to_one():
    doc = minimal_doc()
    doc["data"] = {"fractions": [0.5, 0.3, 0.3]}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_booleans_are_not_integers():
    doc = minimal_doc()
    doc["search"]["total_meta_steps"] = True
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_space_errors_surface_as_config_errors():
    doc = minimal_doc()
    doc["space"]["layers"] = [{"candidates": ["affine:8", "affine:16"]}]  # no width
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_config_echo_round_trip():
    doc = minimal_doc()
    doc["data"] = {"generator": "spirals", "n": 300, "turns": 1.5, "seed": 9}
    doc["search"]["reward"] = {"mode": "cost_aware", "beta": -0.2, "target_cost": 40.0}
    doc["output"] = {"log_path": "events.jsonl", "checkpoint_interval": 10}
    config = parse_config(doc)
    echoed = parse_config(config_to_dict(config))
    assert echoed == config


def test_parse_does_not_mutate_the_document():
    doc = minimal_doc()
    snapshot = copy.deepcopy(doc)
    parse_config(doc)
    assert doc == snapshot


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_load_config_reads_valid_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_doc()))
    config = load_config(str(path))
    assert config.search.total_meta_steps == 10


def test_absent_keys_take_the_section_defaults():
    config = parse_config(minimal_doc())
    assert config.data == DataSection()
    assert config.search == SearchSection(total_meta_steps=10)
    assert config.search.reward == RewardSection()
    assert config.retrain == RetrainSection()
    assert config.output == OutputSection()


SECTION_RANGE_CASES = [
    (SearchSection, {"total_meta_steps": -1}, "search.total_meta_steps: must be >= 0"),
    (SearchSection, {"total_meta_steps": 1, "meta_lr": 0.0}, "search.meta_lr: must be positive"),
    (
        SearchSection,
        {"total_meta_steps": 1, "warmup_fraction": 1.0},
        "search.warmup_fraction: must be in [0, 1)",
    ),
    (RewardSection, {"mode": "hybrid"}, "search.reward.mode: expected one of"),
    (RewardSection, {"beta": 0.5}, "search.reward.beta: must be <= 0"),
    (
        RewardSection,
        {"mode": "cost_aware", "beta": -0.1},
        "search.reward.target_cost: required for cost_aware mode",
    ),
    (DataSection, {"n": 7}, "data.n: must be even for a generator"),
    (RetrainSection, {"epochs": 0}, "retrain.epochs: must be >= 1"),
    (OutputSection, {"checkpoint_interval": -1}, "output.checkpoint_interval: must be >= 0"),
]


@pytest.mark.parametrize(
    "section, kwargs, message",
    SECTION_RANGE_CASES,
    ids=[message.split(":")[0] for _, _, message in SECTION_RANGE_CASES],
)
def test_sections_built_in_code_are_range_checked(section, kwargs, message):
    with pytest.raises(ConfigError) as err:
        section(**kwargs)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"fractions": [1.5, -0.25, -0.25]}, "data.fractions: must all be positive"),
        ({"fractions": [1.0, 0.0, 0.0]}, "data.fractions: must all be positive"),
        ({"generator": "two_moons", "n": 301}, "data.n: must be even for a generator"),
        ({"generator": "spirals", "n": 99}, "data.n: must be even for a generator"),
        ({"generator": "spirals", "turns": 0.0}, "data.turns: must be positive for spirals"),
        ({"generator": "spirals", "turns": -1.5}, "data.turns: must be positive for spirals"),
    ],
)
def test_data_values_that_fail_at_run_time_are_config_errors(data, message):
    doc = minimal_doc()
    doc["data"] = data
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "data",
    [
        {"generator": "none", "n": 301},
        {"csv_path": "points.csv", "n": 301},
        {"generator": "two_moons", "turns": 0.0},
        {"csv_path": "points.csv", "generator": "spirals", "turns": 0.0},
    ],
)
def test_data_values_a_run_does_not_use_are_not_checked(data):
    doc = minimal_doc()
    doc["data"] = data
    parse_config(doc)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "path",
    [
        ("search", "entropy_weight"),
        ("search", "meta_lr"),
        ("search", "warmup_fraction"),
        ("search", "reward", "beta"),
        ("search", "reward", "target_cost"),
        ("data", "noise_sd"),
        ("data", "turns"),
        ("data", "fractions", 0),
        ("space", "hyperparameters", 0, "basis", 1),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
def test_non_finite_reals_are_rejected(text, path):
    doc = minimal_doc()
    doc["data"] = {"fractions": [0.5, 0.25, 0.25]}
    doc["search"]["reward"] = {}
    owner = doc
    for part in path[:-1]:
        owner = owner[part]
    owner[path[-1]] = "PLACEHOLDER"
    document = json.loads(json.dumps(doc).replace('"PLACEHOLDER"', text))
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert "expected a finite number" in str(err.value)
