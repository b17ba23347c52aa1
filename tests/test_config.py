"""Config document parsing: strict validation and round-trips."""
from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

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
from jointsearch.space import HyperConfig, make_continuous_basis

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


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


@pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "dropout_keep"])
def test_geometric_sugar_resolves_to_basis(name):
    doc = minimal_doc()
    doc["space"]["hyperparameters"] = [
        {
            "name": name,
            "kind": "continuous",
            "geometric": {"default": 0.05, "count": 3, "span": 10},
        }
    ]
    config = parse_config(doc)
    basis = make_continuous_basis(0.05, 3, 10.0)
    assert config.space.hyperparameters == (HyperConfig(name, "continuous", basis),)


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


def hyper(name="learning_rate", kind="continuous", **keys):
    return {"name": name, "kind": kind, **keys}


def layer(**keys):
    return {"candidates": ["identity", "affine-relu:8"], "width": 8, **keys}


MALFORMED_SPACES = {
    "layers-null": ({"layers": None}, "space.layers: expected a list"),
    "hyperparameters-null": ({"hyperparameters": None}, "space.hyperparameters: expected a list"),
    "layers-object": ({"layers": layer()}, "space.layers: expected a list"),
    "hyperparameters-object": (
        {"hyperparameters": hyper(basis=[0.1])},
        "space.hyperparameters: expected a list",
    ),
    "layer-text": ({"layers": ["identity"]}, "space.layers[0]: expected an object"),
    "candidates-text": (
        {"layers": [layer(candidates="identity")]},
        "space.layers[0].candidates: expected a list",
    ),
    "candidate-number": (
        {"layers": [layer(candidates=["identity", 8])]},
        "space.layers[0].candidates[1]: expected a string",
    ),
    "width-text": ({"layers": [layer(width="8")]}, "space.layers[0].width: expected an integer"),
    "width-real": ({"layers": [layer(width=8.0)]}, "space.layers[0].width: expected an integer"),
    "width-bool": ({"layers": [layer(width=True)]}, "space.layers[0].width: expected an integer"),
    "layer-unknown-key": (
        {"layers": [layer(depth=2)]},
        "space.layers[0]: unknown key(s) ['depth']",
    ),
    "layer-no-candidates": ({"layers": [{"width": 8}]}, "missing required key(s) ['candidates']"),
    "basis-string": (
        {"hyperparameters": [hyper(basis=["0.1"])]},
        "space: basis value '0.1' for learning_rate is not a number",
    ),
    "basis-mixed": (
        {"hyperparameters": [hyper(basis=[0.01, "0.1"])]},
        "space: basis value '0.1' for learning_rate is not a number",
    ),
    "basis-bool": (
        {"hyperparameters": [hyper(basis=[True])]},
        "space.hyperparameters[0].basis[0]: expected a number",
    ),
    "basis-null": ({"hyperparameters": [hyper(basis=None)]}, "basis: expected a list"),
    "basis-text": ({"hyperparameters": [hyper(basis="0.1")]}, "basis: expected a list"),
    "basis-empty": ({"hyperparameters": [hyper(basis=[])]}, "has an empty basis"),
    "categorical-numbers": (
        {"hyperparameters": [hyper("optimizer", "categorical", basis=[1, 2])]},
        "space: unknown optimizer symbol 1.0",
    ),
    "categorical-bool": (
        {"hyperparameters": [hyper("optimizer", "categorical", basis=[False])]},
        "space.hyperparameters[0].basis[0]: expected a number",
    ),
    "geometric-optimizer": (
        {
            "hyperparameters": [
                hyper("optimizer", "categorical", geometric={"default": 1, "count": 2, "span": 2})
            ]
        },
        "space: unknown optimizer symbol",
    ),
    "geometric-categorical-kind": (
        {
            "hyperparameters": [
                hyper(kind="categorical", geometric={"default": 0.1, "count": 2, "span": 2})
            ]
        },
        "space: hyperparameter 'learning_rate' must be continuous",
    ),
    "geometric-null": (
        {"hyperparameters": [hyper(geometric=None)]},
        "space.hyperparameters[0].geometric: expected an object",
    ),
    "geometric-count-real": (
        {"hyperparameters": [hyper(geometric={"default": 0.1, "count": 3.0, "span": 10})]},
        "space.hyperparameters[0].geometric.count: expected an integer",
    ),
    "geometric-missing-span": (
        {"hyperparameters": [hyper(geometric={"default": 0.1, "count": 3})]},
        "space.hyperparameters[0].geometric: missing required key(s) ['span']",
    ),
    "geometric-unknown-key": (
        {"hyperparameters": [hyper(geometric={"default": 0.1, "count": 3, "span": 10, "base": 2})]},
        "space.hyperparameters[0].geometric: unknown key(s) ['base']",
    ),
    "geometric-one-point": (
        {"hyperparameters": [hyper(geometric={"default": 0.1, "count": 1, "span": 10})]},
        "space.hyperparameters[0].geometric: count must be at least 2",
    ),
    "default-index": (
        {"hyperparameters": [hyper(basis=[0.1, 0.2], default_index=0)]},
        "space.hyperparameters[0]: unknown key(s) ['default_index']",
    ),
    "hyper-unknown-key": (
        {"hyperparameters": [hyper(basis=[0.1], scale="log")]},
        "space.hyperparameters[0]: unknown key(s) ['scale']",
    ),
    "hyper-name-number": (
        {"hyperparameters": [hyper(name=5, basis=[0.1])]},
        "space.hyperparameters[0].name: expected a string",
    ),
    "hyper-kind-unknown": (
        {"hyperparameters": [hyper(kind="discrete", basis=[0.1])]},
        "space: hyperparameter 'learning_rate' must be continuous",
    ),
    "input-dim-real": ({"input_dim": 2.0}, "space.input_dim: expected an integer"),
}


@pytest.mark.parametrize("defect", MALFORMED_SPACES)
def test_malformed_space_values_are_config_errors(defect):
    edit, message = MALFORMED_SPACES[defect]
    doc = minimal_doc()
    doc["space"].update(edit)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert message in str(err.value)


def config_documents(monkeypatch):
    """Every config document the tests and the benchmark workloads build."""
    import test_acceptance
    import test_cli
    import test_engine

    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's namespace through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    reward = {"mode": "cost_aware", "beta": -0.1, "target_cost": 3.0}
    return {
        "config.minimal": minimal_doc(),
        "cli.base": test_cli.base_doc(),
        "engine.tabular": test_engine.tabular_doc((2, 3), 5, 2),
        "engine.moons": test_engine.moons_doc(output={"log_path": "events.jsonl"}),
        "acceptance.tabular": test_acceptance.tabular_doc((4, 3, 5), 9, 3, 1, reward=reward),
        "acceptance.a7": test_acceptance.a7_doc(2),
        "acceptance.a8": test_acceptance.a8_doc("run", Path("out")),
        "workloads.a7": workloads.a7_doc(1, workloads.A7_STEPS),
        "workloads.tabular": workloads.tabular_doc(1, workloads.TABULAR_STEPS),
        "workloads.wide": workloads.wide_doc(1, workloads.WIDE_STEPS, "events.jsonl", "ckpt"),
    }


def test_every_config_document_survives_an_echo_round_trip(monkeypatch):
    for name, doc in config_documents(monkeypatch).items():
        config = parse_config(doc)
        assert parse_config(config_to_dict(config)) == config, name
