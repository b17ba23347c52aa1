"""Engine tests: reward rules, candidate isolation, search invariants, retrain."""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jointsearch import controller, engine, persist, supernet
from jointsearch.config import ConfigError, RewardSection, config_to_dict, parse_config
from jointsearch.data import concat, split, two_moons
from jointsearch.engine import (
    compute_reward,
    eval_metrics,
    evaluate_candidate,
    meta_step,
    random_search_baseline,
    retrain,
    search,
    start_run,
)
from jointsearch.numerics import RngStream, softmax
from jointsearch.persist import event_header, read_events, store_digest
from jointsearch.space import (
    OPTIMIZERS,
    DerivedConfig,
    HyperConfig,
    LayerConfig,
    SpaceConfig,
    build_space,
    derive,
)
from jointsearch.trainstep import TrainerSpec

from reference import taped_train_step, unsealed, weights_digest


def tabular_doc(cards, total, k, seed=0, **search_over):
    """Config document for a dataset-free run driven by an evaluate override."""
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity"] * c} for c in cards],
            "hyperparameters": [],
        },
        "data": {"generator": "none", "seed": seed},
        "search": {"total_meta_steps": total, "pairs_per_step": k, **search_over},
    }


def moons_doc(total=6, k=2, seed=3, output=None, **search_over):
    doc = {
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
        "data": {"generator": "two_moons", "n": 120, "seed": seed},
        "search": {"total_meta_steps": total, "pairs_per_step": k, **search_over},
    }
    if output is not None:
        doc["output"] = output
    return doc


def eval_space():
    return build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=(LayerConfig(candidates=("identity", "affine-relu:8"), width=8),),
            hyperparameters=(),
        )
    )


# ---------------------------------------------------------------------------
# compute_reward
# ---------------------------------------------------------------------------


def test_compute_reward_frozen_examples():
    assert compute_reward(0.8, 123.0, RewardSection()) == 0.8
    on_target = RewardSection(mode="cost_aware", beta=-0.1, target_cost=50.0)
    assert abs(compute_reward(0.8, 50.0, on_target) - 0.8) < 1e-15
    assert abs(compute_reward(0.8, 100.0, on_target) - 0.7) < 1e-15


def test_compute_reward_rejects_bad_inputs():
    spec = RewardSection(mode="cost_aware", beta=-0.1, target_cost=10.0)
    for accuracy in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError):
            compute_reward(accuracy, 1.0, spec)
    with pytest.raises(ValueError):
        compute_reward(0.5, -1.0, spec)
    with pytest.raises(ValueError):
        RewardSection(mode="hybrid")
    with pytest.raises(ValueError):
        RewardSection(beta=0.5)
    with pytest.raises(ValueError):
        RewardSection(mode="cost_aware", beta=-0.1)  # no target
    with pytest.raises(ValueError):
        RewardSection(mode="cost_aware", beta=-0.1, target_cost=0.0)


@pytest.mark.parametrize("cost", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("mode", ["plain", "cost_aware"])
def test_compute_reward_refuses_a_bad_cost_in_either_mode(mode, cost):
    # A plain reward ignores the cost, but the reward history keeps it.
    aware = RewardSection(mode="cost_aware", beta=-0.1, target_cost=10.0)
    spec = RewardSection() if mode == "plain" else aware
    with pytest.raises(ValueError) as err:
        compute_reward(0.5, cost, spec)
    assert str(err.value) == f"cost must be finite and non-negative, got {cost}"


def test_a_bad_cost_stops_the_search_before_its_step_is_written(tmp_path):
    # The step-0 NaN cost is refused as it is scored: no record of it is
    # logged and no checkpoint saved, where it used to fail the first save.
    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 2,
    }
    config = parse_config({**tabular_doc([3, 2], total=4, k=2), "output": output})
    scored = []

    def nan_cost(selection):
        scored.append(selection)
        return 0.5, float("nan")

    with pytest.raises(ValueError) as err:
        search(config, evaluate_override=nan_cost)
    assert str(err.value) == "cost must be finite and non-negative, got nan"
    assert len(scored) == 1
    header = event_header(["layer0", "layer1"], [3, 2])
    assert Path(output["log_path"]).read_text().splitlines() == [header]
    assert not os.path.exists(output["checkpoint_path"])


def test_cost_aware_reward_never_exceeds_plain():
    rng = RngStream(11, "reward-fuzz")
    plain = RewardSection()
    for _ in range(300):
        accuracy = rng.uniform()
        cost = rng.uniform() * 100.0
        beta = -rng.uniform()
        target = 1e-6 + rng.uniform() * 50.0
        aware = RewardSection(mode="cost_aware", beta=beta, target_cost=target)
        assert compute_reward(accuracy, cost, aware) <= compute_reward(
            accuracy, cost, plain
        ) + 1e-15


# ---------------------------------------------------------------------------
# evaluate_candidate
# ---------------------------------------------------------------------------


def test_untrained_accuracy_is_near_chance_over_seeds():
    space = eval_space()
    dataset = two_moons(200, 0.1, 7)
    batch = (dataset.features, dataset.labels)
    accuracies = []
    for seed in range(50):
        weights = supernet.init_weights(space, RngStream(seed, "init"))
        accuracy, cost = evaluate_candidate(
            weights, (1,), [batch], batch, RngStream(seed, "t"), learning_rate=0.0
        )  # lr 0 keeps the net untrained
        assert 0.0 <= accuracy <= 1.0
        assert cost == supernet.sub_view(space, (1,)).cost
        accuracies.append(accuracy)
    mean = float(np.mean(accuracies))
    # per-seed accuracy sd is bounded by 0.5, so 3 sigma of the seed mean:
    assert abs(mean - 0.5) < 3 * 0.5 / np.sqrt(50)


def test_val_batch_of_one_gives_zero_or_one():
    space = eval_space()
    dataset = two_moons(100, 0.1, 2)
    train_batch = (dataset.features, dataset.labels)
    for seed in range(20):
        weights = supernet.init_weights(space, RngStream(seed, "init"))
        pick = RngStream(seed, "pick").index(100)
        val = (dataset.features[pick : pick + 1], dataset.labels[pick : pick + 1])
        accuracy, _ = evaluate_candidate(weights, (1,), [train_batch], val, RngStream(seed, "t"))
        assert accuracy in (0.0, 1.0)


@pytest.mark.parametrize(
    "bad_row,message",
    [
        ([np.nan, 1.0], "labels must be finite"),
        ([np.inf, 0.0], "labels must be finite"),
        ([1.5, -0.5], "label rows must be distributions summing to 1"),
        ([0.7, 0.7], "label rows must be distributions summing to 1"),
        ([0.5, 0.5 - 2e-6], "label rows must be distributions summing to 1"),
    ],
)
def test_evaluate_candidate_checks_val_labels_like_the_loss(bad_row, message):
    # Scoring computes no loss, but its validation labels get the loss's checks.
    space = eval_space()
    dataset = two_moons(20, 0.1, 4)
    weights = supernet.init_weights(space, RngStream(4, "init"))
    labels = dataset.labels.copy()
    labels[3] = bad_row
    with pytest.raises(ValueError, match=message):
        evaluate_candidate(
            weights,
            (1,),
            [(dataset.features, dataset.labels)],
            (dataset.features, labels),
            RngStream(4, "t"),
        )
    with pytest.raises(ValueError, match="logit/label shapes incompatible"):
        evaluate_candidate(
            weights,
            (1,),
            [(dataset.features, dataset.labels)],
            (dataset.features, dataset.labels[:, :1]),
            RngStream(4, "t"),
        )


def test_evaluate_candidate_leaves_store_bitwise_unchanged():
    space = build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("identity", "affine-relu:8"), width=8),
                LayerConfig(candidates=("affine-tanh:8", "identity"), width=8),
            ),
            hyperparameters=(
                HyperConfig(name="learning_rate", kind="continuous", basis=(0.01, 0.1)),
                HyperConfig(name="mixup_ratio", kind="continuous", basis=(0.0, 0.2)),
                HyperConfig(name="dropout_keep", kind="continuous", basis=(0.8, 1.0)),
            ),
        )
    )
    dataset = two_moons(80, 0.1, 5)
    batch = (dataset.features, dataset.labels)
    rng = RngStream(9, "fuzz")
    weights = supernet.init_weights(space, RngStream(9, "init"))
    before = {key: value.copy() for key, value in weights.store.items()}
    for trial in range(25):
        selection = tuple(rng.index(c) for c in space.cardinalities())
        evaluate_candidate(weights, selection, [batch], batch, RngStream(trial, "t"))
        for key, value in before.items():
            assert np.array_equal(weights.store[key], value)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def fail_if_called(selection):
    raise AssertionError("override must not be called when total_meta_steps is 0")


def test_zero_step_search_derives_from_uniform():
    config = parse_config(
        {
            "space": {
                "input_dim": 2,
                "num_classes": 2,
                "layers": [{"candidates": ["identity"] * 3} for _ in range(2)],
                "hyperparameters": [
                    {
                        "name": "learning_rate",
                        "kind": "continuous",
                        "basis": [0.001, 0.01, 0.1],
                    }
                ],
            },
            "data": {"generator": "none"},
            "search": {"total_meta_steps": 0},
        }
    )
    result = search(config, evaluate_override=fail_if_called)
    space = build_space(config.space)
    uniform = [np.full(c, 1.0 / c) for c in space.cardinalities()]
    assert result.derived == derive(space, uniform)
    assert result.derived.arch_choice == (0, 0)  # ties break to index 0
    assert abs(result.derived.hyper_values[0] - np.mean([0.001, 0.01, 0.1])) < 1e-15
    assert result.reward_history == []
    assert result.wall_steps == 0


def test_generator_none_without_override_is_a_config_error():
    config = parse_config(tabular_doc((3,), total=2, k=1))
    with pytest.raises(ConfigError):
        search(config)


def test_search_tabular_recovers_planted_optimum():
    planted = (1, 2)

    def table(selection):
        hamming = sum(a != b for a, b in zip(selection, planted))
        return 1.0 - hamming / 2.0, 0.0

    recovered = 0
    for seed in range(5):
        config = parse_config(tabular_doc((3, 3), total=300, k=4, seed=seed))
        result = search(config, evaluate_override=table)
        argmax = tuple(int(np.argmax(p)) for p in result.final_probabilities)
        recovered += argmax == planted
    assert recovered >= 4


_NO_SCIPY_SCRIPT = """
import json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now fails
from jointsearch import parse_config, search
from jointsearch.cli import main

doc = json.loads(sys.argv[1])
result = search(parse_config(doc), evaluate_override=lambda sel: (1.0 - sel[0] / 3.0, 0.0))
from jointsearch.numerics import RngStream
rng = RngStream(0, "n")
normal = rng.normal(3).tolist()
lams, _ = rng.beta_permutations(0.2, [rng.counter], [0])
codes = [main(args.split()) for args in (
    "search --config mixup.json",
    "retrain --config mixup.json --from-result result.json --out metrics.json",
    "baseline random --config mixup.json --budget 2 --out baseline.json",
)]
print(json.dumps({
    "steps": len(result.reward_history),
    "normal": normal,
    "beta": lams[0],
    "counter": rng.counter,
    "codes": codes,
    "scipy_loaded": any(
        name.split(".")[0] == "scipy" and module is not None for name, module in sys.modules.items()
    ),
}))
"""


def test_controller_only_search_never_loads_scipy_special(tmp_path):
    # Fresh interpreters: this one has long since drawn normals. The same
    # script runs where scipy cannot be imported and where it can; a mixup
    # search, its retrain and a baseline must write the same bytes in both,
    # and neither run loads scipy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    doc = json.dumps(tabular_doc((3, 4, 2), total=5, k=3))
    mixup = moons_doc(total=4, k=2, output={"result_path": "result.json"}, inner_steps=2)
    mixup["space"]["hyperparameters"].append(
        {"name": "mixup_ratio", "kind": "continuous", "basis": [0.1, 0.4]}
    )
    mixup["retrain"] = {"epochs": 2}
    outputs = {}
    for mode in ("blocked", "importable"):
        work = tmp_path / mode
        work.mkdir()
        (work / "mixup.json").write_text(json.dumps(mixup))
        out = subprocess.run(
            [sys.executable, "-c", _NO_SCIPY_SCRIPT, doc, mode],
            env=env, cwd=work, capture_output=True, text=True, timeout=120, check=True,
        )
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert got["steps"] == 15
        assert got["scipy_loaded"] is False
        # Known answers: the draws are those of the module-level import.
        assert got["normal"] == [0.9185522865117592, 0.31341434742065444, -1.106587072740746]
        # The Beta draw reads word 4, the one after the three normals, and the
        # block draw leaves the counter where it was.
        assert got["beta"] == 0.17521435261491683
        assert got["counter"] == 3
        assert got["codes"] == [0, 0, 0]
        names = ("result.json", "metrics.json", "baseline.json")
        outputs[mode] = [(work / name).read_bytes() for name in names]
    assert outputs["blocked"] == outputs["importable"]


def test_event_log_shape_and_finite_rewards(tmp_path):
    log = tmp_path / "events.jsonl"
    doc = moons_doc(total=5, k=2, output={"log_path": str(log)})
    result = search(parse_config(doc))
    header, events = read_events(str(log))
    assert [d["cardinality"] for d in header["decisions"]] == [2, 3]
    assert [e.meta_step for e in events] == [0, 1, 2, 3, 4]
    for event in events:
        assert np.isfinite(event.mean_reward)
        for probs in event.probabilities:
            assert abs(sum(probs) - 1.0) < 1e-9
    assert len(result.reward_history) == 5 * 2
    assert all(np.isfinite(r.reward) for r in result.reward_history)


def test_reward_records_carry_the_baseline_their_update_used(tmp_path):
    log_path = str(tmp_path / "events.jsonl")
    result = search(parse_config(moons_doc(total=5, k=3, output={"log_path": log_path})))
    _, events = read_events(log_path)
    for step in range(5):
        records = [r for r in result.reward_history if r.meta_step == step]
        # The first update has no baseline yet, so its first reward stands
        # in; later ones use the baseline the previous step left.
        used = records[0].reward if step == 0 else events[step - 1].baseline
        assert [r.baseline for r in records] == [used] * 3
        # The log holds the same records: its step's candidates and baseline.
        assert events[step].advantage_baseline == used
        assert events[step].candidates == [
            {"selection": list(r.selection), "accuracy": r.accuracy, "cost": r.cost,
             "reward": r.reward}
            for r in records
        ]
        assert len(events[step].commits) == 3


def test_store_digest_invariant_across_controller_phase():
    digests = {}

    def watch(phase, step, weights):
        digests[(phase, step)] = weights_digest(weights)

    config = parse_config(moons_doc(total=4, k=2))
    search(config, audit=watch)
    space = build_space(config.space)
    fresh = supernet.init_weights(space, RngStream(config.data.seed, "init"))
    assert digests[("controller", 0)] == weights_digest(fresh)
    for step in range(1, 4):
        assert digests[("controller", step)] == digests[("commit", step - 1)]
    assert digests[("commit", 3)] != weights_digest(fresh)  # training happened


def test_each_pair_is_validated_once_by_its_view_and_once_by_its_trainer(monkeypatch):
    # sub_view resolves a sampled pair once; build_trainer's selection_to_config
    # is the only other reader, for scored candidates and commits alike.
    from jointsearch import space as space_module

    steps, pairs = 3, 2
    calls = []
    original = space_module.validate_selection

    def counting(space, selection):
        calls.append(tuple(selection))
        return original(space, selection)

    monkeypatch.setattr(space_module, "validate_selection", counting)
    monkeypatch.setattr(supernet, "validate_selection", counting)
    phases = []
    search(
        parse_config(moons_doc(total=steps, k=pairs, inner_steps=4)),
        audit=lambda phase, step, weights: phases.append((phase, len(calls))),
    )
    expected, total = [], 0
    for _ in range(steps):
        total += 2 * pairs
        expected.append(("controller", total))
        total += 2 * pairs
        expected.append(("commit", total))
    assert phases == expected
    assert len(calls) == 2 * steps * pairs + 2 * steps * pairs


def test_derived_always_matches_final_probabilities():
    config = parse_config(moons_doc(total=3, k=2))
    result = search(config)
    space = build_space(config.space)
    assert result.derived == derive(space, result.final_probabilities)


def test_more_pairs_per_step_reduces_reward_variance():
    """Per-step mean rewards noise shrinks when K grows (windowed variance)."""
    for seed in range(3):
        variances = {}
        for k in (1, 4):
            rng = np.random.default_rng(seed + 100)
            table = {}

            def lookup(selection):
                if selection not in table:
                    table[selection] = float(rng.uniform(0.2, 0.8))
                return table[selection], 0.0

            config = parse_config(
                tabular_doc((4, 4), total=200, k=k, seed=seed, warmup_fraction=0.9)
            )
            result = search(config, evaluate_override=lookup)
            steps = [[] for _ in range(200)]
            for record in result.reward_history:
                steps[record.meta_step].append(record.reward)
            means = [np.mean(rs) for rs in steps[:180]]  # warm-up window
            windows = [np.var(means[i : i + 20]) for i in range(0, 180, 20)]
            variances[k] = float(np.mean(windows))
        assert variances[4] <= variances[1]


def test_search_rejects_mismatched_dataset_shape():
    doc = moons_doc(total=1, k=1)
    doc["space"]["input_dim"] = 3
    doc["space"]["layers"][0]["width"] = 8
    config = parse_config(doc)
    with pytest.raises(ConfigError) as err:
        search(config)
    assert "features" in str(err.value)


def _three_row_csv(path):
    path.write_text("x1,x2,label\n0.0,1.0,a\n1.0,0.0,b\n0.5,0.5,a\n")
    return str(path)


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(
            lambda tmp_path: {"generator": "two_moons", "n": 2, "seed": 3},
            "data split leaves test with no rows: 2 rows split into train 1, val 1, test 0",
            id="two-rows",
        ),
        pytest.param(
            lambda tmp_path: {"csv_path": _three_row_csv(tmp_path / "d.csv"), "seed": 3},
            "data split leaves val with no rows: 3 rows split into train 2, val 0, test 1",
            id="three-row-csv",
        ),
    ],
)
def test_search_refuses_an_empty_split_part_before_any_step(tmp_path, data, message):
    log = tmp_path / "events.jsonl"
    doc = moons_doc(total=2, k=1, output={"log_path": str(log)})
    config = parse_config({**doc, "data": data(tmp_path)})
    steps = []
    with pytest.raises(ConfigError) as err:
        search(config, audit=lambda phase, step, weights: steps.append(step))
    assert str(err.value) == message
    assert steps == [] and not log.exists()


def test_a_resumed_run_takes_its_head_from_the_seed(tmp_path):
    # No step trains the head and no checkpoint holds it, so the head of a
    # resumed run is the one ``init_weights`` draws from the seed, bit for bit.
    path = tmp_path / "ck.ckpt"
    output = {"checkpoint_path": str(path), "checkpoint_interval": 3, "log_path": str(tmp_path / "e")}
    config = parse_config(moons_doc(total=6, output=output))

    def crash(phase, step, weights):
        if step == 4:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        search(config, audit=crash)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["meta_step"] == 3
    assert not [name for name, _ in header["arrays"] if name.startswith("head/")]
    heads = []

    def watch(phase, step, weights):
        heads.append((step, weights.head_weight.tobytes(), weights.head_bias.tobytes()))

    search(config, resume_from=str(path), audit=watch)
    init = supernet.init_weights(build_space(config.space), RngStream(3, "init"))
    seeded = (init.head_weight.tobytes(), init.head_bias.tobytes())
    assert [step for step, *_ in heads] == [3, 3, 4, 4, 5, 5]
    assert all(tuple(head) == seeded for _, *head in heads)


def test_interrupted_run_resumes_to_identical_results(tmp_path):
    def output_for(tag):
        return {
            "log_path": str(tmp_path / f"{tag}.jsonl"),
            "checkpoint_path": str(tmp_path / f"{tag}.ckpt"),
            "checkpoint_interval": 4,
        }

    reference_digests = {}

    def watch_reference(phase, step, weights):
        reference_digests[(phase, step)] = weights_digest(weights)

    search(parse_config(moons_doc(total=8, output=output_for("ref"))), audit=watch_reference)

    def interrupt(phase, step, weights):
        if phase == "controller" and step == 4:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        search(parse_config(moons_doc(total=8, output=output_for("run"))), audit=interrupt)

    resumed_digests = {}

    def watch_resumed(phase, step, weights):
        resumed_digests[(phase, step)] = weights_digest(weights)

    resumed = search(
        parse_config(moons_doc(total=8, output=output_for("run"))),
        resume_from=str(tmp_path / "run.ckpt"),
        audit=watch_resumed,
    )

    assert resumed_digests[("commit", 7)] == reference_digests[("commit", 7)]
    _, ref_events = read_events(str(tmp_path / "ref.jsonl"))
    _, run_events = read_events(str(tmp_path / "run.jsonl"))
    assert len(run_events) == len(ref_events) == 8
    for a, b in zip(ref_events, run_events):
        assert a.meta_step == b.meta_step
        assert a.mean_reward == b.mean_reward
        assert a.baseline == b.baseline
        assert a.probabilities == b.probabilities
        assert a.store_digest == b.store_digest
    reference = search(parse_config(moons_doc(total=8)))
    for p, q in zip(reference.final_probabilities, resumed.final_probabilities):
        assert np.array_equal(p, q)


def test_resumed_event_log_has_no_duplicate_steps(tmp_path):
    def output_for(tag):
        return {
            "log_path": str(tmp_path / f"{tag}.jsonl"),
            "checkpoint_path": str(tmp_path / f"{tag}.ckpt"),
            "checkpoint_interval": 4,
        }

    total = 10
    search(parse_config(moons_doc(total=total, output=output_for("ref"))))

    def crash_at_six(phase, step, weights):
        if phase == "commit" and step == 6:
            raise RuntimeError("simulated crash")

    run_config = parse_config(moons_doc(total=total, output=output_for("run")))
    with pytest.raises(RuntimeError):
        search(run_config, audit=crash_at_six)
    _, crashed = read_events(str(tmp_path / "run.jsonl"))
    assert [e.meta_step for e in crashed] == list(range(6))  # past the step-4 checkpoint
    search(run_config, resume_from=str(tmp_path / "run.ckpt"))

    ref_header, ref_events = read_events(str(tmp_path / "ref.jsonl"))
    run_header, run_events = read_events(str(tmp_path / "run.jsonl"))
    assert run_header == ref_header
    assert [e.meta_step for e in run_events] == list(range(total))
    for a, b in zip(ref_events, run_events):
        assert replace(a, wall_ms=0.0) == replace(b, wall_ms=0.0)


def _recording_saves(monkeypatch):
    """Make every ``persist.save_checkpoint`` call append ``(path, meta_step,
    bytes written)`` to the returned list."""
    saves = []
    original = persist.save_checkpoint

    def save(path, ckpt):
        original(path, ckpt)
        with open(path, "rb") as fh:
            saves.append((path, ckpt.meta_step, fh.read()))

    monkeypatch.setattr(persist, "save_checkpoint", save)
    return saves


@pytest.mark.parametrize(
    "interval, steps_saved", [(1, [1, 2, 3, 4, 5]), (2, [2, 4, 5]), (3, [3, 5]), (0, [5])]
)
def test_search_saves_the_final_checkpoint_once(tmp_path, monkeypatch, interval, steps_saved):
    saves = _recording_saves(monkeypatch)
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": interval, "log_path": path + ".log"}
    search(config := parse_config(moons_doc(total=5, output=output)))
    assert [step for _, step, _ in saves] == steps_saved
    with open(path, "rb") as fh:
        final = fh.read()
    assert final == saves[-1][2]
    # A resume at the last step saves the final checkpoint again, as the
    # skipped duplicate save would have: the bytes do not change.
    search(config, resume_from=path)
    assert [step for _, step, _ in saves[len(steps_saved) :]] == [5]
    with open(path, "rb") as fh:
        assert fh.read() == final


def _seals_its_log(config) -> bool:
    """Whether the run's checkpoint seals its whole event log."""
    log = Path(config.output.log_path).read_bytes()
    sealed = persist.load_checkpoint(config.output.checkpoint_path).log_sha256
    return sealed == hashlib.sha256(log).hexdigest()


def test_resume_after_any_crash_writes_the_uninterrupted_final_checkpoint(tmp_path):
    # One config, so the paths echoed in the checkpoint agree as well. The
    # checkpoint seals its own log, whose wall-clock times differ from the
    # uninterrupted run's, and all else is the same bytes.
    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 2,
    }
    config = parse_config(moons_doc(total=7, output=output))
    search(config)
    with open(output["checkpoint_path"], "rb") as fh:
        uninterrupted = fh.read()
    for crash_step in range(2, 7):  # every step after the step-2 checkpoint
        for crash_phase in ("controller", "commit"):

            def crash(phase, step, weights):
                if (phase, step) == (crash_phase, crash_step):
                    raise RuntimeError("simulated crash")

            with pytest.raises(RuntimeError):
                search(config, audit=crash)
            search(config, resume_from=output["checkpoint_path"])
            with open(output["checkpoint_path"], "rb") as fh:
                assert unsealed(fh.read()) == unsealed(uninterrupted), (crash_phase, crash_step)
            assert _seals_its_log(config)


def _checkpoint_of_every_step(config, **search_kw) -> tuple[list[bytes], bytes]:
    """Run ``config`` (checkpoint interval 1) uninterrupted and return the
    bytes of its checkpoint after each step, the final one last, and of its
    event log, whose first lines each of them seals."""
    path = config.output.checkpoint_path
    saved = []

    def copy(phase, step, weights):
        if phase == "controller" and step > 0:  # the file holds step - 1's save
            with open(path, "rb") as fh:
                saved.append(fh.read())

    search(config, audit=copy, **search_kw)
    with open(path, "rb") as fh:
        return saved + [fh.read()], Path(config.output.log_path).read_bytes()


def _restore(config, checkpoint: bytes, log: bytes) -> None:
    """Put back a checkpoint and the event log it was saved beside."""
    Path(config.output.checkpoint_path).write_bytes(checkpoint)
    Path(config.output.log_path).write_bytes(log)


def test_a_search_computes_the_probabilities_once_per_logit_change(tmp_path, monkeypatch):
    # Once as the run starts and once after each update, none inside the
    # warm-up of ceil(0.3 * 10) = 3 steps; the commit phase, the event
    # record, the next scoring phase and the result read those: 1 + 10 - 3
    # tables. Each is one softmax when every decision has fewer than 8
    # candidates, else one per distinct cardinality.
    real, calls = controller.softmax, []
    monkeypatch.setattr(controller, "softmax", lambda z: calls.append(1) or real(z))
    log = str(tmp_path / "t.jsonl")
    for cards, per_table in (([3, 2, 4], 1), ([9, 2, 8], 3)):
        calls.clear()
        doc = {**tabular_doc(cards, total=10, k=3), "output": {"log_path": log}}
        search(parse_config(doc), evaluate_override=lambda s: (0.2 + 0.1 * s[0], 1.0))
        assert len(calls) == 8 * per_table, cards
    # Each record of a network search logs the logits its step left, as one
    # softmax per decision of the controller that a run resumed from the
    # checkpoint that step saved replays, bit for bit.
    path, log = str(tmp_path / "ck.ckpt"), str(tmp_path / "n.jsonl")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": log}
    config = parse_config(moons_doc(total=4, output=output))
    every, _ = _checkpoint_of_every_step(config)
    _, records = read_events(log)
    assert len(records) == len(every) == 4
    for record, data in zip(records, every):
        with open(path, "wb") as fh:
            fh.write(data)
        state = start_run(config, True, path).controller
        assert record.probabilities == [softmax(z).tolist() for z in state.logits]
        assert record.baseline == state.baseline


def test_resume_from_every_step_across_warm_up_and_optimizers(tmp_path):
    # Warm-up ends at step ceil(0.3 * 8) = 3, and the commits use every
    # optimizer family, so each resume is compared with a controller both
    # untouched and updated, and with commit slots of each family.
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    doc = moons_doc(total=8, k=3, output=output)
    doc["search"]["warmup_fraction"] = 0.3
    basis = ["sgd", "momentum", "adam", "rmsprop"]
    doc["space"]["hyperparameters"].append(
        {"name": "optimizer", "kind": "categorical", "basis": basis}
    )
    config = parse_config(doc)
    every, log = _checkpoint_of_every_step(config)
    final = persist.load_checkpoint(path)
    families = {family for (family, _), _ in final.commit_slots.items()}
    assert families == {"momentum", "adam", "rmsprop"}
    for done, data in enumerate(every, start=1):
        _restore(config, data, log)
        moments = start_run(config, True, path).controller.m  # replayed from the log
        assert any(row.any() for row in moments) == (done > 3)
        search(config, resume_from=path)
        with open(path, "rb") as fh:
            assert unsealed(fh.read()) == unsealed(every[-1]), done
        assert _seals_its_log(config)


def test_table_driven_resume_inside_and_after_warm_up(tmp_path):
    def table(selection):
        return 0.2 + 0.3 * (selection[0] == 2) + 0.1 * selection[1], 1.0

    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    config = parse_config({**tabular_doc([3, 2, 4], total=10, k=3), "output": output})
    every, log = _checkpoint_of_every_step(config, evaluate_override=table)
    for done in range(1, 11):  # warm-up is the first ceil(0.3 * 10) = 3 steps
        _restore(config, every[done - 1], log)
        resumed = start_run(config, False, path)
        assert resumed.ckpt.meta_step == done
        assert any(row.any() for row in resumed.controller.v) == (done > 3)
        search(config, evaluate_override=table, resume_from=path)
        with open(path, "rb") as fh:
            assert unsealed(fh.read()) == unsealed(every[-1]), done
        assert _seals_its_log(config)


def _resealed_over(config, step: int, edit) -> None:
    """Apply ``edit`` to the record of ``step`` in the run's event log and
    re-seal the run's checkpoint over the edited log."""
    log = Path(config.output.log_path)
    lines = log.read_bytes().splitlines(keepends=True)
    lines[step + 1] = (json.dumps(edit(json.loads(lines[step + 1]))) + "\n").encode()
    log.write_bytes(b"".join(lines))
    path = config.output.checkpoint_path
    ckpt = persist.load_checkpoint(path)
    ckpt.log_sha256 = hashlib.sha256(b"".join(lines[: 1 + ckpt.meta_step])).hexdigest()
    persist.save_checkpoint(path, ckpt)


def _nudged(value: float) -> float:
    return float(np.nextafter(value, -np.inf if value > 0 else np.inf))


def _nudged_probability(record: dict) -> dict:
    rows = [list(row) for row in record["probabilities"]]
    rows[-1][1] = _nudged(rows[-1][1])
    return {**record, "probabilities": rows}


def _candidate_edited(name, value):
    """An edit of candidate 1's ``name``: ``value`` of its old value."""

    def edit(record):
        record["candidates"][1][name] = value(record["candidates"][1][name])
        return record

    return edit


@pytest.mark.parametrize("step", [1, 3])
@pytest.mark.parametrize(
    "field, edit",
    [
        ("candidates.1.reward", _candidate_edited("reward", _nudged)),
        ("baseline", lambda r: {**r, "baseline": _nudged(r["baseline"])}),
        (
            "advantage_baseline",
            lambda r: {**r, "advantage_baseline": _nudged(r["advantage_baseline"])},
        ),
        ("probabilities", _nudged_probability),
        ("mean_reward", lambda r: {**r, "mean_reward": _nudged(r["mean_reward"])}),
    ],
    ids=["reward", "baseline", "advantage-baseline", "probability", "mean-reward"],
)
def test_table_driven_resume_refuses_a_record_the_replayed_controller_does_not_write(
    tmp_path, field, edit, step
):
    # Warm-up is the first ceil(0.3 * 10) = 3 steps. The file holds no
    # controller: a resume replays the logged updates on step 0's and
    # compares each record with them exactly, so an edit re-sealed into a
    # record inside warm-up (step 1) or past it (step 3) is refused, naming
    # the log's line and the field, as the file's controller arrays were.
    def table(selection):
        return 0.2 + 0.1 * selection[1], 1.0

    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    config = parse_config({**tabular_doc([3, 2, 4], total=10, k=3), "output": output})
    every, log = _checkpoint_of_every_step(config, evaluate_override=table)
    _restore(config, every[4], log)
    _resealed_over(config, step, edit)
    with pytest.raises(ValueError) as err:
        search(config, evaluate_override=table, resume_from=path)
    assert str(err.value).startswith(f"{path}.log: line {step + 2}: {field} ")
    _restore(config, every[4], log)
    search(config, evaluate_override=table, resume_from=path)
    assert unsealed(Path(path).read_bytes()) == unsealed(every[-1])


@pytest.mark.parametrize("step", [0, 4])
@pytest.mark.parametrize(
    "edit, expected",
    [
        (_candidate_edited("accuracy", _nudged), "candidates.1.reward "),
        # A one-ulp cost edit can round away in the reward, a larger one not.
        (_candidate_edited("cost", lambda c: c + 0.5), "candidates.1.reward "),
        (_candidate_edited("reward", _nudged), "candidates.1.reward "),
        (_candidate_edited("reward", int), "candidates.1.reward "),  # 0, not 0.x
        (_candidate_edited("accuracy", lambda a: 1.5), "candidates.1: accuracy must be in [0, 1]"),
        (_candidate_edited("cost", lambda c: -c), "candidates.1: cost must be finite"),
    ],
    ids=["accuracy", "cost", "reward", "reward-int", "accuracy-range", "cost-negative"],
)
def test_cost_aware_resume_refuses_a_reward_other_than_its_accuracy_and_cost_give(
    tmp_path, edit, expected, step
):
    # In cost-aware mode a candidate's reward follows from its accuracy and
    # its cost, so the replay recomputes it: an edit of either re-sealed into
    # a record of step 0 or step 4 is refused, naming the line and the field.
    def table(selection):
        return 0.2 + 0.1 * selection[1], 1.0 + selection[0]

    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "log_path": path + ".log"}
    reward = {"mode": "cost_aware", "beta": -0.1, "target_cost": 2.0}
    doc = tabular_doc([3, 2, 4], total=6, k=3, reward=reward)
    config = parse_config({**doc, "output": output})
    search(config, evaluate_override=table)
    _resealed_over(config, step, edit)
    with pytest.raises(ValueError) as err:
        search(config, evaluate_override=table, resume_from=path)
    assert str(err.value).startswith(f"{path}.log: line {step + 2}: {expected}")


def test_a_resume_builds_each_distinct_commits_trainer_once(tmp_path, monkeypatch):
    # The replay of the logged commits, which rebuilds the commit slots, keeps
    # each selection's optimizer and store keys: one ``build_trainer`` call
    # per distinct commit selection, not one per commit.
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "log_path": path + ".log"}
    doc = moons_doc(total=8, k=3, output=output)
    doc["space"]["hyperparameters"].append(
        {"name": "optimizer", "kind": "categorical", "basis": ["momentum", "adam"]}
    )
    config = parse_config(doc)
    search(config)
    _, records = read_events(path + ".log")
    commits = [tuple(selection) for record in records for selection in record.commits]
    assert len(set(commits)) < len(commits) == 24
    real, calls = engine.trainstep.build_trainer, []
    monkeypatch.setattr(
        engine.trainstep, "build_trainer", lambda *a, **kw: calls.append(a[1]) or real(*a, **kw)
    )
    run = start_run(config, True, path)
    assert run.ckpt.meta_step == 8
    assert sorted(calls) == sorted(set(commits))


def test_resume_under_new_output_paths_echoes_them(tmp_path):
    def config_for(tag):
        output = {
            "log_path": str(tmp_path / f"{tag}.jsonl"),
            "checkpoint_path": str(tmp_path / f"{tag}.ckpt"),
            "checkpoint_interval": 3,
        }
        return parse_config(moons_doc(total=6, output=output))

    moved = config_for("moved")
    search(moved)
    with open(moved.output.checkpoint_path, "rb") as fh:
        uninterrupted = fh.read()
    os.remove(moved.output.checkpoint_path)
    os.remove(moved.output.log_path)

    def crash(phase, step, weights):
        if (phase, step) == ("controller", 4):
            raise RuntimeError("simulated crash")

    first = config_for("first")
    with pytest.raises(RuntimeError):
        search(first, audit=crash)
    # The resume reads and continues the log at the new path: it moves with the outputs.
    shutil.copy(first.output.log_path, moved.output.log_path)
    search(moved, resume_from=first.output.checkpoint_path)
    loaded = persist.load_checkpoint(moved.output.checkpoint_path)
    assert loaded.config_echo["output"] == config_to_dict(moved)["output"]
    with open(moved.output.checkpoint_path, "rb") as fh:
        assert unsealed(fh.read()) == unsealed(uninterrupted)
    assert _seals_its_log(moved)


@pytest.mark.parametrize("total, crash_step", [(6, 4), (0, None)])
def test_a_resume_needs_its_log_after_step_zero(tmp_path, total, crash_step):
    # The log holds the reward history: a resume at step 3 without it is
    # refused and writes nothing; at step 0 a missing log is its header alone.
    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 3,
    }
    config = parse_config(moons_doc(total=total, output=output))

    def crash(phase, step, weights):
        if (phase, step) == ("controller", crash_step):
            raise RuntimeError("simulated crash")

    if crash_step is None:
        search(config)
    else:
        with pytest.raises(RuntimeError):
            search(config, audit=crash)
    saved = Path(output["checkpoint_path"]).read_bytes()
    os.remove(output["log_path"])
    if crash_step is None:
        search(config, resume_from=output["checkpoint_path"])
        header = json.loads(event_header(["layer0", "learning_rate"], [2, 3]))
        assert read_events(output["log_path"]) == (header, [])
        assert _seals_its_log(config)
    else:
        with pytest.raises(ValueError) as err:
            search(config, resume_from=output["checkpoint_path"])
        assert str(err.value) == (
            f"{output['log_path']}: event log is missing at resume step 3"
        )
        assert not os.path.exists(output["log_path"])
    assert Path(output["checkpoint_path"]).read_bytes() == saved


def test_resume_from_the_final_checkpoint_leaves_checkpoint_and_log_bytes(tmp_path):
    output = {
        "log_path": str(tmp_path / "logs" / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 2,
    }
    config = parse_config(moons_doc(total=4, output=output))
    search(config)
    checkpoint, log = (Path(output[name]).read_bytes() for name in ("checkpoint_path", "log_path"))
    search(config, resume_from=output["checkpoint_path"])
    assert Path(output["checkpoint_path"]).read_bytes() == checkpoint
    assert Path(output["log_path"]).read_bytes() == log


def test_table_driven_and_network_runs_refuse_each_others_checkpoints(tmp_path):
    # A table-driven run commits nothing, so each log record of a network run
    # holds K commits it does not make, and a network run finds none in the
    # records of a table-driven one.
    path, log = str(tmp_path / "ck.ckpt"), str(tmp_path / "events.jsonl")
    doc = moons_doc(total=3, output={"checkpoint_path": path, "log_path": log})
    doc["space"]["hyperparameters"].append(
        {"name": "optimizer", "kind": "categorical", "basis": ["adam"]}
    )
    config = parse_config(doc)
    search(config)
    with open(path, "rb") as fh:
        network = fh.read()

    def table(selection):
        return 0.5, 1.0

    with pytest.raises(ValueError) as err:
        search(config, evaluate_override=table, resume_from=path)
    assert str(err.value) == f"{log}: line 2: holds 2 candidates and 2 commits, not 2 and 0"
    with open(path, "rb") as fh:
        assert fh.read() == network
    os.remove(path)
    search(config, evaluate_override=table)
    assert persist.load_checkpoint(path).store == {}
    with pytest.raises(ValueError) as err:
        search(config, resume_from=path)
    assert str(err.value) == f"{log}: line 2: holds 2 candidates and 0 commits, not 2 and 2"


@pytest.mark.parametrize("run", ["network", "table-driven", "zero-step"])
def test_saved_checkpoint_loads_and_saves_to_the_same_bytes(tmp_path, run):
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "log_path": path + ".log"}
    override = None
    if run == "table-driven":
        doc = {**tabular_doc([3, 2, 4], total=6, k=3), "output": output}
        override = lambda selection: (0.2 + 0.1 * selection[1], 1.0)
    else:
        doc = moons_doc(total=5 if run == "network" else 0, k=3, output=output)
        doc["search"]["warmup_fraction"] = 0.2
        doc["space"]["hyperparameters"].append(
            {"name": "optimizer", "kind": "categorical", "basis": ["momentum", "adam"]}
        )
    search(parse_config(doc), evaluate_override=override)
    with open(path, "rb") as fh:
        saved = fh.read()
    header = json.loads(saved[: saved.index(b"\n")])
    steps = [name for name, shape in header["arrays"] if shape == []]
    # Only a commit Adam slot keeps a step count; the controller's follows from the meta-step.
    assert all(name.startswith("commit_slots/adam|") and name.endswith("/step") for name in steps)
    assert (len(steps) > 0) == (run == "network")
    persist.save_checkpoint(path, persist.load_checkpoint(path))
    with open(path, "rb") as fh:
        assert fh.read() == saved


def test_table_driven_crash_and_resume_matches_the_uninterrupted_run(tmp_path):
    # A table-driven step draws one phase, so a resume at step s starts the
    # controller stream at s * K * n_decisions; any other position samples
    # other pairs and the histories part.
    def table(selection):
        return 0.2 + 0.3 * (selection[0] == 2) + 0.1 * selection[1], 1.0

    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 3,
    }
    config = parse_config({**tabular_doc([3, 2, 4], total=10, k=3), "output": output})
    reference = search(config, evaluate_override=table)
    _, reference_events = read_events(output["log_path"])
    with open(output["checkpoint_path"], "rb") as fh:
        uninterrupted = fh.read()
    for crash_step in (4, 8):  # after the step-3 and the step-6 checkpoint

        def crash(phase, step, weights):
            if step == crash_step:
                raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError):
            search(config, evaluate_override=table, audit=crash)
        resumed = search(config, evaluate_override=table, resume_from=output["checkpoint_path"])
        for p, q in zip(reference.final_probabilities, resumed.final_probabilities):
            assert np.array_equal(p, q), crash_step
        assert resumed.reward_history == reference.reward_history, crash_step
        _, events = read_events(output["log_path"])
        assert [replace(e, wall_ms=0.0) for e in events] == [
            replace(e, wall_ms=0.0) for e in reference_events
        ], crash_step
        with open(output["checkpoint_path"], "rb") as fh:
            assert unsealed(fh.read()) == unsealed(uninterrupted), crash_step
        assert _seals_its_log(config)


@pytest.mark.parametrize("network", [True, False], ids=["network", "table"])
def test_meta_step_calls_end_where_search_does(tmp_path, network):
    # ``search`` drives ``start_run`` and one ``meta_step`` per step, each
    # advancing the checkpoint by one step. Stepped by hand, a fresh run and a
    # run rebuilt from a step-2 checkpoint end on search's store, logits,
    # baseline and reward history.
    def table(selection):
        return 0.2 + 0.3 * (selection[0] == 2) + 0.1 * selection[1], 1.0

    steps, k = 5, 3
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    if network:
        doc = moons_doc(total=steps, k=k, output=output, entropy_weight=0.01)
        override = None
    else:
        doc = {**tabular_doc([3, 2, 4], total=steps, k=k, entropy_weight=0.01), "output": output}
        override = table
    config = parse_config(doc)

    def end_state(ckpt, state, history):
        logits = [z.tolist() for z in state.logits]
        return store_digest(ckpt.store), logits, state.baseline, history

    result = search(config, evaluate_override=override)
    final = start_run(config, network, path)  # the controller replayed from the whole log
    assert [p.tolist() for p in controller.probabilities(final.controller)] == [
        p.tolist() for p in result.final_probabilities
    ]
    expected = end_state(persist.load_checkpoint(path), final.controller, result.reward_history)

    def stepped(run):
        for step in range(run.ckpt.meta_step, steps):
            commits = meta_step(run, override)
            assert run.ckpt.meta_step == step + 1
            assert [r.meta_step for r in run.history[-k:]] == [step] * k
            assert len(commits) == (k if network else 0)
        return end_state(run.ckpt, run.controller, run.history)

    assert stepped(start_run(config, network, None)) == expected

    def crash(phase, step, weights):
        if step == 2:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        search(config, evaluate_override=override, audit=crash)
    rebuilt = start_run(config, network, path)
    assert rebuilt.ckpt.meta_step == 2
    assert stepped(rebuilt) == expected


def _table(selection):
    return 0.2 + 0.3 * (selection[0] == 2) + 0.1 * selection[1], 1.0


def test_a_checkpointed_search_builds_each_reward_record_once(tmp_path, monkeypatch):
    # Each step appends its records, each log record and save reads none
    # back: a search saving every step builds its K x 20 records once, for
    # its result, and a resume builds those of the steps before its own.
    built = []

    class Counted(engine.RewardRecord):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(engine, "RewardRecord", Counted)
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    config = parse_config({**tabular_doc([3, 2, 4], total=20, k=3), "output": output})
    result = search(config, evaluate_override=_table)
    assert len(built) == len(result.reward_history) == 3 * 20
    assert all(made is kept for made, kept in zip(built, result.reward_history))
    built.clear()
    resumed = search(config, evaluate_override=_table, resume_from=path)
    assert resumed.reward_history == result.reward_history and len(built) == 3 * 20


@pytest.mark.parametrize("network, total", [(True, 0), (False, 0), (False, 4)])
def test_checkpoints_without_history_or_store_load_save_and_resume(tmp_path, network, total):
    # A zero-step run saves once, with no history rows; a table-driven run
    # holds no store, head or commit slot. Each file loads, saves again to the
    # same bytes, and a resume from it ends on the same file.
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "log_path": path + ".log"}
    if network:
        doc, override = moons_doc(total=total, output=output), None
    else:
        doc, override = {**tabular_doc([3, 2, 4], total=total, k=3), "output": output}, _table
    config = parse_config(doc)
    search(config, evaluate_override=override)
    data = Path(path).read_bytes()
    header = json.loads(data[: data.index(b"\n")])
    shapes = dict(header["arrays"])
    assert not any(name.startswith("history/") for name in shapes)  # the log holds the rewards
    assert any(name.startswith("store/") for name in shapes) == network
    loaded = persist.load_checkpoint(path)
    again = str(tmp_path / "again.ckpt")
    persist.save_checkpoint(again, loaded)
    assert Path(again).read_bytes() == data
    search(config, evaluate_override=override, resume_from=path)
    assert Path(path).read_bytes() == data


def test_a_checkpoint_save_does_not_reencode_the_history(tmp_path):
    # The reward history is the log's: a longer run adds no byte to the
    # arrays, and to the header only the digits of its numbers.
    path = str(tmp_path / "ck.ckpt")
    output = {"checkpoint_path": path, "checkpoint_interval": 1, "log_path": path + ".log"}
    doc = {**tabular_doc([3, 2, 4], total=8, k=3, warmup_fraction=0.0), "output": output}
    every, _ = _checkpoint_of_every_step(parse_config(doc), evaluate_override=_table)
    header_4, header_8 = (every[done - 1].index(b"\n") for done in (4, 8))
    assert abs(header_8 - header_4) <= 16
    assert len(every[7]) - header_8 == len(every[3]) - header_4


def test_resume_refuses_a_log_whose_step_is_true_and_leaves_it_untouched(tmp_path):
    # ``True == 1``, but ``read_events`` refuses a ``"meta_step": true``, so
    # the resume must not keep that record and append to the log.
    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 2,
    }
    config = parse_config({**tabular_doc([3, 2, 4], total=4, k=3), "output": output})

    def crash(phase, step, weights):
        if step == 3:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        search(config, evaluate_override=_table, audit=crash)
    log = Path(output["log_path"])
    lines = log.read_text().splitlines()
    record = json.loads(lines[2])
    assert record["meta_step"] == 1
    lines[2] = json.dumps({**record, "meta_step": True})
    log.write_text("\n".join(lines) + "\n")
    edited = log.read_bytes()
    with pytest.raises(ValueError) as err:
        search(config, evaluate_override=_table, resume_from=output["checkpoint_path"])
    assert str(err.value) == f"{log}: line 3: meta_step True is not 1"
    assert log.read_bytes() == edited


def test_checkpoint_store_digest_agrees_with_event_log(tmp_path, monkeypatch):
    saves = _recording_saves(monkeypatch)
    output = {
        "log_path": str(tmp_path / "events.jsonl"),
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 1,
    }
    search(parse_config(moons_doc(total=5, output=output)))
    _, events = read_events(output["log_path"])
    assert [step for _, step, _ in saves] == [e.meta_step + 1 for e in events]
    for (path, _, data), event in zip(saves, events):
        header = json.loads(data[: data.index(b"\n")])
        with open(path, "wb") as fh:  # each save replaced the last one
            fh.write(data)
        loaded = persist.load_checkpoint(path)
        assert header["store_digest"] == event.store_digest
        assert loaded.store_digest == event.store_digest
        assert persist.store_digest(loaded.store) == event.store_digest


def test_resume_with_changed_search_section_is_rejected(tmp_path):
    output = {
        "checkpoint_path": str(tmp_path / "ck.ckpt"),
        "checkpoint_interval": 2,
        "log_path": str(tmp_path / "events.jsonl"),
    }
    search(parse_config(moons_doc(total=4, output=output)))
    changed = parse_config(moons_doc(total=9, output=output))
    with pytest.raises(ConfigError) as err:
        search(changed, resume_from=str(tmp_path / "ck.ckpt"))
    assert "different configuration" in str(err.value)


# ---------------------------------------------------------------------------
# retrain and the random-search baseline
# ---------------------------------------------------------------------------


def retrain_space():
    return build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=(LayerConfig(candidates=("identity", "affine-relu:8"), width=8),),
            hyperparameters=(
                HyperConfig(
                    name="learning_rate", kind="continuous", basis=(0.001, 0.01, 0.1)
                ),
            ),
        )
    )


def test_retrain_with_zero_learning_rate_keeps_initial_weights():
    space = retrain_space()
    parts = split(two_moons(200, 0.1, 0), (0.5, 0.25, 0.25), 0)
    derived = DerivedConfig((1,), (0.0,))
    result = retrain(space, derived, parts, 3, seed=4)

    narrowed = replace(
        space,
        arch_decisions=tuple(
            replace(d, candidates=(d.candidates[i],))
            for d, i in zip(space.arch_decisions, derived.arch_choice)
        ),
    )
    fresh = supernet.init_weights(narrowed, RngStream(4, "retrain/init"))
    assert result.weights.store.keys() == fresh.store.keys()
    for key, value in fresh.store.items():
        assert np.array_equal(result.weights.store[key], value)
    assert np.array_equal(result.weights.head_weight, fresh.head_weight)


def test_retrain_with_zero_learning_rate_stays_near_chance():
    space = retrain_space()
    parts = split(two_moons(200, 0.1, 0), (0.5, 0.25, 0.25), 0)
    accuracies = [
        retrain(space, DerivedConfig((1,), (0.0,)), parts, 2, seed=s).test_accuracy
        for s in range(10)
    ]
    assert all(a <= 0.95 for a in accuracies)
    assert 0.3 < float(np.mean(accuracies)) < 0.8


def test_retrain_is_deterministic():
    space = retrain_space()
    parts = split(two_moons(200, 0.1, 1), (0.5, 0.25, 0.25), 1)
    derived = DerivedConfig((1,), (0.05,))
    a = retrain(space, derived, parts, 4, seed=2)
    b = retrain(space, derived, parts, 4, seed=2)
    assert a.test_accuracy == b.test_accuracy
    assert a.val_loss == b.val_loss
    for key, value in a.weights.store.items():
        assert np.array_equal(b.weights.store[key], value)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_retrain_equals_per_batch_reference(optimizer):
    # One taped step per batch, with retrain's order and step streams and one
    # slot store across epochs; the pool of 75 rows leaves a short last batch.
    space = build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=(
                LayerConfig(candidates=("identity", "affine-relu:6"), width=4),
                LayerConfig(candidates=("affine-tanh:3", "affine:4"), width=4),
            ),
            hyperparameters=(
                HyperConfig(name="optimizer", kind="categorical", basis=(optimizer,)),
                HyperConfig(name="mixup_ratio", kind="continuous", basis=(0.4,)),
                HyperConfig(name="dropout_keep", kind="continuous", basis=(0.8,)),
            ),
        )
    )
    parts = split(two_moons(100, 0.1, 3), (0.5, 0.25, 0.25), 3)
    derived = DerivedConfig((1, 0), (optimizer, 0.4, 0.8))
    epochs, batch_size = 3, 16
    result = retrain(
        space, derived, parts, epochs, batch_size=batch_size, learning_rate=0.05, seed=6
    )
    spec = TrainerSpec(optimizer=optimizer, learning_rate=0.05, mixup_ratio=0.4, dropout_keep=0.8)
    assert result.trainer == spec

    narrowed = replace(
        space,
        arch_decisions=tuple(
            replace(d, candidates=(d.candidates[i],))
            for d, i in zip(space.arch_decisions, derived.arch_choice)
        ),
    )
    weights = supernet.init_weights(narrowed, RngStream(6, "retrain/init"))
    view = supernet.sub_view(narrowed, (0,) * narrowed.n_decisions)
    pool = concat(parts.train, parts.val)
    assert len(pool) % batch_size != 0
    slots = {}
    for epoch in range(epochs):
        order = RngStream(6, f"retrain/order/{epoch}").permutation(len(pool))
        stream = RngStream(6, f"retrain/steps/{epoch}")
        for start in range(0, len(pool), batch_size):
            idx = order[start : start + batch_size]
            batch = (pool.features[idx], pool.labels[idx])
            taped_train_step(weights, view, weights.store, spec, batch, slots, stream)

    assert store_digest(result.weights.store) == store_digest(weights.store)
    for part, accuracy, loss in (
        (parts.val, result.val_accuracy, result.val_loss),
        (parts.test, result.test_accuracy, result.test_loss),
    ):
        want_accuracy, want_loss = eval_metrics(weights, view, (part.features, part.labels))
        assert (accuracy.hex(), loss.hex()) == (want_accuracy.hex(), want_loss.hex())


def test_retrain_reference_run_beats_regression_bar():
    space = build_space(
        SpaceConfig(
            input_dim=2,
            num_classes=2,
            layers=tuple(
                LayerConfig(candidates=("affine-relu:16",), width=16) for _ in range(2)
            ),
            hyperparameters=(
                HyperConfig(
                    name="learning_rate", kind="continuous", basis=(0.0025, 0.01, 0.04)
                ),
                HyperConfig(name="optimizer", kind="categorical", basis=("sgd", "adam")),
            ),
        )
    )
    parts = split(two_moons(1000, 0.1, 0), (0.5, 0.25, 0.25), 0)
    result = retrain(space, DerivedConfig((0, 0), (0.01, "adam")), parts, 30, seed=0)
    assert result.test_accuracy >= 0.95
    assert result.val_accuracy >= 0.9


def test_retrain_validates_inputs():
    space = retrain_space()
    parts = split(two_moons(100, 0.1, 0), (0.5, 0.25, 0.25), 0)
    with pytest.raises(ValueError):
        retrain(space, DerivedConfig((1,), (0.01,)), parts, 0)
    with pytest.raises(ValueError):
        retrain(space, DerivedConfig((1, 0), (0.01,)), parts, 1)


def test_baseline_budget_one_returns_that_trial():
    space = retrain_space()
    parts = split(two_moons(120, 0.1, 2), (0.5, 0.25, 0.25), 2)
    result = random_search_baseline(space, parts, 1, 2, 5)
    assert len(result.trials) == 1
    assert result.best is result.trials[0]
    with pytest.raises(ValueError):
        random_search_baseline(space, parts, 0, 2, 5)


def test_retrain_and_baseline_cannot_be_given_a_split_part_with_no_rows():
    # A two-row dataset leaves test empty, whose accuracy would be the mean
    # of nothing: the split is refused as it is made, before either call.
    space = retrain_space()
    derived = DerivedConfig((1,), (0.01,))
    calls = {
        "retrain": lambda parts: retrain(space, derived, parts, 2),
        "baseline": lambda parts: random_search_baseline(space, parts, 1, 2, 0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call(split(two_moons(2, 0.1, 0), (0.5, 0.25, 0.25), 0))
        expected = "data split leaves test with no rows: 2 rows split into train 1, val 1, test 0"
        assert str(err.value) == expected, name


def test_baseline_trials_are_pure_functions_of_seed_and_index():
    space = retrain_space()
    parts = split(two_moons(120, 0.1, 2), (0.5, 0.25, 0.25), 2)
    big = random_search_baseline(space, parts, 3, 2, 7)
    small = random_search_baseline(space, parts, 1, 2, 7)
    assert big.trials[0].selection == small.trials[0].selection
    assert big.trials[0].val_accuracy == small.trials[0].val_accuracy
    again = random_search_baseline(space, parts, 3, 2, 7)
    assert [t.val_accuracy for t in again.trials] == [
        t.val_accuracy for t in big.trials
    ]
    best = big.best
    assert best.val_accuracy == max(t.val_accuracy for t in big.trials)
    assert best.index == min(
        t.index for t in big.trials if t.val_accuracy == best.val_accuracy
    )


def test_retrain_and_baseline_take_the_unsearched_learning_rate():
    space = eval_space()
    parts = split(two_moons(120, 0.1, 3), (0.5, 0.25, 0.25), 3)
    derived = DerivedConfig((1,), ())
    assert retrain(space, derived, parts, 1).trainer.learning_rate == 0.01
    assert retrain(space, derived, parts, 1, learning_rate=0.3).trainer.learning_rate == 0.3
    frozen = random_search_baseline(space, parts, 2, 1, 3, learning_rate=0.0)
    for trial in frozen.trials:
        again = retrain(
            space, trial.derived, parts, 1, learning_rate=0.0, seed=3, name=f"baseline/{trial.index}"
        )
        assert again.trainer.learning_rate == 0.0
        assert trial.val_accuracy == again.val_accuracy
