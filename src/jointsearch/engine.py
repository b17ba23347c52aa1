"""Search engine: alternates controller updates with shared-weight commits.

Each meta-step has two phases. The controller phase samples K
(architecture, hyperparameter) pairs, scores each by training a discardable
copy of its sub-model for a few steps and measuring validation accuracy, and
applies one REINFORCE update from the K rewards; the shared store is
read-only here. The commit phase re-samples K pairs and serializes K
single-step updates into the shared store, each at 1/K of the sampled
learning rate, so one meta-step advances the store by about one effective
step regardless of K. After the last meta-step the learned per-decision
probabilities are collapsed into one concrete configuration, which can be
retrained from scratch. The loop's settings come straight from the config
sections, and its whole resumable state is one ``persist.Checkpoint``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import controller as ctrl
from . import persist, supernet, trainstep
from .config import ConfigError, EngineConfig, RewardSection, config_to_dict
from .data import DataSplit, Dataset, concat, load_csv, spirals, split, two_moons
from .numerics import RngStream, check_labels, cross_entropy_loss
from .persist import RewardRecord
from .space import DerivedConfig, SearchSpace, build_space, derive, selection_to_config
from .supernet import SubModelView, SuperModelWeights
from .trainstep import TrainerSpec


@dataclass
class SearchResult:
    derived: DerivedConfig
    final_probabilities: list[np.ndarray]
    reward_history: list[RewardRecord]
    wall_steps: int


@dataclass
class RetrainResult:
    weights: SuperModelWeights
    trainer: TrainerSpec
    val_accuracy: float
    val_loss: float
    test_accuracy: float
    test_loss: float


@dataclass
class BaselineTrial:
    index: int
    selection: tuple[int, ...]
    derived: DerivedConfig
    val_accuracy: float
    test_accuracy: float


@dataclass
class BaselineResult:
    best: BaselineTrial
    trials: list[BaselineTrial]


def compute_reward(accuracy: float, cost: float, spec: RewardSection) -> float:
    """Plain mode returns accuracy; cost-aware mode adds a penalty that is
    zero exactly on target and grows linearly with relative cost error."""
    if not np.isfinite(accuracy) or not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if spec.mode == "plain":
        return float(accuracy)
    if cost < 0.0 or not np.isfinite(cost):
        raise ValueError(f"cost must be non-negative, got {cost}")
    return float(accuracy + spec.beta * abs(cost / spec.target_cost - 1.0))


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == np.argmax(labels, axis=1)))


def eval_metrics(
    weights: SuperModelWeights, view: SubModelView, batch: tuple[np.ndarray, np.ndarray]
) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) of an eval-mode forward pass."""
    x, y = batch
    logits = supernet.forward(weights, view, x, supernet.EVAL)
    return _accuracy(logits, y), cross_entropy_loss(logits, y)


def evaluate_candidate(
    weights: SuperModelWeights,
    selection: Sequence[int],
    train_batches: Sequence[tuple[np.ndarray, np.ndarray]],
    val_batch: tuple[np.ndarray, np.ndarray],
    rng: RngStream,
    *,
    learning_rate: float = 0.01,
) -> tuple[float, float]:
    """Score one sampled pair without touching the shared store: its
    ``(accuracy, cost)``, as ``search``'s ``evaluate_override`` gives it.

    Builds the pair's trainer (``learning_rate`` when the space does not
    search it), advances temporary weights by one step per train batch, and
    measures accuracy on the validation batch with the temporary weights in
    place of the store's; the cost is the selection's MAC count. Only the
    accuracy is computed, but the validation labels get the loss's checks:
    ``ValueError`` unless they are finite distribution rows matching the
    logits.
    """
    view = supernet.sub_view(weights.space, selection)
    spec = trainstep.build_trainer(weights.space, view.selection, learning_rate)
    params = trainstep.make_temporary(weights, view, spec, train_batches, rng)
    x, y = val_batch
    logits = supernet.forward(weights, view, x, supernet.EVAL, params=params)
    return _accuracy(logits, check_labels(y, logits.shape)), view.cost


def setup_run(config: EngineConfig, space: SearchSpace) -> DataSplit:
    """The dataset split of a run that trains networks.

    Raises ``ConfigError`` when the config names no dataset or the dataset's
    feature or class count does not match ``space``.
    """
    data = config.data
    if data.csv_path is not None:
        dataset = load_csv(data.csv_path)
    elif data.generator == "two_moons":
        dataset = two_moons(data.n, data.noise_sd, data.seed)
    elif data.generator == "spirals":
        dataset = spirals(data.n, data.turns, data.noise_sd, data.seed)
    else:
        raise ConfigError("data.generator is 'none' but the run needs a dataset")
    if dataset.features.shape[1] != space.input_dim:
        raise ConfigError(
            f"dataset has {dataset.features.shape[1]} features but space.input_dim "
            f"is {space.input_dim}"
        )
    if dataset.labels.shape[1] != space.num_classes:
        raise ConfigError(
            f"dataset has {dataset.labels.shape[1]} classes but space.num_classes "
            f"is {space.num_classes}"
        )
    return split(dataset, data.fractions, data.seed)


def _draw_batches(
    dataset: Dataset, batch_size: int, rng: RngStream, count: int = 1
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``count`` batches of ``batch_size`` distinct rows, from one block of
    ``rng`` draws; the whole dataset each time, drawing nothing, when it has
    no more rows than ``batch_size``."""
    n = len(dataset)
    if batch_size >= n:
        return [(dataset.features, dataset.labels)] * count
    idx = rng.sample_indices(n, batch_size, count)
    return list(zip(dataset.features[idx], dataset.labels[idx]))


def _fresh(space: SearchSpace, seed: int, uses_network: bool) -> persist.Checkpoint:
    """The state a run starts from: uniform controller logits and, when the
    run trains networks, the store and head that ``supernet.init_weights``
    draws from the seed's ``init`` stream."""
    ckpt = persist.Checkpoint({}, 0, ctrl.init_controller(space))
    if uses_network:
        init = supernet.init_weights(space, RngStream(seed, "init"))
        ckpt.store, ckpt.head_weight, ckpt.head_bias = init.store, init.head_weight, init.head_bias
    return ckpt


def _resumable(
    config: EngineConfig, space: SearchSpace, path: str, uses_network: bool
) -> persist.Checkpoint:
    """The checkpoint at ``path``, refused unless ``config`` could have
    written it: its config echo must equal ``config_to_dict(config)`` but for
    the output paths, and its step, controller rows and reward history must
    fit the run. Then ``persist.check_layout`` compares its optimizer slots
    and arrays with those the run holds after that many steps: ``_fresh``'s
    store and head (none in a table-driven run), one controller Adam slot per
    decision past warm-up, and each commit slot of the file that the space
    could make, its Adam ``step`` taken as written (only a replay could check
    it)."""
    ckpt = persist.load_checkpoint(path)
    echo, ours = ckpt.config_echo, config_to_dict(config)
    if not isinstance(echo, dict) or {**echo, "output": None} != {**ours, "output": None}:
        raise ConfigError(
            "checkpoint was produced by a different configuration; "
            "only output paths may differ on resume"
        )
    check = persist.check_field
    total = config.search.total_meta_steps
    check(path, ckpt.meta_step <= total, "meta_step", f"an integer in [0, {total}]")
    cards = list(space.cardinalities())
    rows = [len(z) for z in ckpt.controller.logits]
    check(path, rows == cards, "controller.logits", f"one row per decision, of lengths {cards}")
    k, done = config.search.pairs_per_step, ckpt.meta_step
    steps = [r.meta_step for r in ckpt.reward_history]
    expected = [step for step in range(done) for _ in range(k)]
    check(path, steps == expected, "reward_history", f"{k} records per step before {done}")
    for i, record in enumerate(ckpt.reward_history):
        sel = record.selection
        fits = len(sel) == len(cards) and all(0 <= j < c for j, c in zip(sel, cards))
        check(path, fits, f"reward_history[{i}].selection", f"a selection within {cards}")
    held = _fresh(space, config.data.seed, uses_network)
    updates = done - ctrl.warmup_steps(config.search)
    if updates > 0:  # each step past warm-up made one Adam update of every row
        for d, z in enumerate(held.controller.logits):
            held.controller.slots["adam", d] = {**trainstep.fresh_slot("adam", z), "step": updates}
    default = (TrainerSpec().optimizer,)
    optimizers = {d.name: d.basis for d in space.hyper_decisions}.get("optimizer", default)
    for (family, key), slot in ckpt.commit_slots.items():
        if family in optimizers and key in held.store:
            made = held.commit_slots[family, key] = trainstep.fresh_slot(family, held.store[key])
            for name, value in slot.items():  # update counts only a replay could check
                if type(made.get(name)) is int and type(value) is int:
                    made[name] = value
    persist.check_layout(path, held, ckpt)
    return ckpt


def search(
    config: EngineConfig,
    *,
    evaluate_override: Callable[[tuple[int, ...]], tuple[float, float]] | None = None,
    resume_from: str | None = None,
    audit: Callable[[str, int, SuperModelWeights | None], None] | None = None,
) -> SearchResult:
    """Run the full meta-loop and return the derived configuration.

    ``evaluate_override``, when given, replaces temporary-weight evaluation
    with a direct ``selection -> (accuracy, cost)`` lookup; no dataset or
    shared store is involved (useful for tabular studies of the controller).
    ``audit`` is called after each phase with (phase, step, weights).

    The whole resumable state is one ``persist.Checkpoint``: ``_fresh``
    builds it, a resume loads it, each meta-step advances it in place (the
    network weights share its arrays), and each save writes it as it stands
    with the current config echoed, so output paths may change on resume.
    The last meta-step always saves; a run with no step left saves once.
    Its meta-step is the one step counter: the controller's warm-up, its
    baseline start and its RNG stream position all follow from it. Each
    meta-step appends one record to the log ``persist.open_events`` opens.
    """
    space = build_space(config.space)
    settings = config.search
    seed = config.data.seed
    k = settings.pairs_per_step
    total = settings.total_meta_steps
    uses_network = evaluate_override is None
    if uses_network:
        splits = setup_run(config, space)

    if resume_from is None:
        ckpt = _fresh(space, seed, uses_network)
    else:
        ckpt = _resumable(config, space, resume_from, uses_network)
    ckpt.config_echo = config_to_dict(config)
    state = ckpt.controller
    weights = None
    if uses_network:
        weights = SuperModelWeights(space, ckpt.store, ckpt.head_weight, ckpt.head_bias)
    start = ckpt.meta_step
    # ``ctrl.sample`` draws one k x n_decisions block per phase, and a step has
    # a commit phase only when it trains networks, so each step done moved the
    # stream this far.
    phases = 2 if uses_network else 1
    ctrl_stream = RngStream(seed, "controller", start * k * space.n_decisions * phases)

    checkpoint_path = config.output.checkpoint_path
    interval = config.output.checkpoint_interval
    resumed = None if resume_from is None else ckpt
    with persist.open_events(config.output.log_path, space, resumed) as log_fh:
        for step in range(start, total):
            t0 = time.monotonic()
            records: list[RewardRecord] = []
            for i, selection in enumerate(ctrl.sample(state, ctrl_stream, k)):
                if evaluate_override is not None:
                    accuracy, cost = evaluate_override(selection)
                else:
                    data_rng = RngStream(seed, f"eval-data/{step}/{i}")
                    batches = _draw_batches(
                        splits.train, settings.train_batch_size, data_rng, settings.inner_steps
                    )
                    [val_batch] = _draw_batches(splits.val, settings.val_batch_size, data_rng)
                    accuracy, cost = evaluate_candidate(
                        weights,
                        selection,
                        batches,
                        val_batch,
                        RngStream(seed, f"eval-train/{step}/{i}"),
                        learning_rate=settings.default_learning_rate,
                    )
                reward = compute_reward(accuracy, cost, settings.reward)
                records.append(RewardRecord(step, selection, accuracy, cost, reward))
            baseline = ctrl.reinforce_update(
                state, [(r.selection, r.reward) for r in records], settings, step
            )
            for record in records:
                record.baseline = baseline
            if audit is not None:
                audit("controller", step, weights)

            if uses_network:
                for i, selection in enumerate(ctrl.sample(state, ctrl_stream, k)):
                    view = supernet.sub_view(space, selection)
                    spec = trainstep.build_trainer(
                        space, view.selection, settings.default_learning_rate
                    )
                    spec = replace(spec, learning_rate=spec.learning_rate / k)
                    batches = _draw_batches(
                        splits.train,
                        settings.train_batch_size,
                        RngStream(seed, f"commit-data/{step}/{i}"),
                    )
                    trainstep.commit_step(
                        weights,
                        view,
                        spec,
                        batches,
                        ckpt.commit_slots,
                        RngStream(seed, f"commit-train/{step}/{i}"),
                    )
                if audit is not None:
                    audit("commit", step, weights)

            ckpt.reward_history.extend(records)
            ckpt.meta_step = step + 1
            # One store digest serves the event record and the checkpoint.
            saves = checkpoint_path is not None and (
                step + 1 == total or interval > 0 and (step + 1) % interval == 0
            )
            if log_fh is not None or saves:
                digest = persist.store_digest(ckpt.store)
            if log_fh is not None:
                event = persist.EventRecord(
                    meta_step=step,
                    mean_reward=float(np.mean([r.reward for r in records])),
                    baseline=state.baseline,
                    probabilities=[p.tolist() for p in ctrl.probabilities(state)],
                    store_digest=digest,
                    wall_ms=(time.monotonic() - t0) * 1000.0,
                )
                persist.write_event(log_fh, event)
            if saves:
                ckpt.store_digest = digest
                persist.save_checkpoint(checkpoint_path, ckpt)
    if checkpoint_path is not None and start == total:  # no step left: save once
        ckpt.store_digest = persist.store_digest(ckpt.store)
        persist.save_checkpoint(checkpoint_path, ckpt)

    final_probs = ctrl.probabilities(state)
    return SearchResult(
        derived=derive(space, final_probs),
        final_probabilities=final_probs,
        reward_history=ckpt.reward_history,
        wall_steps=total,
    )


def _derived_space(space: SearchSpace, arch_choice: Sequence[int]) -> SearchSpace:
    """Space with each layer narrowed to its chosen op (shared keys at op 0)."""
    decisions = []
    for decision, idx in zip(space.arch_decisions, arch_choice):
        decisions.append(replace(decision, candidates=(decision.candidates[idx],)))
    return replace(space, arch_decisions=tuple(decisions))


def retrain(
    space: SearchSpace,
    derived: DerivedConfig,
    splits: DataSplit,
    epochs: int,
    *,
    batch_size: int = 64,
    learning_rate: float = 0.01,
    seed: int = 0,
    name: str = "retrain",
) -> RetrainResult:
    """Train the derived architecture from scratch and measure its metrics.

    Fresh weights cover only the chosen ops. Training runs ``epochs`` shuffled
    passes over train and validation data combined, one ``commit_step`` per
    pass, using the derived hyperparameter values exactly as given
    (continuous values are not snapped back to the basis) and
    ``learning_rate`` when the space does not search it. The ``val_*``
    metrics are therefore measured on data the model trained on; only the
    ``test_*`` metrics are held out.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(derived.arch_choice) != space.n_arch:
        raise ValueError("derived arch length does not match the space")
    sub_space = _derived_space(space, derived.arch_choice)
    trainer = trainstep.trainer_from_derived(space, derived, learning_rate)
    weights = supernet.init_weights(sub_space, RngStream(seed, f"{name}/init"))
    view = supernet.sub_view(sub_space, (0,) * sub_space.n_decisions)  # the one op per layer
    slots: dict = {}

    pool = concat(splits.train, splits.val)
    n = len(pool)
    effective_batch = min(batch_size, n)
    for epoch in range(epochs):
        order = RngStream(seed, f"{name}/order/{epoch}").permutation(n)
        idxs = (order[start : start + effective_batch] for start in range(0, n, effective_batch))
        batches = [(pool.features[idx], pool.labels[idx]) for idx in idxs]
        step_rng = RngStream(seed, f"{name}/steps/{epoch}")
        trainstep.commit_step(weights, view, trainer, batches, slots, step_rng)

    val_acc, val_loss = eval_metrics(weights, view, (splits.val.features, splits.val.labels))
    test_acc, test_loss = eval_metrics(weights, view, (splits.test.features, splits.test.labels))
    return RetrainResult(
        weights=weights,
        trainer=trainer,
        val_accuracy=val_acc,
        val_loss=val_loss,
        test_accuracy=test_acc,
        test_loss=test_loss,
    )


def random_search_baseline(
    space: SearchSpace,
    splits: DataSplit,
    budget: int,
    epochs: int,
    seed: int,
    *,
    batch_size: int = 64,
    learning_rate: float = 0.01,
) -> BaselineResult:
    """Retrain ``budget`` uniformly sampled configurations from scratch.

    Each trial is a pure function of (seed, trial index); the best trial is
    the highest validation accuracy with ties going to the lowest index.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cards = space.cardinalities()
    trials: list[BaselineTrial] = []
    for j in range(budget):
        pick = RngStream(seed, f"baseline-select/{j}")
        selection = tuple(pick.index(c) for c in cards)
        derived = selection_to_config(space, selection)
        result = retrain(
            space,
            derived,
            splits,
            epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            seed=seed,
            name=f"baseline/{j}",
        )
        trials.append(
            BaselineTrial(j, selection, derived, result.val_accuracy, result.test_accuracy)
        )
    best = max(trials, key=lambda t: (t.val_accuracy, -t.index))
    return BaselineResult(best=best, trials=trials)
