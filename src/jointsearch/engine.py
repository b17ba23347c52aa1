"""Search engine: AutoHAS's meta-loop over a weight-shared super-model.

``start_run`` builds a run, fresh or resumed, and ``meta_step`` advances it
by one meta-step of three phases. Scoring samples K (architecture,
hyperparameter) pairs and scores each by training a discardable copy of its
sub-model for a few steps and measuring validation accuracy; the shared
store is read-only here. The controller phase makes one REINFORCE update
from the K rewards. The commit phase re-samples K pairs and serializes K
single-step updates into the store, each at 1/K of the sampled learning
rate, so a meta-step advances the store by about one step whatever K is.
``search`` drives, logs and saves the steps, then collapses the learned
probabilities into one configuration to retrain from scratch. Settings come
from the config sections; all resumable state is one ``persist.Checkpoint``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import controller as ctrl
from . import persist, supernet, trainstep
from .config import ConfigError, EngineConfig, RewardSection, config_to_dict
from .data import DataSplit, Dataset, concat, load_csv, spirals, split, two_moons
from .numerics import RngStream, check_labels, cross_entropy_loss
from .space import DerivedConfig, SearchSpace, build_space, derive, selection_to_config
from .supernet import SubModelView, SuperModelWeights
from .trainstep import TrainerSpec


@dataclass
class RewardRecord:
    """One scored candidate; ``baseline`` is the controller baseline its
    advantage was taken against."""

    meta_step: int
    selection: tuple[int, ...]
    accuracy: float
    cost: float
    reward: float
    baseline: float = 0.0


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
    if not math.isfinite(accuracy) or not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
    if not math.isfinite(cost) or cost < 0.0:  # in either mode: the history keeps it
        raise ValueError(f"cost must be finite and non-negative, got {cost}")
    if spec.mode == "plain":
        return float(accuracy)
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

    Raises ``ConfigError`` when the config names no dataset, the dataset's
    feature or class count does not match ``space``, or the split leaves a
    part with no rows.
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
    try:
        return split(dataset, data.fractions, data.seed)
    except ValueError as exc:  # a part with no rows (``DataSplit``)
        raise ConfigError(str(exc)) from None


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


@dataclass
class Run:
    """What ``search`` builds once and each ``meta_step`` advances. Without a
    network, ``splits`` and ``weights`` (the checkpoint's store and the
    seed's head) are None."""

    config: EngineConfig
    space: SearchSpace
    splits: DataSplit | None
    ckpt: persist.Checkpoint
    controller: ctrl.ControllerState  # step 0's, or the one the log's updates give
    stream: RngStream  # the controller's
    weights: SuperModelWeights | None
    history: list[RewardRecord]  # K records per step before ``ckpt.meta_step``
    log: list[bytes]  # the event log's lines a resumed run keeps, its header first


def _resume(run: Run, path: str) -> None:
    """Advance ``run`` from step 0 to the checkpoint at ``path`` and the
    records before its step of the log it seals (``persist.resume_events``).
    Refused unless the run could have written them: the config echo must be
    ``config_to_dict(config)`` but for the output paths, the step must fit,
    and each record must hold K candidates and, in a network run, K commits.
    Each record's update is replayed on the controller, from step 0's, and
    must give the record with no tolerance: each candidate's ``reward`` is
    ``compute_reward`` of its accuracy and cost, ``advantage_baseline``,
    ``baseline`` and ``probabilities`` the update's, ``mean_reward`` the
    rewards' mean, and the last record's ``store_digest`` the checkpoint's.
    Replaying the commits without training gives the step-0 state the run's
    commit slots, Adam's ``step`` the exact count of commits whose view holds
    the key, and ``persist.check_layout`` compares the file with it."""
    config, space, held, state = run.config, run.space, run.ckpt, run.controller
    settings, ckpt = config.search, persist.load_checkpoint(path)
    echo, ours = ckpt.config_echo, config_to_dict(config)
    if not isinstance(echo, dict) or {**echo, "output": None} != {**ours, "output": None}:
        raise ConfigError(
            "checkpoint was produced by a different configuration; "
            "only output paths may differ on resume"
        )
    total, done = settings.total_meta_steps, ckpt.meta_step
    persist.check_field(path, done <= total, "meta_step", f"an integer in [0, {total}]")
    log = config.output.log_path
    if log is None:
        raise ConfigError("a resume reads the run's event log: output.log_path is not set")
    run.log, records = persist.resume_events(log, run.log[0], ckpt)
    k, slots = settings.pairs_per_step, held.commit_slots
    commits = k if run.weights is not None else 0
    counts = {}  # logged commits by selection
    for record in records:
        step, where = record.meta_step, f"{log}: line {record.meta_step + 2}"
        if len(record.candidates) != k or len(record.commits) != commits:
            raise ValueError(
                f"{where}: holds {len(record.candidates)} candidates "
                f"and {len(record.commits)} commits, not {k} and {commits}"
            )
        replayed, samples = [], []
        for i, c in enumerate(record.candidates):
            try:
                reward = compute_reward(c["accuracy"], c["cost"], settings.reward)
            except ValueError as exc:
                raise ValueError(f"{where}: candidates.{i}: {exc}") from None
            replayed.append((f"candidates.{i}.reward", c["reward"], reward))
            samples.append((tuple(c["selection"]), reward))
            row = (samples[-1][0], c["accuracy"], c["cost"], reward, record.advantage_baseline)
            run.history.append(RewardRecord(step, *row))
        advantage = ctrl.reinforce_update(state, samples, settings, step)
        probs = [p.tolist() for p in ctrl.probabilities(state)]
        replayed += [
            ("advantage_baseline", record.advantage_baseline, advantage),
            ("baseline", record.baseline, state.baseline),
            ("probabilities", record.probabilities, probs),
            ("mean_reward", record.mean_reward, float(np.mean([r for _, r in samples]))),
        ]
        for name, logged, value in replayed:
            if logged != value:  # exact: no tolerance
                raise ValueError(f"{where}: {name} {logged!r} is not the run's {value!r}")
        for selection in map(tuple, record.commits):
            counts[selection] = counts.get(selection, 0) + 1
    for selection, count in counts.items():  # each distinct commit's view and trainer once
        view = supernet.sub_view(space, selection)
        family = trainstep.build_trainer(space, view.selection).optimizer
        for key in view.keys if family in trainstep.SLOT_FIELDS else ():
            if (family, key) not in slots:
                slots[family, key] = trainstep.fresh_slot(family, held.store[key])
            for name in trainstep.SLOT_FIELDS[family][0]:
                slots[family, key][name] += count
    persist.check_layout(path, held, ckpt)
    if records and records[-1].store_digest != ckpt.store_digest:  # the step the file saved
        raise ValueError(f"{log}: line {done + 1}: store_digest is not the checkpoint's")
    run.ckpt = ckpt


def start_run(config: EngineConfig, uses_network: bool, resume_from: str | None) -> Run:
    """The run at step 0, or the one the checkpoint at ``resume_from`` and
    its log hold (``_resume``), echoing ``config``. Step 0 has uniform logits,
    no reward history, a log of its header alone and, in a network run, the
    store and head ``supernet.init_weights`` draws from the seed's ``init``
    stream. No step trains the head, so a resumed run takes it from the seed,
    and replays the log's controller updates on step 0's controller."""
    space = build_space(config.space)
    splits = setup_run(config, space) if uses_network else None
    seed = config.data.seed
    weights = supernet.init_weights(space, RngStream(seed, "init")) if uses_network else None
    held = persist.Checkpoint({}, 0, weights.store if weights else {})
    header = (persist.event_header(space.labels(), space.cardinalities()) + "\n").encode()
    state, stream = ctrl.init_controller(space), RngStream(seed, "controller")
    run = Run(config, space, splits, held, state, stream, weights, [], [header])
    if resume_from is not None:
        _resume(run, resume_from)
    if weights is not None:
        weights.store = run.ckpt.store
    run.ckpt.config_echo = config_to_dict(config)
    # ``ctrl.sample`` draws a k x n_decisions block per phase; only networks commit.
    per_step = config.search.pairs_per_step * space.n_decisions * (2 if uses_network else 1)
    run.stream.counter = run.ckpt.meta_step * per_step
    return run


def meta_step(
    run: Run,
    evaluate_override: Callable[[tuple[int, ...]], tuple[float, float]] | None = None,
    audit: Callable[[str, int, SuperModelWeights | None], None] | None = None,
) -> list[tuple[int, ...]]:
    """Run meta-step ``run.ckpt.meta_step``, advance the checkpoint past it,
    append its K ``RewardRecord`` to ``run.history``, and return its K commit
    selections (none without a network)."""
    settings, seed, ckpt, weights = run.config.search, run.config.data.seed, run.ckpt, run.weights
    k, step, state = settings.pairs_per_step, ckpt.meta_step, run.controller
    lr, size = settings.default_learning_rate, settings.train_batch_size
    scored = []  # scoring: K sampled pairs, each on its own temporary weights
    for i, selection in enumerate(ctrl.sample(state, run.stream, k)):
        if evaluate_override is not None:
            accuracy, cost = evaluate_override(selection)
        else:
            data_rng = RngStream(seed, f"eval-data/{step}/{i}")
            batches = _draw_batches(run.splits.train, size, data_rng, settings.inner_steps)
            [val] = _draw_batches(run.splits.val, settings.val_batch_size, data_rng)
            train_rng = RngStream(seed, f"eval-train/{step}/{i}")
            accuracy, cost = evaluate_candidate(
                weights, selection, batches, val, train_rng, learning_rate=lr
            )
        accuracy, cost = float(accuracy), float(cost)  # the log holds them as float64
        scored.append((selection, accuracy, cost, compute_reward(accuracy, cost, settings.reward)))
    # controller: one REINFORCE update from the K rewards
    samples = [(s, r) for s, _, _, r in scored]
    baseline = ctrl.reinforce_update(state, samples, settings, step)
    if audit is not None:
        audit("controller", step, weights)
    commits = []
    if weights is not None:  # commit: K re-sampled pairs, each one step at lr / K
        commits = ctrl.sample(state, run.stream, k)
        for i, selection in enumerate(commits):
            view = supernet.sub_view(run.space, selection)
            spec = trainstep.build_trainer(run.space, view.selection, lr)
            spec = replace(spec, learning_rate=spec.learning_rate / k)
            data_rng = RngStream(seed, f"commit-data/{step}/{i}")
            batches = _draw_batches(run.splits.train, size, data_rng)
            train_rng = RngStream(seed, f"commit-train/{step}/{i}")
            trainstep.commit_step(weights, view, spec, batches, ckpt.commit_slots, train_rng)
        if audit is not None:
            audit("commit", step, weights)

    run.history += [RewardRecord(step, *row, baseline) for row in scored]
    ckpt.meta_step = step + 1
    return commits


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

    The resumable state is one ``persist.Checkpoint`` and the event log:
    ``start_run`` builds or loads them, and each ``meta_step`` advances the
    checkpoint in place (the network weights share its arrays), whose record
    this appends to the log ``persist.open_events`` opens. Each save writes
    the checkpoint with the current config echoed, so output paths may change
    on resume, and seals the log by its running SHA-256. The last meta-step
    always saves; a run with no step left saves once. The meta-step is the
    one step counter: the controller's warm-up, its baseline start and its
    RNG stream position all follow from it.
    """
    run = start_run(config, evaluate_override is None, resume_from)
    ckpt, state, total = run.ckpt, run.controller, config.search.total_meta_steps
    path, interval = config.output.checkpoint_path, config.output.checkpoint_interval
    start, k = ckpt.meta_step, config.search.pairs_per_step

    def save(digest: str) -> None:
        ckpt.store_digest, ckpt.log_sha256 = digest, log.sha256.hexdigest()
        persist.save_checkpoint(path, ckpt)

    with persist.open_events(config.output.log_path, run.log) as log:
        for step in range(start, total):
            t0 = time.monotonic()
            commits = meta_step(run, evaluate_override, audit)
            # One store digest serves the event record and the checkpoint.
            done = step + 1
            saves = path is not None and (done == total or interval > 0 and done % interval == 0)
            if log is not None or saves:
                digest = persist.store_digest(ckpt.store)
            if log is not None:
                rows = run.history[-k:]
                scored = [{n: getattr(r, n) for n in persist.CANDIDATE_FIELDS} for r in rows]
                mean = float(np.mean([r.reward for r in rows]))
                probs = [p.tolist() for p in ctrl.probabilities(state)]
                ms = (time.monotonic() - t0) * 1000.0
                event = [step, scored, rows[0].baseline, mean, state.baseline, probs, commits]
                persist.write_event(log, persist.EventRecord(*event, digest, ms))
            if saves:
                save(digest)
        if path is not None and start == total:  # no step left: save once
            save(persist.store_digest(ckpt.store))
    probs = ctrl.probabilities(state)
    return SearchResult(derive(run.space, probs), probs, run.history, total)


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
