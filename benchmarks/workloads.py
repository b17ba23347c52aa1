"""The benchmark's workloads: generated configs and one session of each.

A session is one pass of a user's flow through the public API of
``jointsearch``, driven as a closed loop with one caller: each call starts
when the previous one has returned. Every input of a session is generated
from the seed; the library receives only the generated config (and, for
``tabular-controller``, the planted reward table).

Each session checks its own outputs and records a fingerprint per operation,
so ``run.py`` can also require repeated sessions of one seed to agree bit
for bit.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from jointsearch import config, data, engine, space
from jointsearch.numerics import RngStream

K = 4  # pairs per meta-step in every workload
TABULAR_STEPS, WIDE_STEPS, WIDE_CRASH_AT = 2000, 8, 4
# What an a7 search costs depends on its seed (the candidates it samples and
# learns to prefer), so one a7 session searches for several sub-seeds and a
# run's step figures average over them.
A7_STEPS, A7_SUBSEEDS = 8, 3

A7_HYPERPARAMETERS = [
    {
        "name": "learning_rate",
        "kind": "continuous",
        "geometric": {"default": 0.05, "count": 3, "span": 3.1623},
    },
    {"name": "weight_decay", "kind": "continuous", "basis": [1e-4, 1e-3, 1e-2]},
    {"name": "mixup_ratio", "kind": "continuous", "basis": [0.0, 0.1, 0.2]},
    {"name": "optimizer", "kind": "categorical", "basis": ["sgd", "adam"]},
]
TWO_MOONS = {"generator": "two_moons", "n": 1000, "noise_sd": 0.1}
FRACTIONS = (0.5, 0.25, 0.25)


class SimulatedCrash(RuntimeError):
    """Raised from the audit hook to interrupt a search, as a crash would."""


class OpFailed(Exception):
    """An operation raised or returned outputs that failed a check."""


# ---------------------------------------------------------------------------
# Config documents
# ---------------------------------------------------------------------------


def a7_doc(seed: int, steps: int) -> dict:
    """The A7 acceptance config (2 layers, 4 hyperparameters, inner_steps 16)."""
    layer = {
        "candidates": ["identity", "affine-relu:8", "affine-relu:16", "affine-tanh:8"],
        "width": 16,
    }
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [layer, layer],
            "hyperparameters": A7_HYPERPARAMETERS,
        },
        "data": {**TWO_MOONS, "seed": seed},
        "search": {"total_meta_steps": steps, "pairs_per_step": K, "inner_steps": 16},
        "retrain": {"epochs": 30},
    }


def tabular_doc(seed: int, steps: int) -> dict:
    """The A2 shape: 3 decisions of 4 candidates, no dataset."""
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity"] * 4} for _ in range(3)],
            "hyperparameters": [],
        },
        "data": {"generator": "none", "seed": seed},
        "search": {
            "total_meta_steps": steps,
            "pairs_per_step": K,
            "meta_lr": 0.05,
            "baseline_momentum": 0.95,
            "warmup_fraction": 0.3,
        },
    }


def wide_doc(seed: int, steps: int, log_path: str, checkpoint_path: str) -> dict:
    """3 layers of up to 128 units (about 67k shared parameters), logged and
    checkpointed after every meta-step."""
    layer = {
        "candidates": ["identity", "affine-relu:64", "affine-relu:128", "affine-tanh:64"],
        "width": 128,
    }
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [layer, layer, layer],
            "hyperparameters": A7_HYPERPARAMETERS,
        },
        "data": {**TWO_MOONS, "seed": seed},
        "search": {"total_meta_steps": steps, "pairs_per_step": K, "inner_steps": 4},
        "output": {
            "log_path": log_path,
            "checkpoint_path": checkpoint_path,
            "checkpoint_interval": 1,
        },
    }


def planted_selection(seed: int) -> tuple[int, ...]:
    plant = RngStream(seed, "planted")
    return tuple(plant.index(4) for _ in range(3))


# ---------------------------------------------------------------------------
# Fingerprints, owned by the benchmark so they survive changes to persist
# ---------------------------------------------------------------------------


def weights_fingerprint(weights) -> str:
    h = hashlib.sha256()
    for key in sorted(weights.store):
        h.update(key.text().encode())
        h.update(np.ascontiguousarray(weights.store[key], dtype="<f8").tobytes())
    for arr in (weights.head_weight, weights.head_bias):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def history_fingerprint(history) -> str:
    h = hashlib.sha256()
    for r in history:
        h.update(
            f"{r.meta_step}|{r.selection}|{float(r.accuracy).hex()}|{float(r.cost).hex()}"
            f"|{float(r.reward).hex()}|{float(r.baseline).hex()};".encode()
        )
    return h.hexdigest()[:16]


def probabilities_fingerprint(probs) -> str:
    h = hashlib.sha256()
    for p in probs:
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class StepClock:
    """``audit`` callback: timestamps phase boundaries, keeps the weights
    reference, and optionally crashes the run at one controller phase."""

    def __init__(self, boundary: str, crash_at: int | None = None):
        self.boundary = boundary  # the phase that ends a meta-step
        self.crash_at = crash_at
        self.events: list[tuple[str, float]] = []
        self.weights = None
        self.start = time.perf_counter()

    def __call__(self, phase, step, weights):
        if phase == "controller" and step == self.crash_at:
            raise SimulatedCrash(f"crash at meta-step {step}")
        self.events.append((phase, time.perf_counter()))
        self.weights = weights

    def step_latencies(self) -> list[float]:
        """Seconds per completed meta-step; the first runs from the call."""
        out, last = [], self.start
        for phase, t in self.events:
            if phase == self.boundary:
                out.append(t - last)
                last = t
        return out

    def phase_seconds(self) -> tuple[list[float], list[float]]:
        """(controller, commit) phase durations between audit boundaries."""
        controller, commit, last = [], [], self.start
        for phase, t in self.events:
            (controller if phase == "controller" else commit).append(t - last)
            last = t
        return controller, commit


@dataclass
class Session:
    wall_s: float = 0.0
    ops: list[tuple[str, float, bool]] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    controller_phase_s: list[float] = field(default_factory=list)
    commit_phase_s: list[float] = field(default_factory=list)
    search_steps: int = 0
    search_s: float = 0.0
    fingerprint: dict[str, str] = field(default_factory=dict)
    figures: dict[str, list[float]] = field(default_factory=dict)  # per seed, in order
    errors: list[str] = field(default_factory=list)

    def op(self, kind: str, fn: Callable, *args, **kwargs):
        """Time one library call. A raised exception fails the operation."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.ops.append((kind, time.perf_counter() - start, False))
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            raise OpFailed(kind) from exc
        self.ops.append((kind, time.perf_counter() - start, True))
        return result

    def call_s(self) -> float:
        """Seconds spent inside library calls (the benchmark's checks excluded)."""
        return sum(seconds for _, seconds, _ in self.ops)

    def check(self, kind: str, ok: bool, what: str) -> None:
        """Fail the last ``kind`` operation when an output check does not hold."""
        if ok:
            return
        for i in range(len(self.ops) - 1, -1, -1):
            if self.ops[i][0] == kind:
                self.ops[i] = (kind, self.ops[i][1], False)
                break
        self.errors.append(f"{kind}: check failed: {what}")
        raise OpFailed(kind)

    def record_search(self, clock: StepClock, seconds: float, completed: bool) -> None:
        steps = clock.step_latencies()
        self.step_s.extend(steps)
        controller, commit = clock.phase_seconds()
        self.controller_phase_s.extend(controller)
        self.commit_phase_s.extend(commit)
        self.search_steps += len(steps)
        # A crashed call is counted up to its last completed meta-step.
        self.search_s += seconds if completed else sum(steps)


def _simplex_ok(probs) -> bool:
    return all(abs(float(p.sum()) - 1.0) <= 1e-9 and bool((p >= 0.0).all()) for p in probs)


def _check_search(s: Session, kind: str, result, n_arch: int, records: int | None) -> None:
    """Check a search result; an uninterrupted one (``records`` given) also
    sets the session's mean reward."""
    s.check(kind, _simplex_ok(result.final_probabilities), "final probabilities off the simplex")
    argmax = tuple(int(np.argmax(p)) for p in result.final_probabilities[:n_arch])
    s.check(kind, result.derived.arch_choice == argmax, "derived arch is not the argmax")
    if records is not None:
        s.check(kind, len(result.reward_history) == records, "reward history length")
        s.figures.setdefault("mean_reward", []).append(
            float(np.mean([r.reward for r in result.reward_history])))


def _splits(seed: int):
    return data.split(data.two_moons(TWO_MOONS["n"], TWO_MOONS["noise_sd"], seed), FRACTIONS, seed)


def _last_op_seconds(s: Session) -> float:
    return s.ops[-1][1]


def _retrain(s: Session, sp, derived, splits, epochs: int, seed: int) -> None:
    result = s.op("retrain", engine.retrain, sp, derived, splits, epochs, seed=seed)
    s.figures["retrain_epoch_ms"] = [_last_op_seconds(s) * 1000.0 / epochs]
    for name in ("val_accuracy", "test_accuracy"):
        value = getattr(result, name)
        s.check("retrain", 0.0 <= value <= 1.0, f"{name} {value} outside [0, 1]")
    s.figures["retrain_val_accuracy"] = [result.val_accuracy]
    s.fingerprint["retrain"] = f"{result.val_accuracy!r}|{result.test_accuracy!r}"


def a7_seeds(seed: int, count: int = A7_SUBSEEDS) -> list[int]:
    return [seed * A7_SUBSEEDS + j for j in range(count)]


def a7_session(s: Session, seeds: list[int], steps: int, epochs: int) -> None:
    """A search per seed, then a retrain of the first search's derived config
    and one baseline trial on the first seed's data."""
    for seed in seeds:
        cfg = config.parse_config(a7_doc(seed, steps))
        clock = StepClock("commit")
        result = s.op("search", engine.search, cfg, audit=clock)
        s.record_search(clock, _last_op_seconds(s), True)
        _check_search(s, "search", result, len(cfg.space.layers), steps * K)
        s.fingerprint[f"search/{seed}"] = "|".join(
            (weights_fingerprint(clock.weights), repr(result.derived),
             history_fingerprint(result.reward_history))
        )
        if seed == seeds[0]:
            derived = result.derived

    seed = seeds[0]
    sp = space.build_space(config.parse_config(a7_doc(seed, steps)).space)
    splits = _splits(seed)
    _retrain(s, sp, derived, splits, epochs, seed)

    base = s.op("baseline", engine.random_search_baseline, sp, splits, 1, epochs, seed)
    s.figures["baseline_trial_s"] = [_last_op_seconds(s)]
    trial = base.trials[0]
    s.check("baseline", len(base.trials) == 1 and base.best is trial, "baseline trials")
    s.check("baseline", 0.0 <= trial.val_accuracy <= 1.0, "accuracy outside [0, 1]")
    s.fingerprint["baseline"] = f"{trial.selection}|{trial.val_accuracy!r}"


def tabular_session(s: Session, seed: int, steps: int) -> None:
    """search over a planted-optimum reward table (no dataset, no network)."""
    planted = planted_selection(seed)

    def table(selection):
        hamming = sum(a != b for a, b in zip(selection, planted))
        return 1.0 - hamming / 3.0, 0.0

    cfg = config.parse_config(tabular_doc(seed, steps))
    clock = StepClock("controller")
    result = s.op("search", engine.search, cfg, evaluate_override=table, audit=clock)
    s.record_search(clock, _last_op_seconds(s), True)
    _check_search(s, "search", result, 3, steps * K)
    s.check(
        "search",
        all(r.reward == table(r.selection)[0] for r in result.reward_history),
        "a reward differs from the table",
    )
    planted_prob = 1.0
    for p, idx in zip(result.final_probabilities, planted):
        planted_prob *= float(p[idx])
    s.figures["planted_prob"] = [planted_prob]
    s.fingerprint["search"] = "|".join(
        (probabilities_fingerprint(result.final_probabilities), repr(result.derived),
         history_fingerprint(result.reward_history))
    )


def wide_session(s: Session, seed: int, steps: int, crash_at: int, workdir: str) -> None:
    """Logged, checkpointed search, then the same search crashed at
    ``crash_at`` and resumed from its checkpoint."""
    os.makedirs(workdir, exist_ok=True)
    paths = {
        leg: (os.path.join(workdir, f"{leg}.events.jsonl"), os.path.join(workdir, f"{leg}.ckpt.json"))
        for leg in ("reference", "resumed")
    }
    for pair in paths.values():
        for path in pair:
            if os.path.exists(path):
                os.unlink(path)
    reference_cfg = config.parse_config(wide_doc(seed, steps, *paths["reference"]))
    resumed_cfg = config.parse_config(wide_doc(seed, steps, *paths["resumed"]))
    sp = space.build_space(reference_cfg.space)

    clock = StepClock("commit")
    result = s.op("search", engine.search, reference_cfg, audit=clock)
    s.record_search(clock, _last_op_seconds(s), True)
    _check_search(s, "search", result, sp.n_arch, steps * K)
    reference_weights = weights_fingerprint(clock.weights)
    s.fingerprint["search"] = "|".join(
        (reference_weights, repr(result.derived), history_fingerprint(result.reward_history))
    )

    clock = StepClock("commit", crash_at=crash_at)
    try:
        s.op("crash", engine.search, resumed_cfg, audit=clock)
    except OpFailed as failed:
        if not isinstance(failed.__cause__, SimulatedCrash):
            raise
        s.ops[-1] = ("crash", _last_op_seconds(s), True)
        s.errors.pop()
    else:
        s.check("crash", False, "the search ran past its simulated crash")
    s.record_search(clock, _last_op_seconds(s), False)

    clock = StepClock("commit")
    resumed = s.op(
        "resume", engine.search, resumed_cfg, resume_from=paths["resumed"][1], audit=clock
    )
    s.record_search(clock, _last_op_seconds(s), True)
    _check_search(s, "resume", resumed, sp.n_arch, None)
    s.check("resume", len(clock.events) > 0, "the resumed search ran no meta-step")
    s.figures["resume_to_first_step_s"] = [clock.step_latencies()[0]]
    # The resumed history is deliberately not fingerprinted: it is known to
    # be truncated at the resume point, which the ratio below reports.
    s.check("resume", weights_fingerprint(clock.weights) == reference_weights,
            "resumed store differs from the uninterrupted run")
    s.check("resume", resumed.derived == result.derived,
            "resumed derived config differs from the uninterrupted run")
    s.fingerprint["resume"] = reference_weights + "|" + repr(resumed.derived)
    s.figures["resumed_history_ratio"] = [len(resumed.reward_history) / (steps * K)]
    with open(paths["resumed"][0], encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    s.figures["duplicate_event_lines"] = [lines - (1 + steps)]


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # run(session, seed, workdir) at the measured size
    warm: Callable  # the same flow at a tiny size, to finish lazy set-up
    doc: Callable[[int], object]  # the generated config(s) of a seed
    setup: Callable[[int], object]  # the set-up a user pays before the first call


def _wide_doc(seed: int) -> dict:
    return wide_doc(seed, WIDE_STEPS, "events.jsonl", "ckpt.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "a7-pipeline",
            run=lambda s, seed, d: a7_session(s, a7_seeds(seed), A7_STEPS, epochs=30),
            warm=lambda s, seed, d: a7_session(s, a7_seeds(seed, 1), 2, epochs=1),
            doc=lambda seed: [a7_doc(sub, A7_STEPS) for sub in a7_seeds(seed)],
            setup=lambda seed: (
                config.parse_config(a7_doc(a7_seeds(seed)[0], A7_STEPS)), _splits(a7_seeds(seed)[0])),
        ),
        Workload(
            "tabular-controller",
            run=lambda s, seed, d: tabular_session(s, seed, TABULAR_STEPS),
            warm=lambda s, seed, d: tabular_session(s, seed, 50),
            doc=lambda seed: tabular_doc(seed, TABULAR_STEPS),
            setup=lambda seed: (
                config.parse_config(tabular_doc(seed, TABULAR_STEPS)), planted_selection(seed)),
        ),
        Workload(
            "wide-logged-resume",
            run=lambda s, seed, d: wide_session(s, seed, WIDE_STEPS, WIDE_CRASH_AT, d),
            warm=lambda s, seed, d: wide_session(s, seed, 2, 1, d),
            doc=_wide_doc,
            setup=lambda seed: (config.parse_config(_wide_doc(seed)), _splits(seed)),
        ),
    )
}
