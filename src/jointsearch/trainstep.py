"""Training-step machinery: trainer specs, optimizers, mixup, and the two
weight-update paths (discardable temporary weights vs. committed shared-store
steps). Both paths run the exact same per-step code, so a commit with a given
rng state and batch reproduces the first temporary step bit for bit.

A step is mixup, one train-mode ``supernet.forward`` over the view's
``params`` (the temporary copies or the store's own tensors) that keeps what
the backward needs per layer, softmax cross-entropy, the closed-form chain
``numerics.backward`` and one optimizer update. No autodiff tape is involved;
the tests check these gradients bit for bit against a reference tape and
against finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import numerics, supernet
from .numerics import RngStream
from .space import OPTIMIZERS, SearchSpace, selection_to_config
from .supernet import ParamKey, SubModelView, SuperModelWeights

MOMENTUM = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


@dataclass(frozen=True)
class TrainerSpec:
    optimizer: str = "sgd"
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    mixup_ratio: float = 0.0
    dropout_keep: float = 1.0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # lr 0 is allowed so zero-step limiting behaviour stays expressible.
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.mixup_ratio <= 1.0:
            raise ValueError(f"mixup_ratio must be in [0, 1], got {self.mixup_ratio}")
        keep = self.dropout_keep
        if isinstance(keep, bool) or not isinstance(keep, (int, float)) or not 0.0 < keep <= 1.0:
            raise ValueError(f"dropout_keep must be a number in (0, 1], got {keep!r}")


# The slot of each stateful optimizer family: its integer fields (Adam's
# update count) and its arrays, each shaped like the tensor the slot tracks.
SLOT_FIELDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "momentum": ((), ("buf",)),
    "adam": (("step",), ("m", "v")),
    "rmsprop": ((), ("sq",)),
}


class SlotStore:
    """Per-(optimizer family, key) optimizer state, created lazily."""

    def __init__(self):
        self._slots: dict[tuple[str, object], dict] = {}

    def get(self, family: str, key, like: np.ndarray) -> dict:
        slot_key = (family, key)
        slot = self._slots.get(slot_key)
        if slot is None:
            ints, arrays = SLOT_FIELDS[family]
            slot = {**dict.fromkeys(ints, 0), **{n: np.zeros_like(like) for n in arrays}}
            self._slots[slot_key] = slot
        return slot

    def items(self):
        return self._slots.items()

    def restore(self, family: str, key, slot: dict) -> None:
        self._slots[(family, key)] = slot

    def __len__(self):
        return len(self._slots)


def build_trainer(
    space: SearchSpace, selection: Sequence[int], learning_rate: float = 0.01
) -> TrainerSpec:
    """TrainerSpec for a selection; an unsearched learning rate is
    ``learning_rate`` and other unsearched fields keep their defaults."""
    return trainer_from_derived(space, selection_to_config(space, selection), learning_rate)


def trainer_from_derived(space: SearchSpace, derived, learning_rate: float = 0.01) -> TrainerSpec:
    """TrainerSpec from a derived configuration, continuous values as-is.

    Unsearched fields keep the TrainerSpec defaults, except the learning rate,
    which is ``learning_rate``.
    """
    fields = {d.name: v for d, v in zip(space.hyper_decisions, derived.hyper_values)}
    fields.setdefault("learning_rate", learning_rate)
    return TrainerSpec(**fields)


def apply_mixup(batch: tuple[np.ndarray, np.ndarray], ratio: float, rng: RngStream):
    """Blend the batch with a shuffled partner using one Beta(ratio, ratio) draw.

    ``ratio == 0`` returns the batch unchanged and consumes no randomness.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mixup ratio must be in [0, 1], got {ratio}")
    x, y = batch
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels disagree on batch size")
    if ratio == 0.0:
        return x, y
    lam = rng.beta(ratio, ratio)
    partner = rng.permutation(x.shape[0])
    mixed_x = lam * x + (1.0 - lam) * x[partner]
    mixed_y = lam * y + (1.0 - lam) * y[partner]
    return mixed_x, mixed_y


def optimizer_step(
    params: dict,
    grads: Mapping,
    slots: SlotStore,
    spec: TrainerSpec,
) -> None:
    """One in-place update of every tensor in ``params``.

    Weight decay is decoupled: parameters are shrunk by ``lr * wd`` before the
    gradient-based update. Keys are visited in sorted order so the update
    sequence never depends on dict construction order. Each update allocates
    at most two temporaries of the tensor's shape, ``a`` and ``b``, and reuses
    them for every intermediate, in the order the update's formula reads.
    """
    lr = spec.learning_rate
    wd = spec.weight_decay
    for key in sorted(params):
        p = params[key]
        g = grads[key]
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {key}")
        if wd != 0.0:
            p *= 1.0 - lr * wd
        if spec.optimizer == "sgd":
            p -= lr * g
        elif spec.optimizer == "momentum":
            slot = slots.get("momentum", key, p)
            buf = slot["buf"]
            buf *= MOMENTUM
            buf += g
            p -= lr * buf
        elif spec.optimizer == "adam":
            slot = slots.get("adam", key, p)
            slot["step"] += 1
            t = slot["step"]
            m, v = slot["m"], slot["v"]
            m *= ADAM_BETA1
            b = (1.0 - ADAM_BETA1) * g
            m += b
            v *= ADAM_BETA2
            a = g * g
            a *= 1.0 - ADAM_BETA2
            v += a
            np.divide(m, 1.0 - ADAM_BETA1**t, out=b)  # m_hat
            np.divide(v, 1.0 - ADAM_BETA2**t, out=a)  # v_hat
            np.sqrt(a, out=a)
            a += ADAM_EPS
            b *= lr
            b /= a
            p -= b  # lr * m_hat / (sqrt(v_hat) + eps)
        else:  # rmsprop
            slot = slots.get("rmsprop", key, p)
            sq = slot["sq"]
            sq *= RMSPROP_RHO
            a = g * g
            a *= 1.0 - RMSPROP_RHO
            sq += a
            np.sqrt(sq, out=a)
            a += RMSPROP_EPS
            b = lr * g
            b /= a
            p -= b  # lr * g / (sqrt(sq) + eps)


def _train_step(
    weights: SuperModelWeights,
    view: SubModelView,
    params: dict[ParamKey, np.ndarray],
    spec: TrainerSpec,
    batch: tuple[np.ndarray, np.ndarray],
    slots: SlotStore,
    rng: RngStream,
) -> None:
    """One full step (mixup, train-mode forward, backward, optimizer) applied
    to the tensors in ``params``."""
    x, y = apply_mixup(batch, spec.mixup_ratio, rng)
    logits, layers = supernet.forward(
        weights, view, x, supernet.TRAIN, params=params, dropout_keep=spec.dropout_keep, rng=rng
    )
    _, grad_logits = numerics.softmax_cross_entropy(logits, y)
    grads = numerics.backward(layers, weights.head_weight, grad_logits)
    optimizer_step({key: params[key] for key in grads}, grads, slots, spec)


def make_temporary(
    weights: SuperModelWeights,
    view: SubModelView,
    spec: TrainerSpec,
    train_batches: Sequence[tuple[np.ndarray, np.ndarray]],
    rng: RngStream,
) -> dict[ParamKey, np.ndarray]:
    """Copies of the view's tensors, advanced by one step per train batch.

    The shared store is read once (for the copies) and never written; every
    update lands on the copies with fresh optimizer slots.
    """
    params = {key: weights.store[key].copy() for key in view.keys}
    slots = SlotStore()
    for batch in train_batches:
        _train_step(weights, view, params, spec, batch, slots, rng)
    return params


def commit_step(
    weights: SuperModelWeights,
    view: SubModelView,
    spec: TrainerSpec,
    batch: tuple[np.ndarray, np.ndarray],
    slots: SlotStore,
    rng: RngStream,
) -> None:
    """One optimizer step written through the view into the shared store.

    ``slots`` persists across commits so stateful optimizers accumulate their
    statistics per parameter; parameters outside the view are untouched.
    """
    _train_step(weights, view, weights.store, spec, batch, slots, rng)
