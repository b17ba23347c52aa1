"""Training-step machinery: trainer specs, optimizers, mixup, and the one
train loop that temporary weights, commits and retraining all run.

``train`` advances a mapping of a view's tensors in place, one step per batch:
block mixup, a train-mode ``supernet.forward``, the cross-entropy gradient,
the closed-form chain ``numerics.backward`` into one flat gradient, and an
update the caller supplies. No autodiff tape is involved; the tests check
these gradients bit for bit against a reference tape and against finite
differences. ``make_temporary`` trains flat copies with fresh flat slots, one
``_update`` per step; ``commit_step`` trains the store's own tensors with
per-key ``optimizer_step`` and the run's slot dict.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

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

Batch = tuple[np.ndarray, np.ndarray]


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


def fresh_slot(family: str, like: np.ndarray) -> dict:
    """A new slot of ``family`` for a tensor shaped like ``like``: integer
    fields 0, arrays zero."""
    ints, arrays = SLOT_FIELDS[family]
    return {**dict.fromkeys(ints, 0), **{name: np.zeros_like(like) for name in arrays}}


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


def apply_mixup(
    batches: Sequence[Batch], ratio: float, rng: RngStream, starts: Sequence[int]
) -> list[Batch]:
    """Each batch blended with a shuffled partner by one Beta(ratio, ratio) draw.

    Batch ``i``'s Beta word and partner permutation are the stream's words
    from counter ``starts[i]`` on, all drawn in one block
    (``RngStream.beta_permutations``); the counter does not move.
    ``ratio == 0`` returns the batches unchanged and draws nothing.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"mixup ratio must be in [0, 1], got {ratio}")
    for x, y in batches:
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels disagree on batch size")
    if ratio == 0.0 or not batches:
        return list(batches)
    lams, partners = rng.beta_permutations(ratio, starts, [x.shape[0] for x, _ in batches])
    return [
        (lam * x + (1.0 - lam) * x[p], lam * y + (1.0 - lam) * y[p])
        for (x, y), lam, p in zip(batches, lams, partners)
    ]


def _update(
    p: np.ndarray, g: np.ndarray, slot: dict | None, spec: TrainerSpec, a: np.ndarray, b: np.ndarray
) -> None:
    """One in-place update of ``p`` from its finite gradient ``g``.

    Weight decay is decoupled: ``p`` is shrunk by ``lr * wd`` before the
    gradient-based update. Every operation is elementwise, so one call on
    concatenated tensors equals one call per tensor bit for bit. ``a`` and
    ``b``, scratch arrays of ``p``'s shape, hold every intermediate, in the
    order the update's formula reads.
    """
    lr = spec.learning_rate
    if spec.weight_decay != 0.0:
        p *= 1.0 - lr * spec.weight_decay
    if spec.optimizer == "sgd":
        np.multiply(lr, g, out=a)
        p -= a
    elif spec.optimizer == "momentum":
        buf = slot["buf"]
        buf *= MOMENTUM
        buf += g
        np.multiply(lr, buf, out=a)
        p -= a
    elif spec.optimizer == "adam":
        slot["step"] += 1
        t = slot["step"]
        m, v = slot["m"], slot["v"]
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=b)
        m += b
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
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
        sq = slot["sq"]
        sq *= RMSPROP_RHO
        np.multiply(g, g, out=a)
        a *= 1.0 - RMSPROP_RHO
        sq += a
        np.sqrt(sq, out=a)
        a += RMSPROP_EPS
        np.multiply(lr, g, out=b)
        b /= a
        p -= b  # lr * g / (sqrt(sq) + eps)


def optimizer_step(params: dict, grads: Mapping, slots: dict, spec: TrainerSpec) -> None:
    """One in-place update (``_update``) of every tensor in ``params``.

    ``slots`` holds the optimizer state by ``(family, key)``; a stateful
    family's missing slot is added fresh. Keys are visited in sorted order,
    so the update sequence never depends on dict construction order and the
    first non-finite gradient found is the same on every call.
    """
    family = spec.optimizer
    for key in sorted(params):
        p = params[key]
        g = grads[key]
        if not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for {key}")
        if family != "sgd" and (family, key) not in slots:
            slots[family, key] = fresh_slot(family, p)
        _update(p, g, slots.get((family, key)), spec, np.empty_like(p), np.empty_like(p))


def _check_finite(values: np.ndarray, what) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} has non-finite entries")


def _first_bad(tensors: Mapping, keys) -> ParamKey:
    # The first of ``keys`` whose tensor has a non-finite entry.
    return next(key for key in keys if not np.isfinite(tensors[key]).all())


def _flat_views(
    weights: SuperModelWeights, keys: Sequence[ParamKey]
) -> tuple[np.ndarray, dict[ParamKey, np.ndarray]]:
    # An uninitialised flat buffer for the store tensors of ``keys``, in that
    # order, and its reshaped view per key.
    shapes = [weights.store[key].shape for key in keys]
    offsets = [0, *itertools.accumulate(math.prod(shape) for shape in shapes)]
    flat = np.empty(offsets[-1])
    bounds = zip(keys, shapes, offsets, offsets[1:])
    return flat, {key: flat[start:end].reshape(shape) for key, shape, start, end in bounds}


def train(
    weights: SuperModelWeights,
    view: SubModelView,
    spec: TrainerSpec,
    batches: Sequence[Batch],
    params: Mapping[ParamKey, np.ndarray],
    update: Callable[[np.ndarray, dict[ParamKey, np.ndarray]], None],
    rng: RngStream,
    tensors: Iterable[np.ndarray],
) -> None:
    """Advance ``params``, the view's tensors by key, one step per batch.

    Each step writes its gradient into one flat buffer in sorted key order
    (the order ``optimizer_step`` visits) and calls ``update(grad, grads)``,
    ``grads`` being that buffer's view per key, to write ``params``. A step's
    word counts follow from the batch sizes and layer widths (its Beta word
    and permutation, then its dropout masks), so all mixup words come from
    one block at their exact counters and the stream is moved to each step's
    dropout words. The mixed rows, labels and head, which no step changes,
    are checked once; ``tensors`` (the arrays holding ``params``) and the
    gradient once per step, and only a failing check looks for the key.
    """
    keys = sorted(view.keys)
    grad, grads = _flat_views(weights, keys)
    mixing = spec.mixup_ratio != 0.0
    width = sum(decision.out_width for decision, _, _ in view.layers)
    starts, dropout_at = [], []  # the counters each step's mixup and dropout words start from
    counter = rng.counter
    for x, _ in batches:
        starts.append(counter)
        counter += len(x) + 1 if mixing else 0
        dropout_at.append(counter)
        counter += len(x) * width if spec.dropout_keep < 1.0 else 0
    batches = apply_mixup(batches, spec.mixup_ratio, rng, starts)
    for x, _ in batches:
        _check_finite(x, "batch")
    if batches:
        _check_finite(weights.head_weight, "head weight")
        _check_finite(weights.head_bias, "head bias")
    labels = [numerics.check_labels(y, (len(y), weights.space.num_classes)) for _, y in batches]

    for (x, _), y, at in zip(batches, labels, dropout_at):
        if not all(np.isfinite(t).all() for t in tensors):
            raise ValueError(f"{_first_bad(params, view.keys).text()} has non-finite entries")
        rng.counter = at
        logits, layers = supernet.forward(
            weights, view, x, supernet.TRAIN, params=params, dropout_keep=spec.dropout_keep, rng=rng
        )
        grad_logits = numerics.cross_entropy_gradient(logits, y)
        numerics.backward(layers, weights.head_weight, grad_logits, out=grads)
        if not np.isfinite(grad).all():
            raise ValueError(f"non-finite gradient for {_first_bad(grads, keys)}")
        update(grad, grads)


def make_temporary(
    weights: SuperModelWeights,
    view: SubModelView,
    spec: TrainerSpec,
    train_batches: Sequence[Batch],
    rng: RngStream,
) -> dict[ParamKey, np.ndarray]:
    """Copies of the view's tensors, advanced by one step per train batch.

    The store is read once, for the copies, and never written. The copies
    are views into one flat buffer beside flat fresh slots and scratch, so
    one ``_update`` per step covers every tensor and one check the copies.
    """
    keys = sorted(view.keys)
    flat, params = _flat_views(weights, keys)
    for key in keys:
        params[key][...] = weights.store[key]
    slot = None if spec.optimizer == "sgd" else fresh_slot(spec.optimizer, flat)
    a, b = np.empty_like(flat), np.empty_like(flat)
    update = lambda grad, _: _update(flat, grad, slot, spec, a, b)
    train(weights, view, spec, train_batches, params, update, rng, (flat,))
    return params


def commit_step(
    weights: SuperModelWeights,
    view: SubModelView,
    spec: TrainerSpec,
    batches: Sequence[Batch],
    slots: dict,
    rng: RngStream,
) -> None:
    """One step per batch on the store's own tensors, in place, each an
    ``optimizer_step`` with ``slots``, which persist across commits; the
    parameters outside the view are untouched."""
    params = {key: weights.store[key] for key in view.keys}
    update = lambda _, grads: optimizer_step(params, grads, slots, spec)
    train(weights, view, spec, batches, params, update, rng, params.values())
