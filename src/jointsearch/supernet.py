"""Weight-shared super-model over a layered search space.

The shared store holds one tensor per parameter of every candidate op of every
layer, keyed by ``ParamKey``. Any selection addresses a sub-model whose
forward pass reads only that selection's keys, so candidates can be trained
and scored without materializing separate networks. A fixed linear
classification head (drawn once from the init stream, never updated, so no
checkpoint stores it) maps the last layer's slot width to the class count; it
is not part of the searchable store.

``sub_view`` is the one place a selection becomes a sub-model: it validates
the selection once and resolves, per layer, the decision, the chosen op and
its store keys, plus the selection's MAC cost. ``forward`` is one numpy loop
over a view's layers for both modes, reading the view's tensors from
``params`` (the store when omitted). In train mode it also keeps, per layer,
the values the closed-form chain backward (``numerics.backward``) needs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import numerics
from .numerics import RngStream
from .space import (
    OP_AFFINE_RELU,
    OP_AFFINE_TANH,
    ArchDecision,
    OperationSpec,
    SearchSpace,
    validate_selection,
)

TRAIN = "train"
EVAL = "eval"


class ParamKey(NamedTuple):
    """Address of one parameter tensor: (layer, candidate index, name).

    A tuple, so building, hashing and comparing one runs in C; keys sort by
    layer, then op, then name.
    """

    layer: int
    op: int
    name: str  # "weight" | "bias"

    def text(self) -> str:
        return f"{self.layer}/{self.op}/{self.name}"


@dataclass
class SuperModelWeights:
    """Shared parameter store plus the fixed classification head."""

    space: SearchSpace
    store: dict[ParamKey, np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray


@dataclass(frozen=True)
class SubModelView:
    """One selection resolved against its space.

    ``layers`` holds ``(decision, op, keys)`` per layer, ``keys`` every
    selected store key in layer order (weight before bias), and ``cost`` the
    MAC count of the selected ops. The fixed head is excluded from the cost:
    it is identical for every selection, so it carries no signal for
    cost-aware search.
    """

    selection: tuple[int, ...]
    keys: tuple[ParamKey, ...]
    layers: tuple[tuple[ArchDecision, OperationSpec, tuple[ParamKey, ...]], ...]
    cost: float


def init_weights(space: SearchSpace, rng: RngStream) -> SuperModelWeights:
    """Fresh store: affine weights uniform in ±1/sqrt(fan_in), biases zero.

    Draw order is fixed (layers in order, candidates in order, each weight
    ``(in_width, width)`` before its bias ``(width,)``, head last), so a given
    stream state determines every tensor.
    """
    store: dict[ParamKey, np.ndarray] = {}
    for decision in space.arch_decisions:
        for op_index, op in enumerate(decision.candidates):
            if op.has_params:
                weight = rng.uniform((op.in_width, op.width)) * 2.0 - 1.0
                scale = 1.0 / math.sqrt(op.in_width)  # fan_in
                store[ParamKey(decision.layer_id, op_index, "weight")] = weight * scale
                store[ParamKey(decision.layer_id, op_index, "bias")] = np.zeros(op.width)
    head_scale = 1.0 / math.sqrt(space.last_width)
    head_weight = (rng.uniform((space.last_width, space.num_classes)) * 2.0 - 1.0) * head_scale
    head_bias = np.zeros(space.num_classes)
    return SuperModelWeights(space, store, head_weight, head_bias)


def sub_view(space: SearchSpace, selection: Sequence[int]) -> SubModelView:
    """The sub-model of ``space`` addressed by ``selection``.

    Raises ``ValueError`` when the selection does not fit the space.
    """
    sel = validate_selection(space, selection)
    layers = []
    macs = 0
    for decision, op_index in zip(space.arch_decisions, sel):
        op = decision.candidates[op_index]
        keys: tuple[ParamKey, ...] = ()
        if op.has_params:
            keys = tuple(ParamKey(decision.layer_id, op_index, n) for n in ("weight", "bias"))
            macs += op.in_width * op.width
        layers.append((decision, op, keys))
    all_keys = tuple(key for _, _, keys in layers for key in keys)
    return SubModelView(sel, all_keys, tuple(layers), float(macs))


def forward(
    weights: SuperModelWeights,
    view: SubModelView,
    batch_x: np.ndarray,
    mode: str = EVAL,
    *,
    params: Mapping[ParamKey, np.ndarray] | None = None,
    dropout_keep: float = 1.0,
    rng: RngStream | None = None,
):
    """Run the view's sub-model on a batch.

    Each layer is affine then relu or tanh (or the identity), zero-padded or
    truncated to the layer's width, then inverted dropout that keeps each
    value with probability ``dropout_keep``, in (0, 1]; the fixed head maps
    the last layer to logits. ``params`` holds the view's tensors; it is
    the shared store when omitted, and the store is never written. Eval mode
    returns the logits array, applies no dropout and keeps nothing. Train
    mode returns ``(logits, layers)``, where ``layers`` holds one
    ``numerics.Layer`` per layer for ``numerics.backward``; it raises
    ``ValueError`` on an empty batch. The caller checks that the batch, the
    head and the selected tensors are finite (``trainstep.train`` does, once
    per value that no step changes and once per step for the rest).
    """
    space = weights.space
    x = np.asarray(batch_x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != space.input_dim:
        raise ValueError(f"batch shape {x.shape} does not match input_dim {space.input_dim}")
    if params is None:
        params = weights.store
    train = mode == TRAIN
    keep = dropout_keep if train else 1.0
    if train:
        if isinstance(keep, bool) or not isinstance(keep, (int, float)) or not 0.0 < keep <= 1.0:
            raise ValueError(f"keep_prob must be a number in (0, 1], got {keep!r}")
        if keep < 1.0 and rng is None:
            raise ValueError("dropout requires an rng stream")
        if x.shape[0] == 0:
            raise ValueError("batch is empty")
        x = np.ascontiguousarray(x)  # one layout for the weight-gradient matmul
    elif mode != EVAL:
        raise ValueError(f"unknown mode {mode!r}")

    layers: list[numerics.Layer] = []
    h = x
    for decision, op, keys in view.layers:
        weight = activation = scale = None
        if keys:
            weight = params[keys[0]]
            out = h @ weight  # fresh, so the bias and activation go in place
            out += params[keys[1]]
            if op.kind == OP_AFFINE_RELU:
                activation = "relu"
                np.maximum(out, 0.0, out=out)
            elif op.kind == OP_AFFINE_TANH:
                activation = "tanh"
                np.tanh(out, out=out)
        else:
            out = h
        z = out
        if out.shape[1] < decision.out_width:
            z = np.zeros((out.shape[0], decision.out_width), dtype=np.float64)
            z[:, : out.shape[1]] = out
        elif out.shape[1] > decision.out_width:
            z = out[:, : decision.out_width].copy()
        if keep < 1.0:
            scale = (rng.uniform(z.shape) < keep).astype(np.float64) / keep
            z = z * scale
        if train:
            layers.append(numerics.Layer(keys, h, weight, activation, out, scale))
        h = z
    logits = h @ weights.head_weight + weights.head_bias
    return (logits, layers) if train else logits
