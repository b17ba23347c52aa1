"""REINFORCE controller over the joint search space.

The controller keeps one logit vector per decision and treats the joint
distribution as a product of independent softmaxes. Sampling draws a whole
phase (all K selections) at once: one block of uniforms, one softmax and one
cumulative sum per decision, each index picked by inverse CDF. Updates take a
single Adam step on the logits using reward-minus-baseline advantages
averaged over the step's sampled pairs. The baseline is a scalar moving
average of observed rewards, initialized to the first reward of meta-step 0.
During a warm-up window at the start of a run the logits are left untouched
(so sampling stays at its uniform initialization) while the baseline keeps
tracking rewards. The state holds only what the controller has learned; the
meta-step, which says whether warm-up is over and whether a baseline exists,
is passed to each update.

The logits and their Adam moments live in zero-padded tables, one row per
decision and as wide as the largest cardinality; each decision's logit
vector and slot arrays are views of its row. An update runs its elementwise
work once over the tables: the K accumulations of the gradient and one Adam
step, where a padding cell's zero gradient leaves its zero moments and logit
unchanged. Every reduction along a row (the softmax's max and sum, the
sampling CDF, the entropy) stays per decision on the unpadded row: numpy
sums 8 or more entries pairwise, so a padded row would group them otherwise
and change the probabilities' last bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import SearchSection
from .numerics import RngStream, softmax
from .space import SearchSpace
from .trainstep import TrainerSpec, fresh_slot, optimizer_step

_TABLE = "logits"  # the one key of the table update's ``optimizer_step``


@dataclass
class ControllerState:
    """What the controller has learned: ``logits`` by decision, the
    ``baseline`` and the Adam ``slots`` by ``("adam", decision)``.

    Building a state packs the logits, and the slots when they are one Adam
    slot per decision at one ``step``, into padded tables, and replaces each
    array by a view of its table row, so write them in place. A state whose
    logits are not one vector per decision is kept as given and refused by
    every update; one whose slots are anything else is kept as given and
    refused by an update past warm-up. A checkpoint holding either is one
    the resume check refuses.
    """

    logits: list[np.ndarray]
    baseline: float = 0.0
    slots: dict = field(default_factory=dict)  # Adam slots by ("adam", decision)

    def __post_init__(self):
        self._adam = {}  # the table slot by ("adam", _TABLE), once there is one
        self._cards = None
        if not all(np.ndim(z) == 1 for z in self.logits):
            return
        cards = self._cards = tuple(len(z) for z in self.logits)
        self._table = np.zeros((len(cards), max(cards, default=0)))
        self.logits = [_pack(self._table[d], z) for d, z in enumerate(self.logits)]
        adam = [self.slots.get(("adam", d)) for d in range(len(cards))]
        fits = bool(self.slots) and len(self.slots) == len(cards) and all(
            slot is not None
            and set(slot) == {"step", "m", "v"}
            and slot["step"] == adam[0]["step"]
            and np.shape(slot["m"]) == np.shape(slot["v"]) == (c,)
            for slot, c in zip(adam, cards)
        )
        if fits:
            table = self._adam["adam", _TABLE] = fresh_slot("adam", self._table)
            table["step"] = adam[0]["step"]
            for d, slot in enumerate(adam):
                slot["m"] = _pack(table["m"][d], slot["m"])
                slot["v"] = _pack(table["v"][d], slot["v"])


def _pack(row: np.ndarray, values) -> np.ndarray:
    # ``values`` copied into the head of a table row; that head, as a view.
    head = row[: len(values)]
    head[...] = values
    return head


def init_controller(space: SearchSpace) -> ControllerState:
    """Zero logits for every decision: the uniform joint distribution."""
    return ControllerState(
        logits=[np.zeros(card) for card in space.cardinalities()]
    )


def probabilities(state: ControllerState) -> list[np.ndarray]:
    return [softmax(z) for z in state.logits]


def sample(
    state: ControllerState, rng: RngStream, k: int, probs: list[np.ndarray] | None = None
) -> list[tuple[int, ...]]:
    """Draw the ``k`` selections of one phase.

    The phase takes one ``k x n_decisions`` block of uniforms; selection ``i``
    reads row ``i`` in decision order and, per decision, picks the first index
    whose cumulative probability exceeds its draw. The stream is counter-based,
    so the block holds the same words, in the same order, as ``k`` successive
    draws of one row each. ``probs``, when given, must be
    ``probabilities(state)``; it saves computing them again.
    """
    u = rng.uniform((k, len(state.logits)))
    chosen = np.empty(u.shape, dtype=np.int64)
    for d, p in enumerate(probabilities(state) if probs is None else probs):
        idx = np.searchsorted(np.cumsum(p), u[:, d], side="right")
        chosen[:, d] = np.minimum(idx, len(p) - 1)
    return list(map(tuple, chosen.tolist()))


def _check_selections(state: ControllerState, samples) -> None:
    """``ValueError`` unless each selection holds one integer index per
    decision, inside ``[0, cardinality)``: a padded table would take any
    other index without complaint."""
    cards = state._cards
    if cards is None:
        raise ValueError("controller logits are not one vector per decision")
    for selection, _ in samples:
        if len(selection) != len(cards):
            raise ValueError("selection length does not match decision count")
        for d, (j, card) in enumerate(zip(selection, cards)):
            if not (isinstance(j, (int, np.integer)) and 0 <= j < card):
                what = f"not an index in [0, {card})"
                raise ValueError(f"selection picks {j} for decision {d}, {what}")


def _gradient(
    state: ControllerState, probs, samples, baseline: float
) -> tuple[np.ndarray, np.ndarray]:
    """The descent-direction logit gradient for checked ``samples``, and the
    probabilities ``probs`` by decision, each as a padded table whose
    padding cells are zero."""
    k = len(samples)
    if k == 0:
        raise ValueError("need at least one sample")
    table = np.zeros_like(state._table)
    for row, p in zip(table, probs):
        row[: len(p)] = p
    grad = np.zeros_like(table)
    rows = np.arange(len(table))
    for selection, reward in samples:
        if not np.isfinite(reward):
            raise ValueError("reward must be finite")
        advantage = reward - baseline
        grad += advantage * table
        grad[rows, selection] -= advantage
    grad /= k
    return grad, table


def reinforce_logit_gradient(
    state: ControllerState,
    samples: Sequence[tuple[Sequence[int], float]],
    baseline: float,
) -> list[np.ndarray]:
    """Descent-direction logit gradient for a batch of (selection, reward).

    For decision d this is ``-(1/K) sum_i a_i (onehot(sel_i[d]) - p_d)`` with
    advantage ``a_i = r_i - baseline``; stepping against it ascends expected
    reward.
    """
    _check_selections(state, samples)
    grad, _ = _gradient(state, probabilities(state), samples, baseline)
    return [g[:card] for g, card in zip(grad, state._cards)]


def _entropy_gradient(probs: np.ndarray, cards: Sequence[int], weight: float) -> np.ndarray:
    # Descent gradient of -weight * H(p) w.r.t. the logits, for each row p of
    # the padded table ``probs``: weight * p * (log p + H). A p that underflowed
    # to 0, or pads the row, takes log 1 in place of -inf: 0 log 0 = 0, not nan.
    log_p = np.log(np.where(probs > 0.0, probs, 1.0))
    h = [-float(np.dot(p[:c], lp[:c])) for p, lp, c in zip(probs, log_p, cards)]
    return weight * probs * (log_p + np.array(h)[:, None])


def warmup_steps(search: SearchSection) -> int:
    """The number of meta-steps, from the first, that leave the logits
    untouched: ``ceil(warmup_fraction * total_meta_steps)``."""
    return math.ceil(search.warmup_fraction * search.total_meta_steps)


@functools.lru_cache(maxsize=16)
def _adam(learning_rate: float) -> TrainerSpec:
    return TrainerSpec(optimizer="adam", learning_rate=learning_rate)


def _adam_step(state: ControllerState, grad: np.ndarray, learning_rate: float) -> None:
    """One Adam step of the logit table, which adds the slot table and its
    row views to ``state.slots`` on the first; then each row's ``step``
    mirrors the table's."""
    if not state._adam and state.slots:
        raise ValueError("controller slots are not one Adam slot per decision at one step")
    first = not state._adam
    try:
        optimizer_step({_TABLE: state._table}, {_TABLE: grad}, state._adam, _adam(learning_rate))
    except ValueError:  # a non-finite gradient, which the step refuses before any write
        bad = next(d for d, g in enumerate(grad) if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient for {bad}") from None
    table = state._adam["adam", _TABLE]
    if first:
        for d, card in enumerate(state._cards):
            state.slots["adam", d] = {"m": table["m"][d, :card], "v": table["v"][d, :card]}
    for d in range(len(state._cards)):
        state.slots["adam", d]["step"] = table["step"]


def reinforce_update(
    state: ControllerState,
    samples: Sequence[tuple[Sequence[int], float]],
    search: SearchSection,
    step: int,
    probs: list[np.ndarray] | None = None,
) -> float:
    """Meta-step ``step``: Adam on the logits, then the baseline moving average.

    Advantages use the baseline as of the start of the call, which is
    returned; at step 0 no reward has been observed yet, so the first
    sample's reward stands in, which keeps the first update free of a
    start-up advantage spike. Inside the warm-up window (steps below
    ``warmup_steps(search)``) the logits and their Adam slots
    are left bitwise unchanged while the baseline still tracks every reward.
    ``probs``, when given, must be ``probabilities(state)`` as the logits
    stand; it saves computing them again.
    """
    if not samples:
        raise ValueError("reinforce_update needs at least one sample")
    _check_selections(state, samples)
    pre_baseline = state.baseline if step > 0 else float(samples[0][1])

    if step >= warmup_steps(search):
        probs = probabilities(state) if probs is None else probs
        grad, table = _gradient(state, probs, samples, pre_baseline)
        if search.entropy_weight != 0.0:
            grad += _entropy_gradient(table, state._cards, search.entropy_weight)
        _adam_step(state, grad, search.meta_lr)

    m = search.baseline_momentum
    for i, (_, reward) in enumerate(samples):
        r = float(reward)
        if not np.isfinite(r):
            raise ValueError("reward must be finite")
        # The first reward of step 0 starts the moving average.
        state.baseline = r if step == i == 0 else m * state.baseline + (1.0 - m) * r
    return pre_baseline
