"""REINFORCE controller over the joint search space.

The controller keeps one logit vector per decision and treats the joint
distribution as a product of independent softmaxes. Sampling draws a whole
phase (all K selections) at once from one block of uniforms, each index by
inverse CDF. Updates take a single Adam step on the logits using
reward-minus-baseline advantages averaged over the step's sampled pairs. The
baseline is a scalar moving average of observed rewards, initialized to the
first reward of meta-step 0. During a warm-up window at the start of a run
the logits are left untouched (so sampling stays at its uniform
initialization) while the baseline keeps tracking rewards. The state holds
what the controller has learned and the probabilities of its logits; the
meta-step, which says whether warm-up is over, whether a baseline exists and
how many Adam steps the logits have taken, is passed to each update.

The logits, their probabilities and Adam moments are zero-padded tables, one
row per decision, as wide as the largest cardinality. The probability table
is computed on first use, one softmax per distinct cardinality (one in all
when the widths agree), and kept until ``optimizer_step``, the one writer of
the read-only logit rows, drops it. A phase runs one cumulative sum along the
rows, checks the selections in Python, accumulates the K gradients through
flat cell indices and takes one Adam step on scratch the state owns, where a
padding cell's zero gradient leaves its zero moments and logit unchanged.
Each gives the per-decision result bit for bit: numpy reduces each row of a
C-contiguous table as that row alone, a cumulative sum runs in order, and
the entropy's dot product stays per row.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import SearchSection
from .numerics import RngStream, softmax
from .space import SearchSpace
from .trainstep import TrainerSpec, _update


@dataclass
class ControllerState:
    """What the controller has learned: ``logits`` by decision, the
    ``baseline`` and the Adam moments ``m`` and ``v`` by decision (zero when
    not given). Building one packs each into a padded table, each row then a
    view of its table, read-only for the logits (build a new state to change
    them); ``ValueError`` names the field unless the logits are vectors and
    ``m`` and ``v`` one row per decision of the logits' lengths. Adam's step
    count is not state: each update sets it from the meta-step."""

    logits: list[np.ndarray]
    baseline: float = 0.0
    m: list[np.ndarray] | None = None
    v: list[np.ndarray] | None = None

    def __post_init__(self):
        if any(np.ndim(z) != 1 for z in self.logits):
            raise ValueError("ControllerState logits are not one vector per decision")
        cards = self._cards = tuple(len(z) for z in self.logits)
        self._table, m, v = tables = np.zeros((3, len(cards), max(cards, default=0)))
        for name, table in zip(("logits", "m", "v"), tables):
            rows = getattr(self, name)
            if rows is not None:
                if len(rows) != len(cards) or any(np.shape(r) != (c,) for r, c in zip(rows, cards)):
                    what = f"not one row per decision of lengths {list(cards)}"
                    raise ValueError(f"ControllerState {name} is {what}")
                for row, r, c in zip(table, rows, cards):
                    row[:c] = r
            setattr(self, name, [row[:c] for row, c in zip(table, cards)])
        for row in self.logits:
            row.flags.writeable = False
        self._probs = None  # the probability table, once ``_prob_table`` computes it
        self._slot = {"step": 0, "m": m, "v": v}  # the table's Adam slot
        self._scratch = np.empty_like(tables[1:])  # ``optimizer_step``'s two scratch tables
        self._offsets = m.shape[1] * np.arange(len(cards))  # each row's first flat cell
        self._last = np.array(cards, dtype=np.int64) - 1
        self._groups = [(c, np.flatnonzero(self._last == c - 1)) for c in sorted(set(cards))]


def init_controller(space: SearchSpace) -> ControllerState:
    """Zero logits for every decision: the uniform joint distribution."""
    return ControllerState([np.zeros(card) for card in space.cardinalities()])


def _prob_table(state: ControllerState) -> np.ndarray:
    """The state's read-only probability table, computed once per logit
    change: one ``softmax`` per distinct cardinality."""
    if state._probs is None:
        if len(state._groups) == 1:  # one cardinality, so no padding
            table = softmax(state._table)
        else:
            table = np.zeros_like(state._table)
            for card, rows in state._groups:
                table[rows, :card] = softmax(state._table[rows, :card])
        table.flags.writeable = False
        state._probs = table
    return state._probs


def probabilities(state: ControllerState) -> list[np.ndarray]:
    """Each decision's softmax, a read-only row view of the state's table."""
    return [row[:card] for row, card in zip(_prob_table(state), state._cards)]


def sample(state: ControllerState, rng: RngStream, k: int) -> list[tuple[int, ...]]:
    """Draw the ``k`` selections of one phase.

    The phase takes one ``k x n_decisions`` block of uniforms; selection ``i``
    reads row ``i`` in decision order and, per decision, picks the first index
    whose cumulative probability exceeds its draw, or the last index when none
    does. The stream is counter-based, so the block holds the same words, in
    the same order, as ``k`` successive draws of one row each.
    """
    u = rng.uniform((k, len(state._cards)))
    cdf = np.cumsum(_prob_table(state), axis=1)
    # The count of CDF entries <= u is ``searchsorted(side="right")``; the
    # padding cells repeat the row's total, so past it the count is clipped.
    picks = np.minimum((cdf <= u[:, :, None]).sum(axis=2), state._last)
    return list(map(tuple, picks.tolist()))


def _check_selections(state: ControllerState, samples) -> np.ndarray:
    """The flat table cell each selection of ``samples`` picks per decision,
    ``K x n_decisions``. ``ValueError`` unless each holds one integer index per
    decision in ``[0, cardinality)``: a padded table takes others silently."""
    cards = state._cards
    selections = [selection for selection, _ in samples]
    if any(len(selection) != len(cards) for selection in selections):
        raise ValueError("selection length does not match decision count")
    for selection in selections:
        for d, (j, card) in enumerate(zip(selection, cards)):
            if not (isinstance(j, (int, np.integer)) and 0 <= j < card):
                what = f"not an index in [0, {card})"
                raise ValueError(f"selection picks {j} for decision {d}, {what}")
    return np.array(selections, dtype=np.int64) + state._offsets


def _gradient(
    table: np.ndarray, cells: np.ndarray, rewards: Sequence[float], baseline: float
) -> np.ndarray:
    """The descent-direction logit gradient, a padded table, from the padded
    probability ``table`` and the ``rewards`` of the selections whose cells
    ``_check_selections`` gives: for decision d, ``-(1/K) sum_i a_i
    (onehot(sel_i[d]) - p_d)``, advantage ``a_i = r_i - baseline``."""
    grad = np.zeros_like(table)
    flat = grad.reshape(-1)
    for row, reward in zip(cells, rewards):
        advantage = reward - baseline
        grad += advantage * table
        flat[row] -= advantage
    grad /= len(rewards)
    return grad


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


def optimizer_step(
    state: ControllerState, grad: np.ndarray, learning_rate: float, done: int
) -> None:
    """Adam step ``done + 1`` of the logit table from its gradient table,
    after ``done`` updates, which drops the state's probability table; a
    non-finite gradient is refused, by decision, before any write."""
    if not np.isfinite(grad).all():
        bad = next(d for d, g in enumerate(grad) if not np.isfinite(g).all())
        raise ValueError(f"non-finite gradient for {bad}")
    state._slot["step"] = done
    _update(state._table, grad, state._slot, _adam(learning_rate), *state._scratch)
    state._probs = None


def reinforce_update(
    state: ControllerState,
    samples: Sequence[tuple[Sequence[int], float]],
    search: SearchSection,
    step: int,
) -> float:
    """Meta-step ``step``: Adam on the logits, then the baseline moving average.

    Advantages use the baseline as of the start of the call, which is
    returned; at step 0 no reward has been observed yet, so the first
    sample's reward stands in, which keeps the first update free of a
    start-up advantage spike. Inside the warm-up window (steps below
    ``warmup_steps(search)``) the logits and their Adam moments
    are left bitwise unchanged while the baseline still tracks every reward.
    A bad selection or a non-finite reward is refused before any write.
    """
    if not samples:
        raise ValueError("reinforce_update needs at least one sample")
    cells = _check_selections(state, samples)
    rewards = [float(reward) for _, reward in samples]
    if not all(map(math.isfinite, rewards)):
        raise ValueError("reward must be finite")
    pre_baseline = state.baseline if step > 0 else rewards[0]

    warmup = warmup_steps(search)
    if step >= warmup:
        table = _prob_table(state)
        grad = _gradient(table, cells, rewards, pre_baseline)
        if search.entropy_weight != 0.0:
            grad += _entropy_gradient(table, state._cards, search.entropy_weight)
        optimizer_step(state, grad, search.meta_lr, step - warmup)

    m = search.baseline_momentum
    for i, r in enumerate(rewards):
        # The first reward of step 0 starts the moving average.
        state.baseline = r if step == i == 0 else m * state.baseline + (1.0 - m) * r
    return pre_baseline
