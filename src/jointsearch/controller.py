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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import SearchSection
from .numerics import RngStream, softmax
from .space import SearchSpace
from .trainstep import SlotStore, TrainerSpec, optimizer_step


@dataclass
class ControllerState:
    logits: list[np.ndarray]
    baseline: float = 0.0
    slots: SlotStore = field(default_factory=SlotStore)


def init_controller(space: SearchSpace) -> ControllerState:
    """Zero logits for every decision: the uniform joint distribution."""
    return ControllerState(
        logits=[np.zeros(card) for card in space.cardinalities()]
    )


def probabilities(state: ControllerState) -> list[np.ndarray]:
    return [softmax(z) for z in state.logits]


def sample(state: ControllerState, rng: RngStream, k: int) -> list[tuple[int, ...]]:
    """Draw the ``k`` selections of one phase.

    The phase takes one ``k x n_decisions`` block of uniforms; selection ``i``
    reads row ``i`` in decision order and, per decision, picks the first index
    whose cumulative probability exceeds its draw. The stream is counter-based,
    so the block holds the same words, in the same order, as ``k`` successive
    draws of one row each.
    """
    u = rng.uniform((k, len(state.logits)))
    chosen = np.empty(u.shape, dtype=np.int64)
    for d, probs in enumerate(probabilities(state)):
        idx = np.searchsorted(np.cumsum(probs), u[:, d], side="right")
        chosen[:, d] = np.minimum(idx, len(probs) - 1)
    return list(map(tuple, chosen.tolist()))


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
    probs = probabilities(state)
    grads = [np.zeros_like(z) for z in state.logits]
    k = len(samples)
    if k == 0:
        raise ValueError("need at least one sample")
    for selection, reward in samples:
        if not np.isfinite(reward):
            raise ValueError("reward must be finite")
        advantage = reward - baseline
        for d, idx in enumerate(selection):
            grads[d] += advantage * probs[d]
            grads[d][idx] -= advantage
    for g in grads:
        g /= k
    return grads


def _entropy_gradient(probs: list[np.ndarray], weight: float) -> list[np.ndarray]:
    # Descent gradient of -weight * H(p) w.r.t. logits: weight * p * (log p + H).
    # A p that underflowed to 0 takes log 1 in place of -inf: 0 log 0 = 0, not nan.
    out = []
    for p in probs:
        log_p = np.log(np.where(p > 0.0, p, 1.0))
        h = -float(np.dot(p, log_p))
        out.append(weight * p * (log_p + h))
    return out


def warmup_steps(search: SearchSection) -> int:
    """The number of meta-steps, from the first, that leave the logits
    untouched: ``ceil(warmup_fraction * total_meta_steps)``."""
    return math.ceil(search.warmup_fraction * search.total_meta_steps)


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
    ``warmup_steps(search)``) the logits and their Adam slots
    are left bitwise unchanged while the baseline still tracks every reward.
    """
    if not samples:
        raise ValueError("reinforce_update needs at least one sample")
    for selection, _ in samples:
        if len(selection) != len(state.logits):
            raise ValueError("selection length does not match decision count")
    pre_baseline = state.baseline if step > 0 else float(samples[0][1])

    if step >= warmup_steps(search):
        grads = reinforce_logit_gradient(state, samples, pre_baseline)
        if search.entropy_weight != 0.0:
            for g, e in zip(grads, _entropy_gradient(probabilities(state), search.entropy_weight)):
                g += e
        params = {d: z for d, z in enumerate(state.logits)}
        grad_map = {d: g for d, g in enumerate(grads)}
        optimizer_step(
            params,
            grad_map,
            state.slots,
            TrainerSpec(optimizer="adam", learning_rate=search.meta_lr),
        )

    m = search.baseline_momentum
    for i, (_, reward) in enumerate(samples):
        r = float(reward)
        if not np.isfinite(r):
            raise ValueError("reward must be finite")
        # The first reward of step 0 starts the moving average.
        state.baseline = r if step == i == 0 else m * state.baseline + (1.0 - m) * r
    return pre_baseline
