"""Reference implementations the tests check the library against.

* A minimal reverse-mode autodiff tape: ops record themselves on a ``Tape``
  in execution order and ``backward`` visits the records in exact reverse
  order, so gradient accumulation order is fixed. ``taped_train_step`` runs
  one super-model train step on it; the library's closed-form chain backward
  must give the same gradients bit for bit.
* ``finite_difference_check``: tape gradients against central differences.
* ``expected_reward_gradient_oracle``: the exact gradient of a controller's
  expected reward, by enumerating every selection.
* ``reference_sample``: one controller selection per call, one scalar uniform
  per decision and one softmax per decision, with its joint log-probability.
* ``logit_gradient``: not a reference, but the library's own update gradient
  (``controller._gradient``) by decision, for the tests that check it.
* ``ReferenceController`` and ``reference_reinforce_update``: the controller
  update as first written, on separate arrays, one decision at a time: the
  REINFORCE gradient accumulated per decision and sample, the entropy term
  per decision, and one ``reference_optimizer_step`` per decision. The
  library's table update must match it bit for bit.
* ``reference_beta`` and ``reference_mixup``: one scalar Beta draw from one
  open uniform, and mixup one batch at a time from the stream's counter, as
  the library's block draws must reproduce them.
* ``two_pass_softmax_cross_entropy`` and ``reference_optimizer_step``: the
  library's loss and optimizer update as first written, one fresh array per
  intermediate and a second ``exp`` for the softmax; the library's versions
  must match them bit for bit.
* ``split_stream``: an ``RngStream`` namespaced under another one.
* ``backward_grads``: ``numerics.backward`` written into new arrays, one per
  weight and bias key, each checked to be written.
* ``weights_digest``: the store digest of a super-model, or of no store.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from jointsearch import controller, numerics, supernet, trainstep
from jointsearch.config import SearchSection
from jointsearch.controller import ControllerState, probabilities, warmup_steps
from jointsearch.numerics import RngStream, softmax
from jointsearch.persist import store_digest
from jointsearch.space import OP_AFFINE_RELU, OP_AFFINE_TANH, validate_selection

MAX_ORACLE_SELECTIONS = 10**6


# ---------------------------------------------------------------------------
# autodiff tape
# ---------------------------------------------------------------------------


def as_tensor(values, shape: Sequence[int] | None = None) -> np.ndarray:
    """Coerce ``values`` to a float64 array, validating shape and finiteness."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if shape is not None:
        arr = arr.reshape(tuple(shape))
    if any(d <= 0 for d in arr.shape):
        raise ValueError(f"tensor dimensions must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    return arr


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "_parents", "_rule")

    def __init__(self, value: np.ndarray, parents: tuple = (), rule=None):
        self.value = value
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._rule = rule

    @property
    def shape(self) -> tuple:
        return self.value.shape


class Tape:
    """Records ops in execution order for a single backward sweep."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._leaves: list[Node] = []

    def leaf(self, values) -> Node:
        """Register a parameter tensor; ``backward`` reports a gradient for it."""
        node = Node(as_tensor(values))
        self._nodes.append(node)
        self._leaves.append(node)
        return node

    def constant(self, values) -> Node:
        """Register a tensor that participates in the graph but needs no gradient."""
        node = Node(as_tensor(values))
        self._nodes.append(node)
        return node

    def _record(self, value: np.ndarray, parents: tuple, rule) -> Node:
        node = Node(value, parents, rule)
        self._nodes.append(node)
        return node


def _accum(node: Node, delta: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += delta


def matmul(tape: Tape, a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.value.shape} @ {b.value.shape}"
        )
    out = a.value @ b.value

    def rule(g: np.ndarray) -> None:
        # d(a@b)/da = g @ b^T ; d(a@b)/db = a^T @ g
        _accum(a, g @ b.value.T)
        _accum(b, a.value.T @ g)

    return tape._record(out, (a, b), rule)


def add_bias(tape: Tape, x: Node, b: Node) -> Node:
    if b.value.ndim != 1 or x.value.ndim != 2 or x.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"add_bias shapes incompatible: {x.value.shape}, {b.value.shape}")
    out = x.value + b.value

    def rule(g: np.ndarray) -> None:
        _accum(x, g)
        _accum(b, g.sum(axis=0))

    return tape._record(out, (x, b), rule)


def add(tape: Tape, a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError("add expects equal shapes")
    out = a.value + b.value

    def rule(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return tape._record(out, (a, b), rule)


def mul(tape: Tape, a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ValueError("mul expects equal shapes")
    out = a.value * b.value

    def rule(g: np.ndarray) -> None:
        _accum(a, g * b.value)
        _accum(b, g * a.value)

    return tape._record(out, (a, b), rule)


def relu(tape: Tape, x: Node) -> Node:
    out = np.maximum(x.value, 0.0)

    def rule(g: np.ndarray) -> None:
        _accum(x, g * (x.value > 0.0))

    return tape._record(out, (x,), rule)


def tanh(tape: Tape, x: Node) -> Node:
    out = np.tanh(x.value)

    def rule(g: np.ndarray) -> None:
        _accum(x, g * (1.0 - out * out))

    return tape._record(out, (x,), rule)


def sum_all(tape: Tape, x: Node) -> Node:
    out = np.asarray(x.value.sum())

    def rule(g: np.ndarray) -> None:
        _accum(x, np.broadcast_to(g, x.value.shape).copy())

    return tape._record(out, (x,), rule)


def pad_cols(tape: Tape, x: Node, width: int) -> Node:
    """Zero-pad a 2-d tensor on the right up to ``width`` columns."""
    n, c = x.value.shape
    if width < c:
        raise ValueError(f"pad_cols target {width} narrower than input {c}")
    if width == c:
        return x
    out = np.zeros((n, width), dtype=np.float64)
    out[:, :c] = x.value

    def rule(g: np.ndarray) -> None:
        _accum(x, g[:, :c])

    return tape._record(out, (x,), rule)


def take_cols(tape: Tape, x: Node, width: int) -> Node:
    """Keep the first ``width`` columns of a 2-d tensor."""
    n, c = x.value.shape
    if width > c:
        raise ValueError(f"take_cols target {width} wider than input {c}")
    if width == c:
        return x
    out = x.value[:, :width].copy()

    def rule(g: np.ndarray) -> None:
        full = np.zeros((n, c), dtype=np.float64)
        full[:, :width] = g
        _accum(x, full)

    return tape._record(out, (x,), rule)


def dropout(tape: Tape, x: Node, keep_prob: float, rng: "RngStream") -> Node:
    """Inverted dropout: surviving entries are scaled by ``1/keep_prob``.

    ``keep_prob == 1`` is the exact identity and consumes no randomness.
    """
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x
    mask = (rng.uniform(x.value.shape) < keep_prob).astype(np.float64)
    scale = mask / keep_prob
    out = x.value * scale

    def rule(g: np.ndarray) -> None:
        _accum(x, g * scale)

    return tape._record(out, (x,), rule)


def softmax(values: np.ndarray) -> np.ndarray:
    """Row-stable softmax of a 1-d or 2-d array (plain helper, not taped)."""
    z = np.asarray(values, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(tape: Tape, logits: Node, labels: Node) -> Node:
    """Mean cross-entropy between row-softmax of ``logits`` and soft ``labels``."""
    z = logits.value
    y = labels.value
    if z.shape != y.shape or z.ndim != 2:
        raise ValueError(f"logit/label shapes incompatible: {z.shape}, {y.shape}")
    row_sums = y.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6) or np.any(y < 0.0):
        raise ValueError("label rows must be distributions summing to 1")
    n = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    # loss_i = logsumexp(z_i) - <y_i, z_i>  (valid for any distribution row y_i)
    out = np.asarray((lse - (y * z).sum(axis=1)).mean())
    p = softmax(z)

    def rule(g: np.ndarray) -> None:
        scale = float(g) / n
        _accum(logits, (p - y) * scale)
        _accum(labels, (lse[:, None] - z) * scale)

    return tape._record(out, (logits, labels), rule)


def backward(tape: Tape, loss: Node) -> dict[Node, np.ndarray]:
    """Reverse sweep from ``loss``; returns a gradient for every tape leaf.

    Leaves that do not reach ``loss`` get zero gradients. The sweep walks the
    recorded nodes in exact reverse execution order, which fixes the
    accumulation order and keeps results bitwise reproducible.
    """
    if loss.value.ndim != 0:
        raise ValueError(f"loss must be a scalar, got shape {loss.value.shape}")
    for node in tape._nodes:
        node.grad = None
    loss.grad = np.asarray(1.0)
    for node in reversed(tape._nodes):
        if node.grad is None or node._rule is None:
            continue
        node._rule(node.grad)
    return {
        leaf: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
        for leaf in tape._leaves
    }


def finite_difference_check(
    fn: Callable[[Tape, list[Node]], Node],
    params: Sequence[np.ndarray],
    eps: float = 1e-3,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn`` must build a scalar loss from fresh leaves on the given tape and be
    a pure function of the leaf values. Relative error uses the denominator
    ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    base = [as_tensor(p) for p in params]

    tape = Tape()
    leaves = [tape.leaf(p) for p in base]
    loss = fn(tape, leaves)
    grads = backward(tape, loss)

    def value_at(arrays: list[np.ndarray]) -> float:
        probe = Tape()
        probe_leaves = [probe.leaf(a) for a in arrays]
        return float(fn(probe, probe_leaves).value)

    worst = 0.0
    for k, p in enumerate(base):
        analytic = grads[leaves[k]]
        for idx in np.ndindex(p.shape):
            bumped = [a.copy() for a in base]
            bumped[k][idx] = p[idx] + eps
            hi = value_at(bumped)
            bumped[k][idx] = p[idx] - eps
            lo = value_at(bumped)
            numeric = (hi - lo) / (2.0 * eps)
            a = float(analytic[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def taped_forward(
    weights: supernet.SuperModelWeights,
    selection: Sequence[int],
    batch_x: np.ndarray,
    tape: Tape,
    *,
    overrides=None,
    dropout_keep: float = 1.0,
    rng: RngStream | None = None,
):
    """A train-mode super-model forward recorded on ``tape``: returns
    ``(logits_node, leaves)``, with ``leaves`` mapping each selected ParamKey
    to its tape leaf."""
    space = weights.space
    sel = validate_selection(space, selection)

    def param(key):
        if overrides is not None and key in overrides:
            return overrides[key]
        return weights.store[key]

    leaves = {}
    h_node = tape.constant(np.asarray(batch_x, dtype=np.float64))
    for decision, op_index in zip(space.arch_decisions, sel):
        op = decision.candidates[op_index]
        if op.has_params:
            wk = supernet.ParamKey(decision.layer_id, op_index, "weight")
            bk = supernet.ParamKey(decision.layer_id, op_index, "bias")
            leaves[wk] = w_node = tape.leaf(param(wk))
            leaves[bk] = b_node = tape.leaf(param(bk))
            z = add_bias(tape, matmul(tape, h_node, w_node), b_node)
            if op.kind == OP_AFFINE_RELU:
                z = relu(tape, z)
            elif op.kind == OP_AFFINE_TANH:
                z = tanh(tape, z)
        else:
            z = h_node
        if z.value.shape[1] < decision.out_width:
            z = pad_cols(tape, z, decision.out_width)
        elif z.value.shape[1] > decision.out_width:
            z = take_cols(tape, z, decision.out_width)
        if dropout_keep < 1.0:
            z = dropout(tape, z, dropout_keep, rng)
        h_node = z
    head_w = tape.constant(weights.head_weight)
    head_b = tape.constant(weights.head_bias)
    return add_bias(tape, matmul(tape, h_node, head_w), head_b), leaves


def taped_train_step(weights, view, params, spec, batch, slots, rng) -> dict:
    """One train step (mixup, taped forward, tape backward, optimizer) applied
    to the tensors in ``params``; returns the gradients by ParamKey."""
    x, y = reference_mixup(batch, spec.mixup_ratio, rng)
    tape = Tape()
    logits, leaves = taped_forward(
        weights,
        view.selection,
        x,
        tape,
        overrides=params,
        dropout_keep=spec.dropout_keep,
        rng=rng,
    )
    loss = softmax_cross_entropy(tape, logits, tape.constant(y))
    grads_by_node = backward(tape, loss)
    grads = {key: grads_by_node[node] for key, node in leaves.items()}
    trainstep.optimizer_step({key: params[key] for key in leaves}, grads, slots, spec)
    return grads


# ---------------------------------------------------------------------------
# controller and RNG
# ---------------------------------------------------------------------------


def expected_reward_gradient_oracle(
    state: ControllerState,
    reward_fn: Callable[[tuple[int, ...]], float],
) -> list[np.ndarray]:
    """Exact gradient of expected reward w.r.t. the logits, by enumeration.

    Ascent direction: entry ``(d, j)`` is
    ``sum_sel P(sel) r(sel) (1[sel_d = j] - p_d[j])``. Only usable on spaces
    small enough to enumerate.
    """
    cards = [len(z) for z in state.logits]
    total = 1
    for c in cards:
        total *= c
    if total > MAX_ORACLE_SELECTIONS:
        raise ValueError(f"space too large to enumerate: {total} selections")
    probs = probabilities(state)
    grads = [np.zeros_like(z) for z in state.logits]
    for selection in itertools.product(*(range(c) for c in cards)):
        p_sel = 1.0
        for d, idx in enumerate(selection):
            p_sel *= float(probs[d][idx])
        weighted = p_sel * float(reward_fn(selection))
        for d, idx in enumerate(selection):
            grads[d] -= weighted * probs[d]
            grads[d][idx] += weighted
    return grads


def reference_sample(state: ControllerState, rng) -> tuple[tuple[int, ...], float]:
    """One selection and its joint log-probability, by inverse CDF: decision
    ``d`` takes the ``d``-th scalar uniform of the call and picks the first
    index whose cumulative probability exceeds it."""
    selection = []
    log_prob = 0.0
    for probs in map(numerics.softmax, state.logits):
        u = rng.uniform()
        cdf = np.cumsum(probs)
        idx = min(int(np.searchsorted(cdf, u, side="right")), len(probs) - 1)
        selection.append(idx)
        log_prob += math.log(probs[idx])
    return tuple(selection), log_prob


def logit_gradient(state: ControllerState, samples, baseline: float) -> list[np.ndarray]:
    """The descent-direction logit gradient ``controller.reinforce_update``
    steps with (before its entropy term), by decision: ``controller._gradient``
    of the checked ``samples``."""
    cells = controller._check_selections(state, samples)
    table = controller._prob_table(state)
    grad = controller._gradient(table, cells, [reward for _, reward in samples], baseline)
    return [g[: len(z)] for g, z in zip(grad, state.logits)]


@dataclass
class ReferenceController:
    """A controller's logits by decision, each its own array, its baseline
    and its Adam slots by ``("adam", decision)``."""

    logits: list[np.ndarray]
    baseline: float = 0.0
    slots: dict = field(default_factory=dict)

    def probabilities(self) -> list[np.ndarray]:
        return [numerics.softmax(z) for z in self.logits]


def reference_reinforce_update(
    ref: ReferenceController,
    samples: Sequence[tuple[Sequence[int], float]],
    search: SearchSection,
    step: int,
) -> float:
    """``controller.reinforce_update`` one decision at a time; returns the
    baseline its advantages used."""
    pre_baseline = ref.baseline if step > 0 else float(samples[0][1])
    if step >= warmup_steps(search):
        probs = ref.probabilities()
        grads = [np.zeros_like(z) for z in ref.logits]
        for selection, reward in samples:
            advantage = reward - pre_baseline
            for d, idx in enumerate(selection):
                grads[d] += advantage * probs[d]
                grads[d][idx] -= advantage
        for g in grads:
            g /= len(samples)
        if search.entropy_weight != 0.0:
            for g, p in zip(grads, probs):
                log_p = np.log(np.where(p > 0.0, p, 1.0))
                h = -float(np.dot(p, log_p))
                g += search.entropy_weight * p * (log_p + h)
        spec = trainstep.TrainerSpec(optimizer="adam", learning_rate=search.meta_lr)
        for d, (z, g) in enumerate(zip(ref.logits, grads)):
            reference_optimizer_step({d: z}, {d: g}, ref.slots, spec)
    m = search.baseline_momentum
    for i, (_, reward) in enumerate(samples):
        r = float(reward)
        ref.baseline = r if step == i == 0 else m * ref.baseline + (1.0 - m) * r
    return pre_baseline


def reference_beta(rng: RngStream, a: float) -> float:
    """One Beta(a, a) draw: the library's quantile kernel called on the
    stream's next open uniform alone, one word."""
    return float(numerics._beta_quantile(a, rng._open_uniform(1))[0])


def reference_mixup(batch, ratio: float, rng: RngStream):
    """Mixup of one batch from the stream's counter: a Beta(ratio, ratio)
    weight, then a partner permutation; ``ratio == 0`` draws nothing."""
    x, y = batch
    if ratio == 0.0:
        return x, y
    lam = reference_beta(rng, ratio)
    partner = rng.permutation(x.shape[0])
    return lam * x + (1.0 - lam) * x[partner], lam * y + (1.0 - lam) * y[partner]


def two_pass_softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss and logit gradient, with the softmax taken by a second pass."""
    z = logits
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape or z.ndim != 2:
        raise ValueError(f"logit/label shapes incompatible: {z.shape}, {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("labels must be finite")
    row_sums = y.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6) or np.any(y < 0.0):
        raise ValueError("label rows must be distributions summing to 1")
    n = max(z.shape[0], 1)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = float((lse - (y * z).sum(axis=1)).mean())
    return loss, (softmax(z) - y) * (1.0 / n)


def reference_optimizer_step(params: dict, grads, slots, spec) -> None:
    """The optimizer update with a fresh array for every intermediate."""
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
            buf = slots.setdefault(("momentum", key), trainstep.fresh_slot("momentum", p))["buf"]
            buf *= trainstep.MOMENTUM
            buf += g
            p -= lr * buf
        elif spec.optimizer == "adam":
            slot = slots.setdefault(("adam", key), trainstep.fresh_slot("adam", p))
            slot["step"] += 1
            t = slot["step"]
            m, v = slot["m"], slot["v"]
            m *= trainstep.ADAM_BETA1
            m += (1.0 - trainstep.ADAM_BETA1) * g
            v *= trainstep.ADAM_BETA2
            v += (1.0 - trainstep.ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - trainstep.ADAM_BETA1**t)
            v_hat = v / (1.0 - trainstep.ADAM_BETA2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + trainstep.ADAM_EPS)
        else:  # rmsprop
            sq = slots.setdefault(("rmsprop", key), trainstep.fresh_slot("rmsprop", p))["sq"]
            sq *= trainstep.RMSPROP_RHO
            sq += (1.0 - trainstep.RMSPROP_RHO) * (g * g)
            p -= lr * g / (np.sqrt(sq) + trainstep.RMSPROP_EPS)


def backward_grads(layers, head_weight, grad_logits) -> dict:
    """The gradients ``numerics.backward`` writes into NaN-filled arrays, one
    per weight and bias key of ``layers``; an array it leaves unwritten fails."""
    out = {}
    for layer in layers:
        if layer.keys:
            out[layer.keys[0]] = np.full(layer.weight.shape, np.nan)
            out[layer.keys[1]] = np.full(layer.weight.shape[1], np.nan)
    numerics.backward(layers, head_weight, grad_logits, out)
    assert not any(np.isnan(g).any() for g in out.values()), "a gradient was left unwritten"
    return out


def split_stream(stream: RngStream, parent: str, name: str) -> RngStream:
    """An independent stream namespaced under ``stream``, whose name is
    ``parent``."""
    return RngStream(stream.seed, f"{parent}/{name}")


def weights_digest(weights) -> str:
    """``store_digest`` of the weights' store; an empty store for ``None``."""
    return store_digest(weights.store if weights is not None else {})
