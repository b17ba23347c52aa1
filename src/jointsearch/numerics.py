"""Dense float64 tensors, a minimal reverse-mode tape, and a deterministic RNG.

Everything in this module is deliberately small and deterministic. Ops record
themselves on a ``Tape`` in execution order and the backward sweep visits the
records in exact reverse order, so gradient accumulation order is fixed and
repeated runs produce bitwise-identical gradients. ``RngStream`` is a named,
counter-based generator: output ``i`` is a pure function of
``(seed, name, i)``, which makes every draw reproducible and lets a checkpoint
capture the stream state as a single integer.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "Tape",
    "EvalTape",
    "Node",
    "RngStream",
    "as_tensor",
    "fnv1a64",
    "matmul",
    "add_bias",
    "add",
    "mul",
    "relu",
    "tanh",
    "sum_all",
    "pad_cols",
    "take_cols",
    "dropout",
    "softmax",
    "softmax_cross_entropy",
    "backward",
    "finite_difference_check",
]

_MASK64 = (1 << 64) - 1

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


class EvalTape(Tape):
    """A tape that records nothing: ops compute their values only.

    Tensors are taken as given (no copy, no finiteness check) and no node
    keeps its parents or gradient rule, so intermediates are freed as soon as
    the pass moves on. ``backward`` on this tape has no leaves to report.
    """

    def leaf(self, values) -> Node:
        return Node(values)

    constant = leaf

    def _record(self, value: np.ndarray, parents: tuple, rule) -> Node:
        return Node(value)


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


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes | str, state: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash, optionally continuing from a previous state."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = state
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer over uint64 arrays; multiplications wrap mod 2^64.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Named, counter-based pseudo-random stream.

    Output ``i`` of a stream is ``mix(key + (i+1) * golden)`` where ``key``
    mixes the seed with an FNV-1a hash of the name. The same
    ``(seed, name, counter)`` triple therefore yields the same value on every
    platform, distinct names give independent streams, and checkpointing a
    stream only requires storing its counter.
    """

    def __init__(self, seed: int, name: str = "", counter: int = 0):
        if counter < 0:
            raise ValueError("counter must be non-negative")
        self.seed = int(seed) & _MASK64
        self.name = name
        self.counter = int(counter)
        key = np.array([(self.seed ^ fnv1a64(name)) & _MASK64], dtype=np.uint64)
        with np.errstate(over="ignore"):
            self._key = int(_mix64(key)[0])

    def split(self, name: str) -> "RngStream":
        """Derive an independent stream namespaced under this one."""
        return RngStream(self.seed, f"{self.name}/{name}")

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            state = np.uint64(self._key) + idx * np.uint64(_GOLDEN)
            return _mix64(state)

    def uniform(self, shape=None):
        """Uniform draws in [0, 1); scalar when ``shape`` is None."""
        if shape is None:
            return float((self._raw(1)[0] >> np.uint64(11)) * 2.0**-53)
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def _open_uniform(self, n: int) -> np.ndarray:
        # (0, 1) exclusive, for inverse-CDF transforms.
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def normal(self, shape=None):
        """Standard normal draws via the inverse CDF."""
        if shape is None:
            return float(special.ndtri(self._open_uniform(1)[0]))
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        return special.ndtri(self._open_uniform(n)).reshape(shape)

    def beta(self, a: float, b: float) -> float:
        """One Beta(a, b) draw via the inverse regularized incomplete beta."""
        if a <= 0.0 or b <= 0.0:
            raise ValueError("beta shape parameters must be positive")
        return float(special.betaincinv(a, b, self._open_uniform(1)[0]))

    def index(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return min(int(self.uniform() * upper), upper - 1)

    def sample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        # Draw i is ``index(n - i)``; the stream is counter-based, so one block
        # of k uniforms gives the same words and leaves the same counter.
        positions = np.arange(k, dtype=np.int64)
        upper = n - positions
        targets = positions + np.minimum((self.uniform(k) * upper).astype(np.int64), upper - 1)
        pool = list(range(n))
        for i, j in enumerate(targets.tolist()):
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:k], dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self.sample_indices(n, n)
