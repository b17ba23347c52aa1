"""Dense float64 helpers: the closed-form backward of the super-model's
train step, softmax cross-entropy, and a deterministic RNG.

A train-mode ``supernet.forward`` keeps, per layer, the values the chain rule
needs (the layer input, the weight, the activation output and the dropout
scale); ``backward`` walks those layers in reverse with the hand-written
gradient of each step: affine, relu or tanh, pad or truncate, dropout and the
fixed head. The expressions and their order are fixed, so repeated runs give
bitwise-identical gradients. ``RngStream`` is a named, counter-based
generator: output ``i`` is a pure function of ``(seed, name, i)``, which makes
every draw reproducible and lets a checkpoint capture the stream state as a
single integer. Its normal draws use ``_ndtri``, a numpy port of Cephes
``ndtri`` (the inverse normal CDF) that returns exactly what
``scipy.special.ndtri`` does. The port must take every logarithm with
``math.log``, the C library's ``log`` that Cephes calls: numpy's own ``log``
differs from it by an ulp on some inputs. Its Beta(a, a) draws for mixup use
``_beta_quantile``, a numpy inverse of the regularized incomplete beta for a in
(0, 1]. The module needs numpy alone.
"""
from __future__ import annotations

import functools
import math
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Layer",
    "RngStream",
    "fnv1a64",
    "check_labels",
    "softmax",
    "cross_entropy_loss",
    "cross_entropy_gradient",
    "backward",
]

_MASK64 = (1 << 64) - 1


class Layer(NamedTuple):
    """One layer of a train-mode forward, as ``backward`` needs it.

    The layer computes ``out = activation(inputs @ weight + bias)`` (``out`` is
    ``inputs`` for an op without parameters), pads or truncates ``out`` to the
    layer's width, and multiplies by the dropout ``scale``.
    """

    keys: tuple[Hashable, ...]  # (weight key, bias key); empty for an op without parameters
    inputs: np.ndarray
    weight: np.ndarray | None
    activation: str | None  # "relu" | "tanh" | None
    out: np.ndarray
    scale: np.ndarray | None  # None when dropout keeps every entry


def softmax(values: np.ndarray) -> np.ndarray:
    """Row-stable softmax of a 1-d or 2-d array."""
    z = np.asarray(values, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def check_labels(labels, shape: tuple[int, ...]) -> np.ndarray:
    """``labels`` as a float64 array, checked against logits of ``shape``.

    Raises ``ValueError`` unless the labels are 2-d, match ``shape`` and
    every row is a finite distribution.
    """
    y = np.asarray(labels, dtype=np.float64)
    if shape != y.shape or len(shape) != 2:
        raise ValueError(f"logit/label shapes incompatible: {shape}, {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("labels must be finite")
    row_sums = y.sum(axis=1)
    if (np.abs(row_sums - 1.0) > 1e-6).any() or (y < 0.0).any():
        raise ValueError("label rows must be distributions summing to 1")
    return y


def cross_entropy_loss(logits: np.ndarray, labels) -> float:
    """Mean cross-entropy between row-softmax of ``logits`` and soft ``labels``.

    Raises ``ValueError`` unless every label row is a finite distribution.
    """
    z = logits
    y = check_labels(labels, z.shape)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    # loss_i = logsumexp(z_i) - <y_i, z_i>  (valid for any distribution row y_i)
    return float((lse - (y * z).sum(axis=1)).mean())


def cross_entropy_gradient(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of ``cross_entropy_loss`` with respect to ``logits``,
    ``(softmax - y) / rows``, without the label checks: ``y`` must be labels
    ``check_labels`` passed."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    e -= y
    e *= 1.0 / max(e.shape[0], 1)
    return e


def backward(
    layers: list[Layer],
    head_weight: np.ndarray,
    grad_logits: np.ndarray,
    out: Mapping[Hashable, np.ndarray],
) -> None:
    """Write the gradient of every layer's weight and bias into ``out``'s
    array for its key, given the loss gradient with respect to the logits.

    The chain runs from the fixed head down through the layers in reverse.
    Each weight and bias gradient gets ``+ 0.0``, which turns ``-0.0`` into
    ``0.0`` exactly as accumulating into a zero buffer would. Zeros along the
    chain may carry either sign: that changes no non-zero value, so nothing
    that survives the normalisation. The input batch, the head and the labels
    get no gradient.
    """
    g = grad_logits @ head_weight.T
    for i in range(len(layers) - 1, -1, -1):
        keys, inputs, weight, activation, layer_out, scale = layers[i]
        # Every g is an array made here, so it is updated in place.
        if scale is not None:
            g *= scale
        width = layer_out.shape[1]
        if g.shape[1] > width:  # padded: the zero columns lead nowhere
            g = g[:, :width] + 0.0
        elif g.shape[1] < width:  # truncated: the dropped columns get zero
            full = np.zeros((g.shape[0], width), dtype=np.float64)
            full[:, : g.shape[1]] = g
            g = full
        if activation == "relu":
            g *= layer_out > 0.0
        elif activation == "tanh":
            slope = layer_out * layer_out
            np.subtract(1.0, slope, out=slope)
            g *= slope
        if keys:
            bias_grad = np.sum(g, axis=0, out=out[keys[1]])
            bias_grad += 0.0
            weight_grad = np.matmul(inputs.T, g, out=out[keys[0]])
            weight_grad += 0.0
            if i:
                g = g @ weight.T


# ---------------------------------------------------------------------------
# Deterministic RNG
# ---------------------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# The same constants as uint64 scalars, so no draw converts them. Arithmetic
# on uint64 arrays wraps mod 2^64 without a warning.
_GOLDEN_U64, _MIX_A_U64, _MIX_B_U64 = np.uint64(_GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)
_U30, _U27, _U31, _U11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)


def _mix64(z: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer over a uint64 array, in place.
    z ^= z >> _U30
    z *= _MIX_A_U64
    z ^= z >> _U27
    z *= _MIX_B_U64
    z ^= z >> _U31
    return z


def _mix64_int(z: int) -> int:
    # The same finalizer on one Python integer, masked to 64 bits.
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _is_int(x) -> bool:  # a Python or numpy integer; a bool is not one
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dims(shape) -> tuple[tuple[int, ...], int]:
    # ``shape`` as a tuple (an int is one dimension) and its size as a Python
    # int, so a stream's counter stays one; ``()`` is one draw. ``ValueError``,
    # before any word is drawn, unless each dimension is a non-negative integer
    # (a bool is not one).
    try:
        dims = (shape,) if isinstance(shape, int) else tuple(shape)
    except TypeError:
        dims = (shape,)
    for d in dims:
        if not _is_int(d) or d < 0:
            raise ValueError(f"shape {shape!r} has a dimension that is not a non-negative integer")
    return dims, int(math.prod(dims))


# Cephes ``ndtri`` (Moshier), the inverse of the standard normal CDF, as scipy
# runs it: the same branches, coefficients and Horner order, so each result is
# bit-identical. Below, ``_P0``/``_Q0`` serve |y - 0.5| <= 0.5 - exp(-2); the
# tails use z = sqrt(-2 log y), with ``_P1``/``_Q1`` for z < 8 (y > exp(-32))
# and ``_P2``/``_Q2`` beyond. Each ``_Q`` omits its leading coefficient 1.
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    # Horner's rule from the leading coefficient, as Cephes ``polevl``.
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    # As ``_polevl`` with an implied leading coefficient 1 (Cephes ``p1evl``).
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(x: np.ndarray) -> np.ndarray:
    # The C library's log, which Cephes calls; numpy's own (SIMD) log differs
    # from it by an ulp on some inputs, and that would change the draws.
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of each entry of the 1-d array ``y0`` in
    [0, 1], bit for bit the Cephes ``ndtri`` that ``scipy.special.ndtri``
    runs (0 and 1 give -inf and inf)."""
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    out = np.empty_like(y)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    out[centre] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _SQRT_2PI
    edge = y == 0.0
    out[edge] = np.where(upper[edge], np.inf, -np.inf)
    tail = ~(centre | edge)
    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    return out


# Beta(a, a) quantiles for a in (0, 1]. For x <= 1/2 the regularized
# incomplete beta is I_x(a, a) = x^a S(x) / (a B(a, a)), where
# S(x) = 2F1(a, 1 - a; a + 1; x) = sum_n c_n x^n with c_0 = 1 and
# c_n / c_(n-1) = (a + n - 1) / (a + n) * (n - a) / n. So the q-quantile,
# q <= 1/2, is x = w g(w) with w = (q a B(a, a))^(1/a) and g = S(x)^(-1/a).
# On [0, w(1/2)] g is smooth: 1 / (1 + w) as a -> 0, 1 at a = 1. ``_beta_fit``
# interpolates it once per a by a Chebyshev series in w; a draw then costs
# one power, one arccos and one cos per term, with no iteration.
_SERIES_TERMS = 50  # c_n 2^-n < 1e-17: S(1/2) to full precision
_CHEB_DEGREE = 24  # for a from 1e-300 to 1 the terms past 24 are below 3e-17
_TERM = np.arange(1, _SERIES_TERMS + 1, dtype=np.float64)
_CHEB_ORDER = np.arange(_CHEB_DEGREE + 1, dtype=np.float64)


def _chebyshev(tau: np.ndarray) -> np.ndarray:
    # T_k(tau), k = 0.._CHEB_DEGREE, one row per entry of tau in [-1, 1].
    return np.cos(np.arccos(tau)[:, None] * _CHEB_ORDER)


@functools.lru_cache(maxsize=64)
def _beta_fit(a: float) -> tuple[float, float, np.ndarray]:
    """``a B(a, a)``, the factor taking ``w`` to ``[0, 2]`` and the Chebyshev
    coefficients of ``g`` for Beta(a, a), 0 < a < 1."""
    # Nodes at Chebyshev-Lobatto points of v = x / (1 - b x), whose inverse
    # x = v / (1 + b v) is the exact quantile map as a -> 0 and at a = 1 and
    # within 3% between, so each node's true w lies close to a Chebyshev
    # point of [0, w(1/2)] and interpolating there is well conditioned.
    b = (1.0 - a) / (1.0 + a)
    v = (0.25 / (1.0 - 0.5 * b)) * (1.0 - np.cos(np.pi / _CHEB_DEGREE * _CHEB_ORDER))
    x = v / (1.0 + b * v)
    x[-1] = 0.5
    ratios = (a + _TERM - 1.0) / (a + _TERM) * (_TERM - a) / _TERM
    s = np.multiply.accumulate(np.multiply.outer(x, ratios), axis=1).sum(axis=1)  # S - 1
    g = np.exp(np.log1p(s) / -a)
    w = x / g
    scale = 2.0 / w[-1]
    coef = np.linalg.solve(_chebyshev(np.minimum(w * scale - 1.0, 1.0)), g)
    coef.flags.writeable = False
    return 2.0 * math.gamma(1.0 + a) ** 2 / math.gamma(1.0 + 2.0 * a), scale, coef


def _beta_quantile(a: float, u: np.ndarray) -> np.ndarray:
    """The ``u``-quantile of Beta(a, a), 0 < a <= 1, for each entry of the
    1-d array ``u`` in [0, 1]: the inverse of the regularized incomplete beta.

    Each entry is a function of its own ``u`` alone, so one call on many
    entries equals one call per entry bit for bit. ``a == 1`` returns ``u``;
    ``u > 1/2`` is reflected, so the quantiles of ``u`` and ``1 - u`` sum to
    1, and ``u = 1/2`` gives 1/2. The result is within about ``1e-14 / a`` of
    the exact quantile relative to ``min(x, 1 - x)``, plus the rounding of
    ``1 - x``; where ``(q a B(a, a))^(1/a)`` underflows it is 0 (or 1). The
    last bits may differ between CPUs, as numpy picks its ``power``,
    ``arccos`` and ``cos`` kernels by the instruction set.
    """
    if a == 1.0:
        return u.copy()
    ab, scale, coef = _beta_fit(a)
    q = np.minimum(u, 1.0 - u)
    w = np.power(q * ab, 1.0 / a)
    tau = np.minimum(w * scale - 1.0, 1.0)
    x = np.minimum(w * (_chebyshev(tau) * coef).sum(axis=1), 0.5)
    x[q == 0.5] = 0.5
    return np.where(u > 0.5, 1.0 - x, x)


def _unit(words: np.ndarray) -> np.ndarray:
    # Uniforms in [0, 1) from the top 53 bits of each word.
    words >>= _U11
    return words.astype(np.float64) * 2.0**-53


def _open_unit(words: np.ndarray) -> np.ndarray:
    # (0, 1) exclusive, for inverse-CDF transforms. The top word's half step
    # rounds up to 1.0, so it alone is pulled back below 1.
    words >>= _U11
    u = (words.astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def _targets(u: np.ndarray, positions: np.ndarray, upper: np.ndarray) -> np.ndarray:
    # Partial Fisher-Yates: entry ``i`` swaps with ``i + index(upper)``, the
    # index drawn from the uniform ``u`` as ``RngStream.index`` draws it.
    return positions + np.minimum((u * upper).astype(np.int64), upper - 1)


def _shuffled(n: int, targets: list[int]) -> list[int]:
    # The first len(targets) entries of range(n) after the swaps.
    pool = list(range(n))
    for i, j in enumerate(targets):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[: len(targets)]


class RngStream:
    """Named, counter-based pseudo-random stream.

    Output ``i`` of a stream is ``mix(key + (i+1) * golden)`` where ``key``
    mixes the seed with an FNV-1a hash of the name. The same
    ``(seed, name, counter)`` triple therefore yields the same value on every
    platform, distinct names give independent streams, and checkpointing a
    stream only requires storing its counter.
    """

    def __init__(self, seed: int, name: str = "", counter: int = 0):
        if not _is_int(counter) or counter < 0:
            raise ValueError(f"counter must be a non-negative integer, got {counter!r}")
        self.seed = int(seed) & _MASK64
        self.counter = int(counter)
        self._key = np.uint64(_mix64_int(self.seed ^ fnv1a64(name)))

    def _words(self, positions: np.ndarray) -> np.ndarray:
        # Outputs at the 1-based uint64 ``positions``, computed in place.
        positions *= _GOLDEN_U64
        positions += self._key
        return _mix64(positions)

    def _raw(self, n: int) -> np.ndarray:
        positions = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return self._words(positions)

    def uniform(self, shape=None):
        """Uniform draws in [0, 1); scalar when ``shape`` is None."""
        if shape is None:
            return (int(self._raw(1)[0]) >> 11) * 2.0**-53
        shape, n = _dims(shape)
        return _unit(self._raw(n)).reshape(shape)

    def _open_uniform(self, n: int) -> np.ndarray:
        return _open_unit(self._raw(n))

    def normal(self, shape) -> np.ndarray:
        """An array of ``shape`` (an int is one dimension) of standard normal
        draws via the inverse CDF (``_ndtri``)."""
        shape, n = _dims(shape)
        return _ndtri(self._open_uniform(n)).reshape(shape)

    def beta_permutations(
        self, a: float, starts: Sequence[int], sizes: Sequence[int]
    ) -> tuple[list[float], list[np.ndarray]]:
        """For each ``i``, one Beta(a, a) draw from the word after counter
        ``starts[i]``, then what ``permutation(sizes[i])`` returns from the
        words that follow, all from one block; the counter does not move. The
        Beta draws are one ``_beta_quantile`` call on the Beta words' open
        uniforms, so ``0 < a <= 1``."""
        if not 0.0 < a <= 1.0:
            raise ValueError(f"beta shape parameter must be in (0, 1], got {a}")
        sizes = np.asarray(sizes, dtype=np.int64)
        lengths = sizes + 1  # the Beta word, then one word per permutation entry
        firsts = np.cumsum(lengths) - lengths
        within = np.arange(int(lengths.sum())) - np.repeat(firsts, lengths)
        bases = np.array([(start + 1) & _MASK64 for start in starts], dtype=np.uint64)
        words = self._words(np.repeat(bases, lengths) + within.astype(np.uint64))
        lams = _beta_quantile(a, _open_unit(words[firsts])).tolist()
        entry = within > 0
        positions = within[entry] - 1
        targets = _targets(_unit(words[entry]), positions, np.repeat(sizes, sizes) - positions)
        bounds = np.cumsum(sizes).tolist()
        partners = [
            np.array(_shuffled(n, targets[end - n : end].tolist()), dtype=np.int64)
            for n, end in zip(sizes.tolist(), bounds)
        ]
        return lams, partners

    def index(self, upper: int) -> int:
        """Uniform integer in [0, upper)."""
        if not _is_int(upper) or upper <= 0:
            raise ValueError(f"upper must be a positive integer, got {upper!r}")
        return min(int(self.uniform() * upper), upper - 1)

    def sample_indices(self, n: int, k: int, count: int | None = None) -> np.ndarray:
        """k distinct indices from range(n), by partial Fisher-Yates; with
        ``count``, that many such rows as a ``(count, k)`` array."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n}")
        rows = 1 if count is None else count
        if rows < 0:
            raise ValueError(f"cannot draw {rows} rows of indices")
        shape = (k,) if count is None else (rows, k)
        # Draw i of a row is ``index(n - i)``; the stream is counter-based, so
        # one block of rows * k uniforms gives the same words as one row after
        # another and leaves the same counter.
        positions = np.arange(k, dtype=np.int64)
        targets = _targets(self.uniform(shape), positions, n - positions)
        picked = [_shuffled(n, row) for row in targets.reshape(rows, k).tolist()]
        return np.array(picked, dtype=np.int64).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self.sample_indices(n, n)
