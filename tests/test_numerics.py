"""Numerics tests: cross-entropy and the closed-form backward, the reference
tape the tests check it against, and the RNG. Hand-computed oracles first,
then properties."""
from __future__ import annotations

import math

import numpy as np
import pytest

from jointsearch import numerics
from jointsearch.numerics import (
    Layer,
    RngStream,
    check_labels,
    cross_entropy_gradient,
    cross_entropy_loss,
    fnv1a64,
)

import reference
from reference import (
    Tape,
    add,
    add_bias,
    as_tensor,
    backward,
    backward_grads,
    dropout,
    finite_difference_check,
    matmul,
    mul,
    pad_cols,
    relu,
    split_stream,
    sum_all,
    take_cols,
    tanh,
)

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# forward-value oracles
# ---------------------------------------------------------------------------


def test_relu_forward_values():
    tape = Tape()
    x = tape.leaf(as_tensor([-1.0, 0.0, 2.0]))
    out = relu(tape, x)
    assert np.array_equal(out.value, [0.0, 0.0, 2.0])


def loss_and_gradient(z, y):
    # The library's loss and its logit gradient, as a train step takes it.
    return cross_entropy_loss(z, y), cross_entropy_gradient(z, check_labels(y, z.shape))


def test_cross_entropy_uniform_logits_is_ln2():
    # logits (0, 0) make the predicted distribution uniform over two classes,
    # so the loss against any one-hot label is exactly -log(1/2), and the
    # gradient is softmax minus label over the batch size.
    loss, grad = loss_and_gradient(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert abs(loss - LN2) < 1e-15
    assert np.array_equal(grad, [[-0.5, 0.5]])


def test_cross_entropy_nonnegative_and_zero_only_at_match():
    rng = RngStream(7, "ce-fuzz")
    for _ in range(50):
        z = rng.normal((4, 3)) * 3.0
        y = np.eye(3)[np.arange(4) % 3]
        loss, grad = loss_and_gradient(z, y)
        assert loss >= 0.0
        # the library's loss and logit gradient are the reference tape's, bit for bit
        tape = Tape()
        logits = tape.leaf(z)
        taped = reference.softmax_cross_entropy(tape, logits, tape.constant(y))
        assert loss == float(taped.value)
        assert grad.tobytes() == backward(tape, taped)[logits].tobytes()

    # a hard, correct prediction drives the loss toward zero
    loss = cross_entropy_loss(np.array([[40.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert loss < 1e-15


@pytest.mark.parametrize("rows,classes", [(1, 2), (3, 3), (64, 2), (256, 5)])
def test_cross_entropy_matches_two_pass_reference(rows, classes):
    # The loss and the gradient equal the two-pass version's bit for bit, on
    # hard and soft labels, tied and large logits.
    rng = RngStream(11, f"ce-two-pass/{rows}/{classes}")
    for scale in (0.0, 1.0, 30.0, 700.0):
        z = (rng.uniform((rows, classes)) - 0.5) * scale
        hard = np.eye(classes)[[rng.index(classes) for _ in range(rows)]]
        mix = rng.uniform()
        soft = mix * hard + (1.0 - mix) * hard[::-1]
        for y in (hard, soft):
            loss, grad = loss_and_gradient(z, y)
            want_loss, want_grad = reference.two_pass_softmax_cross_entropy(z, y)
            assert loss == want_loss
            assert grad.tobytes() == want_grad.tobytes()


def test_cross_entropy_rejects_bad_label_rows():
    logits = np.array([[0.0, 0.0]])
    for labels in ([[0.7, 0.7]], [[1.5, -0.5]], [[np.nan, 1.0]], [[np.inf, 0.0]], [1.0, 0.0]):
        with pytest.raises(ValueError):
            cross_entropy_loss(logits, np.array(labels))
    tape = Tape()
    with pytest.raises(ValueError):
        reference.softmax_cross_entropy(
            tape, tape.leaf(logits), tape.constant(as_tensor([[0.7, 0.7]]))
        )


def test_as_tensor_rejects_non_finite():
    with pytest.raises(ValueError):
        as_tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_tensor([float("inf")])


# ---------------------------------------------------------------------------
# backward oracles
# ---------------------------------------------------------------------------


def test_backward_quadratic_hand_gradient():
    # d/dw sum(w*w) = 2w
    tape = Tape()
    w = tape.leaf(as_tensor([1.0, 2.0]))
    loss = sum_all(tape, mul(tape, w, w))
    grads = backward(tape, loss)
    assert np.array_equal(grads[w], [2.0, 4.0])

    # one affine layer under the identity head: d/dw = x^T g, d/db = sum g
    x = np.array([[1.0, 2.0]])
    layer = Layer(("w", "b"), x, np.eye(2), None, x.copy(), None)
    grads = backward_grads([layer], np.eye(2), np.array([[0.5, -1.0]]))
    assert np.array_equal(grads["w"], [[0.5, -1.0], [1.0, -2.0]])
    assert np.array_equal(grads["b"], [0.5, -1.0])


def test_backward_unreached_leaf_gets_zeros():
    tape = Tape()
    w = tape.leaf(as_tensor([1.0, 2.0]))
    unused = tape.leaf(as_tensor([[3.0, 4.0]]))
    loss = sum_all(tape, mul(tape, w, w))
    grads = backward(tape, loss)
    assert np.array_equal(grads[unused], np.zeros((1, 2)))

    # a truncated layer's dropped columns get exact zeros, never -0.0
    x = np.array([[1.0, -1.0]])
    out = np.array([[2.0, -3.0, 4.0]])
    layer = Layer(("w", "b"), x, np.ones((2, 3)), None, out, None)
    grads = backward_grads([layer], -np.ones((2, 1)), np.array([[1.0]]))
    assert grads["b"].tobytes() == np.array([-1.0, -1.0, 0.0]).tobytes()
    assert grads["w"][:, 2].tobytes() == np.zeros(2).tobytes()


class FirstTermSums(np.ndarray):
    """An array whose row sums and matrix products start from their first
    term, as a reduction or BLAS without a zeroed accumulator does. numpy 2's
    sums and OpenBLAS's products start from +0.0, so with them a column of
    -0.0 terms never sums to -0.0."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        args = [np.asarray(a) for a in inputs]
        if ufunc is np.add and method == "reduce" and kwargs.get("axis") == 0:
            (a,) = args
            result = a[0].copy()
            for row in a[1:]:
                result = result + row
        elif ufunc is np.matmul and method == "__call__":
            a, b = args
            result = a[:, :1] * b[:1]
            for k in range(1, a.shape[1]):
                result = result + a[:, k : k + 1] * b[k : k + 1]
        else:
            if out is not None:
                kwargs["out"] = tuple(np.asarray(o) for o in out)
            result = getattr(ufunc, method)(*args, **kwargs)
        if out is not None:
            np.asarray(out[0])[...] = result
            return out[0]
        return result.view(FirstTermSums)


def test_backward_weight_and_bias_gradients_carry_no_negative_zero():
    # Unit 1 is dead on every row and the incoming gradient is negative, so
    # its column of the chain holds -0.0 only. Summed from the first term,
    # that is -0.0; the ``+ 0.0`` on each gradient makes it 0.0, as the
    # reference tape's zero-buffer accumulation does on any platform.
    all_negative_zero = np.full((3, 1), -0.0).view(FirstTermSums)
    assert np.signbit(all_negative_zero.sum(axis=0)).all()
    assert np.signbit(np.ones((1, 3)) @ all_negative_zero).all()

    x = np.array([[1.0, 2.0], [3.0, 0.5], [0.25, 1.0]])
    weight = np.array([[1.0, -1.0], [1.0, -1.0]])
    layer = Layer(("w", "b"), x, weight, "relu", np.maximum(x @ weight, 0.0), None)
    grad_logits = -np.ones((3, 2)).view(FirstTermSums)
    grads = backward_grads([layer], np.ones((2, 2)), grad_logits)
    assert grads["b"].tobytes() == np.array([-6.0, 0.0]).tobytes()
    assert grads["w"].tobytes() == np.array([[-8.5, 0.0], [-7.0, 0.0]]).tobytes()


def test_backward_requires_scalar_loss():
    tape = Tape()
    w = tape.leaf(as_tensor([1.0, 2.0]))
    out = mul(tape, w, w)
    with pytest.raises(ValueError):
        backward(tape, out)


def test_backward_is_bitwise_deterministic():
    rng = RngStream(3, "det")
    x = rng.normal((5, 3))
    w = rng.normal((3, 4))
    head = rng.normal((6, 2))
    out = np.tanh(x @ w)
    scale = (rng.uniform((5, 6)) < 0.5) / 0.5

    def run():
        layers = [Layer(("w", "b"), x, w, "tanh", out, scale)]
        grads = backward_grads(layers, head, rng.normal((5, 2)))
        return grads["w"], grads["b"]

    start = rng.counter
    gw1, gb1 = run()
    rng.counter = start
    gw2, gb2 = run()
    assert gw1.tobytes() == gw2.tobytes()
    assert gb1.tobytes() == gb2.tobytes()


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_check_quadratic_is_nearly_exact():
    def quadratic(tape, leaves):
        (w,) = leaves
        return sum_all(tape, mul(tape, w, w))

    err = finite_difference_check(quadratic, [as_tensor([0.3, -1.2, 2.0])], eps=1e-3)
    assert err <= 1e-9


def test_fd_check_rejects_zero_eps():
    def quadratic(tape, leaves):
        (w,) = leaves
        return sum_all(tape, mul(tape, w, w))

    with pytest.raises(ValueError):
        finite_difference_check(quadratic, [as_tensor([1.0])], eps=0.0)


def _off_kink(rng: RngStream, shape) -> np.ndarray:
    # keep every pre-activation comfortably away from relu's corner at 0
    values = rng.normal(shape)
    return np.where(np.abs(values) < 0.2, values + 0.5, values)


def test_fd_check_each_op():
    rng = RngStream(11, "fd-ops")
    x = _off_kink(rng, (4, 3))
    w = rng.normal((3, 5)) * 0.7
    b = rng.normal(5) * 0.3
    y = np.eye(2)[[0, 1, 1, 0]]

    cases = {
        "matmul": (
            lambda tape, leaves: sum_all(tape, matmul(tape, leaves[0], leaves[1])),
            [x, w],
        ),
        "add_bias": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, add_bias(tape, leaves[0], leaves[1]), add_bias(tape, leaves[0], leaves[1]))
            ),
            [rng.normal((4, 5)), b],
        ),
        "add": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, add(tape, leaves[0], leaves[1]), add(tape, leaves[0], leaves[1]))
            ),
            [rng.normal((3, 3)), rng.normal((3, 3))],
        ),
        "mul": (
            lambda tape, leaves: sum_all(tape, mul(tape, leaves[0], leaves[1])),
            [rng.normal((3, 3)), rng.normal((3, 3))],
        ),
        "relu": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, relu(tape, leaves[0]), relu(tape, leaves[0]))
            ),
            [_off_kink(rng, (4, 4))],
        ),
        "tanh": (
            lambda tape, leaves: sum_all(tape, tanh(tape, leaves[0])),
            [rng.normal((4, 4))],
        ),
        "pad_cols": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, pad_cols(tape, leaves[0], 6), pad_cols(tape, leaves[0], 6))
            ),
            [rng.normal((3, 4))],
        ),
        "take_cols": (
            lambda tape, leaves: sum_all(
                tape, mul(tape, take_cols(tape, leaves[0], 2), take_cols(tape, leaves[0], 2))
            ),
            [rng.normal((3, 4))],
        ),
        "softmax_cross_entropy": (
            lambda tape, leaves: reference.softmax_cross_entropy(
                tape, leaves[0], tape.constant(as_tensor(y))
            ),
            [rng.normal((4, 2))],
        ),
    }
    for name, (fn, params) in cases.items():
        err = finite_difference_check(fn, params, eps=1e-3)
        assert err <= 1e-4, f"{name}: relative error {err}"


def test_fd_check_composite_two_layer_net():
    rng = RngStream(5, "fd-net")
    x = _off_kink(rng, (6, 3))
    w1 = rng.normal((3, 8)) * 0.6
    b1 = rng.normal(8) * 0.2
    w2 = rng.normal((8, 2)) * 0.6
    b2 = rng.normal(2) * 0.2
    labels = np.eye(2)[[0, 1, 0, 1, 1, 0]]

    def net(tape, leaves):
        xl, w1l, b1l, w2l, b2l = leaves
        h = relu(tape, add_bias(tape, matmul(tape, xl, w1l), b1l))
        logits = add_bias(tape, matmul(tape, h, w2l), b2l)
        return reference.softmax_cross_entropy(tape, logits, tape.constant(as_tensor(labels)))

    err = finite_difference_check(net, [x, w1, b1, w2, b2], eps=1e-3)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_keep_one_is_identity_forward_and_backward():
    rng_values = RngStream(2, "drop-x")
    x = rng_values.normal((4, 5))
    stream = RngStream(9, "mask")
    before = stream.counter

    tape = Tape()
    leaf = tape.leaf(as_tensor(x))
    out = dropout(tape, leaf, 1.0, stream)
    loss = sum_all(tape, mul(tape, out, out))
    grads = backward(tape, loss)

    assert stream.counter == before  # keep=1 consumes no randomness
    assert np.array_equal(out.value, x)
    assert np.array_equal(grads[leaf], 2.0 * x)


def test_dropout_scales_survivors_and_zeroes_the_rest():
    x = np.ones((200, 10))
    keep = 0.7
    tape = Tape()
    out = dropout(tape, tape.leaf(as_tensor(x)), keep, RngStream(4, "mask"))
    values = np.unique(out.value)
    assert set(np.round(values, 12)) <= {0.0, round(1.0 / keep, 12)}
    survival = np.mean(out.value != 0.0)
    # binomial 3-sigma bound around keep for 2000 draws
    sigma = math.sqrt(keep * (1 - keep) / x.size)
    assert abs(survival - keep) < 3 * sigma


def test_dropout_mask_reproducible_from_counter():
    x = np.ones((8, 8))
    s1 = RngStream(4, "mask")
    tape1 = Tape()
    out1 = dropout(tape1, tape1.leaf(as_tensor(x)), 0.5, s1)
    s2 = RngStream(4, "mask")
    tape2 = Tape()
    out2 = dropout(tape2, tape2.leaf(as_tensor(x)), 0.5, s2)
    assert np.array_equal(out1.value, out2.value)


def test_dropout_rejects_bad_keep_prob():
    tape = Tape()
    leaf = tape.leaf(as_tensor([[1.0]]))
    with pytest.raises(ValueError):
        dropout(tape, leaf, 0.0, RngStream(0, "mask"))
    with pytest.raises(ValueError):
        dropout(tape, leaf, 1.5, RngStream(0, "mask"))


# ---------------------------------------------------------------------------
# fnv1a64 against published test vectors
# ---------------------------------------------------------------------------


def test_fnv1a64_known_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_rng_same_triple_same_output():
    a = RngStream(123, "stream")
    b = RngStream(123, "stream")
    assert np.array_equal(a.uniform(16), b.uniform(16))


def test_rng_distinct_names_are_independent():
    a = RngStream(123, "one").uniform(64)
    b = RngStream(123, "two").uniform(64)
    assert not np.array_equal(a, b)
    # crude independence: correlation should be small for 64 pairs
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.5


def test_rng_counter_is_position_not_history():
    whole = RngStream(9, "s").uniform(10)
    head = RngStream(9, "s")
    first = head.uniform(4)
    rest = head.uniform(6)
    assert np.array_equal(whole, np.concatenate([first, rest]))
    # restarting from the recorded counter replays the tail
    tail = RngStream(9, "s", counter=4).uniform(6)
    assert np.array_equal(rest, tail)


def test_rng_uniform_range_and_shape():
    u = RngStream(1, "u").uniform((100, 3))
    assert u.shape == (100, 3)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    scalar = RngStream(1, "u").uniform()
    assert isinstance(scalar, float)


@pytest.mark.parametrize(
    "shape, want_shape, words",
    [
        (None, None, 1),
        (5, (5,), 5),
        ((2, 3), (2, 3), 6),
        ([4], (4,), 4),
        ((np.int64(2), 3), (2, 3), 6),
        ((), (), 1),
        ((0, 3), (0, 3), 0),
    ],
)
@pytest.mark.parametrize("draw", ["uniform", "normal"])
def test_rng_draw_shapes_words_and_counters(draw, shape, want_shape, words):
    from scipy import special

    stream = RngStream(47, "shape", counter=3)
    if draw == "normal" and shape is None:  # no scalar mode: one draw of shape 1
        value = stream.normal(1)[0]
    else:
        value = getattr(stream, draw)(shape)
    assert type(stream.counter) is int and stream.counter == 3 + words
    bits = (RngStream(47, "shape", counter=3)._raw(words) >> np.uint64(11)).astype(np.float64)
    want = bits * 2.0**-53 if draw == "uniform" else special.ndtri((bits + 0.5) * 2.0**-53)
    if want_shape is None:
        assert isinstance(value, float) and value == float(want[0])
    else:
        assert value.shape == want_shape
        assert value.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "shape", [(-1, 3), -3, (2, 1.5), (True, 3), True, 2.0, (np.int64(-2),), (np.bool_(True),)]
)
@pytest.mark.parametrize("draw", ["uniform", "normal"])
def test_rng_draw_refuses_a_bad_shape_before_drawing(draw, shape):
    # A negative dimension would move the counter back, and a float or bool
    # one fail only after its words were drawn: each is refused up front.
    stream = RngStream(47, "shape", counter=10)
    with pytest.raises(ValueError, match="has a dimension that is not a non-negative integer"):
        getattr(stream, draw)(shape)
    assert stream.counter == 10
    assert stream.uniform() == RngStream(47, "shape", counter=10).uniform()


def test_rng_normal_moments():
    z = RngStream(17, "z").normal(20000)
    # mean has sd 1/sqrt(n); variance estimate has sd about sqrt(2/n)
    assert abs(z.mean()) < 3.0 / math.sqrt(z.size)
    assert abs(z.std() - 1.0) < 3.0 * math.sqrt(2.0 / z.size)


def _same_bits(a, b) -> bool:
    return np.asarray(a).view(np.uint64).tolist() == np.asarray(b).view(np.uint64).tolist()


def test_ndtri_port_matches_scipy_on_stream_draws():
    from scipy import special

    for seed, name in [(0, "moons"), (1, "spirals"), (2**63 + 5, "x"), (9, "")]:
        u = RngStream(seed, name)._open_uniform(2**19)
        assert _same_bits(numerics._ndtri(u), special.ndtri(u)), (seed, name)


def _with_neighbours(value, ulps=1):
    points = [value]
    for direction in (0.0, 2.0):
        v = value
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            points.append(v)
    return points


def test_ndtri_port_matches_scipy_at_branch_edges():
    from scipy import special

    exp_m2 = numerics._EXP_M2
    exp_m32 = math.exp(-32.0)  # z = sqrt(-2 log y) = 8: the tail coefficients switch
    switch = _with_neighbours(exp_m32, ulps=24)
    z = [math.sqrt(-2.0 * math.log(y)) for y in switch]
    assert min(z) < 8.0 <= max(z)  # both tail branches are reached
    # The extreme open uniforms: word 0, and word 2**53 - 1, whose half-step
    # offset rounds to 1.0 exactly (``_open_uniform`` draws it as 1 - 2**-53).
    largest = (float(2**53 - 1) + 0.5) * 2.0**-53
    assert largest == 1.0 - 0.5 * 2.0**-53 == 1.0
    y = np.array(
        [
            *_with_neighbours(exp_m2),
            *_with_neighbours(1.0 - exp_m2),
            *switch,
            0.5 * 2.0**-53,
            1.0 - 0.5 * 2.0**-53,
            np.nextafter(1.0, 0.0),
            *_with_neighbours(0.5),
            5e-324,
            0.0,
            # Both tails across every branch, far below what a stream draws.
            *np.logspace(-320, -1, 1000),
            *(1.0 - np.logspace(-16, -1, 200)),
        ]
    )
    assert _same_bits(numerics._ndtri(y), special.ndtri(y))


def test_open_uniform_pulls_only_the_top_word_below_one(monkeypatch):
    # The word whose top 53 bits are all ones would draw exactly 1.0 (see the
    # branch-edge test), so ``normal`` would return infinity.
    stream = RngStream(0, "top")
    monkeypatch.setattr(stream, "_raw", lambda n: np.full(n, 2**64 - 1, dtype=np.uint64))
    assert stream._open_uniform(2).tolist() == [1.0 - 2.0**-53] * 2
    assert stream.normal(1)[0] == numerics._ndtri(np.array([1.0 - 2.0**-53]))[0]
    assert 8.0 < stream.normal(1)[0] < math.inf
    # Every other word, the one just below included, draws what it drew before.
    edges = np.array([2**64 - 2**11 - 1, 0], dtype=np.uint64)  # top 53 bits 2**53 - 2
    words = np.concatenate([RngStream(5, "words")._raw(2**16), edges])
    monkeypatch.setattr(stream, "_raw", lambda n: words[:n].copy())
    plain = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert plain[-2] == 1.0 - 2.0**-52
    assert _same_bits(stream._open_uniform(len(words)), plain)


def test_rng_normal_known_answers():
    # Known answers from scipy.special.ndtri; they cover both the central and
    # the tail branch, and need no scipy here.
    stream = RngStream(7, "pin")
    want = [
        "0x1.1027cd12e02c8p-2", "0x1.6314c1cd6d7bfp-1", "-0x1.8169075d0265dp+0",
        "-0x1.1308e0110dff3p-2", "0x1.4e31df8bb329ap+0", "0x1.fc51cd076e6bbp-3",
        "0x1.f7be08626a2cap-4", "-0x1.4602a6d231a0ap+0",
    ]
    assert [v.hex() for v in stream.normal(8).tolist()] == want
    assert stream.normal(1)[0].hex() == "0x1.8109ca7c22b4cp+0"


def test_rng_beta_bounds_and_symmetry():
    # 2000 consecutive Beta words, each with an empty permutation.
    stream = RngStream(23, "beta")
    lams, _ = stream.beta_permutations(0.4, range(2000), [0] * 2000)
    draws = np.array(lams)
    assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
    # Beta(a, a) has mean 1/2 and variance 1/(4(2a+1))
    sigma = math.sqrt(1.0 / (4 * (2 * 0.4 + 1)) / draws.size)
    assert abs(draws.mean() - 0.5) < 3 * sigma
    for bad in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError):
            stream.beta_permutations(bad, [0], [0])


def test_rng_index_bounds():
    stream = RngStream(31, "idx")
    draws = [stream.index(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) <= 6
    assert len(set(draws)) == 7  # all buckets hit over 500 draws
    with pytest.raises(ValueError):
        stream.index(0)


@pytest.mark.parametrize("upper", [2.5, 7.0, True, np.bool_(True), -3, np.int64(0)])
def test_rng_index_refuses_an_upper_other_than_a_positive_integer(upper):
    # ``index(2.5)`` could return the float 1.5 and ``index(True)`` 0: each
    # is refused before a word is drawn.
    stream = RngStream(31, "idx", counter=6)
    with pytest.raises(ValueError, match="^upper must be a positive integer, got "):
        stream.index(upper)
    assert stream.counter == 6
    assert stream.index(np.int64(7)) == RngStream(31, "idx", counter=6).index(7)


def test_rng_sample_indices_distinct_and_in_range():
    stream = RngStream(41, "pick")
    for _ in range(20):
        picked = stream.sample_indices(50, 12)
        assert len(set(picked.tolist())) == 12
        assert picked.min() >= 0 and picked.max() < 50
    with pytest.raises(ValueError):
        stream.sample_indices(5, 6)


def test_rng_permutation_is_a_permutation():
    perm = RngStream(43, "perm").permutation(30)
    assert sorted(perm.tolist()) == list(range(30))
    assert np.array_equal(RngStream(43, "perm").permutation(30), perm)


def _reference_sample_indices(stream, n, k):
    """Partial Fisher-Yates with one scalar ``index`` draw per position."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot draw {k} distinct indices from {n}")
    pool = np.arange(n, dtype=np.int64)
    for i in range(k):
        j = i + stream.index(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


SAMPLE_GRID = [
    (n, k)
    for n in (1, 2, 3, 5, 16, 64, 257)
    for k in sorted({0, 1, n // 2, n - 1, n})
] + [(10_000, 1), (10_000, 7), (100_000, 64)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_rng_sample_indices_matches_per_draw_reference(seed):
    for start in (0, 13):
        for n, k in SAMPLE_GRID:
            fast = RngStream(seed, f"pick/{n}", counter=start)
            slow = RngStream(seed, f"pick/{n}", counter=start)
            got = fast.sample_indices(n, k)
            want = _reference_sample_indices(slow, n, k)
            assert got.dtype == np.int64 and got.shape == (k,)
            assert np.array_equal(got, want), (seed, start, n, k)
            assert fast.counter == slow.counter == start + k
            # the stream carries on from the same position
            assert fast.uniform() == slow.uniform()


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_rng_permutation_matches_per_draw_reference(seed):
    for n in (0, 1, 2, 9, 100, 1000):
        fast = RngStream(seed, "perm")
        slow = RngStream(seed, "perm")
        for _ in range(2):
            got = fast.permutation(n)
            want = _reference_sample_indices(slow, n, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert fast.counter == slow.counter


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_rng_sample_indices_block_matches_single_draws(seed):
    # ``count`` rows from one block equal ``count`` one-row draws on a twin
    # stream, from any start counter: same rows, same counter, same next draw.
    starts = RngStream(seed, "block-starts")
    for n, k in SAMPLE_GRID:
        for count in range(1, 6):
            start = starts.index(1000)
            block = RngStream(seed, f"pick/{n}", counter=start)
            twin = RngStream(seed, f"pick/{n}", counter=start)
            got = block.sample_indices(n, k, count)
            want = [_reference_sample_indices(twin, n, k) for _ in range(count)]
            assert got.dtype == np.int64 and got.shape == (count, k)
            assert np.array_equal(got, np.array(want).reshape(count, k)), (n, k, count)
            assert block.counter == twin.counter == start + count * k
            assert block.uniform() == twin.uniform()


def test_rng_sample_indices_block_of_no_rows_draws_nothing():
    stream = RngStream(3, "none", counter=5)
    assert stream.sample_indices(10, 4, 0).shape == (0, 4)
    assert stream.counter == 5
    with pytest.raises(ValueError):
        stream.sample_indices(10, 4, -1)


def test_rng_key_is_the_splitmix_finalizer_of_seed_and_name():
    # The stream key is mixed with Python integers; it must equal the uint64
    # array finalizer the draws use.
    for seed in (0, 1, 2**63 + 5, 2**64 - 1, -1):
        for name in ("", "controller", "eval-data/3/1", "\u00fc"):
            word = np.array([(seed & (2**64 - 1)) ^ fnv1a64(name)], dtype=np.uint64)
            with np.errstate(over="ignore"):
                want = int(numerics._mix64(word)[0])
            assert RngStream(seed, name)._key == want, (seed, name)


def test_rng_split_matches_slash_naming():
    parent = RngStream(77, "root")
    child = split_stream(parent, "root", "sub")
    direct = RngStream(77, "root/sub")
    assert np.array_equal(child.uniform(8), direct.uniform(8))


def test_rng_rejects_negative_counter():
    with pytest.raises(ValueError):
        RngStream(0, "s", counter=-1)


@pytest.mark.parametrize("counter", [1.5, 2.0, True, np.bool_(False)])
def test_rng_rejects_a_counter_other_than_an_integer(counter):
    # A fractional counter would be truncated, and a bool taken as 0 or 1.
    with pytest.raises(ValueError, match="^counter must be a non-negative integer, got "):
        RngStream(0, "s", counter=counter)
    stream = RngStream(0, "s", counter=np.int64(3))
    assert type(stream.counter) is int and stream.counter == 3


@pytest.mark.parametrize("counter", [0, 2**40, 2**63])
def test_rng_words_equal_the_integer_finalizer(counter):
    # Every word is mix(key + i * golden) for its 1-based position i, all mod
    # 2**64; the array path must match the Python-integer finalizer exactly.
    mask = 2**64 - 1
    for seed in (0, 3, 2**63 + 5, 2**64 - 1):
        for name in ("", "eval-train/3/1", "ü"):
            stream = RngStream(seed, name, counter=counter)
            words = stream._raw(9).tolist()
            key = numerics._mix64_int((seed & mask) ^ fnv1a64(name))
            want = [
                numerics._mix64_int((key + (counter + i) * numerics._GOLDEN) & mask)
                for i in range(1, 10)
            ]
            assert words == want, (seed, name)
            assert stream.counter == counter + 9


def test_beta_permutations_equal_beta_then_permutation_at_each_start():
    # Runs with gaps between them (as dropout words leave), of every size
    # from 0 up, at small and huge counters.
    for base in (0, 11, 2**63 - 40):
        sizes = [0, 1, 2, 5, 64, 3, 7]
        starts, at = [], base
        for i, n in enumerate(sizes):
            starts.append(at)
            at += n + 1 + 3 * i
        stream = RngStream(8, "mix-block", counter=base)
        lams, partners = stream.beta_permutations(0.4, starts, sizes)
        assert stream.counter == base
        for start, n, lam, partner in zip(starts, sizes, lams, partners):
            clone = RngStream(8, "mix-block", counter=start)
            assert lam.hex() == reference.reference_beta(clone, 0.4).hex()
            want = clone.permutation(n)
            assert partner.dtype == want.dtype and partner.tolist() == want.tolist()


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.4, 0.7, 1.0])
def test_beta_quantile_matches_scipy_on_stream_draws(alpha):
    # scipy.special.betaincinv as the oracle, on 10**5 consecutive stream
    # draws: within 1e-12 of min(x, 1 - x), plus 2**-52 for the rounding of
    # 1 - x by either side near 1. The block draw is the kernel called once
    # per draw, bit for bit.
    from scipy import special

    n = 100_000
    stream = RngStream(21, f"beta/{alpha}", counter=3)
    lams, _ = stream.beta_permutations(alpha, range(3, 3 + n), [0] * n)
    u = RngStream(21, f"beta/{alpha}", counter=3)._open_uniform(n)
    want = special.betaincinv(alpha, alpha, u)
    error = np.abs(np.array(lams) - want)
    assert (error <= 1e-12 * np.minimum(want, 1.0 - want) + 2.0**-52).all()
    clone = RngStream(21, f"beta/{alpha}", counter=3)
    assert _same_bits(lams[:500], [reference.reference_beta(clone, alpha) for _ in range(500)])


_BETA_KNOWN = [
    "0x1.d795ef8a9fc80p-1", "0x1.99c1ef92ef2b9p-1", "0x1.ef140ab6997b1p-4",
    "0x1.4f6c846215f97p-3", "0x1.fffd142ade627p-1", "0x1.fae4fca6ebc4bp-1",
]


def test_beta_quantile_known_answers():
    # Pinned draws of the kernel, so a change to it shows; scipy's
    # betaincinv gives the same values to within 4e-15 relative.
    u = RngStream(12, "beta-known")._open_uniform(6)
    got = [v.hex() for v in numerics._beta_quantile(0.2, u).tolist()]
    assert got == _BETA_KNOWN


def test_beta_quantile_at_one_is_the_uniform():
    u = RngStream(4, "beta-one")._open_uniform(1000)
    assert _same_bits(numerics._beta_quantile(1.0, u), u)


_EDGE_U = [2.0**-54, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53]


@pytest.mark.parametrize("alpha", [1e-300, 1e-8, 0.01, 0.2, 0.7])
def test_beta_quantile_reflects(alpha):
    # On [1/2, 1) the reflection 1 - u is exact, and the quantiles of u and
    # 1 - u sum to exactly 1; u = 1/2 gives the median 1/2.
    u = np.concatenate([_EDGE_U[2:], 0.5 + 0.5 * RngStream(5, "beta-reflect").uniform(2000)])
    x = numerics._beta_quantile(alpha, u)
    assert (x + numerics._beta_quantile(alpha, 1.0 - u) == 1.0).all()
    assert x[0] == 0.5


@pytest.mark.parametrize("alpha", [1e-300, 1e-8, 0.01])
def test_beta_quantile_is_monotone_finite_and_in_range_at_the_extremes(alpha):
    # Tiny shapes put almost all mass at 0 and 1: every quantile must still be
    # a number in [0, 1], from the smallest open uniform to the largest.
    spread = np.geomspace(2.0**-54, 0.5, 300)
    draws = RngStream(6, "beta-edge")._open_uniform(2000)
    u = np.sort(np.concatenate([_EDGE_U, spread, 1.0 - spread, draws]))
    x = numerics._beta_quantile(alpha, u)
    assert np.isfinite(x).all() and (x >= 0.0).all() and (x <= 1.0).all()
    assert (np.diff(x) >= 0.0).all()
    assert x[0] == 0.0 and x[-1] == 1.0  # (2**-54 a B(a, a))**(1/a) underflows
