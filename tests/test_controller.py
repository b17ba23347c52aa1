"""Controller tests: hand gradients, the enumeration oracle, warm-up rules."""
from __future__ import annotations

import itertools
import math
from dataclasses import fields

import numpy as np
import pytest

from jointsearch import controller
from jointsearch.controller import (
    ControllerState,
    init_controller,
    probabilities,
    reinforce_update,
    sample,
)
from jointsearch.config import SearchSection
from jointsearch.numerics import RngStream, softmax
from jointsearch.space import LayerConfig, SpaceConfig, build_space

from reference import (
    ReferenceController,
    expected_reward_gradient_oracle,
    logit_gradient,
    reference_reinforce_update,
    reference_sample,
)


def space_with_cards(cards):
    """A space whose decision cardinalities equal ``cards`` (identity ops)."""
    layers = tuple(
        LayerConfig(candidates=("identity",) * card) for card in cards
    )
    return build_space(
        SpaceConfig(input_dim=2, num_classes=2, layers=layers, hyperparameters=())
    )


def state_with_logits(logit_vectors):
    return ControllerState(logits=[np.asarray(z, dtype=float) for z in logit_vectors])


class _FixedUniform:
    """A stream whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def uniform(self, shape=None):
        return self.value if shape is None else np.full(shape, self.value)


# ---------------------------------------------------------------------------
# init and probabilities
# ---------------------------------------------------------------------------


def test_init_controller_is_uniform():
    state = init_controller(space_with_cards([3, 4]))
    probs = probabilities(state)
    assert np.allclose(probs[0], [1 / 3] * 3, atol=1e-15)
    assert np.allclose(probs[1], [0.25] * 4, atol=1e-15)
    # Only what the controller learns; the meta-step is passed to each update.
    assert [f.name for f in fields(state)] == ["logits", "baseline"]


def test_init_controller_degenerate_decision():
    state = init_controller(space_with_cards([1]))
    assert np.array_equal(probabilities(state)[0], [1.0])


def test_probabilities_hand_softmax():
    state = state_with_logits([[math.log(3.0), 0.0]])
    probs = probabilities(state)[0]
    assert np.allclose(probs, [0.75, 0.25], atol=1e-15)


def test_probabilities_shift_invariance():
    state_a = state_with_logits([[0.3, -1.2, 0.8]])
    state_b = state_with_logits([[0.3 + 17.0, -1.2 + 17.0, 0.8 + 17.0]])
    assert np.allclose(
        probabilities(state_a)[0], probabilities(state_b)[0], atol=1e-12
    )


def test_probabilities_always_valid_simplex():
    rng = RngStream(1, "logit-fuzz")
    for _ in range(100):
        state = state_with_logits([rng.normal(5) * 20.0])
        probs = probabilities(state)[0]
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_degenerate_decision_logs_zero():
    state = init_controller(space_with_cards([1]))
    assert sample(state, RngStream(0, "s"), 3) == [(0,)] * 3
    selection, log_prob = reference_sample(state, RngStream(0, "s"))
    assert selection == (0,)
    assert log_prob == 0.0


def test_sample_inverse_cdf_walk():
    # uniform over 4: cumulative (0.25, 0.5, 0.75, 1.0); u=0.6 lands on index 2
    state = init_controller(space_with_cards([4]))
    assert sample(state, _FixedUniform(0.6), 2) == [(2,), (2,)]
    selection, log_prob = reference_sample(state, _FixedUniform(0.6))
    assert selection == (2,)
    assert abs(log_prob - math.log(0.25)) < 1e-15


def test_sample_boundary_draw_stays_in_range():
    state = init_controller(space_with_cards([4]))
    assert sample(state, _FixedUniform(0.9999999999999999), 1) == [(3,)]
    # Seven equal probabilities sum to just under 1, so the largest draw
    # lies past the last cumulative value and must land on the last index.
    state = init_controller(space_with_cards([7, 4]))
    assert np.cumsum(probabilities(state)[0])[-1] < 0.9999999999999999
    assert sample(state, _FixedUniform(0.9999999999999999), 2) == [(6, 3)] * 2
    assert reference_sample(state, _FixedUniform(0.9999999999999999))[0] == (6, 3)
    # Padded to 9 wide, the 7-candidate row's cumulative sums past its last
    # candidate repeat its total, so such a draw still lands on index 6.
    state = init_controller(space_with_cards([7, 9]))
    expected = reference_sample(state, _FixedUniform(0.9999999999999999))[0]
    assert sample(state, _FixedUniform(0.9999999999999999), 2) == [expected] * 2
    assert expected[0] == 6


def test_sample_returns_tuples_of_python_ints():
    state = init_controller(space_with_cards([3, 2]))
    selections = sample(state, RngStream(5, "s"), 4)
    assert isinstance(selections, list) and len(selections) == 4
    for selection in selections:
        assert isinstance(selection, tuple) and len(selection) == 2
        assert all(type(idx) is int for idx in selection)


def test_sample_frequencies_match_probabilities():
    state = state_with_logits([[0.9, 0.0, -0.7]])
    probs = probabilities(state)[0]
    n = 100_000
    counts = np.zeros(3)
    for selection in sample(state, RngStream(7, "freq"), n):
        counts[selection[0]] += 1
    for j in range(3):
        sigma = math.sqrt(probs[j] * (1 - probs[j]) / n)
        assert abs(counts[j] / n - probs[j]) < 3 * sigma


def test_sample_log_prob_sums_over_decisions():
    state = init_controller(space_with_cards([4, 4, 3, 2]))
    _, log_prob = reference_sample(state, RngStream(3, "s"))
    expected = math.log(0.25) * 2 + math.log(1 / 3) + math.log(0.5)
    assert abs(log_prob - expected) < 1e-12


def _random_logits(rng: RngStream, card: int) -> np.ndarray:
    """Mild, wide, extreme or tied logits; extreme ones leave some
    probabilities at exactly zero, so the CDF has flat steps."""
    kind = rng.index(4)
    if kind == 0:
        return rng.normal(card)
    if kind == 1:
        return 30.0 * rng.normal(card)
    if kind == 2:
        return np.where(rng.uniform(card) < 0.5, -800.0, 800.0) * rng.uniform(card)
    return np.full(card, float(rng.index(3)))  # ties


TABLE_CARDS = (1, 2, 5, 8, 9, 17)


@pytest.mark.parametrize(
    "widths, decisions",
    [(range(1, 7), None), (TABLE_CARDS, None), ((4,), 3), ((9,), 4)],
    ids=["1-6", "table", "3x4", "4x9"],
)
def test_sample_block_draw_matches_per_draw_reference(widths, decisions):
    # Mixed widths make padded tables; one softmax of the whole table (every
    # width below 8, padded with -inf logits) or one per width (some width
    # of 8 or more, which numpy sums pairwise) must give each row's own
    # bytes, and the table's CDF each row's own picks. Decisions of one
    # width (3 of 4, as ``tabular-controller``; 4 of 9) take one softmax of
    # the whole table.
    rng = RngStream(0, f"sample-property/{len(widths)}")
    for case in range(200):
        n = 1 + rng.index(7) if decisions is None else decisions
        cards = [widths[rng.index(len(widths))] for _ in range(n)]
        state = state_with_logits([_random_logits(rng, c) for c in cards])
        probs = probabilities(state)
        assert [p.tobytes() for p in probs] == [softmax(z).tobytes() for z in state.logits]
        k = 1 + rng.index(6)
        start = rng.index(1000)
        fast = RngStream(case, "ctl", start)
        slow = RngStream(case, "ctl", start)
        expected = [reference_sample(state, slow)[0] for _ in range(k)]
        assert sample(state, fast, k) == expected, (case, cards, k)
        assert fast.counter == slow.counter == start + k * len(cards)
        assert fast.uniform() == slow.uniform()


def test_sample_zero_selections_draws_nothing():
    state = init_controller(space_with_cards([3, 2]))
    rng = RngStream(1, "ctl", 17)
    assert sample(state, rng, 0) == []
    assert rng.counter == 17
    assert rng.uniform() == RngStream(1, "ctl", 17).uniform()


def test_sample_refuses_a_negative_count_before_drawing():
    state = init_controller(space_with_cards([3, 2]))
    rng = RngStream(1, "ctl", 10)
    with pytest.raises(ValueError, match="has a dimension that is not a non-negative integer"):
        sample(state, rng, -2)
    assert rng.counter == 10


# ---------------------------------------------------------------------------
# REINFORCE gradient
# ---------------------------------------------------------------------------


def test_logit_gradient_hand_example():
    # p=(0.5,0.5), one sample of choice 0 with advantage +1: the descent
    # gradient is -(onehot - p) = (-0.5, +0.5), which raises logit 0 and
    # lowers logit 1 by the same 0.5 magnitude.
    state = init_controller(space_with_cards([2]))
    grads = logit_gradient(state, [((0,), 1.0)], baseline=0.0)
    assert np.allclose(grads[0], [-0.5, 0.5], atol=1e-15)


def test_logit_gradient_averages_over_samples():
    state = init_controller(space_with_cards([2]))
    samples = [((0,), 1.0), ((1,), 1.0)]
    grads = logit_gradient(state, samples, baseline=0.0)
    # the two one-hot terms cancel under a shared advantage
    assert np.allclose(grads[0], [0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("step", [3, 7], ids=["in-warm-up", "past-warm-up"])
@pytest.mark.parametrize("rewards", [[0.9, float("nan")], [float("-inf"), 0.9]])
def test_update_refuses_a_non_finite_reward_before_any_write(step, rewards):
    # Warm-up is the first ceil(0.5 * 10) = 5 steps. Inside it the baseline
    # must not take the rewards before the bad one; past it neither must the
    # logits, their moments or the probability table.
    meta = SearchSection(total_meta_steps=10, warmup_fraction=0.5)
    state = ControllerState([np.array([0.5, -0.5]), np.array([1.0, 0.0, -1.0])])
    for done in (5, 6):  # two updates past warm-up, for moments other than zero
        reinforce_update(state, [((0, 1), 0.3), ((1, 2), 0.8)], meta, done)
    state.baseline = 0.2
    assert all(row.any() for row in state.m + state.v)
    table = controller._prob_table(state)
    before = [row.tobytes() for row in state.logits + state.m + state.v]
    samples = [((0, 1), rewards[0]), ((1, 2), rewards[1])]
    with pytest.raises(ValueError, match="^reward must be finite$"):
        reinforce_update(state, samples, meta, step)
    assert state.baseline == 0.2
    assert [row.tobytes() for row in state.logits + state.m + state.v] == before
    assert controller._prob_table(state) is table


def test_logits_and_probabilities_are_read_only_and_follow_each_update():
    # Only ``optimizer_step`` writes the logits, and it drops the table, so
    # after each update past warm-up the probabilities are the new logits'
    # softmax, bit for bit; a write in place is refused.
    state = init_controller(space_with_cards([2, 3, 3, 5]))
    meta = SearchSection(total_meta_steps=8, warmup_fraction=0.25)
    stream = RngStream(4, "read-only")
    for step in range(8):
        probs = probabilities(state)
        for row in (state.logits[1], probs[2]):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.5
        selections = sample(state, stream, 3)
        reinforce_update(state, [(s, 0.1 * sum(s)) for s in selections], meta, step)
        if step >= 2:
            want = [softmax(z).tobytes() for z in state.logits]
            assert [p.tobytes() for p in probabilities(state)] == want
            assert [p.tobytes() for p in probs] != want  # the old rows keep the old table
    assert all(row.flags.writeable for row in state.m + state.v)


# ---------------------------------------------------------------------------
# reinforce_update
# ---------------------------------------------------------------------------


def no_warmup_meta(**kw):
    return SearchSection(total_meta_steps=100, warmup_fraction=0.0, **kw)


def test_update_zero_advantage_leaves_logits_alone():
    state = init_controller(space_with_cards([3]))
    state.baseline = 0.5
    before = [z.copy() for z in state.logits]
    reinforce_update(state, [((0,), 0.5), ((2,), 0.5)], no_warmup_meta(), 1)
    for z, b in zip(state.logits, before):
        assert np.array_equal(z, b)


def test_update_moves_toward_rewarded_choice():
    state = init_controller(space_with_cards([3]))
    state.baseline = 0.0
    reinforce_update(state, [((1,), 1.0)], no_warmup_meta(), 1)
    probs = probabilities(state)[0]
    assert probs[1] > probs[0]
    assert probs[1] > probs[2]


def test_update_baseline_sequential_moving_average():
    state = init_controller(space_with_cards([2]))
    meta = no_warmup_meta(baseline_momentum=0.9)
    reinforce_update(state, [((0,), 1.0), ((1,), 0.0), ((0,), 0.5)], meta, 0)
    # step 0's first reward initializes b; the rest fold in sequentially:
    # b = 1.0; b = 0.9*1.0 + 0.1*0.0 = 0.9; b = 0.9*0.9 + 0.1*0.5 = 0.86
    assert abs(state.baseline - 0.86) < 1e-12


def test_update_first_step_uses_first_reward_as_baseline():
    # with the baseline seeded from the first sample, a single-sample first
    # update has zero advantage and must leave the logits bitwise unchanged
    state = init_controller(space_with_cards([3]))
    before = [z.copy() for z in state.logits]
    reinforce_update(state, [((1,), 0.7)], no_warmup_meta(), 0)
    for z, b in zip(state.logits, before):
        assert np.array_equal(z, b)
    assert state.baseline == 0.7


def test_update_reads_whether_a_baseline_exists_from_the_step():
    # A baseline of exactly 0.0 past step 0 is a baseline, not a missing one.
    meta = no_warmup_meta(baseline_momentum=0.5)
    later = init_controller(space_with_cards([3]))
    assert reinforce_update(later, [((1,), 0.7)], meta, 3) == 0.0
    assert later.baseline == 0.35
    assert not np.array_equal(later.logits[0], np.zeros(3))
    first = init_controller(space_with_cards([3]))
    first.baseline = 0.2  # ignored: step 0 starts the average afresh
    assert reinforce_update(first, [((1,), 0.7)], meta, 0) == 0.7
    assert first.baseline == 0.7


def test_update_during_warmup_freezes_logits_but_tracks_baseline():
    state = init_controller(space_with_cards([3]))
    meta = SearchSection(total_meta_steps=10, warmup_fraction=0.5)
    for step in range(5):
        reinforce_update(state, [((0,), 1.0), ((1,), 0.0)], meta, step)
        assert np.array_equal(state.logits[0], np.zeros(3)), f"moved at step {step}"
    assert state.baseline != 1.0  # the average folded in the later rewards
    # first post-warm-up update is free to move
    reinforce_update(state, [((0,), 1.0), ((1,), 0.0)], meta, 5)
    assert not np.array_equal(state.logits[0], np.zeros(3))


def test_update_warmup_leaves_adam_moments_untouched():
    state = init_controller(space_with_cards([3]))
    meta = SearchSection(total_meta_steps=10, warmup_fraction=0.5)
    reinforce_update(state, [((0,), 1.0), ((1,), 0.0)], meta, 4)
    assert [row.tobytes() for row in (*state.m, *state.v)] == [np.zeros(3).tobytes()] * 2


def test_warmup_steps_is_the_first_step_past_the_fraction():
    # ``reinforce_update`` and the resume check both count warm-up by it.
    fractions = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.5, 0.7, 0.9, 0.99, 1 - 2**-53]
    for fraction, total in itertools.product(fractions, range(1, 61)):
        search = SearchSection(total_meta_steps=total, warmup_fraction=fraction)
        w = controller.warmup_steps(search)
        for step in range(total + 2):
            assert (step >= w) == (step >= fraction * total), (fraction, total, step)


def test_update_rejects_empty_or_misshapen_samples():
    state = init_controller(space_with_cards([3, 2]))
    with pytest.raises(ValueError):
        reinforce_update(state, [], no_warmup_meta(), 0)
    with pytest.raises(ValueError):
        reinforce_update(state, [((0,), 1.0)], no_warmup_meta(), 0)


@pytest.mark.parametrize(
    "selection, decision, index",
    [((0, -1), 1, "-1"), ((0, 3), 1, "3"), ((2, 0), 0, "2"), ((1.0, 0), 0, "1.0")],
)
def test_update_refuses_an_index_outside_the_cardinality(selection, decision, index):
    # Decision 0 has 2 candidates in a table 3 wide: index 2 would be a padding cell.
    state = init_controller(space_with_cards([2, 3]))
    state.baseline = 0.5
    message = f"picks {index} for decision {decision}, not an index in \\[0, {[2, 3][decision]}\\)"
    with pytest.raises(ValueError, match=message):
        logit_gradient(state, [((0, 0), 1.0), (selection, 1.0)], 0.0)
    for step in (0, 1):  # in warm-up and past it
        meta = SearchSection(total_meta_steps=2, warmup_fraction=0.5)
        with pytest.raises(ValueError, match=message):
            reinforce_update(state, [((0, 0), 1.0), (selection, 1.0)], meta, step)
    assert [z.tolist() for z in state.logits] == [[0.0, 0.0], [0.0, 0.0, 0.0]]
    assert state.baseline == 0.5
    assert [row.tolist() for row in state.m + state.v] == [[0.0, 0.0], [0.0, 0.0, 0.0]] * 2


def test_state_keeps_its_moments_as_rows_of_padded_tables():
    # A state starts with zero moments; ``m`` and ``v`` by decision are rows
    # of the padded tables that the table's one Adam slot steps, which stay
    # views as updates write them, the padding zero.
    state = init_controller(space_with_cards([2, 3]))
    assert [row.tolist() for row in state.m + state.v] == [[0.0, 0.0], [0.0, 0.0, 0.0]] * 2
    slot = state._slot
    assert all(np.shares_memory(row, slot["m"]) for row in state.m)
    assert all(np.shares_memory(row, slot["v"]) for row in state.v)
    # The step count follows from the meta-step: step 3 past a warm-up of 1
    # is the third update, whatever the slot held before.
    search = SearchSection(total_meta_steps=10, warmup_fraction=0.1)
    slot["step"] = 40
    reinforce_update(state, [((0, 0), 1.0), ((1, 2), 0.25)], search, 3)
    assert slot["step"] == 3
    assert all(row.all() for row in state.m + state.v)
    rows = [slot["m"][0, :2], slot["m"][1]]
    assert [row.tobytes() for row in state.m] == [row.tobytes() for row in rows]
    assert slot["m"][0, 2] == slot["v"][0, 2] == 0.0  # padding stays zero
    assert state._table[0, 2] == -np.inf  # and its logit -inf


@pytest.mark.parametrize(
    "logits",
    [
        [np.zeros((1, 2))],
        [np.zeros(2), np.array(0.5)],
        [np.array(0.5)],
        [np.zeros(2), np.zeros((3, 1))],  # a row not a vector
        [np.zeros(3), np.zeros((2, 2, 2))],
    ],
)
def test_state_refuses_logits_other_than_vectors(logits):
    with pytest.raises(ValueError, match="^ControllerState logits are not one vector per decision"):
        ControllerState(logits)


@pytest.mark.parametrize("k", [1, 4, 7])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.01])
def test_table_update_matches_per_decision_reference(k, entropy_weight):
    """30 steps of the table update beside the per-decision one, bit for bit,
    over spaces mixing every cardinality of ``TABLE_CARDS`` and spaces of
    one width (3 decisions of 4, as ``tabular-controller``, and 4 of 9); at
    step 15, after warm-up (steps 0 to 5), the state is rebuilt from its
    starting logits by replaying its updates, as a resume does."""
    search = SearchSection(
        total_meta_steps=30, warmup_fraction=0.2, meta_lr=0.05,
        baseline_momentum=0.9, entropy_weight=entropy_weight,
    )
    rng = RngStream(k, f"table-oracle/{entropy_weight}")
    for case, layout in enumerate([None, None, None, [4] * 3, [9] * 4]):  # None: mixed
        if layout is None:
            cards = list(TABLE_CARDS) + [TABLE_CARDS[rng.index(6)] for _ in range(rng.index(4))]
            cards = [cards[i] for i in rng.permutation(len(cards))]
        else:
            cards = layout
        start = [2.0 * rng.normal(c) for c in cards]
        state = ControllerState(logits=[z.copy() for z in start])
        ref = ReferenceController(logits=[z.copy() for z in start])
        stream, updates = RngStream(case, "ctl"), []
        for step in range(30):
            if step == 15:
                state = ControllerState(logits=[z.copy() for z in start])
                for done, samples in enumerate(updates):
                    reinforce_update(state, samples, search, done)
                assert all(z.base is state.logits[0].base for z in state.logits)
            probs = probabilities(state)
            assert [p.tobytes() for p in probs] == [p.tobytes() for p in ref.probabilities()]
            selections = sample(state, stream, k)
            samples = [(selection, float(rng.uniform())) for selection in selections]
            used = reinforce_update(state, samples, search, step)
            updates.append(samples)
            assert used == reference_reinforce_update(ref, samples, search, step)
            assert state.baseline == ref.baseline
            where = (case, cards, step)
            assert [z.tobytes() for z in state.logits] == [z.tobytes() for z in ref.logits], where
            for d, z in enumerate(state.logits):  # no moments before the first update
                slot = ref.slots.get(("adam", d), {"m": np.zeros_like(z), "v": np.zeros_like(z)})
                assert state.m[d].tobytes() == slot["m"].tobytes(), where
                assert state.v[d].tobytes() == slot["v"].tobytes(), where
        assert ref.slots and all(slot["step"] == 24 for slot in ref.slots.values())


def test_uniform_rewards_preserve_argmax_forever():
    state = init_controller(space_with_cards([4, 3]))
    meta = no_warmup_meta()
    rng = RngStream(11, "uniform-rewards")
    for step in range(50):
        samples = [(selection, 0.42) for selection in sample(state, rng, 4)]
        reinforce_update(state, samples, meta, step)
    for probs in probabilities(state):
        assert int(np.argmax(probs)) == 0
        # per-decision symmetry never breaks: all entries stay equal
        assert np.allclose(probs, probs[0], atol=1e-9)


def test_entropy_weight_pushes_toward_uniform():
    state = state_with_logits([[2.0, 0.0, -2.0]])
    state.baseline = 0.5
    before = probabilities(state)[0].copy()
    meta = no_warmup_meta(entropy_weight=0.1)
    # rewards equal to the baseline: only the entropy term acts
    for step in range(1, 31):
        reinforce_update(state, [((0,), 0.5)], meta, step)
    after = probabilities(state)[0]
    assert after.max() < before.max()
    assert after.min() > before.min()


def test_entropy_gradient_of_a_collapsed_row_is_zero():
    # exp(-800) underflows, so row 0 is exactly [1, 0]: 0 log 0 = 0 makes its
    # entropy 0 and its entropy gradient exactly zero, not 0 * -inf = nan.
    state = state_with_logits([[0.0, -800.0], [0.0, 0.0]])
    assert probabilities(state)[0].tolist() == [1.0, 0.0]
    state.baseline = 0.5
    before = [z.copy() for z in state.logits]
    samples = [((0, 0), 1.0), ((0, 1), 0.0)]
    reinforce_update(state, samples, no_warmup_meta(entropy_weight=0.01), 1)
    assert state.logits[0].tobytes() == before[0].tobytes()
    assert not np.array_equal(state.logits[1], before[1])
    # A row with no zero entry takes the plain log, bit for bit.
    p = probabilities(state_with_logits([[2.0, 0.0, -2.0]]))[0]
    (got,) = controller._entropy_gradient(p[None, :], [3], 0.01)
    log_p = np.log(p)
    assert got.tobytes() == (0.01 * p * (log_p - float(np.dot(p, log_p)))).tobytes()


def test_update_refuses_an_overflowing_advantage():
    # At step 0 the first reward is the baseline, so the second's advantage
    # is -2e308, which overflows to -inf: the Adam step refuses the gradient.
    state = init_controller(space_with_cards([2]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite gradient for 0"):
            reinforce_update(state, [((0,), 1e308), ((1,), -1e308)], no_warmup_meta(), 0)


def test_search_section_validation():
    with pytest.raises(ValueError):
        SearchSection(total_meta_steps=10, meta_lr=0.0)
    with pytest.raises(ValueError):
        SearchSection(total_meta_steps=10, baseline_momentum=1.0)
    with pytest.raises(ValueError):
        SearchSection(total_meta_steps=10, warmup_fraction=1.0)


def test_warmup_threshold_is_fraction_times_total_steps():
    # The default fraction 0.3 of 10 steps: updates 0, 1 and 2 are warm-up.
    state = init_controller(space_with_cards([3]))
    for step in range(4):
        assert np.array_equal(state.logits[0], np.zeros(3)), f"moved before update {step}"
        reinforce_update(state, [((0,), 1.0), ((1,), 0.0)], SearchSection(total_meta_steps=10), step)
    assert not np.array_equal(state.logits[0], np.zeros(3))


def test_update_returns_the_baseline_its_advantages_used():
    state = init_controller(space_with_cards([3]))
    meta = no_warmup_meta(baseline_momentum=0.5)
    # First call: no baseline yet, so the first reward stands in.
    assert reinforce_update(state, [((0,), 0.25), ((1,), 1.0)], meta, 0) == 0.25
    after_first = state.baseline  # 0.5 * 0.25 + 0.5 * 1.0
    assert after_first == 0.625
    # Later call: the baseline as it stood before the call, not after it.
    assert reinforce_update(state, [((2,), 0.0)], meta, 1) == after_first
    assert state.baseline == 0.3125


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------


def test_oracle_two_choice_hand_value():
    # p=(0.5,0.5), rewards (1,0): dE/dlogit0 = p0(1-p0)(r0-r1) = 0.25
    state = init_controller(space_with_cards([2]))
    rewards = {(0,): 1.0, (1,): 0.0}
    grads = expected_reward_gradient_oracle(state, lambda sel: rewards[sel])
    assert np.allclose(grads[0], [0.25, -0.25], atol=1e-15)


def test_oracle_constant_rewards_zero_gradient():
    state = state_with_logits([[0.4, -0.2, 1.1], [0.0, 0.3]])
    grads = expected_reward_gradient_oracle(state, lambda sel: 0.77)
    for g in grads:
        assert np.allclose(g, 0.0, atol=1e-12)


def test_oracle_rejects_huge_spaces():
    state = init_controller(space_with_cards([101, 101, 101]))
    with pytest.raises(ValueError):
        expected_reward_gradient_oracle(state, lambda sel: 0.0)


def enumerate_reinforce_expectation(state, reward_fn, baseline):
    """Probability-weighted average of single-sample REINFORCE gradients.

    Uses the ascent direction (negated descent gradient) so it is directly
    comparable to the oracle.
    """
    cards = [len(z) for z in state.logits]
    probs = probabilities(state)
    expectation = [np.zeros_like(z) for z in state.logits]
    for selection in itertools.product(*(range(c) for c in cards)):
        p_sel = 1.0
        for d, idx in enumerate(selection):
            p_sel *= float(probs[d][idx])
        grads = logit_gradient(state, [(selection, reward_fn(selection))], baseline)
        for d in range(len(cards)):
            expectation[d] -= p_sel * grads[d]  # negate: descent -> ascent
    return expectation


def test_reinforce_expectation_matches_oracle():
    rng = RngStream(19, "unbiased")
    for trial in range(10):
        n_decisions = 1 + trial % 3
        cards = [2 + int(rng.uniform() * 3) for _ in range(n_decisions)]
        state = state_with_logits([rng.normal(c) for c in cards])
        table = {
            sel: float(rng.uniform())
            for sel in itertools.product(*(range(c) for c in cards))
        }
        oracle = expected_reward_gradient_oracle(state, lambda sel: table[sel])
        for baseline in (0.0, 0.37):
            estimate = enumerate_reinforce_expectation(state, lambda sel: table[sel], baseline)
            for d in range(len(cards)):
                assert np.allclose(estimate[d], oracle[d], atol=1e-12), (
                    f"trial {trial}, baseline {baseline}, decision {d}"
                )
