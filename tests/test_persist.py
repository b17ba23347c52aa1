"""Digest, event log, and checkpoint round-trip tests."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from jointsearch.controller import ControllerState
from jointsearch.numerics import RngStream
from jointsearch.persist import (
    Checkpoint,
    EventRecord,
    check_layout,
    event_header,
    load_checkpoint,
    open_events,
    read_events,
    resume_events,
    save_checkpoint,
    store_digest,
    write_event,
)
from jointsearch.supernet import ParamKey
from jointsearch.trainstep import fresh_slot


def small_store():
    rng = RngStream(0, "store")
    return {
        ParamKey(0, 1, "weight"): rng.normal((2, 3)),
        ParamKey(0, 1, "bias"): rng.normal(3),
        ParamKey(1, 0, "weight"): rng.normal((3, 2)),
    }


# ---------------------------------------------------------------------------
# store digest
# ---------------------------------------------------------------------------


def test_digest_deterministic_and_value_sensitive():
    a = small_store()
    b = {key: value.copy() for key, value in a.items()}
    assert store_digest(a) == store_digest(b)
    bias = b[ParamKey(0, 1, "bias")]
    bias[0] = np.nextafter(bias[0], np.inf)  # smallest possible change
    assert store_digest(a) != store_digest(b)


def test_digest_ignores_insertion_order():
    a = small_store()
    reordered = dict(reversed(list(a.items())))
    assert store_digest(a) == store_digest(reordered)


def test_digest_of_empty_store_is_blake2b_of_nothing():
    assert store_digest({}) == hashlib.blake2b(b"", digest_size=8).hexdigest()


def test_digest_known_answer():
    store = {
        ParamKey(0, 1, "weight"): np.array([[1.0, -2.5], [0.0, 3.25]]),
        ParamKey(0, 1, "bias"): np.array([0.5, -0.0]),
    }
    assert store_digest(store) == "c2b717e59fd36966"


def test_digest_distinguishes_shape():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    digests = {
        store_digest({ParamKey(0, 0, "weight"): values.reshape(shape)})
        for shape in ((4,), (2, 2), (1, 4), (4, 1))
    }
    assert len(digests) == 4


def test_digest_distinguishes_negative_zero():
    a = {ParamKey(0, 0, "weight"): np.array([0.0])}
    b = {ParamKey(0, 0, "weight"): np.array([-0.0])}
    assert store_digest(a) != store_digest(b)


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


# The header of a log of ``sample_events``: one decision per probability row.
SAMPLE_HEADER = event_header(["layer0", "learning_rate"], [2, 3])
SAMPLE_LINE = SAMPLE_HEADER.encode() + b"\n"  # as the log holds it


def sample_events(n):
    return [
        EventRecord(
            meta_step=step,
            candidates=[
                {"selection": [1, 0], "accuracy": 0.75, "cost": 16.0, "reward": 0.5 + 0.01 * step},
                {"selection": [0, 2], "accuracy": 0.5, "cost": 8.0, "reward": 0.5 + 0.01 * step},
            ],
            advantage_baseline=0.39 + 0.01 * step,
            mean_reward=0.5 + 0.01 * step,
            baseline=0.4 + 0.01 * step,
            probabilities=[[0.25, 0.75], [0.1, 0.2, 0.7]],
            commits=[[0, 1], [1, 2]],
            store_digest="00" * 8,
            wall_ms=1.5,
        )
        for step in range(n)
    ]


def _log_text(events, header=SAMPLE_HEADER):
    """The text of an event log of ``header`` (none when None), then ``events``."""
    lines = ([] if header is None else [header]) + [event.to_json() for event in events]
    return "".join(line + "\n" for line in lines)


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_log_text(sample_events(5)))
    header, records = read_events(str(path))
    assert header["decisions"] == [
        {"label": "layer0", "cardinality": 2},
        {"label": "learning_rate", "cardinality": 3},
    ]
    assert len(records) == 5
    assert records[3].meta_step == 3
    assert records[3].mean_reward == 0.53  # float round-trips exactly
    for record in records:
        for probs in record.probabilities:
            assert abs(sum(probs) - 1.0) < 1e-9


def test_event_log_without_header(tmp_path):
    # Line 1 is the header: a log that starts with a record is refused.
    path = tmp_path / "events.jsonl"
    path.write_text(_log_text(sample_events(2), header=None))
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 1: event log format version None is not 3"


def test_events_are_single_line_json_and_the_log_hash_keeps_running(tmp_path):
    path = tmp_path / "events.jsonl"
    with open_events(str(path), [SAMPLE_LINE]) as log:
        for event in sample_events(2):
            write_event(log, event)
            assert log.sha256.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    raw = path.read_text()
    assert raw.count("\n") == 3
    assert json.loads(raw.splitlines()[2])["meta_step"] == 1


def test_event_record_round_trips_through_its_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    events = sample_events(3)
    path.write_text(_log_text(events))
    first = path.read_text().splitlines()[1]
    assert list(json.loads(first)) == [
        "meta_step", "candidates", "advantage_baseline", "mean_reward", "baseline",
        "probabilities", "commits", "store_digest", "wall_ms",
    ]
    assert list(json.loads(first)["candidates"][0]) == ["selection", "accuracy", "cost", "reward"]
    assert read_events(str(path))[1] == events


@pytest.mark.parametrize("edit", ["missing", "unknown", "not-an-object"])
def test_event_record_with_other_keys_names_the_file_and_line(tmp_path, edit):
    path = tmp_path / "events.jsonl"
    doc = json.loads(sample_events(1)[0].to_json())
    if edit == "missing":
        del doc["wall_ms"]
    elif edit == "unknown":
        doc["wall_s"] = 0.0
    else:
        doc = [doc]
    path.write_text(SAMPLE_HEADER + "\n" + json.dumps(doc) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert f"{path}: line 2 is not an event record" in str(err.value)


def test_event_log_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(SAMPLE_HEADER.encode() + b"\n\xff\xfe\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value).startswith(f"{path}: not UTF-8 text (")


@pytest.mark.parametrize(
    "decisions",
    [
        [{"cardinality": 2}],
        [{"label": 0, "cardinality": 2}],
        [{"label": "layer0"}],
        [{"label": "layer0", "cardinality": "2"}],
        [{"label": "layer0", "cardinality": True}],
        [{"label": "layer0", "cardinality": 0}],
        [{"label": "layer0", "cardinality": 2.0}],
        ["layer0"],
        {"label": "layer0", "cardinality": 2},
    ],
)
def test_event_log_header_decisions_need_a_label_and_a_cardinality(tmp_path, decisions):
    path = tmp_path / "events.jsonl"
    header = {"format_version": 3, "decisions": decisions}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == (
        f"{path}: line 1: header decisions are not objects with a string label "
        "and a positive integer cardinality"
    )


@pytest.mark.parametrize("label", ["a/b", "../x", "", "a b", "layer\n0", "é"])
def test_event_log_header_labels_must_be_able_to_name_a_file(tmp_path, label):
    path = tmp_path / "events.jsonl"
    decisions = [{"label": "layer0", "cardinality": 2}, {"label": label, "cardinality": 3}]
    header = {"format_version": 3, "decisions": decisions}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == (
        f"{path}: line 1: header decision label {label!r} is not letters, digits, '_' and '-'"
    )


@pytest.mark.parametrize(
    "probabilities, message",
    [
        ([[0.5, 0.5], [0.2, 0.3, 0.5], [1.0]], "row lengths [2, 3, 1]"),
        ([[0.5, 0.5]], "row lengths [2]"),
        ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], "row lengths [3, 3]"),
        ([[0.5, 0.5], []], "probabilities are not a list of non-empty lists"),
        ([[0.5, 0.5], 0.5], "probabilities are not a list of non-empty lists"),
        ({"layer0": [0.5, 0.5]}, "probabilities are not a list of non-empty lists"),
    ],
)
def test_event_record_probabilities_follow_the_header(tmp_path, probabilities, message):
    path = tmp_path / "events.jsonl"
    events = sample_events(2)
    events[1].probabilities = probabilities
    path.write_text(_log_text(events))
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value).startswith(f"{path}: line 3: ")
    assert message in str(err.value)


def test_event_records_without_a_header_are_refused_at_line_1(tmp_path):
    # No record's shape stands in for the header: line 1 is refused before
    # the third record's row lengths are compared with anything.
    path = tmp_path / "events.jsonl"
    events = sample_events(3)
    events[2].probabilities = [[0.25, 0.75], [0.5, 0.5]]
    path.write_text(_log_text(events, header=None))
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 1: event log format version None is not 3"


def _sample_log_lines():
    return [SAMPLE_HEADER] + [event.to_json() for event in sample_events(3)]


def _edit_header(**edits):
    def edit(lines):
        header = json.loads(lines[0])
        for name, value in edits.items():
            if value is None:
                del header[name]
            else:
                header[name] = value
        lines[0] = json.dumps(header)
    return edit


def _add_decision_key(lines):
    header = json.loads(lines[0])
    header["decisions"][1]["default"] = 0
    lines[0] = json.dumps(header)


NO_RECORD = "is not an event record with exactly the fields"

# Edits of a log of a header and three records (lines 1 to 4), each with the
# line and the message ``read_events`` must refuse it with.
LOG_DEFECTS = {
    **{
        f"version-{name}": (
            _edit_header(format_version=value), 1, f"event log format version {value!r} is not 3"
        )
        for name, value in [("2", 2), ("4", 4), ("text", "3"), ("true", True), ("float", 3.0)]
    },
    "version-missing": (
        _edit_header(format_version=None), 1, "event log format version None is not 3"
    ),
    "header-not-an-object": (
        lambda lines: lines.__setitem__(0, "[3]"), 1, "event log format version None is not 3"
    ),
    "decisions-missing": (
        _edit_header(decisions=None), 1, "event log header lacks field decisions"
    ),
    "header-extra-key": (_edit_header(run="x"), 1, "event log header holds an unknown field run"),
    "decision-extra-key": (
        _add_decision_key, 1, "event log header holds an unknown field decisions.1.default"
    ),
    "blank-first": (lambda lines: lines.insert(0, ""), 1, "malformed JSON on line 1"),
    "blank-middle": (lambda lines: lines.insert(2, ""), 3, "malformed JSON on line 3"),
    "blank-last": (lambda lines: lines.append(""), 5, "malformed JSON on line 5"),
    "header-after-a-record": (lambda lines: lines.insert(2, lines[0]), 3, NO_RECORD),
    "header-twice": (lambda lines: lines.insert(1, lines[0]), 2, NO_RECORD),
}


@pytest.mark.parametrize("defect", LOG_DEFECTS)
def test_event_log_is_read_only_as_it_is_written(tmp_path, defect):
    path = tmp_path / "events.jsonl"
    edit, line, message = LOG_DEFECTS[defect]
    lines = _sample_log_lines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    if message.startswith("malformed JSON"):
        assert str(err.value).startswith(f"{path}: {message} (")
    elif message == NO_RECORD:
        assert str(err.value).startswith(f"{path}: line {line} {message}")
    else:
        assert str(err.value) == f"{path}: line {line}: {message}"


def test_empty_event_log_is_refused(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 1: event log is empty, without its header"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("meta_step", "soon", "meta_step 'soon' is not 2"),
        ("meta_step", True, "meta_step True is not 2"),
        ("meta_step", -1, "meta_step -1 is not 2"),
        ("meta_step", 2.0, "meta_step 2.0 is not 2"),
        ("meta_step", 1, "meta_step 1 is not 2"),  # a repeated step
        ("meta_step", 3, "meta_step 3 is not 2"),  # a skipped step
        ("store_digest", 7, "store_digest 7 is not 16 lowercase hex digits"),
        ("store_digest", "xyz", "store_digest 'xyz' is not 16 lowercase hex digits"),
        ("store_digest", "AB" * 8, f"store_digest {'AB' * 8!r} is not 16 lowercase hex digits"),
        ("store_digest", "0" * 17, f"store_digest {'0' * 17!r} is not 16 lowercase hex digits"),
    ],
)
def test_event_record_steps_follow_on_and_digests_are_hex(tmp_path, field, value, message):
    path = tmp_path / "events.jsonl"
    lines = [SAMPLE_HEADER] + [event.to_json() for event in sample_events(3)]
    record = json.loads(lines[3])
    record[field] = value
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 4: {message}"


def test_event_log_starts_at_step_zero(tmp_path):
    # A run logs every step from 0, a resumed one too: a resume reads them back.
    path = tmp_path / "events.jsonl"
    events = [replace(event, meta_step=event.meta_step + 7) for event in sample_events(3)]
    path.write_text(_log_text(events))
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 2: meta_step 7 is not 0"


def _candidate(**edits):
    def edit(record):
        record["candidates"][1].update(edits)
        for name in [n for n, v in edits.items() if v is None]:
            del record["candidates"][1][name]
    return edit


WITHIN = "is not one index per decision within [2, 3]"

# Edits of the candidates and commits of a record, and the message each is refused with.
CANDIDATE_DEFECTS = {
    "candidates-not-a-list": (
        lambda r: r.update(candidates={"0": r["candidates"][0]}),
        "candidates and commits are not lists",
    ),
    "commits-not-a-list": (lambda r: r.update(commits=None), "candidates and commits are not lists"),
    "candidate-not-an-object": (
        lambda r: r["candidates"].__setitem__(1, [[0, 2], 0.5, 8.0, 0.5]),
        "event record lacks field candidates.1.selection",
    ),
    "candidate-field-missing": (
        _candidate(cost=None), "event record lacks field candidates.1.cost"
    ),
    "candidate-field-unknown": (
        _candidate(loss=0.3), "event record holds an unknown field candidates.1.loss"
    ),
    "selection-out-of-range": (_candidate(selection=[0, 3]), f"candidates.1.selection [0, 3] {WITHIN}"),
    "selection-negative": (_candidate(selection=[-1, 0]), f"candidates.1.selection [-1, 0] {WITHIN}"),
    "selection-short": (_candidate(selection=[0]), f"candidates.1.selection [0] {WITHIN}"),
    "selection-float": (_candidate(selection=[0, 1.0]), f"candidates.1.selection [0, 1.0] {WITHIN}"),
    "selection-bool": (_candidate(selection=[True, 0]), f"candidates.1.selection [True, 0] {WITHIN}"),
    "commit-out-of-range": (
        lambda r: r["commits"].__setitem__(0, [2, 0]), f"commits.0 [2, 0] {WITHIN}"
    ),
    "commit-not-a-list": (lambda r: r["commits"].__setitem__(1, 5), f"commits.1 5 {WITHIN}"),
    **{
        f"{name}-{label}": (
            _candidate(**{name: value}),
            "field candidates holds a value that is not a finite number",
        )
        for name in ("accuracy", "cost", "reward")
        for label, value in (("text", "0.5"), ("bool", True), ("too-large", 10**400))
    },
    **{
        f"{name}-{label}": (
            _candidate(**{name: value}),
            "field candidates holds a value that is not a finite number",
        )
        for name in ("accuracy", "cost", "reward")
        for label, value in (("nan", math.nan), ("inf", math.inf))
    },
    "advantage-baseline-text": (
        lambda r: r.update(advantage_baseline="0.4"),
        "field advantage_baseline holds a value that is not a finite number",
    ),
    "advantage-baseline-nan": (
        lambda r: r.update(advantage_baseline=math.nan),
        "field advantage_baseline holds a value that is not a finite number",
    ),
}


@pytest.mark.parametrize("defect", CANDIDATE_DEFECTS)
def test_event_record_candidates_and_commits_follow_the_header(tmp_path, defect):
    path = tmp_path / "events.jsonl"
    edit, message = CANDIDATE_DEFECTS[defect]
    lines = _sample_log_lines()
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == f"{path}: line 3: {message}"


def test_non_finite_event_record_is_not_written(tmp_path):
    event = sample_events(1)[0]
    event.mean_reward = float("nan")
    with pytest.raises(ValueError):
        event.to_json()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _with_logit(state, d, j, value):
    """``state`` as a new controller state whose logit ``j`` of decision
    ``d`` is ``value``: its logit rows are read-only."""
    logits = [z.copy() for z in state.logits]
    logits[d][j] = value
    return ControllerState(logits, state.baseline, state.m, state.v)


def sample_checkpoint():
    store = small_store()
    key = ParamKey(0, 1, "weight")
    slot = fresh_slot("adam", store[key])
    slot["step"] = 3
    slot["m"][:] = 0.25
    slots = {("adam", key): slot}
    return Checkpoint(
        config_echo={"search": {"total_meta_steps": 7}},
        meta_step=4,
        controller=ControllerState(
            logits=[np.array([0.1, -0.2]), np.array([0.0, 0.5, -0.5])],
            baseline=0.61,
            m=[np.array([0.125, -0.0]), np.array([-0.25, 0.0, 2.0**-1074])],
            v=[np.array([0.5, 0.0]), np.array([1.0, 2.0, 3.0])],
        ),
        store=store,
        commit_slots=slots,
        store_digest=store_digest(store),
        log_sha256="ab" * 32,
    )


# Every array of ``sample_checkpoint`` by name, in file order.
SAMPLE_ARRAYS = [
    "store/0/1/bias",
    "store/0/1/weight",
    "store/1/0/weight",
    "controller/0",
    "controller/1",
    "commit_slots/adam|0/1/weight/m",
    "commit_slots/adam|0/1/weight/step",
    "commit_slots/adam|0/1/weight/v",
]


def _parts(path):
    """The header, array bytes and digest of the checkpoint file at ``path``."""
    data = path.read_bytes()
    newline = data.index(b"\n")
    return json.loads(data[:newline]), bytearray(data[newline + 1 : -64]), data[-64:]


def _write(path, header, blob, digest=None):
    """Write a checkpoint file from its parts; without ``digest``, seal it
    with the SHA-256 of the bytes before it, as ``save_checkpoint`` does."""
    body = json.dumps(header, sort_keys=True).encode() + b"\n" + bytes(blob)
    path.write_bytes(body + (digest or hashlib.sha256(body).hexdigest().encode()))


def _spans(header):
    """Byte offset and length of each array in the blob, by name."""
    spans, offset = {}, 0
    for name, shape in header["arrays"]:
        spans[name] = (offset, 8 * int(np.prod(shape)))
        offset += spans[name][1]
    return spans


def _arrays(header, blob):
    """Each array of the blob, by name, in file order."""
    return {
        name: np.frombuffer(bytes(blob), "<f8", size // 8, offset).reshape(shape)
        for (name, shape), (offset, size) in zip(header["arrays"], _spans(header).values())
    }


def _write_arrays(path, header, arrays):
    """Write ``header`` with ``arrays`` (name to array, in file order) in
    place of its own, and seal it."""
    header = {**header, "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()]}
    blob = b"".join(np.ascontiguousarray(arr, "<f8").tobytes() for arr in arrays.values())
    _write(path, header, blob)


def _nudge(blob, offset):
    """Move the float64 at ``offset`` of ``blob`` one ulp up, in place."""
    value = np.frombuffer(blob, dtype="<f8", count=1, offset=offset)[0]
    blob[offset : offset + 8] = np.array([np.nextafter(value, np.inf)], dtype="<f8").tobytes()


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(str(first), sample_checkpoint())
    loaded = load_checkpoint(str(first))
    save_checkpoint(str(second), loaded)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "edit, name",
    [
        pytest.param(
            lambda c: setattr(c, "controller", _with_logit(c.controller, 1, 2, float("inf"))),
            "controller/1",
            id="logit",
        ),
        pytest.param(
            lambda c: c.controller.m[0].__setitem__(1, float("nan")), "controller/0", id="m"
        ),
        pytest.param(
            lambda c: c.controller.v[1].__setitem__(0, float("-inf")), "controller/1", id="v"
        ),
        pytest.param(
            lambda c: setattr(c.controller, "baseline", float("nan")), None, id="baseline"
        ),
    ],
)
def test_checkpoint_with_a_non_finite_number_is_not_written(tmp_path, edit, name):
    path = tmp_path / "ck.ckpt"
    ckpt = sample_checkpoint()
    edit(ckpt)
    with pytest.raises(ValueError) as err:
        save_checkpoint(str(path), ckpt)
    if name is not None:
        assert str(err.value) == f"{path}: {name}: holds a value that is not a finite number"
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_restores_every_field(tmp_path):
    path = tmp_path / "ck.ckpt"
    original = sample_checkpoint()
    save_checkpoint(str(path), original)
    loaded = load_checkpoint(str(path))
    assert loaded.meta_step == 4
    assert loaded.controller.baseline == 0.61
    assert loaded.config_echo == original.config_echo
    assert loaded.store_digest == original.store_digest
    assert loaded.log_sha256 == original.log_sha256
    for name in ("logits", "m", "v"):  # bit for bit, -0.0 and subnormals too
        got, want = (getattr(state, name) for state in (loaded.controller, original.controller))
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want], name
    for key in original.store:
        assert np.array_equal(loaded.store[key], original.store[key])
    key = ParamKey(0, 1, "weight")
    slot = loaded.commit_slots["adam", key]
    assert slot["step"] == 3
    assert np.array_equal(slot["m"], np.full((2, 3), 0.25))


def test_checkpoint_round_trips_adversarial_floats(tmp_path):
    nasty = np.array(
        [0.1, 1e-300, 1e300, np.nextafter(1.0, 2.0), -0.0, 2.0**-1074]
    )
    ckpt = sample_checkpoint()
    ckpt.store[ParamKey(2, 0, "weight")] = nasty
    ckpt.store_digest = store_digest(ckpt.store)
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), ckpt)
    loaded = load_checkpoint(str(path))
    restored = loaded.store[ParamKey(2, 0, "weight")]
    assert np.array_equal(
        restored.view(np.uint64), nasty.view(np.uint64)
    )  # bitwise, not just numerically equal


def test_checkpoint_tamper_detection(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, digest = _parts(path)
    _nudge(blob, 0)
    _write(path, header, blob, digest)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert "digest" in str(err.value)


def test_checkpoint_arrays_are_raw_float64(tmp_path):
    path = tmp_path / "ck.ckpt"
    original = sample_checkpoint()
    save_checkpoint(str(path), original)
    data = path.read_bytes()
    header, blob, digest = _parts(path)
    assert data.count(b"\n", 0, data.index(b"\n") + 1) == 1
    assert digest == hashlib.sha256(data[:-64]).hexdigest().encode()
    assert [name for name, _ in header["arrays"]] == SAMPLE_ARRAYS
    want = {f"store/{key.text()}": value for key, value in original.store.items()}
    spans = _spans(header)
    for name, shape in header["arrays"]:
        offset, size = spans[name]
        if name in want:
            assert shape == list(want[name].shape)
            assert bytes(blob[offset : offset + size]) == want[name].astype("<f8").tobytes()
    assert sum(size for _, size in spans.values()) == len(blob)
    loaded = load_checkpoint(str(path))
    logits = loaded.controller.logits
    arrays = list(loaded.store.values())
    arrays += loaded.controller.m + loaded.controller.v
    for _, slot in loaded.commit_slots.items():
        arrays += [v for v in slot.values() if not isinstance(v, int)]
    assert len(arrays) == 3 + 4 + 2  # store, controller m and v rows, commit m and v
    # Only the controller's Adam step writes the logits: their rows are read-only.
    assert all(arr.flags.writeable for arr in arrays)
    assert not any(z.flags.writeable for z in logits)
    for arr in arrays + logits:
        assert arr.dtype == np.float64 and arr.dtype.isnative
        assert arr.flags.c_contiguous
        # Each owns its data or, as the controller's do, views a table that does.
        owner = arr if arr.flags.owndata else arr.base
        assert isinstance(owner, np.ndarray) and owner.flags.owndata


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    header["format_version"] = 99
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert "version" in str(err.value)


def test_checkpoint_document_carries_digest(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, _, digest = _parts(path)
    assert header["store_digest"] == store_digest(sample_checkpoint().store)
    assert digest == hashlib.sha256(path.read_bytes()[:-64]).hexdigest().encode()


def test_checkpoint_allows_no_network(tmp_path):
    ckpt = sample_checkpoint()
    ckpt.store = {}
    ckpt.store_digest = store_digest({})
    ckpt.commit_slots = {}
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), ckpt)
    loaded = load_checkpoint(str(path))
    assert loaded.store == {}


def test_checkpoint_rejects_every_flipped_byte(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    pristine = path.read_bytes()
    for index in range(len(pristine)):
        for mask in (0x01, 0x80):
            flipped = bytearray(pristine)
            flipped[index] ^= mask
            path.write_bytes(bytes(flipped))
            with pytest.raises(ValueError):
                load_checkpoint(str(path))


def test_checkpoint_rejects_every_truncation(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    pristine = path.read_bytes()
    for length in range(len(pristine)):
        path.write_bytes(pristine[:length])
        with pytest.raises(ValueError):
            load_checkpoint(str(path))


def _through(header, blob, name):
    """The header and blob cut after array ``name``, so it is the last one."""
    names = [n for n, _ in header["arrays"]]
    keep = names.index(name) + 1
    offset, size = _spans(header)[name]
    return {**header, "arrays": header["arrays"][:keep]}, blob[: offset + size]


ARRAY_SITES = [
    "store/0/1/bias",
    "commit_slots/adam|0/1/weight/m",
    "controller/0",
]


@pytest.mark.parametrize("site", ARRAY_SITES, ids=str)
@pytest.mark.parametrize(
    "malform, message",
    [
        pytest.param(lambda shape, data: (shape, data + b"\n"), "1 bytes follow", id="newline"),
        pytest.param(lambda shape, data: (shape, data[4:]), "bytes left do not hold", id="short"),
        pytest.param(
            lambda shape, data: (shape + [2], data), "bytes left do not hold", id="wrong-shape"
        ),
        pytest.param(
            lambda shape, data: ([float(d) for d in shape], data), "shape", id="float-shape"
        ),
        pytest.param(lambda shape, data: ([str(d) for d in shape], data), "shape", id="text-shape"),
        pytest.param(lambda shape, data: ([True] * len(shape), data), "shape", id="bool-shape"),
        pytest.param(lambda shape, data: (-1, data), "shape", id="scalar-shape"),
        pytest.param(
            lambda shape, data: (
                {"shape": shape, "values": np.frombuffer(data, dtype="<f8").tolist()}, data
            ),
            "shape",
            id="v3-array",
        ),
    ],
)
def test_checkpoint_rejects_a_malformed_array(tmp_path, site, malform, message):
    # The array is made the last one and the file re-sealed, so the load gets
    # past the file digest and a size error can only be the site's.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob = _through(*_parts(path)[:2], site)
    offset, size = _spans(header)[site]
    entry = header["arrays"][-1]
    entry[1], data = malform(entry[1], bytes(blob[offset:]))
    _write(path, header, blob[:offset] + data)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    text = str(err.value)
    assert text.startswith(f"{path}: {site}: ") and message in text


def test_checkpoint_reports_bytes_after_the_last_array(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    _write(path, header, blob + bytes(8))
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value).startswith(f"{path}: {SAMPLE_ARRAYS[-1]}: 8 bytes follow")


HEADER_FIELDS = [
    "config", "meta_step", "controller", "store_digest", "log_sha256", "arrays", "controller.baseline"
]


@pytest.mark.parametrize("field", HEADER_FIELDS)
def test_checkpoint_names_a_missing_header_field(tmp_path, field):
    # Re-sealed, so the load gets past the file digest to the header itself.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    *parents, name = field.split(".")
    owner = header
    for part in parents:
        owner = owner[part]
    del owner[name]
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint header lacks field {field}"


@pytest.mark.parametrize(
    "field, value",
    [
        ("commit_slots", {"adam|0/1/weight": {"step": 999}}),  # a version-7 leftover
        ("slots", {}),
        ("controller.step", 7),
        ("controller.slots", {}),
        ("controller.logits", [[0.1, -0.2]]),
    ],
)
def test_checkpoint_names_an_unknown_header_field(tmp_path, field, value):
    # The header holds exactly the fields ``save_checkpoint`` writes; re-sealed,
    # so the load gets past the file digest to the header itself.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    *parents, name = field.split(".")
    owner = header
    for part in parents:
        owner = owner[part]
    owner[name] = value
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint header holds an unknown field {field}"


@pytest.mark.parametrize(
    "edit, message",
    [
        *[
            pytest.param(
                lambda h, v=value: h.update(meta_step=v),
                "checkpoint header field meta_step is not a non-negative integer",
                id=f"meta-step-{name}",
            )
            for name, value in [("negative", -2), ("float", 4.0), ("text", "4"), ("bool", True)]
        ],
        *[
            pytest.param(
                lambda h, v=value: h["controller"].update(baseline=v),
                "checkpoint header field controller.baseline is not a finite number",
                id=f"baseline-{name}",
            )
            for name, value in [
                ("nan", float("nan")), ("inf", float("inf")), ("text", "0.61"), ("bool", False),
                ("too-large", 10**400),
            ]
        ],
        *[
            pytest.param(
                lambda h, v=value: h.update(log_sha256=v),
                "checkpoint header field log_sha256 is not 64 lowercase hex digits",
                id=f"log-sha256-{name}",
            )
            for name, value in [
                ("empty", ""), ("short", "ab" * 31), ("long", "ab" * 33), ("upper", "AB" * 32),
                ("not-hex", "g" * 64), ("number", 7), ("null", None), ("newline", "ab" * 32 + "\n"),
            ]
        ],
    ],
)
def test_checkpoint_names_a_malformed_header_field(tmp_path, edit, message):
    # Re-sealed, so the load gets past the file digest to the header itself.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    edit(header)
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "old, renamed",
    [
        *(("store/0/1/bias", name) for name in [
            "heads/weight", "head", "controller/slots", "commit_slots", "store/0/x/weight",
            "store/0/1", "controller/2", "controller/00", "controller", "history/floats",
            "history",
        ]),
        # An array added beside the others: format 9's frozen head and format
        # 10's reward history among them.
        *((None, name) for name in ["head/weight", "head/bias", "history/ints", "history/reals"]),
        # Decision 0's array under another name, format 8's among them.
        *(("controller/0", name) for name in [
            "controller/logits/0", "controller/slots/adam|0/m", "controller/slots/momentum|0/m",
            "controller/+0", "controller/m", "controller/0/m",
        ]),
    ],
)
def test_checkpoint_names_an_array_of_no_known_section(tmp_path, old, renamed):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    if old is None:
        _write_arrays(path, header, {renamed: np.zeros((2, 2)), **_arrays(header, blob)})
    else:
        names = [name for name, _ in header["arrays"]]
        header["arrays"][names.index(old)][0] = renamed
        _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {renamed}: array belongs to no known section"


@pytest.mark.parametrize("added", ["commit_slots/adam|0/1/bias/m"])
def test_checkpoint_loads_a_slot_of_any_key_and_the_layout_names_it(tmp_path, added):
    # Which commit slots a file may hold depends on the run, so the loader
    # takes the slot as written and ``check_layout`` names it against the
    # run's state. (A controller array of no decision the loader refuses.)
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    _write_arrays(path, header, {**_arrays(header, blob), added: np.zeros((2, 2))})
    with pytest.raises(ValueError) as err:
        check_layout(str(path), sample_checkpoint(), load_checkpoint(str(path)))
    assert str(err.value) == (
        f"{path}: {added}: checkpoint holds shape [2, 2], the run holds nothing"
    )


# A slot array renamed, and the slot name the loader refuses in it.
@pytest.mark.parametrize(
    "old, new, slot",
    [
        ("commit_slots/adam|0/1/weight/m", "commit_slots/adam|0/01/weight/m", "adam|0/01/weight"),
        ("commit_slots/adam|0/1/weight/v", "commit_slots/adam|x/1/weight/v", "adam|x/1/weight"),
        ("commit_slots/adam|0/1/weight/step", "commit_slots/adam|0/1/step", "adam|0/1"),
        ("commit_slots/adam|0/1/weight/m", "commit_slots/adam0/1/weight/m", "adam0/1/weight"),
    ],
)
def test_checkpoint_names_a_malformed_slot_name(tmp_path, old, new, slot):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    names = [name for name, _ in header["arrays"]]
    header["arrays"][names.index(old)][0] = new
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {new}: slot name {slot!r} is not family|key"


@pytest.mark.parametrize("site", ["commit_slots/adam|0/1/weight/step"])
@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 0.0, -1.0, 2.5, -0.0, 1e-300, 2.0**53 + 2, 1e300], ids=str
)
def test_checkpoint_names_a_slot_count_that_is_not_a_whole_number_from_one(tmp_path, site, value):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    _write_arrays(path, header, {**_arrays(header, blob), site: np.array(value)})
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == (
        f"{path}: {site}: holds a value that is not a whole number from 1 to 2^53"
    )


@pytest.mark.parametrize("value", [1, 2**53])
def test_checkpoint_restores_slot_counts_up_to_two_to_the_53(tmp_path, value):
    path = tmp_path / "ck.ckpt"
    ckpt = sample_checkpoint()
    ckpt.commit_slots["adam", ParamKey(0, 1, "weight")]["step"] = value
    save_checkpoint(str(path), ckpt)
    header, blob, _ = _parts(path)
    assert dict(header["arrays"])["commit_slots/adam|0/1/weight/step"] == []
    assert _arrays(header, blob)["commit_slots/adam|0/1/weight/step"] == value
    step = load_checkpoint(str(path)).commit_slots["adam", ParamKey(0, 1, "weight")]["step"]
    assert type(step) is int and step == value


def _with(arrays, name, index, value):
    """A copy of ``arrays`` whose array ``name`` holds ``value`` at ``index``."""
    arr = arrays[name].copy()
    arr[index] = value
    return {**arrays, name: arr}


def _moved_last(arrays, name):
    return {**_without(arrays, name), name: arrays[name]}


def _without(arrays, *names):
    return {name: arr for name, arr in arrays.items() if name not in names}


NOT_FINITE = "holds a value that is not a finite number"
NOT_THREE_ROWS = "not [3, cardinality]"


def _renamed(arrays, old, new):
    return {new if name == old else name: arr for name, arr in arrays.items()}


# Edits of ``sample_checkpoint``'s arrays, re-sealed, with the array each
# names and the error. Its two decisions have 2 and 3 candidates, each one
# ``controller/<d>`` array of 3 rows (logits, Adam m and v). Besides these
# arrays' own checks, the loader refuses a controller array that is not 3
# rows; how many controller arrays a file holds ``check_layout`` compares.
@pytest.mark.parametrize(
    "edit, name, message",
    [
        pytest.param(
            lambda a: _with(a, "controller/0", (0, 1), np.nan),
            "controller/0",
            NOT_FINITE,
            id="logits-nan",
        ),
        pytest.param(
            lambda a: _with(a, "controller/1", (0, 2), -np.inf),
            "controller/1",
            NOT_FINITE,
            id="logits-inf",
        ),
        pytest.param(
            lambda a: _moved_last(a, "controller/0"),
            "controller/1",
            "array belongs to no known section",
            id="controller-out-of-order",
        ),
        pytest.param(
            lambda a: _with(a, "controller/0", (1, 1), np.nan),
            "controller/0",
            NOT_FINITE,
            id="m-nan",
        ),
        pytest.param(
            lambda a: _with(a, "controller/1", (2, 0), np.inf),
            "controller/1",
            NOT_FINITE,
            id="v-inf",
        ),
        pytest.param(
            lambda a: _with(a, "commit_slots/adam|0/1/weight/v", (1, 2), np.inf),
            "commit_slots/adam|0/1/weight/v",
            NOT_FINITE,
            id="commit-slot-inf",
        ),
        pytest.param(
            lambda a: {**a, "controller/0": a["controller/0"][0]},
            "controller/0",
            f"checkpoint holds shape [2], {NOT_THREE_ROWS}",
            id="controller-vector",
        ),
        pytest.param(
            lambda a: {**a, "controller/1": np.array(0.5)},
            "controller/1",
            f"checkpoint holds shape [], {NOT_THREE_ROWS}",
            id="controller-scalar",
        ),
        pytest.param(
            lambda a: {**a, "controller/1": a["controller/1"][:2]},
            "controller/1",
            f"checkpoint holds shape [2, 3], {NOT_THREE_ROWS}",
            id="controller-two-rows",
        ),
        pytest.param(
            lambda a: {**a, "controller/0": np.vstack([a["controller/0"], np.zeros(2)])},
            "controller/0",
            f"checkpoint holds shape [4, 2], {NOT_THREE_ROWS}",
            id="controller-four-rows",
        ),
        pytest.param(
            lambda a: {**a, "controller/1": a["controller/1"][:, :, None]},
            "controller/1",
            f"checkpoint holds shape [3, 3, 1], {NOT_THREE_ROWS}",
            id="controller-3-d",
        ),
        pytest.param(
            lambda a: {**a, "controller/0": np.zeros((0, 2))},
            "controller/0",
            f"checkpoint holds shape [0, 2], {NOT_THREE_ROWS}",
            id="controller-no-rows",
        ),
    ],
)
def test_checkpoint_names_a_malformed_controller_or_slot_array(tmp_path, edit, name, message):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    _write_arrays(path, header, edit(_arrays(header, blob)))
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {name}: {message}"


@pytest.mark.parametrize(
    "name", ["store/0/1/bias", "controller/1", "commit_slots/adam|0/1/weight/v"]
)
def test_checkpoint_refuses_an_array_named_twice(tmp_path, name):
    # Read into a dict, the first copy would be dropped without a word.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    arrays = _arrays(header, blob)
    header["arrays"] = [[name, list(arrays[name].shape)], *header["arrays"]]
    _write(path, header, arrays[name].tobytes() + bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {name}: the file holds two arrays of this name"


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return float(np.nextafter(value, np.inf))
    if isinstance(value, str):
        return value + "x"
    raise AssertionError(f"no edit for {value!r}")


def test_checkpoint_rejects_an_edit_of_any_leaf(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    pristine, blob, digest = _parts(path)
    leaves = list(_leaf_paths(pristine))
    assert ("controller", "baseline") in leaves
    assert ("store_digest",) in leaves
    assert set(pristine) == {
        "format_version", "config", "meta_step", "controller", "store_digest", "log_sha256", "arrays"
    }
    assert list(pristine["controller"]) == ["baseline"]
    assert ("arrays", 0, 1, 0) in leaves  # a shape
    edits = 0
    for leaf in leaves:
        header = json.loads(json.dumps(pristine))
        parent = header
        for part in leaf[:-1]:
            parent = parent[part]
        parent[leaf[-1]] = _edited(parent[leaf[-1]])
        _write(path, header, blob, digest)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
        edits += 1
    spans = _spans(pristine)
    assert set(spans) == set(SAMPLE_ARRAYS)  # the commit slot's step among them
    for name, (offset, size) in spans.items():
        for element in range(offset, offset + size, 8):
            edited = bytearray(blob)
            _nudge(edited, element)
            _write(path, pristine, edited, digest)
            with pytest.raises(ValueError) as err:
                load_checkpoint(str(path))
            assert "digest" in str(err.value), name
            edits += 1
    assert edits > 50


def test_checkpoint_rejects_edited_logits_and_reset_step(tmp_path):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, digest = _parts(path)
    offset, _ = _spans(header)["controller/1"]
    blob[offset + 16 : offset + 24] = np.array([5.0], dtype="<f8").tobytes()
    header["meta_step"] = 0
    _write(path, header, blob, digest)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert "checkpoint digest" in str(err.value)


def _format_10(arrays):
    """``arrays`` in the format-10 layout: the reward history, one record of
    step 3 selecting (1, 0), after the commit slots."""
    ints, reals = np.array([[3.0, 1.0, 0.0]]), np.array([[0.75, 16.0, 0.7, 0.61]])
    return {**arrays, "history/ints": ints, "history/reals": reals}


def _format_9(arrays):
    """Format-10 ``arrays`` in the format-9 layout: the classifier head after the store."""
    store = {n: a for n, a in arrays.items() if n.startswith("store/")}
    head = {"head/weight": np.array([[0.1, 0.2], [0.3, 0.4]]), "head/bias": np.zeros(2)}
    return {**store, **head, **_without(arrays, *store)}


def _format_8(arrays):
    """Format-9 ``arrays`` in the format-8 layout: each ``controller/<d>``
    split into its logits and an Adam slot at step 5 by ``adam|<d>``, after
    all logits."""
    cut = len("controller/")
    controller = {n[cut:]: a for n, a in arrays.items() if n.startswith("controller/")}
    before = {n: a for n, a in arrays.items() if n.startswith(("store/", "head/"))}
    after = {n: a for n, a in arrays.items() if n.startswith(("commit_slots/", "history/"))}
    logits = {f"controller/logits/{d}": arr[0] for d, arr in controller.items()}
    slots = {
        f"controller/slots/adam|{d}/{name}": value
        for d, arr in controller.items()
        for name, value in (("m", arr[1]), ("step", np.array(5.0)), ("v", arr[2]))
    }
    return {**before, **logits, **slots, **after}


def test_checkpoint_rejects_earlier_versions(tmp_path):
    # Version 1 digests were FNV-1a over text; version 2 lacks the reward
    # history; versions 1-3 store arrays as decimal lists and version 4 as
    # base64. All four are one JSON document on one line. Version 5 has
    # version 6's layout and also holds the controller step, baseline flag and
    # RNG counter. Version 6 holds the logits and the reward history in the
    # header. Version 7 holds them as arrays and each slot's step in the
    # header. Version 8 holds the logits apart from the controller's Adam
    # slots, each with its own step. Version 9 holds the frozen head. Version
    # 10 holds the reward history as arrays and no ``log_sha256``.
    path = tmp_path / "ck.ckpt"
    ckpt = sample_checkpoint()
    save_checkpoint(str(path), ckpt)
    header, blob, _ = _parts(path)
    del header["log_sha256"]
    arrays = _format_10(_arrays(header, blob))
    _write_arrays(path, {**header, "format_version": 10}, arrays)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint format version 10 is not 11"
    arrays = _format_9(arrays)
    _write_arrays(path, {**header, "format_version": 9}, arrays)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint format version 9 is not 11"
    arrays = _format_8(arrays)
    _write_arrays(path, {**header, "format_version": 8}, arrays)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint format version 8 is not 11"
    steps = {name: int(arr) for name, arr in arrays.items() if name.endswith("/step")}
    header["controller"]["slots"] = {"adam|0": {"step": steps["controller/slots/adam|0/step"]}}
    header["commit_slots"] = {"adam|0/1/weight": {"step": steps["commit_slots/adam|0/1/weight/step"]}}
    _write_arrays(path, {**header, "format_version": 7}, _without(arrays, *steps))
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: checkpoint format version 7 is not 11"
    moved = ("controller/logits/", "history/")
    kept = {name: arr for name, arr in _without(arrays, *steps).items() if not name.startswith(moved)}
    header["arrays"] = [[name, list(arr.shape)] for name, arr in kept.items()]
    blob = b"".join(arr.tobytes() for arr in kept.values())
    header["controller"]["logits"] = [z.tolist() for z in ckpt.controller.logits]
    header["reward_history"] = [
        {"meta_step": 3, "selection": [1, 0], "accuracy": 0.75, "cost": 16.0, "reward": 0.7,
         "baseline": 0.61}
    ]
    header["controller"].update(step=4, baseline_initialized=True)
    header["rng"] = {"controller": 88}
    for version in (1, 2, 3, 4, 5, 6):
        for one_line in (True, False):
            doc = {**header, "format_version": version}
            if one_line:
                path.write_text(json.dumps(doc, sort_keys=True))
            else:
                _write(path, doc, blob)
            with pytest.raises(ValueError) as err:
                load_checkpoint(str(path))
            assert f"format version {version}" in str(err.value)


def _sealed(path, step, lines=None):
    """A checkpoint at ``step`` sealing the first ``1 + step`` lines of the
    log at ``path`` (or ``lines``)."""
    lines = path.read_bytes().splitlines(keepends=True) if lines is None else lines
    sha = hashlib.sha256(b"".join(lines[: 1 + step])).hexdigest()
    return replace(sample_checkpoint(), meta_step=step, log_sha256=sha)


def test_resume_events_keeps_header_and_earlier_steps_and_open_events_cuts_the_rest(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_log_text(sample_events(6)) + '{"meta_step": 6, "candi')  # torn by a crash
    full = path.read_bytes()
    lines, records = resume_events(str(path), SAMPLE_LINE, _sealed(path, 4))
    assert path.read_bytes() == full  # reading cuts nothing
    assert b"".join(lines) == b"".join(full.splitlines(keepends=True)[:5])
    assert records == sample_events(4)
    with open_events(str(path), lines) as log:
        assert path.read_bytes() == b"".join(lines)
        write_event(log, sample_events(5)[4])
        assert log.sha256.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert read_events(str(path))[1] == sample_events(5)


def test_resume_events_at_step_zero_keeps_only_the_header_and_takes_a_missing_log_as_it(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_log_text(sample_events(3)))
    ckpt = _sealed(path, 0)
    assert resume_events(str(path), SAMPLE_LINE, ckpt) == ([SAMPLE_LINE], [])
    path.unlink()
    lines, records = resume_events(str(path), SAMPLE_LINE, ckpt)
    assert (lines, records) == ([SAMPLE_LINE], [])
    assert not path.exists()
    with open_events(str(path), lines):
        pass
    assert read_events(str(path)) == (json.loads(SAMPLE_HEADER), [])


def test_resume_events_refuses_a_missing_log_after_step_zero(tmp_path):
    path = tmp_path / "events.jsonl"
    ckpt = replace(sample_checkpoint(), meta_step=3)
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, ckpt)
    assert str(err.value) == f"{path}: event log is missing at resume step 3"


def test_resume_events_refuses_a_log_it_does_not_seal_and_cuts_nothing(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(_log_text(sample_events(4)))
    before = path.read_bytes()
    ckpt = _sealed(path, 3)
    lines = before.splitlines(keepends=True)
    for index, old, new in [
        (1, b'"wall_ms": 1.5', b'"wall_ms": 1.25'),
        (2, b'"accuracy": 0.75', b'"accuracy": 0.5'),
        (3, b'"commits": [[0, 1]', b'"commits": [[1, 1]'),
    ]:
        edited = list(lines)
        edited[index] = lines[index].replace(old, new, 1)
        assert edited[index] != lines[index]
        path.write_bytes(b"".join(edited))
        with pytest.raises(ValueError) as err:
            resume_events(str(path), SAMPLE_LINE, ckpt)
        assert str(err.value) == (
            f"{path}: event log before step 3 does not hash to the checkpoint's log_sha256"
        )
    path.write_bytes(b"".join(lines[:3]))
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, ckpt)
    assert str(err.value) == f"{path}: event log holds no record of step 2"
    path.write_bytes(before)
    other = event_header(["layer0", "rate"], [2, 3])
    with pytest.raises(ValueError) as err:
        resume_events(str(path), other.encode() + b"\n", ckpt)
    assert str(err.value) == f"{path}: line 1: event log header is not the one this run writes"
    assert path.read_bytes() == before


@pytest.mark.parametrize("meta_step", [0, 2])
@pytest.mark.parametrize("defect", ["version-2", "version-missing", "header-not-an-object"])
def test_resume_events_refuses_a_log_of_another_version_and_cuts_nothing(
    tmp_path, defect, meta_step
):
    # Line 1 is JSON but not a version-3 header: the log is refused as it
    # stands, whatever the step.
    path = tmp_path / "events.jsonl"
    edit, _, message = LOG_DEFECTS[defect]
    lines = _sample_log_lines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, _sealed(path, meta_step))
    assert str(err.value) == f"{path}: line 1: {message}"
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("meta_step", True, "meta_step True is not 1"),
        ("meta_step", 1.0, "meta_step 1.0 is not 1"),
        ("store_digest", "D" * 16, f"store_digest {'D' * 16!r} is not 16 lowercase hex digits"),
        ("wall_ms", None, "field wall_ms holds a value that is not a finite number"),
        ("mean_reward", math.inf, "field mean_reward holds a value that is not a finite number"),
        (
            "probabilities",
            [[0.25, 0.75]],
            "probabilities have row lengths [2], not the decisions' cardinalities [2, 3]",
        ),
        ("commits", [[0, 1], [2, 0]], f"commits.1 [2, 0] {WITHIN}"),
    ],
)
def test_resume_events_refuses_a_kept_record_read_events_refuses(tmp_path, field, value, message):
    # ``True == 1`` and ``1.0 == 1``, but ``read_events`` refuses both as a
    # meta_step: even sealed, such a record is refused, and the log kept.
    path = tmp_path / "events.jsonl"
    lines = _sample_log_lines()
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, _sealed(path, 3))
    assert str(err.value) == f"{path}: line 3: {message}"
    assert path.read_bytes() == before
    # A record after the checkpoint's step is not read: it is cut.
    assert resume_events(str(path), SAMPLE_LINE, _sealed(path, 1))[1] == sample_events(1)


@pytest.mark.parametrize("meta_step", [0, 2])
@pytest.mark.parametrize(
    "first, message",
    [
        ('{"format_version": 3, "deci', "malformed JSON on line 1 ("),
        ("", "line 1: event log header is not the one this run writes"),
        ("\n" + SAMPLE_HEADER, "malformed JSON on line 1 ("),
    ],
    ids=["torn", "empty", "blank"],
)
def test_resume_events_refuses_a_torn_or_empty_line_1_and_cuts_nothing(
    tmp_path, first, message, meta_step
):
    # Line 1 is not the run's header, even at step 0, whose checkpoint seals
    # the header alone: the log is refused as it stands, not started afresh.
    path = tmp_path / "events.jsonl"
    path.write_text(first + ("\n" + _log_text(sample_events(3), header=None) if first else ""))
    before = path.read_bytes()
    ckpt = replace(_sealed(path, 0, [SAMPLE_LINE]), meta_step=meta_step)
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, ckpt)
    assert str(err.value).startswith(f"{path}: {message}")
    assert path.read_bytes() == before


def test_resume_events_refuses_a_torn_record_before_the_resume_step(tmp_path):
    # A record torn by a crash mid-write, then records of later steps: the
    # resume is refused at the torn line, whatever the checkpoint seals.
    path = tmp_path / "events.jsonl"
    events = sample_events(4)
    path.write_text(
        _log_text(events[:2]) + '{"meta_step": 2, "candi\n' + _log_text(events[3:], header=None)
    )
    before = path.read_bytes()
    with pytest.raises(ValueError) as err:
        resume_events(str(path), SAMPLE_LINE, _sealed(path, 3))
    assert str(err.value).startswith(f"{path}: malformed JSON on line 4 (")
    assert path.read_bytes() == before
    # Before the torn record, the log resumes.
    assert resume_events(str(path), SAMPLE_LINE, _sealed(path, 2))[1] == sample_events(2)


def test_open_events_is_null_without_a_path_and_writes_a_fresh_log_over_any_file(tmp_path):
    with open_events(None, [b"unused\n"]) as log:
        assert log is None
    path = tmp_path / "a" / "b" / "events.jsonl"
    header = [SAMPLE_LINE]
    with open_events(str(path), header) as log:
        write_event(log, sample_events(1)[0])
    assert read_events(str(path)) == (json.loads(SAMPLE_HEADER), sample_events(1))
    path.write_text(_log_text(sample_events(3), header=SAMPLE_HEADER.replace("layer0", "x")))
    with open_events(str(path), header) as log:
        assert log.sha256.hexdigest() == hashlib.sha256(header[0]).hexdigest()
    assert path.read_bytes() == header[0]
