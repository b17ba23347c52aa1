"""Digest, event log, and checkpoint round-trip tests."""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from jointsearch.controller import ControllerState
from jointsearch.numerics import RngStream
from jointsearch.persist import (
    Checkpoint,
    EventRecord,
    RewardRecord,
    _float_list,
    event_header,
    load_checkpoint,
    open_events,
    read_events,
    save_checkpoint,
    store_digest,
    truncate_events,
    write_event,
)
from jointsearch.space import HyperConfig, LayerConfig, SpaceConfig, build_space
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


def test_float_list_matches_per_element_conversion():
    tiny = 2.0**-1074
    nasty = np.array(
        [
            [0.0, -0.0, tiny, -tiny, 2.0**-1022, np.nextafter(2.0**-1022, 0.0)],
            [np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, 1e308, -1e308, 1e-300],
        ]
    )
    fast = _float_list(nasty)
    slow = [float(v) for v in nasty.reshape(-1)]
    assert all(type(v) is float for v in fast)
    assert [v.hex() for v in fast] == [v.hex() for v in slow]
    assert json.dumps(fast) == json.dumps(slow)


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


# The header of a log of ``sample_events``: one decision per probability row.
SAMPLE_HEADER = event_header(["layer0", "learning_rate"], [2, 3])


def sample_events(n):
    events = []
    for step in range(n):
        events.append(
            EventRecord(
                meta_step=step,
                mean_reward=0.5 + 0.01 * step,
                baseline=0.4 + 0.01 * step,
                probabilities=[[0.25, 0.75], [0.1, 0.2, 0.7]],
                store_digest="00" * 8,
                wall_ms=1.5,
            )
        )
    return events


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for event in sample_events(5):
            write_event(fh, event)
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
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        for event in sample_events(2):
            write_event(fh, event)
    header, records = read_events(str(path))
    assert header is None
    assert len(records) == 2


def test_events_are_single_line_json(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        write_event(fh, sample_events(1)[0])
    raw = path.read_text()
    assert raw.count("\n") == 1
    parsed = json.loads(raw)
    assert parsed["meta_step"] == 0


def test_event_record_round_trips_through_its_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    events = sample_events(3)
    with open(path, "w") as fh:
        for event in events:
            write_event(fh, event)
    first = path.read_text().splitlines()[0]
    assert list(json.loads(first)) == [
        "meta_step", "mean_reward", "baseline", "probabilities", "store_digest", "wall_ms"
    ]
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
    header = {"format_version": 2, "decisions": decisions}
    path.write_text("\n" + json.dumps(header) + "\n")
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == (
        f"{path}: line 2: header decisions are not objects with a string label "
        "and a positive integer cardinality"
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
    with open(path, "w") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for event in events:
            write_event(fh, event)
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value).startswith(f"{path}: line 3: ")
    assert message in str(err.value)


def test_event_records_without_a_header_follow_the_first_record(tmp_path):
    path = tmp_path / "events.jsonl"
    events = sample_events(3)
    events[2].probabilities = [[0.25, 0.75], [0.5, 0.5]]
    with open(path, "w") as fh:
        for event in events:
            write_event(fh, event)
    with pytest.raises(ValueError) as err:
        read_events(str(path))
    assert str(err.value) == (
        f"{path}: line 3: probabilities have row lengths [2, 2], "
        "not the decisions' cardinalities [2, 3]"
    )


def test_non_finite_event_record_is_not_written(tmp_path):
    event = sample_events(1)[0]
    event.mean_reward = float("nan")
    with pytest.raises(ValueError):
        event.to_json()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def sample_checkpoint():
    store = small_store()
    key = ParamKey(0, 1, "weight")
    slot = fresh_slot("adam", store[key])
    slot["step"] = 3
    slot["m"][:] = 0.25
    slots = {("adam", key): slot}
    ctrl_slots = {("adam", 0): {**fresh_slot("adam", np.zeros(2)), "step": 5}}
    return Checkpoint(
        config_echo={"search": {"total_meta_steps": 7}},
        meta_step=4,
        controller=ControllerState(
            logits=[np.array([0.1, -0.2]), np.array([0.0, 0.5, -0.5])],
            baseline=0.61,
            slots=ctrl_slots,
        ),
        store=store,
        head_weight=np.array([[0.1, 0.2], [0.3, 0.4]]),
        head_bias=np.array([0.0, 0.0]),
        commit_slots=slots,
        reward_history=[RewardRecord(3, (1, 0), 0.75, 16.0, 0.7, 0.61)],
        store_digest=store_digest(store),
    )


# Every array of ``sample_checkpoint`` by name, in file order.
SAMPLE_ARRAYS = [
    "store/0/1/bias",
    "store/0/1/weight",
    "store/1/0/weight",
    "head/weight",
    "head/bias",
    "controller/slots/adam|0/m",
    "controller/slots/adam|0/v",
    "commit_slots/adam|0/1/weight/m",
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


def test_checkpoint_with_a_non_finite_number_is_not_written(tmp_path):
    path = tmp_path / "ck.ckpt"
    ckpt = sample_checkpoint()
    ckpt.reward_history[0].accuracy = float("nan")
    with pytest.raises(ValueError):
        save_checkpoint(str(path), ckpt)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_restores_every_field(tmp_path):
    path = tmp_path / "ck.ckpt"
    original = sample_checkpoint()
    save_checkpoint(str(path), original)
    loaded = load_checkpoint(str(path))
    assert loaded.meta_step == 4
    assert loaded.controller.baseline == 0.61
    assert loaded.config_echo == original.config_echo
    assert loaded.reward_history == original.reward_history
    assert loaded.store_digest == original.store_digest
    for a, b in zip(loaded.controller.logits, original.controller.logits):
        assert np.array_equal(a, b)
    for key in original.store:
        assert np.array_equal(loaded.store[key], original.store[key])
    assert np.array_equal(loaded.head_weight, original.head_weight)
    key = ParamKey(0, 1, "weight")
    slot = loaded.commit_slots["adam", key]
    assert slot["step"] == 3
    assert np.array_equal(slot["m"], np.full((2, 3), 0.25))
    ctrl_slot = loaded.controller.slots["adam", 0]
    assert ctrl_slot["step"] == 5


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
    want["head/weight"] = original.head_weight
    want["head/bias"] = original.head_bias
    spans = _spans(header)
    for name, shape in header["arrays"]:
        offset, size = spans[name]
        if name in want:
            assert shape == list(want[name].shape)
            assert bytes(blob[offset : offset + size]) == want[name].astype("<f8").tobytes()
    assert sum(size for _, size in spans.values()) == len(blob)
    loaded = load_checkpoint(str(path))
    arrays = list(loaded.store.values()) + [loaded.head_weight, loaded.head_bias]
    arrays += loaded.controller.logits
    for slots in (loaded.commit_slots, loaded.controller.slots):
        for _, slot in slots.items():
            arrays += [v for v in slot.values() if not isinstance(v, int)]
    assert len(arrays) == 3 + 2 + 2 + 4  # store, head, logits, m and v of two slots
    for arr in arrays:
        assert arr.dtype == np.float64 and arr.dtype.isnative
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata


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
    ckpt.head_weight = None
    ckpt.head_bias = None
    ckpt.commit_slots = {}
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), ckpt)
    loaded = load_checkpoint(str(path))
    assert loaded.head_weight is None
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
    "head/weight",
    "commit_slots/adam|0/1/weight/m",
    "controller/slots/adam|0/v",
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
    "config",
    "meta_step",
    "controller",
    "commit_slots",
    "reward_history",
    "store_digest",
    "arrays",
    "controller.logits",
    "controller.baseline",
    "controller.slots",
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


def _edit_controller_slots(header, value):
    header["controller"]["slots"] = value


def _edit_commit_slots(header, value):
    header["commit_slots"] = value


def _rename_commit_slot(header, name):
    slots = header["commit_slots"]
    slots[name] = slots.pop("adam|0/1/weight")


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda h: _edit_controller_slots(h, [["adam|0", {"step": 5}]]),
            "checkpoint header field controller.slots is not an object",
            id="controller-slots-list",
        ),
        pytest.param(
            lambda h: _edit_commit_slots(h, "adam"),
            "checkpoint header field commit_slots is not an object",
            id="commit-slots-text",
        ),
        pytest.param(
            lambda h: _edit_commit_slots(h, None),
            "checkpoint header field commit_slots is not an object",
            id="commit-slots-null",
        ),
        pytest.param(
            lambda h: _rename_commit_slot(h, "adam|x/1/weight"),
            "commit_slots: slot name 'adam|x/1/weight' is not family|key",
            id="commit-slot-key-text-layer",
        ),
        pytest.param(
            lambda h: _rename_commit_slot(h, "adam|0/1"),
            "commit_slots: slot name 'adam|0/1' is not family|key",
            id="commit-slot-key-short",
        ),
        pytest.param(
            lambda h: _rename_commit_slot(h, "adam|0/01/weight"),
            "commit_slots: slot name 'adam|0/01/weight' is not family|key",
            id="commit-slot-key-not-canonical",
        ),
        pytest.param(
            lambda h: _edit_controller_slots(h, {"adam|00": {"step": 5}}),
            "controller.slots: slot name 'adam|00' is not family|key",
            id="controller-slot-key-not-canonical",
        ),
        pytest.param(
            lambda h: _edit_controller_slots(h, {"adam": {"step": 5}}),
            "controller.slots: slot name 'adam' is not family|key",
            id="controller-slot-key-no-bar",
        ),
        pytest.param(
            lambda h: _edit_commit_slots(h, {"adam|0/1/weight": 3}),
            "checkpoint header field commit_slots.adam|0/1/weight is not an object",
            id="commit-slot-int",
        ),
        pytest.param(
            lambda h: _edit_controller_slots(h, {"adam|0": 5}),
            "checkpoint header field controller.slots.adam|0 is not an object",
            id="controller-slot-int",
        ),
        *[
            pytest.param(
                lambda h, v=value, s=section, n=slot: s(h)[n].update(step=v),
                f"checkpoint header field {where}.{slot}.step is not a positive integer",
                id=f"{where}-adam-step-{name}",
            )
            for where, section, slot in [
                ("controller.slots", lambda h: h["controller"]["slots"], "adam|0"),
                ("commit_slots", lambda h: h["commit_slots"], "adam|0/1/weight"),
            ]
            for name, value in [
                ("text", "x"), ("negative", -3), ("zero", 0), ("float", 1.5), ("bool", True),
                ("null", None),
            ]
        ],
        *[
            pytest.param(
                lambda h, v=value: h["controller"].update(logits=v),
                "checkpoint header field controller.logits is not a list of non-empty lists "
                "of finite numbers",
                id=f"logits-{name}",
            )
            for name, value in [
                ("int", 5),
                ("object", {"0": [0.0]}),
                ("flat", [0.0, 1.0]),
                ("empty-row", [[0.0, 1.0], []]),
                ("text", [["a", "b"]]),
                ("nan", [[float("nan"), 0.0]]),
                ("inf", [[0.0], [float("-inf")]]),
                ("bool", [[True, 0.0]]),
                ("null", [[None]]),
                ("too-large", [[0.0, 10**400]]),
            ]
        ],
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
                edit,
                "checkpoint header field reward_history is not a list of reward records",
                id=f"reward-history-{name}",
            )
            for name, edit in [
                ("int", lambda h: h.update(reward_history=5)),
                ("object", lambda h: h.update(reward_history={"0": {}})),
                ("int-record", lambda h: h.update(reward_history=[5])),
                ("missing-field", lambda h: h["reward_history"][0].pop("selection")),
                ("extra-field", lambda h: h["reward_history"][0].update(loss=0.5)),
                ("int-selection", lambda h: h["reward_history"][0].update(selection=1)),
                ("text-index", lambda h: h["reward_history"][0].update(selection=["1", 0])),
                ("text-accuracy", lambda h: h["reward_history"][0].update(accuracy="0.75")),
                ("null-baseline", lambda h: h["reward_history"][0].update(baseline=None)),
                ("negative-step", lambda h: h["reward_history"][0].update(meta_step=-1)),
                ("nan-accuracy", lambda h: h["reward_history"][0].update(accuracy=float("nan"))),
                ("inf-reward", lambda h: h["reward_history"][0].update(reward=float("-inf"))),
                ("huge-accuracy", lambda h: h["reward_history"][0].update(accuracy=10**400)),
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
    "renamed",
    ["heads/weight", "head", "controller/slots/adam|9/m", "commit_slots/adam|0/1/bias/m",
     "store/0/x/weight", "store/0/1"],
)
def test_checkpoint_names_an_array_of_no_known_section(tmp_path, renamed):
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    names = [name for name, _ in header["arrays"]]
    header["arrays"][names.index("head/weight")][0] = renamed
    _write(path, header, blob)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert str(err.value) == f"{path}: {renamed}: array belongs to no known section"


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
    assert ("controller", "logits", 0, 1) in leaves
    assert ("reward_history", 0, "reward") in leaves
    assert ("store_digest",) in leaves
    assert ("commit_slots", "adam|0/1/weight", "step") in leaves
    assert ("controller", "slots", "adam|0", "step") in leaves
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
    assert set(spans) == set(SAMPLE_ARRAYS)
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
    header["controller"]["logits"][1][2] = 5.0
    header["meta_step"] = 0
    _write(path, header, blob, digest)
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path))
    assert "checkpoint digest" in str(err.value)


def test_checkpoint_rejects_earlier_versions(tmp_path):
    # Version 1 digests were FNV-1a over text; version 2 lacks the reward
    # history; versions 1-3 store arrays as decimal lists and version 4 as
    # base64. All four are one JSON document on one line. Version 5 has this
    # layout and also holds the controller step, baseline flag and RNG counter.
    path = tmp_path / "ck.ckpt"
    save_checkpoint(str(path), sample_checkpoint())
    header, blob, _ = _parts(path)
    header["controller"].update(step=4, baseline_initialized=True)
    header["rng"] = {"controller": 88}
    for version in (1, 2, 3, 4, 5):
        for one_line in (True, False):
            doc = {**header, "format_version": version}
            if one_line:
                path.write_text(json.dumps(doc, sort_keys=True))
            else:
                _write(path, doc, blob)
            with pytest.raises(ValueError) as err:
                load_checkpoint(str(path))
            assert f"format version {version}" in str(err.value)


def test_truncate_events_keeps_header_and_earlier_steps(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for event in sample_events(6):
            write_event(fh, event)
        fh.write('{"meta_step": 6, "mean_re')  # torn by a crash mid-write
    full = path.read_bytes()
    kept = truncate_events(str(path), 4, "00" * 8)
    assert kept == len(path.read_bytes())
    assert full.startswith(path.read_bytes())
    header, records = read_events(str(path))
    assert header is not None
    assert [r.meta_step for r in records] == [0, 1, 2, 3]


def test_truncate_events_at_step_zero_keeps_only_the_header(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for event in sample_events(3):
            write_event(fh, event)
    assert truncate_events(str(path), 0, "unused") == len(SAMPLE_HEADER) + 1
    assert read_events(str(path)) == (json.loads(SAMPLE_HEADER), [])


def test_open_events_is_null_without_a_path_and_creates_the_log_directory(tmp_path):
    rates = HyperConfig("learning_rate", "continuous", (0.01, 0.02, 0.03))
    layers = (LayerConfig(candidates=("identity",) * 2),)
    space = build_space(SpaceConfig(2, 2, layers, (rates,)))  # the decisions of sample_events
    with open_events(None, space, None) as fh:
        assert fh is None
    path = str(tmp_path / "a" / "b" / "events.jsonl")
    with open_events(path, space, None) as fh:
        write_event(fh, sample_events(1)[0])
    header, records = read_events(path)
    assert header == json.loads(event_header(space.labels(), space.cardinalities()))
    assert records == sample_events(1)


def _stale_log(path, steps, digest_of=lambda step: "00" * 8):
    with open(path, "w") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for step in steps:
            event = replace(sample_events(1)[0], meta_step=step, store_digest=digest_of(step))
            write_event(fh, event)


@pytest.mark.parametrize(
    "steps, meta_step, digest, missing",
    [
        ([0, 1], 4, "d3", 2),
        ([], 1, "d0", 0),
        ([0, 2, 3], 3, "d2", 1),
        ([0, 1, 1, 2], 3, "d2", 2),
        ([1, 2], 2, "d1", 0),
        ([0, 1, 2], 2, "ck", 1),  # step 1 logged another store than the checkpoint's
    ],
)
def test_truncate_events_refuses_a_log_of_another_run_and_cuts_nothing(
    tmp_path, steps, meta_step, digest, missing
):
    path = tmp_path / "events.jsonl"
    _stale_log(path, steps, lambda step: f"d{step}")
    before = path.read_bytes()
    with pytest.raises(ValueError) as err:
        truncate_events(str(path), meta_step, digest)
    expected = f"{path}: event log holds no record of step {missing} of the resumed run"
    assert str(err.value) == expected
    assert path.read_bytes() == before


def test_truncate_events_refuses_a_torn_record_before_the_resume_step(tmp_path):
    path = tmp_path / "events.jsonl"
    _stale_log(path, [0, 1])
    with open(path, "a") as fh:
        fh.write('{"meta_step": 2, "mean_re\n')  # torn by a crash mid-write
        write_event(fh, replace(sample_events(1)[0], meta_step=3))
    before = path.read_bytes()
    with pytest.raises(ValueError) as err:
        truncate_events(str(path), 3, "00" * 8)
    assert str(err.value) == f"{path}: event log holds no record of step 2 of the resumed run"
    assert path.read_bytes() == before
