"""Persistence: store digests, JSONL event logs, and resumable checkpoints.

Event logs are JSON lines with a fixed key order and shortest-round-trip
decimal floats, so identical in-memory state always serializes to identical
bytes. Neither an event record nor a checkpoint header may hold a non-finite
number: writing one raises ``ValueError``.

A ``Checkpoint`` is the search's whole resumable state: ``engine.search``
keeps one, advances it in place and saves it as it stands. Its file has three
parts:

1. One line of canonical JSON (sorted keys) with the small fields: format
   version, config echo, meta-step, the controller state (logits and
   baseline), reward history, ``store_digest``, the integer fields of every
   optimizer slot, and the name and shape of every array in file order
   (store sorted by key, head, controller slots, commit slots). A newline
   ends the line. The meta-step is the file's one step counter: the
   controller's warm-up, whether its baseline exists and the position of the
   controller's RNG stream all follow from it, so none is stored.
2. Those arrays' little-endian float64 (``<f8``) bytes, back to back, written
   straight from the arrays. They restore bit for bit (``-0.0``, subnormals
   and all).
3. The SHA-256 of every byte before it, as 64 hex characters, computed in the
   same pass that writes them.

``load_checkpoint`` parses the header, refuses any other format version,
verifies the SHA-256 (so an edit to any byte raises ``ValueError``), checks
that every shape is a list of non-negative integers and that the arrays tile
the bytes exactly (a malformed array raises ``ValueError`` naming the file
and the array), and verifies ``store_digest`` against the restored store. A
header that lacks a field, gives an optimizer slot section or a slot as a
non-object, names a slot by something other than ``family|key`` as
``save_checkpoint`` writes it, or names an array of no known section,
raises ``ValueError`` naming the file and the field or array. So does a
re-sealed header (one whose SHA-256 was recomputed after an edit) whose
meta-step is not a non-negative integer, whose baseline is not a finite
number, whose controller logits are not a list of non-empty lists of finite
numbers, whose reward history is not a list of ``RewardRecord`` objects
(exactly its six fields, a non-negative integer step, a list of integers as
the selection and finite numbers elsewhere), or whose slot holds a header
field that is not a positive integer. These checks need nothing of the run.
Which slots, slot fields and arrays a file may hold depends on the run, so
the loader takes them as written; on resume ``engine`` builds the state the
run itself holds at that step, and ``check_layout`` compares the two.
Saving and loading again gives identical bytes. Files are written to a temp
path and renamed into place.

``store_digest`` is 64-bit BLAKE2b (``hashlib.blake2b(digest_size=8)``),
written as 16 hex characters. It walks the store in sorted key order and
hashes each key's text, its shape, and its values as little-endian float64
bytes, so it distinguishes ``-0.0`` from ``0.0``, one-ulp neighbours, and the
same values under a different shape. Event records carry it too; the caller
computes it once and passes it to both.

Checkpoints are format version 6 and event logs format version 2. Versions
1-4 were single JSON documents: version 1 used a 64-bit FNV-1a over decimal
text, version 2 lacked the reward history, versions 1-3 stored arrays as
decimal lists and version 4 as base64. Version 5 had this layout but also
stored the controller's step and baseline flag, the controller's RNG
counter, and each hyperparameter's ``default_index`` in the config echo. A
checkpoint of any other version is rejected with a "format version" error;
there is no migration.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from .controller import ControllerState
from .space import SearchSpace
from .supernet import ParamKey

CHECKPOINT_FORMAT_VERSION = 6
EVENT_LOG_FORMAT_VERSION = 2
_FILE_DIGEST_CHARS = 64  # SHA-256, hex


def _float_list(arr: np.ndarray) -> list[float]:
    return np.asarray(arr, dtype=np.float64).reshape(-1).tolist()


def store_digest(store: Mapping[ParamKey, np.ndarray]) -> str:
    """BLAKE2b-64 over sorted keys, shapes and little-endian float64 bytes."""
    h = hashlib.blake2b(digest_size=8)
    for key in sorted(store):
        arr = store[key]
        shape = ",".join(str(d) for d in arr.shape)
        h.update(f"{key.text()}:{shape}:".encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


@dataclass
class EventRecord:
    """One meta-step of the search loop."""

    meta_step: int
    mean_reward: float
    baseline: float
    probabilities: list[list[float]]
    store_digest: str
    wall_ms: float

    def to_json(self) -> str:
        # Keys in field order; a non-finite number raises ValueError.
        return json.dumps(vars(self), allow_nan=False)


_EVENT_FIELDS = [f.name for f in fields(EventRecord)]


def event_header(labels: Iterable[str], cardinalities: Iterable[int]) -> str:
    return json.dumps(
        {
            "format_version": EVENT_LOG_FORMAT_VERSION,
            "decisions": [
                {"label": l, "cardinality": c} for l, c in zip(labels, cardinalities)
            ],
        }
    )


def write_event(fh, record: EventRecord) -> None:
    fh.write(record.to_json() + "\n")
    fh.flush()


def truncate_events(path: str, meta_step: int, digest: str) -> int:
    """Cut the log at ``path`` back to its header and the records of steps
    before ``meta_step``, leaving the kept lines byte-identical; returns the
    number of bytes kept. Those records must be one per step from 0, in order,
    the last carrying ``digest``, the resumed checkpoint's store digest; if
    not, the log is another run's, and ``ValueError`` names the file and the
    first step missing or mismatched, cutting nothing. The cut is at the first
    line past those records, which also drops a torn final line.
    """
    offset, step = 0, 0
    with open(path, "r+b") as fh:
        for line in fh:
            if line.strip():
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    break
                if not isinstance(doc, dict):
                    break
                if "decisions" not in doc:  # a record, not the header
                    if step == meta_step or doc.get("meta_step") != step:
                        break
                    if step == meta_step - 1 and doc.get("store_digest") != digest:
                        break
                    step += 1
            offset += len(line)
        if step < meta_step:
            raise ValueError(f"{path}: event log holds no record of step {step} of the resumed run")
        fh.truncate(offset)
    return offset


def open_events(path: str | None, space: SearchSpace, resumed: Checkpoint | None):
    """The event log at ``path``, open for writing records, in a directory
    made if missing; a null context when ``path`` is None. A log resumed from
    ``resumed`` keeps its header and the records before its meta-step
    (``truncate_events``); a fresh or missing log starts with its header."""
    if path is None:
        return contextlib.nullcontext()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    kept = 0
    if resumed is not None and os.path.exists(path):
        kept = truncate_events(path, resumed.meta_step, resumed.store_digest)
    fh = open(path, "a" if kept else "w", encoding="utf-8")
    if not kept:
        fh.write(event_header(space.labels(), space.cardinalities()) + "\n")
    return fh


def _is_decision(doc) -> bool:
    # A header decision: a string label and a positive integer cardinality.
    if not isinstance(doc, dict):
        return False
    cardinality = doc.get("cardinality")
    return isinstance(doc.get("label"), str) and type(cardinality) is int and cardinality > 0


def read_events(path: str) -> tuple[dict | None, list[EventRecord]]:
    """Read an event log; returns (header, records).

    ``ValueError`` names the file if it is not UTF-8 text, and the file and
    the line of the first line that is not JSON, a header whose
    ``decisions`` are not objects with a string ``label`` and a positive
    integer ``cardinality``, or a record without exactly ``EventRecord``'s
    fields or whose ``probabilities`` are not one non-empty list per
    decision, each as long as the header says (without a header, as the
    first record's).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    header = None
    shape = None  # each decision's cardinality
    records: list[EventRecord] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}: line {line_no}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON on line {line_no} ({exc})") from None
        if isinstance(doc, dict) and "decisions" in doc:
            decisions = doc["decisions"]
            if not isinstance(decisions, list) or not all(map(_is_decision, decisions)):
                raise ValueError(
                    f"{where}: header decisions are not objects with a string label "
                    "and a positive integer cardinality"
                )
            header, shape = doc, [d["cardinality"] for d in decisions]
            continue
        try:
            record = EventRecord(**doc)
        except TypeError:
            raise ValueError(
                f"{where} is not an event record with exactly the fields {_EVENT_FIELDS}"
            ) from None
        rows = record.probabilities
        if not isinstance(rows, list) or not all(isinstance(r, list) and r for r in rows):
            raise ValueError(f"{where}: probabilities are not a list of non-empty lists")
        lengths = [len(r) for r in rows]
        shape = lengths if shape is None else shape
        if lengths != shape:
            raise ValueError(
                f"{where}: probabilities have row lengths {lengths}, "
                f"not the decisions' cardinalities {shape}"
            )
        records.append(record)
    return header, records


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class RewardRecord:
    """One scored candidate; ``baseline`` is the controller baseline its
    advantage was taken against."""

    meta_step: int
    selection: tuple[int, ...]
    accuracy: float
    cost: float
    reward: float
    baseline: float = 0.0


_RECORD_FIELDS = {f.name for f in fields(RewardRecord)}


@dataclass
class Checkpoint:
    """Resumable search state. ``engine.search`` keeps one as its live state
    and advances it in place, so each save writes the state as it stands."""

    config_echo: dict
    meta_step: int  # meta-steps done
    controller: ControllerState
    store: dict[ParamKey, np.ndarray] = field(default_factory=dict)
    head_weight: np.ndarray | None = None
    head_bias: np.ndarray | None = None
    commit_slots: dict = field(default_factory=dict)  # optimizer slots by (family, key)
    reward_history: list[RewardRecord] = field(default_factory=list)  # steps before meta_step
    store_digest: str = ""  # ``store_digest(store)``, taken by the caller


def _param_key_parse(text: str) -> ParamKey:
    layer, op, name = text.split("/")
    return ParamKey(int(layer), int(op), name)


_SLOT_SECTIONS = (("controller/slots", str, int), ("commit_slots", ParamKey.text, _param_key_parse))


def _layout(ckpt: Checkpoint) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """The integer fields of every optimizer slot, by section and slot, and
    every array with its name, in file order: store sorted by key, head,
    controller slots, commit slots. A slot array's name is its section, slot
    and field joined by ``/``."""
    arrays = [(f"store/{key.text()}", ckpt.store[key]) for key in sorted(ckpt.store)]
    head = (("head/weight", ckpt.head_weight), ("head/bias", ckpt.head_bias))
    arrays += [(name, arr) for name, arr in head if arr is not None]
    slot_ints = {}
    for (section, key_text, _), slots in zip(
        _SLOT_SECTIONS, (ckpt.controller.slots, ckpt.commit_slots)
    ):
        named = sorted(
            ((f"{family}|{key_text(key)}", slot) for (family, key), slot in slots.items()),
            key=lambda item: item[0],
        )
        slot_ints[section] = {}
        for combined, slot in named:
            fields = sorted(slot.items())
            slot_ints[section][combined] = {n: v for n, v in fields if isinstance(v, int)}
            arrays += [
                (f"{section}/{combined}/{n}", v) for n, v in fields if not isinstance(v, int)
            ]
    return slot_ints, arrays


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to a temp file, hashing each byte as it is written, and
    atomically replace ``path`` with it."""
    slot_ints, arrays = _layout(ckpt)
    controller = ckpt.controller
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config_echo,
        "meta_step": ckpt.meta_step,
        "controller": {
            "logits": [_float_list(z) for z in controller.logits],
            "baseline": controller.baseline,
            "slots": slot_ints["controller/slots"],
        },
        "commit_slots": slot_ints["commit_slots"],
        "reward_history": [vars(r) for r in ckpt.reward_history],
        "store_digest": ckpt.store_digest,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    chunks = [json.dumps(header, sort_keys=True, allow_nan=False).encode("ascii") + b"\n"]
    chunks += [np.ascontiguousarray(arr, dtype="<f8") for _, arr in arrays]
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            h = hashlib.sha256()
            for chunk in chunks:
                h.update(chunk)
                fh.write(chunk)
            fh.write(h.hexdigest().encode("ascii"))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _read_arrays(path: str, entries, blob: memoryview) -> dict[str, np.ndarray]:
    """Cut ``blob`` into the ``[name, shape]`` arrays of ``entries``, which
    must tile it exactly; each is an owned, writable, native float64 copy."""
    arrays = {}
    offset = 0
    name = "arrays"
    for name, shape in entries:
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(
                f"{path}: {name}: shape {shape!r} is not a list of non-negative integers"
            )
        count = math.prod(shape)
        if 8 * count > len(blob) - offset:
            raise ValueError(
                f"{path}: {name}: {len(blob) - offset} bytes left do not hold float64 shape {shape}"
            )
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        arrays[name] = data.reshape(shape).astype(np.float64)
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {name}: {len(blob) - offset} bytes follow the last array")
    return arrays


_HEADER_FIELDS = (
    "config", "meta_step", "controller", "commit_slots", "reward_history", "store_digest",
    "arrays",
)
_CONTROLLER_FIELDS = ("logits", "baseline", "slots")


def _require(path: str, doc, prefix: str, names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the file and the first field of ``names``
    that the header object ``doc`` lacks."""
    for name in names:
        if not isinstance(doc, dict) or name not in doc:
            raise ValueError(f"{path}: checkpoint header lacks field {prefix}{name}")


def check_field(path: str, ok: bool, name: str, what: str) -> None:
    """Raise ``ValueError`` naming the file and the header field ``name``
    unless ``ok``."""
    if not ok:
        raise ValueError(f"{path}: checkpoint header field {name} is not {what}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_finite(value) -> bool:
    # A JSON number a float can hold; an int too large for one is not.
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _is_record(doc) -> bool:
    if not isinstance(doc, dict) or set(doc) != _RECORD_FIELDS:
        return False
    numbers = [doc[name] for name in ("accuracy", "cost", "reward", "baseline")]
    selection = doc["selection"]
    return (
        _is_count(doc["meta_step"])
        and all(map(_is_finite, numbers))
        and isinstance(selection, list)
        and all(type(i) is int for i in selection)
    )


def _is_logit_table(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list)
        and row
        and all(map(_is_finite, row))
        for row in value
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and integrity-check a checkpoint file."""
    with open(path, "rb") as fh:
        data = fh.read()
    newline = data.find(b"\n")
    try:
        header = json.loads(data[:newline] if newline >= 0 else data)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc})") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint format version {version!r} is not "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    end = len(data) - _FILE_DIGEST_CHARS
    view = memoryview(data)
    if newline < 0 or hashlib.sha256(view[:end]).hexdigest().encode("ascii") != data[end:]:
        raise ValueError(f"{path}: checkpoint digest mismatch, checkpoint is corrupt")
    _require(path, header, "", _HEADER_FIELDS)
    controller = header["controller"]
    _require(path, controller, "controller.", _CONTROLLER_FIELDS)
    check_field(path, _is_count(header["meta_step"]), "meta_step", "a non-negative integer")
    baseline = controller["baseline"]
    check_field(path, _is_finite(baseline), "controller.baseline", "a finite number")
    history = header["reward_history"]
    records = isinstance(history, list) and all(map(_is_record, history))
    check_field(path, records, "reward_history", "a list of reward records")
    logits = controller["logits"]
    table = _is_logit_table(logits)
    check_field(path, table, "controller.logits", "a list of non-empty lists of finite numbers")
    arrays = _read_arrays(path, header["arrays"], view[newline + 1 : end])
    slot_of = {}  # each slot, by the name prefix of its arrays
    loaded_slots = []
    for (section, key_text, key_parse), slot_ints in zip(
        _SLOT_SECTIONS, (controller["slots"], header["commit_slots"])
    ):
        where = section.replace("/", ".")  # the header field
        check_field(path, isinstance(slot_ints, dict), where, "an object")
        slots = {}
        for combined, slot in slot_ints.items():
            family, _, text = combined.partition("|")
            try:
                key = key_parse(text)
                if key_text(key) != text:  # a slot is saved under its canonical name
                    raise ValueError(text)
            except ValueError:
                raise ValueError(
                    f"{path}: {where}: slot name {combined!r} is not family|key"
                ) from None
            field = f"{where}.{combined}"
            check_field(path, isinstance(slot, dict), field, "an object")
            for name, value in slot.items():  # the header holds a slot's integer fields
                ok = type(value) is int and value > 0
                check_field(path, ok, f"{field}.{name}", "a positive integer")
            slots[family, key] = slot
            slot_of[f"{section}/{combined}"] = slot
        loaded_slots.append(slots)
    store = {}
    head: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        owner, _, field_name = name.rpartition("/")
        if owner in slot_of:
            slot_of[owner][field_name] = arr
        elif owner == "head" and field_name in ("weight", "bias"):
            head[field_name] = arr
        else:
            try:
                if not name.startswith("store/"):
                    raise ValueError(name)
                store[_param_key_parse(name[len("store/") :])] = arr
            except ValueError:
                raise ValueError(f"{path}: {name}: array belongs to no known section") from None
    if store_digest(store) != header["store_digest"]:
        raise ValueError(f"{path}: store digest mismatch, checkpoint is corrupt")
    return Checkpoint(
        config_echo=header["config"],
        meta_step=header["meta_step"],
        controller=ControllerState(
            logits=[np.asarray(z, dtype=np.float64) for z in logits],
            baseline=baseline,
            slots=loaded_slots[0],
        ),
        store=store,
        head_weight=head.get("weight"),
        head_bias=head.get("bias"),
        commit_slots=loaded_slots[1],
        reward_history=[
            RewardRecord(**{**r, "selection": tuple(r["selection"])}) for r in history
        ],
        store_digest=header["store_digest"],
    )


def _entries(ckpt: Checkpoint) -> dict[str, str]:
    """Each optimizer slot's integer fields, by header field, then each
    array's shape, by name, in file order."""
    slot_ints, arrays = _layout(ckpt)
    entries = {
        f"{section.replace('/', '.')}.{combined}": json.dumps(ints, sort_keys=True)
        for section, slots in slot_ints.items()
        for combined, ints in slots.items()
    }
    entries.update((name, f"shape {list(arr.shape)}") for name, arr in arrays)
    return entries


def check_layout(path: str, want: Checkpoint, ckpt: Checkpoint) -> None:
    """Raise ``ValueError`` naming the file and the first optimizer slot or
    array that ``ckpt`` holds and ``want`` does not, or that the two hold
    with other integer fields or another shape; then the first that ``want``
    holds and ``ckpt`` does not."""
    held, found = _entries(want), _entries(ckpt)
    for name in [*found, *held]:
        if found.get(name) != held.get(name):
            raise ValueError(
                f"{path}: {name}: checkpoint holds {found.get(name, 'nothing')}, "
                f"the run holds {held.get(name, 'nothing')}"
            )
