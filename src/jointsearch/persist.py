"""Persistence: store digests, JSONL event logs, and resumable checkpoints.

Event logs are JSON lines with a fixed key order and shortest-round-trip
decimal floats, so identical in-memory state always serializes to identical
bytes: the header on line 1, then one record per line. No event record,
checkpoint header, controller or reward history number may be
non-finite: writing one raises ``ValueError``.

A ``Checkpoint`` is the search's whole resumable state: ``engine.search``
keeps one, advances it in place and saves it as it stands. Its file has three
parts:

1. One line of canonical JSON (sorted keys) with the small fields: format
   version, config echo, meta-step, controller baseline, ``store_digest``, and
   the name and shape of every array in file order. A newline ends the line.
   The meta-step is the file's one step counter: the controller's warm-up,
   its Adam step count, whether its baseline exists and the position of the
   controller's RNG stream all follow from it.
2. Those arrays' little-endian float64 (``<f8``) bytes, back to back, written
   straight from the arrays (see ``_layout``): the store, one
   ``controller/<d>`` per decision (rows: logits, Adam ``m`` and ``v``), the
   commit optimizer slots (an array per field, an integer field such as
   Adam's ``step`` a 0-d one), and the reward history, ``history/ints``
   (meta-step, then the selection, as whole numbers) and ``history/reals``
   (accuracy, cost, reward, baseline): the column blocks of the rows that
   ``Checkpoint.history`` keeps. They restore bit for bit (``-0.0``,
   subnormals and all); a slot's integer field is restored as an int.
3. The SHA-256 of every byte before it, as 64 hex characters, computed in the
   same pass that writes them.

``load_checkpoint`` parses the header, refuses any other format version,
verifies the SHA-256 (so an edit to any byte raises ``ValueError``), checks
that every shape is a list of non-negative integers and that the arrays tile
the bytes exactly under distinct names, and verifies ``store_digest`` against
the restored store. ``ValueError`` names the file and the header field it
lacks or holds beyond those ``save_checkpoint`` writes, or the array of no
known section or whose slot is not named ``family|key`` as it writes it. A
re-sealed file (its SHA-256 recomputed after an edit) is refused, naming the
field, if its meta-step is not a non-negative integer or its baseline not a
finite number, and naming the array if a 0-d slot field is not a whole number
from 1 to 2^53, its controller, history reals or slot arrays are not finite,
its history integers are not whole and non-negative, its history rows and
columns disagree with each other or with the number of controller arrays, or
a controller array is not 3 rows. These checks need nothing of the run.
Which commit slots, slot fields and arrays a file may hold depends on the
run, so the loader takes them as written; on resume ``engine`` builds the
state the run itself holds at that step, and ``check_layout`` compares the
two. Saving and loading again gives
identical bytes. Files are written to a temp path and renamed into place.

``store_digest`` is 64-bit BLAKE2b (``hashlib.blake2b(digest_size=8)``),
written as 16 hex characters. It walks the store in sorted key order and
hashes each key's text, its shape, and its values as little-endian float64
bytes, so it distinguishes ``-0.0`` from ``0.0``, one-ulp neighbours, and the
same values under a different shape. Event records carry it too; the caller
computes it once and passes it to both.

Checkpoints are format version 10 and event logs format version 2. Versions
1-4 were single JSON documents: version 1 used a 64-bit FNV-1a over decimal
text, version 2 lacked the reward history, versions 1-3 stored arrays as
decimal lists and version 4 as base64. Version 5 had version 6's layout but
also stored the controller's step and baseline flag, the controller's RNG
counter, and each hyperparameter's ``default_index`` in the config echo.
Version 6 held the controller logits and the reward history in the header,
as JSON lists and record objects, so each save re-encoded the whole history.
Version 7 held the slots' integer fields (Adam's ``step``) in the header.
Version 8 held the controller's logits and Adam slots apart, each slot with
its own ``step``, one per decision, all equal to the meta-step's count.
Version 9 also stored the classifier head (``head/weight``, ``head/bias``),
which is never trained: ``supernet.init_weights`` draws it from the seed.
A checkpoint or event log of any other version is rejected with a "format
version" error; there is no migration.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import tempfile
from array import array
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from .controller import ControllerState
from .space import SearchSpace
from .supernet import ParamKey

CHECKPOINT_FORMAT_VERSION = 10
EVENT_LOG_FORMAT_VERSION = 2
_FILE_DIGEST_CHARS = 64  # SHA-256, hex


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
    decisions = [{"label": l, "cardinality": c} for l, c in zip(labels, cardinalities)]
    return json.dumps({"format_version": EVENT_LOG_FORMAT_VERSION, "decisions": decisions})


def write_event(fh, record: EventRecord) -> None:
    fh.write(record.to_json() + "\n")
    fh.flush()


def truncate_events(path: str, meta_step: int, digest: str) -> int:
    """Cut the log at ``path`` back to its header and the records of steps
    before ``meta_step``, leaving the kept lines byte-identical; returns the
    number of bytes kept. Those records must be one per step from 0, in order,
    each one ``read_events`` takes, the last carrying ``digest``, the resumed
    checkpoint's store digest; if not, the log is another run's, and
    ``ValueError`` names the file and the first step missing or mismatched,
    cutting nothing, as it does with the "format version" error for a line 1
    that is JSON but not a version-2 header. The cut is at the first line
    ``read_events`` refuses or past those records, which also drops a torn
    final line (or a torn line 1, so a resume at step 0 starts the log afresh).
    """
    offset, step = 0, 0
    with open(path, "r+b") as fh:
        try:
            for line, _, record in _event_lines(path, fh):
                if record is not None:
                    if step == meta_step or record.meta_step != step:
                        break
                    if step == meta_step - 1 and record.store_digest != digest:
                        break
                    step += 1
                offset += len(line)
        except ValueError as exc:  # a line ``read_events`` refuses ends the records,
            if isinstance(exc, _VersionError):  # but a log of another version is refused
                raise
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
    cardinality = doc.get("cardinality") if isinstance(doc, dict) else None
    return type(cardinality) is int and cardinality > 0 and isinstance(doc.get("label"), str)


class _VersionError(ValueError):
    """Line 1 of an event log is JSON but not a header of this version."""


def read_events(path: str) -> tuple[dict, list[EventRecord]]:
    """Return the header (line 1) and the records (one a line after it) of
    the event log at ``path``. ``ValueError`` names the file if it is not
    UTF-8 text, and the file and the line of an empty file, of the first line
    that is not JSON (a blank line is not), a header whose ``format_version``
    is not 2 (the "format version" error), that holds other fields than it
    and ``decisions``, or whose ``decisions`` are not objects of exactly a
    ``label`` of letters, digits, ``_`` and ``-`` and a positive integer
    ``cardinality``, or a record without exactly ``EventRecord``'s fields,
    whose ``probabilities`` are not one list per decision of its cardinality,
    whose ``mean_reward``, ``baseline``, probabilities or ``wall_ms`` are not
    finite numbers, whose ``meta_step`` is not a non-negative integer one past
    the previous record's (the first may start anywhere), or whose
    ``store_digest`` is not 16 lowercase hex digits."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ValueError(f"{path}: line 1: event log is empty, without its header")
    (_, header, _), *rest = _event_lines(path, lines)
    return header, [record for _, _, record in rest]


def _event_lines(path: str, lines: Iterable):
    """Each of ``lines`` (text or bytes) of the event log at ``path`` with the
    header of line 1 and the ``EventRecord`` the line holds (None on line 1).
    ``ValueError`` names the file and the line of the first line that
    ``read_events`` refuses."""
    header = shape = previous = None  # each decision's cardinality; the last meta_step
    for line_no, line in enumerate(lines, start=1):
        where = f"{path}: line {line_no}"
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed JSON on line {line_no} ({exc})") from None
        if line_no == 1:  # the header
            version = doc.get("format_version") if isinstance(doc, dict) else None
            if type(version) is not int or version != EVENT_LOG_FORMAT_VERSION:
                what = f"event log format version {version!r} is not {EVENT_LOG_FORMAT_VERSION}"
                raise _VersionError(f"{where}: {what}")
            _require(where, doc, "", ("format_version", "decisions"), "event log header")
            decisions = doc["decisions"]
            if not isinstance(decisions, list) or not all(map(_is_decision, decisions)):
                raise ValueError(
                    f"{where}: header decisions are not objects with a string label "
                    "and a positive integer cardinality"
                )
            for i, d in enumerate(decisions):  # ``report`` names a file after each label
                _require(where, d, f"decisions.{i}.", ("label", "cardinality"), "event log header")
                if not re.fullmatch("[A-Za-z0-9_-]+", d["label"]):
                    raise ValueError(
                        f"{where}: header decision label {d['label']!r} is not "
                        "letters, digits, '_' and '-'"
                    )
            header, shape = doc, [d["cardinality"] for d in decisions]
            yield line, header, None
            continue
        try:
            record = EventRecord(**doc)
        except TypeError:
            raise ValueError(
                f"{where} is not an event record with exactly the fields {_EVENT_FIELDS}"
            ) from None
        step, digest = record.meta_step, record.store_digest
        if not _is_count(step):
            raise ValueError(f"{where}: meta_step {step!r} is not a non-negative integer")
        if previous is not None and step != previous + 1:
            raise ValueError(f"{where}: meta_step {step} does not follow {previous}")
        if not (isinstance(digest, str) and re.fullmatch("[0-9a-f]{16}", digest)):
            raise ValueError(f"{where}: store_digest {digest!r} is not 16 lowercase hex digits")
        rows = record.probabilities
        if not isinstance(rows, list) or not all(isinstance(r, list) and r for r in rows):
            raise ValueError(f"{where}: probabilities are not a list of non-empty lists")
        lengths = [len(r) for r in rows]
        if lengths != shape:
            raise ValueError(
                f"{where}: probabilities have row lengths {lengths}, "
                f"not the decisions' cardinalities {shape}"
            )
        numbers = {
            "mean_reward": [record.mean_reward],
            "baseline": [record.baseline],
            "probabilities": [p for row in rows for p in row],
            "wall_ms": [record.wall_ms],
        }
        for name, values in numbers.items():
            if not all(map(_is_finite, values)):
                raise ValueError(f"{where}: field {name} holds a value that is not a finite number")
        previous = step
        yield line, header, record


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


@dataclass
class Checkpoint:
    """Resumable search state. ``engine.search`` keeps one as its live state
    and advances it in place, so each save writes the state as it stands."""

    config_echo: dict
    meta_step: int  # meta-steps done
    controller: ControllerState
    store: dict[ParamKey, np.ndarray] = field(default_factory=dict)
    commit_slots: dict = field(default_factory=dict)  # optimizer slots by (family, key)
    history: array = field(default_factory=lambda: array("d"))  # a row per record before meta_step
    store_digest: str = ""  # ``store_digest(store)``, taken by the caller


def _param_key_parse(text: str) -> ParamKey:
    layer, op, name = text.split("/")
    return ParamKey(int(layer), int(op), name)


def _layout(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    """Every array with its name, in file order: store sorted by key, one
    ``controller/<d>`` per decision (its logits, ``m`` and ``v`` rows),
    commit slots (``_slot_arrays``), reward history."""
    arrays = [(f"store/{key.text()}", ckpt.store[key]) for key in sorted(ckpt.store)]
    rows = zip(ckpt.controller.logits, ckpt.controller.m, ckpt.controller.v)
    arrays += [(f"controller/{d}", np.stack(three)) for d, three in enumerate(rows)]
    arrays += _slot_arrays(ckpt.commit_slots)
    return arrays + list(zip(("history/ints", "history/reals"), history_columns(ckpt)))


def history_columns(ckpt: Checkpoint) -> tuple[np.ndarray, np.ndarray]:
    """Views of ``history/ints`` and ``history/reals``; ``ckpt.history`` cannot grow while held."""
    rows = np.frombuffer(ckpt.history).reshape(-1, 1 + len(ckpt.controller.logits) + 4)
    return rows[:, :-4], rows[:, -4:]


def reward_records(ckpt: Checkpoint) -> list[RewardRecord]:
    """One ``RewardRecord`` per row of ``ckpt.history``; a search builds them once."""
    rows = zip(*(block.tolist() for block in history_columns(ckpt)))
    return [RewardRecord(int(s), tuple(map(int, sel)), *reals) for (s, *sel), reals in rows]


def _slot_arrays(slots: dict) -> list[tuple[str, np.ndarray]]:
    """Each field of the commit ``slots`` (by ``(family, key)``) as an array
    named ``commit_slots/family|key/field``, its slots sorted by
    ``family|key`` and its fields by name; an integer field (Adam's ``step``)
    is a 0-d array of its value."""
    named = {f"{f}|{key.text()}": slot for (f, key), slot in slots.items()}
    return [
        (f"commit_slots/{c}/{n}", np.array(float(v)) if isinstance(v, int) else v)
        for c in sorted(named)
        for n, v in sorted(named[c].items())
    ]


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Write ``ckpt`` to a temp file, hashing each byte as it is written, and
    atomically replace ``path`` with it. ``ValueError`` names the array, and
    nothing is written, if the controller or the history holds a non-finite number."""
    arrays = _layout(ckpt)
    for name, arr in arrays:
        _check_finite(path, name, arr)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config_echo,
        "meta_step": ckpt.meta_step,
        "controller": {"baseline": ckpt.controller.baseline},
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
    must tile it exactly under distinct names; each is an owned, writable,
    native float64 copy."""
    arrays = {}
    offset = 0
    name = "arrays"
    for name, shape in entries:
        if name in arrays:
            raise ValueError(f"{path}: {name}: the file holds two arrays of this name")
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


_HEADER_FIELDS = ("format_version", "config", "meta_step", "controller", "store_digest", "arrays")


def _require(where: str, doc, prefix: str, names: tuple, what="checkpoint header") -> None:
    """Raise ``ValueError`` naming ``where`` and the first field of ``names``
    that the header object ``doc`` lacks, then the first other field it holds:
    a header holds exactly the fields its writer writes."""
    for name in names:
        if not isinstance(doc, dict) or name not in doc:
            raise ValueError(f"{where}: {what} lacks field {prefix}{name}")
    for name in doc:
        if name not in names:
            raise ValueError(f"{where}: {what} holds an unknown field {prefix}{name}")


def check_field(path: str, ok: bool, name: str, what: str) -> None:
    """Raise ``ValueError`` naming the file and the header field ``name``
    unless ``ok``."""
    if not ok:
        raise ValueError(f"{path}: checkpoint header field {name} is not {what}")


def check_array(path: str, ok: bool, name: str, what: str) -> None:
    """Raise ``ValueError`` naming the file and the array ``name`` unless
    ``ok``."""
    if not ok:
        raise ValueError(f"{path}: {name}: {what}")


def _check_finite(path: str, name: str, arr: np.ndarray) -> None:
    # The controller and the history reals may hold only finite numbers.
    ok = not name.startswith(("controller/", "history/reals")) or np.isfinite(arr).all()
    check_array(path, ok, name, "holds a value that is not a finite number")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_finite(value) -> bool:
    # A JSON number a float can hold; an int too large for one is not.
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _history(path: str, arrays: dict[str, np.ndarray], decisions: int) -> array:
    """The ``Checkpoint.history`` rows of the ``history/ints`` and
    ``history/reals`` arrays of ``arrays``; ``ValueError`` names the array
    unless both are there, with one row per record, ``1 + decisions`` and 4
    columns, and whole non-negative integers."""
    ints, reals = arrays.get("history/ints"), arrays.get("history/reals")
    rows = ints.shape[0] if ints is not None and ints.ndim else 0
    for name, arr, shape in (("ints", ints, (rows, 1 + decisions)), ("reals", reals, (rows, 4))):
        found = "nothing" if arr is None else f"shape {list(arr.shape)}"
        ok = arr is not None and arr.shape == shape
        check_array(path, ok, f"history/{name}", f"checkpoint holds {found}, not {list(shape)}")
    whole = np.isfinite(ints) & (np.floor(ints) == ints) & ~np.signbit(ints)  # signbit: -0.0
    what = "holds a value that is not a non-negative integer"
    check_array(path, whole.all(), "history/ints", what)
    return array("d", np.hstack((ints, reals)).tobytes())


def _slot_field(path: str, name: str, arr: np.ndarray):
    """The slot key, field name and value that the commit slot array ``name``
    holds, a 0-d array read as an int. ``ValueError`` names the array unless
    the slot is named ``family|key`` as ``save_checkpoint`` writes it, a 0-d
    value is a whole number from 1 to 2^53 and an array finite."""
    combined, _, field_name = name[len("commit_slots/") :].rpartition("/")  # a key holds "/"
    family, _, text = combined.partition("|")
    try:
        key = _param_key_parse(text)
        if key.text() != text:  # a slot is saved under its canonical name
            raise ValueError(text)
    except ValueError:
        raise ValueError(f"{path}: {name}: slot name {combined!r} is not family|key") from None
    if arr.ndim:
        check_array(path, np.isfinite(arr).all(), name, "holds a value that is not a finite number")
        return (family, key), field_name, arr
    value = float(arr)
    ok = value.is_integer() and 1 <= value <= 2**53
    check_array(path, ok, name, "holds a value that is not a whole number from 1 to 2^53")
    return (family, key), field_name, int(value)


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and integrity-check a checkpoint file, whose header holds
    exactly the fields ``save_checkpoint`` writes (see the module docstring)."""
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
    _require(path, controller, "controller.", ("baseline",))
    check_field(path, _is_count(header["meta_step"]), "meta_step", "a non-negative integer")
    baseline = controller["baseline"]
    check_field(path, _is_finite(baseline), "controller.baseline", "a finite number")
    arrays = _read_arrays(path, header["arrays"], view[newline + 1 : end])
    slots, store = {}, {}
    controller: list[np.ndarray] = []
    for name, arr in arrays.items():
        _check_finite(path, name, arr)
        if name.startswith("commit_slots/"):
            key, field_name, value = _slot_field(path, name, arr)
            slots.setdefault(key, {})[field_name] = value
        elif name == f"controller/{len(controller)}":
            controller.append(arr)  # one per decision, in order
        elif name not in ("history/ints", "history/reals"):  # ``_history`` reads those
            try:
                if not name.startswith("store/"):
                    raise ValueError(name)
                store[_param_key_parse(name[len("store/") :])] = arr
            except ValueError:
                raise ValueError(f"{path}: {name}: array belongs to no known section") from None
    history = _history(path, arrays, len(controller))
    if store_digest(store) != header["store_digest"]:
        raise ValueError(f"{path}: store digest mismatch, checkpoint is corrupt")
    return Checkpoint(
        config_echo=header["config"],
        meta_step=header["meta_step"],
        controller=_controller(path, controller, baseline),
        store=store,
        commit_slots=slots,
        history=history,
        store_digest=header["store_digest"],
    )


def _controller(path: str, arrays, baseline: float) -> ControllerState:
    """The controller state of the loaded ``controller/<d>`` ``arrays``.
    ``ValueError`` names the file and the first array that is not 3 rows
    (logits, ``m``, ``v``) of one decision."""
    for d, arr in enumerate(arrays):
        what = f"checkpoint holds shape {list(arr.shape)}, not [3, cardinality]"
        check_array(path, arr.ndim == 2 and len(arr) == 3, f"controller/{d}", what)
    logits, m, v = ([a[i] for a in arrays] for i in range(3))
    return ControllerState(logits, baseline, m, v)


def check_layout(path: str, want: Checkpoint, ckpt: Checkpoint) -> None:
    """Raise ``ValueError`` naming the file and the first array of ``ckpt``
    that ``want`` lacks or holds with another shape or 0-d value, then the
    first that ``want`` holds and ``ckpt`` lacks. The last two arrays, the
    reward history, are the file's own and are not compared."""
    found, held = (
        {n: f"value {a.item():.17g}" if a.ndim == 0 else f"shape {list(a.shape)}" for n, a in pairs}
        for pairs in (_layout(ckpt)[:-2], _layout(want)[:-2])
    )
    for name in [*found, *held]:
        if found.get(name) != held.get(name):
            raise ValueError(
                f"{path}: {name}: checkpoint holds {found.get(name, 'nothing')}, "
                f"the run holds {held.get(name, 'nothing')}"
            )
