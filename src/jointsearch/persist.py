"""Persistence: store digests, JSONL event logs, and resumable checkpoints.

Event logs are JSON lines with a fixed key order and shortest-round-trip
decimal floats, so identical in-memory state always serializes to identical
bytes: the header on line 1, then one record per meta-step from step 0. A
record holds the step's K scored candidates (selection, accuracy, cost,
reward), the advantage baseline they share and its K commit selections, so
the log is the search's one record of its rewards. No event record,
checkpoint header or controller number may be non-finite: writing one raises
``ValueError``.

A ``Checkpoint`` is the search's resumable state beside its log:
``engine.search`` keeps one, advances it in place and saves it as it stands.
Its file has three parts:

1. One line of canonical JSON (sorted keys) with the small fields: format
   version, config echo, meta-step, controller baseline, ``store_digest``,
   ``log_sha256`` (the SHA-256 of the log's bytes before the meta-step's
   record, which seals the log) and the name and shape of every array in file
   order, then a newline. The meta-step is the file's one step counter: the
   controller's warm-up, its Adam step count, whether its baseline exists and
   the position of the controller's RNG stream all follow from it.
2. Those arrays' little-endian float64 (``<f8``) bytes, back to back, written
   straight from the arrays (see ``_layout``): the store, one
   ``controller/<d>`` per decision (rows: logits, Adam ``m`` and ``v``) and
   the commit optimizer slots (an array per field, an integer field such as
   Adam's ``step`` a 0-d one). They restore bit for bit (``-0.0``, subnormals
   and all); a slot's integer field is restored as an int.
3. The SHA-256 of every byte before it, as 64 hex characters, computed in the
   same pass that writes them.

``load_checkpoint`` refuses any other format version, verifies the SHA-256
(so an edit to any byte raises ``ValueError``) and ``store_digest``, and
checks that the arrays tile the bytes under distinct names with shapes of
non-negative integers. ``ValueError`` names the file and the header field or
array at fault: a field missing or beyond those ``save_checkpoint`` writes; a
meta-step, baseline or ``log_sha256`` that is not a non-negative integer, a
finite number or 64 lowercase hex digits; an array of no known section or a
slot not named ``family|key``; a 0-d slot field that is not a whole number
from 1 to 2^53; a controller or slot array that is not finite; a controller
array that is not 3 rows. Which commit slots and arrays a file may hold
depends on the run, so the loader takes them as written; on resume
``engine`` reads the sealed log back (``resume_events``), builds the state
the run holds at that step, and ``check_layout`` compares the two. Saving and
loading again gives identical bytes. Files are written to a temp path and
renamed into place.

``store_digest`` is 64-bit BLAKE2b (``hashlib.blake2b(digest_size=8)``),
written as 16 hex characters. It walks the store in sorted key order and
hashes each key's text, its shape, and its values as little-endian float64
bytes, so it distinguishes ``-0.0`` from ``0.0``, one-ulp neighbours, and the
same values under a different shape. Event records carry it too; the caller
computes it once and passes it to both.

Checkpoints are format version 11 and event logs format version 3; a file of
any other version is refused with a "format version" error, and there is no
migration. Checkpoint versions 1-4 were single JSON documents (1 hashed
decimal text with FNV-1a, 2 lacked the reward history, 1-3 held decimal
arrays and 4 base64 ones); 5 and 6 held the logits and the reward history in
the header, so each save re-encoded the history, 5 also the controller's
step, baseline flag and RNG counter and each ``default_index``; 7 held the
slots' integer fields there; 8 held the controller's Adam slots apart from
its logits, each with its own ``step``; 9 held the never-trained classifier
head, which ``supernet.init_weights`` draws from the seed; 10 held the reward
history as ``history/ints`` and ``history/reals``, which each save rewrote
and re-hashed. Event log version 2 records held no candidates or commits and
could start at any step.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field, fields
from typing import BinaryIO, Iterable, Mapping

import numpy as np

from .controller import ControllerState
from .supernet import ParamKey

CHECKPOINT_FORMAT_VERSION = 11
EVENT_LOG_FORMAT_VERSION = 3
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
    """One meta-step: its K scored ``candidates``, their ``advantage_baseline``,
    the controller after its update, and its K ``commits`` (none without a network)."""

    meta_step: int
    candidates: list[dict]
    advantage_baseline: float
    mean_reward: float
    baseline: float
    probabilities: list[list[float]]
    commits: list[list[int]]
    store_digest: str
    wall_ms: float

    def to_json(self) -> str:
        # Keys in field order; a non-finite number raises ValueError.
        return json.dumps(vars(self), allow_nan=False)


_EVENT_FIELDS = [f.name for f in fields(EventRecord)]
CANDIDATE_FIELDS = ("selection", "accuracy", "cost", "reward")


def event_header(labels: Iterable[str], cardinalities: Iterable[int]) -> str:
    decisions = [{"label": l, "cardinality": c} for l, c in zip(labels, cardinalities)]
    return json.dumps({"format_version": EVENT_LOG_FORMAT_VERSION, "decisions": decisions})


@dataclass
class EventLog:
    """An open event log and the running SHA-256 of its bytes (``log_sha256``)."""

    fh: BinaryIO
    sha256: object  # a ``hashlib.sha256``, kept running


def write_event(log: EventLog, record: EventRecord) -> None:
    line = (record.to_json() + "\n").encode()
    log.fh.write(line)
    log.fh.flush()
    log.sha256.update(line)


@contextlib.contextmanager
def open_events(path: str | None, lines: list[bytes]):
    """The ``EventLog`` at ``path`` (None when ``path`` is None), in a
    directory made if missing: ``lines`` (its header line, then the records a
    resumed run keeps) are written over the start of the file, which is cut
    after them, so a resumed log, which begins with them, never holds less."""
    if path is None:
        yield None
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    kept = b"".join(lines)
    with open(path, "r+b" if os.path.exists(path) else "wb") as fh:
        fh.write(kept)
        fh.truncate()
        fh.flush()  # the header too is on disk before any save seals it
        yield EventLog(fh, hashlib.sha256(kept))


def resume_events(path: str, header: bytes, ckpt: Checkpoint) -> tuple[list, list]:
    """The lines of the event log at ``path`` that a resume from ``ckpt``
    keeps, and their records: line 1, which must be ``header``, then one
    record per step before ``ckpt.meta_step``, all hashing to
    ``ckpt.log_sha256``. ``ValueError`` names the log otherwise, for a line
    ``read_events`` refuses (a log of another version: "format version") and
    for a log missing after step 0; at step 0 a missing log is ``header``."""
    step = ckpt.meta_step
    try:
        with open(path, "rb") as fh:
            lines = list(itertools.islice(fh, 1 + step))
    except FileNotFoundError:
        if step:
            raise ValueError(f"{path}: event log is missing at resume step {step}") from None
        lines = [header]
    _, records = _parse_events(path, lines)
    if lines[:1] != [header]:
        raise ValueError(f"{path}: line 1: event log header is not the one this run writes")
    if len(records) < step:
        raise ValueError(f"{path}: event log holds no record of step {len(records)}")
    if hashlib.sha256(b"".join(lines)).hexdigest() != ckpt.log_sha256:
        raise ValueError(
            f"{path}: event log before step {step} does not hash to the checkpoint's log_sha256"
        )
    return lines, records


def _is_decision(doc) -> bool:
    # A header decision: a string label and a positive integer cardinality.
    cardinality = doc.get("cardinality") if isinstance(doc, dict) else None
    return type(cardinality) is int and cardinality > 0 and isinstance(doc.get("label"), str)


def read_events(path: str) -> tuple[dict, list[EventRecord]]:
    """Return the header (line 1) and the records (one a line after it) of
    the event log at ``path``. ``ValueError`` names the file if it is not
    UTF-8 text, and the file and the line of an empty file, of the first line
    that is not JSON (a blank line is not), a header whose ``format_version``
    is not 3 (the "format version" error), that holds other fields than it
    and ``decisions``, or whose ``decisions`` are not objects of exactly a
    ``label`` of letters, digits, ``_`` and ``-`` and a positive integer
    ``cardinality``, or a record without exactly ``EventRecord``'s fields (a
    candidate's: ``CANDIDATE_FIELDS``), whose ``meta_step`` is not its line
    number less 2, whose probability rows or selections do not fit the
    cardinalities, whose other numbers are not finite, or whose
    ``store_digest`` is not 16 lowercase hex digits."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ValueError(f"{path}: line 1: event log is empty, without its header")
    return _parse_events(path, lines)


def _parse_events(path: str, lines: Iterable) -> tuple[dict | None, list[EventRecord]]:
    """The header and the records of ``lines`` (text or bytes) of the event
    log at ``path``; ``ValueError`` names the file and the line of the first
    line that ``read_events`` refuses."""
    header, shape, records = None, None, []  # shape: each decision's cardinality
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
                raise ValueError(f"{where}: {what}")
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
            continue
        try:
            record = EventRecord(**doc)
        except TypeError:
            raise ValueError(
                f"{where} is not an event record with exactly the fields {_EVENT_FIELDS}"
            ) from None
        step, digest = record.meta_step, record.store_digest
        if type(step) is not int or step != line_no - 2:
            raise ValueError(f"{where}: meta_step {step!r} is not {line_no - 2}")
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
        candidates, commits = record.candidates, record.commits
        if not (isinstance(candidates, list) and isinstance(commits, list)):
            raise ValueError(f"{where}: candidates and commits are not lists")
        for i, candidate in enumerate(candidates):
            _require(where, candidate, f"candidates.{i}.", CANDIDATE_FIELDS, "event record")
        named = {f"candidates.{i}.selection": c["selection"] for i, c in enumerate(candidates)}
        named.update((f"commits.{i}", selection) for i, selection in enumerate(commits))
        for name, selection in named.items():
            fits = isinstance(selection, list) and len(selection) == len(shape)
            if not (fits and all(type(i) is int and 0 <= i < c for i, c in zip(selection, shape))):
                raise ValueError(
                    f"{where}: {name} {selection!r} is not one index per decision within {shape}"
                )
        numbers = {
            "candidates": [c[n] for c in candidates for n in CANDIDATE_FIELDS[1:]],
            "advantage_baseline": [record.advantage_baseline],
            "mean_reward": [record.mean_reward],
            "baseline": [record.baseline],
            "probabilities": [p for row in rows for p in row],
            "wall_ms": [record.wall_ms],
        }
        for name, values in numbers.items():
            if not all(map(_is_finite, values)):
                raise ValueError(f"{where}: field {name} holds a value that is not a finite number")
        records.append(record)
    return header, records


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Resumable search state beside the event log: ``engine.search`` advances
    one in place, and each save writes it as it stands."""

    config_echo: dict
    meta_step: int  # meta-steps done
    controller: ControllerState
    store: dict[ParamKey, np.ndarray] = field(default_factory=dict)
    commit_slots: dict = field(default_factory=dict)  # optimizer slots by (family, key)
    store_digest: str = ""  # ``store_digest(store)``, taken by the caller
    log_sha256: str = ""  # of the event log's bytes before meta_step, kept by the caller


def _param_key_parse(text: str) -> ParamKey:
    layer, op, name = text.split("/")
    return ParamKey(int(layer), int(op), name)


def _layout(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    """Every array with its name, in file order: store sorted by key, one
    ``controller/<d>`` per decision (its logits, ``m`` and ``v`` rows),
    commit slots (``_slot_arrays``)."""
    arrays = [(f"store/{key.text()}", ckpt.store[key]) for key in sorted(ckpt.store)]
    rows = zip(ckpt.controller.logits, ckpt.controller.m, ckpt.controller.v)
    arrays += [(f"controller/{d}", np.stack(three)) for d, three in enumerate(rows)]
    return arrays + _slot_arrays(ckpt.commit_slots)


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
    nothing is written, if the controller holds a non-finite number."""
    arrays = _layout(ckpt)
    for name, arr in arrays:
        _check_finite(path, name, arr)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config_echo,
        "meta_step": ckpt.meta_step,
        "controller": {"baseline": ckpt.controller.baseline},
        "store_digest": ckpt.store_digest,
        "log_sha256": ckpt.log_sha256,
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


_HEADER_FIELDS = (
    "format_version", "config", "meta_step", "controller", "store_digest", "log_sha256", "arrays"
)


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
    # The controller may hold only finite numbers.
    ok = not name.startswith("controller/") or np.isfinite(arr).all()
    check_array(path, ok, name, "holds a value that is not a finite number")


def _is_finite(value) -> bool:
    # A JSON number a float can hold; an int too large for one is not.
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


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
    step = header["meta_step"]
    check_field(path, type(step) is int and step >= 0, "meta_step", "a non-negative integer")
    baseline = controller["baseline"]
    check_field(path, _is_finite(baseline), "controller.baseline", "a finite number")
    sha = header["log_sha256"]
    ok = isinstance(sha, str) and re.fullmatch("[0-9a-f]{64}", sha) is not None
    check_field(path, ok, "log_sha256", "64 lowercase hex digits")
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
        meta_step=step,
        controller=_controller(path, controller, baseline),
        store=store,
        commit_slots=slots,
        store_digest=header["store_digest"],
        log_sha256=sha,
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
    first that ``want`` holds and ``ckpt`` lacks."""
    found, held = (
        {n: f"value {a.item():.17g}" if a.ndim == 0 else f"shape {list(a.shape)}" for n, a in pairs}
        for pairs in (_layout(ckpt), _layout(want))
    )
    for name in [*found, *held]:
        if found.get(name) != held.get(name):
            raise ValueError(
                f"{path}: {name}: checkpoint holds {found.get(name, 'nothing')}, "
                f"the run holds {held.get(name, 'nothing')}"
            )
