"""Persistence: store digests, JSONL event logs, and resumable checkpoints.

Everything is JSON with a fixed key order, so identical in-memory state
always serializes to identical bytes and a save/load/save cycle is
byte-stable. Event logs and a checkpoint's small fields (config echo, logits,
baseline, RNG counters, reward history) use shortest-round-trip decimal
floats. Every array of a checkpoint's store, head and optimizer slots is
stored as ``{"shape": [...], "f8": "<base64>"}``, the standard base64 of its
little-endian float64 bytes, so it restores bit for bit (``-0.0``, subnormals
and all) at about half the size of decimal text. Loading checks the base64
alphabet and that the byte length is ``8 * prod(shape)``; a malformed array
raises ``ValueError`` naming the file and the array. Files are written to a
temp path and renamed into place.

Digests are 64-bit BLAKE2b (``hashlib.blake2b(digest_size=8)``), written as
16 hex characters. ``store_digest`` walks the store in sorted key order and
hashes each key's text, its shape, and its values as little-endian float64
bytes, so it distinguishes ``-0.0`` from ``0.0``, one-ulp neighbours, and the
same values under a different shape. A checkpoint carries that store digest
plus a whole-checkpoint digest over every field (config echo, meta-step,
controller logits, baseline and its flag, controller step and slots, store,
head, commit slots, RNG counters, reward history); arrays enter it as shape
plus float64 bytes and small fields as canonical JSON. ``load_checkpoint``
verifies both, so editing any value of a saved checkpoint makes it raise
``ValueError``.

Checkpoints are format version 4 and event logs format version 2. Version 1
used a 64-bit FNV-1a over decimal text, so its digest strings differ;
version-2 checkpoints lack the reward history, so a run resumed from one
would return a truncated history; versions 1-3 store arrays as decimal
lists. A checkpoint of any other version is rejected with a "format version"
error; there is no migration.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .supernet import ParamKey, SuperModelWeights
from .trainstep import SlotStore

CHECKPOINT_FORMAT_VERSION = 4
EVENT_LOG_FORMAT_VERSION = 2


def _float_list(arr: np.ndarray) -> list[float]:
    return np.asarray(arr, dtype=np.float64).reshape(-1).tolist()


def _hash_array(h, label: str, arr: np.ndarray) -> None:
    shape = ",".join(str(d) for d in arr.shape)
    h.update(f"{label}:{shape}:".encode())
    h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _hash_store(h, store: Mapping[ParamKey, np.ndarray]) -> None:
    for key in sorted(store):
        _hash_array(h, key.text(), store[key])


def store_digest(store: Mapping[ParamKey, np.ndarray]) -> str:
    """BLAKE2b-64 over sorted keys, shapes and little-endian float64 bytes."""
    h = hashlib.blake2b(digest_size=8)
    _hash_store(h, store)
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
        return json.dumps(
            {
                "meta_step": self.meta_step,
                "mean_reward": self.mean_reward,
                "baseline": self.baseline,
                "probabilities": self.probabilities,
                "store_digest": self.store_digest,
                "wall_ms": self.wall_ms,
            }
        )


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


def truncate_events(path: str, meta_step: int) -> int:
    """Cut the log at ``path`` back to its header and the records of steps
    before ``meta_step``, leaving the kept lines byte-identical; returns the
    number of bytes kept.

    Records are written in step order, so the cut is at the first line that is
    neither the header nor an earlier step; that also drops a torn final line.
    """
    offset = 0
    with open(path, "r+b") as fh:
        for line in fh:
            if line.strip():
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    break
                if "decisions" not in doc and doc.get("meta_step", meta_step) >= meta_step:
                    break
            offset += len(line)
        fh.truncate(offset)
    return offset


def read_events(path: str) -> tuple[dict | None, list[EventRecord]]:
    """Read an event log; returns (header, records)."""
    header = None
    records: list[EventRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed JSON on line {line_no} ({exc})") from None
            if "decisions" in doc:
                header = doc
                continue
            records.append(
                EventRecord(
                    meta_step=doc["meta_step"],
                    mean_reward=doc["mean_reward"],
                    baseline=doc["baseline"],
                    probabilities=doc["probabilities"],
                    store_digest=doc["store_digest"],
                    wall_ms=doc["wall_ms"],
                )
            )
    return header, records


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Resumable search state."""

    config_echo: dict
    meta_step: int
    logits: list[np.ndarray]
    baseline: float
    baseline_initialized: bool
    controller_step: int
    controller_slots: SlotStore
    store: dict[ParamKey, np.ndarray]
    head_weight: np.ndarray | None
    head_bias: np.ndarray | None
    commit_slots: SlotStore
    reward_history: list[dict]  # one document per reward record before meta_step
    rng_counters: dict[str, int] = field(default_factory=dict)


def _tensor_doc(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {"shape": list(arr.shape), "f8": base64.b64encode(data).decode("ascii")}


def _tensor_from_doc(doc, where: str) -> np.ndarray:
    """Decode a ``_tensor_doc`` into an owned, writable float64 array;
    ``where`` names the array in the ``ValueError`` for a malformed one."""
    if not isinstance(doc, dict) or not isinstance(doc.get("f8"), str):
        raise ValueError(f"{where}: array is not an object with an 'f8' string")
    shape = doc.get("shape")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative integers")
    try:
        data = base64.b64decode(doc["f8"], validate=True)
    except ValueError as exc:
        raise ValueError(f"{where}: invalid base64 ({exc})") from None
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{where}: {len(data)} bytes do not hold float64 shape {shape}")
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


def _slot_doc(slots: SlotStore, key_text) -> dict:
    out = {}
    for (family, key), slot in sorted(slots.items(), key=lambda kv: (kv[0][0], key_text(kv[0][1]))):
        entry = {}
        for name, value in sorted(slot.items()):
            entry[name] = value if isinstance(value, int) else _tensor_doc(value)
        out[f"{family}|{key_text(key)}"] = entry
    return out


def _slots_from_doc(doc: dict, key_parse, where: str) -> SlotStore:
    slots = SlotStore()
    for combined, entry in doc.items():
        family, _, key_text = combined.partition("|")
        slot = {
            name: (
                value
                if isinstance(value, int)
                else _tensor_from_doc(value, f"{where}/{combined}/{name}")
            )
            for name, value in entry.items()
        }
        slots.restore(family, key_parse(key_text), slot)
    return slots


def _param_key_text(key: ParamKey) -> str:
    return key.text()


def _param_key_parse(text: str) -> ParamKey:
    layer, op, name = text.split("/")
    return ParamKey(int(layer), int(op), name)


def _hash_slots(h, label: str, slots: SlotStore, key_text) -> None:
    for (family, key), slot in sorted(slots.items(), key=lambda kv: (kv[0][0], key_text(kv[0][1]))):
        for name, value in sorted(slot.items()):
            entry = f"{label}/{family}|{key_text(key)}/{name}"
            if isinstance(value, int):
                h.update(f"{entry}={value};".encode())
            else:
                _hash_array(h, entry, value)


def checkpoint_digest(ckpt: Checkpoint) -> str:
    """BLAKE2b-64 over every field of ``ckpt``: small fields as canonical
    JSON, arrays as label, shape and little-endian float64 bytes."""
    h = hashlib.blake2b(digest_size=8)
    small = {
        "config": ckpt.config_echo,
        "meta_step": ckpt.meta_step,
        "baseline": ckpt.baseline,
        "baseline_initialized": ckpt.baseline_initialized,
        "controller_step": ckpt.controller_step,
        "rng": ckpt.rng_counters,
        "reward_history": ckpt.reward_history,
    }
    h.update(json.dumps(small, sort_keys=True).encode())
    for i, z in enumerate(ckpt.logits):
        _hash_array(h, f"logits/{i}", z)
    _hash_store(h, ckpt.store)
    if ckpt.head_weight is not None:
        _hash_array(h, "head/weight", ckpt.head_weight)
        _hash_array(h, "head/bias", ckpt.head_bias)
    _hash_slots(h, "controller_slots", ckpt.controller_slots, str)
    _hash_slots(h, "commit_slots", ckpt.commit_slots, _param_key_text)
    return h.hexdigest()


def checkpoint_to_document(ckpt: Checkpoint) -> dict:
    store_doc = {
        key.text(): _tensor_doc(ckpt.store[key]) for key in sorted(ckpt.store)
    }
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config_echo,
        "meta_step": ckpt.meta_step,
        "controller": {
            "logits": [_float_list(z) for z in ckpt.logits],
            "baseline": ckpt.baseline,
            "baseline_initialized": ckpt.baseline_initialized,
            "step": ckpt.controller_step,
            "slots": _slot_doc(ckpt.controller_slots, str),
        },
        "store": store_doc,
        "head": (
            None
            if ckpt.head_weight is None
            else {"weight": _tensor_doc(ckpt.head_weight), "bias": _tensor_doc(ckpt.head_bias)}
        ),
        "commit_slots": _slot_doc(ckpt.commit_slots, _param_key_text),
        "rng": dict(sorted(ckpt.rng_counters.items())),
        "reward_history": ckpt.reward_history,
        "store_digest": store_digest(ckpt.store),
        "checkpoint_digest": checkpoint_digest(ckpt),
    }


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    """Serialize and atomically replace ``path``."""
    payload = json.dumps(checkpoint_to_document(ckpt), sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and integrity-check a checkpoint file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed checkpoint JSON ({exc})") from None
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint format version {version!r} is not "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    store = {
        _param_key_parse(text): _tensor_from_doc(t, f"{path}: store/{text}")
        for text, t in doc["store"].items()
    }
    if store_digest(store) != doc["store_digest"]:
        raise ValueError(f"{path}: store digest mismatch, checkpoint is corrupt")
    head = doc.get("head")
    controller = doc["controller"]
    ckpt = Checkpoint(
        config_echo=doc["config"],
        meta_step=doc["meta_step"],
        logits=[np.asarray(z, dtype=np.float64) for z in controller["logits"]],
        baseline=controller["baseline"],
        baseline_initialized=controller["baseline_initialized"],
        controller_step=controller["step"],
        controller_slots=_slots_from_doc(controller["slots"], int, f"{path}: controller/slots"),
        store=store,
        head_weight=None if head is None else _tensor_from_doc(head["weight"], f"{path}: head/weight"),
        head_bias=None if head is None else _tensor_from_doc(head["bias"], f"{path}: head/bias"),
        commit_slots=_slots_from_doc(doc["commit_slots"], _param_key_parse, f"{path}: commit_slots"),
        rng_counters={k: int(v) for k, v in doc.get("rng", {}).items()},
        reward_history=doc["reward_history"],
    )
    if checkpoint_digest(ckpt) != doc.get("checkpoint_digest"):
        raise ValueError(f"{path}: checkpoint digest mismatch, checkpoint is corrupt")
    return ckpt


def weights_digest(weights: SuperModelWeights | None) -> str:
    return store_digest(weights.store if weights is not None else {})
