"""Command-line interface tests: exit codes, result files, reports."""
from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from jointsearch.cli import main
from jointsearch.config import load_config
from jointsearch.engine import search
from jointsearch.space import build_space

from reference import unsealed


def base_doc(total=6):
    return {
        "space": {
            "input_dim": 2,
            "num_classes": 2,
            "layers": [{"candidates": ["identity", "affine-relu:8"], "width": 8}],
            "hyperparameters": [
                {
                    "name": "learning_rate",
                    "kind": "continuous",
                    "basis": [0.005, 0.01, 0.02],
                },
                {"name": "optimizer", "kind": "categorical", "basis": ["sgd", "adam"]},
            ],
        },
        "data": {"generator": "two_moons", "n": 120, "seed": 3},
        "search": {"total_meta_steps": total, "pairs_per_step": 2},
        "retrain": {"epochs": 4},
    }


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_search(tmp_path, tag, doc_extra=None, total=6):
    """Search with ``doc_extra`` output fields; a checkpointed run logs to
    ``<tag>.events.jsonl`` unless they name another log."""
    doc = base_doc(total)
    doc["output"] = {"result_path": str(tmp_path / f"{tag}.result.json")}
    if doc_extra and "checkpoint_path" in doc_extra:
        doc["output"]["log_path"] = str(tmp_path / f"{tag}.events.jsonl")
    if doc_extra:
        for key, value in doc_extra.items():
            doc["output"][key] = value
    cfg = write_config(tmp_path, f"{tag}.cfg.json", doc)
    code = main(["search", "--config", cfg])
    return code, tmp_path / f"{tag}.result.json", cfg


# ---------------------------------------------------------------------------
# argument and config validation
# ---------------------------------------------------------------------------


def test_missing_config_flag_exits_one_and_names_it(capsys):
    assert main(["search"]) == 1
    assert "--config" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["optimize"]) == 1


def test_nonexistent_config_exits_one(capsys, tmp_path):
    assert main(["search", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["search", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_value_exits_one(capsys, tmp_path):
    doc = base_doc()
    doc["search"]["pairs_per_step"] = 0
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["search", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "pairs_per_step" in err


@pytest.mark.parametrize(
    "section, key, text",
    [
        ("search", "entropy_weight", "NaN"),
        ("search", "meta_lr", "Infinity"),
        ("data", "fractions", "[1.0, 0.0, 0.0]"),
        ("data", "n", "121"),
    ],
)
def test_config_value_that_would_fail_at_run_time_exits_one(capsys, tmp_path, section, key, text):
    # Rejected while the config is read (exit 1), not somewhere inside the run.
    doc = base_doc()
    doc[section][key] = "PLACEHOLDER"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', text))
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"{section}.{key}" in err


def _set(doc, field, value):
    """Set the config field named like ``search.meta_lr`` or ``space.x[0].y[1]``."""
    *parents, last = field.replace("]", "").replace("[", ".").split(".")
    for part in parents:
        doc = doc[int(part)] if part.isdigit() else doc[part]
    doc[int(last) if last.isdigit() else last] = value


@pytest.mark.parametrize(
    "field",
    [
        "data.noise_sd",
        "search.meta_lr",
        "space.hyperparameters[0].basis[1]",
    ],
)
def test_integer_too_large_for_a_float_exits_one(capsys, tmp_path, field):
    doc = base_doc()
    _set(doc, field, "PLACEHOLDER")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', "1" + "0" * 400))
    assert main(["search", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {field}: expected a finite number, got an integer too large" in err


@pytest.mark.parametrize("field", ["data.n", "search.pairs_per_step", "search.total_meta_steps"])
def test_integer_outside_int64_exits_one(capsys, tmp_path, field):
    # data.n and pairs_per_step used to pass the parser and fail mid-run on
    # the array size (exit 2).
    doc = base_doc()
    _set(doc, field, 10**30)
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["search", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"error: {field}: expected an integer, got one outside the signed 64-bit range" in err


def test_integer_too_long_to_read_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base_doc()).replace('"n": 120', '"n": ' + "1" * 5000))
    assert main(["search", "--config", str(path)]) == 1
    assert f"error: {path}: malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["layers", "hyperparameters"])
def test_null_space_list_exits_one(capsys, tmp_path, key):
    doc = base_doc()
    doc["space"][key] = None
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["search", "--config", cfg]) == 1
    assert f"error: space.{key}: expected a list" in capsys.readouterr().err


def test_baseline_rejects_nonpositive_budget(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json", base_doc())
    assert main(["baseline", "random", "--config", cfg, "--budget", "0"]) == 1
    assert "--budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_writes_result_file(capsys, tmp_path):
    code, result_path, _ = run_search(tmp_path, "run")
    assert code == 0
    assert "result written" in capsys.readouterr().out
    doc = json.loads(result_path.read_text())
    assert set(doc) == {
        "derived",
        "final_probabilities",
        "wall_steps",
        "reward_history",
    }
    assert doc["wall_steps"] == 6
    assert len(doc["reward_history"]) == 6 * 2
    assert set(doc["derived"]) == {"arch", "hyperparameters"}
    assert set(doc["derived"]["hyperparameters"]) == {"learning_rate", "optimizer"}
    for probs in doc["final_probabilities"]:
        assert abs(sum(probs) - 1.0) < 1e-9


def test_identical_configs_give_byte_identical_results(capsys, tmp_path):
    code_a, path_a, _ = run_search(tmp_path, "a")
    code_b, path_b, _ = run_search(tmp_path, "b")
    assert code_a == code_b == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_search_without_result_path_prints_document(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json", base_doc(total=2))
    assert main(["search", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["wall_steps"] == 2


def test_output_paths_in_new_directories_are_created(capsys, tmp_path):
    run_dir = tmp_path / "runs" / "first"
    doc = base_doc(total=2)
    doc["output"] = {
        "result_path": str(run_dir / "result.json"),
        "log_path": str(run_dir / "events.jsonl"),
        "checkpoint_path": str(run_dir / "search.ckpt"),
    }
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["search", "--config", cfg]) == 0
    for name in ("result.json", "events.jsonl", "search.ckpt"):
        assert (run_dir / name).exists()
    metrics_path = tmp_path / "metrics" / "out.json"
    code = main(
        [
            "retrain",
            "--config",
            cfg,
            "--from-result",
            str(run_dir / "result.json"),
            "--out",
            str(metrics_path),
        ]
    )
    assert code == 0
    assert metrics_path.exists()


# ---------------------------------------------------------------------------
# resume
# ---------------------------------------------------------------------------


def test_resume_from_tampered_checkpoint_exits_two(capsys, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(
        tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)}
    )
    assert code == 0
    data = bytearray(ckpt.read_bytes())
    first = data.index(b"\n") + 1  # the first float64 of the first store array
    value = np.frombuffer(data, dtype="<f8", count=1, offset=first)[0]
    data[first : first + 8] = np.array([np.nextafter(value, np.inf)], dtype="<f8").tobytes()
    ckpt.write_bytes(bytes(data))
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and "digest" in err


# Header values a re-sealed checkpoint may carry, each with the error it must
# raise; the run has 6 meta-steps, so the final checkpoint is at step 6.
VALUE_DEFECTS = {
    "meta-step-negative": (
        lambda h: h.update(meta_step=-2), "field meta_step is not a non-negative integer"
    ),
    "meta-step-past-total": (
        lambda h: h.update(meta_step=7), "field meta_step is not an integer in [0, 6]"
    ),
    # Format 11's controller field: the log's rewards give the controller.
    "controller-field": (
        lambda h: h.update(controller={"baseline": 0.5}),
        "checkpoint header holds an unknown field controller",
    ),
}


@pytest.mark.parametrize("defect", ["missing-field", "unknown-section", *VALUE_DEFECTS])
def test_resume_from_resealed_malformed_checkpoint_exits_two(capsys, tmp_path, defect):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    data = ckpt.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    if defect in VALUE_DEFECTS:
        edit, expected = VALUE_DEFECTS[defect]
        edit(header)
    elif defect == "missing-field":
        del header["log_sha256"]
        expected = "lacks field log_sha256"
    else:
        header["arrays"][-1][0] = "heads/weight"
        expected = "heads/weight: array belongs to no known section"
    body = json.dumps(header, sort_keys=True).encode() + data[newline:-64]
    ckpt.write_bytes(body + hashlib.sha256(body).hexdigest().encode())
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and str(ckpt) in err and expected in err


def _rename_arrays(arrays, old, new):
    """Rename every array whose name starts with ``old`` to start with ``new``."""
    for entry in arrays:
        if entry[0].startswith(old):
            entry[0] = new + entry[0][len(old) :]


def _rename_commit_slot(arrays, old, new):
    """Move the arrays of commit slot ``old`` (``family|key``) to ``new``."""
    _rename_arrays(arrays, f"commit_slots/{old}/", f"commit_slots/{new}/")


def _drop_array(arrays, name):
    arrays[:] = [entry for entry in arrays if entry[0] != name]


def _reshape_array(arrays, name, edit):
    for entry in arrays:
        if entry[0] == name:
            entry[1] = edit(entry[1])


def _to_momentum(arrays):
    # An Adam slot made a momentum slot, its step kept: m becomes buf, v goes.
    _rename_commit_slot(arrays, "adam|0/1/bias", "momentum|0/1/bias")
    _drop_array(arrays, "commit_slots/momentum|0/1/bias/v")
    _rename_arrays(arrays, "commit_slots/momentum|0/1/bias/m", "commit_slots/momentum|0/1/bias/buf")


def _add_slot(arrays, section, name, fields):
    """Add slot ``name`` (``family|key``) with the arrays ``fields`` (field
    name to array) to ``section``."""
    arrays += [[f"{section}/{name}/{field}", arr] for field, arr in fields.items()]


# Edits of a checkpoint's arrays (a list of [name, array] in file order), each
# re-sealed with its store digest recomputed, and the error each must raise.
# The store holds 0/1/weight (2, 8) and 0/1/bias (8,). Each commit slot
# field is an array, an integer field (Adam's step) a 0-d one. The loader
# refuses a slot named other than family|key, a 0-d field that is not a whole
# number from 1 to 2^53, a slot array that is not finite, and an array of no
# known section (format 9's head, format 10's reward history and format 11's
# controller among them); it takes the other files, and the resume refuses
# each, naming the first array in which it differs from the state the run
# holds.
ARRAY_DEFECTS = {
    # Slot names and 0-d fields.
    "commit-slot-key": (
        lambda h, a: _rename_commit_slot(a, "adam|0/1/weight", "adam|x/1/weight"),
        "commit_slots/adam|x/1/weight/m: slot name 'adam|x/1/weight' is not family|key",
    ),
    **{
        f"commit-adam-step-{label}": (
            lambda h, a, v=value: _set_value(a, "commit_slots/adam|0/1/weight/step", (), v),
            "commit_slots/adam|0/1/weight/step: holds a value that is not a whole number "
            "from 1 to 2^53",
        )
        for label, value in [
            ("nan", np.nan), ("inf", np.inf), ("zero", 0.0), ("negative", -1.0),
            ("fraction", 2.5), ("negative-zero", -0.0), ("past-2-to-53", 2.0**53 + 2),
        ]
    },
    # Slot fields.
    "slot-extra-int": (
        lambda h, a: a.append(["commit_slots/adam|0/1/bias/extra", np.array(3.0)]),
        "commit_slots/adam|0/1/bias/extra: checkpoint holds value 3, the run holds nothing",
    ),
    "momentum-slot-step": (
        lambda h, a: _to_momentum(a),
        "commit_slots/momentum|0/1/bias/buf: checkpoint holds shape [8], the run holds nothing",
    ),
    "slot-family": (
        lambda h, a: _rename_commit_slot(a, "adam|0/1/bias", "foo|0/1/bias"),
        "commit_slots/foo|0/1/bias/m: checkpoint holds shape [8], the run holds nothing",
    ),
    "slot-missing-array": (
        lambda h, a: _drop_array(a, "commit_slots/adam|0/1/bias/v"),
        "commit_slots/adam|0/1/bias/v: checkpoint holds nothing, the run holds shape [8]",
    ),
    "slot-extra-array": (
        lambda h, a: a.append(["commit_slots/adam|0/1/bias/w", np.zeros(8)]),
        "commit_slots/adam|0/1/bias/w: checkpoint holds shape [8], the run holds nothing",
    ),
    "commit-slot-step-missing": (
        lambda h, a: _drop_array(a, "commit_slots/adam|0/1/weight/step"),
        "commit_slots/adam|0/1/weight/step: checkpoint holds nothing, the run holds value 2",
    ),
    "commit-slot-step-shape": (
        lambda h, a: _reshape_array(a, "commit_slots/adam|0/1/weight/step", lambda s: s.reshape(1)),
        "commit_slots/adam|0/1/weight/step: checkpoint holds shape [1], the run holds value 2",
    ),
    # Arrays and their shapes.
    "store-key-renamed": (
        lambda h, a: _rename_arrays(a, "store/0/1/bias", "store/0/0/bias"),
        "store/0/0/bias: checkpoint holds shape [8], the run holds nothing",
    ),
    "store-key-missing": (
        lambda h, a: _drop_array(a, "store/0/1/weight"),
        "store/0/1/weight: checkpoint holds nothing, the run holds shape [2, 8]",
    ),
    "store-shape": (
        lambda h, a: _reshape_array(a, "store/0/1/weight", lambda w: w.T.copy()),
        "store/0/1/weight: checkpoint holds shape [8, 2], the run holds shape [2, 8]",
    ),
    # Format 9's frozen head: the run takes it from the seed, and no file holds it.
    "head-weight-extra": (
        lambda h, a: a.append(["head/weight", np.zeros((8, 2))]),
        "head/weight: array belongs to no known section",
    ),
    "head-bias-extra": (
        lambda h, a: a.append(["head/bias", np.zeros(2)]),
        "head/bias: array belongs to no known section",
    ),
    "commit-slot-shape": (
        lambda h, a: _reshape_array(a, "commit_slots/adam|0/1/weight/m", lambda m: m.T.copy()),
        "commit_slots/adam|0/1/weight/m: checkpoint holds shape [8, 2], "
        "the run holds shape [2, 8]",
    ),
    "slot-of-no-tensor": (
        lambda h, a: _rename_commit_slot(a, "adam|0/1/bias", "adam|0/0/bias"),
        "commit_slots/adam|0/0/bias/m: checkpoint holds shape [8], the run holds nothing",
    ),
    # Slots the run could not have made: the controller keeps none, and the
    # space offers only sgd and adam.
    "controller-momentum-slot": (
        lambda h, a: _add_slot(a, "controller/slots", "momentum|0", {"buf": np.zeros(2)}),
        "controller/slots/momentum|0/buf: array belongs to no known section",
    ),
    "commit-rmsprop-slot": (
        lambda h, a: _add_slot(a, "commit_slots", "rmsprop|0/1/bias", {"sq": np.zeros(8)}),
        "commit_slots/rmsprop|0/1/bias/sq: checkpoint holds shape [8], the run holds nothing",
    ),
    # sgd is in the space but keeps no state, so it has no slot to compare with.
    "commit-sgd-slot": (
        lambda h, a: _add_slot(a, "commit_slots", "sgd|0/1/bias", {"buf": np.zeros(8)}),
        "commit_slots/sgd|0/1/bias/buf: checkpoint holds shape [8], the run holds nothing",
    ),
    # Non-finite moments: a NaN one used to resume, then fail the next save.
    "commit-slot-v-inf": (
        lambda h, a: _set_value(a, "commit_slots/adam|0/1/bias/v", 3, np.inf),
        "commit_slots/adam|0/1/bias/v: holds a value that is not a finite number",
    ),
    "commit-slot-m-nan": (
        lambda h, a: _set_value(a, "commit_slots/adam|0/1/weight/m", (1, 0), np.nan),
        "commit_slots/adam|0/1/weight/m: holds a value that is not a finite number",
    ),
    # Format 11's controller, one array of 3 rows per decision of 2, 3 and 2
    # candidates, and format 10's reward history.
    **{
        f"format-11-controller-{d}": (
            lambda h, a, d=d, c=c: a.append([f"controller/{d}", np.zeros((3, c))]),
            f"controller/{d}: array belongs to no known section",
        )
        for d, c in enumerate((2, 3, 2))
    },
    **{
        f"format-10-{name}": (
            lambda h, a, n=name: a.append([f"history/{n}", np.zeros((12, 4))]),
            f"history/{name}: array belongs to no known section",
        )
        for name in ("ints", "reals")
    },
}


def _edited(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


def _set_value(arrays, name, index, value):
    _reshape_array(arrays, name, lambda arr: _edited(arr, index, value))


def _reseal_arrays(ckpt, edit):
    """Apply ``edit`` to the header and the arrays (a list of [name, array]
    in file order) of checkpoint ``ckpt``, and re-seal it with its store
    digest recomputed."""
    from jointsearch.persist import store_digest
    from jointsearch.supernet import ParamKey

    data = ckpt.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    arrays, offset = [], newline + 1
    for name, shape in header["arrays"]:
        count = int(np.prod(shape))
        arrays.append([name, np.frombuffer(data, "<f8", count, offset).reshape(shape)])
        offset += 8 * count
    edit(header, arrays)
    header["arrays"] = [[name, list(arr.shape)] for name, arr in arrays]
    store = {
        ParamKey(*(int(p) if p.isdigit() else p for p in name.split("/")[1:])): arr
        for name, arr in arrays
        if name.startswith("store/")
    }
    header["store_digest"] = store_digest(store)
    body = json.dumps(header, sort_keys=True).encode() + b"\n"
    body += b"".join(np.ascontiguousarray(arr, "<f8").tobytes() for _, arr in arrays)
    ckpt.write_bytes(body + hashlib.sha256(body).hexdigest().encode())


@pytest.mark.parametrize("defect", ARRAY_DEFECTS)
def test_resume_from_resealed_checkpoint_with_malformed_arrays_exits_two(capsys, tmp_path, defect):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    edit, expected = ARRAY_DEFECTS[defect]
    _reseal_arrays(ckpt, edit)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and f"{ckpt}: " in err and expected in err


WITHIN_SPACE = "is not one index per decision within [2, 3, 2]"

# Edits of the record of step 1 (line 3) of a finished run's log, each with
# the message a resume from a checkpoint re-sealed over the edited log names
# the line with: the parser's, or, for a well-formed record, the run's count
# of K = 2 candidates and commits.
RECORD_DEFECTS = {
    "candidate-accuracy-nan": (
        lambda r: r["candidates"][0].update(accuracy=float("nan")),
        "field candidates holds a value that is not a finite number",
    ),
    "candidate-reward-inf": (
        lambda r: r["candidates"][1].update(reward=float("inf")),
        "field candidates holds a value that is not a finite number",
    ),
    "candidate-selection-at-cardinality": (
        lambda r: r["candidates"][0].update(selection=[0, 3, 0]),
        f"candidates.0.selection [0, 3, 0] {WITHIN_SPACE}",
    ),
    "candidate-selection-missing": (
        lambda r: r["candidates"][1].update(selection=[0, 1]),
        f"candidates.1.selection [0, 1] {WITHIN_SPACE}",
    ),
    "commit-selection-negative": (
        lambda r: r["commits"].__setitem__(1, [0, -1, 0]),
        f"commits.1 [0, -1, 0] {WITHIN_SPACE}",
    ),
    "candidates-short": (
        lambda r: r["candidates"].pop(),
        "holds 1 candidates and 2 commits, not 2 and 2",
    ),
    "commits-extra": (
        lambda r: r["commits"].append(r["commits"][0]),
        "holds 2 candidates and 3 commits, not 2 and 2",
    ),
    "step-late": (lambda r: r.update(meta_step=2), "meta_step 2 is not 1"),
}


@pytest.mark.parametrize("defect", RECORD_DEFECTS)
def test_resume_from_a_checkpoint_resealed_over_a_malformed_log_exits_two(
    capsys, tmp_path, defect
):
    # The checkpoint seals the edited log, so only the records themselves
    # can refuse it: the resume exits 2 naming the log's line, writing nothing.
    ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.events.jsonl"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    edit, expected = RECORD_DEFECTS[defect]
    lines = log.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    edit(record)
    lines[2] = json.dumps(record) + "\n"
    log.write_text("".join(lines))
    sha = hashlib.sha256(log.read_bytes()).hexdigest()
    _reseal_arrays(ckpt, lambda h, a: h.update(log_sha256=sha))
    edited, saved = log.read_bytes(), ckpt.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {log}: line 3: {expected}" in err
    assert log.read_bytes() == edited and ckpt.read_bytes() == saved


def _nudged(value):
    """``value`` one ulp toward zero, or up from zero."""
    return float(np.nextafter(value, -np.inf if value > 0 else np.inf))


def _replay_edit(record, field, rng):
    """``record`` with one value of ``field`` moved by one ulp: the
    ``reward`` or ``accuracy`` of a seeded candidate, a seeded probability;
    ``store_digest`` has its first hex digit changed."""
    if field in ("reward", "accuracy"):
        candidate = record["candidates"][rng.index(len(record["candidates"]))]
        candidate[field] = _nudged(candidate[field])
    elif field == "probabilities":
        row = record[field][rng.index(len(record[field]))]
        j = rng.index(len(row))
        row[j] = _nudged(row[j])
    elif field == "store_digest":
        record[field] = ("1" if record[field][0] == "0" else "0") + record[field][1:]
    else:
        record[field] = _nudged(record[field])
    return record


# Each field an edit is made to, and the field the refusal names: in plain
# mode a candidate's reward is its accuracy, so an edited accuracy is caught
# by the reward it gives.
REPLAY_FIELDS = {
    "reward": "candidates.",
    "accuracy": "candidates.",
    "advantage_baseline": "advantage_baseline ",
    "baseline": "baseline ",
    "probabilities": "probabilities ",
    "mean_reward": "mean_reward ",
    "store_digest": "store_digest ",
}


# Warm-up is the first ceil(0.3 * 6) = 2 steps: the records of steps 0 and 1
# (lines 2 and 3) leave the logits alone, those of steps 2 to 5 (lines 4 to
# 7) follow updates. The store digest is compared on the last line alone.
REPLAY_LINES = {"warm-up": (2, 2), "past-warm-up": (4, 4)}  # first line, count


@pytest.mark.parametrize(
    "field, phase",
    [
        (field, phase)
        for field in REPLAY_FIELDS
        for phase in REPLAY_LINES
        if field != "store_digest" or phase == "past-warm-up"
    ],
    ids="{0[0]}-{0[1]}".format,
)
def test_resume_replays_the_logged_updates_and_refuses_a_record_they_do_not_give(
    capsys, tmp_path, field, phase
):
    # The checkpoint holds no controller: a resume replays each kept record's
    # update on step 0's and compares the record with it exactly, and the
    # last record's store digest with the checkpoint's. A seeded one-ulp edit
    # of a record before the final step-6 checkpoint, inside warm-up or past
    # it, with the checkpoint re-sealed over the edited log, exits 2 naming
    # the line and the field, and writes nothing.
    from jointsearch.numerics import RngStream

    ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.events.jsonl"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    pristine, sealed = log.read_bytes(), ckpt.read_bytes()
    rng = RngStream(0, f"replay-edits/{field}/{phase}")
    first, count = REPLAY_LINES[phase]
    for _ in range(2):
        line = 7 if field == "store_digest" else first + rng.index(count)
        lines = pristine.decode().splitlines(keepends=True)
        lines[line - 1] = json.dumps(_replay_edit(json.loads(lines[line - 1]), field, rng)) + "\n"
        log.write_text("".join(lines))
        ckpt.write_bytes(sealed)
        sha = hashlib.sha256(log.read_bytes()).hexdigest()
        _reseal_arrays(ckpt, lambda h, a: h.update(log_sha256=sha))
        edited, saved = log.read_bytes(), ckpt.read_bytes()
        assert edited != pristine
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2, (field, line)
        err = capsys.readouterr().err
        assert f"runtime error: {log}: line {line}: {REPLAY_FIELDS[field]}" in err, (field, line)
        assert log.read_bytes() == edited and ckpt.read_bytes() == saved
    log.write_bytes(pristine)
    ckpt.write_bytes(sealed)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == sealed and log.read_bytes() == pristine


def test_a_later_checkpoint_of_a_log_that_a_resume_rewrote_is_refused(capsys, tmp_path):
    # A resume from step 3 rewrites the records after its step, with new
    # wall-clock times, so the log no longer holds what a saved copy of the
    # same run's step-6 checkpoint seals: resuming from that copy exits 2,
    # naming the log, and changes neither file. With the old log back it
    # resumes.
    ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.events.jsonl"
    output = {"checkpoint_path": str(ckpt), "checkpoint_interval": 3}
    code, _, cfg = run_search(tmp_path, "run", doc_extra=output, total=9)
    assert code == 0
    every, old = _checkpoint_of_every_step(cfg, ckpt)
    step_3, step_6 = every[2], every[5]  # the file as steps 3 and 6 begin
    ckpt.write_bytes(step_3)
    log.write_bytes(old)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    later = tmp_path / "later.ckpt"
    later.write_bytes(step_6)
    rewritten = log.read_bytes()
    assert rewritten != old
    assert main(["search", "--config", cfg, "--resume", str(later)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {log}: event log before step 6 does not hash" in err
    assert log.read_bytes() == rewritten and later.read_bytes() == step_6
    log.write_bytes(old)
    assert main(["search", "--config", cfg, "--resume", str(later)]) == 0


def _checkpoint_of_every_step(cfg, ckpt):
    """The bytes of checkpoint file ``ckpt`` after each step of the run of
    config file ``cfg`` (checkpoint interval 1), the final one last, and of
    the run's event log, whose first lines each of them seals."""
    saved = []

    def copy(phase, step, weights):
        if phase == "controller" and step > 0:  # the file holds step - 1's save
            saved.append(ckpt.read_bytes())

    config = load_config(cfg)
    search(config, audit=copy)
    with open(config.output.log_path, "rb") as fh:
        return saved + [ckpt.read_bytes()], fh.read()


def test_resume_at_every_step_writes_the_uninterrupted_result_and_checkpoint(tmp_path):
    # Warm-up is the first ceil(0.3 * 6) = 2 steps, so the resumes start from
    # an untouched controller (steps 1 and 2) and from updated ones (3 to 5).
    ckpt = tmp_path / "run.ckpt"
    output = {"checkpoint_path": str(ckpt), "checkpoint_interval": 1}
    code, result, cfg = run_search(tmp_path, "run", doc_extra=output)
    assert code == 0
    uninterrupted = result.read_bytes(), unsealed(ckpt.read_bytes())
    every, log = _checkpoint_of_every_step(cfg, ckpt)
    assert unsealed(every[-1]) == uninterrupted[1]
    for done, data in enumerate(every[:-1], start=1):
        ckpt.write_bytes(data)
        (tmp_path / "run.events.jsonl").write_bytes(log)
        result.unlink()
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
        assert (result.read_bytes(), unsealed(ckpt.read_bytes())) == uninterrupted, done


def _resume_refuses_format(capsys, tmp_path, version):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    data = ckpt.read_bytes()
    ckpt.write_bytes(data.replace(b'"format_version": 12', b'"format_version": %d' % version, 1))
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {ckpt}: checkpoint format version {version} is not 12" in err


def test_resume_refuses_a_format_11_checkpoint(capsys, tmp_path):
    _resume_refuses_format(capsys, tmp_path, 11)  # it held the controller


def test_resume_refuses_a_format_10_checkpoint(capsys, tmp_path):
    _resume_refuses_format(capsys, tmp_path, 10)  # it held the reward history


def test_resume_refuses_a_commit_adam_step_other_than_the_logged_commits_count(capsys, tmp_path):
    # Replaying the logged commit selections gives each Adam slot's exact
    # update count: one below it, within the old bound of K updates per
    # step, is refused by name, as is one above it.
    from jointsearch.persist import read_events
    from jointsearch.supernet import sub_view

    ckpt, log = tmp_path / "run.ckpt", tmp_path / "run.events.jsonl"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    pristine = ckpt.read_bytes()
    space = build_space(load_config(cfg).space)
    adam = 1  # the optimizer decision's index of "adam", its last
    counts = Counter(
        key
        for record in read_events(str(log))[1]
        for selection in record.commits
        if selection[-1] == adam
        for key in sub_view(space, selection).keys
    )
    key, count = max(counts.items(), key=lambda item: (item[1], item[0].text()))
    assert 2 <= count < 6 * 2
    name = f"commit_slots/adam|{key.text()}/step"
    for value in (count - 1, count + 1):
        ckpt.write_bytes(pristine)
        _reseal_arrays(ckpt, lambda h, a: _set_value(a, name, (), float(value)))
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: {name}: checkpoint holds value {value}, the run holds value {count}" in err
    ckpt.write_bytes(pristine)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == pristine


def test_resume_refuses_a_header_field_the_writer_does_not_write(capsys, tmp_path):
    # A version-7 slot section left in the header, and format 11's controller
    # baseline: each is named, and the untouched file resumes.
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    pristine = ckpt.read_bytes()
    edits = {
        "commit_slots": lambda h: h.update(commit_slots={"adam|0/1/weight": {"step": 999}}),
        "controller": lambda h: h.update(controller={"baseline": 0.5}),
    }
    for name, edit in edits.items():
        ckpt.write_bytes(pristine)
        _reseal(ckpt, edit)
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"runtime error: {ckpt}: checkpoint header holds an unknown field {name}" in err
    ckpt.write_bytes(pristine)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == pristine


def test_resume_with_different_config_exits_one(capsys, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    other = base_doc(total=9)
    other["output"] = {"result_path": str(tmp_path / "other.result.json")}
    cfg = write_config(tmp_path, "other.cfg.json", other)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 1
    assert "different configuration" in capsys.readouterr().err


def _reseal(ckpt, edit):
    """Apply ``edit`` to the header of checkpoint ``ckpt`` and re-seal it."""
    data = ckpt.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    edit(header)
    body = json.dumps(header, sort_keys=True).encode() + data[newline:-64]
    ckpt.write_bytes(body + hashlib.sha256(body).hexdigest().encode())


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h["config"]["search"].update(meta_lr=0.5),
        lambda h: h.update(config=[h["config"]]),
        lambda h: h.update(config=None),
        lambda h: h["config"]["search"].pop("meta_lr"),
    ],
    ids=["meta-lr", "list", "null", "meta-lr-missing"],
)
def test_resume_from_resealed_checkpoint_of_another_config_exits_one(capsys, tmp_path, edit):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    _reseal(ckpt, edit)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 1
    assert "different configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "output",
    [{"result_path": "elsewhere.json", "checkpoint_interval": 5}, None, "not an object"],
)
def test_resume_from_checkpoint_whose_echo_differs_only_in_output(capsys, tmp_path, output):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    original = ckpt.read_bytes()
    _reseal(ckpt, lambda h: h["config"].update(output=output))
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == original  # the save echoes the config it ran


def test_resume_refuses_a_stale_event_log_and_leaves_it_untouched(capsys, tmp_path):
    from jointsearch import engine
    from jointsearch.config import load_config

    log, ckpt = tmp_path / "events.jsonl", tmp_path / "run.ckpt"
    extra = {"log_path": str(log), "checkpoint_path": str(ckpt), "checkpoint_interval": 3}
    code, _, cfg = run_search(tmp_path, "run", doc_extra=extra, total=9)
    assert code == 0
    complete = log.read_bytes()

    def crash(phase, step, weights):
        if (phase, step) == ("controller", 2):
            raise RuntimeError("simulated crash")

    # A rerun that crashes before its first save rewrites the log but leaves
    # the step-9 checkpoint, so the log no longer holds that run's steps.
    with pytest.raises(RuntimeError):
        engine.search(load_config(cfg), audit=crash)
    stale = log.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{log}: event log holds no record of step 2" in err
    assert log.read_bytes() == stale
    # All nine steps, the last of another store, are refused as well.
    lines = complete.decode().splitlines(keepends=True)
    last = json.loads(lines[-1])
    last["store_digest"] = "0" * 16
    log.write_text("".join(lines[:-1]) + json.dumps(last) + "\n")
    edited = log.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{log}: event log before step 9 does not hash to the checkpoint's log_sha256" in err
    assert log.read_bytes() == edited
    # The log of the checkpoint's own run resumes, and is kept as it is.
    log.write_bytes(complete)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert log.read_bytes() == complete


@pytest.mark.parametrize("crash_at", [4, None])
def test_resume_refuses_a_log_of_another_format_version_and_changes_neither_file(
    capsys, tmp_path, crash_at
):
    # Resumed mid-run (from step 4 of 6) and at the end: the log is not kept
    # and appended to under a version-2 header, but refused.
    from jointsearch import engine
    from jointsearch.config import load_config

    log, ckpt = tmp_path / "events.jsonl", tmp_path / "run.ckpt"
    doc = base_doc(6)
    doc["output"] = {"log_path": str(log), "checkpoint_path": str(ckpt), "checkpoint_interval": 2}
    cfg = write_config(tmp_path, "run.cfg.json", doc)

    def crash(phase, step, weights):
        if step == crash_at:
            raise RuntimeError("simulated crash")

    if crash_at is None:
        engine.search(load_config(cfg))
    else:
        with pytest.raises(RuntimeError):
            engine.search(load_config(cfg), audit=crash)
    log.write_bytes(log.read_bytes().replace(b'"format_version": 3', b'"format_version": 2', 1))
    edited, saved = log.read_bytes(), ckpt.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {log}: line 1: event log format version 2 is not 3" in err
    assert log.read_bytes() == edited and ckpt.read_bytes() == saved


def test_a_resumed_result_file_is_the_uninterrupted_one_when_an_override_returns_ints(tmp_path):
    # The records hold floats, so the history a resume reads back from the
    # event log writes ``1.0`` and ``0.0`` where the uninterrupted run's
    # records do too, not ``1`` and ``0``.
    from jointsearch import cli, engine

    def table(selection):
        return int(selection[0] == 1), 0

    doc = base_doc(6)
    doc["output"] = {
        "checkpoint_path": str(tmp_path / "run.ckpt"),
        "checkpoint_interval": 2,
        "log_path": str(tmp_path / "events.jsonl"),
    }
    config = load_config(write_config(tmp_path, "run.cfg.json", doc))

    def written(result, name):
        path = tmp_path / name
        cli._emit(cli._result_document(build_space(config.space), result), str(path))
        return path.read_bytes()

    whole = written(engine.search(config, evaluate_override=table), "whole.json")

    def crash(phase, step, weights):
        if step == 3:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        engine.search(config, evaluate_override=table, audit=crash)
    resume = config.output.checkpoint_path
    resumed = engine.search(config, evaluate_override=table, resume_from=resume)
    assert written(resumed, "resumed.json") == whole
    history = json.loads(whole)["reward_history"]
    assert all(type(r[name]) is float for r in history for name in ("accuracy", "cost"))


@pytest.mark.parametrize("step", [True, 1.0])
def test_resume_refuses_a_log_whose_step_is_not_an_integer(capsys, tmp_path, step):
    # ``True == 1`` and ``1.0 == 1``, but ``read_events``, and so ``report``,
    # refuses either as a meta_step, so the resume must not keep the record,
    # even before the log's hash is compared.
    from jointsearch import engine
    from jointsearch.config import load_config

    log, ckpt = tmp_path / "events.jsonl", tmp_path / "run.ckpt"
    extra = {"log_path": str(log), "checkpoint_path": str(ckpt), "checkpoint_interval": 2}
    doc = base_doc(4)
    doc["output"] = extra
    cfg = write_config(tmp_path, "run.cfg.json", doc)

    def crash(phase, step, weights):
        if step == 3:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        engine.search(load_config(cfg), audit=crash)
    lines = log.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "meta_step": step})
    log.write_text("\n".join(lines) + "\n")
    edited = log.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{log}: line 3: meta_step {step} is not 1" in err
    assert log.read_bytes() == edited


def _crashed_at_step_5(tmp_path):
    """A 6-step run checkpointed every 2 steps, crashed in step 5: its
    config file, checkpoint (at step 4) and event log (through step 4's
    record, which the checkpoint does not seal)."""
    from jointsearch import engine

    log, ckpt = tmp_path / "events.jsonl", tmp_path / "run.ckpt"
    doc = base_doc(6)
    doc["output"] = {"log_path": str(log), "checkpoint_path": str(ckpt), "checkpoint_interval": 2}
    cfg = write_config(tmp_path, "run.cfg.json", doc)

    def crash(phase, step, weights):
        if (phase, step) == ("controller", 5):
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        engine.search(load_config(cfg), audit=crash)
    return cfg, ckpt, log


def _edit_field(record, field, rng):
    """``record`` with one well-formed value of ``field`` changed."""
    if field == "probabilities":
        row = record[field][rng.index(len(record[field]))]
        j = rng.index(len(row))
        row[j] = float(np.nextafter(row[j], 1.0))
    elif field == "accuracy":
        candidate = record["candidates"][rng.index(len(record["candidates"]))]
        candidate[field] = candidate[field] / 2.0 if candidate[field] else 0.5
    elif field == "commits":
        selection = record[field][rng.index(len(record[field]))]
        selection[0] = 1 - selection[0]  # the first decision has 2 candidates
    else:
        record[field] += 1.0
    return record


@pytest.mark.parametrize("field", ["probabilities", "accuracy", "commits", "wall_ms"])
def test_resume_refuses_a_sealed_log_whose_kept_records_were_edited(capsys, tmp_path, field):
    # A seeded sample of single-field edits of the records before the
    # checkpoint's step, each well-formed: the log's hash is not the one the
    # checkpoint seals, so the resume exits 2 naming the log and writes nothing.
    from jointsearch.numerics import RngStream

    cfg, ckpt, log = _crashed_at_step_5(tmp_path)
    pristine, saved = log.read_bytes(), ckpt.read_bytes()
    rng = RngStream(0, f"sealed-log-edits/{field}")
    for _ in range(3):
        line = 1 + rng.index(4)  # lines 2 to 5: steps 0 to 3
        lines = pristine.decode().splitlines(keepends=True)
        lines[line] = json.dumps(_edit_field(json.loads(lines[line]), field, rng)) + "\n"
        log.write_text("".join(lines))
        assert log.read_bytes() != pristine
        edited = log.read_bytes()
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2, (field, line)
        err = capsys.readouterr().err
        assert f"runtime error: {log}: event log before step 4 does not hash" in err, field
        assert log.read_bytes() == edited and ckpt.read_bytes() == saved
    log.write_bytes(pristine)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0


@pytest.mark.parametrize("line", [6, 7])
def test_resume_cuts_a_record_at_or_after_the_checkpoints_step(capsys, tmp_path, line):
    # Line 6 holds step 4, which the step-4 checkpoint does not seal, and a
    # torn line 7 follows it: an edit there is cut, and the resume rewrites
    # the uninterrupted log but for its wall-clock times.
    cfg, ckpt, log = _crashed_at_step_5(tmp_path)
    lines = log.read_text().splitlines(keepends=True)
    if line == 6:
        lines[5] = json.dumps({**json.loads(lines[5]), "mean_reward": 0.0, "commits": []}) + "\n"
    else:
        lines.append('{"meta_step": 5, "candi')
    log.write_text("".join(lines))
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    reference = tmp_path / "reference.events.jsonl"
    doc = json.loads(open(cfg).read())
    doc["output"]["log_path"] = str(reference)
    doc["output"]["checkpoint_path"] = str(tmp_path / "reference.ckpt")
    assert main(["search", "--config", write_config(tmp_path, "reference.json", doc)]) == 0

    def timeless(path):
        return [{**json.loads(l), "wall_ms": None} for l in path.read_text().splitlines()]

    assert timeless(log) == timeless(reference)
    # The final checkpoint seals the log as the resume rewrote it.
    sealed = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])["log_sha256"]
    assert sealed == hashlib.sha256(log.read_bytes()).hexdigest()


def test_a_checkpoint_path_without_a_log_path_exits_one(capsys, tmp_path):
    doc = base_doc(2)
    doc["output"] = {"checkpoint_path": str(tmp_path / "run.ckpt")}
    assert main(["search", "--config", write_config(tmp_path, "cfg.json", doc)]) == 1
    err = capsys.readouterr().err
    assert "output.checkpoint_path needs output.log_path" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
    # A resume reads the log, so it needs a log_path too, whatever it writes.
    ckpt = tmp_path / "run.ckpt"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)}, total=2)
    assert code == 0
    saved = ckpt.read_bytes()
    doc["output"] = {"result_path": str(tmp_path / "resumed.json")}
    cfg = write_config(tmp_path, "resume.json", doc)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 1
    assert "output.log_path is not set" in capsys.readouterr().err
    assert ckpt.read_bytes() == saved and not (tmp_path / "resumed.json").exists()


def test_resume_at_step_3_whose_log_is_deleted_exits_two(capsys, tmp_path):
    from jointsearch import engine

    log, ckpt = tmp_path / "events.jsonl", tmp_path / "run.ckpt"
    doc = base_doc(6)
    doc["output"] = {"log_path": str(log), "checkpoint_path": str(ckpt), "checkpoint_interval": 3}
    cfg = write_config(tmp_path, "run.cfg.json", doc)

    def crash(phase, step, weights):
        if step == 4:
            raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        engine.search(load_config(cfg), audit=crash)
    saved = ckpt.read_bytes()
    log.unlink()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {log}: event log is missing at resume step 3" in err
    assert ckpt.read_bytes() == saved and not log.exists()


# ---------------------------------------------------------------------------
# retrain and baseline
# ---------------------------------------------------------------------------


def test_retrain_from_result_file(capsys, tmp_path):
    code, result_path, cfg = run_search(tmp_path, "run")
    assert code == 0
    out = tmp_path / "metrics.json"
    code = main(
        [
            "retrain",
            "--config",
            cfg,
            "--from-result",
            str(result_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = json.loads(out.read_text())
    assert set(metrics) == {
        "derived",
        "val_accuracy",
        "val_loss",
        "test_accuracy",
        "test_loss",
    }
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    assert metrics["val_loss"] >= 0.0


def test_retrain_refuses_a_list_dropout_keep(capsys, tmp_path):
    doc = base_doc()
    doc["space"]["hyperparameters"].append(
        {"name": "dropout_keep", "kind": "continuous", "basis": [0.5, 1.0]}
    )
    cfg = write_config(tmp_path, "cfg.json", doc)
    result = tmp_path / "result.json"
    derived = {"learning_rate": 0.01, "optimizer": "sgd", "dropout_keep": [0.5]}
    result.write_text(json.dumps({"derived": {"arch": [1], "hyperparameters": derived}}))
    assert main(["retrain", "--config", cfg, "--from-result", str(result)]) == 2
    expected = f"{result}: field derived.hyperparameters.dropout_keep is missing or not a finite"
    assert expected in capsys.readouterr().err
    # A finite value off the basis gets past the result checks; the trainer
    # still refuses one outside its range.
    derived["dropout_keep"] = 1.5
    result.write_text(json.dumps({"derived": {"arch": [1], "hyperparameters": derived}}))
    assert main(["retrain", "--config", cfg, "--from-result", str(result)]) == 2
    assert "dropout_keep must be a number in (0, 1]" in capsys.readouterr().err


# Edits of the search result's ``derived`` object (arch and hyperparameters),
# each with the field retrain must name when it refuses the file. The space
# has one layer of 2 candidates, a continuous learning rate and an optimizer
# of basis ["sgd", "adam"].
ARCH = "derived.arch is missing or not a list of one op index per layer, within [2]"
RESULT_DEFECTS = {
    "arch-negative": (lambda d: d.update(arch=[-1]), ARCH),
    "arch-past-candidates": (lambda d: d.update(arch=[2]), ARCH),
    "arch-float": (lambda d: d.update(arch=[1.9]), ARCH),
    "arch-bool": (lambda d: d.update(arch=[True]), ARCH),
    "arch-text": (lambda d: d.update(arch=["1"]), ARCH),
    "arch-length": (lambda d: d.update(arch=[1, 0]), ARCH),
    "arch-missing": (lambda d: d.pop("arch"), ARCH),
    "hyperparameters-missing": (
        lambda d: d.pop("hyperparameters"),
        "derived.hyperparameters is missing or not an object",
    ),
    "hyperparameters-list": (
        lambda d: d.update(hyperparameters=[0.01, "sgd"]),
        "derived.hyperparameters is missing or not an object",
    ),
    **{
        f"learning-rate-{name}": (
            lambda d, v=value: d["hyperparameters"].update(learning_rate=v),
            "derived.hyperparameters.learning_rate is missing or not a finite number",
        )
        for name, value in [
            ("nan", float("nan")),
            ("infinity", float("inf")),
            ("too-large", 10**400),
            ("text", "0.01"),
            ("bool", True),
            ("null", None),
        ]
    },
    "learning-rate-missing": (
        lambda d: d["hyperparameters"].pop("learning_rate"),
        "derived.hyperparameters.learning_rate is missing or not a finite number",
    ),
    **{
        f"optimizer-{name}": (
            lambda d, v=value: d["hyperparameters"].update(optimizer=v),
            "derived.hyperparameters.optimizer is missing or not one of ['sgd', 'adam']",
        )
        for name, value in [("off-basis", "rmsprop"), ("index", 1), ("list", ["sgd"])]
    },
    "optimizer-missing": (
        lambda d: d["hyperparameters"].pop("optimizer"),
        "derived.hyperparameters.optimizer is missing or not one of ['sgd', 'adam']",
    ),
    **{
        f"unsearched-{name}": (
            lambda d, n=name, v=value: d["hyperparameters"].update({n: v}),
            f"derived.hyperparameters.{name} is not a hyperparameter the space searches",
        )
        for name, value in [("mixup_ratio", 0.5), ("typo", 1)]
    },
}


@pytest.mark.parametrize("defect", RESULT_DEFECTS)
def test_retrain_refuses_a_result_the_space_could_not_derive(capsys, tmp_path, defect):
    code, result_path, cfg = run_search(tmp_path, "run")
    assert code == 0
    doc = json.loads(result_path.read_text())
    edit, expected = RESULT_DEFECTS[defect]
    edit(doc["derived"])
    result_path.write_text(json.dumps(doc))
    assert main(["retrain", "--config", cfg, "--from-result", str(result_path)]) == 2
    assert f"runtime error: {result_path}: field {expected}" in capsys.readouterr().err


def test_retrain_reads_a_bare_derived_document_and_names_its_fields(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json", base_doc())
    result = tmp_path / "derived.json"
    # A continuous value off the basis is kept as given.
    derived = {"arch": [1], "hyperparameters": {"learning_rate": 0.0123, "optimizer": "adam"}}
    result.write_text(json.dumps(derived))
    out = tmp_path / "metrics.json"
    assert main(["retrain", "--config", cfg, "--from-result", str(result), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["derived"] == derived
    for doc in ({"arch": [-1], "hyperparameters": derived["hyperparameters"]}, [1]):
        result.write_text(json.dumps(doc))
        assert main(["retrain", "--config", cfg, "--from-result", str(result)]) == 2
        assert f"{result}: field arch is missing" in capsys.readouterr().err


def test_baseline_random_runs_requested_trials(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json", base_doc())
    out = tmp_path / "baseline.json"
    code = main(
        ["baseline", "random", "--config", cfg, "--budget", "2", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["trials"]) == 2
    accs = [t["val_accuracy"] for t in doc["trials"]]
    assert doc["best"]["val_accuracy"] == max(accs)
    assert doc["best"]["index"] == accs.index(max(accs))


@pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe"])
def test_retrain_names_a_result_file_that_is_not_utf8_json(capsys, tmp_path, raw):
    cfg = write_config(tmp_path, "cfg.json", base_doc())
    result = tmp_path / "result.json"
    result.write_bytes(raw)
    assert main(["retrain", "--config", cfg, "--from-result", str(result)]) == 2
    assert capsys.readouterr().err.startswith(f"runtime error: {result}: malformed result file (")


def write_csv_dataset(path, rows=40):
    # Two well-separated classes on two features, alternating row by row.
    lines = ["x1,x2,label"]
    for i in range(rows):
        side = 1.0 if i % 2 else -1.0
        lines.append(f"{side + 0.01 * i},{side - 0.02 * i},{'ab'[i % 2]}")
    path.write_text("\n".join(lines) + "\n")


def test_search_then_retrain_on_a_csv_dataset(capsys, tmp_path):
    data = tmp_path / "data.csv"
    write_csv_dataset(data)
    doc = base_doc(total=3)
    doc["data"] = {"csv_path": str(data), "seed": 3}
    doc["output"] = {"result_path": str(tmp_path / "result.json")}
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["search", "--config", cfg]) == 0
    out = tmp_path / "metrics.json"
    retrain = ["retrain", "--config", cfg, "--from-result", str(tmp_path / "result.json")]
    assert main([*retrain, "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    assert metrics["derived"] == json.loads((tmp_path / "result.json").read_text())["derived"]


@pytest.mark.parametrize(
    "rows, empty",
    [
        ([], "data split leaves test with no rows: 2 rows split into train 1, val 1, test 0"),
        (
            [(0.0, 1.0, "a"), (1.0, 0.0, "b"), (0.5, 0.5, "a")],
            "data split leaves val with no rows: 3 rows split into train 2, val 0, test 1",
        ),
    ],
    ids=["two-rows", "three-row-csv"],
)
def test_every_command_refuses_an_empty_split_part_at_set_up(capsys, tmp_path, rows, empty):
    # Refused at set-up: retrain and baseline would average an empty part to
    # NaN, which their JSON output cannot hold.
    doc = base_doc(total=2)
    doc["data"]["n"] = 2
    if rows:
        data = tmp_path / "data.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([("x1", "x2", "label"), *rows])
        doc["data"] = {"csv_path": str(data), "seed": 3}
    doc["output"] = {"result_path": str(tmp_path / "result.json")}
    cfg = write_config(tmp_path, "cfg.json", doc)
    derived = {"arch": [1], "hyperparameters": {"learning_rate": 0.01, "optimizer": "adam"}}
    result = write_config(tmp_path, "derived.json", derived)
    for argv in (
        ["search", "--config", cfg],
        ["retrain", "--config", cfg, "--from-result", result],
        ["baseline", "random", "--config", cfg, "--budget", "2"],
    ):
        assert main(argv) == 1, argv[0]
        out, err = capsys.readouterr()
        assert err == f"error: {empty}\n" and out == "", argv[0]
    assert not (tmp_path / "result.json").exists()


def test_search_names_a_csv_path_that_is_not_utf8(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_bytes(b"x1,x2,label\n\xff,0.0,a\n")
    doc = base_doc()
    doc["data"] = {"csv_path": str(data), "seed": 3}
    cfg = write_config(tmp_path, "cfg.json", doc)
    assert main(["search", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"runtime error: {data}: malformed CSV (")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_emits_trajectories_and_summary(capsys, tmp_path):
    log = tmp_path / "events.jsonl"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"log_path": str(log)})
    assert code == 0
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 0

    csv_files = sorted(p.name for p in out_dir.glob("*.csv"))
    assert csv_files == [
        "decision_00_layer0.csv",
        "decision_01_learning_rate.csv",
        "decision_02_optimizer.csv",
    ]
    for name, cardinality in zip(csv_files, (2, 3, 2)):
        with open(out_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["meta_step"] + [f"p{j}" for j in range(cardinality)]
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            probs = [float(v) for v in row[1:]]
            assert abs(sum(probs) - 1.0) < 1e-9

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["steps"] == 6
    assert summary["final_meta_step"] == 5
    assert set(summary["final_argmax"]) == {"layer0", "learning_rate", "optimizer"}
    assert len(summary["final_store_digest"]) == 16


def test_report_of_a_zero_step_run_has_headers_and_null_figures(capsys, tmp_path):
    # A run with no meta-step logs its header alone.
    log = tmp_path / "events.jsonl"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"log_path": str(log)}, total=0)
    assert code == 0
    assert len(log.read_text().splitlines()) == 1
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 0

    csv_files = sorted(p.name for p in out_dir.glob("*.csv"))
    assert len(csv_files) == 3
    for name, cardinality in zip(csv_files, (2, 3, 2)):
        with open(out_dir / name, newline="") as fh:
            assert list(csv.reader(fh)) == [["meta_step"] + [f"p{j}" for j in range(cardinality)]]
    assert json.loads((out_dir / "summary.json").read_text()) == {
        "steps": 0,
        "final_meta_step": None,
        "final_baseline": None,
        "mean_reward_first": None,
        "mean_reward_last": None,
        "mean_reward_max": None,
        "final_argmax": {},
        "final_store_digest": None,
    }


def _drop_first_label(lines):
    header = json.loads(lines[0])
    del header["decisions"][0]["label"]
    lines[0] = json.dumps(header)
    return "line 1: header decisions are not objects"


def _add_a_row(lines):
    record = json.loads(lines[3])
    record["probabilities"].append([0.5, 0.5])
    lines[3] = json.dumps(record)
    return "line 4: probabilities have row lengths [2, 3, 2, 2]"


def _widen_a_row(lines):
    record = json.loads(lines[3])
    record["probabilities"][0] = [0.2, 0.3, 0.5]
    lines[3] = json.dumps(record)
    return "line 4: probabilities have row lengths [3, 3, 2]"


def _edit_header(edit, message):
    def defect(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header)
        return f"line 1: {message}"

    return pytest.param(defect, id=message)


def _insert(index, line, message):
    def defect(lines):
        lines.insert(index, lines[0] if line == "header" else line)
        return message

    return pytest.param(defect, id=f"{line or 'blank'}-at-{index}")


def _edit_last(field, value, message):
    # The base config logs six records, of steps 0 to 5, on lines 2 to 7.
    def defect(lines):
        record = json.loads(lines[-1])
        record[field] = value
        lines[-1] = json.dumps(record)
        return f"line 7: {field} {message}"

    return pytest.param(defect, id=f"{field}={value!r}")


@pytest.mark.parametrize(
    "defect",
    [
        _drop_first_label,
        _add_a_row,
        _widen_a_row,
        None,
        _edit_last("meta_step", "soon", "'soon' is not 5"),
        _edit_last("meta_step", True, "True is not 5"),
        _edit_last("meta_step", -1, "-1 is not 5"),
        _edit_last("meta_step", 4, "4 is not 5"),  # a repeated step
        _edit_last("meta_step", 6, "6 is not 5"),  # a skipped step
        _edit_last("store_digest", 7, "7 is not 16 lowercase hex digits"),
        _edit_last("store_digest", "xyz", "'xyz' is not 16 lowercase hex digits"),
        # Line 1 is the header, of exactly version 3 and its decisions; every
        # other line is a record.
        *[
            _edit_header(
                lambda h, v=value: h.update(format_version=v),
                f"event log format version {value!r} is not 3",
            )
            for value in (2, 4, "3", True)
        ],
        _edit_header(lambda h: h.pop("format_version"), "event log format version None is not 3"),
        _edit_header(lambda h: h.update(run=0), "event log header holds an unknown field run"),
        _edit_header(
            lambda h: h["decisions"][2].update(basis=["sgd", "adam"]),
            "event log header holds an unknown field decisions.2.basis",
        ),
        _insert(0, "", "malformed JSON on line 1 ("),
        _insert(3, "", "malformed JSON on line 4 ("),
        _insert(7, "", "malformed JSON on line 8 ("),
        _insert(3, "header", "line 4 is not an event record with exactly the fields"),
    ],
)
def test_report_refuses_a_malformed_log_before_writing_anything(capsys, tmp_path, defect):
    log = tmp_path / "events.jsonl"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"log_path": str(log)})
    assert code == 0
    capsys.readouterr()
    if defect is None:
        log.write_bytes(log.read_bytes() + b"\xff\n")
        expected = f"{log}: not UTF-8 text ("
    else:
        lines = log.read_text().splitlines()
        expected = f"{log}: {defect(lines)}"
        log.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"runtime error: {expected}")
    assert not out_dir.exists()


def test_report_refuses_an_empty_log(capsys, tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text("")
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 2
    expected = f"runtime error: {log}: line 1: event log is empty, without its header\n"
    assert capsys.readouterr().err == expected
    assert not out_dir.exists()


def test_report_missing_log_exits_one(capsys, tmp_path):
    assert main(["report", "--log", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("mean_reward", "NaN"),
        ("baseline", "Infinity"),
        ("probabilities", "-Infinity"),
        ("wall_ms", "NaN"),
    ],
)
def test_report_refuses_to_write_a_non_finite_summary(capsys, tmp_path, field, value):
    # JSON's NaN and Infinity parse; a record holding one is refused, naming
    # the file and line, before anything is written.
    log = tmp_path / "events.jsonl"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"log_path": str(log)})
    assert code == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    last = json.loads(lines[-1])
    last[field] = [[0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 123.0]] if field == "probabilities" else 123.0
    lines[-1] = json.dumps(last).replace("123.0", value)
    log.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 2
    expected = f"runtime error: {log}: line {len(lines)}: field {field} holds a value that is not"
    assert capsys.readouterr().err.startswith(expected)
    assert not out_dir.exists()


@pytest.mark.parametrize("label", ["a/b", "../x", ""])
def test_report_refuses_a_label_that_cannot_name_a_file(capsys, tmp_path, label):
    log = tmp_path / "logs" / "events.jsonl"
    code, _, _ = run_search(tmp_path, "run", doc_extra={"log_path": str(log)})
    assert code == 0
    capsys.readouterr()
    lines = log.read_text().splitlines()
    header = json.loads(lines[0])
    header["decisions"][1]["label"] = label
    lines[0] = json.dumps(header)
    log.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "report"
    assert main(["report", "--log", str(log), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(
        f"runtime error: {log}: line 1: header decision label {label!r} is not"
    )
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.rglob("*.csv")) == []
