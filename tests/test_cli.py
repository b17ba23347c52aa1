"""Command-line interface tests: exit codes, result files, reports."""
from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import pytest

from jointsearch.cli import main
from jointsearch.config import load_config
from jointsearch.engine import search


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
    doc = base_doc(total)
    doc["output"] = {"result_path": str(tmp_path / f"{tag}.result.json")}
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
    "baseline-nan": (
        lambda h: h["controller"].update(baseline=float("nan")),
        "field controller.baseline is not a finite number",
    ),
    # JSON integers too large for a float.
    "baseline-too-large": (
        lambda h: h["controller"].update(baseline=10**400),
        "field controller.baseline is not a finite number",
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
        del header["controller"]["baseline"]
        expected = "lacks field controller.baseline"
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
# The store holds 0/1/weight (2, 8) and 0/1/bias (8,); the head is (8, 2);
# the controller's three decisions have 2, 3 and 2 candidates, each one
# ``controller/<d>`` array of 3 rows: logits, Adam m and v. Each commit slot
# field is an array, an integer field (Adam's step) a 0-d one. The loader
# refuses a slot named other than family|key, a 0-d field that is not a whole
# number from 1 to 2^53, a slot or controller array that is not finite, and a
# controller array that is not 3 rows; it takes the other files, and the
# resume refuses each, naming the first array in which it differs from the
# state the run holds.
THREE_ROWS = "not [3, cardinality]"
ARRAY_DEFECTS = {
    # Slot names and 0-d fields.
    "commit-slot-key": (
        lambda h, a: _rename_commit_slot(a, "adam|0/1/weight", "adam|x/1/weight"),
        "commit_slots/adam|x/1/weight/m: slot name 'adam|x/1/weight' is not family|key",
    ),
    "controller-key": (
        lambda h, a: _rename_arrays(a, "controller/1", "controller/01"),
        "controller/01: array belongs to no known section",
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
        "commit_slots/adam|0/1/weight/step: checkpoint holds nothing, the run holds value 0",
    ),
    "commit-slot-step-shape": (
        lambda h, a: _reshape_array(a, "commit_slots/adam|0/1/weight/step", lambda s: s.reshape(1)),
        "commit_slots/adam|0/1/weight/step: checkpoint holds shape [1], the run holds value 0",
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
    "head-shape": (
        lambda h, a: _reshape_array(a, "head/weight", lambda w: w.T.copy()),
        "head/weight: checkpoint holds shape [2, 8], the run holds shape [8, 2]",
    ),
    "head-bias-missing": (
        lambda h, a: _drop_array(a, "head/bias"),
        "head/bias: checkpoint holds nothing, the run holds shape [2]",
    ),
    "commit-slot-shape": (
        lambda h, a: _reshape_array(a, "commit_slots/adam|0/1/weight/m", lambda m: m.T.copy()),
        "commit_slots/adam|0/1/weight/m: checkpoint holds shape [8, 2], "
        "the run holds shape [2, 8]",
    ),
    "controller-four-rows": (
        lambda h, a: _reshape_array(a, "controller/0", lambda c: np.vstack([c, c[2]])),
        f"controller/0: checkpoint holds shape [4, 2], {THREE_ROWS}",
    ),
    "controller-two-rows": (
        lambda h, a: _reshape_array(a, "controller/1", lambda c: c[:2]),
        f"controller/1: checkpoint holds shape [2, 3], {THREE_ROWS}",
    ),
    "controller-vector": (
        lambda h, a: _reshape_array(a, "controller/2", lambda c: c[0]),
        f"controller/2: checkpoint holds shape [2], {THREE_ROWS}",
    ),
    "slot-of-no-tensor": (
        lambda h, a: _rename_commit_slot(a, "adam|0/1/bias", "adam|0/0/bias"),
        "commit_slots/adam|0/0/bias/m: checkpoint holds shape [8], the run holds nothing",
    ),
    # Slots the run could not have made: the controller keeps no slot apart
    # from its arrays, and the space offers only sgd and adam.
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
    "controller-m-nan": (
        lambda h, a: _set_value(a, "controller/0", (1, 0), np.nan),
        "controller/0: holds a value that is not a finite number",
    ),
    "controller-v-inf": (
        lambda h, a: _set_value(a, "controller/1", (2, 2), np.inf),
        "controller/1: holds a value that is not a finite number",
    ),
    "commit-slot-v-inf": (
        lambda h, a: _set_value(a, "commit_slots/adam|0/1/bias/v", 3, np.inf),
        "commit_slots/adam|0/1/bias/v: holds a value that is not a finite number",
    ),
    "controller-dropped": (
        lambda h, a: _drop_array(a, "controller/2"),
        "history/ints: checkpoint holds shape [12, 4], not [12, 3]",
    ),
}


def _edited(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


def _set_value(arrays, name, index, value):
    _reshape_array(arrays, name, lambda arr: _edited(arr, index, value))


def _history_rows(arrays, edit):
    for name in ("history/ints", "history/reals"):
        _reshape_array(arrays, name, edit)


def _one_decision(arrays):
    # Decisions 1 and 2 dropped from the controller and from the selections.
    _drop_array(arrays, "controller/1")
    _drop_array(arrays, "controller/2")
    _reshape_array(arrays, "history/ints", lambda ints: ints[:, :2])


def _extra_decision(arrays):
    arrays.append(["controller/3", np.zeros((3, 2))])
    _reshape_array(arrays, "history/ints", lambda ints: np.hstack([ints, ints[:, 1:2]]))


# Edits of the controller and the reward history, which the file keeps as
# arrays (one per decision, and one row per record of ``history/ints``: the
# step, then the selection; and of ``history/reals``: accuracy, cost, reward
# and baseline), each with the error it must raise. Six steps of two pairs
# make 12 records. The loader refuses a number that is not finite, a history
# integer that is not whole and non-negative, and tables whose rows or
# columns disagree; the resume refuses a controller shaped other than the
# run's and a history out of step order or selecting outside the space.
HISTORY_DEFECTS = {
    "history-accuracy-inf": (
        lambda h, a: _set_value(a, "history/reals", (1, 0), np.inf),
        "history/reals: holds a value that is not a finite number",
    ),
    "history-accuracy-nan": (
        lambda h, a: _set_value(a, "history/reals", (0, 0), np.nan),
        "history/reals: holds a value that is not a finite number",
    ),
    "logits-inf": (
        lambda h, a: _set_value(a, "controller/0", (0, 1), -np.inf),
        "controller/0: holds a value that is not a finite number",
    ),
    "logits-nan": (
        lambda h, a: _set_value(a, "controller/0", (0, 0), np.nan),
        "controller/0: holds a value that is not a finite number",
    ),
    "history-ints-missing": (
        lambda h, a: _drop_array(a, "history/ints"),
        "history/ints: checkpoint holds nothing, not [0, 4]",
    ),
    "history-selection-missing": (
        lambda h, a: _reshape_array(a, "history/ints", lambda ints: ints[:, :1]),
        "history/ints: checkpoint holds shape [12, 1], not [12, 4]",
    ),
    "history-rows-disagree": (
        lambda h, a: _reshape_array(a, "history/reals", lambda reals: reals[:-1]),
        "history/reals: checkpoint holds shape [11, 4], not [12, 4]",
    ),
    "history-step-fraction": (
        lambda h, a: _set_value(a, "history/ints", (0, 0), 0.5),
        "history/ints: holds a value that is not a non-negative integer",
    ),
    "history-selection-negative": (
        lambda h, a: _set_value(a, "history/ints", (0, 1), -1.0),
        "history/ints: holds a value that is not a non-negative integer",
    ),
    # The space has three decisions of 2, 3 and 2 candidates.
    "controller-one-decision": (
        lambda h, a: _one_decision(a),
        "controller/1: checkpoint holds nothing, the run holds shape [3, 3]",
    ),
    "controller-row-width": (
        lambda h, a: _reshape_array(a, "controller/0", lambda c: np.hstack([c, c[:, :1]])),
        "controller/0: checkpoint holds shape [3, 3], the run holds shape [3, 2]",
    ),
    "controller-row-narrow": (
        lambda h, a: _reshape_array(a, "controller/1", lambda c: c[:, :2]),
        "controller/1: checkpoint holds shape [3, 2], the run holds shape [3, 3]",
    ),
    "controller-extra-decision": (
        lambda h, a: _extra_decision(a),
        "controller/3: checkpoint holds shape [3, 2], the run holds nothing",
    ),
    "history-selection": (
        lambda h, a: _set_value(a, "history/ints", (3, slice(1, None)), 9.0),
        "history/ints: row 3 selects outside [2, 3, 2]",
    ),
    "history-step-late": (
        lambda h, a: _set_value(a, "history/ints", (-1, 0), 6.0),
        "history/ints: meta-steps are not 2 records per step before 6",
    ),
    "history-order": (
        lambda h, a: _history_rows(a, lambda rows: rows[::-1]),
        "history/ints: meta-steps are not 2 records per step before 6",
    ),
    "history-short": (
        lambda h, a: _history_rows(a, lambda rows: rows[:-1]),
        "history/ints: meta-steps are not 2 records per step before 6",
    ),
}


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


@pytest.mark.parametrize("defect", [*ARRAY_DEFECTS, *HISTORY_DEFECTS])
def test_resume_from_resealed_checkpoint_with_malformed_arrays_exits_two(capsys, tmp_path, defect):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    edit, expected = {**ARRAY_DEFECTS, **HISTORY_DEFECTS}[defect]
    _reseal_arrays(ckpt, edit)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and f"{ckpt}: " in err and expected in err


def _checkpoint_of_every_step(cfg, ckpt):
    """The bytes of checkpoint file ``ckpt`` after each step of the run of
    config file ``cfg`` (checkpoint interval 1), the final one last."""
    saved = []

    def copy(phase, step, weights):
        if phase == "controller" and step > 0:  # the file holds step - 1's save
            saved.append(ckpt.read_bytes())

    search(load_config(cfg), audit=copy)
    return saved + [ckpt.read_bytes()]


def test_resume_at_every_step_writes_the_uninterrupted_result_and_checkpoint(tmp_path):
    # Warm-up is the first ceil(0.3 * 6) = 2 steps, so the resumes start from
    # an untouched controller (steps 1 and 2) and from updated ones (3 to 5).
    ckpt = tmp_path / "run.ckpt"
    output = {"checkpoint_path": str(ckpt), "checkpoint_interval": 1}
    code, result, cfg = run_search(tmp_path, "run", doc_extra=output)
    assert code == 0
    uninterrupted = result.read_bytes(), ckpt.read_bytes()
    every = _checkpoint_of_every_step(cfg, ckpt)
    assert every[-1] == uninterrupted[1]
    for done, data in enumerate(every[:-1], start=1):
        ckpt.write_bytes(data)
        result.unlink()
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
        assert (result.read_bytes(), ckpt.read_bytes()) == uninterrupted, done


@pytest.mark.parametrize(
    "row, value", [(0, 0.5), (0, -0.0), (1, 2.0**-1074), (1, -0.0), (2, 1.0), (2, -0.0)]
)
def test_resume_inside_warm_up_refuses_a_controller_other_than_all_zero(
    capsys, tmp_path, row, value
):
    # No update is made inside the warm-up of 2 steps, so the checkpoints of
    # steps 1 and 2 hold every logit (row 0) and moment (rows 1 and 2) as
    # +0.0. Any other value re-sealed there, -0.0 too, is refused by name.
    ckpt = tmp_path / "run.ckpt"
    output = {"checkpoint_path": str(ckpt), "checkpoint_interval": 1}
    code, _, cfg = run_search(tmp_path, "run", doc_extra=output)
    assert code == 0
    every = _checkpoint_of_every_step(cfg, ckpt)
    for done in (1, 2):
        ckpt.write_bytes(every[done - 1])
        _reseal_arrays(ckpt, lambda h, a: _set_value(a, "controller/1", (row, 2), value))
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        what = f"is not all +0.0 after {done} steps, none past the 2 of warm-up"
        assert f"runtime error: {ckpt}: controller/1: {what}" in err
    ckpt.write_bytes(every[1])
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == every[-1]


def test_resume_refuses_a_format_8_checkpoint(capsys, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    data = ckpt.read_bytes()
    ckpt.write_bytes(data.replace(b'"format_version": 9', b'"format_version": 8', 1))
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {ckpt}: checkpoint format version 8 is not 9" in err


def test_resume_refuses_a_commit_adam_step_past_one_update_per_commit(capsys, tmp_path):
    # Each of a step's K = 2 commits updates a key at most once, so after 4
    # steps no commit Adam step exceeds 8. Within that bound the count is
    # taken as written: only a replay could check it exactly.
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)}, total=4)
    assert code == 0
    pristine = ckpt.read_bytes()
    steps = [name for name, _ in json.loads(pristine[: pristine.index(b"\n")])["arrays"]]
    [name, *_] = [n for n in steps if n.startswith("commit_slots/adam|") and n.endswith("/step")]
    for value, code in ((4 * 2 + 1, 2), (4 * 2, 0)):
        ckpt.write_bytes(pristine)
        _reseal_arrays(ckpt, lambda h, a: _set_value(a, name, (), float(value)))
        assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == code
    err = capsys.readouterr().err
    assert f"{ckpt}: {name}: holds 9 updates, more than 2 commits in each of 4 steps" in err
    ckpt.write_bytes(pristine)
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == pristine


def test_resume_refuses_a_header_field_the_writer_does_not_write(capsys, tmp_path):
    # A version-7 slot section left in the header, and a controller step
    # beside the baseline: each is named, and the untouched file resumes.
    ckpt = tmp_path / "run.ckpt"
    code, _, cfg = run_search(tmp_path, "run", doc_extra={"checkpoint_path": str(ckpt)})
    assert code == 0
    pristine = ckpt.read_bytes()
    edits = {
        "commit_slots": lambda h: h.update(commit_slots={"adam|0/1/weight": {"step": 999}}),
        "controller.step": lambda h: h["controller"].update(step=7),
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
    assert f"{log}: event log holds no record of step 2 of the resumed run" in err
    assert log.read_bytes() == stale
    # All nine steps, the last of another store, are refused as well.
    lines = complete.decode().splitlines(keepends=True)
    last = json.loads(lines[-1])
    last["store_digest"] = "0" * 16
    log.write_text("".join(lines[:-1]) + json.dumps(last) + "\n")
    edited = log.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{log}: event log holds no record of step 8 of the resumed run" in err
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
    # and appended to under its version-1 header, but refused.
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
    log.write_bytes(log.read_bytes().replace(b'"format_version": 2', b'"format_version": 1', 1))
    edited, saved = log.read_bytes(), ckpt.read_bytes()
    assert main(["search", "--config", cfg, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"runtime error: {log}: line 1: event log format version 1 is not 2" in err
    assert log.read_bytes() == edited and ckpt.read_bytes() == saved


def test_a_resumed_result_file_is_the_uninterrupted_one_when_an_override_returns_ints(tmp_path):
    # The records hold floats, so the history a resume reads back from the
    # checkpoint's float64 arrays writes ``1.0`` and ``0.0`` where the
    # uninterrupted run's records do too, not ``1`` and ``0``.
    from jointsearch import cli, engine
    from jointsearch.space import build_space

    def table(selection):
        return int(selection[0] == 1), 0

    doc = base_doc(6)
    doc["output"] = {"checkpoint_path": str(tmp_path / "run.ckpt"), "checkpoint_interval": 2}
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
    # refuses either as a meta_step, so the resume must not keep the record.
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
    assert f"{log}: event log holds no record of step 1 of the resumed run" in err
    assert log.read_bytes() == edited


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
        _edit_last("meta_step", "soon", "'soon' is not a non-negative integer"),
        _edit_last("meta_step", True, "True is not a non-negative integer"),
        _edit_last("meta_step", -1, "-1 is not a non-negative integer"),
        _edit_last("meta_step", 4, "4 does not follow 4"),  # a repeated step
        _edit_last("meta_step", 6, "6 does not follow 4"),  # a skipped step
        _edit_last("store_digest", 7, "7 is not 16 lowercase hex digits"),
        _edit_last("store_digest", "xyz", "'xyz' is not 16 lowercase hex digits"),
        # Line 1 is the header, of exactly version 2 and its decisions; every
        # other line is a record.
        *[
            _edit_header(
                lambda h, v=value: h.update(format_version=v),
                f"event log format version {value!r} is not 2",
            )
            for value in (1, 3, "2", True)
        ],
        _edit_header(lambda h: h.pop("format_version"), "event log format version None is not 2"),
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
