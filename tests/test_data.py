"""Dataset generators, CSV loading, splitting."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jointsearch.data import (
    Dataset,
    concat,
    load_csv,
    spirals,
    split,
    two_moons,
)
from jointsearch.numerics import RngStream


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_two_moons_shapes_and_balance():
    ds = two_moons(100, 0.1, 0)
    assert ds.features.shape == (100, 2)
    assert ds.labels.shape == (100, 2)
    assert ds.labels.sum(axis=0).tolist() == [50.0, 50.0]
    assert len(ds) == 100


def test_two_moons_deterministic_per_seed():
    a = two_moons(64, 0.1, 5)
    b = two_moons(64, 0.1, 5)
    c = two_moons(64, 0.1, 6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_two_moons_standardized():
    ds = two_moons(500, 0.2, 3)
    assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ds.features.std(axis=0), 1.0, atol=1e-12)


def test_two_moons_noiseless_points_lie_on_arcs():
    # noise off: undo the standardization and check each point solves its
    # arc equation exactly (class 0 on the unit circle, class 1 on the
    # shifted mirror arc)
    ds = two_moons(200, 0.0, 0)
    labels = np.argmax(ds.labels, axis=1)
    # the raw arcs are known analytically, so their mean/sd are recomputable
    half = 100
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    raw = np.vstack([upper, lower])
    restored = ds.features * raw.std(axis=0) + raw.mean(axis=0)
    on_upper = restored[labels == 0]
    on_lower = restored[labels == 1]
    assert np.allclose(on_upper[:, 0] ** 2 + on_upper[:, 1] ** 2, 1.0, atol=1e-9)
    assert np.allclose(
        (1.0 - on_lower[:, 0]) ** 2 + (0.5 - on_lower[:, 1]) ** 2, 1.0, atol=1e-9
    )


def test_two_moons_rejects_bad_arguments():
    with pytest.raises(ValueError):
        two_moons(101, 0.1, 0)  # odd
    with pytest.raises(ValueError):
        two_moons(0, 0.1, 0)
    with pytest.raises(ValueError):
        two_moons(100, -0.1, 0)


def test_spirals_shapes_balance_determinism():
    a = spirals(80, 1.5, 0.05, 2)
    b = spirals(80, 1.5, 0.05, 2)
    assert a.features.shape == (80, 2)
    assert a.labels.sum(axis=0).tolist() == [40.0, 40.0]
    assert np.array_equal(a.features, b.features)
    assert np.allclose(a.features.mean(axis=0), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        spirals(80, 0.0, 0.05, 2)


def test_dataset_validates_one_hot_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([[0.5, 0.5], [1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.eye(2))


_NO_SCIPY_SETUP_SCRIPT = """
import hashlib, json, sys
sys.modules["scipy"] = None  # any import of scipy now fails
from jointsearch import parse_config
from jointsearch.engine import setup_run
from jointsearch.space import build_space

space = {"input_dim": 2, "num_classes": 2,
         "layers": [{"candidates": ["identity"], "width": 2}], "hyperparameters": []}
digests = {}
for data in json.loads(sys.argv[1]):
    config = parse_config({"space": space, "data": data, "search": {"total_meta_steps": 1}})
    splits = setup_run(config, build_space(config.space))
    h = hashlib.sha256()
    for part in (splits.train, splits.val, splits.test):
        h.update(part.features.tobytes())
        h.update(part.labels.tobytes())
    digests[data["generator"]] = h.hexdigest()
print(json.dumps(digests))
"""


def test_generated_datasets_need_no_scipy():
    # A fresh interpreter in which scipy cannot be imported builds the same
    # bytes as the scipy.special.ndtri draws did (known answers).
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    data = [
        {"generator": "two_moons", "n": 2000, "noise_sd": 0.2, "seed": 3},
        {"generator": "spirals", "n": 2000, "turns": 1.5, "noise_sd": 0.1, "seed": 4},
    ]
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SETUP_SCRIPT, json.dumps(data)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(out.stdout) == {
        "two_moons": "3420bcf041b47bbf37e7d510a10c637aed830526880898f6f41e44f3b0ef51b3",
        "spirals": "b2a844f76b13fcad509f17126d47ee9b231d789dda217b2a37d334bfc7215f77",
    }


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "x1,x2,label\n1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n")
    ds = load_csv(path)
    assert ds.features.shape == (3, 2)
    assert ds.labels.shape == (3, 2)
    assert np.array_equal(ds.features[1], [3.0, 4.0])


def test_load_csv_first_appearance_encoding(tmp_path):
    path = write_csv(tmp_path, "x,label\n0.0,b\n1.0,a\n2.0,b\n")
    ds = load_csv(path)
    # class 0 is "b" (first row), class 1 is "a"
    assert np.array_equal(ds.labels, [[1, 0], [0, 1], [1, 0]])


def test_load_csv_label_column_falls_back_to_last(tmp_path):
    path = write_csv(tmp_path, "x,category\n0.5,red\n1.5,blue\n")
    ds = load_csv(path)
    assert ds.features.shape == (2, 1)
    assert ds.labels.shape == (2, 2)


def test_load_csv_missing_value_names_row_and_column(tmp_path):
    path = write_csv(tmp_path, "x1,x2,label\n1.0,,yes\n")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    message = str(err.value)
    assert "row 2" in message and "x2" in message


def test_load_csv_non_numeric_feature(tmp_path):
    path = write_csv(tmp_path, "x1,label\nabc,yes\n1.0,no\n")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert "x1" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    path = write_csv(tmp_path, "x1,x2,label\n1.0,2.0,yes\n3.0,no\n")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert "row 3" in str(err.value)


def test_load_csv_rejects_empty_and_single_class(tmp_path):
    with pytest.raises(ValueError):
        load_csv(write_csv(tmp_path, "", name="empty.csv"))
    with pytest.raises(ValueError):
        load_csv(write_csv(tmp_path, "x,label\n1.0,only\n2.0,only\n", name="one.csv"))


@pytest.mark.parametrize(
    "raw",
    [b"x,label\n\xff,yes\n", b"x,label\n" + b"1" * 200_000 + b",a\n"],
    ids=["not-utf8", "field-past-limit"],
)
def test_load_csv_names_the_file_when_its_bytes_are_malformed(tmp_path, raw):
    # Bytes that are not UTF-8, or that the csv module refuses (a field past
    # its size limit), are a ValueError that starts with the path.
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        load_csv(str(path))
    assert str(err.value).startswith(f"{path}: malformed CSV (")


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def unique_rows_dataset(n):
    features = np.arange(n, dtype=float).reshape(n, 1)
    labels = np.eye(2)[np.arange(n) % 2]
    return Dataset(features, labels)


def test_split_sizes():
    parts = split(unique_rows_dataset(100), (0.5, 0.25, 0.25), 0)
    assert (len(parts.train), len(parts.val), len(parts.test)) == (50, 25, 25)


def test_split_disjoint_and_exhaustive():
    ds = unique_rows_dataset(97)
    parts = split(ds, (0.6, 0.2, 0.2), 9)
    ids = np.concatenate(
        [parts.train.features[:, 0], parts.val.features[:, 0], parts.test.features[:, 0]]
    )
    assert sorted(ids.tolist()) == list(range(97))


def test_split_seed_changes_partition_not_sizes():
    ds = unique_rows_dataset(60)
    a = split(ds, (0.5, 0.25, 0.25), 1)
    b = split(ds, (0.5, 0.25, 0.25), 2)
    assert len(a.train) == len(b.train)
    assert not np.array_equal(a.train.features, b.train.features)
    again = split(ds, (0.5, 0.25, 0.25), 1)
    assert np.array_equal(a.train.features, again.train.features)


def test_split_rejects_bad_fractions():
    ds = unique_rows_dataset(10)
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.3, 0.3), 0)
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.5, 0.0), 0)


def test_split_preserves_feature_label_pairing():
    n = 40
    features = np.arange(n, dtype=float).reshape(n, 1)
    labels = np.eye(2)[(np.arange(n) < 20).astype(int)]
    ds = Dataset(features, labels)
    parts = split(ds, (0.5, 0.25, 0.25), 4)
    for part in (parts.train, parts.val, parts.test):
        for row, one_hot in zip(part.features[:, 0], part.labels):
            expected = 1 if row < 20 else 0
            assert one_hot[expected] == 1.0


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------


def test_concat_orders_and_lengths():
    a = unique_rows_dataset(6)
    b = Dataset(np.arange(100, 104, dtype=float).reshape(4, 1), np.eye(2)[np.arange(4) % 2])
    joined = concat(a, b)
    assert len(joined) == 10
    assert joined.features[0, 0] == 0.0
    assert joined.features[-1, 0] == 103.0
