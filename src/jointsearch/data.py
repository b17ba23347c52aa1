"""Datasets: synthetic generators, CSV loading, and deterministic splits."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream


@dataclass
class Dataset:
    """Feature matrix plus one-hot labels."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n, c) float64 one-hot

    def __post_init__(self):
        f, l = self.features, self.labels
        if f.ndim != 2 or l.ndim != 2 or f.shape[0] != l.shape[0]:
            raise ValueError(f"inconsistent dataset shapes {f.shape}, {l.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError("non-finite feature values")
        one_hot = (l == 1.0).sum(axis=1) == 1
        if not (np.all(one_hot) and np.all((l == 0.0) | (l == 1.0))):
            raise ValueError("labels must be one-hot rows")

    def __len__(self):
        return self.features.shape[0]


@dataclass
class DataSplit:
    train: Dataset
    val: Dataset
    test: Dataset

    def __post_init__(self):
        rows = {name: len(part) for name, part in vars(self).items()}
        if not all(rows.values()):
            empty = " and ".join(name for name, count in rows.items() if not count)
            counts = ", ".join(f"{name} {count}" for name, count in rows.items())
            what = f"{sum(rows.values())} rows split into {counts}"
            raise ValueError(f"data split leaves {empty} with no rows: {what}")


def _standardize(features: np.ndarray) -> np.ndarray:
    mean = features.mean(axis=0)
    sd = features.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (features - mean) / sd


def _one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _moons_raw(n: int, noise_sd: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.linspace(0.0, math.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    features = np.vstack([upper, lower])
    if noise_sd > 0.0:
        features = features + noise_sd * rng.normal(features.shape)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return features, labels


def two_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved half-circles with Gaussian noise, standardized per dim."""
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be non-negative")
    features, labels = _moons_raw(n, noise_sd, RngStream(seed, "two-moons"))
    return Dataset(_standardize(features), _one_hot(labels, 2))


def _spirals_raw(
    n: int, turns: float, noise_sd: float, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.linspace(0.25, 1.0, half)
    theta = 2.0 * math.pi * turns * t
    arms = []
    for k in (0, 1):
        angle = theta + k * math.pi
        arms.append(np.column_stack([t * np.cos(angle), t * np.sin(angle)]))
    features = np.vstack(arms)
    if noise_sd > 0.0:
        features = features + noise_sd * rng.normal(features.shape)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return features, labels


def spirals(n: int, turns: float, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved spiral arms, standardized per dimension."""
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    if turns <= 0.0:
        raise ValueError("turns must be positive")
    if noise_sd < 0.0:
        raise ValueError("noise_sd must be non-negative")
    features, labels = _spirals_raw(n, turns, noise_sd, RngStream(seed, "spirals"))
    return Dataset(_standardize(features), _one_hot(labels, 2))


def load_csv(path: str) -> Dataset:
    """Load a dataset from a headed CSV file.

    The column named "label", or else the last column, holds class symbols;
    classes are indexed in order of first appearance. All other columns must
    parse as floats.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: malformed CSV ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = rows[0]
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names")
    label_idx = header.index("label") if "label" in header else len(header) - 1
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns")

    features = np.zeros((len(rows) - 1, len(feature_idx)))
    symbols: list[str] = []
    class_index: dict[str, int] = {}
    raw_labels = np.zeros(len(rows) - 1, dtype=np.int64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for c, i in enumerate(feature_idx):
            cell = row[i].strip()
            if not cell:
                raise ValueError(f"{path}: missing value at row {r}, column {header[i]!r}")
            try:
                features[r - 2, c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {r}, column {header[i]!r}"
                ) from None
        symbol = row[label_idx].strip()
        if not symbol:
            raise ValueError(f"{path}: missing label at row {r}, column {header[label_idx]!r}")
        if symbol not in class_index:
            class_index[symbol] = len(symbols)
            symbols.append(symbol)
        raw_labels[r - 2] = class_index[symbol]
    if len(symbols) < 2:
        raise ValueError(f"{path}: need at least two label classes, found {len(symbols)}")
    return Dataset(features, _one_hot(raw_labels, len(symbols)))


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int) -> DataSplit:
    """Shuffle deterministically and partition into train/val/test."""
    if len(fractions) != 3 or any(f <= 0.0 for f in fractions):
        raise ValueError("fractions must be three positive reals")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    perm = RngStream(seed, "split").permutation(n)
    cuts = [int(round(sum(fractions[: i + 1]) * n)) for i in range(2)]
    parts = np.split(perm, cuts)
    return DataSplit(*(Dataset(dataset.features[idx], dataset.labels[idx]) for idx in parts))


def concat(a: Dataset, b: Dataset) -> Dataset:
    if a.labels.shape[1] != b.labels.shape[1] or a.features.shape[1] != b.features.shape[1]:
        raise ValueError("datasets are not compatible for concatenation")
    return Dataset(np.vstack([a.features, b.features]), np.vstack([a.labels, b.labels]))
