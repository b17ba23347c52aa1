"""Joint search space: layer-wise candidate operations plus hyperparameters.

A search space is an ordered list of decisions. Architecture decisions come
first (one per layer, choosing among candidate ops) followed by hyperparameter
decisions (each choosing one value from a small basis). A concrete
``CandidateSelection`` is one index per decision; ``derive`` collapses a set
of per-decision probability vectors into a single concrete configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

OP_IDENTITY = "identity"
OP_AFFINE = "affine"
OP_AFFINE_RELU = "affine-relu"
OP_AFFINE_TANH = "affine-tanh"
OP_KINDS = (OP_IDENTITY, OP_AFFINE, OP_AFFINE_RELU, OP_AFFINE_TANH)

OPTIMIZERS = ("sgd", "momentum", "adam", "rmsprop")

# Searchable hyperparameter fields and their kinds. Continuous fields carry a
# numeric basis; categorical fields carry symbols from a closed registry.
CONTINUOUS_FIELDS = {
    "learning_rate": (0.0, math.inf, "exclusive-low"),
    "weight_decay": (0.0, math.inf, "inclusive"),
    "mixup_ratio": (0.0, 1.0, "inclusive"),
    "dropout_keep": (0.0, 1.0, "exclusive-low"),
}
CATEGORICAL_FIELDS = {"optimizer": OPTIMIZERS}

BasisValue = Union[float, str]


@dataclass(frozen=True)
class OperationSpec:
    """One candidate op: its kind, natural output width, and input width."""

    kind: str
    width: int
    in_width: int

    @property
    def has_params(self) -> bool:
        return self.kind != OP_IDENTITY


@dataclass(frozen=True)
class ArchDecision:
    """Choice of one op for one layer.

    ``out_width`` is the layer's slot width: every candidate's output is
    padded or truncated to it, so downstream shapes do not depend on which
    candidate is selected.
    """

    layer_id: int
    candidates: tuple[OperationSpec, ...]
    in_width: int
    out_width: int


@dataclass(frozen=True)
class HyperConfig:
    """Choice of one basis value for one trainer field: as a config gives it,
    and, checked, as ``build_space`` returns it."""

    name: str
    kind: str  # "continuous" | "categorical"
    basis: tuple[BasisValue, ...]


@dataclass(frozen=True)
class SearchSpace:
    input_dim: int
    num_classes: int
    arch_decisions: tuple[ArchDecision, ...]
    hyper_decisions: tuple[HyperConfig, ...]

    @property
    def n_arch(self) -> int:
        return len(self.arch_decisions)

    @property
    def n_decisions(self) -> int:
        return len(self.arch_decisions) + len(self.hyper_decisions)

    @property
    def last_width(self) -> int:
        if self.arch_decisions:
            return self.arch_decisions[-1].out_width
        return self.input_dim

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(d.candidates) for d in self.arch_decisions) + tuple(
            len(d.basis) for d in self.hyper_decisions
        )

    def labels(self) -> tuple[str, ...]:
        return tuple(f"layer{d.layer_id}" for d in self.arch_decisions) + tuple(
            d.name for d in self.hyper_decisions
        )


@dataclass(frozen=True)
class DerivedConfig:
    """Concrete configuration produced by ``derive``."""

    arch_choice: tuple[int, ...]
    hyper_values: tuple[BasisValue, ...]


# ---------------------------------------------------------------------------
# Config-side description consumed by build_space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayerConfig:
    """Candidate op tokens for one layer, e.g. ("identity", "affine-relu:8").

    ``width`` declares the layer's slot width; it is required when candidates
    disagree on natural output width and acts as the shape adapter target.
    """

    candidates: tuple[str, ...]
    width: int | None = None


@dataclass(frozen=True)
class SpaceConfig:
    input_dim: int
    num_classes: int
    layers: tuple[LayerConfig, ...] = ()
    hyperparameters: tuple[HyperConfig, ...] = ()


def _parse_op_token(token: str, in_width: int) -> OperationSpec:
    if token == OP_IDENTITY:
        return OperationSpec(OP_IDENTITY, in_width, in_width)
    if ":" not in token:
        raise ValueError(f"malformed op token {token!r}; expected e.g. 'affine-relu:8'")
    kind, _, width_text = token.partition(":")
    if kind not in OP_KINDS or kind == OP_IDENTITY:
        raise ValueError(f"unknown op kind {kind!r}")
    try:
        width = int(width_text)
    except ValueError:
        raise ValueError(f"bad width in op token {token!r}") from None
    if width <= 0:
        raise ValueError(f"op width must be positive in token {token!r}")
    return OperationSpec(kind, width, in_width)


def _continuous_basis_value(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"basis value {value!r} for {name} is not a number")
    lo, hi, mode = CONTINUOUS_FIELDS[name]
    ok = lo < value <= hi if mode == "exclusive-low" else lo <= value <= hi
    if not ok or not math.isfinite(value):
        raise ValueError(f"basis value {value!r} out of range for {name}")
    return float(value)


def build_space(config: SpaceConfig) -> SearchSpace:
    """Validate a space description and resolve concrete shapes."""
    if config.input_dim <= 0:
        raise ValueError("input_dim must be positive")
    if config.num_classes < 2:
        raise ValueError("num_classes must be at least 2")

    arch: list[ArchDecision] = []
    in_width = config.input_dim
    for layer_id, layer in enumerate(config.layers):
        if not layer.candidates:
            raise ValueError(f"layer {layer_id} has an empty candidate list")
        ops = tuple(_parse_op_token(tok, in_width) for tok in layer.candidates)
        natural_widths = {op.width for op in ops}
        if layer.width is not None:
            if layer.width <= 0:
                raise ValueError(f"layer {layer_id} width must be positive")
            out_width = layer.width
        elif len(natural_widths) == 1:
            out_width = ops[0].width
        else:
            raise ValueError(
                f"layer {layer_id} candidates produce differing output widths "
                f"{sorted(natural_widths)} and no layer width is declared"
            )
        arch.append(ArchDecision(layer_id, ops, in_width, out_width))
        in_width = out_width

    hyper: list[HyperConfig] = []
    seen: set[str] = set()
    for cfg in config.hyperparameters:
        if cfg.name in seen:
            raise ValueError(f"duplicate hyperparameter name {cfg.name!r}")
        seen.add(cfg.name)
        if cfg.name in CONTINUOUS_FIELDS:
            expected_kind = "continuous"
        elif cfg.name in CATEGORICAL_FIELDS:
            expected_kind = "categorical"
        else:
            raise ValueError(f"unknown hyperparameter {cfg.name!r}")
        if cfg.kind != expected_kind:
            raise ValueError(
                f"hyperparameter {cfg.name!r} must be {expected_kind}, got {cfg.kind!r}"
            )
        if len(cfg.basis) == 0:
            raise ValueError(f"hyperparameter {cfg.name!r} has an empty basis")
        if expected_kind == "continuous":
            values = tuple(_continuous_basis_value(cfg.name, v) for v in cfg.basis)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(
                    f"continuous basis for {cfg.name!r} must be strictly increasing"
                )
            basis: tuple[BasisValue, ...] = values
        else:
            registry = CATEGORICAL_FIELDS[cfg.name]
            for v in cfg.basis:
                if v not in registry:
                    raise ValueError(f"unknown {cfg.name} symbol {v!r}")
            if len(set(cfg.basis)) != len(cfg.basis):
                raise ValueError(f"categorical basis for {cfg.name!r} has duplicates")
            basis = tuple(cfg.basis)
        hyper.append(HyperConfig(cfg.name, expected_kind, basis))

    space = SearchSpace(config.input_dim, config.num_classes, tuple(arch), tuple(hyper))
    if space.n_decisions < 1:
        raise ValueError("search space must contain at least one decision")
    return space


def make_continuous_basis(default: float, count: int, span: float) -> tuple[float, ...]:
    """Geometric grid log-centered at ``default`` covering factor ``span``.

    The endpoints are ``default/span`` and ``default*span`` with ``count``
    log-uniform points in between, e.g. ``(0.01, 3, 10) -> (0.001, 0.01, 0.1)``.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if span <= 1.0:
        raise ValueError("span must exceed 1")
    if default <= 0.0 or not math.isfinite(default):
        raise ValueError("default must be positive and finite")
    exponents = np.linspace(-1.0, 1.0, count)
    return tuple(float(default * span**e) for e in exponents)


def validate_selection(space: SearchSpace, selection: Sequence[int]) -> tuple[int, ...]:
    cards = space.cardinalities()
    sel = tuple(int(i) for i in selection)
    if len(sel) != len(cards):
        raise ValueError(f"selection length {len(sel)} != decision count {len(cards)}")
    for d, (idx, card) in enumerate(zip(sel, cards)):
        if not 0 <= idx < card:
            raise ValueError(f"selection index {idx} out of range for decision {d}")
    return sel


def _check_simplex(probs: np.ndarray, cardinality: int, decision: int) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (cardinality,):
        raise ValueError(
            f"probability vector for decision {decision} has shape {p.shape}, "
            f"expected ({cardinality},)"
        )
    if np.any(p < -1e-9):
        raise ValueError(f"negative probability in decision {decision}")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"probabilities for decision {decision} do not sum to 1")
    return p


def derive(space: SearchSpace, probabilities: Sequence[np.ndarray]) -> DerivedConfig:
    """Collapse per-decision probabilities into one concrete configuration.

    Architecture and categorical decisions take the argmax (ties break to the
    lowest index); continuous decisions take the probability-weighted sum of
    their basis values, which always lands inside the basis hull.
    """
    cards = space.cardinalities()
    if len(probabilities) != len(cards):
        raise ValueError(
            f"got {len(probabilities)} probability vectors for {len(cards)} decisions"
        )
    vectors = [
        _check_simplex(p, card, d) for d, (p, card) in enumerate(zip(probabilities, cards))
    ]
    arch = tuple(int(np.argmax(p)) for p in vectors[: space.n_arch])
    hyper_values: list[BasisValue] = []
    for decision, p in zip(space.hyper_decisions, vectors[space.n_arch :]):
        if decision.kind == "categorical":
            hyper_values.append(decision.basis[int(np.argmax(p))])
        else:
            basis = np.asarray(decision.basis, dtype=np.float64)
            hyper_values.append(float(np.dot(p, basis)))
    return DerivedConfig(arch, tuple(hyper_values))


def selection_to_config(space: SearchSpace, selection: Sequence[int]) -> DerivedConfig:
    """Concrete configuration for one selection (exact basis values)."""
    sel = validate_selection(space, selection)
    arch = sel[: space.n_arch]
    hyper = tuple(
        d.basis[i] for d, i in zip(space.hyper_decisions, sel[space.n_arch :])
    )
    return DerivedConfig(arch, hyper)
