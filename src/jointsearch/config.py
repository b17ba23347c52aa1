"""Engine configuration: one JSON document, strictly validated.

Every section rejects unknown keys so typos fail loudly instead of silently
falling back to defaults. A section's defaults are its dataclass defaults and
its range checks live in its ``__post_init__``, so a section built in code is
checked exactly like a parsed one; the parser type-checks each key present
(every real must be finite) and leaves absent keys to the defaults.
``parse_config`` works on an in-memory dict and does not modify it;
``load_config`` reads a JSON file. ``config_to_dict`` echoes a parsed config
back as a document, defaults included, which is what checkpoints store.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

from .space import (
    HyperConfig,
    LayerConfig,
    SpaceConfig,
    build_space,
    make_continuous_basis,
)

GENERATORS = ("two_moons", "spirals", "none")
REWARD_MODES = ("plain", "cost_aware")


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {sorted(missing)}")


def _check(ok: bool, where: str, rule: str) -> None:
    if not ok:
        raise ConfigError(f"{where}: {rule}")


def _at_least(value: int, minimum: int, where: str) -> None:
    if value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _as_str(value, where: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{where}: expected one of {choices}, got {value!r}")
    return value


@dataclass(frozen=True)
class DataSection:
    generator: str = "two_moons"
    csv_path: str | None = None
    n: int = 1000
    noise_sd: float = 0.1
    turns: float = 1.0
    fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    seed: int = 0

    def __post_init__(self):
        _as_str(self.generator, "data.generator", GENERATORS)
        _at_least(self.n, 2, "data.n")
        generated = self.csv_path is None and self.generator != "none"
        _check(self.n % 2 == 0 or not generated, "data.n", "must be even for a generator")
        _check(self.noise_sd >= 0.0, "data.noise_sd", "must be non-negative")
        spirals = generated and self.generator == "spirals"
        _check(self.turns > 0.0 or not spirals, "data.turns", "must be positive for spirals")
        _check(min(self.fractions) > 0.0, "data.fractions", "must all be positive")
        total = sum(self.fractions)
        _check(abs(total - 1.0) <= 1e-9, "data.fractions", f"must sum to 1, got {total}")


@dataclass(frozen=True)
class RewardSection:
    """How a candidate's scalar reward is computed from accuracy and cost."""

    mode: str = "plain"
    beta: float = 0.0
    target_cost: float | None = None

    def __post_init__(self):
        _as_str(self.mode, "search.reward.mode", REWARD_MODES)
        _check(self.beta <= 0.0, "search.reward.beta", "must be <= 0 (penalty coefficient)")
        target = self.target_cost
        _check(target is None or target > 0.0, "search.reward.target_cost", "must be positive")
        if self.mode == "cost_aware" and target is None:
            raise ConfigError("search.reward.target_cost: required for cost_aware mode")


@dataclass(frozen=True)
class SearchSection:
    total_meta_steps: int
    pairs_per_step: int = 4
    warmup_fraction: float = 0.3
    meta_lr: float = 0.05
    baseline_momentum: float = 0.95
    entropy_weight: float = 0.0
    reward: RewardSection = RewardSection()
    inner_steps: int = 1
    val_batch_size: int = 256
    train_batch_size: int = 64
    default_learning_rate: float = 0.01

    def __post_init__(self):
        _at_least(self.total_meta_steps, 0, "search.total_meta_steps")
        _at_least(self.pairs_per_step, 1, "search.pairs_per_step")
        _check(0.0 <= self.warmup_fraction < 1.0, "search.warmup_fraction", "must be in [0, 1)")
        _check(self.meta_lr > 0.0, "search.meta_lr", "must be positive")
        _check(0.0 <= self.baseline_momentum < 1.0, "search.baseline_momentum", "must be in [0, 1)")
        for name in ("inner_steps", "val_batch_size", "train_batch_size"):
            _at_least(getattr(self, name), 1, f"search.{name}")
        _check(self.default_learning_rate > 0.0, "search.default_learning_rate", "must be positive")


@dataclass(frozen=True)
class RetrainSection:
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        _at_least(self.epochs, 1, "retrain.epochs")
        _at_least(self.batch_size, 1, "retrain.batch_size")


@dataclass(frozen=True)
class OutputSection:
    result_path: str | None = None
    log_path: str | None = None
    checkpoint_path: str | None = None
    checkpoint_interval: int = 0  # 0: final checkpoint only

    def __post_init__(self):
        _at_least(self.checkpoint_interval, 0, "output.checkpoint_interval")


@dataclass(frozen=True)
class EngineConfig:
    space: SpaceConfig
    data: DataSection
    search: SearchSection
    retrain: RetrainSection
    output: OutputSection

    def sections_for_resume(self) -> tuple:
        # Output paths may legitimately differ between a run and its resume.
        return (self.space, self.data, self.search, self.retrain)


_SECTIONS = {
    "data": DataSection,
    "search": SearchSection,
    "retrain": RetrainSection,
    "output": OutputSection,
}
_SCALARS = {"int": _as_int, "float": _as_real, "str": _as_str}


def _coerce(annotation: str, value, where: str):
    """``value`` type-checked against a section field's annotation."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation[: -len(" | None")]
    if annotation == "RewardSection":
        return _parse_section(RewardSection, value, where)
    if annotation.startswith("tuple["):
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"{where}: expected a list of three numbers")
        return tuple(_as_real(v, where) for v in value)
    return _SCALARS[annotation](value, where)


def _parse_section(cls, section, where: str):
    """``cls`` from the keys present in ``section``; the rest keep their
    dataclass defaults and ``cls`` checks every range."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    declared = {f.name: f for f in fields(cls)}
    required = {name for name, f in declared.items() if f.default is MISSING}
    _require_keys(section, set(declared), required, where)
    return cls(
        **{
            key: _coerce(declared[key].type, value, f"{where}.{key}")
            for key, value in section.items()
        }
    )


def _parse_space(section: dict) -> SpaceConfig:
    _require_keys(
        section,
        {"input_dim", "num_classes", "layers", "hyperparameters"},
        {"input_dim", "num_classes"},
        "space",
    )
    layers = []
    for i, raw in enumerate(section.get("layers", [])):
        if not isinstance(raw, dict):
            raise ConfigError(f"space.layers[{i}]: expected an object")
        _require_keys(raw, {"candidates", "width"}, {"candidates"}, f"space.layers[{i}]")
        cands = raw["candidates"]
        if not isinstance(cands, list) or not all(isinstance(c, str) for c in cands):
            raise ConfigError(f"space.layers[{i}].candidates: expected a list of strings")
        width = raw.get("width")
        if width is not None:
            width = _as_int(width, f"space.layers[{i}].width")
        layers.append(LayerConfig(tuple(cands), width))

    hypers = []
    for i, raw in enumerate(section.get("hyperparameters", [])):
        if not isinstance(raw, dict):
            raise ConfigError(f"space.hyperparameters[{i}]: expected an object")
        where = f"space.hyperparameters[{i}]"
        _require_keys(
            raw,
            {"name", "kind", "basis", "geometric", "default_index"},
            {"name", "kind"},
            where,
        )
        name = _as_str(raw["name"], f"{where}.name")
        kind = _as_str(raw["kind"], f"{where}.kind", ("continuous", "categorical"))
        has_basis = "basis" in raw
        has_geometric = "geometric" in raw
        if has_basis == has_geometric:
            raise ConfigError(f"{where}: give exactly one of 'basis' or 'geometric'")
        if has_geometric:
            if kind != "continuous":
                raise ConfigError(f"{where}: 'geometric' only applies to continuous kinds")
            geo = raw["geometric"]
            if not isinstance(geo, dict):
                raise ConfigError(f"{where}.geometric: expected an object")
            _require_keys(
                geo, {"default", "count", "span"}, {"default", "count", "span"}, f"{where}.geometric"
            )
            try:
                basis = make_continuous_basis(
                    _as_real(geo["default"], f"{where}.geometric.default"),
                    _as_int(geo["count"], f"{where}.geometric.count"),
                    _as_real(geo["span"], f"{where}.geometric.span"),
                )
            except ValueError as exc:
                raise ConfigError(f"{where}.geometric: {exc}") from None
        else:
            raw_basis = raw["basis"]
            if not isinstance(raw_basis, list) or not raw_basis:
                raise ConfigError(f"{where}.basis: expected a non-empty list")
            if kind == "continuous":
                basis = tuple(_as_real(v, f"{where}.basis") for v in raw_basis)
            else:
                basis = tuple(_as_str(v, f"{where}.basis") for v in raw_basis)
        default_index = raw.get("default_index")
        if default_index is not None:
            default_index = _as_int(default_index, f"{where}.default_index")
        hypers.append(HyperConfig(name, kind, basis, default_index))

    config = SpaceConfig(
        input_dim=_as_int(section["input_dim"], "space.input_dim"),
        num_classes=_as_int(section["num_classes"], "space.num_classes"),
        layers=tuple(layers),
        hyperparameters=tuple(hypers),
    )
    try:
        build_space(config)  # semantic validation; the engine rebuilds later
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None
    return config


def parse_config(document: dict) -> EngineConfig:
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    _require_keys(document, {"space", *_SECTIONS}, {"space", "search"}, "config")
    if not isinstance(document["space"], dict):
        raise ConfigError("space: expected an object")
    return EngineConfig(
        space=_parse_space(document["space"]),
        **{
            name: _parse_section(cls, document.get(name, {}), name)
            for name, cls in _SECTIONS.items()
        },
    )


def config_to_dict(config: EngineConfig) -> dict:
    """Serializable echo of a parsed config, defaults included."""
    return json.loads(json.dumps(asdict(config)))


def load_config(path: str) -> EngineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON ({exc})") from None
    return parse_config(document)
