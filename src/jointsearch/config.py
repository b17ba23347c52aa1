"""Engine configuration: one JSON document, strictly validated.

One parser reads every section, the space included. A config dataclass's
field annotations say what each key holds (a scalar, an optional, a list
read as a tuple, or a nested config dataclass); the parser type-checks each
key present (every real must be finite), rejects unknown keys so typos fail
loudly, and leaves absent keys to the dataclass defaults. Range checks live
in each section's ``__post_init__``, so a section built in code is checked
like a parsed one; the space's are ``space.build_space``, run on the parsed
space. ``parse_config`` works on an in-memory dict and does not modify it;
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
    if not -(2**63) <= value < 2**63:  # a size, count or seed must fit an int64
        raise ConfigError(f"{where}: expected an integer, got one outside the signed 64-bit range")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: expected a finite number, got an integer too large") from None
    if not math.isfinite(real):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return real


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
        if self.checkpoint_path is not None and self.log_path is None:
            raise ConfigError(
                "output.checkpoint_path needs output.log_path: the checkpoint seals the event log"
            )


@dataclass(frozen=True)
class EngineConfig:
    space: SpaceConfig
    data: DataSection
    search: SearchSection
    retrain: RetrainSection
    output: OutputSection


@dataclass(frozen=True)
class _Geometric:  # a hyperparameter's ``geometric`` sugar: make_continuous_basis's arguments
    default: float
    count: int
    span: float


_SECTIONS = dict(
    space=SpaceConfig, data=DataSection, search=SearchSection, retrain=RetrainSection,
    output=OutputSection,
)
# Config dataclasses nested in a section, by the name their fields' annotations use.
_NESTED = {cls.__name__: cls for cls in (RewardSection, LayerConfig, HyperConfig)}
_SCALARS = {
    "int": _as_int,
    "float": _as_real,
    "str": _as_str,
    # A symbol stays a string; build_space checks each value against its field.
    "BasisValue": lambda value, where: value if isinstance(value, str) else _as_real(value, where),
}


def _expand_geometric(hyper, where: str):
    """A hyperparameter object with its ``geometric`` sugar written out as
    the ``basis`` it stands for; any other value as it is."""
    if not isinstance(hyper, dict) or "geometric" not in hyper:
        return hyper
    if "basis" in hyper:
        raise ConfigError(f"{where}: give exactly one of 'basis' or 'geometric'")
    hyper = dict(hyper)
    grid = _parse_section(_Geometric, hyper.pop("geometric"), f"{where}.geometric")
    try:
        hyper["basis"] = list(make_continuous_basis(grid.default, grid.count, grid.span))
    except ValueError as exc:
        raise ConfigError(f"{where}.geometric: {exc}") from None
    return hyper


def _coerce(annotation: str, value, where: str):
    """``value`` type-checked against a config field's annotation: a scalar,
    an optional, a ``tuple[X, ...]`` or fixed-length tuple given as a list,
    or a nested config dataclass given as an object."""
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation[: -len(" | None")]
    if annotation.startswith("tuple["):
        items = annotation[len("tuple[") : -1].split(", ")
        variadic = items[-1] == "..."
        if not isinstance(value, list) or not variadic and len(value) != len(items):
            count = "" if variadic else f" of {len(items)}"
            raise ConfigError(f"{where}: expected a list{count}")
        return tuple(
            _coerce(items[0 if variadic else i], v, f"{where}[{i}]") for i, v in enumerate(value)
        )
    if annotation == "HyperConfig":
        value = _expand_geometric(value, where)
    if annotation in _NESTED:
        return _parse_section(_NESTED[annotation], value, where)
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


def parse_config(document: dict) -> EngineConfig:
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    _require_keys(document, set(_SECTIONS), {"space", "search"}, "config")
    config = EngineConfig(
        **{
            name: _parse_section(cls, document.get(name, {}), name)
            for name, cls in _SECTIONS.items()
        }
    )
    try:
        build_space(config.space)  # the space's semantic checks; the engine rebuilds it
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None
    return config


def config_to_dict(config: EngineConfig) -> dict:
    """Serializable echo of a parsed config, defaults included."""
    return json.loads(json.dumps(asdict(config)))


def load_config(path: str) -> EngineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # also an integer too long to read, or bytes that are not UTF-8
        raise ConfigError(f"{path}: malformed JSON ({exc})") from None
    return parse_config(document)
