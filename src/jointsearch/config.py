"""Engine configuration: one JSON document, strictly validated.

Every section rejects unknown keys so typos fail loudly instead of silently
falling back to defaults. ``parse_config`` works on an in-memory dict and
does not modify it; ``load_config`` reads a JSON file. ``config_to_dict``
echoes a parsed config back as a document, defaults included, which is what
checkpoints store.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _as_real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
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


@dataclass(frozen=True)
class RewardSection:
    mode: str = "plain"
    beta: float = 0.0
    target_cost: float | None = None


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


@dataclass(frozen=True)
class RetrainSection:
    epochs: int = 30
    batch_size: int = 64


@dataclass(frozen=True)
class OutputSection:
    result_path: str | None = None
    log_path: str | None = None
    checkpoint_path: str | None = None
    checkpoint_interval: int = 0  # 0: final checkpoint only


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
            width = _as_int(width, f"space.layers[{i}].width", minimum=1)
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
            default_index = _as_int(default_index, f"{where}.default_index", minimum=0)
        hypers.append(HyperConfig(name, kind, basis, default_index))

    config = SpaceConfig(
        input_dim=_as_int(section["input_dim"], "space.input_dim", minimum=1),
        num_classes=_as_int(section["num_classes"], "space.num_classes", minimum=2),
        layers=tuple(layers),
        hyperparameters=tuple(hypers),
    )
    try:
        build_space(config)  # semantic validation; the engine rebuilds later
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None
    return config


def _parse_data(section: dict) -> DataSection:
    _require_keys(
        section,
        {"generator", "csv_path", "n", "noise_sd", "turns", "fractions", "seed"},
        set(),
        "data",
    )
    generator = _as_str(section.get("generator", "two_moons"), "data.generator", GENERATORS)
    csv_path = section.get("csv_path")
    if csv_path is not None:
        csv_path = _as_str(csv_path, "data.csv_path")
    fractions = section.get("fractions", [0.5, 0.25, 0.25])
    if not isinstance(fractions, list) or len(fractions) != 3:
        raise ConfigError("data.fractions: expected a list of three numbers")
    fractions = tuple(_as_real(f, "data.fractions") for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"data.fractions: must sum to 1, got {sum(fractions)}")
    noise_sd = _as_real(section.get("noise_sd", 0.1), "data.noise_sd")
    if noise_sd < 0.0:
        raise ConfigError("data.noise_sd: must be non-negative")
    turns = _as_real(section.get("turns", 1.0), "data.turns")
    return DataSection(
        generator=generator,
        csv_path=csv_path,
        n=_as_int(section.get("n", 1000), "data.n", minimum=2),
        noise_sd=noise_sd,
        turns=turns,
        fractions=fractions,
        seed=_as_int(section.get("seed", 0), "data.seed"),
    )


def _parse_reward(section: dict) -> RewardSection:
    _require_keys(section, {"mode", "beta", "target_cost"}, set(), "search.reward")
    mode = _as_str(section.get("mode", "plain"), "search.reward.mode", REWARD_MODES)
    beta = _as_real(section.get("beta", 0.0), "search.reward.beta")
    if beta > 0.0:
        raise ConfigError("search.reward.beta: must be <= 0 (penalty coefficient)")
    target = section.get("target_cost")
    if target is not None:
        target = _as_real(target, "search.reward.target_cost")
        if target <= 0.0:
            raise ConfigError("search.reward.target_cost: must be positive")
    if mode == "cost_aware" and target is None:
        raise ConfigError("search.reward.target_cost: required for cost_aware mode")
    return RewardSection(mode, beta, target)


def _parse_search(section: dict) -> SearchSection:
    _require_keys(
        section,
        {
            "total_meta_steps",
            "pairs_per_step",
            "warmup_fraction",
            "meta_lr",
            "baseline_momentum",
            "entropy_weight",
            "reward",
            "inner_steps",
            "val_batch_size",
            "train_batch_size",
            "default_learning_rate",
        },
        {"total_meta_steps"},
        "search",
    )
    warmup = _as_real(section.get("warmup_fraction", 0.3), "search.warmup_fraction")
    if not 0.0 <= warmup < 1.0:
        raise ConfigError("search.warmup_fraction: must be in [0, 1)")
    meta_lr = _as_real(section.get("meta_lr", 0.05), "search.meta_lr")
    if meta_lr <= 0.0:
        raise ConfigError("search.meta_lr: must be positive")
    momentum = _as_real(section.get("baseline_momentum", 0.95), "search.baseline_momentum")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError("search.baseline_momentum: must be in [0, 1)")
    default_lr = _as_real(section.get("default_learning_rate", 0.01), "search.default_learning_rate")
    if default_lr <= 0.0:
        raise ConfigError("search.default_learning_rate: must be positive")
    reward_raw = section.get("reward", {})
    if not isinstance(reward_raw, dict):
        raise ConfigError("search.reward: expected an object")
    return SearchSection(
        total_meta_steps=_as_int(section["total_meta_steps"], "search.total_meta_steps", minimum=0),
        pairs_per_step=_as_int(section.get("pairs_per_step", 4), "search.pairs_per_step", minimum=1),
        warmup_fraction=warmup,
        meta_lr=meta_lr,
        baseline_momentum=momentum,
        entropy_weight=_as_real(section.get("entropy_weight", 0.0), "search.entropy_weight"),
        reward=_parse_reward(reward_raw),
        inner_steps=_as_int(section.get("inner_steps", 1), "search.inner_steps", minimum=1),
        val_batch_size=_as_int(section.get("val_batch_size", 256), "search.val_batch_size", minimum=1),
        train_batch_size=_as_int(section.get("train_batch_size", 64), "search.train_batch_size", minimum=1),
        default_learning_rate=default_lr,
    )


def _parse_retrain(section: dict) -> RetrainSection:
    _require_keys(section, {"epochs", "batch_size"}, set(), "retrain")
    return RetrainSection(
        epochs=_as_int(section.get("epochs", 30), "retrain.epochs", minimum=1),
        batch_size=_as_int(section.get("batch_size", 64), "retrain.batch_size", minimum=1),
    )


def _parse_output(section: dict) -> OutputSection:
    _require_keys(
        section,
        {"result_path", "log_path", "checkpoint_path", "checkpoint_interval"},
        set(),
        "output",
    )
    def _opt_path(key):
        value = section.get(key)
        return None if value is None else _as_str(value, f"output.{key}")

    return OutputSection(
        result_path=_opt_path("result_path"),
        log_path=_opt_path("log_path"),
        checkpoint_path=_opt_path("checkpoint_path"),
        checkpoint_interval=_as_int(
            section.get("checkpoint_interval", 0), "output.checkpoint_interval", minimum=0
        ),
    )


def parse_config(document: dict) -> EngineConfig:
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    _require_keys(
        document,
        {"space", "data", "search", "retrain", "output"},
        {"space", "search"},
        "config",
    )
    for key in ("space", "data", "search", "retrain", "output"):
        if key in document and not isinstance(document[key], dict):
            raise ConfigError(f"{key}: expected an object")
    try:
        return EngineConfig(
            space=_parse_space(document["space"]),
            data=_parse_data(document.get("data", {})),
            search=_parse_search(document["search"]),
            retrain=_parse_retrain(document.get("retrain", {})),
            output=_parse_output(document.get("output", {})),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
