"""Command-line interface.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import engine
from .config import ConfigError, load_config
from .persist import read_events
from .space import DerivedConfig, build_space


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # runtime failures, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="jointsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="run the joint search loop")
    p_search.add_argument("--config", required=True, help="path to a JSON config")
    p_search.add_argument("--resume", help="checkpoint file to resume from")

    p_retrain = sub.add_parser("retrain", help="retrain a derived configuration")
    p_retrain.add_argument("--config", required=True, help="path to a JSON config")
    p_retrain.add_argument("--from-result", required=True, help="search result JSON")
    p_retrain.add_argument("--out", help="write metrics JSON here instead of stdout")

    p_baseline = sub.add_parser("baseline", help="run a search baseline")
    p_baseline.add_argument("method", choices=["random"], help="baseline strategy")
    p_baseline.add_argument("--config", required=True, help="path to a JSON config")
    p_baseline.add_argument("--budget", required=True, type=int, help="number of trials")
    p_baseline.add_argument("--out", help="write results JSON here instead of stdout")

    p_report = sub.add_parser("report", help="summarize an event log")
    p_report.add_argument("--log", required=True, help="event log (JSONL) path")
    p_report.add_argument("--out", required=True, help="output directory")
    return parser


def _derived_to_doc(space, derived) -> dict:
    hyper = {
        decision.name: value
        for decision, value in zip(space.hyper_decisions, derived.hyper_values)
    }
    return {"arch": list(derived.arch_choice), "hyperparameters": hyper}


def _result_document(space, result: engine.SearchResult) -> dict:
    return {
        "derived": _derived_to_doc(space, result.derived),
        "final_probabilities": [p.tolist() for p in result.final_probabilities],
        "wall_steps": result.wall_steps,
        "reward_history": [vars(r) for r in result.reward_history],
    }


def _emit(document: dict, out_path: str | None) -> None:
    """Print ``document`` as JSON, or write it to ``out_path``; a non-finite
    number raises ``ValueError``, since JSON has none."""
    payload = json.dumps(document, indent=2, allow_nan=False)
    if out_path is None:
        print(payload)
    else:
        directory = os.path.dirname(out_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _cmd_search(args) -> int:
    config = load_config(args.config)
    result = engine.search(config, resume_from=args.resume)
    space = build_space(config.space)
    document = _result_document(space, result)
    out_path = config.output.result_path
    _emit(document, out_path)
    if out_path is not None:
        print(f"result written to {out_path}")
    return 0


def _load_derived(space, path: str) -> DerivedConfig:
    """The ``derived`` object of the result file at ``path``, or the whole
    document. ``ValueError`` names the file when it is not UTF-8 JSON, and
    the file and the first field that is missing, that ``space`` does not
    search or that it could not have derived. A continuous value need only
    be finite, since ``engine.retrain`` takes it as given."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: malformed result file ({exc})") from None
    prefix = "derived." if isinstance(doc, dict) and "derived" in doc else ""
    derived = doc["derived"] if prefix else doc

    def check(ok: bool, name: str, what: str) -> None:
        if not ok:
            raise ValueError(f"{path}: field {prefix}{name} is missing or not {what}")

    arch = derived.get("arch") if isinstance(derived, dict) else None
    cards = [len(d.candidates) for d in space.arch_decisions]
    fits = isinstance(arch, list) and len(arch) == len(cards)
    fits = fits and all(type(i) is int and 0 <= i < c for i, c in zip(arch, cards))
    check(fits, "arch", f"a list of one op index per layer, within {cards}")
    by_name = derived.get("hyperparameters")
    check(isinstance(by_name, dict), "hyperparameters", "an object")
    searched = {d.name for d in space.hyper_decisions}
    for name in by_name:
        if name not in searched:
            raise ValueError(
                f"{path}: field {prefix}hyperparameters.{name} is not a hyperparameter "
                "the space searches"
            )
    for d in space.hyper_decisions:
        value, name = by_name.get(d.name), f"hyperparameters.{d.name}"
        if d.kind == "categorical":
            check(value in d.basis, name, f"one of {list(d.basis)}")
        else:  # a NaN fails the comparison, an int too large for a float too
            finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
            check(finite, name, "a finite number")
    return DerivedConfig(tuple(arch), tuple(by_name[d.name] for d in space.hyper_decisions))


def _cmd_retrain(args) -> int:
    config = load_config(args.config)
    space = build_space(config.space)
    derived = _load_derived(space, args.from_result)
    splits = engine.setup_run(config, space)
    result = engine.retrain(
        space,
        derived,
        splits,
        config.retrain.epochs,
        batch_size=config.retrain.batch_size,
        learning_rate=config.search.default_learning_rate,
        seed=config.data.seed,
    )
    _emit(
        {
            "derived": _derived_to_doc(space, derived),
            "val_accuracy": result.val_accuracy,
            "val_loss": result.val_loss,
            "test_accuracy": result.test_accuracy,
            "test_loss": result.test_loss,
        },
        args.out,
    )
    return 0


def _cmd_baseline(args) -> int:
    if args.budget < 1:
        raise ConfigError("--budget must be a positive integer")
    config = load_config(args.config)
    space = build_space(config.space)
    splits = engine.setup_run(config, space)
    result = engine.random_search_baseline(
        space,
        splits,
        args.budget,
        config.retrain.epochs,
        config.data.seed,
        batch_size=config.retrain.batch_size,
        learning_rate=config.search.default_learning_rate,
    )
    _emit(
        {
            "best": {
                "index": result.best.index,
                "derived": _derived_to_doc(space, result.best.derived),
                "val_accuracy": result.best.val_accuracy,
                "test_accuracy": result.best.test_accuracy,
            },
            "trials": [
                {
                    "index": t.index,
                    "selection": list(t.selection),
                    "val_accuracy": t.val_accuracy,
                    "test_accuracy": t.test_accuracy,
                }
                for t in result.trials
            ],
        },
        args.out,
    )
    return 0


def _cmd_report(args) -> int:
    header, records = read_events(args.log)
    os.makedirs(args.out, exist_ok=True)
    decisions = header["decisions"]
    for d, decision in enumerate(decisions):
        path = os.path.join(args.out, f"decision_{d:02d}_{decision['label']}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["meta_step"] + [f"p{j}" for j in range(decision["cardinality"])])
            for record in records:
                writer.writerow([record.meta_step] + list(record.probabilities[d]))

    # The log of a run with no meta-step holds only its header: no final or mean figures.
    rewards = [r.mean_reward for r in records]
    last = records[-1] if records else None
    summary = {
        "steps": len(records),
        "final_meta_step": last.meta_step if last else None,
        "final_baseline": last.baseline if last else None,
        "mean_reward_first": rewards[0] if rewards else None,
        "mean_reward_last": rewards[-1] if rewards else None,
        "mean_reward_max": max(rewards, default=None),
        "final_argmax": {
            d["label"]: int(np.argmax(p)) for d, p in zip(decisions, last.probabilities)
        } if last else {},
        "final_store_digest": last.store_digest if last else None,
    }
    _emit(summary, os.path.join(args.out, "summary.json"))
    print(f"wrote {len(decisions)} trajectory files and summary.json to {args.out}")
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "retrain": _cmd_retrain,
    "baseline": _cmd_baseline,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return _COMMANDS[args.command](args)
        except (ConfigError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # runtime failure
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2
    except KeyboardInterrupt:
        return 2


if __name__ == "__main__":
    sys.exit(main())
