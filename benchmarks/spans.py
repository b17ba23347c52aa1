"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``jointsearch`` modules from the
outside: it replaces module attributes (and ``RngStream.sample_indices``)
with wrappers that record one span per call, then puts the originals back.
Nothing under ``src/`` knows about it. Spans are kept in memory as
``(name, start, end, parent, run_id)`` tuples and written out once, at the
end of the run.

Per-draw methods (``RngStream.uniform``, ``_raw``, ``index``) are not
wrapped: they run about a hundred thousand times per a few meta-steps, so a
span each would swamp what is measured. Draws are counted instead from
``RngStream.counter`` deltas around ``sample_indices`` and
``controller.sample``.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Counter:
    """A count taken at a span: ``measure(args)`` after the call, minus its
    value before the call when ``delta`` is set."""

    name: str
    measure: Callable[[tuple], float]
    delta: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        counter: Counter | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be a function of the call's arguments, so one wrapped
        function can record under several span names.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            before = counter.measure(args) if counter is not None and counter.delta else 0
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, tracer.run_id)
                if counter is not None:
                    tracer.counts[counter.name] = (
                        tracer.counts.get(counter.name, 0) + counter.measure(args) - before
                    )

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> tuple[dict[str, int], dict[str, float], list]:
        """Calls and self seconds per span name, and the spans themselves.

        Self time is a span's duration minus the durations of its direct
        children, which is the part of its interval no child span covers.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return calls, self_s, spans

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions whose self time the per-layer metrics report.

    A function imported by name into another module is wrapped in each
    namespace it is called through, so every call site records a span.
    """
    from jointsearch import config, controller, data, engine, numerics, persist, space
    from jointsearch import supernet, trainstep

    tracer.wrap(
        numerics.RngStream,
        "sample_indices",
        "numerics.sample_indices",
        Counter("numerics.sample_indices.words", lambda args: args[0].counter, delta=True),
    )
    tracer.wrap(numerics, "backward", "numerics.backward")

    def forward_name(args, kwargs):
        mode = args[3] if len(args) > 3 else kwargs.get("mode", supernet.EVAL)
        return f"supernet.forward.{mode}"

    tracer.wrap(
        supernet,
        "forward",
        forward_name,
        Counter("supernet.forward.rows", lambda args: len(args[2])),
    )
    for fn in ("make_temporary", "commit_step", "apply_mixup", "optimizer_step", "build_trainer"):
        tracer.wrap(trainstep, fn, f"trainstep.{fn}")

    tracer.wrap(
        controller,
        "sample",
        "controller.sample",
        Counter("controller.sample.words", lambda args: args[1].counter, delta=True),
    )
    tracer.wrap(controller, "reinforce_update", "controller.reinforce_update")
    # controller imports optimizer_step by name; its calls are the logit update.
    tracer.wrap(controller, "optimizer_step", "controller.optimizer_step")

    tracer.wrap(
        persist,
        "store_digest",
        "persist.store_digest",
        Counter("persist.store_digest.params", lambda args: sum(a.size for a in args[0].values())),
    )
    tracer.wrap(
        persist,
        "save_checkpoint",
        "persist.save_checkpoint",
        Counter("persist.checkpoint_bytes", lambda args: os.path.getsize(args[0])),
    )
    tracer.wrap(persist, "load_checkpoint", "persist.load_checkpoint")
    tracer.wrap(
        persist,
        "write_event",
        "persist.write_event",
        Counter("persist.event_bytes", lambda args: len(args[1].to_json()) + 1),
    )

    for fn in ("evaluate_candidate", "eval_metrics", "search", "retrain", "random_search_baseline"):
        tracer.wrap(engine, fn, f"engine.{fn}")

    for owner in (data, engine):
        tracer.wrap(owner, "two_moons", "data.two_moons")
        tracer.wrap(owner, "split", "data.split")
    tracer.wrap(config, "parse_config", "config.parse_config")
    for owner in (space, config, engine):
        tracer.wrap(owner, "build_space", "space.build_space")
    for owner in (space, engine):
        tracer.wrap(owner, "derive", "space.derive")
    for owner in (space, trainstep, engine):
        tracer.wrap(owner, "selection_to_config", "space.selection_to_config")
