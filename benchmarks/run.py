"""jointsearch benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload tabular-controller --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nothing else. With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
wraps the library's public functions and reports the per-layer metrics.
Either way it checks every operation's outputs, prints each metric by name
and unit, writes the full result (provenance, fingerprints, every figure)
under ``.bench_work/``, and prints as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``benchmarks/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
# Sessions stop starting once this much time has passed, so a run ends well
# inside three minutes even on a machine much slower than the one it was
# sized on.
HARD_STOP_S = 120.0

# One process and one thread: keep BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program():
    """Import ``jointsearch`` from this checkout's ``src/`` or exit with 2."""
    package = SRC / "jointsearch"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no program to measure at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import jointsearch

    if Path(jointsearch.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported {jointsearch.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return jointsearch


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh interpreters
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import + parse_config + dataset build and split."""
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.WORKLOADS[workload].setup(seed)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Run the set-up probe several times, one child at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed: int, load_start: tuple) -> dict:
    import numpy
    import scipy

    sha = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    doc = json.dumps(workload.doc(seed), sort_keys=True)
    config_hash = hashlib.sha256(doc.encode()).hexdigest()[:16]
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "workload": workload.name,
        "seed": seed,
        "config_hash": config_hash,
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) of the latency tail.

    The tail is the highest percentile, up to p95, that has at least ten
    samples beyond it, and never lies below the median: with fewer than 21
    samples it is the median. The cap keeps a run of tens of thousands of
    sub-millisecond steps from reporting a p99.9 that only times scheduler
    hiccups on a shared machine.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    beyond = max(10, n // 20)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run_sessions(workload, seed: int, seconds: float, tracer) -> tuple[list, float]:
    """Repeat the workload's session until ``seconds`` have passed.

    Every session runs the same generated inputs, so repeats do identical
    work. An untraced run makes at least two sessions. In a traced run each
    traced session follows an untraced one, the pair's difference being the
    tracing overhead. Returns the measured sessions and the summed wall time
    of the untraced partners of traced sessions.
    """
    import workloads

    from spans import install_layer_spans

    workdir = str(WORK / "sessions" / workload.name)
    # A failed warm-up is not reported: the measured sessions fail the same way.
    _run_one(workload.warm, workloads.Session(), seed, workdir)

    sessions = []
    untraced_s = 0.0
    start = time.perf_counter()
    while True:
        session = workloads.Session()
        if tracer is None:
            _run_one(workload.run, session, seed, workdir)
        else:
            partner = workloads.Session()
            _run_one(workload.run, partner, seed, workdir)
            untraced_s += partner.wall_s
            tracer.run_id = len(sessions)
            install_layer_spans(tracer)
            try:
                _run_one(workload.run, session, seed, workdir)
            finally:
                tracer.unwrap_all()
        sessions.append(session)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if elapsed >= seconds and (tracer is not None or len(sessions) >= 2):
            break
    return sessions, untraced_s


def _run_one(flow, session, seed: int, workdir: str) -> None:
    import workloads

    start = time.perf_counter()
    try:
        flow(session, seed, workdir)
    except workloads.OpFailed:
        pass  # recorded on the session; its remaining operations are not attempted
    session.wall_s = time.perf_counter() - start


def check_repeats(sessions) -> None:
    """Every session must give the first session's fingerprints."""
    reference = sessions[0].fingerprint
    for s in sessions[1:]:
        for key, value in s.fingerprint.items():
            if reference.get(key) != value:
                kind = key.split("/")[0]
                s.errors.append(f"{key}: fingerprint differs from the first session's")
                s.ops = [(k, t, ok and k != kind) for k, t, ok in s.ops]


def _median_figure(sessions, name: str) -> float | None:
    """Median over every session's values of a timing figure."""
    values = [v for s in sessions for v in s.figures.get(name, ())]
    return statistics.median(values) if values else None


def _mean_first(sessions, name: str) -> float | None:
    """Mean over seeds of a deterministic figure (every session repeats it)."""
    values = sessions[0].figures.get(name)
    return statistics.fmean(values) if values else None


def op_counts(sessions) -> tuple[int, int]:
    """(attempted, failed) operations over all sessions."""
    return sum(len(s.ops) for s in sessions), sum(not ok for s in sessions for *_, ok in s.ops)


def best_of_repeats(series: list[list[float]]) -> list[float]:
    """Element-wise minimum over repeats of identical work.

    The i-th meta-step of every session does the same work, so its fastest
    repeat is the one least slowed by other processes on the machine.
    """
    if not series or any(len(x) != len(series[0]) for x in series):
        return []
    return [min(column) for column in zip(*series)]


def end_to_end(sessions, setup_times: list[float]) -> tuple[dict, dict]:
    steps = best_of_repeats([s.step_s for s in sessions])
    all_steps = [t for s in sessions for t in s.step_s]
    tail_value, tail_pct, tail_n = tail(all_steps) if all_steps else (None, None, 0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "search_steps_per_s": (len(steps) / sum(steps) if steps else None, "1/s"),
        "meta_step_ms_p50": (statistics.median(steps) * 1000.0 if steps else None, "ms"),
        "meta_step_ms_tail": (tail_value * 1000.0 if all_steps else None, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mean_reward": (_mean_first(sessions, "mean_reward"), "share"),
    }
    attempted, failed = op_counts(sessions)
    report = {
        "meta_step_tail_percentile": (tail_pct, "percent"),
        "meta_step_samples": (tail_n, "count"),
        "sessions": (len(sessions), "count"),
        "session_s": (min(s.call_s() for s in sessions), "s"),
        "meta_step_ms_p50_all_repeats": (
            statistics.median(all_steps) * 1000.0 if all_steps else None, "ms"),
        "session_s_median": (statistics.median(s.call_s() for s in sessions), "s"),
        "ops_failed_share": (failed / attempted if attempted else 1.0, "share"),
        "retrain_epoch_ms": (_median_figure(sessions, "retrain_epoch_ms"), "ms"),
        "baseline_trial_s": (_median_figure(sessions, "baseline_trial_s"), "s"),
        "resume_to_first_step_s": (_median_figure(sessions, "resume_to_first_step_s"), "s"),
        "retrain_val_accuracy": (_mean_first(sessions, "retrain_val_accuracy"), "share"),
        "planted_prob": (_mean_first(sessions, "planted_prob"), "share"),
    }
    return metrics, report


LAYER_FUNCTIONS = (
    "numerics.sample_indices", "numerics.backward",
    "supernet.forward.eval", "supernet.forward.train",
    "trainstep.make_temporary", "trainstep.commit_step", "trainstep.apply_mixup",
    "trainstep.optimizer_step", "trainstep.build_trainer",
    "controller.sample", "controller.reinforce_update", "controller.optimizer_step",
    "persist.store_digest", "persist.save_checkpoint", "persist.load_checkpoint",
    "persist.write_event",
    "engine.search", "engine.evaluate_candidate", "engine.eval_metrics",
    "engine.retrain", "engine.random_search_baseline",
    "data.two_moons", "data.split", "config.parse_config",
    "space.build_space", "space.derive", "space.selection_to_config",
)
LAYER_COUNTERS = (
    ("numerics.sample_indices.words", "count"),
    ("controller.sample.words", "count"),
    ("supernet.forward.rows", "count"),
    ("persist.store_digest.params", "count"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.event_bytes", "bytes"),
)


def per_layer(sessions, tracer, untraced_s: float) -> tuple[dict, dict]:
    """Per-session means of each function's calls and self time, plus counts."""
    n = len(sessions)
    calls, self_s, spans = tracer.summary()
    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
        metrics[f"{name}.self_ms"] = (self_s.get(name, 0.0) * 1000.0 / n, "ms")
    for name, unit in LAYER_COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0) / n, unit)

    # Logging cost: digests taken for the event log (not inside a checkpoint
    # save or load) plus event writes, over the time spent in search calls.
    search_total = sum(end - start for name, start, end, _, _ in spans if name == "engine.search")
    log_s = 0.0
    for name, start, end, parent, _ in spans:
        if name == "persist.write_event" or (
            name == "persist.store_digest" and parent >= 0 and spans[parent][0] == "engine.search"
        ):
            log_s += end - start
    metrics["persist.log_share"] = (log_s / search_total if search_total else 0.0, "share")

    steps = max(1, sum(s.search_steps for s in sessions))
    metrics["engine.controller_phase_ms"] = (
        sum(t for s in sessions for t in s.controller_phase_s) * 1000.0 / steps, "ms")
    metrics["engine.commit_phase_ms"] = (
        sum(t for s in sessions for t in s.commit_phase_s) * 1000.0 / steps, "ms")
    metrics["engine.resumed_history_ratio"] = (
        _mean_first(sessions, "resumed_history_ratio") or 0.0, "share")
    metrics["persist.duplicate_event_lines"] = (
        _mean_first(sessions, "duplicate_event_lines") or 0.0, "count")
    session_total = sum(s.wall_s for s in sessions)
    metrics["trace.overhead_share"] = ((session_total - untraced_s) / untraced_s, "share")
    report = {"trace.spans": (len(spans), "count")}
    for name in LAYER_FUNCTIONS:
        report[f"{name}.share"] = (self_s.get(name, 0.0) / session_total, "share")
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    load_start = os.getloadavg()

    setup_times = measure_setup(workload.name, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    sessions, untraced_s = run_sessions(workload, args.seed, args.seconds, tracer)
    check_repeats(sessions)

    attempted, failed = op_counts(sessions)
    errors = [e for s in sessions for e in s.errors]
    if args.trace:
        metrics, report = per_layer(sessions, tracer, untraced_s)
    else:
        metrics, report = end_to_end(sessions, setup_times)
    correct = failed == 0 and not errors and all(v is not None for v, _ in metrics.values())

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    detail = {
        **result,
        "trace": args.trace,
        "seconds": args.seconds,
        "report": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        "setup_s_samples": setup_times,
        "errors": errors,
        "fingerprints": sessions[0].fingerprint,
        "provenance": provenance(workload, args.seed, load_start),
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(str(WORK / "trace" / f"{workload.name}-seed{args.seed}.jsonl"))

    for name, (value, unit) in [*metrics.items(), *report.items()]:
        print(f"{name:40s} {'n/a' if value is None else repr(value):>24} {unit}")
    for error in errors:
        print(f"error: {error}")
    print(f"result: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
