"""Steadiness check: run each workload in sets of seeds and compare the sets.

    python3 benchmarks/steadiness.py --seeds 1-10 --sets 2

Every set runs ``benchmarks/run.py`` once per (seed, workload), seeds in
order and workloads interleaved, so slow drift of the machine falls on every
workload alike. For each end-to-end metric of BENCHMARK.json the report gives
each set's median and quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), and whether the later
set's median is no worse than the first set's by more than the metric's
bound. Each set uses the same seeds, so the output fingerprints of a seed
must also be identical across sets. ``--record FILE`` appends the first
set's medians, with provenance, as one trajectory point.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    detail_path = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(detail_path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_share(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record", help="append the first set's medians to this file")
    parser.add_argument("--label", default="", help="label of the recorded trajectory point")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    metrics = bench["end_to_end"]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in names}
    fingerprints: dict[tuple[str, int], dict] = {}
    problems: list[str] = []
    provenance = {}
    for set_index in range(args.sets):
        for seed in seeds:
            for w in names:
                result, detail = run_once(w, seed, args.seconds, 0)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{w} seed {seed} set {set_index}: incorrect ({detail['errors']})")
                for m in metrics:
                    values[w][set_index][m["name"]].append(result["metrics"][m["name"]]["value"])
                seen = fingerprints.setdefault((w, seed), detail["fingerprints"])
                if seen != detail["fingerprints"]:
                    problems.append(f"{w} seed {seed} set {set_index}: fingerprints differ")
                provenance.setdefault(w, detail["provenance"])
                line = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
                )
                print(f"set {set_index} seed {seed} {w}: {line}", flush=True)

    summary = {"seeds": seeds, "sets": args.sets, "seconds": args.seconds, "workloads": {}}
    print()
    print(f"{'workload':20s} {'metric':20s} {'bound':>6s} " + " ".join(
        f"{'median' + str(i):>12s} {'spread' + str(i):>8s}" for i in range(args.sets)
    ) + f" {'worse':>7s} ok")
    for w in names:
        rows = {}
        for m in metrics:
            sets = [values[w][i][m["name"]] for i in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in sets]
            worse = max(worse_share(medians[0], later, m["better"]) for later in medians[1:]) \
                if args.sets > 1 else 0.0
            ok = worse <= m["bound"] and (
                m["name"] == "setup_s" or all(s <= m["bound"] for s in spreads))
            steady = all(s < m["bound"] / 3 for s in spreads)
            rows[m["name"]] = {"medians": medians, "spreads": spreads, "worse": worse,
                               "within_bound": ok, "below_third_of_bound": steady}
            if not ok:
                problems.append(f"{w} {m['name']}: spread or set difference beyond the bound {m['bound']}")
            print(f"{w:20s} {m['name']:20s} {m['bound']:6.2f} " + " ".join(
                f"{md:12.5g} {sp:8.3f}" for md, sp in zip(medians, spreads)
            ) + f" {worse:7.3f} {'yes' if ok else 'NO'}{'' if steady else ' (spread >= bound/3)'}")
        summary["workloads"][w] = rows
    summary["problems"] = problems
    out = ROOT / ".bench_work" / "steadiness.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for p in problems:
        print("problem:", p)

    if args.record:
        point = {
            "label": args.label,
            "seeds": seeds,
            "seconds": args.seconds,
            "provenance": provenance,
            "medians": {
                w: {m["name"]: summary["workloads"][w][m["name"]]["medians"][0] for m in metrics}
                for w in names
            },
            "spreads": {
                w: {m["name"]: summary["workloads"][w][m["name"]]["spreads"][0] for m in metrics}
                for w in names
            },
            "fingerprints": {f"{w}/{seed}": fp for (w, seed), fp in fingerprints.items()},
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
