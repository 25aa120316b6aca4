"""Collect sets of benchmark runs and compare two of them.

Commands (run from the checkout root)::

    python3 perfbench/compare.py collect --out perfbench/runs/a.jsonl \\
        --runs 10 --trace-runs 1 [--workload join-dense ...] [--seed-base 1]
    python3 perfbench/compare.py spread perfbench/runs/a.jsonl
    python3 perfbench/compare.py profile perfbench/runs/a.jsonl
    python3 perfbench/compare.py compare BASE.jsonl NEW.jsonl

``collect`` runs ``perfbench/run.py`` once per seed and workload (and
``--trace-runs`` traced runs per workload), appending every run record
to the JSON-lines file.

``spread`` prints, per workload and end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound in ``BENCHMARK.json``:
``steady`` below a third of the bound, ``ok`` within it, ``NOISY``
beyond it.

``profile`` prints, from the traced runs, the layer shares each
workload was designed to show (README, "Measured layer profile").

``compare`` prints, per workload and end-to-end metric, both sets'
median and quartiles and a verdict against the bound: ``worse`` when the
new median is worse than the base median by more than the bound,
``better`` when it is better by more than the base's own spread, and
``unresolved`` when the base's spread exceeds the bound.  Next to each
row stand the per-layer metrics predicted to move it (traced runs),
largest relative change first, so a regression can be traced to a layer
from committed run files alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which per-layer metrics should move which end-to-end metric (README).
PREDICTS = {
    "setup_s": ("tree.parse_s", "prepare.caches_s", "prepare.partition_s"),
    "join_s": ("candidates.ingest_s", "candidates.probe_s", "candidates.index_s",
               "verify.features_s", "verify.s", "verify.dp_s", "verify.lb_s",
               "parallel.candidate_wall_s", "parallel.verify_wall_s"),
    "ingest_p50_ms": ("stream.ingest_s", "stream.verify_s", "wal.append_s"),
    "ingest_p90_ms": ("stream.ingest_s", "stream.verify_s", "wal.sync_s",
                      "verify.dp_ms_max"),
    "ingest_trees_per_s": ("stream.ingest_s", "wal.append_s", "wal.sync_s"),
    "search_p50_ms": ("search.s",),
    "search_p90_ms": ("search.s", "verify.dp_ms_max"),
    "peak_rss_mb": ("verify.dp_ms_max", "verify.dp_s"),
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def series(records, workload: str, trace: int, metric: str) -> list[float]:
    return [
        r["metrics"][metric]["value"] for r in records
        if r["workload"] == workload and r["trace"] == trace
        and r["correct"] and metric in r["metrics"]
    ]


def summary(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread_of(values) -> float:
    q1, median, q3 = summary(values)
    return (q3 - q1) / median if median else float("inf")


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive is worse."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def collect(args) -> int:
    names = args.workload or [w["name"] for w in spec()["workloads"]]
    seconds = str(args.seconds or spec()["run_seconds"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in names:
        plan = [(0, args.seed_base + k) for k in range(args.runs)]
        plan += [(1, args.seed_base + k) for k in range(args.trace_runs)]
        for trace, seed in plan:
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", seconds, "--trace", str(trace),
                       "--out", str(args.out)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True)
            last = done.stdout.strip().splitlines()[-1:] or [done.stderr]
            print(f"{name} seed={seed} trace={trace} exit={done.returncode} "
                  f"{last[0][:160]}", flush=True)
            status = status or done.returncode
    return status


def spread(args) -> int:
    records = load(args.runs)
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    noisy = 0
    for workload in sorted({r["workload"] for r in records}):
        print(f"== {workload}")
        for metric, bound in bounds.items():
            values = series(records, workload, 0, metric)
            if not values:
                continue
            q1, median, q3 = summary(values)
            share = spread_of(values)
            verdict = ("steady" if share < bound / 3
                       else "ok" if share <= bound else "NOISY")
            noisy += verdict == "NOISY" and metric != "setup_s"
            print(f"  {metric:20s} n={len(values):2d} median={median:12.5g} "
                  f"q1={q1:12.5g} q3={q3:12.5g} spread={share:6.3f} "
                  f"bound={bound:.2f} {verdict}")
    return 1 if noisy else 0


def compare(args) -> int:
    base, new = load(args.base), load(args.new)
    layer_better = {m["name"]: m["better"] for m in spec()["per_layer"]}
    regressions = 0
    for workload in sorted({r["workload"] for r in base + new}):
        print(f"== {workload}")
        for entry in spec()["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            a = series(base, workload, 0, metric)
            b = series(new, workload, 0, metric)
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = summary(a)
            b_q1, b_med, b_q3 = summary(b)
            change = worse_by(a_med, b_med, entry["better"])
            if spread_of(a) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                regressions += 1
            elif -change > spread_of(a):
                verdict = "better"
            else:
                verdict = "same"
            layers = []
            for name in PREDICTS.get(metric, ()):
                la = series(base, workload, 1, name)
                lb = series(new, workload, 1, name)
                if la and lb and statistics.median(la):
                    delta = worse_by(statistics.median(la),
                                     statistics.median(lb), layer_better[name])
                    layers.append((abs(delta), f"{name} {delta:+.1%}"))
            layers.sort(reverse=True)
            print(f"  {metric:20s} base {a_med:10.5g} [{a_q1:.5g}, {a_q3:.5g}]"
                  f"  new {b_med:10.5g} [{b_q1:.5g}, {b_q3:.5g}]"
                  f"  worse by {change:+.1%} (bound {bound:.0%}) {verdict:10s}"
                  f"  {'; '.join(text for _, text in layers[:3])}")
    return 1 if regressions else 0


def median_of(records, workload: str, trace: int, metric: str):
    values = series(records, workload, trace, metric)
    return statistics.median(values) if values else float("nan")


def profile(args) -> int:
    """Per workload, the layer shares the workloads were designed for."""
    records = load(args.runs)
    print("| Workload | setup_s | join_s | layer-pass join | verify share "
          "| DP share of verify | parse + prepare + candidates share of "
          "set-up + join | unattributed |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in sorted({r["workload"] for r in records}):
        m = lambda name, trace=1: median_of(records, workload, trace, name)  # noqa: E731
        layer = m("obs.layer_pass_s")
        setup_layers = (m("tree.parse_s") + m("prepare.caches_s")
                        + m("prepare.partition_s"))
        front = (setup_layers + m("candidates.ingest_s")) / (
            setup_layers + layer)
        print(f"| `{workload}` | {m('setup_s', 0):.3g} s | {m('join_s', 0):.3g} s "
              f"| {layer:.3g} s | {m('verify.s') / layer:.0%} "
              f"| {m('verify.dp_s') / m('verify.s'):.0%} | {front:.0%} "
              f"| {m('obs.unattributed_s'):.3g} s |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("collect", help="run the benchmark into a JSONL file")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace-runs", type=int, default=1)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--workload", action="append")
    p.set_defaults(handler=collect)
    p = commands.add_parser("spread", help="spread of one set of runs")
    p.add_argument("runs", type=Path)
    p.set_defaults(handler=spread)
    p = commands.add_parser("profile", help="layer shares from traced runs")
    p.add_argument("runs", type=Path)
    p.set_defaults(handler=profile)
    p = commands.add_parser("compare", help="compare two sets of runs")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    p.set_defaults(handler=compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
