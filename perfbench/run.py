"""The PartSJ benchmark: one command per workload, every metric by name.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload join-dense --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced layer pass and prints the per-layer
metrics.  The metric names, units and bounds are those of
``BENCHMARK.json`` at the checkout root; the run fails if it could not
measure one of them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, prefixed ``record:``, holds the same result plus the run's metadata
(source digest, git commit when available, usable CPUs, Python and numpy
versions, the kernel backend that actually ran, sample counts);
``--out FILE`` appends that record to a JSON-lines file for
``perfbench/compare.py``.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed, with ``"correct": false``), 2 when nothing could
be measured -- no program source next to the benchmark, a fault
injection spec in the environment, or a warm sidecar index.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    """sha256 over the program's source files (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(backend) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "source_digest": source_digest(),
        "git_commit": git_commit(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
    }


def expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run record to this JSONL file")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash layout for every run: dict and set layouts (and
        # so cache behaviour) then do not vary from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC.relative_to(ROOT)}/repro")
    if os.environ.get("REPRO_FAULT_SPEC"):
        fail("REPRO_FAULT_SPEC is set: refusing to time injected faults")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import checks
    import e2e
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    expected = expected_metrics(args.trace)

    selftest_problems = checks.selftest()
    trees, queries = workloads.generate(workload, args.seed)
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if args.trace:
            outcome = layers.traced(workload, trees, queries, work, args.seed)
        else:
            outcome = e2e.measure(workload, trees, queries, args.seconds,
                                  work, args.seed)
    except e2e.GuardError as exc:
        fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    tally = outcome["tally"]
    tally.note(selftest_problems)
    measured = outcome["metrics"]
    problems = list(tally.problems)
    for name, unit in expected.items():
        if name not in measured:
            problems.append(f"metric {name} was not measured")
        elif measured[name][1] != unit:
            problems.append(f"metric {name} measured in {measured[name][1]}, "
                            f"BENCHMARK.json says {unit}")
    correct = tally.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": max(tally.failed, 0 if correct else 1),
        "metrics": {
            name: {"value": measured[name][0], "unit": unit}
            for name, unit in expected.items() if name in measured
        },
    }
    for name, (value, unit) in measured.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    for line in problems:
        print(f"FAILED: {line}")
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": round(elapsed, 3),
        "meta": metadata(outcome["backend"]),
        "samples": outcome["samples"], "results": outcome["results"],
        "problems": problems,
        **{key: outcome[key] for key in ("walls", "self_times") if key in outcome},
        **result,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
