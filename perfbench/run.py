#!/usr/bin/env python3
"""linforest benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload sweep-checks --seed 1 --seconds 30 --trace 0

Run from a checkout; linforest is imported from its ``src`` directory. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are for people. The full result, with provenance, is also written
under ``perfbench/results/``, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("sweep-checks", "single-tree")
IMPORT_SAMPLES = 5  # at each end of the run


def import_seconds(samples: int) -> list[float]:
    """Cold ``import linforest`` times, each in a fresh interpreter, read
    from ``-X importtime``. Taken at the start and at the end of a run, so
    one burst of load on the machine moves the median less."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import linforest"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "linforest":
                times.append(int(fields[1]) / 1e6)
    if len(times) != samples:
        raise SystemExit("could not read the import time of linforest")
    return times


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linforest" / "__init__.py").is_file():
        print(f"error: no linforest sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # setup_s is an end-to-end metric, so traced runs skip its import samples
    imports = [] if args.trace else import_seconds(IMPORT_SAMPLES)

    import linforest
    import workloads as w

    if Path(linforest.__file__).resolve().parent != SRC / "linforest":
        print(f"error: imported linforest from {linforest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import provenance

    gate = w.Gate()
    if args.workload == "single-tree":
        if args.trace:
            result = w.trace_single(w.SINGLE_TREE, args.seed, gate)
        else:
            result = w.measure_single(w.SINGLE_TREE, args.seed, args.seconds, gate)
    else:
        if args.trace:
            result = w.trace_sweep(w.SWEEP_CHECKS, args.seed, gate)
        else:
            result = w.measure_sweep(w.SWEEP_CHECKS, args.seed, args.seconds, gate)

    metrics = dict(result.metrics)
    detail = dict(result.detail)
    if not args.trace:
        import_s = statistics.median(imports + import_seconds(IMPORT_SAMPLES))
        metrics["setup_s"] += import_s
        detail["import_s"] = import_s
    declared = declared_metrics(args.trace)
    units = {name: unit for name, unit, _ in (w.LAYER_METRICS if args.trace else w.E2E_METRICS)}
    if set(metrics) != set(declared) or any(units[k] != declared[k] for k in declared):
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT),
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "detail": detail,
        "problems": gate.problems[:20],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.tracer is not None:
        result.tracer.write(RESULTS / f"{stem}.spans.json")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    for name, value in record["detail"].items():
        shown = ", ".join(f"{v:.4g}" for v in value) if isinstance(value, list) else f"{value:.6g}"
        print(f"  {name} = {shown}")
    print(f"  error_rate = {gate.error_rate:.6g} ({gate.failed} failed of {gate.attempted})")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
