"""The repository benchmark: two workloads behind one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vgg-early-exit --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics.  The metric names,
units and workloads are read from ``BENCHMARK.json``; ``perfbench/SPEC.md``
defines each of them.  A human-readable report goes to standard output,
followed by one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
The full result row (machine fingerprint, counts, metrics and, for traced
runs, the spans and the kernel choices) is written to ``.bench_out/``.

The program runs with its defaults: nothing here sets a thread count, a
dtype, a backend or a ``REPRO_*`` variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

OFFLINE = "vgg-early-exit"
SERVING = "mlp-serve"


def _absent(name: str, workload: str, layers: List[str]) -> bool:
    """Per-layer metrics of a layer this workload does not have read 0."""
    if name.startswith("serving."):
        return workload != SERVING
    if name.startswith("snn."):
        layer = name.split(".")[1]
        return layer not in ("encoder", "input") and layer not in layers
    return False


def _collect(declared: List[dict], outcome, workload: str, layers: List[str]) -> Dict[str, dict]:
    metrics: Dict[str, dict] = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, produced_unit = outcome.metrics[name]
            if produced_unit != unit:
                raise SystemExit(f"{name}: produced in {produced_unit}, declared in {unit}")
        elif _absent(name, workload, layers):
            value = 0.0
        else:
            raise SystemExit(f"{workload} did not produce {name}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    from common import clock, fingerprint, write_row

    started = clock()
    tracer = None
    layers: List[str] = []
    if args.workload == OFFLINE:
        import workload_offline as module

        if args.trace:
            outcome, tracer, layers = module.run_traced(args.seed)
        else:
            outcome = module.run_untraced(args.seed, args.seconds)
    else:
        import workload_serving as module

        if args.trace:
            outcome, tracer, layers = module.run_traced(args.seed)
        else:
            # the ladder's fixed schedule sets the length of a serving run
            outcome = module.run_untraced(root, args.seed)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = _collect(declared, outcome, args.workload, layers)
    correct = outcome.attempted >= 1 and outcome.failed == 0
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(root),
        "attempted": outcome.attempted,
        "succeeded": outcome.attempted - outcome.failed,
        "failed": outcome.failed,
        "metrics": metrics,
        "wall_s": clock() - started,
        "detail": outcome.detail,
    }
    if tracer is not None:
        row["spans"] = tracer.to_json()
    path = write_row(root, f"{args.workload}-seed{args.seed}-trace{args.trace}.json", row)

    fp = row["fingerprint"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rev={fp['git_rev']} "
          f"src={fp['src_sha256']} cpu={fp['cpu_model']!r} nproc={fp['nproc']} "
          f"python={fp['python']} numpy={fp['numpy']} blas={fp['blas']} "
          f"blas_threads={fp['blas_threads']} env={fp['env']}")
    print(f"# attempted={outcome.attempted} succeeded={row['succeeded']} "
          f"failed={outcome.failed} wall={row['wall_s']:.1f}s row={path.relative_to(root)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
