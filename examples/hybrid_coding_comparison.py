#!/usr/bin/env python
"""Compare hybrid neural coding schemes on a CIFAR-10-like CNN workload.

This is the scenario the paper's Table 1 and Fig. 4 study: one trained
network, evaluated as an SNN under different input/hidden coding
combinations.  The script prints a Table-1-style summary plus coarse
inference curves, showing that

* burst coding in the hidden layers recovers the DNN accuracy for every
  input coding,
* phase coding in the hidden layers costs the most spikes,
* rate coding of the input (Poisson spike trains) converges slowest.

It also demonstrates the two extension points added by the layered engine:

* schemes are resolved through the **coding registry** — the comparison
  includes ``ttfs-burst``, whose TTFS input encoder is registered in one
  file (``repro/snn/ttfs.py``) and known to no other call site,
* batches are served through a reusable **InferenceSession** (prepare once,
  serve many batches) — the same engine path the pipeline uses internally.

Run with:  python examples/hybrid_coding_comparison.py [--full]
Runtime:   ~1 minute with the default settings, a few minutes with --full
           (all nine combinations and a longer time budget).
"""

import argparse

from repro import (
    HybridCodingScheme,
    InferenceSession,
    PipelineConfig,
    SimulationConfig,
    SNNInferencePipeline,
    table1_schemes,
)
from repro.core import registry
from repro.experiments.workloads import cifar10_workload
from repro.utils.tables import Table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run all nine coding combinations")
    parser.add_argument("--time-steps", type=int, default=150, help="simulation horizon")
    parser.add_argument("--images", type=int, default=24, help="number of test images")
    parser.add_argument("--v-th", type=float, default=0.125, help="burst base threshold")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    workload = cifar10_workload()
    print(f"workload: {workload.name}, DNN test accuracy {workload.dnn_test_accuracy:.3f}")
    print(
        f"registered codings: input = {', '.join(registry.input_codings())} ; "
        f"hidden = {', '.join(registry.hidden_codings())}"
    )

    if args.full:
        schemes = table1_schemes(v_th=args.v_th)
    else:
        schemes = [
            HybridCodingScheme.from_notation(
                notation, v_th=args.v_th if "burst" in notation else None
            )
            for notation in (
                "real-rate", "phase-phase", "real-burst", "phase-burst", "rate-burst",
            )
        ]
    # the TTFS input coding exists only in the registry — no enum edits, no
    # make_encoder branches — yet builds a scheme like any built-in
    schemes.append(HybridCodingScheme.from_notation("ttfs-burst", v_th=args.v_th))

    pipeline = SNNInferencePipeline(
        workload.model,
        workload.data,
        PipelineConfig(time_steps=args.time_steps, batch_size=16, max_test_images=args.images),
    )

    table = Table(
        ["scheme", "SNN acc %", "DNN acc %", "latency", "spikes/image"],
        title="Hybrid coding comparison (Table 1 style)",
    )
    curves = {}
    for scheme in schemes:
        run = pipeline.run_scheme(scheme)
        metrics = run.metrics(target_accuracy=run.dnn_accuracy)
        table.add_row(
            {
                "scheme": scheme.notation,
                "SNN acc %": round(run.accuracy * 100, 2),
                "DNN acc %": round(run.dnn_accuracy * 100, 2),
                "latency": metrics.latency if metrics.latency else f">{run.time_steps}",
                "spikes/image": round(run.spikes_per_image, 1),
            }
        )
        curves[scheme.notation] = (run.recorded_steps, run.accuracy_curve)

    print()
    print(table.render())

    print("\nInference curves (accuracy at selected time steps):")
    checkpoints = [args.time_steps // 10, args.time_steps // 4, args.time_steps // 2, args.time_steps]
    header = "scheme".ljust(14) + "".join(f"t={c}".rjust(10) for c in checkpoints)
    print(header)
    for notation, (steps, accuracy) in curves.items():
        cells = []
        for checkpoint in checkpoints:
            index = int(min(range(len(steps)), key=lambda i: abs(int(steps[i]) - checkpoint)))
            cells.append(f"{accuracy[index]:.3f}".rjust(10))
        print(notation.ljust(14) + "".join(cells))

    # Serving workflow: one InferenceSession per deployed scheme — the
    # conversion, simulation plan and kernel plans are built once and every
    # subsequent request only runs the step loop.
    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=args.v_th)
    session = InferenceSession(
        pipeline.build_snn(scheme), SimulationConfig(time_steps=args.time_steps)
    )
    x = workload.data.test.x[: args.images]
    y = workload.data.test.y[: args.images]
    half = max(1, x.shape[0] // 2)
    correct = 0
    for start in range(0, x.shape[0], half):
        result = session.run(x[start : start + half], labels=y[start : start + half])
        correct += int((result.predictions() == y[start : start + half]).sum())
    print(
        f"\nInferenceSession({scheme.notation}): served {session.images_served} images "
        f"in {session.batches_served} batches, accuracy {correct / x.shape[0]:.3f}"
    )


if __name__ == "__main__":
    main()
