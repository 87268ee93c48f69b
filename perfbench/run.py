"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep|serve_read|serve_churn \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It prints the environment stamp, every
metric by name, unit and sample count, and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` when ``--trace 0``, its per-layer metrics when
``--trace 1``.  A wrong answer counts as a failed operation.  ``--smoke``
shrinks the graph and the training for the benchmark's self-tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BenchmarkError,
    Metric,
    environment_stamp,
    load_spec,
    require_sources,
)

WORKLOADS = ("sweep", "serve_read", "serve_churn")
SMOKE = {"scale": 0.06, "encoder_epochs": 20}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graph and short training (self-tests only)")
    return parser.parse_args(argv)


def run_workload(args) -> dict:
    sizes = SMOKE if args.smoke else {}
    trace = bool(args.trace)
    if args.workload == "sweep":
        import sweep

        return sweep.run(args.seed, args.seconds, trace, **sizes)
    import serve

    return serve.run(args.workload, args.seed, args.seconds, trace, **sizes)


def select_metrics(declared: list[dict], measured: list[Metric]) -> list[Metric]:
    """The declared metrics in declaration order, units checked.  A layer
    the workload does not exercise reads 0."""
    by_name = {metric.name: metric for metric in measured}
    selected = []
    for spec in declared:
        metric = by_name.get(spec["name"])
        if metric is None:
            metric = Metric(spec["name"], 0.0, spec["unit"], 0,
                            "not exercised by this workload")
        if metric.unit != spec["unit"]:
            raise BenchmarkError(f"{metric.name}: measured in {metric.unit}, "
                                 f"declared in {spec['unit']}")
        selected.append(metric)
    return selected


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_sources()
        spec = load_spec()
        stamp = environment_stamp(args.seed)
        result = run_workload(args)
        key = "per_layer" if args.trace else "end_to_end"
        measured = result["layers"] if args.trace else result["end_to_end"]
        reported = select_metrics(spec[key], measured)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {why.get(args.workload, '')}")
    print("env " + json.dumps(stamp, sort_keys=True))
    traced = " (measured with tracing on)" if args.trace else ""
    sections = [("end-to-end" + traced, result["end_to_end"]),
                ("detail" + traced, result["detail"])]
    if args.trace:
        sections.append(("per-layer (traced run)", reported))
    for title, metrics in sections:
        print(f"{title}:")
        for metric in metrics:
            print(metric.line())
    print(f"operations: attempted={result['attempted']} failed={result['failed']}")
    for note in result["notes"][:20]:
        print(f"  failed: {note}")
    for remark in result.get("remarks", []):
        print(f"  passed within solver tolerance: {remark}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {metric.name: {"value": float(metric.value), "unit": metric.unit}
                    for metric in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
