"""sepkit benchmark: one workload per invocation, from the repository root.

    python3 benchmarks/run.py --workload {cli,scale-n,plan-m} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Inputs are generated from ``--seed`` under ``benchmarks/out/``. Passes over
the workload's operation list run until the next one would exceed
``--seconds`` of measured time; every output is checked between
operations, outside the timed sections.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of ``import sepkit.cli`` in fresh
  interpreters, probed between passes throughout the run;
* ``wall_s``: time to solution of one pass, the sum of the operations'
  latencies;
* ``op_p50_s`` and ``op_p90_s``: median and 90th percentile of the
  operations' latencies;
* ``peak_rss_mb``: maximum RSS of this process, or of its children for
  ``cli``, whose operations are child processes.

Every operation's input is the same on each pass, and its latency is the
median of its calls' times over the run (operations shorter than 5 ms are
called several times per pass). The times, and the import probes, are
scaled to reference speed by the calibrations around them (see
``calibration``); the raw times go to the result file, and the raw
``wall_s`` to the lines before the last.

``--trace 1`` alternates untraced and traced passes (``cli`` then runs its
commands in-process through ``sepkit.cli.main``) and reports per-layer self
times and counts per traced pass, the ``-X importtime`` split of the import,
the line count of ``src/`` and the tracing overhead. ``--smoke`` runs one
pass at small sizes. Sample counts, failures and checked refusals (see
``workloads.Refusal``) by name, and machine facts go
to ``benchmarks/out/`` and to the lines before the last; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import harness

# One import probe per this many seconds of measured time, taken between
# passes, so the setup_s samples span the whole run.
SETUP_PROBE_EVERY_S = 1.5
IMPORT_REPEATS = 5
SMOKE_REPEATS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "scale-n", "plan-m"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at small sizes")
    return parser.parse_args(argv)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, log, setup) -> tuple:
    latencies = [statistics.median(times) for times in log.op_scaled.values()]
    metrics = {
        "setup_s": _metric(statistics.median(scaled for _, scaled in setup), "s"),
        "wall_s": _metric(sum(latencies), "s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "op_p90_s": _metric(harness.p90(latencies), "s"),
        "peak_rss_mb": _metric(harness.peak_rss_mb(children=args.workload == "cli"), "MB"),
    }
    p90 = metrics["op_p90_s"]["value"]
    samples = {
        "setup_s": len(setup),
        "passes": len(log.walls),
        "operations": len(latencies),
        "operations_beyond_p90": sum(t > p90 for t in latencies),
    }
    return metrics, samples


def per_layer(args, env, log, tracer) -> tuple:
    traced = len(log.traced_walls)
    values = tracer.layer_metrics(traced)
    values.update(
        harness.import_breakdown(env, SMOKE_REPEATS if args.smoke else IMPORT_REPEATS)
    )
    values["src.lines"] = harness.src_lines()
    values["trace.overhead_s"] = (
        harness.median_pass(log.traced_op_times) - harness.median_pass(log.op_times)
    )
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    samples = {"untraced_passes": len(log.walls), "traced_passes": traced,
               "spans": len(tracer.spans)}
    return metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.configure()
    except FileNotFoundError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    trace = bool(args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    workload = workloads.build(
        args.workload, args.seed, harness.OUT / "inputs", smoke=args.smoke, in_process=trace
    )
    env = harness.child_env()
    harness.warm_imports(env)
    tracer = tracing.Tracer() if trace else None
    setup: list = []

    def probe(measured):
        if not trace:
            due = max(SMOKE_REPEATS, int(measured / SETUP_PROBE_EVERY_S)) - len(setup)
            setup.extend(harness.setup_seconds(env, max(due, 0)))

    log = harness.measure(workload.ops, args.seconds, single=args.smoke, tracer=tracer,
                          between=probe)
    if trace:
        metrics, samples = per_layer(args, env, log, tracer)
        tracer.write(harness.OUT / f"spans-{name}.jsonl")
    else:
        metrics, samples = end_to_end(args, log, setup)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "samples": samples,
        "ops_per_pass": len(workload.ops),
        "pass_walls": log.walls,
        "setup_samples": setup,
        "op_times": log.op_times,
        "op_scaled": log.op_scaled,
        "raw_wall_s": harness.median_pass(log.op_times),
        "traced_pass_walls": log.traced_walls,
        "failed_ratio": log.failed / log.attempted,
        "failures": dict(sorted(log.failures.items())),
        "refusals": dict(sorted(log.refusals.items())),
        "inputs": workload.inputs,
        "machine": harness.machine_facts(args.seed),
        "metrics": metrics,
    }
    (harness.OUT / f"result-{name}.json").write_text(json.dumps(detail, indent=2) + "\n")
    for key, metric in metrics.items():
        print(f"{args.workload:8} {key:38} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:8} {'raw wall_s (unscaled)':38} {detail['raw_wall_s']:>16.6g} s")
    print(f"{args.workload:8} {'failed_ratio':38} {detail['failed_ratio']:>16.6g} "
          f"({log.failed}/{log.attempted})")
    for failure, count in detail["failures"].items():
        print(f"{args.workload:8} failed x{count}: {failure}")
    for refusal, count in detail["refusals"].items():
        print(f"{args.workload:8} refused (checked) x{count}: {refusal}")
    print(json.dumps({"samples": samples}))
    print(json.dumps({
        "correct": log.mismatched == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
