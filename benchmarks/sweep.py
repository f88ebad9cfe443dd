"""Per-case sweep records: {stage, params, median_s, p90_s, peak_rss_mb}.

    python3 benchmarks/sweep.py --seed N [--out PATH]

Cases: every n of the ``scale-n`` workload (Werner-like and random), every
k of the ``plan-m`` threshold ladder and the dense filter oracle at
m = 1..4; each random draw of ``scale-n`` is a case of its own. Each case
runs REPEATS times (raw wall times, not scaled by the calibration used by
``run.py``) in a child interpreter of its own, so its peak RSS is
its own (interpreter and imports included; ``rss_before_mb`` is that
floor). Records are written with the machine facts to ``--out`` (default
``benchmarks/out/sweep-seed<N>.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import harness

ORACLE_MS = range(1, 5)
REPEATS = 5


def cases(workloads, seed: int) -> list:
    scale = workloads.build("scale-n", seed, harness.OUT / "inputs").ops
    ladder = [op for op in workloads.build("plan-m", seed, harness.OUT / "inputs").ops
              if op.stage == "plan-m.ladder"]
    return scale + ladder + [workloads.oracle_op(seed, m) for m in ORACLE_MS]


def run_case(op) -> dict:
    rss_before = harness.peak_rss_mb(children=False)
    times, error, problems, refusals = [], None, [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # the case failed; its time to failure is still recorded
            output, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if output is not None and not problems:
            problems = op.check(output)
            refusals = op.notes(output)
    return {
        "stage": op.stage,
        "params": op.params,
        "median_s": statistics.median(times),
        "p90_s": harness.p90(times),
        "peak_rss_mb": harness.peak_rss_mb(children=False),
        "rss_before_mb": rss_before,
        "repeats": REPEATS,
        "error": error,
        "mismatches": problems,
        "refusals": refusals,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument("--case", default=None, help=argparse.SUPPRESS)  # child mode
    args = parser.parse_args(argv)
    try:
        harness.configure()
    except FileNotFoundError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    import workloads

    all_cases = cases(workloads, args.seed)
    if args.case is not None:
        op = next(op for op in all_cases if op.name == args.case)
        print(json.dumps(run_case(op)))
        return 0

    records = []
    for op in all_cases:
        child = subprocess.run(
            [sys.executable, __file__, "--seed", str(args.seed), "--case", op.name],
            env=harness.child_env(), capture_output=True, text=True, check=True,
        )
        record = json.loads(child.stdout.splitlines()[-1])
        records.append(record)
        print(f"{op.name:28} median {record['median_s']:10.6f} s  p90 {record['p90_s']:10.6f} s  "
              f"peak {record['peak_rss_mb']:8.1f} MB  {record['error'] or ''}", flush=True)
    out = args.out or str(harness.OUT / f"sweep-seed{args.seed}.json")
    doc = {"machine": harness.machine_facts(args.seed), "repeats": REPEATS, "records": records}
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
