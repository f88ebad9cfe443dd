"""Measurement machinery shared by ``run.py`` and ``sweep.py``.

Load is a closed loop with one client: each operation starts only after the
previous one has finished, so the load is one thread. BLAS is pinned to
one thread as well: on the two-core machine the benchmark was defined on,
a second BLAS thread made the dense oracle faster when the machine was
quiet but far slower whenever another process wanted a core.
``configure`` sets this before numpy is first imported, and child
interpreters inherit it. It also pins the benchmark and its children to
one CPU, so that the calibrations and the work they scale run on the same
core: the cores of a shared machine are slowed by other tenants unequally.

Timed calls are scaled to reference speed by the calibrations around them
(see ``calibration``). Short operations share a calibration bracket (see
WINDOW_SECONDS). Raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Operations shorter than this are repeated within a pass until their calls
# add up to it, so that short operations get enough samples for a steady
# median. A failed call ends the repeats.
BATCH_SECONDS = 0.005
# Consecutive operations share one calibration bracket until their calls
# add up to this; the machine's speed barely moves within it, and the
# brackets then cost little next to the measured time.
WINDOW_SECONDS = 0.025

# A child interpreter that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 60

# Calibrates itself around the import, on whichever core it runs; only
# ``calibration`` (which imports nothing new) is loaded before sepkit.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import calibration; "
    "before = calibration.seconds(); t = time.perf_counter(); import sepkit.cli; "
    "t = time.perf_counter() - t; print(t, calibration.factor(before, calibration.seconds()))"
)


class PartialFailure(Exception):
    """Some steps of an operation raised; the rest ran and are checked."""

    def __init__(self, errors: list, output):
        super().__init__("; ".join(errors))
        self.errors = errors
        self.output = output


def configure() -> None:
    """Pin BLAS threads and put the sources on the path; call before numpy loads.

    Raises FileNotFoundError when the checkout holds no sepkit sources.
    """
    if not (SRC / "sepkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no sepkit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: sources on the path, same threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def p90(values) -> float:
    """90th percentile (exclusive method); a single sample is its own p90."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def _child(args: list, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=CHILD_TIMEOUT_S,
    )


def warm_imports(env: dict) -> None:
    """Import once untimed, which compiles the bytecode caches users do not pay for each run."""
    _child(["-c", "import sepkit.cli"], env)


def setup_seconds(env: dict, repeats: int) -> list:
    """(raw, scaled) wall time of ``import sepkit.cli`` in ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        seconds, factor = map(float, _child(["-c", IMPORT_PROBE, str(BENCH)], env).stdout.split())
        samples.append((seconds, seconds * factor))
    return samples


def import_breakdown(env: dict, repeats: int) -> dict:
    """Median numpy (cumulative) and sepkit (own modules' self) import time.

    Parsed from ``python -X importtime``; the stdlib modules sepkit pulls in
    are in neither figure.
    """
    numpy_s, sepkit_s = [], []
    for _ in range(repeats):
        stderr = _child(["-X", "importtime", "-c", "import sepkit.cli"], env).stderr
        numpy_us = own_us = 0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
            if not self_us.isdigit():
                continue
            if name == "numpy":
                numpy_us = int(cumulative_us)
            elif name == "sepkit" or name.startswith("sepkit."):
                own_us += int(self_us)
        numpy_s.append(numpy_us / 1e6)
        sepkit_s.append(own_us / 1e6)
    return {
        "cli.import.numpy_s": statistics.median(numpy_s),
        "cli.import.sepkit_s": statistics.median(sepkit_s),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(path.read_text(encoding="utf-8").count("\n") for path in sorted(SRC.rglob("*.py")))


def _caches() -> dict:
    """Total size per cache level, summed over distinct cache instances."""
    seen = {}
    for index in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            seen[(level, kind, shared)] = int(size[:-1])
    totals = Counter()
    for (level, _, _), kib in seen.items():
        totals[f"L{level}"] += kib
    return {level: f"{kib / 1024:g} MiB" for level, kib in sorted(totals.items())}


def machine_facts(seed: int) -> dict:
    import numpy

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "load": "closed loop, one client, one operation at a time",
        "seed": seed,
    }


@dataclass
class Log:
    """Everything one measurement run observed."""

    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    op_times: defaultdict = field(default_factory=lambda: defaultdict(list))
    op_scaled: defaultdict = field(default_factory=lambda: defaultdict(list))
    traced_op_times: defaultdict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    failures: Counter = field(default_factory=Counter)
    refusals: Counter = field(default_factory=Counter)


def _run_once(op, tracer, label: str) -> tuple:
    """Time one call of ``op.run``; returns (seconds, errors, output)."""
    errors, output = [], None
    if tracer is not None:
        tracer.op_id = f"{label}:{op.name}"
        tracer.active = True
    start = time.perf_counter()
    try:
        output = op.run()
    except PartialFailure as exc:
        errors, output = exc.errors, exc.output
    except Exception as exc:  # a failed operation is recorded; the run goes on
        errors = [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return elapsed, errors, output


def _record(log: Log, op, samples: list, factor: float, traced: bool) -> None:
    """Book one operation's calls: times, failures and (untimed) checks."""
    for elapsed, errors, output in samples:
        if traced:
            log.traced_op_times[op.name].append(elapsed)
        else:
            log.op_times[op.name].append(elapsed)
            log.op_scaled[op.name].append(elapsed * factor)
        mismatches = []
        if output is not None:
            try:
                mismatches = op.check(output)
            except Exception as exc:  # a check that cannot run is a mismatch
                mismatches = [f"check raised {type(exc).__name__}: {exc}"]
            for note in op.notes(output):
                log.refusals[f"{op.name}: {note}"] += 1
        log.attempted += 1
        if errors or mismatches:
            log.failed += 1
        if mismatches:
            log.mismatched += 1
        for reason in errors + [f"mismatch: {m}" for m in mismatches]:
            log.failures[f"{op.name}: {reason}"] += 1


def run_pass(ops, log: Log, tracer=None, label: str = "") -> float:
    """Run every operation; returns the summed raw operation time.

    Untraced, an operation runs back to back until its calls have taken
    BATCH_SECONDS or one has failed; traced, it runs once, so that the
    per-layer figures are per pass. Operations run inside a calibration
    bracket, which closes once their calls have taken WINDOW_SECONDS; then
    their outputs are checked, untimed.
    """
    total = 0.0
    window: list = []
    gc.collect()
    for index, op in enumerate(ops):
        if not window:
            before = calibration.seconds()
        batch = [_run_once(op, tracer, label)]
        while (tracer is None and not batch[-1][1]
               and sum(elapsed for elapsed, _, _ in batch) < BATCH_SECONDS):
            batch.append(_run_once(op, tracer, label))
        window.append((op, batch))
        spent = sum(elapsed for _, calls in window for elapsed, _, _ in calls)
        if spent >= WINDOW_SECONDS or index == len(ops) - 1:
            factor = calibration.factor(before, calibration.seconds())
            for done, calls in window:
                _record(log, done, calls, factor, tracer is not None)
            total += spent
            window = []
    return total


def median_pass(op_times: dict) -> float:
    """Sum over the operations of each one's median time: a typical pass."""
    return sum(statistics.median(times) for times in op_times.values())


def measure(ops, seconds: float, single: bool, tracer=None, between=None) -> Log:
    """Run passes until the next one would exceed ``seconds`` of measured time.

    With a tracer, passes alternate untraced and traced (at least one of
    each), so that the two kinds of pass give the tracing overhead. ``single`` stops
    after the minimum number of passes. ``between(measured)`` runs after
    each pass, outside the measured time.
    """
    log = Log()
    measured = 0.0
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            wall = run_pass(ops, log, tracer if traced else None, label=str(index))
        finally:
            if traced:
                tracer.uninstall()
        (log.traced_walls if traced else log.walls).append(wall)
        measured += wall
        index += 1
        if between is not None:
            between(measured)
        if tracer is not None and index < 2:
            continue
        if single or measured + wall > seconds:
            return log
