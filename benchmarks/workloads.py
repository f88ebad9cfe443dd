"""The benchmark's three workloads: operation lists, generated inputs, checks.

Each workload is a fixed list of operations. One pass runs every operation
once, in order; the harness times each call and checks its output outside
the timed section.

* ``cli``: whole ``python -m sepkit.cli`` processes on the ten golden
  commands plus one ``classify`` of a seeded dense 8-qubit mixed state
  (about 3 MB of JSON). It measures interpreter start, ``import sepkit.cli``,
  argument handling and state-file parsing; large-n algorithms barely show.
* ``scale-n``: in-process classify requests (build the state,
  ``classify_family``, the classify report, ``dump_report``) on the
  worst-case ``werner_like(n, 0.95)`` for n = 3..14, where every pair is
  distillable and nothing exits early, and on seeded ``random_weights(n)``
  for n = 3..20 (several fixed draws per n up to 16, one above), whose
  large-n cost sits in validation and serialization. This is where the
  2**n layers do their work.
* ``plan-m``: three-qubit planning and certificates: the threshold ladder
  ``werner_like(3, 1/5 + 10**-k)`` for k = 1..7, 200 seeded random states
  given the full witness/plan/oracle treatment, and one dense filter oracle
  at m = 4. The copy-count search, the dense oracle and the certificates
  work here and almost nowhere else.

Only the public modules of sepkit are called, through module attributes, so
that the tracer in ``tracing.py`` can wrap them.
"""

from __future__ import annotations

import contextlib
import decimal
import hashlib
import io
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import sepkit
from harness import CHILD_TIMEOUT_S, ROOT, PartialFailure, child_env
from sepkit import classify, distill, family, stateio, tensor, witness

STATES = ROOT / "cli_examples" / "states"
GOLDEN = ROOT / "cli_examples" / "golden"

# The golden commands of the acceptance suite: (golden report, argv,
# expected exit code). Pinned here so the workload does not change when the
# test suite does.
GOLDEN_RUNS = (
    ("classify_werner3_x030.json", ["classify", "--input", "werner3_x030.json"], 0),
    (
        "distill_werner3_x030_BC.json",
        ["distill", "--input", "werner3_x030.json", "--pair", "B,C", "--oracle"],
        0,
    ),
    ("classify_class2_rational.json", ["classify", "--input", "class2_rational.json"], 0),
    (
        "distill_class2_AC.json",
        ["distill", "--input", "class2_rational.json", "--pair", "A,C", "--oracle"],
        0,
    ),
    ("classify_werner3_x020.json", ["classify", "--input", "werner3_x020.json"], 0),
    ("witness_werner3_x020.json", ["witness", "--input", "werner3_x020.json"], 0),
    ("classify_ghz_matrix.json", ["classify", "--input", "ghz_matrix.json"], 0),
    ("witness_ghz_matrix.json", ["witness", "--input", "ghz_matrix.json"], 0),
    ("depolarize_ghz_matrix.json", ["depolarize", "--input", "ghz_matrix.json"], 0),
    ("threshold_n4.json", ["threshold", "--n", "4"], 0),
)

MATRIX_QUBITS = 8
WERNER_X = 0.95
WERNER_NS = range(3, 15)
RANDOM_NS = range(3, 21)
# Fixed seeded draws per random n. Up to n = 16 the classify cost depends on
# the draw (how soon each pair meets a positive bipartition: at n = 12 one
# draw in six took 76 ms, the others 4-6 ms), so several draws are kept:
# the median operation is a draw near n = 10, and over 30 seeds its latency
# spread (interquartile range over median) by 12 % with 7 draws per n and
# by 7 % with 10. Above n = 16 the cost is validating and serializing
# 2**(n-1) weights, which the draw barely moves (n = 20: six draws within
# 10 %), and one draw keeps a pass short enough for several passes per run.
RANDOM_DRAWS = 10
RANDOM_DRAWS_MAX_N = 16
LADDER_KS = range(1, 8)
# Random trios per pass, by three-qubit class. The class decides how much
# of the treatment runs (class 5 builds the product ensemble; every
# distillable pair is planned and cross-checked against the dense oracle),
# so a fixed mix keeps the work per pass the same across seeds. The shares
# are the natural frequencies of random_weights(3): 24.9, 25.1, 24.9 and
# 25.0 % of classes 1, 2, 3 and 5 over 100,000 draws.
RANDOM3_QUOTA = {1: 50, 2: 50, 3: 50, 5: 50}
SMOKE_RANDOM3_QUOTA = {1: 2, 2: 2, 3: 2, 5: 2}
ORACLE_M = 4
ORACLE_CHECK_MAX_M = 3
# Exact dense cross-checks of the verdicts stop here (127 eigen-solves of
# 256 x 256 at n = 8).
DENSE_CHECK_MAX_N = 8

# Random-number streams, so each input has its own stream under one seed.
STREAM_MATRIX, STREAM_SCALE, STREAM_RANDOM3, STREAM_ORACLE = 1, 2, 3, 4

WEIGHT_ATOL = 1e-12
ORACLE_ATOL = 1e-10
ENSEMBLE_ATOL = 1e-12
PT_RESIDUAL_ATOL = 1e-12
FIDELITY_ATOL = 1e-12
# ``purifiable`` is asserted where the exact fidelity margin exceeds this:
# a few doubles' resolution at 1/2 (about 5.6e-17). The one plan seen
# below it (seed 101, random trio 74, pair A,B: m* = 19, margin 7.7e-20)
# reports purifiable = false.
PURIFIABLE_MARGIN = 1e-15
PAIRS3 = ((0, 1), (0, 2), (1, 2))

# Documented refusals of plan_pair_distillation: the copy-count search passed
# distill.MINIMAL_M_CAP, or the filter success probability at m* is below
# tensor.DEGENERATE_PROBABILITY. Each is returned as a Refusal and checked
# against its stated condition in exact arithmetic (see _refusal_problems),
# so a refusal is a correct answer only where that condition holds. Looked
# up by name, so the benchmark still runs once the program drops either.
REFUSAL_ERRORS = tuple(
    getattr(module, name)
    for module, name in ((distill, "FilterCapReachedError"), (tensor, "DegenerateOutcomeError"))
    if hasattr(module, name)
)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.

    ``check`` receives what ``run`` returned and gives a list of mismatches
    (empty when the output is right). ``stage`` and ``params`` name the
    case in the per-case sweep.
    """

    name: str
    stage: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], list]
    # Documented refusals in the output, by name, for the run's report.
    notes: Callable[[object], list] = lambda output: []


@dataclass
class Workload:
    ops: list
    inputs: dict = field(default_factory=dict)


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------- cli


def _mask_version(text: str) -> str:
    return re.sub(r'"tool_version": "[^"]*"', '"tool_version": "*"', text)


def mixed_state(seed: int, n: int = MATRIX_QUBITS) -> np.ndarray:
    """Seeded full-rank (Wishart) density matrix, exactly Hermitian."""
    rng = _rng(seed, STREAM_MATRIX)
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / rho.trace().real


def expected_ghz_weights(rho: np.ndarray) -> dict:
    """GHZ-basis projection of ``rho`` computed directly with numpy.

    Builds every basis ket (|j>|0> +- |~j>|1>)/sqrt(2) as a column, takes
    the expectations, averages each j >= 1 pair and normalizes.
    """
    d = rho.shape[0]
    half = d // 2
    kets = np.zeros((d, d))
    for j in range(half):
        kets[2 * j, 2 * j] = kets[2 * j, 2 * j + 1] = 1.0
        kets[d - 1 - 2 * j, 2 * j] = 1.0
        kets[d - 1 - 2 * j, 2 * j + 1] = -1.0
    kets /= np.sqrt(2.0)
    expect = np.einsum("ai,ab,bi->i", kets, rho, kets).real
    plus, minus = expect[0], expect[1]
    flipped = bool(plus < minus)
    if flipped:
        plus, minus = minus, plus
    lams = (expect[2::2] + expect[3::2]) / 2.0
    total = plus + minus + 2.0 * lams.sum()
    return {
        "lambda0_plus": plus / total,
        "lambda0_minus": minus / total,
        "lambdas": lams / total,
        "delta": (plus - minus) / total,
        "basis_flipped": flipped,
    }


def _cli_runner(in_process: bool):
    """Run one sepkit command; returns (exit code, stdout bytes)."""
    if in_process:
        from sepkit import cli

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue().encode()

        return run
    env = child_env()

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sepkit.cli", *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            check=False,
            timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    return run


def cli_workload(seed: int, in_dir: Path, smoke: bool = False, in_process: bool = False):
    """Golden commands plus one seeded dense matrix classify.

    ``in_process`` runs the commands through ``sepkit.cli.main`` instead of
    child processes; the traced run uses it so spans can be recorded.
    """
    del smoke  # one pass of this list is already small
    run_cmd = _cli_runner(in_process)
    ops = []
    for golden, argv, code in GOLDEN_RUNS:
        argv = [str(STATES / a) if a.endswith(".json") else a for a in argv]
        want = _mask_version((GOLDEN / golden).read_text(encoding="utf-8"))

        def check(out, want=want, code=code, golden=golden):
            got_code, stdout = out
            problems = []
            if got_code != code:
                problems.append(f"exit code {got_code}, expected {code}")
            if _mask_version(stdout.decode()) != want:
                problems.append(f"stdout differs from golden {golden}")
            return problems

        ops.append(
            Op(f"cli.{golden[:-5]}", "cli.golden", {"golden": golden},
               lambda argv=argv: run_cmd(argv), check)
        )

    rho = mixed_state(seed)
    path = in_dir / f"mixed{MATRIX_QUBITS}-seed{seed}.json"
    doc = {"n_qubits": MATRIX_QUBITS, "matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    want = expected_ghz_weights(rho)

    def check_matrix(out):
        code, stdout = out
        if code != 0:
            return [f"exit code {code}, expected 0"]
        report = json.loads(stdout)
        problems = []
        if report.get("command") != "classify" or report.get("depolarized") is not True:
            problems.append("report is not a depolarized classify report")
        got = report["weights"]
        if got["basis_flipped"] != want["basis_flipped"]:
            problems.append("basis_flipped differs from the GHZ-basis expectation")
        for key in ("lambda0_plus", "lambda0_minus", "delta"):
            if abs(got[key] - want[key]) > WEIGHT_ATOL:
                problems.append(f"{key} differs from the GHZ-basis expectation")
        if np.abs(np.asarray(got["lambdas"]) - want["lambdas"]).max() > WEIGHT_ATOL:
            problems.append("lambdas differ from the GHZ-basis expectation")
        return problems

    argv = ["classify", "--input", str(path)]
    ops.append(
        Op(f"cli.classify_mixed{MATRIX_QUBITS}", "cli.matrix",
           {"n": MATRIX_QUBITS, "bytes": path.stat().st_size},
           lambda: run_cmd(argv), check_matrix)
    )
    inputs = {"files": [str(path.relative_to(ROOT))], "golden_states": str(STATES.relative_to(ROOT))}
    return Workload(ops, inputs)


# ---------------------------------------------------------------- scale-n


def _pt_label(mask: int, n: int) -> str:
    return "".join(stateio.qubit_label(q) for q in tensor.mask_to_qubits(mask, n))


def _pair_labels(pair) -> list:
    return [stateio.qubit_label(q) for q in sorted(pair)]


def classify_report(w, rep) -> dict:
    """The report ``sepkit classify`` prints for a weights input."""
    n = w.n_qubits
    report = {
        "tool_version": sepkit.__version__,
        "command": "classify",
        "tolerance": tensor.DEFAULT_PT_TOL,
        "n_qubits": n,
        "depolarized": False,
        "input_notes": [],
        "weights": stateio.weights_dict(w),
        "pt_positive": {
            _pt_label(mask, n): positive
            for mask, positive in sorted(rep.pt_positive.items(), reverse=True)
        },
        "class": rep.class3,
        "biseparable_qubits": [stateio.qubit_label(q) for q in sorted(rep.biseparable_qubits)],
        "fully_separable": rep.fully_separable,
        "ghz_distillable": rep.ghz_distillable,
        "distillable_pairs": [_pair_labels(p) for p in sorted(rep.distillable_pairs)],
        "activation_hint": _pair_labels(rep.activation_hint) if rep.activation_hint else None,
    }
    if n != 3:
        report["ghz_distillable_note"] = (
            "criterion extended beyond three qubits: negative partial transpose "
            "for every bipartition"
        )
    return report


def dense_verdicts(w) -> dict:
    """Verdicts from eigenvalues of every partial transpose of the dense state."""
    n = w.n_qubits
    rho = family.family_density(w)
    ppt = {2 * j: tensor.is_ppt(rho, 2 * j) for j in range(1, 1 << (n - 1))}
    full = (1 << n) - 1

    def even(mask):
        return mask if mask % 2 == 0 else full ^ mask

    singles = {1 << (n - 1 - q): ppt[even(1 << (n - 1 - q))] for q in range(n)}
    pairs = frozenset(
        (i, k)
        for i, k in combinations(range(n), 2)
        if not any(
            positive
            for mask, positive in ppt.items()
            if ((mask >> (n - 1 - i)) & 1) != ((mask >> (n - 1 - k)) & 1)
        )
    )
    return {
        "pt_positive": singles,
        "fully_separable": all(ppt.values()),
        "ghz_distillable": not any(ppt.values()),
        "distillable_pairs": pairs,
        "class3": {0: 1, 1: 2, 2: 3, 3: 5}[sum(singles.values())] if n == 3 else None,
    }


def _verdict_problems(rep, want: dict) -> list:
    got = {
        "pt_positive": dict(rep.pt_positive),
        "fully_separable": rep.fully_separable,
        "ghz_distillable": rep.ghz_distillable,
        "distillable_pairs": frozenset(rep.distillable_pairs),
        "class3": rep.class3,
    }
    return [f"{key} differs from the expected verdict" for key in want if got[key] != want[key]]


def _scale_op(name: str, stage: str, params: dict, build: Callable) -> Op:
    """``build()`` makes the state; it is the same on every pass.

    The first report is checked, later ones are compared with it by digest.
    """
    n = params["n"]
    first: list = []

    def run():
        w = build()
        rep = classify.classify_family(w)
        return w, rep, stateio.dump_report(classify_report(w, rep))

    def check(out):
        w, rep, text = out
        if first:
            return [] if first[0] == _digest(text) else ["report differs from the first pass"]
        if n <= DENSE_CHECK_MAX_N:
            problems = _verdict_problems(rep, dense_verdicts(w))
        elif stage == "scale-n.werner":
            problems = _verdict_problems(
                rep,
                {
                    "distillable_pairs": frozenset(combinations(range(n), 2)),
                    "fully_separable": False,
                    "ghz_distillable": True,
                },
            )
        else:
            problems = []
        if not problems:
            first.append(_digest(text))
        return problems

    return Op(name, stage, params, run, check)


def scale_workload(seed: int, in_dir: Path, smoke: bool = False, in_process: bool = False):
    """Werner states n = 3..14 and fixed seeded random draws for n = 3..20.

    Random draw d of n comes from the stream (seed, n, d) and is its own
    operation, so an operation's median time over the passes is a median
    over repeats of the same input.
    """
    del in_dir, in_process
    top = 6 if smoke else max(RANDOM_NS)
    ops = [
        _scale_op(f"scale-n.werner.n{n}", "scale-n.werner", {"n": n},
                  lambda n=n: family.werner_like(n, WERNER_X))
        for n in WERNER_NS if n <= top
    ]
    ops += [
        _scale_op(f"scale-n.random.n{n}.d{d}", "scale-n.random", {"n": n, "draw": d},
                  lambda n=n, d=d: family.random_weights(n, _rng(seed, STREAM_SCALE, n, d)))
        for n in RANDOM_NS if n <= top
        for d in range(RANDOM_DRAWS if n <= RANDOM_DRAWS_MAX_N else 1)
    ]
    inputs = {
        "werner_like": {"x": WERNER_X, "n": [op.params["n"] for op in ops if "werner" in op.name]},
        "random_weights": {"rng_seed": [seed, STREAM_SCALE, "n", "draw"],
                           "draws": [[op.params["n"], op.params["draw"]]
                                     for op in ops if "random" in op.name]},
    }
    return Workload(ops, inputs)


# ---------------------------------------------------------------- plan-m


def _exact():
    """60-digit Decimal context whose exponents cannot underflow at m = 10**6."""
    return decimal.localcontext(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


def fidelity_margin(rel, m: int) -> decimal.Decimal:
    """Exact pair fidelity minus 1/2 after filtering m copies, to 60 digits.

    With block = ((lambda0_plus + lambda0_minus)/2)**m and the weights in
    the projection frame, the margin is
    ((delta/2)**m - lambda_1**m - lambda_3**m) / (2 (block + sum lambda_k**m)),
    so it is positive exactly when the filter criterion holds.
    """
    D = decimal.Decimal
    with _exact():
        block = ((D(rel.lambda0_plus) + D(rel.lambda0_minus)) / 2) ** m
        lam1, lam2, lam3 = (D(x) ** m for x in rel.lambdas)
        coherence = (D(rel.delta) / 2) ** m
        return (coherence - lam1 - lam3) / (2 * (block + lam1 + lam2 + lam3))


def filter_probability(rel, m: int) -> decimal.Decimal:
    """Exact filter success probability 2 (block + sum lambda_k**m) at m copies."""
    D = decimal.Decimal
    with _exact():
        block = ((D(rel.lambda0_plus) + D(rel.lambda0_minus)) / 2) ** m
        return 2 * (block + sum(D(x) ** m for x in rel.lambdas))


def exact_minimal_m(rel, cap: int) -> int | None:
    """Least m <= cap with a positive exact margin, or None if there is none.

    The criterion is monotone in m, so galloping then bisection finds it.
    """
    if fidelity_margin(rel, cap) <= 0:
        return None
    hi = 1
    while fidelity_margin(rel, hi) <= 0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fidelity_margin(rel, mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def projection_frame(w, i: int, k: int):
    """Weights with the spectator qubit first, as the filter protocol uses them."""
    return family.permute_weights(w, (3 - i - k, i, k))


def _plan_problems(w, pair, plan) -> list:
    """m* is the least copy count meeting the criterion; the fidelity is exact.

    ``purifiable`` is asserted only where the exact margin exceeds
    PURIFIABLE_MARGIN: closer to 1/2 a double cannot tell the two sides apart.
    """
    rel = projection_frame(w, *pair)
    m = plan.m_used
    margin = fidelity_margin(rel, m)
    problems = []
    if margin <= 0:
        problems.append(f"pair {pair}: criterion fails at m*={m}")
    if m > 1 and fidelity_margin(rel, m - 1) > 0:
        problems.append(f"pair {pair}: criterion already holds at m*-1={m - 1}")
    if abs(plan.pair_fidelity - 0.5 - float(margin)) > FIDELITY_ATOL:
        problems.append(f"pair {pair}: pair fidelity differs from the exact value")
    if margin > PURIFIABLE_MARGIN and not plan.purifiable:
        problems.append(f"pair {pair}: plan at m*={m} is not purifiable")
    return problems


@dataclass(frozen=True)
class Refusal:
    """A documented error of plan_pair_distillation, kept as the operation's answer."""

    error: str
    message: str


def plan_pair(w, i: int, k: int):
    """``plan_pair_distillation``, with its documented refusals returned as a Refusal."""
    try:
        return distill.plan_pair_distillation(w, i, k)
    except REFUSAL_ERRORS as exc:
        return Refusal(type(exc).__name__, str(exc))


# A refusal for a low filter probability is accepted up to this relative
# distance above the cutoff: the program sums m-th powers in doubles.
PROBABILITY_RTOL = 1e-9


def _refusal_problems(w, pair, refusal: Refusal) -> list:
    """The refusal's stated condition holds for the exact weights.

    A cap refusal needs the criterion to fail at the cap; a degenerate
    outcome needs the exact filter probability at the exact m* to be below
    tensor.DEGENERATE_PROBABILITY.
    """
    rel = projection_frame(w, *pair)
    if refusal.error == "FilterCapReachedError":
        if fidelity_margin(rel, distill.MINIMAL_M_CAP) > 0:
            return [f"pair {pair}: cap reported, but the criterion holds at the cap"]
        return []
    if refusal.error == "DegenerateOutcomeError":
        m = exact_minimal_m(rel, distill.MINIMAL_M_CAP)
        limit = decimal.Decimal(tensor.DEGENERATE_PROBABILITY) * (1 + decimal.Decimal(PROBABILITY_RTOL))
        if m is None or filter_probability(rel, m) >= limit:
            return [f"pair {pair}: degenerate outcome reported, but the filter "
                    f"probability at m*={m} is not below the cutoff"]
        return []
    return [f"pair {pair}: unexpected refusal {refusal.error}"]


def _refusal_notes(plans: dict) -> list:
    return [
        f"pair {stateio.qubit_label(i)},{stateio.qubit_label(k)}: {plan.error}: {plan.message}"
        for (i, k), plan in plans.items()
        if isinstance(plan, Refusal)
    ]


def _oracle_problems(what: str, sigma, prob, weights, filter_prob) -> list:
    problems = []
    if np.abs(family.family_density(weights) - sigma).max() > ORACLE_ATOL:
        problems.append(f"{what}: dense oracle state differs from the closed form")
    if abs(prob - filter_prob) > ORACLE_ATOL:
        problems.append(f"{what}: dense oracle probability differs from the closed form")
    return problems


def _ladder_op(k: int) -> Op:
    def run():
        w = family.werner_like(3, 0.2 + 10.0**-k)
        return w, plan_pair(w, 1, 2)

    def check(out):
        w, plan = out
        if plan is None:
            return ["pair B,C reported not distillable above the threshold"]
        if isinstance(plan, Refusal):
            return _refusal_problems(w, (1, 2), plan)
        return _plan_problems(w, (1, 2), plan)

    return Op(f"plan-m.ladder.k{k}", "plan-m.ladder", {"k": k, "x": 0.2 + 10.0**-k}, run, check,
              lambda out: _refusal_notes({(1, 2): out[1]}))


def treat_state(w) -> dict:
    """Everything ``classify``, ``witness`` and ``distill --oracle`` compute for a trio.

    A pair plan is a DistillOutcome, None (not distillable) or a Refusal.
    Other planning errors are collected per pair so the remaining steps
    still run; they are raised together at the end as a PartialFailure.
    """
    out = {"w": w, "rep": classify.classify_family(w)}
    rho_tilde = witness.build_rho_tilde(w)
    mask_a = 1 << 2
    out["pt_residual"] = float(np.abs(tensor.partial_transpose(rho_tilde, mask_a) - rho_tilde).max())
    out["min_eig"] = tensor.min_eigenvalue(rho_tilde)
    if out["rep"].class3 == 5:
        ensemble = witness.fully_separable_ensemble(w)
        hat = witness.rho_hat_density(witness.build_rho_hat(w))
        out["recon"] = witness.verify_ensemble(ensemble, hat)
    out["plans"], out["oracles"] = {}, {}
    errors = []
    for i, k in PAIRS3:
        try:
            plan = plan_pair(w, i, k)
        except (ValueError, RuntimeError) as exc:
            errors.append(f"pair {stateio.qubit_label(i)},{stateio.qubit_label(k)}: "
                          f"{type(exc).__name__}: {exc}")
            continue
        out["plans"][(i, k)] = plan
        if isinstance(plan, distill.DistillOutcome) and plan.m_used <= ORACLE_CHECK_MAX_M:
            out["oracles"][(i, k)] = distill.dense_filter_oracle(projection_frame(w, i, k), plan.m_used)
    if errors:
        raise PartialFailure(errors, out)
    return out


def treatment_problems(out: dict) -> list:
    w, rep = out["w"], out["rep"]
    problems = _verdict_problems(rep, dense_verdicts(w))
    if out["pt_residual"] > PT_RESIDUAL_ATOL:
        problems.append("rho_tilde is not invariant under the partial transpose of A")
    boundary = w.delta - 2.0 * w.lambdas[1]
    if abs(boundary) > tensor.DEFAULT_PT_TOL and (out["min_eig"] >= -tensor.DEFAULT_PT_TOL) != (boundary < 0):
        problems.append("rho_tilde positivity disagrees with delta <= 2 lambda_2")
    if (rep.class3 == 5) != ("recon" in out):
        problems.append("ensemble built for a state outside class 5")
    if out.get("recon", 0.0) > ENSEMBLE_ATOL:
        problems.append(f"ensemble reconstruction residual {out['recon']:.3e}")
    for pair, plan in out["plans"].items():
        if (plan is None) != (pair not in rep.distillable_pairs):
            problems.append(f"pair {pair}: plan disagrees with the classification")
        elif isinstance(plan, Refusal):
            problems += _refusal_problems(w, pair, plan)
        elif plan is not None:
            problems += _plan_problems(w, pair, plan)
    for pair, (sigma, prob) in out["oracles"].items():
        plan = out["plans"][pair]
        problems += _oracle_problems(f"pair {pair}", sigma, prob,
                                     plan.filtered_weights, plan.filter_success_probability)
    return problems


def oracle_op(seed: int, m: int) -> Op:
    """One dense filter oracle at m copies, checked against ``amplify``."""
    def run():
        w = family.random_weights(3, _rng(seed, STREAM_ORACLE))
        return w, distill.dense_filter_oracle(w, m)

    def check(out):
        w, (sigma, prob) = out
        filtered, filter_prob = distill.amplify(w, m)
        return _oracle_problems(f"m={m}", sigma, prob, filtered, filter_prob)

    return Op(f"plan-m.oracle.m{m}", "plan-m.oracle", {"m": m,
              "bytes_computed": 16 * 8 ** (2 * m)}, run, check)


def stratified_trios(seed: int, quota: dict) -> list:
    """Stream indices of the first seeded random trios that fill each class quota."""
    left = dict(quota)
    chosen = []
    idx = 0
    while any(left.values()):
        cls = classify.classify3(family.random_weights(3, _rng(seed, STREAM_RANDOM3, idx))).class3
        if left[cls]:
            left[cls] -= 1
            chosen.append(idx)
        idx += 1
    return chosen


def plan_workload(seed: int, in_dir: Path, smoke: bool = False, in_process: bool = False):
    del in_dir, in_process
    ks = [k for k in LADDER_KS if not smoke or k <= 3]
    ops = [_ladder_op(k) for k in ks]
    chosen = stratified_trios(seed, SMOKE_RANDOM3_QUOTA if smoke else RANDOM3_QUOTA)
    for idx in chosen:
        ops.append(
            Op(f"plan-m.random.{idx}", "plan-m.random", {"index": idx},
               lambda idx=idx: treat_state(family.random_weights(3, _rng(seed, STREAM_RANDOM3, idx))),
               treatment_problems, lambda out: _refusal_notes(out["plans"]))
        )
    ops.append(oracle_op(seed, 2 if smoke else ORACLE_M))
    inputs = {
        "ladder": {"x": "1/5 + 10**-k", "k": ks, "pair": "B,C"},
        "random_weights": {"rng_seed": [seed, STREAM_RANDOM3, "index"], "index": chosen,
                           "class_quota": SMOKE_RANDOM3_QUOTA if smoke else RANDOM3_QUOTA},
        "oracle": {"rng_seed": [seed, STREAM_ORACLE], "m": ops[-1].params["m"]},
    }
    return Workload(ops, inputs)


WORKLOAD_FACTORIES = {"cli": cli_workload, "scale-n": scale_workload, "plan-m": plan_workload}


def build(name: str, seed: int, in_dir: Path, smoke: bool = False, in_process: bool = False):
    in_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOAD_FACTORIES[name](seed, in_dir, smoke=smoke, in_process=in_process)
