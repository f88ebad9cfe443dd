"""Command-line front end.

Subcommands: classify, depolarize, distill, witness, threshold.
Reports go to stdout (JSON by default, ``--text`` for a summary),
diagnostics to stderr. Exit codes: 0 success, 2 invalid input, 3 requested
result not applicable (e.g. the pair is not distillable).

Each ``cmd_*`` returns (report, text lines, refusal) and ``main`` alone
writes them out; a refusal is the reason for exit 3, else None. A command
imports the classify, distill and witness modules it calls when it runs, so
a process loads no other.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, stateio, tensor
from .family import GhzWeights, depolarize, family_density, permute_weights
from .stateio import StateFileError, qubit_label

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3

DEPOLARIZED_NOTE = (
    "input was projected onto the diagonal family; the reported class is a "
    "sufficient condition for the input state (its own class is at most the "
    "reported one)"
)


def _load(args, command: str, tolerance: float) -> tuple[GhzWeights, dict]:
    """The input state's family weights and the shared report header."""
    state = stateio.load_state(args.input)
    return state.weights, {
        "tool_version": __version__,
        "command": command,
        "tolerance": tolerance,
        "n_qubits": state.weights.n_qubits,
        "depolarized": state.depolarized,
        "input_notes": list(state.notes),
    }


def _pair_labels(pair) -> list[str]:
    return [qubit_label(q) for q in sorted(pair)]


def _num(value, precision: int) -> str:
    """A float, or list of floats, for a text line, rounded as in the JSON report."""
    return repr(stateio.round_floats(value, precision))


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_classify(args) -> tuple[dict, list[str], str | None]:
    from . import classify as classify_mod

    w, report = _load(args, "classify", tensor.DEFAULT_PT_TOL)
    rep = classify_mod.classify_family(w)
    n = w.n_qubits
    report |= {
        "weights": stateio.weights_dict(w),
        "pt_positive": {
            qubit_label(q): rep.pt_positive[tensor.qubits_to_mask((q,), n)] for q in range(n)
        },
        "class": rep.class3,
        "biseparable_qubits": [qubit_label(q) for q in sorted(rep.biseparable_qubits)],
        "fully_separable": rep.fully_separable,
        "ghz_distillable": rep.ghz_distillable,
        "distillable_pairs": [_pair_labels(p) for p in sorted(rep.distillable_pairs)],
        "activation_hint": _pair_labels(rep.activation_hint) if rep.activation_hint else None,
    }
    if report["depolarized"]:
        report["note"] = DEPOLARIZED_NOTE
    if n != 3:
        report["ghz_distillable_note"] = (
            "criterion extended beyond three qubits: negative partial transpose "
            "for every bipartition"
        )
    lines = [
        f"state: {n} qubits"
        + (" (depolarized from matrix input)" if report["depolarized"] else ""),
        "PT positive: "
        + "  ".join(f"{lab}={_yesno(v)}" for lab, v in report["pt_positive"].items()),
        f"class: {rep.class3 if rep.class3 is not None else 'n/a (not 3 qubits)'}",
        f"fully separable: {_yesno(rep.fully_separable)}",
        f"GHZ distillable: {_yesno(rep.ghz_distillable)}",
        "distillable pairs: "
        + (", ".join("".join(p) for p in report["distillable_pairs"]) or "none"),
        "activation hint: "
        + ("".join(report["activation_hint"]) if report["activation_hint"] else "none"),
    ]
    return report, lines, None


def cmd_depolarize(args) -> tuple[dict, list[str], str | None]:
    w, report = _load(args, "depolarize", tensor.DEFAULT_PT_TOL)
    report["weights"] = stateio.weights_dict(w)
    if args.fmt != "text":  # the lambdas line lists every weight in Python
        return report, [], None
    lines = [
        f"n_qubits: {w.n_qubits}",
        f"lambda0_plus:  {_num(w.lambda0_plus, args.precision)}",
        f"lambda0_minus: {_num(w.lambda0_minus, args.precision)}",
        f"lambdas: {_num(w.lambdas.tolist(), args.precision)}",
        f"delta: {_num(w.delta, args.precision)}",
        f"basis flipped: {_yesno(w.basis_flipped)}",
    ]
    return report, lines, None


def cmd_threshold(args) -> tuple[dict, list[str], str | None]:
    # checked before 1 << (n - 1) is built; beyond max_exp it overflows a double
    if not 3 <= args.n <= sys.float_info.max_exp:
        raise StateFileError(f"threshold is computed for n >= 3 and n <= {sys.float_info.max_exp}")
    denominator = 1 + (1 << (args.n - 1))
    value = 1.0 / denominator
    report = {
        "tool_version": __version__,
        "command": "threshold",
        "n_qubits": args.n,
        "threshold_rational": f"1/{denominator}",
        "threshold_decimal": value,
        "statement": (
            "a maximally entangled state mixed with full noise is nonseparable "
            "and distillable exactly above this mixing weight"
        ),
    }
    return report, [f"1/{denominator} = {_num(value, args.precision)}"], None


def cmd_distill(args) -> tuple[dict, list[str], str | None]:
    from . import distill as distill_mod

    w, report = _load(args, "distill", tensor.DEFAULT_PT_TOL)
    tokens = args.pair.split(",")
    if len(tokens) != 2:
        raise StateFileError("--pair expects two qubits, e.g. B,C")
    i, k = (stateio.parse_qubit(t, w.n_qubits) for t in tokens)
    if i == k:
        raise StateFileError("--pair expects two distinct qubits")
    outcome = distill_mod.plan_pair_distillation(w, i, k, m=args.m)
    report["pair"] = _pair_labels((i, k))
    report["projected_qubit"] = qubit_label(3 - i - k)
    if outcome is None:
        report["distillable"] = False
        report["reason"] = (
            "a partial transpose separating the pair is positive; no filtering "
            "protocol can distill this pair"
        )
        return report, ["not distillable: " + report["reason"]], "pair is not distillable"
    report |= {
        "distillable": True,
        "m_used": outcome.m_used,
        "m_was_given": args.m is not None,
        "filtered_weights": stateio.weights_dict(outcome.filtered_weights),
        "filter_success_probability": outcome.filter_success_probability,
        "projection_success_probability": outcome.projection_success_probability,
        "pair_fidelity": outcome.pair_fidelity,
        "purifiable": outcome.purifiable,
    }
    lines = [
        f"pair: {','.join(report['pair'])} (projecting {report['projected_qubit']})",
        f"copies used: {outcome.m_used}",
        f"filter success probability: {_num(outcome.filter_success_probability, args.precision)}",
        f"pair fidelity after projection: {_num(outcome.pair_fidelity, args.precision)}",
        f"purifiable (exact fidelity > 1/2): {_yesno(outcome.purifiable)}",
    ]
    if args.oracle:
        if outcome.m_used <= distill_mod.DENSE_ORACLE_MAX_COPIES:
            relabeled = permute_weights(w, (3 - i - k, i, k))
            sigma, prob = distill_mod.dense_filter_oracle(relabeled, outcome.m_used)
            state_dev = float(np.abs(family_density(outcome.filtered_weights) - sigma).max())
            prob_dev = abs(prob - outcome.filter_success_probability)
            report["oracle"] = {
                "m": outcome.m_used,
                "state_max_abs_deviation": state_dev,
                "probability_abs_deviation": prob_dev,
            }
            lines.append(
                f"dense oracle deviation: state {state_dev:.3e}, probability {prob_dev:.3e}"
            )
        else:
            report["oracle"] = {
                "skipped": f"m={outcome.m_used} exceeds the dense-oracle cap "
                f"({distill_mod.DENSE_ORACLE_MAX_COPIES})"
            }
            lines.append("dense oracle skipped: copy count above cap")
    return report, lines, None


def cmd_witness(args) -> tuple[dict, list[str], str | None]:
    from . import classify as classify_mod
    from . import witness as witness_mod

    w, report = _load(args, "witness", args.tol)
    rho_tilde = witness_mod.build_rho_tilde(w)
    pt_a = tensor.partial_transpose(rho_tilde, tensor.qubits_to_mask((0,), 3))
    residual = float(np.abs(pt_a - rho_tilde).max())
    min_eig = tensor.min_eigenvalue(rho_tilde)
    rep = classify_mod.classify3(w)
    report["class"] = rep.class3
    report["rho_tilde"] = {
        "pt_invariance_residual": residual,
        "min_eigenvalue": min_eig,
        "positive_semidefinite": min_eig >= -args.tol,
        "delta_le_2lambda2": rep.pt_positive[tensor.qubits_to_mask((0,), 3)],
    }
    lines = [
        f"class: {rep.class3}",
        f"rho_tilde PT-invariance residual: {residual:.3e}",
        f"rho_tilde min eigenvalue: {_num(min_eig, args.precision)}",
    ]
    if rep.class3 != 5:
        report["ensemble"] = None
        report["ensemble_error"] = (
            f"state is in class {rep.class3}, not fully separable; "
            "no product ensemble exists"
        )
        lines.append("separable ensemble: not applicable (" + report["ensemble_error"] + ")")
        return report, lines, report["ensemble_error"] if args.ensemble_out else None
    ensemble = witness_mod.fully_separable_ensemble(w)
    hat = witness_mod.rho_hat_density(witness_mod.build_rho_hat(w))
    recon = witness_mod.verify_ensemble(ensemble, hat)
    wd = depolarize(hat)
    round_trip = max(
        abs(wd.lambda0_plus - w.lambda0_plus),
        abs(wd.lambda0_minus - w.lambda0_minus),
        float(np.abs(wd.lambdas - w.lambdas).max()),
    )
    records = stateio.ensemble_dict(ensemble)
    report["ensemble"] = {
        "term_count": len(ensemble.weights),
        "reconstruction_residual": recon,
        "depolarize_round_trip_max_error": round_trip,
        **records,
    }
    report["ensemble_error"] = None
    lines.append(
        f"separable ensemble: {len(ensemble.weights)} product terms, "
        f"reconstruction residual {recon:.3e}"
    )
    if args.ensemble_out:
        try:
            with open(args.ensemble_out, "w", encoding="utf-8") as fh:
                fh.write(stateio.dump_report(records, args.precision))
        except OSError as exc:
            raise StateFileError(f"cannot write {args.ensemble_out}: {exc.strerror}") from exc
        lines.append(f"ensemble written to {args.ensemble_out}")
    return report, lines, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Classify, witness and plan distillation for GHZ-diagonal states.",
    )
    parser.add_argument("--version", action="version", version=f"sepkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, with_input=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if with_input:
            sp.add_argument("--input", required=True, help="state file (JSON)")
        sp.add_argument(
            "--precision",
            type=int,
            default=17,
            help="significant digits for emitted floats (17 = exact round trip)",
        )
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--json", dest="fmt", action="store_const", const="json", default="json")
        group.add_argument("--text", dest="fmt", action="store_const", const="text")
        return sp

    command("classify", cmd_classify, "separability/distillability classification")
    command("depolarize", cmd_depolarize, "project a state onto the diagonal family")

    sp = command("distill", cmd_distill, "plan pair distillation via the multi-copy filter")
    sp.add_argument("--pair", required=True, help="target pair, e.g. B,C or 1,2")
    sp.add_argument("--m", type=int, default=None, help="copy count (default: minimal)")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the filtered state against the dense construction",
    )

    sp = command("witness", cmd_witness, "emit separability certificates")
    sp.add_argument(
        "--tol",
        type=float,
        default=tensor.DEFAULT_PT_TOL,
        help="positivity tolerance on the minimum eigenvalue of rho_tilde",
    )
    sp.add_argument(
        "--ensemble-out",
        default=None,
        help="also write the separable ensemble to this path (requires class 5)",
    )

    sp = command("threshold", cmd_threshold, "noise threshold of the example family", with_input=False)
    sp.add_argument("--n", type=int, required=True, help="number of qubits (>= 3)")

    return parser


def _check_options(args) -> None:
    """Reject option values no command can use, naming the option."""
    if args.precision < 1:
        raise ValueError(f"--precision must be at least 1, got {args.precision}")
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {tol!r}")
    m = getattr(args, "m", None)
    if m is not None and m < 1:
        raise ValueError(f"--m must be at least 1, got {m}")
    if m is not None and m > sys.float_info.max:
        raise ValueError(f"--m must be at most {sys.float_info.max!r}, the largest double")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        report, lines, refusal = args.func(args)
        # rendered inside the try: a report that is not JSON is an input error
        if args.fmt == "text":
            out = "\n".join(lines) + "\n"
        else:
            out = stateio.dump_report(report, args.precision)
    except ValueError as exc:  # StateFileError included
        print(f"sepkit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(out)
    if refusal is None:
        return EXIT_OK
    print(f"sepkit: {refusal}", file=sys.stderr)
    return EXIT_NOT_APPLICABLE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
