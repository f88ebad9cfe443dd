import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import basis_ket
from sepkit import ghz_ket, werner_like
from sepkit import tensor
from sepkit.cli import main

STATES = Path(__file__).resolve().parent.parent / "cli_examples" / "states"


def write_weights(path, w):
    doc = {
        "n_qubits": w.n_qubits,
        "weights": {
            "lambda0_plus": w.lambda0_plus,
            "lambda0_minus": w.lambda0_minus,
            "lambdas": list(w.lambdas),
            "delta": w.delta,
        },
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_matrix(path, rho, n):
    doc = {"n_qubits": n, "matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_threshold_values(capsys):
    for n, rational, decimal in ((3, "1/5", 0.2), (4, "1/9", 1 / 9), (5, "1/17", 1 / 17)):
        code, doc, _ = run_json(capsys, "threshold", "--n", str(n))
        assert code == 0
        assert doc["threshold_rational"] == rational
        assert doc["threshold_decimal"] == pytest.approx(decimal, abs=1e-15)


def test_threshold_rejects_small_n(capsys):
    code, out, err = run(capsys, "threshold", "--n", "2")
    assert code == 2
    assert out == ""
    assert "n >= 3" in err


def test_threshold_largest_n(capsys):
    code, doc, _ = run_json(capsys, "threshold", "--n", "1024")
    assert code == 0
    assert doc["threshold_decimal"] == 2.0**-1023
    # 2**(n-1) no longer fits in a double: rejected before it is built
    for n in ("1025", "100000"):
        code, out, err = run(capsys, "threshold", "--n", n)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "n <= 1024" in err


@pytest.mark.parametrize("n", [100_000, 10**10])
def test_huge_n_qubits_rejected_before_any_shift(capsys, tmp_path, n):
    weights = {"lambda0_plus": 0.6, "lambda0_minus": 0.0, "lambdas": [0.1, 0.05, 0.05]}
    matrix = {"re": [[0.5, 0.0], [0.0, 0.5]]}
    cases = (
        ("weights", weights, f"expected 2**{n - 1} - 1 pair weights, got shape (3,)"),
        ("matrix", matrix, f"matrix dimension 2 does not match n_qubits={n}"),
    )
    for key, body, diagnostic in cases:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"n_qubits": n, key: body}), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", "--input", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and diagnostic in err


def test_classify_weights_file(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.21))
    code, doc, _ = run_json(capsys, "classify", "--input", path)
    assert code == 0
    assert doc["class"] == 1
    assert doc["ghz_distillable"] is True
    assert doc["depolarized"] is False
    assert doc["pt_positive"] == {"A": False, "B": False, "C": False}
    assert doc["distillable_pairs"] == [["A", "B"], ["A", "C"], ["B", "C"]]


def test_classify_matrix_input_is_depolarized(capsys, tmp_path):
    rho = tensor.density_of(ghz_ket(3, 0, 1))
    path = write_matrix(tmp_path / "m.json", rho, 3)
    code, doc, _ = run_json(capsys, "classify", "--input", path)
    assert code == 0
    assert doc["depolarized"] is True
    assert doc["class"] == 1
    assert "sufficient condition" in doc["note"]
    assert doc["weights"]["lambda0_plus"] == pytest.approx(1.0, abs=1e-14)


def test_classify_rejects_bad_input(capsys, tmp_path):
    code, out, err = run(capsys, "classify", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("sepkit:")

    rho = tensor.density_of(ghz_ket(3, 0, 1)).copy()
    rho[0, 1] = 0.3  # not Hermitian
    path = write_matrix(tmp_path / "bad.json", rho, 3)
    code, out, err = run(capsys, "classify", "--input", path)
    assert code == 2


@pytest.mark.parametrize(
    "body",
    [b'{"n_qubits": ' + b"7" * 5000 + b', "weights": {}}', b'{"n_qubits": 3, "weights": "\xff"}'],
    ids=["5000-digit-integer", "not-utf8"],
)
def test_undecodable_file_named_in_one_line(capsys, tmp_path, body):
    path = tmp_path / "s.json"
    path.write_bytes(body)
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"sepkit: {path} is not valid JSON: ")


PURE00 = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize(
    "matrix,field",
    [
        ({"re": [[x == 1 for x in row] for row in PURE00]}, "matrix.re"),
        ({"re": [["0.25" if i == k else "0" for k in range(4)] for i in range(4)]}, "matrix.re"),
        ({"re": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, False], [0, 0, False, 0]]}, "matrix.re"),
        ({"re": PURE00, "im": [[0, 0, 0, 0]] * 3 + [[0, 0, 0, False]]}, "matrix.im"),
        ({"re": PURE00, "im": [["0"] * 4] * 4}, "matrix.im"),
    ],
    ids=["booleans", "strings", "int-bool-mix", "im-boolean", "im-strings"],
)
def test_matrix_rejects_boolean_and_string_entries(capsys, tmp_path, matrix, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n_qubits": 2, "matrix": matrix}), encoding="utf-8")
    code, out, err = run(capsys, "classify", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and field in err


def test_rational_tie_reads_positive(capsys, tmp_path):
    # delta = 7/24 - 17/168 = 4/21 = 2 * lambda_1 exactly
    weights = {"lambda0_plus": "7/24", "lambda0_minus": "17/168", "lambdas": ["2/21", "1/8", "1/12"]}
    path = tmp_path / "tie.json"
    path.write_text(json.dumps({"n_qubits": 3, "weights": weights}), encoding="utf-8")
    code, doc, _ = run_json(capsys, "classify", "--input", str(path))
    assert code == 0
    assert doc["weights"]["delta"] == 2 * doc["weights"]["lambdas"][0]
    assert doc["pt_positive"] == {"A": True, "B": True, "C": False}
    assert doc["class"] == 3


def test_classify_text_mode(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.19))
    code, out, err = run(capsys, "classify", "--input", path, "--text")
    assert code == 0
    assert "class: 5" in out
    assert "fully separable: yes" in out


NAN, INF = float("nan"), float("inf")
WERNER03 = {"lambda0_plus": 0.3875, "lambda0_minus": 0.0875, "lambdas": [0.0875] * 3}
MIXED8 = (np.eye(8) / 8).tolist()


@pytest.mark.parametrize(
    "doc",
    [
        {"n_qubits": 3, "weights": {**WERNER03, "lambda0_plus": NAN}},
        {"n_qubits": 3, "weights": {**WERNER03, "lambdas": [0.0875, INF, 0.0875]}},
        {"n_qubits": 3, "weights": {**WERNER03, "delta": NAN}},
        {"n_qubits": 3, "matrix": {"re": MIXED8, "im": [[0.0] * 7 + [NAN]] + [[0.0] * 8] * 7}},
    ],
    ids=["nan-weight", "infinity", "nan-delta", "nan-matrix"],
)
def test_rejects_non_finite_numbers(capsys, tmp_path, doc):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("classify", "distill --pair B,C", "witness"):
        code, out, err = run(capsys, *command.split(), "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("sepkit:")


def test_tol_only_on_witness(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.2))
    code, doc, _ = run_json(capsys, "witness", "--input", path, "--tol", "1e-6")
    assert code == 0
    assert doc["tolerance"] == 1e-6
    for argv in (["threshold", "--n", "4"], ["classify", "--input", path]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "5"])
        assert exc.value.code == 2
    code, doc, _ = run_json(capsys, "classify", "--input", path)
    assert doc["tolerance"] == tensor.DEFAULT_PT_TOL


def test_depolarize_matrix(capsys, tmp_path):
    path = write_matrix(tmp_path / "m.json", tensor.density_of(basis_ket(3, 0)), 3)
    code, doc, _ = run_json(capsys, "depolarize", "--input", path)
    assert code == 0
    assert doc["weights"]["lambda0_plus"] == pytest.approx(0.5, abs=1e-14)
    assert doc["weights"]["lambda0_minus"] == pytest.approx(0.5, abs=1e-14)
    assert doc["weights"]["basis_flipped"] is False


def test_distill_werner_03(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.3))
    code, doc, _ = run_json(
        capsys, "distill", "--input", path, "--pair", "B,C", "--oracle"
    )
    assert code == 0
    assert doc["distillable"] is True
    assert doc["m_used"] == 2
    assert doc["purifiable"] is True
    assert doc["pair"] == ["B", "C"]
    assert doc["projected_qubit"] == "A"
    assert doc["oracle"]["state_max_abs_deviation"] <= 1e-10
    assert doc["oracle"]["probability_abs_deviation"] <= 1e-12


def test_distill_oracle_at_cap(capsys):
    path = str(STATES / "werner3_x030.json")
    code, doc, _ = run_json(
        capsys, "distill", "--input", path, "--pair", "B,C", "--m", "5", "--oracle"
    )
    assert code == 0
    assert doc["oracle"]["m"] == 5
    assert doc["oracle"]["state_max_abs_deviation"] <= 1e-10
    assert doc["oracle"]["probability_abs_deviation"] <= 1e-10


def test_distill_oracle_skipped_above_cap(capsys):
    path = str(STATES / "werner3_x030.json")
    code, doc, _ = run_json(
        capsys, "distill", "--input", path, "--pair", "B,C", "--m", "6", "--oracle"
    )
    assert code == 0
    assert doc["m_used"] == 6
    assert doc["oracle"] == {"skipped": "m=6 exceeds the dense-oracle cap (5)"}


def test_distill_pair_by_index(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.3))
    code, doc, _ = run_json(capsys, "distill", "--input", path, "--pair", "1,2")
    assert code == 0
    assert doc["pair"] == ["B", "C"]


def test_distill_not_distillable_exits_3(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.19))
    code, out, err = run(capsys, "distill", "--input", path, "--pair", "B,C")
    assert code == 3
    doc = json.loads(out)
    assert doc["distillable"] is False
    assert "not distillable" in err


def test_distill_explicit_m(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.3))
    code, doc, _ = run_json(capsys, "distill", "--input", path, "--pair", "B,C", "--m", "1")
    assert code == 0
    assert doc["m_used"] == 1
    assert doc["m_was_given"] is True
    assert doc["purifiable"] is False


def test_distill_just_above_threshold(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.2 + 1e-7))
    code, doc, _ = run_json(capsys, "distill", "--input", path, "--pair", "B,C")
    assert code == 0
    assert doc["m_used"] == 1109036
    assert doc["purifiable"] is True


def test_distill_large_explicit_m(capsys):
    path = str(STATES / "werner3_x030.json")
    code, doc, _ = run_json(capsys, "distill", "--input", path, "--pair", "B,C", "--m", "200")
    assert code == 0
    assert doc["m_used"] == 200
    assert doc["purifiable"] is True


def test_distill_rejects_bad_pair(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.3))
    for pair in ("B", "B,B", "B,Z"):
        code, out, err = run(capsys, "distill", "--input", path, "--pair", pair)
        assert code == 2


@pytest.mark.parametrize("pair", ["B,\u0662", "B,\u00b3", "B,\u0131", "B,", "B,1x"])
def test_distill_rejects_qubit_tokens_outside_ascii_letters_and_digits(capsys, pair):
    # str.isdigit accepts the Arabic-Indic two and the superscript three
    path = str(STATES / "werner3_x030.json")
    code, out, err = run(capsys, "distill", "--input", path, "--pair", pair)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("sepkit: --pair ")


def test_witness_class5_has_ensemble(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.2))
    code, doc, _ = run_json(capsys, "witness", "--input", path)
    assert code == 0
    assert doc["class"] == 5
    assert doc["rho_tilde"]["pt_invariance_residual"] == 0.0
    assert doc["rho_tilde"]["positive_semidefinite"] is True
    assert doc["ensemble"]["term_count"] == 6
    assert doc["ensemble"]["reconstruction_residual"] <= 1e-10
    assert doc["ensemble_error"] is None
    weights = [t["weight"] for t in doc["ensemble"]["terms"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_witness_ensemble_out_file(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.2))
    out_path = tmp_path / "ensemble.json"
    code, doc, _ = run_json(
        capsys, "witness", "--input", path, "--ensemble-out", str(out_path)
    )
    assert code == 0
    saved = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(saved["terms"]) == 6


def test_witness_ensemble_out_unwritable(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.2))
    target = tmp_path / "missing" / "ensemble.json"
    code, out, err = run(capsys, "witness", "--input", path, "--ensemble-out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"sepkit: cannot write {target}: No such file or directory\n"


def test_witness_refuses_ensemble_outside_class5(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.5))
    code, doc, _ = run_json(capsys, "witness", "--input", path)
    assert code == 0  # certificate still emitted
    assert doc["ensemble"] is None
    assert "class 1" in doc["ensemble_error"]
    assert doc["rho_tilde"]["min_eigenvalue"] < 0

    code, out, err = run(
        capsys, "witness", "--input", path, "--ensemble-out", str(tmp_path / "e.json")
    )
    assert code == 3
    assert not (tmp_path / "e.json").exists()


def test_witness_pure_ghz_certificate_negative(capsys, tmp_path):
    path = write_matrix(tmp_path / "m.json", tensor.density_of(ghz_ket(3, 0, 1)), 3)
    code, doc, _ = run_json(capsys, "witness", "--input", path)
    assert code == 0
    assert doc["rho_tilde"]["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)
    assert doc["rho_tilde"]["positive_semidefinite"] is False


def test_precision_flag_rounds_output(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.3))
    code, doc, _ = run_json(capsys, "depolarize", "--input", path, "--precision", "4")
    assert code == 0
    assert doc["weights"]["lambda0_plus"] == 0.3875


@pytest.mark.parametrize("precision", ["2", "5", "17", "2147483648", "99999999999999999999"])
def test_text_floats_are_rounded_as_in_json(capsys, tmp_path, precision):
    x027 = write_weights(tmp_path / "w.json", werner_like(3, 0.27))
    x030 = str(STATES / "werner3_x030.json")
    cases = [
        (["witness", "--input", x030], lambda d: [d["rho_tilde"]["min_eigenvalue"]]),
        (
            ["depolarize", "--input", x027],
            lambda d: [d["weights"][k] for k in ("lambda0_plus", "lambda0_minus", "lambdas")],
        ),
        (
            ["distill", "--input", x030, "--pair", "B,C"],
            lambda d: [d["filter_success_probability"], d["pair_fidelity"]],
        ),
        (["threshold", "--n", "4"], lambda d: [d["threshold_decimal"]]),
    ]
    for argv, floats in cases:
        _, doc, _ = run_json(capsys, *argv, "--precision", precision)
        code, text, _ = run(capsys, *argv, "--precision", precision, "--text")
        assert code == 0
        for value in floats(doc):
            assert f" {value!r}\n" in text, (argv, value)


def test_unusable_precision_is_an_input_error(capsys):
    path = str(STATES / "werner3_x030.json")
    for argv in (["classify", "--input", path], ["threshold", "--n", "4"]):
        code, out, err = run(capsys, *argv, "--precision", "-1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("sepkit:")


@pytest.mark.parametrize("fmt", [[], ["--text"]], ids=["json", "text"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["witness", "--tol", "nan"], "--tol"),
        (["witness", "--tol", "-1"], "--tol"),
        (["witness", "--tol", "inf"], "--tol"),
        (["classify", "--precision", "-1"], "--precision"),
        (["depolarize", "--precision", "0"], "--precision"),
        (["distill", "--pair", "B,C", "--m", "0"], "--m"),
        (["distill", "--pair", "A,B", "--m", "-2"], "--m"),  # a pair that is not distillable
        (["distill", "--pair", "B,C", "--m", "1" + "0" * 400], "--m"),  # float(m) overflows
    ],
    ids=["tol-nan", "tol-negative", "tol-inf", "precision-negative", "precision-zero",
         "m-zero", "m-negative", "m-overflow"],
)
def test_unusable_option_value_is_named(capsys, argv, option, fmt):
    path = str(STATES / "werner3_x030.json")
    code, out, err = run(capsys, *argv, "--input", path, *fmt)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"sepkit: {option} ")


def test_copy_count_is_usable_up_to_the_largest_double(capsys):
    path = str(STATES / "werner3_x030.json")
    largest = int(sys.float_info.max)
    for m in ("100000000000000000000", str(largest)):
        code, doc, _ = run_json(capsys, "distill", "--input", path, "--pair", "B,C", "--m", m)
        assert code == 0
        assert doc["m_used"] == int(m) and doc["purifiable"] is True
    code, out, err = run(capsys, "distill", "--input", path, "--pair", "B,C", "--m", str(largest + 1))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("sepkit: --m ")


def test_distill_outside_three_qubits_is_one_input_error(capsys, tmp_path):
    path = write_weights(tmp_path / "w4.json", werner_like(4, 0.5))
    code, out, err = run(capsys, "distill", "--input", path, "--pair", "B,C")
    assert (code, out) == (2, "")
    assert err == "sepkit: the distillation protocol is defined for 3 qubits\n"
    code, out, err = run(capsys, "distill", "--input", path, "--pair", "B,E")
    assert (code, out) == (2, "")
    assert err == "sepkit: qubit 'E' out of range for 4 qubits\n"


def test_reports_round_trip_via_json(capsys, tmp_path):
    path = write_weights(tmp_path / "w.json", werner_like(3, 0.27))
    for argv in (
        ["classify", "--input", path],
        ["depolarize", "--input", path],
        ["distill", "--input", path, "--pair", "A,B"],
        ["witness", "--input", path],
        ["threshold", "--n", "4"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.endswith("\n")
        doc = json.loads(out)
        assert doc["tool_version"]
        # emit -> parse -> emit is stable
        from sepkit.stateio import dump_report

        assert json.loads(dump_report(doc)) == doc
