import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepkit import family_density, ghz_ket, pt_positive_analytic, werner_like
from sepkit import stateio


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def weights_doc(w):
    return {
        "n_qubits": w.n_qubits,
        "weights": {
            "lambda0_plus": w.lambda0_plus,
            "lambda0_minus": w.lambda0_minus,
            "lambdas": list(w.lambdas),
        },
    }


def matrix_doc(rho, n):
    return {
        "n_qubits": n,
        "matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
    }


def test_load_weights_file(tmp_path):
    w = werner_like(3, 0.3)
    state = stateio.load_state(write_json(tmp_path / "s.json", weights_doc(w)))
    assert state.matrix is None
    assert state.weights.lambda0_plus == w.lambda0_plus
    assert state.notes == ()


def test_load_weights_optional_delta_preserves_boundary(tmp_path):
    w = werner_like(3, 0.2)  # exactly on the separability boundary
    doc = weights_doc(w)
    doc["weights"]["delta"] = w.delta
    state = stateio.load_state(write_json(tmp_path / "s.json", doc))
    assert state.weights.delta == 0.2
    # without the explicit delta the subtraction rounds up by one ulp
    plain = stateio.load_state(write_json(tmp_path / "p.json", weights_doc(w)))
    assert plain.weights.delta > 0.2


def test_load_weights_with_rationals(tmp_path):
    doc = {
        "n_qubits": 3,
        "weights": {
            "lambda0_plus": "2/5",
            "lambda0_minus": 0,
            "lambdas": ["1/5", "1/20", "1/20"],
        },
    }
    state = stateio.load_state(write_json(tmp_path / "s.json", doc))
    assert state.weights.lambda0_plus == 0.4
    assert state.weights.lambdas.tolist() == [0.2, 0.05, 0.05]
    assert any("rational" in note for note in state.notes)


def test_load_matrix_file(tmp_path):
    rho = family_density(werner_like(3, 0.4))
    state = stateio.load_state(write_json(tmp_path / "m.json", matrix_doc(rho, 3)))
    assert state.weights is None
    np.testing.assert_allclose(state.matrix, rho, atol=1e-15)


def test_matrix_trace_renormalized(tmp_path):
    rho = family_density(werner_like(3, 0.4)) * (1 + 5e-10)
    state = stateio.load_state(write_json(tmp_path / "m.json", matrix_doc(rho, 3)))
    assert abs(state.matrix.trace().real - 1.0) <= 1e-15
    assert any("renormalized" in note for note in state.notes)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n_qubits"),
        lambda d: d.update(n_qubits=1),
        lambda d: d.pop("weights"),
        lambda d: d["weights"].pop("lambdas"),
        lambda d: d["weights"].update(lambda0_plus="zero/5"),
        lambda d: d["weights"].update(lambda0_plus=0.9),  # breaks the sum
    ],
)
def test_load_rejects_bad_weight_docs(tmp_path, mutate):
    doc = weights_doc(werner_like(3, 0.3))
    mutate(doc)
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "bad.json", doc))


def test_load_rejects_both_or_neither(tmp_path):
    doc = weights_doc(werner_like(3, 0.3))
    doc["matrix"] = {"re": np.eye(8).tolist()}
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "both.json", doc))
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "neither.json", {"n_qubits": 3}))


def test_load_rejects_bad_matrices(tmp_path):
    rho = family_density(werner_like(3, 0.4))
    non_hermitian = rho.copy()
    non_hermitian[0, 1] = 0.5
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "nh.json", matrix_doc(non_hermitian, 3)))
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "tr.json", matrix_doc(rho * 1.01, 3)))
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(write_json(tmp_path / "dim.json", matrix_doc(rho, 4)))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(str(path))
    with pytest.raises(stateio.StateFileError):
        stateio.load_state(str(tmp_path / "missing.json"))


def test_qubit_labels_roundtrip():
    assert stateio.qubit_label(0) == "A"
    assert stateio.qubit_label(2) == "C"
    assert stateio.parse_qubit("B", 3) == 1
    assert stateio.parse_qubit("c", 3) == 2
    assert stateio.parse_qubit("0", 3) == 0
    with pytest.raises(stateio.StateFileError):
        stateio.parse_qubit("D", 3)
    with pytest.raises(stateio.StateFileError):
        stateio.parse_qubit("?!", 3)


def test_dump_report_roundtrip_and_precision():
    report = {"a": 0.1 + 0.2, "nested": {"xs": [1 / 3, 2]}, "flag": True}
    out = stateio.dump_report(report)
    assert out.endswith("\n")
    assert json.loads(out) == report  # default precision round-trips exactly

    rounded = json.loads(stateio.dump_report(report, precision=6))
    assert rounded["a"] == pytest.approx(0.3, abs=1e-6)
    assert rounded["a"] != report["a"]


def test_ket_as_pairs():
    pairs = stateio.ket_as_pairs(ghz_ket(2, 0, -1))
    assert pairs[0] == [pytest.approx(1 / np.sqrt(2)), 0.0]
    assert pairs[3] == [pytest.approx(-1 / np.sqrt(2)), 0.0]


@st.composite
def rational_ties(draw):
    """(j, document) in rational strings on 3..5 qubits with delta == 2 lambda_j exactly."""
    n = draw(st.integers(3, 5))
    count = (1 << (n - 1)) - 1
    fraction = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    lams = draw(st.lists(fraction, min_size=count, max_size=count))
    j = draw(st.integers(1, count))
    minus = draw(fraction)
    plus = minus + 2 * lams[j - 1]
    total = plus + minus + 2 * sum(lams)
    assume(total > 0)
    weights = {
        "lambda0_plus": str(plus / total),
        "lambda0_minus": str(minus / total),
        "lambdas": [str(lam / total) for lam in lams],
    }
    return j, {"n_qubits": n, "weights": weights}


@settings(max_examples=200)
@given(tie=rational_ties())
def test_rational_ties_read_positive(tie, tmp_path_factory):
    j, doc = tie
    path = tmp_path_factory.getbasetemp() / "tie.json"
    w = stateio.load_state(write_json(path, doc)).weights
    assert w.delta == 2.0 * w.lam(j)
    assert pt_positive_analytic(w, 2 * j)
