"""Fuzzed state files: every document ends in a report or in one diagnostic line.

Documents are drawn around valid ones (weights and matrices on 2..4 qubits)
and then broken: wrong lengths and nested lists in ``lambdas``, booleans,
huge integers, rational strings, negative weights beyond the clamp,
Hermitian unit-trace matrices with a negative eigenvalue, missing or extra
``weights``/``matrix``, and JSON that is not an object. Each one is
parsed by ``stateio.load_state`` and run through ``cli.main`` on classify,
depolarize and witness. Two hostile files, a rational string with a huge
exponent and JSON nested far past the recursion limit, must also be refused
within a second.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import stateio
from sepkit.cli import main

JUNK = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),  # NaN and infinities included
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from(
        ["1/5", "-1/5", "1/0", "2/3", "1e400", "abc", "", " 1/8 ", "1e-999999999", "1e999999999"]
    ),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.dictionaries(st.sampled_from(["re", "im", "x"]), st.integers(0, 2), max_size=2),
)
NON_OBJECTS = st.one_of(
    st.lists(st.integers(0, 3), max_size=3), st.integers(), st.text(max_size=5), st.none()
)
BAD_N = st.sampled_from([0, 1, -3, True, 3.0, "3", None, [3], 40])


@st.composite
def weights(draw, n):
    """Valid weights of n qubits from integer masses, as floats or rational strings."""
    count = (1 << (n - 1)) - 1
    a, b = draw(st.integers(1, 9)), draw(st.integers(0, 9))
    masses = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))
    total = a + b + 2 * sum(masses)
    as_text = draw(st.booleans())

    def number(mass):
        return f"{mass}/{total}" if as_text else mass / total

    return {
        "lambda0_plus": number(max(a, b)),
        "lambda0_minus": number(min(a, b)),
        "lambdas": [number(m) for m in masses],
    }


@st.composite
def indefinite(draw, n):
    """A Hermitian unit-trace matrix of n qubits with one eigenvalue -low, and low."""
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.floats(1e-8, 0.5))
    spectrum = rng.uniform(0.0, 1.0, dim)
    spectrum[1:] *= (1.0 + low) / spectrum[1:].sum()
    spectrum[0] = -low
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rho = (q * spectrum) @ q.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return {"re": rho.real.tolist(), "im": rho.imag.tolist()}, low


@st.composite
def matrix(draw, n):
    """A dense matrix of n qubits: maximally mixed, a symmetric draw, indefinite, or ragged."""
    dim = 1 << n
    kind = draw(st.sampled_from(["mixed", "symmetric", "indefinite", "ragged", "no-re"]))
    if kind == "indefinite":
        return draw(indefinite(n))[0]
    if kind == "mixed":
        return {"re": (np.eye(dim) / dim).tolist()}
    if kind == "symmetric":
        m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (dim, dim))
        m = m @ m.T + np.eye(dim)
        return {"re": (m / np.trace(m)).tolist(), "im": np.zeros((dim, dim)).tolist()}
    if kind == "ragged":
        return {"re": [[1.0 / dim] * dim, [0.0]], "im": []}
    return {"im": [[0.0]]}


@st.composite
def documents(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(NON_OBJECTS)
    n = draw(st.sampled_from([3, 2, 3, 4]))
    if draw(st.booleans()):
        doc = {"n_qubits": n, "weights": draw(weights(n))}
        w = doc["weights"]
        mutation = draw(st.sampled_from(
            ["none"] * 4 + ["lambda", "field", "length", "nest", "negative", "delta", "drop"]
        ))
        if mutation == "lambda":
            w["lambdas"][draw(st.integers(0, len(w["lambdas"]) - 1))] = draw(JUNK)
        elif mutation == "field":
            w[draw(st.sampled_from(["lambda0_plus", "lambda0_minus", "basis_flipped"]))] = draw(JUNK)
        elif mutation == "length":
            w["lambdas"] = w["lambdas"][: draw(st.integers(0, len(w["lambdas"]) - 1))]
        elif mutation == "nest":
            w["lambdas"] = [w["lambdas"]]
        elif mutation == "negative":
            w["lambdas"][0] = draw(st.sampled_from([-0.1, -1e-6, "-1/3", -(10**30)]))
        elif mutation == "delta":
            w["delta"] = draw(JUNK)
        elif mutation == "drop":
            del w[draw(st.sampled_from(sorted(w)))]
    else:
        doc = {"n_qubits": n, "matrix": draw(matrix(n))}
    top = draw(st.sampled_from(["none"] * 4 + ["n", "both", "neither", "extra"]))
    if top == "n":
        doc["n_qubits"] = draw(BAD_N)
    elif top == "both":
        doc["matrix" if "weights" in doc else "weights"] = {}
    elif top == "neither":
        doc.pop("weights", None)
        doc.pop("matrix", None)
    elif top == "extra":
        doc["comment"] = draw(JUNK)
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120)
@given(doc=documents())
def test_fuzzed_documents_end_in_report_or_one_line(doc, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed-state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        state = stateio.load_state(str(path))
    except stateio.StateFileError:
        state = None
    else:
        assert isinstance(state, stateio.StateInput)
    for command in ("classify", "depolarize", "witness"):
        code, out, err = run([command, "--input", str(path)])
        if code in (0, 3):
            assert state is not None, "malformed input must not get a report"
            assert isinstance(json.loads(out), dict)
        else:
            assert code == 2
            assert out == ""
            assert err.startswith("sepkit: ") and err.count("\n") == 1


@settings(max_examples=40)
@given(n=st.sampled_from([2, 3, 4]), data=st.data())
def test_matrices_with_a_negative_eigenvalue_get_one_line(n, data, tmp_path_factory):
    matrix_doc, low = data.draw(indefinite(n))
    path = tmp_path_factory.getbasetemp() / "indefinite-state.json"
    path.write_text(json.dumps({"n_qubits": n, "matrix": matrix_doc}), encoding="utf-8")
    for argv in (["classify"], ["depolarize"], ["witness"], ["distill", "--pair", "A,B"]):
        code, out, err = run([argv[0], "--input", str(path), *argv[1:]])
        assert (code, out) == (2, "")
        assert err.startswith("sepkit: invalid density matrix: not positive semidefinite: ")
        assert err.count("\n") == 1
        assert float(err.rsplit(" ", 1)[1]) == pytest.approx(-low, rel=1e-5)  # printed to 6 digits


def assert_refused_at_once(path):
    for argv in (["classify"], ["depolarize"], ["witness"], ["distill", "--pair", "A,B"]):
        start = time.perf_counter()
        code, out, err = run([argv[0], "--input", str(path), *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("sepkit: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("value", ["1e-999999999", "1e999999999", "-1E+100_000"])
@pytest.mark.parametrize("field", ["lambda0_plus", "delta", "lambdas"])
def test_rational_with_a_huge_exponent_gets_one_line(field, value, tmp_path):
    w = {"lambda0_plus": 0.7, "lambda0_minus": 0.1, "lambdas": [0.1, 0.1, 0.1]}
    if field == "lambdas":
        w["lambdas"][2], field = value, "lambdas[2]"
    else:
        w[field] = value
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"n_qubits": 3, "weights": w}), encoding="utf-8")
    err = assert_refused_at_once(path)
    assert f"{field}: rational {value!r} has an exponent beyond ±10000" in err


@pytest.mark.parametrize("opening,closing", [("[", "]"), ('{"a": ', "}")])
def test_deeply_nested_file_gets_one_line(opening, closing, tmp_path):
    # written as text: json.dumps recurses as deep as json.load does
    path = tmp_path / "nested.json"
    depth = 100_000
    path.write_text(
        '{"n_qubits": 3, "weights": ' + opening * depth + "0" + closing * depth + "}",
        encoding="utf-8",
    )
    assert assert_refused_at_once(path).endswith("is not valid JSON: nested too deeply\n")
