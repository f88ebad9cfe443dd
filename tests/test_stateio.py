import gc
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepkit import classify_family, family_density, pt_positive_analytic
from sepkit import depolarize, random_weights, werner_like
from sepkit import _floatfmt, stateio, witness
from sepkit.cli import build_parser, main


GOLDEN = Path(__file__).resolve().parent.parent / "cli_examples" / "golden"
STATES = GOLDEN.parent / "states"


def write_json(path, doc):
    path.write_text(json.dumps(doc, default=np.ndarray.tolist), encoding="utf-8")
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
    assert state.depolarized is False
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


def test_rational_exponent_bound(tmp_path):
    doc = {
        "n_qubits": 3,
        "weights": {"lambda0_plus": "1", "lambda0_minus": 0, "lambdas": ["1e-400", 0, "0e10000"]},
    }
    state = stateio.load_state(write_json(tmp_path / "s.json", doc))
    assert state.weights.lambdas.tolist() == [0.0, 0.0, 0.0]
    assert "lambdas[0] parsed from rational 1e-400 to nearest double" in state.notes
    doc["weights"]["lambdas"][2] = "0e10001"
    with pytest.raises(stateio.StateFileError, match=r"lambdas\[2\]: .* beyond ±10000"):
        stateio.load_state(write_json(tmp_path / "s.json", doc))


def assert_same_weights(a, b):
    assert (a.n_qubits, a.lambda0_plus, a.lambda0_minus, a.delta, a.basis_flipped) == (
        b.n_qubits, b.lambda0_plus, b.lambda0_minus, b.delta, b.basis_flipped
    )
    assert np.array_equal(a.lambdas, b.lambdas)


def test_load_matrix_file(tmp_path):
    rho = family_density(werner_like(3, 0.4))
    state = stateio.load_state(write_json(tmp_path / "m.json", matrix_doc(rho, 3)))
    assert state.depolarized is True
    assert_same_weights(state.weights, depolarize(rho / rho.trace().real))


def test_matrix_trace_renormalized(tmp_path):
    rho = family_density(werner_like(3, 0.4)) * (1 + 5e-10)
    state = stateio.load_state(write_json(tmp_path / "m.json", matrix_doc(rho, 3)))
    assert state.depolarized is True
    assert_same_weights(state.weights, depolarize(rho / rho.trace().real))
    assert f"matrix trace {float(rho.trace().real)!r} renormalized to 1" in state.notes


def test_no_numpy_type_name_in_goldens_or_notes(tmp_path):
    rho = family_density(werner_like(3, 0.4)) * (1 - 7e-10)
    paths = [write_json(tmp_path / "m.json", matrix_doc(rho, 3)), str(STATES / "ghz_matrix.json")]
    notes = [note for path in paths for note in stateio.load_state(path).notes]
    assert len(notes) == 2
    goldens = [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.iterdir())]
    assert goldens and not any("np.float64(" in text for text in goldens + notes)


def test_matrix_weight_negative_beyond_clamp_is_a_state_file_error(tmp_path):
    # PSD within DENSITY_ATOL, yet lambda_1 is below GhzWeights' clamp
    diag = np.full(8, 0.125)
    diag[[2, 5]] = -4e-10
    diag[0] += 0.25 + 8e-10
    path = write_json(tmp_path / "m.json", matrix_doc(np.diag(diag).astype(complex), 3))
    want = ("invalid density matrix: its projection has lambda_1 = -4e-10, below the family's -1e-12 "
            "(the matrix passed the PSD check within 1e-09)")
    with pytest.raises(stateio.StateFileError, match=f"^{re.escape(want)}$"):
        stateio.load_state(path)


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


def test_integer_weights_read_as_float_of_each():
    ints = [0, 1, 3, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 + 3, 2**80 + 2**27 + 1, -(2**63) - 1, 10**300]
    notes = []
    lams = stateio._lambdas(ints + [0.5], notes)
    assert [v.hex() for v in lams.tolist()] == [float(v).hex() for v in ints + [0.5]]
    assert notes == []
    # past the largest double, the per-entry path names the entry
    with pytest.raises(stateio.StateFileError, match=r"lambdas\[1\] must be a finite number"):
        stateio._lambdas([1, 10**400], notes)


def test_dump_report_roundtrip_and_precision():
    report = {"a": 0.1 + 0.2, "nested": {"xs": [1 / 3, 2]}, "flag": True}
    out = stateio.dump_report(report)
    assert out.endswith("\n")
    assert json.loads(out) == report  # default precision round-trips exactly

    rounded = json.loads(stateio.dump_report(report, precision=6))
    assert rounded["a"] == pytest.approx(0.3, abs=1e-6)
    assert rounded["a"] != report["a"]


def dumps_indent2(report, precision=17):
    """What dump_report must print: the stdlib's indent=2 layout."""
    if precision < 17:
        report = stateio.round_floats(report, precision)
    return json.dumps(
        report, indent=2, ensure_ascii=False, allow_nan=False, default=np.ndarray.tolist
    ) + "\n"


def cli_report(tmp_path, w, command, *options):
    path = write_json(tmp_path / "s.json", {"n_qubits": w.n_qubits, "weights": stateio.weights_dict(w)})
    args = build_parser().parse_args([command, "--input", path, *options])
    return args.func(args)[0]


def test_dump_report_matches_json_dumps_on_classify_reports(tmp_path):
    rng = np.random.default_rng(41)
    for n in range(2, 21):  # up to 524,287 pair weights, across stateio._KERNEL_MIN
        werner = (werner_like(n, 0.95), werner_like(n, 1 / (1 + 2 ** (n - 1)))) if n <= 16 else ()
        for w in (random_weights(n, rng), *werner):
            report = cli_report(tmp_path, w, "classify")
            assert stateio.dump_report(report) == dumps_indent2(report)
            assert stateio.dump_report(report, 5) == dumps_indent2(report, 5)


@pytest.mark.parametrize("n", [19, 20])
def test_werner_tie_at_large_n_reads_positive(n, tmp_path, capsys):
    # 2**(n-1) - 1 equal weights, added left to right, miss 1 by 7e-12 at n = 19
    w = werner_like(n, 1 / (1 + 2 ** (n - 1)))
    assert w.delta == 2.0 * w.lam(1)
    assert all(classify_family(w).pt_positive.values())
    path = write_json(tmp_path / "s.json", {"n_qubits": n, "weights": stateio.weights_dict(w)})
    assert main(["classify", "--input", path, "--text"]) == 0
    assert "fully separable: yes\n" in capsys.readouterr().out


def test_dump_report_matches_json_dumps_on_other_reports(tmp_path):
    rng = np.random.default_rng(43)
    separable = werner_like(3, 0.15)
    ensemble = stateio.ensemble_dict(witness.fully_separable_ensemble(separable))
    threshold = build_parser().parse_args(["threshold", "--n", "7"])
    reports = [
        ensemble,
        threshold.func(threshold)[0],
        cli_report(tmp_path, separable, "witness"),  # carries an ensemble
        cli_report(tmp_path, werner_like(3, 0.3), "witness"),  # ensemble null
        cli_report(tmp_path, werner_like(3, 0.3), "distill", "--pair", "B,C", "--oracle"),
        cli_report(tmp_path, werner_like(3, 0.2), "distill", "--pair", "A,B"),  # not distillable
        cli_report(tmp_path, werner_like(3, 0.3), "distill", "--pair", "A,C", "--m", "6", "--oracle"),
    ]
    for n in (3, 5, 9):
        reports.append(cli_report(tmp_path, random_weights(n, rng), "depolarize"))
    for report in reports:
        for precision in (17, 5):
            assert stateio.dump_report(report, precision) == dumps_indent2(report, precision)


NUMBERS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-05, 1e-7, 5e-324, 1.7976931348623157e308,
                       10**30, -(2**70), 2**63])
)
STRINGS = st.text() | st.sampled_from(
    ["", ", ", "a, b", "[1, 2]", "{}", '"quoted"', "back\\slash", "ünï, cödé", "\u2028", "\x00\n"]
)
TREES = st.recursive(
    NUMBERS | STRINGS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=3).map(tuple)
    | st.lists(NUMBERS, min_size=1, max_size=8)
    | st.dictionaries(STRINGS, children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400)
@given(tree=TREES)
def test_dump_report_matches_json_dumps_on_trees(tree):
    for precision in (17, 5):
        try:
            expected = dumps_indent2(tree, precision)
        except ValueError:  # 5 digits round the largest doubles up to inf
            with pytest.raises(ValueError, match="not JSON compliant"):
                stateio.dump_report(tree, precision)
        else:
            assert stateio.dump_report(tree, precision) == expected


LONG = np.linspace(-1.0, 1.0, stateio._KERNEL_MIN + 1)  # long enough for the float kernel
ARRAY_REPORTS = {
    "a string that reads as the mark": {"s": stateio._MARK, "v": np.arange(3.0), "l": [LONG]},
    "the mark as a key": {stateio._MARK: LONG, "v": [np.arange(2)]},
    "strings holding NUL": {
        "a": "\0", "b": ["x\0", np.arange(2.0)], "c": '"\0array\0', "d": "\0array\0\0", "v": LONG,
    },
    "arrays in lists": {"l": [np.arange(3.0), [LONG, np.ones(2)], {"k": [np.zeros(1)]}], "t": (LONG,)},
    "a top-level array": LONG,
    "a top-level list": [np.arange(2.0), "s", LONG],
    "empty arrays": {"e": np.zeros(0), "l": [np.zeros(0, dtype=int), np.zeros((0, 2))], "f": np.zeros(0)},
    "2-d arrays": {"m": np.arange(6.0).reshape(2, 3), "l": [np.eye(2, dtype=bool)], "z": np.zeros((2, 0))},
    "int and bool arrays": {
        "i": np.arange(-3, 3), "u": np.array([0, 2**64 - 1], dtype=np.uint64),
        "b": np.array([True, False]), "i8": np.arange(-2, 2, dtype=np.int8), "long": np.arange(500),
    },
    "other float arrays": {"f32": np.linspace(0, 1, 7, dtype=np.float32), "f16": np.ones(3, np.float16)},
    "string and object arrays": {
        "s": np.array(["a, b", "c,  d", ""]), "o": np.array(["x, y", 1, None, 0.5, [1, 2]], dtype=object),
        "of": np.array([0.1, 0.2], dtype=object),
    },
    "non-str keys": {1: np.arange(2.0), 2.5: "x", None: [LONG], False: {3: np.arange(2)}},
}


@pytest.mark.parametrize("report", ARRAY_REPORTS.values(), ids=ARRAY_REPORTS)
def test_dump_report_matches_json_dumps_on_arrays(report):
    for precision in (17, 5):
        assert stateio.dump_report(report, precision) == dumps_indent2(report, precision)


def test_dump_report_releases_its_arrays():
    gc.disable()  # json.dumps' encoder closures form a cycle that only a collection frees
    try:
        for value in ("s", stateio._MARK):  # arrays spliced, then all through tolist()
            report = {"k": value, "v": np.linspace(0.0, 1.0, stateio._KERNEL_MIN), "l": [np.arange(3)]}
            refs = [weakref.ref(report["v"]), weakref.ref(report["l"][0])]
            text = stateio.dump_report(report)
            del report, text
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


# short, long enough for the float kernel, and across two of its chunks
ARRAY_LENGTHS = (3, stateio._KERNEL_MIN, _floatfmt.CHUNK + 2)


@pytest.mark.parametrize("value", [math.nan, -math.inf, np.float64(math.inf)], ids=repr)
def test_dump_report_rejects_non_finite_floats(value):
    # the last two lists are long enough for the float kernel, the last spans two of its chunks
    long = [0.5] * max(stateio._KERNEL_MIN, _floatfmt.CHUNK + 2)
    reports = [{"x": value}, {"x": [1.0, value]}, {"x": [[0.5, value]]}, {"x": ["s", value]},
               {"x": [value] + long[1:stateio._KERNEL_MIN]}, {"x": long[:-1] + [value]}]
    for length in ARRAY_LENGTHS:
        for at in (0, length - 1):
            values = np.full(length, 0.25)
            values[at] = value
            reports.append({"x": values})
    for report in reports:
        with pytest.raises(ValueError, match="not JSON compliant"):
            stateio.dump_report(report)


@pytest.mark.parametrize("length", ARRAY_LENGTHS)
def test_non_finite_weights_array_exits_2(length, tmp_path, capsys, monkeypatch):
    weights_dict = stateio.weights_dict

    def with_inf(w):
        doc = weights_dict(w)
        doc["lambdas"] = np.append(np.resize(doc["lambdas"], length - 1), math.inf)
        return doc

    monkeypatch.setattr(stateio, "weights_dict", with_inf)
    path = write_json(tmp_path / "s.json", weights_doc(werner_like(3, 0.3)))
    assert main(["classify", "--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "not JSON compliant" in err


@pytest.mark.parametrize("n", [3, 11, 16])
def test_weights_dict_holds_the_read_only_array(n):
    w = random_weights(n, np.random.default_rng(n))
    kept = w.lambdas.copy()
    report = {"weights": stateio.weights_dict(w)}
    assert report["weights"]["lambdas"] is w.lambdas
    listed = {"weights": {**report["weights"], "lambdas": w.lambdas.tolist()}}
    for precision in (17, 5):  # the array prints as its list does
        assert stateio.dump_report(report, precision) == dumps_indent2(listed, precision)
        assert not w.lambdas.flags.writeable
        assert np.array_equal(w.lambdas, kept)


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
