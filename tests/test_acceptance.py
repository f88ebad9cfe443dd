"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are pinned in the assertions."""

import contextlib
import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BELL_PHI_PLUS,
    KET_PLUS,
    density_of,
    project_qubit,
    random_class5_weights,
    weights_max_diff,
)
from sepkit import (
    amplify,
    bipartition_masks,
    build_rho_hat,
    build_rho_tilde,
    classify3,
    depolarize,
    dense_filter_oracle,
    family_density,
    fully_separable,
    fully_separable_ensemble,
    ghz_ket,
    minimal_m,
    pair_fidelity_after_projection,
    pt_positive_analytic,
    random_weights,
    rho_hat_density,
    verify_ensemble,
    werner_like,
)
from sepkit import tensor
from sepkit.cli import main
from sepkit.witness import KETS

REPO = Path(__file__).resolve().parent.parent
STATES = REPO / "cli_examples" / "states"
GOLDEN = REPO / "cli_examples" / "golden"

MASK_A = 0b100


@contextlib.contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {num} took {elapsed:.1f}s"
    print(f"[criterion {num}] PASS {description} ({elapsed:.2f}s)")


def test_criterion_1_three_qubit_threshold():
    with criterion(1, "noisy GHZ mixture threshold at x = 1/5 for 3 qubits", 1.0):
        for x in (0.2, 0.2 - 1e-9):
            rep = classify3(werner_like(3, x))
            assert rep.class3 == 5
            assert rep.fully_separable
        for x in (0.2 + 1e-9, 0.21):
            rep = classify3(werner_like(3, x))
            assert rep.class3 == 1
            assert rep.ghz_distillable


def test_criterion_2_higher_qubit_thresholds():
    with criterion(2, "thresholds 1/9, 1/17, 1/33 for 4..6 qubits", 30.0):
        for n, denom in ((4, 9), (5, 17), (6, 33)):
            x = 1.0 / denom
            assert fully_separable(werner_like(n, x - 1e-9))
            assert not fully_separable(werner_like(n, x + 1e-9))
            if n <= 5:
                masks = list(bipartition_masks(n))
                below = family_density(werner_like(n, x - 1e-9))
                above = family_density(werner_like(n, x + 1e-9))
                assert all(tensor.is_ppt(below, m, tol=1e-10) for m in masks)
                assert all(not tensor.is_ppt(above, m, tol=1e-10) for m in masks)


def test_criterion_3_analytic_oracle_equivalence():
    with criterion(3, "analytic PT predicate matches eigenvalue oracle", 60.0):
        rng = np.random.default_rng(20260810)
        disagreements = 0
        for n, count in ((3, 1000), (4, 300)):
            for _ in range(count):
                w = random_weights(n, rng)
                rho = family_density(w)
                for mask in bipartition_masks(n):
                    if pt_positive_analytic(w, mask) != tensor.is_ppt(rho, mask, tol=1e-9):
                        disagreements += 1
        assert disagreements == 0


def test_criterion_4_filter_recurrence_vs_dense_oracle():
    with criterion(4, "closed-form filtering matches the dense construction", 120.0):
        rng = np.random.default_rng(20260811)
        for _ in range(100):
            w = random_weights(3, rng)
            for m in (2, 3, 4):
                filtered, prob = amplify(w, m)
                sigma, prob_oracle = dense_filter_oracle(w, m)
                assert np.abs(family_density(filtered) - sigma).max() <= 1e-10
                assert abs(prob - prob_oracle) <= 1e-12


def test_criterion_5_fidelity_criterion():
    with criterion(5, "projected fidelity > 1/2 iff delta/2 > lambda1+lambda3", 60.0):
        rng = np.random.default_rng(20260812)
        for _ in range(1000):
            w = random_weights(3, rng)
            fid, prob = pair_fidelity_after_projection(w)
            assert (fid > 0.5) == (w.delta / 2.0 > w.lam(1) + w.lam(3))
            reduced, dense_prob = project_qubit(family_density(w), 0, KET_PLUS)
            dense_fid = float(np.real(BELL_PHI_PLUS.conj() @ reduced @ BELL_PHI_PLUS))
            assert abs(fid - dense_fid) <= 1e-12
            assert abs(prob - dense_prob) <= 1e-12


def test_criterion_6_worked_protocol_instance():
    with criterion(6, "x = 0.3: direct projection fails, two copies succeed", 30.0):
        w = werner_like(3, 0.3)
        fid, _ = pair_fidelity_after_projection(w)
        assert fid == pytest.approx(0.475, abs=1e-15)
        assert fid <= 0.5
        assert minimal_m(w) == 2
        filtered, prob = amplify(w, 2)
        fid2, _ = pair_fidelity_after_projection(filtered)
        assert fid2 > 0.5
        # dense confirmation of both the filtered state and its projection
        sigma, prob_oracle = dense_filter_oracle(w, 2)
        assert np.abs(family_density(filtered) - sigma).max() <= 1e-10
        assert abs(prob - prob_oracle) <= 1e-12
        reduced, _ = project_qubit(sigma, 0, KET_PLUS)
        dense_fid2 = float(np.real(BELL_PHI_PLUS.conj() @ reduced @ BELL_PHI_PLUS))
        assert dense_fid2 > 0.5
        assert abs(dense_fid2 - fid2) <= 1e-12
        # distillability already at 0.3, below the previously cited 0.32263
        assert 0.3 < 0.32263
        assert classify3(w).ghz_distillable


def test_criterion_7_separable_ensemble_soundness():
    with criterion(7, "class-5 states admit verified product ensembles", 120.0):
        rng = np.random.default_rng(20260813)
        for w in random_class5_weights(rng, 200):
            ensemble = fully_separable_ensemble(w)
            hat = rho_hat_density(build_rho_hat(w))
            assert verify_ensemble(ensemble, hat) <= 1e-10
            assert weights_max_diff(depolarize(hat), w) <= 1e-12
        phi_sum = np.zeros((8, 8), dtype=complex)
        for pattern in (0, 3, 5, 6):  # minus factors where the bits are set, an even number
            f = [KETS[2 + ((pattern >> (2 - q)) & 1)] for q in range(3)]
            psi = np.kron(np.kron(f[0], f[1]), f[2])
            phi_sum += np.outer(psi, psi.conj())
        ghz_sum = sum(density_of(ghz_ket(3, j, 1)) for j in range(4))
        assert np.abs(phi_sum - ghz_sum).max() <= 1e-14


def test_criterion_8_transpose_invariant_certificate():
    with criterion(8, "invariant extension certifies first-qubit separability", 60.0):
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            w = random_weights(3, rng)
            rt = build_rho_tilde(w)
            assert np.abs(tensor.partial_transpose(rt, MASK_A) - rt).max() <= 1e-14
            positive = tensor.min_eigenvalue(rt) >= -1e-10
            assert positive == (w.delta <= 2.0 * w.lam(2) + 1e-10)


GOLDEN_RUNS = [
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
]


def _mask_version(text):
    return re.sub(r'"tool_version": "[^"]*"', '"tool_version": "*"', text)


def test_criterion_9_cli_pipeline_reproduces_goldens():
    with criterion(9, "classify/distill/witness pipeline matches shipped goldens", 60.0):
        for name, argv, expected_code in GOLDEN_RUNS:
            argv = [
                str(STATES / a) if a.endswith(".json") else a for a in argv
            ]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            assert code == expected_code, name
            actual = _mask_version(buf.getvalue())
            golden = _mask_version((GOLDEN / name).read_text(encoding="utf-8"))
            assert actual == golden, f"{name} deviates from the golden report"


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_RUNS, ids=[r[0][:-5] for r in GOLDEN_RUNS])
def test_text_output_matches_golden(name, argv, expected_code):
    argv = [str(STATES / a) if a.endswith(".json") else a for a in argv] + ["--text"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == expected_code
    assert buf.getvalue() == (GOLDEN / f"{name[:-5]}.txt").read_text(encoding="utf-8")
