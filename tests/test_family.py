import functools
import operator
import struct

import numpy as np
import pytest

from helpers import basis_ket, density_of, permute_qubits, random_density, weights_max_diff
from sepkit import (
    GhzWeights,
    depolarize,
    family_density,
    ghz_ket,
    permute_weights,
    random_weights,
    werner_like,
)
from sepkit import tensor
from sepkit.family import _left_sum


def ghz_basis_weights_oracle(rho):
    """Read the family weights via explicit GHZ-basis expectation values."""
    n = tensor.n_qubits_of(rho.shape[0])
    expect = lambda k: np.real(np.vdot(k, rho @ k))
    l0p = expect(ghz_ket(n, 0, 1))
    l0m = expect(ghz_ket(n, 0, -1))
    lams = [
        (expect(ghz_ket(n, j, 1)) + expect(ghz_ket(n, j, -1))) / 2.0
        for j in range(1, 1 << (n - 1))
    ]
    return l0p, l0m, lams


def test_ghz_ket_standard_states():
    k = ghz_ket(3, 0, 1)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(k, expected)

    k = ghz_ket(3, 1, -1)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1 / np.sqrt(2)  # |010>
    expected[5] = -1 / np.sqrt(2)  # |101>
    np.testing.assert_allclose(k, expected)


@pytest.mark.parametrize("n", [3, 4])
def test_ghz_basis_orthonormal(n):
    kets = [ghz_ket(n, j, s) for j in range(1 << (n - 1)) for s in (1, -1)]
    gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
    np.testing.assert_allclose(gram, np.eye(1 << n), atol=1e-14)


def test_ghz_ket_validation():
    with pytest.raises(ValueError):
        ghz_ket(3, 4, 1)
    with pytest.raises(ValueError):
        ghz_ket(3, 0, 2)


def test_family_density_pure_ghz():
    w = GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(family_density(w), density_of(ghz_ket(3, 0, 1)))


def test_family_density_uniform_is_maximally_mixed():
    w = GhzWeights(3, 1 / 8, 1 / 8, (1 / 8, 1 / 8, 1 / 8))
    np.testing.assert_allclose(family_density(w), np.eye(8) / 8, atol=1e-15)


def test_family_density_corner_coherence_and_projector_sum():
    rng = np.random.default_rng(37)
    for _ in range(5):
        w = random_weights(3, rng)
        rho = family_density(w)
        assert rho[0, 7].real == pytest.approx(w.delta / 2, abs=1e-15)
        acc = w.lambda0_plus * density_of(ghz_ket(3, 0, 1))
        acc = acc + w.lambda0_minus * density_of(ghz_ket(3, 0, -1))
        for j in (1, 2, 3):
            for s in (1, -1):
                acc = acc + w.lam(j) * density_of(ghz_ket(3, j, s))
        np.testing.assert_allclose(rho, acc, atol=1e-14)


def test_depolarize_fixed_point_and_round_trip():
    w = GhzWeights(3, 0.4, 0.0, (0.2, 0.05, 0.05))
    assert weights_max_diff(depolarize(family_density(w)), w) <= 1e-12

    rng = np.random.default_rng(41)
    for n in (3, 4):
        for _ in range(5):
            w = random_weights(n, rng)
            assert weights_max_diff(depolarize(family_density(w)), w) <= 1e-12


def test_depolarize_pure_ghz_projector():
    w = depolarize(density_of(ghz_ket(3, 0, 1)))
    assert w.lambda0_plus == pytest.approx(1.0, abs=1e-14)
    assert w.lambda0_minus == pytest.approx(0.0, abs=1e-14)
    assert max(w.lambdas) <= 1e-14


def test_depolarize_all_zeros_state():
    w = depolarize(density_of(basis_ket(3, 0)))
    assert w.lambda0_plus == pytest.approx(0.5, abs=1e-14)
    assert w.lambda0_minus == pytest.approx(0.5, abs=1e-14)
    assert max(w.lambdas) <= 1e-14
    assert not w.basis_flipped


def test_depolarize_matches_ghz_basis_oracle():
    rng = np.random.default_rng(43)
    for n in (3, 4):
        for _ in range(5):
            rho = random_density(n, rng)
            w = depolarize(rho)
            l0p, l0m, lams = ghz_basis_weights_oracle(rho)
            if w.basis_flipped:
                l0p, l0m = l0m, l0p
            assert abs(w.lambda0_plus - l0p) <= 1e-12
            assert abs(w.lambda0_minus - l0m) <= 1e-12
            assert max(abs(a - b) for a, b in zip(w.lambdas, lams)) <= 1e-12


def test_depolarize_idempotent_and_valid_on_positive_inputs():
    rng = np.random.default_rng(47)
    for _ in range(10):
        rho = random_density(3, rng)
        w = depolarize(rho)
        assert min(w.lambdas) >= 0.0
        assert w.lambda0_minus >= 0.0
        assert abs(w.total() - 1.0) <= 1e-12
        again = depolarize(family_density(w))
        assert weights_max_diff(again, w) <= 1e-12


def test_depolarize_preserves_ghz_block():
    rng = np.random.default_rng(53)
    for _ in range(5):
        rho = random_density(3, rng)
        w = depolarize(rho)
        l0p, l0m, _ = ghz_basis_weights_oracle(family_density(w))
        raw_p, raw_m, _ = ghz_basis_weights_oracle(rho)
        assert sorted((l0p, l0m)) == pytest.approx(sorted((raw_p, raw_m)), abs=1e-12)


def test_depolarize_canonicalization_flag():
    w = GhzWeights(3, 0.4, 0.1, (0.1, 0.1, 0.05))
    rho = family_density(w)
    rho[0, 7] *= -1  # flip the coherence sign: delta would come out negative
    rho[7, 0] *= -1
    flipped = depolarize(rho)
    assert flipped.basis_flipped
    assert flipped.lambda0_plus == pytest.approx(0.4, abs=1e-14)
    assert flipped.lambda0_minus == pytest.approx(0.1, abs=1e-14)


def test_depolarize_rejects_unnormalized():
    with pytest.raises(ValueError):
        depolarize(np.eye(8, dtype=complex))


def test_werner_closed_forms():
    w = werner_like(3, 0.0)
    assert w.lambda0_plus == pytest.approx(1 / 8)
    assert w.delta == 0.0

    w = werner_like(3, 0.2)
    assert w.lambda0_plus == pytest.approx(0.3, abs=1e-15)
    assert w.lambda0_minus == pytest.approx(0.1, abs=1e-15)
    assert all(abs(x - 0.1) <= 1e-15 for x in w.lambdas)
    assert w.delta == 0.2

    w = werner_like(3, 1.0)
    assert w.lambda0_plus == pytest.approx(1.0)
    assert w.lambda0_minus == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_werner_matches_dense_depolarization(n):
    rng = np.random.default_rng(59)
    for x in (0.0, 0.3, 0.77, 1.0, float(rng.uniform())):
        w = werner_like(n, x)
        dim = 1 << n
        dense = x * density_of(ghz_ket(n, 0, 1)) + (1 - x) / dim * np.eye(dim)
        assert weights_max_diff(depolarize(dense), w) <= 1e-12


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError):
        werner_like(3, -0.1)
    with pytest.raises(ValueError):
        werner_like(3, 1.1)


def test_weights_validation():
    with pytest.raises(ValueError):
        GhzWeights(3, 0.5, 0.5, (0.1,))  # wrong lambda count
    with pytest.raises(ValueError):
        GhzWeights(3, 0.9, 0.2, (0.0, 0.0, 0.0))  # sum != 1
    with pytest.raises(ValueError):
        GhzWeights(3, 0.2, 0.4, (0.1, 0.1, 0.0))  # not canonical
    with pytest.raises(ValueError):
        GhzWeights(3, 0.5, 0.5, (0.1, -0.1, 0.0))  # negative weight
    with pytest.raises(ValueError):
        GhzWeights(3, 0.5, 0.3, (0.1, 0.0, 0.0), delta=0.3)  # inconsistent delta
    for bad in (
        dict(lambda0_plus=float("nan")),  # NaN compares false with every bound
        dict(lambdas=(0.1, float("inf"), 0.1)),
        dict(delta=float("nan")),
    ):
        with pytest.raises(ValueError):
            GhzWeights(**{"n_qubits": 3, "lambda0_plus": 0.5, "lambda0_minus": 0.1,
                          "lambdas": (0.1, 0.0, 0.1), **bad})
    # tiny negatives clamp to zero
    w = GhzWeights(3, 1.0, -1e-13, (0.0, 0.0, -5e-14))
    assert w.lambda0_minus == 0.0
    assert w.lambdas[2] == 0.0


def test_lambdas_are_a_read_only_float_copy():
    given = [0.1, 0.0, 0.1]
    w = GhzWeights(3, 0.5, 0.1, given)
    given[0] = 0.3
    assert w.lambdas.tolist() == [0.1, 0.0, 0.1]
    assert w.lambdas.dtype == np.float64 and w.lambdas.shape == (3,)
    assert type(w.lam(1)) is float
    with pytest.raises(ValueError):
        w.lambdas[0] = 0.2
    with pytest.raises(ValueError):
        GhzWeights(3, 0.5, 0.1, [[0.1, 0.0, 0.1]])  # not 1-d
    # the first weight beyond the clamp is the one named
    with pytest.raises(ValueError, match=r"^lambda_2 = -0\.1 is negative beyond tolerance$"):
        GhzWeights(3, 0.5, 0.5, (0.1, -0.1, -0.2))


def test_random_weights_are_canonical_and_normalized():
    rng = np.random.default_rng(61)
    for n in (2, 3, 4):
        for _ in range(20):
            w = random_weights(n, rng)
            assert w.delta >= 0.0
            assert abs(w.total() - 1.0) <= 1e-12


def test_permute_weights_matches_dense_permutation():
    rng = np.random.default_rng(67)
    from itertools import permutations

    w = random_weights(3, rng)
    for source in permutations(range(3)):
        permuted = permute_weights(w, source)
        dense = permute_qubits(family_density(w), source)
        assert weights_max_diff(permuted, depolarize(dense)) <= 1e-12
    w4 = random_weights(4, rng)
    for source in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 0, 3, 1)):
        permuted = permute_weights(w4, source)
        dense = permute_qubits(family_density(w4), source)
        assert weights_max_diff(permuted, depolarize(dense)) <= 1e-12


def test_two_qubit_family_degenerates_to_bell_diagonal():
    # one pair weight only; threshold at x = 1/3 for the noisy Bell mixture
    w = werner_like(2, 1 / 3)
    assert len(w.lambdas) == 1
    assert w.delta <= 2 * w.lam(1) + 1e-15
    from sepkit import pt_positive_analytic

    for x, ppt in ((0.2, True), (1 / 3 - 1e-9, True), (1 / 3 + 1e-9, False), (0.5, False)):
        w = werner_like(2, x)
        for mask in (0b10, 0b01):
            assert pt_positive_analytic(w, mask) is ppt
            # tighter tolerance so the oracle resolves the 1e-9 window
            assert tensor.is_ppt(family_density(w), mask, tol=1e-10) is ppt


def python_left_sum(values):
    """Left-to-right sum of Python floats from 0.0, on any Python version."""
    return functools.reduce(operator.add, values.tolist(), 0.0)


def test_left_sum_is_the_python_left_to_right_sum():
    rng = np.random.default_rng(2026)
    tiny = np.array([5e-324, 2.2250738585072014e-308, 2.225073858507201e-308])
    cases = [
        np.zeros(1), np.zeros(7), np.array([-0.0]), np.full(5, -0.0), np.array([-0.0, 0.0, -0.0]),
        np.array([0.0, -0.0]), np.array([0.3]), np.array([5e-324]), tiny, -tiny,
        np.concatenate([tiny, [-0.0, 1e-300, -1e-300]]), np.array([1e16, 1.0, -1e16, 1.0]),
    ]
    for _ in range(2000):
        size = int(rng.integers(1, 600))
        values = rng.dirichlet(np.ones(size)) if rng.random() < 0.5 else rng.standard_normal(size)
        cases.append(values * 10.0 ** rng.integers(-320, 300) if rng.random() < 0.2 else values)
    for values in cases:
        got = _left_sum(values)
        want = python_left_sum(values)
        assert type(got) is float
        # bit for bit, the sign of zero included
        assert struct.pack("<d", got) == struct.pack("<d", want), values
    assert _left_sum(np.zeros(0)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 8, 14])
def test_total_and_depolarize_add_left_to_right(n):
    rng = np.random.default_rng(n)
    w = random_weights(n, rng)
    assert w.total() == w.lambda0_plus + w.lambda0_minus + 2.0 * python_left_sum(w.lambdas)
    if n <= 8:
        rho = random_density(n, rng)
        diag = rho.diagonal().real
        block = (diag[0] + diag[-1]) / 2.0
        coherence = rho[0, -1].real
        lams = (diag[2::2] + diag[-3::-2]) / 2.0
        got = depolarize(rho)
        high, low = sorted((block + coherence, block - coherence), reverse=True)
        total = high + low + 2.0 * python_left_sum(lams)
        assert got.lambda0_plus == high / total
        assert np.array_equal(got.lambdas, lams / total)
