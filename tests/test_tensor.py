import numpy as np
import pytest

from helpers import (
    BELL_PHI_PLUS,
    KET_PLUS,
    brute_permutation_unitary,
    partial_trace,
    permute_qubits,
    project_qubit,
    random_density,
)
from sepkit import family_density, random_weights, tensor, werner_like


def test_partial_transpose_diagonal_invariant():
    rng = np.random.default_rng(11)
    rho = np.diag(rng.dirichlet(np.ones(8))).astype(complex)
    for mask in range(1, 7):
        np.testing.assert_array_equal(tensor.partial_transpose(rho, mask), rho)


def test_partial_transpose_bell_min_eigenvalue():
    rho = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    pt = tensor.partial_transpose(rho, 0b01)
    # hand-computed 4x4: swapping the second qubit's indices moves the
    # corner coherences onto the antidiagonal
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(pt, expected, atol=1e-15)
    assert abs(tensor.min_eigenvalue(pt) + 0.5) <= 1e-12


def test_partial_transpose_involution_and_full_transpose():
    rng = np.random.default_rng(13)
    rho = random_density(3, rng)
    for mask in (1, 2, 5):
        twice = tensor.partial_transpose(tensor.partial_transpose(rho, mask), mask)
        np.testing.assert_array_equal(twice, rho)
        composed = tensor.partial_transpose(
            tensor.partial_transpose(rho, mask), tensor.complement(mask, 3)
        )
        np.testing.assert_allclose(composed, rho.T, atol=0)


def test_partial_transpose_spectrum_complement_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(3, rng)
        for mask in range(1, 7):
            s1 = np.linalg.eigvalsh(tensor.partial_transpose(rho, mask))
            s2 = np.linalg.eigvalsh(
                tensor.partial_transpose(rho, tensor.complement(mask, 3))
            )
            np.testing.assert_allclose(s1, s2, atol=1e-10)


def test_partial_transpose_rejects_improper_masks():
    rho = np.eye(8, dtype=complex) / 8
    for mask in (0, 7, -1, 8):
        with pytest.raises(ValueError):
            tensor.partial_transpose(rho, mask)


def test_min_eigenvalue_basics():
    assert tensor.min_eigenvalue(np.eye(8, dtype=complex)) == pytest.approx(1.0)
    proj = np.zeros((8, 8), dtype=complex)
    proj[3, 3] = 1.0
    assert abs(tensor.min_eigenvalue(proj)) <= 1e-12


def test_min_eigenvalue_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        tensor.min_eigenvalue(bad)


def test_is_ppt_maximally_mixed():
    rho = np.eye(8, dtype=complex) / 8
    assert all(tensor.is_ppt(rho, mask) for mask in range(1, 7))


def test_is_ppt_ghz_projector_negative():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    rho = np.outer(ghz, ghz.conj())
    assert not tensor.is_ppt(rho, 0b100)


def test_is_ppt_complement_agrees():
    rng = np.random.default_rng(19)
    for _ in range(5):
        rho = random_density(3, rng)
        for mask in range(1, 7):
            assert tensor.is_ppt(rho, mask) == tensor.is_ppt(
                rho, tensor.complement(mask, 3)
            )


def _complex_path_verdict(rho, mask):
    """is_ppt as the complex eigen-solver decides it."""
    pt = tensor.partial_transpose(rho, mask).astype(complex)
    return tensor.min_eigenvalue(pt) >= -tensor.DEFAULT_PT_TOL


def test_is_ppt_real_path_matches_complex_path():
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        d = 1 << n
        g = rng.standard_normal((d, d))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        inputs = [
            family_density(random_weights(n, rng)),
            family_density(werner_like(n, 1 / (1 + 2 ** (n - 1)))),  # on the boundary
            family_density(werner_like(n, 0.9)),
            g @ g.T / np.trace(g @ g.T),  # real, but not a family state
            random_density(n, rng),
            (h + h.conj().T) / 2,  # complex Hermitian, indefinite
        ]
        for rho in inputs:
            for mask in range(1, d - 1):
                assert tensor.is_ppt(rho, mask) == _complex_path_verdict(rho, mask)


def test_project_qubit_product_state():
    rho = tensor.density_of(tensor.basis_ket(2, 0))
    reduced, prob = project_qubit(rho, 0, tensor.basis_ket(1, 0))
    np.testing.assert_allclose(reduced, tensor.density_of(tensor.basis_ket(1, 0)))
    assert prob == pytest.approx(1.0)


def test_project_qubit_ghz_on_plus_gives_bell():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    reduced, prob = project_qubit(tensor.density_of(ghz), 0, KET_PLUS)
    np.testing.assert_allclose(
        reduced, np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()), atol=1e-14
    )
    assert abs(prob - 0.5) <= 1e-14


def test_project_qubit_ghz_on_zero_selects_branch():
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = np.sqrt(0.5)
    reduced, prob = project_qubit(tensor.density_of(ghz), 0, tensor.basis_ket(1, 0))
    np.testing.assert_allclose(reduced, tensor.density_of(tensor.basis_ket(2, 0)), atol=1e-14)
    assert abs(prob - 0.5) <= 1e-14


def test_project_qubit_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    rho = random_density(3, rng)
    for k in range(3):
        _, p0 = project_qubit(rho, k, tensor.basis_ket(1, 0))
        _, p1 = project_qubit(rho, k, tensor.basis_ket(1, 1))
        assert abs(p0 + p1 - 1.0) <= 1e-12


def test_project_qubit_degenerate_outcome():
    rho = tensor.density_of(tensor.basis_ket(2, 3))
    with pytest.raises(tensor.DegenerateOutcomeError):
        project_qubit(rho, 0, tensor.basis_ket(1, 0))


def test_project_qubit_requires_normalized_ket():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        project_qubit(rho, 0, np.array([1.0, 1.0]))


def test_permute_qubits_matches_brute_force():
    rng = np.random.default_rng(29)
    for n, source in ((3, (2, 0, 1)), (3, (1, 0, 2)), (4, (3, 1, 0, 2))):
        rho = random_density(n, rng)
        u = brute_permutation_unitary(source, n)
        np.testing.assert_allclose(
            permute_qubits(rho, source), u @ rho @ u.T, atol=1e-14
        )


def test_partial_trace_of_product():
    rng = np.random.default_rng(31)
    a = random_density(1, rng)
    b = random_density(2, rng)
    rho = np.kron(a, b)
    np.testing.assert_allclose(partial_trace(rho, keep=(0,)), a, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, keep=(1, 2)), b, atol=1e-14)


def test_mask_helpers():
    assert tensor.qubits_to_mask((0,), 3) == 0b100
    assert tensor.qubits_to_mask((2,), 3) == 0b001
    assert tensor.mask_to_qubits(0b101, 3) == (0, 2)
    assert tensor.complement(0b100, 3) == 0b011
    with pytest.raises(ValueError):
        tensor.qubits_to_mask((3,), 3)
