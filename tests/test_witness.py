import numpy as np
import pytest

from helpers import (
    basis_ket,
    density_of,
    random_class5_weights,
    reference_ensemble_density,
    reference_rho_hat_density,
    weights_max_diff,
)
from sepkit import (
    EnsembleNotApplicableError,
    GhzWeights,
    SeparableEnsemble,
    build_rho_hat,
    build_rho_tilde,
    depolarize,
    ensemble_density,
    family_density,
    fully_separable_ensemble,
    ghz_ket,
    random_weights,
    rho_hat_density,
    verify_ensemble,
    werner_like,
)
from sepkit import tensor
from sepkit.witness import KETS

MASK_FIRST_QUBIT = 0b100


def test_rho_tilde_reduces_to_family_when_delta_zero():
    w = GhzWeights(3, 0.2, 0.2, (0.1, 0.15, 0.05))
    np.testing.assert_array_equal(build_rho_tilde(w), family_density(w))


def test_rho_tilde_matches_projector_construction():
    rng = np.random.default_rng(71)
    for _ in range(5):
        w = random_weights(3, rng)
        direct = build_rho_tilde(w)
        p2p = density_of(ghz_ket(3, 2, 1))
        p2m = density_of(ghz_ket(3, 2, -1))
        expected = family_density(w) + (w.delta / 2) * (p2p - p2m)
        np.testing.assert_allclose(direct, expected, atol=1e-15)


def test_rho_tilde_partial_transpose_invariance_exact():
    rng = np.random.default_rng(73)
    for _ in range(20):
        w = random_weights(3, rng)
        rt = build_rho_tilde(w)
        np.testing.assert_array_equal(tensor.partial_transpose(rt, MASK_FIRST_QUBIT), rt)


def test_rho_tilde_boundary_min_eigenvalue_zero():
    w = GhzWeights(3, 0.4, 0.0, (0.05, 0.2, 0.05))  # delta == 2 lambda_2
    assert abs(tensor.min_eigenvalue(build_rho_tilde(w))) <= 1e-12


def test_rho_tilde_positive_iff_first_qubit_ppt():
    rng = np.random.default_rng(79)
    for _ in range(50):
        w = random_weights(3, rng)
        if abs(w.delta - 2 * w.lam(2)) < 1e-9:
            continue  # skip the knife edge; covered by the boundary test
        positive = tensor.min_eigenvalue(build_rho_tilde(w)) >= -1e-10
        assert positive == (w.delta <= 2 * w.lam(2))


def test_rho_tilde_pure_ghz_not_positive():
    w = GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0))
    assert tensor.min_eigenvalue(build_rho_tilde(w)) == pytest.approx(-0.5, abs=1e-12)


def test_rho_tilde_requires_three_qubits():
    with pytest.raises(ValueError):
        build_rho_tilde(werner_like(4, 0.1))


def test_build_rho_hat_werner_example():
    hw = build_rho_hat(werner_like(3, 0.2))
    assert hw.hat_plus == pytest.approx((0.2, 0.2, 0.2), abs=1e-15)
    assert hw.hat_minus == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_build_rho_hat_delta_zero_is_identity_split():
    w = GhzWeights(3, 0.2, 0.2, (0.1, 0.15, 0.05))
    hw = build_rho_hat(w)
    assert hw.hat_plus == pytest.approx(w.lambdas)
    assert hw.hat_minus == pytest.approx(w.lambdas)
    np.testing.assert_allclose(rho_hat_density(hw), family_density(w), atol=1e-15)


def test_build_rho_hat_reports_offending_index():
    w = GhzWeights(3, 0.3, 0.1, (0.05, 0.15, 0.1))  # lambda_1 < delta/2
    with pytest.raises(EnsembleNotApplicableError) as err:
        build_rho_hat(w)
    assert err.value.lambda_index == 1


def test_rho_hat_depolarizes_back():
    rng = np.random.default_rng(83)
    for w in random_class5_weights(rng, 10):
        hat = rho_hat_density(build_rho_hat(w))
        assert weights_max_diff(depolarize(hat), w) <= 1e-12


def test_phi_identity():
    phi_sum = np.zeros((8, 8), dtype=complex)
    for pattern in (0, 3, 5, 6):  # minus factors where the bits are set, an even number
        f = [KETS[2 + ((pattern >> (2 - q)) & 1)] for q in range(3)]
        psi = np.kron(np.kron(f[0], f[1]), f[2])
        phi_sum += np.outer(psi, psi.conj())
    ghz_sum = sum(density_of(ghz_ket(3, j, 1)) for j in range(4))
    assert np.abs(phi_sum - ghz_sum).max() <= 1e-14


def test_ensemble_werner_example_terms():
    ens = fully_separable_ensemble(werner_like(3, 0.2))
    assert len(ens.weights) == 6
    weights = ens.weights.tolist()
    assert weights[:2] == pytest.approx([0.1, 0.1], abs=1e-15)
    assert weights[2:] == pytest.approx([0.2] * 4, abs=1e-15)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    # first two terms are |000> and |111>
    np.testing.assert_allclose(
        ensemble_density(SeparableEnsemble(ens.weights[:1], ens.factors[:1])) * 10,
        density_of(basis_ket(3, 0)),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        ensemble_density(SeparableEnsemble(ens.weights[1:2], ens.factors[1:2])) * 10,
        density_of(basis_ket(3, 7)),
        atol=1e-14,
    )


def test_ensemble_reconstructs_rho_hat():
    rng = np.random.default_rng(89)
    for w in random_class5_weights(rng, 20):
        ens = fully_separable_ensemble(w)
        hat = rho_hat_density(build_rho_hat(w))
        assert verify_ensemble(ens, hat) <= 1e-10
        assert weights_max_diff(depolarize(ensemble_density(ens)), w) <= 1e-12


def test_ensemble_delta_zero_is_computational_mixture():
    w = GhzWeights(3, 1 / 8, 1 / 8, (1 / 8, 1 / 8, 1 / 8))
    ens = fully_separable_ensemble(w)
    assert len(ens.weights) == 8  # no +- basis terms needed
    np.testing.assert_allclose(ensemble_density(ens), np.eye(8) / 8, atol=1e-14)


def test_ensemble_refused_outside_class5():
    with pytest.raises(EnsembleNotApplicableError):
        fully_separable_ensemble(GhzWeights(3, 0.4, 0.0, (0.2, 0.05, 0.05)))


def test_verify_ensemble_trivial_and_sensitivity():
    factors = [[basis_ket(1, 0)] * 3]
    ens = SeparableEnsemble([1.0], factors)
    target = density_of(basis_ket(3, 0))
    assert verify_ensemble(ens, target) == 0.0

    bumped = SeparableEnsemble([1.0 + 1e-3], factors)
    assert verify_ensemble(bumped, target) >= 1e-4


def bit_identity_draws():
    """200 seeded class-5 trios, werner_like(3, 0.2), and two trios with zero weights."""
    return random_class5_weights(np.random.default_rng(211), 200) + [
        werner_like(3, 0.2),
        GhzWeights(3, 0.5, 0.5, (0.0, 0.0, 0.0)),
        GhzWeights(3, 0.25, 0.0, (0.125, 0.125, 0.125)),
    ]


def test_ensemble_density_bit_identical_to_kron_reference():
    for w in bit_identity_draws():
        ens = fully_separable_ensemble(w)
        # the same terms with every third weight zeroed
        zeroed = SeparableEnsemble(
            np.where(np.arange(len(ens.weights)) % 3 == 0, 0.0, ens.weights), ens.factors
        )
        for e in (ens, zeroed):
            assert np.array_equal(ensemble_density(e), reference_ensemble_density(e))
        hat = rho_hat_density(build_rho_hat(w))
        assert verify_ensemble(ens, hat) == np.abs(reference_ensemble_density(ens) - hat).max()


def test_rho_hat_density_bit_identical_to_dense_loop():
    for w in bit_identity_draws():
        hw = build_rho_hat(w)
        assert np.array_equal(rho_hat_density(hw), reference_rho_hat_density(hw))


def test_empty_ensemble_is_the_zero_matrix():
    empty = SeparableEnsemble(np.zeros(0), np.zeros((0, 3, 2)))
    assert np.array_equal(ensemble_density(empty), np.zeros((8, 8)))
    target = family_density(werner_like(3, 0.3))
    assert verify_ensemble(empty, target) == np.abs(target).max()


def test_verify_ensemble_rejects_malformed():
    good = [basis_ket(1, 0)] * 3
    target = np.eye(8, dtype=complex) / 8
    with pytest.raises(ValueError):
        verify_ensemble(SeparableEnsemble([-0.5], [good]), target)
    with pytest.raises(ValueError):  # a product over two qubits, not three
        verify_ensemble(SeparableEnsemble([1.0], [good[:2]]), target)
    with pytest.raises(ValueError):
        verify_ensemble(SeparableEnsemble([1.0], [[np.array([1.0, 1.0])] + good[:2]]), target)


def test_verify_ensemble_rejects_target_of_wrong_shape():
    ens = fully_separable_ensemble(werner_like(3, 0.2))
    for target in (np.zeros(8), 0.0, np.eye(8)[:1], np.eye(16) / 16):
        with pytest.raises(ValueError, match="target has shape"):
            verify_ensemble(ens, target)


def test_separable_ensemble_rejects_other_shapes():
    good = [basis_ket(1, 0)] * 3
    for weights, factors in (
        ([1.0], [[basis_ket(2, 0)] + good[:2]]),  # ragged: a two-qubit factor
        ([1.0, 1.0], [good[:2], good]),  # ragged: terms over different qubit counts
        ([1.0], [basis_ket(3, 0)]),  # a full ket, not a product
        ([1.0], [[basis_ket(2, 0)] * 3]),  # dim-4 factors
        ([1.0, 0.0], [good]),  # two weights, one term
        ([[1.0]], [good]),  # weights not 1-d
        ([1.0], np.zeros((1, 0, 2))),  # no qubits
    ):
        with pytest.raises(ValueError):
            SeparableEnsemble(weights, factors)


def test_separable_ensemble_arrays_are_read_only_copies():
    weights, factors = np.array([1.0]), np.array([[basis_ket(1, 0)] * 3])
    ens = SeparableEnsemble(weights, factors)
    assert ens.n_qubits == 3
    assert ens.weights.shape == (1,) and ens.factors.shape == (1, 3, 2)
    for a in (ens.weights, ens.factors):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    weights[0] = 0.5  # the caller's arrays stay writable and are not shared
    assert ens.weights[0] == 1.0
    assert fully_separable_ensemble(werner_like(3, 0.2)).factors.flags.writeable is False


def test_ensemble_factors_are_normalized_products():
    rng = np.random.default_rng(97)
    for w in random_class5_weights(rng, 5):
        ens = fully_separable_ensemble(w)
        for weight, factors in zip(ens.weights, ens.factors):
            assert weight >= 0.0
            assert len(factors) == 3
            for f in factors:
                assert abs(np.vdot(f, f).real - 1.0) <= 1e-14
