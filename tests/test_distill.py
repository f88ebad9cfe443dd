import statistics
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    BELL_PHI_PLUS,
    KET_PLUS,
    exact_margin,
    permute_qubits,
    project_qubit,
    reference_dense_filter_oracle,
    reference_minimal_m,
    reference_sparse_filter_oracle,
    weights_max_diff,
)
from sepkit import (
    GhzWeights,
    amplify,
    dense_filter_oracle,
    depolarize,
    family_density,
    filter_operator,
    minimal_m,
    minimal_m_raw,
    pair_distillable,
    pair_fidelity_after_projection,
    permute_weights,
    plan_pair_distillation,
    random_weights,
    separable_wrt,
    werner_like,
)
from sepkit import tensor
from sepkit.distill import DENSE_ORACLE_MAX_COPIES

CLASS2_WEIGHTS = GhzWeights(3, 0.4, 0.0, (0.2, 0.05, 0.05))


def dense_projection_fidelity(w):
    """Independent route: project qubit 0 on |+> and take the Bell overlap."""
    reduced, prob = project_qubit(family_density(w), 0, KET_PLUS)
    fid = float(np.real(BELL_PHI_PLUS.conj() @ reduced @ BELL_PHI_PLUS))
    return fid, prob


def test_fidelity_pure_ghz():
    w = GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0))
    fid, prob = pair_fidelity_after_projection(w)
    assert fid == pytest.approx(1.0)
    assert prob == 0.5


def test_fidelity_werner_03_not_directly_purifiable():
    w = werner_like(3, 0.3)
    fid, prob = pair_fidelity_after_projection(w)
    assert fid == pytest.approx(0.475, abs=1e-15)
    assert fid <= 0.5
    # yet every single-qubit transpose is negative
    assert not any(separable_wrt(w, q) for q in range(3))


def test_fidelity_criterion_equivalence_random():
    rng = np.random.default_rng(103)
    for _ in range(300):
        w = random_weights(3, rng)
        fid, _ = pair_fidelity_after_projection(w)
        assert (fid > 0.5) == (w.delta / 2 > w.lam(1) + w.lam(3))


def test_fidelity_matches_dense_projection():
    rng = np.random.default_rng(107)
    for _ in range(50):
        w = random_weights(3, rng)
        fid, prob = pair_fidelity_after_projection(w)
        dense_fid, dense_prob = dense_projection_fidelity(w)
        assert abs(fid - dense_fid) <= 1e-12
        assert abs(prob - dense_prob) <= 1e-12


def test_filter_operator_structure():
    np.testing.assert_array_equal(filter_operator(1), np.eye(2))
    for m in (1, 2, 3):
        p = filter_operator(m)
        nz = np.argwhere(p != 0)
        assert len(nz) == 2
        assert all(p[i, j] == 1.0 for i, j in nz)
        gram = p.conj().T @ p
        np.testing.assert_allclose(gram @ gram, gram, atol=1e-15)
        assert np.linalg.matrix_rank(gram) == 2


def test_filter_never_increases_trace():
    rng = np.random.default_rng(109)
    for _ in range(10):
        w = random_weights(3, rng)
        _, prob = amplify(w, 2)
        assert 0.0 < prob <= 1.0 + 1e-12


def test_amplify_single_copy_is_identity():
    rng = np.random.default_rng(113)
    for _ in range(10):
        w = random_weights(3, rng)
        out, prob = amplify(w, 1)
        assert weights_max_diff(out, w) <= 1e-12
        assert abs(prob - 1.0) <= 1e-12


def test_amplify_pure_ghz():
    w = GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0))
    for m in (1, 2, 3, 5):
        out, prob = amplify(w, m)
        assert out.lambda0_plus == pytest.approx(1.0, abs=1e-14)
        assert prob == pytest.approx(2.0 * 0.5**m, abs=1e-15)
    sigma, prob = dense_filter_oracle(w, 2)
    np.testing.assert_allclose(sigma, family_density(w), atol=1e-12)
    assert prob == pytest.approx(0.5, abs=1e-14)


def test_amplify_rejects_bad_m():
    with pytest.raises(ValueError):
        amplify(werner_like(3, 0.3), 0)


def test_amplify_matches_dense_oracle():
    rng = np.random.default_rng(127)
    draws = [werner_like(3, 0.3)] + [random_weights(3, rng) for _ in range(10)]
    for w in draws:
        for m in (2, 3):
            out, prob = amplify(w, m)
            sigma, prob_oracle = dense_filter_oracle(w, m)
            assert np.abs(family_density(out) - sigma).max() <= 1e-10
            assert abs(prob - prob_oracle) <= 1e-12
            assert weights_max_diff(out, depolarize(sigma)) <= 1e-10


def test_dense_oracle_single_copy_and_structure():
    rng = np.random.default_rng(131)
    w = random_weights(3, rng)
    sigma, prob = dense_filter_oracle(w, 1)
    np.testing.assert_allclose(sigma, family_density(w), atol=1e-14)
    assert abs(prob - 1.0) <= 1e-12

    sigma, _ = dense_filter_oracle(w, 2)
    assert np.abs(sigma - sigma.conj().T).max() <= 1e-14
    assert sigma.trace().real == pytest.approx(1.0, abs=1e-12)
    support = np.zeros((8, 8), dtype=bool)
    support[np.diag_indices(8)] = True
    support[0, 7] = support[7, 0] = True
    assert np.abs(sigma[~support]).max() <= 1e-14


def test_dense_oracle_probability_floor():
    # 2 (b**m + sum lam_k**m) with b + sum lam_k = 1/2 is least, 8**(1 - m),
    # where all four bases are 1/8: the probability never nears zero
    for m in range(1, DENSE_ORACLE_MAX_COPIES + 1):
        _, prob = dense_filter_oracle(werner_like(3, 0.0), m)
        assert abs(prob - 8.0 ** (1 - m)) <= 1e-15


def test_dense_oracle_rejects_above_cap():
    with pytest.raises(ValueError):
        dense_filter_oracle(werner_like(3, 0.3), DENSE_ORACLE_MAX_COPIES + 1)


@st.composite
def oracle_weights(draw):
    """random_weights(3) from a drawn seed, with a drawn subset of
    lambda0_minus and the three pair weights set to zero and the rest
    rescaled; zeroing all four gives the pure GHZ state."""
    w = random_weights(3, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    zeroed = draw(st.lists(st.integers(1, 4), unique=True, max_size=4))
    if not zeroed:
        return w
    masses = np.array([w.lambda0_plus, w.lambda0_minus, *(2.0 * w.lambdas)])
    masses[zeroed] = 0.0
    masses /= masses.sum()
    return GhzWeights(3, masses[0], masses[1], masses[2:] / 2.0)


@settings(max_examples=300)
@example(w=GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0)), m=3)
@example(w=CLASS2_WEIGHTS, m=3)
@example(w=werner_like(3, 0.3), m=3)
@given(w=oracle_weights(), m=st.integers(min_value=1, max_value=3))
def test_dense_oracle_bit_identical_to_full_matrix(w, m):
    sigma, prob = dense_filter_oracle(w, m)
    full_sigma, full_prob = reference_dense_filter_oracle(w, m)
    assert np.array_equal(sigma, full_sigma)
    assert prob == full_prob


def test_dense_oracle_bit_identical_to_sparse_reference_at_m4_m5():
    rng = np.random.default_rng(223)
    draws = [werner_like(3, 0.3), CLASS2_WEIGHTS] + [random_weights(3, rng) for _ in range(3)]
    for m in (4, 5):
        for w in draws:
            sigma, prob = dense_filter_oracle(w, m)
            ref_sigma, ref_prob = reference_sparse_filter_oracle(w, m)
            assert np.array_equal(sigma, ref_sigma)
            assert prob == ref_prob


def test_dense_oracle_memory_at_cap():
    # werner_like(3, 0.3) has all ten nonzeros a family state can have
    tracemalloc.start()
    try:
        dense_filter_oracle(werner_like(3, 0.3), DENSE_ORACLE_MAX_COPIES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_amplification_ratio_strictly_increases():
    rng = np.random.default_rng(137)
    found = 0
    while found < 10:
        w = random_weights(3, rng)
        half = w.delta / 2
        if half <= max(w.lam(1), w.lam(3)) or w.lam(1) + w.lam(3) == 0:
            continue
        found += 1
        ratios = [half**m / (w.lam(1) ** m + w.lam(3) ** m) for m in range(1, 11)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_minimal_m_raw_worked_instance():
    # m = 1 fails (0.3 <= 0.4), m = 2 passes (0.09 > 0.08)
    assert minimal_m_raw(0.3, 0.2, 0.2) == 2
    assert minimal_m_raw(0.3, 0.1, 0.05) == 1
    assert minimal_m_raw(0.3, 0.3, 0.1) is None
    assert minimal_m_raw(0.3, 0.0, 0.0) == 1


def test_minimal_m_werner_03():
    w = werner_like(3, 0.3)
    assert minimal_m(w) == 2
    # consistency with the amplified fidelity
    before, _ = pair_fidelity_after_projection(w)
    assert before <= 0.5
    after, _ = pair_fidelity_after_projection(amplify(w, 2)[0])
    assert after > 0.5


def test_minimal_m_immediate_when_already_strong():
    w = GhzWeights(3, 0.6, 0.0, (0.1, 0.05, 0.05))  # delta/2 = 0.3 > 0.15
    assert minimal_m(w) == 1


def test_minimal_m_none_when_not_distillable():
    assert minimal_m(werner_like(3, 0.19)) is None


def test_minimal_m_cap_reached():
    # ratio 1 + 1e-12: far beyond where a linear scan ends, found exactly
    half_delta, lam = 0.2 * (1 + 1e-12), 0.2
    m = minimal_m_raw(half_delta, lam, lam)
    assert m == 693124037543
    assert exact_margin(half_delta, lam, lam, m) > 0
    assert exact_margin(half_delta, lam, lam, m - 1) < 0


# Pair weights, zero included, and half_delta = max weight * (1 + excess)
# with excess = 10**-digits, so m* spreads from 1 to about 10**4. Equal
# weights (no excess) are the worked instance's None case.
WEIGHT = st.floats(min_value=1e-3, max_value=0.5)
PAIR_WEIGHTS = st.one_of(st.just(0.0), WEIGHT, WEIGHT, WEIGHT)
EXCESSES = st.floats(min_value=0.0, max_value=4.0).map(lambda digits: 10.0**-digits)
REFERENCE_LIMIT = 2000


@settings(max_examples=300)
@given(lam1=PAIR_WEIGHTS, lam3=PAIR_WEIGHTS, excess=EXCESSES)
def test_minimal_m_raw_matches_exact_scan(lam1, lam3, excess):
    half_delta = (max(lam1, lam3) or 0.25) * (1.0 + excess)
    m = minimal_m_raw(half_delta, lam1, lam3)
    expected = reference_minimal_m(half_delta, lam1, lam3, REFERENCE_LIMIT)
    if expected is None:
        assert m > REFERENCE_LIMIT
    else:
        assert m == expected


def test_minimal_m_threshold_ladder():
    # werner_like(3, 1/5 + 10**-k): pair-distillable just above the threshold
    previous = 0
    for k in range(1, 13):
        w = werner_like(3, 0.2 + 10.0**-k)
        half_delta, lam1, lam3 = w.delta / 2, w.lam(1), w.lam(3)
        times = []
        for _ in range(21):
            start = time.perf_counter()
            m = minimal_m(w)
            times.append(time.perf_counter() - start)
        assert statistics.median(times) < 1e-3
        assert exact_margin(half_delta, lam1, lam3, m) > 0
        assert m == 1 or exact_margin(half_delta, lam1, lam3, m - 1) <= 0
        assert m > previous
        previous = m
        outcome = plan_pair_distillation(w, 1, 2)
        assert outcome.m_used == m
        assert outcome.purifiable
    assert previous == 110901077216


def test_amplify_huge_copy_count():
    draws = [werner_like(3, 0.3), werner_like(3, 0.2 + 1e-7)]
    draws.append(random_weights(3, np.random.default_rng(151)))
    for w in draws:
        out, prob = amplify(w, 10**6)
        assert abs(out.total() - 1.0) <= 1e-12
        assert 0.0 <= prob < tensor.DEGENERATE_PROBABILITY
        assert out.lambda0_plus >= out.lambda0_minus >= 0.0


def test_relabel_agrees_with_permutation_and_oracle():
    # the projection frame of plan_pair_distillation: spectator first
    rng = np.random.default_rng(139)
    for _ in range(5):
        w = random_weights(3, rng)
        for i in range(3):
            for k in range(3):
                if i == k:
                    continue
                spectator = 3 - i - k
                frame = permute_weights(w, (spectator, i, k))
                dense = permute_qubits(family_density(w), (spectator, i, k))
                assert weights_max_diff(frame, depolarize(dense)) <= 1e-12
                # positivity pattern must travel with the relabeling
                assert separable_wrt(w, i) == separable_wrt(frame, 1)
                assert separable_wrt(w, k) == separable_wrt(frame, 2)
                assert separable_wrt(w, spectator) == separable_wrt(frame, 0)
                outcome = plan_pair_distillation(w, i, k)
                if outcome is not None:
                    filtered, _ = amplify(frame, outcome.m_used)
                    assert weights_max_diff(filtered, outcome.filtered_weights) == 0.0


def test_plan_class2_instance():
    # only qubit 1's transpose is positive: pair (0, 2) works, others do not
    outcome = plan_pair_distillation(CLASS2_WEIGHTS, 0, 2)
    assert outcome is not None
    assert outcome.m_used == 1  # delta/2 = 0.2 > lambda_2 + lambda_3 = 0.1
    assert outcome.purifiable
    assert plan_pair_distillation(CLASS2_WEIGHTS, 0, 1) is None
    assert plan_pair_distillation(CLASS2_WEIGHTS, 1, 2) is None


def test_plan_werner_021():
    outcome = plan_pair_distillation(werner_like(3, 0.21), 1, 2)
    assert outcome is not None
    assert outcome.m_used >= 1
    assert outcome.purifiable
    assert outcome.pair_fidelity > 0.5


def test_plan_fully_separable_never_distills():
    w = werner_like(3, 0.19)
    for i, k in ((0, 1), (0, 2), (1, 2)):
        assert plan_pair_distillation(w, i, k) is None


def test_plan_matches_pair_distillable_random():
    rng = np.random.default_rng(149)
    for _ in range(100):
        w = random_weights(3, rng)
        for i, k in ((0, 1), (0, 2), (1, 2)):
            outcome = plan_pair_distillation(w, i, k)
            assert (outcome is not None) == pair_distillable(w, i, k)
            if outcome is not None:
                assert outcome.purifiable == (outcome.pair_fidelity > 0.5)
                assert outcome.purifiable  # minimal m guarantees it
                assert 0.0 < outcome.filter_success_probability <= 1.0 + 1e-12
                assert outcome.projection_success_probability == 0.5


def test_plan_with_explicit_m_override():
    outcome = plan_pair_distillation(werner_like(3, 0.3), 1, 2, m=1)
    assert outcome is not None
    assert outcome.m_used == 1
    assert outcome.pair_fidelity == pytest.approx(0.475, abs=1e-15)
    assert not outcome.purifiable


def test_plan_rejects_bad_pair():
    with pytest.raises(ValueError):
        plan_pair_distillation(CLASS2_WEIGHTS, 2, 2)
    with pytest.raises(ValueError):
        plan_pair_distillation(CLASS2_WEIGHTS, 0, 5)


def test_filtered_weights_describe_projected_frame():
    # for the class-2 state the spectator is qubit 1; after relabeling the
    # projected fidelity must match a dense simulation of the same plan
    outcome = plan_pair_distillation(CLASS2_WEIGHTS, 0, 2)
    relabeled = permute_weights(CLASS2_WEIGHTS, (1, 0, 2))
    filtered, _ = amplify(relabeled, outcome.m_used)
    assert weights_max_diff(filtered, outcome.filtered_weights) == 0.0
    reduced, prob = project_qubit(family_density(filtered), 0, KET_PLUS)
    fid = float(np.real(BELL_PHI_PLUS.conj() @ reduced @ BELL_PHI_PLUS))
    assert abs(fid - outcome.pair_fidelity) <= 1e-12
    assert abs(prob - outcome.projection_success_probability) <= 1e-12
