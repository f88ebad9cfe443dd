from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_pair_distillable, reference_pairs
from sepkit import (
    GhzWeights,
    bipartition_masks,
    classify3,
    classify_family,
    family_density,
    fully_separable,
    ghz_distillable,
    pair_distillable,
    partition_lambda_index,
    permute_weights,
    pt_positive_analytic,
    random_weights,
    separable_wrt,
    werner_like,
)
from sepkit import tensor

# delta = 0.4 with only the first-qubit... only qubit 1's transpose positive
CLASS2_WEIGHTS = GhzWeights(3, 0.4, 0.0, (0.2, 0.05, 0.05))
# two positive single-qubit transposes (qubits 0 and 1), third negative
CLASS3_WEIGHTS = GhzWeights(3, 0.3, 0.1, (0.15, 0.1, 0.05))


def test_partition_lambda_index_three_qubits():
    # qubit 0 <-> lambda_2, qubit 1 <-> lambda_1, qubit 2 <-> lambda_3
    assert partition_lambda_index(0b100, 3) == 2
    assert partition_lambda_index(0b010, 3) == 1
    assert partition_lambda_index(0b001, 3) == 3
    # complements give the same index
    assert partition_lambda_index(0b011, 3) == 2
    assert partition_lambda_index(0b101, 3) == 1
    assert partition_lambda_index(0b110, 3) == 3


def test_pt_positive_analytic_instance():
    for mask, expected in ((0b100, False), (0b010, True), (0b001, False)):
        assert pt_positive_analytic(CLASS2_WEIGHTS, mask) is expected
        assert tensor.is_ppt(family_density(CLASS2_WEIGHTS), mask) is expected


def test_pt_positive_boundary_counts_as_positive():
    # qubit 1 sits exactly on delta == 2 lambda_1; min eigenvalue is zero
    rho = family_density(CLASS2_WEIGHTS)
    pt = tensor.partial_transpose(rho, 0b010)
    assert abs(tensor.min_eigenvalue(pt)) <= 1e-15
    assert tensor.is_ppt(rho, 0b010)


def test_pt_positive_werner_boundary_all_partitions():
    w = werner_like(3, 0.2)
    for mask in bipartition_masks(3):
        assert pt_positive_analytic(w, mask)
        assert tensor.is_ppt(family_density(w), mask)


def test_pt_positive_maximally_mixed():
    w = GhzWeights(3, 1 / 8, 1 / 8, (1 / 8, 1 / 8, 1 / 8))
    for mask in range(1, 7):
        assert pt_positive_analytic(w, mask)


def test_pt_pure_ghz_all_negative():
    w = GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0))
    for mask in range(1, 7):
        assert not pt_positive_analytic(w, mask)
        assert not tensor.is_ppt(family_density(w), mask)


@pytest.mark.parametrize("n,count", [(3, 300), (4, 120)])
def test_analytic_numeric_agreement_random(n, count):
    rng = np.random.default_rng(100 + n)
    for _ in range(count):
        w = random_weights(n, rng)
        rho = family_density(w)
        for mask in bipartition_masks(n):
            assert pt_positive_analytic(w, mask) == tensor.is_ppt(rho, mask, tol=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_index_formula_validated_exhaustively_against_oracle(n):
    # gate for trusting the general-n pair-index formula at larger n
    rng = np.random.default_rng(200 + n)
    for _ in range(8):
        w = random_weights(n, rng)
        rho = family_density(w)
        for mask in range(1, (1 << n) - 1):
            assert pt_positive_analytic(w, mask) == tensor.is_ppt(rho, mask, tol=1e-9)


def test_partition_symmetry():
    rng = np.random.default_rng(300)
    for n in (3, 4):
        w = random_weights(n, rng)
        for mask in range(1, (1 << n) - 1):
            comp = tensor.complement(mask, n)
            assert pt_positive_analytic(w, mask) == pt_positive_analytic(w, comp)


def test_classify3_class2_instance():
    rep = classify3(CLASS2_WEIGHTS)
    assert rep.class3 == 2
    assert rep.biseparable_qubits == frozenset({1})
    assert rep.distillable_pairs == frozenset({(0, 2)})
    assert not rep.fully_separable
    assert not rep.ghz_distillable
    assert rep.activation_hint is None


def test_classify3_class3_instance():
    rep = classify3(CLASS3_WEIGHTS)
    assert rep.class3 == 3
    assert rep.biseparable_qubits == frozenset({0, 1})
    assert rep.activation_hint == (0, 1)
    assert rep.distillable_pairs == frozenset()
    assert not rep.ghz_distillable


def test_classify3_werner_sides():
    rep = classify3(werner_like(3, 0.21))
    assert rep.class3 == 1
    assert rep.ghz_distillable
    assert rep.distillable_pairs == frozenset({(0, 1), (0, 2), (1, 2)})

    rep = classify3(werner_like(3, 0.19))
    assert rep.class3 == 5
    assert rep.fully_separable
    assert rep.distillable_pairs == frozenset()


def test_classify3_rejects_wrong_size():
    with pytest.raises(ValueError):
        classify3(werner_like(4, 0.5))


def test_class_structure_invariants_random():
    rng = np.random.default_rng(400)
    for _ in range(200):
        w = random_weights(3, rng)
        rep = classify_family(w)
        assert rep.class3 in (1, 2, 3, 5)
        assert (rep.class3 == 5) == rep.fully_separable
        if rep.fully_separable:
            assert len(rep.biseparable_qubits) == 3
            assert not rep.distillable_pairs
            assert not rep.ghz_distillable
        if rep.ghz_distillable:
            assert not rep.biseparable_qubits
        # class count matches the number of positive single-qubit transposes
        assert rep.class3 == {0: 1, 1: 2, 2: 3, 3: 5}[len(rep.biseparable_qubits)]


def test_separable_wrt_is_single_qubit_alias():
    for q, mask in ((0, 0b100), (1, 0b010), (2, 0b001)):
        assert separable_wrt(CLASS2_WEIGHTS, q) == pt_positive_analytic(
            CLASS2_WEIGHTS, mask
        )


def test_fully_separable_thresholds():
    assert fully_separable(werner_like(4, 1 / 9))
    assert not fully_separable(werner_like(4, 1 / 9 + 1e-6))
    assert not fully_separable(GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0)))
    assert fully_separable(GhzWeights(3, 1 / 8, 1 / 8, (1 / 8, 1 / 8, 1 / 8)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_threshold_exactness(n):
    x = 1.0 / (1 + (1 << (n - 1)))
    assert fully_separable(werner_like(n, x - 1e-9))
    assert not fully_separable(werner_like(n, x + 1e-9))


def test_pair_distillable_three_qubits_matches_single_transposes():
    rng = np.random.default_rng(500)
    for _ in range(100):
        w = random_weights(3, rng)
        for i, k in ((0, 1), (0, 2), (1, 2)):
            expected = not separable_wrt(w, i) and not separable_wrt(w, k)
            assert pair_distillable(w, i, k) == expected


def test_pair_distillable_four_qubits_with_oracle():
    w = werner_like(4, 0.2)  # above 1/9: every partition transpose negative
    rho = family_density(w)
    for i in range(4):
        for k in range(i + 1, 4):
            assert pair_distillable(w, i, k)
    for mask in bipartition_masks(4):
        assert not tensor.is_ppt(rho, mask, tol=1e-9)


def test_pair_distillable_separable_state():
    w = werner_like(3, 0.19)
    assert not any(pair_distillable(w, i, k) for i, k in ((0, 1), (0, 2), (1, 2)))


def test_pair_distillable_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pair_distillable(CLASS2_WEIGHTS, 1, 1)
    with pytest.raises(ValueError):
        pair_distillable(CLASS2_WEIGHTS, 0, 3)


def test_ghz_distillable_cases():
    assert ghz_distillable(werner_like(3, 0.21))
    assert not ghz_distillable(CLASS2_WEIGHTS)
    assert ghz_distillable(GhzWeights(3, 1.0, 0.0, (0.0, 0.0, 0.0)))


# In units where delta = 2 * HALF: a pair weight of HALF sits exactly on the
# boundary delta == 2 lambda_j (positive), above it is positive, below negative.
HALF = 4


@st.composite
def weights_with_positive_set(draw):
    """Weights on n = 2..8 qubits whose PT-positive bipartitions are drawn.

    Each qubit gets a group label. A mask that splits no group gets a weight
    from 0..2*HALF, so it is negative, a tie or positive; a mask that splits
    a group stays negative unless the drawn ``leak`` allows it. So qubits in
    one group are never separated and partial groupings such as {A,B} and
    {C,D} occur. Integer weights over one total keep every tie exact.
    """
    n = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    leak = draw(st.booleans())
    units = []
    for j in range(1, 1 << (n - 1)):
        side = tensor.mask_to_qubits(2 * j, n)
        splits = {labels[q] for q in side} & {labels[q] for q in range(n) if q not in side}
        top = 2 * HALF if leak or not splits else HALF - 1
        units.append(draw(st.integers(0, top)))
    minus = draw(st.integers(0, HALF))
    total = 2 * minus + 2 * HALF + 2 * sum(units)
    return GhzWeights(
        n,
        (minus + 2 * HALF) / total,
        minus / total,
        [u / total for u in units],
        delta=2 * HALF / total,
    )


@settings(max_examples=100)
@given(w=weights_with_positive_set(), data=st.data())
def test_pair_rule_matches_enumeration_and_dense_oracle(w, data):
    n = w.n_qubits
    expected = frozenset(
        (i, k) for i, k in combinations(range(n), 2) if reference_pair_distillable(w, i, k)
    )
    assert classify_family(w).distillable_pairs == expected
    for i, k in combinations(range(n), 2):
        assert pair_distillable(w, i, k) is ((i, k) in expected)
        assert pair_distillable(w, k, i) is ((i, k) in expected)
    if n <= 5:
        rho = family_density(w)
        positive = [mask for mask in bipartition_masks(n) if tensor.is_ppt(rho, mask)]
        dense = frozenset(
            (i, k)
            for i, k in combinations(range(n), 2)
            if all((mask >> (n - 1 - i)) & 1 == (mask >> (n - 1 - k)) & 1 for mask in positive)
        )
        assert dense == expected
    # relabeling the qubits relabels the distillable pairs
    source = data.draw(st.permutations(range(n)))
    position = {old: new for new, old in enumerate(source)}
    moved = frozenset(tuple(sorted((position[i], position[k]))) for i, k in expected)
    assert classify_family(permute_weights(w, source)).distillable_pairs == moved


def grouped_weights(n, rng):
    """Weights whose PT-positive masks split no group of a random qubit grouping.

    Each mask 2j that keeps every group whole is positive or negative by a
    coin flip; every other mask is negative. So the qubits within a group are
    distillable pairs, and pairs across groups mostly are not.
    """
    labels = rng.integers(0, max(2, n // 4), n)
    masks = 2 * np.arange(1, 1 << (n - 1))
    whole = np.ones(masks.size, dtype=bool)
    for label in np.unique(labels):
        group = sum(1 << (n - 1 - q) for q in np.flatnonzero(labels == label))
        whole &= np.isin(masks & group, (0, group))
    positive = whole & (rng.random(masks.size) < 0.5)
    # integer weights: delta 100 against 2 lambda_j of 100..198 when positive,
    # 0..98 when not; lambda0_minus pads the total to a power of two, so
    # dividing by it is exact
    units = np.where(positive, rng.integers(50, 100, masks.size), rng.integers(0, 50, masks.size))
    used = 100 + 2 * int(units.sum())
    total = 1 << used.bit_length()
    minus = (total - used) // 2
    return GhzWeights(n, (minus + 100) / total, minus / total, units / total, delta=100 / total)


@pytest.mark.parametrize("n", range(12, 21))
def test_pair_routine_matches_per_qubit_packbits_at_large_n(n):
    rng = np.random.default_rng(1000 + n)
    grouped = grouped_weights(n, rng)
    states = [werner_like(n, 0.95), random_weights(n, rng), grouped]  # all pairs, few, some
    if n <= 18:  # past that werner_like's weights add up to 1 - 7e-12 at the tie and are refused
        states.append(werner_like(n, 1 / (1 + 2 ** (n - 1))))  # ties: no pair
    everything = frozenset(combinations(range(n), 2))
    assert 0 < len(reference_pairs(grouped)) < len(everything)
    for w in states:
        expected = reference_pairs(w)
        assert classify_family(w).distillable_pairs == expected
        inside = sorted(expected)[:2]
        outside = sorted(everything - expected)[:2]
        for i, k in [*inside, *outside, (0, n - 1)]:
            assert pair_distillable(w, i, k) is ((i, k) in expected)
            assert pair_distillable(w, k, i) is ((i, k) in expected)
