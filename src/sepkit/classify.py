"""Separability and distillability predicates for family states.

For a family state the partial transpose over a qubit subset S is positive
semidefinite iff delta <= 2 * lambda_{j(S)}: transposing S moves the
|00..0><11..1| coherence onto the basis-index pair (mask(S), ~mask(S)),
whose shared diagonal entry is lambda_{j(S)}. The pair index is

    j(S) = mask(S) >> 1          if the last qubit is not in S,
    j(S) = (~mask(S)) >> 1       otherwise,

which also shows why S and its complement give the same answer. Every
predicate here is an exact closed-form comparison. The test suite checks
them against the dense ground truth, `tensor.is_ppt` of `family_density(w)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import tensor
from .family import GhzWeights


@dataclass(frozen=True)
class ClassReport:
    """Classification summary for one family state.

    ``pt_positive`` maps single-qubit partition masks to the positivity of
    the corresponding partial transpose. ``class3`` follows the three-qubit
    scheme (1 fully inseparable, 2 biseparable w.r.t. one qubit, 3 w.r.t.
    two, 5 fully separable; within the family the count of positive
    single-qubit transposes decides) and is None for other sizes.
    """

    n_qubits: int
    pt_positive: dict
    class3: int | None
    biseparable_qubits: frozenset
    fully_separable: bool
    ghz_distillable: bool
    distillable_pairs: frozenset
    activation_hint: tuple | None


def bipartition_masks(n: int):
    """One representative mask per distinct bipartition (the even ones)."""
    return (2 * j for j in range(1, 1 << (n - 1)))


def partition_lambda_index(mask: int, n: int) -> int:
    """Pair index j(S) whose weight controls positivity of the transpose over S."""
    tensor.check_partition(mask, n)
    if mask % 2 == 1:
        mask = tensor.complement(mask, n)
    return mask >> 1


def pt_positive_analytic(w: GhzWeights, mask: int) -> bool:
    """Closed-form positivity of the partial transpose over ``mask``.

    Boundary convention: equality delta == 2 lambda_{j(S)} counts as
    positive (the minimum eigenvalue is exactly zero there).
    """
    j = partition_lambda_index(mask, w.n_qubits)
    return w.delta <= 2.0 * w.lam(j)


def separable_wrt(w: GhzWeights, qubit: int) -> bool:
    """Whether the state is separable with respect to one qubit versus the rest.

    Within the family this coincides with positivity of that qubit's
    partial transpose.
    """
    return pt_positive_analytic(w, tensor.qubits_to_mask((qubit,), w.n_qubits))


def fully_separable(w: GhzWeights) -> bool:
    """True iff the partial transpose is positive for every bipartition.

    Equivalent to delta <= 2 * min(lambdas), since the distinct
    bipartitions sweep out every pair index exactly once.
    """
    return bool(w.delta <= 2.0 * w.lambdas.min())


def _columns(w: GhzWeights) -> list[bytes]:
    """Each qubit's bit in every PT-positive mask 2j (ties positive), packed.

    Two qubits have equal columns iff no PT-positive bipartition separates
    them (Dür & Cirac, PRA 61, 042314 (2000)).
    """
    masks = (w.delta <= 2.0 * w.lambdas).nonzero()[0] * 2 + 2
    # a row of big-endian bits per mask, qubit q in column 32 - n + q
    bits = np.unpackbits(masks.astype(">u4").view(np.uint8)).reshape(-1, 32)
    return [column.tobytes() for column in np.packbits(bits.T[32 - w.n_qubits:], axis=1)]


def pair_distillable(w: GhzWeights, i: int, k: int) -> bool:
    """Whether a maximally entangled pair between qubits i and k is distillable.

    Requires a negative partial transpose for every bipartition that
    separates them, i.e. i and k share their bit in every positive mask 2j.
    """
    n = w.n_qubits
    if i == k:
        raise ValueError("need two distinct qubits")
    if not (0 <= i < n and 0 <= k < n):
        raise ValueError(f"qubit pair ({i}, {k}) out of range for {n} qubits")
    columns = _columns(w)
    return columns[i] == columns[k]


def ghz_distillable(w: GhzWeights) -> bool:
    """True iff every bipartition has a negative partial transpose.

    For three qubits this is the criterion for distilling a GHZ state (the
    three single-qubit transposes cover all bipartitions). For n > 3 the
    same all-partitions-negative predicate makes every pair distillable,
    from which a GHZ state can be assembled by connecting pairs; we expose
    that extension under the same name.
    """
    return bool(w.delta > 2.0 * w.lambdas.max())


def classify_family(w: GhzWeights) -> ClassReport:
    """Full classification report; ``class3`` is filled only for 3 qubits."""
    n = w.n_qubits
    bisep = frozenset(q for q in range(n) if separable_wrt(w, q))
    singles = {tensor.qubits_to_mask((q,), n): q in bisep for q in range(n)}
    columns = _columns(w)
    pairs = frozenset((i, k) for i, k in combinations(range(n), 2) if columns[i] == columns[k])
    class3 = hint = None
    if n == 3:
        class3 = {0: 1, 1: 2, 2: 3, 3: 5}[len(bisep)]
        if class3 == 3:
            hint = tuple(sorted(bisep))
    return ClassReport(
        n_qubits=n,
        pt_positive=singles,
        class3=class3,
        biseparable_qubits=bisep,
        fully_separable=fully_separable(w),
        ghz_distillable=ghz_distillable(w),
        distillable_pairs=pairs,
        activation_hint=hint,
    )


def classify3(w: GhzWeights) -> ClassReport:
    """Three-qubit classification (class labels 1, 2, 3, 5)."""
    if w.n_qubits != 3:
        raise ValueError("classify3 requires exactly 3 qubits")
    return classify_family(w)
