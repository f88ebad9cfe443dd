"""Multi-copy distillation planning for three-qubit family states.

The protocol: take M trios in the same family state, let each party apply
the two-outcome filter whose success element is

    P = |00..0><00..0| + |10..0><11..1|     (on that party's M qubits),

keep the success branch, and project the first trio's first qubit onto
|+>. Filtering leaves the first trio in an unnormalized family state whose
computational-basis entries are the M-th powers of the single-copy ones:
pair weights become lambda_k**M, the (0,7) coherence (delta/2)**M, and the
0/7 diagonal block ((lambda0_plus + lambda0_minus)/2)**M. The |+>
projection then yields a two-qubit state with Bell fidelity
lambda0_plus + lambda2 (probability 1/2), which exceeds 1/2 exactly when
delta/2 > lambda_1 + lambda_3. `amplify` implements the closed form and
`dense_filter_oracle` the literal tensor construction it must match, kept
to the nonzero entries of the M-fold power (at most 10**M of them) rather
than an 8**M-dimensional matrix.

The weights are taken in the projection frame: `family.permute_weights`
moves the spectator qubit to the first position and the pair after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .classify import separable_wrt
from .family import GhzWeights, family_density, permute_weights

# The oracle holds up to 10**m nonzero entries of the m-fold power: its
# peak is about 7 MB at m = 5 and 70 MB at m = 6, where a whole command
# would reach the 100 MB it may use.
DENSE_ORACLE_MAX_COPIES = 5


@dataclass(frozen=True)
class DistillOutcome:
    """Result of planning pair distillation in the projection frame.

    ``filtered_weights`` describe the surviving trio in the frame where the
    projected qubit sits first. ``purifiable`` is the filter criterion
    (delta/2)**m > lambda_1**m + lambda_3**m at ``m_used``, which in exact
    arithmetic is pair_fidelity > 1/2; it stays exact at large m, where the
    fidelity rounds to 1/2 and the success probability to 0.
    """

    m_used: int
    filtered_weights: GhzWeights
    filter_success_probability: float
    projection_success_probability: float
    pair_fidelity: float
    purifiable: bool


def _require_three_qubits(w: GhzWeights) -> None:
    if w.n_qubits != 3:
        raise ValueError("the distillation protocol is defined for 3 qubits")


def pair_fidelity_after_projection(w: GhzWeights) -> tuple[float, float]:
    """Bell fidelity of qubits 1,2 after projecting qubit 0 onto |+>.

    Closed form: fidelity lambda0_plus + lambda_2, probability 1/2.
    """
    _require_three_qubits(w)
    return w.lambda0_plus + w.lam(2), 0.5


def filter_operator(m: int) -> np.ndarray:
    """One party's m-qubit filter: |00..0><00..0| + |10..0><11..1|."""
    if m < 1:
        raise ValueError("need at least one copy")
    dim = 1 << m
    p = np.zeros((dim, dim), dtype=complex)
    p[0, 0] = 1.0
    p[dim >> 1, dim - 1] = 1.0
    return p


def amplify(w: GhzWeights, m: int) -> tuple[GhzWeights, float]:
    """Closed-form filtered state of the first trio after m copies.

    Returns the normalized weights and the success probability (the trace
    of the unnormalized filtered state, 2 * (block**m + sum lambda_k**m)).
    Where that trace falls below tensor.DEGENERATE_PROBABILITY the powers
    are taken of the bases divided by the largest one, so the weights keep
    their digits; the probability is then the nearest double, possibly 0.0.
    """
    _require_three_qubits(w)
    if m < 1:
        raise ValueError("need at least one copy")
    bases = ((w.lambda0_plus + w.lambda0_minus) / 2.0, w.delta / 2.0, *w.lambdas.tolist())
    scale = 1.0
    block, coh, *lams = (b**m for b in bases)
    total = 2.0 * (block + sum(lams))
    if total < tensor.DEGENERATE_PROBABILITY:
        scale = max(bases)
        block, coh, *lams = ((b / scale) ** m for b in bases)
        total = 2.0 * (block + sum(lams))
    out = GhzWeights(
        n_qubits=3,
        lambda0_plus=(block + coh) / total,
        lambda0_minus=(block - coh) / total,
        lambdas=tuple(x / total for x in lams),
        basis_flipped=w.basis_flipped,
        delta=2.0 * coh / total,
    )
    return out, total * scale**m


def dense_filter_oracle(w: GhzWeights, m: int) -> tuple[np.ndarray, float]:
    """Literal filtered state: m-fold tensor power, filter, reduce.

    Works entry by entry on the nonzeros: a family state has 2**3 + 2 of
    them, so its m-fold power has at most 10**m. Each entry is addressed by
    six m-bit indices, the row and then the column bits of each party with
    copy 0 most significant. The power is built by index arithmetic, its
    values multiplied left to right as np.kron does. Each party's filter,
    read from the nonzeros of `filter_operator` as a lookup table, drops in
    one mask every entry it kills on some row or column index and
    multiplies the rest by its taps, conjugated on the column bits; the
    partial trace keeps copy 0 of each party where the other copies' row
    and column bits agree. Returns the normalized trio state and the
    success probability. On a 2-core Intel Xeon a call takes about 0.1 ms
    at m <= 3, 1 ms at m = 4 and 3.5 ms at m = 5, mostly building the power.
    """
    _require_three_qubits(w)
    if m < 1:
        raise ValueError("need at least one copy")
    if m > DENSE_ORACLE_MAX_COPIES:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_MAX_COPIES} copies")
    rho = family_density(w)
    rows, cols = np.nonzero(rho)
    values = rho[rows, cols]
    shifts = np.arange(2, -1, -1)[:, None]
    bits = np.concatenate([(rows >> shifts) & 1, (cols >> shifts) & 1])
    idx, val = bits, values
    for _ in range(m - 1):
        idx = (2 * idx[:, :, None] + bits[:, None, :]).reshape(6, -1)
        val = (val[:, None] * values[None, :]).reshape(-1)
    # each party's filter as a lookup table: input index -> output index, tap
    p = filter_operator(m)
    outs, ins = np.nonzero(p)
    lut_out, lut_tap = np.zeros(1 << m, dtype=idx.dtype), np.zeros(1 << m, dtype=complex)
    lut_out[ins], lut_tap[ins] = outs, p[outs, ins]
    alive = (lut_tap != 0)[idx].all(axis=0)
    idx, val = idx[:, alive], val[alive]
    for axis in range(6):
        val = (lut_tap if axis < 3 else lut_tap.conj())[idx[axis]] * val
    idx = lut_out[idx]
    # The filter is injective and its outputs 0 and 10..0 have zero low bits,
    # so every entry it keeps also passes the partial trace and lands on its
    # own diagonal and trio position: += never adds two entries together. The
    # whole zero-padded diagonal is summed, as in the trace of the dense
    # matrix: numpy's pairwise summation groups the terms by position.
    on_diagonal = (idx[:3] == idx[3:]).all(axis=0)
    diagonal = np.zeros(8**m, dtype=complex)
    diagonal[(idx[0] << 2 * m | idx[1] << m | idx[2])[on_diagonal]] += val[on_diagonal]
    prob = diagonal.sum().real
    kept = idx >> (m - 1)
    trio = np.zeros((8, 8), dtype=complex)
    trio[kept[0] << 2 | kept[1] << 1 | kept[2], kept[3] << 2 | kept[4] << 1 | kept[5]] += val
    return trio / prob, float(prob)


def _criterion_holds(m: int, half_delta: float, lams) -> bool:
    """half_delta**m > sum of lam**m, for half_delta above every lam.

    Evaluated as sum (lam/half_delta)**m < 1 with each ratio written as
    exp(-m * log1p((half_delta - lam)/lam)): ratios near 1 keep their
    digits and no power underflows, at any m. The verdict can differ from
    exact arithmetic only where the two sides agree to about 1e-16
    relative, below what the doubles themselves resolve.
    """
    ratios = (math.exp(-m * math.log1p((half_delta - lam) / lam)) for lam in lams if lam > 0.0)
    return sum(ratios) < 1.0


def minimal_m_raw(half_delta: float, lam1: float, lam3: float) -> int | None:
    """Smallest m >= 1 with half_delta**m > lam1**m + lam3**m.

    Returns None when half_delta <= max(lam1, lam3), where no m works.
    Otherwise the criterion is monotone in m, so galloping then bisection
    finds the least m in O(log m) evaluations.
    """
    if half_delta <= max(lam1, lam3):
        return None
    lams = (lam1, lam3)
    hi = 1
    while not _criterion_holds(hi, half_delta, lams):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _criterion_holds(mid, half_delta, lams):
            hi = mid
        else:
            lo = mid
    return hi


def minimal_m(w: GhzWeights) -> int | None:
    """Smallest copy count whose filtered state projects to fidelity > 1/2.

    That is the criterion (delta/2)**m > lambda_1**m + lambda_3**m, taken
    on (delta, 2 lambda_1, 2 lambda_3), as delta/2 underflows at 5e-324.
    None means delta <= 2 max(lambda_1, lambda_3), classify's rule that
    qubits 1 and 2 are not pair-distillable: no copy count helps.
    """
    _require_three_qubits(w)
    return minimal_m_raw(w.delta, 2.0 * w.lam(1), 2.0 * w.lam(3))


def plan_pair_distillation(
    w: GhzWeights, i: int, k: int, m: int | None = None
) -> DistillOutcome | None:
    """Plan distilling a maximally entangled pair between qubits i and k.

    Permutes the trio into the projection frame (spectator first, then i
    and k), searches for the minimal copy count unless ``m`` is given,
    filters, and projects. Returns None exactly when the pair is not
    distillable: in a trio the bipartitions separating i from k are the two
    single-qubit ones, so that is when either qubit is separable.
    """
    _require_three_qubits(w)
    if i == k or not (0 <= i < 3 and 0 <= k < 3):
        raise ValueError(f"({i}, {k}) is not a pair of distinct trio qubits")
    if separable_wrt(w, i) or separable_wrt(w, k):
        return None
    relabeled = permute_weights(w, (3 - i - k, i, k))
    m_used = minimal_m(relabeled) if m is None else m
    filtered, filter_prob = amplify(relabeled, m_used)
    fid, proj_prob = pair_fidelity_after_projection(filtered)
    return DistillOutcome(
        m_used=m_used,
        filtered_weights=filtered,
        filter_success_probability=filter_prob,
        projection_success_probability=proj_prob,
        pair_fidelity=fid,
        purifiable=_criterion_holds(
            m_used, relabeled.delta, (2.0 * relabeled.lam(1), 2.0 * relabeled.lam(3))
        ),
    )
