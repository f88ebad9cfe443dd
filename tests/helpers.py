"""Shared fixtures-in-plain-functions for the test suite."""

import decimal
from fractions import Fraction

import numpy as np

from sepkit import (
    GhzWeights,
    classify_family,
    family_density,
    filter_operator,
    ghz_ket,
    pt_positive_analytic,
    random_weights,
)
from sepkit import tensor

SQRT1_2 = 1.0 / np.sqrt(2.0)

KET_PLUS = np.array([SQRT1_2, SQRT1_2], dtype=complex)
BELL_PHI_PLUS = np.array([SQRT1_2, 0.0, 0.0, SQRT1_2], dtype=complex)


def basis_ket(n: int, j: int) -> np.ndarray:
    """Computational-basis ket |j> on n qubits."""
    if not 0 <= j < (1 << n):
        raise ValueError(f"basis index {j} out of range for {n} qubits")
    v = np.zeros(1 << n, dtype=complex)
    v[j] = 1.0
    return v


def density_of(psi) -> np.ndarray:
    """Rank-one density operator |psi><psi| of a normalized ket."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    tensor.n_qubits_of(v.shape[0])
    return np.outer(v, v.conj())


def random_density(n, rng):
    """Full-rank Wishart density matrix on n qubits."""
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def weights_max_diff(a: GhzWeights, b: GhzWeights) -> float:
    return max(
        abs(a.lambda0_plus - b.lambda0_plus),
        abs(a.lambda0_minus - b.lambda0_minus),
        max(abs(x - y) for x, y in zip(a.lambdas, b.lambdas)),
    )


def brute_permutation_unitary(source, n):
    """Permutation matrix built index-by-index, independent of axis tricks."""
    d = 1 << n
    u = np.zeros((d, d))
    for old in range(d):
        new = 0
        for i in range(n):
            bit = (old >> (n - 1 - source[i])) & 1
            new |= bit << (n - 1 - i)
        u[new, old] = 1.0
    return u


def random_class5_weights(rng, count):
    """Rejection-sample three-qubit draws whose class is 5."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("class-5 rejection sampling stalled")
        w = random_weights(3, rng)
        if classify_family(w).class3 == 5:
            out.append(w)
    return out


def reference_minimal_m(half_delta, lam1, lam3, limit):
    """Least m <= limit with half_delta**m > lam1**m + lam3**m, else None.

    A plain scan in exact rational arithmetic: the three doubles become
    Fractions, and the comparison is made on their powers with the common
    denominator cleared, so every step compares integers. A double's
    denominator is a power of two, so the largest one is a common multiple.
    """
    exact = [Fraction(x) for x in (half_delta, lam1, lam3)]
    den = max(x.denominator for x in exact)
    h, a, b = (x.numerator * (den // x.denominator) for x in exact)
    ph = pa = pb = 1
    for m in range(1, limit + 1):
        ph, pa, pb = ph * h, pa * a, pb * b
        if ph > pa + pb:
            return m
    return None


def exact_margin(half_delta, lam1, lam3, m):
    """half_delta**m - lam1**m - lam3**m of the exact doubles, to 60 digits.

    The exponent range is unbounded, so no power underflows at any m.
    """
    D = decimal.Decimal
    with decimal.localcontext(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX):
        return D(half_delta) ** m - D(lam1) ** m - D(lam3) ** m


def reference_pair_distillable(w, i, k):
    """Pair rule by enumeration: no side containing i but not k is PT-positive.

    Walks all 2**(n-2) subsets of the other qubits, each joined with i, so it
    checks every bipartition that separates i from k one by one.
    """
    n = w.n_qubits
    rest = [q for q in range(n) if q not in (i, k)]
    for bits in range(1 << len(rest)):
        side = [i] + [q for idx, q in enumerate(rest) if (bits >> idx) & 1]
        if pt_positive_analytic(w, tensor.qubits_to_mask(side, n)):
            return False
    return True


def reference_pairs(w):
    """Distillable pairs from one packbits pass per qubit over the PT-positive
    masks 2j: qubits whose packed bits agree in every positive mask."""
    masks = (w.delta <= 2.0 * w.lambdas).nonzero()[0] * 2 + 2
    columns = [np.packbits(masks & (1 << (w.n_qubits - 1 - q))).tobytes() for q in range(w.n_qubits)]
    return frozenset(
        (i, k) for i in range(w.n_qubits) for k in range(i + 1, w.n_qubits) if columns[i] == columns[k]
    )


def permute_qubits(rho, source):
    """Relabel qubits: output register position i carries input qubit source[i]."""
    rho = np.asarray(rho, dtype=complex)
    n = tensor.n_qubits_of(rho.shape[0])
    source = list(source)
    if sorted(source) != list(range(n)):
        raise ValueError(f"{source} is not a permutation of {n} qubits")
    axes = source + [n + q for q in source]
    return rho.reshape([2] * (2 * n)).transpose(axes).reshape(rho.shape)


def partial_trace(rho, keep):
    """Trace out every qubit not listed in ``keep`` (kept qubits stay ordered)."""
    rho = np.asarray(rho, dtype=complex)
    n = tensor.n_qubits_of(rho.shape[0])
    keep = sorted(set(keep))
    if any(not 0 <= q < n for q in keep):
        raise ValueError("keep list out of range")
    if len(keep) == n:
        return rho.copy()
    t = rho.reshape([2] * (2 * n))
    row = list(range(n))
    col = [n + q if q in keep else q for q in range(n)]
    out = [q for q in keep] + [n + q for q in keep]
    d = 1 << len(keep)
    return np.einsum(t, row + col, out).reshape(d, d)


def reference_dense_filter_oracle(w, m):
    """Filtered trio state from the full 8**m x 8**m matrix.

    The m-fold Kronecker power, regrouped party-major (position p*m + t
    holds copy t's qubit of party p), each party's filter applied by
    tensordot on the row side and, conjugated, on the column side, then a
    partial trace down to copy 0 of each party. Memory grows as 64**m:
    about 1 GB at m = 4.
    """
    rho = family_density(w)
    big = rho
    for _ in range(m - 1):
        big = np.kron(big, rho)
    if m > 1:
        big = permute_qubits(big, [3 * t + p for p in range(3) for t in range(m)])
    p = filter_operator(m)
    block = 1 << m
    t = big.reshape((block,) * 6)
    for axis in range(3):
        t = np.moveaxis(np.tensordot(p, t, axes=(1, axis)), 0, axis)
    for axis in range(3, 6):
        t = np.moveaxis(np.tensordot(p.conj(), t, axes=(1, axis)), 0, axis)
    filtered = t.reshape(block**3, block**3)
    prob = filtered.trace().real
    if prob < tensor.DEGENERATE_PROBABILITY:
        raise tensor.DegenerateOutcomeError("filter success probability is zero")
    trio = partial_trace(filtered, keep=(0, m, 2 * m))
    return trio / prob, float(prob)


def reference_sparse_filter_oracle(w, m):
    """Filtered trio state from the nonzeros of the m-fold power, tap by tap.

    The same construction as ``dense_filter_oracle``, with each party's
    filter applied by one boolean mask per (axis, filter entry) and the
    results scattered with ``np.add.at``.
    """
    rho = family_density(w)
    rows, cols = np.nonzero(rho)
    values = rho[rows, cols]
    shifts = np.arange(2, -1, -1)[:, None]
    bits = np.concatenate([(rows >> shifts) & 1, (cols >> shifts) & 1])
    idx, val = bits, values
    for _ in range(m - 1):
        idx = (2 * idx[:, :, None] + bits[:, None, :]).reshape(6, -1)
        val = (val[:, None] * values[None, :]).reshape(-1)
    p = filter_operator(m)
    outs, ins = np.nonzero(p)
    taps = p[outs, ins]
    for axis in range(6):
        moved_idx, moved_val = [], []
        for out, src, tap in zip(outs, ins, taps if axis < 3 else taps.conj()):
            hit = idx[axis] == src
            moved = idx[:, hit]
            moved[axis] = out
            moved_idx.append(moved)
            moved_val.append(tap * val[hit])
        idx, val = np.concatenate(moved_idx, axis=1), np.concatenate(moved_val)
    on_diagonal = (idx[:3] == idx[3:]).all(axis=0)
    diagonal = np.zeros(8**m, dtype=complex)
    np.add.at(diagonal, (idx[0] << 2 * m | idx[1] << m | idx[2])[on_diagonal], val[on_diagonal])
    prob = diagonal.sum().real
    if prob < tensor.DEGENERATE_PROBABILITY:
        raise tensor.DegenerateOutcomeError("filter success probability is zero")
    rest = (1 << (m - 1)) - 1
    traced = ((idx[:3] & rest) == (idx[3:] & rest)).all(axis=0)
    kept = idx[:, traced] >> (m - 1)
    trio = np.zeros((8, 8), dtype=complex)
    trio_row = kept[0] << 2 | kept[1] << 1 | kept[2]
    np.add.at(trio, (trio_row, kept[3] << 2 | kept[4] << 1 | kept[5]), val[traced])
    return trio / prob, float(prob)


def reference_ensemble_density(e):
    """Mixture of the ensemble's product states, term by term via np.kron."""
    dim = 1 << e.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, factors in zip(e.weights, e.factors):
        psi = factors[0]
        for f in factors[1:]:
            psi = np.kron(psi, f)
        rho += weight * np.outer(psi, psi.conj())
    return rho


def reference_rho_hat_density(hw):
    """rho_hat as a loop over the eight dense GHZ projectors, each added in place."""
    w = hw.base
    rho = w.lambda0_plus * density_of(ghz_ket(3, 0, +1))
    rho += w.lambda0_minus * density_of(ghz_ket(3, 0, -1))
    for j in range(1, 4):
        rho += hw.hat_plus[j - 1] * density_of(ghz_ket(3, j, +1))
        rho += hw.hat_minus[j - 1] * density_of(ghz_ket(3, j, -1))
    return rho


def project_qubit(rho, k, phi):
    """Measure qubit ``k`` and project onto the single-qubit ket ``phi``.

    Returns the normalized post-measurement state of the remaining n-1
    qubits together with the outcome probability. Raises
    DegenerateOutcomeError when the outcome probability is below
    ``tensor.DEGENERATE_PROBABILITY``.
    """
    rho = np.asarray(rho, dtype=complex)
    n = tensor.n_qubits_of(rho.shape[0])
    if not 0 <= k < n:
        raise ValueError(f"qubit index {k} out of range for {n} qubits")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if phi.shape[0] != 2:
        raise ValueError("projection ket must be a single-qubit state")
    if abs(np.vdot(phi, phi).real - 1.0) > tensor.NORM_ATOL:
        raise ValueError("projection ket must be normalized")
    t = rho.reshape([2] * (2 * n))
    # sigma[i', j'] = sum_{a,b} conj(phi[a]) rho[(i',a at k), (j',b at k)] phi[b]
    t = np.tensordot(phi.conj(), t, axes=(0, k))
    t = np.tensordot(phi, t, axes=(0, n - 1 + k))
    d = 1 << (n - 1)
    sigma = t.reshape(d, d)
    prob = sigma.trace().real
    if prob < tensor.DEGENERATE_PROBABILITY:
        raise tensor.DegenerateOutcomeError(f"outcome probability {prob:.3e} below cutoff")
    return sigma / prob, float(prob)
