"""Dense complex linear algebra on multiqubit operators.

Conventions used package-wide:

* Qubits are numbered ``0 .. n-1`` and qubit 0 is the MOST significant bit
  of a computational-basis index, so ``|j>`` of an n-qubit register is the
  length ``2**n`` unit vector with a one at position ``j``.
* A subset S of the qubits (one side of a bipartition) is a bitmask aligned
  with that convention: qubit ``q`` contributes ``1 << (n - 1 - q)``, so a
  mask is itself a valid basis index. Bipartition masks must be nonempty
  proper subsets.

Kets are 1-d complex arrays and density operators 2-d complex arrays; the
``check_*`` helpers enforce the invariants the operations rely on
(power-of-two dimension, hermiticity, unit trace, positivity).
"""

from __future__ import annotations

import numpy as np

HERMITIAN_ATOL = 1e-12
NORM_ATOL = 1e-12

# Hermiticity and unit-trace tolerance for density matrices given as input.
DENSITY_ATOL = 1e-9

# Positivity cutoff for partial-transpose spectra. Kept flat in the
# dimension: every spectrum handled here belongs to a trace-one operator of
# dimension at most 2**12, so all eigenvalues are O(1).
DEFAULT_PT_TOL = 1e-9

# Below this outcome probability a post-measurement state is not defined.
DEGENERATE_PROBABILITY = 1e-14


class DegenerateOutcomeError(ValueError):
    """Projection onto a measurement outcome of numerically zero probability."""


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, requiring a power of two."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a positive power of two")
    return n


def check_hermitian(mat: np.ndarray, atol: float = HERMITIAN_ATOL) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("operator must be a square matrix")
    dev = np.abs(mat - mat.conj().T).max()
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e} > {atol:.1e})")


def check_density(rho: np.ndarray) -> int:
    """Validate a density operator within DENSITY_ATOL, returning its qubit count.

    Positivity is a Cholesky of rho + DENSITY_ATOL * I; eigvalsh runs only if that fails.
    """
    rho = np.asarray(rho)
    check_hermitian(rho, atol=DENSITY_ATOL)
    n = n_qubits_of(rho.shape[0])
    tr = rho.trace().real
    if abs(tr - 1.0) > DENSITY_ATOL:
        raise ValueError(f"trace {tr} differs from 1 by more than {DENSITY_ATOL:.1e}")
    try:
        np.linalg.cholesky(rho + DENSITY_ATOL * np.eye(len(rho)))
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(rho)[0]  # settles the margin and words the error
        if low < -DENSITY_ATOL:
            raise ValueError(f"not positive semidefinite: smallest eigenvalue {low:.6g}") from None
    return n


def qubits_to_mask(qubits, n: int) -> int:
    """Bitmask of a qubit subset (qubit 0 is the most significant bit)."""
    mask = 0
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")
        mask |= 1 << (n - 1 - q)
    return mask


def mask_to_qubits(mask: int, n: int) -> tuple[int, ...]:
    """Qubit indices contained in a mask, ascending."""
    return tuple(q for q in range(n) if (mask >> (n - 1 - q)) & 1)


def complement(mask: int, n: int) -> int:
    return ((1 << n) - 1) ^ mask


def check_partition(mask: int, n: int) -> None:
    """A bipartition mask must be a nonempty proper subset of the register."""
    if not 0 < mask < (1 << n) - 1:
        raise ValueError(f"mask {mask:#b} is not a proper nonempty subset of {n} qubits")


def partial_transpose(rho: np.ndarray, mask: int) -> np.ndarray:
    """Transpose the indices of the qubits in ``mask`` only.

    Entry ((i_S, i_R), (j_S, j_R)) of the result equals entry
    ((j_S, i_R), (i_S, j_R)) of the input, where S is the masked subset and
    R the rest. Hermiticity is preserved; the operation is an involution.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho.shape[0])
    check_partition(mask, n)
    t = rho.reshape([2] * (2 * n))
    axes = list(range(2 * n))
    for q in range(n):
        if (mask >> (n - 1 - q)) & 1:
            axes[q], axes[n + q] = axes[n + q], axes[q]
    return t.transpose(axes).reshape(rho.shape)


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    h = np.asarray(h)
    check_hermitian(h)
    return float(np.linalg.eigvalsh(h)[0])


def is_ppt(rho: np.ndarray, mask: int, tol: float = DEFAULT_PT_TOL) -> bool:
    """Whether the partial transpose over ``mask`` is positive semidefinite.

    Positivity includes the zero-eigenvalue boundary: the test passes when
    the minimum eigenvalue is >= -tol. A real partial transpose, as every
    family state has, goes to the real symmetric solver, about 3x faster.
    """
    pt = partial_transpose(rho, mask)
    return min_eigenvalue(pt if pt.imag.any() else pt.real) >= -tol

