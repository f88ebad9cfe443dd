"""The GHZ-diagonal family of N-qubit states and its coefficient projection.

The family is built on the orthonormal GHZ-type basis

    |psi_j^+->  =  (|j>|0> +- |~j>|1>) / sqrt(2),    j = 0 .. 2**(n-1) - 1,

where the first n-1 qubits carry the binary index j, the last qubit the
trailing 0/1, and ~j is the bitwise complement of j. A family state mixes
the projectors onto these kets with one weight lambda_j shared by each +-
pair with j >= 1 and two separate weights lambda0_plus / lambda0_minus for
the j = 0 pair. In the computational basis that is a diagonal matrix plus a
single real coherence delta/2 = (lambda0_plus - lambda0_minus)/2 between
|00..0> and |11..1>.

Any density matrix can be crushed onto the family by keeping exactly these
diagonal-in-the-GHZ-basis coefficients; `depolarize` performs that
projection deterministically (it is the fixed point of the physical
local-randomization procedure, whose explicit operator list is not needed
for anything downstream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor

WEIGHT_SUM_ATOL = 1e-12
NEGATIVE_WEIGHT_CLAMP = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _left_sum(values: np.ndarray) -> float:
    """Added left to right from 0.0, as ``sum`` of floats did before Python 3.12."""
    return np.add.accumulate(values).item(-1) + 0.0 if values.size else 0.0


def _clamped(value: float, what: str) -> float:
    if value < -NEGATIVE_WEIGHT_CLAMP:
        raise ValueError(f"{what} = {value} is negative beyond tolerance")
    return 0.0 if value < 0.0 else float(value)


@dataclass(frozen=True, eq=False)
class GhzWeights:
    """Normalized weight vector identifying a state of the family.

    ``lambdas[j-1]`` is the weight of the j-th +- projector pair for
    j = 1 .. 2**(n-1) - 1, kept as a read-only float64 copy. Canonical
    labelling keeps ``lambda0_plus >= lambda0_minus``; ``basis_flipped``
    records that a local phase redefinition restored that ordering.

    ``delta`` defaults to lambda0_plus - lambda0_minus. Closed-form
    constructors may pass it explicitly (validated to agree within 1e-12)
    so that boundary comparisons like delta <= 2*lambda_j stay exact in
    floating point instead of inheriting the rounding of the subtraction.
    """

    n_qubits: int
    lambda0_plus: float
    lambda0_minus: float
    lambdas: np.ndarray
    basis_flipped: bool = False
    delta: float | None = None

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("the family needs at least 2 qubits")
        lams = np.array(self.lambdas, dtype=float)
        # 2**(n-1) - 1 has bit length n - 1: comparing that first keeps the
        # shift no wider than the count the array holds
        if (
            lams.ndim != 1
            or lams.size.bit_length() != self.n_qubits - 1
            or lams.size != (1 << (self.n_qubits - 1)) - 1
        ):
            raise ValueError(
                f"expected 2**{self.n_qubits - 1} - 1 pair weights, got shape {lams.shape}"
            )
        object.__setattr__(self, "lambda0_plus", _clamped(self.lambda0_plus, "lambda0_plus"))
        object.__setattr__(self, "lambda0_minus", _clamped(self.lambda0_minus, "lambda0_minus"))
        if lams.min() < 0.0:
            beyond = np.flatnonzero(lams < -NEGATIVE_WEIGHT_CLAMP)
            if beyond.size:
                _clamped(float(lams[beyond[0]]), f"lambda_{beyond[0] + 1}")  # raises, naming the first
            lams[lams < 0.0] = 0.0
        lams.setflags(write=False)  # cheaper than writing flags.writeable
        object.__setattr__(self, "lambdas", lams)
        derived = self.lambda0_plus - self.lambda0_minus
        if self.delta is None:
            object.__setattr__(self, "delta", derived)
        elif not abs(self.delta - derived) <= WEIGHT_SUM_ATOL:
            raise ValueError(
                f"explicit delta {self.delta} inconsistent with "
                f"lambda0_plus - lambda0_minus = {derived}"
            )
        object.__setattr__(self, "delta", _clamped(self.delta, "delta"))
        # numpy's pairwise sum: its error, unlike total()'s, does not grow with
        # the 2**(n-1) weights; written so that a NaN anywhere fails it
        total = self.lambda0_plus + self.lambda0_minus + 2.0 * float(lams.sum())
        if not abs(total - 1.0) <= WEIGHT_SUM_ATOL:
            raise ValueError(f"weights sum to {total}, not 1")

    def lam(self, j: int) -> float:
        """Pair weight lambda_j, 1-based."""
        return float(self.lambdas[j - 1])

    def total(self) -> float:
        # the pair weights added left to right: the sum depolarize divides by
        return self.lambda0_plus + self.lambda0_minus + 2.0 * _left_sum(self.lambdas)


def ghz_ket(n: int, j: int, sign: int) -> np.ndarray:
    """GHZ-basis ket (|j>|0> + sign |~j>|1>)/sqrt(2) on n qubits.

    The two nonzero amplitudes sit at computational indices 2j and
    2**n - 2j - 1.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if not 0 <= j < (1 << (n - 1)):
        raise ValueError(f"pair index {j} out of range for {n} qubits")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.zeros(1 << n, dtype=complex)
    v[2 * j] = _SQRT1_2
    v[(1 << n) - 2 * j - 1] = sign * _SQRT1_2
    return v


def family_density(w: GhzWeights) -> np.ndarray:
    """Dense density matrix of a family state.

    Diagonal carries the weights (indices 2j and ~2j both get lambda_j,
    indices 0 and 2**n - 1 both get (lambda0_plus + lambda0_minus)/2); the
    only off-diagonal entries are the delta/2 coherence between 0 and
    2**n - 1.
    """
    n = w.n_qubits
    dim = 1 << n
    diag = np.zeros(dim)
    diag[0] = diag[dim - 1] = (w.lambda0_plus + w.lambda0_minus) / 2.0
    diag[2::2] = diag[-3::-2] = w.lambdas
    rho = np.diag(diag).astype(complex)
    rho[0, dim - 1] = rho[dim - 1, 0] = w.delta / 2.0
    return rho


def depolarize(rho: np.ndarray) -> GhzWeights:
    """Project a density matrix onto the family.

    ``rho`` must be Hermitian, positive semidefinite and of unit trace
    within tensor.DENSITY_ATOL. Keeps the GHZ-basis diagonal coefficients:
    the j = 0 pair weights are <psi_0^+-| rho |psi_0^+->, and each lambda_j
    is the average of the two j-pair expectations, all divided by their
    sum. When the raw coefficients give delta < 0 the two j = 0 weights are
    swapped and ``basis_flipped`` is set.
    """
    rho = np.asarray(rho, dtype=complex)
    return _project(rho, tensor.check_density(rho))


def _project(rho: np.ndarray, n: int) -> GhzWeights:
    """`depolarize` of a complex n-qubit ``rho`` that is already checked."""
    dim = 1 << n
    diag = rho.diagonal().real
    block = (diag[0] + diag[dim - 1]) / 2.0
    coherence = rho[0, dim - 1].real
    l0p = block + coherence
    l0m = block - coherence
    lams = (diag[2::2] + diag[-3::-2]) / 2.0
    flipped = l0p < l0m
    if flipped:
        l0p, l0m = l0m, l0p
    total = l0p + l0m + 2.0 * _left_sum(lams)
    return GhzWeights(
        n_qubits=n,
        lambda0_plus=l0p / total,
        lambda0_minus=l0m / total,
        lambdas=lams / total,
        basis_flipped=bool(flipped),
        delta=2.0 * abs(coherence) / total,
    )


def werner_like(n: int, x: float) -> GhzWeights:
    """Mixture x |psi_0^+><psi_0^+| + (1-x)/2**n * identity, as weights.

    Closed form (kept exact rather than routed through a dense matrix):
    lambda0_plus = x + (1-x)/2**n, every other weight is (1-x)/2**n, and
    delta = x.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mixing parameter {x} outside [0, 1]")
    noise = (1.0 - x) / (1 << n)
    return GhzWeights(
        n_qubits=n,
        lambda0_plus=x + noise,
        lambda0_minus=noise,
        lambdas=np.full((1 << (n - 1)) - 1, noise),
        delta=x,
    )


def random_weights(n: int, rng: np.random.Generator) -> GhzWeights:
    """Draw weights uniformly on the probability simplex, then canonicalize."""
    masses = rng.dirichlet(np.ones((1 << (n - 1)) + 1))
    l0m, l0p = sorted(map(float, masses[:2]))
    return GhzWeights(
        n_qubits=n,
        lambda0_plus=l0p,
        lambda0_minus=l0m,
        lambdas=masses[2:] / 2.0,
    )


def permute_weights(w: GhzWeights, source) -> GhzWeights:
    """Weights of the same state after relabeling qubits.

    ``source[i]`` is the old qubit placed at new register position i. The
    j = 0 pair is invariant, and the pair weights, laid out at indices 2j
    and ~2j as on the diagonal of family_density, move with the permuted
    index bits.
    """
    n = w.n_qubits
    source = list(source)
    if sorted(source) != list(range(n)):
        raise ValueError(f"{source} is not a permutation of {n} qubits")
    diag = np.zeros(1 << n)
    diag[2::2] = diag[-3::-2] = w.lambdas
    moved = diag.reshape((2,) * n).transpose(source).reshape(-1)
    return GhzWeights(
        n_qubits=n,
        lambda0_plus=w.lambda0_plus,
        lambda0_minus=w.lambda0_minus,
        lambdas=moved[2::2],
        basis_flipped=w.basis_flipped,
        delta=w.delta,
    )
