"""Explicit separability certificates for three-qubit family states.

Two constructions back the classification predicates with checkable
objects:

* ``build_rho_tilde``: the state plus delta/2 times the difference of the
  j = 2 pair projectors. The added term mirrors the (0,7) coherence onto
  the (3,4) pair, making the operator invariant under partial transposition
  of the first qubit, and it stays positive semidefinite exactly when
  delta <= 2 lambda_2. The pair (invariance, positivity) certifies
  separability of qubit 0 from the rest.
* ``fully_separable_ensemble``: when all three single-qubit transposes are
  positive, an explicit mixture of product states reproducing the related
  operator rho_hat (same state up to the coefficient projection, with the
  +- pair weights split as lambda_k +- delta/2). Its first part mixes
  computational product states; the coherent rest equals delta times the
  sum of the four +-basis product kets (+++), (+--), (-+-), (--+), whose
  projector sum coincides with the sum of the four plus-sign GHZ
  projectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .family import GhzWeights, family_density, ghz_ket

_SQRT1_2 = 1.0 / math.sqrt(2.0)
KET_PLUS = np.array([_SQRT1_2, _SQRT1_2], dtype=complex)
KET_MINUS = np.array([_SQRT1_2, -_SQRT1_2], dtype=complex)
_COMPUTATIONAL = np.eye(2, dtype=complex)  # rows |0> and |1>, shared by every term
_COMPUTATIONAL.flags.writeable = False

# Sign patterns of the four product kets spanning the plus-sign GHZ sector
# (0 = plus, 1 = minus); each pattern has an even number of minus factors.
PHI_SIGN_PATTERNS = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


class EnsembleNotApplicableError(ValueError):
    """No separable ensemble: ``value`` = 2 lambda_k - delta < 0 for k = ``lambda_index``."""

    def __init__(self, lambda_index: int, value: float):
        self.lambda_index = lambda_index
        self.value = value
        super().__init__(
            f"2 lambda_{lambda_index} - delta = {value} < 0; "
            "a single-qubit partial transpose is negative"
        )


@dataclass(frozen=True)
class RhoHatWeights:
    """Split pair weights lambda_k +- delta/2 (k = 1, 2, 3) over a base state."""

    base: GhzWeights
    hat_plus: tuple[float, ...]
    hat_minus: tuple[float, ...]


@dataclass(frozen=True)
class SeparableEnsemble:
    """Mixture of full product states: (weight, one dim-2 ket per qubit) terms."""

    n_qubits: int
    terms: tuple


def _require_three_qubits(w: GhzWeights) -> None:
    if w.n_qubits != 3:
        raise ValueError("witness constructions are defined for 3 qubits")


def build_rho_tilde(w: GhzWeights) -> np.ndarray:
    """Family state plus (delta/2) (P_2^+ - P_2^-); invariant under T_{qubit 0}."""
    _require_three_qubits(w)
    rho = family_density(w)
    half = w.delta / 2.0
    rho[4, 3] += half
    rho[3, 4] += half
    return rho


def build_rho_hat(w: GhzWeights) -> RhoHatWeights:
    """Split each pair weight into lambda_k +- delta/2.

    Valid only when delta <= 2 lambda_k for every k, classify's rule for a
    positive single-qubit transpose; then lambda_k - delta/2 >= 0 exactly.
    Otherwise EnsembleNotApplicableError reports the first offending index.
    """
    _require_three_qubits(w)
    beyond = np.flatnonzero(w.delta > 2.0 * w.lambdas)
    if beyond.size:
        k = int(beyond[0]) + 1
        raise EnsembleNotApplicableError(k, 2.0 * w.lam(k) - w.delta)
    half = w.delta / 2.0
    minus = w.lambdas - half
    plus = w.lambdas + half
    return RhoHatWeights(base=w, hat_plus=tuple(plus.tolist()), hat_minus=tuple(minus.tolist()))


def rho_hat_density(hw: RhoHatWeights) -> np.ndarray:
    """Dense operator with the split weights on the GHZ projectors."""
    w = hw.base
    rho = w.lambda0_plus * tensor.density_of(ghz_ket(3, 0, +1))
    rho += w.lambda0_minus * tensor.density_of(ghz_ket(3, 0, -1))
    for j in range(1, 4):
        rho += hw.hat_plus[j - 1] * tensor.density_of(ghz_ket(3, j, +1))
        rho += hw.hat_minus[j - 1] * tensor.density_of(ghz_ket(3, j, -1))
    return rho


def phi_product_factors(k: int) -> list[np.ndarray]:
    """Single-qubit factors of the k-th +-basis product ket (k = 0..3)."""
    return [KET_MINUS if bit else KET_PLUS for bit in PHI_SIGN_PATTERNS[k]]


def _computational_factors(index: int) -> list[np.ndarray]:
    return [_COMPUTATIONAL[(index >> (2 - q)) & 1] for q in range(3)]


def fully_separable_ensemble(w: GhzWeights) -> SeparableEnsemble:
    """Explicit product-state mixture reconstructing rho_hat.

    Terms, in order: for each pair index k = 0..3 with positive coefficient
    (hat_plus_k + hat_minus_k - delta)/2, that weight on each of the two
    computational product states |2k> and |~2k| of the pair; then, if
    delta > 0, weight delta on each of the four +-basis product kets.
    Zero-weight terms are dropped.
    """
    hw = build_rho_hat(w)
    delta = w.delta
    terms = []
    for k in range(4):
        if k == 0:
            coeff = (w.lambda0_plus + w.lambda0_minus - delta) / 2.0
        else:
            coeff = (hw.hat_plus[k - 1] + hw.hat_minus[k - 1] - delta) / 2.0
        if coeff <= 0.0:
            continue
        terms.append((coeff, tuple(_computational_factors(2 * k))))
        terms.append((coeff, tuple(_computational_factors(7 - 2 * k))))
    if delta > 0.0:
        for k in range(4):
            terms.append((delta, tuple(phi_product_factors(k))))
    return SeparableEnsemble(n_qubits=3, terms=tuple(terms))


def _stacked_factors(e: SeparableEnsemble) -> np.ndarray:
    """The terms' factors as one (terms, qubits, 2) complex array."""
    return np.array([f for _, fs in e.terms for f in fs], dtype=complex).reshape(-1, e.n_qubits, 2)


def _mixture(e: SeparableEnsemble, factors: np.ndarray) -> np.ndarray:
    """The weighted projectors of the stacked ``factors``' product kets, summed.

    All kets are formed at once, left to right as np.kron forms them, and
    the projectors are added to a zero matrix in term order, as a loop does.
    """
    psi = factors[:, 0]
    for q in range(1, e.n_qubits):
        psi = (psi[:, :, None] * factors[:, q, None, :]).reshape(-1, 2 << q)
    weights = np.array([weight for weight, _ in e.terms], dtype=float).reshape(-1, 1, 1)
    return np.add.reduce(weights * (psi[:, :, None] * psi.conj()[:, None, :]), initial=0.0)


def ensemble_density(e: SeparableEnsemble) -> np.ndarray:
    """Mixture of the ensemble's product states as a dense matrix."""
    return _mixture(e, _stacked_factors(e))


def verify_ensemble(e: SeparableEnsemble, target: np.ndarray) -> float:
    """Max-abs entrywise deviation of the ensemble mixture from ``target``.

    Also validates the ensemble shape: every term must be a full product of
    normalized single-qubit kets with weight >= -1e-14. The deviation is
    returned unconditionally, so perturbed weights show up as a nonzero
    residual rather than an error.
    """
    target = np.asarray(target, dtype=complex)
    for weight, factors in e.terms:
        if weight < -1e-14:
            raise ValueError(f"negative ensemble weight {weight}")
        if len(factors) != e.n_qubits:
            raise ValueError("term is not a full product over the qubits")
        if any(np.shape(f) != (2,) for f in factors):
            raise ValueError("ensemble factors must be single-qubit kets")
    factors = _stacked_factors(e)
    norms = (factors.real**2 + factors.imag**2).sum(axis=-1)
    if (np.abs(norms - 1.0) > tensor.NORM_ATOL).any():
        raise ValueError("ensemble factor is not normalized")
    return float(np.abs(_mixture(e, factors) - target).max())
