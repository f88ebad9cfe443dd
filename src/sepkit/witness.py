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
  projectors. The mixture is two arrays: a weight per term, and each
  term's factors as rows of ``KETS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor
from .family import GhzWeights, family_density, ghz_ket

_SQRT1_2 = 1.0 / math.sqrt(2.0)
# Single-qubit kets |0>, |1>, |+>, |->: every ensemble factor is one of these rows.
KETS = np.array([[1, 0], [0, 1], [_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)
KETS.setflags(write=False)
# Bits of the 3-qubit index b, qubit 0 first: the KETS rows of |b>, and,
# plus 2, of the +- product ket with a minus where b has a one.
_BITS = (np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1
# The GHZ kets in the order of rho_hat's weights: psi_0^+, psi_0^-, psi_1^+, ...
_GHZ_KETS = np.array([ghz_ket(3, j, sign) for j in range(4) for sign in (1, -1)])


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


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Mixture of full product states as two read-only arrays.

    Term t has weight ``weights[t]`` and product ket
    ``factors[t, 0] (x) factors[t, 1] (x) ...``, one dim-2 ket per qubit:
    ``weights`` has shape (terms,) and ``factors`` (terms, qubits, 2).
    Any other shape, ragged input included, raises ValueError.
    """

    weights: np.ndarray
    factors: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        factors = np.array(self.factors, dtype=complex)
        if (factors.ndim != 3 or not factors.shape[1] or factors.shape[2] != 2
                or weights.shape != factors.shape[:1]):
            raise ValueError(f"shapes {weights.shape}, {factors.shape}: not (terms,), (terms, qubits, 2)")
        for name, a in (("weights", weights), ("factors", factors)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_qubits(self) -> int:
        return self.factors.shape[1]


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


def _projector_sum(weights: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """sum_t weights[t] |kets[t]><kets[t]|, added to zeros in term order as a loop adds."""
    projectors = kets[:, :, None] * kets.conj()[:, None, :]
    return np.add.reduce(weights[:, None, None] * projectors, initial=0.0)


def rho_hat_density(hw: RhoHatWeights) -> np.ndarray:
    """Dense operator with the split weights on the GHZ projectors."""
    w = hw.base
    plus_minus = ((w.lambda0_plus, *hw.hat_plus), (w.lambda0_minus, *hw.hat_minus))
    return _projector_sum(np.column_stack(plus_minus).ravel(), _GHZ_KETS)


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
    pair_sums = np.add((w.lambda0_plus, *hw.hat_plus), (w.lambda0_minus, *hw.hat_minus))
    coeffs = (pair_sums - delta) / 2.0
    kept = np.flatnonzero(coeffs > 0.0)
    weights = coeffs[kept].repeat(2)
    rows = _BITS[np.column_stack((2 * kept, 7 - 2 * kept)).ravel()]
    if delta > 0.0:
        weights = np.append(weights, [delta] * 4)
        # the +- kets with an even number of minus factors span the plus-sign GHZ sector
        rows = np.concatenate((rows, _BITS[[0, 3, 5, 6]] + 2))
    return SeparableEnsemble(weights, KETS[rows])


def ensemble_density(e: SeparableEnsemble) -> np.ndarray:
    """Mixture of the ensemble's product states as a dense matrix.

    Every product ket is formed at once, left to right as np.kron forms it.
    """
    psi = e.factors[:, 0]
    for q in range(1, e.n_qubits):
        psi = (psi[:, :, None] * e.factors[:, q, None, :]).reshape(-1, 2 << q)
    return _projector_sum(e.weights, psi)


def verify_ensemble(e: SeparableEnsemble, target: np.ndarray) -> float:
    """Max-abs entrywise deviation of the ensemble mixture from ``target``.

    Also validates the ensemble: every weight must be >= -1e-14, every
    factor normalized, and ``target`` an operator on the ensemble's qubits.
    The deviation is returned unconditionally, so perturbed weights show up
    as a nonzero residual rather than an error.
    """
    target = np.asarray(target, dtype=complex)
    dim = 1 << e.n_qubits
    if target.shape != (dim, dim):
        raise ValueError(f"target has shape {target.shape}, not ({dim}, {dim})")
    if (e.weights < -1e-14).any():
        raise ValueError(f"negative ensemble weight {e.weights.min()}")
    norms = (e.factors.real**2 + e.factors.imag**2).sum(axis=-1)
    if (np.abs(norms - 1.0) > tensor.NORM_ATOL).any():
        raise ValueError("ensemble factor is not normalized")
    return float(np.abs(ensemble_density(e) - target).max())
