"""Separability and distillability toolkit for GHZ-diagonal multiqubit states.

The package classifies states of the GHZ-diagonal family by the positivity
of their partial transposes, constructs explicit separability certificates
(a transpose-invariant extension and a fully separable product ensemble),
and plans the multi-copy filtering protocol that distills maximally
entangled pairs. Every closed-form criterion has a dense linear-algebra
counterpart used as ground truth in the test suite.
"""

from .classify import (
    bipartition_masks,
    classify3,
    classify_family,
    fully_separable,
    ghz_distillable,
    pair_distillable,
    partition_lambda_index,
    pt_positive_analytic,
    separable_wrt,
)
from .distill import (
    DistillOutcome,
    amplify,
    dense_filter_oracle,
    filter_operator,
    minimal_m,
    minimal_m_raw,
    pair_fidelity_after_projection,
    plan_pair_distillation,
)
from .family import (
    GhzWeights,
    depolarize,
    family_density,
    ghz_ket,
    permute_weights,
    random_weights,
    werner_like,
)
from .witness import (
    EnsembleNotApplicableError,
    SeparableEnsemble,
    build_rho_hat,
    build_rho_tilde,
    ensemble_density,
    fully_separable_ensemble,
    rho_hat_density,
    verify_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "DistillOutcome",
    "EnsembleNotApplicableError",
    "GhzWeights",
    "SeparableEnsemble",
    "amplify",
    "bipartition_masks",
    "build_rho_hat",
    "build_rho_tilde",
    "classify3",
    "classify_family",
    "dense_filter_oracle",
    "depolarize",
    "ensemble_density",
    "family_density",
    "filter_operator",
    "fully_separable",
    "fully_separable_ensemble",
    "ghz_distillable",
    "ghz_ket",
    "minimal_m",
    "minimal_m_raw",
    "pair_distillable",
    "pair_fidelity_after_projection",
    "partition_lambda_index",
    "permute_weights",
    "plan_pair_distillation",
    "pt_positive_analytic",
    "random_weights",
    "rho_hat_density",
    "separable_wrt",
    "verify_ensemble",
    "werner_like",
]
