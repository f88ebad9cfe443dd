"""Separability and distillability toolkit for GHZ-diagonal multiqubit states.

The package classifies states of the GHZ-diagonal family by the positivity
of their partial transposes, constructs explicit separability certificates
(a transpose-invariant extension and a fully separable product ensemble),
and plans the multi-copy filtering protocol that distills maximally
entangled pairs. Every closed-form criterion has a dense linear-algebra
counterpart used as ground truth in the test suite.

Each exported name is imported from its submodule the first time it is
read (PEP 562), so a process loads only the submodules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "classify": (
        "bipartition_masks", "classify3", "classify_family", "fully_separable", "ghz_distillable",
        "pair_distillable", "partition_lambda_index", "pt_positive_analytic", "separable_wrt",
    ),
    "distill": (
        "DistillOutcome", "amplify", "dense_filter_oracle", "filter_operator", "minimal_m",
        "minimal_m_raw", "pair_fidelity_after_projection", "plan_pair_distillation",
    ),
    "family": (
        "GhzWeights", "depolarize", "family_density", "ghz_ket", "permute_weights",
        "random_weights", "werner_like",
    ),
    "witness": (
        "EnsembleNotApplicableError", "SeparableEnsemble", "build_rho_hat", "build_rho_tilde",
        "ensemble_density", "fully_separable_ensemble", "rho_hat_density", "verify_ensemble",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later reads find it without this call
    return value
