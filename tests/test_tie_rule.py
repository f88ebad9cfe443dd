"""Every layer decides positivity by classify's rule delta <= 2 lambda_j, ties positive.

The separable ensemble, the pair planner, the copy-count search and the
witness report are checked against ``classify_family`` on trios whose delta
sits exactly on, one ulp beside, or 1e-13 beside some 2 lambda_j, and on
trios with delta = 5e-324, where delta/2 underflows to 0.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepkit import (
    DistillOutcome,
    EnsembleNotApplicableError,
    GhzWeights,
    classify_family,
    fully_separable_ensemble,
    minimal_m,
    permute_weights,
    plan_pair_distillation,
)
from sepkit import stateio
from sepkit.cli import main

PAIRS = ((0, 1), (0, 2), (1, 2))


def trio(lambdas, delta):
    """The trio with these pair weights and coherence; lambda0_minus takes what is left."""
    lambda0_minus = (1.0 - delta - 2.0 * sum(lambdas)) / 2.0
    return GhzWeights(3, lambda0_minus + delta, lambda0_minus, lambdas, delta=delta)


@st.composite
def near_ties(draw):
    """A trio whose delta is on, one ulp beside or 1e-13 beside 2 lambda_j, or 5e-324."""
    weight = st.sampled_from([0.0, 0.05, 0.1]) | st.floats(0.0, 0.1)
    lambdas = draw(st.lists(weight, min_size=3, max_size=3))
    target = 2.0 * lambdas[draw(st.integers(0, 2))]
    delta = draw(
        st.sampled_from(
            [
                target,
                float(np.nextafter(target, 0.0)),
                float(np.nextafter(target, 1.0)),
                target - 1e-13,
                target + 1e-13,
                5e-324,
            ]
        )
    )
    return trio(lambdas, max(delta, 0.0))


def run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tie-rule") / "state.json"


@settings(max_examples=200)
@example(w=trio([0.1, 0.1, 0.1], 0.2 + 1e-13))
@example(w=trio([0.1, 0.1, 0.1], 0.2))
@example(w=trio([0.0, 0.25, 0.0], 5e-324))
@example(w=trio([0.0, 0.0, 0.0], 5e-324))
@given(w=near_ties())
def test_every_layer_agrees_with_classify(state_path, w):
    rep = classify_family(w)
    if rep.class3 == 5:
        fully_separable_ensemble(w)
    else:
        with pytest.raises(EnsembleNotApplicableError):
            fully_separable_ensemble(w)
    for i, k in PAIRS:
        distillable = (i, k) in rep.distillable_pairs
        plan = plan_pair_distillation(w, i, k)
        assert isinstance(plan, DistillOutcome) if distillable else plan is None, (i, k)
        frame = permute_weights(w, (3 - i - k, i, k))
        assert (minimal_m(frame) is None) == (not distillable), (i, k)
    state_path.write_text(
        json.dumps({"n_qubits": 3, "weights": stateio.weights_dict(w)}), encoding="utf-8"
    )
    classified = run_json("classify", "--input", str(state_path))
    witnessed = run_json("witness", "--input", str(state_path))
    assert witnessed["rho_tilde"]["delta_le_2lambda2"] == classified["pt_positive"]["A"]


def test_ensemble_refused_just_past_a_tie():
    # delta exceeds 2 lambda_k by 1e-13 for every k: class 1, no product ensemble
    w = trio([0.1, 0.1, 0.1], 0.2 + 1e-13)
    assert classify_family(w).class3 == 1
    with pytest.raises(EnsembleNotApplicableError) as err:
        fully_separable_ensemble(w)
    assert err.value.lambda_index == 1
    assert err.value.value < 0.0


def test_smallest_delta_plans_the_pair_classify_calls_distillable():
    # delta = 5e-324 > 0 = 2 lambda_1 = 2 lambda_3: B and C are NPT, so B,C distills
    w = trio([0.0, 0.25, 0.0], 5e-324)
    assert (1, 2) in classify_family(w).distillable_pairs
    assert minimal_m(w) == 1
    plan = plan_pair_distillation(w, 1, 2)
    assert plan.m_used == 1
    assert plan.purifiable
    with pytest.raises(EnsembleNotApplicableError) as err:  # the margin is negative, not 0.0
        fully_separable_ensemble(w)
    assert err.value.value == -5e-324
