"""The one successive-halving rung ladder, checked against the two it replaced.

Hyperband and ASHA used to derive their fidelities separately: ASHA as
``min_fidelity * eta**k`` plus a full-fidelity rung when that fell short,
and Hyperband by multiplying each rung's fidelity by ``eta`` on promotion.
Both are kept here as oracles for :func:`repro.search.bandit.rung_ladder`.
"""

import math

import pytest

from repro.exceptions import ValidationError
from repro.search.bandit import BOHB, Hyperband, rung_ladder


def _s_max(eta, min_fidelity):
    return max(0, int(math.floor(math.log(1.0 / min_fidelity, eta))))


def asha_ladder(eta, min_fidelity):
    """ASHA's former list comprehension and full-fidelity top rung."""
    fidelities = [min(1.0, min_fidelity * eta ** rung)
                  for rung in range(_s_max(eta, min_fidelity) + 1)]
    if fidelities[-1] < 1.0 - 1e-9:
        fidelities.append(1.0)
    return fidelities


def hyperband_brackets(eta, min_fidelity):
    """Hyperband's former chained schedule: bracket ``s`` -> its fidelities.

    It had no full-fidelity rung of its own, so a chain that stopped short
    of 1.0 never trained on the whole training set.
    """
    s_max = _s_max(eta, min_fidelity)
    brackets = {}
    for s in range(s_max, -1, -1):
        fidelity = min(1.0, min_fidelity * eta ** (s_max - s))
        rungs = [fidelity]
        for _ in range(s):
            fidelity = min(1.0, fidelity * eta)
            rungs.append(fidelity)
        brackets[s] = rungs
    return brackets


ETAS = (1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0)
MIN_FIDELITIES = (1.0, 0.9, 2.0 / 3.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 0.1,
                  1.0 / 9.0, 0.05, 1.0 / 27.0, 0.01, 0.001)

#: the Figure 6 sweep of benchmarks/bench_fig6_bandit_params.py, crossed
FIG6_CONFIGS = [(eta, min_fidelity) for eta in (2.0, 3.0, 5.0)
                for min_fidelity in (1.0 / 9.0, 1.0 / 3.0, 2.0 / 3.0)]

#: the settings that sweep runs: each eta at 1/9, each minimum at eta 3
FIG6_SWEEP = [(2.0, 1.0 / 9.0), (3.0, 1.0 / 9.0), (5.0, 1.0 / 9.0),
              (3.0, 1.0 / 3.0), (3.0, 2.0 / 3.0)]


def test_equals_the_asha_oracle():
    for eta in ETAS:
        for min_fidelity in MIN_FIDELITIES:
            assert rung_ladder(eta, min_fidelity) \
                == asha_ladder(eta, min_fidelity), (eta, min_fidelity)


@pytest.mark.parametrize("eta, min_fidelity", FIG6_CONFIGS)
def test_equals_the_hyperband_oracle_at_the_figure_6_configs(eta,
                                                             min_fidelity):
    ladder = rung_ladder(eta, min_fidelity)
    brackets = hyperband_brackets(eta, min_fidelity)
    if brackets[0] != [1.0]:
        # The old chain topped out below 1.0: the ladder adds a full-
        # fidelity rung above it, and the oracle holds for the rest.
        assert ladder[-1] == 1.0
        ladder = ladder[:-1]
    s_max = len(ladder) - 1
    assert {s: ladder[s_max - s:] for s in range(s_max + 1)} == brackets


def test_power_form_where_the_chain_drifts_by_an_ulp():
    # The chain reached 0.1 * 3 * 3 = 0.9000000000000001; the ladder
    # computes 0.1 * 3**2 = 0.9, like ASHA always did.
    assert hyperband_brackets(3.0, 0.1)[2][-1] == 0.9000000000000001
    assert rung_ladder(3.0, 0.1) == [0.1, 0.1 * 3.0, 0.9, 1.0]


@pytest.mark.parametrize("eta, min_fidelity", FIG6_SWEEP)
@pytest.mark.parametrize("algorithm", [Hyperband, BOHB],
                         ids=lambda cls: cls.name)
def test_bandits_train_at_full_fidelity_at_the_figure_6_settings(
        algorithm, eta, min_fidelity, lr_problem):
    result = algorithm(eta=eta, min_fidelity=min_fidelity,
                       random_state=0).search(lr_problem, max_trials=25)
    assert any(trial.fidelity == 1.0 for trial in result.trials)


@pytest.mark.parametrize("eta, min_fidelity", [
    (1.0, 0.5), (0.5, 0.5), (3.0, 0.0), (3.0, -0.1), (3.0, 1.5),
])
def test_invalid_parameters_rejected(eta, min_fidelity):
    with pytest.raises(ValidationError):
        rung_ladder(eta, min_fidelity)
