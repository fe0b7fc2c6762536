"""Behavioural tests of individual search algorithms."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pipeline, SearchSpace
from repro.core.result import SearchResult, TrialRecord
from repro.search import (
    BOHB,
    ENAS,
    PBT,
    SMAC,
    TEVO_H,
    TEVO_Y,
    TPE,
    Anneal,
    Hyperband,
    RandomSearch,
    Reinforce,
    expected_improvement,
)
from repro.exceptions import ValidationError
from repro.search.smac import _erf, _erfc, ndtr


class TestRandomSearchAndAnneal:
    def test_random_search_samples_diverse_pipelines(self, lr_problem):
        result = RandomSearch(random_state=0).search(lr_problem, max_trials=20)
        assert len({t.pipeline for t in result.trials}) > 5

    def test_anneal_parameters_validated(self):
        anneal = Anneal(initial_temperature=0.2, cooling=0.9)
        assert anneal.initial_temperature == 0.2
        assert anneal.cooling == 0.9

    def test_anneal_proposals_are_neighbours_of_current(self, lr_problem):
        """After the first trial, Anneal proposes one-edit neighbours."""
        result = Anneal(random_state=3).search(lr_problem, max_trials=12)
        lengths = [len(t.pipeline) for t in result.trials]
        # consecutive proposals differ in length by at most 1
        assert all(abs(a - b) <= 1 for a, b in zip(lengths[1:], lengths[:-1]))


class TestExpectedImprovement:
    def test_zero_std_no_improvement(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.0]), best=0.6)
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_higher_mean_gives_higher_ei(self):
        ei = expected_improvement(np.array([0.5, 0.9]), np.array([0.1, 0.1]), best=0.6)
        assert ei[1] > ei[0]

    def test_higher_uncertainty_gives_higher_ei_below_best(self):
        ei = expected_improvement(np.array([0.5, 0.5]), np.array([0.01, 0.3]), best=0.6)
        assert ei[1] > ei[0]

    def test_equals_scipy_norm_formula(self):
        from scipy import stats

        rng = np.random.default_rng(11)
        mean = rng.uniform(0.3, 1.0, size=500)
        std = rng.uniform(0.0, 0.2, size=500)
        std[::7] = 0.0
        best, xi = 0.7, 0.01
        clipped = np.maximum(std, 1e-9)
        z = (mean - best - xi) / clipped
        expected = (mean - best - xi) * stats.norm.cdf(z) + clipped * stats.norm.pdf(z)
        assert np.array_equal(expected_improvement(mean, std, best, xi), expected)


class TestNdtrPort:
    """The Cephes ``ndtr`` port equals ``scipy.special.ndtr`` byte for byte.

    Its ``erf``/``erfc`` helpers are checked against scipy's too, so the
    branches ``ndtr`` never takes are still the ported ones.
    """

    #: branch edges of ndtr/erf/erfc, underflow, infinities and denormals
    EDGES = [0.0, 1.0, math.sqrt(2), 8.0, 8 * math.sqrt(2), 38.5, math.inf,
             1e-300, 5e-324, 1e308]

    @staticmethod
    def assert_equals_scipy(values):
        from scipy import special

        values = np.asarray(values, dtype=np.float64)
        assert ndtr(values).tobytes() == special.ndtr(values).tobytes()
        for port, reference in ((_erf, special.erf), (_erfc, special.erfc)):
            ported = np.array([port(value) for value in values.tolist()])
            assert ported.tobytes() == reference(values).tobytes()

    def test_edge_values(self):
        edges = np.array(self.EDGES)
        near = [np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)]
        values = np.concatenate([edges, *near, [np.nan]])
        self.assert_equals_scipy(np.concatenate([values, -values]))

    def test_normal_draws(self):
        rng = np.random.default_rng(5)
        self.assert_equals_scipy(np.concatenate([
            rng.normal(size=20_000), rng.normal(scale=5.0, size=20_000),
        ]))

    @given(st.lists(st.one_of(st.floats(), st.floats(-40.0, 40.0),
                              st.floats(-1.5, 1.5)),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_values(self, values):
        self.assert_equals_scipy(values)

    def test_keeps_the_input_shape(self):
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert ndtr(np.zeros((2, 3)))[1, 2] == 0.5


class TestSMACAndTPE:
    @pytest.mark.parametrize("option", ["n_candidates", "n_trees"])
    def test_smac_rejects_an_empty_pool(self, option):
        with pytest.raises(ValidationError, match=option):
            SMAC(**{option: 0})

    def test_smac_initialisation_count(self, lr_problem):
        result = SMAC(n_init=5, random_state=0).search(lr_problem, max_trials=12)
        init_trials = [t for t in result.trials if t.iteration == 0]
        assert len(init_trials) == 5

    def test_smac_surrogate_is_fitted_after_init(self, lr_problem):
        smac = SMAC(n_init=4, random_state=0)
        smac.search(lr_problem, max_trials=10)
        assert smac._surrogate is not None

    def test_tpe_falls_back_to_random_before_min_trials(self, lr_problem):
        tpe = TPE(n_init=6, random_state=0)
        result = tpe.search(lr_problem, max_trials=4)
        assert len(result) == 4  # still produced trials without a fitted model

    def test_tpe_model_ready_after_enough_trials(self, lr_problem):
        tpe = TPE(n_init=5, random_state=0)
        tpe.search(lr_problem, max_trials=15)
        assert tpe._model is not None and tpe._model.ready_


class TestEvolution:
    def test_tevo_population_bounded(self, lr_problem):
        tevo = TEVO_H(population_size=5, random_state=0)
        tevo.search(lr_problem, max_trials=20)
        assert len(tevo._population) <= 5

    def test_tevo_y_removes_oldest(self, lr_problem):
        tevo = TEVO_Y(population_size=4, random_state=0)
        tevo.search(lr_problem, max_trials=15)
        births = [member.birth for member in tevo._population]
        # The oldest survivors are the most recent births.
        assert min(births) >= 15 - 4 - 1

    def test_tevo_h_keeps_best(self, lr_problem):
        tevo = TEVO_H(population_size=4, random_state=0)
        result = tevo.search(lr_problem, max_trials=15)
        best = result.best_accuracy
        assert any(abs(m.accuracy - best) < 1e-12 for m in tevo._population)

    def test_invalid_kill_strategy_rejected(self):
        from repro.search.evolution import TournamentEvolution

        with pytest.raises(ValidationError):
            TournamentEvolution(kill_strategy="youngest")

    def test_pbt_proposes_multiple_pipelines_per_iteration(self, lr_problem):
        pbt = PBT(population_size=6, random_state=0)
        result = pbt.search(lr_problem, max_trials=18)
        # After the 6 initial trials there are iterations evaluating >1 pipeline.
        from collections import Counter

        per_iteration = Counter(t.iteration for t in result.trials if t.iteration > 0)
        assert max(per_iteration.values()) > 1

    def test_pbt_exploration_probability_validated(self):
        pbt = PBT(explore_probability=0.5)
        assert pbt.explore_probability == 0.5


class TestRLAlgorithms:
    def test_reinforce_policy_moves_toward_rewarding_lengths(self, lr_problem):
        reinforce = Reinforce(learning_rate=1.0, random_state=0)
        reinforce.search(lr_problem, max_trials=25)
        probabilities = reinforce.policy_probabilities()
        assert probabilities["length"].shape == (lr_problem.space.max_length,)
        np.testing.assert_allclose(probabilities["length"].sum(), 1.0)
        # The policy should no longer be uniform after 25 updates.
        uniform = 1.0 / lr_problem.space.max_length
        assert np.abs(probabilities["length"] - uniform).max() > 1e-3

    def test_enas_controller_emits_valid_pipelines(self, lr_problem):
        enas = ENAS(random_state=0)
        result = enas.search(lr_problem, max_trials=10)
        for trial in result.trials:
            assert 1 <= len(trial.pipeline) <= lr_problem.space.max_length

    def test_enas_baseline_tracks_reward(self, lr_problem):
        enas = ENAS(random_state=1)
        enas.search(lr_problem, max_trials=8)
        assert 0.0 <= enas._baseline <= 1.0


class TestBanditAlgorithms:
    def test_hyperband_uses_multiple_fidelities(self, lr_problem):
        result = Hyperband(eta=3.0, min_fidelity=1 / 9, random_state=0).search(
            lr_problem, max_trials=15
        )
        fidelities = {round(t.fidelity, 3) for t in result.trials}
        assert len(fidelities) >= 2

    def test_hyperband_successive_halving_shrinks_rungs(self, lr_problem):
        """Within one bracket, each promotion keeps ~1/eta of the configurations."""
        hyperband = Hyperband(eta=3.0, min_fidelity=1 / 9, random_state=0)
        rng = np.random.default_rng(0)
        hyperband._setup(lr_problem, rng)
        hyperband._start_bracket(lr_problem.space, rng)
        first_rung = hyperband._current_rung
        assert len(first_rung.pipelines) == 9
        assert first_rung.fidelity == pytest.approx(1 / 9)
        # Complete the rung with synthetic scores and advance.
        for i, pipeline in enumerate(first_rung.pipelines):
            first_rung.results[pipeline.spec()] = i / 10.0
        hyperband._advance(lr_problem.space, rng)
        second_rung = hyperband._current_rung
        assert len(second_rung.pipelines) == 3
        assert second_rung.fidelity == pytest.approx(1 / 3)

    def test_hyperband_invalid_eta_rejected(self):
        with pytest.raises(ValidationError):
            Hyperband(eta=1.0)

    def test_hyperband_invalid_fidelity_rejected(self):
        with pytest.raises(ValidationError):
            Hyperband(min_fidelity=0.0)

    def test_bohb_uses_density_after_enough_trials(self, lr_problem):
        bohb = BOHB(min_model_trials=4, random_state=0)
        bohb.search(lr_problem, max_trials=25)
        assert bohb._density is not None

    def test_best_trial_only_considers_full_fidelity_when_available(self, lr_problem):
        result = Hyperband(random_state=0).search(lr_problem, max_trials=20)
        full_fidelity = [t for t in result.trials if t.fidelity >= 1.0]
        if full_fidelity:
            assert result.best_trial().fidelity >= 1.0


#: digests of the (spec, fidelity, accuracy) records of a 12-trial search
#: on blood/lr, taken before the MLP and LSTM surrogates shared one epoch
#: loop with the other Adam-trained models
GOLDEN_PNAS = {
    "pmne": "94f04fd06681edf6283b0dad765a08b8a897d1c8291240f99cf6109873e48eb7",
    "pme": "99acf697c031ad3eae5c9287bef91f701126562069811e0e10159d64257934dc",
    "plne": "5afecd5745ee528763fe9a81e42ca35f3af3992be500ee3457a9a697229ff183",
    "ple": "d5ef997cea7894b0ec3c8ab113facf4bd5d8b737ba65b3998f8bba91c4a863c2",
}


class TestProgressiveNAS:
    def test_initialises_with_all_single_preprocessors(self, lr_problem):
        from repro.search import PMNE

        pmne = PMNE(random_state=0)
        result = pmne.search(lr_problem, max_trials=10)
        init = [t.pipeline for t in result.trials if t.iteration == 0]
        assert len(init) == 7
        assert all(len(p) == 1 for p in init)

    def test_beam_grows_pipeline_length(self, lr_problem):
        from repro.search import PMNE

        pmne = PMNE(beam_width=3, random_state=0)
        result = pmne.search(lr_problem, max_trials=16)
        later = [t for t in result.trials if t.iteration >= 1]
        assert any(len(t.pipeline) >= 2 for t in later)

    def test_invalid_surrogate_rejected(self):
        from repro.search.pnas import ProgressiveNAS

        with pytest.raises(ValidationError):
            ProgressiveNAS(surrogate="transformer")

    def test_ensemble_variants_use_ensemble_surrogate(self, lr_problem):
        from repro.search import PME
        from repro.surrogates import EnsembleRegressor

        pme = PME(n_ensemble=2, random_state=0)
        pme.search(lr_problem, max_trials=12)
        assert isinstance(pme._model, EnsembleRegressor)

    @pytest.mark.parametrize("name", sorted(GOLDEN_PNAS))
    def test_golden_twelve_trial_records_on_blood_lr(self, name):
        """The surrogate's ranking picks trials 8-12, so a surrogate that
        trains to different bits usually shows up in the records."""
        from repro.core.problem import AutoFPProblem
        from repro.search import make_search_algorithm

        problem = AutoFPProblem.from_registry("blood", "lr", random_state=0)
        result = make_search_algorithm(name, random_state=0).search(
            problem, max_trials=12)
        records = [(t.pipeline.spec(), t.fidelity, t.accuracy)
                   for t in result.trials]
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == GOLDEN_PNAS[name]
