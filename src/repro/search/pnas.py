"""Progressive NAS adapted to Auto-FP (PMNE, PME, PLNE, PLE).

Progressive NAS starts from the simplest architectures — here the seven
single-preprocessor pipelines — evaluates them, trains a surrogate
(an MLP or an LSTM, optionally an ensemble of either) on the results, then
*progressively* expands the current beam by one position, uses the surrogate
to rank all expansions and evaluates only the predicted top-k.  The four
paper variants differ only in the surrogate:

==========  ==========================
PMNE        MLP, no ensemble
PME         MLP ensemble
PLNE        LSTM, no ensemble
PLE         LSTM ensemble
==========  ==========================
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.search.base import SearchAlgorithm
from repro.surrogates.base import EnsembleRegressor
from repro.surrogates.lstm_regressor import LSTMRegressor
from repro.surrogates.mlp_regressor import MLPRegressor


def _build_surrogate(surrogate: str, seed: int, n_blocks: int, member: int):
    """Surrogate ``member`` of a PNAS model seeded ``seed``.

    Module-level so the :func:`functools.partial` that binds it pickles
    with the algorithm state into a session checkpoint.
    """
    if surrogate == "mlp":
        return MLPRegressor(hidden_size=24, epochs=60,
                            random_state=seed + member)
    model = LSTMRegressor(hidden_size=12, epochs=25,
                          random_state=seed + member)
    model.set_encoding_block(n_blocks)
    return model


class ProgressiveNAS(SearchAlgorithm):
    """Beam-style progressive search guided by a learned surrogate.

    Parameters
    ----------
    surrogate:
        ``"mlp"`` or ``"lstm"``.
    ensemble:
        Whether to train a bootstrap ensemble of the surrogate.
    beam_width:
        Number of pipelines kept in the beam after each expansion (the
        "top-k" evaluated per iteration).
    n_ensemble:
        Ensemble size when ``ensemble`` is True.
    """

    name = "pnas"
    category = "surrogate"
    area = "nas"
    surrogate_model = "MLP/LSTM"
    initialization = "Single Preprocessors"
    samples_per_iteration = ">1"
    evaluations_per_iteration = ">1"

    def __init__(self, surrogate: str = "mlp", ensemble: bool = False,
                 beam_width: int = 5, n_ensemble: int = 3,
                 random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        if surrogate not in ("mlp", "lstm"):
            from repro.exceptions import ValidationError

            raise ValidationError("surrogate must be 'mlp' or 'lstm'")
        self.surrogate = surrogate
        self.ensemble = bool(ensemble)
        self.beam_width = int(beam_width)
        self.n_ensemble = int(n_ensemble)

    # ------------------------------------------------------------ internals
    def _make_surrogate(self, space: SearchSpace, seed: int):
        factory = partial(_build_surrogate, self.surrogate, seed,
                          space.n_candidates + 1)
        if self.ensemble:
            return EnsembleRegressor(factory, n_members=self.n_ensemble,
                                     random_state=seed)
        return factory(0)

    def _setup(self, problem, rng) -> None:
        self._beam: list[Pipeline] = []
        self._current_length = 1
        self._model = None

    def _initial_pipelines(self, space: SearchSpace, rng) -> list[Pipeline]:
        singles = space.single_step_pipelines()
        self._beam = list(singles)
        return singles

    def _update(self, trials: list[TrialRecord], space: SearchSpace, rng) -> None:
        usable = [t for t in trials if t.fidelity >= 1.0]
        if len(usable) < 2:
            self._model = None
            return
        X = space.encode_many([t.pipeline for t in usable])
        y = np.asarray([t.accuracy for t in usable])
        self._model = self._make_surrogate(space, int(rng.integers(0, 2**31 - 1)))
        self._model.fit(X, y)

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        # Keep only the best beam_width members of the current beam, ranked
        # by their observed accuracy.
        accuracy_by_spec = {}
        for trial in trials:
            if trial.fidelity >= 1.0:
                spec = trial.pipeline.spec()
                accuracy_by_spec[spec] = max(
                    accuracy_by_spec.get(spec, -np.inf), trial.accuracy
                )
        scored_beam = [
            (accuracy_by_spec.get(p.spec(), -np.inf), p) for p in self._beam
        ]
        scored_beam.sort(key=lambda pair: pair[0], reverse=True)
        survivors = [p for _, p in scored_beam[: self.beam_width]]

        # Expand each survivor by one position.
        expansions: list[Pipeline] = []
        for pipeline in survivors:
            expansions.extend(space.expand(pipeline))
        expansions = [p for p in expansions if p.spec() not in accuracy_by_spec]

        if not expansions:
            # Beam reached max length: restart from surrogate-ranked random samples.
            expansions = space.sample_pipelines(self.beam_width * 4, rng)
            expansions = [p for p in expansions if p.spec() not in accuracy_by_spec]
            if not expansions:
                return []

        if self._model is None:
            selected = expansions[: self.beam_width]
        else:
            predicted = self._model.predict(space.encode_many(expansions))
            order = np.argsort(predicted)[::-1]
            selected = [expansions[int(i)] for i in order[: self.beam_width]]

        self._beam = selected
        self._current_length += 1
        return selected


class PMNE(ProgressiveNAS):
    """Progressive NAS with a single MLP surrogate."""

    name = "pmne"
    surrogate_model = "MLP no ensemble"

    def __init__(self, beam_width: int = 5, random_state: int | None = 0) -> None:
        super().__init__(surrogate="mlp", ensemble=False, beam_width=beam_width,
                         random_state=random_state)


class PME(ProgressiveNAS):
    """Progressive NAS with an MLP ensemble surrogate."""

    name = "pme"
    surrogate_model = "MLP ensemble"

    def __init__(self, beam_width: int = 5, n_ensemble: int = 3,
                 random_state: int | None = 0) -> None:
        super().__init__(surrogate="mlp", ensemble=True, beam_width=beam_width,
                         n_ensemble=n_ensemble, random_state=random_state)


class PLNE(ProgressiveNAS):
    """Progressive NAS with a single LSTM surrogate."""

    name = "plne"
    surrogate_model = "LSTM no ensemble"

    def __init__(self, beam_width: int = 5, random_state: int | None = 0) -> None:
        super().__init__(surrogate="lstm", ensemble=False, beam_width=beam_width,
                         random_state=random_state)


class PLE(ProgressiveNAS):
    """Progressive NAS with an LSTM ensemble surrogate."""

    name = "ple"
    surrogate_model = "LSTM ensemble"

    def __init__(self, beam_width: int = 5, n_ensemble: int = 3,
                 random_state: int | None = 0) -> None:
        super().__init__(surrogate="lstm", ensemble=True, beam_width=beam_width,
                         n_ensemble=n_ensemble, random_state=random_state)
