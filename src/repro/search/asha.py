"""ASHA: asynchronous successive halving with rung promotion on completion.

Hyperband's successive halving is synchronous: a rung must finish
completely before its top ``1/eta`` fraction is promoted, so parallel
workers idle at every rung barrier.  ASHA (Li et al., *A System for
Massively Parallel Hyperparameter Tuning*, MLSys 2020) makes the promotion
decision per completed evaluation instead: whenever a worker asks for a
job, promote the best not-yet-promoted configuration that sits in the top
``1/eta`` of some rung — or, if no rung has a promotable configuration,
grow the bottom rung with a fresh random one.  No barrier ever forms, so
under the search loop's completion-driven schedule (the context's
``async_mode``, see :mod:`repro.search.session`) every worker slot is
refilled the moment it frees.

The algorithm also runs under the barrier schedule, where it
degenerates to a sequential successive-halving variant: one proposal per
iteration, promotions decided on whatever has completed so far.  Both
schedules produce identical results on the serial backend.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.search.bandit import rung_ladder
from repro.search.base import SearchAlgorithm


class ASHA(SearchAlgorithm):
    """Asynchronous successive halving over training-data fidelity.

    Parameters
    ----------
    eta:
        Reduction factor: the top ``1/eta`` of every rung is promotable.
    min_fidelity:
        Fraction of the training rows used in the bottom rung; each rung
        above multiplies it by ``eta``, and the top rung is 1.0 (see
        :func:`~repro.search.bandit.rung_ladder`).
    random_state:
        Seed for the random configurations grown into the bottom rung.
    """

    name = "asha"
    category = "bandit"
    area = "hpo"
    surrogate_model = "None"
    initialization = "None"
    samples_per_iteration = "=1"
    evaluations_per_iteration = "=1"

    def __init__(self, eta: float = 3.0, min_fidelity: float = 1.0 / 9.0,
                 random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        self.eta = float(eta)
        self.min_fidelity = float(min_fidelity)
        self._ladder = rung_ladder(self.eta, self.min_fidelity)

    # ---------------------------------------------------------------- setup
    def _setup(self, problem, rng) -> None:
        self._fidelities: list[float] = list(self._ladder)
        #: per rung: spec -> (accuracy, pipeline) of completed evaluations
        self._rungs: list[dict] = [{} for _ in self._fidelities]
        #: per rung: specs already promoted out of it (never re-promoted)
        self._promoted: list[set] = [set() for _ in self._fidelities]

    # -------------------------------------------------------------- helpers
    def _promotable(self) -> tuple[int, tuple, Pipeline] | None:
        """Best not-yet-promoted config in the top ``1/eta`` of some rung.

        Rungs are scanned top-down so a configuration close to the full-
        fidelity rung is promoted before the bottom rung grows further —
        the job priority of the original algorithm.
        """
        for rung in range(len(self._fidelities) - 2, -1, -1):
            completed = self._rungs[rung]
            keep = int(len(completed) / self.eta)
            if keep <= 0:
                continue
            ranked = sorted(completed.items(),
                            key=lambda item: (-item[1][0], repr(item[0])))
            for spec, (accuracy, pipeline) in ranked[:keep]:
                if spec not in self._promoted[rung]:
                    return rung, spec, pipeline
        return None

    def _rung_of(self, fidelity: float) -> int | None:
        for rung, rung_fidelity in enumerate(self._fidelities):
            if abs(fidelity - rung_fidelity) < 1e-9:
                return rung
        return None

    # ----------------------------------------------------------------- hooks
    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        job = self._promotable()
        if job is not None:
            rung, spec, pipeline = job
            # Marked promoted at proposal time so the same configuration is
            # never promoted twice while its promotion is still in flight.
            self._promoted[rung].add(spec)
            return [(pipeline, self._fidelities[rung + 1])]
        return [(space.sample_pipeline(rng), self._fidelities[0])]

    def _observe(self, record: TrialRecord) -> None:
        rung = self._rung_of(record.fidelity)
        if rung is None:
            return
        self._rungs[rung][record.pipeline.spec()] = (record.accuracy,
                                                     record.pipeline)

    def __repr__(self) -> str:
        return (f"ASHA(eta={self.eta:g}, min_fidelity={self.min_fidelity:g}, "
                f"random_state={self.random_state!r})")
