"""The unified Auto-FP search framework (Algorithm 1 of the paper).

Every search algorithm follows the same iterative skeleton:

1. generate (and evaluate) initial pipelines,
2. update a surrogate model / internal state (optional),
3. sample new pipelines,
4. evaluate the sampled pipelines, record the results, and repeat until the
   budget is exhausted; finally return the pipeline with the lowest error.

:class:`SearchAlgorithm` declares that skeleton's hooks once.  Concrete
algorithms override four of them — ``_initial_pipelines``, ``_update``,
``_propose`` and ``_observe`` — and inherit budget accounting, pick-time
measurement (the "Pick" component of the bottleneck analysis) and result
collection.  The loop itself is run by
:class:`~repro.search.session.SearchSession` (the lifecycle facade that
also provides callbacks, interruption and checkpoint/resume);
:meth:`SearchAlgorithm.search` is a thin wrapper constructing a session.

Under the default barrier schedule, step 4 evaluates each iteration's
proposals as *one wave*: algorithms that propose whole generations or
rungs (PBT, Hyperband/BOHB, batched random search via the
:meth:`SearchAlgorithm._propose_batch` hook) therefore parallelise
automatically when the problem's evaluator runs on a parallel backend
(:mod:`repro.engine`).  Records are observed in proposal order, so batched
and serial execution produce identical search trajectories.  With the
context's ``async_mode`` the loop observes each evaluation as it
completes instead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.budget import Budget
from repro.core.pipeline import Pipeline
from repro.core.problem import AutoFPProblem
from repro.core.result import SearchResult, TrialRecord
from repro.core.search_space import SearchSpace


class SearchAlgorithm:
    """Base class for all 15 Auto-FP search algorithms.

    Class attributes mirror the columns of Table 3 of the paper (category,
    origin area, surrogate model, initialisation, samples/evaluations per
    iteration) so the taxonomy can be regenerated programmatically.

    Parameters
    ----------
    random_state:
        Seed for all of the algorithm's randomness.
    """

    #: registry name, e.g. ``"rs"`` or ``"pbt"``
    name: str = "base"
    #: one of traditional / surrogate / evolution / rl / bandit
    category: str = "traditional"
    #: origin area, "hpo" or "nas"
    area: str = "hpo"
    #: human-readable surrogate description (Table 3)
    surrogate_model: str = "None"
    #: initialisation strategy (Table 3)
    initialization: str = "None"
    #: "=1" or ">1" samples per iteration (Table 3)
    samples_per_iteration: str = "=1"
    #: "=1" or ">1" evaluations per iteration (Table 3)
    evaluations_per_iteration: str = "=1"
    #: number of random pipelines evaluated before the main loop
    n_init: int = 0

    def __init__(self, random_state: int | None = 0) -> None:
        self.random_state = random_state

    # ----------------------------------------------------------------- API
    def search(self, problem: AutoFPProblem, budget: Budget | None = None,
               *, max_trials: int | None = None) -> SearchResult:
        """Run the search on ``problem`` and return a :class:`SearchResult`.

        A convenience wrapper over :class:`~repro.search.session.SearchSession`
        — plain searches and checkpointable sessions run through the same
        session, and so share one search loop with one implementation of
        admission and budget accounting.  The problem's context picks the
        loop's schedule (``async_mode``).  Use a session directly for
        progress callbacks, interruption and checkpoint/resume.

        Parameters
        ----------
        problem:
            The Auto-FP problem (evaluator + search space).
        budget:
            Any :class:`~repro.core.budget.Budget`.  Defaults to a
            :class:`TrialBudget` of ``max_trials`` evaluations.
        max_trials:
            Evaluation budget used when ``budget`` is not given; ``None``
            means 50.
        """
        from repro.search.session import SearchSession

        return SearchSession(problem, self).run(budget, max_trials=max_trials)

    # ------------------------------------------------------------- taxonomy
    @classmethod
    def taxonomy_row(cls) -> dict:
        """One row of Table 3 for this algorithm."""
        return {
            "name": cls.name,
            "category": cls.category,
            "area": cls.area,
            "surrogate_model": cls.surrogate_model,
            "initialization": cls.initialization,
            "samples_per_iteration": cls.samples_per_iteration,
            "evaluations_per_iteration": cls.evaluations_per_iteration,
        }

    # ----------------------------------------------------------------- hooks
    def _setup(self, problem: AutoFPProblem, rng: np.random.Generator) -> None:
        """Prepare internal state before the search starts."""

    def _initial_pipelines(self, space: SearchSpace,
                           rng: np.random.Generator) -> list[Pipeline]:
        """Step 1: pipelines evaluated before the main loop (may be empty)."""
        if self.n_init <= 0:
            return []
        return space.sample_pipelines(self.n_init, rng)

    def _update(self, trials: list[TrialRecord], space: SearchSpace,
                rng: np.random.Generator) -> None:
        """Step 2: update the surrogate model / internal state (optional)."""

    def _propose(self, space: SearchSpace, rng: np.random.Generator,
                 trials: list[TrialRecord]) -> Iterable:
        """Step 3: return pipelines (or ``(pipeline, fidelity)`` pairs) to evaluate."""
        raise NotImplementedError

    def _propose_batch(self, space: SearchSpace, rng: np.random.Generator,
                       trials: list[TrialRecord]) -> Iterable:
        """Step 3, batch form: all proposals evaluated together as one batch.

        The default simply delegates to :meth:`_propose` — algorithms that
        already emit whole generations or rungs (PBT, Hyperband) get batch
        evaluation for free.  Algorithms whose single proposals are mutually
        independent can override this to emit several per iteration (e.g.
        :class:`~repro.search.traditional.RandomSearch` with
        ``batch_size > 1``), widening the batch the execution engine can
        fan out to parallel workers.  Algorithms whose next proposal depends
        on the previous observation (annealing, tournament evolution) must
        NOT batch across proposals and should leave this untouched.
        """
        return self._propose(space, rng, trials)

    def _observe(self, record: TrialRecord) -> None:
        """Step 4 callback: incorporate one freshly evaluated trial."""

    # ------------------------------------------------------------ internals
    @staticmethod
    def _unpack_proposal(item) -> tuple[Pipeline, float]:
        if isinstance(item, Pipeline):
            return item, 1.0
        pipeline, fidelity = item
        return pipeline, float(fidelity)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(random_state={self.random_state!r})"
