"""TPOT-FP stand-in: genetic-programming pipeline search with 5 preprocessors.

The paper compares Auto-FP against the feature-preprocessing module of TPOT,
which (a) supports only five preprocessors and (b) searches with genetic
programming.  This module reproduces both structural properties: the
candidate set excludes PowerTransformer and QuantileTransformer, and the
searcher is a generational GP with tournament selection, single-point
crossover and point mutation.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import AutoFPProblem
from repro.core.result import SearchResult, TrialRecord
from repro.core.search_space import SearchSpace
from repro.preprocessing.registry import default_preprocessors
from repro.search.base import SearchAlgorithm

#: the five preprocessors exposed by TPOT's FP module (Table 8)
TPOT_PREPROCESSOR_NAMES: tuple[str, ...] = (
    "binarizer",
    "maxabs_scaler",
    "minmax_scaler",
    "normalizer",
    "standard_scaler",
)


def tpot_search_space(max_length: int = 7) -> SearchSpace:
    """Search space restricted to TPOT's five preprocessors."""
    return SearchSpace(default_preprocessors(TPOT_PREPROCESSOR_NAMES),
                       max_length=max_length)


class GeneticProgrammingFP(SearchAlgorithm):
    """Generational genetic programming over preprocessing pipelines.

    Runs through the same search loop as the 15 Auto-FP algorithms:
    generation 0 is the initial population, and every later proposal
    batch is one generation of children bred from the survivors.

    Parameters
    ----------
    population_size:
        Number of pipelines per generation.
    tournament_size:
        Tournament size for parent selection.
    crossover_rate / mutation_rate:
        Probability of applying crossover / mutation when producing a child.
    restrict_to_tpot:
        When True (default) the candidate set is TPOT's five preprocessors;
        set to False to run the same GP over the full seven-preprocessor
        space.
    """

    name = "tpot_fp"

    def __init__(self, population_size: int = 8, tournament_size: int = 3,
                 crossover_rate: float = 0.7, mutation_rate: float = 0.4,
                 restrict_to_tpot: bool = True, max_length: int = 7,
                 random_state: int | None = 0) -> None:
        super().__init__(random_state)
        self.population_size = int(population_size)
        self.tournament_size = int(tournament_size)
        self.crossover_rate = float(crossover_rate)
        self.mutation_rate = float(mutation_rate)
        self.restrict_to_tpot = bool(restrict_to_tpot)
        self.max_length = int(max_length)

    def search(self, problem: AutoFPProblem, budget: Budget | None = None,
               *, max_trials: int = 40) -> SearchResult:
        """Run the GP search and return a :class:`SearchResult`."""
        return super().search(problem, budget, max_trials=max_trials)

    # The hooks breed in the GP's own space, never the problem's: a run
    # (resumed ones included) stays on TPOT's five preprocessors.
    def _setup(self, problem, rng) -> None:
        self._space = (
            tpot_search_space(self.max_length)
            if self.restrict_to_tpot
            else SearchSpace(max_length=self.max_length)
        )
        #: (pipeline, fitness) survivors the next generation breeds from
        self._population: list = []
        #: (pipeline, fitness) of this generation, in evaluation order
        self._offspring: list = []

    def _initial_pipelines(self, space: SearchSpace, rng: np.random.Generator):
        return self._space.sample_pipelines(self.population_size, rng)

    def _observe(self, record: TrialRecord) -> None:
        self._offspring.append((record.pipeline, record.accuracy))

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        survivors = self._population + self._offspring
        if not survivors:
            # Completion-driven with more workers than individuals: no
            # parent is observed yet, so wait for the first completions.
            return []
        if self._population:
            # Elitist survival: best population_size individuals overall.
            # Generation 1 breeds from the initial population unsorted.
            survivors.sort(key=lambda pair: pair[1], reverse=True)
            survivors = survivors[: self.population_size]
        self._population, self._offspring = survivors, []
        children = []
        while len(children) < self.population_size:
            parent_a = self._select(rng)
            parent_b = self._select(rng)
            child = parent_a
            if rng.random() < self.crossover_rate:
                child = self._space.crossover(parent_a, parent_b, rng)
            if rng.random() < self.mutation_rate:
                child = self._space.mutate(child, rng)
            children.append(child)
        return children

    def _select(self, rng: np.random.Generator):
        population = self._population
        size = min(self.tournament_size, len(population))
        indices = rng.choice(len(population), size=size, replace=False)
        best = max(indices, key=lambda i: population[int(i)][1])
        return population[int(best)][0]
