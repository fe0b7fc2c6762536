"""One-step and Two-step parameter-search strategies (Section 6.2).

*One-step* treats every parameterisation of a preprocessor as a separate
preprocessor and runs a single pipeline search over the enlarged space.

*Two-step* alternates: sample one parameter value per preprocessor, run a
short pipeline search with those values fixed, then resample — repeating
until the overall budget is exhausted and returning the best pipeline seen
across all rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.problem import AutoFPProblem
from repro.core.result import SearchResult
from repro.extensions.param_space import ParameterizedSpace
from repro.search.base import SearchAlgorithm
from repro.utils.random import check_random_state


@dataclass
class ExtendedSearchOutcome:
    """Result of a parameter-extended search plus bookkeeping."""

    strategy: str
    result: SearchResult
    n_rounds: int = 1

    @property
    def best_accuracy(self) -> float:
        return self.result.best_accuracy

    @property
    def best_pipeline(self):
        return self.result.best_pipeline


class OneStepSearch:
    """Combine parameter and pipeline search in a single enlarged space.

    Parameters
    ----------
    algorithm:
        Any Auto-FP search algorithm instance (the paper uses PBT).
    parameter_space:
        The extended space (Table 6 or Table 7).
    """

    strategy_name = "one_step"

    def __init__(self, algorithm: SearchAlgorithm,
                 parameter_space: ParameterizedSpace) -> None:
        self.algorithm = algorithm
        self.parameter_space = parameter_space

    def search(self, problem: AutoFPProblem, *, max_trials: int = 60) -> ExtendedSearchOutcome:
        """Run one search over the One-step expansion of the parameter space."""
        enlarged = self.parameter_space.one_step_space()
        extended_problem = AutoFPProblem(
            evaluator=problem.evaluator, space=enlarged,
            name=f"{problem.name}/one-step", context=problem.context,
        )
        result = self.algorithm.search(extended_problem, max_trials=max_trials)
        result.baseline_accuracy = problem.evaluator.baseline_accuracy()
        return ExtendedSearchOutcome(self.strategy_name, result, n_rounds=1)


class TwoStepSearch:
    """Alternate parameter sampling and short pipeline searches.

    Parameters
    ----------
    algorithm_factory:
        Callable ``seed -> SearchAlgorithm`` producing a fresh searcher per
        round (so rounds are independent).
    parameter_space:
        The extended space (Table 6 or Table 7).
    trials_per_round:
        Evaluation budget of each inner pipeline search (the paper uses a
        60-second inner limit; here it is an evaluation count).
    """

    strategy_name = "two_step"

    def __init__(self, algorithm_factory, parameter_space: ParameterizedSpace,
                 trials_per_round: int = 15, random_state: int | None = 0) -> None:
        self.algorithm_factory = algorithm_factory
        self.parameter_space = parameter_space
        self.trials_per_round = int(trials_per_round)
        self.random_state = random_state

    def search(self, problem: AutoFPProblem, *, max_trials: int = 60) -> ExtendedSearchOutcome:
        """Repeat (sample parameters, short pipeline search) until the budget ends.

        The rounds of an :class:`~repro.extensions.allocation.AllocatedTwoStepSearch`
        under a :class:`~repro.extensions.allocation.FixedAllocation` of
        ``trials_per_round``, named after this strategy.
        """
        from repro.extensions.allocation import (
            AllocatedTwoStepSearch,
            FixedAllocation,
        )

        outcome = AllocatedTwoStepSearch(
            self.algorithm_factory, self.parameter_space,
            FixedAllocation(self.trials_per_round),
            random_state=self.random_state,
        ).search(problem, max_trials=max_trials)
        outcome.strategy = self.strategy_name
        outcome.result.algorithm = f"two_step[{self.strategy_name}]"
        return outcome


def compare_one_step_two_step(problem: AutoFPProblem,
                              parameter_space: ParameterizedSpace,
                              algorithm_factory, *, max_trials: int = 60,
                              trials_per_round: int = 15,
                              random_state: int | None = 0) -> dict:
    """Run both strategies on the same problem and return their outcomes.

    ``algorithm_factory`` is a callable ``seed -> SearchAlgorithm`` so both
    strategies use the same underlying search algorithm (the paper uses PBT).
    """
    rng = check_random_state(random_state)
    one_step = OneStepSearch(
        algorithm_factory(int(rng.integers(0, 2**31 - 1))), parameter_space
    ).search(problem, max_trials=max_trials)
    two_step = TwoStepSearch(
        algorithm_factory, parameter_space,
        trials_per_round=trials_per_round,
        random_state=int(rng.integers(0, 2**31 - 1)),
    ).search(problem, max_trials=max_trials)
    return {"one_step": one_step, "two_step": two_step}
