"""Budget allocation between parameter search and pipeline search.

Section 8 of the paper ("Allocate pipeline and parameter search time budget
reasonably") observes that the Two-step extension has an inherent trade-off:
spending more of the budget on each inner pipeline search means fine-tuning
fewer parameter configurations, while spending less per round explores many
configurations shallowly.  This module makes that trade-off explicit through
pluggable *allocation strategies* used by :class:`AllocatedTwoStepSearch`:

* :class:`FixedAllocation` — the plain Two-step scheme of Section 6.2: every
  round gets the same number of trials and a fresh random configuration.
* :class:`HalvingAllocation` — a successive-halving scheme over parameter
  configurations: a screening phase gives many configurations a small
  budget, then the best configurations are re-searched with progressively
  larger budgets.
* :class:`GreedyAdaptiveAllocation` — exploit-on-improvement: when a round
  improves the overall best accuracy its configuration is kept and its next
  round budget doubles, otherwise a fresh configuration is sampled at the
  minimum round size.

``compare_allocations`` runs all strategies on one problem so the ablation
benchmark can rank them under an equal total budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.budget import TrialBudget
from repro.core.problem import AutoFPProblem
from repro.core.result import SearchResult
from repro.exceptions import ValidationError
from repro.extensions.param_space import ParameterizedSpace
from repro.extensions.strategies import ExtendedSearchOutcome
from repro.utils.random import check_random_state


@dataclass
class RoundPlan:
    """What :class:`AllocatedTwoStepSearch` should do in the next round.

    Attributes
    ----------
    trials:
        Number of pipeline evaluations granted to the round.
    reuse_configuration:
        When True the previous round's parameter configuration is searched
        again (with the new budget) instead of sampling a fresh one.
    """

    trials: int
    reuse_configuration: bool = False


@dataclass
class RoundOutcome:
    """What actually happened in one completed round."""

    round_index: int
    trials_used: int
    best_accuracy: float
    improved_overall_best: bool
    configuration_id: int


class AllocationStrategy:
    """Protocol: decide the budget (and configuration reuse) of each round."""

    name = "allocation"

    def plan_round(self, history: list[RoundOutcome],
                   remaining_trials: int) -> RoundPlan:
        """Return the plan for the next round given past rounds and the budget left."""
        raise NotImplementedError


class FixedAllocation(AllocationStrategy):
    """Constant round size with a fresh configuration every round (plain Two-step)."""

    name = "fixed"

    def __init__(self, trials_per_round: int = 15) -> None:
        if trials_per_round < 1:
            raise ValidationError("trials_per_round must be at least 1")
        self.trials_per_round = int(trials_per_round)

    def plan_round(self, history: list[RoundOutcome],
                   remaining_trials: int) -> RoundPlan:
        return RoundPlan(trials=min(self.trials_per_round, remaining_trials))


class HalvingAllocation(AllocationStrategy):
    """Successive halving over parameter configurations.

    The first ``n_screening`` rounds give fresh configurations a small
    ``screening_trials`` budget each.  After screening, every subsequent
    round re-searches the best configuration seen so far with an
    ``eta``-times larger budget than the previous exploitation round.
    """

    name = "halving"

    def __init__(self, n_screening: int = 4, screening_trials: int = 5,
                 eta: float = 2.0) -> None:
        if n_screening < 1:
            raise ValidationError("n_screening must be at least 1")
        if screening_trials < 1:
            raise ValidationError("screening_trials must be at least 1")
        if eta <= 1.0:
            raise ValidationError("eta must be greater than 1")
        self.n_screening = int(n_screening)
        self.screening_trials = int(screening_trials)
        self.eta = float(eta)

    def plan_round(self, history: list[RoundOutcome],
                   remaining_trials: int) -> RoundPlan:
        if len(history) < self.n_screening:
            return RoundPlan(trials=min(self.screening_trials, remaining_trials))
        exploitation_rounds = len(history) - self.n_screening
        trials = int(round(self.screening_trials * self.eta ** (exploitation_rounds + 1)))
        return RoundPlan(trials=min(max(trials, 1), remaining_trials),
                         reuse_configuration=True)


class GreedyAdaptiveAllocation(AllocationStrategy):
    """Exploit configurations that improve the overall best accuracy.

    A round that improves the overall best keeps its configuration and gets
    twice the budget next time (capped at ``max_trials_per_round``); a round
    that does not improve falls back to a fresh configuration at
    ``min_trials`` evaluations.
    """

    name = "greedy"

    def __init__(self, min_trials: int = 5, max_trials_per_round: int = 30) -> None:
        if min_trials < 1:
            raise ValidationError("min_trials must be at least 1")
        if max_trials_per_round < min_trials:
            raise ValidationError("max_trials_per_round must be >= min_trials")
        self.min_trials = int(min_trials)
        self.max_trials_per_round = int(max_trials_per_round)

    def plan_round(self, history: list[RoundOutcome],
                   remaining_trials: int) -> RoundPlan:
        if not history or not history[-1].improved_overall_best:
            return RoundPlan(trials=min(self.min_trials, remaining_trials))
        doubled = min(history[-1].trials_used * 2, self.max_trials_per_round)
        return RoundPlan(trials=min(doubled, remaining_trials),
                         reuse_configuration=True)


class AllocatedTwoStepSearch:
    """Two-step parameter/pipeline search driven by an allocation strategy.

    Parameters
    ----------
    algorithm_factory:
        Callable ``seed -> SearchAlgorithm`` producing a fresh searcher for
        each round.
    parameter_space:
        The extended parameter space (Table 6 or Table 7).
    allocation:
        An :class:`AllocationStrategy` deciding each round's budget and
        whether to reuse the best configuration.
    random_state:
        Seed for configuration sampling and per-round searcher seeds.
    """

    def __init__(self, algorithm_factory, parameter_space: ParameterizedSpace,
                 allocation: AllocationStrategy | None = None,
                 random_state: int | None = 0) -> None:
        self.algorithm_factory = algorithm_factory
        self.parameter_space = parameter_space
        self.allocation = allocation or FixedAllocation()
        self.random_state = random_state

    def search(self, problem: AutoFPProblem, *,
               max_trials: int = 60) -> ExtendedSearchOutcome:
        """Run the allocated Two-step search until ``max_trials`` evaluations."""
        rng = check_random_state(self.random_state)
        merged = SearchResult(algorithm=f"two_step[{self.allocation.name}]")
        merged.baseline_accuracy = problem.evaluator.baseline_accuracy()
        budget = TrialBudget(max_trials)

        history: list[RoundOutcome] = []
        overall_best = -np.inf
        best_space = None
        best_configuration_id = -1
        next_configuration_id = 0

        while not budget.exhausted():
            plan = self.allocation.plan_round(history, int(budget.remaining()))
            if plan.trials < 1:
                break
            if plan.reuse_configuration and best_space is not None:
                configured_space = best_space
                configuration_id = best_configuration_id
            else:
                configured_space = self.parameter_space.sample_configuration(rng)
                configuration_id = next_configuration_id
                next_configuration_id += 1

            round_problem = AutoFPProblem(
                evaluator=problem.evaluator, space=configured_space,
                name=f"{problem.name}/round-{len(history) + 1}",
                context=problem.context,
            )
            algorithm = self.algorithm_factory(int(rng.integers(0, 2**31 - 1)))
            round_result = algorithm.search(round_problem, max_trials=plan.trials)
            merged.extend(round_result.trials)
            budget.consume(len(round_result.trials))

            round_best = round_result.best_accuracy
            improved = round_best > overall_best
            if improved:
                overall_best = round_best
                best_space = configured_space
                best_configuration_id = configuration_id
            history.append(RoundOutcome(
                round_index=len(history) + 1,
                trials_used=len(round_result.trials),
                best_accuracy=round_best,
                improved_overall_best=improved,
                configuration_id=configuration_id,
            ))

        outcome = ExtendedSearchOutcome(
            f"two_step[{self.allocation.name}]", merged, n_rounds=len(history)
        )
        outcome.rounds = history
        return outcome


#: the allocation strategies compared by the ablation benchmark
DEFAULT_ALLOCATIONS = ("fixed", "halving", "greedy")


def make_allocation(name: str, **kwargs) -> AllocationStrategy:
    """Instantiate an allocation strategy by name."""
    classes = {
        FixedAllocation.name: FixedAllocation,
        HalvingAllocation.name: HalvingAllocation,
        GreedyAdaptiveAllocation.name: GreedyAdaptiveAllocation,
    }
    if name not in classes:
        from repro.exceptions import UnknownComponentError

        raise UnknownComponentError(
            f"Unknown allocation strategy {name!r}. Known names: {sorted(classes)}"
        )
    return classes[name](**kwargs)


def compare_allocations(problem: AutoFPProblem, parameter_space: ParameterizedSpace,
                        algorithm_factory, *, max_trials: int = 60,
                        allocations=DEFAULT_ALLOCATIONS,
                        random_state: int | None = 0) -> dict[str, ExtendedSearchOutcome]:
    """Run every allocation strategy on the same problem under an equal budget."""
    rng = check_random_state(random_state)
    outcomes: dict[str, ExtendedSearchOutcome] = {}
    for name in allocations:
        searcher = AllocatedTwoStepSearch(
            algorithm_factory, parameter_space,
            allocation=make_allocation(name),
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        outcomes[name] = searcher.search(problem, max_trials=max_trials)
    return outcomes
