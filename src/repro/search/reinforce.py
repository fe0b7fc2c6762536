"""REINFORCE: policy-gradient pipeline search with a parameter-matrix policy.

The policy is factored into a categorical distribution over the pipeline
length and independent categorical distributions over the preprocessor at
each position (the "parameter matrix" of Table 3).  Each iteration samples
one pipeline, observes the validation accuracy as the reward and takes a
policy-gradient step using a moving-average baseline.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.models.base import softmax
from repro.search.base import SearchAlgorithm


class Reinforce(SearchAlgorithm):
    """Monte-Carlo policy gradient (Williams' REINFORCE) for Auto-FP.

    Parameters
    ----------
    learning_rate:
        Step size of the policy-gradient updates.
    baseline_decay:
        Exponential-moving-average factor of the reward baseline.
    entropy_weight:
        Weight of an entropy bonus that discourages premature collapse of
        the policy onto a single pipeline.
    """

    name = "reinforce"
    category = "rl"
    area = "hpo"
    surrogate_model = "Parameter Matrix"
    initialization = "None"
    samples_per_iteration = "=1"
    evaluations_per_iteration = "=1"

    def __init__(self, learning_rate: float = 0.5, baseline_decay: float = 0.8,
                 entropy_weight: float = 0.01, random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        self.learning_rate = float(learning_rate)
        self.baseline_decay = float(baseline_decay)
        self.entropy_weight = float(entropy_weight)

    def _setup(self, problem, rng) -> None:
        space = problem.space
        self._length_logits = np.zeros(space.max_length)
        self._position_logits = np.zeros((space.max_length, space.n_candidates))
        self._baseline = 0.0
        self._baseline_initialised = False
        self._last_choice: tuple[int, list[int]] | None = None

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        length_probs = softmax(self._length_logits)
        length = int(rng.choice(space.max_length, p=length_probs)) + 1
        indices = []
        for position in range(length):
            probs = softmax(self._position_logits[position])
            indices.append(int(rng.choice(space.n_candidates, p=probs)))
        self._last_choice = (length, indices)
        return [space.pipeline_from_indices(indices)]

    def _observe(self, record: TrialRecord) -> None:
        if self._last_choice is None:
            return
        reward = record.accuracy
        if not self._baseline_initialised:
            self._baseline = reward
            self._baseline_initialised = True
        advantage = reward - self._baseline
        self._baseline = (
            self.baseline_decay * self._baseline + (1 - self.baseline_decay) * reward
        )

        length, indices = self._last_choice
        # Length head update.
        length_probs = softmax(self._length_logits)
        grad_length = -length_probs
        grad_length[length - 1] += 1.0
        entropy_grad = -(np.log(length_probs + 1e-12) + 1.0) * length_probs
        self._length_logits += self.learning_rate * (
            advantage * grad_length + self.entropy_weight * entropy_grad
        )

        # Per-position head updates (only for the positions actually used).
        for position, candidate in enumerate(indices):
            probs = softmax(self._position_logits[position])
            grad = -probs
            grad[candidate] += 1.0
            entropy_grad = -(np.log(probs + 1e-12) + 1.0) * probs
            self._position_logits[position] += self.learning_rate * (
                advantage * grad + self.entropy_weight * entropy_grad
            )
        self._last_choice = None

    # --------------------------------------------------------- introspection
    def policy_probabilities(self) -> dict:
        """Return the current length and per-position probabilities (for tests)."""
        return {
            "length": softmax(self._length_logits),
            "positions": np.stack([
                softmax(row) for row in self._position_logits
            ]),
        }
