"""Bandit-based search: Hyperband and BOHB.

Both algorithms trade the number of evaluated pipelines against the fidelity
of each evaluation.  Fidelity here is the fraction of the training rows used
to train the downstream model (the paper's "partial training"); successive
halving promotes the best-performing pipelines of each rung to the next,
higher-fidelity rung.  BOHB replaces Hyperband's uniform-random pipeline
generation with TPE-style sampling from a density fitted on the completed
high-fidelity trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.exceptions import ValidationError
from repro.search.base import SearchAlgorithm
from repro.surrogates.kde import TwoDensityModel


def rung_ladder(eta: float, min_fidelity: float) -> list[float]:
    """The successive-halving fidelity ladder shared by every bandit search.

    Rung ``k`` trains on ``min(1, min_fidelity * eta**k)`` of the training
    rows, for ``k = 0 .. s_max`` with ``s_max = floor(log_eta(1 /
    min_fidelity))`` — the ``r * eta**k`` budget schedule of successive
    halving.  When that top rung falls short of the full training set
    (``eta=2, min_fidelity=1/9`` tops out at 8/9), a rung at 1.0 is
    appended, so every search can finish at full fidelity.  Raises
    :class:`ValidationError` unless ``eta > 1`` and ``0 < min_fidelity
    <= 1``.
    """
    if eta <= 1:
        raise ValidationError("eta must be greater than 1")
    if not 0.0 < min_fidelity <= 1.0:
        raise ValidationError("min_fidelity must be in (0, 1]")
    s_max = max(0, int(math.floor(math.log(1.0 / min_fidelity, eta))))
    ladder = [min(1.0, min_fidelity * eta ** k) for k in range(s_max + 1)]
    if ladder[-1] < 1.0 - 1e-9:
        ladder.append(1.0)
    return ladder


@dataclass
class _Rung:
    """One successive-halving rung: pipelines evaluated at a common fidelity."""

    fidelity: float
    pipelines: list[Pipeline]
    results: dict = field(default_factory=dict)  # spec -> accuracy

    def complete(self) -> bool:
        # Duplicate configurations share one result entry, so completeness is
        # checked per unique specification rather than by count.
        return all(p.spec() in self.results for p in self.pipelines)

    def top(self, k: int) -> list[Pipeline]:
        ranked = sorted(
            self.pipelines,
            key=lambda p: self.results.get(p.spec(), -np.inf),
            reverse=True,
        )
        return ranked[:k]


class Hyperband(SearchAlgorithm):
    """Hyperband with successive halving over training-data fidelity.

    Parameters
    ----------
    eta:
        Halving factor (the paper sweeps 2, 3 and 5 in Figure 6).
    min_fidelity:
        Smallest fraction of the training data used in the lowest rung
        (the analogue of the paper's ``min_budget``).
    """

    name = "hyperband"
    category = "bandit"
    area = "hpo"
    surrogate_model = "None"
    initialization = "None"
    samples_per_iteration = ">1"
    evaluations_per_iteration = ">1"

    def __init__(self, eta: float = 3.0, min_fidelity: float = 1.0 / 9.0,
                 random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        self.eta = float(eta)
        self.min_fidelity = float(min_fidelity)
        self._ladder = rung_ladder(self.eta, self.min_fidelity)

    # ---------------------------------------------------------------- setup
    def _setup(self, problem, rng) -> None:
        self._s_max = len(self._ladder) - 1
        self._bracket_order = list(range(self._s_max, -1, -1))
        self._bracket_cursor = 0
        self._current_rung: _Rung | None = None

    # -------------------------------------------------------------- helpers
    def _generate_configurations(self, n: int, space: SearchSpace,
                                 rng: np.random.Generator) -> list[Pipeline]:
        """Uniform random configurations (overridden by BOHB)."""
        return space.sample_pipelines(n, rng)

    def _start_bracket(self, space: SearchSpace, rng: np.random.Generator) -> None:
        s = self._bracket_order[self._bracket_cursor % len(self._bracket_order)]
        self._bracket_cursor += 1
        n_configs = max(1, int(math.ceil((self._s_max + 1) / (s + 1) * self.eta ** s)))
        configs = self._generate_configurations(n_configs, space, rng)
        # Bracket s starts s rungs below the top and climbs one per halving.
        self._current_rung = _Rung(fidelity=self._ladder[self._s_max - s],
                                   pipelines=configs)
        self._remaining_halvings = s

    def _advance(self, space: SearchSpace, rng: np.random.Generator) -> None:
        """Promote the current rung or start a new bracket."""
        rung = self._current_rung
        if rung is None or not rung.complete():
            return
        if self._remaining_halvings > 0 and len(rung.pipelines) > 1:
            n_keep = max(1, int(len(rung.pipelines) / self.eta))
            survivors = rung.top(n_keep)
            self._remaining_halvings -= 1
            next_fidelity = self._ladder[self._s_max - self._remaining_halvings]
            self._current_rung = _Rung(fidelity=next_fidelity, pipelines=survivors)
        else:
            self._current_rung = None

    # ----------------------------------------------------------------- hooks
    def _update(self, trials, space: SearchSpace, rng) -> None:
        self._advance(space, rng)
        if self._current_rung is None:
            self._start_bracket(space, rng)

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        rung = self._current_rung
        if rung is None:
            return []
        pending = [p for p in rung.pipelines if p.spec() not in rung.results]
        return [(pipeline, rung.fidelity) for pipeline in pending]

    def _observe(self, record: TrialRecord) -> None:
        rung = self._current_rung
        if rung is None:
            return
        if abs(record.fidelity - rung.fidelity) < 1e-9:
            rung.results[record.pipeline.spec()] = record.accuracy


class BOHB(Hyperband):
    """BOHB: Hyperband whose configurations come from a TPE density model.

    A fraction ``random_fraction`` of configurations is still drawn uniformly
    to keep exploration, exactly as in the original algorithm.
    """

    name = "bohb"
    category = "bandit"
    surrogate_model = "KDE"
    initialization = "Random Search"

    def __init__(self, eta: float = 3.0, min_fidelity: float = 1.0 / 9.0,
                 gamma: float = 0.25, random_fraction: float = 0.3,
                 min_model_trials: int = 6, random_state: int | None = 0) -> None:
        super().__init__(eta=eta, min_fidelity=min_fidelity, random_state=random_state)
        self.gamma = float(gamma)
        self.random_fraction = float(random_fraction)
        self.min_model_trials = int(min_model_trials)

    def _setup(self, problem, rng) -> None:
        super()._setup(problem, rng)
        self._density: TwoDensityModel | None = None
        self._space = problem.space

    def _update(self, trials, space: SearchSpace, rng) -> None:
        # Fit the density on the highest-fidelity trials completed so far.
        if trials:
            max_fidelity = max(t.fidelity for t in trials)
            usable = [t for t in trials if t.fidelity >= max_fidelity]
            if len(usable) >= self.min_model_trials:
                self._density = TwoDensityModel(
                    space, gamma=self.gamma, min_trials=self.min_model_trials
                ).refit(usable)
        super()._update(trials, space, rng)

    def _generate_configurations(self, n: int, space: SearchSpace,
                                 rng: np.random.Generator) -> list[Pipeline]:
        configs: list[Pipeline] = []
        for _ in range(n):
            use_model = (
                self._density is not None
                and self._density.ready_
                and rng.random() > self.random_fraction
            )
            if use_model:
                configs.append(self._density.suggest(random_state=rng))
            else:
                configs.append(space.sample_pipeline(rng))
        return configs
