"""SMAC: sequential model-based optimisation with a random-forest surrogate.

SMAC fits a random-forest regressor mapping the one-hot pipeline encoding to
the observed validation accuracy.  Each iteration it scores a pool of
candidate pipelines (random samples plus mutations of the incumbent) with an
expected-improvement acquisition function derived from the forest's mean and
across-tree spread, and evaluates the single best-scoring candidate.

Pick works on index tuples (see :mod:`repro.core.search_space`): each
observed trial is converted to its candidate indices once, candidates are
sampled, mutated and encoded as tuples, and only the winner becomes a
:class:`~repro.core.pipeline.Pipeline`.  The standard-normal CDF in
:func:`expected_improvement` is :func:`ndtr`, a port of the Cephes routine
scipy evaluates, so a search never imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import TrialRecord
from repro.core.search_space import SearchSpace
from repro.exceptions import ValidationError
from repro.models.forest import RandomForestRegressor
from repro.search.base import SearchAlgorithm

# Ported from the Cephes Math Library (ndtr.c, polevl.c) as scipy.special
# ships it: Copyright 1984, 1987, 1988, 1992, 2000 by Stephen L. Moshier.
# SciPy distributes Cephes under its BSD 3-Clause licence, whose conditions
# and disclaimer ship with SciPy (LICENSE.txt).  The coefficients, branches
# and order of operations are Cephes', and exp is libm's (``math.exp``), so
# each value equals ``scipy.special.ndtr`` bit for bit.

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(x) = exp(-x^2) R(x) / S(x) for x >= 8
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2  # log(2**1024)
_SQRT1_2 = 7.07106781186547524401E-1


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation of the polynomial with coefficients ``coef``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0  # underflow
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _P), _p1evl(x, _Q)
    else:
        p, q = _polevl(x, _R), _p1evl(x, _S)
    y = (z * p) / q
    if a < 0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0 else 0.0  # underflow


def _ndtr(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(values) -> np.ndarray:
    """Standard-normal CDF of each value, equal to ``scipy.special.ndtr``.

    Evaluated per element by the Cephes port above: NumPy's vectorised
    ``exp`` need not round like libm's, and SMAC scores only a few dozen
    candidates per proposal.
    """
    values = np.asarray(values, dtype=np.float64)
    result = np.array([_ndtr(v) for v in values.ravel().tolist()],
                      dtype=np.float64)
    return result.reshape(values.shape)


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float,
                         xi: float = 0.01) -> np.ndarray:
    """Expected improvement of maximising candidates over the incumbent ``best``.

    The standard-normal CDF and PDF are the ones ``scipy.stats.norm``
    evaluates: the CDF is :func:`ndtr`, a port of scipy's Cephes ``ndtr``,
    and the PDF is the same density formula, so the result equals the
    scipy expression bit for bit without importing scipy.
    """
    std = np.maximum(std, 1e-9)
    improvement = mean - best - xi
    z = improvement / std
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    return improvement * ndtr(z) + std * pdf


class SMAC(SearchAlgorithm):
    """Random-forest-based Bayesian optimisation for Auto-FP.

    Parameters
    ----------
    n_init:
        Random pipelines evaluated before the surrogate is first trained.
    n_candidates:
        Size of the candidate pool scored per iteration.
    n_trees:
        Number of trees in the surrogate forest.
    refit_interval:
        Refit the surrogate every this many evaluations (1 = every
        iteration, larger values trade model freshness for speed).
    """

    name = "smac"
    category = "surrogate"
    area = "hpo"
    surrogate_model = "Random Forest"
    initialization = "Random Search"
    samples_per_iteration = ">1"
    evaluations_per_iteration = "=1"

    def __init__(self, n_init: int = 8, n_candidates: int = 30, n_trees: int = 10,
                 refit_interval: int = 1, random_state: int | None = 0) -> None:
        super().__init__(random_state=random_state)
        if int(n_candidates) < 1:
            raise ValidationError("n_candidates must be at least 1")
        if int(n_trees) < 1:
            raise ValidationError("n_trees must be at least 1")
        self.n_init = int(n_init)
        self.n_candidates = int(n_candidates)
        self.n_trees = int(n_trees)
        self.refit_interval = max(1, int(refit_interval))

    def _setup(self, problem, rng) -> None:
        self._space = problem.space
        self._surrogate: RandomForestRegressor | None = None
        self._n_seen = 0
        # Full-fidelity trials in observation order: index tuple, accuracy.
        self._indices: list[tuple[int, ...]] = []
        self._accuracies: list[float] = []

    def _observe(self, record: TrialRecord) -> None:
        if record.fidelity >= 1.0:
            self._indices.append(tuple(self._space.indices_of(record.pipeline)))
            self._accuracies.append(record.accuracy)

    def _update(self, trials: list[TrialRecord], space: SearchSpace, rng) -> None:
        n_usable = len(self._indices)
        if n_usable < 2:
            self._surrogate = None
            return
        if self._surrogate is not None and n_usable - self._n_seen < self.refit_interval:
            return
        X = space.encode_indices(self._indices)
        y = np.asarray(self._accuracies)
        self._surrogate = RandomForestRegressor(
            n_estimators=self.n_trees,
            max_depth=8,
            random_state=int(rng.integers(0, 2**31 - 1)),
        ).fit(X, y)
        self._n_seen = n_usable

    def _propose(self, space: SearchSpace, rng: np.random.Generator, trials):
        if self._surrogate is None:
            return [space.sample_pipeline(rng)]

        # The first best trial, as max() over the trials would pick.
        best = max(range(len(self._accuracies)), key=self._accuracies.__getitem__)
        incumbent = self._indices[best]
        candidates = [space.sample_indices(rng)
                      for _ in range(self.n_candidates // 2)]
        candidates += [
            space.mutate_indices(incumbent, rng)
            for _ in range(self.n_candidates - len(candidates))
        ]
        mean, std = self._surrogate.predict_with_std(space.encode_indices(candidates))
        scores = expected_improvement(mean, std, self._accuracies[best])
        return [space.pipeline_from_indices(candidates[int(np.argmax(scores))])]
