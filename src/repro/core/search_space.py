"""The Auto-FP search space (Definition 3 of the paper).

The search space is the set of all pipelines of length 1..max_length built
from a candidate list of preprocessors (order matters and repetition is
allowed, so there are ``sum_{i=1..N} n^i`` pipelines for ``n`` candidates).
The space supports the operations the 15 search algorithms need:

* uniform random sampling (traditional / initialisation),
* neighbourhood generation (simulated annealing),
* mutation (evolution-based algorithms),
* progressive expansion by one position (Progressive NAS / ENAS),
* a fixed-length integer / one-hot encoding (surrogate models, REINFORCE),
* full enumeration for small lengths (the motivating experiment, Figure 2).

Sampling, mutation and the one-hot encoding also come in an *index-tuple*
form: a pipeline written as the tuple of its steps' candidate indices.
:meth:`SearchSpace.sample_indices` and :meth:`SearchSpace.mutate_indices`
consume exactly the random draws of :meth:`SearchSpace.sample_pipeline` and
:meth:`SearchSpace.mutate`, which are built on them, so either form leaves
a generator in the same state.  :meth:`SearchSpace.encode_indices` is the
one encoder; :meth:`SearchSpace.encode` and :meth:`SearchSpace.encode_many`
look up a pipeline's indices and call it.  A surrogate that scores many
candidates (SMAC) samples, mutates and encodes tuples and builds a
:class:`~repro.core.pipeline.Pipeline` only for the candidate it picks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.core.pipeline import Pipeline
from repro.exceptions import SearchSpaceError
from repro.preprocessing.base import Preprocessor
from repro.preprocessing.registry import default_preprocessors
from repro.utils.random import check_random_state


class SearchSpace:
    """Search space over preprocessor pipelines.

    Parameters
    ----------
    candidates:
        The candidate preprocessors (prototypes; they are cloned whenever a
        pipeline is built).  Defaults to the seven paper preprocessors.
    max_length:
        Maximum pipeline length ``N``.  The paper's default space uses
        ``N = 7`` (length up to the number of preprocessors); the motivating
        experiment uses smaller values.
    """

    def __init__(self, candidates: Iterable[Preprocessor] | None = None,
                 max_length: int = 7) -> None:
        self.candidates: tuple[Preprocessor, ...] = tuple(
            candidates if candidates is not None else default_preprocessors()
        )
        if not self.candidates:
            raise SearchSpaceError("search space needs at least one candidate preprocessor")
        if max_length < 1:
            raise SearchSpaceError("max_length must be at least 1")
        self.max_length = int(max_length)

    # ------------------------------------------------------------ basic info
    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def size(self) -> int:
        """Total number of pipelines: ``sum_{i=1}^{N} n^i``."""
        n = self.n_candidates
        return sum(n ** i for i in range(1, self.max_length + 1))

    def candidate_index(self, step: Preprocessor) -> int:
        """Index of a candidate matching ``step`` (same class and params)."""
        for i, candidate in enumerate(self.candidates):
            if candidate == step:
                return i
        raise SearchSpaceError(f"step {step!r} is not one of the space's candidates")

    # ------------------------------------------------------------- sampling
    def sample_length(self, rng: np.random.Generator) -> int:
        """Sample a pipeline length uniformly from ``1..max_length``."""
        return int(rng.integers(1, self.max_length + 1))

    def sample_indices(self, random_state=None,
                       length: int | None = None) -> tuple[int, ...]:
        """Sample a pipeline's index tuple: first a length, then each position."""
        rng = check_random_state(random_state)
        length = self.sample_length(rng) if length is None else int(length)
        if not 1 <= length <= self.max_length:
            raise SearchSpaceError(
                f"length must be in [1, {self.max_length}], got {length}"
            )
        return tuple(rng.integers(0, self.n_candidates, size=length).tolist())

    def sample_pipeline(self, random_state=None, length: int | None = None) -> Pipeline:
        """Sample a pipeline uniformly (first a length, then each position)."""
        return self.pipeline_from_indices(self.sample_indices(random_state, length))

    def sample_pipelines(self, n: int, random_state=None) -> list[Pipeline]:
        """Sample ``n`` pipelines independently."""
        rng = check_random_state(random_state)
        return [self.sample_pipeline(rng) for _ in range(n)]

    def pipeline_from_indices(self, indices: Sequence[int]) -> Pipeline:
        """Build a pipeline from candidate indices (one per position)."""
        return Pipeline([self.candidates[int(i)] for i in indices])

    def indices_of(self, pipeline: Pipeline) -> list[int]:
        """Inverse of :meth:`pipeline_from_indices`."""
        return [self.candidate_index(step) for step in pipeline]

    # ----------------------------------------------------------- neighbours
    def neighbors(self, pipeline: Pipeline, random_state=None,
                  n_neighbors: int = 1) -> list[Pipeline]:
        """Random neighbours of ``pipeline`` for local-search algorithms.

        A neighbour differs by exactly one edit: replace one position,
        append a preprocessor (if below ``max_length``) or drop the last
        position (if longer than one step).
        """
        rng = check_random_state(random_state)
        result = [self.mutate(pipeline, rng) for _ in range(n_neighbors)]
        return result

    def mutate(self, pipeline: Pipeline, random_state=None) -> Pipeline:
        """Return a single random one-edit mutation of ``pipeline``."""
        position, index = self._draw_edit(len(pipeline), random_state)
        if index is None:
            return pipeline.truncate(position)
        if position == len(pipeline):
            return pipeline.append(self.candidates[index])
        return pipeline.replace(position, self.candidates[index])

    def mutate_indices(self, indices: Sequence[int],
                       random_state=None) -> tuple[int, ...]:
        """:meth:`mutate` on an index tuple, with the same random draws."""
        position, index = self._draw_edit(len(indices), random_state)
        head, tail = tuple(indices[:position]), tuple(indices[position + 1:])
        return head + tail if index is None else (*head, index, *tail)

    def _draw_edit(self, length: int, random_state) -> tuple[int, int | None]:
        """Draw one edit of a ``length``-step pipeline: ``(position, index)``.

        The edit replaces the step at ``position`` with candidate ``index``,
        appends that candidate when ``position == length``, or drops the
        last step when ``index`` is None.
        """
        rng = check_random_state(random_state)
        moves = ["replace"]
        if length < self.max_length:
            moves.append("append")
        if length > 1:
            moves.append("drop")
        move = moves[int(rng.integers(0, len(moves)))]

        if move == "append" or length == 0:
            return length, int(rng.integers(0, self.n_candidates))
        if move == "drop":
            return length - 1, None
        position = int(rng.integers(0, length))
        return position, int(rng.integers(0, self.n_candidates))

    def crossover(self, first: Pipeline, second: Pipeline, random_state=None) -> Pipeline:
        """Single-point crossover used by the genetic-programming baseline."""
        rng = check_random_state(random_state)
        cut_first = int(rng.integers(0, len(first) + 1))
        cut_second = int(rng.integers(0, len(second) + 1))
        steps = [*first[:cut_first], *second[cut_second:]]
        if not steps:
            return self.sample_pipeline(rng, length=1)
        return Pipeline(steps[: self.max_length])

    # -------------------------------------------------------- progressive
    def single_step_pipelines(self) -> list[Pipeline]:
        """All pipelines of length one (Progressive NAS starting points)."""
        return [Pipeline([candidate]) for candidate in self.candidates]

    def expand(self, pipeline: Pipeline) -> list[Pipeline]:
        """All one-step extensions of ``pipeline`` (empty if at max length)."""
        if len(pipeline) >= self.max_length:
            return []
        return [pipeline.append(candidate) for candidate in self.candidates]

    def enumerate_pipelines(self, max_length: int | None = None):
        """Yield every pipeline up to ``max_length`` (default: the space's max).

        Only intended for small spaces (the paper's motivating experiment
        enumerates 2800 pipelines of length <= 4 over 7 preprocessors).
        """
        limit = self.max_length if max_length is None else min(max_length, self.max_length)
        for length in range(1, limit + 1):
            for combo in itertools.product(range(self.n_candidates), repeat=length):
                yield self.pipeline_from_indices(combo)

    # ------------------------------------------------------------ encoding
    def encode_indices(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """One-hot design matrix of index tuples, one row per tuple.

        A row has ``max_length`` blocks of ``n_candidates + 1`` entries;
        each block one-hot encodes the candidate at that position, with the
        extra entry meaning "empty" (pipeline shorter than the position).
        A tuple longer than ``max_length`` or an index that names no
        candidate raises :class:`SearchSpaceError`.
        """
        width, empty = self.max_length, self.n_candidates
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        if lengths.size and lengths.max() > width:
            raise SearchSpaceError(
                f"a pipeline of {lengths.max()} steps does not fit "
                f"max_length={width}"
            )
        steps = np.fromiter(itertools.chain.from_iterable(rows),
                            dtype=np.intp, count=int(lengths.sum()))
        if steps.size and not 0 <= steps.min() <= steps.max() < empty:
            raise SearchSpaceError(
                f"candidate indices must be in [0, {empty}), got "
                f"{steps.min()}..{steps.max()}"
            )
        codes = np.full((len(rows), width), empty, dtype=np.intp)
        # Row-major order of the mask matches the concatenated tuples.
        codes[np.arange(width) < lengths[:, None]] = steps
        matrix = np.zeros((len(rows), width, empty + 1))
        matrix[np.arange(len(rows))[:, None], np.arange(width), codes] = 1.0
        return matrix.reshape(len(rows), self.encoding_dim())

    def encode(self, pipeline: Pipeline) -> np.ndarray:
        """Fixed-length one-hot encoding used by surrogate models.

        The row :meth:`encode_indices` gives the pipeline's indices.
        """
        return self.encode_indices([self.indices_of(pipeline)])[0]

    def encoding_dim(self) -> int:
        """Dimensionality of :meth:`encode`'s output."""
        return self.max_length * (self.n_candidates + 1)

    def encode_many(self, pipelines: Sequence[Pipeline]) -> np.ndarray:
        """Encode a list of pipelines into a 2-D design matrix."""
        return self.encode_indices([self.indices_of(p) for p in pipelines])

    def __repr__(self) -> str:
        names = [candidate.name for candidate in self.candidates]
        return f"SearchSpace(n_candidates={len(names)}, max_length={self.max_length})"
