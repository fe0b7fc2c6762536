"""Tests for the Auto-FP search space.

The index-tuple forms replaced code that worked on pipelines: a
per-pipeline encoding loop, and a sampler and a mutation that drew and
built pipelines in one routine.  The old forms stay below as oracles; the
new forms must give equal pipelines, byte-equal matrices and the same
generator state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pipeline, SearchSpace
from repro.exceptions import SearchSpaceError
from repro.preprocessing import Binarizer, Normalizer, StandardScaler


# ----------------------------------------------------------------- oracles
def per_pipeline_encode(space, pipeline):
    """The one-hot loop that :meth:`SearchSpace.encode_indices` replaced."""
    block = space.n_candidates + 1
    vector = np.zeros(space.max_length * block, dtype=np.float64)
    indices = space.indices_of(pipeline)
    for position in range(space.max_length):
        if position < len(indices):
            vector[position * block + indices[position]] = 1.0
        else:
            vector[position * block + space.n_candidates] = 1.0
    return vector


def draw_and_build_sample(space, rng, length=None):
    """:meth:`SearchSpace.sample_pipeline` before it wrapped the tuple form."""
    length = space.sample_length(rng) if length is None else int(length)
    indices = rng.integers(0, space.n_candidates, size=length)
    return space.pipeline_from_indices(indices)


def draw_and_apply_mutate(space, pipeline, rng):
    """:meth:`SearchSpace.mutate` before it shared its draws with tuples."""
    moves = ["replace"]
    if len(pipeline) < space.max_length:
        moves.append("append")
    if len(pipeline) > 1:
        moves.append("drop")
    move = moves[int(rng.integers(0, len(moves)))]

    if move == "append" or len(pipeline) == 0:
        new_step = space.candidates[int(rng.integers(0, space.n_candidates))]
        return pipeline.append(new_step)
    if move == "drop":
        return pipeline.truncate(len(pipeline) - 1)
    position = int(rng.integers(0, len(pipeline)))
    new_step = space.candidates[int(rng.integers(0, space.n_candidates))]
    return pipeline.replace(position, new_step)


class TestSpaceBasics:
    def test_default_space_has_seven_candidates(self):
        space = SearchSpace()
        assert space.n_candidates == 7
        assert space.max_length == 7

    def test_size_formula(self):
        """|S_pipe| = sum_{i=1..N} n^i (Definition 3)."""
        space = SearchSpace(max_length=3)
        assert space.size() == 7 + 7**2 + 7**3

    def test_size_matches_paper_motivating_experiment(self):
        """Pipelines of length <= 4 over 7 preprocessors: 2800 in total."""
        space = SearchSpace(max_length=4)
        assert space.size() == 7 + 49 + 343 + 2401  # = 2800

    def test_custom_candidates(self):
        space = SearchSpace([StandardScaler(), Binarizer()], max_length=2)
        assert space.n_candidates == 2
        assert space.size() == 2 + 4

    def test_empty_candidates_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchSpace([], max_length=2)

    def test_invalid_max_length_rejected(self):
        with pytest.raises(SearchSpaceError):
            SearchSpace(max_length=0)


class TestSampling:
    def test_sampled_pipeline_within_bounds(self):
        space = SearchSpace(max_length=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            pipeline = space.sample_pipeline(rng)
            assert 1 <= len(pipeline) <= 4

    def test_sampling_deterministic_given_seed(self):
        space = SearchSpace(max_length=3)
        a = space.sample_pipelines(5, random_state=7)
        b = space.sample_pipelines(5, random_state=7)
        assert a == b

    def test_fixed_length_sampling(self):
        space = SearchSpace(max_length=5)
        pipeline = space.sample_pipeline(random_state=0, length=3)
        assert len(pipeline) == 3

    def test_invalid_length_rejected(self):
        space = SearchSpace(max_length=3)
        with pytest.raises(SearchSpaceError):
            space.sample_pipeline(random_state=0, length=9)

    def test_sampling_covers_all_candidates(self):
        space = SearchSpace(max_length=2)
        seen = set()
        rng = np.random.default_rng(1)
        for _ in range(200):
            seen.update(space.sample_pipeline(rng).names())
        assert len(seen) == space.n_candidates


class TestMutation:
    def test_mutation_is_one_edit(self):
        space = SearchSpace(max_length=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            original = space.sample_pipeline(rng)
            mutated = space.mutate(original, rng)
            assert abs(len(mutated) - len(original)) <= 1
            assert 1 <= len(mutated) <= space.max_length

    def test_mutation_at_max_length_never_grows(self):
        space = SearchSpace(max_length=2)
        pipeline = space.sample_pipeline(random_state=0, length=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert len(space.mutate(pipeline, rng)) <= 2

    def test_single_step_pipeline_never_shrinks_to_empty(self):
        space = SearchSpace(max_length=3)
        pipeline = space.sample_pipeline(random_state=0, length=1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert len(space.mutate(pipeline, rng)) >= 1

    def test_neighbors_count(self):
        space = SearchSpace(max_length=3)
        pipeline = space.sample_pipeline(random_state=0)
        assert len(space.neighbors(pipeline, random_state=1, n_neighbors=4)) == 4

    def test_crossover_respects_max_length(self):
        space = SearchSpace(max_length=3)
        rng = np.random.default_rng(5)
        first = space.sample_pipeline(rng, length=3)
        second = space.sample_pipeline(rng, length=3)
        for _ in range(20):
            child = space.crossover(first, second, rng)
            assert 1 <= len(child) <= 3


class TestIndexTupleForms:
    @given(seed=st.integers(0, 10_000), max_length=st.integers(1, 7),
           fixed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_draws_match_the_pipeline_forms(self, seed, max_length, fixed):
        """Sampling and mutating tuples draws what the pipeline forms draw."""
        space = SearchSpace(max_length=max_length)
        tuples, pipelines, oracle = (np.random.default_rng(seed)
                                     for _ in range(3))
        length = max_length if fixed else None
        for _ in range(15):
            indices = space.sample_indices(tuples, length=length)
            pipeline = space.sample_pipeline(pipelines, length=length)
            expected = draw_and_build_sample(space, oracle, length)
            assert space.pipeline_from_indices(indices) == pipeline == expected
            for _ in range(3):
                indices = space.mutate_indices(indices, tuples)
                pipeline = space.mutate(pipeline, pipelines)
                expected = draw_and_apply_mutate(space, expected, oracle)
                assert space.pipeline_from_indices(indices) == pipeline \
                    == expected
            state = tuples.bit_generator.state
            assert pipelines.bit_generator.state == state
            assert oracle.bit_generator.state == state

    def test_mutating_an_empty_tuple_appends(self):
        space = SearchSpace(max_length=2)
        assert len(space.mutate_indices((), random_state=0)) == 1
        assert len(space.mutate(Pipeline([]), random_state=0)) == 1

    @given(seed=st.integers(0, 10_000), max_length=st.integers(1, 7),
           n=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_encoder_is_byte_equal_to_the_loop(self, seed, max_length, n):
        space = SearchSpace(max_length=max_length)
        pipelines = space.sample_pipelines(n, random_state=seed)
        expected = np.zeros((n, space.encoding_dim()))
        for row, pipeline in enumerate(pipelines):
            expected[row] = per_pipeline_encode(space, pipeline)
            assert space.encode(pipeline).tobytes() == expected[row].tobytes()
        matrices = [
            space.encode_many(pipelines),
            space.encode_indices([space.indices_of(p) for p in pipelines]),
        ]
        for matrix in matrices:
            assert matrix.shape == expected.shape
            assert matrix.dtype == np.float64
            assert matrix.tobytes() == expected.tobytes()

    def test_over_long_pipeline_is_rejected(self):
        """A 3-step pipeline no longer encodes as its 2-step prefix."""
        space = SearchSpace(max_length=2)
        pipeline = SearchSpace(max_length=3).sample_pipeline(random_state=0,
                                                             length=3)
        with pytest.raises(SearchSpaceError, match="max_length=2"):
            space.encode(pipeline)
        with pytest.raises(SearchSpaceError, match="max_length=2"):
            space.encode_many([pipeline.truncate(1), pipeline])

    @pytest.mark.parametrize("indices", [(7,), (0, -1), (3, 8)])
    def test_index_naming_no_candidate_is_rejected(self, indices):
        with pytest.raises(SearchSpaceError, match="candidate indices"):
            SearchSpace(max_length=2).encode_indices([(0,), indices])


class TestProgressiveOperations:
    def test_single_step_pipelines(self):
        space = SearchSpace(max_length=3)
        singles = space.single_step_pipelines()
        assert len(singles) == 7
        assert all(len(p) == 1 for p in singles)

    def test_expand_adds_each_candidate(self):
        space = SearchSpace(max_length=3)
        base = space.single_step_pipelines()[0]
        expanded = space.expand(base)
        assert len(expanded) == 7
        assert all(len(p) == 2 for p in expanded)
        assert all(p.names()[0] == base.names()[0] for p in expanded)

    def test_expand_at_max_length_is_empty(self):
        space = SearchSpace(max_length=1)
        assert space.expand(space.single_step_pipelines()[0]) == []

    def test_enumeration_counts(self):
        space = SearchSpace([StandardScaler(), Binarizer(), Normalizer()], max_length=2)
        pipelines = list(space.enumerate_pipelines())
        assert len(pipelines) == 3 + 9
        assert len(set(pipelines)) == 12  # all distinct


class TestEncoding:
    def test_encoding_dimension(self):
        space = SearchSpace(max_length=3)
        assert space.encoding_dim() == 3 * 8
        pipeline = space.sample_pipeline(random_state=0)
        assert space.encode(pipeline).shape == (24,)

    def test_one_hot_blocks_sum_to_one(self):
        space = SearchSpace(max_length=4)
        pipeline = space.sample_pipeline(random_state=2)
        encoded = space.encode(pipeline).reshape(4, 8)
        np.testing.assert_allclose(encoded.sum(axis=1), 1.0)

    def test_empty_positions_marked(self):
        space = SearchSpace(max_length=3)
        pipeline = space.sample_pipeline(random_state=0, length=1)
        encoded = space.encode(pipeline).reshape(3, 8)
        assert encoded[1, -1] == 1.0
        assert encoded[2, -1] == 1.0

    def test_distinct_pipelines_get_distinct_encodings(self):
        space = SearchSpace(max_length=3)
        pipelines = space.sample_pipelines(30, random_state=0)
        encodings = {tuple(space.encode(p)) for p in set(pipelines)}
        assert len(encodings) == len(set(pipelines))

    def test_encode_many_shape(self):
        space = SearchSpace(max_length=2)
        pipelines = space.sample_pipelines(5, random_state=0)
        assert space.encode_many(pipelines).shape == (5, space.encoding_dim())

    def test_indices_roundtrip(self):
        space = SearchSpace(max_length=4)
        pipeline = space.sample_pipeline(random_state=9)
        rebuilt = space.pipeline_from_indices(space.indices_of(pipeline))
        assert rebuilt == pipeline
