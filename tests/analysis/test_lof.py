"""Tests for the from-scratch Local Outlier Factor."""

import numpy as np
import pytest

from repro.analysis.lof import (
    local_outlier_factor,
    lof_score_of_new_point,
    lof_scores_fixed_batch,
)


@pytest.fixture
def blob():
    rng = np.random.default_rng(0)
    return rng.normal(0.0, 1.0, size=(50, 3))


class TestBatchLof:
    def test_inliers_score_near_one(self, blob):
        scores = local_outlier_factor(blob, k=5)
        assert np.median(scores) == pytest.approx(1.0, abs=0.15)

    def test_outlier_scores_high(self, blob):
        data = np.vstack([blob, np.full((1, 3), 12.0)])
        scores = local_outlier_factor(data, k=5)
        assert scores[-1] > 3.0
        assert scores[-1] == scores.max()

    def test_uniform_grid_scores_flat(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        grid = np.column_stack([xs.ravel(), ys.ravel()])
        scores = local_outlier_factor(grid, k=4)
        assert scores.max() < 1.8

    def test_single_point_defaults_to_one(self):
        assert local_outlier_factor(np.zeros((1, 2))).tolist() == [1.0]

    def test_k_clamped_to_population(self, blob):
        few = blob[:3]
        scores = local_outlier_factor(few, k=50)
        assert scores.shape == (3,)

    def test_1d_input_rejected(self):
        with pytest.raises(ValueError):
            local_outlier_factor(np.arange(5.0))


class TestOnlineLof:
    def test_inlier_candidate_near_one(self, blob):
        score = lof_score_of_new_point(blob, np.zeros(3), k=5)
        assert 0.5 < score < 1.8

    def test_outlier_candidate_scores_high(self, blob):
        score = lof_score_of_new_point(blob, np.full(3, 15.0), k=5)
        assert score > 5.0

    def test_farther_outliers_score_higher(self, blob):
        near = lof_score_of_new_point(blob, np.full(3, 5.0), k=5)
        far = lof_score_of_new_point(blob, np.full(3, 50.0), k=5)
        assert far > near

    def test_tiny_history_returns_neutral(self):
        assert lof_score_of_new_point(np.zeros((1, 2)), np.ones(2)) == 1.0

    def test_scale_shift_of_latency_vectors(self):
        # Seven-number summaries of a healthy ~10 us pair vs a 120 us
        # software-path window: the shifted window must stand out.
        rng = np.random.default_rng(1)
        healthy = np.column_stack([
            rng.normal(loc, 0.2, size=20)
            for loc in (9.5, 10.0, 10.5, 9.0, 10.0, 0.4, 11.5)
        ])
        slow = healthy[0] + 110.0
        assert lof_score_of_new_point(healthy, slow, k=4) > 10.0


class TestFixedBatch:
    """The batched kernel the detection engine calls, row by row
    against the scalar definition."""

    @pytest.mark.parametrize(
        "n,k", [(2, 4), (3, 1), (7, 3), (10, 4), (12, 8), (25, 2)],
    )
    def test_matches_scalar_per_row(self, n, k):
        rng = np.random.default_rng(3)
        batch, dim = 6, 7
        histories = 18.0 + rng.random((batch, n, dim))
        candidates = 18.0 + rng.random((batch, dim))
        # One far outlier, and one candidate sitting on a history point.
        candidates[0] += 40.0
        candidates[1] = histories[1, 0]
        scores = lof_scores_fixed_batch(histories, candidates, k=k)
        for b in range(batch):
            assert scores[b] == pytest.approx(
                lof_score_of_new_point(histories[b], candidates[b], k=k),
                rel=1e-12,
            )

    def test_small_histories_score_neutral(self):
        rng = np.random.default_rng(4)
        hist = rng.random((3, 1, 2))
        scores = lof_scores_fixed_batch(hist, rng.random((3, 2)), k=2)
        assert scores.tolist() == [1.0, 1.0, 1.0]
        assert lof_scores_fixed_batch(
            np.empty((0, 5, 2)), np.empty((0, 2))
        ).size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            lof_scores_fixed_batch(np.ones((2, 3)), np.ones((2, 3)))
