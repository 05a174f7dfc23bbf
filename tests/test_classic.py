import numpy as np
import pytest

from oracles import delta_brute, enhance_brute, sad_brute, sad_rowloop, seqslam_scores_brute
from seqplace import classic
from seqplace.classic import (
    SeqSlamConfig,
    contrast_enhance,
    delta_descriptors,
    pairwise_match,
    seqslam_match,
    similarity_matrix,
    velocity_grid,
)
from seqplace.core import DescriptorSequence, ValidationError, seeded_rng


def unit_rows(rng, n, dim):
    data = rng.standard_normal((n, dim))
    return data / np.linalg.norm(data, axis=1, keepdims=True)


class TestSimilarityMatrix:
    def test_self_match_diagonal_is_zero(self):
        rng = seeded_rng(1)
        desc = DescriptorSequence(data=unit_rows(rng, 6, 5).astype(np.float32))
        for metric in ("sad", "cosine"):
            d = similarity_matrix(desc, desc, metric=metric)
            assert np.allclose(np.diag(d), 0.0, atol=1e-6)

    def test_orthogonal_unit_vectors_cosine_distance_one(self):
        a = DescriptorSequence(data=[[1.0, 0.0]])
        b = DescriptorSequence(data=[[0.0, 1.0]])
        d = similarity_matrix(a, b, metric="cosine")
        assert abs(d[0, 0] - 1.0) < 1e-12

    def test_hand_computed_3x2(self):
        ref = DescriptorSequence(data=[[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        query = DescriptorSequence(data=[[1.0, 1.0], [2.0, 0.0]])
        d = similarity_matrix(ref, query, metric="sad")
        # |1-1|+|0-1|=1 ; |1-2|+|0-0|=1 ; |0-1|+|2-1|=2 ; |0-2|+|2-0|=4 ; 0 ; 1+1
        assert np.array_equal(d, [[1.0, 1.0], [2.0, 4.0], [0.0, 2.0]])

    def test_matches_brute_force(self):
        rng = seeded_rng(2)
        ref = DescriptorSequence(data=rng.standard_normal((7, 4)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((5, 4)).astype(np.float32))
        d = similarity_matrix(ref, query, metric="sad")
        assert np.allclose(d, sad_brute(ref.data.astype(np.float64),
                                        query.data.astype(np.float64)), atol=1e-9)

    @pytest.mark.parametrize("dim", [8, 32, 1024])
    def test_blocked_sad_equals_row_loop(self, dim):
        # query counts around the block size: one short block, one full
        # block, and full blocks followed by a partial one
        rng = seeded_rng(14)
        block = classic.BLOCK_BYTES // (8 * dim)
        ref = DescriptorSequence(data=rng.standard_normal((5, dim)).astype(np.float32))
        for n_query in (block // 2 + 1, block, 2 * block + block // 2 + 1):
            query = DescriptorSequence(
                data=rng.standard_normal((n_query, dim)).astype(np.float32))
            d = similarity_matrix(ref, query, metric="sad")
            assert np.array_equal(d, sad_rowloop(ref.data, query.data))

    def test_transpose_symmetry(self):
        rng = seeded_rng(3)
        a = DescriptorSequence(data=rng.standard_normal((6, 4)).astype(np.float32))
        b = DescriptorSequence(data=rng.standard_normal((9, 4)).astype(np.float32))
        for metric in ("sad", "cosine"):
            d_ab = similarity_matrix(a, b, metric=metric)
            d_ba = similarity_matrix(b, a, metric=metric)
            assert np.allclose(d_ab, d_ba.T, atol=1e-12)

    def test_dim_mismatch(self):
        a = DescriptorSequence(data=np.ones((2, 3), np.float32))
        b = DescriptorSequence(data=np.ones((2, 4), np.float32))
        with pytest.raises(ValidationError, match="dims differ"):
            similarity_matrix(a, b)

    def test_zero_norm_cosine_rejected_with_index(self):
        a = DescriptorSequence(data=[[1.0, 0.0], [0.0, 0.0]])
        b = DescriptorSequence(data=[[1.0, 0.0]])
        with pytest.raises(ValidationError, match="reference frame 1"):
            similarity_matrix(a, b, metric="cosine")


class TestContrastEnhance:
    def test_constant_matrix_becomes_zero(self):
        out = contrast_enhance(np.full((12, 5), 3.7), 4)
        assert np.array_equal(out, np.zeros((12, 5)))

    def test_matches_brute_force(self):
        rng = seeded_rng(4)
        d = rng.uniform(0, 4, (17, 9))
        for r in (2, 4, 10, 30):
            assert np.allclose(contrast_enhance(d, r), enhance_brute(d, r), atol=1e-9)

    def test_single_outlier_becomes_most_negative(self):
        d = np.full((15, 1), 2.0)
        d[7, 0] = 0.1
        out = contrast_enhance(d, 6)
        assert out.argmin() == 7

    def test_column_shift_invariance(self):
        rng = seeded_rng(5)
        d = rng.uniform(0, 1, (14, 4))
        shifted = d + np.array([10.0, -3.0, 0.5, 100.0])
        assert np.allclose(contrast_enhance(d, 5), contrast_enhance(shifted, 5),
                           atol=1e-6)

    def test_columns_have_small_mean(self):
        rng = seeded_rng(6)
        for _ in range(10):
            d = rng.uniform(0, 2, (40, 6))
            out = contrast_enhance(d, 8)
            assert np.all(np.abs(out.mean(axis=0)) < 0.5)

    def test_window_too_small(self):
        with pytest.raises(ValidationError):
            contrast_enhance(np.ones((5, 5)), 1)


class TestSeqSlamMatch:
    def test_perfect_diagonal(self):
        # low enhanced distance = similar, so the zero diagonal wins
        n = 12
        d = np.ones((n, n))
        np.fill_diagonal(d, 0.0)
        cfg = SeqSlamConfig(ds=3, v_min=0.8, v_max=1.2, v_step=0.1, r_window=4)
        scores = seqslam_match(d, cfg)
        for j in range(cfg.ds - 1, n):
            assert scores.predicted[j] == j

    def test_velocity_grid_default_has_five_entries(self):
        grid = velocity_grid(SeqSlamConfig())
        assert np.allclose(grid, [0.8, 0.9, 1.0, 1.1, 1.2])

    def test_double_speed_needs_wide_velocity_range(self):
        # query moves two reference frames per step: slope-2 diagonal
        n_ref, n_query = 40, 18
        d = np.ones((n_ref, n_query))
        for j in range(n_query):
            d[2 * j, j] = 0.0
        ok = seqslam_match(d, SeqSlamConfig(ds=5, v_min=1.6, v_max=2.4, v_step=0.2,
                                            r_window=4))
        narrow = seqslam_match(d, SeqSlamConfig(ds=5, v_min=0.8, v_max=1.2,
                                                v_step=0.1, r_window=4))
        j = np.arange(4, n_query)
        ok_err = np.abs(ok.predicted[4:] - 2 * j).mean()
        narrow_err = np.abs(narrow.predicted[4:] - 2 * j).mean()
        assert ok_err == 0.0
        assert narrow_err > ok_err

    def test_matches_exhaustive_enumeration(self):
        rng = seeded_rng(7)
        for _ in range(40):
            ds = int(rng.integers(1, 5))
            n_ref = int(rng.integers(ds + 1, 11))
            n_query = int(rng.integers(ds + 1, 11))
            cfg = SeqSlamConfig(ds=ds, v_min=0.6, v_max=1.4, v_step=0.2, r_window=3)
            enhanced = rng.standard_normal((n_ref, n_query))
            got = seqslam_match(enhanced, cfg)
            want = seqslam_scores_brute(enhanced, ds, velocity_grid(cfg).tolist())
            assert np.array_equal(got.scores, want)

    @pytest.mark.parametrize("block_queries", [1, 7, 16, None])
    def test_matches_exhaustive_enumeration_across_blocks(self, monkeypatch,
                                                          block_queries):
        # more queries than one block holds and never a whole number of
        # blocks; offsets that repeat (v < 1) and offsets past the map
        # (v >= 3); None keeps the library's own block budget
        cases = [  # ds, n_ref, n_query, v_min, v_max, v_step
            (4, 36, 81, 0.2, 0.9, 0.35),
            (4, 29, 74, 0.5, 1.5, 0.25),
            (3, 14, 47, 3.0, 12.0, 4.5),
            (5, 60, 90, 2.5, 3.5, 0.5),
            (1, 20, 35, 0.8, 1.2, 0.1),
        ]
        rng = seeded_rng(16)
        for ds, n_ref, n_query, v_min, v_max, v_step in cases:
            if block_queries is not None:
                monkeypatch.setattr(classic, "BLOCK_BYTES", 8 * n_ref * block_queries)
            cfg = SeqSlamConfig(ds=ds, v_min=v_min, v_max=v_max, v_step=v_step, r_window=3)
            enhanced = rng.standard_normal((n_ref, n_query))
            got = seqslam_match(enhanced, cfg)
            want = seqslam_scores_brute(enhanced, ds, velocity_grid(cfg).tolist())
            assert np.array_equal(got.scores, want)

    def test_ds_one_equals_pairwise(self):
        rng = seeded_rng(8)
        enhanced = rng.standard_normal((9, 7))
        cfg = SeqSlamConfig(ds=1, v_min=1.0, v_max=1.0, v_step=0.1, r_window=2)
        via_lines = seqslam_match(enhanced, cfg)
        via_pairwise = pairwise_match(enhanced)
        assert np.array_equal(via_lines.scores, via_pairwise.scores)
        assert np.array_equal(via_lines.predicted, via_pairwise.predicted)

    def test_early_queries_get_lowest_confidence(self):
        rng = seeded_rng(9)
        enhanced = rng.standard_normal((12, 12))
        scores = seqslam_match(enhanced, SeqSlamConfig(ds=4, r_window=3))
        assert np.array_equal(scores.confidence[:3], np.zeros(3))
        assert scores.confidence[3:].max() == 1.0

    def test_matrix_smaller_than_ds_rejected(self):
        with pytest.raises(ValidationError):
            seqslam_match(np.ones((4, 4)), SeqSlamConfig(ds=5))

    def test_invalid_velocity_config_rejected(self):
        with pytest.raises(ValidationError):
            SeqSlamConfig(v_min=1.5, v_max=1.2)

    def test_velocity_grid_length_is_capped(self):
        longest = SeqSlamConfig(v_min=1.0, v_max=float(classic.MAX_VELOCITIES), v_step=1.0)
        assert velocity_grid(longest).size == classic.MAX_VELOCITIES
        with pytest.raises(ValidationError, match="more than"):
            SeqSlamConfig(v_min=1.0, v_max=classic.MAX_VELOCITIES + 1.0, v_step=1.0)


class TestPairwiseMatch:
    def test_zero_diagonal_identity(self):
        d = np.ones((5, 5))
        np.fill_diagonal(d, 0.0)
        assert np.array_equal(pairwise_match(d).predicted, np.arange(5))

    def test_tied_column_picks_lowest_index(self):
        d = np.ones((4, 3))
        assert np.array_equal(pairwise_match(d).predicted, np.zeros(3))

    def test_matches_brute_argmin(self):
        rng = seeded_rng(10)
        d = rng.uniform(0, 5, (5, 5))
        got = pairwise_match(d)
        for j in range(5):
            assert got.predicted[j] == int(d[:, j].argmin())

    def test_confidence_is_one_minus_normalized_distance(self):
        rng = seeded_rng(11)
        d = rng.uniform(0, 5, (6, 4))
        got = pairwise_match(d)
        lo, hi = d.min(), d.max()
        for j in range(4):
            expected = 1.0 - (d[:, j].min() - lo) / (hi - lo)
            assert abs(got.confidence[j] - expected) < 1e-12


class TestDeltaDescriptors:
    def test_constant_sequence_gives_zero_deltas(self):
        desc = DescriptorSequence(data=np.ones((10, 4), np.float32))
        out = delta_descriptors(desc, 2)
        assert np.array_equal(out.data, np.zeros((10, 4), np.float32))

    def test_linear_ramp_parallel_to_direction(self):
        u = np.array([3.0, 4.0, 0.0]) / 5.0
        data = np.outer(np.arange(12, dtype=np.float64), u)
        out = delta_descriptors(DescriptorSequence(data=data.astype(np.float32)), 3)
        for t in range(12):
            assert np.allclose(out.data[t], u, atol=1e-6)

    def test_w_one_is_normalized_difference(self):
        # w=1 in the rolling-mean formula collapses to d_t - d_{t-1}
        rng = seeded_rng(12)
        data = rng.standard_normal((8, 5))
        out = delta_descriptors(DescriptorSequence(data=data.astype(np.float32)), 1)
        data32 = data.astype(np.float32).astype(np.float64)
        for t in range(1, 8):
            diff = data32[t] - data32[t - 1]
            diff /= np.linalg.norm(diff)
            assert np.allclose(out.data[t], diff, atol=1e-6)

    def test_matches_brute_force(self):
        rng = seeded_rng(13)
        data = rng.standard_normal((20, 6)).astype(np.float32)
        for w in (1, 2, 4):
            out = delta_descriptors(DescriptorSequence(data=data), w)
            want = delta_brute(data.astype(np.float64), w)
            assert np.allclose(out.data, want, atol=1e-6)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            delta_descriptors(DescriptorSequence(data=np.ones((6, 2), np.float32)), 3)
