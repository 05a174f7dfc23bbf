import numpy as np
import pytest

from oracles import (delta_brute, enhance_brute, enhance_whole, sad_brute, sad_rowloop,
                     score_matrix, seqslam_scores_brute, traced_peak)
from seqplace import classic, core
from seqplace.classic import (
    SeqSlamConfig,
    contrast_enhance,
    delta_descriptors,
    pairwise_match,
    pairwise_rows,
    seqslam_match,
    seqslam_rows,
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

    @pytest.mark.parametrize("dim", [1, 8, 32, 1024])
    def test_blocked_sad_equals_row_loop(self, dim):
        # reference counts around the reference-block size: one short block,
        # one full block, and full blocks followed by a partial one; one, a
        # few and many queries
        rng = seeded_rng(14)
        block = classic.BLOCK_BYTES // (8 * dim)
        for n_ref in (block // 2 + 1, block, 2 * block + block // 2 + 1):
            for n_query in (1, 7, min(block + 3, 300)):
                ref = DescriptorSequence(
                    data=rng.standard_normal((n_ref, dim)).astype(np.float32))
                query = DescriptorSequence(
                    data=rng.standard_normal((n_query, dim)).astype(np.float32))
                d = similarity_matrix(ref, query, metric="sad")
                assert d.shape == (n_ref, n_query) and d.dtype == np.float64
                assert np.array_equal(d, sad_rowloop(ref.data, query.data))

    @pytest.mark.parametrize("block_bytes", [8, 8 * 3 * 16, None])
    def test_blocked_cosine_equals_whole_matrix_formula(self, block_bytes, monkeypatch):
        # norms over row blocks of 1 and 3 rows and the default block
        if block_bytes is not None:
            monkeypatch.setattr(classic, "BLOCK_BYTES", block_bytes)
        rng = seeded_rng(15)
        ref = DescriptorSequence(data=rng.standard_normal((10, 16)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((7, 16)).astype(np.float32))
        a, b = ref.data.astype(np.float64), query.data.astype(np.float64)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        want = np.clip(1.0 - a @ b.T, 0.0, 2.0)
        assert np.array_equal(similarity_matrix(ref, query, metric="cosine"), want)

    @pytest.mark.parametrize("shape, dtype", [((32, 1024), np.float64), ((7, 3), np.float32),
                                              ((1, 1), np.float64), (5, np.int64)])
    def test_aligned_scratch_buffer(self, shape, dtype):
        for _ in range(8):
            buf = classic._aligned_empty(shape, dtype)
            assert buf.ctypes.data % 64 == 0
            assert buf.shape == np.empty(shape).shape and buf.dtype == dtype

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

    @pytest.mark.parametrize("block_columns", [1, 7, None])
    def test_blocked_equals_whole_matrix_formula(self, monkeypatch, block_columns):
        # column counts that are not a whole number of blocks, maps shorter
        # than the window, a constant column; None keeps the library's own
        # block budget, which holds 16 columns of a 2000-row map. Also odd
        # windows, maps of one and two rows, windows at least twice the map,
        # and column-major input (the layout SAD returns)
        cases = [(40, 23, 10), (6, 11, 10), (3, 8, 4), (2000, 37, 10), (40, 23, 7),
                 (25, 9, 3), (1, 5, 2), (2, 6, 3), (1, 4, 9), (2, 7, 4), (5, 6, 11),
                 (8, 5, 16)]
        rng = seeded_rng(17)
        for n_rows, n_cols, r_window in cases:
            if block_columns is not None:
                monkeypatch.setattr(classic, "BLOCK_BYTES", 8 * n_rows * block_columns)
            d = rng.uniform(0, 4, (n_rows, n_cols)) + rng.uniform(0, 50, n_cols)
            d[:, n_cols // 2] = 2.5
            for layout in "CF":
                got = contrast_enhance(np.asarray(d, order=layout), r_window)
                assert got.shape == (n_rows, n_cols) and got.dtype == np.float64
                assert np.array_equal(got, enhance_whole(d, r_window))

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
            got = score_matrix(seqslam_rows(enhanced, cfg))
            want = seqslam_scores_brute(enhanced, ds, velocity_grid(cfg).tolist())
            assert np.array_equal(got, want)

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
            if block_queries is not None:  # the line search's and top-1's budget
                for module in (classic, core):
                    monkeypatch.setattr(module, "BLOCK_BYTES", 8 * n_ref * block_queries)
            cfg = SeqSlamConfig(ds=ds, v_min=v_min, v_max=v_max, v_step=v_step, r_window=3)
            enhanced = rng.standard_normal((n_ref, n_query))
            want = seqslam_scores_brute(enhanced, ds, velocity_grid(cfg).tolist())
            assert np.array_equal(score_matrix(seqslam_rows(enhanced, cfg)), want)
            got = seqslam_match(enhanced, cfg)
            assert np.array_equal(got.predicted, want.argmax(axis=1))
            assert np.array_equal(got.confidence, want.max(axis=1))

    @pytest.mark.parametrize("grid", [(0.8, 1.2, 0.1), (1.0, 1.0, 0.1), (0.9, 1.0, 0.01),
                                      (0.5, 2.0, 0.05)])
    def test_shared_prefixes_match_exhaustive_enumeration(self, grid):
        # at ds 10: the default grid, whose lines share prefixes of 3 and 5
        # steps; one velocity; a step so fine that many velocities have the
        # very same offsets; and 28 lines that resume at depths 1-8 out of
        # order
        rng = seeded_rng(23)
        v_min, v_max, v_step = grid
        cfg = SeqSlamConfig(ds=10, v_min=v_min, v_max=v_max, v_step=v_step, r_window=3)
        enhanced = rng.standard_normal((30, 24))
        want = seqslam_scores_brute(enhanced, cfg.ds, velocity_grid(cfg).tolist())
        assert np.array_equal(score_matrix(seqslam_rows(enhanced, cfg)), want)

    def test_ds_one_equals_pairwise(self):
        rng = seeded_rng(8)
        enhanced = rng.standard_normal((9, 7))
        cfg = SeqSlamConfig(ds=1, v_min=1.0, v_max=1.0, v_step=0.1, r_window=2)
        assert np.array_equal(score_matrix(seqslam_rows(enhanced, cfg)),
                              score_matrix(pairwise_rows(enhanced)))
        via_lines = seqslam_match(enhanced, cfg)
        via_pairwise = pairwise_match(enhanced)
        assert np.array_equal(via_lines.predicted, via_pairwise.predicted)
        assert np.array_equal(via_lines.confidence, via_pairwise.confidence)

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

    @pytest.mark.parametrize("block_queries", [1, 3, None])
    def test_blocks_equal_whole_matrix_rescale(self, monkeypatch, block_queries):
        # the negated transpose min-max rescaled as one matrix; rounded
        # distances tie within columns, and a constant matrix gives all ones
        rng = seeded_rng(21)
        for d in (np.round(rng.uniform(0, 5, (9, 8)), 1), rng.uniform(0, 5, (40, 17)),
                  np.full((6, 5), 2.5)):
            if block_queries is not None:
                monkeypatch.setattr(core, "BLOCK_BYTES", 8 * d.shape[0] * block_queries)
            want = -d.T
            if want.max() == want.min():
                want = np.ones_like(want)
            else:
                want = (want - want.min()) / (want.max() - want.min())
            assert np.array_equal(score_matrix(pairwise_rows(d)), want)
            got = pairwise_match(d)
            assert np.array_equal(got.predicted, want.argmax(axis=1))
            assert np.array_equal(got.confidence, want.max(axis=1))


class TestMatchPipeline:
    def test_each_method_equals_its_stages(self):
        rng = seeded_rng(22)
        ref = DescriptorSequence(data=unit_rows(rng, 40, 6).astype(np.float32))
        query = DescriptorSequence(data=unit_rows(rng, 25, 6).astype(np.float32))
        cfg = SeqSlamConfig(ds=4, r_window=6)
        sad = similarity_matrix(ref, query, metric="sad")
        cosine = similarity_matrix(ref, query, metric="cosine")
        delta = similarity_matrix(delta_descriptors(ref, 3), delta_descriptors(query, 3))
        # a copy of SAD's matrix, which the seqslam stages overwrite
        cases = [
            (("seqslam",), seqslam_match(contrast_enhance(sad.copy(order="A"), 6), cfg)),
            (("seqslam", "cosine"), seqslam_match(contrast_enhance(cosine, 6), cfg)),
            (("pairwise",), pairwise_match(cosine)),
            (("pairwise", "sad"), pairwise_match(sad)),
            (("delta", None, 3), pairwise_match(delta)),
        ]
        for args, want in cases:
            got = classic.match(args[0], ref, query, cfg, *args[1:])
            assert np.array_equal(got.predicted, want.predicted), args
            assert np.array_equal(got.confidence, want.confidence), args

    def test_unknown_method_rejected(self):
        desc = DescriptorSequence(data=np.eye(6, dtype=np.float32))
        with pytest.raises(ValidationError, match="method"):
            classic.match("netvlad", desc, desc, SeqSlamConfig(ds=2))


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


class TestInputsAndMemory:
    @pytest.mark.parametrize("stage", ["contrast_enhance", "seqslam_match", "pairwise_match"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_read_only_input_left_unchanged(self, stage, layout):
        run = {
            "contrast_enhance": lambda m: contrast_enhance(m, 4),
            "seqslam_match": lambda m: seqslam_match(m, SeqSlamConfig(ds=3, r_window=4)),
            "pairwise_match": pairwise_match,
        }[stage]
        rng = seeded_rng(18)
        matrix = np.array(rng.uniform(0, 3, (30, 12)), order=layout)
        before = matrix.tobytes(order="A")
        matrix.flags.writeable = False
        run(matrix)
        assert matrix.tobytes(order="A") == before

    @pytest.mark.parametrize("ds", [1, 2, 10])
    @pytest.mark.parametrize("layout, writeable", [("F", True), ("C", True), ("F", False)],
                             ids=["F", "C", "F-read-only"])
    def test_query_major_input_worked_in_place(self, monkeypatch, ds, layout,
                                               writeable):
        # blocks of 3 queries, so the line search writes many descending
        # blocks, the last one partial; only a writeable F (N, Q) input (a C
        # (Q, N) buffer, as SAD returns) is worked on in place, and any other
        # is copied. The references are read-only, so making them overwrites
        # nothing
        monkeypatch.setattr(classic, "BLOCK_BYTES", 8 * 40 * 3)
        reused = layout == "F" and writeable
        rng = seeded_rng(25)
        cfg = SeqSlamConfig(ds=ds, r_window=6)
        matrix = rng.uniform(0, 3, (40, 38))
        matrix.flags.writeable = False
        enhanced = contrast_enhance(matrix, cfg.r_window)
        enhanced.flags.writeable = False
        want = seqslam_match(enhanced, cfg)

        def given(m):
            m = np.array(m, order=layout)
            m.flags.writeable = writeable
            return m

        m = given(matrix)
        got = contrast_enhance(m, cfg.r_window)
        assert np.array_equal(got, enhanced)
        assert np.shares_memory(got, m) == reused
        assert reused or np.array_equal(m, matrix)
        m = given(enhanced)
        rows = seqslam_rows(m, cfg)
        assert np.shares_memory(rows[1].distances, m) == reused
        assert reused or np.array_equal(m, enhanced)
        assert np.array_equal(score_matrix(rows), score_matrix(seqslam_rows(enhanced, cfg)))
        for got in (seqslam_match(given(enhanced), cfg),
                    seqslam_match(contrast_enhance(given(matrix), cfg.r_window), cfg)):
            assert np.array_equal(got.predicted, want.predicted)
            assert np.array_equal(got.confidence, want.confidence)

    def test_allocations_bounded_by_outputs(self):
        # for seqslam, one copy of the C matrix, which enhancement and the
        # line search both work in, and block buffers; for pairwise, only
        # block-sized work buffers: no N x Q copy
        rng = seeded_rng(19)
        matrix = rng.uniform(0, 4, (2000, 500))
        for run, bound in (
            (lambda: seqslam_match(contrast_enhance(matrix, 10), SeqSlamConfig()),
             matrix.nbytes + 8 * classic.BLOCK_BYTES),
            (lambda: pairwise_match(matrix), 0),
        ):
            assert traced_peak(run) <= bound + (1 << 20)

    def test_seqslam_pipeline_holds_one_matrix(self):
        # SAD's N x Q matrix, its float64 query copy and block buffers (SAD's
        # two, enhancement's sums and temporaries, the line search's work,
        # prefix and minimum buffers): enhancement and the line search work
        # in the SAD buffer, with no second N x Q matrix (4.8 MB here)
        rng = seeded_rng(26)
        ref = DescriptorSequence(data=rng.standard_normal((2000, 64)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((300, 64)).astype(np.float32))
        peak = traced_peak(lambda: classic.match("seqslam", ref, query, SeqSlamConfig()))
        assert peak <= 8 * (2000 * 300 + 300 * 64) + 8 * classic.BLOCK_BYTES + (1 << 20)

    def test_cosine_seqslam_pipeline_holds_two_matrices(self):
        # cosine's C (N, Q) matrix, the enhanced copy the line search then
        # works in, the float64 descriptor copies and block buffers: no third
        # N x Q matrix (8 MB here)
        rng = seeded_rng(27)
        ref = DescriptorSequence(data=rng.standard_normal((2000, 64)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((500, 64)).astype(np.float32))
        peak = traced_peak(lambda: classic.match("seqslam", ref, query, SeqSlamConfig(),
                                                 metric="cosine"))
        assert peak <= 8 * (2 * 2000 * 500 + 2000 * 64 + 500 * 64) + 8 * classic.BLOCK_BYTES \
            + (1 << 20)

    def test_sad_allocations_bounded_by_query_copy_and_output(self):
        # the output, the float64 query copy and two block buffers: no
        # float64 copy of the reference map (8 MB here)
        rng = seeded_rng(24)
        ref = DescriptorSequence(data=rng.standard_normal((2000, 512)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((100, 512)).astype(np.float32))
        peak = traced_peak(lambda: similarity_matrix(ref, query, metric="sad"))
        assert peak <= 8 * (2000 * 100 + 100 * 512) + 2 * classic.BLOCK_BYTES + (1 << 20)

    def test_cosine_allocations_bounded_by_copies_and_output(self):
        # the float64 copies of both inputs and the output matrix, plus
        # block-sized work buffers: no full-size square or second matrix
        rng = seeded_rng(20)
        ref = DescriptorSequence(data=rng.standard_normal((2000, 512)).astype(np.float32))
        query = DescriptorSequence(data=rng.standard_normal((100, 512)).astype(np.float32))
        peak = traced_peak(lambda: similarity_matrix(ref, query, metric="cosine"))
        assert peak <= 8 * (2000 * 512 + 100 * 512 + 2000 * 100) + (1 << 20)
