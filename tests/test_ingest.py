import tracemalloc
import warnings

import numpy as np
import pytest

from seqplace.core import (DescriptorSequence, FormatError, MatchScores, PoseSequence,
                           ValidationError, seeded_rng)
from seqplace.ingest import (
    apply_standardization,
    load_descriptors,
    load_ground_truth,
    load_poses,
    load_scores,
    perturb_query,
    read_table,
    save_descriptors,
    save_ground_truth,
    save_poses,
    save_scores,
    standardize_poses,
    synth_traverse,
    write_table,
)


class TestTables:
    def test_round_trip_bit_exact(self, tmp_path):
        ints = [0, -1, 2**63 - 1, -2**63]
        floats = [5e-324, -0.0, 1.7976931348623157e308, 0.1]
        path = tmp_path / "t.csv"
        write_table(path, "a,b", zip(ints, floats))
        assert path.read_text().splitlines() == ["a,b"] + [f"{i},{f!r}" for i, f in
                                                           zip(ints, floats)]
        (a, b), lines = read_table(path, "a,b", (int, float))
        assert a.dtype == np.int64 and a.tolist() == ints
        assert b.dtype == np.float64 and [float(v).hex() for v in b] == \
            [v.hex() for v in floats]
        assert list(lines) == [2, 3, 4, 5]

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a, b\r\n\r\n 1,2 \r\n\n3,4\n\n")
        (a, b), lines = read_table(path, "a,b", (int, float))
        assert a.tolist() == [1, 3] and b.tolist() == [2.0, 4.0]
        assert list(lines) == [3, 5]

    @pytest.mark.parametrize("body, message", [
        ("1,2\n\n3\n", r"t.csv:4: expected 2"),
        ("1,2\n2.5,3\n", r"t.csv:3: bad int64 value '2.5'"),
        ("1,2\n9223372036854775808,3\n", r"t.csv:3: bad int64"),
        ("1,x\n", r"t.csv:2: bad float64 value 'x'"),
        ("\n", r"no rows"),
    ])
    def test_errors_name_the_line(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + body)
        with pytest.raises(FormatError, match=message):
            read_table(path, "a,b", (int, float))

    def test_python_number_syntax_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1_0,\u0663\n", encoding="utf-8")
        (a, b), lines = read_table(path, "a,b", (int, float))
        assert a.tolist() == [10] and b.tolist() == [3.0] and list(lines) == [2]

    def test_padded_fields_read_as_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n 1 ,\t2.5\t\n3\t, 4\n")
        (a, b), _ = read_table(path, "a,b", (int, float))
        assert a.tolist() == [1, 3] and b.tolist() == [2.5, 4.0]

    @pytest.mark.parametrize("body, message", [
        ("1,0.5\n2,0.5#x\n", r"t.csv:3: bad float64 value '0.5#x'"),  # not a comment
        ("1,2\n2.5,3\n", r"t.csv:3: bad int64 value '2.5'"),
        # values numpy's parsers read but int() does not
        ("1,2\n1\u01fe,3\n", r"t.csv:3: bad int64 value '1\u01fe'"),
        ("1,2\n1\x1c,3\n", r"t.csv:3: bad int64 value '1\\x1c'"),
        ("\n \n\t\n", r"no rows"),
    ])
    def test_errors_name_the_line_and_warn_nothing(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + body, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=message):
                read_table(path, "a,b", (int, float))

    def test_headerless_extremes_round_trip_bit_exact(self, tmp_path):
        floats = [5e-324, -0.0, 1.7976931348623157e308]
        path = tmp_path / "t.csv"
        write_table(path, None, [[value] for value in floats])
        (column,), lines = read_table(path, None, float)
        assert column.dtype == np.float64 and column.tobytes() == np.array(floats).tobytes()
        assert list(lines) == [1, 2, 3]


class TestDescriptorFiles:
    def test_small_decode(self, tmp_path):
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=[[1, 2, 3], [4, 5, 6]]))
        loaded = load_descriptors(path)
        assert np.array_equal(loaded.data, [[1, 2, 3], [4, 5, 6]])

    def test_round_trip_bit_exact(self, tmp_path):
        data = seeded_rng(3).standard_normal((10, 8)).astype(np.float32)
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=data))
        assert np.array_equal(load_descriptors(path).data, data)

    def test_load_allocates_the_map_once(self, tmp_path):
        # the payload is read into the array the sequence keeps: one
        # N x n float32 allocation, no file-sized bytes object beside it
        data = seeded_rng(4).standard_normal((2000, 256)).astype(np.float32)
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=data))
        tracemalloc.start()
        try:
            loaded = load_descriptors(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.data, data) and not loaded.data.flags.writeable
        assert peak <= data.nbytes + (1 << 16)

    def test_truncated_file_names_byte_counts(self, tmp_path):
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=np.ones((4, 4), np.float32)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError, match=rf"expected {len(blob)} bytes.*has {len(blob) - 7}"):
            load_descriptors(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=np.ones((2, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_descriptors(path)

    def test_nan_payload_rejected_with_location(self, tmp_path):
        path = tmp_path / "d.spld"
        save_descriptors(path, DescriptorSequence(data=np.ones((3, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        blob[16 + 4 * 2:16 + 4 * 3] = np.array([np.nan], "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="frame 1, dim 0"):
            load_descriptors(path)

    def test_csv_route(self, tmp_path):
        data = seeded_rng(5).standard_normal((6, 3)).astype(np.float32)
        path = tmp_path / "d.csv"
        save_descriptors(path, DescriptorSequence(data=data))
        assert np.array_equal(load_descriptors(path).data, data)

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError, match="expected 2"):
            load_descriptors(path)


class TestPoseFiles:
    def test_round_trip(self, tmp_path):
        poses = PoseSequence(data=seeded_rng(7).standard_normal((5, 2)))
        path = tmp_path / "p.csv"
        save_poses(path, poses)
        assert np.array_equal(load_poses(path).data, poses.data)

    def test_non_increasing_frames_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("frame,x,y\n0,0.0,0.0\n0,1.0,1.0\n")
        with pytest.raises(FormatError, match="strictly increasing"):
            load_poses(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y\n0.0,0.0\n")
        with pytest.raises(FormatError, match="header"):
            load_poses(path)


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path):
        gt = np.array([0, 2, 4, 5], dtype=np.int64)
        path = tmp_path / "gt.csv"
        save_ground_truth(path, gt)
        assert np.array_equal(load_ground_truth(path), gt)

    def test_gapped_queries_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query,ref\n0,0\n2,2\n")
        with pytest.raises(FormatError):
            load_ground_truth(path)


class TestScoresFiles:
    def test_round_trip(self, tmp_path):
        scores = MatchScores.from_scores([seeded_rng(11).random((6, 4))], 4)
        path = tmp_path / "s.csv"
        save_scores(path, scores)
        predicted, confidence = load_scores(path)
        assert np.array_equal(predicted, scores.predicted)
        assert np.array_equal(confidence, scores.confidence)

    @pytest.mark.parametrize("body", ["7,3,0.5\n7,1,0.25\n", "0,3,0.5\nbanana,2,0.1\n",
                                      "1,3,0.5\n"], ids=["repeated", "not-a-number", "gap"])
    def test_query_column_must_count(self, tmp_path, body):
        path = tmp_path / "s.csv"
        path.write_text("query,predicted,confidence\n" + body)
        with pytest.raises(FormatError):
            load_scores(path)


class TestStandardization:
    def test_two_point_column(self):
        poses = PoseSequence(data=np.array([[0.0, 0.0], [2.0, 2.0]]))
        std, mu, sigma = standardize_poses(poses)
        assert np.allclose(mu, [1.0, 1.0])
        assert np.allclose(sigma, [1.0, 1.0])  # population std
        assert np.allclose(std.data, [[-1.0, -1.0], [1.0, 1.0]])

    def test_constant_column_maps_to_zero(self):
        poses = PoseSequence(data=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        std, _, sigma = standardize_poses(poses)
        assert sigma[0] == 0.0
        assert np.array_equal(std.data[:, 0], np.zeros(3))

    def test_idempotent(self):
        poses = PoseSequence(data=seeded_rng(9).standard_normal((50, 2)) * 7 + 3)
        once, _, _ = standardize_poses(poses)
        twice, _, _ = standardize_poses(once)
        assert np.allclose(once.data, twice.data, atol=1e-9)

    def test_unstandardize_recovers(self):
        data = seeded_rng(10).standard_normal((40, 2)) * 12 - 4
        std, mu, sigma = standardize_poses(PoseSequence(data=data))
        assert np.allclose(std.data * sigma + mu, data, atol=1e-6)

    def test_single_frame_rejected(self):
        with pytest.raises(ValidationError):
            standardize_poses(PoseSequence(data=np.zeros((1, 2))))

    def test_queries_reuse_training_stats(self):
        out = apply_standardization(np.array([[2.0, 8.0]]), np.array([1.0, 2.0]),
                                    np.array([2.0, 0.0]))
        assert np.allclose(out, [[0.5, 0.0]])


class TestSynthTraverse:
    def test_deterministic(self):
        a = synth_traverse(30, 8, seed=4)
        b = synth_traverse(30, 8, seed=4)
        assert np.array_equal(a.descriptors.data, b.descriptors.data)
        assert np.array_equal(a.poses.data, b.poses.data)

    def test_smooth_walk_has_adjacent_similarity(self):
        env = synth_traverse(1000, 16, seed=6, smoothness=0.9)
        d = env.descriptors.data.astype(np.float64)
        adjacent = np.mean(np.sum(d[:-1] * d[1:], axis=1))
        rng = seeded_rng(8)
        i = rng.integers(0, 1000, 1000)
        j = rng.integers(0, 1000, 1000)
        keep = np.abs(i - j) > 10
        random_pairs = np.mean(np.sum(d[i[keep]] * d[j[keep]], axis=1))
        assert adjacent > random_pairs + 0.2

    def test_zero_smoothness_is_memoryless(self):
        env = synth_traverse(1000, 16, seed=6, smoothness=0.0)
        d = env.descriptors.data.astype(np.float64)
        adjacent = np.mean(np.sum(d[:-1] * d[1:], axis=1))
        rng = seeded_rng(8)
        i = rng.integers(0, 1000, 1000)
        j = rng.integers(0, 1000, 1000)
        keep = np.abs(i - j) > 10
        random_pairs = np.mean(np.sum(d[i[keep]] * d[j[keep]], axis=1))
        assert abs(adjacent - random_pairs) < 0.1

    def test_equals_float64_walk_cast_to_float32(self):
        # the walk runs in float64 and only its stored rows are float32
        rng = seeded_rng(9)
        step = rng.standard_normal(16)
        rows = [step / np.linalg.norm(step)]
        for _ in range(49):
            step = rng.standard_normal(16)
            step /= np.linalg.norm(step)
            blended = 0.7 * rows[-1] + (1.0 - 0.7) * step
            rows.append(blended / np.linalg.norm(blended))
        env = synth_traverse(50, 16, seed=9, smoothness=0.7)
        assert np.array_equal(env.descriptors.data, np.array(rows).astype(np.float32))

    def test_peak_memory_is_one_float32_map(self):
        # DescriptorSequence keeps the read-only map it is given: no copy
        tracemalloc.start()
        try:
            env = synth_traverse(3000, 256, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3000 * 256 * 4 + (1 << 20)
        assert not env.descriptors.data.flags.writeable

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            synth_traverse(3, 8, seed=1)
        with pytest.raises(ValidationError):
            synth_traverse(10, 1, seed=1)


class TestPerturbQuery:
    def test_noop_is_bit_identical(self):
        env = synth_traverse(50, 8, seed=12)
        query, gt = perturb_query(env, noise_sigma=0.0, speed_warp=1.0, seed=13)
        assert np.array_equal(query.descriptors.data, env.descriptors.data)
        assert np.array_equal(query.poses.data, env.poses.data)
        assert np.array_equal(gt, np.arange(50))

    def test_identity_warp_keeps_identity_ground_truth(self):
        env = synth_traverse(50, 8, seed=12)
        _, gt = perturb_query(env, noise_sigma=0.3, speed_warp=1.0, seed=13)
        assert np.array_equal(gt, np.arange(50))

    def test_double_speed_halves_frames(self):
        env = synth_traverse(100, 8, seed=14)
        query, gt = perturb_query(env, noise_sigma=0.0, speed_warp=2.0, seed=15)
        assert query.descriptors.n_frames == 50
        assert np.array_equal(gt, 2 * np.arange(50))

    def test_monotone_warp_gives_monotone_ground_truth(self):
        env = synth_traverse(200, 8, seed=16)
        for warp in ([0.5, 2.0, 1.3], [1.7, 0.6], [0.9]):
            _, gt = perturb_query(env, noise_sigma=0.2, speed_warp=warp, seed=17)
            assert (np.diff(gt) >= 0).all()

    def test_too_few_frames_rejected(self):
        env = synth_traverse(5, 8, seed=18)
        with pytest.raises(ValidationError):
            perturb_query(env, noise_sigma=0.0, speed_warp=3.0, seed=19)

    def test_noisy_descriptors_stay_unit_norm(self):
        env = synth_traverse(40, 8, seed=20)
        query, _ = perturb_query(env, noise_sigma=0.5, speed_warp=1.0, seed=21)
        norms = np.linalg.norm(query.descriptors.data.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)
