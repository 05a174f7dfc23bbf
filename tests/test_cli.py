import dataclasses
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from seqplace import classic, cli
from seqplace.classic import similarity_matrix
from seqplace.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from seqplace.ingest import load_descriptors, load_ground_truth, load_poses
from seqplace.spl import load_checkpoint, save_checkpoint


def run(*argv):
    return main(list(argv))


def read_manifest(path):
    """Parse a manifest as strict JSON: NaN and Infinity are not JSON."""
    def reject(token):
        raise ValueError(f"{path}: non-JSON constant {token}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run("synth", "--frames", "120", "--dim", "32", "--seed", "7",
               "--smoothness", "0.9", "--noise", "0.1", "--warp", "1.0",
               "--out", str(out))
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train")
    ckpt = out / "model.splm"
    code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
               "--poses", str(synth_dir / "ref_poses.csv"),
               "--tw", "5", "--hidden", "64", "--epochs", "500",
               "--seed", "1", "--out", str(ckpt))
    assert code == EXIT_OK
    return ckpt


class TestSynth:
    def test_outputs_reload_cleanly(self, synth_dir):
        ref = load_descriptors(synth_dir / "ref_descriptors.spld")
        poses = load_poses(synth_dir / "ref_poses.csv")
        assert ref.n_frames == 120 and ref.dim == 32
        assert poses.n_frames == 120
        query = load_descriptors(synth_dir / "query_descriptors.spld")
        gt = load_ground_truth(synth_dir / "ground_truth.csv")
        assert query.n_frames == gt.shape[0]
        assert (np.diff(gt) >= 0).all()
        assert (synth_dir / "synth.manifest.json").exists()

    def test_missing_frames_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("synth", "--dim", "8", "--out", str(tmp_path))
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("warp", ["", ","])
    def test_empty_warp_rejected(self, tmp_path, warp):
        out = tmp_path / "out"
        code = run("synth", "--frames", "30", "--dim", "8", "--warp", warp, "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("noise", [["--noise", "nan", "--warp", "1.0"],
                                       ["--noise", "0.1", "--pose-noise", "nan"],
                                       ["--noise", "0.1", "--pose-noise", "-1"],
                                       ["--noise", "nan"], ["--noise", "-1"],
                                       ["--pose-noise", "nan"]],
                             ids=["nan-noise", "nan-pose-noise", "negative-pose-noise",
                                  "nan-noise-alone", "negative-noise-alone",
                                  "nan-pose-noise-alone"])
    def test_bad_noise_sigma_rejected(self, tmp_path, noise):
        # NaN would add no noise and reach the manifest, which is then not JSON;
        # any noise flag asks for a query, so a bad sigma is never ignored
        out = tmp_path / "out"
        code = run("synth", "--frames", "30", "--dim", "8", *noise, "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("warp", ["1e-300", "1.0,0.005"])
    def test_speed_below_the_floor_rejected(self, tmp_path, capsys, warp):
        # 1e-300 would ask for about 1e301 query frames; the floor refuses it
        # before any position is made
        out = tmp_path / "out"
        code = run("synth", "--frames", "30", "--dim", "8", "--warp", warp, "--out", str(out))
        assert code == EXIT_USAGE
        assert "speed warp values must be at least 0.01" in capsys.readouterr().err
        assert not out.exists()

    def test_pose_noise_alone_makes_a_query(self, tmp_path):
        out = tmp_path / "out"
        code = run("synth", "--frames", "30", "--dim", "8", "--pose-noise", "0.1",
                   "--out", str(out))
        assert code == EXIT_OK
        ref, query = load_poses(out / "ref_poses.csv"), load_poses(out / "query_poses.csv")
        assert query.n_frames == ref.n_frames
        assert not np.array_equal(query.data, ref.data)
        assert np.array_equal(load_descriptors(out / "query_descriptors.spld").data,
                              load_descriptors(out / "ref_descriptors.spld").data)

    def test_repeat_run_bit_identical(self, tmp_path, synth_dir):
        again = tmp_path / "again"
        code = run("synth", "--frames", "120", "--dim", "32", "--seed", "7",
                   "--smoothness", "0.9", "--noise", "0.1", "--warp", "1.0",
                   "--out", str(again))
        assert code == EXIT_OK
        for name in ("ref_descriptors.spld", "query_descriptors.spld",
                     "ref_poses.csv", "query_poses.csv", "ground_truth.csv"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()


class TestTrain:
    def test_artifacts(self, trained):
        history = (str(trained) + ".history.csv")
        assert os.path.exists(history)
        with open(history) as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "epoch,loss,accuracy,lr"
        assert len(rows) == 501
        final_acc = float(rows[-1].split(",")[2])
        assert final_acc >= 0.99
        assert os.path.exists(str(trained) + ".config")
        assert os.path.exists(str(trained) + ".manifest.json")

    def test_tw_not_smaller_than_frames_rejected(self, synth_dir, tmp_path):
        code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                   "--poses", str(synth_dir / "ref_poses.csv"),
                   "--tw", "120", "--out", str(tmp_path / "x.splm"))
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.splm").exists()

    def test_repeat_run_bit_identical(self, synth_dir, trained, tmp_path):
        ckpt2 = tmp_path / "model2.splm"
        code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                   "--poses", str(synth_dir / "ref_poses.csv"),
                   "--tw", "5", "--hidden", "64", "--epochs", "500",
                   "--seed", "1", "--out", str(ckpt2))
        assert code == EXIT_OK
        assert ckpt2.read_bytes() == trained.read_bytes()

    def test_config_file_matches_equivalent_flags(self, synth_dir, tmp_path):
        data = ["--desc", str(synth_dir / "ref_descriptors.spld"),
                "--poses", str(synth_dir / "ref_poses.csv"),
                "--tw", "5", "--hidden", "16", "--lr", "0.004"]
        config = tmp_path / "train.cfg"
        # --lr overrides the file
        config.write_text("epochs = 3\nseed = 5\nbatch_size = 7\ninitial_lr = 0.5\n")
        by_flags, by_file = tmp_path / "flags.splm", tmp_path / "file.splm"
        assert run("train", *data, "--epochs", "3", "--seed", "5", "--batch", "7",
                   "--out", str(by_flags)) == EXIT_OK
        assert run("train", *data, "--config", str(config), "--out", str(by_file)) == EXIT_OK
        for suffix in ("", ".history.csv", ".config"):
            assert (tmp_path / f"file.splm{suffix}").read_bytes() == \
                (tmp_path / f"flags.splm{suffix}").read_bytes()
        recorded = (tmp_path / "file.splm.config").read_text().splitlines()
        assert {"seed = 5", "batch_size = 7", "initial_lr = 0.004"} <= set(recorded)

    def test_recorded_config_loads(self, synth_dir, tmp_path):
        # a .config as train wrote it before unknown keys were rejected
        recorded = ("variant = spl\ndescriptor_dim = 32\nnum_places = 115\ntw = 5\n"
                    "hidden_size = 16\npose_weight = 500.0\ninitial_lr = 0.004\n"
                    "min_lr = 1e-06\nepochs = 3\nbatch_size = 9\nseed = 4\n")
        data = ["--desc", str(synth_dir / "ref_descriptors.spld"),
                "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5", "--hidden", "16"]
        by_flags = tmp_path / "flags.splm"
        assert run("train", *data, "--lr", "0.004", "--epochs", "3", "--batch", "9",
                   "--seed", "4", "--out", str(by_flags)) == EXIT_OK
        config, out = tmp_path / "old.config", tmp_path / "file.splm"
        config.write_text(recorded)
        assert run("train", *data, "--config", str(config), "--out", str(out)) == EXIT_OK
        assert out.read_bytes() == by_flags.read_bytes()
        assert (tmp_path / "file.splm.config").read_text() == recorded

    def test_unknown_config_key_writes_nothing(self, synth_dir, tmp_path, capsys):
        # a misspelt key, and settings that are constants now or were dropped
        config, out = tmp_path / "typo.config", tmp_path / "x.splm"
        for line in ("epoch = 3", "weight_decay = 0.0", "shuffle = false",
                     "scheduler_factor = 0.5", "scheduler_patience = 10"):
            config.write_text(line + "\n")
            code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                       "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5",
                       "--config", str(config), "--out", str(out))
            assert code == EXIT_USAGE
            assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err
            assert sorted(os.listdir(tmp_path)) == ["typo.config"]

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_infinite_lr_rejected_up_front(self, synth_dir, tmp_path, route):
        # and so is a batch size that is neither an integer nor "all"
        config, out = tmp_path / "bad.config", tmp_path / "x.splm"
        cases = {"flag": [("--lr", "inf"), ("--batch", "most"), ("--batch", "7.5")],
                 "config": [("initial_lr", "inf"), ("batch_size", "most")]}[route]
        for key, value in cases:
            config.write_text(f"{key} = {value}\n")
            given = [key, value] if route == "flag" else ["--config", str(config)]
            code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                       "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5",
                       "--epochs", "1", *given, "--out", str(out))
            assert code == EXIT_USAGE
            assert sorted(os.listdir(tmp_path)) == ["bad.config"]

    def test_exploding_lr_exits_numeric(self, synth_dir, tmp_path):
        code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                   "--poses", str(synth_dir / "ref_poses.csv"),
                   "--tw", "5", "--hidden", "16", "--epochs", "5",
                   "--lr", "1e37", "--seed", "3", "--out", str(tmp_path / "x.splm"))
        assert code == EXIT_NUMERIC


class TestInferAndEval:
    def test_self_query_is_perfect_at_radius_zero(self, synth_dir, trained, tmp_path):
        scores = tmp_path / "scores.csv"
        code = run("infer", "--ckpt", str(trained),
                   "--desc", str(synth_dir / "ref_descriptors.spld"),
                   "--poses", str(synth_dir / "ref_poses.csv"),
                   "--out", str(scores))
        assert code == EXIT_OK
        gt = tmp_path / "identity_gt.csv"
        with open(gt, "w") as fh:
            fh.write("query,ref\n")
            for q in range(115):
                fh.write(f"{q},{q}\n")
        code = run("eval", "--scores", str(scores), "--gt", str(gt),
                   "--radius", "0", "--out", str(tmp_path / "eval"))
        assert code == EXIT_OK
        rows = (tmp_path / "eval_auc.csv").read_text().strip().splitlines()
        assert rows[0] == "radius,auc"
        assert float(rows[1].split(",")[1]) == 1.0

    def test_radius_sweep_is_monotone(self, synth_dir, trained, tmp_path):
        scores = tmp_path / "scores.csv"
        run("infer", "--ckpt", str(trained),
            "--desc", str(synth_dir / "query_descriptors.spld"),
            "--poses", str(synth_dir / "query_poses.csv"),
            "--out", str(scores))
        code = run("eval", "--scores", str(scores),
                   "--gt", str(synth_dir / "ground_truth.csv"),
                   "--radius-sweep", "1..50", "--out", str(tmp_path / "sweep"))
        assert code == EXIT_OK
        rows = (tmp_path / "sweep_auc.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 50
        values = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_radius_sweep_equals_single_radius_runs(self, synth_dir, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", "pairwise", "--out", str(scores))
        assert code == EXIT_OK
        eval_args = ("eval", "--scores", str(scores), "--gt", str(synth_dir / "ground_truth.csv"))
        capsys.readouterr()
        assert run(*eval_args, "--radius-sweep", "1..50", "--out", str(tmp_path / "sweep")) == 0
        sweep_rows = (tmp_path / "sweep_auc.csv").read_text().splitlines()
        sweep_lines = capsys.readouterr().out.splitlines()
        assert len(sweep_rows) == 51 and len(sweep_lines) == 50
        for r in range(1, 51):
            assert run(*eval_args, "--radius", str(r), "--out", str(tmp_path / "one")) == 0
            assert (tmp_path / "one_auc.csv").read_text().splitlines() == ["radius,auc",
                                                                             sweep_rows[r]]
            assert capsys.readouterr().out.splitlines() == [sweep_lines[r - 1]]

    def test_eval_rejects_short_ground_truth(self, synth_dir, trained, tmp_path):
        scores = tmp_path / "scores.csv"
        run("infer", "--ckpt", str(trained),
            "--desc", str(synth_dir / "ref_descriptors.spld"),
            "--poses", str(synth_dir / "ref_poses.csv"),
            "--out", str(scores))
        gt = tmp_path / "short_gt.csv"
        gt.write_text("query,ref\n0,0\n1,1\n")
        code = run("eval", "--scores", str(scores), "--gt", str(gt),
                   "--radius", "0", "--out", str(tmp_path / "eval"))
        assert code == EXIT_USAGE

    def test_frame_count_mismatch_writes_nothing(self, synth_dir, trained, tmp_path):
        short_poses = tmp_path / "short_poses.csv"
        rows = (synth_dir / "ref_poses.csv").read_text().splitlines()
        short_poses.write_text("\n".join(rows[:101]) + "\n")
        desc = str(synth_dir / "ref_descriptors.spld")
        code = run("train", "--desc", desc, "--poses", str(short_poses), "--tw", "5",
                   "--hidden", "8", "--epochs", "1", "--out", str(tmp_path / "x.splm"))
        assert code == EXIT_USAGE
        code = run("infer", "--ckpt", str(trained), "--desc", desc,
                   "--poses", str(short_poses), "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short_poses.csv"]

    @pytest.mark.parametrize("radii", [["--radius-sweep", "5..1"], ["--radius-sweep", ","],
                                       ["--radius", "nan"], ["--radius", "inf"],
                                       ["--radius", "-1"], ["--radius-sweep", "2,nan"]],
                             ids=["empty-range", "empty-list", "nan", "inf", "negative",
                                  "nan-in-sweep"])
    def test_bad_radii_write_nothing(self, tmp_path, radii):
        scores = tmp_path / "scores.csv"
        scores.write_text("query,predicted,confidence\n0,0,0.9\n1,1,0.8\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("query,ref\n0,0\n1,1\n")
        code = run("eval", "--scores", str(scores), "--gt", str(gt), *radii,
                   "--out", str(tmp_path / "eval"))
        assert code == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.csv", "scores.csv"]

    def test_scores_query_column_must_count(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("query,predicted,confidence\n7,3,0.5\n7,1,0.25\n")
        gt = tmp_path / "gt.csv"
        gt.write_text("query,ref\n0,1\n1,3\n")
        code = run("eval", "--scores", str(scores), "--gt", str(gt), "--radius", "0",
                   "--out", str(tmp_path / "eval"))
        assert code == EXIT_USAGE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt.csv", "scores.csv"]

    def test_non_finite_checkpoint_rejected(self, synth_dir, trained, tmp_path):
        clean = load_checkpoint(trained)
        w_out = clean.params[-2].copy()
        w_out.flat[0] = np.nan
        params = [*clean.params[:-2], w_out, clean.params[-1]]
        save_checkpoint(dataclasses.replace(clean, params=params), tmp_path / "nan_w_out.splm")
        # save_checkpoint refuses a non-finite sigma, so it goes into the bytes:
        # sigma[0] follows the 28-byte header, the pose weight and mu
        blob = bytearray(trained.read_bytes())
        blob[52:60] = np.array(np.nan, "<f8").tobytes()
        (tmp_path / "nan_pose_sigma.splm").write_bytes(bytes(blob))
        for name in ("w_out", "pose_sigma"):
            ckpt = tmp_path / f"nan_{name}.splm"
            scores = tmp_path / f"nan_{name}.csv"
            code = run("infer", "--ckpt", str(ckpt),
                       "--desc", str(synth_dir / "query_descriptors.spld"),
                       "--poses", str(synth_dir / "query_poses.csv"),
                       "--out", str(scores))
            assert code == EXIT_USAGE
            assert not scores.exists()

    def test_overflowing_checkpoint_exits_numeric(self, synth_dir, trained, tmp_path):
        # every value is finite, so the checkpoint loads, but the place-0
        # logit overflows and the softmax turns it into NaN
        clean = load_checkpoint(trained)
        w_out, b_out = (p.copy() for p in clean.params[-2:])
        w_out[0, :] = -3.4e38
        b_out[0] = 3.4e38
        ckpt = tmp_path / "overflow.splm"
        save_checkpoint(dataclasses.replace(clean, params=[*clean.params[:-2], w_out, b_out]),
                        ckpt)
        load_checkpoint(ckpt)
        scores = tmp_path / "overflow.csv"
        code = run("infer", "--ckpt", str(ckpt),
                   "--desc", str(synth_dir / "query_descriptors.spld"),
                   "--poses", str(synth_dir / "query_poses.csv"),
                   "--out", str(scores))
        assert code == EXIT_NUMERIC
        assert not scores.exists()


class TestMatch:
    def test_short_ds_underperforms_long_ds(self, synth_dir, tmp_path):
        aucs = {}
        for ds in (2, 10):
            scores = tmp_path / f"seq{ds}.csv"
            code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                       "--query", str(synth_dir / "query_descriptors.spld"),
                       "--method", "seqslam", "--ds", str(ds),
                       "--out", str(scores))
            assert code == EXIT_OK
            code = run("eval", "--scores", str(scores),
                       "--gt", str(synth_dir / "ground_truth.csv"),
                       "--radius", "2", "--out", str(tmp_path / f"eval{ds}"))
            assert code == EXIT_OK
            row = (tmp_path / f"eval{ds}_auc.csv").read_text().strip().splitlines()[1]
            aucs[ds] = float(row.split(",")[1])
        assert aucs[2] < aucs[10]

    def test_pairwise_and_delta_run(self, synth_dir, tmp_path):
        for method in ("pairwise", "delta"):
            out = tmp_path / f"{method}.csv"
            code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                       "--query", str(synth_dir / "query_descriptors.spld"),
                       "--method", method, "--out", str(out))
            assert code == EXIT_OK
            assert out.read_text().startswith("query,predicted,confidence")

    def test_non_finite_distance_exits_numeric(self, synth_dir, tmp_path, monkeypatch,
                                               capsys):
        # a fault in the distances is named where it is: column 5 is query 5
        def faulty(*args, **kwargs):
            matrix = similarity_matrix(*args, **kwargs)
            matrix[3, 5] = np.nan
            return matrix

        monkeypatch.setattr(classic, "similarity_matrix", faulty)
        out = tmp_path / "x.csv"
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", "pairwise", "--out", str(out))
        assert code == EXIT_NUMERIC
        assert "non-finite distance at query 5, place 3" in capsys.readouterr().err
        assert not out.exists()

    def test_allocation_failure_in_a_worker_exits_cleanly(self, synth_dir, tmp_path,
                                                           monkeypatch, capsys):
        # SAD's scratch buffer fails only in a worker part; the caller
        # reports it without a traceback and writes nothing
        def fail_off_the_main_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("scratch buffer")
            return aligned_empty(*args, **kwargs)

        aligned_empty = classic._aligned_empty
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(classic, "_aligned_empty", fail_off_the_main_thread)
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", "seqslam", "--out", str(tmp_path / "scores.csv"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "error: out of memory: scratch buffer" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_dim_mismatch_is_usage_error(self, synth_dir, tmp_path):
        other = tmp_path / "other"
        run("synth", "--frames", "30", "--dim", "8", "--seed", "1",
            "--out", str(other))
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(other / "ref_descriptors.spld"),
                   "--method", "pairwise", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", [["--vmax", "inf"], ["--vstep", "nan"],
                                      ["--vstep", "inf"],
                                      ["--vmin", "1e-300", "--vstep", "1e-300"],
                                      ["--vmax", "1e12"]],
                             ids=["vmax-inf", "vstep-nan", "vstep-inf", "tiny-step",
                                  "huge-vmax"])
    def test_bad_velocity_grid_writes_nothing(self, synth_dir, tmp_path, grid):
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", "seqslam", *grid, "--out", str(tmp_path / "scores.csv"))
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["pairwise", "delta"])
    def test_every_method_validates_the_velocity_grid(self, synth_dir, tmp_path, method):
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", method, "--vmax", "inf", "--out", str(tmp_path / "scores.csv"))
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_tiny_bench_writes_json(self, tmp_path):
        out = tmp_path / "latency.json"
        code = run("bench", "--sizes", "60,80", "--methods", "spl,seqslam",
                   "--dim", "16", "--hidden", "8", "--tw", "4", "--reps", "3",
                   "--queries", "30", "--seed", "5", "--out", str(out))
        assert code == EXIT_OK
        reports = json.loads(out.read_text())
        assert len(reports) == 4
        for report in reports:
            assert report["mean_us_per_query"] > 0
            assert len(report["rep_seconds"]) == 3

    def test_unknown_method_rejected(self, tmp_path):
        code = run("bench", "--methods", "spl,hmm", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE

    def test_fewer_than_four_queries_rejected(self, tmp_path):
        # the kept query frames are perturbed on their own, and a perturbed
        # traversal needs at least 4 frames
        code = run("bench", "--sizes", "60", "--tw", "1", "--queries", "3",
                   "--out", str(tmp_path / "x.json"))
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_one_parser_serves_independent_calls(self, synth_dir, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        common = ("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                  "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5",
                  "--hidden", "8", "--epochs", "1")
        assert run(*common, "--batch", "7", "--out", str(tmp_path / "a.splm")) == EXIT_OK
        assert run("synth", "--frames", "20", "--out", str(tmp_path / "s")) == EXIT_OK
        assert run(*common, "--out", str(tmp_path / "b.splm")) == EXIT_OK
        # the first call's flags neither reach another subcommand nor the second train
        synth_args = vars(cli.build_parser().parse_args(["synth", "--frames", "20", "--out", "s"]))
        assert "batch" not in synth_args and "desc" not in synth_args
        batches = [read_manifest(tmp_path / f"{name}.splm.manifest.json")["parameters"]
                   ["train"]["batch_size"] for name in "ab"]
        assert batches == [7, "all"]
        with pytest.raises(SystemExit) as exc:
            run("eval", "--scores", str(tmp_path / "x.csv"))
        assert exc.value.code == EXIT_USAGE


class TestManifest:
    def test_identical_runs_differ_only_in_timestamps(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                "--query", str(synth_dir / "query_descriptors.spld"),
                "--method", "pairwise", "--out", str(out))
            outs.append(read_manifest(str(out) + ".manifest.json"))
            assert outs[-1]["command"] == "match"
            assert outs[-1]["parameters"] == {
                "method": "pairwise", "metric": "cosine", "ds": 10, "v_min": 0.8,
                "v_max": 1.2, "v_step": 0.1, "r_window": 10, "delta_window": 5}
            assert outs[-1]["inputs"]
        for manifest in outs:
            manifest.pop("started_at")
            manifest.pop("finished_at")
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1])
    def test_input_digest_is_sha256_of_the_bytes(self, tmp_path, size):
        # sizes around the 1 MiB read buffer: empty, short, exact, one over
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert cli._sha256(path) == hashlib.sha256(data).hexdigest()
