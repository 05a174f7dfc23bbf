import dataclasses
import json
import os

import numpy as np
import pytest

from seqplace.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from seqplace.ingest import load_descriptors, load_ground_truth, load_poses
from seqplace.spl import load_checkpoint, save_checkpoint


def run(*argv):
    return main(list(argv))


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
        # weight_decay = 0.0 as older .config files record it; --lr overrides the file
        config.write_text("epochs = 3\nseed = 5\nbatch_size = 7\nshuffle = false\n"
                          "weight_decay = 0.0\ninitial_lr = 0.5\n")
        by_flags, by_file = tmp_path / "flags.splm", tmp_path / "file.splm"
        assert run("train", *data, "--epochs", "3", "--seed", "5", "--batch", "7",
                   "--no-shuffle", "--out", str(by_flags)) == EXIT_OK
        assert run("train", *data, "--config", str(config), "--out", str(by_file)) == EXIT_OK
        for suffix in ("", ".history.csv", ".config"):
            assert (tmp_path / f"file.splm{suffix}").read_bytes() == \
                (tmp_path / f"flags.splm{suffix}").read_bytes()
        recorded = (tmp_path / "file.splm.config").read_text().splitlines()
        assert {"seed = 5", "batch_size = 7", "shuffle = false",
                "initial_lr = 0.004"} <= set(recorded)

    def test_recorded_config_loads(self, synth_dir, tmp_path):
        # a .config as train wrote it before unknown keys were rejected, and
        # the same with the weight_decay line that older files record
        recorded = ("variant = spl\ndescriptor_dim = 32\nnum_places = 115\ntw = 5\n"
                    "hidden_size = 16\npose_weight = 500.0\ninitial_lr = 0.004\n"
                    "min_lr = 1e-06\nepochs = 3\nbatch_size = 9\nseed = 4\n"
                    "scheduler_factor = 0.5\nscheduler_patience = 10\nshuffle = true\n")
        data = ["--desc", str(synth_dir / "ref_descriptors.spld"),
                "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5", "--hidden", "16"]
        by_flags = tmp_path / "flags.splm"
        assert run("train", *data, "--lr", "0.004", "--epochs", "3", "--batch", "9",
                   "--seed", "4", "--out", str(by_flags)) == EXIT_OK
        for text in (recorded, recorded + "weight_decay = 0.0\n"):
            config, out = tmp_path / "old.config", tmp_path / "file.splm"
            config.write_text(text)
            assert run("train", *data, "--config", str(config), "--out", str(out)) == EXIT_OK
            assert out.read_bytes() == by_flags.read_bytes()
            assert (tmp_path / "file.splm.config").read_text() == recorded

    def test_unknown_config_key_writes_nothing(self, synth_dir, tmp_path):
        config, out = tmp_path / "typo.config", tmp_path / "x.splm"
        config.write_text("epoch = 3\n")
        code = run("train", "--desc", str(synth_dir / "ref_descriptors.spld"),
                   "--poses", str(synth_dir / "ref_poses.csv"), "--tw", "5",
                   "--config", str(config), "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_non_finite_checkpoint_rejected(self, synth_dir, trained, tmp_path):
        clean = load_checkpoint(trained)
        for name in ("w_out", "pose_sigma"):
            poisoned = getattr(clean, name).copy()
            poisoned.flat[0] = np.nan
            ckpt = tmp_path / f"nan_{name}.splm"
            save_checkpoint(dataclasses.replace(clean, **{name: poisoned}), ckpt)
            scores = tmp_path / f"nan_{name}.csv"
            code = run("infer", "--ckpt", str(ckpt),
                       "--desc", str(synth_dir / "query_descriptors.spld"),
                       "--poses", str(synth_dir / "query_poses.csv"),
                       "--out", str(scores))
            assert code == EXIT_USAGE
            assert not scores.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_checkpoint_exits_numeric(self, synth_dir, trained, tmp_path):
        # every value is finite, so the checkpoint loads, but the place-0
        # logit overflows and the softmax turns it into NaN
        clean = load_checkpoint(trained)
        w_out, b_out = clean.w_out.copy(), clean.b_out.copy()
        w_out[0, :] = -3.4e38
        b_out[0] = 3.4e38
        ckpt = tmp_path / "overflow.splm"
        save_checkpoint(dataclasses.replace(clean, w_out=w_out, b_out=b_out), ckpt)
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
                   "--method", "seqslam", *grid,
                   "--export-matrix", str(tmp_path / "matrix.spld"),
                   "--out", str(tmp_path / "scores.csv"))
        assert code == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_export_matrix_round_trips(self, synth_dir, tmp_path):
        matrix_path = tmp_path / "matrix.spld"
        code = run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                   "--query", str(synth_dir / "query_descriptors.spld"),
                   "--method", "pairwise", "--export-matrix", str(matrix_path),
                   "--out", str(tmp_path / "scores.csv"))
        assert code == EXIT_OK
        matrix = load_descriptors(matrix_path)
        assert matrix.n_frames == 120  # one row per reference frame


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


class TestManifest:
    def test_identical_runs_differ_only_in_timestamps(self, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            run("match", "--ref", str(synth_dir / "ref_descriptors.spld"),
                "--query", str(synth_dir / "query_descriptors.spld"),
                "--method", "pairwise", "--out", str(out))
            with open(str(out) + ".manifest.json") as fh:
                outs.append(json.load(fh))
            assert outs[-1]["command"] == "match"
            assert outs[-1]["inputs"]
        for manifest in outs:
            manifest.pop("started_at")
            manifest.pop("finished_at")
        assert outs[0] == outs[1]
