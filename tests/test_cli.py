"""Command-line dispatch, exit codes, config handling, benchmark harness."""

import argparse

import numpy as np
import pytest

import dealias as d
from dealias import cli
from dealias.cli import command_dispatch
from dealias.config import (
    DEFAULTS,
    config_from_report_header,
    degradation_spec,
    parse_config_lines,
    resolve_config,
    train_config,
)
from dealias.core import NumericFailure, read_tensor, write_tensor


def run(*argv):
    return command_dispatch(list(argv))


class TestDispatch:
    def test_phantom_roundtrip(self, tmp_path):
        out = tmp_path / "p.rdt"
        assert run("phantom", "--kind", "shepp-logan", "--size", "128",
                   "--out", str(out)) == 0
        tensor = read_tensor(out)
        assert tensor.shape == (128, 128)

    def test_phantom_with_pgm(self, tmp_path):
        assert run("phantom", "--size", "64", "--out", str(tmp_path / "p.rdt"),
                   "--pgm", str(tmp_path / "p.pgm")) == 0
        assert (tmp_path / "p.pgm").read_bytes().startswith(b"P5\n")

    def test_unknown_flag_usage_error(self, tmp_path, capsys):
        assert run("phantom", "--bogus", "1", "--out", str(tmp_path / "p.rdt")) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self, capsys):
        assert run("transmogrify") == 1

    def test_bad_choice_usage_error(self, tmp_path, capsys):
        assert run("degrade", "--image", str(tmp_path / "i.rdt"),
                   "--out", str(tmp_path / "o.rdt"), "--modality", "bogus") == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_metrics_mismatched_dims_exit_2(self, tmp_path, capsys):
        write_tensor(tmp_path / "a.rdt", np.zeros((32, 32)))
        write_tensor(tmp_path / "b.rdt", np.zeros((64, 64)))
        assert run("metrics", "--a", str(tmp_path / "a.rdt"),
                   "--b", str(tmp_path / "b.rdt")) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_happy_path(self, tmp_path, capsys):
        img = d.generate_phantom("disks", 32)
        write_tensor(tmp_path / "a.rdt", img)
        write_tensor(tmp_path / "b.rdt", img)
        out = tmp_path / "m.csv"
        assert run("metrics", "--a", str(tmp_path / "a.rdt"),
                   "--b", str(tmp_path / "b.rdt"), "--out", str(out)) == 0
        assert "nmse=0.0" in capsys.readouterr().out
        assert out.read_text().startswith("nmse,psnr,ssim")

    def test_missing_file_exit_2(self, tmp_path):
        assert run("metrics", "--a", str(tmp_path / "no.rdt"),
                   "--b", str(tmp_path / "no.rdt")) == 2

    def test_degrade_and_diff(self, tmp_path):
        img = tmp_path / "img.rdt"
        deg = tmp_path / "deg.rdt"
        run("phantom", "--size", "64", "--out", str(img))
        assert run("degrade", "--image", str(img), "--out", str(deg),
                   "--modality", "mri", "--mask-kind", "random",
                   "--mask-fraction", "0.5", "--seed", "3",
                   "--save-mask", str(tmp_path / "mask.rdt")) == 0
        assert read_tensor(deg).shape == (64, 64)
        mask = read_tensor(tmp_path / "mask.rdt")
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert run("diff", "--a", str(img), "--b", str(deg),
                   "--out", str(tmp_path / "d.pgm")) == 0
        assert (tmp_path / "d.pgm").exists()

    def test_save_mask_off_mri_exits_2_before_writing(self, tmp_path, capsys):
        img = tmp_path / "img.rdt"
        out = tmp_path / "o.rdt"
        run("phantom", "--size", "64", "--out", str(img))
        assert run("degrade", "--image", str(img), "--out", str(out), "--modality", "ct",
                   "--save-mask", str(tmp_path / "m.rdt")) == 2
        assert "--save-mask" in capsys.readouterr().err
        assert not out.exists()

    def test_cs_recon(self, tmp_path):
        img = tmp_path / "img.rdt"
        run("phantom", "--size", "64", "--out", str(img))
        out = tmp_path / "cs.rdt"
        assert run("cs-recon", "--image", str(img), "--out", str(out),
                   "--mask-fraction", "0.6", "--iters", "20",
                   "--levels", "3") == 0
        assert read_tensor(out).shape == (64, 64)

    def test_cs_recon_without_iterations_exits_2(self, tmp_path, capsys):
        img = tmp_path / "img.rdt"
        run("phantom", "--size", "64", "--out", str(img))
        out = tmp_path / "cs.rdt"
        assert run("cs-recon", "--image", str(img), "--out", str(out), "--iters", "0") == 2
        assert "max_iter" in capsys.readouterr().err
        assert not out.exists()

    def test_train_and_reconstruct(self, tmp_path):
        paths = []
        for i in range(2):
            img = d.random_phantom(64, d.SeededRng(50 + i))
            path = tmp_path / f"img{i}.rdt"
            write_tensor(path, img)
            paths.append(path.name)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("".join(p + "\n" for p in paths))
        model_dir = tmp_path / "model"
        assert run("train", "--manifest", str(manifest), "--out", str(model_dir),
                   "--method", "robust", "--hidden", "8", "--max-iter", "3",
                   "--impulse-fraction", "0.1", "--modality", "impulse") == 0
        out = tmp_path / "rec.rdt"
        assert run("reconstruct", "--model", str(model_dir),
                   "--image", str(tmp_path / "img0.rdt"), "--out", str(out)) == 0
        rec = read_tensor(out)
        assert rec.shape == (64, 64)
        assert rec.min() >= 0.0 and rec.max() <= 1.0

    def test_reconstruct_other_format_version_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        d.save_model(d.AutoencoderModel(np.zeros((4, 1025)), np.zeros((1024, 4))), model_dir)
        manifest = model_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("format_version=1", "format_version=99"))
        img = tmp_path / "img.rdt"
        run("phantom", "--size", "64", "--out", str(img))
        out = tmp_path / "rec.rdt"
        assert run("reconstruct", "--model", str(model_dir),
                   "--image", str(img), "--out", str(out)) == 2
        assert "format_version" in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    def test_defaults_resolve(self):
        config = resolve_config()
        assert config["hidden"] == DEFAULTS["hidden"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_config({"fraction_of_doom": "1"})

    def test_type_coercion(self):
        config = resolve_config({"hidden": "64", "lambda": "2.5", "overlap": "true"})
        assert config["hidden"] == 64
        assert config["lambda"] == 2.5
        assert config["overlap"] is True

    def test_canonical_text_roundtrip(self):
        config = resolve_config({"hidden": "64"})
        from dealias.config import parse_config_lines

        reparsed = resolve_config(parse_config_lines(config.canonical_text().splitlines()))
        assert reparsed.values == config.values

    @pytest.mark.parametrize("value", ["runs/a#1", "runs/a\rb", "runs/a\nb"])
    def test_value_that_would_not_survive_the_header_rejected(self, value):
        # report headers are '#'-commented key=value lines
        with pytest.raises(ValueError, match="corpus_dir"):
            resolve_config(overrides={"corpus_dir": value})

    def test_numpy_scalar_header_reads_back(self):
        text = resolve_config(overrides={"lambda": np.float64(20.0)}).canonical_text()
        assert "lambda=20.0\n" in text
        assert parse_config_lines(text.splitlines())["lambda"] == 20.0

    @pytest.mark.parametrize("key, value", [("hidden", 2.5), ("corpus_count", True)])
    def test_off_type_value_rejected_naming_key(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            resolve_config(overrides={key: value})

    def test_int_for_float_key_header_is_fixed_point(self):
        text = resolve_config(overrides={"lambda": 20}).canonical_text()
        assert "lambda=20.0\n" in text
        assert resolve_config(parse_config_lines(text.splitlines())).canonical_text() == text

    def test_non_string_enumerated_value_rejected(self):
        with pytest.raises(ValueError, match="'mask_kind': expected one of"):
            resolve_config(overrides={"mask_kind": 5})

    def test_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=32\nlambda=3.0\n")
        from dealias.config import load_config_file

        config = resolve_config(load_config_file(cfg), {"hidden": "16"})
        assert config["hidden"] == 16
        assert config["lambda"] == 3.0


DEGRADATION_FLAGS = {
    "--modality": "modality",
    "--mask-kind": "mask_kind",
    "--mask-fraction": "mask_fraction",
    "--mask-decay": "mask_decay",
    "--mask-lines": "mask_lines",
    "--mask-stride": "mask_stride",
    "--ct-spacing": "ct_spacing_deg",
    "--impulse-fraction": "impulse_fraction",
    "--seed": "degrade_seed",
}
# subcommand -> (required arguments, flags not backed by config, flag -> key)
SUBCOMMANDS = {
    "degrade": (
        ["--image", "i.rdt", "--out", "o.rdt"],
        {"-h", "--help", "--image", "--out", "--save-mask"},
        DEGRADATION_FLAGS,
    ),
    "train": (
        ["--manifest", "m.txt", "--out", "model"],
        {"-h", "--help", "--manifest", "--out", "--method"},
        {
            "--hidden": "hidden", "--lambda": "lambda", "--mu": "mu",
            "--max-iter": "max_iter", "--rel-tol": "rel_tol",
            "--ridge-eps": "ridge_eps", "--bregman": "bregman_update",
            "--latent": "latent_update", "--train-seed": "train_seed",
            "--learning-rate": "l2_learning_rate", "--epochs": "l2_epochs",
            "--patch-size": "patch_size", "--overlap": "overlap",
            "--no-overlap": "overlap", **DEGRADATION_FLAGS,
        },
    ),
    "reconstruct": (
        ["--model", "m", "--image", "i.rdt", "--out", "o.rdt"],
        {"-h", "--help", "--model", "--image", "--out"},
        {"--overlap": "overlap", "--no-overlap": "overlap"},
    ),
    "cs-recon": (
        ["--image", "i.rdt", "--out", "o.rdt"],
        {"-h", "--help", "--image", "--out"},
        {
            "--lambda": "ista_lambda", "--iters": "ista_iters", "--tol": "ista_tol",
            "--transform": "transform", "--levels": "wavelet_levels",
            **DEGRADATION_FLAGS,
        },
    ),
}


class TestSingleConfigSurface:
    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_flag_defaults_are_config_defaults(self, command):
        required, plain, keyed = SUBCOMMANDS[command]
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = {
            option: action
            for action in sub.choices[command]._actions
            for option in action.option_strings
        }
        assert set(actions) == plain | set(keyed)
        args = parser.parse_args([command, *required])
        resolved = resolve_config()
        for flag, key in keyed.items():
            parsed = getattr(args, actions[flag].dest)
            assert parsed == resolved[key], flag
            assert type(parsed) is type(resolved[key]), flag

    @pytest.mark.parametrize("method", ["robust", "l2"])
    def test_train_defaults_build_config_objects(self, method, monkeypatch):
        seen = {}

        def fake_build(manifest, spec, patch_size, overlap):
            seen.update(spec=spec, patch_size=patch_size, overlap=overlap)
            return "tset"

        def fake_train(tset, config):
            seen["config"] = config
            raise NumericFailure("stop after capturing the config")

        monkeypatch.setattr(cli, "build_training_set", fake_build)
        monkeypatch.setattr(cli, "train_robust", fake_train)
        monkeypatch.setattr(cli, "train_l2_baseline", fake_train)
        assert run("train", "--manifest", "m.txt", "--out", "model",
                   "--method", method) == 3
        resolved = resolve_config()
        assert seen["config"] == train_config(resolved)
        assert seen["spec"] == degradation_spec(resolved)
        assert seen["patch_size"] == DEFAULTS["patch_size"]
        assert seen["overlap"] is DEFAULTS["overlap"]

    def test_train_ridge_eps_reaches_train_config(self, monkeypatch):
        seen = {}

        def fake_train(tset, config):
            seen["config"] = config
            raise NumericFailure("stop after capturing the config")

        monkeypatch.setattr(cli, "build_training_set", lambda *args: "tset")
        monkeypatch.setattr(cli, "train_robust", fake_train)
        assert run("train", "--manifest", "m.txt", "--out", "model",
                   "--ridge-eps", "1e-2") == 3
        assert seen["config"].ridge_eps == 1e-2

    @pytest.mark.parametrize("flags, overlap", [
        ([], False), (["--overlap"], True), (["--no-overlap"], False),
        (["--overlap", "--no-overlap"], False),
    ])
    def test_train_overlap_reaches_training_grid(self, flags, overlap, monkeypatch):
        seen = []

        def fake_build(manifest, spec, patch_size, half_stride):
            seen.append(half_stride)
            raise NumericFailure("stop after capturing the grid")

        monkeypatch.setattr(cli, "build_training_set", fake_build)
        assert run("train", "--manifest", "m.txt", "--out", "model", *flags) == 3
        assert seen == [overlap]

    def test_train_overlap_takes_no_value(self, monkeypatch, capsys):
        # a boolean flag is --overlap / --no-overlap; "--overlap false" is a
        # usage error, not a truthy string
        monkeypatch.setattr(cli, "build_training_set", pytest.fail)
        assert run("train", "--manifest", "m.txt", "--out", "model",
                   "--overlap", "false") == 1
        assert "unrecognized arguments: false" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, expected", [
        ({"mask_kind": "random", "mask_fraction": 0.25, "degrade_seed": 4},
         d.DegradationSpec("mri", mask_kind="random",
                           mask_params={"fraction": 0.25}, seed=4)),
        ({"mask_kind": "variable-density", "mask_decay": 2.0},
         d.DegradationSpec("mri", mask_kind="variable-density",
                           mask_params={"decay": 2.0})),
        ({"mask_kind": "radial", "mask_lines": 12},
         d.DegradationSpec("mri", mask_kind="radial", mask_params={"lines": 12})),
        ({"mask_kind": "periodic", "mask_stride": 3},
         d.DegradationSpec("mri", mask_kind="periodic", mask_params={"stride": 3})),
        ({"modality": "ct", "ct_spacing_deg": 10.0, "degrade_seed": 2},
         d.DegradationSpec("ct", ct_spacing_deg=10.0, seed=2)),
        ({"modality": "impulse", "impulse_fraction": 0.3},
         d.DegradationSpec("impulse", impulse_fraction=0.3)),
    ])
    def test_degradation_spec(self, overrides, expected):
        assert degradation_spec(resolve_config(overrides=overrides)) == expected

    @pytest.mark.parametrize("key", ["modality", "mask_kind", "transform"])
    def test_enumerated_key_rejects_unknown_value(self, key):
        with pytest.raises(ValueError, match="expected one of"):
            resolve_config(overrides={key: "bogus"})


def bench_args(tmp_path, outdir):
    return [
        "bench", "--outdir", str(outdir),
        "--set", "corpus_count=6", "--set", "corpus_size=64",
        "--set", "test_count=2", "--set", "hidden=8",
        "--set", "max_iter=3", "--set", "rel_tol=0",
        "--set", "ista_iters=8", "--set", "timing_reps=1",
        "--set", "timing_ista_iters=8", "--set", "l2_epochs=3",
        "--set", "l2_learning_rate=1e-7", "--set", "wavelet_levels=3",
        "--set", "bregman_update=additive", "--set", "latent_update=anchored",
    ]


class TestBench:
    DETERMINISTIC = ["summary.csv", "raw.csv", "robust-ae.csv", "l2-ae.csv", "ista.csv"]

    def test_end_to_end_outputs_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert command_dispatch(bench_args(tmp_path, out1)) == 0
        assert command_dispatch(bench_args(tmp_path, out2)) == 0
        for name in self.DETERMINISTIC:
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
        # at rel_tol=0 the robust trainer runs all max_iter=3 cycles
        rows = (out1 / "timing.csv").read_text().splitlines()
        timing = dict(row.split(",") for row in rows if not row.startswith("#"))
        assert timing["train_robust_cycles"] == "3"

    def test_rerun_from_embedded_header(self, tmp_path):
        out1 = tmp_path / "run1"
        assert command_dispatch(bench_args(tmp_path, out1)) == 0
        config = config_from_report_header(out1 / "summary.csv")
        from dealias.bench import run_benchmark

        out3 = tmp_path / "run3"
        run_benchmark(config, out3)
        for name in self.DETERMINISTIC:
            assert (out1 / name).read_bytes() == (out3 / name).read_bytes()

    def test_split_disjointness_enforced(self, tmp_path):
        img = tmp_path / "only.rdt"
        write_tensor(img, d.random_phantom(64, d.SeededRng(1)))
        manifest = tmp_path / "m.txt"
        manifest.write_text("only.rdt\n")
        from dealias.bench import run_benchmark

        config = resolve_config(
            {"train_manifest": str(manifest), "test_manifest": str(manifest)}
        )
        with pytest.raises(ValueError, match="share images"):
            run_benchmark(config, tmp_path / "out")

    @pytest.mark.parametrize("settings", [
        ["wavelet_levels=0"],
        ["patch_size=3"],
        ["patch_size=5", "overlap=true"],
        ["ista_lambda=-1"],
        ["timing_reps=0"],
        ["mask_fraction=5"],
        ["mask_kind=radial", "mask_lines=0"],
        ["lambda=nan"],
        ["rel_tol=nan"],
        ["ista_lambda=nan"],
        ["test_count=0"],
        ["corpus_count=1"],
        ["corpus_size=32", "wavelet_levels=6"],
        ["corpus_size=48"],
        ["train_overlap=true"],
        ["corpus_size=8"],
        ["patch_size=128"],
        ["ista_iters=-3"],
        ["timing_ista_iters=-1"],
    ], ids=" ".join)
    def test_bad_setting_fails_before_any_work(self, tmp_path, settings):
        out = tmp_path / "out"
        argv = bench_args(tmp_path, out)
        for setting in settings:
            argv += ["--set", setting]
        assert command_dispatch(argv) == 2
        assert not out.exists()

    def test_manifest_image_off_the_fft_grid_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        # 96 x 96 MRI images with their degraded copies given: ISTA's FFT
        # needs powers of two, which is checked before training
        from dealias import bench

        monkeypatch.setattr(bench, "build_training_set", pytest.fail)
        lines = []
        for i in range(4):
            image = d.random_phantom(96, d.SeededRng(i))
            write_tensor(tmp_path / f"c{i}.rdt", image)
            write_tensor(tmp_path / f"g{i}.rdt", image)
            lines.append(f"c{i}.rdt g{i}.rdt\n")
        (tmp_path / "train.txt").write_text("".join(lines[:3]))
        (tmp_path / "test.txt").write_text(lines[3])
        out = tmp_path / "out"
        argv = bench_args(tmp_path, out) + [
            "--set", f"train_manifest={tmp_path / 'train.txt'}",
            "--set", f"test_manifest={tmp_path / 'test.txt'}",
        ]
        assert command_dispatch(argv) == 2
        assert "powers of two" in capsys.readouterr().err
        assert not out.exists()

    def test_comment_character_in_setting_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = bench_args(tmp_path, out) + ["--set", "corpus_dir=a#1"]
        assert command_dispatch(argv) == 2
        assert "corpus_dir" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["train_manifest", "test_manifest"])
    def test_half_specified_manifest_pair_rejected(self, tmp_path, key, capsys):
        manifest = tmp_path / "m.txt"
        manifest.write_text("only.rdt\n")
        out = tmp_path / "out"
        argv = bench_args(tmp_path, out) + ["--set", f"{key}={manifest}"]
        assert command_dispatch(argv) == 2
        assert "train_manifest and test_manifest" in capsys.readouterr().err
        assert not out.exists()

    def test_l2_divergence_exits_3_before_robust_training(self, tmp_path, monkeypatch, capsys):
        from dealias import bench

        robust_calls = []
        monkeypatch.setattr(bench, "train_robust", lambda *args: robust_calls.append(args))
        argv = bench_args(tmp_path, tmp_path / "out") + [
            "--set", "l2_learning_rate=10", "--set", "l2_epochs=50",
        ]
        assert command_dispatch(argv) == 3
        assert "l2 training diverged" in capsys.readouterr().err
        assert robust_calls == []

    @pytest.mark.parametrize("overlap", [False, True])
    def test_overlap_sets_training_grid(self, tmp_path, monkeypatch, overlap):
        from dealias import bench

        seen = []

        def fake_build(entries, spec, patch_size, overlap):
            seen.append(overlap)
            raise NumericFailure("stop after capturing the grid")

        monkeypatch.setattr(bench, "build_training_set", fake_build)
        argv = bench_args(tmp_path, tmp_path / "out") + ["--set", f"overlap={overlap}"]
        assert command_dispatch(argv) == 3
        assert seen == [overlap]

    def test_methods_in_summary(self, tmp_path):
        out = tmp_path / "run"
        assert command_dispatch(bench_args(tmp_path, out)) == 0
        text = (out / "summary.csv").read_text()
        for method in ("raw", "robust-ae", "l2-ae", "ista"):
            assert f"\n{method}," in text
        # reproducibility header present
        assert text.startswith("# ")
        assert "# hidden=8\n" in text

    @pytest.mark.parametrize("modality", ["ct", "impulse"])
    def test_bench_off_mri_scores_three_methods(self, tmp_path, modality):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        argv = bench_args(tmp_path, out1) + ["--set", f"modality={modality}"]
        assert command_dispatch(argv) == 0
        methods = ["raw", "robust-ae", "l2-ae"]
        assert sorted(p.name for p in out1.glob("*.csv")) == sorted(
            [f"{m}.csv" for m in methods] + ["summary.csv", "timing.csv"]
        )

        def first_column(name):
            lines = (out1 / name).read_text().splitlines()
            return [line.split(",")[0] for line in lines if not line.startswith("#")][1:]

        assert first_column("summary.csv") == methods
        assert not [label for label in first_column("timing.csv") if label.startswith("ista")]
        from dealias.bench import run_benchmark

        run_benchmark(config_from_report_header(out1 / "summary.csv"), out2)
        for name in ["summary.csv"] + [f"{m}.csv" for m in methods]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_training_arrays_released_before_scoring(self, tmp_path, monkeypatch):
        import weakref

        from dealias import bench

        refs = {}

        def keep_ref(name, fn):
            def wrapped(*args):
                result = fn(*args)
                refs[name] = weakref.ref(result if name == "tset" else result[1])
                return result
            return wrapped

        monkeypatch.setattr(
            bench, "build_training_set", keep_ref("tset", bench.build_training_set)
        )
        monkeypatch.setattr(bench, "train_robust", keep_ref("state", bench.train_robust))
        alive_at_scoring = []
        reconstruct = bench.reconstruct_image

        def checked_reconstruct(*args):
            if not alive_at_scoring:
                alive_at_scoring.append({k: ref() is not None for k, ref in refs.items()})
            return reconstruct(*args)

        monkeypatch.setattr(bench, "reconstruct_image", checked_reconstruct)
        assert command_dispatch(bench_args(tmp_path, tmp_path / "out")) == 0
        assert alive_at_scoring == [{"tset": False, "state": False}]
