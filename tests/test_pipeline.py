"""Degradation, patch extraction/reassembly, training-set assembly."""

import numpy as np
import pytest

import dealias as d
from dealias.autoencoder import _initial_weights
from dealias.core import SeededRng, read_tensor, write_tensor
from dealias.pipeline import (
    DegradationSpec,
    build_training_set,
    degrade,
    extract_patches,
    load_manifest,
    reassemble_patches,
    reconstruct_image,
)


def mri_spec(seed=0, fraction=0.5):
    return DegradationSpec(
        "mri", mask_kind="random", mask_params={"fraction": fraction}, seed=seed
    )


class TestDegradationSpec:
    def test_exactly_one_group(self):
        with pytest.raises(ValueError):
            DegradationSpec("mri")  # no mask params
        with pytest.raises(ValueError):
            DegradationSpec("ct")  # no spacing
        with pytest.raises(ValueError):
            DegradationSpec(
                "mri",
                mask_kind="random",
                mask_params={"fraction": 0.5},
                impulse_fraction=0.1,
            )

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DegradationSpec("impulse", impulse_fraction=1.5)

    # per mask kind: an out-of-range, a misnamed and an extra parameter
    @pytest.mark.parametrize("kind, params", [
        ("random", {"fraction": 5.0}),
        ("random", {"fraction": 0.0}),
        ("random", {"frac": 0.5}),
        ("random", {"fraction": 0.5, "decay": 1.0}),
        ("variable-density", {"decay": 0.0}),
        ("variable-density", {"decay": float("inf")}),
        ("variable-density", {"fraction": 1.0}),
        ("variable-density", {"decay": 1.0, "lines": 3}),
        ("radial", {"lines": 0}),
        ("radial", {"line": 8}),
        ("radial", {"lines": 8, "stride": 2}),
        ("periodic", {"stride": 0}),
        ("periodic", {"lines": 2}),
        ("periodic", {"stride": 2, "oops": 1}),
        ("radial", {"lines": 2.5}),
        ("periodic", {"stride": True}),
        ("checkerboard", {}),
    ])
    def test_mask_params_rejected_as_make_mask_rejects_them(self, kind, params):
        with pytest.raises(ValueError) as from_mask:
            d.make_mask(kind, 16, 16, params, SeededRng(0))
        with pytest.raises(ValueError) as from_spec:
            DegradationSpec("mri", mask_kind=kind, mask_params=params)
        assert str(from_spec.value) == str(from_mask.value)


class TestDegrade:
    def test_impulse_zero_fraction_is_identity(self):
        img = d.generate_phantom("disks", 64)
        out = degrade(img, DegradationSpec("impulse", impulse_fraction=0.0, seed=1))
        assert np.array_equal(out, img)

    def test_impulse_count_and_values(self):
        img = d.generate_phantom("disks", 64)
        out = degrade(img, DegradationSpec("impulse", impulse_fraction=0.15, seed=2))
        changed = out != img
        touched = np.abs(out - img) > 0
        # exactly round(0.15 * 64 * 64) = 614 pixels are forced to 0 or 1;
        # a forced pixel may coincide with its original value, so count the
        # set-to-extreme locations via a rerun comparison instead
        assert np.all(np.isin(out[touched], [0.0, 1.0]))
        assert changed.sum() <= 614
        rerun = degrade(img, DegradationSpec("impulse", impulse_fraction=0.15, seed=2))
        assert np.array_equal(out, rerun)

    def test_impulse_location_count_via_blank_image(self):
        img = np.full((64, 64), 0.5)
        out = degrade(img, DegradationSpec("impulse", impulse_fraction=0.15, seed=3))
        assert int((out != 0.5).sum()) == round(0.15 * 64 * 64)

    def test_mri_full_mask_identity(self):
        img = d.generate_phantom("disks", 64)
        out = degrade(img, mri_spec(fraction=1.0))
        assert np.abs(out - img).max() < 1e-10

    def test_mri_deterministic(self):
        img = d.generate_phantom("shepp-logan", 64)
        a = degrade(img, mri_spec(seed=5))
        b = degrade(img, mri_spec(seed=5))
        assert np.array_equal(a, b)

    def test_ct_path_shape_and_artifacts(self):
        img = d.generate_phantom("shepp-logan", 64)
        out = degrade(img, DegradationSpec("ct", ct_spacing_deg=5.0, seed=0))
        assert out.shape == img.shape
        assert d.nmse(out, img) > 0.0

    def test_out_of_range_image_rejected(self):
        with pytest.raises(ValueError):
            degrade(np.full((32, 32), 1.5), mri_spec())


class TestPatches:
    def test_128_gives_16_patches(self):
        grid = extract_patches(np.zeros((128, 128)), 32)
        assert grid.rows == grid.cols == 4
        assert grid.patches.shape == (16, 1024)

    def test_64_no_padding(self):
        grid = extract_patches(np.zeros((64, 64)), 32)
        assert (grid.pad_bottom, grid.pad_right) == (0, 0)
        assert grid.patches.shape == (4, 1024)

    def test_100_pads_to_128(self):
        img = SeededRng(1).uniform(100 * 100).reshape(100, 100)
        grid = extract_patches(img, 32)
        assert (grid.pad_bottom, grid.pad_right) == (28, 28)
        assert grid.patches.shape == (16, 1024)
        back = reassemble_patches(grid, img.shape)
        assert back.shape == (100, 100)
        assert np.array_equal(back, img)

    def test_roundtrip_both_strides(self):
        img = SeededRng(2).uniform(96 * 96).reshape(96, 96)
        for stride in (32, 16):
            grid = extract_patches(img, 32, stride)
            assert np.allclose(reassemble_patches(grid, img.shape), img)

    def test_row_major_flattening(self):
        img = np.arange(64.0).reshape(8, 8)
        grid = extract_patches(img, 4)
        assert np.array_equal(grid.patches[0], img[:4, :4].ravel())
        assert np.array_equal(grid.patches[1], img[:4, 4:].ravel())

    def test_partition_counts(self):
        img = np.ones((64, 64))
        non = extract_patches(img, 32, 32)
        assert non.patches.shape[0] * 1024 == 64 * 64
        over = extract_patches(img, 32, 16)
        cover = reassemble_patches(over.with_patches(over.patches), img.shape)
        assert np.allclose(cover, 1.0)  # averaging of identical values

    def test_overlap_constant_patches_give_constant(self):
        grid = extract_patches(np.full((64, 64), 0.4), 32, 16)
        out = reassemble_patches(grid, (64, 64))
        assert np.allclose(out, 0.4)

    def test_overlap_reduces_seam_gradients(self):
        # fixture: a model-free patch perturbation that creates block edges
        img = SeededRng(3).uniform(64 * 64).reshape(64, 64)
        for stride in (32, 16):
            grid = extract_patches(img, 32, stride)
            bumps = 0.2 * SeededRng(4).normal((grid.patches.shape[0], 1))
            grid = grid.with_patches(grid.patches + bumps)
            out = reassemble_patches(grid, img.shape)
            seam = np.abs(np.diff(out[:, 31:33], axis=1)).mean()
            if stride == 32:
                seam_non_overlap = seam
            else:
                assert seam <= seam_non_overlap

    def test_one_column_grid_patches_do_not_alias(self):
        grid = extract_patches(SeededRng(5).uniform(64 * 32).reshape(64, 32), 32, 16)
        assert grid.cols == 1
        grid.patches[0] = 0.0
        assert grid.patches[1].all()

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            extract_patches(np.zeros((64, 64)), 32, 8)

    def test_too_small_image(self):
        with pytest.raises(ValueError):
            extract_patches(np.zeros((8, 8)), 32)

    def test_metadata_mismatch_on_reassembly(self):
        grid = extract_patches(np.zeros((64, 64)), 32)
        with pytest.raises(ValueError):
            reassemble_patches(grid, (80, 80))


class TestManifest:
    def test_load_entries_and_comments(self, tmp_path):
        write_tensor(tmp_path / "a.rdt", np.zeros((16, 16)))
        write_tensor(tmp_path / "b.rdt", np.zeros((16, 16)))
        write_tensor(tmp_path / "b_deg.rdt", np.zeros((16, 16)))
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("# comment\na.rdt\nb.rdt b_deg.rdt\n")
        entries = load_manifest(manifest)
        assert len(entries) == 2
        assert entries[0][1] is None
        assert entries[1][1].endswith("b_deg.rdt")

    def test_missing_path_named(self, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("ghost.rdt\n")
        with pytest.raises(FileNotFoundError, match="ghost.rdt"):
            load_manifest(manifest)

    def test_empty_rejected(self, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("# nothing\n")
        with pytest.raises(ValueError):
            load_manifest(manifest)


class TestBuildTrainingSet:
    def _corpus(self, tmp_path, count=2):
        paths = []
        for i in range(count):
            img = d.random_phantom(128, SeededRng(100 + i))
            path = tmp_path / f"img{i}.rdt"
            write_tensor(path, img)
            paths.append((str(path), None))
        return paths

    def test_shapes_with_bias_row(self, tmp_path):
        entries = self._corpus(tmp_path, count=1)
        tset = build_training_set(entries, mri_spec(), 32)
        assert tset.x_in.shape == (1025, 16)
        assert tset.x_out.shape == (1024, 16)
        assert np.all(tset.x_in[-1] == 1.0)

    def test_impulse_zero_fraction_pairs_are_identical(self, tmp_path):
        entries = self._corpus(tmp_path)
        spec = DegradationSpec("impulse", impulse_fraction=0.0, seed=0)
        tset = build_training_set(entries, spec, 32)
        assert np.allclose(tset.inputs, tset.x_out, atol=1e-6)

    def test_deterministic(self, tmp_path):
        entries = self._corpus(tmp_path)
        a = build_training_set(entries, mri_spec(seed=3), 32)
        b = build_training_set(entries, mri_spec(seed=3), 32)
        assert np.array_equal(a.x_in, b.x_in)
        assert np.array_equal(a.x_out, b.x_out)

    def test_matrices_are_c_contiguous(self, tmp_path):
        entries = self._corpus(tmp_path)
        tset = build_training_set(entries, mri_spec(), 32)
        clean = [read_tensor(path) for path, _ in entries]
        targets = [extract_patches(img, 32).patches for img in clean]
        inputs = [extract_patches(degrade(img, mri_spec()), 32).patches for img in clean]
        assert tset.x_in.flags.c_contiguous and tset.x_out.flags.c_contiguous
        assert np.array_equal(tset.inputs, np.vstack(inputs).T)
        assert np.array_equal(tset.x_out, np.vstack(targets).T)

    def test_overlap_triples_samples(self, tmp_path):
        entries = self._corpus(tmp_path, count=1)
        non = build_training_set(entries, mri_spec(), 32)
        over = build_training_set(entries, mri_spec(), 32, overlap=True)
        assert non.count == 16
        assert over.count == 49


class TestReconstructImage:
    def test_zero_model_gives_zero_image(self):
        model = d.AutoencoderModel(np.zeros((8, 17)), np.zeros((16, 8)))
        out = reconstruct_image(model, SeededRng(5).uniform(64 * 64).reshape(64, 64))
        assert np.all(out == 0.0)

    def test_output_dims_match_input(self):
        model = _initial_weights(16, d.TrainConfig(hidden=8, seed=0))
        for size in (64, 100, 128, 256):
            img = SeededRng(size).uniform(size * size).reshape(size, size)
            for overlap in (False, True):
                out = reconstruct_image(model, img, overlap)
                assert out.shape == (size, size)

    def test_output_clamped(self):
        model = _initial_weights(16, d.TrainConfig(hidden=8, seed=1))
        model.w_dec = model.w_dec * 100.0
        out = reconstruct_image(model, SeededRng(6).uniform(64 * 64).reshape(64, 64))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_timing_report(self):
        model = _initial_weights(16, d.TrainConfig(hidden=8, seed=2))
        timing = {}
        reconstruct_image(model, np.zeros((64, 64)), False, timing)
        assert timing["patches"] == 256
        assert timing["seconds"] > 0.0
        assert timing["seconds_per_patch"] == pytest.approx(
            timing["seconds"] / 256
        )

    def test_identity_trained_model_reproduces_input(self):
        # train on clean = degraded pairs; reconstruction must stay close
        rng = SeededRng(7)
        patches = rng.uniform(64 * 200).reshape(64, 200)
        tset = d.TrainingSet.from_arrays(patches, patches)
        config = d.TrainConfig(
            hidden=48,
            lam=20.0,
            mu=1.0,
            max_iter=80,
            rel_tol=0.0,
            seed=0,
            bregman_update="additive",
            latent_update="anchored",
            ridge_eps=1e-2,
        )
        model, _ = d.train_robust(tset, config)
        img = SeededRng(8).uniform(32 * 32).reshape(32, 32)
        out = reconstruct_image(model, img)
        assert d.nmse(out, img) < 0.35

    def test_non_square_model_dim_rejected(self):
        model = d.AutoencoderModel(np.zeros((4, 13)), np.zeros((12, 4)))
        with pytest.raises(ValueError):
            reconstruct_image(model, np.zeros((64, 64)))
