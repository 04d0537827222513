"""Acquisition transforms: FFT, masks, zero-filling, radon/FBP, wavelets."""

import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from dealias import transforms
from dealias.core import SeededRng, generate_phantom, read_tensor
from dealias.metrics import nmse
from dealias.transforms import (
    ProjectionSet,
    SamplingMask,
    SparsifyingTransform,
    _PROJECTOR_MAX_BYTES,
    _projector_bytes,
    backproject,
    detector_bin_count,
    fbp_reconstruct,
    fft2,
    make_mask,
    radon_forward,
    save_mask,
    sparsify,
    zero_fill_invert,
)

# fraction of a 128x128 grid covered by 24 rasterized radial lines;
# deterministic construction, frozen as a regression vector
RADIAL_24_128_SELECTED = 3464

# zero-filled inversion of the 128 shepp-logan under the seed-7 half mask;
# frozen regression value (tolerance covers FFT rounding across platforms)
ZERO_FILL_NMSE_SEED7 = 0.6486758829628025


class TestFft2:
    def test_delta_spectrum(self):
        img = np.zeros((4, 4))
        img[0, 0] = 1.0
        spec = fft2(img, "forward")
        assert np.allclose(spec, 0.25)

    def test_constant_spectrum(self):
        spec = fft2(np.full((8, 8), 3.0), "forward")
        assert spec[0, 0] == pytest.approx(3.0 * 8)
        spec[0, 0] = 0
        assert np.abs(spec).max() < 1e-12

    def test_roundtrip(self):
        x = SeededRng(1).normal((64, 64))
        back = fft2(fft2(x, "forward"), "inverse")
        assert np.abs(back - x).max() < 1e-12

    def test_unitary_adjoint(self):
        rng = SeededRng(2)
        u = rng.normal((16, 16))
        v = rng.normal((16, 16)) + 1j * rng.normal((16, 16))
        lhs = np.vdot(v, fft2(u, "forward"))
        rhs = np.vdot(fft2(v, "inverse"), u)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft2(np.zeros((12, 12)), "forward")


class TestMasks:
    def test_periodic_rows(self):
        mask = make_mask("periodic", 64, 64, {"stride": 2})
        rows = np.flatnonzero(mask.selected.any(axis=1))
        assert rows.tolist() == list(range(0, 64, 2))
        assert np.all(mask.selected[rows])
        assert mask.fraction == 0.5

    def test_random_fraction_concentration_and_determinism(self):
        mask = make_mask("random", 128, 128, {"fraction": 0.5}, SeededRng(7))
        again = make_mask("random", 128, 128, {"fraction": 0.5}, SeededRng(7))
        assert 0.48 <= mask.fraction <= 0.52
        assert np.array_equal(mask.selected, again.selected)

    def test_radial_frozen_count(self):
        mask = make_mask("radial", 128, 128, {"lines": 24})
        assert int(mask.selected.sum()) == RADIAL_24_128_SELECTED
        assert mask.fraction == RADIAL_24_128_SELECTED / 16384

    def test_variable_density_favors_low_frequencies(self):
        mask = make_mask("variable-density", 128, 128, {"decay": 1.0}, SeededRng(3))
        centered = np.fft.fftshift(mask.selected)
        inner = centered[56:72, 56:72].mean()
        outer = centered[:16, :16].mean()
        assert inner > outer

    def test_dc_always_selected(self):
        for kind, params in [
            ("random", {"fraction": 0.01}),
            ("variable-density", {"decay": 3.0}),
            ("radial", {"lines": 1}),
            ("periodic", {"stride": 63}),
        ]:
            mask = make_mask(kind, 64, 64, params, SeededRng(0))
            assert mask.selected[0, 0]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            make_mask("random", 64, 64, {"fraction": 0.0}, SeededRng(0))
        with pytest.raises(ValueError):
            make_mask("radial", 64, 64, {"lines": 0})
        with pytest.raises(ValueError):
            make_mask("random", 64, 64, {"fraction": 0.5, "oops": 1}, SeededRng(0))
        with pytest.raises(ValueError):
            make_mask("checkerboard", 64, 64, {})

    def test_mask_requires_dc(self):
        grid = np.ones((4, 4), dtype=bool)
        grid[0, 0] = False
        with pytest.raises(ValueError):
            SamplingMask(kind="custom", selected=grid)

    def test_mask_roundtrip(self, tmp_path):
        mask = make_mask("radial", 64, 64, {"lines": 8})
        save_mask(tmp_path / "m.rdt", mask)
        loaded = read_tensor(tmp_path / "m.rdt") > 0.5
        assert np.array_equal(loaded, mask.selected)


class TestZeroFill:
    def test_full_mask_identity(self):
        img = generate_phantom("shepp-logan", 64)
        mask = SamplingMask("custom", np.ones((64, 64), dtype=bool))
        out = zero_fill_invert(fft2(img, "forward"), mask)
        assert np.abs(out - img).max() < 1e-10

    def test_zero_image_stays_zero(self):
        sel = np.zeros((32, 32), dtype=bool)
        sel[0, 0] = True
        mask = SamplingMask("custom", sel)
        out = zero_fill_invert(np.zeros((32, 32), dtype=complex), mask)
        assert np.all(out == 0.0)

    def test_half_mask_regression(self):
        img = generate_phantom("shepp-logan", 128)
        mask = make_mask("random", 128, 128, {"fraction": 0.5}, SeededRng(7))
        out = zero_fill_invert(fft2(img, "forward"), mask)
        value = nmse(out, img)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(ZERO_FILL_NMSE_SEED7, abs=1e-6)

    def test_dim_mismatch(self):
        mask = make_mask("periodic", 32, 32, {"stride": 2})
        with pytest.raises(ValueError):
            zero_fill_invert(np.zeros((64, 64), dtype=complex), mask)


class TestRadon:
    def test_rotational_symmetry_of_disk(self):
        size = 64
        y, x = np.mgrid[:size, :size]
        disk = (((x - 31.5) ** 2 + (y - 31.5) ** 2) <= 20 ** 2).astype(float)
        proj = radon_forward(disk, np.array([0.0, 90.0]))
        assert np.abs(proj.sinogram[0] - proj.sinogram[1]).max() < 1e-6

    def test_mass_conservation(self):
        img = generate_phantom("shepp-logan", 64)
        proj = radon_forward(img, np.array([0.0, 33.7, 90.0, 141.0]))
        total = img.sum()
        assert np.allclose(proj.sinogram.sum(axis=1), total, rtol=0.01)

    def test_central_chord_length(self):
        size = 128
        y, x = np.mgrid[:size, :size]
        r = 40.0
        disk = (((x - 63.5) ** 2 + (y - 63.5) ** 2) <= r ** 2).astype(float)
        proj = radon_forward(disk, np.array([0.0]))
        center_bin = proj.detector_bins // 2
        assert proj.sinogram[0, center_bin] == pytest.approx(2 * r, rel=0.02)

    def test_adjoint_identity(self):
        rng = SeededRng(4)
        size = 32
        angles = np.arange(0.0, 180.0, 7.5)
        u = rng.normal((size, size))
        au = radon_forward(u, angles)
        v = rng.normal(au.sinogram.shape)
        atv = backproject(ProjectionSet(angles, v), size)
        lhs = float((au.sinogram * v).sum())
        rhs = float((u * atv).sum())
        assert abs(lhs - rhs) <= 1e-3 * abs(lhs)

    @staticmethod
    def _cache_state():
        cache = transforms._PROJECTOR
        return cache.key, cache.uses, cache.matrix

    def test_non_square_rejected(self):
        before = self._cache_state()
        with pytest.raises(ValueError):
            radon_forward(np.zeros((32, 64)), np.array([0.0]))
        assert self._cache_state() == before

    @pytest.mark.parametrize("angles", [
        [], [[0.0, 90.0]], [0.0, np.nan], [0.0, 190.0], [-1.0, 0.0], [90.0, 0.0], [0.0, 0.0],
    ])
    def test_angle_validation(self, angles):
        # bad geometry is rejected before it is counted, built or cached
        before = self._cache_state()
        with pytest.raises(ValueError):
            radon_forward(np.zeros((32, 32)), np.array(angles))
        with pytest.raises(ValueError):
            ProjectionSet(np.array(angles), np.zeros((np.size(angles), detector_bin_count(32))))
        assert self._cache_state() == before

    def test_projector_cached_by_angle_values(self):
        img = np.zeros((16, 16))
        img[3, 11] = 1.0
        with mock.patch.object(transforms, "_PROJECTOR", transforms._ProjectorCache()):
            first = [radon_forward(img, np.array([0.0, 45.0])) for _ in range(3)]
            built = transforms._PROJECTOR.matrix
            assert built is not None
            # same count, other angles: a cache keyed by count would repeat
            # `first` and keep its matrix
            second = [radon_forward(img, np.array([0.0, 90.0])) for _ in range(3)]
            assert not np.array_equal(first[-1].sinogram[1], second[-1].sinogram[1])
            assert transforms._PROJECTOR.matrix is not built
            again = radon_forward(img, np.array([0.0, 90.0]))
            backproject(again, 16)
            # a repeat use is a hit: the built matrix is reused, not rebuilt
            assert transforms._PROJECTOR.uses == 5
            assert transforms._PROJECTOR.matrix is not None
            matrix = transforms._PROJECTOR.matrix
            radon_forward(img, np.array([0.0, 90.0]))
            assert transforms._PROJECTOR.matrix is matrix
        assert np.array_equal(again.sinogram, second[0].sinogram)

    def test_threads_never_share_a_geometry_projector(self):
        # three threads reuse one geometry, so its projector gets built,
        # while a fourth uses another of equal size and view count: no call
        # may get a projector built for the other geometry
        img = generate_phantom("shepp-logan", 96)
        geometries = [np.arange(0.0, 180.0, 10.0), np.arange(5.0, 180.0, 10.0)]
        expected = [radon_forward(img, angles).sinogram for angles in geometries]
        wrong = []

        def work(which):
            for _ in range(30):
                if not np.array_equal(radon_forward(img, geometries[which]).sinogram, expected[which]):
                    wrong.append(which)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(6):
                with mock.patch.object(transforms, "_PROJECTOR", transforms._ProjectorCache()):
                    threads = [threading.Thread(target=work, args=(i // 3,)) for i in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_one_shot_geometry_builds_no_matrix(self):
        # one radon and one backprojection, as in one `dealias degrade`,
        # run angle by angle: the matrix is built only on a third use
        img = generate_phantom("shepp-logan", 32)
        with mock.patch.object(transforms, "_PROJECTOR", transforms._ProjectorCache()):
            fbp_reconstruct(radon_forward(img, np.arange(0.0, 180.0, 5.0)), 32)
            assert transforms._PROJECTOR.uses == 2
            assert transforms._PROJECTOR.matrix is None

    def test_over_budget_geometry_is_applied_by_angle(self):
        # 0.5 degree spacing at 128 x 128 would need a 142 MB matrix
        size, angles = 128, np.arange(0.0, 180.0, 0.5)
        assert _projector_bytes(size, angles.size) > _PROJECTOR_MAX_BYTES
        img = generate_phantom("shepp-logan", size)
        with mock.patch.object(transforms, "_PROJECTOR", transforms._ProjectorCache()):
            tracemalloc.start()
            try:
                for _ in range(3):
                    proj = radon_forward(img, angles)
                backproject(proj, size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert transforms._PROJECTOR.matrix is None
        # per-angle work needs O(size**2) memory whatever the view count
        assert peak < _projector_bytes(size, angles.size) / 10


class TestFbp:
    # dense-view reconstruction error on the 128 shepp-logan, frozen once
    T_DENSE = 0.30

    def test_dense_view_quality(self):
        img = generate_phantom("shepp-logan", 128)
        angles = np.arange(0.0, 180.0, 0.5)
        rec = fbp_reconstruct(radon_forward(img, angles), 128)
        assert nmse(rec, img) < self.T_DENSE

    def test_monotone_degradation(self):
        img = generate_phantom("shepp-logan", 128)
        errors = {}
        for spacing in (0.5, 1.0, 5.0):
            angles = np.arange(0.0, 180.0, spacing)
            rec = fbp_reconstruct(radon_forward(img, angles), 128)
            errors[spacing] = nmse(rec, img)
        assert errors[5.0] > errors[1.0] > errors[0.5]

    def test_zero_sinogram(self):
        bins = detector_bin_count(32)
        proj = ProjectionSet(np.arange(0.0, 180.0, 10.0), np.zeros((18, bins)))
        assert np.all(fbp_reconstruct(proj, 32) == 0.0)

    def test_linearity(self):
        rng = SeededRng(5)
        angles = np.arange(0.0, 180.0, 15.0)
        bins = detector_bin_count(24)
        s1 = rng.normal((angles.size, bins))
        s2 = rng.normal((angles.size, bins))
        a, b = 1.7, -0.4
        combined = fbp_reconstruct(ProjectionSet(angles, a * s1 + b * s2), 24)
        parts = a * fbp_reconstruct(ProjectionSet(angles, s1), 24) + b * fbp_reconstruct(
            ProjectionSet(angles, s2), 24
        )
        assert np.abs(combined - parts).max() < 1e-8

    def test_geometry_mismatch(self):
        proj = radon_forward(np.zeros((32, 32)), np.array([0.0]))
        with pytest.raises(ValueError):
            fbp_reconstruct(proj, 64)


class TestSparsify:
    def test_haar_constant_has_zero_details(self):
        t = SparsifyingTransform("haar-wavelet", 3)
        coeffs = sparsify(np.full((64, 64), 0.7), t, "forward")
        details = coeffs.copy()
        details[:8, :8] = 0.0
        assert np.abs(details).max() < 1e-12

    def test_orthonormality(self):
        x = SeededRng(6).normal((64, 64))
        for t in (SparsifyingTransform("haar-wavelet", 3), SparsifyingTransform("dct")):
            fx = sparsify(x, t, "forward")
            assert np.linalg.norm(fx) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_roundtrip_phantom(self):
        img = generate_phantom("disks", 64)
        for t in (SparsifyingTransform("haar-wavelet", 4), SparsifyingTransform("dct")):
            back = sparsify(sparsify(img, t, "forward"), t, "inverse")
            assert np.abs(back - img).max() < 1e-10

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            sparsify(np.zeros((36, 36)), SparsifyingTransform("haar-wavelet", 3))

    @pytest.mark.parametrize("levels", [0, 2.5, True, "3"])
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="levels"):
            SparsifyingTransform("haar-wavelet", levels)

    def test_masked_fourier_adjoint(self):
        # composed acquisition operator R F W vs its adjoint under Re<.,.>
        from dealias.cs import masked_fourier_operator

        mask = make_mask("random", 32, 32, {"fraction": 0.4}, SeededRng(8))
        op = masked_fourier_operator(mask, SparsifyingTransform("haar-wavelet", 3))
        rng = SeededRng(9)
        u = rng.normal(op.in_dim)
        v = rng.normal(op.out_dim) + 1j * rng.normal(op.out_dim)
        lhs = float(np.real(np.vdot(v, op.apply(u))))
        rhs = float(u @ op.adjoint(v))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)
