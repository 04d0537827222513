"""NMSE / PSNR / SSIM metrics and the CSV report container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dealias.core import SeededRng
from dealias.metrics import MetricReport, MetricRow, nmse, psnr, ssim


def naive_ssim(a, b):
    """Direct per-window evaluation of the similarity formula (oracle)."""
    half = 5
    coords = np.arange(11) - half
    g = np.exp(-(coords[:, None] ** 2 + coords[None, :] ** 2) / (2 * 1.5 ** 2))
    g /= g.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = a.shape
    scores = []
    for i in range(h - 10):
        for j in range(w - 10):
            wa = a[i : i + 11, j : j + 11]
            wb = b[i : i + 11, j : j + 11]
            mx = (g * wa).sum()
            my = (g * wb).sum()
            vx = (g * wa * wa).sum() - mx * mx
            vy = (g * wb * wb).sum() - my * my
            cxy = (g * wa * wb).sum() - mx * my
            scores.append(
                ((2 * mx * my + c1) * (2 * cxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(scores))


class TestNmse:
    def test_identical(self):
        x = SeededRng(0).uniform(64).reshape(8, 8)
        assert nmse(x, x) == 0.0

    def test_zero_estimate(self):
        x = SeededRng(1).uniform(64).reshape(8, 8)
        assert nmse(np.zeros_like(x), x) == pytest.approx(1.0)

    def test_double_estimate(self):
        x = SeededRng(2).uniform(64).reshape(8, 8)
        assert nmse(2 * x, x) == pytest.approx(1.0)

    def test_scale_covariance(self):
        rng = SeededRng(3)
        e = rng.uniform(100).reshape(10, 10)
        r = rng.uniform(100).reshape(10, 10) + 0.1
        for c in (0.5, -2.0, 17.0):
            assert nmse(c * e, c * r) == pytest.approx(nmse(e, r), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones((4, 4)), np.zeros((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.ones((4, 4)), np.ones((4, 5)))


class TestPsnr:
    def test_known_mse(self):
        ref = np.zeros((10, 10))
        est = np.full((10, 10), 0.1)  # MSE 0.01
        assert psnr(est, ref) == pytest.approx(20.0)

    def test_zero_db(self):
        ref = np.zeros((10, 10))
        est = np.ones((10, 10))  # MSE 1
        assert psnr(est, ref) == pytest.approx(0.0)

    def test_identical_gives_infinity(self):
        x = SeededRng(4).uniform(25).reshape(5, 5)
        assert psnr(x, x) == math.inf

    def test_consistency_with_nmse(self):
        # at fixed reference, smaller NMSE must mean larger PSNR
        rng = SeededRng(5)
        ref = rng.uniform(256).reshape(16, 16) + 0.2
        noise = rng.normal((16, 16))
        small = ref + 0.01 * noise
        large = ref + 0.1 * noise
        assert nmse(small, ref) < nmse(large, ref)
        assert psnr(small, ref) > psnr(large, ref)


class TestSsim:
    def test_self_similarity(self):
        x = SeededRng(6).uniform(32 * 32).reshape(32, 32)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-9)

    def test_constant_degenerate_formula(self):
        a, b = 0.3, 0.8
        c1 = 0.01 ** 2
        expected = (2 * a * b + c1) / (a * a + b * b + c1)
        value = ssim(np.full((16, 16), a), np.full((16, 16), b))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_oracle_on_noise_fixture(self):
        x = SeededRng(7).uniform(32 * 32).reshape(32, 32)
        y = 1.0 - x  # its negative within [0, 1]
        assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-10)

    @settings(max_examples=30)
    @given(height=st.integers(11, 40), width=st.integers(11, 40), seed=st.integers(0, 2**16))
    def test_matches_naive_oracle_on_random_shapes(self, height, width, seed):
        # the separable passes must treat rows and columns alike
        rng = SeededRng(seed)
        x = rng.uniform(height * width).reshape(height, width)
        y = np.clip(x + 0.2 * rng.normal((height, width)), 0.0, 1.0)
        assert ssim(x, y) == pytest.approx(naive_ssim(x, y), abs=1e-10)

    def test_symmetry(self):
        rng = SeededRng(8)
        a = rng.uniform(400).reshape(20, 20)
        b = rng.uniform(400).reshape(20, 20)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ssim(np.ones((8, 8)), np.ones((8, 8)))

    def test_range(self):
        rng = SeededRng(9)
        a = rng.uniform(900).reshape(30, 30)
        b = rng.uniform(900).reshape(30, 30)
        assert -1.0 <= ssim(a, b) <= 1.0


class TestMetricReport:
    def _report(self):
        return MetricReport(
            rows=[
                MetricRow("a", 0.5, 10.0, 0.9),
                MetricRow("b", 0.3, 14.0, 0.95),
                MetricRow("c", 0.4, 12.0, 0.8),
            ]
        )

    def test_aggregates_recomputable(self):
        report = self._report()
        values = np.array([0.5, 0.3, 0.4])
        assert report.mean("nmse") == pytest.approx(values.mean(), abs=1e-12)
        assert report.std("nmse") == pytest.approx(values.std(), abs=1e-12)

    def test_csv_layout(self):
        text = report = self._report().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "name,nmse,psnr,ssim"
        assert len(lines) == 6
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")

    def test_csv_is_deterministic(self):
        assert self._report().to_csv() == self._report().to_csv()

    def test_seconds_is_not_a_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            self._report().mean("seconds")

    def test_csv_floats_roundtrip(self):
        text = self._report().to_csv()
        row = text.strip().split("\n")[1].split(",")
        assert float(row[1]) == 0.5
