"""Image-quality metrics and tabular reporting.

NMSE here is the l2-norm ratio ||estimate - reference|| / ||reference||
(not its square); PSNR assumes a [0, peak] dynamic range; SSIM follows
the standard windowed luminance/contrast/structure comparison with an
11x11 Gaussian window (sigma 1.5) over valid (fully interior) positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ensure_image

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
METRICS = ("nmse", "psnr", "ssim")  # the columns of every metric report


def _pair(estimate, reference):
    est = ensure_image(estimate)
    ref = ensure_image(reference)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    return est, ref


def nmse(estimate, reference) -> float:
    est, ref = _pair(estimate, reference)
    denom = np.linalg.norm(ref)
    if denom == 0:
        raise ValueError("reference image is identically zero")
    return float(np.linalg.norm(est - ref) / denom)


def psnr(estimate, reference, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; identical images give +inf."""
    est, ref = _pair(estimate, reference)
    mse = float(np.mean((est - ref) ** 2))
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _gaussian_window():
    """The normalized 1-d Gaussian; the 2-d window is its outer product."""
    half = (_SSIM_WINDOW - 1) / 2.0
    coords = np.arange(_SSIM_WINDOW) - half
    g = np.exp(-(coords ** 2) / (2 * _SSIM_SIGMA ** 2))
    return g / g.sum()


def ssim(estimate, reference) -> float:
    """Structural similarity over valid 11x11 Gaussian windows (L = 1)."""
    est, ref = _pair(estimate, reference)
    if min(est.shape) < _SSIM_WINDOW:
        raise ValueError(f"images must be at least {_SSIM_WINDOW} pixels per side")
    window = _gaussian_window()
    c1 = (0.01) ** 2
    c2 = (0.03) ** 2

    def local_mean(arr):
        # the separable window as two 1-d passes: down the rows, then across
        for axis in (0, 1):
            arr = np.lib.stride_tricks.sliding_window_view(arr, _SSIM_WINDOW, axis) @ window
        return arr

    mu_x = local_mean(est)
    mu_y = local_mean(ref)
    xx = local_mean(est * est) - mu_x * mu_x
    yy = local_mean(ref * ref) - mu_y * mu_y
    xy = local_mean(est * ref) - mu_x * mu_y
    score = ((2 * mu_x * mu_y + c1) * (2 * xy + c2)) / (
        (mu_x ** 2 + mu_y ** 2 + c1) * (xx + yy + c2)
    )
    return float(score.mean())


@dataclass
class MetricRow:
    name: str
    nmse: float
    psnr: float
    ssim: float


@dataclass
class MetricReport:
    """Per-image metric rows with on-the-fly mean/std aggregates."""

    rows: list

    def _column(self, metric):
        if metric not in METRICS:
            raise ValueError(f"unknown metric: {metric!r}")
        return np.asarray([getattr(row, metric) for row in self.rows])

    def mean(self, metric) -> float:
        return float(self._column(metric).mean())

    def std(self, metric) -> float:
        return float(self._column(metric).std())

    def to_csv(self) -> str:
        """Header row, one row per image, trailing mean and std rows.

        Floats are rendered with repr (shortest round-trip form) so equal
        values always serialize to equal bytes.
        """
        lines = ["name," + ",".join(METRICS)]
        for row in self.rows:
            lines.append(row.name + "," + ",".join(repr(getattr(row, m)) for m in METRICS))
        lines.append("mean," + ",".join(repr(self.mean(m)) for m in METRICS))
        lines.append("std," + ",".join(repr(self.std(m)) for m in METRICS))
        return "\n".join(lines) + "\n"
