"""Acquisition simulation and crude analytic inversion.

Frequency-domain sampling masks with zero-filled inversion model the
MRI-style path; a parallel-beam radon transform with filtered back
projection models the CT-style path.  An orthonormal sparsifying
transform (Haar wavelet or DCT) supports the compressed-sensing solver.

The radon transform is one sparse system matrix A per (size, angles);
forward projection is ``A @ x`` and backprojection ``A.T @ y``, so each is
the exact transpose of the other.  A holds two entries per pixel and
angle, 2 * n_angles * size**2 nonzeros at 12 bytes each (float64 weight,
int32 row): 14 MB at 128 x 128 and 36 views.  The gain needs the same
geometry across calls: a geometry's first two uses apply A angle by angle
without building it, the third builds and caches it, and a geometry whose
A would pass 64 MiB is always applied angle by angle.  Both paths sum in
the same order and give the same bits.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .core import SeededRng, ensure_image, write_tensor


# each mask kind's one parameter: name, type, range test, range as messages state it
MaskParam = namedtuple("MaskParam", "name cast allowed rule")
MASK_PARAMS = {
    "random": MaskParam("fraction", float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "variable-density": MaskParam("decay", float, lambda v: v > 0, "positive"),
    "radial": MaskParam("lines", operator.index, lambda v: v >= 1, "an integer >= 1"),
    "periodic": MaskParam("stride", operator.index, lambda v: v >= 1, "an integer >= 1"),
}
MASK_KINDS = tuple(MASK_PARAMS)
TRANSFORM_KINDS = ("haar-wavelet", "dct")


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# Fourier transform and sampling masks
# ---------------------------------------------------------------------------


def fft2(grid, direction: str = "forward") -> np.ndarray:
    """Unitary 2-d FFT (1/sqrt(HW) normalization each way).

    Grids are laid out numpy-style with the DC coefficient at index (0, 0).
    Dimensions must be powers of two.
    """
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d grid")
    if not (_is_pow2(arr.shape[0]) and _is_pow2(arr.shape[1])):
        raise ValueError(f"grid dims must be powers of two, got {arr.shape}")
    if direction == "forward":
        return np.fft.fft2(arr, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft2(arr, norm="ortho")
    raise ValueError(f"unknown direction: {direction!r}")


@dataclass(frozen=True)
class SamplingMask:
    """Boolean frequency-domain sampling pattern (FFT layout, DC at [0,0])."""

    kind: str
    selected: np.ndarray

    def __post_init__(self):
        sel = np.asarray(self.selected, dtype=bool)
        if sel.ndim != 2:
            raise ValueError("mask must be 2-d")
        if not sel[0, 0]:
            raise ValueError("DC location must always be selected")
        object.__setattr__(self, "selected", sel)

    @property
    def height(self) -> int:
        return self.selected.shape[0]

    @property
    def width(self) -> int:
        return self.selected.shape[1]

    @property
    def fraction(self) -> float:
        """Achieved sampling fraction, selected count over total, exact."""
        return int(self.selected.sum()) / self.selected.size


def _centered_distance(height, width):
    # wrap-around distance from DC in FFT layout
    fy = np.fft.fftfreq(height) * height
    fx = np.fft.fftfreq(width) * width
    return np.hypot(fy[:, None], fx[None, :])


def mask_parameter(kind, params):
    """The value of a mask kind's one parameter; ValueError unless the kind,
    the parameter's name and its range are those ``MASK_PARAMS`` gives."""
    if kind not in MASK_PARAMS:
        raise ValueError(f"unknown mask kind: {kind!r}")
    name, cast, allowed, rule = MASK_PARAMS[kind]
    extra = set(params) - {name}
    if extra:
        raise ValueError(f"unexpected mask params: {sorted(extra)}")
    if name not in params:
        raise ValueError(f"missing mask param {name!r}")
    # operator.index takes integers only, where int() truncates 2.5; bools
    # pass both casts, so they are refused here
    raw = params[name]
    try:
        value = None if isinstance(raw, (bool, np.bool_)) else cast(raw)
    except (TypeError, ValueError):
        value = None
    if value is None or not allowed(value):
        raise ValueError(f"{name} must be {rule}, got {raw!r}")
    return value


def make_mask(kind, height, width, params, rng: SeededRng | None = None) -> SamplingMask:
    """Build a sampling mask.

    ``params`` holds the kind's one parameter, as ``MASK_PARAMS`` names and
    bounds it: random selects each location with probability ``fraction``;
    variable-density with probability (1 + distance-from-DC)**(-decay);
    radial selects ``lines`` straight lines through DC at uniformly spaced
    angles; periodic selects every ``stride``-th row.  The DC location is
    always selected.
    """
    if height <= 0 or width <= 0:
        raise ValueError("mask dims must be positive")
    value = mask_parameter(kind, params)

    selected = np.zeros((height, width), dtype=bool)
    if kind in ("random", "variable-density"):
        if rng is None:
            raise ValueError(f"{kind} mask requires an rng")
        prob = value  # the random kind's fraction
        if kind == "variable-density":
            prob = (1.0 + _centered_distance(height, width)) ** (-value)
        selected = rng.uniform(height * width).reshape(height, width) < prob
    elif kind == "radial":
        centered = np.zeros((height, width), dtype=bool)
        cy, cx = height // 2, width // 2
        reach = math.hypot(height, width)
        ts = np.arange(-reach, reach + 0.25, 0.5)
        for j in range(value):
            theta = math.pi * j / value
            ys = np.rint(cy + ts * math.sin(theta)).astype(int)
            xs = np.rint(cx + ts * math.cos(theta)).astype(int)
            keep = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
            centered[ys[keep], xs[keep]] = True
        selected = np.fft.ifftshift(centered)
    elif kind == "periodic":
        selected[::value, :] = True

    selected[0, 0] = True
    return SamplingMask(kind=kind, selected=selected)


def zero_fill_invert(kspace, mask: SamplingMask) -> np.ndarray:
    """Crude inversion: zero the unselected coefficients, inverse FFT.

    Returns the magnitude image, which keeps outputs nonnegative and is
    the identity for nonnegative fully-sampled inputs.
    """
    arr = np.asarray(kspace, dtype=np.complex128)
    if arr.shape != mask.selected.shape:
        raise ValueError(
            f"k-space shape {arr.shape} does not match mask {mask.selected.shape}"
        )
    filled = np.where(mask.selected, arr, 0.0)
    return np.abs(fft2(filled, "inverse"))


def save_mask(path, mask: SamplingMask) -> None:
    """Persist the selection grid as an RDT1 tensor of {0, 1}."""
    write_tensor(path, mask.selected.astype(np.float64))


# ---------------------------------------------------------------------------
# parallel-beam tomography
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionSet:
    """Parallel-beam sinogram: one row of detector readings per angle."""

    angles_deg: np.ndarray
    sinogram: np.ndarray

    def __post_init__(self):
        angles = _checked_angles(self.angles_deg)
        sino = np.asarray(self.sinogram, dtype=np.float64)
        if sino.ndim != 2 or sino.shape[0] != angles.size:
            raise ValueError("sinogram must be (n_angles, detector_bins)")
        if not np.all(np.isfinite(sino)):
            raise ValueError("sinogram must be finite")
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "sinogram", sino)

    @property
    def detector_bins(self) -> int:
        return self.sinogram.shape[1]


def _checked_angles(angles_deg) -> np.ndarray:
    """Projection angles as float64 degrees: a nonempty 1-d array, finite,
    in [0, 180) and strictly increasing."""
    angles = np.asarray(angles_deg, dtype=np.float64)
    if angles.ndim != 1 or angles.size == 0:
        raise ValueError("angles must be a nonempty 1-d array")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    if np.any(angles < 0) or np.any(angles >= 180):
        raise ValueError("angles must lie in [0, 180)")
    if np.any(np.diff(angles) <= 0):
        raise ValueError("angles must be strictly increasing")
    return angles


def detector_bin_count(size: int) -> int:
    """Detector bins covering the image diagonal, rounded up to odd."""
    bins = math.ceil(math.sqrt(2.0) * size)
    return bins if bins % 2 == 1 else bins + 1


def _splats(size, angles_deg):
    """Per angle: every pixel's lower detector bin i0 and the linear weight
    w it puts on bin i0 + 1 (weight 1 - w stays on i0)."""
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    x = np.broadcast_to(coords[None, :], (size, size)).ravel()
    y = np.broadcast_to(coords[:, None], (size, size)).ravel()
    offset = (detector_bin_count(size) - 1) / 2.0
    for theta in np.radians(angles_deg):
        u = x * math.cos(theta) + y * math.sin(theta) + offset
        i0 = np.floor(u).astype(int)
        yield i0, u - i0


# A projector is built only while it fits in this many bytes; a larger
# geometry is applied angle by angle in O(size**2) memory.
_PROJECTOR_MAX_BYTES = 64 * 2**20
# Uses of a geometry applied angle by angle before its projector is built.
# A build costs about three per-angle passes, so a geometry used once or
# twice (one ``dealias degrade`` is one radon and one backprojection) never
# pays for a matrix it would not reuse.
_USES_BEFORE_BUILD = 2


def _projector_bytes(size: int, n_angles: int) -> int:
    """Size of the projector: two entries per pixel and angle, each a
    float64 weight and an int32 row."""
    return 2 * n_angles * size * size * (8 + 4)


def _build_projector(size: int, angles: np.ndarray):
    """Radon system matrix A = lower + upper, each (n_angles * bins) x
    size**2 with one column per pixel.  Per angle k, column j of lower holds
    weight 1 - w at row k * bins + i0 and column j of upper holds w at row
    k * bins + i0 + 1.  Kept as two parts so that products sum each bin or
    pixel in the order of the per-angle loops, bit for bit."""
    # imported here: a process that never reuses a geometry (one CLI call)
    # skips the import, about 20 ms
    import scipy.sparse

    bins = detector_bin_count(size)
    pixels, views = size * size, angles.size
    rows = np.empty((pixels, views), dtype=np.int32)
    weights = np.empty((pixels, views))
    for k, (i0, w) in enumerate(_splats(size, angles)):
        rows[:, k] = k * bins + i0
        weights[:, k] = w
    indptr = np.arange(0, views * pixels + 1, views)
    shape = (views * bins, pixels)
    lower = scipy.sparse.csc_matrix(((1.0 - weights).ravel(), rows.ravel(), indptr), shape=shape)
    upper = scipy.sparse.csc_matrix((weights.ravel(), (rows + 1).ravel(), indptr), shape=shape)
    return lower, upper


class _ProjectorCache:
    """The projector of the geometry most recently used, or None.

    A geometry's projector is built on its use after ``_USES_BEFORE_BUILD``
    and only within ``_PROJECTOR_MAX_BYTES``; a new geometry drops the old
    projector, so at most one is held.  Callers validate the geometry
    first, so bad input is never built or cached.  A lock keeps a thread
    from storing its projector under another thread's geometry.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.key = None
        self.uses = 0
        self.matrix = None

    def lookup(self, size: int, angles: np.ndarray):
        key = (size, angles.tobytes())
        with self.lock:
            if key != self.key:
                self.key, self.uses, self.matrix = key, 0, None
            self.uses += 1
            if (
                self.matrix is None
                and self.uses > _USES_BEFORE_BUILD
                and _projector_bytes(size, angles.size) <= _PROJECTOR_MAX_BYTES
            ):
                self.matrix = _build_projector(size, angles)
            return self.matrix


_PROJECTOR = _ProjectorCache()


def radon_forward(image, angles_deg) -> ProjectionSet:
    """Line integrals of a square image at the given angles (degrees).

    Each pixel is splatted onto the two nearest detector bins with linear
    weights, so projections conserve total image mass exactly and the
    operator has an exact transpose (see :func:`backproject`).
    """
    img = ensure_image(image)
    if img.shape[0] != img.shape[1]:
        raise ValueError("radon transform requires a square image")
    angles = _checked_angles(angles_deg)
    size = img.shape[0]
    flat = img.ravel()
    projector = _PROJECTOR.lookup(size, angles)
    if projector is not None:
        lower, upper = projector
        sino = (lower @ flat + upper @ flat).reshape(angles.size, -1)
        return ProjectionSet(angles_deg=angles, sinogram=sino)
    bins = detector_bin_count(size)
    sino = np.zeros((angles.size, bins))
    for k, (i0, w) in enumerate(_splats(size, angles)):
        sino[k] = np.bincount(i0, weights=flat * (1.0 - w), minlength=bins)
        sino[k] += np.bincount(i0 + 1, weights=flat * w, minlength=bins)
    return ProjectionSet(angles_deg=angles, sinogram=sino)


def backproject(projections: ProjectionSet, size: int) -> np.ndarray:
    """Unfiltered backprojection, the exact transpose of radon_forward."""
    bins = projections.detector_bins
    if bins != detector_bin_count(size):
        raise ValueError(
            f"detector geometry {bins} does not match image size {size}"
        )
    angles = projections.angles_deg
    projector = _PROJECTOR.lookup(size, angles)
    if projector is not None:
        lower, upper = projector
        values = projections.sinogram.ravel()
        return (lower.T @ values + upper.T @ values).reshape(size, size)
    lower, upper = np.zeros(size * size), np.zeros(size * size)
    for row, (i0, w) in zip(projections.sinogram, _splats(size, angles)):
        lower += (1.0 - w) * row[i0]
        upper += w * row[i0 + 1]
    return (lower + upper).reshape(size, size)


def _ramp_filter(sinogram, window):
    """Ramp-filter each projection row (frequency domain, zero-padded)."""
    bins = sinogram.shape[1]
    length = 1 << max(3, (2 * bins - 1).bit_length())
    # discrete-space ramp kernel: 1/4 at zero lag, -1/(pi n)^2 at odd lags
    kernel = np.zeros(length)
    kernel[0] = 0.25
    odd = np.arange(1, bins, 2)
    kernel[odd] = -1.0 / (math.pi * odd) ** 2
    kernel[-odd] = -1.0 / (math.pi * odd) ** 2
    response = np.fft.rfft(kernel)
    if window == "hann":
        k = np.arange(response.size)
        response = response * (0.5 + 0.5 * np.cos(math.pi * k / (response.size - 1)))
    elif window is not None:
        raise ValueError(f"unknown apodization window: {window!r}")
    spec = np.fft.rfft(sinogram, n=length, axis=1)
    filtered = np.fft.irfft(spec * response[None, :], n=length, axis=1)
    return filtered[:, :bins]


def fbp_reconstruct(projections: ProjectionSet, size: int, window=None) -> np.ndarray:
    """Filtered back projection onto a size x size grid.

    Ram-Lak ramp by default; ``window="hann"`` apodizes the ramp.  The
    backprojection sum is scaled by pi / n_angles (uniform angular
    coverage of [0, 180) assumed).
    """
    if projections.detector_bins != detector_bin_count(size):
        raise ValueError(
            f"projections have {projections.detector_bins} bins, image size "
            f"{size} needs {detector_bin_count(size)}"
        )
    filtered = ProjectionSet(
        angles_deg=projections.angles_deg,
        sinogram=_ramp_filter(projections.sinogram, window),
    )
    scale = math.pi / projections.angles_deg.size
    return scale * backproject(filtered, size)


# ---------------------------------------------------------------------------
# orthonormal sparsifying transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparsifyingTransform:
    """Orthonormal analysis transform: multi-level Haar wavelet or DCT."""

    kind: str = "haar-wavelet"
    levels: int = 3

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind: {self.kind!r}")
        if self.levels < 1:
            raise ValueError("levels must be positive")


def _haar_split(block):
    rows = (block[0::2, :] + block[1::2, :]) / math.sqrt(2.0)
    diff = (block[0::2, :] - block[1::2, :]) / math.sqrt(2.0)
    stacked = np.vstack([rows, diff])
    cols = (stacked[:, 0::2] + stacked[:, 1::2]) / math.sqrt(2.0)
    diff = (stacked[:, 0::2] - stacked[:, 1::2]) / math.sqrt(2.0)
    return np.hstack([cols, diff])


def _haar_merge(block):
    h, w = block.shape
    left, right = block[:, : w // 2], block[:, w // 2 :]
    cols = np.empty_like(block)
    cols[:, 0::2] = (left + right) / math.sqrt(2.0)
    cols[:, 1::2] = (left - right) / math.sqrt(2.0)
    top, bottom = cols[: h // 2, :], cols[h // 2 :, :]
    out = np.empty_like(block)
    out[0::2, :] = (top + bottom) / math.sqrt(2.0)
    out[1::2, :] = (top - bottom) / math.sqrt(2.0)
    return out


def sparsify(values, transform: SparsifyingTransform, direction: str = "forward"):
    """Apply the orthonormal analysis (forward) or synthesis (inverse) map."""
    arr = ensure_image(values)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction: {direction!r}")
    if transform.kind == "dct":
        if direction == "forward":
            return scipy.fft.dctn(arr, norm="ortho")
        return scipy.fft.idctn(arr, norm="ortho")

    h, w = arr.shape
    step = 1 << transform.levels
    if h % step or w % step:
        raise ValueError(
            f"dims {arr.shape} not divisible by 2**levels = {step}"
        )
    out = arr.copy()
    if direction == "forward":
        for level in range(transform.levels):
            hh, ww = h >> level, w >> level
            out[:hh, :ww] = _haar_split(out[:hh, :ww])
    else:
        for level in reversed(range(transform.levels)):
            hh, ww = h >> level, w >> level
            out[:hh, :ww] = _haar_merge(out[:hh, :ww])
    return out
