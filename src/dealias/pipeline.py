"""Patch-based training and inference pipeline.

Corpus images are degraded through a simulated acquisition (k-space
undersampling, sparse-view tomography, or impulse corruption), cut into
patches, paired with their clean counterparts for training, and rebuilt
from patch-wise model outputs at test time.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autoencoder import AutoencoderModel, TrainingSet
from .core import SeededRng, ensure_image, read_tensor
from .transforms import (
    fbp_reconstruct,
    fft2,
    make_mask,
    mask_parameter,
    radon_forward,
    zero_fill_invert,
)

# the DegradationSpec fields each modality sets; all others stay None
PARAMETER_GROUPS = {
    "mri": ("mask_kind", "mask_params"),
    "ct": ("ct_spacing_deg",),
    "impulse": ("impulse_fraction",),
}
MODALITIES = tuple(PARAMETER_GROUPS)

# impulse corruption draws fresh pixel locations per corpus entry; test-split
# entries are offset so they never reuse training noise patterns
TEST_SEED_OFFSET = 1_000_000


@dataclass(frozen=True)
class DegradationSpec:
    """One acquisition regime: exactly the matching parameter group is set.

    mri: ``mask_kind``/``mask_params`` (see transforms.MASK_PARAMS);
    ct: ``ct_spacing_deg`` between successive projection angles;
    impulse: ``impulse_fraction`` of pixels forced to 0 or 1.
    """

    modality: str
    mask_kind: str | None = None
    mask_params: dict | None = None
    ct_spacing_deg: float | None = None
    impulse_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality: {self.modality!r}")
        names = sum(PARAMETER_GROUPS.values(), ())
        populated = {name for name in names if getattr(self, name) is not None}
        if populated != set(PARAMETER_GROUPS[self.modality]):
            raise ValueError(
                f"exactly the {self.modality!r} parameter group must be populated"
            )
        if self.modality == "mri":
            mask_parameter(self.mask_kind, self.mask_params)
        if self.modality == "ct" and not 0 < self.ct_spacing_deg <= 180:
            raise ValueError("ct_spacing_deg must lie in (0, 180]")
        if self.modality == "impulse" and not 0 <= self.impulse_fraction <= 1:
            raise ValueError("impulse_fraction must lie in [0, 1]")


def build_mask(spec: DegradationSpec, height: int, width: int):
    """The sampling mask an mri-modality spec induces (deterministic)."""
    return make_mask(
        spec.mask_kind, height, width, spec.mask_params, SeededRng(spec.seed)
    )


def degrade(image, spec: DegradationSpec) -> np.ndarray:
    """Crudely inverted / corrupted version of a clean [0, 1] image.

    mri: mask the unitary FFT, zero-fill, magnitude of the inverse FFT.
    ct: parallel-beam projections at the configured spacing, then FBP.
    impulse: exactly round(fraction * pixels) distinct pixels set to 0 or 1
    with equal probability.  Pure function of (image, spec).
    """
    img = ensure_image(image)
    if img.min() < -1e-9 or img.max() > 1 + 1e-9:
        raise ValueError("degrade expects image values in [0, 1]")
    if spec.modality == "mri":
        mask = build_mask(spec, *img.shape)
        return zero_fill_invert(fft2(img, "forward"), mask)
    if spec.modality == "ct":
        angles = np.arange(0.0, 180.0, spec.ct_spacing_deg)
        return fbp_reconstruct(radon_forward(img, angles), img.shape[0])
    rng = SeededRng(spec.seed)
    count = round(spec.impulse_fraction * img.size)
    out = img.copy()
    if count:
        locations = rng.choice(img.size, count)
        values = (rng.uniform(count) < 0.5).astype(np.float64)
        out.ravel()[locations] = values
    return out


# ---------------------------------------------------------------------------
# patch extraction / reassembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchGrid:
    """Flattened patches plus the geometry needed to rebuild the image."""

    patch_size: int
    stride: int
    rows: int
    cols: int
    pad_bottom: int
    pad_right: int
    patches: np.ndarray  # (rows * cols, patch_size**2), row-major order

    @property
    def padded_height(self) -> int:
        return self.patch_size + (self.rows - 1) * self.stride

    @property
    def padded_width(self) -> int:
        return self.patch_size + (self.cols - 1) * self.stride

    def with_patches(self, patches) -> "PatchGrid":
        return replace(self, patches=np.asarray(patches, dtype=np.float64))


def _padded_length(n, patch, stride):
    target = max(n, patch)
    remainder = (target - patch) % stride
    return target + (stride - remainder if remainder else 0)


def _patch_windows(arr, patch_size, stride):
    """The (rows, cols, patch_size, patch_size) view of every patch window."""
    return sliding_window_view(arr, (patch_size, patch_size))[::stride, ::stride]


def patch_stride(patch_size: int, overlap: bool) -> int:
    """Patch grid stride: the patch size, or half of an even one in overlap mode."""
    if patch_size < 4:
        raise ValueError("patch_size must be at least 4")
    if overlap and patch_size % 2:
        raise ValueError("overlap mode needs an even patch_size")
    return patch_size // 2 if overlap else patch_size


def _padded_windows(img, patch_size, stride):
    """The patch windows of ``img`` reflect-padded on the bottom/right edges
    up to the next stride multiple, and the two pad widths."""
    h, w = img.shape
    pad_bottom = _padded_length(h, patch_size, stride) - h
    pad_right = _padded_length(w, patch_size, stride) - w
    if pad_bottom >= h or pad_right >= w:
        raise ValueError(
            f"image {img.shape} too small to reflect-pad for {patch_size}x"
            f"{patch_size} patches"
        )
    padded = np.pad(img, ((0, pad_bottom), (0, pad_right)), mode="reflect")
    return _patch_windows(padded, patch_size, stride), pad_bottom, pad_right


def extract_patches(image, patch_size: int = 32, stride: int | None = None) -> PatchGrid:
    """Cut an image into flattened square patches in row-major order.

    ``stride`` is either the patch size (non-overlapping tiling) or half
    of it (overlap mode, used for seam averaging).  The image is
    reflect-padded on the bottom/right edges up to the next stride
    multiple before cutting.
    """
    img = ensure_image(image)
    if stride is None:
        stride = patch_size
    if stride != patch_stride(patch_size, overlap=stride != patch_size):
        raise ValueError("stride must equal patch_size or patch_size / 2")
    windows, pad_bottom, pad_right = _padded_windows(img, patch_size, stride)
    rows, cols = windows.shape[:2]
    # copy first: a one-column grid would otherwise reshape to a
    # read-only view whose overlapping rows share memory
    patches = windows.copy().reshape(rows * cols, patch_size * patch_size)
    return PatchGrid(
        patch_size=patch_size,
        stride=stride,
        rows=rows,
        cols=cols,
        pad_bottom=pad_bottom,
        pad_right=pad_right,
        patches=patches,
    )


def reassemble_patches(grid: PatchGrid, original_shape) -> np.ndarray:
    """Rebuild an image from its patch grid and crop the padding away.

    Every pixel is the mean of the patches that cover it: one patch in
    non-overlap mode, up to four in overlap mode (the seam-smoothing
    substitute for a dedicated deblocking pass).  The patches scatter back
    through the same windows :func:`extract_patches` cuts them with, by
    ``np.bincount``, which adds weights in input order: each pixel sums its
    covering patches from 0.0 in row-major patch order, so the result is
    deterministic and independent of the patch matrix's memory layout.
    """
    h, w = original_shape
    ps = grid.patch_size
    if grid.patches.shape != (grid.rows * grid.cols, ps * ps):
        raise ValueError("patch matrix does not match grid metadata")
    ph, pw = grid.padded_height, grid.padded_width
    if ph != h + grid.pad_bottom or pw != w + grid.pad_right:
        raise ValueError(
            f"grid metadata does not cover original shape {original_shape}"
        )
    pixels = np.arange(ph * pw).reshape(ph, pw)
    index = _patch_windows(pixels, ps, grid.stride).ravel()
    acc = np.bincount(index, weights=grid.patches.ravel(), minlength=ph * pw)
    cover = np.bincount(index, minlength=ph * pw)
    return (acc / cover).reshape(ph, pw)[:h, :w]


# ---------------------------------------------------------------------------
# corpus manifests and training-set assembly
# ---------------------------------------------------------------------------


def load_manifest(path):
    """Corpus manifest: one entry per line, ``#`` comments allowed.

    Each entry is a clean-image path optionally followed by a precomputed
    degraded-image path (whitespace separated).  Relative paths resolve
    against the manifest's directory and must exist.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) > 2:
                raise ValueError(f"manifest line has too many fields: {line!r}")
            resolved = [
                f if os.path.isabs(f) else os.path.join(base, f) for f in fields
            ]
            for p in resolved:
                if not os.path.exists(p):
                    raise FileNotFoundError(f"manifest entry not found: {p}")
            entries.append((resolved[0], resolved[1] if len(resolved) == 2 else None))
    if not entries:
        raise ValueError(f"manifest {path} lists no images")
    return entries


def _entry_spec(spec: DegradationSpec, index: int) -> DegradationSpec:
    # impulse noise varies per image; mri masks and ct geometry are the
    # fixed acquisition protocol shared by the whole corpus
    if spec.modality == "impulse":
        return replace(spec, seed=spec.seed + index)
    return spec


def build_training_set(
    manifest, spec: DegradationSpec, patch_size: int = 32, overlap: bool = False
) -> TrainingSet:
    """Assemble paired (degraded, clean) patch matrices from a corpus.

    ``manifest`` is a manifest path or a list of (clean, degraded-or-None)
    entries.  Images without a precomputed degraded path are degraded
    here.  Columns are ordered by manifest entry, then patch position.
    ``overlap`` cuts half-stride patches instead of the non-overlapping
    tiling, roughly tripling the sample count from the same corpus.
    """
    entries = load_manifest(manifest) if isinstance(manifest, (str, os.PathLike)) else manifest
    if not entries:
        raise ValueError("empty manifest")
    stride = patch_stride(patch_size, overlap)
    inputs, targets = [], []
    for index, (clean_path, degraded_path) in enumerate(entries):
        clean = ensure_image(read_tensor(clean_path))
        if degraded_path is None:
            degraded = degrade(clean, _entry_spec(spec, index))
        else:
            degraded = ensure_image(read_tensor(degraded_path))
        targets.append(_padded_windows(clean, patch_size, stride)[0])
        inputs.append(_padded_windows(degraded, patch_size, stride)[0])
    dim = patch_size * patch_size
    x_in = np.empty((dim + 1, sum(w.shape[0] * w.shape[1] for w in inputs)))
    x_in[-1] = 1.0
    x_out = np.empty((dim, sum(w.shape[0] * w.shape[1] for w in targets)))
    for matrix, grids in ((x_in, inputs), (x_out, targets)):
        start = 0
        for windows in grids:
            rows, cols = windows.shape[:2]
            # the windows copy once, straight into their columns: split into
            # (patch row, patch column, window row, window column), a d x n
            # block of the matrix is still a view of it
            block = matrix[:dim, start : start + rows * cols]
            block.reshape(patch_size, patch_size, rows, cols)[...] = windows.transpose(2, 3, 0, 1)
            start += rows * cols
    return TrainingSet(x_in, x_out)


def reconstruct_image(
    model: AutoencoderModel, degraded, overlap: bool = False, timing: dict | None = None
) -> np.ndarray:
    """De-alias an image patch-by-patch through a trained model.

    Extracts patches (overlapping half-stride patches when ``overlap``),
    runs one batched forward pass, reassembles, and clamps to [0, 1].
    When ``timing`` is a dict it receives wall-clock figures for the
    compute path (per image and per patch; file I/O excluded).
    """
    img = ensure_image(degraded)
    dim = model.input_dim
    ps = math.isqrt(dim)
    if ps * ps != dim:
        raise ValueError(f"model input dim {dim} is not a square patch")
    stride = patch_stride(ps, overlap)
    start = time.perf_counter()
    grid = extract_patches(img, ps, stride)
    outputs = model.forward(grid.patches.T).T
    rebuilt = reassemble_patches(grid.with_patches(outputs), img.shape)
    result = np.clip(rebuilt, 0.0, 1.0)
    elapsed = time.perf_counter() - start
    if timing is not None:
        timing["seconds"] = elapsed
        timing["patches"] = grid.patches.shape[0]
        timing["seconds_per_patch"] = elapsed / grid.patches.shape[0]
    return result
