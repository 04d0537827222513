"""Invariants of the patch, projection, Fourier and sparsifying kernels over
randomized shapes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from dealias.core import SeededRng
from dealias.cs import masked_fourier_operator
from dealias.pipeline import extract_patches, reassemble_patches
from dealias.transforms import (
    ProjectionSet,
    SamplingMask,
    SparsifyingTransform,
    backproject,
    radon_forward,
    sparsify,
)


@given(
    height=st.integers(4, 80),
    width=st.integers(4, 80),
    patch_size=st.sampled_from([4, 6, 8, 16, 32]),
    overlap=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_extract_then_reassemble_is_identity(height, width, patch_size, overlap, seed):
    stride = patch_size // 2 if overlap else patch_size
    img = SeededRng(seed).uniform(height * width).reshape(height, width)
    try:
        grid = extract_patches(img, patch_size, stride)
    except ValueError:
        assume(False)  # too small to reflect-pad
    back = reassemble_patches(grid, img.shape)
    if overlap:  # averaging k copies of a value rounds by at most an ulp
        np.testing.assert_allclose(back, img, rtol=1e-15, atol=0)
    else:
        assert np.array_equal(back, img)


def loop_reassemble(grid, original_shape):
    """Reference reassembly: a row-major double loop of slice adds."""
    h, w = original_shape
    ps, s = grid.patch_size, grid.stride
    acc = np.zeros((grid.padded_height, grid.padded_width))
    cover = np.zeros_like(acc)
    for r in range(grid.rows):
        for c in range(grid.cols):
            block = grid.patches[r * grid.cols + c].reshape(ps, ps)
            acc[r * s : r * s + ps, c * s : c * s + ps] += block
            cover[r * s : r * s + ps, c * s : c * s + ps] += 1.0
    return (acc / cover)[:h, :w]


@given(
    height=st.integers(4, 128),
    width=st.integers(4, 128),
    patch_size=st.sampled_from([4, 6, 8, 16, 32]),
    overlap=st.booleans(),
    fortran=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_reassemble_matches_row_major_loop(height, width, patch_size, overlap, fortran, seed):
    # pins the accumulation order: every pixel sums its covering patches
    # from 0.0 in row-major patch order, whatever the patch matrix layout
    stride = patch_size // 2 if overlap else patch_size
    try:
        grid = extract_patches(np.zeros((height, width)), patch_size, stride)
    except ValueError:
        assume(False)  # too small to reflect-pad
    patches = SeededRng(seed).normal(grid.patches.shape)
    grid = grid.with_patches(np.asfortranarray(patches) if fortran else patches)
    expected = loop_reassemble(grid, (height, width))
    assert reassemble_patches(grid, (height, width)).tobytes() == expected.tobytes()


@given(
    size=st.integers(2, 48),
    angles=st.lists(
        st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=12, unique=True
    ).map(sorted),
    seed=st.integers(0, 2**16),
)
def test_radon_backproject_adjoint(size, angles, seed):
    rng = SeededRng(seed)
    u = rng.normal((size, size))
    au = radon_forward(u, angles).sinogram
    v = rng.normal(au.shape)
    atv = backproject(ProjectionSet(angles, v), size)
    gap = abs(float((au * v).sum()) - float((u * atv).sum()))
    assert gap <= 1e-10 * np.linalg.norm(au) * np.linalg.norm(v)


@given(
    log_height=st.integers(1, 6),
    log_width=st.integers(1, 6),
    levels=st.integers(1, 6),
    fraction=st.floats(0.0, 1.0),
    dct=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_masked_fourier_adjoint(log_height, log_width, levels, fraction, dct, seed):
    # Re<A u, v> = <u, A* v> for the selected Fourier coefficients of the
    # synthesized image, over power-of-two grids and random mask draws
    height, width = 1 << log_height, 1 << log_width
    rng = SeededRng(seed)
    selected = (rng.uniform(height * width) < fraction).reshape(height, width)
    selected[0, 0] = True  # DC is always sampled
    levels = min(levels, log_height, log_width)
    transform = SparsifyingTransform("dct") if dct else SparsifyingTransform("haar-wavelet", levels)
    op = masked_fourier_operator(SamplingMask("random", selected), transform)
    u = rng.normal(op.in_dim)
    v = rng.normal(op.out_dim) + 1j * rng.normal(op.out_dim)
    au = op.apply(u)
    gap = abs(float(np.real(np.vdot(v, au))) - float(u @ op.adjoint(v)))
    assert gap <= 1e-12 * np.linalg.norm(au) * np.linalg.norm(v)


@given(
    levels=st.integers(1, 4),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    dct=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_sparsifying_transform_is_orthonormal(levels, rows, cols, dct, seed):
    # Haar needs both sides divisible by 2**levels; DCT takes the same shapes
    shape = (rows << levels, cols << levels)
    transform = SparsifyingTransform("dct") if dct else SparsifyingTransform("haar-wavelet", levels)
    x = SeededRng(seed).normal(shape)
    fx = sparsify(x, transform, "forward")
    assert abs(np.linalg.norm(fx) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
    assert np.abs(sparsify(fx, transform, "inverse") - x).max() <= 1e-12
