"""Invariants of the patch and projection kernels over randomized shapes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from dealias.core import SeededRng
from dealias.pipeline import extract_patches, reassemble_patches
from dealias.transforms import ProjectionSet, backproject, radon_forward


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
