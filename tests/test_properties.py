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
