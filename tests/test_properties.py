"""Invariants of the patch, projection, Fourier and sparsifying kernels, the
encoder update, and the tensor and config file formats over randomized
shapes and values."""

import os
import tempfile

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dealias.autoencoder import (
    ACTIVATIONS,
    TrainConfig,
    TrainingSet,
    _gram_factor,
    _initial_state,
    _initial_weights,
    update_encoder,
)
from dealias.config import CHOICES, DEFAULTS, parse_config_lines, resolve_config
from dealias.core import SeededRng, read_tensor, write_tensor
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


def encoder_updates(dim, count, hidden, ridge, activation, seed):
    """P2 from an anchored start, once in closed form and once through the
    general fit (forced by a copy of Z); also returns the start."""
    config = TrainConfig(
        hidden=hidden, ridge_eps=ridge, activation=activation,
        latent_update="anchored", seed=seed,
    )
    values = SeededRng(seed).uniform(dim * count).reshape(dim, count)
    tset = TrainingSet.from_arrays(values, values)
    model = _initial_weights(dim, config)
    state = _initial_state(model, tset, config)
    start = model.w_enc
    update_encoder(model, tset, state, config)
    closed = model.w_enc
    model.w_enc, state.z = start, state.z.copy()
    update_encoder(model, tset, state, config)
    return tset, start, closed, model.w_enc


ENCODER_SHAPES = dict(
    dim=st.integers(1, 48),
    count=st.integers(1, 200),
    hidden=st.integers(1, 24),
    activation=st.sampled_from(ACTIVATIONS),
    seed=st.integers(0, 2**16),
)


@given(log_ridge=st.floats(-4.0, 0.0), **ENCODER_SHAPES)
def test_closed_form_encoder_update_matches_general_fit(
    dim, count, hidden, log_ridge, activation, seed
):
    # the closed form W - eps W (G + eps I)^-1 is taken, and equals the
    # ridge fit of phi^-1(Z); below ridge 1e-4 the Cholesky factor of
    # G + eps I limits both (at 1e-6 they differ by about 1e-8), which the
    # next property bounds against an SVD reference
    ridge = 10.0 ** log_ridge
    tset, start, closed, general = encoder_updates(dim, count, hidden, ridge, activation, seed)
    gram = _gram_factor(tset.x_in, ridge)
    expected = start - ridge * scipy.linalg.cho_solve(gram, start.T).T
    assert closed.tobytes() == expected.tobytes()
    assert np.abs(closed - general).max() <= 1e-9 * np.abs(general).max()


@given(log_ridge=st.floats(-8.0, 0.0), **ENCODER_SHAPES)
def test_closed_form_encoder_update_within_conditioning_of_svd(
    dim, count, hidden, log_ridge, activation, seed
):
    # W G (G + eps I)^-1 = W U diag(s^2 / (s^2 + eps)) U^T with X_in = U S V^T;
    # a Cholesky solve is accurate to about u * cond(G + eps I), and the
    # products on either side add rounding of order u * (d + 1), all relative
    # to W, from which the closed form subtracts a term of W's size
    ridge = 10.0 ** log_ridge
    tset, start, closed, _ = encoder_updates(dim, count, hidden, ridge, activation, seed)
    u, s, _ = np.linalg.svd(tset.x_in)
    s2 = np.zeros(u.shape[0])
    s2[: s.size] = s * s
    reference = ((start @ u) * (s2 / (s2 + ridge))) @ u.T
    cond = (s2.max() + ridge) / ridge
    bound = np.finfo(np.float64).eps * (cond + 10 * (dim + 1)) * np.abs(start).max()
    assert np.abs(closed - reference).max() <= bound


@given(
    tensor=hnp.arrays(
        np.float32,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=7),
        elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
)
def test_tensor_file_round_trip(tensor):
    # every float32 value, signed zeros and subnormals included, comes back
    # as the same float64 bytes in the same shape
    values = tensor.astype(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.rdt")
        write_tensor(path, values)
        back = read_tensor(path)
    assert back.shape == values.shape
    assert back.tobytes() == values.tobytes()


# config strings are written verbatim and read back stripped, with '#'
# starting a comment, so they are drawn from characters that survive that
CONFIG_TEXT = st.text("abcXYZ019_-./", max_size=12)


def config_value(key):
    default = DEFAULTS[key]
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-(2**40), 2**40)
    if isinstance(default, float):
        return st.floats(allow_nan=False)
    return CONFIG_TEXT


@given(
    st.sets(st.sampled_from(sorted(DEFAULTS))).flatmap(
        lambda keys: st.fixed_dictionaries({k: config_value(k) for k in sorted(keys)})
    )
)
def test_config_canonical_text_round_trip(overrides):
    text = resolve_config(overrides=overrides).canonical_text()
    again = resolve_config(parse_config_lines(text.splitlines()))
    assert again.canonical_text() == text
    assert again.values == resolve_config(overrides=overrides).values
