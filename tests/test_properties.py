"""Invariants of the patch, projection, Fourier and sparsifying kernels, the
RNG stream, and the tensor, model bundle and config file formats over
randomized shapes and values."""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dealias import transforms
from dealias.autoencoder import AutoencoderModel, load_model, save_model
from dealias.config import CHOICES, DEFAULTS, parse_config_lines, resolve_config
from dealias.core import (
    SeededRng,
    _pixel_grid,
    ellipse_mask,
    random_phantom,
    read_tensor,
    write_tensor,
)
from dealias.cs import masked_fourier_operator, max_eigenvalue
from dealias.pipeline import (
    DegradationSpec,
    _entry_spec,
    build_training_set,
    degrade,
    extract_patches,
    reassemble_patches,
)
from dealias.transforms import (
    ProjectionSet,
    SamplingMask,
    SparsifyingTransform,
    _splats,
    backproject,
    detector_bin_count,
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


def bincount_radon(image, angles):
    """Reference radon: each angle's two-bin splats summed by np.bincount."""
    size = image.shape[0]
    bins = detector_bin_count(size)
    flat = image.ravel()
    sino = np.zeros((len(angles), bins))
    for k, (i0, w) in enumerate(_splats(size, angles)):
        sino[k] = np.bincount(i0, weights=flat * (1.0 - w), minlength=bins)
        sino[k] += np.bincount(i0 + 1, weights=flat * w, minlength=bins)
    return sino


def bincount_backproject(sinogram, angles, size):
    """Reference backprojection: each angle's splats gathered in turn."""
    out = np.zeros(size * size)
    for row, (i0, w) in zip(sinogram, _splats(size, angles)):
        out += row[i0] * (1.0 - w) + row[i0 + 1] * w
    return out.reshape(size, size)


@given(
    size=st.integers(2, 48),
    angles=st.lists(
        st.floats(0.0, 180.0, exclude_max=True), min_size=1, max_size=12, unique=True
    ).map(sorted),
    seed=st.integers(0, 2**16),
)
def test_projector_matches_bincount_loops(size, angles, seed):
    # a geometry's first two uses run angle by angle and its third applies
    # the built matrix: the two agree bit for bit, so a result never depends
    # on what ran before it.  Radon sums each bin in the order of the
    # reference loop, to the bit; the reference backprojection adds each
    # angle's pair of terms before accumulating, so it agrees to rounding.
    rng = SeededRng(seed)
    u = rng.normal((size, size))
    v = rng.normal((len(angles), detector_bin_count(size)))
    with mock.patch.object(transforms, "_PROJECTOR", transforms._ProjectorCache()):
        by_angle = radon_forward(u, angles).sinogram, backproject(ProjectionSet(angles, v), size)
        assert transforms._PROJECTOR.matrix is None
        by_matrix = radon_forward(u, angles).sinogram, backproject(ProjectionSet(angles, v), size)
        assert transforms._PROJECTOR.matrix is not None
    for first, later in zip(by_angle, by_matrix):
        assert first.tobytes() == later.tobytes()
    assert by_angle[0].tobytes() == bincount_radon(u, angles).tobytes()
    expected = bincount_backproject(v, angles, size)
    assert np.abs(by_angle[1] - expected).max() <= 1e-13 * np.abs(expected).max()


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
    # the exact norm ISTA steps by is the one power iteration finds
    assert op.norm_sq == 1.0
    assert max_eigenvalue(op, 200) == pytest.approx(op.norm_sq, abs=1e-6)


@given(
    log_height=st.integers(1, 6),
    log_width=st.integers(1, 6),
    levels=st.integers(1, 6),
    fraction=st.floats(0.0, 1.0),
    dct=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_masked_fourier_apply_is_masked_unitary_fft(log_height, log_width, levels, fraction, dct, seed):
    # whatever FFT the operator runs on, A c is the full unitary 2-d FFT of
    # the synthesized image read at the selected locations in row-major order
    height, width = 1 << log_height, 1 << log_width
    rng = SeededRng(seed)
    selected = (rng.uniform(height * width) < fraction).reshape(height, width)
    selected[0, 0] = True
    levels = min(levels, log_height, log_width)
    transform = SparsifyingTransform("dct") if dct else SparsifyingTransform("haar-wavelet", levels)
    coeffs = rng.normal((height, width))
    got = masked_fourier_operator(SamplingMask("random", selected), transform).apply(coeffs.ravel())
    expected = transforms.fft2(sparsify(coeffs, transform, "inverse"))[selected]
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


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


def stacked_haar_split(block):
    """Reference analysis level: each butterfly as a fresh array, stacked."""
    rows = (block[0::2, :] + block[1::2, :]) / math.sqrt(2.0)
    diff = (block[0::2, :] - block[1::2, :]) / math.sqrt(2.0)
    stacked = np.vstack([rows, diff])
    cols = (stacked[:, 0::2] + stacked[:, 1::2]) / math.sqrt(2.0)
    diff = (stacked[:, 0::2] - stacked[:, 1::2]) / math.sqrt(2.0)
    return np.hstack([cols, diff])


def stacked_haar_merge(block):
    """Reference synthesis level, the inverse of ``stacked_haar_split``."""
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


@given(
    levels=st.integers(1, 4),
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_haar_levels_in_place_match_stacked_levels_bytewise(levels, rows, cols, seed):
    # the in-place butterflies add (or subtract), then divide, as the
    # stacking form does, so both directions give the same bytes
    shape = (rows << levels, cols << levels)
    transform = SparsifyingTransform("haar-wavelet", levels)
    x = SeededRng(seed).normal(shape)
    for direction, level_order, reference in (
        ("forward", range(levels), stacked_haar_split),
        ("inverse", reversed(range(levels)), stacked_haar_merge),
    ):
        expected = x.copy()
        for level in level_order:
            hh, ww = shape[0] >> level, shape[1] >> level
            expected[:hh, :ww] = reference(expected[:hh, :ww])
        got = sparsify(x, transform, direction)
        assert got.tobytes() == expected.tobytes()


def full_grid_phantom(size, rng):
    """Reference painter: every ellipse evaluated on the whole grid."""
    x, y = _pixel_grid(size)
    img = np.zeros((size, size))
    p = rng.uniform(6)
    x0, y0 = -0.1 + 0.2 * p[2], -0.1 + 0.2 * p[3]
    outline = ellipse_mask(x, y, 0.55 + 0.3 * p[0], 0.55 + 0.3 * p[1], x0, y0, 180.0 * p[4])
    img[outline] = 0.15 + 0.25 * p[5]
    for _ in range(2 + rng.integer(5)):
        q = rng.uniform(6)
        inner = ellipse_mask(
            x, y, 0.08 + 0.30 * q[2], 0.08 + 0.30 * q[3],
            x0 - 0.35 + 0.7 * q[0], y0 - 0.35 + 0.7 * q[1], 180.0 * q[4],
        )
        img[inner & outline] = 0.15 + 0.85 * q[5]
    return img


@given(size=st.integers(16, 160), seed=st.integers(0, 2**64 - 1))
def test_random_phantom_matches_full_grid_painter_bytewise(size, seed):
    # each interior ellipse is painted on its bounding box only; the box
    # must hold every pixel the whole-grid test would paint
    got = random_phantom(size, SeededRng(seed))
    assert got.tobytes() == full_grid_phantom(size, SeededRng(seed)).tobytes()


# image shapes each modality's degradation takes: power-of-two grids for
# the FFT, square ones for the radon transform
CORPUS_SHAPES = {
    "mri": st.tuples(st.sampled_from([16, 32, 64]), st.sampled_from([16, 32, 64])),
    "ct": st.integers(12, 48).map(lambda n: (n, n)),
    "impulse": st.tuples(st.integers(8, 70), st.integers(8, 70)),
}


@given(
    modality=st.sampled_from(sorted(CORPUS_SHAPES)),
    patch_size=st.integers(4, 32),
    overlap=st.booleans(),
    data=st.data(),
)
def test_training_set_stacks_extracted_patches_bytewise(modality, patch_size, overlap, data):
    # the windows written straight into the matrices are the patches
    # extract_patches cuts, column-stacked in manifest order
    if overlap:
        patch_size &= ~1
    stride = patch_size // 2 if overlap else patch_size
    spec = {
        "mri": DegradationSpec("mri", mask_kind="random", mask_params={"fraction": 0.4}, seed=2),
        "ct": DegradationSpec("ct", ct_spacing_deg=30.0),
        "impulse": DegradationSpec("impulse", impulse_fraction=0.2, seed=5),
    }[modality]
    shapes = data.draw(st.lists(CORPUS_SHAPES[modality], min_size=1, max_size=4))
    for shape in shapes:
        try:
            extract_patches(np.zeros(shape), patch_size, stride)
        except ValueError:
            assume(False)  # too small to reflect-pad
    seed = data.draw(st.integers(0, 2**16))
    with tempfile.TemporaryDirectory() as folder:
        entries, inputs, targets = [], [], []
        for index, (h, w) in enumerate(shapes):
            clean_path = os.path.join(folder, f"clean{index}.rdt")
            write_tensor(clean_path, SeededRng(seed + index).uniform(h * w).reshape(h, w))
            clean = read_tensor(clean_path)
            degraded = degrade(clean, _entry_spec(spec, index))
            degraded_path = None
            if data.draw(st.booleans()):  # a precomputed degraded image
                degraded_path = os.path.join(folder, f"degraded{index}.rdt")
                write_tensor(degraded_path, degraded)
                degraded = read_tensor(degraded_path)
            entries.append((clean_path, degraded_path))
            inputs.append(extract_patches(degraded, patch_size, stride).patches.T)
            targets.append(extract_patches(clean, patch_size, stride).patches.T)
        tset = build_training_set(entries, spec, patch_size, overlap)
    inputs, targets = np.hstack(inputs), np.hstack(targets)
    assert tset.x_in.tobytes() == np.vstack([inputs, np.ones(inputs.shape[1])]).tobytes()
    assert tset.x_out.tobytes() == targets.tobytes()


@given(
    seed=st.integers(0, 2**64 - 1),
    first=st.integers(0, 300),
    second=st.integers(0, 300),
    method=st.sampled_from(["raw", "uniform", "normal"]),
)
def test_batched_rng_draws_equal_sequential_draws(seed, first, second, method):
    batched = getattr(SeededRng(seed), method)(first + second)
    draw = getattr(SeededRng(seed), method)
    sequential = np.concatenate([draw(first), draw(second)])
    assert batched.tobytes() == sequential.tobytes()


def loop_choice(rng, n, k):
    """Partial Fisher-Yates with one ``integer`` draw per step."""
    pool = np.arange(n)
    for i in range(k):
        j = i + rng.integer(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k].copy()


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 400), data=st.data())
def test_batched_choice_equals_sequential_loop(seed, n, data):
    k = data.draw(st.integers(0, n))
    rng, ref = SeededRng(seed), SeededRng(seed)
    assert rng.choice(n, k).tobytes() == loop_choice(ref, n, k).tobytes()
    assert rng.raw(2).tobytes() == ref.raw(2).tobytes()  # same stream position


def test_batched_choice_falls_back_at_a_rejection():
    # the 4th and 9th draws of the stream become 2**64 - 1, which integer()
    # rejects for any upper but a power of two: steps 3 and 7 (uppers 997
    # and 993) each take one more draw, the second in the sequential tail
    raw = SeededRng.raw

    def rejecting_raw(self, n):
        first = self._count + 1
        out = raw(self, n)
        for position in (4, 9):
            if first <= position < first + n:
                out[position - first] = np.uint64(2**64 - 1)
        return out

    with mock.patch.object(SeededRng, "raw", rejecting_raw):
        rng, ref = SeededRng(5), SeededRng(5)
        assert rng.choice(1000, 20).tobytes() == loop_choice(ref, 1000, 20).tobytes()
        assert rng._count == ref._count == 22


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


@given(
    d=st.integers(1, 40),
    h=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_bundle_round_trip(d, h, seed):
    # the bundle stores float32 weights: loading gives exactly the weights
    # rounded to float32, and forward moves by at most that rounding
    rng = SeededRng(seed)
    model = AutoencoderModel(rng.normal((h, d + 1)), rng.normal((d, h)))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, tmp)
        loaded = load_model(tmp)
    for got, want in ((loaded.w_enc, model.w_enc), (loaded.w_dec, model.w_dec)):
        assert got.tobytes() == want.astype(np.float32).astype(np.float64).tobytes()
    x = rng.uniform(d * 3).reshape(d, 3)
    # first-order bound on |forward| change from relative weight errors of
    # 2**-24; tanh has slope at most 1
    xb = np.vstack([np.abs(x), np.ones((1, 3))])
    z = np.abs(model.encode(x))
    dec = np.abs(model.w_dec)
    bound = 2.0**-24 * (dec @ z + dec @ (np.abs(model.w_enc) @ xb))
    assert np.all(np.abs(loaded.forward(x) - model.forward(x)) <= 2 * bound)


# config strings are written verbatim and read back stripped, with '#'
# starting a comment, so they are drawn from characters that survive that
CONFIG_TEXT = st.text("abcXYZ019_-./", max_size=12)


INTS = st.integers(-(2**40), 2**40)
FLOATS = st.floats(allow_nan=False)


def config_value(key):
    default = DEFAULTS[key]
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return INTS
    if isinstance(default, float):
        return FLOATS
    return CONFIG_TEXT


# values of another type than the key's default, as Python callers pass them
OFF_TYPE_VALUES = st.one_of(
    INTS,
    FLOATS,
    st.booleans(),
    INTS.map(np.int64),
    FLOATS.map(np.float64),
    st.booleans().map(np.bool_),
)


def config_overrides(value):
    return st.sets(st.sampled_from(sorted(DEFAULTS))).flatmap(
        lambda keys: st.fixed_dictionaries({k: value(k) for k in sorted(keys)})
    )


@given(
    st.one_of(
        config_overrides(config_value),
        config_overrides(lambda k: st.one_of(config_value(k), OFF_TYPE_VALUES)),
    )
)
def test_config_canonical_text_round_trip(overrides):
    # a value either fails naming its key, or resolves to a header whose
    # parse -> resolve -> render is a fixed point
    try:
        resolved = resolve_config(overrides=overrides)
    except ValueError as exc:
        assert any(repr(key) in str(exc) for key in overrides)
        return
    text = resolved.canonical_text()
    again = resolve_config(parse_config_lines(text.splitlines()))
    assert again.canonical_text() == text
    assert again.values == resolved.values
