"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py``.  The two end-to-end
criteria train on a 200-image procedural corpus and together take a few
minutes; everything else is seconds.
"""

import statistics
import time

import numpy as np
import pytest

import dealias as d
from dealias.autoencoder import (
    SplitBregmanState,
    _initial_weights,
    activate,
    l2_loss_and_grads,
    penalty_objective,
    solve_ridge_least_squares,
    train_l2_timed,
    update_decoder,
    update_encoder,
    update_latent,
    update_relaxation,
    update_sparse_residual,
)
from dealias.config import resolve_config
from dealias.core import SeededRng
from dealias.cs import ista_solve, omp_solve, operator_from_matrix
from dealias.pipeline import TEST_SEED_OFFSET, _entry_spec, build_mask, degrade
from dealias.transforms import (
    ProjectionSet,
    SparsifyingTransform,
    backproject,
    fbp_reconstruct,
    fft2,
    radon_forward,
    sparsify,
)

CORPUS_SIZE = 128
CORPUS_COUNT = 200
TEST_COUNT = 10

ROBUST_MRI = d.TrainConfig(
    hidden=256,
    lam=20.0,
    mu=1.0,
    max_iter=100,
    rel_tol=0.0,
    ridge_eps=1e-2,
    bregman_update="additive",
    latent_update="anchored",
    seed=0,
)
ROBUST_IMPULSE = d.TrainConfig(
    hidden=256,
    lam=20.0,
    mu=1.0,
    max_iter=60,
    rel_tol=0.0,
    ridge_eps=1e-2,
    bregman_update="additive",
    latent_update="anchored",
    seed=0,
)
L2_LEARNING_RATE = 2e-7  # largest rate verified stable on this corpus


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    base = SeededRng(0)
    images = [d.random_phantom(CORPUS_SIZE, base.split(i)) for i in range(CORPUS_COUNT)]
    return images[: CORPUS_COUNT - TEST_COUNT], images[CORPUS_COUNT - TEST_COUNT :]


def assemble(images, spec, overlap=True):
    stride = 16 if overlap else 32
    inputs, targets = [], []
    for i, img in enumerate(images):
        degraded = degrade(img, _entry_spec(spec, i))
        inputs.append(d.extract_patches(degraded, 32, stride).patches)
        targets.append(d.extract_patches(img, 32, stride).patches)
    return d.TrainingSet.from_arrays(np.vstack(inputs).T, np.vstack(targets).T)


def held_out_pairs(test_images, spec):
    return [
        (img, degrade(img, _entry_spec(spec, TEST_SEED_OFFSET + i)))
        for i, img in enumerate(test_images)
    ]


@pytest.fixture(scope="module")
def mri_run(corpus):
    train_images, test_images = corpus
    spec = d.DegradationSpec(
        "mri", mask_kind="random", mask_params={"fraction": 0.5}, seed=0
    )
    start = time.perf_counter()
    tset = assemble(train_images, spec)
    model, _ = d.train_robust(tset, ROBUST_MRI)
    train_seconds = time.perf_counter() - start
    return {
        "spec": spec,
        "model": model,
        "pairs": held_out_pairs(test_images, spec),
        "train_seconds": train_seconds,
        "start": start,
    }


def test_criterion_01_solver_exactness():
    start = time.perf_counter()
    rng = SeededRng(42)
    # P1 closed form vs per-element grid search on 50 random instances
    for _ in range(50):
        value = float(2.0 * rng.normal(1)[0])
        lam = 0.2 + 2.0 * float(rng.uniform(1)[0])
        closed = d.soft_threshold(value, 1.0 / (2.0 * lam))
        span = max(abs(value), 0.5)
        grid = np.arange(-2 * span, 2 * span + 1e-4, 1e-4)
        best = grid[np.argmin(np.abs(grid) + lam * (grid - value) ** 2)]
        assert abs(closed - best) < 2e-4
    # ridge solves vs an independent normal-equation oracle on 5x5 systems
    eps = 1e-6
    for trial in range(5):
        a = SeededRng(100 + trial).normal((5, 5))
        b = SeededRng(200 + trial).normal((5, 5))
        left = solve_ridge_least_squares(a, b, eps, side="left")
        oracle = b @ a.T @ np.linalg.inv(a @ a.T + eps * np.eye(5))
        assert np.abs(left - oracle).max() <= 1e-8 * max(np.abs(oracle).max(), 1.0)
        right = solve_ridge_least_squares(a, b, eps, side="right")
        oracle = np.linalg.inv(a.T @ a + eps * np.eye(5)) @ a.T @ b
        assert np.abs(right - oracle).max() <= 1e-8 * max(np.abs(oracle).max(), 1.0)
    # coupled latent solve vs the same oracle
    config = d.TrainConfig(hidden=5, lam=1.3, mu=0.7, seed=1)
    model = _initial_weights(5, config)
    tset = d.TrainingSet.from_arrays(
        SeededRng(300).uniform(25).reshape(5, 5), SeededRng(301).uniform(25).reshape(5, 5)
    )
    state = SplitBregmanState(
        p=SeededRng(302).normal((5, 5)),
        z=SeededRng(303).normal((5, 5)),
        b1=SeededRng(304).normal((5, 5)),
        b2=SeededRng(305).normal((5, 5)),
    )
    anchor = activate(model.w_enc @ tset.x_in) + state.b2
    target = tset.x_out - state.p + state.b1
    gram = config.lam * model.w_dec.T @ model.w_dec + (config.mu + config.ridge_eps) * np.eye(5)
    oracle = np.linalg.inv(gram) @ (config.lam * model.w_dec.T @ target + config.mu * anchor)
    update_latent(model, tset, state, config)
    assert np.abs(state.z - oracle).max() <= 1e-8 * np.abs(oracle).max()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"P1 grid oracle (50 instances) and P2/P3/P4 ridge oracles agree ({elapsed:.1f}s)")


def test_criterion_02_block_monotonicity():
    config = d.TrainConfig(
        hidden=8, lam=1.0, mu=1.0, max_iter=20, rel_tol=0.0, seed=0,
        latent_update="coupled",
    )
    values = SeededRng(0).uniform(16 * 16).reshape(16, 16)
    tset = d.TrainingSet.from_arrays(values, values)
    model = _initial_weights(16, config)
    z = activate(model.w_enc @ tset.x_in)
    state = SplitBregmanState(
        p=tset.x_out - model.w_dec @ z, z=z,
        b1=np.zeros_like(tset.x_out), b2=np.zeros_like(z),
    )
    worst = 0.0
    for _ in range(20):
        objective = penalty_objective(model, tset, state, config)
        for block in (update_sparse_residual, update_encoder, update_decoder, update_latent):
            block(model, tset, state, config)
            value = penalty_objective(model, tset, state, config)
            worst = max(worst, value - objective)
            assert value <= objective + 1e-9
            objective = value
        update_relaxation(model, tset, state, config)
    report(2, f"objective non-increasing across P1-P4 in 20 cycles (worst increase {worst:.2e})")


def test_criterion_03_gradient_check():
    rng = SeededRng(14)
    tset = d.TrainingSet.from_arrays(
        rng.uniform(4 * 5).reshape(4, 5), rng.uniform(4 * 5).reshape(4, 5)
    )
    model = _initial_weights(4, d.TrainConfig(hidden=3, seed=2))
    _, g_enc, g_dec = l2_loss_and_grads(model, tset)
    step = 1e-5
    worst = 0.0
    for attr, grad in (("w_enc", g_enc), ("w_dec", g_dec)):
        weights = getattr(model, attr).copy()
        for idx in np.ndindex(*weights.shape):
            probe = weights.copy()
            probe[idx] += step
            setattr(model, attr, probe)
            up = l2_loss_and_grads(model, tset)[0]
            probe[idx] -= 2 * step
            setattr(model, attr, probe)
            down = l2_loss_and_grads(model, tset)[0]
            setattr(model, attr, weights)
            numeric = (up - down) / (2 * step)
            rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-5
    report(3, f"backprop gradients match central differences (max rel err {worst:.2e})")


def test_criterion_04_transform_suite():
    start = time.perf_counter()
    rng = SeededRng(4)
    x = rng.normal((64, 64))
    assert np.abs(fft2(fft2(x, "forward"), "inverse") - x).max() < 1e-12
    wavelet = SparsifyingTransform("haar-wavelet", 3)
    fx = sparsify(x, wavelet, "forward")
    assert abs(np.linalg.norm(fx) - np.linalg.norm(x)) < 1e-10
    assert np.abs(sparsify(fx, wavelet, "inverse") - x).max() < 1e-10

    angles = np.arange(0.0, 180.0, 5.0)
    u = rng.normal((64, 64))
    au = radon_forward(u, angles)
    v = rng.normal(au.sinogram.shape)
    lhs = float((au.sinogram * v).sum())
    rhs = float((u * backproject(ProjectionSet(angles, v), 64)).sum())
    assert abs(lhs - rhs) <= 1e-3 * abs(lhs)

    phantom = d.generate_phantom("shepp-logan", 128)
    errors = {}
    for spacing in (0.5, 1.0, 5.0):
        grid = np.arange(0.0, 180.0, spacing)
        errors[spacing] = d.nmse(fbp_reconstruct(radon_forward(phantom, grid), 128), phantom)
    assert errors[5.0] > errors[1.0] > errors[0.5]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"FFT/wavelet/radon adjoint bounds and FBP degradation ordering hold ({elapsed:.1f}s)")


def test_criterion_05_cs_suite():
    rng = SeededRng(9)
    a = rng.normal((32, 64))
    y = a @ (rng.uniform(64) < 0.1).astype(float)
    monotone = ista_solve(operator_from_matrix(a), y, 0.05, 120, 0.0)
    assert np.all(np.diff(monotone.objective_history) <= 1e-10)

    target = SeededRng(7).normal(16)
    lam = 0.3
    fixed = ista_solve(operator_from_matrix(np.eye(16)), target, lam, 500, 1e-14)
    expected = np.sign(target) * np.maximum(np.abs(target) - lam / 2.0, 0.0)
    assert np.allclose(fixed.solution, expected, atol=1e-10)

    from test_cs import gaussian_design

    hits = 0
    for seed in range(100):
        mat, x, support = gaussian_design(SeededRng(1000 + seed))
        found = omp_solve(mat, mat @ x, 4)
        hits += set(np.flatnonzero(found.solution).tolist()) == support
    assert hits / 100.0 >= 0.9
    report(5, f"ISTA monotone + closed-form fixed point; OMP recovery {hits}/100")


def test_criterion_06_end_to_end_dealiasing(mri_run):
    model, pairs = mri_run["model"], mri_run["pairs"]
    zero_fill = float(np.mean([d.nmse(deg, img) for img, deg in pairs]))
    robust = float(
        np.mean([d.nmse(d.reconstruct_image(model, deg, overlap=True), img) for img, deg in pairs])
    )
    transform = SparsifyingTransform("haar-wavelet", 4)
    ista_values = []
    for img, _ in pairs[:3]:
        mask = build_mask(mri_run["spec"], *img.shape)
        solved = d.cs_reconstruct_image(fft2(img, "forward"), mask, transform, 0.01, 150, 1e-9)
        ista_values.append(d.nmse(solved, img))
    elapsed = time.perf_counter() - mri_run["start"]
    assert robust <= 0.8 * zero_fill
    assert elapsed < 15 * 60
    report(
        6,
        f"robust-ae NMSE {robust:.4f} <= 0.8 x zero-fill {zero_fill:.4f} "
        f"(ista sample mean {np.mean(ista_values):.4f}); {elapsed:.0f}s total",
    )


def test_criterion_07_robustness_ordering(corpus):
    train_images, test_images = corpus
    spec = d.DegradationSpec("impulse", impulse_fraction=0.15, seed=0)
    tset = assemble(train_images, spec)
    start = time.perf_counter()
    robust_model, _ = d.train_robust(tset, ROBUST_IMPULSE)
    budget = time.perf_counter() - start
    l2_config = d.TrainConfig(hidden=256, seed=0, learning_rate=L2_LEARNING_RATE)
    l2_model, epochs = train_l2_timed(tset, l2_config, budget)
    pairs = held_out_pairs(test_images, spec)
    psnr_robust = float(
        np.mean([d.psnr(d.reconstruct_image(robust_model, deg, True), img) for img, deg in pairs])
    )
    psnr_l2 = float(
        np.mean([d.psnr(d.reconstruct_image(l2_model, deg, True), img) for img, deg in pairs])
    )
    assert psnr_robust > psnr_l2 + 0.5
    report(
        7,
        f"l1 trainer {psnr_robust:.2f} dB vs l2 baseline {psnr_l2:.2f} dB "
        f"({epochs} l2 epochs in the {budget:.0f}s matched budget)",
    )


def test_criterion_08_throughput_ordering(mri_run, tmp_path):
    model = mri_run["model"]
    img, degraded = mri_run["pairs"][0]
    mask = build_mask(mri_run["spec"], *img.shape)
    kspace = fft2(img, "forward")
    transform = SparsifyingTransform("haar-wavelet", 4)

    forward_times, ista_times = [], []
    for _ in range(5):
        timing = {}
        d.reconstruct_image(model, degraded, overlap=False, timing=timing)
        assert timing["patches"] == 16
        forward_times.append(timing["seconds"])
        begin = time.perf_counter()
        d.cs_reconstruct_image(kspace, mask, transform, 0.01, 200, 0.0)
        ista_times.append(time.perf_counter() - begin)
    forward_median = statistics.median(forward_times)
    ista_median = statistics.median(ista_times)
    ratio = ista_median / forward_median
    assert forward_median < ista_median
    assert ratio >= 3.0

    config = resolve_config(
        {
            "corpus_count": "6", "corpus_size": "64", "test_count": "2",
            "hidden": "8", "max_iter": "3", "rel_tol": "0",
            "ista_iters": "8", "timing_reps": "3", "timing_ista_iters": "200",
            "l2_epochs": "3", "l2_learning_rate": "1e-7",
            "bregman_update": "additive", "latent_update": "anchored",
        }
    )
    result = d.run_benchmark(config, tmp_path / "bench")
    recorded = result.timing["ista_over_reconstruct_ratio"]
    text = (tmp_path / "bench" / "timing.csv").read_text()
    assert "ista_over_reconstruct_ratio" in text
    assert recorded > 0
    report(
        8,
        f"model forward {forward_median * 1e3:.1f} ms vs ISTA {ista_median * 1e3:.0f} ms "
        f"per image, ratio {ratio:.1f}x (>= 3x); ratio also recorded in timing.csv",
    )


def test_criterion_09_metrics_suite():
    x = SeededRng(6).uniform(32 * 32).reshape(32, 32)
    assert d.ssim(x, x) == pytest.approx(1.0, abs=1e-9)
    a, b = 0.3, 0.8
    c1 = 0.01 ** 2
    expected = (2 * a * b + c1) / (a * a + b * b + c1)
    assert d.ssim(np.full((16, 16), a), np.full((16, 16), b)) == pytest.approx(
        expected, abs=1e-12
    )
    reference = x + 0.25
    assert d.nmse(reference, reference) == 0.0
    assert d.nmse(np.zeros_like(reference), reference) == 1.0
    assert d.nmse(2 * reference, reference) == 1.0
    report(9, "ssim identities and NMSE trivial values hold exactly")


def test_criterion_10_reproducibility(tmp_path):
    from dealias.config import config_from_report_header

    overrides = {
        "corpus_count": "6", "corpus_size": "64", "test_count": "2",
        "hidden": "8", "max_iter": "3", "rel_tol": "0",
        "ista_iters": "8", "timing_reps": "1", "timing_ista_iters": "8",
        "l2_epochs": "3", "l2_learning_rate": "1e-7",
        "bregman_update": "additive", "latent_update": "anchored",
    }
    first = tmp_path / "first"
    d.run_benchmark(resolve_config(overrides), first)
    rerun = tmp_path / "rerun"
    d.run_benchmark(config_from_report_header(first / "summary.csv"), rerun)
    names = ["summary.csv", "raw.csv", "robust-ae.csv", "l2-ae.csv", "ista.csv"]
    for name in names:
        assert (first / name).read_bytes() == (rerun / name).read_bytes()
    report(10, f"re-run from the embedded config header reproduced {names} byte for byte")
