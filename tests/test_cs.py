"""Sparse-recovery baselines: power iteration, ISTA, OMP, image inversion."""

import dataclasses

import numpy as np
import pytest

from dealias.core import SeededRng, generate_phantom
from dealias.cs import (
    cs_reconstruct_image,
    ista_solve,
    masked_fourier_operator,
    max_eigenvalue,
    omp_solve,
    operator_from_matrix,
)
from dealias.metrics import nmse
from dealias.transforms import SamplingMask, SparsifyingTransform, fft2, make_mask, zero_fill_invert

# exact support recovery rate of 100 frozen-seed OMP trials
# (n=64, m=32, s=4 Gaussian designs); regression value
OMP_RECOVERY_RATE = 0.95


def jacobi_eigenvalues(matrix, sweeps=60):
    """Classical Jacobi rotation eigensolver (oracle for small symmetric m)."""
    a = matrix.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-14:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))


def gaussian_design(rng, m=32, n=64, s=4):
    a = rng.normal((m, n))
    a = a / np.linalg.norm(a, axis=0)
    support = rng.choice(n, s)
    x = np.zeros(n)
    signs = rng.uniform(s) < 0.5
    x[support] = np.where(signs, 1.0, -1.0) * (1.0 + rng.uniform(s))
    return a, x, set(support.tolist())


class TestMaxEigenvalue:
    def test_diagonal(self):
        op = operator_from_matrix(np.diag([1.0, 4.0]))
        assert max_eigenvalue(op, 100, seed=1) == pytest.approx(16.0, abs=1e-6)

    def test_masked_fourier_is_unit_norm(self):
        mask = make_mask("random", 32, 32, {"fraction": 0.3}, SeededRng(2))
        op = masked_fourier_operator(mask, SparsifyingTransform("haar-wavelet", 3))
        assert max_eigenvalue(op, 200, seed=3) == pytest.approx(1.0, abs=1e-6)

    def test_matches_jacobi_oracle_on_8x8(self):
        a = SeededRng(4).normal((8, 8))
        top_oracle = jacobi_eigenvalues(a.T @ a)[-1]
        estimate = max_eigenvalue(operator_from_matrix(a), 500, seed=5)
        assert estimate == pytest.approx(top_oracle, rel=1e-6)

    def test_zero_operator(self):
        op = operator_from_matrix(np.zeros((3, 3)))
        assert max_eigenvalue(op, 50, seed=6) == 0.0

    def test_too_few_iterations_rejected(self):
        with pytest.raises(ValueError):
            max_eigenvalue(operator_from_matrix(np.eye(2)), 5)


class TestIsta:
    def test_identity_fixed_point(self):
        y = SeededRng(7).normal(16)
        lam = 0.3
        report = ista_solve(operator_from_matrix(np.eye(16)), y, lam, 500, 1e-14)
        expected = np.sign(y) * np.maximum(np.abs(y) - lam / 2.0, 0.0)
        assert np.allclose(report.solution, expected, atol=1e-10)

    def test_orthonormal_no_penalty_recovers_least_squares(self):
        rng = SeededRng(8)
        q, _ = np.linalg.qr(rng.normal((24, 24)))
        x_true = rng.normal(24)
        y = q @ x_true
        report = ista_solve(operator_from_matrix(q), y, 0.0, 800, 1e-14)
        assert np.allclose(report.solution, q.T @ y, atol=1e-8)

    def test_objective_monotone(self):
        rng = SeededRng(9)
        a = rng.normal((32, 64))
        y = a @ (rng.uniform(64) < 0.1).astype(float)
        report = ista_solve(operator_from_matrix(a), y, 0.05, 150, 0.0)
        history = np.asarray(report.objective_history)
        assert np.all(np.diff(history) <= 1e-10)

    def test_support_recovery_over_lambda_sweep(self):
        a, x, support = gaussian_design(SeededRng(0))
        y = a @ x
        op = operator_from_matrix(a)
        scale = np.abs(a.T @ y).max()
        best_f1 = 0.0
        for factor in (1e-3, 1e-2, 1e-1):
            report = ista_solve(op, y, factor * scale, 2000, 1e-12)
            found = set(np.flatnonzero(np.abs(report.solution) > 1e-3).tolist())
            if found or support:
                tp = len(found & support)
                precision = tp / len(found) if found else 0.0
                recall = tp / len(support)
                if precision + recall:
                    best_f1 = max(best_f1, 2 * precision * recall / (precision + recall))
        assert best_f1 == 1.0

    def test_known_norm_matches_power_iteration_step(self):
        img = generate_phantom("shepp-logan", 64)
        mask = make_mask("random", 64, 64, {"fraction": 0.5}, SeededRng(0))
        op = masked_fourier_operator(mask, SparsifyingTransform("haar-wavelet", 3))
        y = fft2(img, "forward").ravel()[np.flatnonzero(mask.selected.ravel())]
        known = ista_solve(op, y, 0.01, 200, 0.0)
        estimated = ista_solve(dataclasses.replace(op, norm_sq=None), y, 0.01, 200, 0.0)
        assert op.norm_sq == 1.0
        assert np.abs(known.solution - estimated.solution).max() <= 1e-9

    def test_report_fields_finite(self):
        a = SeededRng(10).normal((8, 12))
        report = ista_solve(operator_from_matrix(a), np.ones(8), 0.1, 50, 1e-8)
        assert np.isfinite(report.final_objective)
        assert np.isfinite(report.residual_norm)
        assert report.iterations <= 50


class TestOmp:
    def test_orthonormal_one_sparse(self):
        q, _ = np.linalg.qr(SeededRng(11).normal((16, 16)))
        x = np.zeros(16)
        x[5] = 2.5
        report = omp_solve(q, q @ x, 1)
        assert np.allclose(report.solution, x, atol=1e-8)
        assert report.residual_norm < 1e-8

    def test_zero_measurement_tie_break(self):
        a = SeededRng(12).normal((8, 12))
        report = omp_solve(a, np.zeros(8), 3)
        assert np.all(report.solution == 0.0)
        assert report.residual_norm == 0.0

    def test_support_grows_and_residual_shrinks(self):
        rng = SeededRng(13)
        a, x, _ = gaussian_design(rng)
        y = a @ x
        previous = np.linalg.norm(y)
        for k in range(1, 6):
            report = omp_solve(a, y, k)
            support = np.flatnonzero(report.solution)
            assert len(support) <= k
            # non-increasing up to least-squares rounding at numerical zero
            assert report.residual_norm <= previous + 1e-8
            previous = report.residual_norm

    def test_residual_orthogonal_to_support(self):
        rng = SeededRng(14)
        a, x, _ = gaussian_design(rng)
        y = a @ x
        report = omp_solve(a, y, 4)
        support = np.flatnonzero(report.solution)
        residual = y - a @ report.solution
        assert np.abs(a[:, support].T @ residual).max() < 1e-8

    def test_recovery_rate_frozen_trials(self):
        hits = 0
        for seed in range(100):
            a, x, support = gaussian_design(SeededRng(1000 + seed))
            report = omp_solve(a, a @ x, 4)
            hits += set(np.flatnonzero(report.solution).tolist()) == support
        rate = hits / 100.0
        assert rate >= 0.9
        assert rate == OMP_RECOVERY_RATE

    def test_oversized_support_rejected(self):
        with pytest.raises(ValueError):
            omp_solve(np.ones((4, 8)), np.ones(4), 5)


class TestCsReconstruct:
    def test_full_mask_zero_penalty_recovers_image(self):
        img = generate_phantom("disks", 32)
        mask = SamplingMask("custom", np.ones((32, 32), dtype=bool))
        out = cs_reconstruct_image(
            fft2(img, "forward"), mask, SparsifyingTransform("haar-wavelet", 3),
            lam=0.0, max_iter=600, tol=1e-14,
        )
        assert np.abs(out - img).max() < 1e-6

    def test_beats_zero_fill_on_half_mask(self):
        img = generate_phantom("shepp-logan", 128)
        mask = make_mask("random", 128, 128, {"fraction": 0.5}, SeededRng(0))
        kspace = fft2(img, "forward")
        crude = zero_fill_invert(kspace, mask)
        solved = cs_reconstruct_image(
            kspace, mask, SparsifyingTransform("haar-wavelet", 4),
            lam=0.01, max_iter=150, tol=1e-9,
        )
        assert nmse(solved, img) < nmse(crude, img)

    def test_dc_only_mask_gives_constant(self):
        img = generate_phantom("disks", 32)
        sel = np.zeros((32, 32), dtype=bool)
        sel[0, 0] = True
        out = cs_reconstruct_image(
            fft2(img, "forward"), SamplingMask("custom", sel),
            SparsifyingTransform("dct"), lam=0.0, max_iter=400, tol=1e-12,
        )
        assert out.std() < 1e-6
        assert out.mean() == pytest.approx(img.mean(), abs=1e-6)
