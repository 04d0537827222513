"""Classical sparse-recovery baselines: ISTA and orthogonal matching pursuit.

ISTA alternates a gradient (Landweber) step with soft thresholding and is
run either on an explicit matrix or on the composed masked-Fourier
operator measuring a sparsifying-domain coefficient vector.  OMP greedily
grows one support index per iteration and refits by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autoencoder import soft_threshold
from .core import NumericFailure, SeededRng
# fft2 is unused here, but span tracers patch cs.fft2 by name
from .transforms import SamplingMask, SparsifyingTransform, fft2, require_pow2_grid, sparsify


@dataclass
class LinearOperator:
    """Measurement operator given by matching apply/adjoint closures.

    The input space is real; measurements may be complex (masked Fourier),
    in which case the adjoint is taken with respect to the real inner
    product Re<a, b> and returns a real vector.  ``norm_sq`` is
    lambda_max(A^T A) where it is known exactly, else None.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    in_dim: int
    out_dim: int
    norm_sq: float | None = None


def operator_from_matrix(a) -> LinearOperator:
    a = np.asarray(a, dtype=np.float64)
    return LinearOperator(
        apply=lambda x: a @ x,
        adjoint=lambda y: a.T @ y,
        in_dim=a.shape[1],
        out_dim=a.shape[0],
    )


def masked_fourier_operator(
    mask: SamplingMask, transform: SparsifyingTransform
) -> LinearOperator:
    """Selected Fourier coefficients of the synthesized image.

    Maps a coefficient vector through the inverse sparsifying transform,
    the unitary FFT and the mask's selection, in the row-major order of
    the selected locations.  The image is real, so both directions work
    on the half spectrum (columns 0..W/2): a selected column past W/2 is
    read as the conjugate of its mirror, and the adjoint inverts the
    Hermitian part 1/2 (z[k] + conj z[-k]) of the zero-filled spectrum,
    which is Re(F^H M^T v).  With an orthonormal sparsifier and DC always
    selected, lambda_max(A^T A) = 1 exactly (a constant image attains it).
    """
    shape = height, width = mask.selected.shape
    require_pow2_grid(shape)
    sel = np.flatnonzero(mask.selected.ravel())
    rows, cols = np.divmod(sel, width)
    half = width // 2 + 1
    mirror = cols > width // 2
    # half-spectrum position of each selected coefficient or of its mirror
    gather = np.where(
        mirror, (-rows % height) * half + (width - cols), rows * half + cols
    )
    # per half-spectrum position: index into append(v, 0) of the selected
    # value at k, and of the one at -k (sel.size where unselected)
    slot = np.full(height * width, sel.size)
    slot[sel] = np.arange(sel.size)
    hr, hc = np.divmod(np.arange(height * half), half)
    at_k = slot[hr * width + hc]
    at_minus_k = slot[(-hr % height) * width + (-hc % width)]

    def apply(coeffs):
        image = sparsify(coeffs.reshape(shape), transform, "inverse")
        # two passes: numpy's rfft2 timed a few percent slower at 128 x 128
        half_rows = np.fft.rfft(image, axis=1, norm="ortho")
        values = np.fft.fft(half_rows, axis=0, norm="ortho").ravel()[gather]
        return np.conjugate(values, out=values, where=mirror)

    def adjoint(values):
        padded = np.append(values, 0)
        spectrum = 0.5 * (padded[at_k] + padded[at_minus_k].conj())
        image = np.fft.irfft2(spectrum.reshape(height, half), s=shape, norm="ortho")
        return sparsify(image, transform, "forward").ravel()

    return LinearOperator(
        apply=apply,
        adjoint=adjoint,
        in_dim=height * width,
        out_dim=sel.size,
        norm_sq=1.0,
    )


@dataclass
class CsSolveReport:
    solution: np.ndarray
    iterations: int
    final_objective: float
    residual_norm: float
    objective_history: list = field(default_factory=list)


def max_eigenvalue(op: LinearOperator, iters: int = 50, seed: int = 0) -> float:
    """Largest eigenvalue of A^T A by power iteration from a seeded start.

    Returns the Rayleigh quotient at termination; a zero operator yields 0.
    """
    if iters < 10:
        raise ValueError("power iteration needs at least 10 iterations")
    v = SeededRng(seed).normal(op.in_dim)
    norm = np.linalg.norm(v)
    if norm == 0:
        return 0.0
    v = v / norm
    for _ in range(iters):
        w = np.real(op.adjoint(op.apply(v)))
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
    av = op.apply(v)
    return float(np.real(np.vdot(av, av)))


def _objective(residual, x, lam):
    return float(np.real(np.vdot(residual, residual))) + lam * float(
        np.abs(x).sum()
    )


def ista_solve(
    op: LinearOperator,
    y,
    lam: float,
    max_iter: int = 200,
    tol: float = 1e-6,
    power_iters: int = 50,
) -> CsSolveReport:
    """Iterative soft thresholding for min_x ||y - Ax||_2^2 + lam ||x||_1.

    Step size sigma = 0.95 / lambda_max(A^T A) with a 5% safety margin,
    taking lambda_max from ``op.norm_sq`` when the operator knows it and
    from a power-iteration estimate otherwise; gradient step
    b = x + sigma A^T (y - Ax), shrink at lam * sigma / 2.  Stops when the
    relative change of x drops below ``tol`` or after ``max_iter``
    iterations.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    y = np.asarray(y)
    top = op.norm_sq
    if top is None:
        top = max_eigenvalue(op, power_iters)
    if top <= 0:
        raise ValueError("operator has zero spectral norm")
    sigma = 0.95 / top
    x = np.zeros(op.in_dim)
    history = []
    iterations = 0
    residual = y - op.apply(x)
    for _ in range(max_iter):
        b = x + sigma * np.real(op.adjoint(residual))
        x_next = soft_threshold(b, lam * sigma / 2.0)
        if not np.all(np.isfinite(x_next)):
            raise NumericFailure(f"non-finite iterate at iteration {iterations}")
        step = np.linalg.norm(x_next - x)
        scale = max(np.linalg.norm(x), 1e-300)
        x = x_next
        residual = y - op.apply(x)
        history.append(_objective(residual, x, lam))
        iterations += 1
        if step / scale < tol:
            break
    return CsSolveReport(
        solution=x,
        iterations=iterations,
        final_objective=history[-1] if history else _objective(residual, x, lam),
        residual_norm=float(np.linalg.norm(residual)),
        objective_history=history,
    )


def omp_solve(a, y, k: int) -> CsSolveReport:
    """Orthogonal matching pursuit: k greedy support detections.

    Each iteration correlates the residual against all columns, picks the
    largest |correlation| (ties break to the lowest index; already-chosen
    atoms are excluded so the support grows by exactly one), then refits
    the supported coefficients by ridge least squares (eps = 1e-10) and
    recomputes the residual.  Off-support entries stay zero.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, n = a.shape
    if k > min(m, n):
        raise ValueError(f"support size {k} exceeds min(m, n) = {min(m, n)}")
    if np.any(np.linalg.norm(a, axis=0) == 0):
        raise ValueError("matrix has a zero column")
    support: list[int] = []
    x = np.zeros(n)
    residual = y.copy()
    for _ in range(k):
        corr = np.abs(a.T @ residual)
        corr[support] = -1.0  # keep the support strictly growing
        support.append(int(np.argmax(corr)))
        cols = a[:, support]
        gram = cols.T @ cols
        gram[np.diag_indices_from(gram)] += 1e-10
        coeffs = np.linalg.solve(gram, cols.T @ y)
        x = np.zeros(n)
        x[support] = coeffs
        residual = y - cols @ coeffs
    return CsSolveReport(
        solution=x,
        iterations=k,
        final_objective=float(residual @ residual),
        residual_norm=float(np.linalg.norm(residual)),
    )


def cs_reconstruct_image(
    kspace,
    mask: SamplingMask,
    transform: SparsifyingTransform,
    lam: float,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> np.ndarray:
    """Sparsity-regularized inversion of masked k-space data.

    Runs ISTA on the sparsifying-domain coefficients and synthesizes the
    recovered coefficients back to a magnitude image.
    """
    kspace = np.asarray(kspace, dtype=np.complex128)
    if kspace.shape != mask.selected.shape:
        raise ValueError(
            f"k-space shape {kspace.shape} does not match mask "
            f"{mask.selected.shape}"
        )
    op = masked_fourier_operator(mask, transform)
    y = kspace.ravel()[np.flatnonzero(mask.selected.ravel())]
    report = ista_solve(op, y, lam, max_iter, tol)
    coeffs = report.solution.reshape(mask.selected.shape)
    return np.abs(sparsify(coeffs, transform, "inverse"))
