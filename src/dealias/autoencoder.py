"""Single-layer de-aliasing autoencoder with a robust l1 reconstruction cost.

The robust trainer splits the nonsmooth objective ||X_out - W' phi(W X_in)||_1,
with phi = tanh, using two auxiliary variables (the sparse residual P and the
latent code Z), relaxes the two coupling constraints with quadratic penalties
and relaxation variables B1/B2, and cycles four exact block solves:

    P1  sparse residual   -> soft thresholding at 1/(2 lambda)
    P2  encoder weights   -> ridge least squares against phi^-1(Z - B2)
    P3  decoder weights   -> ridge least squares against X_out - P + B1
    P4  latent code       -> coupled ridge solve of both penalty terms

followed by the relaxation update B <- R ("reflective") or B <- -R
("additive"), where R = C - B are the penalized (relaxed) residuals of the
two coupling constraints: the ``coupled`` trainer.  The ``anchored`` one,
:func:`fit_l1_decoder`, freezes Z at the random features F = phi(W_0 X_in)
of the seeded initial encoder and cycles P1, P3 (F F^T + eps I inverted
once) and the B1 update, in float32, from the ridge decoder on F: scaled
ADMM for one least-absolute-deviation regression per output pixel (Boyd et
al. 2011, section 6.1).  An l2 gradient-descent trainer with the same
architecture is the non-robust baseline.  Its epochs run their products
and workspace in float32 and keep the loss sums, gradients, weights and
model in float64.
"""

from __future__ import annotations

import contextvars
import functools
import operator
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FormatError,
    NumericFailure,
    SeededRng,
    atomic_write_bytes,
    encode_tensor,
    read_tensor,
    require_integer,
)

BREGMAN_UPDATES = ("reflective", "additive")
LATENT_UPDATES = ("coupled", "anchored")
CLAMP_EPS = 1e-6  # margin that keeps the inverse activation finite
SLAB_ENTRIES = 1 << 16  # entries per row slab of the cycle's d x N passes


# ---------------------------------------------------------------------------
# activation and shared numeric kernels
# ---------------------------------------------------------------------------


def activate(values, direction: str = "forward"):
    """Elementwise tanh, the model's nonlinearity phi, or its inverse.

    The inverse is made total by clamping its argument ``CLAMP_EPS`` inside
    tanh's open range, to [-1+eps, 1-eps], so out-of-range targets produce
    large but finite pre-activations.
    """
    arr = np.asarray(values, dtype=np.float64)
    if direction == "forward":
        return np.tanh(arr)
    if direction == "inverse":
        return np.arctanh(np.clip(arr, -1.0 + CLAMP_EPS, 1.0 - CLAMP_EPS))
    raise ValueError(f"unknown direction: {direction!r}")


def soft_threshold(values, tau: float):
    """Proximal map of the l1 norm: sign(v) * max(0, |v| - tau)."""
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(values, dtype=np.float64)
    return np.sign(arr) * np.maximum(np.abs(arr) - tau, 0.0)


def solve_ridge_least_squares(a, b, ridge_eps: float = 1e-6, side: str = "left"):
    """Ridge-stabilized linear least squares.

    side="left"  solves  min_X ||B - X A||_F^2  via  X = B A^T (A A^T + eps I)^-1
    side="right" solves  min_X ||B - A X||_F^2  via  X = (A^T A + eps I)^-1 A^T B

    Both are a product with the explicit inverse from :func:`_gram_inverse`,
    as the trainer's ridge blocks take them.  The ridge keeps the Gram matrix
    invertible for rank-deficient systems, so the result is always finite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if side == "left":
        return (b @ a.T) @ _gram_inverse(a, ridge_eps)
    if side == "right":
        return _gram_inverse(a.T, ridge_eps) @ (a.T @ b)
    raise ValueError(f"unknown side: {side!r}")


def _gram_inverse(a, ridge_eps):
    """(a a^T + eps I)^-1, from numpy's LAPACK, so that the products and
    the inverse share numpy's one OpenBLAS thread pool."""
    gram = a @ a.T
    gram[np.diag_indices_from(gram)] += ridge_eps
    return np.linalg.inv(gram)


def _row_slabs(shape):
    """The fixed row slabs of a 2-d array: runs of whole rows of about
    ``SLAB_ENTRIES`` entries (one row if a row is longer).  They depend on
    the shape alone, never on the machine."""
    rows, cols = shape
    step = max(1, SLAB_ENTRIES // max(cols, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _over_slabs(kernel, shape):
    """Run ``kernel(rows)`` on every row slab of a ``shape`` array and add
    the floats it returns in slab order, so the total is the same on any
    number of cores.

    The slabs are shared out on demand among the calling thread and a
    short-lived pool, one thread per further usable core; an array of one
    slab runs inline.  ``kernel`` may call numpy ufuncs only (they release
    the GIL): no BLAS, which threads itself, and no function that
    perfbench traces, since its tracer keeps one span stack.
    """
    slabs = _row_slabs(shape)
    partials = [0.0] * len(slabs)
    pending = iter(range(len(slabs)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            partials[index] = kernel(slabs[index])

    helpers = min(_usable_cores(), len(slabs)) - 1
    if helpers > 0:
        with ThreadPoolExecutor(helpers) as pool:
            # each helper runs in a copy of the caller's context, np.errstate included
            futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
            drain()
        for future in futures:
            future.result()
    else:
        drain()
    return functools.reduce(operator.add, partials)


def _slab_sum(arr):
    """arr.sum() taken slab by slab in float64, as the fused passes of the
    cycle take it."""
    return _over_slabs(lambda rows: float(arr[rows].sum(dtype=np.float64)), arr.shape)


# ---------------------------------------------------------------------------
# model and training containers
# ---------------------------------------------------------------------------


@dataclass
class AutoencoderModel:
    """Encoder/decoder weight pair.

    ``w_enc`` is hidden x (d+1); its last column multiplies the constant
    bias input appended to every sample.  ``w_dec`` is d x hidden.
    """

    w_enc: np.ndarray
    w_dec: np.ndarray

    def __post_init__(self):
        self.w_enc = np.asarray(self.w_enc, dtype=np.float64)
        self.w_dec = np.asarray(self.w_dec, dtype=np.float64)
        if self.w_enc.ndim != 2 or self.w_dec.ndim != 2:
            raise ValueError("weights must be matrices")
        if self.w_enc.shape != (self.w_dec.shape[1], self.w_dec.shape[0] + 1):
            raise ValueError(
                f"inconsistent shapes: w_enc {self.w_enc.shape}, "
                f"w_dec {self.w_dec.shape}"
            )
        if not (np.all(np.isfinite(self.w_enc)) and np.all(np.isfinite(self.w_dec))):
            raise ValueError("weights must be finite")

    @property
    def input_dim(self) -> int:
        return self.w_dec.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_dec.shape[1]

    def encode(self, x):
        xb = append_bias(np.asarray(x, dtype=np.float64), self.input_dim)
        return activate(self.w_enc @ xb)

    def forward(self, x):
        """Map length-d vectors (or d x N batches) through the autoencoder."""
        single = np.asarray(x).ndim == 1
        out = self.w_dec @ self.encode(x)
        return out[:, 0] if single else out


def append_bias(x, input_dim):
    arr = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if arr.shape[0] == 1 and input_dim != 1:
        arr = arr.T
    if arr.shape[0] != input_dim:
        raise ValueError(f"expected {input_dim} rows, got {arr.shape[0]}")
    return np.vstack([arr, np.ones((1, arr.shape[1]))])


@dataclass
class TrainingSet:
    """Paired patch matrices, one sample per column.

    ``x_in`` is (d+1) x N with a bottom row of ones (the bias input);
    ``x_out`` is d x N of clean targets aligned columnwise with ``x_in``.
    Both are stored C-contiguous float64, whatever layout they arrive in.
    """

    x_in: np.ndarray
    x_out: np.ndarray

    def __post_init__(self):
        self.x_in = np.ascontiguousarray(self.x_in, dtype=np.float64)
        self.x_out = np.ascontiguousarray(self.x_out, dtype=np.float64)
        if self.x_in.ndim != 2 or self.x_out.ndim != 2:
            raise ValueError("training matrices must be 2-d")
        if self.x_in.shape[1] != self.x_out.shape[1] or self.x_in.shape[1] < 1:
            raise ValueError("inputs and targets must pair columnwise, N >= 1")
        if self.x_in.shape[0] != self.x_out.shape[0] + 1:
            raise ValueError("x_in must carry exactly one bias row")
        if not np.array_equal(self.x_in[-1], np.ones(self.x_in.shape[1])):
            raise ValueError("bias row must be exactly one")

    @classmethod
    def from_arrays(cls, inputs, targets):
        """Build from d x N inputs (bias row appended here) and targets."""
        inputs = np.asarray(inputs, dtype=np.float64)
        return cls(append_bias(inputs, inputs.shape[0]), targets)

    @property
    def inputs(self):
        """Input matrix without the bias row."""
        return self.x_in[:-1]

    @property
    def count(self) -> int:
        return self.x_in.shape[1]


@dataclass
class SplitBregmanState:
    """Auxiliary and relaxation variables of the robust trainer.  It holds
    no settings: the blocks and the objective read them from the
    ``TrainConfig`` they are passed.

    The state :func:`fit_l1_decoder` returns has Z = F and no B2, since
    its second constraint holds exactly.  The blocks serve the coupled
    trainer, which owns these arrays and updates P, B1 and B2 in place.
    They hand products down in cycle order, P1 -> P2 -> P3 -> P4 ->
    relaxation update, and a block forms a product it does not find:

    - ``work``, the one d x N scratch array of the cycle, holds what
      ``holds`` names: ``"gap"`` = X_out - W_dec Z, which the relaxation
      update forms and the next cycle's P1 reads, or ``"target"``, the
      decoder target X_out - P + B1 that P1 writes over the gap and P3 and
      P4 read through :meth:`decoder_target`;
    - ``encoded`` = phi(W_enc X_in), formed by P4 and read by the
      relaxation update; P2 drops it with the W_enc it came from;
    - ``input_inverse`` = (X_in X_in^T + eps I)^-1, formed by P2 on first use.

    Any sequence of blocks keeps these right, since each block drops or
    rewrites what its own writes invalidate.  A caller that replaces an
    array mid-run builds a new state from the arrays, which forms the
    products afresh.  The state keeps no sums, and :func:`penalty_objective`
    only reads it.  ``work`` is allocated on first use, and
    :func:`train_robust` lets it and ``input_inverse`` go when it returns.
    """

    p: np.ndarray
    z: np.ndarray
    b1: np.ndarray
    b2: np.ndarray | None
    iteration: int = 0
    objective_history: list = field(default_factory=list)
    encoded: np.ndarray | None = field(default=None, repr=False)
    input_inverse: np.ndarray | None = field(default=None, repr=False)
    work: np.ndarray | None = field(default=None, repr=False)
    holds: str | None = field(default=None, repr=False)

    def scratch(self, holds):
        """The work array, for a block about to write ``holds`` into it."""
        if self.work is None:
            self.work = np.empty_like(self.p)
        self.holds = holds
        return self.work

    def decoder_target(self, tset):
        """X_out - P + B1, built in the work array unless it is there."""
        if self.holds != "target":
            np.subtract(tset.x_out, self.p, out=self.scratch("target"))
            self.work += self.b1
        return self.work


@dataclass
class TrainConfig:
    """Robust-trainer and l2-baseline settings.

    ``latent_update`` picks the robust trainer: ``coupled`` cycles P1-P4;
    ``anchored`` fits the decoder alone on the fixed features phi(W_0 X_in)
    and has no ``mu`` term.  The field defaults are the trainer defaults
    of ``config.DEFAULTS``, which reads them from here through
    ``config.TRAIN_FIELDS`` and coerces each key to its default's type, so
    a float default is written as a float.
    """

    hidden: int = 256
    lam: float = 1.0
    mu: float = 1.0
    max_iter: int = 500
    rel_tol: float = 1e-4
    ridge_eps: float = 1e-6
    bregman_update: str = "reflective"
    latent_update: str = "coupled"
    seed: int = 0
    learning_rate: float = 1e-4  # l2 baseline only
    epochs: int = 200  # l2 baseline only

    def __post_init__(self):
        for name in ("hidden", "max_iter", "epochs", "seed"):
            require_integer(name, getattr(self, name))
        # written so that NaN fails every check
        if self.hidden < 1 or self.max_iter < 1 or self.epochs < 0:
            raise ValueError("hidden and max_iter must be positive, epochs nonnegative")
        if not all(0 < v < np.inf for v in (self.lam, self.mu, self.ridge_eps)):
            raise ValueError("lam, mu, ridge_eps must be positive and finite")
        if not self.rel_tol >= 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.bregman_update not in BREGMAN_UPDATES:
            raise ValueError(f"unknown bregman_update: {self.bregman_update!r}")
        if self.latent_update not in LATENT_UPDATES:
            raise ValueError(f"unknown latent_update: {self.latent_update!r}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be nonnegative and finite")


# ---------------------------------------------------------------------------
# robust split trainer
# ---------------------------------------------------------------------------


def penalty_objective(model, tset, state, config) -> float:
    """Relaxed training objective ||P||_1 + lam ||R1||_F^2 + mu ||R2||_F^2,
    without the mu term when the state has no B2 (anchored runs), where
    R1 = P - (X_out - W_dec Z) - B1 and R2 = Z - phi(W_enc X_in) - B2 are
    the relaxed residuals of the two coupling constraints.

    A reference formula for an objective taken between blocks: it reads
    the state, writes nothing to it and works in temporaries of its own.
    The two d x N sums are added slab by slab, as the cycle adds them.
    """
    r1 = state.p - (tset.x_out - model.w_dec @ state.z)
    r1 -= state.b1
    objective = _slab_sum(np.abs(state.p)) + config.lam * _slab_sum(np.square(r1, out=r1))
    if state.b2 is not None:
        r2 = state.z - activate(model.w_enc @ tset.x_in)
        r2 -= state.b2
        objective += config.mu * float((r2 * r2).sum())
    return objective


def objective_l1(model, tset) -> float:
    """Entrywise l1 reconstruction cost sum |X_out - W_dec phi(W_enc X_in)|."""
    return float(np.abs(tset.x_out - model.forward(tset.inputs)).sum())


def sparse_residual_pass(work, p, b1, x_out, lam):
    """P1's pass over the row slabs, in both trainers: v = gap + B1 replaces
    the gap X_out - W_dec Z in ``work``, P = soft(v, 1/(2 lam)), whose
    ||P||_1 is summed before the sign of v is applied, and the decoder
    target X_out - P + B1 replaces v.  Returns ||P||_1, summed in float64
    and added in slab order.
    """
    tau = 1.0 / (2.0 * lam)

    def slab(rows):
        v = np.add(work[rows], b1[rows], out=work[rows])
        shrunk = np.abs(v, out=p[rows])
        shrunk -= tau
        np.maximum(shrunk, 0.0, out=shrunk)
        l1 = float(shrunk.sum(dtype=np.float64))
        # np.sign in place takes a branchy loop, slower the more often the
        # sign of v flips; into a slab-sized temporary it does not
        np.multiply(np.sign(v), shrunk, out=shrunk)
        target = np.subtract(x_out[rows], shrunk, out=v)
        target += b1[rows]
        return l1

    return _over_slabs(slab, p.shape)


def relaxation_pass(gap, p, b1, x_out, bregman_update):
    """The B1 update's pass over the row slabs, in both trainers: the gap
    X_out - W_dec Z replaces W_dec Z in ``gap`` (for the next P1), then
    C1 = P - gap in a slab-sized temporary and :func:`_relax`.  Returns
    ||B1||^2, the objective's lam term, summed in float64 and added in
    slab order.
    """

    def slab(rows):
        np.subtract(x_out[rows], gap[rows], out=gap[rows])
        c1 = np.subtract(p[rows], gap[rows])
        b = _relax(c1, b1[rows], bregman_update)
        return float(np.multiply(b, b, out=c1).sum(dtype=np.float64))

    return _over_slabs(slab, b1.shape)


def _relax(c, b, bregman_update):
    """B <- C - B = R ("reflective") or B <- B - C = -R ("additive"), in
    place; B - C (not -R) keeps exact zeros positive."""
    return np.subtract(c, b, out=b) if bregman_update == "reflective" else np.subtract(b, c, out=b)


def _record(state, objective, *weights):
    """Append a cycle's objective once it and ``weights`` are finite."""
    if not (np.isfinite(objective) and all(np.all(np.isfinite(w)) for w in weights)):
        raise NumericFailure(f"non-finite update at iteration {state.iteration}")
    state.iteration += 1
    state.objective_history.append(objective)


def update_sparse_residual(model, tset, state, config):
    """P1: the exact prox step :func:`sparse_residual_pass`, after which the
    state holds the decoder target.  A state that does not hold the gap
    forms it first, W_dec Z subtracted from X_out in place.  Returns ||P||_1.
    """
    if state.holds != "gap":
        gap = np.matmul(model.w_dec, state.z, out=state.scratch("gap"))
        np.subtract(tset.x_out, gap, out=gap)
    return sparse_residual_pass(state.scratch("target"), state.p, state.b1, tset.x_out, config.lam)


def update_encoder(model, tset, state, config):
    """P2: W_enc = phi^-1(Z - B2) X_in^T (G + eps I)^-1 with G = X_in X_in^T,
    whose (iteration invariant) inverse the state keeps.  It drops the
    state's phi(W_enc X_in), which the old W_enc gave.
    """
    target = activate(state.z - state.b2, "inverse")
    if state.input_inverse is None:
        state.input_inverse = _gram_inverse(tset.x_in, config.ridge_eps)
    model.w_enc = (target @ tset.x_in.T) @ state.input_inverse
    state.encoded = None


def update_decoder(model, tset, state, config):
    """P3: ``solve_ridge_least_squares(Z, X_out - P + B1, eps)``, with the
    target left in the work array for P4."""
    model.w_dec = solve_ridge_least_squares(state.z, state.decoder_target(tset), config.ridge_eps)


def update_latent(model, tset, state, config):
    """P4: the latent code solve that minimizes both penalty terms jointly,

        (lam W_dec^T W_dec + (mu + eps) I) Z = lam W_dec^T M + mu N

    with M = X_out - P + B1 and N = phi(W_enc X_in) + B2, which is the
    exact block minimizer of the relaxed objective over Z.  The Gram
    matrix changes every cycle, so it is solved, not inverted, and Z comes
    back C-contiguous.  It keeps phi(W_enc X_in) in the state, where the
    relaxation update finds it, and needs the state's B2 whatever
    ``config.latent_update`` says.
    """
    anchor = state.encoded = activate(model.w_enc @ tset.x_in)
    gram = config.lam * (model.w_dec.T @ model.w_dec)
    gram[np.diag_indices_from(gram)] += config.mu + config.ridge_eps
    rhs = config.lam * (model.w_dec.T @ state.decoder_target(tset))
    rhs += config.mu * (anchor + state.b2)
    state.z = np.linalg.solve(gram, rhs)


def update_relaxation(model, tset, state, config):
    """Relaxation-variable update closing one cycle, B <- R or -R (see
    :func:`_relax`) for C1 = P - (X_out - W_dec Z) and C2 = Z - phi(W_enc X_in):
    :func:`relaxation_pass` after the product W_dec Z in the work array,
    which then holds the gap, and B2 on whole h x N arrays.  Returns ||B1||^2.
    """
    gap = np.matmul(model.w_dec, state.z, out=state.scratch("gap"))
    b1_sq = relaxation_pass(gap, state.p, state.b1, tset.x_out, config.bregman_update)
    if state.encoded is None:
        state.encoded = activate(model.w_enc @ tset.x_in)
    _relax(state.z - state.encoded, state.b2, config.bregman_update)
    return b1_sq


def split_bregman_step(model, tset, state, config):
    """One coupled training cycle: P1 -> P2 -> P3 -> P4 -> relaxation update.

    The relaxation update leaves B = R or -R, so the objective appended
    to ``state.objective_history``, the :func:`penalty_objective` of the
    state the relaxation update found, is ||P||_1 from P1, ||B1||^2 from
    the relaxation update and the mu term from B2.  Returns (model, state).
    """
    p_l1 = update_sparse_residual(model, tset, state, config)
    update_encoder(model, tset, state, config)
    update_decoder(model, tset, state, config)
    update_latent(model, tset, state, config)
    b1_sq = update_relaxation(model, tset, state, config)
    objective = p_l1 + config.lam * b1_sq + config.mu * float((state.b2 * state.b2).sum())
    _record(state, objective, model.w_enc, model.w_dec)
    return model, state


def fit_l1_decoder(features, targets, config):
    """The anchored trainer: the l1 fit of a decoder on fixed h x N
    features F.  It inverts F F^T + eps I once and starts from the ridge
    decoder W_r = X_out F^T (F F^T + eps I)^-1, one d x h x N product
    against that inverse (the least absolute deviations ADMM of Boyd et
    al., 2011, section 6.1, started from the least squares fit).  It then
    cycles P1, P3 against the inverse and the B1 update in one d x N work
    array, recording ||P||_1 + lam ||B1||^2, under :func:`train_robust`'s
    stopping rule.  Returns the decoder and a state with Z = F and no B2.

    The fit runs in F's dtype: its copy of the targets, P, B1, the work
    array and the decoder it multiplies F by take it, and the objective's
    sums are float64.  The inverse, formed from F upcast, and the decoder
    step's h x h product stay float64, since F F^T + eps I can be too ill
    conditioned for float32 (condition number 1.6e8 at h=4096 on 9310
    patches).  The decoder comes back float64 and C-contiguous, and on
    float64 features nothing is cast.
    """
    dtype = features.dtype
    targets = targets.astype(dtype, copy=False)
    state = SplitBregmanState(np.empty_like(targets), features, np.zeros_like(targets), None)
    inverse = _gram_inverse(features.astype(np.float64, copy=False), config.ridge_eps)
    w_dec = (targets @ features.T).astype(np.float64, copy=False) @ inverse
    work = np.matmul(w_dec.astype(dtype, copy=False), features)
    np.subtract(targets, work, out=work)
    for _ in range(config.max_iter):
        p_l1 = sparse_residual_pass(work, state.p, state.b1, targets, config.lam)
        w_dec = (work @ features.T).astype(np.float64, copy=False) @ inverse
        np.matmul(w_dec.astype(dtype, copy=False), features, out=work)
        b1_sq = relaxation_pass(work, state.p, state.b1, targets, config.bregman_update)
        _record(state, p_l1 + config.lam * b1_sq, w_dec)
        if _window_converged(state.objective_history, config.rel_tol):
            break
    return w_dec, state


def _initial_weights(d, config):
    rng = SeededRng(config.seed)
    w_enc = rng.normal((config.hidden, d + 1)) / np.sqrt(d + 1)
    w_dec = rng.normal((d, config.hidden)) / np.sqrt(config.hidden)
    return AutoencoderModel(w_enc, w_dec)


def _window_converged(history, rel_tol, window=5):
    if len(history) < window:
        return False
    recent = history[-window:]
    for prev, cur in zip(recent, recent[1:]):
        denom = max(abs(prev), 1e-300)
        if abs(cur - prev) / denom >= rel_tol:
            return False
    return True


def train_robust(tset: TrainingSet, config: TrainConfig):
    """Train the l1-cost autoencoder.

    Initializes weights from seeded Gaussians scaled by 1/sqrt(fan-in).
    An anchored run keeps W_0 and fits the decoder on F = phi(W_0 X_in),
    cast to float32, by :func:`fit_l1_decoder`, which starts from the
    ridge decoder at the cost of one extra d x h x N product, not from the
    drawn W_dec.  A coupled run starts from the drawn weights, Z = F,
    B1 = 0 and B2 = 0 (P1 writes P before anything reads it) and iterates
    :func:`split_bregman_step` until the relative objective change stays
    below ``rel_tol`` across a window of five objective values or
    ``max_iter`` cycles are done.  Returns the trained model together with
    the final solver state.
    """
    model = _initial_weights(tset.x_out.shape[0], config)
    z = model.w_enc @ tset.x_in
    np.tanh(z, out=z)  # phi in place: one h x N float64 array, not two
    if config.latent_update == "anchored":
        # the fit's d x N passes are memory-bound: in float32 they move half the bytes
        z = z.astype(np.float32)
        model.w_dec, state = fit_l1_decoder(z, tset.x_out, config)
        return model, state
    x_out = tset.x_out
    state = SplitBregmanState(np.empty_like(x_out), z, np.zeros_like(x_out), np.zeros_like(z))
    for _ in range(config.max_iter):
        split_bregman_step(model, tset, state, config)
        if _window_converged(state.objective_history, config.rel_tol):
            break
    # the d x N scratch and the (d+1)^2 inverse stay with the trainer
    state.work = state.holds = state.input_inverse = None
    return model, state


# ---------------------------------------------------------------------------
# l2 gradient-descent baseline
# ---------------------------------------------------------------------------


def l2_workspace(model, tset, dtype=np.float64):
    """The arrays :func:`l2_loss_and_grads` fills, in ``dtype``: the d x N
    residual and two h x N arrays, the codes Z and the back-propagated
    hidden error.  The l2 trainers ask for float32."""
    hidden_shape = (model.hidden, tset.count)
    return (
        np.empty(tset.x_out.shape, dtype),
        np.empty(hidden_shape, dtype),
        np.empty(hidden_shape, dtype),
    )


def l2_loss_and_grads(model, tset, buffers=None, x_in=None):
    """Squared-error loss and its exact weight gradients.

    The products are written into ``buffers`` (see :func:`l2_workspace`;
    fresh ones if None): Z = tanh(W_enc X_in) in place, then the residual
    R = W_dec Z - X_out, whose sum of squares (the loss) is taken in the
    same pass over its row slabs, and (W_dec^T R) * (1 - Z^2) in a second
    pass, which overwrites Z once W_dec's gradient is formed.  Doubling the
    two gradients rather than R is exact, so they have the bits of the
    plain expression with 2R.

    ``x_in`` is X_in in the dtype the products run in (``tset.x_in``,
    float64, if None), and the buffers share that dtype.  The weights are
    cast to it, and the residual pass subtracts the float64 X_out from the
    product, so X_out is not copied.  Each slab of the residual is squared
    and summed in float64, and the loss and both gradients come back
    float64.  On a float64 ``TrainingSet`` with no ``x_in`` nothing is cast.
    """
    x_in = tset.x_in if x_in is None else x_in
    dtype = x_in.dtype
    residual, z, hidden = l2_workspace(model, tset, dtype) if buffers is None else buffers
    w_dec = model.w_dec.astype(dtype, copy=False)
    np.tanh(np.matmul(model.w_enc.astype(dtype, copy=False), x_in, out=z), out=z)
    np.matmul(w_dec, z, out=residual)
    x_out = tset.x_out

    def residual_slab(rows):
        r = np.subtract(residual[rows], x_out[rows], out=residual[rows])
        return float(np.square(r, dtype=np.float64).sum())

    loss = _over_slabs(residual_slab, residual.shape)
    g_dec = (residual @ z.T).astype(np.float64, copy=False)
    g_dec *= 2.0
    np.matmul(w_dec.T, residual, out=hidden)

    def hidden_slab(rows):
        slope = np.multiply(z[rows], z[rows], out=z[rows])
        np.subtract(1.0, slope, out=slope)
        np.multiply(hidden[rows], slope, out=hidden[rows])
        return 0.0

    _over_slabs(hidden_slab, hidden.shape)
    g_enc = (hidden @ x_in.T).astype(np.float64, copy=False)
    g_enc *= 2.0
    return loss, g_enc, g_dec


def train_l2_baseline(tset: TrainingSet, config: TrainConfig) -> AutoencoderModel:
    """Full-batch gradient descent on the Euclidean reconstruction cost.

    Runs ``config.epochs`` epochs from the robust trainer's seeded
    initialization.  Raises :class:`NumericFailure` if the loss exceeds 1e6
    times its initial value (divergence guard).
    """
    return _l2_descent(tset, config, lambda epoch, _: epoch >= config.epochs)[0]


def train_l2_timed(tset: TrainingSet, config: TrainConfig, budget_seconds: float):
    """Gradient descent in blocks of 25 epochs until a wall-clock budget is
    spent; returns (model, epochs)."""

    def spent(epoch, seconds):
        return epoch % 25 == 0 and seconds >= budget_seconds

    return _l2_descent(tset, config, spent)


def _l2_descent(tset, config, stop):
    """The l2 trainers' loop; runs until ``stop(epochs, seconds)`` is true."""
    model = _initial_weights(tset.x_out.shape[0], config)
    # the five products of an epoch run in float32 (sgemm); the weights,
    # their update and the returned model stay float64
    x_in = tset.x_in.astype(np.float32)
    buffers = l2_workspace(model, tset, np.float32)
    initial = None
    epoch = 0
    start = time.perf_counter()
    while not stop(epoch, time.perf_counter() - start):
        loss, g_enc, g_dec = l2_loss_and_grads(model, tset, buffers, x_in)
        if initial is None:
            initial = loss
        if not np.isfinite(loss) or loss > 1e6 * max(initial, 1e-300):
            raise NumericFailure(f"l2 training diverged at epoch {epoch}")
        model.w_enc = model.w_enc - config.learning_rate * g_enc
        model.w_dec = model.w_dec - config.learning_rate * g_dec
        epoch += 1
    return model, epoch


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

_FORMAT_VERSION = "1"


def save_model(model: AutoencoderModel, path) -> None:
    """Persist a model bundle: manifest.txt + w_enc.rdt + w_dec.rdt.  Both
    tensors are encoded and checked before any file is written, so a
    failed save leaves an existing bundle as it was."""
    manifest = (
        "activation=tanh\n"
        f"d={model.input_dim}\n"
        f"hidden={model.hidden}\n"
        f"format_version={_FORMAT_VERSION}\n"
    )
    blobs = {
        "manifest.txt": manifest.encode("ascii"),
        "w_enc.rdt": encode_tensor(model.w_enc),
        "w_dec.rdt": encode_tensor(model.w_dec),
    }
    os.makedirs(path, exist_ok=True)
    for name, blob in blobs.items():
        atomic_write_bytes(os.path.join(path, name), blob)


def load_model(path) -> AutoencoderModel:
    """Load a model bundle; the manifest is authoritative for metadata, and
    a bundle of any activation but tanh or any format version but
    ``_FORMAT_VERSION`` is refused."""
    manifest_path = os.path.join(path, "manifest.txt")
    try:
        with open(manifest_path, "r", encoding="ascii") as fh:
            pairs = dict(
                line.strip().split("=", 1) for line in fh if line.strip()
            )
    except (OSError, ValueError) as exc:
        raise FormatError(f"unreadable manifest {manifest_path}: {exc}") from exc
    required = {"activation", "d", "hidden", "format_version"}
    if set(pairs) != required:
        raise FormatError(f"manifest keys {sorted(pairs)} != {sorted(required)}")
    for key, supported in (("activation", "tanh"), ("format_version", _FORMAT_VERSION)):
        if pairs[key] != supported:
            raise FormatError(f"unsupported {key} {pairs[key]!r} in {manifest_path}")
    try:
        d, hidden = int(pairs["d"]), int(pairs["hidden"])
    except ValueError as exc:
        raise FormatError(f"non-integer d or hidden in {manifest_path}: {exc}") from exc
    try:
        w_enc = read_tensor(os.path.join(path, "w_enc.rdt"))
        w_dec = read_tensor(os.path.join(path, "w_dec.rdt"))
    except OSError as exc:
        raise FormatError(f"missing model tensor in {path}: {exc}") from exc
    if w_enc.shape != (hidden, d + 1) or w_dec.shape != (d, hidden):
        raise FormatError(
            f"tensor shapes {w_enc.shape}/{w_dec.shape} disagree with manifest "
            f"(d={d}, hidden={hidden})"
        )
    return AutoencoderModel(w_enc, w_dec)
