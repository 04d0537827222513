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
two coupling constraints: the ``coupled`` trainer.  The ``anchored`` one
freezes Z at the random features F = phi(W_0 X_in) of the seeded initial
encoder, so it has no B2, P2, P4 or mu term, and cycles P1, P3 (F F^T + eps I
factored once) and the B1 update: scaled ADMM for one least-absolute-deviation
regression per output pixel (Boyd et al. 2011, section 6.1).  An l2
gradient-descent trainer with the same architecture is the non-robust baseline.
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
import scipy.linalg

from .core import (
    FormatError,
    NumericFailure,
    SeededRng,
    atomic_write_bytes,
    read_tensor,
    require_integer,
    write_tensor,
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

    The ridge keeps the Gram matrix invertible for rank-deficient systems,
    so the result is always finite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if side == "left":
        return scipy.linalg.cho_solve(_gram_factor(a, ridge_eps), a @ b.T).T
    if side == "right":
        return scipy.linalg.cho_solve(_gram_factor(a.T, ridge_eps), a.T @ b)
    raise ValueError(f"unknown side: {side!r}")


def _gram_factor(a, ridge_eps):
    """Cholesky factor of the ridge-stabilized Gram matrix a a^T + eps I."""
    gram = a @ a.T
    gram[np.diag_indices_from(gram)] += ridge_eps
    return scipy.linalg.cho_factor(gram)


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
    """arr.sum() taken slab by slab, as the fused passes of the cycle take it."""
    return _over_slabs(lambda rows: float(arr[rows].sum()), arr.shape)


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

    ``b2`` is None in anchored runs: their Z is the fixed phi(W_0 X_in), so
    the second constraint holds exactly.  The cycle then runs no P2 or P4,
    and leaves C2, R2 and the mu term out.

    The trainer owns these arrays and updates P, B1 and B2 in place, so a
    caller that changes one replaces it rather than writing into it.  The
    state also keeps products of the cycle, each with the arrays it was
    computed from, and a block reuses a product only while exactly those
    arrays (by identity) are current:

    - ``gap`` = X_out - W_dec Z, formed by the relaxation update and
      reused by the next cycle's P1;
    - ``encoded`` = phi(W_enc X_in), computed by P4 and reused by the
      relaxation update; an anchored Z is this array itself;
    - ``grams``, the Cholesky factors of A A^T + eps I that the ridge
      blocks solve with: ``"input"`` (A = X_in) for P2, factored once per
      run, and ``"feature"`` (A = Z) for P3, factored once in an anchored
      run; a coupled P4 drops the latter with the Z it came from;
    - ``work``, one d x N scratch array shared by the blocks, as the
      decoder target X_out - P + B1 that P1 forms and P3 and a coupled P4
      read through :meth:`decoder_target`;
    - ``p_l1`` = ||P||_1, summed by P1;
    - ``b1_sq`` = ||B1||_F^2, summed by the relaxation update for the
      objective that follows it.

    A block that writes the work array, P or B1 drops the entries of
    ``sources`` it invalidates.  The two sums are added slab by slab (see
    :func:`_over_slabs`), wherever they are taken.  ``gap`` and ``work``
    are allocated on first use, and :func:`train_robust` lets them and
    ``grams`` go when it returns.
    """

    p: np.ndarray
    z: np.ndarray
    b1: np.ndarray
    b2: np.ndarray | None
    iteration: int = 0
    objective_history: list = field(default_factory=list)
    gap: np.ndarray | None = field(default=None, repr=False)
    encoded: np.ndarray | None = field(default=None, repr=False)
    grams: dict = field(default_factory=dict, repr=False)
    work: np.ndarray | None = field(default=None, repr=False)
    p_l1: float = field(default=0.0, repr=False)
    b1_sq: float = field(default=0.0, repr=False)
    sources: dict = field(default_factory=dict, repr=False)

    def computed_from(self, name, *arrays) -> bool:
        """True while the kept value ``name`` comes from exactly ``arrays``."""
        had = self.sources.get(name, ())
        return len(had) == len(arrays) and all(map(operator.is_, had, arrays))

    def scratch(self):
        """The work array, for a block about to overwrite it."""
        if self.work is None:
            self.work = np.empty_like(self.p)
        self.sources.pop("work", None)
        return self.work

    def gap_for(self, model, tset):
        """X_out - W_dec Z; W_dec Z is formed in the work array."""
        sources = (tset.x_out, model.w_dec, self.z)
        if not self.computed_from("gap", *sources):
            product = np.matmul(model.w_dec, self.z, out=self.scratch())
            self.gap = np.subtract(tset.x_out, product, out=self.gap)
            self.sources["gap"] = sources
        return self.gap

    def encoded_for(self, model, tset):
        """phi(W_enc X_in)."""
        sources = (tset.x_in, model.w_enc)
        if not self.computed_from("encoded", *sources):
            self.encoded = activate(model.w_enc @ tset.x_in)
            self.sources["encoded"] = sources
        return self.encoded

    def gram_for(self, name, a, ridge_eps):
        """Cholesky factor of a a^T + eps I, kept as ``grams[name]``."""
        sources = (a, ridge_eps)
        if not self.computed_from(name, *sources):
            self.grams[name] = _gram_factor(a, ridge_eps)
            self.sources[name] = sources
        return self.grams[name]

    def decoder_target(self, tset):
        """X_out - P + B1, built in the work array unless it is still there."""
        sources = (tset.x_out, self.p, self.b1)
        if not self.computed_from("work", *sources):
            np.subtract(tset.x_out, self.p, out=self.scratch())
            self.work += self.b1
            self.sources["work"] = sources
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


def constraint_residuals(model, tset, state):
    """C1 = P - (X_out - W_dec Z) and C2 = Z - phi(W_enc X_in), the
    residuals of the two coupling constraints, for an objective taken
    between blocks (the relaxation update forms its own in its slab pass).
    The penalties act on the relaxed residuals R = C - B.

    Both products come from the state and are recomputed only if stale.
    C1 is written into the work array, so it holds until the next block
    writes there.  C2 is None when the state has no B2 (anchored runs).
    """
    gap = state.gap_for(model, tset)
    c1 = np.subtract(state.p, gap, out=state.scratch())
    if state.b2 is None:
        return c1, None
    return c1, state.z - state.encoded_for(model, tset)


def penalty_objective(model, tset, state, config, residuals=None) -> float:
    """Relaxed training objective ||P||_1 + lam ||R1||_F^2 + mu ||R2||_F^2,
    without the mu term when the state has no B2 (anchored runs).

    ``residuals`` may carry (R1, R2) already evaluated at the current
    state, or their negatives: right after the relaxation update B is one
    or the other.  R2 is None without B2.
    """
    if residuals is None:
        c1, c2 = constraint_residuals(model, tset, state)
        r2 = None if c2 is None else c2 - state.b2
        residuals = np.subtract(c1, state.b1, out=c1), r2
    r1, r2 = residuals
    if r1 is state.b1 and state.computed_from("b1_sq", r1):
        r1_squared = state.b1_sq
    else:
        r1_squared = _slab_sum(np.multiply(r1, r1, out=state.scratch()))
    if not state.computed_from("p_l1", state.p):
        state.p_l1 = _slab_sum(np.abs(state.p, out=state.scratch()))
        state.sources["p_l1"] = (state.p,)
    objective = state.p_l1 + config.lam * r1_squared
    if r2 is not None:
        objective += config.mu * float((r2 * r2).sum())
    return objective


def objective_l1(model, tset) -> float:
    """Entrywise l1 reconstruction cost sum |X_out - W_dec phi(W_enc X_in)|."""
    return float(np.abs(tset.x_out - model.forward(tset.inputs)).sum())


def update_sparse_residual(model, tset, state, config):
    """P1: exact prox step, soft thresholding at tau = 1/(2 lam), into P,
    fused with the decoder target X_out - P + B1 of P3.

    One pass over the row slabs: v = gap + B1 is formed in the work array
    and max(|v| - tau, 0) in P, whose sum is the slab's share of ||P||_1
    exactly, so it is taken before the sign of v is applied.  The target
    then replaces v in the work array, and the state keeps it.
    """
    gap = state.gap_for(model, tset)
    work = state.scratch()
    p, b1, x_out = state.p, state.b1, tset.x_out
    tau = 1.0 / (2.0 * config.lam)
    state.sources.pop("p_l1", None)

    def slab(rows):
        v = np.add(gap[rows], b1[rows], out=work[rows])
        shrunk = np.abs(v, out=p[rows])
        shrunk -= tau
        np.maximum(shrunk, 0.0, out=shrunk)
        l1 = float(shrunk.sum())
        np.multiply(np.sign(v, out=v), shrunk, out=shrunk)
        target = np.subtract(x_out[rows], shrunk, out=v)
        target += b1[rows]
        return l1

    state.p_l1 = _over_slabs(slab, p.shape)
    state.sources["p_l1"] = (p,)
    state.sources["work"] = (x_out, p, b1)


def update_encoder(model, tset, state, config):
    """P2 (coupled runs): W_enc = phi^-1(Z - B2) X_in^T (G + eps I)^-1 with
    G = X_in X_in^T, whose (iteration invariant) factor the state keeps.
    """
    input_gram = state.gram_for("input", tset.x_in, config.ridge_eps)
    target = activate(state.z - state.b2, "inverse")
    model.w_enc = scipy.linalg.cho_solve(input_gram, tset.x_in @ target.T).T


def update_decoder(model, tset, state, config):
    """P3: ``solve_ridge_least_squares(Z, X_out - P + B1, eps)`` bit for bit,
    with the factor of Z Z^T + eps I kept by the state (an anchored run
    factors it once) and the target left in the work array for a coupled P4.
    """
    target = state.decoder_target(tset)
    model.w_dec = scipy.linalg.cho_solve(
        state.gram_for("feature", state.z, config.ridge_eps), state.z @ target.T
    ).T


def update_latent(model, tset, state, config):
    """P4 (coupled runs): the latent code solve that minimizes both penalty
    terms jointly,

        (lam W_dec^T W_dec + (mu + eps) I) Z = lam W_dec^T M + mu N

    with M = X_out - P + B1 and N = phi(W_enc X_in) + B2, which is the
    exact block minimizer of the relaxed objective over Z.  It computes
    phi(W_enc X_in) through the state, where the residual pass finds it,
    and needs the state's B2 whatever ``config.latent_update`` says.
    """
    anchor = state.encoded_for(model, tset)
    gram = config.lam * (model.w_dec.T @ model.w_dec)
    gram[np.diag_indices_from(gram)] += config.mu + config.ridge_eps
    rhs = config.lam * (model.w_dec.T @ state.decoder_target(tset))
    rhs += config.mu * (anchor + state.b2)
    state.z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)
    state.sources.pop("feature", None)  # it would keep the old Z alive


def update_relaxation(model, tset, state, config):
    """Relaxation-variable update closing one cycle: B <- R ("reflective")
    or B <- -R ("additive").  With R = C - B from
    :func:`constraint_residuals` these are B <- C - B and the running sum
    B <- B - C, written into B in place; B - C (not -R) keeps exact zeros
    positive.  A state without B2 updates B1 only.

    B1 is updated in one pass over the row slabs, after the whole-matrix
    product W_dec Z: gap = X_out - W_dec Z (kept for the next P1), C1 =
    P - gap in the work array, the update, and the slab's share of
    ||B1||^2, which the state keeps for the objective.  C2 and B2 are
    whole h x N arrays.
    """
    sources = (tset.x_out, model.w_dec, state.z)
    stale = not state.computed_from("gap", *sources)
    work = state.scratch()
    if stale:
        state.sources.pop("gap", None)
        np.matmul(model.w_dec, state.z, out=work)
        if state.gap is None:
            state.gap = np.empty_like(work)
    gap, p, b1, x_out = state.gap, state.p, state.b1, tset.x_out
    reflective = config.bregman_update == "reflective"
    state.sources.pop("b1_sq", None)

    def relax(c, b):
        return np.subtract(c, b, out=b) if reflective else np.subtract(b, c, out=b)

    def slab(rows):
        if stale:
            np.subtract(x_out[rows], work[rows], out=gap[rows])
        c1 = np.subtract(p[rows], gap[rows], out=work[rows])
        b = relax(c1, b1[rows])
        return float(np.multiply(b, b, out=c1).sum())

    state.b1_sq = _over_slabs(slab, b1.shape)
    state.sources["gap"] = sources
    state.sources["b1_sq"] = (b1,)
    if state.b2 is not None:
        relax(state.z - state.encoded_for(model, tset), state.b2)


def split_bregman_step(model, tset, state, config):
    """One training cycle: P1 -> P2 -> P3 -> P4 with B2 (coupled), P1 -> P3
    without (anchored: Z and W_enc stay fixed), then relaxation update.

    The constraint residuals are evaluated once, after the last block, and
    update the relaxation variables the cycle was solved with.  B is then
    R or -R, so the objective appended to ``state.objective_history``
    takes its penalty terms from B.
    Returns the mutated (model, state) pair.
    """
    coupled = state.b2 is not None
    update_sparse_residual(model, tset, state, config)
    if coupled:
        update_encoder(model, tset, state, config)
    update_decoder(model, tset, state, config)
    if coupled:
        update_latent(model, tset, state, config)
    update_relaxation(model, tset, state, config)
    objective = penalty_objective(model, tset, state, config, (state.b1, state.b2))
    if not (
        np.isfinite(objective)
        and np.all(np.isfinite(model.w_enc))
        and np.all(np.isfinite(model.w_dec))
    ):
        raise NumericFailure(f"non-finite update at iteration {state.iteration}")
    state.iteration += 1
    state.objective_history.append(objective)
    return model, state


def _initial_weights(d, config):
    rng = SeededRng(config.seed)
    w_enc = rng.normal((config.hidden, d + 1)) / np.sqrt(d + 1)
    w_dec = rng.normal((d, config.hidden)) / np.sqrt(config.hidden)
    return AutoencoderModel(w_enc, w_dec)


def _initial_state(model, tset, config):
    """The state a run starts from: Z is the state's own phi(W_enc X_in)
    (an anchored run's fixed features), B1 = 0, and B2 = 0 in coupled runs
    only.  P is allocated but not set, since P1 writes it before anything
    reads it."""
    state = SplitBregmanState(
        p=np.empty_like(tset.x_out),
        z=None,
        b1=np.zeros_like(tset.x_out),
        b2=None,
    )
    state.z = state.encoded_for(model, tset)
    if config.latent_update == "coupled":
        state.b2 = np.zeros_like(state.z)
    return state


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

    Initializes weights from seeded Gaussians scaled by 1/sqrt(fan-in)
    and the state by :func:`_initial_state`, then iterates
    :func:`split_bregman_step` until the relative objective change stays
    below ``rel_tol`` across a window of five objective values or
    ``max_iter`` cycles are done.  Returns the trained model together with
    the final solver state.
    """
    d = tset.x_out.shape[0]
    model = _initial_weights(d, config)
    state = _initial_state(model, tset, config)
    for _ in range(config.max_iter):
        split_bregman_step(model, tset, state, config)
        if _window_converged(state.objective_history, config.rel_tol):
            break
    # the d x N scratch and the (d+1)^2 factor stay with the trainer
    state.gap = state.work = None
    state.grams.clear()
    state.sources.clear()
    return model, state


# ---------------------------------------------------------------------------
# l2 gradient-descent baseline
# ---------------------------------------------------------------------------


def l2_loss_and_grads(model, tset):
    """Squared-error loss and its exact weight gradients, through one d x N
    residual W_dec Z - X_out, formed and doubled (exactly) in place."""
    z = activate(model.w_enc @ tset.x_in)
    residual = model.w_dec @ z
    residual -= tset.x_out
    loss = float(np.vdot(residual, residual))
    residual *= 2.0
    g_dec = residual @ z.T
    g_hidden = (model.w_dec.T @ residual) * (1.0 - z * z)
    g_enc = g_hidden @ tset.x_in.T
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
    initial = None
    epoch = 0
    start = time.perf_counter()
    while not stop(epoch, time.perf_counter() - start):
        loss, g_enc, g_dec = l2_loss_and_grads(model, tset)
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
    """Persist a model bundle: manifest.txt + w_enc.rdt + w_dec.rdt."""
    os.makedirs(path, exist_ok=True)
    manifest = (
        "activation=tanh\n"
        f"d={model.input_dim}\n"
        f"hidden={model.hidden}\n"
        f"format_version={_FORMAT_VERSION}\n"
    )
    atomic_write_bytes(os.path.join(path, "manifest.txt"), manifest.encode("ascii"))
    write_tensor(os.path.join(path, "w_enc.rdt"), model.w_enc)
    write_tensor(os.path.join(path, "w_dec.rdt"), model.w_dec)


def load_model(path) -> AutoencoderModel:
    """Load a model bundle; the manifest is authoritative for metadata, and
    a bundle of any activation but tanh is refused."""
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
    if pairs["activation"] != "tanh":
        raise FormatError(f"unsupported activation {pairs['activation']!r} in {manifest_path}")
    try:
        w_enc = read_tensor(os.path.join(path, "w_enc.rdt"))
        w_dec = read_tensor(os.path.join(path, "w_dec.rdt"))
    except OSError as exc:
        raise FormatError(f"missing model tensor in {path}: {exc}") from exc
    d, hidden = int(pairs["d"]), int(pairs["hidden"])
    if w_enc.shape != (hidden, d + 1) or w_dec.shape != (d, hidden):
        raise FormatError(
            f"tensor shapes {w_enc.shape}/{w_dec.shape} disagree with manifest "
            f"(d={d}, hidden={hidden})"
        )
    return AutoencoderModel(w_enc, w_dec)
