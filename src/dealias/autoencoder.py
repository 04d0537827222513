"""Single-layer de-aliasing autoencoder with a robust l1 reconstruction cost.

The robust trainer splits the nonsmooth objective ||X_out - W' phi(W X_in)||_1
with two auxiliary variables (the sparse residual P and the latent code Z),
relaxes the two coupling constraints with quadratic penalties and relaxation
variables B1/B2, and cycles four exact block solves:

    P1  sparse residual   -> soft thresholding at 1/(2 lambda)
    P2  encoder weights   -> ridge least squares against phi^-1(Z - B2);
                             in anchored runs W_enc G (G + eps I)^-1, G = X_in X_in^T
    P3  decoder weights   -> ridge least squares against X_out - P + B1
    P4  latent code       -> coupled ridge solve of both penalty terms

followed by the relaxation update B <- R ("reflective") or B <- -R
("additive"), where R = C - B are the penalized (relaxed) residuals of the
two coupling constraints.  An anchored run keeps Z = phi(W_enc X_in), so its
second constraint holds exactly: it carries no B2, and its objective has no
mu term.  An l2 gradient-descent trainer with the same architecture serves
as the non-robust baseline.
"""

from __future__ import annotations

import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    FormatError,
    NumericFailure,
    SeededRng,
    atomic_write_bytes,
    read_tensor,
    write_tensor,
)

ACTIVATIONS = ("tanh", "sigmoid")
BREGMAN_UPDATES = ("reflective", "additive")
LATENT_UPDATES = ("coupled", "anchored")
CLAMP_EPS = 1e-6  # margin that keeps the inverse activation finite


# ---------------------------------------------------------------------------
# activations and shared numeric kernels
# ---------------------------------------------------------------------------


def activate(values, kind: str, direction: str = "forward"):
    """Elementwise activation or its inverse.

    The inverse is made total by clamping its argument ``CLAMP_EPS`` inside
    the activation's open range (tanh: [-1+eps, 1-eps]; sigmoid: [eps, 1-eps]),
    so out-of-range targets produce large but finite pre-activations.
    """
    arr = np.asarray(values, dtype=np.float64)
    if kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation: {kind!r}")
    if direction == "forward":
        if kind == "tanh":
            return np.tanh(arr)
        return 1.0 / (1.0 + np.exp(-arr))
    if direction == "inverse":
        clipped = np.clip(arr, *_inverse_domain(kind))
        if kind == "tanh":
            return np.arctanh(clipped)
        return np.log(clipped / (1.0 - clipped))
    raise ValueError(f"unknown direction: {direction!r}")


def _inverse_domain(kind):
    """The closed interval the inverse activation clamps its argument to."""
    return (-1.0 + CLAMP_EPS if kind == "tanh" else CLAMP_EPS), 1.0 - CLAMP_EPS


def _activation_derivative(activated, kind):
    # derivative expressed through the activated value
    if kind == "tanh":
        return 1.0 - activated * activated
    return activated * (1.0 - activated)


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
    activation: str = "tanh"

    def __post_init__(self):
        self.w_enc = np.asarray(self.w_enc, dtype=np.float64)
        self.w_dec = np.asarray(self.w_dec, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
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
        return activate(self.w_enc @ xb, self.activation)

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
    """Auxiliary and relaxation variables of the robust trainer.

    ``b2`` is None in anchored runs: their P4 sets Z = phi(W_enc X_in), so
    the second constraint holds exactly and B2 would stay zero.  The
    residual pass, the relaxation update and the objective then leave out
    C2, R2 and the mu term.

    The trainer owns these arrays and updates P, B1 and B2 in place, so a
    caller that changes one replaces it rather than writing into it.  The
    state also keeps two products of the cycle, each with the arrays it
    was computed from, and a block reuses a product only while exactly
    those arrays (by identity) are current:

    - ``gap`` = X_out - W_dec Z, computed by the residual pass and reused
      by the next cycle's P1;
    - ``encoded`` = phi(W_enc X_in), computed by P4 and reused by the
      residual pass; an anchored Z is this array itself, which tells P2
      that it may take its closed form.

    ``work`` is one d x N scratch array shared by the blocks.  From P3 to
    a coupled P4 it holds the decoder target X_out - P + B1; a block that
    writes the work array, P or B1 otherwise drops that entry of
    ``sources``.  ``p_l1`` is ||P||_1, kept by P1.  ``gap`` and ``work``
    are allocated on first use, and :func:`train_robust` lets them go
    when it returns.
    """

    p: np.ndarray
    z: np.ndarray
    b1: np.ndarray
    b2: np.ndarray | None
    lam: float
    mu: float
    iteration: int = 0
    objective_history: list = field(default_factory=list)
    gap: np.ndarray | None = field(default=None, repr=False)
    encoded: np.ndarray | None = field(default=None, repr=False)
    work: np.ndarray | None = field(default=None, repr=False)
    p_l1: float = field(default=0.0, repr=False)
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
            self.encoded = activate(model.w_enc @ tset.x_in, model.activation)
            self.sources["encoded"] = sources
        return self.encoded

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

    ``mu`` weights the second penalty term and affects ``coupled`` runs
    only: an anchored run has no such term.  The field defaults are the
    trainer defaults of ``config.DEFAULTS``, which reads them from here
    through ``config.TRAIN_FIELDS`` and coerces each key to its default's
    type, so a float default is written as a float.  The pinned
    ``SPLIT_STEP_HISTORY_SEED0`` regression relies on the ``ridge_eps``,
    ``activation``, ``bregman_update`` and ``latent_update`` defaults.
    """

    hidden: int = 256
    lam: float = 1.0
    mu: float = 1.0
    max_iter: int = 500
    rel_tol: float = 1e-4
    ridge_eps: float = 1e-6
    activation: str = "tanh"
    bregman_update: str = "reflective"
    latent_update: str = "coupled"
    seed: int = 0
    learning_rate: float = 1e-4  # l2 baseline only
    epochs: int = 200  # l2 baseline only

    def __post_init__(self):
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
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be nonnegative and finite")


# ---------------------------------------------------------------------------
# robust split trainer
# ---------------------------------------------------------------------------


def constraint_residuals(model, tset, state):
    """The residual pass, once per cycle: C1 = P - (X_out - W_dec Z) and
    C2 = Z - phi(W_enc X_in), the residuals of the two coupling
    constraints.  The penalties act on the relaxed residuals R = C - B.

    Both products come from the state and are recomputed only if stale.
    C1 is written into the work array, so it holds until the next block
    writes there.  C2 is None when the state has no B2 (anchored runs).
    """
    gap = state.gap_for(model, tset)
    c1 = np.subtract(state.p, gap, out=state.scratch())
    if state.b2 is None:
        return c1, None
    return c1, state.z - state.encoded_for(model, tset)


def penalty_objective(model, tset, state, residuals=None) -> float:
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
    r1_squared = float(np.multiply(r1, r1, out=state.scratch()).sum())
    if not state.computed_from("p_l1", state.p):
        state.p_l1 = float(np.abs(state.p, out=state.scratch()).sum())
        state.sources["p_l1"] = (state.p,)
    objective = state.p_l1 + state.lam * r1_squared
    if r2 is not None:
        objective += state.mu * float((r2 * r2).sum())
    return objective


def objective_l1(model, tset) -> float:
    """Entrywise l1 reconstruction cost sum |X_out - W_dec phi(W_enc X_in)|."""
    return float(np.abs(tset.x_out - model.forward(tset.inputs)).sum())


def update_sparse_residual(model, tset, state):
    """P1: exact prox step, soft thresholding at tau = 1/(2 lam), into P.

    v = gap + B1 is formed in the work array and max(|v| - tau, 0) in P;
    the sum of the latter is ||P||_1 exactly, so it is kept before the
    sign of v is applied.
    """
    v = np.add(state.gap_for(model, tset), state.b1, out=state.scratch())
    shrunk = np.abs(v, out=state.p)
    shrunk -= 1.0 / (2.0 * state.lam)
    np.maximum(shrunk, 0.0, out=shrunk)
    state.p_l1 = float(shrunk.sum())
    state.sources["p_l1"] = (state.p,)
    np.multiply(np.sign(v, out=v), shrunk, out=state.p)


def update_encoder(model, tset, state, config, input_gram=None):
    """P2: fit pre-activations to the inverse-activated latent target.

    The fit is W_enc = phi^-1(Z - B2) X_in^T (G + eps I)^-1 with the input
    Gram matrix G = X_in X_in^T.  When the state has no B2 and Z is the
    state's phi(W_enc X_in) for the current W_enc and X_in (an anchored
    run), the target is W_enc X_in itself, unless an entry of Z reached
    the clip of the inverse activation.  The fit is then

        W_enc G (G + eps I)^-1 = W_enc - eps W_enc (G + eps I)^-1,

    an h-row solve against the factor in place of an h x N inverse
    activation and an h x (d+1) x N product.  Any other Z takes the
    general fit.  ``input_gram`` may carry the (iteration invariant)
    Cholesky factor of G + eps I so the trainer can factor it once.
    """
    if input_gram is None:
        input_gram = _gram_factor(tset.x_in, config.ridge_eps)
    if _z_is_current_encoding(model, tset, state):
        model.w_enc = model.w_enc - config.ridge_eps * scipy.linalg.cho_solve(
            input_gram, model.w_enc.T
        ).T
        return
    latent = state.z if state.b2 is None else state.z - state.b2
    target = activate(latent, model.activation, "inverse")
    model.w_enc = scipy.linalg.cho_solve(input_gram, tset.x_in @ target.T).T


def _z_is_current_encoding(model, tset, state):
    """True when phi^-1(Z - B2) is W_enc X_in: there is no B2, Z is the
    state's phi(W_enc X_in) for the current arrays, and no entry of Z
    reached the inverse activation's clip."""
    if state.b2 is not None or state.z is not state.encoded:
        return False
    if not state.computed_from("encoded", tset.x_in, model.w_enc):
        return False
    low, high = _inverse_domain(model.activation)
    return bool(low < state.z.min() and state.z.max() < high)


def update_decoder(model, tset, state, config):
    """P3: refit the decoder against the residual-corrected targets
    X_out - P + B1, left in the work array for a coupled P4."""
    model.w_dec = solve_ridge_least_squares(
        state.z, state.decoder_target(tset), config.ridge_eps, side="left"
    )


def update_latent(model, tset, state, config):
    """P4: latent code solve; the state's B2 selects the variant.

    With B2 (coupled runs) it minimizes both penalty terms jointly:

        (lam W_dec^T W_dec + (mu + eps) I) Z = lam W_dec^T M + mu N

    with M = X_out - P + B1 and N = phi(W_enc X_in) + B2, which is the
    exact block minimizer of the relaxed objective over Z.  Without B2
    (anchored runs) it sets Z = phi(W_enc X_in), the closed form of the
    second term alone; this freezes the latent code to the encoder's
    output, which is markedly more stable when samples are scarce.  Both
    compute phi(W_enc X_in) through the state, where the residual pass
    finds it; an anchored Z is that array itself.  ``config.latent_update``
    only decides whether :func:`_initial_state` gives a run B2, so a
    hand-built state with B2 takes the coupled solve even under an
    anchored config, and one without B2 anchors under a coupled config.
    """
    anchor = state.encoded_for(model, tset)
    if state.b2 is None:
        state.z = anchor
        return
    gram = state.lam * (model.w_dec.T @ model.w_dec)
    gram[np.diag_indices_from(gram)] += state.mu + config.ridge_eps
    rhs = state.lam * (model.w_dec.T @ state.decoder_target(tset))
    rhs += state.mu * (anchor + state.b2)
    state.z = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs)


def update_relaxation(model, tset, state, config):
    """Relaxation-variable update closing one cycle: B <- R ("reflective")
    or B <- -R ("additive").  With R = C - B from
    :func:`constraint_residuals` these are B <- C - B and the running sum
    B <- B - C, written into B in place; B - C (not -R) keeps exact zeros
    positive.  A state without B2 updates B1 only.
    """
    c1, c2 = constraint_residuals(model, tset, state)
    state.sources.pop("work", None)
    for c, b in ((c1, state.b1), (c2, state.b2)):
        if b is None:
            continue
        if config.bregman_update == "reflective":
            np.subtract(c, b, out=b)
        else:
            np.subtract(b, c, out=b)


def split_bregman_step(model, tset, state, config, input_gram=None):
    """One full training cycle: P1 -> P2 -> P3 -> P4, then relaxation update.

    The constraint residuals are evaluated once, after P4, and update the
    relaxation variables the cycle was solved with.  B is then R or -R, so
    the objective appended to ``state.objective_history`` takes its
    penalty terms from B.
    Returns the mutated (model, state) pair.
    """
    update_sparse_residual(model, tset, state)
    update_encoder(model, tset, state, config, input_gram)
    update_decoder(model, tset, state, config)
    update_latent(model, tset, state, config)
    update_relaxation(model, tset, state, config)
    objective = penalty_objective(model, tset, state, (state.b1, state.b2))
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
    return AutoencoderModel(w_enc, w_dec, config.activation)


def _initial_state(model, tset, config):
    """The state a run starts from: Z is the state's own phi(W_enc X_in),
    B1 = 0, and B2 = 0 in coupled runs only.  P is allocated but not set,
    since P1 writes it before anything reads it."""
    state = SplitBregmanState(
        p=np.empty_like(tset.x_out),
        z=None,
        b1=np.zeros_like(tset.x_out),
        b2=None,
        lam=config.lam,
        mu=config.mu,
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
    ``max_iter`` cycles are done.  Returns the trained model together
    with the final solver state.
    """
    d = tset.x_out.shape[0]
    model = _initial_weights(d, config)
    state = _initial_state(model, tset, config)
    input_gram = _gram_factor(tset.x_in, config.ridge_eps)
    for _ in range(config.max_iter):
        split_bregman_step(model, tset, state, config, input_gram)
        if _window_converged(state.objective_history, config.rel_tol):
            break
    state.gap = state.work = None  # the d x N scratch stays with the trainer
    state.sources.clear()
    return model, state


# ---------------------------------------------------------------------------
# l2 gradient-descent baseline
# ---------------------------------------------------------------------------


def l2_loss_and_grads(model, tset):
    """Squared-error loss and its exact weight gradients, through one d x N
    residual W_dec Z - X_out, formed and doubled (exactly) in place."""
    z = activate(model.w_enc @ tset.x_in, model.activation)
    residual = model.w_dec @ z
    residual -= tset.x_out
    loss = float(np.vdot(residual, residual))
    residual *= 2.0
    g_dec = residual @ z.T
    g_hidden = (model.w_dec.T @ residual) * _activation_derivative(z, model.activation)
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
        f"activation={model.activation}\n"
        f"d={model.input_dim}\n"
        f"hidden={model.hidden}\n"
        f"format_version={_FORMAT_VERSION}\n"
    )
    atomic_write_bytes(os.path.join(path, "manifest.txt"), manifest.encode("ascii"))
    write_tensor(os.path.join(path, "w_enc.rdt"), model.w_enc)
    write_tensor(os.path.join(path, "w_dec.rdt"), model.w_dec)


def load_model(path) -> AutoencoderModel:
    """Load a model bundle; the manifest is authoritative for metadata."""
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
    return AutoencoderModel(w_enc, w_dec, pairs["activation"])
