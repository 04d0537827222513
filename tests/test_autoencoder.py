"""Robust trainer internals: the activation, exact block solves, training loops."""

import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dealias as d
from dealias import autoencoder
from dealias.autoencoder import (
    BREGMAN_UPDATES,
    LATENT_UPDATES,
    SplitBregmanState,
    _gram_inverse,
    _initial_weights,
    activate,
    fit_l1_decoder,
    l2_loss_and_grads,
    penalty_objective,
    soft_threshold,
    solve_ridge_least_squares,
    split_bregman_step,
    update_decoder,
    update_encoder,
    update_latent,
    update_relaxation,
    update_sparse_residual,
)
from dealias.core import NumericFailure, SeededRng


def toy_training_set(dim=16, count=64, seed=0):
    """Identity task: clean [0, 1] samples as both input and target."""
    values = SeededRng(seed).uniform(dim * count).reshape(dim, count)
    return d.TrainingSet.from_arrays(values, values)


def fresh_state(model, tset):
    """The state a coupled train_robust starts from, Z = phi(W_enc X_in),
    B1 = 0 and B2 = 0, with P set to X_out - W_dec Z so that the objective
    is defined before the first P1."""
    z = activate(model.w_enc @ tset.x_in)
    return SplitBregmanState(
        p=tset.x_out - model.w_dec @ z, z=z, b1=np.zeros_like(tset.x_out), b2=np.zeros_like(z)
    )


def rebuilt(model, state):
    """Copies of the weights, and a state built from copies of P, Z, B1
    and B2: it has no work array, tag, input inverse or phi(W_enc X_in)."""
    model = d.AutoencoderModel(model.w_enc.copy(), model.w_dec.copy())
    state = SplitBregmanState(
        p=state.p.copy(), z=state.z.copy(), b1=state.b1.copy(), b2=state.b2.copy()
    )
    return model, state


def record_gram_inverses(monkeypatch):
    """The matrices autoencoder._gram_inverse is called on, in call order."""
    inverted = []
    gram_inverse = autoencoder._gram_inverse

    def recording(a, ridge_eps):
        inverted.append(a)
        return gram_inverse(a, ridge_eps)

    monkeypatch.setattr(autoencoder, "_gram_inverse", recording)
    return inverted


class TestActivate:
    def test_forward_values(self):
        assert activate(0.0) == 0.0
        assert activate(0.5) == np.tanh(0.5)

    def test_inverse_identity(self):
        assert activate(np.tanh(0.7), "inverse") == pytest.approx(0.7, abs=1e-12)

    def test_clamped_inverse_is_finite(self):
        v = activate(1.0, "inverse")
        assert v == pytest.approx(np.arctanh(1.0 - 1e-6))
        assert np.isfinite(activate(np.array([-1.0, 1.0]), "inverse")).all()

    def test_forward_inverse_roundtrip(self):
        vals = np.linspace(-0.9, 0.9, 19)
        assert np.allclose(activate(activate(vals, "inverse")), vals, atol=1e-12)


class TestForward:
    def test_zero_encoder_tanh_gives_zero(self):
        model = d.AutoencoderModel(np.zeros((4, 9)), SeededRng(0).normal((8, 4)))
        out = model.forward(SeededRng(1).uniform(8))
        assert np.all(out == 0.0)

    def test_batched_equals_single(self):
        # columnwise definition; BLAS batch kernels may differ by an ulp
        model = _initial_weights(6, d.TrainConfig(hidden=5, seed=3))
        batch = SeededRng(4).uniform(18).reshape(6, 3)
        full = model.forward(batch)
        singles = np.stack([model.forward(batch[:, j]) for j in range(3)], axis=1)
        assert np.allclose(full, singles, atol=1e-14)

    def test_small_signal_linearization(self):
        # tanh(u) = u + O(u^3): tiny pre-activations make the network linear
        model = _initial_weights(8, d.TrainConfig(hidden=12, seed=5))
        model.w_enc[:, -1] = 0.0  # no bias offset
        x = SeededRng(6).normal(8)
        x *= 1e-4 / np.abs(model.w_enc[:, :-1] @ x).max()
        expected = model.w_dec @ (model.w_enc[:, :-1] @ x)
        out = model.forward(x)
        assert np.linalg.norm(out - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_dim_mismatch(self):
        model = _initial_weights(8, d.TrainConfig(hidden=4, seed=0))
        with pytest.raises(ValueError):
            model.forward(np.ones(9))


class TestSoftThreshold:
    def test_formula(self):
        assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)
        assert soft_threshold(-0.5, 0.2) == pytest.approx(-0.3)

    def test_dead_zone(self):
        assert soft_threshold(0.1, 0.2) == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(3), -0.1)

    def test_matches_grid_search_oracle(self):
        # p* = argmin |p| + lam (p - v)^2 scanned over a fine grid
        rng = SeededRng(7)
        values = 2.0 * rng.normal(20)
        lam = 0.7
        shrunk = soft_threshold(values, 1.0 / (2.0 * lam))
        for v, s in zip(values, shrunk):
            grid = np.arange(-2 * abs(v), 2 * abs(v) + 1e-4, 1e-4)
            cost = np.abs(grid) + lam * (grid - v) ** 2
            assert abs(s - grid[np.argmin(cost)]) < 2e-4


class TestRidgeSolve:
    def test_identity_system(self):
        b = SeededRng(8).normal((3, 5))
        x = solve_ridge_least_squares(np.eye(5), b, ridge_eps=1e-14, side="left")
        assert np.allclose(x, b, atol=1e-10)

    def test_two_by_two_against_normal_equation_oracle(self):
        a = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([[1.0, -1.0], [4.0, 0.0]])
        eps = 1e-8
        # oracle: direct 2x2 inverse of (A A^T + eps I)
        gram = a @ a.T + eps * np.eye(2)
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        inv = np.array([[gram[1, 1], -gram[0, 1]], [-gram[1, 0], gram[0, 0]]]) / det
        oracle = b @ a.T @ inv
        x = solve_ridge_least_squares(a, b, ridge_eps=eps, side="left")
        assert np.allclose(x, oracle, rtol=1e-8)

    def test_rank_deficient_is_finite_and_locally_optimal(self):
        a = np.vstack([np.ones(6), np.ones(6)])  # rank 1
        b = SeededRng(9).normal((3, 6))
        x = solve_ridge_least_squares(a, b, ridge_eps=1e-6, side="left")
        assert np.all(np.isfinite(x))
        base = np.linalg.norm(b - x @ a) ** 2 + 1e-6 * np.linalg.norm(x) ** 2
        rng = SeededRng(10)
        for _ in range(50):
            perturbed = x + 1e-3 * rng.normal(x.shape)
            cost = (
                np.linalg.norm(b - perturbed @ a) ** 2
                + 1e-6 * np.linalg.norm(perturbed) ** 2
            )
            assert cost >= base - 1e-12

    def test_right_side(self):
        a = SeededRng(11).normal((6, 3))
        b = SeededRng(12).normal((6, 2))
        x = solve_ridge_least_squares(a, b, ridge_eps=1e-10, side="right")
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(x, expected, atol=1e-6)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("ridge_eps", [1e-6, 1e-2])
    def test_normal_equation_residual_on_feature_gram(self, ridge_eps, side):
        # the explicit inverse leaves a larger residual than a Cholesky solve
        # (about 2.6e-12 against 1e-15 on the left at ridge 1e-6); this bounds
        # ||X (F F^T + eps I) - B F^T|| relative to ||B F^T||, or its transpose
        tset = toy_training_set(dim=64, count=3040, seed=0)
        features = _initial_weights(64, d.TrainConfig(hidden=256)).encode(tset.inputs)
        gram = features @ features.T + ridge_eps * np.eye(256)
        rhs = tset.x_out @ features.T
        if side == "left":
            x = solve_ridge_least_squares(features, tset.x_out, ridge_eps, side)
        else:
            x = solve_ridge_least_squares(features.T, tset.x_out.T, ridge_eps, side).T
        assert np.linalg.norm(x @ gram - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_concurrent_solves_match_serial_bytes(self):
        # 8 threads x 20 solves at order 256, all with the serial bytes
        a, b = SeededRng(13).normal((256, 300)), SeededRng(14).normal((16, 300))
        expected = solve_ridge_least_squares(a, b)
        start = threading.Barrier(8)

        def solve(_):
            start.wait(timeout=30)
            return [solve_ridge_least_squares(a, b) for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = [x for xs in pool.map(solve, range(8), timeout=60) for x in xs]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 160
        assert all(np.array_equal(x, expected) for x in results)


class TestTrainingSet:
    def test_transposed_arrays_stored_c_contiguous(self):
        a = SeededRng(0).normal((7, 5))
        b = SeededRng(1).normal((7, 5))
        tset = d.TrainingSet.from_arrays(a.T, b.T)
        assert tset.x_in.flags.c_contiguous and tset.x_out.flags.c_contiguous
        assert tset.x_in.dtype == tset.x_out.dtype == np.float64
        assert np.array_equal(tset.inputs, a.T)
        assert np.array_equal(tset.x_out, b.T)
        assert np.all(tset.x_in[-1] == 1.0)


class TestTrainConfig:
    # a value per field that its check rejects, NaN first for each float
    # field; any integer, but no bool, is a valid seed
    @pytest.mark.parametrize("field, value", [
        ("hidden", 0),
        ("lam", np.nan),
        ("mu", np.nan),
        ("max_iter", 0),
        ("rel_tol", np.nan),
        ("ridge_eps", np.nan),
        ("bregman_update", "mirror"),
        ("latent_update", "frozen"),
        ("learning_rate", np.nan),
        ("epochs", -1),
        ("lam", np.inf),
        ("mu", 0.0),
        ("ridge_eps", -1e-6),
        ("rel_tol", -1e-4),
        ("learning_rate", np.inf),
        ("learning_rate", -1e-4),
        ("hidden", 2.5),
        ("max_iter", True),
        ("epochs", 2.5),
        ("seed", 1.5),
        ("seed", False),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            d.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("rel_tol", 0.0), ("rel_tol", np.inf), ("learning_rate", 0.0), ("epochs", 0),
    ])
    def test_boundary_values_accepted(self, field, value):
        assert getattr(d.TrainConfig(**{field: value}), field) == value


class TestSplitBregmanStep:
    def _setup(self, dim=16, count=8, **overrides):
        # every setting SPLIT_STEP_HISTORY_SEED0 depends on, none from the defaults
        settings = dict(
            hidden=8, lam=1.0, mu=1.0, max_iter=20, rel_tol=0.0, seed=0, ridge_eps=1e-6,
            bregman_update="reflective", latent_update="coupled",
        )
        settings.update(overrides)
        config = d.TrainConfig(**settings)
        tset = toy_training_set(dim=dim, count=count, seed=1)
        model = _initial_weights(dim, config)
        return model, tset, fresh_state(model, tset), config

    def test_blocks_do_not_increase_own_subobjective(self):
        self._check_blocks_do_not_increase(*self._setup())

    def test_blocks_do_not_increase_own_subobjective_wide(self):
        # N < d + 1 leaves X_in X_in^T rank deficient but for the ridge
        self._check_blocks_do_not_increase(*self._setup(dim=1024, count=300, hidden=256))

    def _check_blocks_do_not_increase(self, model, tset, state, config):
        for _ in range(3):
            before = penalty_objective(model, tset, state, config)
            update_sparse_residual(model, tset, state, config)
            after_p1 = penalty_objective(model, tset, state, config)
            assert after_p1 <= before + 1e-9
            update_encoder(model, tset, state, config)
            after_p2 = penalty_objective(model, tset, state, config)
            update_decoder(model, tset, state, config)
            after_p3 = penalty_objective(model, tset, state, config)
            assert after_p3 <= after_p2 + 1e-9
            update_latent(model, tset, state, config)
            after_p4 = penalty_objective(model, tset, state, config)
            assert after_p4 <= after_p3 + 1e-9
            split_step_tail(model, tset, state, config)

    def test_huge_lambda_makes_p1_an_identity(self):
        model, tset, state, config = self._setup(lam=1e6)
        v = (tset.x_out - model.w_dec @ state.z) + state.b1
        update_sparse_residual(model, tset, state, config)
        assert np.abs(state.p - v).max() <= 5e-7 + 1e-12

    def test_ten_step_history_regression(self):
        model, tset, state, config = self._setup()
        tset16 = toy_training_set(dim=16, count=16, seed=0)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset16)
        for _ in range(10):
            split_bregman_step(model, tset16, state, config)
        history = state.objective_history
        assert len(history) == 10
        assert all(np.isfinite(history))
        assert history == pytest.approx(SPLIT_STEP_HISTORY_SEED0, rel=1e-8)

    def test_coupled_cycle_leaves_z_c_contiguous(self):
        model, tset, state, config = self._setup()
        split_bregman_step(model, tset, state, config)
        assert state.z.flags.c_contiguous

    def test_latent_exactness_against_perturbations(self):
        model, tset, state, config = self._setup()
        update_sparse_residual(model, tset, state, config)
        update_encoder(model, tset, state, config)
        update_decoder(model, tset, state, config)
        update_latent(model, tset, state, config)
        base = penalty_objective(model, tset, state, config)
        rng = SeededRng(13)
        for _ in range(100):
            trial_state = SplitBregmanState(
                p=state.p,
                z=state.z + 1e-3 * rng.normal(state.z.shape),
                b1=state.b1,
                b2=state.b2,
            )
            assert penalty_objective(model, tset, trial_state, config) >= base - 1e-9


class TestLatentVariantFromState:
    """P4 takes its variant from the state's B2, not from the config."""

    def _state(self, config, b2):
        model = _initial_weights(5, config)
        tset = d.TrainingSet.from_arrays(
            SeededRng(300).uniform(25).reshape(5, 5), SeededRng(301).uniform(25).reshape(5, 5)
        )
        state = SplitBregmanState(
            p=SeededRng(302).normal((5, 5)), z=SeededRng(303).normal((5, 5)),
            b1=SeededRng(304).normal((5, 5)), b2=b2,
        )
        return model, tset, state

    def test_state_with_b2_takes_coupled_solve_under_anchored_config(self):
        config = d.TrainConfig(hidden=5, lam=1.3, mu=0.7, seed=1, latent_update="anchored")
        model, tset, state = self._state(config, SeededRng(305).normal((5, 5)))
        # the coupled normal-equation oracle of acceptance criterion 1
        anchor = activate(model.w_enc @ tset.x_in) + state.b2
        target = tset.x_out - state.p + state.b1
        gram = config.lam * model.w_dec.T @ model.w_dec + (config.mu + config.ridge_eps) * np.eye(5)
        oracle = np.linalg.inv(gram) @ (config.lam * model.w_dec.T @ target + config.mu * anchor)
        update_latent(model, tset, state, config)
        assert np.abs(state.z - oracle).max() <= 1e-8 * np.abs(oracle).max()


def split_step_tail(model, tset, state, config):
    """Finish a manually unrolled cycle (relaxation update + bookkeeping)."""
    from dealias.autoencoder import update_relaxation

    update_relaxation(model, tset, state, config)
    state.iteration += 1


# objective history of the 16-sample toy run (d=16, hidden=8, lam=mu=1,
# seed 0, defaults otherwise); frozen regression vector
SPLIT_STEP_HISTORY_SEED0 = [
    85.4997907240816,
    25.54345993924602,
    5.451495028049073,
    1.0425090720001755,
    1.1286579741927751,
    0.8782935503813615,
    1.0219000862750953,
    0.8312285309996911,
    0.9853971728166844,
    0.8140390731384941,
]


def unshared_cycle(model, tset, state, config):
    """One coupled cycle as written before the residuals were shared: the
    objective and the relaxation update (B <- c - B, B <- B - c) each
    evaluate the constraints themselves, and P3 is the plain ridge solve."""
    update_sparse_residual(model, tset, state, config)
    update_encoder(model, tset, state, config)
    model.w_dec = solve_ridge_least_squares(
        state.z, tset.x_out - state.p + state.b1, config.ridge_eps
    )
    update_latent(model, tset, state, config)
    r1 = state.p - (tset.x_out - model.w_dec @ state.z) - state.b1
    objective = float(np.abs(state.p).sum()) + config.lam * float((r1 * r1).sum())
    c1 = state.p - (tset.x_out - model.w_dec @ state.z)
    c2 = state.z - activate(model.w_enc @ tset.x_in)
    r2 = c2 - state.b2
    objective += config.mu * float((r2 * r2).sum())
    state.objective_history.append(objective)
    for name, c in (("b1", c1), ("b2", c2)):
        b = getattr(state, name)
        setattr(state, name, c - b if config.bregman_update == "reflective" else b - c)


def reference_l1_fit(features, targets, config):
    """The anchored fit written out with nothing shared, in F's dtype: the
    ridge start X_out F^T (F F^T + eps I)^-1, then :func:`reference_l1_cycles`."""
    inverse = _gram_inverse(features.astype(np.float64), config.ridge_eps)
    w_dec = (targets.astype(features.dtype) @ features.T).astype(np.float64) @ inverse
    return reference_l1_cycles(features, targets, w_dec, config)


def reference_l1_cycles(features, targets, w_dec, config):
    """The anchored fit's cycles from ``w_dec``, written out with nothing
    shared, in F's dtype: soft_threshold's formula, the ridge solve with
    (F F^T + eps I)^-1 and its h x h product in float64, the objective
    summed over whole arrays in float64, and B1 <- c - B1 or B1 - c from the
    constraint c itself.  On float64 features these are the operations of
    soft_threshold and solve_ridge_least_squares, in their order."""
    dtype = features.dtype
    targets = targets.astype(dtype)
    inverse = _gram_inverse(features.astype(np.float64), config.ridge_eps)
    tau = 1.0 / (2.0 * config.lam)
    b1 = np.zeros_like(targets)
    history = []
    for _ in range(config.max_iter):
        v = targets - w_dec.astype(dtype) @ features + b1
        p = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
        w_dec = ((targets - p + b1) @ features.T).astype(np.float64) @ inverse
        c = p - (targets - w_dec.astype(dtype) @ features)
        r = c - b1
        l1, sq = (float(a.sum(dtype=np.float64)) for a in (np.abs(p), r * r))
        history.append(l1 + config.lam * sq)
        b1 = c - b1 if config.bregman_update == "reflective" else b1 - c
    return w_dec, p, b1, history


# (dim, count, hidden) of the unshared-cycle comparison; the first keeps the
# original case ids, the second (hidden < dim, count >> dim) gets a suffix
CYCLE_SHAPES = {"": (16, 16, 8), "-d64": (64, 700, 32)}

# the dtypes of the anchored fit's features: float64 keeps the original case
# ids, float32 (the dtype train_robust gives it) gets a suffix
FIT_DTYPES = {"": np.float64, "-float32": np.float32}
FIT_CASES = pytest.mark.parametrize(
    "bregman, dtype",
    [
        pytest.param(bregman, dtype, id=f"{bregman}{suffix}")
        for suffix, dtype in FIT_DTYPES.items()
        for bregman in BREGMAN_UPDATES
    ],
)


class TestRelaxationIdentity:
    @pytest.mark.parametrize(
        "bregman, shape",
        [
            pytest.param(bregman, shape, id=f"coupled-{bregman}{suffix}")
            for suffix, shape in CYCLE_SHAPES.items()
            for bregman in BREGMAN_UPDATES
        ],
    )
    def test_step_matches_unshared_cycle_bitwise(self, bregman, shape):
        dim, count, hidden = shape
        config = d.TrainConfig(hidden=hidden, lam=1.0, mu=1.0, bregman_update=bregman)
        tset = toy_training_set(dim=dim, count=count, seed=0)
        runs = []
        for step in (split_bregman_step, unshared_cycle):
            model = _initial_weights(dim, config)
            state = fresh_state(model, tset)
            for _ in range(10):
                step(model, tset, state, config)
            runs.append((model, state))
        (model, state), (ref_model, ref_state) = runs
        assert len(state.objective_history) == 10
        assert state.objective_history == ref_state.objective_history
        assert state_bytes(model, state) == state_bytes(ref_model, ref_state)

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_anchored_run_has_no_b2_and_pinned_bytes(self, bregman):
        # Z stays phi(W_0 X_in), so the run carries no B2 and no C2; its
        # objective history and weights are pinned byte for byte
        config = d.TrainConfig(
            hidden=8, lam=20.0, ridge_eps=1e-2, max_iter=10, rel_tol=0.0,
            bregman_update=bregman, latent_update="anchored",
        )
        tset = toy_training_set(dim=16, count=64, seed=0)
        model, state = d.train_robust(tset, config)
        assert state.b2 is None
        history, weights_sha256 = ANCHORED_PINS[bregman]
        assert state.objective_history == history
        weights = model.w_enc.tobytes() + model.w_dec.tobytes()
        assert hashlib.sha256(weights).hexdigest() == weights_sha256


# anchored train_robust at d=16, N=64, h=8, lam 20, ridge 1e-2, 10 cycles, the
# fit in float32 from the ridge decoder: objective history and the SHA-256 of
# the w_enc then w_dec bytes
ANCHORED_PINS = {
    "reflective": (
        [
            156.87612225007132, 133.51062593112434, 133.87012199665577, 132.51764147226575,
            132.9153853423164, 131.93092301415828, 132.30487748821128, 131.53229800170328,
            131.8659498995255, 131.2618395821186,
        ],
        "16c43cf32d7846a17aac68abc3b38b80be635600bb1f98c8ccbf3d295cd6e322",
    ),
    "additive": (
        [
            156.87612225007132, 179.53548944256522, 179.2701011965582, 178.76901865406307,
            178.37103126287548, 178.1233511836997, 177.91514970774347, 177.67179083882152,
            177.44881124669155, 177.29896078518908,
        ],
        "6cec1c68d51e91ce37b47424bcb7b16f28dc26a5497258fe812336b883f61587",
    ),
}


# the blocks of one cycle, before the relaxation update
COUPLED_BLOCKS = (update_sparse_residual, update_encoder, update_decoder, update_latent)

VARIANTS = pytest.mark.parametrize(
    "latent, bregman",
    [(latent, bregman) for latent in LATENT_UPDATES for bregman in BREGMAN_UPDATES],
)
# the blocks serve the coupled trainer only; the ids keep the latent update
COUPLED_VARIANTS = pytest.mark.parametrize(
    "latent, bregman", [("coupled", bregman) for bregman in BREGMAN_UPDATES]
)


def state_bytes(model, state):
    arrays = (model.w_enc, model.w_dec, state.p, state.z, state.b1, state.b2)
    return [None if a is None else a.tobytes() for a in arrays]


def written_state(state):
    """The bytes of P, Z, B1, B2 and the work array, the work array's tag,
    and the kept input inverse and phi(W_enc X_in) (compared by identity)."""
    arrays = (state.p, state.z, state.b1, state.b2, state.work)
    kept = (state.input_inverse, state.encoded)
    return [None if a is None else a.tobytes() for a in arrays], state.holds, kept


class TestCycleBuffers:
    """The cycle works in the state's own arrays and hands its products
    down in cycle order; a block forms an input it does not find."""

    @COUPLED_VARIANTS
    def test_cycle_allocates_no_dxn_temporaries(self, latent, bregman):
        dim, count = 256, 4000
        config = d.TrainConfig(
            hidden=32, lam=20.0, ridge_eps=1e-2, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=dim, count=count, seed=0)
        model = _initial_weights(dim, config)
        state = fresh_state(model, tset)
        split_bregman_step(model, tset, state, config)  # warm-up
        tracemalloc.start()
        try:
            split_bregman_step(model, tset, state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * count * 8

    @COUPLED_VARIANTS
    def test_blocks_one_at_a_time_match_cycle(self, latent, bregman):
        # criterion 2's sequence: the objective between blocks (here twice,
        # and both calls agree) must not disturb the cycle
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=2)
        runs = []
        for one_at_a_time in (False, True):
            model = _initial_weights(16, config)
            state = fresh_state(model, tset)
            objectives = []
            for _ in range(6):
                if not one_at_a_time:
                    split_bregman_step(model, tset, state, config)
                    continue
                for block in COUPLED_BLOCKS:
                    first = penalty_objective(model, tset, state, config)
                    assert penalty_objective(model, tset, state, config) == first
                    block(model, tset, state, config)
                objectives.append(penalty_objective(model, tset, state, config))
                update_relaxation(model, tset, state, config)
            runs.append((model, state, objectives))
        (model, state, _), (ref_model, ref_state, objectives) = runs
        assert state.objective_history == objectives
        assert state_bytes(model, state) == state_bytes(ref_model, ref_state)

    @pytest.mark.parametrize(
        "shape", [(16, 64, 8), (128, 2048, 16)], ids=["d16", "four-slabs"]
    )
    @COUPLED_VARIANTS
    def test_objective_after_every_block_leaves_run_unchanged(
        self, latent, bregman, shape, monkeypatch
    ):
        # the objective taken between blocks writes nothing to the state:
        # arrays, scratch and kept products are as they were, and it equals
        # the objective of a state that keeps no products
        dim, count, hidden = shape
        config = d.TrainConfig(
            hidden=hidden, lam=20.0, ridge_eps=1e-2, max_iter=3, rel_tol=0.0,
            bregman_update=bregman, latent_update=latent,
        )
        tset = toy_training_set(dim=dim, count=count, seed=13)
        plain_model, plain_state = d.train_robust(tset, config)
        objectives = []
        for block in COUPLED_BLOCKS + (update_relaxation,):

            def followed(model, tset, state, config, block=block):
                result = block(model, tset, state, config)
                before = written_state(state)
                objectives.append(penalty_objective(model, tset, state, config))
                after = written_state(state)
                assert after[:2] == before[:2]
                assert all(a is b for a, b in zip(after[2], before[2]))
                _, fresh = rebuilt(model, state)
                assert penalty_objective(model, tset, fresh, config) == objectives[-1]
                return result

            monkeypatch.setattr(autoencoder, block.__name__, followed)
        model, state = d.train_robust(tset, config)
        assert len(objectives) == config.max_iter * (len(COUPLED_BLOCKS) + 1)
        assert np.all(np.isfinite(objectives))
        assert state.objective_history == plain_state.objective_history
        assert state_bytes(model, state) == state_bytes(plain_model, plain_state)

    @pytest.mark.parametrize("latent, bound", [("anchored", 3.5), ("coupled", 4.1)])
    def test_run_peak_holds_one_dxn_scratch(self, latent, bound):
        # P, B1 and the one work array are the run's d x N arrays; the rest
        # is h x N or slab-sized
        dim, count = 256, 4000
        config = d.TrainConfig(
            hidden=32, lam=20.0, ridge_eps=1e-2, max_iter=3, rel_tol=0.0, latent_update=latent
        )
        tset = toy_training_set(dim=dim, count=count, seed=0)
        tracemalloc.start()
        try:
            d.train_robust(tset, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * dim * count * 8

    @COUPLED_VARIANTS
    def test_rebuilt_state_continues_bitwise(self, latent, bregman):
        # a caller that replaces an array builds a new state from the arrays;
        # built from copies after 3 cycles, it continues with the run's bits
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=3)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        for _ in range(3):
            split_bregman_step(model, tset, state, config)
        copied, rebuilt_state = rebuilt(model, state)
        assert rebuilt_state.work is None and rebuilt_state.holds is None
        assert rebuilt_state.input_inverse is None and rebuilt_state.encoded is None
        assert penalty_objective(model, tset, state, config) == penalty_objective(
            copied, tset, rebuilt_state, config
        )
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
            split_bregman_step(copied, tset, rebuilt_state, config)
        assert state.objective_history[-2:] == rebuilt_state.objective_history
        assert state_bytes(model, state) == state_bytes(copied, rebuilt_state)

    @pytest.mark.parametrize("replaced", ["w_dec", "w_enc", "z"])
    @COUPLED_VARIANTS
    def test_replaced_array_matches_fresh_state(self, latent, bregman, replaced):
        # after a replacement the caller builds a new state over the run's
        # own arrays; it matches a state built from copies, bit for bit
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=3)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        for _ in range(3):
            split_bregman_step(model, tset, state, config)
        owner = state if replaced == "z" else model
        setattr(owner, replaced, getattr(owner, replaced) * 1.01)
        state = SplitBregmanState(p=state.p, z=state.z, b1=state.b1, b2=state.b2)
        fresh_model, fresh = rebuilt(model, state)
        assert penalty_objective(model, tset, state, config) == penalty_objective(
            fresh_model, tset, fresh, config
        )
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
            split_bregman_step(fresh_model, tset, fresh, config)
        assert state.objective_history == fresh.objective_history
        assert state_bytes(model, state) == state_bytes(fresh_model, fresh)

    @COUPLED_VARIANTS
    def test_any_block_order_matches_rebuilt_states_bitwise(self, latent, bregman):
        # after every ordered pair of blocks, run back to back: the products
        # the state kept are still right, and a state rebuilt before each
        # block forms the ones it lacks with the same bits
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=3)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        split_bregman_step(model, tset, state, config)
        blocks = COUPLED_BLOCKS + (update_relaxation,)
        for block in [block for pair in itertools.product(blocks, repeat=2) for block in pair]:
            copied, rebuilt_state = rebuilt(model, state)
            block(model, tset, state, config)
            block(copied, tset, rebuilt_state, config)
            assert state_bytes(model, state) == state_bytes(copied, rebuilt_state), block.__name__

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_non_finite_objective_raises_at_its_iteration(self, bregman):
        # lam = inf leaves P1 (tau = 0), P2 and P3 finite; P4's Gram is not,
        # so Z and the objective go non-finite while both weights stay finite
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update="coupled"
        )
        tset = toy_training_set(dim=16, count=24, seed=4)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
        config.lam = np.inf  # past the constructor's check
        with pytest.raises(NumericFailure, match="at iteration 2$"):
            split_bregman_step(model, tset, state, config)
        assert np.all(np.isfinite(model.w_enc)) and np.all(np.isfinite(model.w_dec))
        assert state.iteration == len(state.objective_history) == 2


class TestEncoderUpdate:
    def test_state_with_b2_takes_ridge_fit(self):
        # P2 is the ridge fit of phi^-1(Z - B2) X_in^T (G + eps I)^-1, bit for bit
        config = d.TrainConfig(hidden=8, lam=20.0, ridge_eps=1e-2, latent_update="coupled")
        tset = toy_training_set(dim=16, count=40, seed=5)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        state.b2 = 0.1 * SeededRng(6).normal(state.z.shape)
        target = activate(state.z - state.b2, "inverse")
        expected = (target @ tset.x_in.T) @ _gram_inverse(tset.x_in, config.ridge_eps)
        update_encoder(model, tset, state, config)
        assert model.w_enc.tobytes() == expected.tobytes()

    def test_state_inverts_input_gram_once(self, monkeypatch):
        # the state keeps the inverse of X_in X_in^T + eps I for later P2 calls
        config = d.TrainConfig(hidden=8, lam=20.0, ridge_eps=1e-2, latent_update="coupled")
        tset = toy_training_set(dim=16, count=40, seed=5)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset)
        inverted = record_gram_inverses(monkeypatch)
        update_encoder(model, tset, state, config)
        first = model.w_enc
        update_encoder(model, tset, state, config)
        assert len(inverted) == 1 and inverted[0] is tset.x_in
        assert model.w_enc.tobytes() == first.tobytes()


class TestFrozenFeatures:
    """An anchored run fits the decoder on F = phi(W_0 X_in), which it
    never recomputes, and inverts F F^T + eps I once."""

    def _config(self, bregman, latent="anchored"):
        return d.TrainConfig(
            hidden=8, lam=20.0, ridge_eps=1e-2, max_iter=6, rel_tol=0.0,
            bregman_update=bregman, latent_update=latent,
        )

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_encoder_and_features_stay_initial(self, bregman):
        # Z is F, cast to float32 for the fit
        config = self._config(bregman)
        tset = toy_training_set(dim=16, count=64, seed=0)
        model, state = d.train_robust(tset, config)
        w0 = _initial_weights(16, config).w_enc
        assert model.w_enc.tobytes() == w0.tobytes()
        assert state.z.tobytes() == activate(w0 @ tset.x_in).astype(np.float32).tobytes()

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_model_stays_float64_c_contiguous(self, bregman):
        # the fit runs in float32, the model it returns does not: a float32
        # w_dec would be upcast by every forward pass
        config = self._config(bregman)
        model, state = d.train_robust(toy_training_set(dim=16, count=64, seed=0), config)
        assert state.p.dtype == np.float32
        for weights in (model.w_enc, model.w_dec):
            assert weights.dtype == np.float64 and weights.flags.c_contiguous

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_each_decoder_is_the_ridge_solve(self, bregman):
        # W_dec after cycle k solves against X_out - P_k + B1_{k-1}; P_k and
        # B1_k are read off a fit of k cycles
        config = self._config(bregman)
        tset = toy_training_set(dim=16, count=64, seed=1)
        model = _initial_weights(16, config)
        features = activate(model.w_enc @ tset.x_in)
        b1 = np.zeros_like(tset.x_out)
        for cycles in range(1, config.max_iter + 1):
            short = dataclasses.replace(config, max_iter=cycles)
            w_dec, state = fit_l1_decoder(features, tset.x_out, short)
            assert state.iteration == cycles
            expected = solve_ridge_least_squares(
                features, tset.x_out - state.p + b1, config.ridge_eps
            )
            assert w_dec.tobytes() == expected.tobytes()
            b1 = state.b1

    @pytest.mark.parametrize("latent", LATENT_UPDATES)
    def test_input_gram_only_in_coupled_runs(self, latent, monkeypatch):
        # anchored: one inverse, of F F^T with the float32 F upcast to
        # float64; coupled: the input Gram once, plus one F F^T per cycle
        # since its Z changes
        config = self._config("additive", latent)
        tset = toy_training_set(dim=16, count=64, seed=2)
        inverted = record_gram_inverses(monkeypatch)
        _, state = d.train_robust(tset, config)
        on_input = [a is tset.x_in for a in inverted]
        if latent == "anchored":
            assert on_input == [False]
            assert inverted[0].dtype == np.float64 and state.z.dtype == np.float32
            assert np.array_equal(inverted[0], state.z)
        else:
            assert on_input == [True] + [False] * config.max_iter


class TestL1DecoderFit:
    """The anchored trainer, fit_l1_decoder: P1, P3 and the B1 update over
    fixed features F, in the slab passes it shares with the coupled cycle."""

    def _setup(self, dim, count, bregman, seed=0, raw=False, dtype=np.float64, **overrides):
        """F = phi(W_0 X_in), or X_in itself if ``raw`` (then hidden = d + 1),
        in ``dtype``; the targets stay float64."""
        settings = dict(
            hidden=16, lam=20.0, ridge_eps=1e-2, max_iter=3, rel_tol=0.0,
            bregman_update=bregman, latent_update="anchored",
        )
        settings.update(overrides)
        config = d.TrainConfig(**settings)
        tset = toy_training_set(dim=dim, count=count, seed=seed)
        model = _initial_weights(dim, config)
        features = tset.x_in if raw else activate(model.w_enc @ tset.x_in)
        return features.astype(dtype, copy=False), tset.x_out, config

    @pytest.mark.parametrize(
        "bregman, shape, raw, dtype",
        [
            pytest.param(bregman, shape, False, dtype, id=f"{bregman}{suffix}{dtype_suffix}")
            for dtype_suffix, dtype in FIT_DTYPES.items()
            for suffix, shape in CYCLE_SHAPES.items()
            for bregman in BREGMAN_UPDATES
        ]
        # any feature matrix will do: X_in itself gives the linear map
        + [pytest.param(bregman, (16, 64, 17), True, dtype,
                        id=f"{bregman}-raw-inputs{dtype_suffix}")
           for dtype_suffix, dtype in FIT_DTYPES.items()
           for bregman in BREGMAN_UPDATES],
    )
    def test_fit_matches_unshared_loop_bitwise(self, bregman, shape, raw, dtype):
        dim, count, hidden = shape
        features, targets, config = self._setup(
            dim, count, bregman, raw=raw, dtype=dtype,
            hidden=hidden, lam=1.0, ridge_eps=1e-6, max_iter=10,
        )
        fitted, state = fit_l1_decoder(features, targets, config)
        ref_w_dec, ref_p, ref_b1, ref_history = reference_l1_fit(features, targets, config)
        assert state.iteration == len(state.objective_history) == 10
        assert state.objective_history == ref_history
        assert state.z is features and state.b2 is None
        assert state.p.dtype == state.b1.dtype == dtype and fitted.dtype == np.float64
        got = [a.tobytes() for a in (fitted, state.p, state.b1)]
        assert got == [a.tobytes() for a in (ref_w_dec, ref_p, ref_b1)]

    @pytest.mark.parametrize(
        "shape, slabs", [((16, 64), 1), ((128, 2048), 4)], ids=["d16", "four-slabs"]
    )
    @FIT_CASES
    def test_slab_sums_match_whole_array_objective(self, bregman, dtype, shape, slabs):
        # over one slab or four: the arrays keep the unshared loop's bytes,
        # the history its float64 whole-array sums up to rounding, and the
        # last entry is the slab-order sum of |P| and B1^2
        assert len(autoencoder._row_slabs(shape)) == slabs
        features, targets, config = self._setup(*shape, bregman, seed=8, dtype=dtype)
        fitted, state = fit_l1_decoder(features, targets, config)
        ref_w_dec, ref_p, ref_b1, ref_history = reference_l1_fit(features, targets, config)
        got = [a.tobytes() for a in (fitted, state.p, state.b1)]
        assert got == [a.tobytes() for a in (ref_w_dec, ref_p, ref_b1)]
        assert state.objective_history == pytest.approx(ref_history, rel=1e-13, abs=0.0)
        recomputed = autoencoder._slab_sum(np.abs(state.p))
        recomputed += config.lam * autoencoder._slab_sum(state.b1 * state.b1)
        assert state.objective_history[-1] == recomputed

    @pytest.mark.parametrize(
        "ridge_eps, collinear", [(1e-2, False), (1e-6, True)], ids=["tanh", "ill-conditioned"]
    )
    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_float32_history_regression_against_float64(self, bregman, ridge_eps, collinear):
        # the fit on float32 F tracks the float64 fit on the same inputs, at
        # d=64, N=700, h=32 and 10 cycles, also when F F^T + eps I is beyond
        # float32 (row 1 = row 0 + 1e-3 row 2 at ridge 1e-6: condition number
        # 4.5e9), where a float32 inverse diverges.  Measured: 6e-7 in the
        # history and 1.2e-5 in W_dec F; on the tanh features 7e-5 in W_dec,
        # which the collinear rows leave undetermined (relative Frobenius)
        features, targets, config = self._setup(
            64, 700, bregman, hidden=32, max_iter=10, ridge_eps=ridge_eps
        )
        if collinear:
            features[1] = features[0] + 1e-3 * features[2]
        ref_w_dec, ref_state = fit_l1_decoder(features, targets, config)
        fitted, state = fit_l1_decoder(features.astype(np.float32), targets, config)
        assert state.iteration == ref_state.iteration == 10
        assert state.objective_history == pytest.approx(
            ref_state.objective_history, rel=1e-4, abs=0.0
        )
        ref_out = ref_w_dec @ features
        assert np.linalg.norm(fitted @ features - ref_out) < 1e-4 * np.linalg.norm(ref_out)
        if not collinear:
            assert np.linalg.norm(fitted - ref_w_dec) < 1e-3 * np.linalg.norm(ref_w_dec)

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_non_finite_objective_raises_at_its_iteration(self, bregman, monkeypatch):
        # lam = inf, set past the constructor's check as the third cycle's
        # B1 update starts, leaves the passes finite, not the objective
        features, targets, config = self._setup(16, 24, bregman, seed=4, max_iter=10)
        relaxation_pass = autoencoder.relaxation_pass
        calls = []

        def counted(*args):
            calls.append(args)
            if len(calls) == 3:
                config.lam = np.inf
            return relaxation_pass(*args)

        monkeypatch.setattr(autoencoder, "relaxation_pass", counted)
        with pytest.raises(NumericFailure, match="at iteration 2$"):
            fit_l1_decoder(features, targets, config)
        assert len(calls) == 3

    @FIT_CASES
    def test_fit_allocates_no_dxn_temporaries(self, bregman, dtype):
        # P, B1 and the one work array are the fit's d x N arrays; its
        # cycles add only d x h, h x h and slab-sized temporaries.  The
        # targets come in the fit's dtype, so the fit does not copy them
        dim, count = 256, 4000
        features, targets, config = self._setup(
            dim, count, bregman, hidden=32, dtype=dtype
        )
        targets = targets.astype(dtype)
        tracemalloc.start()
        try:
            fit_l1_decoder(features, targets, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * dim * count * np.dtype(dtype).itemsize

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_fit_stops_at_window(self, bregman):
        features, targets, config = self._setup(
            8, 4, bregman, hidden=4, max_iter=100, rel_tol=np.inf
        )
        _, state = fit_l1_decoder(features, targets, config)
        assert len(state.objective_history) == state.iteration == 5

    @FIT_CASES
    def test_fit_leaves_its_inputs_unchanged(self, bregman, dtype):
        # F and the targets are read, never written
        features, targets, config = self._setup(16, 64, bregman, seed=5, dtype=dtype)
        before = [a.tobytes() for a in (features, targets)]
        _, state = fit_l1_decoder(features, targets, config)
        assert [a.tobytes() for a in (features, targets)] == before
        assert state.z is features

    def test_ridge_start_converges_in_few_cycles(self):
        # the true l1 cost ||X_out - W_dec F||_1 after 5 cycles is within 1%
        # of the fit's own 100-cycle cost (measured: 6.3e-3 above it); the
        # same cycles from the seeded random decoder are still 190% above
        features, targets, config = self._setup(
            64, 700, "additive", hidden=32, max_iter=100
        )

        def cost(w_dec):
            return float(np.abs(targets - w_dec @ features).sum())

        converged = cost(fit_l1_decoder(features, targets, config)[0])
        five = dataclasses.replace(config, max_iter=5)
        ridge_start = cost(fit_l1_decoder(features, targets, five)[0])
        random_start = cost(
            reference_l1_cycles(features, targets, _initial_weights(64, config).w_dec, five)[0]
        )
        assert ridge_start - converged < 1e-2 * converged
        assert random_start > 1.5 * converged

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_anchored_run_is_the_fit_on_initial_features_bitwise(self, bregman):
        # an anchored train_robust keeps W_0 and fits the decoder on
        # F = phi(W_0 X_in), cast to float32, from the ridge decoder, bit for bit
        config = d.TrainConfig(
            hidden=8, lam=20.0, ridge_eps=1e-2, max_iter=6, rel_tol=0.0,
            bregman_update=bregman, latent_update="anchored",
        )
        tset = toy_training_set(dim=16, count=64, seed=6)
        model, state = d.train_robust(tset, config)
        initial = _initial_weights(16, config)
        features = activate(initial.w_enc @ tset.x_in).astype(np.float32)
        fitted, fit_state = fit_l1_decoder(features, tset.x_out, config)
        assert model.w_enc.tobytes() == initial.w_enc.tobytes()
        assert model.w_dec.tobytes() == fitted.tobytes()
        assert state.objective_history == fit_state.objective_history
        got = [a.tobytes() for a in (state.p, state.z, state.b1)]
        assert got == [a.tobytes() for a in (fit_state.p, fit_state.z, fit_state.b1)]


class TestSlabs:
    """The cycle's d x N elementwise work runs over fixed row slabs, on
    every usable core: the bytes of W_enc, W_dec, P, B1 and B2 do not
    depend on the slabs or on the worker count, and the objective depends
    on the worker count not at all."""

    # d x N = 128 x 2048: four slabs of 32 rows at the shipped slab size
    DIM, COUNT = 128, 2048

    def _run(self, latent, bregman):
        config = d.TrainConfig(
            hidden=16, lam=20.0, ridge_eps=1e-2, max_iter=4, rel_tol=0.0,
            bregman_update=bregman, latent_update=latent,
        )
        tset = toy_training_set(dim=self.DIM, count=self.COUNT, seed=7)
        return d.train_robust(tset, config)

    @VARIANTS
    def test_slabbed_run_matches_one_slab_run(self, latent, bregman, monkeypatch):
        assert len(autoencoder._row_slabs((self.DIM, self.COUNT))) == 4
        model, state = self._run(latent, bregman)
        monkeypatch.setattr(autoencoder, "SLAB_ENTRIES", self.DIM * self.COUNT)
        one_model, one_state = self._run(latent, bregman)
        assert state_bytes(model, state) == state_bytes(one_model, one_state)
        assert state.objective_history == pytest.approx(
            one_state.objective_history, rel=1e-14, abs=0.0
        )

    @VARIANTS
    def test_slab_results_do_not_depend_on_worker_count(self, latent, bregman, monkeypatch):
        pools = []

        class CountingPool(autoencoder.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(autoencoder, "ThreadPoolExecutor", CountingPool)
        runs = []
        for cores in (1, 2, 6):
            monkeypatch.setattr(autoencoder, "_usable_cores", lambda: cores)
            runs.append(self._run(latent, bregman))
        # one pool per pass: none on one core, and never more helpers than
        # slabs after the caller
        assert pools and set(pools) == {1, 3}
        (model, state), *others = runs
        for other_model, other_state in others:
            assert other_state.objective_history == state.objective_history
            assert state_bytes(other_model, other_state) == state_bytes(model, state)

    @COUPLED_VARIANTS
    def test_slab_sums_kept_by_the_cycle_match_the_objective(self, latent, bregman):
        # the objective recomputed from P and B1 adds the same slab partials
        # as the passes that summed ||P||_1 and ||B1||^2
        config = d.TrainConfig(
            hidden=16, lam=20.0, ridge_eps=1e-2, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=self.DIM, count=self.COUNT, seed=8)
        model = _initial_weights(self.DIM, config)
        state = fresh_state(model, tset)
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
            recomputed = autoencoder._slab_sum(np.abs(state.p))
            recomputed += config.lam * autoencoder._slab_sum(state.b1 * state.b1)
            recomputed += config.mu * float((state.b2 * state.b2).sum())
            assert recomputed == state.objective_history[-1]

    def test_slabs_cover_rows_once_by_shape_alone(self, monkeypatch):
        shapes = [(1, 1), (7, 3), (1024, 9310), (300, 70000), (5, 1 << 16)]
        partitions = [autoencoder._row_slabs(shape) for shape in shapes]
        for (rows, cols), slabs in zip(shapes, partitions):
            covered = np.concatenate([np.arange(rows)[s] for s in slabs])
            assert covered.tolist() == list(range(rows))
            sizes = [s.stop - s.start for s in slabs]
            assert all(n == 1 or n * cols <= autoencoder.SLAB_ENTRIES for n in sizes)
        monkeypatch.setattr(autoencoder, "_usable_cores", lambda: 5)
        assert [autoencoder._row_slabs(shape) for shape in shapes] == partitions

    def test_slab_stress_more_workers_than_cores(self, monkeypatch):
        # every slab runs exactly once and lands in its own partial, with
        # thread switches forced as often as the interpreter allows
        monkeypatch.setattr(autoencoder, "_usable_cores", lambda: 8)
        shape = (4096, 64)  # 1024 rows per slab, so 4 slabs
        starts = []

        def kernel(rows):
            starts.append(rows.start)
            return float(sum(range(rows.start, rows.stop)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                assert autoencoder._over_slabs(kernel, shape) == float(sum(range(4096)))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(starts) == sorted(list(range(0, 4096, 1024)) * 50)

    def test_one_slab_or_one_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(autoencoder, "ThreadPoolExecutor", pytest.fail)
        arr = np.arange(4.0 * self.COUNT).reshape(4, self.COUNT)
        assert autoencoder._slab_sum(arr) == arr.sum()
        monkeypatch.setattr(autoencoder, "_usable_cores", lambda: 1)
        big = toy_training_set(dim=self.DIM, count=self.COUNT, seed=9).x_out
        parts = [big[s].sum() for s in autoencoder._row_slabs(big.shape)]
        assert autoencoder._slab_sum(big) == ((parts[0] + parts[1]) + parts[2]) + parts[3]


class TestTrainRobust:
    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            d.TrainingSet.from_arrays(np.zeros((4, 0)), np.zeros((4, 0)))

    def test_identity_task_reduces_l1_objective(self):
        tset = toy_training_set(dim=16, count=64, seed=0)
        config = d.TrainConfig(hidden=32, max_iter=40, rel_tol=0.0, seed=0)
        initial = _initial_weights(16, config)
        before = d.objective_l1(initial, tset)
        model, state = d.train_robust(tset, config)
        assert d.objective_l1(model, tset) < before

    def test_max_iter_one(self):
        tset = toy_training_set(dim=8, count=4, seed=2)
        config = d.TrainConfig(hidden=4, max_iter=1, seed=0)
        _, state = d.train_robust(tset, config)
        assert state.iteration == 1
        assert len(state.objective_history) == 1

    def test_infinite_tolerance_stops_at_window(self):
        tset = toy_training_set(dim=8, count=4, seed=3)
        config = d.TrainConfig(hidden=4, max_iter=100, rel_tol=np.inf, seed=0)
        _, state = d.train_robust(tset, config)
        assert len(state.objective_history) == 5

    def test_bitwise_determinism(self):
        tset = toy_training_set(dim=8, count=12, seed=4)
        config = d.TrainConfig(hidden=6, max_iter=15, rel_tol=0.0, seed=9)
        m1, _ = d.train_robust(tset, config)
        m2, _ = d.train_robust(tset, config)
        assert np.array_equal(m1.w_enc, m2.w_enc)
        assert np.array_equal(m1.w_dec, m2.w_dec)

    def test_trainer_leaves_scipy_linalg_unloaded(self):
        # the trainer's linear algebra is numpy's alone, so scipy's OpenBLAS
        # pool gets no work; a fresh interpreter sees what dealias imports
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import dealias as d\n"
            "x = np.linspace(0.0, 1.0, 8 * 12).reshape(8, 12)\n"
            "tset = d.TrainingSet.from_arrays(x, x)\n"
            "for latent in ('coupled', 'anchored'):\n"
            "    d.train_robust(tset, d.TrainConfig(hidden=4, max_iter=2, latent_update=latent))\n"
            "d.solve_ridge_least_squares(x, x, side='left')\n"
            "d.solve_ridge_least_squares(x, x, side='right')\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        assert run_fresh_interpreter(script) == "False"

    def test_only_the_dct_sparsifier_loads_scipy_fft(self):
        # scipy.fft brings scipy.special and scipy's own OpenBLAS; the MRI
        # operator runs on numpy's FFT, so only a DCT sparsify imports it
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import dealias as d\n"
            "image = d.generate_phantom('shepp-logan', 32)\n"
            "mask = d.make_mask('random', 32, 32, {'fraction': 0.5}, d.SeededRng(0))\n"
            "haar = d.SparsifyingTransform('haar-wavelet', 2)\n"
            "d.cs_reconstruct_image(d.fft2(image), mask, haar, 0.01, max_iter=5)\n"
            "ct = d.DegradationSpec('ct', ct_spacing_deg=10.0)\n"
            "degraded = [d.degrade(image, ct) for _ in range(3)][-1]\n"
            "assert d.transforms._PROJECTOR.matrix is not None\n"
            "x = np.linspace(0.0, 1.0, 16 * 12).reshape(16, 12)\n"
            "model, _ = d.train_robust(d.TrainingSet.from_arrays(x, x), d.TrainConfig(hidden=4, max_iter=2))\n"
            "d.reconstruct_image(model, degraded)\n"
            "print('scipy.fft' in sys.modules)\n"
            "d.sparsify(image, d.SparsifyingTransform('dct'))\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        assert run_fresh_interpreter(script).split() == ["False", "True"]


def run_fresh_interpreter(script):
    """Stdout of ``script`` run by a fresh interpreter that imports this
    checkout's dealias, so it sees only what dealias itself imports."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(d.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestObjectiveL1:
    def test_perfect_model_is_zero(self):
        tset = toy_training_set(dim=6, count=5, seed=5)
        model = _initial_weights(6, d.TrainConfig(hidden=4, seed=0))
        outputs = model.forward(tset.inputs)
        perfect = d.TrainingSet.from_arrays(tset.inputs, outputs)
        assert d.objective_l1(model, perfect) == pytest.approx(0.0, abs=1e-12)

    def test_zero_encoder_sums_targets(self):
        tset = toy_training_set(dim=6, count=5, seed=6)
        model = d.AutoencoderModel(np.zeros((4, 7)), np.ones((6, 4)))
        assert d.objective_l1(model, tset) == pytest.approx(np.abs(tset.x_out).sum())

    def test_matches_naive_double_loop(self):
        tset = toy_training_set(dim=5, count=7, seed=7)
        model = _initial_weights(5, d.TrainConfig(hidden=3, seed=1))
        predicted = model.forward(tset.inputs)
        total = 0.0
        for i in range(5):
            for j in range(7):
                total += abs(tset.x_out[i, j] - predicted[i, j])
        assert d.objective_l1(model, tset) == pytest.approx(total, abs=1e-12)


class TestL2Baseline:
    def test_gradient_matches_finite_differences(self):
        rng = SeededRng(14)
        tset = d.TrainingSet.from_arrays(
            rng.uniform(4 * 5).reshape(4, 5), rng.uniform(4 * 5).reshape(4, 5)
        )
        config = d.TrainConfig(hidden=3, seed=2)
        model = _initial_weights(4, config)
        loss, g_enc, g_dec = l2_loss_and_grads(model, tset)
        step = 1e-5

        def numeric(weights, setter):
            grad = np.zeros_like(weights)
            for idx in np.ndindex(*weights.shape):
                for sign in (1, -1):
                    probe = weights.copy()
                    probe[idx] += sign * step
                    setter(probe)
                    value = l2_loss_and_grads(model, tset)[0]
                    grad[idx] += sign * value / (2 * step)
                setter(weights)
            return grad

        enc0, dec0 = model.w_enc.copy(), model.w_dec.copy()
        fd_enc = numeric(enc0, lambda w: setattr(model, "w_enc", w))
        fd_dec = numeric(dec0, lambda w: setattr(model, "w_dec", w))
        for exact, approx in ((g_enc, fd_enc), (g_dec, fd_dec)):
            rel = np.abs(exact - approx) / np.maximum(np.abs(exact), 1e-6)
            assert rel.max() < 1e-5

    def test_gradients_match_unfused_expression(self):
        # the residual is formed, squared and doubled in place; doubling is
        # exact, so both gradients keep the bits of the plain expression
        tset = toy_training_set(dim=16, count=40, seed=11)
        model = _initial_weights(16, d.TrainConfig(hidden=6, seed=4))
        z = activate(model.w_enc @ tset.x_in)
        residual = model.w_dec @ z - tset.x_out
        g_out = 2.0 * residual
        g_dec = g_out @ z.T
        g_hidden = (model.w_dec.T @ g_out) * (1.0 - z * z)
        g_enc = g_hidden @ tset.x_in.T
        loss, got_enc, got_dec = l2_loss_and_grads(model, tset)
        assert got_enc.tobytes() == g_enc.tobytes()
        assert got_dec.tobytes() == g_dec.tobytes()
        assert loss == pytest.approx(float((residual * residual).sum()), rel=1e-14)

    def test_epoch_holds_one_residual_array(self):
        dim, count, hidden = 256, 4000, 32
        tset = toy_training_set(dim=dim, count=count, seed=12)
        model = _initial_weights(dim, d.TrainConfig(hidden=hidden, seed=0))
        l2_loss_and_grads(model, tset)  # warm-up
        tracemalloc.start()
        try:
            l2_loss_and_grads(model, tset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * dim * count * 8

    def test_run_reuses_one_workspace(self):
        # one d x N residual and two h x N arrays serve every epoch
        dim, count, hidden = 256, 4000, 32
        tset = toy_training_set(dim=dim, count=count, seed=12)
        config = d.TrainConfig(hidden=hidden, seed=0, learning_rate=1e-7, epochs=3)
        tracemalloc.start()
        try:
            d.train_l2_baseline(tset, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dim * count * 8

    def test_float32_run_copies_no_targets(self, monkeypatch):
        # the run holds X_in and the workspace in float32 beside the float64
        # TrainingSet, and the residual pass reads X_out as it is: a float32
        # copy of X_out would add 0.5 d x N x 8.  Each worker of the slab
        # passes squares its slab in float64, so the run gets one usable
        # core and its peak does not depend on the machine's core count
        monkeypatch.setattr(autoencoder, "_usable_cores", lambda: 1)
        dim, count, hidden = 256, 4000, 32
        tset = toy_training_set(dim=dim, count=count, seed=12)
        config = d.TrainConfig(hidden=hidden, seed=0, learning_rate=1e-7, epochs=3)
        tracemalloc.start()
        try:
            d.train_l2_baseline(tset, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * dim * count * 8

    def test_float32_descent_tracks_float64_reference(self):
        # the descent written out in float64 with nothing shared; the
        # trainer's epochs run their products in float32
        dim, count, epochs, rate = 64, 2000, 30, 1e-5
        tset = toy_training_set(dim=dim, count=count, seed=16)
        config = d.TrainConfig(hidden=16, seed=0, learning_rate=rate, epochs=epochs)
        init = _initial_weights(dim, config)
        w_enc, w_dec = init.w_enc, init.w_dec
        for _ in range(epochs):
            z = np.tanh(w_enc @ tset.x_in)
            g_out = 2.0 * (w_dec @ z - tset.x_out)
            g_enc = ((w_dec.T @ g_out) * (1.0 - z * z)) @ tset.x_in.T
            w_enc, w_dec = w_enc - rate * g_enc, w_dec - rate * (g_out @ z.T)
        residual = w_dec @ np.tanh(w_enc @ tset.x_in) - tset.x_out
        expected = float((residual * residual).sum())
        model = d.train_l2_baseline(tset, config)
        assert model.w_enc.dtype == model.w_dec.dtype == np.float64
        loss = l2_loss_and_grads(model, tset)[0]
        assert loss < 0.5 * l2_loss_and_grads(init, tset)[0]
        assert abs(loss - expected) < 1e-5 * expected
        for got, want in ((model.w_enc, w_enc), (model.w_dec, w_dec)):
            assert np.abs(got - want).max() < 1e-5 * np.abs(want).max()

    def test_workspace_gives_the_bits_of_fresh_buffers(self):
        tset = toy_training_set(dim=16, count=40, seed=11)
        model = _initial_weights(16, d.TrainConfig(hidden=6, seed=4))
        buffers = autoencoder.l2_workspace(model, tset)
        for buffer in buffers:
            buffer.fill(np.nan)  # nothing may be read before it is written
        fresh = l2_loss_and_grads(model, tset)
        for _ in range(2):
            loss, g_enc, g_dec = l2_loss_and_grads(model, tset, buffers)
            assert loss == fresh[0]
            assert g_enc.tobytes() == fresh[1].tobytes()
            assert g_dec.tobytes() == fresh[2].tobytes()

    def test_slab_passes_do_not_depend_on_worker_count(self, monkeypatch):
        # 128 x 2048: the residual pass walks four slabs; the loss adds
        # their partial sums in slab order
        tset = toy_training_set(dim=128, count=2048, seed=13)
        model = _initial_weights(128, d.TrainConfig(hidden=16, seed=5))
        results = []
        for cores in (1, 2, 6):
            monkeypatch.setattr(autoencoder, "_usable_cores", lambda: cores)
            loss, g_enc, g_dec = l2_loss_and_grads(model, tset)
            results.append((loss, g_enc.tobytes(), g_dec.tobytes()))
        assert results[0] == results[1] == results[2]

    def test_zero_learning_rate_keeps_initialization(self):
        tset = toy_training_set(dim=6, count=8, seed=8)
        config = d.TrainConfig(hidden=4, seed=3, learning_rate=0.0, epochs=10)
        model = d.train_l2_baseline(tset, config)
        init = _initial_weights(6, config)
        assert np.array_equal(model.w_enc, init.w_enc)
        assert np.array_equal(model.w_dec, init.w_dec)

    def test_identity_task_reduces_loss(self):
        tset = toy_training_set(dim=8, count=16, seed=9)
        config = d.TrainConfig(hidden=8, seed=0, learning_rate=1e-4, epochs=200)
        model = d.train_l2_baseline(tset, config)
        init = _initial_weights(8, config)
        assert l2_loss_and_grads(model, tset)[0] < l2_loss_and_grads(init, tset)[0]

    def test_divergence_raises(self):
        tset = toy_training_set(dim=8, count=16, seed=10)
        config = d.TrainConfig(hidden=8, seed=0, learning_rate=10.0, epochs=200)
        with pytest.raises(NumericFailure):
            d.train_l2_baseline(tset, config)


class TestModelPersistence:
    def test_roundtrip_forward_agreement(self, tmp_path):
        model = _initial_weights(16, d.TrainConfig(hidden=8, seed=6))
        d.save_model(model, tmp_path / "bundle")
        loaded = d.load_model(tmp_path / "bundle")
        x = SeededRng(15).uniform(16)
        assert np.abs(loaded.forward(x) - model.forward(x)).max() < 1e-6

    def test_non_tanh_bundle_rejected(self, tmp_path):
        # a bundle of another activation is never read as a tanh model
        model = _initial_weights(4, d.TrainConfig(hidden=3, seed=7))
        d.save_model(model, tmp_path / "bundle")
        manifest = (tmp_path / "bundle" / "manifest.txt").read_text()
        assert "activation=tanh\n" in manifest
        (tmp_path / "bundle" / "manifest.txt").write_text(
            manifest.replace("activation=tanh", "activation=sigmoid")
        )
        with pytest.raises(d.FormatError, match="sigmoid"):
            d.load_model(tmp_path / "bundle")

    def test_missing_decoder_tensor(self, tmp_path):
        model = _initial_weights(4, d.TrainConfig(hidden=3, seed=8))
        d.save_model(model, tmp_path / "bundle")
        (tmp_path / "bundle" / "w_dec.rdt").unlink()
        with pytest.raises(d.FormatError):
            d.load_model(tmp_path / "bundle")

    def test_shape_mismatch_detected(self, tmp_path):
        model = _initial_weights(4, d.TrainConfig(hidden=3, seed=9))
        d.save_model(model, tmp_path / "bundle")
        from dealias.core import write_tensor

        write_tensor(tmp_path / "bundle" / "w_dec.rdt", np.zeros((2, 2)))
        with pytest.raises(d.FormatError):
            d.load_model(tmp_path / "bundle")

    def test_failed_save_leaves_existing_bundle_unchanged(self, tmp_path):
        # 1e39 is finite in float64 but not in float32: both tensors are
        # checked before any file is written, so the old bundle stays whole
        bundle = tmp_path / "bundle"
        d.save_model(_initial_weights(4, d.TrainConfig(hidden=3, seed=10)), bundle)
        before = {f.name: f.read_bytes() for f in bundle.iterdir()}
        bad = _initial_weights(4, d.TrainConfig(hidden=3, seed=11))
        bad.w_dec[0, 0] = 1e39
        for path in (bundle, tmp_path / "fresh"):
            with pytest.raises(ValueError, match="float32"):
                d.save_model(bad, path)
        assert {f.name: f.read_bytes() for f in bundle.iterdir()} == before
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize(
        "key, value", [("format_version", "99"), ("format_version", "2"), ("d", "4.0"),
                       ("hidden", "three")]
    )
    def test_bad_manifest_value_rejected(self, tmp_path, key, value):
        # only format version 1 is read, and d and hidden must be integers
        d.save_model(_initial_weights(4, d.TrainConfig(hidden=3, seed=12)), tmp_path / "bundle")
        manifest = tmp_path / "bundle" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert f"{key}=" in "".join(lines)
        manifest.write_text("".join(
            f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n" for line in lines
        ))
        with pytest.raises(d.FormatError, match=key):
            d.load_model(tmp_path / "bundle")
