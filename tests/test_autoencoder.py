"""Robust trainer internals: the activation, exact block solves, training loops."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import dealias as d
from dealias import autoencoder
from dealias.autoencoder import (
    BREGMAN_UPDATES,
    LATENT_UPDATES,
    SplitBregmanState,
    _gram_factor,
    _initial_state,
    _initial_weights,
    activate,
    constraint_residuals,
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


def fresh_state(model, tset, config):
    """The state train_robust starts from (anchored: no B2, and Z is the
    state's own phi(W_enc X_in)), with P set to X_out - W_dec Z so that
    the objective is defined before the first P1."""
    state = _initial_state(model, tset, config)
    np.copyto(state.p, state.gap_for(model, tset))
    return state


def record_gram_factors(monkeypatch):
    """The matrices autoencoder._gram_factor is called on, in call order."""
    factored = []
    gram_factor = autoencoder._gram_factor

    def recording(a, ridge_eps):
        factored.append(a)
        return gram_factor(a, ridge_eps)

    monkeypatch.setattr(autoencoder, "_gram_factor", recording)
    return factored


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
    def _setup(self, **overrides):
        # every setting SPLIT_STEP_HISTORY_SEED0 depends on, none from the defaults
        settings = dict(
            hidden=8, lam=1.0, mu=1.0, max_iter=20, rel_tol=0.0, seed=0, ridge_eps=1e-6,
            bregman_update="reflective", latent_update="coupled",
        )
        settings.update(overrides)
        config = d.TrainConfig(**settings)
        tset = toy_training_set(dim=16, count=8, seed=1)
        model = _initial_weights(16, config)
        return model, tset, fresh_state(model, tset, config), config

    def test_blocks_do_not_increase_own_subobjective(self):
        model, tset, state, config = self._setup()
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
        state = fresh_state(model, tset16, config)
        for _ in range(10):
            split_bregman_step(model, tset16, state, config)
        history = state.objective_history
        assert len(history) == 10
        assert all(np.isfinite(history))
        assert history == pytest.approx(SPLIT_STEP_HISTORY_SEED0, rel=1e-8)

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
    """One cycle as written before the residuals were shared: the objective
    and the relaxation update (B <- c - B, B <- B - c) each evaluate the
    constraints themselves, and P3 is the plain ridge solve.  Without B2
    (anchored) there is no P2 or P4, and the second constraint must hold
    exactly and add nothing."""
    coupled = state.b2 is not None
    update_sparse_residual(model, tset, state, config)
    if coupled:
        update_encoder(model, tset, state, config)
    model.w_dec = solve_ridge_least_squares(
        state.z, tset.x_out - state.p + state.b1, config.ridge_eps
    )
    if coupled:
        update_latent(model, tset, state, config)
    r1 = state.p - (tset.x_out - model.w_dec @ state.z) - state.b1
    objective = float(np.abs(state.p).sum()) + config.lam * float((r1 * r1).sum())
    c1 = state.p - (tset.x_out - model.w_dec @ state.z)
    c2 = state.z - activate(model.w_enc @ tset.x_in)
    if state.b2 is None:
        assert not c2.any()
    else:
        r2 = c2 - state.b2
        objective += config.mu * float((r2 * r2).sum())
    state.objective_history.append(objective)
    for name, c in (("b1", c1), ("b2", c2)):
        b = getattr(state, name)
        if b is not None:
            setattr(state, name, c - b if config.bregman_update == "reflective" else b - c)


# (dim, count, hidden) of the unshared-cycle comparison; the first keeps the
# original case ids, the second (hidden < dim, count >> dim) gets a suffix
CYCLE_SHAPES = {"": (16, 16, 8), "-d64": (64, 700, 32)}


class TestRelaxationIdentity:
    @pytest.mark.parametrize(
        "latent, bregman, shape",
        [
            pytest.param(latent, bregman, shape, id=f"{latent}-{bregman}{suffix}")
            for suffix, shape in CYCLE_SHAPES.items()
            for latent in LATENT_UPDATES
            for bregman in BREGMAN_UPDATES
        ],
    )
    def test_step_matches_unshared_cycle_bitwise(self, bregman, latent, shape):
        dim, count, hidden = shape
        config = d.TrainConfig(
            hidden=hidden, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=dim, count=count, seed=0)
        runs = []
        for step in (split_bregman_step, unshared_cycle):
            model = _initial_weights(dim, config)
            state = fresh_state(model, tset, config)
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
        assert constraint_residuals(model, tset, state)[1] is None
        history, weights_sha256 = ANCHORED_PINS[bregman]
        assert state.objective_history == history
        weights = model.w_enc.tobytes() + model.w_dec.tobytes()
        assert hashlib.sha256(weights).hexdigest() == weights_sha256


# anchored train_robust at d=16, N=64, h=8, lam 20, ridge 1e-2, 10 cycles:
# objective history and the SHA-256 of the w_enc then w_dec bytes
ANCHORED_PINS = {
    "reflective": (
        [
            709.8387619382701, 684.5997437388849, 662.82186652563, 640.912896263296,
            619.4715815458642, 598.1402561111312, 577.1740944007635, 556.5222124558762,
            536.3347431731395, 516.6546651039704,
        ],
        "06747aef30d151098546a0d3c55c58b2228f21bbc44245e1b82bff3069c125ad",
    ),
    "additive": (
        [
            709.8387619382701, 691.0336502854324, 669.3439134915524, 647.9767796074742,
            626.9965625494114, 606.3699848700104, 585.97857020826, 565.891315552603,
            546.324308181745, 527.4981847361815,
        ],
        "efa237f9ab27ba053b81d15a894437c51002d65b239428f09c3d0e872cffd476",
    ),
}


# the blocks of one cycle, before the relaxation update
COUPLED_BLOCKS = (update_sparse_residual, update_encoder, update_decoder, update_latent)
ANCHORED_BLOCKS = (update_sparse_residual, update_decoder)

VARIANTS = pytest.mark.parametrize(
    "latent, bregman",
    [(latent, bregman) for latent in LATENT_UPDATES for bregman in BREGMAN_UPDATES],
)


def state_bytes(model, state):
    arrays = (model.w_enc, model.w_dec, state.p, state.z, state.b1, state.b2)
    return [None if a is None else a.tobytes() for a in arrays]


class TestCycleBuffers:
    """The cycle works in the state's own arrays and reuses kept products
    only while the arrays they came from are current."""

    @VARIANTS
    def test_cycle_allocates_no_dxn_temporaries(self, latent, bregman):
        dim, count = 256, 4000
        config = d.TrainConfig(
            hidden=32, lam=20.0, ridge_eps=1e-2, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=dim, count=count, seed=0)
        model = _initial_weights(dim, config)
        state = fresh_state(model, tset, config)
        split_bregman_step(model, tset, state, config)  # warm-up
        tracemalloc.start()
        try:
            split_bregman_step(model, tset, state, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim * count * 8

    @VARIANTS
    def test_blocks_one_at_a_time_match_cycle(self, latent, bregman):
        # criterion 2's sequence: the objective between blocks (here twice,
        # so the second call finds the products it kept) uses the work
        # array and must not disturb the cycle
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=2)
        runs = []
        for one_at_a_time in (False, True):
            model = _initial_weights(16, config)
            state = fresh_state(model, tset, config)
            objectives = []
            for _ in range(6):
                if not one_at_a_time:
                    split_bregman_step(model, tset, state, config)
                    continue
                for block in ANCHORED_BLOCKS if state.b2 is None else COUPLED_BLOCKS:
                    first = penalty_objective(model, tset, state, config)
                    assert penalty_objective(model, tset, state, config) == first
                    block(model, tset, state, config)
                objectives.append(penalty_objective(model, tset, state, config))
                update_relaxation(model, tset, state, config)
            runs.append((model, state, objectives))
        (model, state, _), (ref_model, ref_state, objectives) = runs
        assert state.objective_history == objectives
        assert state_bytes(model, state) == state_bytes(ref_model, ref_state)

    @pytest.mark.parametrize("replaced", ["w_dec", "w_enc", "z"])
    @VARIANTS
    def test_replaced_array_matches_fresh_state(self, latent, bregman, replaced):
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=16, count=24, seed=3)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset, config)
        for _ in range(3):
            split_bregman_step(model, tset, state, config)
        owner = state if replaced == "z" else model
        setattr(owner, replaced, getattr(owner, replaced) * 1.01)
        fresh_model = d.AutoencoderModel(model.w_enc.copy(), model.w_dec.copy())
        fresh = SplitBregmanState(
            p=state.p.copy(), z=state.z.copy(), b1=state.b1.copy(),
            b2=None if state.b2 is None else state.b2.copy(),
        )
        if state.z is state.encoded and state.computed_from("encoded", tset.x_in, model.w_enc):
            # an anchored Z that is still phi(W_enc X_in): share it as train_robust does
            fresh.z = fresh.encoded_for(fresh_model, tset)
            assert fresh.z.tobytes() == state.z.tobytes()
        assert penalty_objective(model, tset, state, config) == penalty_objective(
            fresh_model, tset, fresh, config
        )
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
            split_bregman_step(fresh_model, tset, fresh, config)
        assert state.objective_history[-2:] == fresh.objective_history
        assert state_bytes(model, state) == state_bytes(fresh_model, fresh)

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_non_finite_objective_raises_at_its_iteration(self, bregman):
        # lam = inf leaves every anchored block finite (tau = 0), not the penalty
        config = d.TrainConfig(
            hidden=8, lam=1.0, mu=1.0, bregman_update=bregman, latent_update="anchored"
        )
        tset = toy_training_set(dim=16, count=24, seed=4)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset, config)
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
        config.lam = np.inf  # past the constructor's check
        with pytest.raises(NumericFailure, match="at iteration 2$"):
            split_bregman_step(model, tset, state, config)


class TestEncoderUpdate:
    def test_state_with_b2_takes_ridge_fit(self):
        # P2 is the ridge fit of phi^-1(Z - B2) X_in^T (G + eps I)^-1, bit for bit
        config = d.TrainConfig(hidden=8, lam=20.0, ridge_eps=1e-2, latent_update="coupled")
        tset = toy_training_set(dim=16, count=40, seed=5)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset, config)
        state.b2 = 0.1 * SeededRng(6).normal(state.z.shape)
        target = activate(state.z - state.b2, "inverse")
        gram = _gram_factor(tset.x_in, config.ridge_eps)
        expected = scipy.linalg.cho_solve(gram, tset.x_in @ target.T).T
        update_encoder(model, tset, state, config)
        assert model.w_enc.tobytes() == expected.tobytes()

    def test_state_factors_input_gram_once(self, monkeypatch):
        # the state keeps the factor of X_in X_in^T + eps I for later P2 calls
        config = d.TrainConfig(hidden=8, lam=20.0, ridge_eps=1e-2, latent_update="coupled")
        tset = toy_training_set(dim=16, count=40, seed=5)
        model = _initial_weights(16, config)
        state = fresh_state(model, tset, config)
        factored = record_gram_factors(monkeypatch)
        update_encoder(model, tset, state, config)
        first = model.w_enc
        update_encoder(model, tset, state, config)
        assert len(factored) == 1 and factored[0] is tset.x_in
        assert model.w_enc.tobytes() == first.tobytes()


class TestFrozenFeatures:
    """An anchored run fits the decoder on F = phi(W_0 X_in), which it
    never recomputes, and factors F F^T + eps I once."""

    def _config(self, bregman, latent="anchored"):
        return d.TrainConfig(
            hidden=8, lam=20.0, ridge_eps=1e-2, max_iter=6, rel_tol=0.0,
            bregman_update=bregman, latent_update=latent,
        )

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_encoder_and_features_stay_initial(self, bregman):
        config = self._config(bregman)
        tset = toy_training_set(dim=16, count=64, seed=0)
        model, state = d.train_robust(tset, config)
        w0 = _initial_weights(16, config).w_enc
        assert model.w_enc.tobytes() == w0.tobytes()
        assert state.z.tobytes() == activate(w0 @ tset.x_in).tobytes()

    @pytest.mark.parametrize("bregman", BREGMAN_UPDATES)
    def test_each_decoder_is_the_ridge_solve(self, bregman, monkeypatch):
        # W_dec after cycle k solves against X_out - P_k + B1_{k-1}
        config = self._config(bregman)
        tset = toy_training_set(dim=16, count=64, seed=1)
        step = autoencoder.split_bregman_step
        checked = []

        def checked_step(model, tset, state, config):
            b1 = state.b1.copy()
            step(model, tset, state, config)
            expected = solve_ridge_least_squares(
                state.z, tset.x_out - state.p + b1, config.ridge_eps
            )
            assert model.w_dec.tobytes() == expected.tobytes()
            checked.append(state.iteration)
            return model, state

        monkeypatch.setattr(autoencoder, "split_bregman_step", checked_step)
        d.train_robust(tset, config)
        assert checked == list(range(1, config.max_iter + 1))

    @pytest.mark.parametrize("latent", LATENT_UPDATES)
    def test_input_gram_only_in_coupled_runs(self, latent, monkeypatch):
        # anchored: one factor, of F F^T; coupled: the input Gram once, plus
        # one F F^T per cycle since its Z changes
        config = self._config("additive", latent)
        tset = toy_training_set(dim=16, count=64, seed=2)
        factored = record_gram_factors(monkeypatch)
        _, state = d.train_robust(tset, config)
        on_input = [a is tset.x_in for a in factored]
        if latent == "anchored":
            assert on_input == [False]
            assert factored[0] is state.z
        else:
            assert on_input == [True] + [False] * config.max_iter


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
        # one pool per pass and per objective sum that is not kept: none on
        # one core, and never more helpers than slabs after the caller
        assert pools and set(pools) == {1, 3}
        (model, state), *others = runs
        for other_model, other_state in others:
            assert other_state.objective_history == state.objective_history
            assert state_bytes(other_model, other_state) == state_bytes(model, state)

    @VARIANTS
    def test_slab_sums_kept_by_the_cycle_match_the_objective(self, latent, bregman):
        # the objective recomputed from P and B1 adds the same slab partials
        # as the passes that kept ||P||_1 and ||B1||^2
        config = d.TrainConfig(
            hidden=16, lam=20.0, ridge_eps=1e-2, bregman_update=bregman, latent_update=latent
        )
        tset = toy_training_set(dim=self.DIM, count=self.COUNT, seed=8)
        model = _initial_weights(self.DIM, config)
        state = fresh_state(model, tset, config)
        for _ in range(2):
            split_bregman_step(model, tset, state, config)
            state.sources.pop("p_l1")
            state.sources.pop("b1_sq")
            recomputed = penalty_objective(model, tset, state, config, (state.b1, state.b2))
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
