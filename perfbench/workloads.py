"""The three benchmark workloads and the checks on their outputs.

Every workload repeats the sequence ``dealias.bench.run_benchmark`` runs:
seeded ``random_phantom`` images (128x128) are written as RDT files, read
back through ``build_training_set`` into 32x32 patch pairs, the robust
split-Bregman autoencoder (h=256) and the l2 baseline are trained, and
held-out images are degraded, de-aliased by both models and by ISTA, and
scored.  Each layer is called through its public function, by module
attribute, so the tracer in ``tracing.py`` can wrap it.

Why each workload:

* ``train-mri`` -- the acceptance-criterion-6 training set (190 images,
  random mask at 50%, half-stride patches: N=9310, d=1024).  About eleven
  76 MB d x N arrays, far beyond the last-level cache: the memory-bound
  regime of the additive/anchored robust cycle.
* ``train-ct`` -- the same corpus through 36-view radon + FBP with
  non-overlapping patches (N=3040).  Radon and FBP dominate set-up, so a
  ``transforms`` change shows here and not on the MRI workloads; the
  reflective/coupled trainer exercises the h x h Cholesky solve of P4 and
  a live B2, the opposite corner of ``autoencoder`` from ``train-mri``.
* ``infer-mri`` -- the ``dealias bench`` evaluation loop scaled up: two
  models trained briefly during set-up, then a closed loop over held-out
  images (degrade, two patch reconstructions, ISTA, metrics), dominated
  by ISTA and SSIM.

``dealias bench`` runs ISTA for MRI only.  Every workload reports every
end-to-end metric, so ``train-ct`` runs ISTA on the sinogram through the
radon/backprojection pair (10 iterations), a CT compressed-sensing
baseline that also leans on ``transforms``.

Why the trainer settings are pinned here instead of read from
``config.DEFAULTS``: lambda=20, ridge 1e-2, additive/anchored and the l2
rate 2e-7 are the settings the acceptance gate verifies.  With the
shipped l2 rate of 1e-4 ``dealias bench`` diverges, so the pinned 2e-7
says nothing about the defaults working.  Cycle and epoch counts are
fixed (``rel_tol=0``) so every run does the same work.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from dealias import autoencoder, core, cs, metrics, pipeline, transforms

SIZE = 128
PATCH = 32
HIDDEN = 256
SETUP_REPS = 3
HELD_OUT = 10
# Held-out images form a fixed test set: --seed varies the training corpus
# and the initial weights, so quality metrics compare like with like.
HELD_OUT_SEED = 1 << 40
ISTA_TRANSFORM = transforms.SparsifyingTransform("haar-wavelet", 4)
ISTA_LAMBDA = 0.01
ISTA_MAX_ITER = 200
ISTA_TOL = 1e-6
CT_ISTA_ITERS = 10
# timed units per run, at least: the second repeats the first with the same seed
MIN_UNITS = 2
METHODS = ("raw", "robust", "l2", "ista")


@dataclass(frozen=True)
class Workload:
    name: str
    modality: str
    corpus: int  # images generated; the last HELD_OUT are held out
    overlap: bool  # half-stride training patches
    bregman_update: str
    latent_update: str
    cycles: int  # robust cycles per training run
    epochs: int  # l2 epochs per training run
    train_in_setup: bool = False  # infer-mri: models are part of the inputs


WORKLOADS = {
    "train-mri": Workload("train-mri", "mri", 200, True, "additive", "anchored", 3, 4),
    "train-ct": Workload("train-ct", "ct", 200, False, "reflective", "coupled", 4, 8),
    "infer-mri": Workload("infer-mri", "mri", 50, True, "additive", "anchored", 3, 6,
                          train_in_setup=True),
}


@dataclass
class Tally:
    """Operations attempted and failed, failed checks, and timing samples."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def attempt(self, label, fn, *args):
        """Run one operation; returns (result or None, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def check_image(self, label, image, upper=1.0):
        if image is None:
            return False
        if not np.all(np.isfinite(image)) or image.min() < 0.0 or image.max() > upper:
            self.fail(f"{label}: output non-finite or outside [0, {upper}]")
            return False
        return True


@dataclass
class Inputs:
    spec: pipeline.DegradationSpec
    held_out: list  # clean images
    tset: autoencoder.TrainingSet | None = None
    models: tuple | None = None  # (robust, l2) when trained during set-up
    shapes: dict = field(default_factory=dict)


def degradation(workload):
    # The mask is the acquisition protocol, not an input: it keeps the
    # dealias default seed 0 while --seed varies the images.
    if workload.modality == "mri":
        return pipeline.DegradationSpec(
            "mri", mask_kind="random", mask_params={"fraction": 0.5}, seed=0
        )
    return pipeline.DegradationSpec("ct", ct_spacing_deg=5.0)


def train_config(workload, seed):
    return autoencoder.TrainConfig(
        hidden=HIDDEN, lam=20.0, mu=1.0, max_iter=workload.cycles, rel_tol=0.0,
        ridge_eps=1e-2, bregman_update=workload.bregman_update,
        latent_update=workload.latent_update, seed=seed,
        learning_rate=2e-7, epochs=workload.epochs,
    )


def setup(workload, seed, workdir, tally) -> Inputs:
    """Write the corpus, read it back into training patches, keep the
    held-out images; for infer-mri also train the two models."""
    spec = degradation(workload)
    # split(i) adds i to the seed, so seeds 1000 apart give disjoint
    # training corpora; the held-out images are the same for every seed
    train_base = core.SeededRng(seed * 1000)
    held_out_base = core.SeededRng(HELD_OUT_SEED)
    with tempfile.TemporaryDirectory(dir=workdir) as corpus:
        paths = []
        for i in range(workload.corpus):
            rng = train_base.split(i) if i < workload.corpus - HELD_OUT else held_out_base.split(i)
            path = os.path.join(corpus, f"img_{i:04d}.rdt")
            core.write_tensor(path, core.random_phantom(SIZE, rng))
            paths.append(path)
        train = [(p, None) for p in paths[:-HELD_OUT]]
        tset = pipeline.build_training_set(train, spec, PATCH, workload.overlap)
        held_out = [core.read_tensor(p) for p in paths[-HELD_OUT:]]
    inputs = Inputs(spec, held_out, tset, shapes={
        "N": tset.count, "d": tset.x_out.shape[0], "h": HIDDEN,
        "train_images": len(train), "held_out_images": HELD_OUT,
        "cycles": workload.cycles, "epochs": workload.epochs,
    })
    if workload.train_in_setup:
        inputs.models = train_models(workload, seed, tset, tally)
        inputs.tset = None
    return inputs


def train_models(workload, seed, tset, tally):
    conf = train_config(workload, seed)
    out, seconds = tally.attempt("train_robust", autoencoder.train_robust, tset, conf)
    robust = None
    if out is not None:
        robust, state = out
        if len(state.objective_history) != conf.max_iter or not np.all(
            np.isfinite(state.objective_history)
        ):
            tally.fail("train_robust: objective history non-finite or short")
            robust = None
    tally.sample("robust_cycle_s", seconds / conf.max_iter)
    l2, seconds = tally.attempt("train_l2_baseline", autoencoder.train_l2_baseline, tset, conf)
    tally.sample("l2_epoch_s", seconds / conf.epochs)
    return robust, l2


def ct_ista(clean, spec):
    """ISTA on the sparse-view sinogram, Haar-sparse image, radon operator."""
    angles = np.arange(0.0, 180.0, spec.ct_spacing_deg)
    sino = transforms.radon_forward(clean, angles)
    shape = sino.sinogram.shape

    def apply(coeffs):
        image = transforms.sparsify(coeffs.reshape(SIZE, SIZE), ISTA_TRANSFORM, "inverse")
        return transforms.radon_forward(image, angles).sinogram.ravel()

    def adjoint(values):
        image = transforms.backproject(transforms.ProjectionSet(angles, values.reshape(shape)), SIZE)
        return transforms.sparsify(image, ISTA_TRANSFORM, "forward").ravel()

    op = cs.LinearOperator(apply, adjoint, SIZE * SIZE, sino.sinogram.size)
    # ten power iterations already give lambda_max to seven digits here
    report = cs.ista_solve(op, sino.sinogram.ravel(), ISTA_LAMBDA, CT_ISTA_ITERS, ISTA_TOL,
                           power_iters=10)
    coeffs = report.solution.reshape(SIZE, SIZE)
    return np.abs(transforms.sparsify(coeffs, ISTA_TRANSFORM, "inverse"))


def mri_ista(clean, spec):
    mask = pipeline.build_mask(spec, *clean.shape)
    kspace = transforms.fft2(clean, "forward")
    return cs.cs_reconstruct_image(kspace, mask, ISTA_TRANSFORM, ISTA_LAMBDA, ISTA_MAX_ITER, ISTA_TOL)


def evaluate(workload, inputs, models, tally):
    """De-alias and score the held-out images; returns per-image NMSE rows
    (raw, robust, l2, ista), None where an operation failed."""
    rows = []
    start = time.perf_counter()
    for index in range(HELD_OUT):
        clean = inputs.held_out[index]
        degraded = pipeline.degrade(clean, inputs.spec)
        outputs = [degraded]
        for label, model in zip(("robust", "l2"), models):
            if model is None:
                outputs.append(None)
                continue
            out, seconds = tally.attempt(label, pipeline.reconstruct_image, model, degraded, True)
            tally.sample("recon_ms", seconds * 1e3)
            outputs.append(out if tally.check_image(f"{label} image {index}", out) else None)
        ista = mri_ista if workload.modality == "mri" else ct_ista
        out, seconds = tally.attempt("ista", ista, clean, inputs.spec)
        tally.sample("ista_ms", seconds * 1e3)
        # reconstruct_image clamps to [0, 1]; the ISTA magnitude image is
        # not clamped and may ring slightly above 1, so only its sign is checked
        if tally.check_image(f"ista image {index}", out, upper=np.inf):
            tally.sample("ista_max", float(out.max()))
            outputs.append(out)
        else:
            outputs.append(None)
        row = []
        for image in outputs:
            if image is None:
                row.append(None)
                continue
            # dealias bench scores every method with all three metrics, so
            # their cost is part of the loop; NMSE is the reported figure
            row.append(metrics.nmse(image, clean))
            metrics.psnr(image, clean)
            metrics.ssim(image, clean)
        if workload.name == "infer-mri" and None not in (row[0], row[3]) and not row[3] < row[0]:
            tally.fail(f"ista image {index}: NMSE {row[3]!r} not below zero-fill {row[0]!r}")
        rows.append(row)
    tally.sample("eval_s", time.perf_counter() - start)
    tally.sample("eval_images", len(rows))
    return rows


def run_unit(workload, seed, inputs, tally):
    """One timed unit: a training round plus held-out evaluation, or, for
    infer-mri, one pass over the held-out images."""
    models = inputs.models
    if models is None:
        models = train_models(workload, seed, inputs.tset, tally)
    return evaluate(workload, inputs, models, tally)


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; None below eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 10) / n


def mean_nmse(rows):
    means = {}
    for column, method in enumerate(METHODS):
        values = [row[column] for row in rows]
        means[f"nmse_{method}"] = None if None in values else statistics.fmean(values)
    return means
