"""Benchmark harness: trains both autoencoders and scores one table of
methods (raw crude inversion, robust-ae, l2-ae, and ISTA compressed
sensing when the modality is mri) on a held-out corpus split, writing one
CSV per method, a summary CSV, and a timing CSV.

Every CSV embeds the fully resolved configuration as '# key=value'
comment lines; re-running from that header reproduces the metric CSVs
byte for byte.  Only timing.csv carries wall-clock measurements and is
therefore not byte-reproducible.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .autoencoder import train_l2_baseline, train_robust
from .config import RunConfig, degradation_spec, sparsifying_transform, train_config
from .core import (
    SeededRng,
    atomic_write_bytes,
    check_phantom_size,
    ensure_image,
    random_phantom,
    read_tensor,
    write_tensor,
)
from .cs import cs_reconstruct_image
from .metrics import METRICS, MetricReport, MetricRow, nmse, psnr, ssim
from .pipeline import (
    TEST_SEED_OFFSET,
    _entry_spec,
    build_mask,
    build_training_set,
    degrade,
    extract_patches,
    load_manifest,
    patch_stride,
    reconstruct_image,
)
from .transforms import fft2, require_pow2_grid


@dataclass
class BenchResult:
    reports: dict  # method name -> MetricReport
    timing: dict  # label -> seconds (plus the ista/robust-ae ratio and the robust cycles)


def _corpus_split(config: RunConfig, outdir, stride):
    """The train and test entries: those of the configured manifests, or
    the paths of a procedural corpus that :func:`_ensure_corpus` writes.
    Writes nothing, so a bad setting fails before any output exists."""
    train_manifest, test_manifest = config["train_manifest"], config["test_manifest"]
    if bool(train_manifest) != bool(test_manifest):
        raise ValueError("set both train_manifest and test_manifest, or neither")
    if train_manifest:
        train = load_manifest(train_manifest)
        test = load_manifest(test_manifest)
    else:
        corpus_dir = os.path.join(outdir, config["corpus_dir"])
        count, test_count = config["corpus_count"], config["test_count"]
        if count < 2 or not 0 < test_count < count:
            raise ValueError("need corpus_count >= 2 and 0 < test_count < corpus_count")
        size = config["corpus_size"]
        check_phantom_size(size)
        # raises unless a phantom reflect-pads to the patch grid
        extract_patches(np.zeros((size, size)), config["patch_size"], stride)
        paths = [os.path.join(corpus_dir, f"img_{i:04d}.rdt") for i in range(count)]
        train = [(p, None) for p in paths[: count - test_count]]
        test = [(p, None) for p in paths[count - test_count :]]
    overlap_paths = {p for p, _ in train} & {p for p, _ in test}
    if overlap_paths:
        raise ValueError(f"train/test splits share images: {sorted(overlap_paths)[:3]}")
    return train, test


def _ensure_corpus(config: RunConfig, entries):
    """Write the seeded phantoms of a procedural corpus, given all its
    entries in order; explicit manifests need nothing written."""
    if config["train_manifest"]:
        return
    os.makedirs(os.path.dirname(entries[0][0]), exist_ok=True)
    base = SeededRng(config["corpus_seed"])
    for i, (path, _) in enumerate(entries):
        write_tensor(path, random_phantom(config["corpus_size"], base.split(i)))


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _median_seconds(reps, fn, *args):
    return statistics.median(_timed(fn, *args)[1] for _ in range(reps))


def run_benchmark(config: RunConfig, outdir) -> BenchResult:
    # settings that can be checked without the images fail before any work
    spec = degradation_spec(config)
    tconf = train_config(config)
    transform = sparsifying_transform(config)
    patch_size, overlap = config["patch_size"], config["overlap"]
    stride = patch_stride(patch_size, overlap)
    if config["ista_lambda"] < 0:
        raise ValueError("ista_lambda must be nonnegative")
    for key in ("timing_reps", "ista_iters", "timing_ista_iters"):
        if config[key] < 1:
            raise ValueError(f"{key} must be at least 1")
    train_entries, test_entries = _corpus_split(config, outdir, stride)

    # method -> its image from (clean, degraded, entry_spec) of one test
    # entry; the autoencoders' entries read the models trained below
    methods = {
        "raw": lambda clean, degraded, _: degraded,
        "robust-ae": lambda clean, degraded, _: reconstruct_image(robust_model, degraded, overlap),
        "l2-ae": lambda clean, degraded, _: reconstruct_image(l2_model, degraded, overlap),
    }
    if spec.modality == "mri":
        # fit the FFT and ISTA to every test image: a procedural corpus's
        # size is known, a manifest's images are read
        if config["train_manifest"]:
            shapes = [ensure_image(read_tensor(path)).shape for path, _ in test_entries]
        else:
            shapes = [(config["corpus_size"],) * 2]
        for shape in shapes:
            require_pow2_grid(shape)
            transform.check_shape(shape)

        def ista(clean, mask_spec, iters=config["ista_iters"], tol=config["ista_tol"]):
            kspace, mask = fft2(clean, "forward"), build_mask(mask_spec, *clean.shape)
            return cs_reconstruct_image(kspace, mask, transform, config["ista_lambda"], iters, tol)

        methods["ista"] = lambda clean, degraded, entry_spec: ista(clean, entry_spec)
    os.makedirs(outdir, exist_ok=True)
    _ensure_corpus(config, train_entries + test_entries)

    tset = build_training_set(train_entries, spec, patch_size, overlap)
    # the l2 baseline first: a divergence raises within its few epochs,
    # before the longer robust run
    l2_model, l2_seconds = _timed(train_l2_baseline, tset, tconf)
    (robust_model, state), robust_seconds = _timed(train_robust, tset, tconf)
    timing = {
        "train_robust_seconds": robust_seconds,
        "train_robust_cycles": state.iteration,
        "train_l2_seconds": l2_seconds,
    }
    del tset, state  # scoring needs neither the patch matrices nor the trainer state

    reports = {method: MetricReport(rows=[]) for method in methods}
    for index, (clean_path, degraded_path) in enumerate(test_entries):
        name = os.path.basename(clean_path)
        clean = read_tensor(clean_path)
        entry_spec = _entry_spec(spec, TEST_SEED_OFFSET + index)
        degraded = degrade(clean, entry_spec) if degraded_path is None else read_tensor(degraded_path)
        for method, reconstruct in methods.items():
            image = reconstruct(clean, degraded, entry_spec)
            scores = (score(image, clean) for score in (nmse, psnr, ssim))
            reports[method].rows.append(MetricRow(name, *scores))

    # both timed on the last test image
    reps = config["timing_reps"]
    per_image = _median_seconds(reps, reconstruct_image, robust_model, degraded, overlap)
    timing["reconstruct_seconds_median"] = per_image
    if "ista" in methods:
        ista_seconds = _median_seconds(reps, ista, clean, spec, config["timing_ista_iters"], 0.0)
        timing["ista_seconds_median"] = ista_seconds
        timing["ista_over_reconstruct_ratio"] = ista_seconds / per_image

    _write_outputs(config, outdir, reports, timing)
    return BenchResult(reports=reports, timing=timing)


def _write_outputs(config, outdir, reports, timing):
    header = "".join(f"# {line}\n" for line in config.canonical_text().splitlines())

    def write(name, body):
        atomic_write_bytes(os.path.join(outdir, name), (header + body).encode())

    for method, report in reports.items():
        write(f"{method}.csv", report.to_csv())
    summary = ["method," + ",".join(f"{m}_{s}" for m in METRICS for s in ("mean", "std"))]
    for method, report in reports.items():
        values = (f(m) for m in METRICS for f in (report.mean, report.std))
        summary.append(method + "," + ",".join(repr(v) for v in values))
    write("summary.csv", "\n".join(summary) + "\n")
    lines = ["label,seconds"] + [f"{k},{repr(v)}" for k, v in timing.items()]
    write("timing.csv", "\n".join(lines) + "\n")
