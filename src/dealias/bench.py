"""Benchmark harness: trains both autoencoders and compares four methods
(raw crude inversion, robust-ae, l2-ae, and ISTA compressed sensing when
the modality is mri) on a held-out corpus split, writing one CSV per
method, a summary CSV, and a timing CSV.

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

from .autoencoder import train_l2_baseline, train_robust
from .config import RunConfig, degradation_spec, sparsifying_transform, train_config
from .core import SeededRng, atomic_write_bytes, random_phantom, read_tensor, write_tensor
from .cs import cs_reconstruct_image
from .metrics import METRICS, MetricReport, MetricRow, nmse, psnr, ssim
from .pipeline import (
    TEST_SEED_OFFSET,
    _entry_spec,
    build_mask,
    build_training_set,
    degrade,
    load_manifest,
    patch_stride,
    reconstruct_image,
)
from .transforms import fft2

METHODS = ("raw", "robust-ae", "l2-ae", "ista")


@dataclass
class BenchResult:
    reports: dict  # method name -> MetricReport
    timing: dict  # label -> seconds (plus the ista/robust-ae speed ratio)


def _corpus_split(config: RunConfig, outdir):
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


def run_benchmark(config: RunConfig, outdir) -> BenchResult:
    # settings that can be checked without the images fail before any work
    spec = degradation_spec(config)
    tconf = train_config(config)
    transform = sparsifying_transform(config)
    patch_size = config["patch_size"]
    overlap = config["overlap"]
    patch_stride(patch_size, overlap)
    patch_stride(patch_size, config["train_overlap"])
    if config["ista_lambda"] < 0:
        raise ValueError("ista_lambda must be nonnegative")
    if config["timing_reps"] < 1:
        raise ValueError("timing_reps must be at least 1")
    train_entries, test_entries = _corpus_split(config, outdir)
    os.makedirs(outdir, exist_ok=True)
    _ensure_corpus(config, train_entries + test_entries)

    tset = build_training_set(train_entries, spec, patch_size, config["train_overlap"])
    (robust_model, _), robust_seconds = _timed(train_robust, tset, tconf)
    l2_model, l2_seconds = _timed(train_l2_baseline, tset, tconf)

    use_ista = spec.modality == "mri"
    reports = {m: MetricReport(rows=[]) for m in METHODS if use_ista or m != "ista"}

    last_clean = last_degraded = None
    for index, (clean_path, degraded_path) in enumerate(test_entries):
        name = os.path.basename(clean_path)
        clean = read_tensor(clean_path)
        entry_spec = _entry_spec(spec, TEST_SEED_OFFSET + index)
        if degraded_path is None:
            degraded = degrade(clean, entry_spec)
        else:
            degraded = read_tensor(degraded_path)
        last_clean, last_degraded = clean, degraded

        def add(method, image):
            reports[method].rows.append(
                MetricRow(name, nmse(image, clean), psnr(image, clean), ssim(image, clean))
            )

        add("raw", degraded)
        add("robust-ae", reconstruct_image(robust_model, degraded, overlap))
        add("l2-ae", reconstruct_image(l2_model, degraded, overlap))
        if use_ista:
            mask = build_mask(entry_spec, *clean.shape)
            add("ista", cs_reconstruct_image(
                fft2(clean, "forward"), mask, transform,
                config["ista_lambda"], config["ista_iters"], config["ista_tol"],
            ))

    timing = {
        "train_robust_seconds": robust_seconds,
        "train_l2_seconds": l2_seconds,
    }
    reps = config["timing_reps"]
    per_image = [
        _timed(reconstruct_image, robust_model, last_degraded, overlap)[1]
        for _ in range(reps)
    ]
    timing["reconstruct_seconds_median"] = statistics.median(per_image)
    if use_ista:
        mask = build_mask(spec, *last_clean.shape)
        kspace = fft2(last_clean, "forward")
        ista_times = [
            _timed(
                cs_reconstruct_image, kspace, mask, transform,
                config["ista_lambda"], config["timing_ista_iters"], 0.0,
            )[1]
            for _ in range(reps)
        ]
        timing["ista_seconds_median"] = statistics.median(ista_times)
        timing["ista_over_reconstruct_ratio"] = (
            timing["ista_seconds_median"] / timing["reconstruct_seconds_median"]
        )

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
