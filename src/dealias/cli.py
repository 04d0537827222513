"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure.  All file outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .autoencoder import (
    load_model,
    save_model,
    train_l2_baseline,
    train_robust,
)
from .config import (
    CHOICES,
    DEFAULTS,
    TRAIN_FIELDS,
    degradation_spec,
    load_config_file,
    resolve_config,
    sparsifying_transform,
    train_config,
)
from .core import (
    FormatError,
    NumericFailure,
    atomic_write_bytes,
    generate_phantom,
    read_tensor,
    write_pgm,
    write_tensor,
)
from .cs import cs_reconstruct_image
from .metrics import nmse, psnr, ssim
from .pipeline import build_mask, build_training_set, degrade, reconstruct_image
from .transforms import fft2, save_mask

# the config keys each subcommand takes as flags, with type, default and
# choices from config.DEFAULTS; the key foo_bar is the flag --foo-bar
# unless _FLAG_NAMES names it otherwise
_DEGRADATION_KEYS = (
    "modality", "mask_kind", "mask_fraction", "mask_decay", "mask_lines",
    "mask_stride", "ct_spacing_deg", "impulse_fraction", "degrade_seed",
)
_CONFIG_KEYS = {
    "degrade": _DEGRADATION_KEYS,
    "train": (*TRAIN_FIELDS, "patch_size", "overlap", *_DEGRADATION_KEYS),
    "cs-recon": (
        "ista_lambda", "ista_iters", "ista_tol", "transform", "wavelet_levels",
    ) + _DEGRADATION_KEYS,
}
_FLAG_NAMES = {
    "degrade_seed": "--seed", "ct_spacing_deg": "--ct-spacing",
    "bregman_update": "--bregman", "latent_update": "--latent",
    "l2_learning_rate": "--learning-rate", "l2_epochs": "--epochs",
    "ista_lambda": "--lambda", "ista_iters": "--iters", "ista_tol": "--tol",
    "wavelet_levels": "--levels",
}


def _add_config_flags(parser, command):
    for key in _CONFIG_KEYS[command]:
        default = DEFAULTS[key]
        flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
        if isinstance(default, bool):
            # --key / --no-key: a typed flag would read "--key false" as True
            parser.add_argument(
                flag, dest=key, action=argparse.BooleanOptionalAction, default=default
            )
            continue
        parser.add_argument(
            flag, dest=key, type=type(default), default=default, choices=CHOICES.get(key),
        )


def _run_config(args):
    """The resolved config that a subcommand's config-backed flags select."""
    keys = _CONFIG_KEYS[args.command]
    return resolve_config(overrides={key: getattr(args, key) for key in keys})


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dealias",
        description="Learned de-aliasing of crudely inverted undersampled images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="write a deterministic test image")
    p.add_argument("--kind", choices=("shepp-logan", "disks"), default="shepp-logan")
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also export an 8-bit preview")

    p = sub.add_parser("degrade", help="simulate acquisition and crude inversion")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--save-mask", help="persist the sampling mask (mri only)")
    _add_config_flags(p, "degrade")

    p = sub.add_parser("train", help="train a de-aliasing model on a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model bundle directory")
    p.add_argument("--method", choices=("robust", "l2"), default="robust")
    _add_config_flags(p, "train")

    p = sub.add_parser("reconstruct", help="de-alias an image with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overlap", action="store_true")

    p = sub.add_parser("cs-recon", help="ISTA compressed-sensing reconstruction")
    p.add_argument("--image", required=True, help="clean image; acquisition is simulated")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "cs-recon")

    p = sub.add_parser("metrics", help="compare two images")
    p.add_argument("--a", required=True, help="estimate")
    p.add_argument("--b", required=True, help="reference")
    p.add_argument("--out", help="write a one-row CSV instead of stdout only")

    p = sub.add_parser("diff", help="export |a - b| x 10 (clamped) as PGM")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run the full method comparison")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--outdir", required=True)
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    return parser


def _cmd_phantom(args):
    image = generate_phantom(args.kind, args.size)
    write_tensor(args.out, image)
    if args.pgm:
        write_pgm(args.pgm, image)
    return 0


def _cmd_degrade(args):
    spec = degradation_spec(_run_config(args))
    if args.save_mask and spec.modality != "mri":
        raise ValueError("--save-mask only applies to the mri modality")
    image = read_tensor(args.image)
    write_tensor(args.out, degrade(image, spec))
    if args.save_mask:
        save_mask(args.save_mask, build_mask(spec, *image.shape))
    return 0


def _cmd_train(args):
    run = _run_config(args)
    config = train_config(run)
    tset = build_training_set(
        args.manifest, degradation_spec(run), run["patch_size"], run["overlap"]
    )
    if args.method == "robust":
        model, state = train_robust(tset, config)
        print(f"iterations={state.iteration}", file=sys.stderr)
    else:
        model = train_l2_baseline(tset, config)
    save_model(model, args.out)
    return 0


def _cmd_reconstruct(args):
    model = load_model(args.model)
    image = read_tensor(args.image)
    timing: dict = {}
    result = reconstruct_image(model, image, args.overlap, timing)
    write_tensor(args.out, result)
    print(
        f"seconds={timing['seconds']:.6f} "
        f"seconds_per_patch={timing['seconds_per_patch']:.6f}",
        file=sys.stderr,
    )
    return 0


def _cmd_cs_recon(args):
    run = _run_config(args)
    if run["modality"] != "mri":
        raise ValueError("cs-recon supports the mri modality only")
    image = read_tensor(args.image)
    mask = build_mask(degradation_spec(run), *image.shape)
    result = cs_reconstruct_image(
        fft2(image, "forward"), mask, sparsifying_transform(run),
        run["ista_lambda"], run["ista_iters"], run["ista_tol"],
    )
    write_tensor(args.out, result)
    return 0


def _cmd_metrics(args):
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    values = {"nmse": nmse(a, b), "psnr": psnr(a, b), "ssim": ssim(a, b)}
    print(" ".join(f"{k}={v!r}" for k, v in values.items()))
    if args.out:
        text = "nmse,psnr,ssim\n" + ",".join(repr(v) for v in values.values()) + "\n"
        atomic_write_bytes(args.out, text.encode())
    return 0


def _cmd_diff(args):
    a = read_tensor(args.a)
    b = read_tensor(args.b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    magnified = np.clip(np.abs(a - b) * 10.0, 0.0, 1.0)
    write_pgm(args.out, magnified)
    return 0


def _cmd_bench(args):
    file_values = load_config_file(args.config) if args.config else None
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    config = resolve_config(file_values, overrides)
    result = bench_mod.run_benchmark(config, args.outdir)
    for method, report in result.reports.items():
        print(f"{method}: nmse={report.mean('nmse'):.4f} psnr={report.mean('psnr'):.2f}")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "degrade": _cmd_degrade,
    "train": _cmd_train,
    "reconstruct": _cmd_reconstruct,
    "cs-recon": _cmd_cs_recon,
    "metrics": _cmd_metrics,
    "diff": _cmd_diff,
    "bench": _cmd_bench,
}


def command_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, nonzero for usage errors
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(command_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
