"""Flat key=value run configuration.

``DEFAULTS`` is the single source of every setting: ``dealias bench``
resolves it, and the ``degrade``/``train``/``cs-recon`` flags take their
defaults from it; its trainer defaults are the ``TrainConfig`` field
defaults.  A config file holds one ``key=value`` pair per line (``#``
comments allowed).  Unknown keys are rejected; every value, from a file,
``--set`` or Python, is coerced from its ``str`` form to the type of the
key's default, numbers must be finite, and enumerated keys must take one
of their ``CHOICES``.  Command-line overrides win over file values.  The fully resolved
configuration prints back as a canonical sorted listing that is embedded
as a comment header in every report, so any run can be reproduced from
its own outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .autoencoder import BREGMAN_UPDATES, LATENT_UPDATES, TrainConfig
from .pipeline import MODALITIES, DegradationSpec
from .transforms import MASK_KINDS, MASK_PARAMS, TRANSFORM_KINDS, SparsifyingTransform

# TrainConfig field -> config key, where the two names differ
_FIELD_KEYS = {
    "lam": "lambda", "seed": "train_seed",
    "learning_rate": "l2_learning_rate", "epochs": "l2_epochs",
}
# config key -> TrainConfig field of each trainer setting, in field order
TRAIN_FIELDS = {_FIELD_KEYS.get(f.name, f.name): f.name for f in fields(TrainConfig)}
_TRAIN_DEFAULTS = TrainConfig()

DEFAULTS = {
    # procedural corpus (used when no explicit manifests are given)
    "corpus_dir": "corpus",
    "corpus_count": 40,
    "corpus_size": 128,
    "corpus_seed": 0,
    "test_count": 5,
    # explicit corpus manifests (override the procedural corpus)
    "train_manifest": "",
    "test_manifest": "",
    # acquisition / degradation
    "modality": "mri",
    "mask_kind": "random",
    "mask_fraction": 0.5,
    "mask_decay": 1.0,
    "mask_lines": 24,
    "mask_stride": 2,
    "ct_spacing_deg": 5.0,
    "impulse_fraction": 0.15,
    "degrade_seed": 0,
    # patch pipeline
    "patch_size": 32,
    "overlap": False,
    # robust trainer and l2 baseline: the TrainConfig field defaults
    **{key: getattr(_TRAIN_DEFAULTS, field) for key, field in TRAIN_FIELDS.items()},
    # compressed-sensing solver
    "ista_lambda": 0.02,
    "ista_iters": 200,
    "ista_tol": 1e-6,
    "transform": "haar-wavelet",
    "wavelet_levels": 3,
    # benchmark harness
    "timing_reps": 5,
    "timing_ista_iters": 200,
}

# allowed values of the enumerated keys
CHOICES = {
    "modality": MODALITIES,
    "mask_kind": MASK_KINDS,
    "bregman_update": BREGMAN_UPDATES,
    "latent_update": LATENT_UPDATES,
    "transform": TRANSFORM_KINDS,
}


def _coerce(key: str, text: str):
    # report headers are '#'-commented lines: these would not read back
    if "#" in text or "".join(text.splitlines()) != text:
        raise ValueError(f"config key {key!r}: {text!r} contains '#' or a line break")
    default = DEFAULTS[key]
    if isinstance(default, bool):
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise ValueError(f"config key {key!r}: expected a boolean, got {text!r}")
    if isinstance(default, (int, float)):
        try:
            value = type(default)(text)
        except ValueError:
            value = math.nan
        if not -math.inf < value < math.inf:
            kind = type(default).__name__
            raise ValueError(f"config key {key!r}: expected a finite {kind}, got {text!r}")
        return value
    value = text.strip()
    if key in CHOICES and value not in CHOICES[key]:
        raise ValueError(
            f"config key {key!r}: expected one of {CHOICES[key]}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def canonical_text(self) -> str:
        """Sorted key=value listing; parsing it back reproduces the config."""
        return "".join(f"{k}={_render(v)}\n" for k, v in sorted(self.values.items()))


def _render(value) -> str:
    # resolved values are builtin; str of a float is its shortest round trip
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_config_lines(lines) -> dict:
    """key=value lines to a validated, coerced dict (unknown keys rejected)."""
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, text = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key: {key!r}")
        values[key] = _coerce(key, text)
    return values


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_lines(fh)


def resolve_config(file_values=None, overrides=None) -> RunConfig:
    """Defaults, then file values, then overrides, each value coerced from
    its ``str`` form whatever its type; returns the frozen result."""
    values = dict(DEFAULTS)
    for source in (file_values, overrides):
        if source:
            for key, val in source.items():
                if key not in DEFAULTS:
                    raise ValueError(f"unknown config key: {key!r}")
                values[key] = _coerce(key, str(val))
    return RunConfig(values)


def config_from_report_header(path) -> RunConfig:
    """Rebuild the resolved config embedded as '# key=value' CSV comments."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            lines.append(line[1:].strip())
    if not lines:
        raise ValueError(f"no config header found in {path}")
    return resolve_config(parse_config_lines(lines))


def train_config(run) -> TrainConfig:
    """Robust-trainer and l2-baseline settings of a resolved config."""
    return TrainConfig(**{field: run[key] for key, field in TRAIN_FIELDS.items()})


def sparsifying_transform(run) -> SparsifyingTransform:
    """The compressed-sensing solver's transform a resolved config selects."""
    return SparsifyingTransform(run["transform"], run["wavelet_levels"])


def degradation_spec(run) -> DegradationSpec:
    """The acquisition a resolved config selects."""
    modality, seed = run["modality"], run["degrade_seed"]
    if modality == "mri":
        kind = run["mask_kind"]
        name = MASK_PARAMS[kind].name
        params = {name: run[f"mask_{name}"]}
        return DegradationSpec("mri", mask_kind=kind, mask_params=params, seed=seed)
    if modality == "ct":
        return DegradationSpec("ct", ct_spacing_deg=run["ct_spacing_deg"], seed=seed)
    return DegradationSpec(
        "impulse", impulse_fraction=run["impulse_fraction"], seed=seed
    )
