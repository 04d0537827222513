"""Span tracing installed from outside the program.

A :class:`Tracer` replaces module-level functions of ``dealias`` with thin
wrappers in the namespace of each module that calls them, so a call made
inside the package (``split_bregman_step`` calling ``update_latent``) is
recorded as well as a call made by the benchmark.  Each wrapper appends
one span (name, start, end, parent) to an in-memory list; nothing is
written until :meth:`Tracer.write` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (span name, defining module, attribute, modules whose namespace holds a
# reference the package or the benchmark calls through)
TRACED = [
    ("core.random_phantom", "core", "random_phantom", ["core"]),
    ("core.write_tensor", "core", "write_tensor", ["core"]),
    ("core.read_tensor", "core", "read_tensor", ["core", "pipeline"]),
    ("transforms.fft2", "transforms", "fft2", ["transforms", "pipeline", "cs"]),
    ("transforms.radon_forward", "transforms", "radon_forward", ["transforms", "pipeline"]),
    ("transforms.backproject", "transforms", "backproject", ["transforms"]),
    ("transforms.fbp_reconstruct", "transforms", "fbp_reconstruct", ["transforms", "pipeline"]),
    ("transforms.sparsify", "transforms", "sparsify", ["transforms", "cs"]),
    ("pipeline.degrade", "pipeline", "degrade", ["pipeline"]),
    ("pipeline.extract_patches", "pipeline", "extract_patches", ["pipeline"]),
    ("pipeline.reassemble_patches", "pipeline", "reassemble_patches", ["pipeline"]),
    ("pipeline.build_training_set", "pipeline", "build_training_set", ["pipeline"]),
    ("pipeline.reconstruct_image", "pipeline", "reconstruct_image", ["pipeline"]),
    ("autoencoder.train_robust", "autoencoder", "train_robust", ["autoencoder"]),
    ("autoencoder.split_bregman_step", "autoencoder", "split_bregman_step", ["autoencoder"]),
    ("autoencoder.update_sparse_residual", "autoencoder", "update_sparse_residual", ["autoencoder"]),
    ("autoencoder.update_encoder", "autoencoder", "update_encoder", ["autoencoder"]),
    ("autoencoder.update_decoder", "autoencoder", "update_decoder", ["autoencoder"]),
    ("autoencoder.update_latent", "autoencoder", "update_latent", ["autoencoder"]),
    ("autoencoder.penalty_objective", "autoencoder", "penalty_objective", ["autoencoder"]),
    ("autoencoder.update_relaxation", "autoencoder", "update_relaxation", ["autoencoder"]),
    ("autoencoder.activate", "autoencoder", "activate", ["autoencoder"]),
    ("autoencoder.soft_threshold", "autoencoder", "soft_threshold", ["autoencoder", "cs"]),
    ("autoencoder.train_l2_baseline", "autoencoder", "train_l2_baseline", ["autoencoder"]),
    ("autoencoder.l2_loss_and_grads", "autoencoder", "l2_loss_and_grads", ["autoencoder"]),
    ("autoencoder.AutoencoderModel.forward", "autoencoder", "AutoencoderModel.forward", []),
    ("cs.cs_reconstruct_image", "cs", "cs_reconstruct_image", ["cs"]),
    ("cs.ista_solve", "cs", "ista_solve", ["cs"]),
    ("cs.max_eigenvalue", "cs", "max_eigenvalue", ["cs"]),
    ("metrics.ssim", "metrics", "ssim", ["metrics"]),
    ("metrics.nmse", "metrics", "nmse", ["metrics"]),
    ("metrics.psnr", "metrics", "psnr", ["metrics"]),
]

# counts read off a traced call's result: span name -> (counter, getter)
COUNTERS = {"cs.ista_solve": ("cs.ista_solve.iterations", lambda report: report.iterations)}


def _module(name):
    return importlib.import_module(f"dealias.{name}")


class Tracer:
    """Records spans while enabled; installs and removes its wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            if counter is not None:
                key, get = counter
                self.counts[key] = self.counts.get(key, 0) + get(result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for name, module, attr, callers in TRACED:
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(_module(module), cls_name)
                self._patch(owner, method, self._wrap(name, getattr(owner, method)))
                continue
            wrapper = self._wrap(name, getattr(_module(module), attr))
            for caller in callers:
                self._patch(_module(caller), attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals = {name: 0.0 for name, *_ in TRACED}
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return totals

    def calls(self) -> dict[str, int]:
        counts = {name: 0 for name, *_ in TRACED}
        for name in self.names:
            counts[name] += 1
        return counts

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                }) + "\n")


def span_cost(calls=20000):
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls
