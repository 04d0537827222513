"""Benchmark of dealias's train, CT-ingest and inference paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-mri --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up several times (set-up time is the median), then
repeats the workload's timed unit for about ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` runs one set-up and one
unit untraced twice (the first as a warm-up) and once traced, checks
that all three give the same NMSE bit for bit, and prints per-layer self
times and call counts plus the tracing overhead: traced minus untraced
wall time, and the wrappers' own cost per span times the number of spans.
A traced run does this fixed work whatever ``--seconds`` says.

Before the result, one ``record`` line gives the environment, the shapes
and the sample counts; the last line is the result as one JSON object.
The exit code is 0 only when every check passed.  Working files go to
``.bench_work/`` in the checkout.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    threads = cores
    for var in BLAS_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads, cores


def environment(threads, cores):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": cores,
        "llc": last_level_cache(),
        "machine": platform.machine(),
    }


def last_level_cache():
    """Size of the highest cache level of CPU 0, as the kernel reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return f"L{best[0]} {best[1]}"


def untraced(workload, seed, seconds, import_s, workdir, tally):
    import workloads as w

    setup_times = []
    inputs = None
    for _ in range(w.SETUP_REPS):
        inputs = None  # free the previous inputs before building the next
        start = time.perf_counter()
        inputs = w.setup(workload, seed, workdir, tally)
        setup_times.append(time.perf_counter() - start)

    reference = None
    units = 0
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        rows = w.run_unit(workload, seed, inputs, tally)
        unit_s = time.perf_counter() - unit_start
        units += 1
        if reference is None:
            reference = rows
        elif rows != reference:
            tally.fail(f"unit {units}: NMSE differs from the first unit with the same seed")
        elapsed = time.perf_counter() - start
        if units >= w.MIN_UNITS and elapsed + unit_s > seconds:
            break

    def median(key):  # None when every operation of that kind failed
        values = tally.samples.get(key)
        return statistics.median(values) if values else None

    recon_tail, recon_pct = w.tail(tally.samples.get("recon_ms", [])) or (None, None)
    ista_tail, ista_pct = w.tail(tally.samples.get("ista_ms", [])) or (None, None)
    values = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "robust_cycle_s": (median("robust_cycle_s"), "s"),
        "l2_epoch_s": (median("l2_epoch_s"), "s"),
        "recon_ms_p50": (median("recon_ms"), "ms"),
        "recon_ms_tail": (recon_tail, "ms"),
        "ista_ms_p50": (median("ista_ms"), "ms"),
        "ista_ms_tail": (ista_tail, "ms"),
        "images_per_s": (sum(tally.samples["eval_images"]) / sum(tally.samples["eval_s"]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key, value in w.mean_nmse(reference).items():
        values[key] = (value, "ratio")
    record = {
        "import_s": import_s,
        "setup_s_samples": setup_times,
        "units": units,
        "timed_s": time.perf_counter() - start,
        "samples": {key: len(v) for key, v in tally.samples.items()},
        "recon_ms_tail_percentile": recon_pct,
        "ista_ms_tail_percentile": ista_pct,
        "ista_max_pixel": max(tally.samples.get("ista_max", [0.0])),
        "shapes": inputs.shapes,
    }
    return values, record


def traced(workload, seed, workdir, tally, spans_path):
    import tracing
    import workloads as w

    tracer = tracing.Tracer()
    wall = {}
    rows = {}
    # the first set-up and unit in a process run slower (cold caches), so a
    # warm-up pair comes before the two that are compared
    for mode in ("warm-up", "untraced", "traced"):
        start = time.perf_counter()
        if mode == "traced":
            tracer.install()
        try:
            inputs = w.setup(workload, seed, workdir, tally)
            rows[mode] = w.run_unit(workload, seed, inputs, tally)
        finally:
            tracer.uninstall()
        wall[mode] = time.perf_counter() - start
        inputs = None
    if not rows["warm-up"] == rows["untraced"] == rows["traced"]:
        tally.fail("NMSE differs across the warm-up, untraced and traced units")
    tracer.write(spans_path)

    values = {}
    calls = tracer.calls()
    for name, seconds in tracer.self_times().items():
        values[f"{name}.self_s"] = (seconds, "s")
        values[f"{name}.calls"] = (calls[name], "count")
    values["cs.ista_solve.iterations"] = (tracer.counts.get("cs.ista_solve.iterations", 0), "count")
    values["trace_overhead_s"] = (wall["traced"] - wall["untraced"], "s")
    # the wall-time difference above carries the machine's noise; this is
    # the wrappers' own cost, from a no-op timed with and without one
    values["trace_span_cost_s"] = (len(tracer.names) * tracing.span_cost(), "s")
    record = {
        "untraced_wall_s": wall["untraced"],
        "traced_wall_s": wall["traced"],
        "spans": len(tracer.names),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "nmse": w.mean_nmse(rows["untraced"]),
    }
    return values, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads, cores = pin_blas_threads()
    src = ROOT / "src"
    if not (src / "dealias" / "__init__.py").is_file():
        print(f"dealias sources not found under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    import dealias

    if Path(dealias.__file__).resolve().parent != src / "dealias":
        print(f"imported dealias from {dealias.__file__}, not {src}", file=sys.stderr)
        return 3
    import workloads as w

    import_s = time.perf_counter() - _START
    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(w.WORKLOADS)}")
    workload = w.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tally = w.Tally()
    if args.trace:
        values, record = traced(workload, args.seed, workdir, tally, workdir / f"{stem}.spans.jsonl")
    else:
        values, record = untraced(workload, args.seed, args.seconds, import_s, workdir, tally)

    missing = sorted(key for key, (value, _) in values.items() if value is None)
    if missing:
        tally.fail(f"no value for {missing}")
    record.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "settings": {k: v for k, v in vars(workload).items() if k != "name"},
        "environment": environment(threads, cores),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems,
    })
    print("record " + json.dumps(record))
    record["sample_values"] = tally.samples
    (workdir / f"{stem}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
