#!/usr/bin/env python3
"""The spikesam benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload study --seed 0 --seconds 20 --trace 0

A run sets up once untimed (a cold start), then runs rounds until
``--seconds`` have passed, with timed set-ups spread evenly between them.
A round runs one unit of every phase.  Every timing is rescaled to a fixed
reference pace by a reference kernel timed around it (see ``pace.py``), so
that a slow spell of the shared core does not read as a slower program;
the raw times stay in the run record.  ``setup_s`` is the median of the
timed set-ups, every other end-to-end metric is the median over the rounds,
and the step percentiles are taken over the median time of each timed
step (see :func:`step_medians`).  With ``--trace 0`` every round is
untraced and the end-to-end metrics are printed.  With ``--trace 1`` each
round is run twice on identical inputs, untraced and then traced (spans
recorded around the package's public functions, from these files), and
the per-module metrics are printed, as measured, with the
traced-over-untraced wall time as ``trace.overhead``.  A separate
``tracemalloc`` pass gives peak memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full record (environment, sample counts, sanity figures,
failures), which is also written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import pace
from catalog import END_TO_END, PER_LAYER, UNITS, WORKLOADS

SETUP_REPEATS = 7  # timed set-ups of a --trace 0 run
MIN_ROUNDS = 3  # untraced rounds of a --trace 0 run
RATE_PHASES = ("study", "verify", "link", "eval")  # phases whose value is per second; the others are times
MAX_FAILURES_SHOWN = 20


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package(root: str):
    """Import spikesam from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spikesam", "__init__.py")):
        raise FileNotFoundError(f"no src/spikesam under {root}; run from the repository root")
    sys.path.insert(0, src)
    import spikesam

    if os.path.dirname(os.path.abspath(spikesam.__file__)) != os.path.join(src, "spikesam"):
        raise ImportError(f"spikesam imported from {spikesam.__file__}, not from {src}")
    return spikesam


def environment(root: str) -> dict:
    """Interpreter, NumPy, BLAS, threads, CPU and source revision."""
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "spikesam")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ops: int, failures: list[str]) -> None:
        self.attempted += ops
        self.failed += min(len(failures), ops)
        self.messages += failures


def run_unit(fn, ledger: Ledger, label: str, *args, **kwargs):
    """Run one unit; an exception fails it as a whole and is reported on stderr."""
    from workloads import Outcome

    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark keeps going and counts the failure
        traceback.print_exc(file=sys.stderr)
        out = Outcome(value=math.nan, ops=1, failures=[f"{label}: {type(exc).__name__}: {exc}"])
    ledger.add(out.ops, out.failures)
    return out


def run_round(lab, k: int, tag: str, ledger: Ledger, outcomes: dict, readings: dict) -> float:
    """One unit of every phase, inputs seeded by round ``k``; returns its wall time.

    A pace reading is taken before the first unit and after each one, and
    each unit gets the mean of the two readings around it.
    """
    import workloads

    t0 = time.perf_counter()
    before = pace.reading()
    for i, phase in enumerate(workloads.PHASES):
        rng = np.random.default_rng([lab.seed, k, i])
        outcomes[phase].append(run_unit(workloads.UNITS[phase], ledger, phase, lab, rng, tag))
        after = pace.reading()
        readings[phase].append(0.5 * (before + after))
        before = after
    return time.perf_counter() - t0


def at_reference(phase: str, value: float, reading_s: float) -> float:
    """A unit's value rescaled to the reference pace: a time, or a rate."""
    if phase in RATE_PHASES:
        return value * reading_s / pace.REFERENCE_S
    return pace.at_reference(value, reading_s)


def median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return float(np.median(finite)) if finite else math.nan


def step_medians(per_round: list[list[float]]) -> list[float]:
    """The median time of each timed step over the rounds.

    Every round repeats the same steps (see ``workloads.steps_unit``), so
    the i-th time of each round measures one computation: the median over
    rounds drops one-off disturbances, and the spread left across steps is
    the program's own.  Rounds with missing steps are skipped.
    """
    longest = max(map(len, per_round), default=0)
    full = [r for r in per_round if longest and len(r) == longest]
    return np.median(np.array(full), axis=0).tolist() if full else []


def measure(args: argparse.Namespace, work: str) -> tuple[dict, Ledger, dict]:
    import workloads
    from spikesam import harness

    ledger = Ledger()
    # The first set-up pays for imports and cold file caches; it is not
    # timed, and the rounds use what it leaves.
    lab = workloads.setup(args.workload, args.seed, os.path.join(work, "setup"))
    setup_s: list[float] = []  # at the reference pace
    setup_raw_s: list[float] = []

    def timed_setup() -> None:
        root = os.path.join(work, f"setup{len(setup_s)}")
        before = pace.reading()
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.seed, root)
        elapsed = time.perf_counter() - t0
        setup_raw_s.append(elapsed)
        setup_s.append(pace.at_reference(elapsed, 0.5 * (before + pace.reading())))
        shutil.rmtree(root)

    # The memory pass runs a short unit of every phase: it also warms
    # caches and the allocator before the timed rounds.
    memory = run_unit(workloads.memory_pass, ledger, "memory", lab)

    plain = {p: [] for p in workloads.PHASES}
    traced = {p: [] for p in workloads.PHASES}
    readings = {p: [] for p in workloads.PHASES}
    traced_readings = {p: [] for p in workloads.PHASES}
    walls = {"plain": [], "traced": []}
    if args.trace:
        import layers
        from spans import SpanRecorder, Tracer

        rec = SpanRecorder()
        tracer = Tracer(rec, layers.targets())
        with tracer, rec.span("setup"):
            workloads.setup(args.workload, args.seed, os.path.join(work, "setup-traced"))

    started = time.perf_counter()
    k = 0
    while True:
        walls["plain"].append(run_round(lab, k, f"r{k}", ledger, plain, readings))
        if args.trace:
            with tracer, rec.span("round"):
                walls["traced"].append(run_round(lab, k, f"r{k}-traced", ledger, traced, traced_readings))
        k += 1
        # spread over the whole run, so that one slow spell of the machine
        # does not catch them all
        if not args.trace and len(setup_s) * args.seconds <= SETUP_REPEATS * (time.perf_counter() - started):
            timed_setup()
        elapsed = time.perf_counter() - started
        # start another round only if one more fits in the time left
        if k >= (1 if args.trace else MIN_ROUNDS) and elapsed + elapsed / k > args.seconds:
            break

    while not args.trace and len(setup_s) < SETUP_REPEATS:
        timed_setup()

    if args.trace:
        with tracer, rec.span("once"):
            run_unit(workloads.once, ledger, "once", lab)
    else:
        run_unit(workloads.once, ledger, "once", lab)

    def values(phase: str) -> list[float]:
        return [at_reference(phase, o.value, r) for o, r in zip(plain[phase], readings[phase])]

    def pooled(phase: str, key: str) -> list[float]:
        return [x for o in plain[phase] for x in o.samples.get(key, [])]

    two = pooled("steps", "step_two_s")
    raw_steps = step_medians([o.samples.get("step_two_s", []) for o in plain["steps"]])
    steps = step_medians(
        [
            [pace.at_reference(x, r) for x in o.samples.get("step_two_s", [])]
            for o, r in zip(plain["steps"], readings["steps"])
        ]
    )
    try:
        if args.trace:
            estimate = {
                kind: harness.estimate_step_memory(
                    lab.init_params, lab.cfg.train.batch_size, lab.data.train.frames.shape[1], kind == "two"
                )
                for kind in ("single", "two")
            }
            metrics = layers.per_layer(
                rec,
                forward_sites=workloads.FORWARD_SITES[args.workload],
                probe_s=workloads.layer_probe(lab),
                memory=memory.notes,
                estimate_bytes=estimate,
                step_s={"single": pooled("steps", "step_single_s"), "two": two},
                epoch_s=pooled("study", "epoch_s"),
                overhead=sum(walls["traced"]) / sum(walls["plain"]),
            )
            rec.write(os.path.join(args.root, ".perfbench", f"spans-{args.workload}.json.gz"))
        else:
            metrics = {
                "setup_s": median(setup_s),
                "train_samples_per_s": median(values("study")),
                "sast_step_ms_p50": float(np.percentile(steps, 50)) * 1e3,
                "sast_step_ms_p90": float(np.percentile(steps, 90)) * 1e3,
                "verify_configs_per_s": median(values("verify")),
                "link_samples_per_s": median(values("link")),
                "eval_samples_per_s": median(values("eval")),
                "sweep_s": median(values("sweep")),
                "peak_kib": memory.value,
            }
    except (KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        # only reachable when units failed and left samples missing
        traceback.print_exc(file=sys.stderr)
        ledger.add(1, [f"metrics: {type(exc).__name__}: {exc}"])
        metrics = {}
    details = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "raw_round_values": {p: [o.value for o in v] for p, v in plain.items()},
        "pace_readings_ms": {p: [r * 1e3 for r in v] for p, v in readings.items()},
        "raw_step_ms_p50_p90": [float(np.percentile(raw_steps, q)) * 1e3 for q in (50, 90)] if raw_steps else None,
        "rounds": k,
        "round_wall_s": walls,
        "samples": {p: len(v) for p, v in plain.items()} | {"sast_steps": len(steps), "sast_step_times": len(two)},
        "memory_kib": memory.notes,
        "notes": {p: [o.notes for o in plain[p] if o.notes] for p in ("study", "eval", "sweep")},
    }
    return metrics, ledger, details


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    args.root = os.getcwd()
    try:
        import_package(args.root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = os.path.join(args.root, ".perfbench", "work", f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}")
    started = time.perf_counter()
    try:
        metrics, ledger, details = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    values = {name: metrics.get(name, math.nan) for name in wanted}
    result = {
        "correct": ledger.failed == 0 and all(math.isfinite(v) for v in values.values()),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": v if math.isfinite(v) else None, "unit": UNITS[name]} for name, v in values.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS,
        "wall_s": time.perf_counter() - started,
        "environment": environment(args.root),
        **details,
        "failures": ledger.messages[:MAX_FAILURES_SHOWN],
        "result": result,
    }
    out_dir = os.path.join(args.root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
