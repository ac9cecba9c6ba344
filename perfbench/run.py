#!/usr/bin/env python3
"""Benchmark of the matmom solve chain.

    python3 perfbench/run.py --workload population --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports matmom from its ``src``
directory.  One process, one operation at a time (a closed loop with one
client), BLAS pinned to one thread.  Prints a short report and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  See README.md in this directory.
"""

import os

# Pin BLAS before numpy loads: one thread makes the per-operation times
# repeat (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

# numpy loads here, before set-up is timed; matmom loads inside set-up.
from spans import Tracer
from speed import WINDOW, SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

# Every run attempts at least this many operations, so that op_p90_ms has at
# least ten samples above it.
MIN_OPS = 100
# set_up() runs in the measuring process and in SETUP_REPEATS - 1 fresh
# processes; setup_s is the median.
SETUP_REPEATS = 5
# Operations run before timing starts: the first two cases, which cover both
# kinds of input that family and cli alternate between.
WARM_UP = 2
# Parts of the speed kernel each workload is timed against (see speed.py):
# population spends its time in many small calls, large in dense
# factorizations, family and cli in both.
KERNELS = {
    "population": ("interpreted",),
    "large": ("dense",),
    "family": ("interpreted", "dense"),
    "cli": ("interpreted", "dense"),
}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "check_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solvability.check_ms": "ms",
    "solvability.calls": "count",
    "moments.hankel_ms": "ms",
    "moments.moments_of_ms": "ms",
    "moments.gen_ms": "ms",
    "operator_model.gram_ms": "ms",
    "operator_model.operators_ms": "ms",
    "operator_model.gram_rank": "count",
    "extensions.extremal_ms": "ms",
    "extensions.canonical_ms": "ms",
    "extensions.defect_dim": "count",
    "solutions.solve_ms": "ms",
    "solutions.spectral_ms": "ms",
    "solutions.measure_ms": "ms",
    "solutions.verify_ms": "ms",
    "solutions.verify_calls": "count",
    "solutions.atoms": "count",
    "solutions.max_rel_residual": "ratio",
    "io.read_ms": "ms",
    "io.write_ms": "ms",
    "io.bytes": "B",
    "cli.main_ms": "ms",
    "linalg.eigh_calls": "count",
    "linalg.eigvalsh_calls": "count",
    "linalg.svd_calls": "count",
    "linalg.pinv_calls": "count",
    "linalg.norm2_calls": "count",
    "linalg.factor_n3": "n3",
    "trace.op_p50_ms": "ms",
    "trace.unattributed_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(KERNELS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir):
    """Import matmom, make the inputs and run the warm-up.  Returns the
    workload and the seconds this took at the reference speed, the speed
    being sampled just before and just after (see speed.py).  Set-up is
    mostly interpreted code (imports, making measures) in every workload."""
    probe = SpeedProbe(("interpreted",))
    scales = [probe.scale() for _ in range(WINDOW)]
    t0 = time.perf_counter()
    import workloads  # imports matmom

    cls = workloads.BY_NAME[args.workload]
    count = max(MIN_OPS, math.ceil(args.seconds * cls.per_second))
    workload = cls(args.seed, count, workdir)
    for case in workload.cases[:WARM_UP]:
        workload.run(case, nullcontext)
    elapsed = time.perf_counter() - t0
    scales += [probe.scale() for _ in range(WINDOW)]
    return workload, elapsed * statistics.median(scales)


def measure(workload, probe, seconds, tracer):
    """Closed loop over the cases until ``seconds`` have passed (and at least
    MIN_OPS operations were attempted) or the cases run out.  Returns the
    counts, the messages, and per operation the speed scale (see speed.py)
    and the raw check and operation seconds."""
    from workloads import OperationFailed

    scales, op_s, check_s, errors, failures = [], [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    for case in workload.cases:
        if attempted >= MIN_OPS and time.perf_counter() >= deadline:
            break
        attempted += 1
        scale = probe.scale()
        scales.append(scale)
        span = nullcontext if tracer is None else functools.partial(tracer.op, scale)
        try:
            check_time, op_time, result = workload.run(case, span)
        except OperationFailed as exc:
            failures.append(str(exc))
            op_s.append(None)
            check_s.append(None)
            continue
        check_s.append(check_time)
        op_s.append(op_time)
        errors += workload.errors(case, result)
    return attempted, failures, errors, scales, op_s, check_s


def setup_samples(args, own: float) -> list[float]:
    """Set-up seconds of this process and of SETUP_REPEATS - 1 fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def layer_metrics(tracer, op_ms) -> dict:
    ops = max(len(op_ms), 1)
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer, ms in tracer.self_times_ms().items():
        key = "trace.unattributed_ms" if layer == "op" else layer + "_ms"
        metrics[key] = ms / ops
    counts = dict(tracer.counts)
    counts["solvability.calls"] = counts.pop("solvability.check.calls", 0)
    counts["solutions.verify_calls"] = counts.pop("solutions.verify.calls", 0)
    for name, total in counts.items():
        if name in metrics:
            metrics[name] = total / ops
    metrics["solutions.max_rel_residual"] = max(tracer.residuals, default=0.0)
    metrics["trace.op_p50_ms"] = statistics.median(op_ms) if op_ms else 0.0
    return metrics


def _scaled_ms(scales, seconds) -> list[float]:
    """Times of the completed operations in ms at the reference speed."""
    return [1e3 * f * t for f, t in zip(scales, seconds) if t is not None]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "matmom" / "__init__.py").is_file():
        print(f"error: no matmom sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        workload, own_setup = set_up(args, workdir)
        import matmom
        if Path(matmom.__file__).resolve().parent != SRC / "matmom":
            print(f"error: imported matmom from {matmom.__file__}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        attempted, failures, errors, scales, op_s, check_s = measure(
            workload, SpeedProbe(KERNELS[args.workload]), args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        op_ms = _scaled_ms(scales, op_s)
        check_ms = _scaled_ms(scales, check_s)
        if tracer is not None:
            tracer.uninstall()
            trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(trace_path)
            values = layer_metrics(tracer, op_ms)
            units = PER_LAYER
        else:
            setups = setup_samples(args, own_setup)
            values = {
                "ops_per_s": 1e3 * len(op_ms) / sum(op_ms) if op_ms else 0.0,
                "op_p50_ms": statistics.median(op_ms) if op_ms else 0.0,
                "op_p90_ms": statistics.quantiles(op_ms, n=10)[-1]
                if len(op_ms) >= 2 else 0.0,
                "check_p50_ms": statistics.median(check_ms) if check_ms else 0.0,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw_ms = [1e3 * t for t in op_s if t is not None]
    print(f"workload {args.workload}, seed {args.seed}: {attempted} attempted, "
          f"{len(failures)} failed, {len(op_ms)} timed, {len(errors)} output errors")
    if raw_ms:
        print(f"  unscaled op p50 {statistics.median(raw_ms):.4g} ms; speed scale "
              f"median {statistics.median(scales):.3f}, "
              f"range {min(scales):.3f}-{max(scales):.3f}")
    for message in failures[:5] + errors[:5]:
        print(f"  {message}")
    if tracer is not None:
        print(f"spans written to {trace_path}")
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
