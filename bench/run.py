#!/usr/bin/env python3
"""deconvbox benchmark: seeded solver workloads, end-to-end and per-layer.

    python3 bench/run.py --workload traj_k32 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1      # every workload, each in its own process

With --trace 0 the end-to-end metrics are measured with no tracing, each
timing rescaled to reference machine speed by a fixed kernel timed around
every operation (reference.py); with --trace 1 the layer functions are
wrapped and the per-layer metrics are reported. Every operation passes the
correctness gate in workloads.py or counts as failed. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The full result (metrics,
environment, digests, work counts) is written under .bench_out/results/,
and the spans of a traced run under .bench_out/traces/.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool; must be set before numpy is imported.
PINNED_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in PINNED_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("traj_k32", "traj_k64", "probe_k32", "checkpoint_k32")
MIN_TIMED_OPS = 3
SETUPS_PER_OP = 3
CHILD_TIMEOUT_S = 180


def load_package():
    """Import deconvbox from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "deconvbox" / "__init__.py").is_file():
        sys.exit(f"error: no deconvbox sources under {src}")
    sys.path.insert(0, str(src))
    import deconvbox

    if src not in Path(deconvbox.__file__).resolve().parents:
        sys.exit(f"error: deconvbox imported from {deconvbox.__file__}, not {src}")


def environment() -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for key, conf in (
        ("l1d_bytes", "SC_LEVEL1_DCACHE_SIZE"),
        ("l2_bytes", "SC_LEVEL2_CACHE_SIZE"),
        ("l3_bytes", "SC_LEVEL3_CACHE_SIZE"),
    ):
        try:
            caches[key] = os.sysconf(conf)
        except (ValueError, OSError):
            caches[key] = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads": {v: os.environ.get(v) for v in PINNED_THREAD_VARS + ("DECONV_THREADS",)},
    }


def attempt(workload, reference, ops: list, tracer=None):
    """Time one operation, gate it untimed, append (outcome or None, wall, traced)."""
    from workloads import check_repeat

    if tracer is not None:
        tracer.op = len(ops)
        tracer.install()
        root = tracer.open("op")
    start = time.perf_counter()
    try:
        raw, completed = workload.op(), True
    except Exception:  # an operation that raises is a failed operation
        completed = False
        traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    outcome = None
    if completed:
        try:
            outcome = workload.gate(raw)
        except Exception:  # a result the gate cannot read is a failed operation
            traceback.print_exc(file=sys.stderr)
    if outcome is not None:
        outcome.problems += check_repeat(outcome, reference)
        for problem in outcome.problems:
            print(f"gate: operation {len(ops)}: {problem}", file=sys.stderr)
    ops.append((outcome, wall, tracer is not None))
    return outcome


def end_to_end_metrics(setup_samples, timed, speed, peak_rss_mb) -> dict:
    """Run medians of the timings, each rescaled to reference machine speed.

    `speed[i]` is the reference kernel's nominal time over its measured
    time around operation i (reference.py): a slow phase of the machine
    stretches an operation and the kernels beside it alike, so the
    rescaled times repeat between runs where raw wall times do not.
    """
    good = [(o, w * f) for (o, w, _), f in zip(timed, speed) if o is not None]
    setups = [
        s * speed[i // SETUPS_PER_OP] for i, s in enumerate(setup_samples)
    ]
    return {
        "steps_per_s": (median([o.steps / w for o, w in good]), "1/s"),
        "wall_s": (median([w for _, w in good]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def distribution(values) -> dict:
    if len(values) < 2:
        return {"n": len(values)}
    return {
        "n": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "p90": statistics.quantiles(values, n=10)[-1],
    }


def trace_loop(workload, reference, ops: list, tracer, seconds: float) -> None:
    """Alternate traced and untraced operations for `seconds`."""
    start = time.perf_counter()
    while True:
        walls = [w for _, w, _ in ops[1:]]
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_TIMED_OPS + 1 and elapsed + statistics.median(walls) > seconds:
            break
        traced = len(ops) % 2 == 1
        attempt(workload, reference, ops, tracer if traced else None)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_package()
    from spans import Tracer, counts_by_op, reduce_spans
    from workloads import WORKLOADS, make_workdir
    from layers import layer_metrics
    from reference import ReferenceKernel

    workload = WORKLOADS[name](seed)
    if workload.threads > 1:
        os.environ["DECONV_THREADS"] = str(workload.threads)
    else:
        os.environ.pop("DECONV_THREADS", None)

    workdir = make_workdir(ROOT)
    ops: list = []
    setup_samples: list[float] = []
    ref_walls: list[float] = []
    tracer = Tracer() if trace else None
    try:
        workload.prepare(workdir)
        # Warm-up operation: fills caches and is the reference every later
        # repetition must reproduce bit for bit. It is gated, not timed.
        reference = attempt(workload, None, ops)
        if trace:
            trace_loop(workload, reference, ops, tracer, seconds)
        else:
            workload.setup()
            # Every operation is alike, so the peak so far is the program's
            # peak; the reference kernel's arrays come after it.
            rss_mb = peak_rss_mb()
            kernel = ReferenceKernel(**workload.reference_kernel)
            kernel.run()
            ref_walls.append(kernel.run())
            start = time.perf_counter()
            while True:
                rounds = [w + r for (_, w, _), r in zip(ops[1:], ref_walls[1:])]
                elapsed = time.perf_counter() - start
                if len(rounds) >= MIN_TIMED_OPS and elapsed + statistics.median(rounds) > seconds:
                    break
                for _ in range(SETUPS_PER_OP):
                    t0 = time.perf_counter()
                    workload.setup()
                    setup_samples.append(time.perf_counter() - t0)
                attempt(workload, reference, ops)
                ref_walls.append(kernel.run())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = ops[1:]
    if trace:
        traced_ops = {i for i, (_, _, t) in enumerate(ops) if t}
        per_op = counts_by_op(tracer.spans)
        first = per_op[min(per_op)] if per_op else {}
        for i, counts in per_op.items():
            if counts != first and ops[i][0] is not None:
                ops[i][0].problems.append("traced call counts differ between operations")
                print(f"gate: operation {i}: call counts differ", file=sys.stderr)
        metrics = layer_metrics(
            reduce_spans([s for s in tracer.spans if s.op in traced_ops]),
            n_ops=len(traced_ops),
            traced_walls=[w for _, w, t in timed if t],
            untraced_walls=[w for _, w, t in timed if not t],
            workers=workload.threads,
            snapshot_bytes=max((o.snapshot_bytes for o, _, _ in ops if o), default=0),
        )
        work_counts = first
    else:
        # The kernel runs before and after each operation; their mean is
        # the machine's speed during it.
        speed = [
            2.0 * kernel.nominal_s / (before + after)
            for before, after in zip(ref_walls, ref_walls[1:])
        ]
        metrics = end_to_end_metrics(setup_samples, timed, speed, rss_mb)
        work_counts = {}

    failed = sum(1 for o, _, _ in ops if o is None or o.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    steps = sorted({o.steps for o, _, _ in ops if o is not None})
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "error_rate": failed / len(ops),
        **result,
        "work": {"steps_per_op": steps, "calls_per_op": work_counts},
        "digests": ops[0][0].digests if ops[0][0] is not None else {},
        "op_walls_s": [w for _, w, _ in ops],
        "timed_wall_s": distribution([w for o, w, t in timed if o is not None and not t]),
        "setup_s": distribution(setup_samples),
        "reference_walls_s": ref_walls,
        "problems": [p for o, _, _ in ops if o is not None for p in o.problems][:20],
        "environment": environment(),
    }
    tag = f"{name}_seed{seed}_trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(OUT / "traces" / f"{tag}.jsonl")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  operations {len(ops)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    print(f"  failed/attempted {failed}/{len(ops)}  steps/op {steps}")
    print(f"  digests {record['digests']}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints each table and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        child = json.loads(lines[-1])
        summary["correct"] &= child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for key, metric in child["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
