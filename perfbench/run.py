"""Repository benchmark: one command, four workloads, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload uncached-wallace --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
seams (see ``tracing.py``) and prints the per-layer metrics instead.  The
last line of standard output is the JSON result; the lines before it are
for people.  The exit code is non-zero when a check fails or an operation
fails.  See ``README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("uncached-wallace", "process-quantized-rlf", "hotset-shared", "train-digits")
#: Workloads that run OpenBLAS on one thread.  At its default of one thread
#: per core, one busy process of another tenant on this 2-core machine
#: tripled ``train-digits``' step-time p90 (6.5 to 18.9 ms) and halved its
#: steps/s, because a two-thread product waits for its descheduled half; on
#: one thread the same busy process moved no metric beyond run-to-run noise.
#: ``process-quantized-rlf`` keeps the default, so that the oversubscription
#: of two workers' BLAS threads (ROADMAP item 2(a)) still shows there.
ONE_BLAS_THREAD = ("uncached-wallace", "hotset-shared", "train-digits")


def _blas_fingerprint() -> str:
    import numpy as np

    vendor = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    threads = "unknown"
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.restype = ctypes.c_int
                threads = str(function())
                break
    return f"numpy {np.__version__}, BLAS {vendor} with {threads} threads, cpu_count {os.cpu_count()}"


def _stop_resource_tracker() -> None:
    """End and reap the tracker process shared memory starts, if it runs.

    Process-mode serving uses ``multiprocessing.shared_memory``, which
    starts the standard library's resource tracker as a child of this
    process.  It would exit on its own once this process exits, unreaped;
    stopping it here waits for it.  ``_stop`` is private to the standard
    library (Python 3.8 and later), hence the guard.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload in ONE_BLAS_THREAD:
        # Read by OpenBLAS when numpy first loads it, which is below.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import workloads

    recorder = None
    if args.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    print(f"{args.workload} seed {args.seed}: {_blas_fingerprint()}")
    out_dir = HERE / "out"
    started = time.perf_counter()
    try:
        outcome = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            out_dir / f"work-{os.getpid()}",
            recorder,
        )
    finally:
        if recorder is not None:
            recorder.uninstall()
        _stop_resource_tracker()
    if recorder is not None:
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        print(f"wrote {recorder.export(spans)} spans to {spans.relative_to(ROOT)}")
    for note in outcome.notes:
        print(note)
    metrics = outcome.per_layer if args.trace else outcome.metrics
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(
        f"attempted {outcome.attempted}, completed {outcome.completed}, "
        f"failed {outcome.failed}; total {time.perf_counter() - started:.1f} s"
    )
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    # ``correct`` speaks of the operations that completed; a failed
    # operation still fails the run through the exit code.
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
