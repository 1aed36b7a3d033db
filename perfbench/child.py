"""One workload body in a fresh interpreter; prints its measurements as one JSON line.

``run.py`` starts this script once per sample, passing the monotonic
clock reading taken just before the launch, so that ``setup_s`` runs
from interpreter start until ``widthlab.cli`` is imported and the
inputs are built. The CLI calls are timed together (``verdict_s``);
their outputs are checked after the clock stops.
"""

import argparse
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def manifest(args, calls) -> dict:
    """What this run actually did: versions, the backend that ran, the machine and the inputs."""
    import numpy
    import platform

    import widthlab
    from widthlab import _backend

    return {
        "widthlab": widthlab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "have_numba": _backend.HAVE_NUMBA,
        "use_numba": _backend.use_numba(),
        "widthlab_backend_env": os.environ.get("WIDTHLAB_BACKEND"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "calls": [workloads.call_key(argv) for argv in calls] if args.workload != "roundtrip" else len(calls),
        "roundtrip_n": sorted({int(argv[argv.index("--n") + 1]) for argv in calls if argv[0] == "gen"}),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True, help="time.monotonic() just before launch")
    parser.add_argument("--tmp", required=True, help="scratch directory for files and worker traces")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import widthlab.cli

    calls = workloads.build(args.workload, args.seed, args.tiny, args.tmp)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer(args.tmp)
        tracer.install()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as fh:
        digests = json.load(fh)

    self0, child0 = _usage()
    t0 = time.perf_counter()
    outcomes = workloads.run_calls(widthlab.cli.main, calls)
    verdict_s = time.perf_counter() - t0
    self1, child1 = _usage()

    attempted, failures = workloads.check(args.workload, calls, outcomes, digests)
    workers = max([int(argv[argv.index("--workers") + 1]) for argv in calls if "--workers" in argv] or [1])
    children_cpu = _cpu(child1) - _cpu(child0)
    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + children_cpu,
        "peak_rss_mb": max(self1.ru_maxrss, child1.ru_maxrss) / 1024,
        "attempted": attempted,
        "failures": failures,
    }
    if tracer:
        tracer.merge_workers()
        result["layers"] = tracer.metrics(verdict_s, children_cpu / (workers * verdict_s) if workers > 1 else 0.0)
    result["manifest"] = manifest(args, calls)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
