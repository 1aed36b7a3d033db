#!/usr/bin/env python3
"""End-to-end benchmark of widthlab, with a traced per-layer run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certificates --seed 1 --seconds 18 --trace 0

Each sample is one workload body in a fresh interpreter (``child.py``),
run on the package under ``src/``. Untraced (``--trace 0``), a run
makes as many samples as fit in ``--seconds`` at the pace of the first
(rounded, at least one), and the end-to-end metrics are medians over
them; extra set-up-only launches make ``setup_s`` a median of several.
Traced
(``--trace 1``), one untraced and one traced sample run, and the
per-layer metrics come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every output check passed, 1 when one failed, 2 when the
checkout holds no widthlab sources.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]  # as in BENCHMARK.json
SETUP_LAUNCHES = 7  # set-up-only launches per untraced run, after one warm-up launch
DEADLINE_S = 170  # every run ends within the 180 s a run may take
# no hidden BLAS threads compete with the two pool workers of fanout-2w
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Launcher:
    """Starts child samples one at a time and kills any that outlives the run's deadline."""

    def __init__(self, args, tmp: str):
        self.args = args
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **CHILD_ENV}

    def __call__(self, *flags) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--tmp", self.tmp, *flags]
        if self.args.tiny:
            cmd.append("--tiny")
        cmd += ["--launched", repr(time.monotonic())]
        # own session, so that a timeout kills the pool workers too
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit(f"perfbench: {self.args.workload} did not finish within {DEADLINE_S} s")
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: child exited with {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def untraced(launch, seconds: int):
    launch("--setup-only")  # warm-up: the first launch after a change compiles bytecode
    t0 = time.monotonic()
    samples = [launch()]
    count = max(1, round(seconds / (time.monotonic() - t0)))  # as many as fit at the first sample's pace
    samples += [launch() for _ in range(count - 1)]
    setups = [launch("--setup-only")["setup_s"] for _ in range(SETUP_LAUNCHES)]
    setups += [s["setup_s"] for s in samples]
    medians = {name: (statistics.median(s[name] for s in samples), unit) for name, unit in END_TO_END[1:]}
    return samples, {"setup_s": (statistics.median(setups), "s"), **medians}


def traced(launch):
    launch("--setup-only")
    plain = launch()
    sample = launch("--trace")
    layers = sample.pop("layers")
    layers["trace.overhead_s"] = sample["verdict_s"] - plain["verdict_s"]
    units = {name: unit for name, unit, _ in layertrace.PER_LAYER}
    return [plain, sample], {name: (layers[name], units[name]) for name, _, _ in layertrace.PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="moves the roundtrip graph sizes; suite grids are fixed")
    parser.add_argument("--seconds", type=int, required=True, help="untraced samples fill about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the harness self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "widthlab", "cli.py")):
        print(f"perfbench: no widthlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        launch = Launcher(args, tmp)
        samples, metrics = traced(launch) if args.trace else untraced(launch, args.seconds)

    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    manifest = {**samples[0]["manifest"], "git_commit": git_commit(), "samples": len(samples), "trace": args.trace}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed={args.seed} samples={len(samples)} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {len(failures) / attempted:14.6g} ratio ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
