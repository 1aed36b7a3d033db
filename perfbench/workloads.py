"""The five benchmark workloads: inputs from a seed, the timed body, the output check.

Every workload drives widthlab through ``widthlab.cli.main``, the entry
point a user runs. Four of them run named suites over fixed grids, so
their inputs and report bodies do not depend on the seed; ``roundtrip``
draws its graph sizes from the seed.

Why each workload is here (the layer it stresses, and the layers it
leaves idle so that a change elsewhere predicts no change on it):

* ``oracle-dp``: the ``consistency`` suite, the 15-graph zoo up to the
  20-vertex BK(5,2). The exact subset DPs (``_kernels`` elimination,
  boundary and separation tables) do almost all the work.
* ``certificates``: the ``petersen`` suite, 415 jobs of double-cycle
  path decompositions and window brambles, including the flagged-known
  verbatim spokes and the four known bramble gaps. The bag-occurrence
  and bramble scans run; the subset DPs are idle.
* ``identities``: six closed-form suites. Dense slice blocks
  (``widthcalc``) and many small DP calls at 8-16 vertices, where fixed
  cost per call and memory per table show.
* ``roundtrip``: the file route for independent re-validation, ``gen``
  then ``decomp --out`` then ``decomp --gr --td``. The only workload
  that reads ``.gr``/``.td`` files and runs the tree validator.
* ``fanout-2w``: the same ``petersen`` grid through the two-worker
  process pool; dispatch and per-process state show only here, a
  per-job speed-up shows on both.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import random

WORKLOADS = ("oracle-dp", "certificates", "identities", "roundtrip", "fanout-2w")

_PETERSEN = ["suite", "--name", "petersen"]


def _params(**params) -> list:
    return [tok for key, val in params.items() for tok in ("--param", f"{key}={val}")]


# certificates and fanout-2w run one grid, serially and through the pool
_CERT_GRID = _params(n_max=240, k_max=5, bramble_n_max=180, bramble_k_max=4)
_TINY_CERT_GRID = _params(n_max=14, k_max=4, bramble_n_max=14, bramble_k_max=4)

# suite workloads: the argv of each CLI call, full size and the small
# size the harness self-test runs
SUITE_CALLS = {
    "oracle-dp": [["suite", "--name", "consistency"]],
    "certificates": [_PETERSEN + _CERT_GRID],
    "identities": [
        ["suite", "--name", "theorem1"],
        ["suite", "--name", "appendixA"] + _params(n_max=13),
        ["suite", "--name", "appendixB"],
        ["suite", "--name", "hales"],
        ["suite", "--name", "spectrum"] + _params(k_max=4),
        ["suite", "--name", "limits"],
    ],
    "fanout-2w": [_PETERSEN + ["--workers", "2"] + _CERT_GRID],
}
TINY_SUITE_CALLS = {
    "oracle-dp": [["suite", "--name", "theorem1"] + _params(t_max=1, n_max=3)],
    "certificates": [_PETERSEN + _TINY_CERT_GRID],
    "identities": [["suite", "--name", "appendixA"] + _params(n_max=5), ["suite", "--name", "limits"]],
    "fanout-2w": [_PETERSEN + ["--workers", "2"] + _TINY_CERT_GRID],
}

# roundtrip: one n per band, bands log-equal between LO and HI, k = 1..K_MAX
ROUNDTRIP = {"lo": 250, "hi": 4000, "bands": 5, "k_max": 5}
TINY_ROUNDTRIP = {"lo": 12, "hi": 48, "bands": 2, "k_max": 2}


def call_key(argv) -> str:
    """The key of a CLI call in the digest file."""
    return " ".join(argv)


def roundtrip_ns(seed: int, lo: int, hi: int, bands: int) -> list:
    """One n per band; the seed moves every n below the top band.

    The run time of a round trip grows linearly with n, so n values
    drawn independently would let the seed move the time by about a
    tenth, and the largest n sets the peak RSS. So the top band's n is
    its midpoint, and the others are drawn inside their bands with
    their sum held at the sum of their midpoints: the seed moves the
    inputs, and neither the total work nor the peak memory.
    """
    edges = [lo * (hi / lo) ** (i / bands) for i in range(bands + 1)]
    mids = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
    total = round(sum(mids[:-1]))
    rng = random.Random(seed)
    while True:
        ns = [rng.randint(math.ceil(a), math.floor(b)) for a, b in zip(edges[:-3], edges[1:-2])]
        last = total - sum(ns)
        if edges[-3] <= last <= edges[-2]:
            return ns + [last, round(mids[-1])]


def build(workload: str, seed: int, tiny: bool, tmp: str) -> list:
    """The CLI calls of one body, as argv lists; roundtrip files go under ``tmp``."""
    if workload != "roundtrip":
        return (TINY_SUITE_CALLS if tiny else SUITE_CALLS)[workload]
    shape = TINY_ROUNDTRIP if tiny else ROUNDTRIP
    gr, td = os.path.join(tmp, "g.gr"), os.path.join(tmp, "g.td")
    calls = []
    for n in roundtrip_ns(seed, shape["lo"], shape["hi"], shape["bands"]):
        for k in range(1, shape["k_max"] + 1):
            nk = ["--n", str(n), "--k", str(k)]
            calls.append(["gen", "--family", "petersen"] + nk + ["--out", gr])
            calls.append(["decomp"] + nk + ["--mode", "repaired", "--out", td])
            calls.append(["decomp", "--gr", gr, "--td", td])
    return calls


def run_calls(main, calls) -> list:
    """Run each call through ``main``; returns (exit code or error text, stdout) per call."""
    outcomes = []
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed call, not a crashed benchmark
                code = f"raised {exc!r}"
        outcomes.append((code, out.getvalue()))
    return outcomes


def report_body(stdout: str) -> str:
    """A CSV suite report without its header line (which carries a timestamp)."""
    return stdout.split("\n", 1)[1] if stdout.startswith("# suite=") else ""


def body_digest(stdout: str) -> str:
    return hashlib.sha256(report_body(stdout).encode()).hexdigest()


def check_suite(argv, code, stdout: str, digests: dict):
    """Check one suite call; returns (records checked, failures as text).

    The call fails once for a non-zero exit or a report body that
    differs from the reference digest; each record that is neither
    equal nor flagged-known is a failure of its own.
    """
    body = report_body(stdout)
    records = list(csv.DictReader(io.StringIO(body)))
    failures = [f"{r['instance']}: {r['lhs']} != {r['rhs']}" for r in records if "True" not in (r["equal"], r["flagged_known"])]
    if code != 0:
        failures.append(f"{call_key(argv)}: exit {code}")
    elif digests.get(call_key(argv)) != body_digest(stdout):
        failures.append(f"{call_key(argv)}: report body differs from the reference digest")
    return len(records), failures


def check_roundtrip(calls, outcomes) -> list:
    """Each (gen, build, re-validate) triple exits 0 and prints what it must."""
    failures = []
    for i in range(0, len(calls), 3):
        gen = calls[i]
        n, k = (int(gen[gen.index(flag) + 1]) for flag in ("--n", "--k"))
        valid = f"ok=True width={2 * k + 2} missing=[] uncovered=[] disconnected=[]\n"
        expected = (f"wrote {2 * n} vertices, {3 * n} edges to {gen[-1]}\n", valid, valid)
        for argv, (code, stdout), expect in zip(calls[i : i + 3], outcomes[i : i + 3], expected):
            if code != 0:
                failures.append(f"{call_key(argv)}: exit {code}")
            elif stdout != expect:
                failures.append(f"{call_key(argv)}: printed {stdout.strip()!r}, expected {expect.strip()!r}")
    return failures


def check(workload: str, calls, outcomes, digests: dict):
    """Returns (operations attempted, failures as text) for one body.

    An operation is a CLI call or a suite record. A call fails on a
    raised exception, a non-zero exit or output that does not match the
    reference; a record fails when it is neither equal nor flagged-known.
    """
    if workload == "roundtrip":
        return len(calls), check_roundtrip(calls, outcomes)
    attempted, failures = 0, []
    for argv, (code, stdout) in zip(calls, outcomes):
        records, bad = check_suite(argv, code, stdout, digests)
        attempted += 1 + records
        failures += bad
    return attempted, failures
