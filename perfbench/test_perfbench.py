"""Self-test of the benchmark harness at tiny sizes.

Run from the root of the checkout:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from widthlab import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)


def _run(root, workload, trace, seed=1):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layertrace.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert "failed_frac" in proc.stdout
    if trace:
        assert result["metrics"]["cli.calls"]["value"] >= 1


def _tiny_report():
    argv = workloads.TINY_SUITE_CALLS["certificates"][0]
    [(code, stdout)] = workloads.run_calls(cli.main, [argv])
    return argv, code, stdout


def test_reference_report_passes():
    argv, code, stdout = _tiny_report()
    records, failures = workloads.check_suite(argv, code, stdout, DIGESTS)
    assert records > 0 and failures == []


def test_tampered_record_fails():
    argv, code, stdout = _tiny_report()
    flagged = next(line for line in stdout.splitlines() if line.endswith('"False","True","window shorter than the inner skip; touching genuinely fails here"'))
    tampered = stdout.replace(flagged, flagged.replace('"False","True"', '"False","False"'))
    _, failures = workloads.check_suite(argv, code, tampered, DIGESTS)
    assert any("nontouching" in f for f in failures)
    assert any("reference digest" in f for f in failures)
    # a changed value that still claims equality is caught by the digest alone
    _, failures = workloads.check_suite(argv, code, stdout.replace("width=6", "width=7", 1), DIGESTS)
    assert failures and all("reference digest" in f for f in failures)
    _, failures = workloads.check_suite(argv, 1, stdout, DIGESTS)
    assert failures == [f"{workloads.call_key(argv)}: exit 1"]


def test_tampered_roundtrip_output_fails(tmp_path):
    calls = workloads.build("roundtrip", 1, True, str(tmp_path))
    outcomes = workloads.run_calls(cli.main, calls)
    assert workloads.check("roundtrip", calls, outcomes, {}) == (len(calls), [])
    code, stdout = outcomes[2]
    outcomes[2] = (code, stdout.replace("ok=True", "ok=False"))
    outcomes[5] = (1, outcomes[5][1])
    attempted, failures = workloads.check("roundtrip", calls, outcomes, {})
    assert len(failures) == 2


def test_seed_moves_roundtrip_inputs_only(tmp_path):
    shape = workloads.ROUNDTRIP
    a, b = (workloads.roundtrip_ns(seed, shape["lo"], shape["hi"], shape["bands"]) for seed in (1, 2))
    assert a[:-1] != b[:-1] and sum(a) == sum(b) and a[-1] == b[-1]
    ratio = (shape["hi"] / shape["lo"]) ** (1 / shape["bands"])
    for i, (x, y) in enumerate(zip(a, b)):
        lo, hi = shape["lo"] * ratio**i, shape["lo"] * ratio ** (i + 1)
        assert lo <= x <= hi and lo <= y <= hi
    assert workloads.build("roundtrip", 1, False, str(tmp_path)) != workloads.build("roundtrip", 2, False, str(tmp_path))
    for workload in workloads.SUITE_CALLS:
        calls = workloads.build(workload, 1, False, str(tmp_path))
        assert calls == workloads.build(workload, 2, False, str(tmp_path))
        assert all(workloads.call_key(argv) in DIGESTS for argv in calls)


def test_cli_tail_has_ten_calls_beyond_it():
    stats = layertrace.cli_call_stats([float(i) for i in range(75)])
    assert stats["cli.call_tail_ms"] == 64.0 and stats["cli.calls"] == 75
    assert stats["cli.call_tail_pct"] == pytest.approx(100 * 65 / 75)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "roundtrip", 0)
    assert proc.returncode != 0 and proc.stdout == ""
