"""Every named suite runs clean (or flags only its documented anomalies)."""

import dataclasses
from collections import Counter

import pytest

from widthlab import bounds, decomp, graphs, oracles, suites, widthcalc
from widthlab.errors import ParameterError


def test_registry_complete():
    assert set(suites.SUITES) == {
        "theorem1",
        "appendixA",
        "appendixB",
        "hales",
        "petersen",
        "kneser",
        "spectrum",
        "limits",
        "consistency",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        suites.SuiteConfig("nope")


@pytest.mark.parametrize(
    "name,params",
    [
        ("theorem1", {}),
        ("appendixA", {"n_max": 10}),
        ("appendixB", {}),
        ("hales", {}),
        ("kneser", {}),
        ("spectrum", {"k_max": 3}),
        ("limits", {}),
        ("consistency", {}),
    ],
)
def test_suites_all_green(suite_records, name, params):
    # the acceptance criteria's parameters, so the shared runner serves both
    records = suite_records(name, **params)
    assert records
    hard = [r for r in records if not r.equal and not r.flagged_known]
    assert hard == []
    assert suites.suite_passed(records)


def test_petersen_suite_flags_only_documented_anomalies(suite_records):
    records = suite_records("petersen", n_max=25, k_max=5, bramble_n_max=25, bramble_k_max=4)
    hard = [r for r in records if not r.equal and not r.flagged_known]
    assert hard == []
    flagged = {r.instance for r in records if r.flagged_known}
    # verbatim gaps for every k >= 2 instance plus the small bramble gaps
    assert "petersen-pd n=0005 k=2 verbatim" in flagged
    assert {f"petersen-bramble n={n:04d} k=4" for n in (10, 14, 18, 20)} <= flagged
    for r in records:
        if r.flagged_known:
            assert "verbatim" in r.instance or "bramble" in r.instance


def test_records_sorted_and_stringly(suite_records):
    records = suite_records("limits")
    assert [r.instance for r in records] == sorted(r.instance for r in records)
    for r in records:
        assert isinstance(r.lhs, str) and isinstance(r.rhs, str)


@pytest.mark.parametrize("workers", [0, -1, 2.0, "2"])
def test_workers_must_be_a_positive_integer(workers):
    with pytest.raises(ParameterError):
        suites.SuiteConfig("limits", workers=workers)


def test_pool_is_no_larger_than_the_job_list(monkeypatch):
    sizes = []

    class RecordingPool:  # runs the jobs in this process; never forks
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    config = suites.SuiteConfig("appendixB", workers=5000)
    records = suites.run_suite(config)
    assert sizes == [len(suites.SUITES["appendixB"][0](config.params))]
    assert records == suites.run_suite(suites.SuiteConfig("appendixB"))
    suites.run_suite(suites.SuiteConfig("limits", workers=5000))  # one job: no pool at all
    assert len(sizes) == 1


def test_petersen_grid_builds_each_host_once(monkeypatch):
    built = Counter()
    gen_petersen = graphs.gen_petersen

    def counting(n, k):
        built[n, k] += 1
        return gen_petersen(n, k)

    monkeypatch.setattr(graphs, "gen_petersen", counting)
    config = suites.SuiteConfig("petersen", params={"n_max": 12, "k_max": 3, "bramble_n_max": 16, "bramble_k_max": 4})
    for fn, args in suites.SUITES["petersen"][0](config.params):
        if fn is not suites._job_petersen_global:  # the classic (5,2) checks build their own host
            fn(*args)
    hosts = {(n, k) for n in range(4, 13) for k in range(1, 4) if 2 * k < n}
    hosts |= {(n, k) for n in range(4, 17) for k in range(1, 5) if 2 * k + 2 <= n}
    assert built == Counter(hosts)


def test_bramble_record_reads_sizes_off_for_a_repeated_id(monkeypatch):
    petersen_bramble = bounds.petersen_bramble

    def repeated(n, k):
        bramble = petersen_bramble(n, k)
        rows = bramble.sets.copy()
        rows[:, 1] = rows[:, 0]  # every row repeats its first id
        return bounds.Bramble(rows)  # the orbit route refuses a repeated id; the pair scan takes it

    monkeypatch.setattr(bounds, "petersen_bramble", repeated)
    [record] = suites._job_petersen(30, 0, 1)
    assert record.instance == "petersen-bramble n=0030 k=1"
    assert "sizes_ok=False" in record.lhs and not record.equal
    monkeypatch.undo()
    [record] = suites._job_petersen(30, 0, 1)
    assert record.lhs == "ok=True sizes_ok=True nontouching=None" and record.equal


def test_petersen_bramble_jobs_build_no_frozenset(monkeypatch):
    def refuse(*args):
        raise AssertionError("the window bramble took the pair scan")

    monkeypatch.setattr(graphs.Graph, "neighbor_masks", refuse)
    for n in (10, 20, 61):
        assert [r.instance for r in suites._job_petersen(n, 0, 4)]


def _slice_bandwidth_off_at_9(johnson_slice_bandwidth):
    return lambda n, k: johnson_slice_bandwidth(n, k) // (5 if k == 9 else 1)  # ratio near 1/10 at k = 9


def _claims_one_more(bk_prime):
    def claims(n, k, cert):
        merged = bk_prime(n, k, cert)
        return dataclasses.replace(merged, omega=merged.omega + 1)

    return claims


# (instance, what to break, the job, how the failing lhs starts)
_BROKEN_RECORDS = [
    ("hales t=1 n=3 pw_dominates_bv", (oracles, "exact_pathwidth", lambda real: lambda g: (0, [])),
     lambda: suites._job_hales(1, 3), "pw=0 < b_v(1)=3"),
    ("consistency cycle-C4 pw_ge_bv", (oracles, "exact_pathwidth", lambda real: lambda g: (0, [])),
     lambda: suites._job_consistency("cycle-C4"), "pw=0 < b_v(1)=2"),
    ("kneser matching n=5 k=2", (oracles, "bipartite_perfect_matching", lambda real: lambda g: None),
     lambda: suites._job_kneser_matching(5, 2), "not perfect"),
    ("kneser bk_prime_chordal", (decomp, "bk_prime", _claims_one_more),
     suites._job_kneser_core, "omega=8 != claimed 9"),
    ("limits window k=8..10", (widthcalc, "johnson_slice_bandwidth", _slice_bandwidth_off_at_9),
     lambda: suites._job_limits(8, 10), "k=9 ratio=10135/92378 outside [0.40, 0.60]"),
    ("limits monotone k=8..10", (widthcalc, "johnson_slice_bandwidth", _slice_bandwidth_off_at_9),
     lambda: suites._job_limits(8, 10), "distance to 1/2 rises at k=9: 134/2431 < 18027/46189"),
]


@pytest.mark.parametrize("instance,broken,job,names", _BROKEN_RECORDS, ids=[case[0] for case in _BROKEN_RECORDS])
def test_failing_record_names_what_failed(monkeypatch, instance, broken, job, names):
    [passing] = [r for r in job() if r.instance == instance]
    assert passing.equal and passing.lhs == passing.rhs
    module, name, breaking = broken
    monkeypatch.setattr(module, name, breaking(getattr(module, name)))
    [failing] = [r for r in job() if r.instance == instance]
    assert not failing.equal and failing.rhs == passing.rhs
    assert failing.lhs != failing.rhs and failing.lhs.startswith(names)


def test_harper_record_reports_over_claims(monkeypatch):
    [record] = suites._job_harper(1, 4)
    assert record.equal and record.lhs == "no over-claims"
    monkeypatch.setattr(widthcalc, "harper_lower_bound", lambda t, q, n, m: 99)
    [record] = suites._job_harper(1, 4)
    assert not record.equal and record.rhs == "no over-claims"
    assert record.lhs.startswith("over-claims at [(1, 99, 4), (2, 99, ")
