"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete. Each criterion reads the records of a suite run (the
shared ``suite_records`` runner runs each suite and parameter set once
per session), asserts that they hold, and asserts that the run's
instances are exactly the ones the criterion's grid implies, so a suite
that silently drops a job fails the gate. Every tolerance is exact
(integer or rational equality); the only floating-point quantity, the
continuous boundary bound, is checked one-sidedly against exhaustive
integer minima.

Criterion 6a is expected to fail: the window bramble genuinely loses
pairwise touching at (n, k) in {(10,4), (14,4), (18,4), (20,4)}, all
inside the stated grid. The assertion is kept faithful to the stated
grid rather than weakened around the four instances; the failure
message lists them.
"""

import pytest

from widthlab import bounds, oracles, suites

# one petersen run serves criteria 05, 06a, 06b and 06c
PETERSEN = dict(n_max=2000, k_max=5, bramble_n_max=500, bramble_k_max=4)
KNESER_CORE = (
    "tw_bk_le_tw_j",
    "degree_bound_j",
    "spectral_bound_bk",
    "slice_bw_dominates",
    "fillin_width_vs_tw",
    "bk_prime_chordal",
    "bk_prime_covers_tw",
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def _grid(records, expected, scope=None):
    """The records of a criterion's grid, and the instances the run misses or adds.

    ``scope`` holds the instance prefixes the criterion owns when it
    shares a run with other criteria; by default it owns the whole run.
    """
    mine = {r.instance: r for r in records if scope is None or r.instance.startswith(scope)}
    gaps = [("missing", sorted(expected - mine.keys())), ("extra", sorted(mine.keys() - expected))]
    return mine, [gap for gap in gaps if gap[1]]


def _failures(records, expected, scope=None):
    """Grid gaps plus every record of the grid that does not hold."""
    mine, gaps = _grid(records, expected, scope)
    return gaps + [(r.instance, r.lhs, r.rhs) for r in mine.values() if not r.equal]


def test_criterion_01_bandwidth_identity_chain(suite_records):
    expected = {
        f"theorem1 t={t} n={n} closed_vs_{route}"
        for t in (1, 2, 3)
        for n in range(t + 1, 5)
        for route in ("matrix", "pathwidth") + (("bandwidth",) if n <= 3 else ())
    }
    bad = _failures(suite_records("theorem1"), expected)
    _report(
        "1 bandwidth identity chain (closed = matrix = pathwidth [= bandwidth])",
        not bad,
        f"{len(expected)} records" if not bad else f"disagreements: {bad}",
    )


def test_criterion_02_radius_identities(suite_records):
    tuples = [
        (t, n, k, s)
        for n in range(1, 11)
        for t in range(1, n - 1)
        for s in range(0, t // 2 + 1)
        for k in range(0, n - (t - 2 * s) + 1)
    ]
    expected = {
        f"radius t={t} n={n} k={k} s={s} closed_vs_{route}"
        for (t, n, k, s) in tuples
        for route in ("recursive", "direct")
    }
    bad = _failures(suite_records("appendixA", n_max=10), expected)
    overlap = sum(k - s in (0, (n - t) // 2, n - t) for (t, n, k, s) in tuples)
    ok = not bad and len(tuples) >= 200 and overlap >= 50
    _report(
        "2 radius closed = recursive = direct on all valid tuples, n <= 10",
        ok,
        f"{len(tuples)} tuples ({overlap} on branch overlaps)" if ok else f"mismatches: {bad[:5]}",
    )


def test_criterion_03_bandwidth_recursion_and_reductions(suite_records):
    expected = {f"bandwidth t={t} n={n} closed_vs_recursion" for t in range(1, 7) for n in range(1, 13)}
    expected |= {f"bandwidth t=1 n={n:02d} halving_sum" for n in range(1, 31)}
    expected |= {f"gap-maximizer t={t} n={n}" for n in range(2, 11) for t in range(1, n)}
    bad = _failures(suite_records("appendixB"), expected)
    _report(
        "3 bandwidth recursion, skip-one reduction, gap-term maximizer",
        not bad,
        f"{len(expected)} records" if not bad else f"failures: {bad}",
    )


def test_criterion_04_boundary_greedy_machinery(suite_records):
    expected = {
        f"hales t={t} n={n} {check}"
        for t in (1, 2, 3)
        for n in (1, 2, 3, 4)
        for check in ("prefix_conditions", "max_bv_vs_bw", "pw_dominates_bv")
    }
    expected |= {f"harper t={t} n=4 bound_below_bv" for t in (1, 2, 3)}
    bad = _failures(suite_records("hales"), expected)
    _report(
        "4 boundary-greedy prefixes, max b_v = bandwidth, continuous bound one-sided",
        not bad,
        f"{len(expected)} records" if not bad else f"failures: {bad}",
    )


def test_criterion_05_petersen_path_decompositions(suite_records):
    expected = {
        f"petersen-pd n={n:04d} k={k} {mode}"
        for k in range(1, 6)
        for n in range(max(4, 2 * k + 1), 2001)
        for mode in ("repaired", "verbatim")
    }
    mine, bad = _grid(suite_records("petersen", **PETERSEN), expected, "petersen-pd ")
    for r in mine.values():
        # for k >= 2 the verbatim recipe must reproduce the documented spoke gap exactly
        gap = r.instance.endswith(" verbatim") and not r.instance.endswith(" k=1 verbatim")
        if (r.flagged_known and not r.equal) if gap else r.equal:
            continue
        bad.append((r.instance, r.lhs, r.rhs))
    _report(
        "5 double-cycle path decompositions, width 2k+2, documented verbatim gap",
        not bad,
        f"grid k<=5, n<=2000, {len(expected)} records" if not bad else f"first failures: {bad[:3]}",
    )


def test_criterion_06a_bramble_grid(suite_records):
    grid = {f"petersen-bramble n={n:04d} k={k}": (n, k) for k in range(1, 5) for n in range(2 * k + 2, 501)}
    mine, gaps = _grid(suite_records("petersen", **PETERSEN), grid.keys(), "petersen-bramble ")
    failures = [grid[name] for name, r in mine.items() if not r.equal]
    _report(
        "6a window brambles connected and pairwise touching on the full grid",
        not failures and not gaps,
        f"grid k<=4, n<=500, {len(grid)} records"
        if not failures and not gaps
        else f"{len(failures)} non-touching instances on the stated grid: {failures}"
        + (f"; grid gaps: {gaps}" if gaps else ""),
    )


def test_criterion_06b_bramble_order_bound(suite_records):
    expected = {"petersen-order-bound n=288 k=1", "petersen-order-bound n=800 k=2"}
    bad = _failures(suite_records("petersen", **PETERSEN), expected, "petersen-order-bound ")
    for k in (1, 2):
        threshold = 8 * (2 * k + 2) ** 2
        for n in range(threshold, threshold + 60):
            if bounds.petersen_order_lower_bound(n, k) < 2 * k + 2:
                bad.append((n, k))
    with pytest.raises(Exception):
        bounds.petersen_order_lower_bound(5, 2)
    _report("6b bramble order bound >= 2k+2 under its hypothesis", not bad, str(bad) if bad else "")


def test_criterion_06c_bramble_transversal_small(suite_records):
    checks = ("bramble_valid", "bramble_transversal", "treewidth", "bramble_vs_tw", "fraction_vs_tau")
    expected = {f"petersen-5-2 {check}" for check in checks}
    records = suite_records("petersen", **PETERSEN)
    bad = _failures(records, expected, "petersen-5-2 ")
    lhs = {r.instance: r.lhs for r in records}
    _report(
        "6c 10-vertex double cycle: transversal 3, treewidth 4",
        not bad,
        f"tau={lhs['petersen-5-2 bramble_transversal']}, tw={lhs['petersen-5-2 treewidth']}"
        if not bad
        else f"failures: {bad}",
    )


def test_criterion_07_subset_inclusion_desk_scale(suite_records):
    expected = {f"kneser {check}" for check in KNESER_CORE}
    records = suite_records("kneser")
    bad = _failures(records, expected, tuple(expected))
    lhs = {r.instance: r.lhs for r in records}
    _report(
        "7 subset-graph treewidths by 2^20-state DP with the chordal chain",
        not bad,
        f"{lhs['kneser tw_bk_le_tw_j']}, {lhs['kneser bk_prime_covers_tw']}" if not bad else f"failed: {bad}",
    )


def test_criterion_08_large_inclusion_graph_substitutes(suite_records):
    expected = {f"kneser matching n={n} k={k}" for (n, k) in ((5, 2), (7, 3), (12, 2))}
    expected |= {"kneser star-td BK(12,2)"}
    expected |= {f"cross-intersecting n={n} k=2" for n in (4, 5, 6, 7)}
    scope = ("kneser matching ", "kneser star-td ", "cross-intersecting ")
    bad = _failures(suite_records("kneser"), expected, scope)
    _report(
        "8 perfect matchings, width-66 star decomposition, cross-intersecting maxima",
        not bad,
        f"{len(expected)} records" if not bad else f"failures: {bad}",
    )


def test_criterion_09_spectrum_certification(suite_records):
    expected = {f"spectrum k={k} {check}" for k in (1, 2, 3) for check in ("moments", "composition")}
    expected |= {f"spectrum-formula k={k:02d}" for k in range(1, 21)}
    bad = _failures(suite_records("spectrum", k_max=3), expected)
    _report(
        "9 integer trace moments match the closed-form spectra, k <= 3",
        not bad,
        f"{len(expected)} records" if not bad else f"failures: {bad}",
    )


def test_criterion_10_slice_bandwidth_ratio_limit(suite_records):
    expected = {"limits window k=8..16", "limits monotone k=8..16"}
    bad = _failures(suite_records("limits"), expected)
    _report(
        "10 slice bandwidth ratio in [0.40, 0.60] and closing on 1/2, k = 8..16",
        not bad,
        "exact rationals" if not bad else f"failures: {bad}",
    )


def test_criterion_11_cross_oracle_consistency(suite_records):
    # which checks a zoo graph's size admits under the oracle caps
    expected = set()
    for name, make in suites._ZOO:
        n = make().num_vertices
        checks = ["tw_le_pw", "degree_le_tw"]
        if n <= oracles.BW_CAP:
            checks += ["pw_le_bw", "maxbv_le_bw"]
        if n <= oracles.BV_CAP:
            checks += ["pw_ge_bv", "boundary_tw"]
        if n <= oracles.SEPARATOR_CAP:
            checks.append("separator")
        expected |= {f"consistency {name} {check}" for check in checks}
    bad = _failures(suite_records("consistency"), expected)
    _report(
        "11 cross-oracle consistency on the instance zoo",
        not bad,
        f"{len(suites._ZOO)} instances, {len(expected)} records" if not bad else f"failures: {bad}",
    )
