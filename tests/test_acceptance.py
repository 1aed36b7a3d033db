"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they complete. Every tolerance is exact (integer or rational equality);
the only floating-point quantity, the continuous boundary bound, is
checked one-sidedly against exhaustive integer minima.

Criterion 6a is expected to fail: the window bramble genuinely loses
pairwise touching at (n, k) in {(10,4), (14,4), (18,4), (20,4)}, all
inside the stated grid. The assertion is kept faithful to the stated
grid rather than weakened around the four instances; the failure
message lists them.
"""

import math
import time
from fractions import Fraction

import pytest

from widthlab import bounds, decomp, graphs, hales, oracles, suites, widthcalc as wc


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_bandwidth_identity_chain():
    t0 = time.time()
    bad = []
    for t in (1, 2, 3):
        for n in range(t + 1, 5):
            closed = wc.bw_closed(t, n)
            direct = wc.matrix_bandwidth(wc.assemble_full(t, n))
            g = graphs.gen_hamming(t, 2, n)
            pw, _ = oracles.exact_pathwidth(g)
            values = {closed, direct, pw}
            if n <= 3:
                values.add(oracles.exact_bandwidth(g)[0])
            if len(values) != 1:
                bad.append((t, n, sorted(values)))
    _report(
        "1 bandwidth identity chain (closed = matrix = pathwidth [= bandwidth])",
        not bad,
        f"{time.time() - t0:.1f}s" if not bad else f"disagreements: {bad}",
    )


def test_criterion_02_radius_identities():
    t0 = time.time()
    bad = []
    checked = 0
    overlap = 0
    for n in range(1, 11):
        tuples = list(suites._valid_radius_tuples(n))
        recs = suites._job_radius_identities(n)
        if len(recs) != 2 * len(tuples):
            bad.append((n, f"{len(recs)} records for {len(tuples)} tuples"))
        bad += [(r.instance, r.lhs, r.rhs) for r in recs if not r.equal]
        checked += len(tuples)
        overlap += sum(k - s in (0, (n - t) // 2, n - t) for (t, _, k, s) in tuples)
    ok = not bad and checked >= 200 and overlap >= 50
    _report(
        "2 radius closed = recursive = direct on all valid tuples, n <= 10",
        ok,
        f"{checked} tuples ({overlap} on branch overlaps), {time.time() - t0:.1f}s"
        if ok
        else f"mismatches: {bad[:5]}",
    )


def test_criterion_03_bandwidth_recursion_and_reductions():
    t0 = time.time()
    bad = []
    for t in range(1, 7):
        for n in range(1, 13):
            if wc.bw_closed(t, n) != wc.bw_recursion(t, n):
                bad.append(("recursion", t, n))
    for n in range(1, 31):
        if wc.bw_closed(1, n) != sum(wc.binom_ext(m, m // 2) for m in range(n)):
            bad.append(("t1-sum", n))
    for n in range(2, 11):
        for t in range(1, n):
            values = {k: wc.diagonal_distance(t, n, k, t) for k in range(0, n - t + 1)}
            finite = {k: v for k, v in values.items() if v != wc.NEG_INF}
            if finite[(n - t) // 2] != max(finite.values()):
                bad.append(("maximizer", t, n))
    _report(
        "3 bandwidth recursion, skip-one reduction, gap-term maximizer",
        not bad,
        f"{time.time() - t0:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_04_boundary_greedy_machinery():
    t0 = time.time()
    bad = []
    for t in (1, 2, 3):
        for n in (1, 2, 3, 4):
            g = graphs.gen_hamming(t, 2, n)
            report = hales.verify_hales_property(g)
            if not report.ok:
                bad.append(("prefix", t, n, report.first_violation))
            bv = oracles.bv_table(g)
            if int(max(bv[1:])) != wc.bw_closed(t, n):
                bad.append(("max-bv", t, n))
            pw, _ = oracles.exact_pathwidth(g)
            if not all(pw >= int(bv[s]) for s in range(1, g.num_vertices + 1)):
                bad.append(("pw-vs-bv", t, n))
    for t in (1, 2, 3):
        g = graphs.gen_hamming(t, 2, 4)
        bv = oracles.bv_table(g)
        for m in range(1, 17):
            if wc.harper_lower_bound(t, 2, 4, m) > int(bv[m]):
                bad.append(("harper", t, m))
    _report(
        "4 boundary-greedy prefixes, max b_v = bandwidth, continuous bound one-sided",
        not bad,
        f"{time.time() - t0:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_05_petersen_path_decompositions():
    t0 = time.time()
    bad = []
    for k in range(1, 6):
        for n in range(2 * k + 2, 2001):
            g = graphs.gen_petersen(n, k)
            rep = decomp.validate_decomposition(g, decomp.petersen_pd(n, k, "repaired"))
            if not (rep.ok and rep.width == 2 * k + 2):
                bad.append(("repaired", n, k))
            if k == 1:
                vrep = decomp.validate_decomposition(g, decomp.petersen_pd(n, 1, "verbatim"))
                if not (vrep.ok and vrep.width == 4):
                    bad.append(("verbatim", n, k))
            elif k in (2, 3):
                vrep = decomp.validate_decomposition(g, decomp.petersen_pd(n, k, "verbatim"))
                expected = {
                    (j - 1, n + j - 1) for j in range(k + 1, 2 * k)
                }  # spokes v_j u_j, ids j-1 and n+j-1
                if (
                    set(vrep.uncovered_edges) != expected
                    or vrep.missing_vertices
                    or vrep.disconnected_vertices
                    or vrep.width != 2 * k + 2
                ):
                    bad.append(("verbatim-gap", n, k))
            if bad:
                break
        if bad:
            break
    _report(
        "5 double-cycle path decompositions, width 2k+2, documented verbatim gap",
        not bad,
        f"grid k<=5, n<=2000, {time.time() - t0:.1f}s" if not bad else f"first failure: {bad}",
    )


def test_criterion_06a_bramble_grid():
    t0 = time.time()
    failures = []
    for k in range(1, 5):
        for n in range(2 * k + 2, 501):
            g = graphs.gen_petersen(n, k)
            bramble = bounds.petersen_bramble(n, k)
            t = -(-n // (2 * k + 2))
            rep = bounds.validate_bramble(g, bramble)
            if not rep.ok or any(len(s) != 2 * t + 2 for s in bramble.sets):
                failures.append((n, k))
    _report(
        "6a window brambles connected and pairwise touching on the full grid",
        not failures,
        f"grid k<=4, n<=500, {time.time() - t0:.1f}s"
        if not failures
        else f"{len(failures)} non-touching instances on the stated grid: {failures}",
    )


def test_criterion_06b_bramble_order_bound():
    bad = []
    if bounds.petersen_order_lower_bound(288, 1) != 4:
        bad.append((288, 1))
    if bounds.petersen_order_lower_bound(800, 2) != 6:
        bad.append((800, 2))
    for k in (1, 2):
        threshold = 8 * (2 * k + 2) ** 2
        for n in range(threshold, threshold + 60):
            if bounds.petersen_order_lower_bound(n, k) < 2 * k + 2:
                bad.append((n, k))
    with pytest.raises(Exception):
        bounds.petersen_order_lower_bound(5, 2)
    _report("6b bramble order bound >= 2k+2 under its hypothesis", not bad, str(bad) if bad else "")


def test_criterion_06c_bramble_transversal_small():
    g = graphs.gen_petersen(5, 2)
    bramble = bounds.petersen_bramble(5, 2)
    rep = bounds.validate_bramble(g, bramble)
    tau = oracles.exact_transversal(bounds.bramble_hypergraph(g, bramble))
    tw, _ = oracles.exact_treewidth(g)
    ok = rep.ok and tau == 3 and tw == 4 and tw >= tau - 1
    _report("6c 10-vertex double cycle: transversal 3, treewidth 4", ok, f"tau={tau}, tw={tw}")


def test_criterion_07_subset_inclusion_desk_scale():
    t0 = time.time()
    j52 = graphs.gen_johnson(5, 2)
    bk52 = graphs.gen_bipartite_kneser(5, 2)
    twj, order_j = oracles.exact_treewidth(j52)
    twbk, _ = oracles.exact_treewidth(bk52)
    cert = decomp.fillin_chordal(j52, order_j)
    merged = decomp.bk_prime(5, 2, cert)
    chordal = decomp.is_chordal(merged)
    omega = decomp.clique_number_chordal(merged, chordal.peo)
    checks = {
        "tw(BK) <= tw(J)": twbk <= twj,
        "chordal completion": chordal.chordal,
        "omega-1 covers tw(BK)": omega - 1 >= twbk,
        "degree bound": 6 <= twj,
        "spectral bound": bounds.bk_spectral_lb(2) == 2 and 2 <= twbk,
        "slice bandwidth": wc.johnson_slice_bandwidth(5, 2) == 7 and 7 >= twj,
    }
    bad = [name for name, ok in checks.items() if not ok]
    _report(
        "7 subset-graph treewidths by 2^20-state DP with the chordal chain",
        not bad,
        f"tw(J)={twj}, tw(BK)={twbk}, omega={omega}, {time.time() - t0:.1f}s"
        if not bad
        else f"failed: {bad}",
    )


def test_criterion_08_large_inclusion_graph_substitutes():
    t0 = time.time()
    bad = []
    for (n, k) in ((5, 2), (7, 3), (12, 2)):
        g = graphs.gen_bipartite_kneser(n, k)
        matching = oracles.bipartite_perfect_matching(g)
        if matching is None or 2 * len(matching) != g.num_vertices:
            bad.append(("matching", n, k))
    g12 = graphs.gen_bipartite_kneser(12, 2)
    left = [v for v in range(g12.num_vertices) if len(g12.labels[v]) == 2]
    rep = decomp.validate_decomposition(g12, decomp.independent_set_td(g12, left))
    if not (rep.ok and rep.width == 66):
        bad.append(("star-td", rep.width))
    for n in (4, 5, 6, 7):
        value = oracles.max_cross_intersecting_sum(n, 2)
        if value != math.comb(n, 2) - math.comb(n - 2, 2) + 1:
            bad.append(("cross", n, value))
    _report(
        "8 perfect matchings, width-66 star decomposition, cross-intersecting maxima",
        not bad,
        f"{time.time() - t0:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_09_spectrum_certification():
    t0 = time.time()
    bad = []
    for k in (1, 2, 3):
        g = graphs.gen_bipartite_kneser(2 * k + 1, k)
        spectrum = bounds.bk_spectrum(k)
        report = bounds.verify_spectrum_moments(g, spectrum, 2 * (k + 1))
        if not report.ok:
            bad.append(("moments", k, report.failed_p))
        if bounds.spectral_lower_bound(g, spectrum) != bounds.bk_spectral_lb(k):
            bad.append(("composition", k))
    _report(
        "9 integer trace moments certify the closed-form spectra, k <= 3",
        not bad,
        f"{time.time() - t0:.1f}s" if not bad else f"failures: {bad}",
    )


def test_criterion_10_slice_bandwidth_ratio_limit():
    t0 = time.time()
    ratios = {
        k: Fraction(wc.johnson_slice_bandwidth(2 * k + 1, k), wc.binom_ext(2 * k + 1, k))
        for k in range(8, 17)
    }
    in_window = all(Fraction(2, 5) <= r <= Fraction(3, 5) for r in ratios.values())
    dist = [abs(ratios[k] - Fraction(1, 2)) for k in range(8, 17)]
    monotone = all(a >= b for a, b in zip(dist, dist[1:]))
    _report(
        "10 slice bandwidth ratio in [0.40, 0.60] and closing on 1/2, k = 8..16",
        in_window and monotone,
        f"{time.time() - t0:.2f}s, exact rationals"
        if in_window and monotone
        else f"ratios: {[str(r) for r in ratios.values()]}",
    )


ZOO = (
    ("path-P5", lambda: graphs.Graph(5, [(i, i + 1) for i in range(4)])),
    ("cycle-C4", lambda: graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
    ("cycle-C5", lambda: graphs.Graph(5, [(i, (i + 1) % 5) for i in range(5)])),
    ("cycle-C6", lambda: graphs.Graph(6, [(i, (i + 1) % 6) for i in range(6)])),
    ("complete-K4", lambda: graphs.Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])),
    ("petersen-5-2", lambda: graphs.gen_petersen(5, 2)),
    ("petersen-7-2", lambda: graphs.gen_petersen(7, 2)),
    ("johnson-5-2", lambda: graphs.gen_johnson(5, 2)),
    ("hamming-1-2-3", lambda: graphs.gen_hamming(1, 2, 3)),
    ("hamming-2-2-3", lambda: graphs.gen_hamming(2, 2, 3)),
    ("hamming-1-2-4", lambda: graphs.gen_hamming(1, 2, 4)),
    ("hamming-2-2-4", lambda: graphs.gen_hamming(2, 2, 4)),
    ("hamming-3-2-4", lambda: graphs.gen_hamming(3, 2, 4)),
    ("hamming-1-3-2", lambda: graphs.gen_hamming(1, 3, 2)),
    ("kneser-bk-5-2", lambda: graphs.gen_bipartite_kneser(5, 2)),
)


def test_criterion_11_cross_oracle_consistency():
    t0 = time.time()
    bad = []
    for name, make in ZOO:
        g = make()
        tw, _ = oracles.exact_treewidth(g)
        pw, _ = oracles.exact_pathwidth(g)
        if tw > pw:
            bad.append((name, "tw>pw"))
        if bounds.degree_lower_bound(g) > tw:
            bad.append((name, "delta>tw"))
        if g.num_vertices <= oracles.BW_CAP:
            bw, _ = oracles.exact_bandwidth(g)
            if pw > bw:
                bad.append((name, "pw>bw"))
        if g.num_vertices <= oracles.BV_CAP:
            bv = oracles.bv_table(g)
            if any(pw < int(bv[s]) for s in range(1, g.num_vertices + 1)):
                bad.append((name, "pw<bv"))
            mid = [int(bv[s]) for s in range(math.ceil(g.num_vertices / 4), g.num_vertices // 2 + 1)]
            if mid and tw < min(mid) - 1:
                bad.append((name, "boundary-tw"))
        if g.num_vertices <= oracles.SEPARATOR_CAP:
            if oracles.min_balanced_separator(g, tw + 1) is None:
                bad.append((name, "no-separator"))
    # certified lower bounds never exceed the exact values
    bk = graphs.gen_bipartite_kneser(5, 2)
    twbk, _ = oracles.exact_treewidth(bk)
    if bounds.spectral_lower_bound(bk, bounds.bk_spectrum(2)) > twbk:
        bad.append(("kneser-bk-5-2", "spectral>tw"))
    pet = graphs.gen_petersen(5, 2)
    twp, _ = oracles.exact_treewidth(pet)
    spectrum = bounds.Spectrum(((3, 1), (1, 5), (-2, 4)))
    if bounds.spectral_lower_bound(pet, spectrum) > twp:
        bad.append(("petersen-5-2", "spectral>tw"))
    tau = oracles.exact_transversal(bounds.bramble_hypergraph(pet, bounds.petersen_bramble(5, 2)))
    if tau - 1 > twp:
        bad.append(("petersen-5-2", "bramble>tw"))
    _report(
        "11 cross-oracle consistency on the instance zoo",
        not bad,
        f"{len(ZOO)} instances, {time.time() - t0:.1f}s" if not bad else f"failures: {bad}",
    )
