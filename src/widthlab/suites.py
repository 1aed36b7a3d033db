"""Named verification suites and table emission.

A suite runs a batch of identity checks and returns one record per
check: ``{instance, lhs, rhs, equal, flagged_known, note}``. A failing
record may be flagged as *known* when it reproduces a documented
anomaly exactly (the verbatim double-cycle decomposition misses
specific spokes for k >= 2; four small window brambles fail pairwise
touching); anything else counts as a genuine failure. Suite reports
are deterministic: records are sorted by instance key and timestamps
live only in the report header.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from . import bounds, decomp, graphs, hales, oracles, widthcalc
from .errors import ParameterError

__all__ = [
    "Record",
    "SuiteConfig",
    "SUITES",
    "run_suite",
    "suite_passed",
    "write_report",
    "emit_table",
    "TABLE_FORMULAS",
    "KNOWN_BRAMBLE_GAPS",
]

# window brambles whose pairwise touching genuinely fails (verified by
# exhaustive scan; the window is shorter than the inner skip there)
KNOWN_BRAMBLE_GAPS = {(10, 4), (14, 4), (18, 4), (20, 4)}


@dataclass(frozen=True)
class Record:
    instance: str
    lhs: str
    rhs: str
    equal: bool
    flagged_known: bool = False
    note: str = ""


@dataclass
class SuiteConfig:
    name: str
    params: dict = field(default_factory=dict)
    fmt: str = "json"
    workers: int = 1

    def __post_init__(self):
        if self.name not in SUITES:
            raise ParameterError(f"unknown suite {self.name!r}; known: {sorted(SUITES)}")
        if self.fmt not in ("json", "csv"):
            raise ParameterError(f"format must be json or csv, got {self.fmt!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ParameterError(f"workers must be a positive integer, got {self.workers!r}")
        defaults = dict(SUITES[self.name][1])
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ParameterError(f"unknown parameters for suite {self.name}: {sorted(unknown)}")
        defaults.update(self.params)
        self.params = defaults


def _rec(instance, lhs, rhs, *, flagged=False, note=""):
    return Record(instance, str(lhs), str(rhs), lhs == rhs, flagged, note)


def _rec_cmp(instance, ok, lhs, rhs, note=""):
    return Record(instance, str(lhs), str(rhs), bool(ok), False, note)


# ----------------------------------------------------------------------
# suite job functions (module level so worker processes can import them)
# ----------------------------------------------------------------------


def _job_theorem1(t: int, n: int) -> list:
    recs = []
    closed = widthcalc.bw_closed(t, n)
    direct = widthcalc.bw_direct(t, n)
    recs.append(_rec(f"theorem1 t={t} n={n} closed_vs_matrix", closed, direct))
    g = graphs.gen_hamming(t, 2, n)
    pw, _ = oracles.exact_pathwidth(g)
    recs.append(_rec(f"theorem1 t={t} n={n} closed_vs_pathwidth", closed, pw))
    if n <= 3:
        bw, _ = oracles.exact_bandwidth(g)
        recs.append(_rec(f"theorem1 t={t} n={n} closed_vs_bandwidth", closed, bw))
    return recs


def _valid_radius_tuples(n: int):
    for t in range(1, n - 1):
        for s in range(0, t // 2 + 1):
            for k in range(0, n - (t - 2 * s) + 1):
                yield (t, n, k, s)


def _job_radius_identities(n: int) -> list:
    tuples = list(_valid_radius_tuples(n))
    # a (k, kp) block's distances do not depend on t: build each block once
    by_block = {}
    for tup in tuples:
        t, _, k, s = tup
        by_block.setdefault((k, k + t - 2 * s), []).append(tup)
    radii = widthcalc.block_radii(n, {kk: [tup[0] for tup in group] for kk, group in by_block.items()})
    direct = {tup: r for kk, group in by_block.items() for tup, r in zip(group, radii[kk])}
    recs = []
    for tup in tuples:
        t, nn, k, s = tup
        closed = widthcalc.radius_closed(t, nn, k, s)
        rec = widthcalc.radius_recursive(t, nn, k, t - 2 * s)
        key = f"radius t={t} n={nn} k={k} s={s}"
        recs.append(_rec(f"{key} closed_vs_recursive", closed, rec))
        recs.append(_rec(f"{key} closed_vs_direct", closed, direct[tup]))
    return recs


def _job_bw_recursion(t: int, n_max: int) -> list:
    return [
        _rec(f"bandwidth t={t} n={n} closed_vs_recursion", widthcalc.bw_closed(t, n), widthcalc.bw_recursion(t, n))
        for n in range(1, n_max + 1)
    ]


def _job_bw_t1(n_max: int) -> list:
    recs = []
    for n in range(1, n_max + 1):
        reference = sum(widthcalc.binom_ext(m, m // 2) for m in range(n))
        recs.append(_rec(f"bandwidth t=1 n={n:02d} halving_sum", widthcalc.bw_closed(1, n), reference))
    return recs


def _job_gap_maximizer(n_max: int) -> list:
    recs = []
    for n in range(2, n_max + 1):
        for t in range(1, n):
            values = {
                k: widthcalc.diagonal_distance(t, n, k, t)
                for k in range(0, n - t + 1)
            }
            best = max(v for v in values.values() if v != widthcalc.NEG_INF)
            at_floor = values[(n - t) // 2]
            recs.append(_rec(f"gap-maximizer t={t} n={n}", at_floor, best, note="max diagonal distance attained at k=floor((n-t)/2)"))
    return recs


def _job_hales(t: int, n: int) -> list:
    recs = []
    g = graphs.gen_hamming(t, 2, n)
    hales_report = hales.verify_hales_property(g)
    recs.append(_rec_cmp(f"hales t={t} n={n} prefix_conditions", hales_report.ok, "ok" if hales_report.ok else f"violation at prefix {hales_report.first_violation}", "ok"))
    bv = hales_report.bv
    recs.append(_rec(f"hales t={t} n={n} max_bv_vs_bw", int(max(bv[1:])), widthcalc.bw_closed(t, n)))
    pw, _ = oracles.exact_pathwidth(g)
    recs.append(_rec_cmp(f"hales t={t} n={n} pw_dominates_bv", all(pw >= int(bv[s]) for s in range(1, g.num_vertices + 1)), "pw >= b_v(s) for all s", "pw >= b_v(s) for all s"))
    return recs


def _job_harper(t: int, n: int) -> list:
    g = graphs.gen_hamming(t, 2, n)
    bv = oracles.bv_table(g)
    bad = []
    for m in range(1, (1 << n) + 1):
        bound = widthcalc.harper_lower_bound(t, 2, n, m)
        if bound > int(bv[m]):
            bad.append((m, bound, int(bv[m])))
    return [
        _rec_cmp(
            f"harper t={t} n={n} bound_below_bv",
            not bad,
            "no over-claims" if not bad else f"over-claims at {bad[:3]}",
            "no over-claims",
        )
    ]


def _expected_verbatim_gap(n: int, k: int) -> tuple:
    """Spokes v_j u_j, k < j < 2k, by gen_petersen's ids v_j -> j-1 and u_j -> n+j-1."""
    return tuple((j - 1, n + j - 1) for j in range(k + 1, 2 * k))


def _job_petersen(n: int, k_max: int, bramble_k_max: int) -> list:
    """Path decompositions for k <= k_max and window brambles for k <= bramble_k_max, on one host per k."""
    recs = []
    for k in range(1, max(k_max, bramble_k_max) + 1):
        pd, bramble = 2 * k < n and k <= k_max, n >= 2 * k + 2 and k <= bramble_k_max
        if not (pd or bramble):
            continue
        g = graphs.gen_petersen(n, k)
        for mode in ("repaired", "verbatim") if pd else ():
            rep = decomp.validate_decomposition(g, decomp.petersen_pd(n, k, mode))
            instance = f"petersen-pd n={n:04d} k={k} {mode}"
            if mode == "repaired" or k == 1:
                recs.append(_rec(instance, f"ok={rep.ok} width={rep.width}", f"ok=True width={2 * k + 2}"))
                continue
            expected = _expected_verbatim_gap(n, k)
            observed = tuple(sorted(rep.uncovered_edges))
            matches = (
                observed == expected
                and not rep.missing_vertices
                and not rep.disconnected_vertices
                and rep.width == 2 * k + 2
            )
            recs.append(
                Record(
                    instance,
                    f"uncovered={observed}",
                    f"uncovered={expected}",
                    equal=False,
                    flagged_known=matches,
                    note="printed recipe misses these spokes for k >= 2; repaired mode covers them",
                )
            )
        if bramble:
            br = bounds.petersen_bramble(n, k)
            t = -(-n // (2 * k + 2))
            rows, first = br.sets.distinct  # each row sorted; a repeated id is not a first occurrence
            sizes_ok = rows.shape[1] == 2 * t + 2 and bool(first.all())
            rep = bounds.validate_bramble(g, br)
            known = (not rep.ok) and (n, k) in KNOWN_BRAMBLE_GAPS and rep.first_nontouching is not None
            recs.append(
                Record(
                    f"petersen-bramble n={n:04d} k={k}",
                    f"ok={rep.ok} sizes_ok={sizes_ok} nontouching={rep.first_nontouching}",
                    "ok=True sizes_ok=True nontouching=None",
                    equal=rep.ok and sizes_ok,
                    flagged_known=known,
                    note="window shorter than the inner skip; touching genuinely fails here" if known else "",
                )
            )
    return recs


def _job_petersen_global() -> list:
    recs = []
    for (n, k, expect) in [(288, 1, 4), (800, 2, 6)]:
        recs.append(_rec(f"petersen-order-bound n={n} k={k}", bounds.petersen_order_lower_bound(n, k), expect))
    g = graphs.gen_petersen(5, 2)
    br = bounds.petersen_bramble(5, 2)
    rep = bounds.validate_bramble(g, br)
    recs.append(_rec_cmp("petersen-5-2 bramble_valid", rep.ok, f"ok={rep.ok}", "ok=True"))
    tau = oracles.exact_transversal(br.sets)
    recs.append(_rec("petersen-5-2 bramble_transversal", tau, 3))
    tw, _ = oracles.exact_treewidth(g)
    recs.append(_rec("petersen-5-2 treewidth", tw, 4))
    recs.append(_rec_cmp("petersen-5-2 bramble_vs_tw", tw >= tau - 1, f"tw={tw} >= tau-1={tau - 1}", "tw >= tau-1"))
    frac = bounds.transversal_fraction_bound(br.sets)
    recs.append(_rec_cmp("petersen-5-2 fraction_vs_tau", frac <= tau, f"{frac} <= {tau}", "fraction <= tau"))
    return recs


def _job_kneser_core() -> list:
    recs = []
    j52 = graphs.gen_johnson(5, 2)
    bk52 = graphs.gen_bipartite_kneser(5, 2)
    twj, order_j = oracles.exact_treewidth(j52)
    twbk, _ = oracles.exact_treewidth(bk52)
    recs.append(_rec_cmp("kneser tw_bk_le_tw_j", twbk <= twj, f"tw(BK)={twbk} <= tw(J)={twj}", "tw(BK) <= tw(J)"))
    delta = bounds.degree_lower_bound(j52)
    recs.append(_rec_cmp("kneser degree_bound_j", twj >= delta, f"tw(J)={twj} >= {delta}", f"tw(J) >= min degree {delta}"))
    spectral = bounds.bk_spectral_lb(2)
    recs.append(_rec_cmp("kneser spectral_bound_bk", spectral <= twbk, f"{spectral} <= {twbk}", "spectral lb <= tw(BK)"))
    slice_bw = widthcalc.johnson_slice_bandwidth(5, 2)
    recs.append(_rec_cmp("kneser slice_bw_dominates", slice_bw >= twj, f"{slice_bw} >= {twj}", "slice bandwidth >= tw(J)"))
    cert = decomp.fillin_chordal(j52, order_j)
    recs.append(_rec("kneser fillin_width_vs_tw", cert.omega - 1, twj))
    merged = decomp.bk_prime(5, 2, cert)
    omega = decomp.peo_clique_number(merged.graph, merged.peo)  # raises unless merged.peo is perfect
    recs.append(_rec_cmp("kneser bk_prime_chordal", omega == merged.omega, "chordal", "chordal"))
    recs.append(_rec_cmp("kneser bk_prime_covers_tw", omega - 1 >= twbk, f"omega-1={omega - 1} >= tw(BK)={twbk}", "omega-1 >= tw(BK)"))
    return recs


def _job_kneser_matching(n: int, k: int) -> list:
    g = graphs.gen_bipartite_kneser(n, k)
    matching = oracles.bipartite_perfect_matching(g)
    ok = matching is not None and len(matching) * 2 == g.num_vertices
    return [_rec_cmp(f"kneser matching n={n} k={k}", ok, "perfect", "perfect")]


def _job_kneser_star() -> list:
    g = graphs.gen_bipartite_kneser(12, 2)
    left = [v for v in range(g.num_vertices) if len(g.labels[v]) == 2]
    td = decomp.independent_set_td(g, left)
    rep = decomp.validate_decomposition(g, td)
    ok = rep.ok and rep.width == 66
    return [_rec_cmp("kneser star-td BK(12,2)", ok, f"ok={rep.ok} width={rep.width}", "ok=True width=66")]


def _job_cross_intersecting(n: int) -> list:
    value = oracles.max_cross_intersecting_sum(n, 2)
    expect = widthcalc.binom_ext(n, 2) - widthcalc.binom_ext(n - 2, 2) + 1
    return [_rec(f"cross-intersecting n={n} k=2", value, expect)]


def _job_spectrum(k: int) -> list:
    recs = []
    spectrum = bounds.bk_spectrum(k)
    g = graphs.gen_bipartite_kneser(2 * k + 1, k)
    report = bounds.verify_spectrum_moments(g, spectrum, 2 * (k + 1))
    recs.append(_rec_cmp(f"spectrum k={k} moments", report.ok, "ok" if report.ok else f"p={report.failed_p}", "ok"))
    recs.append(_rec(f"spectrum k={k} composition", bounds.spectral_lower_bound(g, spectrum), bounds.bk_spectral_lb(k)))
    return recs


def _job_spectrum_formula(k_max: int) -> list:
    recs = []
    for k in range(1, k_max + 1):
        spectrum = bounds.bk_spectrum(k)
        composed = bounds.spectral_bound_value(2 * widthcalc.binom_ext(2 * k + 1, k), k + 1, spectrum.second_largest())
        recs.append(_rec(f"spectrum-formula k={k:02d}", composed, bounds.bk_spectral_lb(k)))
    return recs


def _job_limits(k_lo: int, k_hi: int) -> list:
    recs = []
    ratios = {}
    for k in range(k_lo, k_hi + 1):
        ratios[k] = Fraction(widthcalc.johnson_slice_bandwidth(2 * k + 1, k), widthcalc.binom_ext(2 * k + 1, k))
    in_window = all(Fraction(2, 5) <= r <= Fraction(3, 5) for r in ratios.values())
    recs.append(_rec_cmp(f"limits window k={k_lo}..{k_hi}", in_window, "all ratios in [0.40, 0.60]", "all ratios in [0.40, 0.60]"))
    dist = [abs(ratios[k] - Fraction(1, 2)) for k in range(k_lo, k_hi + 1)]
    recs.append(_rec_cmp(f"limits monotone k={k_lo}..{k_hi}", all(a >= b for a, b in zip(dist, dist[1:])), "distance to 1/2 non-increasing", "distance to 1/2 non-increasing"))
    return recs


_ZOO = (
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


def _job_consistency(name: str) -> list:
    g = dict(_ZOO)[name]()
    recs = []
    tw, _ = oracles.exact_treewidth(g)
    pw, _ = oracles.exact_pathwidth(g)
    recs.append(_rec_cmp(f"consistency {name} tw_le_pw", tw <= pw, f"tw={tw} <= pw={pw}", "tw <= pw"))
    bv = oracles.bv_table(g)
    if g.num_vertices <= oracles.BW_CAP:
        bw, _ = oracles.exact_bandwidth(g)
        recs.append(_rec_cmp(f"consistency {name} pw_le_bw", pw <= bw, f"pw={pw} <= bw={bw}", "pw <= bw"))
        recs.append(_rec_cmp(f"consistency {name} maxbv_le_bw", int(max(bv[1:])) <= bw, f"max b_v={int(max(bv[1:]))} <= bw={bw}", "max b_v <= bw"))
    recs.append(_rec_cmp(f"consistency {name} pw_ge_bv", all(pw >= int(bv[s]) for s in range(1, g.num_vertices + 1)), "pw >= b_v(s) for all s", "pw >= b_v(s) for all s"))
    quarter = [int(bv[s]) for s in range(math.ceil(g.num_vertices / 4), g.num_vertices // 2 + 1)]
    if quarter:
        c = min(quarter)
        recs.append(_rec_cmp(f"consistency {name} boundary_tw", tw >= c - 1, f"tw={tw} >= {c - 1}", "tw >= min mid-range boundary - 1"))
    recs.append(_rec_cmp(f"consistency {name} degree_le_tw", bounds.degree_lower_bound(g) <= tw, f"delta={bounds.degree_lower_bound(g)} <= tw={tw}", "delta <= tw"))
    if g.num_vertices <= oracles.SEPARATOR_CAP:
        small = len(oracles.min_balanced_separator(g)[0]) <= tw + 1
        recs.append(_rec_cmp(f"consistency {name} separator", small, "separator of size <= tw+1 exists" if small else "missing", "separator of size <= tw+1 exists"))
    return recs


# ----------------------------------------------------------------------
# suite registry and runner
# ----------------------------------------------------------------------


def _require(params, part: str, *ranges) -> None:
    """Refuse a run in which a part of the suite that ``params`` name spans an empty range."""
    if not all(ranges):
        raise ParameterError(f"suite part {part} checks nothing with {params}")


def _jobs_theorem1(params):
    _require(params, "theorem1", range(1, params["t_max"] + 1), range(2, params["n_max"] + 1))  # t < n
    return [(_job_theorem1, (t, n)) for t in range(1, params["t_max"] + 1) for n in range(t + 1, params["n_max"] + 1)]


def _jobs_appendix_a(params):
    _require(params, "radius", range(3, params["n_max"] + 1))  # the radius tuples start at n = 3
    return [(_job_radius_identities, (n,)) for n in range(3, params["n_max"] + 1)]


def _jobs_appendix_b(params):
    _require(params, "bandwidth recursion", range(1, params["t_max"] + 1), range(1, params["n_max"] + 1))
    _require(params, "halving sum", range(1, params["t1_n_max"] + 1))
    _require(params, "gap maximizer", range(2, params["maximizer_n_max"] + 1))
    jobs = [(_job_bw_recursion, (t, params["n_max"])) for t in range(1, params["t_max"] + 1)]
    jobs.append((_job_bw_t1, (params["t1_n_max"],)))
    jobs.append((_job_gap_maximizer, (params["maximizer_n_max"],)))
    return jobs


def _jobs_hales(params):
    # fixed grid: larger n meets the 20-vertex bv_table cap, larger t only complete graphs
    jobs = [(_job_hales, (t, n)) for t in range(1, 4) for n in range(1, 5)]
    jobs += [(_job_harper, (t, 4)) for t in range(1, 4)]
    return jobs


def _jobs_petersen(params):
    p = params  # a part whose n is past its *_n_max gets k_max 0; the smallest host of each part is (4, 1)
    _require(p, "petersen-pd", range(4, p["n_max"] + 1), range(1, p["k_max"] + 1))
    _require(p, "petersen-bramble", range(4, p["bramble_n_max"] + 1), range(1, p["bramble_k_max"] + 1))
    jobs = [(_job_petersen, (n, p["k_max"] if n <= p["n_max"] else 0, p["bramble_k_max"] if n <= p["bramble_n_max"] else 0))
            for n in range(4, max(p["n_max"], p["bramble_n_max"]) + 1)]
    jobs.append((_job_petersen_global, ()))
    return jobs


def _jobs_kneser(params):
    jobs = [(_job_kneser_core, ()), (_job_kneser_star, ())]
    jobs += [(_job_kneser_matching, (n, k)) for (n, k) in ((5, 2), (7, 3), (12, 2))]
    jobs += [(_job_cross_intersecting, (n,)) for n in range(4, 8)]  # n = 8 has C(8,2) = 28 > CROSS_CAP subsets
    return jobs


def _jobs_spectrum(params):
    _require(params, "spectrum moments", range(1, params["k_max"] + 1))
    _require(params, "spectrum formula", range(1, params["formula_k_max"] + 1))
    jobs = [(_job_spectrum, (k,)) for k in range(1, params["k_max"] + 1)]
    jobs.append((_job_spectrum_formula, (params["formula_k_max"],)))
    return jobs


def _jobs_limits(params):
    _require(params, "limits", range(params["k_lo"], params["k_hi"] + 1))
    return [(_job_limits, (params["k_lo"], params["k_hi"]))]


def _jobs_consistency(params):
    return [(_job_consistency, (name,)) for name, _ in _ZOO]


SUITES = {
    "theorem1": (_jobs_theorem1, {"t_max": 3, "n_max": 4}),
    "appendixA": (_jobs_appendix_a, {"n_max": 10}),
    "appendixB": (_jobs_appendix_b, {"t_max": 6, "n_max": 12, "t1_n_max": 30, "maximizer_n_max": 10}),
    "hales": (_jobs_hales, {}),
    "petersen": (_jobs_petersen, {"n_max": 120, "k_max": 5, "bramble_n_max": 120, "bramble_k_max": 4}),
    "kneser": (_jobs_kneser, {}),
    "spectrum": (_jobs_spectrum, {"k_max": 3, "formula_k_max": 20}),
    "limits": (_jobs_limits, {"k_lo": 8, "k_hi": 16}),
    "consistency": (_jobs_consistency, {}),
}


def _run_job(job):
    fn, args = job
    return fn(*args)


def run_suite(config: SuiteConfig) -> list:
    """Execute a suite; returns its records sorted by instance key."""
    jobs = SUITES[config.name][0](config.params)
    workers = min(config.workers, len(jobs))  # a pool forks all of its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_job, jobs))
    else:
        chunks = [_run_job(j) for j in jobs]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: r.instance)
    return records


def suite_passed(records) -> bool:
    return all(r.equal or r.flagged_known for r in records)


def write_report(config: SuiteConfig, records, stream) -> None:
    """Emit the report; the timestamp lives in a separate header."""
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if config.fmt == "json":
        payload = {
            "header": {"suite": config.name, "generated_at": stamp, "params": config.params},
            "records": [asdict(r) for r in records],
        }
        json.dump(payload, stream, indent=1)
        stream.write("\n")
        return
    stream.write(f"# suite={config.name} generated_at={stamp} params={json.dumps(config.params, sort_keys=True)}\n")
    stream.write("instance,lhs,rhs,equal,flagged_known,note\n")
    for r in records:
        fields = [r.instance, r.lhs, r.rhs, str(r.equal), str(r.flagged_known), r.note]
        stream.write(",".join('"' + f.replace('"', '""') + '"' for f in fields) + "\n")


# ----------------------------------------------------------------------
# formula tables
# ----------------------------------------------------------------------


def _refuse_below_one(formula: str, grid) -> None:
    """Refuse t < 1 and n < 1, which the structured ranges below would skip without a word."""
    for t in grid["t"]:
        for n in grid["n"]:
            if t < 1 or n < 1:
                raise ParameterError(f"{formula} needs t >= 1 and n >= 1, got t={t} n={n}")


def _table_bw_closed(grid):
    _refuse_below_one("bw_closed", grid)
    # only the structured range t < n; beyond it the value collapses to 2^n - 1
    for t in grid["t"]:
        for n in grid["n"]:
            if t < n:
                yield {"t": t, "n": n, "value": widthcalc.bw_closed(t, n)}


def _table_radius_closed(grid):
    _refuse_below_one("radius_closed", grid)
    for n in grid["n"]:
        for (t, nn, k, s) in _valid_radius_tuples(n):
            if t not in grid["t"]:
                continue
            yield {"t": t, "n": nn, "k": k, "s": s, "value": widthcalc.radius_closed(t, nn, k, s)}


def _table_bk_spectral(grid):
    for k in grid["k"]:
        yield {"k": k, "value": bounds.bk_spectral_lb(k)}


def _table_johnson_slice(grid):
    for k in grid["k"]:
        n = 2 * k + 1
        value = widthcalc.johnson_slice_bandwidth(n, k)
        total = widthcalc.binom_ext(n, k)
        yield {"k": k, "n": n, "value": value, "ratio": f"{value}/{total}"}


def _table_petersen_bounds(grid):
    for n in grid["n"]:
        for k in grid["k"]:
            if k < 1:
                raise ParameterError(f"GP(n, k) needs k >= 1, got k={k}")
            if 2 * k >= n:
                continue
            t = -(-n // (2 * k + 2))
            row = {"n": n, "k": k, "target": 2 * k + 1, "order_bound": -(-n // (t + 1)), "construction_width": 2 * k + 2}
            yield row


TABLE_FORMULAS = {
    "bw_closed": (_table_bw_closed, ("t", "n")),
    "radius_closed": (_table_radius_closed, ("t", "n")),
    "bk_spectral_lb": (_table_bk_spectral, ("k",)),
    "johnson_slice_bandwidth": (_table_johnson_slice, ("k",)),
    "petersen_bounds": (_table_petersen_bounds, ("n", "k")),
}


def emit_table(formula: str, grid: dict, fmt: str, stream) -> None:
    """Write one formula table over a parameter grid as CSV or JSON."""
    if formula not in TABLE_FORMULAS:
        raise ParameterError(f"unknown formula {formula!r}; known: {sorted(TABLE_FORMULAS)}")
    gen, needed = TABLE_FORMULAS[formula]
    missing = [axis for axis in needed if not grid.get(axis)]
    if missing:
        raise ParameterError(f"formula {formula} needs grid axes {missing}")
    rows = list(gen(grid))
    if fmt == "json":
        json.dump(rows, stream, indent=1)
        stream.write("\n")
        return
    if not rows:
        return
    cols = list(rows[0])
    stream.write(",".join(cols) + "\n")
    for row in rows:
        stream.write(",".join(str(row[c]) for c in cols) + "\n")
