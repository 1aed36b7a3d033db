"""Command line front end.

Subcommands: gen, hales, bw, radius, decomp, bramble, spectrum, oracle,
suite, table. Exit codes: 0 when everything checked out (or failures
are explicitly flagged as known), 1 when a command ran and found an
identity failure, 2 on a usage error, a file that cannot be opened or
any raised widthlab error (malformed input, a size cap, an unmet
precondition): a raised error refuses the input and never reports an
identity failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import bounds, decomp, graphs, hales, oracles, suites, widthcalc
from .errors import HypothesisError, ParameterError, SizeCapError, WidthLabError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _parse_range(text: str) -> range:
    """'4' -> 4..4, '1:6' -> 1..6 (inclusive); an empty range such as '5:2' is refused."""
    if ":" in text:
        lo, hi = map(int, text.split(":", 1))
        if lo > hi:
            raise argparse.ArgumentTypeError(f"range {text!r} is empty: {lo} > {hi}")
        return range(lo, hi + 1)
    v = int(text)
    return range(v, v + 1)


@contextlib.contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _refuse_ignored(args, route: str, flags) -> None:
    """Refuse each of ``flags`` that was given although ``route`` does not read it."""
    ignored = [f"--{flag}" for flag in flags if flag in args.given]
    if ignored:
        raise ParameterError(f"{route} does not take {', '.join(ignored)}")


def _single(rng: range, flag: str) -> int:
    if len(rng) != 1:
        raise ParameterError(f"--{flag} must be a single value here")
    return rng[0]


def _spec(args) -> graphs.FamilySpec:
    """The family member that --family, --t, --q, --n and --k name."""
    return graphs.FamilySpec(args.family, **{flag: _single(getattr(args, flag), flag) for flag in ("t", "q", "n", "k")})


def _write_json(payload, out) -> None:
    with _out_stream(out) as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _cmd_gen(args) -> int:
    g = graphs.generate(_spec(args))
    if args.out is None:
        graphs.dump_graph(g, sys.stdout)
    else:
        graphs.write_graph(g, args.out)
        print(f"wrote {g.n} vertices, {g.num_edges} edges to {args.out}")
    return EXIT_OK


def _cmd_hales(args) -> int:
    n = _single(args.n, "n")
    if n >= graphs.MAX_VERTICES.bit_length():
        raise SizeCapError(f"hales --n {n} asks for 2^{n} words, above the cap of {graphs.MAX_VERTICES}")
    # one n-byte ASCII string of digits per word, straight from the bit matrix
    digits = (hales.word_bits(hales.hales_order(n), n) + ord("0")).view(f"S{n}").ravel().tolist()
    with _out_stream(args.out) as fh:
        fh.write("rank,vector\n")
        fh.writelines(f"{i},{word.decode()}\n" for i, word in enumerate(digits, start=1))
    return EXIT_OK


def _cmd_bw(args) -> int:
    status = EXIT_OK
    for t in args.t:
        for n in args.n:
            closed = widthcalc.bw_closed(t, n)
            recursion = widthcalc.bw_recursion(t, n)
            line = f"t={t} n={n} closed={closed} recursion={recursion}"
            values = {closed, recursion}
            if n <= widthcalc.FULL_MATRIX_MAX_N:
                direct = widthcalc.matrix_bandwidth(widthcalc.assemble_full(t, n))
                line += f" direct={direct}"
                values.add(direct)
            agree = len(values) == 1
            line += f" agree={agree}"
            print(line)
            if not agree:
                status = EXIT_MISMATCH
    return status


def _cmd_radius(args) -> int:
    t = _single(args.t, "t")
    n = _single(args.n, "n")
    k = _single(args.k, "k")
    s = _single(args.s, "s")
    closed = widthcalc.radius_closed(t, n, k, s)
    recursive = widthcalc.radius_recursive(t, n, k, t - 2 * s)
    direct = widthcalc.manhattan_radius(widthcalc.assemble_block(t, n, k, k + t - 2 * s))
    agree = closed == recursive == direct
    print(f"t={t} n={n} k={k} s={s} closed={closed} recursive={recursive} direct={direct} agree={agree}")
    return EXIT_OK if agree else EXIT_MISMATCH


def _cmd_decomp(args) -> int:
    if bool(args.gr) != bool(args.td):
        raise ParameterError("--gr and --td are given together or not at all")
    if args.gr:
        _refuse_ignored(args, "decomp --gr/--td", ("n", "k", "mode", "out"))
        g = graphs.read_graph(args.gr)
        d, declared_n = decomp.read_td(args.td)
        if declared_n != g.num_vertices:
            print(f"declared vertex count {declared_n} differs from graph ({g.num_vertices})")
            return EXIT_MISMATCH
        report = decomp.validate_decomposition(g, d)
    else:
        n = _single(args.n, "n")
        k = _single(args.k, "k")
        g = graphs.gen_petersen(n, k)
        d = decomp.petersen_pd(n, k, args.mode)
        report = decomp.validate_decomposition(g, d)
        if args.out:
            decomp.write_td(d, g.num_vertices, args.out)
    print(
        f"ok={report.ok} width={report.width} "
        f"missing={list(report.missing_vertices)} "
        f"uncovered={list(report.uncovered_edges)} "
        f"disconnected={list(report.disconnected_vertices)}"
    )
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_bramble(args) -> int:
    n = _single(args.n, "n")
    k = _single(args.k, "k")
    g = graphs.gen_petersen(n, k)
    bramble = bounds.petersen_bramble(n, k)
    report = bounds.validate_bramble(g, bramble)
    payload = {
        "instance": f"petersen n={n} k={k}",
        "valid": report.ok,
        "first_disconnected": report.first_disconnected,
        "first_nontouching": report.first_nontouching,
        "set_size": len(bramble.sets[0]),
        "fraction_bound": str(bounds.transversal_fraction_bound(bramble.sets)),
    }
    try:
        payload["order_lower_bound"] = bounds.petersen_order_lower_bound(n, k)
    except HypothesisError as exc:
        payload["order_lower_bound"] = None
        payload["order_bound_note"] = str(exc)
    _write_json(payload, args.out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_spectrum(args) -> int:
    k = _single(args.k, "k")
    spectrum = bounds.bk_spectrum(k)
    payload = {
        "k": k,
        "pairs": [list(p) for p in spectrum.pairs],
        "num_vertices": spectrum.num_vertices(),
        "spectral_lower_bound": bounds.bk_spectral_lb(k),
    }
    if spectrum.num_vertices() <= bounds.SPECTRUM_CAP:
        g = graphs.gen_bipartite_kneser(2 * k + 1, k)
        report = bounds.verify_spectrum_moments(g, spectrum, args.p_max)
        payload["moments_checked_to"] = args.p_max
        payload["moments_ok"] = report.ok
        if not report.ok:
            payload["failed_p"] = report.failed_p
    else:
        payload["moments_ok"] = None
        payload["note"] = "graph too large for the moment check; closed form only"
    _write_json(payload, args.out)
    return EXIT_OK if payload["moments_ok"] in (True, None) else EXIT_MISMATCH


def _cmd_oracle(args) -> int:
    if args.gr:
        _refuse_ignored(args, "oracle --gr", ("family", "t", "q", "n", "k"))
        g = graphs.read_graph(args.gr)
        instance = args.gr
    else:
        spec = _spec(args)
        g = graphs.generate(spec)
        instance = f"{args.family} t={spec.t} q={spec.q} n={spec.n} k={spec.k}"
    what = args.what
    if what == "tw":
        value, cert = oracles.exact_treewidth(g)
    elif what == "pw":
        value, cert = oracles.exact_pathwidth(g)
    elif what == "bw":
        value, cert = oracles.exact_bandwidth(g)
    elif what == "bv":
        table = oracles.bv_table(g)
        value, cert = [int(x) for x in table], None
    elif what == "separator":
        cert = oracles.min_balanced_separator(g)
        value = len(cert[0])
    else:
        raise ParameterError(f"unknown oracle {what!r}")
    payload = {"instance": instance, "oracle": what, "value": value, "certificate": cert}
    _write_json(payload, args.out)
    return EXIT_OK


def _cmd_suite(args) -> int:
    params = {}
    for token in args.param:
        if "=" not in token:
            raise ParameterError(f"suite parameters look like name=value, got {token!r}")
        key, val = token.split("=", 1)
        if key in params:
            raise ParameterError(f"suite parameter {key!r} is given twice")
        try:
            params[key] = int(val)
        except ValueError:
            raise ParameterError(f"suite parameter {key!r} must be an integer, got {val!r}") from None
    config = suites.SuiteConfig(args.name, params=params, fmt=args.format, workers=args.workers)
    records = suites.run_suite(config)
    with _out_stream(args.out) as fh:
        suites.write_report(config, records, fh)
    passed = suites.suite_passed(records)
    failures = [r for r in records if not (r.equal or r.flagged_known)]
    flagged = [r for r in records if r.flagged_known]
    print(
        f"suite {args.name}: {len(records)} records, "
        f"{len(failures)} failures, {len(flagged)} flagged-known",
        file=sys.stderr,
    )
    return EXIT_OK if passed else EXIT_MISMATCH


def _cmd_table(args) -> int:
    grid = {"t": list(args.t), "n": list(args.n), "k": list(args.k), "s": list(args.s)}
    with _out_stream(args.out) as fh:
        suites.emit_table(args.formula, grid, args.format, fh)
    return EXIT_OK


class _Given(argparse.Action):
    """Stores a flag's value and adds the flag's name to ``args.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# every flag a subcommand may take; each subcommand declares the ones it reads
_FLAGS = {
    "t": dict(type=_parse_range, default=range(1, 2)),
    "q": dict(type=_parse_range, default=range(2, 3)),
    "n": dict(type=_parse_range, default=range(1, 2)),
    "k": dict(type=_parse_range, default=range(1, 2)),
    "s": dict(type=_parse_range, default=range(0, 1)),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(default=None),
    "workers": dict(type=int, default=1),
    "family": dict(choices=("hamming", "johnson", "bipartite_kneser", "petersen"), default="hamming"),
    "mode": dict(choices=("verbatim", "repaired"), default="repaired"),
    "what": dict(choices=("tw", "pw", "bw", "bv", "separator"), default="tw"),
}


@functools.cache  # safe to share: _Given and the --param default leave the parser untouched
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="widthlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *flags):  # run by _cmd_<name>
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", action=_Given, **_FLAGS[flag])
        p.set_defaults(given=frozenset())
        return p

    command("gen", "emit a family member in PACE .gr form", "family", "t", "q", "n", "k", "out")
    command("hales", "print the global binary order as CSV", "n", "out")
    command("bw", "closed/recursive/direct bandwidth values", "t", "n")
    command("radius", "closed/recursive/direct block radii", "t", "n", "k", "s")

    p = command("decomp", "build or validate path/tree decompositions", "n", "k", "mode", "out")
    p.add_argument("--gr", default=None, help="validate this .gr graph ...")
    p.add_argument("--td", default=None, help="... against this .td decomposition")

    command("bramble", "build and validate the window bramble", "n", "k", "out")

    p = command("spectrum", "closed-form spectrum with a trace-moment check", "k", "out")
    p.add_argument("--p-max", type=int, default=6)

    p = command("oracle", "exact brute-force values with certificates", "family", "t", "q", "n", "k", "what", "out")
    p.add_argument("--gr", default=None, help="run on a .gr file instead of a family")

    p = command("suite", "run a named verification suite", "format", "out", "workers")
    p.add_argument("--name", required=True, choices=sorted(suites.SUITES))
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE", help="override a suite grid parameter")

    p = command("table", "emit a formula table over a grid", "t", "n", "k", "s", "format", "out")
    p.add_argument("--formula", required=True, choices=sorted(suites.TABLE_FORMULAS))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)  # looked up per call, not stored in the cached parser
    except (WidthLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
