"""Command line front end: subcommands, exit codes, report determinism."""

import json

import numpy as np
import pytest

from widthlab import cli, decomp, graphs, hales, oracles, suites, widthcalc
from widthlab.errors import PreconditionError, UndefinedValueError


def run(args):
    return cli.main(args)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "g.gr"
    assert run(["gen", "--family", "petersen", "--n", "5", "--k", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    back = graphs.read_graph(out)
    g = graphs.gen_petersen(5, 2)
    assert back.labels == g.labels and np.array_equal(back.edges, g.edges)


def test_gen_to_stdout(capsys):
    assert run(["gen", "--family", "hamming", "--t", "1", "--q", "2", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "p tw 4 4" in lines
    assert sum(1 for l in lines if l.startswith("c label")) == 4


@pytest.mark.parametrize(
    "family",
    [["hamming", "--t", "1", "--q", "3", "--n", "2"], ["bipartite_kneser", "--n", "5", "--k", "1"], ["petersen", "--n", "7", "--k", "2"]],
)
def test_gen_stdout_matches_file(tmp_path, capsys, family):
    out = tmp_path / "g.gr"
    assert run(["gen", "--family", *family]) == 0
    printed = capsys.readouterr().out
    assert run(["gen", "--family", *family, "--out", str(out)]) == 0
    assert out.read_text() == printed


def test_gen_bad_parameters(capsys):
    assert run(["gen", "--family", "petersen", "--n", "6", "--k", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "bipartite_kneser", "--n", "40", "--k", "1"],
        ["gen", "--family", "hamming", "--n", "33"],
    ],
)
def test_gen_beyond_word_width_is_usage_error(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_flag_a_subcommand_ignores_is_usage_error(tmp_path):
    # bw never writes a file, so --out is not one of its flags
    with pytest.raises(SystemExit) as err:
        run(["bw", "--t", "1", "--n", "3", "--out", str(tmp_path / "f")])
    assert err.value.code == 2
    assert not (tmp_path / "f").exists()


def test_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["bw", "--t", "1", "--n", "5:2"])
    assert err.value.code == 2
    printed = capsys.readouterr()
    assert printed.out == "" and "5:2" in printed.err


def test_no_flag_lifts_a_size_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("a subset DP started")

    for kernel in ("elim_table", "bv_table"):
        monkeypatch.setattr(oracles._kernels, kernel, refuse)
    petersen = ["oracle", "--family", "petersen", "--n", "13", "--k", "2", "--what", "tw"]
    assert run(petersen) == 2  # 26 vertices are over TW_CAP = 25
    # 20 vertices are over SEPARATOR_CAP = 18
    assert run(["oracle", "--family", "bipartite_kneser", "--n", "5", "--k", "2", "--what", "separator"]) == 2
    for argv in (petersen + ["--cap", "26"], ["bw", "--t", "1", "--n", "3", "--cap", "6"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("error", [PreconditionError, UndefinedValueError])
def test_raised_error_is_usage_error(monkeypatch, capsys, error):
    # a raised error refuses the input; exit 1 is left to identity failures
    def refuse(args):
        raise error("input refused")

    monkeypatch.setattr(cli, "_cmd_bw", refuse)
    assert run(["bw", "--t", "1", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: input refused\n"


def test_hales_csv(tmp_path):
    out = tmp_path / "order.csv"
    assert run(["hales", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == "rank,vector\n1,000\n2,001\n3,010\n4,100\n5,011\n6,101\n7,110\n8,111\n"


def test_hales_csv_matches_digit_join(tmp_path, capsys):
    # reference: each word's digits joined one str at a time
    vectors = hales.word_bits(hales.hales_order(10), 10).tolist()
    expected = "rank,vector\n" + "".join(f"{i},{''.join(map(str, vec))}\n" for i, vec in enumerate(vectors, start=1))
    out = tmp_path / "order.csv"
    assert run(["hales", "--n", "10", "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()
    assert run(["hales", "--n", "10"]) == 0
    assert capsys.readouterr().out == expected


def test_hales_above_vertex_cap_writes_nothing(tmp_path, capsys):
    # 2^21 words exceed graphs.MAX_VERTICES; no row is built or written
    out = tmp_path / "order.csv"
    assert run(["hales", "--n", "21", "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["hales", "--n", "21"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ")


def test_bw_agreement(capsys):
    assert run(["bw", "--t", "1:3", "--n", "1:14"]) == 0
    expected = "".join(
        f"t={t} n={n} closed={v} recursion={v} direct={v} agree=True\n"
        for t in range(1, 4)
        for n in range(1, 15)
        for v in [widthcalc.bw_closed(t, n)]
    )
    assert capsys.readouterr().out == expected


def test_bw_direct_stops_where_the_middle_block_passes_the_cap(capsys):
    # the 6435 x 6435 middle block of n = 15 fits BLOCK_MAX_ELEMS, the
    # 12870 x 12870 one of n = 16 does not: that line has no direct value
    assert run(["bw", "--t", "1", "--n", "15"]) == 0
    assert capsys.readouterr().out == "t=1 n=15 closed=7060 recursion=7060 direct=7060 agree=True\n"
    assert run(["bw", "--t", "1", "--n", "16"]) == 0
    printed = capsys.readouterr()
    assert printed.out == "t=1 n=16 closed=13495 recursion=13495 agree=True\n"
    assert printed.err == ""


def test_radius_agreement(capsys):
    assert run(["radius", "--t", "2", "--n", "5", "--k", "2", "--s", "1"]) == 0
    assert "closed=17" in capsys.readouterr().out
    for n in range(1, 8):
        for t in range(1, n + 3):
            for s in range(0, t // 2 + 1):
                for k in range(0, n - (t - 2 * s) + 1):
                    assert run(["radius", "--t", str(t), "--n", str(n), "--k", str(k), "--s", str(s)]) == 0
                    r = widthcalc.radius_closed(t, n, k, s)
                    line = f"t={t} n={n} k={k} s={s} closed={r} recursive={r} direct={r} agree=True\n"
                    assert capsys.readouterr().out == line


def test_decomp_construct_write_validate(tmp_path, capsys):
    td = tmp_path / "d.td"
    gr = tmp_path / "g.gr"
    assert run(["decomp", "--n", "7", "--k", "2", "--mode", "repaired", "--out", str(td)]) == 0
    assert run(["gen", "--family", "petersen", "--n", "7", "--k", "2", "--out", str(gr)]) == 0
    capsys.readouterr()
    assert run(["decomp", "--gr", str(gr), "--td", str(td)]) == 0
    out = capsys.readouterr().out
    assert "ok=True" in out and "width=6" in out


def test_decomp_malformed_graph_is_usage_error(tmp_path, capsys):
    td = tmp_path / "d.td"
    gr = tmp_path / "g.gr"
    assert run(["decomp", "--n", "5", "--k", "2", "--mode", "repaired", "--out", str(td)]) == 0
    gr.write_text("p tw 10 1\n1 x\n")
    assert run(["decomp", "--gr", str(gr), "--td", str(td)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decomp", "--gr", "{tmp}/missing.gr", "--td", "{tmp}/missing.td"],
        ["suite", "--name", "limits", "--out", "{tmp}/no/such/dir/r.json"],
    ],
    ids=["decomp", "suite-out"],
)
def test_file_that_cannot_be_opened_is_usage_error(tmp_path, capsys, argv):
    # exit 1 means an identity failed; a missing file refuses the input
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--gr", "--td"])
def test_decomp_gr_and_td_go_together(tmp_path, capsys, flag):
    # checked before any file is read, so the named file need not exist
    assert run(["decomp", "--n", "9", "--k", "2", flag, str(tmp_path / "missing")]) == 2
    assert "--gr and --td" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [["--n", "9"], ["--k", "2"], ["--mode", "repaired"], ["--out", "z.td"]], ids=["n", "k", "mode", "out"]
)
def test_decomp_file_route_refuses_construction_flags(tmp_path, capsys, flag):
    # refused when given at all, even at its default value
    gr, td = tmp_path / "g.gr", tmp_path / "t.td"
    gr.write_text("p tw 2 1\n1 2\n")
    td.write_text("s td 1 2 2\nb 1 1 2\n")
    flag = [a.replace("z.td", str(tmp_path / "z.td")) for a in flag]
    assert run(["decomp", "--gr", str(gr), "--td", str(td), *flag]) == 2
    assert capsys.readouterr().err == f"error: decomp --gr/--td does not take {flag[0]}\n"
    assert not (tmp_path / "z.td").exists()


@pytest.mark.parametrize(
    "flag",
    [["--family", "petersen"], ["--t", "2"], ["--q", "3"], ["--n", "5"], ["--k", "1"]],
    ids=["family", "t", "q", "n", "k"],
)
def test_oracle_file_route_refuses_family_flags(tmp_path, capsys, flag):
    gr = tmp_path / "g.gr"
    gr.write_text("p tw 3 2\n1 2\n2 3\n")
    assert run(["oracle", "--gr", str(gr), "--what", "tw", *flag]) == 2
    assert capsys.readouterr().err == f"error: oracle --gr does not take {flag[0]}\n"


@pytest.mark.parametrize(
    "gr, td, line",
    [
        (b"p tw 2 1\n1 2\xff\n", b"s td 1 2 2\nb 1 1 2\n", 2),
        (b"c made by \xfe\nc label 1 'a\xff'\np tw 2 1\n1 2\n", b"s td 1 2 2\nb 1 1 2\n", 2),
        (b"p tw 2 1\n1 2\n", b"c made by \xfe\ns td 1 2 2\nb 1 1 2\xff\n", 3),
    ],
    ids=["edge-line", "label-comment", "td-bag-line"],
)
def test_decomp_non_utf8_byte_is_usage_error(tmp_path, capsys, gr, td, line):
    (tmp_path / "g.gr").write_bytes(gr)
    (tmp_path / "t.td").write_bytes(td)
    assert run(["decomp", "--gr", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td")]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_decomp_non_utf8_byte_in_a_comment_is_ignored(tmp_path, capsys):
    (tmp_path / "g.gr").write_bytes(b"c made by \xfe\xff\np tw 2 1\n1 2\n")
    (tmp_path / "t.td").write_bytes(b"c \xff\ns td 1 2 2\nb 1 1 2\n")
    assert run(["decomp", "--gr", str(tmp_path / "g.gr"), "--td", str(tmp_path / "t.td")]) == 0
    assert "ok=True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edge_lines, message",
    [
        ("1 2\n1 2\n", "bag shape contains a cycle"),
        ("1 2\n", "a tree on 3 bags needs 2 edges, got 1"),
        ("1 2\n2 4\n", "line 6: edge line names a bag outside 1..3"),
    ],
)
def test_decomp_malformed_td_shape_is_usage_error(tmp_path, capsys, edge_lines, message):
    gr = tmp_path / "g.gr"
    td = tmp_path / "t.td"
    assert run(["gen", "--family", "petersen", "--n", "5", "--k", "2", "--out", str(gr)]) == 0
    td.write_text("s td 3 10 10\nb 1 1 2 3 4 5 6 7 8 9 10\nb 2 1\nb 3 2\n" + edge_lines)
    capsys.readouterr()
    assert run(["decomp", "--gr", str(gr), "--td", str(td)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_decomp_verbatim_gap_is_mismatch(capsys):
    assert run(["decomp", "--n", "5", "--k", "2", "--mode", "verbatim"]) == 1
    assert "uncovered=[(2, 7)]" in capsys.readouterr().out


def test_bramble_json(tmp_path):
    out = tmp_path / "b.json"
    assert run(["bramble", "--n", "7", "--k", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["valid"] is True
    assert payload["fraction_bound"] == "7/3"


def test_bramble_json_of_a_known_gap(capsys):
    # the orbit route reports the full pair scan's first failing pair
    assert run(["bramble", "--n", "20", "--k", "4"]) == 1
    assert capsys.readouterr().out == json.dumps({
        "instance": "petersen n=20 k=4",
        "valid": False,
        "first_disconnected": None,
        "first_nontouching": [0, 7],
        "set_size": 6,
        "fraction_bound": "20/3",
        "order_lower_bound": None,
        "order_bound_note": "bound needs n >= 8(2k+2)^2 = 800, got n=20",
    }, indent=1) + "\n"


def test_bramble_above_bitset_cap_is_refused(capsys):
    assert run(["bramble", "--n", "2049", "--k", "1"]) == 2  # 4098 host vertices
    assert "capped at 4096 vertices" in capsys.readouterr().err


def test_spectrum_json(tmp_path):
    out = tmp_path / "s.json"
    assert run(["spectrum", "--k", "2", "--p-max", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["moments_ok"] is True
    assert payload["spectral_lower_bound"] == 2


def test_oracle_json(tmp_path):
    out = tmp_path / "o.json"
    assert run([
        "oracle", "--family", "petersen", "--n", "5", "--k", "2", "--what", "tw", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == 4
    assert sorted(payload["certificate"]) == list(range(10))


def test_oracle_separator_runs_no_treewidth_dp(monkeypatch, capsys):
    def refuse(g):
        raise AssertionError("the treewidth DP ran")

    monkeypatch.setattr(oracles, "exact_treewidth", refuse)
    assert run(["oracle", "--family", "petersen", "--n", "5", "--k", "2", "--what", "separator"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "instance": "petersen t=1 q=2 n=5 k=2",
        "oracle": "separator",
        "value": 4,
        "certificate": [[0, 2, 8, 9], [1, 6], [3, 4, 5, 7]],
    }


def test_suite_theorem1_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    # narrower than the defaults, which the shared suite runner already covers
    assert run(["suite", "--name", "theorem1", "--param", "n_max=3", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["records"]
    assert all(r["equal"] for r in payload["records"])


def test_suite_petersen_flags_known_gaps(tmp_path):
    out = tmp_path / "p.json"
    code = run([
        "suite", "--name", "petersen", "--out", str(out), "--format", "json",
        "--param", "n_max=12", "--param", "bramble_n_max=12",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    flagged = [r for r in payload["records"] if r["flagged_known"]]
    assert any("verbatim" in r["instance"] for r in flagged)
    assert any(r["instance"] == "petersen-bramble n=0010 k=4" for r in flagged)
    hard_failures = [r for r in payload["records"] if not (r["equal"] or r["flagged_known"])]
    assert hard_failures == []
    # the documented example: verbatim (5, 2) leaves exactly the middle spoke
    rec = next(r for r in payload["records"] if r["instance"] == "petersen-pd n=0005 k=2 verbatim")
    assert rec["flagged_known"] and "(2, 7)" in rec["lhs"]


def test_suite_unknown_parameter_rejected(tmp_path):
    assert run(["suite", "--name", "limits", "--param", "bogus=3"]) == 2


@pytest.mark.parametrize("name,param", [("hales", "t_max"), ("hales", "n_max"), ("hales", "harper_n"), ("kneser", "cross_n_max")])
def test_suite_fixed_grid_parameter_rejected(capsys, name, param):
    # these grids are fixed: a larger value meets a size cap, a smaller one checks less
    assert run(["suite", "--name", name, "--param", f"{param}=3"]) == 2
    assert "unknown parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--name", "theorem1", "--param", "n_max=1"],  # no job at all
        ["suite", "--name", "appendixA", "--param", "n_max=2"],  # jobs that yield no record
        ["suite", "--name", "limits", "--param", "k_lo=20"],  # an empty k range
    ],
)
def test_suite_that_checks_nothing_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "--name", "petersen", "--param", "n_max=3", "--param", "bramble_n_max=3"],  # neither part
        ["suite", "--name", "petersen", "--param", "k_max=0"],  # no petersen-pd record
        ["suite", "--name", "petersen", "--param", "bramble_k_max=0"],  # no petersen-bramble record
        ["suite", "--name", "appendixB", "--param", "n_max=0"],  # no closed_vs_recursion record
        ["suite", "--name", "appendixB", "--param", "maximizer_n_max=1"],  # no gap-maximizer record
        ["suite", "--name", "spectrum", "--param", "formula_k_max=0"],  # no spectrum-formula record
    ],
)
def test_suite_part_with_an_empty_range_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "r.csv"
    assert run(argv + ["--out", str(out)]) == 2
    assert "checks nothing" in capsys.readouterr().err
    assert not out.exists()


def test_main_calls_share_no_parsed_state(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_suite", lambda args: seen.append(args) or 0)  # looked up on every call
    assert run(["suite", "--name", "limits", "--param", "k_lo=8", "--workers", "2"]) == 0
    assert run(["suite", "--name", "limits", "--param", "k_hi=9"]) == 0
    assert run(["suite", "--name", "limits"]) == 0
    first, second, third = seen
    assert (first.param, second.param, third.param) == (["k_lo=8"], ["k_hi=9"], [])
    assert (first.given, second.given, third.given) == ({"workers"}, set(), set())
    assert cli.build_parser() is cli.build_parser()  # built once per process


@pytest.mark.parametrize("params", [["k_lo=abc"], ["k_lo=8", "k_lo=9"]])
def test_suite_malformed_parameter_rejected(params, capsys):
    argv = ["suite", "--name", "limits"]
    for token in params:
        argv += ["--param", token]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: suite parameter 'k_lo'")


def test_suite_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run(["suite", "--name", "limits", "--format", "json", "--out", str(target)]) == 0
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    assert pa["records"] == pb["records"]  # only the header may differ


def test_suite_workers_match_serial(tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert run(["suite", "--name", "spectrum", "--param", "k_max=2", "--format", "json", "--out", str(serial)]) == 0
    assert run([
        "suite", "--name", "spectrum", "--param", "k_max=2", "--format", "json",
        "--out", str(parallel), "--workers", "2",
    ]) == 0
    assert json.loads(serial.read_text())["records"] == json.loads(parallel.read_text())["records"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_suite_refuses_workers_below_one(workers, capsys):
    assert run(["suite", "--name", "limits", "--workers", workers]) == 2
    assert "workers must be a positive integer" in capsys.readouterr().err


def test_table_bw_closed_row_count(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["table", "--formula", "bw_closed", "--t", "1:3", "--n", "1:10", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t,n,value"
    assert len(rows) - 1 == 24  # only the pairs with t < n


@pytest.mark.parametrize(
    "grid",
    [
        ["radius_closed", "--t", "0", "--n", "5"],
        ["radius_closed", "--t=-3", "--n", "5"],
        ["radius_closed", "--t", "0:1", "--n", "4"],  # the t = 1 rows alone would pass for the grid
        ["bw_closed", "--t", "1", "--n", "0"],
        ["bw_closed", "--t", "1", "--n=-4"],
        ["bw_closed", "--t", "0", "--n", "3"],
    ],
)
def test_table_refuses_t_or_n_below_one(grid, capsys):
    assert run(["table", "--formula", *grid]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("error: ")


def test_table_radius_closed_rows(capsys):
    assert run(["table", "--formula", "radius_closed", "--t", "1:2", "--n", "4"]) == 0
    assert capsys.readouterr().out == (
        "t,n,k,s,value\n1,4,0,0,4\n1,4,1,0,7\n1,4,2,0,7\n1,4,3,0,4\n2,4,0,0,6\n2,4,1,0,6\n"
        "2,4,2,0,6\n2,4,0,1,-inf\n2,4,1,1,7\n2,4,2,1,10\n2,4,3,1,7\n2,4,4,1,-inf\n"
    )


def test_table_unknown_formula():
    # argparse rejects unknown choices with the usage exit code
    with pytest.raises(SystemExit) as err:
        run(["table", "--formula", "nope", "--n", "1:3"])
    assert err.value.code == 2


def test_table_petersen_bounds(tmp_path):
    out = tmp_path / "p.csv"
    assert run([
        "table", "--formula", "petersen_bounds", "--n", "288", "--k", "1", "--out", str(out),
    ]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "n,k,target,order_bound,construction_width"
    assert rows[1] == "288,1,3,4,4"
    # n <= 2k is skipped, not refused: GP(n, k) is only structured below it
    assert run(["table", "--formula", "petersen_bounds", "--n", "1:4", "--k", "1", "--out", str(out)]) == 0
    assert out.read_text() == "n,k,target,order_bound,construction_width\n3,1,3,2,4\n4,1,3,2,4\n"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_table_petersen_bounds_refuses_k_below_one(k, capsys):
    # GP(n, k) with k < 1 is not a family member
    assert run(["table", "--formula", "petersen_bounds", "--n", "5", f"--k={k}"]) == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("error: ")


@pytest.mark.parametrize(
    "grid",
    [
        ["petersen_bounds", "--n", "5", "--k", "0"],
        ["bw_closed", "--t", "0", "--n", "3"],
        ["radius_closed", "--t", "0:1", "--n", "4"],
    ],
)
def test_refused_table_leaves_out_file_untouched(tmp_path, grid):
    out = tmp_path / "t.csv"
    out.write_bytes(b"keep")
    assert run(["table", "--formula", *grid, "--out", str(out)]) == 2
    assert out.read_bytes() == b"keep"


def test_spectrum_formula_only_branch(tmp_path):
    out = tmp_path / "s5.json"
    assert run(["spectrum", "--k", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["moments_ok"] is None  # 924 vertices exceed the moment cap
    assert payload["spectral_lower_bound"] == 85
