"""Command-line interface: JSON output, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from json.decoder import WHITESPACE
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipalg
from chipalg.chipfiring import flag_socles, parking_ideal
from chipalg.cli import report_json, run
from chipalg.monomials import socle
from chipalg.multigraph import Multigraph, parse_graph, tree_count
from conftest import format_graph

DATA = Path(__file__).parent / "data"
K4 = str(DATA / "k4.graph")
C4 = str(DATA / "c4.graph")
PRISM = str(DATA / "prism.graph")
STAIRCASE_IDEAL = None  # written by fixture below


@pytest.fixture(name="staircase_ideal")
def _staircase_ideal(tmp_path):
    path = tmp_path / "staircase.ideal"
    path.write_text(
        "vars 2\ngen 9 0\ngen 6 4\ngen 5 7\ngen 2 8\ngen 0 11\n"
    )
    return str(path)


@pytest.fixture(name="c4_parking_ideal")
def _c4_parking_ideal(tmp_path):
    # the 4-cycle's parking ideal: 3 variables, neither level nor
    # reflection-invariant
    path = tmp_path / "c4.ideal"
    path.write_text(
        "vars 3\ngen 2 0 0\ngen 1 1 0\ngen 1 0 1\ngen 0 2 0\ngen 0 1 1\ngen 0 0 2\n"
    )
    return str(path)


@pytest.fixture(name="no_lattice_box")
def _no_lattice_box(monkeypatch):
    # conjecture finds the apartment slices by a walk over the linear
    # systems and betti needs none, so no chipalg module may enumerate a
    # lattice box for either
    def no_box(*args):
        raise AssertionError("lattice_points_in_box called")

    for name, module in list(sys.modules.items()):
        if name.startswith("chipalg") and hasattr(module, "lattice_points_in_box"):
            monkeypatch.setattr(module, "lattice_points_in_box", no_box)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info(capsys):
    code, out, err = _run(capsys, "info", K4)
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["tree_count"] == 16
    assert rep["results"]["genus"] == 3
    assert "ok" in err


def test_ideal_includes_certificate(capsys):
    code, out, _ = _run(capsys, "ideal", K4)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["results"]["toppling_generators"]) == 7
    assert rep["results"]["standard_monomials"] == 16
    assert all(c["pass"] for c in rep["checks"])


def test_socle_flags_agree_for_saturated(capsys):
    code, out, _ = _run(capsys, "socle", K4)
    rep = json.loads(out)
    assert code == 0 and rep["results"]["flag_formula_agrees"]
    # non-saturated: no flag check enforced, agreement reported false
    code, out, _ = _run(capsys, "socle", C4)
    rep = json.loads(out)
    assert code == 0 and not rep["results"]["flag_formula_agrees"]


def test_socle_matches_box_socle(capsys):
    for path in (K4, C4, PRISM):
        code, out, _ = _run(capsys, "socle", path)
        g = parse_graph(Path(path).read_text())
        assert code == 0
        assert json.loads(out)["results"]["socle"] == [list(m) for m in socle(parking_ideal(g))]


def test_socle_without_box_scan(capsys, tmp_path):
    # saturated, multiplicities 2 and 3: the box of pure powers has 13^5
    # points, which a box scan takes seconds to walk
    g = Multigraph.from_edges(
        6, {(i, j): 3 if (i + j) % 2 else 2 for i in range(1, 7) for j in range(i + 1, 7)}
    )
    path = tmp_path / "sat6.graph"
    path.write_text(format_graph(g))
    start = time.perf_counter()
    code, out, _ = _run(capsys, "socle", str(path))
    elapsed = time.perf_counter() - start
    rep = json.loads(out)
    assert code == 0 and rep["checks"][0]["pass"]
    assert rep["results"]["socle"] == [list(m) for m in flag_socles(g)]
    assert elapsed < 2.0


def test_betti_json_shape(capsys):
    code, out, _ = _run(capsys, "betti", K4, "--ideal", "toppling")
    rep = json.loads(out)
    assert code == 0
    assert rep["results"]["total"] == [1, 7, 12, 6]
    entry = rep["results"]["entries"][0]
    assert set(entry) == {"degree", "index", "rank"}


BETTI_CHECKS = ["top_betti_equals_socle", "betti_nonnegative"]


@pytest.mark.parametrize("ideal", ["parking", "toppling"])
@pytest.mark.parametrize("graph", ["k4", "c4", "prism", "chain"])
def test_betti_checks_pass(capsys, graph, ideal):
    for char in ("0", "2"):
        code, out, _ = _run(capsys, "betti", str(DATA / f"{graph}.graph"), "--ideal", ideal, "--char", char)
        rep = json.loads(out)
        assert code == 0
        assert [c["name"] for c in rep["checks"]] == BETTI_CHECKS
        assert all(c["pass"] for c in rep["checks"])
        top = rep["checks"][0]["details"]
        assert top["top"] == top["socle"] == rep["results"]["total"][-1]


@pytest.mark.parametrize("ideal", ["parking", "toppling"])
@pytest.mark.parametrize(
    "failing, change",
    [("top_betti_equals_socle", (0, 1)), ("betti_nonnegative", (-2, 0))],
)
def test_betti_checks_fail_on_a_wrong_table(capsys, monkeypatch, ideal, failing, change):
    # a table with one more top syzygy, or with a negative entry
    import chipalg.cli as cli

    name = f"betti_{ideal}"
    right = getattr(cli, name)
    rank_change, top_change = change

    def wrong(g):
        table = right(g)
        c, j, r = table["entries"][0]
        total = list(table["total"])
        total[-1] += top_change
        return {"total": tuple(total), "entries": [(c, j, r + rank_change)] + table["entries"][1:]}

    monkeypatch.setattr(cli, name, wrong)
    code, out, err = _run(capsys, "betti", K4, "--ideal", ideal)
    rep = json.loads(out)
    assert code == 2 and failing in err
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == [failing]


def test_conjecture(capsys):
    code, out, _ = _run(capsys, "conjecture", C4, "--char", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["checks"][0]["pass"]


def test_hilbert(capsys):
    code, out, _ = _run(capsys, "hilbert", K4)
    rep = json.loads(out)
    assert code == 0
    assert len(rep["results"]["numerator"]) == 26


@pytest.mark.parametrize("graph", [C4, str(DATA / "chain.graph")])
def test_hilbert_on_graphs_that_are_not_saturated(capsys, graph):
    code, out, _ = _run(capsys, "hilbert", graph)
    rep = json.loads(out)
    assert code == 0 and rep["checks"][0]["name"] == "hilbert_identity"
    assert rep["checks"][0]["pass"]


@pytest.mark.parametrize(
    "command, results",
    [
        # no split, so no generator; the standard monomial 1 is the one tree
        ("ideal", {"toppling_generators": [], "parking_generators": [], "standard_monomials": 1, "tree_count": 1}),
        ("hilbert", {"numerator": [{"t": 0, "q": [], "coeff": 1}], "parking_sum_terms": 1}),
    ],
)
def test_one_node_graph(capsys, tmp_path, command, results):
    path = tmp_path / "one.graph"
    path.write_text("nodes 1\n")
    code, out, _ = _run(capsys, command, str(path))
    rep = json.loads(out)
    assert code == 0 and rep["results"] == results
    assert len(rep["checks"]) == 1 and rep["checks"][0]["pass"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("socle", ("socle",)),
        ("conjecture", ("conjecture",)),
        ("conjecture_char2", ("conjecture", "--char", "2")),
        ("parking", ("betti", "--ideal", "parking")),
        ("toppling", ("betti", "--ideal", "toppling")),
    ],
)
def test_one_node_report_is_unchanged(capsys, name, argv):
    # the one flag of a one-node graph is the empty one, so these reports
    # pin the origin's label of length 1: the degree [0] and its class
    expected = (DATA / f"one.{name}.json").read_text()
    code, out, _ = _run(capsys, argv[0], str(DATA / "one.graph"), *argv[1:])
    assert code == 0 and out == expected


def test_rank_and_sink(capsys):
    code, out, _ = _run(capsys, "rank", K4, "--divisor", "2,1,0,0")
    rep = json.loads(out)
    assert code == 0 and rep["results"]["rank"] == rep["results"]["oracle_rank"]
    # --sink relabels before analysis; K4 is symmetric so results agree
    code2, out2, _ = _run(capsys, "rank", K4, "--sink", "1", "--divisor", "2,1,0,0")
    assert code2 == 0
    assert json.loads(out2)["results"]["rank"] == rep["results"]["rank"]


def test_sink_zero_is_out_of_range(capsys):
    # --sink 0 names no node, so it must be rejected, not ignored
    code, out, _ = _run(capsys, "rank", K4, "--sink", "0", "--divisor", "2,1,0,0")
    assert code == 1 and "out of range" in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["betti", "conjecture"])
# 2^64 is past the bound where the primality test is exact, and the last
# is the least strong pseudoprime to the twelve bases it uses.
@pytest.mark.parametrize("char", ["1", "4", "-2", str(2**64), "318665857834031151167461"])
def test_non_prime_char_exits_1(capsys, command, char):
    code, out, _ = _run(capsys, command, K4, f"--char={char}")
    assert code == 1 and "characteristic" in json.loads(out)["error"]


def test_mrank_and_rrcheck(capsys, staircase_ideal):
    code, out, _ = _run(capsys, "mrank", staircase_ideal, "--monomial", "9,13")
    rep = json.loads(out)
    assert code == 0 and rep["results"]["rank"] == 10  # genus - 2
    code, out, _ = _run(capsys, "rrcheck", staircase_ideal, "--b", "3,4", "--b=-1,2")
    rep = json.loads(out)
    assert code == 0
    assert rep["results"]["canonical"] == [9, 13]
    assert rep["results"]["genus_min"] == 12


def test_wrong_length_monomial_exits_1(capsys):
    # the ideal has 3 variables: a monomial of another length is malformed
    # input, not a rank to report or a failed Riemann-Roch check
    ideal = str(DATA / "k4_parking.ideal")
    for argv in (
        ("mrank", ideal, "--monomial=2,2,2,5"),
        ("mrank", ideal, "--monomial=-1,2"),
        ("mrank", ideal, "--monomial=2,2"),
        ("rrcheck", ideal, "--b", "1,1"),
        ("rrcheck", ideal, "--b", "1,1,0,7"),
    ):
        code, out, err = _run(capsys, *argv)
        rep = json.loads(out)
        assert code == 1 and "results" not in rep
        assert rep["error"] == "monomial length must equal the variable count"
        assert "error" in err


def test_rrcheck_rejects_wrong_length_on_any_ideal(capsys, c4_parking_ideal):
    # --b is checked before the level and reflection-invariance branch, so
    # an ideal that fails the preconditions still rejects it with exit 1
    code, out, _ = _run(capsys, "ideal", C4)
    gens = {tuple(m) for m in json.loads(out)["results"]["parking_generators"]}
    text = Path(c4_parking_ideal).read_text().splitlines()
    assert gens == {tuple(int(e) for e in line.split()[1:]) for line in text[1:]}
    for bs in ("1,1", "1,1,0,7"):
        code, out, err = _run(capsys, "rrcheck", c4_parking_ideal, "--b", "1,0,0", "--b", bs)
        rep = json.loads(out)
        assert code == 1 and "results" not in rep
        assert rep["error"] == "monomial length must equal the variable count"
        assert "error" in err


def test_rrcheck_output_is_unchanged(capsys):
    # rr_profile and both rr_verify calls share one socle per parsed ideal;
    # the report is the one recorded before the socle was cached.
    expected = (DATA / "k4_parking.rrcheck.json").read_text()
    argv = ("rrcheck", str(DATA / "k4_parking.ideal"), "--b", "1,1,1", "--b=-1,2,0", "--b", "3,0,2")
    for _ in range(2):
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out == expected


@pytest.mark.parametrize("graph", ["prism", "c4", "k4", "chain", "sat5"])
@pytest.mark.parametrize(
    "name, argv", [("conjecture", ("conjecture",)), ("toppling", ("betti", "--ideal", "toppling"))]
)
def test_toppling_side_output_is_unchanged(capsys, no_lattice_box, graph, name, argv):
    # pins each toppling class's representative label (the chain graph has
    # classes with several parking labels); the results were recorded before
    # the Betti loops and chain enumerators were merged (sat5: before the
    # apartment slices shared one lattice box), the betti checks later
    expected = (DATA / f"{graph}.{name}.json").read_text()
    code, out, _ = _run(capsys, argv[0], str(DATA / f"{graph}.graph"), *argv[1:])
    assert code == 0 and out == expected


@pytest.mark.parametrize("graph", ["g13", "rsat6"])
def test_toppling_tie_break_output_is_unchanged(capsys, graph):
    # g13 has 62 classes whose label is decided by the tie-break between
    # cyclic partitions of one class, and rsat6 (saturated) has 1,082
    # classes; both recorded while the class table walked every origin flag
    expected = (DATA / f"{graph}.toppling.json").read_text()
    code, out, _ = _run(capsys, "betti", str(DATA / f"{graph}.graph"), "--ideal", "toppling")
    assert code == 0 and out == expected


@pytest.mark.parametrize("name, argv", [("conjecture", ()), ("conjecture_char2", ("--char", "2"))])
def test_saturated_conjecture_report_is_unchanged(capsys, name, argv):
    # rsat5 is conftest's random_saturated(Random(16), 5); both reports were
    # recorded while sub_below still re-walked the barycentric graph per degree
    expected = (DATA / f"rsat5.{name}.json").read_text()
    code, out, _ = _run(capsys, "conjecture", str(DATA / "rsat5.graph"), *argv)
    assert code == 0 and out == expected


@pytest.mark.parametrize("name, argv", [("conjecture", ()), ("conjecture_char2", ("--char", "2"))])
def test_saturated_6_node_conjecture_report_is_unchanged(capsys, no_lattice_box, name, argv):
    # rsat6 is conftest's random_saturated(Random(8), 6), with 1,082 classes
    # in its class table; both reports were recorded while the toppling
    # side still took its ranks from the apartment slices
    expected = (DATA / f"rsat6.{name}.json").read_text()
    code, out, _ = _run(capsys, "conjecture", str(DATA / "rsat6.graph"), *argv)
    assert code == 0 and out == expected


def test_skewed_conjecture_report_is_unchanged(capsys, no_lattice_box):
    # g13 is graph 13 of conftest's random_connected(Random(99), 6, 2), genus
    # 10 with 664 spanning trees, whose lattice box over the class labels
    # held 528 points for the 197 below some label; recorded while
    # apt_region still enumerated that box
    g13 = parse_graph((DATA / "g13.graph").read_text())
    assert (g13.genus, tree_count(g13)) == (10, 664)
    expected = (DATA / "g13.conjecture.json").read_text()
    code, out, _ = _run(capsys, "conjecture", str(DATA / "g13.graph"))
    assert code == 0 and out == expected


@pytest.mark.parametrize("graph", ["prism", "c4", "k4", "chain", "sat5"])
def test_parking_side_output_is_unchanged(capsys, graph):
    # recorded from the homology of the barycentric subcomplexes, before the
    # table was counted from connected flags
    expected = (DATA / f"{graph}.parking.json").read_text()
    code, out, _ = _run(capsys, "betti", str(DATA / f"{graph}.graph"), "--ideal", "parking")
    assert code == 0 and out == expected


@pytest.mark.parametrize("graph", ["prism", "c4", "k4", "chain", "sat5"])
@pytest.mark.parametrize("command", ["ideal", "hilbert", "socle", "info"])
def test_graph_report_is_unchanged(capsys, graph, command):
    # recorded while `ideal` still rebuilt the toppling generators for the
    # parking ideal and for its certificate
    expected = (DATA / f"{graph}.{command}.json").read_text()
    code, out, _ = _run(capsys, command, str(DATA / f"{graph}.graph"))
    assert code == 0 and out == expected


K4_IDEAL = str(DATA / "k4_parking.ideal")


@pytest.mark.parametrize(
    "name, argvs",
    [
        # a non-negative monomial (checked against the search) and a negative one
        ("k4_parking.mrank", [("mrank", K4_IDEAL, "--monomial", "2,1,3"), ("mrank", K4_IDEAL, "--monomial=-1,2,0")]),
        (
            "k4_seeds.construct",
            [("construct", "--canonical", "2,2,2", "--seed", "2,1,0", "--seed", "2,0,1", "--seed", "1,2,0")],
        ),
    ],
)
def test_ideal_report_is_unchanged(capsys, name, argvs):
    # the reports, concatenated; recorded while `construct` profiled its
    # ideal twice
    expected = (DATA / f"{name}.json").read_text()
    out = ""
    for argv in argvs:
        code, text, _ = _run(capsys, *argv)
        assert code == 0
        out += text
    assert out == expected


@pytest.mark.parametrize("char", ["1", "4"])
def test_betti_toppling_rejects_non_prime_char(capsys, char):
    # the counted tables do not read the characteristic, which is still
    # checked before any work (the parking side: test_non_prime_char_exits_1)
    code, out, err = _run(capsys, "betti", K4, "--ideal", "toppling", "--char", char)
    assert code == 1 and "characteristic" in json.loads(out)["error"]
    assert "results" not in json.loads(out) and "error" in err


@pytest.mark.parametrize("ideal", ["parking", "toppling"])
@pytest.mark.parametrize("graph, sink", [("chain", 1), ("chain", 2), ("prism", 3), ("c4", 2)])
def test_betti_sink_is_relabelled_graph(capsys, tmp_path, ideal, graph, sink):
    # --sink i reports the table of the graph with nodes i and n swapped
    path = DATA / f"{graph}.graph"
    swapped = tmp_path / "swapped.graph"
    swapped.write_text(format_graph(parse_graph(path.read_text()).relabel_sink(sink)))
    code, out, _ = _run(capsys, "betti", str(path), "--ideal", ideal, "--sink", str(sink))
    code2, out2, _ = _run(capsys, "betti", str(swapped), "--ideal", ideal)
    assert code == code2 == 0 and out == out2


RANK_DIVISORS = {
    # a negative divisor, one of degree near the genus, and K; rsat6 is
    # conftest's random_saturated(Random(8), 6), genus 19, whose oracle
    # walks reach depth 18 at K
    "k4": ("-2,0,1,0", "3,0,-1,1", "1,1,1,1"),
    "c4": ("-1,0,0,0", "2,-1,0,0", "0,0,0,0"),
    "prism": ("-1,0,1,-1,0,0", "2,0,-1,1,0,2", "1,1,1,1,1,1"),
    "chain": ("0,-2,1,0", "0,2,-1,2", "0,1,2,1"),
    "rsat6": ("6,-3,9,-2,8,4", "5,5,8,7,6,5"),
}


@pytest.mark.parametrize("graph", sorted(RANK_DIVISORS))
def test_rank_output_is_unchanged(capsys, graph):
    # the reports, concatenated; recorded from the round-based socle search
    # and the compositions oracle (rsat6: while the oracle re-reduced each
    # divisor it took a chip from)
    expected = (DATA / f"{graph}.rank.json").read_text()
    out = ""
    for d in RANK_DIVISORS[graph]:
        code, text, _ = _run(capsys, "rank", str(DATA / f"{graph}.graph"), f"--divisor={d}")
        assert code == 0
        out += text
    assert out == expected


def test_construct(capsys):
    code, out, _ = _run(
        capsys, "construct", "--canonical", "2,2,2",
        "--seed", "2,1,0", "--seed", "2,0,1", "--seed", "1,2,0",
    )
    rep = json.loads(out)
    assert code == 0
    assert len(rep["results"]["generators"]) == 7


def test_construct_rejects_seed_of_wrong_length(capsys):
    # a seed is checked against the canonical monomial's length before any
    # divisibility test could cut it to that length
    for canonical, seed, error in (
        ("2,2", "1,1,0", "seed (1, 1, 0) must have 2 exponents, as the canonical monomial has"),
        ("2,2,0", "1,1", "seed (1, 1) must have 3 exponents, as the canonical monomial has"),
    ):
        code, out, err = _run(capsys, "construct", "--canonical", canonical, "--seed", seed)
        rep = json.loads(out)
        assert code == 1 and "results" not in rep
        assert rep["error"] == error
        assert "error" in err


def test_exit_code_1_on_malformed_input(capsys, tmp_path):
    code, out, err = _run(capsys, "info", str(tmp_path / "missing.graph"))
    assert code == 1 and "error" in json.loads(out) and "error" in err
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes 2\nedge 1 1 1\n")
    code, out, _ = _run(capsys, "info", str(bad))
    assert code == 1
    code, _, _ = _run(capsys, "rank", K4, "--divisor", "one,two")
    assert code == 1


def test_exit_code_2_on_failed_math_check(capsys, c4_parking_ideal):
    # the 4-cycle's parking ideal is not reflection-invariant
    code, out, err = _run(capsys, "rrcheck", c4_parking_ideal, "--b", "1,0,0")
    assert code == 2 and "FAILED" in err
    rep = json.loads(out)
    assert not rep["checks"][0]["pass"]


def test_output_is_deterministic(capsys):
    _, out1, _ = _run(capsys, "betti", K4)
    _, out2, _ = _run(capsys, "betti", K4)
    assert out1 == out2
    _, out3, _ = _run(capsys, "conjecture", C4)
    _, out4, _ = _run(capsys, "conjecture", C4)
    assert out3 == out4


# argv cases whose exit code, stdout and stderr are pinned in
# cli_usage.json; "k4.graph" stands for the k4 fixture's path
USAGE = json.loads((DATA / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=[" ".join(c["argv"]) or "no-arguments" for c in USAGE])
def test_usage_and_help_text_is_unchanged(capsys, monkeypatch, case):
    # help, usage errors and one abbreviated option, at a fixed terminal
    # width; recorded while every call still built the whole grammar
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = run([K4 if a == "k4.graph" else a for a in case["argv"]])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out.replace(K4, "k4.graph") == case["stdout"]
    assert err.replace(K4, "k4.graph") == case["stderr"]


def test_named_command_builds_only_its_grammar(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["info", K4]) == 0
    assert built == ["chipalg info"]
    built.clear()
    # a leftover argument is rejected by the whole grammar
    with pytest.raises(SystemExit) as exc:
        run(["info", K4, "extra"])
    assert exc.value.code == 2
    assert built[0] == "chipalg info" and len(built) == 12
    built.clear()
    with pytest.raises(SystemExit):
        run(["conj", K4])
    assert len(built) == 11  # the top-level parser and all ten commands
    capsys.readouterr()


# report-shaped values: strs and str keys with quotes, backslashes, control
# and non-ASCII characters, nested dicts, lists and tuples (empty ones too),
# ints of any size and sign, lists mixing bools and ints, and None
_strs = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600') | st.characters())
_scalars = st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | _strs
_reports = st.recursive(
    _scalars | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_strs, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=_reports)
def test_report_json_matches_json_dumps(obj):
    assert report_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_report_json_matches_json_dumps_on_awkward_values():
    # a float and a dict subclass are written by json.dumps, re-indented
    obj = {
        "\u00e9\"\\\n\x00\x1f\ud83d": [(), [], {}, None, -(2**70), 2**64 + 1, [True, 1, False, 0]],
        "": {"k": ("a\tb", -1, 0.5), "o": [OrderedDict(b=[1, (2,)], a={})]},
    }
    assert report_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_report_json_rewrites_every_data_document():
    # some files hold several documents, one after the other
    decoder, docs = json.JSONDecoder(), 0
    for path in sorted(DATA.glob("*.json")):
        text, pos = path.read_text(), 0
        while (pos := WHITESPACE.match(text, pos).end()) < len(text):
            obj, pos = decoder.raw_decode(text, pos)
            assert report_json(obj) == json.dumps(obj, sort_keys=True, indent=2), path.name
            docs += 1
    assert docs > len(list(DATA.glob("*.json")))


def test_run_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chipalg", "info", K4])
    assert run() == 0
    assert capsys.readouterr().out == (DATA / "k4.info.json").read_text()


def test_module_entry_point():
    src = str(Path(chipalg.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "chipalg.cli", "info", K4], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0
    assert proc.stdout == (DATA / "k4.info.json").read_text()
    assert proc.stderr == "chipalg info: ok\n"
