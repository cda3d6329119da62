import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import colourful
from colourful import cli
from colourful.cli import main
from colourful.gadgets import gen_example1, reduce_nae3sat_pathwidth
from colourful.decomposition import TreeDecomposition, serialize_td
from colourful.graph import (
    ColouredGraph,
    is_colourful_partition,
    is_valid_deletion_set,
    parse_instance,
    serialize_instance,
)
from colourful.oracle import brute_min_deletions, brute_min_partition

from helpers import k4_and_cycle

FANO_ROW = "1 2 3 0\n"


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "ex1.cg"
    path.write_text(serialize_instance(gen_example1(5)))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_partition_example1(example1_file, capsys):
    code, out, _ = run(capsys, "solve", "--problem", "partition", example1_file)
    assert code == 0
    assert out.splitlines()[0] == "partition 2"


def test_solve_components_example1(example1_file, capsys):
    code, out, _ = run(capsys, "solve", "--problem", "components", example1_file)
    assert code == 0
    assert out.splitlines()[0] == "deletions 10"


def test_solve_two_block_route_and_check_round_trip(example1_file, tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    code, out, _ = run(
        capsys, "solve", "--problem", "partition", "--k", "2",
        "--algo", "tw2-2sat", example1_file, "-o", sol,
    )
    assert code == 0
    assert out.splitlines() == ["partition 2", "solver tw2-2sat"]
    code, out, _ = run(capsys, "check", example1_file, sol)
    assert code == 0
    assert out.strip() == "ok partition 2"


def test_solve_writes_checkable_deletion_witness(example1_file, tmp_path, capsys):
    sol = tmp_path / "del.txt"
    code, _, _ = run(
        capsys, "solve", "--problem", "components", example1_file, "-o", sol
    )
    assert code == 0
    code, out, _ = run(capsys, "check", example1_file, sol)
    assert code == 0
    assert out.strip() == "ok deletions 10"


def test_solve_decision_no_prints_none(tmp_path, capsys):
    path = tmp_path / "p3.cg"
    path.write_text("cgraph 3 2\nv 0 1\nv 1 1\nv 2 1\ne 0 1\ne 1 2\n")
    code, out, _ = run(capsys, "solve", "--k", "2", path)
    assert code == 0 and out.strip() == "none"


def test_solve_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cg"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "solve", bad)
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "solve", tmp_path / "missing.cg")
    assert code == 2
    # a graph outside every route's caps
    wide = tmp_path / "wide.cg"
    n = 14
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines = [f"cgraph {n} {len(edges)}"]
    lines += [f"v {v} {1 + v % 7}" for v in range(n)]
    lines += [f"e {u} {v}" for u, v in edges]
    wide.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "solve", wide)
    assert code == 3 and "no applicable solver" in err
    # a route picked by --algo whose precondition fails
    code, _, err = run(capsys, "solve", "--algo", "tw2-2sat", wide)
    assert code == 3 and "use --k 2" in err


def test_solve_k2_moves_on_from_a_width_three_graph_at_once(tmp_path, capsys):
    # tw2-2sat's width gate must answer without a branch and bound: on this
    # graph one grows about 4.5 times per two vertices
    path = tmp_path / "k4cycle.cg"
    path.write_text(serialize_instance(k4_and_cycle(30)))
    start = time.perf_counter()
    code, out, _ = run(capsys, "solve", "--k", "2", path)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out.splitlines() == ["partition 2", "solver two-block-search"]


def test_solve_long_path_without_recursion_limit(tmp_path, capsys):
    # a tree decomposition this deep used to overflow the recursive to_nice;
    # a tree now takes the tree DP, and a supplied decomposition of a long
    # path still goes through to_nice (below)
    n = 5000
    path = tmp_path / "path.cg"
    lines = [f"cgraph {n} {n - 1}"]
    lines += [f"v {v} {1 + v % 3}" for v in range(n)]
    lines += [f"e {v} {v + 1}" for v in range(n - 1)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", "--problem", "components", path)
    assert code == 0 and out.splitlines()[0] == "deletions 1666"
    code, out, _ = run(capsys, "solve", "--problem", "partition", path)
    assert code == 0 and out.splitlines()[0] == "partition 1667"


def test_solve_two_coloured_long_augmenting_path(tmp_path, capsys):
    # L1..L1500 (ids 0..1499) first take R0..R1499, which leaves one
    # augmenting path of 3001 edges from L0 (id 1500) through every vertex
    half = 1500
    edges = [(half, half + 1)]
    for i in range(1, half + 1):
        edges += [(i - 1, half + i), (i - 1, half + 1 + i)]
    g = ColouredGraph.build(2 * half + 2, [1] * (half + 1) + [2] * (half + 1), edges)
    path = tmp_path / "augment.cg"
    path.write_text(serialize_instance(g))
    code, out, _ = run(capsys, "solve", "--problem", "partition", path)
    assert code == 0
    assert out.splitlines() == ["partition 1501", "solver two-coloured-matching"]
    code, out, _ = run(capsys, "solve", "--problem", "components", path)
    assert code == 0 and out.splitlines()[0] == "deletions 1500"


def _path(colours):
    return ColouredGraph.build(
        len(colours), colours, [(v, v + 1) for v in range(len(colours) - 1)]
    )


def _disjoint_union(g, h):
    return ColouredGraph.build(
        g.n + h.n, g.colours + h.colours,
        g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()],
    )


def _grid_and_triangle(side):
    """A side x side grid coloured like a chessboard with 1 and 2, plus a
    disjoint triangle coloured 3, 4 and 5."""
    n = side * side
    grid = ColouredGraph.build(
        n,
        [(v // side + v % side) % 2 + 1 for v in range(n)],
        [(v, v + 1) for v in range(n) if (v + 1) % side]
        + [(v, v + side) for v in range(n - side)],
    )
    triangle = ColouredGraph.build(3, [3, 4, 5], [(0, 1), (0, 2), (1, 2)])
    return _disjoint_union(grid, triangle)


@pytest.mark.parametrize(
    "problem, answer", [("partition", "partition 19"), ("components", "deletions 42")]
)
def test_solve_routes_each_component_on_its_own(problem, answer, tmp_path, capsys):
    # No route takes the whole graph: it has five colours and 39 vertices.
    # The grid goes to the matching (18 dominoes, 42 of its 60 edges cut)
    # and the triangle, one block, to the DP.
    path, sol = tmp_path / "mixed.cg", tmp_path / "mixed.sol"
    path.write_text(serialize_instance(_grid_and_triangle(6)))
    code, out, _ = run(capsys, "solve", "--problem", problem, path, "-o", sol)
    assert code == 0
    assert out.splitlines() == [answer, "solver two-coloured-matching+treewidth-dp"]
    code, out, _ = run(capsys, "check", path, sol)
    assert code == 0 and out.strip() == f"ok {answer}"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_auto_optimum_adds_up_over_components(data):
    # Both optima add up over components, whatever the vertex ids.  The
    # path's are known: its blocks are dominoes and at most one single
    # vertex, and every edge off the dominoes is cut.
    n = data.draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.sets(st.sampled_from(pairs), max_size=n + 3)) if pairs else ()
    colours = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    piece = ColouredGraph.build(n, colours, sorted(edges))
    length = data.draw(st.integers(13, 20))
    path = _path([v % 2 + 1 for v in range(length)])
    union = _disjoint_union(piece, path)
    perm = data.draw(st.permutations(range(union.n)))
    relabelled = ColouredGraph.build(
        union.n,
        [union.colours[perm.index(v)] for v in range(union.n)],
        [(perm[u], perm[v]) for u, v in union.edges()],
    )
    expected = {
        "partition": brute_min_partition(piece).optimum + (length + 1) // 2,
        "components": brute_min_deletions(piece).optimum + (length - 1) // 2,
    }
    for g in (union, relabelled):
        for problem, optimum in expected.items():
            res = cli._solve_with(g, problem, "auto")
            valid = is_colourful_partition if problem == "partition" else is_valid_deletion_set
            assert res.optimum == len(res.witness) == optimum
            assert valid(g, res.witness)


AUTO_ROUTES = [
    (_path([1, 2, 1, 2]), ("--problem", "partition"), "two-coloured-matching"),
    (
        ColouredGraph.build(6, [1, 2, 3, 1, 2, 3], [(v, (v + 1) % 6) for v in range(6)]),
        ("--problem", "partition", "--k", "2"),
        "tw2-2sat",
    ),
    (
        ColouredGraph.build(
            6, [1, 2, 3, 1, 2, 3], [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
        ),
        ("--problem", "partition"),
        "treewidth-dp",
    ),
    (gen_example1(5), ("--problem", "components"), "brute-partitions"),
    (
        reduce_nae3sat_pathwidth([(1, 2, 3)])[0],
        ("--problem", "partition", "--k", "2"),
        "two-block-search",
    ),
    # the DP answers a small forest whatever its number of colours, so the
    # last two graphs, with more than six colours, each close a cycle
    (
        ColouredGraph.build(8, list(range(1, 9)), [(0, v) for v in range(1, 8)] + [(1, 2)]),
        ("--problem", "partition"),
        "vertex-cover-kernel",
    ),
    (
        ColouredGraph.build(13, list(range(1, 13)) + [1], [(v, (v + 1) % 13) for v in range(13)]),
        ("--problem", "partition"),
        "nonunique-colours",
    ),
    # the same cycle under --problem components: only the oracle takes it,
    # and its 13 edges are few enough to try every deletion set
    (
        ColouredGraph.build(13, list(range(1, 13)) + [1], [(v, (v + 1) % 13) for v in range(13)]),
        ("--problem", "components"),
        "brute",
    ),
]


@pytest.mark.parametrize(
    "g, args, solver", AUTO_ROUTES, ids=[solver for _, _, solver in AUTO_ROUTES]
)
def test_auto_picks_the_first_applicable_route(g, args, solver, tmp_path, capsys):
    path = tmp_path / "g.cg"
    path.write_text(serialize_instance(g))
    code, out, _ = run(capsys, "solve", *args, path)
    assert code == 0
    assert out.splitlines()[1] == f"solver {solver}"


def test_tw2_route_reports_the_formulas_it_solved():
    six_cycle = ColouredGraph.build(6, [1, 2, 3, 1, 2, 3], [(v, (v + 1) % 6) for v in range(6)])
    result = cli._solve_with(six_cycle, "partition", "tw2-2sat", k=2)
    assert result.solver == "tw2-2sat" and result.optimum == 2
    assert list(result.stats) == ["formulas"] and 1 <= result.stats["formulas"] <= 3
    # two colourful components need no formula
    pair = ColouredGraph.build(4, [1, 2, 1, 2], [(0, 1), (2, 3)])
    assert cli._solve_with(pair, "partition", "tw2-2sat", k=2).stats == {"formulas": 0}


def test_check_rejects_wrong_witness(example1_file, tmp_path, capsys):
    sol = tmp_path / "wrong.txt"
    sol.write_text("partition 1\nblock 0\n")
    code, _, err = run(capsys, "check", example1_file, sol)
    assert code == 1 and "invalid" in err


# Each reader's malformed inputs, with the exit code of the command that reads
# them: 2 for unparseable input, 1 for a witness that parses but is invalid.
# Solutions and decompositions are read against P2, the path 0-1 coloured
# 1, 2.
P2 = "cgraph 2 1\nv 0 1\nv 1 2\ne 0 1\n"
REJECTIONS = [
    ("instance", "", 2),
    ("instance", "v 0 1\n", 2),  # no header
    ("instance", "cgraph 2\n", 2),
    ("instance", "cgraph 2 1 0\n", 2),
    ("instance", "cgraph x 1\n", 2),
    ("instance", "cgraph -1 0\n", 2),
    ("instance", "cgraph 2 2\nv 0 1\nv 1 2\ne 0 1\ne 0 1\n", 2),  # duplicate edge
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne 1 0\n", 2),  # u > v
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne 1 1\n", 2),  # a loop
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne 0 2\n", 2),  # out of range
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne -1 1\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne 0\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\ne 0 1.0\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\nv 1 two\ne 0 1\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\nv 1 0\ne 0 1\n", 2),  # non-positive colour
    ("instance", "cgraph 2 1\nv 0 1\nv 1 -3\ne 0 1\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\nv 0 2\nv 1 2\ne 0 1\n", 2),  # declared twice
    ("instance", "cgraph 2 1\nv 0 1\nv 2 2\ne 0 1\n", 2),
    ("instance", "cgraph 2 1\nv 0 1 1\nv 1 2\ne 0 1\n", 2),
    ("instance", "cgraph 2 1\nv 0 1\ne 0 1\n", 2),  # vertex 1 has no colour
    ("instance", "cgraph 2 0\nv 0 1\nv 1 2\ne 0 1\n", 2),  # edge count lies
    ("instance", "cgraph 2 1\nv 0 1\nv 1 2\nx 0 1\n", 2),
    ("solution", "", 2),
    ("solution", "answers 1\n", 2),
    ("solution", "partition\n", 2),
    ("solution", "partition x\nblock 0 1\n", 2),
    ("solution", "partition 1\nblock 0 0 1\n", 2),  # repeated vertex in a block
    ("solution", "partition 2\nblock 0 1\nblock\n", 2),  # empty block
    ("solution", "partition 1\nblock 0 one\n", 2),
    ("solution", "partition 1\ne 0 1\n", 2),
    ("solution", "partition 2\nblock 0 1\n", 2),  # block count lies
    ("solution", "deletions 1 2\ne 0 1\n", 2),
    ("solution", "deletions x\ne 0 1\n", 2),
    ("solution", "deletions 2\ne 0 1\ne 0 1\n", 2),  # duplicate deleted edge
    ("solution", "deletions 1\ne 1 0\n", 2),
    ("solution", "deletions 1\ne 0 b\n", 2),
    ("solution", "deletions 1\ne 0 1 2\n", 2),
    ("solution", "deletions 0\ne 0 1\n", 2),
    # these parse, and check refuses them: blocks are kept as a list, so two
    # equal blocks cover a vertex twice
    ("solution", "partition 2\nblock 0 1\nblock 0 1\n", 1),
    ("solution", "partition 1\nblock 0 5\n", 1),
    ("solution", "deletions 1\ne 0 5\n", 1),
    ("td", "", 2),
    ("td", "td 1\n", 2),
    ("td", "td 1 x\nbag 0 0 1\n", 2),
    ("td", "td 1 1\nbag 0 0 1\nbag 0 0 1\n", 2),  # bag declared twice
    ("td", "td 1 1\nbag\n", 2),
    ("td", "td 1 1\nbag x 0 1\n", 2),
    ("td", "td 1 1\nbag 0 0 y\n", 2),
    ("td", "td 2 1\nbag 0 0 1\nbag 1 1\nte 0\n", 2),  # bad te lines
    ("td", "td 2 1\nbag 0 0 1\nbag 1 1\nte 0 x\n", 2),
    ("td", "td 2 1\nbag 0 0 1\nbag 1 1\nte 0 1 1\n", 2),
    ("td", "td 2 1\nbag 0 0 1\n", 2),  # bag 1 missing
    ("td", "td 1 5\nbag 0 0 1\n", 2),  # width lies
    ("td", "td 1 1\nbag 0 0 1\nnode 1\n", 2),
    ("td", "td 1 0\nbag 0 0\n", 1),  # parses, does not cover the edge
    ("cnf", "1 2 x 0\n", 2),  # bad CNF tokens
    ("cnf", "1 2.5 3 0\n", 2),
    ("pairs", "0\n", 2),  # short int rows
    ("pairs", "0 1 2\n", 2),
    ("pairs", "0 x\n", 2),
    ("edge-colours", "0 1\n", 2),
]


@pytest.mark.parametrize("reader, text, code", REJECTIONS)
def test_readers_reject_malformed_input(reader, text, code, tmp_path, capsys):
    inst, bad, out = tmp_path / "p2.cg", tmp_path / "bad.txt", tmp_path / "out.cg"
    inst.write_text(P2)
    bad.write_text(text)
    argv = {
        "instance": ("solve", bad),
        "solution": ("check", inst, bad),
        "td": ("td", "validate", inst, bad),
        "cnf": ("gen", "split-3sat", "--formula", bad, "-o", out),
        "pairs": ("gen", "multicut", "--tree", inst, "--pairs", bad, "-o", out),
        "edge-colours": ("gen", "vc", "--graph", inst, "--edge-colours", bad, "-o", out),
    }[reader]
    got, _, err = run(capsys, *argv)
    assert got == code
    assert err.startswith("error: " if code == 2 else "invalid: ")
    assert not out.exists()


def test_gen_example1_and_sidecar(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gen", "example1", "--k", "5")
    assert code == 0
    g = parse_instance((tmp_path / "example1_k5.cg").read_text())
    assert g.n == 12
    sidecar = (tmp_path / "example1_k5.cg.jsonl").read_text()
    assert '"target_k": 2' in sidecar


def test_gen_random_respects_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("CG_SEED", "7")
    run(capsys, "gen", "random", "--n", "8", "--m", "9", "-o", "a.cg")
    run(capsys, "gen", "random", "--n", "8", "--m", "9", "-o", "b.cg")
    assert (tmp_path / "a.cg").read_text() == (tmp_path / "b.cg").read_text()
    monkeypatch.setenv("CG_SEED", "8")
    run(capsys, "gen", "random", "--n", "8", "--m", "9", "-o", "c.cg")
    assert (tmp_path / "a.cg").read_text() != (tmp_path / "c.cg").read_text()


def test_gen_random_samples_pairs_without_listing_them():
    # decoding sampled pair indices picks the same edges as sampling the list
    # of all pairs, so every seed keeps its graph
    for seed, n, m in [(0, 2, 1), (1, 5, 10), (2, 9, 17), (3, 30, 40), (4, 12, 0)]:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        expected = random.Random(seed).sample(pairs, m)
        assert cli._gen_random(random.Random(seed), n, m, 3).edges() == sorted(expected)
    # listing the ~2M pairs of n = 2000 would peak far above this
    tracemalloc.start()
    try:
        g = cli._gen_random(random.Random(5), 2000, 10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 10 and peak < 5 * 2**20


def test_gen_split_family_solves_to_two(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    # a CNF line may end in a comment, as a line of every other format may
    cnf.write_text("c two clauses\np cnf 3 2\n1 2 3 0  # all positive\n-1 -2 3 0\n")
    out_file = tmp_path / "s.cg"
    code, _, _ = run(capsys, "gen", "split-3sat", "--formula", cnf, "-o", out_file)
    assert code == 0
    code, out, _ = run(capsys, "solve", "--k", "2", out_file)
    assert code == 0
    assert out.splitlines()[0] == "partition 2"


def test_gen_nae_family_emits_valid_decomposition(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(FANO_ROW)
    out_file = tmp_path / "nae.cg"
    code, _, _ = run(capsys, "gen", "nae-pathwidth", "--formula", cnf, "-o", out_file)
    assert code == 0
    code, out, _ = run(capsys, "td", "validate", out_file, tmp_path / "nae.td")
    assert code == 0 and out.strip() == "ok width 3"


def test_gen_multicut_family(tmp_path, capsys):
    tree = tmp_path / "t.cg"
    tree.write_text("cgraph 4 3\nv 0 1\nv 1 1\nv 2 1\nv 3 1\ne 0 1\ne 1 2\ne 2 3\n")
    pairs = tmp_path / "p.txt"
    pairs.write_text("0 3\n")
    out_file = tmp_path / "mc.cg"
    code, _, _ = run(
        capsys, "gen", "multicut", "--tree", tree, "--pairs", pairs,
        "--r", "1", "-o", out_file,
    )
    assert code == 0
    assert '"target_k": 2' in (tmp_path / "mc.cg.jsonl").read_text()
    code, out, _ = run(capsys, "solve", out_file, "--k", "2")
    assert code == 0 and out.splitlines()[0] == "partition 2"


def test_td_compute_and_validate(example1_file, tmp_path, capsys):
    td_file = tmp_path / "ex1.td"
    code, out, _ = run(capsys, "td", "compute", example1_file, "-o", td_file)
    assert code == 0 and out.strip() == "width 2"
    code, out, _ = run(capsys, "td", "validate", example1_file, td_file)
    assert code == 0 and out.strip() == "ok width 2"


def test_td_compute_finds_the_width_greedy_misses_by_one(tmp_path, capsys):
    # min-degree elimination gives width 4 here, the exact search 3
    edges = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5)]
    inst, td_file = tmp_path / "g.cg", tmp_path / "g.td"
    inst.write_text(serialize_instance(ColouredGraph.build(6, (1,) * 6, edges)))
    code, out, _ = run(capsys, "td", "compute", inst, "-o", td_file)
    assert code == 0 and out.strip() == "width 3"
    code, out, _ = run(capsys, "td", "validate", inst, td_file)
    assert code == 0 and out.strip() == "ok width 3"


def test_td_validate_rejects_mismatched_decomposition(tmp_path, capsys):
    inst = tmp_path / "p2.cg"
    inst.write_text("cgraph 2 1\nv 0 1\nv 1 2\ne 0 1\n")
    td_file = tmp_path / "bad.td"
    td_file.write_text("td 1 0\nbag 0 0\n")
    code, _, err = run(capsys, "td", "validate", inst, td_file)
    assert code == 1 and "invalid" in err


def test_solve_rejects_a_decomposition_that_does_not_fit_the_graph(tmp_path, capsys):
    # the decomposition parses, but its one bag misses vertex 1
    inst = tmp_path / "p2.cg"
    inst.write_text(P2)
    td_file = tmp_path / "bad.td"
    td_file.write_text("td 1 0\nbag 0 0\n")
    code, out, err = run(capsys, "solve", "--td", td_file, inst)
    assert code == 2 and out == ""
    assert "supplied decomposition is invalid" in err


def test_td_validate_rejects_a_huge_bag_count_as_malformed(tmp_path, capsys):
    inst = tmp_path / "p2.cg"
    inst.write_text("cgraph 2 1\nv 0 1\nv 1 2\ne 0 1\n")
    td_file = tmp_path / "huge.td"
    td_file.write_text("td 99999999999999999999 0\n")
    code, _, err = run(capsys, "td", "validate", inst, td_file)
    assert code == 2 and "expected bags" in err


def test_bench_manifest(example1_file, tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        f"{example1_file}\toracle\tpartition\n"
        f"{example1_file}\tmatching\tpartition\n"
        f"{tmp_path / 'missing.cg'}\tauto\tpartition\n"
    )
    code, out, _ = run(capsys, "bench", "--manifest", manifest)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == [
        "instance", "solver", "problem", "optimum", "wall_ms", "explored", "status",
    ]
    assert len(lines) == 4
    assert lines[1].split("\t")[3] == "2" and lines[1].split("\t")[6] == "ok"
    assert lines[2].split("\t")[6].startswith("error")  # matching: 7 colours
    assert lines[3].split("\t")[6].startswith("error")  # unreadable instance


def test_bench_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.tsv"
    manifest.write_text("# nothing yet\n")
    code, out, _ = run(capsys, "bench", "--manifest", manifest)
    assert code == 0
    assert out.splitlines() == [
        "\t".join(
            ["instance", "solver", "problem", "optimum", "wall_ms", "explored",
             "status"]
        )
    ]


def bench_rows(out):
    """The rows of a bench table, each split into its columns, without the
    header."""
    return [line.split("\t") for line in out.splitlines()[1:]]


def test_bench_jobs_out_and_a_no_instance(example1_file, tmp_path, capsys):
    # the path 1-2-1-2 loses its middle edge; three vertices of one colour
    # admit no two-block partition
    path_file, none_file = tmp_path / "p4.cg", tmp_path / "p3.cg"
    path_file.write_text(serialize_instance(_path([1, 2, 1, 2])))
    none_file.write_text(serialize_instance(_path([1, 1, 1])))
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        f"{example1_file}\toracle\tpartition\n"
        f"{path_file}\tdp\tcomponents\n"
        f"{none_file}\ttw2-2sat\tpartition\n"
    )
    code, out, _ = run(capsys, "bench", "--manifest", manifest, "--jobs", "1")
    assert code == 0
    rows = bench_rows(out)
    assert [row[3] for row in rows] == ["2", "1", "none"]
    assert {row[6] for row in rows} == {"ok"}
    table = tmp_path / "rows.tsv"
    code, out, _ = run(
        capsys, "bench", "--manifest", manifest, "--jobs", "2", "--out", table
    )
    assert code == 0 and out == ""
    # the same rows from two worker processes, apart from the wall times
    pooled = bench_rows(table.read_text())
    assert [row[:4] + row[5:] for row in pooled] == [row[:4] + row[5:] for row in rows]


def test_bench_rejects_a_missing_or_malformed_manifest(example1_file, tmp_path, capsys):
    code, out, err = run(capsys, "bench", "--manifest", tmp_path / "missing.tsv")
    assert code == 2 and out == "" and "error" in err
    for line in (f"{example1_file}\toracle", f"{example1_file} fastest partition"):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"{example1_file}\toracle\tpartition\n{line}\n")
        code, out, err = run(capsys, "bench", "--manifest", manifest)
        assert code == 2 and out == "" and "bad manifest line" in err


def test_repeated_main_calls_in_one_process_share_no_state(
    example1_file, tmp_path, capsys, monkeypatch
):
    # `main` keeps one parser per process; each call must still behave as if
    # it had a parser of its own
    sol = tmp_path / "k2.sol"
    k2 = ("solve", example1_file, "--k", "2", "-o", sol)
    plain = ("solve", example1_file)

    def fresh(*argv):
        cli.build_parser.cache_clear()
        return run(capsys, *argv)

    expected_k2 = fresh(*k2)
    sol.unlink()
    expected_plain = fresh(*plain)
    assert expected_k2[0] == expected_plain[0] == 0
    assert expected_k2[1] != expected_plain[1]  # the routes differ

    assert run(capsys, *k2) == expected_k2
    assert sol.exists()
    sol.unlink()
    # neither --k nor -o carries over from the call before
    assert run(capsys, *plain) == expected_plain
    assert not sol.exists()

    with pytest.raises(SystemExit) as exc:
        main(["solve", str(example1_file), "--k", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *k2) == expected_k2

    monkeypatch.setattr(sys, "argv", ["colourful", *map(str, plain)])
    assert main() == 0
    assert capsys.readouterr().out == expected_plain[1]


def run_console(*argv, timeout=None):
    # the child must import the same `colourful` as this process, installed
    # or not
    src = str(Path(colourful.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "colourful.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_console_entry_point_runs(tmp_path):
    path = tmp_path / "ex.cg"
    path.write_text(serialize_instance(gen_example1(2)))
    proc = run_console("solve", path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "partition 2"


def test_solve_with_a_long_path_decomposition_validates_in_linear_time(tmp_path):
    # both the supplied decomposition and its nice form are validated; each
    # check used to take seconds per thousand bags on a path
    n = 10_000
    g = ColouredGraph.build(
        n, [v % 3 + 1 for v in range(n)], [(v, v + 1) for v in range(n - 1)]
    )
    td = TreeDecomposition(
        tuple(frozenset({v, v + 1}) for v in range(n - 1)),
        tuple((v, v + 1) for v in range(n - 2)),
    )
    inst, td_file = tmp_path / "path.cg", tmp_path / "path.td"
    inst.write_text(serialize_instance(g))
    td_file.write_text(serialize_td(td))
    proc = run_console(
        "solve", "--problem", "components", "--td", td_file, inst, timeout=20
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "deletions 3333"


def test_solve_with_a_decomposition_answers_by_the_dp(tmp_path, capsys):
    # a two-coloured graph goes to the matching route without --td; with a
    # decomposition the DP answers on it, and no other route may be named
    g = ColouredGraph.build(
        6, [1, 2, 1, 2, 1, 2], [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)]
    )
    td = TreeDecomposition(
        (frozenset({0, 1, 3}), frozenset({1, 2, 3}), frozenset({0, 3, 4}), frozenset({0, 4, 5})),
        ((0, 1), (0, 2), (2, 3)),
    )
    inst, td_file = tmp_path / "g.cg", tmp_path / "g.td"
    inst.write_text(serialize_instance(g))
    td_file.write_text(serialize_td(td))
    for problem in ("partition", "components"):
        code, plain, _ = run(capsys, "solve", "--problem", problem, inst)
        assert code == 0 and plain.splitlines()[1] == "solver two-coloured-matching"
        code, out, _ = run(capsys, "solve", "--problem", problem, "--td", td_file, inst)
        assert code == 0
        assert out.splitlines() == [plain.splitlines()[0], "solver treewidth-dp"]
    code, _, err = run(capsys, "solve", "--td", td_file, "--algo", "vc", inst)
    assert code == 3 and "no applicable solver" in err


def test_solve_over_a_decomposition_whose_empty_root_bag_has_two_children(tmp_path, capsys):
    # node 0 holds no vertex and joins the bags of the two edges; the nice
    # form keeps it as a join root
    inst, td_file = tmp_path / "g.cg", tmp_path / "g.td"
    inst.write_text("cgraph 4 2\nv 0 1\nv 1 2\nv 2 1\nv 3 2\ne 0 1\ne 2 3\n")
    td_file.write_text("td 3 1\nbag 0\nbag 1 0 1\nbag 2 2 3\nte 0 1\nte 0 2\n")
    code, out, _ = run(capsys, "td", "validate", inst, td_file)
    assert code == 0 and out.strip() == "ok width 1"
    for problem, answer in (("partition", "partition 2"), ("components", "deletions 0")):
        sol = tmp_path / f"{problem}.sol"
        code, out, _ = run(capsys, "solve", "--problem", problem, "--td", td_file, "-o", sol, inst)
        assert code == 0 and out.splitlines() == [answer, "solver treewidth-dp"]
        code, _, _ = run(capsys, "check", inst, sol)
        assert code == 0


def test_solve_answers_a_long_tree_in_seconds(tmp_path):
    # a tree component takes the DP over the tree itself; through a nice
    # decomposition this 3-coloured path took about half a minute
    n = 50_000
    g = ColouredGraph.build(
        n, [v % 3 + 1 for v in range(n)], [(v, v + 1) for v in range(n - 1)]
    )
    inst = tmp_path / "path.cg"
    inst.write_text(serialize_instance(g))
    for problem, answer in [("partition", "partition 16667"), ("components", "deletions 16666")]:
        proc = run_console("solve", "--problem", problem, inst, timeout=20)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [answer, "solver treewidth-dp"]


def test_solve_answers_a_many_coloured_tree_without_a_colour_flag(tmp_path, capsys):
    # the colour gate of the dp route bounds the decomposition DP only; this
    # 20-coloured random recursive tree takes the DP over the tree itself
    rng, n = random.Random(1), 700
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    g = ColouredGraph.build(n, [rng.randint(1, 20) for _ in range(n)], edges)
    inst, sol = tmp_path / "tree.cg", tmp_path / "tree.sol"
    inst.write_text(serialize_instance(g))
    for problem, answer in [("partition", "partition 160"), ("components", "deletions 159")]:
        code, out, _ = run(capsys, "solve", "--problem", problem, inst, "-o", sol)
        assert code == 0
        assert out.splitlines() == [answer, "solver treewidth-dp"]
        code, out, _ = run(capsys, "check", inst, sol)
        assert code == 0 and out.strip() == f"ok {answer}"


def test_tree_dp_budget_lets_auto_move_past_a_many_coloured_star(tmp_path):
    # the centre's table of this star would hold all 2^30 subsets of the
    # leaf colours; the tree DP stops at its budget and `auto` moves on
    k = 30
    g = ColouredGraph.build(k + 1, list(range(1, k + 2)), [(0, v) for v in range(1, k + 1)])
    inst = tmp_path / "star.cg"
    inst.write_text(serialize_instance(g))
    proc = run_console("solve", inst, timeout=20)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["partition 1", "solver vertex-cover-kernel"]
    for argv in [("--algo", "dp"), ("--problem", "components")]:
        proc = run_console("solve", *argv, inst, timeout=20)
        assert proc.returncode == 3
        assert "mask pairs per vertex" in proc.stderr
