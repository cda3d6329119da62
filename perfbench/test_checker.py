"""Tests of the benchmark's own checker and of the certificates its
generators plant.  Run with `python -m pytest perfbench` from the root of
the repository."""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import checker  # noqa: E402
import instances  # noqa: E402

# a path 0-1-2-3 coloured 1, 2, 1, 3
PATH_N, PATH_COLOURS, PATH_EDGES = 4, [1, 2, 1, 3], [(0, 1), (1, 2), (2, 3)]
PATH_ADJ = checker.adjacency(PATH_N, PATH_EDGES)


def test_partition_accepts_colourful_connected_cover():
    assert checker.partition_error(PATH_N, PATH_COLOURS, PATH_ADJ, [[0, 1], [2, 3]]) is None


@pytest.mark.parametrize("blocks, fault", [
    ([[0, 1, 2], [3]], "repeats a colour"),
    ([[0, 3], [1], [2]], "not connected"),
    ([[0, 1], [2]], "in no block"),
    ([[0, 1], [1, 2], [3]], "overlaps"),
    ([[0, 1], [2, 3, 4]], "outside"),
])
def test_partition_rejects(blocks, fault):
    assert fault in checker.partition_error(PATH_N, PATH_COLOURS, PATH_ADJ, blocks)


def test_deletions_accept_set_leaving_colourful_components():
    assert checker.deletion_error(PATH_N, PATH_COLOURS, PATH_EDGES, [(1, 2)]) is None


@pytest.mark.parametrize("deleted, fault", [
    ([(2, 3)], "repeats a colour"),
    ([], "repeats a colour"),
    ([(0, 2)], "not an edge"),
    ([(1, 2), (2, 1)], "twice"),
])
def test_deletions_reject(deleted, fault):
    assert fault in checker.deletion_error(PATH_N, PATH_COLOURS, PATH_EDGES, deleted)


def test_parse_witness_round_trip_and_header_check():
    assert checker.parse_witness("partition 2\nblock 0 1\nblock 2 3\n") == (
        "partition", [[0, 1], [2, 3]])
    assert checker.parse_witness("deletions 1\ne 1 2\n") == ("deletions", [(1, 2)])
    with pytest.raises(ValueError):
        checker.parse_witness("partition 3\nblock 0 1\nblock 2 3\n")


def test_cut_certificate():
    # two triangles repeating colours 1 and 2, joined through vertex 6
    colours = [1, 1, 3, 2, 2, 4, 5]
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (5, 6)]
    adj = checker.adjacency(7, edges)
    assert checker.cut_certificate_error(7, colours, adj, 6) is None
    assert checker.cut_certificate_error(7, colours, adj, 0) is not None


def test_pair_cut_certificate():
    # a 4-cycle 0-1-2-3 and a pendant edge 4-5: vertices 0 and 2 share a
    # colour (two disjoint paths), and so do 4 and 5 (one path)
    colours = [1, 2, 1, 3, 4, 4]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]
    adj = checker.adjacency(6, edges)
    assert checker.edge_connectivity(adj, 0, 2) == 2
    assert checker.edge_connectivity(adj, 0, 4) == 0
    assert checker.pair_cut_certificate_error(6, colours, adj, [(0, 2), (4, 5)], 3) is None
    assert "not 4" in checker.pair_cut_certificate_error(6, colours, adj, [(0, 2), (4, 5)], 4)
    assert "one colour" in checker.pair_cut_certificate_error(6, colours, adj, [(0, 1)], 1)
    assert "shares a component" in checker.pair_cut_certificate_error(
        6, colours, adj, [(0, 2), (2, 0)], 4)


def test_nae_satisfiable():
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    assert not checker.nae_satisfiable(7, fano)
    # two colours on five variables leave a monochromatic triple
    assert not checker.nae_satisfiable(5, list(itertools.combinations(range(1, 6), 3)))
    assert checker.nae_satisfiable(5, [(1, 2, 3), (3, 4, 5)])


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_generator_certificates_hold(workload, seed):
    rows = instances.WORKLOADS[workload](random.Random(seed))
    assert len(rows) >= 40 and len({r.name for r in rows}) == len(rows)
    by_name = {r.name: r for r in rows}
    for r in rows:
        assert len(set(r.edges)) == len(r.edges)
        assert all(0 <= u < v < r.n for u, v in r.edges)
        if r.witness is not None:
            if r.problem == "partition":
                assert checker.partition_error(r.n, r.colours, r.adj, r.witness) is None
            else:
                assert checker.deletion_error(r.n, r.colours, r.edges, r.witness) is None
            assert len(r.witness) == r.expect, r.name
        if r.family in ("planted", "example1") and r.problem == "partition":
            # a colour occurring `expect` times is the matching lower bound
            assert max(r.colours.count(c) for c in set(r.colours)) == r.expect
        if r.family == "outerplanar-yes":
            assert len(set(r.colours)) < r.n  # not colourful, so one block is too few
        if r.family == "outerplanar-no":
            assert r.expect is None
            assert checker.cut_certificate_error(r.n, r.colours, r.adj, r.cut) is None
        if r.family in ("outerplanar-yes", "outerplanar-no"):
            assert max(r.colours.count(c) for c in set(r.colours)) <= 2
        if r.family == "bridged":
            assert checker.pair_cut_certificate_error(
                r.n, r.colours, r.adj, r.pairs, r.expect) is None
        if r.family == "tree":
            assert len(r.edges) == r.n - 1
            assert len(checker.reach(r.adj, 0, set(range(r.n)))) == r.n
            twin = by_name[r.twin]
            assert twin.twin == r.name and twin.edges == r.edges
        if r.family == "two-coloured":
            assert set(r.colours) == {1, 2}


def test_planted_optimum_matches_exhaustive_oracle():
    """The planted optimum of one small piece against the program's
    brute-force oracle, which is independent of the solvers it checks."""
    from colourful.graph import ColouredGraph
    from colourful.oracle import brute_min_partition

    rng = random.Random(5)
    colours, edges = instances._planted_piece(rng, 3, 2)
    g = ColouredGraph.build(len(colours), colours, edges)
    assert brute_min_partition(g).optimum == 2


def test_example1_components_matches_exhaustive_oracle():
    from colourful.graph import ColouredGraph
    from colourful.oracle import brute_min_deletions_partitions

    comp = instances.example1_rows(3)[1]
    g = ColouredGraph.build(comp.n, comp.colours, comp.edges)
    assert brute_min_deletions_partitions(g).optimum == comp.expect == 6
