import random

import pytest

from colourful.graph import (
    ColouredGraph,
    UnsupportedInstanceError,
    colour_multiplicity,
    connected_components,
    is_colourful_partition,
    is_valid_deletion_set,
)
from colourful.oracle import (
    _adjacency_masks,
    _mask_reach,
    brute_max_matching,
    brute_min_deletions,
    brute_min_deletions_partitions,
    brute_min_partition,
    brute_multicut,
    brute_nae_sat,
    brute_sat,
    brute_vertex_cover,
    find_two_partition,
    tree_min_deletions,
    tree_multicut,
)

from helpers import random_coloured_graph, random_tree_edges


def path(colours):
    n = len(colours)
    return ColouredGraph.build(n, tuple(colours), [(i, i + 1) for i in range(n - 1)])


def test_min_partition_trivial_cases():
    empty = ColouredGraph.build(0, (), [])
    assert brute_min_partition(empty).optimum == 0
    single = ColouredGraph.build(1, (1,), [])
    res = brute_min_partition(single)
    assert res.optimum == 1 and res.witness == (frozenset({0}),)


def test_min_partition_respects_bounds():
    rng = random.Random(0)
    for _ in range(120):
        g = random_coloured_graph(rng, n_max=7)
        res = brute_min_partition(g)
        assert is_colourful_partition(g, res.witness)
        assert len(res.witness) == res.optimum
        assert res.optimum >= max(colour_multiplicity(g), len(connected_components(g)))
        assert res.optimum <= g.n


def test_min_deletions_witness_is_valid():
    rng = random.Random(1)
    for _ in range(80):
        g = random_coloured_graph(rng, n_max=6)
        res = brute_min_deletions(g)
        assert len(res.witness) == res.optimum
        assert is_valid_deletion_set(g, res.witness)


def test_deletion_oracles_agree():
    """Edge-subset enumeration and group-assignment enumeration are
    independent routes to the same number."""
    rng = random.Random(2)
    for _ in range(150):
        g = random_coloured_graph(rng, n_max=7)
        a = brute_min_deletions(g)
        b = brute_min_deletions_partitions(g)
        assert a.optimum == b.optimum
        assert is_valid_deletion_set(g, b.witness) or b.optimum == 0


def test_partition_oracle_cap():
    g = path([1] * 13)
    with pytest.raises(UnsupportedInstanceError):
        brute_min_partition(g)
    with pytest.raises(UnsupportedInstanceError):
        brute_min_deletions_partitions(g)


def test_find_two_partition_matches_brute():
    rng = random.Random(3)
    agree = 0
    for _ in range(200):
        g = random_coloured_graph(rng, n_max=8, colours_max=6)
        opt = brute_min_partition(g).optimum
        part = find_two_partition(g)
        if part is None:
            assert opt > 2
        else:
            assert len(part) == opt
            assert is_colourful_partition(g, part)
            agree += 1
    assert agree > 50  # the regime must actually exercise the yes side


def test_find_two_partition_searches_deeper_than_the_recursion_limit():
    # A 3 x 700 grid: vertex 3c + r sits in column c, row r, and shares its
    # colour with the vertex 350 columns on, so the left and right halves
    # are the two blocks.  The search branches on about 1000 vertices.
    cols = 700
    n = 3 * cols
    edges = [(v, v + 1) for v in range(n) if v % 3 != 2]
    edges += [(v, v + 3) for v in range(n - 3)]
    g = ColouredGraph.build(n, tuple(v % (n // 2) + 1 for v in range(n)), edges)
    part = find_two_partition(g)
    assert part is not None and len(part) == 2
    assert is_colourful_partition(g, part)


def test_mask_reach_matches_set_bfs():
    rng = random.Random(9)
    for _ in range(300):
        g = random_coloured_graph(rng, n_max=30, extra_edges=30)
        allowed = {v for v in range(g.n) if rng.random() < 0.7}
        if not allowed:
            continue
        starts = set(rng.sample(sorted(allowed), rng.randint(1, min(3, len(allowed)))))
        seen = set(starts)
        stack = list(starts)
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        got = _mask_reach(
            _adjacency_masks(g),
            sum(1 << v for v in starts),
            sum(1 << v for v in allowed),
        )
        assert got == sum(1 << v for v in seen)


def test_two_colour_path_needs_two_blocks():
    g = path([1, 2, 1, 2])
    part = find_two_partition(g)
    assert part is not None and len(part) == 2


def test_vertex_cover_minimality():
    rng = random.Random(4)
    for _ in range(60):
        g = random_coloured_graph(rng, n_max=7)
        cover = brute_vertex_cover(g)
        assert all(u in cover or v in cover for u, v in g.edges())
        # no single vertex is redundant in a minimum cover
        for v in cover:
            smaller = cover - {v}
            assert not all(a in smaller or b in smaller for a, b in g.edges())


def test_brute_sat_basics():
    assert brute_sat([(1, 2), (-1, 2)]) is not None
    assert brute_sat([(1,), (-1,)]) is None
    with pytest.raises(ValueError):
        brute_sat([(0,)])


def test_brute_nae_sat_basics():
    assert brute_nae_sat([(1, 2, 3)]) is not None
    # one variable everywhere forces all-equal within the clause
    assert brute_nae_sat([(1, 1, 1)]) is None
    with pytest.raises(ValueError):
        brute_nae_sat([(-1, 2, 3)])


def test_brute_max_matching_small():
    assert brute_max_matching([[0], [0]]) == 1
    assert brute_max_matching([[0, 1], [0], [1]]) == 2
    assert brute_max_matching([[] for _ in range(3)]) == 0


def test_tree_multicut_agrees_with_subset_enumeration():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 7)
        edges = random_tree_edges(rng, n)
        g = ColouredGraph.build(n, tuple([1] * n), edges)
        allp = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pairs = rng.sample(allp, min(len(allp), rng.randint(1, 4)))
        best = brute_multicut(g, pairs, n)
        assert best is not None
        for budget in range(n):
            got = tree_multicut(g, pairs, budget)
            if budget < len(best):
                assert got is None
            else:
                assert got is not None and len(got) <= budget
                comps = connected_components(g, got)
                comp_of = {v: i for i, c in enumerate(comps) for v in c}
                assert all(comp_of[u] != comp_of[v] for u, v in pairs)


def test_tree_min_deletions_matches_brute():
    rng = random.Random(6)
    for _ in range(80):
        n = rng.randint(1, 8)
        edges = random_tree_edges(rng, n)
        cols = tuple(rng.randint(1, rng.randint(1, 4)) for _ in range(n))
        g = ColouredGraph.build(n, cols, edges)
        assert tree_min_deletions(g) == brute_min_deletions(g).optimum
