import hashlib
import itertools
import random
from collections import Counter

import pytest

from colourful.decomposition import serialize_td
from colourful.gadgets import (
    gen_example1,
    is_bipartite,
    is_split,
    is_tree,
    k4_with_edge_colouring,
    max_degree,
    reduce_3sat_split,
    reduce_multicut_tree,
    reduce_nae3sat_pathwidth,
    reduce_vc,
    vc_witness_deletions,
    vc_witness_partition,
)
from colourful.graph import (
    ColouredGraph,
    colour_multiplicity,
    is_colourful_partition,
    is_valid_deletion_set,
    serialize_instance,
)
from colourful.oracle import (
    brute_min_deletions,
    brute_min_partition,
    brute_multicut,
    brute_nae_sat,
    brute_sat,
    brute_vertex_cover,
    find_two_partition,
)

from helpers import random_tree_edges


def plain(n, edges):
    return ColouredGraph.build(n, tuple([1] * n), edges)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the two-hub family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_example1_partition_two_deletions_2k(k):
    g = gen_example1(k)
    assert g.n == 2 * k + 2 and g.m == 4 * k + 1
    assert brute_min_partition(g).optimum == 2
    assert brute_min_deletions(g).optimum == 2 * k


def test_example1_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        gen_example1(0)


def test_example1_golden_serialization():
    assert serialize_instance(gen_example1(1)) == (
        "cgraph 4 5\n"
        "v 0 1\nv 1 1\nv 2 2\nv 3 3\n"
        "e 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
    )


# ---------------------------------------------------------------------------
# vertex cover family
# ---------------------------------------------------------------------------


def test_vc_output_structure():
    n, edges, ec = k4_with_edge_colouring()
    g = reduce_vc(n, edges, ec)
    assert g.n == 9 * n + len(edges)
    assert g.colour_set() == {1, 2, 3}
    assert max_degree(g) == 3
    # each edge vertex sees two vertices of other colours
    for t in range(len(edges)):
        red = 9 * n + t
        assert g.degree(red) == 2
        assert all(g.colours[w] != g.colours[red] for w in g.adj[red])
    # each gadget's three arms end in pairwise distinct colours
    for j in range(n):
        outer_colours = {g.colours[9 * j + 3 * i + 2] for i in range(3)}
        assert outer_colours == {1, 2, 3}


def test_vc_witnesses_on_k4():
    n, edges, ec = k4_with_edge_colouring()
    g = reduce_vc(n, edges, ec)
    cover = brute_vertex_cover(plain(n, edges))
    assert len(cover) == 3
    part = vc_witness_partition(n, edges, ec, cover)
    assert len(part) == 3 * n + len(cover) == 15
    assert is_colourful_partition(g, part)
    dels = vc_witness_deletions(n, edges, ec)
    assert len(dels) == len(edges) + 3 * n == 18
    assert is_valid_deletion_set(g, dels)


def test_vc_witness_accepts_any_cover():
    n, edges, ec = k4_with_edge_colouring()
    g = reduce_vc(n, edges, ec)
    part = vc_witness_partition(n, edges, ec, range(4))
    assert len(part) == 3 * n + 4
    assert is_colourful_partition(g, part)
    with pytest.raises(ValueError):
        vc_witness_partition(n, edges, ec, [0])  # not a cover


def test_vc_input_validation():
    n, edges, ec = k4_with_edge_colouring()
    with pytest.raises(ValueError):
        reduce_vc(n, edges[:-1], ec)  # not cubic
    bad = dict(ec)
    bad[(0, 1)] = bad[(0, 2)]  # two same-coloured edges at vertex 0
    with pytest.raises(ValueError):
        reduce_vc(n, edges, bad)
    with pytest.raises(ValueError):
        reduce_vc(n, edges, {e: 4 for e in edges})


def test_vc_generation_is_deterministic():
    n, edges, ec = k4_with_edge_colouring()
    a = serialize_instance(reduce_vc(n, edges, ec))
    b = serialize_instance(reduce_vc(n, edges, ec))
    assert a == b


# ---------------------------------------------------------------------------
# multicut family
# ---------------------------------------------------------------------------


def random_multicut_instance(rng, n_max=6, pairs_max=3):
    n = rng.randint(2, n_max)
    edges = random_tree_edges(rng, n, max_degree=3)
    allp = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = rng.sample(allp, min(len(allp), rng.randint(1, pairs_max)))
    return n, edges, pairs


def test_multicut_reduction_matches_oracle():
    rng = random.Random(0)
    for _ in range(30):
        n, edges, pairs = random_multicut_instance(rng)
        r = len(brute_multicut(plain(n, edges), pairs, len(edges)))
        g = reduce_multicut_tree(n, edges, pairs)
        assert is_tree(g) and max_degree(g) <= 6
        assert colour_multiplicity(g) <= 2
        assert brute_min_partition(g, cap=14).optimum == r + 1


def test_multicut_hardened_doubles_budget():
    rng = random.Random(1)
    for _ in range(12):
        n, edges, pairs = random_multicut_instance(rng, n_max=4, pairs_max=2)
        r = len(brute_multicut(plain(n, edges), pairs, len(edges)))
        g = reduce_multicut_tree(n, edges, pairs, hardened=True)
        assert is_tree(g)
        assert set(Counter(g.colours).values()) == {2}
        if g.n <= 14:
            assert brute_min_partition(g, cap=14).optimum == 2 * (r + 1)


def test_multicut_adjacent_pair():
    g = reduce_multicut_tree(2, [(0, 1)], [(0, 1)])
    assert brute_min_partition(g).optimum == 2


def test_multicut_input_validation():
    with pytest.raises(ValueError):
        reduce_multicut_tree(3, [(0, 1)], [(0, 2)])  # not spanning
    with pytest.raises(ValueError):
        reduce_multicut_tree(3, [(0, 1), (0, 2), (1, 2)], [(0, 2)])
    with pytest.raises(ValueError):
        reduce_multicut_tree(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], [(1, 2)]
        )  # degree four
    with pytest.raises(ValueError):
        reduce_multicut_tree(3, [(0, 1), (1, 2)], [(0, 2), (2, 0)])
    with pytest.raises(ValueError):
        reduce_multicut_tree(3, [(0, 1), (1, 2)], [(1, 1)])


@pytest.mark.parametrize(
    "hardened, n, digest", [(False, 21, "681dcf20ea1e6ebd"), (True, 44, "7d1d6474e4ba30f2")]
)
def test_multicut_reduction_numbering_is_pinned(hardened, n, digest):
    tree = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (4, 7), (5, 8)]
    pairs = [(3, 6), (7, 8), (0, 4), (3, 7), (6, 5), (1, 2)]
    g = reduce_multicut_tree(9, tree, pairs, hardened=hardened)
    assert g.n == n and _digest(serialize_instance(g)) == digest


# ---------------------------------------------------------------------------
# satisfiability families
# ---------------------------------------------------------------------------


def random_3cnf(rng, n, m):
    out = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        out.append(tuple(v * rng.choice((1, -1)) for v in vs))
    return out


def test_split_reduction_tracks_satisfiability():
    rng = random.Random(2)
    for _ in range(25):
        clauses = random_3cnf(rng, rng.randint(3, 4), rng.randint(1, 6))
        g = reduce_3sat_split(clauses)
        assert is_split(g)
        sat = brute_sat(clauses) is not None
        part = find_two_partition(g)
        assert (part is not None) == sat
        if part is not None:
            assert is_colourful_partition(g, part)


def test_split_reduction_unsatisfiable_formula():
    clauses = [
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    assert brute_sat(clauses) is None
    g = reduce_3sat_split(clauses)
    assert find_two_partition(g) is None


def test_split_reduction_input_validation():
    with pytest.raises(ValueError):
        reduce_3sat_split([])
    with pytest.raises(ValueError):
        reduce_3sat_split([(1, 2)])
    with pytest.raises(ValueError):
        reduce_3sat_split([(1, -1, 2)])  # repeated variable


def test_nae_reduction_tracks_nae_satisfiability():
    rng = random.Random(3)
    for _ in range(12):
        n = rng.randint(3, 5)
        clauses = [
            tuple(sorted(rng.sample(range(1, n + 1), 3)))
            for _ in range(rng.randint(1, 3))
        ]
        g, td = reduce_nae3sat_pathwidth(clauses)
        assert is_bipartite(g)
        assert max_degree(g) <= 3
        assert td.width == 3 and td.is_path()
        nae = brute_nae_sat(list(clauses)) is not None
        part = find_two_partition(g)
        assert (part is not None) == nae
        if part is not None:
            assert is_colourful_partition(g, part)


def test_nae_reduction_handles_unused_variable():
    # variable 1 appears in no clause: its gadget has no pendant path
    g, td = reduce_nae3sat_pathwidth([(2, 3, 4)])
    td.validate(g)
    assert find_two_partition(g) is not None


FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


@pytest.mark.parametrize(
    "clauses, n, bags, digest",
    [
        ([(1, 2, 3)], 46, 23, "704b8085e3b15f4e"),
        ([(2, 3, 4)], 54, 27, "2f3073801469f6d7"),  # variable 1 unused
        (FANO, 210, 125, "e9d37ade83032441"),
    ],
)
def test_nae_reduction_numbering_is_pinned(clauses, n, bags, digest):
    # the benchmark's NAE rows depend on the exact vertex and bag numbering
    g, td = reduce_nae3sat_pathwidth(clauses)
    assert (g.n, len(td.bags)) == (n, bags)
    assert _digest(serialize_instance(g) + serialize_td(td)) == digest


def test_nae_reduction_input_validation():
    with pytest.raises(ValueError):
        reduce_nae3sat_pathwidth([(1, 2)])
    with pytest.raises(ValueError):
        reduce_nae3sat_pathwidth([(1, 1, 2)])
    with pytest.raises(ValueError):
        reduce_nae3sat_pathwidth([(-1, 2, 3)])
    with pytest.raises(ValueError):
        reduce_nae3sat_pathwidth([])


# ---------------------------------------------------------------------------
# structural validators
# ---------------------------------------------------------------------------


def test_is_split_known_graphs():
    p4 = plain(4, [(0, 1), (1, 2), (2, 3)])
    assert is_split(p4)
    c4 = plain(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_split(c4)
    two_k2 = plain(4, [(0, 1), (2, 3)])
    assert not is_split(two_k2)
    triangle = plain(3, [(0, 1), (1, 2), (0, 2)])
    assert is_split(triangle)


def test_is_bipartite_known_graphs():
    assert is_bipartite(plain(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert not is_bipartite(plain(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_bipartite(plain(3, []))


def test_is_tree_and_max_degree():
    star = plain(4, [(0, 1), (0, 2), (0, 3)])
    assert is_tree(star) and max_degree(star) == 3
    assert not is_tree(plain(4, [(0, 1), (2, 3)]))
    assert not is_tree(plain(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_tree(ColouredGraph.build(0, (), []))
    assert max_degree(ColouredGraph.build(0, (), ())) == 0
