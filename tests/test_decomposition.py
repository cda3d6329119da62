import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from colourful.decomposition import (
    RootedDecomposition2CP,
    TreeDecomposition,
    _greedy_min_degree_order,
    exact_tree_decomposition,
    normalize_for_2cp,
    parse_td,
    serialize_td,
    to_nice,
)
from colourful.graph import ColouredGraph, ParseError, UnsupportedInstanceError

from helpers import (
    k4_and_cycle,
    random_coloured_graph,
    random_partial_2tree,
    random_tree_edges,
)


def cycle(n):
    return ColouredGraph.build(
        n, tuple(1 for _ in range(n)), [(i, (i + 1) % n) for i in range(n)]
    )


def complete(n):
    return ColouredGraph.build(
        n, tuple(1 for _ in range(n)),
        [(u, v) for u in range(n) for v in range(u + 1, n)],
    )


# ---------------------------------------------------------------------------
# width computation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g,width",
    [
        (ColouredGraph.build(1, (1,), []), 0),
        (ColouredGraph.build(2, (1, 1), [(0, 1)]), 1),
        (cycle(4), 2),
        (cycle(7), 2),
        (complete(4), 3),
        (complete(6), 5),
    ],
)
def test_exact_width_on_known_graphs(g, width):
    assert exact_tree_decomposition(g, width) is not None
    if width > 0:
        assert exact_tree_decomposition(g, width - 1) is None


def test_trees_have_width_one():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = ColouredGraph.build(n, tuple([1] * n), random_tree_edges(rng, n))
        td = exact_tree_decomposition(g, 1)
        assert td is not None and td.width == 1
        td.validate(g)


def test_decomposition_validates_on_random_graphs():
    rng = random.Random(1)
    for _ in range(60):
        g = random_coloured_graph(rng, n_max=8)
        for w in range(g.n):
            td = exact_tree_decomposition(g, w)
            if td is not None:
                td.validate(g)
                assert td.width <= w
                break
        else:
            assert g.n == 0


def test_greedy_order_matches_min_scan():
    def min_scan(adj, last=()):
        adj = [set(s) for s in adj]
        alive = set(range(len(adj))) - set(last)
        order, width = [], 0
        while alive or last:
            if alive:
                v = min(alive, key=lambda u: (len(adj[u]), u))
            else:
                v, last = last[0], last[1:]
            width = max(width, len(adj[v]))
            for x in adj[v]:
                adj[x] |= adj[v] - {x}
                adj[x].discard(v)
            alive.discard(v)
            adj[v] = set()
            order.append(v)
        return order, width

    rng = random.Random(6)
    for _ in range(150):
        g = random_coloured_graph(rng, n_max=40, extra_edges=40)
        adj = [set(s) for s in g.adj]
        assert _greedy_min_degree_order(adj) == min_scan(adj)
        if g.m:
            a, b = rng.choice(list(g.edges()))
            assert _greedy_min_degree_order(adj, last=(b, a)) == min_scan(adj, (b, a))


def test_uncertified_large_instances_raise():
    n = 40
    g = complete(8)
    big = ColouredGraph.build(
        n, tuple([1] * n), [(u, v) for u, v in g.edges()]
    )
    with pytest.raises(UnsupportedInstanceError):
        exact_tree_decomposition(big, 3)


def test_greedy_decides_width_two_at_any_size():
    """Min-degree elimination is exact up to width 2, so no branch and
    bound runs: on this graph one grows about 4.5 times per two vertices."""
    for n in (30, 300):
        start = time.perf_counter()
        assert exact_tree_decomposition(k4_and_cycle(n), 2) is None
        assert time.perf_counter() - start < 2


def test_validate_rejects_broken_decompositions():
    g = ColouredGraph.build(3, (1, 1, 1), [(0, 1), (1, 2)])
    # vertex 2 uncovered
    bad = TreeDecomposition((frozenset({0, 1}),), ())
    with pytest.raises(ValueError):
        bad.validate(g)
    # edge (1,2) uncovered
    bad = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
    with pytest.raises(ValueError):
        bad.validate(g)
    # trace of vertex 0 disconnected
    bad = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        ((0, 1), (1, 2)),
    )
    with pytest.raises(ValueError):
        bad.validate(g)
    # not a tree
    bad = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2})), ((0, 1), (0, 1))
    )
    with pytest.raises(ValueError):
        bad.validate(g)
    # k - 1 edges, one repeated, leaving bag 1 unattached: every vertex's
    # bags span one edge fewer than their number, so only the tree check
    # catches it
    bad = TreeDecomposition(
        (frozenset({0, 1, 2}), frozenset(), frozenset()), ((0, 2), (2, 0))
    )
    with pytest.raises(ValueError, match="tree of bags is not connected"):
        bad.validate(g)
    # bag vertex out of range
    bad = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2, 3})), ((0, 1),)
    )
    with pytest.raises(ValueError, match="out of range"):
        bad.validate(g)


def test_td_text_round_trip():
    g = cycle(5)
    td = exact_tree_decomposition(g, 2)
    again = parse_td(serialize_td(td))
    assert again.bags == td.bags
    assert sorted(again.edges) == sorted(td.edges)
    again.validate(g)


def test_parse_td_errors():
    with pytest.raises(ParseError):
        parse_td("")
    with pytest.raises(ParseError):
        parse_td("td x 1\n")
    with pytest.raises(ParseError):
        parse_td("td 2 0\nbag 0\nbag 0\nte 0 1\n")  # duplicate node id


# ---------------------------------------------------------------------------
# nice form
# ---------------------------------------------------------------------------


def test_to_nice_validates_on_random_graphs():
    rng = random.Random(2)
    for _ in range(60):
        g = random_coloured_graph(rng, n_max=8)
        for w in range(max(g.n, 1)):
            td = exact_tree_decomposition(g, w)
            if td is not None:
                break
        nice = to_nice(td, g)
        nice.validate(g)
        assert nice.bags[nice.root] == frozenset()


def test_to_nice_handles_empty_graph():
    g = ColouredGraph.build(0, (), [])
    td = exact_tree_decomposition(g, 0)
    nice = to_nice(td, g)
    nice.validate(g)


# ---------------------------------------------------------------------------
# the rooted width-2 normal form
# ---------------------------------------------------------------------------


def tw2_graphs(rng, count):
    made = 0
    while made < count:
        g = random_coloured_graph(rng, n_max=8, connected=True)
        if g.m == 0:
            continue
        if exact_tree_decomposition(g, 2) is None:
            continue
        made += 1
        yield g


def test_normal_form_invariants_hold_per_root_edge():
    rng = random.Random(3)
    graphs = list(tw2_graphs(rng, 40))
    for _ in range(6):
        n = rng.randint(40, 150)
        graphs.append(ColouredGraph.build(n, (1,) * n, random_partial_2tree(rng, n)))
    for g in graphs:
        for a, b in g.edges():
            for x, y in ((a, b), (b, a)):
                dec = normalize_for_2cp(g, x, y)  # ends with dec.validate(g, x, y)
                assert dec.bags[dec.root] == frozenset({x, y})
                assert len(dec.bags) <= 2 * g.n


def test_normal_form_rejects_width_three():
    g = k4_and_cycle(8)
    with pytest.raises(ValueError, match="treewidth at most 2"):
        normalize_for_2cp(g, 3, 4)


def rooted(*nodes):
    """A rooted form from (bag, parent) pairs, numbered in the given order."""
    return RootedDecomposition2CP(
        tuple(frozenset(bag) for bag, _ in nodes), tuple(p for _, p in nodes)
    )


def test_rooted_form_validate_rejects_each_broken_rule():
    # a triangle 0, 1, 2 with a pendant vertex 3 on 2
    g = ColouredGraph.build(4, (1, 2, 3, 4), [(0, 1), (0, 2), (1, 2), (2, 3)])
    good = [({0, 1}, -1), ({0, 1, 2}, 0), ({2}, 1), ({2, 3}, 2)]
    rooted(*good).validate(g, 0, 1)
    broken = {
        "root bag": (rooted(*good), (0, 2)),
        "pairwise distinct": (rooted(*good, ({2}, 3)), (0, 1)),
        "strictly nest": (rooted(*good[:2], ({2, 3}, 1)), (0, 1)),
        "numbered after its parent": (
            rooted(({0, 1}, -1), ({2}, 2), ({0, 1, 2}, 0), ({2, 3}, 1)), (0, 1)
        ),
        # 3 shares neither an edge nor a 2-bag with 1
        "not attached": (
            rooted(*good[:2], ({1, 2}, 1), ({1, 2, 3}, 2)), (0, 1)
        ),
    }
    for rule, (dec, (a, b)) in broken.items():
        with pytest.raises(ValueError, match=rule):
            dec.validate(g, a, b)
    # on the path 0-1-2 the bag {0, 2} nests in {0, 1, 2}, but 0 and 2 are
    # not adjacent
    path = ColouredGraph.build(3, (1, 2, 3), [(0, 1), (1, 2)])
    dec = rooted(({0, 1}, -1), ({0, 1, 2}, 0), ({0, 2}, 1))
    dec.as_tree().validate(path)
    with pytest.raises(ValueError, match="disconnected"):
        dec.validate(path, 0, 1)


def test_normal_form_requires_adjacent_roots():
    g = ColouredGraph.build(3, (1, 2, 3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        normalize_for_2cp(g, 0, 2)
    g = ColouredGraph.build(3, (1, 2, 3), [(0, 1)])
    with pytest.raises(ValueError, match="connected graph"):
        normalize_for_2cp(g, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9))
def test_normal_form_on_cycles(n):
    """A cycle's normal form chains each 3-bag through a 2-bag separator
    node."""
    g = cycle(n)
    dec = normalize_for_2cp(g, 0, 1)
    dec.validate(g, 0, 1)
