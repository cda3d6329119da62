import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from colourful.decomposition import (
    NiceTreeDecomposition,
    RootedDecomposition2CP,
    TreeDecomposition,
    _greedy_min_degree_order,
    exact_tree_decomposition,
    normalize_for_2cp,
    parse_td,
    serialize_td,
    to_nice,
)
from colourful import decomposition as decomposition_module
from colourful.fpt import dp_partition
from colourful import graph as graph_module
from colourful.graph import (
    ColouredGraph,
    ParseError,
    UnsupportedInstanceError,
    induces_connected,
    search,
)

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
        order, width, seps = [], 0, []
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
            seps.append(adj[v])
            adj[v] = set()
            order.append(v)
        return order, width, seps

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


def test_exact_branch_finds_the_width_greedy_misses_by_one():
    edges = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 4), (4, 5)]
    g = ColouredGraph.build(6, (1,) * 6, edges)
    assert _greedy_min_degree_order(g.adj)[1] == 4
    td = exact_tree_decomposition(g, 3)
    td.validate(g)
    assert td.width == 3
    assert exact_tree_decomposition(g, 2) is None


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
    # no bags at all
    with pytest.raises(ValueError, match="at least one bag"):
        TreeDecomposition((), ()).validate(g)
    # a tree edge to a bag that does not exist
    bad = TreeDecomposition((frozenset({0, 1, 2}),), ((0, 1),))
    with pytest.raises(ValueError, match="bad tree edge"):
        bad.validate(g)


def spanning_rule_holds(g, td):
    """The rule `TreeDecomposition.validate` used before it rooted the tree:
    every vertex and edge in some bag, and each vertex's bags spanning one
    tree edge fewer than their number."""
    where = [[i for i, bag in enumerate(td.bags) if v in bag] for v in range(g.n)]
    if not all(where) or not all(
        any(v in td.bags[i] for i in where[u]) for u, v in g.edges()
    ):
        return False
    spanned = [0] * g.n
    for i, j in td.edges:
        for v in td.bags[i] & td.bags[j]:
            spanned[v] += 1
    return all(spanned[v] == len(where[v]) - 1 for v in range(g.n))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rooted_bag_check_matches_the_spanning_rule(seed):
    rng = random.Random(seed)
    g = random_coloured_graph(rng, n_max=8)
    td = exact_tree_decomposition(g, g.n)
    bags = list(td.bags)
    for _ in range(rng.randint(0, 2)):  # add or drop a vertex in a bag
        i, v = rng.randrange(len(bags)), rng.randrange(g.n)
        bags[i] = bags[i] ^ {v}
    td = TreeDecomposition(tuple(bags), td.edges)
    try:
        td.validate(g)
    except ValueError:
        assert not spanning_rule_holds(g, td)
    else:
        assert spanning_rule_holds(g, td)


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


def test_to_nice_roots_an_empty_bag_with_two_children_at_a_join():
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (2, 3)])
    td = TreeDecomposition(
        (frozenset(), frozenset({0, 1}), frozenset({2, 3})), ((0, 1), (0, 2))
    )
    nice = to_nice(td, g)
    nice.validate(g)
    assert nice.kind[nice.root] == "join" and nice.bags[nice.root] == frozenset()


def test_to_nice_of_the_empty_graph_is_one_leaf():
    g = ColouredGraph.build(0, (), [])
    nice = to_nice(TreeDecomposition((frozenset(),), ()), g)
    assert (nice.kind, nice.root) == (("leaf",), 0)


def test_to_nice_handles_empty_graph():
    g = ColouredGraph.build(0, (), [])
    td = exact_tree_decomposition(g, 0)
    nice = to_nice(td, g)
    nice.validate(g)


# A nice decomposition of the path 0-1, rooted at node 7: two leaves each
# introduce 0, a join, then introduce 1, forget 0 and forget 1.
NICE_P2 = {
    "bags": [set(), {0}, set(), {0}, {0}, {0, 1}, {1}, set()],
    "kind": ["leaf", "introduce", "leaf", "introduce", "join", "introduce", "forget", "forget"],
    "children": [(), (0,), (), (2,), (1, 3), (4,), (5,), (6,)],
    "delta": [None, 0, None, 0, None, 1, 0, 1],
}


def nice_p2(root=7, **changes):
    """NICE_P2 with some rows changed: each keyword maps a field to
    {node: value}."""
    rows = {field: list(values) for field, values in NICE_P2.items()}
    for field, changed in changes.items():
        for node, value in changed.items():
            rows[field][node] = value
    return NiceTreeDecomposition(
        tuple(map(frozenset, rows["bags"])),
        tuple(rows["kind"]),
        tuple(rows["children"]),
        tuple(rows["delta"]),
        root,
    )


NICE_BROKEN = {
    "leaf-with-a-child": (nice_p2(children={2: (0,)}), "leaf node 2 has children (0,)"),
    "leaf-with-a-bag": (nice_p2(bags={0: {1}}), "leaf node 0 malformed"),
    "introduce-of-another-vertex": (nice_p2(delta={1: 1}), "introduce node 1 malformed"),
    "forget-of-another-vertex": (nice_p2(delta={6: 1}), "forget node 6 malformed"),
    "join-with-another-bag": (nice_p2(bags={4: {0, 1}}), "join node 4 malformed"),
    "unknown-kind": (nice_p2(kind={2: "twig"}), "node 2 has unknown kind 'twig'"),
    "root-with-a-bag": (nice_p2(root=6), "root 6 must be a node with an empty bag"),
    "child-out-of-range": (nice_p2(children={4: (1, 8)}), "join node 4 has children (1, 8)"),
    "introduce-with-two-children": (
        nice_p2(children={5: (4, 2)}), "introduce node 5 has children (4, 2)"
    ),
    "root-that-is-a-child": (nice_p2(root=0), "every node but the root 0"),
}


@pytest.mark.parametrize("rule", NICE_BROKEN)
def test_nice_validate_rejects_each_broken_rule(rule):
    # each fault is a ValueError that names the node, also when the nice
    # form is handed to the DP
    g = ColouredGraph.build(2, (1, 2), [(0, 1)])
    nice_p2().validate(g)
    assert dp_partition(g, nice=nice_p2()).optimum == 1
    broken, message = NICE_BROKEN[rule]
    with pytest.raises(ValueError, match=re.escape(message)):
        broken.validate(g)
    with pytest.raises(ValueError, match=re.escape(message)):
        dp_partition(g, nice=broken)


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
        "with no parent": (rooted(({0, 1}, 1), *good[1:]), (0, 1)),
        "root bag": (rooted(*good), (0, 2)),
        "pairwise distinct": (rooted(*good, ({2}, 3)), (0, 1)),
        "strictly nest": (rooted(*good[:2], ({2, 3}, 1)), (0, 1)),
        "numbered after its parent": (
            rooted(({0, 1}, -1), ({2}, 2), ({0, 1, 2}, 0), ({2, 3}, 1)), (0, 1)
        ),
        "at most 3 vertices": (rooted(*good[:1], ({0, 1, 2, 3}, 0)), (0, 1)),
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
    # on the edges 0-1 and 2-3: a 3-bag that only one pair links, and a child
    # that shares no vertex with its parent's one-vertex bag
    two_edges = ColouredGraph.build(4, (1, 2, 3, 4), [(0, 1), (2, 3)])
    for dec in (
        rooted(({0, 1}, -1), ({0, 1, 2}, 0), ({2, 3}, 1)),
        rooted(({0, 1}, -1), ({1}, 0), ({2, 3}, 1)),
    ):
        dec.as_tree().validate(two_edges)
        with pytest.raises(ValueError, match="disconnected"):
            dec.validate(two_edges, 0, 1)


def outerplanar(rng, n):
    """The cycle 0, 1, ..., n-1 plus a random part of a random triangulation
    of it: a connected outerplanar graph, so of treewidth at most 2."""
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    spans = [(0, n - 1)]
    while spans:
        lo, hi = spans.pop()
        if hi - lo < 2:
            continue
        mid = rng.randrange(lo + 1, hi)
        for u, v in ((lo, mid), (mid, hi)):
            if rng.random() < 0.5:
                edges.add((u, v))
            spans.append((u, v))
    return ColouredGraph.build(n, (1,) * n, sorted(edges))


def disconnected_by_old_rule(g, dec):
    """The per-node rule `validate` used before: one graph search over each
    subtree's vertex set."""
    subtree = [set(bag) for bag in dec.bags]
    for i in reversed(range(1, len(dec.bags))):
        subtree[dec.parent[i]] |= subtree[i]
    return any(vs and not induces_connected(g, frozenset(vs)) for vs in subtree)


def agrees_with_old_rule(g, dec, a, b):
    """On a tree decomposition, `validate` reports a disconnected subtree
    exactly when the old rule finds one: it checks connectivity right after
    the tree, the root bag, distinctness and bag sizes.  Returns whether it
    did, or None when the form is no tree decomposition."""
    try:
        dec.as_tree().validate(g)
    except ValueError:
        with pytest.raises(ValueError):
            dec.validate(g, a, b)
        return None
    expected = disconnected_by_old_rule(g, dec)
    try:
        dec.validate(g, a, b)
    except ValueError as exc:
        assert ("disconnected" in str(exc)) == expected, exc
    else:
        assert not expected
    return expected


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_subtree_check_matches_the_per_node_search(n, seed):
    rng = random.Random(seed)
    g = outerplanar(rng, n)
    for a, b in g.edges():
        for x, y in ((a, b), (b, a)):
            dec = normalize_for_2cp(g, x, y)
            assert agrees_with_old_rule(g, dec, x, y) is False
            # re-hang one leaf under another node numbered before it
            leaves = [i for i in range(1, len(dec.bags)) if i not in dec.parent]
            leaf = rng.choice(leaves)
            new_parent = rng.choice(
                [p for p in range(leaf) if p != dec.parent[leaf]] or [0]
            )
            parent = list(dec.parent)
            parent[leaf] = new_parent
            agrees_with_old_rule(
                g, RootedDecomposition2CP(dec.bags, tuple(parent)), x, y
            )


def test_subtree_check_makes_a_constant_number_of_searches(monkeypatch):
    g = cycle(2000)
    dec = normalize_for_2cp(g, 0, 1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(graph_module, "search", counted)
    monkeypatch.setattr(decomposition_module, "search", counted)
    dec.validate(g, 0, 1)
    # the per-node rule made one search per node
    assert len(dec.bags) > 3000
    assert len(calls) <= 2


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
