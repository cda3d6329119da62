import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from colourful.decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    _td_from_order,
    exact_tree_decomposition,
    to_nice,
)
from colourful import fpt
from colourful.fpt import (
    dp_components,
    dp_partition,
    solve_partition_nonunique,
    solve_partition_vc,
)
from colourful.gadgets import gen_example1
from colourful.graph import (
    ColouredGraph,
    UnsupportedInstanceError,
    is_colourful_partition,
    is_valid_deletion_set,
)
from colourful.oracle import (
    brute_min_deletions,
    brute_min_deletions_partitions,
    brute_min_partition,
    tree_min_deletions,
)

from helpers import (
    random_coloured_graph,
    random_colours_with_repeats,
    random_tree_edges,
)


# ---------------------------------------------------------------------------
# tree-decomposition DPs
# ---------------------------------------------------------------------------


def test_dp_partition_matches_oracle():
    rng = random.Random(0)
    for _ in range(120):
        g = random_coloured_graph(rng, n_max=8, colours_max=4)
        res = dp_partition(g, max_width=7)
        assert res.optimum == brute_min_partition(g).optimum
        assert is_colourful_partition(g, res.witness)


def test_dp_components_matches_oracle():
    rng = random.Random(1)
    for _ in range(120):
        g = random_coloured_graph(rng, n_max=7, colours_max=4)
        res = dp_components(g, max_width=6)
        assert res.optimum == brute_min_deletions(g).optimum
        assert is_valid_deletion_set(g, res.witness)


def test_dp_accepts_supplied_decomposition():
    rng = random.Random(2)
    for _ in range(20):
        g = random_coloured_graph(rng, n_max=7, colours_max=3, connected=True)
        for w in range(max(g.n, 1)):
            td = exact_tree_decomposition(g, w)
            if td is not None:
                break
        nice = to_nice(td, g)
        res = dp_partition(g, nice=nice)
        assert res.optimum == brute_min_partition(g).optimum


def test_dp_refuses_wide_graphs():
    n = 8
    g = ColouredGraph.build(
        n, tuple(range(1, n + 1)),
        [(u, v) for u in range(n) for v in range(u + 1, n)],
    )
    with pytest.raises(UnsupportedInstanceError):
        dp_partition(g, max_width=3)
    with pytest.raises(UnsupportedInstanceError):
        dp_components(g, max_width=3)


def test_dp_on_trees_partition_is_deletions_plus_one():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = random_tree_edges(rng, n)
        cols = tuple(rng.randint(1, 4) for _ in range(n))
        g = ColouredGraph.build(n, cols, edges)
        assert dp_partition(g).optimum == dp_components(g).optimum + 1


def test_dp_empty_and_singleton():
    empty = ColouredGraph.build(0, (), [])
    assert dp_partition(empty).optimum == 0
    assert dp_components(empty).optimum == 0
    single = ColouredGraph.build(1, (1,), [])
    res = dp_partition(single)
    assert res.optimum == 1
    assert dp_components(single).optimum == 0
    # one vertex is a tree: one table of one entry
    assert res.stats == {"nodes": 1, "max_table": 1, "states": 1}
    # on its nice decomposition, leaf, introduce and forget each store one entry
    nice = to_nice(exact_tree_decomposition(single, 0), single)
    assert dp_partition(single, nice=nice).stats == {"nodes": 3, "max_table": 1, "states": 3}


def random_tree(rng, n, colours):
    """A random recursive tree on n vertices, each hung off a uniform earlier
    one, coloured from `colours`."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return ColouredGraph.build(n, tuple(rng.choice(colours) for _ in range(n)), edges)


def test_tree_dp_matches_oracles():
    # huge colour ids must not reach the colour masks
    rng = random.Random(7)
    for _ in range(150):
        ncolours = rng.randint(1, 6)
        g = random_tree(rng, rng.randint(1, 10), [10**9 + c for c in range(ncolours)])
        part, comp = dp_partition(g), dp_components(g)
        assert part.stats["nodes"] == comp.stats["nodes"] == g.n
        assert part.optimum == brute_min_partition(g).optimum
        assert comp.optimum == brute_min_deletions(g).optimum == tree_min_deletions(g)
        assert is_colourful_partition(g, part.witness)
        assert is_valid_deletion_set(g, comp.witness)


def test_tree_with_a_supplied_decomposition_runs_the_nice_dp():
    rng = random.Random(8)
    for _ in range(20):
        g = random_tree(rng, rng.randint(2, 10), [1, 2, 3])
        nice = to_nice(exact_tree_decomposition(g, 1), g)
        part, comp = dp_partition(g, nice=nice), dp_components(g, nice=nice)
        assert part.stats["nodes"] == comp.stats["nodes"] == len(nice.bags)
        assert part.optimum == dp_partition(g).optimum == comp.optimum + 1


def test_tree_dp_keeps_only_least_minimal_masks_of_a_child():
    # A child's costlier masks lose to cutting the edge to it, and of its
    # least-valued masks only the inclusion-minimal ones are worth joining.
    # On this 10-coloured tree the nice DP's largest table holds 42 keys;
    # without the two prunings the tree DP's holds a few hundred.
    rng = random.Random(3)
    n = 200
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    g = ColouredGraph.build(n, tuple(rng.randint(1, 10) for _ in range(n)), edges)
    part, comp = dp_partition(g), dp_components(g)
    assert part.optimum == comp.optimum + 1 == 68
    assert part.stats["max_table"] == comp.stats["max_table"] <= 64
    assert is_colourful_partition(g, part.witness)
    assert is_valid_deletion_set(g, comp.witness)


@st.composite
def small_graphs(draw, n_max=6):
    n = draw(st.integers(0, n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=n + 3)) if pairs else ()
    colours = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return ColouredGraph.build(n, tuple(colours), sorted(edges))


def dp_optima(g):
    width = max(g.n - 1, 0)
    return (
        dp_partition(g, max_width=width).optimum,
        dp_components(g, max_width=width).optimum,
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dp_optima_ignore_relabelling(data):
    g = data.draw(small_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    recolour = data.draw(st.permutations([2, 5, 7]))
    h = ColouredGraph.build(
        g.n,
        tuple(recolour[g.colours[perm.index(v)] - 1] for v in range(g.n)),
        [(perm[u], perm[v]) for u, v in g.edges()],
    )
    assert dp_optima(h) == dp_optima(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs(n_max=5), small_graphs(n_max=5))
def test_dp_optima_add_over_disjoint_union(g, h):
    union = ColouredGraph.build(
        g.n + h.n,
        g.colours + h.colours,
        g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()],
    )
    (gp, gc), (hp, hc) = dp_optima(g), dp_optima(h)
    assert dp_optima(union) == (gp + hp, gc + hc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tree_blocks_are_deletions_plus_one(data):
    # Deleting d edges of a tree leaves d + 1 connected components, so a
    # partition into k connected blocks is the same as k - 1 deletions.
    n = data.draw(st.integers(1, 20))
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    colours = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    g = ColouredGraph.build(n, tuple(colours), edges)
    blocks = dp_partition(g, max_width=1).optimum
    deletions = dp_components(g, max_width=1).optimum
    assert blocks == deletions + 1 == tree_min_deletions(g) + 1


def nice_from_steps(steps):
    """A nice decomposition from (kind, children, vertex) rows in postorder,
    bags derived bottom-up; the last row is the root."""
    bags = []
    for kind, kids, v in steps:
        bag = bags[kids[0]] if kids else frozenset()
        if kind == "introduce":
            bag = bag | {v}
        elif kind == "forget":
            bag = bag - {v}
        bags.append(bag)
    return NiceTreeDecomposition(
        tuple(bags),
        tuple(kind for kind, _, _ in steps),
        tuple(tuple(kids) for _, kids, _ in steps),
        tuple(v for _, _, v in steps),
        len(steps) - 1,
    )


def chain(steps, moves, below=None):
    """Append (kind, vertex) rows to steps, each on top of the one before,
    the first on top of row `below` (none for a leaf); returns the top."""
    for kind, v in moves:
        steps.append((kind, () if below is None else (below,), v))
        below = len(steps) - 1
    return below


def test_dead_colour_shared_by_two_parts_still_forbids_merging_them():
    # The path p-s-z-t-q with p and q coloured 1.  p is forgotten into s's
    # part and q into t's part in two subtrees, so colour 1 dies at their
    # join while both parts hold it; z, introduced later, is adjacent to
    # both.  Merging s, z and t would put p and q in one block.
    p, s, z, t, q = range(5)
    g = ColouredGraph.build(5, (1, 2, 3, 4, 1), [(p, s), (s, z), (z, t), (t, q)])
    steps = []
    left = chain(steps, [
        ("leaf", None), ("introduce", p), ("introduce", s), ("forget", p),
        ("introduce", t),
    ])
    right = chain(steps, [
        ("leaf", None), ("introduce", q), ("introduce", t), ("forget", q),
        ("introduce", s),
    ])
    steps.append(("join", (left, right), None))
    chain(steps, [
        ("introduce", z), ("forget", s), ("forget", t), ("forget", z),
    ], len(steps) - 1)
    nice = nice_from_steps(steps)
    res = dp_partition(g, nice=nice)
    assert res.optimum == 2
    assert is_colourful_partition(g, res.witness)
    assert dp_components(g, nice=nice).optimum == 1


def test_join_keeps_the_labels_of_its_two_sides_apart():
    # The tree p1-a-z-b-q1 with leaves p2 on a and q2 on b.  Below a join on
    # the bag {a, b}, the left side forgets p1 into a's part and q1 into
    # b's part, both coloured 1; the right side does the same with p2 and
    # q2, coloured 2.  Each side then holds a label on the parts of a and of
    # b.  The two labels mean different colours, so a's part may take both.
    a, b, z, p1, q1, p2, q2 = range(7)
    g = ColouredGraph.build(
        7, (3, 4, 5, 1, 1, 2, 2), [(a, p1), (a, p2), (a, z), (b, z), (b, q1), (b, q2)]
    )
    steps = []
    left, right = (
        chain(steps, [
            ("leaf", None), ("introduce", a), ("introduce", b), ("introduce", p),
            ("forget", p), ("introduce", q), ("forget", q),
        ])
        for p, q in [(p1, q1), (p2, q2)]
    )
    steps.append(("join", (left, right), None))
    chain(steps, [
        ("introduce", z), ("forget", a), ("forget", b), ("forget", z),
    ], len(steps) - 1)
    res = dp_partition(g, nice=nice_from_steps(steps))
    assert res.optimum == brute_min_partition(g).optimum == 2


def test_dead_colour_of_one_component_stays_alive_in_another():
    # x and x2 form one component, the 4-cycle u-y1-w-y2 another; x2, u and
    # w are coloured 1.  On this decomposition of the disconnected graph, x2
    # and u are forgotten before w arrives, so colour 1 must stay alive
    # until w is forgotten too: a colour dies only once its vertices in
    # every component are forgotten.  Dropped earlier, colour 1 would leave
    # the class of u, which could then take w, with u and w joined through
    # y1 and y2.
    x, x2, u, y1, y2, w = range(6)
    g = ColouredGraph.build(
        6, (3, 1, 1, 2, 4, 1), [(x, x2), (u, y1), (u, y2), (y1, w), (y2, w)]
    )
    steps = []
    chain(steps, [
        ("leaf", None), ("introduce", u), ("introduce", y1), ("introduce", y2),
        ("introduce", x), ("forget", u), ("introduce", x2), ("forget", x2),
        ("introduce", w), ("forget", x), ("forget", y1), ("forget", y2),
        ("forget", w),
    ])
    nice = nice_from_steps(steps)
    res = dp_components(g, nice=nice)
    assert res.optimum == brute_min_deletions(g).optimum == 2
    assert is_valid_deletion_set(g, res.witness)
    assert dp_partition(g, nice=nice).optimum == brute_min_partition(g).optimum


def test_dp_tables_do_not_grow_with_k_on_example1():
    # Twins u_i, v_i share colour i; once both are forgotten their colour is
    # dead, so the tables stay the same size however many twins there are.
    for dp in (dp_partition, dp_components):
        sizes = {dp(gen_example1(k)).stats["max_table"] for k in (6, 8, 12)}
        assert len(sizes) == 1


def test_dp_without_a_decomposition_runs_per_component():
    # Three disjoint copies of gen_example1(3).  One DP over the whole graph
    # stores 1,082 (partition) and 1,071 (components) states, since a colour
    # stays alive until its vertices in every copy are forgotten; one DP
    # per copy stores 126 and 107.
    e = gen_example1(3)
    g = ColouredGraph.build(
        3 * e.n,
        e.colours * 3,
        [(u + c * e.n, v + c * e.n) for c in range(3) for u, v in e.edges()],
    )
    part, comp = dp_partition(g), dp_components(g)
    assert (part.stats["states"], comp.stats["states"]) == (378, 321)
    assert part.stats["max_table"] == dp_partition(e).stats["max_table"] == 17
    assert part.optimum == 3 * dp_partition(e).optimum == 6
    assert comp.optimum == 3 * dp_components(e).optimum == 18
    assert is_colourful_partition(g, part.witness)
    assert is_valid_deletion_set(g, comp.witness)


def test_tree_children_are_joined_on_the_vertex_they_share():
    # On a tree each bag is {v, parent(v)}, and most children of that bag
    # hold only v of it.  Joining them on v alone introduces parent(v) once
    # per bag instead of once per child branch; joining on the whole bag
    # makes every join bag two vertices wide and about 2n introduce nodes.
    n = 300
    for seed in range(3):
        rng = random.Random(seed)
        colours = tuple(rng.randint(1, 3) for _ in range(n))
        g = ColouredGraph.build(n, colours, random_tree_edges(rng, n))
        nice = to_nice(exact_tree_decomposition(g, 1), g)
        nice.validate(g)
        joins = [len(bag) for bag, kind in zip(nice.bags, nice.kind) if kind == "join"]
        assert 3 * joins.count(1) > 2 * len(joins)
        assert nice.kind.count("introduce") < 1.7 * n
        blocks = dp_partition(g, nice=nice)
        deletions = dp_components(g, nice=nice)
        assert blocks.optimum == deletions.optimum + 1
        assert blocks.stats["nodes"] == len(nice.bags)
        assert blocks.stats["max_table"] <= blocks.stats["states"]


def test_pieces_holding_none_of_a_bag_are_joined_on_the_empty_bag():
    # Components P = 0-1, Q = 2-3 and the triangle R = {4, 5, 6}.  In this
    # elimination order 3 and then 1 are left without neighbours, so each
    # bag is hung on the next one: rooted at bag 0 = {0, 1}, the bag {1}
    # has the children {3} and {4, 5, 6}, which hold none of it.
    edges = [(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)]
    rng = random.Random(5)
    for _ in range(20):
        g = ColouredGraph.build(7, tuple(rng.randint(1, 3) for _ in range(7)), edges)
        nice = to_nice(_td_from_order(g, [0, 2, 3, 1, 4, 5, 6]), g)
        nice.validate(g)
        assert frozenset() in (
            bag for bag, kind in zip(nice.bags, nice.kind) if kind == "join"
        )
        assert dp_partition(g, nice=nice).optimum == brute_min_partition(g).optimum
        assert dp_components(g, nice=nice).optimum == brute_min_deletions(g).optimum


def test_dp_optima_ignore_huge_colour_ids():
    rng = random.Random(6)
    for _ in range(40):
        g = random_coloured_graph(rng, n_max=8, colours_max=4)
        huge = ColouredGraph.build(
            g.n, tuple(10**9 + 7 * c for c in g.colours), g.edges()
        )
        assert dp_optima(huge) == dp_optima(g)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_graphs(n_max=4), min_size=2, max_size=3))
def test_dp_matches_oracle_on_disjoint_unions_reusing_colours(pieces):
    # Every piece draws its colours from 1..3, so a colour that dies in one
    # component of the graph is still alive in another.
    n, colours, edges = 0, (), []
    for piece in pieces:
        edges += [(u + n, v + n) for u, v in piece.edges()]
        colours += piece.colours
        n += piece.n
    g = ColouredGraph.build(n, colours, edges)
    part, comp = dp_optima(g)
    assert part == brute_min_partition(g).optimum
    assert comp == brute_min_deletions(g).optimum


def test_dps_match_oracles_on_random_elimination_orders():
    # each graph is solved without a decomposition and with a nice one built
    # from a random elimination order, so the forget nodes that drop
    # dominated keys see bags and orders the default decomposition never makes
    rng = random.Random(9)
    for _ in range(100):
        g = random_coloured_graph(rng, n_max=7, colours_max=4)
        order = list(range(g.n))
        rng.shuffle(order)
        nice = to_nice(_td_from_order(g, order), g)
        blocks, deletions = brute_min_partition(g).optimum, brute_min_deletions(g).optimum
        for supplied in (None, nice):
            part = dp_partition(g, nice=supplied, max_width=6)
            comp = dp_components(g, nice=supplied, max_width=6)
            assert (part.optimum, comp.optimum) == (blocks, deletions)
            assert is_colourful_partition(g, part.witness)
            assert is_valid_deletion_set(g, comp.witness)


def padded_decomposition(rng, g):
    """A tree decomposition of g from a random elimination order, with one
    to three empty bags hung anywhere and the node ids shuffled, so that
    node 0 may hold an empty bag with any number of children."""
    order = list(range(g.n))
    rng.shuffle(order)
    td = _td_from_order(g, order)
    bags, edges = list(td.bags), list(td.edges)
    for _ in range(rng.randint(1, 3)):
        edges.append((rng.randrange(len(bags)), len(bags)))
        bags.append(frozenset())
    new_id = list(range(len(bags)))
    rng.shuffle(new_id)
    relabelled = [frozenset()] * len(bags)
    for i, bag in enumerate(bags):
        relabelled[new_id[i]] = bag
    return TreeDecomposition(
        tuple(relabelled), tuple((new_id[i], new_id[j]) for i, j in edges)
    )


def test_dps_match_oracles_over_relabelled_decompositions_padded_with_empty_bags():
    # The nice form's root is td node 0 chained down to the empty bag: a
    # join where node 0 is an empty bag over two or more subtrees, else a
    # forget node.  Both DPs read the root's empty key whatever its kind.
    rng = random.Random(24)
    roots = Counter()
    for _ in range(400):
        g = random_coloured_graph(rng, n_max=8, colours_max=4)
        td = padded_decomposition(rng, g)
        td.validate(g)
        nice = to_nice(td, g)
        roots[nice.kind[nice.root]] += 1
        part, comp = dp_partition(g, nice=nice), dp_components(g, nice=nice)
        assert part.optimum == brute_min_partition(g).optimum
        assert comp.optimum == brute_min_deletions_partitions(g).optimum
        assert is_colourful_partition(g, part.witness)
        assert is_valid_deletion_set(g, comp.witness)
    assert roots["join"] > 0 and roots["forget"] > 0


def bridged_graph(rng):
    """Two disjoint pieces, each two colourful 3-trees of five vertices
    (colours from 1..6, so the two sides share a colour) joined by three
    bridges from a triangle of one side to a triangle of the other.  Each
    side is 3-edge-connected, so separating two same-coloured vertices on
    opposite sides cuts three edges: the six bridges are an optimal
    deletion set."""
    colours, edges = [], []
    for _ in range(2):
        ends = []
        for _ in range(2):
            off = len(colours)
            triangle = rng.sample(range(4), 3)
            edges += [(off + u, off + v) for u, v in combinations(range(4), 2)]
            edges += [(off + u, off + 4) for u in triangle]
            ends.append([off + 4] + [off + u for u in rng.sample(triangle, 2)])
            colours += rng.sample(range(1, 7), 5)
        edges += zip(*ends)
    return ColouredGraph.build(len(colours), tuple(colours), sorted(edges))


def test_forget_nodes_keep_only_undominated_keys(monkeypatch):
    # With every key kept, the same optima come from more states: strictly
    # more on the bridged graphs, where about two thirds of the stored keys
    # are dominated, and never fewer on small random graphs.
    rng = random.Random(10)
    bridged = [bridged_graph(rng) for _ in range(3)]
    graphs = bridged + [
        random_coloured_graph(rng, n_max=12, colours_max=4, extra_edges=8, connected=True)
        for _ in range(6)
    ]
    pruned = [(dp_partition(g), dp_components(g)) for g in graphs]
    monkeypatch.setattr(fpt, "_drop_dominated", lambda table, back: None)
    for g, results in zip(graphs, pruned):
        for dp, res in zip((dp_partition, dp_components), results):
            full = dp(g)
            assert res.optimum == full.optimum
            assert res.stats["nodes"] == full.stats["nodes"]
            assert res.stats["max_table"] <= full.stats["max_table"]
            if g in bridged:
                assert res.stats["states"] < full.stats["states"]
            else:
                assert res.stats["states"] <= full.stats["states"]


def test_bridged_components_tables_after_dropping_dominated_keys():
    # On these bridged graphs the components DP's largest table held 351,
    # 461 and 346 keys before dominated keys were dropped at forget nodes.
    rng = random.Random(11)
    sizes = []
    for _ in range(3):
        g = bridged_graph(rng)
        res = dp_components(g)
        assert res.optimum == 6
        assert is_valid_deletion_set(g, res.witness)
        sizes.append(res.stats["max_table"])
    assert sizes == [81, 99, 99]


def test_a_key_that_differs_only_in_a_label_is_dominated(monkeypatch):
    # Colour 1 dies in this decomposition while two parts hold it, so it
    # becomes a label on both.  At a later forget node the same bag
    # partition is also reached with no label at the same cost; the
    # labelled key can only forbid more merges, so it is dropped.
    g = ColouredGraph.build(
        6, (1, 3, 1, 1, 3, 2), [(0, 1), (1, 2), (1, 4), (1, 5), (2, 3), (3, 5), (4, 5)]
    )
    nice = to_nice(_td_from_order(g, [2, 4, 1, 3, 0, 5]), g)
    live = (1 << len(set(g.colours))) - 1
    drops = []
    keep = fpt._drop_dominated

    def spy(table, back):
        before = dict(table)
        keep(table, back)
        for key in before.keys() - table.keys():
            drops.extend(
                (key, other) for other in table
                if [p for p, _ in other] == [p for p, _ in key]
                and before[other] <= before[key]
                and all(a & live == b & live and not b & ~a for (_, a), (_, b) in zip(key, other))
            )

    monkeypatch.setattr(fpt, "_drop_dominated", spy)
    res = dp_partition(g, nice=nice)
    assert drops
    assert res.optimum == brute_min_partition(g).optimum
    assert is_colourful_partition(g, res.witness)


# ---------------------------------------------------------------------------
# vertex-cover pipeline
# ---------------------------------------------------------------------------


def planted_cover_graph(rng, s_max=3, t_max=8, colours_max=5):
    """Independent set T wired only into a small set S (plus edges inside S)."""
    s = rng.randint(0, s_max)
    t = rng.randint(1, t_max)
    n = s + t
    edges = set()
    for u in range(s):
        for v in range(u + 1, s):
            if rng.random() < 0.5:
                edges.add((u, v))
    for w in range(s, n):
        for u in range(s):
            if rng.random() < 0.5:
                edges.add((u, w))
    cols = tuple(rng.randint(1, colours_max) for _ in range(n))
    return ColouredGraph.build(n, cols, sorted(edges))


def test_vc_pipeline_matches_oracle():
    rng = random.Random(4)
    for _ in range(120):
        g = planted_cover_graph(rng)
        res = solve_partition_vc(g)
        assert res.optimum == brute_min_partition(g).optimum
        assert is_colourful_partition(g, res.witness)


def test_vc_pipeline_ignores_monochromatic_edges():
    # an edge inside a colour class contributes nothing to any block
    g = ColouredGraph.build(4, (1, 1, 2, 3), [(0, 1), (0, 2), (1, 3)])
    res = solve_partition_vc(g)
    assert res.optimum == brute_min_partition(g).optimum == 2


def test_vc_pipeline_edgeless_graph():
    g = ColouredGraph.build(3, (1, 1, 2), [])
    res = solve_partition_vc(g)
    assert res.optimum == 3
    assert res.stats["cover"] == 0


def test_vc_pipeline_refuses_large_covers():
    n = 12
    g = ColouredGraph.build(
        n, tuple(range(1, n + 1)),
        [(u, v) for u in range(n) for v in range(u + 1, n)],
    )
    with pytest.raises(UnsupportedInstanceError):
        solve_partition_vc(g, max_cover=3)


def test_vc_pipeline_refuses_a_large_kernel():
    # the cover is {0, 1}; vertex 2 stays in the kernel, past a cap of 0
    g = ColouredGraph.build(3, (1, 2, 3), [(0, 1), (1, 2)])
    with pytest.raises(UnsupportedInstanceError, match="kernel keeps 1 > 0 independent vertices"):
        solve_partition_vc(g, kernel_cap=0)


def test_vc_pipeline_duplicate_class_reduction():
    """Many twin leaves of one colour collapse into the kernel and come back
    as singletons."""
    s = 2
    leaves = 9
    edges = [(0, 1)] + [(0, 2 + i) for i in range(leaves)]
    cols = (1, 2) + tuple(3 for _ in range(leaves))
    g = ColouredGraph.build(2 + leaves, cols, edges)
    res = solve_partition_vc(g)
    assert res.optimum == brute_min_partition(g).optimum == leaves
    assert res.stats["kernel"] < g.n


def test_vc_pipeline_answers_a_many_coloured_star_without_a_scan_per_colour():
    # rule 2 deletes all but one leaf colour and reinserts each by a matching,
    # so no step may scan the leaves once per colour
    n = 8000
    g = ColouredGraph.build(n, tuple(range(1, n + 1)), [(0, v) for v in range(1, n)])
    t0 = time.perf_counter()
    res = solve_partition_vc(g, max_cover=4)
    assert time.perf_counter() - t0 < 2.0
    assert res.optimum == 1


# ---------------------------------------------------------------------------
# few-repeated-colours pipeline
# ---------------------------------------------------------------------------


def test_nonunique_matches_oracle():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = ColouredGraph.build(
            n,
            random_colours_with_repeats(rng, n, rng.randint(0, 2)),
            sorted(
                {
                    (rng.randrange(v), v)
                    for v in range(1, n)
                }
                | {
                    (u, v)
                    for u, v in [
                        (rng.randrange(n), rng.randrange(n)) for _ in range(3)
                    ]
                    if u < v
                }
            ),
        )
        res = solve_partition_nonunique(g)
        assert res.optimum == brute_min_partition(g).optimum
        assert is_colourful_partition(g, res.witness)


def test_nonunique_all_unique_is_one_block_per_component():
    g = ColouredGraph.build(5, (1, 2, 3, 4, 5), [(0, 1), (1, 2), (3, 4)])
    res = solve_partition_nonunique(g)
    assert res.optimum == 2
    assert res.stats["q"] == 0


def test_nonunique_refuses_many_repeats():
    n = 10
    g = ColouredGraph.build(
        n, tuple([1 + i % 2 for i in range(n)]),
        [(i, i + 1) for i in range(n - 1)],
    )
    with pytest.raises(UnsupportedInstanceError):
        solve_partition_nonunique(g, max_q=4)


def test_nonunique_refuses_a_large_connected_subgraph_search():
    # all four vertices repeat a colour and two blocks may do, so the search
    # below q blocks would run on n = 4, past a cap of 3
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(UnsupportedInstanceError, match="connected-subgraph search supports n <= 3"):
        solve_partition_nonunique(g, dcs_cap=3)


def test_nonunique_lower_bound_met_by_seed_growth():
    # two interleaved colour pairs on a path: optimum equals the multiplicity
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (1, 2), (2, 3)])
    res = solve_partition_nonunique(g)
    assert res.optimum == 2


def test_nonunique_grows_seed_blocks_without_a_scan_per_vertex():
    # one colour on three vertices of the cycle and every other colour
    # unique: no search runs, and growing the three seeds' blocks may not
    # scan the unassigned vertices once per vertex
    n = 32_000
    colours = list(range(2, n + 2))
    colours[0] = colours[n // 3] = colours[2 * n // 3] = 1
    g = ColouredGraph.build(n, colours, [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)])
    t0 = time.perf_counter()
    res = solve_partition_nonunique(g)
    assert time.perf_counter() - t0 < 2.0
    assert res.optimum == 3
