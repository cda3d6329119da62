import pytest
from hypothesis import example, given, strategies as st

from colourful.decomposition import parse_td
from colourful.graph import (
    ColouredGraph,
    ParseError,
    canonical_partition,
    colour_multiplicity,
    components,
    components_after_deletion,
    connected_components,
    crossing_edges,
    find,
    is_colourful_graph,
    is_colourful_partition,
    is_colourful_set,
    is_valid_deletion_set,
    norm_edge,
    normalize_colours,
    parse_instance,
    parse_solution,
    postorder,
    search,
    serialize_instance,
    serialize_solution,
)


@st.composite
def coloured_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    colours = tuple(draw(st.integers(1, 5)) for _ in range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return ColouredGraph.build(n, colours, edges)


def triangle(c1=1, c2=2, c3=3):
    return ColouredGraph.build(3, (c1, c2, c3), [(0, 1), (1, 2), (0, 2)])


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        ColouredGraph.build(2, (1, 2), [(0, 0)])
    with pytest.raises(ValueError):
        ColouredGraph.build(2, (1, 2), [(0, 2)])
    with pytest.raises(ValueError):
        ColouredGraph.build(2, (1,), [(0, 1)])


def test_norm_edge_orders_endpoints():
    assert norm_edge(3, 1) == (1, 3)
    assert norm_edge(1, 3) == (1, 3)


def test_basic_accessors():
    g = triangle()
    assert g.n == 3 and g.m == 3
    assert g.degree(0) == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 3)
    assert g.colour_set() == {1, 2, 3}


def test_connected_components_with_forbidden_edges():
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (2, 3)])
    assert connected_components(g) == ({0, 1}, {2, 3})
    only = connected_components(g, frozenset({(0, 1)}))
    assert sorted(map(sorted, only)) == [[0], [1], [2, 3]]


def test_colourful_predicates():
    g = triangle()
    assert is_colourful_set(g, {0, 1, 2})
    assert is_colourful_graph(g)
    bad = triangle(1, 1, 2)
    assert not is_colourful_set(bad, {0, 1, 2})
    assert is_colourful_set(bad, {0, 2})
    assert not is_colourful_graph(bad)


def test_partition_validation_catches_each_failure_mode():
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (1, 2), (2, 3)])
    good = (frozenset({0, 1}), frozenset({2, 3}))
    assert is_colourful_partition(g, good)
    # repeated colour inside a block
    assert not is_colourful_partition(g, (frozenset({0, 1, 2}), frozenset({3})))
    # disconnected block
    assert not is_colourful_partition(g, (frozenset({0, 3}), frozenset({1, 2})))
    # missing / doubly covered vertices
    assert not is_colourful_partition(g, (frozenset({0, 1}),))
    assert not is_colourful_partition(g, good + (frozenset({3}),))
    assert not is_colourful_partition(g, (frozenset(), *good))
    assert not is_colourful_partition(g, (frozenset({0, 1}), frozenset({2, 3, 9})))


def test_deletion_set_validation():
    g = ColouredGraph.build(3, (1, 1, 2), [(0, 1), (1, 2)])
    assert not is_colourful_graph(g)
    assert is_valid_deletion_set(g, {(0, 1)})
    assert is_valid_deletion_set(g, {(1, 0)})  # orientation-insensitive
    assert not is_valid_deletion_set(g, set())
    assert not is_valid_deletion_set(g, {(0, 2)})  # not an edge
    assert not is_valid_deletion_set(g, {(5, 7)})  # out of range
    comps = components_after_deletion(g, {(0, 1)})
    assert sorted(map(sorted, comps)) == [[0], [1, 2]]


def test_colour_multiplicity_and_crossing_edges():
    g = ColouredGraph.build(4, (1, 1, 1, 2), [(0, 1), (1, 2), (2, 3)])
    assert colour_multiplicity(g) == 3
    part = (frozenset({0}), frozenset({1}), frozenset({2, 3}))
    assert crossing_edges(g, part) == {(0, 1), (1, 2)}


def test_canonical_partition_orders_blocks_by_minimum():
    blocks = [{5, 2}, {0, 7}, {1}]
    assert canonical_partition(blocks) == (
        frozenset({0, 7}),
        frozenset({1}),
        frozenset({2, 5}),
    )


@given(coloured_graphs())
def test_instance_round_trip(g):
    again = parse_instance(serialize_instance(g))
    assert again.n == g.n
    assert again.edges() == g.edges()
    assert normalize_colours(again.colours) == normalize_colours(g.colours)


def union_find_classes(n, edges):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), set()).add(v)
    return canonical_partition(classes.values())


@given(coloured_graphs(max_n=10), st.data())
def test_search_and_components_match_union_find(g, data):
    edges = g.edges()
    forbidden = frozenset(data.draw(st.sets(st.sampled_from(edges))) if edges else ())
    kept = [e for e in edges if e not in forbidden]
    assert connected_components(g, forbidden) == union_find_classes(g.n, kept)
    full = union_find_classes(g.n, edges)
    assert [frozenset(c) for c in components(g.adj, range(g.n))] == list(full)
    allowed = data.draw(st.sets(st.integers(0, max(g.n - 1, 0))))
    inside = union_find_classes(
        g.n, [(u, v) for u, v in edges if u in allowed and v in allowed]
    )
    for s in range(g.n):
        reached = search(g.adj, s)
        assert set(reached) == next(c for c in full if s in c)
        order = list(reached)
        assert order[0] == s and reached[s] is None
        depth = {s: 0}
        for v in order[1:]:  # breadth-first: parents first, depths never drop
            assert g.has_edge(v, reached[v]) and reached[v] in depth
            depth[v] = depth[reached[v]] + 1
        assert [depth[v] for v in order] == sorted(depth.values())
        if s in allowed:
            assert set(search(g.adj, s, allowed)) == next(c for c in inside if s in c)


@given(st.data())
def test_postorder_runs_each_subtree_and_find_reaches_the_root(data):
    # a random tree where node v hangs from a smaller node, its child lists
    # shuffled
    n = data.draw(st.integers(1, 12))
    parent = [-1] + [data.draw(st.integers(0, v - 1)) for v in range(1, n)]
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parent[v]].append(v)
    children = [data.draw(st.permutations(cs)) for cs in children]
    below = [{v} for v in range(n)]  # each node's subtree
    for v in reversed(range(1, n)):
        below[parent[v]] |= below[v]
    for root in range(n):
        order, up = postorder(children, root)
        assert sorted(order) == sorted(below[root]) and order[-1] == root
        assert up == [parent[v] if v in below[root] and v != root else -1 for v in range(n)]
        at = {v: i for i, v in enumerate(order)}
        for v in order:  # a subtree is the run that ends at its root
            assert set(order[at[v] - len(below[v]) + 1 : at[v] + 1]) == below[v]
            assert [at[c] for c in children[v]] == sorted(at[c] for c in children[v])
    link = [max(p, 0) for p in parent]
    for v in data.draw(st.permutations(range(n))):
        assert find(link, v) == 0 and link[v] == 0


@given(coloured_graphs(max_n=10), st.data())
def test_subgraph_equals_build_over_the_induced_edges(g, data):
    # `subgraph` skips `build`'s checks; it must still give what they give
    picked = data.draw(st.lists(st.sampled_from(range(g.n)))) if g.n else []
    index = {v: i for i, v in enumerate(sorted(set(picked)))}
    induced = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    expected = ColouredGraph.build(len(index), [g.colours[v] for v in index], induced)
    assert g.subgraph(picked) == expected


@given(coloured_graphs(max_n=6))
def test_components_partition_the_vertices(g):
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError):
        parse_instance("cgraph 2\n")
    with pytest.raises(ParseError):
        parse_instance("cgraph 2 1\nv 0 1\ne 0 1\n")  # missing colour for 1
    with pytest.raises(ParseError):
        parse_instance("cgraph 2 0\nv 0 1\nv 1 1\ne 0 1\n")  # edge count lies
    with pytest.raises(ParseError):
        parse_instance("cgraph 1 0\nv 0 1\nwhat 3\n")


def test_parse_instance_reports_a_few_missing_vertices():
    with pytest.raises(ParseError) as err:
        parse_instance("cgraph 1000000 0\nv 1 1\n")
    assert len(str(err.value)) < 100
    assert "[0, 2, 3, 4, 5]" in str(err.value)


_TOKENS = st.sampled_from(
    ["cgraph", "v", "e", "td", "bag", "te", "partition", "block", "deletions",
     "x", "#"]
) | st.integers(-2, 12).map(str)
_LINES = st.lists(_TOKENS, max_size=5).map(" ".join)
_HEADERS = st.tuples(
    st.sampled_from(["cgraph", "td", "partition", "deletions"]), _TOKENS, _TOKENS
).map(" ".join)


@given(st.tuples(_HEADERS | _LINES, st.lists(_LINES, max_size=8)).map(
    lambda t: "\n".join([t[0], *t[1]])
))
@example("td 99999999999999999999 0\n")
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_instance, parse_solution, parse_td):
        try:
            parse(text)
        except ParseError:
            pass


def test_parse_instance_accepts_comments_and_blank_lines():
    text = "# header\ncgraph 2 1\n\nv 0 4   # colour four\nv 1 9\ne 0 1\n"
    g = parse_instance(text)
    assert g.n == 2 and g.m == 1
    assert g.colours == (1, 2)  # densely renumbered


def test_solution_round_trip_partition():
    part = (frozenset({0, 2}), frozenset({1}))
    kind, parsed = parse_solution(serialize_solution("partition", part))
    assert kind == "partition"
    assert parsed == part


def test_solution_round_trip_deletions():
    dels = frozenset({(0, 1), (2, 4)})
    kind, parsed = parse_solution(serialize_solution("deletions", dels))
    assert kind == "deletions"
    assert parsed == dels


def test_parse_solution_rejects_count_mismatch():
    with pytest.raises(ParseError):
        parse_solution("partition 2\nblock 0 1\n")
    with pytest.raises(ParseError):
        parse_solution("deletions 1\n")
    with pytest.raises(ParseError):
        parse_solution("answers 1\n")
