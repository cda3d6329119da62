import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from colourful.decomposition import exact_tree_decomposition, normalize_for_2cp
from colourful.graph import (
    ColouredGraph,
    UnsupportedInstanceError,
    connected_components,
    is_colourful_partition,
    is_colourful_set,
    is_valid_deletion_set,
)
from colourful.oracle import (
    brute_max_matching,
    brute_min_deletions,
    brute_min_partition,
    brute_sat,
    find_two_partition,
)
from colourful.polysolvers import (
    TwoSatFormula,
    _colour_classes,
    _cut_certificate,
    build_phi,
    hopcroft_karp,
    solve_2cp_treewidth2,
    solve_two_coloured,
    two_sat_solve,
)

from helpers import (
    random_coloured_graph,
    random_colours_with_repeats,
    random_partial_2tree,
)


# ---------------------------------------------------------------------------
# 2-SAT
# ---------------------------------------------------------------------------


@st.composite
def two_cnfs(draw):
    nvars = draw(st.integers(1, 8))
    lit = st.integers(1, nvars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(st.lists(st.tuples(lit, lit), max_size=16))
    return TwoSatFormula(nvars, clauses)


@given(two_cnfs())
def test_two_sat_agrees_with_exhaustive_search(formula):
    model = two_sat_solve(formula)
    reference = brute_sat([c for c in formula.clauses] or [(1, -1)])
    if model is None:
        assert reference is None
    else:
        assert formula.check(model)


def test_two_sat_unit_clauses_force_values():
    f = TwoSatFormula(2, [(1, 1), (-2, -2)])
    model = two_sat_solve(f)
    assert model == {1: True, 2: False}


def test_two_sat_rejects_out_of_range_literals():
    with pytest.raises(ValueError):
        two_sat_solve(TwoSatFormula(1, [(1, 2)]))
    with pytest.raises(ValueError):
        two_sat_solve(TwoSatFormula(1, [(0, 1)]))


def test_two_sat_contradiction():
    f = TwoSatFormula(1, [(1, 1), (-1, -1)])
    assert two_sat_solve(f) is None


# ---------------------------------------------------------------------------
# bipartite matching
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 6).flatmap(
        lambda nl: st.tuples(
            st.just(nl),
            st.integers(0, 6),
            st.lists(
                st.tuples(st.integers(0, max(nl - 1, 0)), st.integers(0, 5)),
                max_size=18,
            ),
        )
    )
)
def test_hopcroft_karp_is_maximum(args):
    n_left, n_right, raw = args
    adj = [[] for _ in range(n_left)]
    for u, v in raw:
        if u < n_left and v < n_right and v not in adj[u]:
            adj[u].append(v)
    matching = hopcroft_karp(n_left, n_right, adj)
    # well-formed: a matching on actual edges
    assert len(set(matching.values())) == len(matching)
    assert all(v in adj[u] for u, v in matching.items())
    assert len(matching) == brute_max_matching(adj)


# ---------------------------------------------------------------------------
# two-coloured instances
# ---------------------------------------------------------------------------


def test_two_coloured_requires_two_colours():
    g = ColouredGraph.build(3, (1, 2, 3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        solve_two_coloured(g)


def test_two_coloured_matches_oracle_on_both_problems():
    rng = random.Random(0)
    for _ in range(120):
        g = random_coloured_graph(rng, n_max=8, colours_max=2)
        res = solve_two_coloured(g, "partition")
        assert res.optimum == brute_min_partition(g).optimum
        assert is_colourful_partition(g, res.witness)
        res = solve_two_coloured(g, "components")
        assert res.optimum == brute_min_deletions(g).optimum
        assert is_valid_deletion_set(g, res.witness)


def test_two_coloured_star():
    g = ColouredGraph.build(4, (1, 2, 2, 2), [(0, 1), (0, 2), (0, 3)])
    assert solve_two_coloured(g, "partition").optimum == 3
    assert solve_two_coloured(g, "components").optimum == 2


# ---------------------------------------------------------------------------
# two blocks at treewidth two
# ---------------------------------------------------------------------------


def test_tw2_solver_rejects_wider_graphs():
    k4 = ColouredGraph.build(
        4, (1, 1, 2, 3), [(u, v) for u in range(4) for v in range(u + 1, 4)]
    )
    with pytest.raises(UnsupportedInstanceError):
        solve_2cp_treewidth2(k4)


def test_tw2_solver_answers_trivial_instances_without_width_check():
    # a colourful clique is one block regardless of treewidth
    k4 = ColouredGraph.build(
        4, (1, 2, 3, 4), [(u, v) for u in range(4) for v in range(u + 1, 4)]
    )
    assert solve_2cp_treewidth2(k4) == (frozenset({0, 1, 2, 3}),)


def test_tw2_solver_agrees_with_oracle():
    rng = random.Random(1)
    solved = yes = 0
    while solved < 150:
        g = random_coloured_graph(rng, n_max=8, colours_max=5, connected=True)
        try:
            part = solve_2cp_treewidth2(g)
        except UnsupportedInstanceError:
            continue
        solved += 1
        opt = brute_min_partition(g).optimum
        if part is None:
            assert opt > 2
        else:
            yes += 1
            assert len(part) == opt
            assert is_colourful_partition(g, part)
    assert yes > 30


def test_tw2_solver_two_components():
    g = ColouredGraph.build(4, (1, 2, 1, 2), [(0, 1), (2, 3)])
    part = solve_2cp_treewidth2(g)
    assert part == (frozenset({0, 1}), frozenset({2, 3}))
    # three components can never make two blocks
    g3 = ColouredGraph.build(3, (1, 2, 3), [])
    assert solve_2cp_treewidth2(g3) is None


def test_tw2_solver_splits_only_a_disconnected_graph():
    # the certificate's search tells whether the graph is connected; the
    # answers on graphs of one, two and more components match brute force
    rng = random.Random(4)
    seen = {1: 0, 2: 0, 3: 0}
    for _ in range(300):
        g = random_coloured_graph(rng, n_max=7, colours_max=5)
        classes = _colour_classes(g)
        comps = len(connected_components(g))
        if g.n and max(map(len, classes)) <= 2:
            assert _cut_certificate(g, classes)[0] == (comps == 1)
        try:
            part = solve_2cp_treewidth2(g)
        except UnsupportedInstanceError:
            continue
        seen[min(comps, 3)] += 1
        opt = brute_min_partition(g).optimum
        assert (part is None) == (opt > 2)
        if part is not None:
            assert len(part) == opt and is_colourful_partition(g, part)
    assert min(seen.values()) >= 20, seen


def test_tw2_solver_colourful_graph_is_one_block():
    g = ColouredGraph.build(3, (1, 2, 3), [(0, 1), (1, 2)])
    assert solve_2cp_treewidth2(g) == (frozenset({0, 1, 2}),)


def planted_two_block_colours(
    rng: random.Random, n: int, edges: list[tuple[int, int]]
) -> tuple[int, ...]:
    """Colours making a random split of a connected graph into two
    connected blocks a colourful partition, with several colours shared by
    both blocks.  One block is the largest component left by deleting a
    random connected set; the other is everything else, which stays
    connected because every leftover component touches the deleted set."""
    g = ColouredGraph.build(n, tuple(range(1, n + 1)), edges)
    grown = {rng.randrange(n)}
    target = rng.randint(n // 3, n - n // 3)
    while len(grown) < target:
        grown.add(rng.choice(sorted({w for u in grown for w in g.adj[u]} - grown)))
    outside = sorted(set(range(n)) - grown)
    rest = [outside[v] for v in max(connected_components(g.subgraph(outside)), key=len)]
    block = set(range(n)) - set(rest)
    colours = [0] * n
    for c, v in enumerate(sorted(block), start=1):
        colours[v] = c
    shared = rng.sample(range(1, len(block) + 1), min(len(block), len(rest), rng.randint(2, 6)))
    fresh = list(range(len(block) + 1, n + 1))
    rng.shuffle(rest)
    for i, v in enumerate(rest):
        colours[v] = shared[i] if i < len(shared) else fresh[i]
    return tuple(colours)


def test_tw2_solver_agrees_with_two_block_search_on_larger_graphs():
    rng = random.Random(12)
    yes = no = 0
    for trial in range(80):
        n = rng.randint(12, 40)
        edges = random_partial_2tree(rng, n)
        planted = trial % 2 == 0
        if planted:
            colours = planted_two_block_colours(rng, n, edges)
        else:
            colours = random_colours_with_repeats(rng, n, rng.randint(2, n // 4))
        g = ColouredGraph.build(n, colours, edges)
        part = solve_2cp_treewidth2(g)
        search = find_two_partition(g)
        assert (part is None) == (search is None)
        if planted:
            assert part is not None
        if part is None:
            no += 1
        else:
            yes += 1
            assert len(part) == 2
            assert is_colourful_partition(g, part)
            assert is_colourful_partition(g, search)
    assert yes >= 30 and no >= 15


def test_tw2_solver_finds_cut_at_far_end_of_path():
    # colours 1..m twice along a path: every same-colour pair is m edges
    # apart and the only valid cut is the middle edge, the last edge of
    # the path between the two vertices of colour 1, so the m-th formula
    for m in range(3, 12):
        g = ColouredGraph.build(
            2 * m, tuple(list(range(1, m + 1)) * 2), [(i, i + 1) for i in range(2 * m - 1)]
        )
        stats = {}
        assert solve_2cp_treewidth2(g, stats) == (
            frozenset(range(m)), frozenset(range(m, 2 * m))
        )
        assert stats == {"formulas": m}


def test_tw2_solver_finds_ladder_rails():
    # rails u_i = i and w_i = L + i with rungs (u_i, w_i) of one colour each:
    # the only two blocks are the rails, so the cut is every rung, most of
    # them far from the one-rung path between a same-coloured pair
    for length in range(6, 21, 2):
        edges = [(i, i + 1) for i in range(length - 1)]
        edges += [(length + i, length + i + 1) for i in range(length - 1)]
        edges += [(i, length + i) for i in range(length)]
        colours = tuple(list(range(1, length + 1)) * 2)
        g = ColouredGraph.build(2 * length, colours, sorted(edges))
        assert solve_2cp_treewidth2(g) == (
            frozenset(range(length)), frozenset(range(length, 2 * length))
        )
        assert find_two_partition(g) == solve_2cp_treewidth2(g)


def test_tw2_solver_rejects_a_thrice_used_colour_before_the_width_check():
    # K4 has treewidth 3, but three vertices of one colour never fit into
    # two blocks
    k4 = ColouredGraph.build(
        4, (1, 1, 1, 2), [(u, v) for u in range(4) for v in range(u + 1, 4)]
    )
    assert solve_2cp_treewidth2(k4) is None


# ---------------------------------------------------------------------------
# the two-block formula itself
# ---------------------------------------------------------------------------


def check_phi_models(g, a, b, outcomes):
    """Fix every vertex but a and b by unit clauses: the formula must be
    satisfiable exactly when the fixed sides are two colourful blocks.
    Counts the satisfiable and unsatisfiable cases in `outcomes`."""
    phi = build_phi(g, normalize_for_2cp(g, a, b), a, b)
    rest = [v for v in range(g.n) if v not in (a, b)]
    for bits in range(1 << len(rest)):
        v1 = {a} | {v for j, v in enumerate(rest) if bits >> j & 1}
        units = tuple(
            (v + 1, v + 1) if v in v1 else (-(v + 1), -(v + 1)) for v in rest
        )
        model = two_sat_solve(TwoSatFormula(phi.nvars, phi.clauses + units))
        blocks = (frozenset(v1), frozenset(range(g.n)) - v1)
        assert (model is not None) == is_colourful_partition(g, blocks), sorted(v1)
        outcomes[model is not None] += 1


def test_phi_models_are_exactly_the_two_block_partitions():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for _ in range(40):
        n = rng.randint(5, 9)
        g = ColouredGraph.build(
            n,
            random_colours_with_repeats(rng, n, rng.randint(1, 3)),
            random_partial_2tree(rng, n),
        )
        for a, b in rng.sample(list(g.edges()), min(3, g.m)):
            if rng.random() < 0.5:
                a, b = b, a
            check_phi_models(g, a, b, outcomes)
    assert min(outcomes.values()) >= 50, outcomes


def test_phi_keeps_a_head_vertex_with_the_only_pair_vertex_it_touches():
    """Triangles {1, 2, 4} and {3, 5, 6} joined by the path 1 - 0 - 3, so 3
    reaches 1 only through 0.  A form with the head 3-bag {0, 1, 3} under
    the root {0, 1} and no 2-bag {1, 3} would let V1 = {0} satisfy the
    formula although it leaves 3 cut off from the rest of V2.  The normal
    form for the root edge (0, 1) holds no such bag: it eliminates 0 and 1
    last."""
    edges = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)]
    g = ColouredGraph.build(7, tuple(range(1, 8)), edges)
    outcomes = {True: 0, False: 0}
    for a, b in [(0, 1), (1, 0), (0, 3), (3, 0)]:
        check_phi_models(g, a, b, outcomes)
    assert min(outcomes.values()) > 0, outcomes


def test_tw2_solver_on_a_graph_where_the_attached_clauses_decide():
    """Colours 1 and 5 are used twice, so 0 | 5 and 1 | 4 must be split.
    3 reaches 1 only through 0: a form with the head 3-bag {0, 1, 3} under
    the root edge (0, 1) and no 2-bag {1, 3} would make the formula accept
    a split that leaves 3 cut off from its block."""
    edges = [(0, 1), (0, 3), (1, 4), (2, 4), (2, 5), (3, 6), (3, 8), (4, 5),
             (4, 7), (6, 8)]
    g = ColouredGraph.build(9, (1, 5, 2, 3, 5, 1, 4, 6, 7), edges)
    part = solve_2cp_treewidth2(g)
    assert part is not None and is_colourful_partition(g, part)
    assert find_two_partition(g) is not None


def test_phi_is_linear_in_the_decomposition():
    """Tying every subtree vertex to each cut pair, one clause per pair,
    would take 179,999 clauses on this cycle."""
    n = 300
    g = ColouredGraph.build(
        n, tuple(range(1, n)) + (1,), [(v, (v + 1) % n) for v in range(n)]
    )
    dec = normalize_for_2cp(g, 0, 1)
    same_coloured_pairs = 1
    phi = build_phi(g, dec, 0, 1)
    assert len(phi.clauses) <= 12 * len(dec.bags) + 2 * same_coloured_pairs + 2


# ---------------------------------------------------------------------------
# the cut-vertex certificate
# ---------------------------------------------------------------------------


def components_without(g, c):
    """The components of G - c, by plain search."""
    rest = [v for v in range(g.n) if v != c]
    return [{rest[v] for v in comp} for comp in connected_components(g.subgraph(rest))]


def hostless(g, c):
    """Whether no component of G - c holds a vertex of every same-coloured
    pair.  c lies in no component, so c's own pair counts only through its
    partner."""
    pairs = [set(vs) for vs in _colour_classes(g) if len(vs) == 2]
    return not any(all(comp & pair for pair in pairs) for comp in components_without(g, c))


def bad_components(g, c):
    """The components K of G - c such that K + c is not colourful."""
    return sum(not is_colourful_set(g, comp | {c}) for comp in components_without(g, c))


def glued_pieces(rng):
    """Two to four pieces, each glued at one vertex to the graph built so
    far, so every glue vertex is a cut vertex: a piece is a random connected
    graph on two to four vertices, or sometimes K4, so some graphs have
    treewidth 3.  n <= 13; some colour occurs twice and none more often."""
    n, edges = 1, []
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, 4)
        vs = [rng.randrange(n)] + list(range(n, n + size - 1))
        n += size - 1
        if size == 4 and rng.random() < 0.3:
            edges += combinations(vs, 2)
        else:
            edges += [(vs[rng.randrange(j)], vs[j]) for j in range(1, size)]
            edges += [rng.sample(vs, 2) for _ in range(rng.randint(0, size))]
    colours = random_colours_with_repeats(rng, n, rng.randint(1, n // 2))
    return ColouredGraph.build(n, colours, sorted({(min(e), max(e)) for e in edges}))


def test_cut_certificate_agrees_with_plain_search_and_two_block_search():
    rng = random.Random(22)
    seen = dict.fromkeys(["certified", "two bad", "under two bad", "yes", "wide"], 0)
    for _ in range(500):
        g = glued_pieces(rng)
        connected, c = _cut_certificate(g, _colour_classes(g))
        assert connected
        if c is None:
            assert not any(hostless(g, v) for v in range(g.n))
        else:
            assert hostless(g, c)
            seen["certified"] += 1
            seen["two bad" if bad_components(g, c) >= 2 else "under two bad"] += 1
        answer = find_two_partition(g)
        try:
            part = solve_2cp_treewidth2(g)
        except UnsupportedInstanceError:
            # only the width check refuses, after the certificate.  A piece of
            # width 3 can itself be a no-instance that no cut vertex shows,
            # but on these graphs the certificate answers every no-instance
            # the width check would refuse
            assert c is None and exact_tree_decomposition(g, 2) is None
            assert answer is not None
            seen["wide"] += 1
            continue
        assert (part is None) == (answer is None)
        if c is not None:
            assert part is None
        if part is not None:
            seen["yes"] += 1
            assert is_colourful_partition(g, part)
    assert min(seen.values()) >= 50, seen


def test_cut_certificate_partner_rule_alone():
    """The path 2 - 1 - 0 - 3 - 4 - 5 with colours 3, 1, 1, 2, 4, 2.  For
    every vertex, at most one component of G - v repeats a colour inside
    itself, so only the partner rule can answer.  G - 0 has {1, 2} and
    {3, 4, 5}; {3, 4, 5} repeats colour 2, and {1, 2} holds vertex 0's
    partner 1, so the block without 0 would need both 1 and one of 3 and
    5.  G - 3 fails in the same way."""
    g = ColouredGraph.build(6, (1, 1, 3, 2, 4, 2), [(0, 1), (0, 3), (1, 2), (3, 4), (4, 5)])
    for v in range(g.n):
        repeating = [comp for comp in components_without(g, v) if not is_colourful_set(g, comp)]
        assert len(repeating) <= 1
    c = _cut_certificate(g, _colour_classes(g))[1]
    assert c in (0, 3) and hostless(g, c) and bad_components(g, c) == 2
    assert solve_2cp_treewidth2(g) is None
    assert find_two_partition(g) is None


def test_one_bad_component_falls_through_to_the_formulas():
    """G - 0 has the components {1, 2, 3}, which repeats colour 2, and
    {4, 5}.  The first meets the only pair, so the certificate stays silent
    and the formulas find the block {3}."""
    g = ColouredGraph.build(6, (1, 2, 3, 2, 4, 5), [(0, 1), (0, 4), (1, 2), (2, 3), (4, 5)])
    assert bad_components(g, 0) == 1
    assert _cut_certificate(g, _colour_classes(g)) == (True, None)
    stats = {}
    part = solve_2cp_treewidth2(g, stats)
    assert part is not None and len(part) == 2 and is_colourful_partition(g, part)
    assert stats["formulas"] >= 1


def test_cut_certificate_on_a_long_path_is_linear_and_iterative():
    """Pairs span the cut vertices: colours 1..k twice, then k+1..2k
    twice.  Removing the last vertex of the third quarter leaves two sides
    that each miss a pair.  At n = 40,000 a recursive search would pass the
    interpreter's recursion limit, and one search per cut vertex would take
    minutes."""
    k = 10_000
    colours = list(range(1, k + 1)) * 2 + list(range(k + 1, 2 * k + 1)) * 2
    g = ColouredGraph.build(4 * k, colours, [(i, i + 1) for i in range(4 * k - 1)])
    start = time.perf_counter()
    connected, c = _cut_certificate(g, _colour_classes(g))
    assert time.perf_counter() - start < 2
    assert connected
    assert c is not None and 0 < c < 4 * k - 1
    assert hostless(g, c)
    # colours 1..k twice along the path: the middle splits every pair
    half = ColouredGraph.build(2 * k, colours[: 2 * k], [(i, i + 1) for i in range(2 * k - 1)])
    assert _cut_certificate(half, _colour_classes(half)) == (True, None)


# ---------------------------------------------------------------------------
# scale: the two-cycle family and outerplanar no-instances
# ---------------------------------------------------------------------------


def two_cycles(n):
    """Two cycles of L = (n - 1) // 2 vertices, each repeating its first
    colour at the antipode, joined through a cut vertex adjacent to the
    first two vertices of each."""
    length = (n - 1) // 2
    cut = 2 * length
    edges = []
    for base in (0, length):
        edges += [(base + i, base + (i + 1) % length) for i in range(length)]
        edges += [(base, cut), (base + 1, cut)]
    colours = list(range(1, cut + 2))
    colours[length // 2] = colours[0]
    colours[length + length // 2] = colours[length]
    return ColouredGraph.build(cut + 1, colours, sorted((min(e), max(e)) for e in edges))


def outerplanar_edges(rng, size, base=0):
    """The cycle base..base+size-1 plus some chords of a random
    triangulation of it: outerplanar, so treewidth at most 2."""
    edges = [(base + i, base + (i + 1) % size) for i in range(size)]
    polygon = list(range(size))
    while len(polygon) > 3:
        i = rng.randrange(len(polygon))
        if rng.random() < 0.6:
            edges.append((base + polygon[i - 1], base + polygon[(i + 1) % len(polygon)]))
        del polygon[i]
    return edges


def outerplanar_no(rng, n):
    """Two outerplanar pieces that each repeat one colour, hung off a cut
    vertex by a triangle each, with the vertices relabelled at random."""
    n1 = (n - 1) // 2
    n2 = n - 1 - n1
    cut = n - 1
    edges = outerplanar_edges(rng, n1) + outerplanar_edges(rng, n2, n1)
    edges += [(0, cut), (n1 - 1, cut), (n1, cut), (n - 2, cut)]
    colours = list(range(1, n + 1))
    colours[rng.randrange(1, n1)] = colours[0]
    colours[rng.randrange(n1 + 1, n1 + n2)] = colours[n1]
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = [0] * n
    for v in range(n):
        relabelled[perm[v]] = colours[v]
    return ColouredGraph.build(
        n, relabelled, sorted({(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges})
    )


def test_two_cycle_family_is_answered_without_formulas():
    for n in range(9, 31, 2):
        g = two_cycles(n)
        stats = {}
        assert solve_2cp_treewidth2(g, stats) is None and stats == {}
        assert find_two_partition(g) is None
    g = two_cycles(1601)
    start = time.perf_counter()
    assert solve_2cp_treewidth2(g) is None
    assert time.perf_counter() - start < 0.5


def test_outerplanar_no_instances_are_answered_without_formulas():
    rng = random.Random(5)
    for n in range(9, 31):
        g = outerplanar_no(rng, n)
        stats = {}
        assert solve_2cp_treewidth2(g, stats) is None and stats == {}
        assert find_two_partition(g) is None
    g = outerplanar_no(rng, 10_000)
    start = time.perf_counter()
    assert solve_2cp_treewidth2(g) is None
    assert time.perf_counter() - start < 0.5
