"""Instance generators: the two-block/many-deletions family, and the four
hardness-reduction families (vertex cover into 3-coloured cubic-style
instances, multicut on trees into coloured trees, 3-SAT into split graphs,
and not-all-equal positive 3-SAT into planar bipartite graphs that come
with a width-3 path decomposition).  The NAE graph and its path
decomposition are both read off one left-to-right list of ladder columns,
so the two cannot drift apart.  Also small structural validators used to
check the advertised graph classes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .decomposition import TreeDecomposition
from .graph import (
    ColouredGraph,
    Edge,
    EdgeSet,
    Partition,
    canonical_partition,
    components,
    is_connected,
    norm_edge,
    search,
)


# ---------------------------------------------------------------------------
# The family separating the two problems
# ---------------------------------------------------------------------------


def gen_example1(k: int) -> ColouredGraph:
    """Two hubs adjacent to everything and to each other, plus k colour
    classes {u_i, v_i} of twins.  Minimum colourful partition size is 2 for
    every k >= 1, while the minimum number of deletions is 2k."""
    if k < 1:
        raise ValueError("k must be positive")
    colours = tuple(
        [i + 1 for i in range(k)] + [i + 1 for i in range(k)] + [k + 1, k + 2]
    )
    w, wp = 2 * k, 2 * k + 1
    edges: list[Edge] = [(w, wp)]
    for i in range(k):
        edges += [(i, w), (i, wp), (k + i, w), (k + i, wp)]
    return ColouredGraph.build(2 * k + 2, colours, edges)


# ---------------------------------------------------------------------------
# Vertex cover -> 3-coloured graphs of maximum degree 3
# ---------------------------------------------------------------------------


def _check_vc_input(
    n: int, edges: Sequence[Edge], edge_colours: Mapping[Edge, int]
) -> list[Edge]:
    es = sorted(norm_edge(u, v) for u, v in edges)
    if len(set(es)) != len(es):
        raise ValueError("duplicate edges")
    deg = [0] * n
    for u, v in es:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        deg[u] += 1
        deg[v] += 1
    if any(d != 3 for d in deg):
        raise ValueError("input graph must be cubic")
    incident: dict[int, set[int]] = {v: set() for v in range(n)}
    for e in es:
        colour = edge_colours.get(e)
        if colour not in (1, 2, 3):
            raise ValueError(f"edge {e} needs a colour in {{1,2,3}}")
        for v in e:
            if colour in incident[v]:
                raise ValueError("edge colouring is not proper")
            incident[v].add(colour)
    return es


class _VcLayout:
    """Vertex numbering shared by the generator and its witness builders.

    Vertex j of the input graph owns a 9-vertex gadget: for each arm colour
    i in {1,2,3} the vertices 9j+3(i-1)+{0,1,2} are the arm's inner, middle
    and outer vertex, coloured i, i-1 and i+1 (wrapping in {1,2,3}).  The
    inner vertices form a triangle.  Edge number t of the input graph owns
    vertex 9n+t whose colour is the edge's colour; it joins the outer
    vertices of the matching arms of both endpoint gadgets.
    """

    def __init__(
        self, n: int, edges: Sequence[Edge], edge_colours: Mapping[Edge, int]
    ):
        self.n = n
        self.edges = _check_vc_input(n, edges, edge_colours)
        self.edge_colours = {e: edge_colours[e] for e in self.edges}

    def inner(self, j: int, i: int) -> int:
        return 9 * j + 3 * (i - 1)

    def mid(self, j: int, i: int) -> int:
        return 9 * j + 3 * (i - 1) + 1

    def outer(self, j: int, i: int) -> int:
        return 9 * j + 3 * (i - 1) + 2

    def red(self, t: int) -> int:
        return 9 * self.n + t

    def graph(self) -> ColouredGraph:
        colours = [0] * (9 * self.n + len(self.edges))
        out: list[Edge] = []
        for j in range(self.n):
            for i in (1, 2, 3):
                colours[self.inner(j, i)] = i
                colours[self.mid(j, i)] = (i - 2) % 3 + 1
                colours[self.outer(j, i)] = i % 3 + 1
                out.append((self.inner(j, i), self.mid(j, i)))
                out.append((self.mid(j, i), self.outer(j, i)))
            out.append((self.inner(j, 1), self.inner(j, 2)))
            out.append((self.inner(j, 2), self.inner(j, 3)))
            out.append((self.inner(j, 1), self.inner(j, 3)))
        for t, (u, v) in enumerate(self.edges):
            i = self.edge_colours[(u, v)]
            colours[self.red(t)] = i
            out.append((self.outer(u, i), self.red(t)))
            out.append((self.outer(v, i), self.red(t)))
        return ColouredGraph.build(len(colours), tuple(colours), out)


def reduce_vc(
    n: int, edges: Sequence[Edge], edge_colours: Mapping[Edge, int]
) -> ColouredGraph:
    """Instance whose minimum colourful partition is 3n + (minimum vertex
    cover size) for a cubic input graph with a proper 3-edge-colouring.
    Output is 3-coloured with maximum degree 3."""
    return _VcLayout(n, edges, edge_colours).graph()


def vc_witness_partition(
    n: int,
    edges: Sequence[Edge],
    edge_colours: Mapping[Edge, int],
    cover: Iterable[int],
) -> Partition:
    """Colourful partition of size 3n + |cover| for the generated instance,
    given a vertex cover of the input graph."""
    lay = _VcLayout(n, edges, edge_colours)
    cover_set = set(cover)
    for u, v in lay.edges:
        if u not in cover_set and v not in cover_set:
            raise ValueError("not a vertex cover")
    claimed: set[int] = set()
    blocks: list[frozenset[int]] = []
    for j in range(n):
        if j in cover_set:
            blocks.append(
                frozenset(lay.inner(j, i) for i in (1, 2, 3))
            )
            for i in (1, 2, 3):
                arm = {lay.mid(j, i), lay.outer(j, i)}
                for t, e in enumerate(lay.edges):
                    if j in e and lay.edge_colours[e] == i and t not in claimed:
                        claimed.add(t)
                        arm.add(lay.red(t))
                blocks.append(frozenset(arm))
        else:
            for i in (1, 2, 3):
                blocks.append(
                    frozenset(
                        {lay.inner(j, i), lay.mid(j, i), lay.outer(j, i)}
                    )
                )
    assert len(claimed) == len(lay.edges), "cover property claims every edge"
    return canonical_partition(blocks)


def vc_witness_deletions(
    n: int, edges: Sequence[Edge], edge_colours: Mapping[Edge, int]
) -> EdgeSet:
    """The 3n + m edge deletions (three inner spokes per gadget plus one
    side of every edge vertex) after which every component is colourful."""
    lay = _VcLayout(n, edges, edge_colours)
    out: set[Edge] = set()
    for j in range(n):
        for i in (1, 2, 3):
            out.add(norm_edge(lay.inner(j, i), lay.mid(j, i)))
    for t, (u, v) in enumerate(lay.edges):
        i = lay.edge_colours[(u, v)]
        out.add(norm_edge(lay.outer(max(u, v), i), lay.red(t)))
    return frozenset(out)


def k4_with_edge_colouring() -> tuple[int, list[Edge], dict[Edge, int]]:
    """The complete graph on four vertices with its canonical proper
    3-edge-colouring (perfect matchings as colour classes)."""
    colours = {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3}
    return 4, sorted(colours), colours


# ---------------------------------------------------------------------------
# Multicut on trees -> coloured trees of maximum degree 6
# ---------------------------------------------------------------------------


def reduce_multicut_tree(
    n: int,
    tree_edges: Sequence[Edge],
    pairs: Sequence[tuple[int, int]],
    hardened: bool = False,
) -> ColouredGraph:
    """Coloured tree whose minimum colourful partition is (multicut size)+1.

    Every terminal pair gets a private colour on two fresh vertices hung
    off its endpoints, grouped per incident edge into paths so that degrees
    stay at most twice the input degree.  With ``hardened`` the whole tree
    is doubled (second copies of the pair colours are fresh) and stitched
    together through two bridge vertices sharing one new colour, so every
    colour occurs exactly twice; the partition bound doubles.
    """
    es = sorted(norm_edge(u, v) for u, v in tree_edges)
    if len(es) != n - 1 or len(set(es)) != len(es):
        raise ValueError("need exactly n-1 distinct edges")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in es:
        adj[u].add(v)
        adj[v].add(u)
    if any(len(a) > 3 for a in adj):
        raise ValueError("input tree must be binary")
    parent = search(adj, 0)
    if len(parent) != n:
        raise ValueError("edges do not form a tree")
    norm_pairs = [tuple(sorted(p)) for p in pairs]
    if len(set(norm_pairs)) != len(norm_pairs):
        raise ValueError("duplicate terminal pairs")
    for u, v in norm_pairs:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad terminal pair ({u},{v})")

    depth = [0] * n
    for w, u in parent.items():
        if u is not None:
            depth[w] = depth[u] + 1

    def path_neighbour(v: int, u: int) -> int:
        """Neighbour of v on the tree path from v to u: the child of v above
        u when u lies below v, otherwise v's parent."""
        while depth[u] > depth[v] + 1:
            u = parent[u]
        return u if parent[u] == v else parent[v]

    pair_index = {p: t for t, p in enumerate(norm_pairs)}
    colours: list[int] = [v + 1 for v in range(n)]
    new_edges: list[Edge] = list(es)
    next_id = n
    for v in range(n):
        groups: dict[int, list[int]] = {w: [] for w in sorted(adj[v])}
        for u, w in norm_pairs:
            if v in (u, w):
                mate = w if v == u else u
                groups[path_neighbour(v, mate)].append(mate)
        for w in sorted(groups):
            prev = v
            for mate in sorted(groups[w]):
                vid = next_id
                next_id += 1
                t = pair_index[tuple(sorted((v, mate)))]
                colours.append(n + t + 1)
                new_edges.append(norm_edge(prev, vid))
                prev = vid
    g = ColouredGraph.build(next_id, tuple(colours), new_edges)
    if not hardened:
        return g

    big = g.n
    pair_count = len(norm_pairs)
    col2 = list(g.colours)
    for v in range(big):
        if g.colours[v] > n:  # a pair colour: refresh it in the second copy
            col2[v] = g.colours[v] + pair_count
    leaves = [v for v in range(big) if g.degree(v) == 1]
    if not leaves:
        raise ValueError("hardened variant needs at least two vertices")
    x = min(leaves)
    y1, y2 = 2 * big, 2 * big + 1
    y_colour = n + 2 * pair_count + 1
    colours_all = list(g.colours) + col2 + [y_colour, y_colour]
    edges_all = list(g.edges())
    edges_all += [(u + big, v + big) for u, v in g.edges()]
    edges_all += [(x, y1), (y1, y2), (y2, x + big)]
    return ColouredGraph.build(2 * big + 2, tuple(colours_all), edges_all)


# ---------------------------------------------------------------------------
# 3-SAT -> split graphs, two blocks
# ---------------------------------------------------------------------------


def reduce_3sat_split(clauses: Sequence[Sequence[int]]) -> ColouredGraph:
    """Split graph with a two-block colourful partition iff the 3-CNF is
    satisfiable.  Literals are nonzero integers; each clause must use three
    distinct variables."""
    if not clauses:
        raise ValueError("need at least one clause")
    for cl in clauses:
        if len(cl) != 3 or len({abs(l) for l in cl}) != 3 or 0 in cl:
            raise ValueError(f"clause {cl} must have three distinct variables")
    n = max(abs(l) for cl in clauses for l in cl)
    m = len(clauses)

    def lit_vertex(l: int) -> int:
        return 2 * (abs(l) - 1) + (0 if l > 0 else 1)

    y = lambda i: 2 * n + 2 * (i - 1)  # noqa: E731
    z = 4 * n
    cvert = lambda j: 4 * n + 1 + 2 * (j - 1)  # noqa: E731

    colours = [0] * (4 * n + 1 + 2 * m)
    for i in range(1, n + 1):
        colours[lit_vertex(i)] = 2 * i - 1
        colours[lit_vertex(-i)] = 2 * i
        colours[y(i)] = 2 * n + i
        colours[y(i) + 1] = 2 * n + i
    colours[z] = 3 * n + 1
    for j in range(1, m + 1):
        colours[cvert(j)] = 3 * n + 1 + j
        colours[cvert(j) + 1] = 3 * n + 1 + j

    edges: list[Edge] = []
    xs = [lit_vertex(l) for i in range(1, n + 1) for l in (i, -i)]
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            edges.append(norm_edge(xs[a], xs[b]))
    for i in range(1, n + 1):
        for yv in (y(i), y(i) + 1):
            edges.append(norm_edge(lit_vertex(i), yv))
            edges.append(norm_edge(lit_vertex(-i), yv))
    for xv in xs:
        edges.append(norm_edge(z, xv))
    for j, cl in enumerate(clauses, start=1):
        edges.append(norm_edge(z, cvert(j) + 1))
        for l in cl:
            edges.append(norm_edge(cvert(j), lit_vertex(l)))
    return ColouredGraph.build(len(colours), tuple(colours), edges)


# ---------------------------------------------------------------------------
# Not-all-equal positive 3-SAT -> planar bipartite graphs, path-width 3
# ---------------------------------------------------------------------------


def reduce_nae3sat_pathwidth(
    clauses: Sequence[Sequence[int]],
) -> tuple[ColouredGraph, TreeDecomposition]:
    """Bipartite maximum-degree-3 instance with a two-block colourful
    partition iff some assignment makes every clause non-constant; returns
    the graph together with a width-3 path decomposition.

    The graph is one twin-row ladder, read left to right as a list of
    (top, bottom) columns: per variable a segment a-b-c-d with a pendant
    path of fresh colours hanging off the top of c, two per occurrence; per
    clause a segment e-f-g-h-i whose g and h columns carry hanging paths,
    closed at their column's bottom, that repeat the occurrence colours of
    its three variables plus a twice-used clause colour.  The first two
    columns of every segment are crossed.  The edges and the bags are both
    read off that one list, so the two cannot drift apart.
    """
    for cl in clauses:
        if len(cl) != 3 or len(set(cl)) != 3 or any(l <= 0 for l in cl):
            raise ValueError(f"clause {cl} must have three distinct variables")
    n = max((l for cl in clauses for l in cl), default=0)
    if n == 0:
        raise ValueError("need at least one clause")
    colours: list[int] = []
    colour_ids: dict[tuple, int] = {}

    def vertex(colour_key: tuple) -> int:
        colours.append(colour_ids.setdefault(colour_key, len(colour_ids) + 1))
        return len(colours) - 1

    # per column: top, bottom, hanging path, and whether the path closes at
    # the bottom; `crossed` holds the first column of every segment
    columns: list[tuple[int, int, list[int], bool]] = []
    crossed: set[int] = set()

    def segment(index: int, names: str, hanging: dict[str, list[tuple]], closes: bool) -> None:
        crossed.add(len(columns))
        tops = [vertex((name, index)) for name in names]
        bots = [vertex((name, index)) for name in names]
        for name, top, bot in zip(names, tops, bots):
            path = [vertex(key) for key in hanging.get(name, ())]
            columns.append((top, bot, path, closes and name in hanging))

    counts = Counter(v for cl in clauses for v in cl)
    for i in range(1, n + 1):
        segment(i, "abcd", {"c": [("alpha", i, q) for q in range(1, 2 * counts[i] + 1)]}, False)
    seen: Counter[int] = Counter()
    for j, cl in enumerate(clauses, start=1):
        vg, vh, vi = sorted(cl)
        seen.update((vg, vh, vi))
        r, s, t = seen[vg], seen[vh], seen[vi]
        segment(j, "efghi", {
            "g": [("alpha", vg, 2 * r - 1), ("beta", j), ("alpha", vh, 2 * s)],
            "h": [("alpha", vg, 2 * r), ("beta", j), ("alpha", vi, 2 * t)],
        }, True)

    edges: list[Edge] = []
    bags: list[frozenset[int]] = []
    for q, (top, bot, path, closes) in enumerate(columns):
        chain = [top, *path, bot] if closes else [top, *path]
        edges += zip(chain, chain[1:])
        bags += (frozenset((top, bot, x, y)) for x, y in zip(path, path[1:]))
        if q + 1 < len(columns):
            ntop, nbot = columns[q + 1][:2]
            edges += [(top, ntop), (bot, nbot)]
            if q in crossed:
                edges += [(top, nbot), (bot, ntop)]
            bags.append(frozenset((top, bot, ntop, nbot)))

    g = ColouredGraph.build(len(colours), tuple(colours), edges)
    td = TreeDecomposition(tuple(bags), tuple((q, q + 1) for q in range(len(bags) - 1)))
    td.validate(g)
    assert td.width == 3 and td.is_path()
    return g, td


# ---------------------------------------------------------------------------
# Structural validators
# ---------------------------------------------------------------------------


def max_degree(g: ColouredGraph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def is_tree(g: ColouredGraph) -> bool:
    if g.n == 0:
        return False
    return g.m == g.n - 1 and is_connected(g)


def is_bipartite(g: ColouredGraph) -> bool:
    side = [0] * g.n
    for comp in components(g.adj, range(g.n)):
        for w, u in comp.items():
            if u is not None:
                side[w] = 1 - side[u]
    return all(side[u] != side[w] for u in range(g.n) for w in g.adj[u])


def is_split(g: ColouredGraph) -> bool:
    """Degree-sequence characterisation: with degrees sorted downwards and
    h the largest index with d_h >= h-1, the graph is split iff the first h
    degrees sum to h(h-1) plus the remaining degrees."""
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    h = 0
    for idx, d in enumerate(degs, start=1):
        if d >= idx - 1:
            h = idx
    lead = sum(degs[:h])
    rest = sum(degs[h:])
    return lead == h * (h - 1) + rest
