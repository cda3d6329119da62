"""Seeded instance families whose optimum is pinned by a certificate or a
property, so every answer of `colourful solve` can be checked without a
stored copy of an earlier output, and the three workloads built from them.

`example1` and the NAE rows come from the program's own generators
(`colourful.gadgets`); the other families are built here.  Every family
keeps each instance within what the program answers today: in particular
tree height stays far below Python's recursion limit, which the recursive
`decomposition.to_nice` would otherwise hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checker import adjacency, cut_certificate_error, nae_satisfiable, pair_cut_certificate_error

Edge = tuple[int, int]


@dataclass
class Row:
    """One `solve` call and what its answer must be.

    ``expect`` is the exact optimum, or None when the row must answer
    "none" (no partition with at most ``--k`` blocks).  Rows with a ``twin``
    are tree rows: their optimum is only known to be at least ``lower`` and
    to differ from the twin's by one (blocks = deletions + 1).  ``witness``,
    ``cut`` and ``pairs`` are the certificates the generator planted; the
    benchmark does not need them, the tests of the generators check them.
    """

    name: str
    family: str
    problem: str
    n: int
    colours: list[int]
    edges: list[Edge]
    args: tuple[str, ...] = ()
    expect: int | None = None
    lower: int = 1
    twin: str | None = None
    witness: list | None = None  # a planted solution of size `expect`, when there is one
    cut: int | None = None  # the vertex that certifies a "none" row
    pairs: list[Edge] | None = None  # same-coloured pairs that bound the deletions
    adj: list[set[int]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.adj = adjacency(self.n, self.edges)


def _shuffled(rng: random.Random, n: int, colours, edges):
    """Relabel vertices by a seeded permutation; returns (permutation, colours, edges)."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_colours = [0] * n
    for v in range(n):
        new_colours[perm[v]] = colours[v]
    new_edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return perm, new_colours, new_edges


def _shift(edges: list[Edge], off: int) -> list[Edge]:
    return [(u + off, v + off) for u, v in edges]


# ---------------------------------------------------------------------------
# tw-dp
# ---------------------------------------------------------------------------


def example1_rows(k: int) -> list[Row]:
    """`gen_example1(k)` as the program writes it: partition 2 and
    components 2k.  The DP needs `--algo dp`, since `auto` answers example1
    by the vertex-cover kernel.  The rows do not depend on the seed."""
    from colourful.gadgets import gen_example1

    g = gen_example1(k)
    colours, edges = list(g.colours), g.edges()
    args = ("--algo", "dp", "--max-colours", str(k + 2))
    # twins u_i = i and v_i = k + i share colour i + 1; the hubs are 2k and 2k + 1
    blocks = [list(range(k)) + [2 * k], list(range(k, 2 * k)) + [2 * k + 1]]
    cut_off_v = [(k + i, hub) for i in range(k) for hub in (2 * k, 2 * k + 1)]
    return [
        Row(f"ex1-k{k}-p", "example1", "partition", g.n, colours, edges, args, 2,
            witness=blocks),
        Row(f"ex1-k{k}-c", "example1", "components", g.n, colours, edges, args, 2 * k,
            witness=cut_off_v),
    ]


def _planted_piece(rng: random.Random, width: int, blocks: int) -> tuple[list[int], list[Edge]]:
    """A path-like `width`-tree cut into `blocks` consecutive runs of four
    vertices.  Each run has colour 1 and three distinct colours from 2..6.

    Each new vertex joins the previous vertex and `width - 1` members of the
    clique the previous vertex joined.  So consecutive vertices are adjacent
    (every run is connected), the graph is a `width`-tree, and the min-degree
    elimination the program uses finds bags of at most `width + 1` vertices.
    Vertex ids follow the construction order."""
    colours: list[int] = []
    for _ in range(blocks):
        colours += [1] + rng.sample(range(2, 7), 3)
    edges: set[Edge] = set()
    joined: list[list[int]] = [[]]
    for v in range(1, len(colours)):
        prev = joined[v - 1]
        clique = sorted(rng.sample(prev, min(len(prev), width - 1)) + [v - 1])
        joined.append(clique)
        edges.update((u, v) for u in clique)
    return colours, sorted(edges)


def planted_row(rng: random.Random, tag: str) -> Row:
    """Three disjoint planted pieces, of widths 3, 4 and 3, each cut into
    two runs, so the treewidth is 4.  Colour 1 occurs once per run, so no
    partition has fewer blocks than there are runs, and the runs are such a
    partition: the optimum is exactly 6.  Summing independent pieces keeps
    the cost of one row close to that of the next."""
    colours: list[int] = []
    edges: list[Edge] = []
    for width in (3, 4, 3):
        piece_colours, piece_edges = _planted_piece(rng, width, 2)
        edges += _shift(piece_edges, len(colours))
        colours += piece_colours
    runs = [list(range(i, i + 4)) for i in range(0, len(colours), 4)]
    return Row(f"planted-{tag}", "planted", "partition", len(colours), colours, edges,
               (), len(runs), witness=runs)


def _ktree(rng: random.Random, n: int, width: int) -> tuple[list[Edge], list[list[int]]]:
    """A random `width`-tree on `n` vertices: a clique of `width + 1`, then
    each new vertex joins a `width`-clique of an earlier maximal clique.
    Returns the edges and the maximal cliques."""
    edges = {(u, v) for v in range(width + 1) for u in range(v)}
    cliques = [list(range(width + 1))]
    for v in range(width + 1, n):
        base = rng.choice(cliques)
        joined = sorted(rng.sample(base, width))
        edges.update((u, v) for u in joined)
        cliques.append(joined + [v])
    return sorted(edges), cliques


def bridged_row(rng: random.Random, tag: str) -> Row:
    """Colourful components on two disjoint pieces.  Each piece is two
    colourful 3-trees of five vertices (colours from 1..6, so some colour
    occurs on both sides), joined by three bridges from a triangle of one
    side to a triangle of the other.  Deleting the six bridges leaves
    colourful components.  No smaller set does: each side is 3-edge-connected,
    so two same-coloured vertices on opposite sides of a piece are joined by
    three edge-disjoint paths (`checker.pair_cut_certificate_error`, which
    the generator checks).  The optimum is exactly 6."""
    width, size = 3, 5
    colours: list[int] = []
    edges: list[Edge] = []
    bridges: list[Edge] = []
    for _ in range(2):
        off = len(colours)
        sides = [_ktree(rng, size, width), _ktree(rng, size, width)]
        ends = [rng.sample(rng.choice(cliques), width) for _, cliques in sides]
        edges += _shift(sides[0][0], off) + _shift(sides[1][0], off + size)
        bridges += [(off + u, off + size + v) for u, v in zip(*ends)]
        colours += rng.sample(range(1, 7), size) + rng.sample(range(1, 7), size)
    n = len(colours)
    perm, new_colours, new_edges = _shuffled(rng, n, colours, edges + bridges)
    pairs = []
    for off in (0, 2 * size):
        shared = min(set(colours[off:off + size]) & set(colours[off + size:off + 2 * size]))
        pairs.append((perm[colours.index(shared, off)], perm[colours.index(shared, off + size)]))
    cut = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in bridges)
    row = Row(f"bridged-{tag}", "bridged", "components", n, new_colours, new_edges, (),
              len(bridges), witness=cut, pairs=pairs)
    error = pair_cut_certificate_error(n, new_colours, row.adj, pairs, row.expect)
    if error:
        raise AssertionError(f"{row.name}: {error}")
    return row


# ---------------------------------------------------------------------------
# two-block
# ---------------------------------------------------------------------------


def _outerplanar(rng: random.Random, size: int) -> list[Edge]:
    """A cycle 0..size-1 plus a random subset of the chords of a random
    triangulation of that polygon: outerplanar, so treewidth at most 2."""
    edges = {(min(i, (i + 1) % size), max(i, (i + 1) % size)) for i in range(size)}
    polygon = list(range(size))
    while len(polygon) > 3:
        i = rng.randrange(len(polygon))
        a, b = polygon[i - 1], polygon[(i + 1) % len(polygon)]
        if rng.random() < 0.6:
            edges.add((min(a, b), max(a, b)))
        del polygon[i]
    return sorted(edges)


def outerplanar_yes_row(rng: random.Random, n: int, tag: str) -> Row:
    """Two colourful outerplanar sides joined along a quadrilateral face, so
    the union stays outerplanar.  Some colours occur once on each side, so
    the graph is not colourful and the optimum is exactly 2."""
    n1 = n // 2
    n2 = n - n1
    side1 = list(range(1, n1 + 1))
    shared = rng.sample(side1, rng.randint(2, min(n1, n2) // 2))
    side2 = shared + list(range(n1 + 1, n1 + 1 + n2 - len(shared)))
    rng.shuffle(side2)
    edges = _outerplanar(rng, n1) + _shift(_outerplanar(rng, n2), n1)
    # (0, n1-1) and (n1, n-1) are outer-cycle edges of the two sides
    edges += [(0, n1), (n1 - 1, n - 1)]
    perm, colours, edges = _shuffled(rng, n, side1 + side2, edges)
    sides = [[perm[v] for v in range(n1)], [perm[v] for v in range(n1, n)]]
    return Row(f"op-yes-{tag}", "outerplanar-yes", "partition", n, colours, edges,
               ("--k", "2"), 2, witness=sides)


def outerplanar_no_row(rng: random.Random, n: int, tag: str) -> Row:
    """Two outerplanar pieces that each repeat one colour, hung off a cut
    vertex by a triangle each; every colour occurs at most twice.  The cut
    vertex certifies that no two-block partition exists (see
    `checker.cut_certificate_error`), which the generator checks."""
    n1 = (n - 1) // 2
    n2 = n - 1 - n1
    c1 = list(range(1, n1))
    c1.insert(rng.randrange(1, n1), c1[0])
    c2 = list(range(n1, n1 + n2 - 1))
    c2.insert(rng.randrange(1, n2), c2[0])
    cut_colour = n1 + n2
    edges = _outerplanar(rng, n1) + _shift(_outerplanar(rng, n2), n1)
    cut = n - 1
    edges += [(0, cut), (n1 - 1, cut), (n1, cut), (n - 2, cut)]
    perm, colours, edges = _shuffled(rng, n, c1 + c2 + [cut_colour], edges)
    row = Row(f"op-no-{tag}", "outerplanar-no", "partition", n, colours, edges,
              ("--k", "2"), None, cut=perm[cut])
    error = cut_certificate_error(n, colours, row.adj, row.cut)
    if error:
        raise AssertionError(f"{row.name}: {error}")
    return row


def nae_formula(rng: random.Random, nvars: int, nclauses: int) -> list[tuple[int, ...]]:
    """Random all-positive 3-CNF that uses every variable."""
    while True:
        clauses = [tuple(sorted(rng.sample(range(1, nvars + 1), 3))) for _ in range(nclauses)]
        if {x for cl in clauses for x in cl} == set(range(1, nvars + 1)):
            return clauses


def nae_row(rng: random.Random, nvars: int, tag: str) -> Row:
    """`reduce_nae3sat_pathwidth` of a random three-clause formula: two
    blocks suffice iff the formula is NAE-satisfiable, which is decided
    here exhaustively."""
    from colourful.gadgets import reduce_nae3sat_pathwidth

    clauses = nae_formula(rng, nvars, 3)
    g, _ = reduce_nae3sat_pathwidth(clauses)
    expect = 2 if nae_satisfiable(nvars, clauses) else None
    return Row(f"nae-v{nvars}-{tag}", "nae", "partition", g.n, list(g.colours),
               g.edges(), ("--k", "2"), expect)


# ---------------------------------------------------------------------------
# large-sparse
# ---------------------------------------------------------------------------


def two_coloured_rows(rng: random.Random, n: int, tag: str) -> list[Row]:
    """Colour classes A (the smaller) and B with a planted matching that
    saturates A, plus random edges up to m = 3n, some inside a class.  A
    maximum bichromatic matching has |A| edges, so partition = |B| and
    components = m - |A|."""
    a = rng.randint(n * 2 // 5, n * 9 // 20)
    colours = [1] * a + [2] * (n - a)
    matching = list(zip(range(a), rng.sample(range(a, n), a)))
    edges = set(matching)
    while len(edges) < 3 * n:
        u, w = rng.randrange(n), rng.randrange(n)
        if u != w:
            edges.add((min(u, w), max(u, w)))
    perm, colours, edge_list = _shuffled(rng, n, colours, sorted(edges))
    pairs = {(min(perm[u], perm[w]), max(perm[u], perm[w])) for u, w in matching}
    matched = {v for pair in pairs for v in pair}
    blocks = [list(p) for p in sorted(pairs)] + [[v] for v in range(n) if v not in matched]
    deleted = [e for e in edge_list if e not in pairs]
    m = len(edge_list)
    return [
        Row(f"bi{n}-{tag}-p", "two-coloured", "partition", n, colours, edge_list, (), n - a,
            witness=blocks),
        Row(f"bi{n}-{tag}-c", "two-coloured", "components", n, colours, edge_list, (), m - a,
            witness=deleted),
    ]


def tree_rows(rng: random.Random, n: int, ncolours: int, tag: str) -> list[Row]:
    """A random recursive tree (each vertex hangs off a uniform earlier one,
    so its height is about e*ln(n)) for both problems.  The rows are twins:
    blocks = deletions + 1 on every tree, and no partition is smaller than
    the largest colour class."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    height = [0] * n
    for u, v in edges:
        height[v] = height[u] + 1
    if max(height) > 100:
        raise AssertionError(f"tree {tag} is {max(height)} deep")
    colours = [rng.randint(1, ncolours) for _ in range(n)]
    _, colours, edges = _shuffled(rng, n, colours, edges)
    lower = max(colours.count(c) for c in set(colours))
    p, c = f"tree{n}-{tag}-p", f"tree{n}-{tag}-c"
    return [
        Row(p, "tree", "partition", n, colours, edges, (), None, lower, c),
        Row(c, "tree", "components", n, colours, edges, (), None, lower - 1, p),
    ]


# ---------------------------------------------------------------------------
# Workloads: one round of rows each.  A run repeats whole rounds.
# ---------------------------------------------------------------------------


def tw_dp(rng: random.Random) -> list[Row]:
    rows = example1_rows(5) + example1_rows(6)
    rows += [planted_row(rng, str(i)) for i in range(24)]
    rows += [bridged_row(rng, str(i)) for i in range(12)]
    return rows


def two_block(rng: random.Random) -> list[Row]:
    rows = [outerplanar_no_row(rng, 26, str(i)) for i in range(22)]
    rows += [nae_row(rng, 5 + i % 4, str(i)) for i in range(10)]
    rows += [outerplanar_yes_row(rng, 30, str(i)) for i in range(8)]
    return rows


def large_sparse(rng: random.Random) -> list[Row]:
    rows: list[Row] = []
    for i in range(2):
        rows += two_coloured_rows(rng, 2000, str(i))
    for i in range(16):
        rows += tree_rows(rng, 700, 3, str(i))
    rows += two_coloured_rows(rng, 3000, "big") + tree_rows(rng, 1500, 4, "big")
    return rows


WORKLOADS = {"tw-dp": tw_dp, "two-block": two_block, "large-sparse": large_sparse}
