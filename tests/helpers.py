"""Shared random-instance generators and an exhaustive free-tree catalogue."""

from __future__ import annotations

import random
from functools import lru_cache

from colourful.graph import ColouredGraph

Edge = tuple[int, int]


def random_coloured_graph(
    rng: random.Random,
    n_max: int = 9,
    colours_max: int = 4,
    extra_edges: int = 3,
    connected: bool = False,
) -> ColouredGraph:
    n = rng.randint(1, n_max)
    edges: set[Edge] = set()
    if connected:
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    budget = rng.randint(0, extra_edges) if connected else rng.randint(0, n + extra_edges)
    for u, v in rng.sample(all_pairs, min(len(all_pairs), budget)):
        edges.add((u, v))
    k = rng.randint(1, colours_max)
    cols = tuple(rng.randint(1, k) for _ in range(n))
    return ColouredGraph.build(n, cols, sorted(edges))


def random_tree_edges(rng: random.Random, n: int, max_degree: int | None = None) -> list[Edge]:
    """A random labelled tree; optionally with bounded degree."""
    edges: list[Edge] = []
    deg = [0] * n
    for v in range(1, n):
        cands = [u for u in range(v) if max_degree is None or deg[u] < max_degree]
        u = rng.choice(cands)
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return edges


def random_colours_with_repeats(
    rng: random.Random, n: int, repeated_pairs: int
) -> tuple[int, ...]:
    """Colours where exactly ``repeated_pairs`` colours appear twice and the
    rest are unique."""
    repeated_pairs = min(repeated_pairs, n // 2)
    cols = list(range(1, n - repeated_pairs + 1))
    cols += list(range(1, repeated_pairs + 1))
    rng.shuffle(cols)
    return tuple(cols)


def random_partial_2tree(rng: random.Random, n: int) -> list[Edge]:
    """Edges of a connected spanning subgraph of a random 2-tree on n >= 2
    vertices, so treewidth at most 2.  Each new vertex joins both ends of
    an earlier 2-tree edge; one of its two edges is always kept."""
    tree_edges = [(0, 1)]
    kept = {(0, 1)}
    for v in range(2, n):
        a, b = rng.choice(tree_edges)
        tree_edges += [(a, v), (b, v)]
        first, second = rng.sample([(a, v), (b, v)], 2)
        kept.add(first)
        if rng.random() < 0.5:
            kept.add(second)
    return sorted(kept)


def k4_and_cycle(n: int) -> ColouredGraph:
    """K4 on 0..3 and a cycle through 3 and the other n - 4 vertices, so
    treewidth 3; every colour is used twice when n is even."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(v, v + 1) for v in range(3, n - 1)] + [(n - 1, 3)]
    return ColouredGraph.build(n, tuple(v % (n // 2) + 1 for v in range(n)), edges)


def _rooted_shape(root: int, parent: int, adj: list[list[int]]) -> str:
    subs = sorted(
        _rooted_shape(w, root, adj) for w in adj[root] if w != parent
    )
    return "(" + "".join(subs) + ")"


def tree_shape(n: int, edges: list[Edge]) -> str:
    """Isomorphism-invariant string for a free tree (canonical form rooted
    at the tree's one or two centres)."""
    if n == 1:
        return "()"
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    alive = set(range(n))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return min(_rooted_shape(c, -1, adj) for c in alive)


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[tuple[Edge, ...], ...]:
    """All free trees on n vertices, one labelled representative each,
    generated by attaching a leaf everywhere on each (n-1)-vertex tree."""
    if n == 1:
        return ((),)
    out: dict[str, tuple[Edge, ...]] = {}
    for smaller in free_trees(n - 1):
        for attach in range(n - 1):
            edges = smaller + ((attach, n - 1),)
            out.setdefault(tree_shape(n, list(edges)), edges)
    return tuple(out.values())
