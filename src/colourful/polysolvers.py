"""Polynomial-time solvers: 2-SAT, bipartite matching, the matching-based
solver for two-coloured graphs, and the 2-SAT-based solver that decides
whether a connected graph of treewidth at most 2 splits into two colourful
connected blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .decomposition import (
    RootedDecomposition2CP,
    exact_tree_decomposition,
    normalize_for_2cp,
)
from .graph import (
    ColouredGraph,
    Partition,
    SolveResult,
    UnsupportedInstanceError,
    canonical_partition,
    connected_components,
    crossing_edges,
    is_colourful_partition,
    is_colourful_set,
)


# ---------------------------------------------------------------------------
# 2-SAT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoSatFormula:
    """CNF with at most two literals per clause.  Variables are 1..nvars and
    a literal is +v or -v; a unit clause repeats its literal."""

    nvars: int
    clauses: tuple[tuple[int, int], ...]

    def check(self, assignment: dict[int, bool]) -> bool:
        def lit(l: int) -> bool:
            return assignment[abs(l)] == (l > 0)

        return all(lit(x) or lit(y) for x, y in self.clauses)


def two_sat_solve(formula: TwoSatFormula) -> dict[int, bool] | None:
    """A satisfying assignment, or None.  Implication graph + Tarjan SCC;
    a variable is true when its positive literal's component is later in
    topological order (smaller Tarjan id) than its negative literal's."""
    n = formula.nvars
    # literal +v is node 2(v-1) and -v is node 2(v-1)+1, so x ^ 1 negates x
    succ: list[list[int]] = [[] for _ in range(2 * n)]
    for clause in formula.clauses:
        l0, l1 = clause
        x = 2 * l0 - 2 if l0 > 0 else -2 * l0 - 1
        y = 2 * l1 - 2 if l1 > 0 else -2 * l1 - 1
        if not (0 <= x < 2 * n and 0 <= y < 2 * n):
            raise ValueError(f"clause {clause} has a literal out of range")
        succ[x ^ 1].append(y)
        if x != y:
            succ[y ^ 1].append(x)

    # Tarjan on an explicit stack of (node, next edge) frames; a node that
    # has an index but no component yet is on the SCC stack
    index = [-1] * (2 * n)
    low = [0] * (2 * n)
    comp = [-1] * (2 * n)
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for start in range(2 * n):
        if index[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            v, i = work.pop()
            out_v = succ[v]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            elif low[out_v[i - 1]] < low[v]:
                low[v] = low[out_v[i - 1]]
            for i in range(i, len(out_v)):
                w = out_v[i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1

    out: dict[int, bool] = {}
    for v in range(n):
        pos, neg = comp[2 * v], comp[2 * v + 1]
        if pos == neg:
            return None
        out[v + 1] = pos < neg
    assert formula.check(out)
    return out


# ---------------------------------------------------------------------------
# Maximum bipartite matching (Hopcroft–Karp)
# ---------------------------------------------------------------------------


def hopcroft_karp(
    n_left: int, n_right: int, adj: Sequence[Iterable[int]]
) -> dict[int, int]:
    """Maximum matching of the bipartite graph with parts 0..n_left-1 and
    0..n_right-1; adj[u] lists right-neighbours of left vertex u.  Returns
    the matching as a left-to-right map."""
    INF = float("inf")
    adj_s = [sorted(set(a)) for a in adj]
    assert len(adj_s) == n_left
    for a in adj_s:
        assert all(0 <= v < n_right for v in a)
    match_l: list[int] = [-1] * n_left
    match_r: list[int] = [-1] * n_right
    dist: list[float] = [INF] * n_left

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj_s[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """Depth-first search along the BFS layers from the free vertex
        `root`, on an explicit stack since a path can be as long as the
        graph; flips the first augmenting path found.  A vertex from which
        no augmenting path starts leaves its layer."""
        path, via, nxt = [root], [], [0]  # left vertices, right vertices between them
        while path:
            u = path[-1]
            nbrs = adj_s[u]
            i = nxt[-1]
            while i < len(nbrs):
                v = nbrs[i]
                i += 1
                w = match_r[v]
                if w == -1:
                    via.append(v)
                    for a, b in zip(path, via):
                        match_l[a] = b
                        match_r[b] = a
                    return
                if dist[w] == dist[u] + 1:
                    nxt[-1] = i
                    path.append(w)
                    via.append(v)
                    nxt.append(0)
                    break
            else:
                dist[u] = INF
                path.pop()
                nxt.pop()
                if via:
                    via.pop()

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                augment(u)
    return {u: v for u, v in enumerate(match_l) if v != -1}


# ---------------------------------------------------------------------------
# Two-coloured graphs: both problems reduce to maximum matching
# ---------------------------------------------------------------------------


def solve_two_coloured(g: ColouredGraph, problem: str = "partition") -> SolveResult:
    """Exact solver for graphs using at most two colours.

    Same-coloured endpoints can never share a block, so only edges between
    the two colour classes matter and any solution keeps a matching of them:
    minimum partition size is n - |M| and minimum deletions is m - |M| for a
    maximum bichromatic matching M.
    """
    if problem not in ("partition", "components"):
        raise ValueError(f"unknown problem {problem!r}")
    colours = sorted(g.colour_set())
    if len(colours) > 2:
        raise ValueError("solver requires at most two colours")
    left = [v for v in range(g.n) if g.colours[v] == colours[0]]
    right = (
        [v for v in range(g.n) if g.colours[v] == colours[1]]
        if len(colours) == 2
        else []
    )
    rindex = {v: i for i, v in enumerate(right)}
    adj = [[rindex[w] for w in sorted(g.adj[u]) if w in rindex] for u in left]
    matching = hopcroft_karp(len(left), len(right), adj)
    pairs = sorted((left[u], right[v]) for u, v in matching.items())
    stats = {"matching": len(pairs)}
    matched = {u for p in pairs for u in p}
    blocks = [frozenset(p) for p in pairs]
    blocks.extend(frozenset({v}) for v in range(g.n) if v not in matched)
    if problem == "partition":
        witness = canonical_partition(blocks)
        assert is_colourful_partition(g, witness)
        assert len(witness) == g.n - len(pairs)
        return SolveResult(
            "partition", len(witness), witness, "two-coloured-matching", stats
        )
    # the matched pairs are the kept edges
    deleted = crossing_edges(g, blocks)
    assert len(deleted) == g.m - len(pairs)
    return SolveResult(
        "components", len(deleted), deleted, "two-coloured-matching", stats
    )


# ---------------------------------------------------------------------------
# Connected, treewidth <= 2: two colourful connected blocks via 2-SAT
# ---------------------------------------------------------------------------


def _colour_classes(g: ColouredGraph) -> list[list[int]]:
    """The vertices of each colour, in increasing order."""
    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(g.colours[v], []).append(v)
    return list(classes.values())


def build_phi(
    g: ColouredGraph, dec: RootedDecomposition2CP, a: int, b: int
) -> TwoSatFormula:
    """The 2-SAT formula whose models are exactly the two-block colourful
    partitions (V1, V2) with a in V1 and b in V2, for the rooted normal-form
    decomposition with root bag {a, b}.  Variable v+1 means "vertex v in V1".

    Let sub(i) be the vertices in the bags of node i's subtree.  Node i gets
    two reach literals: A_i means "all of sub(i) is in V1" and B_i "all of
    sub(i) is in V2".  A_i implies its bag's literals and its children's
    A_c, and likewise for B_i.  A head (a node with no 1-element bag on its
    path to the root) carries a cut pair (u, v), derived from its parent's
    in one pass, parents first; a 1-element bag {u} carries (u, u).  A pair
    asks for v -> A_i and not u -> B_i, and the converse holds because u
    and v are in the bag: so A_i is the literal v and B_i the literal not u.
    A head 3-bag needs nothing more, since the normal form attaches its
    third vertex to both u and v by an edge or a 2-bag.  Every other node
    gets two fresh variables.  The formula thus has O(nodes) clauses
    besides two per same-coloured pair.
    """
    n = g.n
    clauses: list[tuple[int, int]] = [(a + 1, a + 1), (-(b + 1), -(b + 1))]

    def imply(x: int, y: int) -> None:
        if x != y:
            clauses.append((-x, y))

    for u, v in sorted(
        pair for vs in _colour_classes(g) for pair in combinations(vs, 2)
    ):
        clauses.append((u + 1, v + 1))
        clauses.append((-(u + 1), -(v + 1)))
    nvars = n
    reach: list[tuple[int, int]] = []  # (A_i, B_i) of each node
    precut: dict[int, tuple[int, int]] = {}  # the cut pair of each head
    for i, bag in enumerate(dec.bags):  # parents before children
        p = dec.parent[i]
        if len(bag) == 1:
            (u,) = bag
            cut = (u, u)
        elif p == -1:
            cut = precut[i] = (a, b)
        elif p in precut:
            if len(bag) == 3:
                assert len(dec.bags[p]) == 2, "parent of a head 3-bag is a 2-bag"
                cut = precut[p]
            else:
                assert len(bag) == 2 and len(dec.bags[p]) == 3
                pu, pv = precut[p]
                (w,) = dec.bags[p] - {pu, pv}
                if bag == frozenset({pv, w}):
                    cut = (w, pv)
                elif bag == frozenset({pu, w}):
                    cut = (pu, w)
                else:
                    raise AssertionError("2-bag child repeats its grandparent's bag")
            precut[i] = cut
        else:
            cut = None
        if cut is None:
            all_v1, all_v2 = nvars + 1, nvars + 2
            nvars += 2
        else:
            u, v = cut
            all_v1, all_v2 = v + 1, -(u + 1)
        reach.append((all_v1, all_v2))
        for w in sorted(bag):
            imply(all_v1, w + 1)
            imply(all_v2, -(w + 1))
        if p != -1:
            imply(reach[p][0], all_v1)
            imply(reach[p][1], all_v2)
    return TwoSatFormula(nvars, tuple(clauses))


def _shortest_same_colour_path(
    g: ColouredGraph, classes: list[list[int]]
) -> list[int]:
    """A shortest path between two same-coloured vertices of a connected
    graph, as its vertex sequence; one BFS per colour class of size two."""
    best: list[int] = []
    for vs in classes:
        if len(vs) != 2:
            continue
        x, y = vs
        parent = {x: x}
        layer = [x]
        # only layers strictly closer to x than the best path so far matter
        layers_left = len(best) - 2 if best else g.n
        while layer and y not in parent and layers_left > 0:
            layers_left -= 1
            nxt = []
            for u in layer:
                for w in g.adj[u]:
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            layer = nxt
        if y in parent:
            path = [y]
            while path[-1] != x:
                path.append(parent[path[-1]])
            best = path[::-1]
    return best


def _cut_certificate(
    g: ColouredGraph, classes: list[list[int]]
) -> tuple[bool, int | None]:
    """Whether g is connected, and if it is, a vertex c such that no
    component of G - c meets every same-coloured pair, or None.  The search
    below reaches all of g only when g is connected, and on a disconnected g
    the certificate is not sought.  A component meets the pair
    (x, y) when it holds x or y, so it meets c's own pair only by holding
    c's partner.  `classes` are g's colour classes, none larger than two.
    Such a c rules out two blocks (see `solve_2cp_treewidth2`).  The common
    case is two components K that each make K + c not colourful, by
    repeating a colour or by holding c's partner: neither meets the
    other's pair.

    One iterative depth-first search (Hopcroft and Tarjan) builds the
    block-cut tree T: nodes 0..n-1 are the vertices and nodes n, n+1, ...
    the blocks; a block hangs from the vertex it was found at, and its
    other vertices hang from it.  The components of G - c are then the
    subtrees of c's child blocks and, above c, the rest of T.  One pass over
    T in postorder sums, per node t, ends(t), the paired vertices in t's
    subtree, and inside(t), the pairs with both ends there, each counted at
    its lowest common ancestor.  A child block b meets every pair when
    ends(b) - inside(b) is the number of pairs, and the rest of T above c
    when inside(c) = 0.  The ancestor comes from Tarjan's offline method: a
    finished node is linked to its parent, so the root of a finished node's
    set is its lowest ancestor not yet finished.
    """
    n = g.n
    partner = [-1] * n
    for vs in classes:
        if len(vs) == 2:
            x, y = vs
            partner[x], partner[y] = y, x
    pairs = (n - partner.count(-1)) // 2

    disc = [-1] * n
    low = [0] * n
    # children in T: a vertex's child blocks, a block's other vertices
    kids: list[list[int]] = [[] for _ in range(n)]
    stack = [0]  # vertices reached but not yet placed in a block
    disc[0] = 0
    reached = 1
    work = [(0, iter(g.adj[0]), 0)]  # (vertex, neighbours left, place in stack)
    while work:
        v, nbrs, at = work[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = reached
                reached += 1
                work.append((w, iter(g.adj[w]), len(stack)))
                stack.append(w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            work.pop()
            if not work:
                break
            p = work[-1][0]
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                # v's part of the stack and p make one block
                kids[p].append(len(kids))
                kids.append(stack[at:])
                del stack[at:]
    if reached < n or not pairs:
        return reached == n, None

    # T in postorder, as a preorder reversed, since Tarjan's method needs
    # every subtree in one run; and each node's parent
    block = len(kids)
    up = [-1] * block
    order, todo = [], [0]
    while todo:
        t = todo.pop()
        order.append(t)
        for k in kids[t]:
            up[k] = t
        todo += kids[t]
    order.reverse()

    link = list(range(block))
    done = bytearray(block)
    ends = [int(q >= 0) for q in partner] + [0] * (block - n)
    inside = [0] * block
    met = bytearray(n)  # whether a component of G - v below v meets every pair

    def find(x: int) -> int:
        while link[x] != x:
            link[x] = link[link[x]]
            x = link[x]
        return x

    for u in order:
        if u < n:
            q = partner[u]
            if q >= 0 and done[q]:
                inside[find(q)] += 1
            # the rest of G above u meets every pair unless a pair lies in
            # u's subtree, as every pair does when u is the root
            if not met[u] and inside[u]:
                return True, u
        elif ends[u] - inside[u] == pairs:
            met[up[u]] = 1
        done[u] = 1
        p = up[u]
        if p >= 0:
            ends[p] += ends[u]
            inside[p] += inside[u]
            link[u] = p
    return True, None


def solve_2cp_treewidth2(g: ColouredGraph, stats: dict | None = None) -> Partition | None:
    """A colourful partition with at most two blocks, or None if none exists.
    Requires treewidth at most 2 (raises UnsupportedInstanceError otherwise)
    unless the answer is plain without it: two blocks hold at most two
    vertices of a colour, a colourful graph is one block, and the
    cut-vertex certificate below rules two blocks out.  `stats`, when
    given, gets the number of 2-SAT formulas solved under "formulas".

    The certificate (`_cut_certificate`) is a vertex c such that no
    component of G - c holds a vertex of every same-coloured pair.  It is
    exact: the block without c is connected, so it lies in one component of
    G - c, and it holds one vertex of every pair (of c's own pair, c's
    partner).  It takes linear time and runs before the width check, so it
    answers such no-instances at any width.  Its search also tells whether
    g is connected, so only a disconnected g is split into components.

    In a connected graph that is not colourful, take same-coloured x and y
    at the smallest distance: any two-block partition puts them in different
    blocks, so it separates the ends of some edge (a, b) on a shortest x-y
    path.  One normalized decomposition and 2-SAT formula per such edge,
    with a in V1, covers every candidate.
    """
    if g.n == 0:
        return ()
    classes = _colour_classes(g)
    if any(len(vs) > 2 for vs in classes):
        return None
    connected, cut = _cut_certificate(g, classes)
    if not connected:
        comps = connected_components(g)
        if len(comps) == 2 and all(is_colourful_set(g, c) for c in comps):
            return canonical_partition(comps)
        return None
    if len(classes) == g.n:
        return (frozenset(range(g.n)),)
    if cut is not None:
        return None
    if exact_tree_decomposition(g, 2) is None:
        raise UnsupportedInstanceError("solver requires treewidth at most 2")
    path = _shortest_same_colour_path(g, classes)
    for formulas, (a, b) in enumerate(zip(path, path[1:]), start=1):
        dec = normalize_for_2cp(g, a, b)
        assignment = two_sat_solve(build_phi(g, dec, a, b))
        if stats is not None:
            stats["formulas"] = formulas
        if assignment is None:
            continue
        v1 = frozenset(v for v in range(g.n) if assignment[v + 1])
        v2 = frozenset(range(g.n)) - v1
        partition = canonical_partition([v1, v2])
        assert is_colourful_partition(g, partition)
        return partition
    return None
