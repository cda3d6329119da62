"""Brute-force reference solvers and search-based deciders.

Everything here is meant to be obviously correct rather than fast: the brute
enumerators are the ground truth the clever solvers are tested against, and
the two search-based deciders (two-block partitions, multicut on trees) exist
so that reduction outputs larger than the enumeration caps can still be
checked exactly.
"""

from __future__ import annotations

from itertools import combinations, product

from .graph import (
    ColouredGraph,
    Edge,
    EdgeSet,
    Partition,
    SolveResult,
    UnsupportedInstanceError,
    canonical_partition,
    connected_components,
    is_colourful_partition,
    is_colourful_set,
    norm_edge,
)


def _adjacency_masks(g: ColouredGraph) -> list[int]:
    masks = [0] * g.n
    for u in range(g.n):
        for v in g.adj[u]:
            masks[u] |= 1 << v
    return masks


def _colour_bits(g: ColouredGraph) -> list[int]:
    index: dict[int, int] = {}
    bits = []
    for c in g.colours:
        if c not in index:
            index[c] = len(index)
        bits.append(1 << index[c])
    return bits


def _mask_reach(adj: list[int], start_bit: int, allowed: int) -> int:
    """Vertices reachable from start_bit inside the induced graph on allowed.

    Requires start_bit to be a subset of allowed.  Each round expands only
    the vertices reached in the round before."""
    reach = frontier = start_bit
    while frontier:
        grow = 0
        m = frontier
        while m:
            u = (m & -m).bit_length() - 1
            grow |= adj[u]
            m &= m - 1
        frontier = grow & allowed & ~reach
        reach |= frontier
    return reach


def _mask_vertices(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def brute_min_partition(g: ColouredGraph, cap: int = 12) -> SolveResult:
    """Minimum colourful partition by exhaustive block assignment.

    Vertices are placed one at a time into an existing block or a fresh one;
    branches die as soon as a block repeats a colour, cannot possibly become
    connected, or the block count reaches the best already found.
    """
    if g.n > cap:
        raise UnsupportedInstanceError(
            f"brute_min_partition supports n <= {cap}, got n = {g.n}"
        )
    if g.n == 0:
        return SolveResult("partition", 0, (), "brute", {"nodes": 0})
    adj = _adjacency_masks(g)
    cbit = _colour_bits(g)

    best_k = g.n + 1
    best_blocks: list[int] = []
    blocks: list[int] = []
    colours: list[int] = []
    solid: list[bool] = []
    nodes = 0

    def feasible(i: int, remaining: int) -> bool:
        # block i must sit inside one component of G[block ∪ remaining]
        b = blocks[i]
        if solid[i]:
            return True
        start = b & -b
        if _mask_reach(adj, start, b) == b:
            solid[i] = True
            return True
        return b & ~_mask_reach(adj, start, b | remaining) == 0

    def rec(v: int, remaining: int) -> None:
        nonlocal best_k, best_blocks, nodes
        nodes += 1
        if len(blocks) >= best_k:
            return
        if v == g.n:
            best_k = len(blocks)
            best_blocks = list(blocks)
            return
        rem = remaining & ~(1 << v)
        for i in range(len(blocks)):
            if colours[i] & cbit[v]:
                continue
            old_solid = solid[i]
            blocks[i] |= 1 << v
            colours[i] |= cbit[v]
            solid[i] = False
            if all(feasible(j, rem) for j in range(len(blocks))):
                rec(v + 1, rem)
            blocks[i] &= ~(1 << v)
            colours[i] &= ~cbit[v]
            solid[i] = old_solid
        if len(blocks) + 1 < best_k:
            blocks.append(1 << v)
            colours.append(cbit[v])
            solid.append(True)
            if all(feasible(j, rem) for j in range(len(blocks))):
                rec(v + 1, rem)
            blocks.pop()
            colours.pop()
            solid.pop()

    rec(0, (1 << g.n) - 1)
    assert best_k <= g.n
    witness = canonical_partition(frozenset(_mask_vertices(b)) for b in best_blocks)
    return SolveResult("partition", best_k, witness, "brute", {"nodes": nodes})


def _deletion_ok(g: ColouredGraph, kept: list[Edge]) -> bool:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in kept:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    seen: dict[int, set[int]] = {}
    for v in range(g.n):
        r = find(v)
        cols = seen.setdefault(r, set())
        if g.colours[v] in cols:
            return False
        cols.add(g.colours[v])
    return True


# The most edges `brute_min_deletions` takes: it tries up to 2^m deletion sets.
BRUTE_DELETIONS_MAX_EDGES = 20


def brute_min_deletions(g: ColouredGraph) -> SolveResult:
    """Minimum edge deletions leaving all components colourful, by trying
    deletion sets in order of increasing size."""
    m = g.m
    if m > BRUTE_DELETIONS_MAX_EDGES:
        raise UnsupportedInstanceError(
            f"brute_min_deletions supports m <= {BRUTE_DELETIONS_MAX_EDGES}, got m = {m}"
        )
    edges = g.edges()
    checked = 0
    for p in range(m + 1):
        for deleted in combinations(edges, p):
            checked += 1
            dset = set(deleted)
            kept = [e for e in edges if e not in dset]
            if _deletion_ok(g, kept):
                return SolveResult(
                    "components", p, frozenset(deleted), "brute", {"nodes": checked}
                )
    raise AssertionError("deleting all edges always succeeds")


def brute_min_deletions_partitions(g: ColouredGraph, cap: int = 12) -> SolveResult:
    """Minimum edge deletions leaving all components colourful, by exhaustive
    assignment of vertices to colour-distinct groups.

    Deleting the edges between groups of any such assignment leaves every
    component inside one group, hence colourful; conversely the components
    left by an optimal deletion set form such an assignment whose crossing
    edges contain the deleted ones.  So the minimum crossing-edge count over
    assignments equals the minimum deletion count.  Independent route from
    :func:`brute_min_deletions` (which enumerates edge subsets) and usable
    when the edge count is large but the vertex count is small.
    """
    if g.n > cap:
        raise UnsupportedInstanceError(
            f"brute_min_deletions_partitions supports n <= {cap}, got n = {g.n}"
        )
    if g.n == 0:
        return SolveResult(
            "components", 0, frozenset(), "brute-partitions", {"nodes": 0}
        )
    adj = _adjacency_masks(g)
    cbit = _colour_bits(g)

    best_cost = g.m + 1
    best_blocks: list[int] = []
    blocks: list[int] = []
    colours: list[int] = []
    nodes = 0

    def rec(v: int, cost: int) -> None:
        nonlocal best_cost, best_blocks, nodes
        nodes += 1
        if cost >= best_cost:
            return
        if v == g.n:
            best_cost = cost
            best_blocks = list(blocks)
            return
        assigned_nbrs = bin(adj[v] & ((1 << v) - 1)).count("1")
        for i in range(len(blocks)):
            if colours[i] & cbit[v]:
                continue
            inside = bin(adj[v] & blocks[i]).count("1")
            blocks[i] |= 1 << v
            colours[i] |= cbit[v]
            rec(v + 1, cost + assigned_nbrs - inside)
            blocks[i] &= ~(1 << v)
            colours[i] &= ~cbit[v]
        blocks.append(1 << v)
        colours.append(cbit[v])
        rec(v + 1, cost + assigned_nbrs)
        blocks.pop()
        colours.pop()

    rec(0, 0)
    groups = [frozenset(_mask_vertices(b)) for b in best_blocks]
    group_of = {v: i for i, grp in enumerate(groups) for v in grp}
    deleted = frozenset(
        e for e in g.edges() if group_of[e[0]] != group_of[e[1]]
    )
    assert len(deleted) == best_cost
    return SolveResult(
        "components", best_cost, deleted, "brute-partitions", {"nodes": nodes}
    )


def brute_vertex_cover(g: ColouredGraph, cap: int = 20) -> frozenset[int]:
    """A minimum vertex cover, found by trying sizes in increasing order."""
    if g.n > cap:
        raise UnsupportedInstanceError(
            f"brute_vertex_cover supports n <= {cap}, got n = {g.n}"
        )
    edges = g.edges()
    for s in range(g.n + 1):
        for cover in combinations(range(g.n), s):
            cset = set(cover)
            if all(u in cset or v in cset for u, v in edges):
                return frozenset(cover)
    raise AssertionError("the full vertex set is always a cover")


def brute_sat(clauses: list[tuple[int, ...]], max_vars: int = 20) -> dict[int, bool] | None:
    """A satisfying assignment of a CNF with signed integer literals, or None."""
    variables = sorted({abs(l) for clause in clauses for l in clause})
    if any(l == 0 for clause in clauses for l in clause):
        raise ValueError("0 is not a valid literal")
    if len(variables) > max_vars:
        raise UnsupportedInstanceError(
            f"brute_sat supports <= {max_vars} variables, got {len(variables)}"
        )
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause) for clause in clauses
        ):
            return assignment
    return None


def brute_nae_sat(
    clauses: list[tuple[int, ...]], max_vars: int = 20
) -> dict[int, bool] | None:
    """An assignment giving every all-positive clause both a true and a false
    literal, or None."""
    variables = sorted({l for clause in clauses for l in clause})
    if any(l <= 0 for clause in clauses for l in clause):
        raise ValueError("clauses must contain positive literals only")
    if len(variables) > max_vars:
        raise UnsupportedInstanceError(
            f"brute_nae_sat supports <= {max_vars} variables, got {len(variables)}"
        )
    for values in product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            any(assignment[l] for l in clause)
            and not all(assignment[l] for l in clause)
            for clause in clauses
        ):
            return assignment
    return None


def brute_max_matching(adj: list[list[int]]) -> int:
    """Maximum bipartite matching size by exhaustive choice per left vertex."""

    def rec(i: int, used: int) -> int:
        if i == len(adj):
            return 0
        best = rec(i + 1, used)
        for r in adj[i]:
            if not used & (1 << r):
                best = max(best, 1 + rec(i + 1, used | (1 << r)))
        return best

    return rec(0, 0)


def brute_multicut(
    g: ColouredGraph, pairs: list[tuple[int, int]], budget: int
) -> EdgeSet | None:
    """A smallest edge set of size <= budget separating every pair, or None.

    Exhaustive over edge subsets; meant for tiny source instances.
    """
    edges = g.edges()
    for p in range(min(budget, len(edges)) + 1):
        for deleted in combinations(edges, p):
            comps = connected_components(g, frozenset(deleted))
            comp_of = {}
            for i, comp in enumerate(comps):
                for v in comp:
                    comp_of[v] = i
            if all(comp_of[u] != comp_of[v] for u, v in pairs):
                return frozenset(deleted)
    return None


# ---------------------------------------------------------------------------
# Two-block partition search
# ---------------------------------------------------------------------------


# The most search nodes `find_two_partition` visits before it gives up.
TWO_PARTITION_NODE_CAP = 5_000_000


def find_two_partition(g: ColouredGraph) -> Partition | None:
    """A colourful partition with at most two blocks, or None.

    Branch search over side assignments: same-coloured vertices are forced to
    opposite sides, and a branch is abandoned as soon as one side can no
    longer be linked up through the still-unassigned vertices.  Exact, but
    exponential in the worst case; `TWO_PARTITION_NODE_CAP` guards against
    pathological inputs (raising rather than guessing).
    """
    if g.n == 0:
        return ()
    comps = connected_components(g)
    if len(comps) > 2:
        return None
    if len(comps) == 2:
        if all(is_colourful_set(g, c) for c in comps):
            return canonical_partition(comps)
        return None
    if is_colourful_set(g, range(g.n)):
        return (frozenset(range(g.n)),)

    counts: dict[int, list[int]] = {}
    for v in range(g.n):
        counts.setdefault(g.colours[v], []).append(v)
    if any(len(vs) > 2 for vs in counts.values()):
        return None
    partner = [-1] * g.n
    for vs in counts.values():
        if len(vs) == 2:
            partner[vs[0]], partner[vs[1]] = vs[1], vs[0]

    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1

    # BFS order guarantees every branch vertex touches an assigned one.
    order = [0]
    seen = {0}
    for u in order:
        for v in sorted(g.adj[u]):
            if v not in seen:
                seen.add(v)
                order.append(v)

    side = [-1] * g.n
    masks = [0, 0]
    nodes = 0

    def assign(v: int, s: int, trail: list[int]) -> bool:
        stack = [(v, s)]
        while stack:
            u, su = stack.pop()
            if side[u] != -1:
                if side[u] != su:
                    return False
                continue
            side[u] = su
            masks[su] |= 1 << u
            trail.append(u)
            p = partner[u]
            if p != -1:
                stack.append((p, 1 - su))
        return True

    def undo(trail: list[int]) -> None:
        for u in trail:
            masks[side[u]] &= ~(1 << u)
            side[u] = -1

    def sides_feasible() -> bool:
        un = full & ~(masks[0] | masks[1])
        for s in (0, 1):
            b = masks[s]
            if b and b & ~_mask_reach(adj, b & -b, b | un):
                return False
        return True

    def enter(idx: int) -> int:
        """Count a search node; the index of its branch vertex (g.n once
        every vertex has a side)."""
        nonlocal nodes
        nodes += 1
        if nodes > TWO_PARTITION_NODE_CAP:
            raise UnsupportedInstanceError(
                "two-block partition search exceeded its node cap"
            )
        while idx < g.n and side[order[idx]] != -1:
            idx += 1
        return idx

    assign(0, 0, [])  # fixing the root's side halves the search space
    if not sides_feasible():
        return None
    # One (index, next side, trail) frame per branch vertex, so the depth
    # of the search is not bounded by the recursion limit.  A frame's trail
    # holds the assignments made by the side it tried last.
    frames: list[tuple[int, int, list[int]]] = [(enter(0), 0, [])]
    while frames[-1][0] < g.n:
        idx, s, trail = frames.pop()
        undo(trail)
        if s == 2:
            if not frames:
                return None
            continue
        trail = []
        frames.append((idx, s + 1, trail))
        if assign(order[idx], s, trail) and sides_feasible():
            frames.append((enter(idx + 1), 0, []))
    partition = canonical_partition(
        frozenset(_mask_vertices(m)) for m in masks if m
    )
    assert is_colourful_partition(g, partition)
    return partition


# ---------------------------------------------------------------------------
# Multicut on trees
# ---------------------------------------------------------------------------


def tree_multicut(
    g: ColouredGraph, pairs: list[tuple[int, int]], budget: int
) -> EdgeSet | None:
    """An edge set of size <= budget separating every pair in a tree, or None.

    Branches on the two topmost edges of the path of a pair whose meeting
    point is deepest: some optimal cut can always be pushed up to one of
    them, so the search tree has at most 2^budget leaves.
    """
    if g.m != g.n - 1 or len(connected_components(g)) != 1:
        raise ValueError("tree_multicut expects a tree")
    parent = [-1] * g.n
    depth = [0] * g.n
    orderq = [0]
    seen = {0}
    while orderq:
        u = orderq.pop()
        for v in g.adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                depth[v] = depth[u] + 1
                orderq.append(v)

    def path_meet(u: int, v: int) -> int:
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u = parent[u]
        return u

    def top_edges(u: int, w: int) -> Edge | None:
        # topmost edge of the u-to-w climb, None when u == w
        if u == w:
            return None
        while parent[u] != w:
            u = parent[u]
        return norm_edge(u, w)

    meets = {(u, v): path_meet(u, v) for u, v in pairs}

    def separated(u: int, v: int, deleted: frozenset[Edge]) -> bool:
        w = meets[(u, v)]
        for x in (u, v):
            while x != w:
                if norm_edge(x, parent[x]) in deleted:
                    break
                x = parent[x]
            else:
                continue
            return True
        return False

    def rec(deleted: frozenset[Edge], budget: int) -> EdgeSet | None:
        open_pairs = [p for p in pairs if not separated(*p, deleted)]
        if not open_pairs:
            return deleted
        if budget == 0:
            return None
        u, v = max(open_pairs, key=lambda p: depth[meets[p]])
        w = meets[(u, v)]
        for e in (top_edges(u, w), top_edges(v, w)):
            if e is None:
                continue
            res = rec(deleted | {e}, budget - 1)
            if res is not None:
                return res
        return None

    return rec(frozenset(), budget)


def tree_min_deletions(g: ColouredGraph, limit: int | None = None) -> int:
    """Minimum deletions making every component of a tree colourful, via
    multicut over all same-colour pairs."""
    by_colour: dict[int, list[int]] = {}
    for v in range(g.n):
        by_colour.setdefault(g.colours[v], []).append(v)
    pairs = [
        (u, v)
        for vs in by_colour.values()
        for u, v in combinations(vs, 2)
    ]
    top = g.m if limit is None else limit
    for b in range(top + 1):
        if tree_multicut(g, pairs, b) is not None:
            return b
    raise AssertionError("deleting every edge separates all pairs")
