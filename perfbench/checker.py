"""Independent checks of `colourful solve` answers.

Nothing here imports `colourful`: witnesses are parsed and validated from
the benchmark's own copy of each instance, so a fault in the program's own
predicates or parsers cannot hide a wrong answer.
"""

from __future__ import annotations

from itertools import product

Edge = tuple[int, int]


def adjacency(n: int, edges: list[Edge]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reach(adj: list[set[int]], start: int, allowed: set[int]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _repeats_colour(colours: list[int], vertices: set[int]) -> bool:
    return len({colours[v] for v in vertices}) < len(vertices)


def parse_witness(text: str) -> tuple[str, list]:
    """('partition', [[v, ...], ...]) or ('deletions', [(u, v), ...]).
    Raises ValueError when the text is malformed or its header count is off."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or len(lines[0]) != 2:
        raise ValueError("witness needs a '<kind> <count>' header")
    kind, count = lines[0][0], int(lines[0][1])
    body = lines[1:]
    if kind == "partition":
        if any(ln[0] != "block" or len(ln) < 2 for ln in body):
            raise ValueError("partition lines must be 'block <v> ...'")
        items: list = [[int(x) for x in ln[1:]] for ln in body]
    elif kind == "deletions":
        if any(ln[0] != "e" or len(ln) != 3 for ln in body):
            raise ValueError("deletion lines must be 'e <u> <v>'")
        items = [(int(ln[1]), int(ln[2])) for ln in body]
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    if len(items) != count:
        raise ValueError(f"header claims {count} items, found {len(items)}")
    return kind, items


def partition_error(
    n: int, colours: list[int], adj: list[set[int]], blocks: list[list[int]]
) -> str | None:
    """None when the blocks cover every vertex once and each block is
    colourful and connected; otherwise the first fault found."""
    seen: set[int] = set()
    for block in blocks:
        members = set(block)
        if not members or len(members) != len(block):
            return f"block {block} is empty or repeats a vertex"
        if not members <= set(range(n)):
            return f"block {block} names a vertex outside 0..{n - 1}"
        if members & seen:
            return f"block {block} overlaps an earlier block"
        seen |= members
        if _repeats_colour(colours, members):
            return f"block {block} repeats a colour"
        if reach(adj, block[0], members) != members:
            return f"block {block} is not connected"
    if len(seen) != n:
        return f"{n - len(seen)} vertices are in no block"
    return None


def deletion_error(
    n: int, colours: list[int], edges: list[Edge], deleted: list[Edge]
) -> str | None:
    """None when the deleted edges are distinct edges of the graph and every
    component left after deleting them is colourful."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    gone = {(min(u, v), max(u, v)) for u, v in deleted}
    if len(gone) != len(deleted):
        return "a deleted edge is listed twice"
    if not gone <= edge_set:
        return f"deleted {sorted(gone - edge_set)[0]} is not an edge"
    adj = adjacency(n, sorted(edge_set - gone))
    left = set(range(n))
    while left:
        comp = reach(adj, min(left), left)
        if _repeats_colour(colours, comp):
            return f"component of vertex {min(comp)} repeats a colour"
        left -= comp
    return None


def cut_certificate_error(
    n: int, colours: list[int], adj: list[set[int]], cut: int
) -> str | None:
    """None when removing `cut` leaves two components that each repeat a
    colour.  Then no two-block partition exists: each of those components
    must meet both blocks, so both blocks would need the cut vertex."""
    left = set(range(n)) - {cut}
    repeating = 0
    while left:
        comp = reach(adj, min(left), left)
        repeating += _repeats_colour(colours, comp)
        left -= comp
    if repeating < 2:
        return f"removing {cut} leaves {repeating} components with a repeated colour"
    return None


def edge_connectivity(adj: list[set[int]], s: int, t: int) -> int:
    """The number of edge-disjoint s-t paths, which by Menger's theorem is
    the fewest edges whose deletion separates s from t."""
    residual = {(u, w): 1 for u in range(len(adj)) for w in adj[u]}
    flow = 0
    while True:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in parent and residual[u, w] > 0:
                    parent[w] = u
                    queue.append(w)
        if t not in parent:
            return flow
        w = t
        while w != s:
            u = parent[w]
            residual[u, w] -= 1
            residual[w, u] += 1
            w = u
        flow += 1


def pair_cut_certificate_error(
    n: int, colours: list[int], adj: list[set[int]], pairs: list[Edge], expect: int
) -> str | None:
    """None when `pairs` proves that no fewer than `expect` deletions leave
    only colourful components.  Each pair is two vertices of one colour, so
    a deletion set must separate them; the pairs lie in distinct components,
    so those separations need disjoint sets of edges.  The bound is the sum
    of the pairs' edge connectivities."""
    seen: set[int] = set()
    bound = 0
    for a, b in pairs:
        if colours[a] != colours[b] or a == b:
            return f"pair {(a, b)} is not two vertices of one colour"
        comp = reach(adj, a, set(range(n)))
        if comp & seen:
            return f"pair {(a, b)} shares a component with an earlier pair"
        seen |= comp
        bound += edge_connectivity(adj, a, b)
    if bound != expect:
        return f"the pairs bound the deletions by {bound}, not {expect}"
    return None


def nae_satisfiable(nvars: int, clauses: list[tuple[int, ...]]) -> bool:
    """Exhaustive not-all-equal check of an all-positive CNF."""
    for values in product((False, True), repeat=nvars):
        if all(len({values[x - 1] for x in cl}) == 2 for cl in clauses):
            return True
    return False
