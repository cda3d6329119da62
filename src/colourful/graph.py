"""Vertex-coloured graphs and the shared value types of the toolkit.

A coloured graph is a simple undirected graph on vertices 0..n-1 where every
vertex carries exactly one positive integer colour.  A set of vertices is
*colourful* when no colour appears twice in it; a *colourful partition* is a
partition of the vertex set into blocks that are colourful and induce
connected subgraphs.  The edge-deletion variant asks for a smallest edge set
whose removal leaves every connected component colourful.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Container, Iterable, Mapping, Sequence

Edge = tuple[int, int]
Partition = tuple[frozenset[int], ...]
EdgeSet = frozenset[Edge]


class ParseError(ValueError):
    """Raised when an instance or solution file is malformed."""


class UnsupportedInstanceError(RuntimeError):
    """Raised when an instance falls outside a solver's supported range."""


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ColouredGraph:
    """Immutable simple graph with one colour per vertex.

    ``colours[v]`` is the colour of vertex ``v``; ``adj[v]`` its neighbour
    set.  Vertex ids are dense (0..n-1).  Colours are arbitrary positive
    integers; parsing normalizes them to a dense range but graphs built in
    code may use any positive ids.
    """

    n: int
    colours: tuple[int, ...]
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def build(n: int, colours: Sequence[int], edges: Iterable[Edge]) -> "ColouredGraph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(colours) != n:
            raise ValueError(f"expected {n} colours, got {len(colours)}")
        if any(c <= 0 for c in colours):
            raise ValueError("colours must be positive integers")
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            neigh[u].add(v)
            neigh[v].add(u)
        return ColouredGraph(n, tuple(colours), tuple(frozenset(s) for s in neigh))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted lexicographically."""
        return sorted((u, v) for u in range(self.n) for v in self.adj[u] if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def colour_set(self) -> set[int]:
        return set(self.colours)

    def subgraph(self, vertices: Iterable[int]) -> "ColouredGraph":
        """Induced subgraph, with vertices renumbered by sorted old id.  It is
        built straight from this graph's neighbour sets, which were checked
        when this graph was built."""
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        adj = tuple(frozenset(index[w] for w in self.adj[v] if w in index) for v in vs)
        return ColouredGraph(len(vs), tuple(self.colours[v] for v in vs), adj)


def search(
    adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
    start: int,
    allowed: Container[int] | None = None,
) -> dict[int, int | None]:
    """Breadth-first search from ``start`` over the neighbour lookup ``adj``
    (a graph's adjacency, the tree of bags, ...), entering only vertices in
    ``allowed`` when it is given.  Maps each reached vertex to the vertex it
    was reached from (``None`` for ``start``), in visit order."""
    reached: dict[int, int | None] = {start: None}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in reached and (allowed is None or v in allowed):
                reached[v] = u
                queue.append(v)
    return reached


def components(
    adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]],
    starts: Iterable[int],
    allowed: Container[int] | None = None,
) -> list[dict[int, int | None]]:
    """One ``search`` per start not reached by an earlier one, in order."""
    seen: set[int] = set()
    out = []
    for s in starts:
        if s not in seen:
            comp = search(adj, s, allowed)
            seen.update(comp)
            out.append(comp)
    return out


def postorder(children: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """The nodes hanging from ``root`` by the child lists ``children``, in
    postorder with each node's children in their listed order, and each
    node's parent (-1 for the root and nodes not reached).  The order is a
    preorder reversed, so each subtree is one run of it, as Tarjan's offline
    lowest common ancestors need."""
    parent = [-1] * len(children)
    order, todo = [], [root]
    while todo:
        t = todo.pop()
        order.append(t)
        for k in children[t]:
            parent[k] = t
        todo += children[t]
    order.reverse()
    return order, parent


def find(link: list[int], x: int) -> int:
    """The root of x in a union-find forest of parent links, compressing
    the path to it."""
    root = x
    while link[root] != root:
        root = link[root]
    while link[x] != root:
        link[x], x = root, link[x]
    return root


def connected_components(g: ColouredGraph, forbidden_edges: EdgeSet | None = None) -> Partition:
    """Connected components of g (optionally with some edges removed),
    ordered by smallest contained vertex."""
    adj: Sequence[Iterable[int]] = g.adj
    if forbidden_edges:
        cut = list(g.adj)
        for v in {x for e in forbidden_edges for x in e}:
            cut[v] = set(cut[v])
        for u, v in forbidden_edges:
            cut[u].discard(v)
            cut[v].discard(u)
        adj = cut
    return tuple(frozenset(comp) for comp in components(adj, range(g.n)))


def is_connected(g: ColouredGraph) -> bool:
    return g.n <= 1 or len(search(g.adj, 0)) == g.n


def is_forest(g: ColouredGraph) -> bool:
    """Whether g has no cycle: each component of a forest has one edge
    fewer than it has vertices."""
    return g.m < g.n and g.m == g.n - len(connected_components(g))


def is_colourful_set(g: ColouredGraph, block: Iterable[int]) -> bool:
    seen: set[int] = set()
    for v in block:
        c = g.colours[v]
        if c in seen:
            return False
        seen.add(c)
    return True


def induces_connected(g: ColouredGraph, block: frozenset[int]) -> bool:
    if not block:
        return False
    return len(search(g.adj, next(iter(block)), block)) == len(block)


def is_colourful_partition(g: ColouredGraph, partition: Sequence[frozenset[int]]) -> bool:
    """True iff the blocks partition V(g) and each is colourful and connected."""
    covered: set[int] = set()
    total = 0
    for block in partition:
        if not block or min(block) < 0 or max(block) >= g.n:
            return False
        total += len(block)
        covered |= block
        if not is_colourful_set(g, block):
            return False
        if not induces_connected(g, block):
            return False
    return total == g.n and covered == set(range(g.n))


def is_colourful_graph(g: ColouredGraph) -> bool:
    """True iff every connected component of g is colourful."""
    return all(is_colourful_set(g, comp) for comp in connected_components(g))


def components_after_deletion(g: ColouredGraph, deleted: Iterable[Edge]) -> Partition:
    """Components of g after removing the given edges (normalized)."""
    f = frozenset(norm_edge(u, v) for u, v in deleted)
    for u, v in f:
        if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
            raise ValueError(f"({u},{v}) is not an edge of the graph")
    return connected_components(g, f)


def is_valid_deletion_set(g: ColouredGraph, deleted: Iterable[Edge]) -> bool:
    """True iff removing the edges leaves every component colourful."""
    try:
        comps = components_after_deletion(g, deleted)
    except ValueError:
        return False
    return all(is_colourful_set(g, comp) for comp in comps)


def colour_multiplicity(g: ColouredGraph) -> int:
    """Largest number of vertices sharing one colour (0 for the empty graph).

    Any colourful partition needs at least this many blocks, since two
    same-coloured vertices can never share a block.
    """
    counts: dict[int, int] = {}
    for c in g.colours:
        counts[c] = counts.get(c, 0) + 1
    return max(counts.values(), default=0)


def crossing_edges(g: ColouredGraph, partition: Sequence[frozenset[int]]) -> EdgeSet:
    """Edges of g whose endpoints lie in different blocks of the partition."""
    block_of: dict[int, int] = {}
    for i, block in enumerate(partition):
        for v in block:
            block_of[v] = i
    return frozenset(
        (u, v) for u, v in g.edges() if block_of[u] != block_of[v]
    )


def canonical_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    """Blocks as frozensets, ordered by smallest contained vertex."""
    return tuple(sorted((frozenset(b) for b in blocks), key=min))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``problem`` is ``"partition"`` or ``"components"``; ``witness`` is a
    Partition or an EdgeSet accordingly; ``solver`` names the algorithm that
    produced it, or the distinct algorithms joined by ``+`` in component
    order when ``solve_by_component`` solved the components apart.
    ``stats`` carries solver-specific counters (table keys, search nodes,
    ...) for benchmarking, summed over those components.
    """

    problem: str
    optimum: int
    witness: Partition | EdgeSet
    solver: str
    stats: dict = field(default_factory=dict, compare=False)


def solve_by_component(
    g: ColouredGraph, problem: str, solve: Callable[[ColouredGraph], SolveResult]
) -> SolveResult:
    """Solve ``problem`` on g one connected component at a time, since both
    optima add up over components.  A connected graph goes to ``solve`` as
    it is; otherwise each component's induced subgraph does, and the
    witnesses are mapped back to g.  An unsupported component is named by
    its smallest vertex."""
    comps = connected_components(g)
    if len(comps) <= 1:
        return solve(g)
    optimum, parts, solvers, stats = 0, [], [], Counter()
    for comp in comps:
        order = sorted(comp)
        try:
            res = solve(g.subgraph(order))
        except UnsupportedInstanceError as exc:
            raise UnsupportedInstanceError(f"component of vertex {order[0]}: {exc}") from exc
        optimum += res.optimum
        if problem == "partition":
            parts += [frozenset(order[v] for v in block) for block in res.witness]
        else:
            parts += [norm_edge(order[u], order[v]) for u, v in res.witness]
        if res.solver not in solvers:
            solvers.append(res.solver)
        for key, value in res.stats.items():
            # a `max_` counter is the largest over the components, not a sum
            stats[key] = max(stats[key], value) if key.startswith("max_") else stats[key] + value
    witness = canonical_partition(parts) if problem == "partition" else frozenset(parts)
    return SolveResult(problem, optimum, witness, "+".join(solvers), dict(stats))


# ---------------------------------------------------------------------------
# Text formats.
#
# Instance files:
#     cgraph <n> <m>
#     v <id> <colour>          (one line per vertex)
#     e <u> <v>                (one line per edge, u < v)
# Solution files:
#     partition <k>            followed by k "block <id> <id> ..." lines
#     deletions <p>            followed by p "e <u> <v>" lines
# In every text format '#' starts a comment, blank lines are ignored and the
# fields after a line's keyword are integers.
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> list[list[str]]:
    """The whitespace-separated fields of each line of ``text`` with its
    '#' comment cut off, skipping lines that are left with none."""
    return [
        parts
        for line in text.splitlines()
        if (parts := (line[: line.index("#")] if "#" in line else line).split())
    ]


def _ints(lines: list[list[str]], start: int) -> list[int]:
    """The fields of ``lines`` from index ``start`` on, in order, as one list
    of integers.  A field that is not an integer is a ParseError naming its
    line."""
    try:
        return [int(x) for parts in lines for x in parts[start:]]
    except ValueError:
        if len(lines) > 1:  # the call for the line at fault raises
            for parts in lines:
                _ints([parts], start)
        raise ParseError(f"non-integer field in line '{' '.join(lines[0])}'") from None


def normalize_colours(colours: Sequence[int]) -> tuple[int, ...]:
    """Remap colours to 1..k by order of first appearance over vertex ids."""
    remap: dict[int, int] = {}
    out = []
    for c in colours:
        if c not in remap:
            remap[c] = len(remap) + 1
        out.append(remap[c])
    return tuple(out)


def parse_instance(text: str) -> ColouredGraph:
    """Parse an instance file.  Colours are normalized to a dense range.  The
    neighbour sets are allocated only once the vertex lines have confirmed
    the header's n, and they are the duplicate-edge check."""
    lines = _content_lines(text)
    if not lines or lines[0][0] != "cgraph" or len(lines[0]) != 3:
        raise ParseError("instance must start with a 'cgraph <n> <m>' line")
    n, m = _ints(lines[:1], 1)
    if n < 0 or m < 0:
        raise ParseError("cgraph header fields must be non-negative")
    body = lines[1:]
    for parts in body:
        if len(parts) != 3 or parts[0] not in ("v", "e"):
            raise ParseError(f"expected 'v <id> <colour>' or 'e <u> <v>', got '{' '.join(parts)}'")
    colours: dict[int, int] = {}
    edges: list[Edge] = []
    fields = iter(_ints(body, 1))  # two per line
    for parts, x, y in zip(body, fields, fields):
        if parts[0] == "v":
            if not 0 <= x < n:
                raise ParseError(f"vertex id {x} out of range 0..{n - 1}")
            if x in colours:
                raise ParseError(f"vertex {x} declared twice")
            if y <= 0:
                raise ParseError(f"vertex {x} has non-positive colour {y}")
            colours[x] = y
        elif 0 <= x < y < n:
            edges.append((x, y))
        else:
            raise ParseError(f"edge ({x},{y}) must satisfy 0 <= u < v < {n}")
    if len(colours) != n:
        missing = list(islice((v for v in range(n) if v not in colours), 5))
        raise ParseError(f"{n - len(colours)} vertices without colour, first {missing}")
    if len(edges) != m:
        raise ParseError(f"header claims {m} edges, found {len(edges)}")
    neigh: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if v in neigh[u]:
            raise ParseError(f"duplicate edge ({u},{v})")
        neigh[u].add(v)
        neigh[v].add(u)
    dense = normalize_colours([colours[v] for v in range(n)])
    return ColouredGraph(n, dense, tuple(map(frozenset, neigh)))


def serialize_instance(g: ColouredGraph) -> str:
    """Canonical text form: vertices by id, edges sorted, colours dense."""
    dense = normalize_colours(g.colours)
    out = [f"cgraph {g.n} {g.m}"]
    out.extend(f"v {v} {dense[v]}" for v in range(g.n))
    out.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> tuple[str, Partition | EdgeSet]:
    """Parse a solution file into ('partition', blocks) or ('deletions', edges).
    Blocks stay a list, so equal blocks are left for the check to refuse."""
    lines = _content_lines(text)
    if not lines or lines[0][0] not in ("partition", "deletions"):
        raise ParseError("solution must start with 'partition' or 'deletions'")
    kind = lines[0][0]
    if len(lines[0]) != 2:
        raise ParseError(f"malformed {kind} header")
    (count,) = _ints(lines[:1], 1)
    if kind == "partition":
        blocks: list[frozenset[int]] = []
        for parts in lines[1:]:
            if parts[0] != "block":
                raise ParseError(f"expected 'block' line, got '{parts[0]}'")
            ids = _ints([parts], 1)
            if not ids:
                raise ParseError("empty block line")
            if len(set(ids)) != len(ids):
                raise ParseError(f"repeated vertex in block: {' '.join(parts)}")
            blocks.append(frozenset(ids))
        if len(blocks) != count:
            raise ParseError(f"header claims {count} blocks, found {len(blocks)}")
        return kind, canonical_partition(blocks)
    edges: set[Edge] = set()
    for parts in lines[1:]:
        if parts[0] != "e" or len(parts) != 3:
            raise ParseError(f"expected 'e <u> <v>' line, got '{' '.join(parts)}'")
        u, v = _ints([parts], 1)
        if u >= v:
            raise ParseError(f"deleted edge ({u},{v}) must satisfy u < v")
        if (u, v) in edges:
            raise ParseError(f"duplicate deleted edge ({u},{v})")
        edges.add((u, v))
    if len(edges) != count:
        raise ParseError(f"header claims {count} deletions, found {len(edges)}")
    return kind, frozenset(edges)


def serialize_solution(kind: str, witness: Partition | EdgeSet) -> str:
    if kind == "partition":
        blocks = canonical_partition(witness)  # type: ignore[arg-type]
        out = [f"partition {len(blocks)}"]
        out.extend("block " + " ".join(str(v) for v in sorted(b)) for b in blocks)
        return "\n".join(out) + "\n"
    if kind == "deletions":
        edges = sorted(witness)  # type: ignore[arg-type]
        out = [f"deletions {len(edges)}"]
        out.extend(f"e {u} {v}" for u, v in edges)
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown solution kind '{kind}'")
