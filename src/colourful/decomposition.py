"""Tree decompositions: exact computation, nice form, and the rooted
normal form used by the width-2 two-block solver.

The text format for decompositions is:

    td <nodes> <width>
    bag <node> <id> <id> ...
    te <i> <j>
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .graph import (
    ColouredGraph,
    ParseError,
    UnsupportedInstanceError,
    _content_lines,
    _ints,
    search,
)


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def neighbours(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in self.bags]
        for i, j in self.edges:
            out[i].add(j)
            out[j].add(i)
        return out

    def validate(self, g: ColouredGraph) -> None:
        """Raise ValueError unless this is a tree decomposition of g."""
        k = len(self.bags)
        if k == 0:
            raise ValueError("decomposition needs at least one bag")
        for i, j in self.edges:
            if not (0 <= i < k and 0 <= j < k) or i == j:
                raise ValueError(f"bad tree edge ({i},{j})")
        if len(self.edges) != k - 1:
            raise ValueError("tree must have exactly one fewer edge than nodes")
        up = search(self.neighbours(), 0)  # each node's parent
        if len(up) != k:
            raise ValueError("tree of bags is not connected")
        up[0] = -1
        _check_rooted_bags(g, self.bags, up)

    def is_path(self) -> bool:
        degs = [0] * len(self.bags)
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return all(d <= 2 for d in degs)


def _check_rooted_bags(
    g: ColouredGraph,
    bags: Sequence[frozenset[int]],
    parent: Sequence[int] | Mapping[int, int],
) -> None:
    """Raise ValueError unless the bags are a tree decomposition of g on the
    tree where node i hangs under parent[i], and the root under -1."""
    # The nodes holding a vertex are connected iff exactly one of them, its
    # top, has no parent holding it.
    top = [-1] * g.n
    for i, bag in enumerate(bags):
        p = parent[i]
        for v in bag if p == -1 else bag - bags[p]:
            if not 0 <= v < g.n:
                raise ValueError(f"bag vertex {v} out of range")
            if top[v] != -1:
                raise ValueError(f"bags containing vertex {v} are not connected")
            top[v] = i
    if -1 in top:
        raise ValueError("bags do not cover the vertex set")
    # Two such subtrees meet iff one's top lies in the other, and then that
    # top holds both vertices.
    for x, i in enumerate(top):
        for y in g.adj[x] - bags[i]:
            if x not in bags[top[y]]:
                u, v = sorted((x, y))
                raise ValueError(f"edge ({u},{v}) not inside any bag")


def parse_td(text: str) -> TreeDecomposition:
    lines = _content_lines(text)
    if not lines or lines[0][0] != "td" or len(lines[0]) != 3:
        raise ParseError("decomposition must start with 'td <nodes> <width>'")
    count, width = _ints(lines[:1], 1)
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for parts in lines[1:]:
        if parts[0] == "bag" and len(parts) > 1:
            node, *ids = _ints([parts], 1)
            if node in bags:
                raise ParseError(f"bag {node} declared twice")
            bags[node] = frozenset(ids)
        elif parts[0] == "te" and len(parts) == 3:
            i, j = _ints([parts], 1)
            edges.append((i, j))
        else:
            raise ParseError(f"malformed decomposition line '{' '.join(parts)}'")
    if len(bags) != count or sorted(bags) != list(range(count)):
        raise ParseError(f"expected bags 0..{count - 1}")
    td = TreeDecomposition(tuple(bags[i] for i in range(count)), tuple(edges))
    if td.width != width:
        raise ParseError(f"header claims width {width}, bags give {td.width}")
    return td


def serialize_td(td: TreeDecomposition) -> str:
    out = [f"td {len(td.bags)} {td.width}"]
    for i, bag in enumerate(td.bags):
        out.append("bag " + " ".join([str(i)] + [str(v) for v in sorted(bag)]))
    out.extend(f"te {i} {j}" for i, j in td.edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Exact computation via elimination orderings
# ---------------------------------------------------------------------------


def _eliminate(adj: list[set[int]], v: int) -> set[int]:
    """Join v's neighbours pairwise, then remove v, in place; returns the
    neighbours v had."""
    neigh = adj[v]
    adj[v] = set()
    for x in neigh:
        ax = adj[x]
        ax |= neigh
        ax.discard(x)
        ax.discard(v)
    return neigh


def _greedy_min_degree_order(
    adj: Sequence[Iterable[int]], last: Sequence[int] = ()
) -> tuple[list[int], int, list[set[int]]]:
    """Min-degree elimination ordering (ties to the smaller vertex), the
    width it achieves, and each eliminated vertex's separator N+(v), the
    neighbours it has when eliminated.  A heap holds (degree, vertex)
    entries; a vertex is pushed again whenever its degree changes, and
    entries of eliminated vertices or of outdated degrees are skipped.  The
    vertices in `last` stay out of the heap and are eliminated at the end,
    in that order."""
    adj = [set(s) for s in adj]
    eliminated = [False] * len(adj)
    for v in last:
        eliminated[v] = True  # so the heap skips it
    heap = [(len(s), v) for v, s in enumerate(adj) if not eliminated[v]]
    heapq.heapify(heap)
    order = []
    seps = []
    width = 0
    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v] or degree != len(adj[v]):
            continue
        width = max(width, degree)
        neigh = _eliminate(adj, v)
        eliminated[v] = True
        order.append(v)
        seps.append(neigh)
        for x in neigh:
            heapq.heappush(heap, (len(adj[x]), x))
    for v in last:
        neigh = _eliminate(adj, v)
        width = max(width, len(neigh))
        order.append(v)
        seps.append(neigh)
    return order, width, seps


def _order_decision(adj: list[set[int]], max_width: int) -> list[int] | None:
    """An elimination ordering with all elimination degrees <= max_width,
    or None.  Memoized branch and bound over the eliminated set (the fill-in
    graph depends only on the set, not the order)."""
    n = len(adj)
    dead: set[int] = set()

    def search(adj_now: list[set[int]], alive: frozenset[int], mask: int) -> list[int] | None:
        if len(alive) <= max_width + 1:
            return sorted(alive)
        if mask in dead:
            return None
        # eliminate simplicial / near-simplicial vertices without branching
        for v in sorted(alive):
            nb = adj_now[v]
            if len(nb) <= max_width and all(
                y in adj_now[x] for x in nb for y in nb if x < y
            ):
                rest = search(*without(adj_now, alive, v), mask | (1 << v))
                if rest is None:
                    dead.add(mask)
                    return None
                return [v] + rest
        for v in sorted(alive, key=lambda u: (len(adj_now[u]), u)):
            if len(adj_now[v]) > max_width:
                continue
            rest = search(*without(adj_now, alive, v), mask | (1 << v))
            if rest is not None:
                return [v] + rest
        dead.add(mask)
        return None

    def without(adj_now: list[set[int]], alive: frozenset[int], v: int):
        nxt = [set(s) for s in adj_now]
        _eliminate(nxt, v)
        return nxt, alive - {v}

    return search(adj, frozenset(range(n)), 0)


def _td_from_seps(order: list[int], seps: list[set[int]]) -> TreeDecomposition:
    """The tree decomposition of an elimination ordering, from each
    vertex's separator N+(v): v's bag is {v} | N+(v), under the bag of the
    first-eliminated vertex of N+(v)."""
    pos = {v: i for i, v in enumerate(order)}
    bags = tuple(frozenset(sep | {v}) for v, sep in zip(order, seps))
    edges = []
    for i, sep in enumerate(seps):
        if sep:
            edges.append((i, min(pos[u] for u in sep)))
        elif i + 1 < len(order):
            # isolated at elimination time: hang the bag anywhere
            edges.append((i, i + 1))
    return TreeDecomposition(bags, tuple(edges))


def _td_from_order(g: ColouredGraph, order: list[int]) -> TreeDecomposition:
    adj = [set(s) for s in g.adj]
    return _td_from_seps(order, [_eliminate(adj, v) for v in order])


# The most vertices the exact branch-and-bound treewidth decision takes.
EXACT_TREEWIDTH_MAX_N = 30


def exact_tree_decomposition(g: ColouredGraph, max_width: int) -> TreeDecomposition | None:
    """A tree decomposition of width <= max_width, or None if none exists.

    A min-degree greedy ordering is tried first for any size.  For
    max_width <= 2 its answer is exact: eliminating a vertex of degree at
    most 2 leaves a minor, so when greedy meets only degrees of 3 or more,
    the graph has a minor of minimum degree 3 and treewidth at least 3.
    Otherwise the exact branch-and-bound decision only runs for
    n <= EXACT_TREEWIDTH_MAX_N; larger graphs that greedy cannot certify
    raise, since neither answer would be safe.
    """
    if g.n == 0:
        return TreeDecomposition((frozenset(),), ())
    order, width, seps = _greedy_min_degree_order(g.adj)
    if width <= max_width:
        td = _td_from_seps(order, seps)
        assert td.width <= max_width
        return td
    if max_width <= 2:
        return None
    if g.n > EXACT_TREEWIDTH_MAX_N:
        raise UnsupportedInstanceError(
            f"exact treewidth decision supports n <= {EXACT_TREEWIDTH_MAX_N}, got n = {g.n}"
        )
    order2 = _order_decision([set(s) for s in g.adj], max_width)
    if order2 is None:
        return None
    td = _td_from_order(g, order2)
    assert td.width <= max_width
    return td


# ---------------------------------------------------------------------------
# Nice tree decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted decomposition whose nodes are leaves (empty bag), introduce and
    forget nodes (one-vertex delta) and joins (two children, same bag).
    The root has an empty bag: a forget node, a join, or a bare leaf."""

    bags: tuple[frozenset[int], ...]
    kind: tuple[str, ...]
    children: tuple[tuple[int, ...], ...]
    delta: tuple[int | None, ...]
    root: int

    def validate(self, g: ColouredGraph) -> None:
        """Raise ValueError, naming the node at fault, unless this is a nice
        tree decomposition of g rooted at `root`."""
        k = len(self.bags)
        arity = {"leaf": 0, "introduce": 1, "forget": 1, "join": 2}
        rows = zip(self.kind, self.children, self.bags, self.delta, strict=True)
        for i, (knd, cs, bag, v) in enumerate(rows):
            if knd not in arity:
                raise ValueError(f"node {i} has unknown kind {knd!r}")
            if len(cs) != arity[knd] or not all(0 <= c < k for c in cs):
                want = f"want {arity[knd]} in 0..{k - 1}"
                raise ValueError(f"{knd} node {i} has children {cs}: {want}")
            below = self.bags[cs[0]] if cs else frozenset()
            if (
                knd == "leaf" and bag
                or knd == "introduce" and (v is None or v in below or bag != below | {v})
                or knd == "forget" and (v is None or v in bag or below != bag | {v})
                or knd == "join" and not bag == below == self.bags[cs[1]]
            ):
                raise ValueError(f"{knd} node {i} malformed")
        if not 0 <= self.root < k or self.bags[self.root]:
            raise ValueError(f"root {self.root} must be a node with an empty bag")
        kids = sorted(c for cs in self.children for c in cs)
        if kids != [i for i in range(k) if i != self.root]:
            raise ValueError(f"every node but the root {self.root} must be one node's child")
        # behaves as a tree decomposition too
        edges = tuple((i, c) for i, cs in enumerate(self.children) for c in cs)
        TreeDecomposition(self.bags, edges).validate(g)


def to_nice(td: TreeDecomposition, g: ColouredGraph) -> NiceTreeDecomposition:
    """Convert a tree decomposition into a nice one with an empty root bag.

    The tree of bags is rooted at node 0 by `search` and built children
    first, in reverse visit order.  A node's children are ordered by the
    sorted colours they forget on the way up to it, then by id: same-coloured
    twins sit next to each other and are joined close together, so the DP
    can drop their colour soon after.  Each child's top is chained to the
    part of the node's bag that some child holds, the children are joined on
    that part, and one chain above the joins introduces the rest of the
    node's bag, once.  A leaf of the tree starts from a nice leaf."""
    bags: list[frozenset[int]] = []
    kind: list[str] = []
    children: list[tuple[int, ...]] = []
    delta: list[int | None] = []

    def add(knd: str, bag: frozenset[int], cs: tuple[int, ...], d: int | None) -> int:
        bags.append(bag)
        kind.append(knd)
        children.append(cs)
        delta.append(d)
        return len(bags) - 1

    def chain_to(node: int, target: frozenset[int]) -> int:
        """Forget/introduce one vertex at a time until the bag equals target."""
        cur = bags[node]
        for v in sorted(cur - target):
            node = add("forget", bags[node] - {v}, (node,), v)
        for v in sorted(target - cur):
            node = add("introduce", bags[node] | {v}, (node,), v)
        return node

    nb = td.neighbours()
    up = search(nb, 0)
    tops: dict[int, int] = {}  # the nice node of each finished td node's bag
    for i in reversed(up):
        bag = td.bags[i]
        todo = sorted(
            nb[i] - {up[i]}, key=lambda j: (sorted(g.colours[v] for v in td.bags[j] - bag), j)
        )
        held = bag & frozenset().union(*(td.bags[j] for j in todo))
        joined = [chain_to(tops.pop(j), held) for j in todo]
        if not joined:
            joined.append(add("leaf", frozenset(), (), None))
        while len(joined) > 1:
            b = joined.pop()
            a = joined.pop()
            joined.append(add("join", held, (a, b), None))
        tops[i] = chain_to(joined[0], bag)
    root = chain_to(tops[0], frozenset())
    return NiceTreeDecomposition(
        tuple(bags), tuple(kind), tuple(children), tuple(delta), root
    )


# ---------------------------------------------------------------------------
# Rooted normal form for the width-2 two-block solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedDecomposition2CP:
    """Width-<=2 decomposition rooted at the bag {a, b}, in the normal form
    the two-block solver needs:

    * adjacent bags strictly nest,
    * all bags are distinct,
    * every subtree spans a connected part of the graph,
    * in a 3-bag under a 2-bag P, the vertex outside P shares an edge of
      the graph or a 2-bag with each vertex of P.

    Nodes are numbered parents first: the root is node 0 and every other
    node's parent has a smaller number.
    """

    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root = 0

    def as_tree(self) -> TreeDecomposition:
        edges = tuple(
            (i, p) for i, p in enumerate(self.parent) if p != -1
        )
        return TreeDecomposition(self.bags, edges)

    def validate(self, g: ColouredGraph, a: int, b: int) -> None:
        if not self.bags or len(self.parent) != len(self.bags) or self.parent[0] != -1:
            raise ValueError("node 0 must be the root, with no parent")
        for i, p in enumerate(self.parent[1:], 1):
            if not 0 <= p < i:
                raise ValueError(f"node {i} is not numbered after its parent")
        _check_rooted_bags(g, self.bags, self.parent)
        if self.bags[0] != frozenset({a, b}):
            raise ValueError("root bag must be {a, b}")
        if len(set(self.bags)) != len(self.bags):
            raise ValueError("bags must be pairwise distinct")
        if max(map(len, self.bags)) > 3:
            raise ValueError("bags must hold at most 3 vertices")
        # Children first, so every child's subtree is already known to be
        # connected when its parent is checked; see `_joins_subtrees`.
        # A child whose subtree holds no vertex adds nothing to its parent's.
        overlaps: list[list[frozenset[int]]] = [[] for _ in self.bags]
        for i in reversed(range(len(self.bags))):
            if not _joins_subtrees(g, self.bags[i], overlaps[i]):
                raise ValueError(f"subtree of node {i} spans a disconnected part")
            if i and (self.bags[i] or overlaps[i]):
                p = self.parent[i]
                overlaps[p].append(self.bags[i] & self.bags[p])
        two_bags = {bag for bag in self.bags if len(bag) == 2}
        for i in range(1, len(self.bags)):
            bi, bp = self.bags[i], self.bags[self.parent[i]]
            if not (bi < bp or bp < bi):
                raise ValueError(f"bags of {i} and its parent do not strictly nest")
            if len(bi) == 3 and len(bp) == 2:
                (w,) = bi - bp
                if not all(g.has_edge(w, x) or frozenset({w, x}) in two_bags for x in bp):
                    raise ValueError(
                        f"vertex {w} of node {i} is not attached to its parent's bag"
                    )


def _joins_subtrees(
    g: ColouredGraph, bag: frozenset[int], overlaps: list[frozenset[int]]
) -> bool:
    """Whether a node's subtree spans a connected part of g, given its bag
    of at most 3 vertices and, for each child c whose subtree holds a
    vertex, the overlap bag(c) & bag; the children's subtrees must be
    connected, and the tree a tree decomposition of g.

    A vertex of sub(c) outside the bag lies in no bag outside c's subtree,
    and neither does any graph edge at it; so sub(c) meets the rest of the
    subtree only in the overlap.  The subtree is therefore connected iff the
    overlaps and the graph edges inside the bag join the bag into one group.
    A child with an empty overlap is cut off unless it is all there is.  Of
    at most 3 vertices, any |bag| - 1 distinct pairs join them all."""
    if not all(overlaps):
        return not bag and len(overlaps) == 1
    if bag in overlaps:  # a child holds the whole bag
        return True
    linked = sum(
        1
        for u, v in combinations(bag, 2)
        if v in g.adj[u] or frozenset((u, v)) in overlaps
    )
    return linked >= len(bag) - 1


def normalize_for_2cp(g: ColouredGraph, a: int, b: int) -> RootedDecomposition2CP:
    """The rooted normal form of a connected graph of treewidth at most 2 for
    the ordered pair (a, b); a and b must be adjacent.

    One min-degree elimination leaves b and a for last.  Every partial
    2-tree with the edge ab has a vertex of degree at most 2 outside {a, b},
    so every separator N+(v), the neighbours v has when it is eliminated,
    holds at most 2 vertices.  Vertex v's node has the bag {v} | N+(v) and
    hangs under the node for N+(v): the node of u, the first-eliminated
    vertex of N+(v), if N+(v) is u's bag, else one node per distinct
    separator, hung under u's node.  b and a share the root {a, b}.  In a
    connected graph the subtree of each eliminated vertex spans a connected
    part of the graph.  A node's parent belongs to a vertex eliminated
    later, so one pass in reverse elimination order numbers the nodes
    parents first."""
    if not g.has_edge(a, b):
        raise ValueError("a and b must be adjacent")
    order, width, seps = _greedy_min_degree_order(g.adj, last=(b, a))
    if width > 2:
        raise ValueError("normalization needs treewidth at most 2")
    pos = {v: i for i, v in enumerate(order)}
    root = frozenset({a, b})
    vbags = [root] * g.n  # the bag of the vertex at each position
    node = [0] * g.n  # the node of the vertex at each position
    bags, parent = [root], [-1]
    sep_node: dict[frozenset[int], int] = {}
    for i in reversed(range(g.n - 2)):
        sep = frozenset(seps[i])
        if not sep:
            raise ValueError("normalization needs a connected graph")
        u = min(pos[x] for x in sep)
        vbags[i] = sep | {order[i]}
        if sep == vbags[u]:
            p = node[u]
        elif sep in sep_node:
            p = sep_node[sep]
        else:
            p = sep_node[sep] = len(bags)
            bags.append(sep)
            parent.append(node[u])
        node[i] = len(bags)
        bags.append(vbags[i])
        parent.append(p)
    dec = RootedDecomposition2CP(tuple(bags), tuple(parent))
    dec.validate(g, a, b)
    return dec
