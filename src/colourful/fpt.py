"""Exponential-parameter exact solvers: dynamic programming over nice tree
decompositions for both problems (over the tree itself on a tree component),
a kernelization pipeline parameterized by vertex cover, and a solver
parameterized by the number of vertices whose colour is not unique.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .decomposition import NiceTreeDecomposition, exact_tree_decomposition, to_nice
from .graph import (
    ColouredGraph,
    SolveResult,
    UnsupportedInstanceError,
    canonical_partition,
    crossing_edges,
    induces_connected,
    is_colourful_partition,
    is_valid_deletion_set,
    search,
    solve_by_component,
)
from .polysolvers import hopcroft_karp


# ---------------------------------------------------------------------------
# One DP over nice tree decompositions, parameterized by treewidth + number
# of colours.  A state is a Key; each problem supplies how a vertex is
# introduced, how two subtrees are joined and how a key drops the colours
# that die at a node, and forgetting is shared.
# ---------------------------------------------------------------------------

# A DP key is a sorted tuple of (part, forgotten) pairs of int bitmasks: a
# part of the bag over vertex ids, and the colours of the already-forgotten
# vertices absorbed into that part's class over colour ranks.  Bits above
# the ranks are labels that stand for dead colours (`_partition_project`).
# Parts are disjoint, so a key is ordered by its part masks.  At a forget
# node a key is dropped when another key of the table dominates it: the same
# part masks, forgotten colours and labels a subset part by part, and a value
# no higher (`_drop_dominated`).  Every completion of the dropped key stays
# open to the other at no higher cost, so only the Pareto-minimal keys are
# kept, and the stats `states` and `max_table` count the entries kept.
Key = tuple[tuple[int, int], ...]
Table = dict[Key, int]  # the least value found per key

EMPTY_KEY: Key = ()

# A step maps a whole child table to (key, value, back-pointer) moves.  The
# back-pointers are ("l",) at a leaf, ("i", child key, indices of the child
# parts merged with the new vertex), ("f", child key, index of the forgotten
# vertex's part) and ("j", left key, right key).
Moves = Iterable[tuple[Key, int, tuple]]


def _find(link: list[int], x: int) -> int:
    """The root of x in a union-find forest of parent links, compressing
    the path to it."""
    root = x
    while link[root] != root:
        root = link[root]
    while link[x] != root:
        link[x], x = root, link[x]
    return root


def _members(mask: int) -> Iterator[int]:
    """The vertex ids of a part mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Bits:
    """The bit tables of one DP run.  Colours are remapped to dense ranks,
    so forgotten-colour masks stay small whatever the colour ids.  Per
    vertex: its colour bit and its neighbour mask; per bag block, its colour
    mask; per node, the mask of the colours dying there."""

    def __init__(
        self, g: ColouredGraph, nice: NiceTreeDecomposition, order: list[int]
    ) -> None:
        rank = {c: i for i, c in enumerate(sorted(set(g.colours)))}
        self.ncol = len(rank)
        self.live = (1 << self.ncol) - 1
        self.colour = [1 << rank[c] for c in g.colours]
        self.nbrs = [sum(1 << w for w in adj) for adj in g.adj]
        # A label names a set of part indices, and a key has at most one
        # part per bag vertex, so labels fit in this many bits.
        self.label_span = 1 << max(map(len, nice.bags))
        self.dying = self._dying(nice, order)
        self._colours: dict[int, int] = {}
        self._plans: dict[tuple[tuple[int, ...], tuple[int, ...]], list | None] = {}

    def colours(self, part: int) -> int:
        """The colour mask of a bag block, or -1 if it is not colourful."""
        mask = self._colours.get(part)
        if mask is None:
            mask = 0
            for u in _members(part):
                if mask & self.colour[u]:
                    mask = -1
                    break
                mask |= self.colour[u]
            self._colours[part] = mask
        return mask

    def glue_plan(
        self, lparts: tuple[int, ...], rparts: tuple[int, ...]
    ) -> list[tuple[int, int, list[int]]] | None:
        """The mutual coarsening of two partitions of one bag, given as part
        masks: per merged part, in key order, its mask, its colour mask and
        the indices of the parts it swallows (right ones numbered after the
        left ones); None if a merged part is not colourful."""
        pair = (lparts, rparts)
        if pair not in self._plans:
            groups = [(part, [i]) for i, part in enumerate(lparts)]
            for j, rpart in enumerate(rparts, len(lparts)):
                hit = [grp for grp in groups if grp[0] & rpart]
                groups = [grp for grp in groups if not grp[0] & rpart]
                groups.append((
                    rpart | sum(part for part, _ in hit),
                    [i for _, picks in hit for i in picks] + [j],
                ))
            groups.sort()
            plan = [(part, self.colours(part), picks) for part, picks in groups]
            self._plans[pair] = plan if all(m >= 0 for _, m, _ in plan) else None
        return self._plans[pair]

    def _dying(self, nice: NiceTreeDecomposition, order: list[int]) -> dict[int, int]:
        """A colour dies at the lowest common ancestor of the forget nodes of
        all its vertices, which is that of the first and the last of them in
        postorder.  One postorder pass finds it: a union-find links each node
        to its parent once the parent is reached, so a finished node's set is
        rooted at its highest finished ancestor h, and the ancestor it shares
        with the current node is that node itself if h is it, and otherwise
        the parent of h."""
        up = [-1] * len(nice.bags)
        for node, kids in enumerate(nice.children):
            for child in kids:
                up[child] = node
        link = list(range(len(nice.bags)))
        left = Counter(self.colour)
        first: dict[int, int] = {}
        dying: dict[int, int] = {}
        for node in order:
            for child in nice.children[node]:
                link[child] = node
            if nice.kind[node] != "forget":
                continue
            colour = self.colour[nice.delta[node]]
            first.setdefault(colour, node)
            left[colour] -= 1
            if left[colour] == 0:
                top = _find(link, first[colour])
                at = node if top == node else up[top]
                dying[at] = dying.get(at, 0) | colour
        return dying


def _default_nice(
    g: ColouredGraph, nice: NiceTreeDecomposition | None, max_width: int
) -> NiceTreeDecomposition:
    if nice is not None:
        nice.validate(g)
        return nice
    td = exact_tree_decomposition(g, max_width)
    if td is None:
        raise UnsupportedInstanceError(f"treewidth exceeds {max_width}")
    return to_nice(td, g)


def _tree_dp(
    g: ColouredGraph,
    nice: NiceTreeDecomposition,
    introduce: Callable[[_Bits, int, int, Table], Moves],
    join: Callable[[_Bits, int, Table, Table], Moves],
    project: Callable[[_Bits, Key, int], Key],
) -> tuple[int, dict[int, dict[Key, tuple]], dict[str, int]]:
    """Bottom-up minimisation over the nice decomposition: each node keeps,
    per key, the least value of the moves reaching it and the first move
    attaining it.  Keys are projected where colours die, and wherever a
    child table holds labels, whose holders' indices may have moved.  A
    forget node then drops its dominated keys.  Bags are passed to the steps
    as vertex masks.  Returns the root value, the back-pointer tables and
    the stats: the nice nodes, the size of the largest table and the entries
    kept over all tables."""
    order = nice.postorder()
    bits = _Bits(g, nice, order)
    tables: dict[int, Table] = {}
    bags: dict[int, int] = {}
    labelled: set[int] = set()  # nodes whose table holds label bits
    backs: dict[int, dict[Key, tuple]] = {}
    max_table = states = 0
    for node in order:
        kind = nice.kind[node]
        kids = nice.children[node]
        if kind == "leaf":
            bag = 0
            moves: Moves = [(EMPTY_KEY, 0, ("l",))]
        elif kind == "join":
            bag = bags.pop(kids[0])
            del bags[kids[1]]
            moves = join(bits, bag, tables.pop(kids[0]), tables.pop(kids[1]))
        else:
            v = nice.delta[node]
            bag = bags.pop(kids[0]) ^ 1 << v
            step = introduce if kind == "introduce" else _forget
            moves = step(bits, v, bag, tables.pop(kids[0]))
        dying = bits.dying.get(node, 0)
        projected = dying != 0 or not labelled.isdisjoint(kids)
        if projected:
            moves = ((project(bits, key, dying), val, info) for key, val, info in moves)
        table: Table = {}
        back: dict[Key, tuple] = {}
        for key, val, info in moves:
            if key not in table or val < table[key]:
                table[key] = val
                back[key] = info
        if kind == "forget" and len(table) > 1:
            _drop_dominated(table, back)
        if projected and any(rho > bits.live for key in table for _, rho in key):
            labelled.add(node)
        tables[node] = table
        bags[node] = bag
        backs[node] = back
        max_table = max(max_table, len(table))
        states += len(table)
    stats = {"nodes": len(nice.bags), "max_table": max_table, "states": states}
    return tables[nice.root][EMPTY_KEY], backs, stats


def _forget(bits: _Bits, v: int, bag: int, table: Table) -> Moves:
    """Drop v from its part: a part left empty closes its class, any other
    part adds v's colour to its forgotten colours."""
    vbit = 1 << v
    for ckey, cval in table.items():
        idx = next(i for i, (part, _) in enumerate(ckey) if part & vbit)
        part, rho = ckey[idx]
        key = list(ckey)
        del key[idx]
        if part != vbit:
            insort(key, (part ^ vbit, rho | bits.colour[v]))
        yield tuple(key), cval, ("f", ckey, idx)


def _drop_dominated(table: Table, back: dict[Key, tuple]) -> None:
    """Delete every key dominated by another with the same part masks:
    forgotten masks a subset part by part and a value no higher.  A label
    bit counts as any other bit: it names one set of holders, so a subset
    of the labels leaves fewer merges forbidden.  Each key's forgotten masks
    are packed into one int, in fields as wide as the table's widest mask,
    so one `&` tests a pair.  Sorted by value, then by bits set, a key
    comes after every key that dominates it, and dominance is transitive,
    so testing it against the keys kept so far suffices."""
    width = max(rho for key in table for _, rho in key).bit_length()
    groups: dict[tuple[int, ...], list[tuple[int, int, int, Key]]] = {}
    for key, val in table.items():
        # two keys mean a nonempty bag, so no key is empty
        parts, rhos = zip(*key)
        packed = 0
        for rho in rhos:
            packed = packed << width | rho
        groups.setdefault(parts, []).append((val, packed.bit_count(), packed, key))
    for entries in groups.values():
        if len(entries) < 2:
            continue
        entries.sort()
        kept: list[int] = []
        for _, _, packed, key in entries:
            outside = ~packed
            for f in kept:
                if not f & outside:
                    del table[key], back[key]
                    break
            else:
                kept.append(packed)


def _replay(
    nice: NiceTreeDecomposition, backs: dict[int, dict[Key, tuple]], n: int
) -> list[frozenset[int]]:
    """The classes of an optimal solution.  Follow the back-pointers down
    from the root's empty key; each chosen introduce puts its vertex in one
    class with a vertex of every part it merged, in a union-find over the
    vertices.  Nothing else is needed: the vertices of a part already share
    a class, and the parts a join glues share a bag vertex."""
    link = list(range(n))
    chosen: dict[int, Key] = {nice.root: EMPTY_KEY}
    stack = [nice.root]
    while stack:
        node = stack.pop()
        info = backs[node][chosen[node]]
        if info[0] == "i":
            v = _find(link, nice.delta[node])
            for i in info[2]:
                part = info[1][i][0]
                link[_find(link, (part & -part).bit_length() - 1)] = v
        for child, ckey in zip(nice.children[node], info[1:]):
            chosen[child] = ckey
            stack.append(child)
    return _classes(link)


def _classes(link: list[int]) -> list[frozenset[int]]:
    """The sets of a union-find forest over 0..len(link)-1."""
    classes: dict[int, set[int]] = {}
    for u in range(len(link)):
        classes.setdefault(_find(link, u), set()).add(u)
    return [frozenset(cls) for cls in classes.values()]


# The budget of the tree DP: the mask pairs its merges may compare per tree
# vertex, each least-cost mask of a child against the others and against
# each mask of the parent.  The pairs bound the time and the entries stored.
# A table can hold up to 2^(colours - 1) masks, and a hub's does: the centre
# of a star of 30 leaves and 31 distinct colours would hold 2^30.  Random
# recursive trees of 3000 vertices and 30 colours stay well within it, and
# so do preferential-attachment trees, whose hubs are large, up to 12
# colours.
TREE_PAIRS_PER_VERTEX = 256


def _tree_pieces(g: ColouredGraph) -> tuple[int, list[frozenset[int]], dict[str, int]]:
    """Cut the fewest edges of a connected tree so that every piece is
    colourful: on a tree this answers both problems, with blocks = cuts + 1
    and the cut edges as deletions.  Rooted at 0 and processed children
    first, each vertex keeps the least cuts in its subtree per colour mask
    (over dense ranks) of its open piece.  A child u joins its parent's
    piece where their masks are disjoint, or the edge to u is cut at u's
    least cuts plus one.  So only u's least-valued masks can beat the cut,
    and of those only the inclusion-minimal ones: a larger mask at no lower
    cost never leaves more colours free.  Returns the cuts, the pieces and
    the stats: the tree vertices, the largest table and the entries stored
    over all tables.  Raises UnsupportedInstanceError once the merges have
    compared more than `TREE_PAIRS_PER_VERTEX` mask pairs per tree vertex."""
    rank = {c: i for i, c in enumerate(sorted(set(g.colours)))}
    parent = search(g.adj, 0)
    tables = [{1 << rank[c]: 0} for c in g.colours]
    pairs, budget = 0, TREE_PAIRS_PER_VERTEX * g.n
    # per child, in merge order: per mask of its parent after the merge, the
    # parent's mask before it and the child's mask joined (-1 for a cut)
    backs: list[tuple[int, dict[int, tuple[int, int]]]] = []
    max_table = states = 0
    for u in reversed(parent):
        table = tables[u]
        max_table = max(max_table, len(table))
        states += len(table)
        low = min(table.values())
        v = parent[u]
        if v is None:
            break
        best = sorted(mask for mask, cuts in table.items() if cuts == low)
        pairs += len(best) * (len(best) + len(tables[v]))
        if pairs > budget:
            raise UnsupportedInstanceError(
                f"tree DP compares more than {TREE_PAIRS_PER_VERTEX} mask pairs per vertex"
            )
        minimal = [t for i, t in enumerate(best) if all(s & t != s for s in best[:i])]
        merged: dict[int, int] = {}
        back: dict[int, tuple[int, int]] = {}
        for s, a in tables[v].items():
            moves = [(s, a + low + 1, -1)]
            moves += [(s | t, a + low, t) for t in minimal if not s & t]
            for mask, cuts, t in moves:
                if cuts < merged.get(mask, cuts + 1):
                    merged[mask] = cuts
                    back[mask] = (s, t)
        tables[v] = merged
        backs.append((u, back))
    # Undo the merges from the last: a child's merge is undone after its
    # parent's own merge, so the parent's mask is known by then.  Each
    # vertex links straight to the top of its piece.
    chosen = [0] * g.n
    chosen[0] = min(tables[0], key=tables[0].get)
    cuts = tables[0][chosen[0]]
    piece = list(range(g.n))
    for u, back in reversed(backs):
        v = parent[u]
        chosen[v], t = back[chosen[v]]
        if t < 0:
            chosen[u] = min(tables[u], key=tables[u].get)
        else:
            chosen[u] = t
            piece[u] = piece[v]
    stats = {"nodes": g.n, "max_table": max_table, "states": states}
    return cuts, _classes(piece), stats


# ---------------------------------------------------------------------------
# Minimum colourful partition: a part is one connected, colourful class
# ---------------------------------------------------------------------------


def _glue(mask: int, rhos: Sequence[int], picks: Iterable[int]) -> int:
    """The forgotten colours of the parts `picks` of `rhos` merged into a
    block of colour mask `mask`, or -1 if a colour or label would repeat."""
    acc = mask
    for i in picks:
        if acc & rhos[i]:
            return -1
        acc |= rhos[i]
    return acc ^ mask


def _partition_introduce(bits: _Bits, v: int, bag: int, table: Table) -> Moves:
    """v opens a part that swallows any set of parts adjacent to it, as long
    as the merged class stays colourful; the value counts parts opened."""
    vbit, nbrs = 1 << v, bits.nbrs[v]
    for ckey, cval in table.items():
        rhos = [rho for _, rho in ckey]
        candidates = [i for i, (part, _) in enumerate(ckey) if part & nbrs]
        for r in range(len(candidates) + 1):
            for rset in combinations(candidates, r):
                merged = vbit | sum(ckey[i][0] for i in rset)
                mask = bits.colours(merged)
                rho = _glue(mask, rhos, rset) if mask >= 0 else -1
                if rho < 0:
                    continue
                key = [p for i, p in enumerate(ckey) if i not in rset]
                insort(key, (merged, rho))
                yield tuple(key), cval + 1 - r, ("i", ckey, rset)


def _partition_join(bits: _Bits, bag: int, left: Table, right: Table) -> Moves:
    """Glue every pair of states along the mutual coarsening of their bag
    partitions, as long as each glued class stays colourful; parts shared
    by both sides were counted twice.  The right side's labels are moved
    above the left side's, so that labels of the two sides never clash."""
    shift = bits.label_span

    def by_parts(table: Table, labels_up: bool) -> dict[tuple[int, ...], list]:
        out: dict[tuple[int, ...], list] = {}
        for key, val in table.items():
            rhos = tuple(
                rho if rho <= bits.live or not labels_up
                else rho & bits.live | (rho >> bits.ncol << bits.ncol + shift)
                for _, rho in key
            )
            out.setdefault(tuple(p for p, _ in key), []).append((key, val, rhos))
        return out

    rights = by_parts(right, True)
    for lparts, lstates in by_parts(left, False).items():
        for rparts, rstates in rights.items():
            plan = bits.glue_plan(lparts, rparts)
            if plan is None:
                continue
            delta = len(plan) - len(lparts) - len(rparts)
            for lkey, lval, lrhos in lstates:
                for rkey, rval, rrhos in rstates:
                    rhos = lrhos + rrhos
                    key = tuple(
                        (part, _glue(mask, rhos, picks)) for part, mask, picks in plan
                    )
                    if all(rho >= 0 for _, rho in key):
                        yield key, lval + rval + delta, ("j", lkey, rkey)


def _partition_project(bits: _Bits, key: Key, dying: int) -> Key:
    """Parts can still merge, so a dead colour held by two or more parts
    still forbids merging them.  Where one part holds it, drop it;
    otherwise replace it by the label of its set of holders, bit
    `ncol + (mask of their indices)`, so dead colours held by the same parts
    collapse into one label.  Labels already in the key are renamed the same
    way, since the indices of their holders may have moved."""
    live = bits.live
    if not dying and all(rho <= live for _, rho in key):
        return key
    holders: dict[int, int] = {}
    out = []
    for i, (part, rho) in enumerate(key):
        tags = rho & (~live | dying)
        while tags:
            low = tags & -tags
            holders[low] = holders.get(low, 0) | 1 << i
            tags ^= low
        out.append([part, rho & live & ~dying])
    for held in set(holders.values()):
        if held & (held - 1):
            label = 1 << (bits.ncol + held)
            for i in _members(held):
                out[i][1] |= label
    return tuple(map(tuple, out))


def dp_partition(
    g: ColouredGraph,
    nice: NiceTreeDecomposition | None = None,
    max_width: int = 4,
) -> SolveResult:
    """Minimum colourful partition via dynamic programming over a nice tree
    decomposition.  Keys pair a partition of the bag with the forgotten
    colours per part; the value counts the parts opened so far.  A supplied
    decomposition covers the whole graph; without one, each connected
    component gets its own decomposition and DP, except that a tree
    component goes to `_tree_pieces`."""

    def solve(sub: ColouredGraph, nice: NiceTreeDecomposition | None = None) -> SolveResult:
        # `sub` is connected, so it is a tree iff it has n - 1 edges
        if nice is None and sub.m == sub.n - 1:
            cuts, classes, stats = _tree_pieces(sub)
            optimum = cuts + 1
        else:
            nice = _default_nice(sub, nice, max_width)
            optimum, backs, stats = _tree_dp(
                sub, nice, _partition_introduce, _partition_join, _partition_project
            )
            classes = _replay(nice, backs, sub.n)
        witness = canonical_partition(classes)
        assert len(witness) == optimum and is_colourful_partition(sub, witness)
        return SolveResult("partition", optimum, witness, "treewidth-dp", stats)

    return solve(g, nice) if nice is not None else solve_by_component(g, "partition", solve)


# ---------------------------------------------------------------------------
# Minimum deletions: a part is one colourful class, connected or not, and
# every edge between two classes is deleted
# ---------------------------------------------------------------------------


def _components_introduce(bits: _Bits, v: int, bag: int, table: Table) -> Moves:
    """v joins one class that lacks its colour, or opens a new class; each
    edge from v to another class in the bag is deleted."""
    vbit, colour = 1 << v, bits.colour[v]
    bag_nbrs = bits.nbrs[v] & bag
    for ckey, cval in table.items():
        for i, (part, rho) in enumerate(ckey):
            if (rho | bits.colours(part)) & colour:
                continue
            key = list(ckey)
            del key[i]
            insort(key, (part | vbit, rho))
            yield tuple(key), cval + (bag_nbrs & ~part).bit_count(), ("i", ckey, (i,))
        key = list(ckey)
        insort(key, (vbit, 0))
        yield tuple(key), cval + bag_nbrs.bit_count(), ("i", ckey, ())


def _components_join(bits: _Bits, bag: int, left: Table, right: Table) -> Moves:
    """Glue states with the same bag partition whose classes forgot disjoint
    colours; deleted edges inside the bag were counted on both sides."""
    by_parts: dict[tuple[int, ...], list[tuple[Key, int]]] = {}
    for rkey, rval in right.items():
        by_parts.setdefault(tuple(p for p, _ in rkey), []).append((rkey, rval))
    cut: dict[tuple[int, ...], int] = {}
    for lkey, lval in left.items():
        parts = tuple(p for p, _ in lkey)
        if parts not in cut:
            cut[parts] = sum(
                (bits.nbrs[u] & bag & ~part).bit_count()
                for part in parts
                for u in _members(part)
            ) // 2
        for rkey, rval in by_parts.get(parts, ()):
            if any(a & b for (_, a), (_, b) in zip(lkey, rkey)):
                continue
            key = tuple((part, a | b) for (part, a), (_, b) in zip(lkey, rkey))
            yield key, lval + rval - cut[parts], ("j", lkey, rkey)


def _components_project(bits: _Bits, key: Key, dying: int) -> Key:
    """Classes never merge, so a dead colour leaves every part."""
    if not dying:
        return key
    return tuple((part, rho & ~dying) for part, rho in key)


def dp_components(
    g: ColouredGraph,
    nice: NiceTreeDecomposition | None = None,
    max_width: int = 4,
) -> SolveResult:
    """Minimum number of edge deletions via dynamic programming over a nice
    tree decomposition.  Equivalent view: partition the vertices into
    colourful classes (connectivity not required) minimising the number of
    edges whose endpoints land in different classes.  A supplied
    decomposition covers the whole graph; without one, each connected
    component gets its own decomposition and DP, except that a tree
    component goes to `_tree_pieces`."""

    def solve(sub: ColouredGraph, nice: NiceTreeDecomposition | None = None) -> SolveResult:
        # `sub` is connected, so it is a tree iff it has n - 1 edges
        if nice is None and sub.m == sub.n - 1:
            optimum, classes, stats = _tree_pieces(sub)
        else:
            nice = _default_nice(sub, nice, max_width)
            optimum, backs, stats = _tree_dp(
                sub, nice, _components_introduce, _components_join, _components_project
            )
            classes = _replay(nice, backs, sub.n)
        deleted = crossing_edges(sub, classes)
        assert len(deleted) == optimum
        assert is_valid_deletion_set(sub, deleted)
        return SolveResult("components", optimum, deleted, "treewidth-dp", stats)

    return solve(g, nice) if nice is not None else solve_by_component(g, "components", solve)


# ---------------------------------------------------------------------------
# Minimum colourful partition, parameterized by vertex cover
# ---------------------------------------------------------------------------


def _set_partitions(
    items: Sequence[int], max_parts: int | None = None
) -> Iterator[list[list[int]]]:
    """All partitions of items into (at most max_parts) nonempty lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest, max_parts):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        if max_parts is None or len(sub) < max_parts:
            yield [[first]] + sub


def _kernel_min_partition(
    g: ColouredGraph,
    classes: list[tuple[tuple[int, frozenset[int]], list[int]]],
    q_blocks: list[list[int]],
) -> tuple[int, list[set[int]]] | None:
    """Minimum partition of the kernel whose restriction to the cover equals
    q_blocks.  `classes` lists the kernel's independent vertices as sorted
    ((colour, neighbourhood), members) rows.  Independent-set vertices join a
    compatible cover block or stay singletons; branch and bound on the
    number of singletons."""
    block_colours = [{g.colours[u] for u in blk} for blk in q_blocks]
    compat = [
        [
            j
            for j, blk in enumerate(q_blocks)
            if colour not in block_colours[j] and nbrs & set(blk)
        ]
        for (colour, nbrs), _ in classes
    ]
    best: list[int | None] = [None]
    best_assign: list[list[tuple[int, int]] | None] = [None]

    def rec(
        ci: int, singles: int, used: list[set[int]], assign: list[tuple[int, int]]
    ) -> None:
        if best[0] is not None and len(q_blocks) + singles >= best[0]:
            return
        if ci == len(classes):
            contents = [set(blk) for blk in q_blocks]
            for v, j in assign:
                contents[j].add(v)
            if all(induces_connected(g, frozenset(c)) for c in contents):
                best[0] = len(q_blocks) + singles
                best_assign[0] = list(assign)
            return
        (colour, _), members = classes[ci]
        avail = [j for j in compat[ci] if colour not in used[j]]
        for take in range(min(len(members), len(avail)), -1, -1):
            for blocks_used in combinations(avail, take):
                for j in blocks_used:
                    used[j].add(colour)
                for v, j in zip(members, blocks_used):
                    assign.append((v, j))
                rec(ci + 1, singles + len(members) - take, used, assign)
                for _ in blocks_used:
                    assign.pop()
                for j in blocks_used:
                    used[j].discard(colour)

    rec(0, 0, [set(c) for c in block_colours], [])
    if best[0] is None:
        return None
    contents = [set(blk) for blk in q_blocks]
    absorbed = set()
    for v, j in best_assign[0]:
        contents[j].add(v)
        absorbed.add(v)
    contents.extend({v} for _, members in classes for v in members if v not in absorbed)
    assert len(contents) == best[0]
    return best[0], contents


def solve_partition_vc(
    g: ColouredGraph, max_cover: int = 8, kernel_cap: int = 60
) -> SolveResult:
    """Minimum colourful partition, parameterized by vertex cover size.

    Pipeline: discard edges joining same-coloured endpoints, find a greedy
    cover S, cap every same-colour same-neighbourhood class of independent
    vertices at |S| (the overflow can only ever form singleton blocks), and
    delete whole colours that are interchangeable with at least |S|-1
    others; then for each colourful partition of S solve the kernel by
    branch and bound, and re-insert the deleted colours with bipartite
    matchings.
    """
    bichromatic = [
        (u, v) for u, v in g.edges() if g.colours[u] != g.colours[v]
    ]
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in bichromatic:
        adj[u].add(v)
        adj[v].add(u)
    cover: set[int] = set()
    for u, v in bichromatic:
        if u not in cover and v not in cover:
            cover.update((u, v))
    s = len(cover)
    if s > max_cover:
        raise UnsupportedInstanceError(
            f"greedy vertex cover has {s} > {max_cover} vertices"
        )
    stats: dict = {"cover": s}
    if s == 0:
        witness = tuple(frozenset({v}) for v in range(g.n))
        return SolveResult("partition", g.n, witness, "vertex-cover-kernel", stats)
    cover_list = sorted(cover)
    fadj = [frozenset(a) for a in adj]

    # One table of the independent vertices' (colour, neighbourhood) classes,
    # each in vertex order, the classes in order of their smallest member.
    # Rule 1 caps it, rule 2 deletes whole colours from it, and the kernel
    # search reads what is left.
    classes: dict[tuple[int, frozenset[int]], list[int]] = {}
    for v in range(g.n):
        if v not in cover:
            classes.setdefault((g.colours[v], fadj[v]), []).append(v)
    rule1_removed: list[int] = []
    for members in classes.values():
        rule1_removed.extend(members[s:])
        del members[s:]

    cover_colours = {g.colours[v] for v in cover_list}
    subset_list = [
        frozenset(ss)
        for r in range(s + 1)
        for ss in combinations(cover_list, r)
    ]
    # an independent vertex's neighbourhood is a subset of the cover
    groups: dict[tuple[int, ...], list[int]] = {}
    for colour in sorted({colour for colour, _ in classes} - cover_colours):
        profile = tuple(len(classes.get((colour, ss), ())) for ss in subset_list)
        groups.setdefault(profile, []).append(colour)
    rule2_deleted: list[tuple[int, list[int]]] = []
    for prof in sorted(groups):
        alive = groups[prof]
        while len(alive) >= s:
            colour = alive.pop()
            verts = sorted(v for ss in subset_list for v in classes.pop((colour, ss), ()))
            rule2_deleted.append((colour, verts))
    kernel = sorted(classes.items())
    kept = sum(len(members) for _, members in kernel)

    kernel_size = s + kept
    assert kernel_size <= s + s * s * 2**s + (s - 1) * (s + 1) ** (2**s) * s * 2**s
    stats["kernel"] = kernel_size
    if kept > kernel_cap:
        raise UnsupportedInstanceError(
            f"kernel keeps {kept} > {kernel_cap} independent vertices"
        )

    best_blocks: list[set[int]] | None = None
    tried = 0
    for q_blocks in _set_partitions(cover_list):
        if any(
            len({g.colours[u] for u in blk}) != len(blk) for blk in q_blocks
        ):
            continue
        tried += 1
        out = _kernel_min_partition(g, kernel, q_blocks)
        if out is None:
            continue
        _, blocks = out
        # the first len(q_blocks) blocks hold the cover and host the deleted
        # colours, in order of their smallest vertex, kept as it falls
        low = [min(blk) for blk in blocks[: len(q_blocks)]]
        for colour, verts in reversed(rule2_deleted):
            hosts = sorted(range(len(q_blocks)), key=low.__getitem__)
            f_adj = [
                [j for j, i in enumerate(hosts) if not fadj[v].isdisjoint(q_blocks[i])]
                for v in verts
            ]
            matching = hopcroft_karp(len(verts), len(hosts), f_adj)
            for x, y in matching.items():
                blocks[hosts[y]].add(verts[x])
                low[hosts[y]] = min(low[hosts[y]], verts[x])
            blocks.extend({verts[x]} for x in range(len(verts)) if x not in matching)
        blocks = blocks + [{v} for v in rule1_removed]
        if best_blocks is None or len(blocks) < len(best_blocks):
            best_blocks = blocks
    assert best_blocks is not None, "all-singleton cover partition always works"
    stats["partitions_tried"] = tried
    witness = canonical_partition(frozenset(b) for b in best_blocks)
    assert is_colourful_partition(g, witness)
    return SolveResult(
        "partition", len(witness), witness, "vertex-cover-kernel", stats
    )


# ---------------------------------------------------------------------------
# Minimum colourful partition, parameterized by non-uniquely coloured vertices
# ---------------------------------------------------------------------------


def _grow_from_seeds(g: ColouredGraph, seeds: list[int]) -> list[set[int]]:
    """Partition a connected graph into |seeds| connected blocks, one seed
    each: the smallest vertex next to a block joins the lowest-numbered
    adjacent block, until every vertex has joined one."""
    block = {v: i for i, v in enumerate(seeds)}
    frontier = [u for v in seeds for u in g.adj[v] if u not in block]
    heapify(frontier)
    while frontier:
        v = heappop(frontier)
        if v in block:
            continue
        block[v] = min(block[u] for u in g.adj[v] if u in block)
        for u in g.adj[v]:
            if u not in block:
                heappush(frontier, u)
    if len(block) < g.n:
        raise AssertionError("graph must be connected")
    blocks: list[set[int]] = [set() for _ in seeds]
    for v, i in block.items():
        blocks[i].add(v)
    return blocks


def _dcs(
    g: ColouredGraph, z_parts: list[list[int]], k: int
) -> list[set[int]] | None:
    """Disjoint connected subgraphs: spread the remaining vertices over k
    slots seeded with z_parts so every nonempty slot induces a connected
    subgraph.  Branch and bound with a connectivity-feasibility prune."""
    slots: list[set[int]] = [set(z) for z in z_parts] + [
        set() for _ in range(k - len(z_parts))
    ]
    seeded = set().union(*z_parts) if z_parts else set()
    free = sorted(set(range(g.n)) - seeded)

    def feasible(unassigned: set[int]) -> bool:
        for slot in slots:
            if len(slot) <= 1:
                continue
            if not slot <= search(g.adj, min(slot), slot | unassigned).keys():
                return False
        return True

    def rec(idx: int, unassigned: set[int]) -> bool:
        if idx == len(free):
            return all(
                not slot or induces_connected(g, frozenset(slot)) for slot in slots
            )
        v = free[idx]
        unassigned.discard(v)
        used_empty = False
        for slot in slots:
            if not slot:
                if used_empty:
                    continue
                used_empty = True
            slot.add(v)
            if feasible(unassigned) and rec(idx + 1, unassigned):
                return True
            slot.discard(v)
        unassigned.add(v)
        return False

    if not feasible(set(free)):
        return None
    if rec(0, set(free)):
        return [set(slot) for slot in slots]
    return None


def _solve_nonunique_connected(
    g: ColouredGraph, q_vertices: list[int], lower: int, max_q: int, dcs_cap: int
) -> list[set[int]]:
    """`q_vertices` lists the vertices whose colour occurs more than once, in
    order; `lower`, the size of the largest colour class, bounds the number
    of blocks from below."""
    q = len(q_vertices)
    if q == 0:
        return [set(range(g.n))] if g.n else []
    if lower < q:
        if q > max_q:
            raise UnsupportedInstanceError(
                f"{q} non-uniquely coloured vertices exceed the limit {max_q}"
            )
        if g.n > dcs_cap:
            raise UnsupportedInstanceError(
                f"connected-subgraph search supports n <= {dcs_cap}"
            )
    for k in range(lower, q):
        for z_parts in _set_partitions(q_vertices, k):
            if any(
                len({g.colours[u] for u in part}) != len(part)
                for part in z_parts
            ):
                continue
            sol = _dcs(g, z_parts, k)
            if sol is not None:
                blocks = [slot for slot in sol if slot]
                assert len(blocks) == k
                return blocks
    return _grow_from_seeds(g, q_vertices)


def solve_partition_nonunique(
    g: ColouredGraph, max_q: int = 6, dcs_cap: int = 25
) -> SolveResult:
    """Minimum colourful partition, parameterized by the number of vertices
    whose colour recurs inside their connected component.

    Per component: with q such vertices a partition of size q always exists
    (grow one block around each), so only budgets below q need the search
    over seed partitions plus disjoint-connected-subgraphs instances.
    """

    def solve(sub: ColouredGraph) -> SolveResult:
        counts = Counter(sub.colours)
        q_vertices = [v for v in range(sub.n) if counts[sub.colours[v]] >= 2]
        lower = max(counts.values(), default=0)
        blocks = _solve_nonunique_connected(sub, q_vertices, lower, max_q, dcs_cap)
        witness = canonical_partition(blocks)
        return SolveResult(
            "partition", len(witness), witness, "nonunique-colours", {"q": len(q_vertices)}
        )

    result = solve_by_component(g, "partition", solve)
    assert is_colourful_partition(g, result.witness)
    return result
