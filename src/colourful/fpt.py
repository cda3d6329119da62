"""Exponential-parameter exact solvers: dynamic programming over nice tree
decompositions for both problems, a kernelization pipeline parameterized by
vertex cover, and a solver parameterized by the number of vertices whose
colour is not unique.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .decomposition import NiceTreeDecomposition, exact_tree_decomposition, to_nice
from .graph import (
    ColouredGraph,
    SolveResult,
    UnsupportedInstanceError,
    canonical_partition,
    connected_components,
    induces_connected,
    is_colourful_partition,
    is_valid_deletion_set,
    norm_edge,
    search,
)
from .polysolvers import hopcroft_karp


# ---------------------------------------------------------------------------
# One DP over nice tree decompositions, parameterized by treewidth + number
# of colours.  A state is a Key; each problem supplies how a vertex is
# introduced and how two subtrees are joined, and forgetting is shared.
# ---------------------------------------------------------------------------

# A DP key pairs a partition of the bag with, per part, the colours of the
# already-forgotten vertices absorbed into that part's class.
Key = tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]
Table = dict[Key, int]  # the least value found per key

EMPTY_KEY: Key = ((), ())

# A step maps a whole child table to (key, value, back-pointer) moves.  The
# back-pointers are ("l",) at a leaf, ("i", child key, indices of the child
# parts merged with the new vertex), ("f", child key, index of the forgotten
# vertex's part) and ("j", left key, right key).
Moves = Iterable[tuple[Key, int, tuple]]


def _canon(blocks: Sequence[frozenset[int]], rhos: Sequence[frozenset[int]]) -> Key:
    order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
    return tuple(blocks[i] for i in order), tuple(rhos[i] for i in order)


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


def _disjoint(*collections: Collection[int]) -> bool:
    """True iff no element occurs twice, within or across the collections."""
    return sum(map(len, collections)) == len(set().union(*collections))


def _tree_dp(
    g: ColouredGraph,
    nice: NiceTreeDecomposition,
    introduce: Callable[[ColouredGraph, int, frozenset[int], Table], Moves],
    join: Callable[[ColouredGraph, frozenset[int], Table, Table], Moves],
) -> tuple[int, dict[int, dict[Key, tuple]], int]:
    """Bottom-up minimisation over the nice decomposition: each node keeps,
    per key, the least value of the moves reaching it and the first move
    attaining it.  Returns the root value, the back-pointer tables and the
    size of the largest table."""
    tables: dict[int, Table] = {}
    backs: dict[int, dict[Key, tuple]] = {}
    max_table = 0
    for node in nice.postorder():
        kind = nice.kind[node]
        bag = nice.bags[node]
        if kind == "leaf":
            moves: Moves = [(EMPTY_KEY, 0, ("l",))]
        elif kind == "join":
            left, right = nice.children[node]
            moves = join(g, bag, tables.pop(left), tables.pop(right))
        else:
            (child,) = nice.children[node]
            step = introduce if kind == "introduce" else _forget
            moves = step(g, nice.delta[node], bag, tables.pop(child))
        table: Table = {}
        back: dict[Key, tuple] = {}
        for key, val, info in moves:
            if key not in table or val < table[key]:
                table[key] = val
                back[key] = info
        tables[node] = table
        backs[node] = back
        max_table = max(max_table, len(table))
    return tables[nice.root][EMPTY_KEY], backs, max_table


def _forget(
    g: ColouredGraph, v: int, bag: frozenset[int], table: Table
) -> Moves:
    """Drop v from its part: a part left empty closes its class, any other
    part adds v's colour to its forgotten colours."""
    for ckey, cval in table.items():
        blocks, rhos = ckey
        idx = next(i for i, blk in enumerate(blocks) if v in blk)
        if blocks[idx] == frozenset({v}):
            key = _canon(
                [b for i, b in enumerate(blocks) if i != idx],
                [p for i, p in enumerate(rhos) if i != idx],
            )
        else:
            new_blocks = list(blocks)
            new_rhos = list(rhos)
            new_blocks[idx] = blocks[idx] - {v}
            new_rhos[idx] = rhos[idx] | {g.colours[v]}
            key = _canon(new_blocks, new_rhos)
        yield key, cval, ("f", ckey, idx)


def _coarsen(
    lkey: Key, rkey: Key
) -> tuple[list[tuple[list[int], list[int]]], list[frozenset[int]]]:
    """Mutual coarsening of two bag partitions: per merged part, the indices
    of the left and right parts it swallows, plus its vertex set.  Parts are
    ordered by minimum vertex."""
    lblocks, rblocks = lkey[0], rkey[0]
    owner: dict[int, int] = {}
    for i, blk in enumerate(lblocks):
        for u in blk:
            owner[u] = i
    parent = list(range(len(lblocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blk in rblocks:
        it = iter(sorted(blk))
        first = owner[next(it)]
        for u in it:
            a, b = find(first), find(owner[u])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for i in range(len(lblocks)):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j, blk in enumerate(rblocks):
        groups[find(owner[min(blk)])][1].append(j)
    ordered = sorted(
        groups.values(), key=lambda lr: min(min(lblocks[i]) for i in lr[0])
    )
    vertex_sets = [
        frozenset().union(*(lblocks[i] for i in lr[0])) for lr in ordered
    ]
    return ordered, vertex_sets


def _replay(
    nice: NiceTreeDecomposition, backs: dict[int, dict[Key, tuple]]
) -> list[frozenset[int]]:
    """The classes of an optimal solution.  Follow the back-pointers down
    from the root's empty key, then rebuild bottom-up, per part of each
    chosen key, the vertices its class holds so far; a class is closed when
    its last bag vertex is forgotten.  Joins pair parts as `_coarsen` does,
    which for two equal bag partitions pairs part i with part i."""
    chosen: dict[int, Key] = {nice.root: EMPTY_KEY}
    stack = [nice.root]
    topdown = []
    while stack:
        node = stack.pop()
        topdown.append(node)
        info = backs[node][chosen[node]]
        for child, ckey in zip(nice.children[node], info[1:]):
            chosen[child] = ckey
            stack.append(child)
    live: dict[int, list[frozenset[int]]] = {}
    closed: list[frozenset[int]] = []
    for node in reversed(topdown):
        info = backs[node][chosen[node]]
        if info[0] == "l":
            live[node] = []
        elif info[0] == "j":
            left, right = nice.children[node]
            lparts, rparts = live.pop(left), live.pop(right)
            groups, _ = _coarsen(info[1], info[2])
            live[node] = [
                frozenset().union(
                    *(lparts[i] for i in lidx), *(rparts[j] for j in ridx)
                )
                for lidx, ridx in groups
            ]
        else:
            (child,) = nice.children[node]
            _, ckey, pick = info
            v = nice.delta[node]
            blocks, parts = list(ckey[0]), live.pop(child)
            if info[0] == "i":
                blocks = [b for i, b in enumerate(blocks) if i not in pick] + [
                    frozenset({v}).union(*(blocks[i] for i in pick))
                ]
                parts = [p for i, p in enumerate(parts) if i not in pick] + [
                    frozenset({v}).union(*(parts[i] for i in pick))
                ]
            elif blocks[pick] == frozenset({v}):
                closed.append(parts.pop(pick))
                del blocks[pick]
            else:
                blocks[pick] = blocks[pick] - {v}
            order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
            live[node] = [parts[i] for i in order]
    assert not live[nice.root]
    return closed


# ---------------------------------------------------------------------------
# Minimum colourful partition: a part is one connected, colourful class
# ---------------------------------------------------------------------------


def _partition_introduce(
    g: ColouredGraph, v: int, bag: frozenset[int], table: Table
) -> Moves:
    """v opens a part that swallows any set of parts adjacent to it, as long
    as the merged class stays colourful; the value counts parts opened."""
    for ckey, cval in table.items():
        blocks, rhos = ckey
        candidates = [
            i for i, blk in enumerate(blocks) if any(w in g.adj[v] for w in blk)
        ]
        for r in range(len(candidates) + 1):
            for rset in combinations(candidates, r):
                merged = {v} | frozenset().union(*(blocks[i] for i in rset))
                if not _disjoint(
                    [g.colours[u] for u in merged], *(rhos[i] for i in rset)
                ):
                    continue
                new_blocks = [b for i, b in enumerate(blocks) if i not in rset]
                new_rhos = [p for i, p in enumerate(rhos) if i not in rset]
                new_blocks.append(frozenset(merged))
                new_rhos.append(frozenset().union(*(rhos[i] for i in rset)))
                key = _canon(new_blocks, new_rhos)
                yield key, cval + 1 - len(rset), ("i", ckey, rset)


def _partition_join(
    g: ColouredGraph, bag: frozenset[int], left: Table, right: Table
) -> Moves:
    """Glue every pair of states along their mutual coarsening, as long as
    each glued class stays colourful; parts shared by both sides were
    counted twice."""
    for lkey, lval in left.items():
        for rkey, rval in right.items():
            groups, vertex_sets = _coarsen(lkey, rkey)
            new_blocks: list[frozenset[int]] = []
            new_rhos: list[frozenset[int]] = []
            for (lidx, ridx), merged in zip(groups, vertex_sets):
                rhos = [lkey[1][i] for i in lidx] + [rkey[1][j] for j in ridx]
                if not _disjoint([g.colours[u] for u in merged], *rhos):
                    break
                new_blocks.append(merged)
                new_rhos.append(frozenset().union(*rhos))
            else:
                key = _canon(new_blocks, new_rhos)
                delta = len(key[0]) - len(lkey[0]) - len(rkey[0])
                yield key, lval + rval + delta, ("j", lkey, rkey)


def dp_partition(
    g: ColouredGraph,
    nice: NiceTreeDecomposition | None = None,
    max_width: int = 4,
) -> SolveResult:
    """Minimum colourful partition via dynamic programming over a nice tree
    decomposition.  Keys pair a partition of the bag with the forgotten
    colours per part; the value counts the parts opened so far."""
    nice = _default_nice(g, nice, max_width)
    optimum, backs, max_table = _tree_dp(
        g, nice, _partition_introduce, _partition_join
    )
    witness = canonical_partition(_replay(nice, backs))
    assert len(witness) == optimum and is_colourful_partition(g, witness)
    stats = {"nodes": len(nice.bags), "max_table": max_table}
    return SolveResult("partition", optimum, witness, "treewidth-dp", stats)


# ---------------------------------------------------------------------------
# Minimum deletions: a part is one colourful class, connected or not, and
# every edge between two classes is deleted
# ---------------------------------------------------------------------------


def _components_introduce(
    g: ColouredGraph, v: int, bag: frozenset[int], table: Table
) -> Moves:
    """v joins one class that lacks its colour, or opens a new class; each
    edge from v to another class in the bag is deleted."""
    colour = g.colours[v]
    bag_nbrs = g.adj[v] & bag
    for ckey, cval in table.items():
        blocks, rhos = ckey
        for i, blk in enumerate(blocks):
            if colour in rhos[i] or any(g.colours[u] == colour for u in blk):
                continue
            new_blocks = list(blocks)
            new_blocks[i] = blk | {v}
            key = _canon(new_blocks, rhos)
            yield key, cval + len(bag_nbrs - blk), ("i", ckey, (i,))
        key = _canon(list(blocks) + [frozenset({v})], list(rhos) + [frozenset()])
        yield key, cval + len(bag_nbrs), ("i", ckey, ())


def _components_join(
    g: ColouredGraph, bag: frozenset[int], left: Table, right: Table
) -> Moves:
    """Glue states with the same bag partition whose classes forgot disjoint
    colours; deleted edges inside the bag were counted on both sides."""
    by_p: dict[tuple[frozenset[int], ...], list[Key]] = {}
    for rkey in right:
        by_p.setdefault(rkey[0], []).append(rkey)
    bag_edges = [
        (u, w)
        for u in sorted(bag)
        for w in sorted(bag)
        if u < w and g.has_edge(u, w)
    ]
    for lkey, lval in left.items():
        blocks = lkey[0]
        part_of = {u: i for i, blk in enumerate(blocks) for u in blk}
        e_p = sum(1 for u, w in bag_edges if part_of[u] != part_of[w])
        for rkey in by_p.get(blocks, ()):
            if any(a & b for a, b in zip(lkey[1], rkey[1])):
                continue
            rhos = tuple(a | b for a, b in zip(lkey[1], rkey[1]))
            yield (blocks, rhos), lval + right[rkey] - e_p, ("j", lkey, rkey)


def dp_components(
    g: ColouredGraph,
    nice: NiceTreeDecomposition | None = None,
    max_width: int = 4,
) -> SolveResult:
    """Minimum number of edge deletions via dynamic programming over a nice
    tree decomposition.  Equivalent view: partition the vertices into
    colourful classes (connectivity not required) minimising the number of
    edges whose endpoints land in different classes."""
    nice = _default_nice(g, nice, max_width)
    optimum, backs, max_table = _tree_dp(
        g, nice, _components_introduce, _components_join
    )
    class_of = {u: i for i, cls in enumerate(_replay(nice, backs)) for u in cls}
    deleted = frozenset(
        norm_edge(u, v) for u, v in g.edges() if class_of[u] != class_of[v]
    )
    assert len(deleted) == optimum
    assert is_valid_deletion_set(g, deleted)
    stats = {"nodes": len(nice.bags), "max_table": max_table}
    return SolveResult("components", optimum, deleted, "treewidth-dp", stats)


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
    adj: list[frozenset[int]],
    q_blocks: list[list[int]],
    t_vertices: list[int],
) -> tuple[int, list[set[int]]] | None:
    """Minimum partition of the kernel whose restriction to the cover equals
    q_blocks.  Independent-set vertices join a compatible cover block or stay
    singletons; branch and bound on the number of singletons."""
    classes: dict[tuple[int, frozenset[int]], list[int]] = {}
    for v in t_vertices:
        classes.setdefault((g.colours[v], adj[v]), []).append(v)
    class_list = sorted(classes.items())
    block_colours = [{g.colours[u] for u in blk} for blk in q_blocks]
    compat = []
    for (colour, nbrs), members in class_list:
        compat.append(
            [
                j
                for j, blk in enumerate(q_blocks)
                if colour not in block_colours[j] and nbrs & set(blk)
            ]
        )
    best: list[int | None] = [None]
    best_assign: list[list[tuple[int, int]] | None] = [None]

    def rec(
        ci: int, singles: int, used: list[set[int]], assign: list[tuple[int, int]]
    ) -> None:
        if best[0] is not None and len(q_blocks) + singles >= best[0]:
            return
        if ci == len(class_list):
            contents = [set(blk) for blk in q_blocks]
            for v, j in assign:
                contents[j].add(v)
            if all(induces_connected(g, frozenset(c)) for c in contents):
                best[0] = len(q_blocks) + singles
                best_assign[0] = list(assign)
            return
        (colour, _), members = class_list[ci]
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
    contents.extend({v} for v in t_vertices if v not in absorbed)
    assert len(contents) == best[0]
    return best[0], contents


def solve_partition_vc(
    g: ColouredGraph, max_cover: int = 8, kernel_cap: int = 60
) -> SolveResult:
    """Minimum colourful partition, parameterized by vertex cover size.

    Pipeline: discard edges joining same-coloured endpoints, find a greedy
    cover S, cap every same-colour same-neighbourhood class of independent
    vertices at |S| (the overflow can only ever form singleton blocks), then
    for each colourful partition of S delete whole colours that are
    interchangeable with at least |S|-1 others, solve the kernel by branch
    and bound, and re-insert the deleted colours with bipartite matchings.
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

    classes: dict[tuple[int, frozenset[int]], list[int]] = {}
    for v in range(g.n):
        if v not in cover:
            classes.setdefault((g.colours[v], fadj[v]), []).append(v)
    rule1_removed: list[int] = []
    for key in sorted(classes):
        members = sorted(classes[key])
        if len(members) > s:
            rule1_removed.extend(members[s:])
            classes[key] = members[:s]
    removed_set = set(rule1_removed)
    present_t = sorted(
        v for v in range(g.n) if v not in cover and v not in removed_set
    )

    cover_colours = {g.colours[v] for v in cover_list}
    subset_list = [
        frozenset(ss)
        for r in range(s + 1)
        for ss in combinations(cover_list, r)
    ]
    profiles: dict[int, tuple[int, ...]] = {}
    for colour in sorted({g.colours[v] for v in present_t} - cover_colours):
        counts = {ss: 0 for ss in subset_list}
        for v in present_t:
            if g.colours[v] == colour:
                counts[fadj[v]] += 1
        profiles[colour] = tuple(counts[ss] for ss in subset_list)
    groups: dict[tuple[int, ...], list[int]] = {}
    for colour, prof in sorted(profiles.items()):
        groups.setdefault(prof, []).append(colour)
    rule2_deleted: list[tuple[int, list[int]]] = []
    for prof in sorted(groups):
        alive = sorted(groups[prof])
        while len(alive) >= s:
            colour = alive.pop()
            verts = [v for v in present_t if g.colours[v] == colour]
            rule2_deleted.append((colour, verts))
            present_t = [v for v in present_t if g.colours[v] != colour]

    kernel_size = s + len(present_t)
    assert kernel_size <= s + s * s * 2**s + (s - 1) * (s + 1) ** (2**s) * s * 2**s
    stats["kernel"] = kernel_size
    if len(present_t) > kernel_cap:
        raise UnsupportedInstanceError(
            f"kernel keeps {len(present_t)} > {kernel_cap} independent vertices"
        )

    best_blocks: list[set[int]] | None = None
    tried = 0
    for q_blocks in _set_partitions(cover_list):
        if any(
            len({g.colours[u] for u in blk}) != len(blk) for blk in q_blocks
        ):
            continue
        tried += 1
        out = _kernel_min_partition(g, fadj, q_blocks, present_t)
        if out is None:
            continue
        _, blocks = out
        for colour, verts in reversed(rule2_deleted):
            hosts = sorted(
                (i for i, blk in enumerate(blocks) if blk & cover),
                key=lambda i: min(blocks[i]),
            )
            f_adj = [
                [
                    j
                    for j, i in enumerate(hosts)
                    if fadj[v] & (blocks[i] & cover)
                ]
                for v in verts
            ]
            matching = hopcroft_karp(len(verts), len(hosts), f_adj)
            for x, y in matching.items():
                blocks[hosts[y]].add(verts[x])
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
    each, attaching every remaining vertex to an adjacent block."""
    blocks = [{v} for v in seeds]
    unassigned = set(range(g.n)) - set(seeds)
    while unassigned:
        for v in sorted(unassigned):
            j = next(
                (i for i, blk in enumerate(blocks) if g.adj[v] & blk), None
            )
            if j is not None:
                blocks[j].add(v)
                unassigned.discard(v)
                break
        else:
            raise AssertionError("graph must be connected")
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
    g: ColouredGraph, max_q: int, dcs_cap: int
) -> list[set[int]]:
    counts: dict[int, int] = {}
    for colour in g.colours:
        counts[colour] = counts.get(colour, 0) + 1
    q_vertices = sorted(v for v in range(g.n) if counts[g.colours[v]] >= 2)
    q = len(q_vertices)
    if q == 0:
        return [set(range(g.n))]
    lower = max(counts.values())
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
    blocks: list[frozenset[int]] = []
    worst_q = 0
    for comp in connected_components(g):
        order = sorted(comp)
        sub = g.subgraph(order)
        counts: dict[int, int] = {}
        for colour in sub.colours:
            counts[colour] = counts.get(colour, 0) + 1
        worst_q = max(
            worst_q, sum(1 for v in range(sub.n) if counts[sub.colours[v]] >= 2)
        )
        for blk in _solve_nonunique_connected(sub, max_q, dcs_cap):
            blocks.append(frozenset(order[v] for v in blk))
    witness = canonical_partition(blocks)
    assert is_colourful_partition(g, witness)
    return SolveResult(
        "partition",
        len(witness),
        witness,
        "nonunique-colours",
        {"q": worst_q, "components": len(connected_components(g))},
    )
