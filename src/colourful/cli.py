"""Command-line front end: solve instances, check witnesses, generate the
built-in instance families, run solver batteries, and compute or validate
tree decompositions.

Exit codes: 0 success (including a correct "none" answer), 1 invalid
witness or decomposition (`td validate`), 2 unreadable or unparseable input
or unwritable output (`main` decides both), 3 no applicable solver.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Callable

from .decomposition import (
    TreeDecomposition,
    exact_tree_decomposition,
    parse_td,
    serialize_td,
    to_nice,
)
from .fpt import dp_components, dp_partition, solve_partition_nonunique, solve_partition_vc
from .gadgets import (
    gen_example1,
    reduce_3sat_split,
    reduce_multicut_tree,
    reduce_nae3sat_pathwidth,
    reduce_vc,
)
from .graph import (
    ColouredGraph,
    ParseError,
    SolveResult,
    UnsupportedInstanceError,
    _content_lines,
    _ints,
    is_colourful_partition,
    is_forest,
    is_valid_deletion_set,
    norm_edge,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    solve_by_component,
)
from .oracle import (
    BRUTE_DELETIONS_MAX_EDGES,
    brute_min_deletions,
    brute_min_deletions_partitions,
    brute_min_partition,
    find_two_partition,
)
from .polysolvers import solve_2cp_treewidth2, solve_two_coloured

EXIT_OK, EXIT_INVALID, EXIT_PARSE, EXIT_NO_SOLVER = 0, 1, 2, 3


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_instance(path: str) -> ColouredGraph:
    return parse_instance(_read_text(path))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

# Fixed limits of the routes.  The DP keeps its own default of treewidth 4.
MAX_COVER = 4  # largest greedy vertex cover the `vc` kernel accepts
MAX_Q = 5  # most repeated-colour vertices per component for `nonunique`
ORACLE_CAP = 12  # most vertices the brute-force oracles enumerate
MAX_COLOURS = 6  # most colours the `dp` route takes through a decomposition

# Each route is called as route(g, problem, k, max_colours).  It raises
# UnsupportedInstanceError when its precondition fails and returns None only
# when no partition with at most two blocks exists.
Route = Callable[[ColouredGraph, str, int | None, int], SolveResult | None]


def _matching(g, problem, k, max_colours) -> SolveResult:
    if len(g.colour_set()) > 2:
        raise UnsupportedInstanceError("more than two colours")
    return solve_two_coloured(g, problem)


def _tw2(g, problem, k, max_colours) -> SolveResult | None:
    if problem != "partition" or k != 2:
        raise UnsupportedInstanceError(
            "route answers the two-block partition question only (use --k 2)"
        )
    stats = {"formulas": 0}
    part = solve_2cp_treewidth2(g, stats)
    if part is None:
        return None
    return SolveResult("partition", len(part), part, "tw2-2sat", stats)


def _dp(g, problem, k, max_colours) -> SolveResult:
    # the gate bounds the decomposition DP; a forest takes the DP over the
    # tree itself, which keeps its own budget
    if len(g.colour_set()) > max_colours and not is_forest(g):
        raise UnsupportedInstanceError(f"more than {max_colours} colours")
    if problem == "partition":
        return dp_partition(g)
    return dp_components(g)


def _vc(g, problem, k, max_colours) -> SolveResult:
    if problem != "partition":
        raise UnsupportedInstanceError("vertex-cover route solves partition only")
    return solve_partition_vc(g, max_cover=MAX_COVER)


def _nonunique(g, problem, k, max_colours) -> SolveResult:
    if problem != "partition":
        raise UnsupportedInstanceError("non-unique-colours route solves partition only")
    return solve_partition_nonunique(g, max_q=MAX_Q)


def _oracle(g, problem, k, max_colours) -> SolveResult | None:
    if problem == "partition":
        if g.n <= ORACLE_CAP or k != 2:
            return brute_min_partition(g, cap=ORACLE_CAP)
        part = find_two_partition(g)
        if part is None:
            return None
        return SolveResult("partition", len(part), part, "two-block-search", {})
    if g.m <= BRUTE_DELETIONS_MAX_EDGES:
        return brute_min_deletions(g)
    return brute_min_deletions_partitions(g, cap=ORACLE_CAP)


# The routes in the order `auto` tries them, cheapest first.
ROUTES: dict[str, Route] = {
    "matching": _matching,
    "tw2-2sat": _tw2,
    "dp": _dp,
    "vc": _vc,
    "nonunique": _nonunique,
    "oracle": _oracle,
}
ALGOS = ("auto", *ROUTES)


def _solve_with(
    g: ColouredGraph,
    problem: str,
    algo: str,
    k: int | None = None,
    max_colours: int = MAX_COLOURS,
) -> SolveResult | None:
    """Run one route, or under `auto` the first in `ROUTES` that applies, on
    each connected component.  The two-block question, which does not add up
    over components, takes the whole graph.  Returns None only when no
    two-block partition exists."""
    routes = ROUTES if algo == "auto" else {algo: ROUTES[algo]}

    def solve(part: ColouredGraph) -> SolveResult | None:
        reasons = []
        for name, route in routes.items():
            try:
                return route(part, problem, k, max_colours)
            except UnsupportedInstanceError as exc:
                reasons.append(f"{name}: {exc}")
        raise UnsupportedInstanceError("; ".join(reasons))

    if problem == "partition" and k == 2:
        return solve(g)
    return solve_by_component(g, problem, solve)


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_instance(args.instance)
    td = parse_td(_read_text(args.td)) if args.td else None
    if td is not None:
        try:
            td.validate(g)
        except ValueError as exc:
            raise ParseError(f"supplied decomposition is invalid: {exc}") from exc
    try:
        if td is None:
            result = _solve_with(
                g, args.problem, args.algo, k=args.k, max_colours=args.max_colours
            )
        elif args.algo not in ("auto", "dp"):
            raise UnsupportedInstanceError(f"--td answers by the dp route, not {args.algo}")
        else:
            # a supplied decomposition covers the whole graph: the DP runs on it
            dp = dp_partition if args.problem == "partition" else dp_components
            result = dp(g, nice=to_nice(td, g))
    except (UnsupportedInstanceError, ValueError) as exc:
        return _fail(EXIT_NO_SOLVER, f"no applicable solver: {exc}")
    kind = "partition" if args.problem == "partition" else "deletions"
    if result is None or (args.k is not None and result.optimum > args.k):
        print("none")
        return EXIT_OK
    if args.output:
        Path(args.output).write_text(serialize_solution(kind, result.witness))
    print(f"{kind} {result.optimum}")
    print(f"solver {result.solver}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    g = _load_instance(args.instance)
    kind, witness = parse_solution(_read_text(args.solution))
    if kind == "partition":
        if not is_colourful_partition(g, witness):
            return _fail(
                EXIT_INVALID,
                "invalid: blocks must cover every vertex exactly once and each "
                "be connected with pairwise-distinct colours",
            )
        print(f"ok partition {len(witness)}")
        return EXIT_OK
    if not is_valid_deletion_set(g, witness):
        return _fail(
            EXIT_INVALID,
            "invalid: deleted edges must exist and leave only colourful components",
        )
    print(f"ok deletions {len(witness)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _parse_cnf(text: str) -> list[tuple[int, ...]]:
    """DIMACS-style CNF: 'c' comment and 'p cnf' header lines skipped,
    clauses as runs of nonzero literals terminated by 0."""
    lines = _content_lines(text)
    literals = _ints([parts for parts in lines if not parts[0].startswith(("c", "p"))], 0)
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(lit)
    if current:
        clauses.append(tuple(current))
    return clauses


def _parse_int_rows(text: str, width: int) -> list[tuple[int, ...]]:
    """Lines of `width` integers each."""
    rows = []
    for parts in _content_lines(text):
        if len(parts) != width:
            raise ParseError(f"expected {width} integers per line: {' '.join(parts)}")
        rows.append(tuple(_ints([parts], 0)))
    return rows


def _gen_random(rng: random.Random, n: int, m: int, colours: int) -> ColouredGraph:
    total = n * (n - 1) // 2 if n > 1 else 0
    if m > total:
        raise ValueError(f"at most {total} edges possible for n={n}")
    # Sample indices into the lexicographic list of pairs u < v, which picks
    # the same pairs as sampling the list itself, then decode them in one
    # sweep over the rows; row u starts at index `start` and has n-1-u pairs.
    picks = rng.sample(range(total), m)
    pair: dict[int, tuple[int, int]] = {}
    u = start = 0
    for j in sorted(picks):
        while j >= start + n - 1 - u:
            start += n - 1 - u
            u += 1
        pair[j] = (u, u + 1 + j - start)
    edges = [pair[j] for j in picks]
    cols = tuple(rng.randint(1, colours) for _ in range(n))
    return ColouredGraph.build(n, cols, edges)


def cmd_gen(args: argparse.Namespace) -> int:
    seed = int(os.environ.get("CG_SEED", "0"))
    rng = random.Random(seed)
    td: TreeDecomposition | None = None
    if args.family == "example1":
        g = gen_example1(args.k)
        default = f"example1_k{args.k}.cg"
        meta = {"family": "example1", "k": args.k, "target_k": 2}
    elif args.family == "random":
        g = _gen_random(rng, args.n, args.m, args.colours)
        default = f"random_n{args.n}_m{args.m}_s{seed}.cg"
        meta = {
            "family": "random",
            "n": args.n,
            "m": args.m,
            "colours": args.colours,
            "seed": seed,
            "target_k": None,
        }
    elif args.family == "vc":
        src = _load_instance(args.graph)
        rows = _parse_int_rows(_read_text(args.edge_colours), 3)
        ec = {norm_edge(u, v): c for u, v, c in rows}
        g = reduce_vc(src.n, src.edges(), ec)
        default = f"vc_{Path(args.graph).stem}.cg"
        meta = {
            "family": "vc",
            "source": args.graph,
            "target_k": None,
            "note": "minimum partition is 3n plus the source's vertex cover number",
        }
    elif args.family == "multicut":
        src = _load_instance(args.tree)
        pairs = _parse_int_rows(_read_text(args.pairs), 2)
        g = reduce_multicut_tree(src.n, src.edges(), pairs, hardened=args.hardened)
        suffix = "_hardened" if args.hardened else ""
        default = f"multicut_{Path(args.tree).stem}{suffix}.cg"
        target = None
        if args.r is not None:
            target = 2 * (args.r + 1) if args.hardened else args.r + 1
        meta = {
            "family": "multicut",
            "source": args.tree,
            "pairs": args.pairs,
            "r": args.r,
            "hardened": args.hardened,
            "target_k": target,
        }
    elif args.family == "split-3sat":
        clauses = _parse_cnf(_read_text(args.formula))
        g = reduce_3sat_split(clauses)
        default = f"split3sat_{Path(args.formula).stem}.cg"
        meta = {"family": "split-3sat", "source": args.formula, "target_k": 2}
    elif args.family == "nae-pathwidth":
        clauses = _parse_cnf(_read_text(args.formula))
        g, td = reduce_nae3sat_pathwidth(clauses)
        default = f"naepw_{Path(args.formula).stem}.cg"
        meta = {"family": "nae-pathwidth", "source": args.formula, "target_k": 2}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.family)
    out = Path(args.output or default)
    out.write_text(serialize_instance(g))
    with open(f"{out}.jsonl", "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
    if td is not None:
        td_path = out.with_suffix(".td")
        td_path.write_text(serialize_td(td))
        print(f"wrote {out} (+.jsonl, {td_path.name})")
    else:
        print(f"wrote {out} (+.jsonl)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_task(task: tuple[str, str, str]) -> list[str]:
    path, solver, problem = task
    try:
        g = parse_instance(Path(path).read_text())
        # a manifest row has no --k; the 2-SAT route only answers k = 2
        k = 2 if ROUTES.get(solver) is _tw2 else None
        t0 = time.perf_counter()
        result = _solve_with(g, problem, solver, k=k)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        if result is None:
            return [path, solver, problem, "none", f"{wall_ms:.1f}", "", "ok"]
        explored = result.stats.get("nodes", "")
        return [
            path, solver, problem,
            str(result.optimum), f"{wall_ms:.1f}", str(explored), "ok",
        ]
    except Exception as exc:  # per-row failures are recorded, the run continues
        reason = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        return [path, solver, problem, "", "", "", f"error: {reason}"]


def cmd_bench(args: argparse.Namespace) -> int:
    text = _read_text(args.manifest)
    tasks: list[tuple[str, str, str]] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split("\t") if "\t" in body else body.split()
        if len(parts) != 3 or parts[1] not in ALGOS or parts[2] not in (
            "partition", "components",
        ):
            raise ParseError(f"bad manifest line: {line!r}")
        tasks.append((parts[0], parts[1], parts[2]))
    if args.jobs > 1 and tasks:
        from concurrent import futures  # only `--jobs` needs it; it is slow to import

        with futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    lines = ["\t".join(["instance", "solver", "problem", "optimum", "wall_ms",
                        "explored", "status"])]
    lines += ["\t".join(row) for row in rows]
    table = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# td
# ---------------------------------------------------------------------------


def cmd_td(args: argparse.Namespace) -> int:
    if args.action == "validate" and not args.td_file:
        raise ParseError("td validate needs a decomposition file")
    g = _load_instance(args.instance)
    if args.action == "validate":
        td = parse_td(_read_text(args.td_file))
        try:
            td.validate(g)
        except ValueError as exc:
            return _fail(EXIT_INVALID, f"invalid: {exc}")
        print(f"ok width {td.width}")
        return EXIT_OK
    # compute
    widths = [args.max_width] if args.max_width is not None else range(max(g.n, 1))
    td = None
    for w in widths:
        try:
            td = exact_tree_decomposition(g, w)
        except UnsupportedInstanceError:
            continue
        if td is not None:
            break
    if td is None:
        return _fail(EXIT_NO_SOLVER, "no decomposition found within the width bound")
    text = serialize_td(td)
    if args.output:
        Path(args.output).write_text(text)
        print(f"width {td.width}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    `parse_args` keeps its results in a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="colourful",
        description="Exact solvers and instance generators for colourful "
        "partitions and colourful components of vertex-coloured graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--problem", choices=("partition", "components"),
                         default="partition")
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument("--k", type=int, default=None,
                         help="answer the decision question: optimum <= k?")
    p_solve.add_argument("--td", default=None,
                         help="answer by the DP over this tree decomposition file")
    p_solve.add_argument("--max-colours", type=int, default=MAX_COLOURS, dest="max_colours")
    p_solve.add_argument("-o", "--output", default=None,
                         help="write the witness to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="validate a solution file")
    p_check.add_argument("instance")
    p_check.add_argument("solution")
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", help="generate a built-in instance family")
    fam = p_gen.add_subparsers(dest="family", required=True)
    f_ex = fam.add_parser("example1")
    f_ex.add_argument("--k", type=int, required=True)
    f_rand = fam.add_parser("random")
    f_rand.add_argument("--n", type=int, required=True)
    f_rand.add_argument("--m", type=int, required=True)
    f_rand.add_argument("--colours", type=int, default=3)
    f_vc = fam.add_parser("vc")
    f_vc.add_argument("--graph", required=True,
                      help="cubic source graph (.cg; vertex colours ignored)")
    f_vc.add_argument("--edge-colours", required=True, dest="edge_colours",
                      help="proper 3-edge-colouring, lines 'u v c'")
    f_mc = fam.add_parser("multicut")
    f_mc.add_argument("--tree", required=True,
                      help="binary source tree (.cg; vertex colours ignored)")
    f_mc.add_argument("--pairs", required=True, help="terminal pairs, lines 'u v'")
    f_mc.add_argument("--r", type=int, default=None, help="multicut budget")
    f_mc.add_argument("--hardened", action="store_true")
    f_split = fam.add_parser("split-3sat")
    f_split.add_argument("--formula", required=True, help="CNF file (DIMACS-style)")
    f_nae = fam.add_parser("nae-pathwidth")
    f_nae.add_argument("--formula", required=True,
                       help="all-positive CNF file (DIMACS-style)")
    for f in (f_ex, f_rand, f_vc, f_mc, f_split, f_nae):
        f.add_argument("-o", "--output", default=None)
        f.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a manifest of solver jobs")
    p_bench.add_argument("--manifest", required=True,
                         help="rows: instance solver problem")
    p_bench.add_argument("--out", default=None, help="write the TSV here")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_td = sub.add_parser("td", help="compute or validate a tree decomposition")
    p_td.add_argument("action", choices=("compute", "validate"))
    p_td.add_argument("instance")
    p_td.add_argument("td_file", nargs="?", default=None)
    p_td.add_argument("--max-width", type=int, default=None, dest="max_width")
    p_td.add_argument("-o", "--output", default=None)
    p_td.set_defaults(func=cmd_td)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # reads fail with a ParseError, which is a ValueError; writes with an OSError
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail(EXIT_PARSE, f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
