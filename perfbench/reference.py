"""Single-operation reference figures, timed through each layer's public
function, plus the two faults the workloads stay clear of.

    python3 perfbench/reference.py

These are one operation each, so they are not workloads: the README quotes
them as reference points.  The whole script takes about a minute.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checker  # noqa: E402
import instances  # noqa: E402
from colourful.fpt import dp_partition  # noqa: E402
from colourful.gadgets import gen_example1, reduce_nae3sat_pathwidth  # noqa: E402
from colourful.graph import ColouredGraph, parse_instance, serialize_instance  # noqa: E402
from colourful.oracle import find_two_partition  # noqa: E402
from colourful.polysolvers import solve_2cp_treewidth2  # noqa: E402


def timed(label: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    print(f"{label:58s} {time.perf_counter() - t0:8.3f} s")
    return result


def graph(row: instances.Row) -> ColouredGraph:
    return ColouredGraph.build(row.n, row.colours, row.edges)


def main() -> int:
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    assert not checker.nae_satisfiable(7, fano)
    g, _ = reduce_nae3sat_pathwidth(fano)
    assert timed(f"find_two_partition, Fano no-instance (n={g.n})", find_two_partition, g) is None

    result = timed("dp_partition, gen_example1(8)", dp_partition, gen_example1(8))
    assert result.optimum == 2
    print(f"{'':58s} largest table {result.stats['max_table']} states")

    no_row = instances.outerplanar_no_row(random.Random(80), 80, "ref")
    assert timed("solve_2cp_treewidth2, outerplanar no-instance (n=80)",
                 solve_2cp_treewidth2, graph(no_row)) is None
    assert timed("find_two_partition, the same instance", find_two_partition, graph(no_row)) is None
    yes_row = instances.outerplanar_yes_row(random.Random(80), 80, "ref")
    assert len(timed("solve_2cp_treewidth2, outerplanar yes-instance (n=80)",
                     solve_2cp_treewidth2, graph(yes_row))) == 2

    dense = instances.two_coloured_rows(random.Random(8000), 2667, "ref")[0]
    text = serialize_instance(graph(dense))
    timed(f"parse_instance, m={len(dense.edges)}", parse_instance, text)

    # a 1500-vertex path, 3 colours: to_nice recurses once per decomposition node
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / "path1500.cg"
    n = 1500
    path.write_text(serialize_instance(ColouredGraph.build(
        n, [1 + v % 3 for v in range(n)], [(v, v + 1) for v in range(n - 1)])))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "colourful.cli", "solve", str(path), "--problem", "components"],
        capture_output=True, text=True, env=env)
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    print(f"solve --problem components, 3-coloured path (n={n}): exit {proc.returncode}, {last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
