"""Closed-loop benchmark of `colourful solve`.

    python3 perfbench/run.py --workload tw-dp --seed 1 --seconds 30 --trace 0

One caller solves a round of seeded, generated instance files, one call
after another, through `colourful.cli.main(["solve", ...])`, checks every
answer with the independent checker in `checker.py`, and repeats whole
rounds until `--seconds` have passed.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (solve throughput,
median and tail instance time, peak memory, set-up time).  Set-up is timed
in a fresh interpreter, from before `import colourful` until the round's
files are written, once before the first round and again after every
round, and the median is reported.  With `--trace 1` untraced and traced
rounds alternate, and the metrics are the per-layer sums of one traced
round (see `spans.py`) plus the cost of the trace.  A run with a failed
call (a wrong answer, an invalid witness, a nonzero exit or an exception)
reports `correct: false` and exits 1.  Without `--workload` the three workloads run one after another, each in a
fresh process.  The program is imported from `src/` of the checkout that
holds this directory; nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checker  # noqa: E402
import instances  # noqa: E402
import spans  # noqa: E402


def setup(workload: str, seed: int, work: Path):
    """Import the program, generate the round's rows and write them out.
    Returns (seconds taken, the cli module, the rows)."""
    t0 = time.perf_counter()
    import colourful.cli as cli
    from colourful.graph import ColouredGraph, serialize_instance

    rows = instances.WORKLOADS[workload](random.Random(seed))
    for row in rows:
        g = ColouredGraph.build(row.n, row.colours, row.edges)
        (work / f"{row.name}.cg").write_text(serialize_instance(g))
    return time.perf_counter() - t0, cli, rows


def setup_sample(workload: str, seed: int) -> float:
    """Time one cold set-up in a fresh interpreter (`--setup-only`), which
    writes its files to a directory of its own."""
    work = OUT / f"setup-{workload}-{os.getpid()}"
    work.mkdir()
    try:
        child = subprocess.run([sys.executable, __file__, "--workload", workload,
                                "--seed", str(seed), "--setup-only", str(work)],
                               capture_output=True, text=True, timeout=150)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
    return float(child.stdout.split()[-1])


def solve(cli, row: instances.Row, work: Path):
    """One timed `solve` call.  Returns (seconds, exit code or exception,
    standard output, witness path)."""
    sol = work / f"{row.name}.sol"
    sol.unlink(missing_ok=True)
    argv = ["solve", str(work / f"{row.name}.cg"), "--problem", row.problem,
            *row.args, "-o", str(sol)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = exc
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), sol


def check(row: instances.Row, code, stdout: str, sol: Path, answers: dict) -> str | None:
    """None when the answer is right; otherwise why the call failed."""
    if isinstance(code, Exception):
        return f"raised {type(code).__name__}: {code}"
    if code != 0:
        return f"exit code {code}"
    words = stdout.split()
    if row.expect is None and row.twin is None:
        return None if words == ["none"] else f"expected 'none', got {words}"
    kind = "partition" if row.problem == "partition" else "deletions"
    if len(words) < 2 or words[0] != kind or not words[1].isdigit():
        return f"expected '{kind} <n>', got {words}"
    claimed = int(words[1])
    try:
        wkind, items = checker.parse_witness(sol.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable witness: {exc}"
    if wkind != kind or len(items) != claimed:
        return f"witness is '{wkind} {len(items)}', answer is '{kind} {claimed}'"
    if kind == "partition":
        error = checker.partition_error(row.n, row.colours, row.adj, items)
    else:
        error = checker.deletion_error(row.n, row.colours, row.edges, items)
    if error:
        return f"invalid witness: {error}"
    if row.twin is None:
        return None if claimed == row.expect else f"optimum {claimed} != {row.expect}"
    if claimed < row.lower:
        return f"optimum {claimed} is below the colour-class bound {row.lower}"
    answers[row.name] = claimed
    if row.twin in answers:
        blocks, deletions = (claimed, answers[row.twin]) if kind == "partition" else (
            answers[row.twin], claimed)
        if blocks != deletions + 1:
            return f"tree has {blocks} blocks but {deletions} deletions"
    return None


class Tally:
    """Attempted, failed and timed calls of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}

    def one_round(self, cli, rows, work, tracer=None) -> float:
        """Solve and check every row once; returns the summed solve time.
        A failed call keeps its time, so a fast crash cannot pass for a
        fast answer."""
        answers: dict[str, int] = {}
        total = 0.0
        for row in rows:
            if tracer is not None:
                tracer.instance = row.name
            elapsed, code, stdout, sol = solve(cli, row, work)
            total += elapsed
            self.attempted += 1
            self.times.setdefault(row.name, []).append(elapsed)
            verdict = check(row, code, stdout, sol, answers)
            if verdict is not None:
                self.failed += 1
                print(f"FAILED {row.name}: {verdict}", file=sys.stderr)
        return total


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    """Each instance is timed by the median of its calls in the run, which
    keeps one slow call (a noisy neighbour, a collection) from moving the
    figures.  Throughput is instances per second over one round at those
    times; p50 and tail are taken over the instances."""
    per_row = sorted(statistics.median(t) for t in tally.times.values())
    metrics = {
        "solved_per_s": (len(per_row) / sum(per_row), "1/s"),
        "instance_s_p50": (statistics.median(per_row), "s"),
    }
    # the highest percentile with ten instances beyond it; no tail below forty
    if len(per_row) >= 40:
        metrics["instance_s_tail"] = (per_row[-11], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (setup_s, "s")
    return metrics


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        _, cli, rows = setup(args.workload, args.seed, work)
        tally = Tally()
        rounds, busy = 0, 0.0  # the loops count only round time against --seconds
        if not args.trace:
            # cold set-ups between rounds sample the host over the whole run
            setups = [setup_sample(args.workload, args.seed)]
            while rounds == 0 or busy < args.seconds:
                start = time.perf_counter()
                tally.one_round(cli, rows, work)
                busy += time.perf_counter() - start
                rounds += 1
                setups.append(setup_sample(args.workload, args.seed))
            metrics = end_to_end(tally, statistics.median(setups))
        else:
            tracer = spans.Tracer()
            passes, overheads = [], []
            while rounds == 0 or busy < args.seconds:
                start = time.perf_counter()
                plain = tally.one_round(cli, rows, work)
                first = len(tracer.spans)
                tracer.install()
                try:
                    traced = tally.one_round(cli, rows, work, tracer)
                finally:
                    tracer.uninstall()
                busy += time.perf_counter() - start
                passes.append(spans.layer_metrics(tracer.spans, first))
                overheads.append(traced - plain)
                rounds += 2
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            units = dict(spans.LAYER_METRICS)
            metrics = {name: (statistics.median(p[name] for p in passes), units[name])
                       for name in units}
            metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rows)} instances a round, "
          f"{rounds} rounds, {tally.attempted} attempted, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(instances.WORKLOADS), default=None,
                        help="one workload; without it, all three in fresh processes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", type=Path, default=None,
                        help="time one set-up into DIR and print the seconds (used by the run)")
    args = parser.parse_args()
    if args.setup_only is not None and args.workload is None:
        parser.error("--setup-only needs --workload")
    if not (SRC / "colourful" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only is not None:
        print(setup(args.workload, args.seed, args.setup_only)[0])
        return 0
    if args.workload is not None:
        return run_workload(args)
    status = 0
    for workload in instances.WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", workload,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status = status or child.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
