"""Spans around the public functions of each `colourful` layer.

A `Tracer` replaces module attributes with timing wrappers, under the names
the callers look up (for example `colourful.cli.parse_instance` and
`colourful.polysolvers.normalize_for_2cp`).  Each call records a span: its
name, start, end, parent span, the instance it served, the exception it
raised (if any) and a small payload.  Spans stay in memory; `write` dumps
them when the run ends, and `layer_metrics` derives the per-layer figures.
Hot private helpers such as `oracle._mask_reach` stay unwrapped, so the
trace costs little where the work is.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Callable


def _bags(args, result) -> int:
    return len(result.bags) if result is not None else 0


# (module, attribute, span name, payload taken from (args, result))
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_instance", "graph.parse", lambda a, r: len(a[0].encode())),
    ("fpt", "is_colourful_partition", "graph.verify", None),
    ("fpt", "is_valid_deletion_set", "graph.verify", None),
    ("polysolvers", "is_colourful_partition", "graph.verify", None),
    ("fpt", "exact_tree_decomposition", "decomposition.td", _bags),
    ("polysolvers", "exact_tree_decomposition", "decomposition.td", _bags),
    ("fpt", "to_nice", "decomposition.nice", _bags),
    ("polysolvers", "normalize_for_2cp", "decomposition.normalize", None),
    ("polysolvers", "build_phi", "polysolvers.phi", lambda a, r: len(r.clauses)),
    ("polysolvers", "two_sat_solve", "polysolvers.two_sat", lambda a, r: r is not None),
    # the routes `cli._solve_with` tries
    ("cli", "solve_two_coloured", "polysolvers.matching", None),
    ("cli", "solve_2cp_treewidth2", "polysolvers.tw2", None),
    ("cli", "dp_partition", "fpt.dp", lambda a, r: r.stats),
    ("cli", "dp_components", "fpt.dp", lambda a, r: r.stats),
    ("cli", "solve_partition_vc", "fpt.vc", None),
    ("cli", "solve_partition_nonunique", "fpt.nonunique", None),
    ("cli", "brute_min_partition", "oracle.brute", None),
    ("cli", "brute_min_deletions", "oracle.brute", None),
    ("cli", "brute_min_deletions_partitions", "oracle.brute", None),
    ("cli", "find_two_partition", "oracle.two_block", None),
]

ROUTES = {
    "polysolvers.matching": "cli.route_matching",
    "polysolvers.tw2": "cli.route_tw2",
    "fpt.dp": "cli.route_dp",
    "oracle.two_block": "cli.route_two_block",
    "fpt.vc": "cli.route_other",
    "fpt.nonunique": "cli.route_other",
    "oracle.brute": "cli.route_other",
}

NAME, START, END, PARENT, INSTANCE, ERROR, PAYLOAD = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for mod_name, attr, name, payload in TARGETS:
            module = sys.modules[f"colourful.{mod_name}"]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, payload))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, payload: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.instance, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if payload is not None:
                span[PAYLOAD] = payload(args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "instance": s[INSTANCE], "error": s[ERROR],
                }) + "\n")


LAYER_METRICS = [
    ("graph.parse_s", "s"), ("graph.parse_bytes", "bytes"), ("graph.verify_s", "s"),
    ("decomposition.td_s", "s"), ("decomposition.td_bags", "count"),
    ("decomposition.nice_s", "s"), ("decomposition.nice_nodes", "count"),
    ("decomposition.normalize_s", "s"), ("decomposition.normalize_calls", "count"),
    ("polysolvers.tw2_s", "s"), ("polysolvers.phi_s", "s"),
    ("polysolvers.phi_clauses", "count"), ("polysolvers.two_sat_s", "s"),
    ("polysolvers.two_sat_calls", "count"), ("polysolvers.two_sat_useful", "ratio"),
    ("polysolvers.matching_s", "s"), ("fpt.dp_s", "s"), ("fpt.dp_max_table", "count"),
    ("fpt.dp_nodes", "count"), ("oracle.two_block_s", "s"), ("cli.self_s", "s"),
    ("cli.skipped_s", "s"), ("cli.skipped_calls", "count"),
    ("cli.route_matching", "count"), ("cli.route_tw2", "count"),
    ("cli.route_dp", "count"), ("cli.route_two_block", "count"),
    ("cli.route_other", "count"), ("trace.instance_s", "s"),
]


def layer_metrics(spans: list[list[Any]], first: int = 0) -> dict[str, float]:
    """Per-layer sums over the spans from index `first` on.  Times named
    `_s` are totals of span durations, except `polysolvers.tw2_s`,
    `polysolvers.matching_s`, `fpt.dp_s` and `cli.self_s`, which are self
    times (the span minus its child spans).  `fpt.dp_max_table` is the
    largest table of any DP call."""
    dur = {i: spans[i][END] - spans[i][START] for i in range(first, len(spans))}
    child_time = dict.fromkeys(dur, 0.0)
    for i in dur:
        if spans[i][PARENT] >= 0:
            child_time[spans[i][PARENT]] += dur[i]
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    total = {"graph.parse": "graph.parse_s", "graph.verify": "graph.verify_s",
             "decomposition.td": "decomposition.td_s",
             "decomposition.nice": "decomposition.nice_s",
             "decomposition.normalize": "decomposition.normalize_s",
             "polysolvers.phi": "polysolvers.phi_s",
             "polysolvers.two_sat": "polysolvers.two_sat_s",
             "oracle.two_block": "oracle.two_block_s", "cli.main": "trace.instance_s"}
    own = {"polysolvers.tw2": "polysolvers.tw2_s",
           "polysolvers.matching": "polysolvers.matching_s",
           "fpt.dp": "fpt.dp_s", "cli.main": "cli.self_s"}
    satisfiable = 0
    for i in dur:
        s = spans[i]
        name, payload, failed = s[NAME], s[PAYLOAD], s[ERROR] is not None
        if name in total:
            out[total[name]] += dur[i]
        if name in own:
            out[own[name]] += dur[i] - child_time[i]
        if name == "graph.parse" and not failed:
            out["graph.parse_bytes"] += payload
        elif name == "decomposition.td" and not failed:
            out["decomposition.td_bags"] += payload
        elif name == "decomposition.nice" and not failed:
            out["decomposition.nice_nodes"] += payload
        elif name == "decomposition.normalize":
            out["decomposition.normalize_calls"] += 1
        elif name == "polysolvers.phi" and not failed:
            out["polysolvers.phi_clauses"] += payload
        elif name == "polysolvers.two_sat":
            out["polysolvers.two_sat_calls"] += 1
            satisfiable += bool(payload)
        elif name == "fpt.dp" and not failed:
            out["fpt.dp_nodes"] += payload["nodes"]
            out["fpt.dp_max_table"] = max(out["fpt.dp_max_table"], payload["max_table"])
        if name in ROUTES and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "cli.main":
            if s[ERROR] == "UnsupportedInstanceError":
                out["cli.skipped_s"] += dur[i]
                out["cli.skipped_calls"] += 1
            elif not failed:
                out[ROUTES[name]] += 1
    calls = out["polysolvers.two_sat_calls"]
    out["polysolvers.two_sat_useful"] = satisfiable / calls if calls else 0.0
    return out
