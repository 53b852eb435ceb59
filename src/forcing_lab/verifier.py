"""Exhaustive verification of the sharp bound and its equality families.

Runs a stream of graph6 lines or Graph objects through the exact solver
and checks, per graph, that the k-forcing number respects the degree
bound; at k = 1 it also checks the minimum-degree refinement and that
equality holds exactly on the three structural families. Also hosts the
property suites: the leaf-subset forcing check on trees, the closed-form
values for the named families, and the structural dissection of
bound-attaining graphs (one outside neighbor per set vertex, tree
complement, edge boundary at least the set size).

Verification runs are deterministic: records come back in input order
whatever the worker count, and every summary reduction is order-free.
Records stream: ``iter_verify`` draws its input lazily, folds each
outcome into the summary and yields each record as soon as it and every
record before it are done, so the first record never waits for the last
and memory stays bounded however long the input is. With more than one
worker, a fork pool takes over the rest of the input only after about a
second of verification in this process (``POOL_AFTER_S``), so a short run
never pays for starting one.
"""

import csv
import json
import os
import time
from collections import deque, namedtuple
from contextlib import closing
from itertools import islice

from .bounds import (classify_extremal, degree_refined_bound,
                     forcing_upper_bound, hypothesis_failure)
from .engine import is_forcing_set
from .graph6 import Graph6Error, encode_graph6, parse_graph6
from .graphs import (VertexSet, connected_within, degree_stats, edge_boundary,
                     is_k_connected, is_tree, leaves)
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceeded,
                     solve, solve_connected_complement)


class VerificationRecord(namedtuple("VerificationRecord", [
        "graph6", "n", "max_degree", "min_degree", "k", "f_k", "bound_num",
        "bound_den", "equality", "extremal_class", "extremal_parameter",
        "structure_ok", "solver_nodes", "status"])):
    """Per-graph verdict of the bound sweep; ``status`` is "ok" or
    "unresolved"."""

    __slots__ = ()

    def to_json_line(self):
        return json.dumps(self._asdict())


class StructureCheck(namedtuple("StructureCheck", [
        "ok", "absent", "set_size", "complement_size",
        "single_outside_neighbor", "complement_is_tree", "boundary",
        "boundary_at_least_set"], defaults=(None,) * 6)):
    """Dissection of a bound-attaining graph around a minimum forcing set
    with connected complement."""

    __slots__ = ()


def check_extremal_structure(g, *, node_budget=DEFAULT_NODE_BUDGET):
    """For a bound-attaining graph with max degree >= 3: find a minimum
    forcing set S whose complement induces a connected subgraph, then check
    that every vertex of S has exactly one neighbor outside S, that the
    complement induces a tree, and that the S-to-complement edge boundary
    is at least |S|.

    Returns absent=True (ok=None) when no proper forcing set has a
    connected complement, rather than assuming one exists.
    """
    res = solve_connected_complement(g, 1, node_budget=node_budget)
    if res.complement_empty:
        return StructureCheck(ok=None, absent=True)
    s = res.witness
    comp = s.complement()
    single = all(
        (g.neighbor_masks[v] & comp.mask).bit_count() == 1 for v in s)
    comp_edges = sum(
        (g.neighbor_masks[v] & comp.mask).bit_count() for v in comp) // 2
    tree_ok = connected_within(g, comp) and comp_edges == len(comp) - 1
    boundary = edge_boundary(g, s)
    boundary_ok = boundary >= len(s)
    return StructureCheck(
        ok=single and tree_ok and boundary_ok,
        absent=False,
        set_size=len(s),
        complement_size=len(comp),
        single_outside_neighbor=single,
        complement_is_tree=tree_ok,
        boundary=boundary,
        boundary_at_least_set=boundary_ok,
    )


def _verify_one(lineno, item, k, node_budget):
    """Process one graph6 line or Graph into ``(kind, entry, ms)``: the
    summary list "parse_failures" or "skipped" and its entry (0 ms), or
    "record", the record (a Graph's names its graph6) and its time."""
    started = time.perf_counter()
    if isinstance(item, str):
        line = item
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            return ("parse_failures",
                    {"line": lineno, "graph6": line, "error": str(exc)}, 0.0)
    else:
        g, line = item, encode_graph6(item)
    reason = hypothesis_failure(g, k)
    if reason:
        return ("skipped",
                {"line": lineno, "graph6": line, "reason": reason}, 0.0)
    dmax, dmin, _ = degree_stats(g)
    num, den = forcing_upper_bound(g.n, dmax, k)
    # The three equality families are regular.
    cls = classify_extremal(g) if dmin == dmax else None
    f_k = structure = None
    try:
        res = solve(g, k, node_budget=node_budget)
    except BudgetExceeded as exc:
        equality, nodes, status = False, exc.nodes_explored, "unresolved"
    else:
        f_k, nodes, status = res.value, res.nodes_explored, "ok"
        equality = f_k * den == num
        if k == 1 and equality and dmax >= 3:
            structure = check_extremal_structure(g, node_budget=node_budget).ok
    record = VerificationRecord(
        graph6=line, n=g.n, max_degree=dmax, min_degree=dmin, k=k,
        f_k=f_k, bound_num=num, bound_den=den, equality=equality,
        extremal_class=cls.tag if cls else None,
        extremal_parameter=cls.parameter if cls else None,
        structure_ok=structure, solver_nodes=nodes, status=status)
    return ("record", record, (time.perf_counter() - started) * 1000.0)


def _verify_chunk(chunk):
    return [_verify_one(*args) for args in chunk]


def _is_counterexample(rec, k):
    if rec.status != "ok":
        return False
    if rec.f_k * rec.bound_den > rec.bound_num:
        return True
    # The first force needs a colored vertex with at most k uncolored
    # neighbors, so no forcing set is smaller than min degree - k + 1.
    if rec.f_k < max(1, rec.min_degree - k + 1):
        return True
    if k != 1:
        return False
    # The minimum-degree refinement and the equality characterization are
    # k = 1 statements; at larger k the bound can be tight off the three
    # families.
    rnum, rden = degree_refined_bound(rec.n, rec.max_degree, rec.min_degree)
    if rec.f_k * rden > rnum:
        return True
    return rec.equality != (rec.extremal_class is not None)


class VerifyRun:
    """Records plus the reduced summary of one verification sweep.

    ``records`` is a list, or an iterator from ``iter_verify`` that
    ``write_jsonl`` drains once; the summary is complete only after that.
    """

    def __init__(self, records, summary):
        self.records = records
        self.summary = summary

    def write_jsonl(self, stream):
        for rec in self.records:
            stream.write(rec.to_json_line() + "\n")

    def write_summary_csv(self, stream):
        writer = csv.writer(stream)
        writer.writerow(["n", "graph_count", "extremal_count",
                         "extremal_graph6_list", "max_solver_nodes",
                         "wall_time_ms"])
        for n in sorted(self.summary["per_n"]):
            row = self.summary["per_n"][n]
            writer.writerow([
                n, row["graph_count"], row["extremal_count"],
                " ".join(row["extremal_graph6"]),
                row["max_solver_nodes"], round(row["wall_time_ms"], 3)])

    @property
    def ok(self):
        return not (self.summary["counterexamples"] or self.summary["unresolved"]
                    or self.summary["structure_failures"])


# Items are verified in this process until the times _verify_one measures
# for its records add up to POOL_AFTER_S seconds; only then may the rest go
# to a fork pool. The time the input takes to draw (an enumeration, a slow
# pipe) does not count, nor do skips and parse errors. On 2 vCPU, importing
# multiprocessing and starting, terminating and joining a two-process pool
# takes about 35 ms in process, and a fresh `verify` of 1,500 small graphs
# ran about 65 ms longer with the pool than without. A run that starts a
# pool has already spent 1 s verifying, so that fixed cost stays under about
# 7% of it, and a shorter run never pays it. Past the switch the pool wins
# on costly graphs: `verify` of 200 random cubic graphs on 36 vertices
# (about 20 ms each) took a median 3.0 s with --workers 2 against 4.4 s with
# one (10 alternating runs, 2 vCPU). It loses on cheap ones: `verify
# --enumerate 9` (about 50 us a graph) took 21.6 and 28.2 s against 18.5
# and 21.4 s, as the parent pickles, folds and writes every record while
# the two workers run. The pool has one process per worker, but no more
# than there are CPUs, and never starts with one process. Fewer than CHUNK
# items left at the switch are verified in this process too. Otherwise
# items go to the pool CHUNK at a time, and the input is drawn at most
# WINDOW items (or two chunks per pool process, when that is more) ahead of
# the outcomes already reduced.
POOL_AFTER_S = 1.0
CHUNK = 32
WINDOW = 512


def _numbered(items, k, node_budget, summary):
    """Worker arguments for the non-blank items, numbered by input line;
    sets ``summary["input_lines"]`` once the input is exhausted."""
    lineno = 0
    for lineno, item in enumerate(items, 1):
        if isinstance(item, str):
            item = item.strip()
            if not item:
                continue
        yield (lineno, item, k, node_budget)
    summary["input_lines"] = lineno


def _outcomes(payload, workers):
    """Outcomes of the payload, in input order. Items are verified in this
    process until POOL_AFTER_S seconds of verification have passed; then,
    with more than one process and at least CHUNK items left, a fork pool
    takes the rest. The pool has at most ``limit`` chunks submitted and
    not yet consumed, and is terminated and joined however this generator
    ends."""
    processes = min(workers, os.cpu_count() or 1)
    # _verify_one times each record itself: outcome[-1] is its ms.
    budget_ms = POOL_AFTER_S * 1000.0 if processes > 1 else float("inf")
    spent_ms = 0.0
    for args in payload:
        outcome = _verify_one(*args)
        yield outcome
        spent_ms += outcome[-1]
        if spent_ms >= budget_ms:
            break
    else:
        return
    chunk = list(islice(payload, CHUNK))
    if len(chunk) < CHUNK:
        yield from _verify_chunk(chunk)
        return
    from multiprocessing import get_context
    pool = get_context("fork").Pool(processes)
    try:
        pending = deque()
        limit = max(WINDOW // CHUNK, 2 * processes)
        while chunk:
            pending.append(pool.apply_async(_verify_chunk, (chunk,)))
            if len(pending) == limit:
                yield from pending.popleft().get()
            chunk = list(islice(payload, CHUNK))
        while pending:
            yield from pending.popleft().get()
    finally:
        pool.terminate()
        pool.join()


def iter_verify(items, k, summary, *, workers=1,
                node_budget=DEFAULT_NODE_BUDGET):
    """Yield the records of the bound sweep over an iterable of graph6
    lines and Graph objects, in input order, as they arrive.

    Items are drawn lazily: one at a time while they are verified in
    this process, which is always the case with one worker or one CPU
    and otherwise until about POOL_AFTER_S seconds of verification have
    passed; after that a fork pool takes the rest, drawn at most a
    bounded window ahead (WINDOW). So memory does not grow with the
    length of the input. Each outcome is folded into ``summary``, an
    empty dict that receives the keys ``verify_stream`` documents, as it
    arrives; ``input_lines`` is set when the input is exhausted. The
    worker pool, if one started, is terminated and joined however the
    generator ends, including when it is closed early.
    """
    summary.update({
        "k": k, "workers": workers, "input_lines": 0, "graphs_verified": 0,
        "skipped": [], "parse_failures": [], "per_n": {},
        "counterexamples": [], "unresolved": [], "structure_failures": []})
    payload = _numbered(items, k, node_budget, summary)
    with closing(_outcomes(payload, workers)) as outcomes:
        for kind, entry, elapsed in outcomes:
            if kind != "record":
                summary[kind].append(entry)
                continue
            rec = entry
            summary["graphs_verified"] += 1
            row = summary["per_n"].setdefault(rec.n, {
                "graph_count": 0, "extremal_count": 0, "extremal_graph6": [],
                "max_solver_nodes": 0, "wall_time_ms": 0.0})
            row["graph_count"] += 1
            row["wall_time_ms"] += elapsed
            row["max_solver_nodes"] = max(row["max_solver_nodes"],
                                          rec.solver_nodes)
            if rec.status == "ok" and rec.equality:
                row["extremal_count"] += 1
                row["extremal_graph6"].append(rec.graph6)
            if _is_counterexample(rec, k):
                summary["counterexamples"].append(rec.graph6)
            if rec.status == "unresolved":
                summary["unresolved"].append(rec.graph6)
            if rec.structure_ok is False:
                summary["structure_failures"].append(rec.graph6)
            yield rec


def verify_stream(items, k=1, *, workers=1, node_budget=DEFAULT_NODE_BUDGET):
    """Run the bound sweep over an iterable of graph6 lines and Graph
    objects, mixed freely, and collect every record of ``iter_verify``.

    Lines are stripped, and blank lines are skipped but still counted as
    input lines. Only lines are parsed; a Graph is named in its record
    and in the summary by its graph6 encoding. Graphs that fall outside
    the bound's hypotheses are skipped and counted with the reason
    ``hypothesis_failure`` gives, never silently dropped. Solver budget
    aborts become "unresolved" records, never passes. Records preserve
    input order for any worker count.

    The summary holds, in this order: k, workers, input_lines,
    graphs_verified, skipped and parse_failures (each with its input
    line), per_n (graph count, extremal count and graph6 list, max solver
    nodes and summed time per order), then the graph6 lists of
    counterexamples, unresolved records and structure failures.
    """
    summary = {}
    records = list(iter_verify(items, k, summary, workers=workers,
                               node_budget=node_budget))
    return VerifyRun(records=records, summary=summary)


def run_tree_leaf_suite(trees):
    """Check, for every tree in the stream, that each subset keeping all
    leaves but one is a forcing set at k = 1.

    Non-tree inputs are rejected per record. Returns a summary with the
    number of trees, subsets checked, and any failures (expected none).
    """
    trees_checked = 0
    subsets_checked = 0
    failures = []
    rejected = []
    for idx, g in enumerate(trees):
        if not is_tree(g):
            rejected.append({"index": idx, "reason": "not a tree"})
            continue
        leaf_ids = leaves(g)
        if not leaf_ids:
            rejected.append({"index": idx, "reason": "no leaves"})
            continue
        trees_checked += 1
        all_leaves = VertexSet.from_ids(leaf_ids, g.n)
        for drop in leaf_ids:
            subset = VertexSet(all_leaves.mask & ~(1 << drop), g.n)
            subsets_checked += 1
            if not is_forcing_set(g, 1, subset):
                failures.append({"index": idx, "n": g.n,
                                 "edges": g.edges(), "dropped_leaf": drop})
    return {
        "trees_checked": trees_checked,
        "subsets_checked": subsets_checked,
        "failures": failures,
        "rejected": rejected,
    }


def run_known_values(delta_max=4, cycle_max=12,
                     node_budget=DEFAULT_NODE_BUDGET):
    """Confirm the closed-form forcing numbers of the named families with
    the exact solver: 2 for cycles, d for the complete graph of degree d,
    and 2d - 2 for the balanced complete bipartite of degree d."""
    from .graphs import complete, complete_bipartite, cycle

    if delta_max < 2:
        raise ValueError("delta_max must be at least 2")
    checks = []

    def record(graph, expected):
        got = solve(graph, 1, node_budget=node_budget).value
        checks.append({"graph": graph.name, "expected": expected,
                       "got": got, "ok": got == expected})

    for m in range(3, cycle_max + 1):
        record(cycle(m), 2)
    for d in range(2, delta_max + 1):
        record(complete(d + 1), d)
        record(complete_bipartite(d, d), 2 * d - 2)
    failures = [c for c in checks if not c["ok"]]
    return {"checks": checks, "failures": failures}


def connected_k_dominating_suite(graphs, ks=(1, 2),
                                 node_budget=DEFAULT_NODE_BUDGET):
    """Across k-connected graphs: the complement of the minimum forcing
    set with connected complement must be a connected set dominating every
    outside vertex at least k times.

    Graphs that admit no proper connected-complement forcing set are
    reported as absences, never counted as passes.
    """
    checked = 0
    failures = []
    absences = []
    for g in graphs:
        for k in ks:
            if not is_k_connected(g, k):
                continue
            res = solve_connected_complement(g, k, node_budget=node_budget)
            if res.complement_empty:
                absences.append({"graph6": encode_graph6(g), "k": k})
                continue
            checked += 1
            comp = res.witness.complement()
            connected_ok = connected_within(g, comp)
            dominating_ok = all(
                (g.neighbor_masks[v] & comp.mask).bit_count() >= k
                for v in res.witness)
            if not (connected_ok and dominating_ok):
                failures.append({
                    "graph6": encode_graph6(g), "k": k,
                    "witness": list(res.witness),
                    "connected": connected_ok,
                    "dominating": dominating_ok,
                })
    return {"checked": checked, "failures": failures, "absences": absences}
