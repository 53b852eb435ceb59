"""Exhaustive verification of the sharp bound and its equality families.

Runs a stream of graph6 lines through the exact solver and checks, per
graph, that the k-forcing number respects the degree bound; at k = 1 it
also checks the minimum-degree refinement and that equality holds exactly
on the three structural families. A file, stdin and the built-in
enumeration all give lines. Each line costs one ``verify_line`` kernel
call, which frames and decodes it, gives the graph's degrees, decides the
bound's hypotheses and, when they hold, finds its forcing number; a
``Graph`` is built only for the extremal classifier on regular graphs and
for the structure check, which continues that solve and dissects the
bound-attaining graph (one outside neighbor per set vertex, so an edge
boundary of exactly the set size, and a tree complement). What a record
says beyond its name and node count is fixed by a few of its values (its
verdict), and a sweep meets few distinct verdicts, so each is rendered
once per run and every record that shares it reuses the text. Also
hosts the two suites behind ``lemmas``: the leaf-subset forcing check on
trees and the closed-form values of the named families.

Verification runs are deterministic: records come back in input order,
and every summary reduction is order-free. Records stream: ``VerifyRun``
verifies one line at a time in this process, folds each outcome into its
summary and yields each record, a JSON line, as soon as it is done, so the
first record never waits for the last and memory stays bounded however
long the input is. More CPUs come from more processes over disjoint parts
of the input: their records, concatenated in input order, are those of
one run.
"""

import time
from json.encoder import encode_basestring_ascii

from . import _kernels
from .bounds import (classify_extremal, degree_refined_bound,
                     failure_reason, forcing_upper_bound)
from .engine import is_forcing_set
from .graph6 import HEADER, Graph6Error, parse_graph6
from .graphs import VertexSet, connected_within, is_tree, leaves
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceeded,
                     _connected_complement_from, forcing_number)

# A record is ``json.dumps`` of its fields, in this order, and a line
# break: "graph6", then the fields of _VERDICT, "solver_nodes" and
# "status", which is "ok" or "unresolved". ``solver_nodes`` counts the
# wavefront's closures only (``forcing_number``), so it is smaller than
# ``solve``'s ``nodes_explored``, which adds the witness level; in an
# unresolved record it counts all the nodes spent. All the text between
# the graph6 name and the solver_nodes value is fixed by the record's
# verdict, and so is its end.
_VERDICT = (', "n": %d, "max_degree": %d, "min_degree": %d, "k": %d, '
            '"f_k": %s, "bound_num": %d, "bound_den": %d, "equality": %s, '
            '"extremal_class": %s, "extremal_parameter": %s, '
            '"structure_ok": %s, "solver_nodes": ')
_END = ', "status": "%s"}\n'
# JSON for the values of the record fields that may be None or a bool.
_LITERALS = {None: "null", True: "true", False: "false"}


def check_extremal_structure(g, solution):
    """For a bound-attaining graph with max degree >= 3 and its k = 1
    ``solve_connected_complement`` result, a minimum forcing set S whose
    complement induces a connected subgraph: True when every vertex of S
    has exactly one neighbor outside S, so that the S-to-complement edge
    boundary is exactly |S|, and the complement induces a tree; False
    otherwise; None when S = V. The check runs no solve, so in ``verify``
    it spends no wavefront of its own.
    """
    if solution.complement_empty:
        return None
    nbrs, s = g.neighbor_masks, solution.witness
    comp = s.complement()
    comp_edges = sum((nbrs[v] & comp.mask).bit_count() for v in comp) // 2
    return (all((nbrs[v] & comp.mask).bit_count() == 1 for v in s)
            and connected_within(g, comp) and comp_edges == len(comp) - 1)


class VerifyRun:
    """The bound sweep over an iterable of graph6 lines: its records and
    the summary they reduce to.

    ``records`` is a generator that yields each record as its JSON line,
    line break included, in input order and as soon as it is verified. It
    draws the input lazily, one line per outcome, so memory does not grow
    with the length of the input.

    Lines are stripped, and blank lines are skipped but still counted as
    input lines. A graph is named in its record and in the summary by its
    line without the optional ">>graph6<<" header; a malformed line is
    kept as it is, with the byte offset of its fault. Graphs that fall
    outside the bound's hypotheses are skipped and counted per reason
    ``failure_reason`` names, never silently dropped; a skip keeps
    nothing else, so a long run of skips costs no memory. Malformed lines
    are counted exactly, and only the first PARSE_FAILURES_KEPT are kept
    in full, so a long run of them costs no memory either. One node budget
    bounds all the solving done for one graph; an abort makes the record
    "unresolved", never a pass and never the end of the run.

    ``summary`` holds, in this order: k, input_lines, graphs_verified,
    skipped (a count per reason, the reasons in the order the input first
    gives them), parse_failure_count (every malformed line),
    parse_failures (the first PARSE_FAILURES_KEPT of them, each with its
    input line, text and error), per_n (graph count, extremal count and
    graph6 list, max solver nodes and summed time per order), then the
    graph6 lists of counterexamples, unresolved records, structure
    failures and equality_off_family. That last list is an observation,
    not the paper's claim, and never makes a counterexample: at k = 2 it
    holds the equality graphs that are not regular of degree 2 or n - 1
    (the cycles and complete graphs, which the sweeps find tight), at
    k >= 3 every equality graph, and at k = 1, where equality off the
    families is a counterexample, nothing. Each outcome is folded in as it
    is yielded, and input_lines is set when the input is exhausted, so the
    summary is complete only once ``records`` is drained (``write_jsonl``
    drains it).
    """

    def __init__(self, lines, k=1, *, node_budget=DEFAULT_NODE_BUDGET):
        if k < 1:
            raise ValueError("k must be positive")
        self.summary = {
            "k": k, "input_lines": 0,
            "graphs_verified": 0, "skipped": {}, "parse_failure_count": 0,
            "parse_failures": [], "per_n": {}, "counterexamples": [],
            "unresolved": [], "structure_failures": [],
            "equality_off_family": []}
        self.records = _sweep(lines, k, node_budget, self.summary)

    def write_jsonl(self, stream):
        stream.writelines(self.records)

    def write_summary_csv(self, stream):
        # No field needs CSV quoting: graph6 text is "?".."~", which holds
        # no ",", '"' or line break.
        stream.write("n,graph_count,extremal_count,extremal_graph6_list,"
                     "max_solver_nodes,wall_time_ms\n")
        for n in sorted(self.summary["per_n"]):
            row = self.summary["per_n"][n]
            stream.write(",".join(map(str, (
                n, row["graph_count"], row["extremal_count"],
                " ".join(row["extremal_graph6"]), row["max_solver_nodes"],
                round(row["wall_time_ms"], 3)))) + "\n")


# Malformed lines kept in full in the summary; past these only the count
# grows. 20,000 lines of "B!" cost about 6.3 MB when every entry was kept.
PARSE_FAILURES_KEPT = 100
# Verdicts one run keeps rendered, the first ones it meets; a verdict past
# these is rendered again for each record that has it. One kept verdict
# costs about 450 bytes with its key (tracemalloc). The exhaustive k = 1
# sweeps meet 46 distinct verdicts at n = 7 and 119 at n = 9, and 185
# distinct (max degree, min degree, f_k) at n = 10.
VERDICTS_KEPT = 128


def _verdict(key, k, summary):
    """All that a record's verdict fixes, rendered once: ``(row, text,
    end, names, equality, check)``.

    ``key`` is ``(n, max_degree, min_degree, f_k, extremal class,
    structure_ok)``, with f_k None when the record is unresolved. ``row``
    is the order's ``per_n`` row, made here for the first record of that
    order. ``text`` is the record's JSON between its graph6 name and its
    solver_nodes value, and ``end`` the JSON after that value. ``names``
    are the summary lists that the record's name joins. ``equality`` says
    whether f_k attains the bound, and ``check`` whether the record takes
    the structure check: k = 1, equality and max degree >= 3. Its verdict
    is the key's last field, None until the check has run.
    """
    n, dmax, dmin, f_k, cls, structure = key
    row = summary["per_n"].get(n)
    if row is None:
        row = summary["per_n"][n] = {
            "graph_count": 0, "extremal_count": 0,
            "extremal_graph6": [], "max_solver_nodes": 0,
            "wall_time_ms": 0.0}
    num, den = forcing_upper_bound(n, dmax, k)
    equality = f_k is not None and f_k * den == num
    names = []
    if f_k is None:
        names.append(summary["unresolved"])
    else:
        if equality:
            names.append(row["extremal_graph6"])
            # At k = 2 the sweeps find the bound tight on C_n and K_n
            # alone, and at k >= 3 on no graph.
            if k >= 3 or (k == 2 and not (dmin == dmax
                                          and dmax in (2, n - 1))):
                names.append(summary["equality_off_family"])
        # The first force needs a colored vertex with at most k uncolored
        # neighbors, so no forcing set is smaller than min degree - k + 1.
        counterexample = f_k * den > num or f_k < max(1, dmin - k + 1)
        if k == 1 and not counterexample:
            # The minimum-degree refinement and the equality
            # characterization are k = 1 statements; at larger k the bound
            # can be tight off the three families.
            rnum, rden = degree_refined_bound(n, dmax, dmin)
            counterexample = (f_k * rden > rnum
                              or equality != (cls is not None))
        if counterexample:
            names.append(summary["counterexamples"])
        if structure is False:
            names.append(summary["structure_failures"])
    text = _VERDICT % (
        n, dmax, dmin, k, "null" if f_k is None else f_k, num, den,
        _LITERALS[equality],
        "null" if cls is None else encode_basestring_ascii(cls.tag),
        "null" if cls is None else cls.parameter, _LITERALS[structure])
    end = _END % ("unresolved" if f_k is None else "ok")
    return (row, text, end, tuple(names), equality,
            equality and k == 1 and dmax >= 3)


def _sweep(lines, k, node_budget, summary):
    """The record lines of ``VerifyRun``: each non-blank line, numbered by
    input line, costs one ``verify_line`` kernel call and is then counted
    as a parse failure, counted as a skip, or verified into a record, and
    its outcome folded into ``summary``; ``summary["input_lines"]`` is set
    once the input is exhausted.

    The kernel is looked up once per run, and so are the names of the skip
    reasons. A line it refuses is parsed again by ``parse_graph6`` for the
    error's text and byte offset. Its ``aborted`` flag makes the record
    unresolved where ``forcing_number`` would raise, and so does an abort
    of the structure check. A ``Graph`` is built only where one is read:
    for ``classify_extremal`` on a regular graph, and for the structure
    check. ``structure_ok`` is ``check_extremal_structure``'s verdict, on a
    scan that continues from ``f_k``: no wavefront of its own.

    A record is its name, its solver_nodes and a verdict (see
    ``_verdict``), and sweeps meet few distinct verdicts, so each is
    rendered once and kept in a dict local to the run, up to
    VERDICTS_KEPT of them. A verified line then costs one lookup, or two
    when its verdict sends it to the structure check, whose result is in
    the second key."""
    skipped, failures = summary["skipped"], summary["parse_failures"]
    verify_line = _kernels.verify_line
    reasons = [failure_reason(code, k) for code in range(4)]
    quote = encode_basestring_ascii
    verdicts = {}

    def rendered(key):
        verdict = _verdict(key, k, summary)
        if len(verdicts) < VERDICTS_KEPT:
            verdicts[key] = verdict
        return verdict

    lineno = 0
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        started = time.perf_counter()
        facts = verify_line(line, k, node_budget)
        if facts is None:
            try:
                parse_graph6(line)
            except Graph6Error as exc:
                summary["parse_failure_count"] += 1
                if len(failures) < PARSE_FAILURES_KEPT:
                    failures.append(
                        {"line": lineno, "graph6": line, "error": str(exc)})
                continue
            raise AssertionError(
                f"verify_line refused a line parse_graph6 accepts: {line!r}")
        n, dmax, dmin, code, f_k, nodes, aborted = facts
        if code:
            reason = reasons[code]
            skipped[reason] = skipped.get(reason, 0) + 1
            continue
        name = line.removeprefix(HEADER)
        g = cls = None
        if dmin == dmax:
            # The three equality families are regular.
            g = parse_graph6(line)
            cls = classify_extremal(g)
        key = (n, dmax, dmin, None if aborted else f_k, cls, None)
        verdict = verdicts.get(key) or rendered(key)
        if verdict[5]:
            if g is None:
                g = parse_graph6(line)
            try:
                key = key[:5] + (check_extremal_structure(
                    g, _connected_complement_from(g, 1, f_k, node_budget,
                                                  nodes)),)
            except BudgetExceeded as exc:
                nodes = exc.nodes_explored
                key = (n, dmax, dmin, None, cls, None)
            verdict = verdicts.get(key) or rendered(key)
        row, text, end, names, equality, _ = verdict
        summary["graphs_verified"] += 1
        row["graph_count"] += 1
        row["wall_time_ms"] += (time.perf_counter() - started) * 1000.0
        if nodes > row["max_solver_nodes"]:
            row["max_solver_nodes"] = nodes
        if equality:
            row["extremal_count"] += 1
        for listed in names:
            listed.append(name)
        yield f'{{"graph6": {quote(name)}{text}{nodes}{end}'
    summary["input_lines"] = lineno


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
    if cycle_max < 3:
        raise ValueError("cycle_max must be at least 3")
    checks = []

    def record(graph, expected):
        got, _ = forcing_number(graph, 1, node_budget=node_budget)
        checks.append({"graph": graph.name, "expected": expected,
                       "got": got, "ok": got == expected})

    for m in range(3, cycle_max + 1):
        record(cycle(m), 2)
    for d in range(2, delta_max + 1):
        record(complete(d + 1), d)
        record(complete_bipartite(d, d), 2 * d - 2)
    failures = [c for c in checks if not c["ok"]]
    return {"checks": checks, "failures": failures}
