"""Verification pipeline: sweeps, records, summaries, streaming, and the
structural/leaf/known-value suites."""

import csv
import io
import json
import random
import tracemalloc
from collections import deque

import networkx as nx
import pytest

from forcing_lab import (BudgetExceeded, Graph, Graph6Error, VerifyRun,
                         check_extremal_structure, classify_extremal,
                         complete, complete_bipartite, cycle,
                         degree_refined_bound, encode_graph6, forcing_number,
                         forcing_upper_bound, is_connected, parse_graph6,
                         path, run_known_values, run_tree_leaf_suite,
                         solve_connected_complement, star, tree_from_pruefer)
from forcing_lab import _kernels, enumeration, verifier
from forcing_lab._kernels import pure as pure_kernels
from forcing_lab.bounds import failure_reason
from forcing_lab.enumeration import enumerate_connected
from forcing_lab.graphs import is_tree
from forcing_lab.solver import _connected_complement_from

from conftest import (outside_counts, random_graph, use_backend,
                      verify_stream)


def _sweep(n, **kwargs):
    return verify_stream(enumerate_connected(n), **kwargs)


def _clean(run):
    """No counterexample, unresolved record or structure failure: what
    makes ``verify`` exit 0."""
    return not (run.summary["counterexamples"] or run.summary["unresolved"]
                or run.summary["structure_failures"])


def _dissection(g):
    """The structure verdict on g's k = 1 connected-complement solve, then
    its witness S, the complement and each vertex of S's count of
    neighbours outside S."""
    solution = solve_connected_complement(g)
    return (check_extremal_structure(g, solution), solution.witness,
            solution.witness.complement(), outside_counts(g, solution))


def _induces_tree(g, vertices):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n))
    return nx.is_tree(nxg.subgraph(vertices))


def _tight_kernel(monkeypatch, lines):
    """Patch the sweep's kernel so that each line of ``lines`` reports the
    bound's value as its forcing number."""
    kernel = _kernels.verify_line

    def tight(line, k, node_budget):
        facts = kernel(line, k, node_budget)
        if line in lines:
            num, den = forcing_upper_bound(facts[0], facts[1], k)
            assert num % den == 0, line
            facts = facts[:4] + (num // den,) + facts[5:]
        return facts
    monkeypatch.setattr(_kernels, "verify_line", tight)


RECORD_FIELDS = ["graph6", "n", "max_degree", "min_degree", "k", "f_k",
                 "bound_num", "bound_den", "equality", "extremal_class",
                 "extremal_parameter", "structure_ok", "solver_nodes",
                 "status"]


def _record_lines(lines, k=1, **kwargs):
    """The record file of a ``verify`` run over graph6 lines, as its lines
    with their line breaks."""
    buf = io.StringIO()
    VerifyRun(lines, k, **kwargs).write_jsonl(buf)
    return buf.getvalue().splitlines(keepends=True)


def _written_as_json_dumps(lines):
    """The records of ``lines``, each checked to be ``json.dumps`` of its
    fields, the record fields in order, and a line break."""
    records = [json.loads(line) for line in lines]
    for line, rec in zip(lines, records):
        assert json.dumps(rec) + "\n" == line
        assert list(rec) == RECORD_FIELDS
    return records


class TestVerifyStream:
    def test_n6_extremal_census(self):
        run = _sweep(6)
        assert len(run.records) == 112
        assert _clean(run)
        extremal = {r.extremal_class for r in run.records if r.equality}
        assert extremal == {"cycle", "complete", "balanced_complete_bipartite"}
        assert run.summary["per_n"][6]["extremal_count"] == 3

    def test_structure_failure_makes_run_not_ok(self, monkeypatch):
        monkeypatch.setattr(verifier, "check_extremal_structure",
                            lambda g, solution: False)
        run = _sweep(6)
        assert run.summary["structure_failures"]
        assert not run.summary["counterexamples"]
        assert not run.summary["unresolved"]

    def test_refined_bound_violation_is_a_counterexample(self, monkeypatch):
        monkeypatch.setattr(verifier, "degree_refined_bound",
                            lambda n, dmax, dmin: (0, 1))
        run = _sweep(5)
        assert len(run.summary["counterexamples"]) == len(run.records)

    @pytest.mark.parametrize("graph,k", [("K5", 1), ("K5", 2),
                                         ("petersen", 1)])
    def test_lower_bound_violation_is_a_counterexample(self, graph, k,
                                                       monkeypatch, request):
        # f_k >= max(1, min degree - k + 1): the first force needs a colored
        # vertex with at most k uncolored neighbors. K5 at k = 1 is also
        # off its equality family; K5 at k = 2 and Petersen are caught by
        # the lower bound alone.
        g = complete(5) if graph == "K5" else request.getfixturevalue(graph)
        # The pure verify_line runs the pure wavefront.
        use_backend(monkeypatch, pure_kernels)
        monkeypatch.setattr(pure_kernels, "wavefront",
                            lambda nbrs, k, node_budget: (1, 0, False))
        run = verify_stream([encode_graph6(g)], k)
        assert run.records[0].f_k == 1
        assert run.summary["counterexamples"] == [encode_graph6(g)]

    def test_k2_equality_only_on_cycles_and_complete_graphs(self):
        # An observation of these sweeps at n <= 7, not a statement taken
        # from the paper: at k = 2 the bound is attained on C_n and K_n only
        # (C_4 = K_{2,2}, C_3 = K_3).
        for n in range(3, 8):
            run = _sweep(n, k=2)
            assert _clean(run)
            tight = sorted((r.min_degree, r.max_degree, r.extremal_class)
                           for r in run.records if r.equality)
            expected = {
                3: [(2, 2, "complete")],
                4: [(2, 2, "balanced_complete_bipartite"), (3, 3, "complete")],
            }.get(n, [(2, 2, "cycle"), (n - 1, n - 1, "complete")])
            assert tight == expected, n

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_equality_off_the_families_up_to_n7(self, k):
        # An observation, not the paper's claim: at k = 2 every equality
        # graph is regular of degree 2 or n - 1 (C_4 among them, tagged
        # balanced_complete_bipartite), and at k = 3 there is none.
        run = verify_stream([line for n in range(1, 8)
                             for line in enumerate_connected(n)], k)
        assert _clean(run)
        assert run.summary["equality_off_family"] == []
        tight = sum(rec.equality for rec in run.records)
        assert tight == {1: 10, 2: 9, 3: 0}[k]

    @pytest.mark.parametrize("k, line", [(2, "Cz"), (3, "IheA@GUAo")])
    def test_equality_off_the_families_is_listed_not_counted(
            self, monkeypatch, k, line):
        # The diamond (K_4 minus an edge) at k = 2, and Petersen at k = 3
        # (3-connected, bound 12/4), made to attain the bound.
        _tight_kernel(monkeypatch, {line})
        run = verify_stream([line], k)
        assert run.records[0].equality
        assert run.summary["equality_off_family"] == [line]
        assert _clean(run)

    def test_n7_has_no_balanced_bipartite(self):
        run = _sweep(7)
        assert len(run.records) == 853
        tags = sorted(r.extremal_class for r in run.records if r.equality)
        assert tags == ["complete", "cycle"]

    def test_single_triangle_line(self):
        run = verify_stream(["Bw"])
        rec = run.records[0]
        assert rec.equality and rec.extremal_class == "complete"
        assert rec.f_k == 2 and (rec.bound_num, rec.bound_den) == (2, 1)

    def test_k_below_1_is_refused_before_any_graph(self):
        with pytest.raises(ValueError, match="k must be positive"):
            VerifyRun(["Bw"], 0)

    def test_parse_failures_recorded_with_line_numbers(self):
        run = verify_stream(["Bw", "not graph6!", "Bg"])
        assert len(run.records) == 2
        assert run.summary["parse_failures"][0]["line"] == 2

    def test_skips_are_counted_not_dropped(self):
        lines = [encode_graph6(complete(2)),       # max degree < 2
                 "A?",                             # disconnected pair
                 encode_graph6(cycle(4))]
        run = verify_stream(lines)
        assert len(run.records) == 1
        assert run.summary["skipped"] == {"max degree < 2": 1,
                                          "disconnected": 1}

    def test_records_preserve_input_order(self):
        lines = list(enumerate_connected(5))
        run = verify_stream(lines)
        assert [r.graph6 for r in run.records] == lines

    def test_padding_bits_are_ignored_and_the_line_kept(self):
        # 'x' sets the last padding bit of the triangle's payload byte.
        assert parse_graph6("Bx") == complete(3)
        run = verify_stream(["Bx"])
        assert run.records[0].graph6 == "Bx"

    def test_equality_implies_regular(self):
        for n in (4, 5, 6):
            for rec in _sweep(n).records:
                if rec.equality:
                    assert rec.min_degree == rec.max_degree

    def test_budget_abort_is_unresolved_never_pass(self, petersen):
        # Petersen's wavefront takes 41 nodes, so 20 aborts inside it.
        run = verify_stream([encode_graph6(petersen)], node_budget=20)
        rec = run.records[0]
        assert rec.status == "unresolved" and rec.f_k is None
        assert rec.solver_nodes == 20
        assert not rec.equality
        assert run.summary["unresolved"] == [rec.graph6]

    def test_structure_check_runs_on_what_the_forcing_number_left(self):
        # K_{3,3}'s forcing number takes 7 nodes, and its structure check
        # continues from f_k = 4 with a constrained scan of 3 and no
        # wavefront of its own, so 10 covers both and 9 aborts in the scan.
        g6 = encode_graph6(complete_bipartite(3, 3))
        run = verify_stream([g6], node_budget=9)
        rec = run.records[0]
        assert (rec.status, rec.f_k, rec.equality, rec.structure_ok,
                rec.solver_nodes) == ("unresolved", None, False, None, 9)
        assert run.summary["unresolved"] == [g6]
        assert run.summary["per_n"][6]["extremal_count"] == 0
        assert not (run.summary["counterexamples"]
                    or run.summary["structure_failures"])
        run = verify_stream([g6], node_budget=10)
        rec = run.records[0]
        assert (rec.status, rec.f_k, rec.equality, rec.structure_ok,
                rec.solver_nodes) == ("ok", 4, True, True, 7)
        assert _clean(run)

    def test_one_wavefront_per_record(self, monkeypatch):
        # One verify_line call per line, which runs the record's one
        # wavefront. K6 (E~~w) and K_{3,3} (EFz_) also get a structure
        # check, which continues that solve instead of running its own.
        use_backend(monkeypatch, pure_kernels)
        lines, wavefronts = [], []
        verify_line = pure_kernels.verify_line
        wavefront = pure_kernels.wavefront
        monkeypatch.setattr(_kernels, "verify_line",
                            lambda *a: lines.append(a) or verify_line(*a))
        monkeypatch.setattr(pure_kernels, "wavefront",
                            lambda *a: wavefronts.append(a) or wavefront(*a))
        run = _sweep(6)
        assert len(lines) == len(wavefronts) == len(run.records) == 112

    def test_structure_check_gets_the_graph_off_the_regular_ones(
            self, monkeypatch):
        # The paw (K_{1,3} plus an edge, Δ = 3, δ = 1) made to attain the
        # bound at k = 1: a counterexample, and the structure check still
        # dissects it, on the Graph of its line.
        line = "CN"
        _tight_kernel(monkeypatch, {line})
        seen = []
        check = verifier.check_extremal_structure
        monkeypatch.setattr(verifier, "check_extremal_structure",
                            lambda g, solution: seen.append(g)
                            or check(g, solution))
        run = verify_stream([line])
        rec = run.records[0]
        assert (rec.min_degree, rec.max_degree, rec.f_k, rec.equality) == (
            1, 3, 3, True)
        assert run.summary["counterexamples"] == [line]
        assert seen == [parse_graph6(line)]

    def test_a_line_only_the_kernel_refuses_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(_kernels, "verify_line",
                            lambda line, k, node_budget: None)
        with pytest.raises(AssertionError, match="'Bw'"):
            verify_stream(["Bw"])

    def test_structure_witness_has_f_k_vertices(self, monkeypatch):
        # The constrained scan starts at the record's f_k, and on every
        # equality graph a set of that size has a connected complement.
        sizes = {}
        check = verifier.check_extremal_structure

        def spy(g, solution):
            sizes[encode_graph6(g)] = len(solution.witness)
            return check(g, solution)
        monkeypatch.setattr(verifier, "check_extremal_structure", spy)
        checked = [(rec.graph6, rec.f_k) for n in range(4, 9)
                   for rec in _sweep(n).records
                   if rec.equality and rec.max_degree >= 3]
        # K4..K8, K_{3,3} and K_{4,4}.
        assert len(checked) == 7
        assert sizes == dict(checked)

    @pytest.mark.parametrize("k", [1, 2])
    def test_solver_nodes_are_the_forcing_number_nodes(self, k):
        # A record counts the wavefront's closures, not solve's witness
        # level.
        for rec in _sweep(6, k=k).records:
            g = parse_graph6(rec.graph6)
            assert (rec.f_k, rec.solver_nodes) == forcing_number(g, k)

    def test_k2_sweep_respects_connectivity_hypothesis(self):
        run = _sweep(5, k=2)
        assert all(r.f_k * r.bound_den <= r.bound_num for r in run.records)
        # one record or one skip per enumerated graph; trees and other
        # cut-vertex graphs land in the skips
        assert run.summary["skipped"] == {"not 2-connected": 11}
        assert len(run.records) == 21 - 11

    # Connected graphs on n = 3..7 vertices (A001349), and how many of them
    # are 2-connected (A002218) and 3-connected (A006290).
    CONNECTED = [2, 6, 21, 112, 853]
    K_CONNECTED = {2: [1, 3, 10, 56, 468], 3: [0, 1, 3, 17, 136]}

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_sweeps_verify_exactly_the_k_connected_graphs(
            self, k, kernels, monkeypatch):
        use_backend(monkeypatch, kernels)
        # Enumerate on this backend too, not from another test's cache.
        monkeypatch.setattr(enumeration, "_built", {})
        assert _sweep(2, k=k).summary["skipped"] == {"max degree < 2": 1}
        for n, connected, verified in zip(range(3, 8), self.CONNECTED,
                                          self.K_CONNECTED[k]):
            summary = _sweep(n, k=k).summary
            assert summary["graphs_verified"] == verified, n
            assert summary["skipped"] == {
                f"not {k}-connected": connected - verified}, n

    def test_csv_summary_shape(self):
        run = _sweep(4)
        buf = io.StringIO()
        run.write_summary_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ("n,graph_count,extremal_count,"
                            "extremal_graph6_list,max_solver_nodes,"
                            "wall_time_ms")
        assert lines[1].startswith("4,6,2,")

    def test_csv_summary_is_what_csv_writer_writes(self):
        # write_summary_csv joins the fields itself; csv.writer, which
        # quotes any field that needs it, writes the same text.
        run = verify_stream([line for n in range(3, 7)
                             for line in enumerate_connected(n)])
        got, want = io.StringIO(), io.StringIO()
        run.write_summary_csv(got)
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["n", "graph_count", "extremal_count",
                         "extremal_graph6_list", "max_solver_nodes",
                         "wall_time_ms"])
        for n, row in sorted(run.summary["per_n"].items()):
            writer.writerow([
                n, row["graph_count"], row["extremal_count"],
                " ".join(row["extremal_graph6"]),
                row["max_solver_nodes"], round(row["wall_time_ms"], 3)])
        assert len(got.getvalue().splitlines()) == 5
        assert got.getvalue() == want.getvalue()

    def test_jsonl_fields(self):
        [line] = _record_lines(["Bw"])
        assert list(json.loads(line)) == RECORD_FIELDS


class TestRecordLines:
    @pytest.mark.parametrize("k,count,escaped", [(1, 994, 5), (2, 538, 5),
                                                 (3, 157, 3)])
    def test_every_enumerated_record(self, k, count, escaped):
        # verify --enumerate n for n = 1..7. Some 7-vertex graph6 lines
        # hold a backslash, which JSON escapes.
        lines = _record_lines([line for n in range(1, 8)
                               for line in enumerate_connected(n)], k)
        records = _written_as_json_dumps(lines)
        assert len(records) == count
        assert sum("\\\\" in line for line in lines) == escaped
        assert {rec["extremal_class"] for rec in records} >= {None,
                                                              "complete"}
        assert {rec["structure_ok"] for rec in records} == (
            {None, True} if k == 1 else {None})

    @pytest.mark.parametrize("node_budget", [1, 3, 9])
    def test_unresolved_records(self, node_budget):
        lines = _record_lines([line for n in range(3, 7)
                               for line in enumerate_connected(n)],
                              node_budget=node_budget)
        records = _written_as_json_dumps(lines)
        unresolved = [rec for rec in records if rec["status"] == "unresolved"]
        assert unresolved and all(rec["f_k"] is None for rec in unresolved)

    def test_structure_verdicts(self, monkeypatch):
        # K_4 and K_{3,3} pass the structure check; a failing verdict is
        # written as false.
        lines = [encode_graph6(complete(4)),
                 encode_graph6(complete_bipartite(3, 3))]
        records = _written_as_json_dumps(_record_lines(lines))
        assert [rec["structure_ok"] for rec in records] == [True, True]
        monkeypatch.setattr(verifier, "check_extremal_structure",
                            lambda g, solution: False)
        records = _written_as_json_dumps(_record_lines(lines))
        assert [rec["structure_ok"] for rec in records] == [False, False]


def _mixed_stream():
    """A seeded stream with more distinct k = 1 verdicts than the sweep
    keeps: ten connected G(n, p) graphs for each n = 9..14 and p in {0.2,
    0.3, 0.45, 0.6}, the equality families, skips, malformed and blank
    lines, some lines with the header, shuffled together."""
    rng = random.Random(83)
    lines = []
    for n in range(9, 15):
        for p in (0.2, 0.3, 0.45, 0.6):
            drawn = []
            while len(drawn) < 10:
                g = random_graph(rng, n, p)
                if is_connected(g):
                    drawn.append(encode_graph6(g))
            lines += drawn
    families = ([cycle(n) for n in range(3, 15)]
                + [complete(n) for n in range(3, 13)]
                + [complete_bipartite(d, d) for d in range(2, 7)])
    lines += [encode_graph6(g) for g in families]
    lines += ["A?", "A_", "@", "E??W", "B!", "Bwx", "~??~?????", "D", "",
              "  ", ">>graph6<<"]
    rng.shuffle(lines)
    return [">>graph6<<" + line if i % 17 == 0 and line else line
            for i, line in enumerate(lines)]


def _rederived(lines, k, node_budget):
    """The record lines of a run over ``lines`` and its summary without
    wall times, each record re-derived on its own from the sweep's kernel,
    ``bounds`` and ``classify_extremal``, with no verdict shared between
    records; and the distinct verdicts, each a record without its name
    and solver_nodes."""
    kernel = _kernels.verify_line
    summary = {
        "k": k, "input_lines": len(lines), "graphs_verified": 0,
        "skipped": {}, "parse_failure_count": 0, "parse_failures": [],
        "per_n": {}, "counterexamples": [], "unresolved": [],
        "structure_failures": [], "equality_off_family": []}
    records, verdicts = [], set()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        facts = kernel(line, k, node_budget)
        if facts is None:
            with pytest.raises(Graph6Error) as err:
                parse_graph6(line)
            summary["parse_failure_count"] += 1
            summary["parse_failures"].append(
                {"line": lineno, "graph6": line, "error": str(err.value)})
            continue
        n, dmax, dmin, code, value, nodes, aborted = facts
        if code:
            reason = failure_reason(code, k)
            summary["skipped"][reason] = summary["skipped"].get(reason, 0) + 1
            continue
        name = line.removeprefix(">>graph6<<")
        g = parse_graph6(line)
        cls = classify_extremal(g)
        num, den = forcing_upper_bound(n, dmax, k)
        f_k = None if aborted else value
        equality = f_k is not None and f_k * den == num
        structure = None
        if equality and k == 1 and dmax >= 3:
            try:
                structure = check_extremal_structure(g, (
                    _connected_complement_from(g, 1, f_k, node_budget,
                                               nodes)))
            except BudgetExceeded as exc:
                f_k, equality, nodes = None, False, exc.nodes_explored
        fields = {
            "graph6": name, "n": n, "max_degree": dmax, "min_degree": dmin,
            "k": k, "f_k": f_k, "bound_num": num, "bound_den": den,
            "equality": equality,
            "extremal_class": cls.tag if cls else None,
            "extremal_parameter": cls.parameter if cls else None,
            "structure_ok": structure, "solver_nodes": nodes,
            "status": "ok" if f_k is not None else "unresolved"}
        assert list(fields) == RECORD_FIELDS
        records.append(json.dumps(fields) + "\n")
        verdicts.add(tuple(value for field, value in fields.items()
                           if field not in ("graph6", "solver_nodes")))
        summary["graphs_verified"] += 1
        row = summary["per_n"].setdefault(n, {
            "graph_count": 0, "extremal_count": 0, "extremal_graph6": [],
            "max_solver_nodes": 0})
        row["graph_count"] += 1
        row["max_solver_nodes"] = max(row["max_solver_nodes"], nodes)
        if f_k is None:
            summary["unresolved"].append(name)
            continue
        if equality:
            row["extremal_count"] += 1
            row["extremal_graph6"].append(name)
            if k >= 3 or k == 2 and not (dmin == dmax
                                         and dmax in (2, n - 1)):
                summary["equality_off_family"].append(name)
        rnum, rden = degree_refined_bound(n, dmax, dmin)
        if (f_k * den > num or f_k < max(1, dmin - k + 1)
                or k == 1 and (f_k * rden > rnum
                               or equality != (cls is not None))):
            summary["counterexamples"].append(name)
        if structure is False:
            summary["structure_failures"].append(name)
    return records, summary, verdicts


class TestVerdicts:
    """Each distinct verdict is rendered once per run and reused, up to
    VERDICTS_KEPT of them: a run must write what rendering every record
    on its own writes, whether or not its verdicts are kept."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("node_budget", [3, 20, 200])
    def test_records_and_summary_are_rederived_per_record(
            self, k, node_budget, monkeypatch):
        lines = _mixed_stream()
        # Make a few non-regular graphs attain the bound, so that the
        # counterexample and equality_off_family lists fill too.
        kernel = _kernels.verify_line
        tight = set()
        for line in filter(None, map(str.strip, lines)):
            facts = kernel(line, k, 0)
            if facts and not facts[3] and facts[1] != facts[2]:
                num, den = forcing_upper_bound(facts[0], facts[1], k)
                if num % den == 0 and len(tight) < 5:
                    tight.add(line)
        assert len(tight) == 5
        _tight_kernel(monkeypatch, tight)
        records, summary, verdicts = _rederived(lines, k, node_budget)
        if k == 1 and node_budget >= 20:
            assert len(verdicts) > verifier.VERDICTS_KEPT
        if node_budget == 200:
            assert summary["counterexamples" if k == 1
                           else "equality_off_family"]
        else:
            assert summary["unresolved"]
        for kept in (verifier.VERDICTS_KEPT, 1):
            monkeypatch.setattr(verifier, "VERDICTS_KEPT", kept)
            run = VerifyRun(lines, k, node_budget=node_budget)
            assert list(run.records) == records, kept
            for row in run.summary["per_n"].values():
                del row["wall_time_ms"]
            assert json.dumps(run.summary) == json.dumps(summary), kept


def _counting(items, drawn):
    for item in items:
        drawn[0] += 1
        yield item


class TestStreaming:
    def test_one_worker_draws_one_item_per_record(self):
        # Each record is yielded once its own input line is drawn and
        # before the next one is; blank, malformed and skipped lines are
        # drawn on the way.
        lines = (["", "not graph6!", "A?"] + list(enumerate_connected(6))
                 + ["", "A?"])
        drawn = [0]
        run = VerifyRun(_counting(lines, drawn), 1)
        first = next(run.records)
        assert drawn == [4]
        assert run.summary["graphs_verified"] == 1
        assert first == _record_lines(enumerate_connected(6))[0]
        assert [drawn[0] for _ in run.records] == list(range(5, 4 + 112))
        assert drawn[0] == len(lines) == run.summary["input_lines"]

    def test_closing_early_runs_the_input_finally(self):
        ended = []

        def items():
            try:
                yield from enumerate_connected(6)
            finally:
                ended.append(True)
        run = VerifyRun(items(), 1)
        next(run.records)
        next(run.records)
        assert ended == []
        run.records.close()
        assert ended == [True]

    def test_summary_keeps_its_keys_and_line_numbers(self):
        lines = ["Bw", "", "not graph6!", "A?"] + list(enumerate_connected(6))
        summary = verify_stream(lines, 2).summary
        assert list(summary) == ["k", "input_lines", "graphs_verified",
                                 "skipped", "parse_failure_count",
                                 "parse_failures", "per_n",
                                 "counterexamples", "unresolved",
                                 "structure_failures", "equality_off_family"]
        assert summary["input_lines"] == len(lines)
        assert summary["parse_failure_count"] == 1
        assert [f["line"] for f in summary["parse_failures"]] == [3]
        # Reasons in the order the input first gives them: the pair, then
        # the 56 connected 6-vertex graphs with a cut vertex.
        assert list(summary["skipped"].items()) == [("disconnected", 1),
                                                     ("not 2-connected", 56)]
        assert (summary["graphs_verified"] + sum(summary["skipped"].values())
                == len(lines) - 2)

    def test_skips_cost_a_count_not_memory(self):
        # 20,000 disconnected pairs leave one count behind.
        lines = ["A?"] * 20000
        tracemalloc.start()
        try:
            run = VerifyRun(lines, 1)
            deque(run.records, maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert run.summary["skipped"] == {"disconnected": 20000}
        assert run.summary["input_lines"] == 20000

    def test_parse_failures_cost_a_count_past_the_first_ones(self):
        # 20,000 malformed lines keep their first PARSE_FAILURES_KEPT
        # entries in full and an exact count; every entry cost about 6.3 MB.
        lines = ["B!"] * 20000
        tracemalloc.start()
        try:
            run = VerifyRun(lines, 1)
            deque(run.records, maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        failures = run.summary["parse_failures"]
        assert run.summary["parse_failure_count"] == 20000
        assert [f["line"] for f in failures] == list(
            range(1, verifier.PARSE_FAILURES_KEPT + 1))
        assert failures[-1] == {
            "line": 100, "graph6": "B!",
            "error": "non-printable payload byte '!' (byte offset 1)"}


class TestExtremalStructure:
    def test_complete_graph(self):
        ok, s, comp, counts = _dissection(complete(4))
        assert ok is True
        assert (len(s), len(comp), sum(counts)) == (3, 1, 3)

    def test_balanced_bipartite(self):
        ok, s, comp, counts = _dissection(complete_bipartite(3, 3))
        assert ok is True
        assert (len(s), len(comp), sum(counts)) == (4, 2, 4)
        assert _induces_tree(complete_bipartite(3, 3), comp)

    def test_verdict_on_real_input(self):
        # CN is K_{1,3} plus an edge; a vertex of its witness has two
        # neighbours outside it.
        ok, _, _, counts = _dissection(parse_graph6("CN"))
        assert ok is False and 2 in counts
        assert _dissection(Graph(2, []))[0] is None
        # The verdict reads the witness, which depends on the labels: these
        # are the counts on enumerate_connected's representatives.
        verdicts = [_dissection(g)[0] for n in range(3, 7)
                    for g in map(parse_graph6, enumerate_connected(n))]
        assert (verdicts.count(True), verdicts.count(False)) == (44, 97)

    @pytest.mark.parametrize("k", [1, 2])
    def test_dissection_counts_each_vertex_its_outside_neighbors(self, k):
        # The counts sum to the edge boundary of S, which is also that of
        # its complement. At k = 1 the structure check holds exactly when
        # every count is 1 and the complement induces a tree.
        for g in (parse_graph6(line) for n in range(2, 7)
                  for line in enumerate_connected(n)):
            solution = solve_connected_complement(g, k)
            assert not solution.complement_empty
            s, comp = solution.witness, solution.witness.complement()
            counts = outside_counts(g, solution)
            nxg = nx.Graph(g.edges())
            nxg.add_nodes_from(range(g.n))
            assert counts == [len(set(nxg[v]) & set(comp)) for v in s]
            assert sum(counts) == nx.cut_size(nxg, list(s)) \
                == nx.cut_size(nxg, list(comp))
            if k == 1:
                assert check_extremal_structure(g, solution) == (
                    set(counts) == {1} and _induces_tree(g, comp))

    def test_sweep_attaches_structure_only_where_it_applies(self):
        run = _sweep(6)
        for rec in run.records:
            if rec.equality and rec.max_degree >= 3:
                assert rec.structure_ok is True
            else:
                assert rec.structure_ok is None


class TestTreeLeafSuite:
    def test_small_trees_all_pass(self, spider_4_leaves):
        trees = [path(5), star(3), spider_4_leaves]
        out = run_tree_leaf_suite(trees)
        assert out["trees_checked"] == 3
        # 2 leaves + 3 leaves + 4 leaves -> 9 dropped-leaf subsets
        assert out["subsets_checked"] == 9
        assert out["failures"] == []

    def test_exhaustive_order_five(self):
        out = run_tree_leaf_suite(
            filter(is_tree, map(parse_graph6, enumerate_connected(5))))
        assert out["trees_checked"] == 3
        assert out["failures"] == []

    def test_non_tree_rejected(self):
        out = run_tree_leaf_suite([cycle(4), tree_from_pruefer([1]),
                                   Graph(1)])
        assert out["trees_checked"] == 1
        assert out["rejected"] == [{"index": 0, "reason": "not a tree"},
                                   {"index": 2, "reason": "no leaves"}]


class TestKnownValues:
    def test_closed_forms_small(self):
        out = run_known_values(delta_max=3, cycle_max=9)
        assert out["failures"] == []
        got = {c["graph"]: c["got"] for c in out["checks"]}
        assert got["K_4"] == 3
        assert got["K_{3,3}"] == 4
        assert got["C_9"] == 2

    def test_delta_four(self):
        out = run_known_values(delta_max=4, cycle_max=3)
        got = {c["graph"]: c["got"] for c in out["checks"]}
        assert got["K_{4,4}"] == 6
        assert out["failures"] == []

    def test_rejects_tiny_delta(self):
        with pytest.raises(ValueError):
            run_known_values(delta_max=1)
