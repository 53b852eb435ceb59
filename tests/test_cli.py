"""Command-line surface: output shapes, exit codes, file handling."""

import ast
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import forcing_lab
from forcing_lab import (_kernels, classify_extremal, complete,
                         complete_bipartite, cycle, encode_graph6,
                         enumerate_connected, enumeration, parse_graph6, path,
                         verifier)
from forcing_lab import cli
from forcing_lab.cli import COMMANDS, main, parse_args
from forcing_lab.enumeration import MAX_ENUMERATION_ORDER

from conftest import verify_stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_json(text):
    return json.loads(text.strip().splitlines()[0])


class TestSolve:
    def test_cycle(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--family", "cycle:5", "--k", "1")
        assert code == 0
        data = first_json(out)
        assert data["value"] == 2
        assert data["method"] == "bnb"
        assert "config" in first_json(err)

    def test_complete_k2(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "complete:5",
                               "--k", "2")
        assert code == 0
        assert first_json(out)["value"] == 3

    def test_inline_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--graph6", "Bw", "--k", "1")
        assert code == 0
        assert first_json(out)["value"] == 2

    def test_constrained_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "complete:1",
                               "--constrained")
        assert code == 0
        data = first_json(out)
        assert data["value"] == 1 and data["complement_empty"] is True

    def test_edge_list_input(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run_cli(capsys, "solve", "--input", str(p))
        assert code == 0
        assert first_json(out)["value"] == 1

    def test_graph6_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        for text in ["Bw\n", "\nBw\n\n"]:
            p.write_text(text)
            code, out, _ = run_cli(capsys, "solve", "--input", str(p))
            assert code == 0
            assert first_json(out)["value"] == 2

    @pytest.mark.parametrize("command, data", [
        (["solve"], b"Bw\nC~\n"),
        (["bounds"], b"Bw\nthis is garbage\n"),
        (["closure", "--set", "0"], b"\r\nBw\r\n\r\nC~\r\n")])
    def test_second_graph6_record_exits_2(self, capsys, tmp_path, command,
                                          data):
        # A graph6 --input file holds one graph; the error names the byte
        # offset of the second record, counting "\r\n" as two bytes.
        p = tmp_path / "g.g6"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, *command, "--input", str(p))
        assert code == 2 and out == ""
        offset = data.index(data.split()[1])
        assert err == ("error: a graph6 --input file holds one graph, found "
                       f"a second record (byte offset {offset})\n")

    @pytest.mark.parametrize("data, error", [
        (b"\n\nB!\n", "non-printable payload byte '!' (byte offset 3)"),
        (b"\r\n>>graph6<<B \r\n",
         "non-printable payload byte ' ' (byte offset 13)"),
        (b"\n\n$\n", "malformed size byte '$' (byte offset 2)")],
        ids=["blank-lines", "header-after-crlf", "size-byte"])
    def test_bad_graph6_record_names_its_offset_in_the_file(
            self, capsys, tmp_path, data, error):
        p = tmp_path / "g.g6"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, "solve", "--input", str(p))
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    def test_repeated_edge_exits_2(self, capsys, tmp_path):
        # Two lines name the edge {0, 1}; merging them would solve a
        # one-edge graph plus an isolated vertex.
        p = tmp_path / "g.edges"
        p.write_text("3 2\n0 1\n1 0\n")
        code, out, err = run_cli(capsys, "solve", "--input", str(p))
        assert code == 2 and out == ""
        assert err == "error: edge line '1 0' repeats '0 1'\n"

    def test_bad_graph6_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--graph6", "B!")
        assert code == 2
        assert "error" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--graph6", "Bw",
                             "--family", "cycle:4")
        assert code == 2
        code, _, _ = run_cli(capsys, "solve")
        assert code == 2

    def test_budget_abort_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family", "cycle:9",
                               "--node-budget", "1")
        assert code == 3
        assert "budget" in err


class TestClosure:
    def test_forcing_pair(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "cycle:5",
                               "--set", "0,1", "--k", "1")
        assert code == 0
        data = first_json(out)
        assert data["forces"] is True
        assert len(data["events"]) == 3

    def test_stalled_single(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "cycle:5",
                               "--set", "0", "--k", "1")
        assert code == 0
        data = first_json(out)
        assert data["forces"] is False and data["colored"] == 1

    def test_k2_floods(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "cycle:5",
                               "--set", "0", "--k", "2")
        assert code == 0
        assert first_json(out)["forces"] is True

    def test_invalid_vertex_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "closure", "--family", "cycle:5",
                             "--set", "7")
        assert code == 2

    def test_output_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "closure", "--family", "cycle:5",
                               "--set", "0,1")
        assert code == 0
        assert out == ('{"k": 1, "initial": [0, 1], "events": [[0, 4], '
                       '[1, 2], [2, 3]], "forces": true, "colored": 5}\n')


class TestBounds:
    def test_balanced_bipartite(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family",
                               "complete_bipartite:4,4", "--k", "1")
        assert code == 0
        data = first_json(out)
        assert (data["bound_num"], data["bound_den"]) == (18, 3)
        assert data["meets_equality"] is True
        assert data["z"] == 6
        assert data["extremal_class"] == "balanced_complete_bipartite"

    def test_k2_verdict_uses_f_k(self, capsys):
        # Z(K_{3,3}) = 4 meets the k = 1 bound 4/2, but f_2 = 2 is below
        # the k = 2 bound 8/3.
        code, out, _ = run_cli(capsys, "bounds", "--family",
                               "complete_bipartite:3,3", "--k", "2")
        assert code == 0
        data = first_json(out)
        assert (data["bound_num"], data["bound_den"]) == (8, 3)
        assert data["z"] == 4 and data["f_k"] == 2
        assert data["meets_equality"] is False
        # f_2(K_5) = 3 = 12/4.
        _, out, _ = run_cli(capsys, "bounds", "--family", "complete:5",
                            "--k", "2")
        data = first_json(out)
        assert (data["bound_num"], data["bound_den"], data["f_k"]) == (12, 4, 3)
        assert data["meets_equality"] is True

    @pytest.mark.parametrize("source, k, line", [
        (("--family", "cycle:6"), 1,
         '{"n": 6, "max_degree": 2, "min_degree": 2, "k": 1, "bound_num": 2, '
         '"bound_den": 1, "refined_num": 2, "refined_den": 1, '
         '"meets_equality": true, "z": 2, "extremal_class": "cycle", '
         '"graph": "C_6"}'),
        (("--family", "complete_bipartite:4,4"), 1,
         '{"n": 8, "max_degree": 4, "min_degree": 4, "k": 1, "bound_num": 18, '
         '"bound_den": 3, "refined_num": 18, "refined_den": 3, '
         '"meets_equality": true, "z": 6, "extremal_class": '
         '"balanced_complete_bipartite", "graph": "K_{4,4}"}'),
        (("--graph6", "IheA@GUAo"), 1,
         '{"n": 10, "max_degree": 3, "min_degree": 3, "k": 1, "bound_num": 12, '
         '"bound_den": 2, "refined_num": 12, "refined_den": 2, '
         '"meets_equality": false, "z": 5, "extremal_class": null}'),
        (("--family", "complete:5"), 2,
         '{"n": 5, "max_degree": 4, "min_degree": 4, "k": 2, "bound_num": 12, '
         '"bound_den": 4, "refined_num": 12, "refined_den": 3, '
         '"meets_equality": true, "z": 4, "f_k": 3, "extremal_class": '
         '"complete", "graph": "K_5"}'),
        (("--graph6", "IheA@GUAo"), 2,
         '{"n": 10, "max_degree": 3, "min_degree": 3, "k": 2, "bound_num": 12, '
         '"bound_den": 3, "refined_num": 12, "refined_den": 2, '
         '"meets_equality": false, "z": 5, "f_k": 2, "extremal_class": null}'),
        (("--family", "complete:6", "--node-budget", "2"), 2,
         '{"n": 6, "max_degree": 5, "min_degree": 5, "k": 2, "bound_num": 20, '
         '"bound_den": 5, "refined_num": 20, "refined_den": 4, '
         '"meets_equality": true, "z": 5, "f_k": 4, "extremal_class": '
         '"complete", "graph": "K_6"}'),
    ], ids=["C6-k1", "K44-k1", "Petersen-k1", "K5-k2", "Petersen-k2",
            "K6-k2-budget-2"])
    def test_output_is_pinned(self, capsys, source, k, line):
        # Every key, in order: the degrees, both bounds, the verdict at k,
        # Z and f_k (k >= 2 only), the family and the graph's name, if any.
        # bounds reports values only and never searches for a witness, so
        # two nodes of budget are enough for K_6: its wavefront needs one
        # closure at k = 1 and one at k = 2, both drawn from the one budget.
        code, out, _ = run_cli(capsys, "bounds", *source, "--k", str(k))
        assert code == 0
        assert out == line + "\n"

    def test_k_solve_gets_what_the_k1_solve_left(self, capsys):
        # At a budget of one node, K_6's k = 1 wavefront spends it all, so
        # the k = 2 solve has none left.
        code, out, err = run_cli(capsys, "bounds", "--family", "complete:6",
                                 "--k", "2", "--node-budget", "1")
        assert code == 3 and out == ""
        assert "budget exceeded" in err

    def test_k_solve_abort_names_the_given_budget(self, capsys):
        # K_{4,4}'s k = 1 wavefront spends 33 of the 40 nodes, so the k = 2
        # solve aborts on the 7 left; the message names the 40 given.
        code, out, err = run_cli(capsys, "bounds", "--family",
                                 "complete_bipartite:4,4", "--k", "2",
                                 "--node-budget", "40")
        assert code == 3 and out == ""
        assert "node budget 40 exhausted" in err

    def test_max_degree_below_two_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "path:2")
        assert code == 2
        assert "graph outside the bound's hypotheses: max degree < 2" in err

    def test_hypotheses_are_checked_before_any_solve(self, capsys):
        # At a budget of one node a solve either aborts (exit 3) or
        # reports (exit 0), so exit 2 here shows that the input is
        # rejected first. EwCW is two disjoint triangles; P_3
        # and the star K_{1,3} are connected with max degree >= 2, but not
        # k-connected at the k given.
        for source, k, message in [
                (("--graph6", "EwCW"), "1", "hypotheses: disconnected"),
                (("--family", "path:2"), "1", "hypotheses: max degree < 2"),
                (("--family", "path:3"), "3", "hypotheses: not 3-connected"),
                (("--family", "star:3"), "2", "hypotheses: not 2-connected")]:
            code, out, err = run_cli(capsys, "bounds", *source, "--k", k,
                                     "--node-budget", "1")
            assert code == 2 and out == ""
            assert message in err and "budget exceeded" not in err

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bounds_rejects_exactly_what_verify_skips(self, capsys, k):
        # Every connected graph with n <= 5, two disjoint triangles, P_2
        # and the empty graph: verify skips a graph exactly when bounds
        # exits 2, for the same reason. At k = 1 a skipped graph is in no
        # equality family, so classify_extremal gives None for it (and
        # raises only on the empty graph, which has no degrees).
        cases = [(("--graph6", line), parse_graph6(line)) for n in range(1, 6)
                 for line in enumerate_connected(n)]
        cases += [(("--graph6", "EwCW"), parse_graph6("EwCW")),
                  (("--family", "path:2"), path(2)),
                  (("--graph6", "?"), parse_graph6("?"))]
        skips = 0
        for source, g in cases:
            # Verified alone, a graph gives one record or one skip.
            run = verify_stream([encode_graph6(g)], k)
            skipped = run.summary["skipped"]
            assert len(run.records) + sum(skipped.values()) == 1
            reason = next(iter(skipped), None)
            skips += reason is not None
            code, out, err = run_cli(capsys, "bounds", *source, "--k", str(k))
            if reason is None:
                assert code == 0 and first_json(out)["k"] == k
            else:
                assert code == 2 and out == ""
                assert err.endswith(f"hypotheses: {reason}\n")
            if k == 1 and reason is not None:
                if g.n:
                    assert classify_extremal(g) is None
                else:
                    with pytest.raises(ValueError):
                        classify_extremal(g)
        assert skips


class TestVerify:
    def test_enumerate_3(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--enumerate", "3")
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        assert len(records) == 2
        assert sum(1 for r in records if r["equality"]) == 1

    def test_enumerate_6_with_out_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "sweep")
        code, out, err = run_cli(capsys, "verify", "--enumerate", "6",
                                 "--out", prefix)
        assert code == 0
        records = [json.loads(ln) for ln in
                   (tmp_path / "sweep.records.jsonl").read_text().splitlines()]
        assert len(records) == 112
        assert sum(1 for r in records if r["equality"]) == 3
        csv_text = (tmp_path / "sweep.summary.csv").read_text()
        assert csv_text.splitlines()[1].startswith("6,112,3,")
        summary = json.loads((tmp_path / "sweep.summary.json").read_text())
        assert summary["counterexamples"] == []

    def test_stdin_and_input_file(self, capsys, tmp_path):
        p = tmp_path / "in.g6"
        p.write_text("Bw\nBg\n")
        code, out, _ = run_cli(capsys, "verify", "--input", str(p))
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        assert len(records) == 2

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_input_lines_split_as_splitlines_does(self, source, capsys,
                                                  tmp_path, monkeypatch):
        # str.splitlines breaks at \x0c; iterating a file does not.
        text = "Bw\nnot graph6!\x0cA?\n\nBg\x0cC~\nBad!\n"
        path = tmp_path / "in.g6"
        path.write_text(text)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(text.encode()), encoding="ascii"))
        prefix = str(tmp_path / "run")
        code, _, _ = run_cli(capsys, "verify", "--out", prefix, "--input",
                             str(path) if source == "file" else "-")
        assert code == 0
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        expected = verify_stream(text.splitlines()).summary
        for key in ("input_lines", "skipped", "parse_failures"):
            assert summary[key] == expected[key]
        assert [f["line"] for f in summary["parse_failures"]] == [2, 7]
        assert summary["skipped"] == {"disconnected": 1}

    def test_undecodable_input_names_its_offset_in_the_file(self, capsys,
                                                             tmp_path):
        # Past the first 8 KiB a text stream decodes in chunks, and its
        # error positions restart at each chunk.
        head = b"Bw\n" * 4000
        path = tmp_path / "in.g6"
        path.write_bytes(head + b"Bw\xe9\n")
        code, _, err = run_cli(capsys, "verify", "--input", str(path))
        assert code == 2
        assert (f"can't decode byte 0xe9 in position {len(head) + 2}"
                in err.splitlines()[-1])

    def test_undecodable_input_fails_alike_from_a_file_and_stdin(
            self, capsys, tmp_path, monkeypatch):
        # Stdin is read as ASCII too, whatever its text layer would decode.
        data = b"Bw\nBg\nBw\xe9\n"
        path = tmp_path / "in.g6"
        path.write_bytes(data)
        code, _, err = run_cli(capsys, "verify", "--input", str(path))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        code_stdin, _, err_stdin = run_cli(capsys, "verify", "--input", "-")
        assert code == code_stdin == 2
        assert err.splitlines()[-1] == err_stdin.splitlines()[-1]
        assert "can't decode byte 0xe9 in position 8" in err.splitlines()[-1]

    def test_reader_closing_stdout_early_exits_141(self, tmp_path):
        # Records stream, so ``verify | head -1`` closes the pipe while
        # verify still writes: that is no input error.
        src = os.path.dirname(os.path.dirname(forcing_lab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        err_path = tmp_path / "stderr"
        with open(err_path, "wb") as err_file, subprocess.Popen(
                [sys.executable, "-m", "forcing_lab.cli", "verify",
                 "--enumerate", "7"], env=env, stdout=subprocess.PIPE,
                stderr=err_file) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=120)
        err = err_path.read_text()
        assert json.loads(first)["n"] == 7
        assert code == 141
        assert "error" not in err and "Exception" not in err

    def test_enumerate_above_the_cap_writes_no_file(self, capsys, tmp_path):
        cap = MAX_ENUMERATION_ORDER
        code, out, err = run_cli(capsys, "verify", "--enumerate",
                                 str(cap + 1), "--out", str(tmp_path / "P"))
        assert code == 2 and out == ""
        assert err == (f"error: built-in enumeration covers 1 <= n <= {cap}; "
                       "supply a graph6 file for larger orders\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", [False, True])
    def test_wrong_class_count_fails_after_the_records(self, tmp_path, out):
        # The top order is streamed and its count checked after its last
        # line. A kernel that drops one child there fails the run once the
        # records are written: no summary line, and no summary file.
        script = (
            "import sys\n"
            "from forcing_lab import _kernels\n"
            "from forcing_lab.cli import main\n"
            "real, dropped = _kernels.augment, []\n"
            "def augment(bits, n):\n"
            "    kids = real(bits, n)\n"
            "    if n == 4 and kids and not dropped:\n"
            "        dropped.append(kids.pop())\n"
            "    return kids\n"
            "_kernels.augment = augment\n"
            "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(forcing_lab.__file__))
        prefix = str(tmp_path / "P")
        done = subprocess.run(
            [sys.executable, "-c", script, "verify", "--enumerate", "5"]
            + (["--out", prefix] if out else []),
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode != 0
        assert done.stderr.rstrip().endswith(
            "AssertionError: enumeration found 20 connected classes on 5 "
            "vertices, published count is 21")
        assert '{"summary": ' not in done.stderr
        if out:
            assert done.stdout == ""
            records = (tmp_path / "P.records.jsonl").read_text()
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "P.records.jsonl"]
        else:
            records = done.stdout
        assert len(records.splitlines()) == 20

    def test_requires_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "verify")
        assert code == 2
        code, _, _ = run_cli(capsys, "verify", "--enumerate", "3",
                             "--input", "x.g6")
        assert code == 2

    def test_budget_abort_exits_3(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--enumerate", "4",
                             "--node-budget", "2")
        assert code == 3

    def test_structure_abort_is_unresolved_and_the_run_goes_on(
            self, capsys, tmp_path, monkeypatch):
        # K_{3,3} (EFz_) takes 7 nodes for its forcing number and 3 for
        # its structure check's constrained scan, which continues from
        # f_k; a budget of 8 leaves the scan 1 node.
        stream = "Bw\nEFz_\nCr\n"
        prefix = str(tmp_path / "run")
        for out_args in ([], ["--out", prefix]):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
                io.BytesIO(stream.encode()), encoding="ascii"))
            code, out, err = run_cli(capsys, "verify", "--input", "-",
                                     "--node-budget", "8", *out_args)
            assert code == 3
            if out_args:
                out = (tmp_path / "run.records.jsonl").read_text()
                csv_text = (tmp_path / "run.summary.csv").read_text()
                summary = json.loads(
                    (tmp_path / "run.summary.json").read_text())
                assert summary["unresolved"] == ["EFz_"]
            else:
                csv_text = "\n".join(err.splitlines()[1:-1])
            records = [json.loads(ln) for ln in out.splitlines()]
            assert [(r["graph6"], r["status"]) for r in records] == [
                ("Bw", "ok"), ("EFz_", "unresolved"), ("Cr", "ok")]
            assert (records[1]["f_k"], records[1]["equality"],
                    records[1]["structure_ok"], records[1]["solver_nodes"]) \
                == (None, False, None, 8)
            assert [row.split(",")[:2] for row in csv_text.splitlines()] == [
                ["n", "graph_count"], ["3", "1"], ["4", "1"], ["6", "1"]]
            line = json.loads(err.splitlines()[-1])["summary"]
            assert (line["graphs_verified"], line["unresolved"]) == (3, 1)

    def test_structure_failure_exits_1_after_writing_every_record(
            self, capsys, monkeypatch):
        # K4 is the only n = 4 graph at equality with max degree >= 3, so
        # the only record a False structure verdict can mark.
        monkeypatch.setattr(verifier, "check_extremal_structure",
                            lambda g, solution: False)
        code, out, err = run_cli(capsys, "verify", "--enumerate", "4")
        assert code == 1
        records = [json.loads(ln) for ln in out.splitlines()]
        assert len(records) == 6
        assert [r["graph6"] for r in records
                if r["structure_ok"] is False] == ["C~"]
        assert json.loads(err.splitlines()[-1])["summary"][
            "structure_failures"] == 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_enumerate_is_input_of_the_enumerated_lines(self, capsys,
                                                        tmp_path, k):
        # One path: --enumerate N verifies the lines enumerate_connected(N)
        # yields, so its stdout is that of --input over a file of them.
        path = tmp_path / "n6.g6"
        path.write_text("\n".join(enumerate_connected(6)) + "\n")
        code, enumerated, _ = run_cli(capsys, "verify", "--enumerate", "6",
                                      "--k", str(k))
        code_input, from_file, _ = run_cli(capsys, "verify", "--input",
                                           str(path), "--k", str(k))
        assert code == code_input == 0
        assert enumerated == from_file and enumerated.count("\n") > 0

    def test_enumerate_never_builds_an_upper_triangle_mask(self, capsys,
                                                          monkeypatch):
        # An enumerated line is written from its augmentation mask, which
        # is already the upper-triangle mask.
        def refuse(self):
            raise AssertionError("an enumerated graph's mask was rebuilt")

        monkeypatch.setattr(forcing_lab.Graph, "upper_triangle_mask", refuse)
        code, out, _ = run_cli(capsys, "verify", "--enumerate", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 112

    def test_headered_lines_are_named_without_the_header(self, capsys,
                                                         tmp_path):
        # geng -h writes the header before the first record, with no
        # newline between them.
        path = tmp_path / "headered.g6"
        path.write_text(">>graph6<<Bw\nBw\n>>graph6<<B!\n")
        prefix = str(tmp_path / "run")
        code, _, _ = run_cli(capsys, "verify", "--input", str(path),
                             "--out", prefix)
        assert code == 0
        records = (tmp_path / "run.records.jsonl").read_text().splitlines()
        assert [json.loads(r)["graph6"] for r in records] == ["Bw", "Bw"]
        csv_text = (tmp_path / "run.summary.csv").read_text()
        assert csv_text.splitlines()[1].startswith("3,2,2,Bw Bw,")
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["parse_failures"] == [
            {"line": 3, "graph6": ">>graph6<<B!",
             "error": "non-printable payload byte '!' (byte offset 11)"}]

    def test_enumerate_never_runs_a_witness_level(self, capsys, monkeypatch):
        # Records carry f_k and no witness, so verify never runs the pruned
        # level search that solve uses to find one.
        def refuse(*args, **kwargs):
            raise AssertionError("verify searched for a witness")

        monkeypatch.setattr(_kernels, "search_level_pruned", refuse)
        code, out, _ = run_cli(capsys, "verify", "--enumerate", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 112

    def test_enumerate_7_values_and_witnesses_are_pinned(self, capsys):
        # The whole stdout, solver node counts included, on both backends.
        # A change that alters any byte of it must say so and re-pin.
        for k, digest in [
                (1, "186cc1393207a04f5a147fe6dabc1ef7"
                    "ecd643c32097277dfe33233923071537"),
                (2, "5b219a5d59341f91d9cd0e2c14faa120"
                    "3b414113e1499f3572411e4e3351674f"),
                (3, "64d734df11b29cfc55ae04582a0eef28"
                    "8ff0596a861011fff8eb25b4948734d3")]:
            code, out, _ = run_cli(capsys, "verify", "--enumerate", "7",
                                   "--k", str(k))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, k

    @pytest.mark.skipif(not _kernels.HAVE_COMPILED,
                        reason="compiled kernels not built in place")
    def test_enumerate_8_output_is_pinned(self, capsys):
        # 11,117 graphs a k, about 0.1 s compiled: every closure the
        # wavefront restarts from a closed set, and every line the kernel
        # writes, pinned as they were before either.
        for k, digest in [
                (1, "7e902c58bab184a6d4793df92b164271"
                    "723d5dc3d70082105d3d9f1e1be6997e"),
                (2, "f636936d17056e32be9cf07a40d62cba"
                    "d966de82bd0b21f2ae80cb33aadfe500"),
                (3, "eea07aaa069163b4355fa58d6da42ee8"
                    "512dbbed869c689534084074c9fe1a0d")]:
            code, out, _ = run_cli(capsys, "verify", "--enumerate", "8",
                                   "--k", str(k))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, k

    def test_record_lines_are_what_json_dumps_writes(self, capsys, tmp_path,
                                                     petersen):
        # Records are written field by field; each line must be exactly what
        # json.dumps writes for the parsed record. The graph6 F@\u? holds a
        # backslash, which JSON escapes.
        graphs = [r"F@\u?", encode_graph6(cycle(7)), encode_graph6(complete(4)),
                  encode_graph6(complete(5)),
                  encode_graph6(complete_bipartite(3, 3)),
                  encode_graph6(petersen)]
        p = tmp_path / "mixed.g6"
        p.write_text("\n".join(graphs) + "\n", encoding="ascii")
        records = []
        for k, budget, exit_code in [(1, "100000", 0), (2, "100000", 0),
                                     (3, "100000", 0), (1, "20", 3)]:
            code, out, _ = run_cli(capsys, "verify", "--input", str(p),
                                   "--k", str(k), "--node-budget", budget)
            assert code == exit_code
            for line in out.splitlines():
                assert line == json.dumps(json.loads(line))
                records.append(json.loads(line))
        assert {r["k"] for r in records} == {1, 2, 3}
        assert {r["status"] for r in records} == {"ok", "unresolved"}
        assert {r["extremal_class"] for r in records} == {
            None, "cycle", "complete", "balanced_complete_bipartite"}
        assert {r["structure_ok"] for r in records} == {True, None}
        assert {r["f_k"] is None for r in records} == {True, False}
        assert r"F@\u?" in {r["graph6"] for r in records}

    def test_workers_flag_gives_same_records(self, capsys, tmp_path):
        # --workers is checked and echoed, and changes nothing else: the
        # same record bytes, and summaries equal apart from wall times.
        for k in ("1", "2"):
            outputs = []
            for workers in ("1", "3"):
                prefix = str(tmp_path / f"k{k}w{workers}")
                code, _, err = run_cli(capsys, "verify", "--enumerate", "6",
                                       "--k", k, "--workers", workers,
                                       "--out", prefix)
                assert code == 0
                assert first_json(err)["config"]["workers"] == int(workers)
                with open(prefix + ".records.jsonl", "rb") as fh:
                    records = fh.read()
                with open(prefix + ".summary.csv") as fh:
                    csv_rows = [row.rsplit(",", 1)[0] for row in fh]
                with open(prefix + ".summary.json") as fh:
                    summary = json.load(fh)
                for row in summary["per_n"].values():
                    del row["wall_time_ms"]
                outputs.append((records, csv_rows, summary))
            assert outputs[0][0].count(b"\n") == {"1": 112, "2": 56}[k]
            assert outputs[0] == outputs[1]
        code, _, err = run_cli(capsys, "verify", "--enumerate", "6",
                               "--workers", "0")
        assert code == 2 and err == "error: --workers must be at least 1\n"


class TestLemmas:
    def test_trees_suite(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "trees", "--max-n", "5",
                               "--random-count", "20", "--seed", "7")
        assert code == 0
        data = first_json(out)
        assert data["failures"] == []
        # One tree per isomorphism class on 2..5 vertices, then 20 random.
        assert data["trees_checked"] == 1 + 1 + 2 + 3 + 20
        assert data["seed"] == 7

    def test_trees_suite_extends_each_parent_once(self, capsys, monkeypatch):
        # Orders 1..5 hold 1 + 1 + 2 + 6 + 21 = 31 parents of the orders
        # 2..6 that the suite reads.
        monkeypatch.setattr(enumeration, "_built", {})
        calls = []
        augment = _kernels.augment
        monkeypatch.setattr(
            _kernels, "augment",
            lambda bits, n: calls.append(n) or augment(bits, n))
        code, out, _ = run_cli(capsys, "lemmas", "trees", "--max-n", "6",
                               "--random-count", "0")
        assert code == 0
        assert first_json(out)["trees_checked"] == 1 + 1 + 2 + 3 + 6
        assert len(calls) == 31

    def test_max_n_above_the_enumeration_cap_exits_2(self, capsys,
                                                     monkeypatch):
        def refuse(trees):
            raise AssertionError("a tree was checked")

        monkeypatch.setattr(cli, "run_tree_leaf_suite", refuse)
        cap = MAX_ENUMERATION_ORDER
        code, out, err = run_cli(capsys, "lemmas", "trees", "--max-n",
                                 str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: --max-n must be at most {cap}\n"

    def test_bad_random_range_exits_2_before_any_tree(self, capsys,
                                                      monkeypatch):
        def refuse(trees):
            raise AssertionError("a tree was checked")

        monkeypatch.setattr(cli, "run_tree_leaf_suite", refuse)
        # The table's range first, then random_trees' own check.
        for bounds, message in [(("--random-min", "1"),
                                 "--random-min must be at least 2"),
                                (("--random-min", "10", "--random-max", "9"),
                                 "need 2 <= min_n <= max_n")]:
            code, out, err = run_cli(capsys, "lemmas", "trees", "--max-n",
                                     "9", *bounds)
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"

    def test_known_suite(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "known", "--delta-max", "4")
        assert code == 0
        assert first_json(out)["failures"] == []

    def test_known_cycle_max_below_3_exits_2(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was solved")

        monkeypatch.setattr(verifier, "forcing_number", refuse)
        code, out, err = run_cli(capsys, "lemmas", "known", "--cycle-max", "2")
        assert code == 2 and out == ""
        assert err == "error: --cycle-max must be at least 3\n"


SRC = os.path.dirname(os.path.dirname(forcing_lab.__file__))


def test_every_export_exists_once():
    # A name left in __all__ after its definition goes would break
    # ``from forcing_lab import *``.
    names = forcing_lab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(forcing_lab, n)] == []


def test_package_has_no_test_only_helpers():
    # The package holds what the commands run; these serve only the tests.
    names = ("verify_stream", "connected_k_dominating_suite", "replay",
             "_dissect_complement", "TraceError", "hypothesis_failure")
    for module in (forcing_lab, forcing_lab.verifier, forcing_lab.engine,
                   forcing_lab.bounds):
        assert [n for n in names if hasattr(module, n)] == [], module


@pytest.mark.parametrize("module", ["multiprocessing", "dataclasses",
                                    "inspect", "argparse", "gettext", "csv"])
def test_cli_import_leaves_module_unloaded(module):
    # Every CLI process pays for its imports before its first graph. No
    # module of the package starts processes, and the result types are
    # named tuples, so neither dataclasses nor the inspect it pulls in
    # loads at all. The options are read from the COMMANDS table, not by
    # argparse (and its gettext), and the summary CSV is joined by hand.
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import forcing_lab.cli; print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_package_starts_no_process_pool():
    # verify runs in one process; more CPUs come from one verify --input
    # per part of the input. No module imports a process pool or forks.
    found = []
    for path in sorted(pathlib.Path(forcing_lab.__file__).parent.rglob(
            "*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [ast.unparse(node.func)]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if name == "os.fork" or name.split(".")[0] in (
                          "multiprocessing", "concurrent")]
    assert found == []


def test_verify_writes_no_carriage_returns(tmp_path):
    # The summary CSV ends its rows in "\n" like the JSON lines around it,
    # on stderr and in the --out file alike.
    base = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {SRC!r}); "
            "from forcing_lab.cli import main; sys.exit(main(sys.argv[1:]))",
            "verify", "--enumerate", "5"]
    run = subprocess.run(base, check=True, capture_output=True)
    _, header, row, _, end = run.stderr.split(b"\n")
    assert header.startswith(b"n,graph_count,") and row.startswith(b"5,21,")
    assert end == b"" and b"\r" not in run.stderr
    subprocess.run(base + ["--out", str(tmp_path / "sweep")], check=True,
                   capture_output=True)
    summary_csv = (tmp_path / "sweep.summary.csv").read_bytes()
    assert summary_csv.count(b"\n") == 2 and b"\r" not in summary_csv


def test_options_do_not_leak_between_calls(capsys):
    # A process may make many main() calls (the benchmark does); no option
    # value may leak from one call into the next.
    calls = [["solve", "--family", "complete_bipartite:3,3", "--constrained"],
             ["solve", "--family", "complete_bipartite:3,3"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in calls:
        alone = subprocess.run(
            [sys.executable, "-m", "forcing_lab.cli", *argv], env=env,
            check=True, capture_output=True, text=True)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out == alone.stdout
        assert first_json(err) == first_json(alone.stderr)
    assert first_json(err)["config"]["constrained"] is False


def test_config_echo_is_reproducible_json(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "cycle:5",
                           "--k", "2", "--node-budget", "1000")
    assert code == 0
    config = first_json(err)["config"]
    assert config["k"] == 2
    assert config["node_budget"] == 1000
    assert config["command"] == "solve"
    assert "version" in config and "backend" in config


def test_config_echo_names_the_backend_that_runs(capsys):
    # The compiled kernels, when built, serve graphs up to 62 vertices and
    # the pure ones everything larger.
    small = "compiled" if _kernels.HAVE_COMPILED else "pure"
    code, out, err = run_cli(capsys, "solve", "--family", "cycle:70")
    assert code == 0 and first_json(out)["value"] == 2
    assert first_json(err)["config"]["backend"] == "pure"
    _, _, err = run_cli(capsys, "solve", "--family", "cycle:5")
    assert first_json(err)["config"]["backend"] == small
    _, _, err = run_cli(capsys, "verify", "--enumerate", "3")
    assert first_json(err)["config"]["backend"] == small
    _, _, err = run_cli(capsys, "lemmas", "trees", "--max-n", "3",
                        "--random-count", "1")
    assert first_json(err)["config"]["backend"] == small


def test_lemmas_echo_the_backend_of_their_largest_graph(capsys):
    # C_63 and C_64 are past the compiled kernels' 62-vertex limit.
    code, _, err = run_cli(capsys, "lemmas", "known", "--delta-max", "2",
                           "--cycle-max", "64")
    assert code == 0
    assert first_json(err)["config"]["backend"] == "pure"


GRAPH_SOURCE = {"graph6", "family", "input"}


@pytest.mark.parametrize("argv, options", [
    (["solve", "--family", "cycle:5"],
     GRAPH_SOURCE | {"k", "node_budget", "constrained"}),
    (["closure", "--family", "cycle:5", "--set", "0,1"],
     GRAPH_SOURCE | {"k", "initial"}),
    (["bounds", "--family", "cycle:5"], GRAPH_SOURCE | {"k", "node_budget"}),
    (["verify", "--enumerate", "3"],
     {"input", "enumerate", "out", "k", "node_budget", "workers"}),
    (["lemmas", "trees", "--max-n", "3", "--random-count", "2"],
     {"suite", "max_n", "random_count", "random_min", "random_max", "seed"}),
    (["lemmas", "known", "--delta-max", "2", "--cycle-max", "3"],
     {"suite", "delta_max", "cycle_max", "node_budget"}),
])
def test_config_echo_holds_exactly_the_subcommand_options(capsys, argv, options):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    config = first_json(err)["config"]
    assert set(config) == {"version", "backend", "command"} | options


@pytest.mark.parametrize("argv, options", [
    (["solve", "--family", "cycle:5"],
     '"command": "solve", "graph6": null, "family": "cycle:5", '
     '"input": null, "k": 1, "node_budget": 100000000, '
     '"constrained": false'),
    (["closure", "--family", "cycle:5", "--set", "0,1"],
     '"command": "closure", "graph6": null, "family": "cycle:5", '
     '"input": null, "k": 1, "initial": "0,1"'),
    (["bounds", "--family", "cycle:5"],
     '"command": "bounds", "graph6": null, "family": "cycle:5", '
     '"input": null, "k": 1, "node_budget": 100000000'),
    (["verify", "--enumerate", "3"],
     '"command": "verify", "input": null, "enumerate": 3, "out": null, '
     '"k": 1, "node_budget": 100000000, "workers": 1'),
    (["lemmas", "trees", "--max-n", "3", "--random-count", "2"],
     '"command": "lemmas", "suite": "trees", "max_n": 3, '
     '"random_count": 2, "random_min": 9, "random_max": 16, "seed": 0'),
    (["lemmas", "known", "--delta-max", "2", "--cycle-max", "3"],
     '"command": "lemmas", "suite": "known", "delta_max": 2, '
     '"cycle_max": 3, "node_budget": 100000000'),
    (["solve", "--family", "cycle:5", "--k=2"],
     '"command": "solve", "graph6": null, "family": "cycle:5", '
     '"input": null, "k": 2, "node_budget": 100000000, '
     '"constrained": false'),
    (["solve", "--family", "cycle:5", "--k", "2", "--k", "3"],
     '"command": "solve", "graph6": null, "family": "cycle:5", '
     '"input": null, "k": 3, "node_budget": 100000000, '
     '"constrained": false'),
], ids=["solve", "closure", "bounds", "verify", "lemmas-trees",
        "lemmas-known", "equals-form", "repeated-option-last-wins"])
def test_config_echo_line_is_pinned(capsys, argv, options):
    # The echo line byte for byte, key order included: the command, the
    # lemmas suite, then every option of the command in table order.
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    backend = "compiled" if _kernels.HAVE_COMPILED else "pure"
    assert err.splitlines()[0] == (
        f'{{"config": {{"version": "{forcing_lab.__version__}", '
        f'"backend": "{backend}", {options}}}}}')


def test_config_echo_records_option_values(capsys):
    _, _, err = run_cli(capsys, "solve", "--family", "complete:1",
                        "--constrained")
    assert first_json(err)["config"]["constrained"] is True
    _, _, err = run_cli(capsys, "lemmas", "trees", "--max-n", "3",
                        "--random-count", "2", "--random-min", "4",
                        "--random-max", "5", "--seed", "11")
    config = first_json(err)["config"]
    assert (config["max_n"], config["random_count"], config["random_min"],
            config["random_max"], config["seed"]) == (3, 2, 4, 5, 11)


@pytest.mark.parametrize("base, flag", [
    (["solve", "--family", "cycle:5"], ["--seed", "1"]),
    (["closure", "--family", "cycle:5", "--set", "0"], ["--node-budget", "9"]),
    (["closure", "--family", "cycle:5", "--set", "0"], ["--seed", "1"]),
    (["bounds", "--family", "cycle:5"], ["--seed", "1"]),
    (["verify", "--enumerate", "3"], ["--seed", "1"]),
    (["lemmas", "trees"], ["--k", "2"]),
    (["lemmas", "trees"], ["--node-budget", "1"]),
    (["lemmas", "known"], ["--k", "2"]),
    (["lemmas", "known"], ["--seed", "1"]),
])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, base, flag):
    handler, _ = parse_args(base)
    assert handler is not None
    code, out, err = run_cli(capsys, *base, *flag)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag[0] in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_option_of_the_command(capsys, command, flag):
    code, out, err = run_cli(capsys, *command.split(), flag)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: forcing-lab {command} ")
    lines = out.splitlines()
    for option in COMMANDS[command][2]:
        line, = [ln for ln in lines if ln.startswith(f"  {option.flag} ")]
        for word, bound in (("at least", option.least),
                            ("at most", option.most)):
            assert bound is None or f"{word} {bound}" in line


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["lemmas", "-h"]])
def test_help_lists_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: forcing-lab COMMAND ")
    for command, (_, summary, _) in COMMANDS.items():
        assert f"  {command}" in out and summary in out


@pytest.mark.parametrize("argv, message", [
    (["sovle", "--family", "cycle:5"],
     "expected a command (solve, closure, bounds, verify, lemmas trees, "
     "lemmas known), got 'sovle'"),
    ([], "expected a command (solve, closure, bounds, verify, lemmas trees, "
         "lemmas known), got ''"),
    (["lemmas"], "expected a command (solve, closure, bounds, verify, "
                 "lemmas trees, lemmas known), got 'lemmas'"),
    (["closure", "--family", "cycle:5"], "closure needs --set"),
    (["solve", "--family", "cycle:5", "--k", "x"],
     "--k needs an integer: 'x'"),
    (["solve", "--family", "cycle:5", "--k"], "--k needs a value"),
    (["solve", "--k", "--family", "cycle:5"], "--k needs a value"),
    (["solve", "--family", "cycle:5", "--constrained=yes"],
     "solve does not take '--constrained=yes'"),
    (["solve", "--fam", "cycle:5"], "solve does not take '--fam'"),
    (["solve", "--family", "cycle:5", "C~"], "solve does not take 'C~'"),
], ids=["unknown-command", "no-command", "lemmas-without-suite",
        "missing-set", "k-not-an-integer", "k-without-value",
        "k-before-option", "flag-with-value", "abbreviation", "positional"])
def test_parse_error_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["forcing-lab", "solve", "--family",
                                      "cycle:5"])
    assert main() == 0
    assert first_json(capsys.readouterr().out)["value"] == 2


@pytest.mark.parametrize("argv, message", [
    (["solve", "--family", "cycle:5", "--k", "0"], "--k must be at least 1"),
    (["bounds", "--family", "cycle:5", "--node-budget", "0"],
     "--node-budget must be at least 1"),
    (["verify", "--enumerate", "3", "--workers", "0"],
     "--workers must be at least 1"),
    (["solve", "--family", "cycle"],
     "family spec must look like name:params, got 'cycle'"),
    (["solve", "--family", "cycle:x"],
     "family parameters must be integers: 'x'"),
    (["closure", "--family", "cycle:5", "--set", "0,x"],
     "--set must be a comma-separated id list, got '0,x'"),
    (["solve", "--input", "negative.edges"],
     "vertex count must be non-negative"),
    (["solve", "--graph6", "?"], "forcing numbers need at least one vertex"),
    (["solve", "--graph6", "?", "--constrained"],
     "forcing numbers need at least one vertex"),
    (["verify", "--enumerate", "0"],
     "built-in enumeration needs at least one vertex, got n=0"),
    (["verify", "--enumerate", str(MAX_ENUMERATION_ORDER + 1)],
     f"built-in enumeration covers 1 <= n <= {MAX_ENUMERATION_ORDER}; "
     "supply a graph6 file for larger orders"),
    (["verify", "--input", "missing.g6"],
     "[Errno 2] No such file or directory: 'missing.g6'"),
    (["verify", "--enumerate", "3", "--out", "missing/P"],
     "[Errno 2] No such file or directory: 'missing/P.records.jsonl'"),
    (["bounds", "--family", "path:2"],
     "graph outside the bound's hypotheses: max degree < 2"),
    (["lemmas", "trees", "--max-n", str(MAX_ENUMERATION_ORDER + 1)],
     f"--max-n must be at most {MAX_ENUMERATION_ORDER}"),
    (["lemmas", "trees", "--random-count", "-1"],
     "--random-count must be at least 0"),
    (["lemmas", "known", "--delta-max", "1"], "--delta-max must be at least 2"),
    (["lemmas", "known", "--cycle-max", "2"], "--cycle-max must be at least 3"),
], ids=["k-0", "node-budget-0", "workers-0", "family-without-params",
        "family-params-not-integers", "set-not-integers",
        "edge-list-negative-order", "solve-empty-graph",
        "solve-constrained-empty-graph", "enumerate-0", "enumerate-above-cap",
        "input-missing", "out-in-missing-dir", "bounds-outside-hypotheses",
        "max-n-above-cap", "random-count-negative", "delta-max-1",
        "cycle-max-2"])
def test_bad_option_value_exits_2_with_its_message(capsys, tmp_path,
                                                   monkeypatch, argv, message):
    # A rejected run prints its one error line, no config echo, and writes
    # no file (paths are relative to tmp_path).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negative.edges").write_text("-1 0\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["negative.edges"]
