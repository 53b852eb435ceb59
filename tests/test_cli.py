"""Command-line surface: output shapes, exit codes, file handling."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import forcing_lab
from forcing_lab import (_kernels, classify_extremal, encode_graph6,
                         enumerate_connected, parse_graph6, path, verifier,
                         verify_stream)
from forcing_lab.cli import build_parser, main


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
        p.write_text("Bw\n")
        code, out, _ = run_cli(capsys, "solve", "--input", str(p))
        assert code == 0
        assert first_json(out)["value"] == 2

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

    def test_max_degree_below_two_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "path:2")
        assert code == 2
        assert "graph outside the bound's hypotheses: max degree < 2" in err

    def test_hypotheses_are_checked_before_any_solve(self, capsys):
        # A budget of one node aborts any solve, so exit 2 here shows that
        # the input is rejected first. EwCW is two disjoint triangles; P_3
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
        # exits 2, for the same reason, and at k = 1 classify_extremal
        # raises exactly then.
        cases = [(("--graph6", encode_graph6(g)), g) for n in range(1, 6)
                 for g in enumerate_connected(n)]
        cases += [(("--graph6", "EwCW"), parse_graph6("EwCW")),
                  (("--family", "path:2"), path(2)),
                  (("--graph6", "?"), parse_graph6("?"))]
        skipped = {e["line"]: e["reason"] for e in
                   verify_stream([g for _, g in cases], k).summary["skipped"]}
        assert skipped
        for line, (source, g) in enumerate(cases, 1):
            reason = skipped.get(line)
            code, out, err = run_cli(capsys, "bounds", *source, "--k", str(k))
            if reason is None:
                assert code == 0 and first_json(out)["k"] == k
            else:
                assert code == 2 and out == ""
                assert err.endswith(f"hypotheses: {reason}\n")
            if k == 1:
                try:
                    classify_extremal(g)
                except ValueError as exc:
                    assert reason and str(exc).endswith(reason)
                else:
                    assert reason is None


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
        assert summary["skipped"] == [{"line": 3, "graph6": "A?",
                                       "reason": "disconnected"}]

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

    def test_enumerate_never_parses_graph6(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated graphs must not be parsed")

        monkeypatch.setattr(verifier, "parse_graph6", refuse)
        code, out, _ = run_cli(capsys, "verify", "--enumerate", "6")
        assert code == 0
        assert len(out.strip().splitlines()) == 112

    def test_enumerate_7_values_and_witnesses_are_pinned(self, capsys):
        # Every record field except the solver's node count, which a
        # different search order may legitimately change.
        code, out, _ = run_cli(capsys, "verify", "--enumerate", "7")
        assert code == 0
        text = ""
        for line in out.splitlines():
            record = json.loads(line)
            del record["solver_nodes"]
            text += json.dumps(record) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4838dec9610ef03a5a9692d8fd4b90f26c52f9b52ce3ad073cc3b8be89455977")

    def test_workers_flag_gives_same_records(self, capsys, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_cli(capsys, "verify", "--enumerate", "5", "--out", a)
        run_cli(capsys, "verify", "--enumerate", "5", "--workers", "3",
                "--out", b)
        assert ((tmp_path / "a.records.jsonl").read_text()
                == (tmp_path / "b.records.jsonl").read_text())


class TestLemmas:
    def test_trees_suite(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "trees", "--max-n", "5",
                               "--random-count", "20", "--seed", "7")
        assert code == 0
        data = first_json(out)
        assert data["failures"] == []
        assert data["trees_checked"] == 1 + 3 + 16 + 125 + 20
        assert data["seed"] == 7

    def test_known_suite(self, capsys):
        code, out, _ = run_cli(capsys, "lemmas", "known", "--delta-max", "4")
        assert code == 0
        assert first_json(out)["failures"] == []


SRC = os.path.dirname(os.path.dirname(forcing_lab.__file__))


def test_every_export_exists_once():
    # A name left in __all__ after its definition goes would break
    # ``from forcing_lab import *``.
    names = forcing_lab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(forcing_lab, n)] == []


@pytest.mark.parametrize("module", ["multiprocessing", "dataclasses",
                                    "inspect"])
def test_cli_import_leaves_module_unloaded(module):
    # Every CLI process pays for its imports before its first graph. The
    # pool's module loads only when a run starts a pool; the result
    # types are named tuples, so neither dataclasses nor the inspect it
    # pulls in loads at all.
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            f"import forcing_lab.cli; print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_short_pooled_verify_never_imports_multiprocessing():
    # --workers 2 on two CPUs, but the n = 6 sweep spends 2-6 ms verifying
    # compiled and 5-30 ms on the pure kernels, far below POOL_AFTER_S.
    code = (f"import os, sys; sys.path.insert(0, {SRC!r}); "
            "os.cpu_count = lambda: 2; from forcing_lab.cli import main; "
            "code = main(['verify', '--enumerate', '6', '--workers', '2']); "
            "print(code, 'multiprocessing' in sys.modules, file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True)
    assert len(run.stdout.splitlines()) == 112
    assert run.stderr.splitlines()[-1] == "0 False"


def test_parser_is_built_once_and_reused(capsys):
    # A process that makes many main() calls builds the parser once; no
    # option value may leak from one call into the next.
    assert build_parser() is build_parser()
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
    build_parser().parse_args(base)
    with pytest.raises(SystemExit) as exc:
        main(base + flag)
    assert exc.value.code == 2
