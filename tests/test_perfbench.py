"""Smoke test of the benchmark's tracer, which wraps package functions by
name: renaming or deleting one of them must fail here, not only in a
traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_sees_both_level_kernels(tmp_path):
    report = tmp_path / "report.json"
    calls = [["solve", "--family", "complete_bipartite:3,3", "--constrained"],
             ["solve", "--family", "cycle:5"],
             ["verify", "--enumerate", "5"]]
    # No bytecode cache is written into perfbench/.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(report),
         json.dumps(calls), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(report.read_text(encoding="ascii"))["trace"]["spans"]
    assert {"kernels.constrained", "kernels.pruned"} <= set(spans)
    # The tracer also patches VerifyRun.write_jsonl on the class and wraps
    # solver.solve where the CLI looks it up; the verifier calls
    # forcing_number, which runs no level kernel.
    assert {"verifier.write", "solver.solve"} <= set(spans)
