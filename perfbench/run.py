#!/usr/bin/env python3
"""forcing-lab benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is built once per source tree with its own setup.py into
.bench_build/lib (outside src/ and outside every timed run), and every
workload pass is a fresh child process that runs forcing_lab.cli.main
from that build, so caches start cold and memory is counted per pass.
FORCING_LAB_BACKEND is removed from the children's environment, and so is
PYTHONUNBUFFERED, so stdout keeps the buffering a user's pipe gets; the run
records the backend the package selects for each input order.

Workloads (README.md says why each was chosen):
  sweep-enum7    verify --enumerate 7 --k 1 --workers 1
  stream-mixed   verify --input FILE --workers 2, at --k 1 then --k 2, on a
                 graph6 file generated from the seed
  solve-scaling  solve on ten fixed structured graphs, in one child process

--trace 0 repeats the workload until S seconds have passed and reports the
end-to-end metrics as medians over the repetitions. The host's own speed
drifts, so the timings are given at a reference host speed: each child
times a fixed pure-Python probe every 0.1 s while it runs, and a pass's
times are scaled by HOST_REF_S over the probe's mean time (README.md,
"Host speed"). --trace 1 alternates an untraced and a traced (one worker)
repetition for at least two cycles and reports the per-layer metrics. Every output is checked against the paper
and the literature through perfbench/reference.py; any failed check makes
`correct` false and the exit code 1. The last stdout line is the JSON
result; a copy with all samples and the run metadata goes to
.bench_build/results/.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
LIB = BUILD / "lib"
CHILD = Path(__file__).with_name("child.py")
STREAM_PER_CELL = 62  # 24 (n, p) cells, 1,488 random graphs
# Fresh imports timed before the first repetition and between repetitions,
# so the setup_s median samples the host over the whole run.
SETUP_FIRST, SETUP_BETWEEN, SETUP_READINGS = 5, 2, 10
# A reading of child.probe on the 2-core Xeon VM the bounds were set on. A
# time measured while the probe readings average t_probe is reported as
# time * HOST_REF_S / t_probe.
HOST_REF_S = 0.0014
# Run in a fresh process: import the package, note when the import ended,
# then take probe readings there; prints that time and their mean.
SETUP_PROBE = """import forcing_lab.cli
import sys, time
done = time.perf_counter()
sys.path.insert(0, {perfbench!r})
from child import probe
spans = [probe() for _ in range({readings})]
print(done, sum(end - start for start, end in spans) / len(spans))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


# -- build and child processes ----------------------------------------------


def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(p for p in (ROOT / "src").rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build():
    """Build the package from this tree unless .bench_build holds a build
    of the same sources."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "forcing_lab").is_dir():
        raise BenchError(f"no forcing_lab sources under {ROOT}")
    digest = source_digest()
    stamp = BUILD / "source.sha256"
    if stamp.is_file() and stamp.read_text() == digest and LIB.is_dir():
        return digest
    shutil.rmtree(BUILD / "build", ignore_errors=True)
    shutil.rmtree(LIB, ignore_errors=True)
    BUILD.mkdir(exist_ok=True)
    cmd = [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(BUILD),
           "build", "--build-base", str(BUILD / "build"), "--build-lib", str(LIB)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0 or not (LIB / "forcing_lab").is_dir():
        raise BenchError("build failed:\n" + done.stdout + done.stderr)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(LIB)],
                   check=True, capture_output=True)
    stamp.write_text(digest)
    return digest


def child_env():
    env = dict(os.environ)
    for name in ("FORCING_LAB_BACKEND", "FORCING_LAB_WORKERS", "PYTHONPATH",
                 "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(LIB)
    return env


def setup_time(workdir):
    """Seconds to start the interpreter and import forcing_lab.cli, and how
    much slower than HOST_REF_S the probe ran right after, in that process."""
    code = SETUP_PROBE.format(perfbench=str(CHILD.parent), readings=SETUP_READINGS)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=child_env(),
                          check=True, capture_output=True, text=True)
    end, reading = map(float, done.stdout.split())
    return end - t0, reading / HOST_REF_S


class Pass:
    """One child process running one or more CLI calls."""

    def __init__(self, calls, workdir, traced):
        report = workdir / "report.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(report), json.dumps(calls)]
        if traced:
            argv.append("--trace")
        err_path = workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                  cwd=workdir, env=child_env()) as proc:
                self.first_s = None
                self.lines = []
                try:
                    for line in proc.stdout:
                        if self.first_s is None:
                            self.first_s = time.perf_counter() - t0
                        self.lines.append(line.decode("ascii").rstrip("\n"))
                except BaseException:
                    proc.kill()
                    raise
            self.wall_s = time.perf_counter() - t0
        self.code = proc.returncode
        self.stderr = err_path.read_text(encoding="ascii", errors="replace")
        if self.first_s is None:
            self.first_s = self.wall_s
        done = json.loads(report.read_text()) if report.is_file() else {}
        self.rss_mb = done.get("peak_rss_kb", 0) / 1024.0
        self.trace = done.get("trace")
        self.scale_to_host(t0, done.get("probes", []))

    def scale_to_host(self, t0, probes):
        """Take the probe's time out of wall_s and first_s, and set `slow`:
        how much slower than HOST_REF_S the probe ran, on average, while
        the pass ran."""
        def probing(until):
            return sum(max(0.0, min(end, until) - start) for start, end in probes)

        self.first_s -= probing(t0 + self.first_s)
        self.wall_s -= probing(t0 + self.wall_s)
        self.slow = 1.0
        if probes:
            self.slow = statistics.fmean(end - start for start, end in probes) / HOST_REF_S


# -- correctness gates -------------------------------------------------------


class Outcome:
    """Checked result of one pass: operations attempted and failed, the
    graphs it verified or solved, a node count that must repeat exactly,
    and the busy time the verifier summary reports."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.graphs = 0
        self.nodes = 0
        self.busy_s = 0.0
        self.records = []
        self.problems = []

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def fail_all(self, message):
        self.failed = self.attempted
        self.problems.append(message)


def record_faults(rec, k):
    """Faults of one verify record, judged from its graph6 alone."""
    if rec["status"] != "ok" or rec["f_k"] is None:
        return ["unresolved"]
    nbrs = ref.decode_graph6(rec["graph6"])
    n = len(nbrs)
    degs = ref.degrees(nbrs)
    dmax, dmin = max(degs), min(degs)
    num, den = (dmax - 2) * n + 2, dmax + k - 2
    f = rec["f_k"]
    faults = []
    if (rec["n"], rec["k"], rec["max_degree"], rec["min_degree"]) != (n, k, dmax, dmin):
        faults.append("n, k or degrees differ from the graph6")
    if f < max(1, dmin - k + 1):
        faults.append("below the lower bound delta - k + 1")
    if f * den > num:
        faults.append("above ((D-2)n+2)/(D+k-2)")
    if rec["equality"] != (f * den == num):
        faults.append("equality flag disagrees with f_k")
    family = ref.equality_family(nbrs)
    if (rec["extremal_class"], rec["extremal_parameter"]) != (family or (None, None)):
        faults.append(f"classified {rec['extremal_class']}, expected {family}")
    if k == 1:
        if rec["equality"] != (family is not None):
            faults.append("k = 1 equality off the cycle/complete/K_dd families")
        structure = (True if dmax >= 3 else None) if family else None
        if rec["structure_ok"] is not structure:
            faults.append(f"structure_ok {rec['structure_ok']}, expected {structure}")
    elif rec["structure_ok"] is not None:
        faults.append("structure check reported at k > 1")
    return faults


def check_verify(p, k, attempted, due, skipped, malformed, lines=None):
    """Gates shared by the verify workloads: `due` records, `skipped` and
    `malformed` inputs, and when `lines` is given, the graph6 lines the
    records must carry, in input order."""
    out = Outcome(attempted)
    if p.code != 0:
        out.fail_all(f"verify --k {k} exited with {p.code}: {p.stderr[-500:]}")
        return out
    try:
        records = [json.loads(line) for line in p.lines]
        err = p.stderr.splitlines()
        summary = json.loads(err[-1])["summary"]
        rows = list(csv.DictReader(err[1:-1]))
        out.busy_s = sum(float(row["wall_time_ms"]) for row in rows) / 1000.0
    except (ValueError, KeyError, IndexError) as exc:
        out.fail_all(f"unreadable verify output: {exc!r}")
        return out
    got = {"records": len(records), "skipped": summary["skipped"],
           "parse_failures": summary["parse_failures"]}
    need = {"records": due, "skipped": skipped, "parse_failures": malformed}
    if got != need:
        out.fail_all(f"k={k}: got {got}, expected {need}")
        return out
    if lines is not None and [r["graph6"] for r in records] != lines:
        out.fail_all(f"k={k}: records out of input order or altered")
        return out
    for rec in records:
        faults = record_faults(rec, k)
        if faults:
            out.fail(f"{rec['graph6']} k={k}: {'; '.join(faults)}")
    out.graphs = len(records)
    out.nodes = sum(r["solver_nodes"] for r in records)
    out.records = records
    return out


# -- workloads ---------------------------------------------------------------


class SweepEnum7:
    """Exhaustive k = 1 sweep over all connected graphs on 7 vertices."""

    name = "sweep-enum7"
    workers = 1
    orders = [7]

    def __init__(self, seed, workdir):
        pass  # the input is the complete enumeration; the seed changes nothing

    def passes(self, workers):
        return [[["verify", "--enumerate", "7", "--k", "1",
                  "--workers", str(workers)]]]

    def check(self, index, p):
        # 853 connected graphs on 7 vertices (OEIS A001349). n is odd, so the
        # bound is attained exactly on C7 and K7.
        out = check_verify(p, 1, 853, 853, 0, 0)
        if out.failed == out.attempted:
            return out
        graphs = [ref.decode_graph6(r["graph6"]) for r in out.records]
        if len({r["graph6"] for r in out.records}) != 853 or any(
                len(g) != 7 or not ref.connected(g, 127) for g in graphs):
            out.fail_all("records are not 853 distinct connected 7-vertex graphs")
            return out
        tight = sorted((min(ref.degrees(g)), max(ref.degrees(g)))
                       for g, r in zip(graphs, out.records) if r["equality"])
        if tight != [(2, 2), (6, 6)]:
            out.fail_all(f"equality on degree sets {tight}, expected C7 and K7")
        return out


class StreamMixed:
    """Seeded graph6 stream verified at k = 1 and k = 2."""

    name = "stream-mixed"
    workers = min(2, os.cpu_count() or 1)

    def __init__(self, seed, workdir):
        lines, kinds = ref.stream_lines(seed, STREAM_PER_CELL)
        self.path = workdir / "stream.g6"
        self.path.write_text("\n".join(lines) + "\n", encoding="ascii")
        graphs = [(line, kind) for line, kind in zip(lines, kinds)
                  if kind in ("random", "family")]
        self.attempted = len(lines)
        self.malformed = kinds.count("malformed")
        self.records = {
            1: [line for line, _ in graphs],
            2: [line for line, _ in graphs if ref.biconnected(ref.decode_graph6(line))],
        }
        self.orders = sorted({len(ref.decode_graph6(line)) for line, _ in graphs})

    def passes(self, workers):
        return [[["verify", "--input", str(self.path), "--k", str(k),
                  "--workers", str(workers)]] for k in (1, 2)]

    def check(self, index, p):
        k = index + 1
        lines = self.records[k]
        skipped = self.attempted - self.malformed - len(lines)
        return check_verify(p, k, self.attempted, len(lines), skipped,
                            self.malformed, lines)


class SolveScaling:
    """Deep single solves on structured graphs."""

    name = "solve-scaling"
    workers = 1
    # (label, graph, k, constrained, closed form or None). Z(P_m x P_n) =
    # min(m, n) and Z(Q_d) = 2^(d-1) (AIM Minimum Rank-Special Graphs Work
    # Group, LAA 2008); Z(Petersen) = 5. Every minimum forcing set of K_{a,b}
    # is the complement of one edge, so its connected-complement value is
    # a + b - 2. Values without a closed form are proved minimum by
    # reference.smaller_set_forces.
    CASES = [
        ("P5xP5", ref.grid(5, 5), 1, False, 5),
        ("P5xP8", ref.grid(5, 8), 1, False, 5),
        ("P6xP6", ref.grid(6, 6), 1, False, 6),
        ("P6xP7", ref.grid(6, 7), 1, False, 6),
        ("Q4", ref.hypercube(4), 1, False, 8),
        ("Petersen", ref.petersen(), 1, False, 5),
        ("Q4", ref.hypercube(4), 2, False, None),
        ("Petersen", ref.petersen(), 2, False, None),
        ("K5,5", ref.complete_bipartite(5, 5), 1, True, 8),
        ("Petersen", ref.petersen(), 1, True, None),
    ]

    def __init__(self, seed, workdir):
        self.orders = sorted({len(g) for _, g, _, _, _ in self.CASES})
        self.proved = {}

    def passes(self, workers):
        calls = []
        for _, g, k, constrained, _ in self.CASES:
            calls.append(["solve", "--graph6", ref.encode_graph6(g), "--k", str(k)]
                         + (["--constrained"] if constrained else []))
        return [calls]

    def check(self, index, p):
        out = Outcome(len(self.CASES))
        if p.code != 0 or len(p.lines) != len(self.CASES):
            out.fail_all(f"solve exited with {p.code}, {len(p.lines)} results: "
                         f"{p.stderr[-500:]}")
            return out
        for i, ((label, g, k, constrained, want), line) in enumerate(
                zip(self.CASES, p.lines)):
            res = json.loads(line)
            value, witness = res["value"], res["witness"]
            full = (1 << len(g)) - 1
            comp = full & ~sum(1 << v for v in witness)
            faults = []
            if (res["k"], res["constrained"]) != (k, constrained):
                faults.append("k or constrained flag differs")
            if len(set(witness)) != value or not ref.forces(g, k, witness):
                faults.append("witness does not force the graph")
            if constrained and (res["complement_empty"] or not comp
                                or not ref.connected(g, comp)):
                faults.append("witness complement is empty or disconnected")
            if want is not None and value != want:
                faults.append(f"value {value}, closed form {want}")
            if want is None:
                key = (i, value)
                if key not in self.proved:
                    self.proved[key] = not ref.smaller_set_forces(
                        g, k, value - 1, constrained)
                if not self.proved[key]:
                    faults.append(f"a set of size {value - 1} also forces")
            if faults:
                out.fail(f"{label} k={k} constrained={constrained}: "
                         + "; ".join(faults))
            out.nodes += res["nodes"]
        out.graphs = len(self.CASES)
        return out


WORKLOADS = {w.name: w for w in (SweepEnum7, StreamMixed, SolveScaling)}


# -- measurement -------------------------------------------------------------


class Repetition:
    """All passes of one workload repetition, checked."""

    def __init__(self, work, workdir, workers, traced):
        self.passes = []
        self.outcomes = []
        for index, calls in enumerate(work.passes(workers)):
            p = Pass(calls, workdir, traced)
            self.passes.append(p)
            self.outcomes.append(work.check(index, p))
        self.wall_s = sum(p.wall_s for p in self.passes)
        self.attempted = sum(o.attempted for o in self.outcomes)
        self.failed = sum(o.failed for o in self.outcomes)
        self.graphs = sum(o.graphs for o in self.outcomes)
        self.nodes = sum(o.nodes for o in self.outcomes)
        self.busy_s = sum(o.busy_s for o in self.outcomes)
        self.problems = [m for o in self.outcomes for m in o.problems]

    def end_to_end(self):
        """Metrics at the reference host speed, then as measured."""
        first = self.passes[0]
        return {
            "graphs_per_s": self.graphs / sum(p.wall_s / p.slow for p in self.passes),
            "first_record_s": first.first_s / first.slow,
            "peak_rss_mb": max(p.rss_mb for p in self.passes),
            "measured.graphs_per_s": self.graphs / self.wall_s,
            "measured.first_record_s": first.first_s,
            "host.slow": first.slow,
        }


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition: counts, and self times
    in seconds, summed over its passes."""
    spans, counts, solve_ms = {}, {}, []
    canon_calls, canon_classes, orders = {}, {}, []
    for p in rep.passes:
        t = p.trace
        for name, s in t["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += s["calls"]
            agg["self_s"] += s["self_s"]
        for name, c in t["counts"].items():
            counts[name] = counts.get(name, 0) + c
        for n, c in t["canonical_calls"].items():
            canon_calls[n] = canon_calls.get(n, 0) + c
        canon_classes.update(t["canonical_classes"])
        solve_ms += t["solve_ms"]
        orders += t["enum_orders"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    top = str(max(orders)) if orders else None
    candidates = canon_calls.get(top, 0)
    classes = canon_classes.get(top, 0)
    solves = len(solve_ms)
    # p99 needs at least ten samples beyond it; below 1000 solves it reads 0.
    p99 = statistics.quantiles(solve_ms, n=100)[98] if solves >= 1000 else 0.0
    m = {
        "kernels.canonical_calls": calls("kernels.canonical"),
        "kernels.canonical_s": self_s("kernels.canonical"),
        "kernels.closure_calls": calls("kernels.closure"),
        "kernels.closure_s": self_s("kernels.closure"),
        "kernels.pruned_calls": calls("kernels.pruned"),
        "kernels.pruned_nodes": counts.get("pruned_nodes", 0),
        "kernels.pruned_s": self_s("kernels.pruned"),
        "kernels.constrained_nodes": counts.get("constrained_nodes", 0),
        "kernels.constrained_s": self_s("kernels.constrained"),
        "kernels.connected_in_calls": calls("kernels.connected_in"),
        "kernels.connected_in_s": self_s("kernels.connected_in"),
        "enumeration.s": self_s("enumeration"),
        "enumeration.classes": classes,
        "enumeration.candidates": candidates,
        "enumeration.yield": classes / candidates if candidates else 0.0,
        "solver.solve_calls": solves,
        "solver.solve_s": self_s("solver.solve"),
        "solver.solve_p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
        "solver.solve_p99_ms": p99,
        "solver.greedy_s": self_s("solver.greedy"),
        "solver.greedy_nodes": counts.get("greedy_nodes", 0),
        "solver.greedy_optimal": counts.get("greedy_optimal", 0) / solves if solves else 0.0,
        "solver.levels": calls("kernels.pruned"),
        "solver.levels_below_lb": counts.get("levels_below_lb", 0),
        "solver.nodes": counts.get("solver_nodes", 0),
        "graph6.parse_calls": calls("graph6.parse"),
        "graph6.parse_s": self_s("graph6.parse"),
        "graph6.encode_calls": calls("graph6.encode"),
        "graph6.encode_s": self_s("graph6.encode"),
        "graphs.k_connected_calls": calls("graphs.k_connected"),
        "graphs.k_connected_s": self_s("graphs.k_connected"),
        "bounds.classify_s": self_s("bounds.classify"),
        "bounds.bound_s": self_s("bounds.bound"),
        "verifier.structure_calls": calls("verifier.structure"),
        "verifier.structure_s": self_s("verifier.structure"),
        "verifier.write_s": self_s("verifier.write"),
    }
    return m


UNITS = {"setup_s": "s", "graphs_per_s": "1/s", "first_record_s": "s",
         "peak_rss_mb": "MB", "fail_ratio": "ratio", "host.slow": "ratio",
         "enumeration.yield": "ratio", "solver.greedy_optimal": "ratio"}
# The end-to-end metrics the result line carries; the rest are printed and
# kept in the results file only.
END_TO_END = ("graphs_per_s", "first_record_s", "peak_rss_mb", "setup_s")


def unit(name):
    name = name.removeprefix("measured.")
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure_end_to_end(work, workdir, seconds):
    """Repetitions for `seconds`, each after a batch of fresh imports."""
    setup, measured_setup, reps = [], [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        for _ in range(SETUP_BETWEEN if reps else SETUP_FIRST):
            t, slow = setup_time(workdir)
            setup.append(t / slow)
            measured_setup.append(t)
        reps.append(Repetition(work, workdir, work.workers, traced=False))
        if reps[-1].failed:
            break
    samples = {"setup_s": setup, "measured.setup_s": measured_setup}
    for name in reps[0].end_to_end():
        samples[name] = [r.end_to_end()[name] for r in reps]
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    return reps, metrics, samples


def measure_layers(work, workdir, seconds):
    """Cycles of an untraced repetition as in the end-to-end run, an
    untraced one-worker repetition when the workload uses more workers, and
    a traced one-worker repetition."""
    cycles = []
    start = time.perf_counter()
    while len(cycles) < 2 or time.perf_counter() - start < seconds:
        plain = Repetition(work, workdir, work.workers, traced=False)
        single = plain if work.workers == 1 else Repetition(work, workdir, 1, traced=False)
        traced = Repetition(work, workdir, 1, traced=True)
        cycles.append((plain, single, traced))
        if plain.failed or single.failed or traced.failed:
            break
    # With one worker, plain and single are the same repetition.
    reps = [r for cycle in cycles for r in dict.fromkeys(cycle)]
    per_cycle = []
    for plain, single, traced in cycles:
        m = layer_metrics(traced) if not traced.failed else {}
        m["verifier.busy_s"] = plain.busy_s
        m["verifier.pool_overhead_s"] = (
            plain.wall_s - plain.busy_s / work.workers if work.workers > 1 else 0.0)
        m["trace.overhead_s"] = traced.wall_s - single.wall_s
        per_cycle.append(m)
    samples = {name: [m[name] for m in per_cycle if name in m] for name in per_cycle[0]}
    metrics, problems = {}, []
    for name, values in samples.items():
        if unit(name) == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return reps, metrics, samples, problems


def metadata(work, seed, digest):
    probe = ("import json, sys, forcing_lab as f; print(json.dumps({"
             "'version': f.__version__, 'have_compiled': f.HAVE_COMPILED, "
             "'backend_by_n': {n: f.active_backend(int(n)) for n in sys.argv[1:]}}))")
    pkg = json.loads(subprocess.run(
        [sys.executable, "-c", probe, *map(str, work.orders)], env=child_env(),
        cwd=BUILD, check=True, capture_output=True, text=True).stdout)
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: ") and (ROOT / ".git" / sha[5:]).is_file():
            sha = (ROOT / ".git" / sha[5:]).read_text().strip()
    return {"workload": work.name, "seed": seed, "workers": work.workers,
            "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": sha,
            "source_sha256": digest, **pkg}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an error, so the running child is killed and
    # waited for and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        digest = build()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = WORKLOADS[args.workload](args.seed, workdir)
        meta = metadata(work, args.seed, digest)
        if args.trace:
            reps, metrics, samples, problems = measure_layers(work, workdir, args.seconds)
        else:
            reps, metrics, samples = measure_end_to_end(work, workdir, args.seconds)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    node_counts = sorted({r.nodes for r in reps if not r.failed})
    if len(node_counts) > 1:
        problems.append(f"solver node counts differ between repetitions: {node_counts}")
    problems += [m for r in reps for m in r.problems]
    correct = failed == 0 and not problems
    if not args.trace:
        metrics["fail_ratio"] = failed / attempted

    for key in ("workload", "seed", "cpu_model", "nproc", "python", "version",
                "git_sha", "backend_by_n"):
        print(f"# {key}: {meta[key]}")
    print(f"# repetitions: {len(reps)}, solver nodes per repetition: {node_counts}")
    for message in problems[:20]:
        print(f"# FAILED: {message}")
    for name, value in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit(name)}")

    reported = {name: {"value": value, "unit": unit(name)}
                for name, value in metrics.items()
                if args.trace or name in END_TO_END}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    detail = dict(result, metadata=meta, samples=samples, problems=problems,
                  quartiles={name: quartiles(v) for name, v in samples.items() if v},
                  fail_ratio=failed / attempted, seconds=args.seconds,
                  solver_nodes=node_counts)
    (results / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
