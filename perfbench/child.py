"""Run forcing_lab.cli.main once per argument list, all in this process.

Usage: python3 child.py REPORT.json CALLS_JSON [--trace]

CALLS_JSON is a JSON list of CLI argument lists. The exit code is the
first non-zero code a call returned, else 0. When the calls end,
REPORT.json receives this process's peak resident memory, the spans of
the host speed probe (below) and, with --trace, per-span call counts,
self times and layer counters. Tracing wraps the package's public
functions at every module attribute that holds them, which is where
callers look them up; it assumes one process, so run the traced workload
with one worker.

The host speed probe is a fixed pure-Python loop timed in this process
before the first call, after the last one and, without --trace, every
PROBE_PERIOD_S seconds in between from a SIGALRM handler, so its readings
share the calls' cores and moments. Its spans are reported in
perf_counter time, which is CLOCK_MONOTONIC and so shared with the parent.
"""

import json
import resource
import signal
import sys
from collections import defaultdict
from time import perf_counter

import reference as ref

# One probe reading: PROBE_CLOSURES reference closures on P6 x P7, the kind
# of bitmask loop the solver runs, written outside the package so no change
# to it moves the probe; about 1.5 ms, 1.5% of the time at PROBE_PERIOD_S.
# It imports nothing the package does not load itself, so peak_rss_mb
# stays the program's own.
PROBE_GRID = ref.grid(6, 7)
PROBE_CLOSURES, PROBE_PERIOD_S = 100, 0.1


def probe():
    """Run one probe reading; return its (start, end)."""
    start = perf_counter()
    for i in range(PROBE_CLOSURES):
        ref.closure(PROBE_GRID, 1, 63 << (i % 37))
    return start, perf_counter()


class Tracer:
    """Aggregated spans. A span's self time is its duration minus the time
    of the spans it called."""

    def __init__(self):
        self.stack = [0.0]
        self.spans = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        self.counts = defaultdict(int)
        self.solve_ms = []
        self.canonical_calls = defaultdict(int)
        self.canonical_certs = defaultdict(set)
        self.enum_orders = []
        self.last_greedy = None

    def _enter(self):
        self.stack.append(0.0)
        return perf_counter()

    def _leave(self, name, t0):
        dt = perf_counter() - t0
        inner = self.stack.pop()
        self.stack[-1] += dt
        span = self.spans[name]
        span["calls"] += 1
        span["self_s"] += dt - inner
        return dt

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._leave(name, t0)
            if after is not None:
                after(args, out, dt)
            return out
        return traced

    def wrap_generator(self, name, fn, before=None):
        """Each resumption of the generator is one span."""
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            it = fn(*args, **kwargs)
            while True:
                t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, t0)
                yield item
        return traced

    # Layer counters, recorded outside the span they describe.

    def _canonical(self, args, out, dt):
        self.canonical_calls[len(args[0])] += 1
        self.canonical_certs[len(args[0])].add(out)

    def _level(self, kind):
        def after(args, out, dt):
            nbrs, k, size = args[0], args[1], args[2]
            self.counts[kind + "_nodes"] += out[1]
            if kind == "pruned":
                lower = max(1, min(m.bit_count() for m in nbrs) - k + 1)
                self.counts["levels_below_lb"] += size < lower
        return after

    def _greedy(self, args, out, dt):
        self.counts["greedy_nodes"] += out.nodes_explored
        self.last_greedy = out.value

    def _solve(self, args, out, dt):
        self.solve_ms.append(dt * 1000.0)
        self.counts["solver_nodes"] += out.nodes_explored
        self.counts["greedy_optimal"] += out.value == self.last_greedy

    def install(self):
        import forcing_lab
        from forcing_lab import (_kernels, bounds, enumeration, graph6,
                                 graphs, solver, verifier)

        wrappers = {
            _kernels.canonical_mask: self.wrap(
                "kernels.canonical", _kernels.canonical_mask, self._canonical),
            _kernels.closure: self.wrap("kernels.closure", _kernels.closure),
            _kernels.search_level_pruned: self.wrap(
                "kernels.pruned", _kernels.search_level_pruned,
                self._level("pruned")),
            _kernels.search_level_constrained: self.wrap(
                "kernels.constrained", _kernels.search_level_constrained,
                self._level("constrained")),
            _kernels.connected_in: self.wrap(
                "kernels.connected_in", _kernels.connected_in),
            enumeration.enumerate_connected: self.wrap_generator(
                "enumeration", enumeration.enumerate_connected,
                lambda args: self.enum_orders.append(args[0])),
            solver.solve: self.wrap("solver.solve", solver.solve, self._solve),
            solver.greedy_upper_bound: self.wrap(
                "solver.greedy", solver.greedy_upper_bound, self._greedy),
            graph6.parse_graph6: self.wrap("graph6.parse", graph6.parse_graph6),
            graph6.encode_graph6: self.wrap("graph6.encode",
                                            graph6.encode_graph6),
            graphs.is_k_connected: self.wrap("graphs.k_connected",
                                             graphs.is_k_connected),
            bounds.classify_extremal: self.wrap("bounds.classify",
                                                bounds.classify_extremal),
            bounds.forcing_upper_bound: self.wrap("bounds.bound",
                                                  bounds.forcing_upper_bound),
            verifier.check_extremal_structure: self.wrap(
                "verifier.structure", verifier.check_extremal_structure),
        }
        by_id = {id(fn): traced for fn, traced in wrappers.items()}
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith(forcing_lab.__name__):
                for attr, value in list(vars(module).items()):
                    if id(value) in by_id:
                        setattr(module, attr, by_id[id(value)])
        run = verifier.VerifyRun
        run.write_jsonl = self.wrap("verifier.write", run.write_jsonl)
        run.write_summary_csv = self.wrap("verifier.write",
                                          run.write_summary_csv)

    def report(self):
        return {
            "spans": self.spans,
            "counts": self.counts,
            "solve_ms": self.solve_ms,
            "canonical_calls": self.canonical_calls,
            "canonical_classes": {n: len(certs) for n, certs
                                  in self.canonical_certs.items()},
            "enum_orders": self.enum_orders,
        }


def peak_rss_kb():
    """High-water resident memory of this program. VmHWM belongs to the
    address space exec created; ru_maxrss would also keep the peak of the
    parent's pages copied by fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    report_path, calls = argv[0], json.loads(argv[1])
    from forcing_lab.cli import main as cli_main

    tracer = Tracer() if "--trace" in argv[2:] else None
    if tracer is not None:
        tracer.install()
    probes = [probe()]
    if tracer is None:
        signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(probe()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    code = 0
    for args in calls:
        rc = cli_main(args)
        code = code or rc
    signal.setitimer(signal.ITIMER_REAL, 0)
    probes.append(probe())
    sys.stdout.flush()
    with open(report_path, "w", encoding="ascii") as fh:
        json.dump({"peak_rss_kb": peak_rss_kb(), "probes": probes,
                   "trace": tracer.report() if tracer else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
