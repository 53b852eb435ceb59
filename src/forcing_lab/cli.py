"""Command-line surface.

Subcommands: solve, closure, bounds, verify, lemmas trees, lemmas known.
Graphs arrive inline (--graph6, --family name:params) or from files
(--input: one graph6 record, or the "n m" edge-list format). Each subcommand
takes only the options its handler reads. Every run echoes to stderr, as
one JSON line, the package version, the kernel backend that serves its
largest graph, and every option of the subcommand, defaults included, so
the echo alone reproduces the run. The argument parser is built on the
first ``main`` call and reused by every later call in the same process.

``verify`` reads graph6 lines only: ``--enumerate N`` is ``--input`` of
the lines ``enumerate_connected(N)`` yields, record for record. It runs
in one process. Its ``--workers`` is checked (at least 1) and echoed, but
ignored; more CPUs come from one ``verify --input`` per part of the
input, with the records concatenated in part order.

Exit codes: 0 success, 1 counterexample or property failure, 2 input
error (for ``bounds``, also a graph outside the bound's hypotheses),
3 resource-budget abort, 141 (128 + SIGPIPE) stdout closed by its reader
before the output was complete.
"""

import argparse
import json
import os
import sys
from contextlib import ExitStack, closing
from functools import cache
from itertools import accumulate

from . import __version__, _kernels
from .bounds import (classify_extremal, degree_refined_bound,
                     failure_reason, forcing_upper_bound)
from .engine import trace
from .enumeration import MAX_ENUMERATION_ORDER, enumerate_connected, random_trees
from .graph6 import MAX_VERTICES, Graph6Error, parse_graph6
from .graphs import VertexSet, generate, is_tree, parse_edge_list
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceeded, forcing_number,
                     solve, solve_connected_complement)
from .verifier import VerifyRun, run_known_values, run_tree_leaf_suite

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


def _parse_family_spec(spec):
    if ":" not in spec:
        raise ValueError(f"family spec must look like name:params, got {spec!r}")
    name, _, params = spec.partition(":")
    try:
        values = [int(p) for p in params.split(",") if p != ""]
    except ValueError:
        raise ValueError(f"family parameters must be integers: {params!r}") from None
    return generate(name, values)


def _parse_id_csv(text):
    if text.strip() == "":
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"--set must be a comma-separated id list, got {text!r}") from None


def _load_graph(args):
    sources = [s for s in (args.graph6, args.family, args.input) if s]
    if len(sources) != 1:
        raise ValueError("give exactly one of --graph6, --family, --input")
    if args.graph6:
        return parse_graph6(args.graph6)
    if args.family:
        return _parse_family_spec(args.family)
    with open(args.input, encoding="ascii", newline="") as fh:
        text = fh.read()
    # Byte offset and text of each non-blank line ("\r\n" counts two).
    lines = text.splitlines(keepends=True)
    records = [(at, ln.splitlines()[0]) for at, ln in
               zip(accumulate(map(len, lines), initial=0), lines) if ln.strip()]
    at, first = records[0] if records else (0, "")
    head = first.split()
    if len(head) == 2 and all(p.lstrip("-").isdigit() for p in head):
        return parse_edge_list(text)
    if len(records) > 1:
        raise Graph6Error("a graph6 --input file holds one graph, found a "
                          "second record", records[1][0])
    try:
        return parse_graph6(first)
    except Graph6Error as exc:
        raise Graph6Error(exc.msg, at + exc.offset) from None


def _echo_config(args, n):
    """Echo the run's configuration to stderr; ``backend`` names the kernel
    backend that serves graphs of order ``n``."""
    config = {"version": __version__,
              "backend": _kernels.active_backend(n), **vars(args)}
    print(json.dumps({"config": config}), file=sys.stderr)
    return config


def _add_graph_source(p):
    p.add_argument("--graph6", help="inline graph6 record")
    p.add_argument("--family", help="inline family spec, e.g. cycle:5 or "
                   "complete_bipartite:3,3")
    p.add_argument("--input", help="path to a graph6 or edge-list file")


def _add_k(p):
    p.add_argument("--k", type=int, default=1, help="forcing parameter (default 1)")


def _add_node_budget(p):
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   dest="node_budget", help="search node budget; one "
                   "budget bounds all the solving done for one graph")


@cache
def build_parser():
    """The argument parser, built once per process and shared by every
    caller, so no caller may modify it."""
    parser = argparse.ArgumentParser(
        prog="forcing-lab",
        description="Exact k-forcing numbers, sharp degree bounds, and "
                    "exhaustive verification of their equality families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact minimum k-forcing set")
    _add_graph_source(p_solve)
    _add_k(p_solve)
    _add_node_budget(p_solve)
    p_solve.add_argument("--constrained", action="store_true",
                         help="restrict to sets with connected complement")

    p_closure = sub.add_parser("closure", help="trace the coloring process "
                                               "from an initial set")
    _add_graph_source(p_closure)
    _add_k(p_closure)
    p_closure.add_argument("--set", required=True, dest="initial",
                           help="comma-separated initial vertex ids")

    p_bounds = sub.add_parser("bounds", help="degree bounds and equality "
                              "verdict; exits 2 outside the bound's hypotheses")
    _add_graph_source(p_bounds)
    _add_k(p_bounds)
    _add_node_budget(p_bounds)

    p_verify = sub.add_parser("verify", help="sweep a graph6 stream against "
                                             "the bound and its equality families")
    p_verify.add_argument("--input", help="graph6 file (one graph per line); "
                          "'-' for stdin")
    p_verify.add_argument("--enumerate", type=int, dest="enumerate",
                          help="use the built-in connected enumeration at this order")
    p_verify.add_argument("--out", help="output path prefix (writes "
                          "PREFIX.records.jsonl, PREFIX.summary.csv, "
                          "PREFIX.summary.json)")
    _add_k(p_verify)
    _add_node_budget(p_verify)
    p_verify.add_argument("--workers", type=int, default=1,
                          help="ignored: verify runs in one process; for "
                               "more CPUs run one verify --input per part "
                               "of the input (default 1)")

    p_lemmas = sub.add_parser("lemmas", help="property suites")
    lemmas_sub = p_lemmas.add_subparsers(dest="suite", required=True)
    p_trees = lemmas_sub.add_parser("trees", help="leaf-subset forcing on trees")
    p_trees.add_argument("--max-n", type=int, default=8, dest="max_n",
                         help="exhaustive tree orders 2..max_n, one tree per "
                              f"class (max_n <= {MAX_ENUMERATION_ORDER})")
    p_trees.add_argument("--random-count", type=int, default=500,
                         dest="random_count", help="extra random trees")
    p_trees.add_argument("--random-min", type=int, default=9, dest="random_min")
    p_trees.add_argument("--random-max", type=int, default=16, dest="random_max")
    p_trees.add_argument("--seed", type=int, default=0,
                         help="seed of the random trees")
    p_known = lemmas_sub.add_parser("known", help="closed-form family values")
    p_known.add_argument("--delta-max", type=int, default=4, dest="delta_max")
    p_known.add_argument("--cycle-max", type=int, default=12, dest="cycle_max")
    _add_node_budget(p_known)

    return parser


def _cmd_solve(args):
    g = _load_graph(args)
    _echo_config(args, g.n)
    if args.constrained:
        res = solve_connected_complement(g, args.k, node_budget=args.node_budget)
    else:
        res = solve(g, args.k, node_budget=args.node_budget)
    out = res.to_dict()
    out["n"] = g.n
    if g.name:
        out["graph"] = g.name
    print(json.dumps(out))
    return EXIT_OK


def _cmd_closure(args):
    g = _load_graph(args)
    ids = _parse_id_csv(args.initial)
    initial = VertexSet.from_ids(ids, g.n)
    _echo_config(args, g.n)
    tr = trace(g, args.k, initial)
    colored = len(tr.final_state())
    print(json.dumps({"k": tr.k, "initial": list(tr.initial),
                      "events": tr.events, "forces": colored == g.n,
                      "colored": colored}))
    return EXIT_OK


def _cmd_bounds(args):
    g = _load_graph(args)
    _echo_config(args, g.n)
    # Input outside the bound's hypotheses exits 2 without being solved.
    dmax, dmin, code = _kernels.graph_facts(g.neighbor_masks, args.k)
    if code:
        raise ValueError("graph outside the bound's hypotheses: "
                         + failure_reason(code, args.k))
    z, nodes = forcing_number(g, 1, node_budget=args.node_budget)
    f_k = z if args.k == 1 else forcing_number(
        g, args.k, node_budget=args.node_budget, spent=nodes)[0]
    num, den = forcing_upper_bound(g.n, dmax, args.k)
    rnum, rden = degree_refined_bound(g.n, dmax, dmin)
    out = {"n": g.n, "max_degree": dmax, "min_degree": dmin, "k": args.k,
           "bound_num": num, "bound_den": den, "refined_num": rnum,
           "refined_den": rden, "meets_equality": f_k * den == num, "z": z}
    if args.k != 1:
        out["f_k"] = f_k
    cls = classify_extremal(g)
    out["extremal_class"] = cls.tag if cls else None
    if g.name:
        out["graph"] = g.name
    print(json.dumps(out))
    return EXIT_OK


def _input_lines(stream):
    """The lines ``read().splitlines()`` gives on an ASCII text stream,
    read from a binary stream one physical line at a time.
    str.splitlines also breaks at \\x0b, \\x0c and \\x1c-\\x1e, which
    iterating a file does not, and a decoding error names its byte offset
    in the whole stream, not in the chunk a text stream decodes."""
    offset = 0
    for raw in stream:
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{exc.encoding!r} codec can't decode byte "
                f"0x{raw[exc.start]:02x} in position {offset + exc.start}: "
                f"{exc.reason}") from None
        offset += len(raw)
        yield from text.splitlines()


def _cmd_verify(args):
    if (args.input is None) == (args.enumerate is None):
        raise ValueError("give exactly one of --input or --enumerate")
    _echo_config(args, MAX_VERTICES)
    with ExitStack() as stack:
        if args.enumerate is not None:
            lines = enumerate_connected(args.enumerate)
        elif args.input == "-":
            lines = _input_lines(sys.stdin.buffer)
        else:
            lines = _input_lines(stack.enter_context(open(args.input, "rb")))
        # Records are written as they arrive; the summary is complete once
        # write_jsonl has drained them.
        run = VerifyRun(lines, args.k, node_budget=args.node_budget)
        stack.enter_context(closing(run.records))
        if args.out:
            with open(args.out + ".records.jsonl", "w", encoding="ascii") as fh:
                run.write_jsonl(fh)
            with open(args.out + ".summary.csv", "w", encoding="ascii",
                      newline="") as fh:
                run.write_summary_csv(fh)
            with open(args.out + ".summary.json", "w", encoding="ascii") as fh:
                json.dump(dict(run.summary, version=__version__), fh, indent=2)
                fh.write("\n")
        else:
            run.write_jsonl(sys.stdout)
            run.write_summary_csv(sys.stderr)
    summary = run.summary
    print(json.dumps({"summary": {
        "graphs_verified": summary["graphs_verified"],
        "skipped": sum(summary["skipped"].values()),
        "parse_failures": summary["parse_failure_count"],
        "extremal": sum(r["extremal_count"] for r in summary["per_n"].values()),
        "counterexamples": len(summary["counterexamples"]),
        "unresolved": len(summary["unresolved"]),
        "structure_failures": len(summary["structure_failures"]),
    }}), file=sys.stderr)

    if summary["counterexamples"] or summary["structure_failures"]:
        return EXIT_FAILURE
    if summary["unresolved"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_lemmas(args):
    if args.suite == "trees":
        if args.max_n > MAX_ENUMERATION_ORDER:
            raise ValueError(f"--max-n is capped at {MAX_ENUMERATION_ORDER}")
        randoms = random_trees(args.random_count, args.random_min,
                               args.random_max, args.seed)
        _echo_config(args, max(args.max_n, args.random_max))

        def stream():
            for n in range(2, args.max_n + 1):
                yield from filter(is_tree,
                                  map(parse_graph6, enumerate_connected(n)))
            yield from randoms
        result = run_tree_leaf_suite(stream())
        result["seed"] = args.seed
        print(json.dumps(result))
        return EXIT_OK if not result["failures"] and not result["rejected"] \
            else EXIT_FAILURE
    # K_{d,d} has 2d vertices, the largest graph of degree d built here.
    _echo_config(args, max(args.cycle_max, 2 * args.delta_max))
    result = run_known_values(delta_max=args.delta_max,
                              cycle_max=args.cycle_max,
                              node_budget=args.node_budget)
    print(json.dumps(result))
    return EXIT_OK if not result["failures"] else EXIT_FAILURE


def _validate_common(args):
    if getattr(args, "k", 1) < 1:
        raise ValueError("--k must be at least 1")
    if getattr(args, "node_budget", 1) < 1:
        raise ValueError("--node-budget must be positive")
    if getattr(args, "workers", 1) < 1:
        raise ValueError("--workers must be positive")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "closure": _cmd_closure,
        "bounds": _cmd_bounds,
        "verify": _cmd_verify,
        "lemmas": _cmd_lemmas,
    }
    try:
        _validate_common(args)
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (``verify | head``); the input was fine.
        # Stdout goes to /dev/null so that the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
