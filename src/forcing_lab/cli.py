"""Command-line surface.

Subcommands: solve, closure, bounds, verify, lemmas trees, lemmas known.
Graphs arrive inline (--graph6, --family name:params) or from files
(--input: one graph6 record, or the "n m" edge-list format). Each subcommand
takes only the options its handler reads. Every run echoes to stderr, as
one JSON line, the package version, the kernel backend that serves its
largest graph, and every option of the subcommand, defaults included, so
the echo alone reproduces the run. One table, ``COMMANDS``, lists each
subcommand's options and the range of each integer one; ``parse_args``
reads it, and -h or --help prints it. The echo means that the run has
started: every check that can reject a run comes before it, so a
rejected run prints one ``error:`` line only.

Importing this module loads what parsing and the echo need. Each handler
imports the rest of what it runs when it runs (``json`` with the run's
first JSON line), so ``solve`` never loads the verifier, the bounds or the
trace engine, and names that a test or a tracer patches on their module
are looked up there at call time.

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

import os
import sys
from collections import namedtuple
from contextlib import ExitStack, closing
from itertools import accumulate
from types import SimpleNamespace

from . import __version__, _kernels
from .enumeration import MAX_ENUMERATION_ORDER, enumerate_connected, random_trees
from .graph6 import MAX_VERTICES, Graph6Error, parse_graph6
from .graphs import VertexSet, generate, is_tree, parse_edge_list
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceeded, forcing_number,
                     solve, solve_connected_complement)

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


def _print_json(obj, file=None):
    """Print ``obj`` as one JSON line to ``file``, stdout by default."""
    import json
    print(json.dumps(obj), file=file)


def _echo_config(args, n):
    """Echo the run's configuration to stderr; ``backend`` names the kernel
    backend that serves graphs of order ``n``."""
    config = {"version": __version__,
              "backend": _kernels.active_backend(n), **vars(args)}
    _print_json({"config": config}, sys.stderr)
    return config


def _cmd_solve(args):
    g = _load_graph(args)
    if g.n == 0:
        raise ValueError("forcing numbers need at least one vertex")
    _echo_config(args, g.n)
    if args.constrained:
        res = solve_connected_complement(g, args.k, node_budget=args.node_budget)
    else:
        res = solve(g, args.k, node_budget=args.node_budget)
    out = res.to_dict()
    out["n"] = g.n
    if g.name:
        out["graph"] = g.name
    _print_json(out)
    return EXIT_OK


def _cmd_closure(args):
    from .engine import trace
    g = _load_graph(args)
    ids = _parse_id_csv(args.initial)
    initial = VertexSet.from_ids(ids, g.n)
    _echo_config(args, g.n)
    tr = trace(g, args.k, initial)
    colored = len(tr.final_state())
    _print_json({"k": tr.k, "initial": list(tr.initial),
                 "events": tr.events, "forces": colored == g.n,
                 "colored": colored})
    return EXIT_OK


def _cmd_bounds(args):
    from .bounds import (classify_extremal, degree_refined_bound,
                         failure_reason, forcing_upper_bound)
    g = _load_graph(args)
    # Input outside the bound's hypotheses exits 2, neither echoed nor solved.
    dmax, dmin, code = _kernels.graph_facts(g.neighbor_masks, args.k)
    if code:
        raise ValueError("graph outside the bound's hypotheses: "
                         + failure_reason(code, args.k))
    _echo_config(args, g.n)
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
    _print_json(out)
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
    with ExitStack() as stack:
        if args.enumerate is not None:
            lines = enumerate_connected(args.enumerate)
        elif args.input == "-":
            lines = _input_lines(sys.stdin.buffer)
        else:
            lines = _input_lines(stack.enter_context(open(args.input, "rb")))
        if args.out:
            records = stack.enter_context(open(
                args.out + ".records.jsonl", "w", encoding="ascii"))
        _echo_config(args, MAX_VERTICES)
        # Records are written as they arrive; the summary is complete once
        # write_jsonl has drained them. A run rejected above never loads
        # the verifier.
        from .verifier import VerifyRun
        run = VerifyRun(lines, args.k, node_budget=args.node_budget)
        stack.enter_context(closing(run.records))
        if args.out:
            with records:
                run.write_jsonl(records)
            with open(args.out + ".summary.csv", "w", encoding="ascii",
                      newline="") as fh:
                run.write_summary_csv(fh)
            import json
            with open(args.out + ".summary.json", "w", encoding="ascii") as fh:
                json.dump(dict(run.summary, version=__version__), fh, indent=2)
                fh.write("\n")
        else:
            run.write_jsonl(sys.stdout)
            run.write_summary_csv(sys.stderr)
    summary = run.summary
    _print_json({"summary": {
        "graphs_verified": summary["graphs_verified"],
        "skipped": sum(summary["skipped"].values()),
        "parse_failures": summary["parse_failure_count"],
        "extremal": sum(r["extremal_count"] for r in summary["per_n"].values()),
        "counterexamples": len(summary["counterexamples"]),
        "unresolved": len(summary["unresolved"]),
        "structure_failures": len(summary["structure_failures"]),
    }}, sys.stderr)

    if summary["counterexamples"] or summary["structure_failures"]:
        return EXIT_FAILURE
    if summary["unresolved"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_lemmas(args):
    from .verifier import run_known_values, run_tree_leaf_suite
    if args.suite == "trees":
        randoms = random_trees(args.random_count, args.random_min,
                               args.random_max, args.seed)
        _echo_config(args, max(args.max_n, args.random_max))

        def trees(n):
            return filter(is_tree, map(parse_graph6, enumerate_connected(n)))

        def stream():
            # Building the top order first extends each lower order once;
            # the lower orders then come from the enumeration's cache.
            orders = range(2, args.max_n + 1)
            top = list(trees(orders[-1])) if orders else []
            for n in orders[:-1]:
                yield from trees(n)
            yield from top
            yield from randoms
        result = run_tree_leaf_suite(stream())
        result["seed"] = args.seed
        _print_json(result)
        return EXIT_OK if not result["failures"] and not result["rejected"] \
            else EXIT_FAILURE
    # K_{d,d} has 2d vertices, the largest graph of degree d built here.
    _echo_config(args, max(args.cycle_max, 2 * args.delta_max))
    result = run_known_values(delta_max=args.delta_max,
                              cycle_max=args.cycle_max,
                              node_budget=args.node_budget)
    _print_json(result)
    return EXIT_OK if not result["failures"] else EXIT_FAILURE


# One option of a command. ``type`` is int, str or bool (a flag that takes
# no value); ``least`` and ``most`` bound an int's value, and a REQUIRED
# default must be replaced by a given value.
Option = namedtuple("Option", "flag dest type default help least most",
                    defaults=(None, None))
REQUIRED = object()
_SOURCE = (Option("--graph6", "graph6", str, None, "inline graph6 record"),
           Option("--family", "family", str, None, "e.g. cycle:5, complete:4"),
           Option("--input", "input", str, None, "graph6 or edge-list file"))
_K = Option("--k", "k", int, 1, "forcing parameter", 1)
_BUDGET = Option("--node-budget", "node_budget", int, DEFAULT_NODE_BUDGET,
                 "search nodes per graph", 1)

# Each command's handler, summary and options, in the order that the config
# echo lists them after the command (and the lemmas suite).
COMMANDS = {
    "solve": (_cmd_solve, "exact minimum k-forcing set", (
        *_SOURCE, _K, _BUDGET, Option("--constrained", "constrained", bool,
                                      False, "connected complement only"))),
    "closure": (_cmd_closure, "trace the coloring process from a set", (
        *_SOURCE, _K, Option("--set", "initial", str, REQUIRED,
                             "initial vertex ids, e.g. 0,1 (required)"))),
    "bounds": (_cmd_bounds, "degree bounds and equality verdict; exits 2 "
               "outside their hypotheses", (*_SOURCE, _K, _BUDGET)),
    "verify": (_cmd_verify, "sweep graph6 lines against the bound", (
        Option("--input", "input", str, None, "graph6 lines; '-' for stdin"),
        Option("--enumerate", "enumerate", int, None,
               "every connected graph of this order"),
        Option("--out", "out", str, None,
               "write PREFIX.records.jsonl, .summary.csv and .summary.json"),
        _K, _BUDGET, Option("--workers", "workers", int, 1,
                            "ignored: verify is one process", 1))),
    "lemmas trees": (_cmd_lemmas, "leaf-subset forcing on trees", (
        Option("--max-n", "max_n", int, 8, "every tree of order 2..max_n",
               most=MAX_ENUMERATION_ORDER),
        Option("--random-count", "random_count", int, 500, "random trees", 0),
        Option("--random-min", "random_min", int, 9, "least random order", 2),
        Option("--random-max", "random_max", int, 16, "greatest random order"),
        Option("--seed", "seed", int, 0, "seed of the random trees"))),
    "lemmas known": (_cmd_lemmas, "closed-form family values", (
        Option("--delta-max", "delta_max", int, 4, "greatest degree checked",
               2),
        Option("--cycle-max", "cycle_max", int, 12, "longest cycle checked", 3),
        _BUDGET)),
}
_HELP = {"-h", "--help"}


def _describe(o):
    """The help text of option ``o``, with its range and default."""
    notes = [f"{word} {value}" for word, value in (
        ("at least", o.least), ("at most", o.most),
        ("default", None if o.type is bool else o.default))
        if value not in (None, REQUIRED)]
    return f"{o.help} ({', '.join(notes)})" if notes else o.help


def _help(name):
    """The usage of command ``name``, or the command list."""
    usage, rows = "COMMAND", [(key, cmd[1]) for key, cmd in COMMANDS.items()]
    if name in COMMANDS:
        usage, rows = name, [
            (o.flag + ("" if o.type is bool else " " + o.dest.upper()),
             _describe(o)) for o in COMMANDS[name][2]]
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([f"usage: forcing-lab {usage} [OPTIONS]", ""] + [
        f"  {flag:<{width}}{text}" for flag, text in rows])


def parse_args(argv):
    """The handler and namespace (command, lemmas suite, then options in
    table order) of ``argv``, or (None, None) once -h or --help is printed.
    Raises ValueError on anything the table does not accept."""
    words = list(argv)
    ns = {"command": words.pop(0) if words else ""}
    if ns["command"] == "lemmas":
        ns["suite"] = words.pop(0) if words else ""
    name = " ".join(ns.values())
    if _HELP.intersection(argv):
        print(_help(name))
        return None, None
    if name not in COMMANDS:
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), "
                         f"got {name.strip()!r}")
    handler, _, options = COMMANDS[name]
    ns.update((o.dest, o.default) for o in options)
    while words:
        flag, eq, value = words.pop(0).partition("=")
        opt = next((o for o in options if o.flag == flag), None)
        if opt is None or (opt.type is bool and eq):
            raise ValueError(f"{name} does not take {flag + eq + value!r}")
        if opt.type is bool:
            value = True
        elif not eq:
            if not words or words[0].startswith("--"):
                raise ValueError(f"{flag} needs a value")
            value = words.pop(0)
        try:
            ns[opt.dest] = opt.type(value)
        except ValueError:
            raise ValueError(f"{flag} needs an integer: {value!r}") from None
    for o in options:
        value = ns[o.dest]
        if value is REQUIRED:
            raise ValueError(f"{name} needs {o.flag}")
        if o.least is not None and value < o.least:
            raise ValueError(f"{o.flag} must be at least {o.least}")
        if o.most is not None and value > o.most:
            raise ValueError(f"{o.flag} must be at most {o.most}")
    return handler, SimpleNamespace(**ns)


def main(argv=None):
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
        code = handler(args) if handler else EXIT_OK
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
