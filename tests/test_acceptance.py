"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them). Tolerances are
integer-exact throughout; the sweeps are exhaustive at their stated
orders.
"""

import random
import time

import pytest

from forcing_lab import (brute_force_oracle, closure, complete,
                         complete_bipartite, cycle, degree_stats,
                         encode_graph6, forcing_upper_bound, is_k_connected,
                         parse_graph6, run_tree_leaf_suite, solve,
                         solve_connected_complement, trace)
from forcing_lab._kernels import canonical_mask
from forcing_lab.enumeration import (CONNECTED_CLASS_COUNTS,
                                     enumerate_connected, random_trees)
from forcing_lab.graphs import VertexSet, connected_within, is_tree

from conftest import (closure_random_order, outside_counts, random_graph,
                      replay, verify_stream)

SWEEP_ORDERS = range(3, 9)
EXPECTED_EXTREMAL_COUNTS = {3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 3}


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _expected_family_certs(n):
    certs = {canonical_mask(cycle(n).neighbor_masks),
             canonical_mask(complete(n).neighbor_masks)}
    if n % 2 == 0:
        g = complete_bipartite(n // 2, n // 2)
        certs.add(canonical_mask(g.neighbor_masks))
    return certs


@pytest.fixture(scope="module")
def sweeps():
    """Exhaustive k=1 verification runs for every order in the sweep."""
    started = time.monotonic()
    runs = {n: verify_stream(enumerate_connected(n)) for n in SWEEP_ORDERS}
    return runs, time.monotonic() - started


def test_criterion_1_exhaustive_bound_and_equality_families(sweeps):
    runs, elapsed = sweeps
    problems = []
    for n in SWEEP_ORDERS:
        run = runs[n]
        if len(run.records) != CONNECTED_CLASS_COUNTS[n]:
            problems.append(f"n={n}: {len(run.records)} graphs, expected "
                            f"{CONNECTED_CLASS_COUNTS[n]}")
        if run.summary["counterexamples"] or run.summary["unresolved"]:
            problems.append(f"n={n}: counterexamples "
                            f"{run.summary['counterexamples']} unresolved "
                            f"{run.summary['unresolved']}")
        for rec in run.records:
            if rec.f_k is not None and rec.f_k * rec.bound_den > rec.bound_num:
                problems.append(f"n={n}: bound violated on {rec.graph6}")
        extremal = [rec for rec in run.records if rec.equality]
        if len(extremal) != EXPECTED_EXTREMAL_COUNTS[n]:
            problems.append(f"n={n}: {len(extremal)} equality cases, expected "
                            f"{EXPECTED_EXTREMAL_COUNTS[n]}")
        got_certs = set()
        for rec in extremal:
            got_certs.add(canonical_mask(parse_graph6(rec.graph6).neighbor_masks))
        if got_certs != _expected_family_certs(n):
            problems.append(f"n={n}: equality set is not the three families")
        for rec in extremal:
            if rec.min_degree != rec.max_degree:
                problems.append(f"n={n}: equality on irregular {rec.graph6}")
    if elapsed > 600:
        problems.append(f"sweep took {elapsed:.0f}s, target is under 600s")
    total = sum(len(runs[n].records) for n in SWEEP_ORDERS)
    _report(1, not problems,
            problems or f"{total} connected graphs, 3 <= n <= 8, zero "
                        f"violations, equality exactly on the three families "
                        f"({elapsed:.1f}s)")


def test_criterion_2_closed_form_values():
    failures = []
    for m in range(3, 13):
        got = solve(cycle(m)).value
        if got != 2:
            failures.append(f"cycle {m}: {got}")
    for n in range(2, 10):
        got = solve(complete(n)).value
        if got != n - 1:
            failures.append(f"complete {n}: {got}")
    for d in range(2, 5):
        got = solve(complete_bipartite(d, d)).value
        if got != 2 * d - 2:
            failures.append(f"balanced bipartite {d}: {got}")
    _report(2, not failures,
            failures or "closed forms exact for cycles n=3..12, completes "
                        "n=2..9, balanced bipartites d=2..4")


def test_criterion_3_oracle_equivalence():
    mismatches = []
    checked = 0
    for n in range(1, 8):
        for g in map(parse_graph6, enumerate_connected(n)):
            for k in (1, 2, 3):
                checked += 1
                fast = solve(g, k).value
                slow = brute_force_oracle(g, k).value
                if fast != slow:
                    mismatches.append((g.edges(), k, fast, slow))
    _report(3, not mismatches,
            mismatches or f"fast path equals brute force on {checked} "
                          f"(graph, k) pairs, n <= 7, k in 1..3")


def test_criterion_4_leaf_subsets_force_trees():
    # One tree per isomorphism class on 2..8 vertices (47 in all), then
    # 500 random trees on 9..16 vertices.
    def stream():
        for n in range(2, 9):
            yield from filter(is_tree,
                              map(parse_graph6, enumerate_connected(n)))
        yield from random_trees(500, 9, 16, seed=20260810)

    out = run_tree_leaf_suite(stream())
    ok = (not out["failures"] and not out["rejected"]
          and out["trees_checked"] == 47 + 500)
    _report(4, ok,
            out["failures"] or f"{out['trees_checked']} trees, "
                               f"{out['subsets_checked']} leaf subsets, "
                               f"zero failures")


def test_criterion_5_connected_dominating_complements():
    # Across k-connected graphs, the complement of the minimum forcing set
    # with connected complement is a connected set that dominates each
    # vertex of the forcing set at least k times. The complement is never
    # empty: as n > k, V minus any vertex u forces u and leaves {u}
    # connected.
    checked, failures = 0, []
    for g in (parse_graph6(line) for n in range(2, 8)
              for line in enumerate_connected(n)):
        for k in (k for k in (1, 2) if is_k_connected(g, k)):
            checked += 1
            solution = solve_connected_complement(g, k)
            if not (connected_within(g, solution.witness.complement())
                    and min(outside_counts(g, solution)) >= k):
                failures.append((encode_graph6(g), k, list(solution.witness)))
    _report(5, not failures and checked > 0,
            failures or f"{checked} (graph, k) pairs checked, zero failures")


def test_criterion_6_bound_sweep_general_k():
    violations = []
    checked = 0
    equality_at_1 = 0
    for n in range(2, 9):
        for g in map(parse_graph6, enumerate_connected(n)):
            dmax, _, _ = degree_stats(g)
            if dmax < 2:
                continue
            for k in (1, 2, 3):
                if not is_k_connected(g, k):
                    continue
                checked += 1
                value = solve(g, k).value
                num, den = forcing_upper_bound(g.n, dmax, k)
                if value * den > num:
                    violations.append((g.edges(), k, value, num, den))
                if k == 1 and value * den == num:
                    equality_at_1 += 1
    expected_equality = sum(EXPECTED_EXTREMAL_COUNTS.values())
    if equality_at_1 != expected_equality:
        violations.append(f"sharpness: {equality_at_1} equality cases at k=1, "
                          f"expected {expected_equality}")
    _report(6, not violations,
            violations or f"{checked} (graph, k) solves, zero bound "
                          f"violations, sharpness witnessed at k=1")


def test_criterion_7_engine_properties():
    rng = random.Random(314159)
    failures = []
    for i in range(1000):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.15, 0.7))
        k = rng.randint(1, 3)
        s = rng.getrandbits(n)
        expected = closure(g, k, VertexSet(s, n)).mask
        for _ in range(100):
            if closure_random_order(g, k, s, rng) != expected:
                failures.append(f"instance {i}: order changed the closure")
                break
        bigger = s | rng.getrandbits(n)
        if expected & ~closure(g, k, VertexSet(bigger, n)).mask:
            failures.append(f"instance {i}: not monotone in the initial set")
        if expected & ~closure(g, k + 1, VertexSet(s, n)).mask:
            failures.append(f"instance {i}: not monotone in k")
        tr = trace(g, k, VertexSet(s, n))
        if replay(g, tr).mask != expected:
            failures.append(f"instance {i}: trace replay missed the closure")
    _report(7, not failures,
            failures or "1000 instances x 100 orders: confluent, monotone in "
                        "set and k, traces replay to the closure")


def test_criterion_8_extremal_structure(sweeps):
    runs, _ = sweeps
    failures = []
    checked = 0
    for n in SWEEP_ORDERS:
        for rec in runs[n].records:
            if not rec.equality or rec.max_degree < 3:
                continue
            checked += 1
            if rec.structure_ok is not True:
                failures.append(f"{rec.graph6}: structure_ok={rec.structure_ok}")
            # The paper's third property, read from the dissection itself:
            # the edge boundary of S is exactly |S|.
            g = parse_graph6(rec.graph6)
            solution = solve_connected_complement(g)
            boundary = sum(outside_counts(g, solution))
            if boundary != len(solution.witness):
                failures.append(f"{rec.graph6}: edge boundary {boundary} "
                                f"!= |S| = {len(solution.witness)}")
    expected_checked = 7  # completes at n=4..8 plus the two balanced bipartites
    if checked != expected_checked:
        failures.append(f"structure checks ran on {checked} graphs, "
                        f"expected {expected_checked}")
    _report(8, not failures,
            failures or f"all {checked} equality graphs with max degree >= 3 "
                        f"pass the structural dissection, each with edge "
                        f"boundary exactly |S|")
