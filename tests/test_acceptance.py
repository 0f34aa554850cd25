"""Acceptance suite: every criterion at its stated scale, exact tolerances.

The heavy sweeps over all labeled trees are shared module-scoped fixtures;
each criterion prints one PASS/FAIL line. Expect a few minutes of runtime.
"""

import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from linforest import (
    Graph,
    SweepConfig,
    decycling_number,
    diam_bounds_l,
    enumerate_trees,
    hc_construct,
    is_hamiltonian,
    kary_bounds_l,
    kary_caterpillar,
    kary_caterpillar_l,
    l_of_tree,
    line_graph,
    longest_path_bf,
    lower_spider,
    max_induced_forest,
    max_induced_tree,
    max_linear_forest_bf,
    num_labeled_trees,
    perfect_kary,
    perfect_kary_decycling,
    perfect_kary_l,
    perfect_kary_recurrence,
    perfect_kary_size,
    prufer_decode,
    random_kary_tree,
    random_tree,
    t1_star,
    t2_star,
    t_star,
    tree_diameter,
    verify_theorems,
)

PROCESSES = os.cpu_count() or 1


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep_to_8():
    """All labeled trees n=2..8 with every check on, every pair of a
    failing leaf reported."""
    return verify_theorems(8, processes=PROCESSES)


@pytest.fixture(scope="module")
def sweep_9():
    """All labeled trees at n=9; only the n<=9 checks are in scope."""
    return verify_theorems(9, n_min=9, processes=PROCESSES)


def test_sweep_scales_pinned():
    # the criteria below rest on these scopes
    scopes = (SweepConfig.dp_oracle_max_n, SweepConfig.decycling_max_n,
              SweepConfig.leaf_exchange_max_n)
    assert scopes == (9, 8, 8)


def test_criterion_1_dp_equals_bruteforce(sweep_to_8, sweep_9):
    checked = sweep_to_8.counts["dp-oracle"].checked + sweep_9.counts["dp-oracle"].checked
    bad = sweep_to_8.counts["dp-oracle"].violations + sweep_9.counts["dp-oracle"].violations
    expected = sum(num_labeled_trees(n) for n in range(2, 10))
    report(
        1,
        bad == 0 and checked == expected,
        f"solver equals brute force on {checked}/{expected} labeled trees n=2..9, "
        f"{bad} mismatches",
    )


def _correspondence_range(args):
    lo, hi = args
    checked = 0
    bad = []
    for i in range(lo, hi):
        rng = random.Random(10_000 + i)
        n = 2 + i % 6
        seq = [rng.randrange(n) for _ in range(max(0, n - 2))]
        tree = prufer_decode(seq, n)
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in tree.edge_set()
        ]
        extra = rng.sample(non_edges, rng.randint(0, min(4, len(non_edges))))
        g = Graph(n, tree.edges + tuple(extra), validate=False)
        lg = line_graph(g).graph
        if max_linear_forest_bf(g).value != max_induced_forest(lg).value:
            bad.append(("l-vs-f", n, g.edges))
        if longest_path_bf(g).value != max_induced_tree(lg).value:
            bad.append(("p-vs-t", n, g.edges))
        checked += 1
    return checked, bad


def test_criterion_2_line_graph_correspondence():
    total = 10_000
    step = 500
    jobs = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    checked = 0
    bad = []
    with ProcessPoolExecutor(max_workers=PROCESSES) as pool:
        for c, b in pool.map(_correspondence_range, jobs):
            checked += c
            bad.extend(b)
    report(
        2,
        checked >= 10_000 and not bad,
        f"l(G)=f(L(G)) and p(G)=t(L(G)) on {checked} connected graphs, "
        f"{len(bad)} mismatches",
    )


def test_criterion_3_perfect_kary_formulas():
    checked = 0
    ok = True
    for k in (2, 3, 4, 5):
        h = 1
        while perfect_kary_size(k, h) <= 10_000:
            n = perfect_kary_size(k, h)
            closed = perfect_kary_l(n, k)
            rec = perfect_kary_recurrence(k, h)
            dp = l_of_tree(perfect_kary(k, h))
            ok = ok and closed == rec == dp
            if n <= 13:
                oracle = max_linear_forest_bf(perfect_kary(k, h)).value
                ok = ok and oracle == closed
            checked += 1
            h += 1
    ok = ok and perfect_kary_l(7, 2) == 4 and perfect_kary_l(13, 3) == 6
    report(3, ok, f"closed form = recurrence = solver on {checked} (k,h) pairs, "
                  f"oracle-confirmed for n<=13")


def test_criterion_4_diameter_theorem(sweep_to_8, sweep_9):
    bad = sweep_to_8.counts["diameter"].violations + sweep_9.counts["diameter"].violations
    checked = sweep_to_8.counts["diameter"].checked + sweep_9.counts["diameter"].checked
    ok = bad == 0

    constructions = 0
    for d in range(4, 10):
        for n in range(d + 1, 61):
            g = lower_spider(n, d)
            ok = ok and tree_diameter(g) == d and l_of_tree(g) == d
            constructions += 1
            if d % 2 == 0:
                g = t_star(n, d)
                ok = ok and tree_diameter(g) == d
                ok = ok and l_of_tree(g) == diam_bounds_l(n, d)[1]
                constructions += 1
            else:
                g = t1_star(n, d)
                ok = ok and tree_diameter(g) == d
                ok = ok and l_of_tree(g) == ((d - 3) * n + 3) // (d - 2)
                constructions += 1
                if n >= 2 * d:
                    g = t2_star(n, d)
                    ok = ok and tree_diameter(g) == d
                    ok = ok and l_of_tree(g) == ((d - 3) * n + 4) // (d - 2)
                    constructions += 1
    report(
        4,
        ok,
        f"bounds hold on {checked} trees with d>=4 ({bad} violations); "
        f"{constructions} extremal constructions hit their stated values",
    )


def _hc_construct_exhaustive(args):
    n, lo, hi = args
    bad = 0
    for g in enumerate_trees(n, lo, hi):
        comp = hc_construct(g)
        out = sum(1 for v in range(n) if g.degree(v) == 1)
        if len(comp.added_edges) != out - 1:
            bad += 1
            continue
        if not is_hamiltonian(Graph(n, g.edges + comp.added_edges, validate=False)):
            bad += 1
    return hi - lo, bad


def test_criterion_5_hamiltonian_completion(sweep_to_8, sweep_9):
    bounds_bad = sweep_to_8.counts["hc-bounds"].violations + sweep_9.counts["hc-bounds"].violations
    bounds_checked = (
        sweep_to_8.counts["hc-bounds"].checked + sweep_9.counts["hc-bounds"].checked
    )
    ok = bounds_bad == 0 and bounds_checked == sum(num_labeled_trees(n) for n in range(2, 10))

    # exhaustive construction check for n <= 8
    jobs = []
    for n in range(3, 9):
        total = num_labeled_trees(n)
        step = max(1, total // (PROCESSES * 4))
        jobs.extend((n, lo, min(lo + step, total)) for lo in range(0, total, step))
    exhaustive = 0
    construct_bad = 0
    with ProcessPoolExecutor(max_workers=PROCESSES) as pool:
        for count, bad in pool.map(_hc_construct_exhaustive, jobs):
            exhaustive += count
            construct_bad += bad

    # random sample at n <= 12
    sampled = 0
    for i in range(10_000):
        n = 9 + i % 4
        g = random_tree(n, 77_000 + i)
        comp = hc_construct(g)
        out = sum(1 for v in range(n) if g.degree(v) == 1)
        if len(comp.added_edges) != out - 1 or not is_hamiltonian(
            Graph(n, g.edges + comp.added_edges, validate=False)
        ):
            construct_bad += 1
        sampled += 1
    report(
        5,
        ok and construct_bad == 0,
        f"completion bounds hold on {bounds_checked} trees n<=9 ({bounds_bad} bad); "
        f"construction Hamiltonian on {exhaustive} exhaustive n<=8 plus "
        f"{sampled} sampled n<=12 trees ({construct_bad} bad)",
    )


def test_criterion_6_leaf_exchange(sweep_to_8):
    c = sweep_to_8.counts["leaf-exchange"]
    report(
        6,
        c.violations == 0 and c.checked == sum(num_labeled_trees(n) for n in range(2, 9)),
        f"l never drops under leaf exchange: {c.checked} trees n<=8, all ordered "
        f"pairs, {c.violations} violations",
    )


def test_criterion_7_kary_bounds():
    ok = True
    checked = 0
    for k in (2, 3, 4):
        max_internal = (400 - 1) // k
        for i in range(200):
            rng = random.Random(5_000 + 131 * k + i)
            internal = rng.randint(1, max_internal)
            g = random_kary_tree(k, internal, seed=900_000 + 7 * k + i)
            lo, hi = kary_bounds_l(g.n, k)
            lv = l_of_tree(g)
            ok = ok and lo <= lv <= hi
            checked += 1
    saturation = 0
    for k in (3, 4):
        for levels in range(1, 21):
            n = 1 + k * levels
            ok = ok and l_of_tree(kary_caterpillar(n, k)) == (2 * n - 2) // k
            saturation += 1
    for levels in range(1, 21):
        n = 1 + 2 * levels
        ok = ok and l_of_tree(kary_caterpillar(n, 2)) == kary_caterpillar_l(n, 2)
        saturation += 1
    report(
        7,
        ok,
        f"bounds hold on {checked} random k-ary trees (n<=400); caterpillar "
        f"saturation verified on {saturation} instances",
    )


def test_criterion_8_decycling(sweep_to_8):
    c = sweep_to_8.counts["decycling"]
    ok = c.violations == 0 and c.checked == sum(num_labeled_trees(n) for n in range(2, 9))
    for k, h in ((2, 2), (2, 3), (3, 2)):
        g = perfect_kary(k, h)
        nabla = decycling_number(line_graph(g).graph).value
        ok = ok and nabla == perfect_kary_decycling(g.n, k)
    report(
        8,
        ok,
        f"oracle decycling of the line graph equals n-1-l on {c.checked} trees "
        f"n<=8 with corollary bounds ({c.violations} violations); perfect k-ary "
        f"values oracle-confirmed",
    )
