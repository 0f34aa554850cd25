import concurrent.futures
import csv
import hashlib
import multiprocessing
import os
import pickle
import re
from dataclasses import fields
from fractions import Fraction
from math import factorial

import pytest

from linforest import (
    SweepConfig,
    decycling_number,
    diam_bounds_decycling,
    diam_bounds_l,
    diam_upper_l_fine,
    enumerate_tree_arrays,
    hc_bounds,
    kary_bounds_decycling,
    kary_bounds_l,
    kary_caterpillar,
    kary_caterpillar_l,
    kary_tree,
    l_of_tree,
    line_graph,
    lower_spider,
    num_labeled_trees,
    perfect_kary_decycling,
    perfect_kary_height,
    perfect_kary_l,
    perfect_kary_recurrence,
    perfect_kary_size,
    prufer_arrays,
    prufer_decode,
    prufer_from_rank,
    random_kary_tree,
    reports_to_csv,
    t1_star,
    t2_star,
    t_star,
    tree_diameter,
    verify_theorems,
)
from linforest import bounds
from linforest.bounds import BoundReport, CheckCounts, _shape_table, _sweep_range
from linforest.forest import _forest_values
from linforest.graph import Graph


class TestDiameterBounds:
    def test_even_examples(self):
        assert diam_bounds_l(7, 4) == (4, 5)
        assert diam_bounds_l(5, 4) == (4, 4)

    def test_odd_example(self):
        assert diam_bounds_l(12, 5) == (5, 9)

    def test_fine_split_odd(self):
        # below the two-deep-leaves threshold the +3 numerator applies
        assert diam_upper_l_fine(9, 5) == (2 * 9 + 3) // 3
        assert diam_upper_l_fine(12, 5) == (2 * 12 + 4) // 3

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            diam_bounds_l(10, 3)

    @pytest.mark.parametrize("bound, n, d", [
        (diam_bounds_decycling, 3, 4),
        (diam_upper_l_fine, 4, 5),
        (diam_upper_l_fine, 5, 3),
        (diam_bounds_l, 4, 4),
    ])
    def test_rejects_impossible_trees(self, bound, n, d):
        with pytest.raises(ValueError, match="diameter"):
            bound(n, d)

    def test_decycling_examples(self):
        assert diam_bounds_decycling(7, 4) == (1, 2)
        assert diam_bounds_decycling(5, 4) == (0, 0)
        assert diam_bounds_decycling(12, 5) == (2, 6)

    def test_decycling_complements_l(self):
        for d in (4, 6, 5, 7):
            for n in range(d + 1, 40):
                low_l, high_l = diam_bounds_l(n, d)
                low_d, high_d = diam_bounds_decycling(n, d)
                assert high_d == n - 1 - low_l
                # lower decycling bound complements the upper l bound
                assert low_d == n - 1 - high_l


class TestKaryBounds:
    def test_examples(self):
        assert kary_bounds_l(7, 2) == (Fraction(8, 2), Fraction(12, 2))
        assert kary_bounds_l(4, 3) == (Fraction(2), Fraction(2))
        assert kary_bounds_l(13, 3) == (Fraction(5), Fraction(8))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            kary_bounds_l(8, 3)
        with pytest.raises(ValueError):
            kary_bounds_decycling(8, 3)

    @pytest.mark.parametrize("bound", [kary_bounds_l, kary_bounds_decycling])
    def test_rejects_k_1(self, bound):
        # the only 1-ary tree is a path: with 5 vertices its l is 4, outside
        # the (5, 8) that the formula gives for k = 1
        for n in (2, 5, 9):
            with pytest.raises(ValueError, match="k >= 2"):
                bound(n, 1)

    def test_decycling_complements_l(self):
        for k in range(2, 5):
            for n in range(k + 1, 60, k):
                low_l, high_l = kary_bounds_l(n, k)
                assert kary_bounds_decycling(n, k) == (n - 1 - high_l, n - 1 - low_l)

    def test_every_labeled_full_kary_tree(self):
        # A tree is full k-ary for some k >= 2 iff one internal vertex has
        # degree k and every other one degree k + 1; then n - 1 = k times
        # the internal count, and a star has k = n - 1. The theorem's
        # (n + k - 1)/k <= l <= (2n - 2)/k is checked in integers.
        trees = upper = lower = 0
        for n in range(2, 9):
            for parent, order, degree in enumerate_tree_arrays(n):
                internal = sorted(d for d in degree if d > 1)
                if not internal:
                    continue
                k, r = divmod(n - 1, len(internal))
                if r or k < 2 or internal != [k] + [k + 1] * (len(internal) - 1):
                    continue
                kl = k * _forest_values(parent, order)[0]
                assert n + k - 1 <= kl <= 2 * n - 2
                trees += 1
                upper += kl == 2 * n - 2
                lower += kl == n + k - 1
        assert (trees, upper, lower) == (3663, 453, 723)

    def test_decycling_bounds_the_oracle(self):
        for k in (2, 3, 4):
            for internal in range(1, 20 // k + 1):  # L(T) has n - 1 = k * internal vertices
                for seed in range(2):
                    g = random_kary_tree(k, internal, seed)
                    low, high = kary_bounds_decycling(g.n, k)
                    assert low <= decycling_number(line_graph(g).graph).value <= high


class TestPerfectKary:
    def test_height(self):
        assert perfect_kary_height(7, 2) == 3
        assert perfect_kary_height(4, 3) == 2
        with pytest.raises(ValueError):
            perfect_kary_height(6, 2)

    def test_closed_form_examples(self):
        assert perfect_kary_l(7, 2) == 4
        assert perfect_kary_l(4, 3) == 2
        assert perfect_kary_l(13, 3) == 6

    def test_recurrence_examples(self):
        assert perfect_kary_recurrence(2, 3) == 4
        assert perfect_kary_recurrence(3, 3) == 6
        assert perfect_kary_recurrence(5, 1) == 0
        assert perfect_kary_recurrence(5, 2) == 2

    def test_decycling_examples(self):
        assert perfect_kary_decycling(7, 2) == 2
        assert perfect_kary_decycling(4, 3) == 1
        assert perfect_kary_decycling(3, 2) == 0

    def test_identity_sweep(self):
        for k in (2, 3, 4, 5):
            h = 1
            while perfect_kary_size(k, h) <= 2000:
                n = perfect_kary_size(k, h)
                assert perfect_kary_l(n, k) == perfect_kary_recurrence(k, h)
                assert perfect_kary_decycling(n, k) + perfect_kary_l(n, k) == n - 1
                h += 1


class TestConstructions:
    def test_lower_spider_shape(self):
        g = lower_spider(7, 4)
        assert g.n == 7 and tree_diameter(g) == 4
        assert l_of_tree(g) == 4

    def test_t_star_example(self):
        g = t_star(8, 4)
        assert tree_diameter(g) == 4
        assert l_of_tree(g) == 6

    def test_t_star_remainder_cases(self):
        # remainder 0, 1..r, and r+1..2r-2 placements all hit the formula
        for n, d in ((12, 6), (13, 6), (15, 6), (16, 6), (9, 4), (10, 4)):
            g = t_star(n, d)
            assert g.n == n and tree_diameter(g) == d
            assert l_of_tree(g) == diam_bounds_l(n, d)[1]

    def test_t1_star(self):
        for n, d in ((8, 5), (11, 5), (20, 7)):
            g = t1_star(n, d)
            assert g.n == n and tree_diameter(g) == d
            assert l_of_tree(g) == ((d - 3) * n + 3) // (d - 2)

    def test_t2_star(self):
        for n, d in ((10, 5), (14, 5), (30, 7)):
            g = t2_star(n, d)
            assert g.n == n and tree_diameter(g) == d
            assert l_of_tree(g) == ((d - 3) * n + 4) // (d - 2)

    def test_t2_star_needs_branch(self):
        with pytest.raises(ValueError):
            t2_star(9, 5)

    @pytest.mark.parametrize("build, n, d, message", [
        (t_star, 8, 5, "tstar needs an even diameter, got 5"),
        (t1_star, 8, 4, "t1star needs an odd diameter, got 4"),
        (t2_star, 9, 5, "t2star needs n >= 2d = 10, got 9"),
        (t1_star, 10, 3, "diameter bounds need d >= 4, got 3"),
        (t1_star, -1, -1, "diameter bounds need d >= 4, got -1"),
        (t2_star, 7, 7, "a tree with diameter 7 needs at least 8 vertices"),
    ])
    def test_extremal_messages(self, build, n, d, message):
        # the diameter domain first, then parity, then t2star's n >= 2d;
        # the messages name the gen family, not the builder
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(n, d)

    def test_infeasible_params(self):
        with pytest.raises(ValueError):
            lower_spider(4, 4)
        with pytest.raises(ValueError):
            t_star(8, 5)
        with pytest.raises(ValueError):
            t1_star(8, 4)

    def test_caterpillar(self):
        assert l_of_tree(kary_caterpillar(7, 2)) == 5
        assert kary_caterpillar_l(7, 2) == 5
        for k in (3, 4):
            for levels in (1, 2, 5):
                n = 1 + k * levels
                g = kary_caterpillar(n, k)
                assert l_of_tree(g) == (2 * n - 2) // k

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_caterpillar_l_closed_form(self, k):
        # k = 2 with an odd and an even level count, and every k >= 3 branch
        for levels in range(1, 11):
            n = 1 + k * levels
            assert kary_caterpillar_l(n, k) == l_of_tree(kary_caterpillar(n, k)), n

    def test_caterpillar_rejects(self):
        with pytest.raises(ValueError):
            kary_caterpillar(8, 3)

    def test_caterpillar_l_rejects_what_the_tree_rejects(self):
        with pytest.raises(ValueError, match="n = 1 mod 3"):
            kary_caterpillar(5, 3)
        with pytest.raises(ValueError, match="n = 1 mod 3"):
            kary_caterpillar_l(5, 3)

    def test_small_constructions_match_oracle(self):
        from linforest import max_linear_forest_bf

        cases = [lower_spider(n, 4) for n in range(5, 11)]
        cases += [t_star(n, 4) for n in range(5, 11)]
        cases += [t1_star(n, 5) for n in range(6, 11)]
        cases += [t2_star(10, 5)]
        for g in cases:
            assert l_of_tree(g) == max_linear_forest_bf(g).value


class TestLongestPathWindow:
    def test_decycling_of_line_graph_of_connected_graphs(self):
        """With p the longest-path length, the decycling number of the line
        graph lands in [m - upper_l(n, p), m - p] whenever p >= 4."""
        import random

        from linforest import (
            Graph,
            decycling_number,
            line_graph,
            longest_path_bf,
            random_tree,
        )

        checked = 0
        for i in range(300):
            rng = random.Random(40_000 + i)
            n = 5 + i % 3
            tree = random_tree(n, 41_000 + i)
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if (u, v) not in tree.edge_set()
            ]
            extra = rng.sample(non_edges, rng.randint(0, min(3, len(non_edges))))
            g = Graph(n, tree.edges + tuple(extra))
            p = longest_path_bf(g).value
            if p < 4:
                continue
            nabla = decycling_number(line_graph(g).graph).value
            assert g.m - diam_bounds_l(g.n, p)[1] <= nabla <= g.m - p
            checked += 1
        assert checked > 100


def _shape_ranks(n):
    """The Prüfer ranks of n's labeled trees, grouped by the tree's shape:
    each vertex renamed to its position in the decode order."""
    shapes = {}
    for rank, (parent, order, _) in enumerate(enumerate_tree_arrays(n)):
        pos = {v: i for i, v in enumerate(order)}
        shapes.setdefault(tuple(pos[parent[v]] for v in order[:-1]), []).append(rank)
    return shapes


def _description(n, rank):
    """The sweep's description of the tree of Prüfer rank ``rank``."""
    seq = ",".join(map(str, prufer_from_rank(n, rank)))
    return f"prufer[{seq}]" if seq else f"tree(n={n})"


class TestHarness:
    def test_clean_run(self):
        run = verify_theorems(6)
        assert run.ok
        assert run.trees == 1 + 3 + 16 + 125 + 1296
        assert run.counts["dp-oracle"].checked == run.trees
        assert run.counts["diameter"].skipped > 0  # d < 4 trees exist

    def test_small_n_skips_diameter(self):
        run = verify_theorems(3)
        assert run.counts["diameter"].checked == 0
        assert run.counts["hc-bounds"].violations == 0

    def test_mutated_bounds_detected(self):
        run = verify_theorems(6, SweepConfig(upper_slack=1))
        assert not run.ok
        assert run.counts["diameter"].violations > 0

    def test_parallel_matches_serial(self):
        serial = verify_theorems(6)
        parallel = verify_theorems(6, processes=2)
        assert parallel.trees == serial.trees
        for check in serial.counts:
            assert vars(parallel.counts[check]) == vars(serial.counts[check])

    @pytest.mark.parametrize(
        "processes, cpus, workers",
        [(100000, 2, [2]), (3, 4, [3]), (2, 1, []), (5, None, [])],
    )
    def test_workers_capped_at_cpu_count(self, monkeypatch, processes, cpus, workers):
        # no process starts: the pool is a stand-in that maps in this one
        started = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run = verify_theorems(5, SweepConfig(upper_slack=1), processes=processes)
        assert started == workers
        assert run == verify_theorems(5, SweepConfig(upper_slack=1))

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError, match="cap"):
            verify_theorems(12)

    def test_split_ranges_match_one_range(self):
        # 6^3 = 216: rank 215 is prufer[0,5,5,5] and rank 216 carries
        # through every digit to prufer[1,0,0,0]
        n, total = 6, 6**4
        table = _shape_table(n)
        cuts = [0, 1, 215, 216, 217, 700, total]
        for cfg in (
            SweepConfig(leaf_exchange_all_pairs=True, upper_slack=1),
            SweepConfig(upper_slack=1),
        ):
            whole_counts, whole_violations = _sweep_range((n, 0, total, cfg, table))
            counts = {check: CheckCounts() for check in whole_counts}
            violations = []
            for lo, hi in zip(cuts, cuts[1:]):
                part_counts, part_violations = _sweep_range((n, lo, hi, cfg, table))
                for check, c in part_counts.items():
                    counts[check].merge(c)
                violations += part_violations
            assert whole_violations
            assert counts == whole_counts
            assert violations == whole_violations

    def test_pickled_table_gives_the_same_outcome(self):
        # a pool worker started by spawn gets the shape table pickled, so
        # its skip markers must still read as skips there
        n = 5
        table = _shape_table(n)
        job = (n, 0, n ** (n - 2), SweepConfig(upper_slack=1))
        copy = pickle.loads(pickle.dumps(table))
        assert _sweep_range((*job, copy)) == _sweep_range((*job, table))

    def test_mutated_reports_pinned(self):
        run = verify_theorems(7, SweepConfig(leaf_exchange_all_pairs=True, upper_slack=1))
        text = "\n".join(r.to_text() for r in run.violations)
        assert len(run.violations) == 43748
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "d943e41d908df590ad0c5e5a664d1f43b94f66e09892ddf8e0bc10c80b8b283c"
        )

    def test_only_upper_slack_is_settable(self):
        assert [f.name for f in fields(SweepConfig)] == [
            "seed", "leaf_exchange_all_pairs", "upper_slack"
        ]
        with pytest.raises(TypeError):
            SweepConfig(leaf_exchange_max_n=9)

    def test_one_forest_pass_per_tree(self, monkeypatch):
        calls = 0
        forest_values = bounds._forest_values

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return forest_values(*args, **kwargs)

        monkeypatch.setattr(bounds, "_forest_values", counted)
        run = verify_theorems(7, SweepConfig(leaf_exchange_all_pairs=True))
        assert run.ok
        assert run.counts["leaf-exchange"].checked == run.trees
        assert calls == run.trees

    @pytest.mark.parametrize("first", [True, False])
    def test_memo_hides_no_fault_on_one_labeling(self, monkeypatch, first):
        # l + 1 for one labeled tree of the shape with the most labelings:
        # the first in rank order, whose outcome the sweep would store for
        # the shape, or the last, which would only be tallied
        n = 6
        shapes = _shape_ranks(n)
        ranks = max(shapes.values(), key=len)
        assert len(ranks) > 10
        rank = ranks[0] if first else ranks[-1]
        target, _, _ = prufer_arrays(prufer_from_rank(n, rank), n)
        forest_values = bounds._forest_values

        def faulty(parent, order, **kwargs):
            lv, *rest = forest_values(parent, order, **kwargs)
            return (lv + 1 if parent == target else lv, *rest)

        monkeypatch.setattr(bounds, "_forest_values", faulty)
        run = verify_theorems(n)
        assert {r.description.split()[0] for r in run.violations} == {_description(n, rank)}
        assert "dp-oracle" in {r.check for r in run.violations}

    def test_checks_run_once_per_shape(self, monkeypatch):
        calls = 0
        hc_bound_counts = bounds.hc_bound_counts

        def counted(*args):
            nonlocal calls
            calls += 1
            return hc_bound_counts(*args)

        monkeypatch.setattr(bounds, "hc_bound_counts", counted)
        run = verify_theorems(7)
        assert run.ok
        assert (calls, run.trees) == (873, 18248)
        # a shape whose trees fail has each of them checked alone
        calls = 0
        run = verify_theorems(7, SweepConfig(upper_slack=1))
        failing = {(r.n, r.description.split()[0]) for r in run.violations}
        expected = 0
        for n in range(2, 8):
            for ranks in _shape_ranks(n).values():
                fails = [(n, _description(n, rank)) in failing for rank in ranks]
                assert all(fails) or not any(fails)
                expected += len(ranks) if fails[0] else 1
        assert 873 < expected < run.trees
        assert calls == expected

    def test_scope_by_n(self, monkeypatch):
        # decycling's largest n lowered to 5: its oracle answers each shape
        # for n = 2..5 once, 1 + 2 + 6 + 24 of them, and skips every tree
        # of n = 6
        unpatched = verify_theorems(6)
        calls = 0
        kernel = bounds.decycling_masks

        def counted(adj):
            nonlocal calls
            calls += 1
            return kernel(adj)

        table = [(name, 5, *rest) if name == "decycling" else (name, max_n, *rest)
                 for name, max_n, *rest in bounds._CHECK_TABLE]
        monkeypatch.setattr(bounds, "_CHECK_TABLE", tuple(table))
        monkeypatch.setattr(bounds, "decycling_masks", counted)
        run = verify_theorems(6)
        assert calls == 33
        assert run.ok
        assert vars(run.counts["decycling"]) == dict(
            checked=145, skipped=1296, violations=0, saturated=60)
        for check in set(bounds.CHECKS) - {"decycling"}:
            assert run.counts[check] == unpatched.counts[check], check

    @pytest.mark.parametrize("processes", [1, 2])
    def test_oracle_calls_do_not_depend_on_the_process_count(self, monkeypatch, processes):
        # n = 8 is above the pool threshold, so two processes split its
        # rank space; the shape table is filled before the split, so the
        # oracle answers each of the 7! shapes once. The counter is shared
        # memory, so a call in a forked worker would count as well.
        calls = multiprocessing.Value("i", 0)
        kernel = bounds.linear_forest_edges

        def counted(n, edges):
            with calls.get_lock():
                calls.value += 1
            return kernel(n, edges)

        monkeypatch.setattr(bounds, "linear_forest_edges", counted)
        run = verify_theorems(8, n_min=8, processes=processes)
        assert run.ok and run.counts["dp-oracle"].checked == run.trees
        assert calls.value == factorial(7) == 5040

    # Reports when every leaf exchange counts one less than its true l, so
    # that each move that keeps l fails. The counts and digests were taken
    # from the per-pair reference: _forest_values over
    # reference.leaf_exchange_arrays for each checked pair, one less. Equal
    # digests mean the same pairs, in the same order, with the same
    # descriptions and values.
    @pytest.mark.parametrize(
        "all_pairs, count, digest",
        [
            (True, 4592, "7ee2bc09554b02ee851b606c5897cf4e0932a5073963504dc33898a9bee1f6d0"),
            (False, 4592, "7ee2bc09554b02ee851b606c5897cf4e0932a5073963504dc33898a9bee1f6d0"),
        ],
    )
    def test_leaf_exchange_failures_pinned(self, monkeypatch, all_pairs, count, digest):
        value_without_leaf = bounds._value_without_leaf
        monkeypatch.setattr(
            bounds, "_value_without_leaf", lambda *args: value_without_leaf(*args) - 1
        )
        run = verify_theorems(6, SweepConfig(leaf_exchange_all_pairs=all_pairs))
        assert {r.check for r in run.violations} == {"leaf-exchange"}
        text = "\n".join(r.to_text() for r in run.violations)
        assert len(run.violations) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_every_pair_of_a_failing_leaf_reported(self, monkeypatch):
        # the smallest leaf of each tree, the first asked about, fails
        value_without_leaf = bounds._value_without_leaf
        last_tree = None

        def first_leaf_fails(parent, ones, lv, u):
            nonlocal last_tree
            if ones is last_tree:
                return value_without_leaf(parent, ones, lv, u)
            last_tree = ones
            return value_without_leaf(parent, ones, lv, u) - 1

        monkeypatch.setattr(bounds, "_value_without_leaf", first_leaf_fails)
        default = verify_theorems(7).violations
        all_pairs = verify_theorems(7, SweepConfig(leaf_exchange_all_pairs=True)).violations
        assert default
        assert default == all_pairs


class TestReports:
    def test_csv_schema(self):
        report = BoundReport("diameter", "tree", 7, 4, 5, 4, 5, True)
        text = reports_to_csv([report])
        lines = text.splitlines()
        assert lines[0] == "# linforest-report v1"
        assert lines[1].startswith("check,description,n,d,")
        assert lines[2] == "diameter,tree,7,4,5,4,5,1"

    def test_csv_reads_back(self):
        """Descriptions such as prufer[0,1] hold commas; csv.reader splits
        every row into the eight columns and gets each description back."""
        reports = verify_theorems(6, SweepConfig(upper_slack=1)).violations
        rows = list(csv.reader(reports_to_csv(reports).splitlines()[2:]))
        assert len(rows) == len(reports)
        assert all(len(row) == 8 for row in rows)
        assert [row[1] for row in rows] == [r.description for r in reports]

    def test_text_line(self):
        report = BoundReport("hc-bounds", "tree", 5, None, 2, 1, 3, False)
        assert "VIOLATION" in report.to_text()


@pytest.mark.parametrize("call, message", [
    (lambda: verify_theorems(5, n_min=1), "sweep starts at n=2"),
    (lambda: perfect_kary_height(7, 1), "k must be at least 2, got 1"),
    (lambda: perfect_kary_recurrence(1, 3), "need k >= 2 and h >= 1, got k=1, h=3"),
    (lambda: perfect_kary_recurrence(2, 0), "need k >= 2 and h >= 1, got k=2, h=0"),
    (lambda: t2_star(20, 6), "t2star needs an odd diameter, got 6"),
    (lambda: list(enumerate_tree_arrays(4, 3, 2)), "invalid rank range [3, 2) for n=4"),
    (lambda: list(enumerate_tree_arrays(0)), "need n >= 1, got 0"),
    (lambda: prufer_from_rank(4, 16), "rank 16 out of range for n=4"),
    (lambda: prufer_decode([], 0), "need n >= 1"),
    (lambda: prufer_decode([0], 2), "sequence must be empty for n=2"),
    (lambda: kary_tree(0, []), "k must be positive, got 0"),
    (lambda: random_kary_tree(0, 1, 0), "k must be positive, got 0"),
    (lambda: random_kary_tree(2, -1, 0), "internal count must be non-negative"),
    (lambda: num_labeled_trees(0), "need n >= 1, got 0"),
    (lambda: Graph(-1, []), "vertex count must be non-negative, got -1"),
    (lambda: hc_bounds(1, 0), "completion bounds need out >= 2 leaves, got 1"),
    (lambda: hc_bounds(3, -1), "completion bounds need ex_sum >= 0, got -1"),
])
def test_value_error_messages(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
