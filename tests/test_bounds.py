import hashlib
from dataclasses import fields
from fractions import Fraction

import pytest

from linforest import (
    FamilyFlags,
    SweepConfig,
    decycling_number,
    diam_bounds_decycling,
    diam_bounds_l,
    diam_upper_l_fine,
    enumerate_trees,
    family_predicates,
    kary_bounds_decycling,
    kary_bounds_l,
    kary_caterpillar,
    kary_caterpillar_l,
    l_of_tree,
    line_graph,
    lower_spider,
    perfect_kary_decycling,
    perfect_kary_height,
    perfect_kary_l,
    perfect_kary_recurrence,
    perfect_kary_size,
    random_kary_tree,
    reports_to_csv,
    root_at_center,
    star_graph,
    t1_star,
    t2_star,
    t_star,
    tree_diameter,
    tree_stats,
    verify_theorems,
)
from linforest import bounds
from linforest.bounds import BoundReport, CheckCounts, _sweep_range
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

    def test_decycling_complements_l(self):
        for k in range(1, 5):
            for n in range(k + 1, 60, k):
                low_l, high_l = kary_bounds_l(n, k)
                assert kary_bounds_decycling(n, k) == (n - 1 - high_l, n - 1 - low_l)

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

    def test_caterpillar_rejects(self):
        with pytest.raises(ValueError):
            kary_caterpillar(8, 3)

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


class TestFamilyPredicates:
    def test_t_star_in_t3(self):
        flags = family_predicates(root_at_center(t_star(8, 4)))
        assert flags.in_t1 and flags.in_t2 and flags.in_t3

    def test_star_in_t1_not_t3(self):
        flags = family_predicates(root_at_center(star_graph(4)))
        assert flags.in_t1 and flags.in_t2 and not flags.in_t3

    def test_deep_branching_excluded(self):
        # a degree-4 vertex at depth 2 violates the depth>=2 degree cap
        g = Graph(
            9,
            [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5), (0, 6), (6, 7), (7, 8)],
        )
        t = root_at_center(g)
        assert any(t.depth[v] >= 2 and g.degree(v) > 2 for v in range(g.n))
        assert not family_predicates(t).in_t1


    def test_matches_tree_stats_reference(self):
        def reference(t, d):
            stats = tree_stats(t)
            if d is None:
                d = stats.diameter
            g = t.graph
            near = set(g.adjacency[t.root])
            in_t1 = (
                stats.diameter <= d
                and stats.radius <= -(-d // 2)
                and all(g.degree(v) <= (3 if v in near else 2) for v in range(g.n) if v != t.root)
            )
            return FamilyFlags(in_t1, in_t1 and stats.s <= 3, in_t1 and 2 <= stats.s <= 3)

        members = 0
        for n in range(1, 8):
            for g in enumerate_trees(n):
                t = root_at_center(g)
                for d in (None, 4, 5, 6):
                    flags = family_predicates(t, d)
                    assert flags == reference(t, d)
                    members += flags.in_t3
        assert members > 0


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

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError, match="cap"):
            verify_theorems(12)

    def test_split_ranges_match_one_range(self):
        # 6^3 = 216: rank 215 is prufer[0,5,5,5] and rank 216 carries
        # through every digit to prufer[1,0,0,0]
        n, total = 6, 6**4
        cuts = [0, 1, 215, 216, 217, 700, total]
        for cfg in (
            SweepConfig(leaf_exchange_all_pairs=True, upper_slack=1),
            SweepConfig(upper_slack=1),
        ):
            whole_counts, whole_violations = _sweep_range((n, 0, total, cfg))
            counts = {check: CheckCounts() for check in whole_counts}
            violations = []
            for lo, hi in zip(cuts, cuts[1:]):
                part_counts, part_violations = _sweep_range((n, lo, hi, cfg))
                for check, c in part_counts.items():
                    counts[check].merge(c)
                violations += part_violations
            assert whole_violations
            assert counts == whole_counts
            assert violations == whole_violations

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

    # Reports when every leaf exchange counts one less than its true l, so
    # that each move that keeps l fails. The counts and digests were taken
    # from the per-pair reference: _forest_values over _leaf_exchange_arrays
    # for each checked pair, one less. Equal digests mean the same pairs,
    # in the same order, with the same descriptions and values.
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

    def test_text_line(self):
        report = BoundReport("hc-bounds", "tree", 5, None, 2, 1, 3, False)
        assert "VIOLATION" in report.to_text()
