import random

import pytest

from linforest import (
    Graph,
    NotATree,
    enumerate_tree_arrays,
    enumerate_trees,
    kary_tree,
    num_labeled_trees,
    path_graph,
    perfect_kary,
    perfect_kary_size,
    prufer_arrays,
    prufer_decode,
    prufer_encode,
    prufer_from_rank,
    random_kary_tree,
    random_tree,
    spider,
    star_graph,
)


class TestFamilies:
    def test_path(self):
        g = path_graph(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_star(self):
        g = star_graph(5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_spider_sizes(self):
        g = spider([2, 2, 2])
        assert g.n == 7 and g.degree(0) == 3

    def test_spider_rejects_zero_leg(self):
        with pytest.raises(ValueError):
            spider([2, 0])

    def test_kary_tree(self):
        g = kary_tree(2, [0, 1])
        assert g.n == 5
        assert g.degree(0) == 2 and g.degree(1) == 3

    def test_kary_rejects_double_expansion(self):
        with pytest.raises(ValueError, match="already has children"):
            kary_tree(2, [0, 0])

    def test_kary_rejects_missing_vertex(self):
        with pytest.raises(ValueError, match="only 1 vertices"):
            kary_tree(3, [1])

    def test_random_kary_is_kary(self):
        g = random_kary_tree(3, 5, seed=11)
        assert g.n == 16
        t_degs = sorted(g.degree(v) for v in range(g.n))
        # root has 0 or 3 children; everyone else 1 + (0 or 3)
        assert all(d in (1, 3, 4) for d in t_degs)

    def test_random_kary_deterministic(self):
        assert random_kary_tree(2, 6, seed=3) == random_kary_tree(2, 6, seed=3)


class TestPerfectKary:
    def test_sizes(self):
        assert perfect_kary_size(2, 3) == 7
        assert perfect_kary_size(3, 2) == 4

    def test_binary_three_levels(self):
        g = perfect_kary(2, 3)
        assert g.n == 7 and g.is_tree()
        assert sorted(g.degree(v) for v in range(7)) == [1, 1, 1, 1, 2, 3, 3]

    def test_claw(self):
        assert perfect_kary(3, 2) == star_graph(4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            perfect_kary(2, 0)
        with pytest.raises(ValueError):
            perfect_kary(0, 2)


class TestPrufer:
    def test_decode_claw(self):
        # sequence [0,0]: leaves 1 then 2 attach to 0, then 0-3 closes it
        g = prufer_decode([0, 0])
        assert g == star_graph(4)

    def test_decode_examples(self):
        assert prufer_decode([], 2) == path_graph(2)
        assert prufer_decode([], 1).n == 1

    def test_decode_rejects_bad(self):
        with pytest.raises(ValueError):
            prufer_decode([4], 4)
        with pytest.raises(ValueError):
            prufer_decode([0], 4)

    def test_encode_decode_roundtrip(self):
        for n in range(1, 8):
            for rank in range(num_labeled_trees(n)):
                seq = prufer_from_rank(n, rank)
                assert prufer_encode(prufer_decode(seq, n)) == seq

    def test_decode_encode_roundtrip_on_trees(self):
        for seed in range(20):
            g = random_tree(8, seed)
            assert prufer_decode(prufer_encode(g)) == g

    def test_encode_rejects_non_trees(self):
        for g in (Graph(0, []), Graph(3, [(0, 1), (1, 2), (0, 2)]), Graph(4, [(0, 1), (2, 3)])):
            with pytest.raises(NotATree, match="^prufer_encode needs a tree$"):
                prufer_encode(g)

    def test_encode_runs_no_separate_tree_test(self, monkeypatch):
        """The rooting at n-1 is the tree test: no Graph.is_tree call."""
        def refuse(self):
            raise AssertionError("Graph.is_tree called")

        monkeypatch.setattr(Graph, "is_tree", refuse)
        assert prufer_encode(prufer_decode([3, 0, 3, 5], 6)) == (3, 0, 3, 5)
        assert prufer_encode(path_graph(2)) == ()
        with pytest.raises(NotATree):
            prufer_encode(Graph(4, [(0, 1), (1, 2), (0, 2)]))

    def test_random_tree_deterministic(self):
        assert random_tree(9, 4) == random_tree(9, 4)
        assert random_tree(9, 4) != random_tree(9, 5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 2**16, 2**16 + 1])
    def test_random_tree_draws_randrange(self, n):
        """random_tree's sequence is that of n - 2 calls randrange(n),
        which it draws with getrandbits; n = 2^16 + 1 rejects almost half
        of its draws."""
        for seed in range(5):
            rng = random.Random(seed)
            seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
            g = random_tree(n, seed)
            assert g == prufer_decode(seq, n)
            assert prufer_encode(g) == seq


class TestEnumeration:
    def test_counts(self):
        assert num_labeled_trees(1) == 1
        assert num_labeled_trees(2) == 1
        assert sum(1 for _ in enumerate_trees(3)) == 3
        assert sum(1 for _ in enumerate_trees(4)) == 16
        assert sum(1 for _ in enumerate_trees(6)) == 1296

    def test_all_distinct(self):
        seen = {g.edges for g in enumerate_trees(5)}
        assert len(seen) == 125

    def test_all_are_trees(self):
        assert all(g.is_tree() for g in enumerate_trees(5))

    def test_range_partitioning(self):
        whole = [g.edges for g in enumerate_trees(5)]
        # cut points, repeated ones giving empty ranges (start == stop)
        for cuts in ((60,), (0, 0, 60, 60, 125, 125), (1, 24, 25, 26, 124)):
            bounds = (0, *cuts, 125)
            split = []
            for start, stop in zip(bounds, bounds[1:]):
                split += [g.edges for g in enumerate_trees(5, start, stop)]
            assert split == whole, cuts
        assert list(enumerate_trees(5, 60, 60)) == []

    def test_rank_matches_order(self):
        for rank, g in enumerate(enumerate_trees(4)):
            assert prufer_decode(prufer_from_rank(4, rank)) == g
        for n in range(1, 8):
            ranks = 0
            for rank, arrays in enumerate(enumerate_tree_arrays(n)):
                assert arrays == prufer_arrays(prufer_from_rank(n, rank), n)
                ranks += 1
            assert ranks == num_labeled_trees(n)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            next(enumerate_trees(11))

    def test_tiny(self):
        assert [g.n for g in enumerate_trees(1)] == [1]
        assert [g.edges for g in enumerate_trees(2)] == [((0, 1),)]
