import hashlib
import itertools

import pytest

from linforest import (
    Graph,
    NotATree,
    enumerate_tree_arrays,
    enumerate_trees,
    hc_bounds,
    hc_construct,
    hc_of_tree,
    is_hamiltonian,
    is_hamiltonian_cycle,
    is_linear_forest,
    l_of_tree,
    leaf_exchange,
    max_linear_forest,
    max_linear_forest_bf,
    max_linear_forest_value,
    path_graph,
    perfect_kary,
    random_tree,
    root_at_center,
    spider,
    star_graph,
    t2_star,
    t_star,
    tree_stats,
)
from linforest.forest import _forest_values, _value_without_leaf
from linforest.graph import RootedTree
from reference import leaf_exchange_arrays, max_linear_forest_allpairs


class TestDp:
    def test_path5(self):
        rec = max_linear_forest(root_at_center(path_graph(5)))
        assert rec.value == 4
        assert rec.best.edges == path_graph(5).edges

    def test_claw(self):
        rec = max_linear_forest(root_at_center(star_graph(4)))
        assert rec.value == 2
        assert rec.value_constrained == 1

    def test_perfect_binary(self):
        assert l_of_tree(perfect_kary(2, 3)) == 4

    def test_single_vertex(self):
        rec = max_linear_forest(RootedTree(Graph(1, []), 0))
        assert rec.value == 0 and rec.best.edges == ()

    def test_forests_are_valid(self):
        for seed in range(25):
            g = random_tree(12, seed)
            t = root_at_center(g)
            rec = max_linear_forest(t)
            assert is_linear_forest(g, rec.best.edges)
            assert is_linear_forest(g, rec.best_constrained.edges)
            root_deg = sum(1 for u, v in rec.best_constrained.edges if t.root in (u, v))
            assert root_deg <= 1
            assert rec.value_constrained <= rec.value

    def test_root_independence(self):
        for seed in range(10):
            g = random_tree(9, seed)
            values = {max_linear_forest_value(RootedTree(g, r)) for r in range(g.n)}
            assert len(values) == 1

    def test_edges_pinned(self):
        # tie-break smallest child id first; digest of every forest n <= 7
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in enumerate_trees(n):
                rec = max_linear_forest(root_at_center(g))
                digest.update(repr((rec.best.edges, rec.best_constrained.edges)).encode())
        assert digest.hexdigest() == (
            "b3f1ba7494d4fbf57ec03ff09840ac01d70c110eb1db6ac8385c6524d42d1289"
        )

    def test_allpairs_variant_identical(self):
        for seed in range(40):
            g = random_tree(11, seed)
            t = root_at_center(g)
            assert max_linear_forest_allpairs(t) == max_linear_forest(t)

    def test_matches_oracle_exhaustively(self):
        for n in range(2, 7):
            for g in enumerate_trees(n):
                assert max_linear_forest_value(RootedTree(g, 0)) == max_linear_forest_bf(g).value

    def test_deep_path_no_recursion_limit(self):
        assert l_of_tree(path_graph(5000)) == 4999


class TestGainsAndReconstruction:
    def test_gain_is_zero_or_one_at_every_root(self):
        # the lemma the 0/1-gain pass rests on, read off the quadratic
        # reference solver, which scores every candidate without it
        for n in range(1, 8):
            for g in enumerate_trees(n):
                for root in range(n):
                    t = RootedTree(g, root)
                    rec = max_linear_forest_allpairs(t)
                    assert rec.value - rec.value_constrained in (0, 1)
                    assert rec.value == _forest_values(t.parent, t.order)[0]

    def test_both_forests_of_both_solvers(self):
        # sizes by brute force: with a new leaf hung at the root, the best
        # forest has one edge more than the best with the root at degree <= 1
        for n in range(1, 8):
            for g in enumerate_trees(n):
                best = max_linear_forest_bf(g).value
                for root in sorted({0, n - 1, root_at_center(g).root}):
                    t = RootedTree(g, root)
                    rec = max_linear_forest(t)
                    assert max_linear_forest_allpairs(t) == rec
                    for forest in (rec.best, rec.best_constrained):
                        assert is_linear_forest(g, forest.edges)
                    assert sum(root in e for e in rec.best_constrained.edges) <= 1
                    hung = Graph(n + 1, [*g.edges, (root, n)])
                    assert rec.value == best
                    assert rec.value_constrained == max_linear_forest_bf(hung).value - 1


class TestLOfTree:
    def test_star6(self):
        assert l_of_tree(star_graph(6)) == 2

    def test_spider(self):
        assert l_of_tree(spider([2, 2, 2])) == 5
        assert max_linear_forest_bf(spider([2, 2, 2])).value == 5

    def test_p2(self):
        assert l_of_tree(path_graph(2)) == 1

    def test_p1(self):
        assert l_of_tree(path_graph(1)) == 0

    def test_matches_rooted_dp_exhaustively(self):
        for n in range(1, 8):
            for g in enumerate_trees(n):
                assert l_of_tree(g) == max_linear_forest_value(RootedTree(g, 0))


def test_is_linear_forest_rejects_repeats_and_non_edges():
    g = path_graph(4)
    assert is_linear_forest(g, [(0, 1), (2, 3)])
    assert not is_linear_forest(g, [(0, 1), (0, 1)])
    assert not is_linear_forest(g, [(0, 1), (1, 0)])
    assert not is_linear_forest(g, [(0, 2)])


class TestHc:
    def test_values(self):
        assert hc_of_tree(path_graph(5)) == 1
        assert hc_of_tree(star_graph(4)) == 2
        assert hc_of_tree(spider([2, 2, 2])) == 2
        assert hc_of_tree(path_graph(2)) == 1

    def test_rejects_tiny_and_nontree(self):
        with pytest.raises(ValueError):
            hc_of_tree(path_graph(1))
        with pytest.raises(ValueError):
            hc_of_tree(Graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_empty_graph_is_not_a_tree(self):
        """The peel runs before the size check, so the empty graph is
        rejected as a non-tree, as every other caller of the peel sees it."""
        with pytest.raises(NotATree, match="^not a tree: edge count differs from n-1$"):
            hc_of_tree(Graph(0, []))

    def test_lower_bound_examples(self):
        def lower(g):
            out, excess = tree_stats(root_at_center(g))
            return hc_bounds(out, sum(excess))[0]

        assert lower(star_graph(4)) == 2
        assert lower(path_graph(5)) == 1
        assert lower(spider([2, 2, 2])) == 2
        # five leaves and no excess: the bound rounds 5/2 up
        caterpillar = Graph(8, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5), (2, 6), (2, 7)])
        assert lower(caterpillar) == 3


@pytest.mark.parametrize("solve", [hc_of_tree, hc_construct])
def test_non_trees_raise_not_a_tree(solve):
    """Every non-tree on 3 to 5 vertices, leafless ones such as C4 or a
    triangle plus an isolated vertex included, fails with a NotATree that
    names the reason."""
    for n in range(3, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for size in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, size):
                g = Graph(n, edges)
                if not g.is_tree():
                    with pytest.raises(NotATree, match="^not a tree: "):
                        solve(g)


class TestHcConstruct:
    def test_path5(self):
        comp = hc_construct(path_graph(5))
        assert comp.added_edges == ((0, 4),)

    def test_examples_hamiltonian(self):
        for g in (path_graph(5), star_graph(4), spider([2, 2, 2]), perfect_kary(2, 3)):
            comp = hc_construct(g)
            out = sum(1 for v in range(g.n) if g.degree(v) == 1)
            assert len(comp) == out - 1
            assert set(comp.added_edges).isdisjoint(g.edge_set())
            assert is_hamiltonian(Graph(g.n, g.edges + comp.added_edges))
            assert is_hamiltonian_cycle(g, comp.added_edges, comp.cycle)

    def test_random_trees(self):
        for seed in range(30):
            g = random_tree(11, seed)
            comp = hc_construct(g)
            out = sum(1 for v in range(g.n) if g.degree(v) == 1)
            assert len(comp) == out - 1
            assert is_hamiltonian(Graph(g.n, g.edges + comp.added_edges))
            assert is_hamiltonian_cycle(g, comp.added_edges, comp.cycle)

    def test_added_edges_pinned(self):
        # digest of the completions of every labeled tree n = 3..8
        digest = hashlib.sha256()
        for n in range(3, 9):
            for g in enumerate_trees(n):
                digest.update(repr(hc_construct(g).added_edges).encode())
        assert digest.hexdigest() == (
            "7eac4febabca49bb6eea39494e206b6a8add861dcd453766bda4703aa8ca217a"
        )

    @pytest.mark.parametrize("make", [
        lambda: random_tree(10**5, 3),
        lambda: star_graph(10**5),
        lambda: spider([1000] * 100),
    ], ids=["random", "star", "spider"])
    def test_certificate_at_scale(self, make):
        g = make()
        comp = hc_construct(g)
        out = sum(1 for v in range(g.n) if g.degree(v) == 1)
        assert len(comp) == out - 1
        assert is_hamiltonian_cycle(g, comp.added_edges, comp.cycle)

    def test_certificate_rejects_mutations(self):
        g = spider([2, 2, 2])
        comp = hc_construct(g)
        added, cycle = comp.added_edges, comp.cycle
        assert is_hamiltonian_cycle(g, added, cycle)
        assert not is_hamiltonian_cycle(g, added, cycle[:-1])  # a vertex missed
        assert not is_hamiltonian_cycle(g, added, cycle[:-1] + cycle[:1])  # one repeated
        assert not is_hamiltonian_cycle(g, added, cycle[:-1] + (g.n,))  # out of range
        for i in range(g.n):  # two neighbors swapped
            j = (i + 1) % g.n
            swapped = list(cycle)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert not is_hamiltonian_cycle(g, added, swapped)
        assert not is_hamiltonian_cycle(g, added[1:], cycle)  # a step on no edge
        assert not is_hamiltonian_cycle(g, added + added[:1], cycle)  # duplicated
        assert not is_hamiltonian_cycle(g, added + (g.edges[0],), cycle)  # a tree edge
        assert is_hamiltonian_cycle(g, added + ((1, 3),), cycle)  # unused, still a completion
        for bogus in ((1, 1), (0, 7), (-1, 1)):  # a loop, an endpoint out of range
            assert not is_hamiltonian_cycle(path_graph(3), [(0, 2), bogus], [0, 1, 2])
        # a closed walk on edges that revisits 1 and misses 3
        assert is_hamiltonian_cycle(path_graph(4), ((0, 3),), (0, 1, 2, 3))
        assert not is_hamiltonian_cycle(path_graph(4), ((0, 3),), (1, 0, 1, 2))
        assert not is_hamiltonian_cycle(path_graph(2), (), (0, 1))

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            hc_construct(path_graph(2))


def test_witnesses_pinned_at_scale():
    """Both forests at the center root and the completion, on deterministic
    trees of 10^4 to 10^5 vertices: a one-vertex center, a two-vertex
    center (the smaller-id tie-break), a perfect 3-ary tree and a spider."""
    digest = hashlib.sha256()
    for g in (t_star(10**5, 8), t2_star(10**5, 9), perfect_kary(3, 10), spider([1000] * 100)):
        rec = max_linear_forest(root_at_center(g))
        comp = hc_construct(g)
        digest.update(repr((g.n, rec.best.edges, rec.best_constrained.edges,
                            comp.added_edges, comp.cycle)).encode())
    assert digest.hexdigest() == (
        "8ab2e1b4bd74a21c028bad6023244687f03d8019527f5aa5682dbcd86fd8a4ce"
    )


class TestLeafExchange:
    def test_claw_to_path(self):
        g = leaf_exchange(star_graph(4), 1, 2)
        assert g.is_tree()
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_path_end_to_end(self):
        g = leaf_exchange(path_graph(4), 0, 3)
        assert g.is_tree()
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_spider_move(self):
        before = spider([2, 2, 2])
        after = leaf_exchange(before, 2, 4)
        assert after.is_tree()
        assert max_linear_forest_bf(before).value == 5
        assert max_linear_forest_bf(after).value >= 5

    def test_adjacent_leaves(self):
        assert leaf_exchange(path_graph(2), 0, 1) == path_graph(2)

    def test_rejects_non_leaf(self):
        with pytest.raises(ValueError, match="not a leaf"):
            leaf_exchange(path_graph(4), 1, 3)

    def test_rejects_same(self):
        with pytest.raises(ValueError, match="distinct"):
            leaf_exchange(path_graph(4), 0, 0)

    def test_never_decreases_l(self):
        for n in range(3, 7):
            for g in enumerate_trees(n):
                lv = l_of_tree(g)
                leaves = [v for v in range(n) if g.degree(v) == 1]
                for a in leaves:
                    for b in leaves:
                        if a != b:
                            assert l_of_tree(leaf_exchange(g, a, b)) >= lv

    def test_walk_matches_a_pass_per_pair(self):
        # the per-leaf walk, plus 1, against a full pass over each exchanged
        # tree; the enumeration roots every tree at n - 1, often a leaf
        root_moves = pairs = 0
        for n in range(2, 8):
            for parent, order, degree in enumerate_tree_arrays(n):
                lv, ones, _, _ = _forest_values(parent, order)
                leaves = [v for v in range(n) if degree[v] == 1]
                for a in leaves:
                    moved = _value_without_leaf(parent, ones, lv, a) + 1
                    for b in leaves:
                        if a != b:
                            exchanged = leaf_exchange_arrays(parent, order, a, b)
                            assert moved == _forest_values(*exchanged)[0]
                            pairs += 1
                            root_moves += a == n - 1
        assert root_moves > 0 and pairs > 100_000

