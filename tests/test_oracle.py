import pytest

from linforest import (
    CapExceeded,
    Graph,
    decycling_number,
    hc_bf,
    is_hamiltonian,
    line_graph,
    longest_path_bf,
    max_induced_forest,
    max_induced_tree,
    max_linear_forest_bf,
    path_graph,
    perfect_kary,
    spider,
    star_graph,
)
from reference import spanning_trees

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def check_acyclic(g: Graph, vertices) -> bool:
    members = set(vertices)
    edges = [(u, v) for u, v in g.edges if u in members and v in members]
    parent = {v: v for v in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TestInducedForest:
    def test_triangle(self):
        res = max_induced_forest(K3)
        assert res.value == 2
        assert res.witness == (0, 1)  # lexicographically smallest

    def test_tree_is_its_own_forest(self):
        g = spider([2, 1, 1])
        assert max_induced_forest(g).value == g.n

    def test_line_of_claw(self):
        L = line_graph(star_graph(4)).graph
        assert max_induced_forest(L).value == 2
        assert decycling_number(L).value == 1

    def test_witness_revalidates(self):
        for g in (K3, C4, C5, line_graph(perfect_kary(2, 3)).graph):
            res = max_induced_forest(g)
            assert check_acyclic(g, res.witness)
            assert len(res.witness) == res.value

    def test_cap(self):
        with pytest.raises(CapExceeded):
            max_induced_forest(path_graph(25))
        assert max_induced_forest(path_graph(25), cap=25).value == 25


class TestDecycling:
    def test_triangle(self):
        assert decycling_number(K3).value == 1

    def test_trees_are_zero(self):
        assert decycling_number(spider([3, 2])).value == 0

    def test_line_of_perfect_binary(self):
        L = line_graph(perfect_kary(2, 3)).graph
        assert L.n == 6
        assert decycling_number(L).value == 2

    def test_witness_is_complement(self):
        res = decycling_number(C4)
        assert res.value == 1
        remaining = [v for v in range(4) if v not in res.witness]
        assert check_acyclic(C4, remaining)


class TestInducedTree:
    def test_triangle(self):
        assert max_induced_tree(K3).value == 2

    def test_path(self):
        assert max_induced_tree(path_graph(5)).value == 5

    def test_line_of_spider(self):
        # longest path in the spider has 4 edges, so the induced tree in
        # the line graph has 4 vertices
        L = line_graph(spider([2, 2, 2])).graph
        assert max_induced_tree(L).value == 4


class TestLinearForestBf:
    def test_cycle(self):
        res = max_linear_forest_bf(C4)
        assert res.value == 3

    def test_claw(self):
        assert max_linear_forest_bf(star_graph(4)).value == 2

    def test_spider(self):
        assert max_linear_forest_bf(spider([2, 2, 2])).value == 5

    def test_witness_revalidates(self):
        for g in (C4, C5, K3, spider([2, 2, 2])):
            res = max_linear_forest_bf(g)
            degs = {}
            for u, v in res.witness:
                assert g.has_edge(u, v)
                degs[u] = degs.get(u, 0) + 1
                degs[v] = degs.get(v, 0) + 1
            assert all(d <= 2 for d in degs.values())

    def test_witness_lex_smallest(self):
        # the whole path is the unique maximum
        res = max_linear_forest_bf(path_graph(4))
        assert res.witness == ((0, 1), (1, 2), (2, 3))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            max_linear_forest_bf(star_graph(26))
        with pytest.raises(CapExceeded):
            max_linear_forest_bf(star_graph(8), cap=6)
        assert max_linear_forest_bf(star_graph(8), cap=7).value == 2


class TestLongestPath:
    def test_examples(self):
        assert longest_path_bf(path_graph(5)).value == 4
        assert longest_path_bf(star_graph(4)).value == 2
        assert longest_path_bf(perfect_kary(2, 3)).value == 4

    def test_witness_is_a_path(self):
        res = longest_path_bf(perfect_kary(2, 3))
        w = res.witness
        assert len(w) == res.value + 1
        assert len(set(w)) == len(w)
        g = perfect_kary(2, 3)
        assert all(g.has_edge(a, b) for a, b in zip(w, w[1:]))

    def test_single_vertex(self):
        assert longest_path_bf(path_graph(1)).value == 0


class TestHamiltonian:
    def test_cycle_true(self):
        assert is_hamiltonian(C5)

    def test_tree_false(self):
        assert not is_hamiltonian(spider([2, 2]))
        assert not is_hamiltonian(path_graph(5))

    def test_closed_path(self):
        assert is_hamiltonian(Graph(5, path_graph(5).edges + ((0, 4),)))

    def test_tiny(self):
        assert not is_hamiltonian(path_graph(2))


class TestHcBf:
    def test_examples(self):
        assert hc_bf(C5) == 0
        assert hc_bf(path_graph(5)) == 1
        assert hc_bf(star_graph(4)) == 2

    def test_matches_identity_on_small_trees(self):
        from linforest import enumerate_trees, l_of_tree

        for n in range(3, 7):
            for g in enumerate_trees(n):
                assert hc_bf(g) == n - l_of_tree(g)

    def test_matches_identity_on_sampled_trees(self):
        from linforest import l_of_tree, random_tree

        for n in (7, 8, 9):
            for seed in range(40):
                g = random_tree(n, 3_000 + 17 * n + seed)
                assert hc_bf(g) == n - l_of_tree(g)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            hc_bf(path_graph(12))


class TestSpanningTrees:
    def test_counts(self):
        assert sum(1 for _ in spanning_trees(C4)) == 4
        k4 = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert sum(1 for _ in spanning_trees(k4)) == 16  # Cayley 4^2

    def test_all_are_trees(self):
        assert all(t.is_tree() for t in spanning_trees(C5))

    def test_maximization_identity(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        direct = max_linear_forest_bf(g).value
        assert direct == max(max_linear_forest_bf(t).value for t in spanning_trees(g))
