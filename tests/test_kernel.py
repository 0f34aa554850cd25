"""The sweep's array kernel against the Graph-based functions it replaces,
on every labeled tree with n <= 7."""

from math import factorial

from linforest import (
    Graph,
    enumerate_tree_arrays,
    hc_bound_counts,
    leaf_exchange,
    max_linear_forest_value,
    prufer_decode,
    prufer_encode,
    prufer_from_rank,
    tree_diameter,
    tree_stats,
)
from linforest.bounds import _shape_table
from linforest.forest import _forest_values
from linforest.graph import RootedTree
from reference import hc_bound_counts_from_edges, leaf_exchange_arrays

N_MAX = 7


def _all_arrays():
    for n in range(1, N_MAX + 1):
        for rank, arrays in enumerate(enumerate_tree_arrays(n)):
            yield n, rank, arrays


def _edges(parent):
    return [(v, p) for v, p in enumerate(parent) if p is not None]


def _assert_rooted_arrays(parent, order):
    """order is a permutation listing children before parents, root last."""
    n = len(parent)
    root = order[-1]
    assert sorted(order) == list(range(n))
    assert parent[root] is None
    position = {v: i for i, v in enumerate(order)}
    assert all(position[v] < position[parent[v]] for v in range(n) if v != root)


def test_arrays_rebuild_the_decoded_graph():
    for n, rank, (parent, order, degree) in _all_arrays():
        seq = prufer_from_rank(n, rank)
        g = prufer_decode(seq, n)
        assert Graph(n, _edges(parent)) == g
        _assert_rooted_arrays(parent, order)
        assert order[-1] == n - 1
        assert degree == [g.degree(v) for v in range(n)]
        assert prufer_encode(g) == seq


def test_value_diameter_and_hc_counts():
    for n, _, (parent, order, degree) in _all_arrays():
        g = Graph(n, _edges(parent))
        t = RootedTree(g, 0)
        value, _, _, _ = _forest_values(parent, order)
        assert value == max_linear_forest_value(t)
        expected = hc_bound_counts_from_edges(degree, _edges(parent))
        assert hc_bound_counts(degree, parent) == expected


def test_shape_table_diameters():
    """One entry per shape, (n-1)! of them, and each labeled tree's shape
    holds the diameter of the tree its Prüfer rank decodes to."""
    tables = {n: _shape_table(n) for n in range(2, N_MAX + 2)}
    for n, table in tables.items():
        assert len(table) == factorial(n - 1)
    trees = 0
    for n, rank, (parent, order, _) in _all_arrays():
        if n < 2:
            continue
        pos = {v: i for i, v in enumerate(order)}
        d = tables[n][tuple(pos[parent[v]] for v in order[:-1])][0]
        assert d == tree_diameter(prufer_decode(prufer_from_rank(n, rank), n))
        trees += 1
    assert trees == sum(n ** (n - 2) for n in range(2, N_MAX + 1))


def test_hc_counts_at_every_root():
    """The counts from any rooting's parent pointers, and tree_stats, equal
    the edge-list reference."""
    for n, _, (parent, _, degree) in _all_arrays():
        g = Graph(n, _edges(parent))
        out, excess = hc_bound_counts_from_edges(degree, g.edges)
        for root in range(n):
            t = RootedTree(g, root)
            assert hc_bound_counts(degree, t.parent) == (out, excess)
            assert tree_stats(t) == (out, excess)


def test_leaf_exchange_on_every_ordered_leaf_pair():
    root_moves = 0
    for n, _, (parent, order, degree) in _all_arrays():
        g = Graph(n, _edges(parent))
        leaves = [v for v in range(n) if degree[v] == 1]
        for a in leaves:
            for b in leaves:
                if a == b:
                    continue
                moved_parent, moved_order = leaf_exchange_arrays(parent, order, a, b)
                _assert_rooted_arrays(moved_parent, moved_order)
                h = leaf_exchange(g, a, b)
                assert Graph(n, _edges(moved_parent)) == h
                value = _forest_values(moved_parent, moved_order)[0]
                assert value == max_linear_forest_value(RootedTree(h, 0))
                root_moves += a == n - 1
    assert root_moves > 0
