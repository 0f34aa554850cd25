"""Property-based checks of the structural invariants."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from linforest import (
    Graph,
    is_linear_forest,
    l_of_tree,
    leaf_exchange,
    line_graph,
    max_linear_forest,
    max_linear_forest_bf,
    max_linear_forest_value,
    prufer_decode,
    prufer_encode,
    root_at_center,
    tree_center,
    tree_diameter,
    tree_stats,
)
from linforest.graph import RootedTree
from reference import max_linear_forest_allpairs


@st.composite
def prufer_sequences(draw, max_n=9):
    n = draw(st.integers(min_value=3, max_value=max_n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return n, tuple(seq)


@st.composite
def trees(draw, max_n=9):
    n, seq = draw(prufer_sequences(max_n))
    return prufer_decode(seq, n)


@st.composite
def connected_graphs(draw, max_n=7, max_extra=4):
    tree = draw(trees(max_n))
    n = tree.n
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree.edge_set()
    ]
    extra = draw(
        st.lists(st.sampled_from(non_edges), unique=True, max_size=max_extra)
        if non_edges
        else st.just([])
    )
    return Graph(n, tree.edges + tuple(extra))


@given(trees())
def test_prufer_roundtrip_on_trees(g):
    assert prufer_decode(prufer_encode(g)) == g


@given(prufer_sequences())
def test_prufer_roundtrip_on_sequences(args):
    n, seq = args
    assert prufer_encode(prufer_decode(seq, n)) == seq


@given(connected_graphs())
def test_line_graph_counts(g):
    lg = line_graph(g).graph
    assert lg.n == g.m
    assert lg.m == sum(g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n))


@given(trees())
def test_line_graph_of_tree_is_claw_free(g):
    lg = line_graph(g).graph
    for v in range(lg.n):
        nbrs = lg.adjacency[v]
        for trio in itertools.combinations(nbrs, 3):
            assert any(
                lg.has_edge(a, b) for a, b in itertools.combinations(trio, 2)
            )


@given(trees())
def test_center_radius_diameter(g):
    out, _ = tree_stats(root_at_center(g))
    assert len(tree_center(g)) == 1 + tree_diameter(g) % 2
    assert out >= 2


@given(trees())
def test_dp_forests_satisfy_invariants(g):
    t = root_at_center(g)
    rec = max_linear_forest(t)
    assert is_linear_forest(g, rec.best.edges)
    assert is_linear_forest(g, rec.best_constrained.edges)
    assert rec.value_constrained <= rec.value
    assert sum(1 for u, v in rec.best_constrained.edges if t.root in (u, v)) <= 1


@given(trees(max_n=8))
def test_dp_matches_bruteforce(g):
    assert max_linear_forest_value(root_at_center(g)) == max_linear_forest_bf(g).value


@given(trees())
def test_dp_root_independent(g):
    base = max_linear_forest_value(RootedTree(g, 0))
    for root in range(1, g.n):
        assert max_linear_forest_value(RootedTree(g, root)) == base


@given(trees())
def test_allpairs_agrees(g):
    t = root_at_center(g)
    assert max_linear_forest_allpairs(t) == max_linear_forest(t)


@given(trees(max_n=8), st.data())
def test_leaf_exchange_monotone(g, data):
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    u_i = data.draw(st.sampled_from(leaves))
    u_j = data.draw(st.sampled_from([v for v in leaves if v != u_i]))
    assert l_of_tree(leaf_exchange(g, u_i, u_j)) >= l_of_tree(g)


@given(connected_graphs(max_n=6, max_extra=3))
@settings(max_examples=60)
def test_hamiltonian_completion_identity(g):
    from linforest import hc_bf, l_of_tree

    if g.is_tree():
        assert hc_bf(g) == g.n - l_of_tree(g)


@given(trees(max_n=7))
@settings(max_examples=60)
def test_dual_route_decycling(g):
    from linforest import decycling_number

    lg = line_graph(g).graph
    assert decycling_number(lg).value == g.n - 1 - l_of_tree(g)


@given(connected_graphs(max_n=6, max_extra=3))
@settings(max_examples=60)
def test_line_graph_decycling_lower_bound(g):
    from linforest import decycling_number

    lg = line_graph(g).graph
    assert decycling_number(lg).value >= g.m - g.n + 1
