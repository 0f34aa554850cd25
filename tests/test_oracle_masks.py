"""The brute-force oracles on bitmasks: their exact outputs, the line graph
they run on, the sweep's use of them, and the one union-find.

Each digest is a SHA-256 over ``repr((value, witness))`` of every call, in
enumeration order, so a change of any value or of any witness (the
lexicographically smallest maximizer) fails the test.
"""

import hashlib
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import factorial

from linforest import (
    Graph,
    SweepConfig,
    decycling_number,
    enumerate_tree_arrays,
    enumerate_trees,
    is_linear_forest,
    line_graph,
    max_induced_forest,
    max_induced_tree,
    max_linear_forest_bf,
    num_labeled_trees,
    path_graph,
    prufer_from_rank,
    verify_theorems,
)
from linforest import bounds
from linforest.graph import line_graph_masks
from linforest.oracle import linear_forest_edges

VERTEX_ORACLES = {
    "max_induced_forest": max_induced_forest,
    "decycling_number": decycling_number,
    "max_induced_tree": max_induced_tree,
}


@lru_cache(maxsize=None)
def all_trees() -> tuple[Graph, ...]:
    """Every labeled tree with 1 <= n <= 7."""
    return tuple(g for n in range(1, 8) for g in enumerate_trees(n))


@lru_cache(maxsize=None)
def all_small_graphs() -> tuple[Graph, ...]:
    """Every labeled graph with at most 5 vertices, cyclic ones included."""
    graphs = []
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    return tuple(graphs)


def digest(oracle, graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        res = oracle(g)
        h.update(repr((res.value, res.witness)).encode())
    return h.hexdigest()


def test_set_sizes():
    assert len(all_trees()) == 1 + 1 + 3 + 16 + 125 + 1296 + 16807
    assert len(all_small_graphs()) == 1 + 1 + 2 + 8 + 64 + 1024


def test_linear_forest_bf_on_trees_pinned():
    assert digest(max_linear_forest_bf, all_trees()) == (
        "b5ee6b628e920f1bbf2b11573e3fe3e5b7b06b0016c7fb8984efb5238138dfb5"
    )


def test_vertex_oracles_on_line_graphs_of_trees_pinned():
    lines = [line_graph(g).graph for g in all_trees()]
    got = {name: digest(oracle, lines) for name, oracle in VERTEX_ORACLES.items()}
    assert got == {
        "max_induced_forest": "8666f17c621118d18181e1f76d5ed49ff7e7ddc0f1ff361726b3fbef82fd7cfc",
        "decycling_number": "632e2f97e3dde72b5f9ccf9fd83323fdf5828022d7eb34c4378b8bdf7cbc1f6d",
        "max_induced_tree": "776b9a2e1d20e2cc9374538d41dc3f9324b9f8fa79f3366fcd9f79013ebc5fff",
    }


def test_all_oracles_on_small_graphs_pinned():
    oracles = {"max_linear_forest_bf": max_linear_forest_bf, **VERTEX_ORACLES}
    got = {name: digest(oracle, all_small_graphs()) for name, oracle in oracles.items()}
    assert got == {
        "max_linear_forest_bf": "a26bb1a2d082e7b548ed38d7efa67a9a5f760547ee71ceefe4607bd7833214a7",
        "max_induced_forest": "499b46304f456e950925b241bd320322b873d4aa925c3e8aab54aac75ac8ce41",
        "decycling_number": "6d3368e084dc8b22bc94098e3512c171e511655d08d699aa2ed261501170f366",
        "max_induced_tree": "79f3c4cf20139ee074e135c36ea2efbaedcd579877c96007b2cb23ab79cdc830",
    }


def naive_line_edges(edges) -> list[tuple[int, int]]:
    """All pairs i < j of edges that share an endpoint."""
    return [
        (i, j) for i, j in combinations(range(len(edges)), 2) if set(edges[i]) & set(edges[j])
    ]


def as_masks(adjacency) -> list[int]:
    return [sum(1 << w for w in nbrs) for nbrs in adjacency]


def test_line_graph_matches_definition():
    for g in all_trees() + all_small_graphs():
        lg = line_graph(g)
        assert lg.source_edges == g.edges
        assert lg.graph.n == g.m
        assert list(lg.graph.edges) == naive_line_edges(g.edges)
        assert line_graph_masks(g.n, g.edges) == as_masks(lg.graph.adjacency)


def test_line_graph_masks_of_sweep_edge_lists():
    # the sweep's edge lists are unsorted (child, parent) pairs
    for n in range(1, 8):
        for parent, order, _ in enumerate_tree_arrays(n):
            edges = [(v, parent[v]) for v in order[:-1]]
            adj = [0] * len(edges)
            for i, j in naive_line_edges(edges):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            assert line_graph_masks(n, edges) == adj


def test_line_graph_memory_is_linear_on_a_path():
    # masks are m bits wide each, so building line_graph from them would
    # take ~50 MiB here
    g = path_graph(20001)
    tracemalloc.start()
    try:
        lg = line_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lg.graph.m == 19999
    assert peak < 16 * 2**20


def reference_linear_forest(edges) -> bool:
    """Degrees <= 2, and |E| = |V| - components over the touched vertices."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    if any(len(ws) > 2 for ws in nbrs.values()):
        return False
    seen: set[int] = set()
    components = 0
    for start in nbrs:
        if start not in seen:
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return len(edges) == len(nbrs) - components


def test_is_linear_forest_on_every_edge_subset():
    verdicts = Counter()
    for g in all_small_graphs():
        for bits in range(1 << g.m):
            edges = [e for i, e in enumerate(g.edges) if bits >> i & 1]
            want = reference_linear_forest(edges)
            assert is_linear_forest(g, edges) == want, (g.edges, edges)
            verdicts[want] += 1
    # sum over graphs of 2^m is 3^C(n,2), 59,810 subsets in all
    assert verdicts == {True: 33647, False: 26163}


SWEEP_KERNELS = ("linear_forest_edges", "line_graph_masks", "decycling_masks")


def position_edges(parent, order) -> list[tuple[int, int]]:
    """The tree with each vertex renamed to its position in ``order``:
    edge i, (order[i], its parent), becomes (i, the parent's position)."""
    pos = {v: i for i, v in enumerate(order)}
    return [(i, pos[parent[v]]) for i, v in enumerate(order[:-1])]


def test_renamed_tree_has_the_same_oracle_answers():
    # the sweep asks the oracles about the renamed edge list: the same
    # value and witness indices, and the same line graph, edge by edge
    trees = 0
    for n in range(1, 8):
        for parent, order, _ in enumerate_tree_arrays(n):
            edges = [(v, parent[v]) for v in order[:-1]]
            rel = position_edges(parent, order)
            assert linear_forest_edges(n, edges) == linear_forest_edges(n, rel)
            assert line_graph_masks(n, edges) == line_graph_masks(n, rel)
            trees += 1
    assert trees == len(all_trees())


def test_sweep_runs_both_oracles_on_every_tree(monkeypatch):
    # every tree is answered through its renamed edge list, and each
    # distinct one is asked once
    inputs = {name: [] for name in SWEEP_KERNELS}

    def recording(name, kernel):
        def wrapper(*args):
            inputs[name].append(tuple(tuple(a) if isinstance(a, list) else a for a in args))
            return kernel(*args)

        return wrapper

    for name in SWEEP_KERNELS:
        monkeypatch.setattr(bounds, name, recording(name, getattr(bounds, name)))
    cfg = SweepConfig(leaf_exchange_all_pairs=True)
    run = verify_theorems(7, cfg)
    assert run.ok and run.trees == 18248
    # every tree's renamed edge list, as the test derives it; children
    # come before parents, so there are (n-1)! of them at each n
    shapes = {
        (n, tuple(position_edges(parent, order)))
        for n in range(2, 8)
        for parent, order, _ in enumerate_tree_arrays(n)
    }
    assert len(shapes) == sum(factorial(n - 1) for n in range(2, 8)) == 873
    assert 7 <= cfg.decycling_max_n
    assert Counter(inputs["linear_forest_edges"]) == Counter(shapes)
    assert Counter(inputs["line_graph_masks"]) == Counter(shapes)
    # distinct shapes can share a line graph: one decycling call per shape
    assert Counter(inputs["decycling_masks"]) == Counter(
        (tuple(line_graph_masks(n, rel)),) for n, rel in shapes
    )


def test_sweep_builds_no_graph(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the sweep built a Graph")

    monkeypatch.setattr(Graph, "__init__", refuse)
    run = verify_theorems(6, SweepConfig(leaf_exchange_all_pairs=True))
    assert run.ok and run.counts["decycling"].checked == run.trees


def _expected_descriptions(n_min: int, n_max: int) -> list[str]:
    return [
        "prufer[" + ",".join(map(str, prufer_from_rank(n, rank))) + "]"
        for n in range(n_min, n_max + 1)
        for rank in range(num_labeled_trees(n))
    ]


def test_sweep_reports_a_wrong_decycling_oracle(monkeypatch):
    kernel = bounds.decycling_masks

    def one_more(adj):
        value, witness = kernel(adj)
        return value + 1, witness

    monkeypatch.setattr(bounds, "decycling_masks", one_more)
    run = verify_theorems(6, n_min=3)
    bad = [r for r in run.violations if r.check == "decycling"]
    assert len(bad) == run.counts["decycling"].violations == run.trees
    assert [r.description for r in bad] == _expected_descriptions(3, 6)
    assert all("prufer[" in r.to_text() and r.to_text().endswith("VIOLATION") for r in bad)


def test_sweep_reports_a_wrong_linear_forest_oracle(monkeypatch):
    kernel = bounds.linear_forest_edges

    def one_more(n, edges):
        value, witness = kernel(n, edges)
        return value + 1, witness

    monkeypatch.setattr(bounds, "linear_forest_edges", one_more)
    run = verify_theorems(6, n_min=3)
    bad = [r for r in run.violations if r.check == "dp-oracle"]
    assert len(bad) == run.counts["dp-oracle"].violations == run.trees
    assert [r.description for r in bad] == _expected_descriptions(3, 6)
