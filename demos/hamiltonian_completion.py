#!/usr/bin/env python3
"""Hamiltonian completion of trees: the number of edges needed is n - l,
sandwiched between ceil((out + sum ex)/2) and out - 1, and a greedy
cycle-growing construction meets the upper bound exactly."""

from linforest import (
    Graph,
    hc_bounds,
    hc_construct,
    hc_of_tree,
    is_hamiltonian,
    path_graph,
    random_tree,
    root_at_center,
    spider,
    star_graph,
    tree_stats,
)

samples = [
    ("path P5", path_graph(5)),
    ("star K1,3", star_graph(4)),
    ("star K1,5", star_graph(6)),
    ("spider (2,2,2)", spider([2, 2, 2])),
    ("random tree n=12", random_tree(12, seed=42)),
]

print("tree                 lower   hc  out-1  constructed  hamiltonian?")
for name, g in samples:
    out, excess = tree_stats(root_at_center(g))
    hc = hc_of_tree(g)
    lower, upper = hc_bounds(out, sum(excess))
    comp = hc_construct(g)
    closed = Graph(g.n, g.edges + comp.added_edges)
    ham = is_hamiltonian(closed)
    assert lower <= hc <= upper
    assert len(comp.added_edges) == upper
    print(
        f"{name:<20} {lower:>5} {hc:>4} {upper:>6} "
        f"{len(comp.added_edges):>11}  {ham}"
    )

print()
print("For the star K1,3 the construction adds:", hc_construct(star_graph(4)).added_edges)
print("Closing leaves pairwise walks every pendant edge twice around the hub.")
