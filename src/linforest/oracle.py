"""Brute-force ground truth for every invariant, on small instances.

These solvers are deliberately naive: they enumerate every candidate subset
or path and test it against the definition, so they are obviously correct.
A vertex subset is tested for being a forest by stripping, again and
again, its vertices with at most one neighbor inside it; it is a forest
iff nothing is left, and a tree iff it is a forest with one edge fewer
than vertices.
The subset searches try sizes from the largest plausible bound downward,
returning on the first hit, which is also what makes the reported witness
the lexicographically smallest maximizer. Caps, all checked by
``check_cap``, guard against accidental exponential blowups.

The mask kernels (``induced_forest_masks``, ``decycling_masks``,
``linear_forest_edges`` and the path kernel ``_path_layers``) hold graphs
and subsets as integer bitmasks, so a test is a few integer operations,
and they read only an adjacency or an edge list, so they stay independent
of the solver they check; the public oracles wrap them for a Graph.
``longest_path_bf``, ``is_hamiltonian`` and ``hc_bf`` all read the layers
of simple paths that ``_path_layers`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

from .graph import Edge, Graph, _edges_acyclic

DEFAULT_VERTEX_CAP = 20
DEFAULT_EDGE_CAP = 24
DEFAULT_HC_CAP = 9


class CapExceeded(ValueError):
    """Instance is larger than the configured brute-force cap."""


@dataclass(frozen=True)
class OracleResult:
    """A computed invariant plus the subset that realizes it."""

    value: int
    witness: tuple


def check_cap(count: int, cap: Optional[int], default: int, name: str) -> None:
    """Refuse an instance whose ``count`` (its ``name``, n or m) is above
    ``cap``, or above ``default`` when cap is None."""
    limit = default if cap is None else cap
    if count > limit:
        raise CapExceeded(f"{name}={count} exceeds cap {limit}")


def adjacency_masks(g: Graph) -> list[int]:
    """Bit w of entry v is set iff v and w are adjacent."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _is_forest(adj: Sequence[int], members: Sequence[int], mask: int) -> bool:
    """Whether the subgraph induced by ``mask`` (whose vertices are
    ``members``) is a forest: strip vertices with at most one neighbor left
    until nothing is left (a forest) or nothing strips (every vertex left
    has two neighbors, so there is a cycle)."""
    while members:
        left = []
        for v in members:
            if (adj[v] & mask).bit_count() > 1:
                left.append(v)
            else:
                mask ^= 1 << v
        if len(left) == len(members):
            return False
        members = left
    return True


def _induces_tree(adj: Sequence[int], subset: Sequence[int], mask: int) -> bool:
    # a forest with |S|-1 edges has one component
    return (sum((adj[v] & mask).bit_count() for v in subset) == 2 * (len(subset) - 1)
            and _is_forest(adj, subset, mask))


def _largest_subset(adj: Sequence[int],
                    accept: Callable[..., bool]) -> tuple[int, tuple[int, ...]]:
    """The largest non-empty vertex subset that ``accept(adj, subset,
    mask)`` takes, the lexicographically smallest of that size, as (size,
    subset); (0, ()) when none is."""
    k = len(adj)
    for size in range(k, 0, -1):
        for subset in combinations(range(k), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if accept(adj, subset, mask):
                return size, subset
    return 0, ()


def induced_forest_masks(adj: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Kernel of max_induced_forest on adjacency masks: (size, subset)."""
    return _largest_subset(adj, _is_forest)


def decycling_masks(adj: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Kernel of decycling_number on adjacency masks: the complement of the
    largest induced forest."""
    size, keep = induced_forest_masks(adj)
    kept = set(keep)
    return len(adj) - size, tuple(v for v in range(len(adj)) if v not in kept)


def max_induced_forest(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Largest vertex subset inducing an acyclic subgraph (the quantity
    whose complement is the decycling number)."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    return OracleResult(*induced_forest_masks(adjacency_masks(g)))


def decycling_number(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Minimum vertex set whose removal leaves a forest: n - forest size."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    return OracleResult(*decycling_masks(adjacency_masks(g)))


def max_induced_tree(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Largest vertex subset inducing a connected acyclic subgraph."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    return OracleResult(*_largest_subset(adjacency_masks(g), _induces_tree))


def linear_forest_edges(n: int, edges: Sequence[Edge]) -> tuple[int, tuple[int, ...]]:
    """Kernel of max_linear_forest_bf on an edge list over range(n):
    (size, indices of the chosen edges)."""
    m = len(edges)
    ends = [(1 << u) | (1 << v) for u, v in edges]
    # a linear forest is a forest, so it has at most n-1 edges; and subsets
    # of an acyclic host can never contain a cycle
    host_acyclic = _edges_acyclic(n, edges)
    for size in range(min(m, n - 1), 0, -1):
        for idxs in combinations(range(m), size):
            # ``one``/``two``: the vertices of degree >= 1 / >= 2 so far
            one = two = 0
            for i in idxs:
                b = ends[i]
                if b & two:
                    break
                two |= one & b
                one |= b
            else:
                if host_acyclic or _edges_acyclic(n, [edges[i] for i in idxs]):
                    return size, idxs
    return 0, ()


def max_linear_forest_bf(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Largest edge subset with every degree <= 2 and no cycle, i.e. a
    vertex-disjoint union of paths."""
    check_cap(g.m, cap, DEFAULT_EDGE_CAP, "m")
    size, idxs = linear_forest_edges(g.n, g.edges)
    return OracleResult(value=size, witness=tuple(g.edges[i] for i in idxs))


def _path_layers(adj: Sequence[int], starts: int) -> list[dict[int, int]]:
    """The simple paths that start in the vertex mask ``starts``, by
    length: entry k maps the vertex mask of each such path with k edges to
    the mask of the vertices it can end at (the Bellman / Held-Karp subset
    DP). Only masks that paths reach are stored: O(n^2) on a path or cycle."""
    layer = {1 << v: 1 << v for v in range(len(adj)) if starts >> v & 1}
    layers = []
    while layer:
        layers.append(layer)
        longer: dict[int, int] = {}
        for mask, ends in layer.items():
            while ends:
                end = ends & -ends
                ends ^= end
                free = adj[end.bit_length() - 1] & ~mask
                while free:
                    w = free & -free
                    free ^= w
                    longer[mask | w] = longer.get(mask | w, 0) | w
        layer = longer
    return layers


def longest_path_bf(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Longest simple path, in edges: the number of path layers from every
    start, less one. The witness is the lexicographically smallest longest
    vertex sequence (never above its reverse), built greedily: each vertex
    is the smallest neighbor of the last that ends a path of the next layer
    down on vertices not yet placed (every vertex starts paths, so a path's
    ends are its starts)."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    adj = adjacency_masks(g)
    layers = _path_layers(adj, (1 << g.n) - 1)
    path: list[int] = []
    placed, nbrs = 0, (1 << g.n) - 1  # the first vertex may be any
    for layer in reversed(layers):
        low = min(at & nbrs & -(at & nbrs) for mask, at in layer.items()
                  if at & nbrs and not mask & placed)
        path.append(low.bit_length() - 1)
        placed, nbrs = placed | low, adj[path[-1]]
    return OracleResult(value=max(len(path) - 1, 0), witness=tuple(path))


def is_hamiltonian(g: Graph, cap: Optional[int] = None) -> bool:
    """Hamiltonian-cycle existence (n >= 3 required for a cycle): a path
    from vertex 0 covers every vertex and ends next to vertex 0."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    adj = adjacency_masks(g)
    layers = _path_layers(adj, 1)
    return g.n >= 3 and len(layers) == g.n and bool(layers[-1][(1 << g.n) - 1] & adj[0])


def hc_bf(g: Graph, cap: Optional[int] = None) -> int:
    """Minimum number of non-edges whose addition makes g Hamiltonian: 0
    if g is, else the least number of disjoint paths that cover g. k such
    paths close into a cycle with k added non-edges (an edge of g between
    them would give a smaller cover), and the k added edges of such a cycle
    leave k paths. A mask in any path layer is covered by one path."""
    check_cap(g.n, cap, DEFAULT_HC_CAP, "n")
    n = g.n
    if n < 3:
        raise ValueError("hamiltonian completion needs n >= 3")
    by_low: dict[int, list[int]] = {}  # the one-path masks by lowest vertex
    for layer in _path_layers(adjacency_masks(g), (1 << n) - 1):
        for mask in layer:
            by_low.setdefault(mask & -mask, []).append(mask)
    # breadth first over the vertex sets left to cover after k paths; the
    # path that covers the lowest vertex left has it as its lowest vertex
    left, k = {(1 << n) - 1}, 0
    while 0 not in left:
        left = {s ^ m for s in left for m in by_low[s & -s] if not m & ~s}
        k += 1
    return 0 if k == 1 and is_hamiltonian(g, cap=n) else k
