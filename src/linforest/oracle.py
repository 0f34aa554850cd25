"""Brute-force ground truth for every invariant, on small instances.

These solvers are deliberately naive: they enumerate every candidate subset
and test it against the definition, so they are obviously correct. A vertex
subset is tested for being a forest by stripping, again and again, its
vertices with at most one neighbor inside it; it is a forest iff nothing is
left, and a tree iff it is a forest with one edge fewer than vertices.
The subset searches try sizes from the largest plausible bound downward,
returning on the first hit, which is also what makes the reported witness
the lexicographically smallest maximizer. Caps, all checked by
``check_cap``, guard against accidental exponential blowups.

The mask kernels (``induced_forest_masks``, ``decycling_masks``,
``linear_forest_edges``) hold graphs and subsets as integer bitmasks, so
a test is a few integer operations, and they read only an adjacency or an
edge list, so they stay independent of the solver they check;
``max_induced_forest``, ``decycling_number``, ``max_induced_tree`` and
``max_linear_forest_bf`` wrap them for a Graph. The others are not mask
kernels: ``longest_path_bf`` and ``is_hamiltonian`` backtrack over
``Graph.adjacency``, and ``hc_bf`` builds a Graph for every candidate set
of added edges.
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
    return [sum(1 << w for w in nbrs) for nbrs in g.adjacency]


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


def longest_path_bf(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Longest simple path, in edges, by exhaustive DFS over partial paths.

    The witness is the vertex sequence of the first maximum found when
    start vertices and neighbors are explored in ascending order, with the
    sequence direction normalized.
    """
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    best_len = 0
    best_path: tuple[int, ...] = (0,) if g.n else ()
    visited = bytearray(g.n)
    path: list[int] = []

    def extend(u: int) -> None:
        nonlocal best_len, best_path
        visited[u] = 1
        path.append(u)
        if len(path) - 1 > best_len:
            best_len = len(path) - 1
            fwd = tuple(path)
            best_path = min(fwd, fwd[::-1])
        for w in g.adjacency[u]:
            if not visited[w]:
                extend(w)
        path.pop()
        visited[u] = 0

    for start in range(g.n):
        extend(start)
    return OracleResult(value=best_len, witness=best_path)


def is_hamiltonian(g: Graph, cap: Optional[int] = None) -> bool:
    """Hamiltonian-cycle existence by backtracking (n >= 3 required for a
    cycle)."""
    check_cap(g.n, cap, DEFAULT_VERTEX_CAP, "n")
    n = g.n
    if n < 3:
        return False
    if any(g.degree(v) < 2 for v in range(n)) or not g.is_connected():
        return False
    adj = g.adjacency
    visited = bytearray(n)
    visited[0] = 1

    def extend(u: int, used: int) -> bool:
        if used == n:
            return 0 in adj[u]
        for w in adj[u]:
            if not visited[w]:
                visited[w] = 1
                if extend(w, used + 1):
                    return True
                visited[w] = 0
        return False

    return extend(0, 1)


def hc_bf(g: Graph, cap: Optional[int] = None) -> int:
    """Minimum number of non-edges whose addition makes g Hamiltonian,
    searched by increasing subset size."""
    check_cap(g.n, cap, DEFAULT_HC_CAP, "n")
    n = g.n
    if n < 3:
        raise ValueError("hamiltonian completion needs n >= 3")
    if is_hamiltonian(g, cap=n):
        return 0
    present = g.edge_set()
    non_edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    for k in range(1, len(non_edges) + 1):
        if g.m + k < n:  # a Hamiltonian graph needs at least n edges
            continue
        for extra in combinations(non_edges, k):
            if is_hamiltonian(Graph(n, g.edges + extra, validate=False), cap=n):
                return k
    raise ValueError("graph cannot be completed to a Hamiltonian cycle")
