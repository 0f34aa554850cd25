"""Brute-force ground truth for every invariant, on small instances.

These solvers are deliberately naive: they enumerate every candidate subset
and test it against the definition, so they are obviously correct. A vertex
subset is tested for being a forest by stripping, again and again, its
vertices with at most one neighbor inside it; it is a forest iff nothing is
left. Graphs and subsets are integer bitmasks, so a test is a few integer
operations and builds no objects. The only concession to speed is that
sizes are tried from the largest plausible bound downward, returning on the
first hit, which is also what makes the reported witness the
lexicographically smallest maximizer. Caps guard against accidental
exponential blowups.

The kernels (``induced_forest_masks``, ``decycling_masks``,
``linear_forest_edges``) read only an adjacency or an edge list, so they
stay independent of the solver they check; the public functions wrap them
for a Graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

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


def _check_vertex_cap(n: int, cap: Optional[int], default: int) -> None:
    limit = default if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n={n} exceeds cap {limit}")


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


def induced_forest_masks(adj: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Kernel of max_induced_forest on adjacency masks: (size, subset)."""
    k = len(adj)
    for size in range(k, -1, -1):
        for subset in combinations(range(k), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if _is_forest(adj, subset, mask):
                return size, subset
    return 0, ()


def decycling_masks(adj: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Kernel of decycling_number on adjacency masks: the complement of the
    largest induced forest."""
    size, keep = induced_forest_masks(adj)
    kept = set(keep)
    return len(adj) - size, tuple(v for v in range(len(adj)) if v not in kept)


def max_induced_forest(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Largest vertex subset inducing an acyclic subgraph (the quantity
    whose complement is the decycling number)."""
    _check_vertex_cap(g.n, cap, DEFAULT_VERTEX_CAP)
    return OracleResult(*induced_forest_masks(adjacency_masks(g)))


def decycling_number(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Minimum vertex set whose removal leaves a forest: n - forest size."""
    _check_vertex_cap(g.n, cap, DEFAULT_VERTEX_CAP)
    return OracleResult(*decycling_masks(adjacency_masks(g)))


def _induces_tree(adj: Sequence[int], subset: tuple[int, ...], mask: int) -> bool:
    # exactly |S|-1 edges: connected iff acyclic, one search settles both
    if sum((adj[v] & mask).bit_count() for v in subset) != 2 * (len(subset) - 1):
        return False
    seen = 1 << subset[0]
    stack = [subset[0]]
    while stack:
        new = adj[stack.pop()] & mask & ~seen
        seen |= new
        while new:
            low = new & -new
            stack.append(low.bit_length() - 1)
            new ^= low
    return seen == mask


def max_induced_tree(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Largest vertex subset inducing a connected acyclic subgraph."""
    _check_vertex_cap(g.n, cap, DEFAULT_VERTEX_CAP)
    adj = adjacency_masks(g)
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            if _induces_tree(adj, subset, mask):
                return OracleResult(value=size, witness=subset)
    return OracleResult(value=0, witness=())


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
    limit = DEFAULT_EDGE_CAP if cap is None else cap
    if g.m > limit:
        raise CapExceeded(f"m={g.m} exceeds cap {limit}")
    size, idxs = linear_forest_edges(g.n, g.edges)
    return OracleResult(value=size, witness=tuple(g.edges[i] for i in idxs))


def longest_path_bf(g: Graph, cap: Optional[int] = None) -> OracleResult:
    """Longest simple path, in edges, by exhaustive DFS over partial paths.

    The witness is the vertex sequence of the first maximum found when
    start vertices and neighbors are explored in ascending order, with the
    sequence direction normalized.
    """
    _check_vertex_cap(g.n, cap, DEFAULT_VERTEX_CAP)
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
    _check_vertex_cap(g.n, cap, DEFAULT_VERTEX_CAP)
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
    _check_vertex_cap(g.n, cap, DEFAULT_HC_CAP)
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


def spanning_trees(g: Graph) -> Iterator[Graph]:
    """All spanning trees of a connected graph, by filtering (n-1)-edge
    subsets. Exponential; meant for cross-checks on tiny graphs."""
    n = g.n
    if n == 0:
        return
    for edges in combinations(g.edges, n - 1):
        if _edges_acyclic(n, edges):
            yield Graph(n, edges, validate=False)
