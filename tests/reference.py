"""Reference implementations that the tests compare the package against.

None of these runs outside the tests. Each is the direct, slower form of
something the package computes another way: depths and children of a
rooted tree, the leaf peel as a walk over adjacency rows in place of the
package's degree and neighbor-XOR arrays, the quadratic solver that
scores every candidate child pair and builds both of its forests by two
plain walks down (the root free, then the root capped) in place of the
package's second-child chain, leaf exchange as a rewrite of the sweep's parent and order arrays, the
completion-bound counts over an edge list, spanning trees by
filtering edge subsets, and the three path oracles as they were before
the path-layer kernel: the longest path and Hamiltonicity by
backtracking, and hc by trying every set of added non-edges. pytest does
not collect this module; tests import it with ``from reference import
...``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from linforest.forest import DpRecord, LinearForest
from linforest.graph import Edge, Graph, NotATree, RootedTree, _edges_acyclic
from linforest.oracle import (
    DEFAULT_HC_CAP,
    DEFAULT_VERTEX_CAP,
    OracleResult,
    check_cap,
)


def depth(t: RootedTree) -> tuple[int, ...]:
    """Each vertex's distance from the root, walking the order reversed so
    each parent's depth is known before its children's."""
    parent = t.parent
    depths = [0] * t.n
    for v in reversed(t.order[:-1]):  # the root is last
        depths[v] = depths[parent[v]] + 1
    return tuple(depths)


def children(t: RootedTree) -> tuple[tuple[int, ...], ...]:
    """Each vertex's children, in increasing id."""
    parent = t.parent
    kids: list[list[int]] = [[] for _ in range(t.n)]
    for v in t.order[:-1]:  # the root is last
        kids[parent[v]].append(v)
    return tuple(tuple(sorted(c)) for c in kids)


def max_linear_forest_allpairs(t: RootedTree) -> DpRecord:
    """Quadratic-per-vertex solver that scores every candidate: the root
    isolated, joined to each single child, or to each child pair. It uses
    no gain lemma and none of the package's reconstruction: it builds both
    forests itself, one walk down per forest. It must agree with
    max_linear_forest exactly, reconstructed edges included.
    """
    n = t.n
    kids_of = children(t)
    f = [0] * n
    fc = [0] * n
    single = [-1] * n
    pair_a = [-1] * n
    pair_b = [-1] * n
    for v in t.order:
        kids = kids_of[v]
        if not kids:
            continue
        base = sum(f[c] for c in kids)
        best_single_val, best_single = -1, -1
        for c in kids:
            val = base - f[c] + fc[c] + 1
            if val > best_single_val:
                best_single_val, best_single = val, c
        best_pair_val, best_pair = -1, (-1, -1)
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                ci, cj = kids[i], kids[j]
                val = base + (fc[ci] + 1 - f[ci]) + (fc[cj] + 1 - f[cj])
                if val > best_pair_val:
                    best_pair_val, best_pair = val, (ci, cj)
        # joining never hurts, so prefer two edges over one over none on ties
        fc[v] = max(base, best_single_val)
        single[v] = best_single
        if len(kids) >= 2 and best_pair_val >= max(base, best_single_val):
            f[v] = best_pair_val
            pair_a[v], pair_b[v] = best_pair
        else:
            f[v] = fc[v]
            pair_a[v] = best_single
    return DpRecord(best=_walk_down(t, single, pair_a, pair_b, 0),
                    best_constrained=_walk_down(t, single, pair_a, pair_b, 1))


def _walk_down(
    t: RootedTree, single: Sequence[int], pair_a: Sequence[int],
    pair_b: Sequence[int], root_joined: int,
) -> LinearForest:
    """One forest from the quadratic solver's choices, by a plain walk down
    from the root: a vertex joined to its parent joins ``single``, any
    other (pair_a, pair_b). With ``root_joined`` the root counts as joined
    to a parent, which caps it at one edge. An edge is in the forest iff
    its child end is joined."""
    parent = t.parent
    joined = bytearray(t.n + 1)  # joined[-1] absorbs the unused slots
    joined[t.root] = root_joined
    for v in reversed(t.order):
        if joined[v]:
            joined[single[v]] = 1
        else:
            joined[pair_a[v]] = joined[pair_b[v]] = 1
    return LinearForest(tuple(
        (u, v) for u, v in t.graph.edges if joined[v if parent[v] == u else u]
    ))


def leaf_exchange_arrays(
    parent: list[Optional[int]], order: list[int], u_i: int, u_j: int
) -> tuple[list[Optional[int]], list[int]]:
    """leaf_exchange on the (parent, children-first order) arrays that
    _forest_values reads: u_i moves under u_j and to the front of the
    order. When u_i is the root, its only child becomes the root. A pass
    over the result is the reference for _value_without_leaf."""
    moved = parent.copy()
    moved[u_i] = u_j
    if u_i == order[-1]:
        moved_order = order[:-1]  # ends with the root's only child
        moved[moved_order[-1]] = None
    else:
        moved_order = order.copy()
        moved_order.remove(u_i)
    moved_order.insert(0, u_i)
    return moved, moved_order


def hc_bound_counts_from_edges(
    degree: Sequence[int], edges: Iterable[Edge]
) -> tuple[int, list[int]]:
    """The counts behind the completion bounds, from degrees and edges: the
    leaf count, and per vertex how many of its low-degree neighbors
    (degree < 3) exceed two. The reference for hc_bound_counts, which
    reads the edges off parent pointers."""
    low = [0] * len(degree)
    for u, v in edges:
        if degree[v] < 3:
            low[u] += 1
        if degree[u] < 3:
            low[v] += 1
    return degree.count(1), [c - 2 if c > 2 else 0 for c in low]


def leaf_peel(
    g: Graph, root: Optional[int] = None
) -> tuple[list[Optional[int]], list[int], int, int]:
    """graph.leaf_peel as a walk over the adjacency rows: a stripped
    vertex's parent is its first neighbor whose count of neighbors left
    is not zero, and a given root starts with its count one higher."""
    n = g.n
    if g.m != n - 1:
        raise NotATree("not a tree: edge count differs from n-1")
    adjacency = g.adjacency
    deg = [len(nbrs) for nbrs in adjacency]  # zeroed once stripped
    if root is not None:
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        deg[root] += 1
    parent: list[Optional[int]] = [None] * n
    order = [v for v in range(n) if deg[v] <= 1]
    i = last = 0
    layers = 1
    end = len(order)  # the current layer is order[last:end]
    for v in order:
        if i == end:
            last, end = i, len(order)
            layers += 1
        i += 1
        deg[v] = 0
        for w in adjacency[v]:
            if deg[w]:
                parent[v] = w
                d = deg[w] - 1
                deg[w] = d
                if d == 1:
                    order.append(w)
                break
    if len(order) != n:
        raise NotATree("not a tree: graph contains a cycle")
    if root is None and n - last == 2 and order[-2] < order[-1]:
        # root the two-vertex center at the smaller id
        small, large = order[-2], order[-1]
        order[-2], order[-1] = large, small
        parent[small], parent[large] = None, small
    return parent, order, last, layers


def spanning_trees(g: Graph) -> Iterator[Graph]:
    """All spanning trees of a connected graph, by filtering (n-1)-edge
    subsets. Exponential; meant for cross-checks on tiny graphs."""
    n = g.n
    if n == 0:
        return
    for edges in combinations(g.edges, n - 1):
        if _edges_acyclic(n, edges):
            yield Graph(n, edges, validate=False)


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
