"""Exact maximum linear forests in trees.

A linear forest is an edge set whose components are vertex-disjoint paths.
The solver runs bottom-up over a rooted tree keeping, per subtree, the best
forest size and the best size with the subtree root at forest-degree <= 1.
At each internal vertex the root either stays isolated, joins one child
(switching that child to its constrained optimum), or joins two children.
Since constraining a child costs at most one edge, only the two children
with the cheapest switching cost matter, which keeps the whole pass linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import Graph, RootedTree, TreeStats, _edges_acyclic, leaf_peel


@dataclass(frozen=True)
class LinearForest:
    """Edge subset whose induced components are all simple paths."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DpRecord:
    """Optimal forests for one rooted tree: unconstrained, and with the
    root at degree <= 1."""

    best: LinearForest
    best_constrained: LinearForest

    @property
    def value(self) -> int:
        return self.best.size

    @property
    def value_constrained(self) -> int:
        return self.best_constrained.size


@dataclass(frozen=True)
class Completion:
    """Edges whose addition closes a tree into a Hamiltonian graph, with
    a Hamiltonian cycle of the result as a certificate. The cycle need not
    use every added edge: a later splice can trade an earlier one away."""

    added_edges: tuple[tuple[int, int], ...]
    cycle: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.added_edges)


def is_linear_forest(g: Graph, edges) -> bool:
    """Check the definition directly: edges of g, all degrees <= 2, acyclic."""
    edge_set = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e in edge_set:
            return False
        edge_set.add(e)
    host = g.edge_set()
    if not edge_set <= host:
        return False
    deg = bytearray(g.n)
    for u, v in edge_set:
        deg[u] += 1
        deg[v] += 1
        if deg[u] > 2 or deg[v] > 2:
            return False
    return _edges_acyclic(g.n, edge_set)


def _forest_values(
    parent: Sequence[Optional[int]], order: Iterable[int], diameter: bool = False
) -> tuple[int, list[int], list[int], Optional[int]]:
    """Bottom-up pass over a rooted tree given as parent pointers (None at
    the root) and an iterable listing children before parents, root last.

    Each vertex, once final, pushes its free value f, its gain fc + 1 - f
    from being constrained to degree <= 1, and (with ``diameter``) its
    height into its parent's running sum and top-two slots. Among equal
    gains the smaller child id wins, so the choice does not depend on the
    order. Returns (f at the root, top child, second child, diameter or
    None); child slots are -1 when unused.
    """
    n = len(parent)
    base = [0] * n
    g1 = [-1] * n
    g2 = [-1] * n
    top = [-1] * n
    second = [-1] * n
    if diameter:
        h1 = [0] * n
        h2 = [0] * n
    diam = 0
    for v in order:
        a = g1[v]
        if a < 0:
            fv = fcv = 0
        else:
            fcv = base[v] + a
            b = g2[v]
            fv = fcv + b if b >= 0 else fcv
        if diameter:
            hv = h1[v]
            through = hv + h2[v]
            if through > diam:
                diam = through
        p = parent[v]
        if p is None:
            break
        base[p] += fv
        gain = fcv + 1 - fv
        a = g1[p]
        if gain > a or (gain == a and v < top[p]):
            second[p], g2[p] = top[p], a
            top[p], g1[p] = v, gain
        else:
            b = g2[p]
            if gain > b or (gain == b and v < second[p]):
                second[p], g2[p] = v, gain
        if diameter:
            hv += 1
            if hv > h1[p]:
                h2[p], h1[p] = h1[p], hv
            elif hv > h2[p]:
                h2[p] = hv
    return fv, top, second, diam if diameter else None


def _reconstruct(
    t: RootedTree,
    single: list[int],
    pair_a: list[int],
    pair_b: list[int],
    constrained: bool,
) -> LinearForest:
    """Walk down the choice arrays marking the children joined to their
    parents. ``single`` is the child joined when the vertex may take one
    edge; (pair_a, pair_b) when two. A joined vertex may take only one
    more edge, so the mark also limits it."""
    joined = bytearray(t.n)
    joined[t.root] = constrained  # the root has no parent edge to emit
    children = t.children
    for v in t.order:
        kids = children[v]
        if not kids:
            continue
        if joined[v] or len(kids) == 1:
            joined[single[v]] = 1
        else:
            joined[pair_a[v]] = joined[pair_b[v]] = 1
    parent = t.parent
    # an edge is in the forest iff its child end was joined
    return LinearForest(tuple(
        e for e in t.graph.edges if joined[e[1] if parent[e[1]] == e[0] else e[0]]
    ))


def max_linear_forest(t: RootedTree) -> DpRecord:
    """Maximum linear forest of the whole rooted tree, with the companion
    forest whose root has degree <= 1. Linear time.

    Ties are broken deterministically: the root always takes the maximum
    number of incident edges the optimum allows, preferring children with
    smaller ids.
    """
    _, top, second, _ = _forest_values(t.parent, reversed(t.order))
    best = _reconstruct(t, top, top, second, constrained=False)
    best_constrained = _reconstruct(t, top, top, second, constrained=True)
    return DpRecord(best=best, best_constrained=best_constrained)


def max_linear_forest_value(t: RootedTree) -> int:
    """Size-only variant of max_linear_forest, skipping reconstruction."""
    return _forest_values(t.parent, reversed(t.order))[0]


def max_linear_forest_allpairs(t: RootedTree) -> DpRecord:
    """Quadratic-per-vertex reference solver that scores every candidate:
    the root isolated, joined to each single child, or to each child pair.

    Kept as a debug path; must agree with max_linear_forest exactly,
    including reconstructed edges.
    """
    n = t.n
    f = [0] * n
    fc = [0] * n
    single = [-1] * n
    pair_a = [-1] * n
    pair_b = [-1] * n
    for v in reversed(t.order):
        kids = t.children[v]
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
    best = _reconstruct(t, single, pair_a, pair_b, constrained=False)
    best_constrained = _reconstruct(t, single, pair_a, pair_b, constrained=True)
    return DpRecord(best=best, best_constrained=best_constrained)


def l_of_tree(g: Graph) -> int:
    """Number of edges in a maximum linear forest of a tree. The value does
    not depend on the root, so the DP runs on the leaf-peel rooting."""
    parent, order, _ = leaf_peel(g)
    return _forest_values(parent, order)[0]


def hc_of_tree(g: Graph) -> int:
    """Hamiltonian completion number of a tree: n - l. Trees are never
    Hamiltonian, so the completion number is always positive for n >= 2."""
    if g.n < 2:
        raise ValueError("hamiltonian completion needs n >= 2")
    if not g.is_tree():
        raise ValueError("input is not a tree")
    return g.n - l_of_tree(g)


def hc_lower_bound(stats: TreeStats) -> int:
    """ceil((out + sum of excesses) / 2): every leaf, and every crowded-out
    low-degree neighbor, must meet a new edge on a Hamiltonian cycle."""
    return (stats.out + stats.ex_sum + 1) // 2


def leaf_exchange(g: Graph, u_i: int, u_j: int) -> Graph:
    """Detach leaf u_i from its neighbor and re-attach it under leaf u_j.

    Never decreases the maximum linear forest size: rerouting the detached
    pendant edge onto another leaf keeps any forest valid.
    """
    if u_i == u_j:
        raise ValueError("leaves must be distinct")
    for u in (u_i, u_j):
        if g.degree(u) != 1:
            raise ValueError(f"vertex {u} is not a leaf")
    w_i = g.adjacency[u_i][0]
    old = (w_i, u_i) if w_i < u_i else (u_i, w_i)
    new = (u_i, u_j) if u_i < u_j else (u_j, u_i)
    if old == new:  # n == 2: the two leaves are adjacent
        return g
    edges = [e for e in g.edges if e != old]
    edges.append(new)
    return Graph(g.n, edges, validate=False)


def _leaf_exchange_arrays(
    parent: list[Optional[int]], order: list[int], u_i: int, u_j: int
) -> tuple[list[Optional[int]], list[int]]:
    """leaf_exchange on the (parent, children-first order) arrays that
    _forest_values reads: u_i moves under u_j and to the front of the
    order. When u_i is the root, its only child becomes the root."""
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


def hc_construct(g: Graph) -> Completion:
    """Build a Hamiltonian completion of a tree with exactly out(T)-1 edges.

    Close a cycle through the two lowest-id leaves first, then splice in
    each leaf still outside, in id order: walk from it to the nearest
    cycle vertex u, detach u from its smaller-id cycle neighbor w, and add
    the leaf-w edge so the cycle absorbs the whole connecting path.
    Linear time: the cycle's vertices always form a subtree containing
    the root u0, so the nearest cycle vertex is the first one on the walk
    up the parent pointers, and each vertex is walked once.
    """
    n = g.n
    if n < 3:
        raise ValueError("hamiltonian completion construction needs n >= 3")
    if not g.is_tree():
        raise ValueError("input is not a tree")
    leaves = [v for v in range(n) if g.degree(v) == 1]
    u0 = leaves[0]
    parent = RootedTree(g, u0).parent
    # the cycle as successor/predecessor arrays, -1 off the cycle. It starts
    # as u0 alone, so splicing in the next leaf v0 closes the tree path
    # u0 ... v0 with the edge u0-v0.
    nxt = [-1] * n
    prv = [-1] * n
    nxt[u0] = prv[u0] = u0
    added: list[tuple[int, int]] = []
    for leaf in leaves[1:]:
        segment = []  # leaf first, ends just before u
        v = leaf
        while nxt[v] < 0:
            segment.append(v)
            v = parent[v]
        u = v
        # splice: the cycle edge u-w is traded for leaf-w, absorbing the path
        if nxt[u] <= prv[u]:
            w = nxt[u]
            chain = [u, *reversed(segment), w]
        else:
            w = prv[u]
            chain = [w, *segment, u]
        for a, b in zip(chain, chain[1:]):
            nxt[a], prv[b] = b, a
        added.append((leaf, w) if leaf < w else (w, leaf))
    cycle = [u0]
    v = nxt[u0]
    while v != u0:
        cycle.append(v)
        v = nxt[v]
    return Completion(added_edges=tuple(added), cycle=tuple(cycle))


def is_hamiltonian_cycle(g: Graph, added_edges: Iterable[tuple[int, int]],
                         cycle: Sequence[int]) -> bool:
    """Check a completion certificate in linear time: the added edges are
    distinct non-edges of g, and ``cycle`` visits every vertex once with
    each step, the closing one too, on an edge of g or an added edge."""
    n = g.n
    if n < 3 or len(cycle) != n:
        return False
    seen = bytearray(n)
    for v in cycle:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    added_list = [(u, v) if u < v else (v, u) for u, v in added_edges]
    added = set(added_list)
    host = g.edge_set()
    if len(added) != len(added_list) or not added.isdisjoint(host):
        return False
    prev = cycle[-1]
    for v in cycle:
        e = (prev, v) if prev < v else (v, prev)
        if e not in host and e not in added:
            return False
        prev = v
    return True
