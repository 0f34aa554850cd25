"""Exact maximum linear forests in trees.

A linear forest is an edge set whose components are vertex-disjoint paths.
For a rooted subtree let f be its best forest and fc the best one with the
root at forest-degree <= 1. Dropping one root edge from an optimum gives a
constrained forest, so fc <= f <= fc + 1 and the gain fc + 1 - f of joining
the root to its parent is 0 or 1. With ones(v) the number of children of
gain 1, f(v) = base(v) + min(ones(v), 2), fc(v) = base(v) + min(ones(v), 1)
and v's own gain is 1 iff ones(v) < 2, base(v) being the sum of the
children's f. One bottom-up pass over parent pointers counts ``ones``,
which is all the value needs; the solver also records each vertex's two
best children. One reconstruction turns those choices into both forests:
a walk down joins every vertex to its top child, and to its second child
too unless the vertex is joined to its parent. Capping the root at one
edge flips the root's mark, which flips only its second child's mark,
which flips only that child's second child's, and so on: the constrained
forest is the free one with the marks along that one chain flipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .graph import Graph, RootedTree, _edges_acyclic, leaf_peel


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
    parent: Sequence[Optional[int]], order: Iterable[int], choices: bool = False
) -> tuple[int, list[int], Optional[list[int]], Optional[list[int]]]:
    """Bottom-up pass over a rooted tree given as parent pointers (None at
    the root) and an iterable listing children before parents, root last.

    A vertex's gain fc + 1 - f is 0 or 1, so the pass keeps only ``ones``,
    the number of children with gain 1: f = base + min(ones, 2), and the
    vertex's own gain is 1 iff ones < 2. Summed over the tree, f at the
    root is the sum of min(ones, 2) over all vertices. With ``choices`` it
    also keeps each vertex's top and second child, higher gain first and
    the smaller id among equal gains, so the choice does not depend on the
    order. Returns (f at the root, ones, top child, second child), with
    None for the children when not asked and -1 for an unused child slot.
    """
    n = len(parent)
    ones = [0] * n
    top = second = None
    if choices:
        top = [-1] * n
        second = [-1] * n
    for v in order:
        p = parent[v]
        if p is None:
            break
        gain = ones[v] < 2  # a final count: v's children pushed before v
        if gain:
            ones[p] += 1
        if choices:
            a = top[p]
            if a < 0 or gain > (ga := ones[a] < 2) or (gain == ga and v < a):
                second[p], top[p] = a, v
            else:
                b = second[p]
                if b < 0 or gain > (gb := ones[b] < 2) or (gain == gb and v < b):
                    second[p] = v
    one = ones.count(1)
    value = one + 2 * (n - one - ones.count(0))
    return value, ones, top, second


def _reconstruct(
    t: RootedTree, top: Sequence[int], second: Sequence[int]
) -> tuple[LinearForest, LinearForest]:
    """Both forests from the solver's choice arrays, -1 marking an unused
    slot. A walk down, over the order reversed, marks the children joined
    to their parents for the free root: each vertex joins its top child,
    and its second child iff it is not itself joined to its parent.
    Capping the root flips its mark, which flips the mark of second[root]
    and of no other child; that flips only second[second[root]]'s, and so
    on down, so the constrained forest is the free one with the marks
    along that one chain flipped. An edge is in a forest iff its child end
    is marked."""
    parent = t.parent
    joined = bytearray(t.n + 1)  # joined[-1] absorbs the unused slots
    for v in reversed(t.order):
        joined[top[v]] = 1
        if not joined[v]:
            joined[second[v]] = 1
    capped = bytearray(joined)
    v = t.root
    while v >= 0:
        capped[v] ^= 1
        v = second[v]
    edges = t.graph.edges
    child = [v if parent[v] == u else u for u, v in edges]
    return (
        LinearForest(tuple(compress(edges, map(joined.__getitem__, child)))),
        LinearForest(tuple(compress(edges, map(capped.__getitem__, child)))),
    )


def max_linear_forest(t: RootedTree) -> DpRecord:
    """Maximum linear forest of the whole rooted tree, with the companion
    forest whose root has degree <= 1. Linear time.

    Ties are broken deterministically: the root always takes the maximum
    number of incident edges the optimum allows, preferring children with
    smaller ids.
    """
    _, _, top, second = _forest_values(t.parent, t.order, choices=True)
    best, best_constrained = _reconstruct(t, top, second)
    return DpRecord(best=best, best_constrained=best_constrained)


def max_linear_forest_value(t: RootedTree) -> int:
    """Size-only variant of max_linear_forest, skipping reconstruction."""
    return _forest_values(t.parent, t.order)[0]


def l_of_tree(g: Graph) -> int:
    """Number of edges in a maximum linear forest of a tree. The value does
    not depend on the root, so the DP runs on the leaf-peel rooting."""
    parent, order, _, _ = leaf_peel(g)
    return _forest_values(parent, order)[0]


def hc_of_tree(g: Graph) -> int:
    """Hamiltonian completion number of a tree: n - l. Trees are never
    Hamiltonian, so the completion number is always positive for n >= 2.
    The peel runs first, so every non-tree, the empty graph too, raises
    NotATree."""
    value = l_of_tree(g)
    if g.n < 2:
        raise ValueError("hamiltonian completion needs n >= 2")
    return g.n - value


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


def _value_without_leaf(
    parent: Sequence[Optional[int]], ones: Sequence[int], lv: int, u: int
) -> int:
    """l(T - u) for a leaf u of T, from the gain counts ``ones`` of the
    _forest_values pass over (parent, order) that gave lv = l(T).

    Moving u onto any other leaf w gives this plus 1: w's count of gain-1
    children goes from 0 to 1, or from at most 1 to at most 2 when w is
    the root, which adds 1 and changes no gain that w pushes up. Removing
    u takes its gain-1 push off its parent; the walk goes up while a
    vertex's gain flips, each flip reversing the push above it. A root u
    has one child, and its count is that child's gain.
    """
    v = parent[u]
    if v is None:
        return lv - ones[u]
    step = -1
    while v is not None:
        c = ones[v]
        new = c + step
        lv += min(new, 2) - min(c, 2)
        if (c < 2) == (new < 2):
            break
        v = parent[v]
        step = -step
    return lv


def hc_construct(g: Graph) -> Completion:
    """Build a Hamiltonian completion of a tree with exactly out(T)-1 edges.

    Close a cycle through the two lowest-id leaves first, then splice in
    each leaf still outside, in id order: walk from it to the nearest
    cycle vertex u, detach u from its smaller-id cycle neighbor w, and add
    the leaf-w edge so the cycle absorbs the whole connecting path.
    The returned cycle may skip some of the out(T)-1 added edges: when a
    later splice detaches u from w and that cycle edge is an earlier added
    edge, it leaves the cycle but stays in the completion, which is still
    valid, only larger than its own cycle needs.
    Linear time: the cycle's vertices always form a subtree containing
    the root u0, so the nearest cycle vertex is the first one on the walk
    up the parent pointers, and each vertex is walked once.
    """
    n = g.n
    if n < 3:
        raise ValueError("hamiltonian completion construction needs n >= 3")
    leaves = [v for v in range(n) if g.degree(v) == 1]
    # the rooting rejects every non-tree; one without leaves is rooted at 0
    parent = RootedTree(g, leaves[0] if leaves else 0).parent
    u0 = leaves[0]
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
    distinct non-edges of g, each joining two different vertices of g, and
    ``cycle`` visits every vertex once with each step, the closing one
    too, on an edge of g or an added edge."""
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
    if (len(added) != len(added_list) or not added.isdisjoint(host)
            or not all(0 <= u < v < n for u, v in added)):
        return False
    prev = cycle[-1]
    for v in cycle:
        e = (prev, v) if prev < v else (v, prev)
        if e not in host and e not in added:
            return False
        prev = v
    return True
