"""Core graph and rooted-tree types, line-graph construction, and text I/O.

Vertices are dense integers 0..n-1 and edges are stored as sorted pairs,
so everything downstream (subset enumeration, witnesses, file output) is
deterministic and bit-reproducible.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, Optional, Sequence


class ParseError(ValueError):
    """Raised for malformed edge-list documents; messages name the line."""


class NotATree(ValueError):
    """Raised by the leaf peel, which ``RootedTree`` and ``prufer_encode``
    run, for a graph that is not a tree. Every tree solver runs the peel
    first, so a caller can try a solver and fall back to an oracle."""


Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _ordered_pairs(edges: Iterable[tuple[int, int]]) -> Iterator[Edge]:
    """Each edge as a pair (u, v) with u < v (or a self-loop (u, u)). An
    input tuple already in that order is passed on as it is, so a caller's
    ordered pairs are not copied; a list or a reversed pair gets a new tuple."""
    for e in edges:
        u, v = e
        if u < v:
            yield e if type(e) is tuple else (u, v)
        else:
            yield (v, u)


class Graph:
    """Undirected simple graph. Immutable after construction.

    Edges are kept sorted; adjacency lists are sorted per vertex. No
    self-loops, no duplicates, ids must be exactly in range(n).
    """

    __slots__ = ("n", "edges", "adjacency", "_hash", "_edge_set")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], *, validate: bool = True):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = sorted(_ordered_pairs(edges))
        if validate:
            prev = None  # sorted, so a duplicate follows its twin
            for e in normalized:
                u, v = e
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                if e == prev:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                prev = e
        # n live lists and the row tuples hold only ints, so they form no
        # cycle, yet each collection of the oldest generation would walk
        # all of them: the cyclic collector is paused while they exist.
        was = gc.isenabled()
        gc.disable()
        try:
            # sorted pairs fill each list in increasing order: x's neighbors
            # u from pairs (u, x), u < x, arrive by increasing u, then those
            # from pairs (x, v), v > x, by increasing v
            adjacency: list[list[int]] = [[] for _ in range(n)]
            for u, v in normalized:
                adjacency[u].append(v)
                adjacency[v].append(u)
            self.n = n
            self.edges: tuple[Edge, ...] = tuple(normalized)
            del normalized
            # each list frees its items as soon as its tuple exists, so the
            # two copies of the adjacency never exist together. The emptied
            # lists are freed together at the end: freed one by one, their
            # slots take the next tuples of their size, which spreads the
            # rows of a large graph over half again as many memory pages.
            rows: list[tuple[int, ...]] = []
            for lst in adjacency:
                rows.append(tuple(lst))
                lst.clear()
            del adjacency
        finally:
            if was:
                gc.enable()
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(rows)
        self._hash: Optional[int] = None
        self._edge_set: Optional[frozenset[Edge]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edge_set()

    def edge_set(self) -> frozenset[Edge]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges)
        return self._edge_set

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self.n

    def is_tree(self) -> bool:
        return self.m == self.n - 1 and self.is_connected()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: a header line "n m", then m lines "u v".

    Rejects self-loops, duplicate edges, out-of-range ids, and any mismatch
    between the header and the body; errors name the offending 1-based line.
    """
    return _parse_lines((text,), None)


def _parse_lines(chunks: Iterable[str], max_n: Optional[int]) -> Graph:
    """parse_graph on a document given as pieces that each end at a line
    break: the whole text, or the lines of an open file. Lines are read one
    at a time, so the first fault stops the read. With ``max_n``, a header
    declaring more vertices is rejected before any per-vertex storage is
    allocated."""
    lines = chain.from_iterable(map(str.splitlines, chunks))
    first = next(lines, "")
    if not first.strip():
        raise ParseError("line 1: missing header 'n m'")
    header = first.split()
    if len(header) != 2:
        raise ParseError(f"line 1: expected header 'n m', got {first.strip()!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"line 1: expected two integers, got {first.strip()!r}") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: n and m must be non-negative")
    if max_n is not None and n > max_n:
        raise ParseError(f"line 1: n={n} exceeds the limit of {max_n} vertices")

    edges: list[Edge] = []
    seen: set[Edge] = set()
    lineno = 1
    for lineno, raw in enumerate(lines, start=2):
        if not raw.strip():
            if any(rest.strip() for rest in lines):
                raise ParseError(f"line {lineno}: blank line inside edge list")
            break
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw.strip()!r}") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        e = _normalize_edge(u, v)
        if e in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(e)
        edges.append(e)
        if len(edges) > m:
            raise ParseError(f"line {lineno}: more than {m} edges declared in header")
    if len(edges) != m:
        raise ParseError(f"line {lineno}: header declares {m} edges, found {len(edges)}")
    del seen  # before Graph holds its own copy of the edges
    return Graph(n, edges, validate=False)


def format_graph(g: Graph) -> str:
    """Serialize to the edge-list format accepted by parse_graph."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class LineGraph:
    """Line graph plus the labeling of its vertices by source edges.

    Vertex i of ``graph`` corresponds to ``source_edges[i]``; source edges
    are indexed in sorted order so the construction is reproducible.
    """

    graph: Graph
    source_edges: tuple[Edge, ...]

    def vertex_of(self, u: int, v: int) -> int:
        e = _normalize_edge(u, v)
        i = bisect_left(self.source_edges, e)
        if i == len(self.source_edges) or self.source_edges[i] != e:
            raise ValueError(f"({u}, {v}) is not an edge of the source graph")
        return i


def line_graph(g: Graph) -> LineGraph:
    """Build the line graph: one vertex per edge of g, adjacent iff the
    source edges share an endpoint."""
    at: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        at[u].append(i)
        at[v].append(i)
    # two distinct edges share at most one endpoint, so no duplicates
    ledges = [pair for ids in at for pair in combinations(ids, 2)]
    del at  # before Graph holds its own copy of the edges
    return LineGraph(Graph(g.m, ledges, validate=False), g.edges)


def line_graph_masks(n: int, edges: Sequence[Edge]) -> list[int]:
    """The line graph of the edges (over vertices range(n)) as adjacency
    masks: bit j of entry i is set iff edges i and j share an endpoint.

    Each mask is len(edges) bits wide, so this is for the small graphs the
    brute-force oracles take; ``line_graph`` stays linear in its output.
    """
    inc = [0] * n  # inc[v]: the edges at v
    bit = 1
    for u, v in edges:
        inc[u] |= bit
        inc[v] |= bit
        bit <<= 1
    return [(inc[u] | inc[v]) ^ (1 << i) for i, (u, v) in enumerate(edges)]


def _edges_acyclic(n: int, edges: Iterable[Edge]) -> bool:
    """Whether edges over vertices range(n) contain no cycle (union-find
    with path halving)."""
    root = list(range(n))
    for u, v in edges:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            return False
        root[u] = v
    return True


class RootedTree:
    """A tree with a designated root and parent pointers: the leaf peel
    held at the root, so ``order`` lists children before parents with the
    root last, as ``prufer_arrays`` does. With no root given, the root is
    the center (the smaller of two) and the arrays are those of the
    unrooted peel, which already ends there."""

    __slots__ = ("graph", "root", "parent", "order")

    def __init__(self, graph: Graph, root: Optional[int] = None):
        try:
            parent, order, _, _ = leaf_peel(graph, root)
        except NotATree:
            if root is None or graph.m != graph.n - 1:  # the peel's own message
                raise
            # n-1 edges and a cycle: a second component
            raise NotATree("not a tree: graph is disconnected") from None
        self.graph = graph
        self.root = order[-1]
        self.parent = tuple(parent)
        self.order = tuple(order)

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def leaf_peel(
    g: Graph, root: Optional[int] = None
) -> tuple[list[Optional[int]], list[int], int, int]:
    """Strip leaves of a tree in FIFO order until no vertex is left.

    Returns (parent, order, last, layers): each vertex's parent is its one
    neighbor still present when it is stripped (None for the last one, the
    root), ``order`` lists children before parents with the root last,
    ``order[last:]`` is the last layer stripped, which is the center, and
    ``layers`` counts the layers stripped. Linear time. Raises NotATree
    for every graph that is not a tree.

    With no ``root``, the root is the center, the smaller of two, and the
    arrays equal those of ``leaf_peel(g, center)``: a one-vertex center is
    stripped last anyway, and when the peel ends on the larger of two,
    the pair swaps its parent link and its places in ``order``.

    A given ``root`` starts with its degree one higher, so it is queued
    only when no other vertex is left and comes last; ``last`` and
    ``layers`` then no longer describe the center.
    """
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


def tree_center(g: Graph) -> tuple[int, ...]:
    """Center of a tree by iterative leaf stripping (1 or 2 vertices)."""
    _, order, last, _ = leaf_peel(g)
    return tuple(sorted(order[last:]))


def root_at_center(g: Graph) -> RootedTree:
    """Root a tree at its center, breaking a two-vertex tie by smaller id:
    the arrays of one unrooted leaf peel, which ends on the center."""
    return RootedTree(g)


def tree_diameter(g: Graph) -> int:
    """Diameter of a tree in edges, from one leaf peel: a longest path
    climbs layers - 1 edges from a leaf to the center on each side, and
    crosses the center's own edge when it has two vertices. 0 for a single
    vertex; raises the peel's NotATree errors otherwise."""
    _, order, last, layers = leaf_peel(g)
    return 2 * (layers - 1) + (len(order) - last) - 1


def hc_bound_counts(
    degree: Sequence[int], parent: Sequence[Optional[int]]
) -> tuple[int, list[int]]:
    """The counts behind the completion bounds, from degrees and parent
    pointers (None at the root), which hold each edge once as
    (v, parent[v]): the leaf count, and per vertex how many of its
    low-degree neighbors (degree < 3) exceed two."""
    low = [0] * len(degree)
    for v, p in enumerate(parent):
        if p is not None:
            if degree[p] < 3:
                low[v] += 1
            if degree[v] < 3:
                low[p] += 1
    return degree.count(1), [c - 2 if c > 2 else 0 for c in low]


def tree_stats(t: RootedTree) -> tuple[int, list[int]]:
    """hc_bound_counts of a tree, from its degrees and t's parent pointers;
    every rooting gives the same counts."""
    return hc_bound_counts([len(nbrs) for nbrs in t.graph.adjacency], t.parent)


def to_dot(g: Graph, highlight: Iterable[tuple[int, int]] = ()) -> str:
    """Emit a DOT document; highlighted edges get color and pen width."""
    edge_set = g.edge_set()
    marked: set[Edge] = set()
    for u, v in highlight:
        e = _normalize_edge(u, v)
        if e not in edge_set:
            raise ValueError(f"highlight edge ({u}, {v}) not in graph")
        marked.add(e)
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for u, v in g.edges:
        if (u, v) in marked:
            lines.append(f'  {u} -- {v} [color="red", penwidth=2.0];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
