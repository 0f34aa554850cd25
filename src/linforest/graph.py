"""Core graph and rooted-tree types, line-graph construction, and text I/O.

Vertices are dense integers 0..n-1 and edges are stored as sorted pairs,
so everything downstream (subset enumeration, witnesses, file output) is
deterministic and bit-reproducible.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Optional, Sequence


class ParseError(ValueError):
    """Raised for malformed edge-list documents; messages name the line."""


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

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

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


def parse_graph(text: str, *, max_n: Optional[int] = None) -> Graph:
    """Parse an edge-list document: a header line "n m", then m lines "u v".

    Rejects self-loops, duplicate edges, out-of-range ids, and any mismatch
    between the header and the body; errors name the offending 1-based line.
    With ``max_n``, a header declaring more vertices is rejected before any
    per-vertex storage is allocated.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("line 1: missing header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"line 1: expected header 'n m', got {lines[0].strip()!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"line 1: expected two integers, got {lines[0].strip()!r}") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: n and m must be non-negative")
    if max_n is not None and n > max_n:
        raise ParseError(f"line 1: n={n} exceeds the limit of {max_n} vertices")

    edges: list[Edge] = []
    seen: set[Edge] = set()
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            if any(rest.strip() for rest in lines[lineno:]):
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
    del lines, seen  # before Graph holds its own copy of the edges
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
    """A tree with a designated root and parent pointers.

    ``order`` lists vertices in BFS order from the root, so iterating it in
    reverse visits children before parents; siblings are contiguous and in
    increasing id. ``depth`` and ``children`` are computed from ``parent``
    and ``order`` on first access and cached.
    """

    __slots__ = ("graph", "root", "parent", "order", "_depth", "_children")

    def __init__(self, graph: Graph, root: int):
        n = graph.n
        if not (0 <= root < n):
            raise ValueError(f"root {root} out of range")
        if graph.m != n - 1:
            raise ValueError("not a tree: edge count differs from n-1")
        adjacency = graph.adjacency
        parent: list[Optional[int]] = [None] * n
        order = [root]
        # the order list is the BFS queue: it grows while it is walked. With
        # n-1 edges a cycle means a second component; the walk would circle
        # it for ever, so it stops after n vertices, with the order too long.
        for u in islice(order, n):
            nbrs = adjacency[u]
            if len(nbrs) == 1 and u != root:
                continue  # a leaf's one neighbor is its parent
            p = parent[u]
            for w in nbrs:
                if w != p:
                    parent[w] = u
                    order.append(w)
        if len(order) != n:
            raise ValueError("not a tree: graph is disconnected")
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        self.order = tuple(order)
        self._depth: Optional[tuple[int, ...]] = None
        self._children: Optional[tuple[tuple[int, ...], ...]] = None

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def depth(self) -> tuple[int, ...]:
        if self._depth is None:
            parent = self.parent
            depth = [0] * self.n
            for v in self.order[1:]:
                depth[v] = depth[parent[v]] + 1
            self._depth = tuple(depth)
        return self._depth

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        if self._children is None:
            parent = self.parent
            kids: list[list[int]] = [[] for _ in range(self.n)]
            for v in self.order[1:]:  # BFS order keeps siblings increasing
                kids[parent[v]].append(v)
            self._children = tuple(map(tuple, kids))
        return self._children

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root})"


def leaf_peel(g: Graph) -> tuple[list[Optional[int]], list[int], int, int]:
    """Strip leaves of a tree in FIFO order until no vertex is left.

    Returns (parent, order, last, layers): each vertex's parent is its one
    neighbor still present when it is stripped (None for the last one, the
    root), ``order`` lists children before parents with the root last,
    ``order[last:]`` is the last layer stripped, which is the center, and
    ``layers`` counts the layers stripped. Linear time.
    """
    n = g.n
    if g.m != n - 1:
        raise ValueError("not a tree: edge count differs from n-1")
    adjacency = g.adjacency
    deg = [len(nbrs) for nbrs in adjacency]  # zeroed once stripped
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
        raise ValueError("not a tree: graph contains a cycle")
    return parent, order, last, layers


def tree_center(g: Graph) -> tuple[int, ...]:
    """Center of a tree by iterative leaf stripping (1 or 2 vertices)."""
    _, order, last, _ = leaf_peel(g)
    return tuple(sorted(order[last:]))


def root_at_center(g: Graph) -> RootedTree:
    """Root a tree at its center, breaking a two-vertex tie by smaller id."""
    return RootedTree(g, tree_center(g)[0])


def tree_diameter(g: Graph) -> int:
    """Diameter of a tree in edges, from one leaf peel: a longest path
    climbs layers - 1 edges from a leaf to the center on each side, and
    crosses the center's own edge when it has two vertices. 0 for a single
    vertex; raises the peel's ``not a tree`` errors otherwise."""
    _, order, last, layers = leaf_peel(g)
    return 2 * (layers - 1) + (len(order) - last) - 1


@dataclass(frozen=True)
class TreeStats:
    """Structural invariants of a tree used by the completion bounds.

    ``out`` counts leaves. ``ex`` maps each inner vertex to how many of its
    low-degree neighbors (degree < 3) exceed two; leaves are excluded.
    ``s`` counts degree-2 vertices at depth 1 from the center root.
    """

    diameter: int
    radius: int
    center: tuple[int, ...]
    out: int
    ex: dict[int, int]
    s: int

    @property
    def ex_sum(self) -> int:
        return sum(self.ex.values())


def hc_bound_counts(degree: Sequence[int], edges: Iterable[Edge]) -> tuple[int, list[int]]:
    """The counts behind the completion bounds, from degrees and edges: the
    leaf count, and per vertex how many of its low-degree neighbors
    (degree < 3) exceed two."""
    low = [0] * len(degree)
    for u, v in edges:
        if degree[v] < 3:
            low[u] += 1
        if degree[u] < 3:
            low[v] += 1
    return degree.count(1), [c - 2 if c > 2 else 0 for c in low]


def tree_stats(t: RootedTree) -> TreeStats:
    """Compute leaf count, excess map, diameter/radius/center, and s; s is
    taken around the center root ``root_at_center`` picks, whatever t's
    root."""
    g = t.graph
    n = g.n
    _, order, last, layers = leaf_peel(g)
    center = tuple(sorted(order[last:]))
    d = 2 * (layers - 1) + len(center) - 1
    r = (d + 1) // 2
    degree = [g.degree(v) for v in range(n)]
    out, excess = hc_bound_counts(degree, g.edges)
    ex = {v: excess[v] for v in range(n) if degree[v] >= 2}
    s = sum(1 for v in g.adjacency[center[0]] if degree[v] == 2)
    return TreeStats(diameter=d, radius=r, center=center, out=out, ex=ex, s=s)


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
