"""Tree generators: canonical families, the Prüfer bijection, and the
exhaustive labeled-tree enumerator used by the verification harness."""

from __future__ import annotations

import heapq
import random
from itertools import islice
from typing import Iterator, Optional, Sequence

from .graph import Graph

#: Largest n accepted by enumerate_trees; n^(n-2) grows too fast beyond this.
ENUMERATION_CAP = 10

#: (parent, order, degree) of a rooted tree; see prufer_arrays.
TreeArrays = tuple[list[Optional[int]], list[int], list[int]]


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], validate=False)


def star_graph(n: int) -> Graph:
    """Star with hub 0 and n-1 leaves."""
    if n < 1:
        raise ValueError(f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)], validate=False)


def spider(leg_lengths: Sequence[int]) -> Graph:
    """Spider: paths of the given lengths (in edges) joined at center 0."""
    if any(length < 1 for length in leg_lengths):
        raise ValueError("leg lengths must be positive")
    edges = []
    nxt = 1
    for length in leg_lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges, validate=False)


def kary_tree(k: int, expansions: Sequence[int]) -> Graph:
    """Deterministic k-ary tree: start from the single root 0 and give k
    children to each listed vertex in turn.

    Every listed vertex must already exist and still be childless, which
    keeps the 0-or-k children invariant. Ids are assigned in creation order.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = 1
    edges: list[tuple[int, int]] = []
    has_children = [False]
    for v in expansions:
        if not (0 <= v < n):
            raise ValueError(f"cannot expand vertex {v}: only {n} vertices exist")
        if has_children[v]:
            raise ValueError(f"vertex {v} already has children")
        has_children[v] = True
        for _ in range(k):
            edges.append((v, n))
            has_children.append(False)
            n += 1
    return Graph(n, edges, validate=False)


def random_kary_tree(k: int, internal: int, seed: int) -> Graph:
    """Random k-ary tree with the given number of internal vertices
    (n = 1 + k * internal), grown by expanding uniformly chosen leaves."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if internal < 0:
        raise ValueError("internal count must be non-negative")
    rng = random.Random(seed)
    leaves = [0]
    expansions = []
    n = 1
    for _ in range(internal):
        idx = rng.randrange(len(leaves))
        v = leaves.pop(idx)
        expansions.append(v)
        leaves.extend(range(n, n + k))
        n += k
    return kary_tree(k, expansions)


def perfect_kary_size(k: int, h: int) -> int:
    """Vertex count of the perfect k-ary tree with h levels."""
    if k < 1 or h < 1:
        raise ValueError(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    if k == 1:
        return h
    return (k**h - 1) // (k - 1)


def perfect_kary(k: int, h: int) -> Graph:
    """Perfect k-ary tree with h levels: every leaf at depth h-1. Expanding
    the vertices in creation order fills the levels one by one."""
    n = perfect_kary_size(k, h)
    return kary_tree(k, range((n - 1) // k))


def prufer_decode(seq: Sequence[int], n: Optional[int] = None) -> Graph:
    """Decode a Prüfer sequence of length n-2 into a labeled tree on n
    vertices (standard smallest-leaf bijection)."""
    if n is None:
        n = len(seq) + 2
    if n < 1:
        raise ValueError("need n >= 1")
    if n <= 2:
        if seq:
            raise ValueError(f"sequence must be empty for n={n}")
    elif len(seq) != n - 2:
        raise ValueError(f"sequence length must be n-2={n - 2}, got {len(seq)}")
    for x in seq:
        if not (0 <= x < n):
            raise ValueError(f"sequence entry {x} out of range 0..{n - 1}")
    parent, order, _ = prufer_arrays(seq, n)
    return _tree_graph(parent, order)


def prufer_arrays(seq: Sequence[int], n: int) -> TreeArrays:
    """Smallest-leaf decoding of a valid Prüfer sequence straight into arrays.

    Returns (parent, order, degree): parent pointers of the tree rooted at
    n-1 (None at the root, as in RootedTree), every vertex listed children
    first with the root last, and the vertex degrees. A vertex is removed
    only once it is a leaf, so the removal order is already children first;
    a smallest-leaf pointer that only moves up keeps the decode linear.
    """
    parent: list[Optional[int]] = [None] * n
    degree = [1] * n
    if n == 1:
        degree[0] = 0
        return parent, [0], degree
    for x in seq:
        degree[x] += 1
    left = degree.copy()
    order = []
    ptr = leaf = left.index(1)
    for x in seq:
        parent[leaf] = x
        order.append(leaf)
        left[x] -= 1
        if left[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while left[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = n - 1
    order.append(leaf)
    order.append(n - 1)
    return parent, order, degree


def _tree_graph(parent: Sequence[Optional[int]], order: Sequence[int]) -> Graph:
    """The tree joining every vertex but the root (last in order) to its
    parent. Ids taken from order, not counted afresh, share their int
    objects with the decoding, which keeps a 10^6-vertex Graph smaller.
    The edges reach Graph as a generator of ordered pairs, which Graph
    keeps, so the only list of edge pairs is Graph's own sorted one."""
    edges = ((v, p) if v < (p := parent[v]) else (p, v) for v in islice(order, len(order) - 1))
    return Graph(len(parent), edges, validate=False)


def prufer_encode(g: Graph) -> tuple[int, ...]:
    """Encode a labeled tree as its Prüfer sequence (inverse of decode)."""
    n = g.n
    if not g.is_tree():
        raise ValueError("prufer_encode needs a tree")
    if n <= 2:
        return ()
    degree = [g.degree(v) for v in range(n)]
    heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(heap)
    gone = bytearray(n)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(heap)
        gone[leaf] = 1
        for w in g.adjacency[leaf]:
            if not gone[w]:
                seq.append(w)
                degree[w] -= 1
                if degree[w] == 1:
                    heapq.heappush(heap, w)
                break
    return tuple(seq)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices via a random Prüfer
    sequence."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(max(0, n - 2))]
    return prufer_decode(seq, n)


def num_labeled_trees(n: int) -> int:
    """Cayley's count n^(n-2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 if n <= 2 else n ** (n - 2)


def prufer_from_rank(n: int, rank: int) -> tuple[int, ...]:
    """The rank-th Prüfer sequence in lexicographic order (base-n digits)."""
    total = num_labeled_trees(n)
    if not (0 <= rank < total):
        raise ValueError(f"rank {rank} out of range for n={n}")
    seq = [0] * max(0, n - 2)
    for i in range(len(seq) - 1, -1, -1):
        rank, seq[i] = divmod(rank, n)
    return tuple(seq)


def enumerate_tree_arrays(
    n: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[TreeArrays]:
    """Yield ``prufer_arrays`` of all labeled trees on n vertices in
    lexicographic Prüfer order.

    ``start``/``stop`` select a rank range, which lets callers partition
    the n^(n-2) sequence space across workers.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_CAP}")
    total = num_labeled_trees(n)
    if stop is None:
        stop = total
    if not (0 <= start <= stop <= total):
        raise ValueError(f"invalid rank range [{start}, {stop}) for n={n}")
    seq = list(prufer_from_rank(n, start)) if start < stop else []
    last = len(seq) - 1
    for _ in range(start, stop):
        yield prufer_arrays(seq, n)
        # increment the sequence like a base-n counter
        i = last
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i >= 0:
            seq[i] += 1


def enumerate_trees(
    n: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[Graph]:
    """Yield all labeled trees on n vertices in lexicographic Prüfer order,
    over the same rank range as ``enumerate_tree_arrays``."""
    for parent, order, _ in enumerate_tree_arrays(n, start, stop):
        yield _tree_graph(parent, order)
