import collections
import functools
import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from linforest import (
    Graph,
    NotATree,
    ParseError,
    enumerate_trees,
    format_graph,
    leaf_peel,
    line_graph,
    parse_graph,
    perfect_kary,
    random_tree,
    root_at_center,
    spider,
    star_graph,
    path_graph,
    t2_star,
    t_star,
    to_dot,
    tree_center,
    tree_diameter,
    tree_stats,
)
from linforest.graph import RootedTree
from reference import children, depth


def min_eccentricity_vertices(g: Graph) -> tuple[int, ...]:
    """Center by definition: grow the radius-r ball around every vertex in
    lockstep; the vertices whose ball covers the graph first are those of
    minimum eccentricity."""
    n = g.n
    full = (1 << n) - 1
    balls = [1 << v for v in range(n)]
    while True:
        done = tuple(v for v in range(n) if balls[v] == full)
        if done:
            return done
        grown = []
        for v in range(n):
            b = balls[v]
            for w in g.adjacency[v]:
                b |= balls[w]
            grown.append(b)
        balls = grown


def bfs_reference(g: Graph, root: int):
    """Depths and children by a textbook BFS with a seen test: the children
    of a vertex are its unseen neighbors, in increasing id."""
    depth = [-1] * g.n
    depth[root] = 0
    children = [()] * g.n
    queue = [root]
    for u in queue:
        kids = tuple(w for w in g.adjacency[u] if depth[w] < 0)
        for w in kids:
            depth[w] = depth[u] + 1
        children[u] = kids
        queue.extend(kids)
    return tuple(depth), tuple(children)


def has_induced_claw(g: Graph) -> bool:
    """4-subset scan for an induced star with three leaves."""
    for v in range(g.n):
        nbrs = g.adjacency[v]
        if len(nbrs) < 3:
            continue
        for trio in itertools.combinations(nbrs, 3):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(trio, 2)):
                return True
    return False


def naive_build(n: int, edges) -> tuple[tuple, tuple]:
    """Sorted edge pairs and per-vertex sorted neighbour tuples, by definition."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return tuple(pairs), tuple(tuple(sorted(row)) for row in rows)


def assert_matches_naive(g: Graph, n: int, edges) -> None:
    assert g.n == n
    assert (g.edges, g.adjacency) == naive_build(n, edges)
    assert type(g.adjacency) is tuple and type(g.edges) is tuple
    assert all(type(row) is tuple for row in g.adjacency)


class TestGraph:
    def test_basic_construction(self):
        g = Graph(3, [(1, 0), (1, 2)])
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.degree(1) == 2
        assert g.is_tree()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_names_first_duplicate_in_sorted_order(self):
        # (4, 5) is repeated first in the input, (2, 3) first once sorted
        with pytest.raises(ValueError, match=r"^duplicate edge \(2, 3\)$"):
            Graph(6, [(4, 5), (3, 2), (0, 4), (5, 4), (2, 3)])

    def test_adjacency_matches_naive_build(self):
        # every graph on <= 5 vertices, given as ordered tuples, in reverse
        # with flipped pairs, as lists, and as lists flipped every other one
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
                naive = tuple(
                    tuple(sorted([v for u, v in edges if u == x] + [u for u, v in edges if v == x]))
                    for x in range(n)
                )
                for given in (
                    edges,
                    [(v, u) for u, v in reversed(edges)],
                    [list(e) for e in edges],
                    [[v, u] if i % 2 else [u, v] for i, (u, v) in enumerate(edges)],
                ):
                    g = Graph(n, given)
                    assert g.adjacency == naive
                    assert_matches_naive(g, n, given)

    def test_keeps_ordered_tuple_pairs(self):
        given = [(2, 3), (0, 1), (1, 2)]
        g = Graph(4, given)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert all(any(e is x for x in given) for e in g.edges)

    def test_copies_list_reversed_and_subclassed_pairs(self):
        pair = collections.namedtuple("pair", "u v")
        given = [[0, 1], (2, 1), pair(2, 3), [4, 3], pair(5, 4)]
        for g in (Graph(6, given), Graph(6, iter(given), validate=False)):
            assert_matches_naive(g, 6, given)
            assert all(type(e) is tuple for e in g.edges)
            assert not any(e is x for e in g.edges for x in given)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [(0, 1), (0, 2)])

    def test_matches_naive_build_at_scale(self):
        # shuffled, with flipped pairs, given as a list and as a generator
        for seed in range(3):
            rng = random.Random(seed)
            edges = [e[::-1] if rng.random() < 0.5 else e for e in random_tree(2000, seed).edges]
            rng.shuffle(edges)
            assert_matches_naive(Graph(2000, edges), 2000, edges)
            assert_matches_naive(Graph(2000, (e for e in edges), validate=False), 2000, edges)
        for g in (star_graph(2000), path_graph(2000), star_graph(1), path_graph(2)):
            assert_matches_naive(g, g.n, g.edges)

    def test_matches_naive_build_with_isolated_vertices(self):
        for n, edges in (
            (0, []),
            (1, []),
            (5, []),
            (10, [(7, 2), (3, 7), (2, 9)]),
            (3000, [(2 * u + 1, 2 * v + 1) for u, v in random_tree(1000, 7).edges]),
        ):
            assert_matches_naive(Graph(n, edges), n, edges)
            assert_matches_naive(Graph(n, iter(edges)), n, edges)


class TestParse:
    def test_parse_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g == path_graph(3)

    def test_parse_star(self):
        g = parse_graph("4 3\n0 1\n0 2\n0 3")
        assert g == star_graph(4)

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ParseError, match=r"line 3.*duplicate"):
            parse_graph("3 2\n0 1\n0 1")

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match=r"line 2.*self-loop"):
            parse_graph("3 2\n1 1\n0 1")

    def test_out_of_range_names_line(self):
        with pytest.raises(ParseError, match=r"line 3.*range"):
            parse_graph("3 2\n0 1\n1 3")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declares 3"):
            parse_graph("4 3\n0 1\n1 2")
        with pytest.raises(ParseError, match="more than 1"):
            parse_graph("3 1\n0 1\n1 2")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_graph("banana\n0 1")

    def test_roundtrip(self):
        g = spider([2, 2, 2])
        assert parse_graph(format_graph(g)) == g

    def test_trailing_newlines_ok(self):
        assert parse_graph("2 1\n0 1\n\n") == path_graph(2)


class TestBuildMemory:
    """tracemalloc bytes per vertex at n = 10^5. Each adjacency list is
    emptied as soon as its tuple is made, no caller keeps a second copy of
    the edges while Graph sorts its own, and Graph keeps an input pair that
    is already an ordered tuple, so a build peaks well under twice what the
    finished graph keeps."""

    N = 10**5

    def per_vertex(self, build):
        gc.collect()
        tracemalloc.start()
        try:
            result = build()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, retained / self.N, peak / self.N

    def test_random_tree(self):
        g, retained, peak = self.per_vertex(lambda: random_tree(self.N, 0))
        assert g.n == self.N
        assert retained <= 200
        assert peak <= 300

    def test_parse_graph(self):
        text = format_graph(random_tree(self.N, 2))
        g, retained, peak = self.per_vertex(lambda: parse_graph(text))
        assert g.m == self.N - 1
        assert retained <= 200
        assert peak <= 285

    def test_line_graph(self):
        g = random_tree(self.N, 3)
        lg, _, peak = self.per_vertex(lambda: line_graph(g))
        assert lg.graph.n == g.m
        assert peak <= 300


class TestCollectorPause:
    """Graph pauses the cyclic collector while it holds n per-vertex lists
    of ints, which can form no cycle, and leaves it as it found it."""

    N = 10**5

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            Graph(4, [(0, 1), (1, 2), (3, 1)])
            assert gc.isenabled() is enabled
            with pytest.raises(IndexError):
                Graph(3, [(0, 5)], validate=False)  # raises while paused
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def full_collections(self, build) -> int:
        """Generation-2 collections during build(). The objects alive before
        it are frozen, so the collector's rule that a full collection waits
        for a quarter as many new long-lived objects as old ones counts only
        the build's own: the result does not depend on what earlier tests
        left alive."""
        full = []

        def count(phase, info):
            if phase == "stop" and info["generation"] == 2:
                full.append(info)

        assert gc.isenabled()
        assert gc.get_threshold() == (700, 10, 10)
        gc.collect()
        gc.freeze()
        gc.callbacks.append(count)
        try:
            build()
        finally:
            gc.callbacks.remove(count)
            gc.unfreeze()
        return len(full)

    def test_graph_runs_no_full_collection(self):
        # 2 full collections without the pause
        edges = list(random_tree(self.N, 5).edges)
        assert self.full_collections(lambda: Graph(self.N, edges)) == 0


class TestLineGraph:
    def test_path3_gives_single_edge(self):
        lg = line_graph(path_graph(3))
        assert lg.graph.n == 2
        assert lg.graph.edges == ((0, 1),)
        assert lg.source_edges == ((0, 1), (1, 2))

    def test_claw_gives_triangle(self):
        lg = line_graph(star_graph(4))
        assert lg.graph.n == 3
        assert lg.graph.edges == ((0, 1), (0, 2), (1, 2))

    def test_path5_gives_path4(self):
        lg = line_graph(path_graph(5))
        g = lg.graph
        assert g.n == 4 and g.m == 3
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert g.is_connected()

    def test_edge_count_formula(self):
        g = spider([3, 2, 1])
        lg = line_graph(g).graph
        expected = sum(
            g.degree(v) * (g.degree(v) - 1) // 2 for v in range(g.n)
        )
        assert lg.n == g.m and lg.m == expected

    def test_line_graphs_of_trees_are_claw_free(self):
        for g in (path_graph(6), star_graph(5), spider([2, 2, 2]), spider([3, 1, 1, 1])):
            assert not has_induced_claw(line_graph(g).graph)

    def test_vertex_of(self):
        lg = line_graph(path_graph(3))
        assert lg.vertex_of(2, 1) == 1

    def test_vertex_of_every_edge_and_missing_edges(self):
        g = spider([3, 2, 1])
        lg = line_graph(g)
        for i, (u, v) in enumerate(g.edges):
            assert lg.vertex_of(v, u) == i
        for u, v in ((1, 3), (0, 5), (5, 6)):  # (5, 6) sorts after every edge
            assert not g.has_edge(u, v)
            with pytest.raises(ValueError, match="not an edge"):
                lg.vertex_of(u, v)


class TestRooting:
    def test_path5_center(self):
        t = root_at_center(path_graph(5))
        assert t.root == 2
        assert depth(t) == (2, 1, 0, 1, 2)

    def test_star_center_is_hub(self):
        t = root_at_center(star_graph(4))
        assert t.root == 0

    def test_path4_tie_breaks_low(self):
        assert root_at_center(path_graph(4)).root == 1

    def test_two_center_path(self):
        assert tree_center(path_graph(6)) == (2, 3)

    def test_rejects_cycle(self):
        c4_plus = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="cycle"):
            root_at_center(c4_plus)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            root_at_center(Graph(4, [(0, 1), (2, 3)]))

    def test_rooting_pinned(self):
        # digest of root_at_center on every labeled tree n <= 7. The order
        # is left out: test_depth_and_children_on_demand checks its
        # convention, and any order that keeps it gives the same forests.
        digest = hashlib.sha256()
        for n in range(1, 8):
            for g in enumerate_trees(n):
                t = root_at_center(g)
                digest.update(repr((t.root, t.parent, depth(t), children(t))).encode())
        assert digest.hexdigest() == (
            "20fef2b9a3621b1c91a249955e054ee560f351c4484afacc052bb1dca8416474"
        )

    def test_center_rooting_is_rooted_tree_at_center(self):
        """root_at_center takes its arrays from the unrooted peel; they
        equal, order included, those of the peel held at the center, on
        one- and two-vertex centers."""
        def same(g):
            t, held = root_at_center(g), RootedTree(g, tree_center(g)[0])
            return (t.root, t.parent, t.order) == (held.root, held.parent, held.order)

        for n in range(1, 9):
            assert all(same(g) for g in enumerate_trees(n)), n
        for g in (t_star(10**5, 8), t2_star(10**5, 9), perfect_kary(3, 10), spider([1000] * 100),
                  *(random_tree(10**5, seed) for seed in (1, 2, 3))):
            assert same(g), g

    def test_center_rooting_peels_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return leaf_peel(*args)

        monkeypatch.setattr("linforest.graph.leaf_peel", counted)
        for g in (path_graph(6), path_graph(7)):  # a two- and a one-vertex center
            calls.clear()
            root_at_center(g)
            assert len(calls) == 1

    def test_center_is_min_eccentricity(self):
        for n in range(1, 9):
            for g in enumerate_trees(n):
                assert tree_center(g) == min_eccentricity_vertices(g)

    def test_peel_arrays(self):
        for g, d in ((path_graph(1), 0), (path_graph(2), 1), (path_graph(6), 5), (star_graph(5), 2),
                     (spider([3, 2, 2]), 5)):
            parent, order, last, layers = leaf_peel(g)
            assert sorted(order) == list(range(g.n))
            assert parent[order[-1]] is None
            position = {v: i for i, v in enumerate(order)}
            for v in order[:-1]:
                assert g.has_edge(v, parent[v]) and position[parent[v]] > position[v]
            assert tuple(sorted(order[last:])) == tree_center(g)
            assert 2 * (layers - 1) + (len(order) - last) - 1 == d

    @pytest.mark.parametrize("root", [-1, 3])
    def test_peel_root_out_of_range(self, root):
        with pytest.raises(ValueError, match=f"^root {root} out of range$"):
            leaf_peel(path_graph(3), root=root)

    @pytest.mark.parametrize("build", [
        tree_center, leaf_peel, pytest.param(functools.partial(leaf_peel, root=0), id="leaf_peel-0"),
        root_at_center, tree_diameter,
    ])
    def test_not_a_tree_messages_of_the_peel(self, build):
        """Every builder on the peel raises the peel's messages. This
        includes tree_diameter, which once ran a double BFS: that raised
        only for a disconnected graph and gave a connected graph with a
        cycle, such as the triangle, a number."""
        for g in (Graph(4, [(0, 1), (2, 3)]), Graph(0, []), Graph(3, [(0, 1), (1, 2), (0, 2)])):
            with pytest.raises(NotATree, match="^not a tree: edge count differs from n-1$"):
                build(g)
        # n-1 edges but not a tree: a cycle, with an isolated vertex or a path
        for g in (Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])):
            with pytest.raises(NotATree, match="^not a tree: graph contains a cycle$"):
                build(g)

    @pytest.mark.parametrize("root", [0, 4])
    def test_not_a_tree_messages_of_rooted_tree(self, root):
        with pytest.raises(NotATree, match="^not a tree: edge count differs from n-1$"):
            RootedTree(Graph(5, [(0, 1), (2, 3)]), root)
        for g in (Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])):
            with pytest.raises(NotATree, match="^not a tree: graph is disconnected$"):
                RootedTree(g, root)

    def test_rooted_tree_structure(self):
        t = RootedTree(spider([2, 1]), 0)
        depths = depth(t)
        assert t.parent[0] is None
        for v in range(1, t.n):
            p = t.parent[v]
            assert t.graph.has_edge(v, p)
            assert depths[v] == depths[p] + 1

    def test_depth_and_children_on_demand(self):
        for n in range(1, 7):
            for g in enumerate_trees(n):
                for root in range(n):
                    t = RootedTree(g, root)
                    assert (depth(t), children(t)) == bfs_reference(g, root)
                    # children before parents, root last
                    assert sorted(t.order) == list(range(n)) and t.order[-1] == root
                    position = {v: i for i, v in enumerate(t.order)}
                    assert all(position[v] < position[t.parent[v]] for v in t.order[:-1])

    def test_every_non_tree_with_n_minus_1_edges_is_disconnected(self):
        # a cycle in the root's component must not keep the walk going
        for n in range(3, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for edges in itertools.combinations(pairs, n - 1):
                g = Graph(n, edges)
                if g.is_tree():
                    continue
                for root in range(n):
                    with pytest.raises(ValueError, match="^not a tree: graph is disconnected$"):
                        RootedTree(g, root)


class TestStats:
    def test_claw(self):
        g = star_graph(4)
        out, excess = tree_stats(root_at_center(g))
        assert (out, tree_diameter(g)) == (3, 2)
        assert excess == [1, 0, 0, 0]

    def test_path5(self):
        g = path_graph(5)
        out, excess = tree_stats(root_at_center(g))
        assert (out, tree_diameter(g)) == (2, 4)
        assert excess == [0] * 5

    def test_spider(self):
        g = spider([2, 2, 2])
        out, excess = tree_stats(root_at_center(g))
        assert out == 3
        assert excess[0] == 1
        assert tree_diameter(g) == 4

    def test_every_root_gives_the_same_stats(self):
        for n in range(1, 7):
            for g in enumerate_trees(n):
                centered = tree_stats(root_at_center(g))
                for root in range(n):
                    assert tree_stats(RootedTree(g, root)) == centered

    def test_runs_no_leaf_peel(self, monkeypatch):
        # the counts come from the rooting's parent pointers
        g = spider([2, 2, 2])
        t = RootedTree(g, 3)

        def refuse(*args):
            raise AssertionError("tree_stats ran a leaf peel")

        monkeypatch.setattr("linforest.graph.leaf_peel", refuse)
        out, excess = tree_stats(t)
        assert (out, excess, sum(excess)) == (3, [1, 0, 0, 0, 0, 0, 0], 1)

    def test_center_relation(self):
        for g in (path_graph(7), path_graph(8), star_graph(6), spider([3, 2])):
            assert len(tree_center(g)) == 1 + tree_diameter(g) % 2

    def test_diameter(self):
        assert tree_diameter(path_graph(1)) == 0
        assert tree_diameter(path_graph(2)) == 1
        assert tree_diameter(spider([3, 2, 1])) == 5


class TestDot:
    def test_plain(self):
        text = to_dot(path_graph(3))
        assert "0 -- 1;" in text and "1 -- 2;" in text
        assert text.count("penwidth") == 0

    def test_highlight(self):
        text = to_dot(path_graph(3), [(1, 0)])
        assert '0 -- 1 [color="red", penwidth=2.0];' in text
        assert "1 -- 2;" in text

    def test_highlight_missing_edge(self):
        with pytest.raises(ValueError, match="not in graph"):
            to_dot(star_graph(4), [(1, 2)])
