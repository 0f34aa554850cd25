"""The path oracles, longest_path_bf, is_hamiltonian and hc_bf, which all
read the layers of one path kernel, against the backtracking and
candidate-search oracles they replaced (in reference.py), and hc_bf at
its cap, where those took seconds."""

from itertools import combinations, product

import pytest

from linforest import (
    Graph,
    format_graph,
    hc_bf,
    is_hamiltonian,
    l_of_tree,
    line_graph,
    longest_path_bf,
    path_graph,
    spider,
    star_graph,
)
from linforest.cli import main
from linforest.oracle import DEFAULT_HC_CAP

import reference


def assert_agrees(g, with_hc):
    assert longest_path_bf(g) == reference.longest_path_bf(g), g.edges
    assert is_hamiltonian(g) == reference.is_hamiltonian(g), g.edges
    if with_hc:
        assert hc_bf(g) == reference.hc_bf(g), g.edges


def test_agree_on_every_graph_to_five_vertices():
    count = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            assert_agrees(Graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1]), n >= 3)
            count += 1
    assert count == 1 + 1 + 2 + 8 + 64 + 1024


def test_agree_on_the_line_graph_of_every_shape_to_eight_vertices():
    """A shape gives vertex i the parent shape[i] > i: (n-1)! shapes
    cover every tree on n vertices up to isomorphism. hc_bf runs where
    L(T) has 3..7 vertices."""
    count = 0
    for n in range(2, 9):
        for shape in product(*(range(i + 1, n) for i in range(n - 1))):
            h = line_graph(Graph(n, list(enumerate(shape)))).graph
            assert_agrees(h, h.n >= 3)
            count += 1
    assert count == 1 + 2 + 6 + 24 + 120 + 720 + 5040


@pytest.mark.parametrize("g", [star_graph(9), path_graph(9), spider([3, 3, 2])],
                         ids=["star", "path", "spider"])
def test_hc_at_its_cap_on_trees(g):
    assert g.n == DEFAULT_HC_CAP
    assert hc_bf(g) == g.n - l_of_tree(g)


def test_compute_hc_at_its_cap(tmp_path, capsys):
    """star(9) plus the edge 1-2 is no tree, so the oracle answers: one
    path 3-0-1-2 and five single leaves."""
    path = tmp_path / "g.txt"
    path.write_text(format_graph(Graph(9, star_graph(9).edges + ((1, 2),))))
    assert main(["compute", "hc", str(path)]) == 0
    assert capsys.readouterr().out == "hc=6 (oracle)\n"
