import gc
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations, product

import pytest

from linforest import (
    Graph,
    SweepConfig,
    format_graph,
    path_graph,
    spider,
    star_graph,
    verify_theorems,
)
from linforest import cli
from linforest.cli import main
from linforest.graph import ParseError, parse_graph


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


class TestGen:
    def test_perfect_kary(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "perfect-kary", "2", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "n=7 m=6 d=4"
        assert out.read_text().splitlines()[0] == "7 6"

    def test_tstar(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "tstar", "8", "4", "--out", str(out)]) == 0
        assert "n=8 m=7 d=4" in capsys.readouterr().out

    def test_infeasible(self, capsys):
        assert main(["gen", "perfect-kary", "2", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_random_needs_seed(self, capsys):
        assert main(["gen", "random", "6"]) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_kary_rejects_nonpositive_k(self, capsys, k):
        assert main(["gen", "kary", k, "5", "--seed", "1"]) == 2
        assert "k must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("k, n", [("1", "0"), ("2", "-1"), ("3", "5")])
    def test_kary_message_names_both_conditions(self, capsys, k, n):
        assert main(["gen", "kary", k, n, "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: kary needs n >= 1 and n = 1 mod {k}, got n={n}\n"

    # (family, parameters) building exactly 50 vertices, and 51 or more
    AT_50 = [("path", ["50"]), ("star", ["50"]), ("spider", ["20", "29"]),
             ("kary", ["7", "50", "--seed", "1"]), ("perfect-kary", ["1", "50"]),
             ("prufer", ["0"] * 48), ("random", ["50", "--seed", "1"]),
             ("lower-spider", ["50", "4"]), ("tstar", ["50", "4"]), ("t1star", ["50", "5"]),
             ("t2star", ["50", "5"]), ("kary-caterpillar", ["50", "7"])]
    ABOVE_50 = [("path", ["51"]), ("star", ["51"]), ("spider", ["25", "25"]),
                ("kary", ["2", "51", "--seed", "1"]), ("perfect-kary", ["1", "51"]),
                ("perfect-kary", ["2", "6"]), ("perfect-kary", ["2", "1000000000"]),
                ("prufer", ["0"] * 49), ("random", ["51", "--seed", "1"]),
                ("lower-spider", ["51", "4"]), ("tstar", ["51", "4"]),
                ("t1star", ["51", "5"]), ("t2star", ["51", "5"]),
                ("kary-caterpillar", ["51", "2"])]

    def test_vertex_limit_at_the_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 50)
        assert {family for family, _ in self.AT_50} == set(cli._FAMILIES)
        for family, params in self.AT_50:
            assert main(["gen", family, *params]) == 0, family
            out = capsys.readouterr().out
            assert out.startswith("50 49\n") and "\nn=50 m=49 d=" in out, family

    def test_vertex_limit_checked_before_building(self, capsys, monkeypatch):
        """A family above the limit exits 2, naming n, before any builder runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("builder called")

        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 50)
        for name in ("path_graph", "star_graph", "spider", "random_kary_tree", "perfect_kary",
                     "prufer_decode", "random_tree"):
            monkeypatch.setattr(cli.generate, name, refuse)
        for name in ("lower_spider", "t_star", "t1_star", "t2_star", "kary_caterpillar"):
            monkeypatch.setattr(cli.bounds, name, refuse)
        for family, params in self.ABOVE_50:
            assert main(["gen", family, *params]) == 2, family
            err = capsys.readouterr().err
            assert "at most 50 are allowed" in err, family
            # a perfect binary tree is summed only until it passes the limit
            expected = "n > 50" if family == "perfect-kary" and params[0] == "2" else "n = 51"
            assert expected in err, family

    def test_outputs_pinned(self, capsys, monkeypatch):
        """Every family and an unknown name, with 0 to 2 parameters from
        {-1, 0, 2, 51}, with and without --seed, under a limit of 50
        vertices: one SHA-256 over (argv, exit code, stdout, stderr) of
        every run pins each output and which check fails first."""
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 50)
        digest = hashlib.sha256()
        runs = 0
        for family in [*cli._FAMILIES, "nosuch"]:
            for length in range(3):
                for params in product(["-1", "0", "2", "51"], repeat=length):
                    for seed in ([], ["--seed", "1"]):
                        argv = ["gen", family, *params, *seed]
                        code = main(argv)
                        out, err = capsys.readouterr()
                        digest.update(repr((argv, code, out, err)).encode())
                        runs += 1
        assert runs == 13 * 21 * 2
        assert digest.hexdigest() == (
            "f81e66621441a37cb60fb3a8c0efb37493ce4486c6285a33d27e07e99b8b7937"
        )

    def test_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["gen", "random", "9", "--seed", "5", "--out", str(a)]) == 0
        assert main(["gen", "random", "9", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seeded_kary_pinned(self, tmp_path, capsys):
        """A seed names one k-ary tree, on every Python version."""
        out = tmp_path / "k.txt"
        assert main(["gen", "kary", "2", "1001", "--seed", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "n=1001 m=1000 d=43\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ec2a2879dd26b94c4be961b3fb9998f5a0bc16b310f0702026430afdf0ef79fc"
        )


class TestCompute:
    def test_l_tree(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(5))
        assert main(["compute", "l", path]) == 0
        out = capsys.readouterr().out
        assert "l=4" in out and "0-1 1-2 2-3 3-4" in out

    def test_l_cycle_routes_to_oracle(self, tmp_path, capsys):
        from linforest import Graph

        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        path = write_graph(tmp_path, c4)
        assert main(["compute", "l", path]) == 0
        out = capsys.readouterr().out
        assert "l=3" in out and "oracle" in out

    def test_decycling_of_linegraph(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["compute", "decycling", path, "--of-linegraph"]) == 0
        out = capsys.readouterr().out
        assert "1 (dp)" in out and "1 (oracle)" in out

    def test_decycling_of_linegraph_above_cap_builds_no_linegraph(self, tmp_path, capsys,
                                                                  monkeypatch):
        def refuse(g):
            raise AssertionError("line graph built above the oracle's cap")

        monkeypatch.setattr(cli, "line_graph", refuse)
        path = write_graph(tmp_path, star_graph(30))
        assert main(["compute", "decycling", path, "--of-linegraph"]) == 0
        assert capsys.readouterr().out == "decycling(L) = 27 (dp)\n"

    def test_hc_construct_size(self, tmp_path, capsys):
        from linforest import Graph

        double_star = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
        path = write_graph(tmp_path, double_star)
        assert main(["compute", "hc-construct", path]) == 0
        assert capsys.readouterr().out == "size=3 added=1-2 1-4 0-5\n"
        assert main(["compute", "hc", path]) == 0
        assert capsys.readouterr().out == "hc=2\n"

    def test_cap_oracle(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(25))
        assert main(["compute", "longest-path", path]) == 2
        assert "n=25 exceeds cap 20" in capsys.readouterr().err
        assert main(["compute", "longest-path", path, "--cap-oracle", "25"]) == 0
        assert capsys.readouterr().out.startswith("longest-path=24 ")

    @pytest.mark.parametrize("quantity", list(cli._QUANTITIES))
    def test_negative_cap_oracle(self, tmp_path, capsys, quantity):
        # refused before the input is read: the file does not exist
        missing = str(tmp_path / "missing.txt")
        assert main(["compute", quantity, missing, "--cap-oracle", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().endswith("--cap-oracle must be 0 or more, got -1")

    def test_hc_construct_rejects_nontree(self, tmp_path, capsys):
        from linforest import Graph

        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        path = write_graph(tmp_path, c4)
        assert main(["compute", "hc-construct", path]) == 2
        assert "tree" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n0 1\n0 1\n")
        assert main(["compute", "l", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing header 'n m'"),
        ("a b\n", "line 1: expected two integers, got 'a b'"),
        ("-1 0\n", "line 1: n and m must be non-negative"),
        ("3 2\n0 1\n\n1 2\n", "line 3: blank line inside edge list"),
        ("3 1\n0 1 2\n", "line 2: expected edge 'u v', got '0 1 2'"),
        ("3 1\n0 x\n", "line 2: expected two integers, got '0 x'"),
    ], ids=["empty", "header-words", "header-negative", "blank-line", "three-ids",
            "edge-word"])
    def test_hostile_input(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["compute", "l", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_directory_input(self, tmp_path, capsys):
        assert main(["compute", "l", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {tmp_path}: ")

    def test_not_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 1\n0 1\n\xff\n")
        assert main(["compute", "l", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: not UTF-8 text: invalid start byte\n"

    def test_not_utf8_stdin(self, capsys, monkeypatch):
        data = b"2 1\n0 1\n\xff\n"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["compute", "l", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -: not UTF-8 text: invalid start byte\n"
        # the console script: no traceback, and not exit 1, which means
        # violations found. stdin's bytes are decoded strictly, as a file's,
        # even where the interpreter would turn the bad byte into a surrogate
        for handler in ("strict", "surrogateescape"):
            proc = subprocess.run(
                [sys.executable, "-m", "linforest.cli", "compute", "l", "-"], input=data,
                capture_output=True, env={**os.environ, "PYTHONIOENCODING": f"utf-8:{handler}"},
            )
            assert (proc.returncode, proc.stdout) == (2, b"")
            assert proc.stderr == b"error: -: not UTF-8 text: invalid start byte\n"

    def test_vertex_limit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 4)
        assert main(["compute", "l", write_graph(tmp_path, star_graph(4))]) == 0
        capsys.readouterr()
        assert main(["compute", "l", write_graph(tmp_path, star_graph(5))]) == 2
        assert "line 1: n=5 exceeds the limit of 4 vertices" in capsys.readouterr().err

    def test_longest_path(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["compute", "longest-path", path]) == 0
        assert "longest-path=2" in capsys.readouterr().out

    @pytest.mark.parametrize("quantity, line", [("l", "l=3 "), ("hc", "hc=1"),
                                                ("longest-path", "longest-path=3 ")])
    def test_of_linegraph(self, tmp_path, capsys, quantity, line):
        """The line graph of P5 is P4."""
        path = write_graph(tmp_path, path_graph(5))
        assert main(["compute", quantity, path, "--of-linegraph"]) == 0
        assert capsys.readouterr().out.startswith(line)

    def test_tree_or_oracle_outputs_pinned(self, capsys, monkeypatch):
        """The commands that choose between the tree solver and an oracle,
        on every graph with at most 4 vertices and every 5-vertex graph
        with 4 edges, read from stdin: one SHA-256 over (argv, document,
        exit code, stdout, stderr) of every run pins which side answers and
        every error, down to the empty graph's."""
        graphs = []
        for n in range(5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                graphs.append(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
        graphs.extend(Graph(5, edges) for edges in combinations(combinations(range(5), 2), 4))
        digest = hashlib.sha256()
        for g in graphs:
            text = format_graph(g)
            for argv in (["compute", "l", "-"], ["compute", "hc", "-"],
                         ["compute", "decycling", "-", "--of-linegraph"],
                         ["compute", "l", "-", "--of-linegraph"],
                         ["compute", "hc", "-", "--of-linegraph"]):
                monkeypatch.setattr(sys, "stdin", io.StringIO(text))
                code = main(argv)
                out, err = capsys.readouterr()
                digest.update(repr((argv, text, code, out, err)).encode())
        assert len(graphs) == 76 + 210
        assert digest.hexdigest() == (
            "d67d22d927f8a8695fc24552bef3b6e9428faee8dca3beeabd0a56858081a1b7"
        )

    @pytest.mark.parametrize("args, expected", [
        (["hc-construct"], "835ed2cfbf4af579aefd08d70b706b521e9d7e55343d11430f19363d90fce4de"),
        (["decycling"], "d7c7b46ad5812d8273965feed37d6f2f4f1ae4a4cecb3c5d9c5ed13c79527a13"),
        (["longest-path"], "28d5f5d80a5e774ea9b7e1bd28782ebbc3babbed03101e65c44fa9f77f0fd060"),
        (["induced-forest"], "14775fc62e6d4fa66902545107ebebcacfe24e53552d7bc3160aca04312937b8"),
        (["hc-construct", "--of-linegraph"],
         "c017b1fe5b91f6c892ab46b9ecebcab3461ee75e4f097d6db3134168e0962e0b"),
        (["longest-path", "--of-linegraph"],
         "80639575132632d1cd4fe20726217fddbb026e78f07ae1bedb12d41e09bde582"),
        (["induced-forest", "--of-linegraph"],
         "2fae511265294c1d7e5d19ff282283151511307c5124c672a4b5980de2d99a29"),
    ], ids=["hc-construct", "decycling", "longest-path", "induced-forest",
            "hc-construct-L", "longest-path-L", "induced-forest-L"])
    def test_other_outputs_pinned(self, capsys, monkeypatch, args, expected):
        """The quantities and flags that test_tree_or_oracle_outputs_pinned
        leaves out, on the same 286 graphs, hashed the same way."""
        graphs = []
        for n in range(5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                graphs.append(Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1]))
        graphs.extend(Graph(5, edges) for edges in combinations(combinations(range(5), 2), 4))
        argv = ["compute", args[0], "-", *args[1:]]
        digest = hashlib.sha256()
        for g in graphs:
            text = format_graph(g)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(repr((argv, text, code, out, err)).encode())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("quantity, message", [
        ("l", "m=406 exceeds cap 24"), ("hc", "n=29 exceeds cap 9"),
        ("hc-construct", "not a tree: edge count differs from n-1"),
        ("longest-path", "n=29 exceeds cap 20"), ("induced-forest", "n=29 exceeds cap 20")])
    def test_of_linegraph_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                  quantity, message):
        """L(star 30) has 29 vertices and 406 edges, so it is no tree: each
        quantity refuses it from the degrees alone."""
        def refuse(g):
            raise AssertionError("line graph built although the answer is a refusal")

        monkeypatch.setattr(cli, "line_graph", refuse)
        path = write_graph(tmp_path, star_graph(30))
        assert main(["compute", quantity, path, "--of-linegraph"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_of_linegraph_built_when_it_may_be_a_tree(self, tmp_path, capsys):
        """L(P25) = P24 has one edge fewer than vertices, so it is built and
        the tree solver answers, whatever the oracle's cap. Its 24 vertices
        are above hc_bf's cap of 9, so only the tree answer can give hc."""
        path = write_graph(tmp_path, path_graph(25))
        for cap in ([], ["--cap-oracle", "0"]):
            assert main(["compute", "l", path, "--of-linegraph", *cap]) == 0
            assert capsys.readouterr().out.startswith("l=23 witness=")
            assert main(["compute", "hc", path, "--of-linegraph", *cap]) == 0
            assert capsys.readouterr().out == "hc=1\n"

    def test_trees_answered_without_is_tree(self, tmp_path, capsys, monkeypatch):
        """The solver's own peel is the tree test: no command calls
        Graph.is_tree."""
        def refuse(self):
            raise AssertionError("Graph.is_tree called")

        monkeypatch.setattr(Graph, "is_tree", refuse)
        path = write_graph(tmp_path, spider([2, 1, 1]))
        for argv, expected in (
            (["compute", "l", path], "l=3 witness=0-1 0-3 1-2\n"),
            (["compute", "hc", path], "hc=2\n"),
            (["compute", "decycling", path, "--of-linegraph"],
             "decycling(L) = 1 (dp) = 1 (oracle)\n"),
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected

    @staticmethod
    def _cycle(k):
        return Graph(k, [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)])

    # each quantity with an oracle, and that oracle's default cap
    ORACLE_CAPS = [("l", 24), ("hc", 9), ("decycling", 20), ("longest-path", 20),
                   ("induced-forest", 20)]

    def test_every_oracle_has_a_boundary_case(self):
        with_oracle = {q for q, row in cli._QUANTITIES.items() if row[4] is not None}
        assert {q for q, _ in self.ORACLE_CAPS} == with_oracle

    @pytest.mark.parametrize("quantity, k", ORACLE_CAPS)
    def test_of_linegraph_cap_at_its_boundary(self, tmp_path, capsys, monkeypatch,
                                              quantity, k):
        """C_k is its own line graph and never a tree, so --of-linegraph
        checks the oracle's cap before it builds L: at the default cap k it
        answers, at k + 1 it refuses with the oracle's own message on
        C_(k+1), and --cap-oracle k + 1 lifts the refusal."""
        def refuse(g):
            raise AssertionError("line graph built above the oracle's cap")

        at_cap = write_graph(tmp_path, self._cycle(k), "at.txt")
        assert main(["compute", quantity, at_cap, "--of-linegraph"]) == 0
        capsys.readouterr()
        above = write_graph(tmp_path, self._cycle(k + 1), "above.txt")
        assert main(["compute", quantity, above]) == 2
        message = capsys.readouterr().err
        assert message.endswith(f"={k + 1} exceeds cap {k}\n")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "line_graph", refuse)
            assert main(["compute", quantity, above, "--of-linegraph"]) == 2
        assert capsys.readouterr().err == message
        assert main(["compute", quantity, above, "--of-linegraph",
                     "--cap-oracle", str(k + 1)]) == 0

    def test_hc_construct_of_cycle_linegraph(self, tmp_path, capsys):
        path = write_graph(tmp_path, self._cycle(20))
        assert main(["compute", "hc-construct", path, "--of-linegraph"]) == 2
        assert capsys.readouterr().err == "error: not a tree: edge count differs from n-1\n"

    @pytest.mark.parametrize("graph, args", [
        (path_graph(5), ["l"]),
        (Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), ["l"]),
        (star_graph(4), ["decycling", "--of-linegraph"]),
    ], ids=["l-tree", "l-oracle", "decycling-L"])
    def test_out_file_equals_stdout(self, tmp_path, capsys, graph, args):
        """--out writes what stdout would show, and stdout stays empty."""
        path = write_graph(tmp_path, graph)
        argv = ["compute", args[0], path, *args[1:]]
        assert main(argv) == 0
        shown = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == shown

    def test_linegraph_is_not_a_quantity(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "linegraph", write_graph(tmp_path, star_graph(4))])
        assert exc.value.code == 2


class TestVerify:
    def test_clean(self, capsys):
        assert main(["verify", "5", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "dp-oracle" in out and "violations=0" in out

    def test_mutated(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(
            ["verify", "5", "--threads", "1", "--mutate-bounds",
             "--out", str(report), "--format", "csv"]
        )
        assert code == 1
        assert report.read_text().startswith("# linforest-report v1")

    def test_mutated_text_report(self, tmp_path, capsys):
        """--out in text format holds each violation's line, then the
        summary lines that stdout shows first."""
        report = tmp_path / "report.txt"
        code = main(["verify", "5", "--threads", "1", "--mutate-bounds", "--out", str(report)])
        assert code == 1
        run = verify_theorems(5, SweepConfig(upper_slack=1))
        assert run.violations
        lines = [r.to_text() for r in run.violations] + run.summary_lines()
        assert report.read_text() == "\n".join(lines) + "\n"
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == run.summary_lines()
        assert printed[-1] == f"{len(run.violations)} violation(s) found"

    def test_over_cap(self, capsys):
        assert main(["verify", "25"]) == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["1", "-4"])
    def test_empty_range(self, capsys, n_max):
        """A sweep that would examine no tree is an error, not a pass."""
        assert main(["verify", n_max, "--threads", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n_max={n_max} is below n_min=2" in captured.err

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(cli.bounds, "verify_theorems", no_sweep)
        out = tmp_path / "missing" / "r.txt"
        assert main(["verify", "4", "--threads", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out}: " in captured.err

    @pytest.mark.parametrize("n_max", ["1", "25"])
    def test_bad_range_writes_no_out(self, tmp_path, capsys, n_max):
        out = tmp_path / "r.txt"
        assert main(["verify", n_max, "--threads", "1", "--out", str(out)]) == 2
        assert "n_max" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_needs_out(self, capsys):
        assert main(["verify", "5", "--threads", "1", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--format csv needs --out" in captured.err

    def test_negative_threads(self, capsys):
        assert main(["verify", "5", "--threads", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--threads must be 0" in captured.err

    def test_no_cap_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "11", "--cap-n", "12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [["--seed", "1"], ["--all-leaf-pairs"]])
    def test_no_leaf_pair_sample_options(self, option):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "5"] + option)
        assert exc.value.code == 2


class TestLineGraphCmd:
    def test_roundtrip(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["linegraph", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "3 3"

    @staticmethod
    def _refuse_building(monkeypatch):
        def refuse(g):
            raise AssertionError("line graph built above the vertex limit")

        monkeypatch.setattr(cli, "line_graph", refuse)

    @pytest.mark.parametrize("argv", [
        ["linegraph"],
        *(["compute", q, "--of-linegraph", "--cap-oracle", "1000"]
          for q in ("l", "hc", "longest-path", "induced-forest")),
    ])
    def test_limit_refused_before_building(self, tmp_path, capsys, monkeypatch, argv):
        """L(star 8) has 7 vertices and 21 edges: above a limit of 20 each
        command refuses it from the degrees, whatever the oracle's cap."""
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 20)
        self._refuse_building(monkeypatch)
        path = write_graph(tmp_path, star_graph(8))
        assert main([*argv[:2], path, *argv[2:]]) == 2
        assert capsys.readouterr().err == (
            "error: the line graph would have 21 edges; at most 20 are allowed\n")

    def test_limit_on_vertices(self, tmp_path, capsys, monkeypatch):
        # L(K5) has 10 vertices, above a limit of 9 that K5 itself is within
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 9)
        self._refuse_building(monkeypatch)
        path = write_graph(tmp_path, Graph(5, combinations(range(5), 2)))
        assert main(["linegraph", path]) == 2
        assert capsys.readouterr().err == (
            "error: the line graph would have 10 vertices; at most 9 are allowed\n")

    def test_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 21)
        path = write_graph(tmp_path, star_graph(8))
        assert main(["linegraph", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "7 21"

    def test_decycling_prints_the_dp_line_alone_above_limit(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "MAX_CLI_VERTICES", 20)
        self._refuse_building(monkeypatch)
        path = write_graph(tmp_path, star_graph(8))
        argv = ["compute", "decycling", path, "--of-linegraph", "--cap-oracle", "1000"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "decycling(L) = 5 (dp)\n"


class TestDot:
    def test_highlight(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["dot", path, "--highlight", "0-1"]) == 0
        assert 'color="red"' in capsys.readouterr().out

    def test_bad_highlight(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["dot", path, "--highlight", "1-2"]) == 2
        assert "not in graph" in capsys.readouterr().err

    @pytest.mark.parametrize("token, message", [
        ("1:2", "bad highlight edge '1:2', expected 'u-v'"),
        ("a-b", "bad highlight edge 'a-b'"),
    ])
    def test_malformed_highlight(self, tmp_path, capsys, token, message):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["dot", path, "--highlight", f"0-1,{token}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_console_entry_point(tmp_path):
    """The installed script works end to end."""
    out = tmp_path / "g.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "linforest.cli", "gen", "path", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=4 m=3 d=3"


def test_import_loads_no_process_pool():
    """Only a sweep with more than one process imports the pool."""
    code = ("import sys, linforest, linforest.cli; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["gen", "path", "5"],
    ["compute", "l", "{graph}"],
    ["verify", "4", "--threads", "1"],
    ["linegraph", "{graph}"],
    ["dot", "{graph}"],
])
def test_unwritable_out_is_2(tmp_path, capsys, argv):
    """An --out in a missing directory is a usage error, not a traceback
    with exit 1, which means violations found."""
    graph = write_graph(tmp_path, path_graph(3))
    out = tmp_path / "missing" / "x.txt"
    argv = [a.format(graph=graph) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.parent.exists()


def test_usage_error_is_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_reader_stops_at_the_first_fault(tmp_path, capsys):
    """A 4 MB file whose third line repeats its one edge fails there, and
    nothing after that line is kept: the traced peak stays under 1 MiB.
    Read whole and split into lines first, it peaked at 69 MiB (Python
    3.11)."""
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n" + "0 1\n" * 10**6)
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["compute", "l", str(bad)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line 3: duplicate edge 0 1\n"
    assert peak < 2**20


@pytest.mark.parametrize("text", [
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\n0 1\x0c1 2\n",
    "3 2\n0 1\r1 2\n\n\n",
    "3 2\n0 1\n\n \n1 2\n",
    "3 2\n0 1\u20281 1\n",
    "3 1\n0 1\n1 2\n2 0\n",
], ids=["crlf", "form-feed", "cr-then-blank", "blank-inside", "line-separator",
        "too-many"])
def test_reader_breaks_lines_as_parse_graph_does(tmp_path, monkeypatch, text):
    """The CLI reads a file, or stdin, one line at a time; every line
    break that str.splitlines knows still ends a line, so the graph or the
    message is the one parse_graph gives for the whole text."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    try:
        expected = format_graph(parse_graph(text))
    except ParseError as exc:
        expected = str(exc)
    for source in (str(path), "-"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        try:
            got = format_graph(cli._read_graph(source))
        except cli.CliError as exc:
            got = str(exc).removeprefix(f"{source}: ")
        assert got == expected
