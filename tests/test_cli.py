import subprocess
import sys

import pytest

from linforest import format_graph, path_graph, star_graph
from linforest import cli
from linforest.cli import main


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

    def test_seed_reproducible(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["gen", "random", "9", "--seed", "5", "--out", str(a)]) == 0
        assert main(["gen", "random", "9", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_over_cap(self, capsys):
        assert main(["verify", "25"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_no_cap_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "11", "--cap-n", "12"])
        assert exc.value.code == 2


class TestLineGraphCmd:
    def test_roundtrip(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["linegraph", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "3 3"


class TestDot:
    def test_highlight(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["dot", path, "--highlight", "0-1"]) == 0
        assert 'color="red"' in capsys.readouterr().out

    def test_bad_highlight(self, tmp_path, capsys):
        path = write_graph(tmp_path, star_graph(4))
        assert main(["dot", path, "--highlight", "1-2"]) == 2
        assert "not in graph" in capsys.readouterr().err


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


def test_usage_error_is_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
