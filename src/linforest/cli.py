"""Command-line interface: generate trees, compute invariants, verify
bounds.

Exit codes are a stable contract: 0 success/verified, 1 violations found,
2 usage or parse errors. All randomness flows from an explicit --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import bounds, forest, generate, oracle
from .graph import (
    Graph,
    ParseError,
    format_graph,
    line_graph,
    parse_graph,
    root_at_center,
    to_dot,
    tree_diameter,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# largest vertex count a graph file may declare: a header is read before
# any edge, and the graph allocates one adjacency list per vertex
MAX_CLI_VERTICES = 10**7


class CliError(Exception):
    """Fatal usage-level problem; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linforest",
        description="Maximum linear forests, Hamiltonian completions, and "
        "decycling numbers of line graphs of trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tree and write its edge list")
    gen.add_argument("family", help="path|star|spider|kary|perfect-kary|prufer|random|"
                     "lower-spider|tstar|t1star|t2star|kary-caterpillar")
    gen.add_argument("params", nargs="*", type=int, help="family parameters")
    gen.add_argument("--seed", type=int, default=None, help="seed for random families")
    gen.add_argument("--out", default=None, help="output file (default stdout)")

    comp = sub.add_parser("compute", help="compute an invariant of a graph file")
    comp.add_argument(
        "quantity",
        choices=[
            "l",
            "hc",
            "hc-construct",
            "decycling",
            "longest-path",
            "induced-forest",
        ],
    )
    comp.add_argument("input", help="edge-list file, or - for stdin")
    comp.add_argument("--of-linegraph", action="store_true",
                      help="apply the quantity to the line graph of the input, "
                      "whose vertex i is the i-th edge of the input in sorted order")
    comp.add_argument("--cap-oracle", type=int, default=None,
                      help="override brute-force size caps")
    comp.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="sweep all labeled trees and check every bound")
    ver.add_argument("n_max", type=int)
    ver.add_argument("--threads", type=int, default=0,
                     help="worker processes (0 = all available)")
    ver.add_argument("--mutate-bounds", action="store_true",
                     help="self-test: tighten uppers by 1 and expect violations")
    ver.add_argument("--out", default=None, help="write the violation report here")
    ver.add_argument("--format", choices=["text", "csv"], default="text")

    lg = sub.add_parser("linegraph", help="write the line graph of a graph file")
    lg.add_argument("input")
    lg.add_argument("--out", default=None)

    dot = sub.add_parser("dot", help="render a graph file as DOT")
    dot.add_argument("input")
    dot.add_argument("--highlight", default="",
                     help="edges to mark, e.g. '0-1,2-3'")
    dot.add_argument("--out", default=None)

    return parser


def _read_graph(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_graph(text, max_n=MAX_CLI_VERTICES)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _generate(family: str, params: list[int], seed: Optional[int]) -> Graph:
    def need(count: int) -> list[int]:
        if len(params) != count:
            raise CliError(f"{family} takes {count} parameter(s), got {len(params)}")
        return params

    try:
        if family == "path":
            return generate.path_graph(*need(1))
        if family == "star":
            return generate.star_graph(*need(1))
        if family == "spider":
            if not params:
                raise CliError("spider needs at least one leg length")
            return generate.spider(params)
        if family == "kary":
            k, n = need(2)
            if seed is None:
                raise CliError("kary generation needs --seed")
            if k < 1:
                raise CliError("k must be positive")
            if n < 1 or (n - 1) % k != 0:
                raise CliError(f"kary needs n = 1 mod {k}")
            return generate.random_kary_tree(k, (n - 1) // k, seed)
        if family == "perfect-kary":
            return generate.perfect_kary(*need(2))
        if family == "prufer":
            return generate.prufer_decode(params)
        if family == "random":
            if seed is None:
                raise CliError("random generation needs --seed")
            return generate.random_tree(*need(1), seed)
        if family == "lower-spider":
            return bounds.lower_spider(*need(2))
        if family == "tstar":
            return bounds.t_star(*need(2))
        if family == "t1star":
            return bounds.t1_star(*need(2))
        if family == "t2star":
            return bounds.t2_star(*need(2))
        if family == "kary-caterpillar":
            return bounds.kary_caterpillar(*need(2))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown family {family!r}")


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _generate(args.family, args.params, args.seed)
    _write(format_graph(g), args.out)
    print(f"n={g.n} m={g.m} d={tree_diameter(g)}")
    return EXIT_OK


def _fmt_edges(edges: Sequence[tuple[int, int]]) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges) if edges else "(empty)"


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    cap = args.cap_oracle
    q = args.quantity
    if args.of_linegraph and q != "decycling":
        g = line_graph(g).graph
    lines: list[str] = []
    try:
        if q == "l":
            if g.is_tree():
                rec = forest.max_linear_forest(root_at_center(g))
                lines.append(f"l={rec.value} witness={_fmt_edges(rec.best.edges)}")
            else:
                res = oracle.max_linear_forest_bf(g, cap)
                lines.append(f"l={res.value} witness={_fmt_edges(res.witness)} (oracle)")
        elif q == "hc":
            if g.is_tree():
                lines.append(f"hc={forest.hc_of_tree(g)}")
            else:
                lines.append(f"hc={oracle.hc_bf(g, cap)} (oracle)")
        elif q == "hc-construct":
            completion = forest.hc_construct(g)
            lines.append(
                f"size={len(completion)} added={_fmt_edges(completion.added_edges)}"
            )
        elif q == "decycling":
            if args.of_linegraph:
                parts = []
                if g.is_tree():
                    dp = g.n - 1 - forest.l_of_tree(g)
                    parts.append(f"{dp} (dp)")
                try:
                    # L(T) has one vertex per edge: check the cap before building it
                    oracle._check_vertex_cap(g.m, cap, oracle.DEFAULT_VERTEX_CAP)
                    res = oracle.decycling_number(line_graph(g).graph, cap)
                    parts.append(f"{res.value} (oracle)")
                except oracle.CapExceeded:
                    if not parts:
                        raise
                lines.append("decycling(L) = " + " = ".join(parts))
            else:
                res = oracle.decycling_number(g, cap)
                lines.append(
                    f"decycling={res.value} witness={' '.join(map(str, res.witness)) or '(empty)'}"
                )
        elif q == "longest-path":
            res = oracle.longest_path_bf(g, cap)
            lines.append(
                f"longest-path={res.value} witness={'-'.join(map(str, res.witness))}"
            )
        elif q == "induced-forest":
            res = oracle.max_induced_forest(g, cap)
            lines.append(
                f"induced-forest={res.value} witness={' '.join(map(str, res.witness)) or '(empty)'}"
            )
    except ValueError as exc:  # oracle.CapExceeded included
        raise CliError(str(exc)) from exc
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    processes = args.threads if args.threads > 0 else (os.cpu_count() or 1)
    config = bounds.SweepConfig(upper_slack=1 if args.mutate_bounds else 0)
    try:
        run = bounds.verify_theorems(args.n_max, config, processes=processes)
    except ValueError as exc:  # n_max above the enumeration cap
        raise CliError(str(exc)) from exc
    for line in run.summary_lines():
        print(line)
    if args.out is not None:
        if args.format == "csv":
            _write(bounds.reports_to_csv(run.violations), args.out)
        else:
            body = "".join(r.to_text() + "\n" for r in run.violations)
            _write(body + "\n".join(run.summary_lines()) + "\n", args.out)
    if run.violations:
        print(f"{len(run.violations)} violation(s) found")
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_linegraph(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    _write(format_graph(line_graph(g).graph), args.out)
    return EXIT_OK


def _parse_highlight(text: str) -> list[tuple[int, int]]:
    edges = []
    for token in text.replace(",", " ").split():
        parts = token.split("-")
        if len(parts) != 2:
            raise CliError(f"bad highlight edge {token!r}, expected 'u-v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise CliError(f"bad highlight edge {token!r}") from None
    return edges


def _cmd_dot(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    try:
        text = to_dot(g, _parse_highlight(args.highlight))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(text, args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "linegraph": _cmd_linegraph,
    "dot": _cmd_dot,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
