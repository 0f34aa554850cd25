"""Command-line interface: generate trees, compute invariants, verify
bounds.

Exit codes are a stable contract: 0 success/verified, 1 violations found,
2 usage or parse errors. All randomness flows from an explicit --seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from typing import Callable, Optional, Sequence

from . import bounds, forest, generate, oracle
from .graph import (
    Graph,
    NotATree,
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
    gen.add_argument("family", help="|".join(_FAMILIES))
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


def _nth(i: int) -> Callable[[list[int]], int]:
    """Parameter i, or 0 while it is missing (the count check reports it)."""
    return lambda params: params[i] if i < len(params) else 0


def _perfect_kary_n(params: list[int]) -> Optional[int]:
    """Summed level by level, None once past the limit: no k**h for a huge h."""
    if len(params) != 2:
        return 0
    k, h = params
    if k == 1:
        return h
    n, level = 0, 1
    for _ in range(h if k > 1 else 0):  # k < 1: the builder rejects it
        n += level
        if n > MAX_CLI_VERTICES:
            return None
        level *= k
    return n


def _spider(params: list[int], seed: Optional[int]) -> Graph:
    if not params:
        raise CliError("spider needs at least one leg length")
    return generate.spider(params)


def _kary(params: list[int], seed: int) -> Graph:
    k, n = params
    if k < 1:
        raise CliError("k must be positive")
    if n < 1 or (n - 1) % k != 0:
        raise CliError(f"kary needs n >= 1 and n = 1 mod {k}, got n={n}")
    return generate.random_kary_tree(k, (n - 1) // k, seed)


# family: (parameter count, None for any; whether it needs --seed; its vertex
# count from the parameters alone, 0 where they name none, None above the
# limit; builder(params, seed)). ``gen`` checks the vertex limit, the
# parameter count and --seed in that order, then the builder checks the rest.
_FAMILIES = {
    "path": (1, False, _nth(0), lambda p, seed: generate.path_graph(*p)),
    "star": (1, False, _nth(0), lambda p, seed: generate.star_graph(*p)),
    "spider": (None, False, lambda p: 1 + sum(p), _spider),
    "kary": (2, True, _nth(1), _kary),
    "perfect-kary": (2, False, _perfect_kary_n, lambda p, seed: generate.perfect_kary(*p)),
    "prufer": (None, False, lambda p: len(p) + 2, lambda p, seed: generate.prufer_decode(p)),
    "random": (1, True, _nth(0), lambda p, seed: generate.random_tree(*p, seed)),
    "lower-spider": (2, False, _nth(0), lambda p, seed: bounds.lower_spider(*p)),
    "tstar": (2, False, _nth(0), lambda p, seed: bounds.t_star(*p)),
    "t1star": (2, False, _nth(0), lambda p, seed: bounds.t1_star(*p)),
    "t2star": (2, False, _nth(0), lambda p, seed: bounds.t2_star(*p)),
    "kary-caterpillar": (2, False, _nth(0), lambda p, seed: bounds.kary_caterpillar(*p)),
}


def _generate(family: str, params: list[int], seed: Optional[int]) -> Graph:
    if family not in _FAMILIES:
        raise CliError(f"unknown family {family!r}")
    count, seeded, vertices, build = _FAMILIES[family]
    try:  # an n too long for str() raises ValueError, which exits 2 too
        n = vertices(params)
        if n is None or n > MAX_CLI_VERTICES:
            size = f"n > {MAX_CLI_VERTICES}" if n is None else f"n = {n}"
            raise CliError(f"{family} would build {size} vertices; at most "
                           f"{MAX_CLI_VERTICES} are allowed")
        if count is not None and len(params) != count:
            raise CliError(f"{family} takes {count} parameter(s), got {len(params)}")
        if seeded and seed is None:
            raise CliError(f"{family} generation needs --seed")
        return build(params, seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _generate(args.family, args.params, args.seed)
    _write(format_graph(g), args.out)
    print(f"n={g.n} m={g.m} d={tree_diameter(g)}")
    return EXIT_OK


def _fmt_edges(edges: Sequence[tuple[int, int]]) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges) if edges else "(empty)"


def _checked_line_graph(g: Graph, q: Optional[str], cap: Optional[int]) -> Graph:
    """L(g), built only once its size passes what ``q`` checks on it (None:
    nothing) and neither of its counts exceeds MAX_CLI_VERTICES. L(g) has
    g.m vertices and one edge per pair of meeting edges; unless that is
    g.m - 1 edges, it is no tree and only an oracle can answer."""
    n = g.m
    m = sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in g.adjacency)
    if q == "l" and m != n - 1:
        oracle.check_cap(m, cap, oracle.DEFAULT_EDGE_CAP, "m")
    elif q == "hc" and m != n - 1:
        oracle.check_cap(n, cap, oracle.DEFAULT_HC_CAP, "n")
    elif q == "hc-construct" and m != n - 1 and n >= 3:  # n < 3: its own check first
        raise NotATree("not a tree: edge count differs from n-1")
    elif q in ("longest-path", "induced-forest", "decycling"):  # no tree solver
        oracle.check_cap(n, cap, oracle.DEFAULT_VERTEX_CAP, "n")
    for count, what in ((n, "vertices"), (m, "edges")):
        if count > MAX_CLI_VERTICES:
            raise oracle.CapExceeded(f"the line graph would have {count} {what}; "
                                     f"at most {MAX_CLI_VERTICES} are allowed")
    return line_graph(g).graph


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    cap = args.cap_oracle
    q = args.quantity
    lines: list[str] = []
    try:
        if args.of_linegraph and q != "decycling":
            g = _checked_line_graph(g, q, cap)
        # l, hc and the dp line of decycling(L) go to the tree solver, whose
        # peel rejects every non-tree; only then does the oracle answer
        if q == "l":
            try:
                rec = forest.max_linear_forest(root_at_center(g))
            except NotATree:
                res = oracle.max_linear_forest_bf(g, cap)
                lines.append(f"l={res.value} witness={_fmt_edges(res.witness)} (oracle)")
            else:
                lines.append(f"l={rec.value} witness={_fmt_edges(rec.best.edges)}")
        elif q == "hc":
            try:
                lines.append(f"hc={forest.hc_of_tree(g)}")
            except NotATree:
                lines.append(f"hc={oracle.hc_bf(g, cap)} (oracle)")
        elif q == "hc-construct":
            completion = forest.hc_construct(g)
            lines.append(
                f"size={len(completion)} added={_fmt_edges(completion.added_edges)}"
            )
        elif q == "decycling":
            if args.of_linegraph:
                parts = []
                with suppress(NotATree):
                    parts.append(f"{g.n - 1 - forest.l_of_tree(g)} (dp)")
                try:
                    res = oracle.decycling_number(_checked_line_graph(g, q, cap), cap)
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
    if args.threads < 0:
        raise CliError(f"--threads must be 0 (all available) or more, got {args.threads}")
    if args.format == "csv" and args.out is None:
        raise CliError("--format csv needs --out")
    processes = args.threads or os.cpu_count() or 1
    config = bounds.SweepConfig(upper_slack=1 if args.mutate_bounds else 0)
    try:
        run = bounds.verify_theorems(args.n_max, config, processes=processes)
    except ValueError as exc:  # n_max below 2 or above the enumeration cap
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
    try:
        lg = _checked_line_graph(g, None, None)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write(format_graph(lg), args.out)
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
