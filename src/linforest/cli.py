"""Command-line interface: generate trees, compute invariants, verify
bounds.

Exit codes are a stable contract: 0 success/verified, 1 violations found,
2 usage or parse errors. All randomness flows from an explicit --seed.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from contextlib import suppress
from typing import Callable, Optional, Sequence

from . import bounds, forest, generate, oracle
from .graph import (
    Graph,
    NotATree,
    ParseError,
    _parse_lines,
    format_graph,
    line_graph,
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
    comp.add_argument("quantity", choices=list(_QUANTITIES))
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
    """Parse the graph file, or stdin for "-", one line at a time: a
    malformed file fails at its first fault, before the rest is read."""
    try:
        if path == "-":
            # stdin's bytes, decoded strictly as a file's are, whatever error
            # handler sys.stdin has; a stand-in with no bytes is read as text
            buffer = getattr(sys.stdin, "buffer", None)
            lines = sys.stdin if buffer is None else codecs.iterdecode(buffer, "utf-8")
            return _parse_lines(lines, MAX_CLI_VERTICES)
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_lines(fh, MAX_CLI_VERTICES)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc.strerror}") from exc


def _nth(i: int) -> Callable[[list[int]], int]:
    """Parameter i, or 0 while it is missing (the count check reports it)."""
    return lambda params: params[i] if i < len(params) else 0


def _perfect_kary_n(params: list[int]) -> Optional[int]:
    """generate.perfect_kary_size, or None above the limit for k >= 2; no
    k**h for a huge h: n >= 2^h - 1 passes the limit once h passes its
    bit length."""
    if len(params) != 2:
        return 0
    k, h = params
    if k < 1 or h < 1:  # the builder rejects them
        return 0
    if k == 1:
        return h
    if h > MAX_CLI_VERTICES.bit_length():
        return None
    n = generate.perfect_kary_size(k, h)
    return n if n <= MAX_CLI_VERTICES else None


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


def _fmt_vertices(vertices: Sequence[int]) -> str:
    return " ".join(map(str, vertices)) or "(empty)"


def _tree_l(g: Graph) -> oracle.OracleResult:
    rec = forest.max_linear_forest(root_at_center(g))
    return oracle.OracleResult(rec.value, rec.best.edges)


def _tree_hc_construct(g: Graph) -> oracle.OracleResult:
    completion = forest.hc_construct(g)
    return oracle.OracleResult(len(completion), completion.added_edges)


# quantity: (label of the value; label of the witness and its writer, None
# for no witness; the tree answer, whose leaf peel raises NotATree on any
# other graph; the oracle; what the oracle's cap counts, and its default,
# restated so that an L(G) above the cap is refused before it is built).
# Every answer is an OracleResult.
_QUANTITIES = {
    "l": ("l", "witness", _fmt_edges, _tree_l, oracle.max_linear_forest_bf,
          "m", oracle.DEFAULT_EDGE_CAP),
    "hc": ("hc", None, None, lambda g: oracle.OracleResult(forest.hc_of_tree(g), ()),
           lambda g, cap: oracle.OracleResult(oracle.hc_bf(g, cap), ()),
           "n", oracle.DEFAULT_HC_CAP),
    "hc-construct": ("size", "added", _fmt_edges, _tree_hc_construct, None, None, None),
    "decycling": ("decycling", "witness", _fmt_vertices, None, oracle.decycling_number,
                  "n", oracle.DEFAULT_VERTEX_CAP),
    "longest-path": ("longest-path", "witness", lambda path: "-".join(map(str, path)), None,
                     oracle.longest_path_bf, "n", oracle.DEFAULT_VERTEX_CAP),
    "induced-forest": ("induced-forest", "witness", _fmt_vertices, None,
                       oracle.max_induced_forest, "n", oracle.DEFAULT_VERTEX_CAP),
}


def _checked_line_graph(g: Graph, row: Optional[tuple], cap: Optional[int]) -> Graph:
    """L(g), built only once its size passes what ``row`` of _QUANTITIES
    checks on it (None: nothing) and neither of its counts exceeds
    MAX_CLI_VERTICES. L(g) has g.m vertices and one edge per pair of meeting
    edges; unless that is g.m - 1, it is no tree and only an oracle answers."""
    n = g.m
    m = sum(len(nbrs) * (len(nbrs) - 1) // 2 for nbrs in g.adjacency)
    if row is not None:
        *_, tree, brute, counts, default = row
        if brute is not None and (tree is None or m != n - 1):
            oracle.check_cap(n if counts == "n" else m, cap, default, counts)
        elif brute is None and m != n - 1 and n >= 3:  # n < 3: its own check first
            raise NotATree("not a tree: edge count differs from n-1")
    for count, what in ((n, "vertices"), (m, "edges")):
        if count > MAX_CLI_VERTICES:
            raise oracle.CapExceeded(f"the line graph would have {count} {what}; "
                                     f"at most {MAX_CLI_VERTICES} are allowed")
    return line_graph(g).graph


def _cmd_compute(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    cap = args.cap_oracle
    row = _QUANTITIES[args.quantity]
    label, witness, write, tree, brute, _, _ = row
    try:
        if args.of_linegraph and args.quantity == "decycling":
            # the solver's line (n - 1 - l, trees only) beside the oracle's
            parts = []
            with suppress(NotATree):
                parts.append(f"{g.n - 1 - forest.l_of_tree(g)} (dp)")
            try:
                parts.append(f"{brute(_checked_line_graph(g, row, cap), cap).value} (oracle)")
            except oracle.CapExceeded:
                if not parts:
                    raise
            line = "decycling(L) = " + " = ".join(parts)
        else:
            if args.of_linegraph:
                g = _checked_line_graph(g, row, cap)
            try:
                res, source = (tree(g) if tree else brute(g, cap)), ""
            except NotATree:  # the tree answer's peel refused g: ask the oracle
                if not (tree and brute):  # no tree answer ran, or no oracle to ask
                    raise
                res, source = brute(g, cap), " (oracle)"
            shown = f" {witness}={write(res.witness)}" if witness else ""
            line = f"{label}={res.value}{shown}{source}"
    except ValueError as exc:  # NotATree and oracle.CapExceeded included
        raise CliError(str(exc)) from exc
    _write(line + "\n", args.out)
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
