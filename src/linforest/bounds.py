"""Closed-form bounds, extremal tree constructions, and the sweep harness
that checks every bound against exact values over all small labeled trees.

All arithmetic is exact: integers with explicit floor/ceil, and Fractions
where a bound is a true rational. No floating point.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import ClassVar, Iterable, Optional

from .forest import _forest_values, _value_without_leaf
from .generate import (
    ENUMERATION_CAP,
    enumerate_tree_arrays,
    kary_tree,
    num_labeled_trees,
    prufer_from_rank,
)
from .graph import Graph, hc_bound_counts, line_graph_masks
from .oracle import decycling_masks, linear_forest_edges


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# bound formulas


def _diameter_domain(n: int, d: int) -> None:
    """Reject (n, d) unless d >= 4 and a tree with n vertices can have
    diameter d; the three diameter bounds share this domain."""
    if d < 4:
        raise ValueError(f"diameter bounds need d >= 4, got {d}")
    if n < d + 1:
        raise ValueError(f"a tree with diameter {d} needs at least {d + 1} vertices")


def _kary_domain(n: int, k: int) -> None:
    """Reject (n, k) unless k >= 2 and a full k-ary tree has n vertices; a
    1-ary tree is a path, which the k-ary bounds do not describe."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < k + 1 or (n - 1) % k != 0:
        raise ValueError(f"need n = 1 mod {k} and n >= {k + 1}, got n={n}")


def diam_bounds_l(n: int, d: int) -> tuple[int, int]:
    """Bounds on the maximum linear forest size of a tree with n vertices
    and diameter d >= 4. The diametral path gives the lower bound."""
    _diameter_domain(n, d)
    if d % 2 == 0:
        return d, ((d - 2) * n + 2) // (d - 1)
    return d, ((d - 3) * n + 4) // (d - 2)


def diam_upper_l_fine(n: int, d: int) -> int:
    """Sharper upper bound for odd d: when n is too small for two extremal
    deep leaves (n <= 2d-1) the +3 numerator applies instead of +4."""
    if d % 2 == 0:
        return diam_bounds_l(n, d)[1]
    _diameter_domain(n, d)
    r = (d - 1) // 2
    if n <= 4 * r + 1:
        return ((d - 3) * n + 3) // (d - 2)
    return ((d - 3) * n + 4) // (d - 2)


def diam_bounds_decycling(n: int, d: int) -> tuple[int, int]:
    """Bounds on the decycling number of the line graph of a tree with
    n vertices and diameter d >= 4; the complement of diam_bounds_l."""
    _diameter_domain(n, d)
    if d % 2 == 0:
        return _ceil_div(n - d - 1, d - 1), n - d - 1
    return _ceil_div(n - d - 2, d - 2), n - d - 1


def kary_bounds_l(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds (n+k-1)/k <= l <= (2n-2)/k for k-ary trees."""
    _kary_domain(n, k)
    return Fraction(n + k - 1, k), Fraction(2 * n - 2, k)


def kary_bounds_decycling(n: int, k: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds on the decycling number of the line graph of a
    k-ary tree: the complement (n - 1 - bound) of kary_bounds_l."""
    low, high = kary_bounds_l(n, k)
    return n - 1 - high, n - 1 - low


def hc_bounds(out: int, ex_sum: int) -> tuple[int, int]:
    """Bounds ceil((out + ex_sum)/2) <= hc <= out - 1 on the Hamiltonian
    completion number of a tree with out leaves and excess sum ex_sum (see
    graph.hc_bound_counts). Every leaf, and every crowded-out low-degree
    neighbor, must meet a new edge on a Hamiltonian cycle; hc_construct
    adds out - 1 edges."""
    if out < 2:
        raise ValueError(f"completion bounds need out >= 2 leaves, got {out}")
    if ex_sum < 0:
        raise ValueError(f"completion bounds need ex_sum >= 0, got {ex_sum}")
    return (out + ex_sum + 1) // 2, out - 1


def perfect_kary_height(n: int, k: int) -> int:
    """Level count h with n = (k^h - 1)/(k - 1); rejects other n."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    total, h = 1, 1
    while total < n:
        total = total * k + 1
        h += 1
    if total != n:
        raise ValueError(f"n={n} is not a perfect {k}-ary tree size")
    return h


def perfect_kary_l(n: int, k: int) -> int:
    """Closed form (2n - 1 + (-1)^h) / (k + 1) for perfect k-ary trees."""
    h = perfect_kary_height(n, k)
    num = 2 * n - 1 + (-1) ** h
    if num % (k + 1):
        raise AssertionError(f"closed form not integral for n={n}, k={k}")
    return num // (k + 1)


def perfect_kary_recurrence(k: int, h: int) -> int:
    """The same quantity by the recurrence f_h = (k-1)f_(h-1) + k f_(h-2) + 2
    with f_1 = 0, f_2 = 2."""
    if k < 2 or h < 1:
        raise ValueError(f"need k >= 2 and h >= 1, got k={k}, h={h}")
    if h == 1:
        return 0
    prev, cur = 0, 2
    for _ in range(h - 2):
        prev, cur = cur, (k - 1) * cur + k * prev + 2
    return cur


def perfect_kary_decycling(n: int, k: int) -> int:
    """Decycling number of the line graph of a perfect k-ary tree:
    ((k-1)n - k - (-1)^h)/(k+1), which equals n - 1 - perfect_kary_l."""
    h = perfect_kary_height(n, k)
    num = (k - 1) * n - k - (-1) ** h
    if num % (k + 1):
        raise AssertionError(f"closed form not integral for n={n}, k={k}")
    return num // (k + 1)


# ---------------------------------------------------------------------------
# extremal constructions


def _chain(edges: list[tuple[int, int]], parent: int, length: int, nxt: int) -> tuple[int, int]:
    """Append a path of ``length`` new vertices below ``parent``; returns
    (last vertex, next free id)."""
    for _ in range(length):
        edges.append((parent, nxt))
        parent = nxt
        nxt += 1
    return parent, nxt


def lower_spider(n: int, d: int) -> Graph:
    """Tree with diameter d whose maximum linear forest is exactly d: a
    diametral path with all n-d-1 spare vertices pendant at a center."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if n < d + 1:
        raise ValueError(f"need n >= d+1 = {d + 1}, got {n}")
    edges = [(i, i + 1) for i in range(d)]
    center = d // 2
    for v in range(d + 1, n):
        edges.append((center, v))
    return Graph(n, edges, validate=False)


def _t_star_parts(
    n: int, r: int
) -> tuple[list[tuple[int, int]], tuple[int, int], Optional[tuple[int, int]]]:
    """Shared construction for the upper-bound extremal trees with even
    diameter 2r: root, two pendant legs of length r (the critical legs),
    as many full Y-branches (a depth-1 vertex with two arms of length r-1)
    as fit, and a remainder placed so the bound analysis stays tight.

    Returns (edges, critical leg ends, arm ends of the first full Y-branch
    or None). The callers check r >= 2 and n >= 2r + 1.
    """
    rem = n - 2 * r - 1
    branch = 2 * r - 1
    q, m = divmod(rem, branch)
    edges: list[tuple[int, int]] = []
    nxt = 1
    leg1, nxt = _chain(edges, 0, r, nxt)
    leg2, nxt = _chain(edges, 0, r, nxt)
    first_y: Optional[tuple[int, int]] = None
    for i in range(q):
        y = nxt
        edges.append((0, y))
        nxt += 1
        a1, nxt = _chain(edges, y, r - 1, nxt)
        a2, nxt = _chain(edges, y, r - 1, nxt)
        if i == 0:
            first_y = (a1, a2)
    if 1 <= m <= r:
        # third pendant path from the root
        _, nxt = _chain(edges, 0, m, nxt)
    elif m > r:
        # partial Y-branch: one full arm, one short arm
        y = nxt
        edges.append((0, y))
        nxt += 1
        _, nxt = _chain(edges, y, r - 1, nxt)
        _, nxt = _chain(edges, y, m - r, nxt)
    return edges, (leg1, leg2), first_y


def t_star(n: int, d: int) -> Graph:
    """Extremal tree achieving the even-diameter upper bound
    floor(((d-2)n + 2)/(d-1))."""
    _diameter_domain(n, d)
    if d % 2 != 0:
        raise ValueError(f"tstar needs an even diameter, got {d}")
    edges, _, _ = _t_star_parts(n, d // 2)
    return Graph(n, edges, validate=False)


def t1_star(n: int, d: int) -> Graph:
    """Odd-diameter extremal tree: the even-diameter tree on n-1 vertices
    with one critical leg deepened by one leaf. Achieves
    floor(((d-3)n + 3)/(d-2)), the best possible when n <= 2d-1."""
    _diameter_domain(n, d)
    if d % 2 != 1:
        raise ValueError(f"t1star needs an odd diameter, got {d}")
    r = (d - 1) // 2
    edges, (leg1, _), _ = _t_star_parts(n - 1, r)
    edges.append((leg1, n - 1))
    return Graph(n, edges, validate=False)


def t2_star(n: int, d: int) -> Graph:
    """Extremal tree for odd diameter d and n >= 2d: the even-diameter tree
    on n-2 vertices with both arms of one Y-branch deepened by one leaf, so
    the two depth-(r+1) leaves share a depth-1 subtree and the diameter
    stays d. Achieves floor(((d-3)n + 4)/(d-2))."""
    _diameter_domain(n, d)
    if d % 2 != 1:
        raise ValueError(f"t2star needs an odd diameter, got {d}")
    if n < 2 * d:
        raise ValueError(f"t2star needs n >= 2d = {2 * d}, got {n}")
    # n - 2 >= 4r vertices leave 2r - 1 after the root and the two legs:
    # one full Y-branch at least
    edges, _, first_y = _t_star_parts(n - 2, (d - 1) // 2)
    a1, a2 = first_y
    edges.append((a1, n - 2))
    edges.append((a2, n - 1))
    return Graph(n, edges, validate=False)


def kary_caterpillar(n: int, k: int) -> Graph:
    """k-ary tree with exactly one internal vertex per level. Saturates the
    k-ary upper bound (2n-2)/k for k >= 3; follows the parity formula of
    kary_caterpillar_l for k = 2."""
    _kary_domain(n, k)
    levels = (n - 1) // k
    expansions = [0] + [i * k + 1 for i in range(levels - 1)]
    return kary_tree(k, expansions)


def kary_caterpillar_l(n: int, k: int) -> int:
    """Maximum linear forest size of kary_caterpillar(n, k): (2n-2)/k for
    k >= 3; for k = 2 it depends on the parity of the level count."""
    _kary_domain(n, k)
    if k >= 3:
        return (2 * n - 2) // k
    levels = (n - 1) // 2
    if levels % 2 == 0:
        return 3 * (n - 1) // 4
    return (3 * n - 1) // 4


# ---------------------------------------------------------------------------
# sweep harness


@dataclass(frozen=True)
class BoundReport:
    """One graph checked against one bound: measured value vs formula."""

    check: str
    description: str
    n: int
    d: Optional[int]
    value: int
    lower: Optional[int]
    upper: Optional[int]
    ok: bool

    def to_text(self) -> str:
        d = "-" if self.d is None else self.d
        lo = "-" if self.lower is None else self.lower
        hi = "-" if self.upper is None else self.upper
        status = "ok" if self.ok else "VIOLATION"
        return (
            f"{self.check} {self.description} n={self.n} d={d} "
            f"value={self.value} lower={lo} upper={hi} {status}"
        )


REPORT_SCHEMA = "linforest-report v1"
REPORT_COLUMNS = ("check", "description", "n", "d", "value", "lower", "upper", "ok")


def reports_to_csv(reports: Iterable[BoundReport]) -> str:
    """Serialize reports as CSV with a schema-version header line. A field
    that holds a comma, such as a description ``prufer[0,1]``, is quoted;
    None is written as an empty field."""
    import csv  # here, so that `import linforest` does not load it

    buf = io.StringIO()
    buf.write(f"# {REPORT_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(
        (r.check, r.description, r.n, r.d, r.value, r.lower, r.upper, int(r.ok))
        for r in reports
    )
    return buf.getvalue()


@dataclass
class CheckCounts:
    checked: int = 0
    skipped: int = 0
    violations: int = 0
    saturated: int = 0

    def merge(self, other: "CheckCounts") -> None:
        self.checked += other.checked
        self.skipped += other.skipped
        self.violations += other.violations
        self.saturated += other.saturated


@dataclass(frozen=True)
class SweepConfig:
    """What a tree sweep reports.

    ``upper_slack`` tightens every upper bound by that amount; it exists so
    the harness can prove it would actually catch violations. The largest
    n of each brute-force check is fixed: the acceptance criteria's scales
    rest on it.
    """

    dp_oracle_max_n: ClassVar[int] = 9
    decycling_max_n: ClassVar[int] = 8
    leaf_exchange_max_n: ClassVar[int] = 8
    # read by no check; kept only while the benchmark still sets them
    seed: int = 0
    leaf_exchange_all_pairs: bool = False
    upper_slack: int = 0


@dataclass
class VerifyRun:
    """Outcome of a sweep over all labeled trees with n_min <= n <= n_max."""

    n_min: int
    n_max: int
    trees: int
    counts: dict[str, CheckCounts]
    violations: list[BoundReport]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        lines = [f"trees n={self.n_min}..{self.n_max}: {self.trees} examined"]
        for check in CHECKS:
            c = self.counts[check]
            lines.append(
                f"{check}: checked={c.checked} skipped={c.skipped} "
                f"violations={c.violations} saturated={c.saturated}"
            )
        return lines


# The sweep's checks. Each takes one decoded tree (n, the parent and degree
# arrays, l and the gain counts ``ones`` from the one _forest_values pass,
# and the diameter d from the tree's shape), the upper-bound slack and its
# own brute-force answer for the shape (see _shape_table; None for a check
# without one), and returns whether the tree saturates the check's bound
# and the check's failures, each (description suffix, d, value, lower, upper).

def _check_dp_oracle(n, parent, degree, lv, d, ones, slack, bf):
    """l equals the brute-force maximum linear forest."""
    return False, (() if bf == lv else (("", None, lv, bf, bf),))


def _check_diameter(n, parent, degree, lv, d, ones, slack, bf):
    """d <= l <= the diameter upper bound."""
    upper = diam_upper_l_fine(n, d) - slack
    return lv == upper, (() if d <= lv <= upper else (("", d, lv, d, upper),))


def _check_hc_bounds(n, parent, degree, lv, d, ones, slack, bf):
    """hc = n - l lies between the completion bounds."""
    out, excess = hc_bound_counts(degree, parent)
    hc = n - lv
    lower, upper = hc_bounds(out, sum(excess))
    upper -= slack
    return hc == lower, (() if lower <= hc <= upper else (("", d, hc, lower, upper),))


def _check_leaf_exchange(n, parent, degree, lv, d, ones, slack, bf):
    """No leaf exchange lowers l. Moving leaf u onto any other leaf w gives
    l(T - u) + 1, so one walk per leaf decides every pair it starts; a
    failing leaf fails with every w."""
    leaves = [v for v in range(n) if degree[v] == 1]
    failures = []
    for u in leaves:
        lv2 = _value_without_leaf(parent, ones, lv, u) + 1
        if lv2 < lv:
            failures += [(f" move {u} onto {w}", d, lv2, lv, None) for w in leaves if w != u]
    return False, failures


def _check_decycling(n, parent, degree, lv, d, ones, slack, nabla):
    """The decycling number of L(T) is n - 1 - l and, for d >= 4, lies
    between the diameter bounds."""
    if nabla != n - 1 - lv:
        return False, (("", d, nabla, None, None),)
    if d < 4:
        return False, ()
    lo, hi = diam_bounds_decycling(n, d)
    hi -= slack
    return nabla == hi, (() if lo <= nabla <= hi else (("", d, nabla, lo, hi),))


# name, the largest n it runs at (None: every n), the least diameter, check,
# and the brute-force answer it compares, (n, edges) -> value, or None. Only
# _shape_table reads the largest n and the least diameter.
_CHECK_TABLE = (
    ("dp-oracle", SweepConfig.dp_oracle_max_n, 0, _check_dp_oracle,
     lambda n, edges: linear_forest_edges(n, edges)[0]),
    ("diameter", None, 4, _check_diameter, None),
    ("hc-bounds", None, 0, _check_hc_bounds, None),
    ("leaf-exchange", SweepConfig.leaf_exchange_max_n, 0, _check_leaf_exchange, None),
    ("decycling", SweepConfig.decycling_max_n, 0, _check_decycling,
     lambda n, edges: decycling_masks(line_graph_masks(n, edges))[0]),
)
CHECKS = tuple(entry[0] for entry in _CHECK_TABLE)

_SKIP = "skip"  # a str, so it compares equal after pickling to a pool worker


def _shape_table(n: int) -> dict[tuple[int, ...], tuple]:
    """Map each tree shape on n vertices to its diameter, then to one item
    per _CHECK_TABLE row: _SKIP if the row is out of scope, because n is
    above its largest n or the diameter below its least one, else the
    row's brute-force answer (None for a row without one).

    A shape renames each vertex of a labeled tree to its position in the
    sweep's order: vertex i's parent is shape[i] > i and the root is n - 1,
    so there are (n-1)! shapes against n^(n-2) trees. The edges (i,
    shape[i]) are the tree's edges up to a bijection, in the same order,
    so the oracles give the same values.
    """
    # each row's least diameter, None where it is out of scope at n
    rows = [(min_d if max_n is None or n <= max_n else None, brute)
            for _, max_n, min_d, _, brute in _CHECK_TABLE]
    table = {}
    for shape in product(*(range(i + 1, n) for i in range(n - 1))):
        height, d = [0] * n, 0
        for v, p in enumerate(shape):  # v's height is final: its children come first
            d = max(d, height[p] + height[v] + 1)
            height[p] = max(height[p], height[v] + 1)
        rel = list(enumerate(shape))
        table[shape] = (d, *(_SKIP if min_d is None or d < min_d
                             else brute(n, rel) if brute else None
                             for min_d, brute in rows))
    return table


def _sweep_range(
    args: tuple[int, int, int, SweepConfig, dict]
) -> tuple[dict[str, CheckCounts], list[BoundReport]]:
    """Worker: check every tree with Prüfer rank in [start, stop).

    One pass over a tree's decoded arrays gives l and the gain counts; its
    shape's entry in ``table`` gives the diameter and, per row, _SKIP or
    the brute-force answer. A check's outcome depends only on the shape and
    l, so the first tree of a shape runs the rows not skipped and, if none
    fails, a later tree of the shape with that l is only tallied. A tree
    whose l differs, or whose shape failed, is checked alone.
    """
    n, start, stop, cfg, table = args
    slack = cfg.upper_slack
    counts = {check: CheckCounts() for check in CHECKS}
    pos = [0] * n
    violations: list[BoundReport] = []
    # shape -> [l, the rows saturated, later trees], or None once it failed
    memo: dict[tuple[int, ...], Optional[list]] = {}
    for rank, (parent, order, degree) in enumerate(enumerate_tree_arrays(n, start, stop), start):
        lv, ones, _, _ = _forest_values(parent, order)
        for i, v in enumerate(order):
            pos[v] = i
        key = tuple([pos[parent[v]] for v in order[:-1]])
        seen = memo.get(key)
        if seen and seen[0] == lv:
            seen[2] += 1
            continue
        d, *answers = table[key]
        saturated, failed = [], False
        for (name, _, _, check, _), answer in zip(_CHECK_TABLE, answers):
            c = counts[name]
            if answer == _SKIP:
                c.skipped += 1
                continue
            sat, failures = check(n, parent, degree, lv, d, ones, slack, answer)
            if sat:
                c.saturated += 1
                saturated.append(c)
            if failures:
                failed = True
                c.violations += len(failures)
                seq = ",".join(map(str, prufer_from_rank(n, rank)))
                desc = f"prufer[{seq}]" if seq else f"tree(n={n})"
                violations.extend(
                    BoundReport(name, desc + suffix, n, fd, value, lo, hi, False)
                    for suffix, fd, value, lo, hi in failures
                )
        if key not in memo:
            memo[key] = None if failed else [lv, saturated, 0]
    for key, seen in memo.items():
        if seen:
            _, saturated, more = seen
            for c in saturated:
                c.saturated += more
            for c, answer in zip(counts.values(), table[key][1:]):
                if answer == _SKIP:
                    c.skipped += more
    for c in counts.values():
        c.checked = stop - start - c.skipped
    return counts, violations


_PARALLEL_THRESHOLD = 20000  # below this a pool costs more than it saves

# each n's shape table in a pool worker, set once by _init_worker
_worker_tables: dict[int, dict] = {}


def _init_worker(tables: dict[int, dict]) -> None:
    """Pool initializer: keep the shape tables in the worker, so they are
    sent once per worker, not once per job."""
    global _worker_tables
    _worker_tables = tables


def _sweep_job(
    job: tuple[int, int, int, SweepConfig]
) -> tuple[dict[str, CheckCounts], list[BoundReport]]:
    """Pool worker: _sweep_range over an (n, start, stop, config) job with
    n's shape table from _init_worker."""
    return _sweep_range((*job, _worker_tables[job[0]]))


def verify_theorems(
    n_max: int,
    config: SweepConfig = SweepConfig(),
    *,
    n_min: int = 2,
    processes: int = 1,
) -> VerifyRun:
    """Sweep all labeled trees with n_min <= n <= n_max and cross-check the
    solver against the brute-force oracle and every bound in scope.

    Each n's shape table is filled first, so the oracles run once per
    shape. Then the Prüfer rank space is range-partitioned across worker
    processes, which receive the tables once each, from the pool's
    initializer; results merge in rank order, so the outcome is independent
    of the process count. At most ``os.cpu_count()`` workers start,
    whatever ``processes`` asks for. Violations are returned as data, not
    raised; a range with no tree in it (n_max < n_min) raises ValueError.
    """
    if n_min < 2:
        raise ValueError("sweep starts at n=2")
    if n_max > ENUMERATION_CAP:
        raise ValueError(f"n_max={n_max} exceeds enumeration cap {ENUMERATION_CAP}")
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}: no tree to check")
    processes = min(processes, os.cpu_count() or 1)
    counts = {check: CheckCounts() for check in CHECKS}
    violations: list[BoundReport] = []
    trees = 0
    tables = {}
    jobs: list[tuple[int, int, int, SweepConfig]] = []
    for n in range(n_min, n_max + 1):
        total = num_labeled_trees(n)
        trees += total
        tables[n] = _shape_table(n)
        step = total
        if processes > 1 and total >= _PARALLEL_THRESHOLD:
            step = _ceil_div(total, processes * 4)
        jobs.extend((n, lo, min(lo + step, total), config) for lo in range(0, total, step))

    def merge(result: tuple[dict[str, CheckCounts], list[BoundReport]]) -> None:
        part, viol = result
        for key, c in part.items():
            counts[key].merge(c)
        violations.extend(viol)

    if processes > 1:
        # imported here: a serial sweep, and every other command, never
        # loads the process-pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=processes, initializer=_init_worker, initargs=(tables,)
        ) as pool:
            for result in pool.map(_sweep_job, jobs):
                merge(result)
    else:
        for n, lo, hi, cfg in jobs:
            merge(_sweep_range((n, lo, hi, cfg, tables[n])))
    return VerifyRun(n_min=n_min, n_max=n_max, trees=trees, counts=counts, violations=violations)
