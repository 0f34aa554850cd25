"""Workloads of the linforest benchmark, their correctness gates, and the
traced replays that split each workload into its layers.

Every call goes through linforest's public API. Layers are the package's
modules (generate, graph, forest, oracle, bounds); the CLI is argparse
around ``verify_theorems`` and adds no work of its own.

Why each workload exists
------------------------
sweep-checks
    ``verify_theorems(7, leaf_exchange_all_pairs=True, processes=1)`` over
    all 18,248 labeled trees with n = 2..7, every check in scope. The only
    workload where leaf exchange, ``line_graph`` and the decycling oracle do
    work; leaf exchange rebuilds a Graph and a RootedTree and reruns the DP
    for every ordered leaf pair. Serial, since every n is below the sweep's
    parallel threshold. It is what ``linforest verify 7 --all-leaf-pairs``
    and ``demos/verify_everything.py`` run.
single-tree
    One seeded uniform random tree with n = 10^6, solved by ``l_of_tree``
    and by ``max_linear_forest(root_at_center(g))``; then, with that tree
    freed, ``hc_construct`` on a seeded random tree with n = 10^4, on
    ``star_graph(4000)`` and on ``spider([500] * 8)``. Per-call overhead is
    negligible; memory and GC dominate. Only workload that runs the
    quadratic path walk of ``hc_construct``. The spider has 7 leaves, so a
    rewrite of ``hc_construct`` must not slow it. ``hc_construct`` is timed
    with no 10^6-vertex instance alive, because a live one slows every
    full collection and would couple the two measurements.

A third workload, the n = 8 sweep through a two-process pool, is left out:
with 10 s passes it did not fit, beside the other two, in the time the
benchmark is given. Its layers (the brute-force oracle in particular) are
still measured on sweep-checks; the pool itself is not measured.

Predictions
-----------
``PREDICTIONS`` maps each per-layer metric to the end-to-end metric it
should move and the workloads where it should move it, written down before
any measurement so later changes can quote it. A layer that does no work on
a workload reports 0 there.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from statistics import median
from time import perf_counter
from typing import Callable

from linforest import (
    Graph,
    RootedTree,
    SweepConfig,
    VerifyRun,
    decycling_number,
    enumerate_trees,
    hc_construct,
    hc_of_tree,
    is_linear_forest,
    l_of_tree,
    leaf_exchange,
    line_graph,
    max_linear_forest,
    max_linear_forest_bf,
    max_linear_forest_value,
    num_labeled_trees,
    perfect_kary,
    perfect_kary_l,
    random_tree,
    root_at_center,
    spider,
    star_graph,
    tree_center,
    tree_diameter,
    tree_stats,
    verify_theorems,
)

from tracing import NO_TRACE, GcMeter, Tracer, own_peak_mib

# ---------------------------------------------------------------------------
# metric names: (name, unit, better), mirrored by BENCHMARK.json

E2E_METRICS = (
    ("setup_s", "s", "lower"),
    # trees through the timed calls per second; on single-tree a pass is the
    # five solver calls (two on the 10^6 tree, three completions)
    ("trees_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

CHECKS = ("dp-oracle", "diameter", "hc-bounds", "leaf-exchange", "decycling")

SWEEP_LAYERS = (
    "generate.enumerate_trees",
    "graph.Graph",
    "graph.RootedTree",
    "forest.max_linear_forest_value",
    "oracle.max_linear_forest_bf",
    "graph.tree_diameter",
    "graph.tree_stats",
    "forest.leaf_exchange",
    "graph.line_graph",
    "oracle.decycling_number",
)
# graph.Graph is a rebuild probe that isolates the constructor; the sweep
# pays for it inside the decode, so it is left out of the layer sum
SWEEP_LAYERS_IN_SWEEP = tuple(name for name in SWEEP_LAYERS if name != "graph.Graph")

HC_INSTANCES = ("random", "star", "spider")
SINGLE_OPS = ("l_of_tree", "max_linear_forest") + tuple(f"hc_construct.{k}" for k in HC_INSTANCES)
SINGLE_LAYERS = (
    "generate.random_tree.s",
    "graph.Graph.s",
    "graph.tree_center.s",
    "graph.RootedTree.s",
    "forest.max_linear_forest_value.s",
    "forest.reconstruct.s",
) + tuple(f"forest.hc_construct.{k}.s" for k in HC_INSTANCES)

TRACE_OVERHEAD = "trace.overhead_s"


def _layer_metrics() -> tuple[tuple[str, str, str], ...]:
    m = [(f"{layer}.us_per_tree", "us", "lower") for layer in SWEEP_LAYERS]
    m += [
        ("forest.leaf_exchange.calls_per_tree", "count", "lower"),
        ("bounds.verify_theorems.self_us_per_tree", "us", "lower"),
    ]
    for c in CHECKS:
        m += [
            (f"bounds.{c}.checked", "count", "higher"),
            (f"bounds.{c}.saturated", "count", "higher"),
            (f"bounds.{c}.violations", "count", "lower"),
        ]
    m += [(name, "s", "lower") for name in SINGLE_LAYERS]
    for op in SINGLE_OPS:
        m += [
            (f"runtime.gc.s.{op}", "s", "lower"),
            (f"runtime.gc.collections.{op}", "count", "lower"),
            (f"runtime.alloc_peak_mib.{op}", "MiB", "lower"),
        ]
    m.append((TRACE_OVERHEAD, "s", "lower"))
    return tuple(m)


LAYER_METRICS = _layer_metrics()


def _predictions() -> dict[str, tuple[str, tuple[str, ...]]]:
    sweeps = ("sweep-checks",)
    p: dict[str, tuple[str, tuple[str, ...]]] = {}
    # each replayed layer moves trees_per_s on the sweep by its share of the
    # sweep's time; leaf exchange, line_graph and the decycling oracle run on
    # no other workload, and the brute-force oracle is the largest fixed share
    for layer in SWEEP_LAYERS:
        p[f"{layer}.us_per_tree"] = ("trees_per_s", sweeps)
    p["forest.leaf_exchange.calls_per_tree"] = ("trees_per_s", sweeps)
    p["bounds.verify_theorems.self_us_per_tree"] = ("trees_per_s", sweeps)
    # exact counts feed the correctness gate and must repeat exactly
    for c in CHECKS:
        for f in ("checked", "saturated", "violations"):
            p[f"bounds.{c}.{f}"] = ("correct", sweeps)
    for name in SINGLE_LAYERS:
        p[name] = ("trees_per_s", ("single-tree",))
    p["generate.random_tree.s"] = ("setup_s", ("single-tree",))
    p["graph.Graph.s"] = ("setup_s", ("single-tree",))
    for op in SINGLE_OPS:
        p[f"runtime.gc.s.{op}"] = ("trees_per_s", ("single-tree",))
        p[f"runtime.gc.collections.{op}"] = ("trees_per_s", ("single-tree",))
        p[f"runtime.alloc_peak_mib.{op}"] = ("peak_rss_mib", ("single-tree",))
    # traced-minus-untraced time; end-to-end figures come from untraced runs
    p[TRACE_OVERHEAD] = ("none", sweeps + ("single-tree",))
    return p


#: per-layer metric -> (end-to-end metric it should move, workloads where it should)
PREDICTIONS = _predictions()


def zero_layers() -> dict[str, float]:
    """Every per-layer metric at 0: a layer that does no work on a workload."""
    return {name: 0.0 for name, _, _ in LAYER_METRICS}


# ---------------------------------------------------------------------------
# correctness gate


@dataclass
class Gate:
    """Operations attempted and checks failed; ``problems`` names each."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Result:
    """What one run measured. ``metrics`` holds the BENCHMARK.json metrics of
    the run's mode, except the import share of ``setup_s``; ``detail`` holds
    further figures printed for people."""

    metrics: dict[str, float]
    detail: dict[str, float | list[float]] = field(default_factory=dict)
    tracer: Tracer | None = None


def fastest(times: list[float]) -> float:
    """The statistic of every timed repetition. On a shared two-core Xeon
    virtual machine, other tenants slowed CPU-bound work by up to 1.7x for
    seconds at a time; over 40 s runs of sweep-checks the median pass varied
    by 20 % between runs (quartile spread over median), the fastest pass by
    11 %. The fastest repetition is the best estimate of the code's own
    cost; every repetition is kept in the result's detail (README: Noise)."""
    return min(times)


def _another(times: list[float], budget: float) -> bool:
    """Whether to run another repetition: always a first one, then while
    one more of the last duration keeps the timed total within the budget."""
    return not times or sum(times) + times[-1] <= budget


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    n_min: int
    n_max: int
    config: SweepConfig
    #: check -> (checked, saturated) recorded at the seed commit
    fingerprint: dict[str, tuple[int, int]]


SWEEP_CHECKS = SweepSpec(
    n_min=2,
    n_max=7,
    config=SweepConfig(leaf_exchange_all_pairs=True),
    fingerprint={
        "dp-oracle": (18248, 0),
        "diameter": (17310, 14580),
        "hc-bounds": (18248, 18248),
        "leaf-exchange": (18248, 0),
        "decycling": (18248, 13950),
    },
)


def cayley_total(n_min: int, n_max: int) -> int:
    return sum(n ** (n - 2) if n > 2 else 1 for n in range(n_min, n_max + 1))


def gate_sweep(spec: SweepSpec, run: VerifyRun, gate: Gate) -> None:
    """Every tree counts as one operation; each violation and each counter
    that differs from the recorded fingerprint is a failed check."""
    total = cayley_total(spec.n_min, spec.n_max)
    gate.attempted += run.trees
    gate.require(run.trees == total, f"swept {run.trees} trees, Cayley total is {total}")
    gate.require(set(run.counts) == set(spec.fingerprint), f"checks {sorted(run.counts)}")
    for v in run.violations:
        gate.require(False, v.to_text())
    for check, (checked, saturated) in spec.fingerprint.items():
        c = run.counts.get(check)
        if c is None:
            continue
        gate.require(c.checked + c.skipped == total, f"{check}: checked+skipped != {total}")
        gate.require(
            (c.checked, c.saturated) == (checked, saturated),
            f"{check}: checked/saturated {c.checked}/{c.saturated}, expected {checked}/{saturated}",
        )


def sweep_pass(spec: SweepSpec, seed: int, tracer=NO_TRACE):
    """One timed serial ``verify_theorems`` call; returns (run, seconds)."""
    cfg = replace(spec.config, seed=seed)
    t0 = perf_counter()
    with tracer.span("bounds.verify_theorems"):
        run = verify_theorems(spec.n_max, cfg, n_min=spec.n_min, processes=1)
    return run, perf_counter() - t0


def measure_sweep(spec: SweepSpec, seed: int, seconds: float, gate: Gate) -> Result:
    """Repeat the sweep while another pass fits in ``seconds``; report the
    fastest pass (see ``fastest``)."""
    walls: list[float] = []
    while _another(walls, seconds):
        run, wall = sweep_pass(spec, seed)
        gate_sweep(spec, run, gate)
        walls.append(wall)
    return Result(
        metrics={
            "setup_s": 0.0,  # a sweep generates its trees inside the timed call
            "trees_per_s": run.trees / fastest(walls),
            "peak_rss_mib": own_peak_mib(),
        },
        detail={"passes": len(walls), "pass_s": walls},
    )


REPLAY_CHUNK = 2048  # trees per replay operation: few spans, steady timings


def replay_sweep(spec: SweepSpec, tracer: Tracer, gate: Gate) -> tuple[int, int]:
    """Run the sweep's per-tree pipeline from public functions over the same
    trees, one layer at a time per rank chunk, in the sweep's check order.
    Returns (trees, leaf_exchange calls)."""
    cfg = spec.config
    if cfg.leaf_exchange_max_n >= spec.n_min and not cfg.leaf_exchange_all_pairs:
        raise ValueError("the replay reproduces all-pairs leaf exchange only")
    trees = calls = 0
    for n in range(spec.n_min, spec.n_max + 1):
        total = num_labeled_trees(n)
        for lo in range(0, total, REPLAY_CHUNK):
            hi = min(lo + REPLAY_CHUNK, total)
            with tracer.span("bounds.replay_chunk"):
                calls += _replay_chunk(n, lo, hi, cfg, tracer, gate)
            trees += hi - lo
    return trees, calls


def _replay_chunk(n: int, lo: int, hi: int, cfg: SweepConfig, tracer: Tracer, gate: Gate) -> int:
    with tracer.span("generate.enumerate_trees"):
        graphs = list(enumerate_trees(n, lo, hi))
    with tracer.span("graph.Graph"):
        for g in graphs:
            Graph(g.n, g.edges, validate=False)
    with tracer.span("graph.RootedTree"):
        rooted = [RootedTree(g, 0) for g in graphs]
    with tracer.span("forest.max_linear_forest_value"):
        values = [max_linear_forest_value(t) for t in rooted]
    gate.attempted += len(graphs)
    if n <= cfg.dp_oracle_max_n:
        with tracer.span("oracle.max_linear_forest_bf"):
            brute = [max_linear_forest_bf(g).value for g in graphs]
        gate.require(brute == values, f"replay n={n} ranks {lo}..{hi}: dp differs from oracle")
    with tracer.span("graph.tree_diameter"):
        for g in graphs:
            tree_diameter(g)
    if n >= 2:
        with tracer.span("graph.tree_stats"):
            for t in rooted:
                tree_stats(t)
    calls = 0
    if 2 <= n <= cfg.leaf_exchange_max_n:
        worse = 0
        with tracer.span("forest.leaf_exchange"):
            for g, lv in zip(graphs, values):
                leaves = [v for v in range(n) if g.degree(v) == 1]
                for a in leaves:
                    for b in leaves:
                        if a != b:
                            moved = leaf_exchange(g, a, b)
                            worse += max_linear_forest_value(RootedTree(moved, 0)) < lv
                            calls += 1
        gate.require(worse == 0, f"replay n={n} ranks {lo}..{hi}: leaf exchange lowered l")
    if 2 <= n <= cfg.decycling_max_n:
        with tracer.span("graph.line_graph"):
            lines = [line_graph(g).graph for g in graphs]
        with tracer.span("oracle.decycling_number"):
            nablas = [decycling_number(h).value for h in lines]
        gate.require(
            nablas == [n - 1 - lv for lv in values],
            f"replay n={n} ranks {lo}..{hi}: decycling number differs from n-1-l",
        )
    return calls


def trace_sweep(spec: SweepSpec, seed: int, gate: Gate) -> Result:
    """Untraced pass, traced pass, then the traced per-layer replay."""
    run, wall = sweep_pass(spec, seed)
    gate_sweep(spec, run, gate)
    tracer = Tracer()
    # the same instrumentation as the traced single-tree calls: a span and
    # GC callbacks, which a forked pool worker would inherit too
    with GcMeter().installed():
        traced_run, traced_wall = sweep_pass(spec, seed, tracer)
    gate_sweep(spec, traced_run, gate)
    trees, calls = replay_sweep(spec, tracer, gate)
    self_s = tracer.self_times()
    layers = {
        f"{name}.us_per_tree": self_s.get(name, 0.0) / trees * 1e6 for name in SWEEP_LAYERS
    }
    in_sweep = sum(layers[f"{name}.us_per_tree"] for name in SWEEP_LAYERS_IN_SWEEP)
    metrics = zero_layers()
    metrics.update(layers)
    metrics["forest.leaf_exchange.calls_per_tree"] = calls / trees
    metrics["bounds.verify_theorems.self_us_per_tree"] = wall / run.trees * 1e6 - in_sweep
    for check in CHECKS:
        c = run.counts[check]
        metrics[f"bounds.{check}.checked"] = c.checked
        metrics[f"bounds.{check}.saturated"] = c.saturated
        metrics[f"bounds.{check}.violations"] = c.violations
    metrics[TRACE_OVERHEAD] = traced_wall - wall
    return Result(metrics=metrics, tracer=tracer)


# ---------------------------------------------------------------------------
# single tree


@dataclass(frozen=True)
class SingleTreeSpec:
    n: int
    hc_n: int
    star_n: int
    spider_legs: tuple[int, ...]
    #: perfect k-ary tree (k, levels) whose l is checked against its closed form
    kary: tuple[int, int]
    setups: int = 3


SOLVE_SHARE = 0.8  # of the run's seconds for the 10^6 solves; the rest completes

SINGLE_TREE = SingleTreeSpec(
    n=10**6, hc_n=10**4, star_n=4000, spider_legs=(500,) * 8, kary=(2, 20)
)


def make_instances(spec: SingleTreeSpec, seed: int, tracer=NO_TRACE):
    """The seeded inputs: the big tree and the three completion instances."""
    rng = random.Random(seed)
    big_seed, hc_seed = rng.getrandbits(63), rng.getrandbits(63)
    with tracer.span("generate.random_tree"):
        big = random_tree(spec.n, big_seed)
    completions = {
        "random": random_tree(spec.hc_n, hc_seed),
        "star": star_graph(spec.star_n),
        "spider": spider(spec.spider_legs),
    }
    return big, completions


def setup_single(spec: SingleTreeSpec, seed: int) -> tuple[float, Graph, dict[str, Graph]]:
    """Generate the instances ``spec.setups`` times; median seconds and the
    last instances. Only one big tree is alive at a time."""
    times = []
    for _ in range(spec.setups):
        big = completions = None
        gc.collect()
        t0 = perf_counter()
        big, completions = make_instances(spec, seed)
        times.append(perf_counter() - t0)
    return median(times), big, completions


def check_solves(big: Graph, l: int, rec, gate: Gate, witness_checked: bool) -> None:
    """Both solves agree and the witness has that many edges; unless an
    earlier call's witness was checked, it must also be a linear forest."""
    gate.attempted += 2
    gate.require(rec.value == l, f"l_of_tree={l} but max_linear_forest found {rec.value}")
    gate.require(len(rec.best.edges) == l, f"witness has {len(rec.best.edges)} edges, l={l}")
    if not witness_checked:
        gate.require(is_linear_forest(big, rec.best.edges), "max_linear_forest witness is not a linear forest")


def check_completion(name: str, g: Graph, added, hc: int, gate: Gate) -> None:
    """leaves - 1 distinct non-edges, and at least the completion number."""
    gate.attempted += 1
    leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
    edges = {(u, v) if u < v else (v, u) for u, v in added}
    ok = (
        len(added) == leaves - 1
        and len(edges) == len(added)
        and all(u != v and 0 <= u < g.n and 0 <= v < g.n and not g.has_edge(u, v) for u, v in edges)
        and len(added) >= hc
    )
    gate.require(ok, f"hc_construct on {name}: {len(added)} edges, {leaves} leaves, hc={hc}")


def check_closed_form(spec: SingleTreeSpec, gate: Gate,
                      closed_form: Callable[[int, int], int] = perfect_kary_l) -> None:
    """Untimed check at 10^6 scale: l of a perfect k-ary tree."""
    k, h = spec.kary
    g = perfect_kary(k, h)
    gate.attempted += 1
    got, want = l_of_tree(g), closed_form(g.n, k)
    gate.require(got == want, f"l(perfect {k}-ary, {h} levels) = {got}, closed form says {want}")


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def _solve_mlf(g: Graph):
    return max_linear_forest(root_at_center(g))


def measure_single(spec: SingleTreeSpec, seed: int, seconds: float, gate: Gate) -> Result:
    """Set up ``spec.setups`` times, then repeat the big-tree solves while
    they fit in 4/5 of ``seconds`` and the completions in the rest, each at
    least once. The big tree is freed before the completions run."""
    setup_s, big, completions = setup_single(spec, seed)
    l_times: list[float] = []
    mlf_times: list[float] = []
    pass_times: list[float] = []
    while _another(pass_times, seconds * SOLVE_SHARE):
        l, l_s = _timed(l_of_tree, big)
        rec, mlf_s = _timed(_solve_mlf, big)
        l_times.append(l_s)
        mlf_times.append(mlf_s)
        pass_times.append(l_s + mlf_s)
        if len(pass_times) == 1:
            # the peak of set-up and one solve pass, read before the
            # untimed witness check allocates
            peak = own_peak_mib()
        check_solves(big, l, rec, gate, witness_checked=len(pass_times) > 1)
        del rec
    del big
    gc.collect()

    hc_times = _measure_completions(completions, seconds * (1 - SOLVE_SHARE), gate)
    check_closed_form(spec, gate)
    hc_s = {k: fastest(v) for k, v in hc_times.items()}
    pass_s = fastest(l_times) + fastest(mlf_times) + sum(hc_s.values())
    detail = {
        "l_of_tree_s": fastest(l_times),
        "max_linear_forest_s": fastest(mlf_times),
        "hc_construct_s": sum(hc_s.values()),
        **{f"hc_construct_s.{k}": v for k, v in hc_s.items()},
        "l_of_tree_s.all": l_times,
        "max_linear_forest_s.all": mlf_times,
        "solve_reps": len(l_times),
        "completion_reps": len(hc_times["random"]),
    }
    metrics = {"setup_s": setup_s, "trees_per_s": (2 + len(hc_s)) / pass_s, "peak_rss_mib": peak}
    return Result(metrics=metrics, detail=detail)


def _measure_completions(completions: dict[str, Graph], seconds: float, gate: Gate,
                         tracer=NO_TRACE, meter: GcMeter | None = None) -> dict[str, list[float]]:
    hc = {k: hc_of_tree(g) for k, g in completions.items()}
    times: dict[str, list[float]] = {k: [] for k in completions}
    rounds: list[float] = []
    while _another(rounds, seconds):
        t_round = perf_counter()
        for k, g in completions.items():
            t0 = perf_counter()
            with tracer.span(f"forest.hc_construct.{k}"), _region(meter, f"hc_construct.{k}"):
                added = hc_construct(g).added_edges
            times[k].append(perf_counter() - t0)
            check_completion(k, g, added, hc[k], gate)
        rounds.append(perf_counter() - t_round)
    return times


def _region(meter: GcMeter | None, label: str):
    return meter.region(label) if meter else nullcontext()


def trace_single(spec: SingleTreeSpec, seed: int, gate: Gate) -> Result:
    """Untraced solves, the same solves replayed layer by layer under spans
    and GC callbacks, then once more under tracemalloc for each operation's
    allocation peak; the completions likewise with the big tree freed. The
    closed-form check is left to the untraced runs, to keep this run short."""
    tracer = Tracer()
    meter = GcMeter()
    with meter.installed():
        with tracer.span("setup"):
            big, completions = make_instances(spec, seed, tracer)
            with tracer.span("graph.Graph"):
                Graph(big.n, big.edges, validate=False)

    l, l_s = _timed(l_of_tree, big)
    rec, mlf_s = _timed(_solve_mlf, big)
    check_solves(big, l, rec, gate, witness_checked=False)
    untraced = l_s + mlf_s
    # only a digest stays alive: a live witness would slow every collection
    witness = hash(rec.best.edges)
    del rec

    with meter.installed():
        with tracer.span("l_of_tree"), meter.region("l_of_tree"):
            with tracer.span("graph.tree_center"):
                center = tree_center(big)
            with tracer.span("graph.RootedTree"):
                t = RootedTree(big, center[0])
            with tracer.span("forest.max_linear_forest_value"):
                lv = max_linear_forest_value(t)
        del t
        with tracer.span("max_linear_forest"), meter.region("max_linear_forest"):
            with tracer.span("graph.root_at_center"):
                t = root_at_center(big)
            with tracer.span("forest.max_linear_forest"):
                rec = max_linear_forest(t)
    gate.attempted += 1
    gate.require(lv == l and hash(rec.best.edges) == witness, "traced solves differ from untraced")
    del t, rec

    alloc = _solve_alloc_peaks_mib(big)
    del big
    gc.collect()

    plain = _measure_completions(completions, 0, gate)
    untraced += sum(v[0] for v in plain.values())
    with meter.installed():
        _measure_completions(completions, 0, gate, tracer, meter)
    for k, g in completions.items():
        alloc[f"hc_construct.{k}"] = _alloc_peak_mib(hc_construct, g)

    spans = {s.name: s.duration for s in tracer.closed()}
    traced = sum(spans[name] for name in ("l_of_tree", "max_linear_forest")) + sum(
        spans[f"forest.hc_construct.{k}"] for k in completions
    )
    metrics = zero_layers()
    metrics.update({
        "generate.random_tree.s": spans["generate.random_tree"],
        "graph.Graph.s": spans["graph.Graph"],
        "graph.tree_center.s": spans["graph.tree_center"],
        "graph.RootedTree.s": spans["graph.RootedTree"],
        "forest.max_linear_forest_value.s": spans["forest.max_linear_forest_value"],
        "forest.reconstruct.s": spans["forest.max_linear_forest"] - spans["forest.max_linear_forest_value"],
        TRACE_OVERHEAD: traced - untraced,
    })
    for k in completions:
        metrics[f"forest.hc_construct.{k}.s"] = spans[f"forest.hc_construct.{k}"]
    for op in SINGLE_OPS:
        s, c = meter.by_label[op]
        metrics[f"runtime.gc.s.{op}"] = s
        metrics[f"runtime.gc.collections.{op}"] = c
        metrics[f"runtime.alloc_peak_mib.{op}"] = alloc[op]
    return Result(metrics=metrics, tracer=tracer)


def _solve_alloc_peaks_mib(big: Graph) -> dict[str, float]:
    """Allocation peaks of l_of_tree and of max_linear_forest(root_at_center)
    in one tracemalloc pass, since both start from the same rooted tree:
    l_of_tree(g) is max_linear_forest_value(root_at_center(g)). Each peak is
    counted from what was live before the rooted tree was built."""
    gc.collect()
    # the calls leave no reference cycles, so collections would only cost
    # time here: allocation peaks are the same with the collector off
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = root_at_center(big)
        rooting = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        max_linear_forest_value(t)
        value = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        max_linear_forest(t)
        forest = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    return {
        "l_of_tree": (max(rooting, value) - base) / 2**20,
        "max_linear_forest": (max(rooting, forest) - base) / 2**20,
    }


def _alloc_peak_mib(fn, *args) -> float:
    """Peak of memory allocated during one call, above what was live."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return (peak - base) / 2**20
