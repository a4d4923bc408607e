"""Exhaustive enumeration of observed DAGs over a fixed latent pattern,
plus the benchmark harness that tabulates, per edge count, how many of
those graphs each identification-method preset fully identifies.

Graphs are deduplicated up to observed-node permutations that preserve
the latent-children structure; one canonical representative is kept per
class.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Optional, Sequence

import numpy as np

from .criteria import SearchConfig, combined_algorithm
from .flow import FlowFrame
from .graph import CompiledGraph, LatentFactorGraph


@dataclass(frozen=True)
class LatentPattern:
    """A fixed latent structure over `num_observed` nodes: each latent
    node comes with the set of observed indices (0-based) it points to."""

    num_observed: int
    latents: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self) -> None:
        rng = range(self.num_observed)
        for name, kids in self.latents:
            if not set(kids) <= set(rng):
                raise ValueError(
                    f"latent {name!r} has children outside the observed range"
                )

    def observed_names(self) -> list[str]:
        return [str(i + 1) for i in range(self.num_observed)]

    def latent_edges(self) -> list[tuple[str, str]]:
        return [
            (name, str(i + 1))
            for name, kids in self.latents
            for i in sorted(kids)
        ]


SINGLE_FACTOR_SIX = LatentPattern(
    6, (("h1", frozenset(range(6))),)
)

OVERLAPPING_FACTORS_SIX = LatentPattern(
    6,
    (
        ("h1", frozenset({0, 1, 2, 3})),
        ("h2", frozenset({3, 4, 5})),
    ),
)

PATTERNS = {
    "fig5a": SINGLE_FACTOR_SIX,
    "fig5b": OVERLAPPING_FACTORS_SIX,
}


# -- symmetry --------------------------------------------------------------


def automorphisms(pattern: LatentPattern) -> list[tuple[int, ...]]:
    """Observed-node permutations under which the multiset of latent
    children sets is invariant (latent nodes may be relabelled)."""
    targets = sorted(
        tuple(sorted(kids)) for _, kids in pattern.latents
    )
    out = []
    for perm in permutations(range(pattern.num_observed)):
        mapped = sorted(
            tuple(sorted(perm[i] for i in kids))
            for _, kids in pattern.latents
        )
        if mapped == targets:
            out.append(perm)
    return out


class _Canonicalizer:
    """Minimum-bitmask canonical form of a directed edge set under a
    permutation group, vectorized over the group."""

    def __init__(self, pattern: LatentPattern):
        n = pattern.num_observed
        self.n = n
        self.pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        pair_index = {p: i for i, p in enumerate(self.pairs)}
        group = automorphisms(pattern)
        table = np.empty((len(group), len(self.pairs)), dtype=np.int64)
        for gi, perm in enumerate(group):
            for pi, (a, b) in enumerate(self.pairs):
                table[gi, pi] = pair_index[(perm[a], perm[b])]
        self.table = table

    def edges_of(self, mask: int) -> tuple[tuple[int, int], ...]:
        return tuple(
            p for i, p in enumerate(self.pairs) if mask >> i & 1
        )

    def canonical(self, mask: int) -> int:
        idx = np.array(
            [i for i in range(len(self.pairs)) if mask >> i & 1],
            dtype=np.int64,
        )
        if idx.size == 0:
            return 0
        mapped = self.table[:, idx]
        masks = np.left_shift(np.int64(1), mapped).sum(axis=1)
        return int(masks.min())


def _reach_masks(n: int, edges: Sequence[tuple[int, int]]) -> list[int]:
    """Per node u, the mask of the nodes u reaches by a directed path of
    length >= 0 (u itself included)."""
    reach = [1 << u for u in range(n)]
    for a, b in edges:
        reach[a] |= 1 << b
    for k in range(n):
        for u in range(n):
            if reach[u] >> k & 1:
                reach[u] |= reach[k]
    return reach


def _canonical_levels(
    pattern: LatentPattern,
    max_edges: int,
    canon: Optional[_Canonicalizer] = None,
) -> list[list[int]]:
    """Canonical edge-set bitmasks per edge count, 0..max_edges, under the
    pattern's canonicalizer `canon` (built here when not given).

    Level m is generated by extending every level-(m-1) representative
    with one edge, discarding candidates whose head already reaches their
    tail (they close a cycle), and canonicalizing."""
    if canon is None:
        canon = _Canonicalizer(pattern)
    levels: list[list[int]] = [[0]]
    for _ in range(max_edges):
        reps: set[int] = set()
        seen_raw: set[int] = set()
        for mask in levels[-1]:
            reach = _reach_masks(canon.n, canon.edges_of(mask))
            for i, (a, b) in enumerate(canon.pairs):
                candidate = mask | 1 << i
                if candidate == mask or candidate in seen_raw:
                    continue
                seen_raw.add(candidate)
                if reach[b] >> a & 1:
                    continue
                reps.add(canon.canonical(candidate))
        levels.append(sorted(reps))
    return levels


def _graph_from_edges(
    pattern: LatentPattern, edges: Iterable[tuple[int, int]]
) -> LatentFactorGraph:
    return LatentFactorGraph(
        pattern.observed_names(),
        [name for name, _ in pattern.latents],
        [(str(a + 1), str(b + 1)) for a, b in edges],
        pattern.latent_edges(),
    )


def _check_edge_count(pattern: LatentPattern, count: int, name: str) -> None:
    """An acyclic graph on the pattern's observed nodes has 0 to n(n-1)/2
    observed edges; any other count is a ValueError naming `name`."""
    max_pairs = pattern.num_observed * (pattern.num_observed - 1) // 2
    if count < 0:
        raise ValueError(f"{name} must be >= 0, got {count}")
    if count > max_pairs:
        raise ValueError(
            f"{name}={count} exceeds the acyclic maximum {max_pairs}"
        )


def enumerate_dags(
    pattern: LatentPattern, num_edges: int
) -> list[LatentFactorGraph]:
    """All acyclic observed-edge structures with exactly `num_edges`
    edges over the pattern, one representative per symmetry class."""
    _check_edge_count(pattern, num_edges, "num_edges")
    canon = _Canonicalizer(pattern)
    level = _canonical_levels(pattern, num_edges, canon)[num_edges]
    return [_graph_from_edges(pattern, canon.edges_of(m)) for m in level]


# -- method presets --------------------------------------------------------

METHOD_PRESETS: dict[str, SearchConfig] = {
    "LF-HTC": SearchConfig(
        legacy_lf_htc_only=True, enable_det=False, enable_recursion=False
    ),
    "LF-HTC+rec": SearchConfig(legacy_lf_htc_only=True, enable_det=False),
    "eLF-HTC": SearchConfig(enable_det=False, enable_recursion=False),
    "eLF-HTC+rec": SearchConfig(enable_det=False),
    "Det": SearchConfig(enable_elf=False, enable_recursion=False),
    "Det+rec": SearchConfig(enable_elf=False),
    "Det+LF-HTC": SearchConfig(
        legacy_lf_htc_only=True, enable_recursion=False
    ),
    "Det+LF-HTC+rec": SearchConfig(legacy_lf_htc_only=True),
    "Det+eLF-HTC": SearchConfig(enable_recursion=False),
    "Det+eLF-HTC+rec": SearchConfig(),
    "no-wz-loop": SearchConfig(simplify_wz_loop=True),
    "cap10": SearchConfig(cap_det_pairs=10),
    "cap100": SearchConfig(cap_det_pairs=100),
    "cap500": SearchConfig(cap_det_pairs=500),
}

DEFAULT_METHODS = ("LF-HTC", "Det+eLF-HTC+rec")


@dataclass
class BenchmarkRow:
    """Counts for one edge-count level: how many symmetry classes exist
    in total and how many each method fully identifies. `seconds` holds
    each method's wall-clock time summed over the level's graphs; unlike
    the counts, it varies from run to run."""

    num_edges: int
    total: int
    counts: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "num_edges": self.num_edges,
            "total": self.total,
            "counts": dict(self.counts),
            "seconds": {m: round(s, 3) for m, s in self.seconds.items()},
        }


def _pattern_frame(pattern: LatentPattern) -> FlowFrame:
    """The flow frame of the pattern's complete graph, which holds every
    class of the pattern."""
    n = pattern.num_observed
    return FlowFrame(
        CompiledGraph(
            _graph_from_edges(
                pattern,
                [(a, b) for a in range(n) for b in range(n) if a != b],
            )
        )
    )


# The frame of a process-pool worker, set once per worker by
# `_init_worker`.
_worker_frame: Optional[FlowFrame] = None


def _init_worker(pattern: LatentPattern) -> None:
    global _worker_frame
    _worker_frame = _pattern_frame(pattern)


def _identify_task(
    args: tuple[LatentPattern, tuple[tuple[int, int], ...], tuple[str, ...]],
    frame: Optional[FlowFrame] = None,
) -> dict[str, tuple[bool, float]]:
    """Worker body: run each requested method on one graph, with the
    pattern's flow frame (the worker's when not given) bound to the graph
    once, so that the methods share its compiled graph, networks and
    flows. Per method, whether it identifies every edge and the
    wall-clock seconds it took."""
    pattern, edges, methods = args
    g = _graph_from_edges(pattern, edges)
    frame = (_worker_frame if frame is None else frame).bind(g)
    out = {}
    for m in methods:
        start = time.perf_counter()
        state = combined_algorithm(g, METHOD_PRESETS[m], frame)
        out[m] = (
            g.edges_obs <= state.solved_edges,
            time.perf_counter() - start,
        )
    return out


def run_benchmark(
    pattern: LatentPattern,
    max_edges: int,
    methods: Sequence[str] = DEFAULT_METHODS,
    workers: Optional[int] = None,
) -> list[BenchmarkRow]:
    """Per edge count 0..max_edges, count the symmetry classes each
    method preset fully identifies. Deterministic; optionally fans the
    graphs out over a process pool. The pattern's flow frame is compiled
    once, or once per pool worker, and every class's networks are derived
    from it, bound to the class for the class's methods."""
    _check_edge_count(pattern, max_edges, "max_edges")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for m in methods:
        if m not in METHOD_PRESETS:
            raise KeyError(
                f"unknown method {m!r}; choices: "
                f"{', '.join(sorted(METHOD_PRESETS))}"
            )
    canon = _Canonicalizer(pattern)
    levels = _canonical_levels(pattern, max_edges, canon)
    methods = tuple(methods)
    tasks = [
        [(pattern, canon.edges_of(mask), methods) for mask in level]
        for level in levels
    ]
    if workers and workers > 1 and any(len(t) > 1 for t in tasks):
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(pattern,)
        ) as pool:
            results = [
                list(pool.map(_identify_task, t, chunksize=8)) for t in tasks
            ]
    else:
        frame = _pattern_frame(pattern)
        results = [[_identify_task(a, frame) for a in t] for t in tasks]
    rows: list[BenchmarkRow] = []
    for num_edges, level_results in enumerate(results):
        row = BenchmarkRow(num_edges=num_edges, total=len(level_results))
        for m in methods:
            row.counts[m] = sum(1 for r in level_results if r[m][0])
            row.seconds[m] = sum(r[m][1] for r in level_results)
        rows.append(row)
    return rows


# -- frozen reference data -------------------------------------------------

# Reference counts for the two benchmark patterns, indexed by
# edge count. "total" is the number of DAG symmetry classes; "rational"
# is the number of rationally identifiable ones, established with
# computer-algebra tooling outside this package and shipped as fixed
# data (an upper bound on what any method preset here can reach).
REFERENCE_COUNTS: dict[str, dict[str, tuple[int, ...]]] = {
    "fig5a": {
        "total": (1, 1, 4, 13, 51, 163, 407, 796, 1169, 1291),
        "rational": (1, 1, 4, 13, 51, 159, 398, 747, 956, 631),
    },
    "fig5b": {
        "total": (1, 8, 63, 391, 1983, 7570, 21029),
        "rational": (1, 6, 45, 255, 1171, 3898, 8960),
    },
}


# -- output ----------------------------------------------------------------


def rows_to_csv(rows: Sequence[BenchmarkRow]) -> str:
    methods = list(rows[0].counts) if rows else []
    header = ["num_edges", "total"] + methods + [
        f"seconds_{m}" for m in methods
    ]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row.num_edges), str(row.total)]
        cells += [str(row.counts[m]) for m in methods]
        cells += [format(row.seconds[m], ".3f") for m in methods]
        lines.append(",".join(cells))
    return "\n".join(lines)


def rows_to_markdown(rows: Sequence[BenchmarkRow]) -> str:
    methods = list(rows[0].counts) if rows else []
    header = ["|D_V|", "Total"] + methods
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    for row in rows:
        cells = [str(row.num_edges), str(row.total)] + [
            str(row.counts[m]) for m in methods
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
