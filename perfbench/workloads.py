"""The four benchmark workloads.

Each workload builds its inputs in its constructor (the set-up phase),
runs one round of identical operations per `run_round` call (the timed
phase), and checks the program's outputs in `check`, after timing and
outside any trace. Operation latencies go to the shared `Ops` recorder.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np

import oracles
from latentid import (
    catalog,
    cli,
    criteria,
    enumeration,
    formulas,
    graph,
    numerics,
)

# G7 from the ROADMAP baselines: the slowest graph of the acceptance
# round-trip generator, 10 of 11 edges identified, deep edge-deletion
# recursion.
G7 = {
    "observed": [str(i) for i in range(1, 8)],
    "latent": ["h1"],
    "edges_obs": [
        [str(a), str(b)]
        for a, b in [
            (1, 2), (1, 3), (1, 4), (4, 2), (4, 5), (4, 6),
            (6, 2), (7, 3), (7, 4), (7, 5), (7, 6),
        ]
    ],
    "edges_lat": [["h1", "1"], ["h1", "6"], ["h1", "7"]],
}

DENSE_CORPUS_SIZE = 359  # plus G7: 360 operations
ROUNDTRIP_CORPUS_SIZE = 25  # every second one cyclic
TRIALS_PER_GRAPH = 60
CHECK_DRAWS = 3  # independent recovery draws per checked graph
ENUM_FORMULA_SAMPLE = 24  # enumeration classes whose formulas are checked


class Ops:
    """Latency of every operation attempted, and the failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, corpus_seed: int):
        self.seed = seed
        self.corpus_seed = corpus_seed
        self.work_dir = work_dir
        self.problems: list[str] = []
        self.counters: dict[str, int] = {}

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}")

    def corpus_rng(self) -> random.Random:
        # The graph corpora of dense-check and roundtrip come from
        # `corpus_seed`, which stays the same from run to run so that every
        # run does the same search: relabelling nodes moves the cost of a
        # single graph by up to 2x, which made the p90 of dense-check differ
        # by half between seeds. `--seed` shuffles the order in which each
        # graph lists its nodes and edges and draws every numeric input.
        return random.Random(f"{self.name}:corpus:{self.corpus_seed}")

    def np_rng(self, stream: str) -> np.random.Generator:
        return np.random.default_rng(self.rng(stream).getrandbits(64))

    def run_round(self, ops: Ops, first: bool) -> int:
        """Run every operation once; return the edges identified."""
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def check_formulas(self, label: str, g: dict, exprs: dict, rng) -> None:
        for _ in range(CHECK_DRAWS):
            try:
                misses = oracles.recovery_errors(g, exprs, rng)
            except oracles.NearSingular as exc:
                self.problems.append(f"{label}: {exc}")
                return
            if misses:
                edge, est, truth = misses[0]
                self.problems.append(
                    f"{label}: edge {edge} estimated {est!r}, drawn {truth!r}"
                )
                return


# -- enumeration -----------------------------------------------------------


class Enumeration(Workload):
    """`run_benchmark` without workers; one operation is one class decided
    by one method preset, timed at the `combined_algorithm` boundary."""

    pattern = ""
    max_edges = 0
    methods: tuple[str, ...] = ()

    def __init__(self, *args):
        super().__init__(*args)
        table = oracles.REFERENCE_TABLES[self.pattern]
        per_round = sum(table["total"][: self.max_edges + 1]) * len(
            self.methods
        )
        self.sample_ops = set(
            self.rng("sample").sample(range(per_round), ENUM_FORMULA_SAMPLE)
        )
        self.sampled: list = []
        self.rows_seen: list = []

    def run_round(self, ops: Ops, first: bool) -> int:
        decide = enumeration.combined_algorithm
        clock = time.perf_counter
        solved = 0
        index = 0

        def timed_decide(g, *args, **kwargs):
            nonlocal solved, index
            start = clock()
            try:
                state = decide(g, *args, **kwargs)
            except Exception:
                ops.failed += 1
                raise
            ops.latencies.append(clock() - start)
            solved += len(state.solved_edges & g.edges_obs)
            if first and index in self.sample_ops:
                self.sampled.append((index, g, state))
            index += 1
            return state

        enumeration.combined_algorithm = timed_decide
        try:
            rows = enumeration.run_benchmark(
                enumeration.PATTERNS[self.pattern],
                self.max_edges,
                self.methods,
            )
        finally:
            enumeration.combined_algorithm = decide
        if index == 0:
            self.problems.append(
                "run_benchmark made no call through "
                "enumeration.combined_algorithm: no operation was timed"
            )
        self.rows_seen.append(
            [(r.num_edges, r.total, dict(r.counts)) for r in rows]
        )
        self.counters["enumeration.classes"] = sum(r.total for r in rows)
        return solved

    def check(self) -> None:
        table = oracles.REFERENCE_TABLES[self.pattern]
        rows = self.rows_seen[0]
        if any(r != rows for r in self.rows_seen):
            self.problems.append("rounds disagree on the class counts")
        if [n for n, _, _ in rows] != list(range(self.max_edges + 1)):
            self.problems.append(f"unexpected rows {[n for n, _, _ in rows]}")
        for n, total, counts in rows:
            if total != table["total"][n]:
                self.problems.append(
                    f"row {n}: {total} classes, reference {table['total'][n]}"
                )
            self.check_counts(n, counts, table["rational"][n])
        rng = self.np_rng("draws")
        for index, g, state in self.sampled:
            fmap = formulas.formula_map_from_state(g, state)
            exprs = {e: formulas.expr_to_dict(x) for e, x in fmap.items()}
            self.check_formulas(
                f"class #{index}", graph.graph_to_dict(g), exprs, rng
            )

    def check_counts(self, n: int, counts: dict, rational: int) -> None:
        raise NotImplementedError


class EnumFig5aFull(Enumeration):
    name = "enum-fig5a-full"
    pattern = "fig5a"
    max_edges = 6
    methods = ("Det+eLF-HTC+rec",)

    def check_counts(self, n: int, counts: dict, rational: int) -> None:
        got = counts["Det+eLF-HTC+rec"]
        if got != rational:
            self.problems.append(
                f"row {n}: {got} identified, rational reference {rational}"
            )


class EnumFig5bHtc(Enumeration):
    name = "enum-fig5b-htc"
    pattern = "fig5b"
    max_edges = 4
    methods = ("LF-HTC", "eLF-HTC+rec")

    def check_counts(self, n: int, counts: dict, rational: int) -> None:
        lf, elf = counts["LF-HTC"], counts["eLF-HTC+rec"]
        if not lf <= elf <= rational:
            self.problems.append(
                f"row {n}: LF-HTC {lf}, eLF-HTC+rec {elf}, "
                f"rational reference {rational}: not ordered"
            )


# -- single graphs ---------------------------------------------------------


class DenseCheck(Workload):
    """`cli.main(["formula", "--graph", <json>])` in-process, once per
    graph; one operation is one invocation."""

    name = "dense-check"

    def __init__(self, *args):
        super().__init__(*args)
        crng = self.corpus_rng()
        obs = [str(i + 1) for i in range(7)]
        corpus = [
            oracles.random_graph(crng, 7, crng.randint(7, 10), [obs])
            for _ in range(DENSE_CORPUS_SIZE)
        ]
        order_rng = self.rng("listing")
        self.graphs = [
            oracles.shuffle_listing(g, order_rng) for g in [G7] + corpus
        ]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, g in enumerate(self.graphs):
            path = self.work_dir / f"graph{i:03d}.json"
            path.write_text(json.dumps(g))
            self.paths.append(str(path))

    def output_path(self, i: int) -> Path:
        return self.work_dir / f"output{i:03d}.json"

    def run_round(self, ops: Ops, first: bool) -> int:
        clock = time.perf_counter
        solved = 0
        out_bytes = 0
        for i, path in enumerate(self.paths):
            buf = io.StringIO()
            start = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["formula", "--graph", path])
            except Exception as exc:
                ops.failed += 1
                self.problems.append(f"{path}: {exc!r}")
                continue
            elapsed = clock() - start
            if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
                ops.failed += 1
                continue
            ops.latencies.append(elapsed)
            text = buf.getvalue()
            out_bytes += len(text.encode())
            payload = json.loads(text)
            solved += sum(
                f["status"] == "identified" for f in payload["formulas"]
            )
            if first:
                # Kept on disk, so that peak_rss_mb stays the program's.
                self.output_path(i).write_text(text)
        self.counters["cli.output_bytes"] = out_bytes
        return solved

    def check(self) -> None:
        rng = self.np_rng("draws")
        for i, g in enumerate(self.graphs):
            if not self.output_path(i).exists():
                continue  # the invocation failed and was counted
            payload = json.loads(self.output_path(i).read_text())
            listed = sorted(tuple(f["edge"]) for f in payload["formulas"])
            if listed != sorted(tuple(e) for e in g["edges_obs"]):
                self.problems.append(f"graph {i}: output lists {listed}")
                continue
            exprs = {
                tuple(f["edge"]): f["expression"]
                for f in payload["formulas"]
                if f["status"] == "identified"
            }
            self.check_formulas(f"graph {i}", g, exprs, rng)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


class RoundTrip(Workload):
    """Search and formulas per graph, then `verify_identification` one
    trial at a time; one operation is one trial."""

    name = "roundtrip"

    def __init__(self, *args):
        super().__init__(*args)
        crng = self.corpus_rng()
        corpus = []
        for i in range(ROUNDTRIP_CORPUS_SIZE):
            n = crng.randint(4, 5)
            obs = [str(j + 1) for j in range(n)]
            corpus.append(
                oracles.random_graph(
                    crng, n, crng.randint(n - 1, n), [obs], i % 2 == 0
                )
            )
        order_rng = self.rng("listing")
        dicts = [
            oracles.shuffle_listing(g, order_rng)
            for g in [
                graph.graph_to_dict(catalog.builtin_graph(name))
                for name in sorted(catalog.BUILTIN_GRAPHS)
            ]
            + corpus
        ]
        self.graphs = [(d, graph.graph_from_dict(d)) for d in dicts]
        trial_rng = self.rng("trials")
        self.trial_seeds = [
            [trial_rng.getrandbits(63) for _ in range(TRIALS_PER_GRAPH)]
            for _ in self.graphs
        ]
        self.fmaps: list = []

    def run_round(self, ops: Ops, first: bool) -> int:
        clock = time.perf_counter
        solved = 0
        for (d, g), seeds in zip(self.graphs, self.trial_seeds):
            state = criteria.combined_algorithm(g)
            fmap = formulas.formula_map_from_state(g, state)
            solved += len(state.solved_edges & g.edges_obs)
            if first:
                self.fmaps.append(fmap)
            for s in seeds:
                start = clock()
                try:
                    report = numerics.verify_identification(
                        g,
                        state,
                        trials=1,
                        tol=oracles.RECOVERY_TOL,
                        seed=s,
                        fmap=fmap,
                    )
                except Exception as exc:
                    ops.failed += 1
                    self.problems.append(f"trial {s}: {exc!r}")
                    continue
                ops.latencies.append(clock() - start)
                if report.failures:
                    self.problems.append(
                        f"verify_identification failed on {d}: "
                        f"{report.failures}"
                    )
        return solved

    def check(self) -> None:
        rng = self.np_rng("draws")
        for i, ((d, _), fmap) in enumerate(zip(self.graphs, self.fmaps)):
            exprs = {e: formulas.expr_to_dict(x) for e, x in fmap.items()}
            self.check_formulas(f"graph {i}", d, exprs, rng)


WORKLOADS = {
    w.name: w for w in (EnumFig5aFull, EnumFig5bHtc, DenseCheck, RoundTrip)
}
