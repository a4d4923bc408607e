"""Per-layer spans taken from outside the program.

`Tracer.install` replaces chosen functions of the `latentid` modules with
timing wrappers at run time; the program's source is not edited. Because
the modules import each other's functions by name, every module attribute
that is the original function object is replaced, so calls between
modules and recursive calls both pass through the wrapper.

Spans live on an in-memory stack while open; on close each one adds its
duration and self time (duration minus the time of the wrapped spans it
contains) to its layer's totals. Per-span records are not kept: the flow
layer alone sees hundreds of thousands of calls per run.

The cost of tracing is measured directly rather than as the difference of
a traced and an untraced run, whose noise on a shared host is larger than
the cost itself: the time spent in counter hooks is clocked as it is
spent, and the cost of the wrapper is a calibrated per-span cost times
the number of spans.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute, layer). An attribute "Class.method" wraps a method.
# Private names are wrapped where a layer's work has no public boundary:
# the edge-deletion recursion (_search) and canonicalisation
# (_canonical_levels).
SPAN_POINTS = (
    ("enumeration", "_canonical_levels", "enumeration.canon"),
    ("criteria", "combined_algorithm", "criteria.combined"),
    ("criteria", "_search", "criteria.search"),
    ("criteria", "det_subprocedure", "criteria.det"),
    ("criteria", "elf_htc_subprocedure", "criteria.elf"),
    ("criteria", "lf_htc_subprocedure", "criteria.lf"),
    ("criteria", "allowed_update", "criteria.allowed_update"),
    ("flow", "max_flow", "flow.max_flow"),
    ("flow", "max_flow_sources", "flow.max_flow"),
    ("flow", "build_det_flow", "flow.build"),
    ("flow", "build_elf_flow", "flow.build"),
    ("formulas", "formula_map_from_state", "formulas.build"),
    ("formulas", "eval_expr", "formulas.eval"),
    ("numerics", "sample_parameters", "numerics.sample"),
    ("numerics", "covariance", "numerics.covariance"),
    ("numerics", "estimate", "numerics.estimate"),
    ("numerics", "verify_identification", "numerics.verify"),
    ("cli", "main", "cli.main"),
    ("graph", "LatentFactorGraph.without_obs_edges", "graph.subgraph"),
    ("graph", "descendants", "graph.descendants"),
    ("graph", "htr", "graph.htr"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # time of wrapped children, per span
        self._subgraphs: set = set()
        self._flow_keys: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(
        self,
        layer: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        open_ = self._open
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def hook(fn, *args, **kwargs):
            # Counter bookkeeping is tracing overhead: keep it out of the
            # enclosing span's self time.
            hook_start = clock()
            fn(*args, **kwargs)
            spent = clock() - hook_start
            total_s["trace.hooks"] += spent
            if open_:
                open_[-1] += spent

        def span(*args, **kwargs):
            if before is not None:
                hook(before, *args, **kwargs)
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_.pop()
                calls[layer] += 1
                total_s[layer] += elapsed
                self_s[layer] += elapsed - inner
                if open_:
                    open_[-1] += elapsed
            if after is not None:
                hook(after, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- per-layer counters read off the arguments and results -------------

    def _on_combined(self, g, *args, **kwargs) -> None:
        self._subgraphs = set()

    def _after_combined(self, state) -> None:
        self.counts["criteria.subgraphs"] += len(self._subgraphs)
        self.counts["criteria.certificates"] += len(state.certificates)

    def _on_subprocedure(self, g, *args, **kwargs) -> None:
        self._subgraphs.add(g.edges_obs)

    def _on_flow(self, net) -> None:
        # Distinct (network, terminals) pairs, kept as 64-bit hashes so
        # that a run of a million calls stays small in memory.
        self._flow_keys.add(
            hash(
                (
                    frozenset(net.arcs.items()),
                    frozenset(net.node_capacity.items()),
                    net.sources,
                    net.sinks,
                )
            )
        )

    def _after_verify(self, report) -> None:
        self.counts["numerics.trials"] += report.trials
        self.counts["numerics.degenerate_trials"] += report.degenerate_trials

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        hooks = {
            "criteria.combined": (self._on_combined, self._after_combined),
            "criteria.det": (self._on_subprocedure, None),
            "criteria.elf": (self._on_subprocedure, None),
            "criteria.lf": (self._on_subprocedure, None),
            "flow.max_flow": (self._on_flow, None),
            "numerics.verify": (None, self._after_verify),
        }
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "latentid" or name.startswith("latentid.")
        ]
        for mod_name, attr, layer in SPAN_POINTS:
            owner = sys.modules.get(f"latentid.{mod_name}")
            is_method = "." in attr
            if is_method:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # gone from the program: its metrics read 0
            if is_method:
                holders = [owner]
            else:
                holders = [
                    m for m in modules if getattr(m, attr, None) is original
                ]
            before, after = hooks.get(layer, (None, None))
            wrapped = self._wrap(layer, original, before, after)
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def remove(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- report ------------------------------------------------------------

    @staticmethod
    def span_cost_s() -> float:
        """Median cost of one span around a no-op, hooks aside."""
        calls, repeats = 100_000, 5

        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                noop()
            bare = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped()
            costs.append((clock() - start - bare) / calls)
        return statistics.median(costs)

    def overhead_s(self) -> float:
        """Time tracing added: counter hooks plus the spans themselves."""
        spans = sum(self.calls.values())
        return self.total_s["trace.hooks"] + spans * self.span_cost_s()

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        c, t, s = self.calls, self.total_s, self.self_s
        certs = self.counts["criteria.certificates"]
        flows = c["flow.max_flow"]
        return {
            "enumeration.canon_s": (t["enumeration.canon"], "s"),
            "criteria.subgraphs": (self.counts["criteria.subgraphs"], "count"),
            "criteria.search_self_s": (s["criteria.search"], "s"),
            "criteria.det_calls": (c["criteria.det"], "count"),
            "criteria.det_self_s": (s["criteria.det"], "s"),
            "criteria.elf_calls": (c["criteria.elf"], "count"),
            "criteria.elf_self_s": (s["criteria.elf"], "s"),
            "criteria.lf_calls": (c["criteria.lf"], "count"),
            "criteria.lf_self_s": (s["criteria.lf"], "s"),
            "criteria.allowed_update_calls": (
                c["criteria.allowed_update"],
                "count",
            ),
            "criteria.allowed_update_s": (t["criteria.allowed_update"], "s"),
            "criteria.certificates": (certs, "count"),
            "criteria.flows_per_certificate": (
                flows / certs if certs else 0.0,
                "ratio",
            ),
            "flow.max_flow_calls": (flows, "count"),
            "flow.max_flow_s": (t["flow.max_flow"], "s"),
            "flow.max_flow_distinct": (len(self._flow_keys), "count"),
            "flow.build_calls": (c["flow.build"], "count"),
            "flow.build_s": (t["flow.build"], "s"),
            "formulas.build_s": (t["formulas.build"], "s"),
            "formulas.eval_calls": (c["formulas.eval"], "count"),
            "formulas.eval_s": (t["formulas.eval"], "s"),
            "numerics.sample_s": (t["numerics.sample"], "s"),
            "numerics.covariance_s": (t["numerics.covariance"], "s"),
            "numerics.estimate_self_s": (s["numerics.estimate"], "s"),
            "numerics.trials": (self.counts["numerics.trials"], "count"),
            "numerics.degenerate_trials": (
                self.counts["numerics.degenerate_trials"],
                "count",
            ),
            "cli.self_s": (s["cli.main"], "s"),
            "graph.subgraph_builds": (c["graph.subgraph"], "count"),
            "graph.descendants_calls": (c["graph.descendants"], "count"),
            "graph.htr_calls": (c["graph.htr"], "count"),
        }

    def raw(self) -> dict:
        """Calls, total and self seconds per wrapped layer."""
        return {
            layer: {
                "calls": self.calls[layer],
                "total_s": self.total_s[layer],
                "self_s": self.self_s[layer],
            }
            for layer in sorted(self.calls)
        }
