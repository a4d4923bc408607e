"""Vertex-disjoint paths and the two flow-network builders.

Every node of a flow network passes at most one unit, so a maximum flow is
a largest set of vertex-disjoint paths from the sources to the sinks.
Flow-node ids are tagged tuples so that the "primed" copy of a graph node
can never collide with an original node name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .graph import GraphError, LatentFactorGraph

FlowNode = tuple[str, str]


def orig(n: str) -> FlowNode:
    return ("o", n)


def primed(n: str) -> FlowNode:
    return ("p", n)


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network in which every node passes at most one unit.

    `node_capacity` and `arcs` map each node and arc to 1; only their keys
    matter. A node absent from `node_capacity` passes nothing."""

    node_capacity: dict[FlowNode, int]
    arcs: dict[tuple[FlowNode, FlowNode], int]
    sources: tuple[FlowNode, ...] = ()
    sinks: tuple[FlowNode, ...] = ()

    def with_terminals(
        self, sources: Iterable[FlowNode], sinks: Iterable[FlowNode]
    ) -> "FlowNetwork":
        return FlowNetwork(
            self.node_capacity,
            self.arcs,
            tuple(sorted(set(sources))),
            tuple(sorted(set(sinks))),
        )

    def without_arcs(
        self, removed: Iterable[tuple[FlowNode, FlowNode]]
    ) -> "FlowNetwork":
        removed = set(removed)
        kept = {a: 1 for a in self.arcs if a not in removed}
        return FlowNetwork(self.node_capacity, kept, self.sources, self.sinks)


def build_det_flow(g: LatentFactorGraph) -> FlowNetwork:
    """Flow network for the determinantal identification criterion.

    Contains every graph node and a primed copy; an arc i -> j for every
    graph edge j -> i, an arc i -> i' for every node, and an arc i' -> j'
    for every graph edge i -> j.
    """
    all_nodes = list(g.observed) + list(g.latent)
    node_capacity: dict[FlowNode, int] = {}
    for n in all_nodes:
        node_capacity[orig(n)] = 1
        node_capacity[primed(n)] = 1
    arcs: dict[tuple[FlowNode, FlowNode], int] = {}
    for n in all_nodes:
        arcs[(orig(n), primed(n))] = 1
    for a, b in list(g.edges_obs) + list(g.edges_lat):
        arcs[(orig(b), orig(a))] = 1
        arcs[(primed(a), primed(b))] = 1
    return FlowNetwork(node_capacity, arcs)


def build_elf_flow(
    g: LatentFactorGraph,
    v: str,
    allowed: Iterable[str],
    z: Iterable[str],
    w_z: Iterable[str],
    w_v: Iterable[str],
) -> FlowNetwork:
    """Flow network whose max-flow checks the extended half-trek criterion.

    Sources are the candidate half-trek start nodes `allowed`; sinks are
    the primed copies of `w_v` union `z` union `w_z`.
    """
    allowed = frozenset(allowed)
    z = frozenset(z)
    w_z = frozenset(w_z)
    w_v = frozenset(w_v)
    bad = allowed & (z | {v})
    if bad:
        raise GraphError(
            f"allowed source set overlaps z or v: {sorted(bad)}"
        )

    sink_names = w_v | z | w_z

    node_capacity: dict[FlowNode, int] = {}
    for n in allowed:
        node_capacity[orig(n)] = 1
    for n in g.latent:
        node_capacity[orig(n)] = 1
    for n in list(g.observed) + list(g.latent):
        node_capacity[primed(n)] = 1

    arcs: dict[tuple[FlowNode, FlowNode], int] = {}
    for h, a in g.edges_lat:
        if a in allowed:
            arcs[(orig(a), orig(h))] = 1
    for n in allowed:
        arcs[(orig(n), primed(n))] = 1
    for h in g.latent:
        arcs[(orig(h), primed(h))] = 1
    for u, w in g.edges_lat:
        arcs[(primed(u), primed(w))] = 1
    for u, w in g.edges_obs:
        if w not in z:
            arcs[(primed(u), primed(w))] = 1

    return FlowNetwork(
        node_capacity,
        arcs,
        tuple(sorted(orig(n) for n in allowed)),
        tuple(sorted(primed(n) for n in sink_names)),
    )


_SRC = ("+src", "", "x")
_SNK = ("+snk", "", "x")


def _solve(net: FlowNetwork) -> tuple[int, frozenset[str]]:
    """Shortest augmenting paths over unit-capacity split nodes.

    Returns the number of vertex-disjoint paths and the names of the
    sources that one of them passes through.
    """
    # Node n becomes an entry (tag, name, "i") and an exit (tag, name, "x")
    # joined by one unit; arc u -> w runs from u's exit to w's entry. Every
    # split arc carries one unit, so the residual network is the set of
    # open arc directions and pushing a unit reverses the arcs it crosses.
    # Neighbours are visited in sorted order (super-sink and super-source
    # first), which fixes the paths found and so the carrying sources.
    unit_arcs = [(n + ("i",), n + ("x",)) for n in net.node_capacity]
    unit_arcs += [(u + ("x",), w + ("i",)) for u, w in net.arcs]
    unit_arcs += [(_SRC, s + ("i",)) for s in net.sources]
    unit_arcs += [(t + ("x",), _SNK) for t in net.sinks]
    open_arcs = set(unit_arcs)
    adjacency: dict[tuple, list[tuple]] = {}
    for a, b in unit_arcs:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for nbrs in adjacency.values():
        nbrs.sort()

    total = 0
    while True:
        parent = {_SRC: _SRC}
        queue = deque([_SRC])
        while queue and _SNK not in parent:
            a = queue.popleft()
            for b in adjacency.get(a, ()):
                if b not in parent and (a, b) in open_arcs:
                    parent[b] = a
                    queue.append(b)
        if _SNK not in parent:
            break
        b = _SNK
        while b != _SRC:
            a = parent[b]
            open_arcs.remove((a, b))
            open_arcs.add((b, a))
            b = a
        total += 1

    carrying = frozenset(
        s[1] for s in net.sources if (s + ("x",), s + ("i",)) in open_arcs
    )
    return total, carrying


def max_flow(net: FlowNetwork) -> int:
    """Number of vertex-disjoint paths from the sources to the sinks."""
    return _solve(net)[0]


def max_flow_sources(net: FlowNetwork) -> tuple[int, frozenset[str]]:
    """Max-flow value plus the original-node names of the sources that
    carry a unit of flow."""
    return _solve(net)
