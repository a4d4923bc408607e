"""Vertex-disjoint paths and the two flow-network builders.

Every node of a flow network passes at most one unit, so a maximum flow is
a largest set of vertex-disjoint paths from the sources to the sinks.
Flow-node ids are tagged tuples so that the "primed" copy of a graph node
can never collide with an original node name.

A network is compiled once into integer-numbered split nodes with fixed
adjacency. The networks derived from it (`with_terminals`, `without_arcs`,
`without_edges`, `ElfNetworks`, and `build_elf_flow` given a determinantal
network) share that compiled form and differ only in which of its arcs are
closed, so a flow call copies a byte array of arc states instead of
building a network. The identification search compiles the determinantal
network of its root graph once and derives every network it solves from
it; `ElfNetworks` takes the eLF-HTC node sets as bitmasks over the graph's
`CompiledGraph` numbering.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from .graph import (
    CompiledGraph,
    Edge,
    GraphError,
    LatentFactorGraph,
    bits,
    parents_obs,
)

FlowNode = tuple[str, str]
Arc = tuple[FlowNode, FlowNode]


def orig(n: str) -> FlowNode:
    return ("o", n)


def primed(n: str) -> FlowNode:
    return ("p", n)


class _Compiled:
    """Split nodes and unit arcs of a network, numbered once.

    `nodes` come in sorted order, and an arc is a pair of their positions.
    Flow node j becomes an entry, split node 2j, and an exit, split node
    2j + 1, joined by its split arc, arc j; arc u -> w runs from u's exit
    to w's entry. That numbering is the sorted order of the split nodes'
    keys (tag, name, "i"/"x"), and each adjacency tuple is sorted by
    neighbour number: this fixes the order in which neighbours are
    visited, and so the paths found and the carrying sources.

    Arc k has two residual halves: 2k along the arc and 2k + 1 against it.
    """

    def __init__(
        self, nodes: Sequence[FlowNode], arcs: Sequence[tuple[int, int]]
    ):
        self.nodes = nodes
        self.index = {n: j for j, n in enumerate(nodes)}
        self.arc_ids = dict(
            zip(arcs, range(len(nodes), len(nodes) + len(arcs)))
        )
        ends = [(2 * j, 2 * j + 1) for j in range(len(nodes))]
        ends += [(2 * u + 1, 2 * w) for u, w in arcs]
        # With no flow, every arc is open along itself only.
        self.template = b"\x01\x00" * len(ends)

        adjacency: list[list[tuple[int, int]]] = [[] for _ in nodes * 2]
        for k, (a, b) in enumerate(ends):
            adjacency[a].append((b, 2 * k))
            adjacency[b].append((a, 2 * k + 1))
        self.adjacency = tuple(tuple(sorted(x)) for x in adjacency)
        self.tail = tuple(chain.from_iterable(ends))

    # The arcs by flow node, built on first use.
    @cached_property
    def arc(self) -> dict[Arc, int]:
        nodes = self.nodes
        return {(nodes[u], nodes[w]): k for (u, w), k in self.arc_ids.items()}

    @cached_property
    def into(self) -> dict[FlowNode, list[int]]:
        out: dict[FlowNode, list[int]] = {n: [] for n in self.nodes}
        for (u, w), k in self.arc_ids.items():
            out[self.nodes[w]].append(k)
        return out

    @cached_property
    def out(self) -> dict[FlowNode, list[int]]:
        out: dict[FlowNode, list[int]] = {n: [] for n in self.nodes}
        for (u, w), k in self.arc_ids.items():
            out[self.nodes[u]].append(k)
        return out


def _network(
    compiled: _Compiled,
    residual: bytes,
    sources: tuple[FlowNode, ...],
    sinks: tuple[FlowNode, ...],
) -> "FlowNetwork":
    net = object.__new__(FlowNetwork)
    net._compiled, net._residual = compiled, residual
    net.sources, net.sinks = sources, sinks
    return net


class FlowNetwork:
    """A directed network in which every node passes at most one unit.

    `node_capacity` and `arcs` map each node and arc to 1; only their keys
    matter. A node absent from `node_capacity` passes nothing. A network is
    immutable; the ones derived from it share its compiled form."""

    def __init__(
        self,
        node_capacity: Mapping[FlowNode, int],
        arcs: Mapping[Arc, int],
        sources: Iterable[FlowNode] = (),
        sinks: Iterable[FlowNode] = (),
    ) -> None:
        sources, sinks = tuple(sources), tuple(sinks)
        arcs = list(arcs)
        nodes = sorted(set(node_capacity).union(sources, sinks, *arcs))
        index = {n: j for j, n in enumerate(nodes)}
        compiled = _Compiled(nodes, [(index[u], index[w]) for u, w in arcs])
        residual = bytearray(compiled.template)
        for n, j in index.items():
            if n not in node_capacity:
                residual[2 * j] = 0
        self._compiled, self._residual = compiled, bytes(residual)
        self.sources, self.sinks = sources, sinks

    def _derive(
        self,
        closing: Sequence[int],
        sources: tuple[FlowNode, ...],
        sinks: tuple[FlowNode, ...],
    ) -> "FlowNetwork":
        """A network sharing this one's compiled form, with the arcs
        `closing` closed as well and the given terminals."""
        residual = self._residual
        if closing:
            residual = bytearray(residual)
            for k in closing:
                residual[2 * k] = 0
            residual = bytes(residual)
        return _network(self._compiled, residual, sources, sinks)

    # An arc is in the network when its residual half along itself is open
    # (no flow is ever stored on a network).
    @cached_property
    def node_capacity(self) -> dict[FlowNode, int]:
        residual, index = self._residual, self._compiled.index
        return {n: 1 for n, j in index.items() if residual[2 * j]}

    @cached_property
    def arcs(self) -> dict[Arc, int]:
        residual = self._residual
        return {a: 1 for a, k in self._compiled.arc.items() if residual[2 * k]}

    def with_terminals(
        self, sources: Iterable[FlowNode], sinks: Iterable[FlowNode]
    ) -> "FlowNetwork":
        return self._derive(
            (), tuple(sorted(set(sources))), tuple(sorted(set(sinks)))
        )

    def without_arcs(self, removed: Iterable[Arc]) -> "FlowNetwork":
        arc = self._compiled.arc
        return self._derive(
            [arc[a] for a in removed if a in arc], self.sources, self.sinks
        )


def _edge_arcs(a: str, b: str) -> tuple[Arc, Arc]:
    """The two determinantal-network arcs of the graph edge a -> b."""
    return (orig(b), orig(a)), (primed(a), primed(b))


def build_det_flow(g: LatentFactorGraph) -> FlowNetwork:
    """Flow network for the determinantal identification criterion.

    Contains every graph node and a primed copy; an arc i -> j for every
    graph edge j -> i, an arc i -> i' for every node, and an arc i' -> j'
    for every graph edge i -> j.
    """
    # Compiled from integer ids: the sorted flow nodes are the original
    # copies of the sorted node names, then their primed copies.
    names = sorted(g.observed + g.latent)
    rank = {n: r for r, n in enumerate(names)}
    m = len(names)
    arcs = [(r, m + r) for r in range(m)]
    for a, b in chain(g.edges_obs, g.edges_lat):
        arcs += ((rank[b], rank[a]), (m + rank[a], m + rank[b]))
    nodes = [orig(n) for n in names] + [primed(n) for n in names]
    compiled = _Compiled(nodes, arcs)
    return _network(compiled, compiled.template, (), ())


def without_edges(det: FlowNetwork, edges: Iterable[Edge]) -> FlowNetwork:
    """The determinantal network of a graph with `edges` deleted, derived
    from `det`, the determinantal network of the graph."""
    return det.without_arcs(arc for a, b in edges for arc in _edge_arcs(a, b))


def build_elf_flow(
    g: LatentFactorGraph,
    v: str,
    allowed: Iterable[str],
    z: Iterable[str],
    w_z: Iterable[str],
    w_v: Iterable[str],
    det: Optional[FlowNetwork] = None,
) -> FlowNetwork:
    """Flow network whose max-flow checks the extended half-trek criterion.

    Sources are the candidate half-trek start nodes `allowed`; sinks are
    the primed copies of `w_v` union `z` union `w_z`. The network is the
    determinantal network of `g` (`det`, built when not given) without the
    original-copy arcs of observed edges, without the original copies of
    observed nodes outside `allowed`, and without the primed arcs of
    observed edges into `z`.
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
    if det is None:
        det = build_det_flow(g)

    compiled = det._compiled
    closing = []
    for n in g.observed:
        # Every arc into the original copy of an observed node is the
        # original-copy arc of an observed edge.
        closing += compiled.into[orig(n)]
        if n not in allowed:
            closing.append(compiled.index[orig(n)])
            closing += compiled.out[orig(n)]
        if n in z:
            closing += (
                compiled.arc[(primed(u), primed(n))]
                for u in parents_obs(g, n)
            )
    return det._derive(
        closing,
        tuple(sorted(orig(n) for n in allowed)),
        tuple(sorted(primed(n) for n in w_v | z | w_z)),
    )


class ElfNetworks:
    """The networks `build_elf_flow` builds, for a graph and its
    edge-deleted subgraphs, with node sets given as bitmasks over the
    graph's `CompiledGraph` numbering.

    `det` is the graph's determinantal network. The arcs each network
    closes are listed once per node: a subgraph's `base` closes every
    original-copy arc of an observed edge, and `network` then closes the
    original copies outside the source set and the primed arcs into Z.
    """

    def __init__(self, det: FlowNetwork, view: CompiledGraph):
        c = det._compiled
        names = view.names
        self._compiled = c
        self._all = view.all
        self._orig = tuple(orig(n) for n in names)
        self._primed = tuple(primed(n) for n in names)
        # Flow node number -> observed node number, for original copies.
        obs = {c.index[node]: i for i, node in enumerate(self._orig)}
        self._into: list[int] = []
        self._outside = [[c.index[node]] for node in self._orig]
        for (u, w), k in c.arc_ids.items():
            # Every arc into the original copy of an observed node is the
            # original-copy arc of an observed edge.
            if w in obs:
                self._into.append(k)
            if u in obs:
                self._outside[obs[u]].append(k)
        self._z = [
            [c.arc[(primed(names[u]), primed(n))] for u in bits(view.pa[i])]
            for i, n in enumerate(names)
        ]

    def base(self, det: FlowNetwork) -> bytes:
        """The residual of `det`, a network derived from the one this was
        built from, with every original-copy arc of an observed edge
        closed."""
        residual = bytearray(det._residual)
        for k in self._into:
            residual[2 * k] = 0
        return bytes(residual)

    def network(self, base: bytes, sources: int, z: int) -> FlowNetwork:
        """The network over the residual `base` with source set `sources`
        and sink set Z `z`, and no sinks yet."""
        residual = bytearray(base)
        for i in bits(self._all & ~sources):
            for k in self._outside[i]:
                residual[2 * k] = 0
        for i in bits(z):
            for k in self._z[i]:
                residual[2 * k] = 0
        orig_nodes = self._orig
        return _network(
            self._compiled,
            bytes(residual),
            tuple(orig_nodes[i] for i in bits(sources)),
            (),
        )

    def with_sinks(self, net: FlowNetwork, sinks: int) -> FlowNetwork:
        """`net` with the primed copies of `sinks` as its sinks."""
        primed_nodes = self._primed
        return _network(
            net._compiled,
            net._residual,
            net.sources,
            tuple(primed_nodes[i] for i in bits(sinks)),
        )


def _solve(net: FlowNetwork) -> tuple[int, bytearray, Optional[list[int]]]:
    """Shortest augmenting paths over unit-capacity split nodes.

    Returns the number of vertex-disjoint paths, the residual arc states
    they leave, and the reach of the last, failed search (None when every
    source or sink is used).
    """
    # Every arc carries one unit, so a residual half is open (1) or not
    # (0), and pushing a unit moves each crossed arc's 1 to its other half.
    # The super-source and super-sink are implicit: each search starts from
    # the entries of the sources not yet used, in sorted order, which is
    # the order a super-source visits its neighbours in, and stops at the
    # first exit it reaches of a sink not yet used, which is the first such
    # exit it would take from the queue and so the one a super-sink is
    # reached from. A unit through a terminal is never pushed back, because
    # the search never leaves the super-sink and never re-enters the
    # super-source. A terminal outside the compiled network touches no arc.
    index = net._compiled.index
    residual = bytearray(net._residual)
    entries = sorted({2 * index[s] for s in net.sources if s in index})
    open_exits = bytearray(2 * len(index))
    for t in net.sinks:
        if t in index:
            open_exits[2 * index[t] + 1] = 1
    adjacency, tail = net._compiled.adjacency, net._compiled.tail

    total = 0
    while entries and total < len(net.sinks):
        via, b = _augmenting_path(adjacency, residual, entries, open_exits)
        if b < 0:
            return total, residual, via
        open_exits[b] = 0
        while via[b] >= 0:
            half = via[b]
            residual[half] = 0
            residual[half ^ 1] = 1
            b = tail[half]
        entries.remove(b)
        total += 1
    return total, residual, None


def _augmenting_path(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    residual: bytearray,
    entries: list[int],
    open_exits: bytearray,
) -> tuple[list[int], int]:
    """Breadth-first search from the source entries `entries`. Returns, for
    each reached node, the residual half it was reached by (-2 for a source
    entry, -1 when not reached), and the sink exit reached, -1 when none
    is."""
    via = [-1] * len(adjacency)
    for s in entries:
        via[s] = -2
    queue = list(entries)
    append = queue.append
    for a in queue:
        for b, half in adjacency[a]:
            if residual[half] and via[b] == -1:
                via[b] = half
                if open_exits[b]:
                    return via, b
                append(b)
    return via, -1


def max_flow(net: FlowNetwork) -> int:
    """Number of vertex-disjoint paths from the sources to the sinks."""
    return _solve(net)[0]


def max_flow_sources(net: FlowNetwork) -> tuple[int, frozenset[str]]:
    """Max-flow value plus the original-node names of the sources that
    carry a unit of flow."""
    total, residual, _ = _solve(net)
    index = net._compiled.index
    # A source carries a unit when its split arc is open against itself.
    carrying = frozenset(
        s[1] for s in net.sources if s in index and residual[2 * index[s] + 1]
    )
    return total, carrying


def max_flow_cut(net: FlowNetwork) -> tuple[int, int, int]:
    """Max-flow value f plus, when f is below the number of sinks, a
    minimum cut R: the split nodes the residual reaches from the unused
    sources. R is given by the flow nodes whose entry, and those whose
    exit, it holds, as two masks of their numbers (`flow_numbers`); both
    are 0 when f reaches the number of sinks.

    Any set of split nodes is a cut between any sources and sinks, of
    capacity: the sources whose entry lies outside it, plus the arcs
    leaving it, plus the sinks whose exit lies in it. R's capacity with
    this network's terminals is f. Its capacity with other terminals
    bounds the flow between them, in this network and in every network
    derived from it by closing arcs, which can only close arcs leaving R.
    """
    total, _, via = _solve(net)
    entered = exited = 0
    if via is not None:
        for j in range(len(via) >> 1):
            if via[2 * j] != -1:
                entered |= 1 << j
            if via[2 * j + 1] != -1:
                exited |= 1 << j
    return total, entered, exited


def flow_numbers(net: FlowNetwork, nodes: Iterable[FlowNode]) -> tuple[int, ...]:
    """The numbers `max_flow_cut` gives `nodes` in masks over `net` and
    the networks derived from it."""
    index = net._compiled.index
    return tuple(index[n] for n in nodes)
