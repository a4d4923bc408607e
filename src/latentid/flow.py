"""Vertex-disjoint paths and the two flow-network builders.

Every node of a flow network passes at most one unit, so a maximum flow is
a largest set of vertex-disjoint paths from the sources to the sinks.
Flow-node ids are tagged tuples so that the "primed" copy of a graph node
can never collide with an original node name.

A network is compiled once into integer-numbered split nodes with fixed
adjacency. The networks derived from it (`with_terminals`, `without_arcs`,
`without_edges`, `FlowFrame`, and `build_elf_flow` given a determinantal
network) share that compiled form and differ only in which of its arcs are
closed, so a flow call copies a byte array of arc states instead of
building a network. The identification search derives every network it
solves, determinantal and eLF-HTC, from one `FlowFrame`: the
determinantal network of its root graph, or of a graph whose observed
edges include the root's (the complete graph of an enumeration pattern),
compiled once, with node sets as bitmasks over the graph's
`CompiledGraph` numbering. The name-keyed networks and `max_flow*`
functions serve the independent certificate check and the tests.
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
            residual = _closed(residual, closing)
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


class _ElfResidual(bytes):
    """Residual arc states with every original-copy arc of an observed
    edge closed, as `FlowFrame.base` leaves them and every eLF-HTC network
    has them. A closed arc carries no flow, so its residual halves stay
    closed: `FlowFrame.solve` searches these states in an adjacency
    without those arcs."""


class FlowFrame:
    """The networks the identification search solves, kept as residual arc
    states over one compiled determinantal network, with node sets given
    as bitmasks over the observed numbering of `CompiledGraph`.

    The frame is `det`, the determinantal network of a graph `view`. It
    holds every graph over the same nodes and latent edges whose observed
    edges are among `view`'s: that graph's determinantal network is `det`
    with the arcs of the other observed pairs closed (`det_network`), an
    edge deletion closes two more arcs (`without_edge`), and the barred
    network of a determinantal step closes the primed arcs into its target
    (`barred`). Flow nodes keep their numbers, each adjacency list is
    sorted by neighbour and no two arcs join the same pair of nodes, so a
    search visits the open arcs in the same order as in a network compiled
    from the graph itself.

    The arcs each eLF-HTC network closes are listed once per node: `base`
    closes every arc into the original copy of an observed node, and
    `network` then closes the original copies outside the source set and
    the primed arcs from every observed node into Z (closing a closed arc
    changes nothing), as `build_elf_flow` builds it. `solve` takes a
    network's residual with its source and sink sets as masks.
    """

    def __init__(self, det: FlowNetwork, view: CompiledGraph):
        c = det._compiled
        names = view.names
        self.det, self.view = det, view
        self._compiled = c
        self._all = view.all
        # The flow-node numbers of each observed node's original and
        # primed copy, as `max_flow_cut` masks read them, and the split
        # nodes `solve` starts from and stops at: the original copy's
        # entry and the primed copy's exit. Both rise with the observed
        # number, as the flow nodes are numbered in sorted order.
        self.numbers = tuple(
            zip(
                flow_numbers(det, (orig(n) for n in names)),
                flow_numbers(det, (primed(n) for n in names)),
            )
        )
        self._entry = tuple(2 * o for o, _ in self.numbers)
        self._exit = tuple(2 * p + 1 for _, p in self.numbers)
        obs = {o: i for i, (o, _) in enumerate(self.numbers)}
        obs_primed = {p: i for i, (_, p) in enumerate(self.numbers)}
        self._into: list[int] = []
        self._outside = [[o] for o, _ in self.numbers]
        self._z: list[list[int]] = [[] for _ in names]
        orig_arc, primed_arc = {}, {}
        for (u, w), k in c.arc_ids.items():
            if w in obs:
                # An arc into the original copy of an observed node is the
                # original-copy arc of an observed edge; `base` closes it.
                self._into.append(k)
                orig_arc[obs[w], obs[u]] = k
            elif u in obs:
                self._outside[obs[u]].append(k)
            elif u in obs_primed and w in obs_primed:
                self._z[obs_primed[w]].append(k)
                primed_arc[obs_primed[u], obs_primed[w]] = k
        # The primed arc and the two arcs of each observed edge a -> b of
        # `view`.
        self._primed = primed_arc
        self._edge = {e: (orig_arc[e], k) for e, k in primed_arc.items()}
        dead = {half for k in self._into for half in (2 * k, 2 * k + 1)}
        self._elf_adjacency = tuple(
            tuple(pair for pair in pairs if pair[1] not in dead)
            for pairs in c.adjacency
        )

    def fits(self, g: CompiledGraph) -> bool:
        """Whether the frame holds `g`."""
        view = self.view
        return (
            g.names == view.names
            and g.latent == view.latent
            and g.pa_lat == view.pa_lat
            and all(not pa & ~own for pa, own in zip(g.pa, view.pa))
        )

    def det_network(self, g: CompiledGraph) -> bytes:
        """The residual of the determinantal network of `g`, a graph the
        frame holds."""
        pa = g.pa
        return _closed(
            self.det._residual,
            (
                k
                for (a, b), arcs in self._edge.items()
                if not pa[b] >> a & 1
                for k in arcs
            ),
        )

    def without_edge(self, residual: bytes, a: int, b: int) -> bytes:
        """`residual`, a determinantal network of the frame, with the
        observed edge a -> b deleted."""
        return _closed(residual, self._edge[a, b])

    def barred(self, residual: bytes, v: int, removed: int) -> bytes:
        """`residual`, a determinantal network of the frame, without the
        primed arcs w' -> v' from the nodes w of the mask `removed`, all
        parents of node `v`."""
        primed_arc = self._primed
        return _closed(residual, (primed_arc[w, v] for w in bits(removed)))

    def base(self, residual: bytes) -> _ElfResidual:
        """`residual`, a determinantal network of the frame, with every
        original-copy arc of an observed edge closed."""
        return _ElfResidual(_closed(residual, self._into))

    def network(self, base: bytes, sources: int, z: int) -> bytes:
        """The residual arc states of `build_elf_flow`'s network over the
        residual `base` for the source set `sources` and sink set Z `z`;
        `solve` takes its sinks."""
        residual = bytearray(base)
        for i in bits(self._all & ~sources):
            for k in self._outside[i]:
                residual[2 * k] = 0
        for i in bits(z):
            for k in self._z[i]:
                residual[2 * k] = 0
        return type(base)(residual)

    def solve(
        self, residual: bytes, sources: int, sinks: int
    ) -> tuple[int, frozenset[str], Optional[tuple[int, int]]]:
        """Max-flow value f from the original copies of `sources` to the
        primed copies of `sinks` in the network `residual` (of `network`
        or a determinantal one), plus what the search needs of it.

        When f reaches the number of sinks, the names of the sources that
        carry a unit (as `max_flow_sources` gives them). Otherwise, when
        some source is unused, the minimum cut R of `max_flow_cut`, as two
        masks over the observed numbering: E, the nodes whose original
        copy's entry R holds, and X, those whose primed copy's exit it
        holds; None when every source is used, where the cut says no more
        than the source count does.
        """
        entry, exit_ = self._entry, self._exit
        count = sinks.bit_count()
        total, flowed, via = _augment(
            self._elf_adjacency
            if type(residual) is _ElfResidual
            else self._compiled.adjacency,
            self._compiled.tail,
            residual,
            [entry[i] for i in bits(sources)],
            [exit_[i] for i in bits(sinks)],
            count,
        )
        if total == count:
            # A source carries a unit when its split arc is open against
            # itself: residual half 2j + 1 for flow node j, whose entry is
            # split node 2j.
            names = self.view.names
            carrying = frozenset(
                names[i] for i in bits(sources) if flowed[entry[i] + 1]
            )
            return total, carrying, None
        if via is None:
            return total, frozenset(), None
        e = x = 0
        for j, b in enumerate(entry):
            if via[b] != -1:
                e |= 1 << j
        for j, b in enumerate(exit_):
            if via[b] != -1:
                x |= 1 << j
        return total, frozenset(), (e, x)


def _closed(residual: bytes, arcs: Iterable[int]) -> bytes:
    """`residual` with the arcs `arcs` closed along themselves."""
    out = bytearray(residual)
    for k in arcs:
        out[2 * k] = 0
    return bytes(out)


def _solve(net: FlowNetwork) -> tuple[int, bytearray, Optional[list[int]]]:
    """`_augment` on the terminals of `net`; a terminal outside the
    compiled network touches no arc."""
    compiled = net._compiled
    index = compiled.index
    return _augment(
        compiled.adjacency,
        compiled.tail,
        net._residual,
        sorted({2 * index[s] for s in net.sources if s in index}),
        [2 * index[t] + 1 for t in net.sinks if t in index],
        len(net.sinks),
    )


def _augment(
    adjacency: tuple[tuple[tuple[int, int], ...], ...],
    tail: tuple[int, ...],
    start: bytes,
    entries: list[int],
    exits: Iterable[int],
    sink_count: int,
) -> tuple[int, bytearray, Optional[list[int]]]:
    """Shortest augmenting paths over unit-capacity split nodes, from the
    source entries `entries` (ascending split-node numbers, each once) to
    the sink exits `exits`, on the arc states `start`; `sink_count` sinks
    bound the flow. `adjacency` and `tail` are a `_Compiled` network's,
    the adjacency perhaps without residual halves closed in `start` that
    no flow can open.

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
    # super-source.
    residual = bytearray(start)
    open_exits = bytearray(len(adjacency))
    for b in exits:
        open_exits[b] = 1

    total = 0
    while entries and total < sink_count:
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
    return total, _carrying(net, residual)


def _carrying(net: FlowNetwork, residual: bytearray) -> frozenset[str]:
    """The original-node names of the sources of `net` that carry a unit
    of the flow that left `residual`."""
    index = net._compiled.index
    # A source carries a unit when its split arc is open against itself.
    return frozenset(
        s[1] for s in net.sources if s in index and residual[2 * index[s] + 1]
    )


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
