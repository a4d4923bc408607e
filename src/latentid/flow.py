"""Vertex-disjoint paths in the determinantal flow network.

Every node of a flow network passes at most one unit, so a maximum flow is
a largest set of vertex-disjoint paths from the sources to the sinks. The
determinantal network of a graph holds an original copy n and a primed
copy n' of every node, observed or latent, an arc n -> n' for every node,
and for every edge a -> b an arc b -> a and an arc a' -> b'; the flow from
S to the primed copies of T is the generic rank of the covariance minor
Sigma[S, T] (trek separation). The network of the extended half-trek
criterion is the same network with some arcs closed.

`FlowFrame` compiles that network once into integer-numbered split nodes
with fixed adjacency. Every network derived from it (a subgraph's, a
barred one, an eLF-HTC one) differs only in which of its arcs are closed,
so a network is a byte array of arc states and a flow call copies it.
The identification search derives every network it solves from one
frame: that of its root graph, or of a graph whose observed edges include
the root's (the complete graph of an enumeration pattern), bound to the
root graph (`FlowFrame.bind`) so that each distinct network and flow is
built once for every search that shares the bound frame. The certificate
check compiles a frame from the graph it is given.
"""

from __future__ import annotations

from copy import copy
from itertools import chain
from typing import Iterable, Optional

from .graph import CompiledGraph, GraphError, LatentFactorGraph, bits


class _ElfResidual(bytes):
    """Residual arc states with every original-copy arc of an observed
    edge closed, as `FlowFrame.base` leaves them and every eLF-HTC network
    has them. A closed arc carries no flow, so its residual halves stay
    closed: `FlowFrame.solve` searches these states in an adjacency
    without those arcs."""


class FlowFrame:
    """The determinantal network of a graph `view`, compiled once, and the
    networks derived from it, kept as residual arc states, with node sets
    given as bitmasks over the observed numbering of `CompiledGraph`.

    The flow nodes are numbered in the sorted order of their tagged keys
    (("o", name) for an original copy, ("p", name) for a primed one) over
    the sorted names of the observed and latent nodes: flow node j < m is
    the original copy of the j-th name and m + j its primed copy. Flow
    node j becomes an entry, split node 2j, and an exit, split node 2j + 1,
    joined by its split arc, arc j; an arc u -> w runs from u's exit to
    w's entry. Arc k has two residual halves, 2k along it and 2k + 1
    against it. Each split node's adjacency is sorted by neighbour, and no
    two arcs join the same pair of split nodes; this fixes the order in
    which a search visits the open arcs, and so the paths found and the
    carrying sources.

    The frame holds every graph over the same nodes and latent edges whose
    observed edges are among `view`'s: that graph's determinantal network
    is the frame's with the arcs of the other observed pairs closed
    (`det_network`), an edge deletion closes two more arcs
    (`without_edge`), and the barred network of a determinantal step
    closes the primed arcs into its target (`barred`). Flow nodes keep
    their numbers, so a search visits the open arcs in the same order as
    in a frame compiled from the graph itself.

    The network of the extended half-trek criterion for sources A and sink
    set Z is a determinantal network without the original-copy arcs of
    observed edges (`base`), without the original copies of the observed
    nodes outside A, and without the primed arcs of observed edges into Z
    (`network`); the arcs these close are listed once per node, and
    closing a closed arc changes nothing. `solve` takes a network's
    residual with its source and sink sets as masks.

    A frame bound to a graph it holds (`bind`) keeps that graph, compiled
    (`root`), and its determinantal residual (`root_net`), and remembers
    every eLF-HTC network it derives and every flow it solves, keyed by
    the residual's kind, its bytes and the terminal masks, for as long as
    it lives. Every search of the bound graph on it shares them. An
    unbound frame (`graph` None) keeps nothing.
    """

    graph: Optional[LatentFactorGraph] = None
    root: Optional[CompiledGraph] = None
    root_net: Optional[bytes] = None
    _nets: Optional[dict[tuple, bytes]] = None
    _flows: Optional[dict[tuple, tuple]] = None

    def __init__(self, view: CompiledGraph):
        self.view = view
        self._all = view.all
        names = sorted(view.names + view.latent)
        m = len(names)
        rank = {n: r for r, n in enumerate(names)}
        obs = [rank[n] for n in view.names]
        lat = [rank[h] for h in view.latent]
        # The split nodes `solve` starts from and stops at: each observed
        # node's original copy's entry and primed copy's exit.
        self._entry = tuple(2 * o for o in obs)
        self._exit = tuple(2 * (m + o) + 1 for o in obs)

        ends = [(2 * j, 2 * j + 1) for j in range(2 * m)]

        def arc(u: int, w: int) -> int:
            ends.append((2 * u + 1, 2 * w))
            return len(ends) - 1

        copy = [arc(r, m + r) for r in range(m)]
        # The arcs out of each observed node's original copy but those of
        # its observed edges (`base` closes those), with its split arc.
        self._outside = [[o, copy[o]] for o in obs]
        # Every arc into the original copy of an observed node: the
        # original-copy arcs of the observed edges.
        self._into: list[int] = []
        # The primed arcs of the observed edges into each observed node.
        self._z: list[list[int]] = [[] for _ in obs]
        # The original-copy and primed arcs of each observed edge a -> b.
        self._edge: dict[tuple[int, int], tuple[int, int]] = {}
        for b, pa in enumerate(view.pa):
            for a in bits(pa):
                k = arc(obs[b], obs[a])
                p = arc(m + obs[a], m + obs[b])
                self._into.append(k)
                self._z[b].append(p)
                self._edge[a, b] = (k, p)
            for j in bits(view.pa_lat[b]):
                self._outside[b].append(arc(obs[b], lat[j]))
                arc(m + lat[j], m + obs[b])

        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(4 * m)]
        for k, (a, b) in enumerate(ends):
            adjacency[a].append((b, 2 * k))
            adjacency[b].append((a, 2 * k + 1))
        self._adjacency = tuple(tuple(sorted(x)) for x in adjacency)
        self._tail = tuple(chain.from_iterable(ends))
        # With no flow, every arc is open along itself only; `det_network`
        # opens the arcs of a graph's observed edges on this template with
        # all of them closed.
        self._bare = _closed(
            b"\x01\x00" * len(ends), chain.from_iterable(self._edge.values())
        )
        dead = {half for k in self._into for half in (2 * k, 2 * k + 1)}
        self._elf_adjacency = tuple(
            tuple(pair for pair in pairs if pair[1] not in dead)
            for pairs in self._adjacency
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

    def bind(
        self, g: LatentFactorGraph, view: Optional[CompiledGraph] = None
    ) -> "FlowFrame":
        """This frame bound to the graph `g`, compiled as `view` when the
        caller has it compiled: it shares this frame's compiled network and
        starts with no network or flow kept. A GraphError when the frame
        does not hold `g`."""
        if view is None:
            view = CompiledGraph(g)
        if not self.fits(view):
            raise GraphError("the flow frame does not hold the graph")
        bound = copy(self)
        bound.graph, bound.root = g, view
        bound.root_net = self.det_network(view)
        bound._nets, bound._flows = {}, {}
        return bound

    def det_network(self, g: CompiledGraph) -> bytes:
        """The residual of the determinantal network of `g`, a graph the
        frame holds."""
        residual = bytearray(self._bare)
        edge = self._edge
        for b, pa in enumerate(g.pa):
            for a in bits(pa):
                k, p = edge[a, b]
                residual[2 * k] = residual[2 * p] = 1
        return bytes(residual)

    def without_edge(self, residual: bytes, a: int, b: int) -> bytes:
        """`residual`, a determinantal network of the frame, with the
        observed edge a -> b deleted."""
        return _closed(residual, self._edge[a, b])

    def barred(self, residual: bytes, v: int, removed: int) -> bytes:
        """`residual`, a determinantal network of the frame, without the
        primed arcs w' -> v' from the nodes w of the mask `removed`, all
        parents of node `v`."""
        edge = self._edge
        return _closed(residual, (edge[w, v][1] for w in bits(removed)))

    def base(self, residual: bytes) -> _ElfResidual:
        """`residual`, a determinantal network of the frame, with every
        original-copy arc of an observed edge closed."""
        return _ElfResidual(_closed(residual, self._into))

    def network(self, base: bytes, sources: int, z: int) -> bytes:
        """The residual arc states of the eLF-HTC network over the residual
        `base` (of `base`) for the source set `sources` and sink set Z `z`;
        `solve` takes its sinks. A bound frame builds each once."""
        nets = self._nets
        if nets is not None:
            key = (type(base), base, sources, z)
            net = nets.get(key)
            if net is not None:
                return net
        residual = bytearray(base)
        for i in bits(self._all & ~sources):
            for k in self._outside[i]:
                residual[2 * k] = 0
        for i in bits(z):
            for k in self._z[i]:
                residual[2 * k] = 0
        net = type(base)(residual)
        if nets is not None:
            nets[key] = net
        return net

    def solve(
        self, residual: bytes, sources: int, sinks: int
    ) -> tuple[int, frozenset[str], Optional[tuple[int, int]]]:
        """Max-flow value f from the original copies of `sources` to the
        primed copies of `sinks` in the network `residual` (of `network`
        or a determinantal one), plus what the search needs of it.

        When f reaches the number of sinks, the names of the sources that
        carry a unit. Otherwise, when some source is unused, a minimum cut
        R: the split nodes the residual reaches from the unused sources,
        as two masks over the observed numbering: E, the nodes whose
        original copy's entry R holds, and X, those whose primed copy's
        exit it holds. None when every source is used, where the cut says
        no more than the source count does.

        Any set of split nodes is a cut between any sources and sinks, of
        capacity: the sources whose entry lies outside it, plus the arcs
        leaving it, plus the sinks whose exit lies in it. R's capacity
        with these terminals is f. Its capacity with other terminals
        bounds the flow between them, in this network and in every network
        derived from it by closing arcs, which can only close arcs leaving
        R.

        A bound frame runs each flow once and returns the same result to
        every later call with the same residual kind, bytes and masks.
        """
        flows = self._flows
        if flows is None:
            return self._solve(residual, sources, sinks)
        key = (type(residual), residual, sources, sinks)
        out = flows.get(key)
        if out is None:
            out = flows[key] = self._solve(residual, sources, sinks)
        return out

    def _solve(
        self, residual: bytes, sources: int, sinks: int
    ) -> tuple[int, frozenset[str], Optional[tuple[int, int]]]:
        """The flow `solve` returns, run on every call."""
        entry, exit_ = self._entry, self._exit
        count = sinks.bit_count()
        total, flowed, via = _augment(
            self._elf_adjacency
            if type(residual) is _ElfResidual
            else self._adjacency,
            self._tail,
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
    bound the flow. `adjacency` and `tail` are a `FlowFrame`'s, the
    adjacency perhaps without residual halves closed in `start` that no
    flow can open.

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
