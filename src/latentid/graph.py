"""Latent-factor graphs, their compiled bitmask form, and JSON I/O."""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

Edge = tuple[str, str]


class GraphError(ValueError):
    """Base class for graph construction and lookup errors."""


class SelfLoopError(GraphError):
    """An observed edge points from a node to itself."""


class EdgeIntoLatentError(GraphError):
    """An edge has a latent node as its target."""


class NamespaceError(GraphError):
    """Observed and latent node names overlap, a name is duplicated, or a
    name is empty."""


class UnknownNodeError(GraphError):
    """A name refers to a node or an edge that is not in the graph."""


class LatentFactorGraph:
    """A directed graph over observed nodes and latent source nodes.

    The observed part may contain directed cycles and reciprocal edge
    pairs; latent nodes only ever appear as edge sources. Instances are
    immutable after construction, hashable and safe to share; queries run
    on the compiled form, `CompiledGraph`.
    """

    __slots__ = ("observed", "latent", "edges_obs", "edges_lat", "_key")

    def __init__(
        self,
        observed: Iterable[str],
        latent: Iterable[str] = (),
        edges_obs: Iterable[Edge] = (),
        edges_lat: Iterable[Edge] = (),
    ):
        self.observed: tuple[str, ...] = tuple(observed)
        self.latent: tuple[str, ...] = tuple(latent)

        names = self.observed + self.latent
        if len(set(names)) != len(names):
            raise NamespaceError(
                "observed and latent node names must be distinct"
            )
        if "" in names:
            raise NamespaceError("node names must not be empty")
        obs_set = set(self.observed)
        lat_set = set(self.latent)

        self.edges_obs: frozenset[Edge] = frozenset(
            (str(a), str(b)) for a, b in edges_obs
        )
        self.edges_lat: frozenset[Edge] = frozenset(
            (str(a), str(b)) for a, b in edges_lat
        )

        for a, b in self.edges_obs:
            if a == b:
                raise SelfLoopError(f"self-loop at node {a!r}")
            if b in lat_set or a in lat_set:
                raise EdgeIntoLatentError(
                    f"edge ({a!r}, {b!r}) touches a latent node but was "
                    "given as an observed edge"
                )
            if a not in obs_set or b not in obs_set:
                raise UnknownNodeError(f"edge ({a!r}, {b!r}) uses unknown node")
        for a, b in self.edges_lat:
            if a not in lat_set:
                raise EdgeIntoLatentError(
                    f"source {a!r} of latent edge is not a latent node"
                )
            if b in lat_set:
                raise EdgeIntoLatentError(f"edge into latent node {b!r}")
            if b not in obs_set:
                raise UnknownNodeError(f"latent edge target {b!r} unknown")

        self._key = (
            self.observed,
            self.latent,
            tuple(sorted(self.edges_obs)),
            tuple(sorted(self.edges_lat)),
        )

    # -- basic protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatentFactorGraph) and self._key == other._key
        )

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"LatentFactorGraph(observed={list(self.observed)}, "
            f"latent={list(self.latent)}, "
            f"edges_obs={sorted(self.edges_obs)}, "
            f"edges_lat={sorted(self.edges_lat)})"
        )


# -- compiled form ---------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The set-bit positions of every mask below `_BITS_BOUND`, read by `bits`.
_BITS_BOUND = 1 << 10
_BITS_TABLE = tuple(tuple(_bits(mask)) for mask in range(_BITS_BOUND))


def bits(mask: int) -> Iterable[int]:
    """Positions of the set bits of `mask` (>= 0), in ascending order."""
    if mask < _BITS_BOUND:
        return _BITS_TABLE[mask]
    return _bits(mask)


class CompiledGraph:
    """A graph whose observed nodes are numbered once, in sorted order,
    with its queries held as int bitmasks: bit i stands for `names[i]`,
    and bit j of a latent mask for `latent[j]`, also sorted. `all` is the
    mask of every observed node.

    `pa`/`ch` hold each observed node's observed parents/children,
    `pa_lat` its latent parents and `lat_ch` each latent node's children.
    A subgraph with observed edges deleted (`without_edge`) shares the
    numbering and the latent part and differs only in `pa` and `ch`.
    Descendant masks (per node) and reach masks (per latent node) are
    computed on first use.
    """

    __slots__ = (
        "names",
        "index",
        "all",
        "latent",
        "pa",
        "ch",
        "pa_lat",
        "lat_ch",
        "_desc",
        "_lat_reach",
    )

    def __init__(self, g: LatentFactorGraph):
        self.names = names = tuple(sorted(g.observed))
        self.index = index = {n: i for i, n in enumerate(names)}
        self.all = (1 << len(names)) - 1
        self.latent = tuple(sorted(g.latent))
        lat_index = {h: j for j, h in enumerate(self.latent)}
        pa, ch, pa_lat = [0] * len(names), [0] * len(names), [0] * len(names)
        lat_ch = [0] * len(self.latent)
        for a, b in g.edges_obs:
            pa[index[b]] |= 1 << index[a]
            ch[index[a]] |= 1 << index[b]
        for h, b in g.edges_lat:
            pa_lat[index[b]] |= 1 << lat_index[h]
            lat_ch[lat_index[h]] |= 1 << index[b]
        self.pa, self.ch = tuple(pa), tuple(ch)
        self.pa_lat, self.lat_ch = tuple(pa_lat), tuple(lat_ch)
        self._desc: list[Optional[int]] = [None] * len(names)
        self._lat_reach: list[Optional[int]] = [None] * len(self.latent)

    @property
    def edges_obs(self) -> frozenset[Edge]:
        """The observed edges by name, as in `LatentFactorGraph`."""
        names = self.names
        return frozenset(
            (names[a], names[b])
            for b, parents in enumerate(self.pa)
            for a in bits(parents)
        )

    def nodes(self, mask: int) -> frozenset[str]:
        """The observed node names of `mask`."""
        return frozenset(self.names[i] for i in bits(mask))

    def without_edge(self, a: int, b: int) -> "CompiledGraph":
        """The subgraph with the observed edge a -> b deleted."""
        sub = object.__new__(CompiledGraph)
        sub.names, sub.index, sub.latent = self.names, self.index, self.latent
        sub.all = self.all
        sub.pa_lat, sub.lat_ch = self.pa_lat, self.lat_ch
        pa, ch = list(self.pa), list(self.ch)
        pa[b] &= ~(1 << a)
        ch[a] &= ~(1 << b)
        sub.pa, sub.ch = tuple(pa), tuple(ch)
        sub._desc = [None] * len(pa)
        sub._lat_reach = [None] * len(self.latent)
        return sub

    def descendants(self, i: int) -> int:
        """Nodes reachable from node i by a directed path of length >= 1."""
        out = self._desc[i]
        if out is None:
            ch = self.ch
            out, frontier = 0, ch[i]
            while frontier:
                out |= frontier
                step = 0
                for j in bits(frontier):
                    step |= ch[j]
                frontier = step & ~out
            self._desc[i] = out
        return out

    def lat_children(self, lat_mask: int) -> int:
        """The children of the latent nodes of `lat_mask`."""
        out = 0
        for j in bits(lat_mask):
            out |= self.lat_ch[j]
        return out

    def lat_reach(self, j: int) -> int:
        """The children of latent node j and everything reachable from
        them."""
        out = self._lat_reach[j]
        if out is None:
            out = self.lat_ch[j]
            for i in bits(out):
                out |= self.descendants(i)
            self._lat_reach[j] = out
        return out


# -- serialization --------------------------------------------------------


def graph_from_dict(data: dict) -> LatentFactorGraph:
    """Build a graph from the JSON-schema dict representation."""
    try:
        observed = data["observed"]
        latent = data.get("latent", [])
        edges_obs = data["edges_obs"]
        edges_lat = data.get("edges_lat", [])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"missing or malformed field: {exc}") from exc
    for name, nodes in (("observed", observed), ("latent", latent)):
        if not isinstance(nodes, list) or not all(
            isinstance(n, str) for n in nodes
        ):
            raise GraphError(f"field {name!r} must be a list of node names")
    for name, edges, pair in (
        ("edges_obs", edges_obs, "[from, to]"),
        ("edges_lat", edges_lat, "[latent, to]"),
    ):
        if not isinstance(edges, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 2 for e in edges
        ):
            raise GraphError(f"field {name!r} must be a list of {pair} pairs")
    return LatentFactorGraph(observed, latent, edges_obs, edges_lat)


def graph_to_dict(g: LatentFactorGraph) -> dict:
    return {
        "observed": list(g.observed),
        "latent": list(g.latent),
        "edges_obs": [list(e) for e in sorted(g.edges_obs)],
        "edges_lat": [list(e) for e in sorted(g.edges_lat)],
    }


def load_graph(path: str) -> LatentFactorGraph:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphError(f"{path} must hold a JSON object")
    return graph_from_dict(data)

