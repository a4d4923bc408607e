"""Independent brute-force oracles used to validate the fast
implementations, plus random-graph generators for property tests.

Everything here is deliberately naive: path enumeration instead of
reachability sweeps, exhaustive search instead of max-flow, explicit
trek sums instead of matrix algebra.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Optional

import numpy as np

from latentid.criteria import (
    CertRecord,
    DetCertificate,
    HtcCertificate,
    check_elf_htc,
)
from latentid.flow import FlowFrame
from latentid.formulas import (
    SINGULARITY_TOL,
    Const,
    Cov,
    DegenerateInputError,
    DependencyError,
    Det,
    FormulaMap,
    Lam,
    Neg,
    Prod,
    Quot,
    RationalExpr,
    SolveCoord,
    Sum,
)
from latentid.graph import (
    CompiledGraph,
    Edge,
    GraphError,
    LatentFactorGraph,
    UnknownNodeError,
    bits,
)
from latentid.rank import P


# -- name-keyed graph queries ------------------------------------------------
# The reference for `CompiledGraph`'s masks: node-name sets over an
# adjacency built from the edge lists, with breadth-first reachability.


@lru_cache(maxsize=64)
def _adjacency(g: LatentFactorGraph):
    """The children of every node of `g`, and the observed and the latent
    parents of every observed node."""
    kids = {n: set() for n in g.observed + g.latent}
    par_obs = {n: set() for n in g.observed}
    par_lat = {n: set() for n in g.observed}
    for a, b in g.edges_obs:
        kids[a].add(b)
        par_obs[b].add(a)
    for a, b in g.edges_lat:
        kids[a].add(b)
        par_lat[b].add(a)
    return tuple(
        {n: frozenset(nodes) for n, nodes in d.items()}
        for d in (kids, par_obs, par_lat)
    )


def _check_nodes(g: LatentFactorGraph, nodes) -> None:
    for n in nodes:
        if n not in _adjacency(g)[0]:
            raise UnknownNodeError(f"unknown node {n!r}")


def _observed_parents(g: LatentFactorGraph, v: str, which: int) -> frozenset:
    parents = _adjacency(g)[which]
    if v not in parents:
        _check_nodes(g, [v])
        raise UnknownNodeError(f"{v!r} is not an observed node")
    return parents[v]


def parents_obs(g: LatentFactorGraph, v: str) -> frozenset:
    """Observed parents of the observed node `v`."""
    return _observed_parents(g, v, 1)


def parents_lat(g: LatentFactorGraph, v: str) -> frozenset:
    """Latent parents of the observed node `v`."""
    return _observed_parents(g, v, 2)


def children(g: LatentFactorGraph, s) -> frozenset:
    """Union of direct successors of the members of `s`."""
    s = set(s)
    _check_nodes(g, s)
    kids = _adjacency(g)[0]
    return frozenset().union(*(kids[n] for n in s))


def _reach_from(g: LatentFactorGraph, start) -> set:
    """Directed reachability including the start nodes themselves."""
    kids = _adjacency(g)[0]
    seen = set(start)
    queue = deque(seen)
    while queue:
        for c in kids[queue.popleft()]:
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def descendants(g: LatentFactorGraph, s) -> frozenset:
    """All nodes reachable from `s` by a directed path of length >= 1.

    A node is a descendant of itself only if it lies on a directed cycle.
    """
    return frozenset(_reach_from(g, children(g, s)))


def htr(g: LatentFactorGraph, sources, avoid_h=()) -> frozenset:
    """Observed nodes reachable by a non-trivial half-trek from `sources`.

    A half-trek from `s` either walks forward along observed edges
    (`s -> ... -> w`) or starts with one latent top node not in `avoid_h`
    (`s <- h -> ... -> w`). The result never contains the source itself
    (per source), and results for several sources are unioned.
    """
    sources, avoid_h = set(sources), set(avoid_h)
    _check_nodes(g, sources | avoid_h)
    pa_lat = _adjacency(g)[2]
    for h in avoid_h:
        if h in pa_lat:
            raise UnknownNodeError(f"avoid set contains observed node {h!r}")
    for s in sources:
        if s not in pa_lat:
            raise UnknownNodeError(f"source {s!r} is not observed")
    out: set[str] = set()
    for s in sources:
        over_latent = children(g, pa_lat[s] - avoid_h)
        out |= (descendants(g, [s]) | _reach_from(g, over_latent)) - {s}
    return frozenset(out)


# -- half-trek reachability by path enumeration ----------------------------


def _simple_directed_paths(adj, start):
    """All nodes reachable from `start` by a directed path with at least
    one edge and no repeated vertices (explicit path enumeration)."""
    reached = set()

    def walk(node, visited):
        for nxt in adj.get(node, ()):
            if nxt in visited:
                continue
            reached.add(nxt)
            walk(nxt, visited | {nxt})

    walk(start, {start})
    return reached


def htr_bruteforce(g: LatentFactorGraph, sources, avoid_h=frozenset()):
    """Half-trek reachable set computed by enumerating the half-treks
    themselves: a directed path from the source, or a latent parent (not
    avoided) followed by a directed path from one of its children."""
    avoid_h = frozenset(avoid_h)
    adj: dict[str, set[str]] = {}
    for a, b in g.edges_obs:
        adj.setdefault(a, set()).add(b)
    out: set[str] = set()
    for s in sources:
        per_source: set[str] = set()
        per_source |= _simple_directed_paths(adj, s)
        for h, c in g.edges_lat:
            if c != s:
                continue
            if h in avoid_h:
                continue
            for h2, child in g.edges_lat:
                if h2 != h:
                    continue
                per_source.add(child)
                per_source |= _simple_directed_paths(adj, child)
        per_source.discard(s)
        out |= per_source
    return frozenset(out)


# -- node-disjoint path systems by exhaustive search -----------------------


def disjoint_paths_bruteforce(net):
    """Maximum number of arc- and node-capacity-respecting paths from the
    sources to the sinks of a RefFlowNetwork, found by exhaustive search.

    Only intended for small networks (<= ~20 flow nodes).
    """
    arcs = sorted(net.arcs)
    adj: dict = {}
    for u, w in arcs:
        adj.setdefault(u, []).append(w)

    all_paths = []

    def extend(path):
        tail = path[-1]
        if tail in net.sinks:
            all_paths.append(tuple(path))
            # A sink may also be an interior node of a longer path.
        for nxt in adj.get(tail, ()):
            if nxt in path:
                continue
            extend(path + [nxt])

    for s in net.sources:
        extend([s])

    # Every path starts at a source and ends at a sink, so no path system
    # beats this bound; reaching it ends the search.
    bound = min(
        sum(net.node_capacity.get(n, 0) for n in net.sources),
        sum(net.node_capacity.get(n, 0) for n in net.sinks),
    )
    best = 0

    def usable(path, node_use, arc_use):
        for n in path:
            if node_use.get(n, 0) + 1 > net.node_capacity.get(n, 0):
                return False
        for a, b in zip(path, path[1:]):
            if arc_use.get((a, b), 0) + 1 > net.arcs[(a, b)]:
                return False
        return True

    def search(i, count, node_use, arc_use):
        nonlocal best
        best = max(best, count)
        if best >= bound or count + (len(all_paths) - i) <= best:
            return
        for j in range(i, len(all_paths)):
            if best >= bound:
                return
            path = all_paths[j]
            if not usable(path, node_use, arc_use):
                continue
            for n in path:
                node_use[n] = node_use.get(n, 0) + 1
            for a in zip(path, path[1:]):
                arc_use[a] = arc_use.get(a, 0) + 1
            search(j + 1, count + 1, node_use, arc_use)
            for n in path:
                node_use[n] -= 1
            for a in zip(path, path[1:]):
                arc_use[a] -= 1

    search(0, 0, {}, {})
    return best


# -- reference flow networks and solver ------------------------------------
#
# Dict-based networks and a solver that builds its split network afresh on
# every call, with super-source and super-sink nodes and plainly sorted
# adjacency lists: the reference `latentid.flow.FlowFrame` must match, with
# the same node and arc sets, the same value, the same carrying sources
# (which depend on the order neighbours are visited in) and the same cut.
# A flow node is a tagged name: ("o", n) for the original copy of node n,
# ("p", n) for its primed copy.


def orig(n: str) -> tuple[str, str]:
    return ("o", n)


def primed(n: str) -> tuple[str, str]:
    return ("p", n)


@dataclass(frozen=True)
class RefFlowNetwork:
    node_capacity: dict
    arcs: dict
    sources: tuple = ()
    sinks: tuple = ()

    def with_terminals(self, sources, sinks):
        return RefFlowNetwork(
            self.node_capacity,
            self.arcs,
            tuple(sorted(set(sources))),
            tuple(sorted(set(sinks))),
        )

    def without_arcs(self, removed):
        removed = set(removed)
        kept = {a: 1 for a in self.arcs if a not in removed}
        return RefFlowNetwork(self.node_capacity, kept, self.sources, self.sinks)


def ref_build_det_flow(g: LatentFactorGraph) -> RefFlowNetwork:
    all_nodes = list(g.observed) + list(g.latent)
    node_capacity = {}
    for n in all_nodes:
        node_capacity[orig(n)] = 1
        node_capacity[primed(n)] = 1
    arcs = {}
    for n in all_nodes:
        arcs[(orig(n), primed(n))] = 1
    for a, b in list(g.edges_obs) + list(g.edges_lat):
        arcs[(orig(b), orig(a))] = 1
        arcs[(primed(a), primed(b))] = 1
    return RefFlowNetwork(node_capacity, arcs)


def ref_build_elf_flow(g, v, allowed, z, w_z, w_v) -> RefFlowNetwork:
    allowed = frozenset(allowed)
    z = frozenset(z)
    w_z = frozenset(w_z)
    w_v = frozenset(w_v)
    bad = allowed & (z | {v})
    if bad:
        raise GraphError(f"allowed source set overlaps z or v: {sorted(bad)}")
    sink_names = w_v | z | w_z
    node_capacity = {}
    for n in allowed:
        node_capacity[orig(n)] = 1
    for n in g.latent:
        node_capacity[orig(n)] = 1
    for n in list(g.observed) + list(g.latent):
        node_capacity[primed(n)] = 1
    arcs = {}
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
    return RefFlowNetwork(
        node_capacity,
        arcs,
        tuple(sorted(orig(n) for n in allowed)),
        tuple(sorted(primed(n) for n in sink_names)),
    )


_REF_SRC = ("+src", "", "x")
_REF_SNK = ("+snk", "", "x")


def ref_solve(net) -> tuple[int, frozenset, tuple[frozenset, frozenset]]:
    """(number of vertex-disjoint paths, carrying source names, reach) of
    any network exposing `node_capacity`, `arcs`, `sources` and `sinks`.
    The reach is that of the last, failed search: the names whose
    original copy's entry and those whose primed copy's exit it holds."""
    unit_arcs = [(n + ("i",), n + ("x",)) for n in net.node_capacity]
    unit_arcs += [(u + ("x",), w + ("i",)) for u, w in net.arcs]
    unit_arcs += [(_REF_SRC, s + ("i",)) for s in net.sources]
    unit_arcs += [(t + ("x",), _REF_SNK) for t in net.sinks]
    open_arcs = set(unit_arcs)
    adjacency: dict = {}
    for a, b in unit_arcs:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    for nbrs in adjacency.values():
        nbrs.sort()

    total = 0
    while True:
        parent = {_REF_SRC: _REF_SRC}
        queue = deque([_REF_SRC])
        while queue and _REF_SNK not in parent:
            a = queue.popleft()
            for b in adjacency.get(a, ()):
                if b not in parent and (a, b) in open_arcs:
                    parent[b] = a
                    queue.append(b)
        if _REF_SNK not in parent:
            break
        b = _REF_SNK
        while b != _REF_SRC:
            a = parent[b]
            open_arcs.remove((a, b))
            open_arcs.add((b, a))
            b = a
        total += 1

    carrying = frozenset(
        s[1] for s in net.sources if (s + ("x",), s + ("i",)) in open_arcs
    )
    reach = (
        frozenset(n[1] for n in parent if n[0] == "o" and n[2] == "i"),
        frozenset(n[1] for n in parent if n[0] == "p" and n[2] == "x"),
    )
    return total, carrying, reach


def frame_arcs(frame: FlowFrame) -> dict:
    """The arc numbers of `frame` by name: a flow node's split arc under
    the node, any other arc under its (tail, head) flow nodes. Flow node
    j < m is the original copy of the j-th of the m sorted observed and
    latent names, m + j its primed copy."""
    view = frame.view
    names = sorted(view.names + view.latent)
    nodes = [orig(n) for n in names] + [primed(n) for n in names]
    tail = frame._tail
    out = {}
    for k in range(len(tail) // 2):
        if k < len(nodes):
            out[nodes[k]] = k
        else:
            out[nodes[tail[2 * k] >> 1], nodes[tail[2 * k + 1] >> 1]] = k
    return out


def frame_network(frame: FlowFrame, residual) -> RefFlowNetwork:
    """The network a residual of `frame` holds, by name: a node passes a
    unit when its split arc is open, and an arc is in it when open along
    itself."""
    node_capacity, arcs = {}, {}
    for key, k in frame_arcs(frame).items():
        if residual[2 * k]:
            if isinstance(key[0], tuple):
                arcs[key] = 1
            else:
                node_capacity[key] = 1
    return RefFlowNetwork(node_capacity, arcs)


def without_named_arcs(frame: FlowFrame, residual, arcs) -> bytes:
    """`residual`, a network of `frame`, with the arcs `arcs`, given by
    name, closed."""
    ids = frame_arcs(frame)
    out = bytearray(residual)
    for arc in arcs:
        out[2 * ids[arc]] = 0
    return bytes(out)


def solve_outcome(frame: FlowFrame, residual, a: int, t: int, ref) -> str:
    """Check `frame.solve(residual, a, t)` against `ref_solve` on `ref`,
    the same network built by name: the flow value; when the flow reaches
    the sinks, the carrying sources; when it falls short with a source
    unused, the cut against the reach of the reference's failed search,
    and no cut when every source is used. Returns which of the three
    happened."""
    value, carrying, cut = frame.solve(residual, a, t)
    ref_value, used, (entered, exited) = ref_solve(ref)
    assert value == ref_value
    if value == t.bit_count():
        assert (carrying, cut) == (used, None)
        return "succeeded"
    assert carrying == frozenset()
    if value == a.bit_count():
        assert cut is None
        return "saturated"
    index = frame.view.index
    assert cut == (
        sum(1 << index[n] for n in entered if n in index),
        sum(1 << index[n] for n in exited if n in index),
    )
    return "cut"


def name_mask(view: CompiledGraph, nodes) -> int:
    """The mask of the observed nodes `nodes` of `view`."""
    return sum(1 << view.index[n] for n in set(nodes))


def ref_verify_certificate(g: LatentFactorGraph, cert) -> bool:
    """`criteria.verify_certificate` on sets of names, with its flows on
    the dict networks of `ref_build_det_flow` and `ref_build_elf_flow`,
    solved by `ref_solve`."""
    observed = frozenset(g.observed)
    if isinstance(cert, HtcCertificate):
        return ref_check_elf_htc(
            g, cert.v, cert.w_v, cert.y, cert.z, cert.w_z(), cert.h
        )
    v, w0, t = cert.v, cert.w0, cert.t
    if not {v, w0} | cert.deleted_parents | cert.s | t <= observed:
        return False
    pa = parents_obs(g, v)
    if w0 not in pa or not cert.deleted_parents <= pa - {w0}:
        return False
    if descendants(g, [v]) & (t | {v}):
        return False
    if len(cert.s) != len(t) + 1 or t & {v, w0}:
        return False
    det = ref_build_det_flow(g)
    k = len(cert.s)
    sources = [orig(n) for n in cert.s]
    full = det.with_terminals(sources, [primed(n) for n in t | {w0}])
    if ref_solve(full)[0] != k:
        return False
    barred = det.without_arcs(
        (primed(w), primed(v)) for w in cert.deleted_parents | {w0}
    ).with_terminals(sources, [primed(n) for n in t | {v}])
    return ref_solve(barred)[0] < k


def ref_check_elf_htc(g, v, w_v, y, z, w_z, h) -> bool:
    """`criteria.check_elf_htc` on sets of names, its flow on the dict
    network of `ref_build_elf_flow`, solved by `ref_solve`."""
    w_v, y, z, h = map(frozenset, (w_v, y, z, h))
    w_z = {zz: frozenset(ws) for zz, ws in w_z.items()}
    w_big = frozenset().union(*w_z.values())
    if not {v} | w_v | y | z | set(w_z) | w_big <= frozenset(g.observed):
        return False
    if set(w_z) != z or not w_v <= parents_obs(g, v):
        return False
    if any(not ws <= parents_obs(g, zz) for zz, ws in w_z.items()):
        return False
    z1 = frozenset(zz for zz in z if w_z[zz] < parents_obs(g, zz))
    # condition (i)
    if len(z) != len(h) or len(y) != len(w_v | z | w_big):
        return False
    if v in z or z1 & (w_big | w_v):
        return False
    # condition (ii)
    if y & (z | {v}):
        return False
    lat_y = frozenset().union(*(parents_lat(g, n) for n in y))
    lat_zv = frozenset().union(*(parents_lat(g, n) for n in z | {v}))
    if not lat_y & lat_zv <= h:
        return False
    net = ref_build_elf_flow(g, v, y, z, w_big, w_v)
    return ref_solve(net)[0] == len(w_v | z | w_big)


# -- literal determinantal search ------------------------------------------


def ref_det_subprocedure(g, state, v, cfg):
    """The determinantal subprocedure as a literal loop: every (S, T)
    pair in lexicographic order, each counted against
    `cfg.cap_det_pairs` and then filtered one covariance pair at a time,
    with its flows solved on a `FlowFrame` compiled from `g` itself.
    `criteria.det_subprocedure` must match it."""
    pa = parents_obs(g, v)
    dec_v = descendants(g, [v])
    if v in dec_v:
        return state
    obs = sorted(g.observed)
    view = CompiledGraph(g)
    frame = FlowFrame(view)
    base = frame.det_network(view)
    allowed_cov = allowed_pairs(state.view, state.allowed_rows)

    for w0 in sorted(pa):
        if (w0, v) in state.solved_edges:
            continue
        solved_parents = frozenset(
            p for p in pa if (p, v) in state.solved_edges
        )
        barred = frame.barred(
            base, view.index[v], name_mask(view, solved_parents | {w0})
        )
        tried = 0
        done = False
        for k in range(1, len(obs) + 1):
            if done:
                break
            t_pool = [n for n in obs if n not in (v, w0)]
            for s_combo in combinations(obs, k):
                if done:
                    break
                for t_combo in combinations(t_pool, k - 1):
                    if (
                        cfg.cap_det_pairs is not None
                        and tried >= cfg.cap_det_pairs
                    ):
                        done = True
                        break
                    tried += 1
                    t_set = frozenset(t_combo)
                    if dec_v & t_set:
                        continue
                    cov_targets = t_set | {v, w0} | solved_parents
                    if not all(
                        cov_pair(s, t) in allowed_cov
                        for s in s_combo
                        for t in cov_targets
                    ):
                        continue
                    srcs = name_mask(view, s_combo)
                    full = frame.solve(
                        base, srcs, name_mask(view, t_set | {w0})
                    )
                    if full[0] != k:
                        continue
                    cut = frame.solve(
                        barred, srcs, name_mask(view, t_set | {v})
                    )
                    if cut[0] >= k:
                        continue
                    cert = DetCertificate(
                        v=v,
                        w0=w0,
                        deleted_parents=solved_parents,
                        s=frozenset(s_combo),
                        t=t_set,
                    )
                    state.solve(view.index[v], name_mask(view, [w0]))
                    state.certificates.append(
                        CertRecord(
                            edges=((w0, v),),
                            cert=cert,
                            deleted=state.deleted_edges,
                        )
                    )
                    done = True
                    break
    return state


# -- per-pair minors mod p ---------------------------------------------------


def nonsingular(matrix: list[list[int]]) -> bool:
    """Whether the square `matrix` is nonsingular mod `rank.P`:
    elimination that cross-multiplies by the pivot instead of dividing by
    it, down to a 3×3 determinant written out. The per-pair reference for
    `rank.vanishing_minors`."""
    while len(matrix) > 3:
        piv = next((r for r in matrix if r[0]), None)
        if piv is None:
            return False
        p0 = piv[0]
        matrix = [
            [(p0 * x - r[0] * y) % P for x, y in zip(r[1:], piv[1:])]
            for r in matrix
            if r is not piv
        ]
    k = len(matrix)
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    elif k == 2:
        (a, b), (c, d) = matrix
        det = a * d - b * c
    else:
        det = matrix[0][0] if matrix else 1
    return det % P != 0


def ref_vanishing_minors(sigma, column, rows, candidates):
    """`rank.vanishing_minors` one T at a time: every (k − 1)-subset of
    `candidates` in lexicographic order whose minor of `sigma` on `rows`,
    with `column` appended, `nonsingular` calls singular."""
    return [
        t_combo
        for t_combo in combinations(candidates, len(rows) - 1)
        if not nonsingular(
            [[sigma[s][t] for t in t_combo] + [column[s]] for s in rows]
        )
    ]


# -- literal eLF-HTC search ------------------------------------------------


def ref_elf_htc_subprocedure(g, state, v, cfg):
    """The eLF-HTC subprocedure as a literal loop over H, Z and the W_z
    choices on sets of names, with a network of a `FlowFrame` compiled
    from `g` itself for every choice that passes the side condition and no
    other filter. `criteria.elf_htc_subprocedure` must match it. The source
    pools and the legacy sink pool read the solved nodes as the call
    found them."""
    pa = parents_obs(g, v)
    solved_nodes = frozenset(state.solved_nodes)
    allowed_cov = allowed_pairs(state.view, state.allowed_rows)
    legacy = cfg.legacy_lf_htc_only
    view = CompiledGraph(g)
    frame = FlowFrame(view)
    base = frame.base(frame.det_network(view))

    def solved_parents(n):
        return frozenset(
            p for p in parents_obs(g, n) if (p, n) in state.solved_edges
        )

    if legacy:
        w_v = pa
        sink_pool = solved_nodes - w_v
    else:
        w_v = pa - solved_parents(v)
        sink_pool = frozenset(g.observed)
    if not w_v:
        return state

    def wz_choices(zz):
        if legacy:
            return [frozenset()]
        unsolved = parents_obs(g, zz) - solved_parents(zz)
        if cfg.simplify_wz_loop:
            return [unsolved]
        extras = sorted(solved_parents(zz))
        return [
            unsolved | frozenset(combo)
            for size in range(len(extras) + 1)
            for combo in combinations(extras, size)
        ]

    lat_pool = sorted(h for h in g.latent if len(children(g, [h])) >= 4)
    max_h = len(lat_pool)
    if cfg.cap_h_size is not None:
        max_h = min(max_h, cfg.cap_h_size)
    for h_size in range(max_h + 1):
        for h_combo in combinations(lat_pool, h_size):
            z_pool = sorted((children(g, h_combo) - {v}) & sink_pool)
            for z_combo in combinations(z_pool, h_size):
                z = frozenset(z_combo)
                sources = ref_elf_allowed_sources(
                    g, solved_nodes, allowed_cov, v, z, h_combo
                )
                options = [wz_choices(zz) for zz in z_combo]
                for w_choice in product(*options):
                    w_big = frozenset().union(*w_choice)
                    z1 = frozenset(
                        zz
                        for zz, ws in zip(z_combo, w_choice)
                        if ws != parents_obs(g, zz)
                    )
                    if z1 & (w_big | w_v):
                        continue
                    a = name_mask(view, sources)
                    sinks = name_mask(view, w_v | z | w_big)
                    value, carrying, _ = frame.solve(
                        frame.network(base, a, name_mask(view, z)), a, sinks
                    )
                    if value != sinks.bit_count():
                        continue
                    z2 = z - z1
                    newly = w_v - (z2 | w_big) - solved_parents(v)
                    if not newly:
                        continue
                    edges = tuple(sorted((p, v) for p in newly))
                    state.solve(view.index[v], name_mask(view, newly))
                    state.certificates.append(
                        CertRecord(
                            edges=edges,
                            cert=HtcCertificate(
                                v=v,
                                w_v=w_v,
                                y=carrying,
                                z=z,
                                w_z_map=tuple(zip(z_combo, w_choice)),
                                h=frozenset(h_combo),
                            ),
                            deleted=state.deleted_edges,
                        )
                    )
                    w_v &= z2 | w_big
                    if not w_v:
                        return state
    return state


# -- set-based allowed-covariance bookkeeping -------------------------------

CovPair = tuple[str, str]


def cov_pair(x: str, y: str) -> CovPair:
    """Normalized unordered covariance index (x <= y)."""
    return (x, y) if x <= y else (y, x)


def all_cov_pairs(g: LatentFactorGraph) -> frozenset[CovPair]:
    obs = sorted(g.observed)
    return frozenset(
        (obs[i], obs[j])
        for i in range(len(obs))
        for j in range(i, len(obs))
    )


def allowed_update(
    g: LatentFactorGraph,
    allowed_cov: frozenset[CovPair],
    v: str,
    removed_parents: Iterable[str],
    solved_edges: Optional[set[Edge]] = None,
    dec_v: Optional[frozenset[str]] = None,
) -> frozenset[CovPair]:
    """Allowed covariance pairs after deleting the edges
    `removed_parents -> v` from `g`.

    A pair stays allowed when both members avoid the descendants of `v`,
    the pair is not (v, v), and — when one member is `v` itself — the
    auxiliary pairs against every removed parent were allowed before.
    A caller that already holds `descendants(g, [v])` passes it as
    `dec_v`.
    """
    removed = frozenset(removed_parents)
    if not removed:
        return allowed_cov
    if not removed <= parents_obs(g, v):
        raise GraphError(
            f"removed parents {sorted(removed)} are not parents of {v!r}"
        )
    if solved_edges is not None:
        unsolved = {(w, v) for w in removed} - solved_edges
        if unsolved:
            raise GraphError(
                f"cannot delete unsolved edges: {sorted(unsolved)}"
            )
    if dec_v is None:
        dec_v = descendants(g, [v])
    out = set()
    for x, y in allowed_cov:
        if x in dec_v or y in dec_v:
            continue
        if x == v and y == v:
            continue
        if x == v or y == v:
            other = y if x == v else x
            if all(cov_pair(other, w) in allowed_cov for w in removed):
                out.add((x, y))
        else:
            out.add((x, y))
    return frozenset(out)


def allowed_rows(
    view: CompiledGraph, allowed_cov: Iterable[CovPair]
) -> tuple[int, ...]:
    """The allowed pairs as one bitmask row per node: bit y of row x is
    set when the pair (x, y) is allowed."""
    index = view.index
    rows = [0] * len(view.names)
    for x, y in allowed_cov:
        rows[index[x]] |= 1 << index[y]
        rows[index[y]] |= 1 << index[x]
    return tuple(rows)


def allowed_pairs(
    view: CompiledGraph, rows: tuple[int, ...]
) -> frozenset[CovPair]:
    """The allowed pairs of one bitmask row per node of `view`; the
    inverse of `allowed_rows`."""
    names = view.names
    return frozenset(
        cov_pair(names[x], names[y])
        for x, row in enumerate(rows)
        for y in bits(row)
    )


# -- the plain half-trek criterion -----------------------------------------


def check_lf_htc(
    g: LatentFactorGraph,
    v: str,
    y: Iterable[str],
    z: Iterable[str],
    h: Iterable[str],
) -> bool:
    """Direct check of the plain (non-extended) half-trek criterion.

    Equivalent to the extended check with `w_v` equal to all observed
    parents of `v` and empty conditioning sets, plus the original side
    conditions on `z`.
    """
    y = frozenset(y)
    z = frozenset(z)
    h = frozenset(h)
    try:
        pa = parents_obs(g, v)
    except GraphError:
        return False
    if z & pa:
        return False
    if len(y) != len(pa) + len(h):
        return False
    return check_elf_htc(
        g, v, pa, y, z, {zz: frozenset() for zz in z}, h
    )


# -- set-based search bookkeeping -------------------------------------------


def ref_solved_nodes(g, solved_edges):
    """The observed nodes whose every incoming observed edge is solved,
    one `parents_obs` query at a time. `IdentificationState.solved_mask`
    must match it."""
    return {
        v
        for v in g.observed
        if all((p, v) in solved_edges for p in parents_obs(g, v))
    }


def ref_elf_allowed_sources(g, solved_nodes, allowed_cov, v, z, h):
    """The eLF-HTC candidate source pool on sets of names, testing one
    covariance pair at a time. `criteria._elf_allowed_sources` must match
    it."""
    targets = frozenset(z) | {v}
    h = frozenset(h)
    reachable = htr(g, targets, h)
    blocked_lat = frozenset().union(*(parents_lat(g, t) for t in targets)) - h
    pool = (
        frozenset(g.observed)
        - targets
        - children(g, blocked_lat)
        - (reachable - solved_nodes)
    )
    col_targets = {v} | parents_obs(g, v) | set(z)
    for zz in z:
        col_targets |= parents_obs(g, zz)
    ok = set()
    for a in pool:
        needed = {a}
        if a in reachable:
            needed |= parents_obs(g, a)
        if all(
            cov_pair(x, t) in allowed_cov for x in needed for t in col_targets
        ):
            ok.add(a)
    return frozenset(ok)


# -- trek-rule covariance on acyclic graphs --------------------------------


def trek_rule_covariance(params):
    """Covariance matrix of an acyclic model computed as explicit trek
    sums over the graph including the latent source nodes."""
    g = params.graph
    obs_idx = {n: i for i, n in enumerate(g.observed)}
    lat_idx = {n: i for i, n in enumerate(g.latent)}

    def coeff(a, b):
        if a in lat_idx:
            return params.gamma[lat_idx[a], obs_idx[b]]
        return params.lam[obs_idx[a], obs_idx[b]]

    adj: dict[str, list[str]] = {}
    for a, b in list(g.edges_obs) + list(g.edges_lat):
        adj.setdefault(a, []).append(b)

    def weighted_paths_to(top, target):
        """Sum over directed paths top -> ... -> target of the product of
        edge coefficients (1.0 for the empty path when top == target)."""
        if top == target:
            return 1.0
        total = 0.0
        for nxt in adj.get(top, ()):
            total += coeff(top, nxt) * weighted_paths_to(nxt, target)
        return total

    def top_variance(n):
        if n in lat_idx:
            return params.v_l[lat_idx[n]]
        return params.omega_diag[obs_idx[n]]

    d = len(g.observed)
    sigma = np.zeros((d, d))
    tops = list(g.observed) + list(g.latent)
    for i, x in enumerate(g.observed):
        for j, y in enumerate(g.observed):
            total = 0.0
            for top in tops:
                total += (
                    top_variance(top)
                    * weighted_paths_to(top, x)
                    * weighted_paths_to(top, y)
                )
            sigma[i, j] = total
    return sigma


# -- local identifiability from the Jacobian, in floating point ----------


def jacobian_identifiable_edges(
    g: LatentFactorGraph, seed: int = 0
) -> frozenset[Edge]:
    """The observed edges whose coefficients are locally identifiable
    (Rothenberg, Econometrica 1971): those whose column of the Jacobian of
    (Λ, Γ, Ω) ↦ vech Σ, at a random real point, is outside the span of
    the other columns, that is, zero in every vector of the null space.
    The Jacobian is taken in Σ's own coordinates, with A = (I − Λ)⁻¹, and
    its null space is read off the SVD.

    Columns on the pair (x, y), x <= y:
    - edge a -> b: Σ[x, a]A[b, y] + Σ[y, a]A[b, x];
    - loading j -> b: V_j(A[b, x](γ_jA)[y] + (γ_jA)[x]A[b, y]);
    - error variance ω_b: A[b, x]A[b, y].
    """
    rng = np.random.default_rng(seed)
    obs, lat = list(g.observed), list(g.latent)
    idx = {v: i for i, v in enumerate(obs)}
    lat_idx = {h: j for j, h in enumerate(lat)}
    d = len(obs)

    def draw(low, high, count):
        return rng.uniform(low, high, count) * rng.choice([-1.0, 1.0], count)

    edges = sorted(g.edges_obs)
    loadings = sorted(g.edges_lat)
    lam = np.zeros((d, d))
    for (a, b), value in zip(edges, draw(0.3, 0.9, len(edges))):
        lam[idx[a], idx[b]] = value
    gamma = np.zeros((len(lat), d))
    for (h, b), value in zip(loadings, draw(0.5, 1.5, len(loadings))):
        gamma[lat_idx[h], idx[b]] = value
    omega = rng.uniform(0.5, 1.5, d)
    v_lat = rng.uniform(0.5, 1.5, len(lat))
    a_mat = np.linalg.inv(np.eye(d) - lam)
    sigma = a_mat.T @ (np.diag(omega) + gamma.T @ np.diag(v_lat) @ gamma) @ a_mat
    ga = gamma @ a_mat
    x, y = np.triu_indices(d)
    columns = []
    for a, b in edges:
        i, k = idx[a], idx[b]
        columns.append(sigma[x, i] * a_mat[k, y] + sigma[y, i] * a_mat[k, x])
    for h, b in loadings:
        j, k = lat_idx[h], idx[b]
        columns.append(
            v_lat[j] * (a_mat[k, x] * ga[j, y] + ga[j, x] * a_mat[k, y])
        )
    for k in range(d):
        columns.append(a_mat[k, x] * a_mat[k, y])
    jac = np.array(columns).T
    _, s, vt = np.linalg.svd(jac)
    rank = int(np.sum(s > s[0] * 1e-9))
    null = vt[rank:]
    return frozenset(
        e
        for c, e in enumerate(edges)
        if np.linalg.norm(null[:, c]) < 1e-6
    )


# -- reachability by matrix powers -----------------------------------------


def reach_by_matrix_power(g: LatentFactorGraph, start):
    """Observed nodes reachable from `start` via >= 1 observed edge,
    computed through boolean powers of the adjacency matrix."""
    obs = list(g.observed)
    idx = {n: i for i, n in enumerate(obs)}
    n = len(obs)
    a = np.zeros((n, n), dtype=bool)
    for u, w in g.edges_obs:
        a[idx[u], idx[w]] = True
    reach = np.zeros((n, n), dtype=bool)
    power = a.copy()
    for _ in range(n):
        reach |= power
        power = power @ a
    return frozenset(obs[j] for j in range(n) if reach[idx[start], j])


# -- exhaustive isomorphism dedup ------------------------------------------


def count_classes_exhaustive(pattern, num_edges):
    """Number of acyclic edge-set classes under pattern-preserving
    permutations, found by generating every labeled DAG and deduping with
    pairwise isomorphism checks. Exponential; for small patterns only."""
    from itertools import combinations

    from latentid.enumeration import automorphisms

    n = pattern.num_observed
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    group = automorphisms(pattern)

    def acyclic(edges):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for w in adj.get(u, ()):
                if w in seen and w not in done:
                    return False
                if w not in seen and not dfs(w):
                    return False
            done.add(u)
            return True

        return all(dfs(u) for u in range(n) if u not in seen)

    reps: list[frozenset] = []
    for combo in combinations(pairs, num_edges):
        if not acyclic(combo):
            continue
        edge_set = frozenset(combo)
        if any(
            frozenset((p[a], p[b]) for a, b in edge_set) == rep
            for rep in reps
            for p in group
        ):
            continue
        reps.append(edge_set)
    return len(reps)


# -- formula evaluation by walking the tree -------------------------------


def ref_eval_expr(
    expr: RationalExpr,
    sigma,
    fmap: Optional[FormulaMap] = None,
    _cache: Optional[dict[Edge, float]] = None,
) -> float:
    """Numeric value of an expression at a covariance matrix, by walking
    the tree: the reference for `formulas.EvalPlan`.

    `sigma` must support `sigma[x, y]` lookups by node id. Coefficient
    handles are resolved through `fmap` and memoized.
    """
    if _cache is None:
        _cache = {}
    return _ref_eval(expr, sigma, fmap, _cache)


def _ref_eval(expr, sigma, fmap, cache) -> float:
    if isinstance(expr, Cov):
        return float(sigma[expr.x, expr.y])
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Lam):
        if expr.edge not in cache:
            if fmap is None or expr.edge not in fmap:
                raise DependencyError(expr.edge)
            cache[expr.edge] = _ref_eval(
                fmap.get(expr.edge), sigma, fmap, cache
            )
        return cache[expr.edge]
    if isinstance(expr, Sum):
        return sum(_ref_eval(t, sigma, fmap, cache) for t in expr.terms)
    if isinstance(expr, Prod):
        out = 1.0
        for f in expr.factors:
            out *= _ref_eval(f, sigma, fmap, cache)
        return out
    if isinstance(expr, Neg):
        return -_ref_eval(expr.term, sigma, fmap, cache)
    if isinstance(expr, Quot):
        num = _ref_eval(expr.num, sigma, fmap, cache)
        den = _ref_eval(expr.den, sigma, fmap, cache)
        if abs(den) <= SINGULARITY_TOL * max(1.0, abs(num)):
            raise DegenerateInputError(
                "denominator vanishes at this covariance matrix"
            )
        return num / den
    if isinstance(expr, Det):
        return float(
            np.linalg.det(_ref_eval_matrix(expr.matrix, sigma, fmap, cache))
        )
    if isinstance(expr, SolveCoord):
        a = _ref_eval_matrix(expr.matrix, sigma, fmap, cache)
        b = np.array([_ref_eval(t, sigma, fmap, cache) for t in expr.rhs])
        scale = float(np.prod(np.linalg.norm(a, axis=1))) if a.size else 0.0
        det = float(np.linalg.det(a)) if a.size else 0.0
        if a.size == 0:
            raise DegenerateInputError("empty linear system")
        if abs(det) <= SINGULARITY_TOL * max(scale, 1e-300):
            raise DegenerateInputError(
                "near-singular linear system at this covariance matrix"
            )
        return float(np.linalg.solve(a, b)[expr.index])
    raise TypeError(f"unknown expression node: {expr!r}")


def _ref_eval_matrix(matrix, sigma, fmap, cache) -> np.ndarray:
    return np.array(
        [[_ref_eval(e, sigma, fmap, cache) for e in row] for row in matrix],
        dtype=float,
    )


# -- random graph generators -----------------------------------------------

# A dense graph that sends the edge-deletion recursion through about a
# thousand subgraphs in vain: 10 of its 11 edges are identified at the top
# level and no subgraph identifies the last one.
G7 = LatentFactorGraph(
    [str(i) for i in range(1, 8)],
    ["h1"],
    [
        ("1", "2"), ("1", "3"), ("1", "4"), ("4", "2"), ("4", "5"),
        ("4", "6"), ("6", "2"), ("7", "3"), ("7", "4"), ("7", "5"),
        ("7", "6"),
    ],
    [("h1", "1"), ("h1", "6"), ("h1", "7")],
)



# -- LaTeX without a memo --------------------------------------------------
# The reference for `formulas.render_latex`: every node rendered where it
# stands, so a shared system or entry is rendered each time it occurs.

_TEX_MARKUP = {
    "\\": r"\backslash{}",
    "{": r"\{",
    "}": r"\}",
    "$": r"\$",
    "&": r"\&",
    "#": r"\#",
    "%": r"\%",
}


def _ref_subscript(a: str, b: str) -> str:
    sep = "" if len(a) == 1 and len(b) == 1 else ","
    a, b = ("".join(_TEX_MARKUP.get(c, c) for c in n) for n in (a, b))
    return a + sep + b


def ref_latex(expr: RationalExpr) -> str:
    """LaTeX of an expression, rendered node by node without a memo."""
    def wrapped(e: RationalExpr, quot_too: bool = False) -> str:
        text = ref_latex(e)
        kinds = (Sum, Neg, Quot) if quot_too else (Sum, Neg)
        return f"({text})" if isinstance(e, kinds) else text

    def pmatrix(rows) -> str:
        body = r" \\ ".join(" & ".join(ref_latex(e) for e in r) for r in rows)
        return rf"\begin{{pmatrix}} {body} \end{{pmatrix}}"

    if isinstance(expr, Cov):
        return rf"\Sigma_{{{_ref_subscript(expr.x, expr.y)}}}"
    if isinstance(expr, Lam):
        return rf"\lambda_{{{_ref_subscript(*expr.edge)}}}"
    if isinstance(expr, Const):
        return format(expr.value, "g")
    if isinstance(expr, Neg):
        return "-" + wrapped(expr.term)
    if isinstance(expr, Sum):
        parts = []
        for i, t in enumerate(expr.terms):
            if isinstance(t, Neg):
                parts.append(("-" if i == 0 else " - ") + wrapped(t.term))
            else:
                parts.append(("" if i == 0 else " + ") + ref_latex(t))
        return "".join(parts)
    if isinstance(expr, Prod):
        return "".join(wrapped(f, quot_too=True) for f in expr.factors)
    if isinstance(expr, Quot):
        return rf"\frac{{{ref_latex(expr.num)}}}{{{ref_latex(expr.den)}}}"
    if isinstance(expr, Det):
        return rf"\det{pmatrix(expr.matrix)}"
    if isinstance(expr, SolveCoord):
        column = pmatrix(tuple((r,) for r in expr.rhs))
        body = rf"{pmatrix(expr.matrix)}^{{-1}} \cdot {column}"
        return rf"\left[{body}\right]_{{{expr.index + 1}}}"
    raise TypeError(f"unknown expression node: {expr!r}")


def random_latent_factor_graph(
    rng: random.Random,
    max_obs: int = 7,
    max_lat: int = 2,
    acyclic: bool = True,
    edge_prob: float = 0.35,
) -> LatentFactorGraph:
    """A random latent-factor graph for property tests; every latent node
    gets at least one observed child."""
    n = rng.randint(2, max_obs)
    ell = rng.randint(1, max_lat)
    observed = [str(i + 1) for i in range(n)]
    latent = [f"h{i + 1}" for i in range(ell)]
    order = observed[:]
    rng.shuffle(order)
    edges_obs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if acyclic and order.index(observed[i]) >= order.index(
                observed[j]
            ):
                continue
            if rng.random() < edge_prob:
                edges_obs.append((observed[i], observed[j]))
    edges_lat = []
    for h in latent:
        kids = [v for v in observed if rng.random() < 0.6]
        if not kids:
            kids = [rng.choice(observed)]
        edges_lat.extend((h, v) for v in kids)
    return LatentFactorGraph(observed, latent, edges_obs, edges_lat)


def dense_factor_graph(rng: random.Random, n: int = 7) -> LatentFactorGraph:
    """A random DAG on observed nodes "1".."n" with n to n + 3 edges and
    one latent node over every observed node, the shape that sends the
    search into edge-deleted subgraphs and gives eLF-HTC systems with
    several target coefficients."""
    observed = [str(i + 1) for i in range(n)]
    order = observed[:]
    rng.shuffle(order)
    pairs = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n)
    ]
    edges = rng.sample(pairs, rng.randint(n, n + 3))
    return LatentFactorGraph(
        observed, ["h1"], edges, [("h1", v) for v in observed]
    )
