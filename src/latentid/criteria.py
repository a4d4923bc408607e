"""Identification criteria and the combined search.

Implements the half-trek style criterion check, the extended subprocedure
with per-sink conditioning sets, the determinantal subprocedure, the
allowed-covariance bookkeeping for edge-deleted subgraphs, and the
fixpoint search tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from .flow import (
    FlowNetwork,
    build_det_flow,
    build_elf_flow,
    max_flow,
    max_flow_sources,
    orig,
    primed,
    without_edges,
)
from .graph import (
    Edge,
    GraphError,
    LatentFactorGraph,
    children,
    descendants,
    htr,
    parents_lat,
    parents_obs,
)

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


# -- certificates ----------------------------------------------------------


@dataclass(frozen=True)
class HtcCertificate:
    """Witness (v, W_v, Y, Z, (W_z), H) for one extended-criterion step."""

    v: str
    w_v: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]
    w_z_map: tuple[tuple[str, frozenset[str]], ...]
    h: frozenset[str]

    def w_z(self) -> dict[str, frozenset[str]]:
        return dict(self.w_z_map)

    @property
    def w_z_union(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, ws in self.w_z_map:
            out |= ws
        return out

    def to_dict(self) -> dict:
        return {
            "criterion": "elf-htc",
            "v": self.v,
            "w_v": sorted(self.w_v),
            "y": sorted(self.y),
            "z": sorted(self.z),
            "w_z": {z: sorted(ws) for z, ws in self.w_z_map},
            "h": sorted(self.h),
        }


@dataclass(frozen=True)
class DetCertificate:
    """Witness (v, w0, S, T) for one determinantal step.

    `deleted_parents` are the already-identified parents of `v` whose
    edges were removed from the flow network (and whose coefficients
    enter the resulting formula).
    """

    v: str
    w0: str
    deleted_parents: frozenset[str]
    s: frozenset[str]
    t: frozenset[str]
    source_contains_target: bool = False

    def to_dict(self) -> dict:
        return {
            "criterion": "determinantal",
            "v": self.v,
            "w0": self.w0,
            "deleted_parents": sorted(self.deleted_parents),
            "s": sorted(self.s),
            "t": sorted(self.t),
            "source_contains_target": self.source_contains_target,
        }


Certificate = HtcCertificate | DetCertificate


@dataclass(frozen=True)
class CertRecord:
    """One discovery: which edges it solved, the witness, and where in the
    deletion tree it happened."""

    edges: tuple[Edge, ...]
    cert: Certificate
    depth: int
    deleted: tuple[Edge, ...]

    def to_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "certificate": self.cert.to_dict(),
            "recursion_depth": self.depth,
            "deleted_edges": [list(e) for e in self.deleted],
        }


# -- state and configuration ----------------------------------------------


@dataclass
class IdentificationState:
    """Mutable search state threaded through the subprocedures.

    `flow_net` is the determinantal flow network of `graph`; the
    subprocedures derive every network they solve from it."""

    graph: LatentFactorGraph
    solved_edges: set[Edge]
    solved_nodes: set[str]
    allowed_cov: frozenset[CovPair]
    deleted_edges: tuple[Edge, ...]
    certificates: list[CertRecord]
    flow_net: FlowNetwork = field(repr=False, compare=False)

    @classmethod
    def fresh(cls, g: LatentFactorGraph) -> "IdentificationState":
        return cls(
            graph=g,
            solved_edges=set(),
            solved_nodes=cls._derive_solved_nodes(g, set()),
            allowed_cov=all_cov_pairs(g),
            deleted_edges=(),
            certificates=[],
            flow_net=build_det_flow(g),
        )

    @staticmethod
    def _derive_solved_nodes(
        g: LatentFactorGraph, solved_edges: set[Edge]
    ) -> set[str]:
        return {
            v
            for v in g.observed
            if all((p, v) in solved_edges for p in parents_obs(g, v))
        }

    def refresh_solved_nodes(self) -> None:
        self.solved_nodes = self._derive_solved_nodes(
            self.graph, self.solved_edges
        )

    def unsolved_parents(self, v: str) -> frozenset[str]:
        return frozenset(
            p
            for p in parents_obs(self.graph, v)
            if (p, v) not in self.solved_edges
        )


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the combined search; `None` caps mean unbounded."""

    cap_det_pairs: Optional[int] = None
    cap_h_size: Optional[int] = None
    simplify_wz_loop: bool = False
    cap_recursion: Optional[int] = None
    enable_det: bool = True
    enable_elf: bool = True
    enable_recursion: bool = True
    legacy_lf_htc_only: bool = False

    def __post_init__(self) -> None:
        for cap in (self.cap_det_pairs, self.cap_h_size, self.cap_recursion):
            if cap is not None and cap < 0:
                raise ValueError("caps must be >= 0")


# -- direct criterion checks ----------------------------------------------


def _elf_side_conditions(
    g: LatentFactorGraph,
    v: str,
    w_v: frozenset[str],
    y: frozenset[str],
    z: frozenset[str],
    w_z: dict[str, frozenset[str]],
    h: frozenset[str],
) -> bool:
    """Set-theoretic conditions of the extended criterion, sans the flow."""
    if not w_v <= parents_obs(g, v):
        return False
    if set(w_z) != set(z):
        return False
    for zz, ws in w_z.items():
        if not ws <= parents_obs(g, zz):
            return False
    w_big = frozenset().union(*w_z.values()) if w_z else frozenset()
    z1 = frozenset(zz for zz in z if w_z[zz] < parents_obs(g, zz))
    # condition (i)
    if len(z) != len(h) or len(y) != len(w_v | z | w_big):
        return False
    if v in z or (z1 & (w_big | w_v)):
        return False
    # condition (ii)
    if y & (z | {v}):
        return False
    shared = parents_lat_of_set(g, y) & parents_lat_of_set(g, z | {v})
    if not shared <= h:
        return False
    return True


def parents_lat_of_set(g: LatentFactorGraph, s: Iterable[str]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for n in s:
        out |= parents_lat(g, n)
    return out


def check_elf_htc(
    g: LatentFactorGraph,
    v: str,
    w_v: Iterable[str],
    y: Iterable[str],
    z: Iterable[str],
    w_z: dict[str, Iterable[str]],
    h: Iterable[str],
) -> bool:
    """Direct check of the extended half-trek criterion for a given
    witness tuple; returns False on malformed inputs."""
    w_v = frozenset(w_v)
    y = frozenset(y)
    z = frozenset(z)
    h = frozenset(h)
    w_z_sets = {zz: frozenset(ws) for zz, ws in w_z.items()}
    try:
        if not _elf_side_conditions(g, v, w_v, y, z, w_z_sets, h):
            return False
        w_big = (
            frozenset().union(*w_z_sets.values()) if w_z_sets else frozenset()
        )
        net = build_elf_flow(g, v, y, z, w_big, w_v)
        return max_flow(net) == len(w_v | z | w_big)
    except GraphError:
        return False


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


def verify_certificate(
    g: LatentFactorGraph, cert: Certificate
) -> bool:
    """Re-verify a recorded certificate from scratch."""
    if isinstance(cert, HtcCertificate):
        return check_elf_htc(
            g, cert.v, cert.w_v, cert.y, cert.z, cert.w_z(), cert.h
        )
    dec_v = descendants(g, [cert.v])
    if dec_v & (cert.t | {cert.v}):
        return False
    if len(cert.s) != len(cert.t) + 1:
        return False
    if cert.t & {cert.v, cert.w0}:
        return False
    net = build_det_flow(g)
    k = len(cert.s)
    srcs = [orig(n) for n in cert.s]
    full = net.with_terminals(
        srcs, [primed(n) for n in cert.t | {cert.w0}]
    )
    if max_flow(full) != k:
        return False
    barred = net.without_arcs(
        {
            (primed(w), primed(cert.v))
            for w in cert.deleted_parents | {cert.w0}
        }
    ).with_terminals(srcs, [primed(n) for n in cert.t | {cert.v}])
    return max_flow(barred) < k


# -- half-trek subprocedure (extended, or legacy as a mode) ---------------


def _wz_choices(
    g: LatentFactorGraph,
    state: IdentificationState,
    zz: str,
    cfg: SearchConfig,
) -> list[frozenset[str]]:
    """Candidate conditioning sets W_z for the sink `zz`: its unsolved
    parents plus subsets of its solved parents, by ascending added size
    then lexicographic. The legacy criterion conditions on nothing."""
    if cfg.legacy_lf_htc_only:
        return [frozenset()]
    base = state.unsolved_parents(zz)
    if cfg.simplify_wz_loop:
        return [base]
    extras = sorted(parents_obs(g, zz) - base)
    out = []
    for size in range(len(extras) + 1):
        for combo in combinations(extras, size):
            out.append(base | frozenset(combo))
    return out


def _elf_allowed_sources(
    g: LatentFactorGraph,
    state: IdentificationState,
    v: str,
    z: frozenset[str],
    h: frozenset[str],
) -> frozenset[str]:
    """The candidate source pool A."""
    targets = z | {v}
    reachable = htr(g, targets, h)
    blocked_lat = parents_lat_of_set(g, targets) - h
    pool = (
        frozenset(g.observed)
        - targets
        - children(g, blocked_lat)
        - (reachable - state.solved_nodes)
    )
    # Sources whose formula rows would need covariances that are no
    # longer computable in the current subgraph are unusable.
    col_targets = {v} | parents_obs(g, v) | z
    for zz in z:
        col_targets |= parents_obs(g, zz)
    ok = set()
    for a in pool:
        needed = {a}
        if a in reachable:
            needed |= parents_obs(g, a)
        if all(
            cov_pair(x, t) in state.allowed_cov
            for x in needed
            for t in col_targets
        ):
            ok.add(a)
    return frozenset(ok)


def elf_htc_subprocedure(
    g: LatentFactorGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Search for extended-criterion witnesses solving edges into `v`.

    Iterates small latent sets H, sink sets Z among the children of H,
    and conditioning sets W_z; each max-flow success solves the edges
    p -> v for p in W_v minus (Z2 union W_Z) and the search continues
    with the shrunken W_v.

    Under `cfg.legacy_lf_htc_only` this is the original node-wise
    criterion: W_v is every observed parent of `v`, the sinks are solved
    non-parents and every W_z is empty, so W_v never shrinks and all
    edges into `v` are solved at once or not at all.
    """
    if cfg.legacy_lf_htc_only:
        w_v = parents_obs(g, v)
        sink_pool = state.solved_nodes - w_v
    else:
        w_v = state.unsolved_parents(v)
        sink_pool = frozenset(g.observed)
    if not w_v:
        return state

    lat_pool = [h for h in sorted(g.latent) if len(children(g, [h])) >= 4]
    max_h = len(lat_pool)
    if cfg.cap_h_size is not None:
        max_h = min(max_h, cfg.cap_h_size)

    for h_size in range(max_h + 1):
        for h_combo in combinations(lat_pool, h_size):
            h = frozenset(h_combo)
            z_pool = sorted((children(g, h) - {v}) & sink_pool)
            for z_combo in combinations(z_pool, h_size):
                z = frozenset(z_combo)
                sources = _elf_allowed_sources(g, state, v, z, h)
                options = [_wz_choices(g, state, zz, cfg) for zz in z_combo]
                for w_choice in product(*options):
                    w_z_map = dict(zip(z_combo, w_choice))
                    w_big = frozenset().union(*w_choice) if w_choice else frozenset()
                    z1 = frozenset(
                        zz for zz in z if w_z_map[zz] < parents_obs(g, zz)
                    )
                    if z1 & (w_big | w_v):
                        continue
                    target = len(w_v | z | w_big)
                    net = build_elf_flow(
                        g, v, sources, z, w_big, w_v, det=state.flow_net
                    )
                    value, carrying = max_flow_sources(net)
                    if value != target:
                        continue
                    z2 = z - z1
                    # Only the legacy W_v can hold solved parents.
                    newly = sorted(
                        p
                        for p in w_v - (z2 | w_big)
                        if (p, v) not in state.solved_edges
                    )
                    if not newly:
                        continue
                    cert = HtcCertificate(
                        v=v,
                        w_v=w_v,
                        y=carrying,
                        z=z,
                        w_z_map=tuple(
                            sorted((zz, ws) for zz, ws in w_z_map.items())
                        ),
                        h=h,
                    )
                    state.solved_edges.update((p, v) for p in newly)
                    state.certificates.append(
                        CertRecord(
                            edges=tuple((p, v) for p in newly),
                            cert=cert,
                            depth=len(state.deleted_edges),
                            deleted=state.deleted_edges,
                        )
                    )
                    w_v = w_v & (z2 | w_big)
                    if not w_v:
                        state.refresh_solved_nodes()
                        return state
    state.refresh_solved_nodes()
    return state


# -- determinantal subprocedure -------------------------------------------


def _lex_rank(positions: Sequence[int], n: int) -> int:
    """Index of the increasing tuple `positions` among
    `combinations(range(n), len(positions))`."""
    k = len(positions)
    return comb(n, k) - 1 - sum(
        comb(n - 1 - c, k - j) for j, c in enumerate(positions)
    )


def _det_pairs(
    obs: list[str],
    t_literal: list[str],
    s_pool: list[str],
    t_pool: list[str],
    t_allowed: dict[str, frozenset[str]],
    cap: Optional[int],
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The literal (S, T) pairs, S from `obs` and T from `t_literal`, that
    pass the determinantal filters, in the literal lexicographic order.

    S is drawn from `s_pool` and T from the members of `t_pool` allowed
    against every source in S; both pools are sorted subsequences of the
    literal ones, so the order is the literal order with the failing
    pairs left out. A pair's literal index is the number of literal pairs
    before it; the pairs stop at the first index that reaches `cap`.
    """
    s_rank = {n: i for i, n in enumerate(obs)}
    t_rank = {n: i for i, n in enumerate(t_literal)}
    offset = 0  # literal index of the first pair with |S| = k
    for k in range(1, len(obs) + 1):
        if k > len(s_pool) or k - 1 > len(t_pool):
            return
        if cap is not None and offset >= cap:
            return
        stride = comb(len(t_literal), k - 1)  # literal T's per S
        for s_combo in combinations(s_pool, k):
            common = frozenset.intersection(*(t_allowed[s] for s in s_combo))
            candidates = [t for t in t_pool if t in common]
            if cap is not None:
                s_index = offset + stride * _lex_rank(
                    [s_rank[s] for s in s_combo], len(obs)
                )
                if s_index >= cap:
                    return
            for t_combo in combinations(candidates, k - 1):
                if cap is not None and s_index + _lex_rank(
                    [t_rank[t] for t in t_combo], len(t_literal)
                ) >= cap:
                    return
                yield s_combo, t_combo
        offset += comb(len(obs), k) * stride


def det_subprocedure(
    g: LatentFactorGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Search for determinantal witnesses solving single edges into `v`.

    For each unsolved parent w0 the literal candidates are the pairs
    (S, T), S a k-subset of the observed nodes and T a (k-1)-subset of
    those other than v and w0, in lexicographic order by k, S, T;
    `cfg.cap_det_pairs` bounds how many of them one w0 may consider. A
    pair is tried only when T avoids the descendants of v and every
    covariance of S against T, v, w0 and the solved parents is allowed,
    so the pools are filtered once per w0 and only passing pairs are
    visited.
    """
    pa = parents_obs(g, v)
    dec_v = descendants(g, [v])
    if v in dec_v:
        return state
    obs = sorted(g.observed)
    allowed = state.allowed_cov
    base = state.flow_net

    for w0 in sorted(pa):
        if (w0, v) in state.solved_edges:
            continue
        solved_parents = frozenset(
            p for p in pa if (p, v) in state.solved_edges
        )
        fixed_targets = solved_parents | {v, w0}
        s_pool = [
            s
            for s in obs
            if all(cov_pair(s, t) in allowed for t in fixed_targets)
        ]
        t_literal = [n for n in obs if n not in (v, w0)]
        t_pool = [n for n in t_literal if n not in dec_v]
        t_allowed = {
            s: frozenset(t for t in t_pool if cov_pair(s, t) in allowed)
            for s in s_pool
        }
        barred = base.without_arcs(
            {(primed(w), primed(v)) for w in solved_parents | {w0}}
        )
        for s_combo, t_combo in _det_pairs(
            obs, t_literal, s_pool, t_pool, t_allowed, cfg.cap_det_pairs
        ):
            k = len(s_combo)
            srcs = [orig(n) for n in s_combo]
            full = base.with_terminals(
                srcs, [primed(n) for n in t_combo + (w0,)]
            )
            if max_flow(full) != k:
                continue
            cut = barred.with_terminals(
                srcs, [primed(n) for n in t_combo + (v,)]
            )
            if max_flow(cut) >= k:
                continue
            state.solved_edges.add((w0, v))
            state.certificates.append(
                CertRecord(
                    edges=((w0, v),),
                    cert=DetCertificate(
                        v=v,
                        w0=w0,
                        deleted_parents=solved_parents,
                        s=frozenset(s_combo),
                        t=frozenset(t_combo),
                        source_contains_target=v in s_combo,
                    ),
                    depth=len(state.deleted_edges),
                    deleted=state.deleted_edges,
                )
            )
            break
    state.refresh_solved_nodes()
    return state


# -- allowed-covariance bookkeeping ---------------------------------------


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


# -- combined algorithm ----------------------------------------------------


def combined_algorithm(
    g: LatentFactorGraph, cfg: SearchConfig = SearchConfig()
) -> IdentificationState:
    """Run the full identification search to a fixpoint.

    Returns the top-level state; certificates found inside edge-deleted
    subgraphs are recorded with their recursion depth and deletion
    context, and the edges they solve are lifted into the result. The
    determinantal flow network of `g` is compiled once; each subgraph of
    the edge-deletion recursion uses it with its deleted edges' arcs
    closed.
    """
    state = IdentificationState.fresh(g)
    memo: dict[tuple, frozenset[Edge]] = {}
    solved = _search(
        g,
        g,
        state.flow_net,
        frozenset(state.solved_edges),
        state.allowed_cov,
        (),
        cfg,
        state.certificates,
        memo,
    )
    state.solved_edges = set(solved)
    state.refresh_solved_nodes()
    return state


def _search(
    root: LatentFactorGraph,
    g: LatentFactorGraph,
    net: FlowNetwork,
    solved_in: frozenset[Edge],
    allowed: frozenset[CovPair],
    deleted: tuple[Edge, ...],
    cfg: SearchConfig,
    records: list[CertRecord],
    memo: dict[tuple, frozenset[Edge]],
) -> frozenset[Edge]:
    key = (g.edges_obs, solved_in)
    hit = memo.get(key)
    if hit is not None:
        return hit

    state = IdentificationState(
        graph=g,
        solved_edges=set(solved_in),
        solved_nodes=set(),
        allowed_cov=allowed,
        deleted_edges=deleted,
        certificates=records,
        flow_net=net,
    )
    state.refresh_solved_nodes()
    all_nodes = set(g.observed)

    while True:
        before = set(state.solved_edges)
        for v in sorted(g.observed):
            if v in state.solved_nodes:
                continue
            if cfg.enable_elf:
                elf_htc_subprocedure(g, state, v, cfg)
            if v in state.solved_nodes:
                continue
            if cfg.enable_det:
                det_subprocedure(g, state, v, cfg)
        state.refresh_solved_nodes()
        if state.solved_nodes == all_nodes:
            break

        recursion_open = cfg.enable_recursion and (
            cfg.cap_recursion is None or len(deleted) < cfg.cap_recursion
        )
        if recursion_open:
            for edge in sorted(state.solved_edges):
                if edge not in g.edges_obs:
                    continue
                w, v = edge
                # Descendants are taken in the root graph so that the
                # resulting allowed set depends only on the union of all
                # deleted edges, not on the deletion order.
                dec_v = descendants(root, [v])
                # The subgraph's allowed set drops every pair touching
                # dec_v, and both subprocedures need a covariance with the
                # head of the edge they solve: when every unsolved edge
                # points into dec_v, neither it nor any deeper deletion can
                # solve anything.
                if all_nodes - state.solved_nodes <= dec_v:
                    continue
                sub_graph = g.without_obs_edges({edge})
                sub_allowed = allowed_update(
                    root, state.allowed_cov, v, {w}, state.solved_edges, dec_v
                )
                entry = frozenset(state.solved_edges) - {edge}
                result = _search(
                    root,
                    sub_graph,
                    without_edges(net, [edge]),
                    entry,
                    sub_allowed,
                    deleted + (edge,),
                    cfg,
                    records,
                    memo,
                )
                state.solved_edges.update(result)
                state.refresh_solved_nodes()
                if state.solved_nodes == all_nodes:
                    break
        if state.solved_nodes == all_nodes:
            break
        if state.solved_edges == before:
            break

    out = frozenset(state.solved_edges)
    memo[key] = out
    return out

