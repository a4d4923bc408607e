"""Identification criteria and the combined search.

Implements the half-trek style criterion check, the extended subprocedure
with per-sink conditioning sets, the determinantal subprocedure, the
allowed-covariance bookkeeping for edge-deleted subgraphs, and the
fixpoint search tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Optional

from .flow import (
    build_det_flow,
    build_elf_flow,
    max_flow,
    max_flow_sources,
    orig,
    primed,
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
    """Mutable search state threaded through the subprocedures."""

    graph: LatentFactorGraph
    solved_edges: set[Edge]
    solved_nodes: set[str]
    allowed_cov: frozenset[CovPair]
    deleted_edges: tuple[Edge, ...]
    certificates: list[CertRecord]

    @classmethod
    def fresh(cls, g: LatentFactorGraph) -> "IdentificationState":
        return cls(
            graph=g,
            solved_edges=set(),
            solved_nodes=cls._derive_solved_nodes(g, set()),
            allowed_cov=all_cov_pairs(g),
            deleted_edges=(),
            certificates=[],
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


# -- extended half-trek subprocedure --------------------------------------


def _superset_choices(
    base: frozenset[str], pool: frozenset[str], simplify: bool
) -> list[frozenset[str]]:
    """Candidate conditioning sets: `base` plus subsets of `pool` minus
    `base`, by ascending added size then lexicographic."""
    if simplify:
        return [base]
    extras = sorted(pool - base)
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
    """
    w_v = state.unsolved_parents(v)
    if not w_v:
        return state

    lat_pool = [h for h in sorted(g.latent) if len(children(g, [h])) >= 4]
    max_h = len(lat_pool)
    if cfg.cap_h_size is not None:
        max_h = min(max_h, cfg.cap_h_size)

    for h_size in range(max_h + 1):
        for h_combo in combinations(lat_pool, h_size):
            h = frozenset(h_combo)
            z_pool = sorted(children(g, h) - {v})
            for z_combo in combinations(z_pool, h_size):
                z = frozenset(z_combo)
                sources = _elf_allowed_sources(g, state, v, z, h)
                options = [
                    _superset_choices(
                        frozenset(
                            p
                            for p in parents_obs(g, zz)
                            if (p, zz) not in state.solved_edges
                        ),
                        parents_obs(g, zz),
                        cfg.simplify_wz_loop,
                    )
                    for zz in z_combo
                ]
                for w_choice in product(*options):
                    w_z_map = dict(zip(z_combo, w_choice))
                    w_big = frozenset().union(*w_choice) if w_choice else frozenset()
                    z1 = frozenset(
                        zz for zz in z if w_z_map[zz] < parents_obs(g, zz)
                    )
                    if z1 & (w_big | w_v):
                        continue
                    target = len(w_v | z | w_big)
                    net = build_elf_flow(g, v, sources, z, w_big, w_v)
                    value, carrying = max_flow_sources(net)
                    if value != target:
                        continue
                    z2 = z - z1
                    newly = sorted(w_v - (z2 | w_big))
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


def lf_htc_subprocedure(
    g: LatentFactorGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Original node-wise criterion: all edges into `v` are solved at once
    or not at all; the sink nodes Z must already be solved."""
    pa = parents_obs(g, v)
    lat_pool = [h for h in sorted(g.latent) if len(children(g, [h])) >= 4]
    max_h = len(lat_pool)
    if cfg.cap_h_size is not None:
        max_h = min(max_h, cfg.cap_h_size)

    for h_size in range(max_h + 1):
        for h_combo in combinations(lat_pool, h_size):
            h = frozenset(h_combo)
            z_pool = sorted(
                (children(g, h) & state.solved_nodes) - {v} - pa
            )
            for z_combo in combinations(z_pool, h_size):
                z = frozenset(z_combo)
                sources = _elf_allowed_sources(g, state, v, z, h)
                target = len(pa | z)
                net = build_elf_flow(g, v, sources, z, frozenset(), pa)
                value, carrying = max_flow_sources(net)
                if value != target:
                    continue
                cert = HtcCertificate(
                    v=v,
                    w_v=pa,
                    y=carrying,
                    z=z,
                    w_z_map=tuple((zz, frozenset()) for zz in sorted(z)),
                    h=h,
                )
                newly = tuple(
                    (p, v) for p in sorted(pa) if (p, v) not in state.solved_edges
                )
                state.solved_edges.update(newly)
                state.certificates.append(
                    CertRecord(
                        edges=newly,
                        cert=cert,
                        depth=len(state.deleted_edges),
                        deleted=state.deleted_edges,
                    )
                )
                state.solved_nodes.add(v)
                return state
    return state


# -- determinantal subprocedure -------------------------------------------

def det_subprocedure(
    g: LatentFactorGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Search for determinantal witnesses solving single edges into `v`."""
    pa = parents_obs(g, v)
    dec_v = descendants(g, [v])
    if v in dec_v:
        return state
    obs = sorted(g.observed)
    base = build_det_flow(g)

    for w0 in sorted(pa):
        if (w0, v) in state.solved_edges:
            continue
        solved_parents = frozenset(
            p for p in pa if (p, v) in state.solved_edges
        )
        barred = base.without_arcs(
            {(primed(w), primed(v)) for w in solved_parents | {w0}}
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
                        cov_pair(s, t) in state.allowed_cov
                        for s in s_combo
                        for t in cov_targets
                    ):
                        continue
                    srcs = [orig(n) for n in s_combo]
                    full = base.with_terminals(
                        srcs, [primed(n) for n in t_set | {w0}]
                    )
                    if max_flow(full) != k:
                        continue
                    cut = barred.with_terminals(
                        srcs, [primed(n) for n in t_set | {v}]
                    )
                    if max_flow(cut) >= k:
                        continue
                    cert = DetCertificate(
                        v=v,
                        w0=w0,
                        deleted_parents=solved_parents,
                        s=frozenset(s_combo),
                        t=t_set,
                        source_contains_target=v in s_combo,
                    )
                    state.solved_edges.add((w0, v))
                    state.certificates.append(
                        CertRecord(
                            edges=((w0, v),),
                            cert=cert,
                            depth=len(state.deleted_edges),
                            deleted=state.deleted_edges,
                        )
                    )
                    done = True
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
) -> frozenset[CovPair]:
    """Allowed covariance pairs after deleting the edges
    `removed_parents -> v` from `g`.

    A pair stays allowed when both members avoid the descendants of `v`,
    the pair is not (v, v), and — when one member is `v` itself — the
    auxiliary pairs against every removed parent were allowed before.
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
    context, and the edges they solve are lifted into the result.
    """
    state = IdentificationState.fresh(g)
    memo: dict[tuple, frozenset[Edge]] = {}
    solved = _search(
        g,
        g,
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
    )
    state.refresh_solved_nodes()
    all_nodes = set(g.observed)

    while True:
        before = set(state.solved_edges)
        for v in sorted(g.observed):
            if v in state.solved_nodes:
                continue
            if cfg.enable_elf:
                if cfg.legacy_lf_htc_only:
                    lf_htc_subprocedure(g, state, v, cfg)
                else:
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
                sub_graph = g.without_obs_edges({edge})
                # Descendants are taken in the root graph so that the
                # resulting allowed set depends only on the union of all
                # deleted edges, not on the deletion order.
                sub_allowed = allowed_update(
                    root, state.allowed_cov, v, {w}, state.solved_edges
                )
                entry = frozenset(state.solved_edges) - {edge}
                result = _search(
                    root,
                    sub_graph,
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


def is_graph_identified(
    state: IdentificationState, g: LatentFactorGraph
) -> bool:
    """True when every observed edge of `g` has been solved."""
    return g.edges_obs <= state.solved_edges
