"""Identification criteria and the combined search.

Implements the half-trek style criterion check, the extended subprocedure
with per-sink conditioning sets, the determinantal subprocedure, the
allowed-covariance bookkeeping for edge-deleted subgraphs, and the
fixpoint search tying them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from . import rank
from .flow import FlowFrame
from .graph import (
    CompiledGraph,
    Edge,
    LatentFactorGraph,
    bits,
)

# Minimum cuts (c, E, X) of rejected flows, by the sink set Z of the
# eLF-HTC network they were solved in (0 for a determinantal network): the
# flow from a source set A to a sink set T in the network of any Z' ⊇ Z
# is at most c + |A - E| + |T ∩ X|.
CutStore = dict[int, set[tuple[int, int, int]]]


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

    @property
    def source_contains_target(self) -> bool:
        return self.v in self.s

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
    deleted: tuple[Edge, ...]

    @property
    def depth(self) -> int:
        return len(self.deleted)

    def to_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "certificate": self.cert.to_dict(),
            "recursion_depth": self.depth,
            "deleted_edges": [list(e) for e in self.deleted],
        }


# -- state and configuration ----------------------------------------------


@dataclass
class Verdict:
    """Which edges a sound criterion could ever solve, shared by every
    state of one search. A subgraph's solved edges lift into the root
    graph, so an edge whose coefficient is not locally identifiable there
    is solved by no state. `parents[i]` masks the parents of node i whose
    edges are locally identifiable in the root graph
    (`rank.identifiable_parents`), or every parent when that is undefined
    mod p. Until the verdict is taken `parents` is None, and every edge
    counts as identifiable."""

    parents: Optional[Sequence[int]] = None


@dataclass
class IdentificationState:
    """Mutable search state threaded through the subprocedures.

    `view` is the state's graph, compiled, and `flow_net` the residual of
    its determinantal network in `frame`; the subprocedures derive every
    network they solve from it. The allowed covariance pairs are
    `allowed_rows`, one bitmask row per node in `view`'s numbering: bit y
    of row x is set when the pair (x, y) is allowed. Inside the
    edge-deletion recursion `view` is a subgraph's (`without_edge`).

    `solved_pa[i]` holds the parents of node i whose edges are solved, the
    one record of the solved edges; `solved_edges` names them and
    `solved_mask` holds the solved nodes. `open_mask` holds the nodes with
    an unsolved parent edge that the shared `verdict` counts as
    identifiable, the nodes the search still works on. Both masks are
    derived on construction (and when the verdict is taken) and kept
    current by `solve`. The base of its eLF-HTC networks
    (`FlowFrame.base`) and the covariance matrix mod p are built on first
    use and kept for the state's lifetime; `frame` is bound to the root
    graph, and keeps the networks and flows of every state of the search.

    `cuts` keeps the minimum cuts of the full determinantal flows rejected
    and `elf_cuts` those of the eLF-HTC flows rejected, each as a chain of
    stores: the state's own first, in which it keeps its cuts, then those
    of the states whose networks contain this one's (its ancestors in the
    edge-deletion recursion), nearest first, which bound its flows too."""

    view: CompiledGraph
    solved_pa: list[int]
    deleted_edges: tuple[Edge, ...]
    certificates: list[CertRecord]
    frame: FlowFrame = field(repr=False, compare=False)
    flow_net: bytes = field(repr=False, compare=False)
    allowed_rows: tuple[int, ...] = field(repr=False, compare=False)
    cuts: tuple[CutStore, ...] = field(repr=False, compare=False)
    elf_cuts: tuple[CutStore, ...] = field(repr=False, compare=False)
    verdict: Verdict = field(
        default_factory=Verdict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._derive_masks()
        self._elf_base: Optional[bytes] = None

    def _derive_masks(self) -> None:
        ident = self._verdict_seen = self.verdict.parents
        solved = open_ = 0
        for i, pa in enumerate(self.view.pa):
            unsolved = pa & ~self.solved_pa[i]
            if not unsolved:
                solved |= 1 << i
            elif ident is None or unsolved & ident[i]:
                open_ |= 1 << i
        self.solved_mask, self.open_mask = solved, open_

    def take_verdict(self, root: CompiledGraph) -> None:
        """Take the shared verdict for the root graph `root`."""
        parents = rank.identifiable_parents(root)
        self.verdict.parents = parents or [-1] * len(root.names)
        self._derive_masks()

    def sync_verdict(self) -> None:
        """Re-derive `open_mask` if a state sharing the verdict has taken
        it since."""
        if self._verdict_seen is not self.verdict.parents:
            self._derive_masks()

    @classmethod
    def fresh(
        cls, g: LatentFactorGraph, frame: Optional[FlowFrame] = None
    ) -> "IdentificationState":
        """The root state of `g`, its compiled graph and determinantal
        network taken from `frame` bound to `g`: `frame` itself when it is
        bound to a graph equal to `g`, else `frame` bound here (a
        GraphError when it does not hold `g`), or a frame compiled from
        `g` and bound to it when none is given."""
        if frame is None:
            view = CompiledGraph(g)
            frame = FlowFrame(view).bind(g, view)
        elif frame.graph != g:
            frame = frame.bind(g)
        view = frame.root
        n = len(view.names)
        return cls(
            view=view,
            solved_pa=[0] * n,
            deleted_edges=(),
            certificates=[],
            frame=frame,
            flow_net=frame.root_net,
            allowed_rows=(view.all,) * n,
            cuts=({},),
            elf_cuts=({},),
        )

    def without_edge(
        self, a: int, b: int, dec_v: int
    ) -> "IdentificationState":
        """The state of the subgraph with the solved edge a -> b deleted,
        whose head's descendants in the root graph are `dec_v`: its edges
        solved but that one, its allowed rows after `_rows_update`, the
        same certificate list, and a new own cut store ahead of this
        state's chains. Node b's solved status is unchanged, as its
        parents lose the same bit."""
        view = self.view
        edge = (view.names[a], view.names[b])
        solved_pa = self.solved_pa.copy()
        solved_pa[b] &= ~(1 << a)
        return IdentificationState(
            view=view.without_edge(a, b),
            solved_pa=solved_pa,
            deleted_edges=self.deleted_edges + (edge,),
            certificates=self.certificates,
            frame=self.frame,
            flow_net=self.frame.without_edge(self.flow_net, a, b),
            allowed_rows=_rows_update(self.allowed_rows, b, dec_v),
            cuts=({},) + self.cuts,
            elf_cuts=({},) + self.elf_cuts,
            verdict=self.verdict,
        )

    @property
    def solved_edges(self) -> frozenset[Edge]:
        """The solved edges, by name."""
        names = self.view.names
        return frozenset(
            (names[p], names[c])
            for c, pa in enumerate(self.solved_pa)
            for p in bits(pa)
        )

    def solve(self, v: int, parents: int) -> tuple[Edge, ...]:
        """Mark the edges from `parents` into node `v` solved; returns
        them, by name and in sorted order."""
        view = self.view
        names = view.names
        self.solved_pa[v] |= parents
        # Only node v's entries change.
        unsolved = view.pa[v] & ~self.solved_pa[v]
        if not unsolved & self.identifiable(v):
            self.open_mask &= ~(1 << v)
            if not unsolved:
                self.solved_mask |= 1 << v
        return tuple((names[p], names[v]) for p in bits(parents))

    def unsolved_parents(self, v: int) -> int:
        """The parents of node `v` whose edges are not solved, as a mask."""
        return self.view.pa[v] & ~self.solved_pa[v]

    def identifiable(self, v: int) -> int:
        """The parents of node `v` whose edges the verdict counts as
        identifiable, as a mask (all bits set before it is taken)."""
        parents = self.verdict.parents
        return -1 if parents is None else parents[v]

    def elf_network(self, sources: int, z: int) -> bytes:
        """The eLF-HTC network of this state's graph for the source set
        `sources` and sink set Z `z`, as `FlowFrame.network` gives it."""
        if self._elf_base is None:
            self._elf_base = self.frame.base(self.flow_net)
        return self.frame.network(self._elf_base, sources, z)

    @cached_property
    def covariance(self) -> Optional[rank.Covariance]:
        """The covariance matrix of this state's graph at `rank`'s fixed
        parameter point, or None when it is undefined mod p."""
        return rank.covariance(self.view)


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


def _observed_mask(view: CompiledGraph, nodes: Iterable[str]) -> Optional[int]:
    """The mask of `nodes`, or None when one is not an observed node."""
    mask = 0
    for n in nodes:
        i = view.index.get(n)
        if i is None:
            return None
        mask |= 1 << i
    return mask


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
    witness tuple, with its flow solved on a frame compiled from `g`;
    returns False on malformed inputs."""
    view = CompiledGraph(g)
    z, h = frozenset(z), frozenset(h)
    if set(w_z) != z or len(z) != len(h):
        return False
    masks = [_observed_mask(view, nodes) for nodes in (w_v, y, z, [v])]
    w_z_masks = {zz: _observed_mask(view, ws) for zz, ws in w_z.items()}
    if None in masks or None in w_z_masks.values():
        return False
    w_v_m, y_m, z_m, v_m = masks
    pa = view.pa
    if w_v_m & ~pa[view.index[v]]:
        return False
    w_big = z1 = 0
    for zz, ws in w_z_masks.items():
        i = view.index[zz]
        if ws & ~pa[i]:
            return False
        w_big |= ws
        if ws != pa[i]:
            z1 |= 1 << i
    sinks = w_v_m | z_m | w_big
    # condition (i)
    if y_m.bit_count() != sinks.bit_count():
        return False
    if z_m & v_m or z1 & (w_big | w_v_m):
        return False
    # condition (ii)
    if y_m & (z_m | v_m):
        return False
    lat_y = lat_zv = 0
    for i in bits(y_m):
        lat_y |= view.pa_lat[i]
    for i in bits(z_m | v_m):
        lat_zv |= view.pa_lat[i]
    if any(view.latent[j] not in h for j in bits(lat_y & lat_zv)):
        return False
    frame = FlowFrame(view)
    net = frame.network(frame.base(frame.det_network(view)), y_m, z_m)
    return frame.solve(net, y_m, sinks)[0] == sinks.bit_count()


def verify_certificate(
    g: LatentFactorGraph, cert: Certificate
) -> bool:
    """Re-verify a recorded certificate from scratch, with its flows solved
    on a frame compiled from `g`."""
    if isinstance(cert, HtcCertificate):
        return check_elf_htc(
            g, cert.v, cert.w_v, cert.y, cert.z, cert.w_z(), cert.h
        )
    view = CompiledGraph(g)
    names = ([cert.v], [cert.w0], cert.deleted_parents, cert.s, cert.t)
    masks = [_observed_mask(view, nodes) for nodes in names]
    if None in masks:
        return False
    v_m, w0_m, deleted, s, t = masks
    v = view.index[cert.v]
    others = view.pa[v] & ~w0_m
    if not view.pa[v] & w0_m or deleted & ~others:
        return False
    if view.descendants(v) & (t | v_m):
        return False
    if s.bit_count() != t.bit_count() + 1:
        return False
    if t & (v_m | w0_m):
        return False
    frame = FlowFrame(view)
    full = frame.det_network(view)
    k = s.bit_count()
    if frame.solve(full, s, t | w0_m)[0] != k:
        return False
    barred = frame.barred(full, v, deleted | w0_m)
    return frame.solve(barred, s, t | v_m)[0] < k


# -- kept minimum cuts ----------------------------------------------------


def _cut_bounds(
    stores: Iterable[CutStore], z: int, sources: int, top: int
) -> list[tuple[int, int]]:
    """The kept cuts (c, E, X) of `stores` whose Z lies inside `z`, as
    bounds (b, X) for the source set `sources`, b = c + |A - E|: each
    bounds the flow to sinks T by b + |T ∩ X|. Only bounds with b below
    `top` are kept."""
    bounds = []
    for store in stores:
        for z_cut, cuts in store.items():
            if z_cut & ~z:
                continue
            for c, e, x in cuts:
                b = c + (sources & ~e).bit_count()
                if b < top:
                    bounds.append((b, x))
    return bounds


def _keep_cut(
    store: CutStore,
    z: int,
    sources: int,
    sinks: int,
    value: int,
    cut: tuple[int, int],
) -> tuple[int, int]:
    """Keep in `store`, under `z`, the cut (E, X) that `FlowFrame.solve`
    read from a flow of `value` from `sources` to `sinks`, as (c, E, X)
    with c = value - |A - E| - |T ∩ X|; returns its bound for `sources`."""
    e, x = cut
    b = value - (x & sinks).bit_count()
    store.setdefault(z, set()).add((b - (sources & ~e).bit_count(), e, x))
    return b, x


# -- half-trek subprocedure (extended, or legacy as a mode) ---------------


def _wz_choices(
    state: IdentificationState, zz: int, cfg: SearchConfig
) -> list[int]:
    """Candidate conditioning sets W_z for the sink `zz`, as masks: its
    unsolved parents plus subsets of its solved parents, by ascending
    added size then lexicographic. The legacy criterion conditions on
    nothing."""
    if cfg.legacy_lf_htc_only:
        return [0]
    base = state.unsolved_parents(zz)
    if cfg.simplify_wz_loop:
        return [base]
    extras = list(bits(state.view.pa[zz] & ~base))
    out = []
    for size in range(len(extras) + 1):
        for combo in combinations(extras, size):
            out.append(base | sum(1 << p for p in combo))
    return out


def _elf_allowed_sources(
    state: IdentificationState, v: int, z: int, h: int
) -> int:
    """The candidate source pool A, as a mask, for the node `v`, the sink
    set `z` and the latent set `h`."""
    view, rows = state.view, state.allowed_rows
    pa, pa_lat, lat_ch = view.pa, view.pa_lat, view.lat_ch
    targets = z | 1 << v
    # Per target t: the nodes its half-treks avoiding H reach (`htr`), the
    # children of its latent parents outside H, and the nodes allowed
    # against t and its parents.
    reachable = blocked = 0
    good = view.all
    for t in bits(targets):
        reach = view.descendants(t)
        for j in bits(pa_lat[t] & ~h):
            reach |= view.lat_reach(j)
            blocked |= lat_ch[j]
        reachable |= reach & ~(1 << t)
        good &= rows[t]
        for c in bits(pa[t]):
            good &= rows[c]
    # Sources whose formula rows would need covariances that are no
    # longer computable in the current subgraph are unusable: a source
    # needs its own row, and a reachable one its parents' rows, allowed
    # against every column target (the targets and their parents).
    ok = (
        view.all
        & ~targets
        & ~blocked
        & ~(reachable & ~state.solved_mask)
        & good
    )
    for a in bits(ok & reachable):
        if pa[a] & ~good:
            ok ^= 1 << a
    return ok


def elf_htc_subprocedure(
    g: LatentFactorGraph | CompiledGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Search for extended-criterion witnesses solving edges into `v`.

    Iterates small latent sets H, sink sets Z among the children of H,
    and conditioning sets W_z; each max-flow success solves the edges
    p -> v for p in W_v minus (Z2 union W_Z) and the search continues
    with the shrunken W_v. `g` is the graph of `state`, read through
    `state.view`.

    A flow is the last resort. A flow never exceeds its source count |A|,
    so an (H, Z) pair is skipped, before its network is built, when A is
    smaller than the sinks every W_z choice has (W_v, Z and, but for the
    legacy criterion, the unsolved parents of Z), and a single choice when
    A is smaller than its sinks. A choice is also skipped when the cut of
    an eLF-HTC flow rejected before, in this subgraph or one containing it
    (`state.elf_cuts`), bounds its flow below its sink count.

    Under `cfg.legacy_lf_htc_only` this is the original node-wise
    criterion: W_v is every observed parent of `v`, the sinks are solved
    non-parents and every W_z is empty, so W_v never shrinks and all
    edges into `v` are solved at once or not at all.
    """
    view = state.view
    i = view.index[v]
    legacy = cfg.legacy_lf_htc_only
    unsolved = state.unsolved_parents(i)
    ident = state.identifiable(i)
    # No witness solves an edge that is not identifiable, and a legacy
    # witness solves every unsolved edge into v at once.
    if not unsolved & ident or legacy and unsolved & ~ident:
        return state
    if legacy:
        w_v = view.pa[i]
        sink_pool = state.solved_mask & ~w_v
    else:
        w_v = unsolved
        sink_pool = view.all

    lat_pool = [
        j for j, kids in enumerate(view.lat_ch) if kids.bit_count() >= 4
    ]
    max_h = len(lat_pool)
    if cfg.cap_h_size is not None:
        max_h = min(max_h, cfg.cap_h_size)
    frame, stores = state.frame, state.elf_cuts
    kept = stores[0]
    pa, solved_pa = view.pa, state.solved_pa

    for h_size in range(max_h + 1):
        for h_combo in combinations(lat_pool, h_size):
            h = 0
            for j in h_combo:
                h |= 1 << j
            z_pool = bits(view.lat_children(h) & ~(1 << i) & sink_pool)
            for z_combo in combinations(z_pool, h_size):
                # Z, and the sinks of every W_z choice and of the largest
                # one.
                z = 0
                least = most = w_v
                for zz in z_combo:
                    z |= 1 << zz
                    if not legacy:
                        least |= pa[zz] & ~solved_pa[zz]
                        most |= pa[zz]
                least |= z
                most |= z
                sources = _elf_allowed_sources(state, i, z, h)
                size_a = sources.bit_count()
                if size_a < least.bit_count():
                    continue
                # The kept cuts that bound the flow below some choice's
                # sink count.
                bounds = _cut_bounds(
                    stores, z, sources, min(size_a, most.bit_count())
                )
                options = [_wz_choices(state, zz, cfg) for zz in z_combo]
                net = None
                for w_choice in product(*options):
                    w_big = z1 = 0
                    for zz, ws in zip(z_combo, w_choice):
                        w_big |= ws
                        if ws != pa[zz]:
                            z1 |= 1 << zz
                    if z1 & (w_big | w_v):
                        continue
                    sinks = w_v | z | w_big
                    size = sinks.bit_count()
                    if size > size_a or bounds and any(
                        b + (x & sinks).bit_count() < size for b, x in bounds
                    ):
                        continue
                    if net is None:
                        net = state.elf_network(sources, z)
                    value, carrying, cut = frame.solve(net, sources, sinks)
                    if value != size:
                        if cut is not None:
                            bounds.append(
                                _keep_cut(kept, z, sources, sinks, value, cut)
                            )
                        continue
                    z2 = z & ~z1
                    # Only the legacy W_v can hold solved parents.
                    newly = w_v & ~(z2 | w_big) & ~state.solved_pa[i]
                    if not newly:
                        continue
                    cert = HtcCertificate(
                        v=v,
                        w_v=view.nodes(w_v),
                        y=carrying,
                        z=view.nodes(z),
                        w_z_map=tuple(
                            (view.names[zz], view.nodes(ws))
                            for zz, ws in zip(z_combo, w_choice)
                        ),
                        h=frozenset(view.latent[j] for j in h_combo),
                    )
                    state.certificates.append(
                        CertRecord(
                            edges=state.solve(i, newly),
                            cert=cert,
                            deleted=state.deleted_edges,
                        )
                    )
                    w_v &= z2 | w_big
                    if not w_v:
                        return state
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
    n: int,
    t_literal: int,
    s_pool: list[int],
    t_pool: list[int],
    t_allowed: dict[int, int],
    cap: Optional[int],
    cov: Optional[rank.Covariance],
    column: list[int],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The literal (S, T) pairs, S from the `n` nodes and T from the
    nodes of the mask `t_literal`, that pass the determinantal filters, in
    the literal lexicographic order.

    S is drawn from `s_pool` and T from the members of `t_pool` allowed
    against every source in S (the masks `t_allowed`); both pools are
    sorted subsequences of the literal ones. Of those, only the T's whose
    minor of Σ (`cov`) on the rows S and the columns T with `column`
    appended vanishes mod p come through, reduced once per S by
    `rank.vanishing_minors`; every T does when `cov` is None. So the
    order is the literal order with the failing pairs left out. A pair's
    literal index is the number of literal pairs before it; the pairs
    stop at the first index that reaches `cap`.
    """
    t_count = t_literal.bit_count()
    offset = 0  # literal index of the first pair with |S| = k
    for k in range(1, n + 1):
        if k > len(s_pool) or k - 1 > len(t_pool):
            return
        if cap is not None and offset >= cap:
            return
        stride = comb(t_count, k - 1)  # literal T's per S
        for s_combo in combinations(s_pool, k):
            common = t_literal
            for s in s_combo:
                common &= t_allowed[s]
            candidates = tuple(bits(common))
            if cap is not None:
                s_index = offset + stride * _lex_rank(s_combo, n)
                if s_index >= cap:
                    return
            if cov is None:
                t_combos = combinations(candidates, k - 1)
            else:
                t_combos = rank.vanishing_minors(
                    cov.sigma, column, s_combo, candidates
                )
            for t_combo in t_combos:
                if cap is not None:
                    # A literal T position counts the literal T nodes below.
                    t_pos = [
                        (t_literal & (1 << t) - 1).bit_count() for t in t_combo
                    ]
                    if s_index + _lex_rank(t_pos, t_count) >= cap:
                        return
                yield s_combo, t_combo
        offset += comb(n, k) * stride


def det_subprocedure(
    g: LatentFactorGraph | CompiledGraph,
    state: IdentificationState,
    v: str,
    cfg: SearchConfig,
) -> IdentificationState:
    """Search for determinantal witnesses solving single edges into `v`.

    For each unsolved parent w0 whose edge the state's verdict counts as
    identifiable, the literal candidates are the pairs
    (S, T), S a k-subset of the observed nodes and T a (k-1)-subset of
    those other than v and w0, in lexicographic order by k, S, T;
    `cfg.cap_det_pairs` bounds how many of them one w0 may consider. A
    pair is tried only when T avoids the descendants of v and every
    covariance of S against T, v, w0 and the solved parents is allowed,
    so the pools are filtered once per w0 and only passing pairs are
    visited. A pair is rejected without a flow when its barred minor
    (rows S; columns T and v with the edges from w0 and the solved
    parents deleted) is nonzero at the fixed point of `rank`, which means
    a barred flow of k, or when the cut of a full flow rejected before, in
    this subgraph or one containing it (`state.cuts`), bounds its full
    flow below k; only the two flows accept a pair. The minors are
    reduced once per S, so that only the pairs whose minor vanishes are
    visited (`_det_pairs`). Neither filter depends on the other, and the
    kept cuts change only after a flow, so the same pairs reach the same
    flows in the same order as with the cut check first. `g` is the graph
    of `state`, read through `state.view`.
    """
    view, rows = state.view, state.allowed_rows
    i = view.index[v]
    dec_v = view.descendants(i)
    if dec_v >> i & 1:
        return state
    names = view.names
    n = len(names)
    frame, base = state.frame, state.flow_net
    stores = state.cuts

    # No witness solves an edge that is not identifiable.
    for w0 in bits(state.unsolved_parents(i) & state.identifiable(i)):
        solved_parents = state.solved_pa[i]
        removed = solved_parents | 1 << w0
        fixed = removed | 1 << i
        s_pool = [s for s in range(n) if rows[s] & fixed == fixed]
        t_literal = view.all & ~(1 << i | 1 << w0)
        t_pool_mask = t_literal & ~dec_v
        t_pool = list(bits(t_pool_mask))
        t_allowed = {s: rows[s] & t_pool_mask for s in s_pool}
        barred = frame.barred(base, i, removed)
        # T avoids the descendants of v, so its columns are the same in
        # the barred graph; a nonzero barred minor means a barred flow of
        # k, which no witness has, so `_det_pairs` leaves its pair out.
        cov = state.covariance
        column = [] if cov is None else cov.barred_column(i, removed)
        last_s = None
        for s_combo, t_combo in _det_pairs(
            n, t_literal, s_pool, t_pool, t_allowed, cfg.cap_det_pairs,
            cov, column,
        ):
            k = len(s_combo)
            if s_combo != last_s:
                last_s = s_combo
                s_mask = sum(1 << s for s in s_combo)
                bounds = _cut_bounds(stores, 0, s_mask, k)
            if bounds:
                sinks = sum(1 << t for t in t_combo) | 1 << w0
                if any(b + (x & sinks).bit_count() < k for b, x in bounds):
                    continue
            t_mask = sum(1 << t for t in t_combo)
            sinks = t_mask | 1 << w0
            value, _, cut = frame.solve(base, s_mask, sinks)
            if value != k:
                # With k sources and k sinks a failing flow leaves a source
                # unused, so it has a cut.
                bounds.append(
                    _keep_cut(stores[0], 0, s_mask, sinks, value, cut)
                )
                continue
            if frame.solve(barred, s_mask, t_mask | 1 << i)[0] >= k:
                continue
            state.certificates.append(
                CertRecord(
                    edges=state.solve(i, 1 << w0),
                    cert=DetCertificate(
                        v=v,
                        w0=names[w0],
                        deleted_parents=view.nodes(solved_parents),
                        s=frozenset(names[s] for s in s_combo),
                        t=frozenset(names[t] for t in t_combo),
                    ),
                    deleted=state.deleted_edges,
                )
            )
            break
    return state


# -- allowed-covariance bookkeeping ---------------------------------------


def _rows_update(rows: tuple[int, ...], v: int, dec_v: int) -> tuple[int, ...]:
    """The allowed rows after deleting edges into node `v`, whose
    descendants (in the root graph) are `dec_v`: a pair stays allowed
    when both members avoid `dec_v` and the pair is not (v, v). The rows
    do not depend on which parents lose their edge.

    `rows` must be reachable from the all-ones rows by such deletions.
    There the rule that a pair with `v` also needs its other member
    allowed against every removed parent never drops a pair: a pair
    (x, w) against a removed parent w is gone only when x or w lies in an
    earlier deletion's descendants, or x = w heads it, and then x's pairs,
    or those of v (a child of w), are gone already."""
    vbit = 1 << v
    out = []
    for x, row in enumerate(rows):
        if dec_v >> x & 1:
            out.append(0)
        elif x == v:
            out.append(row & ~dec_v & ~vbit)
        else:
            out.append(row & ~dec_v)
    return tuple(out)


# -- combined algorithm ----------------------------------------------------


def combined_algorithm(
    g: LatentFactorGraph,
    cfg: SearchConfig = SearchConfig(),
    frame: Optional[FlowFrame] = None,
) -> IdentificationState:
    """Run the full identification search to a fixpoint.

    Returns the top-level state; certificates found inside edge-deleted
    subgraphs are recorded with their recursion depth and deletion
    context, and the edges they solve are lifted into the result. The
    observed nodes of `g` are numbered once (`CompiledGraph`) and its
    determinantal flow network is derived from `frame` (a GraphError when
    the frame does not hold `g`), or from a frame compiled from `g` when
    none is given; each subgraph of the edge-deletion recursion
    is the root with its deleted edges' parent and child bits cleared and
    their arcs closed. The search runs on `frame` bound to `g`
    (`IdentificationState.fresh`), so calls that pass one frame bound to
    `g` share its compiled graph, networks and flows. A frame changes no
    result, only the work.
    """
    state = IdentificationState.fresh(g, frame)
    _search(state, state.view, cfg, {})
    return state


def _search(
    state: IdentificationState,
    root: CompiledGraph,
    cfg: SearchConfig,
    memo: dict[tuple, tuple[int, ...]],
) -> tuple[int, ...]:
    """Solve edges in `state` to a fixpoint, recursing into the subgraphs
    with one solved edge deleted; returns the solved parent masks. `root`
    is the root graph and `memo` holds the result of every (subgraph,
    solved edges) searched before.

    Only open nodes (`IdentificationState.open_mask`) are worked on: once
    the shared verdict is taken, a node whose unsolved edges are all not
    identifiable is left alone, in the node loop, the fixpoint exit and
    the decision to recurse. The subprocedures skip such edges too, and
    none of the skipped flows or minors could have accepted a pair, so
    the solved edges and certificates are those of the search without
    the verdict."""
    g = state.view
    key = (g.pa, tuple(state.solved_pa))
    hit = memo.get(key)
    if hit is not None:
        return hit

    while True:
        # Edges are only ever added, so the masks tell whether any was.
        before = tuple(state.solved_pa)
        for i, v in enumerate(g.names):
            if not state.open_mask >> i & 1:
                continue
            if cfg.enable_elf:
                elf_htc_subprocedure(g, state, v, cfg)
            if not state.open_mask >> i & 1:
                continue
            if cfg.enable_det:
                det_subprocedure(g, state, v, cfg)
        if not state.open_mask:
            break

        recursion_open = cfg.enable_recursion and (
            cfg.cap_recursion is None
            or len(state.deleted_edges) < cfg.cap_recursion
        )
        if recursion_open:
            # The solved edges a -> b in (a, b) order, their sorted-name
            # order, as they were before any lift.
            solved = state.solved_pa
            for a, b in sorted(
                (a, b) for b in range(len(solved)) for a in bits(solved[b])
            ):
                # Descendants are taken in the root graph so that the
                # resulting allowed set depends only on the union of all
                # deleted edges, not on the deletion order.
                dec_v = root.descendants(b)
                # The subgraph's allowed set drops every pair touching
                # dec_v, and both subprocedures need a covariance with the
                # head of the edge they solve: when every open node lies
                # in dec_v, neither it nor any deeper deletion can solve
                # anything.
                if not state.open_mask & ~dec_v:
                    continue
                # The verdict is taken once per root, when a subgraph is
                # about to recurse: most graphs that recurse at all are
                # done one deletion deep and never pay for it.
                if state.deleted_edges and state.verdict.parents is None:
                    state.take_verdict(root)
                    if not state.open_mask & ~dec_v:
                        continue
                result = _search(
                    state.without_edge(a, b, dec_v), root, cfg, memo
                )
                state.sync_verdict()
                for c, pa in enumerate(result):
                    if pa & ~state.solved_pa[c]:
                        state.solve(c, pa)
                if not state.open_mask:
                    break
        if not state.open_mask:
            break
        if tuple(state.solved_pa) == before:
            break

    out = tuple(state.solved_pa)
    memo[key] = out
    return out
