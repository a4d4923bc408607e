"""Flow-network builders and the vertex-disjoint-paths solver."""

import random

import pytest

from latentid.catalog import builtin_graph
from latentid import flow
from latentid.flow import (
    FlowFrame,
    FlowNetwork,
    build_det_flow,
    build_elf_flow,
    flow_numbers,
    max_flow,
    max_flow_cut,
    max_flow_sources,
    orig,
    primed,
    without_edges,
)
from latentid.graph import CompiledGraph, GraphError, LatentFactorGraph

from oracles import disjoint_paths_bruteforce, random_latent_factor_graph


class TestBuildDetFlow:
    def test_single_edge_arcs(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        net = build_det_flow(g)
        assert set(net.arcs) == {
            (orig("2"), orig("1")),
            (orig("1"), primed("1")),
            (orig("2"), primed("2")),
            (primed("1"), primed("2")),
        }
        assert all(c == 1 for c in net.arcs.values())
        assert all(c == 1 for c in net.node_capacity.values())

    def test_empty_graph(self):
        g = LatentFactorGraph([], [], [], [])
        net = build_det_flow(g)
        assert not net.arcs and not net.node_capacity

    def test_fig4a_network_size(self):
        g = builtin_graph("fig4a")
        net = build_det_flow(g)
        # 6 observed + 1 latent, originals plus primed copies.
        assert len(net.node_capacity) == 14

    def test_fig4a_example_flow(self):
        g = builtin_graph("fig4a")
        net = build_det_flow(g).with_terminals(
            [orig(n) for n in ("2", "3", "4")],
            [primed(n) for n in ("1", "2", "4")],
        )
        assert max_flow(net) == 3


class TestBuildElfFlow:
    def test_sink_structure_fig2b(self):
        g = builtin_graph("fig2b")
        net = build_elf_flow(
            g, "3", allowed={"1", "2"}, z={"4"}, w_z=set(), w_v={"2"}
        )
        assert set(net.sinks) == {primed("2"), primed("4")}
        # No primed arc may enter a conditioned sink from an observed edge.
        assert not any(
            w == primed("4") and u[1] in g.observed
            for (u, w) in net.arcs
        )

    def test_empty_sinks(self):
        g = builtin_graph("fig2a")
        net = build_elf_flow(
            g, "4", allowed={"1"}, z=set(), w_z=set(), w_v=set()
        )
        assert net.sinks == ()
        assert max_flow(net) == 0

    def test_source_overlap_rejected(self):
        g = builtin_graph("fig2a")
        with pytest.raises(GraphError):
            build_elf_flow(
                g, "4", allowed={"4"}, z=set(), w_z=set(), w_v={"3"}
            )

    def test_fig6_example_flow(self):
        # The half-trek system {1->5, 2<-h1->6, 3} carries three units.
        g = builtin_graph("fig2a")
        net = build_elf_flow(
            g,
            "4",
            allowed={"1", "2", "3", "5"},
            z={"6"},
            w_z={"5"},
            w_v={"3"},
        )
        value, carriers = max_flow_sources(net)
        assert value == 3
        assert carriers <= {"1", "2", "3", "5"}
        assert len(carriers) == 3


class TestMaxFlowSolver:
    def test_no_sinks(self):
        net = FlowNetwork({orig("1"): 1}, {}, (orig("1"),), ())
        assert max_flow(net) == 0

    def test_matches_bruteforce_on_random_networks(self):
        rng = random.Random(3)
        checked = 0
        while checked < 120:
            g = random_latent_factor_graph(
                rng, max_obs=4, max_lat=1, acyclic=False
            )
            net = build_det_flow(g)
            obs = sorted(g.observed)
            sources = [orig(n) for n in obs if rng.random() < 0.5]
            sinks = [primed(n) for n in obs if rng.random() < 0.5]
            if not sources or not sinks:
                continue
            net = net.with_terminals(sources, sinks)
            assert max_flow(net) == disjoint_paths_bruteforce(net)
            checked += 1

    def test_elf_networks_match_bruteforce(self):
        rng = random.Random(8)
        checked = 0
        while checked < 60:
            g = random_latent_factor_graph(
                rng, max_obs=4, max_lat=1, acyclic=False
            )
            obs = sorted(g.observed)
            v = rng.choice(obs)
            rest = [n for n in obs if n != v]
            z = {n for n in rest if rng.random() < 0.3}
            allowed = {n for n in rest if n not in z and rng.random() < 0.7}
            w_v = {n for n in rest if rng.random() < 0.5}
            net = build_elf_flow(g, v, allowed, z, set(), w_v)
            if not net.sources or not net.sinks:
                continue
            assert max_flow(net) == disjoint_paths_bruteforce(net)
            checked += 1

    def test_monotone_under_arc_removal(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_latent_factor_graph(rng, max_obs=5, acyclic=False)
            net = build_det_flow(g).with_terminals(
                [orig(n) for n in g.observed],
                [primed(n) for n in g.observed],
            )
            before = max_flow(net)
            arcs = sorted(net.arcs)
            if not arcs:
                continue
            removed = arcs[rng.randrange(len(arcs))]
            assert max_flow(net.without_arcs([removed])) <= before

    def test_relabel_invariance(self):
        g = builtin_graph("fig4a")
        mapping = {"1": "a", "2": "b", "3": "c", "4": "d", "5": "e", "6": "f"}
        g2 = LatentFactorGraph(
            [mapping[n] for n in g.observed],
            list(g.latent),
            [(mapping[a], mapping[b]) for a, b in sorted(g.edges_obs)],
            [(h, mapping[b]) for h, b in sorted(g.edges_lat)],
        )
        n1 = build_det_flow(g).with_terminals(
            [orig(n) for n in ("2", "3", "4")],
            [primed(n) for n in ("1", "2", "4")],
        )
        n2 = build_det_flow(g2).with_terminals(
            [orig(mapping[n]) for n in ("2", "3", "4")],
            [primed(mapping[n]) for n in ("1", "2", "4")],
        )
        assert max_flow(n1) == max_flow(n2)

    def test_carrying_sources_consistent(self):
        g = builtin_graph("fig2a")
        net = build_elf_flow(
            g,
            "4",
            allowed={"1", "2", "3", "5"},
            z={"6"},
            w_z={"5"},
            w_v={"3"},
        )
        value, carriers = max_flow_sources(net)
        restricted = net.with_terminals(
            [orig(n) for n in carriers], net.sinks
        )
        assert max_flow(restricted) == value


class TestMaxFlowCut:
    def test_cut_bounds_other_terminals(self):
        """The cut of a flow below its sink count bounds the flow between
        any other terminals, in the network and in every network with
        edges deleted from it; it holds every unused source and no unused
        sink."""
        rng = random.Random(23)
        failing = rejected = 0
        for i in range(300):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            obs = sorted(g.observed)
            edges = sorted(g.edges_obs | g.edges_lat)
            det = build_det_flow(g)
            entry = dict(zip(obs, flow_numbers(det, map(orig, obs))))
            exit_ = dict(zip(obs, flow_numbers(det, map(primed, obs))))
            # A chain of networks, each with more edges deleted.
            chain = [det]
            for _ in range(2):
                chain.append(
                    without_edges(
                        chain[-1],
                        rng.sample(edges, rng.randint(0, min(3, len(edges)))),
                    )
                )
            for level, net in enumerate(chain[:-1]):
                s1 = rng.sample(obs, rng.randint(1, len(obs)))
                t1 = rng.sample(obs, rng.randint(1, len(obs)))
                one = net.with_terminals(map(orig, s1), map(primed, t1))
                value, entered, exited = max_flow_cut(one)
                assert value == max_flow(one)
                if value == len(t1):
                    assert entered == exited == 0
                    continue
                failing += 1
                e = {n for n in obs if entered >> entry[n] & 1}
                x = {n for n in obs if exited >> exit_[n] & 1}
                assert set(s1) - max_flow_sources(one)[1] <= e
                # Dropping a used sink drops the flow by one; dropping an
                # unused one would not.
                for t in x & set(t1):
                    rest = [primed(n) for n in t1 if n != t]
                    assert max_flow(net.with_terminals(map(orig, s1), rest)) == (
                        value - 1
                    )
                arcs = value - len(set(s1) - e) - len(set(t1) & x)
                for _ in range(10):
                    s2 = s1
                    if rng.random() < 0.5:
                        s2 = rng.sample(obs, rng.randint(1, len(obs)))
                    # As in the determinantal search, |T2| = |S2|.
                    t2 = rng.sample(obs, len(s2))
                    bound = arcs + len(set(s2) - e) + len(set(t2) & x)
                    for sub in chain[level:]:
                        flow = max_flow(
                            sub.with_terminals(map(orig, s2), map(primed, t2))
                        )
                        assert flow <= bound, (g, s1, t1, s2, t2)
                    rejected += bound < len(s2)
        assert failing > 100 and rejected > 50


def random_mask(rng, n, avoid=0):
    return rng.getrandbits(n) & ~avoid


def complete_graph(g):
    """`g` with every ordered pair of observed nodes joined."""
    obs = sorted(g.observed)
    return LatentFactorGraph(
        obs,
        g.latent,
        [(a, b) for a in obs for b in obs if a != b],
        g.edges_lat,
    )


def elf_reference(g, det, view, v, a, z, t):
    """`build_elf_flow`'s network of `g`, derived from `det`, for node v,
    sources `a` and sink set Z `z`, with the primed copies of `t` as its
    sinks: the network `FlowFrame.solve` solves for (a, z, t), built by
    name."""
    net = build_elf_flow(
        g, view.names[v], view.nodes(a), view.nodes(z), (), (), det
    )
    return net.with_terminals(net.sources, map(primed, view.nodes(t)))


def random_graph_of_size(rng, low, high, acyclic):
    """A `random_latent_factor_graph` with `low` to `high` observed nodes."""
    while True:
        g = random_latent_factor_graph(
            rng, max_obs=high, max_lat=2, acyclic=acyclic
        )
        if len(g.observed) >= low:
            return g


def solve_outcome(frame, residual, a, t, ref):
    """Check `frame.solve(residual, a, t)` against the name-keyed solvers
    on `ref`, the same network built by name: the flow value; when the
    flow reaches the sinks, the carrying sources; when it falls short with
    a source unused, `max_flow_cut`'s cut read through `frame.numbers`,
    and no cut when every source is used. Returns which of the three
    happened."""
    value, carrying, cut = frame.solve(residual, a, t)
    ref_value, used = max_flow_sources(ref)
    assert value == ref_value
    if value == t.bit_count():
        assert (carrying, cut) == (used, None)
        return "succeeded"
    assert carrying == frozenset()
    if value == a.bit_count():
        assert cut is None
        return "saturated"
    _, entered, exited = max_flow_cut(ref)
    assert cut == (
        sum(1 << j for j, (o, _) in enumerate(frame.numbers) if entered >> o & 1),
        sum(1 << j for j, (_, p) in enumerate(frame.numbers) if exited >> p & 1),
    )
    return "cut"


def as_network(frame, residual):
    """`residual`, a network of `frame`, as a name-keyed `FlowNetwork`."""
    return flow._network(frame.det._compiled, residual, (), ())


class TestFlowFrame:
    def test_solve_matches_name_keyed_flows(self):
        """`solve` on masks gives what the name-keyed solvers give on the
        same network (`solve_outcome`): on `build_elf_flow`'s networks,
        and on determinantal networks, full, barred (`barred`) and with an
        edge deleted (`without_edge`). Graphs of 13 and 14 observed nodes
        give masks past the `bits` table."""
        rng = random.Random(37)
        outcomes = {"elf": [], "det": []}
        wide = 0
        for i in range(240):
            acyclic = i % 2 == 0
            if i % 4 < 2:
                g = random_latent_factor_graph(
                    rng, max_obs=7, max_lat=2, acyclic=acyclic
                )
            else:
                g = random_graph_of_size(rng, 13, 14, acyclic)
            view = CompiledGraph(g)
            n = len(view.names)
            det = build_det_flow(g)
            frame = FlowFrame(det, view)
            full = frame.det_network(view)
            assert full == det._residual
            base = frame.base(full)
            for _ in range(6):
                v = rng.randrange(n)
                z = random_mask(rng, n, 1 << v) & random_mask(rng, n)
                a = random_mask(rng, n, 1 << v | z)
                w_v = view.pa[v] & random_mask(rng, n)
                w_z = random_mask(rng, n) & random_mask(rng, n)
                t = w_v | z | w_z
                ref = build_elf_flow(
                    g,
                    view.names[v],
                    view.nodes(a),
                    view.nodes(z),
                    view.nodes(w_z),
                    view.nodes(w_v),
                    det,
                )
                outcomes["elf"].append(
                    solve_outcome(frame, frame.network(base, a, z), a, t, ref)
                )
                wide += max(a, t) >= 1 << 10

                # Determinantal flows from S to T, |T| = |S| as in the
                # determinantal search, in the full network, the barred
                # one of v and the one with an edge deleted.
                s = random_mask(rng, n) or 1 << v
                t = 0
                for j in rng.sample(range(n), s.bit_count()):
                    t |= 1 << j
                removed = view.pa[v] & random_mask(rng, n)
                nets = [
                    (full, det),
                    (
                        frame.barred(full, v, removed),
                        det.without_arcs(
                            (primed(w), primed(view.names[v]))
                            for w in view.nodes(removed)
                        ),
                    ),
                ]
                if g.edges_obs:
                    edge = rng.choice(sorted(g.edges_obs))
                    a_, b_ = (view.index[x] for x in edge)
                    nets.append(
                        (
                            frame.without_edge(full, a_, b_),
                            without_edges(det, [edge]),
                        )
                    )
                for residual, net in nets:
                    ref = net.with_terminals(
                        map(orig, view.nodes(s)), map(primed, view.nodes(t))
                    )
                    outcomes["det"].append(
                        solve_outcome(frame, residual, s, t, ref)
                    )
        # With |T| = |S| a determinantal flow that uses every source
        # succeeds, so it never falls short saturated.
        for kind, low in (("elf", (200, 400, 500)), ("det", (3000, 300, 0))):
            counts = [
                outcomes[kind].count(o)
                for o in ("succeeded", "cut", "saturated")
            ]
            assert all(c >= m for c, m in zip(counts, low)), (kind, counts)
        assert wide > 500

    def test_cut_bounds_other_terminals(self):
        """The cut `FlowFrame.solve` reads from a failing eLF-HTC flow to
        sinks T in the network N(A, Z), as (c, E, X) with c = f - |A - E|
        - |T ∩ X|, bounds the flow to any T' in N(A', Z') by c + |A' - E|
        + |T' ∩ X|, for any A' and any Z' ⊇ Z: in the network and in
        every network with edges deleted from it."""
        rng = random.Random(29)
        failing = rejected = 0
        for i in range(300):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            view = CompiledGraph(g)
            n = len(view.names)
            det = build_det_flow(g)
            elf = FlowFrame(det, view)
            edges = sorted(g.edges_obs)
            # A chain of networks, each with more edges deleted.
            chain = [det]
            for _ in range(2):
                chain.append(
                    without_edges(
                        chain[-1],
                        rng.sample(edges, rng.randint(0, min(3, len(edges)))),
                    )
                )

            def solve(net, a, z, t):
                return elf.solve(
                    elf.network(elf.base(net._residual), a, z), a, t
                )

            for level in (0, 0, 1, 1):
                net = chain[level]
                v = 1 << rng.randrange(n)
                z = random_mask(rng, n, v) & random_mask(rng, n)
                a = random_mask(rng, n, v | z)
                t = random_mask(rng, n) or v
                value, carrying, cut = solve(net, a, z, t)
                one = elf_reference(g, net, view, v.bit_length() - 1, a, z, t)
                value_ref, used = max_flow_sources(one)
                assert value == value_ref
                if value == t.bit_count():
                    assert (carrying, cut) == (used, None)
                    continue
                # No cut when every source carries a unit.
                assert (cut is None) == (value == a.bit_count())
                if cut is None:
                    continue
                failing += 1
                e, x = cut
                # The cut holds every unused source.
                assert not a & ~e & ~sum(1 << view.index[u] for u in used)
                c = value - (a & ~e).bit_count() - (t & x).bit_count()
                for _ in range(10):
                    z2 = z | random_mask(rng, n, v) & random_mask(rng, n)
                    a2 = a
                    if rng.random() < 0.5:
                        a2 = random_mask(rng, n, v | z2)
                    t2 = random_mask(rng, n) or v
                    bound = c + (a2 & ~e).bit_count() + (t2 & x).bit_count()
                    for sub in chain[level:]:
                        flow = solve(sub, a2, z2, t2)[0]
                        assert flow <= bound, (g, a, z, t, a2, z2, t2)
                    rejected += bound < t2.bit_count()
        assert failing > 100 and rejected > 500

    def test_frame_networks_solve_alike(self):
        """A graph's networks derived from the frame of the complete graph
        over its nodes hold the same arcs and give the same eLF-HTC and
        determinantal flows, carrying sources and cuts as the networks
        compiled from the graph itself, in subgraphs too."""
        rng = random.Random(31)
        for i in range(150):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            view = CompiledGraph(g)
            n = len(view.names)
            own = FlowFrame(build_det_flow(g), view)
            complete = complete_graph(g)
            frame = FlowFrame(
                build_det_flow(complete), CompiledGraph(complete)
            )
            assert frame.fits(view) and own.fits(view)
            assert not own.fits(CompiledGraph(complete)) or (
                g.edges_obs == complete.edges_obs
            )
            pairs = [(own.det_network(view), frame.det_network(view), view)]
            for edge in sorted(g.edges_obs):
                if rng.random() < 0.3:
                    a, b = (view.index[x] for x in edge)
                    mine, theirs, sub = pairs[-1]
                    pairs.append(
                        (
                            own.without_edge(mine, a, b),
                            frame.without_edge(theirs, a, b),
                            sub.without_edge(a, b),
                        )
                    )
            for mine, theirs, sub in pairs:
                ours, others = as_network(own, mine), as_network(frame, theirs)
                assert ours.arcs == others.arcs
                assert ours.node_capacity == others.node_capacity
                assert frame.det_network(sub) == theirs
                assert own.det_network(sub) == mine
                for _ in range(4):
                    v = 1 << rng.randrange(n)
                    z = random_mask(rng, n, v) & random_mask(rng, n)
                    a = random_mask(rng, n, v | z)
                    t = random_mask(rng, n)
                    results = [
                        (
                            elf.solve(elf.network(elf.base(net), a, z), a, t),
                            elf.solve(net, a, t),
                        )
                        for elf, net in ((own, mine), (frame, theirs))
                    ]
                    assert results[0] == results[1]
