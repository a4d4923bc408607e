"""The flow frame's networks and its vertex-disjoint-paths solver, against
the dict-based reference networks and exhaustive search."""

import random

from latentid import flow
from latentid.catalog import builtin_graph
from latentid.criteria import check_elf_htc
from latentid.flow import FlowFrame
from latentid.graph import CompiledGraph, LatentFactorGraph

from oracles import (
    disjoint_paths_bruteforce,
    frame_network,
    name_mask,
    orig,
    primed,
    random_latent_factor_graph,
    ref_build_det_flow,
    ref_build_elf_flow,
    ref_solve,
    solve_outcome,
    without_named_arcs,
    without_obs_edges,
)


def compile_det(g):
    """The frame of `g`, its compiled graph and its determinantal
    network."""
    view = CompiledGraph(g)
    frame = FlowFrame(view)
    return frame, view, frame.det_network(view)


def elf_network(g, v, allowed, z):
    """The frame of `g`, its compiled graph and its eLF-HTC network for
    node `v`, sources `allowed` and sink set Z `z`."""
    frame, view, det = compile_det(g)
    net = frame.network(
        frame.base(det), name_mask(view, allowed), name_mask(view, z)
    )
    return frame, view, net


class TestBuildDetFlow:
    def test_single_edge_arcs(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        frame, _, det = compile_det(g)
        net = frame_network(frame, det)
        assert set(net.arcs) == {
            (orig("2"), orig("1")),
            (orig("1"), primed("1")),
            (orig("2"), primed("2")),
            (primed("1"), primed("2")),
        }
        assert set(net.node_capacity) == {
            orig("1"), orig("2"), primed("1"), primed("2")
        }

    def test_empty_graph(self):
        g = LatentFactorGraph([], [], [], [])
        frame, _, det = compile_det(g)
        net = frame_network(frame, det)
        assert not net.arcs and not net.node_capacity
        assert frame.solve(det, 0, 0)[0] == 0

    def test_fig4a_network_size(self):
        g = builtin_graph("fig4a")
        frame, _, det = compile_det(g)
        # 6 observed + 1 latent, originals plus primed copies.
        assert len(frame_network(frame, det).node_capacity) == 14

    def test_fig4a_example_flow(self):
        g = builtin_graph("fig4a")
        frame, view, det = compile_det(g)
        value, _, _ = frame.solve(
            det,
            name_mask(view, ("2", "3", "4")),
            name_mask(view, ("1", "2", "4")),
        )
        assert value == 3


class TestBuildElfFlow:
    def test_sink_structure_fig2b(self):
        g = builtin_graph("fig2b")
        frame, _, net = elf_network(g, "3", allowed={"1", "2"}, z={"4"})
        ref = ref_build_elf_flow(
            g, "3", allowed={"1", "2"}, z={"4"}, w_z=set(), w_v={"2"}
        )
        assert set(ref.sinks) == {primed("2"), primed("4")}
        named = frame_network(frame, net)
        assert named.node_capacity == ref.node_capacity
        assert named.arcs == ref.arcs
        # No primed arc may enter a conditioned sink from an observed edge.
        assert not any(
            w == primed("4") and u[1] in g.observed for (u, w) in named.arcs
        )

    def test_empty_sinks(self):
        g = builtin_graph("fig2a")
        frame, view, net = elf_network(g, "4", allowed={"1"}, z=set())
        assert frame.solve(net, name_mask(view, {"1"}), 0)[0] == 0

    def test_source_in_sinks_rejected(self):
        """A witness whose Y meets Z or v is rejected, though the flow
        from such a Y reaches every sink: a source in Z passes its own
        unit from its original to its primed copy."""
        g = builtin_graph("fig2a")
        witness = dict(w_v={"3"}, z={"6"}, w_z={"6": {"5"}}, h={"h1"})
        assert check_elf_htc(g, "4", y={"1", "2", "3"}, **witness)
        for y in ({"1", "3", "6"}, {"1", "3", "4"}):
            assert not check_elf_htc(g, "4", y=y, **witness), y
        y = {"1", "3", "6"}
        frame, view, net = elf_network(g, "4", allowed=y, z={"6"})
        sinks = name_mask(view, {"3", "5", "6"})
        assert frame.solve(net, name_mask(view, y), sinks)[0] == 3

    def test_fig6_example_flow(self):
        # The half-trek system {1->5, 2<-h1->6, 3} carries three units.
        g = builtin_graph("fig2a")
        allowed = {"1", "2", "3", "5"}
        frame, view, net = elf_network(g, "4", allowed, z={"6"})
        value, carriers, _ = frame.solve(
            net, name_mask(view, allowed), name_mask(view, {"3", "5", "6"})
        )
        assert value == 3
        assert carriers <= allowed
        assert len(carriers) == 3


class TestMaxFlowSolver:
    def test_no_sinks(self):
        g = LatentFactorGraph(["1"], [], [], [])
        frame, _, det = compile_det(g)
        assert frame.solve(det, 1, 0)[0] == 0

    def test_matches_bruteforce_on_random_networks(self):
        rng = random.Random(3)
        checked = 0
        while checked < 120:
            g = random_latent_factor_graph(
                rng, max_obs=4, max_lat=1, acyclic=False
            )
            frame, view, det = compile_det(g)
            obs = sorted(g.observed)
            sources = [n for n in obs if rng.random() < 0.5]
            sinks = [n for n in obs if rng.random() < 0.5]
            if not sources or not sinks:
                continue
            ref = ref_build_det_flow(g).with_terminals(
                map(orig, sources), map(primed, sinks)
            )
            value, _, _ = frame.solve(
                det, name_mask(view, sources), name_mask(view, sinks)
            )
            assert value == disjoint_paths_bruteforce(ref)
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
            ref = ref_build_elf_flow(g, v, allowed, z, set(), w_v)
            if not ref.sources or not ref.sinks:
                continue
            frame, view, net = elf_network(g, v, allowed, z)
            value, _, _ = frame.solve(
                net, name_mask(view, allowed), name_mask(view, w_v | z)
            )
            assert value == disjoint_paths_bruteforce(ref)
            checked += 1

    def test_monotone_under_arc_removal(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_latent_factor_graph(rng, max_obs=5, acyclic=False)
            frame, view, det = compile_det(g)
            every = view.all
            before = frame.solve(det, every, every)[0]
            arcs = sorted(frame_network(frame, det).arcs)
            if not arcs:
                continue
            removed = arcs[rng.randrange(len(arcs))]
            after = without_named_arcs(frame, det, [removed])
            assert frame.solve(after, every, every)[0] <= before

    def test_relabel_invariance(self):
        g = builtin_graph("fig4a")
        mapping = {"1": "a", "2": "b", "3": "c", "4": "d", "5": "e", "6": "f"}
        g2 = LatentFactorGraph(
            [mapping[n] for n in g.observed],
            list(g.latent),
            [(mapping[a], mapping[b]) for a, b in sorted(g.edges_obs)],
            [(h, mapping[b]) for h, b in sorted(g.edges_lat)],
        )
        values = []
        for graph, names in ((g, dict(zip(mapping, mapping))), (g2, mapping)):
            frame, view, det = compile_det(graph)
            values.append(
                frame.solve(
                    det,
                    name_mask(view, (names[n] for n in ("2", "3", "4"))),
                    name_mask(view, (names[n] for n in ("1", "2", "4"))),
                )[0]
            )
        assert values[0] == values[1]

    def test_carrying_sources_consistent(self):
        g = builtin_graph("fig2a")
        allowed = {"1", "2", "3", "5"}
        frame, view, net = elf_network(g, "4", allowed, z={"6"})
        sinks = name_mask(view, {"3", "5", "6"})
        value, carriers, _ = frame.solve(net, name_mask(view, allowed), sinks)
        restricted = frame.solve(net, name_mask(view, carriers), sinks)
        assert restricted[0] == value


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
            frame, view, det = compile_det(g)
            ref_det = ref_build_det_flow(g)

            def mask(nodes):
                return name_mask(view, nodes)

            # A chain of networks, each with more edges deleted.
            chain = [det]
            for _ in range(2):
                chain.append(
                    without_named_arcs(
                        frame,
                        chain[-1],
                        (
                            arc
                            for a, b in rng.sample(
                                edges, rng.randint(0, min(3, len(edges)))
                            )
                            for arc in (
                                (orig(b), orig(a)),
                                (primed(a), primed(b)),
                            )
                        ),
                    )
                )
            for level, net in enumerate(chain[:-1]):
                s1 = rng.sample(obs, rng.randint(1, len(obs)))
                t1 = rng.sample(obs, rng.randint(1, len(obs)))
                value, _, cut = frame.solve(net, mask(s1), mask(t1))
                named = frame_network(frame, net)
                if level == 0:
                    assert named.arcs == ref_det.arcs
                ref_value, used, _ = ref_solve(
                    named.with_terminals(map(orig, s1), map(primed, t1))
                )
                assert value == ref_value
                if value == len(t1):
                    assert cut is None
                    continue
                failing += 1
                entered, exited = cut or (0, 0)
                e = view.nodes(entered)
                x = view.nodes(exited)
                assert set(s1) - used <= e
                # Dropping a used sink drops the flow by one; dropping an
                # unused one would not.
                for t in x & set(t1):
                    rest = [n for n in t1 if n != t]
                    assert frame.solve(net, mask(s1), mask(rest))[0] == (
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
                        flow = frame.solve(sub, mask(s2), mask(t2))[0]
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


def random_graph_of_size(rng, low, high, acyclic):
    """A `random_latent_factor_graph` with `low` to `high` observed nodes."""
    while True:
        g = random_latent_factor_graph(
            rng, max_obs=high, max_lat=2, acyclic=acyclic
        )
        if len(g.observed) >= low:
            return g


class TestFlowFrame:
    def test_solve_matches_name_keyed_flows(self):
        """`solve` on masks gives what `ref_solve` gives on the same
        network built by name (`solve_outcome`): on eLF-HTC networks, and
        on determinantal networks, full, barred (`barred`) and with an
        edge deleted (`without_edge`); the frame's networks hold the
        reference's nodes and arcs. Graphs of 13 and 14 observed nodes
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
            frame, view, full = compile_det(g)
            n = len(view.names)
            det = ref_build_det_flow(g)
            named = frame_network(frame, full)
            assert (named.node_capacity, named.arcs) == (
                det.node_capacity,
                det.arcs,
            )
            base = frame.base(full)
            for _ in range(6):
                v = rng.randrange(n)
                z = random_mask(rng, n, 1 << v) & random_mask(rng, n)
                a = random_mask(rng, n, 1 << v | z)
                w_v = view.pa[v] & random_mask(rng, n)
                w_z = random_mask(rng, n) & random_mask(rng, n)
                t = w_v | z | w_z
                ref = ref_build_elf_flow(
                    g,
                    view.names[v],
                    view.nodes(a),
                    view.nodes(z),
                    view.nodes(w_z),
                    view.nodes(w_v),
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
                            ref_build_det_flow(without_obs_edges(g, {edge})),
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
            elf, view, det = compile_det(g)
            n = len(view.names)
            edges = sorted(g.edges_obs)
            # A chain of networks, each with more edges deleted, with the
            # graphs they belong to.
            chain = [(g, det)]
            for _ in range(2):
                graph, net = chain[-1]
                deleted = rng.sample(edges, rng.randint(0, min(3, len(edges))))
                for a, b in deleted:
                    net = elf.without_edge(net, view.index[a], view.index[b])
                sub = without_obs_edges(graph, set(deleted) & graph.edges_obs)
                chain.append((sub, net))

            def solve(net, a, z, t):
                return elf.solve(elf.network(elf.base(net), a, z), a, t)

            for level in (0, 0, 1, 1):
                graph, net = chain[level]
                v = 1 << rng.randrange(n)
                z = random_mask(rng, n, v) & random_mask(rng, n)
                a = random_mask(rng, n, v | z)
                t = random_mask(rng, n) or v
                value, carrying, cut = solve(net, a, z, t)
                one = ref_build_elf_flow(
                    graph,
                    view.names[v.bit_length() - 1],
                    view.nodes(a),
                    view.nodes(z),
                    (),
                    (),
                ).with_terminals(
                    map(orig, view.nodes(a)), map(primed, view.nodes(t))
                )
                value_ref, used, _ = ref_solve(one)
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
                assert not a & ~e & ~name_mask(view, used)
                c = value - (a & ~e).bit_count() - (t & x).bit_count()
                for _ in range(10):
                    z2 = z | random_mask(rng, n, v) & random_mask(rng, n)
                    a2 = a
                    if rng.random() < 0.5:
                        a2 = random_mask(rng, n, v | z2)
                    t2 = random_mask(rng, n) or v
                    bound = c + (a2 & ~e).bit_count() + (t2 & x).bit_count()
                    for _, sub in chain[level:]:
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
            own = FlowFrame(view)
            complete = complete_graph(g)
            frame = FlowFrame(CompiledGraph(complete))
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
                ours = frame_network(own, mine)
                others = frame_network(frame, theirs)
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


class TestBoundFrame:
    def test_solve_matches_unbound(self, monkeypatch):
        """A frame bound to a graph returns from `solve` exactly what the
        unbound frame returns (value, carrying sources, cut), on the
        graph's determinantal, subgraph, barred and eLF-HTC networks and
        on random terminals; a residual of the same kind and bytes, in a
        new object, is answered without running the kernel again."""
        runs = []
        augment = flow._augment
        monkeypatch.setattr(
            flow, "_augment", lambda *a: runs.append(1) or augment(*a)
        )
        rng = random.Random(59)
        solved = 0
        for i in range(80):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            frame = FlowFrame(CompiledGraph(complete_graph(g)))
            bound = frame.bind(g)
            view, det = bound.root, bound.root_net
            n = len(view.names)
            assert det == frame.det_network(view)
            nets = [det, bound.base(det)]
            sub = det
            for w, x in sorted(g.edges_obs):
                if rng.random() < 0.3:
                    sub = bound.without_edge(sub, view.index[w], view.index[x])
                    nets.append(sub)
            v = rng.randrange(n)
            nets.append(bound.barred(det, v, view.pa[v] & rng.getrandbits(n)))
            for _ in range(3):
                z = random_mask(rng, n)
                nets.append(bound.network(nets[1], random_mask(rng, n, z), z))
            for net in nets:
                for _ in range(4):
                    sources, sinks = random_mask(rng, n), random_mask(rng, n)
                    want = frame.solve(net, sources, sinks)
                    assert bound.solve(net, sources, sinks) == want
                    before = len(runs)
                    assert bound.solve(type(net)(net), sources, sinks) == want
                    assert len(runs) == before
                    solved += 1
        assert solved > 1000

    def test_kind_in_key(self, monkeypatch):
        """With no observed edge the determinantal residual and the eLF-HTC
        base hold equal bytes; a bound frame keeps a network and a flow of
        each kind apart, each as the unbound frame gives it."""
        runs = []
        augment = flow._augment
        monkeypatch.setattr(
            flow, "_augment", lambda *a: runs.append(1) or augment(*a)
        )
        g = LatentFactorGraph(
            ["1", "2", "3", "4"], ["h1"], [],
            [("h1", "1"), ("h1", "2"), ("h1", "4")],
        )
        frame = FlowFrame(CompiledGraph(complete_graph(g)))
        bound = frame.bind(g)
        det = bound.root_net
        base = bound.base(det)
        assert base == det and type(base) is not type(det)
        for net in (det, base):
            built = bound.network(net, 0b0011, 0b0100)
            assert type(built) is type(net)
            assert built == frame.network(net, 0b0011, 0b0100)
            assert bound.network(net, 0b0011, 0b0100) is built
        for sources, sinks in ((0b0011, 0b1100), (0b1001, 0b0110)):
            before = len(runs)
            for net in (det, base, det, base):
                assert bound.solve(net, sources, sinks) == frame.solve(
                    net, sources, sinks
                )
            # Two runs each by the unbound frame, one per kind by the bound.
            assert len(runs) - before == 6
