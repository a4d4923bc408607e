"""Flow-network builders and the vertex-disjoint-paths solver."""

import random

import pytest

from latentid.catalog import builtin_graph
from latentid.flow import (
    FlowNetwork,
    build_det_flow,
    build_elf_flow,
    max_flow,
    max_flow_sources,
    orig,
    primed,
)
from latentid.graph import GraphError, LatentFactorGraph

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
