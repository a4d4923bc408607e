"""The compiled flow kernel against the dict-based reference networks."""

import random

from latentid.flow import (
    build_det_flow,
    build_elf_flow,
    max_flow_sources,
    orig,
    primed,
    without_edges,
)

from oracles import (
    random_latent_factor_graph,
    ref_build_det_flow,
    ref_build_elf_flow,
    ref_solve,
)


class TestCompiledKernelMatchesReference:
    """Networks derived from one compiled determinantal network read and
    solve exactly like the dict-based networks built afresh per call:
    same nodes, arcs and terminals, same value and same carrying sources
    (the carrying set depends on the order neighbours are visited in)."""

    @staticmethod
    def assert_same(net, ref):
        assert net.node_capacity == ref.node_capacity
        assert net.arcs == ref.arcs
        assert net.sources == ref.sources
        assert net.sinks == ref.sinks
        assert max_flow_sources(net) == ref_solve(ref)

    def test_derived_networks_match_reference(self):
        rng = random.Random(21)
        for i in range(200):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            det = build_det_flow(g)
            self.assert_same(det, ref_build_det_flow(g))
            deleted = {e for e in sorted(g.edges_obs) if rng.random() < 0.3}
            sub = g.without_obs_edges(deleted)
            sub_det = without_edges(det, deleted)
            ref_det = ref_build_det_flow(sub)
            self.assert_same(sub_det, ref_det)
            obs = sorted(g.observed)
            for _ in range(4):
                sources = [orig(n) for n in obs if rng.random() < 0.5]
                sinks = [primed(n) for n in obs if rng.random() < 0.5]
                self.assert_same(
                    sub_det.with_terminals(sources, sinks),
                    ref_det.with_terminals(sources, sinks),
                )
                v = rng.choice(obs)
                barred = [
                    (primed(w), primed(v))
                    for w in obs
                    if (w, v) in sub.edges_obs and rng.random() < 0.6
                ]
                self.assert_same(
                    sub_det.without_arcs(barred).with_terminals(
                        sources, sinks
                    ),
                    ref_det.without_arcs(barred).with_terminals(
                        sources, sinks
                    ),
                )
                rest = [n for n in obs if n != v]
                z = {n for n in rest if rng.random() < 0.3}
                allowed = {
                    n for n in rest if n not in z and rng.random() < 0.7
                }
                w_z = {n for n in obs if rng.random() < 0.2}
                w_v = {n for n in rest if rng.random() < 0.5}
                ref_elf = ref_build_elf_flow(sub, v, allowed, z, w_z, w_v)
                self.assert_same(
                    build_elf_flow(sub, v, allowed, z, w_z, w_v, det=sub_det),
                    ref_elf,
                )
                self.assert_same(
                    build_elf_flow(sub, v, allowed, z, w_z, w_v), ref_elf
                )
