"""The flow frame's networks against the dict-based reference networks."""

import random

from latentid.flow import FlowFrame
from latentid.graph import CompiledGraph

from oracles import (
    frame_network,
    name_mask,
    orig,
    primed,
    random_latent_factor_graph,
    ref_build_det_flow,
    ref_build_elf_flow,
    solve_outcome,
)


class TestCompiledKernelMatchesReference:
    """Networks derived from one frame read and solve exactly like the
    dict-based networks built afresh per call: same nodes and arcs, same
    value, and the same carrying sources or cut (the carrying set depends
    on the order neighbours are visited in)."""

    @staticmethod
    def assert_same(frame, residual, sources, sinks, ref):
        named = frame_network(frame, residual)
        assert named.node_capacity == ref.node_capacity
        assert named.arcs == ref.arcs
        view = frame.view
        a, t = name_mask(view, sources), name_mask(view, sinks)
        assert ref.sources == tuple(sorted(map(orig, sources)))
        assert ref.sinks == tuple(sorted(map(primed, sinks)))
        solve_outcome(frame, residual, a, t, ref)

    def test_derived_networks_match_reference(self):
        rng = random.Random(21)
        for i in range(200):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            frame = FlowFrame(CompiledGraph(g))
            det = frame.det_network(frame.view)
            self.assert_same(frame, det, (), (), ref_build_det_flow(g))
            deleted = {e for e in sorted(g.edges_obs) if rng.random() < 0.3}
            sub = g.without_obs_edges(deleted)
            view = CompiledGraph(sub)
            sub_det = frame.det_network(view)
            ref_det = ref_build_det_flow(sub)
            self.assert_same(frame, sub_det, (), (), ref_det)
            obs = sorted(g.observed)
            for _ in range(4):
                sources = {n for n in obs if rng.random() < 0.5}
                sinks = {n for n in obs if rng.random() < 0.5}
                self.assert_same(
                    frame,
                    sub_det,
                    sources,
                    sinks,
                    ref_det.with_terminals(
                        map(orig, sources), map(primed, sinks)
                    ),
                )
                v = rng.choice(obs)
                barred = [
                    w
                    for w in obs
                    if (w, v) in sub.edges_obs and rng.random() < 0.6
                ]
                self.assert_same(
                    frame,
                    frame.barred(
                        sub_det, view.index[v], name_mask(view, barred)
                    ),
                    sources,
                    sinks,
                    ref_det.without_arcs(
                        (primed(w), primed(v)) for w in barred
                    ).with_terminals(map(orig, sources), map(primed, sinks)),
                )
                rest = [n for n in obs if n != v]
                z = {n for n in rest if rng.random() < 0.3}
                allowed = {
                    n for n in rest if n not in z and rng.random() < 0.7
                }
                w_z = {n for n in obs if rng.random() < 0.2}
                w_v = {n for n in rest if rng.random() < 0.5}
                ref_elf = ref_build_elf_flow(sub, v, allowed, z, w_z, w_v)
                a, z_m = name_mask(view, allowed), name_mask(view, z)
                own = FlowFrame(view)
                for elf, residual in (
                    (frame, sub_det),
                    (own, own.det_network(view)),
                ):
                    self.assert_same(
                        elf,
                        elf.network(elf.base(residual), a, z_m),
                        allowed,
                        w_z | z | w_v,
                        ref_elf,
                    )
