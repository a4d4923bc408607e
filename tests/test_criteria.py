"""Identification criteria, the subprocedures, and the combined search."""

import hashlib
import json
import os
import random
import time
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from latentid import criteria, enumeration, flow, rank
from latentid.catalog import builtin_graph
from latentid.criteria import (
    CertRecord,
    DetCertificate,
    HtcCertificate,
    IdentificationState,
    SearchConfig,
    check_elf_htc,
    combined_algorithm,
    det_subprocedure,
    elf_htc_subprocedure,
    verify_certificate,
    _lex_rank,
)
from latentid.enumeration import (
    METHOD_PRESETS,
    PATTERNS,
    enumerate_dags,
    run_benchmark,
)
from latentid.flow import FlowFrame
from latentid.formulas import DeletionContext
from latentid.graph import (
    CompiledGraph,
    GraphError,
    LatentFactorGraph,
    UnknownNodeError,
    bits,
)

from oracles import (
    G7,
    all_cov_pairs,
    allowed_pairs,
    allowed_rows,
    allowed_update,
    check_lf_htc,
    children,
    cov_pair,
    descendants,
    frame_network,
    htr,
    jacobian_identifiable_edges,
    nonsingular,
    orig,
    parents_obs,
    primed,
    random_latent_factor_graph,
    ref_build_det_flow,
    ref_build_elf_flow,
    ref_det_subprocedure,
    ref_elf_allowed_sources,
    ref_elf_htc_subprocedure,
    ref_solve,
    ref_solved_nodes,
    ref_verify_certificate,
    without_obs_edges,
)

LEGACY = SearchConfig(
    legacy_lf_htc_only=True, enable_det=False, enable_recursion=False
)


def every_edge(view, point=None):
    """A verdict that counts every edge of `view` as identifiable."""
    return view.pa


@pytest.fixture
def unpruned(monkeypatch):
    """The search without identifiability pruning: a verdict that counts
    every edge as identifiable. Work counts measured through it are those
    of the search before the verdict existed."""
    monkeypatch.setattr(rank, "identifiable_parents", every_edge)


def scratch_state(root, deleted, solved, rows, frame):
    """The state of the subgraph of `root` with the edges `deleted`
    deleted, the edges `solved` but those solved and the allowed rows
    `rows`, built from scratch: the subgraph's own `CompiledGraph`, and
    its determinantal network derived from `frame`, a frame that holds
    `root`."""
    view = CompiledGraph(without_obs_edges(root, set(deleted)))
    solved_pa = [0] * len(view.names)
    for p, c in set(solved) - set(deleted):
        solved_pa[view.index[c]] |= 1 << view.index[p]
    return IdentificationState(
        view=view,
        solved_pa=solved_pa,
        deleted_edges=tuple(deleted),
        certificates=[],
        frame=frame,
        flow_net=frame.det_network(view),
        allowed_rows=rows,
        cuts=({},),
        elf_cuts=({},),
    )


class TestDirectChecks:
    def test_chain_shortcut_v4_witness(self):
        g = builtin_graph("fig2a")
        assert check_elf_htc(
            g,
            "4",
            w_v={"3"},
            y={"1", "2", "3"},
            z={"6"},
            w_z={"6": {"5"}},
            h={"h1"},
        )

    def test_two_proxy_v3_witness(self):
        g = builtin_graph("fig2b")
        assert check_elf_htc(
            g,
            "3",
            w_v={"2", "4"},
            y={"1", "2"},
            z={"4"},
            w_z={"4": set()},
            h={"h1"},
        )

    def test_wrong_cardinality_rejected(self):
        g = builtin_graph("fig2a")
        assert not check_elf_htc(
            g, "4", w_v={"3"}, y={"1", "2"}, z={"6"},
            w_z={"6": {"5"}}, h={"h1"},
        )

    def test_conditioning_set_necessity(self):
        # Edges into node 6 of the dense graph: the witness works only
        # when the sink node 4 is conditioned on its parent 2.
        g = builtin_graph("fig3")
        common = dict(
            w_v={"2", "3", "4", "5"},
            y={"1", "2", "3", "5"},
            z={"4"},
            h={"h1"},
        )
        assert check_elf_htc(g, "6", w_z={"4": {"2"}}, **common)
        assert not check_elf_htc(g, "6", w_z={"4": set()}, **common)

    def test_plain_criterion_fails_on_chain_shortcut_v4(self):
        g = builtin_graph("fig2a")
        obs = sorted(g.observed)
        from itertools import combinations

        for z in ([], ["6"]):
            h = ["h1"] if z else []
            for y in combinations([n for n in obs if n != "4"], 2 + len(z)):
                assert not check_lf_htc(g, "4", y, z, h)

    def test_plain_criterion_empty_system(self):
        g = builtin_graph("fig2a")
        assert check_lf_htc(g, "1", [], [], [])

    def test_plain_criterion_rejects_sink_parents(self):
        g = builtin_graph("fig2a")
        assert not check_lf_htc(g, "5", ["2", "3", "6"], ["4"], ["h1"])


class TestSubprocedures:
    def test_chain_shortcut_v4_found(self):
        g = builtin_graph("fig2a")
        state = IdentificationState.fresh(g)
        elf_htc_subprocedure(g, state, "4", SearchConfig())
        assert ("3", "4") in state.solved_edges
        cert = state.certificates[0].cert
        assert isinstance(cert, HtcCertificate)
        assert cert.w_v == frozenset({"3"})
        assert cert.y == frozenset({"1", "2", "3"})
        assert cert.z == frozenset({"6"})
        assert cert.w_z() == {"6": frozenset({"5"})}
        assert cert.h == frozenset({"h1"})

    def test_two_proxy_v3_found(self):
        g = builtin_graph("fig2b")
        state = IdentificationState.fresh(g)
        elf_htc_subprocedure(g, state, "3", SearchConfig())
        assert ("2", "3") in state.solved_edges
        cert = state.certificates[0].cert
        assert cert.w_v == frozenset({"2", "4"})
        assert cert.y == frozenset({"1", "2"})
        assert cert.z == frozenset({"4"})
        assert cert.w_z() == {"4": frozenset()}
        assert cert.h == frozenset({"h1"})

    def test_no_latents_nothing_to_solve(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        state = IdentificationState.fresh(g)
        elf_htc_subprocedure(g, state, "1", SearchConfig())
        assert not state.solved_edges

    def test_det_single_edge(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        state = IdentificationState.fresh(g)
        det_subprocedure(g, state, "2", SearchConfig())
        assert state.solved_edges == {("1", "2")}
        cert = state.certificates[0].cert
        assert isinstance(cert, DetCertificate)
        assert cert.s == frozenset({"1"}) and cert.t == frozenset()

    def test_det_cap_zero_blocks(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        state = IdentificationState.fresh(g)
        det_subprocedure(g, state, "2", SearchConfig(cap_det_pairs=0))
        assert not state.solved_edges

    def test_det_chain_fork_edge_into_5(self):
        g = builtin_graph("fig4a")
        state = IdentificationState.fresh(g)
        det_subprocedure(g, state, "5", SearchConfig())
        assert ("4", "5") in state.solved_edges


class TestCertificateRecords:
    def test_source_contains_target_derived(self):
        """A hand-built determinantal certificate writes whether v is in
        S from S itself."""
        cert = DetCertificate(
            v="1",
            w0="2",
            deleted_parents=frozenset(),
            s=frozenset({"1", "3"}),
            t=frozenset({"4"}),
        )
        assert cert.to_dict()["source_contains_target"] is True
        assert replace(cert, s=frozenset({"2", "3"})).to_dict()[
            "source_contains_target"
        ] is False

    def test_recursion_depth_derived(self):
        """A record writes the number of its deleted edges as its
        recursion depth."""
        cert = DetCertificate(
            v="5",
            w0="4",
            deleted_parents=frozenset(),
            s=frozenset({"2", "3", "4"}),
            t=frozenset({"1", "2"}),
        )
        deleted = (("1", "2"), ("2", "3"))
        rec = CertRecord(edges=(("4", "5"),), cert=cert, deleted=deleted)
        assert rec.depth == 2
        assert rec.to_dict()["recursion_depth"] == 2
        assert rec.to_dict()["deleted_edges"] == [["1", "2"], ["2", "3"]]


class TestCertificateVerification:
    def test_chain_fork_det_witnesses(self):
        g = builtin_graph("fig4a")
        for v in ("5", "6"):
            cert = DetCertificate(
                v=v,
                w0="4",
                deleted_parents=frozenset(),
                s=frozenset({"2", "3", "4"}),
                t=frozenset({"1", "2"}),
            )
            assert verify_certificate(g, cert)

    def test_det_rejects_descendant_in_t(self):
        g = builtin_graph("fig2a")
        cert = DetCertificate(
            v="4",
            w0="3",
            deleted_parents=frozenset(),
            s=frozenset({"1", "5"}),
            t=frozenset({"5"}),
        )
        assert not verify_certificate(g, cert)

    def test_det_w0_must_be_a_parent(self):
        """No determinantal certificate for a non-edge w0 -> v of fig4a
        verifies, whatever its (S, T)."""
        g = builtin_graph("fig4a")
        obs = sorted(g.observed)
        tried = 0
        for v in obs:
            for w0 in obs:
                if w0 == v or (w0, v) in g.edges_obs:
                    continue
                t_pool = [n for n in obs if n not in (v, w0)]
                for k in range(1, len(obs) + 1):
                    for s in combinations(obs, k):
                        for t in combinations(t_pool, k - 1):
                            cert = DetCertificate(
                                v=v,
                                w0=w0,
                                deleted_parents=frozenset(),
                                s=frozenset(s),
                                t=frozenset(t),
                            )
                            assert not verify_certificate(g, cert), cert
                            tried += 1
        assert tried == 6300

    def test_det_deleted_parents_must_be_other_parents(self):
        """The 4 -> 5 witness of fig4a fails with a deleted parent that is
        not a parent of 5, or that is w0 itself."""
        g = builtin_graph("fig4a")
        witness = dict(
            v="5", w0="4", s=frozenset({"2", "3", "4"}), t=frozenset({"1", "2"})
        )
        assert verify_certificate(
            g, DetCertificate(deleted_parents=frozenset(), **witness)
        )
        for deleted in ({"6"}, {"4"}, {"x"}):
            cert = DetCertificate(deleted_parents=frozenset(deleted), **witness)
            assert not verify_certificate(g, cert), deleted

    def test_unknown_node_rejected(self):
        """A certificate naming a node the graph lacks is rejected, not
        raised on."""
        g = builtin_graph("fig4a")
        cert = DetCertificate(
            v="x",
            w0="4",
            deleted_parents=frozenset(),
            s=frozenset({"2", "3", "4"}),
            t=frozenset({"1", "2"}),
        )
        assert not verify_certificate(g, cert)
        htc = HtcCertificate(
            v="x",
            w_v=frozenset(),
            y=frozenset(),
            z=frozenset(),
            w_z_map=(),
            h=frozenset(),
        )
        assert not verify_certificate(g, htc)

    def test_det_rejects_latent_source_or_target(self):
        """A determinantal certificate with a latent node in S or T is
        rejected, though its flows pass: its formula would need the
        covariance of a latent node."""
        g = LatentFactorGraph(
            ["1", "2", "3", "4", "5"],
            ["h1", "h2"],
            [("1", "5"), ("2", "5"), ("3", "1"), ("3", "5"), ("4", "2")],
            [("h1", "3"), ("h2", "1"), ("h2", "2")],
        )
        for s, t in (({"h1"}, set()), ({"1", "h1"}, {"h2"})):
            cert = DetCertificate(
                v="1",
                w0="3",
                deleted_parents=frozenset(),
                s=frozenset(s),
                t=frozenset(t),
            )
            assert not verify_certificate(g, cert), (s, t)

    def test_search_certificates_reverify(self):
        """Every certificate the search records re-verifies in its
        subgraph: fig5a rows 0-6 and G7 under Det+eLF-HTC+rec, and a
        seeded cyclic corpus under every preset that runs the
        determinantal search."""
        cases = [
            (g, "Det+eLF-HTC+rec")
            for m in range(7)
            for g in enumerate_dags(PATTERNS["fig5a"], m)
        ]
        cases.append((G7, "Det+eLF-HTC+rec"))
        cases += [
            (deep_det_graph(seed, draw), preset)
            for seed, draw, preset in DEEP_DET_CASES
        ]
        rng = random.Random(5)
        for i in range(60):
            g = random_latent_factor_graph(rng, max_obs=6, acyclic=False)
            for preset in ("Det+eLF-HTC+rec", "Det+LF-HTC+rec", "cap10"):
                cases.append((g, preset))
        kinds = set()
        for g, preset in cases:
            for rec in combined_algorithm(g, METHOD_PRESETS[preset]).certificates:
                sub = without_obs_edges(g, set(rec.deleted))
                assert verify_certificate(sub, rec.cert), (g, preset, rec)
                kinds.add((type(rec.cert), rec.depth > 0))
        assert len(kinds) == 4

    @pytest.mark.parametrize(
        "preset",
        ["Det+eLF-HTC+rec", "LF-HTC", "Det+LF-HTC+rec", "eLF-HTC+rec"],
    )
    def test_all_recorded_certificates_reverify(self, preset):
        cfg = METHOD_PRESETS[preset]
        rng = random.Random(5)
        graphs = [
            builtin_graph(name)
            for name in ("fig2a", "fig2b", "fig4a", "household", "fig3")
        ] + [
            random_latent_factor_graph(rng, max_obs=5, acyclic=i % 2 == 0)
            for i in range(30)
        ]
        records = 0
        for g in graphs:
            for rec in combined_algorithm(g, cfg).certificates:
                records += 1
                c = rec.cert
                sub = without_obs_edges(g, set(rec.deleted))
                assert verify_certificate(sub, c), (g, rec)
                if cfg.legacy_lf_htc_only and isinstance(c, HtcCertificate):
                    assert check_lf_htc(sub, c.v, c.y, c.z, c.h), (g, rec)
        assert records


class TestAllowedUpdate:
    """The allowed-covariance rule as the search and `DeletionContext`
    apply it, on bitmask rows (`criteria._rows_update`), against the
    set-based reference `oracles.allowed_update`."""

    def test_empty_removal_is_identity(self):
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g)
        assert allowed_pairs(ctx.view, ctx.rows) == all_cov_pairs(g)

    def test_chain_fork_after_deleting_edge_into_5(self):
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g, [("4", "5")])
        assert ctx.is_allowed("1", "5")
        assert not ctx.is_allowed("5", "5")
        assert ctx.is_allowed("1", "2")

    def test_unsolved_edge_deletion_rejected(self):
        g = builtin_graph("fig4a")
        with pytest.raises(GraphError):
            allowed_update(g, all_cov_pairs(g), "5", {"4"}, solved_edges=set())

    def test_non_parent_rejected(self):
        # A deleted edge must be an edge of the base graph, once.
        g = builtin_graph("fig4a")
        for deleted in ([("6", "5")], [("x", "5")]):
            with pytest.raises(GraphError):
                DeletionContext(g, deleted)
        with pytest.raises(UnknownNodeError):
            DeletionContext(g, [("4", "5"), ("4", "5")])

    def test_deletion_order_invariance(self):
        # Deletion sequences with the same edge union must yield the same
        # allowed rows; descendants are always taken in the graph the
        # sequence started from.
        rng = random.Random(17)
        for _ in range(50):
            g = random_latent_factor_graph(rng, max_obs=6)
            edges = sorted(g.edges_obs)
            if len(edges) < 2:
                continue
            rng.shuffle(edges)
            seq = edges[:3]

            def apply_seq(order):
                return DeletionContext(g, order).rows

            forward = apply_seq(seq)
            backward = apply_seq(list(reversed(seq)))
            assert forward == backward, (g, seq)

    def test_context_matches_set_reference(self, monkeypatch, unpruned):
        """`DeletionContext` allows exactly the pairs the set-based
        reference keeps, after 0-4 deletions in shuffled order, on acyclic
        and cyclic graphs, and every subgraph state the search visits on
        G7 (without identifiability pruning, so all 1,033 of them) holds
        the reference's rows for its deletions. These are the
        rows `_rows_update` ever sees: the all-ones rows and the rows of
        deletions from them, with descendants in the root graph. On them
        the reference's partner rule (a pair with v needs its other member
        allowed against every removed parent) never binds, and
        `_rows_update` leaves it out."""

        def reference(g, deleted):
            allowed = all_cov_pairs(g)
            for w, v in deleted:
                allowed = allowed_update(g, allowed, v, {w})
            return allowed

        rng = random.Random(29)
        for i in range(3000):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            edges = sorted(g.edges_obs)
            rng.shuffle(edges)
            deleted = edges[: rng.randint(0, 4)]
            ctx = DeletionContext(g, deleted)
            allowed = reference(g, deleted)
            assert ctx.rows == allowed_rows(ctx.view, allowed), (g, deleted)
            for x in g.observed:
                for y in g.observed:
                    assert ctx.is_allowed(x, y) == (
                        cov_pair(x, y) in allowed
                    ), (g, deleted, x, y)

        search = criteria._search
        visits = 0

        def checked(state, *args):
            nonlocal visits
            visits += 1
            assert state.allowed_rows == allowed_rows(
                state.view, reference(G7, state.deleted_edges)
            ), state.deleted_edges
            return search(state, *args)

        monkeypatch.setattr(criteria, "_search", checked)
        combined_algorithm(G7)
        assert visits == 1033


class TestCombinedAlgorithm:
    def test_chain_shortcut_fully_identified(self):
        g = builtin_graph("fig2a")
        state = combined_algorithm(g)
        assert g.edges_obs <= state.solved_edges

    def test_chain_shortcut_not_identified_by_plain_criterion(self):
        g = builtin_graph("fig2a")
        state = combined_algorithm(g, LEGACY)
        assert not g.edges_obs <= state.solved_edges

    def test_two_proxy_edge_needs_extension(self):
        g = builtin_graph("fig2b")
        assert ("2", "3") in combined_algorithm(g).solved_edges
        assert ("2", "3") not in combined_algorithm(g, LEGACY).solved_edges

    def test_household_fully_identified(self):
        g = builtin_graph("household")
        assert g.edges_obs <= combined_algorithm(g).solved_edges

    def test_household_plain_criterion_exact_edges(self):
        g = builtin_graph("household")
        state = combined_algorithm(g, LEGACY)
        assert state.solved_edges == {("HS", "HA"), ("HS", "TA")}

    def test_chain_fork_fully_identified(self):
        g = builtin_graph("fig4a")
        assert g.edges_obs <= combined_algorithm(g).solved_edges

    def test_chain_fork_det_needs_recursion(self):
        # Under the determinantal criterion alone, the edge 2 -> 3 is
        # found only in the subgraph with an identified edge out of 4
        # deleted.
        g = builtin_graph("fig4a")
        det_flat = SearchConfig(enable_elf=False, enable_recursion=False)
        flat = combined_algorithm(g, det_flat)
        assert ("2", "3") not in flat.solved_edges
        assert {("4", "5"), ("4", "6")} <= flat.solved_edges
        det_rec = SearchConfig(enable_elf=False)
        full = combined_algorithm(g, det_rec)
        assert ("2", "3") in full.solved_edges
        rec = next(
            r for r in full.certificates if r.edges == (("2", "3"),)
        )
        assert rec.depth >= 1
        assert set(rec.deleted) <= {("4", "5"), ("4", "6")}

    def test_dense_six_not_identified_by_plain_criterion(self):
        g = builtin_graph("fig3")
        assert not g.edges_obs <= combined_algorithm(g, LEGACY).solved_edges

    def test_empty_graph_complete(self):
        g = LatentFactorGraph([], [], [], [])
        assert g.edges_obs <= combined_algorithm(g).solved_edges

    def test_fresh_state_not_identified(self):
        g = builtin_graph("fig2a")
        assert not g.edges_obs <= IdentificationState.fresh(g).solved_edges

    def test_solved_nodes_invariant(self):
        for name in ("fig2a", "household"):
            g = builtin_graph(name)
            state = combined_algorithm(g)
            expected = {
                v
                for v in g.observed
                if all((p, v) in state.solved_edges for p in parents_obs(g, v))
            }
            assert state.view.nodes(state.solved_mask) == expected

    def test_plain_criterion_subsumed_by_combined(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_latent_factor_graph(rng, max_obs=6, max_lat=2)
            legacy = combined_algorithm(g, LEGACY).solved_edges
            full = combined_algorithm(g).solved_edges
            assert legacy <= full, g

    def test_deterministic_output(self):
        g = builtin_graph("fig3")
        a = combined_algorithm(g)
        b = combined_algorithm(g)
        assert a.solved_edges == b.solved_edges
        assert [r.cert for r in a.certificates] == [
            r.cert for r in b.certificates
        ]


class TestRecursionCap:
    """`SearchConfig.cap_recursion` bounds the number of deleted edges of
    the subgraphs the search enters."""

    PRESETS = ("eLF-HTC+rec", "Det+eLF-HTC+rec")

    @staticmethod
    def records(state):
        return [r.to_dict() for r in state.certificates]

    def test_cap_zero_is_no_recursion(self):
        graphs = [builtin_graph(name) for name in BUILTINS] + [G7]
        deep = 0
        for preset in self.PRESETS:
            cfg = METHOD_PRESETS[preset]
            for g in graphs:
                capped = combined_algorithm(g, replace(cfg, cap_recursion=0))
                flat = combined_algorithm(
                    g, replace(cfg, enable_recursion=False)
                )
                assert capped.solved_edges == flat.solved_edges, g
                assert self.records(capped) == self.records(flat), g
                deep += any(
                    r.depth for r in combined_algorithm(g, cfg).certificates
                )
        # Uncapped, some of these runs find certificates in subgraphs.
        assert deep

    def test_solved_set_grows_with_cap(self):
        """On a seeded sample of fig5b row 5 (eLF-HTC+rec), no certificate
        lies deeper than the cap, the solved edges grow with the cap, and
        a cap of the graph's edge count solves what the uncapped search
        solves. Some graphs need a cap of 1 and some a cap of 2."""
        cfg = METHOD_PRESETS["eLF-HTC+rec"]
        rows = list(enumerate_dags(PATTERNS["fig5b"], 5))
        grown = Counter()
        for g in random.Random(1).sample(rows, 800):
            uncapped = combined_algorithm(g, cfg)
            before = frozenset()
            for cap in range(len(g.edges_obs) + 1):
                state = combined_algorithm(g, replace(cfg, cap_recursion=cap))
                assert all(r.depth <= cap for r in state.certificates), g
                assert before <= state.solved_edges, (g, cap)
                if cap and before != state.solved_edges:
                    grown[cap] += 1
                before = state.solved_edges
            assert before == uncapped.solved_edges, g
            assert self.records(state) == self.records(uncapped), g
        assert grown[1] and grown[2]


# sha256 per case of the JSON of every graph's sorted solved edges and
# certificate records, in the order the search found them. Update it only
# for an intended change of certificates.
CERTIFICATE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "certificates_digest.json").read_text()
)
BUILTINS = ("fig2a", "fig2b", "fig4a", "household", "fig3")
DIGEST_CASES = {
    "fig5a row 4, Det+eLF-HTC+rec": ("fig5a", 4, "Det+eLF-HTC+rec"),
    "fig5b row 3, LF-HTC": ("fig5b", 3, "LF-HTC"),
    "fig5b row 3, eLF-HTC+rec": ("fig5b", 3, "eLF-HTC+rec"),
    "fig5b row 4, LF-HTC": ("fig5b", 4, "LF-HTC"),
    "fig5b row 4, eLF-HTC+rec": ("fig5b", 4, "eLF-HTC+rec"),
    "builtins, Det+eLF-HTC+rec": (None, None, "Det+eLF-HTC+rec"),
    "G7 plus 40 seeded 7-node, one-latent graphs, Det+eLF-HTC+rec": (
        "dense",
        None,
        "Det+eLF-HTC+rec",
    ),
    "fig5a row 6, cap10": ("fig5a", 6, "cap10"),
    "fig5a row 6, cap100": ("fig5a", 6, "cap100"),
    "fig5a row 6, cap500": ("fig5a", 6, "cap500"),
}

def dense_graphs(count, seed):
    """`count` random graphs with 7 observed nodes and one latent,
    alternately acyclic and cyclic."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_latent_factor_graph(
            rng, max_obs=7, max_lat=1, acyclic=len(out) % 2 == 0
        )
        if len(g.observed) == 7:
            out.append(g)
    return out


def certificate_digest(pattern, num_edges, preset):
    if pattern is None:
        graphs = [builtin_graph(name) for name in BUILTINS]
    elif pattern == "dense":
        graphs = [G7] + dense_graphs(40, seed=6)
    else:
        graphs = enumerate_dags(PATTERNS[pattern], num_edges)
    return runs_digest(
        [combined_algorithm(g, METHOD_PRESETS[preset]) for g in graphs]
    )


def runs_digest(states):
    """sha256 of the sorted solved edges and every certificate record of
    each of the search results `states`."""
    runs = [
        [sorted(state.solved_edges), [r.to_dict() for r in state.certificates]]
        for state in states
    ]
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


class TestPinnedCertificates:
    def test_every_case_pinned(self):
        assert set(CERTIFICATE_DIGESTS) == set(DIGEST_CASES)

    @pytest.mark.parametrize("case", sorted(DIGEST_CASES))
    def test_certificates_match_recorded(self, case):
        digest = certificate_digest(*DIGEST_CASES[case])
        assert digest == CERTIFICATE_DIGESTS[case]


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("LATENTID_EXTENDED") != "1",
    reason="set LATENTID_EXTENDED=1 to run the long searches",
)
class TestExtendedSearch:
    def test_large_source_sets_within_time(self):
        """The third graph of `random_latent_factor_graph(random.Random(12),
        max_obs=12, max_lat=2, edge_prob=0.3)`: 12 observed nodes, 2
        latents and 28 edges, all solved at the root by a determinantal
        search over source sets of up to 11 nodes. Its solved edges and
        certificates hash as they did with the per-pair rank filter, and
        it finishes within 60 s (about 9 s on a 2-core host; the per-pair
        filter took 100-158 s)."""
        rng = random.Random(12)
        for _ in range(3):
            g = random_latent_factor_graph(
                rng, max_obs=12, max_lat=2, edge_prob=0.3
            )
        assert (len(g.observed), len(g.latent), len(g.edges_obs)) == (
            12, 2, 28,
        )
        start = time.perf_counter()
        state = combined_algorithm(g)
        elapsed = time.perf_counter() - start
        assert len(state.solved_edges) == 28
        assert runs_digest([state]) == (
            "560c5db919bafb737550da59759c03bb318f1ce87e9bce1132f0baa048d4e2fb"
        )
        assert elapsed < 60, f"{elapsed:.1f} s"


class TestDeterminantalPools:
    def test_lex_rank_matches_combinations(self):
        for n in range(9):
            for k in range(n + 1):
                for rank, combo in enumerate(combinations(range(n), k)):
                    assert _lex_rank(combo, n) == rank, (n, combo)

    def test_matches_literal_loop(self):
        """The pool-filtered search gives the literal loop's solved edges
        and certificates, under every cap, in subgraphs of the deletion
        recursion."""
        rng = random.Random(61)
        caps = (None, 0, 1, 7, 50, 500)
        solved_any = set()
        for i in range(200):
            g = random_latent_factor_graph(
                rng, max_obs=7, max_lat=2, acyclic=i % 2 == 0
            )
            solved = {e for e in sorted(g.edges_obs) if rng.random() < 0.4}
            deleted = rng.sample(
                sorted(solved), min(len(solved), rng.randint(0, 2))
            )
            allowed = all_cov_pairs(g)
            for w, v in deleted:
                allowed = allowed_update(g, allowed, v, {w}, solved)
            sub = without_obs_edges(g, set(deleted))
            rows = allowed_rows(CompiledGraph(sub), allowed)
            frame = FlowFrame(CompiledGraph(g))

            def run(subprocedure, cfg):
                state = scratch_state(g, deleted, solved, rows, frame)
                for v in sorted(sub.observed):
                    subprocedure(sub, state, v, cfg)
                return (
                    sorted(state.solved_edges),
                    [r.to_dict() for r in state.certificates],
                )

            for cap in caps:
                cfg = SearchConfig(cap_det_pairs=cap)
                got = run(det_subprocedure, cfg)
                assert got == run(ref_det_subprocedure, cfg), (g, deleted, cap)
                if got[1]:
                    solved_any.add(cap)
        # Every cap but 0 lets some witness through.
        assert solved_any == set(caps) - {0}


class TestLatticePruning:
    def test_g7_search_calls(self, monkeypatch, unpruned):
        """Deletions whose subgraph cannot solve anything are skipped: on
        G7, without identifiability pruning, the search visits 1,033
        subgraphs (5,131 without lattice pruning either)."""
        calls = 0
        search = criteria._search

        def counted(*args):
            nonlocal calls
            calls += 1
            return search(*args)

        monkeypatch.setattr(criteria, "_search", counted)
        state = combined_algorithm(G7)
        assert calls == 1033
        assert len(state.solved_edges) == 10



def count_calls(monkeypatch, owner, name):
    """Replace `owner.name` by a wrapper that counts its calls; returns
    the list the wrapper appends the positional call arguments to."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_flows(monkeypatch):
    """Count the search's flow solves (`FlowFrame.solve`); returns a
    function giving the determinantal search's count (full and barred
    flows) and the eLF-HTC search's count so far."""
    solves = count_calls(monkeypatch, flow.FlowFrame, "solve")
    det = criteria.det_subprocedure
    det_solves = 0

    def counted(*args, **kwargs):
        nonlocal det_solves
        before = len(solves)
        try:
            return det(*args, **kwargs)
        finally:
            det_solves += len(solves) - before

    monkeypatch.setattr(criteria, "det_subprocedure", counted)
    return lambda: (det_solves, len(solves) - det_solves)


class TestRankFilter:
    """The determinantal search runs its two max-flows only on (S, T)
    pairs that no kept cut rejects and whose barred minor vanishes mod p."""

    def test_g7_flow_calls(self, monkeypatch, unpruned):
        """Without identifiability pruning G7 makes 810 determinantal flow
        solves (29,861 with the rank filter alone, 78,231 without either
        filter)."""
        flows = count_flows(monkeypatch)
        state = combined_algorithm(G7)
        assert flows()[0] == 810
        assert len(state.solved_edges) == 10

    def test_fig5a_flow_calls(self, monkeypatch):
        """fig5a rows 0-6 under Det+eLF-HTC+rec make 367 determinantal
        flow solves (688 with the rank filter alone, 87,882 without
        either filter), with the same counts."""
        flows = count_flows(monkeypatch)
        rows = run_benchmark(
            PATTERNS["fig5a"], 6, ("Det+eLF-HTC+rec",), workers=1
        )
        assert flows()[0] == 367
        assert [r.counts["Det+eLF-HTC+rec"] for r in rows] == [
            1, 1, 4, 13, 51, 159, 398,
        ]

    def test_matches_literal_loop_without_covariance(self, monkeypatch):
        """When Σ is undefined mod p (I − Λ singular there) the search
        runs both flows on every pair and still gives the literal loop's
        solved edges and certificates under every cap."""
        requested = []

        def undefined(view, point=None):
            requested.append(view)
            return None

        monkeypatch.setattr(rank, "covariance", undefined)
        TestDeterminantalPools().test_matches_literal_loop()
        assert requested

    def test_survivors_match_per_pair_filter_under_every_cap(
        self, monkeypatch, unpruned
    ):
        """With Σ, `_det_pairs` gives exactly the pairs it gives without
        Σ whose barred minor the per-pair elimination calls singular, in
        the same order, under every cap from 0 to past the last literal
        pair: for every call the search makes on seeded graphs, in
        subgraphs of the recursion too."""
        det_pairs = criteria._det_pairs
        calls = count_calls(monkeypatch, criteria, "_det_pairs")
        rng = random.Random(73)
        for i in range(24):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=2, acyclic=i % 2 == 0
            )
            combined_algorithm(g)
        cut_short = checked = 0
        for n, t_literal, s_pool, t_pool, t_allowed, _, cov, column in calls:
            if cov is None:
                continue
            pools = (n, t_literal, s_pool, t_pool, t_allowed)
            t_count = t_literal.bit_count()
            literal = sum(
                comb(n, k) * comb(t_count, k - 1) for k in range(1, n + 1)
            )
            uncapped = list(det_pairs(*pools, None, cov, column))
            for cap in [None, *range(literal + 2)]:
                want = [
                    (s_combo, t_combo)
                    for s_combo, t_combo in det_pairs(*pools, cap, None, [])
                    if not nonsingular(
                        [
                            [cov.sigma[s][t] for t in t_combo] + [column[s]]
                            for s in s_combo
                        ]
                    )
                ]
                assert list(det_pairs(*pools, cap, cov, column)) == want
                cut_short += 0 < len(want) < len(uncapped)
            checked += 1
        assert checked > 100
        assert cut_short > 100

    def test_large_source_sets_match_literal_loop(self, monkeypatch):
        """On a seeded graph with 9 observed nodes, source sets of 4 to 7
        nodes go through the large-k paths of `rank.vanishing_minors` (a
        3×3 determinant for k = 4, the search by first member above),
        which keep some T's and reject others, and the search gives the
        literal loop's solved edges and certificates."""
        outcomes = Counter()
        minors = rank.vanishing_minors

        def recorded(sigma, column, rows, candidates):
            out = list(minors(sigma, column, rows, candidates))
            if len(rows) >= 4 and len(candidates) >= len(rows) - 1:
                total = comb(len(candidates), len(rows) - 1)
                outcomes[len(rows), "kept"] += len(out)
                outcomes[len(rows), "rejected"] += total - len(out)
            return out

        monkeypatch.setattr(rank, "vanishing_minors", recorded)
        g = random_latent_factor_graph(random.Random(11), max_obs=9)
        assert len(g.observed) == 9
        rows = allowed_rows(CompiledGraph(g), all_cov_pairs(g))
        frame = FlowFrame(CompiledGraph(g))

        def run(subprocedure):
            state = scratch_state(g, (), (), rows, frame)
            for v in sorted(g.observed):
                subprocedure(g, state, v, SearchConfig())
            return (
                sorted(state.solved_edges),
                [r.to_dict() for r in state.certificates],
            )

        got = run(det_subprocedure)
        assert got == run(ref_det_subprocedure)
        assert len(got[1]) == 12
        for k in range(4, 8):
            assert outcomes[k, "kept"] and outcomes[k, "rejected"], k


# Graphs on which the determinantal search solves edges inside
# subgraphs, by (seed, draw, preset); few random graphs do.
DEEP_DET_CASES = (
    (40, 4, "cap10"),
    (57, 2, "cap10"),
    (14, 9, "Det+LF-HTC+rec"),
    (43, 8, "Det+LF-HTC+rec"),
    (44, 16, "Det+eLF-HTC+rec"),
    (56, 30, "Det+eLF-HTC+rec"),
)


def deep_det_graph(seed, draw):
    """Draw `draw` of a `DEEP_DET_CASES` seed."""
    rng = random.Random(seed)
    for i in range(draw + 1):
        g = random_latent_factor_graph(
            rng, max_obs=6, max_lat=3, acyclic=i % 2 == 0, edge_prob=0.4
        )
    return g


def certificate_mutants(g, cert):
    """`cert` and its mutants: Y shrunk by one member or one member
    swapped for another node; a T member dropped or swapped for another
    node, an S member swapped for another node, w0 swapped for each other
    parent of v, or an S member replaced by a latent node."""
    yield "recorded", cert
    observed = sorted(g.observed)
    if isinstance(cert, HtcCertificate):
        for y in sorted(cert.y)[:1]:
            yield "shrink Y", replace(cert, y=cert.y - {y})
            for n in [n for n in observed if n not in cert.y][:1]:
                yield "swap Y", replace(cert, y=cert.y - {y} | {n})
        return
    for t in sorted(cert.t)[:1]:
        yield "drop T", replace(cert, t=cert.t - {t})
        others = cert.t | {cert.v, cert.w0}
        for n in [n for n in observed if n not in others][:1]:
            yield "swap T", replace(cert, t=cert.t - {t} | {n})
    for s in sorted(cert.s)[:1]:
        for n in [n for n in observed if n not in cert.s][:1]:
            yield "swap S", replace(cert, s=cert.s - {s} | {n})
    for w in sorted(parents_obs(g, cert.v) - {cert.w0}):
        yield "swap w0", replace(cert, w0=w)
    for h in sorted(g.latent)[:1]:
        s = sorted(cert.s)[0]
        yield "latent in S", replace(cert, s=cert.s - {s} | {h})


class TestReferenceVerifier:
    def test_agrees_with_reference(self):
        """`verify_certificate` agrees with `ref_verify_certificate`, whose
        flows run on the dict networks, on every certificate the search
        records (Det+eLF-HTC+rec) for fig5a rows 0-6, G7 and 60 seeded
        cyclic graphs, and on their mutants."""
        graphs = [
            g for m in range(7) for g in enumerate_dags(PATTERNS["fig5a"], m)
        ]
        graphs.append(G7)
        rng = random.Random(5)
        graphs += [
            random_latent_factor_graph(rng, max_obs=6, acyclic=False)
            for _ in range(60)
        ]
        outcomes = Counter()
        for g in graphs:
            state = combined_algorithm(g, METHOD_PRESETS["Det+eLF-HTC+rec"])
            for rec in state.certificates:
                sub = without_obs_edges(g, set(rec.deleted))
                for kind, cert in certificate_mutants(sub, rec.cert):
                    got = verify_certificate(sub, cert)
                    assert got == ref_verify_certificate(sub, cert), (
                        g,
                        kind,
                        cert,
                    )
                    outcomes[kind, got] += 1
        assert outcomes["recorded", False] == 0
        assert outcomes["recorded", True] > 3000
        # A mutant with too few members, or a latent one, never passes.
        for kind in ("shrink Y", "drop T", "latent in S"):
            assert outcomes[kind, False] > 50 and not outcomes[kind, True]
        for kind in ("swap S", "swap w0"):
            assert outcomes[kind, False] + outcomes[kind, True] > 50
        for kind in ("swap Y", "swap T"):
            assert outcomes[kind, False] and outcomes[kind, True], outcomes


class TestInheritedCuts:
    def test_recursion_matches_literal_loop(self, monkeypatch, unpruned):
        """Inside the edge-deletion recursion, where a state also reads
        the cuts its ancestors kept, every determinantal call solves the
        literal loop's edges, with its certificates, on the same subgraph,
        solved set and allowed pairs. The search runs without
        identifiability pruning, so that it recurses deep."""
        det = criteria.det_subprocedure
        calls = inheriting = 0
        root = None

        def checked(g, state, v, cfg):
            nonlocal calls, inheriting
            deleted = state.deleted_edges
            ref = scratch_state(
                root,
                deleted,
                state.solved_edges,
                state.allowed_rows,
                state.frame,
            )
            sub = without_obs_edges(root, set(deleted))
            ref_det_subprocedure(sub, ref, v, cfg)
            start = len(state.certificates)
            det(g, state, v, cfg)
            assert state.solved_edges == ref.solved_edges
            assert [r.to_dict() for r in state.certificates[start:]] == [
                r.to_dict() for r in ref.certificates
            ]
            calls += 1
            inheriting += any(state.cuts[1:])
            return state

        monkeypatch.setattr(criteria, "det_subprocedure", checked)
        rng = random.Random(83)
        cases = [(G7, "Det+eLF-HTC+rec")] + [
            (
                random_latent_factor_graph(
                    rng, max_obs=7, max_lat=2, acyclic=i % 2 == 0
                ),
                "Det+eLF-HTC+rec",
            )
            for i in range(40)
        ]
        cases += [
            (deep_det_graph(seed, draw), preset)
            for seed, draw, preset in DEEP_DET_CASES
        ]
        deep = 0
        for root, preset in cases:
            state = combined_algorithm(root, METHOD_PRESETS[preset])
            deep += sum(
                r.depth > 0 and isinstance(r.cert, DetCertificate)
                for r in state.certificates
            )
        assert deep >= len(DEEP_DET_CASES)
        assert inheriting > calls // 2


class TestElfNetworkMemo:
    def test_each_network_built_once_per_frame(self, monkeypatch):
        """A bound frame builds the eLF-HTC network of a (base, sources, Z)
        triple once and hands the same network to every later request,
        from any state of any search on it: with LF-HTC and eLF-HTC+rec
        sharing one bound frame per class, fewer networks than requests,
        and than (state, sources, Z) triples."""
        requests = []
        original = IdentificationState.elf_network

        def recorded(state, sources, z):
            net = original(state, sources, z)
            requests.append((state, sources, z, net))
            return net

        monkeypatch.setattr(IdentificationState, "elf_network", recorded)
        # `requests` keeps every state, frame and network alive, so their
        # ids stay distinct.
        frame = enumeration._pattern_frame(PATTERNS["fig5b"])
        for g in enumerate_dags(PATTERNS["fig5b"], 3):
            bound = frame.bind(g)
            for preset in ("LF-HTC", "eLF-HTC+rec"):
                combined_algorithm(g, METHOD_PRESETS[preset], bound)
        built: dict[tuple, set[int]] = {}
        for state, sources, z, net in requests:
            key = (id(state.frame), state._elf_base, sources, z)
            built.setdefault(key, set()).add(id(net))
        assert all(len(nets) == 1 for nets in built.values())
        per_state = {(id(r[0]), r[1], r[2]) for r in requests}
        networks = {id(r[3]) for r in requests}
        assert len(networks) == len(built) < len(per_state) < len(requests)


class TestElfFlowBounds:
    """The eLF-HTC search runs a flow only on the W_z choices that neither
    the source-count floor nor a kept cut rejects."""

    def test_g7_flow_solves(self, monkeypatch, unpruned):
        """Without identifiability pruning G7 makes 14 eLF-HTC flow solves
        (261 with neither filter)."""
        flows = count_flows(monkeypatch)
        state = combined_algorithm(G7)
        assert flows()[1] == 14
        assert len(state.solved_edges) == 10

    def test_fig5a_flow_solves(self, monkeypatch, unpruned):
        """Without identifiability pruning fig5a rows 0-6 under
        Det+eLF-HTC+rec make 5,021 eLF-HTC flow solves (10,621 with
        neither filter), with the same counts."""
        flows = count_flows(monkeypatch)
        rows = run_benchmark(
            PATTERNS["fig5a"], 6, ("Det+eLF-HTC+rec",), workers=1
        )
        assert flows()[1] == 5021
        assert [r.counts["Det+eLF-HTC+rec"] for r in rows] == [
            1, 1, 4, 13, 51, 159, 398,
        ]

    def test_fig5b_flow_solves(self, monkeypatch, unpruned):
        """Without identifiability pruning fig5b rows 0-4 under LF-HTC and
        eLF-HTC+rec make 18,991 eLF-HTC flow solves (60,455 with neither
        filter: 23,951 of the failing ones had fewer sources than sinks),
        with the same counts. The kernel (`flow._augment`) runs 11,255 of
        the 18,991:
        the two presets of a class share one bound frame, which runs each
        distinct flow once."""
        flows = count_flows(monkeypatch)
        runs = count_calls(monkeypatch, flow, "_augment")
        rows = run_benchmark(
            PATTERNS["fig5b"], 4, ("LF-HTC", "eLF-HTC+rec"), workers=1
        )
        assert flows() == (0, 18991)
        assert len(runs) == 11255
        assert [
            (r.counts["LF-HTC"], r.counts["eLF-HTC+rec"]) for r in rows
        ] == [(1, 1), (6, 6), (43, 45), (236, 254), (1018, 1146)]

    def test_recursion_matches_literal_loop(self, monkeypatch, unpruned):
        """Every eLF-HTC call, at the root and inside the edge-deletion
        recursion, where a state also reads the cuts its ancestors kept,
        solves the literal loop's edges, with its certificates, on the
        same subgraph, solved set and allowed pairs; most calls in
        subgraphs read a non-empty inherited store. The search runs
        without identifiability pruning, so that it recurses deep."""
        elf = criteria.elf_htc_subprocedure
        sub_calls = inheriting = 0
        root = None

        def checked(g, state, v, cfg):
            nonlocal sub_calls, inheriting
            deleted = state.deleted_edges
            ref = scratch_state(
                root,
                deleted,
                state.solved_edges,
                state.allowed_rows,
                state.frame,
            )
            assert ref.view.nodes(ref.solved_mask) == state.view.nodes(
                state.solved_mask
            )
            sub = without_obs_edges(root, set(deleted))
            ref_elf_htc_subprocedure(sub, ref, v, cfg)
            start = len(state.certificates)
            elf(g, state, v, cfg)
            assert state.solved_edges == ref.solved_edges
            assert [r.to_dict() for r in state.certificates[start:]] == [
                r.to_dict() for r in ref.certificates
            ]
            if state.deleted_edges:
                sub_calls += 1
                inheriting += any(state.elf_cuts[1:])
            return state

        monkeypatch.setattr(criteria, "elf_htc_subprocedure", checked)
        cases = [(G7, "Det+eLF-HTC+rec", None)]
        frame = enumeration._pattern_frame(PATTERNS["fig5b"])
        for m in range(4):
            for g in enumerate_dags(PATTERNS["fig5b"], m):
                for preset in (
                    "LF-HTC", "LF-HTC+rec", "eLF-HTC+rec", "no-wz-loop",
                ):
                    cases.append((g, preset, frame))
        rng = random.Random(89)
        for i in range(40):
            g = random_latent_factor_graph(
                rng, max_obs=6, max_lat=3, acyclic=i % 2 == 0, edge_prob=0.4
            )
            preset = "LF-HTC+rec" if i % 4 == 3 else "eLF-HTC+rec"
            cases.append((g, preset, None))
        certs = 0
        for root, preset, frame in cases:
            state = combined_algorithm(root, METHOD_PRESETS[preset], frame)
            certs += any(
                r.depth > 0 and isinstance(r.cert, HtcCertificate)
                for r in state.certificates
            )
        # Runs that solve edges with eLF-HTC certificates inside
        # subgraphs.
        assert certs >= 40
        assert sub_calls > 1000 and inheriting > sub_calls // 2


def search_with_checked_state(monkeypatch, extra=()):
    """Run the search on G7, fig5b rows 0-3 (LF-HTC, eLF-HTC+rec), 30
    seeded cyclic graphs (eLF-HTC+rec and the default) and the (graph,
    config) pairs `extra`, asserting before and after every subprocedure
    call that `solved_edges` names the bits of `solved_pa`, all of them
    edges of the subgraph, and that `solved_mask` and `open_mask` equal
    a full re-derive from `solved_edges` and the verdict. Returns the
    number of calls, of calls that solved an edge, of those inside the
    recursion, and of calls on a state whose verdict left some unsolved
    node closed."""
    root = None
    calls = solving = sub_solving = closed = 0

    def assert_current(state):
        view, edges = state.view, state.solved_edges
        sub = without_obs_edges(root, set(state.deleted_edges))
        assert edges == {
            (p, n)
            for i, n in enumerate(view.names)
            for p in view.nodes(state.solved_pa[i])
        }
        assert edges <= sub.edges_obs
        nodes = ref_solved_nodes(sub, edges)
        assert state.solved_mask == sum(1 << view.index[n] for n in nodes)
        assert state.open_mask == open_nodes(state)

    def checked(subprocedure):
        def run(g, state, v, cfg):
            nonlocal calls, solving, sub_solving, closed
            assert_current(state)
            before = len(state.solved_edges)
            subprocedure(g, state, v, cfg)
            assert_current(state)
            calls += 1
            if len(state.solved_edges) > before:
                solving += 1
                sub_solving += bool(state.deleted_edges)
            closed += state.open_mask != state.view.all & ~state.solved_mask
            return state

        return run

    for name in ("elf_htc_subprocedure", "det_subprocedure"):
        monkeypatch.setattr(criteria, name, checked(getattr(criteria, name)))
    cases = [(G7, SearchConfig())]
    for m in range(4):
        for g in enumerate_dags(PATTERNS["fig5b"], m):
            for preset in ("LF-HTC", "eLF-HTC+rec"):
                cases.append((g, METHOD_PRESETS[preset]))
    rng = random.Random(97)
    for i in range(30):
        g = random_latent_factor_graph(
            rng, max_obs=6, max_lat=3, acyclic=False, edge_prob=0.4
        )
        cases.append((g, METHOD_PRESETS["eLF-HTC+rec"]))
        cases.append((g, SearchConfig()))
    for root, cfg in cases + list(extra):
        combined_algorithm(root, cfg)
    return calls, solving, sub_solving, closed


def open_nodes(state):
    """The nodes with an unsolved parent edge that the state's verdict
    counts as identifiable, re-derived from scratch."""
    parents = state.verdict.parents
    return sum(
        1 << i
        for i, pa in enumerate(state.view.pa)
        if pa & ~state.solved_pa[i] & (-1 if parents is None else parents[i])
    )


class TestSolvedState:
    def test_kept_current_around_every_call(self, monkeypatch, unpruned):
        """Before and after every subprocedure call, at the root and
        inside the edge-deletion recursion, the solved edges, solved
        nodes and open nodes are current (`search_with_checked_state`),
        though only `solve` updates them. The search runs without
        identifiability pruning, so that it recurses deep."""
        calls, solving, sub_solving, closed = search_with_checked_state(
            monkeypatch
        )
        assert calls > 3000 and solving > 1500 and sub_solving > 10
        assert closed == 0

    def test_kept_current_with_pruning(self, monkeypatch):
        """The same with identifiability pruning, where the verdict closes
        nodes whose unsolved edges are not identifiable and `solve` and
        `sync_verdict` keep `open_mask` current. The seeded graphs of
        `seeded_graphs` add subgraphs that work on with a node closed."""
        verdicts = count_calls(monkeypatch, rank, "identifiable_parents")
        calls, solving, sub_solving, closed = search_with_checked_state(
            monkeypatch, [(g, SearchConfig()) for g in seeded_graphs()]
        )
        assert calls > 1000 and solving > 1500 and sub_solving > 10
        assert verdicts and closed > 0


SEEDED_PRESETS = (
    "Det+eLF-HTC+rec",
    "LF-HTC+rec",
    "eLF-HTC+rec",
    "Det+rec",
    "cap10",
    "no-wz-loop",
)


def seeded_graphs():
    """300 graphs of `random_latent_factor_graph(random.Random(5),
    max_obs=7)`, every other one cyclic."""
    rng = random.Random(5)
    return [
        random_latent_factor_graph(rng, max_obs=7, acyclic=i % 2 == 0)
        for i in range(300)
    ]


def search_digest(cases):
    """sha256 over the sorted solved edges and every certificate record,
    in the order found, of the search on each (graph, preset, frame)."""
    h = hashlib.sha256()
    for g, preset, frame in cases:
        state = combined_algorithm(g, METHOD_PRESETS[preset], frame)
        h.update(
            json.dumps(
                [
                    sorted(state.solved_edges),
                    [r.to_dict() for r in state.certificates],
                ]
            ).encode()
        )
    return h.hexdigest()


def undefined_verdict(view, point=None):
    """A verdict undefined mod p, as for I − Λ singular there."""
    return None


class TestIdentifiabilityPruning:
    """Once `_search` has taken the verdict (`rank.identifiable_parents`)
    it spends no work on edges that are not locally identifiable, and it
    solves the same edges with the same certificates, in the same order,
    as the search that counts every edge as identifiable."""

    @pytest.mark.parametrize("preset", SEEDED_PRESETS)
    def test_matches_unpruned_on_seeded_graphs(self, monkeypatch, preset):
        cases = [(g, preset, None) for g in seeded_graphs()]
        verdicts = count_calls(monkeypatch, rank, "identifiable_parents")
        pruned = search_digest(cases)
        assert len(verdicts) > 30
        alternatives = [every_edge]
        if preset == "Det+eLF-HTC+rec":
            alternatives.append(undefined_verdict)
        for verdict in alternatives:
            monkeypatch.setattr(rank, "identifiable_parents", verdict)
            assert search_digest(cases) == pruned, verdict

    def test_matches_unpruned_on_fig5b(self, monkeypatch):
        """fig5b rows 0-3 under Det+eLF-HTC+rec, through the pattern's
        frame as `run_benchmark` runs them."""
        frame = enumeration._pattern_frame(PATTERNS["fig5b"])
        cases = [
            (g, "Det+eLF-HTC+rec", frame)
            for m in range(4)
            for g in enumerate_dags(PATTERNS["fig5b"], m)
        ]
        pruned = search_digest(cases)
        for verdict in (every_edge, undefined_verdict):
            monkeypatch.setattr(rank, "identifiable_parents", verdict)
            assert search_digest(cases) == pruned, verdict

    def test_g7_work(self, monkeypatch):
        """G7's one unsolved edge, 7 -> 6, is not identifiable: the first
        subgraph takes the verdict, and the search ends after 2 `_search`
        calls and 14 flows (8 determinantal, 6 eLF-HTC), against 1,033
        calls and 824 flows without it."""
        searches = count_calls(monkeypatch, criteria, "_search")
        verdicts = count_calls(monkeypatch, rank, "identifiable_parents")
        flows = count_flows(monkeypatch)
        state = combined_algorithm(G7)
        assert len(searches) == 2 and len(verdicts) == 1
        assert flows() == (8, 6)
        assert G7.edges_obs - state.solved_edges == {("7", "6")}

    def test_solved_edges_identifiable(self, unpruned):
        """Soundness against an independent reference: every edge the
        search without pruning solves is locally identifiable by the
        float Jacobian of `oracles.jacobian_identifiable_edges`, on the
        builtins, G7, fig5a rows 0-6, fig5b rows 0-4 and the seeded
        graphs."""
        det, elf = "Det+eLF-HTC+rec", "eLF-HTC+rec"
        cases = [(builtin_graph(name), [det]) for name in BUILTINS]
        cases.append((G7, [det]))
        for m in range(7):
            cases += [(g, [det]) for g in enumerate_dags(PATTERNS["fig5a"], m)]
        for m in range(5):
            presets = [elf, det] if m < 4 else [elf]
            cases += [(g, presets) for g in enumerate_dags(PATTERNS["fig5b"], m)]
        cases += [(g, [det]) for g in seeded_graphs()]
        solved = unsolved = 0
        for g, presets in cases:
            identifiable = jacobian_identifiable_edges(g)
            for preset in presets:
                state = combined_algorithm(g, METHOD_PRESETS[preset])
                assert state.solved_edges <= identifiable, (g, preset)
                solved += len(state.solved_edges)
                unsolved += len(g.edges_obs - state.solved_edges)
        assert solved > 10_000 and unsolved > 1_000

    @pytest.mark.parametrize(
        "pattern, rows, presets, taken, solves, counts",
        [
            (
                "fig5a", 6, ("Det+eLF-HTC+rec",), [4], (367, 5021),
                [1, 1, 4, 13, 51, 159, 398],
            ),
            ("fig5b", 4, ("LF-HTC",), [0], (0, 7934), [1, 6, 43, 236, 1018]),
            (
                "fig5b", 4, ("eLF-HTC+rec",), [579], (0, 10566),
                [1, 6, 45, 254, 1146],
            ),
            (
                "fig5b", 3, ("Det+eLF-HTC+rec",), [88], (2013, 1667),
                [1, 6, 45, 255],
            ),
        ],
        ids=["fig5a-det", "fig5b-lf", "fig5b-elf", "fig5b-det"],
    )
    def test_verdicts_and_flows(
        self, monkeypatch, pattern, rows, presets, taken, solves, counts
    ):
        """The verdicts taken and the flows solved over a table's rows,
        with the table's counts. A verdict is taken only by graphs that
        recurse two deletions deep: 4 of fig5a's 640 classes (whose flows
        it leaves as they are) and 579 of fig5b's 2,446 under eLF-HTC+rec
        (18,991 eLF-HTC flows without it, with LF-HTC's)."""
        verdicts = count_calls(monkeypatch, rank, "identifiable_parents")
        flows = count_flows(monkeypatch)
        table = run_benchmark(PATTERNS[pattern], rows, presets, workers=1)
        assert [len(verdicts)] == taken
        assert flows() == solves
        assert [r.counts[presets[0]] for r in table] == counts


class TestStateDerivation:
    def test_without_edge_matches_scratch_state(self):
        """A state derived by `without_edge`, 0-3 deletions deep, equals
        the state built from scratch for its subgraph: the same parents
        and children, allowed rows (`DeletionContext`), determinantal
        residual, solved edges and masks; it shares the root's
        certificate list and inherits its ancestors' cut stores, nearest
        first."""
        rng = random.Random(43)
        depths = set()
        for i in range(300):
            g = random_latent_factor_graph(
                rng, max_obs=7, max_lat=2, acyclic=i % 2 == 0
            )
            frame = FlowFrame(CompiledGraph(g))
            root = IdentificationState.fresh(g, frame)
            idx = root.view.index
            for w, v in sorted(g.edges_obs):
                if rng.random() < 0.6:
                    root.solve(idx[v], 1 << idx[w])
            chain = [root]
            for _ in range(rng.randint(0, 3)):
                if not chain[-1].solved_edges:
                    break
                w, v = rng.choice(sorted(chain[-1].solved_edges))
                a, b = idx[w], idx[v]
                chain.append(
                    chain[-1].without_edge(a, b, root.view.descendants(b))
                )
            state, deleted = chain[-1], chain[-1].deleted_edges
            depths.add(len(deleted))
            view = CompiledGraph(without_obs_edges(g, set(deleted)))
            ref = scratch_state(
                g,
                deleted,
                root.solved_edges,
                DeletionContext(g, deleted).rows,
                frame,
            )
            assert (state.view.pa, state.view.ch) == (view.pa, view.ch)
            assert state.allowed_rows == ref.allowed_rows
            assert state.flow_net == frame.det_network(view)
            assert state.solved_edges == ref.solved_edges
            assert state.solved_pa == ref.solved_pa
            assert state.solved_mask == ref.solved_mask
            assert state.certificates is root.certificates
            for chains in (
                [s.cuts for s in chain],
                [s.elf_cuts for s in chain],
            ):
                assert [id(c[0]) for c in chains[-2::-1]] == list(
                    map(id, chains[-1][1:])
                )
        assert depths == {0, 1, 2, 3}


class TestPatternFrame:
    @pytest.mark.parametrize(
        "pattern, max_edges, presets",
        [
            ("fig5a", 5, ("LF-HTC", "Det+eLF-HTC+rec", "cap10")),
            ("fig5b", 3, ("LF-HTC", "eLF-HTC+rec", "Det+eLF-HTC+rec")),
        ],
    )
    def test_frame_matches_own_networks(self, pattern, max_edges, presets):
        """Every class of the pattern gets the same certificate records
        from networks derived from the pattern's frame as from networks
        compiled from the class itself."""
        frame = enumeration._pattern_frame(PATTERNS[pattern])
        for m in range(max_edges + 1):
            for g in enumerate_dags(PATTERNS[pattern], m):
                for preset in presets:
                    cfg = METHOD_PRESETS[preset]
                    framed = combined_algorithm(g, cfg, frame)
                    own = combined_algorithm(g, cfg)
                    assert framed.solved_edges == own.solved_edges
                    assert [r.to_dict() for r in framed.certificates] == [
                        r.to_dict() for r in own.certificates
                    ], (g, preset)

    @pytest.mark.parametrize(
        "pattern, max_edges, presets",
        [
            (
                "fig5b", 4,
                ("LF-HTC", "LF-HTC+rec", "eLF-HTC+rec", "Det+eLF-HTC+rec"),
            ),
            ("fig5a", 5, ("LF-HTC", "Det+eLF-HTC+rec", "cap10")),
        ],
    )
    def test_bound_frame_shared_by_presets(self, pattern, max_edges, presets):
        """Presets run in sequence on one bound frame per class, as
        `run_benchmark` runs them, sharing its compiled graph, networks
        and flows, get the solved edges and certificate records of a
        search that compiles its own frame."""
        frame = enumeration._pattern_frame(PATTERNS[pattern])
        for m in range(max_edges + 1):
            for g in enumerate_dags(PATTERNS[pattern], m):
                bound = frame.bind(g)
                for preset in presets:
                    cfg = METHOD_PRESETS[preset]
                    framed = combined_algorithm(g, cfg, bound)
                    own = combined_algorithm(g, cfg)
                    assert framed.frame is bound
                    assert framed.view is bound.root
                    assert framed.solved_edges == own.solved_edges
                    assert [r.to_dict() for r in framed.certificates] == [
                        r.to_dict() for r in own.certificates
                    ], (g, preset)

    def test_frame_must_hold_graph(self):
        """A frame, unbound or bound to a graph, refuses a graph with an
        observed edge or a latent edge it lacks, in the search and when
        bound to it directly."""
        g = builtin_graph("fig2a")
        frame = FlowFrame(CompiledGraph(g))
        bound = frame.bind(g)
        combined_algorithm(g, SearchConfig(), frame)
        combined_algorithm(g, SearchConfig(), bound)
        extra = LatentFactorGraph(
            g.observed, g.latent, g.edges_obs | {("6", "1")}, g.edges_lat
        )
        fewer_lat = LatentFactorGraph(
            g.observed, g.latent, g.edges_obs, sorted(g.edges_lat)[1:]
        )
        for other in (extra, fewer_lat):
            for f in (frame, bound):
                with pytest.raises(GraphError, match="frame"):
                    combined_algorithm(other, SearchConfig(), f)
                with pytest.raises(GraphError, match="frame"):
                    f.bind(other)

    def test_pool_matches_serial(self):
        """Pool workers, each with its own frame, count what the serial
        run counts."""
        methods = ("LF-HTC", "eLF-HTC+rec")
        serial = run_benchmark(PATTERNS["fig5b"], 3, methods)
        pooled = run_benchmark(PATTERNS["fig5b"], 3, methods, workers=2)
        assert [r.counts for r in pooled] == [r.counts for r in serial]


class TestCompiledQueries:
    def test_masks_match_set_queries(self):
        """The compiled graph, allowed rows, source pools, solved nodes and
        eLF-HTC networks of the search equal the set-based queries,
        `oracles.allowed_update` and the reference networks, in subgraphs
        of the deletion recursion."""
        rng = random.Random(71)
        pools = networks = 0
        for i in range(200):
            g = random_latent_factor_graph(
                rng, max_obs=7, max_lat=2, acyclic=i % 2 == 0
            )
            solved = {e for e in sorted(g.edges_obs) if rng.random() < 0.4}
            deleted = rng.sample(
                sorted(solved), min(len(solved), rng.randint(0, 2))
            )
            root = CompiledGraph(g)
            view, idx = root, root.index
            allowed = all_cov_pairs(g)
            rows = allowed_rows(root, allowed)
            for w, v in deleted:
                dec_v = descendants(g, [v])
                allowed = allowed_update(g, allowed, v, {w}, solved, dec_v)
                rows = criteria._rows_update(
                    rows, idx[v], root.descendants(idx[v])
                )
                view = view.without_edge(idx[w], idx[v])
            sub = without_obs_edges(g, set(deleted))
            names = view.names

            assert view.edges_obs == sub.edges_obs
            assert view.nodes(view.all) == frozenset(sub.observed)
            for n, j in idx.items():
                assert view.nodes(view.pa[j]) == parents_obs(sub, n)
                assert view.nodes(view.ch[j]) == children(sub, [n])
                assert view.nodes(view.descendants(j)) == descendants(sub, [n])
            for _ in range(4):
                mask = rng.getrandbits(len(names))
                avoid = rng.getrandbits(len(view.latent))
                # Half-trek reach as the source pools build it, per node.
                reach = 0
                for s in bits(mask):
                    one = view.descendants(s)
                    for k in bits(view.pa_lat[s] & ~avoid):
                        one |= view.lat_reach(k)
                    reach |= one & ~(1 << s)
                assert view.nodes(reach) == htr(
                    sub,
                    view.nodes(mask),
                    [h for j, h in enumerate(view.latent) if avoid >> j & 1],
                )
            assert rows == allowed_rows(view, allowed)
            # A thinned allowed set makes the source-pool rules that need a
            # parent's row bind.
            allowed = frozenset(
                p for p in sorted(allowed) if rng.random() < 0.85
            )

            frame = FlowFrame(root)
            state = scratch_state(
                g, deleted, solved, allowed_rows(view, allowed), frame
            )
            named = frame_network(frame, state.flow_net)
            ref_det = ref_build_det_flow(sub)
            assert named.node_capacity == ref_det.node_capacity
            assert named.arcs == ref_det.arcs
            solved_nodes = ref_solved_nodes(sub, state.solved_edges)
            assert state.solved_mask == sum(1 << idx[n] for n in solved_nodes)

            for v in names:
                j = idx[v]
                for h_size in range(len(view.latent) + 1):
                    for h_combo in combinations(
                        range(len(view.latent)), h_size
                    ):
                        h = sum(1 << k for k in h_combo)
                        z_pool = view.lat_children(h) & ~(1 << j)
                        for z_combo in combinations(
                            [k for k in range(len(names)) if z_pool >> k & 1],
                            h_size,
                        ):
                            z = sum(1 << k for k in z_combo)
                            sources = criteria._elf_allowed_sources(
                                state, j, z, h
                            )
                            assert view.nodes(
                                sources
                            ) == ref_elf_allowed_sources(
                                sub,
                                solved_nodes,
                                allowed,
                                v,
                                view.nodes(z),
                                [view.latent[k] for k in h_combo],
                            ), (g, deleted, v, z_combo, h_combo)
                            pools += 1

                            w_v = view.pa[j] & rng.getrandbits(len(names))
                            w_z = rng.getrandbits(len(names))
                            sinks = w_v | z | w_z
                            fast = state.elf_network(sources, z)
                            ref = ref_build_elf_flow(
                                sub,
                                v,
                                view.nodes(sources),
                                view.nodes(z),
                                view.nodes(w_z),
                                view.nodes(w_v),
                            )
                            # The same nodes and arcs, and the same
                            # terminals.
                            named = frame_network(frame, fast)
                            assert named.node_capacity == ref.node_capacity
                            assert named.arcs == ref.arcs
                            assert ref.sources == tuple(
                                orig(names[k]) for k in bits(sources)
                            )
                            assert ref.sinks == tuple(
                                primed(names[k]) for k in bits(sinks)
                            )
                            value, carrying, _ = state.frame.solve(
                                fast, sources, sinks
                            )
                            ref_value, used, _ = ref_solve(ref)
                            assert value == ref_value
                            if value == sinks.bit_count():
                                assert carrying == used
                            networks += 1
        assert pools == networks > 1000
