"""Graph construction, compiled queries, and half-trek reachability."""

import random

import pytest

from latentid import graph
from latentid.catalog import builtin_graph
from latentid.criteria import HtcCertificate
from latentid.formulas import DeletionContext, FormulaMap, build_elf_system
from latentid.graph import (
    CompiledGraph,
    EdgeIntoLatentError,
    LatentFactorGraph,
    NamespaceError,
    SelfLoopError,
    UnknownNodeError,
    bits,
    graph_from_dict,
    graph_to_dict,
)

from oracles import (
    descendants,
    htr,
    htr_bruteforce,
    random_latent_factor_graph,
    reach_by_matrix_power,
)


@pytest.fixture
def fig2a():
    return builtin_graph("fig2a")


@pytest.fixture
def fig2b():
    return builtin_graph("fig2b")


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            LatentFactorGraph(["1", "2"], ["h1"], [("1", "1")], [])

    def test_edge_into_latent_rejected(self):
        with pytest.raises(EdgeIntoLatentError):
            LatentFactorGraph(["1", "2"], ["h1"], [], [("h1", "h1")])
        with pytest.raises(EdgeIntoLatentError):
            LatentFactorGraph(
                ["1", "2"], ["h1"], [("1", "h1")], [("h1", "2")]
            )

    def test_namespace_overlap_rejected(self):
        with pytest.raises(NamespaceError):
            LatentFactorGraph(["1", "x"], ["x"], [], [])

    @pytest.mark.parametrize(
        "observed, latent", [(["", "b"], []), (["a"], [""])]
    )
    def test_empty_name_rejected(self, observed, latent):
        with pytest.raises(NamespaceError):
            LatentFactorGraph(observed, latent, [], [])

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownNodeError):
            LatentFactorGraph(["1", "2"], [], [("1", "3")], [])

    def test_reciprocal_pair_and_cycle_allowed(self):
        g = LatentFactorGraph(
            ["1", "2"], ["h1"], [("1", "2"), ("2", "1")], [("h1", "1")]
        )
        assert g.edges_obs == frozenset({("1", "2"), ("2", "1")})

    def test_dict_round_trip(self, fig2a):
        assert graph_from_dict(graph_to_dict(fig2a)) == fig2a


class TestQueries:
    """The compiled graph's masks, read back as node names."""

    @staticmethod
    def query(g, attr, node):
        view = CompiledGraph(g)
        return view.nodes(getattr(view, attr)[view.index[node]])

    @staticmethod
    def latent_parents(g, node):
        view = CompiledGraph(g)
        return {view.latent[j] for j in bits(view.pa_lat[view.index[node]])}

    @staticmethod
    def latent_children(g, latents):
        view = CompiledGraph(g)
        mask = sum(1 << view.latent.index(h) for h in latents)
        return view.nodes(view.lat_children(mask))

    def test_parents_obs_fig2a(self, fig2a):
        assert self.query(fig2a, "pa", "5") == {"1", "4"}

    def test_parents_obs_empty(self, fig2a):
        assert self.query(fig2a, "pa", "1") == frozenset()

    def test_parents_obs_household(self):
        g = builtin_graph("household")
        assert self.query(g, "pa", "TC") == {"HS", "HA", "TA"}

    def test_parents_lat_fig2a(self, fig2a):
        assert self.latent_parents(fig2a, "3") == {"h1"}

    def test_parents_lat_no_latent_edges(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        assert self.latent_parents(g, "1") == set()

    def test_parents_lat_overlap_pattern(self):
        g = LatentFactorGraph(
            ["4"], ["h1", "h2"], [], [("h1", "4"), ("h2", "4")]
        )
        assert self.latent_parents(g, "4") == {"h1", "h2"}

    def test_children_latent(self, fig2a):
        assert self.latent_children(fig2a, {"h1"}) == frozenset(
            {"1", "2", "3", "4", "5", "6"}
        )
        view = CompiledGraph(fig2a)
        assert view.lat_ch == (view.all,)

    def test_children_empty(self, fig2a):
        assert self.latent_children(fig2a, set()) == frozenset()

    def test_children_fig2b(self, fig2b):
        assert self.query(fig2b, "ch", "4") == {"3"}

    def test_descendants_chain(self, fig2a):
        view = CompiledGraph(fig2a)
        assert view.nodes(view.descendants(view.index["4"])) == {"5", "6"}

    def test_descendants_sink(self, fig2a):
        view = CompiledGraph(fig2a)
        assert view.descendants(view.index["6"]) == 0

    def test_descendants_cycle(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2"), ("2", "1")], [])
        view = CompiledGraph(g)
        assert view.nodes(view.descendants(view.index["1"])) == {"1", "2"}

    def test_unknown_node_query(self, fig2a):
        # Node names are resolved against the compiled graph where the
        # formula builders take them.
        with pytest.raises(UnknownNodeError):
            DeletionContext(fig2a, [("99", "5")])
        cert = HtcCertificate(
            "99", frozenset(), frozenset(), frozenset(), (), frozenset()
        )
        with pytest.raises(UnknownNodeError):
            build_elf_system(fig2a, cert, FormulaMap())


class TestHtr:
    def test_htr_avoiding_latent(self, fig2a):
        result = htr(fig2a, {"3"}, {"h1"})
        assert result == frozenset({"4", "5", "6"})
        assert "2" not in result

    def test_htr_without_avoiding(self, fig2a):
        assert htr(fig2a, {"3"}, frozenset()) == frozenset(
            {"1", "2", "4", "5", "6"}
        )

    def test_htr_isolated_node(self):
        g = LatentFactorGraph(["1", "2"], [], [], [])
        assert htr(g, {"1"}, frozenset()) == frozenset()

    def test_htr_rejects_observed_avoid(self, fig2a):
        with pytest.raises(UnknownNodeError):
            htr(fig2a, {"3"}, {"1"})

    def test_htr_source_never_member_even_on_cycle(self):
        g = LatentFactorGraph(
            ["1", "2"], ["h1"], [("1", "2"), ("2", "1")], [("h1", "1")]
        )
        assert "1" not in htr(g, {"1"}, frozenset())

    def test_htr_matches_bruteforce_random(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_latent_factor_graph(rng, max_obs=6, acyclic=False)
            for s in g.observed:
                for avoid in (frozenset(), frozenset(g.latent)):
                    assert htr(g, {s}, avoid) == htr_bruteforce(
                        g, {s}, avoid
                    ), (g, s, avoid)

    def test_htr_monotone_in_avoid_set(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_latent_factor_graph(rng, max_obs=6, max_lat=2)
            lats = sorted(g.latent)
            small = frozenset(lats[:1])
            for s in g.observed:
                assert htr(g, {s}, frozenset(lats)) <= htr(g, {s}, small)
                assert htr(g, {s}, small) <= htr(g, {s}, frozenset())

    def test_descendants_match_matrix_powers(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_latent_factor_graph(rng, max_obs=8, acyclic=False)
            for s in g.observed:
                assert descendants(g, {s}) == reach_by_matrix_power(g, s)


class TestBits:
    def test_matches_reference(self):
        """`bits` gives the set-bit positions in ascending order for every
        mask below its table bound, the bound and its neighbours, 0, and
        random masks up to 2**40."""
        bound = graph._BITS_BOUND
        rng = random.Random(41)
        masks = [*range(bound), bound - 1, bound, bound + 1, 0]
        masks += [rng.getrandbits(rng.randint(1, 40)) for _ in range(3000)]
        masks.append((1 << 40) - 1)
        for mask in masks:
            want = [i for i in range(mask.bit_length()) if mask >> i & 1]
            assert list(bits(mask)) == want, mask
