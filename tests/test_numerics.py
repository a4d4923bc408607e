"""Parameter sampling, covariance synthesis, estimation, verification."""

import random

import numpy as np
import pytest

from latentid.catalog import builtin_graph
from latentid.criteria import IdentificationState, combined_algorithm
from latentid.formulas import (
    FormulaMap,
    Lam,
    Neg,
    Prod,
    Quot,
    SolveCoord,
    Sum,
    cov,
)
from latentid.graph import LatentFactorGraph
from latentid.numerics import (
    CovarianceMatrix,
    EdgeEstimate,
    ModelParameters,
    SamplingSpec,
    covariance,
    covariance_from_csv,
    covariance_to_csv,
    estimate,
    sample_parameters,
    verify_identification,
)

from oracles import random_latent_factor_graph, trek_rule_covariance


class TestSampling:
    def test_seed_determinism(self):
        g = builtin_graph("fig2a")
        a = sample_parameters(g, seed=42)
        b = sample_parameters(g, seed=42)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.omega_diag, b.omega_diag)
        assert np.array_equal(a.v_l, b.v_l)

    def test_structural_zeros_exact(self):
        g = builtin_graph("fig2a")
        params = sample_parameters(g, seed=1)
        assert np.count_nonzero(params.lam) == len(g.edges_obs) == 6
        obs_idx = {n: i for i, n in enumerate(g.observed)}
        for a, b in g.edges_obs:
            assert params.lam[obs_idx[a], obs_idx[b]] != 0.0

    def test_no_edges_means_zero_lambda(self):
        g = LatentFactorGraph(["1", "2"], ["h1"], [], [("h1", "1")])
        params = sample_parameters(g, seed=2)
        assert not params.lam.any()

    def test_coefficients_bounded_away_from_zero(self):
        g = builtin_graph("fig3")
        spec = SamplingSpec(coeff_low=0.4, coeff_high=0.9)
        params = sample_parameters(g, seed=3, spec=spec)
        mags = np.abs(params.lam[params.lam != 0.0])
        assert mags.min() >= 0.4 and mags.max() <= 0.9


class TestCovariance:
    def test_identity_model(self):
        g = LatentFactorGraph(["1", "2"], [], [], [])
        params = ModelParameters(
            g,
            np.zeros((2, 2)),
            np.zeros((0, 2)),
            np.ones(2),
            np.ones(0),
        )
        sigma = covariance(params)
        assert np.allclose(sigma.values, np.eye(2))

    def test_single_edge_closed_form(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        lam = 0.7
        params = ModelParameters(
            g,
            np.array([[0.0, lam], [0.0, 0.0]]),
            np.zeros((0, 2)),
            np.ones(2),
            np.ones(0),
        )
        sigma = covariance(params)
        assert np.allclose(
            sigma.values, [[1.0, lam], [lam, 1.0 + lam**2]]
        )

    def test_positive_definite(self):
        for name in ("fig2a", "fig2b", "household", "fig3"):
            g = builtin_graph(name)
            for seed in range(5):
                covariance(
                    sample_parameters(g, seed=seed)
                ).check_positive_definite()

    def test_matches_trek_rule_on_builtin(self):
        g = builtin_graph("fig2a")
        params = sample_parameters(g, seed=9)
        sigma = covariance(params)
        oracle = trek_rule_covariance(params)
        assert np.allclose(sigma.values, oracle, atol=1e-10)

    def test_matches_trek_rule_on_random_acyclic(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_latent_factor_graph(rng, max_obs=6, acyclic=True)
            params = sample_parameters(g, seed=rng.randrange(10**6))
            sigma = covariance(params)
            assert np.allclose(
                sigma.values, trek_rule_covariance(params), atol=1e-10
            ), g


class TestCovarianceMatrix:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(("1", "2"), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(("1", "2", "3"), np.eye(2))

    def test_duplicate_node_rejected(self):
        # Read by name, the second "1" would shadow the first.
        with pytest.raises(ValueError, match="duplicate .* '1'"):
            CovarianceMatrix(("1", "2", "1"), np.eye(3))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_entry_rejected(self, bad):
        values = np.eye(3)
        values[1, 1] = bad
        with pytest.raises(
            ValueError, match="row 2, column 2 is not finite"
        ):
            CovarianceMatrix(("1", "2", "3"), values)

    def test_lookup_by_node_id(self):
        sigma = CovarianceMatrix(
            ("a", "b"), np.array([[2.0, 0.5], [0.5, 1.0]])
        )
        assert sigma["a", "b"] == 0.5
        assert sigma["b", "b"] == 1.0

    def test_csv_round_trip(self):
        g = builtin_graph("household")
        sigma = covariance(sample_parameters(g, seed=4))
        back = covariance_from_csv(covariance_to_csv(sigma))
        assert back.nodes == sigma.nodes
        assert np.array_equal(back.values, sigma.values)

    @pytest.mark.parametrize(
        "nodes",
        [
            ("1", "a,b"),
            ('say "hi"', '"'),
            (" x", "tab\t"),
            ("line\nbreak", "a\r\nb", "fs\x1csep"),
            ("", ", "),
        ],
    )
    def test_csv_names_round_trip(self, nodes):
        """Names holding a comma, a quote, a line break or surrounding
        whitespace are quoted and read back verbatim."""
        sigma = CovarianceMatrix(nodes, np.eye(len(nodes)))
        back = covariance_from_csv(covariance_to_csv(sigma))
        assert back.nodes == nodes
        assert np.array_equal(back.values, sigma.values)

    def test_csv_plain_names_unquoted(self):
        sigma = CovarianceMatrix(("1", "b c", "é"), np.eye(3))
        assert covariance_to_csv(sigma).splitlines()[0] == "1,b c,é"
        assert covariance_to_csv(
            CovarianceMatrix(("1", "a,b"), np.eye(2))
        ).startswith('1,"a,b"\n')

    def test_csv_spaced_header(self):
        back = covariance_from_csv("\n 1, 2 \r\n1,0\r\n\n0,1\n")
        assert back.nodes == ("1", "2")
        assert np.array_equal(back.values, np.eye(2))

    def test_csv_text_after_quoted_name_rejected(self):
        with pytest.raises(ValueError, match="header"):
            covariance_from_csv('"a"b,c\n1,0\n0,1')


class TestEstimate:
    def test_round_trip(self):
        g = builtin_graph("fig2a")
        state = combined_algorithm(g)
        from latentid.formulas import formula_map_from_state

        fmap = formula_map_from_state(g, state)
        params = sample_parameters(g, seed=6)
        results = estimate(g, covariance(params), fmap)
        assert set(results) == g.edges_obs
        for edge, res in results.items():
            assert not res.degenerate
            assert res.value == pytest.approx(
                params.coefficient(edge), rel=1e-8
            )

    def test_identity_sigma_flags_degeneracy(self):
        g = builtin_graph("fig2a")
        state = combined_algorithm(g)
        from latentid.formulas import formula_map_from_state

        fmap = formula_map_from_state(g, state)
        sigma = CovarianceMatrix(tuple(g.observed), np.eye(6))
        results = estimate(g, sigma, fmap)
        # Every system of fig2a is singular at the identity.
        assert results == {
            edge: EdgeEstimate(None, degenerate=True)
            for edge in sorted(g.edges_obs)
        }

    def test_degenerate_value_flags_only_its_dependents(self):
        # A's denominator vanishes; B holds A's coefficient; C does not.
        # D and E are two coordinates of one singular system.
        a, b, c = ("1", "2"), ("2", "3"), ("1", "3")
        d, e = ("3", "4"), ("2", "4")
        s11, s12, s22 = cov("1", "1"), cov("1", "2"), cov("2", "2")
        singular = ((s11, s12), (s12, s12))
        rhs = (cov("1", "3"), cov("2", "3"))
        fmap = FormulaMap()
        fmap.add(a, Quot(s12, Sum((s11, Neg(s22)))))
        fmap.add(b, Prod((Lam(a), cov("1", "3"))))
        fmap.add(c, Quot(cov("1", "3"), cov("3", "3")))
        fmap.add(d, SolveCoord(singular, rhs, 0))
        fmap.add(e, SolveCoord(singular, rhs, 1))
        vals = np.array(
            [[2.0, 2.0, 0.5, 0.0], [2.0, 2.0, 0.3, 0.0],
             [0.5, 0.3, 4.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
        )
        g = LatentFactorGraph(["1", "2", "3", "4"], [], [a, b, c, d, e], [])
        results = estimate(g, CovarianceMatrix(g.observed, vals), fmap)
        assert results == {
            a: EdgeEstimate(None, degenerate=True),
            b: EdgeEstimate(None, degenerate=True),
            c: EdgeEstimate(0.125),
            d: EdgeEstimate(None, degenerate=True),
            e: EdgeEstimate(None, degenerate=True),
        }

    def test_empty_fmap(self):
        g = builtin_graph("fig2a")
        sigma = CovarianceMatrix(tuple(g.observed), np.eye(6))
        assert estimate(g, sigma, FormulaMap()) == {}

    def test_relabel_equivariance(self):
        g = LatentFactorGraph(
            ["1", "2"], ["h1"], [("1", "2")], [("h1", "1"), ("h1", "2")]
        )
        g2 = LatentFactorGraph(
            ["a", "b"], ["h1"], [("a", "b")], [("h1", "a"), ("h1", "b")]
        )
        fmap1 = FormulaMap()
        fmap1.add(("1", "2"), Quot(cov("1", "2"), cov("1", "1")))
        fmap2 = FormulaMap()
        fmap2.add(("a", "b"), Quot(cov("a", "b"), cov("a", "a")))
        vals = np.array([[2.0, 0.8], [0.8, 1.5]])
        r1 = estimate(g, CovarianceMatrix(("1", "2"), vals), fmap1)
        r2 = estimate(g2, CovarianceMatrix(("a", "b"), vals), fmap2)
        assert r1[("1", "2")].value == r2[("a", "b")].value


class TestVerification:
    @pytest.mark.parametrize("name", ["fig2a", "household"])
    def test_identified_graphs_verify(self, name):
        g = builtin_graph(name)
        state = combined_algorithm(g)
        report = verify_identification(g, state, trials=50, tol=1e-8, seed=0)
        assert len(report.failures) == 0
        assert report.max_rel_error < 1e-8
        assert report.unverified_edges == []

    def test_unsolved_edges_reported(self):
        g = builtin_graph("fig2a")
        state = IdentificationState.fresh(g)
        report = verify_identification(g, state, trials=1, seed=0)
        assert sorted(g.edges_obs) == report.unverified_edges

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_tolerance_rejected(self, tol):
        # NaN would pass every trial, a negative tolerance fail every one.
        g = builtin_graph("fig2a")
        state = combined_algorithm(g)
        with pytest.raises(ValueError, match="tol"):
            verify_identification(g, state, trials=1, tol=tol)

    def test_report_serializes(self):
        import json

        g = builtin_graph("fig2b")
        state = combined_algorithm(g)
        report = verify_identification(g, state, trials=5, seed=1)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["trials"] == 5
        assert payload["failures"] == []
