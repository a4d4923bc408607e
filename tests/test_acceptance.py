"""Acceptance suite: one pass/fail line per top-level criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test covers exactly one criterion and prints ``[PASS]`` or
``[FAIL]`` with its label.  The extended benchmark rows (about 35 s on a
2-core machine: 6 s for fig5a rows 7-9, 27 s for fig5b rows 4-6) run only
when ``LATENTID_EXTENDED=1`` is set.
"""

import contextlib
import os
import random

import pytest

from latentid.catalog import builtin_graph
from latentid.criteria import (
    DetCertificate,
    HtcCertificate,
    SearchConfig,
    check_elf_htc,
    combined_algorithm,
)
from latentid.enumeration import (
    OVERLAPPING_FACTORS_SIX,
    SINGLE_FACTOR_SIX,
    run_benchmark,
)
from latentid.flow import FlowFrame
from latentid.formulas import (
    DeletionContext,
    FormulaMap,
    build_elf_system,
    formula_map_from_state,
    render_latex,
    solve_alpha,
)
from latentid.graph import CompiledGraph
from latentid.numerics import covariance, sample_parameters, verify_identification

from oracles import (
    disjoint_paths_bruteforce,
    name_mask,
    orig,
    primed,
    random_latent_factor_graph,
    ref_build_det_flow,
    trek_rule_covariance,
)

LEGACY = SearchConfig(
    legacy_lf_htc_only=True, enable_det=False, enable_recursion=False
)

COMBINED = "Det+eLF-HTC+rec"


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def single_factor_rows():
    return run_benchmark(
        SINGLE_FACTOR_SIX,
        6,
        ("LF-HTC", COMBINED, "no-wz-loop", "cap10", "cap100", "cap500"),
        workers=4,
    )


class TestBenchmarkTables:
    def test_benchmark_single_factor_counts(self, single_factor_rows):
        with criterion("Benchmark: single-factor pattern, rows 0-6"):
            assert [r.total for r in single_factor_rows] == [
                1, 1, 4, 13, 51, 163, 407,
            ]
            assert [r.counts["LF-HTC"] for r in single_factor_rows] == [
                1, 1, 4, 13, 50, 134, 250,
            ]
            assert [r.counts[COMBINED] for r in single_factor_rows] == [
                1, 1, 4, 13, 51, 159, 398,
            ]

    def test_benchmark_overlapping_factor_counts(self):
        with criterion("Benchmark: overlapping-factors pattern, rows 0-3"):
            rows = run_benchmark(
                OVERLAPPING_FACTORS_SIX, 3, ("LF-HTC", COMBINED), workers=4
            )
            assert [r.total for r in rows] == [1, 8, 63, 391]
            assert [r.counts["LF-HTC"] for r in rows] == [1, 6, 43, 236]
            assert [r.counts[COMBINED] for r in rows] == [1, 6, 45, 255]

    def test_variant_no_wz_loop_matches_combined(self, single_factor_rows):
        with criterion("Variants: no-W_z-loop counts equal combined, rows 0-6"):
            for row in single_factor_rows:
                assert row.counts["no-wz-loop"] == row.counts[COMBINED], (
                    row.num_edges
                )

    def test_variant_cap_monotonicity(self, single_factor_rows):
        with criterion("Variants: cap 10 <= 100 <= 500 <= uncapped, rows 0-6"):
            for row in single_factor_rows:
                assert (
                    row.counts["cap10"]
                    <= row.counts["cap100"]
                    <= row.counts["cap500"]
                    <= row.counts[COMBINED]
                ), row.num_edges

    def test_variant_cap_row6_exact(self, single_factor_rows):
        # Known deviation: with pairs counted in ascending-cardinality,
        # lexicographic order, only 252 (S, T) pairs exist per edge on six
        # nodes, so a cap of 500 can never bind and the row-6 reference
        # values are not reachable under any budget-order convention we
        # found.  The test states the reference targets and fails honestly.
        with criterion("Variants: cap row-6 values (378, 393, 395, 398)"):
            row6 = single_factor_rows[6]
            got = tuple(
                row6.counts[m] for m in ("cap10", "cap100", "cap500", COMBINED)
            )
            assert got == (378, 393, 395, 398), got


class TestGoldenExamples:
    def test_golden_example_graphs(self):
        with criterion("Golden examples: five example-graph behaviours"):
            # Chain with shortcut: full under combined, not under legacy.
            g = builtin_graph("fig2a")
            assert g.edges_obs <= combined_algorithm(g).solved_edges
            legacy = combined_algorithm(g, LEGACY)
            assert not g.edges_obs <= legacy.solved_edges

            # Two-proxy: 2 -> 3 via the extended criterion with the known
            # witness sets, and not via the legacy criterion.
            g = builtin_graph("fig2b")
            state = combined_algorithm(g)
            assert ("2", "3") in state.solved_edges
            (rec,) = [
                r for r in state.certificates if ("2", "3") in r.edges
            ]
            cert = rec.cert
            assert isinstance(cert, HtcCertificate)
            assert cert.w_v == frozenset({"2", "4"})
            assert cert.y == frozenset({"1", "2"})
            assert cert.z == frozenset({"4"})
            assert cert.w_z() == {"4": frozenset()}
            assert cert.h == frozenset({"h1"})
            assert ("2", "3") not in combined_algorithm(g, LEGACY).solved_edges

            # Household panel graph: fully identified.
            g = builtin_graph("household")
            assert g.edges_obs <= combined_algorithm(g).solved_edges

            # Chain with fork: fully identified; under the determinantal
            # criterion alone the edge 2 -> 3 needs the recursive step.
            g = builtin_graph("fig4a")
            assert g.edges_obs <= combined_algorithm(g).solved_edges
            det_flat = SearchConfig(enable_elf=False, enable_recursion=False)
            assert ("2", "3") not in combined_algorithm(g, det_flat).solved_edges
            det_rec = SearchConfig(enable_elf=False)
            full = combined_algorithm(g, det_rec)
            assert ("2", "3") in full.solved_edges
            (rec,) = [r for r in full.certificates if r.edges == (("2", "3"),)]
            assert rec.depth >= 1

            # Dense six-node graph: the sink witness for node 6 needs the
            # conditioning set {2} and fails without it.
            g = builtin_graph("fig3")
            common = dict(
                w_v={"2", "3", "4", "5"},
                y={"1", "2", "3", "5"},
                z={"4"},
                h={"h1"},
            )
            assert check_elf_htc(g, "6", w_z={"4": {"2"}}, **common)
            assert not check_elf_htc(g, "6", w_z={"4": set()}, **common)


class TestFormulaFidelity:
    def test_reference_display_systems(self):
        with criterion("Formula fidelity: six reference display systems"):
            def htc(v, w_v, y, z, w_z, h):
                return HtcCertificate(
                    v=v,
                    w_v=frozenset(w_v),
                    y=frozenset(y),
                    z=frozenset(z),
                    w_z_map=tuple(
                        sorted((k, frozenset(ws)) for k, ws in w_z.items())
                    ),
                    h=frozenset(h),
                )

            g = builtin_graph("fig2a")
            certs = [
                htc("4", {"3"}, {"1", "2", "3"}, {"6"}, {"6": {"5"}}, {"h1"}),
                htc("6", {"5"}, {"1", "2", "3"}, {"4"}, {"4": {"3"}}, {"h1"}),
                htc("2", {"1"}, {"1", "6"}, {"4"}, {"4": set()}, {"h1"}),
                htc("3", {"2"}, {"2", "4"}, {"1"}, {"1": set()}, {"h1"}),
                htc("5", {"1", "4"}, {"1", "3", "4"}, {"2"}, {"2": set()},
                    {"h1"}),
            ]
            fmap = FormulaMap()
            rendered = {}
            for cert in certs:
                system = build_elf_system(g, cert, fmap)
                rendered[cert.v] = (
                    system.rows,
                    system.columns,
                    [[render_latex(e) for e in row] for row in system.matrix],
                    [render_latex(e) for e in system.rhs],
                )
                for edge, expr in solve_alpha(system):
                    fmap.add(edge, expr)

            assert rendered["4"] == (
                ("1", "2", "3"),
                ("3", "6", "5"),
                [
                    [r"\Sigma_{13}", r"\Sigma_{16}", r"\Sigma_{15}"],
                    [r"\Sigma_{23}", r"\Sigma_{26}", r"\Sigma_{25}"],
                    [r"\Sigma_{33}", r"\Sigma_{36}", r"\Sigma_{35}"],
                ],
                [r"\Sigma_{14}", r"\Sigma_{24}", r"\Sigma_{34}"],
            )
            assert rendered["6"] == (
                ("1", "2", "3"),
                ("5", "4", "3"),
                [
                    [r"\Sigma_{15}", r"\Sigma_{14}", r"\Sigma_{13}"],
                    [r"\Sigma_{25}", r"\Sigma_{24}", r"\Sigma_{23}"],
                    [r"\Sigma_{35}", r"\Sigma_{34}", r"\Sigma_{33}"],
                ],
                [r"\Sigma_{16}", r"\Sigma_{26}", r"\Sigma_{36}"],
            )
            assert rendered["2"] == (
                ("1", "6"),
                ("1", "4"),
                [
                    [
                        r"\Sigma_{11}",
                        r"\Sigma_{14} - \lambda_{34}\Sigma_{13}",
                    ],
                    [
                        r"\Sigma_{16} - \lambda_{56}\Sigma_{15}",
                        r"\Sigma_{46} - \lambda_{56}\Sigma_{45}"
                        r" - (\Sigma_{36} - \lambda_{56}\Sigma_{35})"
                        r"\lambda_{34}",
                    ],
                ],
                [
                    r"\Sigma_{12}",
                    r"\Sigma_{26} - \lambda_{56}\Sigma_{25}",
                ],
            )
            assert rendered["3"] == (
                ("2", "4"),
                ("2", "1"),
                [
                    [
                        r"\Sigma_{22} - \lambda_{12}\Sigma_{12}",
                        r"\Sigma_{12} - \lambda_{12}\Sigma_{11}",
                    ],
                    [
                        r"\Sigma_{24} - \lambda_{34}\Sigma_{23}",
                        r"\Sigma_{14} - \lambda_{34}\Sigma_{13}",
                    ],
                ],
                [
                    r"\Sigma_{23} - \lambda_{12}\Sigma_{13}",
                    r"\Sigma_{34} - \lambda_{34}\Sigma_{33}",
                ],
            )
            assert rendered["5"] == (
                ("1", "3", "4"),
                ("1", "4", "2"),
                [
                    [
                        r"\Sigma_{11}",
                        r"\Sigma_{14}",
                        r"\Sigma_{12} - \lambda_{12}\Sigma_{11}",
                    ],
                    [
                        r"\Sigma_{13} - \lambda_{23}\Sigma_{12}",
                        r"\Sigma_{34} - \lambda_{23}\Sigma_{24}",
                        r"\Sigma_{23} - \lambda_{23}\Sigma_{22}"
                        r" - (\Sigma_{13} - \lambda_{23}\Sigma_{12})"
                        r"\lambda_{12}",
                    ],
                    [
                        r"\Sigma_{14} - \lambda_{34}\Sigma_{13}",
                        r"\Sigma_{44} - \lambda_{34}\Sigma_{34}",
                        r"\Sigma_{24} - \lambda_{34}\Sigma_{23}"
                        r" - (\Sigma_{14} - \lambda_{34}\Sigma_{13})"
                        r"\lambda_{12}",
                    ],
                ],
                [
                    r"\Sigma_{15}",
                    r"\Sigma_{35} - \lambda_{23}\Sigma_{25}",
                    r"\Sigma_{45} - \lambda_{34}\Sigma_{35}",
                ],
            )

            # Two-proxy graph: the 2 -> 3 coefficient comes out as the
            # first coordinate of a 2x2 linear solve.
            g = builtin_graph("fig2b")
            cert = htc(
                "3", {"2", "4"}, {"1", "2"}, {"4"}, {"4": set()}, {"h1"}
            )
            system = build_elf_system(g, cert, FormulaMap())
            ((edge, expr),) = [
                p for p in solve_alpha(system) if p[0] == ("2", "3")
            ]
            assert render_latex(expr) == (
                r"\left[\begin{pmatrix}"
                r" \Sigma_{12} & \Sigma_{14} \\ \Sigma_{22} & \Sigma_{24}"
                r" \end{pmatrix}^{-1} \cdot \begin{pmatrix}"
                r" \Sigma_{13} \\ \Sigma_{23}"
                r" \end{pmatrix}\right]_{1}"
            )


class TestNumericRoundTrip:
    def test_round_trip_examples_and_random(self):
        with criterion(
            "Numeric round-trip: examples + 200 random graphs, 100 draws"
        ):
            total_trials = 0
            degenerate = 0
            for name in ("fig2a", "fig2b", "fig4a", "household"):
                g = builtin_graph(name)
                state = combined_algorithm(g)
                report = verify_identification(
                    g, state, trials=100, tol=1e-8, seed=0
                )
                assert len(report.failures) == 0, name
                total_trials += report.trials
                degenerate += report.degenerate_trials

            rng = random.Random(2024)
            found = 0
            seed = 0
            while found < 200:
                g = random_latent_factor_graph(rng, max_obs=7, max_lat=2)
                if not g.edges_obs:
                    continue
                state = combined_algorithm(g)
                if not g.edges_obs <= state.solved_edges:
                    continue
                seed += 1
                report = verify_identification(
                    g, state, trials=100, tol=1e-8, seed=seed
                )
                assert len(report.failures) == 0, g
                assert report.unverified_edges == []
                total_trials += report.trials
                degenerate += report.degenerate_trials
                found += 1
            assert degenerate < 0.01 * total_trials


class TestOracleEquivalences:
    def test_max_flow_matches_bruteforce(self):
        with criterion("Oracles: max-flow vs exhaustive paths, 500 cases"):
            rng = random.Random(101)
            checked = 0
            while checked < 500:
                g = random_latent_factor_graph(
                    rng, max_obs=6, max_lat=2, acyclic=False
                )
                view = CompiledGraph(g)
                frame = FlowFrame(view)
                obs = sorted(g.observed)
                sources = [n for n in obs if rng.random() < 0.5]
                sinks = [n for n in obs if rng.random() < 0.5]
                if not sources or not sinks:
                    continue
                value, _, _ = frame.solve(
                    frame.det_network(view),
                    name_mask(view, sources),
                    name_mask(view, sinks),
                )
                ref = ref_build_det_flow(g).with_terminals(
                    map(orig, sources), map(primed, sinks)
                )
                assert value == disjoint_paths_bruteforce(ref)
                checked += 1

    def test_covariance_matches_trek_rule(self):
        with criterion("Oracles: covariance vs trek rule, acyclic graphs"):
            import numpy as np

            rng = random.Random(77)
            for _ in range(100):
                g = random_latent_factor_graph(rng, max_obs=6, acyclic=True)
                params = sample_parameters(g, seed=rng.randrange(10**6))
                sigma = covariance(params)
                assert np.allclose(
                    sigma.values, trek_rule_covariance(params), atol=1e-10
                ), g

    def test_allowed_sets_order_invariant(self):
        with criterion("Oracles: allowed sets under 50 re-orderings per graph"):
            rng = random.Random(55)
            graphs = [
                builtin_graph(n)
                for n in ("fig2a", "fig4a", "household", "fig3")
            ]
            while len(graphs) < 20:
                g = random_latent_factor_graph(rng, max_obs=7)
                if len(g.edges_obs) >= 3:
                    graphs.append(g)
            for g in graphs:
                edges = sorted(g.edges_obs)
                rng.shuffle(edges)
                seq = edges[: min(4, len(edges))]

                def apply_seq(order):
                    return DeletionContext(g, order).rows

                reference = apply_seq(seq)
                for _ in range(50):
                    shuffled = seq[:]
                    rng.shuffle(shuffled)
                    assert apply_seq(shuffled) == reference, (g, shuffled)


class TestSubsumption:
    def test_legacy_subset_of_combined(self):
        with criterion("Subsumption: legacy edges subset of combined, 500 graphs"):
            rng = random.Random(303)
            for _ in range(500):
                g = random_latent_factor_graph(rng, max_obs=6, max_lat=2)
                legacy = combined_algorithm(g, LEGACY).solved_edges
                full = combined_algorithm(g).solved_edges
                assert legacy <= full, g


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("LATENTID_EXTENDED") != "1",
    reason="set LATENTID_EXTENDED=1 to run the long benchmark rows",
)
class TestExtendedBenchmarks:
    def test_extended_single_factor_rows_7_to_9(self):
        with criterion("Extended benchmark: single-factor rows 7-9"):
            rows = run_benchmark(
                SINGLE_FACTOR_SIX, 9, ("LF-HTC", COMBINED), workers=4
            )
            assert [r.total for r in rows[7:]] == [796, 1169, 1291]
            assert [r.counts[COMBINED] for r in rows[7:]] == [743, 938, 606]

    def test_extended_overlapping_rows_4_to_6(self):
        with criterion("Extended benchmark: overlapping-factors rows 4-6"):
            rows = run_benchmark(
                OVERLAPPING_FACTORS_SIX, 6, (COMBINED,), workers=4
            )
            assert [r.total for r in rows[4:]] == [1983, 7570, 21029]
            assert [r.counts[COMBINED] for r in rows[4:]] == [
                1168, 3850, 8675,
            ]
