"""DAG enumeration up to symmetry and the benchmark harness."""

import time

import pytest

from latentid import enumeration
from latentid.enumeration import (
    DEFAULT_METHODS,
    METHOD_PRESETS,
    OVERLAPPING_FACTORS_SIX,
    PATTERNS,
    REFERENCE_COUNTS,
    SINGLE_FACTOR_SIX,
    LatentPattern,
    automorphisms,
    enumerate_dags,
    rows_to_csv,
    rows_to_markdown,
    run_benchmark,
)

from oracles import count_classes_exhaustive


class TestPatterns:
    def test_children_range_validated(self):
        with pytest.raises(ValueError):
            LatentPattern(3, (("h1", frozenset({0, 3})),))

    def test_builtin_patterns(self):
        assert PATTERNS["fig5a"] is SINGLE_FACTOR_SIX
        assert PATTERNS["fig5b"] is OVERLAPPING_FACTORS_SIX
        assert SINGLE_FACTOR_SIX.latent_edges() == [
            ("h1", str(i)) for i in range(1, 7)
        ]

    def test_automorphism_group_sizes(self):
        # One latent covering all six nodes: the full symmetric group.
        assert len(automorphisms(SINGLE_FACTOR_SIX)) == 720
        # Two overlapping factors: {0,1,2} x {4,5} permute freely, the
        # shared node 3 is fixed.
        assert len(automorphisms(OVERLAPPING_FACTORS_SIX)) == 12

    def test_automorphisms_preserve_children_multiset(self):
        for pattern in PATTERNS.values():
            targets = sorted(
                tuple(sorted(kids)) for _, kids in pattern.latents
            )
            for perm in automorphisms(pattern):
                mapped = sorted(
                    tuple(sorted(perm[i] for i in kids))
                    for _, kids in pattern.latents
                )
                assert mapped == targets


class TestEnumeration:
    def test_single_factor_two_edges(self):
        graphs = enumerate_dags(SINGLE_FACTOR_SIX, 2)
        assert len(graphs) == 4

    def test_overlapping_one_edge(self):
        graphs = enumerate_dags(OVERLAPPING_FACTORS_SIX, 1)
        assert len(graphs) == 8

    def test_zero_edges(self):
        (g,) = enumerate_dags(SINGLE_FACTOR_SIX, 0)
        assert not g.edges_obs

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            enumerate_dags(SINGLE_FACTOR_SIX, 16)

    def test_graphs_are_acyclic_and_distinct(self):
        graphs = enumerate_dags(SINGLE_FACTOR_SIX, 4)
        from latentid.graph import descendants

        seen = set()
        for g in graphs:
            assert g.edges_obs not in seen
            seen.add(g.edges_obs)
            for v in g.observed:
                assert v not in descendants(g, [v])

    def test_matches_reference_totals(self):
        for name, pattern in PATTERNS.items():
            totals = REFERENCE_COUNTS[name]["total"]
            upto = 4 if name == "fig5a" else 3
            for m in range(upto + 1):
                assert len(enumerate_dags(pattern, m)) == totals[m], (
                    name,
                    m,
                )

    def test_matches_exhaustive_dedup_oracle(self):
        patterns = [
            LatentPattern(4, (("h1", frozenset(range(4))),)),
            LatentPattern(
                5,
                (
                    ("h1", frozenset({0, 1, 2})),
                    ("h2", frozenset({2, 3, 4})),
                ),
            ),
        ]
        for pattern in patterns:
            for m in range(4):
                assert len(enumerate_dags(pattern, m)) == (
                    count_classes_exhaustive(pattern, m)
                ), (pattern, m)


class TestBenchmark:
    def test_small_single_factor_rows(self):
        rows = run_benchmark(SINGLE_FACTOR_SIX, 4, DEFAULT_METHODS)
        assert [r.total for r in rows] == [1, 1, 4, 13, 51]
        assert [r.counts["LF-HTC"] for r in rows] == [1, 1, 4, 13, 50]
        assert [r.counts["Det+eLF-HTC+rec"] for r in rows] == [
            1, 1, 4, 13, 51,
        ]

    def test_method_ordering_property(self):
        # Each preset with strictly more machinery identifies at least as
        # many classes per row.
        rows = run_benchmark(
            SINGLE_FACTOR_SIX,
            4,
            ("LF-HTC", "eLF-HTC", "Det+eLF-HTC", "Det+eLF-HTC+rec"),
        )
        order = ["LF-HTC", "eLF-HTC", "Det+eLF-HTC", "Det+eLF-HTC+rec"]
        for row in rows:
            for weaker, stronger in zip(order, order[1:]):
                assert row.counts[weaker] <= row.counts[stronger]

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            run_benchmark(SINGLE_FACTOR_SIX, 1, ("nope",))

    def test_counts_bounded_by_rational_reference(self):
        rows = run_benchmark(OVERLAPPING_FACTORS_SIX, 2, DEFAULT_METHODS)
        rational = REFERENCE_COUNTS["fig5b"]["rational"]
        for row in rows:
            for m in DEFAULT_METHODS:
                assert row.counts[m] <= rational[row.num_edges]

    def test_parallel_matches_serial(self):
        serial = run_benchmark(SINGLE_FACTOR_SIX, 3, DEFAULT_METHODS)
        parallel = run_benchmark(
            SINGLE_FACTOR_SIX, 3, DEFAULT_METHODS, workers=2
        )
        assert [r.counts for r in serial] == [r.counts for r in parallel]

    def test_seconds_timed_per_method(self, monkeypatch):
        # A fake clock that only the identification calls advance: every
        # LF-HTC run takes 1 s and every Det run 10 s.
        now = [0.0]
        cost = {METHOD_PRESETS["LF-HTC"]: 1.0, METHOD_PRESETS["Det"]: 10.0}
        decide = enumeration.combined_algorithm

        def timed_decide(g, cfg):
            now[0] += cost[cfg]
            return decide(g, cfg)

        monkeypatch.setattr(enumeration, "combined_algorithm", timed_decide)
        monkeypatch.setattr(time, "perf_counter", lambda: now[0])
        rows = run_benchmark(SINGLE_FACTOR_SIX, 2, ("LF-HTC", "Det"))
        assert [r.seconds for r in rows] == [
            {"LF-HTC": 1.0 * r.total, "Det": 10.0 * r.total} for r in rows
        ]

    def test_all_presets_valid(self):
        for name, cfg in METHOD_PRESETS.items():
            assert cfg is not None, name


class TestOutput:
    @pytest.fixture
    def rows(self):
        return run_benchmark(SINGLE_FACTOR_SIX, 2, DEFAULT_METHODS)

    def test_csv(self, rows):
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0].startswith("num_edges,total,LF-HTC,Det+eLF-HTC+rec")
        assert lines[1].startswith("0,1,1,1")
        assert lines[3].startswith("2,4,4,4")

    def test_markdown(self, rows):
        text = rows_to_markdown(rows)
        lines = text.splitlines()
        assert lines[0] == "| |D_V| | Total | LF-HTC | Det+eLF-HTC+rec |"
        assert lines[2] == "| 0 | 1 | 1 | 1 |"

    def test_empty_rows(self):
        assert rows_to_csv([]) == "num_edges,total"
        assert rows_to_markdown([]).splitlines()[0] == "| |D_V| | Total |"
