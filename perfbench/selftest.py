"""Self-tests of the benchmark's own oracles (oracles.py).

    python3 perfbench/selftest.py

They use no part of the program under test.
"""

from __future__ import annotations

import random
import sys
import unittest
from itertools import combinations, permutations

import numpy as np

import oracles


def trek_covariance(graph: dict, params: dict) -> dict:
    """Sigma of an acyclic model as explicit trek sums: over every top
    node t (observed or latent), var(t) * paths(t -> x) * paths(t -> y)."""
    coeff = dict(params["lam"])
    coeff.update(params["gamma"])
    children: dict = {}
    for a, b in coeff:
        children.setdefault(a, []).append(b)

    def paths(top: str, target: str) -> float:
        if top == target:
            return 1.0
        return sum(
            coeff[(top, nxt)] * paths(nxt, target)
            for nxt in children.get(top, ())
        )

    var = dict(params["omega"])
    var.update(params["v_lat"])
    obs = graph["observed"]
    return {
        (x, y): sum(var[t] * paths(t, x) * paths(t, y) for t in var)
        for x in obs
        for y in obs
    }


def cov(x: str, y: str) -> dict:
    return {"op": "cov", "x": x, "y": y}


def count_classes(n: int, latent_sets: list, num_edges: int) -> int:
    """Acyclic edge sets over n nodes with `num_edges` edges, up to the
    node permutations that map the latent children sets onto themselves.
    Brute force over all edge sets and all permutations."""
    target = sorted(sorted(s) for s in latent_sets)
    group = [
        p
        for p in permutations(range(n))
        if sorted(sorted(p[i] for i in s) for s in latent_sets) == target
    ]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    seen = set()
    for combo in combinations(pairs, num_edges):
        if not _acyclic(n, combo):
            continue
        seen.add(
            min(tuple(sorted((p[a], p[b]) for a, b in combo)) for p in group)
        )
    return len(seen)


def _acyclic(n: int, edges) -> bool:
    indeg = [0] * n
    for _, b in edges:
        indeg[b] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for a, b in edges:
            if a == v:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return removed == n


class CovarianceSynthesis(unittest.TestCase):
    def test_matches_trek_sums_on_acyclic_graphs(self):
        rng = random.Random(1)
        nrng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.randint(2, 6)
            obs = [str(i + 1) for i in range(n)]
            g = oracles.random_graph(
                rng, n, rng.randint(0, n * (n - 1) // 2),
                [rng.sample(obs, rng.randint(1, n)) for _ in range(2)],
            )
            params = oracles.draw_parameters(g, nrng)
            got = oracles.synthesize_covariance(g, params)
            want = trek_covariance(g, params)
            for key, value in want.items():
                self.assertAlmostEqual(got[key], value, places=10)

    def test_symmetric_positive_definite_on_cyclic_graphs(self):
        rng = random.Random(2)
        nrng = np.random.default_rng(2)
        for _ in range(20):
            g = oracles.random_graph(rng, 5, 7, [["1", "3", "5"]], False)
            s = oracles.synthesize_covariance(
                g, oracles.draw_parameters(g, nrng)
            )
            m = np.array([[s[(x, y)] for y in g["observed"]]
                          for x in g["observed"]])
            np.testing.assert_allclose(m, m.T, atol=1e-12)
            np.linalg.cholesky(m)


class Evaluator(unittest.TestCase):
    sigma = {
        (x, y): v
        for (x, y), v in {
            ("a", "a"): 2.0, ("a", "b"): 0.5, ("b", "b"): 3.0,
        }.items()
        for x, y in ((x, y), (y, x))
    }

    def value(self, node, formulas=None):
        return oracles.FormulaEvaluator(formulas or {}, self.sigma).value(node)

    def test_arithmetic(self):
        tree = {
            "op": "sum",
            "terms": [
                {"op": "prod", "factors": [cov("a", "b"), cov("b", "b")]},
                {"op": "neg", "term": {"op": "const", "value": 0.25}},
            ],
        }
        self.assertEqual(self.value(tree), 0.5 * 3.0 - 0.25)
        quot = {"op": "quot", "num": cov("a", "b"), "den": cov("a", "a")}
        self.assertEqual(self.value(quot), 0.25)

    def test_det_and_solve_coord(self):
        matrix = [[cov("a", "a"), cov("a", "b")],
                  [cov("b", "a"), cov("b", "b")]]
        self.assertAlmostEqual(
            self.value({"op": "det", "matrix": matrix}), 2.0 * 3.0 - 0.25
        )
        rhs = [{"op": "const", "value": 1.0}, {"op": "const", "value": 2.0}]
        want = np.linalg.solve([[2.0, 0.5], [0.5, 3.0]], [1.0, 2.0])
        for i in range(2):
            node = {"op": "solve-coord", "matrix": matrix, "rhs": rhs,
                    "index": i}
            self.assertAlmostEqual(self.value(node), want[i])

    def test_coeff_resolves_through_the_formula_map(self):
        formulas = {("a", "b"): cov("a", "b")}
        node = {"op": "prod",
                "factors": [{"op": "coeff", "edge": ["a", "b"]}, cov("a", "a")]}
        self.assertEqual(self.value(node, formulas), 0.5 * 2.0)

    def test_singular_quotient_is_flagged(self):
        zero = {"op": "sum", "terms": [cov("a", "a"),
                                       {"op": "neg", "term": cov("a", "a")}]}
        with self.assertRaises(oracles.NearSingular):
            self.value({"op": "quot", "num": cov("a", "b"), "den": zero})


class Recovery(unittest.TestCase):
    # 1 -> 2 with no confounding: lambda_12 = Sigma_12 / Sigma_11.
    graph = {"observed": ["1", "2"], "latent": [], "edges_obs": [["1", "2"]],
             "edges_lat": []}

    def test_correct_formula_recovers_the_coefficient(self):
        right = {("1", "2"): {"op": "quot", "num": cov("1", "2"),
                              "den": cov("1", "1")}}
        rng = np.random.default_rng(0)
        for _ in range(10):
            self.assertEqual(oracles.recovery_errors(self.graph, right, rng),
                             [])

    def test_wrong_formula_is_reported(self):
        wrong = {("1", "2"): {"op": "quot", "num": cov("1", "2"),
                              "den": cov("2", "2")}}
        misses = oracles.recovery_errors(
            self.graph, wrong, np.random.default_rng(0)
        )
        self.assertEqual([m[0] for m in misses], [("1", "2")])


class ReferenceTables(unittest.TestCase):
    def test_small_rows_by_brute_force(self):
        fig5a = [range(6)]
        fig5b = [{0, 1, 2, 3}, {3, 4, 5}]
        for name, sets in (("fig5a", fig5a), ("fig5b", fig5b)):
            totals = oracles.REFERENCE_TABLES[name]["total"]
            for m in range(4):
                self.assertEqual(count_classes(6, sets, m), totals[m],
                                 f"{name} row {m}")

    def test_rational_counts_bounded_by_totals(self):
        for table in oracles.REFERENCE_TABLES.values():
            for total, rational in zip(table["total"], table["rational"]):
                self.assertLessEqual(rational, total)


class Generators(unittest.TestCase):
    def test_seeded_and_shuffle_keeps_the_graph(self):
        a = oracles.random_graph(random.Random(5), 7, 9, [["1", "2", "7"]])
        b = oracles.random_graph(random.Random(5), 7, 9, [["1", "2", "7"]])
        self.assertEqual(a, b)
        self.assertEqual(len(a["edges_obs"]), 9)
        s = oracles.shuffle_listing(a, random.Random(6))
        for key in a:
            self.assertEqual(sorted(s[key]), sorted(a[key]))


if __name__ == "__main__":
    sys.exit(unittest.main())
