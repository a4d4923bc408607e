"""Covariance minors mod p (`latentid.rank`) against trek-rule covariances
and against the vertex-disjoint path counts of the determinantal network."""

import random
from itertools import combinations

import numpy as np
import pytest

from latentid import rank
from latentid.enumeration import PATTERNS, enumerate_dags
from latentid.flow import FlowFrame
from latentid.graph import CompiledGraph, LatentFactorGraph, bits
from latentid.numerics import ModelParameters

from oracles import (
    G7,
    jacobian_identifiable_edges,
    nonsingular,
    random_latent_factor_graph,
    ref_vanishing_minors,
    trek_rule_covariance,
)


def small_point(rng, g, view):
    """Small integer parameters of `g`, as `ModelParameters` in the order
    of `g.observed` and as a `rank.Point` in `view`'s numbering."""
    d, ell = len(g.observed), len(g.latent)
    obs = {n: i for i, n in enumerate(g.observed)}
    lat = {n: j for j, n in enumerate(g.latent)}
    params = ModelParameters(
        g,
        np.zeros((d, d)),
        np.zeros((ell, d)),
        np.array([float(rng.randint(1, 3)) for _ in range(d)]),
        np.array([float(rng.randint(1, 3)) for _ in range(ell)]),
    )
    for a, b in g.edges_obs:
        params.lam[obs[a], obs[b]] = rng.choice([-2, -1, 1, 2, 3])
    for h, b in g.edges_lat:
        params.gamma[lat[h], obs[b]] = rng.choice([-1, 1, 2])
    names, latent = view.names, view.latent
    point = rank.Point(
        lam=[
            [int(params.lam[obs[a], obs[b]]) % rank.P for b in names]
            for a in names
        ],
        gamma=[
            [int(params.gamma[lat[h], obs[b]]) % rank.P for b in names]
            for h in latent
        ],
        omega=[int(params.omega_diag[obs[n]]) for n in names],
        v_lat=[int(params.v_l[lat[h]]) for h in latent],
    )
    return params, point


def mod_p(x) -> int:
    """A rational number as an element of GF(P)."""
    return int(x.p) * pow(int(x.q), -1, rank.P) % rank.P


class TestCovariance:
    def test_matches_trek_rule(self):
        """On acyclic graphs Σ mod p is the trek-rule covariance, exact
        for small integer parameters, reduced mod p."""
        rng = random.Random(41)
        for _ in range(60):
            g = random_latent_factor_graph(rng, max_obs=6, acyclic=True)
            view = CompiledGraph(g)
            params, point = small_point(rng, g, view)
            oracle = trek_rule_covariance(params)
            sigma = rank.covariance(view, point).sigma
            pos = [g.observed.index(n) for n in view.names]
            expected = [
                [int(round(oracle[x, y])) % rank.P for y in pos] for x in pos
            ]
            assert sigma == expected, g

    def test_cyclic_matches_exact_inverse(self):
        """On cyclic graphs Σ mod p is (I − Λ)⁻ᵀ Ω (I − Λ)⁻¹ over the
        rationals, reduced mod p; None exactly when I − Λ is singular."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(43)
        singular = 0
        for _ in range(40):
            g = random_latent_factor_graph(rng, max_obs=5, acyclic=False)
            ell = len(g.latent)
            view = CompiledGraph(g)
            params, point = small_point(rng, g, view)
            pos = [g.observed.index(n) for n in view.names]
            m = sympy.eye(len(pos)) - sympy.Matrix(
                [[int(params.lam[a, b]) for b in pos] for a in pos]
            )
            got = rank.covariance(view, point)
            if m.det() == 0:
                singular += 1
                assert got is None, g
                continue
            gamma = sympy.Matrix(
                [[int(x) for x in params.gamma[j, pos]] for j in range(ell)]
            )
            omega = sympy.diag(*[int(params.omega_diag[b]) for b in pos])
            omega += gamma.T * sympy.diag(*map(int, params.v_l)) * gamma
            a = m.inv()
            sigma = a.T * omega * a
            assert got.sigma == [
                [mod_p(sigma[x, y]) for y in range(len(pos))]
                for x in range(len(pos))
            ], g
        assert singular < 40

    def test_acyclic_path_sums_match_inverse(self):
        """On acyclic graphs the children-first path sums equal the
        Gauss–Jordan inverse of I − Λ at the search's fixed point."""
        rng = random.Random(47)
        for _ in range(40):
            view = CompiledGraph(
                random_latent_factor_graph(rng, max_obs=7, acyclic=True)
            )
            lam = rank.draw_point(len(view.names), len(view.latent)).lam
            assert rank._path_sums(view, lam) == rank._inverse(view, lam)

    def test_nonsingular_matches_elimination(self):
        """The written-out small determinants agree with plain
        elimination, also on matrices with a dependent row."""

        def reference(matrix):
            while matrix:
                piv = next((r for r in matrix if r[0] % rank.P), None)
                if piv is None:
                    return False
                p0, rest = piv[0], piv[1:]
                matrix = [
                    [(p0 * x - r[0] * y) % rank.P for x, y in zip(r[1:], rest)]
                    for r in matrix
                    if r is not piv
                ]
            return True

        rng = random.Random(53)
        seen = set()
        for _ in range(3000):
            k = rng.randint(0, 6)
            values = [0, 1, 2, rng.randrange(rank.P)]
            m = [[rng.choice(values) for _ in range(k)] for _ in range(k)]
            if k >= 2 and rng.random() < 0.5:
                m[-1] = [(3 * x + y) % rank.P for x, y in zip(m[0], m[1])]
            want = reference(m)
            assert nonsingular(m) == want, m
            seen.add((k, want))
        assert {(k, True) for k in range(7)} <= seen
        assert {(k, False) for k in range(1, 7)} <= seen


SHAPES = ("plain", "zero column", "zero candidate", "parallel", "low rank")


def outcome(survivors, candidates, k):
    """"all", "none" or "some" of the (k − 1)-subsets of `candidates`
    among `survivors`."""
    if not survivors:
        return "none"
    total = len(list(combinations(candidates, k - 1)))
    return "all" if len(survivors) == total else "some"


class TestVanishingMinors:
    """`rank.vanishing_minors` reduces by the appended column once per row
    set and then writes out or searches the minors on T; it must keep
    exactly the T's whose minor the per-pair elimination calls singular,
    in the same order."""

    def test_matches_per_pair_filter(self):
        """Matrices with small entries, so that minors vanish by chance,
        and with an appended column that is zero on the rows, zero and
        parallel candidate columns and a dependent row, for k = 1..7."""
        rng = random.Random(67)
        seen = set()
        for _ in range(3000):
            k = rng.randint(1, 7)
            m = rng.randint(max(k - 2, 0), k + 3)
            n = k + m + rng.randint(0, 2)
            values = [0, 1, 2, rank.P - 1, rng.randrange(rank.P)]
            sigma = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
            column = [rng.choice(values) for _ in range(n)]
            rows = sorted(rng.sample(range(n), k))
            candidates = sorted(rng.sample(range(n), m))
            shape = rng.choice(SHAPES)
            if shape == "zero column":
                for s in rows:
                    column[s] = 0
            elif shape == "zero candidate" and candidates:
                t = rng.choice(candidates)
                for s in rows:
                    sigma[s][t] = 0
            elif shape == "parallel" and len(candidates) >= 2:
                t, u = rng.sample(candidates, 2)
                f = rng.randrange(1, rank.P)
                for s in rows:
                    sigma[s][t] = f * sigma[s][u] % rank.P
            elif shape == "low rank" and k >= 3:
                # The last row a combination of two others on every column.
                a, b, last = rows[0], rows[1], rows[-1]
                for c in range(n):
                    sigma[last][c] = (sigma[a][c] + 3 * sigma[b][c]) % rank.P
                column[last] = (column[a] + 3 * column[b]) % rank.P
            want = ref_vanishing_minors(sigma, column, rows, candidates)
            got = rank.vanishing_minors(sigma, column, rows, candidates)
            assert list(got) == want, (sigma, column, rows, candidates)
            seen.add((k, shape, outcome(want, candidates, k)))
        for k in range(1, 8):
            kinds = {kind for j, _, kind in seen if j == k}
            assert {"all", "none"} <= kinds, k
            assert k == 1 or "some" in kinds, k
            assert (k, "zero column", "all") in seen, k
            for shape in ("zero candidate", "parallel")[: k - 1]:
                assert {(k, shape, "all"), (k, shape, "some")} & seen, k

    def test_matches_per_pair_filter_on_graphs(self):
        """Σ of seeded graphs with barred columns, on random row sets and
        sorted candidate lists."""
        rng = random.Random(71)
        outcomes = set()
        for i in range(80):
            g = random_latent_factor_graph(
                rng, max_obs=8, max_lat=2, acyclic=i % 2 == 0
            )
            view = CompiledGraph(g)
            cov = rank.covariance(view)
            if cov is None:
                continue
            n = len(view.names)
            for v in range(n):
                removed = view.pa[v] & rng.getrandbits(n)
                column = cov.barred_column(v, removed)
                for _ in range(6):
                    k = rng.randint(1, min(n, 7))
                    rows = sorted(rng.sample(range(n), k))
                    candidates = sorted(
                        rng.sample(range(n), rng.randint(0, n))
                    )
                    want = ref_vanishing_minors(
                        cov.sigma, column, rows, candidates
                    )
                    got = rank.vanishing_minors(
                        cov.sigma, column, rows, candidates
                    )
                    assert list(got) == want, (g, v, rows, candidates)
                    outcomes.add((min(k, 4), outcome(want, candidates, k)))
        for k in range(2, 5):
            assert (k, "some") in outcomes, k


class TestRankVersusFlow:
    def test_minor_rank_never_exceeds_flow(self):
        """For every square (S, C) with |S| ≤ 3 the minor mod p is nonzero
        only when the determinantal network carries |S| vertex-disjoint
        paths: Σ[S, C] against the sinks C, and the barred form (the
        column of v with the edges D -> v deleted on the treks' right-hand
        side) against the network without the arcs w' -> v'. The fixed
        point is generic enough here that the converse holds too."""
        rng = random.Random(59)
        pairs = exceed = deficit = 0
        for i in range(150):
            g = random_latent_factor_graph(
                rng, max_obs=7, max_lat=2, acyclic=i % 2 == 0
            )
            deleted = rng.sample(
                sorted(g.edges_obs), min(len(g.edges_obs), rng.randint(0, 2))
            )
            view = CompiledGraph(g)
            frame = FlowFrame(view)
            for w, v in deleted:
                view = view.without_edge(view.index[w], view.index[v])
            net = frame.det_network(view)
            cov = rank.covariance(view)
            assert cov is not None, g
            n = len(view.names)

            def check(matrix, flow_net, sources, sinks):
                nonlocal pairs, exceed, deficit
                flow, _, _ = frame.solve(
                    flow_net,
                    sum(1 << s for s in sources),
                    sum(1 << c for c in sinks),
                )
                full = nonsingular(matrix)
                pairs += 1
                exceed += full and flow < len(sources)
                deficit += not full and flow == len(sources)

            for k in range(1, 4):
                for s in combinations(range(n), k):
                    for c in combinations(range(n), k):
                        matrix = [[cov.sigma[x][y] for y in c] for x in s]
                        check(matrix, net, s, c)

            for v in range(n):
                dec_v = view.descendants(v)
                if dec_v >> v & 1 or not view.pa[v]:
                    continue
                parents = list(bits(view.pa[v]))
                d = sum(
                    1 << w
                    for w in rng.sample(parents, rng.randint(1, len(parents)))
                )
                barred = frame.barred(net, v, d)
                column = cov.barred_column(v, d)
                t_pool = list(bits(view.all & ~dec_v & ~(1 << v)))
                for k in range(1, 4):
                    for s in combinations(range(n), k):
                        for t in combinations(t_pool, k - 1):
                            matrix = [
                                [cov.sigma[x][y] for y in t] + [column[x]]
                                for x in s
                            ]
                            check(matrix, barred, s, t + (v,))
        print(f"{pairs} pairs, rank above flow {exceed}, below {deficit}")
        assert pairs > 100_000
        assert exceed == 0
        assert deficit == 0


def verdict_edges(g):
    """The edges of `g` that `rank.identifiable_parents` counts as
    locally identifiable, by name, or None when it is undefined."""
    view = CompiledGraph(g)
    parents = rank.identifiable_parents(view)
    if parents is None:
        return None
    return frozenset(
        (view.names[a], view.names[b])
        for b, mask in enumerate(parents)
        for a in bits(mask)
    )


class TestIdentifiableParents:
    def test_matches_float_jacobian(self):
        """The exact verdict mod p equals the float one, from the SVD of
        the Jacobian in Σ-coordinates at a random real point
        (`oracles.jacobian_identifiable_edges`), on fig5a rows 0-6, fig5b
        rows 0-4 and 300 seeded graphs, every other one cyclic."""
        graphs = [
            g
            for pattern, rows in (("fig5a", 7), ("fig5b", 5))
            for m in range(rows)
            for g in enumerate_dags(PATTERNS[pattern], m)
        ]
        rng = random.Random(5)
        graphs += [
            random_latent_factor_graph(rng, max_obs=7, acyclic=i % 2 == 0)
            for i in range(300)
        ]
        missing = 0
        for g in graphs:
            got = verdict_edges(g)
            assert got == jacobian_identifiable_edges(g), g
            missing += len(g.edges_obs - got)
        assert len(graphs) == 3386 and missing > 2000
        assert verdict_edges(G7) == G7.edges_obs - {("7", "6")}

    def test_undefined_when_singular(self):
        """A 2-cycle with λ_ab λ_ba = 1 makes I − Λ singular: no
        verdict."""
        g = LatentFactorGraph(
            ["a", "b", "c"], ["h"], [("a", "b"), ("b", "a")], [("h", "c")]
        )
        view = CompiledGraph(g)
        point = rank.draw_point(3, 1)
        lam = [row[:] for row in point.lam]
        lam[1][0] = pow(lam[0][1], -1, rank.P)
        singular = rank.Point(lam, point.gamma, point.omega, point.v_lat)
        assert rank.identifiable_parents(view, singular) is None
        assert rank.identifiable_parents(view, point) is not None

    def test_invariant_under_relabelling(self):
        """Relabelling the observed nodes changes the numbering, and with
        it the parameter point, but not the verdict by name."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(
            derandomize=True, max_examples=150, database=None, deadline=None
        )
        @hypothesis.given(st.integers(0, 10**6), st.randoms(use_true_random=False))
        def check(seed, shuffle):
            g = random_latent_factor_graph(
                random.Random(seed), max_obs=7, acyclic=seed % 2 == 0
            )
            names = list(g.observed)
            shuffle.shuffle(names)
            rename = dict(zip(g.observed, names))
            relabelled = LatentFactorGraph(
                names,
                g.latent,
                [(rename[a], rename[b]) for a, b in g.edges_obs],
                [(h, rename[b]) for h, b in g.edges_lat],
            )
            got = verdict_edges(relabelled)
            assert got == {
                (rename[a], rename[b]) for a, b in verdict_edges(g)
            }

        check()


class TestRref:
    def test_reduced_form_and_rank(self):
        """`rank.rref` of a product of random k×r and r×w matrices mod P
        has r rows in reduced form (leading one, zeros elsewhere in the
        pivot columns), spans the same rows, and is its own reduced
        form."""
        rng = random.Random(61)
        for _ in range(200):
            k, r, w = rng.randint(1, 8), rng.randint(0, 6), rng.randint(1, 9)
            r = min(r, k, w)
            left = [[rng.randrange(rank.P) for _ in range(r)] for _ in range(k)]
            right = [[rng.randrange(rank.P) for _ in range(w)] for _ in range(r)]
            matrix = [
                [
                    sum(x * right[i][j] for i, x in enumerate(row)) % rank.P
                    for j in range(w)
                ]
                for row in left
            ]
            rows, pivots = rank.rref(matrix)
            assert len(rows) == len(pivots) == r
            assert pivots == sorted(pivots)
            for row, c in zip(rows, pivots):
                assert row[c] == 1 and not any(row[:c])
                assert [other[c] for other in rows].count(0) == r - 1
            assert rank.rref(rows) == (rows, pivots)
            # Each input row is a combination of the reduced rows with
            # its own entries at the pivots as coefficients.
            for row in matrix:
                assert row == [
                    sum(row[c] * red[j] for red, c in zip(rows, pivots))
                    % rank.P
                    for j in range(w)
                ]
