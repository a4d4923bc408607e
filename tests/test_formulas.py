"""Symbolic formula construction, rendering, and evaluation."""

import copy
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from latentid.catalog import BUILTIN_GRAPHS, builtin_graph
from latentid.criteria import DetCertificate, HtcCertificate, combined_algorithm
from latentid.formulas import (
    Const,
    Cov,
    DegenerateInputError,
    DeletionContext,
    DependencyError,
    Det,
    EvalPlan,
    FormulaMap,
    Lam,
    Neg,
    Prod,
    Quot,
    SolveCoord,
    Sum,
    adjusted_cov,
    build_det_formula,
    build_elf_system,
    cov,
    eval_expr,
    expr_to_dict,
    expr_to_json,
    formula_map_from_state,
    render_latex,
    solve_alpha,
)
from latentid.graph import GraphError, LatentFactorGraph
from latentid.numerics import (
    CovarianceMatrix,
    SamplingError,
    covariance,
    estimate,
    sample_parameters,
)

from oracles import (
    G7,
    dense_factor_graph,
    random_latent_factor_graph,
    ref_eval_expr,
)


def htc(v, w_v, y, z, w_z, h):
    return HtcCertificate(
        v=v,
        w_v=frozenset(w_v),
        y=frozenset(y),
        z=frozenset(z),
        w_z_map=tuple(sorted((k, frozenset(ws)) for k, ws in w_z.items())),
        h=frozenset(h),
    )


# The five witnesses solving the chain-with-shortcut graph, in derivation
# order; each later system references coefficients from earlier ones.
CHAIN_CERTS = [
    htc("4", {"3"}, {"1", "2", "3"}, {"6"}, {"6": {"5"}}, {"h1"}),
    htc("6", {"5"}, {"1", "2", "3"}, {"4"}, {"4": {"3"}}, {"h1"}),
    htc("2", {"1"}, {"1", "6"}, {"4"}, {"4": set()}, {"h1"}),
    htc("3", {"2"}, {"2", "4"}, {"1"}, {"1": set()}, {"h1"}),
    htc("5", {"1", "4"}, {"1", "3", "4"}, {"2"}, {"2": set()}, {"h1"}),
]


@pytest.fixture
def chain_systems():
    g = builtin_graph("fig2a")
    fmap = FormulaMap()
    systems = {}
    for cert in CHAIN_CERTS:
        system = build_elf_system(g, cert, fmap)
        systems[cert.v] = system
        for edge, expr in solve_alpha(system):
            fmap.add(edge, expr)
    return systems, fmap


class TestElfSystem:
    def test_v4_plain_system(self, chain_systems):
        systems, _ = chain_systems
        sys4 = systems["4"]
        assert sys4.rows == ("1", "2", "3")
        assert sys4.columns == ("3", "6", "5")
        assert sys4.alpha_edges == (("3", "4"),)
        assert sys4.matrix == (
            (cov("1", "3"), cov("1", "6"), cov("1", "5")),
            (cov("2", "3"), cov("2", "6"), cov("2", "5")),
            (cov("3", "3"), cov("3", "6"), cov("3", "5")),
        )
        assert sys4.rhs == (cov("1", "4"), cov("2", "4"), cov("3", "4"))

    def test_v4_rendered(self, chain_systems):
        _, fmap = chain_systems
        assert render_latex(fmap.get(("3", "4"))) == (
            r"\left[\begin{pmatrix}"
            r" \Sigma_{13} & \Sigma_{16} & \Sigma_{15} \\"
            r" \Sigma_{23} & \Sigma_{26} & \Sigma_{25} \\"
            r" \Sigma_{33} & \Sigma_{36} & \Sigma_{35}"
            r" \end{pmatrix}^{-1} \cdot \begin{pmatrix}"
            r" \Sigma_{14} \\ \Sigma_{24} \\ \Sigma_{34}"
            r" \end{pmatrix}\right]_{1}"
        )

    def test_v6_plain_system(self, chain_systems):
        systems, _ = chain_systems
        sys6 = systems["6"]
        assert sys6.columns == ("5", "4", "3")
        assert sys6.matrix[0] == (cov("1", "5"), cov("1", "4"), cov("1", "3"))
        assert sys6.rhs == (cov("1", "6"), cov("2", "6"), cov("3", "6"))

    def test_v2_mixed_case_system(self, chain_systems):
        systems, _ = chain_systems
        sys2 = systems["2"]
        assert sys2.rows == ("1", "6")
        assert sys2.columns == ("1", "4")
        # Source 1 is outside the half-trek-reachable set: plain entries.
        assert sys2.matrix[0][0] == cov("1", "1")
        assert sys2.matrix[0][1] == Sum(
            (cov("1", "4"), Neg(Prod((Lam(("3", "4")), cov("1", "3")))))
        )
        # Source 6 is reachable: rows corrected by the 5 -> 6 coefficient.
        assert sys2.matrix[1][0] == Sum(
            (cov("1", "6"), Neg(Prod((Lam(("5", "6")), cov("1", "5")))))
        )
        assert render_latex(sys2.matrix[1][1]) == (
            r"\Sigma_{46} - \lambda_{56}\Sigma_{45}"
            r" - (\Sigma_{36} - \lambda_{56}\Sigma_{35})\lambda_{34}"
        )
        assert render_latex(sys2.rhs[1]) == (
            r"\Sigma_{26} - \lambda_{56}\Sigma_{25}"
        )

    def test_v3_corrected_system(self, chain_systems):
        systems, _ = chain_systems
        sys3 = systems["3"]
        assert sys3.columns == ("2", "1")
        rendered = [[render_latex(e) for e in row] for row in sys3.matrix]
        assert rendered == [
            [
                r"\Sigma_{22} - \lambda_{12}\Sigma_{12}",
                r"\Sigma_{12} - \lambda_{12}\Sigma_{11}",
            ],
            [
                r"\Sigma_{24} - \lambda_{34}\Sigma_{23}",
                r"\Sigma_{14} - \lambda_{34}\Sigma_{13}",
            ],
        ]
        assert [render_latex(e) for e in sys3.rhs] == [
            r"\Sigma_{23} - \lambda_{12}\Sigma_{13}",
            r"\Sigma_{34} - \lambda_{34}\Sigma_{33}",
        ]

    def test_v5_two_alpha_edges(self, chain_systems):
        systems, _ = chain_systems
        sys5 = systems["5"]
        assert sys5.alpha_edges == (("1", "5"), ("4", "5"))
        assert sys5.columns == ("1", "4", "2")
        assert sys5.rows == ("1", "3", "4")
        # Plain row with the partially-conditioned sink column adjusted by
        # the missing parent's coefficient.
        assert render_latex(sys5.matrix[0][2]) == (
            r"\Sigma_{12} - \lambda_{12}\Sigma_{11}"
        )
        assert render_latex(sys5.matrix[1][2]) == (
            r"\Sigma_{23} - \lambda_{23}\Sigma_{22}"
            r" - (\Sigma_{13} - \lambda_{23}\Sigma_{12})\lambda_{12}"
        )
        assert [render_latex(e) for e in sys5.rhs] == [
            r"\Sigma_{15}",
            r"\Sigma_{35} - \lambda_{23}\Sigma_{25}",
            r"\Sigma_{45} - \lambda_{34}\Sigma_{35}",
        ]

    def test_two_proxy_system(self):
        g = builtin_graph("fig2b")
        cert = htc("3", {"2", "4"}, {"1", "2"}, {"4"}, {"4": set()}, {"h1"})
        system = build_elf_system(g, cert, FormulaMap())
        (edge, expr), = [
            (e, x) for e, x in solve_alpha(system) if e == ("2", "3")
        ]
        assert render_latex(expr) == (
            r"\left[\begin{pmatrix}"
            r" \Sigma_{12} & \Sigma_{14} \\ \Sigma_{22} & \Sigma_{24}"
            r" \end{pmatrix}^{-1} \cdot \begin{pmatrix}"
            r" \Sigma_{13} \\ \Sigma_{23}"
            r" \end{pmatrix}\right]_{1}"
        )

    def test_empty_certificate(self):
        g = builtin_graph("fig2a")
        cert = htc("1", set(), set(), set(), {}, set())
        system = build_elf_system(g, cert, FormulaMap())
        assert system.matrix == () and system.rhs == ()
        assert solve_alpha(system) == []

    def test_missing_prerequisite_raises(self):
        g = builtin_graph("fig2a")
        cert = htc("2", {"1"}, {"1", "6"}, {"4"}, {"4": set()}, {"h1"})
        with pytest.raises(DependencyError) as exc:
            build_elf_system(g, cert, FormulaMap())
        assert exc.value.edge in {("3", "4"), ("5", "6")}

    def test_one_by_one_system_collapses_to_quotient(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        cert = htc("2", {"1"}, {"1"}, set(), {}, set())
        system = build_elf_system(g, cert, FormulaMap())
        (edge, expr), = solve_alpha(system)
        assert edge == ("1", "2")
        assert expr == Quot(cov("1", "2"), cov("1", "1"))
        assert render_latex(expr) == r"\frac{\Sigma_{12}}{\Sigma_{11}}"


class TestDetFormula:
    def test_chain_fork_edge_into_5(self):
        g = builtin_graph("fig4a")
        cert = DetCertificate(
            v="5",
            w0="4",
            deleted_parents=frozenset(),
            s=frozenset({"2", "3", "4"}),
            t=frozenset({"1", "2"}),
        )
        expr = build_det_formula(cert, FormulaMap(), DeletionContext(g))
        assert render_latex(expr) == (
            r"\frac{\det\begin{pmatrix}"
            r" \Sigma_{12} & \Sigma_{22} & \Sigma_{25} \\"
            r" \Sigma_{13} & \Sigma_{23} & \Sigma_{35} \\"
            r" \Sigma_{14} & \Sigma_{24} & \Sigma_{45}"
            r" \end{pmatrix}}{\det\begin{pmatrix}"
            r" \Sigma_{12} & \Sigma_{22} & \Sigma_{24} \\"
            r" \Sigma_{13} & \Sigma_{23} & \Sigma_{34} \\"
            r" \Sigma_{14} & \Sigma_{24} & \Sigma_{44}"
            r" \end{pmatrix}}"
        )

    def test_subgraph_formula_expands_adjustments(self):
        # After deleting the identified edge 4 -> 5, the edge 2 -> 3 has a
        # 2x2 determinant-ratio formula whose (s, 5) entries carry the
        # lambda_45 correction.
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g, [("4", "5")])
        fmap = FormulaMap()
        fmap.add(("4", "5"), Quot(cov("4", "5"), cov("4", "4")))
        cert = DetCertificate(
            v="3",
            w0="2",
            deleted_parents=frozenset(),
            s=frozenset({"1", "2"}),
            t=frozenset({"5"}),
        )
        expr = build_det_formula(cert, fmap, ctx)
        adj15 = Sum(
            (cov("1", "5"), Neg(Prod((Lam(("4", "5")), cov("1", "4")))))
        )
        adj25 = Sum(
            (cov("2", "5"), Neg(Prod((Lam(("4", "5")), cov("2", "4")))))
        )
        assert expr == Quot(
            Det(((adj15, cov("1", "3")), (adj25, cov("2", "3")))),
            Det(((adj15, cov("1", "2")), (adj25, cov("2", "2")))),
        )

    def test_single_row_collapses(self):
        g = LatentFactorGraph(["1", "2"], [], [("1", "2")], [])
        cert = DetCertificate(
            v="2",
            w0="1",
            deleted_parents=frozenset(),
            s=frozenset({"1"}),
            t=frozenset(),
        )
        expr = build_det_formula(cert, FormulaMap(), DeletionContext(g))
        assert expr == Quot(cov("1", "2"), cov("1", "1"))

    def test_deleted_parent_needs_formula(self):
        g = builtin_graph("fig4a")
        cert = DetCertificate(
            v="5",
            w0="4",
            deleted_parents=frozenset({"4"}),
            s=frozenset({"2", "3"}),
            t=frozenset({"1"}),
        )
        with pytest.raises(DependencyError):
            build_det_formula(cert, FormulaMap(), DeletionContext(g))


class TestAdjustedCov:
    def test_empty_context(self):
        g = builtin_graph("fig4a")
        assert adjusted_cov("1", "5", DeletionContext(g)) == cov("1", "5")

    def test_single_deletion(self):
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g, [("4", "5")])
        assert adjusted_cov("1", "5", ctx) == Sum(
            (cov("1", "5"), Neg(Prod((Lam(("4", "5")), cov("1", "4")))))
        )
        assert adjusted_cov("1", "3", ctx) == cov("1", "3")

    def test_disallowed_pair_rejected(self):
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g, [("4", "5")])
        with pytest.raises(GraphError):
            adjusted_cov("5", "5", ctx)

    def test_matches_subgraph_covariance_numerically(self):
        # The adjusted expression evaluated at the parent covariance must
        # equal the covariance computed directly from the edge-deleted
        # model with identical remaining parameters.
        g = builtin_graph("fig4a")
        ctx = DeletionContext(g, [("4", "5")])
        params = sample_parameters(g, seed=5)
        sigma = covariance(params)
        sub = g.without_obs_edges({("4", "5")})
        idx4 = g.observed.index("4")
        idx5 = g.observed.index("5")
        lam_sub = params.lam.copy()
        lam_sub[idx4, idx5] = 0.0
        sub_params = type(params)(
            sub, lam_sub, params.gamma, params.omega_diag, params.v_l
        )
        sub_sigma = covariance(sub_params)
        fmap = FormulaMap()
        fmap.add(("4", "5"), Const(params.lam[idx4, idx5]))
        for x in g.observed:
            for y in g.observed:
                try:
                    expr = adjusted_cov(x, y, ctx)
                except GraphError:
                    continue
                got = eval_expr(expr, sigma, fmap)
                assert got == pytest.approx(sub_sigma[x, y], abs=1e-10)


class TestFormulaMap:
    def test_missing_edge_raises(self):
        with pytest.raises(DependencyError):
            FormulaMap().get(("1", "2"))

    def test_add_requires_closed_references(self):
        fmap = FormulaMap()
        with pytest.raises(DependencyError):
            fmap.add(("2", "3"), Prod((Lam(("1", "2")), cov("1", "3"))))
        fmap.add(("1", "2"), cov("1", "2"))
        fmap.add(("2", "3"), Prod((Lam(("1", "2")), cov("1", "3"))))
        assert ("2", "3") in fmap

    def test_from_state_covers_all_solved_edges(self):
        for name in ("fig2a", "fig2b", "fig4a", "household", "fig3"):
            g = builtin_graph(name)
            state = combined_algorithm(g)
            fmap = formula_map_from_state(g, state)
            for edge in state.solved_edges:
                assert edge in fmap, (name, edge)

    @staticmethod
    def state_without(g, solved):
        """The search state of `g` with the record that solved `solved`
        dropped, so that later records lack that edge's formula."""
        state = combined_algorithm(g)
        dropped = copy.copy(state)
        dropped.certificates = [
            r for r in state.certificates if solved not in r.edges
        ]
        assert len(dropped.certificates) == len(state.certificates) - 1
        return dropped

    def test_from_state_missing_system_coefficient_raises(self):
        # The eLF-HTC system of 5 -> 6 holds the handle of 4 -> 5 (made by
        # `build_elf_system`'s `lam`).
        g = builtin_graph("fig2a")
        with pytest.raises(DependencyError) as info:
            formula_map_from_state(g, self.state_without(g, ("4", "5")))
        assert info.value.edge == ("4", "5")

    def test_from_state_missing_deletion_coefficient_raises(self):
        # The records of 2 -> 1 and 2 -> 3 work in the subgraph without
        # 1 -> 5, and the first of them needs that coefficient only in the
        # correction terms of its subgraph covariances (made by
        # `_adjusted`); no system handle refers to it.
        g = LatentFactorGraph(
            [str(i) for i in range(1, 7)],
            ["h1", "h2"],
            [("1", "5"), ("1", "6"), ("2", "1"), ("2", "3"), ("2", "6"),
             ("4", "3")],
            [("h1", str(i)) for i in range(1, 7)] + [("h2", "1"), ("h2", "3")],
        )
        state = self.state_without(g, ("1", "5"))
        assert [r.deleted for r in state.certificates] == [
            (), (), (("1", "5"),), (("1", "5"),)
        ]
        with pytest.raises(DependencyError) as info:
            formula_map_from_state(g, state)
        assert info.value.edge == ("1", "5")


# sha256 per case of every formula `formula_map_from_state` builds, in
# the map's order, as `expr_to_json` and `render_latex` write it. Update it
# only for an intended change of formulas.
FORMULA_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "formulas_digest.json").read_text()
)


def seeded_graphs(seed, count):
    """`count` random graphs of up to 7 observed nodes, alternately
    acyclic and cyclic."""
    rng = random.Random(seed)
    return [
        random_latent_factor_graph(rng, max_obs=7, acyclic=i % 2 == 0)
        for i in range(count)
    ]


def renamed(g):
    """`g` with observed node k renamed k + 8, so "10" sorts before "9"
    and the sorted-name numbering differs from the numeric one."""
    name = {n: str(int(n) + 8) for n in g.observed}
    return LatentFactorGraph(
        [name[n] for n in g.observed],
        g.latent,
        [(name[a], name[b]) for a, b in g.edges_obs],
        [(h, name[b]) for h, b in g.edges_lat],
    )


FORMULA_CASES = {
    "builtins": lambda: [builtin_graph(n) for n in sorted(BUILTIN_GRAPHS)],
    "G7": lambda: [G7],
    "40 seeded graphs, seed 2": lambda: seeded_graphs(2, 40),
    "40 seeded graphs, seed 2, renamed": lambda: [
        renamed(g) for g in seeded_graphs(2, 40)
    ],
    "60 seeded graphs, seed 5": lambda: seeded_graphs(5, 60),
}


class TestPinnedFormulas:
    def test_every_case_pinned(self):
        assert set(FORMULA_DIGESTS) == set(FORMULA_CASES)

    @pytest.mark.parametrize("case", sorted(FORMULA_CASES))
    def test_formulas_match_recorded(self, case):
        runs, deletions = [], 0
        for g in FORMULA_CASES[case]():
            state = combined_algorithm(g)
            deletions += sum(1 for r in state.certificates if r.deleted)
            runs.append(
                [
                    [list(edge), expr_to_json(expr), render_latex(expr)]
                    for edge, expr in formula_map_from_state(g, state).items()
                ]
            )
        if case.startswith(("40", "60")):
            # Some formulas are built in an edge-deleted subgraph.
            assert deletions, case
        digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
        assert digest == FORMULA_DIGESTS[case]


class TestRendering:
    def test_quotient_template(self):
        expr = Quot(cov("1", "2"), cov("1", "1"))
        assert render_latex(expr) == r"\frac{\Sigma_{12}}{\Sigma_{11}}"

    def test_det_template(self):
        expr = Det(((cov("1", "1"), cov("1", "2")),
                    (cov("1", "2"), cov("2", "2"))))
        assert render_latex(expr) == (
            r"\det\begin{pmatrix} \Sigma_{11} & \Sigma_{12} \\"
            r" \Sigma_{12} & \Sigma_{22} \end{pmatrix}"
        )

    def test_multicharacter_ids_get_commas(self):
        assert render_latex(cov("HA", "HS")) == r"\Sigma_{HA,HS}"
        assert render_latex(Lam(("HS", "HA"))) == r"\lambda_{HS,HA}"

    def test_markup_characters_in_names_escaped(self):
        assert render_latex(cov("a%", "b&c")) == r"\Sigma_{a\%,b\&c}"
        assert render_latex(Lam(("x#1", "$y"))) == r"\lambda_{x\#1,\$y}"
        assert render_latex(cov("{", "}")) == r"\Sigma_{\{\}}"
        # One-character names run together, judged on the raw names.
        assert render_latex(cov("\\", "%")) == r"\Sigma_{\%\backslash{}}"
        assert render_latex(cov("a_1", "b")) == r"\Sigma_{a_1,b}"

    def test_constants_and_negation(self):
        assert render_latex(Const(2.5)) == "2.5"
        assert render_latex(Neg(Sum((cov("1", "1"), cov("1", "2"))))) == (
            r"-(\Sigma_{11} + \Sigma_{12})"
        )

    def test_distinct_trees_render_distinctly(self):
        exprs = [
            cov("1", "2"),
            Lam(("1", "2")),
            Quot(cov("1", "2"), cov("1", "1")),
            Sum((cov("1", "2"), Neg(cov("1", "1")))),
            Prod((Lam(("1", "2")), cov("1", "1"))),
        ]
        rendered = [render_latex(e) for e in exprs]
        assert len(set(rendered)) == len(rendered)


class TestExport:
    def test_expr_to_dict_tags(self):
        expr = Quot(
            Sum((cov("1", "2"), Neg(Prod((Lam(("1", "2")), Const(2.0)))))),
            Det(((cov("1", "1"),),)),
        )
        d = expr_to_dict(expr)
        assert d["op"] == "quot"
        assert d["num"]["op"] == "sum"
        assert d["num"]["terms"][1]["term"]["factors"][0] == {
            "op": "coeff",
            "edge": ["1", "2"],
        }
        assert d["den"]["matrix"][0][0] == {"op": "cov", "x": "1", "y": "1"}
        json.dumps(d)

    def test_solve_coord_dict(self):
        expr = SolveCoord(
            ((cov("1", "1"), cov("1", "2")), (cov("1", "2"), cov("2", "2"))),
            (cov("1", "3"), cov("2", "3")),
            1,
        )
        d = expr_to_dict(expr)
        assert d["op"] == "solve-coord" and d["index"] == 1
        assert len(d["matrix"]) == 2 and len(d["rhs"]) == 2


class TestEvaluation:
    def test_identity_sigma(self):
        sigma = CovarianceMatrix(("1", "2"), np.eye(2))
        assert eval_expr(Quot(cov("1", "2"), cov("1", "1")), sigma) == 0.0

    def test_zero_denominator(self):
        sigma = CovarianceMatrix(
            ("1", "2"), np.array([[0.0, 0.0], [0.0, 1.0]])
        )
        with pytest.raises(DegenerateInputError):
            eval_expr(Quot(cov("1", "2"), cov("1", "1")), sigma)

    def test_singular_solve(self):
        sigma = CovarianceMatrix(("1", "2"), np.ones((2, 2)))
        expr = SolveCoord(
            ((cov("1", "1"), cov("1", "2")), (cov("1", "2"), cov("2", "2"))),
            (cov("1", "1"), cov("1", "2")),
            0,
        )
        with pytest.raises(DegenerateInputError):
            eval_expr(expr, sigma)

    def test_lam_resolution_through_fmap(self):
        sigma = CovarianceMatrix(
            ("1", "2"), np.array([[2.0, 1.0], [1.0, 3.0]])
        )
        fmap = FormulaMap()
        fmap.add(("1", "2"), Quot(cov("1", "2"), cov("1", "1")))
        expr = Prod((Lam(("1", "2")), Const(4.0)))
        assert eval_expr(expr, sigma, fmap) == pytest.approx(2.0)

    def test_lam_without_fmap_raises(self):
        sigma = CovarianceMatrix(("1",), np.eye(1))
        with pytest.raises(DependencyError):
            eval_expr(Lam(("1", "2")), sigma)

    def test_det_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        vals = a @ a.T + 3 * np.eye(3)
        sigma = CovarianceMatrix(("1", "2", "3"), vals)
        expr = Det(
            tuple(
                tuple(cov(x, y) for y in ("1", "2", "3"))
                for x in ("1", "2", "3")
            )
        )
        assert eval_expr(expr, sigma) == pytest.approx(
            float(np.linalg.det(vals))
        )

    def test_transpose_invariance(self):
        g = builtin_graph("fig2a")
        state = combined_algorithm(g)
        fmap = formula_map_from_state(g, state)
        params = sample_parameters(g, seed=11)
        sigma = covariance(params)
        sigma_t = CovarianceMatrix(sigma.nodes, sigma.values.T)
        for edge, expr in fmap.items():
            assert eval_expr(expr, sigma, fmap) == pytest.approx(
                eval_expr(expr, sigma_t, fmap), rel=1e-12
            )

    def test_chain_formulas_recover_coefficients(self):
        g = builtin_graph("fig2a")
        fmap = FormulaMap()
        for cert in CHAIN_CERTS:
            for edge, expr in solve_alpha(build_elf_system(g, cert, fmap)):
                fmap.add(edge, expr)
        params = sample_parameters(g, seed=3)
        sigma = covariance(params)
        for edge, expr in fmap.items():
            got = eval_expr(expr, sigma, fmap)
            assert got == pytest.approx(
                params.coefficient(edge), rel=1e-8
            ), edge


def outcome(value) -> tuple:
    """A value's exact text, which tells -0.0, 0 and NaN apart, or the
    message of the degenerate input that has no value."""
    if isinstance(value, DegenerateInputError):
        return ("degenerate", str(value))
    return ("value", repr(value))


def ref_outcome(expr, sigma, fmap) -> tuple:
    try:
        return outcome(ref_eval_expr(expr, sigma, fmap))
    except DegenerateInputError as exc:
        return outcome(exc)


class TestEvalPlan:
    """The compiled plan against the tree walk in `oracles.ref_eval_expr`:
    the same float, bit for bit, or the same degenerate message."""

    @staticmethod
    def assert_matches_walk(fmap, sigma):
        got = {e: outcome(v) for e, v in fmap.plan().run(sigma).items()}
        want = {e: ref_outcome(x, sigma, fmap) for e, x in fmap.items()}
        assert got == want

    @staticmethod
    def sigmas(g, seeds):
        out = [CovarianceMatrix(g.observed, np.eye(len(g.observed)))]
        for seed in seeds:
            try:
                out.append(covariance(sample_parameters(g, seed)))
            except (SamplingError, ValueError):
                continue
        return out

    def test_builtin_graphs_match_walk(self):
        for name in ("fig2a", "fig2b", "fig3", "fig4a", "household"):
            g = builtin_graph(name)
            fmap = formula_map_from_state(g, combined_algorithm(g))
            for sigma in self.sigmas(g, range(10)):
                self.assert_matches_walk(fmap, sigma)

    def test_random_graphs_match_walk(self):
        rng = random.Random(18)
        compared = 0
        for i in range(40):
            g = random_latent_factor_graph(rng, acyclic=i % 2 == 0)
            fmap = formula_map_from_state(g, combined_algorithm(g))
            for sigma in self.sigmas(g, [(18, i, t) for t in range(10)]):
                self.assert_matches_walk(fmap, sigma)
                compared += len(fmap.formulas)
        assert compared >= 700

    def test_expression_trees_match_walk(self):
        # Trees with repeated subtrees, equal and identical, and handles
        # to a map whose third formula is degenerate at every Σ.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        base = {
            ("1", "2"): Quot(cov("1", "2"), cov("1", "1")),
            ("2", "3"): SolveCoord(
                ((cov("2", "2"), Lam(("1", "2"))),
                 (cov("1", "2"), cov("1", "1"))),
                (cov("2", "3"), cov("1", "3")),
                0,
            ),
            ("1", "3"): Quot(cov("1", "3"), Const(0.0)),
        }
        names = st.sampled_from(["1", "2", "3"])
        leaves = (
            st.builds(cov, names, names)
            | st.builds(Cov, names, names)
            | st.sampled_from([Lam(e) for e in base])
            | st.builds(Const, st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-13]))
        )

        def nodes(inner):
            terms = st.lists(inner, max_size=3).map(tuple)

            def system(n):
                row = st.lists(inner, min_size=n, max_size=n).map(tuple)
                return st.lists(row, min_size=n, max_size=n).map(tuple)

            def solve(n):
                return st.builds(
                    SolveCoord,
                    system(n),
                    st.lists(inner, min_size=n, max_size=n).map(tuple),
                    st.integers(0, max(n, 1) - 1),
                )

            return (
                terms.map(Sum)
                | terms.map(Prod)
                | inner.map(Neg)
                | st.builds(Quot, inner, inner)
                | st.integers(1, 3).flatmap(system).map(Det)
                | st.integers(0, 2).flatmap(solve)
                | inner.map(lambda t: Sum((t, Neg(copy.deepcopy(t)))))
                | inner.map(lambda t: Prod((t, t)))
            )

        rng = np.random.default_rng(18)
        x = rng.normal(size=(3, 3))
        sigmas = [
            CovarianceMatrix(("1", "2", "3"), x @ x.T + np.eye(3)),
            CovarianceMatrix(("1", "2", "3"), np.eye(3)),
            CovarianceMatrix(("1", "2", "3"), np.ones((3, 3))),
        ]

        @hypothesis.settings(
            derandomize=True, max_examples=300, database=None, deadline=None
        )
        @hypothesis.given(st.recursive(leaves, nodes, max_leaves=16))
        def check(expr):
            fmap = FormulaMap(dict(base))
            fmap.add(("3", "4"), expr)
            for sigma in sigmas:
                self.assert_matches_walk(fmap, sigma)
                try:
                    got = outcome(eval_expr(expr, sigma, fmap))
                except DegenerateInputError as exc:
                    got = outcome(exc)
                assert got == ref_outcome(expr, sigma, fmap)

        check()

    def test_shared_systems_solved_once(self, monkeypatch):
        g = builtin_graph("fig3")
        fmap = formula_map_from_state(g, combined_algorithm(g))
        systems = {
            (x.matrix, x.rhs)
            for x in fmap.formulas.values()
            if isinstance(x, SolveCoord)
        }
        assert len(systems) < len(fmap.formulas)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b)
        )
        fmap.plan().run(covariance(sample_parameters(g, seed=1)))
        assert len(solves) == len(systems)

    def test_equal_subtrees_share_a_slot(self):
        def shared():
            return Quot(cov("1", "2"), Sum((cov("1", "1"), Const(1.0))))

        sigma = CovarianceMatrix(("1", "2"), np.eye(2))
        one = EvalPlan({0: Prod((shared(), shared()))}, {})
        two = EvalPlan({0: Prod((shared(), Neg(shared())))}, {})
        # cov 12, cov 11, the constant, the sum, the quotient, the root:
        # the second Quot is the first one's slot. Neg adds one more.
        assert len(one._values) == 6 and len(two._values) == 7
        assert one.run(sigma) == {0: 0.0}

    def test_unequal_nodes_keep_their_own_slots(self):
        # Same children under another operation, and constants that are
        # equal as floats but not bit for bit.
        a, b = cov("1", "2"), cov("2", "2")
        roots = {
            "sum": Sum((a, b)),
            "prod": Prod((a, b)),
            "zero": Prod((b, Const(0.0))),
            "minus zero": Prod((b, Const(-0.0))),
        }
        sigma = CovarianceMatrix(
            ("1", "2"), np.array([[1.0, 2.0], [2.0, 3.0]])
        )
        got = {k: repr(v) for k, v in EvalPlan(roots, {}).run(sigma).items()}
        assert got == {
            "sum": "5.0", "prod": "6.0", "zero": "0.0", "minus zero": "-0.0"
        }

    def test_plan_kept_until_formulas_change(self):
        fmap = FormulaMap()
        fmap.add(("1", "2"), Quot(cov("1", "2"), cov("1", "1")))
        plan = fmap.plan()
        assert fmap.plan() is plan
        fmap.formulas[("1", "2")] = Quot(cov("1", "2"), cov("1", "1"))
        assert fmap.plan() is plan  # an equal formula
        fmap.add(("2", "3"), Prod((Lam(("1", "2")), cov("1", "3"))))
        assert fmap.plan() is not plan
        sigma = CovarianceMatrix(("1", "2", "3"), np.eye(3))
        assert set(fmap.plan().run(sigma)) == {("1", "2"), ("2", "3")}

    def test_missing_handle_raises_when_compiled(self):
        fmap = FormulaMap({("2", "3"): Prod((Lam(("1", "2")), cov("1", "3")))})
        with pytest.raises(DependencyError) as info:
            fmap.plan()
        assert info.value.edge == ("1", "2")


def unshared_map(g, state):
    """`formula_map_from_state` with every system and determinant ratio
    built by the public builders, each from a fresh entry table."""
    fmap = FormulaMap()
    for record in state.certificates:
        if all(e in fmap for e in record.edges):
            continue
        ctx = DeletionContext(g, record.deleted)
        if isinstance(record.cert, HtcCertificate):
            system = build_elf_system(g, record.cert, fmap, ctx)
            for edge, expr in solve_alpha(system):
                if edge not in fmap and edge in record.edges:
                    fmap.formulas[edge] = expr
        else:
            edge = (record.cert.w0, record.cert.v)
            if edge not in fmap:
                fmap.formulas[edge] = build_det_formula(record.cert, fmap, ctx)
    return fmap


def entry_ids(fmap):
    """Per system or determinant of the map, the ids of its entries."""
    out = {}
    for expr in fmap.formulas.values():
        if isinstance(expr, SolveCoord):
            out[id(expr.matrix)] = {id(e) for row in expr.matrix for e in row}
            out[id(expr.matrix)] |= {id(e) for e in expr.rhs}
        elif isinstance(expr, Quot):
            for part in (expr.num, expr.den):
                if isinstance(part, Det):
                    out[id(part)] = {id(e) for row in part.matrix for e in row}
    return out


class TestSharedEntries:
    """The entries one deletion context's formulas share are built once;
    the map equals the one built entry by entry, and compiles and
    evaluates the same."""

    CASES = {
        "builtins": lambda: [builtin_graph(n) for n in sorted(BUILTIN_GRAPHS)],
        "G7": lambda: [G7],
        "60 dense graphs, seed 24": lambda: [
            dense_factor_graph(rng)
            for rng in [random.Random(24)]
            for _ in range(60)
        ],
        "40 seeded graphs, seed 2": lambda: seeded_graphs(2, 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_formulas_plan_and_estimates(self, case):
        shared_entries = 0
        for g in self.CASES[case]():
            state = combined_algorithm(g)
            shared = formula_map_from_state(g, state)
            unshared = unshared_map(g, state)
            assert list(shared.items()) == list(unshared.items())
            ids = entry_ids(shared).values()
            shared_entries += len(set.union(set(), *ids)) < sum(map(len, ids))
            plans = shared.plan(), unshared.plan()
            assert len({len(p._values) for p in plans}) == 1
            assert len({len(p._ops) for p in plans}) == 1
            assert len({len(p._covs) for p in plans}) == 1
            for sigma in TestEvalPlan.sigmas(g, range(3)):
                got, want = (
                    {e: outcome(v) for e, v in p.run(sigma).items()}
                    for p in plans
                )
                assert got == want
                got, want = (
                    {e: repr(r) for e, r in estimate(g, sigma, m).items()}
                    for m in (shared, unshared)
                )
                assert got == want
        if case != "builtins":
            # Some graph holds an entry in two of its systems.
            assert shared_entries, case

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_dependency_errors(self, case):
        # With any one record dropped, later records may lack a formula
        # they hold: the shared tables raise for the same edge as fresh
        # builds, or both maps come out the same.
        raised = 0
        for g in self.CASES[case]():
            state = combined_algorithm(g)
            for record in state.certificates:
                dropped = copy.copy(state)
                dropped.certificates = [
                    r for r in state.certificates if r is not record
                ]
                outcomes = []
                for build in (formula_map_from_state, unshared_map):
                    try:
                        outcomes.append(list(build(g, dropped).items()))
                    except DependencyError as exc:
                        outcomes.append(exc.edge)
                assert outcomes[0] == outcomes[1]
                raised += isinstance(outcomes[0], tuple)
        if case != "G7":  # no formula of G7 holds another's handle
            assert raised, case
