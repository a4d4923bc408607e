"""End-to-end exercises of the command-line interface."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentid
from latentid.catalog import BUILTIN_GRAPHS, builtin_graph
from latentid.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PARTIAL,
    build_parser,
    main,
    to_json,
)
from latentid.criteria import combined_algorithm
from latentid.formulas import (
    Const,
    Cov,
    Det,
    Lam,
    Neg,
    Prod,
    Quot,
    SolveCoord,
    Sum,
    cov,
    expr_to_dict,
    formula_map_from_state,
    render_latex,
)
from latentid.graph import LatentFactorGraph, graph_to_dict
from latentid.numerics import (
    CovarianceMatrix,
    covariance,
    covariance_to_csv,
    sample_parameters,
)
from oracles import (
    G7,
    dense_factor_graph,
    random_latent_factor_graph,
    ref_latex,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def stdlib_json(value):
    return json.dumps(value, indent=2, sort_keys=True)


def formula_reference(g, spec, fmap):
    """The `formula` JSON and LaTeX output for `g` given as `--graph spec`,
    written from `fmap` by the stdlib (from `expr_to_dict`) and by the
    memo-free `ref_latex`."""
    entries, lines = [], []
    for edge in sorted(g.edges_obs):
        name = ref_latex(Lam(edge))
        entry = {"edge": list(edge), "status": "unidentified"}
        entry["latex"] = entry["expression"] = None
        if edge in fmap:
            expr = fmap.get(edge)
            entry["status"] = "identified"
            entry["latex"] = ref_latex(expr)
            entry["expression"] = expr_to_dict(expr)
            lines.append(f"{name} = {entry['latex']}\n")
        else:
            lines.append(f"% {name}: unidentified\n")
        entries.append(entry)
    payload = {
        "schema": 1,
        "command": "formula",
        "graph": spec,
        "formulas": entries,
    }
    return stdlib_json(payload) + "\n", "".join(lines)


# Recorded `check` and `formula` JSON output and exit code per builtin
# graph, keyed "<command> <graph>" with any further CLI flags appended
# (e.g. "check fig2a --legacy-lf-htc"). Update it only for an intended
# change of certificates or formulas.
PINNED = json.loads(
    (Path(__file__).parent / "data" / "builtin_cli.json").read_text()
)


class TestCheck:
    def test_fully_identified_graph(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--graph", "fig2a")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["fully_identified"] is True
        assert payload["num_solved"] == payload["num_edges"] == 6
        for rec in payload["edges"]:
            assert rec["solved"] and rec["certificate"]

    def test_partial_under_legacy_criterion(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--graph", "household", "--legacy-lf-htc"
        )
        assert code == EXIT_PARTIAL
        payload = json.loads(out)
        solved = {
            tuple(r["edge"]) for r in payload["edges"] if r["solved"]
        }
        assert solved == {("HS", "HA"), ("HS", "TA")}

    def test_markdown_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--graph", "fig2b", "--format", "md"
        )
        assert code == EXIT_PARTIAL
        lines = out.splitlines()
        assert lines[0] == "| edge | solved | criterion |"
        assert any("2 -> 3" in ln and "elf-htc" in ln for ln in lines)
        assert any("1 -> 2" in ln and "| no |" in ln for ln in lines)

    def test_unknown_graph(self, capsys):
        code, _, err = run_cli(capsys, "check", "--graph", "nonesuch")
        assert code == EXIT_INPUT_ERROR
        assert "neither a builtin name" in err

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "observed": ["1", "2"],
                    "latent": [],
                    "edges_obs": [["1", "2"]],
                    "edges_lat": [],
                }
            )
        )
        code, out, _ = run_cli(capsys, "check", "--graph", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["fully_identified"] is True

    def test_self_loop_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "observed": ["1"],
                    "latent": [],
                    "edges_obs": [["1", "1"]],
                    "edges_lat": [],
                }
            )
        )
        code, _, err = run_cli(capsys, "check", "--graph", str(path))
        assert code == EXIT_INPUT_ERROR
        assert "could not load graph" in err

    @pytest.mark.parametrize(
        "field, value", [("observed", "1234"), ("latent", "h1")]
    )
    def test_node_field_must_be_string_list(
        self, capsys, tmp_path, field, value
    ):
        data = {
            "observed": ["1", "2", "3", "4"],
            "latent": ["h1"],
            "edges_obs": [["1", "2"]],
            "edges_lat": [["h1", "1"], ["h1", "2"]],
        }
        data[field] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check", "--graph", str(path))
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert f"'{field}' must be a list" in err

    @pytest.mark.parametrize(
        "field, value",
        [("edges_obs", 5), ("edges_obs", None), ("edges_lat", 3)],
    )
    def test_edge_field_must_be_list(self, capsys, tmp_path, field, value):
        data = {"observed": ["a", "b"], "edges_obs": [["a", "b"]]}
        data[field] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check", "--graph", str(path))
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert f"'{field}' must be a list" in err

    def test_empty_node_name_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps({"observed": ["", "b"], "edges_obs": [["", "b"]]})
        )
        code, out, err = run_cli(capsys, "formula", "--graph", str(path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "must not be empty" in err

    def test_graph_file_must_hold_object(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps([["1", "2"]]))
        code, _, err = run_cli(capsys, "check", "--graph", str(path))
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert "must hold a JSON object" in err

    def test_unreadable_graph_path(self, capsys, tmp_path):
        # The path exists but is a directory: no traceback.
        code, out, err = run_cli(capsys, "check", "--graph", str(tmp_path))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "could not load graph" in err

    def test_negative_recursion_cap_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--graph", "fig2a", "--cap-recursion", "-1"
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)

    def test_repeated_runs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "--graph", "fig3")
        _, out2, _ = run_cli(capsys, "check", "--graph", "fig3")
        assert out1 == out2


class TestPinnedOutput:
    """Certificates (carrying set y, sets s and t) and formulas must not
    drift: another witness changes the CLI output."""

    def test_every_builtin_pinned(self):
        assert set(PINNED) == {
            f"{command} {graph}{flags}"
            for graph in BUILTIN_GRAPHS
            for command in ("check", "formula")
            for flags in ("", " --legacy-lf-htc")
        }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_builtin_output(self, capsys, key):
        command, graph, *flags = key.split()
        code, out, _ = run_cli(capsys, command, "--graph", graph, *flags)
        assert {"exit_code": code, "output": json.loads(out)} == PINNED[key]

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_builtin_output_bytes(self, capsys, key):
        # Whitespace and key order too, not only the parsed value.
        command, graph, *flags = key.split()
        code, out, _ = run_cli(capsys, command, "--graph", graph, *flags)
        assert code == PINNED[key]["exit_code"]
        assert out == stdlib_json(PINNED[key]["output"]) + "\n"

    def test_parser_reused_across_calls(self, capsys):
        # One parser serves every in-process call; a usage error in
        # between leaves nothing behind for the next call.
        assert build_parser() is build_parser()
        for argv in (
            ["check", "--graph", "fig2a", "--legacy-lf-htc"],
            ["check", "--graph", "fig2a"],
            ["check", "--graph", "fig2a", "--cap-h", "abc"],
            ["formula", "--graph", "fig3"],
        ):
            code, out, err = run_cli(capsys, *argv)
            key = " ".join([argv[0]] + argv[2:])
            if key in PINNED:
                assert code == PINNED[key]["exit_code"]
                assert out == stdlib_json(PINNED[key]["output"]) + "\n"
                assert err == ""
            else:
                assert code == EXIT_INPUT_ERROR
                assert out == ""
                assert_one_line_error(err)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: latentid" in capsys.readouterr().out


class TestJsonWriter:
    """`to_json` writes what `json.dumps(indent=2, sort_keys=True)` does."""

    def test_matches_stdlib(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        text = st.text(st.characters(exclude_categories=()), max_size=8)
        floats = st.floats() | st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), -0.0, 0.0]
        )
        scalars = (
            text
            | st.integers()
            | st.booleans()
            | st.none()
            | floats
            | floats.map(np.float64)
        )
        values = st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(text, inner, max_size=4),
            max_leaves=20,
        )

        @hypothesis.settings(
            derandomize=True, max_examples=500, database=None, deadline=None
        )
        @hypothesis.given(values)
        def check(value):
            assert to_json(value) == stdlib_json(value)

        check()

    # Node names that need JSON or LaTeX escapes, and float constants that
    # JSON writes in words or that compare equal to other values.
    NAMES = [
        "1", "h1", 'a"b', "c\\d", "e\nf", "\x00", "\u00e9", "\U0001f600", "",
        "a%", "{&}",
    ]
    CONSTS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-300]

    @staticmethod
    def check_expression(expr):
        assert to_json(expr) == stdlib_json(expr_to_dict(expr))
        nested = {"formulas": [{"edge": ["1", "2"], "expression": expr}]}
        reference = {
            "formulas": [
                {"edge": ["1", "2"], "expression": expr_to_dict(expr)}
            ]
        }
        assert to_json(nested) == stdlib_json(reference)
        # Through one memo: the same node at two depths, and again.
        memo = {}
        for _ in range(2):
            assert to_json(nested, memo=memo) == stdlib_json(reference)
            assert to_json(expr, memo=memo) == stdlib_json(expr_to_dict(expr))
        latex_memo = {}
        for _ in range(2):
            assert render_latex(expr, latex_memo) == ref_latex(expr)

    def test_expression_nodes_match_stdlib(self):
        a, b = Cov("1", "2"), Lam(('a"b', "\u00e9"))
        cases = [
            Sum(()),
            Sum((a,)),
            Prod((b, a)),
            Neg(Sum((a, Neg(b)))),
            Quot(a, Const(-0.0)),
            Det(()),
            Det(((a,),)),
            Det(((a, b), (Const(2.5), Neg(a)))),
            SolveCoord((), (), 0),
            SolveCoord(((a, b), (b, a)), (Const(float("nan")), a), 1),
        ]
        cases += [Cov(x, y) for x in self.NAMES for y in self.NAMES[:2]]
        cases += [Lam((x, "2")) for x in self.NAMES]
        cases += [Const(c) for c in self.CONSTS]
        for expr in cases:
            self.check_expression(expr)

    def test_expression_trees_match_stdlib(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        names = st.sampled_from(self.NAMES) | st.text(
            st.characters(exclude_categories=()), max_size=4
        )
        consts = st.sampled_from(self.CONSTS) | st.floats()
        leaves = (
            st.builds(Cov, names, names)
            | st.builds(lambda x, y: Lam((x, y)), names, names)
            | st.builds(Const, consts)
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

            sizes = st.integers(0, 3)
            return (
                terms.map(Sum)
                | terms.map(Prod)
                | inner.map(Neg)
                | st.builds(Quot, inner, inner)
                | sizes.flatmap(system).map(Det)
                | sizes.flatmap(solve)
            )

        @hypothesis.settings(
            derandomize=True, max_examples=300, database=None, deadline=None
        )
        @hypothesis.given(st.recursive(leaves, nodes, max_leaves=16))
        def check(expr):
            self.check_expression(expr)

        check()

    def test_shared_systems_and_entries_through_one_memo(self):
        """Systems and entries shared by identity, each also inside other
        nodes and at other depths, write as the unshared trees do."""
        a = Sum((cov("1", "2"), Neg(Prod((Lam(("1", "2")), cov("1", "1"))))))
        matrix = ((a, cov("1", "3")), (cov("2", "2"), a))
        rhs = (a, cov("2", "3"))
        coords = [SolveCoord(matrix, rhs, i) for i in (0, 1)]
        exprs = coords + [Quot(Det(matrix), a), Prod((coords[1], a))]
        payload = {"formulas": [{"expression": e} for e in exprs], "x": exprs}
        reference = {
            "formulas": [{"expression": expr_to_dict(e)} for e in exprs],
            "x": [expr_to_dict(e) for e in exprs],
        }
        assert to_json(payload) == stdlib_json(reference)
        memo = {}
        assert [render_latex(e, memo) for e in exprs * 2] == [
            ref_latex(e) for e in exprs * 2
        ]
        assert len(memo) == 5  # one system, four distinct entries

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, np.int64(3), [np.int64(3)], {"a": {1}}, {1: "a"}],
        ids=["set", "np.int64", "nested-np.int64", "nested-set", "int-key"],
    )
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            to_json(value)


class TestFormula:
    def test_latex_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "formula", "--graph", "fig2b", "--format", "latex"
        )
        assert code == EXIT_PARTIAL
        assert (
            r"\lambda_{23} = \left[\begin{pmatrix}"
            r" \Sigma_{12} & \Sigma_{14} \\ \Sigma_{22} & \Sigma_{24}"
            r" \end{pmatrix}^{-1} \cdot \begin{pmatrix}"
            r" \Sigma_{13} \\ \Sigma_{23}"
            r" \end{pmatrix}\right]_{1}" in out
        )

    def test_latex_marks_unidentified(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "formula",
            "--graph",
            "household",
            "--legacy-lf-htc",
            "--format",
            "latex",
        )
        assert code == EXIT_PARTIAL
        assert r"% \lambda_{HS,TC}: unidentified" in out

    def test_latex_left_sides_as_bodies_write_them(self, capsys, tmp_path):
        # Both edges were written \lambda_{112}. A multi-character name
        # is separated by a comma, as in every formula body.
        g = LatentFactorGraph(
            ["1", "2", "11", "12"], [], [("1", "12"), ("11", "2")], []
        )
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph_to_dict(g)))
        code, out, _ = run_cli(
            capsys, "formula", "--graph", str(path), "--format", "latex"
        )
        assert code == EXIT_OK
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            r"\lambda_{1,12}",
            r"\lambda_{11,2}",
        ]
        code, out, _ = run_cli(
            capsys, "formula", "--graph", "household", "--format", "latex"
        )
        assert r"\lambda_{HA,TC} = " in out

    def test_markup_characters_in_names_escaped(self, capsys, tmp_path):
        # `%` would comment out the rest of the line, `&` would end a
        # `pmatrix` cell. The JSON tree keeps the raw names.
        g = LatentFactorGraph(["a%", "b&c"], [], [("a%", "b&c")], [])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph_to_dict(g)))
        body = r"\frac{\Sigma_{a\%,b\&c}}{\Sigma_{a\%,a\%}}"
        code, out, _ = run_cli(
            capsys, "formula", "--graph", str(path), "--format", "latex"
        )
        assert code == EXIT_OK
        assert out == rf"\lambda_{{a\%,b\&c}} = {body}" + "\n"
        code, out, _ = run_cli(capsys, "formula", "--graph", str(path))
        assert code == EXIT_OK
        (entry,) = json.loads(out)["formulas"]
        assert entry["latex"] == body
        assert entry["expression"] == {
            "op": "quot",
            "num": {"op": "cov", "x": "a%", "y": "b&c"},
            "den": {"op": "cov", "x": "a%", "y": "a%"},
        }

    def test_json_expressions(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--graph", "fig2a")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["formulas"]) == 6
        for entry in payload["formulas"]:
            assert entry["status"] == "identified"
            assert entry["expression"]["op"] in {"quot", "solve-coord"}

    def test_random_graphs_match_library(self, capsys, tmp_path):
        # Acyclic and cyclic graphs; graphs 3 (cyclic), 22 and 34 have
        # certificates found after edge deletions.
        rng = random.Random(2)
        with_deletions = set()
        for i in range(40):
            g = random_latent_factor_graph(rng, max_obs=7, acyclic=i % 2 == 0)
            state = combined_algorithm(g)
            if any(r.deleted for r in state.certificates):
                with_deletions.add(i % 2 == 0)
            fmap = formula_map_from_state(g, state)
            path = str(tmp_path / f"graph{i}.json")
            Path(path).write_text(json.dumps(graph_to_dict(g)))

            code, out, _ = run_cli(capsys, "formula", "--graph", path)
            fully = all(e in fmap for e in g.edges_obs)
            assert code == (EXIT_OK if fully else EXIT_PARTIAL)
            json_text, latex_text = formula_reference(g, path, fmap)
            assert out == json_text

            code, out, _ = run_cli(
                capsys, "formula", "--graph", path, "--format", "latex"
            )
            assert code == (EXIT_OK if fully else EXIT_PARTIAL)
            assert out == latex_text
        assert with_deletions == {True, False}


def dense_graphs(seed, count):
    rng = random.Random(seed)
    return [dense_factor_graph(rng) for _ in range(count)]


# `formula` inputs as (--graph argument, graph): the builtins by name, G7
# and seeded graphs as files named relative to the working directory, so
# that the payloads do not depend on where the test runs. Of the 120 dense
# graphs, 117 have eLF-HTC systems with several target coefficients and 11
# have records found in edge-deleted subgraphs (18 records). Cyclic graphs
# are compared in `TestFormula::test_random_graphs_match_library`.
PAYLOAD_CASES = {
    "builtins": lambda: [
        (name, builtin_graph(name)) for name in sorted(BUILTIN_GRAPHS)
    ],
    "G7": lambda: [("G7.json", G7)],
    "120 dense graphs, seed 24": lambda: [
        (f"dense{i:03d}.json", g) for i, g in enumerate(dense_graphs(24, 120))
    ],
}

# sha256 per case of every `formula` exit code and output, JSON then
# LaTeX per graph, recorded before the memo of shared systems and entries
# was added. Update it only for an intended change of formulas.
PAYLOAD_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "formula_payloads_digest.json")
    .read_text()
)


def formula_runs(capsys, case):
    """Per graph of `case`: the graph, its `--graph` argument, and the
    exit code and output of `formula` in JSON and in LaTeX. Run in a
    working directory that holds the case's graph files."""
    runs = []
    for spec, g in PAYLOAD_CASES[case]():
        if spec not in BUILTIN_GRAPHS:
            Path(spec).write_text(json.dumps(graph_to_dict(g)))
        outputs = [
            run_cli(capsys, "formula", "--graph", spec, "--format", fmt)[:2]
            for fmt in ("json", "latex")
        ]
        runs.append((g, spec, outputs))
    return runs


class TestFormulaPayload:
    """`formula` writes each linear system, and each matrix or
    right-hand-side entry, once per payload through a memo keyed by object
    identity; the bytes are those written without one."""

    def test_every_case_pinned(self):
        assert set(PAYLOAD_DIGESTS) == set(PAYLOAD_CASES)

    @pytest.mark.parametrize("case", sorted(PAYLOAD_CASES))
    def test_payload_matches_reference(
        self, capsys, tmp_path, monkeypatch, case
    ):
        monkeypatch.chdir(tmp_path)
        shared_systems = deleted = 0
        for g, spec, outputs in formula_runs(capsys, case):
            state = combined_algorithm(g)
            fmap = formula_map_from_state(g, state)
            fully = g.edges_obs <= set(fmap.formulas)
            code = EXIT_OK if fully else EXIT_PARTIAL
            assert outputs == [
                (code, text) for text in formula_reference(g, spec, fmap)
            ]
            shared_systems += sum(
                isinstance(e, SolveCoord) and e.index > 0
                for e in fmap.formulas.values()
            )
            deleted += sum(1 for r in state.certificates if r.deleted)
        if case not in ("builtins", "G7"):
            assert shared_systems and deleted, case

    @pytest.mark.parametrize("case", sorted(PAYLOAD_CASES))
    def test_payload_bytes_match_recorded(
        self, capsys, tmp_path, monkeypatch, case
    ):
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for _, _, outputs in formula_runs(capsys, case):
            for code, out in outputs:
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == PAYLOAD_DIGESTS[case]

    def test_no_state_survives_a_payload(self, capsys, tmp_path, monkeypatch):
        """In-process calls on two graphs, interleaved, print what a fresh
        process prints for each."""
        monkeypatch.chdir(tmp_path)
        Path("G7.json").write_text(json.dumps(graph_to_dict(G7)))
        dense = next(
            g for g in dense_graphs(24, 120)
            if any(r.deleted for r in combined_algorithm(g).certificates)
        )
        Path("dense.json").write_text(json.dumps(graph_to_dict(dense)))
        argvs = [
            ["formula", "--graph", spec, "--format", fmt]
            for fmt in ("json", "latex")
            for spec in ("G7.json", "dense.json")
        ]
        fresh = {}
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "latentid", *argv],
                capture_output=True,
                text=True,
                env=module_env(),
            )
            fresh[tuple(argv)] = (proc.returncode, proc.stdout)
        for argv in argvs + argvs[::-1]:
            assert run_cli(capsys, *argv)[:2] == fresh[tuple(argv)]


class TestEstimate:
    def test_round_trip(self, capsys, tmp_path):
        g = builtin_graph("fig2a")
        params = sample_parameters(g, seed=7)
        path = tmp_path / "sigma.csv"
        path.write_text(covariance_to_csv(covariance(params)))
        code, out, _ = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        for entry in payload["estimates"]:
            truth = params.coefficient(tuple(entry["edge"]))
            assert entry["estimate"] == pytest.approx(truth, rel=1e-8)

    def test_csv_output(self, capsys, tmp_path):
        g = builtin_graph("fig2b")
        path = tmp_path / "sigma.csv"
        path.write_text(
            covariance_to_csv(covariance(sample_parameters(g, seed=8)))
        )
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--graph",
            "fig2b",
            "--cov",
            str(path),
            "--format",
            "csv",
        )
        # Only 2 -> 3 is identified in the two-proxy graph.
        assert code == EXIT_PARTIAL
        lines = out.splitlines()
        assert lines[0] == "tail,head,estimate,degenerate,identified"
        assert len(lines) == 1 + 3
        flags = {
            tuple(ln.split(",")[:2]): ln.split(",")[4] for ln in lines[1:]
        }
        assert flags[("2", "3")] == "1"
        assert flags[("1", "2")] == "0"

    def test_missing_cov_file(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", "/nope.csv"
        )
        assert code == EXIT_INPUT_ERROR
        assert "does not exist" in err

    def test_unreadable_cov_path(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(tmp_path)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "could not read covariance file" in err

    def test_empty_cov_file(self, capsys, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("")
        code, _, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert "empty" in err

    def test_not_positive_definite(self, capsys, tmp_path):
        g = builtin_graph("fig2a")
        values = np.eye(len(g.observed))
        values[0, 0] = -1.0
        path = tmp_path / "sigma.csv"
        path.write_text(
            covariance_to_csv(CovarianceMatrix(g.observed, values))
        )
        code, _, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert "not positive definite" in err

    def test_duplicate_node_name(self, capsys, tmp_path):
        # Seven columns naming fig2a's six nodes, "1" twice: the node set
        # matches, but one of the two columns would go unread.
        rows = [",".join("1" if i == j else "0" for j in range(7))
                for i in range(7)]
        path = tmp_path / "sigma.csv"
        path.write_text("\n".join(["1,2,3,4,5,6,1"] + rows))
        code, out, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "duplicate covariance node name '1'" in err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_entry(self, capsys, tmp_path, bad):
        rows = [",".join("1" if i == j else "0" for j in range(6))
                for i in range(6)]
        rows[0] = bad + rows[0][1:]
        path = tmp_path / "sigma.csv"
        path.write_text("\n".join(["1,2,3,4,5,6"] + rows))
        code, out, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "row 1, column 1 is not finite" in err

    def test_node_mismatch(self, capsys, tmp_path):
        g = builtin_graph("fig2b")
        path = tmp_path / "sigma.csv"
        path.write_text(
            covariance_to_csv(covariance(sample_parameters(g, seed=9)))
        )
        code, _, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert "do not match" in err

    def test_relabelled_graph(self, capsys, tmp_path):
        """Node names holding commas, quotes, line breaks and surrounding
        whitespace survive the covariance CSV the library writes."""
        g = builtin_graph("fig2a")
        names = dict(
            zip(
                sorted(g.observed),
                ["a,b", 'q"t', " lead", "trail\t", "cr\r\nlf", "fs\x1c"],
            )
        )
        relabelled = LatentFactorGraph(
            [names[n] for n in g.observed],
            list(g.latent),
            [(names[a], names[b]) for a, b in sorted(g.edges_obs)],
            [(h, names[b]) for h, b in sorted(g.edges_lat)],
        )
        graph_path = tmp_path / "g.json"
        graph_path.write_text(
            json.dumps(
                {
                    "observed": list(relabelled.observed),
                    "latent": list(relabelled.latent),
                    "edges_obs": sorted(relabelled.edges_obs),
                    "edges_lat": sorted(relabelled.edges_lat),
                }
            )
        )
        params = sample_parameters(relabelled, seed=7)
        cov_path = tmp_path / "sigma.csv"
        cov_path.write_bytes(covariance_to_csv(covariance(params)).encode())
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--graph",
            str(graph_path),
            "--cov",
            str(cov_path),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["estimates"]) == len(g.edges_obs)
        for entry in payload["estimates"]:
            truth = params.coefficient(tuple(entry["edge"]))
            assert entry["estimate"] == pytest.approx(truth, rel=1e-8)


class TestEnumerate:
    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--pattern",
            "fig5a",
            "--max-edges",
            "3",
            "--format",
            "md",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "| |D_V| | Total | LF-HTC | Det+eLF-HTC+rec |"
        assert lines[-1] == "| 3 | 13 | 13 | 13 |"

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--pattern",
            "fig5b",
            "--max-edges",
            "1",
            "--methods",
            "LF-HTC",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [r["total"] for r in payload["rows"]] == [1, 8]
        assert [r["counts"]["LF-HTC"] for r in payload["rows"]] == [1, 6]

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--methods", "bogus", "--max-edges", "1"
        )
        assert code == EXIT_INPUT_ERROR
        assert "unknown method" in err

    def test_negative_max_edges_rejected(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--max-edges", "-1")
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert_one_line_error(err)
        assert "--max-edges" in err

    def test_max_edges_above_acyclic_maximum_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--pattern", "fig5a", "--max-edges", "99"
        )
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert_one_line_error(err)
        assert "max_edges=99 exceeds the acyclic maximum 15" in err

    @pytest.mark.parametrize("flag", ["--workers", "LATENTID_WORKERS"])
    def test_non_positive_workers_rejected(self, capsys, monkeypatch, flag):
        argv = ["enumerate", "--max-edges", "1", "--methods", "LF-HTC"]
        if flag == "--workers":
            argv += ["--workers", "-2"]
        else:
            monkeypatch.setenv(flag, "-2")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert_one_line_error(err)
        assert "must be >= 1" in err

    def test_non_integer_workers_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("LATENTID_WORKERS", "abc")
        code, out, err = run_cli(
            capsys, "enumerate", "--max-edges", "1", "--methods", "LF-HTC"
        )
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert_one_line_error(err)
        assert "LATENTID_WORKERS" in err and "'abc'" in err

    @pytest.mark.parametrize("methods", [",", "", " , "])
    def test_empty_methods_rejected(self, capsys, methods):
        code, out, err = run_cli(
            capsys, "enumerate", "--max-edges", "1", "--methods", methods
        )
        assert code == EXIT_INPUT_ERROR
        assert not out
        assert_one_line_error(err)
        assert "--methods" in err

    def test_workers_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LATENTID_WORKERS", "2")
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--max-edges",
            "2",
            "--methods",
            "LF-HTC",
            "--format",
            "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[3].startswith("2,4,4")


class TestVerify:
    def test_clean_verification(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--graph",
            "fig2a",
            "--trials",
            "10",
            "--seed",
            "1",
        )
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["failures"] == []
        assert report["unverified_edges"] == []
        assert report["max_rel_error"] < 1e-8

    def test_partial_when_edges_unsolved(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--graph",
            "household",
            "--legacy-lf-htc",
            "--trials",
            "5",
        )
        assert code == EXIT_PARTIAL
        report = json.loads(out)["report"]
        assert ["HA", "TC"] in report["unverified_edges"]

    def test_negative_trials_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--graph", "fig2a", "--trials", "-1"
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "--trials" in err

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--graph", "fig2a", "--seed", "-1"
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "--seed" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected(self, capsys, tol):
        # NaN would pass every trial and -1 fail every one.
        code, out, err = run_cli(
            capsys, "verify", "--graph", "fig2a", "--trials", "1", "--tol", tol
        )
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)
        assert "tol" in err


class TestUsageErrors:
    """A malformed command line is an input error: exit 1 and one
    `error:` line, not exit 2, which reports a partial identification."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["formula", "--graph", "fig2a", "--format", "xml"],
            ["check", "--graph", "fig2a", "--cap-h", "abc"],
            ["check"],
            ["nonesuch"],
            [],
        ],
        ids=["bad-choice", "bad-int", "missing-option", "bad-command", "none"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert_one_line_error(err)

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: latentid" in capsys.readouterr().out


def module_env():
    """The environment under which `python -m latentid` imports this
    checkout's package."""
    src = str(Path(latentid.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--graph", "fig2a"],
            ["formula", "--graph", "fig3", "--format", "latex"],
            ["check", "--graph", "nope"],
        ],
    )
    def test_matches_main(self, capsys, argv):
        """`python -m latentid` prints what `cli.main` prints and exits
        with its code."""
        proc = subprocess.run(
            [sys.executable, "-m", "latentid", *argv],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_early_ends_quietly(self, tmp_path, unbuffered):
        """When the reader of standard output closes it after one line,
        the CLI ends without a word on standard error and exits 141. The
        `check` output of a complete DAG on 30 nodes is about 1 MB, far
        more than a pipe holds, so the writer meets the closed pipe
        whether its output is buffered or not."""
        names = [f"x{i:02d}" for i in range(30)]
        path = tmp_path / "complete.json"
        path.write_text(
            json.dumps(
                {
                    "observed": names,
                    "latent": [],
                    "edges_obs": [
                        [a, b]
                        for i, a in enumerate(names)
                        for b in names[i + 1:]
                    ],
                }
            )
        )
        env = module_env()
        env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "latentid", "check", "--graph", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (EXIT_BROKEN_PIPE, b"")


class TestPackaging:
    def test_distribution_matches_package(self):
        """`pyproject.toml` names the distribution after the package and
        gives the package's `__version__`."""
        tomllib = pytest.importorskip("tomllib")
        path = Path(__file__).parents[1] / "pyproject.toml"
        project = tomllib.loads(path.read_text())["project"]
        assert project["name"] == "latentid"
        assert project["version"] == latentid.__version__
