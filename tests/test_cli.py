"""End-to-end exercises of the command-line interface."""

import json
from pathlib import Path

import pytest

from latentid.catalog import BUILTIN_GRAPHS, builtin_graph
from latentid.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PARTIAL, main
from latentid.numerics import (
    covariance,
    covariance_to_csv,
    sample_parameters,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(err):
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# Recorded `check` and `formula` JSON output and exit code per builtin
# graph, keyed "<command> <graph>". Update it only for an intended change
# of certificates or formulas.
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

    def test_repeated_runs_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "check", "--graph", "fig3")
        _, out2, _ = run_cli(capsys, "check", "--graph", "fig3")
        assert out1 == out2


class TestPinnedOutput:
    """Certificates (carrying set y, sets s and t) and formulas must not
    drift: another witness changes the CLI output."""

    def test_every_builtin_pinned(self):
        assert {key.split()[1] for key in PINNED} == set(BUILTIN_GRAPHS)

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_builtin_output(self, capsys, key):
        command, graph = key.split()
        code, out, _ = run_cli(capsys, command, "--graph", graph)
        assert {"exit_code": code, "output": json.loads(out)} == PINNED[key]


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
        assert r"% \lambda_{HSTC}: unidentified" in out

    def test_json_expressions(self, capsys):
        code, out, _ = run_cli(capsys, "formula", "--graph", "fig2a")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["formulas"]) == 6
        for entry in payload["formulas"]:
            assert entry["status"] == "identified"
            assert entry["expression"]["op"] in {"quot", "solve-coord"}


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

    def test_empty_cov_file(self, capsys, tmp_path):
        path = tmp_path / "sigma.csv"
        path.write_text("")
        code, _, err = run_cli(
            capsys, "estimate", "--graph", "fig2a", "--cov", str(path)
        )
        assert code == EXIT_INPUT_ERROR
        assert_one_line_error(err)
        assert "empty" in err

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
