"""Command-line interface: identifiability checks, formula export, effect
estimation, exhaustive benchmarks, and numeric verification.

Every subcommand is a thin wrapper around the library; all logic lives in
the other modules. Exit codes: 0 on full success, 2 when the requested
analysis is only partially achieved, 1 on input errors, 141 (128 +
SIGPIPE, as for a process the signal ends) when the reader of standard
output closes it early.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional

from .catalog import BUILTIN_GRAPHS, builtin_graph
from .criteria import SearchConfig, combined_algorithm
from .enumeration import (
    METHOD_PRESETS,
    PATTERNS,
    run_benchmark,
    rows_to_csv,
    rows_to_markdown,
)
from .formulas import (
    Lam,
    RationalExpr,
    expr_to_json,
    formula_map_from_state,
    render_latex,
)
from .graph import GraphError, LatentFactorGraph, load_graph
from .numerics import (
    SamplingError,
    covariance_from_csv,
    estimate,
    verify_identification,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BROKEN_PIPE = 141


class CliError(Exception):
    """Input problem that should terminate with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `CliError` (exit 1, one line) instead of
    a usage block and exit 2, which means "partially identified"; the
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise CliError(message)


def _resolve_graph(spec: str) -> LatentFactorGraph:
    """A builtin graph name, or a path to a JSON graph file."""
    if spec in BUILTIN_GRAPHS:
        return builtin_graph(spec)
    if not os.path.exists(spec):
        raise CliError(
            f"graph {spec!r} is neither a builtin name "
            f"({', '.join(sorted(BUILTIN_GRAPHS))}) nor an existing file"
        )
    try:
        return load_graph(spec)
    except (GraphError, ValueError, KeyError, OSError) as exc:
        raise CliError(f"could not load graph {spec!r}: {exc}") from exc


def _search_config(args: argparse.Namespace) -> SearchConfig:
    # --legacy-lf-htc is a fixed preset: no determinantal search, no
    # recursion, and --no-det/--no-elf/--no-rec are ignored.
    legacy = args.legacy_lf_htc
    return SearchConfig(
        legacy_lf_htc_only=legacy,
        enable_det=not (legacy or args.no_det),
        enable_elf=legacy or not args.no_elf,
        enable_recursion=not (legacy or args.no_rec),
        cap_det_pairs=args.cap_det_pairs,
        cap_h_size=args.cap_h,
        cap_recursion=args.cap_recursion,
        simplify_wz_loop=args.simplify_wz,
    )


def to_json(value, indent: str = "\n", memo: Optional[dict] = None) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it,
    byte for byte. CPython 3.11's `json` runs its pure-Python encoder
    whenever `indent` is set; this writer keeps string escaping in C and
    does less work per node. It accepts the JSON types the CLI payloads
    use: str, None, bool, int, float (subclasses too), list, tuple and
    dict with str keys, and `formulas.RationalExpr`; anything else is a
    TypeError. An expression is written straight from its tree by
    `formulas.expr_to_json`, so a `formula` payload builds no dict trees;
    the text is what the stdlib writes for `formulas.expr_to_dict`, the
    expression's dict form and the tests' reference. The expressions of
    one call share a `memo`, so a linear system or matrix entry that
    several of them hold is written once per payload."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if memo is None:
        memo = {}
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [to_json(v, inner, memo) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = to_json(value[key], inner, memo)
            items.append(encode_basestring_ascii(key) + ": " + item)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, RationalExpr):
        return expr_to_json(value, indent, memo)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(to_json(payload))
    else:
        raise CliError(f"unsupported output format {fmt!r} for this command")


# -- subcommands -----------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    state = combined_algorithm(g, _search_config(args))
    solved = state.solved_edges
    edge_records = []
    by_edge = {}
    for record in state.certificates:
        for e in record.edges:
            by_edge.setdefault(e, record)
    for edge in sorted(g.edges_obs):
        rec = by_edge.get(edge)
        edge_records.append(
            {
                "edge": list(edge),
                "solved": edge in solved,
                "certificate": rec.to_dict() if rec else None,
            }
        )
    fully = g.edges_obs <= solved
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "check",
        "graph": args.graph,
        "fully_identified": fully,
        "num_solved": len(solved & g.edges_obs),
        "num_edges": len(g.edges_obs),
        "edges": edge_records,
    }
    if args.format == "md":
        print("| edge | solved | criterion |")
        print("| --- | --- | --- |")
        for rec in edge_records:
            crit = (
                rec["certificate"]["certificate"]["criterion"]
                if rec["certificate"]
                else "-"
            )
            print(
                f"| {rec['edge'][0]} -> {rec['edge'][1]} "
                f"| {'yes' if rec['solved'] else 'no'} | {crit} |"
            )
    else:
        _emit(payload, args.format)
    return EXIT_OK if fully else EXIT_PARTIAL


def cmd_formula(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    state = combined_algorithm(g, _search_config(args))
    fmap = formula_map_from_state(g, state)
    latex_memo: dict = {}
    entries = []
    for edge in sorted(g.edges_obs):
        if edge in fmap:
            expr = fmap.get(edge)
            entries.append(
                {
                    "edge": list(edge),
                    "status": "identified",
                    "latex": render_latex(expr, latex_memo),
                    "expression": expr,
                }
            )
        else:
            entries.append(
                {
                    "edge": list(edge),
                    "status": "unidentified",
                    "latex": None,
                    "expression": None,
                }
            )
    if args.format == "latex":
        for e in entries:
            name = render_latex(Lam(tuple(e["edge"])))
            if e["status"] == "identified":
                print(f"{name} = {e['latex']}")
            else:
                print(f"% {name}: unidentified")
    else:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "formula",
                "graph": args.graph,
                "formulas": entries,
            },
            args.format,
        )
    fully = all(e["status"] == "identified" for e in entries)
    return EXIT_OK if fully else EXIT_PARTIAL


def cmd_estimate(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.graph)
    if not args.cov:
        raise CliError("estimate requires --cov pointing to a covariance CSV")
    if not os.path.exists(args.cov):
        raise CliError(f"covariance file {args.cov!r} does not exist")
    try:
        with open(args.cov, newline="") as fh:
            sigma = covariance_from_csv(fh.read())
    except OSError as exc:
        raise CliError(f"could not read covariance file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"could not parse covariance CSV: {exc}") from exc
    if set(sigma.nodes) != set(g.observed):
        raise CliError(
            "covariance node ids do not match the graph's observed nodes"
        )
    try:
        sigma.check_positive_definite()
    except ValueError as exc:  # numpy's LinAlgError
        raise CliError("covariance matrix is not positive definite") from exc
    state = combined_algorithm(g, _search_config(args))
    fmap = formula_map_from_state(g, state)
    results = estimate(g, sigma, fmap)
    entries = []
    for edge in sorted(g.edges_obs):
        res = results.get(edge)
        entries.append(
            {
                "edge": list(edge),
                "estimate": None if res is None else res.value,
                "degenerate": bool(res and res.degenerate),
                "identified": res is not None,
            }
        )
    if args.format == "csv":
        print("tail,head,estimate,degenerate,identified")
        for e in entries:
            val = "" if e["estimate"] is None else format(e["estimate"], ".17g")
            print(
                f"{e['edge'][0]},{e['edge'][1]},{val},"
                f"{int(e['degenerate'])},{int(e['identified'])}"
            )
    else:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "estimate",
                "graph": args.graph,
                "estimates": entries,
            },
            args.format,
        )
    complete = all(e["identified"] and not e["degenerate"] for e in entries)
    return EXIT_OK if complete else EXIT_PARTIAL


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.pattern not in PATTERNS:
        raise CliError(
            f"unknown pattern {args.pattern!r}; "
            f"choices: {', '.join(sorted(PATTERNS))}"
        )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise CliError(
            "--methods names no method; choices: "
            f"{', '.join(sorted(METHOD_PRESETS))}"
        )
    for m in methods:
        if m not in METHOD_PRESETS:
            raise CliError(
                f"unknown method {m!r}; choices: "
                f"{', '.join(sorted(METHOD_PRESETS))}"
            )
    if args.max_edges < 0:
        raise CliError(f"--max-edges must be >= 0, got {args.max_edges}")
    workers = args.workers
    if workers is None:
        env = os.environ.get("LATENTID_WORKERS")
        try:
            workers = int(env) if env else None
        except ValueError:
            raise CliError(
                f"LATENTID_WORKERS must be an integer, got {env!r}"
            ) from None
    if workers is not None and workers < 1:
        raise CliError(
            f"--workers (or LATENTID_WORKERS) must be >= 1, got {workers}"
        )
    rows = run_benchmark(
        PATTERNS[args.pattern], args.max_edges, methods, workers=workers
    )
    if args.format == "csv":
        print(rows_to_csv(rows))
    elif args.format == "md":
        print(rows_to_markdown(rows))
    else:
        _emit(
            {
                "schema": SCHEMA_VERSION,
                "command": "enumerate",
                "pattern": args.pattern,
                "rows": [r.to_dict() for r in rows],
            },
            args.format,
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise CliError(f"--trials must be non-negative, got {args.trials}")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    g = _resolve_graph(args.graph)
    state = combined_algorithm(g, _search_config(args))
    try:
        report = verify_identification(
            g, state, trials=args.trials, tol=args.tol, seed=args.seed
        )
    except SamplingError as exc:
        raise CliError(str(exc)) from exc
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "command": "verify",
            "graph": args.graph,
            "report": report.to_dict(),
        },
        args.format,
    )
    clean = not report.failures and not report.unverified_edges
    return EXIT_OK if clean else EXIT_PARTIAL


# -- argument parsing ------------------------------------------------------


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cap-det-pairs", type=int, default=None)
    p.add_argument("--cap-h", type=int, default=None)
    p.add_argument("--simplify-wz", action="store_true")
    p.add_argument("--cap-recursion", type=int, default=None)
    p.add_argument("--legacy-lf-htc", action="store_true")
    p.add_argument("--no-det", action="store_true")
    p.add_argument("--no-elf", action="store_true")
    p.add_argument("--no-rec", action="store_true")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: `parse_args` fills a new namespace
    on every call, so repeated in-process `main()` calls share it."""
    parser = _Parser(
        prog="latentid",
        description=(
            "Identifiability of direct causal effects in linear models "
            "with latent factor variables"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run the identification search on a graph"
    )
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--format", default="json", choices=["json", "md"])
    _add_search_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_formula = sub.add_parser(
        "formula", help="export identification formulas"
    )
    p_formula.add_argument("--graph", required=True)
    p_formula.add_argument(
        "--format", default="json", choices=["json", "latex"]
    )
    _add_search_flags(p_formula)
    p_formula.set_defaults(func=cmd_formula)

    p_estimate = sub.add_parser(
        "estimate", help="estimate effects from a covariance matrix"
    )
    p_estimate.add_argument("--graph", required=True)
    p_estimate.add_argument("--cov", required=True)
    p_estimate.add_argument(
        "--format", default="json", choices=["json", "csv"]
    )
    _add_search_flags(p_estimate)
    p_estimate.set_defaults(func=cmd_estimate)

    p_enum = sub.add_parser(
        "enumerate", help="benchmark methods over all DAGs of a pattern"
    )
    p_enum.add_argument(
        "--pattern", default="fig5a", choices=sorted(PATTERNS)
    )
    p_enum.add_argument("--max-edges", type=int, default=6)
    p_enum.add_argument(
        "--methods", default=",".join(("LF-HTC", "Det+eLF-HTC+rec"))
    )
    p_enum.add_argument("--workers", type=int, default=None)
    p_enum.add_argument(
        "--format", default="md", choices=["json", "csv", "md"]
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser(
        "verify", help="numerically verify derived formulas"
    )
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--format", default="json", choices=["json"])
    _add_search_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # Output still buffered fails here, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone. Point the descriptor at the null device so
        # that the interpreter's last flush of the unwritten rest does not
        # fail again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return EXIT_BROKEN_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
