"""Symbolic rational identification formulas.

Expressions are immutable trees over covariance symbols, previously
derived coefficient handles, determinants, and linear-solve coordinates.
They can be rendered to LaTeX and evaluated numerically against a
covariance matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from math import prod
from typing import Iterable, Optional

import numpy as np

from .criteria import (
    CertRecord,
    DetCertificate,
    HtcCertificate,
    IdentificationState,
    _rows_update,
)
from .graph import (
    CompiledGraph,
    Edge,
    GraphError,
    LatentFactorGraph,
    UnknownNodeError,
    bits,
)

SINGULARITY_TOL = 1e-12


class DependencyError(ValueError):
    """A formula needs the coefficient of an edge that has no formula yet."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(f"no formula available for edge {edge[0]} -> {edge[1]}")


class DegenerateInputError(ValueError):
    """The supplied covariance matrix lies in the singular exception set."""


class RationalExpr:
    """Base class; all nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Cov(RationalExpr):
    """Covariance symbol, normalized so that x <= y."""

    x: str
    y: str


def cov(x: str, y: str) -> Cov:
    return Cov(x, y) if x <= y else Cov(y, x)


@dataclass(frozen=True)
class Const(RationalExpr):
    value: float


@dataclass(frozen=True)
class Lam(RationalExpr):
    """Handle referencing the formula of a previously derived edge."""

    edge: Edge


@dataclass(frozen=True)
class Sum(RationalExpr):
    terms: tuple[RationalExpr, ...]


@dataclass(frozen=True)
class Prod(RationalExpr):
    factors: tuple[RationalExpr, ...]


@dataclass(frozen=True)
class Neg(RationalExpr):
    term: RationalExpr


@dataclass(frozen=True)
class Quot(RationalExpr):
    num: RationalExpr
    den: RationalExpr


@dataclass(frozen=True)
class Det(RationalExpr):
    matrix: tuple[tuple[RationalExpr, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("determinant of a non-square matrix")


@dataclass(frozen=True)
class SolveCoord(RationalExpr):
    """One coordinate of the solution of a square linear system."""

    matrix: tuple[tuple[RationalExpr, ...], ...]
    rhs: tuple[RationalExpr, ...]
    index: int

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix) or len(self.rhs) != n:
            raise ValueError("linear system is not square")
        if not 0 <= self.index < max(n, 1):
            raise ValueError("solution index out of range")


def _sub_chain(base: RationalExpr, terms: Iterable[RationalExpr]) -> RationalExpr:
    """base - t1 - t2 - ... collapsed into a single sum node."""
    negs = tuple(Neg(t) for t in terms)
    if not negs:
        return base
    return Sum((base,) + negs)


def _lam_times(lam: Lam, other: RationalExpr) -> RationalExpr:
    # Mirror the conventional typesetting: a bare coefficient precedes a
    # bare covariance; a composite factor keeps the coefficient trailing.
    if isinstance(other, Cov):
        return Prod((lam, other))
    return Prod((other, lam))


# -- formula maps and deletion contexts -----------------------------------


@dataclass
class FormulaMap:
    """Formulas per solved edge; closed under coefficient handles."""

    formulas: dict[Edge, RationalExpr] = field(default_factory=dict)
    _plan: Optional[EvalPlan] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.formulas

    def get(self, edge: Edge) -> RationalExpr:
        if edge not in self.formulas:
            raise DependencyError(edge)
        return self.formulas[edge]

    def add(self, edge: Edge, expr: RationalExpr) -> None:
        """Record `expr` for `edge`; every coefficient handle in it must
        already have a formula."""
        for ref in _lam_refs(expr):
            if ref not in self.formulas:
                raise DependencyError(ref)
        self.formulas[edge] = expr

    def items(self):
        return self.formulas.items()

    def plan(self) -> EvalPlan:
        """The evaluation plan of every formula, compiled once and again
        only when `formulas` no longer equals what it was compiled from."""
        plan = self._plan
        if plan is None or plan.formulas != self.formulas:
            plan = self._plan = EvalPlan(self.formulas, self.formulas)
        return plan


def _lam_refs(expr: RationalExpr) -> set[Edge]:
    out: set[Edge] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Lam):
            out.add(e.edge)
        elif isinstance(e, Sum):
            stack.extend(e.terms)
        elif isinstance(e, Prod):
            stack.extend(e.factors)
        elif isinstance(e, Neg):
            stack.append(e.term)
        elif isinstance(e, Quot):
            stack.extend((e.num, e.den))
        elif isinstance(e, Det):
            for row in e.matrix:
                stack.extend(row)
        elif isinstance(e, SolveCoord):
            for row in e.matrix:
                stack.extend(row)
            stack.extend(e.rhs)
    return out


class DeletionContext:
    """An ordered sequence of single-edge deletions from a base graph,
    with the subgraph it leaves, compiled (`view`: the base graph's
    `CompiledGraph` with one `without_edge` per deleted edge), and the
    covariance pairs still computable there: the search's allowed rows
    (`_rows_update`), one bitmask row per node in `view`'s numbering."""

    def __init__(self, graph: LatentFactorGraph, deleted: Iterable[Edge] = ()):
        self.deleted = tuple(tuple(e) for e in deleted)
        if len(set(self.deleted)) < len(self.deleted):
            raise UnknownNodeError(f"edges deleted twice: {list(self.deleted)}")
        missing = set(self.deleted) - graph.edges_obs
        if missing:
            raise UnknownNodeError(f"edges not in graph: {sorted(missing)}")
        base = view = CompiledGraph(graph)
        index = base.index
        rows = (base.all,) * len(base.names)
        for w, v in self.deleted:
            # Descendants are taken in the base graph so the allowed rows
            # only depend on the union of deleted edges (order-free).
            a, b = index[w], index[v]
            rows = _rows_update(rows, b, 1 << a, base.descendants(b))
            view = view.without_edge(a, b)
        self.view = view
        self.rows = rows

    def is_allowed(self, x: str, y: str) -> bool:
        index = self.view.index
        if x not in index or y not in index:
            return False
        return bool(self.rows[index[x]] >> index[y] & 1)


def adjusted_cov(
    x: str,
    y: str,
    ctx: DeletionContext,
    fmap: Optional[FormulaMap] = None,
) -> RationalExpr:
    """The subgraph covariance (x, y) as an expression in the base
    graph's covariances and the deleted edges' coefficients.

    With `fmap`, the coefficient handle of each correction the expression
    holds must already have a formula there (`DependencyError`)."""
    if not ctx.is_allowed(x, y):
        raise GraphError(
            f"covariance ({x}, {y}) is not computable after deleting "
            f"{list(ctx.deleted)}"
        )
    return _adjusted(x, y, ctx.deleted, fmap)


def _adjusted(
    x: str, y: str, deleted: tuple[Edge, ...], fmap: Optional[FormulaMap]
) -> RationalExpr:
    if not deleted:
        return cov(x, y)
    head, (w, v) = deleted[:-1], deleted[-1]
    base = _adjusted(x, y, head, fmap)
    if x != v and y != v:
        return base
    if fmap is not None and (w, v) not in fmap:
        raise DependencyError((w, v))
    other = y if x == v else x
    correction = _lam_times(Lam((w, v)), _adjusted(other, w, head, fmap))
    return _sub_chain(base, [correction])


# -- linear system construction -------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """The square system whose leading solution coordinates are the
    coefficients of the edges in `alpha_edges`."""

    matrix: tuple[tuple[RationalExpr, ...], ...]
    rhs: tuple[RationalExpr, ...]
    columns: tuple[str, ...]
    rows: tuple[str, ...]
    alpha_edges: tuple[Edge, ...]


def _index(index: dict[str, int], node: str, kind: str) -> int:
    if node not in index:
        raise UnknownNodeError(f"{node!r} is not {kind} node")
    return index[node]


def _mask(index: dict[str, int], nodes: Iterable[str], kind: str) -> int:
    mask = 0
    for n in nodes:
        i = index.get(n)
        if i is None:
            raise UnknownNodeError(f"{n!r} is not {kind} node")
        mask |= 1 << i
    return mask


class _Entries:
    """The covariance entries of one deletion context's formulas, each
    built once and shared by every formula of the context that holds it:
    subgraph covariances (`sig`), covariances corrected by the row node's
    parent coefficients (`corrected`), and entries with the terms of known
    parents taken off (`partial`), keyed by node numbers in the context's
    compiled subgraph.

    A table serves one map, which only grows while the table lives: an
    entry built once holds no coefficient handle that the map lacks later,
    so reusing it skips no `DependencyError` that building it again would
    raise, and an entry that raises is not kept."""

    def __init__(self, ctx: DeletionContext, fmap: FormulaMap):
        self.ctx = ctx
        self.fmap = fmap
        view = ctx.view
        self.names, self.pa = view.names, view.pa
        self.lat_index = {n: j for j, n in enumerate(view.latent)}
        self._sig: dict[tuple[int, int], RationalExpr] = {}
        self._corrected: dict[tuple[int, int], RationalExpr] = {}
        self._partial: dict[tuple, RationalExpr] = {}

    def lam(self, p: int, t: int) -> Lam:
        edge = (self.names[p], self.names[t])
        if edge not in self.fmap:
            raise DependencyError(edge)
        return Lam(edge)

    def sig(self, a: int, b: int) -> RationalExpr:
        out = self._sig.get((a, b))
        if out is None:
            names = self.names
            out = adjusted_cov(names[a], names[b], self.ctx, self.fmap)
            self._sig[a, b] = out
        return out

    def corrected(self, y: int, t: int) -> RationalExpr:
        # [(I - Lambda)^T Sigma]_{yt} with the y-column coefficients
        # pulled from previously derived formulas.
        out = self._corrected.get((y, t))
        if out is None:
            sig, lam = self.sig, self.lam
            out = _sub_chain(
                sig(y, t),
                [_lam_times(lam(p, y), sig(p, t)) for p in bits(self.pa[y])],
            )
            self._corrected[y, t] = out
        return out

    def partial(
        self, y: int, t: int, parents: int, case2: bool
    ) -> RationalExpr:
        # The entry of t minus the parents' terms whose coefficients are
        # already known.
        key = (y, t, parents, case2)
        out = self._partial.get(key)
        if out is None:
            entry, lam = self.corrected if case2 else self.sig, self.lam
            out = _sub_chain(
                entry(y, t),
                [
                    Prod((entry(y, p), lam(p, t)))
                    if case2
                    else _lam_times(lam(p, t), entry(y, p))
                    for p in bits(parents)
                ],
            )
            self._partial[key] = out
        return out


def build_elf_system(
    g: LatentFactorGraph,
    cert: HtcCertificate,
    fmap: FormulaMap,
    ctx: Optional[DeletionContext] = None,
) -> LinearSystem:
    """Linear system determined by an extended-criterion witness.

    Rows are indexed by the sorted source set Y; columns by the target
    coefficients first, then the partially-conditioned sinks, then the
    fully-conditioned sinks and remaining conditioning nodes. Covariance
    entries are drawn through the deletion context. Every coefficient
    handle the system holds, its deletion corrections' too, must already
    have a formula in `fmap` (`DependencyError`).

    The graph queries read the context's compiled subgraph: node sets are
    masks in its sorted-name numbering, walked in that order by `bits`.
    """
    if ctx is None:
        ctx = DeletionContext(g)
    return _elf_system(cert, _Entries(ctx, fmap))


def _elf_system(cert: HtcCertificate, entries: _Entries) -> LinearSystem:
    """`build_elf_system` with the entries drawn from `entries`."""
    view = entries.ctx.view
    names, index, pa = view.names, view.index, view.pa
    obs = "an observed"
    v = _index(index, cert.v, obs)
    w_v = _mask(index, cert.w_v, obs)
    sinks = _mask(index, cert.z, obs)
    w_z = {
        _index(index, z, obs): _mask(index, ws, obs) for z, ws in cert.w_z_map
    }
    w_big = 0
    for ws in w_z.values():
        w_big |= ws
    # Z1 holds the sinks whose W_z is a proper subset of their parents.
    z1 = sum(
        1 << z for z in bits(sinks) if w_z[z] != pa[z] and not w_z[z] & ~pa[z]
    )
    z2 = sinks & ~z1
    h = _mask(entries.lat_index, cert.h, "a latent")
    # The nodes that half-treks from Z and v avoiding H reach, as in
    # `criteria._elf_allowed_sources`.
    reachable = 0
    for t in bits(sinks | 1 << v):
        reach = view.descendants(t)
        for j in bits(view.pa_lat[t] & ~h):
            reach |= view.lat_reach(j)
        reachable |= reach & ~(1 << t)
    alpha = w_v & ~(z2 | w_big)

    sig, corrected, partial = entries.sig, entries.corrected, entries.partial
    alpha_cols = bits(alpha)
    partial_cols = [(z, pa[z] & ~w_z[z]) for z in bits(z1)]
    tail_cols = (*bits(z2), *bits(w_big & ~z2))
    v_parents = pa[v] & ~w_v
    matrix: list[tuple[RationalExpr, ...]] = []
    rhs: list[RationalExpr] = []
    rows = _mask(index, cert.y, obs)
    for y in bits(rows):
        case2 = bool(reachable >> y & 1)
        entry = corrected if case2 else sig
        row = [entry(y, p) for p in alpha_cols]
        row += [partial(y, z, parents, case2) for z, parents in partial_cols]
        row += [entry(y, w) for w in tail_cols]
        matrix.append(tuple(row))
        rhs.append(partial(y, v, v_parents, case2))

    columns = (alpha, z1, z2, w_big & ~z2)
    return LinearSystem(
        matrix=tuple(matrix),
        rhs=tuple(rhs),
        columns=tuple(names[c] for m in columns for c in bits(m)),
        rows=tuple(names[y] for y in bits(rows)),
        alpha_edges=tuple((names[p], names[v]) for p in alpha_cols),
    )


def solve_alpha(system: LinearSystem) -> list[tuple[Edge, RationalExpr]]:
    """Expressions for the leading solution coordinates of the system.

    A 1x1 system collapses to a plain quotient.
    """
    if len(system.matrix) == 1 and system.alpha_edges:
        return [
            (system.alpha_edges[0], Quot(system.rhs[0], system.matrix[0][0]))
        ]
    return [
        (edge, SolveCoord(system.matrix, system.rhs, i))
        for i, edge in enumerate(system.alpha_edges)
    ]


def build_det_formula(
    cert: DetCertificate,
    fmap: FormulaMap,
    ctx: DeletionContext,
) -> RationalExpr:
    """Determinant-ratio formula determined by a determinantal witness.
    Every coefficient handle it holds must already have a formula in
    `fmap` (`DependencyError`)."""
    return _det_formula(cert, _Entries(ctx, fmap))


def _det_formula(cert: DetCertificate, entries: _Entries) -> RationalExpr:
    """`build_det_formula` with the entries drawn from `entries`."""
    index, sig = entries.ctx.view.index, entries.sig
    obs = "an observed"
    rows = [_index(index, s, obs) for s in sorted(cert.s)]
    t_cols = [_index(index, t, obs) for t in sorted(cert.t)]

    def mat(target: str) -> RationalExpr:
        col = _index(index, target, obs)
        if len(rows) == 1:
            return sig(rows[0], col)
        cols = t_cols + [col]
        return Det(tuple(tuple(sig(s, t) for t in cols) for s in rows))

    correction = []
    for w in sorted(cert.deleted_parents):
        if (w, cert.v) not in entries.fmap:
            raise DependencyError((w, cert.v))
        correction.append(_lam_times(Lam((w, cert.v)), mat(w)))
    numerator = _sub_chain(mat(cert.v), correction)
    return Quot(numerator, mat(cert.w0))


def formula_map_from_state(
    g: LatentFactorGraph, state: IdentificationState
) -> FormulaMap:
    """Formulas for every solved edge, built from the recorded
    certificates in discovery order (first witness per edge wins).

    The builders check each coefficient handle against the map as they
    make it, so the formulas go into the map without `FormulaMap.add`
    walking them again. A record's edges are among the α-edges of its
    system, so a built system always adds a formula, and a missing
    dependency raises `DependencyError` just as that walk would.

    Each deletion context keeps one entry table (`_Entries`) for the
    call, so an entry that several formulas of the context hold is built
    once and is the same object in each of them."""
    fmap = FormulaMap()
    formulas = fmap.formulas
    tables: dict[tuple[Edge, ...], _Entries] = {}
    for record in state.certificates:
        if all(e in formulas for e in record.edges):
            continue
        entries = tables.get(record.deleted)
        if entries is None:
            ctx = DeletionContext(g, record.deleted)
            entries = tables[record.deleted] = _Entries(ctx, fmap)
        if isinstance(record.cert, HtcCertificate):
            system = _elf_system(record.cert, entries)
            wanted = set(record.edges)
            for edge, expr in solve_alpha(system):
                if edge not in formulas and edge in wanted:
                    formulas[edge] = expr
        else:
            edge = (record.cert.w0, record.cert.v)
            if edge not in formulas:
                formulas[edge] = _det_formula(record.cert, entries)
    return fmap


# -- export ----------------------------------------------------------------


def expr_to_dict(expr: RationalExpr) -> dict:
    """JSON-serializable tree form of an expression."""
    if isinstance(expr, Cov):
        return {"op": "cov", "x": expr.x, "y": expr.y}
    if isinstance(expr, Const):
        return {"op": "const", "value": expr.value}
    if isinstance(expr, Lam):
        return {"op": "coeff", "edge": list(expr.edge)}
    if isinstance(expr, Sum):
        return {"op": "sum", "terms": [expr_to_dict(t) for t in expr.terms]}
    if isinstance(expr, Prod):
        return {
            "op": "prod",
            "factors": [expr_to_dict(f) for f in expr.factors],
        }
    if isinstance(expr, Neg):
        return {"op": "neg", "term": expr_to_dict(expr.term)}
    if isinstance(expr, Quot):
        return {
            "op": "quot",
            "num": expr_to_dict(expr.num),
            "den": expr_to_dict(expr.den),
        }
    if isinstance(expr, Det):
        return {
            "op": "det",
            "matrix": [[expr_to_dict(e) for e in row] for row in expr.matrix],
        }
    if isinstance(expr, SolveCoord):
        return {
            "op": "solve-coord",
            "matrix": [[expr_to_dict(e) for e in row] for row in expr.matrix],
            "rhs": [expr_to_dict(t) for t in expr.rhs],
            "index": expr.index,
        }
    raise TypeError(f"unknown expression node: {expr!r}")


def expr_to_json(
    expr: RationalExpr, indent: str = "\n", memo: Optional[dict] = None
) -> str:
    """`json.dumps(expr_to_dict(expr), indent=2, sort_keys=True)`, byte for
    byte, written straight from the tree without building the dicts.

    `indent` is a line break plus the indentation of the line the
    expression starts on, as `cli.to_json` passes it for a nested value.
    Each branch writes its node's keys already in sorted order; strings go
    through the stdlib's C escaper.

    Each linear system and each matrix or right-hand-side entry is written
    once per `memo` and indentation, as `render_latex` does; without a
    memo the call keeps its own."""
    if memo is None:
        memo = {}
    i = indent + "  "
    if isinstance(expr, Cov):
        x, y = _json_str(expr.x), _json_str(expr.y)
        return f'{{{i}"op": "cov",{i}"x": {x},{i}"y": {y}{indent}}}'
    if isinstance(expr, Neg):
        term = expr_to_json(expr.term, i, memo)
        return f'{{{i}"op": "neg",{i}"term": {term}{indent}}}'
    if isinstance(expr, Prod):
        factors = _json_exprs(expr.factors, i, memo)
        return f'{{{i}"factors": {factors},{i}"op": "prod"{indent}}}'
    if isinstance(expr, Lam):
        edge = _json_array([_json_str(n) for n in expr.edge], i)
        return f'{{{i}"edge": {edge},{i}"op": "coeff"{indent}}}'
    if isinstance(expr, Sum):
        terms = _json_exprs(expr.terms, i, memo)
        return f'{{{i}"op": "sum",{i}"terms": {terms}{indent}}}'
    if isinstance(expr, Quot):
        num = expr_to_json(expr.num, i, memo)
        den = expr_to_json(expr.den, i, memo)
        return f'{{{i}"den": {den},{i}"num": {num},{i}"op": "quot"{indent}}}'
    if isinstance(expr, Det):
        matrix = _json_matrix(expr.matrix, i, memo)
        return f'{{{i}"matrix": {matrix},{i}"op": "det"{indent}}}'
    if isinstance(expr, SolveCoord):
        index = int.__repr__(expr.index)
        system = _system_text(memo, _json_system, expr.matrix, expr.rhs, i)
        return f'{{{i}"index": {index},{system}{indent}}}'
    if isinstance(expr, Const):
        # A scalar's JSON text does not depend on the indentation.
        value = json.dumps(expr.value)
        return f'{{{i}"op": "const",{i}"value": {value}{indent}}}'
    raise TypeError(f"unknown expression node: {expr!r}")


def _json_system(matrix, rhs, indent: str, memo: dict) -> str:
    """The keys of a `SolveCoord` after its index."""
    matrix_text = _json_matrix(matrix, indent, memo)
    rhs_text = _json_entries(rhs, indent, memo)
    return (
        f'{indent}"matrix": {matrix_text},'
        f'{indent}"op": "solve-coord",{indent}"rhs": {rhs_text}'
    )


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of already written items, each at `indent` + 2."""
    if not items:
        return "[]"
    i = indent + "  "
    return "[" + i + ("," + i).join(items) + indent + "]"


def _json_exprs(
    exprs: tuple[RationalExpr, ...], indent: str, memo: dict
) -> str:
    i = indent + "  "
    return _json_array([expr_to_json(e, i, memo) for e in exprs], indent)


def _json_entries(
    entries: tuple[RationalExpr, ...], indent: str, memo: dict
) -> str:
    """A matrix row or right-hand side, each entry written once per memo
    and indentation."""
    i = indent + "  "
    texts = []
    for e in entries:
        hit = memo.get((id(e), i))
        if hit is None:
            hit = memo[id(e), i] = (e, expr_to_json(e, i, memo))
        texts.append(hit[1])
    return _json_array(texts, indent)


def _json_matrix(
    rows: tuple[tuple[RationalExpr, ...], ...],
    indent: str,
    memo: dict,
) -> str:
    i = indent + "  "
    return _json_array([_json_entries(row, i, memo) for row in rows], indent)


# -- rendering -------------------------------------------------------------


# A memo serves one payload and one renderer. It maps the ids of a linear
# system's matrix and right-hand side, or of a matrix or right-hand-side
# entry, with the JSON indentation, to the text and the objects the ids
# belong to: holding them keeps any other object from taking their ids
# while the memo lives. Entries are looked up inline in `_pmatrix` and
# `_json_entries`, where a call per entry would cost as much as a hit saves.


def _system_text(memo: dict, render, matrix, rhs, *indent) -> str:
    """`render(matrix, rhs, *indent, memo)`, written once per memo."""
    key = (id(matrix), id(rhs), *indent)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (matrix, rhs, render(matrix, rhs, *indent, memo))
    return hit[2]


_LATEX_ESCAPES = str.maketrans(
    {
        "\\": r"\backslash{}",
        "{": r"\{",
        "}": r"\}",
        "$": r"\$",
        "&": r"\&",
        "#": r"\#",
        "%": r"\%",
    }
)


def _subscript(a: str, b: str) -> str:
    """The subscript of a symbol over nodes a and b: two one-character
    names run together, others are separated by a comma (the rule reads
    the raw names). The characters TeX reads as markup are escaped in
    forms valid in math mode."""
    sep = "" if len(a) == 1 and len(b) == 1 else ","
    if not (a.isalnum() and b.isalnum()):
        a, b = a.translate(_LATEX_ESCAPES), b.translate(_LATEX_ESCAPES)
    return a + sep + b


def _needs_parens(expr: RationalExpr) -> bool:
    return isinstance(expr, (Sum, Neg))


def render_latex(expr: RationalExpr, memo: Optional[dict] = None) -> str:
    """Deterministic LaTeX form of an expression.

    Each linear system and each matrix or right-hand-side entry is
    rendered once per `memo`, a dict the caller keeps for one payload and
    then drops, and its text looked up by object identity after: the
    formulas of one map share their systems and, within a deletion
    context, their entries (`formula_map_from_state`). Without a memo the
    call keeps its own. A memo serves one renderer; `expr_to_json` keys
    its texts by indentation as well."""
    if memo is None:
        memo = {}
    if isinstance(expr, Cov):
        return rf"\Sigma_{{{_subscript(expr.x, expr.y)}}}"
    if isinstance(expr, Lam):
        return rf"\lambda_{{{_subscript(expr.edge[0], expr.edge[1])}}}"
    if isinstance(expr, Const):
        return format(expr.value, "g")
    if isinstance(expr, Neg):
        inner = render_latex(expr.term, memo)
        if _needs_parens(expr.term):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Sum):
        parts = []
        for i, t in enumerate(expr.terms):
            if isinstance(t, Neg):
                inner = render_latex(t.term, memo)
                if _needs_parens(t.term):
                    inner = f"({inner})"
                parts.append(("-" if i == 0 else " - ") + inner)
            else:
                parts.append(("" if i == 0 else " + ") + render_latex(t, memo))
        return "".join(parts)
    if isinstance(expr, Prod):
        parts = []
        for f in expr.factors:
            s = render_latex(f, memo)
            if _needs_parens(f) or isinstance(f, Quot):
                s = f"({s})"
            parts.append(s)
        return "".join(parts)
    if isinstance(expr, Quot):
        num, den = render_latex(expr.num, memo), render_latex(expr.den, memo)
        return rf"\frac{{{num}}}{{{den}}}"
    if isinstance(expr, Det):
        return rf"\det{_pmatrix(expr.matrix, memo)}"
    if isinstance(expr, SolveCoord):
        body = _system_text(memo, _latex_system, expr.matrix, expr.rhs)
        return rf"\left[{body}\right]_{{{expr.index + 1}}}"
    raise TypeError(f"unknown expression node: {expr!r}")


def _latex_system(matrix, rhs, memo: dict) -> str:
    column = tuple((r,) for r in rhs)
    return rf"{_pmatrix(matrix, memo)}^{{-1}} \cdot {_pmatrix(column, memo)}"


def _pmatrix(
    rows: tuple[tuple[RationalExpr, ...], ...], memo: dict
) -> str:
    cells = []
    for row in rows:
        texts = []
        for e in row:
            hit = memo.get(id(e))
            if hit is None:
                hit = memo[id(e)] = (e, render_latex(e, memo))
            texts.append(hit[1])
        cells.append(" & ".join(texts))
    body = r" \\ ".join(cells)
    return rf"\begin{{pmatrix}} {body} \end{{pmatrix}}"


# -- evaluation ------------------------------------------------------------

# The kinds of `EvalPlan` slot: operations, each filling its slot from the
# slots `ins`, then covariance lookups and constants.
_SUM, _PROD, _NEG, _QUOT, _DET, _SOLVE, _COORD, _COV, _CONST = range(9)


class EvalPlan:
    """Formulas compiled once into a flat list of operations over slots.

    Structurally equal nodes share one slot (hash-consing keyed by the
    node type and its children's slots; a `Const` by its float's exact
    bits), a `Lam` is the slot of its edge's formula, and every
    `SolveCoord` of one `(matrix, rhs)` system reads one solution vector.
    `run` fills the slots in topological order, one covariance lookup per
    distinct pair, with the tree walk's operation order in every node, so
    each value is bit-identical to evaluating the tree. A degenerate slot
    holds its `DegenerateInputError`, and a slot that reads it holds the
    first such error among its inputs, in the walk's order: only the
    formulas that depend on a degenerate value are degenerate.

    `roots` names the expressions to evaluate; a `Lam` resolves through
    `formulas`, kept as the shallow copy the plan was compiled from. A
    handle with no formula there is a `DependencyError` here."""

    def __init__(self, roots: dict, formulas: dict[Edge, RationalExpr]):
        self.formulas = dict(formulas)
        self._values: list = []  # a Const's value, None in other slots
        self._covs: list[tuple[int, tuple[str, str]]] = []
        self._ops: list[tuple] = []
        self._keys: dict[tuple, int] = {}
        self._edge_slots: dict[Edge, int] = {}
        self.roots = {key: self._compile(expr) for key, expr in roots.items()}
        del self._keys, self._edge_slots

    def _slot(self, key: tuple, code: int, ins: tuple = (), arg=None) -> int:
        """The slot of the node `key`, made on first sight: a constant
        `arg`, a covariance lookup `arg`, or operation `code` over the
        slots `ins`."""
        slot = self._keys.get(key)
        if slot is None:
            slot = self._keys[key] = len(self._values)
            self._values.append(arg if code == _CONST else None)
            if code == _COV:
                self._covs.append((slot, arg))
            elif code != _CONST:
                self._ops.append((code, slot, ins, arg))
        return slot

    def _compile(self, expr: RationalExpr) -> int:
        if isinstance(expr, Cov):
            pair = (expr.x, expr.y)
            return self._slot((Cov, pair), _COV, arg=pair)
        if isinstance(expr, Lam):
            slot = self._edge_slots.get(expr.edge)
            if slot is None:
                if expr.edge not in self.formulas:
                    raise DependencyError(expr.edge)
                slot = self._compile(self.formulas[expr.edge])
                self._edge_slots[expr.edge] = slot
            return slot
        if isinstance(expr, Sum):
            ins = tuple(map(self._compile, expr.terms))
            return self._slot((Sum, ins), _SUM, ins)
        if isinstance(expr, Prod):
            ins = tuple(map(self._compile, expr.factors))
            return self._slot((Prod, ins), _PROD, ins)
        if isinstance(expr, Neg):
            ins = (self._compile(expr.term),)
            return self._slot((Neg, ins), _NEG, ins)
        if isinstance(expr, Quot):
            ins = (self._compile(expr.num), self._compile(expr.den))
            return self._slot((Quot, ins), _QUOT, ins)
        if isinstance(expr, Det):
            rows = self._rows(expr.matrix)
            return self._slot((Det, rows), _DET, sum(rows, ()), rows)
        if isinstance(expr, SolveCoord):
            rows = self._rows(expr.matrix)
            rhs = tuple(map(self._compile, expr.rhs))
            ins = sum(rows, ()) + rhs
            key = (SolveCoord, rows, rhs)
            system = self._slot(key, _SOLVE, ins, (rows, rhs))
            return self._slot(
                (system, expr.index), _COORD, (system,), expr.index
            )
        if isinstance(expr, Const):
            value = float(expr.value)
            return self._slot((Const, value.hex()), _CONST, arg=value)
        raise TypeError(f"unknown expression node: {expr!r}")

    def _rows(self, matrix) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map(self._compile, row)) for row in matrix)

    def run(self, sigma) -> dict:
        """The value of every root at `sigma`, or the `DegenerateInputError`
        that makes it undefined there. `sigma` must support `sigma[x, y]`
        lookups by node id."""
        vals = self._values[:]
        for slot, pair in self._covs:
            vals[slot] = float(sigma[pair])
        get = vals.__getitem__
        poisoned = False
        for code, out, ins, arg in self._ops:
            if poisoned:
                err = next(
                    (v for v in map(get, ins)
                     if isinstance(v, DegenerateInputError)),
                    None,
                )
                if err is not None:
                    vals[out] = err
                    continue
            if code == _PROD:
                vals[out] = prod(map(get, ins), start=1.0)
            elif code == _NEG:
                vals[out] = -vals[ins[0]]
            elif code == _SUM:
                vals[out] = sum(map(get, ins))
            elif code == _COORD:
                vals[out] = vals[ins[0]][arg]
            elif code == _QUOT:
                num, den = vals[ins[0]], vals[ins[1]]
                if abs(den) <= SINGULARITY_TOL * max(1.0, abs(num)):
                    vals[out] = DegenerateInputError(
                        "denominator vanishes at this covariance matrix"
                    )
                    poisoned = True
                else:
                    vals[out] = num / den
            elif code == _DET:
                vals[out] = float(np.linalg.det(_matrix(get, arg)))
            else:  # _SOLVE
                vals[out] = _solve(get, *arg)
                poisoned = poisoned or isinstance(
                    vals[out], DegenerateInputError
                )
        return {key: vals[slot] for key, slot in self.roots.items()}


def _matrix(get, rows) -> np.ndarray:
    return np.array([list(map(get, row)) for row in rows], dtype=float)


def _solve(get, rows, rhs):
    """The solution vector of a system (a list of floats), or the
    `DegenerateInputError` of an empty or near-singular one."""
    a = _matrix(get, rows)
    if a.size == 0:
        return DegenerateInputError("empty linear system")
    b = np.array(list(map(get, rhs)))
    scale = float(np.prod(np.linalg.norm(a, axis=1)))
    det = float(np.linalg.det(a))
    if abs(det) <= SINGULARITY_TOL * max(scale, 1e-300):
        return DegenerateInputError(
            "near-singular linear system at this covariance matrix"
        )
    return np.linalg.solve(a, b).tolist()


def eval_expr(
    expr: RationalExpr,
    sigma,
    fmap: Optional[FormulaMap] = None,
) -> float:
    """Numeric value of an expression at a covariance matrix.

    `sigma` must support `sigma[x, y]` lookups by node id. Coefficient
    handles are resolved through `fmap`. This compiles a plan for the one
    expression; `FormulaMap.plan` evaluates a whole map at once.
    """
    value = EvalPlan(
        {None: expr}, fmap.formulas if fmap is not None else {}
    ).run(sigma)[None]
    if isinstance(value, DegenerateInputError):
        raise value
    return value
