"""Exact ranks of covariance minors at one parameter point mod a prime.

By trek separation the flow value from S to the primed copies of T in
the determinantal network (`flow.FlowFrame`) is the generic rank of
Σ[S, T]. A minor evaluated at
one parameter point is nonzero only if it is not identically zero, so a
nonzero k×k minor proves that the flow reaches k; a vanishing one proves
nothing. The parameters are integers from a fixed seed and all arithmetic
is exact mod the prime P, so the answers are deterministic.
`vanishing_minors` lists, for one row set, the column sets whose minor
vanishes: only their flows can fall short of the row count.

At the same point `identifiable_parents` tells which edge coefficients
are locally identifiable, from the column matroid of the Jacobian of the
parametrization; `rref` is the modular elimination behind it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence

from .graph import CompiledGraph, bits

P = 2**31 - 1
_SEED = 2010


@dataclass(frozen=True, eq=False)
class Point:
    """Parameters mod P in a `CompiledGraph` numbering: `lam[a][b]` is
    the coefficient of the edge a -> b, `gamma[j][i]` that of latent j ->
    node i, `omega` the error variances and `v_lat` the latent variances.
    Entries off the graph's edges are ignored. Points compare and hash by
    identity."""

    lam: list[list[int]]
    gamma: list[list[int]]
    omega: list[int]
    v_lat: list[int]


@lru_cache(maxsize=64)
def draw_point(n: int, m: int) -> Point:
    """The fixed point for `n` observed and `m` latent nodes, drawn from a
    fixed seed. Every ordered pair gets a coefficient, so that a graph and
    its edge-deleted subgraphs give their common edges the same values.
    One point per (n, m) is kept and shared: callers must not change it."""
    rng = random.Random(_SEED)

    def draw(count: int) -> list[int]:
        return [rng.getrandbits(30) + 1 for _ in range(count)]

    lam = [draw(n) for _ in range(n)]
    gamma = [draw(n) for _ in range(m)]
    return Point(lam, gamma, draw(n), draw(m))


@dataclass(frozen=True)
class Covariance:
    """Σ = Aᵀ(diag ω + ΓᵀVΓ)A mod P with A = (I − Λ)⁻¹, at `point`."""

    point: Point
    sigma: list[list[int]]

    def barred_column(self, v: int, removed: int) -> list[int]:
        """Σ[:, v] − Σ_w λ_wv Σ[:, w] over the nodes w of the mask
        `removed`: the covariances with v in the graph whose edges w -> v
        are deleted on the right-hand side of every trek only."""
        lam, sigma = self.point.lam, self.sigma
        col = [row[v] for row in sigma]
        for w in bits(removed):
            f = lam[w][v]
            col = [(c - f * row[w]) % P for c, row in zip(col, sigma)]
        return col


def covariance(
    view: CompiledGraph, point: Optional[Point] = None
) -> Optional[Covariance]:
    """Σ of the graph `view` at `point` (by default `draw_point`), or None
    when I − Λ is singular mod P."""
    n = len(view.names)
    if point is None:
        point = draw_point(n, len(view.latent))
    a = _path_sums(view, point.lam)
    if a is None:
        return None
    # Σ sums, over the trek tops, the top's variance times the path sums
    # from the top to both ends: row x of A for node x, and for latent j
    # the sums through its children.
    tops = list(a)
    for j, kids in enumerate(view.lat_ch):
        row = [0] * n
        for i in bits(kids):
            f = point.gamma[j][i]
            row = [(x + f * y) % P for x, y in zip(row, a[i])]
        tops.append(row)
    cols = list(zip(*tops))
    weights = point.omega + point.v_lat
    weighted = [[w * x % P for w, x in zip(weights, col)] for col in cols]
    sigma = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sigma[i][j] = sigma[j][i] = sum(map(mul, weighted[i], cols[j])) % P
    return Covariance(point, sigma)


def _path_sums(
    view: CompiledGraph, lam: list[list[int]]
) -> Optional[list[list[int]]]:
    """A = (I − Λ)⁻¹ mod P, whose row x holds the path sums from x, or
    None when I − Λ is singular mod P. On an acyclic graph each row comes
    from its children's, A[x] = e_x + Σ_c λ_xc A[c]; a cycle needs
    Gauss–Jordan elimination."""
    n, ch = len(view.names), view.ch
    order = _dependency_order(view, ch)
    if order is None:
        return _inverse(view, lam)
    rows: list[list[int]] = [[]] * n
    for x in order:
        row = [0] * n
        row[x] = 1
        for c in bits(ch[x]):
            f = lam[x][c]
            row = [(u + f * w) % P for u, w in zip(row, rows[c])]
        rows[x] = row
    return rows


def _dependency_order(
    view: CompiledGraph, deps: tuple[int, ...]
) -> Optional[list[int]]:
    """The nodes of `view`, each after the nodes of its mask `deps[x]`,
    or None when the masks have a cycle."""
    order: list[int] = []
    done = 0
    while done != view.all:
        ready = [x for x in bits(view.all & ~done) if not deps[x] & ~done]
        if not ready:
            return None
        order += ready
        for x in ready:
            done |= 1 << x
    return order


def _inverse(
    view: CompiledGraph, lam: list[list[int]]
) -> Optional[list[list[int]]]:
    """(I − Λ)⁻¹ mod P by Gauss–Jordan elimination, or None."""
    n = len(view.names)
    rows = [[int(i == j) for j in range(n)] * 2 for i in range(n)]
    for b, parents in enumerate(view.pa):
        for a in bits(parents):
            rows[a][b] = -lam[a][b] % P
    rows, pivots = rref(rows)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def rref(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of `matrix` mod P, without its zero
    rows, and its pivot columns, one per row."""
    rows = [row[:] for row in matrix]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        piv = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, P)
        # The pivot row is zero before column c, so the row operations
        # start there.
        pivot = [x * inv % P for x in rows[r][c:]]
        rows[r][c:] = pivot
        for k, row in enumerate(rows):
            f = row[c]
            if f and k != r:
                row[c:] = [(x - f * y) % P for x, y in zip(row[c:], pivot)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def identifiable_parents(
    view: CompiledGraph, point: Optional[Point] = None
) -> Optional[list[int]]:
    """For each node b of the graph `view`, the mask of its parents a
    whose edge coefficient λ_ab is locally identifiable at `point` (by
    default `draw_point`), or None when I − Λ is singular mod P.

    λ_ab is locally identifiable when its column is a coloop of the
    Jacobian of (Λ, Γ, Ω) ↦ Σ: no combination of the other columns gives
    it. The Jacobian is taken in the coordinates M = (I − Λ)ᵀΣ(I − Λ),
    an invertible linear change of Σ at the point, in which M = Ω + ΓᵀVΓ:
    an ω column is a unit vector on the diagonal, so the ω columns and the
    diagonal rows drop out. On the pair {b, y}, y ≠ b, the column of
    a -> b is K[a, y] with K = Σ(I − Λ), and that of the loading j -> b is
    γ_jy (times V_j, which does not change the column's span). K solves
    (I − Λ)ᵀK = M. The loading columns drop out too, by passing to the
    quotient by their span (`_loading_quotient`), which keeps the coloops
    among the edge columns. A column is a coloop when it is a pivot of
    the reduced row echelon form whose row is zero at every other
    column."""
    n = len(view.names)
    if point is None:
        point = draw_point(n, len(view.latent))
    lam = point.lam
    # M = Ω + ΓᵀVΓ.
    m = [[0] * n for _ in range(n)]
    for a, row in enumerate(m):
        row[a] = point.omega[a]
    for v, load in zip(point.v_lat, _loadings(view.lat_ch, point)):
        for a, f in enumerate(load):
            if f:
                f = f * v
                m[a] = [(x + f * y) % P for x, y in zip(m[a], load)]
    k = _transposed_solve(view, lam, m)
    if k is None:
        return None
    # In the quotient edge a -> b's column has entry Σ_y q[b][y]K[a, y]
    # for each form q.
    edges = [(a, b) for b in range(n) for a in bits(view.pa[b])]
    rows = [
        [sum(map(mul, q[b], k[a])) % P for a, b in edges]
        for q in _loading_quotient(n, view.lat_ch, point)
    ]
    rows, pivots = rref(rows)
    out = [0] * n
    for row, c in zip(rows, pivots):
        if not any(row[c + 1 :]):
            a, b = edges[c]
            out[b] |= 1 << a
    return out


def _transposed_solve(
    view: CompiledGraph, lam: list[list[int]], m: list[list[int]]
) -> Optional[list[list[int]]]:
    """K solving (I − Λ)ᵀK = `m` mod P, or None when I − Λ is singular
    mod P. On an acyclic graph each row comes from its parents',
    K[a] = M[a] + Σ_c λ_ca K[c], as `_path_sums` goes children first; a
    cycle needs the elimination of [(I − Λ)ᵀ | M]."""
    n, pa = len(view.names), view.pa
    order = _dependency_order(view, pa)
    if order is None:
        system = [[int(a == c) for c in range(n)] + m[a] for a in range(n)]
        for a, row in enumerate(system):
            for c in bits(pa[a]):
                row[c] = -lam[c][a] % P
        system, pivots = rref(system)
        if pivots[:n] != list(range(n)):
            return None
        return [row[n:] for row in system]
    rows: list[list[int]] = [[]] * n
    for a in order:
        row = m[a]
        for c in bits(pa[a]):
            f = lam[c][a]
            row = [(u + f * w) % P for u, w in zip(row, rows[c])]
        rows[a] = row
    return rows


def _loadings(lat_ch: tuple[int, ...], point: Point) -> list[list[int]]:
    """Each latent node's loadings γ_j at `point`, zero off its children
    `lat_ch[j]`."""
    return [
        [f if kids >> i & 1 else 0 for i, f in enumerate(gamma)]
        for gamma, kids in zip(point.gamma, lat_ch)
    ]


@lru_cache(maxsize=256)
def _loading_quotient(
    n: int, lat_ch: tuple[int, ...], point: Point
) -> list[list[list[int]]]:
    """A basis of the linear forms on the pairs {x, y}, x ≠ y, of `n`
    nodes that vanish on every loading column (`identifiable_parents`) of
    the latent nodes with children `lat_ch` at `point`, each form q as a
    symmetric matrix q[x][y] with a zero diagonal. Every graph of one
    latent pattern has the same forms."""
    pairs = [(x, y) for y in range(n) for x in range(y)]
    columns = [
        [load[y] if x == b else load[x] if y == b else 0 for x, y in pairs]
        for load, kids in zip(_loadings(lat_ch, point), lat_ch)
        for b in bits(kids)
    ]
    reduced, pivots = rref(columns)
    forms = []
    # One form per free pair: 1 there, and minus the free pair's entry of
    # each reduced row at that row's pivot pair.
    for f, (x, y) in enumerate(pairs):
        if f in pivots:
            continue
        form = [[0] * n for _ in range(n)]
        form[x][y] = form[y][x] = 1
        for row, c in zip(reduced, pivots):
            u, w = pairs[c]
            form[u][w] = form[w][u] = -row[f] % P
        forms.append(form)
    return forms


def vanishing_minors(
    sigma: list[list[int]],
    column: list[int],
    rows: Sequence[int],
    candidates: Sequence[int],
) -> Iterable[tuple[int, ...]]:
    """The (k − 1)-subsets T of `candidates`, k = len(rows), in
    lexicographic order, whose minor of `sigma` on the rows `rows` and the
    columns T with `column` appended vanishes mod P.

    The rows are reduced by the appended column once: with a pivot row p
    where the column is b_p ≠ 0, each other row s becomes
    b_p·Σ[s] − b_s·Σ[p], which clears the column but at p and scales the
    minor by a power of b_p. What is left is ± b_p times the
    (k − 1)×(k − 1) minor of the reduced rows on T, so a T survives
    exactly when that minor vanishes (`_vanishing_sets`)."""
    k = len(rows)
    for p in rows:
        b_p = column[p]
        if b_p:
            break
    else:
        # A zero column: every minor vanishes.
        return combinations(candidates, k - 1)
    if k == 1:
        return ()
    top = sigma[p]
    reduced = [
        [(b_p * row[t] - b * top[t]) % P for t in candidates]
        for row, b in [(sigma[s], column[s]) for s in rows if s != p]
    ]
    out: list[tuple[int, ...]] = []
    _vanishing_sets((), candidates, reduced, out)
    return out


def _vanishing_sets(
    prefix: tuple[int, ...],
    candidates: Sequence[int],
    rows: list[list[int]],
    out: list[tuple[int, ...]],
) -> None:
    """Append to `out`, in lexicographic order, `prefix` followed by each
    r-subset of `candidates`, r = len(rows), whose r×r minor of `rows`
    (one entry per candidate) vanishes mod P.

    Up to r = 3 each minor is a determinant written out. Above, the
    subsets are searched by their first member c: the same row reduction
    as in `vanishing_minors`, with c's column as the pivot column, leaves
    r − 1 rows on the members after c. A column that is zero in every
    row makes every subset that holds it vanish, with no more
    arithmetic."""
    r = len(rows)
    if r == 1:
        (xs,) = rows
        out.extend(prefix + (t,) for t, x in zip(candidates, xs) if not x)
        return
    if r == 2:
        xs, ys = rows
        m = len(candidates)
        out.extend(
            prefix + (candidates[i], candidates[j])
            for i in range(m - 1)
            for j in range(i + 1, m)
            if (xs[i] * ys[j] - ys[i] * xs[j]) % P == 0
        )
        return
    if r == 3:
        xs, ys, zs = rows
        out.extend(
            prefix + (candidates[i], candidates[j], candidates[h])
            for i, j, h in combinations(range(len(candidates)), 3)
            if (
                xs[i] * (ys[j] * zs[h] - zs[j] * ys[h])
                - xs[j] * (ys[i] * zs[h] - zs[i] * ys[h])
                + xs[h] * (ys[i] * zs[j] - zs[i] * ys[j])
            )
            % P
            == 0
        )
        return
    for j in range(len(candidates) - r + 1):
        here = prefix + (candidates[j],)
        rest = candidates[j + 1 :]
        for p, pivot in enumerate(rows):
            a = pivot[j]
            if a:
                break
        else:
            out.extend(here + more for more in combinations(rest, r - 1))
            continue
        top = pivot[j + 1 :]
        reduced = [
            [(a * x - row[j] * y) % P for x, y in zip(row[j + 1 :], top)]
            for i, row in enumerate(rows)
            if i != p
        ]
        _vanishing_sets(here, rest, reduced, out)
