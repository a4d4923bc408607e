"""Exact ranks of covariance minors at one parameter point mod a prime.

By trek separation the flow value from S to the primed copies of T in
the determinantal network (`flow.FlowFrame`) is the generic rank of
Σ[S, T]. A minor evaluated at
one parameter point is nonzero only if it is not identically zero, so a
nonzero k×k minor proves that the flow reaches k; a vanishing one proves
nothing. The parameters are integers from a fixed seed and all arithmetic
is exact mod the prime P, so the answers are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .graph import CompiledGraph, bits

P = 2**31 - 1
_SEED = 2010


@dataclass(frozen=True)
class Point:
    """Parameters mod P in a `CompiledGraph` numbering: `lam[a][b]` is
    the coefficient of the edge a -> b, `gamma[j][i]` that of latent j ->
    node i, `omega` the error variances and `v_lat` the latent variances.
    Entries off the graph's edges are ignored."""

    lam: list[list[int]]
    gamma: list[list[int]]
    omega: list[int]
    v_lat: list[int]


def draw_point(n: int, m: int) -> Point:
    """The fixed point for `n` observed and `m` latent nodes, drawn from a
    fixed seed. Every ordered pair gets a coefficient, so that a graph and
    its edge-deleted subgraphs give their common edges the same values."""
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
    rows: list[list[int]] = [[]] * n
    done = 0
    while done != view.all:
        ready = [x for x in bits(view.all & ~done) if not ch[x] & ~done]
        if not ready:
            return _inverse(view, lam)
        for x in ready:
            row = [0] * n
            row[x] = 1
            for c in bits(ch[x]):
                f = lam[x][c]
                row = [(u + f * w) % P for u, w in zip(row, rows[c])]
            rows[x] = row
            done |= 1 << x
    return rows


def _inverse(
    view: CompiledGraph, lam: list[list[int]]
) -> Optional[list[list[int]]]:
    """(I − Λ)⁻¹ mod P by Gauss–Jordan elimination, or None."""
    n = len(view.names)
    rows = [[int(i == j) for j in range(n)] * 2 for i in range(n)]
    for b, parents in enumerate(view.pa):
        for a in bits(parents):
            rows[a][b] = -lam[a][b] % P
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, P)
        pivot = rows[c] = [x * inv % P for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % P for x, y in zip(rows[r], pivot)]
    return [row[n:] for row in rows]


def nonsingular(matrix: list[list[int]]) -> bool:
    """Whether the square `matrix` is nonsingular mod P: elimination that
    cross-multiplies by the pivot instead of dividing by it, down to a
    3×3 determinant written out."""
    while len(matrix) > 3:
        piv = next((r for r in matrix if r[0]), None)
        if piv is None:
            return False
        p0 = piv[0]
        matrix = [
            [(p0 * x - r[0] * y) % P for x, y in zip(r[1:], piv[1:])]
            for r in matrix
            if r is not piv
        ]
    k = len(matrix)
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    elif k == 2:
        (a, b), (c, d) = matrix
        det = a * d - b * c
    else:
        det = matrix[0][0] if matrix else 1
    return det % P != 0
