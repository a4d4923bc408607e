"""Checks that the benchmark makes apart from the program under test.

Nothing here imports `latentid`: the reference tables are data, the
covariance synthesis and the expression evaluator are written from the
model's definition, and the graph generators build plain dicts in the
program's JSON graph format.
"""

from __future__ import annotations

import random

import numpy as np

# Symmetry-class totals and rationally identifiable counts per number of
# observed edges, for the paper's two six-node latent patterns (Fig. 5):
# fig5a has one factor over all six nodes, fig5b has factors over
# {1, 2, 3, 4} and {4, 5, 6}. Index = number of observed edges.
REFERENCE_TABLES = {
    "fig5a": {
        "total": (1, 1, 4, 13, 51, 163, 407, 796, 1169, 1291),
        "rational": (1, 1, 4, 13, 51, 159, 398, 747, 956, 631),
    },
    "fig5b": {
        "total": (1, 8, 63, 391, 1983, 7570, 21029),
        "rational": (1, 6, 45, 255, 1171, 3898, 8960),
    },
}

# A recovered coefficient passes when |estimate - truth| is at most
# RECOVERY_TOL * max(1, |truth|).
RECOVERY_TOL = 1e-6

# Parameter ranges of the benchmark's own draws: coefficients are
# +/- [0.3, 1.0], error and factor variances are [0.5, 1.5].
COEFF_RANGE = (0.3, 1.0)
VAR_RANGE = (0.5, 1.5)

# A draw is redrawn when a quotient or linear system it meets is this
# close to singular (relative to the size of its entries).
NEAR_SINGULAR = 1e-9
MAX_REDRAWS = 8


class NearSingular(ArithmeticError):
    """An evaluated denominator or system is numerically singular."""


# -- model parameters and covariance ---------------------------------------


def draw_parameters(graph: dict, rng: np.random.Generator) -> dict:
    """Random (Lambda, Gamma, Omega, V_L) with the graph's support.

    `graph` is a dict with keys observed, latent, edges_obs, edges_lat.
    Coefficients are keyed by (tail, head)."""

    def coeff() -> float:
        mag = rng.uniform(*COEFF_RANGE)
        return float(mag if rng.random() < 0.5 else -mag)

    while True:
        lam = {tuple(e): coeff() for e in graph["edges_obs"]}
        if _i_minus_lambda_ok(graph, lam):
            break
    gamma = {tuple(e): coeff() for e in graph["edges_lat"]}
    omega = {v: float(rng.uniform(*VAR_RANGE)) for v in graph["observed"]}
    v_lat = {h: float(rng.uniform(*VAR_RANGE)) for h in graph["latent"]}
    return {"lam": lam, "gamma": gamma, "omega": omega, "v_lat": v_lat}


def _i_minus_lambda_ok(graph: dict, lam: dict) -> bool:
    obs = list(graph["observed"])
    idx = {v: i for i, v in enumerate(obs)}
    m = np.eye(len(obs))
    for (a, b), c in lam.items():
        m[idx[a], idx[b]] -= c
    return abs(np.linalg.det(m)) > NEAR_SINGULAR


def synthesize_covariance(graph: dict, params: dict) -> dict:
    """Sigma = (I - Lambda)^{-T} (Omega + Gamma^T V_L Gamma) (I - Lambda)^{-1},
    returned as {(x, y): value} over every ordered pair of observed nodes."""
    obs = list(graph["observed"])
    lat = list(graph["latent"])
    oi = {v: i for i, v in enumerate(obs)}
    li = {h: i for i, h in enumerate(lat)}
    d, ell = len(obs), len(lat)
    lam = np.zeros((d, d))
    for (a, b), c in params["lam"].items():
        lam[oi[a], oi[b]] = c
    gamma = np.zeros((ell, d))
    for (h, b), c in params["gamma"].items():
        gamma[li[h], oi[b]] = c
    noise = np.diag([params["omega"][v] for v in obs])
    noise += gamma.T @ np.diag([params["v_lat"][h] for h in lat]) @ gamma
    inv = np.linalg.inv(np.eye(d) - lam)
    sigma = inv.T @ noise @ inv
    return {(x, y): float(sigma[oi[x], oi[y]]) for x in obs for y in obs}


# -- evaluation of the program's expression trees --------------------------


class FormulaEvaluator:
    """Numeric value of `latentid formula` expression trees (the
    `expression` field of its JSON output) at one covariance matrix.

    `formulas` maps (tail, head) to the tree of that edge; `coeff` nodes
    are resolved through it, so a formula that leans on another edge's
    formula is checked together with it."""

    def __init__(self, formulas: dict, sigma: dict):
        self.formulas = formulas
        self.sigma = sigma
        self._coeff: dict = {}

    def edge(self, edge: tuple) -> float:
        if edge not in self._coeff:
            self._coeff[edge] = self.value(self.formulas[edge])
        return self._coeff[edge]

    def value(self, node: dict) -> float:
        op = node["op"]
        if op == "cov":
            return self.sigma[(node["x"], node["y"])]
        if op == "const":
            return float(node["value"])
        if op == "coeff":
            return self.edge(tuple(node["edge"]))
        if op == "sum":
            return sum(self.value(t) for t in node["terms"])
        if op == "prod":
            out = 1.0
            for f in node["factors"]:
                out *= self.value(f)
            return out
        if op == "neg":
            return -self.value(node["term"])
        if op == "quot":
            num = self.value(node["num"])
            den = self.value(node["den"])
            if abs(den) <= NEAR_SINGULAR * max(1.0, abs(num)):
                raise NearSingular("vanishing denominator")
            return num / den
        if op == "det":
            return float(np.linalg.det(self.matrix(node["matrix"])))
        if op == "solve-coord":
            a = self.matrix(node["matrix"])
            b = np.array([self.value(t) for t in node["rhs"]])
            scale = float(np.prod(np.linalg.norm(a, axis=1)))
            if abs(np.linalg.det(a)) <= NEAR_SINGULAR * max(scale, 1e-300):
                raise NearSingular("singular linear system")
            return float(np.linalg.solve(a, b)[node["index"]])
        raise ValueError(f"unknown expression node {op!r}")

    def matrix(self, rows: list) -> np.ndarray:
        return np.array([[self.value(e) for e in row] for row in rows])


def recovery_errors(graph: dict, formulas: dict, rng: np.random.Generator):
    """Draw parameters, synthesize the covariance, evaluate every formula
    and return [(edge, estimate, truth)] for the edges that miss the
    drawn coefficient. Redraws a parameter point that lands numerically
    on a singular formula."""
    for _ in range(MAX_REDRAWS):
        params = draw_parameters(graph, rng)
        ev = FormulaEvaluator(formulas, synthesize_covariance(graph, params))
        try:
            values = {e: ev.edge(e) for e in formulas}
        except NearSingular:
            continue
        return [
            (e, est, params["lam"][e])
            for e, est in sorted(values.items())
            if abs(est - params["lam"][e])
            > RECOVERY_TOL * max(1.0, abs(params["lam"][e]))
        ]
    raise NearSingular(f"{MAX_REDRAWS} draws in a row were near-singular")


# -- seeded graph generators -----------------------------------------------


def random_graph(
    rng: random.Random,
    num_observed: int,
    num_edges: int,
    latent_children: list,
    acyclic: bool = True,
) -> dict:
    """Graph with observed nodes "1".."n", `num_edges` distinct observed
    edges (forward along a random order when acyclic, any ordered pair
    otherwise) and latent h<i> pointing at latent_children[i]."""
    obs = [str(i + 1) for i in range(num_observed)]
    order = obs[:]
    rng.shuffle(order)
    if acyclic:
        pairs = [
            (order[i], order[j])
            for i in range(num_observed)
            for j in range(i + 1, num_observed)
        ]
    else:
        pairs = [(a, b) for a in obs for b in obs if a != b]
    edges = sorted(rng.sample(pairs, num_edges))
    latent = [f"h{i + 1}" for i in range(len(latent_children))]
    return {
        "observed": obs,
        "latent": latent,
        "edges_obs": [list(e) for e in edges],
        "edges_lat": [
            [h, v] for h, kids in zip(latent, latent_children) for v in kids
        ],
    }


def shuffle_listing(graph: dict, rng: random.Random) -> dict:
    """The same graph with its nodes and edges listed in a random order."""
    out = {}
    for key in ("observed", "latent", "edges_obs", "edges_lat"):
        items = list(graph[key])
        rng.shuffle(items)
        out[key] = items
    return out
