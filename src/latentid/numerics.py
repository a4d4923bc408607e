"""Numeric oracle: random model parameters, implied covariance matrices,
effect estimation, and round-trip verification of derived formulas."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import IdentificationState
from .formulas import (
    DegenerateInputError,
    FormulaMap,
    formula_map_from_state,
)
from .graph import Edge, LatentFactorGraph

_NEAR_SINGULAR = 1e-9
_MAX_RESAMPLE = 100


class SamplingError(RuntimeError):
    """Could not draw non-singular parameters within the retry budget."""


@dataclass(frozen=True)
class SamplingSpec:
    """Ranges for random parameter draws; coefficients are drawn from
    +/- [coeff_low, coeff_high] to stay bounded away from zero."""

    coeff_low: float = 0.3
    coeff_high: float = 1.0
    var_low: float = 0.5
    var_high: float = 1.5


@dataclass
class ModelParameters:
    """(Lambda, Gamma, Omega_diag, V_L) with supports matching the graph."""

    graph: LatentFactorGraph
    lam: np.ndarray
    gamma: np.ndarray
    omega_diag: np.ndarray
    v_l: np.ndarray

    def coefficient(self, edge: Edge) -> float:
        i = self.graph.observed.index(edge[0])
        j = self.graph.observed.index(edge[1])
        return float(self.lam[i, j])


class CovarianceMatrix:
    """Symmetric positive-definite matrix indexed by observed node ids.
    Node names are distinct and every entry is finite (`ValueError`)."""

    def __init__(self, nodes, values: np.ndarray):
        self.nodes = tuple(nodes)
        if len(set(self.nodes)) < len(self.nodes):
            dup = next(n for i, n in enumerate(self.nodes)
                       if n in self.nodes[:i])
            raise ValueError(f"duplicate covariance node name {dup!r}")
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.nodes), len(self.nodes)):
            raise ValueError("covariance shape does not match node list")
        finite = np.isfinite(values)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(
                f"covariance entry at row {i + 1}, column {j + 1} is not "
                f"finite ({values[i, j]})"
            )
        # `np.allclose(values, values.T, atol=1e-12)`, whose inf and NaN
        # handling finite entries do not need.
        if not (abs(values - values.T) <= 1e-12 + 1e-5 * abs(values.T)).all():
            raise ValueError("covariance matrix is not symmetric")
        self.values = (values + values.T) / 2.0
        self._index = {n: i for i, n in enumerate(self.nodes)}

    def __getitem__(self, key) -> float:
        x, y = key
        return float(self.values[self._index[x], self._index[y]])

    def check_positive_definite(self) -> None:
        np.linalg.cholesky(self.values)


def sample_parameters(
    g: LatentFactorGraph,
    seed,
    spec: SamplingSpec = SamplingSpec(),
) -> ModelParameters:
    """Random parameters with exact structural zeros; redraws when
    I - Lambda comes out near-singular."""
    rng = np.random.default_rng(seed)
    d = len(g.observed)
    ell = len(g.latent)
    obs_idx = {n: i for i, n in enumerate(g.observed)}
    lat_idx = {n: i for i, n in enumerate(g.latent)}

    def draw_coeff() -> float:
        mag = rng.uniform(spec.coeff_low, spec.coeff_high)
        return mag if rng.random() < 0.5 else -mag

    for _ in range(_MAX_RESAMPLE):
        lam = np.zeros((d, d))
        for a, b in sorted(g.edges_obs):
            lam[obs_idx[a], obs_idx[b]] = draw_coeff()
        if abs(np.linalg.det(np.eye(d) - lam)) > _NEAR_SINGULAR:
            break
    else:
        raise SamplingError("I - Lambda kept coming out near-singular")

    gamma = np.zeros((ell, d))
    for a, b in sorted(g.edges_lat):
        gamma[lat_idx[a], obs_idx[b]] = draw_coeff()
    omega_diag = rng.uniform(spec.var_low, spec.var_high, size=d)
    v_l = rng.uniform(spec.var_low, spec.var_high, size=ell)
    return ModelParameters(g, lam, gamma, omega_diag, v_l)


def covariance(params: ModelParameters) -> CovarianceMatrix:
    """Implied covariance (I-Lambda)^-T (Omega + Gamma^T V_L Gamma) (I-Lambda)^-1."""
    d = len(params.graph.observed)
    i_minus = np.eye(d) - params.lam
    if abs(np.linalg.det(i_minus)) <= _NEAR_SINGULAR:
        raise ValueError("I - Lambda is singular for these parameters")
    omega = np.diag(params.omega_diag) + params.gamma.T @ np.diag(
        params.v_l
    ) @ params.gamma
    inv = np.linalg.inv(i_minus)
    sigma = inv.T @ omega @ inv
    return CovarianceMatrix(params.graph.observed, (sigma + sigma.T) / 2.0)


@dataclass
class EdgeEstimate:
    value: Optional[float]
    degenerate: bool = False


def estimate(
    g: LatentFactorGraph, sigma: CovarianceMatrix, fmap: FormulaMap
) -> dict[Edge, EdgeEstimate]:
    """Evaluate every available formula at the given covariance matrix,
    through the map's compiled plan. An edge whose formula depends on a
    value that is degenerate at `sigma` is flagged; the others keep theirs."""
    out: dict[Edge, EdgeEstimate] = {}
    for edge, value in sorted(fmap.plan().run(sigma).items()):
        if isinstance(value, DegenerateInputError):
            out[edge] = EdgeEstimate(None, degenerate=True)
        else:
            out[edge] = EdgeEstimate(value)
    return out


@dataclass
class VerificationReport:
    trials: int
    tol: float
    max_rel_error: float
    failures: list[tuple[int, Edge, float]]
    degenerate_trials: int
    unverified_edges: list[Edge]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "tol": self.tol,
            "max_rel_error": self.max_rel_error,
            "failures": [
                {"trial": t, "edge": list(e), "rel_error": r}
                for t, e, r in self.failures
            ],
            "degenerate_trials": self.degenerate_trials,
            "unverified_edges": [list(e) for e in self.unverified_edges],
        }


def verify_identification(
    g: LatentFactorGraph,
    state: IdentificationState,
    trials: int = 100,
    tol: float = 1e-8,
    seed: int = 0,
    spec: SamplingSpec = SamplingSpec(),
    fmap: Optional[FormulaMap] = None,
) -> VerificationReport:
    """Sample parameters, synthesize the covariance, re-estimate each
    solved coefficient from it, and compare against the truth. A `tol`
    that is negative or not finite is a ValueError: NaN would pass every
    trial and a negative one fail every trial."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if fmap is None:
        fmap = formula_map_from_state(g, state)
    unverified = sorted(g.edges_obs - set(fmap.formulas))
    root = np.random.SeedSequence(seed)
    trial_seeds = root.spawn(trials)
    max_err = 0.0
    failures: list[tuple[int, Edge, float]] = []
    degenerate = 0
    for i in range(trials):
        params = sample_parameters(g, trial_seeds[i], spec)
        sigma = covariance(params)
        results = estimate(g, sigma, fmap)
        trial_degenerate = False
        for edge, res in results.items():
            if res.degenerate:
                trial_degenerate = True
                continue
            truth = params.coefficient(edge)
            err = abs(res.value - truth) / max(abs(truth), 1e-12)
            max_err = max(max_err, err)
            if err > tol:
                failures.append((i, edge, err))
        if trial_degenerate:
            degenerate += 1
    return VerificationReport(
        trials=trials,
        tol=tol,
        max_rel_error=max_err,
        failures=failures,
        degenerate_trials=degenerate,
        unverified_edges=unverified,
    )


# The characters `str.splitlines` breaks a line at.
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# A header field: a name in double quotes, read verbatim with "" for a
# quote, or anything up to the next comma or line break, stripped.
_FIELD = re.compile(rf'[ \t]*"((?:[^"]|"")*)"[ \t]*|([^,{_BREAKS}]*)')


def _csv_name(name: str) -> str:
    """`name` as a header field: quoted when it holds a comma, a quote or
    a line break or has surrounding whitespace, as is otherwise."""
    if (
        "," in name
        or '"' in name
        or name != name.strip()
        or any(c in _BREAKS for c in name)
    ):
        return '"' + name.replace('"', '""') + '"'
    return name


def covariance_to_csv(sigma: CovarianceMatrix) -> str:
    lines = [",".join(map(_csv_name, sigma.nodes))]
    for row in sigma.values:
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines)


def covariance_from_csv(text: str) -> CovarianceMatrix:
    text = text.lstrip()
    if not text:
        raise ValueError("the covariance CSV is empty")
    nodes = []
    pos = 0
    while True:
        match = _FIELD.match(text, pos)
        quoted, plain = match.groups()
        nodes.append(
            plain.strip() if quoted is None else quoted.replace('""', '"')
        )
        pos = match.end()
        if not text.startswith(",", pos):
            break
        pos += 1
    if text[pos:pos + 1] not in ("", *_BREAKS):
        raise ValueError(f"unexpected text after header field {len(nodes)}")
    lines = [ln for ln in text[pos:].splitlines() if ln.strip()]
    rows = [[float(x) for x in ln.split(",")] for ln in lines]
    return CovarianceMatrix(nodes, np.array(rows))
