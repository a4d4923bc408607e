"""Independent brute-force oracles used to validate the fast
implementations, plus random-graph generators for property tests.

Everything here is deliberately naive: path enumeration instead of
reachability sweeps, exhaustive search instead of max-flow, explicit
trek sums instead of matrix algebra.
"""

from __future__ import annotations

import random
from itertools import permutations

import numpy as np

from latentid.graph import LatentFactorGraph


# -- half-trek reachability by path enumeration ----------------------------


def _simple_directed_paths(adj, start):
    """All nodes reachable from `start` by a directed path with at least
    one edge and no repeated vertices (explicit path enumeration)."""
    reached = set()

    def walk(node, visited):
        for nxt in adj.get(node, ()):
            if nxt in visited:
                continue
            reached.add(nxt)
            walk(nxt, visited | {nxt})

    walk(start, {start})
    return reached


def htr_bruteforce(g: LatentFactorGraph, sources, avoid_h=frozenset()):
    """Half-trek reachable set computed by enumerating the half-treks
    themselves: a directed path from the source, or a latent parent (not
    avoided) followed by a directed path from one of its children."""
    avoid_h = frozenset(avoid_h)
    adj: dict[str, set[str]] = {}
    for a, b in g.edges_obs:
        adj.setdefault(a, set()).add(b)
    out: set[str] = set()
    for s in sources:
        per_source: set[str] = set()
        per_source |= _simple_directed_paths(adj, s)
        for h, c in g.edges_lat:
            if c != s:
                continue
            if h in avoid_h:
                continue
            for h2, child in g.edges_lat:
                if h2 != h:
                    continue
                per_source.add(child)
                per_source |= _simple_directed_paths(adj, child)
        per_source.discard(s)
        out |= per_source
    return frozenset(out)


# -- node-disjoint path systems by exhaustive search -----------------------


def disjoint_paths_bruteforce(net):
    """Maximum number of arc- and node-capacity-respecting paths from the
    sources to the sinks of a FlowNetwork, found by exhaustive search.

    Only intended for small networks (<= ~20 flow nodes).
    """
    arcs = sorted(net.arcs)
    adj: dict = {}
    for u, w in arcs:
        adj.setdefault(u, []).append(w)

    all_paths = []

    def extend(path):
        tail = path[-1]
        if tail in net.sinks:
            all_paths.append(tuple(path))
            # A sink may also be an interior node of a longer path.
        for nxt in adj.get(tail, ()):
            if nxt in path:
                continue
            extend(path + [nxt])

    for s in net.sources:
        extend([s])

    best = 0

    def usable(path, node_use, arc_use):
        for n in path:
            if node_use.get(n, 0) + 1 > net.node_capacity.get(n, 0):
                return False
        for a, b in zip(path, path[1:]):
            if arc_use.get((a, b), 0) + 1 > net.arcs[(a, b)]:
                return False
        return True

    def search(i, count, node_use, arc_use):
        nonlocal best
        best = max(best, count)
        if count + (len(all_paths) - i) <= best:
            return
        for j in range(i, len(all_paths)):
            path = all_paths[j]
            if not usable(path, node_use, arc_use):
                continue
            for n in path:
                node_use[n] = node_use.get(n, 0) + 1
            for a in zip(path, path[1:]):
                arc_use[a] = arc_use.get(a, 0) + 1
            search(j + 1, count + 1, node_use, arc_use)
            for n in path:
                node_use[n] -= 1
            for a in zip(path, path[1:]):
                arc_use[a] -= 1

    search(0, 0, {}, {})
    return best


# -- trek-rule covariance on acyclic graphs --------------------------------


def trek_rule_covariance(params):
    """Covariance matrix of an acyclic model computed as explicit trek
    sums over the graph including the latent source nodes."""
    g = params.graph
    obs_idx = {n: i for i, n in enumerate(g.observed)}
    lat_idx = {n: i for i, n in enumerate(g.latent)}

    def coeff(a, b):
        if a in lat_idx:
            return params.gamma[lat_idx[a], obs_idx[b]]
        return params.lam[obs_idx[a], obs_idx[b]]

    adj: dict[str, list[str]] = {}
    for a, b in list(g.edges_obs) + list(g.edges_lat):
        adj.setdefault(a, []).append(b)

    def weighted_paths_to(top, target):
        """Sum over directed paths top -> ... -> target of the product of
        edge coefficients (1.0 for the empty path when top == target)."""
        if top == target:
            return 1.0
        total = 0.0
        for nxt in adj.get(top, ()):
            total += coeff(top, nxt) * weighted_paths_to(nxt, target)
        return total

    def top_variance(n):
        if n in lat_idx:
            return params.v_l[lat_idx[n]]
        return params.omega_diag[obs_idx[n]]

    d = len(g.observed)
    sigma = np.zeros((d, d))
    tops = list(g.observed) + list(g.latent)
    for i, x in enumerate(g.observed):
        for j, y in enumerate(g.observed):
            total = 0.0
            for top in tops:
                total += (
                    top_variance(top)
                    * weighted_paths_to(top, x)
                    * weighted_paths_to(top, y)
                )
            sigma[i, j] = total
    return sigma


# -- reachability by matrix powers -----------------------------------------


def reach_by_matrix_power(g: LatentFactorGraph, start):
    """Observed nodes reachable from `start` via >= 1 observed edge,
    computed through boolean powers of the adjacency matrix."""
    obs = list(g.observed)
    idx = {n: i for i, n in enumerate(obs)}
    n = len(obs)
    a = np.zeros((n, n), dtype=bool)
    for u, w in g.edges_obs:
        a[idx[u], idx[w]] = True
    reach = np.zeros((n, n), dtype=bool)
    power = a.copy()
    for _ in range(n):
        reach |= power
        power = power @ a
    return frozenset(obs[j] for j in range(n) if reach[idx[start], j])


# -- exhaustive isomorphism dedup ------------------------------------------


def count_classes_exhaustive(pattern, num_edges):
    """Number of acyclic edge-set classes under pattern-preserving
    permutations, found by generating every labeled DAG and deduping with
    pairwise isomorphism checks. Exponential; for small patterns only."""
    from itertools import combinations

    from latentid.enumeration import automorphisms

    n = pattern.num_observed
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    group = automorphisms(pattern)

    def acyclic(edges):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
        seen, done = set(), set()

        def dfs(u):
            seen.add(u)
            for w in adj.get(u, ()):
                if w in seen and w not in done:
                    return False
                if w not in seen and not dfs(w):
                    return False
            done.add(u)
            return True

        return all(dfs(u) for u in range(n) if u not in seen)

    reps: list[frozenset] = []
    for combo in combinations(pairs, num_edges):
        if not acyclic(combo):
            continue
        edge_set = frozenset(combo)
        if any(
            frozenset((p[a], p[b]) for a, b in edge_set) == rep
            for rep in reps
            for p in group
        ):
            continue
        reps.append(edge_set)
    return len(reps)


# -- random graph generators -----------------------------------------------


def random_latent_factor_graph(
    rng: random.Random,
    max_obs: int = 7,
    max_lat: int = 2,
    acyclic: bool = True,
    edge_prob: float = 0.35,
) -> LatentFactorGraph:
    """A random latent-factor graph for property tests; every latent node
    gets at least one observed child."""
    n = rng.randint(2, max_obs)
    ell = rng.randint(1, max_lat)
    observed = [str(i + 1) for i in range(n)]
    latent = [f"h{i + 1}" for i in range(ell)]
    order = observed[:]
    rng.shuffle(order)
    edges_obs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if acyclic and order.index(observed[i]) >= order.index(
                observed[j]
            ):
                continue
            if rng.random() < edge_prob:
                edges_obs.append((observed[i], observed[j]))
    edges_lat = []
    for h in latent:
        kids = [v for v in observed if rng.random() < 0.6]
        if not kids:
            kids = [rng.choice(observed)]
        edges_lat.extend((h, v) for v in kids)
    return LatentFactorGraph(observed, latent, edges_obs, edges_lat)
