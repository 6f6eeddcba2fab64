"""Runtime regression, variable-incidence-graph community structure,
metric correlation, and classical/quantum/sieve cost extrapolation.

The default cost-model constants describe expected classical solver work as
2^(16.8 + 0.495 n) operations at 10^10 operations per second; a hypothetical
quadratic speedup halves the exponent, and a deliberately generous
10^40 quantum operations per second prices the result in wall time and in
lifetimes of the universe.  The sieve comparison curve is
L_N[1/3, (64/9)^(1/3)] with the o(1) term dropped.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cnf import Formula

log = logging.getLogger(__name__)

DEFAULT_CLASSICAL_SLOPE = 0.495
DEFAULT_CLASSICAL_LOG2_INTERCEPT = 16.8
DEFAULT_CLASSICAL_RATE = 1e10  # ops/s: four ports, fully occupied, 2.5 GHz
DEFAULT_QUANTUM_RATE = 1e40  # ops/s: generous beyond any physical roadmap
UNIVERSE_LIFETIME_S = 4.35e17  # ~13.8 billion years
NFS_CONSTANT = (64 / 9) ** (1 / 3)

# Band in which community structure was conjectured to predict hardness;
# reported for comparison only.
HARDNESS_Q_BAND = (0.05, 0.12)


@dataclass(frozen=True)
class FitResult:
    """log2(seconds) = slope * n + intercept, with ordinary-least-squares r^2."""

    slope: float
    intercept: float
    r2: float


def fit_exponential(points: list[tuple[int, float]]) -> FitResult:
    """OLS fit of log2(time) against bitlength.

    Constant inputs get r^2 = 0 (zero explained variance convention).
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    for _, t in points:
        if t <= 0:
            raise ValueError(f"non-positive time {t}")
    x = np.array([float(n) for n, _ in points])
    y = np.log2([t for _, t in points])
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return FitResult(float(slope), float(intercept), r2)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..num_vertices."""

    num_vertices: int
    edges: frozenset[tuple[int, int]]


def build_vig(formula: Formula) -> Graph:
    """Variable incidence graph: a vertex per variable, an edge between
    variables that share a clause (clique expansion, deduplicated)."""
    edges = set()
    for clause in formula.clauses:
        variables = sorted({abs(lit) for lit in clause})
        for i, u in enumerate(variables):
            for v in variables[i + 1:]:
                edges.add((u, v))
    return Graph(formula.num_vars, frozenset(edges))


def modularity(graph: Graph, partition: dict[int, int]) -> float:
    """Q = sum over communities of e_c/m - (d_c/2m)^2."""
    if not graph.edges:
        raise ValueError("modularity undefined on an empty edge set")
    for v in range(1, graph.num_vertices + 1):
        if v not in partition:
            raise ValueError(f"partition does not cover vertex {v}")
    m = len(graph.edges)
    intra: dict[int, int] = {}
    degree_total: dict[int, int] = {}
    for u, v in graph.edges:
        cu, cv = partition[u], partition[v]
        degree_total[cu] = degree_total.get(cu, 0) + 1
        degree_total[cv] = degree_total.get(cv, 0) + 1
        if cu == cv:
            intra[cu] = intra.get(cu, 0) + 1
    q = 0.0
    for community in degree_total:
        e_c = intra.get(community, 0)
        d_c = degree_total[community]
        q += e_c / m - (d_c / (2 * m)) ** 2
    return q


@dataclass(frozen=True)
class CommunityResult:
    partition: dict[int, int]
    q: float


def cnm_communities(graph: Graph) -> CommunityResult:
    """Greedy agglomerative modularity maximization.

    Starts from singleton communities and merges the pair with the largest
    modularity gain while any gain is positive; since Q only ever rises,
    the stopping partition is the peak.  Ties break on the smallest
    community-id pair so results are deterministic.  Isolated vertices stay
    singletons.  The returned q is recomputed from the partition with
    :func:`modularity`.
    """
    if not graph.edges:
        raise ValueError("modularity undefined on an empty edge set")
    m = len(graph.edges)
    two_m = 2.0 * m

    neighbors: dict[int, dict[int, int]] = {}
    degree: dict[int, int] = {}
    for u, v in graph.edges:
        neighbors.setdefault(u, {})[v] = 1
        neighbors.setdefault(v, {})[u] = 1
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1

    a = {c: degree[c] / two_m for c in neighbors}
    members: dict[int, list[int]] = {c: [c] for c in neighbors}

    while True:
        best = None
        best_dq = 0.0
        for i, nbrs in neighbors.items():
            ai = a[i]
            for j, weight in nbrs.items():
                if j <= i:
                    continue
                dq = 2.0 * (weight / two_m - ai * a[j])
                if dq > best_dq or (dq == best_dq and best is not None and (i, j) < best):
                    best = (i, j)
                    best_dq = dq
        if best is None or best_dq <= 0.0:
            break
        i, j = best
        # merge j into i
        for k, weight in neighbors[j].items():
            if k == i:
                continue
            neighbors[i][k] = neighbors[i].get(k, 0) + weight
            neighbors[k][i] = neighbors[k].get(i, 0) + weight
            del neighbors[k][j]
        neighbors[i].pop(j, None)
        del neighbors[j]
        a[i] += a[j]
        del a[j]
        members[i].extend(members[j])
        del members[j]

    partition = {}
    for community, verts in members.items():
        for v in verts:
            partition[v] = community
    for v in range(1, graph.num_vertices + 1):
        partition.setdefault(v, v)
    return CommunityResult(partition, modularity(graph, partition))


def best_partition_exhaustive(graph: Graph) -> CommunityResult:
    """Exact maximum-modularity partition by enumerating all partitions.

    Only feasible for small vertex counts; used as a test oracle.
    """
    if not graph.edges:
        raise ValueError("modularity undefined on an empty edge set")
    vertices = list(range(1, graph.num_vertices + 1))

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for smaller in partitions(rest):
            for k, subset in enumerate(smaller):
                yield smaller[:k] + [[first] + subset] + smaller[k + 1:]
            yield [[first]] + smaller

    best_q = -math.inf
    best_partition = None
    for blocks in partitions(vertices):
        part = {v: idx for idx, block in enumerate(blocks) for v in block}
        q = modularity(graph, part)
        if q > best_q:
            best_q = q
            best_partition = part
    return CommunityResult(best_partition, best_q)


def _ranks(values) -> np.ndarray:
    """Average ranks, for the rank-based correlation variant."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def correlate(metric_values, times, method: str = "pearson") -> float:
    """Pearson correlation coefficient (Spearman behind method="spearman")."""
    if len(metric_values) != len(times):
        raise ValueError("length mismatch")
    if len(times) < 3:
        raise ValueError("need at least 3 observations")
    x = np.asarray(metric_values, dtype=float)
    y = np.asarray(times, dtype=float)
    if method == "spearman":
        x, y = _ranks(x), _ranks(y)
    elif method != "pearson":
        raise ValueError(f"unknown method {method!r}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("zero variance")
    r = float(np.corrcoef(x, y)[0, 1])
    return max(-1.0, min(1.0, r))


def nfs_log2_ops(n_bits: int) -> float:
    """Number-field-sieve cost model L_N[1/3, (64/9)^(1/3)] for N = 2^n,
    o(1) taken as zero, returned as log2(operations)."""
    if n_bits < 8:
        raise ValueError("sieve cost model needs n >= 8")
    ln_n = n_bits * math.log(2)
    exponent = NFS_CONSTANT * ln_n ** (1 / 3) * math.log(ln_n) ** (2 / 3)
    return exponent / math.log(2)


@dataclass(frozen=True)
class QuantumEstimate:
    """Cost extrapolation at one bitlength.

    Operation and second counts are stored as log2 (a plain float would
    overflow near n = 4096); universe_lifetimes is a plain ratio.
    """

    n_bits: int
    classical_log2_ops: float
    quantum_log2_ops: float
    nfs_log2_ops: float | None
    classical_log2_seconds: float
    quantum_log2_seconds: float
    universe_lifetimes: float


def estimate_costs(
    n_bits: int,
    fit: FitResult | None = None,
    classical_rate: float = DEFAULT_CLASSICAL_RATE,
    quantum_rate: float = DEFAULT_QUANTUM_RATE,
) -> QuantumEstimate:
    """Extrapolate solver cost at n_bits under a quadratic quantum speedup.

    Without an explicit fit, the default operation-count constants
    (slope 0.495, log2 intercept 16.8) are used.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if classical_rate <= 0 or quantum_rate <= 0:
        raise ValueError("rates must be positive")
    slope = fit.slope if fit else DEFAULT_CLASSICAL_SLOPE
    intercept = fit.intercept if fit else DEFAULT_CLASSICAL_LOG2_INTERCEPT
    classical_ops = intercept + slope * n_bits
    quantum_ops = classical_ops / 2.0
    classical_seconds = classical_ops - math.log2(classical_rate)
    quantum_seconds = quantum_ops - math.log2(quantum_rate)
    lifetimes_log2 = quantum_seconds - math.log2(UNIVERSE_LIFETIME_S)
    return QuantumEstimate(
        n_bits=n_bits,
        classical_log2_ops=classical_ops,
        quantum_log2_ops=quantum_ops,
        nfs_log2_ops=nfs_log2_ops(n_bits) if n_bits >= 8 else None,
        classical_log2_seconds=classical_seconds,
        quantum_log2_seconds=quantum_seconds,
        universe_lifetimes=2.0 ** lifetimes_log2,
    )


def per_bitlength_median(points: list[tuple[int, int, float]]) -> list[tuple[int, float]]:
    """Collapse per-instance aggregates to a per-bitlength median, the
    statistic the runtime trend line is fitted against."""
    rows = []
    for n_bits, group in itertools.groupby(sorted(points), key=lambda p: p[0]):
        times = sorted(t for _, _, t in group)
        k = len(times)
        median = times[k // 2] if k % 2 else (times[k // 2 - 1] + times[k // 2]) / 2
        rows.append((n_bits, median))
    return rows


def write_curve_csv(path, curve: list[tuple[int, float]], fit: FitResult) -> None:
    """Curve rows: bitlength, measured statistic, fitted seconds."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_bits", "stat_seconds", "fit_seconds"])
        for n_bits, seconds in curve:
            fitted = 2.0 ** (fit.slope * n_bits + fit.intercept)
            writer.writerow([n_bits, repr(seconds), repr(fitted)])
