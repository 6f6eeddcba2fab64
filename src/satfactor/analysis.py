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

import itertools
import json
import logging
import math
import statistics
import sys
from dataclasses import asdict, dataclass, fields
from heapq import heapify, heappop, heappush

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
        if not 0 < t < math.inf:
            raise ValueError(f"non-positive or non-finite time {t}")
    x = [float(n) for n, _ in points]
    y = [math.log2(t) for _, t in points]
    slope, intercept = statistics.linear_regression(x, y)
    ss_res = math.fsum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    y_mean = statistics.fmean(y)
    ss_tot = math.fsum((yi - y_mean) ** 2 for yi in y)
    if ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return FitResult(slope, intercept, r2)


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
        edges.update(itertools.combinations(sorted(set(map(abs, clause))), 2))
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
    """Greedy agglomerative modularity maximization (Clauset, Newman and
    Moore, Phys. Rev. E 70, 066111, 2004).

    Starts from singleton communities and merges the pair with the largest
    modularity gain while any gain is positive; since Q only ever rises,
    the stopping partition is the peak.  Ties break on the smallest
    community-id pair so results are deterministic.  Isolated vertices stay
    singletons.  The returned q is recomputed from the partition with
    :func:`modularity`.

    The best pair comes from a lazy heap of ``(-dq, i, j)`` entries, one
    pushed per adjacent pair ``i < j`` whose gain was positive when pushed.
    Merging ``j`` into ``i`` changes the edge weight only of pairs ``(i, k)``
    with ``k`` a neighbour of ``j``, and those get fresh entries.  Every
    other entry stays an upper bound on its pair's gain, because the only
    other change is that ``a[i]`` grows.  A popped entry is recomputed with
    the same float expression: dead pairs are skipped, an unchanged gain is
    merged, a lower positive gain is pushed again and any other is dropped.
    So the first entry merged is the pair with the largest gain and, among
    equal gains, the smallest ``(i, j)``, exactly as a rescan of all pairs
    would pick it.
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

    heap = []
    for i, nbrs in neighbors.items():
        ai = a[i]
        for j, weight in nbrs.items():
            if j > i:
                dq = 2.0 * (weight / two_m - ai * a[j])
                if dq > 0.0:
                    heap.append((-dq, i, j))
    heapify(heap)

    while heap:
        neg_dq, i, j = heappop(heap)
        weight = neighbors.get(i, {}).get(j)
        if weight is None:
            continue  # i or j was merged away since this entry was pushed
        dq = 2.0 * (weight / two_m - a[i] * a[j])
        if dq != -neg_dq:
            if dq > 0.0:
                heappush(heap, (-dq, i, j))
            continue
        # merge j into i
        ai = a[i] = a[i] + a.pop(j)
        nbrs_i = neighbors[i]
        for k, weight in neighbors.pop(j).items():
            if k == i:
                continue
            w = nbrs_i[k] = nbrs_i.get(k, 0) + weight
            nbrs_k = neighbors[k]
            nbrs_k[i] = w
            del nbrs_k[j]
            dq = 2.0 * (w / two_m - ai * a[k])
            if dq > 0.0:
                heappush(heap, (-dq, i, k) if i < k else (-dq, k, i))
        del nbrs_i[j]
        members[i].extend(members.pop(j))

    partition = {}
    for community, verts in members.items():
        for v in verts:
            partition[v] = community
    for v in range(1, graph.num_vertices + 1):
        partition.setdefault(v, v)
    return CommunityResult(partition, modularity(graph, partition))


def _ranks(values: list[float]) -> list[float]:
    """Average ranks, for the rank-based correlation variant."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        tied = list(group)
        for k in tied:
            ranks[k] = start + (len(tied) + 1) / 2.0
        start += len(tied)
    return ranks


def correlate(metric_values, times, method: str = "pearson") -> float:
    """Pearson correlation coefficient (Spearman behind method="spearman")."""
    if len(metric_values) != len(times):
        raise ValueError("length mismatch")
    if len(times) < 3:
        raise ValueError("need at least 3 observations")
    x = [float(v) for v in metric_values]
    y = [float(t) for t in times]
    if method == "spearman":
        x, y = _ranks(x), _ranks(y)
    elif method != "pearson":
        raise ValueError(f"unknown method {method!r}")
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise ValueError("zero variance")
    r = statistics.correlation(x, y)
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

    A fit is log2 seconds, which ``classical_rate`` turns into operations; else the defaults apply.
    """
    if n_bits < 0:
        raise ValueError("n_bits must be >= 0")
    if n_bits > sys.float_info.max:  # compared as an int: float(n_bits) would overflow
        raise ValueError(f"costs at {n_bits} bits exceed the float range")
    if not all(math.isfinite(rate) and rate > 0 for rate in (classical_rate, quantum_rate)):
        raise ValueError("rates must be positive and finite")
    slope = fit.slope if fit else DEFAULT_CLASSICAL_SLOPE
    intercept = fit.intercept + math.log2(classical_rate) if fit else DEFAULT_CLASSICAL_LOG2_INTERCEPT
    classical_ops = intercept + slope * n_bits
    quantum_ops = classical_ops / 2.0
    classical_seconds = classical_ops - math.log2(classical_rate)
    quantum_seconds = quantum_ops - math.log2(quantum_rate)
    lifetimes_log2 = quantum_seconds - math.log2(UNIVERSE_LIFETIME_S)
    if not lifetimes_log2 < 1024:  # 2.0 ** 1024 overflows a float
        raise ValueError(f"universe lifetimes at {n_bits} bits exceed the float range")
    estimate = QuantumEstimate(
        n_bits=n_bits,
        classical_log2_ops=classical_ops,
        quantum_log2_ops=quantum_ops,
        nfs_log2_ops=nfs_log2_ops(n_bits) if n_bits >= 8 else None,
        classical_log2_seconds=classical_seconds,
        quantum_log2_seconds=quantum_seconds,
        universe_lifetimes=2.0 ** lifetimes_log2,
    )
    # a steep negative fit sends the log2 costs to -inf, which is not JSON
    if not all(math.isfinite(value) for value in asdict(estimate).values() if value is not None):
        raise ValueError(f"costs at {n_bits} bits exceed the float range")
    return estimate


def per_bitlength_median(points: list[tuple[int, int, float]]) -> list[tuple[int, float]]:
    """Collapse per-instance aggregates to a per-bitlength median, the
    statistic the runtime trend line is fitted against."""
    return [
        (n_bits, statistics.median(t for _, _, t in group))
        for n_bits, group in itertools.groupby(sorted(points), key=lambda p: p[0])
    ]


def curve_csv(curve: list[tuple[int, float]], fit: FitResult) -> str:
    """Curve CSV rows: bitlength, measured statistic, fitted seconds."""
    rows = [f"{n},{t!r},{2.0 ** (fit.slope * n + fit.intercept)!r}\n" for n, t in curve]
    return "n_bits,stat_seconds,fit_seconds\n" + "".join(rows)


def fit_report(fit: FitResult, curve: list[tuple[int, float]], stat: str, n_points: int) -> dict:
    """The JSON of ``analyze fit``: the fit in log2 seconds and its curve."""
    reference = {"slope": DEFAULT_CLASSICAL_SLOPE, "log2_intercept": DEFAULT_CLASSICAL_LOG2_INTERCEPT}
    return {
        **asdict(fit),
        "stat": stat,
        "per_instance_points": n_points,
        "curve": [{"n_bits": n, "seconds": t} for n, t in curve],
        "reference_ops_model": reference,
    }


def load_fit(path: str) -> FitResult:
    """The fit of a :func:`fit_report` file; a bad field is a ValueError naming the file."""
    with open(path) as handle:
        try:
            report = json.load(handle, parse_int=float)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    names = [field.name for field in fields(FitResult)]
    values = [report.get(name) if isinstance(report, dict) else None for name in names]
    for name, value in zip(names, values):
        if not isinstance(value, float) or not math.isfinite(value):
            raise ValueError(f"{path}: needs {name} as a finite number, got {value!r}")
    return FitResult(*values)
