import itertools
import json
import math
import random

import numpy as np
import pytest

from satfactor.analysis import (
    DEFAULT_CLASSICAL_LOG2_INTERCEPT,
    DEFAULT_CLASSICAL_SLOPE,
    CommunityResult,
    FitResult,
    Graph,
    _ranks,
    build_vig,
    cnm_communities,
    correlate,
    curve_csv,
    estimate_costs,
    fit_exponential,
    fit_report,
    load_fit,
    modularity,
    nfs_log2_ops,
    per_bitlength_median,
)
from satfactor.cnf import Formula, unit_propagate
from satfactor.encoder import ALGORITHMS, encode, spec_for
from satfactor.numtheory import gen_semiprime

from oracles import best_partition_exhaustive


def graph(num_vertices, edge_list):
    return Graph(num_vertices, frozenset(tuple(sorted(e)) for e in edge_list))


TRIANGLES = graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
K4 = graph(4, list(itertools.combinations(range(1, 5), 2)))


def fit_numpy(points):
    """Reference fit: the numpy least squares that fit_exponential replaced."""
    x = np.array([float(n) for n, _ in points])
    y = np.log2([t for _, t in points])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return float(slope), float(intercept), r2


def random_points(rng):
    """Distinct sorted bitlengths with noisy exponential times."""
    bits = sorted(rng.sample(range(4, 200), rng.randint(3, 30)))
    slope, intercept = rng.uniform(-0.2, 1.5), rng.uniform(-30.0, 10.0)
    noise = rng.choice([0.0, 0.1, 1.0, 8.0])
    return [(n, 2.0 ** (slope * n + intercept + rng.gauss(0.0, noise))) for n in bits]


class TestFitAgainstNumpy:
    def test_random_point_sets(self):
        rng = random.Random(41)
        for _ in range(500):
            points = random_points(rng)
            fit = fit_exponential(points)
            slope, intercept, r2 = fit_numpy(points)
            assert fit.slope == pytest.approx(slope, rel=0, abs=1e-12)
            assert fit.intercept == pytest.approx(intercept, rel=0, abs=1e-12)
            assert fit.r2 == pytest.approx(r2, rel=0, abs=1e-12)


class TestFitExponential:
    def test_exact_synthetic(self):
        points = [(n, 2.0 ** (0.5 * n - 3)) for n in range(10, 30, 2)]
        fit = fit_exponential(points)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.intercept == pytest.approx(-3.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_times(self):
        fit = fit_exponential([(10, 2.0), (12, 2.0), (14, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 0.0

    def test_planted_recovery(self):
        rng = random.Random(3)
        slope, intercept = rng.uniform(0.1, 1.0), rng.uniform(-20, 5)
        points = [(n, 2.0 ** (slope * n + intercept)) for n in range(8, 40, 3)]
        fit = fit_exponential(points)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)

    def test_non_positive_time_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            fit_exponential([(10, 1.0), (12, 0.0), (14, 2.0)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_exponential([(10, 1.0), (12, 2.0)])

    def test_r2_in_range_on_noise(self):
        rng = random.Random(8)
        points = [(n, 2.0 ** (0.3 * n) * rng.uniform(0.5, 2.0)) for n in range(10, 40)]
        fit = fit_exponential(points)
        assert 0.0 <= fit.r2 <= 1.0


def vig_edges_nested_loop(formula):
    """Reference VIG edges: every pair of a clause's sorted variables, added
    one by one."""
    edges = set()
    for clause in formula.clauses:
        variables = sorted({abs(lit) for lit in clause})
        for i, u in enumerate(variables):
            for v in variables[i + 1:]:
                edges.add((u, v))
    return frozenset(edges)


class TestBuildVig:
    @pytest.mark.parametrize("simplified", [False, True])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("bits", [12, 16, 20, 24, 28, 32])
    def test_same_edge_order_as_nested_loop(self, algorithm, bits, simplified):
        # CNM's partition dict order follows the iteration order of the edges
        s = gen_semiprime(bits, seed=bits)
        formula, _ = encode(spec_for([s.value], algorithm, s.split))
        if simplified:
            formula = unit_propagate(formula).formula
        assert list(build_vig(formula).edges) == list(vig_edges_nested_loop(formula))

    def test_same_edge_order_on_multi_target_vig(self):
        targets = [gen_semiprime(16, seed).value for seed in range(4)]
        formula, _ = encode(spec_for(targets))
        assert list(build_vig(formula).edges) == list(vig_edges_nested_loop(formula))

    def test_single_clause_triangle(self):
        g = build_vig(Formula(3, [(1, 2, 3)]))
        assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_disjoint_binary_clauses(self):
        g = build_vig(Formula(4, [(1, -2), (3, 4)]))
        assert g.edges == frozenset({(1, 2), (3, 4)})

    def test_nand_formula_deduplicates(self):
        g = build_vig(Formula(3, [(1, 3), (2, 3), (-1, -2, -3)]))
        assert g.edges == frozenset({(1, 3), (2, 3), (1, 2)})

    def test_unit_clauses_add_nothing(self):
        g = build_vig(Formula(2, [(1,), (2,)]))
        assert g.edges == frozenset()


class TestModularity:
    def test_two_disjoint_triangles_exact(self):
        partition = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
        assert modularity(TRIANGLES, partition) == 0.5

    def test_single_community_zero(self):
        assert modularity(K4, {v: 0 for v in range(1, 5)}) == 0.0
        assert modularity(TRIANGLES, {v: 0 for v in range(1, 7)}) == 0.0

    def test_triangle_singletons(self):
        tri = graph(3, [(1, 2), (2, 3), (1, 3)])
        q = modularity(tri, {1: 0, 2: 1, 3: 2})
        assert q == pytest.approx(-1 / 3, abs=1e-12)

    def test_empty_edges_error(self):
        with pytest.raises(ValueError, match="undefined"):
            modularity(graph(3, []), {1: 0, 2: 0, 3: 0})

    def test_partition_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            modularity(TRIANGLES, {1: 0})


def random_graph(rng, num_vertices, edge_prob):
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, num_vertices + 1), 2)
        if rng.random() < edge_prob
    ]
    return graph(num_vertices, edges)


def cnm_full_scan(g):
    """Reference CNM: rescans every adjacent pair before each merge and takes
    the largest positive gain, ties to the smallest (i, j)."""
    two_m = 2.0 * len(g.edges)
    neighbors = {}
    degree = {}
    for u, v in g.edges:
        neighbors.setdefault(u, {})[v] = 1
        neighbors.setdefault(v, {})[u] = 1
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    a = {c: degree[c] / two_m for c in neighbors}
    members = {c: [c] for c in neighbors}

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
    for v in range(1, g.num_vertices + 1):
        partition.setdefault(v, v)
    return CommunityResult(partition, modularity(g, partition))


def assert_same_as_full_scan(g):
    expected = cnm_full_scan(g)
    result = cnm_communities(g)
    assert list(result.partition.items()) == list(expected.partition.items())
    assert result.q == expected.q


def disjoint_cliques(count, size):
    edges = []
    for c in range(count):
        edges.extend(itertools.combinations(range(c * size + 1, (c + 1) * size + 1), 2))
    return graph(count * size, edges)


TIE_HEAVY = {
    **{f"ring{n}": graph(n, [(v, v % n + 1) for v in range(1, n + 1)]) for n in (3, 4, 7, 12, 30)},
    **{f"star{n}": graph(n, [(1, v) for v in range(2, n + 1)]) for n in (2, 5, 16)},
    **{
        f"k{p},{q}": graph(p + q, [(u, p + v) for u in range(1, p + 1) for v in range(1, q + 1)])
        for p, q in ((2, 2), (2, 5), (3, 3), (4, 6))
    },
    **{f"{c}xK{s}": disjoint_cliques(c, s) for c, s in ((2, 3), (3, 4), (5, 2), (4, 5))},
}


class TestCnmCommunities:
    def test_same_as_full_scan_on_random_graphs(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(2, 40), rng.choice([0.05, 0.1, 0.3, 0.6]))
            if g.edges:
                assert_same_as_full_scan(g)

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_same_as_full_scan_on_tie_heavy_graphs(self, name):
        assert_same_as_full_scan(TIE_HEAVY[name])

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("bits", [12, 16, 20, 24])
    def test_same_as_full_scan_on_encoder_vigs(self, algorithm, bits):
        s = gen_semiprime(bits, seed=bits)
        formula, _ = encode(spec_for([s.value], algorithm, s.split))
        assert_same_as_full_scan(build_vig(formula))

    def test_same_as_full_scan_on_multi_target_vig(self):
        targets = [gen_semiprime(16, seed).value for seed in range(4)]
        assert len(set(targets)) == 4
        formula, _ = encode(spec_for(targets))
        assert_same_as_full_scan(build_vig(formula))

    def test_two_triangles(self):
        result = cnm_communities(TRIANGLES)
        assert result.q == 0.5
        groups = {}
        for v, c in result.partition.items():
            groups.setdefault(c, set()).add(v)
        assert sorted(groups.values(), key=min) == [{1, 2, 3}, {4, 5, 6}]

    def test_k4_single_community(self):
        result = cnm_communities(K4)
        assert result.q == 0.0
        assert len(set(result.partition.values())) == 1

    def test_returned_q_matches_modularity_exactly(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 12), 0.4)
            if not g.edges:
                continue
            result = cnm_communities(g)
            assert result.q == modularity(g, result.partition)

    def test_greedy_vs_exhaustive_on_small_graphs(self):
        rng = random.Random(29)
        checked = 0
        while checked < 50:
            n = rng.randint(3, 8)
            g = random_graph(rng, n, rng.uniform(0.3, 0.8))
            if not g.edges:
                continue
            checked += 1
            greedy = cnm_communities(g)
            exact = best_partition_exhaustive(g)
            assert greedy.q <= exact.q + 1e-12

    def test_exact_on_disjoint_cliques(self):
        # cliques are the canonical case where greedy merging finds the optimum
        rng = random.Random(31)
        for sizes in ([3, 3], [4, 3], [3, 3, 2], [4, 4]):
            edges = []
            start = 1
            for size in sizes:
                verts = range(start, start + size)
                edges.extend(itertools.combinations(verts, 2))
                start += size
            g = graph(start - 1, edges)
            greedy = cnm_communities(g)
            exact = best_partition_exhaustive(g)
            assert greedy.q == pytest.approx(exact.q, abs=1e-12)

    def test_empty_edges_error(self):
        with pytest.raises(ValueError):
            cnm_communities(graph(3, []))


def ranks_numpy(values):
    """Reference average ranks: the numpy code that _ranks replaced."""
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


def correlate_numpy(xs, ys, method):
    """Reference correlation: np.corrcoef, of numpy ranks for Spearman;
    None where the old code raised for zero variance."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if method == "spearman":
        x, y = ranks_numpy(x), ranks_numpy(y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    return max(-1.0, min(1.0, float(np.corrcoef(x, y)[0, 1])))


def random_samples(rng, size):
    """Floats over a few magnitudes, or small integers with many ties."""
    if rng.random() < 0.5:
        scale = 10.0 ** rng.randint(-6, 6)
        return [rng.uniform(-1.0, 1.0) * scale for _ in range(size)]
    top = rng.randint(1, 6)
    return [float(rng.randint(0, top)) for _ in range(size)]


class TestCorrelateAgainstNumpy:
    def test_ranks_identical_with_ties(self):
        rng = random.Random(42)
        for _ in range(300):
            values = random_samples(rng, rng.randint(1, 40))
            assert _ranks(values) == list(ranks_numpy(values))

    @pytest.mark.parametrize("method", ["pearson", "spearman"])
    def test_random_samples(self, method):
        rng = random.Random(43)
        compared = 0
        for _ in range(1000):
            size = rng.randint(3, 40)
            xs, ys = random_samples(rng, size), random_samples(rng, size)
            expected = correlate_numpy(xs, ys, method)
            if expected is None:
                with pytest.raises(ValueError, match="zero variance"):
                    correlate(xs, ys, method=method)
                continue
            compared += 1
            assert correlate(xs, ys, method=method) == pytest.approx(expected, rel=0, abs=1e-12)
        assert compared > 900


class TestCorrelate:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 1 for x in xs]
        assert correlate(xs, ys) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0, 5.0]
        ys = [-x for x in xs]
        assert correlate(xs, ys) == pytest.approx(-1.0)

    def test_independent_random_is_small(self):
        rng = random.Random(101)
        xs = [rng.random() for _ in range(100)]
        ys = [rng.random() for _ in range(100)]
        assert abs(correlate(xs, ys)) < 0.3

    def test_zero_variance_error(self):
        with pytest.raises(ValueError, match="variance"):
            correlate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = random.Random(5)
        xs = [rng.random() for _ in range(30)]
        ys = [rng.random() for _ in range(30)]
        r = correlate(xs, ys)
        assert correlate([3 * x + 7 for x in xs], ys) == pytest.approx(r, abs=1e-12)
        assert correlate([-2 * x + 1 for x in xs], ys) == pytest.approx(-r, abs=1e-12)

    def test_spearman_monotone(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        ys = [math.exp(x) for x in xs]
        assert correlate(xs, ys, method="spearman") == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlate([1.0, 2.0], [1.0, 2.0, 3.0])


class TestNfsOps:
    def test_768_bits_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        ln_n = mpmath.mpf(768) * mpmath.log(2)
        expected = (
            (mpmath.mpf(64) / 9) ** (mpmath.mpf(1) / 3)
            * ln_n ** (mpmath.mpf(1) / 3)
            * mpmath.log(ln_n) ** (mpmath.mpf(2) / 3)
            / mpmath.log(2)
        )
        assert nfs_log2_ops(768) == pytest.approx(float(expected), abs=1e-9)
        assert nfs_log2_ops(768) == pytest.approx(76.5, abs=0.2)

    def test_monotone_over_full_range(self):
        values = [nfs_log2_ops(n) for n in range(8, 4097)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_crossover_below_quantum_curve(self):
        for n in (768, 1024, 2048, 4096):
            quantum = 8.41 + 0.247 * n
            assert nfs_log2_ops(n) < quantum

    def test_too_small(self):
        with pytest.raises(ValueError):
            nfs_log2_ops(7)


class TestEstimateCosts:
    def test_universe_lifetimes_at_768(self):
        e = estimate_costs(768)
        assert 33 <= e.universe_lifetimes <= 300

    def test_n_zero_gives_intercept(self):
        e = estimate_costs(0)
        assert e.classical_log2_ops == pytest.approx(DEFAULT_CLASSICAL_LOG2_INTERCEPT)

    def test_quantum_exponent_matches_halved_form(self):
        e = estimate_costs(768)
        assert abs(e.quantum_log2_ops - (8.4 + 0.2475 * 768)) < 0.5

    def test_monotone_in_n(self):
        values = [estimate_costs(n).quantum_log2_ops for n in (64, 128, 512, 1024, 4096)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_finite_at_4096(self):
        e = estimate_costs(4096)
        for field in (
            e.classical_log2_ops, e.quantum_log2_ops, e.nfs_log2_ops,
            e.classical_log2_seconds, e.quantum_log2_seconds, e.universe_lifetimes,
        ):
            assert field is not None and math.isfinite(field)

    def test_custom_fit(self):
        # a fit is log2 seconds: 2^10 s at 2 ops/s is 2^11 operations
        fit = FitResult(slope=1.0, intercept=0.0, r2=1.0)
        e = estimate_costs(10, fit=fit, classical_rate=2.0, quantum_rate=4.0)
        assert e.classical_log2_seconds == pytest.approx(10.0)
        assert e.classical_log2_ops == pytest.approx(11.0)
        assert e.quantum_log2_ops == pytest.approx(5.5)
        assert e.quantum_log2_seconds == pytest.approx(3.5)

    def test_overflow_is_a_value_error(self):
        assert math.isfinite(estimate_costs(4800).universe_lifetimes)
        with pytest.raises(ValueError, match="4900 bits"):
            estimate_costs(4900)
        with pytest.raises(ValueError, match="100 bits"):
            estimate_costs(100, fit=FitResult(slope=30.0, intercept=0.0, r2=1.0))

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            estimate_costs(10, classical_rate=0.0)

    @pytest.mark.parametrize("rate", ["classical_rate", "quantum_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate, value):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_costs(768, **{rate: value})

    def test_bitlength_beyond_float_range(self):
        # the check compares ints, so it cannot itself overflow
        n_bits = 10**400
        with pytest.raises(ValueError, match=f"costs at {n_bits} bits exceed the float range"):
            estimate_costs(n_bits)

    def test_negative_fit_past_float_range(self):
        # slope * n_bits is -inf: every log2 cost would be -inf, which is not JSON
        fit = FitResult(slope=-1e300, intercept=0.0, r2=1.0)
        with pytest.raises(ValueError, match="costs at 1000000000 bits exceed the float range"):
            estimate_costs(10**9, fit=fit)

    def test_default_constants_recorded(self):
        assert DEFAULT_CLASSICAL_SLOPE == 0.495
        assert DEFAULT_CLASSICAL_LOG2_INTERCEPT == 16.8


class TestCurveHelpers:
    def test_per_bitlength_median(self):
        points = [(10, 1, 1.0), (10, 2, 3.0), (10, 3, 2.0), (12, 4, 5.0), (12, 5, 7.0)]
        assert per_bitlength_median(points) == [(10, 2.0), (12, 6.0)]

    def test_fit_report_round_trip(self, tmp_path):
        fit = fit_exponential([(10, 0.01), (12, 0.05), (14, 0.2)])
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_report(fit, [(10, 0.01)], "mean", 3)))
        assert load_fit(str(path)) == fit

    def test_load_fit_reads_integers(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text('{"slope": 1, "intercept": -2, "r2": 1}')
        assert load_fit(str(path)) == FitResult(slope=1.0, intercept=-2.0, r2=1.0)

    def test_curve_csv(self):
        fit = FitResult(slope=1.0, intercept=0.0, r2=1.0)
        text = curve_csv([(10, 1024.0), (12, 0.1)], fit)
        assert text == "n_bits,stat_seconds,fit_seconds\n10,1024.0,1024.0\n12,0.1,4096.0\n"
