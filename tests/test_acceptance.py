"""Acceptance suite: every shipping criterion, one test each, with a
printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The two benchmark
datasets are built once per session and shared across criteria.
"""

import itertools
import random
import statistics
from contextlib import contextmanager

import pytest

from satfactor import analysis
from satfactor.bench import ExperimentPlan, aggregate, run_experiment
from satfactor.cli import correlation_table
from satfactor.cnf import Formula, Status, evaluate
from satfactor.encoder import decode, encode, spec_for
from satfactor.numtheory import gen_semiprime, is_prime
from satfactor.solver import SolverConfig, solve

from oracles import best_partition_exhaustive, schoolbook_size_model

pytestmark = pytest.mark.slow

WORKERS = 2
MASTER_SEED = 20240811


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:2d} {name}: PASS")


@pytest.fixture(scope="module")
def mean_dataset():
    plan = ExperimentPlan(
        bitlengths=tuple(range(14, 27, 2)),
        semiprimes_per_n=10,
        seeds_per_instance=3,
        strategy="mean",
        master_seed=MASTER_SEED,
    )
    return run_experiment(plan, workers=WORKERS)


@pytest.fixture(scope="module")
def trial_division_dataset():
    plan = ExperimentPlan(
        bitlengths=tuple(range(14, 27, 2)),
        semiprimes_per_n=10,
        seeds_per_instance=1,
        strategy="trial_division",
        master_seed=MASTER_SEED,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def min_dataset():
    plan = ExperimentPlan(
        bitlengths=(16, 18, 20, 22),
        semiprimes_per_n=5,
        seeds_per_instance=20,
        strategy="mean",
        master_seed=MASTER_SEED + 1,
    )
    return run_experiment(plan, workers=WORKERS)


def test_criterion_1_encoder_size_scaling():
    with criterion(1, "encoder size scaling"):
        for n in (32, 64, 128):
            s = gen_semiprime(n, seed=n)
            formula = encode(spec_for([s.value], split=s.split))[0]
            n_vars, n_clauses = formula.num_vars, len(formula.clauses)
            avg_literals = sum(map(len, formula.clauses)) / n_clauses
            model_vars, model_clauses = schoolbook_size_model(n)
            assert abs(n_vars - model_vars) <= 0.15 * model_vars, (n, n_vars)
            assert abs(n_clauses - model_clauses) <= 0.15 * model_clauses, (n, n_clauses)
            assert 3.1 <= avg_literals <= 3.5, (n, avg_literals)


def test_criterion_2_end_to_end_correctness():
    with criterion(2, "end-to-end correctness 8..20 bits"):
        failures = []
        for n_bits in range(8, 21):
            for i in range(50):
                s = gen_semiprime(n_bits, seed=1000 * n_bits + i)
                formula, varmap = encode(spec_for([s.value], split=s.split))
                result = solve(formula, SolverConfig(seed=i))
                if result.status is not Status.SAT:
                    failures.append((n_bits, s.value, result.status))
                    continue
                p, q, _ = decode(varmap, result.assignment)
                if {p, q} != {s.p, s.q}:
                    failures.append((n_bits, s.value, (p, q)))
        assert failures == []


def test_criterion_3_prime_inputs_unsat():
    with criterion(3, "prime-input unsatisfiability"):
        rng = random.Random(99)
        checked = 0
        bit_cycle = itertools.cycle(range(8, 18))
        while checked < 20:
            n_bits = next(bit_cycle)
            candidate = (1 << (n_bits - 1)) | rng.getrandbits(n_bits - 1) | 1
            if not is_prime(candidate):
                continue
            result = solve(encode(spec_for([candidate]))[0], SolverConfig(seed=checked))
            assert result.status is Status.UNSAT, candidate
            checked += 1


def test_criterion_4_encoding_equisatisfiability():
    with criterion(4, "schoolbook/karatsuba/division agree"):
        rng = random.Random(4)
        for _ in range(25):
            n_bits = rng.randint(8, 16)
            s = gen_semiprime(n_bits, seed=rng.getrandbits(32))
            for algorithm in ("schoolbook", "karatsuba", "division"):
                formula, varmap = encode(spec_for([s.value], algorithm, s.split))
                result = solve(formula, SolverConfig(seed=1))
                assert result.status is Status.SAT, (algorithm, s.value)
                p, q, _ = decode(varmap, result.assignment)
                assert p * q == s.value, (algorithm, s.value, p, q)


def test_criterion_5_exponential_trend(mean_dataset):
    with criterion(5, "exponential runtime trend"):
        points = aggregate(mean_dataset, stat="mean")
        curve = analysis.per_bitlength_median(points)
        assert len(curve) == 7
        fit = analysis.fit_exponential(curve)
        print(f"\n  fit: slope={fit.slope:.3f} intercept={fit.intercept:.2f} r2={fit.r2:.3f}")
        assert fit.slope > 0.2, fit
        assert fit.r2 > 0.8, fit


def test_criterion_6_min_vs_mean_ordering(min_dataset):
    with criterion(6, "min-vs-mean ordering and total cost"):
        means = dict(((n, v), t) for n, v, t in aggregate(min_dataset, "mean"))
        mins = dict(((n, v), t) for n, v, t in aggregate(min_dataset, "min"))
        sums = dict(((n, v), t) for n, v, t in aggregate(min_dataset, "sum"))
        assert set(means) == set(mins) == set(sums)
        assert len(means) == 4 * 5
        for key in means:
            assert mins[key] <= means[key], key
            # total parallel work exceeds the expected single-seed cost
            assert sums[key] > means[key], key
        reduction = statistics.median(means[k] / mins[k] for k in means)
        print(f"\n  median mean/min reduction over 20 seeds: {reduction:.2f}x")


def test_criterion_7_trial_division_dominates(mean_dataset, trial_division_dataset):
    with criterion(7, "trial division beats SAT at desk scale"):
        sat_curve = dict(analysis.per_bitlength_median(aggregate(mean_dataset, "mean")))
        td_curve = dict(
            analysis.per_bitlength_median(aggregate(trial_division_dataset, "mean"))
        )
        for n_bits in sorted(sat_curve):
            assert n_bits >= 14
            assert td_curve[n_bits] < sat_curve[n_bits], (
                n_bits, td_curve[n_bits], sat_curve[n_bits],
            )


def test_criterion_8_cdcl_oracle_equivalence():
    import numpy as np

    with criterion(8, "CDCL agrees with truth-table enumeration"):
        def truth_table_status(formula):
            rows = np.arange(1 << formula.num_vars, dtype=np.uint32)
            alive = np.ones(1 << formula.num_vars, dtype=bool)
            for clause in formula.clauses:
                mask = np.zeros(len(rows), dtype=bool)
                for lit in clause:
                    bit = (rows >> (abs(lit) - 1)) & 1
                    mask |= bit == (1 if lit > 0 else 0)
                alive &= mask
                if not alive.any():
                    return Status.UNSAT
            return Status.SAT

        rng = random.Random(88)
        for _ in range(200):
            num_vars = rng.randint(5, 20)
            n_clauses = max(1, round(rng.uniform(3.0, 5.0) * num_vars))
            clauses = []
            for _ in range(n_clauses):
                variables = rng.sample(range(1, num_vars + 1), 3)
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            formula = Formula(num_vars, clauses)
            result = solve(formula, SolverConfig(seed=7))
            assert result.status is truth_table_status(formula)
            if result.status is Status.SAT:
                assert evaluate(formula, result.assignment)


def test_criterion_9_modularity_correctness():
    with criterion(9, "modularity and greedy community detection"):
        triangles = analysis.Graph(
            6, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)})
        )
        assert analysis.cnm_communities(triangles).q == 0.5
        k4 = analysis.Graph(4, frozenset(itertools.combinations(range(1, 5), 2)))
        assert analysis.cnm_communities(k4).q == 0.0

        rng = random.Random(9)
        checked = 0
        while checked < 50:
            num_vertices = rng.randint(3, 8)
            edges = frozenset(
                (u, v)
                for u, v in itertools.combinations(range(1, num_vertices + 1), 2)
                if rng.random() < rng.uniform(0.3, 0.8)
            )
            if not edges:
                continue
            checked += 1
            graph = analysis.Graph(num_vertices, edges)
            greedy = analysis.cnm_communities(graph)
            exact = best_partition_exhaustive(graph)
            assert greedy.q <= exact.q + 1e-12
            assert greedy.q == analysis.modularity(graph, greedy.partition)

        # disjoint-cliques family: greedy finds the exact optimum
        for sizes in ([3, 3], [4, 4], [3, 3, 2]):
            edges, start = [], 1
            for size in sizes:
                edges.extend(itertools.combinations(range(start, start + size), 2))
                start += size
            graph = analysis.Graph(start - 1, frozenset(edges))
            greedy = analysis.cnm_communities(graph)
            exact = best_partition_exhaustive(graph)
            assert greedy.q == pytest.approx(exact.q, abs=1e-12)


def test_criterion_10_high_modularity_of_instances():
    with criterion(10, "factoring instances have Q above the hardness band"):
        for n_bits in (16, 24, 32):
            s = gen_semiprime(n_bits, seed=n_bits + 1)
            formula, _ = encode(spec_for([s.value], split=s.split))
            graph = analysis.build_vig(formula)
            result = analysis.cnm_communities(graph)
            print(f"\n  n={n_bits}: Q={result.q:.3f}")
            assert result.q > 0.12, (n_bits, result.q)


def test_criterion_11_estimator_reproduction():
    with criterion(11, "cost estimator headline numbers"):
        estimate = analysis.estimate_costs(768)
        assert 33 <= estimate.universe_lifetimes <= 300, estimate.universe_lifetimes
        assert abs(estimate.quantum_log2_ops - (8.4 + 0.2475 * 768)) < 0.5
        assert estimate.nfs_log2_ops < estimate.quantum_log2_ops


def test_criterion_12_correlation_null_result(mean_dataset):
    with criterion(12, "no metric predicts solve time"):
        table = correlation_table(mean_dataset)
        for name, entry in table.items():
            print(f"\n  {name}: mean_r={entry['mean_r']:+.3f}")
            assert abs(entry["mean_r"]) < 0.5, (name, entry)
