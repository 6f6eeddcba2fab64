import dataclasses
import sys

import pytest

from satfactor import bench
from satfactor.bench import (
    CSV_COLUMNS,
    Dataset,
    ExperimentPlan,
    RunRecord,
    aggregate,
    dataset_to_csv,
    derive_seed,
    generate_instances,
    load_csv,
    run_experiment,
    save_csv,
    solve_and_verify,
)
from satfactor.cnf import Status
from satfactor.encoder import DecodeError, encode, spec_for
from satfactor.numtheory import gen_semiprime

EXTERNAL = f"{sys.executable} -m satfactor.cli solve"


def tiny_plan(**overrides):
    base = dict(
        bitlengths=(10, 12),
        semiprimes_per_n=2,
        seeds_per_instance=2,
        strategy="mean",
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def strip_times(dataset):
    return [dataclasses.replace(r, wall_time_s=0.0) for r in dataset.records]


class TestExperimentPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_plan(strategy="fastest")
        with pytest.raises(ValueError):
            tiny_plan(bitlengths=(4,))
        with pytest.raises(ValueError):
            tiny_plan(semiprimes_per_n=0)
        with pytest.raises(ValueError):
            tiny_plan(solver="external")  # no command

    def test_fingerprint_stable_and_distinct(self):
        assert tiny_plan().fingerprint() == tiny_plan().fingerprint()
        assert tiny_plan().fingerprint() != tiny_plan(master_seed=9).fingerprint()


class TestSeedsAndInstances:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "solver", 10, 0) == derive_seed(1, "solver", 10, 0)
        assert derive_seed(1, "solver", 10, 0) != derive_seed(1, "solver", 10, 1)
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_instances_deterministic_and_distinct(self):
        a = generate_instances(14, 10, master_seed=5)
        b = generate_instances(14, 10, master_seed=5)
        assert a == b
        assert len({s.value for s in a}) == 10

    def test_small_space_falls_back_to_repeats(self):
        # 8-bit balanced semi-primes are scarce; ask for more than exist
        instances = generate_instances(8, 12, master_seed=1)
        assert len(instances) == 12
        assert all(s.value.bit_length() == 8 for s in instances)


class TestRunExperiment:
    def test_mean_plan_shape(self):
        dataset = run_experiment(tiny_plan())
        assert len(dataset.records) == 2 * 2 * 2
        assert all(r.status is Status.SAT for r in dataset.records)
        assert all(r.strategy == "mean" for r in dataset.records)
        keys = [(r.n_bits, r.N, r.solver_seed) for r in dataset.records]
        assert keys == sorted(keys)

    def test_deterministic_modulo_wall_time(self):
        a = run_experiment(tiny_plan())
        b = run_experiment(tiny_plan())
        assert strip_times(a) == strip_times(b)
        assert a.fingerprint == b.fingerprint

    def test_parallel_equals_sequential(self):
        a = run_experiment(tiny_plan(), workers=1)
        b = run_experiment(tiny_plan(), workers=2)
        assert strip_times(a) == strip_times(b)

    def test_trial_division_strategy(self):
        dataset = run_experiment(tiny_plan(strategy="trial_division"))
        assert len(dataset.records) == 2 * 2  # one row per semiprime
        assert all(r.status is Status.SAT for r in dataset.records)
        assert all(r.solver == "trial_division" for r in dataset.records)

    def test_multi_target_strategy(self):
        dataset = run_experiment(tiny_plan(strategy="multi_target", seeds_per_instance=3))
        assert len(dataset.records) == 2 * 3  # one instance per bitlength
        for r in dataset.records:
            assert r.status is Status.SAT
            assert r.matched_target is not None
            assert r.N.bit_length() == r.n_bits

    def test_external_solver_failure_recorded_not_raised(self):
        plan = tiny_plan(
            bitlengths=(10,), semiprimes_per_n=1, seeds_per_instance=1,
            solver="external", external_cmd="/nonexistent/solver",
        )
        dataset = run_experiment(plan)
        assert len(dataset.records) == 1
        assert dataset.records[0].status is Status.UNKNOWN

    def test_external_solver_round_trip(self):
        plan = tiny_plan(
            bitlengths=(10,), semiprimes_per_n=2, seeds_per_instance=1,
            solver="external", external_cmd=EXTERNAL,
        )
        dataset = run_experiment(plan)
        assert all(r.status is Status.SAT for r in dataset.records)

    def test_embedded_plan_ignores_external_cmd(self):
        dataset = run_experiment(tiny_plan(external_cmd="/nonexistent/solver"))
        assert dataset.records
        for r in dataset.records:
            assert r.status is Status.SAT
            assert r.solver == "embedded"

    @pytest.mark.parametrize("solver", ["embedded", "external"])
    def test_decode_mismatch_raises(self, monkeypatch, solver):
        real_encode = bench.encode

        def wrong_target(spec):
            formula, varmap = real_encode(spec)
            varmap.targets[0] += 2
            return formula, varmap

        monkeypatch.setattr(bench, "encode", wrong_target)
        plan = tiny_plan(
            bitlengths=(10,), semiprimes_per_n=1, seeds_per_instance=1,
            solver=solver, external_cmd=EXTERNAL,
        )
        with pytest.raises(DecodeError):
            run_experiment(plan)


class TestSolveAndVerify:
    def instance(self):
        s = gen_semiprime(12, seed=3)
        formula, varmap = encode(spec_for([s.value], split=s.split))
        return s, formula, varmap

    def test_model_decoded_and_checked(self):
        s, formula, varmap = self.instance()
        result, factors = solve_and_verify(formula, varmap, seed=0, time_limit=None)
        assert result.status is Status.SAT
        assert factors in ((s.p, s.q, 0), (s.q, s.p, 0))

    def test_no_model_no_factors(self):
        formula, varmap = encode(spec_for([4093]))  # prime
        result, factors = solve_and_verify(formula, varmap, seed=0, time_limit=None)
        assert result.status is Status.UNSAT
        assert factors is None

    def test_altered_target_raises(self):
        _, formula, varmap = self.instance()
        varmap.targets[0] += 2
        with pytest.raises(DecodeError):
            solve_and_verify(formula, varmap, seed=0, time_limit=None)


def synthetic_dataset():
    rows = []
    for seed, t in enumerate([1.0, 2.0, 9.0]):
        rows.append(
            RunRecord("mean", "schoolbook", "embedded", 10, 589, seed, Status.SAT, t, 1, 1)
        )
    rows.append(
        RunRecord("mean", "schoolbook", "embedded", 10, 667, 0, Status.UNKNOWN, 0.0, 0, 0)
    )
    return Dataset(rows, "cafe")


class TestAggregate:
    def test_mean_median_min_sum(self):
        d = synthetic_dataset()
        assert aggregate(d, "mean") == [(10, 589, 4.0)]
        assert aggregate(d, "median") == [(10, 589, 2.0)]
        assert aggregate(d, "min") == [(10, 589, 1.0)]
        assert aggregate(d, "sum") == [(10, 589, 12.0)]

    def test_min_of_single_record_is_identity(self):
        d = Dataset(
            [RunRecord("mean", "schoolbook", "embedded", 10, 589, 0, Status.SAT, 3.25, 1, 1)],
            "x",
        )
        assert aggregate(d, "min") == [(10, 589, 3.25)]

    def test_unknown_rows_excluded(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            rows = aggregate(synthetic_dataset(), "mean")
        assert rows == [(10, 589, 4.0)]
        assert any("excluded" in r.message for r in caplog.records)

    def test_min_curve_below_mean_curve(self):
        dataset = run_experiment(tiny_plan(seeds_per_instance=3))
        means = dict(((n, v), t) for n, v, t in aggregate(dataset, "mean"))
        mins = dict(((n, v), t) for n, v, t in aggregate(dataset, "min"))
        assert set(means) == set(mins)
        for key in means:
            assert mins[key] <= means[key]

    def test_unknown_stat(self):
        with pytest.raises(ValueError):
            aggregate(synthetic_dataset(), "max")


class TestCsv:
    def test_round_trip(self, tmp_path):
        dataset = run_experiment(tiny_plan(strategy="multi_target"))
        path = tmp_path / "ds.csv"
        save_csv(dataset, path)
        loaded = load_csv(path)
        assert loaded.records == dataset.records
        assert loaded.fingerprint == dataset.fingerprint

    def test_header_schema(self, tmp_path):
        dataset = run_experiment(tiny_plan())
        text = dataset_to_csv(dataset)
        lines = text.splitlines()
        assert lines[0].startswith("# plan=")
        assert lines[1] == ",".join(CSV_COLUMNS)

    def test_hand_written_minimal(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text(
            ",".join(CSV_COLUMNS) + "\n"
            + "mean,schoolbook,embedded,10,589,7,SAT,0.5,3,4,\n"
        )
        dataset = load_csv(path)
        assert len(dataset.records) == 1
        r = dataset.records[0]
        assert (r.N, r.solver_seed, r.wall_time_s, r.matched_target) == (589, 7, 0.5, None)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("strategy,encoder\nmean,schoolbook\n")
        with pytest.raises(ValueError, match="n_bits"):
            load_csv(path)
