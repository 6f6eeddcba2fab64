import dataclasses
import logging
import sys

import pytest
from hypothesis import given, settings, strategies as st

from satfactor import bench
from satfactor.bench import (
    CSV_COLUMNS,
    STRATEGIES,
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
from satfactor.encoder import ALGORITHMS, DecodeError, encode, spec_for
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

    def test_solver_command_only_with_external_solver(self):
        with pytest.raises(ValueError, match="only with it"):
            tiny_plan(external_cmd="kissat")  # the embedded solver would ignore it
        with pytest.raises(ValueError, match="no solver command"):
            tiny_plan(strategy="trial_division", solver="external", external_cmd="kissat")
        assert tiny_plan(solver="external", external_cmd="kissat").external_cmd == "kissat"

    @pytest.mark.parametrize("time_limit", [-1.0, float("nan"), float("inf")])
    def test_bad_time_limit_rejected(self, time_limit):
        # a negative limit used to be accepted and write a dataset of UNKNOWN rows
        with pytest.raises(ValueError, match="time_limit"):
            tiny_plan(time_limit=time_limit)

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

    def test_repeats_warn_once_per_call(self, caplog):
        with caplog.at_level(logging.WARNING, logger="satfactor.bench"):
            instances = generate_instances(9, 8, master_seed=2)
        assert [r.getMessage() for r in caplog.records] == [
            "only 4 distinct 9-bit semi-primes found; repeating values"
        ]
        # one warning per call changes none of the values drawn
        assert [s.value for s in instances] == [437, 391, 323, 493, 391, 437, 493, 493]


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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_parallel_equals_sequential(self, strategy):
        a = run_experiment(tiny_plan(strategy=strategy), workers=1)
        b = run_experiment(tiny_plan(strategy=strategy), workers=2)
        assert strip_times(a) == strip_times(b)

    def test_pool_capped_at_task_count(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class InlinePool:  # starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        dataset = run_experiment(tiny_plan(), workers=1000)
        assert sizes == [2 * 2 * 2]  # one worker per task
        assert strip_times(dataset) == strip_times(run_experiment(tiny_plan()))

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
        [instance] = generate_instances(10, 1, plan.master_seed)
        assert dataset.records == [
            RunRecord(
                "mean", "schoolbook", "external", 10, instance.value,
                derive_seed(plan.master_seed, "solver", 10, 0, 0), Status.UNKNOWN, 0.0, 0, 0, None,
            )
        ]
        assert type(dataset.records[0].wall_time_s) is float  # written as 0.0, not 0

    def test_malformed_external_output_recorded_not_raised(self, tmp_path, caplog):
        script = tmp_path / "malformed.py"
        script.write_text("print('s SATISFIABLE')\nprint('v 1 -1 0')\n")
        plan = tiny_plan(
            bitlengths=(10,), semiprimes_per_n=1, seeds_per_instance=1,
            solver="external", external_cmd=f"{sys.executable} {script}",
        )
        dataset = run_experiment(plan)
        assert len(dataset.records) == 1
        assert dataset.records[0].status is Status.UNKNOWN
        assert "external solver failed on n=10" in caplog.text
        assert "malformed output: line 2: variable 1 given both signs" in caplog.text

    def test_external_solver_round_trip(self):
        plan = tiny_plan(
            bitlengths=(10,), semiprimes_per_n=2, seeds_per_instance=1,
            solver="external", external_cmd=EXTERNAL,
        )
        dataset = run_experiment(plan)
        assert all(r.status is Status.SAT for r in dataset.records)

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
            solver=solver, external_cmd=EXTERNAL if solver == "external" else None,
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


# every status, matched_target as None and 0, a 200-bit N, wall times whose
# repr is short, tiny and long
GOLDEN_DATASET = Dataset(
    [
        RunRecord(
            "multi_target", "karatsuba", "embedded", 12, 2491, 7, Status.SAT, 12345.678901234567, 31, 58, 0,
        ),
        RunRecord("mean", "schoolbook", "external", 200, 2**199 + 1, 2**64 - 1, Status.UNKNOWN, 0.0, 0, 0),
        RunRecord("min", "division", "embedded", 12, 4093, 3, Status.UNSAT, 1e-07, 1200, 2401, None),
        RunRecord("trial_division", "schoolbook", "trial_division", 12, 2491, 0, Status.SAT, 0.5, 0, 0),
    ],
    "f00dfeed12345678",
)

GOLDEN_CSV = """\
# plan=f00dfeed12345678
strategy,encoder,solver,n_bits,N,solver_seed,status,wall_time_s,conflicts,decisions,matched_target
multi_target,karatsuba,embedded,12,2491,7,SAT,12345.678901234567,31,58,0
mean,schoolbook,external,200,803469022129495137770981046170581301261101496891396417650689,\
18446744073709551615,UNKNOWN,0.0,0,0,
min,division,embedded,12,4093,3,UNSAT,1e-07,1200,2401,
trial_division,schoolbook,trial_division,12,2491,0,SAT,0.5,0,0,
"""


def test_csv_golden_text(tmp_path):
    assert dataset_to_csv(GOLDEN_DATASET) == GOLDEN_CSV
    path = tmp_path / "golden.csv"
    path.write_text(GOLDEN_CSV)
    assert load_csv(path) == GOLDEN_DATASET


@st.composite
def datasets(draw):
    count = st.integers(min_value=0, max_value=2**256)
    record = st.builds(
        RunRecord,
        strategy=st.sampled_from(STRATEGIES),
        encoder=st.sampled_from(ALGORITHMS),
        solver=st.sampled_from(["embedded", "external", "trial_division"]),
        n_bits=count,
        N=count,
        solver_seed=count,
        status=st.sampled_from(Status),
        wall_time_s=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        conflicts=count,
        decisions=count,
        matched_target=st.none() | st.integers(min_value=0, max_value=9),
    )
    fingerprint = draw(st.text(alphabet="0123456789abcdef", max_size=16))
    return Dataset(draw(st.lists(record, max_size=6)), fingerprint)


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_csv_round_trip_property(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    save_csv(dataset, path)
    assert load_csv(path) == dataset
