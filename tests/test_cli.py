import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satfactor
from satfactor import bench
from satfactor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_UNKNOWN, EXIT_USAGE, main
from satfactor.cnf import parse_dimacs, parse_solver_output, Status
from satfactor.encoder import ALGORITHMS, decode

EXTERNAL = f"{sys.executable} -m satfactor.cli solve"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_rows_verify(self, capsys):
        code, out, _ = run(capsys, "gen", "--bits", "12", "--count", "3", "--seed", "7")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n_bits,N,p,q"
        assert len(lines) == 4
        for line in lines[1:]:
            n_bits, n_value, p, q = map(int, line.split(","))
            assert p * q == n_value
            assert n_value.bit_length() == n_bits == 12

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--bits", "10", "--count", "2", "--seed", "3")
        _, second, _ = run(capsys, "gen", "--bits", "10", "--count", "2", "--seed", "3")
        assert first == second

    def test_bits_too_small(self, capsys):
        code, _, err = run(capsys, "gen", "--bits", "3")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "semis.csv"
        code, out, _ = run(capsys, "gen", "--bits", "10", "--count", "1", "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("n_bits,N,p,q")

    def test_json_rows_match_csv(self, capsys):
        argv = ["gen", "--bits", "14", "--count", "4", "--seed", "9"]
        _, csv_text, _ = run(capsys, *argv)
        code, json_text, _ = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(json_text)
        assert all(list(row) == ["n_bits", "N", "p", "q"] for row in rows)
        assert all(row["p"] * row["q"] == row["N"] for row in rows)
        csv_rows = [list(map(int, line.split(","))) for line in csv_text.splitlines()[1:]]
        assert [list(row.values()) for row in rows] == csv_rows


class TestWriteOutput:
    @pytest.fixture
    def umask(self):
        old = os.umask(0o027)
        yield 0o027
        os.umask(old)

    def test_new_and_replaced_file_take_umask_mode(self, capsys, tmp_path, umask):
        path = tmp_path / "semis.csv"
        for _ in range(2):  # create, then replace
            code, _, _ = run(capsys, "gen", "--bits", "10", "--out", str(path))
            assert code == EXIT_OK
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["semis.csv"]

    def test_failed_write_leaves_no_temporary_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # a file cannot replace a directory
        code, _, err = run(capsys, "gen", "--bits", "10", "--out", str(target))
        assert code == EXIT_RUNTIME
        assert err.startswith("error: ")
        assert os.listdir(tmp_path) == ["taken"]
        assert os.listdir(target) == []

    def test_curve_to_stdout(self, capsys, tmp_path):
        (tmp_path / "dataset.csv").write_text(GOLDEN_INPUTS["dataset.csv"])
        code, out, _ = run(
            capsys, "analyze", "fit", str(tmp_path / "dataset.csv"),
            "--curve", "-", "--out", str(tmp_path / "fit.json"),
        )
        assert code == EXIT_OK
        assert out.startswith("n_bits,stat_seconds,fit_seconds\n12,")
        assert len(out.splitlines()) == 4


class TestEncode:
    def test_header_matches_stats(self, capsys):
        code, out, _ = run(capsys, "encode", "--n", "35")
        assert code == EXIT_OK
        formula = parse_dimacs(out)
        header = next(line for line in out.splitlines() if line.startswith("p cnf"))
        _, _, nv, nc = header.split()
        assert (int(nv), int(nc)) == (formula.num_vars, len(formula.clauses))

    def test_targets_file(self, capsys, tmp_path):
        path = tmp_path / "targets.csv"
        run(capsys, "gen", "--bits", "10", "--count", "4", "--seed", "1", "--out", str(path))
        code, out, _ = run(capsys, "encode", "--targets", str(path))
        assert code == EXIT_OK
        target_lines = [l for l in out.splitlines() if l.startswith("c target")]
        formula = parse_dimacs(out)
        assert len(target_lines) == len(formula.varmap.targets)
        assert len(formula.varmap.sel_vars) == len(target_lines)

    def test_division_larger(self, capsys):
        _, school, _ = run(capsys, "encode", "--n", "35", "--alg", "schoolbook")
        _, division, _ = run(capsys, "encode", "--n", "35", "--alg", "division")
        assert len(parse_dimacs(division).clauses) > len(parse_dimacs(school).clauses)

    def test_fold_constants_shrinks(self, capsys):
        _, raw, _ = run(capsys, "encode", "--n", "35")
        _, folded, _ = run(capsys, "encode", "--n", "35", "--fold-constants")
        assert len(parse_dimacs(folded).clauses) < len(parse_dimacs(raw).clauses)

    def test_fold_constants_still_decodes(self, capsys, tmp_path):
        path = tmp_path / "folded.cnf"
        run(capsys, "encode", "--n", "143", "--fold-constants", "--out", str(path))
        varmap = parse_dimacs(path.read_text()).varmap
        for seed in range(20):
            code, out, _ = run(capsys, "solve", str(path), "--seed", str(seed))
            assert code == EXIT_OK
            status, assignment = parse_solver_output(out)
            assert status is Status.SAT
            p, q, _ = decode(varmap, assignment)
            assert {p, q} == {11, 13}, seed

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_fold_constants_refuted_instance_stays_unsat(self, capsys, caplog, tmp_path, alg):
        # 11 is prime, and unit propagation alone refutes its 2,2 split; the
        # folded formula would have no clauses, so the instance is written whole
        argv = ["encode", "--n", "11", "--split", "2,2", "--alg", alg]
        path = tmp_path / "f.cnf"
        code, _, _ = run(capsys, *argv, "--fold-constants", "--out", str(path))
        assert code == EXIT_OK
        assert "unsatisfiable by unit propagation alone" in caplog.text
        _, unfolded, _ = run(capsys, *argv)
        assert path.read_text() == unfolded
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_OK
        assert out == "s UNSATISFIABLE\n"

    def test_needs_target(self, capsys):
        code, _, err = run(capsys, "encode")
        assert code == EXIT_USAGE


class TestSolveCommand:
    def test_sat_output(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_OK
        status, assignment = parse_solver_output(out)
        assert status is Status.SAT
        assert assignment == {1: True, 2: True}

    def test_unsat_output(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EXIT_OK
        assert parse_solver_output(out) == (Status.UNSAT, None)

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("p cnf -1 0\n", 1),
            ("c varmap p 1 1\np cnf 1 1\n1 0\n", 3),
            ("c varmap p 0 99\np cnf 1 1\n1 0\n", 1),
        ],
    )
    def test_bad_instance_reports_line(self, capsys, tmp_path, text, line_no):
        path = tmp_path / "f.cnf"
        path.write_text(text)
        code, _, err = run(capsys, "solve", str(path))
        assert code == EXIT_RUNTIME
        assert err.startswith(f"error: line {line_no}: ")


class TestFactor:
    def test_35(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "35")
        assert code == EXIT_OK
        assert out.strip() == "35 = 5 * 7"

    def test_prime(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "13")
        assert code == EXIT_OK
        assert out.strip() == "no factorization"

    @pytest.mark.parametrize(
        "args, widths",
        [
            (["--n", "3063"], "6,6 or 6,7"),  # 3 * 1021
            (["--n", "1022"], "5,5 or 5,6"),  # 2 * 7 * 73
            (["--n", "899", "--split", "5,6"], "5,6"),  # 29 * 31, outside the given split
        ],
    )
    def test_composite_outside_searched_widths(self, capsys, args, widths):
        code, out, _ = run(capsys, "factor", *args)
        assert code == EXIT_OK
        n = args[1]
        assert out.strip() == f"no factorization with factor bitlengths {widths} ({n} is not prime)"

    def test_143(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "143")
        assert code == EXIT_OK
        assert out.strip() == "143 = 11 * 13"

    def test_output_remultiplies(self, capsys):
        for n in (15, 21, 35, 55, 143, 899):
            code, out, _ = run(capsys, "factor", "--n", str(n))
            assert code == EXIT_OK
            left, right = out.strip().split(" = ")
            p, q = map(int, right.split(" * "))
            assert p * q == int(left)

    def test_odd_bitlength_secondary_split(self, capsys):
        # 55 = 5 * 11 has factor bitlengths (3, 4); the balanced split fails
        code, out, _ = run(capsys, "factor", "--n", "55")
        assert code == EXIT_OK
        assert out.strip() == "55 = 5 * 11"

    def test_timeout_unknown(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "899", "--time-limit", "0.0")
        assert code == EXIT_UNKNOWN
        assert out.strip() == "unknown"

    def test_division_alg(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "35", "--alg", "division")
        assert code == EXIT_OK
        assert out.strip() == "35 = 5 * 7"

    def test_external_solver(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "143", "--solver-cmd", EXTERNAL)
        assert code == EXIT_OK
        assert out.strip() == "143 = 11 * 13"

    def test_external_solver_prime(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "13", "--solver-cmd", EXTERNAL)
        assert code == EXIT_OK
        assert out.strip() == "no factorization"

    def test_external_solver_missing(self, capsys):
        code, _, err = run(capsys, "factor", "--n", "143", "--solver-cmd", "/nonexistent/solver")
        assert code == EXIT_RUNTIME
        assert "error" in err

    def test_external_solver_malformed_output(self, capsys, tmp_path):
        script = tmp_path / "malformed.py"
        script.write_text("print('s SATISFIABLE')\nprint('v 1 0 2 0')\n")
        code, _, err = run(capsys, "factor", "--n", "143", "--solver-cmd", f"{sys.executable} {script}")
        assert code == EXIT_RUNTIME
        assert "malformed output: line 2: literal '2' after the terminating 0" in err


class TestBenchAnalyzeEstimate:
    def test_pipeline(self, capsys, tmp_path):
        ds_path = tmp_path / "results.csv"
        code, _, _ = run(
            capsys, "bench", "--bits", "10:14:2", "--per-n", "2", "--seeds", "2",
            "--strategy", "mean", "--seed", "5", "--out", str(ds_path),
        )
        assert code == EXIT_OK
        text = ds_path.read_text()
        assert text.startswith("# plan=")
        assert len(text.splitlines()) == 2 + 3 * 2 * 2  # comment+header+rows

        curve_path = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "analyze", "fit", str(ds_path), "--curve", str(curve_path),
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert {"slope", "intercept", "r2"} <= set(report)
        assert report["reference_ops_model"] == {"slope": 0.495, "log2_intercept": 16.8}
        assert curve_path.read_text().startswith("n_bits,stat_seconds,fit_seconds")

    def test_bench_row_count_example(self, capsys, tmp_path):
        ds_path = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "bench", "--bits", "10:18:2", "--per-n", "5", "--seeds", "3",
            "--strategy", "mean", "--out", str(ds_path),
        )
        assert code == EXIT_OK
        rows = [l for l in ds_path.read_text().splitlines() if not l.startswith(("#", "strategy"))]
        assert len(rows) == 5 * 3 * 5

    def test_trial_division_rejects_solver_command(self, capsys, tmp_path):
        ds_path = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "bench", "--bits", "10", "--strategy", "trial_division",
            "--solver-cmd", "kissat", "--out", str(ds_path),
        )
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err == "error: trial_division runs no SAT solver, so it takes no solver command\n"
        assert not ds_path.exists()

    def test_bench_has_no_min_strategy(self, capsys):
        # the statistic over seeds is analyze fit's --stat, not a strategy
        code, _, err = run(capsys, "bench", "--bits", "10", "--strategy", "min")
        assert code == EXIT_USAGE
        assert "invalid choice: 'min'" in err

    def test_analyze_community(self, capsys):
        code, out, _ = run(capsys, "analyze", "community", "--bits", "16")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["q"] > 0.12
        assert report["vertices"] > 0

    def test_analyze_correlate(self, capsys, tmp_path):
        ds_path = tmp_path / "c.csv"
        run(
            capsys, "bench", "--bits", "12,14", "--per-n", "5", "--seeds", "2",
            "--seed", "2", "--out", str(ds_path),
        )
        code, out, _ = run(capsys, "analyze", "correlate", str(ds_path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report["metrics"]) == {
            "hw_n", "hw_p", "hw_q", "hw_pxq", "smooth_p1", "smooth_q1", "abs_diff", "log2_n",
        }
        for entry in report["metrics"].values():
            assert -1.0 <= entry["mean_r"] <= 1.0

    def test_estimate_768(self, capsys):
        code, out, _ = run(capsys, "estimate", "--bits", "768", "--quantum-rate", "1e40")
        assert code == EXIT_OK
        report = json.loads(out)
        assert 33 <= report["universe_lifetimes"] <= 300
        assert report["nfs_log2_ops"] < report["quantum_log2_ops"]

    def test_estimate_help_lists_fit(self, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        out = capsys.readouterr().out
        assert "--fit" in out
        assert "--slope" not in out and "--intercept" not in out

    def test_fit_composes_with_estimate(self, capsys, tmp_path):
        # analyze fit's line, read back by estimate, is the same line
        (tmp_path / "dataset.csv").write_text(GOLDEN_INPUTS["dataset.csv"])
        fit_path = tmp_path / "f.json"
        code, _, _ = run(capsys, "analyze", "fit", str(tmp_path / "dataset.csv"), "--out", str(fit_path))
        assert code == EXIT_OK
        fit = json.loads(fit_path.read_text())
        code, out, _ = run(capsys, "estimate", "--bits", "16", "--fit", str(fit_path))
        assert code == EXIT_OK
        seconds = json.loads(out)["classical_log2_seconds"]
        assert abs(seconds - (fit["slope"] * 16 + fit["intercept"])) < 1e-9

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"intercept": -14.8, "r2": 0.99}', "needs slope as a finite number, got None"),
            (b'{"slope": 0.72, "r2": 0.99}', "needs intercept as a finite number, got None"),
            (b'{"slope": "0.72", "intercept": -14.8, "r2": 0.99}', "needs slope as a finite number, got '0.72'"),
            (b'{"slope": 0.72, "intercept": true, "r2": 0.99}', "needs intercept as a finite number, got True"),
            (b'{"slope": NaN, "intercept": -14.8, "r2": 0.99}', "needs slope as a finite number, got nan"),
            (b'{"slope": 0.72, "intercept": -14.8, "r2": 0.99, "slope": Infinity}', "needs slope as a finite number, got inf"),
            (b"[0.72, -14.8, 0.99]", "needs slope as a finite number, got None"),
            (b"slope,intercept\n0.72,-14.8\n", "not JSON: "),
            (b"\xff\xfe", "not JSON: "),
        ],
    )
    def test_estimate_bad_fit_file(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad-fit.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "estimate", "--bits", "16", "--fit", str(path))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err.startswith(f"error: {path}: {message}")

    def test_estimate_missing_fit_file(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, _, err = run(capsys, "estimate", "--bits", "16", "--fit", str(path))
        assert code == EXIT_RUNTIME
        assert err.startswith("error: ") and str(path) in err

    def test_estimate_past_float_range(self):
        # 2^(lifetimes) overflows a float near 4,880 bits at the default model
        proc = _python_with_package("-m", "satfactor.cli", "estimate", "--bits", "4900", timeout=60)
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert proc.stderr == "error: universe lifetimes at 4900 bits exceed the float range\n"

    @pytest.mark.parametrize("option", ["--classical-rate", "--quantum-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_estimate_non_finite_rate(self, capsys, option, value):
        # NaN and Infinity are not JSON, so no report is printed
        code, out, err = run(capsys, "estimate", "--bits", "768", f"{option}={value}")
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err == "error: rates must be positive and finite\n"

    def test_estimate_bitlength_beyond_float_range(self):
        bits = "1" + "0" * 400
        proc = _python_with_package("-m", "satfactor.cli", "estimate", "--bits", bits, timeout=60)
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert proc.stderr == f"error: costs at {bits} bits exceed the float range\n"

    def test_estimate_negative_fit_past_float_range(self, tmp_path):
        # slope * bits reaches -inf, which would print -Infinity, not JSON
        fit = tmp_path / "fit.json"
        fit.write_text('{"slope": -1e300, "intercept": 0, "r2": 1}')
        proc = _python_with_package(
            "-m", "satfactor.cli", "estimate", "--bits", "1000000000", "--fit", str(fit), timeout=60,
        )
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stdout == ""
        assert proc.stderr == "error: costs at 1000000000 bits exceed the float range\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bench_workers_below_one(self, capsys, tmp_path, workers):
        out_path = tmp_path / "bench.csv"
        code, out, err = run(
            capsys, "bench", "--bits", "10", "--per-n", "1", "--seeds", "1",
            f"--workers={workers}", "--out", str(out_path),
        )
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err == "error: workers must be >= 1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_fit_non_finite_wall_time(self, capsys, tmp_path, value):
        # NaN and Infinity are not JSON, so no fit is printed
        path = tmp_path / "dataset.csv"
        rows = [
            f"mean,schoolbook,embedded,{n},{big_n},1,SAT,{t},3,4,"
            for n, big_n, t in ((10, 589, "0.5"), (12, 2173, value), (14, 8927, "0.9"))
        ]
        path.write_text(
            "# plan=f00dfeed12345678\n" + ",".join(bench.CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n"
        )
        code, out, err = run(capsys, "analyze", "fit", str(path))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err == f"error: non-positive or non-finite time {value}\n"

    @pytest.mark.parametrize("row, message", [
        ("mean,schoolbook,embedded,10,589,7,SAT,0.5,3,4", "expected 11 fields, got 10"),
        ("mean,schoolbook,embedded,10,589,7,SAT,0.5,3,4,,x", "expected 11 fields, got 12"),
        ("mean,schoolbook,embedded,10,589,7,MAYBE,0.5,3,4,", "'MAYBE' is not a valid Status"),
        # Python's int would read 10 and 589
        ("mean,schoolbook,embedded,1_0,589,7,SAT,0.5,3,4,", "invalid literal for int() with base 10: '1_0'"),
        ("mean,schoolbook,embedded,10,٥٨٩,7,SAT,0.5,3,4,",
         "invalid literal for int() with base 10: '٥٨٩'"),
        # Python's float would read 5.0, 0.7, 1.5 and inf
        ("mean,schoolbook,embedded,10,589,7,SAT,0_5,3,4,", "could not convert string to float: '0_5'"),
        ("mean,schoolbook,embedded,10,589,7,SAT,٠.٧,3,4,", "could not convert string to float: '٠.٧'"),
        ("mean,schoolbook,embedded,10,589,7,SAT, 1.5 ,3,4,", "could not convert string to float: ' 1.5 '"),
        ("mean,schoolbook,embedded,10,589,7,SAT,Infinity,3,4,",
         "could not convert string to float: 'Infinity'"),
    ], ids=[
        "too-few-fields", "too-many-fields", "bad-status", "underscore", "arabic-indic-digits",
        "underscore-time", "arabic-indic-time", "spaced-time", "infinity-time",
    ])
    def test_malformed_dataset_row_named(self, capsys, tmp_path, row, message):
        # the # plan= line counts, so the row after a good one is line 4
        path = tmp_path / "dataset.csv"
        path.write_text(
            "# plan=f00dfeed12345678\n" + ",".join(bench.CSV_COLUMNS) + "\n"
            + "mean,schoolbook,embedded,10,589,7,SAT,0.5,3,4,\n" + row + "\n"
        )
        code, out, err = run(capsys, "analyze", "fit", str(path))
        assert code == EXIT_RUNTIME
        assert out == ""
        assert err == f"error: {path}: line 4: {message}\n"

    def test_missing_dataset_runtime_error(self, capsys):
        code, _, err = run(capsys, "analyze", "fit", "/nonexistent.csv")
        assert code == 2
        assert "error" in err


# Blocks numpy, imports every satfactor module, then benches a small dataset
# and analyzes it; prints the exit codes.
WITHOUT_NUMPY = """
import importlib, json, pkgutil, sys
sys.modules["numpy"] = None
import satfactor
for module in pkgutil.iter_modules(satfactor.__path__):
    importlib.import_module("satfactor." + module.name)
from satfactor.cli import main
dataset = sys.argv[1]
codes = [
    main(["bench", "--bits", "10:14:2", "--per-n", "4", "--seeds", "2", "--seed", "3", "--out", dataset]),
    main(["analyze", "fit", dataset, "--out", dataset + ".fit.json"]),
    main(["analyze", "correlate", dataset, "--out", dataset + ".pearson.json"]),
    main(["analyze", "correlate", dataset, "--method", "spearman", "--out", dataset + ".spearman.json"]),
]
print(json.dumps(codes))
"""


def _python_with_package(*args, timeout=300):
    """Run a fresh interpreter that imports this checkout's satfactor."""
    pythonpath = [str(Path(satfactor.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestWithoutNumpy:
    def test_bench_and_analyze(self, tmp_path):
        dataset = tmp_path / "results.csv"
        proc = _python_with_package("-c", WITHOUT_NUMPY, str(dataset))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * 4
        fit = json.loads((tmp_path / "results.csv.fit.json").read_text())
        assert 0.0 <= fit["r2"] <= 1.0
        for method in ("pearson", "spearman"):
            report = json.loads((tmp_path / f"results.csv.{method}.json").read_text())
            assert report["method"] == method
            assert len(report["metrics"]) == 8


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "gen", "--bits", "10", "--frobnicate")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == EXIT_USAGE

    def test_bad_bit_range(self, capsys):
        code, _, _ = run(capsys, "bench", "--bits", "18:10", "--out", "-")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("bits", ["10,x", ":", "10:x"])
    def test_non_integer_bits(self, capsys, bits):
        code, _, err = run(capsys, "bench", "--bits", bits, "--out", "-")
        assert code == EXIT_USAGE
        assert "bad bit" in err

    def test_non_integer_split(self, capsys):
        code, _, err = run(capsys, "factor", "--n", "143", "--split", "2,x")
        assert code == EXIT_USAGE
        assert "bad split" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "f.cnf"],
            ["factor", "--n", "35"],
            ["factor", "--n", "35", "--solver-cmd", EXTERNAL],
            ["bench", "--bits", "10", "--per-n", "1", "--seeds", "1", "--out", "bench.csv"],
        ],
        ids=["solve", "factor", "factor-external", "bench"],
    )
    @pytest.mark.parametrize("value", ["nan", "-1", "-0.5", "inf", "-inf", "soon"])
    def test_bad_time_limit(self, capsys, tmp_path, monkeypatch, command, value):
        # NaN was ignored by the embedded solver and crashed the external
        # route; a negative limit gave UNKNOWN: now each is a usage error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.cnf").write_text("p cnf 1 1\n1 0\n")
        code, out, err = run(capsys, *command, f"--time-limit={value}")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"usage error: argument --time-limit: expected a finite number of seconds >= 0, got {value!r}\n"
        )
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("value", ["0", "0.0"])
    def test_zero_time_limit_unknown(self, capsys, tmp_path, value):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        code, out, _ = run(capsys, "solve", str(path), "--time-limit", value)
        assert code == EXIT_UNKNOWN
        assert parse_solver_output(out) == (Status.UNKNOWN, None)
        out_path = tmp_path / "bench.csv"
        code, _, err = run(
            capsys, "bench", "--bits", "10", "--per-n", "1", "--seeds", "2",
            "--time-limit", value, "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert err == "note: 2 runs returned UNKNOWN\n"
        assert [row.status for row in bench.load_csv(str(out_path)).records] == [Status.UNKNOWN] * 2


# The CI bare-install job runs the same line against the installed package.
LEAN_IMPORT = (
    "import sys, satfactor.cli, satfactor.bench, satfactor.analysis; "
    "heavy = sorted({'concurrent.futures', 'subprocess', 'tempfile', 'shutil', 'bz2', 'lzma'} "
    "& set(sys.modules)); "
    "sys.exit(f'imported at start-up: {heavy}' if heavy else 0)"
)


def test_process_machinery_not_imported_at_start_up():
    # only bench's workers > 1 branch and solve_external start processes or
    # make temporary files; -S keeps site packages from loading these first
    proc = _python_with_package("-S", "-c", LEAN_IMPORT, timeout=60)
    assert proc.returncode == 0, proc.stderr


# Hand-written inputs for the golden-output cases: a dataset with three
# bitlengths of four semi-primes each (one UNKNOWN row), a two-target CSV,
# three small instances (the SAT one has 14 variables, so its model spans
# two v lines) and the dataset's fit.  No input may share a name with a
# file a case writes: _golden_outputs hashes only files not named here.
GOLDEN_INPUTS = {
    "dataset.csv": """\
# plan=handwritten
strategy,encoder,solver,n_bits,N,solver_seed,status,wall_time_s,conflicts,decisions,matched_target
mean,schoolbook,embedded,12,2173,1,SAT,0.011,5,20,
mean,schoolbook,embedded,12,2173,2,SAT,0.013,7,22,
mean,schoolbook,embedded,12,2279,1,SAT,0.017,9,31,
mean,schoolbook,embedded,12,2501,1,SAT,0.012,6,25,
mean,schoolbook,embedded,12,3127,1,SAT,0.021,12,40,
mean,schoolbook,embedded,14,8927,1,SAT,0.034,20,61,
mean,schoolbook,embedded,14,9991,1,SAT,0.041,25,70,
mean,schoolbook,embedded,14,9991,2,UNKNOWN,0.5,300,900,
mean,schoolbook,embedded,14,10379,1,SAT,0.029,17,55,
mean,schoolbook,embedded,14,10961,1,SAT,0.052,31,88,
mean,schoolbook,embedded,16,33823,1,SAT,0.081,44,130,
mean,schoolbook,embedded,16,37399,1,SAT,0.12,70,190,
mean,schoolbook,embedded,16,45431,1,SAT,0.095,52,150,
mean,schoolbook,embedded,16,56153,1,SAT,0.14,81,230,
""",
    "targets.csv": "n_bits,N,p,q\n8,143,11,13\n8,221,13,17\n",
    "sat.cnf": "p cnf 14 14\n" + "".join(f"{v if v % 3 else -v} 0\n" for v in range(1, 15)),
    "unsat.cnf": "p cnf 1 2\n1 0\n-1 0\n",
    "empty.cnf": "p cnf 0 0\n",
    # what `analyze fit dataset.csv` prints (the fit-stdout case)
    "measured-fit.json": """\
{
  "slope": 0.722552963615472,
  "intercept": -14.803194930207724,
  "r2": 0.9991203632601091,
  "stat": "mean",
  "per_instance_points": 12,
  "curve": [
    {
      "n_bits": 12,
      "seconds": 0.0145
    },
    {
      "n_bits": 14,
      "seconds": 0.037500000000000006
    },
    {
      "n_bits": 16,
      "seconds": 0.1075
    }
  ],
  "reference_ops_model": {
    "slope": 0.495,
    "log2_intercept": 16.8
  }
}
""",
}

# Each case's command line, run in a directory holding GOLDEN_INPUTS; file
# arguments are relative to it.  GOLDEN_DIGESTS pins the SHA-256 of stdout
# and of each file the command writes; a bench dataset is hashed with its
# measured wall_time_s column blanked.
GOLDEN_CASES = {
    "gen-csv": ["gen", "--bits", "16", "--count", "5", "--seed", "3"],
    "gen-csv-out": ["gen", "--bits", "16", "--count", "5", "--seed", "3", "--out", "semis.csv"],
    "gen-json": ["gen", "--bits", "16", "--count", "5", "--seed", "3", "--format", "json"],
    "encode": ["encode", "--n", "143"],
    "encode-targets": ["encode", "--targets", "targets.csv", "--out", "multi.cnf"],
    "encode-fold": ["encode", "--n", "899", "--alg", "karatsuba", "--fold-constants"],
    "solve-sat": ["solve", "sat.cnf"],
    "solve-unsat": ["solve", "unsat.cnf"],
    "solve-empty": ["solve", "empty.cnf"],
    "factor": ["factor", "--n", "899", "--seed", "4"],
    "factor-prime": ["factor", "--n", "61"],
    "bench": ["bench", "--bits", "10,12", "--per-n", "2", "--seeds", "2", "--seed", "5", "--out", "bench.csv"],
    "bench-trial-division": ["bench", "--bits", "10", "--per-n", "3", "--strategy", "trial_division"],
    "fit": ["analyze", "fit", "dataset.csv", "--stat", "median", "--curve", "curve.csv", "--out", "fit.json"],
    "fit-stdout": ["analyze", "fit", "dataset.csv"],
    "community": ["analyze", "community", "--bits", "16", "--seed", "2"],
    "community-simplified": ["analyze", "community", "--bits", "16", "--alg", "division", "--simplified"],
    "correlate": ["analyze", "correlate", "dataset.csv"],
    "correlate-spearman": ["analyze", "correlate", "dataset.csv", "--method", "spearman", "--out", "rho.json"],
    "estimate": ["estimate", "--bits", "768"],
    "estimate-fit": ["estimate", "--bits", "256", "--fit", "measured-fit.json"],
}

GOLDEN_DIGESTS = {
    "bench": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bench.csv": "12bd1b2513e867a475a27fa11baa67e44fcd5c4be0b6ffa65a44e2be87e27f60",
    },
    "bench-trial-division": {
        "stdout": "bc96ce83f93c8691ba26a15cc18d47f486dabd2624d51c39a2c6ce43a98e36d6",
    },
    "community": {
        "stdout": "ee23f166c14a1393dad73e9b99b15e581c54209818acf0a4b59abaf38eadc240",
    },
    "community-simplified": {
        "stdout": "72b51331c2f7e1746c547e8baf63fe7cc89d850a76ddd978f12e270645e0fda6",
    },
    "correlate": {
        "stdout": "aa73af5deb74ea36af8f4fb61ad10c6bd755f3b02183a41842b36aca3e5ac6c7",
    },
    "correlate-spearman": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rho.json": "fd2812ac39fdfd284b074d854d251f2dd7fb07900d3f9fc180060105f0b2fb79",
    },
    "encode": {
        "stdout": "53d6a7016ac882e91a145a3817e9cd11a03519028c278aadfe452780178db0f5",
    },
    "encode-fold": {
        "stdout": "5af473f2b2825d7cc4f8ee423b5240f47352671c6a873d32475a22d424f00ab1",
    },
    "encode-targets": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "multi.cnf": "3229579746dee6daa5260cd37bb7de8e969ba7978326378dbc90ac866bdf64ac",
    },
    "estimate": {
        "stdout": "6fd854a452366f596b632bd397a779c4d2fdd2b6f7529c427a13e831fc3f4980",
    },
    "estimate-fit": {
        "stdout": "73a97be517f2940b879d0205bda9ec06d6a32e3db0aa0797cad5d172b7f664dc",
    },
    "factor": {
        "stdout": "f18a40df4c80545650cf6186bd6395bf3a1b8fb8c1852645a92dbf57352ca3f5",
    },
    "factor-prime": {
        "stdout": "4f5afaee8f67d188824ba614837cde419c87b91c09e318782d42e2d6e39907d7",
    },
    "fit": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "curve.csv": "65ecd5bf515de5384357765717bba0073e1201ce5bf1a5d99ecc0aae41a82e90",
        "fit.json": "1974575ef27e9fdbe0b29fb07ef3d8336351e618bb750436be1e758f8bf81f24",
    },
    "fit-stdout": {
        "stdout": "eb900f5d54163fc3971399bce023d6d55f94989666c66401ac1d427104067ec7",
    },
    "gen-csv": {
        "stdout": "7c03a5b7074655ae08fadf37e774c28723855688233b41a3b2833c29ce87d58e",
    },
    "gen-csv-out": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "semis.csv": "7c03a5b7074655ae08fadf37e774c28723855688233b41a3b2833c29ce87d58e",
    },
    "gen-json": {
        "stdout": "4b8a90e2be7b9b0a8e2d75280df478454d7123575bdfd7d0099e32ae1089fe5a",
    },
    "solve-empty": {
        "stdout": "6719b978661aaf7b573c8843223bc67c6418a3d83b3a3e70cb9b4cb748ebac9d",
    },
    "solve-sat": {
        "stdout": "cd05d48145908161d14cda25ef898dfff33b9333f2c3fa15893ebacc5ce57a1d",
    },
    "solve-unsat": {
        "stdout": "bde6e1eede96772c07c8ce29fd18088863815bd043aa59a06f11f5838cf8a162",
    },
}


def _blank_wall_times(text):
    column = bench.CSV_COLUMNS.index("wall_time_s")
    lines = []
    for line in text.splitlines(keepends=True):
        fields = line.split(",")
        if len(fields) == len(bench.CSV_COLUMNS) and fields[column] != "wall_time_s":
            fields[column] = ""
        lines.append(",".join(fields))
    return "".join(lines)


def _golden_outputs(capsys, tmp_path, monkeypatch, argv):
    """Run one command in a directory of the golden inputs; return its exit
    code and the SHA-256 of stdout and of every file it wrote."""
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    outputs = {"stdout": out}
    for path in sorted(tmp_path.iterdir()):
        if path.name not in GOLDEN_INPUTS:
            outputs[path.name] = path.read_bytes().decode()
    if argv[0] == "bench":
        outputs = {name: _blank_wall_times(text) for name, text in outputs.items()}
    return code, {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_outputs(capsys, tmp_path, monkeypatch, case):
    code, digests = _golden_outputs(capsys, tmp_path, monkeypatch, GOLDEN_CASES[case])
    assert code == EXIT_OK
    assert digests == GOLDEN_DIGESTS[case]


def test_measured_fit_input_is_the_fit_stdout_case():
    digest = hashlib.sha256(GOLDEN_INPUTS["measured-fit.json"].encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS["fit-stdout"]["stdout"]
