import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satfactor
from satfactor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_UNKNOWN, EXIT_USAGE, main
from satfactor.cnf import parse_dimacs, parse_solver_output, Status
from satfactor.encoder import decode

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


# The CI bare-install job runs the same line against the installed package.
LEAN_IMPORT = (
    "import sys, satfactor.cli, satfactor.bench, satfactor.analysis; "
    "heavy = sorted({'concurrent.futures', 'subprocess'} & set(sys.modules)); "
    "sys.exit(f'imported at start-up: {heavy}' if heavy else 0)"
)


def test_process_machinery_not_imported_at_start_up():
    # only bench's workers > 1 branch and solve_external start processes
    proc = _python_with_package("-c", LEAN_IMPORT, timeout=60)
    assert proc.returncode == 0, proc.stderr
