import hashlib
import os
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest

from satfactor.cnf import Formula, Status, evaluate
from satfactor.encoder import decode, encode, spec_for
from satfactor.numtheory import gen_semiprime
from satfactor.solver import (
    SolverConfig,
    SolverOutputError,
    SolverSpawnError,
    _Cdcl,
    luby,
    solve,
    solve_external,
)


def truth_table_status(formula):
    """Oracle: enumerate all assignments, vectorized over numpy."""
    v = formula.num_vars
    rows = np.arange(1 << v, dtype=np.uint32)
    alive = np.ones(1 << v, dtype=bool)
    for clause in formula.clauses:
        mask = np.zeros(1 << v, dtype=bool)
        for lit in clause:
            bit = (rows >> (abs(lit) - 1)) & 1
            mask |= bit == (1 if lit > 0 else 0)
        alive &= mask
        if not alive.any():
            return Status.UNSAT
    return Status.SAT


def random_3cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Formula(num_vars, clauses)


class TestLuby:
    def test_sequence(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_one_based(self):
        with pytest.raises(ValueError):
            luby(0)


class TestSolveBasics:
    def test_single_unit_sat(self):
        result = solve(Formula(1, [(1,)]))
        assert result.status is Status.SAT
        assert result.assignment == {1: True}

    def test_contradiction_unsat(self):
        assert solve(Formula(1, [(1,), (-1,)])).status is Status.UNSAT

    def test_empty_formula_sat(self):
        result = solve(Formula(3, []))
        assert result.status is Status.SAT
        assert set(result.assignment) == {1, 2, 3}

    def test_factor_35_end_to_end(self):
        s = gen_semiprime(6, seed=0)
        formula, varmap = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=1))
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}

    def test_model_satisfies_formula(self):
        rng = random.Random(0)
        for _ in range(20):
            formula = random_3cnf(rng, 12, 40)
            result = solve(formula, SolverConfig(seed=7))
            if result.status is Status.SAT:
                assert evaluate(formula, result.assignment)


class TestOracleEquivalence:
    @pytest.mark.slow
    def test_200_random_formulas(self):
        rng = random.Random(1234)
        sat = unsat = 0
        for _ in range(200):
            num_vars = rng.randint(5, 20)
            ratio = rng.uniform(3.0, 5.0)
            formula = random_3cnf(rng, num_vars, max(1, round(ratio * num_vars)))
            expected = truth_table_status(formula)
            result = solve(formula, SolverConfig(seed=42))
            assert result.status is expected
            if expected is Status.SAT:
                sat += 1
                assert evaluate(formula, result.assignment)
            else:
                unsat += 1
        # the ratio window straddles the phase transition; both outcomes occur
        assert sat > 20 and unsat > 20


class TestDeterminismAndSeeds:
    def test_identical_runs(self):
        s = gen_semiprime(18, seed=5)
        formula, _ = encode(spec_for([s.value], split=s.split))
        a = solve(formula, SolverConfig(seed=9))
        b = solve(formula, SolverConfig(seed=9))
        assert (a.status, a.conflicts, a.decisions, a.propagations) == (
            b.status, b.conflicts, b.decisions, b.propagations,
        )
        assert a.assignment == b.assignment

    def test_seed_changes_search(self):
        s = gen_semiprime(20, seed=11)
        formula, _ = encode(spec_for([s.value], split=s.split))
        counts = {solve(formula, SolverConfig(seed=s)).conflicts for s in range(50)}
        assert len(counts) >= 2

    def test_statuses_agree_across_seeds(self):
        s = gen_semiprime(14, seed=2)
        formula, varmap = encode(spec_for([s.value], split=s.split))
        for seed in range(10):
            result = solve(formula, SolverConfig(seed=seed))
            assert result.status is Status.SAT
            p, q, _ = decode(varmap, result.assignment)
            assert p * q == s.value


def model_digest(assignment):
    if assignment is None:
        return None
    true_vars = ",".join(str(v) for v in sorted(assignment) if assignment[v])
    return hashlib.sha256(true_vars.encode()).hexdigest()[:16]


class TestGoldenCounters:
    """Search counters pinned to recorded values.

    A change to the hot loops that is meant to be implementation-only must
    leave every branching choice, propagation and learnt clause as it was,
    so these counters may not move.
    """

    @pytest.mark.parametrize(
        "n, split, seed, conflict_limit, expected",
        [
            (191117, (9, 9), 0, None, ("SAT", 28, 32, 2645, "ccfbc6a8e65c39d9")),
            (191117, (9, 9), 1, None, ("SAT", 119, 181, 6988, "c670d636e01bc16a")),
            (191117, (9, 9), 2, None, ("SAT", 26, 35, 1922, "ccfbc6a8e65c39d9")),
            (1228109, (10, 11), 0, None, ("UNSAT", 556, 727, 52150, None)),
            (12218671, (12, 12), 0, 50, ("UNKNOWN", 50, 58, 6855, None)),
            pytest.param(
                33554467, (13, 13), 1, None, ("UNSAT", 4779, 6209, 606073, None),
                marks=pytest.mark.slow,
                id="prime26-reduce-and-rescale",
            ),
        ],
    )
    def test_counters(self, n, split, seed, conflict_limit, expected):
        formula, _ = encode(spec_for([n], split=split))
        result = solve(formula, SolverConfig(seed=seed, conflict_limit=conflict_limit))
        got = (
            result.status.name,
            result.conflicts,
            result.decisions,
            result.propagations,
            model_digest(result.assignment),
        )
        assert got == expected


class _ReferenceBranching(_Cdcl):
    """Checks every branching pick against a brute-force argmax."""

    def __init__(self, formula, cfg):
        super().__init__(formula, cfg)
        self.picks = 0
        self.rescales = 0

    def _rescale_activity(self):
        self.rescales += 1
        super()._rescale_activity()

    def _pick_branch_var(self):
        variables = range(1, self.nvars + 1)
        activity = self.activity
        unassigned = {v for v in variables if self.lit_val[2 * v] == 2}
        queued = {v for v in variables if self.queued[v]}
        live = Counter(v for neg_act, v in self.heap if -neg_act == activity[v])
        # one live entry per variable, flagged, and one for every unassigned variable
        assert max(live.values(), default=1) == 1
        assert unassigned <= queued == set(live)
        expected = max(unassigned, key=lambda v: (activity[v], -v), default=None)
        var = super()._pick_branch_var()
        assert var == expected
        self.picks += 1
        return var


class TestBranchingReference:
    @pytest.mark.parametrize(
        "n, split, seed",
        [(191117, (9, 9), 1), (1228109, (10, 11), 0), (40301, (8, 8), 3)],
    )
    def test_picks_match_argmax(self, n, split, seed):
        formula, _ = encode(spec_for([n], split=split))
        solver = _ReferenceBranching(formula, SolverConfig(seed=seed))
        result = solver.solve()
        plain = solve(formula, SolverConfig(seed=seed))
        assert solver.picks > 0
        assert (result.status, result.conflicts, result.decisions, result.propagations) == (
            plain.status, plain.conflicts, plain.decisions, plain.propagations,
        )

    def test_picks_match_argmax_across_rescale(self):
        formula, _ = encode(spec_for([1228109], split=(11, 11)))
        solver = _ReferenceBranching(formula, SolverConfig(seed=2))
        solver.var_inc = 1e100  # the second conflict's bumps pass the rescale threshold
        result = solver.solve()
        assert result.status is Status.UNSAT
        assert solver.rescales >= 1
        assert solver.picks > 0


class TestLimits:
    def test_conflict_limit_unknown(self):
        s = gen_semiprime(20, seed=3)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, conflict_limit=1))
        assert result.status is Status.UNKNOWN
        assert result.assignment is None

    def test_time_limit_zero_unknown(self):
        s = gen_semiprime(20, seed=4)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, time_limit=0.0))
        assert result.status is Status.UNKNOWN

    def test_generous_limits_still_solve(self):
        s = gen_semiprime(10, seed=5)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, conflict_limit=10**6, time_limit=60.0))
        assert result.status is Status.SAT


def _running(pid):
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # gone since the kill, or no procfs to tell a zombie
        return not os.path.isdir("/proc")


EXTERNAL = f"{sys.executable} -m satfactor.cli solve"


class TestSolveExternal:
    def test_trivial_sat(self):
        result = solve_external(EXTERNAL, Formula(1, [(1,)]))
        assert result.status is Status.SAT
        assert result.assignment == {1: True}

    def test_unsat(self):
        result = solve_external(EXTERNAL, Formula(1, [(1,), (-1,)]))
        assert result.status is Status.UNSAT

    def test_factoring_instance(self):
        s = gen_semiprime(12, seed=6)
        formula, varmap = encode(spec_for([s.value], split=s.split))
        result = solve_external(EXTERNAL, formula, time_limit=120)
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        assert p * q == s.value

    @pytest.mark.slow
    def test_agrees_with_embedded_on_random_formulas(self):
        rng = random.Random(77)
        for _ in range(100):
            formula = random_3cnf(rng, 20, round(rng.uniform(3.0, 5.0) * 20))
            embedded = solve(formula, SolverConfig(seed=0))
            external = solve_external(EXTERNAL, formula, time_limit=120)
            assert embedded.status is external.status

    def test_zero_time_limit_unknown(self):
        s = gen_semiprime(16, seed=7)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve_external(EXTERNAL, formula, time_limit=0.0)
        assert result.status is Status.UNKNOWN
        assert result.wall_time < 0.05

    def test_timeout_kills_child(self, tmp_path):
        script = tmp_path / "sleeper.py"
        script.write_text("import time\ntime.sleep(60)\n")
        formula = Formula(1, [(1,)])
        result = solve_external(f"{sys.executable} {script}", formula, time_limit=0.3)
        assert result.status is Status.UNKNOWN
        assert result.wall_time < 10

    def test_timeout_kills_process_group(self, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        script = tmp_path / "wrapper.sh"
        script.write_text(f"sleep 30 &\necho $! > {pid_file}\nsleep 30\n")
        result = solve_external(f"sh {script}", Formula(1, [(1,)]), time_limit=0.5)
        assert result.status is Status.UNKNOWN
        grandchild = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while _running(grandchild) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(grandchild)

    def test_spawn_failure(self):
        with pytest.raises(SolverSpawnError):
            solve_external("/nonexistent/solver-binary", Formula(1, [(1,)]))

    def test_unparseable_output_nonzero_exit(self, tmp_path):
        script = tmp_path / "broken.py"
        script.write_text("import sys\nprint('segfault-ish noise')\nsys.exit(1)\n")
        with pytest.raises(SolverOutputError):
            solve_external(f"{sys.executable} {script}", Formula(1, [(1,)]))

    def test_verdict_trusted_over_exit_code(self, tmp_path):
        script = tmp_path / "competition.py"
        script.write_text(
            "import sys\nprint('s SATISFIABLE')\nprint('v 1 0')\nsys.exit(10)\n"
        )
        result = solve_external(f"{sys.executable} {script}", Formula(1, [(1,)]))
        assert result.status is Status.SAT

    def test_comment_only_output_unknown(self, tmp_path):
        script = tmp_path / "quiet.py"
        script.write_text("print('c timeout')\n")
        result = solve_external(f"{sys.executable} {script}", Formula(1, [(1,)]))
        assert result.status is Status.UNKNOWN
