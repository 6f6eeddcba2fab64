import dataclasses
import hashlib
import os
import random
import sys
import time
from collections import Counter

import numpy as np
import pytest

from satfactor.cnf import Formula, Status, VarMap, evaluate
from satfactor.encoder import decode, encode, spec_for
from satfactor.numtheory import gen_semiprime
from satfactor.solver import (
    SolverConfig,
    SolverOutputError,
    SolverSpawnError,
    _Cdcl,
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

    @pytest.mark.slow
    def test_200_random_formulas_with_partial_varmap(self):
        # inputs on a random subset fix nothing, so the search must fall back
        # to the other variables once every input is assigned
        rng = random.Random(4321)
        sat = unsat = 0
        for _ in range(200):
            num_vars = rng.randint(5, 20)
            ratio = rng.uniform(3.0, 5.0)
            formula = random_3cnf(rng, num_vars, max(1, round(ratio * num_vars)))
            inputs = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars - 1))
            k, m = sorted(rng.sample(range(len(inputs) + 1), 2))
            formula.varmap = VarMap(p_bits=inputs[:k], q_bits=inputs[k:m], sel_vars=inputs[m:])
            expected = truth_table_status(formula)
            result = solve(formula, SolverConfig(seed=42))
            assert result.status is expected
            if expected is Status.SAT:
                sat += 1
                assert evaluate(formula, result.assignment)
            else:
                unsat += 1
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


def counters(result):
    return (
        result.status.name,
        result.conflicts,
        result.decisions,
        result.propagations,
        model_digest(result.assignment),
    )


class TestGoldenCounters:
    """Search counters pinned to recorded values.

    A change to the hot loops that is meant to be implementation-only must
    leave every branching choice, propagation and learnt clause as it was,
    so these counters may not move.  ``test_counters`` solves each instance
    without its varmap, where branching is plain VSIDS over every variable,
    and also pins how many reductions and rescales the search made (the
    last two entries of each row);
    ``test_counters_inputs_first`` solves it as encoded: the selectors, then
    p from its lowest bit, then VSIDS.
    """

    @pytest.mark.parametrize(
        "n, split, seed, conflict_limit, expected",
        [
            (191117, (9, 9), 0, None, ("SAT", 22, 26, 2056, "ccfbc6a8e65c39d9", 0, 0)),
            (191117, (9, 9), 1, None, ("SAT", 134, 174, 7973, "ccfbc6a8e65c39d9", 0, 0)),
            (191117, (9, 9), 2, None, ("SAT", 26, 35, 1922, "ccfbc6a8e65c39d9", 0, 0)),
            (1228109, (10, 11), 0, None, ("UNSAT", 492, 591, 50257, None, 0, 0)),
            (12218671, (12, 12), 0, 50, ("UNKNOWN", 50, 58, 6855, None, 0, 0)),
            # one reduction (at 4,000 conflicts) and one rescale
            pytest.param(
                33554467, (13, 13), 0, None, ("UNSAT", 4729, 6070, 564074, None, 1, 1),
                marks=pytest.mark.slow,
                id="prime26-reduce-and-rescale",
            ),
        ],
    )
    def test_counters(self, n, split, seed, conflict_limit, expected):
        formula, _ = encode(spec_for([n], split=split))
        plain = dataclasses.replace(formula, varmap=None)
        solver = _CountingUpkeep(plain, SolverConfig(seed=seed, conflict_limit=conflict_limit))
        result = solver.solve()
        assert (*counters(result), solver.reduces, solver.rescales) == expected

    @pytest.mark.parametrize(
        "n, split, seed, conflict_limit, expected",
        [
            (191117, (9, 9), 0, None, ("SAT", 23, 28, 1907, "ccfbc6a8e65c39d9")),
            (191117, (9, 9), 1, None, ("SAT", 80, 85, 6023, "c670d636e01bc16a")),
            (191117, (9, 9), 2, None, ("SAT", 21, 24, 1742, "ccfbc6a8e65c39d9")),
            (1228109, (10, 11), 0, None, ("UNSAT", 234, 233, 26011, None)),
            (12218671, (12, 12), 0, 50, ("UNKNOWN", 50, 54, 5877, None)),
            pytest.param(
                33554467, (13, 13), 1, None, ("UNSAT", 1671, 1671, 200079, None),
                marks=pytest.mark.slow,
                id="prime26-inputs-first",
            ),
        ],
    )
    def test_counters_inputs_first(self, n, split, seed, conflict_limit, expected):
        formula, _ = encode(spec_for([n], split=split))
        result = solve(formula, SolverConfig(seed=seed, conflict_limit=conflict_limit))
        assert counters(result) == expected

    def test_reduce_and_rescale_inputs_first(self, monkeypatch):
        # with the varmap the 26-bit row above reaches neither a reduction
        # nor a rescale: an early reduction and a large bump force both here
        monkeypatch.setattr("satfactor.solver._REDUCE_INTERVAL", 100)
        formula, _ = encode(spec_for([1228109], split=(10, 11)))
        solver = _ReferenceBranching(formula, SolverConfig(seed=0))
        solver.var_inc = 1e95
        result = solver.solve()
        assert counters(result) == ("UNSAT", 235, 234, 26076, None)
        assert solver.reduces >= 1 and solver.rescales >= 1


class _CountingUpkeep(_Cdcl):
    """Counts the clause-database reductions and the activity rescales."""

    def __init__(self, formula, cfg):
        super().__init__(formula, cfg)
        self.rescales = 0
        self.reduces = 0

    def _rescale_activity(self):
        self.rescales += 1
        super()._rescale_activity()

    def _reduce_db(self):
        self.reduces += 1
        super()._reduce_db()


class _ReferenceBranching(_CountingUpkeep):
    """Checks every branching pick against a brute-force rule: the first
    unassigned entry of the varmap's ``sel_vars + p_bits`` while one is
    left, then the unassigned variable with the highest (activity, -var).
    The VSIDS heap is None until the first VSIDS pick builds it; from then
    on every unassigned variable has exactly one live entry."""

    def __init__(self, formula, cfg):
        super().__init__(formula, cfg)
        varmap = formula.varmap
        self.order = [] if varmap is None else [*varmap.sel_vars, *varmap.p_bits]
        self.input_picks = 0
        self.heap_picks = 0

    def _pick_branch_var(self):
        variables = range(1, self.nvars + 1)
        activity = self.activity
        unassigned = {v for v in variables if self.lit_val[2 * v] == 2}
        if self.heap is None:
            assert self.heap_picks == 0
        else:
            queued = {v for v in variables if self.queued[v]}
            live = Counter(v for neg_act, v in self.heap if -neg_act == activity[v])
            # one live entry per variable, flagged, and one for every unassigned variable
            assert max(live.values(), default=1) == 1
            assert unassigned <= queued == set(live)
        expected = next((v for v in self.order if v in unassigned), None)
        if expected is not None:
            self.input_picks += 1
        elif unassigned:
            expected = max(unassigned, key=lambda v: (activity[v], -v))
            self.heap_picks += 1
        var = super()._pick_branch_var()
        assert var == expected
        # built by the first VSIDS pick, and by no other
        assert (self.heap is None) == (self.heap_picks == 0)
        return var


class TestBranchingReference:
    @pytest.mark.parametrize(
        "targets, algorithm, split, seed",
        [
            ([191117], "schoolbook", (9, 9), 1),
            ([1228109], "schoolbook", (10, 11), 0),
            ([40301], "schoolbook", (8, 8), 3),
            ([43621, 48319, 59989], "schoolbook", (8, 8), 2),
            ([191117], "division", (9, 9), 1),
            ([191117], "karatsuba", (9, 9), 1),
        ],
        ids=["191117-split0-1", "1228109-split1-0", "40301-split2-3", "three-targets", "division", "karatsuba"],
    )
    def test_picks_match_argmax(self, targets, algorithm, split, seed):
        formula, varmap = encode(spec_for(targets, algorithm, split))
        solver = _ReferenceBranching(formula, SolverConfig(seed=seed))
        result = solver.solve()
        plain = solve(formula, SolverConfig(seed=seed))
        assert len(varmap.sel_vars) == (len(targets) if len(targets) > 1 else 0)
        assert solver.input_picks > 0
        # once the selectors and p are decided, propagation fixes every wire
        # of the schoolbook and division circuits; karatsuba's need VSIDS picks
        assert (solver.heap_picks > 0) == (algorithm == "karatsuba")
        assert (result.status, result.conflicts, result.decisions, result.propagations) == (
            plain.status, plain.conflicts, plain.decisions, plain.propagations,
        )

    def test_picks_match_argmax_without_varmap(self):
        formula, _ = encode(spec_for([191117], split=(9, 9)))
        solver = _ReferenceBranching(dataclasses.replace(formula, varmap=None), SolverConfig(seed=1))
        result = solver.solve()
        assert not solver.order
        assert solver.input_picks == 0 and solver.heap_picks > 0
        # the plain-VSIDS golden row of the same instance and seed
        assert counters(result) == ("SAT", 134, 174, 7973, "ccfbc6a8e65c39d9")

    def test_picks_match_argmax_across_rescale(self):
        formula, _ = encode(spec_for([1228109], "karatsuba", (11, 11)))
        solver = _ReferenceBranching(formula, SolverConfig(seed=2))
        solver.var_inc = 1e100  # the second conflict's bumps pass the rescale threshold
        result = solver.solve()
        assert result.status is Status.UNSAT
        assert solver.rescales >= 1
        assert solver.input_picks > 0 and solver.heap_picks > 0


class TestLazyHeap:
    """The VSIDS heap is built by the first VSIDS pick and not before."""

    @pytest.mark.parametrize(
        "targets, algorithm, split, seed, varmap, built",
        [
            ([191117], "schoolbook", (9, 9), 1, True, False),
            ([1228109], "schoolbook", (10, 11), 0, True, False),
            ([40301], "schoolbook", (8, 8), 3, True, False),
            ([43621, 48319, 59989], "schoolbook", (8, 8), 2, True, False),
            ([191117], "division", (9, 9), 1, True, False),
            ([191117], "karatsuba", (9, 9), 1, True, True),
            ([191117], "schoolbook", (9, 9), 1, False, True),
            ([191117], "division", (9, 9), 1, False, True),
        ],
        ids=[
            "191117-split0-1", "1228109-split1-0", "40301-split2-3", "three-targets",
            "division", "karatsuba", "schoolbook-no-varmap", "division-no-varmap",
        ],
    )
    def test_built_only_by_a_vsids_pick(self, targets, algorithm, split, seed, varmap, built):
        formula, _ = encode(spec_for(targets, algorithm, split))
        if not varmap:
            formula = dataclasses.replace(formula, varmap=None)
        solver = _Cdcl(formula, SolverConfig(seed=seed))
        assert solver.heap is None
        solver.solve()
        assert (solver.heap is not None) == built

    def test_rescale_before_first_vsids_pick(self):
        formula, _ = encode(spec_for([1228109], "schoolbook", (10, 11)))
        solver = _ReferenceBranching(formula, SolverConfig(seed=0))
        solver.var_inc = 1e100  # the first conflict's bumps pass the rescale threshold
        result = solver.solve()
        assert solver.rescales >= 1 and solver.heap_picks == 0
        assert solver.heap is None
        # activity never picks here, so the search is the unscaled one
        assert counters(result) == ("UNSAT", 234, 233, 26011, None)


class _CountingBacktracks(_Cdcl):
    def __init__(self, formula, cfg):
        super().__init__(formula, cfg)
        self.backtracks = 0
        self.learnt_clauses = 0

    def _backtrack(self, target_level):
        self.backtracks += 1
        super()._backtrack(target_level)

    def _record_learnt(self, learnt, lbd):
        self.learnt_clauses += 1
        super()._record_learnt(learnt, lbd)


class TestNoRestarts:
    """The search never restarts, and the seed enters it only through the
    initial saved phases."""

    def test_one_backtrack_per_learnt_clause(self):
        # 234 conflicts; a restart would add backtracks that learn nothing
        formula, _ = encode(spec_for([1228109], split=(10, 11)))
        solver = _CountingBacktracks(formula, SolverConfig(seed=0))
        result = solver.solve()
        assert result.status is Status.UNSAT and result.conflicts > 64
        # every conflict but the last, at level 0, learns a clause
        assert solver.learnt_clauses == result.conflicts - 1
        assert solver.backtracks == solver.learnt_clauses

    @pytest.mark.parametrize("varmap", [True, False], ids=["inputs-first", "plain"])
    def test_seed_acts_only_through_initial_phases(self, varmap):
        formula, _ = encode(spec_for([191117], split=(9, 9)))
        if not varmap:
            formula = dataclasses.replace(formula, varmap=None)
        a = _Cdcl(formula, SolverConfig(seed=1))
        b = _Cdcl(formula, SolverConfig(seed=2))
        assert a.saved_phase != b.saved_phase
        b.saved_phase = list(a.saved_phase)
        assert counters(a.solve()) == counters(b.solve())


def _reference_build(formula):
    """Watch lists, trail and ok of a clause-by-clause build: each clause's
    literals coded with a sign test, units assigned in order until the first
    one that contradicts the trail."""
    n = formula.num_vars
    watches = [[] for _ in range(2 * n + 2)]
    trail = []
    for clause in formula.clauses:
        lits = [2 * lit if lit > 0 else -2 * lit + 1 for lit in clause]
        if len(lits) > 1:
            watches[lits[0]].append((lits[1], lits))
            watches[lits[1]].append((lits[0], lits))
        elif lits[0] ^ 1 in trail:
            return watches, trail, False
        elif lits[0] not in trail:
            trail.append(lits[0])
    return watches, trail, True


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_units_on_the_edge_variables(self, n, sign):
        formula = Formula(n, [(sign * 1,), (sign * n,)])
        solver = _Cdcl(formula, SolverConfig())
        assert solver.trail == sorted({2 * 1 + (sign < 0), 2 * n + (sign < 0)})
        result = solver.solve()
        assert result.status is Status.SAT
        assert result.assignment[1] is (sign > 0) and result.assignment[n] is (sign > 0)

    def test_contradicting_units_mid_list(self):
        formula = Formula(4, [(1, 2), (3,), (-4, 2), (-3,), (1, 4), (-1,)])
        solver = _Cdcl(formula, SolverConfig())
        # the build stops at (-3,): (1, 4) is never attached, (-1,) never assigned
        assert not solver.ok
        assert solver.trail == [6]
        assert sum(len(ws) for ws in solver.watches) == 4
        result = solver.solve()
        assert result.status is Status.UNSAT
        assert (result.conflicts, result.decisions, result.propagations) == (0, 0, 0)

    def test_repeated_unit_sat(self):
        result = solve(Formula(2, [(1,), (-2, 1), (1,)]))
        assert result.status is Status.SAT
        assert result.assignment[1] is True

    def test_units_only_sat(self):
        result = solve(Formula(5, [(1,), (-2,), (5,), (-4,), (3,)]))
        assert result.status is Status.SAT and result.decisions == 0
        assert result.assignment == {1: True, 2: False, 3: True, 4: False, 5: True}

    def test_watches_match_reference_build(self):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(1, 12)
            clauses = []
            for _ in range(rng.randint(1, 30)):
                width = rng.choice([1, 1, 2, 3, 4])
                variables = rng.sample(range(1, n + 1), min(width, n))
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            formula = Formula(n, clauses)
            solver = _Cdcl(formula, SolverConfig(seed=rng.randrange(100)))
            assert (solver.watches, solver.trail, solver.ok) == _reference_build(formula)


class TestLimits:
    def test_conflict_limit_unknown(self):
        s = gen_semiprime(20, seed=3)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, conflict_limit=1))
        assert result.status is Status.UNKNOWN
        assert result.assignment is None

    @pytest.mark.parametrize(
        "n, split",
        [(35, (3, 3)), (1048573, (10, 11))],
        ids=["sat-without-conflicts", "prime20"],
    )
    def test_conflict_limit_zero_unknown_before_any_work(self, n, split):
        # like time_limit=0; the limit used to be tested only after a
        # conflict, so 35 came out SAT and the prime UNKNOWN after 1 conflict
        formula, _ = encode(spec_for([n], split=split))
        result = solve(formula, SolverConfig(seed=0, conflict_limit=0))
        assert (result.status, result.conflicts, result.decisions, result.propagations) == (
            Status.UNKNOWN, 0, 0, 0,
        )

    @pytest.mark.parametrize("conflict_limit", [-5, -1, True, False, 1.0, 2.5, float("inf"), "10"])
    def test_bad_conflict_limit_rejected(self, conflict_limit):
        with pytest.raises(ValueError, match="conflict_limit must be an integer >= 0"):
            SolverConfig(conflict_limit=conflict_limit)

    def test_time_limit_zero_unknown(self):
        s = gen_semiprime(20, seed=4)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, time_limit=0.0))
        assert result.status is Status.UNKNOWN

    def test_nan_time_limit_rejected(self):
        # NaN compares false with every elapsed time, so it would never stop the search
        with pytest.raises(ValueError, match="time_limit"):
            SolverConfig(time_limit=float("nan"))

    @pytest.mark.parametrize("time_limit", [float("inf"), -1.0, -0.5])
    def test_infinite_or_negative_time_limit_rejected(self, time_limit):
        with pytest.raises(ValueError, match="finite number of seconds >= 0"):
            SolverConfig(time_limit=time_limit)

    def test_generous_limits_still_solve(self):
        s = gen_semiprime(10, seed=5)
        formula, _ = encode(spec_for([s.value], split=s.split))
        result = solve(formula, SolverConfig(seed=0, conflict_limit=10**6, time_limit=60.0))
        assert result.status is Status.SAT

    def test_time_limit_stops_mid_search(self):
        formula, _ = encode(spec_for([33554467], split=(13, 13)))
        result = solve(formula, SolverConfig(seed=1, time_limit=0.2))
        assert result.status is Status.UNKNOWN
        assert result.conflicts > 0  # the clock was read in mid-search, not only at the start
        assert result.wall_time < 2.0


class TestClauseDeletion:
    def test_watches_hold_only_live_clauses(self, monkeypatch):
        # 21-bit prime; without the patch no reduction runs and the search
        # takes 351 conflicts
        monkeypatch.setattr("satfactor.solver._REDUCE_INTERVAL", 100)
        formula, _ = encode(spec_for([2097143], split=(11, 11)))
        cdcl = _ReferenceBranching(formula, SolverConfig(seed=1))
        inputs = {id(c) for ws in cdcl.watches for _, c in ws}
        result = cdcl.solve()
        assert (result.status.name, result.conflicts, result.decisions, result.propagations) == (
            "UNSAT", 359, 363, 38744,
        )
        assert cdcl.reduces == 3
        holders = {}  # id(clause) -> the literals whose watch lists hold it
        for lit, ws in enumerate(cdcl.watches):
            for _, c in ws:
                holders.setdefault(id(c), []).append(lit)
        assert holders.keys() <= inputs | {id(c) for c, _ in cdcl.learnts}
        for c, _ in cdcl.learnts:
            assert holders[id(c)] == sorted(c[:2])

    def test_reduce_db_policy(self):
        # input clauses over variables 31..40; planted learnt clauses over 1..27
        formula = Formula(40, [(31, -32, 33), (-34, 35), (36, 37, -38, 39), (-40, 31)])
        cdcl = _Cdcl(formula, SolverConfig())
        input_watches = [list(ws) for ws in cdcl.watches]
        lbds = {"A": 5, "B": 8, "C": 2, "D": 5, "E": 6, "F": 9, "G": 5, "H": 4, "I": 5}
        clauses = {}
        for k, (name, lbd) in enumerate(lbds.items()):
            c = [2 * (3 * k + 1), 2 * (3 * k + 2) + 1, 2 * (3 * k + 3)]
            clauses[name] = c
            cdcl._attach(c)
            cdcl.learnts.append((c, lbd))
        # F, the highest LBD, is the reason of its first literal
        cdcl.trail_lim.append(0)
        cdcl._assign(clauses["F"][0], clauses["F"])
        cdcl._reduce_db()
        # C is core (LBD <= 3) and F a reason; of the other seven,
        # B (8), E (6) and A (the oldest of the four at LBD 5) go
        assert cdcl.learnts == [(clauses[name], lbds[name]) for name in "CDFGHI"]
        dropped = {id(clauses[name]) for name in "ABE"}
        assert not any(id(c) in dropped for ws in cdcl.watches for _, c in ws)
        for name in "CDFGHI":
            c = clauses[name]
            holders = [lit for lit, ws in enumerate(cdcl.watches) if any(w is c for _, w in ws)]
            assert holders == sorted(c[:2])
        # the input clauses' entries are untouched
        inputs = {id(c) for ws in input_watches for _, c in ws}
        assert [[entry for entry in ws if id(entry[1]) in inputs] for ws in cdcl.watches] == input_watches


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

    @pytest.mark.parametrize("time_limit", [float("nan"), float("inf"), -1.0])
    def test_bad_time_limit_rejected_before_spawn(self, time_limit):
        # a spawn would raise SolverSpawnError here; nan used to raise from
        # inside subprocess, inf OverflowError, and -1.0 returned UNKNOWN
        with pytest.raises(ValueError, match="time_limit"):
            solve_external("/nonexistent/solver-binary", Formula(1, [(1,)]), time_limit=time_limit)

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

    @pytest.mark.parametrize(
        "model, message",
        [
            ("v 1 0", "leaves 1 formula variables unassigned"),
            ("v 1 -2 0", "external model does not satisfy the formula"),
            ("v 1 -1 0", "printed malformed output: line 2: variable 1 given both signs"),
        ],
    )
    def test_bad_model_rejected(self, tmp_path, model, message):
        script = tmp_path / "liar.py"
        script.write_text(f"print('s SATISFIABLE')\nprint({model!r})\n")
        with pytest.raises(SolverOutputError, match=message):
            solve_external(f"{sys.executable} {script}", Formula(2, [(1,), (2,)]))

    def test_comment_only_output_unknown(self, tmp_path):
        script = tmp_path / "quiet.py"
        script.write_text("print('c timeout')\n")
        result = solve_external(f"{sys.executable} {script}", Formula(1, [(1,)]))
        assert result.status is Status.UNKNOWN
