"""Embedded CDCL solver and a subprocess adapter for external DIMACS solvers.

The embedded solver implements the classic loop: two-watched-literal
propagation, first-UIP conflict analysis, activity-based branching with
decay, phase saving, and Luby-scheduled restarts.  All randomness (initial
polarities, occasional random polarity decisions) comes from the config
seed, so a (formula, config) pair always reproduces the same search, the
same statistics, and the same model.

Literals are encoded internally as 2*var for the positive and 2*var+1 for
the negative literal; negation is a xor, which keeps the hot propagation
loop free of sign juggling.
"""

from __future__ import annotations

import os
import random
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from pathlib import Path

from .cnf import Assignment, Formula, Status, evaluate, parse_solver_output, write_dimacs

_VAL_FALSE = 0
_VAL_TRUE = 1
_VAL_UNDEF = 2

_VAR_DECAY = 0.95
_RESTART_BASE = 64  # conflicts per Luby unit
_RANDOM_POLARITY_PROB = 0.02
_CORE_LBD = 3  # learned clauses at or below this literal-block distance are kept forever
_REDUCE_START = 4000
_REDUCE_GROWTH = 1.2
_TIME_CHECK_MASK = 0xFF


class SolverError(RuntimeError):
    pass


class SolverSpawnError(SolverError):
    """The external solver process could not be started."""


class SolverOutputError(SolverError):
    """The external solver exited abnormally without a parseable verdict."""


@dataclass
class SolverConfig:
    seed: int = 0
    conflict_limit: int | None = None
    time_limit: float | None = None


@dataclass
class SolveResult:
    status: Status
    assignment: Assignment | None
    conflicts: int
    decisions: int
    propagations: int
    wall_time: float


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    if i < 1:
        raise ValueError("luby is 1-based")
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class _Cdcl:
    def __init__(self, formula: Formula, cfg: SolverConfig):
        self.cfg = cfg
        self.nvars = formula.num_vars
        n = self.nvars
        rng = random.Random(cfg.seed)
        self.rng = rng

        self.lit_val = [_VAL_UNDEF] * (2 * n + 2)
        self.level = [-1] * (n + 1)
        self.reason: list = [None] * (n + 1)
        self.saved_phase = [rng.random() < 0.5 for _ in range(n + 1)]
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        # Lazy max-heap of (-activity, var).  queued[v] is 1 while v's entry at
        # its current activity sits in the heap, so each variable has at most
        # one live entry; older entries are stale and skipped when popped.
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        self.queued = bytearray([0] + [1] * n)

        self.watches: list[list] = [[] for _ in range(2 * n + 2)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0

        self.learnts: list[list[int]] = []
        self.clause_lbd: dict[int, int] = {}
        self.clause_act: dict[int, float] = {}

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

        self.ok = True
        for clause in formula.clauses:
            self._add_input_clause(clause)

    # -- construction

    def _add_input_clause(self, clause) -> None:
        if not self.ok:
            return
        lits = [2 * lit if lit > 0 else -2 * lit + 1 for lit in clause]
        if len(lits) == 1:
            lit = lits[0]
            val = self.lit_val[lit]
            if val == _VAL_FALSE:
                self.ok = False
            elif val == _VAL_UNDEF:
                self._assign(lit, None)
            return
        self._attach(lits)

    def _attach(self, lits: list[int]) -> None:
        self.watches[lits[0]].append((lits[1], lits))
        self.watches[lits[1]].append((lits[0], lits))

    # -- assignment bookkeeping

    def _assign(self, lit: int, reason) -> None:
        self.lit_val[lit] = _VAL_TRUE
        self.lit_val[lit ^ 1] = _VAL_FALSE
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _backtrack(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        bound = trail_lim[target_level]
        trail = self.trail
        lit_val = self.lit_val
        saved_phase = self.saved_phase
        reason = self.reason
        heap = self.heap
        queued = self.queued
        activity = self.activity
        for lit in trail[bound:]:
            var = lit >> 1
            saved_phase[var] = not lit & 1
            lit_val[lit] = _VAL_UNDEF
            lit_val[lit ^ 1] = _VAL_UNDEF
            reason[var] = None
            if not queued[var]:
                heappush(heap, (-activity[var], var))
                queued[var] = 1
        del trail[bound:]
        del trail_lim[target_level:]
        self.qhead = bound

    # -- branching

    def _rescale_activity(self) -> None:
        scale = 1e-100
        self.activity = [a * scale for a in self.activity]
        self.var_inc *= scale
        lit_val = self.lit_val
        self.heap = [
            (-self.activity[v], v)
            for v in range(1, self.nvars + 1)
            if lit_val[2 * v] == _VAL_UNDEF
        ]
        heapify(self.heap)
        self.queued = bytearray(self.nvars + 1)
        for _, v in self.heap:
            self.queued[v] = 1

    def _pick_branch_var(self) -> int | None:
        """The unassigned variable with the highest (activity, -var), or None."""
        heap = self.heap
        activity = self.activity
        queued = self.queued
        lit_val = self.lit_val
        while heap:
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                continue  # stale: pushed before the last bump of var
            queued[var] = 0
            if lit_val[2 * var] == _VAL_UNDEF:
                return var
        return None

    # -- propagation

    def _propagate(self):
        # lit_val codes appear as literals in this loop (0 = _VAL_FALSE,
        # 1 = _VAL_TRUE): a constant load is cheaper than a global lookup.
        lit_val = self.lit_val
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        props = 0
        qhead = self.qhead
        current_level = len(self.trail_lim)
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            j = 0
            for i, entry in enumerate(ws, 1):
                blocker, c = entry
                if lit_val[blocker] == 1:
                    ws[j] = entry
                    j += 1
                    continue
                if c[0] == false_lit:
                    c[0] = c[1]
                    c[1] = false_lit
                first = c[0]
                if first != blocker:
                    if lit_val[first] == 1:
                        ws[j] = (first, c)
                        j += 1
                        continue
                    entry = (first, c)
                for k in range(2, len(c)):
                    ck = c[k]
                    if lit_val[ck] != 0:
                        c[1] = ck
                        c[k] = false_lit
                        watches[ck].append(entry)
                        break
                else:
                    ws[j] = entry
                    j += 1
                    if lit_val[first] == 0:
                        del ws[j:i]  # keep the unvisited rest of the list
                        self.qhead = len(trail)
                        self.propagations += props
                        return c
                    lit_val[first] = 1
                    lit_val[first ^ 1] = 0
                    var = first >> 1
                    level[var] = current_level
                    reason[var] = c
                    trail.append(first)
                    props += 1
            del ws[j:]
        self.qhead = qhead
        self.propagations += props
        return None

    # -- conflict analysis (first UIP)

    def _analyze(self, conflict) -> tuple[list[int], int, int]:
        learnt = [0]
        seen = bytearray(self.nvars + 1)
        level = self.level
        reason = self.reason
        trail = self.trail
        current_level = len(self.trail_lim)
        counter = 0
        p_lit = -1  # sentinel: consider every literal of the conflict clause
        idx = len(trail) - 1
        c = conflict
        clause_act = self.clause_act
        activity = self.activity
        heap = self.heap
        queued = self.queued
        var_inc = self.var_inc
        while True:
            cid = id(c)
            if cid in clause_act:
                clause_act[cid] += 1.0
            for q in c:
                if q == p_lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_activity()  # new activity, heap, queued, var_inc
                        activity = self.activity
                        heap = self.heap
                        queued = self.queued
                        var_inc = self.var_inc
                    else:
                        heappush(heap, (-act, var))
                        queued[var] = 1
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p_lit = trail[idx]
            idx -= 1
            var = p_lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            c = reason[var]
        learnt[0] = p_lit ^ 1

        if len(learnt) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            max_level = level[learnt[1] >> 1]
            for i in range(2, len(learnt)):
                li_level = level[learnt[i] >> 1]
                if li_level > max_level:
                    max_level = li_level
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            backtrack_level = max_level

        lbd = len({level[lit >> 1] for lit in learnt})
        return learnt, backtrack_level, lbd

    def _record_learnt(self, learnt: list[int], lbd: int) -> None:
        if len(learnt) == 1:
            self._assign(learnt[0], None)
            return
        self._attach(learnt)
        self.learnts.append(learnt)
        self.clause_lbd[id(learnt)] = lbd
        self.clause_act[id(learnt)] = 0.0
        self._assign(learnt[0], learnt)

    # -- learned clause deletion

    def _reduce_db(self) -> None:
        locked = {
            id(self.reason[lit >> 1])
            for lit in self.trail
            if self.reason[lit >> 1] is not None
        }
        keep: list[list[int]] = []
        removable: list[list[int]] = []
        for c in self.learnts:
            cid = id(c)
            if self.clause_lbd[cid] <= _CORE_LBD or cid in locked:
                keep.append(c)
            else:
                removable.append(c)
        removable.sort(key=lambda c: self.clause_act[id(c)])
        half = len(removable) // 2
        for c in removable[:half]:
            cid = id(c)
            self._detach(c)
            del self.clause_lbd[cid]
            del self.clause_act[cid]
        self.learnts = keep + removable[half:]

    def _detach(self, c: list[int]) -> None:
        for lit in (c[0], c[1]):
            self.watches[lit] = [entry for entry in self.watches[lit] if entry[1] is not c]

    # -- main loop

    def solve(self) -> SolveResult:
        start = time.perf_counter()
        cfg = self.cfg
        if not self.ok:
            return SolveResult(Status.UNSAT, None, 0, 0, 0, time.perf_counter() - start)

        restart_count = 0
        restart_limit = _RESTART_BASE * luby(1)
        conflicts_since_restart = 0
        reduce_interval = _REDUCE_START
        next_reduce = _REDUCE_START
        status = None

        while status is None:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if not self.trail_lim:
                    status = Status.UNSAT
                    break
                learnt, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(backtrack_level)
                self._record_learnt(learnt, lbd)
                self.var_inc /= _VAR_DECAY

                if cfg.conflict_limit is not None and self.conflicts >= cfg.conflict_limit:
                    status = Status.UNKNOWN
                    break
                if (
                    cfg.time_limit is not None
                    and self.conflicts & _TIME_CHECK_MASK == 0
                    and time.perf_counter() - start > cfg.time_limit
                ):
                    status = Status.UNKNOWN
                    break
                if self.conflicts >= next_reduce:
                    self._reduce_db()
                    reduce_interval = int(reduce_interval * _REDUCE_GROWTH)
                    next_reduce = self.conflicts + reduce_interval
                continue

            if conflicts_since_restart >= restart_limit:
                restart_count += 1
                restart_limit = _RESTART_BASE * luby(restart_count + 1)
                conflicts_since_restart = 0
                self._backtrack(0)
                continue

            if (
                cfg.time_limit is not None
                and self.decisions & 0x3FF == 0
                and time.perf_counter() - start > cfg.time_limit
            ):
                status = Status.UNKNOWN
                break

            var = self._pick_branch_var()
            if var is None:
                status = Status.SAT
                break
            self.decisions += 1
            if self.rng.random() < _RANDOM_POLARITY_PROB:
                polarity = self.rng.random() < 0.5
            else:
                polarity = self.saved_phase[var]
            self.trail_lim.append(len(self.trail))
            self._assign(2 * var if polarity else 2 * var + 1, None)

        wall = time.perf_counter() - start
        assignment = None
        if status is Status.SAT:
            assignment = {v: self.lit_val[2 * v] == _VAL_TRUE for v in range(1, self.nvars + 1)}
        return SolveResult(status, assignment, self.conflicts, self.decisions, self.propagations, wall)


def solve(formula: Formula, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve with the embedded CDCL solver.

    Deterministic for a fixed (formula, config).  Limits produce UNKNOWN,
    never an error.  Every SAT model is checked against the formula before
    being returned.
    """
    cfg = cfg or SolverConfig()
    result = _Cdcl(formula, cfg).solve()
    if result.status is Status.SAT:
        assert result.assignment is not None
        if not evaluate(formula, result.assignment):
            raise SolverError("internal error: model does not satisfy the formula")
    return result


def solve_external(cmd_template: str, formula: Formula, time_limit: float | None = None) -> SolveResult:
    """Run an external DIMACS solver: ``<cmd> <dimacs-path>``.

    stdout is parsed by SAT-competition conventions; the exit code is
    ignored whenever a verdict line is present.  The child runs in its own
    session, so a timeout kills its whole process group (a shell wrapper's
    children included) and yields UNKNOWN.
    """
    if time_limit is not None and time_limit <= 0:
        return SolveResult(Status.UNKNOWN, None, 0, 0, 0, 0.0)
    argv = shlex.split(cmd_template)
    if not argv:
        raise SolverSpawnError("empty external solver command")
    with tempfile.TemporaryDirectory(prefix="satfactor-") as tmpdir:
        path = Path(tmpdir) / "instance.cnf"
        path.write_text(write_dimacs(formula))
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv + [str(path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as exc:
            raise SolverSpawnError(f"could not run {argv[0]!r}: {exc}") from exc
        with proc:
            try:
                stdout, _ = proc.communicate(timeout=time_limit)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the group exited on its own
                proc.communicate()
                return SolveResult(Status.UNKNOWN, None, 0, 0, 0, time.perf_counter() - start)
        wall = time.perf_counter() - start
    status, assignment = parse_solver_output(stdout)
    if status is Status.UNKNOWN and proc.returncode not in (0, 10, 20):
        raise SolverOutputError(
            f"{argv[0]!r} exited with code {proc.returncode} and no verdict"
        )
    if status is Status.SAT:
        missing = {abs(lit) for clause in formula.clauses for lit in clause} - set(assignment)
        if missing:
            raise SolverOutputError(f"model leaves {len(missing)} formula variables unassigned")
        if not evaluate(formula, assignment):
            raise SolverOutputError("external model does not satisfy the formula")
    return SolveResult(status, assignment, 0, 0, 0, wall)
