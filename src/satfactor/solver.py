"""Embedded CDCL solver and a subprocess adapter for external DIMACS solvers.

The embedded solver implements the classic loop: two-watched-literal
propagation, first-UIP conflict analysis, activity-based branching with
decay, and phase saving; it never restarts.  When the formula carries a
varmap, its selectors and then p's bits, from bit 0 upward, are decided
first, in that fixed order: for odd p, p mod 2^k fixes q mod 2^k through
the product's low columns, so each decided bit of p lets propagation fix
the next bit of q.  Every other variable, q's bits among them, is decided
in activity order (VSIDS) once every input is assigned, so the search
stays complete on any formula; without a varmap it is plain VSIDS.  The
VSIDS heap is built at the first VSIDS pick, so a search that propagation
finishes from the inputs never builds it.  A decision takes the variable's
saved phase; the config seed draws only the initial phases, so a (formula,
config) pair always reproduces the same search, the same statistics, and
the same model.  Learnt clauses are kept in learn order with their LBD
(literal-block distance); every 4,000 conflicts, half of those with an
LBD above 3 that are no reason for an assignment are deleted, the highest
LBD first and the oldest first among equal LBDs.

Literals are encoded internally as 2*var for the positive and 2*var+1 for
the negative literal; negation is a xor, which keeps the hot propagation
loop free of sign juggling.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .cnf import Assignment, DimacsError, Formula, Status, evaluate, parse_solver_output, write_dimacs

_VAL_FALSE = 0
_VAL_TRUE = 1
_VAL_UNDEF = 2

_VAR_DECAY = 0.95
_CORE_LBD = 3  # learned clauses at or below this literal-block distance are kept forever
_REDUCE_INTERVAL = 4000  # conflicts between two reductions of the learnt clauses
_TIME_CHECK_MASK = 0xFF


class SolverError(RuntimeError):
    pass


class SolverSpawnError(SolverError):
    """The external solver process could not be started."""


class SolverOutputError(SolverError):
    """The external solver printed malformed output or a bad model, or failed without a verdict."""


@dataclass
class SolverConfig:
    seed: int = 0
    conflict_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        limit = self.conflict_limit
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError(f"conflict_limit must be an integer >= 0, got {limit!r}")
        check_time_limit(self.time_limit)


def check_time_limit(time_limit: float | None) -> None:
    """The one time-limit rule: None, or a finite number of seconds >= 0
    (0 gives UNKNOWN at once).  NaN would never stop a search."""
    if time_limit is not None and not 0 <= time_limit < math.inf:
        raise ValueError(f"time_limit must be a finite number of seconds >= 0, got {time_limit!r}")


@dataclass
class SolveResult:
    status: Status
    assignment: Assignment | None
    conflicts: int
    decisions: int
    propagations: int
    wall_time: float


class _Cdcl:
    def __init__(self, formula: Formula, cfg: SolverConfig):
        self.cfg = cfg
        self.nvars = formula.num_vars
        n = self.nvars
        rng = random.Random(cfg.seed)

        self.lit_val = [_VAL_UNDEF] * (2 * n + 2)
        self.level = [-1] * (n + 1)
        self.reason: list = [None] * (n + 1)
        self.saved_phase = [rng.random() < 0.5 for _ in range(n + 1)]
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        # Branching decides the first unassigned entry of inputs (the
        # selectors, then p from bit 0 up), and only once all are assigned
        # pops the lazy max-heap of (-activity, var), which that first VSIDS
        # pick builds.  queued[v] is 1 while v's entry at its current activity
        # sits in the heap.  Once built, every unassigned variable has exactly
        # one live entry; an assigned one may have none, because a bump (only
        # assigned variables are bumped) leaves its entry stale and
        # backtracking pushes a fresh one.  Stale entries are skipped.
        varmap = formula.varmap
        self.inputs = [] if varmap is None else [*varmap.sel_vars, *varmap.p_bits]
        self.heap: list | None = None
        self.queued = bytearray(n + 1)

        self.watches: list[list] = [[] for _ in range(2 * n + 2)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0

        # (clause, lbd) for each live learnt clause of two or more literals,
        # in the order they were learnt.
        self.learnts: list[tuple[list[int], int]] = []

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

        # code[lit] is the internal code of lit; a negative lit indexes from the end
        code = [2 * v for v in range(n + 1)] + [2 * v + 1 for v in range(n, 0, -1)]
        watches, lit_val, coded = self.watches, self.lit_val, code.__getitem__
        self.ok = True
        for clause in formula.clauses:
            lits = list(map(coded, clause))
            if len(lits) > 1:
                watches[lits[0]].append((lits[1], lits))
                watches[lits[1]].append((lits[0], lits))
            elif lit_val[lits[0]] == _VAL_FALSE:
                self.ok = False
                break
            elif lit_val[lits[0]] == _VAL_UNDEF:
                self._assign(lits[0], None)

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
        for lit in trail[bound:]:
            var = lit >> 1
            saved_phase[var] = not lit & 1
            lit_val[lit] = _VAL_UNDEF
            lit_val[lit ^ 1] = _VAL_UNDEF
            reason[var] = None
        heap = self.heap
        if heap is not None:  # None until the first VSIDS pick builds it
            queued, activity = self.queued, self.activity
            for lit in trail[bound:]:
                var = lit >> 1
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
        if self.heap is not None:
            self._build_heap()

    def _build_heap(self) -> None:
        """One entry at the current activity for each unassigned variable."""
        lit_val = self.lit_val
        self.heap = []
        self.queued = bytearray(self.nvars + 1)
        for v in range(1, self.nvars + 1):
            if lit_val[2 * v] == _VAL_UNDEF:
                self.heap.append((-self.activity[v], v))
                self.queued[v] = 1
        heapify(self.heap)

    def _pick_branch_var(self) -> int | None:
        """The first unassigned entry of inputs; once every input is assigned,
        the unassigned variable with the highest (activity, -var); None when
        all are assigned."""
        if len(self.trail) == self.nvars:
            return None
        lit_val = self.lit_val
        for var in self.inputs:
            if lit_val[2 * var] == _VAL_UNDEF:
                return var
        if self.heap is None:
            self._build_heap()
        activity, queued, heap = self.activity, self.queued, self.heap
        while True:  # the trail is not full, so an unassigned variable has a live entry
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                continue  # stale: pushed before the last bump of var
            queued[var] = 0
            if lit_val[2 * var] == _VAL_UNDEF:
                return var

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
        activity = self.activity
        queued = self.queued
        var_inc = self.var_inc
        while True:
            for q in c:
                if q == p_lit:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale_activity()  # new activity, queued, var_inc
                        activity = self.activity
                        queued = self.queued
                        var_inc = self.var_inc
                    else:
                        # var is assigned: its entry is stale now, and
                        # _backtrack pushes a fresh one when it unassigns var.
                        queued[var] = 0
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
        self.learnts.append((learnt, lbd))
        self._assign(learnt[0], learnt)

    # -- learned clause deletion

    def _reduce_db(self) -> None:
        """Keep every clause of LBD <= _CORE_LBD and every reason; drop half of
        the rest, highest LBD first and the oldest first among equal LBDs."""
        reason = self.reason
        # c can be the reason only of c[0], the literal it implied
        removable = [(c, lbd) for c, lbd in self.learnts if lbd > _CORE_LBD and reason[c[0] >> 1] is not c]
        removable.sort(key=lambda record: -record[1])  # stable: the oldest first within an LBD
        drop = removable[: len(removable) // 2]
        # A clause is watched by its first two literals, so only their lists
        # can hold a dropped clause; each is filtered once, in order.
        dropped = {id(c) for c, _ in drop}
        watches = self.watches
        for lit in {lit for c, _ in drop for lit in c[:2]}:
            watches[lit] = [entry for entry in watches[lit] if id(entry[1]) not in dropped]
        self.learnts = [record for record in self.learnts if id(record[0]) not in dropped]

    # -- main loop

    def solve(self) -> SolveResult:
        start = time.perf_counter()
        cfg = self.cfg
        status = None if self.ok else Status.UNSAT

        while status is None:
            # Every pass that does not end the search adds one conflict or one
            # decision; the conflict limit is tested on each pass, the clock
            # once per 256 passes.
            if (cfg.conflict_limit is not None and self.conflicts >= cfg.conflict_limit) or (
                cfg.time_limit is not None
                and (self.conflicts + self.decisions) & _TIME_CHECK_MASK == 0
                and time.perf_counter() - start > cfg.time_limit
            ):
                status = Status.UNKNOWN
                break
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    status = Status.UNSAT
                    break
                learnt, backtrack_level, lbd = self._analyze(conflict)
                self._backtrack(backtrack_level)
                self._record_learnt(learnt, lbd)
                self.var_inc /= _VAR_DECAY
                if self.conflicts % _REDUCE_INTERVAL == 0:
                    self._reduce_db()
                continue

            var = self._pick_branch_var()
            if var is None:
                status = Status.SAT
                break
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(2 * var if self.saved_phase[var] else 2 * var + 1, None)

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
    # Imported here, not at module level: only this adapter starts processes,
    # and every import of the package (each ``satfactor solve`` run among them)
    # would otherwise pay for loading subprocess and tempfile.
    import os
    import shlex
    import signal
    import subprocess
    import tempfile
    from pathlib import Path

    check_time_limit(time_limit)
    if time_limit == 0:
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
    try:
        status, assignment = parse_solver_output(stdout)
    except DimacsError as exc:
        raise SolverOutputError(f"{argv[0]!r} printed malformed output: {exc}") from exc
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
