"""CNF formulas, DIMACS I/O, model evaluation, and unit propagation.

Literals follow the DIMACS convention: a positive integer ``v`` is the
variable, ``-v`` its negation.  Clauses are tuples of literals.  Formulas
may carry a :class:`VarMap` that records which variables encode factor,
output, and selector bits so that solver models can be decoded back into
integers; the map travels through DIMACS files as structured ``c``
comments, keeping the files valid input for any external solver.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush

log = logging.getLogger(__name__)

Lit = int
Clause = tuple[Lit, ...]
Assignment = dict[int, bool]


class Status(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class CnfError(ValueError):
    """Malformed clause or formula."""


class DimacsError(ValueError):
    """DIMACS text that cannot be parsed; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def make_clause(lits) -> Clause:
    """Validate and normalize literals into a clause tuple.

    The one rule for a clause's own literals: not empty, each an int (not a
    bool) other than 0, no repeat and no tautology.  The encoder is never
    supposed to produce them, so silently fixing them up would hide bugs.
    """
    clause = tuple(lits)
    if not clause:
        raise CnfError("empty clause")
    seen = set()
    for lit in clause:
        if type(lit) is not int:
            raise CnfError(f"invalid literal {lit!r} in clause {clause}")
        if not lit:
            raise CnfError(f"literal 0 in clause {clause}")
        if lit in seen:
            raise CnfError(f"duplicate literal {lit} in clause {clause}")
        if -lit in seen:
            raise CnfError(f"tautological clause {clause}")
        seen.add(lit)
    return clause


@dataclass
class VarMap:
    """Variable ids (1-based) of the factor/output/selector bits, LSB first.

    ``sel_vars`` is empty for single-target instances.  ``targets`` keeps the
    integer value encoded for each selector index so models can be verified
    after decoding.
    """

    p_bits: list[int] = field(default_factory=list)
    q_bits: list[int] = field(default_factory=list)
    out_bits: list[int] = field(default_factory=list)
    sel_vars: list[int] = field(default_factory=list)
    targets: list[int] = field(default_factory=list)

    def all_vars(self) -> list[int]:
        return [*self.p_bits, *self.q_bits, *self.out_bits, *self.sel_vars]

    def comment_lines(self) -> list[str]:
        lines = []
        for name, bits in (("p", self.p_bits), ("q", self.q_bits), ("out", self.out_bits)):
            lines.extend(f"c varmap {name} {i} {v}" for i, v in enumerate(bits))
        lines.extend(f"c varmap sel {k} {v}" for k, v in enumerate(self.sel_vars))
        lines.extend(f"c target {k} {n}" for k, n in enumerate(self.targets))
        return lines


@dataclass
class Formula:
    """A CNF formula: variable count, clause list, optional decode map.

    Construction applies :func:`make_clause` to every clause and rejects a
    variable beyond ``num_vars``, so whatever it accepts reads back from DIMACS.
    The encoder, :func:`parse_dimacs` and :func:`unit_propagate` check their
    clauses as they build them and construct through ``_unchecked_formula``.
    """

    num_vars: int
    clauses: list[Clause]
    varmap: VarMap | None = None

    def __post_init__(self):
        num_vars = self.num_vars
        if num_vars < 0:
            raise CnfError("negative variable count")
        for clause in self.clauses:
            for lit in make_clause(clause):
                if not -num_vars <= lit <= num_vars:
                    raise CnfError(f"literal {lit} out of range for {num_vars} variables")


def _unchecked_formula(num_vars: int, clauses: list[Clause], varmap: VarMap | None) -> Formula:
    """A Formula of clauses that their producer has checked as it built them."""
    formula = object.__new__(Formula)
    formula.num_vars, formula.clauses, formula.varmap = num_vars, clauses, varmap
    return formula


class _ClauseFormats(dict):
    """Clause length n -> ``"%d " * n + "0"``, made on first use."""

    def __missing__(self, n: int) -> str:
        fmt = self[n] = "%d " * n + "0"
        return fmt


def write_dimacs(formula: Formula) -> str:
    """Serialize to DIMACS, with any varmap annotations as leading comments.

    Each clause line is one ``%`` operation on the format for its length;
    ``tuple`` returns a tuple clause itself and copies any other sequence.
    """
    lines = []
    if formula.varmap is not None:
        lines.extend(formula.varmap.comment_lines())
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    formats = _ClauseFormats()
    lines.extend([formats[len(clause)] % tuple(clause) for clause in formula.clauses])
    return "\n".join(lines) + "\n"


def _parse_header(line: str, line_no: int) -> tuple[int, int]:
    """(variable count, clause count) from a stripped ``p cnf`` line."""
    fields = line.split()
    if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
        raise DimacsError(line_no, f"malformed header: {line!r}")
    try:
        num_vars, num_clauses = int(fields[2]), int(fields[3])
    except ValueError:
        raise DimacsError(line_no, f"malformed header: {line!r}")
    if num_vars < 0 or num_clauses < 0:
        raise DimacsError(line_no, f"negative count in header: {line!r}")
    return num_vars, num_clauses


def _parse_comment(line: str, varmaps: dict, line_no: int) -> None:
    """Record a ``c varmap <name> <idx> <var>`` or ``c target <idx> <value>``
    annotation of a stripped comment line, with its line number; other
    comments are dropped.  A second annotation of the same name and index
    is an error."""
    tokens = line[1:].split()
    if not tokens:
        return
    if tokens[0] == "varmap":
        if len(tokens) != 4 or tokens[1] not in ("p", "q", "out", "sel"):
            raise DimacsError(line_no, f"bad varmap annotation: {' '.join(tokens)}")
        try:
            idx, value = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise DimacsError(line_no, f"non-integer varmap annotation: {' '.join(tokens)}")
        name = tokens[1]
    elif tokens[0] == "target":
        if len(tokens) != 3:
            raise DimacsError(line_no, f"bad target annotation: {' '.join(tokens)}")
        try:
            idx, value = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise DimacsError(line_no, f"non-integer target annotation: {' '.join(tokens)}")
        name = "target"
    else:
        return
    entries = varmaps.setdefault(name, {})
    if idx in entries:
        raise DimacsError(line_no, f"repeated {tokens[0]} annotation: {' '.join(tokens)}")
    entries[idx] = (value, line_no)


def _assemble_varmap(parts: dict, num_vars: int, last_line: int) -> VarMap | None:
    """The VarMap of the recorded annotations.  A gap in the indices is
    reported on the last line, a variable outside 1..num_vars on its own."""
    if not parts:
        return None

    def ordered(name):
        entries = parts.get(name, {})
        if sorted(entries) != list(range(len(entries))):
            raise DimacsError(last_line, f"varmap {name} indices are not contiguous from 0")
        values = [entries[i] for i in range(len(entries))]
        for value, line_no in values:
            if name != "target" and not 1 <= value <= num_vars:
                raise DimacsError(
                    line_no, f"varmap {name} variable {value} out of range for {num_vars} variables"
                )
        return [value for value, _ in values]

    return VarMap(
        p_bits=ordered("p"),
        q_bits=ordered("q"),
        out_bits=ordered("out"),
        sel_vars=ordered("sel"),
        targets=ordered("target"),
    )


class _Literals(dict):
    """Literal token -> int, each distinct token converted once; None for a
    token that is no literal of 1..num_vars in either sign."""

    def __init__(self, num_vars: int):
        super().__init__()
        self.num_vars = num_vars

    def __missing__(self, token: str) -> int | None:
        try:
            lit = int(token)
        except ValueError:
            lit = None
        else:
            if not 0 < abs(lit) <= self.num_vars:
                lit = None
        self[token] = lit
        return lit


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS text; varmap annotation comments are preserved.

    Raises :class:`DimacsError` with a line number for a malformed or
    negative header, out-of-range literals or varmap variables, a clause
    missing its terminating 0, or a clause count that disagrees with the
    header.  A line holding one whole clause -- literals of distinct
    variables in range, then its only 0 -- is taken as it stands; any other
    line goes to the pending literals, which are cut at every 0 and checked
    clause by clause.
    """
    lines = text.splitlines()
    num_vars = num_clauses = None
    clauses: list[Clause] = []
    append = clauses.append
    varmap_parts: dict = {}
    pending: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        lead = tokens[0][0]
        if lead == "c":
            _parse_comment(line.strip(), varmap_parts, line_no)
            continue
        if lead == "p":
            if num_vars is not None:
                raise DimacsError(line_no, "duplicate header")
            num_vars, num_clauses = _parse_header(line.strip(), line_no)
            literal = _Literals(num_vars).__getitem__
            continue
        if num_vars is None:
            raise DimacsError(line_no, "clause before header")
        last = tokens.pop()
        if last == "0" and not pending:
            clause = tuple(map(literal, tokens))
            try:
                distinct = len(set(map(abs, clause)))
            except TypeError:  # abs(None): a token that is no literal in range
                distinct = -1
            if clause and distinct == len(clause):
                append(clause)
                continue
        tokens.append(last)
        try:
            pending += map(int, tokens)
        except ValueError:
            raise DimacsError(line_no, f"non-integer literal on line: {line.strip()!r}")
        while 0 in pending:
            cut = pending.index(0)
            lits = pending[:cut]
            pending = pending[cut + 1:]
            if any(abs(lit) > num_vars for lit in lits):
                raise DimacsError(line_no, "variable out of range")
            try:
                append(make_clause(lits))
            except CnfError as exc:
                raise DimacsError(line_no, str(exc))

    last_line = len(lines)
    if num_vars is None:
        raise DimacsError(last_line, "missing header")
    if pending:
        raise DimacsError(last_line, "missing terminating 0")
    if num_clauses != len(clauses):
        raise DimacsError(
            last_line,
            f"clause count mismatch: header says {num_clauses}, found {len(clauses)}",
        )
    varmap = _assemble_varmap(varmap_parts, num_vars, last_line)
    return _unchecked_formula(num_vars, clauses, varmap)


def parse_solver_output(text: str) -> tuple[Status, Assignment | None]:
    """Interpret SAT-competition style solver output.

    Recognizes ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status lines and
    ``v`` lines of signed literals terminated by 0.  A SAT claim without a
    0-terminated model is downgraded to UNKNOWN with a warning.
    """
    status = Status.UNKNOWN
    model_lits: list[int] = []
    model_complete = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            verdict = line[2:].strip()
            if verdict == "SATISFIABLE":
                status = Status.SAT
            elif verdict == "UNSATISFIABLE":
                status = Status.UNSAT
        elif line.startswith("v ") or line == "v":
            for token in line[1:].split():
                try:
                    lit = int(token)
                except ValueError:
                    continue
                if lit == 0:
                    model_complete = True
                else:
                    model_lits.append(lit)

    if status is Status.SAT:
        if not model_complete:
            log.warning("solver claimed SAT but printed no 0-terminated model")
            return Status.UNKNOWN, None
        return Status.SAT, {abs(lit): lit > 0 for lit in model_lits}
    if status is Status.UNSAT:
        return Status.UNSAT, None
    return Status.UNKNOWN, None


def evaluate(formula: Formula, assignment: Assignment) -> bool:
    """True iff every clause has at least one satisfied literal.

    Every variable occurring in the formula must be assigned.
    """
    for clause in formula.clauses:
        satisfied = False
        for lit in clause:
            var = abs(lit)
            if var not in assignment:
                raise CnfError(f"variable {var} unassigned")
            if assignment[var] == (lit > 0):
                satisfied = True
        if not satisfied:
            return False
    return True


@dataclass
class SimplifyResult:
    """Outcome of unit propagation.

    ``formula`` holds the surviving clauses (unit clauses consumed,
    satisfied clauses dropped, falsified literals deleted) with variable
    ids intact, followed by a unit clause for every forced varmap variable,
    so the varmap still decodes models of the simplified formula.
    ``units`` is the forced partial assignment.  ``conflict`` marks
    derivation of an empty clause, in which case ``formula`` is empty and
    meaningless.
    """

    formula: Formula
    units: Assignment
    conflict: bool = False


def unit_propagate(formula: Formula) -> SimplifyResult:
    """Propagate unit clauses to fixpoint.

    Visits clauses in the order of rounds of full scans, each scan seeing the
    units found earlier in it, but visits only clauses a new unit touched:
    after a unit found in clause ``i``, clause ``j`` of its variable is due
    later in the same scan when ``j > i`` and in the next one otherwise.  So
    a conflict stops at the same clause with the same units as a scan would.
    Clauses no unit touched keep their tuple.
    """
    clauses = formula.clauses
    units: Assignment = {}
    # value[lit] is True/False once lit's variable is forced; a negative
    # literal indexes from the end, so each literal has its own slot
    value: list[bool | None] = [None] * (2 * formula.num_vars + 1)
    out: list[Clause | None] = list(clauses)  # None once satisfied
    occurs: list[list[int]] = [[] for _ in range(formula.num_vars + 1)]
    for i, clause in enumerate(clauses):
        for lit in clause:
            occurs[abs(lit)].append(i)
    due = [i for i, clause in enumerate(clauses) if len(clause) < 2]  # a heap, sorted
    next_scan: list[int] = []
    shortened: set[int] = set()
    while due:
        i = heappop(due)
        clause = out[i]
        if clause is not None:
            free = []
            for lit in clause:
                if value[lit] is None:
                    free.append(lit)
                elif value[lit]:
                    out[i] = None
                    break
            else:
                if not free:
                    empty = _unchecked_formula(formula.num_vars, [], formula.varmap)
                    return SimplifyResult(empty, units, conflict=True)
                if len(free) > 1:
                    shortened.add(i)
                else:
                    lit = free[0]
                    units[abs(lit)] = lit > 0
                    value[lit], value[-lit] = True, False
                    out[i] = None
                    for j in occurs[abs(lit)]:
                        if out[j] is not None:
                            if j > i:
                                heappush(due, j)
                            else:
                                next_scan.append(j)
        if not due:
            due, next_scan = sorted(set(next_scan)), []
    for i in shortened:
        if out[i] is not None:
            out[i] = tuple([lit for lit in out[i] if value[lit] is None])
    kept = [clause for clause in out if clause is not None]
    if formula.varmap is not None:
        kept += [(v if units[v] else -v,) for v in formula.varmap.all_vars() if v in units]
    return SimplifyResult(_unchecked_formula(formula.num_vars, kept, formula.varmap), units)
