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

    Rejects empty clauses, duplicate literals, and tautologies outright:
    the encoder is never supposed to produce them, so silently fixing
    them up would hide bugs.
    """
    clause = tuple(lits)
    if not clause:
        raise CnfError("empty clause")
    seen = set()
    for lit in clause:
        if not isinstance(lit, int) or lit == 0:
            raise CnfError(f"invalid literal {lit!r}")
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
    """A CNF formula: variable count, clause list, optional decode map."""

    num_vars: int
    clauses: list[Clause]
    varmap: VarMap | None = None

    def __post_init__(self):
        if self.num_vars < 0:
            raise CnfError("negative variable count")
        for clause in self.clauses:
            for lit in clause:
                if abs(lit) > self.num_vars:
                    raise CnfError(
                        f"literal {lit} out of range for {self.num_vars} variables"
                    )


def write_dimacs(formula: Formula) -> str:
    """Serialize to DIMACS, with any varmap annotations as leading comments."""
    lines = []
    if formula.varmap is not None:
        lines.extend(formula.varmap.comment_lines())
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _parse_varmap_comment(tokens: list[str], varmaps: dict, line_no: int) -> None:
    # "varmap p <idx> <var>" / "varmap q .." / "varmap out .." / "varmap sel .."
    if tokens[0] == "varmap":
        if len(tokens) != 4 or tokens[1] not in ("p", "q", "out", "sel"):
            raise DimacsError(line_no, f"bad varmap annotation: {' '.join(tokens)}")
        try:
            idx, var = int(tokens[2]), int(tokens[3])
        except ValueError:
            raise DimacsError(line_no, f"non-integer varmap annotation: {' '.join(tokens)}")
        varmaps.setdefault(tokens[1], {})[idx] = var
    elif tokens[0] == "target":
        if len(tokens) != 3:
            raise DimacsError(line_no, f"bad target annotation: {' '.join(tokens)}")
        try:
            idx, value = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise DimacsError(line_no, f"non-integer target annotation: {' '.join(tokens)}")
        varmaps.setdefault("target", {})[idx] = value


def _assemble_varmap(parts: dict) -> VarMap | None:
    if not parts:
        return None

    def ordered(name):
        entries = parts.get(name, {})
        if sorted(entries) != list(range(len(entries))):
            raise CnfError(f"varmap {name} indices are not contiguous from 0")
        return [entries[i] for i in range(len(entries))]

    return VarMap(
        p_bits=ordered("p"),
        q_bits=ordered("q"),
        out_bits=ordered("out"),
        sel_vars=ordered("sel"),
        targets=ordered("target"),
    )


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS text; varmap annotation comments are preserved.

    Raises :class:`DimacsError` with a line number for a malformed header,
    out-of-range literals, a clause missing its terminating 0, or a clause
    count that disagrees with the header.
    """
    num_vars = None
    num_clauses = None
    clauses: list[Clause] = []
    varmap_parts: dict = {}
    pending: list[int] = []
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            tokens = line[1:].split()
            if tokens and tokens[0] in ("varmap", "target"):
                _parse_varmap_comment(tokens, varmap_parts, line_no)
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(line_no, "duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise DimacsError(line_no, f"malformed header: {line!r}")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError(line_no, "clause before header")
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise DimacsError(line_no, f"non-integer literal on line: {line!r}")
        pending.extend(tokens)
        while 0 in pending:
            cut = pending.index(0)
            lits = pending[:cut]
            pending = pending[cut + 1:]
            if any(abs(lit) > num_vars for lit in lits):
                raise DimacsError(line_no, "variable out of range")
            try:
                clauses.append(make_clause(lits))
            except CnfError as exc:
                raise DimacsError(line_no, str(exc))

    if num_vars is None:
        raise DimacsError(last_line, "missing header")
    if pending:
        raise DimacsError(last_line, "missing terminating 0")
    if num_clauses != len(clauses):
        raise DimacsError(
            last_line,
            f"clause count mismatch: header says {num_clauses}, found {len(clauses)}",
        )
    return Formula(num_vars, clauses, varmap=_assemble_varmap(varmap_parts))


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
    """Propagate unit clauses to fixpoint."""
    units: Assignment = {}
    clauses = list(formula.clauses)
    while True:
        progress = False
        remaining: list[Clause] = []
        for clause in clauses:
            kept = []
            satisfied = False
            for lit in clause:
                var = abs(lit)
                if var in units:
                    if units[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    kept.append(lit)
            if satisfied:
                progress = True
                continue
            if not kept:
                return SimplifyResult(
                    Formula(formula.num_vars, [], varmap=formula.varmap), units, conflict=True
                )
            if len(kept) == 1:
                lit = kept[0]
                units[abs(lit)] = lit > 0
                progress = True
                continue
            if len(kept) != len(clause):
                progress = True
            remaining.append(tuple(kept))
        clauses = remaining
        if not progress:
            break
    if formula.varmap is not None:
        clauses += [(v if units[v] else -v,) for v in formula.varmap.all_vars() if v in units]
    return SimplifyResult(Formula(formula.num_vars, clauses, varmap=formula.varmap), units)
