import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from satfactor.cnf import (
    CnfError,
    DimacsError,
    Formula,
    SimplifyResult,
    Status,
    VarMap,
    _assemble_varmap,
    _parse_comment,
    evaluate,
    make_clause,
    parse_dimacs,
    parse_solver_output,
    unit_propagate,
    write_dimacs,
    write_solver_output,
)
from satfactor.encoder import ALGORITHMS, encode, spec_for
from satfactor.numtheory import gen_semiprime
from satfactor.solver import solve

# the NAND gate z = not (x and y): (x or z)(y or z)(-x or -y or -z)
NAND = Formula(3, [(1, 3), (2, 3), (-1, -2, -3)])


class TestMakeClause:
    def test_valid(self):
        assert make_clause([1, -2, 3]) == (1, -2, 3)

    def test_empty_rejected(self):
        with pytest.raises(CnfError):
            make_clause([])

    def test_duplicate_rejected(self):
        with pytest.raises(CnfError, match="duplicate"):
            make_clause([1, 1])

    def test_tautology_rejected(self):
        with pytest.raises(CnfError, match="tautolog"):
            make_clause([1, -1])

    def test_zero_rejected(self):
        with pytest.raises(CnfError):
            make_clause([0])

    @pytest.mark.parametrize("lits", [[True, 2], [2, True], [False, 2]])
    def test_bool_rejected(self, lits):
        # True == 1 and False == 0 as ints; a bool must not pass as a variable
        with pytest.raises(CnfError, match="invalid literal"):
            make_clause(lits)


class TestFormula:
    def test_out_of_range_literal(self):
        with pytest.raises(CnfError, match="out of range"):
            Formula(1, [(1, -2)])

    def test_empty_formula(self):
        assert Formula(0, []).clauses == []

    def test_empty_clause_rejected(self):
        # the solver cannot watch an empty clause
        with pytest.raises(CnfError, match="empty clause"):
            solve(Formula(1, [()]))

    def test_zero_literal_rejected(self):
        # DIMACS would read the 0 as the end of the clause
        with pytest.raises(CnfError, match=r"literal 0 in clause \(0, 1\)"):
            write_dimacs(Formula(2, [(0, 1), (2,)]))

    @pytest.mark.parametrize("clause", [(True, 2), (2, True), (False, 2)])
    def test_bool_literal_rejected(self, clause):
        # True == 1 as an int; it must not be written as variable 1
        with pytest.raises(CnfError, match="invalid literal"):
            Formula(2, [clause])

    def test_duplicate_literal_rejected(self):
        # write_dimacs would write it, and parse_dimacs reject it
        with pytest.raises(CnfError, match=r"duplicate literal 1 in clause \(1, 1\)"):
            Formula(2, [(1, 1)])

    def test_tautology_rejected(self):
        with pytest.raises(CnfError, match="tautological clause"):
            Formula(2, [(1, -1)])

    @pytest.mark.parametrize(
        "varmap, message",
        [
            # its DIMACS text would fail parse_dimacs
            (VarMap(p_bits=[9], targets=[5]), "varmap p_bits variable 9 out of range"),
            (VarMap(p_bits=[0]), "varmap p_bits variable 0 out of range"),
            (VarMap(p_bits=[-2]), "varmap p_bits variable -2 out of range"),
            (VarMap(q_bits=[1, 4]), "varmap q_bits variable 4 out of range"),
            (VarMap(out_bits=[3, 0]), "varmap out_bits variable 0 out of range"),
            (VarMap(sel_vars=[True]), "varmap sel_vars variable True out of range"),
            # written as c target 0 True and c target 0 1.5
            (VarMap(p_bits=[1], targets=[True]), "varmap target True is not an int"),
            (VarMap(targets=[35, 1.5]), "varmap target 1.5 is not an int"),
        ],
        ids=["beyond", "zero", "negative", "q", "out", "bool", "bool target", "float target"],
    )
    def test_varmap_variable_out_of_range(self, varmap, message):
        with pytest.raises(CnfError, match=message):
            Formula(3, [(1, 2)], varmap)


class TestWriteDimacs:
    def test_single_unit(self):
        assert write_dimacs(Formula(1, [(1,)])) == "p cnf 1 1\n1 0\n"

    def test_nand_gate(self):
        text = write_dimacs(NAND)
        lines = text.splitlines()
        assert lines[0] == "p cnf 3 3"
        assert lines[1:] == ["1 3 0", "2 3 0", "-1 -2 -3 0"]

    def test_varmap_comments(self):
        vm = VarMap(p_bits=[1], q_bits=[2], out_bits=[3], sel_vars=[], targets=[5])
        text = write_dimacs(Formula(3, [(1, 2, 3)], varmap=vm))
        assert "c varmap p 0 1" in text
        assert "c varmap q 0 2" in text
        assert "c varmap out 0 3" in text
        assert "c target 0 5" in text

    def test_empty_formula(self):
        assert write_dimacs(Formula(0, [])) == "p cnf 0 0\n"

    def test_list_clauses(self):
        assert write_dimacs(Formula(3, [[1, -2], [3]])) == "p cnf 3 2\n1 -2 0\n3 0\n"


def write_dimacs_reference(formula):
    """Reference writer: one str() per literal, joined per clause."""
    lines = []
    if formula.varmap is not None:
        lines.extend(formula.varmap.comment_lines())
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs_reference(text):
    """Reference parser: one token list per line, appended to a pending list
    that is cut at every 0, each literal checked on its own."""
    num_vars = None
    num_clauses = None
    clauses = []
    varmap_parts = {}
    pending = []
    last_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            _parse_comment(line, varmap_parts, line_no)
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
    return Formula(num_vars, clauses, varmap=_assemble_varmap(varmap_parts, num_vars, last_line))


def parse_outcome(parse, text):
    """The formula `parse` returns, or the line and message of its DimacsError."""
    try:
        return parse(text)
    except DimacsError as exc:
        return exc.line_no, str(exc)


# (text, line number, message) for every class of malformed input
MALFORMED = {
    "duplicate literal": ("p cnf 2 1\n1 2 1 0\n", 2, "duplicate literal 1 in clause (1, 2, 1)"),
    "tautology": ("p cnf 2 1\n1 -1 0\n", 2, "tautological clause (1, -1)"),
    "empty clause": ("p cnf 1 2\n1 0\n0\n", 3, "empty clause"),
    "empty clause mid-line": ("p cnf 1 2\n1 0 0\n", 2, "empty clause"),
    "non-integer token": ("p cnf 2 1\n1 x 0\n", 2, "non-integer literal on line: '1 x 0'"),
    "out-of-range literal": ("c hi\np cnf 1 1\n-2 0\n", 3, "variable out of range"),
    "out-of-range split clause": ("p cnf 2 1\n1\n3 0\n", 3, "variable out of range"),
    "missing terminating 0": ("p cnf 2 1\n1 -2\n", 2, "missing terminating 0"),
    "count too high": ("p cnf 2 3\n1 0\n2 0\n\n", 4, "clause count mismatch: header says 3, found 2"),
    "count too low": ("p cnf 2 1\n1 0\n2 0\n", 3, "clause count mismatch: header says 1, found 2"),
    "clause before header": ("1 0\np cnf 1 1\n", 1, "clause before header"),
    "duplicate header": ("p cnf 1 1\np cnf 1 1\n1 0\n", 2, "duplicate header"),
    "malformed header": ("p dnf 2 1\n1 0\n", 1, "malformed header: 'p dnf 2 1'"),
    "header count not an integer": ("p cnf 2 one\n1 0\n", 1, "malformed header: 'p cnf 2 one'"),
    "missing header": ("c only\n\n", 2, "missing header"),
    "bad varmap annotation": ("c varmap r 0 1\np cnf 1 1\n1 0\n", 1, "bad varmap annotation: varmap r 0 1"),
    "negative variable count": ("p cnf -1 0\n", 1, "negative count in header: 'p cnf -1 0'"),
    "negative clause count": ("p cnf 1 -1\n", 1, "negative count in header: 'p cnf 1 -1'"),
    "varmap variable out of range": (
        "c varmap p 0 99\np cnf 1 1\n1 0\n", 1, "varmap p variable 99 out of range for 1 variables",
    ),
    "varmap variable zero": (
        "c varmap q 0 1\nc varmap q 1 0\np cnf 1 1\n1 0\n", 2,
        "varmap q variable 0 out of range for 1 variables",
    ),
    "varmap index gap": ("c varmap p 1 1\np cnf 1 1\n1 0\n", 3, "varmap p indices are not contiguous from 0"),
    "repeated varmap annotation": (
        "c varmap p 0 1\nc varmap q 0 2\nc varmap p 0 2\np cnf 2 1\n1 0\n", 3,
        "repeated varmap annotation: varmap p 0 2",
    ),
    "repeated target annotation": (
        "p cnf 1 1\nc target 0 143\n1 0\nc target 0 35\n", 4, "repeated target annotation: target 0 35",
    ),
    "underscore in a literal": ("p cnf 10 1\n1_0 0\n", 2, "non-integer literal on line: '1_0 0'"),
    "underscore in the terminator": ("p cnf 2 1\n1 2 0_0\n", 2, "non-integer literal on line: '1 2 0_0'"),
    "non-ASCII digit": ("p cnf 1 1\n\u0661 0\n", 2, "non-integer literal on line: '\u0661 0'"),
    "underscore in a header count": ("p cnf 1_0 1\n1 0\n", 1, "malformed header: 'p cnf 1_0 1'"),
    "underscore in a varmap annotation": (
        "c varmap p 0 1_0\np cnf 10 1\n1 0\n", 1, "non-integer varmap annotation: varmap p 0 1_0",
    ),
}

# the odd forms that parse: (text, formula)
ACCEPTED = {
    "crlf line ends": ("p cnf 2 2\r\n1 -2 0\r\n2 0\r\n", Formula(2, [(1, -2), (2,)])),
    "two clauses on one line": ("p cnf 2 2\n1 0 -2 0\n", Formula(2, [(1,), (-2,)])),
    "clause split around a comment": ("p cnf 3 1\n1 2\nc note 0\n3 0\n", Formula(3, [(1, 2, 3)])),
    "blank lines": ("\np cnf 1 1\n\n  \n1 0\n\n", Formula(1, [(1,)])),
    "explicit plus sign": ("p cnf 2 1\n+1 -2 0\n", Formula(2, [(1, -2)])),
    "tabs and padding": ("\tp cnf 2 1 \n  -2\t1   0  \n", Formula(2, [(-2, 1)])),
    "no trailing newline": ("p cnf 1 1\n-1 0", Formula(1, [(-1,)])),
    "clause ending in -0": ("p cnf 1 1\n1 -0\n", Formula(1, [(1,)])),
    "varmap after the clauses": (
        "p cnf 2 1\n1 2 0\nc varmap p 0 2\n", Formula(2, [(1, 2)], varmap=VarMap(p_bits=[2])),
    ),
}


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.num_vars == 2
        assert f.clauses == [(1, -2)]

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="clause count mismatch"):
            parse_dimacs("p cnf 2 3\n1 0\n2 0\n")

    def test_variable_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_missing_terminating_zero(self):
        with pytest.raises(DimacsError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 2 1\n1 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as exc:
            parse_dimacs("c hi\np cnf 1 1\n2 0\n")
        assert exc.value.line_no == 3

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == [(1, 2, 3)]

    def test_plain_comments_dropped(self):
        f = parse_dimacs("c nothing\np cnf 1 1\n1 0\n")
        assert f.varmap is None

    def test_varmap_round_trip(self):
        vm = VarMap(p_bits=[1, 2], q_bits=[3], out_bits=[4, 5], sel_vars=[6], targets=[35, 77])
        f = Formula(6, [(1, -3), (2, 4, 6)], varmap=vm)
        assert parse_dimacs(write_dimacs(f)) == f

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_message(self, case):
        text, line_no, message = MALFORMED[case]
        with pytest.raises(DimacsError) as exc:
            parse_dimacs(text)
        assert exc.value.line_no == line_no
        assert str(exc.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize("case", sorted(ACCEPTED))
    def test_accepted_odd_form(self, case):
        text, formula = ACCEPTED[case]
        assert parse_dimacs(text) == formula == parse_dimacs_reference(text)


@st.composite
def formulas(draw):
    num_vars = draw(st.integers(min_value=1, max_value=12))
    n_clauses = draw(st.integers(min_value=0, max_value=20))
    clauses = []
    for _ in range(n_clauses):
        size = draw(st.integers(min_value=1, max_value=min(4, num_vars)))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars),
                min_size=size, max_size=size, unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        clauses.append(tuple(v if s else -v for v, s in zip(variables, signs)))
    return Formula(num_vars, clauses)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_dimacs_round_trip_property(formula):
    assert parse_dimacs(write_dimacs(formula)) == formula


@st.composite
def clause_lists(draw):
    """A variable count, clauses, as lists or tuples, of literals in range
    that may repeat a variable, within a clause or negated, and half of the
    time a varmap whose variables may lie outside 1..num_vars and whose
    targets may be bools or floats."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    lit = st.integers(min_value=-num_vars, max_value=num_vars).filter(bool)
    clause = st.lists(lit, min_size=1, max_size=4)
    varmap = None
    if draw(st.booleans()):
        bits = st.lists(st.integers(min_value=-1, max_value=num_vars + 1), max_size=3)
        varmap = VarMap(
            p_bits=draw(bits), q_bits=draw(bits), out_bits=draw(bits), sel_vars=draw(bits),
            targets=draw(st.lists(
                st.integers(min_value=-5, max_value=999) | st.booleans() | st.floats(), max_size=2
            )),
        )
    return num_vars, draw(st.lists(clause | clause.map(tuple), max_size=8)), varmap


@settings(max_examples=300, deadline=None)
@given(clause_lists())
def test_every_formula_survives_a_round_trip(case):
    """Formula rejects a clause that repeats a variable, a varmap variable
    out of range or a target that is no int, or the DIMACS text reads back
    as the same formula."""
    num_vars, clauses, varmap = case
    try:
        formula = Formula(num_vars, clauses, varmap)
    except CnfError:
        return
    if varmap == VarMap():
        formula.varmap = None  # it writes no line, so it reads back as None
    assert parse_dimacs(write_dimacs(formula)) == formula


WITHIN_LINE = [" ", " ", " ", "  ", "\t", " \t "]
LINE_BREAKS = ["\n", "\n", "\r\n", " \n", "\n\n", "\nc comment 0\n", "\n  \n"]


@st.composite
def dimacs_texts(draw):
    """A formula, maybe with a varmap, and DIMACS text for it with extra
    whitespace, blank lines, comments and plus signs; half the texts also
    break lines inside clauses and join clauses on one line."""
    formula = draw(formulas())
    n = formula.num_vars
    if draw(st.booleans()):
        bits = st.lists(st.integers(min_value=1, max_value=n), max_size=3)
        formula.varmap = VarMap(
            p_bits=draw(bits.filter(bool)), q_bits=draw(bits), out_bits=draw(bits), sel_vars=draw(bits),
            targets=draw(st.lists(st.integers(min_value=0, max_value=999), max_size=2)),
        )
    plus = draw(st.booleans())
    anywhere = st.sampled_from(WITHIN_LINE + LINE_BREAKS) if draw(st.booleans()) else None
    parts = []
    if formula.varmap is not None:
        parts += [line + "\n" for line in formula.varmap.comment_lines()]
    parts += draw(st.sampled_from(["", "c lead\n", "\n"]))
    parts.append(f"p cnf {n} {len(formula.clauses)}\n")
    for clause in formula.clauses:
        for lit in clause:
            token = f"+{lit}" if plus and lit > 0 and draw(st.booleans()) else str(lit)
            parts.append(token + draw(anywhere if anywhere is not None else st.sampled_from(WITHIN_LINE)))
        parts.append("0" + draw(anywhere if anywhere is not None else st.sampled_from(LINE_BREAKS)))
    return formula, "".join(parts)


@st.composite
def wide_formulas(draw):
    """Clauses of up to 40 literals of either sign, zero clauses allowed,
    half of the formulas with a varmap."""
    num_vars = draw(st.integers(min_value=1, max_value=60))
    clause = st.lists(
        st.integers(min_value=1, max_value=num_vars), min_size=1, max_size=min(40, num_vars), unique=True,
    ).flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    varmap = None
    if draw(st.booleans()):
        bits = st.lists(st.integers(min_value=1, max_value=num_vars), max_size=6)
        varmap = VarMap(
            p_bits=draw(bits), q_bits=draw(bits), out_bits=draw(bits), sel_vars=draw(bits),
            targets=draw(st.lists(st.integers(min_value=0, max_value=10**20), max_size=3)),
        )
    return Formula(num_vars, draw(st.lists(clause, max_size=12)), varmap=varmap)


@settings(max_examples=300, deadline=None)
@given(wide_formulas())
def test_write_matches_reference(formula):
    assert write_dimacs(formula) == write_dimacs_reference(formula)


@settings(max_examples=300, deadline=None)
@given(dimacs_texts())
def test_parse_matches_reference_on_reformatted_text(case):
    formula, text = case
    assert parse_dimacs(text) == formula == parse_dimacs_reference(text)


MUTATIONS = ["x", "0", "00", "-0", "+0", "99", "-99", "", "0 0", "1 -1", "c", "p cnf 1 1"]


@settings(max_examples=300, deadline=None)
@given(dimacs_texts(), st.data())
def test_parse_matches_reference_on_corrupted_text(case, data):
    """A token replaced or dropped: the same formula or the same error, with
    its line number, as the reference."""
    _, text = case
    words = text.split(" ")
    i = data.draw(st.integers(min_value=0, max_value=len(words) - 1))
    words[i] = data.draw(st.sampled_from(MUTATIONS))
    corrupted = " ".join(words)
    outcome = parse_outcome(parse_dimacs, corrupted)
    if isinstance(outcome, tuple) and "negative count in header" in outcome[1]:
        return  # a check the reference does not make
    assert outcome == parse_outcome(parse_dimacs_reference, corrupted)


class TestParseSolverOutput:
    def test_sat_with_model(self):
        status, assignment = parse_solver_output("s SATISFIABLE\nv 1 -2 0\n")
        assert status is Status.SAT
        assert assignment == {1: True, 2: False}

    def test_unsat(self):
        assert parse_solver_output("s UNSATISFIABLE\n") == (Status.UNSAT, None)

    def test_comment_only(self):
        assert parse_solver_output("c timeout\n") == (Status.UNKNOWN, None)

    def test_sat_without_complete_model(self, caplog):
        with caplog.at_level(logging.WARNING):
            status, assignment = parse_solver_output("s SATISFIABLE\nv 1 -2\n")
        assert status is Status.UNKNOWN
        assert assignment is None
        assert any("no 0-terminated model" in r.message for r in caplog.records)

    def test_model_spanning_lines(self):
        status, assignment = parse_solver_output("s SATISFIABLE\nv 1 2\nv -3 0\n")
        assert status is Status.SAT
        assert assignment == {1: True, 2: True, 3: False}

    def test_covers_exactly_v_line_variables(self):
        _, assignment = parse_solver_output("s SATISFIABLE\nv 5 -9 0\n")
        assert set(assignment) == {5, 9}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s SATISFIABLE\nv 1_0 -2 0\n", "line 2: non-integer model literal '1_0'"),
            ("s SATISFIABLE\nv 1 -2 x 0\n", "line 2: non-integer model literal 'x'"),
            ("s SATISFIABLE\nv 1 2\nv -1 0\n", "line 3: variable 1 given both signs"),
            ("s SATISFIABLE\nv 1 0 2 0\n", "line 2: literal '2' after the terminating 0"),
            ("s SATISFIABLE\nv 1 0\nv 2\n", "line 3: literal '2' after the terminating 0"),
            (
                "s SATISFIABLE\nv 1 0\ns UNSATISFIABLE\n",
                "line 3: second verdict 'UNSATISFIABLE' after 'SATISFIABLE'",
            ),
        ],
        ids=["underscore", "non-integer", "both-signs", "after-0", "after-0-next-line", "two-verdicts"],
    )
    def test_malformed_output_rejected(self, text, message):
        with pytest.raises(DimacsError) as info:
            parse_solver_output(text)
        assert str(info.value) == message

    def test_repeated_verdict_and_literal_accepted(self):
        text = "s SATISFIABLE\nv 1 1 -2 0\ns SATISFIABLE\n"
        assert parse_solver_output(text) == (Status.SAT, {1: True, 2: False})


class TestWriteSolverOutput:
    @pytest.mark.parametrize(
        "n_vars, v_lines",
        [
            (0, ["v 0"]),
            (3, ["v 1 -2 3 0"]),
            (12, ["v 1 -2 3 4 -5 6 7 -8 9 10 -11 12 0"]),
            (13, ["v 1 -2 3 4 -5 6 7 -8 9 10 -11 12", "v 13 0"]),
            (24, ["v 1 -2 3 4 -5 6 7 -8 9 10 -11 12", "v 13 -14 15 16 -17 18 19 -20 21 22 -23 24 0"]),
        ],
    )
    def test_sat_lines(self, n_vars, v_lines):
        model = {v: v % 3 != 2 for v in range(1, n_vars + 1)}
        assert write_solver_output(Status.SAT, model) == "\n".join(["s SATISFIABLE", *v_lines]) + "\n"

    def test_variable_order(self):
        assert write_solver_output(Status.SAT, {9: False, 2: True}) == "s SATISFIABLE\nv 2 -9 0\n"

    @pytest.mark.parametrize(
        "status, text", [(Status.UNSAT, "s UNSATISFIABLE\n"), (Status.UNKNOWN, "s UNKNOWN\n")]
    )
    def test_no_model(self, status, text):
        assert write_solver_output(status) == text


def _full_models(n_vars):
    return st.lists(st.booleans(), min_size=n_vars, max_size=n_vars).map(
        lambda signs: dict(enumerate(signs, 1))
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(Status),
    st.one_of(
        st.sampled_from([0, 12, 13, 24]).flatmap(_full_models),
        st.dictionaries(st.integers(1, 10**6), st.booleans(), max_size=40),
    ),
)
@example(Status.SAT, {})
@example(Status.SAT, {v: v % 2 == 0 for v in range(1, 13)})
@example(Status.SAT, {v: v % 2 == 0 for v in range(1, 14)})
@example(Status.SAT, {v: v % 2 == 0 for v in range(1, 25)})
def test_solver_output_round_trip(status, model):
    model = model if status is Status.SAT else None
    assert parse_solver_output(write_solver_output(status, model)) == (status, model)


class TestEvaluate:
    def test_nand_satisfying(self):
        # with x true and y false the gate output z must be true
        assert evaluate(NAND, {1: True, 2: False, 3: True})

    def test_nand_violated(self):
        assert not evaluate(NAND, {1: True, 2: True, 3: True})

    def test_empty_clause_list(self):
        assert evaluate(Formula(2, []), {})

    def test_unassigned_variable(self):
        with pytest.raises(CnfError, match="unassigned"):
            evaluate(NAND, {1: True, 2: False})


def unit_propagate_rounds(formula):
    """Reference propagation: rescans every clause, in order, until a round
    changes nothing; a unit found in a round applies to the rest of it."""
    units = {}
    clauses = list(formula.clauses)
    while True:
        progress = False
        remaining = []
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


def assert_same_as_rounds(formula):
    expected = unit_propagate_rounds(formula)
    result = unit_propagate(formula)
    assert result.conflict == expected.conflict
    assert result.units == expected.units
    assert result.formula.clauses == expected.formula.clauses
    assert result.formula.varmap is formula.varmap


@st.composite
def unit_heavy_formulas(draw):
    """Short clauses over few variables, so propagation runs long chains and
    often conflicts; each clause has distinct variables of random signs."""
    num_vars = draw(st.integers(min_value=1, max_value=10))
    clause = st.lists(
        st.integers(min_value=1, max_value=num_vars), min_size=1, max_size=min(3, num_vars), unique=True,
    ).flatmap(lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs)))
    return Formula(num_vars, draw(st.lists(clause, max_size=30)))


def encoder_instance(algorithm, bits, n_targets):
    """The encoded instance for `n_targets` distinct semi-primes of `bits` bits."""
    targets = {}
    seed = bits
    while len(targets) < n_targets:
        s = gen_semiprime(bits, seed)
        targets.setdefault(s.value, s)
        seed += 1
    if n_targets == 1:
        (s,) = targets.values()
        return encode(spec_for([s.value], algorithm, s.split))[0]
    return encode(spec_for(list(targets)))[0]


# 4-target instances start at 12 bits: 8 bits have only three balanced semi-primes
ENCODER_CASES = [
    *((alg, bits, 1) for alg in ALGORITHMS for bits in (8, 16, 24, 32, 48, 64)),
    *(("schoolbook", bits, 4) for bits in (12, 16, 24, 32, 48, 64)),
]


@pytest.mark.parametrize("algorithm, bits, n_targets", ENCODER_CASES)
def test_write_matches_reference_on_encoder_instances(algorithm, bits, n_targets):
    formula = encoder_instance(algorithm, bits, n_targets)
    assert write_dimacs(formula) == write_dimacs_reference(formula)


def interleaved_dimacs(formula):
    """DIMACS text for `formula` that cycles, clause by clause, through a
    whole-clause line, a clause split across two lines, two clauses on one
    line and a clause split around a ``c ... 0`` comment."""
    parts = [line + "\n" for line in formula.varmap.comment_lines()] if formula.varmap else []
    parts.append(f"p cnf {formula.num_vars} {len(formula.clauses)}\n")
    for i, clause in enumerate(formula.clauses):
        head, *tail = map(str, clause)
        rest = " ".join([*tail, "0"])
        parts.append((
            f"{head} {rest}\n",  # one whole clause
            f"{head}\n{rest}\n",  # split across two lines
            f"{head} {rest} ",  # the first of two clauses on a line
            f"{head} {rest}\n",  # and the second
            f"{head}\nc split 0\n{rest}\n",  # split around a comment
        )[i % 5])
    return "".join(parts)


@pytest.mark.parametrize("algorithm, bits, n_targets", ENCODER_CASES)
def test_parse_matches_reference_on_interleaved_encoder_text(algorithm, bits, n_targets):
    formula = encoder_instance(algorithm, bits, n_targets)
    text = interleaved_dimacs(formula)
    assert parse_dimacs(text) == formula == parse_dimacs_reference(text)


@pytest.mark.parametrize("algorithm, bits, n_targets", ENCODER_CASES)
def test_producers_pass_the_public_check(algorithm, bits, n_targets):
    """The encoder, parse_dimacs and unit_propagate skip Formula's check;
    what each of them builds must pass it all the same."""
    formula = encoder_instance(algorithm, bits, n_targets)
    result = unit_propagate(formula)
    # forced varmap bits stay in the result as unit clauses; some are forced here
    assert any(v in result.units for v in formula.varmap.all_vars())
    for f in (formula, parse_dimacs(write_dimacs(formula)), result.formula):
        assert f == Formula(f.num_vars, f.clauses, f.varmap)


class TestUnitPropagate:
    def test_chain(self):
        f = Formula(2, [(1,), (-1, 2)])
        result = unit_propagate(f)
        assert not result.conflict
        assert result.units == {1: True, 2: True}
        assert result.formula.clauses == []

    def test_conflict(self):
        result = unit_propagate(Formula(1, [(1,), (-1,)]))
        assert result.conflict

    def test_fixpoint_no_units(self):
        f = Formula(3, [(1, 2), (-2, 3)])
        result = unit_propagate(f)
        assert result.units == {}
        assert result.formula.clauses == f.clauses

    def test_preserves_variable_ids(self):
        f = Formula(5, [(3,), (-3, 5, 4)])
        result = unit_propagate(f)
        assert result.units == {3: True}
        assert result.formula.clauses == [(5, 4)]
        assert result.formula.num_vars == 5

    def test_untouched_clauses_keep_their_tuple(self):
        f = Formula(5, [(1, 2), (-3,), (3, 4, 5), (-4, -5)])
        result = unit_propagate(f)
        assert result.formula.clauses == [(1, 2), (4, 5), (-4, -5)]
        assert result.formula.clauses[0] is f.clauses[0]
        assert result.formula.clauses[2] is f.clauses[3]

    def test_conflict_units_are_those_of_the_scan(self):
        # the scan finds 1 in clause 0, 2 in clause 1, then clause 2 (-1 -2)
        # is false before clause 3 (3) is reached
        result = unit_propagate(Formula(3, [(1,), (-1, 2), (-1, -2), (3,)]))
        assert result.conflict
        assert result.units == {1: True, 2: True}

    def test_unit_found_late_waits_for_the_next_scan(self):
        # the first scan forces 2 in clause 2 and 4 in clause 3; clause 0
        # sees 2 only in the second scan, forces 3, and clause 1 is false
        result = unit_propagate(Formula(4, [(-2, 3), (-3, -2), (2,), (4,)]))
        assert result.conflict
        assert result.units == {2: True, 4: True, 3: True}

    @pytest.mark.parametrize("algorithm, bits, n_targets", ENCODER_CASES)
    def test_same_as_rounds_on_encoder_instances(self, algorithm, bits, n_targets):
        assert_same_as_rounds(encoder_instance(algorithm, bits, n_targets))


@settings(max_examples=300, deadline=None)
@given(st.one_of(formulas(), unit_heavy_formulas()))
def test_unit_propagation_same_as_rounds(formula):
    assert_same_as_rounds(formula)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_unit_propagation_preserves_evaluation(formula):
    import itertools

    result = unit_propagate(formula)
    if result.conflict:
        return
    for bits in itertools.product([False, True], repeat=formula.num_vars):
        assignment = {v + 1: bits[v] for v in range(formula.num_vars)}
        if any(assignment[var] != val for var, val in result.units.items()):
            continue
        assert evaluate(formula, assignment) == evaluate(result.formula, assignment)
