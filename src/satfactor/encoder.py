"""Compile integer multiplication/division circuits into CNF factoring instances.

The schoolbook encoder forms all partial products with AND gates and then
compresses each output column greedily with full adders (a half adder only
when exactly two bits remain), which minimizes variables and clauses at the
price of a circuit no hardware designer would ever build.  Output bits are
pinned to the target number with unit clauses rather than folded away, so
every instance for a given bitlength shares one circuit structure.  Forcing
the leading factor bits to 1 excludes the trivial 1 * N solutions.

Every circuit is built from four gate kinds: AND, XOR, full adder and
multiplexer.  OR and subtraction are derived from them: a OR c is the
negated AND of the negated inputs, and a - c - b is the full adder on
(1 - a) + c + b, whose carry is the borrow and whose negated sum is the
difference.

A "bit" flowing through the builders is either a signed DIMACS literal or a
Python bool for a known constant; negating a literal is free, and the gate
wrappers fold constants so padded or degenerate inputs never emit clauses.
Constants must be tested with ``is True`` / ``is False`` before any literal
comparison, since Python happily equates True with variable 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import Assignment, Clause, Formula, VarMap, _unchecked_formula, make_clause
from .numtheory import factor_splits

KARATSUBA_BASE_BITS = 4


class EncodeError(ValueError):
    pass


class DecodeError(ValueError):
    pass


@dataclass
class EncodeSpec:
    """What to encode: the target number(s), algorithm, and factor widths."""

    n_bits: int
    targets: list[int]
    algorithm: str = "schoolbook"
    factor_split: tuple[int, int] | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise EncodeError(f"unknown algorithm {self.algorithm!r}")
        if not self.targets:
            raise EncodeError("no targets")
        if len(set(self.targets)) != len(self.targets):
            raise EncodeError("duplicate targets")
        for t in self.targets:
            if t.bit_length() != self.n_bits:
                raise EncodeError(
                    f"target {t} has {t.bit_length()} bits, expected {self.n_bits}"
                )
        splits = factor_splits(self.n_bits)
        if self.factor_split is None:
            self.factor_split = splits[0]
        if tuple(sorted(self.factor_split)) not in splits:
            raise EncodeError(
                f"factor split {self.factor_split} incompatible with {self.n_bits} bits"
            )


def spec_for(
    targets: list[int], algorithm: str = "schoolbook", split: tuple[int, int] | None = None
) -> EncodeSpec:
    """The spec for factoring ``targets``, sized to the bitlength of the first."""
    n_bits = targets[0].bit_length() if targets else 0
    return EncodeSpec(n_bits=n_bits, targets=targets, algorithm=algorithm, factor_split=split)


def bnot(bit):
    if bit is True:
        return False
    if bit is False:
        return True
    return -bit


def _and(w: int, inputs: tuple[int, ...]) -> tuple[Clause, ...]:
    a, c = inputs
    return (-a, -c, w), (a, -w), (c, -w)


def _xor(w: int, inputs: tuple[int, ...]) -> tuple[Clause, ...]:
    a, c = inputs
    return (-w, a, c), (-w, -a, -c), (w, -a, c), (w, a, -c)


def _mux(w: int, inputs: tuple[int, ...]) -> tuple[Clause, ...]:
    """w is t when sel is true, f otherwise."""
    sel, t, f = inputs
    return (-sel, -t, w), (-sel, t, -w), (sel, -f, w), (sel, f, -w), (-t, -f, w), (t, f, -w)


def _full_adder(s: int, inputs: tuple[int, ...]) -> tuple[Clause, ...]:
    """Sum s and carry w = s + 1 of a + c + d."""
    a, c, d = inputs
    w = s + 1
    return (  # s <-> a xor c xor d, then w <-> at least two of a, c, d
        (-s, a, c, d), (-s, -a, -c, d), (-s, -a, c, -d), (-s, a, -c, -d),
        (s, -a, c, d), (s, a, -c, d), (s, a, c, -d), (s, -a, -c, -d),
        (-w, a, c), (-w, a, d), (-w, c, d), (w, -a, -c), (w, -a, -d), (w, -c, -d),
    )


# The gate vocabulary: kind -> (number of output wires, clauses over the
# first output w, a second output being w + 1, and the input literals).
# Every clause a gate emits comes from here.
_GATES = {
    "and": (1, _and),
    "xor": (1, _xor),
    "full_adder": (2, _full_adder),
    "mux": (1, _mux),
}


class CircuitBuilder:
    """Allocates wire variables and accumulates gate clauses."""

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[Clause] = []

    def fresh_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *lits: int) -> None:
        """Append one hand-written clause, checked literal by literal."""
        for lit in lits:
            if abs(lit) > self.num_vars:
                raise EncodeError(f"literal {lit} references an unallocated variable")
        self.clauses.append(make_clause(lits))

    def gate(self, kind: str, *inputs: int) -> int | tuple[int, int]:
        """Define fresh output wires by a gate of ``kind`` (see ``_GATES``)
        over literal inputs; returns the output, or the (sum, carry) pair
        of a full adder.

        The inputs must be int literals (not bools) of distinct allocated
        variables.  They are checked before the outputs are allocated, so a
        rejected gate leaves the builder as it was, and the gate's fixed
        clauses are then free of repeats and tautologies by construction."""
        n_outputs, clauses = _GATES[kind]
        for lit in inputs:
            if type(lit) is not int:
                raise EncodeError(f"gate input {lit!r} is not an int literal")
        variables = set(map(abs, inputs))
        if len(variables) != len(inputs):
            raise EncodeError(f"gate inputs {inputs} repeat a variable")
        w = self.num_vars + 1
        if not 0 < min(variables) <= max(variables) < w:
            raise EncodeError(f"gate inputs {inputs} reference an unallocated variable")
        self.clauses += clauses(w, inputs)
        if n_outputs == 1:
            self.num_vars = w
            return w
        self.num_vars = w + 1
        return w, w + 1

    # -- constant-folding wrappers over bits (literal or bool)

    def band(self, a, c):
        if a is False or c is False:
            return False
        if a is True:
            return c
        if c is True:
            return a
        if a == c:
            return a
        if a == -c:
            return False
        return self.gate("and", a, c)

    def bor(self, a, c):
        return bnot(self.band(bnot(a), bnot(c)))

    def bxor(self, a, c):
        if a is False:
            return c
        if a is True:
            return bnot(c)
        if c is False:
            return a
        if c is True:
            return bnot(a)
        if a == c:
            return False
        if a == -c:
            return True
        return self.gate("xor", a, c)

    def bmux(self, sel, t, f):
        if sel is True:
            return t
        if sel is False:
            return f
        if t is True and f is False:
            return sel
        if t is False and f is True:
            return bnot(sel)
        if t is True:
            return self.bor(sel, f)
        if t is False:
            return self.band(bnot(sel), f)
        if f is True:
            return self.bor(bnot(sel), t)
        if f is False:
            return self.band(sel, t)
        if t == f:
            return t
        if t == -f:
            return bnot(self.bxor(sel, t))
        if t == sel:
            return self.bor(sel, f)
        if t == -sel:
            return self.band(bnot(sel), f)
        if f == sel:
            return self.band(sel, t)
        if f == -sel:
            return self.bor(bnot(sel), t)
        return self.gate("mux", sel, t, f)

    def half_add(self, a, c):
        if a is False:
            return c, False
        if c is False:
            return a, False
        if a is True:
            return bnot(c), c
        if c is True:
            return bnot(a), a
        if a == c:
            return False, a
        if a == -c:
            return True, False
        return self.gate("xor", a, c), self.gate("and", a, c)

    def full_add(self, a, c, d):
        for const, x, y in ((a, c, d), (c, a, d), (d, a, c)):
            if const is False:
                return self.half_add(x, y)
            if const is True:
                return bnot(self.bxor(x, y)), self.bor(x, y)
        if a == c:
            return d, a  # a + a + d = 2a + d
        if a == -c:
            return bnot(d), d  # a + (1 - a) + d = 1 + d
        if a == d or c == d:
            return (c if a == d else a), d
        if a == -d or c == -d:
            other = c if a == -d else a
            return bnot(other), other
        return self.gate("full_adder", a, c, d)

    def bsub(self, a, c, bin_):
        """Difference and borrow of a - c - bin_: the borrow is the carry
        of (1 - a) + c + bin_, and the difference that sum's bit negated."""
        s, borrow = self.full_add(bnot(a), c, bin_)
        return bnot(s), borrow

    def materialize(self, bit) -> int:
        """Return a plain variable equal to the given bit, allocating if needed."""
        if bit is True:
            v = self.fresh_var()
            self.add(v)
            return v
        if bit is False:
            v = self.fresh_var()
            self.add(-v)
            return v
        if bit > 0:
            return bit
        v = self.fresh_var()
        self.add(-v, bit)
        self.add(v, -bit)
        return v


def compress_columns(builder: CircuitBuilder, columns: list[list], width: int) -> list:
    """Reduce addend columns to one bit each, LSB to MSB.

    Greedily consumes three bits per full adder; a half adder fires only
    when a column is down to exactly two bits.  Carries flow into the next
    column.  Bits that would land beyond ``width`` are provably zero in an
    exact adder network and are dropped.
    """
    columns = [list(col) for col in columns]
    columns.extend([] for _ in range(width + 1 - len(columns)))
    outs = []
    for idx in range(width):
        bits = [b for b in columns[idx] if b is not False]
        while len(bits) >= 2:
            if len(bits) >= 3:
                s, cout = builder.full_add(bits.pop(0), bits.pop(0), bits.pop(0))
            else:
                s, cout = builder.half_add(bits.pop(0), bits.pop(0))
            if s is not False:
                bits.append(s)
            if cout is not False:
                columns[idx + 1].append(cout)
        outs.append(bits[0] if bits else False)
    return outs


def multiply_columns(builder: CircuitBuilder, p_bits: list, q_bits: list) -> list[list]:
    """Partial-product columns of a schoolbook multiply."""
    columns: list[list] = [[] for _ in range(len(p_bits) + len(q_bits))]
    for i, p in enumerate(p_bits):
        for j, q in enumerate(q_bits):
            pp = builder.band(p, q)
            if pp is not False:
                columns[i + j].append(pp)
    return columns


def schoolbook_product(builder: CircuitBuilder, p_bits: list, q_bits: list) -> list:
    width = len(p_bits) + len(q_bits)
    return compress_columns(builder, multiply_columns(builder, p_bits, q_bits), width)


def add_vectors(builder: CircuitBuilder, a: list, b: list) -> list:
    """Ripple-carry sum, one bit wider than the widest input."""
    width = max(len(a), len(b))
    carry = False
    out = []
    for i in range(width):
        x = a[i] if i < len(a) else False
        y = b[i] if i < len(b) else False
        s, carry = builder.full_add(x, y, carry)
        out.append(s)
    out.append(carry)
    return out


def sub_vectors(builder: CircuitBuilder, a: list, b: list) -> tuple[list, int | bool]:
    """Two's-complement difference a - b over len(a) bits, and the borrow
    out, which is true exactly when a < b."""
    borrow = False
    out = []
    for i in range(len(a)):
        y = b[i] if i < len(b) else False
        diff, borrow = builder.bsub(a[i], y, borrow)
        out.append(diff)
    return out, borrow


def karatsuba_product(builder: CircuitBuilder, p_bits: list, q_bits: list) -> list:
    """Recursive Karatsuba multiply over bit vectors; schoolbook below 5 bits."""
    if min(len(p_bits), len(q_bits)) <= KARATSUBA_BASE_BITS:
        return schoolbook_product(builder, p_bits, q_bits)
    h = max(len(p_bits), len(q_bits)) // 2
    p_lo, p_hi = p_bits[:h], p_bits[h:]
    q_lo, q_hi = q_bits[:h], q_bits[h:]
    z0 = karatsuba_product(builder, p_lo, q_lo)
    z2 = karatsuba_product(builder, p_hi, q_hi)
    sp = add_vectors(builder, p_lo, p_hi)
    sq = add_vectors(builder, q_lo, q_hi)
    z1m = karatsuba_product(builder, sp, sq)
    # z1m = z0 + z2 + p_lo * q_hi + p_hi * q_lo, so neither subtraction
    # goes below zero and both borrows are provably zero
    z1 = sub_vectors(builder, sub_vectors(builder, z1m, z2)[0], z0)[0]
    width = len(p_bits) + len(q_bits)
    columns: list[list] = [[] for _ in range(width)]
    for vec, shift in ((z0, 0), (z1, h), (z2, 2 * h)):
        for i, bit in enumerate(vec):
            if bit is not False and shift + i < width:
                columns[shift + i].append(bit)
    return compress_columns(builder, columns, width)


def _pin_targets(builder: CircuitBuilder, out_vars: list[int], targets: list[int]) -> list[int]:
    """Pin ``out_vars`` to a single target with unit clauses, or else to one
    of the targets: selector k is forced true exactly when the output equals
    target k, and a last clause demands some selector.  Returns the selectors."""
    if len(targets) == 1:
        for i, v in enumerate(out_vars):
            builder.add(v if (targets[0] >> i) & 1 else -v)
        return []
    sel_vars = []
    for target in targets:
        sel = builder.fresh_var()
        sel_vars.append(sel)
        mismatch_lits = []
        for i, v in enumerate(out_vars):
            bit_set = (target >> i) & 1
            builder.add(-sel, v if bit_set else -v)
            mismatch_lits.append(-v if bit_set else v)
        builder.add(sel, *mismatch_lits)
    builder.add(*sel_vars)
    return sel_vars


def _division(builder: CircuitBuilder, spec: EncodeSpec) -> tuple[list[int], list[int], list[int]]:
    """Restoring-division circuit N / p = q with remainder forced to zero;
    returns the divisor, quotient and dividend variables.

    The dividend enters as variables pinned by unit clauses, mirroring how
    the multipliers pin their output, so instances for equal bitlengths
    keep one structure.
    """
    m_p, m_q = spec.factor_split
    n = spec.n_bits
    divisor = [builder.fresh_var() for _ in range(m_p)]
    dividend = [builder.fresh_var() for _ in range(n)]
    builder.add(divisor[-1])
    _pin_targets(builder, dividend, spec.targets)

    width = m_p + 1  # restored remainder stays below the divisor
    remainder: list = [False] * width
    quotient: list[int] = []
    for i in range(n - 1, -1, -1):
        shifted = [dividend[i]] + remainder[: width - 1]
        diff, borrow = sub_vectors(builder, shifted, divisor)
        took = bnot(borrow)  # true when the shifted remainder >= divisor
        if i < m_q:
            quotient.append(builder.materialize(took))
        elif took is True:
            raise EncodeError("quotient provably exceeds its width")
        elif took is not False:
            builder.add(bnot(took))
        remainder = [builder.bmux(borrow, shifted[k], diff[k]) for k in range(width)]
    quotient.reverse()
    builder.add(quotient[-1])
    for bit in remainder:
        if bit is True:
            raise EncodeError("remainder provably nonzero")
        if bit is not False:
            builder.add(bnot(bit))
    return divisor, quotient, dividend


_PRODUCTS = {"schoolbook": schoolbook_product, "karatsuba": karatsuba_product}

ALGORITHMS = (*_PRODUCTS, "division")


def encode(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """The instance of ``spec``: its algorithm's circuit, the output pinned
    to the target (or, schoolbook only, to one of several).  A multiplier's
    leading factor bits are pinned to 1, excluding 1 * N and N * 1; division's
    p_bits are the divisor and q_bits the quotient."""
    if len(spec.targets) > 1 and spec.algorithm != "schoolbook":
        raise EncodeError("multi-target instances use the schoolbook multiplier")
    builder = CircuitBuilder()
    sel_vars: list[int] = []
    if spec.algorithm == "division":
        p_bits, q_bits, out_vars = _division(builder, spec)
    else:
        m_p, m_q = spec.factor_split
        p_bits = [builder.fresh_var() for _ in range(m_p)]
        q_bits = [builder.fresh_var() for _ in range(m_q)]
        builder.add(p_bits[-1])
        builder.add(q_bits[-1])
        out = _PRODUCTS[spec.algorithm](builder, p_bits, q_bits)
        out_vars = [builder.materialize(bit) for bit in out]
        sel_vars = _pin_targets(builder, out_vars, spec.targets)
    varmap = VarMap(p_bits, q_bits, out_vars, sel_vars, list(spec.targets))
    return _unchecked_formula(builder.num_vars, builder.clauses, varmap), varmap


def decode(varmap: VarMap, assignment: Assignment) -> tuple[int, int, int]:
    """Read factors (and the matched target index) out of a model."""

    def read(bits: list[int]) -> int:
        value = 0
        for i, v in enumerate(bits):
            if v not in assignment:
                raise DecodeError(f"model does not assign variable {v}")
            if assignment[v]:
                value |= 1 << i
        return value

    p = read(varmap.p_bits)
    q = read(varmap.q_bits)
    if not varmap.sel_vars:
        return p, q, 0
    true_sels = [k for k, v in enumerate(varmap.sel_vars) if assignment.get(v)]
    if len(true_sels) != 1:
        raise DecodeError(f"model has {len(true_sels)} true selectors, expected 1")
    return p, q, true_sels[0]

