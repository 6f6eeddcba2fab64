"""Compile integer multiplication/division circuits into CNF factoring instances.

The schoolbook encoder forms all partial products with AND gates and then
compresses each output column greedily with full adders (a half adder only
when exactly two bits remain), which minimizes variables and clauses at the
price of a circuit no hardware designer would ever build.  Output bits are
pinned to the target number with unit clauses rather than folded away, so
every instance for a given bitlength shares one circuit structure.  Forcing
the leading factor bits to 1 excludes the trivial 1 * N solutions.

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

    def _check_inputs(self, *lits: int) -> None:
        """Gate inputs must be int literals (not bools) of distinct allocated
        variables.  Every gate calls this before it allocates its output, so
        a rejected gate leaves the builder as it was, and its fixed clauses
        are then free of repeats and tautologies by construction."""
        for lit in lits:
            if type(lit) is not int:
                raise EncodeError(f"gate input {lit!r} is not an int literal")
        variables = set(map(abs, lits))
        if len(variables) != len(lits):
            raise EncodeError(f"gate inputs {lits} repeat a variable")
        if not 0 < min(variables) <= max(variables) <= self.num_vars:
            raise EncodeError(f"gate inputs {lits} reference an unallocated variable")

    # -- gate primitives: inputs are literals, each defines a fresh output wire

    def and_gate(self, a: int, c: int) -> int:
        self._check_inputs(a, c)
        w = self.fresh_var()
        self.clauses += ((-a, -c, w), (a, -w), (c, -w))
        return w

    def or_gate(self, a: int, c: int) -> int:
        self._check_inputs(a, c)
        w = self.fresh_var()
        self.clauses += ((a, c, -w), (-a, w), (-c, w))
        return w

    def xor_gate(self, a: int, c: int) -> int:
        self._check_inputs(a, c)
        w = self.fresh_var()
        self.clauses += ((-w, a, c), (-w, -a, -c), (w, -a, c), (w, a, -c))
        return w

    def _parity3(self, s: int, a: int, c: int, d: int) -> None:
        # s <-> a xor c xor d, eight 4-literal clauses; unchecked, callers check
        self.clauses += (
            (-s, a, c, d), (-s, -a, -c, d), (-s, -a, c, -d), (-s, a, -c, -d),
            (s, -a, c, d), (s, a, -c, d), (s, a, c, -d), (s, -a, -c, -d),
        )

    def _majority3(self, w: int, a: int, c: int, d: int) -> None:
        # w <-> at least two of a, c, d, six 3-literal clauses; unchecked
        self.clauses += (
            (-w, a, c), (-w, a, d), (-w, c, d), (w, -a, -c), (w, -a, -d), (w, -c, -d),
        )

    def half_adder(self, a: int, c: int) -> tuple[int, int]:
        s = self.xor_gate(a, c)
        cout = self.and_gate(a, c)
        return s, cout

    def full_adder(self, a: int, c: int, d: int) -> tuple[int, int]:
        self._check_inputs(a, c, d)
        s = self.fresh_var()
        self._parity3(s, a, c, d)
        cout = self.fresh_var()
        self._majority3(cout, a, c, d)
        return s, cout

    def full_subtractor(self, a: int, c: int, bin_: int) -> tuple[int, int]:
        """Difference and borrow-out of a - c - bin_."""
        self._check_inputs(a, c, bin_)
        diff = self.fresh_var()
        self._parity3(diff, a, c, bin_)
        bout = self.fresh_var()
        self._majority3(bout, -a, c, bin_)
        return diff, bout

    def mux_gate(self, sel: int, t: int, f: int) -> int:
        """Output equals t when sel is true, f otherwise."""
        self._check_inputs(sel, t, f)
        w = self.fresh_var()
        self.clauses += (
            (-sel, -t, w), (-sel, t, -w), (sel, -f, w), (sel, f, -w), (-t, -f, w), (t, f, -w),
        )
        return w

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
        return self.and_gate(a, c)

    def bor(self, a, c):
        if a is True or c is True:
            return True
        if a is False:
            return c
        if c is False:
            return a
        if a == c:
            return a
        if a == -c:
            return True
        return self.or_gate(a, c)

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
        return self.xor_gate(a, c)

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
        return self.mux_gate(sel, t, f)

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
        return self.half_adder(a, c)

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
        return self.full_adder(a, c, d)

    def bsub(self, a, c, bin_):
        """Difference and borrow of a - c - bin_ with constant folding."""
        if c is False and bin_ is False:
            return a, False
        if not isinstance(a, bool) and not isinstance(c, bool) and not isinstance(bin_, bool):
            return self.full_subtractor(a, c, bin_)
        diff = self.bxor(self.bxor(a, c), bin_)
        borrow = self.bor(
            self.bor(self.band(bnot(a), c), self.band(bnot(a), bin_)),
            self.band(c, bin_),
        )
        return diff, borrow

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


def sub_vectors(builder: CircuitBuilder, a: list, b: list) -> list:
    """Two's-complement difference a - b, for callers that guarantee a >= b.

    Returns len(a) bits; the final borrow is provably zero and dropped.
    """
    borrow = False
    out = []
    for i in range(len(a)):
        y = b[i] if i < len(b) else False
        diff, borrow = builder.bsub(a[i], y, borrow)
        out.append(diff)
    return out


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
    z1 = sub_vectors(builder, sub_vectors(builder, z1m, z2), z0)
    width = len(p_bits) + len(q_bits)
    columns: list[list] = [[] for _ in range(width)]
    for vec, shift in ((z0, 0), (z1, h), (z2, 2 * h)):
        for i, bit in enumerate(vec):
            if bit is not False and shift + i < width:
                columns[shift + i].append(bit)
    return compress_columns(builder, columns, width)


def _multiplier(spec: EncodeSpec, product_fn):
    """A builder holding the factor variables, their leading bits pinned to 1,
    and their product; returns it with the factor and output variables."""
    builder = CircuitBuilder()
    m_p, m_q = spec.factor_split
    p_bits = [builder.fresh_var() for _ in range(m_p)]
    q_bits = [builder.fresh_var() for _ in range(m_q)]
    # excludes the trivial factorizations 1 * N and N * 1
    builder.add(p_bits[-1])
    builder.add(q_bits[-1])
    out = product_fn(builder, p_bits, q_bits)
    out_vars = [builder.materialize(bit) for bit in out]
    return builder, p_bits, q_bits, out_vars


def _fix_output(builder: CircuitBuilder, out_vars: list[int], value: int) -> None:
    for i, v in enumerate(out_vars):
        builder.add(v if (value >> i) & 1 else -v)


def _single_target(spec: EncodeSpec) -> int:
    if len(spec.targets) != 1:
        raise EncodeError(f"{spec.algorithm} encoding takes a single target")
    return spec.targets[0]


def _product_encoding(spec: EncodeSpec, product_fn) -> tuple[Formula, VarMap]:
    target = _single_target(spec)
    builder, p_bits, q_bits, out_vars = _multiplier(spec, product_fn)
    _fix_output(builder, out_vars, target)
    varmap = VarMap(p_bits=p_bits, q_bits=q_bits, out_bits=out_vars, targets=[target])
    return _unchecked_formula(builder.num_vars, builder.clauses, varmap), varmap


def encode_schoolbook(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """Schoolbook multiplier with maximal full-adder column compression."""
    return _product_encoding(spec, schoolbook_product)


def encode_karatsuba(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """Karatsuba multiplier; middle term via two two's-complement subtractions."""
    return _product_encoding(spec, karatsuba_product)


def encode_division(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """Restoring-division circuit N / p = q with remainder forced to zero.

    The dividend enters as variables pinned by unit clauses, mirroring how
    the multiplier encodings pin their output, so instances for equal
    bitlengths keep one structure.  p_bits is the divisor, q_bits the
    quotient.
    """
    target = _single_target(spec)
    m_p, m_q = spec.factor_split
    n = spec.n_bits
    builder = CircuitBuilder()
    divisor = [builder.fresh_var() for _ in range(m_p)]
    dividend = [builder.fresh_var() for _ in range(n)]
    builder.add(divisor[-1])
    _fix_output(builder, dividend, target)

    width = m_p + 1  # restored remainder stays below the divisor
    remainder: list = [False] * width
    quotient: list[int] = []
    for i in range(n - 1, -1, -1):
        shifted = [dividend[i]] + remainder[: width - 1]
        diff = []
        borrow = False
        for k in range(width):
            d_bit = divisor[k] if k < m_p else False
            bit, borrow = builder.bsub(shifted[k], d_bit, borrow)
            diff.append(bit)
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

    varmap = VarMap(p_bits=divisor, q_bits=quotient, out_bits=dividend, targets=[target])
    return _unchecked_formula(builder.num_vars, builder.clauses, varmap), varmap


def encode_multi_target(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """One multiplier feeding per-target equality checks joined by an OR.

    Selector k is forced true exactly when the product equals target k, and
    the final clause demands that some selector holds, so any model factors
    one of the targets and names which.
    """
    builder, p_bits, q_bits, out_vars = _multiplier(spec, schoolbook_product)
    sel_vars = []
    for target in spec.targets:
        sel = builder.fresh_var()
        sel_vars.append(sel)
        mismatch_lits = []
        for i, v in enumerate(out_vars):
            bit_set = (target >> i) & 1
            builder.add(-sel, v if bit_set else -v)
            mismatch_lits.append(-v if bit_set else v)
        builder.add(sel, *mismatch_lits)
    builder.add(*sel_vars)
    varmap = VarMap(
        p_bits=p_bits,
        q_bits=q_bits,
        out_bits=out_vars,
        sel_vars=sel_vars,
        targets=list(spec.targets),
    )
    return _unchecked_formula(builder.num_vars, builder.clauses, varmap), varmap


_ENCODERS = {
    "schoolbook": encode_schoolbook,
    "karatsuba": encode_karatsuba,
    "division": encode_division,
}

ALGORITHMS = tuple(_ENCODERS)


def encode(spec: EncodeSpec) -> tuple[Formula, VarMap]:
    """Dispatch on algorithm; multiple targets always use the selector encoding."""
    if len(spec.targets) > 1:
        if spec.algorithm != "schoolbook":
            raise EncodeError("multi-target instances use the schoolbook multiplier")
        return encode_multi_target(spec)
    return _ENCODERS[spec.algorithm](spec)


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

