import collections
import hashlib
import itertools
import random

import pytest

from satfactor.bench import generate_instances
from satfactor.cnf import CnfError, Formula, Status, parse_dimacs, unit_propagate, write_dimacs
from satfactor.encoder import (
    ALGORITHMS,
    CircuitBuilder,
    DecodeError,
    EncodeError,
    EncodeSpec,
    _GATES,
    decode,
    encode,
    spec_for,
    sub_vectors,
)
from satfactor.numtheory import gen_semiprime
from satfactor.solver import SolverConfig, solve

from oracles import schoolbook_size_model


def forced_outputs(builder, input_vars, input_bits, output_vars):
    """Oracle: fix the inputs with unit clauses, unit-propagate, read outputs."""
    clauses = list(builder.clauses)
    clauses += [((v,) if bit else (-v,)) for v, bit in zip(input_vars, input_bits)]
    result = unit_propagate(Formula(builder.num_vars, clauses))
    assert not result.conflict
    out = []
    for v in output_vars:
        assert v in result.units, f"output {v} not forced by propagation"
        out.append(result.units[v])
    return out


# gate kind -> its output bits as a function of its input bits
GATE_FUNCTIONS = {
    "and": lambda a, c: [a and c],
    "xor": lambda a, c: [a != c],
    "full_adder": lambda a, c, d: [bool((a + c + d) & 1), a + c + d >= 2],
    "mux": lambda sel, t, f: [t if sel else f],
}


class TestGates:
    @pytest.mark.parametrize("kind", GATE_FUNCTIONS)
    def test_truth_table(self, kind):
        function = GATE_FUNCTIONS[kind]
        arity = function.__code__.co_argcount
        for bits in itertools.product([False, True], repeat=arity):
            b = CircuitBuilder()
            ins = [b.fresh_var() for _ in range(arity)]
            out = b.gate(kind, *ins)
            outs = list(out) if isinstance(out, tuple) else [out]
            expected = function(*bits)
            # fresh wires, sum before carry
            assert outs == list(range(arity + 1, arity + 1 + len(expected)))
            assert b.num_vars == arity + len(expected)
            assert forced_outputs(b, ins, list(bits), outs) == expected

    def test_every_kind_has_a_truth_table(self):
        assert set(GATE_FUNCTIONS) == set(_GATES)

    def test_half_adder_truth_table(self):
        for a_bit, c_bit in itertools.product([False, True], repeat=2):
            b = CircuitBuilder()
            a, c = b.fresh_var(), b.fresh_var()
            s, cout = b.half_add(a, c)
            assert len(b.clauses) == 7
            assert b.num_vars == 4
            got = forced_outputs(b, [a, c], [a_bit, c_bit], [s, cout])
            total = int(a_bit) + int(c_bit)
            assert got == [bool(total & 1), bool(total >> 1)]


# constant-folding wrapper -> its output bits as a function of its input bits
WRAPPER_FUNCTIONS = {
    "band": lambda a, c: [a and c],
    "bor": lambda a, c: [a or c],
    "bxor": lambda a, c: [a != c],
    "bmux": lambda sel, t, f: [t if sel else f],
    "half_add": lambda a, c: [bool((a + c) & 1), a + c >= 2],
    "full_add": lambda a, c, d: [bool((a + c + d) & 1), a + c + d >= 2],
    "bsub": lambda a, c, d: [bool((a - c - d) & 1), a - c - d < 0],
}

# the bits each wrapper input is drawn from: both constants, and literals
# of x, y and z, which are variables 1, 2 and 3
FOLDING_BITS = [False, True, 1, -1, 2, -2, 3]


@pytest.mark.parametrize("wrapper", WRAPPER_FUNCTIONS)
def test_constant_folding(wrapper):
    """Every tuple of constants and literals gives the wrapper's function
    under every assignment of x, y and z, and a result that is a constant
    or an input literal adds no variable and no clause.  Every wrapper folds
    a repeated variable, so none of them reaches the gate's input check."""
    function = WRAPPER_FUNCTIONS[wrapper]
    arity = function.__code__.co_argcount
    for bits in itertools.product(FOLDING_BITS, repeat=arity):
        b = CircuitBuilder()
        for _ in range(3):
            b.fresh_var()
        out = getattr(b, wrapper)(*bits)
        outs = list(out) if isinstance(out, tuple) else [out]
        wires = [lit for lit in outs if type(lit) is not bool]
        if all(abs(lit) <= 3 for lit in wires):
            assert (b.num_vars, b.clauses) == (3, []), bits
        for xyz in itertools.product([False, True], repeat=3):
            forced = dict(zip(wires, forced_outputs(b, [1, 2, 3], list(xyz), list(map(abs, wires)))))
            got = [lit if type(lit) is bool else forced[lit] == (lit > 0) for lit in outs]
            inputs = [bit if type(bit) is bool else xyz[abs(bit) - 1] == (bit > 0) for bit in bits]
            assert got == function(*inputs), (bits, xyz)


def test_sub_vectors_borrow():
    """Every 3-bit a less every 1- to 3-bit b: the difference bits are
    (a - b) mod 8 and the borrow out is a < b."""
    for width in (1, 2, 3):
        for a, c in itertools.product(range(8), range(1 << width)):
            b = CircuitBuilder()
            a_vars = [b.fresh_var() for _ in range(3)]
            c_vars = [b.fresh_var() for _ in range(width)]
            diff, borrow = sub_vectors(b, a_vars, c_vars)
            outs = diff + [borrow]
            bits = [bool(x >> i & 1) for x, w in ((a, 3), (c, width)) for i in range(w)]
            forced = forced_outputs(b, a_vars + c_vars, bits, [abs(lit) for lit in outs])
            got = [value == (lit > 0) for value, lit in zip(forced, outs)]
            assert sum(bit << i for i, bit in enumerate(got[:3])) == (a - c) % 8, (a, c)
            assert got[3] == (a < c), (a, c)


# gates per kind in the gen_semiprime(n, 1) instance of each encoder, counted
# at CircuitBuilder.gate, so clauses appended around it lower a count
GATE_COUNTS = {
    ("schoolbook", 16): {"and": 72, "xor": 8, "full_adder": 48},
    ("schoolbook", 32): {"and": 272, "xor": 16, "full_adder": 224},
    ("schoolbook", 64): {"and": 1056, "xor": 32, "full_adder": 960},
    ("schoolbook", 128): {"and": 4160, "xor": 64, "full_adder": 3968},
    ("karatsuba", 128): {"and": 3658, "xor": 1707, "full_adder": 3702},
    ("division", 128): {"and": 381, "xor": 318, "mux": 8256, "full_adder": 8001},
}


@pytest.mark.parametrize("algorithm,bits", GATE_COUNTS)
def test_gate_counts(monkeypatch, algorithm, bits):
    counts = collections.Counter()
    real_gate = CircuitBuilder.gate

    def counting_gate(builder, kind, *inputs):
        counts[kind] += 1
        return real_gate(builder, kind, *inputs)

    monkeypatch.setattr(CircuitBuilder, "gate", counting_gate)
    s = gen_semiprime(bits, 1)
    encode(spec_for([s.value], algorithm, s.split))
    assert counts == GATE_COUNTS[algorithm, bits]


# test case -> (gate kind, number of inputs, clauses it appends)
GATES = {
    "and_gate": ("and", 2, 3),
    "xor_gate": ("xor", 2, 4),
    "full_adder": ("full_adder", 3, 14),
    "mux_gate": ("mux", 3, 6),
}

# a builder with variables 1..4 and one pinned clause; the inputs start
# from (2, -3, 4), so True (variable 1) is distinct and allocated
BAD_INPUTS = {
    "true": (lambda ins: [True, *ins[1:]], "not an int literal"),
    "false": (lambda ins: [False, *ins[1:]], "not an int literal"),
    "repeat": (lambda ins: [*ins[:-1], ins[0]], "repeat a variable"),
    "negated repeat": (lambda ins: [*ins[:-1], -ins[0]], "repeat a variable"),
    "unallocated": (lambda ins: [*ins[:-1], 5], "unallocated"),
    "negated unallocated": (lambda ins: [-5, *ins[1:]], "unallocated"),
    "zero": (lambda ins: [*ins[:-1], 0], "unallocated"),
}


def four_var_builder():
    b = CircuitBuilder()
    for _ in range(4):
        b.fresh_var()
    b.add(1)
    return b


class TestGateInputCheck:
    def test_every_kind_is_checked(self):
        assert {kind for kind, _, _ in GATES.values()} == set(_GATES)

    @pytest.mark.parametrize("gate", GATES)
    def test_valid_inputs(self, gate):
        kind, arity, n_clauses = GATES[gate]
        b = four_var_builder()
        b.gate(kind, *[2, -3, 4][:arity])
        assert len(b.clauses) == 1 + n_clauses
        assert b.num_vars == 4 + (2 if kind.startswith("full") else 1)

    @pytest.mark.parametrize("case", BAD_INPUTS)
    @pytest.mark.parametrize("gate", GATES)
    def test_bad_inputs_leave_the_builder_unchanged(self, gate, case):
        kind, arity, _ = GATES[gate]
        corrupt, message = BAD_INPUTS[case]
        b = four_var_builder()
        with pytest.raises(EncodeError, match=message):
            b.gate(kind, *corrupt([2, -3, 4][:arity]))
        assert b.num_vars == 4
        assert b.clauses == [(1,)]

    def test_add_rejects_bool(self):
        b = four_var_builder()
        with pytest.raises(CnfError, match="invalid literal"):
            b.add(True, 2)
        assert b.clauses == [(1,)]

    def test_add_rejects_unallocated(self):
        b = four_var_builder()
        with pytest.raises(EncodeError, match="unallocated"):
            b.add(2, -5)
        assert b.clauses == [(1,)]


def all_models(formula, varmap, limit=64):
    """Enumerate every model's decoded (p, q) by adding blocking clauses."""
    clauses = list(formula.clauses)
    found = []
    for _ in range(limit):
        result = solve(Formula(formula.num_vars, clauses), SolverConfig(seed=0))
        if result.status is Status.UNSAT:
            return found
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        found.append((p, q))
        baseline = varmap.p_bits + varmap.q_bits
        blocking = tuple(
            -v if result.assignment[v] else v for v in baseline
        )
        clauses.append(blocking)
    raise AssertionError("model enumeration did not terminate")


def brute_force_pairs(n_value, split):
    """All factor pairs with the given bitlengths, top bits set."""
    m_p, m_q = split
    pairs = []
    for p in range(1 << (m_p - 1), 1 << m_p):
        for q in range(1 << (m_q - 1), 1 << m_q):
            if p * q == n_value:
                pairs.append((p, q))
    return pairs


class TestSchoolbook:
    def test_35_has_exactly_the_brute_force_models(self):
        spec = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
        formula, varmap = encode(spec)
        assert sorted(all_models(formula, varmap)) == sorted(brute_force_pairs(35, (3, 3)))

    def test_35_decodes_to_5_7(self):
        spec = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
        formula, varmap = encode(spec)
        result = solve(formula, SolverConfig(seed=3))
        p, q, matched = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}
        assert matched == 0

    def test_prime_13_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], factor_split=(2, 2))
        formula, _ = encode(spec)
        assert solve(formula).status is Status.UNSAT

    def test_size_model_within_15_percent(self):
        for n in (32, 64, 128):
            s = gen_semiprime(n, seed=n)
            spec = EncodeSpec(
                n_bits=n, targets=[s.value],
                factor_split=(s.p.bit_length(), s.q.bit_length()),
            )
            formula = encode(spec)[0]
            n_clauses = len(formula.clauses)
            model_vars, model_clauses = schoolbook_size_model(n)
            assert abs(formula.num_vars - model_vars) <= 0.15 * model_vars
            assert abs(n_clauses - model_clauses) <= 0.15 * model_clauses
            assert 3.1 <= sum(map(len, formula.clauses)) / n_clauses <= 3.5

    def test_quadratic_size_scaling(self):
        def vars_at(n):
            s = gen_semiprime(n, seed=n + 3)
            spec = EncodeSpec(
                n_bits=n, targets=[s.value],
                factor_split=(s.p.bit_length(), s.q.bit_length()),
            )
            return encode(spec)[0].num_vars

        assert abs(vars_at(64) / vars_at(32) - 4) <= 0.3
        assert abs(vars_at(128) / vars_at(64) - 4) <= 0.3

    def test_model_count_and_trivial_exclusion(self):
        # expected model count: 2 with equal split widths and p != q
        # (both orderings), 1 otherwise; never p = 1 or q = 1
        cases = [
            (35, (3, 3), 2),   # 5*7 and 7*5
            (15, (2, 3), 1),   # 3*5 only
            (9, (2, 2), 1),    # 3*3, orderings coincide
            (77, (3, 4), 1),   # 7*11 in that order only
            (143, (4, 4), 2),  # 11*13 both ways
            (13, (2, 2), 0),   # prime
        ]
        for n_value, split, expected in cases:
            spec = EncodeSpec(n_bits=n_value.bit_length(), targets=[n_value], factor_split=split)
            formula, varmap = encode(spec)
            models = all_models(formula, varmap)
            assert len(models) == expected, (n_value, split, models)
            for p, q in models:
                assert p > 1 and q > 1
                assert p * q == n_value
                assert p.bit_length() == split[0]
                assert q.bit_length() == split[1]

    def test_random_instances_all_models_decode(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randint(6, 10)
            s = gen_semiprime(n, rng.getrandbits(32))
            split = (s.p.bit_length(), s.q.bit_length())
            spec = EncodeSpec(n_bits=n, targets=[s.value], factor_split=split)
            formula, varmap = encode(spec)
            models = all_models(formula, varmap)
            assert sorted(models) == sorted(brute_force_pairs(s.value, split))


class TestKaratsuba:
    def test_35_same_solutions_as_schoolbook(self):
        spec = EncodeSpec(n_bits=6, targets=[35], algorithm="karatsuba", factor_split=(3, 3))
        formula, varmap = encode(spec)
        result = solve(formula, SolverConfig(seed=1))
        p, q, _ = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}

    def test_recursive_path(self):
        # wide enough that the recursion actually splits (base is 4 bits)
        s = gen_semiprime(20, seed=8)
        spec = EncodeSpec(
            n_bits=20, targets=[s.value], algorithm="karatsuba",
            factor_split=(s.p.bit_length(), s.q.bit_length()),
        )
        formula, varmap = encode(spec)
        result = solve(formula, SolverConfig(seed=1))
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        assert {p, q} == {s.p, s.q}

    def test_equisatisfiable_with_schoolbook(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(6, 16)
            s = gen_semiprime(n, rng.getrandbits(32))
            split = (s.p.bit_length(), s.q.bit_length())
            spec_s = EncodeSpec(n_bits=n, targets=[s.value], factor_split=split)
            spec_k = EncodeSpec(n_bits=n, targets=[s.value], algorithm="karatsuba", factor_split=split)
            r_s = solve(encode(spec_s)[0], SolverConfig(seed=0))
            f_k, vm_k = encode(spec_k)
            r_k = solve(f_k, SolverConfig(seed=0))
            assert r_s.status is Status.SAT and r_k.status is Status.SAT
            p, q, _ = decode(vm_k, r_k.assignment)
            assert p * q == s.value

    def test_subquadratic_scaling(self):
        def vars_at(n):
            s = gen_semiprime(n, seed=n)
            spec = EncodeSpec(
                n_bits=n, targets=[s.value], algorithm="karatsuba",
                factor_split=(s.p.bit_length(), s.q.bit_length()),
            )
            return encode(spec)[0].num_vars

        sizes = {n: vars_at(n) for n in (16, 32, 64, 128)}
        assert sizes[32] / sizes[16] < 4
        assert sizes[64] / sizes[32] < 4
        assert sizes[128] / sizes[64] < 4


class TestDivision:
    def test_35(self):
        spec = EncodeSpec(n_bits=6, targets=[35], algorithm="division", factor_split=(3, 3))
        formula, varmap = encode(spec)
        result = solve(formula, SolverConfig(seed=0))
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}

    def test_prime_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], algorithm="division", factor_split=(2, 2))
        formula, _ = encode(spec)
        assert solve(formula).status is Status.UNSAT

    def test_larger_than_schoolbook(self):
        for n_value, split in ((35, (3, 3)), (143, (4, 4)), (899, (5, 5))):
            spec_m = EncodeSpec(n_bits=n_value.bit_length(), targets=[n_value], factor_split=split)
            spec_d = EncodeSpec(
                n_bits=n_value.bit_length(), targets=[n_value],
                algorithm="division", factor_split=split,
            )
            mult = encode(spec_m)[0]
            div = encode(spec_d)[0]
            assert div.num_vars > mult.num_vars
            assert len(div.clauses) > len(mult.clauses)

    def test_models_match_brute_force(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(6, 10)
            s = gen_semiprime(n, rng.getrandbits(32))
            split = (s.p.bit_length(), s.q.bit_length())
            spec = EncodeSpec(n_bits=n, targets=[s.value], algorithm="division", factor_split=split)
            formula, varmap = encode(spec)
            models = all_models(formula, varmap)
            assert sorted(set(models)) == sorted(brute_force_pairs(s.value, split))


class TestMultiTarget:
    def test_single_target_equisatisfiable(self):
        # one target is pinned by unit clauses, two through a selector each
        formula, varmap = encode(EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3)))
        assert varmap.sel_vars == []
        r = solve(formula, SolverConfig(seed=0))
        assert r.status is Status.SAT
        p, q, matched = decode(varmap, r.assignment)
        assert p * q == 35 and matched == 0
        _, varmap = encode(EncodeSpec(n_bits=6, targets=[35, 55], factor_split=(3, 4)))
        assert len(varmap.sel_vars) == 2

    def test_two_targets_matches_exactly_one(self):
        # with split (3, 4): 35 = 5*7 cannot fit, 55 = 5*11 can
        spec = EncodeSpec(n_bits=6, targets=[35, 55], factor_split=(3, 4))
        formula, varmap = encode(spec)
        result = solve(formula, SolverConfig(seed=2))
        assert result.status is Status.SAT
        p, q, matched = decode(varmap, result.assignment)
        assert matched == 1
        assert p * q == 55

    def test_many_targets_same_bitlength(self):
        targets = sorted({gen_semiprime(10, seed).value for seed in range(30)})
        spec = EncodeSpec(n_bits=10, targets=targets)
        formula, varmap = encode(spec)
        for seed in range(5):
            result = solve(formula, SolverConfig(seed=seed))
            assert result.status is Status.SAT
            p, q, matched = decode(varmap, result.assignment)
            assert p * q == targets[matched]

    def test_prime_only_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], factor_split=(2, 2))
        formula, _ = encode(spec)
        assert solve(formula).status is Status.UNSAT

    def test_duplicate_targets_rejected(self):
        with pytest.raises(EncodeError, match="duplicate"):
            EncodeSpec(n_bits=6, targets=[35, 35])


class TestDecode:
    def test_hand_built_assignment(self):
        from satfactor.cnf import VarMap

        vm = VarMap(p_bits=[1, 2, 3], q_bits=[4, 5, 6])
        assignment = {1: True, 2: False, 3: True, 4: True, 5: True, 6: True}
        assert decode(vm, assignment) == (5, 7, 0)

    def test_missing_variable(self):
        from satfactor.cnf import VarMap

        vm = VarMap(p_bits=[1], q_bits=[2])
        with pytest.raises(DecodeError, match="assign"):
            decode(vm, {1: True})

    def test_no_true_selector(self):
        from satfactor.cnf import VarMap

        vm = VarMap(p_bits=[1], q_bits=[2], sel_vars=[3, 4])
        with pytest.raises(DecodeError, match="selector"):
            decode(vm, {1: True, 2: True, 3: False, 4: False})


class TestEncodeSpecValidation:
    def test_bad_algorithm(self):
        with pytest.raises(EncodeError):
            EncodeSpec(n_bits=6, targets=[35], algorithm="toom-cook")

    def test_wrong_target_bitlength(self):
        with pytest.raises(EncodeError, match="bits"):
            EncodeSpec(n_bits=7, targets=[35])

    def test_incompatible_split(self):
        with pytest.raises(EncodeError, match="split"):
            EncodeSpec(n_bits=6, targets=[35], factor_split=(2, 2))

    def test_unbalanced_split(self):
        with pytest.raises(EncodeError, match="split"):
            EncodeSpec(n_bits=6, targets=[35], factor_split=(2, 4))

    def test_no_targets(self):
        with pytest.raises(EncodeError, match="target"):
            EncodeSpec(n_bits=6, targets=[])

    def test_default_split_balanced(self):
        assert EncodeSpec(n_bits=6, targets=[35]).factor_split == (3, 3)
        assert EncodeSpec(n_bits=7, targets=[77]).factor_split == (4, 4)

    def test_multi_target_karatsuba_rejected(self):
        spec = EncodeSpec(n_bits=6, targets=[35, 55], algorithm="karatsuba", factor_split=(3, 4))
        with pytest.raises(EncodeError, match="multi-target"):
            encode(spec)


@pytest.mark.parametrize("fold", [False, True], ids=["raw", "folded"])
@pytest.mark.parametrize("algorithm", [*ALGORITHMS, "multi_target"])
def test_round_trip_decodes_to_target(algorithm, fold):
    if algorithm == "multi_target":
        spec = spec_for([s.value for s in generate_instances(12, 3, master_seed=4)])
    else:
        s = gen_semiprime(12, seed=4)
        spec = spec_for([s.value], algorithm, s.split)
    formula, _ = encode(spec)
    if fold:
        formula = unit_propagate(formula).formula
    parsed = parse_dimacs(write_dimacs(formula))
    for seed in range(5):
        result = solve(parsed, SolverConfig(seed=seed))
        assert result.status is Status.SAT
        p, q, k = decode(parsed.varmap, result.assignment)
        assert p * q == parsed.varmap.targets[k], seed


def test_varmap_survives_dimacs(tmp_path):
    from satfactor.cnf import parse_dimacs, write_dimacs

    spec = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
    formula, varmap = encode(spec)
    parsed = parse_dimacs(write_dimacs(formula))
    assert parsed.varmap == varmap
    assert parsed.varmap.targets == [35]


# SHA-256 of write_dimacs(encode(spec)).  Single targets are
# gen_semiprime(bits, bits) at their own split; the 4-target instance is
# generate_instances(32, 4, master_seed=4).  A speed-up of the builder or the
# writer must leave these bytes alone: any change to a clause, its literal
# order or the clause order changes the digest.
GOLDEN_DIGESTS = {
    ("schoolbook", 16): "e01961ea1a5d5764cedcab6b1c8f0fb5a2633b56950a7ec4e06e2b9e89172153",
    ("schoolbook", 32): "45792ab3c7ceffadc7484b6a8e9f8274ac3923a17c30525f3f3cc5f466392e2b",
    ("schoolbook", 64): "321916e12d76e36b352fe98262536c0331db6a70b94f2aeac4e8d400c5514d0d",
    ("karatsuba", 16): "573abb55e06c41e894837b8be086289074f49ae4d6ab21c5a49d22f89ac1cddb",
    ("karatsuba", 32): "2d554de9a776b532a8fb3c4e7c65658efcd857190d82571657faff49b6e8d2ae",
    ("karatsuba", 64): "034d75cc350d0893fcaf827a5434b111b45c511e4915f56249446b7bc9580115",
    ("division", 16): "88a6e34131c3e6f1df32bbe865780fb9f0fa6f72dd8a65f5769eda8b0e86d28d",
    ("division", 32): "e768190cd52e949be38a7b14adc68d9631c37bb46a539b4638a0010afed1c6da",
    ("division", 64): "aa23ee2d935a4520eba8612089a70d1780eb972941dc14c59847f83dbb4180ee",
    ("multi_target", 32): "d841d0b31593ac848d750209d973fc2bd831eeb82d6f66bab513087727f5e1f2",
}


@pytest.mark.parametrize("algorithm, bits", GOLDEN_DIGESTS)
def test_golden_instance_digest(algorithm, bits):
    if algorithm == "multi_target":
        spec = spec_for([s.value for s in generate_instances(bits, 4, master_seed=4)])
    else:
        s = gen_semiprime(bits, bits)
        spec = spec_for([s.value], algorithm, s.split)
    text = write_dimacs(encode(spec)[0])
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[algorithm, bits]
