import itertools
import random

import pytest

from satfactor.bench import generate_instances
from satfactor.cnf import Formula, Status, parse_dimacs, unit_propagate, write_dimacs
from satfactor.encoder import (
    ALGORITHMS,
    CircuitBuilder,
    DecodeError,
    EncodeError,
    EncodeSpec,
    count_stats,
    decode,
    encode,
    encode_division,
    encode_karatsuba,
    encode_multi_target,
    encode_schoolbook,
    schoolbook_size_model,
    spec_for,
)
from satfactor.numtheory import gen_semiprime
from satfactor.solver import SolverConfig, solve

NAND = Formula(3, [(1, 3), (2, 3), (-1, -2, -3)])


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


class TestGates:
    def test_and_gate_truth_table(self):
        for a_bit, c_bit in itertools.product([False, True], repeat=2):
            b = CircuitBuilder()
            a, c = b.fresh_var(), b.fresh_var()
            w = b.and_gate(a, c)
            assert len(b.clauses) == 3
            assert b.num_vars == 3
            (got,) = forced_outputs(b, [a, c], [a_bit, c_bit], [w])
            assert got == (a_bit and c_bit)

    def test_half_adder_truth_table(self):
        for a_bit, c_bit in itertools.product([False, True], repeat=2):
            b = CircuitBuilder()
            a, c = b.fresh_var(), b.fresh_var()
            s, cout = b.half_adder(a, c)
            assert len(b.clauses) == 7
            assert b.num_vars == 4
            got = forced_outputs(b, [a, c], [a_bit, c_bit], [s, cout])
            total = int(a_bit) + int(c_bit)
            assert got == [bool(total & 1), bool(total >> 1)]

    def test_full_adder_truth_table(self):
        for bits in itertools.product([False, True], repeat=3):
            b = CircuitBuilder()
            ins = [b.fresh_var() for _ in range(3)]
            s, cout = b.full_adder(*ins)
            assert len(b.clauses) == 14
            assert b.num_vars == 5
            got = forced_outputs(b, ins, list(bits), [s, cout])
            total = sum(map(int, bits))
            assert got == [bool(total & 1), bool(total >> 1)]

    def test_full_subtractor_truth_table(self):
        for bits in itertools.product([False, True], repeat=3):
            b = CircuitBuilder()
            ins = [b.fresh_var() for _ in range(3)]
            diff, bout = b.full_subtractor(*ins)
            got = forced_outputs(b, ins, list(bits), [diff, bout])
            total = int(bits[0]) - int(bits[1]) - int(bits[2])
            assert got == [bool(total & 1), total < 0]

    def test_mux_gate_truth_table(self):
        for bits in itertools.product([False, True], repeat=3):
            b = CircuitBuilder()
            sel, t, f = (b.fresh_var() for _ in range(3))
            w = b.mux_gate(sel, t, f)
            got = forced_outputs(b, [sel, t, f], list(bits), [w])
            assert got == [bits[1] if bits[0] else bits[2]]

    def test_xor_or_gates(self):
        for a_bit, c_bit in itertools.product([False, True], repeat=2):
            b = CircuitBuilder()
            a, c = b.fresh_var(), b.fresh_var()
            x, o = b.xor_gate(a, c), b.or_gate(a, c)
            got = forced_outputs(b, [a, c], [a_bit, c_bit], [x, o])
            assert got == [a_bit ^ c_bit, a_bit or c_bit]


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
        formula, varmap = encode_schoolbook(spec)
        assert sorted(all_models(formula, varmap)) == sorted(brute_force_pairs(35, (3, 3)))

    def test_35_decodes_to_5_7(self):
        spec = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
        formula, varmap = encode_schoolbook(spec)
        result = solve(formula, SolverConfig(seed=3))
        p, q, matched = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}
        assert matched == 0

    def test_prime_13_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], factor_split=(2, 2))
        formula, _ = encode_schoolbook(spec)
        assert solve(formula).status is Status.UNSAT

    def test_size_model_within_15_percent(self):
        for n in (32, 64, 128):
            s = gen_semiprime(n, seed=n)
            spec = EncodeSpec(
                n_bits=n, targets=[s.value],
                factor_split=(s.p.bit_length(), s.q.bit_length()),
            )
            stats = count_stats(encode_schoolbook(spec)[0])
            model_vars, model_clauses = schoolbook_size_model(n)
            assert abs(stats.vars - model_vars) <= 0.15 * model_vars
            assert abs(stats.clauses - model_clauses) <= 0.15 * model_clauses
            assert 3.1 <= stats.avg_literals <= 3.5

    def test_quadratic_size_scaling(self):
        def vars_at(n):
            s = gen_semiprime(n, seed=n + 3)
            spec = EncodeSpec(
                n_bits=n, targets=[s.value],
                factor_split=(s.p.bit_length(), s.q.bit_length()),
            )
            return count_stats(encode_schoolbook(spec)[0]).vars

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
            formula, varmap = encode_schoolbook(spec)
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
            formula, varmap = encode_schoolbook(spec)
            models = all_models(formula, varmap)
            assert sorted(models) == sorted(brute_force_pairs(s.value, split))


class TestKaratsuba:
    def test_35_same_solutions_as_schoolbook(self):
        spec = EncodeSpec(n_bits=6, targets=[35], algorithm="karatsuba", factor_split=(3, 3))
        formula, varmap = encode_karatsuba(spec)
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
        formula, varmap = encode_karatsuba(spec)
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
            r_s = solve(encode_schoolbook(spec_s)[0], SolverConfig(seed=0))
            f_k, vm_k = encode_karatsuba(spec_k)
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
            return count_stats(encode_karatsuba(spec)[0]).vars

        sizes = {n: vars_at(n) for n in (16, 32, 64, 128)}
        assert sizes[32] / sizes[16] < 4
        assert sizes[64] / sizes[32] < 4
        assert sizes[128] / sizes[64] < 4


class TestDivision:
    def test_35(self):
        spec = EncodeSpec(n_bits=6, targets=[35], algorithm="division", factor_split=(3, 3))
        formula, varmap = encode_division(spec)
        result = solve(formula, SolverConfig(seed=0))
        assert result.status is Status.SAT
        p, q, _ = decode(varmap, result.assignment)
        assert {p, q} == {5, 7}

    def test_prime_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], algorithm="division", factor_split=(2, 2))
        formula, _ = encode_division(spec)
        assert solve(formula).status is Status.UNSAT

    def test_larger_than_schoolbook(self):
        for n_value, split in ((35, (3, 3)), (143, (4, 4)), (899, (5, 5))):
            spec_m = EncodeSpec(n_bits=n_value.bit_length(), targets=[n_value], factor_split=split)
            spec_d = EncodeSpec(
                n_bits=n_value.bit_length(), targets=[n_value],
                algorithm="division", factor_split=split,
            )
            mult = count_stats(encode_schoolbook(spec_m)[0])
            div = count_stats(encode_division(spec_d)[0])
            assert div.vars > mult.vars
            assert div.clauses > mult.clauses

    def test_models_match_brute_force(self):
        rng = random.Random(3)
        for _ in range(8):
            n = rng.randint(6, 10)
            s = gen_semiprime(n, rng.getrandbits(32))
            split = (s.p.bit_length(), s.q.bit_length())
            spec = EncodeSpec(n_bits=n, targets=[s.value], algorithm="division", factor_split=split)
            formula, varmap = encode_division(spec)
            models = all_models(formula, varmap)
            assert sorted(set(models)) == sorted(brute_force_pairs(s.value, split))


class TestMultiTarget:
    def test_single_target_equisatisfiable(self):
        base = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
        multi = EncodeSpec(n_bits=6, targets=[35], factor_split=(3, 3))
        f_multi, vm_multi = encode_multi_target(multi)
        r = solve(f_multi, SolverConfig(seed=0))
        assert r.status is Status.SAT
        p, q, matched = decode(vm_multi, r.assignment)
        assert p * q == 35 and matched == 0
        assert solve(encode_schoolbook(base)[0]).status is Status.SAT

    def test_two_targets_matches_exactly_one(self):
        # with split (3, 4): 35 = 5*7 cannot fit, 55 = 5*11 can
        spec = EncodeSpec(n_bits=6, targets=[35, 55], factor_split=(3, 4))
        formula, varmap = encode_multi_target(spec)
        result = solve(formula, SolverConfig(seed=2))
        assert result.status is Status.SAT
        p, q, matched = decode(varmap, result.assignment)
        assert matched == 1
        assert p * q == 55

    def test_many_targets_same_bitlength(self):
        targets = sorted({gen_semiprime(10, seed).value for seed in range(30)})
        spec = EncodeSpec(n_bits=10, targets=targets)
        formula, varmap = encode_multi_target(spec)
        for seed in range(5):
            result = solve(formula, SolverConfig(seed=seed))
            assert result.status is Status.SAT
            p, q, matched = decode(varmap, result.assignment)
            assert p * q == targets[matched]

    def test_prime_only_unsat(self):
        spec = EncodeSpec(n_bits=4, targets=[13], factor_split=(2, 2))
        formula, _ = encode_multi_target(spec)
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


class TestCountStats:
    def test_nand(self):
        stats = count_stats(NAND)
        assert (stats.vars, stats.clauses) == (3, 3)
        assert stats.avg_literals == pytest.approx(7 / 3)

    def test_empty(self):
        stats = count_stats(Formula(0, []))
        assert (stats.vars, stats.clauses, stats.avg_literals) == (0, 0, 0.0)


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
    formula, varmap = encode_schoolbook(spec)
    parsed = parse_dimacs(write_dimacs(formula))
    assert parsed.varmap == varmap
    assert parsed.varmap.targets == [35]
