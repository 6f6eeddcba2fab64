import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from satfactor import numtheory
from satfactor.bench import generate_instances
from satfactor.cli import main
from satfactor.numtheory import (
    MetricVector,
    Semiprime,
    factor_splits,
    gen_semiprime,
    hamming_weight,
    is_prime,
    largest_prime_factor,
    load_semiprimes_csv,
    metrics,
    semiprimes_to_csv,
    trial_division,
)


def sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def trial_division_is_prime(x):
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_smallest_prime(self):
        assert is_prime(2)

    def test_carmichael_number_is_composite(self):
        # 561 = 3 * 11 * 17, 1105 and 1729 fool Fermat tests; oracle: trial division
        for x in (561, 1105, 1729):
            assert not trial_division_is_prime(x)
            assert not is_prime(x)

    def test_mersenne_prime_m61(self):
        # primality of 2^61 - 1 established offline by trial division
        # over all primes below 2^31
        assert is_prime(2**61 - 1)

    def test_agrees_with_sieve_below_one_million(self):
        limit = 10**6
        flags = sieve(limit)
        disagreements = [x for x in range(limit) if bool(flags[x]) != is_prime(x)]
        assert disagreements == []

    def test_large_composite(self):
        p = 2**61 - 1
        assert not is_prime(p * p)

    def test_above_64_bits(self):
        # 2^89 - 1 is a Mersenne prime; its double plus small offsets are not
        assert is_prime(2**89 - 1)
        assert not is_prime(2**89 - 3)

    def test_edge_cases(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(3)
        assert not is_prime(4)


def thirteen_base_is_prime(x):
    """The rule before the witness table: every odd x > 37 below 2^64 gets all
    13 bases (exact for all x < 3.3 * 10^24)."""
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x == p:
            return True
        if x % p == 0:
            return False
    return numtheory._strong_probable_prime(x, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))


# psi_k, the least strong pseudoprime to all of the first k prime bases
# (Jaeschke 1993; Jiang & Deng 2014), and its composition.
PSEUDOPRIME_BOUNDS = {
    2_047: (23, 89),
    1_373_653: (829, 1657),
    25_326_001: (2251, 11251),
    3_215_031_751: (151, 751, 28351),
    2_152_302_898_747: (6763, 10627, 29947),
    3_474_749_660_383: (1303, 16927, 157543),
    341_550_071_728_321: (10670053, 32010157),
    3_825_123_056_546_413_051: (149491, 747451, 34233211),
}


class TestWitnessTable:
    def test_bounds_are_the_table_rows(self):
        bounds = [bound for bound, _ in numtheory._WITNESS_TABLE]
        assert bounds == sorted(PSEUDOPRIME_BOUNDS) + [1 << 64]
        assert numtheory._WITNESS_TABLE[-1][1] == numtheory._SMALL_WITNESSES

    def test_each_bound_fools_its_own_row(self):
        # the rows are tight: each bound is a composite that its own row's bases pass
        for bound, bases in numtheory._WITNESS_TABLE[:-1]:
            factors = PSEUDOPRIME_BOUNDS[bound]
            assert math.prod(factors) == bound and all(map(trial_division_is_prime, factors))
            assert numtheory._strong_probable_prime(bound, bases)

    @pytest.mark.parametrize("bound", sorted(PSEUDOPRIME_BOUNDS))
    def test_each_bound_is_rejected(self, bound):
        # the witnesses chosen for the bound itself, without the trial
        # division that already catches 2047 = 23 * 89
        assert not numtheory._strong_probable_prime(bound, numtheory._witnesses(bound))
        assert not is_prime(bound)

    def test_agrees_with_thirteen_bases_in_every_band(self):
        rng = random.Random(14)
        lower = 41
        for bound, _ in numtheory._WITNESS_TABLE:
            sample = [rng.randrange(lower, bound) | 1 for _ in range(400)]
            assert [is_prime(x) for x in sample] == [thirteen_base_is_prime(x) for x in sample]
            assert any(map(is_prime, sample))
            lower = bound

    def test_agrees_with_thirteen_bases_around_every_bound(self):
        for bound, _ in numtheory._WITNESS_TABLE:
            for x in range(bound - 64, bound + 65):
                assert is_prime(x) == thirteen_base_is_prime(x), x

    def test_rejects_products_of_two_primes(self):
        # the composites that survive trial division by the small primes
        rng = random.Random(15)
        for bound, _ in numtheory._WITNESS_TABLE[1:]:
            bits = bound.bit_length() // 2
            for _ in range(50):
                p, q = numtheory._random_prime(rng, bits), numtheory._random_prime(rng, bits)
                assert not is_prime(p * q) and not thirteen_base_is_prime(p * q)


# Recorded before the witness table replaced the fixed 13 bases: the
# generated semi-primes, and so every benchmark input, are unchanged.
GOLDEN_INSTANCES_18 = {
    0: [(141343, 281, 503), (136921, 269, 509), (186521, 383, 487), (143863, 293, 491)],
    1: [(146171, 313, 467), (225481, 463, 487), (158299, 311, 509), (151117, 349, 433)],
    7: [(134599, 281, 479), (219379, 431, 509), (154421, 307, 503), (234649, 461, 509)],
}
GOLDEN_SEMIPRIMES = {
    (21, 0): (1854871, 1289, 1439),
    (21, 1): (1920857, 1297, 1481),
    (21, 2): (1717759, 1061, 1619),
    (32, 0): (2720835599, 46549, 58451),
    (32, 1): (2327495491, 47497, 49003),
    (32, 2): (3699019039, 60589, 61051),
    (64, 0): (13468607541720728743, 3191005427, 4220803709),
    (64, 1): (13041746625324834979, 3601004831, 3621696509),
    (64, 2): (10087574245964116751, 2510587939, 4018012709),
    (128, 0): (171669321418096957989577502362120619503, 12525794619251900933, 13705263948224456291),
    (128, 1): (269922358444133476260216789752713263191, 16241876145996433577, 16618914958951241983),
    (128, 2): (306330374418015889550313178507666058011, 17157723425194070491, 17853789038713974721),
}


class TestGoldenGeneration:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_INSTANCES_18))
    def test_generate_instances(self, seed):
        found = [(s.value, s.p, s.q) for s in generate_instances(18, 4, seed)]
        assert found == GOLDEN_INSTANCES_18[seed]

    @pytest.mark.parametrize("n_bits, seed", sorted(GOLDEN_SEMIPRIMES))
    def test_gen_semiprime(self, n_bits, seed):
        s = gen_semiprime(n_bits, seed)
        assert (s.value, s.p, s.q) == GOLDEN_SEMIPRIMES[n_bits, seed]


class TestGenSemiprime:
    def test_four_bits_is_always_fifteen(self):
        # brute force over prime pairs with bitlengths {2,2} or {2,3} and
        # distinct odd primes: 15 = 3 * 5 is the only 4-bit product
        for seed in range(20):
            s = gen_semiprime(4, seed)
            assert (s.value, s.p, s.q) == (15, 3, 5)

    def test_postconditions(self):
        for n_bits in range(6, 21):
            s = gen_semiprime(n_bits, seed=n_bits * 17 + 1)
            assert s.p * s.q == s.value
            assert s.value.bit_length() == n_bits
            assert s.p <= s.q
            assert is_prime(s.p) and is_prime(s.q)
            assert abs(s.p.bit_length() - s.q.bit_length()) <= 1

    def test_deterministic(self):
        assert gen_semiprime(12, 99) == gen_semiprime(12, 99)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_semiprime(3, 0)

    def test_invariants_bulk(self):
        # 1000 seeded samples per bitlength in 8..20
        for n_bits in range(8, 21):
            for seed in range(1000):
                s = gen_semiprime(n_bits, seed)
                assert s.p * s.q == s.value
                assert s.value.bit_length() == n_bits
                assert s.p <= s.q
                assert abs(s.p.bit_length() - s.q.bit_length()) <= 1

    def test_semiprime_invariant_enforcement(self):
        with pytest.raises(ValueError):
            Semiprime(value=15, p=5, q=3, n_bits=4)
        with pytest.raises(ValueError):
            Semiprime(value=16, p=3, q=5, n_bits=4)
        with pytest.raises(ValueError):
            Semiprime(value=15, p=3, q=5, n_bits=5)

    def test_unbalanced_factors_rejected(self):
        # 2 has 2 bits and 131 has 8: no split of a 9-bit product
        with pytest.raises(ValueError, match="factor bitlengths differ by more than one"):
            Semiprime(value=262, p=2, q=131, n_bits=9)


class TestFactorSplits:
    def test_even(self):
        assert factor_splits(10) == [(5, 5), (5, 6)]

    def test_odd(self):
        assert factor_splits(11) == [(6, 6), (5, 6)]

    def test_four(self):
        assert factor_splits(4) == [(2, 2), (2, 3)]


class TestTrialDivision:
    def test_fifteen(self):
        assert trial_division(15) == (3, 5)

    def test_ninety_one(self):
        # oracle: exhaustive divisor scan
        divisors = [d for d in range(2, 91) if 91 % d == 0]
        assert divisors[0] == 7
        assert trial_division(91) == (7, 13)

    def test_prime_input(self):
        with pytest.raises(ValueError, match="prime input"):
            trial_division(13)

    def test_even(self):
        assert trial_division(10) == (2, 5)

    def test_too_small(self):
        with pytest.raises(ValueError):
            trial_division(3)

    def test_prime_pairs_sample(self):
        import random

        rng = random.Random(5)
        primes = [x for x in range(3, 1 << 16) if trial_division_is_prime(x)]
        for _ in range(300):
            p, q = rng.choice(primes), rng.choice(primes)
            lo, hi = min(p, q), max(p, q)
            assert trial_division(p * q) == (lo, hi)


class TestLargestPrimeFactor:
    def test_twelve(self):
        assert largest_prime_factor(12) == 3

    def test_hundred(self):
        assert largest_prime_factor(100) == 5

    def test_582(self):
        # oracle: 582 = 2 * 3 * 97 by divisor scan
        assert largest_prime_factor(582) == 97

    def test_prime(self):
        assert largest_prime_factor(97) == 97

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            largest_prime_factor(1)


class TestMetrics:
    def test_fifteen(self):
        m = metrics(Semiprime(value=15, p=3, q=5, n_bits=4))
        assert m.hw_n == 4
        assert m.hw_p == 2
        assert m.hw_q == 2
        assert m.hw_pxq == 2  # 3 xor 5 = 6
        assert m.abs_diff == 2

    def test_thirty_five(self):
        m = metrics(Semiprime(value=35, p=5, q=7, n_bits=6))
        assert m.smooth_p1 == 2  # largest prime factor of 4
        assert m.smooth_q1 == 3  # largest prime factor of 6

    def test_hamming_weight_bit_loop_oracle(self):
        import random

        rng = random.Random(11)
        for _ in range(200):
            x = rng.getrandbits(64)
            expected, y = 0, x
            while y:
                expected += y & 1
                y >>= 1
            assert hamming_weight(x) == expected

    def test_log2(self):
        import math

        s = gen_semiprime(16, 3)
        m = metrics(s)
        assert m.log2_n == pytest.approx(math.log2(s.value))
        assert 15 <= m.log2_n < 16

    def test_field_order(self):
        assert MetricVector.FIELDS == (
            "hw_n", "hw_p", "hw_q", "hw_pxq", "smooth_p1", "smooth_q1", "abs_diff", "log2_n",
        )


def test_semiprime_csv_round_trip(tmp_path):
    path = tmp_path / "semis.csv"
    assert main(["gen", "--bits", "12", "--count", "3", "--seed", "5", "--out", str(path)]) == 0
    assert load_semiprimes_csv(path) == generate_instances(12, 3, 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(4, 64), st.integers(0, 2**32)), max_size=6))
def test_semiprimes_to_csv_round_trip(tmp_path_factory, picks):
    semiprimes = [gen_semiprime(n_bits, seed) for n_bits, seed in picks]
    path = tmp_path_factory.mktemp("csv") / "semis.csv"
    path.write_text(semiprimes_to_csv(semiprimes))
    assert load_semiprimes_csv(path) == semiprimes


def test_semiprime_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_semiprimes_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("8,143,11", "line 3: expected 4 fields, got 3"),
        ("8,143,11,13,0", "line 3: expected 4 fields, got 5"),
        ("8,225,15,15", "line 3: factor 15 is not prime"),
        ("8,143,1,143", "line 3: factor 1 is not prime"),
        ("8,14x,11,13", "line 3: invalid literal"),
        # Python's int would read 143 and 1003
        ("8,1_43,11,13", "line 3: invalid literal"),
        ("10,١٠٠٣,17,59", "line 3: invalid literal"),
        ("9,143,11,13", "line 3: 143 has 8 bits, expected 9"),
    ],
)
def test_semiprime_csv_bad_row(tmp_path, capsys, row, message):
    path = tmp_path / "targets.csv"
    path.write_text(f"n_bits,N,p,q\n6,35,5,7\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_semiprimes_csv(path)
    assert main(["encode", "--targets", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: ") and message in err
