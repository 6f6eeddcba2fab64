import pytest

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
        # 561 = 3 * 11 * 17 fools Fermat tests; oracle: trial division
        assert not trial_division_is_prime(561)
        assert not is_prime(561)

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


def test_semiprime_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_semiprimes_csv(path)
