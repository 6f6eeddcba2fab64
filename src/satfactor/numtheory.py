"""Number-theoretic primitives: primality, semi-prime sampling, baselines.

Everything here runs on Python's arbitrary-precision integers; no floating
point touches a value that must stay exact.  Sampling is deterministic for
a fixed seed, which is what makes whole experiments reproducible.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

# Deterministic Miller-Rabin witnesses for all inputs below 3.3 * 10^24
# (covers the full 64-bit range).
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RANDOM_ROUNDS = 64


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """One strong-probable-prime check; True means `a` does not witness n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(x: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic below 2^64 via a fixed witness set; above that, 64
    pseudo-random bases drawn from a generator seeded by x itself keep the
    answer reproducible while bounding the error below 4^-64.
    """
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x == p:
            return True
        if x % p == 0:
            return False
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if x < 1 << 64:
        bases = _SMALL_WITNESSES
    else:
        rng = random.Random(x)
        bases = [rng.randrange(2, x - 1) for _ in range(_RANDOM_ROUNDS)]
    return all(_miller_rabin_round(x, a, d, r) for a in bases if a % x != 0)


@dataclass(frozen=True)
class Semiprime:
    """A product of two primes of near-equal size, with its ground truth."""

    value: int
    p: int
    q: int
    n_bits: int

    def __post_init__(self):
        if self.p * self.q != self.value:
            raise ValueError(f"{self.p} * {self.q} != {self.value}")
        if self.p > self.q:
            raise ValueError("factors must satisfy p <= q")
        if self.value.bit_length() != self.n_bits:
            raise ValueError(
                f"{self.value} has {self.value.bit_length()} bits, expected {self.n_bits}"
            )
        if abs(self.p.bit_length() - self.q.bit_length()) > 1:
            raise ValueError("factor bitlengths differ by more than one")

    @property
    def split(self) -> tuple[int, int]:
        """Bitlengths of (p, q): the factor split that admits this factorization."""
        return self.p.bit_length(), self.q.bit_length()


def _random_odd_with_top_bit(rng: random.Random, bits: int) -> int:
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        candidate = _random_odd_with_top_bit(rng, bits)
        if is_prime(candidate):
            return candidate


def factor_splits(n_bits: int) -> list[tuple[int, int]]:
    """Factor-bitlength pairs (m_p, m_q), m_p <= m_q, that can produce an
    n_bits-bit product: m_p + m_q in {n_bits, n_bits+1} with |m_p - m_q| <= 1.

    The balanced split comes first.
    """
    half_up = (n_bits + 1) // 2
    if n_bits % 2 == 0:
        return [(half_up, half_up), (half_up, half_up + 1)]
    return [(half_up, half_up), (n_bits // 2, half_up)]


def gen_semiprime(n_bits: int, seed: int) -> Semiprime:
    """Sample a semi-prime with exactly ``n_bits`` bits, deterministically.

    Factors are uniform random odd candidates with their top bit set,
    Miller-Rabin filtered, with p != q; the pair is resampled until the
    product has exactly the requested bitlength.  The balanced factor
    split is preferred; the off-by-one split enters the rotation only
    after repeated failures (it is the only option for n_bits = 4).
    """
    if n_bits < 4:
        raise ValueError(f"n_bits must be >= 4, got {n_bits}")
    rng = random.Random(seed)
    splits = factor_splits(n_bits)
    attempt = 0
    while True:
        split = splits[0] if attempt < 32 else splits[attempt % 2]
        attempt += 1
        p = _random_prime(rng, split[0])
        q = _random_prime(rng, split[1])
        if p == q:
            continue
        if p > q:
            p, q = q, p
        value = p * q
        if value.bit_length() == n_bits:
            return Semiprime(value=value, p=p, q=q, n_bits=n_bits)


def trial_division(n: int) -> tuple[int, int]:
    """Smallest factor and cofactor of composite n, by naive candidate scan.

    Candidates are 2 then the odd numbers, no wheel.  Raises ValueError
    ("prime input") when no divisor up to sqrt(n) exists.
    """
    if n < 4:
        raise ValueError(f"need a composite >= 4, got {n}")
    if n % 2 == 0:
        return 2, n // 2
    candidate = 3
    while candidate * candidate <= n:
        if n % candidate == 0:
            return candidate, n // candidate
        candidate += 2
    raise ValueError(f"prime input: {n}")


def largest_prime_factor(x: int) -> int:
    """Largest prime dividing x, by repeated trial division (desk scale)."""
    if x < 2:
        raise ValueError(f"need x >= 2, got {x}")
    largest = 1
    while x % 2 == 0:
        largest = 2
        x //= 2
    candidate = 3
    while candidate * candidate <= x:
        while x % candidate == 0:
            largest = candidate
            x //= candidate
        candidate += 2
    if x > 1:
        largest = x
    return largest


def hamming_weight(x: int) -> int:
    return bin(x).count("1")


@dataclass(frozen=True)
class MetricVector:
    """Per-number features checked for correlation with solver time."""

    hw_n: int
    hw_p: int
    hw_q: int
    hw_pxq: int
    smooth_p1: int
    smooth_q1: int
    abs_diff: int
    log2_n: float

    FIELDS = ("hw_n", "hw_p", "hw_q", "hw_pxq", "smooth_p1", "smooth_q1", "abs_diff", "log2_n")


def metrics(s: Semiprime) -> MetricVector:
    """Hamming weights of N, p, q, p^q; smoothness of p-1, q-1; |p-q|; log2 N."""
    return MetricVector(
        hw_n=hamming_weight(s.value),
        hw_p=hamming_weight(s.p),
        hw_q=hamming_weight(s.q),
        hw_pxq=hamming_weight(s.p ^ s.q),
        smooth_p1=largest_prime_factor(s.p - 1),
        smooth_q1=largest_prime_factor(s.q - 1),
        abs_diff=s.q - s.p,
        log2_n=math.log2(s.value),
    )


SEMIPRIME_CSV_HEADER = ["n_bits", "N", "p", "q"]


def save_semiprimes_csv(semiprimes: list[Semiprime], path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SEMIPRIME_CSV_HEADER)
        for s in semiprimes:
            writer.writerow([s.n_bits, s.value, s.p, s.q])


def load_semiprimes_csv(path) -> list[Semiprime]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SEMIPRIME_CSV_HEADER:
            raise ValueError(f"expected header {SEMIPRIME_CSV_HEADER}, got {header}")
        return [
            Semiprime(value=int(row[1]), p=int(row[2]), q=int(row[3]), n_bits=int(row[0]))
            for row in reader
            if row
        ]
