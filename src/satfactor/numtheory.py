"""Number-theoretic primitives: primality, semi-prime sampling, baselines.

Everything here runs on Python's arbitrary-precision integers; no floating
point touches a value that must stay exact.  Sampling is deterministic for
a fixed seed, which is what makes whole experiments reproducible.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, fields

from .cnf import _integer

# Deterministic Miller-Rabin witnesses, smallest set first.  Below each bound
# the strong-probable-prime test to the first k prime bases is exact: the
# bound is the least composite that passes all k of them (Jaeschke, "On strong
# pseudoprimes to several bases", Math. Comp. 61, 1993; k = 9 by Jiang & Deng,
# Math. Comp. 83, 2014).  The 13-base row covers the full 64-bit range.
_SMALL_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_TABLE = (
    (2_047, _SMALL_WITNESSES[:1]),
    (1_373_653, _SMALL_WITNESSES[:2]),
    (25_326_001, _SMALL_WITNESSES[:3]),
    (3_215_031_751, _SMALL_WITNESSES[:4]),
    (2_152_302_898_747, _SMALL_WITNESSES[:5]),
    (3_474_749_660_383, _SMALL_WITNESSES[:6]),
    (341_550_071_728_321, _SMALL_WITNESSES[:7]),
    (3_825_123_056_546_413_051, _SMALL_WITNESSES[:9]),
    (1 << 64, _SMALL_WITNESSES),
)
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


def _witnesses(x: int):
    """Miller-Rabin bases for odd x > 37: the smallest proven set below 2^64,
    else 64 pseudo-random bases drawn from a generator seeded by x itself."""
    for bound, bases in _WITNESS_TABLE:
        if x < bound:
            return bases
    rng = random.Random(x)
    return [rng.randrange(2, x - 1) for _ in range(_RANDOM_ROUNDS)]


def _strong_probable_prime(x: int, bases) -> bool:
    """True when no base in ``bases`` witnesses the odd number x > 2 composite."""
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return all(_miller_rabin_round(x, a, d, r) for a in bases if a % x != 0)


def is_prime(x: int) -> bool:
    """Miller-Rabin primality test.

    Exact below 2^64, with the witness set sized to x; above that, 64
    reproducible pseudo-random bases bound the error below 4^-64.
    """
    if x < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if x == p:
            return True
        if x % p == 0:
            return False
    return _strong_probable_prime(x, _witnesses(x))


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
        if self.split not in factor_splits(self.n_bits):
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
    """The balanced factor-bitlength pairs (m_p, m_q), m_p <= m_q, of an
    n_bits-bit product: m_p + m_q in {n_bits, n_bits+1} with |m_p - m_q| <= 1.

    These are the widths of a semi-prime's two near-equal factors, not every
    pair that can produce an n_bits-bit product: 3063 = 3 * 1021 (widths 2
    and 10) has no factor pair here.  The balanced split comes first.
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


MetricVector.FIELDS = tuple(f.name for f in fields(MetricVector))


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


def semiprime_records(semiprimes) -> list[dict]:
    """Each semi-prime as ``{"n_bits", "N", "p", "q"}``: gen's JSON rows."""
    return [dict(zip(SEMIPRIME_CSV_HEADER, (s.n_bits, s.value, s.p, s.q))) for s in semiprimes]


def semiprimes_to_csv(semiprimes) -> str:
    """The CSV that :func:`load_semiprimes_csv` reads: the header, then one
    row per semi-prime."""
    rows = [SEMIPRIME_CSV_HEADER] + [r.values() for r in semiprime_records(semiprimes)]
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def load_semiprimes_csv(path) -> list[Semiprime]:
    """Read a ``gen`` CSV; a malformed row raises ValueError naming its line.

    The factors are checked prime here, where the rows enter the program:
    ``Semiprime`` itself trusts them, since ``gen_semiprime`` has already
    proved its factors prime.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != SEMIPRIME_CSV_HEADER:
            raise ValueError(f"expected header {SEMIPRIME_CSV_HEADER}, got {header}")
        semiprimes = []
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(SEMIPRIME_CSV_HEADER):
                raise ValueError(f"{where}: expected {len(SEMIPRIME_CSV_HEADER)} fields, got {len(row)}")
            try:
                n_bits, value, p, q = map(_integer, row)
                for factor in (p, q):
                    if not is_prime(factor):
                        raise ValueError(f"factor {factor} is not prime")
                semiprimes.append(Semiprime(value=value, p=p, q=q, n_bits=n_bits))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return semiprimes
