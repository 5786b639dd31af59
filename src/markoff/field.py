"""Exact arithmetic in F_p.

Residues are plain Python ints (or numpy integer arrays for bulk work),
always reduced into [0, p).  A PrimeField caches lookup tables for the
quadratic character, square roots, inverses and discrete logarithms, so
that p^2-sized sweeps pay O(1) per query.  Square roots come only from
PrimeField.sqrt_table.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_TABLE_PRIME = 20_000_000  # tables are O(p); guard against absurd p


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def validate_odd_prime(p: int) -> int:
    validate_prime(p)
    if p == 2:
        raise ValueError("p = 2 is not supported here (odd prime required)")
    return p


def chi(x: int, p: int) -> int:
    """Quadratic character mod p: 0 for 0, 1 for nonzero squares, -1 otherwise."""
    if p == 2:
        raise ValueError("quadratic character needs an odd prime")
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def mod_p(x, p: int):
    """x reduced into [0, p): the value of x % p, on ints or integer arrays.

    Written x - (x // p) * p because numpy's floor division of an integer
    array by a scalar is far faster than its remainder: the three passes
    take about a third of the time of x % p on int32 arrays and under
    half on int64 (numpy 2.4, x86-64).  No intermediate exceeds |x|, so
    the dtype of x stays exact.  The product is taken in place, one
    temporary array fewer.
    """
    q = x // p
    q *= p
    return x - q


def inverse(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, -1, p)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _order_from_group(pow_fn, group_order: int) -> int:
    """Order of an element given a multiple of it (the group order).

    pow_fn(k) must return True iff the element to the k-th power is the
    identity.  Starts from group_order and strips prime factors.
    """
    if not pow_fn(group_order):
        raise ArithmeticError("element order does not divide the group order")
    order = group_order
    for q in factorize(group_order):
        while order % q == 0 and pow_fn(order // q):
            order //= q
    return order


def mult_order(x: int, p: int) -> int:
    """Multiplicative order of x in F_p^x."""
    x %= p
    if x == 0:
        raise ValueError("0 has no multiplicative order")
    return _order_from_group(lambda k: pow(x, k, p) == 1, p - 1)


class PrimeField:
    """Cached lookup tables for one odd prime (chi, sqrt, inverse, log).

    Tables are built lazily on first access and shared read-only.
    """

    def __init__(self, p: int):
        # the limit first: trial division alone grows with sqrt(p)
        if p > MAX_TABLE_PRIME:
            raise ValueError(f"p = {p} exceeds the table limit {MAX_TABLE_PRIME}")
        validate_prime(p)
        self.p = p

    @functools.cached_property
    def chi_table(self) -> np.ndarray:
        """int8 array of length p: chi_table[x] = chi(x)."""
        p = self.p
        if p == 2:
            raise ValueError("no quadratic character mod 2")
        t = np.full(p, -1, dtype=np.int8)
        r = np.arange(p, dtype=np.int64)
        t[(r * r) % p] = 1
        t[0] = 0
        return t

    @functools.cached_property
    def sqrt_table(self) -> np.ndarray:
        """int64 array: the smaller square root of x, or -1 for a non-residue.

        Entry 0 is 0, the single root of 0.
        """
        p = self.p
        t = np.full(p, -1, dtype=np.int64)
        r = np.arange(p // 2 + 1, dtype=np.int64)
        t[(r * r) % p] = r
        return t

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """int32 array: inv_table[x] = x^-1 mod p (entry 0 is unused, set to 0).

        Built as x^(p-2) by square-and-multiply over the whole array; every
        product is below p^2 <= MAX_TABLE_PRIME^2 < 2^63, so int64 is exact.
        It is kept as int32, whose gathers by int32 coordinates numpy runs
        several times faster than those from an int64 table (numpy 2.4,
        x86-64); the entries are below p < 2^31.
        """
        p = self.p
        base = np.arange(p, dtype=np.int64)
        t = np.ones(p, dtype=np.int64)
        e = p - 2
        while e:
            if e & 1:
                t *= base
                t %= p
            base *= base
            base %= p
            e >>= 1
        t[0] = 0
        return t.astype(np.int32)

    @functools.cached_property
    def log_table(self) -> np.ndarray:
        """int32 array: log_table[x] = k in [0, p - 1) with g^k = x (entry 0 is unused, set to 0).

        g is the least primitive root.  The powers g^k are built by
        doubling, g^(n + j) = g^j * g^n filling the next n entries from
        the first n, so about log2(p) vector passes, each product below
        p^2 < 2^63.  Built once per prime, like inv_table.
        """
        p = self.p
        factors = factorize(p - 1)
        g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
        powers = np.ones(p - 1, dtype=np.int64)
        n = 1
        while n < p - 1:
            k = min(n, p - 1 - n)
            powers[n:n + k] = powers[:k] * pow(g, n, p) % p
            n += k
        t = np.zeros(p, dtype=np.int32)
        t[powers] = np.arange(p - 1, dtype=np.int32)
        return t

    def __repr__(self):
        return f"PrimeField({self.p})"


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    """Shared PrimeField instance per prime (tables built once)."""
    return PrimeField(p)
