"""Exact arithmetic in F_p and F_{p^2}.

Residues are plain Python ints (or numpy int64 arrays for bulk work),
always reduced into [0, p).  A PrimeField caches lookup tables for the
quadratic character, square roots and inverses, so that p^2-sized sweeps
pay O(1) per query.
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


def inverse(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(x, -1, p)


def sqrt_mod(x: int, p: int) -> tuple[int, ...] | None:
    """All square roots of x mod an odd prime p.

    Returns (r, p - r) with r < p - r when x is a nonzero square, (0,)
    when x = 0, and None when x is a non-residue.  Tonelli-Shanks, with
    the x^((p+1)/4) shortcut for p = 3 mod 4.
    """
    if p == 2:
        raise ValueError("sqrt_mod needs an odd prime")
    x %= p
    if x == 0:
        return (0,)
    if chi(x, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
    else:
        r = _tonelli_shanks(x, p)
    r = min(r, p - r)
    return (r, p - r)


def _tonelli_shanks(x: int, p: int) -> int:
    # p-1 = q * 2^e with q odd; x known to be a nonzero residue
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = smallest_nonresidue(p)
    c = pow(z, q, p)
    r = pow(x, (q + 1) // 2, p)
    t = pow(x, q, p)
    m = e
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod p (deterministic choice)."""
    for n in range(2, p):
        if chi(n, p) == -1:
            return n
    raise ValueError(f"no non-residue mod {p}")


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


class QuadExtElement:
    """Element c0 + c1*w of F_{p^2} with w^2 = n, n a fixed non-residue."""

    __slots__ = ("c0", "c1", "p", "n")

    def __init__(self, c0: int, c1: int, p: int, n: int | None = None):
        self.p = p
        self.n = smallest_nonresidue(p) if n is None else n % p
        self.c0 = c0 % p
        self.c1 = c1 % p

    def in_base_field(self) -> bool:
        return self.c1 == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c1 == 0 and self.c0 == other % self.p
        return (self.p, self.n, self.c0, self.c1) == (other.p, other.n, other.c0, other.c1)

    def __hash__(self):
        return hash((self.p, self.n, self.c0, self.c1))

    def __mul__(self, other: "QuadExtElement") -> "QuadExtElement":
        p, n = self.p, self.n
        c0 = (self.c0 * other.c0 + self.c1 * other.c1 % p * n) % p
        c1 = (self.c0 * other.c1 + self.c1 * other.c0) % p
        return QuadExtElement(c0, c1, p, n)

    def __pow__(self, k: int) -> "QuadExtElement":
        result = QuadExtElement(1, 0, self.p, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def norm(self) -> int:
        # N(c0 + c1*w) = c0^2 - n*c1^2
        return (self.c0 * self.c0 - self.n * self.c1 * self.c1) % self.p

    def is_one(self) -> bool:
        return self.c0 == 1 and self.c1 == 0

    def mult_order(self) -> int:
        """Order in F_{p^2}^x; order divides p-1 inside F_p, p+1 for norm-1 elements."""
        if self.c0 == 0 and self.c1 == 0:
            raise ValueError("0 has no multiplicative order")
        p = self.p
        if self.in_base_field():
            group = p - 1
        elif self.norm() == 1:
            group = p + 1
        else:
            group = p * p - 1
        return _order_from_group(lambda k: (self ** k).is_one(), group)

    def __repr__(self):
        return f"QuadExtElement({self.c0} + {self.c1}*sqrt({self.n}) mod {self.p})"


def sqrt_in_extension(x: int, p: int) -> QuadExtElement:
    """A square root of x, in F_p if chi(x) >= 0, else in F_{p^2}."""
    roots = sqrt_mod(x, p)
    if roots is not None:
        return QuadExtElement(roots[0], 0, p)
    n = smallest_nonresidue(p)
    # x = n * (x/n) with x/n a residue, so sqrt(x) = w * sqrt(x/n)
    t = sqrt_mod(x * inverse(n, p) % p, p)[0]
    return QuadExtElement(0, t, p, n)


class PrimeField:
    """Cached lookup tables for one odd prime (chi, sqrt, inverse).

    Tables are built lazily on first access and shared read-only.
    """

    def __init__(self, p: int):
        validate_prime(p)
        if p > MAX_TABLE_PRIME:
            raise ValueError(f"p = {p} exceeds the table limit {MAX_TABLE_PRIME}")
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
        """int64 array: the smaller square root of x, or -1 if none."""
        p = self.p
        t = np.full(p, -1, dtype=np.int64)
        r = np.arange(p // 2 + 1, dtype=np.int64)
        t[(r * r) % p] = r
        return t

    @functools.cached_property
    def inv_table(self) -> np.ndarray:
        """int64 array: inv_table[x] = x^-1 mod p (entry 0 is unused, set to 0).

        Built as x^(p-2) by square-and-multiply over the whole array; every
        product is below p^2 <= MAX_TABLE_PRIME^2 < 2^63, so int64 is exact.
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
        return t

    def __repr__(self):
        return f"PrimeField({self.p})"


@functools.lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    """Shared PrimeField instance per prime (tables built once)."""
    return PrimeField(p)
