import numpy as np
import pytest

from markoff.field import (PrimeField, chi, factorize, inverse, is_prime, mod_p,
                           mult_order, prime_field, validate_odd_prime,
                           validate_prime)

from conftest import naive_chi

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def test_is_prime_small_range():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_validate_prime_rejects_composites():
    with pytest.raises(ValueError):
        validate_prime(91)
    with pytest.raises(ValueError):
        validate_odd_prime(2)
    assert validate_prime(2) == 2


def test_chi_frozen_examples():
    assert chi(0, 7) == 0
    assert chi(2, 7) == 1      # 3^2 = 2 mod 7
    assert chi(5, 13) == -1    # squares mod 13 are {1,3,4,9,10,12}


def test_chi_matches_square_enumeration():
    for p in SMALL_PRIMES:
        for x in range(p):
            assert chi(x, p) == naive_chi(x, p)


def test_chi_is_multiplicative():
    for p in (11, 13, 23):
        for x in range(1, p):
            for y in range(1, p):
                assert chi(x * y, p) == chi(x, p) * chi(y, p)


def test_chi_rejects_p2():
    with pytest.raises(ValueError):
        chi(1, 2)


def test_sqrt_frozen_examples():
    assert prime_field(7).sqrt_table[2] == 3      # roots 3 and 4
    assert prime_field(11).sqrt_table[0] == 0
    assert prime_field(13).sqrt_table[5] == -1


def test_sqrt_exhaustive_to_200():
    # each entry is the smaller root found by scanning, -1 when there is none
    for p in [q for q in range(3, 201) if is_prime(q)]:
        table = prime_field(p).sqrt_table
        for x in range(p):
            roots = [r for r in range(p) if r * r % p == x]
            assert int(table[x]) == (min(roots) if roots else -1)


def test_shifted_square_sums():
    # sum over t of chi(t^2 - c) is -1 for every c != 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        for c in range(1, p):
            assert sum(chi(t * t - c, p) for t in range(p)) == -1


def test_mod_p_is_the_remainder_on_ints_and_arrays():
    """mod_p equals % on negative and positive values, ints and int32/int64 arrays."""
    p = 26737
    edge = 3 * p * p + p  # the int32 bound of SolutionSet.blocks
    values = [-edge, -p * p, -p - 1, -p, -1, 0, 1, p - 1, p, p * p - 1, edge, 2 ** 31 - 1]
    for v in values:
        assert mod_p(v, p) == v % p
    for dtype in (np.int32, np.int64):
        x = np.array(values, dtype=dtype)
        got = mod_p(x, p)
        assert got.dtype == dtype and np.array_equal(got, x % p)
    wide = np.array([-(2 ** 62), 2 ** 62])
    assert np.array_equal(mod_p(wide, p), wide % p)


def test_inverse():
    for p in (7, 13):
        for x in range(1, p):
            assert x * inverse(x, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        inverse(0, 7)


def test_mult_order_identity():
    assert mult_order(1, 7) == 1


def test_mult_order_example_in_f89():
    # lambda = (7 + 3*sqrt(5))/2 has order 11 mod 89
    root5 = int(prime_field(89).sqrt_table[5])
    lam = (7 + 3 * root5) * inverse(2, 89) % 89
    assert mult_order(lam, 89) == 11


def test_mult_order_neg_one_squared():
    # r^2 = -1 mod 5 has multiplicative order 2
    assert mult_order(4, 5) == 2


def test_mult_order_matches_power_scan():
    for p in (7, 11, 13, 31):
        for x in range(1, p):
            n, y = 1, x
            while y != 1:
                y = y * x % p
                n += 1
            assert mult_order(x, p) == n


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 2 * 3 * 29) == {2: 2, 3: 1, 29: 1}


class TestPrimeField:
    def test_tables_match_scalar_functions(self):
        for p in (3, 5, 13, 97):
            fld = PrimeField(p)
            for x in range(p):
                assert int(fld.chi_table[x]) == chi(x, p)
                root = int(fld.sqrt_table[x])
                if chi(x, p) == -1:
                    assert root == -1
                else:
                    assert root * root % p == x
                if x:
                    assert int(fld.inv_table[x]) == inverse(x, p)
        p = 20011
        inv = PrimeField(p).inv_table
        x = np.arange(1, p, dtype=np.int64)
        assert inv[0] == 0 and inv.dtype == np.int32
        assert (inv[1:] > 0).all() and (inv[1:] < p).all()
        assert (x * inv[1:] % p == 1).all()
        assert int(inv[12345]) == inverse(12345, p)

    def test_log_table_inverts_the_powers_of_a_primitive_root(self):
        for p in (2, 3, 5, 13, 97, 20011):
            log = PrimeField(p).log_table
            x = np.arange(1, p)
            assert log.dtype == np.int32 and log[0] == 0
            assert sorted(log[1:].tolist()) == list(range(p - 1))  # a bijection onto [0, p - 1)
            g = next(y for y in range(1, p) if log[y] == 1) if p > 2 else 1
            assert mult_order(g, p) == p - 1
            assert all(pow(g, int(log[v]), p) == v for v in x[:: max(1, p // 500)])

    def test_shared_instance(self):
        assert prime_field(13) is prime_field(13)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(15)
