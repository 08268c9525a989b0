import random

import pytest
from hypothesis import example, given, strategies as st

from abclab import field
from abclab.field import (
    P,
    Q,
    BadModulus,
    ZeroInverse,
    encode32,
    fe_inv,
    mod_inv,
    mod_pow,
    multi_mod_pow,
    sc_reduce_wide,
)

import oracles

# Fixed 1024-bit modulus for exponentiation tests.
M1024 = 2**1023 + 2**512 + 579

# Frozen from the repeated-multiplication oracle.
GOLDEN_POW_3_200 = (
    265613988875874769338781322035779626829233452653394495974574961739092490901302182994384699044001
)


class TestFeInv:
    def test_one(self):
        assert fe_inv(1) == 1

    def test_two(self):
        assert fe_inv(2) == (P + 1) // 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroInverse):
            fe_inv(0)

    def test_agrees_with_extended_euclid(self):
        # Cross-check against extended Euclid on 1000 random nonzero inputs.
        rng = random.Random(0x1A7)
        for _ in range(1000):
            x = rng.randrange(1, P)
            inv = fe_inv(x)
            assert inv == oracles.egcd_inverse(x, P)
            assert x * inv % P == 1


class TestModInv:
    @given(st.integers(min_value=2, max_value=2**1024), st.integers(min_value=0))
    def test_matches_builtin_inverse(self, m, a):
        try:
            expected = pow(a, -1, m)
        except ValueError:
            with pytest.raises(ValueError):
                mod_inv(a, m)
        else:
            assert mod_inv(a, m) == expected

    @pytest.mark.parametrize("a, m", [(0, 7), (14, 7), (6, 9), (2**512, 2**1024), (0, P)])
    def test_not_invertible(self, a, m):
        with pytest.raises(ValueError):
            mod_inv(a, m)


class TestModPow:
    def test_exp_zero(self):
        assert mod_pow(12345, 0, M1024) == 1
        assert mod_pow(0, 0, 7) == 1

    def test_small(self):
        assert mod_pow(2, 10, 1000) == 24

    def test_golden_1024(self):
        assert mod_pow(3, 200, M1024) == GOLDEN_POW_3_200

    def test_repeated_multiplication_oracle_with_reduction(self):
        # Base near the modulus so the reduction path is actually exercised.
        base = M1024 - 7
        assert mod_pow(base, 113, M1024) == oracles.repeated_mul_pow(base, 113, M1024)

    def test_bad_modulus(self):
        for m in (1, 0, -3):
            with pytest.raises(BadModulus):
                mod_pow(2, 2, m)

    def test_exponent_additivity(self):
        rng = random.Random(0xADD)
        for _ in range(50):
            m = rng.randrange(2, 1 << 64)
            g = rng.randrange(2, m)
            a, b = rng.randrange(1 << 32), rng.randrange(1 << 32)
            assert mod_pow(g, a + b, m) == mod_pow(g, a, m) * mod_pow(g, b, m) % m

    def test_square_and_multiply_induction(self):
        # pow(b, 2k) == pow(b, k)^2 and pow(b, 2k+1) == pow(b, k)^2 * b
        rng = random.Random(0x51)
        for _ in range(25):
            b = rng.randrange(2, M1024)
            k = rng.randrange(1, 1 << 128)
            sq = mod_pow(b, k, M1024)
            assert mod_pow(b, 2 * k, M1024) == sq * sq % M1024
            assert mod_pow(b, 2 * k + 1, M1024) == sq * sq % M1024 * b % M1024

    def test_matches_builtin(self):
        rng = random.Random(0xB17)
        for _ in range(20):
            b, e, m = rng.getrandbits(256), rng.getrandbits(96), rng.getrandbits(256) | 1
            if m < 2:
                m = 3
            assert mod_pow(b, e, m) == pow(b, e, m)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mod_pow(3, -5, 7)

    def test_base_wider_than_modulus(self):
        # The CRT shape: a 1024-bit representative against a 512-bit prime.
        rng = random.Random(0xC27)
        for _ in range(10):
            b, e = rng.getrandbits(1024) | 1 << 1023, rng.getrandbits(512)
            m = rng.getrandbits(512) | 1 << 511 | 1
            assert mod_pow(b, e, m) == pow(b, e, m)


class TestMultiModPow:
    # A pool of at most four bases makes repeated bases likely; bases reach
    # past the modulus, exponents are often 0 or 1 next to 1024-bit ones,
    # and up to 11 terms share one chain.
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 1100), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                           st.one_of(st.just(0), st.just(1),
                                     st.integers(min_value=0, max_value=1 << 1024))),
                 min_size=1, max_size=11),
        st.one_of(st.just(2), st.integers(min_value=2, max_value=1 << 1024)),
    )
    @example([3, M1024 + 5], [(0, 1), (1, (1 << 1024) - 1)], M1024)
    @example([7, 2**1100], [(0, 1), (1, 1 << 1023), (0, 0), (1, 5)] * 3, 2)
    def test_matches_product_of_mod_pow(self, pool, picks, m):
        # Builtin pow is the reference: mod_pow is itself the one-term case.
        terms = [(pool[i % len(pool)], exp) for i, exp in picks]
        want = 1
        for base, exp in terms:
            want = want * pow(base, exp, m) % m
        assert multi_mod_pow(terms, m) == want

    def test_three_groups_with_shared_bases(self):
        rng = random.Random(0x5EA)
        bases = [rng.randrange(M1024) for _ in range(4)]
        terms = [(bases[i % 4], rng.getrandbits(256)) for i in range(11)]
        terms.insert(4, (bases[0], 0))  # dropped before the chain
        want = 1
        for base, exp in terms:
            want = want * pow(base, exp, M1024) % M1024
        assert multi_mod_pow(terms, M1024) == want

    def test_empty_is_one(self):
        assert multi_mod_pow([], M1024) == 1

    def test_zero_exponents(self):
        assert multi_mod_pow([(12345, 0)], M1024) == 1
        assert multi_mod_pow([(0, 0), (7, 0)], 11) == 1
        assert multi_mod_pow([(3, 0), (3, 200), (0, 0)], M1024) == GOLDEN_POW_3_200
        assert multi_mod_pow([(0, 5), (2, 3)], 7) == 0

    def test_negative_exponent_rejected(self):
        for terms in ([(2, -1)], [(2, 5), (3, -2)]):
            with pytest.raises(ValueError):
                multi_mod_pow(terms, M1024)

    def test_bad_modulus(self):
        for m in (1, 0, -3):
            with pytest.raises(BadModulus):
                multi_mod_pow([(2, 2)], m)
            with pytest.raises(BadModulus):
                multi_mod_pow([], m)


class TestScReduceWide:
    def test_zero_bytes(self):
        assert sc_reduce_wide(bytes(32)) == 0

    def test_q_reduces_to_zero(self):
        assert sc_reduce_wide(Q.to_bytes(32, "big")) == 0

    def test_q_plus_one(self):
        assert sc_reduce_wide((Q + 1).to_bytes(32, "big")) == 1


class TestEncoding:
    def test_big_endian(self):
        assert encode32(1)[-1] == 1
        assert encode32(1)[0] == 0
        assert encode32(7) == b"\x00" * 31 + b"\x07"
